//! Multi-Instance Redo Apply — MIRA (paper §V, future work).
//!
//! "With Multi Instance Redo Apply, ADG can scale-out redo apply to
//! multiple instances … Enhancing the DBIM-on-ADG infrastructure to
//! support MIRA is very important." This module implements a working MIRA
//! deployment on top of the existing building blocks:
//!
//! * an **apply demux** routes the SCN-merged redo stream across standby
//!   instances: data CVs go to the instance the home-location map assigns
//!   their block to; transaction control records and DDL markers are
//!   *broadcast* so every instance's journal can anchor every transaction
//!   (this is what makes §III.E's missing-`begin` detection instance-local
//!   and avoids cross-instance coarse-invalidation false positives);
//! * each instance runs a full media-recovery pipeline — workers, mining,
//!   IM-ADG journal + commit table — over its partition, publishing a
//!   *local* consistency candidate;
//! * a **global coordinator** takes the minimum of the local candidates,
//!   enters the (shared) quiesce period, runs *every* instance's
//!   invalidation flush for that target, and only then publishes the
//!   cluster-wide QuerySCN all queries and population snapshots use.
//!
//! The deferred-flush discipline is what keeps the SIRA correctness
//! argument intact: invalidations stay journaled per instance until the
//! global advancement, so population's register-under-quiesce protocol
//! (see `imadg-imcs::population`) observes exactly the same guarantees it
//! does under single-instance redo apply.

use std::sync::Arc;
use std::time::Duration;

use imadg_common::{
    CpuAccount, Error, InstanceId, MetricsRegistry, ObjectId, ObjectSet, QueryScnCell, QuiesceLock,
    Result, Scn, SystemConfig,
};
use imadg_core::{DbimAdg, HomeLocationMap, LocalFlushTarget};
use imadg_imcs::{Filter, ImcsStore, PopulationEngine, PopulationReport, SnapshotSource};
use imadg_recovery::{AdvanceHook, MediaRecovery, NoopAdvanceHook};
use imadg_redo::{redo_link, LogMerger, RedoPayload, RedoRecord, RedoSender, RedoSource};
use imadg_storage::Store;
use parking_lot::Mutex;

use crate::query::{execute_request, QueryOutput, QueryRequest};

/// One MIRA apply instance: its own pipeline, DBIM-on-ADG state and IMCS.
pub struct MiraInstance {
    /// Instance id.
    pub id: InstanceId,
    /// This instance's apply pipeline.
    pub recovery: Arc<MediaRecovery>,
    /// This instance's DBIM-on-ADG infrastructure (journal, commit table,
    /// flush into the local column store).
    pub adg: Arc<DbimAdg>,
    /// Local consistency candidate (applied-through, flushable point).
    pub local_scn: Arc<QueryScnCell>,
    /// This instance's column store.
    pub imcs: Arc<ImcsStore>,
    /// This instance's population engine (global-QuerySCN snapshots).
    pub population: Arc<PopulationEngine>,
    /// Query busy time.
    pub query_cpu: CpuAccount,
}

/// The demux: merged redo → per-instance streams.
struct ApplyDemux {
    receivers: Vec<Box<dyn RedoSource>>,
    merger: LogMerger,
    home: HomeLocationMap,
    outs: Vec<RedoSender>,
}

impl ApplyDemux {
    /// Pump available redo to the instance streams; returns routed records.
    fn pump(&mut self) -> Result<usize> {
        for (i, rx) in self.receivers.iter_mut().enumerate() {
            let records = rx.drain_ready()?;
            if !records.is_empty() {
                self.merger.push(i, records);
            }
        }
        let ready = self.merger.pop_ready();
        if ready.is_empty() {
            return Ok(0);
        }
        let n = ready.len();
        for record in ready {
            match record.payload {
                RedoPayload::Change(cvs) => {
                    // Partition data CVs by home instance; preserve the
                    // record's SCN on every split part.
                    let mut per: Vec<Vec<imadg_storage::ChangeVector>> =
                        vec![Vec::new(); self.outs.len()];
                    for cv in cvs {
                        let inst = self.home.instance_for(cv.dba).0 as usize;
                        per[inst].push(cv);
                    }
                    for (i, cvs) in per.into_iter().enumerate() {
                        let payload = if cvs.is_empty() {
                            // Heartbeat keeps the idle instance's watermark
                            // moving so its local candidate can advance.
                            RedoPayload::Heartbeat
                        } else {
                            RedoPayload::Change(cvs)
                        };
                        self.send(
                            i,
                            RedoRecord {
                                thread: record.thread,
                                scn: record.scn,
                                born_us: record.born_us,
                                payload,
                            },
                        )?;
                    }
                }
                // Control records and markers broadcast to every instance.
                payload => {
                    for i in 0..self.outs.len() {
                        self.send(
                            i,
                            RedoRecord {
                                thread: record.thread,
                                scn: record.scn,
                                born_us: record.born_us,
                                payload: payload.clone(),
                            },
                        )?;
                    }
                }
            }
        }
        Ok(n)
    }

    fn send(&self, i: usize, r: RedoRecord) -> Result<()> {
        self.outs[i].send(vec![r])
    }
}

/// A standby cluster running Multi-Instance Redo Apply.
pub struct MiraStandby {
    /// The shared physical standby database.
    pub store: Arc<Store>,
    /// The cluster-wide QuerySCN all queries run at.
    pub query_scn: Arc<QueryScnCell>,
    /// The shared quiesce lock (global advancement ↔ population capture).
    pub quiesce: Arc<QuiesceLock>,
    /// Objects enabled for standby population (mining filter, shared).
    pub enabled: Arc<ObjectSet>,
    /// Metrics of the cluster-wide scans.
    pub metrics: MetricsRegistry,
    instances: Vec<Arc<MiraInstance>>,
    demux: Mutex<ApplyDemux>,
}

impl MiraStandby {
    /// Assemble a MIRA standby with `instances` apply instances over the
    /// primary redo streams in `receivers`.
    pub fn new(
        config: &SystemConfig,
        store: Arc<Store>,
        receivers: Vec<Box<dyn RedoSource>>,
        instances: usize,
    ) -> Result<Arc<MiraStandby>> {
        config.validate()?;
        let instances = instances.max(1);
        let query_scn = Arc::new(QueryScnCell::new());
        let quiesce = Arc::new(QuiesceLock::new());
        let enabled = Arc::new(ObjectSet::new());
        let ids: Vec<InstanceId> = (0..instances).map(|i| InstanceId(i as u8)).collect();
        let home = HomeLocationMap::new(ids.clone(), 4);

        let mut outs = Vec::with_capacity(instances);
        let mut insts = Vec::with_capacity(instances);
        for &id in &ids {
            let (tx, rx) = redo_link(Duration::ZERO);
            outs.push(tx);
            let imcs = Arc::new(ImcsStore::new());
            let adg = Arc::new(DbimAdg::new(
                &config.imcs,
                config.recovery.workers,
                enabled.clone(),
                store.clone(),
                Arc::new(LocalFlushTarget::new(imcs.clone())),
            )?);
            // Local cell: published by the instance's own coordinator as
            // "applied through"; the flush hook is a no-op here — flushing
            // is deferred to the *global* advancement (see module docs).
            let local_scn = Arc::new(QueryScnCell::new());
            let recovery = MediaRecovery::new(
                &config.recovery,
                store.clone(),
                vec![Box::new(rx) as Box<dyn RedoSource>],
                vec![adg.observer()],
                Some(adg.coop_helper()),
                Arc::new(NoopAdvanceHook),
                local_scn.clone(),
                Arc::new(QuiesceLock::new()), // local, uncontended
            )?;
            let mut engine = PopulationEngine::new(
                store.clone(),
                imcs.clone(),
                SnapshotSource::Standby { query_scn: query_scn.clone(), quiesce: quiesce.clone() },
                config.imcs.clone(),
            )?;
            if instances > 1 {
                let home = home.clone();
                engine.set_home_filter(Arc::new(move |dba| home.instance_for(dba) == id));
            }
            insts.push(Arc::new(MiraInstance {
                id,
                recovery,
                adg,
                local_scn,
                imcs,
                population: Arc::new(engine),
                query_cpu: CpuAccount::new(),
            }));
        }

        let streams = receivers.len().max(1);
        let demux = ApplyDemux { receivers, merger: LogMerger::new(streams), home, outs };

        Ok(Arc::new(MiraStandby {
            store,
            query_scn,
            quiesce,
            enabled,
            metrics: MetricsRegistry::default(),
            instances: insts,
            demux: Mutex::new(demux),
        }))
    }

    /// The apply instances.
    pub fn instances(&self) -> &[Arc<MiraInstance>] {
        &self.instances
    }

    /// Enable an object for population everywhere.
    pub fn enable_inmemory(&self, object: ObjectId) {
        self.enabled.enable(object);
        for i in &self.instances {
            i.population.enable(object);
        }
    }

    /// Global QuerySCN advancement: take the minimum local candidate,
    /// flush every instance's journal up to it under the shared quiesce,
    /// then publish.
    pub fn try_advance_global(&self) -> Option<Scn> {
        let target = self
            .instances
            .iter()
            .map(|i| i.local_scn.get().unwrap_or(Scn::ZERO))
            .min()
            .unwrap_or(Scn::ZERO);
        if target == Scn::ZERO {
            return None;
        }
        if let Some(current) = self.query_scn.get() {
            if target <= current {
                return None;
            }
        }
        {
            let _quiesce = self.quiesce.begin_quiesce();
            for i in &self.instances {
                i.adg.flush.flush_for_advance(target);
            }
            self.query_scn.publish(target);
        }
        Some(target)
    }

    /// One deterministic pass over the whole MIRA pipeline.
    pub fn pump(&self) -> Result<bool> {
        let routed = self.demux.lock().pump()?;
        let mut applied = false;
        for i in &self.instances {
            applied |= i.recovery.pump()?;
        }
        let advanced = self.try_advance_global().is_some();
        Ok(routed > 0 || applied || advanced)
    }

    /// Pump until idle.
    pub fn pump_until_idle(&self) -> Result<()> {
        while self.pump()? {}
        Ok(())
    }

    /// Run population to a fixed point on every instance.
    pub fn populate_until_idle(&self) -> Result<PopulationReport> {
        let mut total = PopulationReport::default();
        loop {
            let mut round = PopulationReport::default();
            for i in &self.instances {
                let r = i.population.run_once()?;
                round.populated += r.populated;
                round.repopulated += r.repopulated;
            }
            if !round.any() {
                return Ok(total);
            }
            total.populated += round.populated;
            total.repopulated += round.repopulated;
        }
    }

    /// The published cluster QuerySCN.
    pub fn current_query_scn(&self) -> Result<Scn> {
        self.query_scn.get().ok_or(Error::NoQueryScn)
    }

    /// Cluster-wide scan at the global QuerySCN.
    pub fn scan(&self, object: ObjectId, filter: &Filter) -> Result<QueryOutput> {
        let snapshot = self.current_query_scn()?;
        let _t = self.instances[0].query_cpu.timer();
        let stores: Vec<Arc<ImcsStore>> = self.instances.iter().map(|i| i.imcs.clone()).collect();
        let req = QueryRequest::scan(object).filter(filter.clone());
        let m = &self.metrics;
        execute_request(&stores, &self.store, &req, snapshot, 1, &m.scan, &m.tier, &m.trace)
    }
}
