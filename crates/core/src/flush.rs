//! The Invalidation Flush Component (paper §III.D).
//!
//! Runs inside QuerySCN advancement, under the quiesce lock: the commit
//! table is chopped into a worklink; the worklink is drained — by the
//! coordinator alone, or cooperatively with the recovery workers
//! (§III.D.2); each flushed transaction's invalidation records are grouped
//! per object and pushed to the SMUs through a [`FlushTarget`] (the local
//! column store, or the RAC distributor of §III.F). DDL markers buffered in
//! the DDL Information Table are processed first (§III.G). Partially-mined
//! transactions trigger per-tenant coarse invalidation (§III.E).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use imadg_common::metrics::FlushMetrics;
use imadg_common::{CpuAccount, ObjectId, ObjectSet, Scn, TenantId};
use imadg_imcs::ImcsStore;
use imadg_recovery::{AdvanceHook, CoopHelper};
use imadg_redo::DdlKind;
use imadg_storage::Store;
use parking_lot::RwLock;

use crate::commit_table::{CommitNode, CommitTable};
use crate::ddl_table::DdlTable;
use crate::invalidation::{group_records, InvalidationGroup};
use crate::journal::Journal;
use crate::worklink::Worklink;

/// Where invalidation groups land: the local IMCS, or the RAC distributor.
pub trait FlushTarget: Send + Sync {
    /// Deliver one invalidation group to the owning SMUs.
    fn flush_group(&self, group: &InvalidationGroup);
    /// Per-tenant coarse invalidation (§III.E).
    fn coarse_invalidate(&self, tenant: TenantId);
    /// Drop all IMCUs of `object` (definition-changing DDL, §III.G).
    fn drop_object_units(&self, object: ObjectId);
    /// Barrier before the QuerySCN publish: everything delivered so far
    /// must be visible in the SMUs (RAC waits for instance acks here).
    fn synchronize(&self);
}

/// Single-instance target: groups apply directly to the local column store.
pub struct LocalFlushTarget {
    imcs: Arc<ImcsStore>,
}

impl LocalFlushTarget {
    /// Target over the instance's column store.
    pub fn new(imcs: Arc<ImcsStore>) -> Self {
        LocalFlushTarget { imcs }
    }
}

impl FlushTarget for LocalFlushTarget {
    fn flush_group(&self, group: &InvalidationGroup) {
        for &loc in &group.locs {
            self.imcs.invalidate(group.object, loc, group.commit_scn);
        }
    }

    fn coarse_invalidate(&self, tenant: TenantId) {
        self.imcs.mark_tenant_invalid(tenant);
    }

    fn drop_object_units(&self, object: ObjectId) {
        self.imcs.drop_object(object);
    }

    fn synchronize(&self) {}
}

/// Flush event counters. Now the flush stage of the pipeline-wide
/// [`MetricsRegistry`](imadg_common::MetricsRegistry); the old name stays
/// as an alias for existing call sites.
pub type FlushStats = FlushMetrics;

/// The invalidation flush component.
pub struct InvalidationFlush {
    journal: Arc<Journal>,
    commit_table: Arc<CommitTable>,
    ddl_table: Arc<DdlTable>,
    target: Arc<dyn FlushTarget>,
    /// Standby dictionary, updated by replayed DDL.
    store: Arc<Store>,
    /// In-memory enablement set, updated by `SetInMemory` markers.
    enabled: Arc<ObjectSet>,
    /// The live worklink during an advancement (cooperative flush entry).
    current: RwLock<Option<Arc<Worklink>>>,
    /// Nodes the coordinator claims per loop iteration.
    coordinator_batch: usize,
    /// Flush busy time charged to the coordinator path.
    pub cpu: CpuAccount,
    /// Event counters (shared with the pipeline metrics registry).
    pub stats: Arc<FlushMetrics>,
}

impl InvalidationFlush {
    /// Wire the flush component with a private stats instance.
    pub fn new(
        journal: Arc<Journal>,
        commit_table: Arc<CommitTable>,
        ddl_table: Arc<DdlTable>,
        target: Arc<dyn FlushTarget>,
        store: Arc<Store>,
        enabled: Arc<ObjectSet>,
    ) -> InvalidationFlush {
        Self::with_metrics(journal, commit_table, ddl_table, target, store, enabled, Arc::default())
    }

    /// Wire the flush component reporting into a registry's flush stage.
    #[allow(clippy::too_many_arguments)]
    pub fn with_metrics(
        journal: Arc<Journal>,
        commit_table: Arc<CommitTable>,
        ddl_table: Arc<DdlTable>,
        target: Arc<dyn FlushTarget>,
        store: Arc<Store>,
        enabled: Arc<ObjectSet>,
        stats: Arc<FlushMetrics>,
    ) -> InvalidationFlush {
        InvalidationFlush {
            journal,
            commit_table,
            ddl_table,
            target,
            store,
            enabled,
            current: RwLock::new(None),
            coordinator_batch: 32,
            cpu: CpuAccount::new(),
            stats,
        }
    }

    /// Flush one committed transaction's buffered invalidations.
    fn flush_node(&self, node: &CommitNode) {
        // Retire the journal entry; prefer the commit node's direct anchor
        // reference ("one-step access") but fall back to a lookup for nodes
        // built without one.
        let anchor = node.anchor.clone().or_else(|| self.journal.anchor(node.txn));
        self.journal.remove(node.txn);

        // Partial-mining detection (§III.E): the journal has none, or only
        // part (missing `begin`), of the transaction's records — possible
        // only when the standby instance restarted mid-transaction.
        let partially_mined = match &anchor {
            None => true,
            Some(a) => !a.has_begin(),
        };
        if partially_mined && node.modified_inmemory != Some(false) {
            self.target.coarse_invalidate(node.tenant);
            self.stats.coarse_invalidations.fetch_add(1, Ordering::Relaxed);
        }

        if let Some(anchor) = anchor {
            let records = anchor.drain_records();
            self.stats.flushed_records.fetch_add(records.len() as u64, Ordering::Relaxed);
            for group in group_records(records, node.commit_scn) {
                self.target.flush_group(&group);
                self.stats.flush_groups.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.stats.flushed_txns.fetch_add(1, Ordering::Relaxed);
    }

    fn apply_ddl(&self, marker: &imadg_redo::RedoMarker) {
        match &marker.ddl {
            DdlKind::CreateTable(spec) => {
                // Dictionary replay; ignore "already exists" on replay.
                let _ = self.store.create_table(spec.clone());
            }
            DdlKind::AddColumn { name, ctype } => {
                if let Ok(meta) = self.store.table(marker.object) {
                    let _ = meta.schema.write().add_column(name.clone(), *ctype);
                }
                self.target.drop_object_units(marker.object);
            }
            DdlKind::DropColumn { name } => {
                if let Ok(meta) = self.store.table(marker.object) {
                    let _ = meta.schema.write().drop_column(name);
                }
                self.target.drop_object_units(marker.object);
            }
            DdlKind::SetInMemory { enabled } => {
                if *enabled {
                    self.enabled.enable(marker.object);
                } else {
                    self.enabled.disable(marker.object);
                    self.target.drop_object_units(marker.object);
                }
            }
        }
        self.stats.ddl_applied.fetch_add(1, Ordering::Relaxed);
    }
}

impl AdvanceHook for InvalidationFlush {
    fn flush_for_advance(&self, target_scn: Scn) {
        let _t = self.cpu.timer();
        // DDL first: definition changes at or below the new consistency
        // point take effect before any query can run at it.
        for (_scn, marker) in self.ddl_table.take_upto(target_scn) {
            self.apply_ddl(&marker);
        }

        let nodes = self.commit_table.chop(target_scn);
        if !nodes.is_empty() {
            let wl = Arc::new(Worklink::new(nodes));
            *self.current.write() = Some(wl.clone());
            // Cooperative drain: recovery workers pick nodes up through
            // `help_flush`; the coordinator drains alongside them and
            // publishes only when the worklink is empty.
            while !wl.drained() {
                let batch = wl.claim(self.coordinator_batch);
                if batch.is_empty() {
                    std::thread::yield_now();
                    continue;
                }
                for node in &batch {
                    self.flush_node(node);
                    wl.complete();
                }
            }
            *self.current.write() = None;
        }
        // RAC barrier: remote SMUs must be current before the publish.
        self.target.synchronize();
    }
}

impl CoopHelper for InvalidationFlush {
    fn help_flush(&self, budget: usize) -> usize {
        let Some(wl) = self.current.read().clone() else { return 0 };
        let batch = wl.claim(budget);
        for node in &batch {
            self.flush_node(node);
            wl.complete();
        }
        self.stats.coop_flushed.fetch_add(batch.len() as u64, Ordering::Relaxed);
        batch.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_common::{Dba, TxnId, WorkerId};
    use imadg_imcs::{ImcsStore, Imcu, ImcuHandle};
    use imadg_storage::{ColumnType, RowLoc, Schema, TableSpec};

    fn imcs_with_unit(obj: u32, dbas: &[u64]) -> (Arc<ImcsStore>, Arc<ImcuHandle>) {
        let imcs = Arc::new(ImcsStore::new());
        let o = imcs.ensure_object(ObjectId(obj), TenantId::DEFAULT);
        let h = Arc::new(ImcuHandle::new(Imcu::pending(
            ObjectId(obj),
            TenantId::DEFAULT,
            dbas.iter().map(|&d| Dba(d)).collect(),
            Scn(1),
            1,
        )));
        o.register(h.clone());
        (imcs, h)
    }

    fn flush_fixture(imcs: Arc<ImcsStore>) -> InvalidationFlush {
        let journal = Arc::new(Journal::new(16, 4));
        let enabled = Arc::new(ObjectSet::new());
        enabled.enable(ObjectId(1));
        InvalidationFlush::new(
            journal,
            Arc::new(CommitTable::new(2)),
            Arc::new(DdlTable::new()),
            Arc::new(LocalFlushTarget::new(imcs)),
            Arc::new(Store::new()),
            enabled,
        )
    }

    fn mine_txn(f: &InvalidationFlush, txn: u64, commit_scn: u64, locs: &[(u64, u16)]) {
        let anchor = f.journal.anchor_or_create(TxnId(txn), TenantId::DEFAULT);
        anchor.mark_begin();
        for &(dba, slot) in locs {
            anchor.add_record(
                WorkerId(0),
                crate::invalidation::InvalidationRecord {
                    object: ObjectId(1),
                    dba: Dba(dba),
                    slot,
                    tenant: TenantId::DEFAULT,
                },
            );
        }
        f.commit_table.insert(CommitNode {
            txn: TxnId(txn),
            tenant: TenantId::DEFAULT,
            commit_scn: Scn(commit_scn),
            modified_inmemory: Some(true),
            anchor: Some(anchor),
        });
    }

    #[test]
    fn advance_flushes_only_committed_up_to_target() {
        let (imcs, handle) = imcs_with_unit(1, &[10]);
        let f = flush_fixture(imcs);
        mine_txn(&f, 1, 5, &[(10, 0)]);
        mine_txn(&f, 2, 15, &[(10, 1)]);
        f.flush_for_advance(Scn(10));
        let smu = handle.smu();
        assert!(smu.read().is_invalid(RowLoc { dba: Dba(10), slot: 0 }));
        assert!(!smu.read().is_invalid(RowLoc { dba: Dba(10), slot: 1 }), "commit 15 > target 10");
        assert_eq!(f.commit_table.len(), 1, "future txn still pending");
        assert_eq!(f.journal.len(), 1);
        // A later advancement flushes the rest.
        f.flush_for_advance(Scn(20));
        assert!(handle.smu().read().is_invalid(RowLoc { dba: Dba(10), slot: 1 }));
        assert!(f.journal.is_empty());
        assert_eq!(f.stats.flushed_txns.load(Ordering::Relaxed), 2);
        assert_eq!(f.stats.flushed_records.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn partial_mining_triggers_coarse_invalidation() {
        let (imcs, handle) = imcs_with_unit(1, &[10]);
        let f = flush_fixture(imcs);
        // Commit node with no journal anchor (restart lost it), flag true.
        f.commit_table.insert(CommitNode {
            txn: TxnId(9),
            tenant: TenantId::DEFAULT,
            commit_scn: Scn(5),
            modified_inmemory: Some(true),
            anchor: None,
        });
        f.flush_for_advance(Scn(5));
        assert!(handle.smu().read().all_invalid());
        assert_eq!(f.stats.coarse_invalidations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn missing_begin_also_triggers_coarse() {
        let (imcs, handle) = imcs_with_unit(1, &[10]);
        let f = flush_fixture(imcs);
        // Anchor exists (post-restart CVs were mined) but begin is missing.
        let anchor = f.journal.anchor_or_create(TxnId(3), TenantId::DEFAULT);
        anchor.add_record(
            WorkerId(0),
            crate::invalidation::InvalidationRecord {
                object: ObjectId(1),
                dba: Dba(10),
                slot: 4,
                tenant: TenantId::DEFAULT,
            },
        );
        f.commit_table.insert(CommitNode {
            txn: TxnId(3),
            tenant: TenantId::DEFAULT,
            commit_scn: Scn(5),
            modified_inmemory: None, // pessimistic: no annotation
            anchor: Some(anchor),
        });
        f.flush_for_advance(Scn(5));
        let smu = handle.smu();
        assert!(smu.read().all_invalid(), "coarse");
        assert!(
            smu.read().is_invalid(RowLoc { dba: Dba(10), slot: 4 }),
            "mined part still flushed"
        );
    }

    #[test]
    fn clean_flag_suppresses_coarse() {
        let (imcs, handle) = imcs_with_unit(1, &[10]);
        let f = flush_fixture(imcs);
        f.commit_table.insert(CommitNode {
            txn: TxnId(4),
            tenant: TenantId::DEFAULT,
            commit_scn: Scn(5),
            modified_inmemory: Some(false),
            anchor: None,
        });
        f.flush_for_advance(Scn(5));
        assert!(!handle.smu().read().all_invalid(), "flag=false: no coarse needed");
        assert_eq!(f.stats.coarse_invalidations.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn cooperative_helper_drains_worklink() {
        let (imcs, _handle) = imcs_with_unit(1, &[10]);
        let f = Arc::new(flush_fixture(imcs));
        for t in 0..64 {
            mine_txn(&f, t, t + 1, &[(10, (t % 8) as u16)]);
        }
        // Run the advancement on one thread while helpers drain from others.
        let helpers: Vec<_> = (0..2)
            .map(|_| {
                let f = f.clone();
                std::thread::spawn(move || {
                    let mut total = 0;
                    for _ in 0..1000 {
                        total += f.help_flush(8);
                        std::thread::yield_now();
                    }
                    total
                })
            })
            .collect();
        f.flush_for_advance(Scn(100));
        for h in helpers {
            h.join().unwrap();
        }
        assert_eq!(f.stats.flushed_txns.load(Ordering::Relaxed), 64);
        assert!(f.commit_table.is_empty());
        assert!(f.current.read().is_none());
    }

    #[test]
    fn ddl_marker_drops_units_and_updates_dictionary() {
        let (imcs, _handle) = imcs_with_unit(1, &[10]);
        let f = flush_fixture(imcs.clone());
        f.store
            .create_table(TableSpec {
                id: ObjectId(1),
                name: "t".into(),
                tenant: TenantId::DEFAULT,
                schema: Schema::of(&[("id", ColumnType::Int), ("n1", ColumnType::Int)]),
                key_ordinal: 0,
                rows_per_block: 8,
            })
            .unwrap();
        f.ddl_table.insert(
            Scn(5),
            Arc::new(imadg_redo::RedoMarker {
                object: ObjectId(1),
                tenant: TenantId::DEFAULT,
                ddl: DdlKind::DropColumn { name: "n1".into() },
            }),
        );
        f.flush_for_advance(Scn(10));
        assert!(imcs.object(ObjectId(1)).is_none(), "units dropped");
        assert!(f.store.table(ObjectId(1)).unwrap().schema.read().ordinal("n1").is_err());
        assert_eq!(f.stats.ddl_applied.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn set_inmemory_false_disables_and_drops() {
        let (imcs, _h) = imcs_with_unit(1, &[10]);
        let f = flush_fixture(imcs.clone());
        assert!(f.enabled.is_enabled(ObjectId(1)));
        f.ddl_table.insert(
            Scn(2),
            Arc::new(imadg_redo::RedoMarker {
                object: ObjectId(1),
                tenant: TenantId::DEFAULT,
                ddl: DdlKind::SetInMemory { enabled: false },
            }),
        );
        f.flush_for_advance(Scn(5));
        assert!(!f.enabled.is_enabled(ObjectId(1)));
        assert!(imcs.object(ObjectId(1)).is_none());
    }
}
