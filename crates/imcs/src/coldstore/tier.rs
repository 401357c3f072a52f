//! The cold-tier engine: memory-pressure-driven eviction of IMCUs to the
//! on-disk columnar format, read-driven recall, L-Store-style
//! re-compaction of journal-heavy cold units, and restart-time restore.
//!
//! One engine runs per instance, driven as a runtime stage (the same
//! cooperative model as population). Every pass is one *decay epoch*:
//! per-handle scan counters and per-cold-unit read counters are drained,
//! so "recently touched" always means "since the last pass".
//!
//! Policy in one sentence: keep `ImcsStore::hot_bytes` under
//! `ImcsConfig::memory_budget_bytes` by evicting the least-scanned,
//! largest, journal-light units first — journal-heavy units are excluded
//! because they are about to be repopulated anyway (evicting them would
//! thrash: serialize, journal grows, re-compact, recall).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use imadg_common::metrics::TierMetrics;
use imadg_common::{ImcsConfig, Result, Scn};
use imadg_storage::Store;

use super::format::{write_cold_file, ColdUnit, ColdUnitFile};
use crate::imcs_store::{ImcsStore, ImcuHandle, ObjectImcs};
use crate::imcu::Imcu;
use crate::population::SnapshotSource;

/// Outcome of one tier pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierReport {
    /// Hot units serialized and evicted.
    pub evicted: usize,
    /// Cold units decoded back into DRAM.
    pub recalled: usize,
    /// Cold units re-compacted (journal merged into a fresh file).
    pub recompacted: usize,
    /// Obsolete cold files detached and deleted (a repopulation swap
    /// raced an eviction).
    pub orphans_cleared: usize,
}

impl TierReport {
    /// Did the pass do anything?
    pub fn any(&self) -> bool {
        self.evicted + self.recalled + self.recompacted + self.orphans_cleared > 0
    }
}

/// The per-instance cold-tier engine.
pub struct ColdTier {
    store: Arc<Store>,
    imcs: Arc<ImcsStore>,
    source: SnapshotSource,
    config: ImcsConfig,
    dir: PathBuf,
    metrics: Arc<TierMetrics>,
}

impl ColdTier {
    /// Build an engine writing cold files under `dir`.
    pub fn new(
        store: Arc<Store>,
        imcs: Arc<ImcsStore>,
        source: SnapshotSource,
        config: ImcsConfig,
        dir: PathBuf,
        metrics: Arc<TierMetrics>,
    ) -> ColdTier {
        ColdTier { store, imcs, source, config, dir, metrics }
    }

    /// The cold-tier directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The column store this engine tiers.
    pub fn imcs(&self) -> &Arc<ImcsStore> {
        &self.imcs
    }

    /// One pass: sweep orphans, re-compact journal-heavy cold units,
    /// recall recently-read cold units that fit, then evict down to the
    /// memory budget. Refreshes the on-disk gauges at the end.
    pub fn run_once(&self) -> Result<TierReport> {
        let mut report = TierReport::default();
        let pairs = self.all_handles();

        for (_, handle) in &pairs {
            if let Some(orphan) = handle.clear_cold_if_hot() {
                let _ = std::fs::remove_file(&orphan.path);
                report.orphans_cleared += 1;
            }
        }
        for (obj, handle) in &pairs {
            if self.recompact_if_stale(obj, handle)? {
                report.recompacted += 1;
            }
        }
        report.recalled = self.recall_pass(&pairs);
        report.evicted = self.evict_pass(&pairs)?;
        self.refresh_gauges();
        Ok(report)
    }

    /// Drive the tier to a fixed point: loop until a pass does nothing.
    pub fn run_until_idle(&self) -> Result<TierReport> {
        let mut total = TierReport::default();
        loop {
            let r = self.run_once()?;
            if !r.any() {
                return Ok(total);
            }
            total.evicted += r.evicted;
            total.recalled += r.recalled;
            total.recompacted += r.recompacted;
            total.orphans_cleared += r.orphans_cleared;
        }
    }

    fn all_handles(&self) -> Vec<(Arc<ObjectImcs>, Arc<ImcuHandle>)> {
        self.imcs
            .all_objects()
            .into_iter()
            .flat_map(|o| o.handles().into_iter().map(move |h| (o.clone(), h)))
            .collect()
    }

    /// Re-compact one cold unit when its journal crosses the repopulation
    /// threshold (or the unit was coarse-invalidated): rebuild the unit
    /// from the row store at a fresh consistency-point snapshot — the row
    /// store at that snapshot *is* the serialized data merged with every
    /// journaled change — write a fresh cold file, swap it in (SMU entries
    /// newer than the rebuild carry over), and delete the old file.
    fn recompact_if_stale(&self, obj: &ObjectImcs, handle: &ImcuHandle) -> Result<bool> {
        if !handle.is_cold() {
            return Ok(false);
        }
        let Some(cold) = handle.cold() else { return Ok(false) };
        let smu = handle.smu();
        let all_invalid = smu.read().all_invalid();
        if !all_invalid && smu.staleness(cold.meta.rows) < self.config.repopulate_threshold {
            return Ok(false);
        }
        let object = obj.object;
        let Ok(table) = self.store.table(object) else {
            // Table dropped from the dictionary: the file is garbage.
            self.discard_cold(handle, &cold);
            return Ok(false);
        };
        let schema = table.schema.read().clone();
        let Some(snapshot) = self.source.capture_and_register(|_| {}) else {
            return Ok(false); // no consistency point yet
        };
        if snapshot <= cold.meta.snapshot
            || (!all_invalid
                && snapshot.0.saturating_sub(cold.meta.snapshot.0)
                    < self.config.repopulate_min_scn_gap)
        {
            return Ok(false); // nothing newer to absorb / gap throttle
        }
        let exprs = self.imcs.expressions(object);
        let rebuilt = Imcu::build_with_expressions(
            &self.store,
            object,
            table.tenant,
            cold.meta.dbas.clone(),
            snapshot,
            &schema,
            &exprs,
        )?;
        let Ok((path, meta, bytes)) = write_cold_file(&self.dir, &rebuilt) else {
            return Ok(false); // disk trouble: keep serving the old file
        };
        handle.swap_to_cold(snapshot, Arc::new(ColdUnit::new(path, meta, bytes)));
        let _ = std::fs::remove_file(&cold.path);
        self.metrics.tier_recompactions.inc();
        Ok(true)
    }

    /// Recall cold units that took actual cold reads since the last pass,
    /// budget permitting (a zero budget means unlimited — everything that
    /// is being read may come back).
    fn recall_pass(&self, pairs: &[(Arc<ObjectImcs>, Arc<ImcuHandle>)]) -> usize {
        let budget = self.config.memory_budget_bytes;
        let mut hot = self.imcs.hot_bytes();
        let mut recalled = 0usize;
        for (_, handle) in pairs {
            if !handle.is_cold() {
                continue;
            }
            let Some(cold) = handle.cold() else { continue };
            if cold.take_reads() == 0 {
                continue;
            }
            if budget > 0 && hot + cold.bytes as usize > budget {
                continue; // no headroom — stays cold, pruning keeps it cheap
            }
            let decoded = ColdUnitFile::open(&cold.path).and_then(|f| f.into_imcu());
            let Some(imcu) = decoded else {
                // Corrupt file: detach so the population engine rebuilds
                // the unit from the row store.
                self.metrics.tier_read_errors.inc();
                self.discard_cold(handle, &cold);
                continue;
            };
            hot += imcu.approx_bytes();
            handle.install_hot(imcu);
            let _ = std::fs::remove_file(&cold.path);
            self.metrics.tier_recalls.inc();
            recalled += 1;
        }
        recalled
    }

    /// Evict least-recently-scanned, journal-light units until hot DRAM
    /// fits the budget.
    fn evict_pass(&self, pairs: &[(Arc<ObjectImcs>, Arc<ImcuHandle>)]) -> Result<usize> {
        let budget = self.config.memory_budget_bytes;
        if budget == 0 {
            return Ok(0); // unlimited: nothing to do
        }
        let mut hot = self.imcs.hot_bytes();
        if hot <= budget {
            return Ok(0);
        }
        // Score every hot unit. Draining the scan counters here makes one
        // tier pass one recency epoch for every candidate, evicted or not.
        let mut candidates: Vec<(&Arc<ImcuHandle>, u64, usize)> = Vec::new();
        for (_, handle) in pairs {
            let imcu = handle.imcu();
            let scans = handle.take_scans();
            if imcu.is_pending() || imcu.rows() == 0 {
                continue;
            }
            // Journal-size-aware: a unit past the repopulation threshold
            // is about to be rebuilt — evicting it now would thrash.
            if handle.smu().staleness(imcu.rows()) >= self.config.repopulate_threshold {
                continue;
            }
            candidates.push((handle, scans, imcu.approx_bytes()));
        }
        // Coldest first; among equals, largest first (fewest evictions to
        // reach the budget).
        candidates.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)));
        let mut evicted = 0usize;
        for (handle, _, bytes) in candidates {
            if hot <= budget {
                break;
            }
            let imcu = handle.imcu();
            if imcu.is_pending() {
                continue; // raced
            }
            let Ok((path, meta, file_bytes)) = write_cold_file(&self.dir, &imcu) else {
                continue; // disk trouble: skip this candidate
            };
            if handle.evict_to_cold(Arc::new(ColdUnit::new(path.clone(), meta, file_bytes))) {
                hot = hot.saturating_sub(bytes);
                self.metrics.tier_evictions.inc();
                evicted += 1;
            } else {
                // A repopulation swap raced us: the file describes a unit
                // that is no longer in the slot.
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok(evicted)
    }

    /// Detach and delete one cold unit's state + file.
    fn discard_cold(&self, handle: &ImcuHandle, cold: &ColdUnit) {
        handle.drop_cold();
        let _ = std::fs::remove_file(&cold.path);
    }

    /// Current (bytes on disk, cold-unit count) over this engine's store —
    /// multi-instance deployments sum these across engines before setting
    /// the shared gauges.
    pub fn sample(&self) -> (u64, u64) {
        let mut bytes = 0u64;
        let mut units = 0u64;
        for (_, handle) in self.all_handles() {
            if handle.is_cold() {
                if let Some(cold) = handle.cold() {
                    bytes += cold.bytes;
                    units += 1;
                }
            }
        }
        (bytes, units)
    }

    /// Re-sample the on-disk gauges from the handles' attached cold state.
    fn refresh_gauges(&self) {
        let (bytes, units) = self.sample();
        self.metrics.tier_bytes_on_disk.set(bytes);
        self.metrics.cold_units.set(units);
    }
}

/// Restart-time restore: register every qualifying cold file under `dir`
/// as a cold unit, from footer metadata alone — no column decode, no row
/// store scan. This is the "instant re-population" path: the moment a
/// file's handle is registered, scans serve it with pruning and pushdown.
///
/// `floor` is the oldest SCN the caller's redo replay can re-mine from.
/// A file frozen *before* the floor is deleted: invalidations for commits
/// between its snapshot and the floor were only in the lost in-memory
/// journal and cannot be recovered, so serving the file could return
/// stale data. Files at or past the floor are safe — the caller must then
/// lower its mining gate to the returned minimum snapshot so every commit
/// after each file's freeze point re-mines into the fresh SMU (per-unit,
/// replayed mining at or below a unit's snapshot is absorbed and dropped
/// by [`ImcuHandle::invalidate`]).
///
/// Returns the number of files restored and the minimum snapshot among
/// them (`None` when nothing was restored) — the mining gate to re-mine
/// from.
pub fn restore_cold_tier(
    imcs: &ImcsStore,
    store: &Store,
    dir: &Path,
    floor: Scn,
    metrics: &TierMetrics,
) -> Result<(usize, Option<Scn>)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok((0, None)); // no cold tier yet
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "imcf"))
        .collect();
    paths.sort();
    let mut restored = 0usize;
    let mut bytes_on_disk = 0u64;
    let mut min_snapshot: Option<Scn> = None;
    for path in paths {
        let Some(file) = ColdUnitFile::open(&path) else {
            // Torn eviction or bit rot: the row store still has the data.
            metrics.tier_read_errors.inc();
            let _ = std::fs::remove_file(&path);
            continue;
        };
        let meta = file.meta;
        let stale = meta.snapshot < floor;
        // The catalog may be empty here — after a hard crash tables only
        // re-create through DDL-marker replay, which runs *after* this
        // restore. An unknown table is restored optimistically: replayed
        // schema-changing DDL drops the object's units anyway, so only a
        // *known* version mismatch condemns the file now.
        let table = store.table(meta.object).ok();
        let schema_known_stale =
            table.as_ref().is_some_and(|t| t.schema.read().version() != meta.schema_version);
        if stale || schema_known_stale {
            let _ = std::fs::remove_file(&path);
            continue;
        }
        let obj = imcs.ensure_object(meta.object, meta.tenant);
        if meta.dbas.iter().any(|d| obj.covers(*d)) {
            // Another unit already claims part of the range (duplicate
            // file from a crashed re-compaction): keep the registered one.
            let _ = std::fs::remove_file(&path);
            continue;
        }
        let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let handle = Arc::new(ImcuHandle::new(Imcu::pending(
            meta.object,
            meta.tenant,
            meta.dbas.clone(),
            meta.snapshot,
            meta.schema_version,
        )));
        let snapshot = meta.snapshot;
        handle.restore_cold(Arc::new(ColdUnit::new(path, meta, file_bytes)));
        obj.register(handle);
        bytes_on_disk += file_bytes;
        restored += 1;
        min_snapshot = Some(min_snapshot.map_or(snapshot, |m: Scn| m.min(snapshot)));
    }
    metrics.tier_bytes_on_disk.set(bytes_on_disk);
    metrics.cold_units.set(restored as u64);
    Ok((restored, min_snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationEngine;
    use crate::predicate::{CmpOp, Filter, Predicate};
    use crate::scan::{execute, ScanPlan};
    use imadg_common::sync::ScnService;
    use imadg_common::{ObjectId, TenantId};
    use imadg_redo::LogBuffer;
    use imadg_storage::{ColumnType, DbaAllocator, Schema, TableSpec, Value};
    use imadg_txn::{InMemoryRegistry, LockTable, TxnIdService, TxnManager};
    use std::slice::from_ref;

    const OBJ: ObjectId = ObjectId(1);

    fn schema() -> Schema {
        Schema::of(&[("id", ColumnType::Int), ("n", ColumnType::Int)])
    }

    fn pred(col: &str, op: CmpOp, v: i64) -> Filter {
        Filter::of(Predicate::new(&schema(), col, op, Value::Int(v)).unwrap())
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("imadg-tier-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn primary() -> (TxnManager, Arc<Store>, Arc<ScnService>) {
        let store = Arc::new(Store::new());
        let scns = Arc::new(ScnService::new());
        let txm = TxnManager::new(
            store.clone(),
            scns.clone(),
            Arc::new(LogBuffer::new(imadg_common::RedoThreadId(1))),
            Arc::new(TxnIdService::new()),
            Arc::new(LockTable::new()),
            Arc::new(InMemoryRegistry::new()),
            Arc::new(DbaAllocator::default()),
        );
        txm.create_table(TableSpec {
            id: OBJ,
            name: "t".into(),
            tenant: TenantId::DEFAULT,
            schema: schema(),
            key_ordinal: 0,
            rows_per_block: 16,
        })
        .unwrap();
        (txm, store, scns)
    }

    fn load(txm: &TxnManager, n: i64) {
        let mut tx = txm.begin(TenantId::DEFAULT);
        for k in 0..n {
            txm.insert(&mut tx, OBJ, vec![Value::Int(k), Value::Int(k * 2)]).unwrap();
        }
        txm.commit(tx);
    }

    /// Populated store + tier over a temp dir with the given budget.
    fn tiered(
        budget: usize,
        tag: &str,
    ) -> (TxnManager, Arc<Store>, Arc<ScnService>, Arc<ImcsStore>, ColdTier, PathBuf) {
        let (txm, store, scns) = primary();
        load(&txm, 100); // 7 blocks of 16 → 4 units of ≤32 rows
        let cfg = ImcsConfig {
            imcu_max_rows: 32,
            memory_budget_bytes: budget,
            repopulate_min_scn_gap: 0,
            ..Default::default()
        };
        let imcs = Arc::new(ImcsStore::new());
        let engine = PopulationEngine::new(
            store.clone(),
            imcs.clone(),
            SnapshotSource::Primary(scns.clone()),
            cfg.clone(),
        )
        .unwrap();
        engine.enable(OBJ);
        engine.run_once().unwrap();
        let dir = tmp(tag);
        let tier = ColdTier::new(
            store.clone(),
            imcs.clone(),
            SnapshotSource::Primary(scns.clone()),
            cfg,
            dir.clone(),
            Arc::new(TierMetrics::default()),
        );
        (txm, store, scns, imcs, tier, dir)
    }

    fn rows_of(imcs: &Arc<ImcsStore>, store: &Store, filter: &Filter, at: Scn) -> Vec<Vec<Value>> {
        let r = execute(from_ref(imcs), store, OBJ, &ScanPlan::new(filter, at)).unwrap().unwrap();
        r.rows.into_iter().map(|row| row.values().to_vec()).collect()
    }

    #[test]
    fn evicts_to_budget_and_serves_bit_identical_scans() {
        let (_txm, store, scns, imcs, tier, dir) = tiered(1, "evict");
        let at = scns.current();
        let all = Filter::default();
        let hot_rows = rows_of(&imcs, &store, &all, at);
        assert_eq!(hot_rows.len(), 100);

        let report = tier.run_once().unwrap();
        assert_eq!(report.evicted, 4, "1-byte budget evicts every unit");
        let n_files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(n_files, 4);
        assert!(imcs.hot_bytes() < 1024, "placeholders only");

        let cold_rows = rows_of(&imcs, &store, &all, at);
        assert_eq!(hot_rows, cold_rows, "cold scan must be bit-identical");
        let r = execute(from_ref(&imcs), &store, OBJ, &ScanPlan::new(&all, at)).unwrap().unwrap();
        assert_eq!(r.stats.cold_read_units, 4);
        assert_eq!(r.stats.cold_read_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn footer_pruning_skips_non_matching_cold_units() {
        let (_txm, store, scns, imcs, tier, dir) = tiered(1, "prune");
        let at = scns.current();
        assert_eq!(tier.run_once().unwrap().evicted, 4);
        // ids 0..100 over units [0,32) [32,64) [64,96) [96,100): id >= 96
        // lives in the last unit only.
        let f = pred("id", CmpOp::Ge, 96);
        let r = execute(from_ref(&imcs), &store, OBJ, &ScanPlan::new(&f, at)).unwrap().unwrap();
        assert_eq!(r.rows.len(), 4);
        assert!(
            r.stats.cold_pruned_units >= 3,
            "min-max footers must prune non-matching units, got {:?}",
            r.stats
        );
        assert_eq!(r.stats.cold_read_units, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recalls_read_units_when_budget_allows() {
        let (_txm, store, scns, imcs, tier, dir) = tiered(1, "recall");
        let at = scns.current();
        assert_eq!(tier.run_once().unwrap().evicted, 4);
        // Touch every cold unit, then lift the budget: the next pass
        // brings everything that was read back into DRAM.
        let all = Filter::default();
        let before = rows_of(&imcs, &store, &all, at);
        let cfg = ImcsConfig { memory_budget_bytes: 0, ..Default::default() };
        let unbudgeted = ColdTier::new(
            store.clone(),
            imcs.clone(),
            SnapshotSource::Primary(scns.clone()),
            cfg,
            dir.clone(),
            Arc::new(TierMetrics::default()),
        );
        let report = unbudgeted.run_once().unwrap();
        assert_eq!(report.recalled, 4);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "files deleted on recall");
        let after = rows_of(&imcs, &store, &all, at);
        assert_eq!(before, after);
        let r = execute(from_ref(&imcs), &store, OBJ, &ScanPlan::new(&all, at)).unwrap().unwrap();
        assert_eq!(r.stats.cold_read_units, 0, "units are hot again");
        assert_eq!(r.stats.scanned_units, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recompacts_journal_heavy_cold_units() {
        let (txm, store, scns, imcs, tier, dir) = tiered(1, "recompact");
        assert_eq!(tier.run_once().unwrap().evicted, 4);
        // Rewrite a third of the table; route the invalidations to the
        // SMUs the way the standby's recovery workers would.
        let mut tx = txm.begin(TenantId::DEFAULT);
        let locs: Vec<_> = (0..33)
            .map(|k| txm.update_by_key(&mut tx, OBJ, k, |r| vec![r.get(0).clone(), Value::Int(-1)]))
            .collect::<imadg_common::Result<Vec<_>>>()
            .unwrap();
        let commit = txm.commit(tx);
        for loc in locs {
            imcs.invalidate(OBJ, loc, commit);
        }
        let report = tier.run_once().unwrap();
        assert!(report.recompacted >= 1, "stale cold units must re-compact: {report:?}");
        // The rebuilt files serve the new values without any journal pass.
        let at = scns.current();
        let f = pred("n", CmpOp::Eq, -1);
        let r = execute(from_ref(&imcs), &store, OBJ, &ScanPlan::new(&f, at)).unwrap().unwrap();
        assert_eq!(r.rows.len(), 33);
        assert_eq!(r.stats.cold_read_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_registers_files_instantly_and_respects_the_gate() {
        let (_txm, store, scns, imcs, tier, dir) = tiered(1, "restore");
        let at = scns.current();
        let all = Filter::default();
        let before = rows_of(&imcs, &store, &all, at);
        assert_eq!(tier.run_once().unwrap().evicted, 4);

        // "Restart": a brand-new column store, restored from footers only.
        let fresh = Arc::new(ImcsStore::new());
        let metrics = TierMetrics::default();
        let (n, min_snap) = restore_cold_tier(&fresh, &store, &dir, Scn::ZERO, &metrics).unwrap();
        assert_eq!(n, 4);
        assert!(min_snap.is_some_and(|s| s <= at), "restore reports the re-mine gate");
        assert_eq!(metrics.cold_units.get(), 4);
        let after = rows_of(&fresh, &store, &all, at);
        assert_eq!(before, after, "restored tier must serve identical data");

        // A floor past the files' snapshots rejects them all: their journal
        // updates died with the crash and cannot be re-mined, so the files
        // cannot be trusted.
        let fresh2 = Arc::new(ImcsStore::new());
        let (n2, _) = restore_cold_tier(&fresh2, &store, &dir, Scn(at.0 + 10), &metrics).unwrap();
        assert_eq!(n2, 0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "gated files deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cold_file_degrades_to_row_store_without_panicking() {
        let (_txm, store, scns, imcs, tier, dir) = tiered(1, "corrupt");
        let at = scns.current();
        let all = Filter::default();
        let before = rows_of(&imcs, &store, &all, at);
        assert_eq!(tier.run_once().unwrap().evicted, 4);
        // Torn write: truncate one file mid-body.
        let victim = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

        let r = execute(from_ref(&imcs), &store, OBJ, &ScanPlan::new(&all, at)).unwrap().unwrap();
        assert_eq!(r.stats.cold_read_errors, 1);
        let rows: Vec<_> = r.rows.into_iter().map(|row| row.values().to_vec()).collect();
        assert_eq!(before, rows, "row store covers the corrupt unit");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
