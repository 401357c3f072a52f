//! The query executor of the In-Memory Scan Engine.
//!
//! Every in-memory query follows one rule (paper §II.B): (1) take the
//! valid rows from the unit after storage-index pruning, (2) re-read every
//! row the SMU marks stale from the row store through Consistent Read, and
//! (3) scan the blocks no unit covers (the insert frontier beyond the edge
//! IMCU). [`execute`] runs a [`ScanPlan`] — predicate, output, snapshot,
//! degree, profile flag — through that rule once: one unit driver for hot
//! units and cold files, rows and aggregates alike.
//!
//! Predicates evaluate in *column space*: every conjunct runs through its
//! encoding's branchless kernel into a chunked selection bitmap (64 rows
//! per word), SMU validity converts to the same mask form, and the bitmaps
//! AND together — only final survivors reach the output sink, which either
//! materializes row images or folds the aggregated column. The sink is a
//! generic parameter, so each output shape gets its own compiled copy of
//! the driver and no row pays a dynamic call. Units are independent tasks,
//! so the walk fans out across a query-scoped worker pool
//! ([`crate::parallel`]) and merges per-unit partials in unit order:
//! results are bit-identical at every parallel degree. The old
//! row-at-a-time engine survives in [`crate::scalar`] as the parity oracle
//! and bench baseline.

use std::sync::Arc;
use std::time::Instant;

use imadg_common::{Dba, ObjectId, QueryProfile, Result, Scn, UnitTiming};
use imadg_storage::{Row, Store, Value};

use crate::aggregate::Aggregates;
use crate::bitmap::SelBitmap;
use crate::coldstore::{ColdUnit, ColdUnitFile};
use crate::imcs_store::{ImcsStore, ImcuHandle};
use crate::imcu::{ColAgg, Imcu};
use crate::parallel::run_indexed;
use crate::predicate::RowPredicate;
use crate::smu::SmuReadGuard;
use crate::storage_index::StorageIndex;

/// Where each result row came from, and what each unit cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Rows served from encoded IMCU data (hot or cold).
    pub imcu_rows: usize,
    /// Rows served via row-store fallback (SMU-invalid, post-snapshot
    /// inserts, pending or coarse-invalidated units).
    pub fallback_rows: usize,
    /// Rows served from uncovered blocks.
    pub uncovered_rows: usize,
    /// Units skipped by min/max (storage index or cold footer).
    pub pruned_units: usize,
    /// Units whose columns were scanned.
    pub scanned_units: usize,
    /// Units bypassed entirely (pending / all-invalid).
    pub bypassed_units: usize,
    /// Units an aggregate answered entirely from pre-computed metadata
    /// (O(1)): unit aggregates when hot, the file footer when cold.
    pub pushdown_units: usize,
    /// Cold units answered from footer metadata alone (min/max prune or
    /// footer aggregate pushdown) — zero file I/O.
    pub cold_pruned_units: usize,
    /// Cold units whose file was opened and predicate-filtered on disk.
    pub cold_read_units: usize,
    /// Cold files that failed to open or decode; the unit degraded to the
    /// row-store bypass (torn write, truncated footer, bit rot).
    pub cold_read_errors: usize,
    /// Per-unit scan tasks issued to the worker pool. A function of the
    /// unit count only — identical at every parallel degree.
    pub parallel_tasks: usize,
}

impl ScanStats {
    /// Total result rows (for aggregates: rows folded).
    pub fn total(&self) -> usize {
        self.imcu_rows + self.fallback_rows + self.uncovered_rows
    }

    /// Fold another unit's counters in (parallel per-unit reduce).
    pub fn absorb(&mut self, other: &ScanStats) {
        self.imcu_rows += other.imcu_rows;
        self.fallback_rows += other.fallback_rows;
        self.uncovered_rows += other.uncovered_rows;
        self.pruned_units += other.pruned_units;
        self.scanned_units += other.scanned_units;
        self.bypassed_units += other.bypassed_units;
        self.pushdown_units += other.pushdown_units;
        self.cold_pruned_units += other.cold_pruned_units;
        self.cold_read_units += other.cold_read_units;
        self.cold_read_errors += other.cold_read_errors;
        self.parallel_tasks += other.parallel_tasks;
    }
}

/// A completed scan of the scalar reference engine ([`crate::scalar`]).
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Matching row images.
    pub rows: Vec<Row>,
    /// Provenance counters.
    pub stats: ScanStats,
    /// Phase timings (never collected by the scalar engine).
    pub profile: Option<QueryProfile>,
}

/// What a plan returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// Matching row images.
    Rows,
    /// COUNT / SUM / MIN / MAX of the column at this ordinal over the
    /// matching rows.
    Aggregate(usize),
}

/// One in-memory query: what to match, what to return, and how to run.
#[derive(Debug)]
pub struct ScanPlan<'a, P> {
    /// The predicate ([`crate::Filter`] or [`crate::ExprPredicate`]).
    pub pred: &'a P,
    /// Rows or an aggregate.
    pub output: Output,
    /// The snapshot SCN the query reads at.
    pub snapshot: Scn,
    /// Parallel degree (`<= 1` = serial on the caller's thread).
    pub degree: usize,
    /// Collect a [`QueryProfile`] (per-phase and per-unit timings).
    pub profile: bool,
}

impl<'a, P: RowPredicate> ScanPlan<'a, P> {
    /// A serial, unprofiled row scan of `pred` at `snapshot`.
    pub fn new(pred: &'a P, snapshot: Scn) -> Self {
        ScanPlan { pred, output: Output::Rows, snapshot, degree: 1, profile: false }
    }
}

/// A completed [`execute`].
#[derive(Debug, Default)]
pub struct ScanOutput {
    /// Matching row images ([`Output::Rows`]; empty for aggregates).
    pub rows: Vec<Row>,
    /// The aggregates ([`Output::Aggregate`]; zero for row plans).
    pub aggs: Aggregates,
    /// Provenance counters.
    pub stats: ScanStats,
    /// Phase timings, when the plan asked for them.
    pub profile: Option<QueryProfile>,
}

/// Microseconds elapsed since `t` (profiler granularity).
fn micros(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

/// Where surviving rows go. Each `take_*` returns the rows it took.
trait Sink: Send {
    /// Answer a whole clean unit from metadata (`rows` rows, per-column
    /// aggregates via `agg`, min/max `summaries`), when the sink can.
    fn pushdown(
        &mut self,
        rows: usize,
        summaries: &StorageIndex,
        agg: impl FnOnce(usize) -> Option<ColAgg>,
    ) -> Option<usize>;
    /// Take the rows `sel` selects from a hot unit.
    fn take_hot(&mut self, imcu: &Imcu, sel: &SelBitmap) -> usize;
    /// Take the rows `sel` selects from a cold file. `None` — with the
    /// sink untouched — when a column fails to decode.
    fn take_cold(&mut self, file: &ColdUnitFile, sel: &SelBitmap) -> Option<usize>;
    /// Take one row image.
    fn take_row(&mut self, row: &Row);
    /// Append another unit's partial (merge in unit order).
    fn absorb(&mut self, other: Self);
    /// Hand the merged result over.
    fn finish(self, out: &mut ScanOutput);
}

/// Materializes survivors as row images.
#[derive(Default)]
struct RowSink(Vec<Row>);

impl Sink for RowSink {
    fn pushdown(
        &mut self,
        _: usize,
        _: &StorageIndex,
        _: impl FnOnce(usize) -> Option<ColAgg>,
    ) -> Option<usize> {
        None
    }

    fn take_hot(&mut self, imcu: &Imcu, sel: &SelBitmap) -> usize {
        let before = self.0.len();
        imcu.materialize_matches(sel, &mut self.0);
        self.0.len() - before
    }

    fn take_cold(&mut self, file: &ColdUnitFile, sel: &SelBitmap) -> Option<usize> {
        // Decode each base column once and gather column-at-a-time, like
        // the hot materializer. Every decode completes before the sink is
        // touched, so a corrupt column still degrades to a clean bypass.
        let rns: Vec<u32> = sel.iter_ones().collect();
        let base =
            if rns.is_empty() { 0 } else { file.meta.base_arity.min(file.meta.column_count()) };
        let mut cols: Vec<Vec<Value>> = Vec::with_capacity(base);
        for ord in 0..base {
            let mut values = Vec::with_capacity(rns.len());
            file.decode_column(ord)?.gather(&rns, &mut values);
            cols.push(values);
        }
        self.0.reserve(rns.len());
        for i in 0..rns.len() {
            self.0.push(Row::from_iter_exact(
                cols.iter_mut().map(|col| std::mem::replace(&mut col[i], Value::Null)),
            ));
        }
        Some(rns.len())
    }

    fn take_row(&mut self, row: &Row) {
        self.0.push(row.clone());
    }

    fn absorb(&mut self, other: Self) {
        self.0.extend(other.0);
    }

    fn finish(self, out: &mut ScanOutput) {
        out.rows = self.0;
    }
}

/// Folds the aggregated column of survivors without materializing rows.
struct AggSink {
    ordinal: usize,
    aggs: Aggregates,
}

impl Sink for AggSink {
    fn pushdown(
        &mut self,
        rows: usize,
        summaries: &StorageIndex,
        agg: impl FnOnce(usize) -> Option<ColAgg>,
    ) -> Option<usize> {
        let agg = agg(self.ordinal)?;
        self.aggs.add_unit(rows, agg, summaries.summary(self.ordinal));
        Some(rows)
    }

    fn take_hot(&mut self, imcu: &Imcu, sel: &SelBitmap) -> usize {
        let before = self.aggs.count;
        imcu.aggregate_masked(self.ordinal, sel, &mut self.aggs);
        (self.aggs.count - before) as usize
    }

    fn take_cold(&mut self, file: &ColdUnitFile, sel: &SelBitmap) -> Option<usize> {
        // The aggregated column is the only data decoded beyond the
        // predicate's columns; a missing ordinal aggregates as all-NULL.
        let before = self.aggs.count;
        if self.ordinal < file.meta.column_count() {
            file.decode_column(self.ordinal)?.aggregate_masked(sel, &mut self.aggs);
        } else {
            self.aggs.count += sel.count() as u64;
        }
        Some((self.aggs.count - before) as usize)
    }

    fn take_row(&mut self, row: &Row) {
        self.aggs.add(row.get(self.ordinal));
    }

    fn absorb(&mut self, other: Self) {
        self.aggs.merge(&other.aggs);
    }

    fn finish(self, out: &mut ScanOutput) {
        out.aggs = self.aggs;
    }
}

/// One unit's contribution to a query, merged by the driver in unit order.
struct UnitPartial<S> {
    sink: S,
    stats: ScanStats,
    covered: Vec<Dba>,
    timing: UnitTiming,
}

impl<S: Sink> UnitPartial<S> {
    /// A row image re-read from the row store: re-filter and take it.
    fn fallback<P: RowPredicate>(&mut self, pred: &P, row: &Row) {
        if pred.matches_row(row) {
            self.sink.take_row(row);
            self.stats.fallback_rows += 1;
        }
    }
}

/// Run one unit: the cold-tier attempt, the pending / all-invalid bypass,
/// the columnar bitmap ANDed with the SMU validity mask, and SMU
/// reconciliation — every stale location re-read from the row store.
///
/// Phase timings are always collected (an `Instant` read per phase is
/// noise next to the scan itself); the driver discards them unless the
/// plan asked for a profile.
fn scan_unit<P: RowPredicate, S: Sink>(
    handle: &ImcuHandle,
    store: &Store,
    plan: &ScanPlan<'_, P>,
    sink: S,
    unit: usize,
) -> Result<UnitPartial<S>> {
    let started = Instant::now();
    handle.note_scan();
    let (imcu, smu) = handle.pair();
    let mut p = UnitPartial {
        sink,
        stats: ScanStats::default(),
        covered: imcu.dbas.clone(),
        timing: UnitTiming { unit, ..Default::default() },
    };
    let view = smu.read();
    // The unit may also be frozen at a population SCN *after* the scan
    // snapshot, and the SMU only records post-population changes.
    let usable = !view.all_invalid() && plan.snapshot >= imcu.snapshot;
    let columnar = if !usable {
        false
    } else if !imcu.is_pending() {
        hot_columnar(&imcu, plan, &view, &mut p);
        true
    } else if let Some(cold) = handle.cold() {
        // Evicted unit (pending placeholder + attached cold state): serve
        // it from the columnar file. Any failure (torn file, CRC mismatch)
        // falls through to the bypass below — degraded, never wrong.
        let served =
            cold.meta.snapshot == imcu.snapshot && cold_columnar(&cold, plan, &view, &mut p);
        p.stats.cold_read_errors += usize::from(!served);
        served
    } else {
        false
    };

    if columnar {
        // SMU reconciliation: every stale or newly-inserted location must
        // be re-read from the row store and re-filtered — its current
        // value may match even though the frozen one did not. Batched by
        // block: one latch per block, not per row. The SMU latch is
        // released before the row-store fetches.
        let t = Instant::now();
        let mut stale = Vec::with_capacity(view.fallback_count());
        view.collect_fallback(&mut stale);
        drop(view);
        p.timing.merge_us += micros(t);
        let t = Instant::now();
        store.fetch_rows_batched(&mut stale, plan.snapshot, |_, row| p.fallback(plan.pred, row))?;
        p.timing.fallback_us += micros(t);
    } else {
        // No usable columnar data: the whole range from the row store.
        drop(view);
        p.stats.bypassed_units = 1;
        p.timing.bypassed = true;
        let t = Instant::now();
        store.scan_blocks(&imcu.dbas, plan.snapshot, |_, row| p.fallback(plan.pred, row))?;
        p.timing.fallback_us = micros(t);
    }
    p.timing.total_us = micros(started);
    Ok(p)
}

/// The columnar step of a hot unit: O(1) metadata pushdown when the sink
/// can and nothing is stale, otherwise the predicate bitmap ANDed with the
/// SMU validity mask, survivors handed to the sink.
fn hot_columnar<P: RowPredicate, S: Sink>(
    imcu: &Imcu,
    plan: &ScanPlan<'_, P>,
    view: &SmuReadGuard<'_>,
    p: &mut UnitPartial<S>,
) {
    let t = Instant::now();
    let clean = plan.pred.matches_all() && view.fallback_count() == 0;
    let agg = |o| imcu.column_agg(o);
    if let Some(n) = clean.then(|| p.sink.pushdown(imcu.rows(), &imcu.storage_index, agg)).flatten()
    {
        p.stats.imcu_rows = n;
        p.stats.pushdown_units = 1;
        p.timing.kernel_us = micros(t);
        return;
    }
    let Some(mut sel) = plan.pred.unit_bitmap(imcu) else {
        p.stats.pruned_units = 1;
        p.timing.pruned = true;
        p.timing.kernel_us = micros(t);
        return;
    };
    p.stats.scanned_units = 1;
    p.timing.kernel_us = micros(t);
    let t = Instant::now();
    if let Some(mask) = view.validity_mask(imcu.rows(), |l| imcu.rownum(l)) {
        sel.and_assign(&mask);
    }
    p.timing.merge_us = micros(t);
    let t = Instant::now();
    p.stats.imcu_rows = p.sink.take_hot(imcu, &sel);
    p.timing.kernel_us += micros(t);
}

/// The columnar step of a cold unit. Returns `false` — with `p` untouched
/// — on any open/decode failure so the caller degrades to the bypass.
///
/// Three tiers of work avoidance, cheapest first: footer pushdown, footer
/// min/max pruning (both zero file I/O), and only then the file — decoding
/// just the predicate's columns plus what the sink needs. Serialized rows
/// with journaled DML are masked out through the file's own loc index.
fn cold_columnar<P: RowPredicate, S: Sink>(
    cold: &ColdUnit,
    plan: &ScanPlan<'_, P>,
    view: &SmuReadGuard<'_>,
    p: &mut UnitPartial<S>,
) -> bool {
    let t = Instant::now();
    let meta = &cold.meta;
    let clean = plan.pred.matches_all() && view.fallback_count() == 0;
    let agg = |o: usize| meta.col_aggs.get(o).copied();
    if let Some(n) = clean.then(|| p.sink.pushdown(meta.rows, &meta.summaries, agg)).flatten() {
        p.stats.imcu_rows = n;
        p.stats.pushdown_units = 1;
        p.stats.cold_pruned_units = 1;
        p.timing.cold_pruned = true;
    } else if plan.pred.cold_prunes(meta) {
        // Journaled rows may still match their *current* version — the
        // reconciliation pass re-reads them from the row store.
        p.stats.pruned_units = 1;
        p.stats.cold_pruned_units = 1;
        p.timing.pruned = true;
        p.timing.cold_pruned = true;
    } else {
        let Some(n) = cold_read(cold, plan, view, &mut p.sink) else { return false };
        cold.note_read();
        p.stats.imcu_rows = n;
        p.stats.scanned_units = 1;
        p.stats.cold_read_units = 1;
        p.timing.cold_read = true;
    }
    p.timing.kernel_us = micros(t);
    true
}

/// Open a cold file, evaluate the predicate on disk, mask out journaled
/// rows, and hand the survivors to the sink.
fn cold_read<P: RowPredicate, S: Sink>(
    cold: &ColdUnit,
    plan: &ScanPlan<'_, P>,
    view: &SmuReadGuard<'_>,
    sink: &mut S,
) -> Option<usize> {
    let file = ColdUnitFile::open(&cold.path)?;
    let mut sel = plan.pred.cold_bitmap(&file)?;
    // The placeholder holds no rownums, so the loc → rownum map comes from
    // the file's row-location entry (decoded only when the journal is
    // non-empty).
    if view.fallback_count() > 0 {
        let index = file.loc_index()?;
        if let Some(mask) = view.validity_mask(file.meta.rows, |l| index.get(&l).copied()) {
            sel.and_assign(&mask);
        }
    }
    sink.take_cold(&file, &sel)
}

/// The one driver: fan the per-unit tasks across `plan.degree` workers,
/// merge partials in unit order (deterministic at any degree), then sweep
/// the uncovered block frontier.
fn drive<P: RowPredicate, S: Sink>(
    handles: &[Arc<ImcuHandle>],
    store: &Store,
    object: ObjectId,
    plan: &ScanPlan<'_, P>,
    sink: impl Fn() -> S + Sync,
) -> Result<ScanOutput> {
    let partials = run_indexed(plan.degree, handles.len(), |i| {
        scan_unit(handles[i].as_ref(), store, plan, sink(), i)
    });

    let mut out = ScanOutput::default();
    let mut prof = plan.profile.then(QueryProfile::default);
    let mut merged = sink();
    let mut covered: Vec<Dba> = Vec::new();
    for partial in partials {
        let p = partial?;
        if let Some(prof) = prof.as_mut() {
            prof.absorb_task(p.timing);
        }
        out.stats.absorb(&p.stats);
        merged.absorb(p.sink);
        covered.extend(p.covered);
    }
    out.stats.parallel_tasks = handles.len();

    // Blocks beyond any unit's coverage (fresh inserts past the edge
    // IMCU). Sorted-vec membership instead of a hash set: the DBA lists
    // are tiny and already nearly sorted, and `block_dbas` is a scan of
    // its own — binary search beats per-DBA hashing here.
    covered.sort_unstable();
    covered.dedup();
    let t = Instant::now();
    let uncovered: Vec<Dba> = store
        .block_dbas(object)?
        .into_iter()
        .filter(|d| covered.binary_search(d).is_err())
        .collect();
    if !uncovered.is_empty() {
        store.scan_blocks(&uncovered, plan.snapshot, |_, row| {
            if plan.pred.matches_row(row) {
                merged.take_row(row);
                out.stats.uncovered_rows += 1;
            }
        })?;
    }
    if let Some(prof) = prof.as_mut() {
        prof.uncovered_us = micros(t);
        prof.parallel_degree = plan.degree.max(1);
    }
    merged.finish(&mut out);
    out.profile = prof;
    Ok(out)
}

/// Execute `plan` against `object` across the given column stores (one per
/// instance; a RAC standby distributes IMCUs by home location, so a query
/// fans out across every instance's units — modelling Oracle's
/// cross-instance parallel execution), falling back to the row store where
/// the column store is stale or uncovered.
///
/// Returns `Ok(None)` when the object has no column-store presence at all
/// — the caller should run a plain row-store scan.
pub fn execute<P: RowPredicate>(
    stores: &[Arc<ImcsStore>],
    store: &Store,
    object: ObjectId,
    plan: &ScanPlan<'_, P>,
) -> Result<Option<ScanOutput>> {
    let entries: Vec<_> = stores.iter().filter_map(|s| s.object(object)).collect();
    if entries.is_empty() {
        return Ok(None);
    }
    let handles: Vec<Arc<ImcuHandle>> = entries.iter().flat_map(|e| e.handles()).collect();
    match plan.output {
        Output::Rows => drive(&handles, store, object, plan, RowSink::default),
        Output::Aggregate(ordinal) => drive(&handles, store, object, plan, || AggSink {
            ordinal,
            aggs: Aggregates::default(),
        }),
    }
    .map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{PopulationEngine, SnapshotSource};
    use crate::predicate::{CmpOp, Filter, Predicate};
    use imadg_common::{ImcsConfig, RedoThreadId, ScnService, TenantId};
    use imadg_redo::LogBuffer;
    use imadg_storage::{ColumnType, DbaAllocator, Schema, TableSpec, Value};
    use imadg_txn::{InMemoryRegistry, LockTable, TxnIdService, TxnManager};
    use std::sync::Arc;

    const OBJ: ObjectId = ObjectId(1);

    struct Fixture {
        txm: TxnManager,
        store: Arc<Store>,
        scns: Arc<ScnService>,
        engine: PopulationEngine,
    }

    fn fixture() -> Fixture {
        let store = Arc::new(Store::new());
        let scns = Arc::new(ScnService::new());
        let txm = TxnManager::new(
            store.clone(),
            scns.clone(),
            Arc::new(LogBuffer::new(RedoThreadId(1))),
            Arc::new(TxnIdService::new()),
            Arc::new(LockTable::new()),
            Arc::new(InMemoryRegistry::new()),
            Arc::new(DbaAllocator::default()),
        );
        txm.create_table(TableSpec {
            id: OBJ,
            name: "t".into(),
            tenant: TenantId::DEFAULT,
            schema: Schema::of(&[
                ("id", ColumnType::Int),
                ("n1", ColumnType::Int),
                ("c1", ColumnType::Varchar),
            ]),
            key_ordinal: 0,
            rows_per_block: 8,
        })
        .unwrap();
        let engine = PopulationEngine::new(
            store.clone(),
            Arc::new(ImcsStore::new()),
            SnapshotSource::Primary(scns.clone()),
            ImcsConfig { imcu_max_rows: 16, repopulate_min_scn_gap: 0, ..Default::default() },
        )
        .unwrap();
        engine.enable(OBJ);
        Fixture { txm, store, scns, engine }
    }

    fn seed(f: &Fixture, from: i64, to: i64) {
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        for k in from..to {
            f.txm
                .insert(
                    &mut tx,
                    OBJ,
                    vec![Value::Int(k), Value::Int(k % 10), Value::str(format!("c{}", k % 5))],
                )
                .unwrap();
        }
        f.txm.commit(tx);
    }

    fn schema(f: &Fixture) -> Schema {
        f.store.table(OBJ).unwrap().schema.read().clone()
    }

    fn scan(
        imcs: &Arc<ImcsStore>,
        store: &Store,
        object: ObjectId,
        filter: &Filter,
        snapshot: Scn,
    ) -> Result<Option<ScanOutput>> {
        execute(std::slice::from_ref(imcs), store, object, &ScanPlan::new(filter, snapshot))
    }

    #[test]
    fn pure_imcu_scan() {
        let f = fixture();
        seed(&f, 0, 100);
        f.engine.run_once().unwrap();
        let filt = Filter::of(Predicate::eq(&schema(&f), "n1", Value::Int(3)).unwrap());
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt, f.scns.current()).unwrap().unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.stats.imcu_rows, 10);
        assert_eq!(r.stats.fallback_rows, 0);
        assert_eq!(r.stats.uncovered_rows, 0);
        assert!(r.stats.parallel_tasks >= 1);
        for row in &r.rows {
            assert_eq!(row[1], Value::Int(3));
        }
    }

    #[test]
    fn unpopulated_object_returns_none() {
        let f = fixture();
        seed(&f, 0, 10);
        let r = scan(f.engine.imcs(), &f.store, OBJ, &Filter::all(), f.scns.current()).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn invalid_rows_served_from_row_store() {
        let f = fixture();
        seed(&f, 0, 50);
        f.engine.run_once().unwrap();
        // Update key 7's n1 from 7 to 42 and flush the invalidation by hand.
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        let loc = f.txm.update_column_by_key(&mut tx, OBJ, 7, "n1", Value::Int(42)).unwrap();
        let cscn = f.txm.commit(tx);
        assert!(f.engine.imcs().invalidate(OBJ, loc, cscn));

        let sc = schema(&f);
        // The stale value no longer matches…
        let filt7 = Filter::of(Predicate::eq(&sc, "n1", Value::Int(7)).unwrap());
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt7, f.scns.current()).unwrap().unwrap();
        let keys: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert!(!keys.contains(&7), "updated row must not match its old value");
        assert_eq!(r.rows.len(), 4, "17, 27, 37, 47 still match");
        // …and the new value matches via fallback.
        let filt42 = Filter::of(Predicate::eq(&sc, "n1", Value::Int(42)).unwrap());
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt42, f.scns.current()).unwrap().unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.stats.fallback_rows, 1);
        assert_eq!(r.rows[0][0], Value::Int(7));
    }

    #[test]
    fn snapshot_respects_invalidated_rows_history() {
        let f = fixture();
        seed(&f, 0, 20);
        f.engine.run_once().unwrap();
        let before = f.scns.current();
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        let loc = f.txm.update_column_by_key(&mut tx, OBJ, 3, "n1", Value::Int(99)).unwrap();
        let cscn = f.txm.commit(tx);
        f.engine.imcs().invalidate(OBJ, loc, cscn);
        // Scanning at the *old* snapshot: fallback fetch resolves the old
        // version through CR, so key 3 still matches n1=3.
        let filt = Filter::of(Predicate::eq(&schema(&f), "n1", Value::Int(3)).unwrap());
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt, before).unwrap().unwrap();
        let keys: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert!(keys.contains(&3), "CR at the old snapshot sees the old value");
    }

    #[test]
    fn uncovered_blocks_scanned_from_row_store() {
        let f = fixture();
        seed(&f, 0, 32);
        f.engine.run_once().unwrap();
        seed(&f, 100, 110); // new blocks, not yet populated
        let filt = Filter::all();
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt, f.scns.current()).unwrap().unwrap();
        assert_eq!(r.rows.len(), 42);
        assert!(r.stats.uncovered_rows > 0);
        // There can be edge overlap: the last covered block had free slots.
        assert_eq!(r.stats.total(), 42);
    }

    #[test]
    fn deleted_rows_disappear() {
        let f = fixture();
        seed(&f, 0, 10);
        f.engine.run_once().unwrap();
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        let loc = f.txm.delete_by_key(&mut tx, OBJ, 4).unwrap();
        let cscn = f.txm.commit(tx);
        f.engine.imcs().invalidate(OBJ, loc, cscn);
        let r = scan(f.engine.imcs(), &f.store, OBJ, &Filter::all(), f.scns.current())
            .unwrap()
            .unwrap();
        assert_eq!(r.rows.len(), 9);
        assert!(r.rows.iter().all(|row| row[0] != Value::Int(4)));
    }

    #[test]
    fn storage_index_prunes_but_fallback_still_checked() {
        let f = fixture();
        seed(&f, 0, 64); // n1 ∈ [0,9]
        f.engine.run_once().unwrap();
        // Update key 5 to an out-of-range value and invalidate.
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        let loc = f.txm.update_column_by_key(&mut tx, OBJ, 5, "n1", Value::Int(1000)).unwrap();
        let cscn = f.txm.commit(tx);
        f.engine.imcs().invalidate(OBJ, loc, cscn);
        let filt = Filter::of(Predicate::eq(&schema(&f), "n1", Value::Int(1000)).unwrap());
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt, f.scns.current()).unwrap().unwrap();
        assert!(r.stats.pruned_units >= 1, "min/max excludes 1000 from frozen units");
        assert_eq!(r.rows.len(), 1, "fallback row found despite pruning");
        assert_eq!(r.rows[0][0], Value::Int(5));
    }

    #[test]
    fn coarse_invalidated_units_bypass_to_row_store() {
        let f = fixture();
        seed(&f, 0, 30);
        f.engine.run_once().unwrap();
        f.engine.imcs().mark_tenant_invalid(TenantId::DEFAULT);
        let r = scan(f.engine.imcs(), &f.store, OBJ, &Filter::all(), f.scns.current())
            .unwrap()
            .unwrap();
        assert_eq!(r.rows.len(), 30);
        assert_eq!(r.stats.imcu_rows, 0);
        assert!(r.stats.bypassed_units > 0);
    }

    #[test]
    fn multi_term_filter() {
        let f = fixture();
        seed(&f, 0, 100);
        f.engine.run_once().unwrap();
        let sc = schema(&f);
        let filt = Filter {
            terms: vec![
                Predicate::eq(&sc, "n1", Value::Int(3)).unwrap(),
                Predicate::eq(&sc, "c1", Value::str("c3")).unwrap(),
            ],
        };
        let r = scan(f.engine.imcs(), &f.store, OBJ, &filt, f.scns.current()).unwrap().unwrap();
        // k % 10 == 3 and k % 5 == 3 → k ≡ 3 (mod 10) ∧ k ≡ 3 (mod 5) → k % 10 = 3.
        // c1 = c{k%5}; k%10==3 → k%5==3 → matches. So all 10 rows match.
        assert_eq!(r.rows.len(), 10);
    }

    /// The vectorized path must agree with the preserved scalar reference
    /// on a workload mixing valid IMCU rows, SMU fallbacks, and uncovered
    /// blocks.
    #[test]
    fn vectorized_matches_scalar_reference() {
        let f = fixture();
        seed(&f, 0, 120);
        f.engine.run_once().unwrap();
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        let locs: Vec<_> = [3, 13, 23]
            .iter()
            .map(|&k| f.txm.update_column_by_key(&mut tx, OBJ, k, "n1", Value::Int(3)).unwrap())
            .collect();
        let cscn = f.txm.commit(tx);
        for loc in locs {
            f.engine.imcs().invalidate(OBJ, loc, cscn);
        }
        seed(&f, 500, 520); // uncovered frontier
        let sc = schema(&f);
        let snapshot = f.scns.current();
        for filt in [
            Filter::all(),
            Filter::of(Predicate::eq(&sc, "n1", Value::Int(3)).unwrap()),
            Filter {
                terms: vec![
                    Predicate::new(&sc, "n1", CmpOp::Ge, Value::Int(2)).unwrap(),
                    Predicate::eq(&sc, "c1", Value::str("c2")).unwrap(),
                ],
            },
        ] {
            let v = scan(f.engine.imcs(), &f.store, OBJ, &filt, snapshot).unwrap().unwrap();
            let s = crate::scalar::scan_scalar(f.engine.imcs(), &f.store, OBJ, &filt, snapshot)
                .unwrap()
                .unwrap();
            assert_eq!(v.rows, s.rows, "filter {filt:?}");
        }
    }

    /// Degree-N execution must return the same rows and stats as serial.
    #[test]
    fn parallel_degree_is_deterministic() {
        let f = fixture();
        seed(&f, 0, 200); // 16-row units → many per-unit tasks
        f.engine.run_once().unwrap();
        let filt = Filter::of(Predicate::eq(&schema(&f), "n1", Value::Int(4)).unwrap());
        let snapshot = f.scns.current();
        let stores = [f.engine.imcs().clone()];
        let serial = scan(f.engine.imcs(), &f.store, OBJ, &filt, snapshot).unwrap().unwrap();
        for degree in [2, 4, 8] {
            let plan = ScanPlan { degree, ..ScanPlan::new(&filt, snapshot) };
            let par = execute(&stores, &f.store, OBJ, &plan).unwrap().unwrap();
            assert_eq!(par.rows, serial.rows, "degree {degree}");
            assert_eq!(par.stats, serial.stats, "degree {degree}");
        }
        assert!(serial.stats.parallel_tasks > 1);
    }

    /// A row inserted into a covered block, updated, carried over a
    /// repopulation whose snapshot falls between the two changes, and
    /// updated again is one stale location: row scans and aggregates
    /// count it exactly once.
    #[test]
    fn row_changed_across_a_repopulation_is_served_once() {
        let f = fixture();
        seed(&f, 0, 12); // blocks of 8: the second block has free slots
        f.engine.run_once().unwrap();
        let change = |k: i64, n1: i64| {
            let mut tx = f.txm.begin(TenantId::DEFAULT);
            let loc = f.txm.update_column_by_key(&mut tx, OBJ, k, "n1", Value::Int(n1)).unwrap();
            let scn = f.txm.commit(tx);
            f.engine.imcs().invalidate(OBJ, loc, scn);
            scn
        };
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        let loc = f.txm.insert(&mut tx, OBJ, vec![Value::Int(100), Value::Int(0), Value::str("x")]);
        let loc = loc.unwrap();
        let inserted = f.txm.commit(tx);
        let handle = f.engine.imcs().object(OBJ).unwrap().covering(loc.dba).unwrap();
        assert!(handle.imcu().rownum(loc).is_none(), "a post-snapshot insert");
        f.engine.imcs().invalidate(OBJ, loc, inserted);
        change(100, 1);
        // Repopulate at the insert's SCN: the rebuilt unit holds the row,
        // and the newer update carries over.
        let old = handle.imcu();
        let sc = schema(&f);
        handle
            .swap(Imcu::build(&f.store, OBJ, old.tenant, old.dbas.clone(), inserted, &sc).unwrap());
        assert!(handle.imcu().rownum(loc).is_some());
        change(100, 2);

        let snapshot = f.scns.current();
        let all = Filter::all();
        let r = scan(f.engine.imcs(), &f.store, OBJ, &all, snapshot).unwrap().unwrap();
        let hits = r.rows.iter().filter(|row| row[0] == Value::Int(100)).count();
        assert_eq!(hits, 1, "the row is served once");
        assert_eq!(r.rows.len(), 13);
        let stores = [f.engine.imcs().clone()];
        let plan = ScanPlan { output: Output::Aggregate(1), ..ScanPlan::new(&all, snapshot) };
        let agg = execute(&stores, &f.store, OBJ, &plan).unwrap().unwrap();
        assert_eq!(agg.aggs.count, 13, "the row is counted once");
        assert_eq!(agg.aggs.sum, (0..12).map(|k| k % 10).sum::<i128>() + 2);
    }

    /// An expression predicate drives both outputs: the aggregate folds
    /// exactly the rows the expression scan returns.
    #[test]
    fn expression_predicate_serves_rows_and_aggregates() {
        let f = fixture();
        seed(&f, 0, 60);
        f.engine.run_once().unwrap();
        let expr = Arc::new(crate::Expr::Add(
            Box::new(crate::Expr::Column(0)),
            Box::new(crate::Expr::Column(1)),
        ));
        let pred = crate::ExprPredicate {
            name: "id_plus_n1".into(),
            expr,
            op: CmpOp::Lt,
            value: Value::Int(20),
        };
        let stores = [f.engine.imcs().clone()];
        let snapshot = f.scns.current();
        let rows = execute(&stores, &f.store, OBJ, &ScanPlan::new(&pred, snapshot)).unwrap();
        let rows = rows.unwrap().rows;
        let plan = ScanPlan { output: Output::Aggregate(1), ..ScanPlan::new(&pred, snapshot) };
        let agg = execute(&stores, &f.store, OBJ, &plan).unwrap().unwrap();
        assert_eq!(agg.aggs.count as usize, rows.len());
        let sum: i128 = rows.iter().map(|r| i128::from(r[1].as_int().unwrap())).sum();
        assert_eq!(agg.aggs.sum, sum);
        assert_eq!(agg.stats.pushdown_units, 0, "a predicate forbids metadata pushdown");
    }
}
