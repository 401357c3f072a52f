//! E2e tests of the metrics/tracing layer and the unified query API:
//! record conservation across the pipeline after a full sync, serde
//! round-trips of the snapshot, and `query()` parity with an independent
//! row-store scan.

use std::sync::Arc;

use imadg_db::{
    AdgCluster, ColumnType, Filter, MetricsSnapshot, NodeBuilder, ObjectId, Placement, Predicate,
    QueryRequest, Schema, Scn, TableSpec, TenantId, TraceStage, Value,
};

const OBJ: ObjectId = ObjectId(100);
const ROW_OBJ: ObjectId = ObjectId(101);

fn table_spec(id: ObjectId, name: &str) -> TableSpec {
    TableSpec {
        id,
        name: name.into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[
            ("id", ColumnType::Int),
            ("n1", ColumnType::Int),
            ("c1", ColumnType::Varchar),
        ]),
        key_ordinal: 0,
        rows_per_block: 16,
    }
}

/// A cluster with one IMCS-placed object and one row-store-only object.
fn cluster() -> Arc<AdgCluster> {
    let c = NodeBuilder::new().build().unwrap();
    c.create_table(table_spec(OBJ, "sales")).unwrap();
    c.create_table(table_spec(ROW_OBJ, "refs")).unwrap();
    c.set_placement(OBJ, Placement::StandbyOnly).unwrap();
    c
}

fn seed(c: &AdgCluster, object: ObjectId, from: i64, to: i64) {
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    for k in from..to {
        p.txm
            .insert(
                &mut tx,
                object,
                vec![Value::Int(k), Value::Int(k % 10), Value::str(format!("c{}", k % 7))],
            )
            .unwrap();
    }
    p.txm.commit(tx);
}

fn filter(c: &AdgCluster, object: ObjectId, col: &str, v: Value) -> Filter {
    let schema = c.primary().store.table(object).unwrap().schema.read().clone();
    Filter::of(Predicate::eq(&schema, col, v).unwrap())
}

fn sorted_keys(rows: &[imadg_db::Row]) -> Vec<i64> {
    let mut keys: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    keys.sort_unstable();
    keys
}

#[test]
fn pipeline_metrics_conserve_records_across_sync() {
    let c = cluster();
    seed(&c, OBJ, 0, 200);
    // Updates generate invalidations for already-populated blocks.
    for k in 0..20 {
        c.primary().update_one(OBJ, TenantId::DEFAULT, k, "n1", Value::Int(999)).unwrap();
    }
    // An aborted transaction: its mined journal records must be discarded,
    // not flushed.
    {
        let p = c.primary();
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        for k in 5000..5010 {
            p.txm
                .insert(&mut tx, OBJ, vec![Value::Int(k), Value::Int(0), Value::str("x")])
                .unwrap();
        }
        p.txm.abort(tx);
    }
    c.sync().unwrap();

    let pm = c.primary().metrics();
    let sm = c.standby().metrics();

    // Transport → merger → dispatcher: every data record shipped is merged
    // exactly once and dispatched exactly once.
    assert!(pm.transport.records_shipped > 0, "workload must ship redo");
    assert_eq!(pm.transport.records_shipped, sm.merger.records_merged);
    assert_eq!(sm.merger.records_merged, sm.apply.records_dispatched);

    // Journal conservation: every mined invalidation record is either
    // flushed to an SMU, discarded by an abort, or still buffered.
    assert!(sm.mining.mined > 0, "mining must buffer invalidations");
    assert!(sm.mining.abort_discarded_records > 0, "abort must discard records");
    assert_eq!(
        sm.mining.mined,
        sm.flush.flushed_records + sm.mining.abort_discarded_records + sm.journal.journal_records,
    );

    // Advancement happened and the pipeline is drained.
    assert!(sm.flush.advances > 0);
    assert_eq!(sm.journal.journal_txns, 0, "sync leaves no open transactions");
    assert_eq!(sm.commit_table.commit_table_pending, 0, "sync drains the commit table");
    assert!(sm.apply.applied_scn > 0);
    assert!(sm.apply.items_applied >= sm.apply.records_dispatched, "CVs fan out per record");
    assert!(sm.population.imcus_built > 0);
    assert!(sm.population.populated_rows as usize >= 200);
}

#[test]
fn metrics_snapshot_round_trips_through_serde() {
    let c = cluster();
    seed(&c, OBJ, 0, 100);
    c.sync().unwrap();

    // Exercise the query API so the scan stage and trace ring are non-empty.
    let standby = c.standby();
    standby.query(&QueryRequest::scan(OBJ)).unwrap();
    standby.query(&QueryRequest::scan(OBJ).filter(filter(&c, OBJ, "n1", Value::Int(4)))).unwrap();

    let snap = standby.metrics();
    assert!(snap.scan.queries >= 2);
    assert_eq!(snap.scan.queries, snap.scan.imcs_served + snap.scan.row_store_fallback);
    assert!(snap.scan.latency_us.count >= 2);

    let json = serde_json::to_string(&snap).unwrap();
    let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap, back, "snapshot must survive a serde round-trip");

    // The trace ring recorded both the advancement and the queries.
    assert!(snap.trace.iter().any(|e| e.stage == TraceStage::Advance));
    assert!(snap.trace.iter().any(|e| e.stage == TraceStage::Query));
}

#[test]
fn status_is_a_projection_of_metrics() {
    let c = cluster();
    seed(&c, OBJ, 0, 150);
    for k in 0..10 {
        c.primary().update_one(OBJ, TenantId::DEFAULT, k, "n1", Value::Int(555)).unwrap();
    }
    c.sync().unwrap();

    let standby = c.standby();
    let m = standby.metrics();
    let s = standby.status();
    assert_eq!(s.applied_scn.raw(), m.apply.applied_scn);
    assert_eq!(s.advances, m.flush.advances);
    assert_eq!(s.journal_txns as u64, m.journal.journal_txns);
    assert_eq!(s.journal_records as u64, m.journal.journal_records);
    assert_eq!(s.commit_table_pending as u64, m.commit_table.commit_table_pending);
    assert_eq!(s.populated_rows as u64, m.population.populated_rows);
    assert_eq!(s.flushed_records, m.flush.flushed_records);
    assert_eq!(s.coarse_invalidations, m.flush.coarse_invalidations);
    assert_eq!(s.query_scn.map(|x| x.raw()).unwrap_or(0), m.apply.query_scn);
}

#[test]
fn unified_query_matches_legacy_paths_byte_for_byte() {
    let c = cluster();
    seed(&c, OBJ, 0, 120);
    seed(&c, ROW_OBJ, 0, 60);
    c.sync().unwrap();
    let standby = c.standby();

    // The oracle: a buffer-cache scan filtered row by row at the answer's
    // own snapshot, compared as full row images in key order.
    let oracle = |object: ObjectId, f: &Filter, at: Scn| {
        let mut rows = Vec::new();
        standby
            .store
            .scan_object(object, at, None, |_, row| {
                if f.eval_row(row) {
                    rows.push(row.clone());
                }
            })
            .unwrap();
        rows.sort_by_key(|r| r[0].as_int());
        rows
    };
    let by_key = |mut rows: Vec<imadg_db::Row>| {
        rows.sort_by_key(|r| r[0].as_int());
        rows
    };

    // IMCS-served object.
    let f = filter(&c, OBJ, "n1", Value::Int(4));
    let out = standby.query(&QueryRequest::scan(OBJ).filter(f.clone())).unwrap();
    assert!(out.used_imcs);
    let expected = oracle(OBJ, &f, out.snapshot);
    assert_eq!(expected.len(), 12);
    assert_eq!(by_key(out.rows), expected, "IMCS-served rows must be byte-identical");

    // Row-store-fallback object (never placed in-memory).
    let f = filter(&c, ROW_OBJ, "n1", Value::Int(7));
    let out = standby.query(&QueryRequest::scan(ROW_OBJ).filter(f.clone())).unwrap();
    assert!(!out.used_imcs);
    let expected = oracle(ROW_OBJ, &f, out.snapshot);
    assert_eq!(expected.len(), 6);
    assert_eq!(by_key(out.rows), expected, "fallback rows must be byte-identical");

    // Aggregate push-down through the builder equals an aggregate folded
    // by hand from the row scan — an oracle with no deprecated delegate
    // in the loop.
    let f = filter(&c, OBJ, "n1", Value::Int(4));
    let rows = standby.query(&QueryRequest::scan(OBJ).filter(f.clone())).unwrap();
    let agg = standby.query(&QueryRequest::scan(OBJ).filter(f.clone()).aggregate("n1")).unwrap();
    let agg = agg.aggregate.unwrap();
    assert_eq!(agg.aggs.count as usize, rows.count());
    let sum: i128 = rows.rows.iter().map(|r| i128::from(r[1].as_int().unwrap())).sum();
    assert_eq!(agg.aggs.sum, sum);
}

#[test]
fn profiled_query_reports_phase_breakdown() {
    let c = cluster();
    seed(&c, OBJ, 0, 200);
    seed(&c, ROW_OBJ, 0, 40);
    // Stale rows force the journal-merge + fallback phases to do work.
    for k in 0..15 {
        c.primary().update_one(OBJ, TenantId::DEFAULT, k, "n1", Value::Int(777)).unwrap();
    }
    c.sync().unwrap();
    let standby = c.standby();

    // Unprofiled queries carry no profile.
    let plain = standby.query(&QueryRequest::scan(OBJ)).unwrap();
    assert!(plain.profile.is_none());

    // Profiled IMCS scan: one task per unit, same row set as unprofiled.
    let out = standby.query(&QueryRequest::scan(OBJ).profile()).unwrap();
    assert!(out.used_imcs);
    let prof = out.profile.as_ref().expect("profiled query returns a breakdown");
    assert_eq!(prof.tasks.len(), out.stats.as_ref().unwrap().parallel_tasks);
    assert!(prof.parallel_degree >= 1);
    assert!(prof.task_skew() >= 1.0);
    assert_eq!(out.rows.len(), plain.rows.len(), "profiling must not change results");
    // Every task's phase times are bounded by its total.
    for t in &prof.tasks {
        assert!(t.kernel_us + t.merge_us + t.fallback_us <= t.total_us.max(1) * 2);
    }

    // A filter no unit can match prunes via the storage index; the index
    // evaluation time routes to `pruning_us`, not `kernel_us`.
    let f = filter(&c, OBJ, "n1", Value::Int(100_000));
    let pruned = standby.query(&QueryRequest::scan(OBJ).filter(f).profile()).unwrap();
    assert_eq!(pruned.count(), 0);
    let pprof = pruned.profile.unwrap();
    assert!(
        pprof.tasks.iter().filter(|t| t.pruned).count() > 0,
        "100000 lies outside every frozen unit's min/max"
    );

    // Aggregate and row-store-fallback paths carry profiles too.
    let agg = standby.query(&QueryRequest::scan(OBJ).aggregate("n1").profile()).unwrap();
    assert!(agg.profile.is_some());
    let fb = standby.query(&QueryRequest::scan(ROW_OBJ).profile()).unwrap();
    assert!(!fb.used_imcs);
    let fbprof = fb.profile.unwrap();
    assert!(fbprof.tasks.is_empty(), "row-store execution has no per-unit tasks");
    assert_eq!(fbprof.parallel_degree, 1);

    // Profiles are machine-readable: serde round-trip.
    let json = serde_json::to_string(prof).unwrap();
    let back: imadg_db::QueryProfile = serde_json::from_str(&json).unwrap();
    assert_eq!(*prof, back);
}

#[test]
fn explicit_snapshot_queries_read_the_past() {
    let c = cluster();
    seed(&c, OBJ, 0, 50);
    c.sync().unwrap();
    let standby = c.standby();
    let old_scn = standby.current_query_scn().unwrap();
    let before = standby.query(&QueryRequest::scan(OBJ)).unwrap();
    assert_eq!(before.count(), 50);

    seed(&c, OBJ, 1000, 1010);
    c.sync().unwrap();

    // At the new QuerySCN all 60 rows are visible; at the old one, 50.
    let now = standby.query(&QueryRequest::scan(OBJ)).unwrap();
    assert_eq!(now.count(), 60);
    let past = standby.query(&QueryRequest::scan(OBJ).at(old_scn)).unwrap();
    assert_eq!(past.count(), 50);
    assert_eq!(past.snapshot, old_scn);
    assert_eq!(sorted_keys(&past.rows), (0..50).collect::<Vec<_>>());

    // A snapshot older than every unit's population SCN cannot be served
    // from frozen columnar data — the scan must bypass to row-store CR,
    // which sees nothing before the first commit.
    let genesis = standby.query(&QueryRequest::scan(OBJ).at(Scn(1))).unwrap();
    assert_eq!(genesis.count(), 0, "pre-population snapshot must see no rows");

    // Primary honors explicit snapshots too (row-store MVCC path).
    let p = c.primary();
    let mid = p.current_scn();
    seed(&c, ROW_OBJ, 0, 10);
    let all = p.query(&QueryRequest::scan(ROW_OBJ)).unwrap();
    assert_eq!(all.count(), 10);
    let empty = p.query(&QueryRequest::scan(ROW_OBJ).at(mid)).unwrap();
    assert_eq!(empty.count(), 0, "rows inserted after `mid` must be invisible");
}
