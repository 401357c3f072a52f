//! Protocol-invariant tests across crates (DESIGN.md P2–P5): quiesce and
//! population snapshots, flush-before-publish, pessimistic coarse
//! invalidation without the commit annotation, multi-tenant scoping, and
//! journal hygiene.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use imadg::prelude::*;

const OBJ: ObjectId = ObjectId(1);

fn spec() -> TableSpec {
    TableSpec {
        id: OBJ,
        name: "t".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[("id", ColumnType::Int), ("v", ColumnType::Int)]),
        key_ordinal: 0,
        rows_per_block: 8,
    }
}

fn cluster_with(configure: impl FnOnce(NodeBuilder) -> NodeBuilder) -> Arc<AdgCluster> {
    let c = configure(NodeBuilder::new()).build().unwrap();
    c.create_table(spec()).unwrap();
    c.set_placement(OBJ, Placement::StandbyOnly).unwrap();
    c
}

fn seed(c: &AdgCluster, n: i64) {
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    for k in 0..n {
        p.txm.insert(&mut tx, OBJ, vec![Value::Int(k), Value::Int(k)]).unwrap();
    }
    p.txm.commit(tx);
}

/// P3: every populated unit's snapshot SCN is a published QuerySCN.
#[test]
fn population_snapshots_are_published_query_scns() {
    let c = cluster_with(|b| b);
    let mut published = Vec::new();
    for round in 0..5 {
        let p = c.primary();
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        for k in 0..20 {
            p.txm.insert(&mut tx, OBJ, vec![Value::Int(round * 20 + k), Value::Int(k)]).unwrap();
        }
        p.txm.commit(tx);
        c.sync().unwrap();
        published.push(c.standby().current_query_scn().unwrap());
    }
    let standby = c.standby();
    let obj = standby.instances()[0].imcs.object(OBJ).unwrap();
    for handle in obj.handles() {
        let snapshot = handle.imcu().snapshot;
        assert!(
            published.contains(&snapshot),
            "unit snapshot {snapshot:?} is not a published QuerySCN ({published:?})"
        );
    }
}

/// P2: after a sync, the journal holds no transaction at or below the
/// QuerySCN — every flushable invalidation was flushed before publish.
#[test]
fn journal_drains_at_advancement() {
    let c = cluster_with(|b| b);
    seed(&c, 50);
    c.sync().unwrap();
    let standby = c.standby();
    let adg = standby.adg.as_ref().unwrap();
    assert_eq!(adg.journal.len(), 0, "all committed txns flushed & retired");
    assert_eq!(adg.commit_table.len(), 0);
    // In-flight transactions stay journaled.
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm.update_column_by_key(&mut tx, OBJ, 1, "v", Value::Int(99)).unwrap();
    c.ship_redo().unwrap();
    standby.pump_until_idle().unwrap();
    assert_eq!(adg.journal.len(), 1, "open transaction buffered");
    assert_eq!(adg.commit_table.len(), 0, "not committed yet");
    p.txm.commit(tx);
    c.sync().unwrap();
    assert_eq!(adg.journal.len(), 0);
}

/// Aborted transactions leave no journal residue.
#[test]
fn aborts_clean_the_journal() {
    let c = cluster_with(|b| b);
    seed(&c, 10);
    c.sync().unwrap();
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm.update_column_by_key(&mut tx, OBJ, 1, "v", Value::Int(5)).unwrap();
    p.txm.abort(tx);
    c.sync().unwrap();
    let standby = c.standby();
    let adg = standby.adg.as_ref().unwrap();
    assert_eq!(adg.journal.len(), 0);
    assert_eq!(adg.flush.stats.coarse_invalidations.load(Ordering::Relaxed), 0);
    // The aborted update is invisible.
    let schema = p.store.table(OBJ).unwrap().schema.read().clone();
    let f = Filter::of(Predicate::eq(&schema, "v", Value::Int(5)).unwrap());
    assert_eq!(
        c.standby().query(&QueryRequest::scan(OBJ).filter(f.clone())).unwrap().count(),
        1,
        "only the seeded row v=5"
    );
}

/// §III.E: without the specialized commit annotation, the standby must be
/// pessimistic — but only when mining is actually incomplete.
#[test]
fn no_annotation_is_safe_but_not_needlessly_coarse() {
    let c = cluster_with(|b| b.commit_annotation(false));
    seed(&c, 30);
    c.sync().unwrap();
    let standby = c.standby();
    let adg = standby.adg.as_ref().unwrap();
    // Fully mined transactions (begin + records all seen) don't trigger
    // coarse invalidation even without the flag.
    assert_eq!(adg.flush.stats.coarse_invalidations.load(Ordering::Relaxed), 0);
    // Commit-table nodes are created for every txn (no fast-path skip).
    assert!(adg.flush.stats.flushed_txns.load(Ordering::Relaxed) > 0);

    // After a restart mid-transaction, pessimism kicks in.
    let p = c.primary();
    let mut tx = p.txm.begin(TenantId::DEFAULT);
    p.txm.update_column_by_key(&mut tx, OBJ, 1, "v", Value::Int(100)).unwrap();
    c.ship_redo().unwrap();
    standby.pump_until_idle().unwrap();
    c.restart_standby().unwrap();
    c.standby().pump_until_idle().unwrap();
    c.standby().populate_until_idle().unwrap();
    p.txm.commit(tx);
    c.sync().unwrap();
    let adg = c.standby();
    let adg = adg.adg.as_ref().unwrap();
    assert!(adg.flush.stats.coarse_invalidations.load(Ordering::Relaxed) >= 1);
}

/// Coarse invalidation is scoped to the offending tenant.
#[test]
fn coarse_invalidation_is_tenant_scoped() {
    let c = NodeBuilder::new().build().unwrap();
    let mut t1 = spec();
    t1.id = ObjectId(1);
    t1.tenant = TenantId(1);
    let mut t2 = spec();
    t2.id = ObjectId(2);
    t2.name = "t2".into();
    t2.tenant = TenantId(2);
    c.create_table(t1).unwrap();
    c.create_table(t2).unwrap();
    c.set_placement(ObjectId(1), Placement::StandbyOnly).unwrap();
    c.set_placement(ObjectId(2), Placement::StandbyOnly).unwrap();
    let p = c.primary();
    for (obj, tenant) in [(ObjectId(1), TenantId(1)), (ObjectId(2), TenantId(2))] {
        let mut tx = p.txm.begin(tenant);
        for k in 0..20 {
            p.txm.insert(&mut tx, obj, vec![Value::Int(k), Value::Int(k)]).unwrap();
        }
        p.txm.commit(tx);
    }
    c.sync().unwrap();

    // Straddle a restart with a tenant-1 transaction.
    let mut tx = p.txm.begin(TenantId(1));
    p.txm.update_column_by_key(&mut tx, ObjectId(1), 1, "v", Value::Int(7)).unwrap();
    c.ship_redo().unwrap();
    c.standby().pump_until_idle().unwrap();
    c.restart_standby().unwrap();
    // Unrelated tenant-2 activity re-establishes a QuerySCN so the fresh
    // IMCS can populate before the straddling commit arrives.
    let mut filler = p.txm.begin(TenantId(2));
    p.txm.update_column_by_key(&mut filler, ObjectId(2), 1, "v", Value::Int(5)).unwrap();
    p.txm.commit(filler);
    c.ship_redo().unwrap();
    c.standby().pump_until_idle().unwrap();
    c.standby().populate_until_idle().unwrap();
    assert!(c.standby().instances()[0].imcs.populated_rows() > 0, "repopulated after restart");
    p.txm.commit(tx);
    c.ship_redo().unwrap();
    let standby = c.standby();
    standby.pump_until_idle().unwrap();

    // Tenant 1's units went coarse; tenant 2's are untouched.
    let imcs = &standby.instances()[0].imcs;
    let t1_units = imcs.object(ObjectId(1)).unwrap();
    assert!(t1_units.handles().iter().any(|h| h.smu().read().all_invalid()));
    let t2_units = imcs.object(ObjectId(2)).unwrap();
    assert!(t2_units.handles().iter().all(|h| !h.smu().read().all_invalid()));
}

/// QuerySCN leapfrogs: consecutive published values under a bursty load
/// skip SCNs but never move backwards.
#[test]
fn query_scn_leapfrogs_monotonically() {
    let c = cluster_with(|b| b.tune(|s| s.recovery.workers = 8));
    let mut last = Scn::ZERO;
    let mut gaps = Vec::new();
    for round in 0..8i64 {
        let p = c.primary();
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        for k in 0..16 {
            p.txm.insert(&mut tx, OBJ, vec![Value::Int(round * 16 + k), Value::Int(k)]).unwrap();
        }
        p.txm.commit(tx);
        c.sync().unwrap();
        let q = c.standby().current_query_scn().unwrap();
        assert!(q > last);
        gaps.push(q.raw() - last.raw());
        last = q;
    }
    assert!(gaps.iter().all(|&g| g >= 1));
    assert!(gaps.iter().any(|&g| g > 1), "bursts make the QuerySCN leapfrog: {gaps:?}");
}

/// Mining sniffs every row CV but only journals in-memory-enabled objects.
#[test]
fn mining_filters_by_enablement() {
    let c = NodeBuilder::new().build().unwrap();
    let mut inmem = spec();
    inmem.id = ObjectId(1);
    let mut plain = spec();
    plain.id = ObjectId(2);
    plain.name = "plain".into();
    c.create_table(inmem).unwrap();
    c.create_table(plain).unwrap();
    c.set_placement(ObjectId(1), Placement::StandbyOnly).unwrap();
    // ObjectId(2) stays row-store only.

    let p = c.primary();
    for obj in [ObjectId(1), ObjectId(2)] {
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        for k in 0..10 {
            p.txm.insert(&mut tx, obj, vec![Value::Int(k), Value::Int(k)]).unwrap();
        }
        p.txm.commit(tx);
    }
    c.sync().unwrap();
    let standby = c.standby();
    let mining = &standby.adg.as_ref().unwrap().mining;
    let sniffed = mining.stats.sniffed.load(Ordering::Relaxed);
    let mined = mining.stats.mined.load(Ordering::Relaxed);
    assert!(sniffed >= 20, "every row CV is sniffed");
    assert_eq!(mined, 10, "only the enabled object's CVs are journaled");
}

/// The standby is read-only for queries even while population and
/// invalidation churn; a scan never observes a torn unit swap.
#[test]
fn scans_never_observe_torn_swaps() {
    let c = cluster_with(|b| {
        b.tune(|s| {
            s.imcs.imcu_max_rows = 64;
            s.imcs.repopulate_threshold = 0.0;
            s.imcs.repopulate_min_scn_gap = 0;
            s.imcs.build_pause_micros = 0;
        })
    });
    seed(&c, 200);
    c.sync().unwrap();
    // Interleave updates + repopulation + scans; every scan must return
    // exactly 200 rows with unique keys.
    let p = c.primary();
    for round in 0..10i64 {
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        for k in 0..20 {
            p.txm
                .update_column_by_key(&mut tx, OBJ, (round * 20 + k) % 200, "v", Value::Int(round))
                .unwrap();
        }
        p.txm.commit(tx);
        c.sync().unwrap();
        let out = c.standby().query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
        assert_eq!(out.count(), 200, "round {round}");
        let mut keys: Vec<i64> = out.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 200, "duplicate or missing rows in round {round}");
    }
}

/// Version-chain garbage collection: under update churn, chains grow; the
/// standby compactor reclaims everything behind the consistency horizon
/// without changing query results.
#[test]
fn compaction_reclaims_versions_safely() {
    let c = cluster_with(|b| {
        // Freeze repopulation so unit snapshots pin an old horizon first.
        b.tune(|s| {
            s.imcs.repopulate_threshold = 1.0;
            s.imcs.repopulate_min_scn_gap = u64::MAX;
        })
    });
    seed(&c, 40);
    c.sync().unwrap();
    let p = c.primary();
    for round in 0..10i64 {
        let mut tx = p.txm.begin(TenantId::DEFAULT);
        for k in 0..40 {
            p.txm.update_column_by_key(&mut tx, OBJ, k, "v", Value::Int(round)).unwrap();
        }
        p.txm.commit(tx);
    }
    c.ship_redo().unwrap();
    let standby = c.standby();
    standby.pump_until_idle().unwrap();

    // Chains hold ~11 versions per row on both sides. With units frozen at
    // the pre-churn snapshot, the safe horizon pins there: nothing is
    // reclaimable on the standby yet.
    assert_eq!(standby.compact_versions().unwrap(), 0, "unit snapshots pin the horizon");

    // Force a rebuild (fresh units absorb the churn; the safe horizon
    // moves up to the QuerySCN), then compact.
    standby.disable_inmemory(OBJ);
    standby.enable_inmemory(OBJ);
    standby.populate_until_idle().unwrap();
    let removed = standby.compact_versions().unwrap();
    assert!(removed > 300, "reclaimed old versions: {removed}");

    // Queries unchanged after compaction.
    let out = standby.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap();
    assert_eq!(out.count(), 40);
    assert!(out.rows.iter().all(|r| r[1] == Value::Int(9)));

    // Primary side compaction with an explicit horizon.
    let removed = p.compact_versions(p.current_scn()).unwrap();
    assert!(removed > 300);
    assert_eq!(p.query(&QueryRequest::scan(OBJ).filter(Filter::all())).unwrap().count(), 40);
}
