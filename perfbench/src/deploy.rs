//! Building, loading and synchronizing one deployment through the public
//! API, with every call into the program timed as a span.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use imadg_db::{
    AdgCluster, Filter, LinkMode, MetricsSnapshot, NodeBuilder, Placement, Predicate, QueryOutput,
    QueryRequest, Result, Scn, StandbyCluster, TenantId, Value,
};

use crate::model::{row_codes, str_value, Dml, DmlGen, Kind, Model, RowMaker, TABLE};
use crate::trace::Tracer;

/// Rows per load transaction, and load transactions per sync.
const LOAD_BATCH: u64 = 512;
const SYNC_EVERY: u64 = 16;

/// What a workload deploys. Everything not named here is a program default.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub rows: u64,
    /// Framed link plus on-disk redo (`LinkMode::Framed` + `durability`).
    pub durable: bool,
    /// Cold-tier directory plus a memory budget of a quarter of the
    /// table's populated column-store bytes.
    pub tiered: bool,
    /// Seeded single-row updates committed after the load, then synced.
    pub history: u64,
}

/// Per-call costs of the step-mode pipeline pass.
#[derive(Debug, Clone, Default)]
pub struct StepCosts {
    pub ship: Duration,
    pub ship_calls: u64,
    pub ingest: Duration,
    pub dispatched: u64,
    pub apply: Duration,
    pub applied: u64,
    pub advance: Duration,
    pub advances: u64,
    pub populate: Duration,
    pub units: u64,
    pub commit: Vec<f64>,
}

/// One finished set-up.
pub struct Setup {
    pub cluster: Arc<AdgCluster>,
    pub model: Model,
    /// Highest commit SCN of the load and history.
    pub last_scn: u64,
    pub secs: f64,
    pub load_s: f64,
    pub sync_s: f64,
    pub evict_s: f64,
    pub steps: StepCosts,
    pub units_populated: u64,
    pub units_evicted: u64,
    pub cold_units: u64,
    pub total_units: u64,
    /// The primary's counters at the end of set-up.
    pub primary_after: MetricsSnapshot,
}

pub fn build(spec: &Spec, dir: &Path, budget: usize) -> Result<Arc<AdgCluster>> {
    let mut b = NodeBuilder::new();
    if spec.durable {
        b = b.link(LinkMode::Framed).durability(dir.join("durable").to_string_lossy());
    }
    if spec.tiered && budget > 0 {
        b = b.cold_tier_dir(dir.join("cold").to_string_lossy()).memory_budget(budget);
    }
    b.build()
}

/// Hot column-store bytes of the loaded, fully populated table with no
/// budget: the base the tiered workload's budget is a quarter of.
pub fn populated_bytes(spec: &Spec, seed: u64, dir: &Path, maker: &RowMaker) -> Result<usize> {
    let plain = Spec { tiered: false, ..*spec };
    let tracer = Tracer::new();
    let s = setup(&plain, seed, dir, 0, maker, &tracer, 0)?;
    let standby = s.cluster.standby();
    Ok(standby.instances().iter().map(|i| i.imcs.hot_bytes()).sum())
}

/// Build, load, sync, populate (and evict, when tiered) one deployment.
/// With tracing on, synchronization runs one pipeline call at a time.
pub fn setup(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    budget: usize,
    maker: &RowMaker,
    tracer: &Tracer,
    req: u64,
) -> Result<Setup> {
    let started = Instant::now();
    let root = tracer.begin("setup", 0, req);
    let cluster = tracer.time("db.build", root.id(), req, || build(spec, dir, budget))?;
    cluster.create_table(crate::model::table_spec())?;
    cluster.set_placement(TABLE, Placement::StandbyOnly)?;
    let primary = cluster.primary();
    let mut model = Model::new(seed, spec.rows);
    let mut steps = StepCosts::default();
    let (mut load, mut sync_t) = (Duration::ZERO, Duration::ZERO);
    let mut last_scn = 0u64;

    let batches = spec.rows.div_ceil(LOAD_BATCH);
    for b in 0..batches {
        let ids = b * LOAD_BATCH..((b + 1) * LOAD_BATCH).min(spec.rows);
        let rows: Vec<Vec<Value>> =
            ids.map(|id| maker.row(id as i64, &row_codes(seed, id))).collect();
        let open = tracer.begin("txn.commit", root.id(), req);
        let mut tx = primary.txm.begin(TenantId::DEFAULT);
        for row in rows {
            primary.txm.insert(&mut tx, TABLE, row)?;
        }
        last_scn = primary.txm.commit(tx).raw();
        let took = tracer.end(open);
        load += took;
        steps.commit.push(took.as_secs_f64() * 1e6);
        if (b + 1) % SYNC_EVERY == 0 {
            sync_t += sync(&cluster, tracer, "setup.sync", root.id(), req, &mut steps)?;
        }
    }
    let mut gen = DmlGen::new(seed, 3, spec.rows, 0);
    for _ in 0..spec.history {
        let op = gen.next_op();
        let open = tracer.begin("txn.commit", root.id(), req);
        last_scn = execute(&cluster, op, seed, maker)?;
        let took = tracer.end(open);
        load += took;
        steps.commit.push(took.as_secs_f64() * 1e6);
        model.apply(&op);
    }
    sync_t += sync(&cluster, tracer, "setup.sync", root.id(), req, &mut steps)?;

    let standby = cluster.standby();
    let mut evict = Duration::ZERO;
    let mut units_evicted = 0;
    if spec.tiered && budget > 0 {
        let open = tracer.begin("coldstore.evict", root.id(), req);
        units_evicted = standby.tier_until_idle()?.evicted as u64;
        evict = tracer.end(open);
    }
    tracer.end(root);
    let secs = started.elapsed().as_secs_f64();
    let standby_after = standby.metrics();
    let total_units: u64 = standby
        .instances()
        .iter()
        .map(|i| i.imcs.object(TABLE).map_or(0, |o| o.unit_count() as u64))
        .sum();
    Ok(Setup {
        model,
        last_scn,
        secs,
        load_s: load.as_secs_f64(),
        sync_s: sync_t.as_secs_f64(),
        evict_s: evict.as_secs_f64(),
        units_populated: standby_after.population.imcus_built,
        units_evicted,
        cold_units: standby_after.tier.cold_units,
        total_units,
        primary_after: primary.metrics(),
        steps,
        cluster,
    })
}

/// Commit one auto-commit statement on the primary; returns its SCN.
pub fn execute(cluster: &AdgCluster, op: Dml, seed: u64, maker: &RowMaker) -> Result<u64> {
    let p = cluster.primary();
    let scn = match op {
        Dml::Update { key, column, value } => p.update_one(
            TABLE,
            TenantId::DEFAULT,
            key as i64,
            Dml::column_name(column),
            Value::Int(value as i64),
        )?,
        Dml::Insert { key } => {
            p.insert_one(TABLE, TenantId::DEFAULT, maker.row(key as i64, &row_codes(seed, key)))?
        }
    };
    Ok(scn.raw())
}

/// Ship, apply, publish and populate until the deployment is idle. With
/// tracing off this is `AdgCluster::sync`; with tracing on it makes the
/// same calls one at a time so each layer gets its own span.
pub fn sync(
    cluster: &AdgCluster,
    tracer: &Tracer,
    name: &'static str,
    parent: u64,
    req: u64,
    costs: &mut StepCosts,
) -> Result<Duration> {
    let open = tracer.begin(name, parent, req);
    if !tracer.is_on() {
        cluster.sync()?;
        return Ok(tracer.end(open));
    }
    let id = open.id();
    let standby = cluster.standby();
    loop {
        let t = tracer.begin("redo.ship", id, req);
        let shipped = cluster.ship_redo()?;
        costs.ship += tracer.end(t);
        costs.ship_calls += 1;
        loop {
            let t = tracer.begin("recovery.ingest", id, req);
            let dispatched = standby.recovery.ingest_once()?;
            costs.ingest += tracer.end(t);
            costs.dispatched += dispatched as u64;
            let t = tracer.begin("recovery.apply", id, req);
            let applied = standby.recovery.drain_workers()?;
            costs.apply += tracer.end(t);
            costs.applied += applied as u64;
            let t = tracer.begin("recovery.advance", id, req);
            let advanced = standby.recovery.coordinator().try_advance().is_some();
            let took = tracer.end(t);
            if advanced {
                costs.advance += took;
                costs.advances += 1;
            }
            standby.maybe_checkpoint()?;
            if dispatched == 0 && applied == 0 && !advanced {
                break;
            }
        }
        let mut populated = false;
        loop {
            let t = tracer.begin("imcs.populate", id, req);
            let r = standby.populate_once()?;
            costs.populate += tracer.end(t);
            if !r.any() {
                break;
            }
            costs.units += (r.populated + r.repopulated) as u64;
            populated = true;
        }
        let pending = cluster.primaries().iter().any(|p| p.transport_pending())
            || standby.recovery.transport_pending();
        if shipped == 0 && !populated {
            if !pending {
                return Ok(tracer.end(open));
            }
            std::thread::yield_now();
        }
    }
}

/// The request for one query of `kind` with `bind`.
pub fn request(kind: Kind, bind: u64, profile: bool) -> QueryRequest {
    let schema = crate::model::table_spec().schema;
    let pred = match kind {
        Kind::Q2 => Predicate::eq(&schema, "c1", Value::str(str_value(bind))),
        _ => Predicate::eq(&schema, "n1", Value::Int(bind as i64)),
    }
    .expect("n1 and c1 exist in the benchmark's schema");
    let mut req = QueryRequest::scan(TABLE).filter(Filter::of(pred));
    if kind == Kind::Agg {
        req = req.aggregate("n2");
    }
    if profile {
        req = req.profile();
    }
    req
}

/// Run `req` on the standby as one `db.query` span.
pub fn query(
    standby: &StandbyCluster,
    req: &QueryRequest,
    tracer: &Tracer,
    parent: u64,
    id: u64,
) -> (Result<QueryOutput>, Duration) {
    let open = tracer.begin("db.query", parent, id);
    let out = standby.query(req);
    (out, tracer.end(open))
}

/// Full-table `(COUNT(*), SUM(n1), SUM(n2))` at `snapshot` (`None` = the
/// node's default), through `query`.
pub fn totals(
    query: impl Fn(&QueryRequest) -> Result<QueryOutput>,
    snapshot: Option<Scn>,
) -> Result<(u64, i64, i64, Scn)> {
    let mut sums = [0i64; 2];
    let (mut count, mut at) = (0u64, Scn::ZERO);
    for (i, col) in ["n1", "n2"].into_iter().enumerate() {
        let mut req = QueryRequest::scan(TABLE).filter(Filter::all()).aggregate(col);
        if let Some(s) = snapshot.or((i > 0).then_some(at)) {
            req = req.at(s);
        }
        let out = query(&req)?;
        let aggs = out.aggregate.map(|a| a.aggs).unwrap_or_default();
        sums[i] = i64::try_from(aggs.sum).unwrap_or(i64::MIN);
        count = aggs.count;
        at = out.snapshot;
    }
    Ok((count, sums[0], sums[1], at))
}
