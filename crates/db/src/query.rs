//! The unified query API: request builder, results, and the shared
//! executor that serves both the primary and the standby.
//!
//! A [`QueryRequest`] names an object, an optional filter or in-memory
//! expression predicate, an optional aggregate column, and an optional
//! explicit snapshot SCN. One [`execute_request`] entrypoint builds one
//! [`ScanPlan`] from it, runs the In-Memory Scan Engine's executor, falls
//! back to the row store for objects with no column-store presence, and
//! records every execution in the scan-engine metrics stage.

use std::sync::Arc;
use std::time::{Duration, Instant};

use imadg_common::metrics::{ScanEngineMetrics, TierMetrics};
use imadg_common::{Error, ObjectId, PipelineTrace, QueryProfile, Result, Scn, TraceStage};
use imadg_imcs::{
    execute, AggregateResult, ExprPredicate, Filter, ImcsStore, Output, RowPredicate, ScanOutput,
    ScanPlan, ScanStats,
};
use imadg_storage::{Row, Store};

/// A declarative query against one object.
///
/// Build with [`QueryRequest::scan`] and refine with the chained setters:
///
/// ```ignore
/// let req = QueryRequest::scan(orders)
///     .filter(f)
///     .aggregate("qty")
///     .at(Scn(42));
/// let out = standby.query(&req)?;
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryRequest {
    object: ObjectId,
    filter: Filter,
    expression: Option<ExprPredicate>,
    aggregate: Option<String>,
    snapshot: Option<Scn>,
    parallel: Option<usize>,
    profile: bool,
    max_staleness: Option<Duration>,
}

impl QueryRequest {
    /// A full scan of `object` (no filter).
    pub fn scan(object: ObjectId) -> Self {
        QueryRequest { object, ..Default::default() }
    }

    /// Restrict to rows matching `filter`.
    pub fn filter(mut self, filter: Filter) -> Self {
        self.filter = filter;
        self
    }

    /// Filter by an in-memory expression predicate (paper §V) instead of a
    /// plain column filter; combining it with a non-empty
    /// [`QueryRequest::filter`] is rejected.
    pub fn expression(mut self, pred: ExprPredicate) -> Self {
        self.expression = Some(pred);
        self
    }

    /// Aggregate `column` over the matching rows (aggregation push-down,
    /// paper §V) instead of returning row images.
    pub fn aggregate(mut self, column: impl Into<String>) -> Self {
        self.aggregate = Some(column.into());
        self
    }

    /// Run at an explicit snapshot SCN instead of the session default
    /// (current SCN on the primary, published QuerySCN on the standby).
    pub fn at(mut self, snapshot: Scn) -> Self {
        self.snapshot = Some(snapshot);
        self
    }

    /// Override the instance's configured scan parallel degree for this
    /// query (`1` = serial, `0` = one worker per available core).
    pub fn parallel(mut self, degree: usize) -> Self {
        self.parallel = Some(degree);
        self
    }

    /// The target object.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The explicit snapshot, when one was set.
    pub fn snapshot(&self) -> Option<Scn> {
        self.snapshot
    }

    /// The explicit parallel-degree override, when one was set.
    pub fn parallel_degree(&self) -> Option<usize> {
        self.parallel
    }

    /// Collect a per-query phase breakdown ([`QueryProfile`]): storage-index
    /// pruning, columnar kernel time per IMCU, SMU journal merge, row-store
    /// fallback, and parallel task skew. The profile rides back on
    /// [`QueryOutput::profile`].
    pub fn profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Whether this request asked for a phase breakdown.
    pub fn profiling(&self) -> bool {
        self.profile
    }

    /// Bound the commit-to-queryable staleness this query tolerates. The
    /// reader-farm router ([`crate::AdgCluster::route_query`]) sends the
    /// query to the least-loaded standby whose estimated freshness is
    /// within the bound, falling back to the primary (staleness zero) when
    /// none qualifies. Ignored by direct `query()` calls on a node.
    pub fn max_staleness(mut self, bound: Duration) -> Self {
        self.max_staleness = Some(bound);
        self
    }

    /// The staleness tolerance, when one was set.
    pub fn max_staleness_bound(&self) -> Option<Duration> {
        self.max_staleness
    }
}

/// Result of one query execution.
#[derive(Debug)]
pub struct QueryOutput {
    /// Matching rows (empty for aggregate queries).
    pub rows: Vec<Row>,
    /// Did the In-Memory Scan Engine serve the query (vs a pure row-store
    /// buffer-cache scan)?
    pub used_imcs: bool,
    /// Column-store provenance counters, when the IMCS served a row scan.
    pub stats: Option<ScanStats>,
    /// The aggregates, when the request asked for them.
    pub aggregate: Option<AggregateResult>,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// The snapshot the query ran at.
    pub snapshot: Scn,
    /// The resolved parallel degree the query executed with.
    pub parallel_degree: usize,
    /// Per-phase breakdown, when the request set [`QueryRequest::profile`].
    pub profile: Option<QueryProfile>,
}

impl QueryOutput {
    /// Number of matching rows.
    pub fn count(&self) -> usize {
        self.rows.len()
    }
}

/// Execute `req` against the given column stores, falling back to the row
/// store, recording the execution into `metrics` and `trace`.
///
/// `default_snapshot` is used when the request carries no explicit SCN;
/// `default_degree` (the instance's configured scan parallel degree) when
/// it carries no explicit `.parallel(..)` override. Degree `0` resolves to
/// one worker per available core.
#[allow(clippy::too_many_arguments)]
pub fn execute_request(
    imcs_stores: &[Arc<ImcsStore>],
    store: &Store,
    req: &QueryRequest,
    default_snapshot: Scn,
    default_degree: usize,
    metrics: &ScanEngineMetrics,
    tier: &TierMetrics,
    trace: &PipelineTrace,
) -> Result<QueryOutput> {
    let started = Instant::now();
    let snapshot = req.snapshot.unwrap_or(default_snapshot);
    let degree = imadg_imcs::parallel::resolve_degree(req.parallel.unwrap_or(default_degree));
    let out = match &req.expression {
        Some(_) if !req.filter.terms.is_empty() => {
            return Err(Error::InvalidQuery("a filter and an expression predicate together".into()))
        }
        Some(pred) => run(imcs_stores, store, req, pred, snapshot, degree, started)?,
        None => run(imcs_stores, store, req, &req.filter, snapshot, degree, started)?,
    };
    record_execution(metrics, tier, &out);
    trace.record(
        TraceStage::Query,
        snapshot.0,
        format!(
            "object={} rows={} {}",
            req.object.0,
            out.count(),
            if out.used_imcs { "imcs" } else { "row-store" }
        ),
    );
    Ok(out)
}

/// The one execution path: one plan through the column store's executor,
/// or — for an object with no column-store presence — a buffer-cache scan
/// walking every block's version chains into the same output.
fn run<P: RowPredicate>(
    imcs_stores: &[Arc<ImcsStore>],
    store: &Store,
    req: &QueryRequest,
    pred: &P,
    snapshot: Scn,
    degree: usize,
    started: Instant,
) -> Result<QueryOutput> {
    let output = match &req.aggregate {
        Some(column) => Output::Aggregate(store.table(req.object)?.schema.read().ordinal(column)?),
        None => Output::Rows,
    };
    let plan = ScanPlan { pred, output, snapshot, degree, profile: req.profile };
    let executed = execute(imcs_stores, store, req.object, &plan)?;
    let used_imcs = executed.is_some();
    let r = match executed {
        Some(r) => r,
        None => {
            let mut r = ScanOutput::default();
            store.scan_object(req.object, snapshot, None, |_, row| {
                if pred.matches_row(row) {
                    r.stats.fallback_rows += 1;
                    match output {
                        Output::Rows => r.rows.push(row.clone()),
                        Output::Aggregate(ordinal) => r.aggs.add(row.get(ordinal)),
                    }
                }
            })?;
            // All fallback time, serially on the calling thread.
            r.profile = req.profile.then(|| QueryProfile {
                fallback_us: started.elapsed().as_micros() as u64,
                parallel_degree: 1,
                ..Default::default()
            });
            r
        }
    };
    let aggregate = matches!(output, Output::Aggregate(_));
    Ok(QueryOutput {
        stats: (used_imcs && !aggregate).then_some(r.stats),
        aggregate: aggregate.then_some(AggregateResult { aggs: r.aggs, stats: r.stats }),
        rows: r.rows,
        used_imcs,
        elapsed: started.elapsed(),
        snapshot,
        parallel_degree: degree,
        profile: r.profile,
    })
}

/// Fold one execution into the scan-engine and cold-tier metrics stages.
fn record_execution(metrics: &ScanEngineMetrics, tier: &TierMetrics, out: &QueryOutput) {
    metrics.queries.inc();
    if out.used_imcs {
        metrics.imcs_served.inc();
    } else {
        metrics.row_store_fallback.inc();
    }
    if out.used_imcs && out.parallel_degree > 1 {
        metrics.parallel_queries.inc();
    }
    if let Some(stats) = out.stats.as_ref().or(out.aggregate.as_ref().map(|a| &a.stats)) {
        metrics.imcu_rows.add(stats.imcu_rows as u64);
        metrics.fallback_rows.add(stats.fallback_rows as u64);
        metrics.uncovered_rows.add(stats.uncovered_rows as u64);
        metrics.pruned_units.add(stats.pruned_units as u64);
        metrics.scanned_units.add(stats.scanned_units as u64);
        metrics.parallel_tasks.add(stats.parallel_tasks as u64);
        tier.tier_pruned_units.add(stats.cold_pruned_units as u64);
        tier.tier_cold_reads.add(stats.cold_read_units as u64);
        tier.tier_read_errors.add(stats.cold_read_errors as u64);
    }
    metrics.latency_us.record(out.elapsed);
}
