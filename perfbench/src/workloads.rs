//! The four workloads, their checks, and the metrics they report.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use imadg_db::{AdgCluster, Error, MetricsSnapshot, QueryOutput, Result, Scn};

use crate::deploy::{self, Setup, Spec, StepCosts};
use crate::host::{self, median, ms, percentile, sorted};
use crate::model::{
    answer_of, expected_at, Answer, Dml, DmlGen, Kind, Model, Rng, RowMaker, DOMAIN, DUPLICATE,
};
use crate::trace::{Span, Tracer};

/// The htap writer pauses while its oldest not-yet-queryable commit is
/// older than this (the freshness bound of `commit_tps`).
const FRESHNESS_BOUND: Duration = Duration::from_millis(100);
/// Statements of the traced step-mode pipeline pass on htap, and
/// statements between its syncs.
const STEP_PASS_OPS: u64 = 5_000;
const STEP_PASS_SYNC: u64 = 250;
/// Checked queries after each restart, per query kind.
const RESTART_QUERIES: usize = 10;
/// Scans of the htap reader re-executed on the primary at their snapshot.
const PRIMARY_SAMPLE: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OlapHot,
    OlapTiered,
    Htap,
    Restart,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::OlapHot, Workload::OlapTiered, Workload::Htap, Workload::Restart];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapHot => "olap_hot",
            Workload::OlapTiered => "olap_tiered",
            Workload::Htap => "htap",
            Workload::Restart => "restart",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Set-ups per run; `setup_s` is their median and the last one is
    /// measured. Workloads whose set-up takes about a second make more, so
    /// that their median rests on a few seconds of set-up work too.
    pub fn setups(self) -> usize {
        match self {
            Workload::OlapHot | Workload::Htap => 3,
            Workload::OlapTiered | Workload::Restart => 5,
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::OlapHot => Spec { rows: 200_000, durable: false, tiered: false, history: 0 },
            Workload::OlapTiered => Spec { rows: 50_000, durable: false, tiered: true, history: 0 },
            Workload::Htap => Spec { rows: 100_000, durable: true, tiered: false, history: 0 },
            Workload::Restart => {
                Spec { rows: 20_000, durable: true, tiered: false, history: 10_000 }
            }
        }
    }
}

/// Checked operations.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    fn answer(&mut self, what: &str, got: std::result::Result<Answer, String>, want: Answer) {
        match got {
            Ok(a) => self.check(a == want, || format!("{what}: got {a:?}, want {want:?}")),
            Err(e) => self.check(false, || format!("{what}: {e}")),
        }
    }

    /// Counts the program makes that must repeat exactly for a seed.
    fn same(&mut self, what: &str, values: &[u64]) {
        self.check(values.windows(2).all(|w| w[0] == w[1]), || {
            format!("{what} differs between repeats: {values:?}")
        });
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One per-layer figure and the end-to-end metric it should move.
pub struct Layer {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub moves: &'static str,
    /// Reported in the result line (every workload measures it); the
    /// others are workload-specific and appear in the ledger only.
    pub reported: bool,
}

#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Layer>,
    /// Tracing overhead: traced minus untraced, per end-to-end metric.
    pub overhead: Vec<Metric>,
    pub counts: Vec<(String, u64)>,
    /// `(name, percentile, value, samples)`: the highest percentile with at
    /// least ten samples beyond it, per timed sample set.
    pub tails: Vec<(String, f64, f64, usize)>,
    /// Median latency per query kind (untraced samples), ms.
    pub medians: Vec<(String, f64)>,
    pub config: String,
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

/// Per-kind sums over profiled queries.
#[derive(Default, Clone)]
struct KindProfile {
    queries: u64,
    pruning_us: u64,
    kernel_us: u64,
    merge_us: u64,
    fallback_us: u64,
    uncovered_us: u64,
    skew: f64,
    span_us: f64,
    cold_pruned: u64,
    cold_read: u64,
    cold_read_task_us: u64,
    cold_read_tasks: u64,
    imcu_rows: u64,
    rows: u64,
}

/// What one measured phase saw.
#[derive(Default)]
struct Phase {
    secs: f64,
    /// Query latency per kind, ms.
    lat: [Vec<f64>; 3],
    /// The workload's timed operation: latency (ms) and count.
    op_lat: Vec<f64>,
    ops: u64,
    commit_us: Vec<f64>,
    visible_ms: Vec<f64>,
    stall_s: f64,
    profile: [KindProfile; 3],
    restart_reopen_s: Vec<f64>,
    restart_catchup_s: Vec<f64>,
    replayed: Vec<u64>,
    /// Pipeline calls made during the phase (restart catch-up).
    steps: StepCosts,
    primary: (MetricsSnapshot, MetricsSnapshot),
    standby: (MetricsSnapshot, MetricsSnapshot),
}

impl Phase {
    fn query_done(&mut self, kind: Kind, took: Duration, out: &QueryOutput, traced: bool) {
        self.lat[kind as usize].push(ms(took));
        if !traced {
            return;
        }
        let p = &mut self.profile[kind as usize];
        p.queries += 1;
        p.span_us += took.as_secs_f64() * 1e6;
        if let Some(prof) = &out.profile {
            p.pruning_us += prof.pruning_us;
            p.kernel_us += prof.kernel_us;
            p.merge_us += prof.merge_us;
            p.fallback_us += prof.fallback_us;
            p.uncovered_us += prof.uncovered_us;
            p.skew += prof.task_skew();
            for t in prof.tasks.iter().filter(|t| t.cold_read) {
                p.cold_read_task_us += t.total_us;
                p.cold_read_tasks += 1;
            }
        }
        if let Some(s) = &out.stats {
            p.cold_pruned += s.cold_pruned_units as u64;
            p.cold_read += s.cold_read_units as u64;
            p.imcu_rows += s.imcu_rows as u64;
            p.rows += s.total() as u64;
        }
        if let Some(a) = &out.aggregate {
            p.cold_pruned += a.stats.cold_pruned_units as u64;
            p.cold_read += a.stats.cold_read_units as u64;
        }
    }
}

/// Run one workload in `dir` (a fresh directory the caller removes).
pub fn run(w: Workload, seed: u64, secs: f64, trace: bool, dir: &Path) -> Result<Outcome> {
    let spec = w.spec();
    let maker = RowMaker::default();
    let tracer = Tracer::new();
    let mut out = Outcome::default();

    let budget = if spec.tiered {
        let sizing = dir.join("sizing");
        let bytes = deploy::populated_bytes(&spec, seed, &sizing, &maker)?;
        remove(&sizing)?;
        out.counts.push(("imcs.populated_bytes".into(), bytes as u64));
        bytes / 4
    } else {
        0
    };

    // Set up several times; keep the last deployment for measurement.
    let mut setups: Vec<f64> = Vec::new();
    let mut repeat: Vec<[u64; 8]> = Vec::new();
    let mut kept: Option<(Setup, std::path::PathBuf)> = None;
    let setups_n = w.setups();
    for i in 0..setups_n {
        if let Some((prev, prev_dir)) = kept.take() {
            drop(prev);
            remove(&prev_dir)?;
        }
        let d = dir.join(format!("setup-{i}"));
        tracer.set(trace && i + 1 == setups_n);
        let s = deploy::setup(&spec, seed, &d, budget, &maker, &tracer, i as u64)?;
        tracer.set(false);
        let mut counts = [s.units_populated, s.units_evicted, 0, 0, 0, 0, 0, 0];
        if spec.tiered {
            let probe = cold_probe(&s, seed, &mut out.checks)?;
            counts[2..].copy_from_slice(&probe);
            out.checks.check(s.cold_units * 2 > s.total_units, || {
                format!("only {} of {} units are cold before timing", s.cold_units, s.total_units)
            });
        }
        setups.push(s.secs);
        repeat.push(counts);
        kept = Some((s, d));
    }
    let (s, _) = kept.expect("at least one set-up");
    out.config = format!("{:?}", s.cluster.config);
    let names = [
        "imcs.units_populated",
        "coldstore.units_evicted",
        "coldstore.q1.pruned",
        "coldstore.q1.read",
        "coldstore.q2.pruned",
        "coldstore.q2.read",
        "coldstore.agg.pruned",
        "coldstore.agg.read",
    ];
    for (i, name) in names.iter().enumerate() {
        if i >= 1 && !spec.tiered {
            continue;
        }
        let values: Vec<u64> = repeat.iter().map(|c| c[i]).collect();
        out.checks.same(&format!("{name} at set-up"), &values);
        out.counts.push((name.to_string(), values[0]));
    }

    // With --trace 1 the measured phase alternates untraced and traced
    // slices on the same deployment: index 0 collects the untraced
    // samples, index 1 the traced ones, so drift over the run (the journal
    // growing on htap) does not masquerade as tracing overhead.
    let mut step = s.steps.clone();
    let mut step_counts = (MetricsSnapshot::default(), s.primary_after.clone());
    let wall = Instant::now();
    let phases = match w {
        Workload::OlapHot | Workload::OlapTiered => {
            let threads = s.cluster.start();
            let phases = olap_phase(&s, seed, secs, trace, &tracer, &mut out.checks);
            let health = threads.shutdown();
            out.checks.check(health.is_healthy(), || format!("deployment health: {health}"));
            phases
        }
        Workload::Htap => {
            let mut history: Vec<(u64, Dml)> = Vec::new();
            let mut scans: Vec<Scan> = Vec::new();
            let mut gen = DmlGen::new(seed, 5, spec.rows, 10);
            let start_model = s.model.clone();
            let threads = s.cluster.start();
            let phases = htap_phase(
                &s,
                &mut gen,
                seed,
                secs,
                trace,
                &tracer,
                &mut history,
                &mut scans,
                &maker,
                &mut out.checks,
            );
            let health = threads.shutdown();
            out.checks.check(health.is_healthy(), || format!("deployment health: {health}"));
            if trace {
                let before = s.cluster.primary().metrics();
                tracer.set(true);
                step = step_pass(&s, &mut gen, seed, &maker, &tracer, &mut history)?;
                tracer.set(false);
                step_counts = (before, s.cluster.primary().metrics());
            }
            s.cluster.sync()?;
            check_htap(&s, start_model, &history, &scans, seed, &mut out.checks)?;
            phases
        }
        Workload::Restart => {
            let phases = restart_phase(&s, seed, secs, trace, &tracer, &mut out.checks)?;
            let replayed: Vec<u64> =
                phases.iter().flat_map(|p| p.replayed.iter().copied()).collect();
            out.checks.same("recovery.restart.records_replayed per round", &replayed);
            out.counts.push(("recovery.restart.records_replayed".into(), replayed[0]));
            // Replay is restart's pipeline work; commits and shipping
            // happened only in set-up.
            let c = &phases[1].steps;
            if trace {
                step.ingest = c.ingest;
                step.dispatched = c.dispatched;
                step.apply = c.apply;
                step.applied = c.applied;
                step.advance = c.advance;
                step.advances = c.advances;
            }
            phases
        }
    };
    let wall = wall.elapsed().as_secs_f64();

    let rss = host::peak_rss_mb();
    let e2e = |p: &Phase| -> Vec<Metric> {
        let m = |name: &str, value: f64, unit| Metric { name: name.into(), value, unit };
        vec![
            m("setup_s", median(&setups), "s"),
            m("op_p50_ms", median(&p.op_lat), "ms"),
            m("ops_per_s", p.ops as f64 / p.secs, "1/s"),
            m("rss_mb", rss, "MiB"),
        ]
    };
    out.e2e = e2e(&phases[0]);
    for m in &out.e2e {
        out.checks.check(m.value.is_finite() && m.value > 0.0, || {
            format!("{} = {} is not a positive measurement", m.name, m.value)
        });
    }
    let p0 = &phases[0];
    for (name, v) in [
        ("op_ms", &p0.op_lat),
        ("q1_ms", &p0.lat[0]),
        ("q2_ms", &p0.lat[1]),
        ("agg_ms", &p0.lat[2]),
        ("commit_us", &p0.commit_us),
    ] {
        if let Some((pct, value)) = host::tail(&sorted(v.clone())) {
            out.tails.push((name.into(), pct, value, v.len()));
        }
    }
    // Per-kind medians are measured on every workload but move with the
    // htap writer's rate, too much to bound end to end; they are printed
    // here and reported in the ledger.
    for (kind, v) in Kind::ALL.iter().zip(&p0.lat) {
        out.medians.push((format!("{}_p50_ms", kind.name()), median(v)));
    }
    out.notes.push(format!(
        "samples: setups={setups_n} ops={} q1={} q2={} agg={} over {:.2}s",
        phases[0].ops,
        phases[0].lat[0].len(),
        phases[0].lat[1].len(),
        phases[0].lat[2].len(),
        phases[0].secs
    ));
    if trace {
        let traced = e2e(&phases[1]);
        out.overhead = out
            .e2e
            .iter()
            .zip(&traced)
            .map(|(u, t)| Metric {
                name: u.name.clone(),
                value: if u.value != 0.0 { (t.value - u.value) / u.value * 100.0 } else { 0.0 },
                unit: "%",
            })
            .collect();
        out.layers = ledger(w, &s, &phases, wall, &step, &step_counts, &out.overhead);
        for (name, value) in &out.medians {
            out.layers.push(Layer {
                name: name.clone(),
                value: *value,
                unit: "ms",
                moves: "op_p50_ms (olap_*, restart); ops_per_s (htap)",
                reported: true,
            });
        }
        out.spans = tracer.spans();
    }
    Ok(out)
}

fn remove(dir: &Path) -> Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(Error::Io(format!("{}: {e}", dir.display())))
        }
        _ => Ok(()),
    }
}

/// Q1/Q2/AGG with one fixed bind on a freshly set-up tiered deployment:
/// the cold units pruned and read per kind (must repeat exactly).
fn cold_probe(s: &Setup, seed: u64, checks: &mut Checks) -> Result<[u64; 6]> {
    let standby = s.cluster.standby();
    let bind = Rng::stream(seed, 7).below(DOMAIN);
    let mut out = [0u64; 6];
    for (i, kind) in Kind::ALL.into_iter().enumerate() {
        let o = standby.query(&deploy::request(kind, bind, false))?;
        checks.answer("cold probe", answer_of(kind, bind, &o), s.model.expect(kind, bind));
        let (pruned, read) = match (&o.stats, &o.aggregate) {
            (Some(st), _) => (st.cold_pruned_units, st.cold_read_units),
            (None, Some(a)) => (a.stats.cold_pruned_units, a.stats.cold_read_units),
            _ => (0, 0),
        };
        out[2 * i] = pruned as u64;
        out[2 * i + 1] = read as u64;
    }
    Ok(out)
}

fn snapshots(c: &AdgCluster) -> (MetricsSnapshot, MetricsSnapshot) {
    (c.primary().metrics(), c.standby().metrics())
}

/// Length of the alternating untraced/traced slices of a traced run.
const SLICE_S: f64 = 0.5;

/// Whether tracing is on `elapsed` seconds into a traced run's phase.
fn slice_on(trace: bool, elapsed: f64) -> bool {
    trace && (elapsed / SLICE_S) as u64 % 2 == 1
}

/// One closed-loop client: Q1, Q2, AGG round-robin with uniform binds.
/// The timed operation is one round of the three queries.
fn olap_phase(
    s: &Setup,
    seed: u64,
    secs: f64,
    trace: bool,
    tracer: &Tracer,
    checks: &mut Checks,
) -> [Phase; 2] {
    let standby = s.cluster.standby();
    let mut rng = Rng::stream(seed, 10);
    let mut ps: [Phase; 2] = Default::default();
    let before = snapshots(&s.cluster);
    let t0 = Instant::now();
    let mut i = 0u64;
    let mut round_ms = 0.0;
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= secs && i.is_multiple_of(3) {
            break;
        }
        let on = slice_on(trace, elapsed);
        tracer.set(on);
        let p = &mut ps[on as usize];
        let kind = Kind::ALL[(i % 3) as usize];
        let bind = rng.below(DOMAIN);
        let req = deploy::request(kind, bind, on);
        let (res, took) = deploy::query(&standby, &req, tracer, 0, i);
        i += 1;
        round_ms += ms(took);
        if kind == Kind::Agg {
            p.ops += 1;
            p.op_lat.push(round_ms);
            round_ms = 0.0;
        }
        match res {
            Ok(o) => {
                checks.check(o.snapshot.raw() >= s.last_scn, || {
                    format!("query at SCN {} predates the load ({})", o.snapshot.raw(), s.last_scn)
                });
                checks.answer(kind.name(), answer_of(kind, bind, &o), s.model.expect(kind, bind));
                p.query_done(kind, took, &o, on);
            }
            Err(e) => checks.check(false, || format!("{} bind {bind}: {e}", kind.name())),
        }
        p.secs += t0.elapsed().as_secs_f64() - elapsed;
    }
    tracer.set(false);
    let after = snapshots(&s.cluster);
    ps[1].primary = (before.0, after.0);
    ps[1].standby = (before.1, after.1);
    ps
}

/// One standby scan of the htap reader, checked after the run.
struct Scan {
    snapshot: u64,
    kind: Kind,
    bind: u64,
    answer: std::result::Result<Answer, String>,
}

/// A closed-loop writer of auto-commit DML under the freshness bound, and
/// a closed-loop reader on the standby.
#[allow(clippy::too_many_arguments)]
fn htap_phase(
    s: &Setup,
    gen: &mut DmlGen,
    seed: u64,
    secs: f64,
    trace: bool,
    tracer: &Tracer,
    history: &mut Vec<(u64, Dml)>,
    scans: &mut Vec<Scan>,
    maker: &RowMaker,
    checks: &mut Checks,
) -> [Phase; 2] {
    let standby = s.cluster.standby();
    let before = snapshots(&s.cluster);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let (writer, (mut ps, out)) = std::thread::scope(|sc| {
        let writer = sc.spawn(|| {
            let mut w = Writer::default();
            let mut pending: VecDeque<(u64, Instant, usize)> = VecDeque::new();
            let mut seq = 0u64;
            loop {
                let now = Instant::now();
                let on = tracer.is_on() as usize;
                let visible = standby.query_scn.get().map_or(0, Scn::raw);
                while pending.front().is_some_and(|&(scn, _, _)| scn <= visible) {
                    let (_, at, st) = pending.pop_front().expect("front exists");
                    w.visible_ms[st].push(ms(now - at));
                }
                if now >= deadline {
                    break;
                }
                if pending.front().is_some_and(|&(_, at, _)| now - at > FRESHNESS_BOUND) {
                    std::thread::sleep(Duration::from_micros(100));
                    w.stall[on] += now.elapsed();
                    w.secs[on] += now.elapsed();
                    continue;
                }
                let op = gen.next_op();
                let open = tracer.begin("txn.commit", 0, seq);
                let res = deploy::execute(&s.cluster, op, seed, maker);
                let took = tracer.end(open);
                seq += 1;
                match res {
                    Ok(scn) => {
                        w.commit_us[on].push(took.as_secs_f64() * 1e6);
                        pending.push_back((scn, Instant::now(), on));
                        w.ops.push((scn, op));
                    }
                    Err(e) => {
                        w.error = Some(format!("{op:?}: {e}"));
                        break;
                    }
                }
                w.secs[on] += now.elapsed();
            }
            // Drain: the last commits become visible without new load.
            let drain_until = Instant::now() + Duration::from_secs(30);
            while let Some(&(scn, at, st)) = pending.front() {
                let now = Instant::now();
                if standby.query_scn.get().map_or(0, Scn::raw) >= scn {
                    w.visible_ms[st].push(ms(now - at));
                    pending.pop_front();
                } else if now > drain_until {
                    w.error = Some(format!("commit SCN {scn} not queryable after 30 s"));
                    break;
                } else {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            w
        });
        let reader = sc.spawn(|| {
            let mut rng = Rng::stream(seed, 20);
            let mut ps: [Phase; 2] = Default::default();
            let mut out = Vec::new();
            let mut i = 0u64;
            while Instant::now() < deadline {
                let on = tracer.is_on();
                let kind = Kind::ALL[(i % 3) as usize];
                let bind = rng.below(DOMAIN);
                let req = deploy::request(kind, bind, on);
                let (res, took) = deploy::query(&standby, &req, tracer, 0, i);
                i += 1;
                let (snapshot, answer) = match res {
                    Ok(o) => {
                        ps[on as usize].query_done(kind, took, &o, on);
                        (o.snapshot.raw(), answer_of(kind, bind, &o))
                    }
                    Err(e) => (0, Err(e.to_string())),
                };
                out.push(Scan { snapshot, kind, bind, answer });
            }
            (ps, out)
        });
        // Alternate untraced and traced slices until the deadline.
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            tracer.set(slice_on(trace, (now - t0).as_secs_f64()));
            std::thread::sleep(Duration::from_millis(5).min(deadline - now));
        }
        tracer.set(false);
        (writer.join().expect("writer thread"), reader.join().expect("reader thread"))
    });
    scans.extend(out);
    // Every commit that returned is one checked operation (its effect is
    // checked through the scans and the drained totals).
    for _ in &writer.ops {
        checks.check(true, String::new);
    }
    if let Some(e) = &writer.error {
        checks.check(false, || format!("writer: {e}"));
    }
    history.extend(writer.ops);
    let Writer { commit_us, visible_ms, stall, secs, .. } = writer;
    for (i, ((c, v), (st, sec))) in
        commit_us.into_iter().zip(visible_ms).zip(stall.into_iter().zip(secs)).enumerate()
    {
        let p = &mut ps[i];
        p.ops = c.len() as u64;
        p.commit_us = c;
        p.op_lat = v.clone();
        p.visible_ms = v;
        p.stall_s = st.as_secs_f64();
        p.secs = sec.as_secs_f64();
    }
    let after = snapshots(&s.cluster);
    ps[1].primary = (before.0, after.0);
    ps[1].standby = (before.1, after.1);
    ps
}

/// The htap writer's samples, split into untraced (0) and traced (1).
#[derive(Default)]
struct Writer {
    commit_us: [Vec<f64>; 2],
    visible_ms: [Vec<f64>; 2],
    stall: [Duration; 2],
    secs: [Duration; 2],
    ops: Vec<(u64, Dml)>,
    error: Option<String>,
}

/// The same statement stream in step mode, one pipeline call at a time.
fn step_pass(
    s: &Setup,
    gen: &mut DmlGen,
    seed: u64,
    maker: &RowMaker,
    tracer: &Tracer,
    history: &mut Vec<(u64, Dml)>,
) -> Result<StepCosts> {
    let mut costs = StepCosts::default();
    let root = tracer.begin("step_pass", 0, 0);
    for i in 0..STEP_PASS_OPS {
        let op = gen.next_op();
        let open = tracer.begin("txn.commit", root.id(), i);
        let scn = deploy::execute(&s.cluster, op, seed, maker)?;
        costs.commit.push(tracer.end(open).as_secs_f64() * 1e6);
        history.push((scn, op));
        if (i + 1) % STEP_PASS_SYNC == 0 {
            deploy::sync(&s.cluster, tracer, "step.sync", root.id(), i, &mut costs)?;
        }
    }
    deploy::sync(&s.cluster, tracer, "step.sync", root.id(), STEP_PASS_OPS, &mut costs)?;
    tracer.end(root);
    Ok(costs)
}

/// Check every htap scan against the model at its snapshot, re-execute a
/// seeded sample on the primary at the same snapshot, and compare the
/// drained full-table aggregates of both sides with the model.
fn check_htap(
    s: &Setup,
    mut model: Model,
    history: &[(u64, Dml)],
    scans: &[Scan],
    seed: u64,
    checks: &mut Checks,
) -> Result<()> {
    checks.check(history.windows(2).all(|w| w[0].0 < w[1].0), || {
        "single-writer commit SCNs are not increasing".into()
    });
    checks.check(!scans.is_empty() && !history.is_empty(), || "no scans or no commits".into());
    let observed: Vec<(u64, Kind, u64)> =
        scans.iter().map(|x| (x.snapshot, x.kind, x.bind)).collect();
    let want = expected_at(&mut model, history, &observed);
    for (sc, want) in scans.iter().zip(want) {
        let mut what = format!("{} bind {} at SCN {}", sc.kind.name(), sc.bind, sc.snapshot);
        // A key returned twice: name every statement that touched it.
        let dup = sc.answer.as_ref().err().and_then(|e| e.split(DUPLICATE).nth(1)?.parse().ok());
        if let Some(key) = dup {
            let ops: Vec<String> = history
                .iter()
                .filter(|(_, op)| matches!(*op, Dml::Update { key: k, .. } | Dml::Insert { key: k } if k == key))
                .map(|(scn, op)| format!("{op:?} at SCN {scn}"))
                .collect();
            what += &format!(" (statements on key {key}: {})", ops.join(", "));
        }
        checks.answer(&what, sc.answer.clone(), want);
    }

    let primary = s.cluster.primary();
    let mut rng = Rng::stream(seed, 30);
    for _ in 0..PRIMARY_SAMPLE.min(scans.len()) {
        let sc = &scans[rng.below(scans.len() as u64) as usize];
        let req = deploy::request(sc.kind, sc.bind, false).at(Scn(sc.snapshot));
        let what =
            format!("primary re-run of {} bind {} at {}", sc.kind.name(), sc.bind, sc.snapshot);
        match (primary.query(&req), &sc.answer) {
            (Ok(o), Ok(a)) => checks.answer(&what, answer_of(sc.kind, sc.bind, &o), *a),
            (Err(e), _) => checks.check(false, || format!("{what}: {e}")),
            (_, Err(e)) => checks.check(false, || format!("{what}: standby failed: {e}")),
        }
    }
    totals_check(&s.cluster, &model, history.last().map_or(s.last_scn, |h| h.0), checks)
}

/// The standby's full-table aggregates equal the primary's at the same
/// SCN and the model's.
fn totals_check(c: &AdgCluster, model: &Model, last_scn: u64, checks: &mut Checks) -> Result<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let standby = c.standby();
    while standby.query_scn.get().map_or(0, Scn::raw) < last_scn && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let (n, s1, s2, at) = deploy::totals(|r| standby.query(r), None)?;
    checks.check(at.raw() >= last_scn, || {
        format!("standby at {} < last commit {last_scn}", at.raw())
    });
    let p = deploy::totals(|r| c.primary().query(r), Some(at))?;
    let want = model.totals();
    checks.check((n, s1, s2) == want, || {
        format!("standby totals {:?} != model {want:?}", (n, s1, s2))
    });
    checks.check((p.0, p.1, p.2) == want, || format!("primary totals {p:?} != model {want:?}"));
    Ok(())
}

/// Hard-crash the standby, catch up, answer; repeat. A traced run traces
/// every other round.
fn restart_phase(
    s: &Setup,
    seed: u64,
    secs: f64,
    trace: bool,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<[Phase; 2]> {
    let mut rng = Rng::stream(seed, 40);
    let mut ps: [Phase; 2] = Default::default();
    let before = snapshots(&s.cluster);
    let t0 = Instant::now();
    let min_rounds = if trace { 2 } else { 1 };
    let mut round = 0u64;
    let mut round_counters = MetricsSnapshot::default();
    while round < min_rounds || t0.elapsed().as_secs_f64() < secs {
        let on = trace && round % 2 == 1;
        tracer.set(on);
        let p = &mut ps[on as usize];
        let root = tracer.begin("restart.round", 0, round);
        let started = Instant::now();
        let open = tracer.begin("recovery.restart.reopen", root.id(), round);
        s.cluster.crash_restart_standby(0)?;
        p.restart_reopen_s.push(tracer.end(open).as_secs_f64());
        let took = deploy::sync(
            &s.cluster,
            tracer,
            "recovery.restart.catchup",
            root.id(),
            round,
            &mut p.steps,
        )?;
        p.restart_catchup_s.push(took.as_secs_f64());
        let standby = s.cluster.standby();
        for i in 0..=3 * RESTART_QUERIES {
            let kind = Kind::ALL[i % 3];
            let bind = rng.below(DOMAIN);
            let req = deploy::request(kind, bind, on);
            let (res, took) =
                deploy::query(&standby, &req, tracer, root.id(), round << 16 | i as u64);
            if i == 0 {
                // The first answer after the crash ends the restart.
                p.op_lat.push(ms(started.elapsed()));
            }
            match res {
                Ok(o) => {
                    checks.check(o.snapshot.raw() >= s.last_scn, || {
                        format!(
                            "answer at {} predates last commit {}",
                            o.snapshot.raw(),
                            s.last_scn
                        )
                    });
                    checks.answer(
                        kind.name(),
                        answer_of(kind, bind, &o),
                        s.model.expect(kind, bind),
                    );
                    p.query_done(kind, took, &o, on);
                }
                Err(e) => checks.check(false, || format!("after restart, {}: {e}", kind.name())),
            }
        }
        let m = standby.metrics();
        p.replayed.push(m.durability.replayed_records);
        // A restarted standby starts a fresh registry: its counters are
        // this round's.
        round_counters = m;
        totals_check(&s.cluster, &s.model, s.last_scn, checks)?;
        tracer.end(root);
        p.ops += 1;
        p.secs += started.elapsed().as_secs_f64();
        round += 1;
    }
    tracer.set(false);
    ps[1].primary = (before.0, s.cluster.primary().metrics());
    ps[1].standby = (MetricsSnapshot::default(), round_counters);
    Ok(ps)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer ledger of a traced run.
fn ledger(
    w: Workload,
    s: &Setup,
    phases: &[Phase; 2],
    wall: f64,
    step: &StepCosts,
    step_primary: &(MetricsSnapshot, MetricsSnapshot),
    overhead: &[Metric],
) -> Vec<Layer> {
    let mut out = Vec::new();
    let mut add = |name: String, value: f64, unit, moves, reported| {
        out.push(Layer { name, value, unit, moves, reported });
    };
    // Traced samples come from the traced slices; counters span the whole
    // measured phase (`wall` seconds).
    let p = &phases[1];
    let d = |pair: &(MetricsSnapshot, MetricsSnapshot), f: fn(&MetricsSnapshot) -> u64| {
        f(&pair.1).saturating_sub(f(&pair.0)) as f64
    };

    // Set-up (the traced set-up ran the pipeline one call at a time).
    add("setup.load_s".into(), s.load_s, "s", "setup_s", true);
    add("setup.sync_s".into(), s.sync_s - s.steps.populate.as_secs_f64(), "s", "setup_s", true);
    add("setup.populate_s".into(), s.steps.populate.as_secs_f64(), "s", "setup_s", true);
    add("coldstore.evict_s".into(), s.evict_s, "s", "setup_s (olap_tiered)", false);
    add("imcs.units_populated".into(), s.units_populated as f64, "count", "setup_s", true);
    add(
        "imcs.population_ms_per_unit".into(),
        ratio(s.steps.populate.as_secs_f64() * 1e3, s.steps.units as f64),
        "ms",
        "setup_s; q1_tail_ms (htap)",
        true,
    );

    // The step-mode pipeline pass: htap's statement stream, or the set-up.
    let batches = d(step_primary, |m| m.transport.batches_shipped);
    add(
        "txn.commit_us".into(),
        percentile(&sorted(step.commit.clone()), 50.0),
        "us",
        "commit_p50_us (htap)",
        true,
    );
    add(
        "redo.ship_us_per_batch".into(),
        ratio(step.ship.as_secs_f64() * 1e6, batches),
        "us",
        "ops_per_s, op_p50_ms (htap)",
        true,
    );
    add(
        "recovery.ingest_ns_per_record".into(),
        ratio(step.ingest.as_secs_f64() * 1e9, step.dispatched as f64),
        "ns",
        "ops_per_s, op_p50_ms (htap)",
        true,
    );
    add(
        "recovery.apply_ns_per_record".into(),
        ratio(step.apply.as_secs_f64() * 1e9, step.applied as f64),
        "ns",
        "ops_per_s (htap); op_p50_ms (restart)",
        true,
    );
    add(
        "recovery.advance_us".into(),
        ratio(step.advance.as_secs_f64() * 1e6, step.advances as f64),
        "us",
        "visible tail (htap)",
        true,
    );

    // Counters over the traced measured phase.
    let fsyncs = d(&p.primary, |m| m.durability.fsyncs) + d(&p.standby, |m| m.durability.fsyncs);
    let persisted = d(&p.primary, |m| m.durability.records_persisted)
        + d(&p.standby, |m| m.durability.records_persisted);
    let bytes = d(&p.primary, |m| m.durability.bytes_persisted)
        + d(&p.standby, |m| m.durability.bytes_persisted);
    let shipped = d(&p.primary, |m| m.transport.bytes_shipped);
    let pipe = "ops_per_s, op_p50_ms (htap)";
    add("net.frames_sent".into(), d(&p.primary, |m| m.transport.frames_sent), "count", pipe, true);
    add("net.retransmits".into(), d(&p.primary, |m| m.transport.retransmits), "count", pipe, true);
    let dur = "ops_per_s (htap); op_p50_ms (restart)";
    add("redo.durable.fsyncs".into(), fsyncs, "count", dur, true);
    add("redo.durable.records_per_fsync".into(), ratio(persisted, fsyncs), "1", dur, true);
    add("redo.durable.bytes_per_redo_byte".into(), ratio(bytes, shipped), "1", dur, true);
    add("core.mining.cvs_mined".into(), d(&p.standby, |m| m.mining.sniffed), "count", dur, true);
    add("core.journal.records".into(), d(&p.standby, |m| m.mining.mined), "count", dur, true);
    let vis = "visible tail (htap)";
    add(
        "core.flush.records_flushed".into(),
        d(&p.standby, |m| m.flush.flushed_records),
        "count",
        vis,
        true,
    );
    add(
        "core.flush.coarse_invalidations".into(),
        d(&p.standby, |m| m.flush.coarse_invalidations),
        "count",
        vis,
        true,
    );
    add(
        "imcs.repopulations".into(),
        d(&p.standby, |m| m.population.imcus_repopulated),
        "count",
        "q1_tail_ms (htap)",
        true,
    );
    add(
        "coldstore.evictions".into(),
        d(&p.standby, |m| m.tier.tier_evictions),
        "count",
        "olap_tiered latencies",
        true,
    );
    add(
        "coldstore.recalls".into(),
        d(&p.standby, |m| m.tier.tier_recalls),
        "count",
        "olap_tiered latencies",
        true,
    );
    add(
        "htap.writer_stall_share".into(),
        ratio(p.stall_s, p.secs),
        "1",
        "ops_per_s (htap): near 1 = pipeline-bound, near 0 = txn-bound",
        true,
    );
    for st in &p.standby.1.runtime.stages {
        let prev = p.standby.0.runtime.stages.iter().find(|x| x.stage == st.stage);
        let busy = st.run_quantum_us.sum - prev.map_or(0, |x| x.run_quantum_us.sum);
        let park = st.park_us.sum - prev.map_or(0, |x| x.park_us.sum);
        add(
            format!("runtime.{}.busy_share", st.stage),
            ratio(busy as f64 / 1e6, wall),
            "1",
            "",
            false,
        );
        add(
            format!("runtime.{}.park_share", st.stage),
            ratio(park as f64 / 1e6, wall),
            "1",
            "",
            false,
        );
    }

    // Query profile phases per kind.
    let all: KindProfile = p.profile.iter().fold(KindProfile::default(), |mut a, k| {
        a.queries += k.queries;
        a.span_us += k.span_us;
        a.skew += k.skew;
        a.cold_pruned += k.cold_pruned;
        a.cold_read += k.cold_read;
        a.cold_read_task_us += k.cold_read_task_us;
        a.cold_read_tasks += k.cold_read_tasks;
        a.imcu_rows += k.imcu_rows;
        a.rows += k.rows;
        a.pruning_us += k.pruning_us + k.kernel_us + k.merge_us + k.fallback_us + k.uncovered_us;
        a
    });
    for kind in Kind::ALL {
        let k = &p.profile[kind as usize];
        let per = |v: u64| ratio(v as f64, k.queries as f64);
        let e = match kind {
            Kind::Q1 => "q1_p50_ms; op_p50_ms (olap_*)",
            Kind::Q2 => "q2_p50_ms; op_p50_ms (olap_*)",
            Kind::Agg => "agg_p50_ms; op_p50_ms (olap_*)",
        };
        let n = kind.name();
        add(format!("imcs.scan.{n}.kernel_us"), per(k.kernel_us), "us", e, true);
        add(format!("imcs.scan.{n}.pruning_us"), per(k.pruning_us), "us", e, false);
        add(format!("imcs.scan.{n}.merge_us"), per(k.merge_us), "us", e, false);
        add(format!("imcs.scan.{n}.fallback_us"), per(k.fallback_us), "us", e, false);
        add(format!("imcs.scan.{n}.uncovered_us"), per(k.uncovered_us), "us", e, false);
    }
    let q = all.queries as f64;
    add(
        "imcs.scan.task_skew".into(),
        ratio(all.skew, q),
        "1",
        "q1_p50_ms, q2_p50_ms, agg_p50_ms",
        true,
    );
    add(
        "imcs.scan.imcu_row_share".into(),
        ratio(all.imcu_rows as f64, all.rows as f64),
        "1",
        "q1_p50_ms (htap)",
        true,
    );
    add(
        "db.query_overhead_us".into(),
        ratio(all.span_us - all.pruning_us as f64, q),
        "us",
        "op_p50_ms (olap_hot)",
        true,
    );
    let cold = "olap_tiered latencies";
    add(
        "coldstore.read_units_per_query".into(),
        ratio(all.cold_read as f64, q),
        "count",
        cold,
        true,
    );
    add(
        "coldstore.pruned_units_per_query".into(),
        ratio(all.cold_pruned as f64, q),
        "count",
        cold,
        true,
    );
    add(
        "coldstore.read_us_per_unit".into(),
        ratio(all.cold_read_task_us as f64, all.cold_read_tasks as f64),
        "us",
        cold,
        false,
    );

    // Restart.
    let replayed = p.replayed.first().copied().unwrap_or(0) as f64;
    let catchup = median(&p.restart_catchup_s);
    add(
        "recovery.restart.reopen_s".into(),
        median(&p.restart_reopen_s),
        "s",
        "op_p50_ms (restart)",
        false,
    );
    add("recovery.restart.catchup_s".into(), catchup, "s", "op_p50_ms (restart)", false);
    add("recovery.restart.records_replayed".into(), replayed, "count", "op_p50_ms (restart)", true);
    add(
        "recovery.restart.replay_records_per_s".into(),
        ratio(replayed, catchup),
        "1/s",
        "op_p50_ms (restart)",
        true,
    );

    // Workload-specific end-to-end figures of the traced half.
    let q1 = sorted(phases[0].lat[0].clone());
    let q1_tail = host::tail(&q1).map_or(percentile(&q1, 100.0), |t| t.1);
    add("q1_tail_ms".into(), q1_tail, "ms", "(end to end: highest supported Q1 percentile)", true);
    if w == Workload::Htap {
        let c = sorted(p.commit_us.clone());
        let v = sorted(p.visible_ms.clone());
        add("commit_tps".into(), ratio(p.ops as f64, p.secs), "1/s", "(end to end)", false);
        add("commit_p50_us".into(), percentile(&c, 50.0), "us", "(end to end)", false);
        add("commit_p99_us".into(), percentile(&c, 99.0), "us", "(end to end)", false);
        add("visible_p50_ms".into(), percentile(&v, 50.0), "ms", "(end to end)", false);
        add("visible_p99_ms".into(), percentile(&v, 99.0), "ms", "(end to end)", false);
    }
    if w == Workload::Restart {
        add("restart_s".into(), median(&p.op_lat) / 1e3, "s", "(end to end)", false);
    }
    let op = overhead.iter().find(|m| m.name == "op_p50_ms").map_or(0.0, |m| m.value);
    add("trace.overhead_op_p50_pct".into(), op, "%", "(traced minus untraced op_p50_ms)", true);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_check_flags_any_difference() {
        let mut c = Checks::default();
        c.same("x", &[3, 3, 3]);
        assert_eq!(c.failed, 0);
        c.same("x", &[3, 4, 3]);
        assert_eq!((c.attempted, c.failed), (2, 1));
    }
}
