//! `imadg-perfbench`: the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload olap_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Prints every metric by name with its unit,
//! checks every answer against an exact oracle, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`. See
//! `perfbench/README.md` for the workloads and the metric map.

mod deploy;
mod host;
mod model;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workloads::{Outcome, Workload};

/// Per-run scratch space (redo logs, cold-tier files) lives under here,
/// one directory per process, removed when the run ends.
const TMP_ROOT: &str = ".bench_tmp";
/// Result records and span dumps.
const OUT_ROOT: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// This run's scratch directory; removed on drop, so also when the run
/// fails or panics.
struct RunDir(PathBuf);

impl RunDir {
    /// Create a fresh directory, refusing to start while a directory left
    /// by a run that no longer exists remains (nothing may carry over).
    fn create(root: &Path) -> Result<RunDir, String> {
        std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
        let entries = std::fs::read_dir(root).map_err(|e| format!("{}: {e}", root.display()))?;
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            let pid = name.strip_prefix("run-").and_then(|p| p.parse::<u32>().ok());
            let alive = pid.is_some_and(|p| Path::new(&format!("/proc/{p}")).exists());
            if !alive {
                return Err(format!(
                    "stale run directory {} from an earlier run; remove it to start",
                    e.path().display()
                ));
            }
        }
        let dir = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.0) {
            eprintln!("perfbench: could not remove {}: {e}", self.0.display());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    if !root.join("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    let facts = facts(&root, &args);
    let run = match RunDir::create(&root.join(TMP_ROOT)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = workloads::run(args.workload, args.seed, args.seconds, args.trace, &run.0);
    drop(run);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    report(&root, &args, &facts, &outcome);
    ExitCode::SUCCESS
}

/// Host facts and run settings recorded with every result.
fn facts(root: &Path, args: &Args) -> Vec<(&'static str, String)> {
    vec![
        ("workload", args.workload.name().into()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("cores", host::cores().to_string()),
        ("scaling_2t", format!("{:.3}", host::scaling_ratio())),
        ("reference_ms", format!("{:.3}", host::reference_ms())),
        ("git_commit", host::git_commit()),
        ("source_digest", host::source_digest(root)),
        ("client_threads", if args.workload == Workload::Htap { "2" } else { "1" }.into()),
    ]
}

fn report(root: &Path, args: &Args, facts: &[(&str, String)], o: &Outcome) {
    for (k, v) in facts {
        println!("fact {k} = {v}");
    }
    println!("config {}", o.config);
    for n in &o.notes {
        println!("note {n}");
    }
    for (k, v) in &o.counts {
        println!("count {k} = {v}");
    }
    for e in &o.checks.errors {
        println!("FAILED {e}");
    }
    let failed_ratio = o.checks.failed as f64 / o.checks.attempted.max(1) as f64;
    println!(
        "checks attempted = {} failed = {} failed_ratio = {failed_ratio}",
        o.checks.attempted, o.checks.failed
    );
    for m in &o.e2e {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for (name, value) in &o.medians {
        println!("median {name} = {value} ms");
    }
    for (name, pct, value, n) in &o.tails {
        println!("tail {name} p{pct} = {value} (n={n})");
    }
    for m in &o.overhead {
        println!("trace_overhead {} = {:.2} %", m.name, m.value);
    }
    for l in &o.layers {
        let tag = if l.reported { "layer" } else { "layer*" };
        println!("{tag} {} = {} {}  -> {}", l.name, l.value, l.unit, l.moves);
    }
    if args.trace {
        for (name, t) in trace::self_times(&o.spans) {
            println!(
                "span {name}: calls={} total_ms={:.3} self_ms={:.3} self_us_per_call={:.3}",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.self_ns as f64 / 1e3 / t.calls as f64
            );
        }
    }

    let mut metrics = String::new();
    let chosen: Vec<(&str, f64, &str)> = if args.trace {
        o.layers.iter().filter(|l| l.reported).map(|l| (l.name.as_str(), l.value, l.unit)).collect()
    } else {
        o.e2e.iter().map(|m| (m.name.as_str(), m.value, m.unit)).collect()
    };
    for (i, (name, value, unit)) in chosen.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            host::json_str(name),
            host::json_num(*value),
            host::json_str(unit)
        );
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.checks.failed == 0,
        o.checks.attempted.max(1),
        o.checks.failed
    );
    save(root, args, facts, o, &result);
    println!("{result}");
}

/// Keep the result with its facts (and, traced, the spans) under
/// `.bench_out/`; a failure to save is reported but does not fail the run.
fn save(root: &Path, args: &Args, facts: &[(&str, String)], o: &Outcome, result: &str) {
    let dir = root.join(OUT_ROOT);
    let stem = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, args.trace as u8);
    let mut record = String::from("{");
    for (k, v) in facts {
        let _ = write!(record, "{}: {}, ", host::json_str(k), host::json_str(v));
    }
    let _ = write!(record, "\"config\": {}, \"counts\": {{", host::json_str(&o.config));
    for (i, (k, v)) in o.counts.iter().enumerate() {
        let _ = write!(record, "{}{}: {v}", if i == 0 { "" } else { ", " }, host::json_str(k));
    }
    let _ = write!(record, "}}, \"errors\": [");
    for (i, e) in o.checks.errors.iter().enumerate() {
        let _ = write!(record, "{}{}", if i == 0 { "" } else { ", " }, host::json_str(e));
    }
    let _ = writeln!(record, "], \"result\": {result}}}");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.json")), record))
        .and_then(|_| {
            if args.trace {
                trace::write_spans(&dir.join(format!("{stem}.spans.jsonl")), &o.spans)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not save the record under {}: {e}", dir.display());
    }
}
