//! Host facts recorded with every result, and small measurement helpers.

use std::path::Path;
use std::time::{Duration, Instant};

/// Value at percentile `p` (0..=100) of `sorted`, nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// The highest of p99.9/p99/p90/p50 with at least ten samples beyond it,
/// as `(percentile, value)`; `None` below twenty samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| sorted.len() as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|p| (p, percentile(sorted, p)))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Two-thread compute scaling: the throughput of a fixed integer loop on
/// two threads over one thread. Near 2 on two idle cores, near 1 on one
/// core (or when a neighbour takes the second), so a result measured
/// without a second core cannot pass for a scaling result.
pub fn scaling_ratio() -> f64 {
    fn spin(iters: u64) -> u64 {
        let mut x = 0x1234_5678u64;
        for i in 0..iters {
            x = std::hint::black_box(x.rotate_left(7) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        x
    }
    let iters = 20_000_000;
    let t = Instant::now();
    std::hint::black_box(spin(iters));
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| spin(iters));
        let b = s.spawn(|| spin(iters));
        std::hint::black_box((a.join().expect("probe thread"), b.join().expect("probe thread")));
    });
    let two = t.elapsed().as_secs_f64();
    2.0 * one / two
}

/// Milliseconds for a fixed reference task, the median of five: dependent
/// random reads over a 32 MiB table (memory latency, like a scan's gather)
/// plus a sequential pass (bandwidth). Independent of the program, so it
/// records only how fast the host was when the run started.
pub fn reference_ms() -> f64 {
    const N: usize = 1 << 22;
    let table: Vec<u64> =
        (0..N as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20).collect();
    let once = || {
        let t = Instant::now();
        let mut x = 0u64;
        for i in 0..(1u64 << 18) {
            x = table[((x ^ i) as usize) & (N - 1)].wrapping_add(x.rotate_left(5));
        }
        let sum: u64 = table.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        std::hint::black_box((x, sum));
        t.elapsed().as_secs_f64() * 1e3
    };
    median(&(0..5).map(|_| once()).collect::<Vec<_>>())
}

/// The commit the checkout was made from, when it is a git work tree.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the program's sources (`crates/`, sorted by path), so a
/// result identifies the code it measured even outside a git work tree.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }
    format!("{h:016x}/{}files", files.len())
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a measured number for JSON (non-finite values become 0 and are
/// reported by the caller as failures).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let big = sorted((1..=1000).map(f64::from).collect());
        assert_eq!(tail(&big), Some((99.0, 990.0)));
        assert_eq!(tail(&v[..19]), None);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
