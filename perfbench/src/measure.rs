//! Measurement helpers shared by the workloads: order statistics, peak RSS,
//! the drift calibration loop, provenance, and the result line.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run `f` once and return its result with the wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// Seed of one generator stream (graph, weights, script, …) derived from the
/// run's `--seed`, so one argument drives every input.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    lasagne_testkit::mix64(seed ^ stream.rotate_left(32))
}

/// Nearest-rank percentile, `q` in `(0, 1]`. Panics on an empty sample: every
/// caller guarantees at least one measurement.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples, immune to
/// `q * n` landing a rounding error above an integer.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median (nearest-rank p50).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Percentiles a tail metric may be read at, lowest first.
const TAIL_LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// The highest percentile of `TAIL_LADDER`, capped at `q_max`, that has at
/// least ten samples beyond it, with its value. The cap keeps the metric's
/// definition fixed when a faster program fits more samples into a run;
/// each workload sizes its run so that the cap is reached.
pub fn tail(xs: &[f64], q_max: f64) -> (f64, f64) {
    let n = xs.len();
    let q = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&q| q <= q_max && n - rank(n, q) >= 10)
        .unwrap_or(0.5);
    (q, percentile(xs, q))
}

/// Process-lifetime peak resident set (`VmHWM`) in MiB. Linux only, like the
/// benchmark.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Timings of a fixed std-only loop, printed at the start and end of every
/// run so machine drift between runs is visible. Never a metric or divisor.
pub fn calibration_note(when: &str) -> String {
    // Compute-bound: a serial multiply-xorshift chain.
    let t = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    black_box(x);
    let compute_ms = ms_since(t);
    // Memory-bound: one touch per cache line over 32 MiB, four passes. The
    // buffer is freed before any workload allocates, so it never sets the
    // process's peak RSS.
    let buf = vec![1u64; 4 << 20];
    let t = Instant::now();
    let mut sum = 0u64;
    for _ in 0..4 {
        for chunk in black_box(&buf).chunks(8) {
            sum = sum.wrapping_add(chunk[0]);
        }
    }
    black_box(sum);
    let memory_ms = ms_since(t);
    format!("calibration {when}: compute_ms={compute_ms:.3} memory_ms={memory_ms:.3}")
}

/// Where the program came from and what it ran on.
pub fn provenance_note() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "provenance: git_rev={} available_parallelism={cores} pool_threads={} profile={profile}",
        git_rev(Path::new(".")),
        lasagne_par::current_threads(),
    )
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A working directory for a run's files, inside the current directory and
/// removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(label: &str) -> WorkDir {
        let dir = PathBuf::from(".bench_work").join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create work dir {}: {e}", dir.display()));
        WorkDir(dir)
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One run's result: op counts, gate verdicts, metrics and diagnostics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    gates_failed: Vec<String>,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Report {
    /// Record a metric; its unit is the one `BENCHMARK.json` declares.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// A diagnostic line: printed, never a metric.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Check a correctness gate; a failed gate makes the run incorrect.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        self.notes.push(format!(
            "gate {name}: {} ({detail})",
            if ok { "pass" } else { "FAIL" }
        ));
        if !ok {
            self.gates_failed.push(name.to_string());
        }
    }

    pub fn correct(&self) -> bool {
        self.gates_failed.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Print the diagnostics, then the result object as the last line, with
    /// exactly the metrics of `keep` in that order. A kept metric the run did
    /// not record is a bug in the workload.
    pub fn print(&self, keep: &[(&str, &str)]) {
        let values = keep.iter().map(|&(name, _)| {
            self.get(name)
                .unwrap_or_else(|| panic!("workload did not record metric {name}"))
        });
        self.print_values(keep, values.collect());
    }

    /// [`Report::print`] for the per-layer set: a layer this workload never
    /// calls into reads 0, and a diagnostic names it.
    pub fn print_zero_filled(&mut self, keep: &[(&str, &str)]) {
        let missing: Vec<&str> = keep
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| self.get(n).is_none())
            .collect();
        if !missing.is_empty() {
            self.note(format!(
                "not exercised by this workload (reported as 0): {}",
                missing.join(" ")
            ));
        }
        let values = keep
            .iter()
            .map(|&(name, _)| self.get(name).unwrap_or(0.0))
            .collect();
        self.print_values(keep, values);
    }

    fn print_values(&self, keep: &[(&str, &str)], values: Vec<f64>) {
        for line in &self.notes {
            println!("# {line}");
        }
        for (name, value) in &self.metrics {
            println!("# measured {name} = {value}");
        }
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
        .expect("string write");
        for (i, (&(name, unit), value)) in keep.iter().zip(values).enumerate() {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("string write");
        }
        out.push_str("}}");
        println!("{out}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_respects_the_cap() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), (0.9, 90.0));
        let many: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&many, 0.99), (0.99, 4950.0));
        assert_eq!(tail(&many, 0.9), (0.9, 4500.0));
        assert_eq!(tail(&xs[..12], 0.99).0, 0.5);
    }
}
