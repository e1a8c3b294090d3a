//! A wall-clock micro-benchmark timer: warmup, then N timed samples,
//! reported as median (with min/mean for context). Replaces `criterion`
//! for the `lasagne-bench` targets, which are plain `harness = false`
//! binaries.
//!
//! Median-of-N is robust to the occasional scheduler hiccup without
//! criterion's bootstrap machinery; for the kernel-vs-kernel comparisons
//! the bench suite makes (GCN vs Lasagne per-epoch time, aggregator
//! forward cost) that is plenty.

use std::time::{Duration, Instant};

/// Timing summary of one benchmarked closure.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark label.
    pub name: String,
    /// Timed samples taken (after warmup).
    pub samples: usize,
    /// Median sample duration.
    pub median: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Mean sample duration.
    pub mean: Duration,
}

impl BenchResult {
    /// Median in seconds.
    pub fn median_seconds(&self) -> f64 {
        self.median.as_secs_f64()
    }
}

/// `"1.234 ms"`-style human formatting.
fn human(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

impl std::fmt::Display for BenchResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<44} median {:>12}  (min {}, mean {}, {} samples)",
            self.name,
            human(self.median),
            human(self.min),
            human(self.mean),
            self.samples
        )
    }
}

/// Benchmark `f`: `warmup` untimed runs, then `samples` timed runs.
pub fn bench_with<F: FnMut()>(name: &str, warmup: usize, samples: usize, mut f: F) -> BenchResult {
    assert!(samples >= 1, "bench_with: need at least one sample");
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    let median = if samples % 2 == 1 {
        times[samples / 2]
    } else {
        (times[samples / 2 - 1] + times[samples / 2]) / 2
    };
    let mean = times.iter().sum::<Duration>() / samples as u32;
    BenchResult {
        name: name.to_string(),
        samples,
        median,
        min: times[0],
        mean,
    }
}

/// [`bench_with`] with the default 3 warmup runs and 15 samples, printing
/// the result line to stdout (the bench binaries' usual flow).
pub fn bench<F: FnMut()>(name: &str, f: F) -> BenchResult {
    let r = bench_with(name, 3, 15, f);
    println!("{r}");
    r
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least a `q` share of the samples at or below it (`q` in
/// `[0, 1]`; 0 for no samples) — always an observed value, never an
/// interpolation.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.25), 1.0);
        assert_eq!(percentile(&s, 0.5), 2.0);
        assert_eq!(percentile(&s, 0.51), 3.0);
        assert_eq!(percentile(&s, 0.99), 4.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_min_are_ordered() {
        let mut n = 0u64;
        let r = bench_with("spin", 1, 9, || {
            for i in 0..10_000u64 {
                n = n.wrapping_add(i * i);
            }
        });
        assert!(r.min <= r.median);
        assert!(r.median > Duration::ZERO);
        assert_eq!(r.samples, 9);
        assert!(n > 0);
    }

    #[test]
    fn even_sample_counts_average_the_middle_pair() {
        let r = bench_with("noop", 0, 4, || {});
        assert_eq!(r.samples, 4);
        assert!(r.mean >= r.min);
    }

    #[test]
    fn display_is_humane() {
        assert_eq!(human(Duration::from_nanos(120)), "120 ns");
        assert_eq!(human(Duration::from_micros(1500)), "1.500 ms");
        assert_eq!(human(Duration::from_secs(2)), "2.000 s");
        let r = BenchResult {
            name: "x".into(),
            samples: 3,
            median: Duration::from_millis(5),
            min: Duration::from_millis(4),
            mean: Duration::from_millis(6),
        };
        assert!(r.to_string().contains("median"));
    }
}
