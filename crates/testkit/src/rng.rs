//! Deterministic, seedable randomness: splitmix64 for seeding and stream
//! splitting, xoshiro256\*\* as the workhorse generator.
//!
//! xoshiro256\*\* (Blackman & Vigna, 2018) is the same generator family
//! `rand`'s `SmallRng` uses on 64-bit targets: 256 bits of state, period
//! 2^256 − 1, passes BigCrush, and needs only shifts/rotates/multiplies —
//! ideal for a reproducible, dependency-free stack. splitmix64 is the
//! canonical way to expand a 64-bit seed into the full state (it is an
//! equidistributed bijection, so no two seeds collide and a zero state is
//! impossible).

/// The splitmix64 generator: a 64-bit state stepped by a Weyl increment and
/// finalized with an avalanche mix. Used to seed [`Rng`] and derive
/// independent child streams.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// New generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One-shot splitmix64 avalanche of a value — handy for deriving per-case
/// seeds from a base seed plus an index.
pub fn mix64(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// xoshiro256\*\* — the workspace's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Deterministic generator from a 64-bit seed (state filled by
    /// splitmix64, per the xoshiro authors' recommendation).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The raw 256-bit generator state, for serialization (crash-safe
    /// training checkpoints persist it so a resumed run replays the exact
    /// random stream the uninterrupted run would have consumed).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a [`Rng::state`] snapshot. The all-zero
    /// state is a fixed point of xoshiro256\*\* and is rejected.
    pub fn from_state(s: [u64; 4]) -> Rng {
        assert!(s.iter().any(|&w| w != 0), "Rng::from_state: all-zero state");
        Rng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Split off an independent child stream. The child is seeded through a
    /// splitmix64 avalanche of a fresh output, so parent and child streams
    /// are decorrelated.
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from_u64(mix64(self.next_u64()))
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of precision.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `u64` in `[0, n)`. Uses Lemire's multiply-shift with a
    /// rejection step, so the result is unbiased for every `n`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below: empty range");
        // Lemire 2019: map x·n >> 64; reject the small aliased band.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "Rng::range_u64: empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "Rng::range_usize: empty range [{lo}, {hi})");
        lo + self.index(hi - lo)
    }

    /// Uniform `i64` in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "Rng::range_i64: empty range [{lo}, {hi})");
        lo.wrapping_add(self.below(hi.wrapping_sub(lo) as u64) as i64)
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "Rng::range_f32: empty range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "Rng::range_f64: empty range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Standard-normal sample via the Box–Muller transform (`u1` kept away
    /// from zero so `ln` stays finite).
    pub fn normal_f32(&mut self) -> f32 {
        let u1 = f32::EPSILON + (1.0 - f32::EPSILON) * self.next_f32();
        let u2 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k ≤ n), in random order
    /// (partial Fisher–Yates).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "Rng::sample_indices: k={k} > n={n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.range_usize(i, n.max(i + 1));
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_reference_vector() {
        // Reference outputs for the all-splitmix64-from-0 seeding: the first
        // outputs must be reproducible forever — checkpoints and the
        // determinism regression test depend on stream stability.
        let mut a = Rng::seed_from_u64(0);
        let mut b = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let again: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(first, again);
        assert!(first.iter().any(|&x| x != 0));
    }

    #[test]
    fn splitmix_is_a_bijection_locally() {
        // Distinct seeds give distinct first outputs for a decent sample.
        let outs: std::collections::HashSet<u64> = (0..1000u64).map(mix64).collect();
        assert_eq!(outs.len(), 1000);
    }

    #[test]
    fn state_round_trips_mid_stream() {
        let mut a = Rng::seed_from_u64(11);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = Rng::from_state(a.state());
        let from_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let from_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(from_a, from_b, "restored state must continue the stream");
    }

    #[test]
    #[should_panic(expected = "all-zero state")]
    fn zero_state_is_rejected() {
        let _ = Rng::from_state([0; 4]);
    }

    #[test]
    fn below_is_in_range_and_hits_all_values() {
        let mut rng = Rng::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_f32_moments() {
        let mut rng = Rng::seed_from_u64(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f32() as f64).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal_f32() as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn forked_streams_differ_from_parent() {
        let mut parent = Rng::seed_from_u64(4);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let a: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = Rng::seed_from_u64(5);
        let mut xs: Vec<usize> = (0..64).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(xs, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_full_range_possible() {
        let mut rng = Rng::seed_from_u64(6);
        let s = rng.sample_indices(50, 50);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let t = rng.sample_indices(10, 0);
        assert!(t.is_empty());
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Rng::seed_from_u64(7);
        assert!((0..100).all(|_| !rng.bernoulli(0.0)));
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
    }
}
