//! A minimal property-based testing harness.
//!
//! The shape is the familiar one: a [`Gen`] produces random values, a
//! property returns `Ok(())` or an error message, and [`check`] runs the
//! property over many generated cases. On failure the harness
//!
//! 1. prints the **case seed** so the exact failing input can be replayed
//!    with `LASAGNE_PROP_SEED=<seed> cargo test <name>`,
//! 2. **shrinks** the input via [`Gen::shrink`] (integers and sizes shrink
//!    toward their lower bound, vectors shrink by dropping elements) and
//!    reports the minimal counterexample found.
//!
//! The [`prop_check!`](crate::prop_check) macro wraps all of this into a `#[test]` with
//! `name in generator` bindings, mirroring the `proptest!` surface the
//! workspace's suites were originally written against:
//!
//! ```
//! use lasagne_testkit::{prop_check, prop_assert};
//!
//! prop_check! {
//!     cases = 64,
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         prop_assert!(a + b == b + a, "a={a} b={b}");
//!     }
//! }
//! ```

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::rng::{mix64, Rng};

/// A generator of random test inputs with optional shrinking.
pub trait Gen {
    /// The generated value. `Debug` so counterexamples can be printed,
    /// `Clone` so the shrinker can hold candidates.
    type Value: Clone + std::fmt::Debug;

    /// Produce one value from the generator.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Candidate "smaller" versions of `v`, best candidates first. The
    /// default is no shrinking (used by float ranges, where smaller inputs
    /// rarely clarify a failure).
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// Harness configuration for one property.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of generated cases (the ported suites use ≥ 64; the default
    /// matches proptest's 256).
    pub cases: u32,
    /// Base seed; per-case seeds are derived from it. Overridden by the
    /// `LASAGNE_PROP_SEED` environment variable for replay.
    pub seed: u64,
    /// Upper bound on accepted shrink steps before reporting.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config { cases: 256, seed: 0x1a5a_9e5e_ed00_0000, max_shrink_steps: 512 }
    }
}

impl Config {
    /// Config with a specific case count and default everything else.
    pub fn cases(cases: u32) -> Self {
        Config { cases, ..Config::default() }
    }
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that suppresses printing while
/// the harness is intentionally provoking panics during shrinking. Other
/// threads / tests keep the previous hook behavior.
fn install_quiet_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

/// Run `prop` on `value`, converting panics into `Err` so the harness can
/// report the seed and shrink even when the failure is an `unwrap`/index
/// panic inside the property body.
fn run_case<V, P>(prop: &P, value: &V) -> Result<(), String>
where
    P: Fn(&V) -> Result<(), String>,
{
    install_quiet_hook();
    QUIET_PANICS.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| prop(value)));
    QUIET_PANICS.with(|q| q.set(false));
    match outcome {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panicked with a non-string payload".to_string());
            Err(format!("panicked: {msg}"))
        }
    }
}

/// Greedily walk shrink candidates while they keep failing; returns the
/// minimal failing value, its error, and the number of accepted steps.
fn shrink_failure<G, P>(
    gen: &G,
    prop: &P,
    mut value: G::Value,
    mut error: String,
    max_steps: u32,
) -> (G::Value, String, u32)
where
    G: Gen,
    P: Fn(&G::Value) -> Result<(), String>,
{
    let mut steps = 0;
    'outer: while steps < max_steps {
        for candidate in gen.shrink(&value) {
            if let Err(e) = run_case(prop, &candidate) {
                value = candidate;
                error = e;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (value, error, steps)
}

/// Run `prop` over `cfg.cases` values drawn from `gen`. Panics with the
/// failing case seed and the shrunk counterexample on the first failure.
///
/// Set `LASAGNE_PROP_SEED=<decimal or 0xhex>` to replay a single reported
/// case instead of the full run.
pub fn check<G, P>(name: &str, cfg: &Config, gen: &G, prop: P)
where
    G: Gen,
    P: Fn(&G::Value) -> Result<(), String>,
{
    let replay = std::env::var("LASAGNE_PROP_SEED").ok().and_then(|s| {
        let s = s.trim();
        match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse::<u64>().ok(),
        }
    });

    // Fold the property name into the base seed so distinct properties
    // explore distinct streams even with the same config.
    let base = cfg.seed ^ fnv1a(name.as_bytes());

    let case_seeds: Vec<(u32, u64)> = match replay {
        Some(seed) => vec![(0, seed)],
        None => (0..cfg.cases)
            .map(|case| (case, mix64(base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case as u64 + 1)))))
            .collect(),
    };

    for (case, case_seed) in case_seeds {
        let mut rng = Rng::seed_from_u64(case_seed);
        let value = gen.generate(&mut rng);
        if let Err(error) = run_case(&prop, &value) {
            let (shrunk, final_error, steps) =
                shrink_failure(gen, &prop, value, error, cfg.max_shrink_steps);
            panic!(
                "property '{name}' failed at case {case}/{total}\n  \
                 replay: LASAGNE_PROP_SEED={case_seed} cargo test {name}\n  \
                 counterexample (after {steps} shrink steps): {shrunk:?}\n  \
                 error: {final_error}",
                total = cfg.cases,
            );
        }
    }
}

/// FNV-1a over bytes; stable across runs (unlike `DefaultHasher`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Declare a `#[test]` property. Syntax:
///
/// ```text
/// prop_check! {
///     cases = 256,                       // optional, defaults to 256
///     fn name(x in gen_expr, y in gen_expr) { ...body using prop_assert!... }
/// }
/// ```
///
/// Each `gen_expr` is any [`Gen`] (scalar ranges like `0u64..100` and
/// `1usize..8` implement it directly; see [`crate::gens`] for vectors,
/// dense matrices and graphs). The body runs once per case with the bound
/// variables and must flow off the end on success; use
/// [`prop_assert!`](crate::prop_assert) /
/// [`prop_assert_eq!`](crate::prop_assert_eq) to fail.
#[macro_export]
macro_rules! prop_check {
    (cases = $cases:expr, fn $name:ident($($var:ident in $gen:expr),+ $(,)?) $body:block) => {
        #[test]
        fn $name() {
            let cfg = $crate::prop::Config::cases($cases);
            let gen = ($($gen,)+);
            $crate::prop::check(stringify!($name), &cfg, &gen, |value| {
                let ($($var,)+) = value.clone();
                $body
                Ok(())
            });
        }
    };
    (fn $name:ident($($var:ident in $gen:expr),+ $(,)?) $body:block) => {
        $crate::prop_check! { cases = 256, fn $name($($var in $gen),+) $body }
    };
}

/// Fail the enclosing [`prop_check!`](crate::prop_check) body when `cond` is false. An
/// optional trailing `format!`-style message is appended to the report.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} — {}",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Fail the enclosing [`prop_check!`](crate::prop_check) body when the operands differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            return Err(format!(
                "assertion failed: {} == {}\n  left:  {:?}\n  right: {:?}",
                stringify!($a),
                stringify!($b),
                left,
                right
            ));
        }
    }};
}

// ---- Gen implementations for scalar ranges and tuples ----

/// Shrink an integer toward `lo`: the lower bound itself, the midpoint, and
/// the predecessor — enough to binary-search a minimal failing size.
fn shrink_int(lo: u64, v: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if v > lo {
        out.push(lo);
        let mid = lo + (v - lo) / 2;
        if mid != lo && mid != v {
            out.push(mid);
        }
        out.push(v - 1);
    }
    out.dedup();
    out
}

impl Gen for std::ops::Range<u64> {
    type Value = u64;
    fn generate(&self, rng: &mut Rng) -> u64 {
        rng.range_u64(self.start, self.end)
    }
    fn shrink(&self, v: &u64) -> Vec<u64> {
        shrink_int(self.start, *v)
    }
}

impl Gen for std::ops::Range<u32> {
    type Value = u32;
    fn generate(&self, rng: &mut Rng) -> u32 {
        rng.range_u64(self.start as u64, self.end as u64) as u32
    }
    fn shrink(&self, v: &u32) -> Vec<u32> {
        shrink_int(self.start as u64, *v as u64).into_iter().map(|x| x as u32).collect()
    }
}

impl Gen for std::ops::Range<usize> {
    type Value = usize;
    fn generate(&self, rng: &mut Rng) -> usize {
        rng.range_usize(self.start, self.end)
    }
    fn shrink(&self, v: &usize) -> Vec<usize> {
        shrink_int(self.start as u64, *v as u64).into_iter().map(|x| x as usize).collect()
    }
}

impl Gen for std::ops::Range<i64> {
    type Value = i64;
    fn generate(&self, rng: &mut Rng) -> i64 {
        rng.range_i64(self.start, self.end)
    }
    fn shrink(&self, v: &i64) -> Vec<i64> {
        // Shrink toward 0 when the range spans it, else toward the start.
        let anchor = if self.start <= 0 && 0 < self.end { 0 } else { self.start };
        let mut out = Vec::new();
        if *v != anchor {
            out.push(anchor);
            let mid = anchor + (*v - anchor) / 2;
            if mid != anchor && mid != *v {
                out.push(mid);
            }
        }
        out
    }
}

impl Gen for std::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut Rng) -> f32 {
        rng.range_f32(self.start, self.end)
    }
}

impl Gen for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut Rng) -> f64 {
        rng.range_f64(self.start, self.end)
    }
}

/// A constant generator (proptest's `Just`).
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone + std::fmt::Debug> Gen for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut Rng) -> T {
        self.0.clone()
    }
}

macro_rules! tuple_gen {
    ($($G:ident/$v:ident/$i:tt),+) => {
        impl<$($G: Gen),+> Gen for ($($G,)+) {
            type Value = ($($G::Value,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$i.shrink(&v.$i) {
                        let mut next = v.clone();
                        next.$i = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    };
}

tuple_gen!(A/a/0);
tuple_gen!(A/a/0, B/b/1);
tuple_gen!(A/a/0, B/b/1, C/c/2);
tuple_gen!(A/a/0, B/b/1, C/c/2, D/d/3);
tuple_gen!(A/a/0, B/b/1, C/c/2, D/d/3, E/e/4);
tuple_gen!(A/a/0, B/b/1, C/c/2, D/d/3, E/e/4, F/f/5);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let ran = std::cell::Cell::new(0u32);
        check("always_ok", &Config::cases(64), &(0u64..100), |_| {
            ran.set(ran.get() + 1);
            Ok(())
        });
        assert_eq!(ran.get(), 64);
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let err = std::panic::catch_unwind(|| {
            check("gt_ten_fails", &Config::cases(256), &(0u64..1000), |&v| {
                if v >= 10 {
                    Err(format!("{v} >= 10"))
                } else {
                    Ok(())
                }
            });
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("LASAGNE_PROP_SEED="), "{msg}");
        // Integer shrinking must land exactly on the boundary.
        assert!(msg.contains("counterexample"), "{msg}");
        assert!(msg.contains(": 10"), "shrunk to minimum: {msg}");
    }

    #[test]
    fn panics_inside_properties_are_reported_not_lost() {
        let err = std::panic::catch_unwind(|| {
            check("panics", &Config::cases(8), &(0u64..4), |&v| {
                if v == 0 {
                    Ok(())
                } else {
                    panic!("boom at {v}");
                }
            });
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("panicked: boom"), "{msg}");
    }

    #[test]
    fn tuple_shrinking_shrinks_each_component() {
        let gen = (0u64..100, 0usize..50);
        let shrunk = gen.shrink(&(40, 20));
        assert!(shrunk.iter().any(|&(a, b)| a < 40 && b == 20));
        assert!(shrunk.iter().any(|&(a, b)| a == 40 && b < 20));
    }

    #[test]
    fn fixed_seed_is_deterministic() {
        let collect = |_: ()| {
            check("det", &Config::cases(16), &(0u64..1_000_000), |&v| {
                // Property bodies observe values through side channels in
                // this meta-test only.
                VALS.with(|c| c.borrow_mut().push(v));
                Ok(())
            });
            VALS.with(|c| std::mem::take(&mut *c.borrow_mut()))
        };
        thread_local! {
            static VALS: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        let a = collect(());
        let b = collect(());
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
    }

    prop_check! {
        cases = 64,
        fn macro_surface_works(a in 0u64..100, b in 1usize..8) {
            prop_assert!(a < 100);
            prop_assert_eq!(b.min(8), b);
        }
    }
}
