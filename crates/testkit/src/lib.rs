//! Zero-dependency test infrastructure for the Lasagne workspace.
//!
//! The tier-1 verify (`cargo build --release --offline && cargo test -q
//! --offline`) must pass with the network unplugged and no vendored
//! registry, so everything the workspace previously pulled from crates.io
//! lives here instead, implemented on `std` alone:
//!
//! * [`rng`] — a deterministic, seedable PRNG (splitmix64 seeding into
//!   xoshiro256\*\*) with uniform / normal / Bernoulli sampling. This is
//!   the single source of randomness for the whole stack;
//!   `lasagne_tensor::TensorRng` is a thin wrapper over [`rng::Rng`].
//! * [`prop`] — a property-based testing harness in the spirit of
//!   `proptest`: run a property over N generated cases, report the failing
//!   case seed on failure, and shrink integers / sizes / vectors to a
//!   minimal counterexample. See [`prop_check!`].
//! * [`gens`] — generators for the workspace's common test inputs: scalar
//!   ranges, vectors, dense row-major matrices, COO edge lists and random
//!   (symmetric) graph adjacencies ready to feed `Csr::from_coo`.
//! * [`json`] — a small JSON value type with a serializer and a
//!   recursive-descent parser, replacing `serde`/`serde_json` for
//!   checkpoints, dataset specs and result tables.
//! * [`bench`](mod@bench) — a wall-clock micro-bench timer (median of N samples with
//!   warmup) replacing `criterion`; the `lasagne-bench` bench targets are
//!   plain `harness = false` binaries built on it.
//! * [`fault`] — deterministic fault injection for robustness tests: a
//!   [`FaultPlan`] schedules NaN gradients and simulated crashes, and the
//!   file helpers corrupt/truncate saved checkpoints reproducibly.
//! * [`chaos`] — hostile-client helpers for the serve layer's overload
//!   suite: slowloris trickle, mid-request disconnect, silent campers, and
//!   PRNG-driven garbage / near-miss protocol line generators.
//!
//! The crate intentionally has **no** dependencies, not even on other
//! workspace crates, so every crate (including `lasagne-tensor` at the
//! bottom of the stack) can depend on it.

pub mod bench;
pub mod chaos;
pub mod fault;
pub mod gens;
pub mod json;
pub mod prop;
pub mod rng;

pub use bench::{bench, bench_with, BenchResult};
pub use chaos::{
    drop_mid_request, garbage_line, mutate_line, silent_camper, slow_sender, SlowSendOutcome,
};
pub use fault::{flip_byte, truncate_file, Fault, FaultPlan};
pub use gens::{coo_graph, dense, sym_adj, vec_of, CooGraph, Dense, OneOf, VecGen};
pub use json::{Json, JsonError};
pub use prop::{check, Config, Gen, Just};
pub use rng::{mix64, Rng, SplitMix64};
