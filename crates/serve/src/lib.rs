//! `lasagne-serve`: the inference subsystem (DESIGN.md §10).
//!
//! Training builds a fresh autograd tape per forward pass; serving should
//! not. This crate closes the gap in three layers:
//!
//! 1. **Frozen model format** ([`FrozenModel`]) — a self-contained on-disk
//!    artifact: metadata, named weights, deduplicated sparse operators, and
//!    the model's eval-mode forward exported as a static op program
//!    ([`lasagne_autograd::Program`]). Serialized with the workspace JSON
//!    codec inside the same FNV-1a checksum envelope as training
//!    checkpoints; exports are byte-deterministic.
//! 2. **Tape-free engine** ([`Engine`]) — interprets the program with the
//!    exact kernels the tape would have called, so frozen logits are
//!    bitwise-identical to the training path's eval forward at any thread
//!    count. The full-graph result is computed once at load (the
//!    *propagation cache*); per-node queries are row lookups.
//! 3. **Batched TCP server** ([`Server`]) — newline-delimited JSON over
//!    `std::net`, a micro-batcher that coalesces concurrent requests,
//!    panic isolation per request, and latency/batch counters surfaced via
//!    `stats` and `lasagne-obs`.
//! 4. **Streaming mutations** ([`Mutation`], DESIGN.md §11) — `add_edge` /
//!    `remove_edge` / `add_node` against the live engine. Edge toggles edit
//!    a plain CSR adjacency and re-derive only the dirty k-hop rows of the
//!    propagation cache; the result is bitwise what a cold reload of the
//!    mutated graph would compute, a property the test harness proves.
//! 5. **Overload contract** (DESIGN.md §12) — bounded admission with typed
//!    `overloaded` sheds + retry hints, per-request deadlines, request-line
//!    byte caps, connection caps, idle reaping, `ok|degraded|draining`
//!    health states on a lock-light fast path, and atomic hot model swap
//!    ([`Server::swap`] / the `swap_model` verb) with a monotonic
//!    `model_version` echoed in every response.
//!
//! ```no_run
//! use lasagne_serve::{freeze, Engine, FrozenModel, Server, ServerConfig};
//! # fn demo(model: &dyn lasagne_gnn::NodeClassifier, ctx: &lasagne_gnn::GraphContext)
//! # -> lasagne_serve::ServeResult<()> {
//! let frozen = freeze(model, ctx, "cora")?;
//! frozen.save(std::path::Path::new("model.frozen.json"))?;
//!
//! let engine = Engine::new(FrozenModel::load(std::path::Path::new("model.frozen.json"))?)?;
//! let server = Server::start(engine, ServerConfig::default())?;
//! println!("serving on {}", server.local_addr());
//! # Ok(()) }
//! ```

mod client;
mod delta;
mod engine;
mod error;
mod export;
mod frozen;
mod lazy;
mod protocol;
mod quant;
mod server;
mod streaming;

pub use client::Client;
pub use engine::{evaluate_program, Engine, Prediction};
pub use lazy::LazyEngine;
pub use error::{ServeError, ServeResult};
pub use export::{freeze, freeze_rec};
pub use frozen::{FrozenGraph, FrozenMeta, FrozenModel, FrozenRec, FrozenWeight, SparseKind};
pub use protocol::{
    debug_sleep_response, error_response, error_response_versioned, health_response,
    mutation_response, predict_response, recommend_response, shutdown_response, stats_response,
    swap_response, top_k_response, Request, StatsSnapshot,
};
pub use quant::{QuantMatrix, QuantMode};
pub use server::{Server, ServerConfig, ServerEngine};
pub use streaming::{Mutation, MutationReport};
