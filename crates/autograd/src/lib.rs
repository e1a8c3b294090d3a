//! Tape-based reverse-mode automatic differentiation.
//!
//! Every model in this reproduction — the Lasagne architecture and all the
//! baselines it is compared against — is trained by building a fresh
//! computation [`Tape`] per forward pass (define-by-run, so stochastic
//! structure like dropout masks, DropEdge graphs and Lasagne's Bernoulli
//! layer gates is naturally supported), calling [`Tape::backward`], and
//! applying an optimizer to the [`ParamStore`].
//!
//! The op set is exactly what the paper's math needs: dense/sparse matrix
//! products (Eq 1–2), broadcasts for the node-aware coefficients `C(l)`
//! (Eq 5), element-wise max over stacked layers (§4.1.2), straight-through
//! Bernoulli gates (Eq 6), the log-softmax + masked cross-entropy objective
//! (Eq 3), and a CSR attention aggregation for the GAT baseline.
//!
//! # Example
//! ```
//! use lasagne_autograd::{ParamStore, Tape, Adam, Optimizer};
//! use lasagne_tensor::{Tensor, TensorRng};
//!
//! let mut rng = TensorRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let w = store.add("w", rng.glorot_uniform(3, 2));
//! let x = rng.uniform_tensor(8, 3, -1.0, 1.0); // full-rank design matrix
//!
//! let initial_norm = store.value(w).frobenius_norm();
//! let mut opt = Adam::new(&store, 0.05, 0.0);
//! for _ in 0..50 {
//!     let mut tape = Tape::new();
//!     let xn = tape.constant(x.clone());
//!     let wn = tape.param(w, &store);
//!     let y = tape.matmul(xn, wn);
//!     let sq = tape.mul(y, y);
//!     let loss = tape.mean_all(sq);
//!     store.zero_grads();
//!     tape.backward(loss, &mut store);
//!     opt.step(&mut store);
//! }
//! // Minimizing ‖X·W‖² drives W toward zero.
//! assert!(store.value(w).frobenius_norm() < 0.5 * initial_norm);
//! ```

mod backward;
mod eval;
mod export;
mod gradcheck;
mod ops_basic;
mod ops_graph;
mod ops_nn;
mod optim;
mod params;
mod peval;
mod schedule;
mod tape;

pub use eval::{
    dirty_rows, eval_all, eval_dirty, leaf_value, op_rows, program_shapes, row_deps, Operand,
    Operands, Resident, RowDep,
};
pub use export::{ExportError, Program, ProgramOp};
pub use peval::{evaluate_program_partitioned, PevalError, RowCache, RowPlan};
pub use gradcheck::{grad_check, grad_check_owner, GradCheckReport};
pub use ops_graph::{gat_attention, GatForward};
pub use optim::{Adam, AdamState, Optimizer, Sgd};
pub use schedule::clip_grad_norm;
pub use params::{ModelError, ParamId, ParamStore};
pub use tape::{NodeId, Tape};
