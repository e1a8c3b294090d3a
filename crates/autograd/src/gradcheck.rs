//! Central-difference gradient checking.
//!
//! Every op in this crate is validated against numerical derivatives (see
//! `tests/gradcheck.rs`). The checker rebuilds the forward pass via a
//! deterministic closure — any stochastic structure (dropout masks,
//! Bernoulli gates) must be fixed by the closure for the check to be
//! meaningful.

use crate::{ParamId, ParamStore, Tape};

/// Outcome of a gradient check.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest absolute error between analytic and numeric gradient.
    pub max_abs_err: f32,
    /// Largest relative error (|a−n| / max(1, |a|, |n|)).
    pub max_rel_err: f32,
    /// Number of coordinates checked.
    pub checked: usize,
}

impl GradCheckReport {
    /// True when both error measures are within `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_err <= tol || self.max_rel_err <= tol
    }
}

/// Compare analytic gradients against central differences.
///
/// `forward` must build the loss (a `1×1` node) from scratch given the tape
/// and the current store, deterministically. All parameters in `store` are
/// perturbed coordinate by coordinate (cap the cost by keeping test tensors
/// small).
pub fn grad_check(
    store: &mut ParamStore,
    eps: f32,
    mut forward: impl FnMut(&mut Tape, &ParamStore) -> crate::NodeId,
) -> GradCheckReport {
    grad_check_owner(store, |s| s, |_| false, eps, |s, tape| forward(tape, s))
}

/// [`grad_check`] generalized to an *owner* of a `ParamStore` — a model
/// whose `forward` needs `&self` while the checker perturbs parameters
/// through `&mut self`. Plain [`grad_check`] cannot express that: the store
/// borrow and the model borrow collide.
///
/// `store_of` projects the owner onto its store; `skip` drops whole
/// parameters by name from the sweep — for parameters whose analytic
/// gradient *intentionally* differs from the numeric one (e.g. a
/// stop-gradient path like the stochastic aggregator's row-max
/// stabilizer). `forward` must be deterministic given the owner's current
/// parameter values (reseed any RNG it consumes per call).
pub fn grad_check_owner<M: ?Sized>(
    owner: &mut M,
    store_of: impl Fn(&mut M) -> &mut ParamStore,
    skip: impl Fn(&str) -> bool,
    eps: f32,
    mut forward: impl FnMut(&M, &mut Tape) -> crate::NodeId,
) -> GradCheckReport {
    // Analytic pass.
    store_of(owner).zero_grads();
    let mut tape = Tape::new();
    let loss = forward(owner, &mut tape);
    tape.backward(loss, store_of(owner));
    let (n_params, analytic, skipped) = {
        let store = store_of(owner);
        let n = store.len();
        let analytic: Vec<Vec<f32>> = (0..n)
            .map(|i| store.grad(ParamId(i)).as_slice().to_vec())
            .collect();
        let skipped: Vec<bool> = (0..n).map(|i| skip(store.name(ParamId(i)))).collect();
        (n, analytic, skipped)
    };

    let mut report = GradCheckReport {
        max_abs_err: 0.0,
        max_rel_err: 0.0,
        checked: 0,
    };

    for p in 0..n_params {
        if skipped[p] {
            continue;
        }
        let id = ParamId(p);
        for (k, &a) in analytic[p].iter().enumerate() {
            let orig = store_of(owner).value(id).as_slice()[k];

            store_of(owner).value_mut(id).as_mut_slice()[k] = orig + eps;
            let mut t1 = Tape::new();
            let l1 = forward(owner, &mut t1);
            let f_plus = t1.value(l1).get(0, 0);

            store_of(owner).value_mut(id).as_mut_slice()[k] = orig - eps;
            let mut t2 = Tape::new();
            let l2 = forward(owner, &mut t2);
            let f_minus = t2.value(l2).get(0, 0);

            store_of(owner).value_mut(id).as_mut_slice()[k] = orig;

            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let abs = (a - numeric).abs();
            let rel = abs / a.abs().max(numeric.abs()).max(1.0);
            report.max_abs_err = report.max_abs_err.max(abs);
            report.max_rel_err = report.max_rel_err.max(rel);
            report.checked += 1;
        }
    }
    report
}
