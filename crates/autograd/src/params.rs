//! Trainable parameter storage, shared across tapes.
//!
//! A [`ParamStore`] owns parameter values and their gradient accumulators;
//! tapes copy values in at [`crate::Tape::param`] time and scatter gradients
//! back during [`crate::Tape::backward`]. Optimizers mutate the store.

use std::fmt;

use lasagne_tensor::Tensor;

/// Typed failure when interrogating a model's parameter set by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// No parameter registered under this name — usually a model/checkpoint
    /// mismatch (different architecture, depth, or naming scheme).
    MissingParam(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::MissingParam(name) => {
                write!(f, "no parameter named '{name}' in this model's store")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Handle to one parameter tensor inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index (stable for the life of the store).
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuild a handle from a raw index (checkpoint loading; the caller is
    /// responsible for pairing it with the right store).
    pub fn from_index(index: usize) -> ParamId {
        ParamId(index)
    }
}

/// Owns all trainable tensors of a model plus one gradient buffer each.
#[derive(Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
    /// Per-parameter L2 multiplier (1.0 = regularize, 0.0 = exempt); the
    /// paper applies weight decay to weight matrices but models may exempt
    /// e.g. per-node aggregation coefficients.
    decay_mask: Vec<f32>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a trainable tensor (L2-regularized by default).
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.add_with_decay(name, value, true)
    }

    /// Register a tensor, choosing whether weight decay applies to it.
    pub fn add_with_decay(
        &mut self,
        name: impl Into<String>,
        value: Tensor,
        decay: bool,
    ) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Tensor::zeros(value.rows(), value.cols()));
        self.values.push(value);
        self.names.push(name.into());
        self.decay_mask.push(if decay { 1.0 } else { 0.0 });
        id
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable value (used by optimizers and manual surgery in tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Mutable gradient buffer (in-place clipping, fault injection in
    /// robustness tests).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.grads[id.0]
    }

    /// Accumulate `delta` into the gradient buffer of `id`.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        self.grads[id.0].add_assign(delta);
    }

    /// Name the parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Whether weight decay applies to this parameter (1.0 or 0.0).
    pub fn decay_factor(&self, id: ParamId) -> f32 {
        self.decay_mask[id.0]
    }

    /// Number of registered tensors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar parameter count (the paper's efficiency discussion is in
    /// these terms).
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Reset every gradient buffer to zero (call once per step).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill(0.0);
        }
    }

    /// Copy all parameter values (early-stopping checkpoints).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.values.clone()
    }

    /// Restore values from a [`ParamStore::snapshot`].
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        assert_eq!(snapshot.len(), self.values.len(), "restore: param count changed");
        for (v, s) in self.values.iter_mut().zip(snapshot) {
            assert_eq!(v.shape(), s.shape(), "restore: shape changed");
            v.clone_from(s);
        }
    }

    /// True if any accumulated gradient contains NaN/±Inf. Early-exits on
    /// the first poisoned tensor — the divergence guardrail calls this every
    /// optimization step, so the all-finite fast path matters.
    pub fn grads_non_finite(&self) -> bool {
        self.grads.iter().any(Tensor::has_non_finite)
    }

    /// True if any parameter value contains NaN/±Inf (a blown-up update).
    pub fn values_non_finite(&self) -> bool {
        self.values.iter().any(Tensor::has_non_finite)
    }

    /// Global L2 norm of all gradients taken together (the quantity
    /// [`crate::clip_grad_norm`] bounds).
    pub fn grad_global_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| g.as_slice().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Look up a parameter by its registered name.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.names.iter().position(|n| n == name).map(ParamId)
    }

    /// Like [`ParamStore::find`], but a missing name is a typed error that
    /// carries the name — callers binding checkpoints or frozen models get a
    /// diagnosable failure instead of a bare `unwrap` panic.
    pub fn require(&self, name: &str) -> Result<ParamId, ModelError> {
        self.find(name)
            .ok_or_else(|| ModelError::MissingParam(name.to_string()))
    }

    /// Iterate over `(id, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.values.iter().enumerate().map(|(i, t)| (ParamId(i), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = ParamStore::new();
        let a = s.add("w1", Tensor::ones(2, 3));
        let b = s.add_with_decay("c", Tensor::zeros(4, 1), false);
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 10);
        assert_eq!(s.name(a), "w1");
        assert_eq!(s.decay_factor(a), 1.0);
        assert_eq!(s.decay_factor(b), 0.0);
        assert_eq!(s.value(b).shape(), (4, 1));
    }

    #[test]
    fn require_is_find_with_a_typed_error() {
        let mut s = ParamStore::new();
        let a = s.add("w1", Tensor::ones(2, 3));
        assert_eq!(s.require("w1"), Ok(a));
        let err = s.require("nope").unwrap_err();
        assert_eq!(err, ModelError::MissingParam("nope".into()));
        assert!(err.to_string().contains("'nope'"), "{err}");
    }

    #[test]
    fn grads_accumulate_and_reset() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::ones(2, 2));
        s.accumulate_grad(a, &Tensor::full(2, 2, 0.5));
        s.accumulate_grad(a, &Tensor::full(2, 2, 0.25));
        assert_eq!(s.grad(a), &Tensor::full(2, 2, 0.75));
        s.zero_grads();
        assert_eq!(s.grad(a), &Tensor::zeros(2, 2));
    }

    #[test]
    fn non_finite_detection_covers_grads_and_values() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::ones(2, 2));
        assert!(!s.grads_non_finite());
        assert!(!s.values_non_finite());
        s.grad_mut(a).set(1, 1, f32::NAN);
        assert!(s.grads_non_finite());
        s.zero_grads();
        assert!(!s.grads_non_finite());
        s.value_mut(a).set(0, 0, f32::INFINITY);
        assert!(s.values_non_finite());
    }

    #[test]
    fn grad_global_norm_spans_params() {
        let mut s = ParamStore::new();
        let a = s.add("a", Tensor::zeros(1, 1));
        let b = s.add("b", Tensor::zeros(1, 1));
        s.accumulate_grad(a, &Tensor::full(1, 1, 3.0));
        s.accumulate_grad(b, &Tensor::full(1, 1, 4.0));
        assert!((s.grad_global_norm() - 5.0).abs() < 1e-6);
    }
}
