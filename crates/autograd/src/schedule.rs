//! Training utilities on top of the optimizers: global-norm gradient
//! clipping.

use crate::{ParamId, ParamStore};

/// Clip the *global* gradient norm across every parameter to `max_norm`
/// (the `torch.nn.utils.clip_grad_norm_` semantics). Returns the norm
/// before clipping. No-op (returning the norm) when already within bounds.
pub fn clip_grad_norm(store: &mut ParamStore, max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "clip_grad_norm: max_norm must be positive");
    let norm = store.grad_global_norm();
    if norm > max_norm {
        let scale = max_norm / norm;
        for i in 0..store.len() {
            store.grad_mut(ParamId::from_index(i)).scale_assign(scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_tensor::Tensor;

    #[test]
    fn clipping_rescales_to_max_norm() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::zeros(1, 2));
        store.accumulate_grad(a, &Tensor::from_rows(&[&[3.0, 4.0]])); // norm 5
        let before = clip_grad_norm(&mut store, 1.0);
        assert!((before - 5.0).abs() < 1e-5);
        let g = store.grad(a);
        let after = (g.get(0, 0).powi(2) + g.get(0, 1).powi(2)).sqrt();
        assert!((after - 1.0).abs() < 1e-5, "clipped norm {after}");
        // Direction preserved.
        assert!((g.get(0, 1) / g.get(0, 0) - 4.0 / 3.0).abs() < 1e-4);
    }

    #[test]
    fn clipping_is_noop_within_bounds() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::zeros(1, 2));
        store.accumulate_grad(a, &Tensor::from_rows(&[&[0.3, 0.4]]));
        let norm = clip_grad_norm(&mut store, 1.0);
        assert!((norm - 0.5).abs() < 1e-6);
        assert_eq!(store.grad(a), &Tensor::from_rows(&[&[0.3, 0.4]]));
    }

    #[test]
    fn clipping_spans_multiple_params() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::zeros(1, 1));
        let b = store.add("b", Tensor::zeros(1, 1));
        store.accumulate_grad(a, &Tensor::full(1, 1, 3.0));
        store.accumulate_grad(b, &Tensor::full(1, 1, 4.0));
        clip_grad_norm(&mut store, 2.5); // half of the global norm 5
        assert!((store.grad(a).get(0, 0) - 1.5).abs() < 1e-5);
        assert!((store.grad(b).get(0, 0) - 2.0).abs() < 1e-5);
    }
}
