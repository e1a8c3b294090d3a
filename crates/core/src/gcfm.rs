//! The GC-FM layer (§4.2, Eq 7): a factorization machine over the
//! *cross-layer* pairs of embedding coordinates, followed by one graph
//! convolution.
//!
//! Eq (7) as written costs `O(F·L²·D²·k)` per node. Because the FM latent
//! product only couples coordinates from *different* layers, the classic FM
//! identity applies per class `j` with per-layer summaries
//! `s_p = V_{jp}ᵀ h^{(p)} ∈ R^k`:
//!
//! ```text
//! Σ_{p<q} ⟨s_p, s_q⟩ = ½ ( ‖Σ_p s_p‖² − Σ_p ‖s_p‖² )
//! ```
//!
//! bringing the cost to `O(F·L·D·k)`. All classes share each layer's left
//! operand, so the latent factors of layer `p` are stored column-stacked,
//! `V_p = [V_1p | … | V_Fp]` (`D(p) × F·k`), and one GEMM `S_p = h_p·V_p`
//! yields every class's `s_p` at once; a grouped row sum over the `k`-wide
//! column blocks finishes the norms. [`gcfm_reference`] keeps the
//! brute-force quadruple sum for equivalence tests.

use std::rc::Rc;

use lasagne_autograd::{NodeId, ParamId, ParamStore, Tape};
use lasagne_sparse::Csr;
use lasagne_tensor::{Tensor, TensorRng};

/// The GC-FM output layer.
pub struct GcFm {
    /// Linear part: concat-dim × F.
    w: ParamId,
    /// Bias 1×F.
    b: ParamId,
    /// `v[p]`: `D(p) × classes·k` latent factors of layer `p`, class `j`
    /// in columns `j·k..(j+1)·k`.
    v: Vec<ParamId>,
    k: usize,
    classes: usize,
}

impl GcFm {
    /// Build for hidden layer widths `dims` (one entry per aggregated
    /// layer), `classes` outputs and latent dimension `k`.
    pub fn new(
        store: &mut ParamStore,
        dims: &[usize],
        classes: usize,
        k: usize,
        rng: &mut TensorRng,
    ) -> GcFm {
        assert!(!dims.is_empty(), "GcFm: need at least one input layer");
        assert!(k >= 1, "GcFm: latent dim must be ≥ 1");
        let total: usize = dims.iter().sum();
        let w = store.add("gcfm.w", rng.glorot_uniform(total, classes));
        let b = store.add_with_decay("gcfm.b", Tensor::zeros(1, classes), false);
        // Small init keeps the quadratic term from swamping the linear one
        // at the start (standard FM practice). Drawn class by class, layer
        // by layer, then stacked per layer.
        let draws: Vec<Vec<Tensor>> = (0..classes)
            .map(|_| dims.iter().map(|&d| rng.normal_tensor(d, k, 0.0, 0.02)).collect())
            .collect();
        let v = (0..dims.len())
            .map(|p| {
                let blocks: Vec<&Tensor> = draws.iter().map(|class| &class[p]).collect();
                store.add(format!("gcfm.v{p}"), Tensor::concat_cols(&blocks))
            })
            .collect();
        GcFm { w, b, v, k, classes }
    }

    /// Forward: `hs` are the aggregated hidden representations
    /// `H(1)…H(L-1)`; returns `ReLU(Â O)` (or `Â O` when `final_relu` is
    /// off) with `O` from Eq (7).
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        a_hat: &Rc<Csr>,
        hs: &[NodeId],
        final_relu: bool,
    ) -> NodeId {
        assert_eq!(hs.len(), self.v.len(), "GcFm: layer count mismatch");
        // Linear part: concat(h) W + b.
        let cat = tape.concat_cols(hs);
        let w = tape.param(self.w, store);
        let lin = tape.matmul(cat, w);
        let b = tape.param(self.b, store);
        let linear = tape.add_row_broadcast(lin, b);

        // FM part, all classes at once: S_p = h_p · V_p (N × classes·k),
        // T = Σ_p S_p, Q = Σ_p groupsum(S_p ⊙ S_p), fm = ½(groupsum(T ⊙ T) − Q).
        let mut t_sum: Option<NodeId> = None;
        let mut sq_sum: Option<NodeId> = None;
        for (&h, &vp) in hs.iter().zip(&self.v) {
            let v = tape.param(vp, store);
            let s = tape.matmul(h, v);
            t_sum = Some(match t_sum {
                Some(t) => tape.add(t, s),
                None => s,
            });
            let s2 = tape.mul(s, s);
            let s2r = tape.sum_col_groups(s2, self.classes);
            sq_sum = Some(match sq_sum {
                Some(q) => tape.add(q, s2r),
                None => s2r,
            });
        }
        let t = t_sum.expect("at least one layer");
        let t2 = tape.mul(t, t);
        let t2r = tape.sum_col_groups(t2, self.classes);
        let diff = tape.sub(t2r, sq_sum.expect("at least one layer"));
        let fm = tape.scale(diff, 0.5);
        let o = tape.add(linear, fm);
        let prop = tape.spmm(Rc::clone(a_hat), o);
        if final_relu {
            tape.relu(prop)
        } else {
            prop
        }
    }

    /// Read class `class`'s `D(layer) × k` latent block back (for the
    /// reference-path test).
    pub fn latent(&self, store: &ParamStore, class: usize, layer: usize) -> Tensor {
        store.value(self.v[layer]).slice_cols(class * self.k, (class + 1) * self.k)
    }

    /// Read the linear weight back.
    pub fn linear_weight(&self, store: &ParamStore) -> Tensor {
        store.value(self.w).clone()
    }
}

/// Brute-force Eq (7), literally: for every node `i` and class `j`,
///
/// ```text
/// O_ij = ⟨W[:,j], h_i⟩ + Σ_{p<q} Σ_{m,n} ⟨V_jpm, V_jqn⟩ h_ipm h_iqn
/// ```
///
/// (plus the bias used by the fast path). Exponential in nothing but
/// painfully slow — test use only.
pub fn gcfm_reference(
    hs: &[&Tensor],
    w: &Tensor,
    bias: &Tensor,
    latent: &dyn Fn(usize, usize) -> Tensor,
    classes: usize,
) -> Tensor {
    let n = hs[0].rows();
    let layers = hs.len();
    let mut o = Tensor::zeros(n, classes);
    // Linear term on the concatenation.
    let cat = Tensor::concat_cols(hs);
    let lin = cat.matmul(w);
    for i in 0..n {
        for j in 0..classes {
            let mut acc = lin.get(i, j) + bias.get(0, j);
            for p in 0..layers {
                let vp = latent(j, p);
                for q in (p + 1)..layers {
                    let vq = latent(j, q);
                    for m in 0..hs[p].cols() {
                        for nn in 0..hs[q].cols() {
                            let dot: f32 = (0..vp.cols())
                                .map(|kk| vp.get(m, kk) * vq.get(nn, kk))
                                .sum();
                            acc += dot * hs[p].get(i, m) * hs[q].get(i, nn);
                        }
                    }
                }
            }
            o.set(i, j, acc);
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_matches_brute_force_eq7() {
        let mut rng = TensorRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let dims = [3usize, 4, 2]; // deliberately unequal (flexible dims)
        let gcfm = GcFm::new(&mut store, &dims, 3, 2, &mut rng);

        let n = 5;
        let hs_t: Vec<Tensor> = dims
            .iter()
            .map(|&d| rng.uniform_tensor(n, d, -1.0, 1.0))
            .collect();

        // Fast path without the final propagation: use the identity graph
        // so Â = I isolates O itself (self-loop on isolated nodes ⇒ Â = I).
        let eye = Rc::new(Csr::identity(n));
        let mut tape = Tape::new();
        let hs_nodes: Vec<NodeId> = hs_t.iter().map(|t| tape.constant(t.clone())).collect();
        let out = gcfm.forward(&mut tape, &store, &eye, &hs_nodes, false);

        let hs_refs: Vec<&Tensor> = hs_t.iter().collect();
        let w = gcfm.linear_weight(&store);
        let bias = store.value(store.require("gcfm.b").expect("gcfm bias registered")).clone();
        let reference = gcfm_reference(
            &hs_refs,
            &w,
            &bias,
            &|j, p| gcfm.latent(&store, j, p),
            3,
        );
        assert!(
            tape.value(out).approx_eq(&reference, 1e-4),
            "FM identity violated: max diff {}",
            tape.value(out).max_abs_diff(&reference)
        );
    }

    #[test]
    fn final_relu_clips_negatives() {
        let mut rng = TensorRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let gcfm = GcFm::new(&mut store, &[4], 2, 2, &mut rng);
        let eye = Rc::new(Csr::identity(6));
        let mut tape = Tape::new();
        let h = tape.constant(rng.uniform_tensor(6, 4, -2.0, 2.0));
        let with = gcfm.forward(&mut tape, &store, &eye, &[h], true);
        assert!(tape.value(with).min() >= 0.0);
    }

    #[test]
    fn single_layer_has_no_fm_interactions() {
        // With one input layer there are no cross-layer pairs: output must
        // equal the linear part exactly.
        let mut rng = TensorRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let gcfm = GcFm::new(&mut store, &[5], 3, 4, &mut rng);
        let eye = Rc::new(Csr::identity(4));
        let h_t = rng.uniform_tensor(4, 5, -1.0, 1.0);
        let mut tape = Tape::new();
        let h = tape.constant(h_t.clone());
        let out = gcfm.forward(&mut tape, &store, &eye, &[h], false);
        let expect = h_t.matmul(&gcfm.linear_weight(&store));
        assert!(tape.value(out).approx_eq(&expect, 1e-5));
    }

    #[test]
    fn gcfm_params_are_trainable_end_to_end() {
        // Gradient check through the fast path.
        let mut rng = TensorRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let gcfm = GcFm::new(&mut store, &[3, 2], 2, 2, &mut rng);
        let eye = Rc::new(Csr::identity(3));
        let h1 = rng.uniform_tensor(3, 3, -1.0, 1.0);
        let h2 = rng.uniform_tensor(3, 2, -1.0, 1.0);
        let report = lasagne_autograd::grad_check(&mut store, 5e-3, |tape, s| {
            let a = tape.constant(h1.clone());
            let b = tape.constant(h2.clone());
            let o = gcfm.forward(tape, s, &eye, &[a, b], false);
            let sq = tape.mul(o, o);
            tape.mean_all(sq)
        });
        assert!(report.passes(2e-2), "GC-FM gradcheck failed: {report:?}");
    }
}
