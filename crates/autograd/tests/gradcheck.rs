//! Central-difference gradient checks for every differentiable op.
//!
//! Inputs are kept away from kinks (ReLU at 0, max-stack ties) so the
//! numerical derivative is well-defined.

use std::rc::Rc;

use lasagne_autograd::{grad_check, NodeId, ParamStore, Tape};
use lasagne_sparse::Csr;
use lasagne_tensor::{Tensor, TensorRng};

const EPS: f32 = 5e-3;
const TOL: f32 = 2e-2;

fn check(store: &mut ParamStore, forward: impl FnMut(&mut Tape, &ParamStore) -> NodeId) {
    let report = grad_check(store, EPS, forward);
    assert!(
        report.passes(TOL),
        "gradient check failed: {report:?} (tol {TOL})"
    );
    assert!(report.checked > 0);
}

/// Store with one named parameter drawn away from zero to dodge kinks.
fn store_with(shape: (usize, usize), seed: u64) -> (ParamStore, lasagne_autograd::ParamId) {
    let mut rng = TensorRng::seed_from_u64(seed);
    let mut t = rng.uniform_tensor(shape.0, shape.1, 0.25, 1.75);
    // Random signs, magnitudes stay ≥ 0.25.
    for v in t.as_mut_slice() {
        if rng.bernoulli(0.5) {
            *v = -*v;
        }
    }
    let mut s = ParamStore::new();
    let id = s.add("w", t);
    (s, id)
}

#[test]
fn matmul_grads() {
    let mut rng = TensorRng::seed_from_u64(0);
    let mut store = ParamStore::new();
    let a = store.add("a", rng.uniform_tensor(3, 4, -1.0, 1.0));
    let b = store.add("b", rng.uniform_tensor(4, 2, -1.0, 1.0));
    check(&mut store, |t, s| {
        let an = t.param(a, s);
        let bn = t.param(b, s);
        let y = t.matmul(an, bn);
        let sq = t.mul(y, y);
        t.mean_all(sq)
    });
}

#[test]
fn add_sub_mul_grads() {
    let mut rng = TensorRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let a = store.add("a", rng.uniform_tensor(2, 3, -1.0, 1.0));
    let b = store.add("b", rng.uniform_tensor(2, 3, -1.0, 1.0));
    check(&mut store, |t, s| {
        let an = t.param(a, s);
        let bn = t.param(b, s);
        let x = t.add(an, bn);
        let y = t.sub(x, bn);
        let z = t.mul(y, an);
        t.mean_all(z)
    });
}

#[test]
fn exp_and_add_col_broadcast_grads() {
    let mut rng = TensorRng::seed_from_u64(21);
    let mut store = ParamStore::new();
    let x = store.add("x", rng.uniform_tensor(3, 4, -1.0, 1.0));
    let c = store.add("c", rng.uniform_tensor(3, 1, -0.5, 0.5));
    check(&mut store, |t, s| {
        let xn = t.param(x, s);
        let cn = t.param(c, s);
        let shifted = t.add_col_broadcast(xn, cn);
        let e = t.exp(shifted);
        t.mean_all(e)
    });
}

#[test]
fn div_grads() {
    let mut rng = TensorRng::seed_from_u64(2);
    let mut store = ParamStore::new();
    let a = store.add("a", rng.uniform_tensor(2, 2, 0.5, 1.5));
    let b = store.add("b", rng.uniform_tensor(2, 2, 1.0, 2.0));
    check(&mut store, |t, s| {
        let an = t.param(a, s);
        let bn = t.param(b, s);
        let y = t.div(an, bn);
        t.mean_all(y)
    });
}

#[test]
fn scale_addconst_pow_grads() {
    let (mut store, w) = store_with((2, 3), 3);
    // Force positive values for pow.
    store.value_mut(w).map_assign(f32::abs);
    check(&mut store, |t, s| {
        let wn = t.param(w, s);
        let a = t.scale(wn, 1.7);
        let b = t.add_const(a, 0.3);
        let c = t.pow(b, 1.5, 1e-3);
        t.mean_all(c)
    });
}

#[test]
fn negative_pow_grads() {
    let (mut store, w) = store_with((2, 2), 4);
    store.value_mut(w).map_assign(|v| v.abs() + 0.5);
    check(&mut store, |t, s| {
        let wn = t.param(w, s);
        let y = t.pow(wn, -0.5, 1e-3);
        t.mean_all(y)
    });
}

#[test]
fn mul_scalar_node_grads() {
    let mut rng = TensorRng::seed_from_u64(5);
    let mut store = ParamStore::new();
    let x = store.add("x", rng.uniform_tensor(3, 2, -1.0, 1.0));
    let s = store.add("s", Tensor::full(1, 1, 0.7));
    check(&mut store, |t, st| {
        let xn = t.param(x, st);
        let sn = t.param(s, st);
        let y = t.mul_scalar_node(xn, sn);
        let sq = t.mul(y, y);
        t.mean_all(sq)
    });
}

#[test]
fn activation_grads() {
    let (mut store, w) = store_with((3, 3), 6);
    check(&mut store, |t, s| {
        let wn = t.param(w, s);
        let a = t.relu(wn);
        let b = t.sigmoid(a);
        let c = t.tanh(b);
        let d = t.leaky_relu(c, 0.2);
        t.mean_all(d)
    });
}

#[test]
fn leaky_relu_negative_branch_grads() {
    let mut store = ParamStore::new();
    let w = store.add("w", Tensor::from_rows(&[&[-1.0, -0.5], &[-2.0, -0.25]]));
    check(&mut store, |t, s| {
        let wn = t.param(w, s);
        let y = t.leaky_relu(wn, 0.2);
        t.mean_all(y)
    });
}

#[test]
fn dropout_grads_with_deterministic_mask() {
    let (mut store, w) = store_with((4, 4), 7);
    check(&mut store, |t, s| {
        // Fresh-but-identical RNG per rebuild keeps the mask fixed.
        let mut rng = TensorRng::seed_from_u64(12345);
        let wn = t.param(w, s);
        let y = t.dropout(wn, 0.6, &mut rng);
        let sq = t.mul(y, y);
        t.mean_all(sq)
    });
}

#[test]
fn broadcast_grads() {
    let mut rng = TensorRng::seed_from_u64(8);
    let mut store = ParamStore::new();
    let x = store.add("x", rng.uniform_tensor(3, 4, -1.0, 1.0));
    let b = store.add("b", rng.uniform_tensor(1, 4, -0.5, 0.5));
    let c = store.add("c", rng.uniform_tensor(3, 1, 0.5, 1.5));
    check(&mut store, |t, s| {
        let xn = t.param(x, s);
        let bn = t.param(b, s);
        let cn = t.param(c, s);
        let y = t.add_row_broadcast(xn, bn);
        let z = t.mul_col_broadcast(y, cn);
        let sq = t.mul(z, z);
        t.mean_all(sq)
    });
}

#[test]
fn log_softmax_and_nll_grads() {
    let mut rng = TensorRng::seed_from_u64(9);
    let mut store = ParamStore::new();
    let x = store.add("logits", rng.uniform_tensor(5, 3, -2.0, 2.0));
    let labels = Rc::new(vec![0usize, 2, 1, 1, 0]);
    let idx = Rc::new(vec![0usize, 2, 4]);
    check(&mut store, move |t, s| {
        let xn = t.param(x, s);
        let lp = t.log_softmax(xn);
        t.nll_masked(lp, labels.clone(), idx.clone())
    });
}

#[test]
fn concat_slice_gather_grads() {
    let mut rng = TensorRng::seed_from_u64(10);
    let mut store = ParamStore::new();
    let a = store.add("a", rng.uniform_tensor(3, 2, -1.0, 1.0));
    let b = store.add("b", rng.uniform_tensor(3, 3, -1.0, 1.0));
    let idx = Rc::new(vec![2usize, 0, 2]);
    check(&mut store, move |t, s| {
        let an = t.param(a, s);
        let bn = t.param(b, s);
        let cat = t.concat_cols(&[an, bn]);
        let sl = t.slice_cols(cat, 1, 4);
        let ga = t.gather_rows(sl, idx.clone());
        let sq = t.mul(ga, ga);
        t.mean_all(sq)
    });
}

#[test]
fn reduction_grads() {
    let (mut store, w) = store_with((3, 4), 11);
    check(&mut store, |t, s| {
        let wn = t.param(w, s);
        let rows = t.sum_rows(wn); // 1×4
        let cols = t.sum_cols(wn); // 3×1
        let a = t.mul(rows, rows);
        let b = t.mul(cols, cols);
        let sa = t.sum_all(a);
        let sb = t.sum_all(b);
        t.add(sa, sb)
    });
}

#[test]
fn max_stack_grads_away_from_ties() {
    let mut store = ParamStore::new();
    // Clearly separated values so ±eps never flips a winner.
    let a = store.add("a", Tensor::from_rows(&[&[1.0, -3.0], &[0.5, 2.0]]));
    let b = store.add("b", Tensor::from_rows(&[&[-1.0, 3.0], &[2.5, -2.0]]));
    check(&mut store, |t, s| {
        let an = t.param(a, s);
        let bn = t.param(b, s);
        let m = t.max_stack(&[an, bn]);
        let sq = t.mul(m, m);
        t.mean_all(sq)
    });
}

#[test]
fn max_stack_sends_a_tie_to_the_earliest_part() {
    // Per position: the two later parts tie at the maximum; `-0.0` first
    // against `+0.0`; a `NaN` first part; a `NaN` in a later part.
    let nan = f32::NAN;
    let parts = [[1.0, -0.0, nan, 1.0], [3.0, 0.0, 1.0, nan], [3.0, -1.0, 2.0, 2.0]];
    let winners = [1, 0, 0, 2];
    let upstream = [0.5f32, -1.5, 2.0, 3.0];
    let mut store = ParamStore::new();
    let ids: Vec<_> = parts
        .iter()
        .enumerate()
        .map(|(k, p)| store.add(format!("p{k}"), Tensor::from_rows(&[p])))
        .collect();
    let mut tape = Tape::new();
    let nodes: Vec<NodeId> = ids.iter().map(|&id| tape.param(id, &store)).collect();
    let m = tape.max_stack(&nodes);
    let w = tape.constant(Tensor::from_rows(&[&upstream]));
    let weighted = tape.mul(m, w);
    let loss = tape.sum_all(weighted);
    store.zero_grads();
    tape.backward(loss, &mut store);
    for (k, &id) in ids.iter().enumerate() {
        let got: Vec<u32> = store.grad(id).as_slice().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = (0..4)
            .map(|pos| if winners[pos] == k { upstream[pos] } else { 0.0 }.to_bits())
            .collect();
        assert_eq!(got, want, "part {k}");
    }
}

#[test]
fn pairnorm_grads() {
    let (mut store, w) = store_with((4, 3), 12);
    check(&mut store, |t, s| {
        let wn = t.param(w, s);
        let y = t.pairnorm(wn, 1.0);
        let sq = t.mul(y, y);
        // Weight the entries so the gradient isn't trivially zero under the
        // norm constraint.
        let weights = t.constant(Tensor::from_fn(4, 3, |i, j| (i + 2 * j) as f32 * 0.1));
        let prod = t.mul(sq, weights);
        t.mean_all(prod)
    });
}

#[test]
fn spmm_grads() {
    let adj = Rc::new(
        Csr::from_coo(
            3,
            3,
            &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
        )
        .gcn_normalize(),
    );
    let (mut store, w) = store_with((3, 2), 13);
    check(&mut store, move |t, s| {
        let wn = t.param(w, s);
        let y = t.spmm(adj.clone(), wn);
        let sq = t.mul(y, y);
        t.mean_all(sq)
    });
}

#[test]
fn gat_aggregate_grads() {
    // Ring of 4 with self-loops as the attention structure.
    let mut coo = Vec::new();
    for i in 0u32..4 {
        let j = (i + 1) % 4;
        coo.push((i, j, 1.0));
        coo.push((j, i, 1.0));
        coo.push((i, i, 1.0));
    }
    let adj = Rc::new(Csr::from_coo(4, 4, &coo));
    let mut rng = TensorRng::seed_from_u64(14);
    let mut store = ParamStore::new();
    let z = store.add("z", rng.uniform_tensor(4, 3, -1.0, 1.0));
    let asrc = store.add("asrc", rng.uniform_tensor(3, 1, -0.7, 0.7));
    let adst = store.add("adst", rng.uniform_tensor(3, 1, -0.7, 0.7));
    check(&mut store, move |t, s| {
        let zn = t.param(z, s);
        let a1 = t.param(asrc, s);
        let a2 = t.param(adst, s);
        let ssrc = t.matmul(zn, a1);
        let sdst = t.matmul(zn, a2);
        let out = t.gat_aggregate(adj.clone(), zn, ssrc, sdst, 0.2);
        let sq = t.mul(out, out);
        t.mean_all(sq)
    });
}

#[test]
fn st_gate_x_path_grads() {
    // The straight-through estimator is exact for the x path; fix p as a
    // constant so the sampled mask is stable under parameter perturbation.
    let (mut store, w) = store_with((5, 3), 15);
    check(&mut store, |t, s| {
        let mut rng = TensorRng::seed_from_u64(77);
        let wn = t.param(w, s);
        let p = t.constant(Tensor::col_vector(&[0.9, 0.1, 0.95, 0.5, 0.99]));
        let gated = t.st_bernoulli_gate(wn, p, &mut rng);
        let sq = t.mul(gated, gated);
        t.mean_all(sq)
    });
}

#[test]
fn st_gate_probability_path_is_straight_through() {
    // Analytic expectation: dL/dp_i = Σ_j g_ij · x_ij with g = ∂L/∂(x⊙m).
    // With L = sum(x ⊙ m), g = 1, so dL/dp_i must equal Σ_j x_ij regardless
    // of the sampled mask.
    let mut store = ParamStore::new();
    let x = store.add("x", Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
    let p = store.add_with_decay("p", Tensor::col_vector(&[0.8, 0.3]), false);
    let mut tape = Tape::new();
    let mut rng = TensorRng::seed_from_u64(3);
    let xn = tape.param(x, &store);
    let pn = tape.param(p, &store);
    let gated = tape.st_bernoulli_gate(xn, pn, &mut rng);
    let loss = tape.sum_all(gated);
    store.zero_grads();
    tape.backward(loss, &mut store);
    let gp = store.grad(p);
    assert_eq!(gp.get(0, 0), 3.0);
    assert_eq!(gp.get(1, 0), 7.0);
}

#[test]
fn two_layer_gcn_end_to_end_grads() {
    // Full pipeline: Â (X W1) → ReLU → Â (· W2) → log-softmax → NLL.
    let adj = Rc::new(
        Csr::from_coo(
            4,
            4,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
            ],
        )
        .gcn_normalize(),
    );
    let mut rng = TensorRng::seed_from_u64(16);
    let x = Rc::new(rng.uniform_tensor(4, 5, -1.0, 1.0));
    let mut store = ParamStore::new();
    let w1 = store.add("w1", rng.glorot_uniform(5, 4));
    let w2 = store.add("w2", rng.glorot_uniform(4, 3));
    let labels = Rc::new(vec![0usize, 1, 2, 1]);
    let idx = Rc::new(vec![0usize, 1, 3]);
    check(&mut store, move |t, s| {
        let xn = t.constant((*x).clone());
        let w1n = t.param(w1, s);
        let w2n = t.param(w2, s);
        let h0 = t.matmul(xn, w1n);
        let h0p = t.spmm(adj.clone(), h0);
        let h1 = t.relu(h0p);
        let h1w = t.matmul(h1, w2n);
        let h1p = t.spmm(adj.clone(), h1w);
        let lp = t.log_softmax(h1p);
        t.nll_masked(lp, labels.clone(), idx.clone())
    });
}

#[test]
fn constants_receive_no_gradient_work() {
    // Constant-only graphs backprop trivially (smoke test for the
    // needs_grad pruning).
    let mut store = ParamStore::new();
    let mut tape = Tape::new();
    let c = tape.constant(Tensor::ones(3, 3));
    let d = tape.mul(c, c);
    let loss = tape.mean_all(d);
    tape.backward(loss, &mut store);
    assert!(!tape.needs_grad(d));
}
