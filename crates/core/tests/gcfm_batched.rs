//! GC-FM's batched FM term — one GEMM per hidden layer against the
//! column-stacked latent factors, then one grouped row sum — against the
//! per-class formulation it replaced, kept here as the reference: one
//! skinny `N×D(p) · D(p)×k` matmul per class and layer. Forward outputs
//! must match bit for bit; gradients within relative 1e-5, except the
//! latent and linear weight gradients, which are still bitwise (each is a
//! column-by-column `hᵀ·G`). Unequal layer widths, `k` ∈ {1, 5, 9} so the
//! stacked width hits full and edge micro-tiles, one and seven classes,
//! all-zero rows, at 1 and 4 pool threads.

use std::rc::Rc;

use lasagne_autograd::{NodeId, ParamId, ParamStore, Tape};
use lasagne_core::GcFm;
use lasagne_sparse::Csr;
use lasagne_tensor::{Tensor, TensorRng};

const NODES: usize = 23;
const DIMS: [usize; 4] = [3, 6, 2, 5];
const ZERO_ROWS: [usize; 2] = [0, 7];

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The per-class formulation of Eq (7)'s fast path: for each class `j`,
/// `s_p = h_p · V_jp`, `T = Σ_p s_p`, `O_j = ½(‖T‖² − Σ_p ‖s_p‖²)` row-wise,
/// then the class columns side by side, plus the linear part, propagated.
fn per_class(
    tape: &mut Tape,
    store: &ParamStore,
    (w, b): (ParamId, ParamId),
    v: &[Vec<ParamId>],
    a_hat: &Rc<Csr>,
    hs: &[NodeId],
) -> NodeId {
    let cat = tape.concat_cols(hs);
    let w = tape.param(w, store);
    let lin = tape.matmul(cat, w);
    let b = tape.param(b, store);
    let linear = tape.add_row_broadcast(lin, b);
    let mut fm_cols = Vec::with_capacity(v.len());
    for vj in v {
        let mut t_sum: Option<NodeId> = None;
        let mut sq_sum: Option<NodeId> = None;
        for (&h, &vjp) in hs.iter().zip(vj) {
            let vn = tape.param(vjp, store);
            let s = tape.matmul(h, vn);
            t_sum = Some(match t_sum {
                Some(t) => tape.add(t, s),
                None => s,
            });
            let s2 = tape.mul(s, s);
            let s2r = tape.sum_cols(s2);
            sq_sum = Some(match sq_sum {
                Some(q) => tape.add(q, s2r),
                None => s2r,
            });
        }
        let t = t_sum.expect("at least one layer");
        let t2 = tape.mul(t, t);
        let t2r = tape.sum_cols(t2);
        let diff = tape.sub(t2r, sq_sum.expect("at least one layer"));
        fm_cols.push(tape.scale(diff, 0.5));
    }
    let fm = tape.concat_cols(&fm_cols);
    let o = tape.add(linear, fm);
    tape.spmm(Rc::clone(a_hat), o)
}

/// A ring with self-loops, row-normalized: every output row mixes three.
fn ring(n: usize) -> Rc<Csr> {
    let coo: Vec<(u32, u32, f32)> = (0..n as u32)
        .flat_map(|i| {
            let n = n as u32;
            [(i, i, 0.5f32), (i, (i + 1) % n, 0.25), (i, (i + n - 1) % n, 0.25)]
        })
        .collect();
    Rc::new(Csr::from_coo(n, n, &coo))
}

/// `sum(O ⊙ c)` for a fixed `c`, and the value of `O`.
fn loss(tape: &mut Tape, o: NodeId, c: &Tensor) -> (NodeId, Tensor) {
    let cn = tape.constant(c.clone());
    let weighted = tape.mul(o, cn);
    (tape.sum_all(weighted), tape.value(o).clone())
}

/// `‖got − want‖∞ ≤ 1e-5 · ‖want‖∞`.
fn assert_close(got: &Tensor, want: &Tensor, what: &str) {
    let scale = want.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let diff = got.max_abs_diff(want);
    assert!(diff <= 1e-5 * scale, "{what}: max diff {diff} at scale {scale}");
}

#[test]
fn batched_gcfm_matches_the_per_class_formulation() {
    for threads in [1, 4] {
        lasagne_par::set_threads(threads);
        for classes in [1, 7] {
            for k in [1, 5, 9] {
                let case = format!("{classes} classes, k = {k}, {threads} threads");
                let mut rng = TensorRng::seed_from_u64(40 + k as u64);
                let mut store = ParamStore::new();
                let gcfm = GcFm::new(&mut store, &DIMS, classes, k, &mut rng);
                let hs: Vec<Tensor> = DIMS
                    .iter()
                    .map(|&d| {
                        let mut h = rng.uniform_tensor(NODES, d, -1.0, 1.0);
                        for r in ZERO_ROWS {
                            h.row_mut(r).fill(0.0);
                        }
                        h
                    })
                    .collect();
                let c = rng.uniform_tensor(NODES, classes, -1.0, 1.0);
                let a_hat = ring(NODES);

                // The reference's store: the same values, one latent
                // tensor per class and layer.
                let mut reference = ParamStore::new();
                let linear = ["gcfm.w", "gcfm.b"].map(|name| {
                    let id = store.require(name).expect("GC-FM registers its linear part");
                    reference.add(name, store.value(id).clone())
                });
                let v: Vec<Vec<ParamId>> = (0..classes)
                    .map(|j| {
                        (0..DIMS.len())
                            .map(|p| reference.add(format!("v{j}.{p}"), gcfm.latent(&store, j, p)))
                            .collect()
                    })
                    .collect();
                let h_batched: Vec<ParamId> =
                    hs.iter().enumerate().map(|(p, h)| store.add(format!("h{p}"), h.clone())).collect();
                let h_reference: Vec<ParamId> = hs
                    .iter()
                    .enumerate()
                    .map(|(p, h)| reference.add(format!("h{p}"), h.clone()))
                    .collect();

                let mut tape = Tape::new();
                let nodes: Vec<NodeId> = h_batched.iter().map(|&id| tape.param(id, &store)).collect();
                let o = gcfm.forward(&mut tape, &store, &a_hat, &nodes, false);
                let (l, got) = loss(&mut tape, o, &c);
                store.zero_grads();
                tape.backward(l, &mut store);

                let mut rtape = Tape::new();
                let nodes: Vec<NodeId> =
                    h_reference.iter().map(|&id| rtape.param(id, &reference)).collect();
                let o = per_class(&mut rtape, &reference, (linear[0], linear[1]), &v, &a_hat, &nodes);
                let (l, want) = loss(&mut rtape, o, &c);
                reference.zero_grads();
                rtape.backward(l, &mut reference);

                assert_eq!(bits(&got), bits(&want), "forward, {case}");
                for (name, &id) in ["gcfm.w", "gcfm.b"].iter().zip(&linear) {
                    let batched = store.grad(store.require(name).expect("registered"));
                    assert_eq!(bits(batched), bits(reference.grad(id)), "{name} gradient, {case}");
                }
                for p in 0..DIMS.len() {
                    let stacked = store.grad(store.require(&format!("gcfm.v{p}")).expect("stacked"));
                    for (j, vj) in v.iter().enumerate() {
                        let block = stacked.slice_cols(j * k, (j + 1) * k);
                        assert_eq!(
                            bits(&block),
                            bits(reference.grad(vj[p])),
                            "latent gradient of class {j}, layer {p}, {case}"
                        );
                    }
                    assert_close(
                        store.grad(h_batched[p]),
                        reference.grad(h_reference[p]),
                        &format!("input gradient of layer {p}, {case}"),
                    );
                }
            }
        }
    }
    lasagne_par::set_threads(1);
}

#[test]
fn stacked_latents_are_the_per_class_draws_side_by_side() {
    let (classes, k) = (3, 4);
    let mut store = ParamStore::new();
    let gcfm = GcFm::new(&mut store, &DIMS, classes, k, &mut TensorRng::seed_from_u64(9));
    // Replay `GcFm::new`'s draws: the linear weight, then the latent
    // factors class by class, layer by layer.
    let mut draws = TensorRng::seed_from_u64(9);
    let _ = draws.glorot_uniform(DIMS.iter().sum(), classes);
    for j in 0..classes {
        for (p, &d) in DIMS.iter().enumerate() {
            let drawn = draws.normal_tensor(d, k, 0.0, 0.02);
            assert_eq!(bits(&gcfm.latent(&store, j, p)), bits(&drawn), "class {j}, layer {p}");
        }
    }
    for (p, &d) in DIMS.iter().enumerate() {
        let id = store.require(&format!("gcfm.v{p}")).expect("one latent matrix per layer");
        assert_eq!(store.value(id).shape(), (d, classes * k));
    }
}
