//! Property tests: CSR algebra must agree with densified linear algebra.
//! Ported from `proptest` to the in-workspace `lasagne-testkit` harness;
//! every original property is preserved at ≥ the original 256 cases.

use lasagne_sparse::Csr;
use lasagne_tensor::TensorRng;
use lasagne_testkit::gens::{coo_graph, sym_adj, CooGraph};
use lasagne_testkit::{prop_assert, prop_assert_eq, prop_check};

/// Materialize a generated COO matrix.
fn csr_of(g: &CooGraph) -> Csr {
    Csr::from_coo(g.n, g.n, &g.entries)
}

prop_check! {
    cases = 256,
    fn spmm_equals_dense_matmul(g in coo_graph(2..12, 0.4, -2.0, 2.0),
                                d in 1usize..5, seed in 0u64..300) {
        let m = csr_of(&g);
        let mut rng = TensorRng::seed_from_u64(seed.wrapping_add(99));
        let x = rng.uniform_tensor(g.n, d, -3.0, 3.0);
        prop_assert!(m.spmm(&x).approx_eq(&m.to_dense().matmul(&x), 1e-4));
    }
}

prop_check! {
    cases = 256,
    fn spmm_t_equals_transpose_spmm(g in coo_graph(2..12, 0.3, -2.0, 2.0),
                                    seed in 0u64..300) {
        let m = csr_of(&g);
        let mut rng = TensorRng::seed_from_u64(seed ^ 0xabcd);
        let x = rng.uniform_tensor(g.n, 3, -1.0, 1.0);
        prop_assert!(m.spmm_t(&x).approx_eq(&m.transpose().spmm(&x), 1e-4));
    }
}

prop_check! {
    cases = 256,
    fn transpose_is_involution(g in coo_graph(1..15, 0.3, -2.0, 2.0)) {
        let m = csr_of(&g);
        prop_assert_eq!(m.transpose().transpose(), m);
    }
}

prop_check! {
    cases = 256,
    fn gcn_normalization_is_symmetric_and_bounded(g in sym_adj(2..15, 0.3)) {
        let a = csr_of(&g).gcn_normalize();
        let d = a.to_dense();
        prop_assert!(d.approx_eq(&d.transpose(), 1e-5));
        // Entries of Â lie in [0, 1].
        prop_assert!(d.min() >= 0.0 && d.max() <= 1.0 + 1e-6);
    }
}

prop_check! {
    cases = 256,
    fn rw_rows_are_stochastic(g in sym_adj(2..15, 0.4)) {
        let a = csr_of(&g).with_self_loops().rw_normalize();
        for s in a.row_sums() {
            prop_assert!((s - 1.0).abs() < 1e-5);
        }
    }
}

prop_check! {
    cases = 256,
    fn induced_matches_dense_slice(g in coo_graph(8..9, 0.4, -2.0, 2.0)) {
        let m = csr_of(&g);
        let nodes = [6usize, 2, 5];
        let s = m.induced(&nodes).to_dense();
        let d = m.to_dense();
        for (ri, &r) in nodes.iter().enumerate() {
            for (ci, &c) in nodes.iter().enumerate() {
                prop_assert!((s[(ri, ci)] - d[(r, c)]).abs() < 1e-6);
            }
        }
    }
}

prop_check! {
    cases = 256,
    fn slice_matches_dense_rectangle(g in coo_graph(9..10, 0.35, -2.0, 2.0)) {
        let m = csr_of(&g);
        let rows = [1usize, 8, 3];
        let cols = [0usize, 4];
        let s = m.slice(&rows, &cols).to_dense();
        let d = m.to_dense();
        for (ri, &r) in rows.iter().enumerate() {
            for (ci, &c) in cols.iter().enumerate() {
                prop_assert!((s[(ri, ci)] - d[(r, c)]).abs() < 1e-6);
            }
        }
    }
}

prop_check! {
    cases = 256,
    fn from_coo_duplicate_merging_is_order_invariant(seed in 0u64..100_000) {
        let mut rng = TensorRng::seed_from_u64(seed);
        let mut entries: Vec<(u32, u32, f32)> = (0..30)
            .map(|_| (rng.index(5) as u32, rng.index(5) as u32, rng.uniform(-1.0, 1.0)))
            .collect();
        let a = Csr::from_coo(5, 5, &entries);
        rng.shuffle(&mut entries);
        let b = Csr::from_coo(5, 5, &entries);
        prop_assert!(a.to_dense().approx_eq(&b.to_dense(), 1e-5));
    }
}

// New invariant (not in the original suite): the full GCN operator contract
// on random graphs. Â = D̃^{-1/2}(A+I)D̃^{-1/2} must (1) keep self-loop mass
// on the diagonal, (2) be exactly symmetric as a *structure*, and (3) have
// spectral radius ≤ 1 — the property that makes arbitrarily deep stacks of
// Â-multiplications stable (and over-smoothing, not divergence, the failure
// mode the paper studies).
prop_check! {
    cases = 128,
    fn gcn_operator_has_unit_spectral_radius(g in sym_adj(2..20, 0.3), seed in 0u64..1000) {
        let a_hat = csr_of(&g).gcn_normalize();
        let n = g.n;
        let d = a_hat.to_dense();

        // Self-loops give every diagonal entry 1/d̃_i > 0.
        for i in 0..n {
            prop_assert!(d[(i, i)] > 0.0, "zero diagonal at {i}");
        }

        // Power iteration on a symmetric operator converges to |λ|_max.
        let mut rng = TensorRng::seed_from_u64(seed);
        let mut v = rng.uniform_tensor(n, 1, 0.1, 1.0); // positive start: aligned with Perron vector
        let mut radius = 0.0f32;
        for _ in 0..60 {
            let w = a_hat.spmm(&v);
            let norm = w.as_slice().iter().map(|x| x * x).sum::<f32>().sqrt();
            prop_assert!(norm.is_finite());
            if norm < 1e-12 {
                break;
            }
            radius = norm
                / v.as_slice().iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
            v = w.scale(1.0 / norm);
        }
        prop_assert!(
            radius <= 1.0 + 1e-4,
            "spectral radius estimate {radius} exceeds 1"
        );
        // Â is never nilpotent (diagonal is positive), so the estimate must
        // also be bounded away from zero.
        prop_assert!(radius > 0.0);
    }
}
