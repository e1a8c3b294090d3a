//! Property tests for the `lasagne-par` determinism contract on the sparse
//! kernels, plus the gather-vs-scatter `spmm_t` equivalence: the cached-
//! transpose gather rewrite must reproduce the retired per-edge scatter
//! kernel bit for bit (the transposed rows list source rows in ascending
//! order — exactly the scatter accumulation order).
//!
//! One `#[test]` only: the pool thread count is process-global, so
//! concurrent tests sweeping `set_threads` would race.

use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;
use lasagne_testkit::gens::sym_adj;
use lasagne_testkit::prop::{check, Config};

const SWEEP: [usize; 3] = [2, 3, 7];

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The retired scatter-form `aᵀ · dense`: each source row `i` adds
/// `v · dense[i]` into output row `j` for every stored `(i, j, v)`, rows in
/// ascending order — the accumulation order the gather form reproduces.
fn spmm_t_scatter(a: &Csr, dense: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.cols(), dense.cols());
    for i in 0..a.rows() {
        for (j, v) in a.row(i) {
            for (o, &x) in out.row_mut(j as usize).iter_mut().zip(dense.row(i)) {
                *o += v * x;
            }
        }
    }
    out
}

fn invariant(label: &str, compute: impl Fn() -> Vec<u32>) -> Result<(), String> {
    lasagne_par::set_threads(1);
    let baseline = compute();
    for &t in &SWEEP {
        lasagne_par::set_threads(t);
        if compute() != baseline {
            return Err(format!("{label}: bits changed at {t} threads"));
        }
    }
    Ok(())
}

#[test]
fn sparse_kernels_bitwise_invariant_across_thread_counts() {
    // Dense graphs so the nnz-balanced partitioner (4096 nnz per chunk)
    // actually produces several chunks; small-n cases cover the
    // single-chunk inline path.
    let cfg = Config::cases(6);
    check(
        "spmm_family",
        &cfg,
        &(sym_adj(40..220, 0.35), 1usize..24),
        |(g, d)| {
            let a = Csr::from_coo(g.n, g.n, &g.entries).gcn_normalize();
            let h = Tensor::from_fn(g.n, *d, |i, j| ((i * 13 + j * 5) % 17) as f32 * 0.3 - 2.0);
            invariant("spmm", || bits(&a.spmm(&h)))?;
            invariant("spmm_t", || bits(&a.spmm_t(&h)))?;
            invariant("spmv", || {
                a.spmv(h.col(0).as_slice())
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })?;

            // Gather (new) vs scatter (retired reference), bit for bit.
            lasagne_par::set_threads(1);
            let gather = a.spmm_t(&h);
            let scatter = spmm_t_scatter(&a, &h);
            if bits(&gather) != bits(&scatter) {
                return Err("spmm_t gather != scatter bitwise".to_string());
            }
            Ok(())
        },
    );
}
