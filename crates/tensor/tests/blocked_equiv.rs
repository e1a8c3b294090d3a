//! Kernel-equivalence suite: the register-blocked matmul family must be
//! **bitwise** equal (`to_bits`) to the pinned seed-kernel references —
//! copies of the exact pre-blocking loop nests, which skip zero left
//! multipliers — at several thread counts. This is the safety net that
//! makes the blocked rewrite safe: tiling may change scheduling, never the
//! per-element accumulation sequence.
//!
//! Two properties:
//!
//! * random shapes, sparse and dense left operands;
//! * the branch-free kernels equal a zero-skipping loop on finite operands
//!   whatever the zero share (0–99%), with `-0.0` left entries, products
//!   that underflow to `±0` and negative right operands — for `matmul`,
//!   `matmul_tn`, `matmul_nt`, and gathered row subsets (unsorted, with
//!   repeats).
//!
//! Each test holds [`POOL`], because the pool's thread count is
//! process-global.

use std::sync::Mutex;

use lasagne_tensor::Tensor;
use lasagne_testkit::gens::{dense, Dense};
use lasagne_testkit::prop::{check, Config};
use lasagne_testkit::Rng;

const SWEEP: [usize; 3] = [1, 4, 3];

/// Serializes the tests' `lasagne_par::set_threads` sweeps.
static POOL: Mutex<()> = Mutex::new(());

fn tensor_of(d: &Dense) -> Tensor {
    Tensor::from_vec(d.rows, d.cols, d.data.clone()).expect("gen produces consistent shapes")
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Zero out a deterministic ~60% of entries, so the references' zero skip
/// fires often.
fn sparsify(t: &Tensor) -> Tensor {
    let (r, c) = t.shape();
    Tensor::from_fn(r, c, |i, j| if (i * 7 + j * 3) % 5 < 2 { t.get(i, j) } else { 0.0 })
}

#[test]
fn blocked_kernels_bitwise_equal_seed_references() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = Config::cases(10);
    check(
        "blocked_vs_seed",
        &cfg,
        // Random shapes straddle tile boundaries: rows/cols run through
        // every residue of the MR=4 / NR=8 micro-tile and the chunk
        // partitioner's uneven trailing chunk.
        &(dense(3..90, 2..70, -1.5, 1.5), 1usize..40),
        |(d, m)| {
            let dense_a = tensor_of(d);
            let sparse_a = sparsify(&dense_a);
            let b = Tensor::from_fn(dense_a.cols(), *m, |i, j| ((i * 29 + j * 11) % 17) as f32 * 0.33 - 2.0);
            let g = Tensor::from_fn(dense_a.rows(), *m, |i, j| ((i * 13 + j * 5) % 9) as f32 * 0.21 - 0.8);
            let bt = b.transpose();
            for a in [&dense_a, &sparse_a] {
                // References are serial; compute them once at 1 thread.
                lasagne_par::set_threads(1);
                let want_mm = bits(&a.matmul_reference(&b));
                let want_tn = bits(&a.matmul_tn_reference(&g));
                let want_nt = bits(&a.matmul_nt_reference(&bt));
                for &t in &SWEEP {
                    lasagne_par::set_threads(t);
                    if bits(&a.matmul(&b)) != want_mm {
                        return Err(format!("matmul != seed at {t} threads"));
                    }
                    if bits(&a.matmul_tn(&g)) != want_tn {
                        return Err(format!("matmul_tn != seed at {t} threads"));
                    }
                    if bits(&a.matmul_nt(&bt)) != want_nt {
                        return Err(format!("matmul_nt != seed at {t} threads"));
                    }
                }
            }
            Ok(())
        },
    );
}

/// `rows × cols` finite left operand with about a `zeros` share of exact
/// zeros, a tenth of them `-0.0`. A tenth of the nonzeros are `±1e-30`, so
/// their products with [`right_operand`]'s `±1e-20` entries underflow to
/// `±0`.
fn left_operand(rng: &mut Rng, rows: usize, cols: usize, zeros: f32) -> Tensor {
    Tensor::from_fn(rows, cols, |_, _| {
        let sign = if rng.index(2) == 0 { 1.0 } else { -1.0 };
        if rng.next_f32() < zeros {
            if rng.index(10) == 0 {
                -0.0
            } else {
                0.0
            }
        } else if rng.index(10) == 0 {
            sign * 1e-30
        } else {
            rng.range_f32(-2.0, 2.0)
        }
    })
}

/// Finite right operand, mostly negative, a tenth `±1e-20`.
fn right_operand(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |_, _| match rng.index(10) {
        0 => {
            if rng.index(2) == 0 {
                1e-20
            } else {
                -1e-20
            }
        }
        1..=6 => rng.range_f32(-3.0, -0.1),
        _ => rng.range_f32(-1.0, 3.0),
    })
}

#[test]
fn dense_kernels_bitwise_equal_a_zero_skipping_loop() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng::seed_from_u64(0x2E40);
    // Edge tiles on every axis.
    for (n, k, m) in [(37, 19, 13), (64, 300, 9), (5, 3, 40), (9, 8, 8)] {
        for zeros in [0.0, 0.25, 0.5, 0.7, 0.9, 0.99] {
            let a = left_operand(&mut rng, n, k, zeros);
            let b = right_operand(&mut rng, k, m);
            let g = right_operand(&mut rng, n, m);
            let bt = b.transpose();
            let rows: Vec<usize> = (0..n + 3).map(|_| rng.index(n)).collect();
            let sub = a.gather_rows(&rows);
            let g_sub = g.gather_rows(&rows);
            // The references skip every zero multiplier (`-0.0` included).
            lasagne_par::set_threads(1);
            let want_mm = bits(&a.matmul_reference(&b));
            let want_tn = bits(&a.matmul_tn_reference(&g));
            let want_sub = bits(&a.matmul_reference(&b).gather_rows(&rows));
            let want_sub_tn = bits(&sub.matmul_tn_reference(&g_sub));
            let case = format!("{n}x{k}x{m}, {zeros} zeros");
            for threads in [1, 4] {
                lasagne_par::set_threads(threads);
                assert_eq!(bits(&a.matmul(&b)), want_mm, "matmul {case} @ {threads}");
                assert_eq!(bits(&a.matmul_nt(&bt)), want_mm, "matmul_nt {case} @ {threads}");
                assert_eq!(bits(&a.matmul_tn(&g)), want_tn, "matmul_tn {case} @ {threads}");
                assert_eq!(bits(&sub.matmul(&b)), want_sub, "subset matmul {case} @ {threads}");
                assert_eq!(bits(&sub.matmul_nt(&bt)), want_sub, "subset nt {case} @ {threads}");
                assert_eq!(bits(&sub.matmul_tn(&g_sub)), want_sub_tn, "subset tn {case} @ {threads}");
            }
        }
    }
    lasagne_par::set_threads(1);
}
