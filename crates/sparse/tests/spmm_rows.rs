//! Row-subset SpMM read in place: `Csr::spmm_rows(rows, x)` is bitwise
//! (`to_bits`) `Csr::spmm(x).gather_rows(rows)` on random operators with
//! empty rows, one-entry rows and explicit `0.0`/`-0.0` values, operands
//! holding NaN and ±∞, widths either side of the 64-wide column block, row
//! lists in any order with repeats, at 1 and 4 threads.
//!
//! One `#[test]`, because the pool's thread count is process-global.

use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;
use lasagne_testkit::prop::{check, Config};
use lasagne_testkit::Rng;

const WIDTHS: [usize; 6] = [1, 7, 63, 64, 65, 130];

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A `rows × cols` operator whose rows are empty, one entry, or up to 30
/// entries, with about one stored value in eight an explicit `±0.0`.
fn operator(rng: &mut Rng, rows: usize, cols: usize) -> Csr {
    let mut coo = Vec::new();
    for r in 0..rows {
        let k = match rng.index(4) {
            0 => 0,
            1 => 1,
            _ => rng.index(cols.min(30) + 1),
        };
        for c in rng.sample_indices(cols, k.min(cols)) {
            let v = match rng.index(16) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.range_f32(-2.0, 2.0),
            };
            coo.push((r as u32, c as u32, v));
        }
    }
    Csr::from_coo(rows, cols, &coo)
}

/// A `rows × d` operand with about one value in twelve NaN, ±∞ or `-0.0`.
fn operand(rng: &mut Rng, rows: usize, d: usize) -> Tensor {
    let data = (0..rows * d)
        .map(|_| match rng.index(48) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            _ => rng.normal_f32(),
        })
        .collect();
    Tensor::from_vec(rows, d, data).expect("rows × d values")
}

#[test]
fn spmm_rows_is_bitwise_the_gathered_rows_of_spmm() {
    let cfg = Config::cases(24);
    check(
        "spmm_rows_vs_spmm",
        &cfg,
        &(0u64..u64::MAX, 1usize..400),
        |&(seed, n)| {
            let mut rng = Rng::seed_from_u64(seed);
            let cols = rng.range_usize(1, 400);
            let m = operator(&mut rng, n, cols);
            // Any order, repeats allowed, sometimes empty.
            let rows: Vec<usize> = (0..rng.index(2 * n + 1)).map(|_| rng.index(n)).collect();
            for d in WIDTHS {
                let x = operand(&mut rng, cols, d);
                lasagne_par::set_threads(1);
                let want = bits(&m.spmm(&x).gather_rows(&rows));
                for threads in [1, 4] {
                    lasagne_par::set_threads(threads);
                    let got = m.spmm_rows(&rows, &x);
                    if got.shape() != (rows.len(), d) || bits(&got) != want {
                        return Err(format!("d={d} threads={threads}"));
                    }
                }
            }
            Ok(())
        },
    );
    lasagne_par::set_threads(1);
}
