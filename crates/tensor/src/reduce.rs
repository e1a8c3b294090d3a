//! Reductions: full, per-row, and per-column sums/means/extrema, plus
//! row-wise argmax (classification decisions) and norms.
//!
//! Cross-element reductions (`sum`, `sum_rows`, `frobenius_norm`) always
//! reduce over the same fixed [`PAR_CHUNK`]-element chunk tree — partials
//! per chunk, folded in chunk order — so the float result is bitwise
//! identical whether the partials were computed by one thread or eight.
//! Per-row reductions (`sum_cols`, `row_sq_norms`, `argmax_rows`) are
//! independent per output element and just fan rows out. `max`/`min` and
//! `has_non_finite` stay serial: the first two are order-exact anyway, the
//! last wants its early exit.

use crate::{par_row_chunk, Tensor, PAR_CHUNK};

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        let data = &self.data;
        lasagne_par::parallel_map_chunks(data.len(), PAR_CHUNK, |_, r| {
            data[r].iter().sum::<f32>()
        })
        .into_iter()
        .fold(0.0, |acc, p| acc + p)
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Per-column sums as a `1 x D` row vector.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        if self.cols == 0 {
            return out;
        }
        let cols = self.cols;
        let data = &self.data;
        let partials =
            lasagne_par::parallel_map_chunks(self.rows, par_row_chunk(cols), |_, r| {
                let mut p = vec![0.0f32; cols];
                for row in data[r.start * cols..r.end * cols].chunks(cols) {
                    for (o, &v) in p.iter_mut().zip(row) {
                        *o += v;
                    }
                }
                p
            });
        for p in partials {
            for (o, v) in out.data.iter_mut().zip(p) {
                *o += v;
            }
        }
        out
    }

    /// Per-row sums as an `N x 1` column vector: [`Tensor::sum_col_groups`]
    /// with one group.
    pub fn sum_cols(&self) -> Tensor {
        self.sum_col_groups(1)
    }

    /// Per-row sums of `groups` equal-width column groups, `N x (g·w) →
    /// N x g`; each group is summed left to right. Panics unless `groups`
    /// divides the column count.
    pub fn sum_col_groups(&self, groups: usize) -> Tensor {
        assert!(
            groups > 0 && self.cols.is_multiple_of(groups),
            "sum_col_groups: {} columns in {groups} groups",
            self.cols
        );
        let mut out = Tensor::zeros(self.rows, groups);
        let (cols, w) = (self.cols, self.cols / groups);
        let data = &self.data;
        lasagne_par::par_row_chunks_mut(&mut out.data, groups, par_row_chunk(cols), |i0, chunk| {
            for (r, o_row) in chunk.chunks_mut(groups).enumerate() {
                let row = &data[(i0 + r) * cols..(i0 + r + 1) * cols];
                for (gi, o) in o_row.iter_mut().enumerate() {
                    *o = row[gi * w..(gi + 1) * w].iter().sum();
                }
            }
        });
        out
    }

    /// Per-column means as a `1 x D` row vector.
    pub fn mean_rows(&self) -> Tensor {
        let mut s = self.sum_rows();
        if self.rows > 0 {
            s.scale_assign(1.0 / self.rows as f32);
        }
        s
    }

    /// Largest element (NaN-free input assumed); `-inf` for empty tensors.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element; `+inf` for empty tensors.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the largest element in each row (first one wins on ties).
    pub fn argmax_rows(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.rows];
        if self.cols == 0 {
            return out;
        }
        let cols = self.cols;
        let data = &self.data;
        lasagne_par::par_row_chunks_mut(&mut out, 1, par_row_chunk(cols), |i0, chunk| {
            for (r, o) in chunk.iter_mut().enumerate() {
                let row = &data[(i0 + r) * cols..(i0 + r + 1) * cols];
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                *o = best;
            }
        });
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        let data = &self.data;
        lasagne_par::parallel_map_chunks(data.len(), PAR_CHUNK, |_, r| {
            data[r].iter().map(|v| v * v).sum::<f32>()
        })
        .into_iter()
        .fold(0.0, |acc, p| acc + p)
        .sqrt()
    }

    /// True if any element is NaN or ±Inf.
    ///
    /// Divergence guardrails call this once per optimization step on every
    /// gradient, so the scan must cost less than a full `is_finite` pass in
    /// the overwhelmingly common all-finite case: each 64-element chunk is
    /// folded through `v * 0.0` (exactly `±0.0` for finite `v`, NaN for
    /// NaN/±Inf), which auto-vectorizes, and the scan exits on the first
    /// poisoned chunk.
    pub fn has_non_finite(&self) -> bool {
        self.data.chunks(64).any(|chunk| {
            // NaN != 0.0 is true, ±0.0 != 0.0 is false — one compare covers
            // both the clean and the poisoned outcome.
            let probe: f32 = chunk.iter().map(|&v| v * 0.0).sum();
            probe != 0.0
        })
    }

    /// Squared L2 norm of each row, as an `N x 1` column vector.
    pub fn row_sq_norms(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, 1);
        let cols = self.cols;
        let data = &self.data;
        lasagne_par::par_row_chunks_mut(&mut out.data, 1, par_row_chunk(cols), |i0, chunk| {
            for (r, o) in chunk.iter_mut().enumerate() {
                *o = data[(i0 + r) * cols..(i0 + r + 1) * cols]
                    .iter()
                    .map(|v| v * v)
                    .sum();
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tensor {
        Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn full_reductions() {
        assert_eq!(sample().sum(), 21.0);
        assert_eq!(sample().mean(), 3.5);
        assert_eq!(sample().max(), 6.0);
        assert_eq!(sample().min(), 1.0);
    }

    #[test]
    fn axis_sums() {
        assert_eq!(sample().sum_rows().row(0), &[5.0, 7.0, 9.0]);
        assert_eq!(sample().sum_cols().col(0), vec![6.0, 15.0]);
        assert_eq!(sample().mean_rows().row(0), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn grouped_row_sums() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]);
        assert_eq!(t.sum_col_groups(3).row(0), &[3.0, 7.0, 11.0]);
        assert_eq!(t.sum_col_groups(1).row(0), &[21.0]);
        assert_eq!(sample().sum_col_groups(3), sample());
    }

    #[test]
    #[should_panic(expected = "sum_col_groups")]
    fn grouped_row_sums_need_equal_groups() {
        sample().sum_col_groups(2);
    }

    #[test]
    fn argmax_first_wins_on_tie() {
        let t = Tensor::from_rows(&[&[1.0, 3.0, 3.0], &[0.0, -1.0, -2.0]]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn norms() {
        let t = Tensor::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(t.frobenius_norm(), 5.0);
        assert_eq!(t.row_sq_norms().get(0, 0), 25.0);
    }

    #[test]
    fn has_non_finite_finds_poison_anywhere() {
        let mut t = Tensor::zeros(3, 100);
        assert!(!t.has_non_finite());
        for (i, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY].iter().enumerate() {
            let mut u = t.clone();
            // Place the poison off the chunk boundary in each case.
            u.set(i, 63 + i, *bad);
            assert!(u.has_non_finite(), "case {i} missed {bad}");
        }
        // Large-but-finite values (whose chunk sum could overflow naïvely)
        // must not false-positive: v * 0.0 is exactly 0.0 for any finite v.
        t.fill(f32::MAX);
        assert!(!t.has_non_finite());
        // Negative zeros fold to -0.0 == 0.0.
        t.fill(-0.0);
        assert!(!t.has_non_finite());
        assert!(!Tensor::zeros(0, 0).has_non_finite());
    }

    #[test]
    fn empty_tensor_reductions_are_safe() {
        let t = Tensor::zeros(0, 3);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.sum_rows().shape(), (1, 3));
    }
}
