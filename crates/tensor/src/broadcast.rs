//! Broadcasting ops.
//!
//! Two broadcast shapes appear throughout GNN math:
//! * **row broadcast** — a `1 x D` vector applied to every row (biases);
//! * **column broadcast** — an `N x 1` vector applied to every column
//!   (per-node scaling; this is exactly the `C(l)[:, i] ⊗ H(i)` operation of
//!   Lasagne's weighted aggregator, Eq (5) of the paper).

use crate::Tensor;

impl Tensor {
    /// Add a `1 x D` row vector to every row of an `N x D` tensor.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.rows, 1, "add_row_broadcast: rhs must be 1 x D");
        assert_eq!(
            self.cols, row.cols,
            "add_row_broadcast: {} cols vs {} cols",
            self.cols, row.cols
        );
        let mut out = self.clone();
        for i in 0..out.rows {
            for (o, &b) in out.row_mut(i).iter_mut().zip(&row.data) {
                *o += b;
            }
        }
        out
    }

    /// Scale row `i` of an `N x D` tensor by `col[i]` (`col` is `N x 1`).
    pub fn mul_col_broadcast(&self, col: &Tensor) -> Tensor {
        assert_eq!(col.cols, 1, "mul_col_broadcast: rhs must be N x 1");
        assert_eq!(
            self.rows, col.rows,
            "mul_col_broadcast: {} rows vs {} rows",
            self.rows, col.rows
        );
        let mut out = self.clone();
        for i in 0..out.rows {
            let c = col.data[i];
            for o in out.row_mut(i) {
                *o *= c;
            }
        }
        out
    }

    /// Add `col[i]` to every entry of row `i` (`col` is `N x 1`).
    pub fn add_col_broadcast(&self, col: &Tensor) -> Tensor {
        assert_eq!(col.cols, 1, "add_col_broadcast: rhs must be N x 1");
        assert_eq!(self.rows, col.rows, "add_col_broadcast: row mismatch");
        let mut out = self.clone();
        for i in 0..out.rows {
            let c = col.data[i];
            for o in out.row_mut(i) {
                *o += c;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_broadcast_adds_to_every_row() {
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::row_vector(&[10.0, 20.0]);
        assert_eq!(x.add_row_broadcast(&b).row(1), &[13.0, 24.0]);
    }

    #[test]
    fn col_broadcast_scales_rows() {
        let x = Tensor::ones(3, 2);
        let c = Tensor::col_vector(&[1.0, 2.0, 3.0]);
        let y = x.mul_col_broadcast(&c);
        assert_eq!(y.row(0), &[1.0, 1.0]);
        assert_eq!(y.row(2), &[3.0, 3.0]);
        let z = x.add_col_broadcast(&c);
        assert_eq!(z.row(1), &[3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "must be N x 1")]
    fn col_broadcast_requires_column() {
        Tensor::ones(2, 2).mul_col_broadcast(&Tensor::ones(2, 2));
    }
}
