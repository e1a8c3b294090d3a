//! Element-wise arithmetic: out-of-place binary ops, in-place accumulation
//! variants used by the autograd tape, and scalar ops.
//!
//! Every kernel here is element-independent, so all of them chunk the flat
//! buffer into fixed [`crate::PAR_CHUNK`]-element spans on the
//! `lasagne-par` pool: small tensors collapse to one chunk (pure inline
//! execution), big ones — feature matrices, hidden activations, their
//! gradients — fan out, and the output bits never depend on the thread
//! count.

use crate::{Tensor, PAR_CHUNK};

macro_rules! binary_op {
    ($(#[$doc:meta])* $name:ident, $op:tt) => {
        $(#[$doc])*
        pub fn $name(&self, other: &Tensor) -> Tensor {
            assert_eq!(
                self.shape(),
                other.shape(),
                concat!(stringify!($name), ": {:?} vs {:?}"),
                self.shape(),
                other.shape()
            );
            let mut data = vec![0.0f32; self.data.len()];
            let (a, b) = (&self.data, &other.data);
            lasagne_par::par_row_chunks_mut(&mut data, 1, PAR_CHUNK, |i0, chunk| {
                let len = chunk.len();
                for (o, (x, y)) in chunk
                    .iter_mut()
                    .zip(a[i0..i0 + len].iter().zip(&b[i0..i0 + len]))
                {
                    *o = x $op y;
                }
            });
            Tensor { rows: self.rows, cols: self.cols, data }
        }
    };
}

impl Tensor {
    binary_op!(
        /// Element-wise sum.
        add, +
    );
    binary_op!(
        /// Element-wise difference.
        sub, -
    );
    binary_op!(
        /// Element-wise (Hadamard) product.
        mul, *
    );
    binary_op!(
        /// Element-wise quotient.
        div, /
    );

    /// `self += other`, in place.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        let b = &other.data;
        lasagne_par::par_row_chunks_mut(&mut self.data, 1, PAR_CHUNK, |i0, chunk| {
            let len = chunk.len();
            for (a, &v) in chunk.iter_mut().zip(&b[i0..i0 + len]) {
                *a += v;
            }
        });
    }

    /// `self += alpha * other`, in place (axpy).
    pub fn add_scaled_assign(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled_assign: shape mismatch"
        );
        let b = &other.data;
        lasagne_par::par_row_chunks_mut(&mut self.data, 1, PAR_CHUNK, |i0, chunk| {
            let len = chunk.len();
            for (a, &v) in chunk.iter_mut().zip(&b[i0..i0 + len]) {
                *a += alpha * v;
            }
        });
    }

    /// `alpha * self`, out of place.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|v| v * alpha)
    }

    /// `alpha * self`, in place.
    pub fn scale_assign(&mut self, alpha: f32) {
        self.map_assign(|v| v * alpha);
    }

    /// `self + alpha` element-wise.
    pub fn add_scalar(&self, alpha: f32) -> Tensor {
        self.map(|v| v + alpha)
    }

    /// Apply `f` to every element, out of place.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut data = vec![0.0f32; self.data.len()];
        let src = &self.data;
        lasagne_par::par_row_chunks_mut(&mut data, 1, PAR_CHUNK, |i0, chunk| {
            let len = chunk.len();
            for (o, &v) in chunk.iter_mut().zip(&src[i0..i0 + len]) {
                *o = f(v);
            }
        });
        Tensor { rows: self.rows, cols: self.cols, data }
    }

    /// Apply `f` to every element, in place.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        lasagne_par::par_row_chunks_mut(&mut self.data, 1, PAR_CHUNK, |_, chunk| {
            for v in chunk {
                *v = f(*v);
            }
        });
    }

    /// Element-wise square.
    pub fn sqr(&self) -> Tensor {
        self.map(|v| v * v)
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Element-wise clamp into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.map_assign(|_| value);
    }

    /// Concatenate tensors side by side (same row count).
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols: empty input");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols: row count mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Tensor::zeros(rows, cols);
        for i in 0..rows {
            let dst = out.row_mut(i);
            let mut off = 0;
            for p in parts {
                dst[off..off + p.cols].copy_from_slice(p.row(i));
                off += p.cols;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_ops_elementwise() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[4.0, 3.0], &[2.0, 1.0]]);
        assert_eq!(a.add(&b), Tensor::full(2, 2, 5.0));
        assert_eq!(a.sub(&b).row(0), &[-3.0, -1.0]);
        assert_eq!(a.mul(&b).row(1), &[6.0, 4.0]);
        assert_eq!(b.div(&a).row(0), &[4.0, 1.5]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut g = Tensor::ones(2, 2);
        g.add_scaled_assign(0.5, &Tensor::full(2, 2, 4.0));
        assert_eq!(g, Tensor::full(2, 2, 3.0));
    }

    #[test]
    fn scale_and_map() {
        let a = Tensor::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.scale(2.0).row(0), &[2.0, -4.0]);
        assert_eq!(a.map(f32::abs).row(0), &[1.0, 2.0]);
        assert_eq!(a.sqr().row(0), &[1.0, 4.0]);
        assert_eq!(a.clamp(-1.0, 1.0).row(0), &[1.0, -1.0]);
        assert_eq!(a.add_scalar(1.0).row(0), &[2.0, -1.0]);
    }

    #[test]
    fn concat_cols_preserves_rows() {
        let a = Tensor::from_fn(2, 2, |i, j| (i * 2 + j) as f32);
        let b = Tensor::full(2, 1, 9.0);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[0.0, 1.0, 9.0]);
        assert_eq!(c.row(1), &[2.0, 3.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_assign_rejects_shape_mismatch() {
        Tensor::ones(2, 2).add_assign(&Tensor::ones(2, 3));
    }
}
