//! The core [`Tensor`] type: a dense row-major 2-D `f32` matrix.

use std::fmt;

/// Error type for fallible tensor constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided buffer length does not match `rows * cols`.
    LengthMismatch {
        /// Requested number of rows.
        rows: usize,
        /// Requested number of columns.
        cols: usize,
        /// Length of the provided buffer.
        len: usize,
    },
    /// Rows of a jagged input had inconsistent lengths.
    Jagged {
        /// Length of the first row.
        expected: usize,
        /// Index of the offending row.
        row: usize,
        /// Length of the offending row.
        got: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { rows, cols, len } => write!(
                f,
                "buffer of length {len} cannot form a {rows}x{cols} tensor"
            ),
            TensorError::Jagged { expected, row, got } => write!(
                f,
                "row {row} has length {got}, expected {expected} (jagged input)"
            ),
        }
    }
}

impl std::error::Error for TensorError {}

/// Dense row-major 2-D `f32` matrix.
///
/// Everything in the Lasagne stack — node features, hidden representations,
/// weight matrices, per-node aggregation coefficients — is a `Tensor`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) data: Vec<f32>,
}

impl Tensor {
    /// A `rows x cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// A `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Build from a row-major buffer. Fails if `data.len() != rows * cols`,
    /// including when `rows * cols` overflows `usize`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> crate::Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(TensorError::LengthMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Build from row slices; panics on jagged input (use
    /// [`Tensor::try_from_rows`] for a fallible version).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        Self::try_from_rows(rows).expect("Tensor::from_rows: jagged input")
    }

    /// Fallible version of [`Tensor::from_rows`].
    pub fn try_from_rows(rows: &[&[f32]]) -> crate::Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != c {
                return Err(TensorError::Jagged {
                    expected: c,
                    row: i,
                    got: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Tensor { rows: r, cols: c, data })
    }

    /// Build by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Tensor { rows, cols, data }
    }

    /// A `1 x n` row vector from a slice.
    pub fn row_vector(v: &[f32]) -> Self {
        Tensor {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// An `n x 1` column vector from a slice.
    pub fn col_vector(v: &[f32]) -> Self {
        Tensor {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read one element; panics when out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Write one element; panics when out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole row-major buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// A new tensor holding the selected rows, in the given order
    /// (duplicates allowed — this is a gather, not a slice).
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(idx.len(), self.cols);
        for (dst, &src) in idx.iter().enumerate() {
            assert!(
                src < self.rows,
                "gather_rows: index {src} out of range for {} rows",
                self.rows
            );
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// A new tensor holding columns `[lo, hi)`.
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Tensor {
        assert!(
            lo <= hi && hi <= self.cols,
            "slice_cols: [{lo},{hi}) out of range for {} cols",
            self.cols
        );
        let w = hi - lo;
        let mut out = Tensor::zeros(self.rows, w);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[lo..hi]);
        }
        out
    }

    /// Column `j` collected into a fresh `Vec`.
    pub fn col(&self, j: usize) -> Vec<f32> {
        assert!(j < self.cols, "col: index {j} out of range");
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// The transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// True when every pairwise difference is at most `tol` (and shapes match).
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Largest absolute difference between two same-shaped tensors.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for i in 0..show_rows {
            let row = self.row(i);
            let shown: Vec<String> = row
                .iter()
                .take(8)
                .map(|v| format!("{v:.4}"))
                .collect();
            let ell = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ell)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl std::ops::Index<(usize, usize)> for Tensor {
    type Output = f32;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Tensor {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        let c = self.cols;
        &mut self.data[i * c + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_shapes() {
        assert_eq!(Tensor::zeros(3, 4).shape(), (3, 4));
        assert_eq!(Tensor::ones(2, 2).sum(), 4.0);
        assert_eq!(Tensor::full(2, 3, 5.0).get(1, 2), 5.0);
        let e = Tensor::eye(3);
        assert_eq!(e.get(1, 1), 1.0);
        assert_eq!(e.get(0, 1), 0.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, TensorError::LengthMismatch { len: 3, .. }));
    }

    #[test]
    fn from_vec_rejects_a_shape_whose_size_overflows() {
        // 2^63 × 2 wraps to 0 in unchecked arithmetic, which an empty buffer
        // would then "fill".
        let err = Tensor::from_vec(1 << 63, 2, Vec::new()).unwrap_err();
        assert!(matches!(err, TensorError::LengthMismatch { cols: 2, len: 0, .. }));
        assert!(Tensor::from_vec(usize::MAX, usize::MAX, Vec::new()).is_err());
    }

    #[test]
    fn from_rows_rejects_jagged() {
        let err = Tensor::try_from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, TensorError::Jagged { row: 1, got: 1, .. }));
    }

    #[test]
    fn transpose_is_involution() {
        let t = Tensor::from_fn(3, 5, |i, j| (i * 10 + j) as f32);
        assert_eq!(t.transpose().transpose(), t);
        assert_eq!(t.transpose().get(4, 2), t.get(2, 4));
    }

    #[test]
    fn gather_rows_selects_and_duplicates() {
        let t = Tensor::from_fn(4, 2, |i, _| i as f32);
        let g = t.gather_rows(&[3, 0, 3]);
        assert_eq!(g.col(0), vec![3.0, 0.0, 3.0]);
    }

    #[test]
    fn slice_cols_takes_contiguous_range() {
        let t = Tensor::from_fn(2, 4, |_, j| j as f32);
        let s = t.slice_cols(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(2, 2);
        t[(1, 0)] = 7.0;
        assert_eq!(t[(1, 0)], 7.0);
        assert_eq!(t.get(1, 0), 7.0);
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        let a = Tensor::full(2, 2, 1.0);
        let mut b = a.clone();
        b.set(0, 0, 1.0005);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-4));
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(1, 2);
        assert!(!t.has_non_finite());
        t.set(0, 1, f32::NAN);
        assert!(t.has_non_finite());
    }
}
