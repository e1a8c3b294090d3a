//! Edge-feature storage aligned to CSR nnz order (DESIGN.md §15).
//!
//! An [`EdgeData`] is a dense `nnz x d_e` row-major matrix whose row `e`
//! holds the feature vector of the `e`-th stored entry of a companion
//! [`Csr`] — the entry at flat position `e` in the CSR's `indices`/`values`
//! arrays. Alignment is the whole contract: every structural change to the
//! companion (a transpose, say) must be mirrored by the matching row
//! permutation here, and every mismatch is a typed
//! [`EdgeDataError`], never a silent misread.

use crate::Csr;
use lasagne_tensor::Tensor;

/// Typed failures of the edge-feature layer. Every variant names the shapes
/// involved so callers can log without re-deriving state.
#[derive(Debug, Clone, PartialEq)]
pub enum EdgeDataError {
    /// The edge table and the CSR disagree on entry count — the structure
    /// drifted without the features following (or vice versa).
    Misaligned { nnz: usize, edge_rows: usize },
    /// An edge-row index was out of range.
    RowOutOfRange { row: usize, nnz: usize },
    /// A CSR entry has no feature row — structure and features have
    /// drifted apart.
    MissingFeature { row: u32, col: u32 },
}

impl std::fmt::Display for EdgeDataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeDataError::Misaligned { nnz, edge_rows } => {
                write!(f, "edge data has {edge_rows} rows but companion csr has {nnz} entries")
            }
            EdgeDataError::RowOutOfRange { row, nnz } => {
                write!(f, "edge row {row} out of range for nnz {nnz}")
            }
            EdgeDataError::MissingFeature { row, col } => {
                write!(f, "entry ({row},{col}) has no feature row — structure and edge data drifted")
            }
        }
    }
}

impl std::error::Error for EdgeDataError {}

/// Dense `nnz x dim` edge-feature matrix, row `e` aligned to flat CSR
/// position `e` of a companion matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeData {
    nnz: usize,
    dim: usize,
    data: Vec<f32>,
}

impl EdgeData {
    /// All-zero features for `nnz` edges of width `dim`.
    pub fn zeros(nnz: usize, dim: usize) -> EdgeData {
        EdgeData { nnz, dim, data: vec![0.0; nnz * dim] }
    }

    /// Build features aligned to `csr` by construction: `f(r, c)` is called
    /// once per stored entry in flat nnz order and must fill `out` (length
    /// `dim`, pre-zeroed) with that edge's features.
    pub fn for_csr(csr: &Csr, dim: usize, mut f: impl FnMut(u32, u32, &mut [f32])) -> EdgeData {
        let mut data = vec![0.0f32; csr.nnz() * dim];
        let mut e = 0usize;
        for r in 0..csr.rows() {
            for &c in csr.row_indices(r) {
                f(r as u32, c, &mut data[e * dim..(e + 1) * dim]);
                e += 1;
            }
        }
        EdgeData { nnz: csr.nnz(), dim, data }
    }

    /// Number of edge rows.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Feature width `d_e`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The feature row of flat edge position `e`.
    #[inline]
    pub fn row(&self, e: usize) -> &[f32] {
        &self.data[e * self.dim..(e + 1) * self.dim]
    }

    /// Mutable feature row of flat edge position `e`.
    #[inline]
    pub fn row_mut(&mut self, e: usize) -> &mut [f32] {
        &mut self.data[e * self.dim..(e + 1) * self.dim]
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Gather edge rows by flat position, mirroring `Tensor::gather_rows` —
    /// but typed: an out-of-range index is an error, not a panic, because
    /// gather indices typically come from a (possibly stale) structure walk.
    pub fn gather_edge_rows(&self, idx: &[usize]) -> Result<EdgeData, EdgeDataError> {
        let mut data = Vec::with_capacity(idx.len() * self.dim);
        for &e in idx {
            if e >= self.nnz {
                return Err(EdgeDataError::RowOutOfRange { row: e, nnz: self.nnz });
            }
            data.extend_from_slice(self.row(e));
        }
        Ok(EdgeData { nnz: idx.len(), dim: self.dim, data })
    }

    /// Check row-count alignment against a companion CSR.
    pub fn check_aligned(&self, m: &Csr) -> Result<(), EdgeDataError> {
        if self.nnz != m.nnz() {
            return Err(EdgeDataError::Misaligned { nnz: m.nnz(), edge_rows: self.nnz });
        }
        Ok(())
    }

    /// Apply a row permutation: output row `t` is input row `perm[t]`.
    /// `perm` must index valid rows; its length becomes the new row count.
    pub fn permuted(&self, perm: &[usize]) -> Result<EdgeData, EdgeDataError> {
        self.gather_edge_rows(perm)
    }

    /// The features re-aligned to `m.transpose()`: row `t` of the result is
    /// the feature row of the source entry that lands at transpose position
    /// `t`. Errors typed if `self` is not aligned to `m`.
    pub fn transposed_with(&self, m: &Csr) -> Result<EdgeData, EdgeDataError> {
        self.check_aligned(m)?;
        self.permuted(&m.transpose_permutation())
    }

    /// Densify into an `nnz x dim` tensor (the form the autograd tape
    /// consumes as a constant).
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.nnz, self.dim, self.data.clone())
            .expect("EdgeData invariant: len == nnz * dim")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Csr {
        Csr::from_coo(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    }

    fn tagged(csr: &Csr) -> EdgeData {
        // Feature = (row, col) so alignment failures are visible as values.
        EdgeData::for_csr(csr, 2, |r, c, out| {
            out[0] = r as f32;
            out[1] = c as f32;
        })
    }

    #[test]
    fn for_csr_aligns_rows_to_flat_positions() {
        let m = path3();
        let e = tagged(&m);
        e.check_aligned(&m).unwrap();
        let mut flat = 0usize;
        for r in 0..m.rows() {
            for &c in m.row_indices(r) {
                assert_eq!(m.edge_position(r as u32, c), Some(flat));
                assert_eq!(e.row(flat), &[r as f32, c as f32]);
                flat += 1;
            }
        }
    }

    #[test]
    fn transposed_with_follows_the_counting_sort() {
        let m = Csr::from_coo(3, 4, &[(0, 3, 1.0), (1, 0, 2.0), (1, 3, 3.0), (2, 1, 4.0)]);
        let e = tagged(&m);
        let t = m.transpose();
        let et = e.transposed_with(&m).unwrap();
        et.check_aligned(&t).unwrap();
        let mut flat = 0usize;
        for r in 0..t.rows() {
            for &c in t.row_indices(r) {
                // Transposed entry (r, c) came from source entry (c, r).
                assert_eq!(et.row(flat), &[c as f32, r as f32]);
                flat += 1;
            }
        }
    }

    #[test]
    fn misalignment_and_bad_shapes_fail_typed() {
        let m = path3();
        let e = EdgeData::zeros(m.nnz() + 1, 2);
        assert_eq!(
            e.check_aligned(&m),
            Err(EdgeDataError::Misaligned { nnz: 4, edge_rows: 5 })
        );
        assert_eq!(
            EdgeData::zeros(2, 2).gather_edge_rows(&[0, 2]),
            Err(EdgeDataError::RowOutOfRange { row: 2, nnz: 2 })
        );
    }
}
