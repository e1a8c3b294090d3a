//! The [`Csr`] type: compressed sparse row `f32` matrices with `u32` column
//! indices (graphs here stay below 2³² nodes by a wide margin, and the
//! narrower index type halves the memory traffic of SpMM).
//!
//! Both SpMM kernels run gather-style over *output* rows — each output row
//! is written by exactly one chunk, and its neighbors accumulate in
//! ascending source-row order — so they partition onto the `lasagne-par`
//! pool with nnz-balanced chunks while staying bitwise identical to the
//! serial loop at any thread count (DESIGN.md §8).

use std::sync::OnceLock;

use lasagne_tensor::Tensor;

/// Column-block width of the blocked SpMM: each output row is produced
/// `CB` columns at a time into a stack accumulator, so the dense operand
/// streams through cache once per block (256-byte segments) instead of
/// once per nonzero (whole rows, which thrash L1 at wide hidden dims).
/// The hot path has a compile-time trip count for the autovectorizer.
const CB: usize = 64;

/// One output row of SpMM: `out = Σ v · x[j]` over the row's stored
/// nonzeros `(idx, vals)` in stored order, where `x[j]` is row `j` of the
/// row-major, `out.len()`-wide operand `x`. Each element accumulates from
/// the zeroed `out` (`+0.0`) — the seed kernel's per-element sequence, so
/// bits are unchanged. A narrow operand (`out.len() ≤ CB`) is one block:
/// axpy straight into `out`. A wider one goes `CB` columns at a time
/// through a stack accumulator, so the dense operand streams through cache
/// in 256-byte segments instead of whole rows per nonzero.
#[inline(always)]
fn spmm_row(out: &mut [f32], idx: &[u32], vals: &[f32], x: &[f32]) {
    let d = out.len();
    if d <= CB {
        for (&j, &v) in idx.iter().zip(vals) {
            let base = j as usize * d;
            for (o, &xv) in out.iter_mut().zip(&x[base..base + d]) {
                *o += v * xv;
            }
        }
        return;
    }
    let mut c0 = 0;
    while c0 < d {
        let cw = (d - c0).min(CB);
        let mut acc = [0.0f32; CB];
        if cw == CB {
            // Full-width block: a compile-time trip count for the
            // autovectorizer.
            for (&j, &v) in idx.iter().zip(vals) {
                let base = j as usize * d + c0;
                let seg = &x[base..base + CB];
                for cc in 0..CB {
                    acc[cc] += v * seg[cc];
                }
            }
        } else {
            for (&j, &v) in idx.iter().zip(vals) {
                let base = j as usize * d + c0;
                for (a, &xv) in acc[..cw].iter_mut().zip(&x[base..base + cw]) {
                    *a += v * xv;
                }
            }
        }
        out[c0..c0 + cw].copy_from_slice(&acc[..cw]);
        c0 += CB;
    }
}

/// Why [`Csr::try_from_parts`] refused its arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// The arrays do not describe a `rows × cols` matrix (the detail says
    /// how).
    Inconsistent(&'static str),
    /// Row `row`'s column indices do not strictly ascend.
    Unsorted { row: usize },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::Inconsistent(what) => write!(f, "inconsistent CSR arrays: {what}"),
            CsrError::Unsorted { row } => {
                write!(f, "the columns of row {row} are not strictly ascending")
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// Start loading `row` into cache: each of its 64-byte lines, and its last
/// element's (the row need not start on a line). A no-op off x86-64.
/// [`Csr::spmm_rows`] reads operand rows at random out of tensors larger
/// than L2; without a prefetch, a cache miss per operand row takes longer
/// than the row's multiply-adds.
#[inline(always)]
fn prefetch(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    for p in row.iter().step_by(16).chain(row.last()) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch loads nothing architecturally and cannot
        // fault; `p` is in bounds anyway.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((p as *const f32).cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// Compressed-sparse-row matrix.
///
/// Invariants (maintained by all constructors):
/// * `indptr.len() == rows + 1`, `indptr[0] == 0`, non-decreasing;
/// * column indices within each row are strictly increasing (duplicates are
///   summed at construction);
/// * `indices.len() == values.len() == indptr[rows]`.
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
    /// Lazily materialized transpose, shared by every `spmm_t` call (the
    /// backward of each training step re-uses the one built on step 1).
    /// Invalidated whenever `values_mut` hands out write access. Boxed so
    /// the recursion in the type is finite; deliberately excluded from
    /// `Clone`/`PartialEq`/`Debug` — it is a cache, not state.
    t_cache: OnceLock<Box<Csr>>,
}

impl Clone for Csr {
    fn clone(&self) -> Csr {
        Csr {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self.values.clone(),
            t_cache: OnceLock::new(),
        }
    }
}

impl PartialEq for Csr {
    fn eq(&self, other: &Csr) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self.values == other.values
    }
}

impl std::fmt::Debug for Csr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Csr")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("indptr", &self.indptr)
            .field("indices", &self.indices)
            .field("values", &self.values)
            .finish()
    }
}

impl Csr {
    /// Build from COO triplets `(row, col, value)`. Duplicate coordinates are
    /// summed; explicit zeros are kept (callers may rely on structure).
    pub fn from_coo(rows: usize, cols: usize, entries: &[(u32, u32, f32)]) -> Csr {
        for &(r, c, _) in entries {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "from_coo: entry ({r},{c}) outside {rows}x{cols}"
            );
        }
        let mut sorted: Vec<(u32, u32, f32)> = entries.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));

        // Per-row counts first, then prefix-sum into offsets; duplicate
        // coordinates collapse into the previously-pushed entry.
        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        let mut prev: Option<(u32, u32)> = None;
        for &(r, c, v) in &sorted {
            if prev == Some((r, c)) {
                *values.last_mut().expect("non-empty on duplicate") += v;
            } else {
                indices.push(c);
                values.push(v);
                indptr[r as usize + 1] += 1;
                prev = Some((r, c));
            }
        }
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        Csr {
            rows,
            cols,
            indptr,
            indices,
            values,
            t_cache: OnceLock::new(),
        }
    }

    /// Construct directly from CSR arrays, or say which invariant (type
    /// docs) they break. The one check of arrays that come from outside —
    /// a file's sparse operators are read through it.
    pub fn try_from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Csr, CsrError> {
        let inconsistent = |what| Err(CsrError::Inconsistent(what));
        if indptr.len() != rows + 1 || indptr[0] != 0 {
            return inconsistent("indptr is not rows + 1 offsets from 0");
        }
        if indices.len() != values.len() || indptr[rows] != indices.len() {
            return inconsistent("indptr, indices and values disagree on the entry count");
        }
        if indptr.windows(2).any(|w| w[0] > w[1]) {
            return inconsistent("indptr decreases");
        }
        if indices.iter().any(|&c| c as usize >= cols) {
            return inconsistent("a column index is out of range");
        }
        let unsorted = |r: &usize| {
            indices[indptr[*r]..indptr[r + 1]].windows(2).any(|c| c[0] >= c[1])
        };
        if let Some(row) = (0..rows).find(unsorted) {
            return Err(CsrError::Unsorted { row });
        }
        Ok(Csr {
            rows,
            cols,
            indptr,
            indices,
            values,
            t_cache: OnceLock::new(),
        })
    }

    /// Construct directly from CSR arrays; panics unless they meet the
    /// invariants ([`Csr::try_from_parts`] says which they break).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Csr {
        Csr::try_from_parts(rows, cols, indptr, indices, values)
            .unwrap_or_else(|e| panic!("from_parts: {e}"))
    }

    /// The `n x n` sparse identity.
    pub fn identity(n: usize) -> Csr {
        Csr {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
            t_cache: OnceLock::new(),
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The `(column, value)` pairs of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_indices(&self, i: usize) -> &[u32] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_values(&self, i: usize) -> &[f32] {
        &self.values[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Raw indptr array (for kernels that walk the structure directly, e.g.
    /// GAT's per-edge attention).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Raw column-index array.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Raw value array.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable value array (structure-preserving reweighting, e.g. GraphSAINT
    /// normalization). Drops the cached transpose — its values would go
    /// stale the moment the caller writes.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f32] {
        self.t_cache = OnceLock::new();
        &mut self.values
    }

    /// The transpose, materialized once on first use and cached for the
    /// lifetime of this matrix (or until [`Csr::values_mut`] invalidates
    /// it). This is what makes gather-form [`Csr::spmm_t`] pay the O(nnz)
    /// transpose cost once per training run instead of once per step.
    pub fn transposed(&self) -> &Csr {
        self.t_cache.get_or_init(|| {
            lasagne_obs::span!("csr.transpose");
            Box::new(self.transpose())
        })
    }

    /// Sparse × dense: `self · dense` — the hot kernel of every model in
    /// the stack. Column-blocked: each output row is built `CB` columns at
    /// a time in a stack accumulator, with the row's index/value segments
    /// fetched once and reused across blocks, so the dense operand moves
    /// through cache in small contiguous segments instead of whole rows
    /// per nonzero. Output rows are fanned out in nnz-balanced chunks —
    /// every chunk writes only its own rows, and each output element still
    /// accumulates its neighbors in stored (ascending-column) order, so
    /// the result is bitwise identical to the seed loop
    /// ([`Csr::spmm_reference`]) at any thread count.
    pub fn spmm(&self, dense: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm: {}x{} · {}x{}",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        let d = dense.cols();
        let mut out = Tensor::zeros(self.rows, d);
        if d == 0 || self.rows == 0 {
            return out;
        }
        lasagne_obs::span!("spmm");
        lasagne_obs::counter_add("spmm.nnz", self.values.len() as u64);
        let x = dense.as_slice();
        let (indptr, indices, values) = (&self.indptr, &self.indices, &self.values);
        lasagne_par::par_csr_row_chunks_mut(
            out.as_mut_slice(),
            d,
            indptr,
            lasagne_par::DEFAULT_CSR_CHUNK_NNZ,
            |i0, chunk| {
                for (r, o_row) in chunk.chunks_mut(d).enumerate() {
                    let (lo, hi) = (indptr[i0 + r], indptr[i0 + r + 1]);
                    spmm_row(o_row, &indices[lo..hi], &values[lo..hi], x);
                }
            },
        );
        out
    }

    /// Rows `rows` of `self · x` (any order, repeats allowed), bitwise
    /// equal to `self.spmm(x).gather_rows(rows)`, reading the operand rows
    /// in place by their own index. Each output row runs [`Csr::spmm`]'s
    /// row body over the same stored nonzeros in the same order, so no
    /// operator slice and no gathered copy of the operand are built. Rows
    /// of `x` that no demanded nonzero reads are never touched, so `x` may
    /// be `0 × w` when every demanded row is empty. Rows are fanned out in
    /// nnz-balanced chunks, as `spmm`'s are, and while one row is summed
    /// the next row's operand rows are prefetched.
    pub fn spmm_rows(&self, rows: &[usize], x: &Tensor) -> Tensor {
        let d = x.cols();
        let mut out = Tensor::zeros(rows.len(), d);
        if d == 0 || rows.is_empty() {
            return out;
        }
        lasagne_obs::span!("spmm");
        // Prefix nnz over the demanded rows: the chunker's indptr.
        let mut ptr = Vec::with_capacity(rows.len() + 1);
        ptr.push(0);
        for &r in rows {
            assert!(r < self.rows, "spmm_rows: row {r} of {}", self.rows);
            ptr.push(ptr[ptr.len() - 1] + self.row_nnz(r));
        }
        lasagne_obs::counter_add("spmm.nnz", ptr[rows.len()] as u64);
        let x = x.as_slice();
        let (indptr, indices, values) = (&self.indptr, &self.indices, &self.values);
        lasagne_par::par_csr_row_chunks_mut(
            out.as_mut_slice(),
            d,
            &ptr,
            lasagne_par::DEFAULT_CSR_CHUNK_NNZ,
            |k0, chunk| {
                for (k, o_row) in chunk.chunks_mut(d).enumerate() {
                    if let Some(&next) = rows.get(k0 + k + 1) {
                        for &j in &indices[indptr[next]..indptr[next + 1]] {
                            let base = j as usize * d;
                            prefetch(&x[base..base + d]);
                        }
                    }
                    let i = rows[k0 + k];
                    let (lo, hi) = (indptr[i], indptr[i + 1]);
                    spmm_row(o_row, &indices[lo..hi], &values[lo..hi], x);
                }
            },
        );
        out
    }

    /// Pinned copy of the seed (pre-blocking) SpMM loop, serial: whole-row
    /// axpy per nonzero. Exists so the bitwise-equivalence suite and the
    /// kernels bench can compare the blocked kernel against the exact code
    /// it replaced. Not part of the public API contract.
    #[doc(hidden)]
    pub fn spmm_reference(&self, dense: &Tensor) -> Tensor {
        assert_eq!(self.cols, dense.rows(), "spmm_reference: shape mismatch");
        let d = dense.cols();
        let mut out = Tensor::zeros(self.rows, d);
        if d == 0 || self.rows == 0 {
            return out;
        }
        for (i, o_row) in out.as_mut_slice().chunks_mut(d).enumerate() {
            for e in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[e] as usize;
                let v = self.values[e];
                for (o, &x) in o_row.iter_mut().zip(dense.row(j)) {
                    *o += v * x;
                }
            }
        }
        out
    }

    /// `selfᵀ · dense` without forming a transpose per call: runs
    /// [`Csr::spmm`] on the lazily [cached transpose](Csr::transposed).
    /// This is the backward pass of [`Csr::spmm`].
    ///
    /// Gather form replaces the old per-edge scatter (which copied a dense
    /// row per *source* row and could not row-partition); the transposed
    /// rows list source rows in ascending order — the scatter's exact
    /// accumulation order — so results are bitwise unchanged (the sparse
    /// `par_equivalence` suite keeps a scatter loop as the reference).
    pub fn spmm_t(&self, dense: &Tensor) -> Tensor {
        assert_eq!(
            self.rows,
            dense.rows(),
            "spmm_t: ({}x{})ᵀ · {}x{}",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        lasagne_obs::span!("spmm_t");
        self.transposed().spmm(dense)
    }

    /// Sparse × dense-vector specialization (used by PageRank).
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(self.cols, x.len(), "spmv: dimension mismatch");
        lasagne_obs::span!("spmv");
        lasagne_obs::counter_add("spmv.nnz", self.values.len() as u64);
        let mut out = vec![0.0; self.rows];
        let (indptr, indices, values) = (&self.indptr, &self.indices, &self.values);
        lasagne_par::par_csr_row_chunks_mut(
            &mut out,
            1,
            indptr,
            lasagne_par::DEFAULT_CSR_CHUNK_NNZ,
            |i0, chunk| {
                for (r, o) in chunk.iter_mut().enumerate() {
                    let i = i0 + r;
                    let mut acc = 0.0;
                    for e in indptr[i]..indptr[i + 1] {
                        acc += values[e] * x[indices[e] as usize];
                    }
                    *o = acc;
                }
            },
        );
        out
    }

    /// The transpose, materialized (counting sort over columns, O(nnz)).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 1..=self.cols {
            counts[i] += counts[i - 1];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let slot = cursor[c as usize];
                indices[slot] = r as u32;
                values[slot] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
            t_cache: OnceLock::new(),
        }
    }

    /// The flat nnz position of entry `(r, c)`, or `None` if the entry is
    /// not stored. Requires the column indices of row `r` to be sorted
    /// ascending, which every workspace constructor guarantees
    /// ([`Csr::from_coo`] sorts, [`Csr::transpose`] emits rows in order).
    /// This position is the row index into an aligned edge-feature matrix
    /// (`EdgeData`), which is why it is exposed.
    pub fn edge_position(&self, r: u32, c: u32) -> Option<usize> {
        let i = r as usize;
        if i >= self.rows {
            return None;
        }
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .binary_search(&c)
            .ok()
            .map(|off| lo + off)
    }

    /// For each entry of [`Csr::transpose`], the flat nnz position of the
    /// source entry it came from: `perm[t]` is the index into this matrix's
    /// value array whose `(r, c)` lands at transpose position `t`. Runs the
    /// same counting sort as `transpose()`, so the mapping is exact for any
    /// aligned side data — `EdgeData::transposed_with` applies it to keep
    /// edge-feature rows aligned across transposition.
    pub fn transpose_permutation(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 1..=self.cols {
            counts[i] += counts[i - 1];
        }
        let mut cursor = counts;
        let mut perm = vec![0usize; self.nnz()];
        for r in 0..self.rows {
            for e in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[e] as usize;
                perm[cursor[c]] = e;
                cursor[c] += 1;
            }
        }
        perm
    }

    /// Row sums (weighted out-degrees).
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|i| self.row_values(i).iter().sum())
            .collect()
    }

    /// Densify — for tests and tiny examples only.
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                out[(i, j as usize)] += v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [[0, 2, 0],
        //  [1, 0, 3],
        //  [0, 0, 0]]
        Csr::from_coo(3, 3, &[(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0)])
    }

    #[test]
    fn from_coo_builds_expected_structure() {
        let m = sample();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row_indices(0), &[1]);
        assert_eq!(m.row_values(1), &[1.0, 3.0]);
        assert_eq!(m.row_nnz(2), 0);
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let m = Csr::from_coo(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row_values(0), &[3.5]);
    }

    #[test]
    fn from_coo_handles_unsorted_input() {
        let a = Csr::from_coo(3, 3, &[(2, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let b = Csr::from_coo(3, 3, &[(0, 2, 2.0), (1, 1, 3.0), (2, 0, 1.0)]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_leading_and_trailing_rows() {
        let m = Csr::from_coo(4, 2, &[(2, 1, 5.0)]);
        assert_eq!(m.row_nnz(0), 0);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_values(2), &[5.0]);
        assert_eq!(m.row_nnz(3), 0);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let x = Tensor::from_fn(4, 3, |i, j| (i * 3 + j) as f32);
        assert!(Csr::identity(4).spmm(&x).approx_eq(&x, 0.0));
    }

    #[test]
    fn spmm_matches_dense() {
        let m = sample();
        let x = Tensor::from_fn(3, 2, |i, j| (i + j) as f32 + 0.5);
        assert!(m.spmm(&x).approx_eq(&m.to_dense().matmul(&x), 1e-6));
    }

    #[test]
    fn spmm_t_matches_dense_transpose() {
        let m = sample();
        let x = Tensor::from_fn(3, 2, |i, j| (2 * i + j) as f32);
        let expect = m.to_dense().transpose().matmul(&x);
        assert!(m.spmm_t(&x).approx_eq(&expect, 1e-6));
    }

    #[test]
    fn spmv_matches_spmm() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let via_mm = m.spmm(&Tensor::col_vector(&x));
        assert_eq!(m.spmv(&x), via_mm.col(0));
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert!(m
            .transpose()
            .to_dense()
            .approx_eq(&m.to_dense().transpose(), 0.0));
    }

    #[test]
    fn row_sums_are_weighted_degrees() {
        assert_eq!(sample().row_sums(), vec![2.0, 4.0, 0.0]);
    }

    #[test]
    fn transposed_is_cached_and_invalidated_by_values_mut() {
        let mut m = sample();
        let first: *const Csr = m.transposed();
        let second: *const Csr = m.transposed();
        assert_eq!(first, second, "second call must hit the cache");
        assert_eq!(m.transposed(), &m.transpose());
        // Reweighting must rebuild the transpose with the new values.
        m.values_mut()[0] = 10.0;
        assert_eq!(m.transposed(), &m.transpose());
        assert!(m.transposed().values().contains(&10.0));
    }

    #[test]
    fn clone_and_eq_ignore_the_transpose_cache() {
        let m = sample();
        let _ = m.transposed();
        let c = m.clone();
        assert_eq!(m, c, "cache must not affect equality");
        assert_eq!(c.transposed(), &c.transpose());
    }

    #[test]
    fn try_from_parts_names_the_broken_invariant() {
        let parts = |indptr: &[usize], indices: &[u32]| {
            let values = vec![1.0; indices.len()];
            Csr::try_from_parts(2, 9, indptr.to_vec(), indices.to_vec(), values)
        };
        let want = Csr::from_coo(2, 9, &[(0, 3, 1.0), (0, 5, 1.0), (1, 0, 1.0)]);
        assert_eq!(parts(&[0, 2, 3], &[3, 5, 0]), Ok(want));
        assert_eq!(parts(&[0, 2, 3], &[5, 3, 0]), Err(CsrError::Unsorted { row: 0 }));
        assert_eq!(parts(&[0, 1, 4], &[0, 2, 2, 4]), Err(CsrError::Unsorted { row: 1 }));
        let inconsistent: [(&[usize], &[u32]); 4] =
            [(&[0, 2], &[0, 1]), (&[1, 2, 3], &[0, 1]), (&[0, 2, 1], &[0, 1]), (&[0, 1, 2], &[0, 9])];
        for (indptr, indices) in inconsistent {
            let got = parts(indptr, indices);
            assert!(matches!(got, Err(CsrError::Inconsistent(_))), "{indptr:?} {indices:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn from_parts_refuses_a_repeated_column() {
        let _ = Csr::from_parts(1, 4, vec![0, 2], vec![2, 2], vec![1.0; 2]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn from_coo_bounds_checked() {
        let _ = Csr::from_coo(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "spmm")]
    fn spmm_shape_checked() {
        let _ = sample().spmm(&Tensor::ones(4, 2));
    }
}
