//! Dense matrix products.
//!
//! Three kernels cover forward and backward passes without materializing
//! transposes:
//! * `matmul`    — `C = A · B`
//! * `matmul_tn` — `C = Aᵀ · B` (weight gradients)
//! * `matmul_nt` — `C = A · Bᵀ` (input gradients)
//!
//! All three are register-blocked: the hot path is a fixed `MR×NR`
//! micro-kernel whose accumulator lives in a `[[f32; NR]; MR]` array and
//! whose inner loops run over contiguous slices with compile-time trip
//! counts, which is the shape LLVM's autovectorizer reliably lifts to SIMD
//! even at the portable x86-64 baseline. Edge tiles reuse the same
//! micro-kernel with runtime bounds (rare, cold). `matmul_packed_b` adds a
//! k-panel loop over a caller-packed right operand — the quantized serve
//! path dequantizes weight panels into it on the fly.
//!
//! Bitwise contract (DESIGN.md §8): every output element accumulates its
//! `k` products in ascending-`k` order starting from `+0.0`, exactly like
//! the seed loop nests, so tiling changes arithmetic *scheduling* but never
//! the per-element operation sequence — results are `to_bits`-identical to
//! the pinned seed references below at any thread count. (Panel splits
//! store/reload the f32 accumulator through `C`, which is exact.) The pool
//! still partitions *output rows* into chunks whose size is a function of
//! shape only, rounded to a tile multiple.
//!
//! `matmul` and `matmul_tn` skip zero multipliers, which is a large win on
//! the sparse one-hot-ish feature matrices GNN inputs tend to be — but the
//! branch costs real time on dense hidden-layer activations where it never
//! fires, so both kernels gate it on a cheap strided density probe of the
//! left operand. The skip test happens per element on the same `a == 0.0`
//! comparison as the seed, so the skip path is order-preserving too.

use crate::{par_row_chunk, Tensor};

/// Micro-tile height (output rows per register block).
const MR: usize = 4;
/// Micro-tile width (output columns per register block) — two 4-lane SSE
/// vectors, eight accumulator registers per tile.
const NR: usize = 8;
/// k-panel length for [`Tensor::matmul_packed_b`]: the packed right operand
/// is materialized at most `KC` rows at a time (`KC × m` floats of scratch).
const KC: usize = 256;
/// Input-row panel for `matmul_tn`: bounds the working set of the `A` tile
/// panel (`PC × MR` floats) and `B` strip panel (`PC × NR`) to L1-ish size.
const PC: usize = 256;

/// Round a row-chunk size up to a whole number of `MR` tiles so micro-tiles
/// never straddle a pool chunk boundary. (Chunk size is a function of shape
/// only — bitwise-safe to change, per the determinism contract.)
fn round_up_tile(rows: usize) -> usize {
    rows.div_ceil(MR) * MR
}

/// `o += a * b` over a contiguous row — the inner loop of the pinned seed
/// reference kernels and of `matmul_with_skip`.
#[inline]
fn axpy(o: &mut [f32], a: f32, b: &[f32]) {
    for (o, &b) in o.iter_mut().zip(b) {
        *o += a * b;
    }
}

/// The `MR×NR` micro-kernel for `matmul`-layout products: `C[i.., j..] +=
/// A[i.., :klen] · B[:klen, j..]` where `A` rows are strided (`a_stride`)
/// and `B` rows are contiguous at `b_stride`. `mr`/`nr` are runtime bounds
/// for edge tiles; the hot call site passes the `MR`/`NR` constants so the
/// inlined copy fully unrolls. Accumulates ascending `kk` per element.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_mm<const SKIP: bool>(
    c: &mut [f32],
    cs: usize,
    i: usize,
    j: usize,
    mr: usize,
    nr: usize,
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    b_stride: usize,
    klen: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for r in 0..mr {
        let crow = &c[(i + r) * cs + j..];
        for cc in 0..nr {
            acc[r][cc] = crow[cc];
        }
    }
    for kk in 0..klen {
        let bv = &b[kk * b_stride + j..kk * b_stride + j + nr];
        for r in 0..mr {
            let av = a[(i + r) * a_stride + kk];
            if SKIP && av == 0.0 {
                continue;
            }
            let accr = &mut acc[r];
            for cc in 0..nr {
                accr[cc] += av * bv[cc];
            }
        }
    }
    for r in 0..mr {
        let crow = &mut c[(i + r) * cs + j..];
        for cc in 0..nr {
            crow[cc] = acc[r][cc];
        }
    }
}

/// The `MR×NR` micro-kernel for `matmul_tn`: the tile covers `MR` columns
/// of `A` (= output rows `ti..`) × `NR` columns of `B`, and reduces over
/// `nrows` input rows ascending — both loads contiguous (`A` segment of
/// `mr`, `B` segment of `nr` per row), the outer-product update in
/// registers. `ci` is the absolute `A`-column of the tile's first row.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_tn<const SKIP: bool>(
    c: &mut [f32],
    cs: usize,
    ti: usize,
    j: usize,
    mr: usize,
    nr: usize,
    a: &[f32],
    a_stride: usize,
    ci: usize,
    b: &[f32],
    b_stride: usize,
    nrows: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for r in 0..mr {
        let crow = &c[(ti + r) * cs + j..];
        for cc in 0..nr {
            acc[r][cc] = crow[cc];
        }
    }
    for row in 0..nrows {
        let av = &a[row * a_stride + ci..row * a_stride + ci + mr];
        let bv = &b[row * b_stride + j..row * b_stride + j + nr];
        for r in 0..mr {
            let ar = av[r];
            if SKIP && ar == 0.0 {
                continue;
            }
            let accr = &mut acc[r];
            for cc in 0..nr {
                accr[cc] += ar * bv[cc];
            }
        }
    }
    for r in 0..mr {
        let crow = &mut c[(ti + r) * cs + j..];
        for cc in 0..nr {
            crow[cc] = acc[r][cc];
        }
    }
}

/// Blocked `C[0..rows, :] += A[0..rows, :klen] · B[:klen, :]` over one pool
/// chunk. `j`-strips outer so the `klen × NR` B strip stays cache-hot
/// across the row tiles underneath it.
fn gemm_panel<const SKIP: bool>(
    c: &mut [f32],
    m: usize,
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    b_stride: usize,
    rows: usize,
    klen: usize,
) {
    let mut j = 0;
    while j < m {
        let nr = (m - j).min(NR);
        let mut i = 0;
        while i < rows {
            let mr = (rows - i).min(MR);
            if mr == MR && nr == NR {
                tile_mm::<SKIP>(c, m, i, j, MR, NR, a, a_stride, b, b_stride, klen);
            } else {
                tile_mm::<SKIP>(c, m, i, j, mr, nr, a, a_stride, b, b_stride, klen);
            }
            i += MR;
        }
        j += NR;
    }
}

/// Blocked `matmul_tn` body over one pool chunk and one input-row panel.
fn tn_panel<const SKIP: bool>(
    c: &mut [f32],
    m: usize,
    cw: usize,
    a: &[f32],
    a_stride: usize,
    col0: usize,
    b: &[f32],
    nrows: usize,
) {
    let mut j = 0;
    while j < m {
        let nr = (m - j).min(NR);
        let mut i = 0;
        while i < cw {
            let mr = (cw - i).min(MR);
            if mr == MR && nr == NR {
                tile_tn::<SKIP>(c, m, i, j, MR, NR, a, a_stride, col0 + i, b, m, nrows);
            } else {
                tile_tn::<SKIP>(c, m, i, j, mr, nr, a, a_stride, col0 + i, b, m, nrows);
            }
            i += MR;
        }
        j += NR;
    }
}

impl Tensor {
    /// Flat element positions the zero-skip density probe samples in a
    /// `len`-element left operand: `0, step, 2·step, …` with
    /// `step = ceil(len / 64)`, so at most 64 samples spread over the whole
    /// buffer (a floor-rounded stride would sample only the head for `len`
    /// slightly above 64 and misclassify tail-sparse matrices).
    pub fn probe_positions(len: usize) -> std::iter::StepBy<std::ops::Range<usize>> {
        const SAMPLES: usize = 64;
        (0..len).step_by(len.div_ceil(SAMPLES).max(1))
    }

    /// The probe's verdict for a `len`-element left operand whose flat
    /// element `f` is `sample(f)`: do its [`Tensor::probe_positions`] hold
    /// enough exact zeros (≥ ¼) that the zero-skip branch in the matmul
    /// inner loops pays for itself? One-hot-ish feature matrices say yes;
    /// dense activations say no. The branch changes bits only when the
    /// right operand is not finite (`0 · ∞` is NaN, a skipped zero adds
    /// nothing), but a row subset must still reuse the verdict of the whole
    /// operand (see [`Tensor::matmul_with_skip`]).
    pub fn probe_verdict(len: usize, sample: impl Fn(usize) -> f32) -> bool {
        let (mut zeros, mut total) = (0usize, 0usize);
        for f in Tensor::probe_positions(len) {
            zeros += usize::from(sample(f) == 0.0);
            total += 1;
        }
        total > 0 && zeros * 4 >= total
    }

    fn looks_sparse(&self) -> bool {
        Tensor::probe_verdict(self.data.len(), |f| self.data[f])
    }

    /// `self · other`. Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(n, m);
        if n == 0 || m == 0 {
            return out;
        }
        lasagne_obs::span!("matmul");
        lasagne_obs::counter_add("matmul.flops", 2 * (n * k * m) as u64);
        let skip = self.looks_sparse();
        let (a, b) = (&self.data, &other.data);
        // ≥ 32 rows per chunk so each k×NR B strip loaded into cache serves
        // at least 8 row tiles before the next chunk re-streams it.
        let chunk = round_up_tile(par_row_chunk(k * m).max(32));
        lasagne_par::par_row_chunks_mut(&mut out.data, m, chunk, |i0, c| {
            let rows = c.len() / m;
            if skip {
                gemm_panel::<true>(c, m, &a[i0 * k..], k, b, m, rows, k);
            } else {
                gemm_panel::<false>(c, m, &a[i0 * k..], k, b, m, rows, k);
            }
        });
        out
    }

    /// `self · B` where the caller materializes the right operand in
    /// k-panels: `pack(p0, p1, buf)` must fill `buf` (`(p1-p0) × b_cols`,
    /// row-major) with rows `p0..p1` of `B`. The quantized serve engine
    /// dequantizes weight panels here so the int8/f16 weights never exist
    /// as a full f32 matrix; a pack that plain-copies rows of a resident
    /// `B` makes this bitwise-identical to `matmul` (same per-element
    /// ascending-`k` accumulation; the f32 store/reload of `C` between
    /// panels is exact, and the zero-skip probe is the same left-operand
    /// probe either way).
    pub fn matmul_packed_b<F>(&self, b_rows: usize, b_cols: usize, mut pack: F) -> Tensor
    where
        F: FnMut(usize, usize, &mut [f32]),
    {
        assert_eq!(
            self.cols, b_rows,
            "matmul_packed_b: {}x{} · {}x{}",
            self.rows, self.cols, b_rows, b_cols
        );
        let (n, k, m) = (self.rows, b_rows, b_cols);
        let mut out = Tensor::zeros(n, m);
        if n == 0 || m == 0 {
            return out;
        }
        lasagne_obs::span!("matmul");
        lasagne_obs::counter_add("matmul.flops", 2 * (n * k * m) as u64);
        let skip = self.looks_sparse();
        let a = &self.data;
        let chunk = round_up_tile(par_row_chunk(k * m).max(32));
        let mut panel = vec![0.0f32; KC.min(k) * m];
        let mut p0 = 0;
        while p0 < k {
            let pl = (k - p0).min(KC);
            let buf = &mut panel[..pl * m];
            pack(p0, p0 + pl, buf);
            let buf = &*buf;
            lasagne_par::par_row_chunks_mut(&mut out.data, m, chunk, |i0, c| {
                let rows = c.len() / m;
                if skip {
                    gemm_panel::<true>(c, m, &a[i0 * k + p0..], k, buf, m, rows, pl);
                } else {
                    gemm_panel::<false>(c, m, &a[i0 * k + p0..], k, buf, m, rows, pl);
                }
            });
            p0 += KC;
        }
        out
    }

    /// `self · other` on the seed axpy loop with a **caller-supplied**
    /// zero-skip decision in place of the internal density probe. Bitwise
    /// identical to [`Tensor::matmul`] whenever `skip` equals what
    /// [`Tensor::probe_verdict`] reports for the left operand of that
    /// product — so a row subset of a left operand, multiplied with the
    /// verdict of the whole operand, gives exactly those rows of the whole
    /// product. This is the row-subset matmul of the program evaluator
    /// (DESIGN.md §10, "One evaluator").
    pub fn matmul_with_skip(&self, other: &Tensor, skip: bool) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul_with_skip: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, m) = (self.cols, other.cols);
        let mut out = Tensor::zeros(self.rows, m);
        if self.rows == 0 || m == 0 {
            return out;
        }
        let (a, b) = (&self.data, &other.data);
        for i in 0..self.rows {
            let a_row = &a[i * k..(i + 1) * k];
            let o_row = &mut out.data[i * m..(i + 1) * m];
            if skip {
                for (kk, &aik) in a_row.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    axpy(o_row, aik, &b[kk * m..(kk + 1) * m]);
                }
            } else {
                for (kk, &aik) in a_row.iter().enumerate() {
                    axpy(o_row, aik, &b[kk * m..(kk + 1) * m]);
                }
            }
        }
        out
    }

    /// `selfᵀ · other` without forming the transpose.
    /// Panics if `self.rows != other.rows`.
    ///
    /// Partitions *output* rows (columns of `self`) for the pool exactly as
    /// before, then walks each chunk in `PC`-row input panels of `MR×NR`
    /// outer-product tiles: both per-row loads are contiguous segments, and
    /// each output element still accumulates over input rows in ascending
    /// order — the serial scatter order, bit for bit.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(k, m);
        if n == 0 || k == 0 || m == 0 {
            return out;
        }
        lasagne_obs::span!("matmul_tn");
        lasagne_obs::counter_add("matmul.flops", 2 * (n * k * m) as u64);
        let skip = self.looks_sparse();
        let (a, b) = (&self.data, &other.data);
        // ≤ 16 column blocks of ≥ 16 columns: bounds the extra streaming of
        // `other` (once per block) while exposing enough chunks to balance.
        let chunk_rows = round_up_tile(k.div_ceil(16).max(16));
        lasagne_par::par_row_chunks_mut(&mut out.data, m, chunk_rows, |i0, c| {
            let cw = c.len() / m;
            let mut pn = 0;
            while pn < n {
                let pl = (n - pn).min(PC);
                if skip {
                    tn_panel::<true>(c, m, cw, &a[pn * k..], k, i0, &b[pn * m..], pl);
                } else {
                    tn_panel::<false>(c, m, cw, &a[pn * k..], k, i0, &b[pn * m..], pl);
                }
                pn += PC;
            }
        });
        out
    }

    /// `self · otherᵀ` without forming the transpose in the *caller*: the
    /// kernel packs `otherᵀ` once (`k × m` floats, a vanishing cost next to
    /// the `2nkm` flops) and runs the blocked `matmul` body over it, which
    /// turns the seed's strided scalar dot products into the same
    /// contiguous micro-kernel as `matmul`. Per-element accumulation stays
    /// ascending over the shared inner dimension — bitwise what the seed
    /// computed. Panics if `self.cols != other.cols`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.rows);
        let mut out = Tensor::zeros(n, m);
        if n == 0 || m == 0 {
            return out;
        }
        lasagne_obs::span!("matmul_nt");
        lasagne_obs::counter_add("matmul.flops", 2 * (n * k * m) as u64);
        let (a, b) = (&self.data, &other.data);
        let mut bt = vec![0.0f32; k * m];
        for j in 0..m {
            let b_row = &b[j * k..(j + 1) * k];
            for (kk, &v) in b_row.iter().enumerate() {
                bt[kk * m + j] = v;
            }
        }
        let chunk = round_up_tile(par_row_chunk(k * m).max(32));
        lasagne_par::par_row_chunks_mut(&mut out.data, m, chunk, |i0, c| {
            let rows = c.len() / m;
            // No zero-skip: the seed `nt` kernel never had one (gradient
            // operands are dense), and adding it would change the probe
            // surface, not the bits.
            gemm_panel::<false>(c, m, &a[i0 * k..], k, &bt, m, rows, k);
        });
        out
    }

    /// Dot product of two equally-shaped tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "dot: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Pinned copy of the seed (pre-blocking) `matmul` loop nest, serial.
    /// Exists so the bitwise-equivalence suites and the kernels bench can
    /// compare the blocked kernel against the exact code it replaced.
    /// Not part of the public API contract.
    #[doc(hidden)]
    pub fn matmul_reference(&self, other: &Tensor) -> Tensor {
        // The seed loop nest is the axpy loop `matmul_with_skip` runs, with
        // the verdict of the operand's own probe — so that loop must stay
        // the unblocked seed loop.
        self.matmul_with_skip(other, self.looks_sparse())
    }

    /// Pinned copy of the seed `matmul_tn` kernel (serial, one chunk per
    /// 16th of the output rows like the seed partitioner). See
    /// [`Tensor::matmul_reference`].
    #[doc(hidden)]
    pub fn matmul_tn_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "matmul_tn_reference: inner dims");
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(k, m);
        if n == 0 || k == 0 || m == 0 {
            return out;
        }
        let skip = self.looks_sparse();
        let (a, b) = (&self.data, &other.data);
        let chunk_rows = k.div_ceil(16).max(16);
        let mut i0 = 0;
        while i0 < k {
            let cw = (k - i0).min(chunk_rows);
            let chunk = &mut out.data[i0 * m..(i0 + cw) * m];
            for row in 0..n {
                let a_seg = &a[row * k + i0..row * k + i0 + cw];
                let b_row = &b[row * m..(row + 1) * m];
                if skip {
                    for (r, &av) in a_seg.iter().enumerate() {
                        if av == 0.0 {
                            continue;
                        }
                        axpy(&mut chunk[r * m..(r + 1) * m], av, b_row);
                    }
                } else {
                    for (r, &av) in a_seg.iter().enumerate() {
                        axpy(&mut chunk[r * m..(r + 1) * m], av, b_row);
                    }
                }
            }
            i0 += cw;
        }
        out
    }

    /// Pinned copy of the seed `matmul_nt` kernel (serial scalar dots).
    /// See [`Tensor::matmul_reference`].
    #[doc(hidden)]
    pub fn matmul_nt_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_nt_reference: inner dims");
        let (n, k, m) = (self.rows, self.cols, other.rows);
        let mut out = Tensor::zeros(n, m);
        if n == 0 || m == 0 {
            return out;
        }
        let (a, b) = (&self.data, &other.data);
        for (i, o_row) in out.data.chunks_mut(m).enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            for (j, o) in o_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: &[&[f32]]) -> Tensor {
        Tensor::from_rows(rows)
    }

    #[test]
    fn matmul_known_product() {
        let a = t(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = t(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(a.matmul(&b), t(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_fn(3, 3, |i, j| (i + 2 * j) as f32);
        assert_eq!(a.matmul(&Tensor::eye(3)), a);
        assert_eq!(Tensor::eye(3).matmul(&a), a);
    }

    #[test]
    fn rectangular_shapes() {
        let a = Tensor::ones(2, 3);
        let b = Tensor::ones(3, 4);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 4));
        assert!(c.approx_eq(&Tensor::full(2, 4, 3.0), 1e-6));
    }

    #[test]
    fn tn_equals_explicit_transpose() {
        let a = Tensor::from_fn(4, 3, |i, j| (i as f32 - j as f32) * 0.5);
        let b = Tensor::from_fn(4, 2, |i, j| (i * j) as f32 + 1.0);
        assert!(a.matmul_tn(&b).approx_eq(&a.transpose().matmul(&b), 1e-5));
    }

    #[test]
    fn tn_equals_explicit_transpose_beyond_one_block() {
        // > 16 columns exercises the block partitioner's interior bounds.
        let a = Tensor::from_fn(9, 37, |i, j| ((i * 37 + j) % 7) as f32 - 3.0);
        let b = Tensor::from_fn(9, 5, |i, j| (i as f32) * 0.3 - j as f32);
        assert!(a.matmul_tn(&b).approx_eq(&a.transpose().matmul(&b), 1e-4));
    }

    #[test]
    fn nt_equals_explicit_transpose() {
        let a = Tensor::from_fn(2, 5, |i, j| (i + j) as f32 * 0.25);
        let b = Tensor::from_fn(3, 5, |i, j| (i as f32) - 0.1 * j as f32);
        assert!(a.matmul_nt(&b).approx_eq(&a.matmul(&b.transpose()), 1e-5));
    }

    #[test]
    fn zero_skip_does_not_change_result() {
        // The probe sends ≥-¼-zeros matrices down the skip path and dense
        // ones down the no-branch path; both must match a naive triple
        // loop.
        let a = Tensor::from_fn(5, 5, |i, j| if (i + j) % 3 == 0 { 1.5 } else { 0.0 });
        let dense_a = Tensor::from_fn(5, 5, |i, j| if (i + j) % 3 == 0 { 1.5 } else { 7.0 });
        assert!(a.looks_sparse());
        assert!(!dense_a.looks_sparse());
        let b = Tensor::from_fn(5, 4, |i, j| (i * 4 + j) as f32);
        let reference = |l: &Tensor, r: &Tensor| {
            let mut out = Tensor::zeros(l.rows(), r.cols());
            for i in 0..l.rows() {
                for kk in 0..l.cols() {
                    for j in 0..r.cols() {
                        out[(i, j)] += l.get(i, kk) * r.get(kk, j);
                    }
                }
            }
            out
        };
        assert!(a.matmul(&b).approx_eq(&reference(&a, &b), 1e-6));
        assert!(dense_a.matmul(&b).approx_eq(&reference(&dense_a, &b), 1e-6));
    }

    #[test]
    fn density_probe_classifies_extremes() {
        assert!(Tensor::zeros(8, 8).looks_sparse());
        assert!(!Tensor::ones(8, 8).looks_sparse());
        assert!(!Tensor::zeros(0, 0).looks_sparse());
        // One-hot rows: exactly one nonzero in 16 columns.
        let onehot = Tensor::from_fn(32, 16, |i, j| if i % 16 == j { 1.0 } else { 0.0 });
        assert!(onehot.looks_sparse());
    }

    #[test]
    fn density_probe_covers_the_tail() {
        // len = 100: the old floor-rounded stride (100/64 = 1) sampled only
        // elements 0..63 — a dense head hid a sparse tail entirely. The
        // ceil-rounded stride (2) spans the buffer: 18 of 50 samples land
        // in the 36-zero tail (36% ≥ 25% → sparse).
        let tail_sparse = Tensor::from_fn(10, 10, |i, j| if i * 10 + j < 64 { 1.0 } else { 0.0 });
        assert!(tail_sparse.looks_sparse());
        // Mirror image: zeros in the head, dense tail — same 36% zero rate,
        // same verdict, so the probe is position-blind.
        let head_sparse = Tensor::from_fn(10, 10, |i, j| if i * 10 + j < 36 { 0.0 } else { 1.0 });
        assert!(head_sparse.looks_sparse());
        // A 20-zero tail stays under the ¼ threshold → dense.
        let barely = Tensor::from_fn(10, 10, |i, j| if i * 10 + j < 80 { 1.0 } else { 0.0 });
        assert!(!barely.looks_sparse());
    }

    #[test]
    fn blocked_kernels_match_seed_reference_bitwise() {
        // Odd shapes force edge tiles on both axes; the sparse variant
        // exercises the skip path. `to_bits` equality, not approx.
        for (n, k, m, sparse) in
            [(7, 5, 9, false), (13, 11, 17, true), (4, 8, 8, false), (1, 1, 1, true)]
        {
            let a = Tensor::from_fn(n, k, |i, j| {
                if sparse && (i + j) % 3 != 0 {
                    0.0
                } else {
                    ((i * k + j) as f32).sin()
                }
            });
            let b = Tensor::from_fn(k, m, |i, j| ((i * m + j) as f32).cos());
            let bt = b.transpose();
            let rhs = Tensor::from_fn(n, m, |i, j| ((i + 2 * j) as f32).cos() * 0.5);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.matmul(&b)), bits(&a.matmul_reference(&b)), "mm {n}x{k}x{m}");
            assert_eq!(bits(&a.matmul_nt(&bt)), bits(&a.matmul_nt_reference(&bt)), "nt");
            assert_eq!(bits(&a.matmul_tn(&rhs)), bits(&a.matmul_tn_reference(&rhs)), "tn");
        }
    }

    #[test]
    fn packed_b_copy_pack_is_bitwise_matmul() {
        // A pack that plain-copies B rows must reproduce `matmul` exactly,
        // including across k-panel splits (k > KC forces ≥ 2 panels).
        let (n, k, m) = (5, super::KC + 3, 6);
        let a = Tensor::from_fn(n, k, |i, j| ((i * k + j) as f32 * 0.37).sin());
        let b = Tensor::from_fn(k, m, |i, j| ((i + j) as f32 * 0.11).cos());
        let packed = a.matmul_packed_b(k, m, |p0, p1, buf| {
            buf.copy_from_slice(&b.as_slice()[p0 * m..p1 * m]);
        });
        let direct = a.matmul(&b);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&packed), bits(&direct));
    }

    #[test]
    fn row_subset_with_whole_verdict_is_bitwise_slice_of_matmul() {
        // Both probe branches: a sparse left operand (skip path) and a dense
        // one (no-branch path). Selected rows, multiplied with the verdict
        // of the whole operand, must match the full product bit for bit, in
        // arbitrary order and with repeats.
        let sparse_a = Tensor::from_fn(6, 5, |i, j| if (i + j) % 3 == 0 { 0.37 * (i + 1) as f32 } else { 0.0 });
        let dense_a = Tensor::from_fn(6, 5, |i, j| 0.11 * (i * 5 + j + 1) as f32);
        let b = Tensor::from_fn(5, 4, |i, j| ((i * 4 + j) as f32).sin());
        for a in [&sparse_a, &dense_a] {
            let full = a.matmul(&b);
            let rows = [4usize, 0, 4, 2];
            let part = a.gather_rows(&rows).matmul_with_skip(&b, a.looks_sparse());
            assert_eq!(part.shape(), (4, 4));
            for (r, &i) in rows.iter().enumerate() {
                let got: Vec<u32> = part.row(r).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = full.row(i).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "row {i}");
            }
        }
        assert_eq!(sparse_a.gather_rows(&[]).matmul_with_skip(&b, true).shape(), (0, 4));
    }

    #[test]
    fn matmul_with_skip_matches_matmul_when_skip_matches_probe() {
        // Same two probe classes as above; the explicit flag with the value
        // looks_sparse would pick must reproduce the full product bitwise.
        let sparse_a = Tensor::from_fn(6, 5, |i, j| if (i + j) % 3 == 0 { 0.37 * (i + 1) as f32 } else { 0.0 });
        let dense_a = Tensor::from_fn(6, 5, |i, j| 0.11 * (i * 5 + j + 1) as f32);
        let b = Tensor::from_fn(5, 4, |i, j| ((i * 4 + j) as f32).cos());
        for a in [&sparse_a, &dense_a] {
            let full = a.matmul(&b);
            let ours = a.matmul_with_skip(&b, a.looks_sparse());
            let got: Vec<u32> = ours.as_slice().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = full.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn probe_verdict_reads_only_the_sampled_positions() {
        // The verdict from an accessor over the sampled positions is the
        // verdict of the whole tensor; unsampled elements never matter.
        for t in [
            Tensor::from_fn(10, 10, |i, j| if i * 10 + j < 64 { 1.0 } else { 0.0 }),
            Tensor::from_fn(9, 13, |i, j| if (i * j) % 4 == 0 { 0.0 } else { 2.0 }),
            Tensor::ones(3, 3),
        ] {
            let sampled: Vec<usize> = Tensor::probe_positions(t.len()).collect();
            assert!(sampled.len() <= 64);
            let via_samples = Tensor::probe_verdict(t.len(), |f| {
                assert!(sampled.contains(&f), "position {f} is not a probe sample");
                t.as_slice()[f]
            });
            assert_eq!(via_samples, t.looks_sparse());
        }
        assert_eq!(Tensor::probe_positions(0).count(), 0);
        assert!(!Tensor::probe_verdict(0, |_| 0.0));
    }

    #[test]
    fn dot_is_flat_inner_product() {
        let a = t(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = t(&[&[2.0, 0.5], &[1.0, 1.0]]);
        assert_eq!(a.dot(&b), 1.0 * 2.0 + 2.0 * 0.5 + 3.0 + 4.0);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn mismatched_inner_dims_panic() {
        let _ = Tensor::ones(2, 3).matmul(&Tensor::ones(4, 2));
    }
}
