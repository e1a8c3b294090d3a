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
//! No kernel skips zero multipliers. The seed loops did (`a == 0.0` →
//! `continue`), and the references below still do, but for a finite right
//! operand an added `0·b` is `±0`, and adding `±0` to an accumulator that
//! started at `+0.0` changes no bits — so dense and skipping loops agree
//! bit for bit. They differ only on `0·∞` and `0·NaN`, which the dense
//! kernels turn into NaN as IEEE says. A branch per multiplier made
//! post-ReLU products about 4× slower (DESIGN.md §13), so every product, row
//! subsets included, runs the same branch-free micro-kernel.

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
/// reference kernels.
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
fn tile_mm(
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
fn tile_tn(
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
fn gemm_panel(
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
                tile_mm(c, m, i, j, MR, NR, a, a_stride, b, b_stride, klen);
            } else {
                tile_mm(c, m, i, j, mr, nr, a, a_stride, b, b_stride, klen);
            }
            i += MR;
        }
        j += NR;
    }
}

/// Blocked `matmul_tn` body over one pool chunk and one input-row panel.
fn tn_panel(
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
                tile_tn(c, m, i, j, MR, NR, a, a_stride, col0 + i, b, m, nrows);
            } else {
                tile_tn(c, m, i, j, mr, nr, a, a_stride, col0 + i, b, m, nrows);
            }
            i += MR;
        }
        j += NR;
    }
}

impl Tensor {
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
        let (a, b) = (&self.data, &other.data);
        // ≥ 32 rows per chunk so each k×NR B strip loaded into cache serves
        // at least 8 row tiles before the next chunk re-streams it.
        let chunk = round_up_tile(par_row_chunk(k * m).max(32));
        lasagne_par::par_row_chunks_mut(&mut out.data, m, chunk, |i0, c| {
            gemm_panel(c, m, &a[i0 * k..], k, b, m, c.len() / m, k);
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
    /// panels is exact).
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
                gemm_panel(c, m, &a[i0 * k + p0..], k, buf, m, c.len() / m, pl);
            });
            p0 += KC;
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
        let (a, b) = (&self.data, &other.data);
        // ≤ 16 column blocks of ≥ 16 columns: bounds the extra streaming of
        // `other` (once per block) while exposing enough chunks to balance.
        let chunk_rows = round_up_tile(k.div_ceil(16).max(16));
        lasagne_par::par_row_chunks_mut(&mut out.data, m, chunk_rows, |i0, c| {
            let cw = c.len() / m;
            let mut pn = 0;
            while pn < n {
                let pl = (n - pn).min(PC);
                tn_panel(c, m, cw, &a[pn * k..], k, i0, &b[pn * m..], pl);
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
            gemm_panel(c, m, &a[i0 * k..], k, &bt, m, c.len() / m, k);
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

    /// Pinned copy of the seed (pre-blocking) `matmul` loop nest, serial,
    /// with the seed's zero skip on every left operand. Exists so the
    /// bitwise-equivalence suites and the kernels bench can compare the
    /// blocked kernel against the exact code it replaced — and so they pin
    /// that the branch-free kernel equals a zero-skipping loop on finite
    /// operands. Not part of the public API contract.
    #[doc(hidden)]
    pub fn matmul_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul_reference: inner dims");
        let (k, m) = (self.cols, other.cols);
        let mut out = Tensor::zeros(self.rows, m);
        let (a, b) = (&self.data, &other.data);
        for i in 0..self.rows {
            let o_row = &mut out.data[i * m..(i + 1) * m];
            for (kk, &aik) in a[i * k..(i + 1) * k].iter().enumerate() {
                if aik != 0.0 {
                    axpy(o_row, aik, &b[kk * m..(kk + 1) * m]);
                }
            }
        }
        out
    }

    /// Pinned copy of the seed `matmul_tn` kernel (serial, one chunk per
    /// 16th of the output rows like the seed partitioner, zero skip
    /// included). See [`Tensor::matmul_reference`].
    #[doc(hidden)]
    pub fn matmul_tn_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "matmul_tn_reference: inner dims");
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(k, m);
        if n == 0 || k == 0 || m == 0 {
            return out;
        }
        let (a, b) = (&self.data, &other.data);
        let chunk_rows = k.div_ceil(16).max(16);
        let mut i0 = 0;
        while i0 < k {
            let cw = (k - i0).min(chunk_rows);
            let chunk = &mut out.data[i0 * m..(i0 + cw) * m];
            for row in 0..n {
                let a_seg = &a[row * k + i0..row * k + i0 + cw];
                let b_row = &b[row * m..(row + 1) * m];
                for (r, &av) in a_seg.iter().enumerate() {
                    if av != 0.0 {
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
        // A zero-heavy and a dense left operand run the same branch-free
        // kernel; both must match a naive triple loop.
        let a = Tensor::from_fn(5, 5, |i, j| if (i + j) % 3 == 0 { 1.5 } else { 0.0 });
        let dense_a = Tensor::from_fn(5, 5, |i, j| if (i + j) % 3 == 0 { 1.5 } else { 7.0 });
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
    fn blocked_kernels_match_seed_reference_bitwise() {
        // Odd shapes force edge tiles on both axes; the sparse variant
        // exercises the references' zero skip. `to_bits` equality, not
        // approx.
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
    fn row_subset_is_bitwise_slice_of_matmul() {
        // A zero-heavy and a dense left operand: selected rows, multiplied
        // on their own, must match the full product bit for bit, in
        // arbitrary order and with repeats.
        let sparse_a = Tensor::from_fn(6, 5, |i, j| if (i + j) % 3 == 0 { 0.37 * (i + 1) as f32 } else { 0.0 });
        let dense_a = Tensor::from_fn(6, 5, |i, j| 0.11 * (i * 5 + j + 1) as f32);
        let b = Tensor::from_fn(5, 4, |i, j| ((i * 4 + j) as f32).sin());
        for a in [&sparse_a, &dense_a] {
            let full = a.matmul(&b);
            let rows = [4usize, 0, 4, 2];
            let part = a.gather_rows(&rows).matmul(&b);
            assert_eq!(part.shape(), (4, 4));
            for (r, &i) in rows.iter().enumerate() {
                let got: Vec<u32> = part.row(r).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = full.row(i).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "row {i}");
            }
        }
        assert_eq!(sparse_a.gather_rows(&[]).matmul(&b).shape(), (0, 4));
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
