//! Dense matrix products.
//!
//! Three kernels cover forward and backward passes without materializing
//! transposes:
//! * `matmul`    — `C = A · B`
//! * `matmul_tn` — `C = Aᵀ · B` (weight gradients)
//! * `matmul_nt` — `C = A · Bᵀ` (input gradients)
//!
//! All three are register-blocked: the hot path is one `MR×NR` micro-kernel
//! body whose accumulator lives in a `[[f32; NR]; MR]` array and whose
//! inner loops run over contiguous slices with compile-time trip counts,
//! which is the shape LLVM's autovectorizer reliably lifts to SIMD. The
//! body is generic over `NR` and compiled twice (the `tile` module): `NR = 8`
//! (two SSE vectors per row) at the portable x86-64 baseline, and
//! `NR = 32` (two 512-bit vectors per row) inside an `avx512f`
//! target-feature function that runs when the CPU reports the feature. A
//! product whose width is not a multiple of `NR` runs its last column strip
//! through the same full-width tile over a zero-padded copy of that strip
//! of `B`, storing only the valid columns.
//!
//! Bitwise contract (DESIGN.md §8): every output element accumulates its
//! `k` products in ascending-`k` order starting from `+0.0`, exactly like
//! the seed loop nests, so tiling and vector width change arithmetic
//! *scheduling* but never the per-element operation sequence — results are
//! `to_bits`-identical to the pinned seed references below at any thread
//! count, on any CPU. (Panel splits store/reload the f32 accumulator
//! through `C`, which is exact; Rust never contracts `a * b + c` into a
//! fused multiply-add.) The pool still partitions *output rows* into chunks
//! whose size is a function of shape only, rounded to a tile multiple.
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
use tile::Tile;

/// Micro-tile height (output rows per register block), the same in every
/// instantiation, so pool chunks stay a function of shape only.
const MR: usize = 4;
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

/// A row-major operand read in place: element `(r, c)` is
/// `data[r * stride + c]`.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    stride: usize,
}

impl<'a> View<'a> {
    /// The same matrix from row `r` and column `c` on.
    fn at(self, r: usize, c: usize) -> View<'a> {
        View {
            data: &self.data[r * self.stride + c..],
            stride: self.stride,
        }
    }

    /// The first `len` entries of row `r`.
    #[inline(always)]
    fn row(&self, r: usize, len: usize) -> &'a [f32] {
        &self.data[r * self.stride..r * self.stride + len]
    }
}

/// The right operand of a product as the micro-kernels read it, one
/// `nr`-wide column strip at a time: whole strips straight from `full`, the
/// partial last strip (`m % nr` columns) from `tail`, a copy of it
/// zero-padded to `nr` columns.
#[derive(Clone, Copy)]
struct Strips<'a> {
    full: View<'a>,
    tail: View<'a>,
    /// Output columns: the width of `B`.
    m: usize,
}

impl<'a> Strips<'a> {
    /// `b` (`rows × m`) with its padded last strip `tail`, from [`pad_tail`]
    /// at the same `nr`.
    fn new(full: View<'a>, m: usize, tail: &'a [f32], nr: usize) -> Strips<'a> {
        Strips {
            full,
            tail: View {
                data: tail,
                stride: nr,
            },
            m,
        }
    }

    /// The same strips from input row `r` on.
    fn at_row(self, r: usize) -> Strips<'a> {
        let tail = if self.tail.data.is_empty() {
            self.tail
        } else {
            self.tail.at(r, 0)
        };
        Strips {
            full: self.full.at(r, 0),
            tail,
            m: self.m,
        }
    }
}

/// The partial last column strip of `b` (`rows × m`), zero-padded to `nr`
/// columns: `rows × nr` floats, empty when `nr` divides `m`. Packed once per
/// product and read by every chunk.
fn pad_tail(b: View, m: usize, rows: usize, nr: usize) -> Vec<f32> {
    let full = m - m % nr;
    if full == m {
        return Vec::new();
    }
    let mut tail = vec![0.0f32; rows * nr];
    for (r, dst) in tail.chunks_exact_mut(nr).enumerate() {
        dst[..m - full].copy_from_slice(&b.row(r, m)[full..]);
    }
    tail
}

/// The accumulator of one tile: the valid `mr × nr` corner of `c` (row
/// stride `cs`), `+0.0` elsewhere. Short copies go through a scratch row,
/// so the accumulator only ever sees whole-row moves and stays in
/// registers.
#[inline(always)]
fn load_tile<const NR: usize>(c: &[f32], cs: usize, mr: usize, nr: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, accr) in acc.iter_mut().enumerate() {
        if r < mr {
            let mut row = [0.0f32; NR];
            row[..nr].copy_from_slice(&c[r * cs..r * cs + nr]);
            *accr = row;
        }
    }
    acc
}

/// Stores the valid `mr × nr` corner of `acc` back into `c`; padded lanes
/// and rows are dropped.
#[inline(always)]
fn store_tile<const NR: usize>(
    acc: &[[f32; NR]; MR],
    c: &mut [f32],
    cs: usize,
    mr: usize,
    nr: usize,
) {
    for (r, accr) in acc.iter().enumerate() {
        if r < mr {
            let row = *accr;
            c[r * cs..r * cs + nr].copy_from_slice(&row[..nr]);
        }
    }
}

/// One tile row's update, `acc += a · b` lane by lane.
#[inline(always)]
fn row_update<const NR: usize>(acc: &mut [f32; NR], a: f32, b: &[f32; NR]) {
    for (o, &bb) in acc.iter_mut().zip(b) {
        *o += a * bb;
    }
}

/// The `MR×NR` micro-kernel, the one body every product runs:
/// `C[..mr, ..nr] += Σ_s a(s) ⊗ B[s, ..]` over steps `s` ascending, where
/// `a(s)` gives the tile's `MR` left multipliers at step `s` and `c` starts
/// at the tile's first element. Every lane runs: `b` has `NR` readable
/// columns per row (a whole strip, or the zero-padded tail), and a short
/// tile (`mr < MR`, a chunk's last rows) repeats its last valid row in the
/// spare ones; only the valid `mr × nr` corner is stored. Hot call sites
/// pass `MR`/`NR` so the inlined copy loads and stores whole rows.
///
/// The four rows are spelled out and the `B` row is copied by value: given
/// a row loop or a borrowed `B` row, LLVM (depending on the surrounding
/// code) left the 4×32 tile scalar or reshuffled `B` on every step.
#[inline(always)]
fn tile<const NR: usize>(
    c: &mut [f32],
    cs: usize,
    mr: usize,
    nr: usize,
    b: View,
    steps: usize,
    a: impl Fn(usize) -> [f32; MR],
) {
    let mut acc = load_tile::<NR>(c, cs, mr, nr);
    let [r0, r1, r2, r3] = &mut acc;
    for s in 0..steps {
        let [a0, a1, a2, a3] = a(s);
        let bv: [f32; NR] = *<&[f32; NR]>::try_from(b.row(s, NR)).expect("strips are NR wide");
        row_update(r0, a0, &bv);
        row_update(r1, a1, &bv);
        row_update(r2, a2, &bv);
        row_update(r3, a3, &bv);
    }
    store_tile(&acc, c, cs, mr, nr);
}

/// The strips of `b` in order: (first output column, valid width, the
/// strip's `NR`-wide view).
fn strips<'a, const NR: usize>(b: Strips<'a>) -> impl Iterator<Item = (usize, usize, View<'a>)> {
    let full = b.m - b.m % NR;
    (0..b.m).step_by(NR).map(move |j| {
        if j < full {
            (j, NR, b.full.at(0, j))
        } else {
            (j, b.m - j, b.tail)
        }
    })
}

/// Blocked `C[0..rows, :] += A[0..rows, :klen] · B[:klen, :]` over one pool
/// chunk (`c` is `rows × m`): each tile's step `kk` multiplies `A[.., kk]`
/// into row `kk` of `B`, ascending. Strips outer so the `klen × NR` B strip
/// stays cache-hot across the row tiles underneath it.
#[inline(always)]
fn gemm_panel<const NR: usize>(c: &mut [f32], a: View, b: Strips, klen: usize) {
    if klen == 0 {
        // Nothing to add to the `+0.0` output (and `B` has no rows to view).
        return;
    }
    let m = b.m;
    let rows = c.len() / m;
    for (j, nr, bs) in strips::<NR>(b) {
        for i in (0..rows).step_by(MR) {
            let mr = (rows - i).min(MR);
            let [a0, a1, a2, a3]: [&[f32]; MR] =
                std::array::from_fn(|r| a.row(i + r.min(mr - 1), klen));
            let at = |kk: usize| [a0[kk], a1[kk], a2[kk], a3[kk]];
            let ct = &mut c[i * m + j..];
            if mr == MR && nr == NR {
                tile::<NR>(ct, m, MR, NR, bs, klen, at);
            } else {
                tile::<NR>(ct, m, mr, nr, bs, klen, at);
            }
        }
    }
}

/// Blocked `matmul_tn` body over one pool chunk (`c` is `cw × m`: output
/// rows are the `cw` columns of `A` that `a` starts at) and one input-row
/// panel of `nrows` rows: each tile's step `row` multiplies its `mr`
/// contiguous floats of `A`'s row into that row of `B`, ascending.
#[inline(always)]
fn tn_panel<const NR: usize>(c: &mut [f32], a: View, b: Strips, nrows: usize) {
    let m = b.m;
    let cw = c.len() / m;
    for (j, nr, bs) in strips::<NR>(b) {
        for i in (0..cw).step_by(MR) {
            let mr = (cw - i).min(MR);
            let ai = a.at(0, i);
            let at = |row: usize| {
                let av = ai.row(row, mr);
                std::array::from_fn(|r| av[r.min(mr - 1)])
            };
            let ct = &mut c[i * m + j..];
            if mr == MR && nr == NR {
                tile::<NR>(ct, m, MR, NR, bs, nrows, at);
            } else {
                tile::<NR>(ct, m, mr, nr, bs, nrows, at);
            }
        }
    }
}

/// The compiled copies of the panel kernels. A [`Tile`] that runs the
/// `avx512f` copy can only be made by [`Tile::avx512`], after the CPU
/// reported the feature — the invariant this module's `unsafe` calls rest
/// on. Nothing else selects a copy: no option, no build flag.
mod tile {
    use super::{gemm_panel, tn_panel, Strips, View};

    /// `NR` of the portable copy: two 4-lane SSE vectors per tile row, the
    /// x86-64 baseline (and plain scalar code on other targets).
    const PORTABLE_NR: usize = 8;
    /// `NR` of the `avx512f` copy: two 512-bit vectors per tile row.
    #[cfg(target_arch = "x86_64")]
    const WIDE_NR: usize = 32;

    /// One instantiation of the blocked kernel body.
    #[derive(Clone, Copy)]
    pub(super) struct Tile {
        avx512: bool,
    }

    impl Tile {
        /// The `MR×PORTABLE_NR` tile, which every CPU runs.
        pub(super) const PORTABLE: Tile = Tile { avx512: false };

        /// The `MR×WIDE_NR` tile, if this CPU has `avx512f`.
        pub(super) fn avx512() -> Option<Tile> {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Some(Tile { avx512: true });
            }
            None
        }

        /// The widest tile this CPU runs.
        pub(super) fn best() -> Tile {
            Tile::avx512().unwrap_or(Tile::PORTABLE)
        }

        /// `"avx512f"` or `"portable"`.
        pub(super) fn name(self) -> &'static str {
            if self.avx512 {
                "avx512f"
            } else {
                "portable"
            }
        }

        /// Tile width `NR`: what [`super::pad_tail`] must pad to.
        pub(super) fn nr(self) -> usize {
            #[cfg(target_arch = "x86_64")]
            if self.avx512 {
                return WIDE_NR;
            }
            PORTABLE_NR
        }

        pub(super) fn gemm_panel(self, c: &mut [f32], a: View, b: Strips, klen: usize) {
            #[cfg(target_arch = "x86_64")]
            if self.avx512 {
                // SAFETY: a `Tile` with `avx512` set is only built by
                // `Tile::avx512`, after `is_x86_feature_detected!("avx512f")`
                // returned true, and `avx512f` is the only feature the
                // wrapper enables.
                return unsafe { wide::gemm_panel(c, a, b, klen) };
            }
            gemm_panel::<PORTABLE_NR>(c, a, b, klen)
        }

        pub(super) fn tn_panel(self, c: &mut [f32], a: View, b: Strips, nrows: usize) {
            #[cfg(target_arch = "x86_64")]
            if self.avx512 {
                // SAFETY: as in `gemm_panel` above — `avx512` is set only
                // after the CPU reported `avx512f`.
                return unsafe { wide::tn_panel(c, a, b, nrows) };
            }
            tn_panel::<PORTABLE_NR>(c, a, b, nrows)
        }
    }

    /// The same panel bodies (`#[inline(always)]`, so they are compiled
    /// here) with 512-bit vectors enabled.
    #[cfg(target_arch = "x86_64")]
    mod wide {
        use super::super::{Strips, View};
        use super::WIDE_NR;

        #[target_feature(enable = "avx512f")]
        pub(super) fn gemm_panel(c: &mut [f32], a: View, b: Strips, klen: usize) {
            super::super::gemm_panel::<WIDE_NR>(c, a, b, klen)
        }

        #[target_feature(enable = "avx512f")]
        pub(super) fn tn_panel(c: &mut [f32], a: View, b: Strips, nrows: usize) {
            super::super::tn_panel::<WIDE_NR>(c, a, b, nrows)
        }
    }
}

/// The kernel instantiation the dense products run on this CPU:
/// `"avx512f"` (a 4×32 register tile) or `"portable"` (4×8). Either
/// computes the same bits; benchmarks record it next to the core count.
pub fn gemm_isa() -> &'static str {
    Tile::best().name()
}

impl Tensor {
    /// `self · other`. Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_on(Tile::best(), other)
    }

    fn matmul_on(&self, tile: Tile, other: &Tensor) -> Tensor {
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
        let a = View {
            data: &self.data,
            stride: k,
        };
        let b = View {
            data: &other.data,
            stride: m,
        };
        let tail = pad_tail(b, m, k, tile.nr());
        let b = Strips::new(b, m, &tail, tile.nr());
        // ≥ 32 rows per chunk so each k×NR B strip loaded into cache serves
        // at least 8 row tiles before the next chunk re-streams it.
        let chunk = round_up_tile(par_row_chunk(k * m).max(32));
        lasagne_par::par_row_chunks_mut(&mut out.data, m, chunk, |i0, c| {
            tile.gemm_panel(c, a.at(i0, 0), b, k);
        });
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
        self.matmul_tn_on(Tile::best(), other)
    }

    fn matmul_tn_on(&self, tile: Tile, other: &Tensor) -> Tensor {
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
        let a = View {
            data: &self.data,
            stride: k,
        };
        let b = View {
            data: &other.data,
            stride: m,
        };
        let tail = pad_tail(b, m, n, tile.nr());
        let b = Strips::new(b, m, &tail, tile.nr());
        // ≤ 16 column blocks of ≥ 16 columns: bounds the extra streaming of
        // `other` (once per block) while exposing enough chunks to balance.
        let chunk_rows = round_up_tile(k.div_ceil(16).max(16));
        lasagne_par::par_row_chunks_mut(&mut out.data, m, chunk_rows, |i0, c| {
            for pn in (0..n).step_by(PC) {
                let pl = (n - pn).min(PC);
                tile.tn_panel(c, a.at(pn, i0), b.at_row(pn), pl);
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
        self.matmul_nt_on(Tile::best(), other)
    }

    fn matmul_nt_on(&self, tile: Tile, other: &Tensor) -> Tensor {
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
        let mut bt = vec![0.0f32; k * m];
        for j in 0..m {
            for (kk, &v) in other.data[j * k..(j + 1) * k].iter().enumerate() {
                bt[kk * m + j] = v;
            }
        }
        let a = View {
            data: &self.data,
            stride: k,
        };
        let b = View {
            data: &bt,
            stride: m,
        };
        let tail = pad_tail(b, m, k, tile.nr());
        let b = Strips::new(b, m, &tail, tile.nr());
        let chunk = round_up_tile(par_row_chunk(k * m).max(32));
        lasagne_par::par_row_chunks_mut(&mut out.data, m, chunk, |i0, c| {
            tile.gemm_panel(c, a.at(i0, 0), b, k);
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
    fn every_tile_instantiation_is_bitwise_the_seed_references() {
        // Each instantiation the host runs, called directly, so an
        // avx512f host still checks the portable tile. Widths straddle
        // both tile widths (padded last strips), row counts leave short
        // row tiles, `k = 0` is an empty sum and 262 input rows split
        // `matmul_tn` into two row panels. `A`
        // holds `±0.0` and one `±∞`/NaN in each of a few rows and columns:
        // the padded lanes of those rows turn non-finite, and must never
        // reach a stored column. (One special value per reduction keeps
        // NaN payloads unambiguous.)
        let mut tiles = vec![Tile::PORTABLE];
        match Tile::avx512() {
            Some(t) => tiles.push(t),
            None => eprintln!("avx512f not detected: skipping the avx512f tile"),
        }
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let value = |i: usize, j: usize, salt: usize| match (i * 7 + j * 3 + salt) % 13 {
            0 => -0.0,
            1 => 0.0,
            h => ((i * 131 + j * 71 + salt) as f32 * 0.37).sin() * (h as f32 - 6.0),
        };
        for tile in tiles {
            for m in [1, 7, 8, 31, 32, 33, 35, 65] {
                for k in [0, 1, 7, 32, 288] {
                    for n in [1, 6, 37, 262] {
                        let mut a = Tensor::from_fn(n, k, |i, j| value(i, j, 0));
                        let specials = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY];
                        for (t, &s) in specials.iter().enumerate() {
                            if let (Some(i), Some(j)) =
                                (n.checked_sub(1 + 2 * t), k.checked_sub(1 + t))
                            {
                                a[(i, j)] = s;
                            }
                        }
                        let b = Tensor::from_fn(k, m, |i, j| value(i, j, 1));
                        let bt = b.transpose();
                        let g = Tensor::from_fn(n, m, |i, j| value(i, j, 2));
                        let what = format!("{} {n}x{k}x{m}", tile.name());

                        let full = a.matmul_on(tile, &b);
                        assert_eq!(bits(&full), bits(&a.matmul_reference(&b)), "mm {what}");
                        let nt = a.matmul_nt_on(tile, &bt);
                        assert_eq!(bits(&nt), bits(&a.matmul_nt_reference(&bt)), "nt {what}");
                        let tn = a.matmul_tn_on(tile, &g);
                        assert_eq!(bits(&tn), bits(&a.matmul_tn_reference(&g)), "tn {what}");

                        let rows = [n - 1, 0, n / 2, n - 1, 0];
                        let part = a.gather_rows(&rows).matmul_on(tile, &b);
                        for (r, &i) in rows.iter().enumerate() {
                            let got: Vec<u32> = part.row(r).iter().map(|v| v.to_bits()).collect();
                            let want: Vec<u32> = full.row(i).iter().map(|v| v.to_bits()).collect();
                            assert_eq!(got, want, "subset row {i} {what}");
                        }
                    }
                }
            }
        }
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
