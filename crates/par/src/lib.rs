//! `lasagne-par`: a zero-registry-dependency, `std::thread`-based parallel
//! runtime for the Lasagne kernels.
//!
//! A single persistent worker pool is spawned on first use, sized by (in
//! precedence order) [`set_threads`], the `LASAGNE_THREADS` environment
//! variable, then [`std::thread::available_parallelism`]. Entry points split
//! work into chunks and fan the chunks out over the pool; with one thread —
//! or one chunk, or from inside another parallel region — they run inline
//! with zero pool traffic.
//!
//! # Determinism contract
//!
//! Every entry point guarantees results **bitwise identical** to a
//! single-threaded run, for any thread count:
//!
//! 1. **Fixed chunk boundaries.** Chunks are a pure function of the problem
//!    shape (row count / chunk size / CSR `indptr`), never of the thread
//!    count. Threads only race for *which worker* executes a chunk.
//! 2. **Disjoint writes.** Each chunk owns an exclusive slice of the output
//!    (a contiguous row range); no two chunks write the same element.
//! 3. **Unchanged accumulation order.** Within a chunk, elements are
//!    computed in the same order as the serial loop, so no floating-point
//!    reassociation can occur.
//!
//! Kernels that *reduce across* chunk boundaries (e.g. `Tensor::sum`) keep
//! the contract by always using the same fixed chunk tree and combining the
//! per-chunk partials in chunk order — again independent of thread count.
//!
//! This is what keeps the stack's same-seed-training and kill→resume
//! bitwise-equality guarantees intact when `LASAGNE_THREADS` varies between
//! runs (DESIGN.md §8).

mod pool;

pub use pool::total_threads_spawned;

use std::ops::Range;
use std::sync::{Arc, RwLock};

use pool::Pool;

/// Default nnz budget per chunk for the CSR partitioner: small enough to
/// balance skewed degree distributions, large enough that per-chunk
/// dispatch cost is noise.
pub const DEFAULT_CSR_CHUNK_NNZ: usize = 4096;

static POOL: RwLock<Option<Arc<Pool>>> = RwLock::new(None);

fn default_threads() -> usize {
    if let Ok(raw) = std::env::var("LASAGNE_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("lasagne-par: ignoring invalid LASAGNE_THREADS={raw:?}");
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn pool() -> Arc<Pool> {
    if let Some(p) = POOL.read().unwrap_or_else(|e| e.into_inner()).as_ref() {
        return Arc::clone(p);
    }
    let mut slot = POOL.write().unwrap_or_else(|e| e.into_inner());
    if let Some(p) = slot.as_ref() {
        return Arc::clone(p);
    }
    let p = Arc::new(Pool::new(default_threads()));
    *slot = Some(Arc::clone(&p));
    p
}

/// Resize the global pool to exactly `n` threads (clamped to ≥ 1). A no-op
/// when the pool already has `n` threads. Jobs already in flight finish on
/// the old pool; its workers are joined once the last reference drops.
///
/// By the determinism contract this never changes any kernel result — only
/// how many OS threads compute it.
pub fn set_threads(n: usize) {
    let n = n.max(1);
    let mut slot = POOL.write().unwrap_or_else(|e| e.into_inner());
    if slot.as_ref().is_some_and(|p| p.threads() == n) {
        return;
    }
    *slot = Some(Arc::new(Pool::new(n)));
}

/// The thread count the next parallel region will use (creates the pool on
/// first call).
pub fn current_threads() -> usize {
    pool().threads()
}

/// Dispatch `task(c)` for `c in 0..n_chunks`: inline when the job is
/// trivial, single-threaded, or nested inside another parallel region;
/// otherwise across the pool.
fn run_job(n_chunks: usize, task: &(dyn Fn(usize) + Sync)) {
    if n_chunks == 0 {
        return;
    }
    lasagne_obs::counter_add("par.chunks", n_chunks as u64);
    if n_chunks == 1 || pool::in_parallel() {
        lasagne_obs::counter_add("par.jobs_inline", 1);
        for c in 0..n_chunks {
            task(c);
        }
        return;
    }
    let p = pool();
    if p.threads() == 1 {
        lasagne_obs::counter_add("par.jobs_inline", 1);
        for c in 0..n_chunks {
            task(c);
        }
    } else {
        lasagne_obs::counter_add("par.jobs_pooled", 1);
        p.run(n_chunks, task);
    }
}

/// Raw mutable pointer that may cross thread boundaries. Sound because
/// every job hands each chunk a *disjoint* region behind this pointer and
/// the submitting frame outlives the job.
struct SyncPtr<T>(*mut T);
unsafe impl<T: Send> Send for SyncPtr<T> {}
unsafe impl<T: Send> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// Going through a method (rather than `.0`) makes closures capture the
    /// whole `SyncPtr` — edition-2021 disjoint capture would otherwise grab
    /// the bare non-`Sync` pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Run `f` over `0..n` split into fixed chunks of `chunk` rows:
/// `f(0..chunk)`, `f(chunk..2*chunk)`, …, in parallel. Boundaries depend
/// only on `n` and `chunk`, never on the thread count.
///
/// `f` must confine any writes to state owned by (or partitioned by) its
/// range — the runtime cannot check this for the range-based API; use
/// [`par_row_chunks_mut`] to get the partitioning enforced by the borrow
/// checker instead.
pub fn parallel_for_rows<F>(n: usize, chunk: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk);
    run_job(n_chunks, &|c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        f(lo..hi);
    });
}

/// nnz-balanced chunk boundaries over a CSR row-pointer array: consecutive
/// row ranges each holding ≥ `target_nnz` stored entries (except possibly
/// the last). Returns `[0, b1, b2, …, rows]`. Deterministic in
/// `indptr`/`target_nnz` alone — thread count never moves a boundary.
pub fn csr_chunk_boundaries(indptr: &[usize], target_nnz: usize) -> Vec<usize> {
    let rows = indptr.len().saturating_sub(1);
    let target = target_nnz.max(1);
    let mut bounds = Vec::with_capacity(8);
    bounds.push(0);
    let mut start = 0;
    while start < rows {
        let mut end = start + 1;
        while end < rows && indptr[end] - indptr[start] < target {
            end += 1;
        }
        bounds.push(end);
        start = end;
    }
    bounds
}

/// Split `data` (a row-major `rows × width` buffer) into fixed chunks of
/// `chunk_rows` rows and call `f(first_row, chunk_slice)` on each in
/// parallel. The disjoint-write half of the determinism contract is
/// enforced by construction: each invocation owns its slice exclusively.
pub fn par_row_chunks_mut<T, F>(data: &mut [T], width: usize, chunk_rows: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(width > 0, "par_row_chunks_mut: zero width with non-empty data");
    assert_eq!(data.len() % width, 0, "par_row_chunks_mut: len not a multiple of width");
    let rows = data.len() / width;
    let chunk_rows = chunk_rows.max(1);
    let n_chunks = rows.div_ceil(chunk_rows);
    let base = SyncPtr(data.as_mut_ptr());
    run_job(n_chunks, &|c| {
        let lo = c * chunk_rows;
        let hi = (lo + chunk_rows).min(rows);
        // SAFETY: chunk `c` is claimed exactly once and [lo, hi) ranges of
        // distinct chunks are disjoint, so this is the only live reference
        // to these elements; `data` outlives the job (run_job blocks).
        let slice = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(lo * width), (hi - lo) * width)
        };
        f(lo, slice);
    });
}

/// [`par_row_chunks_mut`] with nnz-balanced CSR boundaries: `data` is the
/// row-major `rows × width` output of a sparse kernel, partitioned so each
/// chunk covers ≈ `target_nnz` stored entries of the operator.
pub fn par_csr_row_chunks_mut<T, F>(
    data: &mut [T],
    width: usize,
    indptr: &[usize],
    target_nnz: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(width > 0, "par_csr_row_chunks_mut: zero width with non-empty data");
    let rows = data.len() / width;
    assert_eq!(data.len(), rows * width, "par_csr_row_chunks_mut: len not a multiple of width");
    assert_eq!(indptr.len(), rows + 1, "par_csr_row_chunks_mut: indptr length");
    let bounds = csr_chunk_boundaries(indptr, target_nnz);
    let base = SyncPtr(data.as_mut_ptr());
    run_job(bounds.len() - 1, &|c| {
        let (lo, hi) = (bounds[c], bounds[c + 1]);
        // SAFETY: as in `par_row_chunks_mut` — boundaries are disjoint and
        // each chunk index is claimed exactly once.
        let slice = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(lo * width), (hi - lo) * width)
        };
        f(lo, slice);
    });
}

/// Map fixed chunks of `0..n` to values in parallel, returning the per-chunk
/// results **in chunk order**. The building block for reductions that stay
/// bitwise thread-count-invariant: callers fold the returned partials
/// left-to-right, so the reduction tree is fixed by `n` and `chunk` alone.
pub fn parallel_map_chunks<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk);
    let mut out: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
    {
        let base = SyncPtr(out.as_mut_ptr());
        run_job(n_chunks, &|c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            let value = f(c, lo..hi);
            // SAFETY: slot `c` is written by exactly one chunk invocation.
            unsafe { *base.get().add(c) = Some(value) };
        });
    }
    out.into_iter()
        .map(|slot| slot.expect("parallel_map_chunks: chunk did not run"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_boundaries_cover_all_rows_and_balance_nnz() {
        // Rows with nnz 0,0,5,1,1,1,8,0 — total 16.
        let indptr = vec![0, 0, 0, 5, 6, 7, 8, 16, 16];
        let bounds = csr_chunk_boundaries(&indptr, 5);
        assert_eq!(*bounds.first().unwrap(), 0);
        assert_eq!(*bounds.last().unwrap(), 8);
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "boundaries strictly increase: {bounds:?}");
        }
        // Every chunk except the last reaches the nnz target.
        for w in bounds.windows(2).rev().skip(1) {
            assert!(indptr[w[1]] - indptr[w[0]] >= 5, "undersized chunk in {bounds:?}");
        }
    }

    #[test]
    fn csr_boundaries_handle_empty_matrix() {
        assert_eq!(csr_chunk_boundaries(&[0], 64), vec![0]);
        assert_eq!(csr_chunk_boundaries(&[], 64), vec![0]);
    }

    #[test]
    fn map_chunks_returns_in_chunk_order() {
        let got = parallel_map_chunks(10, 3, |c, r| (c, r.start, r.end));
        assert_eq!(got, vec![(0, 0, 3), (1, 3, 6), (2, 6, 9), (3, 9, 10)]);
    }

    #[test]
    fn row_chunks_partition_exactly() {
        let mut data = vec![0u32; 7 * 3];
        par_row_chunks_mut(&mut data, 3, 2, |row0, chunk| {
            for (r, row) in chunk.chunks_mut(3).enumerate() {
                for v in row {
                    *v = (row0 + r) as u32;
                }
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i / 3) as u32);
        }
    }

    #[test]
    fn empty_inputs_are_noops() {
        parallel_for_rows(0, 8, |_| panic!("must not run"));
        par_row_chunks_mut(&mut [] as &mut [f32], 0, 4, |_, _| panic!("must not run"));
        assert!(parallel_map_chunks(0, 8, |_, _| 0u8).is_empty());
    }
}
