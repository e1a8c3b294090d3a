//! Dense row-major 2-D `f32` tensors and the numeric kernels every layer of
//! the Lasagne stack computes on.
//!
//! The crate is deliberately small and dependency-free (randomness comes
//! from the in-workspace `lasagne-testkit` PRNG): it is the substitute for a BLAS/ndarray stack in this
//! offline reproduction. Kernels are written so the hot inner loops are
//! contiguous-slice iterations that LLVM auto-vectorizes.
//!
//! Shape errors are programmer errors, so mismatched shapes panic with a
//! message naming the operation and both shapes; constructors that take
//! user-provided buffers return [`TensorError`] instead.
//!
//! # Example
//! ```
//! use lasagne_tensor::Tensor;
//! let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Tensor::eye(2);
//! assert_eq!(a.matmul(&b), a);
//! assert_eq!(a.sum(), 10.0);
//! ```

mod activations;
mod arith;
mod broadcast;
mod init;
mod matmul;
mod reduce;
mod tensor;

pub use init::TensorRng;
pub use matmul::gemm_isa;
pub use tensor::{Tensor, TensorError};

/// Fixed chunk size (in `f32` elements, or in flops for the matmul row
/// partitioner) shared by every parallel kernel in this crate. One constant
/// everywhere keeps the determinism contract auditable: chunk boundaries
/// are a function of the tensor shape and this constant only — never of the
/// thread count (`lasagne-par` docs, DESIGN.md §8).
pub(crate) const PAR_CHUNK: usize = 1 << 16;

/// Rows per parallel chunk for a kernel doing ≈`work_per_row` flops per
/// output row: targets [`PAR_CHUNK`] flops per chunk so small tensors stay
/// on the inline path and big ones split finely enough to balance.
pub(crate) fn par_row_chunk(work_per_row: usize) -> usize {
    (PAR_CHUNK / work_per_row.max(1)).max(1)
}

/// Convenience result alias for fallible tensor constructors.
pub type Result<T> = std::result::Result<T, TensorError>;
