//! Sparse matrix support for graph convolutions.
//!
//! The whole paper runs on one sparse kernel: `Â · H` where
//! `Â = D̃^{-1/2} (A + I) D̃^{-1/2}` (Eq 1–2). This crate provides the CSR
//! representation, the normalizations, SpMM, and the structural operations
//! the sampling baselines need (edge dropout for DropEdge, induced subgraphs
//! for ClusterGCN/GraphSAINT, row slices for FastGCN).
//!
//! # Example
//! ```
//! use lasagne_sparse::Csr;
//! use lasagne_tensor::Tensor;
//! // A path graph 0 - 1 - 2, symmetrically normalized with self-loops.
//! let adj = Csr::from_coo(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
//! let a_hat = adj.gcn_normalize();
//! let h = Tensor::eye(3);
//! let out = a_hat.spmm(&h); // one propagation step
//! assert_eq!(out.shape(), (3, 3));
//! ```

mod csr;
mod edgedata;
mod norm;
mod structure;

pub use csr::{Csr, CsrError};
pub use edgedata::{EdgeData, EdgeDataError};
