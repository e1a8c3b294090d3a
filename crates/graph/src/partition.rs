//! The partitioned-graph substrate: deterministic balanced parts.
//!
//! [`Partitioning`] wraps [`partition_bfs`](crate::partition_bfs) into the
//! canonical layout out-of-core execution needs: every node in exactly one
//! part's **core**, each core sorted ascending and the parts themselves
//! ordered by their smallest core node, so the layout is a pure function of
//! `(graph, k, seed)` and never of thread count or iteration order.
//!
//! No operator is sliced and no ghost set is built per part: a part's rows
//! of an SpMM are computed with `Csr::spmm_rows`, which reads the operand
//! rows its nonzeros name in place, bitwise equal to those rows of the full
//! product (DESIGN.md §14).

use lasagne_tensor::TensorRng;

use crate::error::GraphError;
use crate::{partition_bfs, Graph};

/// One part of a [`Partitioning`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionBlock {
    /// Nodes owned by this part, sorted ascending. Disjoint across parts;
    /// the union over all parts is `0..n`.
    pub core: Vec<usize>,
}

/// Deterministic balanced partitioning of a graph.
#[derive(Clone, Debug)]
pub struct Partitioning {
    parts: Vec<PartitionBlock>,
}

impl Partitioning {
    /// Partition `g` into `k` parts via BFS growth from `rng`-shuffled
    /// seeds, then canonicalize: cores sorted, parts ordered by smallest
    /// core node (empty parts last). Same `(g, k, rng state)` → identical
    /// partitioning, at any thread count.
    pub fn new(g: &Graph, k: usize, rng: &mut TensorRng) -> Result<Partitioning, GraphError> {
        let mut parts = partition_bfs(g, k, rng)?;
        for part in &mut parts {
            part.sort_unstable();
        }
        // Order parts by smallest owned node; empty parts sink to the end.
        parts.sort_by_key(|p| p.first().copied().unwrap_or(usize::MAX));
        let parts = parts.into_iter().map(|core| PartitionBlock { core }).collect();
        Ok(Partitioning { parts })
    }

    /// Number of parts (some may be empty).
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// All parts in deterministic order.
    pub fn parts(&self) -> &[PartitionBlock] {
        &self.parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k1_is_the_resident_layout() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut rng = TensorRng::seed_from_u64(0);
        let p = Partitioning::new(&g, 1, &mut rng).unwrap();
        assert_eq!(p.num_parts(), 1);
        assert_eq!(p.parts()[0].core, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bad_k_propagates_typed() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let mut rng = TensorRng::seed_from_u64(0);
        assert_eq!(
            Partitioning::new(&g, 0, &mut rng).unwrap_err(),
            GraphError::InvalidPartitionCount { k: 0, n: 3 }
        );
    }
}
