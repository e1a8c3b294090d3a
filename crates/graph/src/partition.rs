//! The partitioned-graph substrate: deterministic balanced parts with
//! halo/ghost index maps.
//!
//! [`Partitioning`] wraps [`partition_bfs`](crate::partition_bfs) into the
//! structure out-of-core execution needs:
//!
//! * **cores** — every node in exactly one part, each part's core sorted
//!   ascending and the parts themselves ordered by their smallest core node,
//!   so the partition layout is a pure function of `(graph, k, seed)` and
//!   never of thread count or iteration order;
//! * **halos** — per part, the sorted one-hop boundary (nodes outside the
//!   core adjacent to it). A one-hop halo is exactly the ghost set a single
//!   SpMM against a graph-local operator (Â, Ã_rw, A, A+I) needs: those
//!   operators only couple a row to itself and its neighbors.
//!
//! No operator is sliced per part: a part's rows of an SpMM are computed
//! with `Csr::spmm_rows`, which reads the operand's core and halo rows in
//! place, bitwise equal to those rows of the full product (DESIGN.md §14).

use lasagne_tensor::TensorRng;

use crate::error::GraphError;
use crate::{partition_bfs, Graph};

/// One part of a [`Partitioning`]: its owned nodes plus ghost-node maps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionBlock {
    /// Nodes owned by this part, sorted ascending. Disjoint across parts;
    /// the union over all parts is `0..n`.
    pub core: Vec<usize>,
    /// One-hop boundary: nodes **not** in `core` with at least one neighbor
    /// in `core`, sorted ascending. These are the ghost rows a one-SpMM halo
    /// exchange must fetch.
    pub halo: Vec<usize>,
}

impl PartitionBlock {
    /// Core and halo merged into one sorted list — the part's locally
    /// resident node set (`core ∪ halo`).
    pub fn locals(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.core.len() + self.halo.len());
        let (mut i, mut j) = (0, 0);
        while i < self.core.len() && j < self.halo.len() {
            // Core and halo are disjoint, so no equal case to merge.
            if self.core[i] < self.halo[j] {
                out.push(self.core[i]);
                i += 1;
            } else {
                out.push(self.halo[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&self.core[i..]);
        out.extend_from_slice(&self.halo[j..]);
        out
    }
}

/// Deterministic balanced partitioning of a graph with ghost-node maps.
#[derive(Clone, Debug)]
pub struct Partitioning {
    parts: Vec<PartitionBlock>,
    /// `part_of[v]` = index of the part owning node `v`.
    part_of: Vec<u32>,
}

impl Partitioning {
    /// Partition `g` into `k` parts via BFS growth from `rng`-shuffled
    /// seeds, then canonicalize: cores sorted, parts ordered by smallest
    /// core node (empty parts last). Same `(g, k, rng state)` → identical
    /// partitioning, at any thread count.
    pub fn new(g: &Graph, k: usize, rng: &mut TensorRng) -> Result<Partitioning, GraphError> {
        let raw = partition_bfs(g, k, rng)?;
        Ok(Partitioning::from_parts(g, raw))
    }

    /// Canonicalize an existing node partition (e.g. the exact part lists a
    /// trainer already consumed) into the same deterministic layout
    /// [`Partitioning::new`] produces. Parts must be disjoint and cover
    /// `0..g.num_nodes()` — the `partition_bfs` contract.
    pub fn from_parts(g: &Graph, raw: Vec<Vec<usize>>) -> Partitioning {
        let n = g.num_nodes();
        let mut parts: Vec<Vec<usize>> = raw;
        for part in &mut parts {
            part.sort_unstable();
        }
        // Order parts by smallest owned node; empty parts sink to the end.
        parts.sort_by_key(|p| p.first().copied().unwrap_or(usize::MAX));
        let mut part_of = vec![u32::MAX; n];
        for (p, part) in parts.iter().enumerate() {
            for &v in part {
                debug_assert_eq!(part_of[v], u32::MAX, "node {v} owned twice");
                part_of[v] = p as u32;
            }
        }
        debug_assert!(part_of.iter().all(|&p| p != u32::MAX), "uncovered node");
        let parts = parts
            .into_iter()
            .enumerate()
            .map(|(p, core)| {
                let mut halo: Vec<usize> = Vec::new();
                for &u in &core {
                    for &v in g.neighbors(u) {
                        if part_of[v as usize] != p as u32 {
                            halo.push(v as usize);
                        }
                    }
                }
                halo.sort_unstable();
                halo.dedup();
                PartitionBlock { core, halo }
            })
            .collect();
        Partitioning { parts, part_of }
    }

    /// Number of parts (some may be empty).
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// All parts in deterministic order.
    pub fn parts(&self) -> &[PartitionBlock] {
        &self.parts
    }

    /// One part.
    pub fn part(&self, p: usize) -> &PartitionBlock {
        &self.parts[p]
    }

    /// Owner map: `part_of()[v]` is the part index owning node `v`.
    pub fn part_of(&self) -> &[u32] {
        &self.part_of
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
        assert_eq!(p.part(0).core, vec![0, 1, 2, 3, 4]);
        assert!(p.part(0).halo.is_empty());
        assert_eq!(p.part_of(), &[0, 0, 0, 0, 0]);
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

    #[test]
    fn locals_merges_sorted() {
        let b = PartitionBlock { core: vec![1, 4, 6], halo: vec![0, 5, 9] };
        assert_eq!(b.locals(), vec![0, 1, 4, 5, 6, 9]);
    }
}
