//! Structural operations the sampling baselines are built from:
//! edge dropout (DropEdge), induced subgraphs (ClusterGCN, GraphSAINT,
//! inductive splits) and row/column slices (FastGCN layer sampling) — plus
//! the undirected edge edit the streaming server applies (DESIGN.md §11).

use crate::Csr;
use lasagne_tensor::TensorRng;

impl Csr {
    /// Randomly keep each stored entry with probability `keep`
    /// (independently). This is the DropEdge operation on a directed edge
    /// list; for an undirected graph apply it to the upper triangle and
    /// mirror (see `drop_edges_sym`).
    pub fn drop_entries(&self, keep: f32, rng: &mut TensorRng) -> Csr {
        assert!((0.0..=1.0).contains(&keep), "drop_entries: keep={keep}");
        let mut coo = Vec::with_capacity((self.nnz() as f32 * keep) as usize + 1);
        for i in 0..self.rows() {
            for (j, v) in self.row(i) {
                if rng.bernoulli(keep) {
                    coo.push((i as u32, j, v));
                }
            }
        }
        Csr::from_coo(self.rows(), self.cols(), &coo)
    }

    /// DropEdge for symmetric adjacencies: drop undirected edges (upper
    /// triangle) with probability `1 - keep` and mirror the survivors, so the
    /// result stays symmetric. Diagonal entries are always kept.
    pub fn drop_edges_sym(&self, keep: f32, rng: &mut TensorRng) -> Csr {
        assert_eq!(self.rows(), self.cols(), "drop_edges_sym: must be square");
        assert!((0.0..=1.0).contains(&keep), "drop_edges_sym: keep={keep}");
        let mut coo = Vec::with_capacity(self.nnz());
        for i in 0..self.rows() {
            for (j, v) in self.row(i) {
                let ju = j as usize;
                match ju.cmp(&i) {
                    std::cmp::Ordering::Equal => coo.push((i as u32, j, v)),
                    std::cmp::Ordering::Greater => {
                        if rng.bernoulli(keep) {
                            coo.push((i as u32, j, v));
                            coo.push((j, i as u32, v));
                        }
                    }
                    std::cmp::Ordering::Less => {} // mirrored from the upper triangle
                }
            }
        }
        Csr::from_coo(self.rows(), self.cols(), &coo)
    }

    /// This square matrix with the mirrored entries `(u, v)` and `(v, u)`
    /// set to `value` — inserted where absent, overwritten where present —
    /// or, for `None`, removed where present; `u == v` edits the one
    /// diagonal entry. One O(nnz) copy that splices the two edited rows, so
    /// the result is bitwise `from_coo` over the edited entry set.
    pub fn with_sym_edge(&self, u: u32, v: u32, value: Option<f32>) -> Csr {
        assert_eq!(self.rows(), self.cols(), "with_sym_edge: must be square");
        let n = self.rows();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "with_sym_edge: ({u},{v}) outside {n}x{n}"
        );
        let (ptr, idx, val) = (self.indptr(), self.indices(), self.values());
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(idx.len() + 2);
        let mut values = Vec::with_capacity(idx.len() + 2);
        indptr.push(0);
        for i in 0..n {
            let (lo, hi) = (ptr[i], ptr[i + 1]);
            // Row u edits column v and row v column u; every other row is
            // copied whole. `[head, tail)` is the edited entry, if present.
            let edit = if i == u as usize {
                Some(v)
            } else if i == v as usize {
                Some(u)
            } else {
                None
            };
            let (head, tail) = match edit {
                None => (hi, hi),
                Some(c) => {
                    let at = lo + idx[lo..hi].partition_point(|&j| j < c);
                    (at, if at < hi && idx[at] == c { at + 1 } else { at })
                }
            };
            indices.extend_from_slice(&idx[lo..head]);
            values.extend_from_slice(&val[lo..head]);
            if let (Some(c), Some(x)) = (edit, value) {
                indices.push(c);
                values.push(x);
            }
            indices.extend_from_slice(&idx[tail..hi]);
            values.extend_from_slice(&val[tail..hi]);
            indptr.push(indices.len());
        }
        Csr::from_parts(n, n, indptr, indices, values)
    }

    /// Induced square submatrix on `nodes` (which must be square-compatible):
    /// keeps entries whose row *and* column are selected, renumbered to
    /// `0..nodes.len()`. Returns the submatrix; `nodes[i]` is the original id
    /// of new node `i`.
    pub fn induced(&self, nodes: &[usize]) -> Csr {
        assert_eq!(self.rows(), self.cols(), "induced: must be square");
        let mut inv = vec![u32::MAX; self.cols()];
        for (new, &old) in nodes.iter().enumerate() {
            assert!(old < self.rows(), "induced: node {old} out of range");
            assert!(
                inv[old] == u32::MAX,
                "induced: node {old} selected twice"
            );
            inv[old] = new as u32;
        }
        let mut coo = Vec::new();
        for (new_r, &old_r) in nodes.iter().enumerate() {
            for (old_c, v) in self.row(old_r) {
                let new_c = inv[old_c as usize];
                if new_c != u32::MAX {
                    coo.push((new_r as u32, new_c, v));
                }
            }
        }
        Csr::from_coo(nodes.len(), nodes.len(), &coo)
    }

    /// Rectangular slice: selected rows × selected columns, renumbered.
    /// This is the FastGCN building block (layer ℓ nodes × layer ℓ+1 nodes).
    pub fn slice(&self, row_ids: &[usize], col_ids: &[usize]) -> Csr {
        let mut inv = vec![u32::MAX; self.cols()];
        for (new, &old) in col_ids.iter().enumerate() {
            assert!(old < self.cols(), "slice: col {old} out of range");
            inv[old] = new as u32;
        }
        let mut coo = Vec::new();
        for (new_r, &old_r) in row_ids.iter().enumerate() {
            assert!(old_r < self.rows(), "slice: row {old_r} out of range");
            for (old_c, v) in self.row(old_r) {
                let new_c = inv[old_c as usize];
                if new_c != u32::MAX {
                    coo.push((new_r as u32, new_c, v));
                }
            }
        }
        Csr::from_coo(row_ids.len(), col_ids.len(), &coo)
    }

    /// Column-degree vector (in-degrees for a directed adjacency), used by
    /// FastGCN's importance distribution `q(v) ∝ ‖Â[:,v]‖²`.
    pub fn col_sq_norms(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols()];
        for e in 0..self.nnz() {
            let c = self.indices()[e] as usize;
            let v = self.values()[e];
            out[c] += v * v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Csr {
        let mut coo = Vec::new();
        for i in 0..n {
            let j = (i + 1) % n;
            coo.push((i as u32, j as u32, 1.0));
            coo.push((j as u32, i as u32, 1.0));
        }
        Csr::from_coo(n, n, &coo)
    }

    #[test]
    fn drop_entries_respects_extremes() {
        let m = ring(10);
        let mut rng = TensorRng::seed_from_u64(0);
        assert_eq!(m.drop_entries(1.0, &mut rng).nnz(), m.nnz());
        assert_eq!(m.drop_entries(0.0, &mut rng).nnz(), 0);
    }

    #[test]
    fn drop_entries_keeps_roughly_fraction() {
        let m = ring(500);
        let mut rng = TensorRng::seed_from_u64(1);
        let kept = m.drop_entries(0.7, &mut rng).nnz() as f32 / m.nnz() as f32;
        assert!((kept - 0.7).abs() < 0.08, "kept fraction {kept}");
    }

    #[test]
    fn drop_edges_sym_stays_symmetric() {
        let m = ring(50);
        let mut rng = TensorRng::seed_from_u64(2);
        let d = m.drop_edges_sym(0.5, &mut rng);
        let dense = d.to_dense();
        assert!(dense.approx_eq(&dense.transpose(), 0.0));
        assert!(d.nnz() < m.nnz());
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let m = ring(6);
        // Nodes 0,1,2 form a path inside the ring (edges 0-1, 1-2).
        let s = m.induced(&[0, 1, 2]);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.to_dense()[(0, 1)], 1.0);
        assert_eq!(s.to_dense()[(0, 2)], 0.0);
    }

    #[test]
    fn induced_respects_selection_order() {
        let m = ring(4);
        let s = m.induced(&[2, 1]);
        // New node 0 = old 2, new node 1 = old 1; edge 1-2 exists.
        assert_eq!(s.to_dense()[(0, 1)], 1.0);
    }

    #[test]
    fn slice_extracts_rectangle() {
        let m = ring(5);
        let s = m.slice(&[0, 1], &[1, 2, 4]);
        assert_eq!(s.shape(), (2, 3));
        // Row old-0 has neighbors 1 and 4 → new cols 0 and 2.
        assert_eq!(s.row_indices(0), &[0, 2]);
        // Row old-1 has neighbors 0 (dropped) and 2 → new col 1.
        assert_eq!(s.row_indices(1), &[1]);
    }

    #[test]
    fn col_sq_norms_match_dense() {
        let m = ring(6).gcn_normalize();
        let d = m.to_dense();
        let norms = m.col_sq_norms();
        for j in 0..6 {
            let expect: f32 = (0..6).map(|i| d[(i, j)] * d[(i, j)]).sum();
            assert!((norms[j] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn sym_edge_inserts_and_removes_both_directions() {
        let m = ring(4);
        let added = m.with_sym_edge(0, 2, Some(5.0));
        let mut coo: Vec<(u32, u32, f32)> = (0..4)
            .flat_map(|i| m.row(i).map(move |(j, v)| (i as u32, j, v)))
            .collect();
        coo.extend([(0, 2, 5.0), (2, 0, 5.0)]);
        assert_eq!(added, Csr::from_coo(4, 4, &coo));
        assert_eq!(added.with_sym_edge(2, 0, None), m);
        // Removing an absent pair is the identity.
        assert_eq!(m.with_sym_edge(0, 2, None), m);
    }

    #[test]
    fn sym_edge_overwrites_present_entries_and_edits_the_diagonal_once() {
        let m = ring(3);
        let w = m.with_sym_edge(1, 0, Some(9.0));
        assert_eq!(w.nnz(), m.nnz());
        assert_eq!(w.row(0).collect::<Vec<_>>(), vec![(1, 9.0), (2, 1.0)]);
        assert_eq!(w.row(1).collect::<Vec<_>>(), vec![(0, 9.0), (2, 1.0)]);
        let d = m.with_sym_edge(2, 2, Some(3.0));
        assert_eq!(d.nnz(), m.nnz() + 1);
        assert_eq!(d.row(2).collect::<Vec<_>>(), vec![(0, 1.0), (1, 1.0), (2, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "selected twice")]
    fn induced_rejects_duplicates() {
        let _ = ring(4).induced(&[1, 1]);
    }
}
