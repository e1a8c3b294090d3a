//! Graph-convolution normalizations.
//!
//! * [`Csr::gcn_normalize`] — `Â = D̃^{-1/2} (A + I) D̃^{-1/2}`, the Kipf &
//!   Welling renormalization of Eq (1); this is what every model in the
//!   paper propagates with.
//! * [`Csr::rw_normalize`] — row-stochastic `D^{-1} A`, used by the APPNP
//!   baseline's personalized-PageRank propagation and by PageRank itself.

use crate::Csr;

impl Csr {
    /// Add unit self-loops (`A + I`). Existing diagonal entries are summed
    /// with the added 1, matching `Ã = A + I_N` from the paper; explicit
    /// zeros stay. Each row is already sorted, so the diagonal is merged in
    /// place rather than re-sorting the entries.
    pub fn with_self_loops(&self) -> Csr {
        assert_eq!(self.rows(), self.cols(), "with_self_loops: must be square");
        let n = self.rows();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(self.nnz() + n);
        let mut values = Vec::with_capacity(self.nnz() + n);
        indptr.push(0);
        for i in 0..n {
            let diag = i as u32;
            let mut entries = self.row(i).peekable();
            while let Some((j, v)) = entries.next_if(|&(j, _)| j < diag) {
                indices.push(j);
                values.push(v);
            }
            let on = entries.next_if(|&(j, _)| j == diag).map_or(1.0, |(_, v)| v + 1.0);
            indices.push(diag);
            values.push(on);
            for (j, v) in entries {
                indices.push(j);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        Csr::from_parts(n, n, indptr, indices, values)
    }

    /// Symmetric GCN normalization with self-loops:
    /// `Â = D̃^{-1/2} (A + I) D̃^{-1/2}`.
    ///
    /// Isolated rows (degree 0 even after self-loops cannot happen, but a
    /// fully-zero weighted row can) are left as zero rows.
    pub fn gcn_normalize(&self) -> Csr {
        self.with_self_loops().sym_normalize()
    }

    /// Symmetric normalization of the matrix as-is (no self-loop insertion):
    /// `D^{-1/2} M D^{-1/2}` with `D = diag(row sums)`.
    pub fn sym_normalize(&self) -> Csr {
        assert_eq!(self.rows(), self.cols(), "sym_normalize: must be square");
        let deg = self.row_sums();
        let inv_sqrt: Vec<f32> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let mut out = self.clone();
        for i in 0..out.rows() {
            let di = inv_sqrt[i];
            let lo = out.indptr()[i];
            let hi = out.indptr()[i + 1];
            for e in lo..hi {
                let j = out.indices()[e] as usize;
                out.values_mut()[e] *= di * inv_sqrt[j];
            }
        }
        out
    }

    /// Row-stochastic (random-walk) normalization `D^{-1} M`; zero rows stay
    /// zero.
    pub fn rw_normalize(&self) -> Csr {
        let deg = self.row_sums();
        let mut out = self.clone();
        for (i, &d) in deg.iter().enumerate() {
            if d > 0.0 {
                let inv = 1.0 / d;
                let lo = out.indptr()[i];
                let hi = out.indptr()[i + 1];
                for e in lo..hi {
                    out.values_mut()[e] *= inv;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0 - 1 - 2 (symmetric, unweighted).
    fn path3() -> Csr {
        Csr::from_coo(
            3,
            3,
            &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
        )
    }

    #[test]
    fn self_loops_add_diagonal() {
        let m = path3().with_self_loops();
        assert_eq!(m.nnz(), 7);
        let d = m.to_dense();
        for i in 0..3 {
            assert_eq!(d[(i, i)], 1.0);
        }
    }

    #[test]
    fn self_loops_merge_with_existing_diagonal() {
        let m = Csr::from_coo(2, 2, &[(0, 0, 2.0)]).with_self_loops();
        assert_eq!(m.to_dense()[(0, 0)], 3.0);
    }

    /// `A + I` as `from_coo` builds it: every entry plus a unit diagonal,
    /// sorted, duplicates summed.
    fn self_loops_by_sort(m: &Csr) -> Csr {
        let n = m.rows();
        let mut coo: Vec<(u32, u32, f32)> = Vec::with_capacity(m.nnz() + n);
        for i in 0..n {
            coo.extend(m.row(i).map(|(j, v)| (i as u32, j, v)));
            coo.push((i as u32, i as u32, 1.0));
        }
        Csr::from_coo(n, n, &coo)
    }

    #[test]
    fn self_loops_merge_bitwise_like_the_sorted_construction() {
        let mut rng = lasagne_testkit::Rng::seed_from_u64(7);
        for case in 0..200 {
            let n = rng.range_usize(1, 24);
            // Dense to empty rows; diagonals present in some matrices only.
            let density = [0.0, 0.05, 0.3, 0.9][case % 4];
            let with_diagonal = case % 3 != 0;
            let mut coo = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if (i != j || with_diagonal) && rng.next_f32() < density {
                        let v = match rng.index(5) {
                            0 => 0.0,
                            1 => -0.0,
                            2 => -1.0,
                            _ => rng.range_f32(-2.0, 2.0),
                        };
                        coo.push((i as u32, j as u32, v));
                    }
                }
            }
            let m = Csr::from_coo(n, n, &coo);
            let (got, want) = (m.with_self_loops(), self_loops_by_sort(&m));
            assert_eq!(got.indptr(), want.indptr(), "case {case}");
            assert_eq!(got.indices(), want.indices(), "case {case}");
            let bits = |c: &Csr| c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "case {case}");
        }
    }

    #[test]
    fn gcn_normalize_known_values() {
        // Degrees with self-loops: [2, 3, 2].
        let a = path3().gcn_normalize().to_dense();
        let s2 = 1.0 / 2.0f32; // 1/(sqrt2*sqrt2)
        let s23 = 1.0 / (2.0f32.sqrt() * 3.0f32.sqrt());
        assert!((a[(0, 0)] - s2).abs() < 1e-6);
        assert!((a[(0, 1)] - s23).abs() < 1e-6);
        assert!((a[(1, 1)] - 1.0 / 3.0).abs() < 1e-6);
        assert!((a[(2, 1)] - s23).abs() < 1e-6);
    }

    #[test]
    fn gcn_normalize_is_symmetric() {
        let a = path3().gcn_normalize();
        let d = a.to_dense();
        assert!(d.approx_eq(&d.transpose(), 1e-6));
    }

    #[test]
    fn gcn_normalize_spectral_radius_at_most_one() {
        // Power iteration on Â must not blow up: ‖Âx‖ ≤ ‖x‖ for the
        // normalized operator (λ_max = 1 with self-loops).
        let a = path3().gcn_normalize();
        let mut x = vec![1.0f32; 3];
        for _ in 0..50 {
            x = a.spmv(&x);
        }
        let norm: f32 = x.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(norm <= 3.0f32.sqrt() + 1e-4);
    }

    #[test]
    fn rw_normalize_rows_sum_to_one() {
        let m = path3().with_self_loops().rw_normalize();
        for (i, s) in m.row_sums().iter().enumerate() {
            assert!((s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
        }
    }

    #[test]
    fn rw_normalize_keeps_zero_rows() {
        let m = Csr::from_coo(2, 2, &[(0, 1, 4.0)]).rw_normalize();
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_values(0), &[1.0]);
    }
}
