//! Generators for the workspace's common property-test inputs.
//!
//! The testkit sits *below* `lasagne-tensor`/`lasagne-sparse` in the crate
//! graph (they depend on it for randomness), so generators produce plain
//! data — `Vec<f32>` matrices and COO edge lists — that the consuming test
//! converts with `Tensor::from_vec` / `Csr::from_coo`. This keeps the
//! testkit dependency-free while still owning the generation and shrinking
//! logic.

use crate::prop::Gen;
use crate::rng::Rng;

/// A vector generator: `len` elements drawn from `elem`, with shrinking by
/// dropping chunks/elements and by shrinking individual elements.
#[derive(Clone, Debug)]
pub struct VecGen<G> {
    /// Element generator.
    pub elem: G,
    /// Length range `[lo, hi)`.
    pub len: std::ops::Range<usize>,
}

/// `len`-element vectors with entries from `elem`.
pub fn vec_of<G: Gen>(elem: G, len: std::ops::Range<usize>) -> VecGen<G> {
    assert!(len.start < len.end, "vec_of: empty length range");
    VecGen { elem, len }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<G::Value> {
        let n = rng.range_usize(self.len.start, self.len.end);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        let n = v.len();
        // Structural shrinks first: halves, then single-element removals.
        if n > self.len.start {
            let keep_first = &v[..(n / 2).max(self.len.start)];
            if keep_first.len() < n {
                out.push(keep_first.to_vec());
            }
            let keep_last = &v[n - (n / 2).max(self.len.start)..];
            if keep_last.len() < n {
                out.push(keep_last.to_vec());
            }
            for i in 0..n.min(8) {
                let mut smaller = v.clone();
                smaller.remove(i);
                if smaller.len() >= self.len.start {
                    out.push(smaller);
                }
            }
        }
        // Then element-wise shrinks on a prefix (bounded fan-out).
        for i in 0..n.min(4) {
            for cand in self.elem.shrink(&v[i]) {
                let mut next = v.clone();
                next[i] = cand;
                out.push(next);
            }
        }
        out
    }
}

/// One generator closure of a [`OneOf`].
pub type Branch<T> = Box<dyn Fn(&mut Rng) -> T>;

/// Pick uniformly among a fixed set of generator closures — the harness's
/// `prop_oneof!`. All branches must produce the same `Value` type.
pub struct OneOf<T> {
    branches: Vec<Branch<T>>,
}

impl<T> OneOf<T> {
    /// Build from branch closures.
    pub fn new(branches: Vec<Branch<T>>) -> Self {
        assert!(!branches.is_empty(), "OneOf: no branches");
        OneOf { branches }
    }
}

impl<T: Clone + std::fmt::Debug> Gen for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        let i = rng.index(self.branches.len());
        (self.branches[i])(rng)
    }
}

/// A dense row-major matrix of `f32` values — `Tensor::from_vec(rows, cols,
/// data)` away from a `lasagne_tensor::Tensor`.
#[derive(Clone, Debug, PartialEq)]
pub struct Dense {
    /// Row count (≥ 1).
    pub rows: usize,
    /// Column count (≥ 1).
    pub cols: usize,
    /// Row-major entries, `rows * cols` of them.
    pub data: Vec<f32>,
}

/// Generator for [`Dense`] matrices with shape drawn from `rows`/`cols`
/// ranges and i.i.d. uniform entries in `[lo, hi)`.
#[derive(Clone, Debug)]
pub struct DenseGen {
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    lo: f32,
    hi: f32,
}

/// Dense matrices with `rows × cols` shapes and entries in `[lo, hi)`.
pub fn dense(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    lo: f32,
    hi: f32,
) -> DenseGen {
    assert!(rows.start >= 1 && cols.start >= 1, "dense: shapes must be ≥ 1");
    DenseGen { rows, cols, lo, hi }
}

impl Gen for DenseGen {
    type Value = Dense;

    fn generate(&self, rng: &mut Rng) -> Dense {
        let rows = rng.range_usize(self.rows.start, self.rows.end);
        let cols = rng.range_usize(self.cols.start, self.cols.end);
        let data = (0..rows * cols).map(|_| rng.range_f32(self.lo, self.hi)).collect();
        Dense { rows, cols, data }
    }

    fn shrink(&self, v: &Dense) -> Vec<Dense> {
        // Shrink the shape (dropping trailing rows/columns), not the values.
        let mut out = Vec::new();
        if v.rows > self.rows.start {
            let rows = v.rows - 1;
            out.push(Dense { rows, cols: v.cols, data: v.data[..rows * v.cols].to_vec() });
        }
        if v.cols > self.cols.start {
            let cols = v.cols - 1;
            let data = (0..v.rows)
                .flat_map(|r| v.data[r * v.cols..r * v.cols + cols].iter().copied())
                .collect();
            out.push(Dense { rows: v.rows, cols, data });
        }
        out
    }
}

/// A random graph/matrix in COO form, ready for `Csr::from_coo(n, n,
/// &entries)`.
#[derive(Clone, Debug, PartialEq)]
pub struct CooGraph {
    /// Square dimension (node count).
    pub n: usize,
    /// `(row, col, value)` triples; may contain duplicates.
    pub entries: Vec<(u32, u32, f32)>,
}

/// Generator for [`CooGraph`]s.
#[derive(Clone, Debug)]
pub struct CooGen {
    n: std::ops::Range<usize>,
    density: f64,
    lo: f32,
    hi: f32,
    symmetric_01: bool,
}

/// Random sparse square matrix: each of the `n²` cells is present with
/// probability `density`, with a uniform value in `[lo, hi)`.
pub fn coo_graph(n: std::ops::Range<usize>, density: f64, lo: f32, hi: f32) -> CooGen {
    assert!(n.start >= 1, "coo_graph: need ≥ 1 node");
    CooGen { n, density, lo, hi, symmetric_01: false }
}

/// Random symmetric unweighted adjacency (no self-loops): each unordered
/// pair `{i, j}` is an edge with probability `density`, stored in both
/// directions with weight 1.
pub fn sym_adj(n: std::ops::Range<usize>, density: f64) -> CooGen {
    assert!(n.start >= 1, "sym_adj: need ≥ 1 node");
    CooGen { n, density, lo: 1.0, hi: 1.0, symmetric_01: true }
}

impl Gen for CooGen {
    type Value = CooGraph;

    fn generate(&self, rng: &mut Rng) -> CooGraph {
        let n = rng.range_usize(self.n.start, self.n.end);
        let mut entries = Vec::new();
        if self.symmetric_01 {
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.bernoulli(self.density) {
                        entries.push((i as u32, j as u32, 1.0));
                        entries.push((j as u32, i as u32, 1.0));
                    }
                }
            }
        } else {
            for i in 0..n {
                for j in 0..n {
                    if rng.bernoulli(self.density) {
                        let w = if self.lo < self.hi { rng.range_f32(self.lo, self.hi) } else { self.lo };
                        entries.push((i as u32, j as u32, w));
                    }
                }
            }
        }
        CooGraph { n, entries }
    }

    fn shrink(&self, v: &CooGraph) -> Vec<CooGraph> {
        let mut out = Vec::new();
        // Drop the last node (and its incident entries).
        if v.n > self.n.start {
            let n = v.n - 1;
            let entries = v
                .entries
                .iter()
                .copied()
                .filter(|&(r, c, _)| (r as usize) < n && (c as usize) < n)
                .collect();
            out.push(CooGraph { n, entries });
        }
        // Drop edges (in symmetric mode, both directions of the first pair).
        if !v.entries.is_empty() {
            if self.symmetric_01 && v.entries.len() >= 2 {
                out.push(CooGraph { n: v.n, entries: v.entries[2..].to_vec() });
            } else {
                out.push(CooGraph { n: v.n, entries: v.entries[1..].to_vec() });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{check, Config};

    #[test]
    fn vec_gen_respects_length_range_and_shrinks_smaller() {
        let gen = vec_of(0u64..10, 2..7);
        let mut rng = Rng::seed_from_u64(0);
        for _ in 0..100 {
            let v = gen.generate(&mut rng);
            assert!((2..7).contains(&v.len()));
        }
        let v = vec![5u64, 9, 1, 3, 7];
        for cand in gen.shrink(&v) {
            assert!(cand.len() >= 2);
            assert!(cand.len() <= v.len());
        }
        assert!(gen.shrink(&v).iter().any(|c| c.len() < v.len()));
    }

    #[test]
    fn dense_gen_shape_and_size_agree() {
        check("dense_shape", &Config::cases(64), &dense(1..6, 1..7, -2.0, 2.0), |d| {
            if d.data.len() != d.rows * d.cols {
                return Err(format!("{}x{} with {} entries", d.rows, d.cols, d.data.len()));
            }
            if d.data.iter().any(|v| !(-2.0..2.0).contains(v)) {
                return Err("entry out of range".into());
            }
            Ok(())
        });
    }

    #[test]
    fn dense_shrink_preserves_row_major_layout() {
        let gen = dense(1..5, 1..5, 0.0, 1.0);
        let d = Dense { rows: 3, cols: 2, data: vec![0.0, 0.1, 1.0, 1.1, 2.0, 2.1] };
        let shrunk = gen.shrink(&d);
        let fewer_cols = shrunk.iter().find(|s| s.cols == 1).expect("col shrink");
        assert_eq!(fewer_cols.data, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn sym_adj_is_symmetric_without_self_loops() {
        check("sym_adj", &Config::cases(64), &sym_adj(2..10, 0.4), |g| {
            use std::collections::HashSet;
            let set: HashSet<(u32, u32)> = g.entries.iter().map(|&(r, c, _)| (r, c)).collect();
            for &(r, c, w) in &g.entries {
                if r == c {
                    return Err(format!("self-loop at {r}"));
                }
                if w != 1.0 {
                    return Err(format!("weight {w} != 1"));
                }
                if !set.contains(&(c, r)) {
                    return Err(format!("missing reverse of ({r},{c})"));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn coo_entries_stay_in_bounds_under_shrinking() {
        let gen = coo_graph(2..8, 0.5, -1.0, 1.0);
        let mut rng = Rng::seed_from_u64(9);
        let g = gen.generate(&mut rng);
        for cand in gen.shrink(&g) {
            for &(r, c, _) in &cand.entries {
                assert!((r as usize) < cand.n && (c as usize) < cand.n);
            }
        }
    }
}
