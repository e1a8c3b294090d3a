//! Property suite for the streaming edge edit (DESIGN.md §11): any random
//! sequence of `Csr::with_sym_edge` inserts and removes, interleaved with
//! node appends, must leave a matrix **bitwise identical** — exact
//! `indptr`/`indices`, value bits compared via `to_bits` — to building the
//! final entry set from scratch with `Csr::from_coo`. Swept at thread counts
//! {1, 4}: the pool is process-global, but every kernel is bitwise
//! thread-count-invariant, so re-running the same seed under both pool
//! sizes must reproduce the same bits.

use std::collections::{BTreeMap, BTreeSet};

use lasagne_sparse::Csr;
use lasagne_testkit::gens::{sym_adj, CooGraph};
use lasagne_testkit::rng::Rng;
use lasagne_testkit::{prop_assert, prop_assert_eq, prop_check};

/// Bitwise equality: exact structure, exact value bits.
fn assert_bitwise(got: &Csr, want: &Csr) -> Result<(), String> {
    prop_assert_eq!(got.shape(), want.shape());
    prop_assert_eq!(got.indptr(), want.indptr());
    prop_assert_eq!(got.indices(), want.indices());
    prop_assert_eq!(got.values().len(), want.values().len());
    for (i, (a, b)) in got.values().iter().zip(want.values()).enumerate() {
        prop_assert!(
            a.to_bits() == b.to_bits(),
            "value {i}: {a} ({:#010x}) != {b} ({:#010x})",
            a.to_bits(),
            b.to_bits()
        );
    }
    Ok(())
}

/// Append an empty row and column, as the streaming server's `add_node`
/// does.
fn grow(m: &Csr) -> Csr {
    let n = m.rows() + 1;
    let mut indptr = m.indptr().to_vec();
    indptr.push(m.nnz());
    Csr::from_parts(n, n, indptr, m.indices().to_vec(), m.values().to_vec())
}

/// Replay `steps` random edits on both a matrix and a shadow entry map,
/// then check the edited matrix against a from-scratch build.
fn run_interleaving(g: &CooGraph, seed: u64, steps: usize) -> Result<(), String> {
    let mut m = Csr::from_coo(g.n, g.n, &g.entries);
    let mut shadow: BTreeMap<(u32, u32), f32> =
        g.entries.iter().map(|&(r, c, v)| ((r, c), v)).collect();
    let mut rng = Rng::seed_from_u64(seed);

    for _ in 0..steps {
        let n = m.rows();
        let r = rng.index(n) as u32;
        let c = rng.index(n) as u32;
        match rng.index(8) {
            0..=3 => {
                // Inserts a new pair or overwrites a present one.
                let v = rng.range_f32(-2.0, 2.0);
                m = m.with_sym_edge(r, c, Some(v));
                shadow.insert((r, c), v);
                shadow.insert((c, r), v);
            }
            4..=6 => {
                m = m.with_sym_edge(r, c, None);
                shadow.remove(&(r, c));
                shadow.remove(&(c, r));
            }
            _ => m = grow(&m),
        }
        prop_assert_eq!(m.nnz(), shadow.len());
    }

    let n = m.rows();
    let entries: Vec<(u32, u32, f32)> = shadow.iter().map(|(&(r, c), &v)| (r, c, v)).collect();
    assert_bitwise(&m, &Csr::from_coo(n, n, &entries))
}

prop_check! {
    cases = 192,
    fn random_interleavings_match_from_scratch(g in sym_adj(2..15, 0.3),
                                               seed in 0u64..300) {
        for &threads in &[1usize, 4] {
            lasagne_par::set_threads(threads);
            run_interleaving(&g, seed, 40)?;
        }
    }
}

prop_check! {
    cases = 128,
    fn normalized_operators_match_from_scratch(g in sym_adj(2..12, 0.3),
                                               seed in 0u64..300) {
        // The serve path cares about the *derived* operators: after toggling
        // undirected edges through the edit, Â and the random-walk operator
        // built from the edited matrix must be bitwise equal to the ones
        // built from scratch.
        let mut m = Csr::from_coo(g.n, g.n, &g.entries);
        let mut shadow: BTreeSet<(u32, u32)> =
            g.entries.iter().map(|&(r, c, _)| (r, c)).collect();
        let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..12 {
            let u = rng.index(g.n) as u32;
            let v = rng.index(g.n) as u32;
            if u == v {
                continue;
            }
            if shadow.remove(&(u, v)) {
                shadow.remove(&(v, u));
                m = m.with_sym_edge(u, v, None);
            } else {
                shadow.insert((u, v));
                shadow.insert((v, u));
                m = m.with_sym_edge(u, v, Some(1.0));
            }
        }
        let entries: Vec<(u32, u32, f32)> =
            shadow.iter().map(|&(r, c)| (r, c, 1.0)).collect();
        let scratch = Csr::from_coo(g.n, g.n, &entries);
        assert_bitwise(&m.gcn_normalize(), &scratch.gcn_normalize())?;
        assert_bitwise(
            &m.with_self_loops().rw_normalize(),
            &scratch.with_self_loops().rw_normalize(),
        )?;
    }
}
