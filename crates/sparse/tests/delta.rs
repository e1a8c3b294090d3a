//! Property suite for the streaming delta layer (DESIGN.md §11): any random
//! interleaving of insert / delete / add_node / compact must leave the
//! merged view **bitwise identical** — exact `indptr`/`indices`, value bits
//! compared via `to_bits` — to building the final matrix from scratch with
//! `Csr::from_coo`. Swept at thread counts {1, 4}: the pool is process-
//! global, but every kernel is bitwise thread-count-invariant, so re-running
//! the same seed under both pool sizes must reproduce the same bits.

use std::collections::btree_map::Entry;

use lasagne_sparse::{Csr, DeltaCsr, DeltaError};
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

/// Replay `steps` random mutations on both a [`DeltaCsr`] and a shadow entry
/// map, then check the merged view against a from-scratch build.
fn run_interleaving(g: &CooGraph, seed: u64, steps: usize) -> Result<(), String> {
    let mut d = DeltaCsr::new(Csr::from_coo(g.n, g.n, &g.entries));
    let mut shadow: std::collections::BTreeMap<(u32, u32), f32> =
        g.entries.iter().map(|&(r, c, v)| ((r, c), v)).collect();
    let mut n = g.n;
    let mut rng = Rng::seed_from_u64(seed);

    for _ in 0..steps {
        match rng.index(8) {
            0..=3 => {
                let r = rng.index(n) as u32;
                let c = rng.index(n) as u32;
                let v = rng.range_f32(-2.0, 2.0);
                match shadow.entry((r, c)) {
                    Entry::Occupied(_) => prop_assert_eq!(
                        d.insert(r, c, v),
                        Err(DeltaError::DuplicateEdge { row: r, col: c })
                    ),
                    Entry::Vacant(slot) => {
                        prop_assert_eq!(d.insert(r, c, v), Ok(()));
                        slot.insert(v);
                    }
                }
            }
            4..=5 => {
                let r = rng.index(n) as u32;
                let c = rng.index(n) as u32;
                if shadow.remove(&(r, c)).is_some() {
                    prop_assert_eq!(d.remove(r, c), Ok(()));
                } else {
                    prop_assert_eq!(
                        d.remove(r, c),
                        Err(DeltaError::MissingEdge { row: r, col: c })
                    );
                }
            }
            6 => {
                d.compact();
                prop_assert_eq!(d.pending(), 0);
            }
            _ => {
                prop_assert_eq!(d.add_node(), n);
                n += 1;
            }
        }
        prop_assert_eq!(d.rows(), n);
        prop_assert_eq!(d.nnz(), shadow.len());
    }

    let entries: Vec<(u32, u32, f32)> = shadow.iter().map(|(&(r, c), &v)| (r, c, v)).collect();
    let scratch = Csr::from_coo(n, n, &entries);
    assert_bitwise(&d.to_csr(), &scratch)?;
    // Compaction must preserve the view exactly (and the compacted base IS
    // the view afterwards).
    d.compact();
    assert_bitwise(d.base(), &scratch)?;
    assert_bitwise(&d.to_csr(), &scratch)?;
    Ok(())
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
        // undirected edges through the delta, Â and the random-walk operator
        // built from the merged view must be bitwise equal to the ones built
        // from scratch.
        let mut d = DeltaCsr::new(Csr::from_coo(g.n, g.n, &g.entries));
        let mut shadow: std::collections::BTreeSet<(u32, u32)> =
            g.entries.iter().map(|&(r, c, _)| (r, c)).collect();
        let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..12 {
            if g.n < 2 {
                break;
            }
            let u = rng.index(g.n) as u32;
            let v = rng.index(g.n) as u32;
            if u == v {
                continue;
            }
            if shadow.contains(&(u, v)) {
                prop_assert_eq!(d.remove(u, v), Ok(()));
                prop_assert_eq!(d.remove(v, u), Ok(()));
                shadow.remove(&(u, v));
                shadow.remove(&(v, u));
            } else {
                prop_assert_eq!(d.insert(u, v, 1.0), Ok(()));
                prop_assert_eq!(d.insert(v, u, 1.0), Ok(()));
                shadow.insert((u, v));
                shadow.insert((v, u));
            }
        }
        let entries: Vec<(u32, u32, f32)> =
            shadow.iter().map(|&(r, c)| (r, c, 1.0)).collect();
        let scratch = Csr::from_coo(g.n, g.n, &entries);
        let live = d.to_csr();
        assert_bitwise(&live.gcn_normalize(), &scratch.gcn_normalize())?;
        assert_bitwise(
            &live.with_self_loops().rw_normalize(),
            &scratch.with_self_loops().rw_normalize(),
        )?;
    }
}
