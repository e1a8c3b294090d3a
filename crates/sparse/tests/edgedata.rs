//! Property suite for the edge-feature layer (DESIGN.md §15): `EdgeData`
//! rows must track their CSR entries, through transposition too.

use lasagne_sparse::{Csr, EdgeData};
use lasagne_testkit::gens::{coo_graph, CooGraph};
use lasagne_testkit::{prop_assert, prop_assert_eq, prop_check};

fn csr_of(g: &CooGraph) -> Csr {
    Csr::from_coo(g.n, g.n, &g.entries)
}

/// Features that name their edge: row for entry `(r, c)` is `[r, c, r*31+c]`.
fn tag(r: u32, c: u32, out: &mut [f32]) {
    out[0] = r as f32;
    out[1] = c as f32;
    out[2] = (r * 31 + c) as f32;
}

fn tagged(m: &Csr) -> EdgeData {
    EdgeData::for_csr(m, 3, tag)
}

/// Assert every edge row of `e` names the CSR entry it sits under.
fn assert_aligned(m: &Csr, e: &EdgeData) {
    e.check_aligned(m).unwrap();
    let mut flat = 0usize;
    for r in 0..m.rows() {
        for &c in m.row_indices(r) {
            let mut want = [0.0f32; 3];
            tag(r as u32, c, &mut want);
            assert_eq!(e.row(flat), &want, "edge row {flat} misaligned at ({r},{c})");
            assert_eq!(m.edge_position(r as u32, c), Some(flat));
            flat += 1;
        }
    }
}

prop_check! {
    cases = 256,
    fn for_csr_rows_sit_under_their_entries(g in coo_graph(1..14, 0.4, -2.0, 2.0)) {
        let m = csr_of(&g);
        assert_aligned(&m, &tagged(&m));
        prop_assert!(true);
    }
}

prop_check! {
    cases = 256,
    fn transpose_permutation_keeps_alignment(g in coo_graph(1..14, 0.35, -2.0, 2.0)) {
        let m = csr_of(&g);
        let e = tagged(&m);
        let t = m.transpose();
        let et = e.transposed_with(&m).unwrap();
        et.check_aligned(&t).unwrap();
        let mut flat = 0usize;
        for r in 0..t.rows() {
            for &c in t.row_indices(r) {
                let mut want = [0.0f32; 3];
                tag(c, r as u32, &mut want); // source entry was (c, r)
                prop_assert_eq!(et.row(flat), &want[..]);
                flat += 1;
            }
        }
    }
}
