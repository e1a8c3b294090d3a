//! The edits a streaming mutation makes to the raw symmetric adjacency
//! (DESIGN.md §11): every refusal is raised before anything changes, and an
//! accepted edit returns the next plain [`Csr`].

use lasagne_sparse::Csr;

use crate::error::{ServeError, ServeResult};

/// `adjacency` with the undirected edge `u — v` added (`add`) or removed,
/// both directions at once through [`Csr::with_sym_edge`]. Refuses an
/// endpoint outside the graph (`unknown_node`), a self-loop, adding a
/// present edge and removing an absent one (`bad_request`).
pub(crate) fn toggle_edge(adjacency: &Csr, u: usize, v: usize, add: bool) -> ServeResult<Csr> {
    let n = adjacency.rows();
    if u >= n || v >= n {
        return Err(ServeError::UnknownNode { node: u.max(v), num_nodes: n });
    }
    if u == v {
        return Err(ServeError::BadRequest(
            "self-loops are managed by the propagation operators; u and v must differ".into(),
        ));
    }
    let (cu, cv) = (u as u32, v as u32);
    // The adjacency is symmetric, so one direction's presence decides.
    match (add, adjacency.edge_position(cu, cv).is_some()) {
        (true, true) => Err(ServeError::BadRequest(format!("edge {u}-{v} already exists"))),
        (false, false) => Err(ServeError::BadRequest(format!("edge {u}-{v} does not exist"))),
        _ => Ok(adjacency.with_sym_edge(cu, cv, add.then_some(1.0))),
    }
}

/// `adjacency` grown by one isolated node: an empty last row and column.
pub(crate) fn with_isolated_node(adjacency: &Csr) -> Csr {
    let n = adjacency.rows();
    let mut indptr = adjacency.indptr().to_vec();
    indptr.push(adjacency.nnz());
    Csr::from_parts(n + 1, n + 1, indptr, adjacency.indices().to_vec(), adjacency.values().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Csr {
        Csr::from_coo(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    }

    fn bad_request(message: &str) -> ServeResult<Csr> {
        Err(ServeError::BadRequest(message.into()))
    }

    #[test]
    fn insert_then_to_csr_matches_from_coo() {
        let m = toggle_edge(&path3(), 0, 2, true).unwrap();
        let expect = Csr::from_coo(
            3,
            3,
            &[(0, 1, 1.0), (0, 2, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 1, 1.0)],
        );
        assert_eq!(m, expect);
        assert_eq!(m.nnz(), 6);
    }

    #[test]
    fn remove_then_to_csr_matches_from_coo() {
        let m = toggle_edge(&path3(), 2, 1, false).unwrap();
        assert_eq!(m, Csr::from_coo(3, 3, &[(0, 1, 1.0), (1, 0, 1.0)]));
    }

    #[test]
    fn duplicate_insert_is_typed_error() {
        let m = path3();
        assert_eq!(toggle_edge(&m, 0, 1, true), bad_request("edge 0-1 already exists"));
        assert_eq!(toggle_edge(&m, 1, 0, true), bad_request("edge 1-0 already exists"));
        let m = toggle_edge(&m, 0, 2, true).unwrap();
        assert_eq!(toggle_edge(&m, 2, 0, true), bad_request("edge 2-0 already exists"));
    }

    #[test]
    fn missing_remove_is_typed_error() {
        let m = path3();
        assert_eq!(toggle_edge(&m, 0, 2, false), bad_request("edge 0-2 does not exist"));
        let m = toggle_edge(&m, 0, 1, false).unwrap();
        assert_eq!(toggle_edge(&m, 1, 0, false), bad_request("edge 1-0 does not exist"));
    }

    #[test]
    fn out_of_range_is_typed_error() {
        let m = path3();
        assert_eq!(
            toggle_edge(&m, 0, 3, true),
            Err(ServeError::UnknownNode { node: 3, num_nodes: 3 })
        );
        assert_eq!(
            toggle_edge(&m, 7, 0, false),
            Err(ServeError::UnknownNode { node: 7, num_nodes: 3 })
        );
        assert!(matches!(toggle_edge(&m, 1, 1, true), Err(ServeError::BadRequest(_))));
    }

    #[test]
    fn insert_then_remove_round_trips() {
        let m = toggle_edge(&path3(), 0, 2, true).unwrap();
        let m = toggle_edge(&m, 2, 0, false).unwrap();
        assert_eq!(m, path3());
        assert_eq!(toggle_edge(&m, 0, 2, false), bad_request("edge 0-2 does not exist"));
    }

    #[test]
    fn add_node_grows_shape_and_accepts_edges() {
        let grown = with_isolated_node(&path3());
        assert_eq!(grown.shape(), (4, 4));
        assert_eq!(grown.row_indices(3), &[] as &[u32]);
        assert_eq!(
            grown,
            Csr::from_coo(4, 4, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        );
        let m = toggle_edge(&grown, 3, 0, true).unwrap();
        assert_eq!(m.shape(), (4, 4));
        assert_eq!(m.row_indices(3), &[0]);
        assert_eq!(m.row_indices(0), &[1, 3]);
    }
}
