//! Streaming graph mutations with bitwise-exact incremental recomputation
//! (DESIGN.md §11).
//!
//! The engine's propagation cache makes queries O(classes) — but only
//! because the graph is frozen. This module un-freezes it without giving up
//! the exactness story. A [`Mutation`] flows through three stages:
//!
//! 1. **Edge edit** — the raw symmetric adjacency is a plain [`Csr`]. An
//!    edge toggle is checked and then builds the next one, both directions
//!    at once, in one O(nnz) copy ([`Csr::with_sym_edge`]); `add_node`
//!    appends an empty row and column (both in `delta.rs`).
//! 2. **Operator rebuild** — every derived sparse operator (`Â`, the
//!    random-walk operator, `A+I`, `A`) is re-derived from the edited
//!    adjacency by [`FrozenGraph::operators`], the *same calls*
//!    `GraphContext::new` makes. That is O(nnz) and bitwise-equal to a cold
//!    reload by construction; what it buys is knowing the exact set of
//!    operator rows that changed, which is tiny for a single edge.
//! 3. **Dirty schedule** — the one evaluator's forward closure
//!    ([`lasagne_autograd::dirty_rows`], DESIGN.md §10): changed operator
//!    rows seed a per-op dirty set pushed through the program's dependency
//!    rule. Each SpMM expands dirtiness by one hop, so a depth-k model
//!    dirties exactly the k-hop neighborhood. Dirty rows are re-evaluated
//!    with the same op kernel full evaluation uses, which is bitwise per
//!    row ([`lasagne_autograd::eval_dirty`]); ops that read a dirty operand
//!    whole (`SumAll`, `SumRows`, `GatAggregate`, a dirty matmul weight),
//!    oversized dirty sets (> half an op's rows) and `add_node` fall back
//!    to full re-evaluation — which is the cold path itself, so exactness
//!    holds on every branch.

use std::time::Instant;

use lasagne_autograd::{
    dirty_rows, eval_all, eval_dirty, leaf_value, Operand, Program, ProgramOp, Resident,
};
use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;

use crate::delta;
use crate::engine::Engine;
use crate::error::{ServeError, ServeResult};
use crate::frozen::{opaque_operator, FrozenGraph, SparseKind};

/// A graph mutation. Edges are undirected: both CSR directions are applied
/// atomically, keeping the adjacency symmetric (the invariant every
/// normalization and the dirty-expansion rule rely on).
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Insert undirected edge `u — v` with weight 1.
    AddEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// Delete undirected edge `u — v`.
    RemoveEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// Append a node with the given feature row (initially isolated; wire
    /// it up with `AddEdge`).
    AddNode {
        /// Feature row, `input_dim` long.
        features: Vec<f32>,
    },
}

/// What a mutation did to the caches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationReport {
    /// Output rows re-derived (equals `num_nodes` when `full`).
    pub dirty_rows: usize,
    /// Whether the engine fell back to full re-evaluation.
    pub full: bool,
    /// Node count after the mutation.
    pub num_nodes: usize,
    /// Id of the node created by `AddNode`.
    pub node: Option<usize>,
}

/// Internal mutation outcome: `rows: None` means a full recompute ran.
struct Outcome {
    rows: Option<Vec<usize>>,
    node: Option<usize>,
}

/// Everything the engine needs to replay mutations: the program (ops owned,
/// sparse table as plain `Csr` so the engine stays `Send`), the per-op value
/// cache, and the live graph binding. Feature growth from `add_node`
/// mutates the `Constant` ops listed in `graph.features_ops` directly, so a
/// subsequent full evaluation is *the* cold evaluation of the grown graph.
pub(crate) struct StreamingState {
    ops: Vec<ProgramOp>,
    output: usize,
    sparse: Vec<Csr>,
    /// The live graph: every mutation replaces its adjacency.
    graph: FrozenGraph,
    weights: Vec<(String, Tensor)>,
    /// One cached tensor per op — the full-graph evaluation (leaves hold a
    /// placeholder; they live in `ops` and `weights`).
    values: Vec<Tensor>,
}

impl StreamingState {
    pub(crate) fn new(
        program: Program,
        graph: FrozenGraph,
        weights: Vec<(String, Tensor)>,
        values: Vec<Tensor>,
    ) -> ServeResult<StreamingState> {
        if graph.kinds.len() != program.sparse.len() {
            return Err(ServeError::Mismatch(format!(
                "graph binding has {} kinds for {} sparse operators",
                graph.kinds.len(),
                program.sparse.len()
            )));
        }
        if graph.adjacency.rows() != graph.adjacency.cols() {
            return Err(ServeError::Mismatch("graph adjacency must be square".into()));
        }
        for &i in &graph.features_ops {
            match program.ops.get(i) {
                Some(ProgramOp::Constant { value }) if value.rows() == graph.adjacency.rows() => {}
                _ => {
                    return Err(ServeError::Mismatch(format!(
                        "graph features op {i} is not an N-row program constant"
                    )))
                }
            }
        }
        let sparse = program.sparse.iter().map(|m| (**m).clone()).collect();
        Ok(StreamingState {
            ops: program.ops,
            output: program.output,
            sparse,
            graph,
            weights,
            values,
        })
    }

    /// Refuse mutations when any sparse operator has no known derivation —
    /// there would be nothing exact to rebuild it from.
    fn check_mutable(&self) -> ServeResult<()> {
        if self.graph.kinds.contains(&SparseKind::Opaque) {
            return Err(opaque_operator());
        }
        Ok(())
    }

    /// Install the edited adjacency and re-derive every operator from it,
    /// so each is bitwise what a cold reload would compute.
    fn set_adjacency(&mut self, adjacency: Csr) -> ServeResult<()> {
        self.graph.adjacency = adjacency;
        self.sparse = self.graph.operators()?;
        Ok(())
    }

    /// Re-evaluate every op from scratch against the current operators —
    /// the cold path, and therefore exact by definition.
    fn full_recompute(&mut self) -> ServeResult<()> {
        lasagne_obs::span!("serve.evaluate");
        let refs: Vec<&Csr> = self.sparse.iter().collect();
        self.values = eval_all(&self.ops, &refs, &self.weights)?;
        Ok(())
    }

    /// The cached program output.
    fn output_value(&self) -> &Tensor {
        leaf_value(&self.ops[self.output], &self.weights)
            .expect("weights are checked at load")
            .unwrap_or(&self.values[self.output])
    }

    fn edge_mutation(&mut self, u: usize, v: usize, add: bool) -> ServeResult<Outcome> {
        self.check_mutable()?;
        let next = delta::toggle_edge(&self.graph.adjacency, u, v, add)?;
        self.set_adjacency(next)?;
        self.incremental(u, v)
    }

    fn add_node(&mut self, features: &[f32]) -> ServeResult<Outcome> {
        self.check_mutable()?;
        let n = self.graph.adjacency.rows();
        let &first = self.graph.features_ops.first().ok_or_else(|| {
            ServeError::BadRequest(
                "model carries no feature-table binding; 'add_node' is unsupported".into(),
            )
        })?;
        let dim = match &self.ops[first] {
            ProgramOp::Constant { value } => value.cols(),
            _ => return Err(ServeError::Internal("features op is not a constant".into())),
        };
        if features.len() != dim {
            return Err(ServeError::BadRequest(format!(
                "'add_node' needs {dim} features, got {}",
                features.len()
            )));
        }
        // Node-pinned state makes the model transductive-only: a weight or
        // non-feature constant with one row per node (Lasagne's Weighted
        // c-parameters, Stochastic's p-parameter and its neg-max constant)
        // has no principled value for an unseen node.
        for (name, t) in &self.weights {
            if t.rows() == n {
                return Err(ServeError::BadRequest(format!(
                    "parameter '{name}' is pinned to the frozen node set; \
                     'add_node' is unsupported for this model"
                )));
            }
        }
        for (i, op) in self.ops.iter().enumerate() {
            if let ProgramOp::Constant { value } = op {
                if value.rows() == n && !self.graph.features_ops.contains(&i) {
                    return Err(ServeError::BadRequest(format!(
                        "program constant {i} is pinned to the frozen node set; \
                         'add_node' is unsupported for this model"
                    )));
                }
            }
        }
        for &fi in &self.graph.features_ops {
            if let ProgramOp::Constant { value } = &mut self.ops[fi] {
                let mut data = value.as_slice().to_vec();
                data.extend_from_slice(features);
                *value = Tensor::from_vec(value.rows() + 1, dim, data)
                    .map_err(|e| ServeError::Internal(format!("grow features: {e}")))?;
            }
        }
        // Node `n` arrives isolated: an empty row and column.
        let grown = delta::with_isolated_node(&self.graph.adjacency);
        // Every op's row count changes, so there is no incremental path:
        // re-derive the operators and run the cold evaluation of the grown
        // graph (its feature constants are already the grown ones).
        self.set_adjacency(grown)?;
        self.full_recompute()?;
        Ok(Outcome { rows: None, node: Some(n) })
    }

    /// The incremental path for a single edge toggle on `u — v`.
    fn incremental(&mut self, u: usize, v: usize) -> ServeResult<Outcome> {
        // Changed-row seeds per operator. Â's row i changes iff i's own row
        // structure changed (i ∈ {u,v}) or a neighbor's degree did (i
        // adjacent to u or v) — u, v and their post-mutation neighbors
        // cover both for a single-edge change (on delete, v itself covers
        // u's lost neighbor and vice versa). Rw/Loops/Adj rows only change
        // for u and v: their other rows keep identical entries and degrees.
        let mut sym_seed: Vec<usize> = Vec::new();
        for &node in &[u, v] {
            sym_seed.extend(self.graph.adjacency.row_indices(node).iter().map(|&j| j as usize));
            sym_seed.push(node);
        }
        let edge_seed = vec![u, v];
        let changed: Vec<(Operand, Vec<usize>)> = self
            .graph
            .kinds
            .iter()
            .enumerate()
            .map(|(m, k)| {
                let seed = if matches!(k, SparseKind::Sym) { &sym_seed } else { &edge_seed };
                (Operand::Sparse(m), seed.clone())
            })
            .collect();

        let refs: Vec<&Csr> = self.sparse.iter().collect();
        let src = Resident {
            ops: &self.ops,
            sparse: &refs,
            weights: &self.weights,
            values: &self.values,
        };
        let Some(dirty) = dirty_rows(&src, &changed) else {
            drop(refs);
            self.full_recompute()?;
            return Ok(Outcome { rows: None, node: None });
        };
        eval_dirty(&self.ops, &refs, &self.weights, &mut self.values, &dirty);
        Ok(Outcome { rows: Some(dirty[self.output].clone()), node: None })
    }
}

impl Engine {
    /// Whether this model was frozen with a graph binding (mutations work).
    pub fn supports_mutation(&self) -> bool {
        self.streaming.is_some()
    }

    /// Apply one graph mutation, patching the propagation cache either
    /// incrementally (dirty rows only) or via full re-evaluation. Either
    /// way the cache is bitwise what a cold engine on the mutated graph
    /// would hold — the invariant `streaming_equiv.rs` proves.
    pub fn apply_mutation(&mut self, mutation: &Mutation) -> ServeResult<MutationReport> {
        lasagne_obs::span!("serve.mutate");
        let t0 = Instant::now();
        let st = self.streaming.as_mut().ok_or_else(|| {
            ServeError::Mismatch(
                "frozen model carries no graph binding (exported before streaming support); \
                 re-export it to enable mutations"
                    .into(),
            )
        })?;
        let outcome = match mutation {
            Mutation::AddEdge { u, v } => st.edge_mutation(*u, *v, true)?,
            Mutation::RemoveEdge { u, v } => st.edge_mutation(*u, *v, false)?,
            Mutation::AddNode { features } => st.add_node(features)?,
        };
        match &outcome.rows {
            None => {
                self.logits = st.output_value().clone();
                self.probs = self.logits.softmax_rows();
            }
            Some(rows) => {
                let out = st.output_value();
                for &r in rows {
                    self.logits.row_mut(r).copy_from_slice(out.row(r));
                }
                // softmax_rows is per-row: softmax of the gathered rows is
                // bitwise the corresponding rows of a full softmax.
                let patched = self.logits.gather_rows(rows).softmax_rows();
                for (i, &r) in rows.iter().enumerate() {
                    self.probs.row_mut(r).copy_from_slice(patched.row(i));
                }
            }
        }
        self.meta.num_nodes = st.graph.adjacency.rows();
        let report = MutationReport {
            dirty_rows: outcome.rows.as_ref().map_or(self.meta.num_nodes, Vec::len),
            full: outcome.rows.is_none(),
            num_nodes: self.meta.num_nodes,
            node: outcome.node,
        };
        lasagne_obs::counter_add("serve.mutations", 1);
        lasagne_obs::counter_add("serve.dirty_rows", report.dirty_rows as u64);
        lasagne_obs::counter_add_ns("serve.recompute_ns", t0.elapsed().as_nanos() as u64);
        Ok(report)
    }
}
