//! Lazy per-partition propagation caches (DESIGN.md §14).
//!
//! [`crate::Engine`] evaluates the whole frozen program at load time — the
//! right trade when most nodes will be queried. [`LazyEngine`] instead
//! plans the program once at load time for the one evaluator's demand
//! schedule ([`lasagne_autograd::RowPlan`], DESIGN.md §10) and materializes
//! logits **one partition at a time**, on first query of any node in that
//! partition. Partitions never touched stay unmaterialized.
//!
//! Every fault evaluates through one [`RowCache`] the engine owns, so the
//! rows a fault computes of the tensors an SpMM reads — the only demand
//! that crosses partitions — are computed once per loaded engine, not once
//! per fault. A warm engine therefore holds `N ×` (the sum of those
//! tensors' widths) plus one fault's working set, still below the resident
//! engine's table of every intermediate. The cache is empty at load, so
//! loading gains no work.
//!
//! The exactness contract is inherited from the evaluator, not relaxed:
//! every row served is bitwise identical to the resident engine's row
//! (pinned by `tests/partition_equiv.rs`), quantized artifacts included —
//! both engines bind the same load-time dequantized weights — and
//! `recommend` is the resident engine's ranking over those rows. Programs
//! that cannot honor that contract row-locally (GAT's graph-global
//! attention softmax) are refused typed at load time, as are streaming
//! mutations (the caches would go silently stale).

use std::sync::{Mutex, OnceLock, PoisonError};

use lasagne_autograd::{RowCache, RowPlan};
use lasagne_graph::{Graph, Partitioning};
use lasagne_sparse::Csr;
use lasagne_tensor::{Tensor, TensorRng};

use crate::engine::{ranked, recommend, Prediction};
use crate::error::{ServeError, ServeResult};
use crate::frozen::{FrozenMeta, FrozenModel, FrozenRec};
use crate::streaming::{Mutation, MutationReport};

/// Deterministic seed for the load-time BFS partitioning: partition layout
/// is a pure function of the frozen artifact and `k`.
const PARTITION_SEED: u64 = 0;

/// One materialized partition: logits and softmax rows for the partition's
/// nodes, in partition order.
struct PartCache {
    logits: Tensor,
    probs: Tensor,
}

/// A frozen model serving out of lazily materialized per-partition caches.
pub struct LazyEngine {
    meta: FrozenMeta,
    /// The demand plan, built once at load; it owns its program (no `Rc`),
    /// so the engine stays `Send + Sync`.
    plan: RowPlan<'static>,
    /// Non-empty sorted node lists forming an exact cover of
    /// `0..num_nodes`, in deterministic order.
    parts: Vec<Vec<usize>>,
    /// The partition count the engine was planned with; a hot swap re-plans
    /// with it (BFS growth may leave fewer non-empty parts than this).
    k: usize,
    /// Partition index per node.
    part_of: Vec<u32>,
    /// Row position of each node inside its partition's cache.
    pos_in_part: Vec<u32>,
    /// Materialize-once slots; an evaluation failure is cached typed too.
    caches: Vec<OnceLock<ServeResult<PartCache>>>,
    /// Rows of the plan's SpMM operands that earlier faults computed. A
    /// row is flagged only once written, so the cache a panicking fault
    /// leaves behind is still valid: a poisoned lock is recovered.
    kept: Mutex<RowCache>,
    /// Whether the loaded file carried quantized weights.
    quantized: bool,
    /// Recommendation binding, as on the resident engine.
    rec: Option<FrozenRec>,
}

impl LazyEngine {
    /// Plan `frozen` for partition-lazy serving with `k` partitions.
    ///
    /// Models frozen with a graph binding are partitioned with the same
    /// BFS-grown [`Partitioning`] the training side uses (seeded
    /// deterministically); models without a binding fall back to contiguous
    /// node ranges — the exactness contract is independent of the layout.
    /// Parts the BFS growth left empty are dropped, so a full sweep fills
    /// every one of [`LazyEngine::num_parts`].
    pub fn new(frozen: FrozenModel, k: usize) -> ServeResult<LazyEngine> {
        lasagne_obs::span!("serve.engine.lazy_load");
        frozen.check_quantized_bindings()?;
        let quantized = frozen.is_quantized();
        let n = frozen.meta.num_nodes;
        if k < 1 || k > n.max(1) {
            return Err(ServeError::Mismatch(format!(
                "invalid partition count {k} for a graph of {n} nodes"
            )));
        }
        let parts = match &frozen.graph {
            Some(binding) => {
                let g = graph_from_adjacency(&binding.adjacency);
                let mut rng = TensorRng::seed_from_u64(PARTITION_SEED);
                let partitioning = Partitioning::new(&g, k, &mut rng)
                    .map_err(|e| ServeError::Mismatch(e.to_string()))?;
                let cores = partitioning.parts().iter().map(|b| b.core.clone());
                cores.filter(|core| !core.is_empty()).collect::<Vec<_>>()
            }
            None => contiguous_parts(n, k),
        };
        let mut part_of = vec![0u32; n];
        let mut pos_in_part = vec![0u32; n];
        for (p, part) in parts.iter().enumerate() {
            for (pos, &v) in part.iter().enumerate() {
                part_of[v] = p as u32;
                pos_in_part[v] = pos as u32;
            }
        }
        let weights = frozen.weights_f32();
        let sparse: Vec<Csr> = frozen
            .program
            .sparse
            .into_iter()
            .map(|m| std::rc::Rc::try_unwrap(m).unwrap_or_else(|rc| (*rc).clone()))
            .collect();
        // Row-locality and missing weights surface as typed load errors,
        // not first-query surprises.
        let plan = RowPlan::owned(frozen.program.ops, sparse, weights, frozen.program.output)?;
        if plan.output_shape() != (n, frozen.meta.num_classes) {
            return Err(ServeError::Mismatch(format!(
                "program output is {:?} but metadata says {} nodes × {} classes",
                plan.output_shape(),
                n,
                frozen.meta.num_classes
            )));
        }
        let caches = (0..parts.len()).map(|_| OnceLock::new()).collect();
        Ok(LazyEngine {
            meta: frozen.meta,
            plan,
            parts,
            k,
            part_of,
            pos_in_part,
            caches,
            kept: Mutex::new(RowCache::new()),
            quantized,
            rec: frozen.rec,
        })
    }

    /// Load + checksum the frozen file at `path` and plan it lazily.
    pub fn load_path(path: &std::path::Path, k: usize) -> ServeResult<LazyEngine> {
        LazyEngine::new(FrozenModel::load(path)?, k)
    }

    /// Provenance/shape metadata of the loaded model.
    pub fn meta(&self) -> &FrozenMeta {
        &self.meta
    }

    /// Whether this engine serves approximate (quantized-weight) logits.
    pub fn is_quantized(&self) -> bool {
        self.quantized
    }

    /// Nodes in the frozen graph (valid query ids are `0..num_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.meta.num_nodes
    }

    /// Output classes.
    pub fn num_classes(&self) -> usize {
        self.meta.num_classes
    }

    /// Number of (non-empty) partitions the node set is split into.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// The partition count the engine was planned with, which a hot swap
    /// re-plans with; at least [`LazyEngine::num_parts`].
    pub(crate) fn planned_parts(&self) -> usize {
        self.k
    }

    /// How many partitions have been materialized so far — the observable
    /// laziness (starts at 0, grows only when queries touch new parts).
    pub fn cached_parts(&self) -> usize {
        self.caches.iter().filter(|c| c.get().is_some()).count()
    }

    /// Materialize (once) and return the cache of partition `p`.
    fn part_cache(&self, p: usize) -> ServeResult<&PartCache> {
        self.caches[p]
            .get_or_init(|| {
                lasagne_obs::span!("serve.engine.lazy_materialize");
                let mut kept = self.kept.lock().unwrap_or_else(PoisonError::into_inner);
                let logits = self.plan.eval_rows_cached(&self.parts[p], &mut kept)?;
                drop(kept);
                let probs = logits.softmax_rows();
                Ok(PartCache { logits, probs })
            })
            .as_ref()
            .map_err(|e| e.clone())
    }

    /// The cached `(logits, probs)` rows of a node, materializing its
    /// partition on first touch.
    fn rows(&self, node: usize) -> ServeResult<(&[f32], &[f32])> {
        self.meta.check_node(node)?;
        let cache = self.part_cache(self.part_of[node] as usize)?;
        let pos = self.pos_in_part[node] as usize;
        Ok((cache.logits.row(pos), cache.probs.row(pos)))
    }

    /// Raw logits row for a node — bitwise identical to
    /// [`crate::Engine::logits_row`] on the same artifact.
    pub fn logits_row(&self, node: usize) -> ServeResult<&[f32]> {
        Ok(self.rows(node)?.0)
    }

    /// Argmax class + softmax distribution for a node.
    pub fn predict(&self, node: usize) -> ServeResult<Prediction> {
        let (logits, probs) = self.rows(node)?;
        Ok(Prediction::new(node, logits, probs))
    }

    /// The `k` most probable classes for a node, most probable first
    /// (ties broken by lower class id; `k` is clamped to the class count).
    pub fn top_k(&self, node: usize, k: usize) -> ServeResult<Vec<(usize, f32)>> {
        let (logits, probs) = self.rows(node)?;
        Ok(ranked(logits, probs, k))
    }

    /// Top-`k` item recommendations for user node `node`, best first —
    /// the resident engine's ranking over the same rows, materializing the
    /// partitions that hold the user and the items.
    pub fn recommend(&self, node: usize, k: usize) -> ServeResult<Vec<(usize, f32)>> {
        recommend(&self.meta, self.rec.as_ref(), node, k, |v| self.logits_row(v))
    }

    /// Streaming mutations are refused typed: patching a lazily cached
    /// engine would leave unmaterialized partitions reading the old graph
    /// and materialized ones the new — serve the resident [`crate::Engine`]
    /// for mutable graphs.
    pub fn apply_mutation(&mut self, _mutation: &Mutation) -> ServeResult<MutationReport> {
        Err(ServeError::Mismatch(
            "lazy partitioned engines do not support streaming mutations; \
             serve the resident engine for mutable graphs"
                .into(),
        ))
    }
}

/// Rebuild a [`Graph`] from the frozen raw adjacency (upper triangle of the
/// symmetric CSR).
fn graph_from_adjacency(adj: &Csr) -> Graph {
    let (n, _) = adj.shape();
    let mut edges = Vec::new();
    for u in 0..n {
        for &v in adj.row_indices(u) {
            if (v as usize) > u {
                edges.push((u as u32, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Exactly `k` contiguous node ranges whose sizes differ by at most one —
/// the binding-free fallback layout.
fn contiguous_parts(n: usize, k: usize) -> Vec<Vec<usize>> {
    (0..k).map(|p| (p * n / k..(p + 1) * n / k).collect()).collect()
}
