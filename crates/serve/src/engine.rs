//! The tape-free forward engine.
//!
//! [`evaluate_program`] runs an exported [`Program`] through the resident
//! schedule of the one evaluator ([`lasagne_autograd::eval_all`], DESIGN.md
//! §10): every op's kernel is the exact `lasagne-tensor` /
//! `lasagne-sparse` call the autograd tape constructor makes, in the same
//! topological order — which is what makes a frozen forward
//! bitwise-identical to the training-path eval forward, at any
//! `lasagne-par` thread count (the parallel runtime's determinism contract
//! says threads change wall-clock, never bits).
//!
//! [`Engine`] adds the **propagation cache**: for a transductive model the
//! graph, features, and weights are all frozen, so the full-graph program is
//! evaluated exactly once at load time and every node query after that is a
//! row lookup plus a softmax — no per-request linear algebra at all. That is
//! also why the engine is `Send` (plain tensors, no `Rc`): the program is
//! consumed at construction; what survives is the cache — plus, for models
//! frozen with a graph binding, the streaming state that can patch it.

use lasagne_autograd::{eval_all, program_shapes, Operands, Program, Resident};
use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;

use crate::error::{ServeError, ServeResult};
use crate::frozen::{FrozenMeta, FrozenModel, FrozenRec};
use crate::streaming::StreamingState;

/// Evaluate `program`, binding `Param` leaves against `weights` by name.
/// Returns the output tensor (for a classifier: `N×F` logits).
pub fn evaluate_program(program: &Program, weights: &[(String, Tensor)]) -> ServeResult<Tensor> {
    Ok(resident(program, weights)?.1)
}

/// The resident schedule over `program`: every instruction's value (the
/// streaming cache) and a copy of the output.
fn resident(program: &Program, weights: &[(String, Tensor)]) -> ServeResult<(Vec<Tensor>, Tensor)> {
    lasagne_obs::span!("serve.evaluate");
    let sparse: Vec<&Csr> = program.sparse.iter().map(|m| &**m).collect();
    let values = eval_all(&program.ops, &sparse, weights)?;
    let src = Resident { ops: &program.ops, sparse: &sparse, weights, values: &values };
    let output = src.whole(program.output).clone();
    Ok((values, output))
}

/// One node's answer: the argmax class and the full softmax distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Queried node id.
    pub node: usize,
    /// Argmax class.
    pub class: usize,
    /// Softmax probabilities, one per class.
    pub probs: Vec<f32>,
}

impl Prediction {
    /// The answer for `node` from its logits and softmax rows: the class
    /// is the first maximum of the logits row — the class
    /// `Tensor::argmax_rows` picks and [`ranked`] puts first.
    pub(crate) fn new(node: usize, logits: &[f32], probs: &[f32]) -> Prediction {
        let (mut class, mut best) = (0, f32::NEG_INFINITY);
        for c in 0..logits.len() {
            let key = rank_key(logits, c);
            if key > best {
                (class, best) = (c, key);
            }
        }
        Prediction { node, class, probs: probs.to_vec() }
    }
}

/// Class `c`'s ranking key: its logit, with `-0.0` tying `+0.0` and NaN
/// ranking last.
fn rank_key(logits: &[f32], c: usize) -> f32 {
    if logits[c].is_nan() {
        f32::NEG_INFINITY
    } else {
        logits[c] + 0.0
    }
}

/// The `k` best classes of one node with their probabilities: descending
/// [`rank_key`], ties to the lower class id — so the first entry is the
/// class [`Prediction::new`] picks.
pub(crate) fn ranked(logits: &[f32], probs: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut order: Vec<usize> = (0..logits.len()).collect();
    order.sort_by(|&a, &b| rank_key(logits, b).total_cmp(&rank_key(logits, a)).then(a.cmp(&b)));
    order.into_iter().take(k).map(|c| (c, probs[c])).collect()
}

/// A loaded model ready to answer node queries out of its propagation
/// cache. Construction runs the frozen program once; queries are O(classes).
/// Models frozen with a graph binding also accept mutations
/// ([`Engine::apply_mutation`]), which patch the cache incrementally.
pub struct Engine {
    pub(crate) meta: FrozenMeta,
    /// Full-graph logits — the propagation cache.
    pub(crate) logits: Tensor,
    /// Full-graph softmax rows, cached alongside (clients overwhelmingly
    /// want probabilities).
    pub(crate) probs: Tensor,
    /// Streaming-mutation state; `None` for pre-streaming frozen files,
    /// which answer mutations with a typed `mismatch` error.
    pub(crate) streaming: Option<StreamingState>,
    /// Whether the loaded file carried quantized weights (approximate
    /// logits, DESIGN.md §13). Surfaced in `stats`.
    pub(crate) quantized: bool,
    /// Recommendation binding (bipartite layout + interaction mask);
    /// `None` for node-classification artifacts, which answer `recommend`
    /// with a typed `not_a_recommender` error.
    pub(crate) rec: Option<FrozenRec>,
}

impl Engine {
    /// Evaluate `frozen`'s program over the whole graph and cache the
    /// result. Fails before evaluating if the program references a weight
    /// the file does not carry, if an instruction does not fit its
    /// operands' shapes ([`program_shapes`]), or if its output shape
    /// contradicts the metadata.
    pub fn new(frozen: FrozenModel) -> ServeResult<Engine> {
        lasagne_obs::span!("serve.engine.load");
        frozen.check_quantized_bindings()?;
        let program = &frozen.program;
        // No kernel runs on operands that do not fit it: a file's weights
        // and ops are checked against each other first.
        let sparse_shapes: Vec<_> = program.sparse.iter().map(|m| m.shape()).collect();
        let shapes = program_shapes(&program.ops, &sparse_shapes, |name| {
            frozen.weights.iter().find(|(n, _)| n == name).map(|(_, w)| w.shape())
        })?;
        if shapes[program.output] != (frozen.meta.num_nodes, frozen.meta.num_classes) {
            return Err(ServeError::Mismatch(format!(
                "program output is {:?} but metadata says {} nodes × {} classes",
                shapes[program.output],
                frozen.meta.num_nodes,
                frozen.meta.num_classes
            )));
        }
        let weights = frozen.weights_f32();
        let (values, logits) = resident(program, &weights)?;
        let probs = logits.softmax_rows();
        let quantized = frozen.is_quantized();
        let streaming = match frozen.graph {
            Some(g) => Some(StreamingState::new(frozen.program, g, weights, values)?),
            None => None,
        };
        Ok(Engine { meta: frozen.meta, logits, probs, streaming, quantized, rec: frozen.rec })
    }

    /// Whether this engine serves approximate (quantized-weight) logits.
    pub fn is_quantized(&self) -> bool {
        self.quantized
    }

    /// Load + checksum the frozen file at `path` and build its engine —
    /// `Engine::new(FrozenModel::load(path)?)` as one call. This is the
    /// hot-swap loading path: it runs on the swapping thread so the
    /// batcher keeps serving the old model while the new one propagates.
    pub fn load_path(path: &std::path::Path) -> ServeResult<Engine> {
        Engine::new(FrozenModel::load(path)?)
    }

    /// Provenance/shape metadata of the loaded model.
    pub fn meta(&self) -> &FrozenMeta {
        &self.meta
    }

    /// Nodes in the frozen graph (valid query ids are `0..num_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.meta.num_nodes
    }

    /// Output classes.
    pub fn num_classes(&self) -> usize {
        self.meta.num_classes
    }

    /// Raw logits row for a node (bitwise-comparable against the training
    /// path's eval forward).
    pub fn logits_row(&self, node: usize) -> ServeResult<&[f32]> {
        self.meta.check_node(node)?;
        Ok(self.logits.row(node))
    }

    /// Argmax class + softmax distribution for a node.
    pub fn predict(&self, node: usize) -> ServeResult<Prediction> {
        self.meta.check_node(node)?;
        Ok(Prediction::new(node, self.logits.row(node), self.probs.row(node)))
    }

    /// The `k` most probable classes for a node, most probable first
    /// (ties broken by lower class id; `k` is clamped to the class count).
    pub fn top_k(&self, node: usize, k: usize) -> ServeResult<Vec<(usize, f32)>> {
        self.meta.check_node(node)?;
        Ok(ranked(self.logits.row(node), self.probs.row(node), k))
    }

    /// Whether the loaded file carried a recommendation binding (bipartite
    /// layout + interaction mask), i.e. whether `recommend` will answer.
    pub fn is_recommender(&self) -> bool {
        self.rec.is_some()
    }

    /// Top-`k` item recommendations for user node `node`, best first: the
    /// items the user has not interacted with, ranked by the dot product
    /// of their logits rows with the user's — bitwise the training-side
    /// `lasagne_datasets::RecDataset::score_topk`.
    pub fn recommend(&self, node: usize, k: usize) -> ServeResult<Vec<(usize, f32)>> {
        recommend(&self.meta, self.rec.as_ref(), node, k, |v| self.logits_row(v))
    }
}

/// Top-`k` item recommendations for user node `node`, best first, reading
/// embedding rows through `row` — the one ranking both engines serve.
///
/// Scores every item the user has *not* interacted with (the frozen
/// interaction mask hides training items) as the dot product of the
/// user's and the item's embedding rows. The accumulation order (ascending
/// index) and the ranking order (score descending via `total_cmp`, ties to
/// the lower item id) are the exact contract of
/// `lasagne_datasets::{dot_score, sort_ranked}`, so serving-side rankings
/// are bitwise-reproducible against the training-side evaluator.
pub(crate) fn recommend<'a>(
    meta: &FrozenMeta,
    rec: Option<&FrozenRec>,
    node: usize,
    k: usize,
    row: impl Fn(usize) -> ServeResult<&'a [f32]>,
) -> ServeResult<Vec<(usize, f32)>> {
    let rec = rec.ok_or_else(|| ServeError::NotARecommender {
        reason: format!(
            "model '{}' was frozen without a recommendation binding \
             (predict/top_k remain available)",
            meta.model
        ),
    })?;
    if node < rec.items || node >= rec.items + rec.users {
        return Err(ServeError::UnknownUser { node, items: rec.items, users: rec.users });
    }
    let mask = rec.interacted.row_indices(node - rec.items);
    let user_row = row(node)?;
    let mut scored: Vec<(usize, f32)> = Vec::with_capacity(rec.items - mask.len());
    for item in 0..rec.items {
        // `interacted` rows are sorted (CSR invariant), so masking is a
        // binary search, not a set lookup.
        if mask.binary_search(&(item as u32)).is_ok() {
            continue;
        }
        let mut acc = 0.0f32;
        for (x, y) in user_row.iter().zip(row(item)?) {
            acc += x * y;
        }
        scored.push((item, acc));
    }
    if scored.is_empty() {
        return Err(ServeError::NoCandidates { node });
    }
    lasagne_obs::counter_add("serve.recommend", 1);
    lasagne_obs::counter_add("rec.candidates", scored.len() as u64);
    scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    Ok(scored)
}
