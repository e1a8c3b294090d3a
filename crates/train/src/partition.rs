//! Out-of-core partitioned training and full-graph-equivalent eval
//! (DESIGN.md §14).
//!
//! Three pieces:
//!
//! * [`PartitionStore`] spills a partitioned dataset to per-partition block
//!   files — each block is the induced training subgraph of one part
//!   (ClusterGCN semantics: boundary edges dropped) plus its gathered
//!   features, labels and local train indices, wrapped in the checkpoint-v2
//!   checksum envelope so a flipped byte or truncated file always loads as
//!   a typed [`TrainError`], never as garbage nodes.
//! * [`StreamedClusterBatches`] is a [`BatchStrategy`] over a store that
//!   keeps **one** block's [`TrainBatch`] resident at a time — peak memory
//!   O(partition), not O(graph). Blocks are spilled in `partition_bfs`
//!   output order with nodes in BFS order, so the rebuilt subgraph,
//!   gathered features and cycling order are *identical* to the resident
//!   [`ClusterBatches`](lasagne_gnn::sampling::ClusterBatches) — the
//!   streamed loss curve matches the resident ClusterGCN curve **bitwise**
//!   (pinned by `tests/partition_equiv.rs`). Against full-batch training
//!   it remains the documented ClusterGCN approximation: boundary edges do
//!   not propagate.
//! * [`export_eval_program`] + [`evaluate_partitioned`] give the exact
//!   full-graph eval: record the model's `Mode::Eval` forward once as a
//!   frozen program, then evaluate it partition-by-partition through the
//!   row-demand evaluator (`lasagne_autograd::peval`) — bitwise equal to
//!   [`crate::evaluate`]. The parts share one row cache, so each row of a
//!   tensor an SpMM reads is computed once; beyond those `N`-row tensors,
//!   only one part's working set is live at a time.

use std::path::{Path, PathBuf};

use lasagne_autograd::{PevalError, Program, Tape};
use lasagne_datasets::Dataset;
use lasagne_gnn::sampling::{BatchStrategy, TrainBatch};
use lasagne_gnn::{GraphContext, Mode, NodeClassifier};
use lasagne_graph::Graph;
use lasagne_tensor::{Tensor, TensorRng};
use lasagne_testkit::Json;

use crate::checkpoint::{atomic_write_envelope, read_envelope, tensor_from_json, tensor_to_json};
use crate::error::{TrainError, TrainResult};

fn usizes_to_json(xs: impl IntoIterator<Item = usize>) -> Json {
    Json::Arr(xs.into_iter().map(|v| Json::Num(v as f64)).collect())
}

fn usizes_from_json(j: &Json, what: &str) -> TrainResult<Vec<usize>> {
    j.as_arr()
        .ok_or_else(|| TrainError::Parse(format!("'{what}' not an array")))?
        .iter()
        .map(|v| v.as_usize().ok_or_else(|| TrainError::Parse(format!("'{what}' entry not an integer"))))
        .collect()
}

fn field<'j>(j: &'j Json, k: &str) -> TrainResult<&'j Json> {
    j.get(k).ok_or_else(|| TrainError::Parse(format!("partition file missing field '{k}'")))
}

fn usize_field(j: &Json, k: &str) -> TrainResult<usize> {
    field(j, k)?.as_usize().ok_or_else(|| TrainError::Parse(format!("'{k}' not an integer")))
}

/// One spilled partition, loaded back into memory.
#[derive(Debug, Clone)]
pub struct SpilledBlock {
    /// Index of this block in the store.
    pub part: usize,
    /// Global node ids of the part's core, in `partition_bfs` output
    /// order (NOT sorted — local indexing must match the resident
    /// ClusterGCN batches exactly).
    pub core: Vec<usize>,
    /// Induced-subgraph edge list over local indices.
    pub edges: Vec<(u32, u32)>,
    /// Features of the core rows (`core.len() × d`).
    pub features: Tensor,
    /// Label per core node.
    pub labels: Vec<usize>,
    /// Local indices (into `core`) of training nodes.
    pub train_idx: Vec<usize>,
    /// Class count (shared by all blocks).
    pub num_classes: usize,
}

impl SpilledBlock {
    /// Rebuild the exact [`TrainBatch`] the resident `ClusterBatches` path
    /// would have built for this part: same `Graph::from_edges`, same
    /// derived operators, same local ordering — bitwise-identical training.
    pub fn to_train_batch(&self) -> TrainBatch {
        let sub = Graph::from_edges(self.core.len(), &self.edges);
        let ctx = GraphContext::new(&sub, self.features.clone(), self.labels.clone(), self.num_classes);
        TrainBatch { ctx, train_idx: self.train_idx.clone() }
    }
}

/// A directory of per-partition block files plus a manifest, all in the
/// checkpoint-v2 checksum envelope.
#[derive(Debug, Clone)]
pub struct PartitionStore {
    dir: PathBuf,
    num_blocks: usize,
    nodes: usize,
    num_classes: usize,
    /// Blocks holding at least one training node, in block order — the
    /// cycling order of the streamed ClusterGCN strategy.
    train_blocks: Vec<usize>,
}

impl PartitionStore {
    fn manifest_path(dir: &Path) -> PathBuf {
        dir.join("manifest.json")
    }

    fn block_path(dir: &Path, b: usize) -> PathBuf {
        dir.join(format!("block_{b:05}.json"))
    }

    /// Spill `ds` partitioned by `parts` (a `partition_bfs` result: parts in
    /// output order, nodes in BFS order) into `dir`, one envelope-checksummed
    /// file per part plus a manifest. Existing files are overwritten
    /// atomically.
    pub fn spill(dir: &Path, ds: &Dataset, parts: &[Vec<usize>]) -> TrainResult<PartitionStore> {
        std::fs::create_dir_all(dir)
            .map_err(|e| TrainError::Io(format!("{}: {e}", dir.display())))?;
        let mut is_train = vec![false; ds.num_nodes()];
        for &v in &ds.split.train {
            is_train[v] = true;
        }
        let mut train_blocks = Vec::new();
        for (b, part) in parts.iter().enumerate() {
            let train_idx: Vec<usize> = part
                .iter()
                .enumerate()
                .filter(|&(_, &orig)| is_train[orig])
                .map(|(local, _)| local)
                .collect();
            if !train_idx.is_empty() {
                train_blocks.push(b);
            }
            let sub = ds.graph.induced_subgraph(part);
            let feats = ds.features.gather_rows(part);
            let labels: Vec<usize> = part.iter().map(|&v| ds.labels[v]).collect();
            let edges_flat: Vec<usize> = sub
                .edges()
                .iter()
                .flat_map(|&(u, v)| [u as usize, v as usize])
                .collect();
            let body = Json::Obj(vec![
                ("kind".into(), Json::Str("partition_block".into())),
                ("part".into(), Json::Num(b as f64)),
                ("num_classes".into(), Json::Num(ds.num_classes as f64)),
                ("core".into(), usizes_to_json(part.iter().copied())),
                ("edges".into(), usizes_to_json(edges_flat)),
                ("labels".into(), usizes_to_json(labels)),
                ("train_idx".into(), usizes_to_json(train_idx)),
                ("features".into(), tensor_to_json(&feats)),
            ]);
            atomic_write_envelope(&Self::block_path(dir, b), body)?;
        }
        let manifest = Json::Obj(vec![
            ("kind".into(), Json::Str("partition_manifest".into())),
            ("num_blocks".into(), Json::Num(parts.len() as f64)),
            ("nodes".into(), Json::Num(ds.num_nodes() as f64)),
            ("num_classes".into(), Json::Num(ds.num_classes as f64)),
            ("train_blocks".into(), usizes_to_json(train_blocks.iter().copied())),
        ]);
        atomic_write_envelope(&Self::manifest_path(dir), manifest)?;
        Ok(PartitionStore {
            dir: dir.to_path_buf(),
            num_blocks: parts.len(),
            nodes: ds.num_nodes(),
            num_classes: ds.num_classes,
            train_blocks,
        })
    }

    /// Open an existing store by reading (and checksum-verifying) its
    /// manifest.
    pub fn open(dir: &Path) -> TrainResult<PartitionStore> {
        let body = read_envelope(&Self::manifest_path(dir))?;
        if field(&body, "kind")?.as_str() != Some("partition_manifest") {
            return Err(TrainError::Mismatch("not a partition manifest".into()));
        }
        Ok(PartitionStore {
            dir: dir.to_path_buf(),
            num_blocks: usize_field(&body, "num_blocks")?,
            nodes: usize_field(&body, "nodes")?,
            num_classes: usize_field(&body, "num_classes")?,
            train_blocks: usizes_from_json(field(&body, "train_blocks")?, "train_blocks")?,
        })
    }

    /// Number of spilled blocks (= number of parts).
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Total nodes across all blocks.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Class count shared by all blocks.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Blocks with at least one training node, in cycling order.
    pub fn train_blocks(&self) -> &[usize] {
        &self.train_blocks
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Load one block, verifying its checksum envelope: corruption or
    /// truncation is a typed [`TrainError::Corrupt`]/[`TrainError::Parse`],
    /// never a silently-wrong subgraph.
    pub fn load_block(&self, b: usize) -> TrainResult<SpilledBlock> {
        if b >= self.num_blocks {
            return Err(TrainError::InvalidConfig(format!(
                "block {b} of {}",
                self.num_blocks
            )));
        }
        let body = read_envelope(&Self::block_path(&self.dir, b))?;
        if field(&body, "kind")?.as_str() != Some("partition_block") {
            return Err(TrainError::Mismatch("not a partition block".into()));
        }
        let part = usize_field(&body, "part")?;
        if part != b {
            return Err(TrainError::Mismatch(format!("block file {b} says part {part}")));
        }
        let core = usizes_from_json(field(&body, "core")?, "core")?;
        let edges_flat = usizes_from_json(field(&body, "edges")?, "edges")?;
        if edges_flat.len() % 2 != 0 {
            return Err(TrainError::Parse("odd edge array length".into()));
        }
        let edges: Vec<(u32, u32)> = edges_flat
            .chunks_exact(2)
            .map(|uv| (uv[0] as u32, uv[1] as u32))
            .collect();
        let labels = usizes_from_json(field(&body, "labels")?, "labels")?;
        let train_idx = usizes_from_json(field(&body, "train_idx")?, "train_idx")?;
        let features = tensor_from_json(field(&body, "features")?)?;
        let num_classes = usize_field(&body, "num_classes")?;
        if features.rows() != core.len() || labels.len() != core.len() {
            return Err(TrainError::Mismatch(format!(
                "block {b}: {} core nodes vs {} feature rows / {} labels",
                core.len(),
                features.rows(),
                labels.len()
            )));
        }
        for &(u, v) in &edges {
            if u as usize >= core.len() || v as usize >= core.len() {
                return Err(TrainError::Mismatch(format!(
                    "block {b}: edge ({u},{v}) outside its {} nodes",
                    core.len()
                )));
            }
        }
        for &t in &train_idx {
            if t >= core.len() {
                return Err(TrainError::Mismatch(format!(
                    "block {b}: train index {t} outside its {} nodes",
                    core.len()
                )));
            }
        }
        Ok(SpilledBlock { part, core, edges, features, labels, train_idx, num_classes })
    }
}

/// ClusterGCN batches streamed from a [`PartitionStore`]: exactly the
/// resident `ClusterBatches` cycling order and per-batch contents, with one
/// block resident at a time.
pub struct StreamedClusterBatches {
    store: PartitionStore,
    current_block: Option<usize>,
    current: Option<TrainBatch>,
}

impl StreamedClusterBatches {
    /// Stream from an existing store. Fails typed if no block holds a
    /// training node.
    pub fn new(store: PartitionStore) -> TrainResult<StreamedClusterBatches> {
        if store.train_blocks().is_empty() {
            return Err(TrainError::InvalidConfig(
                "no partition block holds a training node".into(),
            ));
        }
        Ok(StreamedClusterBatches { store, current_block: None, current: None })
    }

    /// Partition `ds` into `k` BFS-grown parts (consuming `rng` exactly like
    /// the resident `ClusterBatches::new`), spill to `dir`, and stream.
    pub fn from_dataset(
        dir: &Path,
        ds: &Dataset,
        k: usize,
        rng: &mut TensorRng,
    ) -> TrainResult<StreamedClusterBatches> {
        let parts = lasagne_graph::partition_bfs(&ds.graph, k, rng)
            .map_err(|e| TrainError::InvalidConfig(e.to_string()))?;
        StreamedClusterBatches::new(PartitionStore::spill(dir, ds, &parts)?)
    }

    /// The underlying store.
    pub fn store(&self) -> &PartitionStore {
        &self.store
    }
}

impl BatchStrategy for StreamedClusterBatches {
    fn name(&self) -> &'static str {
        "clustergcn-streamed"
    }

    /// Loads the step's block if it is not the resident one. The trait is
    /// infallible, so a block that fails its checksum mid-training panics
    /// with the typed error's message; probe blocks up front via
    /// [`PartitionStore::load_block`] where a `Result` is needed.
    fn batch(&mut self, step: usize, _rng: &mut TensorRng) -> &TrainBatch {
        let b = self.store.train_blocks()[step % self.store.train_blocks().len()];
        if self.current_block != Some(b) {
            let block = self
                .store
                .load_block(b)
                .unwrap_or_else(|e| panic!("streamed batch {b}: {e}"));
            self.current = Some(block.to_train_batch());
            self.current_block = Some(b);
        }
        self.current.as_ref().expect("block resident")
    }
}

/// Record `model`'s `Mode::Eval` forward over `ctx` once and export it as a
/// frozen program plus its weight table. The recording itself evaluates the
/// full graph (define-by-run); everything *after* — any number of
/// [`evaluate_partitioned`] sweeps — holds the tensors SpMMs read plus one
/// part's working set. Models whose eval forward contains train-only ops
/// fail typed.
pub fn export_eval_program(
    model: &dyn NodeClassifier,
    ctx: &GraphContext,
    rng: &mut TensorRng,
) -> TrainResult<(Program, Vec<(String, Tensor)>)> {
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, ctx, Mode::Eval, rng);
    let program = tape
        .export_program(model.store(), out.logits)
        .map_err(|e| TrainError::Mismatch(e.to_string()))?;
    let store = model.store();
    let weights: Vec<(String, Tensor)> = (0..store.len())
        .map(|i| {
            let id = lasagne_autograd::ParamId::from_index(i);
            (store.name(id).to_string(), store.value(id).clone())
        })
        .collect();
    Ok((program, weights))
}

/// Evaluate an exported program partition-by-partition; bitwise equal to
/// the resident [`crate::evaluate`] wherever the program is row-local, with
/// typed fallback guidance when it is not (GAT-style programs).
pub fn evaluate_partitioned(
    program: &Program,
    weights: &[(String, Tensor)],
    parts: &[Vec<usize>],
) -> TrainResult<Tensor> {
    lasagne_autograd::evaluate_program_partitioned(program, weights, parts).map_err(|e| match e {
        PevalError::BadPartition(_) | PevalError::RowOutOfRange { .. } => {
            TrainError::InvalidConfig(e.to_string())
        }
        _ => TrainError::Mismatch(e.to_string()),
    })
}
