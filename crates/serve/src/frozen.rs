//! The on-disk frozen model format (DESIGN.md §10).
//!
//! A frozen model is everything inference needs and nothing training does:
//! a small metadata block, the named weight tensors, the deduplicated
//! sparse operators, and the exported eval-forward [`Program`]. It is
//! serialized with the workspace JSON codec inside the same
//! `{format_version, checksum, body}` envelope as training checkpoints
//! (FNV-1a 64 over the canonical body bytes, atomic tmp+rename publish),
//! so torn writes and bit flips are detected before a single weight binds.
//!
//! Every tensor and sparse payload is one string of hex words (each
//! element's little-endian bytes), so every `f32` round-trips bit for bit,
//! and objects are insertion-ordered, so exporting the same trained model
//! twice produces **byte-identical** files — verified in
//! `scripts/verify.sh` with `cmp`.

use std::path::Path;
use std::rc::Rc;

use lasagne_autograd::{Program, ProgramOp};
use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;
use lasagne_testkit::Json;
use lasagne_train::{
    atomic_write_envelope, named_param_from_json, named_param_to_json, read_envelope,
    tensor_from_json, tensor_to_json,
};

use crate::error::{ServeError, ServeResult};
use crate::quant::{QuantMatrix, QuantMode};

/// Provenance and shape facts about a frozen model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenMeta {
    /// Model display name (e.g. `"GCN"`, `"Lasagne-Weighted"`).
    pub model: String,
    /// Dataset the transductive graph came from (e.g. `"cora"`).
    pub dataset: String,
    /// Nodes in the frozen graph — the valid query id range.
    pub num_nodes: usize,
    /// Output classes.
    pub num_classes: usize,
}

impl FrozenMeta {
    /// Refuse, typed, a node id outside the frozen graph.
    pub(crate) fn check_node(&self, node: usize) -> ServeResult<()> {
        if node >= self.num_nodes {
            return Err(ServeError::UnknownNode { node, num_nodes: self.num_nodes });
        }
        Ok(())
    }
}

/// How a sparse-table entry derives from the raw adjacency. Recorded at
/// freeze time (by `Rc` identity against the exporting `GraphContext`) so
/// the streaming engine knows which normalization to re-run after a graph
/// mutation — the exactness contract of DESIGN.md §11 is that each rebuilt
/// operator is the *same call* `GraphContext::new` would make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseKind {
    /// `Â = D̃^{-1/2}(A+I)D̃^{-1/2}` — `with_self_loops().sym_normalize()`.
    Sym,
    /// Row-stochastic — `with_self_loops().rw_normalize()`.
    Rw,
    /// `A + I` — `with_self_loops()`.
    Loops,
    /// The raw adjacency itself.
    Adj,
    /// No known derivation (e.g. a sampled operator); mutations are
    /// refused on models that use one.
    Opaque,
}

impl SparseKind {
    fn as_str(self) -> &'static str {
        match self {
            SparseKind::Sym => "sym",
            SparseKind::Rw => "rw",
            SparseKind::Loops => "loops",
            SparseKind::Adj => "adj",
            SparseKind::Opaque => "opaque",
        }
    }

    fn parse(s: &str) -> Option<SparseKind> {
        Some(match s {
            "sym" => SparseKind::Sym,
            "rw" => SparseKind::Rw,
            "loops" => SparseKind::Loops,
            "adj" => SparseKind::Adj,
            "opaque" => SparseKind::Opaque,
            _ => return None,
        })
    }
}

/// The graph binding a streaming-capable frozen model carries: the raw
/// adjacency the sparse operators were derived from, one [`SparseKind`] per
/// sparse-table entry, and the program ops holding the feature matrix
/// (grown row-wise by `add_node`). Models frozen before streaming support
/// load with `graph: None` and refuse mutations with a typed error.
#[derive(Debug, Clone)]
pub struct FrozenGraph {
    /// Raw (unnormalized, loop-free) symmetric adjacency.
    pub adjacency: Csr,
    /// Derivation of each `program.sparse` entry, same order.
    pub kinds: Vec<SparseKind>,
    /// Indices of `Constant` ops that hold the node-feature matrix.
    pub features_ops: Vec<usize>,
}

impl FrozenGraph {
    /// Derive each `program.sparse` operator from `adjacency` by its
    /// [`SparseKind`], with the calls `GraphContext::new` makes, so each is
    /// bitwise what a cold build on this adjacency computes. The streaming
    /// engine re-derives its operators here after every mutation. Fails
    /// typed when an operator has no recorded derivation.
    pub fn operators(&self) -> ServeResult<Vec<Csr>> {
        let with_loops = self.adjacency.with_self_loops();
        self.kinds
            .iter()
            .map(|kind| match kind {
                SparseKind::Sym => Ok(with_loops.sym_normalize()),
                SparseKind::Rw => Ok(with_loops.rw_normalize()),
                SparseKind::Loops => Ok(with_loops.clone()),
                SparseKind::Adj => Ok(self.adjacency.clone()),
                SparseKind::Opaque => Err(opaque_operator()),
            })
            .collect()
    }
}

/// The refusal for re-deriving a [`SparseKind::Opaque`] operator: there is
/// nothing exact to rebuild it from, so graph mutations are unsupported.
pub(crate) fn opaque_operator() -> ServeError {
    ServeError::Mismatch(
        "model uses a sparse operator with no recorded derivation from the adjacency; \
         graph mutations are unsupported"
            .into(),
    )
}

/// How one named weight is stored in the frozen file: exact f32 (the
/// default — bitwise-faithful to training) or quantized (opt-in, produced
/// by [`FrozenModel::quantize`]; approximate, within the per-mode error
/// bounds of DESIGN.md §13).
#[derive(Debug, Clone)]
pub enum FrozenWeight {
    /// Full-precision tensor, byte-identical to the training checkpoint.
    Exact(Tensor),
    /// Compressed i8/f16 matrix, dequantized once when an engine loads it.
    Quant(QuantMatrix),
}

impl FrozenWeight {
    /// Materialize as an f32 tensor (clone for exact, dequantize for
    /// quantized).
    pub fn to_tensor(&self) -> Tensor {
        match self {
            FrozenWeight::Exact(t) => t.clone(),
            FrozenWeight::Quant(q) => q.dequantize(),
        }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            FrozenWeight::Exact(t) => t.shape(),
            FrozenWeight::Quant(q) => q.shape(),
        }
    }
}

/// The recommendation binding (DESIGN.md §15): bipartite layout plus the
/// training-interaction mask the `recommend` verb uses to exclude items the
/// user has already consumed. Models without this block answer `recommend`
/// with a typed `not_a_recommender` refusal.
#[derive(Debug, Clone)]
pub struct FrozenRec {
    /// Item-node count — nodes `0..items` are items.
    pub items: usize,
    /// User-node count — nodes `items..items+users` are users.
    pub users: usize,
    /// `users×items` binary training-interaction matrix (row `u` lists the
    /// items user node `items+u` interacted with).
    pub interacted: Csr,
}

/// A self-contained inference artifact: metadata, weights, and the exported
/// eval-forward program.
#[derive(Clone)]
pub struct FrozenModel {
    /// Provenance/shape metadata.
    pub meta: FrozenMeta,
    /// Named weights, in [`lasagne_autograd::ParamStore`] order.
    pub weights: Vec<(String, FrozenWeight)>,
    /// The tape-free forward program (references weights by name and sparse
    /// operators by table index).
    pub program: Program,
    /// Graph binding for streaming mutations; `None` on pre-streaming files.
    pub graph: Option<FrozenGraph>,
    /// Recommendation binding; `None` on node-classification artifacts.
    pub rec: Option<FrozenRec>,
}

fn num(v: usize) -> Json {
    Json::Num(v as f64)
}

fn f32_bits(v: f32) -> Json {
    // f32 constants ride as bit-exact hex so NaN payloads and negative
    // zero survive the trip (plain JSON numbers would lose NaN entirely).
    Json::Str(format!("{:08x}", v.to_bits()))
}

fn f32_from_bits(j: Option<&Json>, what: &str) -> ServeResult<f32> {
    j.and_then(Json::as_str)
        .and_then(|s| u32::from_str_radix(s, 16).ok())
        .map(f32::from_bits)
        .ok_or_else(|| ServeError::Parse(format!("{what}: missing or malformed f32 bits")))
}

fn field<'a>(j: &'a Json, k: &str, what: &str) -> ServeResult<&'a Json> {
    j.get(k).ok_or_else(|| ServeError::Parse(format!("{what}: missing field '{k}'")))
}

fn usize_field(j: &Json, k: &str, what: &str) -> ServeResult<usize> {
    field(j, k, what)?
        .as_usize()
        .ok_or_else(|| ServeError::Parse(format!("{what}: field '{k}' not an integer")))
}

fn str_field<'a>(j: &'a Json, k: &str, what: &str) -> ServeResult<&'a str> {
    field(j, k, what)?
        .as_str()
        .ok_or_else(|| ServeError::Parse(format!("{what}: field '{k}' not a string")))
}

fn usize_arr(j: &Json, k: &str, what: &str) -> ServeResult<Vec<usize>> {
    field(j, k, what)?
        .as_arr()
        .ok_or_else(|| ServeError::Parse(format!("{what}: field '{k}' not an array")))?
        .iter()
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| ServeError::Parse(format!("{what}: '{k}' entry not an integer")))
        })
        .collect()
}

/// A payload of 32-bit words stored as one hex-word string.
fn hex_words<T>(j: &Json, k: &str, what: &str, from_le: fn([u8; 4]) -> T) -> ServeResult<Vec<T>> {
    field(j, k, what)?
        .to_hex_words(from_le)
        .ok_or_else(|| ServeError::Parse(format!("{what}: field '{k}' not a string of hex words")))
}

fn csr_to_json(m: &Csr) -> Json {
    Json::Obj(vec![
        ("rows".into(), num(m.rows())),
        ("cols".into(), num(m.cols())),
        ("indptr".into(), Json::Arr(m.indptr().iter().map(|&p| num(p)).collect())),
        ("indices".into(), Json::hex_words(m.indices().iter().map(|c| c.to_le_bytes()))),
        ("values".into(), Json::hex_words(m.values().iter().map(|v| v.to_le_bytes()))),
    ])
}

fn csr_from_json(j: &Json) -> ServeResult<Csr> {
    let rows = usize_field(j, "rows", "sparse")?;
    let cols = usize_field(j, "cols", "sparse")?;
    let indptr = usize_arr(j, "indptr", "sparse")?;
    let indices = hex_words(j, "indices", "sparse", u32::from_le_bytes)?;
    let values = hex_words(j, "values", "sparse", f32::from_le_bytes)?;
    // `recommend`'s mask and `Csr::edge_position` binary-search each row,
    // so unsorted rows are refused with the rest.
    Csr::try_from_parts(rows, cols, indptr, indices, values)
        .map_err(|e| ServeError::Mismatch(format!("sparse: {e}")))
}

fn op_to_json(op: &ProgramOp) -> Json {
    use ProgramOp::*;
    let mut fields: Vec<(String, Json)> = Vec::with_capacity(4);
    let mut put = |k: &str, v: Json| fields.push((k.into(), v));
    put("op", Json::Str(op.name().into()));
    match op {
        Constant { value } => put("value", tensor_to_json(value)),
        Param { name } => put("name", Json::Str(name.clone())),
        MatMul { a, b } | Add { a, b } | Sub { a, b } | Mul { a, b } | Div { a, b } => {
            put("a", num(*a));
            put("b", num(*b));
        }
        SpMM { m, x } => {
            put("m", num(*m));
            put("x", num(*x));
        }
        Scale { x, alpha } => {
            put("x", num(*x));
            put("alpha", f32_bits(*alpha));
        }
        AddConst { x, c } => {
            put("x", num(*x));
            put("c", f32_bits(*c));
        }
        Pow { x, p, eps } => {
            put("x", num(*x));
            put("p", f32_bits(*p));
            put("eps", f32_bits(*eps));
        }
        Exp { x } | Relu { x } | Sigmoid { x } | Tanh { x } | LogSoftmax { x } | SumAll { x }
        | SumRows { x } => put("x", num(*x)),
        LeakyRelu { x, slope } => {
            put("x", num(*x));
            put("slope", f32_bits(*slope));
        }
        AddRowBroadcast { x, b } => {
            put("x", num(*x));
            put("b", num(*b));
        }
        AddColBroadcast { x, c } | MulColBroadcast { x, c } => {
            put("x", num(*x));
            put("c", num(*c));
        }
        MulScalarNode { x, s } => {
            put("x", num(*x));
            put("s", num(*s));
        }
        ConcatCols { parts } | MaxStack { parts } => {
            put("parts", Json::Arr(parts.iter().map(|&p| num(p)).collect()))
        }
        SliceCols { x, lo, hi } => {
            put("x", num(*x));
            put("lo", num(*lo));
            put("hi", num(*hi));
        }
        GatherRows { x, idx } => {
            put("x", num(*x));
            put("idx", Json::Arr(idx.iter().map(|&i| num(i)).collect()));
        }
        SumCols { x, groups } => {
            put("x", num(*x));
            put("groups", num(*groups));
        }
        GatAggregate { adj, z, ssrc, sdst, slope } => {
            put("adj", num(*adj));
            put("z", num(*z));
            put("ssrc", num(*ssrc));
            put("sdst", num(*sdst));
            put("slope", f32_bits(*slope));
        }
    }
    Json::Obj(fields)
}

fn op_from_json(j: &Json, n_ops: usize, n_sparse: usize) -> ServeResult<ProgramOp> {
    let tag = str_field(j, "op", "program op")?;
    let node = |k: &str| -> ServeResult<usize> {
        let v = usize_field(j, k, tag)?;
        if v >= n_ops {
            return Err(ServeError::Mismatch(format!("{tag}: operand '{k}' = {v} out of range")));
        }
        Ok(v)
    };
    let nodes = |k: &str| -> ServeResult<Vec<usize>> {
        let parts = usize_arr(j, k, tag)?;
        if let Some(&bad) = parts.iter().find(|&&p| p >= n_ops) {
            return Err(ServeError::Mismatch(format!("{tag}: operand in '{k}' = {bad} out of range")));
        }
        Ok(parts)
    };
    let sparse = |k: &str| -> ServeResult<usize> {
        let v = usize_field(j, k, tag)?;
        if v >= n_sparse {
            return Err(ServeError::Mismatch(format!(
                "{tag}: sparse ref '{k}' = {v} out of range (table has {n_sparse})"
            )));
        }
        Ok(v)
    };
    let bits = |k: &str| f32_from_bits(j.get(k), tag);
    Ok(match tag {
        "constant" => ProgramOp::Constant {
            value: tensor_from_json(field(j, "value", tag)?).map_err(ServeError::from)?,
        },
        "param" => ProgramOp::Param { name: str_field(j, "name", tag)?.to_string() },
        "matmul" => ProgramOp::MatMul { a: node("a")?, b: node("b")? },
        "spmm" => ProgramOp::SpMM { m: sparse("m")?, x: node("x")? },
        "add" => ProgramOp::Add { a: node("a")?, b: node("b")? },
        "sub" => ProgramOp::Sub { a: node("a")?, b: node("b")? },
        "mul" => ProgramOp::Mul { a: node("a")?, b: node("b")? },
        "div" => ProgramOp::Div { a: node("a")?, b: node("b")? },
        "scale" => ProgramOp::Scale { x: node("x")?, alpha: bits("alpha")? },
        "add_const" => ProgramOp::AddConst { x: node("x")?, c: bits("c")? },
        "pow" => ProgramOp::Pow { x: node("x")?, p: bits("p")?, eps: bits("eps")? },
        "exp" => ProgramOp::Exp { x: node("x")? },
        "relu" => ProgramOp::Relu { x: node("x")? },
        "leaky_relu" => ProgramOp::LeakyRelu { x: node("x")?, slope: bits("slope")? },
        "sigmoid" => ProgramOp::Sigmoid { x: node("x")? },
        "tanh" => ProgramOp::Tanh { x: node("x")? },
        "add_row_broadcast" => ProgramOp::AddRowBroadcast { x: node("x")?, b: node("b")? },
        "add_col_broadcast" => ProgramOp::AddColBroadcast { x: node("x")?, c: node("c")? },
        "mul_col_broadcast" => ProgramOp::MulColBroadcast { x: node("x")?, c: node("c")? },
        "mul_scalar_node" => ProgramOp::MulScalarNode { x: node("x")?, s: node("s")? },
        "log_softmax" => ProgramOp::LogSoftmax { x: node("x")? },
        "concat_cols" => ProgramOp::ConcatCols { parts: nodes("parts")? },
        "slice_cols" => {
            ProgramOp::SliceCols { x: node("x")?, lo: usize_field(j, "lo", tag)?, hi: usize_field(j, "hi", tag)? }
        }
        "gather_rows" => ProgramOp::GatherRows { x: node("x")?, idx: usize_arr(j, "idx", tag)? },
        "sum_all" => ProgramOp::SumAll { x: node("x")? },
        "sum_rows" => ProgramOp::SumRows { x: node("x")? },
        "sum_cols" => {
            let groups = usize_field(j, "groups", tag)?;
            if groups == 0 {
                return Err(ServeError::Mismatch("sum_cols: zero groups".into()));
            }
            ProgramOp::SumCols { x: node("x")?, groups }
        }
        "max_stack" => ProgramOp::MaxStack { parts: nodes("parts")? },
        "gat_aggregate" => ProgramOp::GatAggregate {
            adj: sparse("adj")?,
            z: node("z")?,
            ssrc: node("ssrc")?,
            sdst: node("sdst")?,
            slope: bits("slope")?,
        },
        other => return Err(ServeError::Parse(format!("unknown program op '{other}'"))),
    })
}

fn graph_to_json(g: &FrozenGraph) -> Json {
    Json::Obj(vec![
        ("adjacency".into(), csr_to_json(&g.adjacency)),
        (
            "kinds".into(),
            Json::Arr(g.kinds.iter().map(|k| Json::Str(k.as_str().into())).collect()),
        ),
        ("features_ops".into(), Json::Arr(g.features_ops.iter().map(|&i| num(i)).collect())),
    ])
}

fn graph_from_json(j: &Json, ops: &[ProgramOp], n_sparse: usize) -> ServeResult<FrozenGraph> {
    let adjacency = csr_from_json(field(j, "adjacency", "graph")?)?;
    if adjacency.rows() != adjacency.cols() {
        return Err(ServeError::Mismatch("graph: adjacency must be square".into()));
    }
    let kinds = field(j, "kinds", "graph")?
        .as_arr()
        .ok_or_else(|| ServeError::Parse("graph: 'kinds' not an array".into()))?
        .iter()
        .map(|k| {
            k.as_str()
                .and_then(SparseKind::parse)
                .ok_or_else(|| ServeError::Parse("graph: unknown sparse kind".into()))
        })
        .collect::<ServeResult<Vec<_>>>()?;
    if kinds.len() != n_sparse {
        return Err(ServeError::Mismatch(format!(
            "graph: {} kinds for a sparse table of {n_sparse}",
            kinds.len()
        )));
    }
    let features_ops = usize_arr(j, "features_ops", "graph")?;
    for &i in &features_ops {
        if !matches!(ops.get(i), Some(ProgramOp::Constant { .. })) {
            return Err(ServeError::Mismatch(format!(
                "graph: features op {i} is not a program constant"
            )));
        }
    }
    Ok(FrozenGraph { adjacency, kinds, features_ops })
}

fn rec_to_json(r: &FrozenRec) -> Json {
    Json::Obj(vec![
        ("items".into(), num(r.items)),
        ("users".into(), num(r.users)),
        ("interacted".into(), csr_to_json(&r.interacted)),
    ])
}

fn rec_from_json(j: &Json, num_nodes: usize) -> ServeResult<FrozenRec> {
    let items = usize_field(j, "items", "rec")?;
    let users = usize_field(j, "users", "rec")?;
    let interacted = csr_from_json(field(j, "interacted", "rec")?)?;
    if items + users != num_nodes {
        return Err(ServeError::Mismatch(format!(
            "rec: {items} items + {users} users != {num_nodes} nodes"
        )));
    }
    if interacted.rows() != users || interacted.cols() != items {
        return Err(ServeError::Mismatch(format!(
            "rec: interacted matrix is {}x{}, expected {users}x{items}",
            interacted.rows(),
            interacted.cols()
        )));
    }
    Ok(FrozenRec { items, users, interacted })
}

impl FrozenModel {
    /// Serialize into the envelope body (`"kind":"frozen_model"`).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("kind".into(), Json::Str("frozen_model".into())),
            (
                "meta".into(),
                Json::Obj(vec![
                    ("model".into(), Json::Str(self.meta.model.clone())),
                    ("dataset".into(), Json::Str(self.meta.dataset.clone())),
                    ("num_nodes".into(), num(self.meta.num_nodes)),
                    ("num_classes".into(), num(self.meta.num_classes)),
                ]),
            ),
            (
                "weights".into(),
                Json::Arr(
                    self.weights
                        .iter()
                        .map(|(n, w)| match w {
                            // Exact weights keep the checkpoint entry layout
                            // byte for byte, so pre-quantization files and
                            // f32 exports are unchanged on disk.
                            FrozenWeight::Exact(t) => named_param_to_json(n, t),
                            FrozenWeight::Quant(q) => {
                                let mut fields =
                                    vec![("name".into(), Json::Str(n.clone()))];
                                if let Json::Obj(qf) = q.to_json() {
                                    fields.extend(qf);
                                }
                                Json::Obj(fields)
                            }
                        })
                        .collect(),
                ),
            ),
            (
                "sparse".into(),
                Json::Arr(self.program.sparse.iter().map(|m| csr_to_json(m)).collect()),
            ),
            (
                "program".into(),
                Json::Obj(vec![
                    ("ops".into(), Json::Arr(self.program.ops.iter().map(op_to_json).collect())),
                    ("output".into(), num(self.program.output)),
                ]),
            ),
        ];
        if let Some(g) = &self.graph {
            fields.push(("graph".into(), graph_to_json(g)));
        }
        if let Some(r) = &self.rec {
            fields.push(("rec".into(), rec_to_json(r)));
        }
        Json::Obj(fields)
    }

    /// Parse an envelope body written by [`FrozenModel::to_json`].
    pub fn from_json(body: &Json) -> ServeResult<FrozenModel> {
        if body.get("kind").and_then(Json::as_str) != Some("frozen_model") {
            return Err(ServeError::Mismatch(
                "not a frozen model (kind field; did you pass a training checkpoint?)".into(),
            ));
        }
        let meta = field(body, "meta", "frozen model")?;
        let meta = FrozenMeta {
            model: str_field(meta, "model", "meta")?.to_string(),
            dataset: str_field(meta, "dataset", "meta")?.to_string(),
            num_nodes: usize_field(meta, "num_nodes", "meta")?,
            num_classes: usize_field(meta, "num_classes", "meta")?,
        };
        let weights = field(body, "weights", "frozen model")?
            .as_arr()
            .ok_or_else(|| ServeError::Parse("weights not an array".into()))?
            .iter()
            .map(|p| -> ServeResult<(String, FrozenWeight)> {
                if p.get("quant").is_some() {
                    let name = str_field(p, "name", "quant weight")?.to_string();
                    Ok((name, FrozenWeight::Quant(QuantMatrix::from_json(p)?)))
                } else {
                    let (name, t) = named_param_from_json(p).map_err(ServeError::from)?;
                    Ok((name, FrozenWeight::Exact(t)))
                }
            })
            .collect::<ServeResult<Vec<_>>>()?;
        let sparse = field(body, "sparse", "frozen model")?
            .as_arr()
            .ok_or_else(|| ServeError::Parse("sparse table not an array".into()))?
            .iter()
            .map(|m| csr_from_json(m).map(Rc::new))
            .collect::<ServeResult<Vec<_>>>()?;
        let prog = field(body, "program", "frozen model")?;
        let ops_json = field(prog, "ops", "program")?
            .as_arr()
            .ok_or_else(|| ServeError::Parse("program ops not an array".into()))?;
        let ops = ops_json
            .iter()
            .map(|op| op_from_json(op, ops_json.len(), sparse.len()))
            .collect::<ServeResult<Vec<_>>>()?;
        let output = usize_field(prog, "output", "program")?;
        if output >= ops.len() {
            return Err(ServeError::Mismatch(format!(
                "program output {output} out of range ({} ops)",
                ops.len()
            )));
        }
        let graph = match body.get("graph") {
            Some(g) => Some(graph_from_json(g, &ops, sparse.len())?),
            None => None,
        };
        let rec = match body.get("rec") {
            Some(r) => Some(rec_from_json(r, meta.num_nodes)?),
            None => None,
        };
        Ok(FrozenModel { meta, weights, program: Program { ops, sparse, output }, graph, rec })
    }

    /// Write to `path` under the checksum envelope, atomically. The output is
    /// byte-deterministic: freezing the same weights twice gives `cmp`-equal
    /// files.
    pub fn save(&self, path: &Path) -> ServeResult<()> {
        lasagne_obs::span!("serve.freeze.save");
        atomic_write_envelope(path, self.to_json()).map_err(ServeError::from)
    }

    /// Load and checksum-verify a frozen model file.
    pub fn load(path: &Path) -> ServeResult<FrozenModel> {
        lasagne_obs::span!("serve.freeze.load");
        FrozenModel::from_json(&read_envelope(path).map_err(ServeError::from)?)
    }

    /// Does any weight carry a quantized encoding?
    pub fn is_quantized(&self) -> bool {
        self.weights.iter().any(|(_, w)| matches!(w, FrozenWeight::Quant(_)))
    }

    /// The weight table both engines bind `Param` leaves against: every
    /// weight in f32, quantized ones dequantized once, at load.
    pub(crate) fn weights_f32(&self) -> Vec<(String, Tensor)> {
        self.weights.iter().map(|(name, w)| (name.clone(), w.to_tensor())).collect()
    }

    /// The load-time policy both engines enforce: a quantized model carries
    /// neither a streaming graph binding nor a recommendation block, since
    /// mutations (§11) and `recommend` (§15) promise bitwise parity with
    /// the training path that approximate weights cannot give. [`quantize`]
    /// strips both; a file that carries one anyway is refused `mismatch`.
    ///
    /// [`quantize`]: FrozenModel::quantize
    pub(crate) fn check_quantized_bindings(&self) -> ServeResult<()> {
        if !self.is_quantized() {
            return Ok(());
        }
        if self.graph.is_some() {
            return Err(ServeError::Mismatch(
                "quantized frozen models do not support a streaming graph binding \
                 (serve the exact f32 artifact for mutations)"
                    .into(),
            ));
        }
        if self.rec.is_some() {
            return Err(ServeError::Mismatch(
                "quantized frozen models do not carry a recommendation binding \
                 (serve the exact f32 artifact for `recommend`)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Produce the quantized variant of this model: every weight the
    /// program consumes **only** as a matmul right operand (and that is big
    /// enough to be worth compressing) is re-encoded per `mode`; biases,
    /// attention scores, and anything else the program touches elsewhere
    /// stay exact, so the only approximation sites are matmul right
    /// operands, which the engines dequantize once at load.
    ///
    /// The graph binding is dropped: streaming mutations re-derive cache
    /// rows against the weights, and re-deriving against dequantized
    /// weights would silently change the §11 exactness story. Quantized
    /// models answer mutations with the same typed error as pre-streaming
    /// files; streaming deployments should serve the exact f32 artifact.
    pub fn quantize(mut self, mode: QuantMode) -> ServeResult<FrozenModel> {
        let eligible: Vec<String> =
            self.program.matmul_only_params().iter().map(|s| s.to_string()).collect();
        let mut hits = 0usize;
        for (name, w) in &mut self.weights {
            if !eligible.iter().any(|e| e == name) {
                continue;
            }
            if let FrozenWeight::Exact(t) = w {
                let (r, c) = t.shape();
                if r * c < 64 {
                    continue; // not worth the scales overhead
                }
                *w = FrozenWeight::Quant(QuantMatrix::quantize(t, mode));
                hits += 1;
            }
        }
        if hits == 0 {
            return Err(ServeError::Export(
                "quantize: no matmul-only weights to compress in this program".into(),
            ));
        }
        self.graph = None;
        // Quantized logits are approximate, so dot-product rankings would
        // drift from the exact artifact's — the recommend surface claims
        // bitwise parity with training eval, so it is exact-only.
        self.rec = None;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> ServeResult<ProgramOp> {
        op_from_json(&Json::parse(text).expect("test JSON parses"), 2, 0)
    }

    #[test]
    fn every_op_is_tagged_with_its_name_and_round_trips() {
        use ProgramOp::*;
        let ops = [
            Constant { value: Tensor::from_rows(&[&[1.5, -0.0]]) },
            Param { name: "w".into() },
            MatMul { a: 0, b: 1 },
            SpMM { m: 0, x: 1 },
            Add { a: 0, b: 1 },
            Sub { a: 1, b: 0 },
            Mul { a: 0, b: 1 },
            Div { a: 1, b: 0 },
            Scale { x: 1, alpha: -0.5 },
            AddConst { x: 0, c: 2.0 },
            Pow { x: 1, p: -0.5, eps: 1e-6 },
            Exp { x: 0 },
            Relu { x: 1 },
            LeakyRelu { x: 0, slope: 0.2 },
            Sigmoid { x: 1 },
            Tanh { x: 0 },
            AddRowBroadcast { x: 0, b: 1 },
            AddColBroadcast { x: 1, c: 0 },
            MulColBroadcast { x: 0, c: 1 },
            MulScalarNode { x: 1, s: 0 },
            LogSoftmax { x: 0 },
            ConcatCols { parts: vec![0, 1, 0] },
            SliceCols { x: 1, lo: 1, hi: 3 },
            GatherRows { x: 0, idx: vec![2, 0, 2] },
            SumAll { x: 1 },
            SumRows { x: 0 },
            SumCols { x: 1, groups: 3 },
            MaxStack { parts: vec![1, 0] },
            GatAggregate { adj: 0, z: 1, ssrc: 0, sdst: 1, slope: 0.2 },
        ];
        for op in ops {
            let j = op_to_json(&op);
            assert_eq!(j.get("op").and_then(Json::as_str), Some(op.name()), "{op:?}");
            assert_eq!(op_from_json(&j, 2, 1).expect("round trip"), op);
        }
    }

    #[test]
    fn sparse_and_constant_payloads_round_trip_bitwise() {
        let mut rng = lasagne_testkit::rng::Rng::seed_from_u64(17);
        let word = |rng: &mut lasagne_testkit::rng::Rng| rng.next_u64() as u32;
        for case in 0..40 {
            let rows = rng.index(6);
            // Columns up to 2^32, so any u32 word is a valid index.
            let cols = 1usize << 32;
            let (mut indptr, mut indices) = (vec![0], Vec::new());
            for _ in 0..rows {
                let mut row: Vec<u32> = (0..rng.index(8)).map(|_| word(&mut rng)).collect();
                if case % 4 == 0 {
                    row.extend([0, u32::MAX]);
                }
                row.sort_unstable();
                row.dedup();
                indices.extend(row);
                indptr.push(indices.len());
            }
            // Every f32 bit pattern: NaN payloads, ±0, ±inf, subnormals.
            let mut values: Vec<f32> = (0..indices.len()).map(|_| f32::from_bits(word(&mut rng))).collect();
            for (v, special) in values.iter_mut().zip([0x7fc0_0001, 0x8000_0000, 0xff80_0000, 0x0000_0001]) {
                *v = f32::from_bits(special);
            }
            let m = Csr::from_parts(rows, cols, indptr, indices, values);
            let text = csr_to_json(&m).to_string();
            let back = csr_from_json(&Json::parse(&text).unwrap()).expect("round trip");
            assert_eq!(back.indptr(), m.indptr());
            assert_eq!(back.indices(), m.indices());
            let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&m));

            let (r, c) = (rng.index(5), rng.index(5));
            let data: Vec<f32> = (0..r * c).map(|_| f32::from_bits(word(&mut rng))).collect();
            let op = ProgramOp::Constant { value: Tensor::from_vec(r, c, data.clone()).unwrap() };
            let text = op_to_json(&op).to_string();
            let ProgramOp::Constant { value } = op_from_json(&Json::parse(&text).unwrap(), 1, 0).unwrap() else {
                panic!("a constant")
            };
            assert_eq!(value.shape(), (r, c));
            let got: Vec<u32> = value.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, data.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn rows_whose_columns_do_not_strictly_ascend_are_a_mismatch() {
        let sparse = |indptr: &str, indices: &[u32]| {
            let words = Json::hex_words(indices.iter().map(|c| c.to_le_bytes()));
            let values = Json::hex_words(indices.iter().map(|_| 1f32.to_le_bytes()));
            let text = format!(r#"{{"rows":2,"cols":9,"indptr":{indptr},"indices":{words},"values":{values}}}"#);
            csr_from_json(&Json::parse(&text).unwrap())
        };
        assert!(sparse("[0,2,3]", &[3, 5, 0]).is_ok());
        for (indptr, indices) in [("[0,2,3]", &[5, 3, 0][..]), ("[0,2,3]", &[3, 3, 0]), ("[0,1,4]", &[0, 0, 0, 0])] {
            let err = sparse(indptr, indices).unwrap_err();
            assert!(matches!(err, ServeError::Mismatch(_)), "{indptr} {indices:?}: {err}");
        }
    }

    #[test]
    fn grouped_sum_cols_round_trips_and_needs_its_group_count() {
        let op = ProgramOp::SumCols { x: 1, groups: 7 };
        assert_eq!(op_from_json(&op_to_json(&op), 2, 0).expect("round trip"), op);
        // Only artifacts of earlier format versions left the count out.
        assert!(matches!(parse(r#"{"op": "sum_cols", "x": 0}"#), Err(ServeError::Parse(_))));
        assert!(matches!(
            parse(r#"{"op": "sum_cols", "x": 0, "groups": 0}"#),
            Err(ServeError::Mismatch(_))
        ));
    }
}
