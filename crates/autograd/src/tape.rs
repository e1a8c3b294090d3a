//! The computation tape: a flat arena of nodes recorded during the forward
//! pass and replayed in reverse by [`Tape::backward`].

use std::rc::Rc;

use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;

use crate::{ParamId, ParamStore};

/// Handle to a value recorded on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(pub(crate) usize);

/// Every differentiable operation the stack needs. Data captured at record
/// time (dropout masks, attention coefficients, argmax indices) lives inside
/// the variant so backward is a pure function of the tape.
pub(crate) enum Op {
    /// Non-trainable input (features, precomputed propagations).
    Constant,
    /// Leaf backed by a [`ParamStore`] entry; backward scatters into it.
    Param(ParamId),
    MatMul(NodeId, NodeId),
    /// Sparse · dense with a fixed (non-differentiable) sparse operand.
    SpMM { m: Rc<Csr>, x: NodeId },
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Div(NodeId, NodeId),
    Scale(NodeId, f32),
    AddConst(NodeId, f32),
    /// Element-wise `(x + eps)^p` (eps keeps fractional powers away from 0).
    Pow { x: NodeId, p: f32, eps: f32 },
    /// Element-wise `e^x`.
    Exp(NodeId),
    Relu(NodeId),
    LeakyRelu(NodeId, f32),
    Sigmoid(NodeId),
    Tanh(NodeId),
    /// Inverted dropout; the sampled mask (entries 0 or 1/keep) is captured.
    Dropout { x: NodeId, mask: Tensor },
    /// `x (N×D) + b (1×D)` broadcast over rows.
    AddRowBroadcast(NodeId, NodeId),
    /// `x (N×D) + c (N×1)` broadcast over columns.
    AddColBroadcast(NodeId, NodeId),
    /// `x (N×D) ⊙ c (N×1)` broadcast over columns — the `C(l)[:,i] ⊗ H(i)`
    /// operation of Eq (5).
    MulColBroadcast(NodeId, NodeId),
    /// `x (N×D) * s (1×1)` with a *node* scalar (differentiable scale).
    MulScalarNode(NodeId, NodeId),
    LogSoftmax(NodeId),
    ConcatCols(Vec<NodeId>),
    SliceCols { x: NodeId, lo: usize, hi: usize },
    GatherRows { x: NodeId, idx: Rc<Vec<usize>> },
    SumAll(NodeId),
    /// Column sums: `N×D → 1×D`.
    SumRows(NodeId),
    /// Row sums of `groups` equal column groups: `N×(g·w) → N×g`.
    SumCols { x: NodeId, groups: usize },
    /// Element-wise max over same-shaped parts; winners recorded for backward
    /// (the Max-Pooling aggregator of §4.1.2).
    MaxStack { parts: Vec<NodeId>, argmax: Vec<u32> },
    /// Straight-through Bernoulli column gate (Eq 6): forward multiplies by
    /// the sampled 0/1 mask, backward routes the gate gradient to the
    /// probability node as if the mask had been the probability itself.
    StMulCol { x: NodeId, p: NodeId, mask: Tensor },
    /// Mean negative log-likelihood over the labeled subset (Eq 3).
    NllMasked {
        logp: NodeId,
        labels: Rc<Vec<usize>>,
        idx: Rc<Vec<usize>>,
    },
    /// GAT neighborhood attention over a fixed CSR structure; the attention
    /// coefficients and LeakyReLU slopes at record time are captured.
    GatAggregate {
        adj: Rc<Csr>,
        z: NodeId,
        ssrc: NodeId,
        sdst: NodeId,
        slope: f32,
        alpha: Vec<f32>,
        dleaky: Vec<f32>,
    },
}

pub(crate) struct Node {
    pub value: Tensor,
    pub op: Op,
    pub needs_grad: bool,
}

/// A define-by-run computation graph. Build one per forward pass.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
}

impl Tape {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::with_capacity(64) }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Whether gradients flow through this node.
    pub fn needs_grad(&self, id: NodeId) -> bool {
        self.nodes[id.0].needs_grad
    }

    pub(crate) fn push(&mut self, value: Tensor, op: Op, needs_grad: bool) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { value, op, needs_grad });
        id
    }

    /// Record a non-trainable input.
    pub fn constant(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Constant, false)
    }

    /// Record a trainable parameter leaf (value copied from the store).
    pub fn param(&mut self, id: ParamId, store: &ParamStore) -> NodeId {
        self.push(store.value(id).clone(), Op::Param(id), true)
    }
}
