//! The computation tape: a flat arena of nodes recorded during the forward
//! pass and replayed in reverse by [`Tape::backward`].
//!
//! A recorded node is a leaf, an exported-program op ([`ProgramOp`]) over
//! earlier tape indices, or one of three train-only ops. A program op's
//! value is computed by the evaluator's op kernel ([`op_rows`]) over all
//! rows, with the tape as its operand source, so training, export and
//! serving share one op list and one forward definition (DESIGN.md §10).

use std::rc::Rc;

use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;

use crate::eval::{op_rows, Operands};
use crate::export::ProgramOp;
use crate::{ParamId, ParamStore};

/// Handle to a value recorded on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(pub(crate) usize);

/// How a node was produced. Data captured at record time (dropout masks,
/// sampled gates, labels) lives inside the variant so backward is a pure
/// function of the tape.
pub(crate) enum Op {
    /// Non-trainable input (features, precomputed propagations).
    Constant,
    /// Leaf backed by a [`ParamStore`] entry; backward scatters into it.
    Param(ParamId),
    /// An exportable op; operands are tape indices and sparse refs index
    /// [`Tape::sparse`].
    Program(ProgramOp),
    /// Inverted dropout; the sampled mask (entries 0 or 1/keep) is captured.
    Dropout { x: usize, mask: Tensor },
    /// Straight-through Bernoulli column gate (Eq 6): forward multiplies by
    /// the sampled 0/1 mask, backward routes the gate gradient to the
    /// probability node as if the mask had been the probability itself.
    Gate { x: usize, p: usize, mask: Tensor },
    /// Mean negative log-likelihood over the labeled subset (Eq 3).
    Nll { logp: usize, labels: Rc<Vec<usize>>, idx: Rc<Vec<usize>> },
}

impl Op {
    /// Tape indices this node reads.
    pub(crate) fn inputs(&self) -> Vec<usize> {
        match self {
            Op::Constant | Op::Param(_) => Vec::new(),
            Op::Program(op) => op.inputs(),
            Op::Dropout { x, .. } | Op::Nll { logp: x, .. } => vec![*x],
            Op::Gate { x, p, .. } => vec![*x, *p],
        }
    }
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
    /// Sparse operands of recorded ops, interned by pointer.
    pub(crate) sparse: Vec<Rc<Csr>>,
}

impl Tape {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::with_capacity(64), sparse: Vec::new() }
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

    /// Record a program op: its value is the op kernel over every row, and
    /// it needs a gradient when any operand does.
    pub(crate) fn record(&mut self, op: ProgramOp) -> NodeId {
        let value = op_rows(&op, self.nodes.len(), None, self);
        let needs_grad = op.inputs().into_iter().any(|j| self.nodes[j].needs_grad);
        self.push(value, Op::Program(op), needs_grad)
    }

    /// The sparse-table index of `m`, adding it on first use.
    pub(crate) fn intern(&mut self, m: Rc<Csr>) -> usize {
        match self.sparse.iter().position(|s| Rc::ptr_eq(s, &m)) {
            Some(k) => k,
            None => {
                self.sparse.push(m);
                self.sparse.len() - 1
            }
        }
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

/// The tape as the op kernel's operand source: operand `j` is node `j`.
impl Operands for Tape {
    fn whole(&self, j: usize) -> &Tensor {
        &self.nodes[j].value
    }

    fn sparse(&self, m: usize) -> &Csr {
        &self.sparse[m]
    }
}
