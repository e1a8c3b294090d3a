//! Record-time constructors for the dense algebra ops.

use std::rc::Rc;

use crate::export::ProgramOp;
use crate::tape::{NodeId, Tape};

impl Tape {
    /// `a · b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.record(ProgramOp::MatMul { a: a.0, b: b.0 })
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.record(ProgramOp::Add { a: a.0, b: b.0 })
    }

    /// `a - b` (same shape).
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.record(ProgramOp::Sub { a: a.0, b: b.0 })
    }

    /// Hadamard product `a ⊙ b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.record(ProgramOp::Mul { a: a.0, b: b.0 })
    }

    /// Element-wise `a / b` (b must be non-zero where it matters).
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.record(ProgramOp::Div { a: a.0, b: b.0 })
    }

    /// `alpha * x`.
    pub fn scale(&mut self, x: NodeId, alpha: f32) -> NodeId {
        self.record(ProgramOp::Scale { x: x.0, alpha })
    }

    /// `x + c` element-wise, constant `c`.
    pub fn add_const(&mut self, x: NodeId, c: f32) -> NodeId {
        self.record(ProgramOp::AddConst { x: x.0, c })
    }

    /// Element-wise `(x + eps)^p`. Use `eps > 0` for fractional/negative `p`.
    pub fn pow(&mut self, x: NodeId, p: f32, eps: f32) -> NodeId {
        self.record(ProgramOp::Pow { x: x.0, p, eps })
    }

    /// `x * s` where `s` is a differentiable `1×1` node.
    pub fn mul_scalar_node(&mut self, x: NodeId, s: NodeId) -> NodeId {
        assert_eq!(self.value(s).shape(), (1, 1), "mul_scalar_node: s must be 1x1");
        self.record(ProgramOp::MulScalarNode { x: x.0, s: s.0 })
    }

    /// Concatenate nodes side by side.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        self.record(ProgramOp::ConcatCols { parts: parts.iter().map(|p| p.0).collect() })
    }

    /// Columns `[lo, hi)` of `x`.
    pub fn slice_cols(&mut self, x: NodeId, lo: usize, hi: usize) -> NodeId {
        self.record(ProgramOp::SliceCols { x: x.0, lo, hi })
    }

    /// Gather rows of `x` in the given order (duplicates allowed).
    pub fn gather_rows(&mut self, x: NodeId, idx: Rc<Vec<usize>>) -> NodeId {
        self.record(ProgramOp::GatherRows { x: x.0, idx: Rc::unwrap_or_clone(idx) })
    }

    /// Sum of all elements, as a `1×1` node.
    pub fn sum_all(&mut self, x: NodeId) -> NodeId {
        self.record(ProgramOp::SumAll { x: x.0 })
    }

    /// Mean of all elements, as a `1×1` node.
    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
        let n = self.value(x).len() as f32;
        let s = self.sum_all(x);
        self.scale(s, 1.0 / n)
    }

    /// Column sums: `N×D → 1×D`.
    pub fn sum_rows(&mut self, x: NodeId) -> NodeId {
        self.record(ProgramOp::SumRows { x: x.0 })
    }

    /// Row sums: `N×D → N×1`.
    pub fn sum_cols(&mut self, x: NodeId) -> NodeId {
        self.sum_col_groups(x, 1)
    }

    /// Row sums of `groups` equal column groups: `N×(g·w) → N×g`
    /// ([`lasagne_tensor::Tensor::sum_col_groups`]).
    pub fn sum_col_groups(&mut self, x: NodeId, groups: usize) -> NodeId {
        self.record(ProgramOp::SumCols { x: x.0, groups })
    }
}
