//! Record-time constructors for the dense algebra ops.

use std::rc::Rc;

use lasagne_tensor::Tensor;

use crate::tape::{NodeId, Op, Tape};

impl Tape {
    fn needs2(&self, a: NodeId, b: NodeId) -> bool {
        self.needs_grad(a) || self.needs_grad(b)
    }

    /// `a · b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        let needs = self.needs2(a, b);
        self.push(v, Op::MatMul(a, b), needs)
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).add(self.value(b));
        let needs = self.needs2(a, b);
        self.push(v, Op::Add(a, b), needs)
    }

    /// `a - b` (same shape).
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).sub(self.value(b));
        let needs = self.needs2(a, b);
        self.push(v, Op::Sub(a, b), needs)
    }

    /// Hadamard product `a ⊙ b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).mul(self.value(b));
        let needs = self.needs2(a, b);
        self.push(v, Op::Mul(a, b), needs)
    }

    /// Element-wise `a / b` (b must be non-zero where it matters).
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).div(self.value(b));
        let needs = self.needs2(a, b);
        self.push(v, Op::Div(a, b), needs)
    }

    /// `alpha * x`.
    pub fn scale(&mut self, x: NodeId, alpha: f32) -> NodeId {
        let v = self.value(x).scale(alpha);
        let needs = self.needs_grad(x);
        self.push(v, Op::Scale(x, alpha), needs)
    }

    /// `x + c` element-wise, constant `c`.
    pub fn add_const(&mut self, x: NodeId, c: f32) -> NodeId {
        let v = self.value(x).add_scalar(c);
        let needs = self.needs_grad(x);
        self.push(v, Op::AddConst(x, c), needs)
    }

    /// Element-wise `(x + eps)^p`. Use `eps > 0` for fractional/negative `p`.
    pub fn pow(&mut self, x: NodeId, p: f32, eps: f32) -> NodeId {
        let v = self.value(x).map(|t| (t + eps).powf(p));
        let needs = self.needs_grad(x);
        self.push(v, Op::Pow { x, p, eps }, needs)
    }

    /// `x * s` where `s` is a differentiable `1×1` node.
    pub fn mul_scalar_node(&mut self, x: NodeId, s: NodeId) -> NodeId {
        assert_eq!(self.value(s).shape(), (1, 1), "mul_scalar_node: s must be 1x1");
        let sv = self.value(s).get(0, 0);
        let v = self.value(x).scale(sv);
        let needs = self.needs2(x, s);
        self.push(v, Op::MulScalarNode(x, s), needs)
    }

    /// Concatenate nodes side by side.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::concat_cols(&tensors);
        let needs = parts.iter().any(|&p| self.needs_grad(p));
        self.push(v, Op::ConcatCols(parts.to_vec()), needs)
    }

    /// Columns `[lo, hi)` of `x`.
    pub fn slice_cols(&mut self, x: NodeId, lo: usize, hi: usize) -> NodeId {
        let v = self.value(x).slice_cols(lo, hi);
        let needs = self.needs_grad(x);
        self.push(v, Op::SliceCols { x, lo, hi }, needs)
    }

    /// Gather rows of `x` in the given order (duplicates allowed).
    pub fn gather_rows(&mut self, x: NodeId, idx: Rc<Vec<usize>>) -> NodeId {
        let v = self.value(x).gather_rows(&idx);
        let needs = self.needs_grad(x);
        self.push(v, Op::GatherRows { x, idx }, needs)
    }

    /// Sum of all elements, as a `1×1` node.
    pub fn sum_all(&mut self, x: NodeId) -> NodeId {
        let v = Tensor::full(1, 1, self.value(x).sum());
        let needs = self.needs_grad(x);
        self.push(v, Op::SumAll(x), needs)
    }

    /// Mean of all elements, as a `1×1` node.
    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
        let n = self.value(x).len() as f32;
        let s = self.sum_all(x);
        self.scale(s, 1.0 / n)
    }

    /// Column sums: `N×D → 1×D`.
    pub fn sum_rows(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).sum_rows();
        let needs = self.needs_grad(x);
        self.push(v, Op::SumRows(x), needs)
    }

    /// Row sums: `N×D → N×1`.
    pub fn sum_cols(&mut self, x: NodeId) -> NodeId {
        self.sum_col_groups(x, 1)
    }

    /// Row sums of `groups` equal column groups: `N×(g·w) → N×g`
    /// ([`Tensor::sum_col_groups`]).
    pub fn sum_col_groups(&mut self, x: NodeId, groups: usize) -> NodeId {
        let v = self.value(x).sum_col_groups(groups);
        let needs = self.needs_grad(x);
        self.push(v, Op::SumCols { x, groups }, needs)
    }
}
