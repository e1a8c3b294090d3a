//! Record-time constructors for neural-network ops: activations, dropout,
//! broadcasts, the classification objective, and the two Lasagne-specific
//! primitives (element-wise layer max, straight-through Bernoulli gates).

use std::rc::Rc;

use lasagne_tensor::{Tensor, TensorRng};

use crate::export::ProgramOp;
use crate::tape::{NodeId, Op, Tape};

impl Tape {
    /// Element-wise `e^x`.
    pub fn exp(&mut self, x: NodeId) -> NodeId {
        self.record(ProgramOp::Exp { x: x.0 })
    }

    /// `max(0, x)`.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        self.record(ProgramOp::Relu { x: x.0 })
    }

    /// Leaky ReLU with negative slope.
    pub fn leaky_relu(&mut self, x: NodeId, slope: f32) -> NodeId {
        self.record(ProgramOp::LeakyRelu { x: x.0, slope })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        self.record(ProgramOp::Sigmoid { x: x.0 })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        self.record(ProgramOp::Tanh { x: x.0 })
    }

    /// Inverted dropout: keeps each entry with probability `keep` and scales
    /// survivors by `1/keep`. Identity when `keep == 1.0`.
    pub fn dropout(&mut self, x: NodeId, keep: f32, rng: &mut TensorRng) -> NodeId {
        if keep >= 1.0 {
            return x;
        }
        let (r, c) = self.value(x).shape();
        let mask = rng.dropout_mask(r, c, keep);
        let v = self.value(x).mul(&mask);
        let needs = self.needs_grad(x);
        self.push(v, Op::Dropout { x: x.0, mask }, needs)
    }

    /// `x (N×D) + b (1×D)` broadcast over rows (bias add).
    pub fn add_row_broadcast(&mut self, x: NodeId, b: NodeId) -> NodeId {
        self.record(ProgramOp::AddRowBroadcast { x: x.0, b: b.0 })
    }

    /// `x (N×D) + c (N×1)` broadcast over columns (per-node shift; used for
    /// the row-max stabilization of the stochastic aggregator's softmax-like
    /// normalization, Eq 6).
    pub fn add_col_broadcast(&mut self, x: NodeId, c: NodeId) -> NodeId {
        self.record(ProgramOp::AddColBroadcast { x: x.0, c: c.0 })
    }

    /// `x (N×D) ⊙ c (N×1)` broadcast over columns — per-node scaling, the
    /// `C(l)[:, i] ⊗ H(i)` of Eq (5).
    pub fn mul_col_broadcast(&mut self, x: NodeId, c: NodeId) -> NodeId {
        self.record(ProgramOp::MulColBroadcast { x: x.0, c: c.0 })
    }

    /// Row-wise log-softmax (the paper's Eq 2 softmax, in log space for a
    /// stable cross-entropy).
    pub fn log_softmax(&mut self, x: NodeId) -> NodeId {
        self.record(ProgramOp::LogSoftmax { x: x.0 })
    }

    /// Mean negative log-likelihood over the labeled node subset `idx`
    /// (Eq 3 normalized by the number of labeled nodes).
    pub fn nll_masked(
        &mut self,
        logp: NodeId,
        labels: Rc<Vec<usize>>,
        idx: Rc<Vec<usize>>,
    ) -> NodeId {
        assert!(!idx.is_empty(), "nll_masked: empty labeled set");
        let lp = self.value(logp);
        let mut acc = 0.0f32;
        for &i in idx.iter() {
            acc -= lp.get(i, labels[i]);
        }
        let v = Tensor::full(1, 1, acc / idx.len() as f32);
        let needs = self.needs_grad(logp);
        self.push(v, Op::Nll { logp: logp.0, labels, idx }, needs)
    }

    /// Element-wise maximum over same-shaped nodes; the Max-Pooling layer
    /// aggregator of §4.1.2 ("captures the most informative layer for each
    /// feature coordinate without additional parameters").
    pub fn max_stack(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "max_stack: empty input");
        let shape = self.value(parts[0]).shape();
        for &p in parts {
            assert_eq!(self.value(p).shape(), shape, "max_stack: shape mismatch");
        }
        self.record(ProgramOp::MaxStack { parts: parts.iter().map(|p| p.0).collect() })
    }

    /// Straight-through Bernoulli gate (Eq 6): samples `m_i ~ Bernoulli(p_i)`
    /// per node (`p` is `N×1`, clamped to `[0,1]`) and returns `x ⊙ m`
    /// (column-broadcast). Backward passes the gate gradient straight
    /// through to `p`.
    pub fn st_bernoulli_gate(&mut self, x: NodeId, p: NodeId, rng: &mut TensorRng) -> NodeId {
        assert_eq!(self.value(p).cols(), 1, "st_bernoulli_gate: p must be N×1");
        assert_eq!(
            self.value(p).rows(),
            self.value(x).rows(),
            "st_bernoulli_gate: row mismatch"
        );
        let pv = self.value(p);
        let mask_vals: Vec<f32> = (0..pv.rows())
            .map(|i| if rng.bernoulli(pv.get(i, 0)) { 1.0 } else { 0.0 })
            .collect();
        let mask = Tensor::col_vector(&mask_vals);
        let v = self.value(x).mul_col_broadcast(&mask);
        let needs = self.needs_grad(x) || self.needs_grad(p);
        self.push(v, Op::Gate { x: x.0, p: p.0, mask }, needs)
    }

    /// Deterministic evaluation-time counterpart of
    /// [`Tape::st_bernoulli_gate`]: multiplies by the expected mask (the
    /// probabilities themselves).
    pub fn expected_gate(&mut self, x: NodeId, p: NodeId) -> NodeId {
        self.mul_col_broadcast(x, p)
    }

    /// PairNorm (Zhao & Akoglu, ICLR'20), composed from primitive ops:
    /// center columns, then rescale every row to the same average norm `s`.
    /// Used by the PairNorm baseline of Table 3.
    pub fn pairnorm(&mut self, x: NodeId, s: f32) -> NodeId {
        let (n, _d) = self.value(x).shape();
        // Column means as 1×D, broadcast-subtract.
        let col_sums = self.sum_rows(x);
        let neg_mean = self.scale(col_sums, -1.0 / n as f32);
        let centered = self.add_row_broadcast(x, neg_mean);
        // Mean squared row norm (1×1).
        let sq = self.mul(centered, centered);
        let total = self.sum_all(sq);
        let mean_sq = self.scale(total, 1.0 / n as f32);
        // s / sqrt(mean_sq + eps)
        let inv = self.pow(mean_sq, -0.5, 1e-6);
        let scale = self.scale(inv, s);
        self.mul_scalar_node(centered, scale)
    }
}
