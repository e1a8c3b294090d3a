//! Vanilla GCN (Kipf & Welling, ICLR'17) — Eq (2) of the paper.

use lasagne_autograd::{ParamStore, Tape};
use lasagne_tensor::TensorRng;

use crate::layers::GraphConvLayer;
use crate::models::{input_node, maybe_dropout};
use crate::{ForwardOutput, GraphContext, Hyper, Mode, NodeClassifier};

/// Multi-layer GCN: `H(l) = ReLU(Â H(l-1) W(l))`, logits from the last
/// layer. The reference 2-layer configuration is the paper's strongest
/// shallow baseline; deeper stacks exhibit the over-smoothing collapse of
/// Fig 5.
pub struct Gcn {
    layers: Vec<GraphConvLayer>,
    dropout_keep: f32,
    store: ParamStore,
}

impl Gcn {
    /// Build a `hyper.depth`-layer GCN for `in_dim` features and
    /// `num_classes` outputs.
    pub fn new(in_dim: usize, num_classes: usize, hyper: &Hyper, seed: u64) -> Gcn {
        assert!(hyper.depth >= 1, "Gcn: depth must be ≥ 1");
        let mut rng = TensorRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mut layers = Vec::with_capacity(hyper.depth);
        for l in 0..hyper.depth {
            let din = if l == 0 { in_dim } else { hyper.hidden };
            let dout = if l + 1 == hyper.depth { num_classes } else { hyper.hidden };
            layers.push(GraphConvLayer::new(&mut store, &format!("gc{l}"), din, dout, &mut rng));
        }
        Gcn {
            layers,
            dropout_keep: hyper.dropout_keep,
            store,
        }
    }

    /// Number of graph-convolution layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

impl NodeClassifier for Gcn {
    fn name(&self) -> String {
        format!("GCN-{}", self.layers.len())
    }

    fn forward(
        &self,
        tape: &mut Tape,
        ctx: &GraphContext,
        mode: Mode,
        rng: &mut TensorRng,
    ) -> ForwardOutput {
        self.forward_with_hiddens(tape, ctx, mode, rng).0
    }

    fn forward_with_hiddens(
        &self,
        tape: &mut Tape,
        ctx: &GraphContext,
        mode: Mode,
        rng: &mut TensorRng,
    ) -> (ForwardOutput, Vec<lasagne_autograd::NodeId>) {
        let mut h = input_node(tape, ctx, mode, self.dropout_keep, rng);
        let mut hiddens = Vec::with_capacity(self.layers.len());
        for (l, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, &self.store, &ctx.a_hat, h);
            if l + 1 < self.layers.len() {
                h = tape.relu(h);
                hiddens.push(h);
                h = maybe_dropout(tape, h, mode, self.dropout_keep, rng);
            }
        }
        hiddens.push(h); // the final layer counts as H(L)
        (ForwardOutput::logits(h), hiddens)
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::{assert_model_learns, tiny_ctx};

    #[test]
    fn two_layer_gcn_learns() {
        let mut m = Gcn::new(8, 3, &Hyper::default(), 0);
        assert_model_learns(&mut m, 0);
    }

    #[test]
    fn deep_gcn_builds_and_runs() {
        let h = Hyper::default().with_depth(8);
        let mut m = Gcn::new(8, 3, &h, 0);
        assert_eq!(m.depth(), 8);
        let (ctx, _) = tiny_ctx(1);
        let mut rng = TensorRng::seed_from_u64(0);
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &ctx, Mode::Eval, &mut rng);
        assert_eq!(tape.value(out.logits).shape(), (60, 3));
        // Keep the borrow checker honest about the trait API.
        assert!(!m.store_mut().is_empty());
    }

    #[test]
    fn single_layer_degenerate_case() {
        let h = Hyper { depth: 1, ..Hyper::default() };
        let m = Gcn::new(8, 3, &h, 0);
        assert_eq!(m.depth(), 1);
        let (ctx, _) = tiny_ctx(2);
        let mut rng = TensorRng::seed_from_u64(0);
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &ctx, Mode::Eval, &mut rng);
        assert_eq!(tape.value(out.logits).shape(), (60, 3));
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let m = Gcn::new(8, 3, &Hyper::default(), 0);
        let (ctx, _) = tiny_ctx(3);
        let mut rng = TensorRng::seed_from_u64(5);
        let mut t1 = Tape::new();
        let a = m.forward(&mut t1, &ctx, Mode::Eval, &mut rng);
        let mut t2 = Tape::new();
        let b = m.forward(&mut t2, &ctx, Mode::Eval, &mut rng);
        assert!(t1.value(a.logits).approx_eq(t2.value(b.logits), 0.0));
    }

    #[test]
    fn train_mode_is_stochastic() {
        let m = Gcn::new(8, 3, &Hyper::default(), 0);
        let (ctx, _) = tiny_ctx(4);
        let mut rng = TensorRng::seed_from_u64(5);
        let mut t1 = Tape::new();
        let a = m.forward(&mut t1, &ctx, Mode::Train, &mut rng);
        let mut t2 = Tape::new();
        let b = m.forward(&mut t2, &ctx, Mode::Train, &mut rng);
        assert!(!t1.value(a.logits).approx_eq(t2.value(b.logits), 1e-9));
    }
}
