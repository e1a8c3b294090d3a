//! DropEdge (Rong et al., ICLR'20): randomly remove edges each training
//! iteration to slow the convergence of over-smoothing (§2.3 of the paper).

use std::rc::Rc;

use lasagne_autograd::{ParamStore, Tape};
use lasagne_sparse::Csr;
use lasagne_tensor::TensorRng;

use crate::layers::GraphConvLayer;
use crate::models::{input_node, maybe_dropout};
use crate::{ForwardOutput, GraphContext, Hyper, Mode, NodeClassifier};

/// A GCN whose training-time propagation operator is rebuilt every forward
/// pass from a randomly-thinned symmetric adjacency, renormalized
/// (`Â_drop = norm(A_drop + I)`). Evaluation uses the full `Â`.
pub struct DropEdgeGcn {
    layers: Vec<GraphConvLayer>,
    keep: f32,
    dropout_keep: f32,
    store: ParamStore,
}

impl DropEdgeGcn {
    /// GCN of `hyper.depth` layers with edge-keep rate `hyper.dropedge_keep`.
    pub fn new(in_dim: usize, num_classes: usize, hyper: &Hyper, seed: u64) -> DropEdgeGcn {
        assert!(hyper.depth >= 1, "DropEdgeGcn: depth must be ≥ 1");
        assert!(
            (0.0..=1.0).contains(&hyper.dropedge_keep),
            "DropEdgeGcn: keep rate {}",
            hyper.dropedge_keep
        );
        let mut rng = TensorRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mut layers = Vec::with_capacity(hyper.depth);
        for l in 0..hyper.depth {
            let din = if l == 0 { in_dim } else { hyper.hidden };
            let dout = if l + 1 == hyper.depth { num_classes } else { hyper.hidden };
            layers.push(GraphConvLayer::new(&mut store, &format!("gc{l}"), din, dout, &mut rng));
        }
        DropEdgeGcn {
            layers,
            keep: hyper.dropedge_keep,
            dropout_keep: hyper.dropout_keep,
            store,
        }
    }
}

impl NodeClassifier for DropEdgeGcn {
    fn name(&self) -> String {
        format!("DropEdge-{}", self.layers.len())
    }

    fn forward(
        &self,
        tape: &mut Tape,
        ctx: &GraphContext,
        mode: Mode,
        rng: &mut TensorRng,
    ) -> ForwardOutput {
        let a_hat: Rc<Csr> = match mode {
            Mode::Train => Rc::new(
                ctx.adjacency
                    .drop_edges_sym(self.keep, rng)
                    .gcn_normalize(),
            ),
            Mode::Eval => ctx.a_hat.clone(),
        };
        let mut h = input_node(tape, ctx, mode, self.dropout_keep, rng);
        for (l, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, &self.store, &a_hat, h);
            if l + 1 < self.layers.len() {
                h = tape.relu(h);
                h = maybe_dropout(tape, h, mode, self.dropout_keep, rng);
            }
        }
        ForwardOutput::logits(h)
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
    fn dropedge_learns() {
        let mut m = DropEdgeGcn::new(8, 3, &Hyper::default(), 0);
        assert_model_learns(&mut m, 0);
    }

    #[test]
    fn eval_ignores_edge_dropping() {
        let m = DropEdgeGcn::new(8, 3, &Hyper::default(), 0);
        let (ctx, _) = tiny_ctx(1);
        let mut rng = TensorRng::seed_from_u64(2);
        let mut t1 = Tape::new();
        let a = m.forward(&mut t1, &ctx, Mode::Eval, &mut rng);
        let mut t2 = Tape::new();
        let b = m.forward(&mut t2, &ctx, Mode::Eval, &mut rng);
        assert!(t1.value(a.logits).approx_eq(t2.value(b.logits), 0.0));
    }

    #[test]
    fn keep_one_matches_plain_training_graph() {
        // keep = 1.0 drops nothing, so the train-time operator equals Â and
        // with dropout disabled the train forward equals the eval forward.
        let h = Hyper { dropedge_keep: 1.0, dropout_keep: 1.0, ..Hyper::default() };
        let m = DropEdgeGcn::new(8, 3, &h, 0);
        let (ctx, _) = tiny_ctx(2);
        let mut rng = TensorRng::seed_from_u64(3);
        let mut t1 = Tape::new();
        let a = m.forward(&mut t1, &ctx, Mode::Train, &mut rng);
        let mut t2 = Tape::new();
        let b = m.forward(&mut t2, &ctx, Mode::Eval, &mut rng);
        assert!(t1.value(a.logits).approx_eq(t2.value(b.logits), 1e-5));
    }
}
