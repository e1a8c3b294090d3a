//! The baseline model zoo (one module per published model).

mod appnp;
mod densegcn;
mod dropedge;
mod edgegated;
mod fastgcn;
mod gat;
mod gcn;
mod jknet;
mod madreg;
mod mixhop;
mod pairnorm;
mod resgcn;
mod sage;
mod sgc;

pub use appnp::Appnp;
pub use densegcn::DenseGcn;
pub use dropedge::DropEdgeGcn;
pub use edgegated::EdgeGatedGcn;
pub use fastgcn::FastGcn;
pub use gat::Gat;
pub use gcn::Gcn;
pub use jknet::JkNet;
pub use madreg::MadRegGcn;
pub use mixhop::MixHop;
pub use pairnorm::PairNormGcn;
pub use resgcn::ResGcn;
pub use sage::GraphSage;
pub use sgc::Sgc;

use lasagne_autograd::{NodeId, Tape};
use lasagne_tensor::TensorRng;

use crate::{GraphContext, Mode};

/// Record the input features, with dropout when training.
pub(crate) fn input_node(
    tape: &mut Tape,
    ctx: &GraphContext,
    mode: Mode,
    keep: f32,
    rng: &mut TensorRng,
) -> NodeId {
    let x = tape.constant((*ctx.features).clone());
    match mode {
        Mode::Train => tape.dropout(x, keep, rng),
        Mode::Eval => x,
    }
}

/// Dropout only when training.
pub(crate) fn maybe_dropout(
    tape: &mut Tape,
    x: NodeId,
    mode: Mode,
    keep: f32,
    rng: &mut TensorRng,
) -> NodeId {
    match mode {
        Mode::Train => tape.dropout(x, keep, rng),
        Mode::Eval => x,
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for model smoke tests: a tiny planted-community
    //! graph, and a short optimization run that must reduce the loss.

    use std::rc::Rc;

    use lasagne_autograd::{Adam, Optimizer, Tape};
    use lasagne_graph::generators::{dc_sbm, DcSbmConfig};
    use lasagne_tensor::TensorRng;

    use crate::{GraphContext, Mode, NodeClassifier};

    /// A 60-node, 3-class planted-partition context.
    pub fn tiny_ctx(seed: u64) -> (GraphContext, Vec<usize>) {
        let mut rng = TensorRng::seed_from_u64(seed);
        let (g, labels) = dc_sbm(
            &DcSbmConfig {
                nodes: 60,
                classes: 3,
                avg_degree: 6.0,
                homophily: 0.9,
                power_exponent: 2.5,
                max_weight_ratio: 20.0,
            },
            &mut rng,
        );
        let features = lasagne_datasets::generate_features(
            &g,
            &labels,
            3,
            &lasagne_datasets::FeatureConfig {
                dim: 8,
                signal: 1.5,
                noise_scale: 0.5,
                degree_noise_exponent: 0.3,
                mask_base: 0.0,
            },
            &mut rng,
        );
        let train: Vec<usize> = (0..30).collect();
        let ctx = GraphContext::new(&g, features, labels, 3);
        (ctx, train)
    }

    /// A 40-node bipartite context (24 items / 16 users, 3 classes) with
    /// rating + recency edge features attached — the fixture for the
    /// edge-gated model family.
    pub fn tiny_edge_ctx(seed: u64) -> (GraphContext, Vec<usize>) {
        use lasagne_graph::generators::{bipartite_user_item, BipartiteConfig};
        use lasagne_sparse::EdgeData;
        use lasagne_tensor::Tensor;

        let mut rng = TensorRng::seed_from_u64(seed);
        let items = 24usize;
        let buckets = 4usize;
        let b = bipartite_user_item(
            &BipartiteConfig {
                items,
                users: 16,
                classes: 3,
                avg_user_degree: 3.0,
                popularity_exponent: 2.0,
                user_focus: 0.8,
                time_buckets: buckets,
            },
            &mut rng,
        );
        let n = b.graph.num_nodes();
        let centroids = rng.normal_tensor(3, 8, 0.0, 0.6);
        let mut features = Tensor::zeros(n, 8);
        let mut labels = vec![0usize; n];
        for (v, label) in labels.iter_mut().enumerate() {
            *label = if v < items { b.item_labels[v] } else { b.user_prefs[v - items] };
            for (x, &mu) in features.row_mut(v).iter_mut().zip(centroids.row(*label)) {
                *x = mu + 0.3 * rng.normal();
            }
        }
        // Per-interaction attributes, mirrored onto both CSR directions.
        let attrs: std::collections::HashMap<(u32, u32), (u8, u8)> = b
            .interactions
            .iter()
            .enumerate()
            .map(|(e, &(i, u))| ((i, u), (b.edge_ratings[e], b.edge_time_buckets[e])))
            .collect();
        let edges = EdgeData::for_csr(b.graph.adjacency(), 2, |r, c, out| {
            let key = if (r as usize) < items { (r, c) } else { (c, r) };
            let (rating, bucket) = attrs[&key];
            out[0] = (rating as f32 - 3.0) / 2.0;
            out[1] = bucket as f32 / (buckets - 1) as f32 - 0.5;
        });
        let ctx = GraphContext::with_edge_data(&b.graph, features, labels, 3, &edges)
            .expect("edge data aligned by construction");
        let train: Vec<usize> = (0..items / 2).collect();
        (ctx, train)
    }

    /// Run `steps` of Adam on the masked NLL; returns (first, last) loss.
    pub fn short_fit(
        model: &mut dyn NodeClassifier,
        ctx: &GraphContext,
        train: &[usize],
        steps: usize,
    ) -> (f32, f32) {
        let labels = Rc::new((*ctx.labels).clone());
        let idx = Rc::new(train.to_vec());
        let mut rng = TensorRng::seed_from_u64(99);
        let mut opt = Adam::new(model.store(), 0.02, 5e-4);
        let mut first = f32::NAN;
        let mut last = f32::NAN;
        for step in 0..steps {
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, ctx, Mode::Train, &mut rng);
            let lp = tape.log_softmax(out.logits);
            let mut loss = tape.nll_masked(lp, labels.clone(), idx.clone());
            if let Some(reg) = out.regularizer {
                loss = tape.add(loss, reg);
            }
            let v = tape.value(loss).get(0, 0);
            if step == 0 {
                first = v;
            }
            last = v;
            model.store_mut().zero_grads();
            tape.backward(loss, model.store_mut());
            opt.step(model.store_mut());
        }
        (first, last)
    }

    /// Assert the usual smoke properties: correct logit shape, finite
    /// values, and a loss that went down over a short fit.
    pub fn assert_model_learns(model: &mut dyn NodeClassifier, seed: u64) {
        let (ctx, train) = tiny_ctx(seed);
        let mut rng = TensorRng::seed_from_u64(1);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &ctx, Mode::Eval, &mut rng);
        let logits = tape.value(out.logits);
        assert_eq!(logits.shape(), (60, 3), "{}: logit shape", model.name());
        assert!(!logits.has_non_finite(), "{}: non-finite logits", model.name());

        let (first, last) = short_fit(model, &ctx, &train, 30);
        assert!(
            last < first * 0.9,
            "{}: loss did not decrease ({first} → {last})",
            model.name()
        );
    }
}
