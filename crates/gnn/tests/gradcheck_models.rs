//! Model-wide gradient-check sweep: every model in `models::*` must have
//! analytic gradients matching central differences on a tiny fixed graph,
//! at every thread count in {1, 4} (the `lasagne-par` determinism contract
//! says the numbers cannot differ — this proves the *gradients* don't
//! either).
//!
//! The companion sweep for the Lasagne model itself (GC-FM layer + the
//! three node-aware aggregators) lives in
//! `crates/core/tests/gradcheck_lasagne.rs` — the dependency direction
//! (`core` depends on `gnn`) keeps it out of this file.
//!
//! Checks run the loss in `Mode::Eval` so the forward pass is
//! deterministic (no dropout masks / sampled supports); every parameter
//! still participates in the eval path, so the sweep covers the full
//! stores.

use std::rc::Rc;

use lasagne_autograd::{grad_check_owner, NodeId, ParamStore, Tape};
use lasagne_gnn::models;
use lasagne_gnn::{GraphContext, Hyper, Mode, NodeClassifier};
use lasagne_graph::generators::{dc_sbm, DcSbmConfig};
use lasagne_tensor::TensorRng;

const EPS: f32 = 5e-3;
const TOL: f32 = 1e-2;
const IN_DIM: usize = 6;
const CLASSES: usize = 3;

/// A 24-node, 3-class planted-partition context — small enough that a
/// coordinate-wise central-difference sweep over a whole model is cheap.
fn tiny_ctx(seed: u64) -> (GraphContext, Vec<usize>) {
    let mut rng = TensorRng::seed_from_u64(seed);
    let (g, labels) = dc_sbm(
        &DcSbmConfig {
            nodes: 24,
            classes: CLASSES,
            avg_degree: 4.0,
            homophily: 0.9,
            power_exponent: 2.5,
            max_weight_ratio: 20.0,
        },
        &mut rng,
    );
    let features = lasagne_datasets::generate_features(
        &g,
        &labels,
        CLASSES,
        &lasagne_datasets::FeatureConfig {
            dim: IN_DIM,
            signal: 1.5,
            noise_scale: 0.5,
            degree_noise_exponent: 0.3,
            mask_base: 0.0,
        },
        &mut rng,
    );
    let train: Vec<usize> = (0..12).collect();
    (GraphContext::new(&g, features, labels, CLASSES), train)
}

fn tiny_hyper() -> Hyper {
    Hyper {
        hidden: 4,
        depth: 2,
        dropout_keep: 1.0,
        gat_heads: 2,
        appnp_k: 3,
        fastgcn_samples: 24,
        madreg_pairs: 8,
        sgc_k: 2,
        ..Hyper::default()
    }
}

fn store_of<M: NodeClassifier + ?Sized>(m: &mut M) -> &mut ParamStore {
    m.store_mut()
}

fn check_model(name: &str, mut model: Box<dyn NodeClassifier>) {
    let (ctx, train) = tiny_ctx(11);
    let labels = Rc::new((*ctx.labels).clone());
    let idx = Rc::new(train);
    for &threads in &[1usize, 4] {
        lasagne_par::set_threads(threads);
        let forward = |m: &(dyn NodeClassifier + 'static), tape: &mut Tape| -> NodeId {
            // Reseeded per call: eval consumes no randomness today, but the
            // checker's contract is a deterministic closure regardless.
            let mut rng = TensorRng::seed_from_u64(7);
            let out = m.forward(tape, &ctx, Mode::Eval, &mut rng);
            let lp = tape.log_softmax(out.logits);
            let mut loss = tape.nll_masked(lp, labels.clone(), idx.clone());
            if let Some(reg) = out.regularizer {
                loss = tape.add(loss, reg);
            }
            loss
        };
        let report = grad_check_owner(model.as_mut(), store_of, |_| false, EPS, forward);
        assert!(report.checked > 0, "{name}: no parameters were checked");
        assert!(
            report.max_rel_err < TOL,
            "{name} @ {threads} thread(s): max_rel_err {} (max_abs_err {}, {} coords)",
            report.max_rel_err,
            report.max_abs_err,
            report.checked
        );
    }
}

macro_rules! model_gradcheck {
    ($test:ident, $ty:ident) => {
        #[test]
        fn $test() {
            check_model(
                stringify!($ty),
                Box::new(models::$ty::new(IN_DIM, CLASSES, &tiny_hyper(), 5)),
            );
        }
    };
}

model_gradcheck!(gcn_gradients_match, Gcn);

/// The edge-gated model needs a context carrying edge features, so it gets
/// its own fixture: a 30-node bipartite graph with rating/recency link
/// attributes. Same sweep, same tolerances, same thread counts.
#[test]
fn edgegated_gradients_match() {
    use lasagne_graph::generators::{bipartite_user_item, BipartiteConfig};
    use lasagne_sparse::EdgeData;
    use lasagne_tensor::Tensor;

    let mut rng = TensorRng::seed_from_u64(13);
    let items = 18usize;
    let buckets = 4usize;
    let b = bipartite_user_item(
        &BipartiteConfig {
            items,
            users: 12,
            classes: CLASSES,
            avg_user_degree: 3.0,
            popularity_exponent: 2.0,
            user_focus: 0.8,
            time_buckets: buckets,
        },
        &mut rng,
    );
    let n = b.graph.num_nodes();
    let centroids = rng.normal_tensor(CLASSES, IN_DIM, 0.0, 0.6);
    let mut features = Tensor::zeros(n, IN_DIM);
    let mut labels = vec![0usize; n];
    for (v, label) in labels.iter_mut().enumerate() {
        *label = if v < items { b.item_labels[v] } else { b.user_prefs[v - items] };
        for (x, &mu) in features.row_mut(v).iter_mut().zip(centroids.row(*label)) {
            *x = mu + 0.3 * rng.normal();
        }
    }
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
    let ctx = GraphContext::with_edge_data(&b.graph, features, labels, CLASSES, &edges)
        .expect("edge data aligned by construction");
    let train: Vec<usize> = (0..items / 2).collect();

    let labels = Rc::new((*ctx.labels).clone());
    let idx = Rc::new(train);
    let mut model: Box<dyn NodeClassifier> = Box::new(models::EdgeGatedGcn::new(
        IN_DIM,
        CLASSES,
        2,
        &tiny_hyper(),
        5,
    ));
    for &threads in &[1usize, 4] {
        lasagne_par::set_threads(threads);
        let forward = |m: &(dyn NodeClassifier + 'static), tape: &mut Tape| -> NodeId {
            let mut rng = TensorRng::seed_from_u64(7);
            let out = m.forward(tape, &ctx, Mode::Eval, &mut rng);
            let lp = tape.log_softmax(out.logits);
            tape.nll_masked(lp, labels.clone(), idx.clone())
        };
        let report = grad_check_owner(model.as_mut(), store_of, |_| false, EPS, forward);
        assert!(report.checked > 0, "EdgeGatedGcn: no parameters were checked");
        assert!(
            report.max_rel_err < TOL,
            "EdgeGatedGcn @ {threads} thread(s): max_rel_err {} (max_abs_err {}, {} coords)",
            report.max_rel_err,
            report.max_abs_err,
            report.checked
        );
    }
}
model_gradcheck!(resgcn_gradients_match, ResGcn);
model_gradcheck!(densegcn_gradients_match, DenseGcn);
model_gradcheck!(jknet_gradients_match, JkNet);
model_gradcheck!(gat_gradients_match, Gat);
model_gradcheck!(sgc_gradients_match, Sgc);
model_gradcheck!(appnp_gradients_match, Appnp);
model_gradcheck!(mixhop_gradients_match, MixHop);
model_gradcheck!(dropedge_gradients_match, DropEdgeGcn);
model_gradcheck!(pairnorm_gradients_match, PairNormGcn);
model_gradcheck!(madreg_gradients_match, MadRegGcn);
model_gradcheck!(graphsage_gradients_match, GraphSage);
model_gradcheck!(fastgcn_gradients_match, FastGcn);
