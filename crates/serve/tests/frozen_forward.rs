//! The frozen-path contract: for every model in the stack, exporting the
//! eval forward, saving it, loading it back, and replaying it tape-free
//! must reproduce the training path's eval logits **bitwise** (`to_bits`
//! equality, not tolerance), at 1 and 4 `lasagne-par` threads.
//!
//! This mirrors the model set of the gradcheck sweeps
//! (`crates/gnn/tests/gradcheck_models.rs`,
//! `crates/core/tests/gradcheck_lasagne.rs`): the 13 baselines plus the
//! four Lasagne aggregators. Three of them (GCN, Lasagne-Weighted,
//! Lasagne-MaxPooling) are additionally trained for 2 epochs first, so the
//! round-trip is checked on weights that have actually moved — exercising
//! save → load → bind on non-initialization values.

use std::rc::Rc;

use lasagne_autograd::{Adam, Optimizer, Tape};
use lasagne_core::{AggregatorKind, Lasagne, LasagneConfig};
use lasagne_gnn::{models, GraphContext, Hyper, Mode, NodeClassifier};
use lasagne_graph::generators::{bipartite_user_item, dc_sbm, BipartiteConfig, DcSbmConfig};
use lasagne_serve::{freeze, Engine, FrozenModel};
use lasagne_sparse::EdgeData;
use lasagne_tensor::{Tensor, TensorRng};

const IN_DIM: usize = 6;
const CLASSES: usize = 3;

/// Same 24-node planted-partition context the gradcheck sweeps use.
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

fn lasagne_model(agg: AggregatorKind, n: usize) -> Box<dyn NodeClassifier> {
    let cfg = LasagneConfig::from_hyper(&tiny_hyper(), agg);
    Box::new(Lasagne::new(IN_DIM, CLASSES, Some(n), &cfg, 5))
}

/// Training-path reference: eval-mode logits off a fresh tape.
fn training_path_logits(model: &dyn NodeClassifier, ctx: &GraphContext) -> Vec<u32> {
    let mut rng = TensorRng::seed_from_u64(7);
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, ctx, Mode::Eval, &mut rng);
    tape.value(out.logits).as_slice().iter().map(|v| v.to_bits()).collect()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lasagne-frozen-{name}-{}.json", std::process::id()))
}

/// Freeze → save → load → evaluate tape-free; assert bitwise logit
/// equality against the tape path at 1 and 4 threads.
fn assert_frozen_matches(name: &str, model: &dyn NodeClassifier, ctx: &GraphContext) {
    let path = temp_path(name);
    freeze(model, ctx, "tiny").expect("freeze").save(&path).expect("save");
    for &threads in &[1usize, 4] {
        lasagne_par::set_threads(threads);
        let reference = training_path_logits(model, ctx);
        let engine = Engine::new(FrozenModel::load(&path).expect("load")).expect("engine");
        assert_eq!(engine.num_nodes(), ctx.num_nodes(), "{name}: node count");
        assert_eq!(engine.num_classes(), CLASSES, "{name}: class count");
        let mut frozen_bits = Vec::with_capacity(reference.len());
        for node in 0..engine.num_nodes() {
            frozen_bits
                .extend(engine.logits_row(node).expect("row").iter().map(|v| v.to_bits()));
        }
        assert_eq!(
            frozen_bits, reference,
            "{name} @ {threads} thread(s): frozen logits differ from the training path"
        );
    }
    let _ = std::fs::remove_file(path);
}

/// Two full-batch Adam epochs — enough to move every weight off its init.
fn train_epochs(model: &mut dyn NodeClassifier, ctx: &GraphContext, train: &[usize], epochs: usize) {
    let labels = Rc::new((*ctx.labels).clone());
    let idx = Rc::new(train.to_vec());
    let mut opt = Adam::new(model.store(), 0.01, 5e-4);
    let mut rng = TensorRng::seed_from_u64(3);
    for _ in 0..epochs {
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, ctx, Mode::Train, &mut rng);
        let lp = tape.log_softmax(out.logits);
        let mut loss = tape.nll_masked(lp, labels.clone(), idx.clone());
        if let Some(reg) = out.regularizer {
            loss = tape.add(loss, reg);
        }
        model.store_mut().zero_grads();
        tape.backward(loss, model.store_mut());
        opt.step(model.store_mut());
    }
}

macro_rules! frozen_matches {
    ($test:ident, $ty:ident) => {
        #[test]
        fn $test() {
            let (ctx, _) = tiny_ctx(11);
            let model = models::$ty::new(IN_DIM, CLASSES, &tiny_hyper(), 5);
            assert_frozen_matches(stringify!($ty), &model, &ctx);
        }
    };
}

frozen_matches!(gcn_frozen_bitwise, Gcn);
frozen_matches!(resgcn_frozen_bitwise, ResGcn);
frozen_matches!(densegcn_frozen_bitwise, DenseGcn);
frozen_matches!(jknet_frozen_bitwise, JkNet);
frozen_matches!(gat_frozen_bitwise, Gat);
frozen_matches!(sgc_frozen_bitwise, Sgc);
frozen_matches!(appnp_frozen_bitwise, Appnp);
frozen_matches!(mixhop_frozen_bitwise, MixHop);
frozen_matches!(dropedge_frozen_bitwise, DropEdgeGcn);
frozen_matches!(pairnorm_frozen_bitwise, PairNormGcn);
frozen_matches!(madreg_frozen_bitwise, MadRegGcn);
frozen_matches!(graphsage_frozen_bitwise, GraphSage);
frozen_matches!(fastgcn_frozen_bitwise, FastGcn);

#[test]
fn lasagne_weighted_frozen_bitwise() {
    let (ctx, _) = tiny_ctx(11);
    let model = lasagne_model(AggregatorKind::Weighted, ctx.num_nodes());
    assert_frozen_matches("Lasagne-Weighted", model.as_ref(), &ctx);
}

#[test]
fn lasagne_stochastic_frozen_bitwise() {
    let (ctx, _) = tiny_ctx(11);
    let model = lasagne_model(AggregatorKind::Stochastic, ctx.num_nodes());
    assert_frozen_matches("Lasagne-Stochastic", model.as_ref(), &ctx);
}

#[test]
fn lasagne_maxpool_frozen_bitwise() {
    let (ctx, _) = tiny_ctx(11);
    let model = lasagne_model(AggregatorKind::MaxPooling, ctx.num_nodes());
    assert_frozen_matches("Lasagne-MaxPooling", model.as_ref(), &ctx);
}

#[test]
fn lasagne_mean_frozen_bitwise() {
    let (ctx, _) = tiny_ctx(11);
    let model = lasagne_model(AggregatorKind::Mean, ctx.num_nodes());
    assert_frozen_matches("Lasagne-Mean", model.as_ref(), &ctx);
}

#[test]
fn trained_gcn_frozen_bitwise() {
    let (ctx, train) = tiny_ctx(11);
    let mut model = models::Gcn::new(IN_DIM, CLASSES, &tiny_hyper(), 5);
    train_epochs(&mut model, &ctx, &train, 2);
    assert_frozen_matches("Gcn-trained", &model, &ctx);
}

#[test]
fn trained_lasagne_weighted_frozen_bitwise() {
    let (ctx, train) = tiny_ctx(11);
    let mut model = lasagne_model(AggregatorKind::Weighted, ctx.num_nodes());
    train_epochs(model.as_mut(), &ctx, &train, 2);
    assert_frozen_matches("Lasagne-Weighted-trained", model.as_ref(), &ctx);
}

#[test]
fn trained_lasagne_maxpool_frozen_bitwise() {
    let (ctx, train) = tiny_ctx(11);
    let mut model = lasagne_model(AggregatorKind::MaxPooling, ctx.num_nodes());
    train_epochs(model.as_mut(), &ctx, &train, 2);
    assert_frozen_matches("Lasagne-MaxPooling-trained", model.as_ref(), &ctx);
}

/// Bipartite user–item context with per-edge (rating, recency) features —
/// the edge-gated model's native habitat. Same attribute encoding as
/// `lasagne_datasets::RecDataset`.
fn tiny_edge_ctx(seed: u64) -> (GraphContext, Vec<usize>) {
    let mut rng = TensorRng::seed_from_u64(seed);
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
    (ctx, (0..items / 2).collect())
}

#[test]
fn edgegated_frozen_bitwise() {
    let (ctx, _) = tiny_edge_ctx(11);
    let model = models::EdgeGatedGcn::new(IN_DIM, CLASSES, 2, &tiny_hyper(), 5);
    assert_frozen_matches("EdgeGatedGCN", &model, &ctx);
}

#[test]
fn trained_edgegated_frozen_bitwise() {
    let (ctx, train) = tiny_edge_ctx(11);
    let mut model = models::EdgeGatedGcn::new(IN_DIM, CLASSES, 2, &tiny_hyper(), 5);
    train_epochs(&mut model, &ctx, &train, 2);
    assert_frozen_matches("EdgeGatedGCN-trained", &model, &ctx);
}

#[test]
fn same_model_exports_byte_identical_files() {
    let (ctx, _) = tiny_ctx(11);
    let model = models::Gcn::new(IN_DIM, CLASSES, &tiny_hyper(), 5);
    let a = temp_path("det-a");
    let b = temp_path("det-b");
    freeze(&model, &ctx, "tiny").expect("freeze a").save(&a).expect("save a");
    freeze(&model, &ctx, "tiny").expect("freeze b").save(&b).expect("save b");
    let bytes_a = std::fs::read(&a).expect("read a");
    let bytes_b = std::fs::read(&b).expect("read b");
    assert_eq!(bytes_a, bytes_b, "export must be byte-deterministic");
    let _ = std::fs::remove_file(a);
    let _ = std::fs::remove_file(b);
}
