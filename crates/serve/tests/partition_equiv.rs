//! Serve-side partition-equivalence harness (DESIGN.md §14): the lazy
//! per-partition engine must be indistinguishable — bitwise — from the
//! resident propagation-cache engine and from the training path's eval
//! forward, for GCN and all four Lasagne aggregators, at 1 and 4 threads
//! and across partition counts. Laziness itself is observable (partitions materialize only when queried), and
//! everything the lazy engine cannot serve exactly is refused typed:
//! non-row-local programs (GAT), streaming mutations, bad partition counts.

use lasagne_autograd::Tape;
use lasagne_core::{AggregatorKind, Lasagne, LasagneConfig};
use lasagne_gnn::{models, GraphContext, Hyper, Mode, NodeClassifier};
use lasagne_graph::generators::{dc_sbm, DcSbmConfig};
use lasagne_serve::{freeze, Engine, FrozenModel, LazyEngine, Mutation, ServeError};
use lasagne_tensor::TensorRng;

const IN_DIM: usize = 6;
const CLASSES: usize = 3;

/// Same 24-node planted-partition context the frozen-path suite uses.
fn tiny_ctx(seed: u64) -> GraphContext {
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
    GraphContext::new(&g, features, labels, CLASSES)
}

fn tiny_hyper() -> Hyper {
    Hyper {
        hidden: 4,
        depth: 2,
        dropout_keep: 1.0,
        gat_heads: 2,
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

/// For every (thread count, partition count): lazy rows == resident engine
/// rows == training-path rows, to the bit.
fn assert_lazy_matches(name: &str, model: &dyn NodeClassifier, ctx: &GraphContext) {
    let frozen = freeze(model, ctx, "tiny").expect("freeze");
    for &threads in &[1usize, 4] {
        lasagne_par::set_threads(threads);
        let reference = training_path_logits(model, ctx);
        for (k, lazy_bits) in lazy_equals_resident(name, &frozen, threads) {
            assert_eq!(
                lazy_bits, reference,
                "{name} @ {threads} thread(s), k={k}: lazy logits differ from training path"
            );
        }
    }
    lasagne_par::set_threads(1);
}

/// At the current thread count and each partition count k ∈ {1, 3, 5}:
/// every lazy row, prediction and top-k equals the resident engine's, to
/// the bit. Returns each k's lazy logits, as bits.
fn lazy_equals_resident(
    name: &str,
    frozen: &FrozenModel,
    threads: usize,
) -> Vec<(usize, Vec<u32>)> {
    let resident = Engine::new(frozen.clone()).expect("resident engine");
    let mut all = Vec::new();
    for &k in &[1usize, 3, 5] {
        let lazy = LazyEngine::new(frozen.clone(), k).expect("lazy engine");
        assert_eq!(lazy.num_nodes(), resident.num_nodes(), "{name}: node count");
        assert_eq!(lazy.num_classes(), CLASSES, "{name}: class count");
        let mut lazy_bits = Vec::new();
        for node in 0..lazy.num_nodes() {
            let row = lazy.logits_row(node).expect("lazy row");
            assert_eq!(
                row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                resident.logits_row(node).expect("resident row").iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{name} @ {threads} thread(s), k={k}, node {node}: lazy != resident"
            );
            lazy_bits.extend(row.iter().map(|v| v.to_bits()));
            // Derived answers agree too.
            assert_eq!(
                lazy.predict(node).expect("lazy predict"),
                resident.predict(node).expect("resident predict"),
                "{name} @ {threads} thread(s), k={k}, node {node}: predictions differ"
            );
            assert_eq!(
                lazy.top_k(node, 2).expect("lazy top_k"),
                resident.top_k(node, 2).expect("resident top_k"),
                "{name} @ {threads} thread(s), k={k}, node {node}: top-k differs"
            );
        }
        all.push((k, lazy_bits));
    }
    all
}

#[test]
fn lazy_engine_is_bitwise_for_gcn_and_all_lasagne_aggregators() {
    let ctx = tiny_ctx(5);
    let n = ctx.num_nodes();
    let gcn = models::Gcn::new(IN_DIM, CLASSES, &tiny_hyper(), 3);
    assert_lazy_matches("gcn", &gcn, &ctx);
    for agg in [
        AggregatorKind::Weighted,
        AggregatorKind::MaxPooling,
        AggregatorKind::Stochastic,
        AggregatorKind::Mean,
    ] {
        let model = lasagne_model(agg, n);
        assert_lazy_matches(agg.label(), model.as_ref(), &ctx);
    }
}

#[test]
fn partitions_materialize_lazily_and_only_when_touched() {
    let ctx = tiny_ctx(5);
    let model = models::Gcn::new(IN_DIM, CLASSES, &tiny_hyper(), 3);
    let frozen = freeze(&model, &ctx, "tiny").expect("freeze");
    let lazy = LazyEngine::new(frozen, 4).expect("lazy engine");
    assert_eq!(lazy.cached_parts(), 0, "nothing materialized at load");
    lazy.predict(0).expect("query");
    assert_eq!(lazy.cached_parts(), 1, "first query fills exactly one partition");
    lazy.predict(0).expect("repeat query");
    assert_eq!(lazy.cached_parts(), 1, "repeat queries hit the cache");
    for node in 0..lazy.num_nodes() {
        lazy.logits_row(node).expect("row");
    }
    assert_eq!(lazy.cached_parts(), lazy.num_parts(), "full sweep fills every partition");
}

#[test]
fn everything_inexact_is_refused_typed() {
    let ctx = tiny_ctx(5);

    // GAT: graph-global attention softmax — not row-local, refused at load.
    let gat = models::Gat::new(IN_DIM, CLASSES, &tiny_hyper(), 3);
    let frozen_gat = freeze(&gat, &ctx, "tiny").expect("freeze gat");
    match LazyEngine::new(frozen_gat, 3) {
        Err(ServeError::Mismatch(msg)) => {
            assert!(msg.contains("row-local"), "unexpected message: {msg}")
        }
        other => panic!("expected typed row-locality refusal, got {:?}", other.err()),
    }

    let model = models::Gcn::new(IN_DIM, CLASSES, &tiny_hyper(), 3);
    let frozen = freeze(&model, &ctx, "tiny").expect("freeze");

    // Bad partition counts.
    for k in [0usize, 1000] {
        match LazyEngine::new(frozen.clone(), k) {
            Err(ServeError::Mismatch(_)) => {}
            other => panic!("k={k}: expected typed refusal, got {:?}", other.err()),
        }
    }

    // Streaming mutations would leave caches silently stale.
    let mut lazy = LazyEngine::new(frozen.clone(), 3).expect("lazy engine");
    match lazy.apply_mutation(&Mutation::AddEdge { u: 0, v: 5 }) {
        Err(ServeError::Mismatch(msg)) => {
            assert!(msg.contains("mutation"), "unexpected message: {msg}")
        }
        other => panic!("expected typed mutation refusal, got {:?}", other.err()),
    }

    // Unknown nodes answer typed, same as the resident engine.
    match lazy.logits_row(999) {
        Err(ServeError::UnknownNode { node: 999, num_nodes: 24 }) => {}
        other => panic!("expected UnknownNode, got {:?}", other.err()),
    }
}
