//! Query-side contracts shared by the resident and lazy engines:
//!
//! * `predict` picks the **first** maximum of a node's logits row — the
//!   class `Tensor::argmax_rows` (training accuracy) picks and `top_k`
//!   ranks first — even when every logit ties;
//! * a lazy engine over an artifact with no graph binding splits the nodes
//!   into exactly the requested number of partitions;
//! * a lazy engine over a graph-bound artifact counts only the non-empty
//!   parts its BFS partitioning grew, so querying every node fills every
//!   partition it reports, at every `k` from 1 to `n`.

use lasagne_autograd::{ParamId, Tape};
use lasagne_gnn::{models, GraphContext, Hyper, Mode, NodeClassifier};
use lasagne_graph::generators::{dc_sbm, DcSbmConfig};
use lasagne_serve::{freeze, Engine, LazyEngine};
use lasagne_tensor::{Tensor, TensorRng};

const IN_DIM: usize = 6;
const CLASSES: usize = 3;

/// A 24-node planted-partition context.
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
    Hyper { hidden: 4, depth: 2, dropout_keep: 1.0, sgc_k: 2, ..Hyper::default() }
}

#[test]
fn tied_logits_predict_the_first_maximum_on_both_engines() {
    let ctx = tiny_ctx(5);
    let mut gcn = models::Gcn::new(IN_DIM, CLASSES, &tiny_hyper(), 3);
    let store = gcn.store_mut();
    for i in 0..store.len() {
        let w = store.value_mut(ParamId::from_index(i));
        *w = Tensor::zeros(w.rows(), w.cols());
    }
    let mut tape = Tape::new();
    let out = gcn.forward(&mut tape, &ctx, Mode::Eval, &mut TensorRng::seed_from_u64(7));
    let logits = tape.value(out.logits);
    assert!(logits.as_slice().iter().all(|&v| v == 0.0), "zero weights tie every logit");
    let argmax = logits.argmax_rows();

    let frozen = freeze(&gcn, &ctx, "tiny").expect("freeze");
    let resident = Engine::new(frozen.clone()).expect("resident engine");
    let lazy = LazyEngine::new(frozen, 3).expect("lazy engine");
    for (v, &first_max) in argmax.iter().enumerate() {
        for (name, class, top) in [
            ("resident", resident.predict(v).expect("predict").class, resident.top_k(v, 1)),
            ("lazy", lazy.predict(v).expect("predict").class, lazy.top_k(v, 1)),
        ] {
            let top = top.expect("top_k")[0].0;
            assert_eq!(class, top, "{name} node {v}: predict and top_k disagree");
            assert_eq!(class, first_max, "{name} node {v}: predict and argmax_rows disagree");
            assert_eq!(class, 0, "{name} node {v}: all-tied logits pick the first class");
        }
    }
}

#[test]
fn binding_free_artifacts_split_into_exactly_k_parts() {
    let ctx = tiny_ctx(5);
    // SGC bakes Â^K·X into a constant, so its artifact has no graph binding
    // and the lazy engine falls back to contiguous node ranges.
    let sgc = models::Sgc::new(IN_DIM, CLASSES, &tiny_hyper(), 3);
    let frozen = freeze(&sgc, &ctx, "tiny").expect("freeze");
    assert!(frozen.graph.is_none(), "SGC artifacts carry no graph binding");
    let resident = Engine::new(frozen.clone()).expect("resident engine");
    let n = ctx.num_nodes();
    for k in 1..=n {
        let lazy = LazyEngine::new(frozen.clone(), k).expect("lazy engine");
        assert_eq!(lazy.num_parts(), k, "k = {k}");
        for v in 0..n {
            assert_eq!(lazy.logits_row(v).expect("row"), resident.logits_row(v).expect("row"));
        }
        assert_eq!(lazy.cached_parts(), k, "k = {k}: every part is non-empty");
    }
}

#[test]
fn graph_bound_artifacts_fill_every_part_in_a_full_sweep() {
    let ctx = tiny_ctx(5);
    let gcn = models::Gcn::new(IN_DIM, CLASSES, &tiny_hyper(), 3);
    let frozen = freeze(&gcn, &ctx, "tiny").expect("freeze");
    assert!(frozen.graph.is_some(), "GCN artifacts carry a graph binding");
    let resident = Engine::new(frozen.clone()).expect("resident engine");
    let n = ctx.num_nodes();
    for k in 1..=n {
        let lazy = LazyEngine::new(frozen.clone(), k).expect("lazy engine");
        assert!((1..=k).contains(&lazy.num_parts()), "k = {k}: {} parts", lazy.num_parts());
        for v in 0..n {
            assert_eq!(lazy.logits_row(v).expect("row"), resident.logits_row(v).expect("row"));
        }
        assert_eq!(lazy.cached_parts(), lazy.num_parts(), "k = {k}: a full sweep fills every part");
    }
}
