//! The streaming exactness contract (DESIGN.md §11): after **any** sequence
//! of live mutations, the engine's propagation cache must be bitwise
//! identical — `to_bits` on every logit and probability, no tolerance — to
//! a cold engine frozen from scratch on the mutated graph. Checked for GCN
//! and all four Lasagne aggregators, at 1 and 4 `lasagne-par` threads, and
//! each edge sequence must exercise the genuinely incremental path at least
//! once (a run that always fell back to full recompute would prove
//! nothing about the dirty-row machinery).

use std::collections::BTreeSet;

use lasagne_core::{AggregatorKind, Lasagne, LasagneConfig};
use lasagne_gnn::{models, GraphContext, Hyper, NodeClassifier};
use lasagne_graph::generators::{dc_sbm, DcSbmConfig};
use lasagne_graph::Graph;
use lasagne_serve::{freeze, Engine, Mutation};
use lasagne_tensor::{Tensor, TensorRng};
use lasagne_testkit::rng::Rng;

const IN_DIM: usize = 6;
const CLASSES: usize = 3;
const NODES: usize = 60;

/// Sparse 60-node planted partition: low average degree keeps 2-hop dirty
/// sets well under the half-rows fallback threshold, so edge toggles
/// actually take the incremental path this suite exists to prove out.
fn sparse_ctx(seed: u64) -> (Graph, Tensor, Vec<usize>) {
    let mut rng = TensorRng::seed_from_u64(seed);
    let (g, labels) = dc_sbm(
        &DcSbmConfig {
            nodes: NODES,
            classes: CLASSES,
            avg_degree: 2.5,
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
    (g, features, labels)
}

fn tiny_hyper() -> Hyper {
    Hyper { hidden: 4, depth: 2, dropout_keep: 1.0, sgc_k: 2, ..Hyper::default() }
}

fn lasagne_model(agg: AggregatorKind, n: usize) -> Box<dyn NodeClassifier> {
    let cfg = LasagneConfig::from_hyper(&tiny_hyper(), agg);
    Box::new(Lasagne::new(IN_DIM, CLASSES, Some(n), &cfg, 5))
}

/// Cold reference: rebuild the graph from the shadow edge set, re-freeze the
/// same model on it, and return (logit bits, prob bits) for every node.
fn cold_bits(
    model: &dyn NodeClassifier,
    n: usize,
    edges: &BTreeSet<(u32, u32)>,
    features: &Tensor,
    labels: &[usize],
) -> (Vec<u32>, Vec<u32>) {
    let edge_vec: Vec<(u32, u32)> = edges.iter().copied().collect();
    let g = Graph::from_edges(n, &edge_vec);
    let ctx = GraphContext::new(&g, features.clone(), labels.to_vec(), CLASSES);
    let engine = Engine::new(freeze(model, &ctx, "tiny").expect("freeze")).expect("cold engine");
    engine_bits(&engine, n)
}

fn engine_bits(engine: &Engine, n: usize) -> (Vec<u32>, Vec<u32>) {
    let mut logits = Vec::new();
    let mut probs = Vec::new();
    for node in 0..n {
        logits.extend(engine.logits_row(node).expect("row").iter().map(|v| v.to_bits()));
        probs.extend(engine.predict(node).expect("predict").probs.iter().map(|v| v.to_bits()));
    }
    (logits, probs)
}

/// Replay `steps` random edge toggles against a live engine, diffing the
/// whole cache against a cold rebuild after every single mutation.
fn assert_streaming_matches_cold(name: &str, model: &dyn NodeClassifier, steps: usize) {
    let (g, features, labels) = sparse_ctx(17);
    for &threads in &[1usize, 4] {
        lasagne_par::set_threads(threads);
        let ctx = GraphContext::new(&g, features.clone(), labels.clone(), CLASSES);
        let mut engine =
            Engine::new(freeze(model, &ctx, "tiny").expect("freeze")).expect("live engine");
        assert!(engine.supports_mutation(), "{name}: freshly frozen model must carry a graph");
        let mut edges: BTreeSet<(u32, u32)> = g.edges().iter().copied().collect();
        let mut rng = Rng::seed_from_u64(23);
        let mut incremental = 0usize;
        for step in 0..steps {
            let mutation = pick_edge_toggle(&mut rng, &mut edges);
            let report = engine
                .apply_mutation(&mutation)
                .unwrap_or_else(|e| panic!("{name} step {step}: {mutation:?} failed: {e}"));
            assert_eq!(report.num_nodes, NODES, "{name} step {step}: node count drifted");
            if !report.full {
                incremental += 1;
                assert!(
                    report.dirty_rows < NODES,
                    "{name} step {step}: incremental path re-derived every row"
                );
            }
            let got = engine_bits(&engine, NODES);
            let want = cold_bits(model, NODES, &edges, &features, &labels);
            assert_eq!(
                got, want,
                "{name} @ {threads} thread(s), step {step} ({mutation:?}): \
                 live cache differs from a cold rebuild"
            );
        }
        assert!(
            incremental > 0,
            "{name} @ {threads} thread(s): no mutation took the incremental path — \
             the equivalence run never exercised the dirty-row machinery"
        );
    }
}

/// Toggle a random edge, mirroring the choice into the shadow set: mostly
/// inserts (so the graph stays connected enough to be interesting), removals
/// of an existing edge about a third of the time.
fn pick_edge_toggle(rng: &mut Rng, edges: &mut BTreeSet<(u32, u32)>) -> Mutation {
    if !edges.is_empty() && rng.index(3) == 0 {
        let pick = rng.index(edges.len());
        let &(u, v) = edges.iter().nth(pick).expect("non-empty");
        edges.remove(&(u, v));
        return Mutation::RemoveEdge { u: u as usize, v: v as usize };
    }
    loop {
        let u = rng.index(NODES) as u32;
        let v = rng.index(NODES) as u32;
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if edges.insert(key) {
            return Mutation::AddEdge { u: key.0 as usize, v: key.1 as usize };
        }
    }
}

#[test]
fn gcn_streaming_bitwise_equivalent() {
    let model = models::Gcn::new(IN_DIM, CLASSES, &tiny_hyper(), 5);
    assert_streaming_matches_cold("Gcn", &model, 12);
}

/// SGC folds `Â^K X` into a tape constant, so its exported program has no
/// visible graph dependence — freezing must withhold the graph binding and
/// mutations must fail typed instead of silently serving stale rows (the
/// exact failure mode this suite caught when SGC still got a binding).
#[test]
fn sgc_refuses_mutations_with_typed_error() {
    let (g, features, labels) = sparse_ctx(17);
    let model = models::Sgc::new(IN_DIM, CLASSES, &tiny_hyper(), 5);
    let ctx = GraphContext::new(&g, features, labels, CLASSES);
    let mut engine =
        Engine::new(freeze(&model, &ctx, "tiny").expect("freeze")).expect("engine");
    assert!(!engine.supports_mutation(), "SGC must freeze without a graph binding");
    let err = engine
        .apply_mutation(&Mutation::AddEdge { u: 0, v: 1 })
        .expect_err("mutation must be refused");
    assert_eq!(err.kind(), "mismatch", "refusal must be the typed no-binding error");
}

#[test]
fn lasagne_weighted_streaming_bitwise_equivalent() {
    let model = lasagne_model(AggregatorKind::Weighted, NODES);
    assert_streaming_matches_cold("Lasagne-Weighted", model.as_ref(), 10);
}

#[test]
fn lasagne_stochastic_streaming_bitwise_equivalent() {
    let model = lasagne_model(AggregatorKind::Stochastic, NODES);
    assert_streaming_matches_cold("Lasagne-Stochastic", model.as_ref(), 10);
}

#[test]
fn lasagne_maxpool_streaming_bitwise_equivalent() {
    let model = lasagne_model(AggregatorKind::MaxPooling, NODES);
    assert_streaming_matches_cold("Lasagne-MaxPooling", model.as_ref(), 10);
}

#[test]
fn lasagne_mean_streaming_bitwise_equivalent() {
    let model = lasagne_model(AggregatorKind::Mean, NODES);
    assert_streaming_matches_cold("Lasagne-Mean", model.as_ref(), 10);
}

/// A refused mutation changes nothing: a duplicate `add_edge`, a missing
/// `remove_edge`, a self-loop and an out-of-range endpoint each fail typed
/// and leave every cached logit and probability bitwise as it was, and a
/// valid toggle afterwards still matches a cold engine.
#[test]
fn refused_mutations_leave_the_cache_bitwise_unchanged() {
    let (g, features, labels) = sparse_ctx(17);
    let model = models::Gcn::new(IN_DIM, CLASSES, &tiny_hyper(), 5);
    let mut edges: BTreeSet<(u32, u32)> = g.edges().iter().copied().collect();
    let &(a, b) = edges.iter().next().expect("graph has an edge");
    let (c, d) = (0..NODES as u32)
        .flat_map(|u| (u + 1..NODES as u32).map(move |v| (u, v)))
        .find(|e| !edges.contains(e))
        .expect("graph is not complete");
    let refused = [
        (Mutation::AddEdge { u: a as usize, v: b as usize }, "bad_request", "already exists"),
        (Mutation::RemoveEdge { u: c as usize, v: d as usize }, "bad_request", "does not exist"),
        (Mutation::AddEdge { u: 3, v: 3 }, "bad_request", "self-loops"),
        (Mutation::RemoveEdge { u: 0, v: NODES }, "unknown_node", "unknown node"),
    ];
    edges.remove(&(a, b));
    for &threads in &[1usize, 4] {
        lasagne_par::set_threads(threads);
        let ctx = GraphContext::new(&g, features.clone(), labels.clone(), CLASSES);
        let mut engine =
            Engine::new(freeze(&model, &ctx, "tiny").expect("freeze")).expect("live engine");
        let before = engine_bits(&engine, NODES);
        for (mutation, kind, message) in &refused {
            let err = engine.apply_mutation(mutation).expect_err("mutation must be refused");
            assert_eq!(err.kind(), *kind, "@ {threads} thread(s): {mutation:?}");
            assert!(
                err.to_string().contains(message),
                "@ {threads} thread(s): {mutation:?} answered '{err}'"
            );
            assert_eq!(engine.num_nodes(), NODES, "@ {threads} thread(s): {mutation:?}");
            assert_eq!(
                engine_bits(&engine, NODES),
                before,
                "@ {threads} thread(s): refused {mutation:?} changed the cache"
            );
        }
        engine
            .apply_mutation(&Mutation::RemoveEdge { u: a as usize, v: b as usize })
            .expect("valid removal after the refusals");
        let want = cold_bits(&model, NODES, &edges, &features, &labels);
        assert_eq!(
            engine_bits(&engine, NODES),
            want,
            "@ {threads} thread(s): toggle after the refusals differs from cold"
        );
    }
}

/// `add_node` grows the live graph; the grown cache must match a cold
/// engine on the (n+1)-node graph, both right after the append and after
/// wiring the new node in with edges.
#[test]
fn gcn_add_node_bitwise_equivalent() {
    let (g, features, labels) = sparse_ctx(17);
    let new_row: Vec<f32> = (0..IN_DIM).map(|i| 0.25 * (i as f32 + 1.0)).collect();
    let mut grown = features.as_slice().to_vec();
    grown.extend_from_slice(&new_row);
    let grown_features =
        Tensor::from_vec(NODES + 1, IN_DIM, grown).expect("grown feature tensor");
    let mut grown_labels = labels.clone();
    grown_labels.push(0);

    let model = models::Gcn::new(IN_DIM, CLASSES, &tiny_hyper(), 5);
    for &threads in &[1usize, 4] {
        lasagne_par::set_threads(threads);
        let ctx = GraphContext::new(&g, features.clone(), labels.clone(), CLASSES);
        let mut engine =
            Engine::new(freeze(&model, &ctx, "tiny").expect("freeze")).expect("live engine");
        let mut edges: BTreeSet<(u32, u32)> = g.edges().iter().copied().collect();

        let report = engine
            .apply_mutation(&Mutation::AddNode { features: new_row.clone() })
            .expect("add_node");
        assert_eq!(report.node, Some(NODES), "appended node id");
        assert_eq!(report.num_nodes, NODES + 1);
        assert!(report.full, "add_node has no incremental path");
        assert_eq!(engine.num_nodes(), NODES + 1, "engine metadata must grow");

        let got = engine_bits(&engine, NODES + 1);
        let want = cold_bits(&model, NODES + 1, &edges, &grown_features, &grown_labels);
        assert_eq!(got, want, "@ {threads} thread(s): isolated new node differs from cold");

        // Wire the new node in and check the mutated caches again.
        for &peer in &[0u32, 7, 31] {
            edges.insert((peer, NODES as u32));
            engine
                .apply_mutation(&Mutation::AddEdge { u: peer as usize, v: NODES })
                .expect("wire new node");
        }
        let got = engine_bits(&engine, NODES + 1);
        let want = cold_bits(&model, NODES + 1, &edges, &grown_features, &grown_labels);
        assert_eq!(got, want, "@ {threads} thread(s): wired new node differs from cold");
    }
}
