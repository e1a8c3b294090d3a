//! Gradient checks for the Lasagne model itself: the GC-FM output layer
//! and the three node-aware aggregators (Weighted, Stochastic,
//! Max-Pooling), each at thread counts {1, 4}. The 13 baseline models are
//! swept in `crates/gnn/tests/gradcheck_models.rs`; this file covers the
//! pieces that live in `lasagne-core` (which `gnn` cannot depend on).
//!
//! The Stochastic aggregator's gate-probability parameter `agg.p` is
//! excluded from its sweep: `stochastic_prob_node` subtracts the row max
//! as a *constant* (a stop-gradient stabilizer, standard for
//! softmax-style normalizers), so the analytic gradient intentionally
//! omits the max path while a central difference sees it — at the argmax
//! coordinates the two disagree by construction, most visibly at the
//! all-zeros init where every entry ties for the max. Every other
//! parameter of the Stochastic model (convolutions, GC-FM, output head)
//! is still checked.

use std::rc::Rc;

use lasagne_autograd::{grad_check_owner, NodeId, ParamStore, Tape};
use lasagne_core::{AggregatorKind, GcFm, Lasagne, LasagneConfig};
use lasagne_gnn::{GraphContext, Hyper, Mode, NodeClassifier};
use lasagne_graph::generators::{dc_sbm, DcSbmConfig};
use lasagne_sparse::Csr;
use lasagne_tensor::TensorRng;

const EPS: f32 = 5e-3;
const TOL: f32 = 1e-2;
const IN_DIM: usize = 6;
const CLASSES: usize = 3;
const NODES: usize = 24;

fn tiny_ctx(seed: u64) -> (GraphContext, Vec<usize>) {
    let mut rng = TensorRng::seed_from_u64(seed);
    let (g, labels) = dc_sbm(
        &DcSbmConfig {
            nodes: NODES,
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

fn store_of<M: NodeClassifier + ?Sized>(m: &mut M) -> &mut ParamStore {
    m.store_mut()
}

/// Gradcheck a full Lasagne model (depth 3 so the aggregator actually has
/// multiple layer outputs to combine), skipping parameters by name.
fn check_lasagne(agg: AggregatorKind, skip: fn(&str) -> bool) {
    let hyper = Hyper { hidden: 4, depth: 3, dropout_keep: 1.0, gcfm_k: 2, ..Hyper::default() };
    let cfg = LasagneConfig::from_hyper(&hyper, agg);
    let mut model: Box<dyn NodeClassifier> =
        Box::new(Lasagne::new(IN_DIM, CLASSES, Some(NODES), &cfg, 5));
    let (ctx, train) = tiny_ctx(11);
    let labels = Rc::new((*ctx.labels).clone());
    let idx = Rc::new(train);
    for &threads in &[1usize, 4] {
        lasagne_par::set_threads(threads);
        let forward = |m: &(dyn NodeClassifier + 'static), tape: &mut Tape| -> NodeId {
            let mut rng = TensorRng::seed_from_u64(7);
            let out = m.forward(tape, &ctx, Mode::Eval, &mut rng);
            let lp = tape.log_softmax(out.logits);
            let mut loss = tape.nll_masked(lp, labels.clone(), idx.clone());
            if let Some(reg) = out.regularizer {
                loss = tape.add(loss, reg);
            }
            loss
        };
        let report = grad_check_owner(model.as_mut(), store_of, skip, EPS, forward);
        assert!(report.checked > 0, "{agg:?}: no parameters were checked");
        assert!(
            report.max_rel_err < TOL,
            "Lasagne-{agg:?} @ {threads} thread(s): max_rel_err {} (max_abs_err {}, {} coords)",
            report.max_rel_err,
            report.max_abs_err,
            report.checked
        );
    }
}

#[test]
fn lasagne_weighted_gradients_match() {
    check_lasagne(AggregatorKind::Weighted, |_| false);
}

#[test]
fn lasagne_stochastic_gradients_match_except_stop_grad_gate() {
    // `agg.p` skipped — see the module docs for why its analytic gradient
    // differs from a central difference by design.
    check_lasagne(AggregatorKind::Stochastic, |name| name == "agg.p");
}

#[test]
fn lasagne_maxpool_gradients_match() {
    check_lasagne(AggregatorKind::MaxPooling, |_| false);
}

#[test]
fn lasagne_mean_gradients_match() {
    check_lasagne(AggregatorKind::Mean, |_| false);
}

#[test]
fn gcfm_layer_gradients_match() {
    // The GC-FM output layer on its own (both `hs` inputs constant, so the
    // whole sweep exercises only GC-FM's pairwise/linear parameters), at
    // both thread counts.
    for &threads in &[1usize, 4] {
        lasagne_par::set_threads(threads);
        let mut rng = TensorRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let gcfm = GcFm::new(&mut store, &[IN_DIM, 4], CLASSES, 2, &mut rng);
        let a_hat = Rc::new(Csr::identity(NODES));
        let h1 = rng.uniform_tensor(NODES, IN_DIM, -1.0, 1.0);
        let h2 = rng.uniform_tensor(NODES, 4, -1.0, 1.0);
        let report = lasagne_autograd::grad_check(&mut store, EPS, |tape, s| {
            let a = tape.constant(h1.clone());
            let b = tape.constant(h2.clone());
            let o = gcfm.forward(tape, s, &a_hat, &[a, b], false);
            let sq = tape.mul(o, o);
            tape.mean_all(sq)
        });
        assert!(report.checked > 0);
        assert!(
            report.max_rel_err < TOL,
            "GC-FM @ {threads} thread(s): max_rel_err {} (max_abs_err {}, {} coords)",
            report.max_rel_err,
            report.max_abs_err,
            report.checked
        );
    }
}
