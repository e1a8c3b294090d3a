//! `train`: full-batch training on Cora-sim at depth 10 (the deepest point of
//! the paper's Fig 7(b)) — Lasagne(Weighted)+GC-FM, then GCN on the same
//! graph. The Lasagne epochs carry both of its costly mechanisms (the
//! O(L²) aggregator SpMMs and GC-FM's classes×layers skinny matmuls); the
//! GCN epochs bypass both.

use std::rc::Rc;
use std::time::Instant;

use lasagne_autograd::{Adam, NodeId, Optimizer, ParamStore, Tape};
use lasagne_core::{AggregatorKind, GcFm, Lasagne, LasagneConfig};
use lasagne_datasets::{Dataset, DatasetId};
use lasagne_gnn::models::Gcn;
use lasagne_gnn::sampling::FullBatch;
use lasagne_gnn::{GraphContext, Hyper, Mode, NodeClassifier};
use lasagne_serve::{freeze, Engine, FrozenModel};
use lasagne_tensor::{Tensor, TensorRng};
use lasagne_train::{evaluate, fit_with_options, FitOptions, FitResult, TrainConfig};

use crate::measure::{median, ms_since, peak_rss_mib, sub_seed, tail, timed, Report, WorkDir};
use crate::{RunConfig, Size};

/// Workload shape at one input scale.
struct Shape {
    depth: usize,
    /// Timed epochs per second of `--seconds`, per model, sized so a run
    /// fills its budget on a 2-core x86 VM (Lasagne ≈ 320 ms, GCN ≈ 64 ms
    /// per epoch at depth 10).
    lasagne_epochs_per_s: f64,
    gcn_epochs_per_s: f64,
    min_epochs: usize,
    /// A collapsed model cannot reach this test accuracy (depth-10 GCN sits
    /// at ≈0.14, Lasagne at ≈0.8).
    accuracy_floor: f64,
    /// Loads of the trained artifact timed per round.
    loads_per_round: usize,
    /// Repetitions of each per-layer probe in the traced run.
    probe_reps: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            depth: 10,
            lasagne_epochs_per_s: 2.5,
            gcn_epochs_per_s: 4.0,
            min_epochs: 12,
            accuracy_floor: 0.6,
            loads_per_round: 3,
            probe_reps: 7,
        },
        Size::Tiny => Shape {
            depth: 4,
            lasagne_epochs_per_s: 4.0,
            gcn_epochs_per_s: 4.0,
            min_epochs: 12,
            accuracy_floor: 0.5,
            loads_per_round: 1,
            probe_reps: 2,
        },
    }
}

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed rounds per run, each: train Lasagne, export and load it, train GCN.
const ROUNDS: usize = 5;
/// Untimed epochs per model inside each setup.
const WARMUP_EPOCHS: usize = 2;

struct Inputs {
    ds: Dataset,
    ctx: GraphContext,
    hyper: Hyper,
    seed: u64,
}

impl Inputs {
    fn generate(seed: u64, depth: usize) -> Inputs {
        let ds = Dataset::generate(DatasetId::Cora, sub_seed(seed, 1));
        let ctx = GraphContext::from_dataset(&ds);
        let hyper = Hyper::for_dataset(DatasetId::Cora).with_depth(depth);
        Inputs {
            ds,
            ctx,
            hyper,
            seed,
        }
    }

    fn lasagne(&self) -> Lasagne {
        let cfg = LasagneConfig::from_hyper(&self.hyper, AggregatorKind::Weighted);
        let ds = &self.ds;
        Lasagne::new(
            ds.num_features(),
            ds.num_classes,
            Some(ds.num_nodes()),
            &cfg,
            sub_seed(self.seed, 2),
        )
    }

    fn gcn(&self) -> Gcn {
        Gcn::new(
            self.ds.num_features(),
            self.ds.num_classes,
            &self.hyper,
            sub_seed(self.seed, 3),
        )
    }

    /// Train `model` for exactly `epochs` epochs (patience above the epoch
    /// count, eval every epoch) and return the result with each epoch's wall
    /// time, taken from timestamps in the epoch callback: step, eval and the
    /// trainer's own bookkeeping.
    fn fit(&self, model: &mut dyn NodeClassifier, epochs: usize) -> (FitResult, Vec<f64>) {
        let cfg = TrainConfig {
            max_epochs: epochs,
            patience: epochs + 1,
            eval_every: 1,
            ..TrainConfig::from_hyper(&self.hyper)
        };
        let mut strategy = FullBatch::from_dataset(&self.ds);
        let mut rng = TensorRng::seed_from_u64(sub_seed(self.seed, 4));
        let mut marks = vec![Instant::now()];
        let mut callback =
            |_: usize, _: &dyn NodeClassifier, _: &GraphContext| marks.push(Instant::now());
        let opts = FitOptions {
            callback: Some(&mut callback),
            ..FitOptions::default()
        };
        let result = fit_with_options(
            model,
            &mut strategy,
            &self.ctx,
            &self.ds.split,
            &cfg,
            &mut rng,
            opts,
        )
        .unwrap_or_else(|e| panic!("training failed: {e}"));
        let epoch_ms = marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect();
        (result, epoch_ms)
    }
}

/// Generation, model construction and warm-up epochs of both models.
fn setup(cfg: &RunConfig, depth: usize) -> Inputs {
    let inputs = Inputs::generate(cfg.seed, depth);
    inputs.fit(&mut inputs.lasagne(), WARMUP_EPOCHS);
    inputs.fit(&mut inputs.gcn(), WARMUP_EPOCHS);
    inputs
}

/// Count epochs and apply the finite-loss gate.
fn check_epochs(report: &mut Report, label: &str, result: &FitResult) {
    let bad = result
        .history
        .iter()
        .filter(|e| !e.loss.is_finite())
        .count();
    report.attempted += result.history.len() as u64;
    report.failed += bad as u64;
    report.gate(
        &format!("{label}_finite_loss"),
        bad == 0 && result.recoveries == 0,
        format!(
            "{} epochs, {bad} non-finite, {} recoveries",
            result.history.len(),
            result.recoveries
        ),
    );
}

pub fn run(cfg: &RunConfig) -> Report {
    let sh = shape(cfg.size);
    let mut report = Report::default();
    let work = WorkDir::create("train");

    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let (i, ms) = timed(|| setup(cfg, sh.depth));
        setups.push(ms / 1e3);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one setup");
    report.metric("setup_s", median(&setups));

    let epochs_of = |rate: f64| ((cfg.seconds * rate / ROUNDS as f64) as usize).max(sh.min_epochs);
    let (lasagne_epochs, gcn_epochs) = (
        epochs_of(sh.lasagne_epochs_per_s),
        epochs_of(sh.gcn_epochs_per_s),
    );
    if cfg.trace {
        run_traced(&inputs, &sh, lasagne_epochs, &mut report);
        return report;
    }

    // Identical rounds (same seeds, so the same trajectories), so that every
    // metric samples the whole run rather than one stretch of it.
    let (mut lasagne_ms, mut gcn_ms, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    let path = work.path("lasagne.frozen.json");
    for round in 0..ROUNDS {
        let mut lasagne = inputs.lasagne();
        let (result, epochs) = inputs.fit(&mut lasagne, lasagne_epochs);
        check_epochs(&mut report, &format!("lasagne_round{round}"), &result);
        report.gate(
            &format!("lasagne_round{round}_accuracy"),
            result.test_acc >= sh.accuracy_floor,
            format!(
                "test accuracy {:.4} after {lasagne_epochs} epochs, floor {}",
                result.test_acc, sh.accuracy_floor
            ),
        );
        lasagne_ms.push(epochs);

        // The trained model's way to serving: export, then time artifact
        // loads (parse + the engine's full-graph evaluation).
        freeze(&lasagne, &inputs.ctx, "cora")
            .and_then(|f| f.save(&path))
            .unwrap_or_else(|e| panic!("export trained model: {e}"));
        let mut engine = None;
        let mut round_loads = Vec::with_capacity(sh.loads_per_round);
        for _ in 0..sh.loads_per_round {
            let (e, ms) = timed(|| FrozenModel::load(&path).and_then(Engine::new));
            round_loads.push(ms);
            engine = Some(e.unwrap_or_else(|e| panic!("load trained artifact: {e}")));
        }
        loads.push(round_loads);
        report.attempted += sh.loads_per_round as u64;
        check_served(
            &mut report,
            &inputs,
            &lasagne,
            &engine.expect("at least one load"),
            round,
        );

        let (gcn_result, epochs) = inputs.fit(&mut inputs.gcn(), gcn_epochs);
        check_epochs(&mut report, &format!("gcn_round{round}"), &gcn_result);
        report.note(format!(
            "round {round}: lasagne epoch p50 {:.3} ms, gcn epoch p50 {:.3} ms, load p50 {:.3} ms; \
             gcn test accuracy {:.4} (depth {} GCN collapses; not gated)",
            median(lasagne_ms.last().expect("this round")),
            median(&epochs),
            median(loads.last().expect("this round")),
            gcn_result.test_acc,
            sh.depth
        ));
        gcn_ms.push(epochs);
    }
    report.metric("peak_rss_mib", peak_rss_mib());
    let (lasagne_ms, gcn_ms, loads) = (lasagne_ms.concat(), gcn_ms.concat(), loads.concat());
    let (q, epoch_tail) = tail(&lasagne_ms, 0.9);
    report.note(format!(
        "{} lasagne epochs, tail read at p{}; {} gcn epochs; {} loads",
        lasagne_ms.len(),
        q * 100.0,
        gcn_ms.len(),
        loads.len()
    ));
    report.metric("op_p50_ms", median(&lasagne_ms));
    report.metric("side_p50_ms", median(&gcn_ms));
    report.metric("tail_ms", epoch_tail);
    report.metric("load_p50_ms", median(&loads));
    report
}

/// The served logits must be the trained model's own eval forward, bit for
/// bit.
fn check_served(
    report: &mut Report,
    inputs: &Inputs,
    model: &Lasagne,
    engine: &Engine,
    round: usize,
) {
    let logits = evaluate(model, &inputs.ctx, &mut TensorRng::seed_from_u64(0));
    let mismatched = (0..inputs.ds.num_nodes())
        .filter(|&v| {
            let served = engine.logits_row(v).expect("node in range");
            served
                .iter()
                .zip(logits.row(v))
                .any(|(a, b)| a.to_bits() != b.to_bits())
        })
        .count();
    report.gate(
        &format!("artifact_round{round}_bitwise"),
        mismatched == 0,
        format!("{mismatched} rows differ from the training forward"),
    );
}

/// One Lasagne training step split at the layer boundaries, in the order the
/// trainer runs them.
struct StepTimes {
    forward_ms: f64,
    backward_ms: f64,
    adam_ms: f64,
    eval_ms: f64,
    tape_ops: usize,
}

fn forward_loss(
    model: &dyn NodeClassifier,
    inputs: &Inputs,
    tape: &mut Tape,
    rng: &mut TensorRng,
) -> (NodeId, Vec<NodeId>) {
    let (out, hs) = model.forward_with_hiddens(tape, &inputs.ctx, Mode::Train, rng);
    let lp = tape.log_softmax(out.logits);
    let labels = Rc::clone(&inputs.ctx.labels);
    let idx = Rc::new(inputs.ds.split.train.clone());
    (tape.nll_masked(lp, labels, idx), hs)
}

fn step_times(
    model: &mut dyn NodeClassifier,
    opt: &mut Adam,
    inputs: &Inputs,
    rng: &mut TensorRng,
) -> (StepTimes, Vec<Tensor>) {
    let mut tape = Tape::new();
    let ((loss, hs), forward_ms) = timed(|| forward_loss(model, inputs, &mut tape, rng));
    let tape_ops = tape.len();
    model.store_mut().zero_grads();
    let ((), backward_ms) = timed(|| tape.backward(loss, model.store_mut()));
    let ((), adam_ms) = timed(|| opt.step(model.store_mut()));
    let (_, eval_ms) = timed(|| evaluate(model, &inputs.ctx, rng));
    // The last hidden node is the logits; GC-FM consumes the rest.
    let hidden = hs[..hs.len() - 1]
        .iter()
        .map(|&h| tape.value(h).clone())
        .collect();
    (
        StepTimes {
            forward_ms,
            backward_ms,
            adam_ms,
            eval_ms,
            tape_ops,
        },
        hidden,
    )
}

/// Forward + backward of a model alone (no optimizer), in milliseconds.
fn forward_backward(
    model: &mut dyn NodeClassifier,
    inputs: &Inputs,
    rng: &mut TensorRng,
) -> (f64, f64) {
    let mut tape = Tape::new();
    let ((loss, _), fwd) = timed(|| forward_loss(model, inputs, &mut tape, rng));
    model.store_mut().zero_grads();
    let ((), bwd) = timed(|| tape.backward(loss, model.store_mut()));
    (fwd, bwd)
}

/// `GcFm::forward` plus backward alone, on the epoch's hidden activations
/// (entered as parameters so their gradients are computed, as inside the
/// model).
fn gcfm_ms(inputs: &Inputs, hidden: &[Tensor]) -> f64 {
    let mut store = ParamStore::new();
    let dims: Vec<usize> = hidden.iter().map(Tensor::cols).collect();
    let mut rng = TensorRng::seed_from_u64(sub_seed(inputs.seed, 5));
    let head = GcFm::new(
        &mut store,
        &dims,
        inputs.ds.num_classes,
        inputs.hyper.gcfm_k,
        &mut rng,
    );
    let ids: Vec<_> = hidden
        .iter()
        .enumerate()
        .map(|(p, h)| store.add(format!("h{p}"), h.clone()))
        .collect();
    let t = Instant::now();
    let mut tape = Tape::new();
    let hs: Vec<NodeId> = ids.iter().map(|&id| tape.param(id, &store)).collect();
    let logits = head.forward(&mut tape, &store, &inputs.ctx.a_hat, &hs, false);
    let lp = tape.log_softmax(logits);
    let loss = tape.nll_masked(
        lp,
        Rc::clone(&inputs.ctx.labels),
        Rc::new(inputs.ds.split.train.clone()),
    );
    store.zero_grads();
    tape.backward(loss, &mut store);
    ms_since(t)
}

/// Matmul and SpMM at the model's own shapes; rates use flops and bytes
/// computed from the shapes, not counted by hardware.
fn kernel_rates(inputs: &Inputs, reps: usize, report: &mut Report) {
    let n = inputs.ds.num_nodes();
    let f = inputs.ds.num_features();
    let h = inputs.hyper.hidden;
    let mut rng = TensorRng::seed_from_u64(sub_seed(inputs.seed, 6));
    let hidden = rng.normal_tensor(n, h, 0.0, 1.0);
    // Input projection, a hidden-to-hidden transform, a GC-FM latent factor.
    let rights = [
        rng.normal_tensor(f, h, 0.0, 0.1),
        rng.normal_tensor(h, h, 0.0, 0.1),
        rng.normal_tensor(h, inputs.hyper.gcfm_k, 0.0, 0.1),
    ];
    let lefts = [&*inputs.ctx.features, &hidden, &hidden];
    let flops: f64 = lefts
        .iter()
        .zip(&rights)
        .map(|(a, b)| 2.0 * (a.rows() * a.cols() * b.cols()) as f64)
        .sum();
    let mm: Vec<f64> = (0..reps)
        .map(|_| {
            timed(|| {
                lefts
                    .iter()
                    .zip(&rights)
                    .for_each(|(a, b)| drop(std::hint::black_box(a.matmul(b))))
            })
            .1
        })
        .collect();
    report.metric("tensor.matmul_gflops", flops / (median(&mm) / 1e3) / 1e9);

    let a = &inputs.ctx.a_hat;
    let nnz = a.nnz() as f64;
    let bytes = nnz * 8.0 + (n as f64 + 1.0) * 8.0 + nnz * h as f64 * 4.0 + (n * h) as f64 * 4.0;
    let sp: Vec<f64> = (0..reps)
        .map(|_| timed(|| std::hint::black_box(a.spmm(&hidden))).1)
        .collect();
    report.metric("sparse.spmm_gbs", bytes / (median(&sp) / 1e3) / 1e9);
    report.note(format!(
        "kernel rates: {flops:.0} flops and {bytes:.0} bytes per call set, computed from shapes"
    ));
}

fn run_traced(inputs: &Inputs, sh: &Shape, lasagne_epochs: usize, report: &mut Report) {
    // Untraced reference pass, then the same pass under lasagne-obs tracing;
    // the difference is the tracing overhead.
    // The untraced pass trains as many epochs as the untraced run's rounds
    // together, so its epoch tail is read at the same percentile.
    let mut model = inputs.lasagne();
    let (result, epochs) = inputs.fit(&mut model, lasagne_epochs * ROUNDS);
    check_epochs(report, "lasagne", &result);
    report.gate(
        "lasagne_accuracy",
        result.test_acc >= sh.accuracy_floor,
        format!(
            "test accuracy {:.4}, floor {}",
            result.test_acc, sh.accuracy_floor
        ),
    );
    let sink = lasagne_obs::TraceSink::start(false);
    let (traced_result, traced_epochs) = inputs.fit(&mut inputs.lasagne(), lasagne_epochs);
    let trace = sink.finish();
    check_epochs(report, "lasagne_traced", &traced_result);
    let (untraced, traced) = (median(&epochs), median(&traced_epochs));
    report.metric("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
    report.note(format!(
        "epoch p50 untraced {untraced:.3} ms, traced {traced:.3} ms; obs spans recorded: {}",
        trace.spans.len()
    ));
    report.metric("train.epoch_tail_ms", tail(&epochs, 0.9).1);

    // Layer probes on the trained model, continuing its training.
    let mut rng = TensorRng::seed_from_u64(sub_seed(inputs.seed, 7));
    let mut opt = Adam::new(model.store(), inputs.hyper.lr, inputs.hyper.weight_decay);
    let mut steps = Vec::new();
    let mut gcfm = Vec::new();
    for _ in 0..sh.probe_reps {
        let (t, hidden) = step_times(&mut model, &mut opt, inputs, &mut rng);
        gcfm.push(gcfm_ms(inputs, &hidden));
        steps.push(t);
    }
    let pick = |f: fn(&StepTimes) -> f64| median(&steps.iter().map(f).collect::<Vec<_>>());
    let (fwd, bwd, adam, eval) = (
        pick(|s| s.forward_ms),
        pick(|s| s.backward_ms),
        pick(|s| s.adam_ms),
        pick(|s| s.eval_ms),
    );
    report.metric("core.forward_ms", fwd);
    report.metric("autograd.backward_ms", bwd);
    report.metric("autograd.adam_ms", adam);
    report.metric("train.eval_ms", eval);
    report.metric("train.bookkeeping_ms", untraced - (fwd + bwd + adam + eval));
    report.metric("autograd.tape_ops", steps[0].tape_ops as f64);
    report.metric("core.gcfm_ms", median(&gcfm));

    let mut gcn = inputs.gcn();
    let base: Vec<(f64, f64)> = (0..sh.probe_reps)
        .map(|_| forward_backward(&mut gcn, inputs, &mut rng))
        .collect();
    let (gfwd, gbwd) = (
        median(&base.iter().map(|b| b.0).collect::<Vec<_>>()),
        median(&base.iter().map(|b| b.1).collect::<Vec<_>>()),
    );
    report.metric("gnn.baseline_forward_ms", gfwd);
    report.metric("gnn.baseline_backward_ms", gbwd);
    report.metric(
        "core.aggregate_ms",
        (fwd + bwd) - median(&gcfm) - (gfwd + gbwd),
    );

    kernel_rates(inputs, sh.probe_reps, report);

    // Lasagne forward+backward at one thread over the same at the default
    // pool size.
    let pool = lasagne_par::current_threads();
    let mut fb = |model: &mut Lasagne| -> f64 {
        let times: Vec<f64> = (0..sh.probe_reps.min(3))
            .map(|_| {
                let (f, b) = forward_backward(model, inputs, &mut rng);
                f + b
            })
            .collect();
        median(&times)
    };
    lasagne_par::set_threads(1);
    let serial = fb(&mut model);
    lasagne_par::set_threads(pool);
    let parallel = fb(&mut model);
    report.metric("par.speedup", serial / parallel);
    report.note(format!(
        "par.speedup = {serial:.3} ms at 1 thread / {parallel:.3} ms at {pool} threads"
    ));
}
