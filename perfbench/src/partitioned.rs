//! `partitioned`: a seeded degree-corrected SBM graph (≈30k nodes, mean
//! degree 6, generated as `scale-bench` does) under Lasagne(Max-Pooling)+
//! GC-FM at depth 3 — the paper's aggregator for large and inductive graphs.
//! A separate process exports the model, so the generator's memory stays out
//! of the measured process. The benchmark loads the artifact with
//! `LazyEngine` at a fixed partition count and queries nodes in a seeded
//! order until every partition is materialized. This is the only path
//! through `graph::partition`, `autograd::peval` and `serve::lazy`.
//!
//! Every materialized row is checked bitwise against a resident evaluation
//! of the same artifact, made in a third process.

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use lasagne_autograd::RowPlan;
use lasagne_core::{AggregatorKind, Lasagne, LasagneConfig};
use lasagne_gnn::{GraphContext, Hyper};
use lasagne_graph::generators::{dc_sbm, DcSbmConfig};
use lasagne_graph::{Graph, Partitioning};
use lasagne_serve::{freeze, Engine, FrozenModel, LazyEngine};
use lasagne_tensor::{Tensor, TensorRng};
use lasagne_testkit::{Json, Rng};

use crate::measure::{median, ms_since, peak_rss_mib, sub_seed, tail, timed, Report, WorkDir};
use crate::{RunConfig, Size};

const DEPTH: usize = 3;
const IN_DIM: usize = 16;
const CLASSES: usize = 8;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed artifact loads per sweep; the sweep runs on the last one. A run
/// fits only a handful of sweeps, too few loads for a steady median.
const LOADS_PER_SWEEP: usize = 3;

struct Shape {
    nodes: usize,
    parts: usize,
    /// Sweeps every run makes, so the fault tail has ten samples beyond it.
    min_sweeps: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            nodes: 30_000,
            parts: 32,
            min_sweeps: 4,
        },
        Size::Tiny => Shape {
            nodes: 3_000,
            parts: 8,
            min_sweeps: 2,
        },
    }
}

fn size_flag(size: Size) -> &'static str {
    match size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    }
}

/// Child role: generate the graph and model from the seed, freeze, save.
pub fn export_child(cfg: &RunConfig, out: &str) -> ExitCode {
    let sh = shape(cfg.size);
    let t = Instant::now();
    let mut rng = TensorRng::seed_from_u64(sub_seed(cfg.seed, 1));
    let (graph, labels) = dc_sbm(
        &DcSbmConfig {
            nodes: sh.nodes,
            classes: CLASSES,
            avg_degree: 6.0,
            homophily: 0.8,
            power_exponent: 2.5,
            max_weight_ratio: 10.0,
        },
        &mut rng,
    );
    let features =
        TensorRng::seed_from_u64(sub_seed(cfg.seed, 2)).normal_tensor(sh.nodes, IN_DIM, 0.0, 1.0);
    let edges = graph.num_edges();
    let ctx = GraphContext::new(&graph, features, labels, CLASSES);
    let hyper = Hyper::default().with_depth(DEPTH);
    let model_cfg = LasagneConfig::from_hyper(&hyper, AggregatorKind::MaxPooling);
    let model = Lasagne::new(IN_DIM, CLASSES, None, &model_cfg, sub_seed(cfg.seed, 3));
    match freeze(&model, &ctx, "dc-sbm").and_then(|f| f.save(Path::new(out))) {
        Ok(()) => {
            println!(
                "{{\"nodes\": {}, \"edges\": {edges}, \"export_ms\": {}}}",
                sh.nodes,
                ms_since(t)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench export: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Child role: resident evaluation of the artifact, compared bitwise with
/// the lazily materialized rows (little-endian f32 logits in node order).
pub fn resident_child(artifact: &str, rows: &str) -> ExitCode {
    let engine = FrozenModel::load(Path::new(artifact)).and_then(|m| {
        let (engine, ms) = timed(|| Engine::new(m));
        engine.map(|e| (e, ms))
    });
    let (engine, evaluate_ms) = match engine {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench resident: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bytes = std::fs::read(rows).unwrap_or_default();
    let classes = engine.num_classes();
    let got_rows = bytes.len() / (4 * classes);
    let mismatched = (0..engine.num_nodes())
        .filter(|&v| {
            let want = engine.logits_row(v).expect("node in range");
            let got = bytes.get(v * 4 * classes..(v + 1) * 4 * classes);
            got.is_none_or(|got| {
                got.chunks_exact(4)
                    .zip(want)
                    .any(|(b, w)| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) != w.to_bits())
            })
        })
        .count();
    println!(
        "{{\"rows\": {got_rows}, \"nodes\": {}, \"mismatched\": {mismatched}, \"evaluate_ms\": {evaluate_ms}, \
         \"peak_rss_mib\": {}}}",
        engine.num_nodes(),
        peak_rss_mib()
    );
    ExitCode::SUCCESS
}

/// Run this executable in a child role and parse the JSON line it prints.
fn child(args: &[&str]) -> Json {
    let exe = std::env::current_exe().expect("current executable");
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {args:?}: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        panic!(
            "child {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let line = stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("child {args:?} printed nothing"));
    Json::parse(line).unwrap_or_else(|e| panic!("child {args:?} output: {e}"))
}

fn num(doc: &Json, field: &str) -> f64 {
    doc.get(field)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("child output lacks {field}"))
}

/// The export child, then parse, lazy load and one warm-up fault.
fn setup(cfg: &RunConfig, sh: &Shape, path: &Path) -> FrozenModel {
    let seed = cfg.seed.to_string();
    let out = path.to_str().expect("utf-8 work path");
    child(&[
        "--role",
        "export",
        "--seed",
        &seed,
        "--size",
        size_flag(cfg.size),
        "--out",
        out,
    ]);
    let parsed = FrozenModel::load(path).unwrap_or_else(|e| panic!("parse artifact: {e}"));
    let engine =
        LazyEngine::new(parsed.clone(), sh.parts).unwrap_or_else(|e| panic!("lazy load: {e}"));
    engine
        .predict(0)
        .unwrap_or_else(|e| panic!("warm-up query: {e}"));
    parsed
}

/// One sweep: a fresh lazy engine queried in a seeded node order until
/// every partition is materialized.
struct Sweep {
    loads_ms: Vec<f64>,
    faults_ms: Vec<f64>,
    hits_ms: Vec<f64>,
    nodes_per_s: f64,
    failed: u64,
    /// Checksum of every node's logits once all partitions are in.
    digest: u64,
}

fn sweep(path: &Path, parts: usize, seed: u64) -> (Sweep, LazyEngine) {
    let mut loads_ms = Vec::with_capacity(LOADS_PER_SWEEP);
    let mut engine = None;
    for _ in 0..LOADS_PER_SWEEP {
        drop(engine.take());
        let (e, ms) = timed(|| FrozenModel::load(path).and_then(|m| LazyEngine::new(m, parts)));
        loads_ms.push(ms);
        engine = Some(e.unwrap_or_else(|e| panic!("lazy load: {e}")));
    }
    let engine = engine.expect("at least one load");
    let n = engine.num_nodes();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::seed_from_u64(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.index(i + 1));
    }
    let (mut faults_ms, mut hits_ms, mut failed) = (Vec::new(), Vec::new(), 0);
    let mut cached = engine.cached_parts();
    let start = Instant::now();
    for &node in &order {
        let t = Instant::now();
        let ok = engine.predict(node).is_ok();
        let ms = ms_since(t);
        failed += u64::from(!ok);
        let now = engine.cached_parts();
        if now > cached {
            faults_ms.push(ms);
        } else {
            hits_ms.push(ms);
        }
        cached = now;
        if cached == engine.num_parts() {
            break;
        }
    }
    let nodes_per_s = n as f64 / start.elapsed().as_secs_f64();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for v in 0..n {
        for x in engine.logits_row(v).expect("materialized row") {
            digest = (digest ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (
        Sweep {
            loads_ms,
            faults_ms,
            hits_ms,
            nodes_per_s,
            failed,
            digest,
        },
        engine,
    )
}

/// Sweeps until `budget` has passed and at least `min` ran, with the last
/// sweep's engine. One engine is alive at a time, so peak RSS does not grow
/// with the number of sweeps a run fits.
fn sweeps(
    path: &Path,
    sh: &Shape,
    seed: u64,
    first: u64,
    budget: Duration,
    min: usize,
) -> (Vec<Sweep>, LazyEngine) {
    let start = Instant::now();
    let (mut out, mut last) = (Vec::new(), None);
    while out.len() < min || start.elapsed() < budget {
        drop(last.take());
        let (s, engine) = sweep(
            path,
            sh.parts,
            sub_seed(seed, 100 + first + out.len() as u64),
        );
        out.push(s);
        last = Some(engine);
    }
    (out, last.expect("at least one sweep"))
}

struct SweepStats {
    faults_ms: Vec<Vec<f64>>,
    hits_ms: Vec<Vec<f64>>,
    loads_ms: Vec<Vec<f64>>,
    nodes_per_s: Vec<f64>,
}

/// Count ops, check that every sweep saw the same logits, and gather the
/// samples, one inner vector per sweep.
fn account(report: &mut Report, all: &[Sweep], label: &str) -> SweepStats {
    let mut s = SweepStats {
        faults_ms: vec![],
        hits_ms: vec![],
        loads_ms: vec![],
        nodes_per_s: vec![],
    };
    for w in all {
        report.attempted += (w.faults_ms.len() + w.hits_ms.len()) as u64;
        report.failed += w.failed;
        s.faults_ms.push(w.faults_ms.clone());
        s.hits_ms.push(w.hits_ms.clone());
        s.loads_ms.push(w.loads_ms.clone());
        s.nodes_per_s.push(w.nodes_per_s);
    }
    let agree = all.windows(2).all(|p| p[0].digest == p[1].digest);
    report.gate(
        &format!("{label}_sweeps_agree"),
        agree,
        format!(
            "{} sweeps, logits checksum {:016x}",
            all.len(),
            all[0].digest
        ),
    );
    s
}

/// Dump the sweep's rows and have a resident evaluation in another process
/// compare them bit for bit.
fn check_resident(report: &mut Report, work: &WorkDir, path: &Path, engine: &LazyEngine) -> Json {
    let rows = work.path("rows.bin");
    let mut bytes = Vec::with_capacity(engine.num_nodes() * engine.num_classes() * 4);
    for v in 0..engine.num_nodes() {
        for x in engine.logits_row(v).expect("materialized row") {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    std::fs::write(&rows, bytes).unwrap_or_else(|e| panic!("write {}: {e}", rows.display()));
    let doc = child(&[
        "--role",
        "resident",
        "--artifact",
        path.to_str().expect("utf-8 work path"),
        "--rows",
        rows.to_str().expect("utf-8 work path"),
    ]);
    let (mismatched, rows_seen, nodes) = (
        num(&doc, "mismatched"),
        num(&doc, "rows"),
        num(&doc, "nodes"),
    );
    report.gate(
        "lazy_equals_resident",
        mismatched == 0.0 && rows_seen == nodes,
        format!("{rows_seen} rows compared in a separate process, {mismatched} differ"),
    );
    doc
}

pub fn run(cfg: &RunConfig) -> Report {
    let sh = shape(cfg.size);
    let mut report = Report::default();
    let work = WorkDir::create("partitioned");
    let path = work.path("model.frozen.json");

    let mut setups = Vec::with_capacity(SETUPS);
    let mut parsed = None;
    for _ in 0..SETUPS {
        let (p, ms) = timed(|| setup(cfg, &sh, &path));
        setups.push(ms / 1e3);
        parsed = Some(p);
    }
    let parsed = parsed.expect("at least one setup");
    report.metric("setup_s", median(&setups));
    let budget = Duration::from_secs_f64(cfg.seconds);

    if cfg.trace {
        run_traced(cfg, &sh, &work, &path, parsed, budget, &mut report);
        return report;
    }
    drop(parsed);
    let (all, last) = sweeps(&path, &sh, cfg.seed, 0, budget, sh.min_sweeps);
    report.metric("peak_rss_mib", peak_rss_mib());
    let s = account(&mut report, &all, "lazy");
    let (faults, hits) = (s.faults_ms.concat(), s.hits_ms.concat());
    let (q, fault_tail) = tail(&faults, 0.9);
    report.metric("op_p50_ms", median(&faults));
    report.metric("tail_ms", fault_tail);
    report.metric("side_p50_ms", median(&hits));
    report.metric("load_p50_ms", median(&s.loads_ms.concat()));
    report.note(format!(
        "{} sweeps over {} parts: {} faults p50 {:.3} ms p{} {fault_tail:.3} ms; \
         {} hits p50 {:.6} ms; sweep {:.0} nodes/s",
        all.len(),
        sh.parts,
        faults.len(),
        median(&faults),
        q * 100.0,
        hits.len(),
        median(&hits),
        median(&s.nodes_per_s)
    ));
    check_resident(&mut report, &work, &path, &last);
    report
}

/// Rebuild the artifact's graph from its raw adjacency (upper triangle).
fn artifact_graph(model: &FrozenModel) -> Graph {
    let adj = &model
        .graph
        .as_ref()
        .expect("artifact carries its graph")
        .adjacency;
    let n = adj.rows();
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| {
            adj.row_indices(u)
                .iter()
                .filter(move |&&v| v as usize > u)
                .map(move |&v| (u as u32, v))
        })
        .collect();
    Graph::from_edges(n, &edges)
}

/// Rows a partition's evaluation must touch: its core grown by one hop per
/// SpMM on the model's longest path (`DEPTH`), over the core size.
fn halo_ratio(g: &Graph, core: &[usize]) -> f64 {
    let mut seen = vec![false; g.num_nodes()];
    let mut frontier: Vec<usize> = core.to_vec();
    for &v in core {
        seen[v] = true;
    }
    let mut total = core.len();
    for _ in 0..DEPTH {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in g.neighbors(v) {
                if !std::mem::replace(&mut seen[u as usize], true) {
                    next.push(u as usize);
                }
            }
        }
        total += next.len();
        frontier = next;
    }
    total as f64 / core.len() as f64
}

fn run_traced(
    cfg: &RunConfig,
    sh: &Shape,
    work: &WorkDir,
    path: &Path,
    parsed: FrozenModel,
    budget: Duration,
    report: &mut Report,
) {
    // Sweeps untraced, then under lasagne-obs tracing; the fault p50
    // difference is the tracing overhead.
    let half = budget / 2;
    let min = sh.min_sweeps.div_ceil(2);
    let (plain, last) = sweeps(path, sh, cfg.seed, 0, half, min);
    let sink = lasagne_obs::TraceSink::start(false);
    let (traced, _) = sweeps(path, sh, cfg.seed, plain.len() as u64, half, min);
    let trace = sink.finish();
    let p = account(report, &plain, "untraced");
    let t = account(report, &traced, "traced");
    let (fault, traced_fault) = (median(&p.faults_ms.concat()), median(&t.faults_ms.concat()));
    report.metric("trace.overhead_pct", 100.0 * (traced_fault - fault) / fault);
    report.note(format!(
        "fault p50 untraced {fault:.3} ms, traced {traced_fault:.3} ms; obs spans recorded: {}",
        trace.spans.len()
    ));
    let resident = check_resident(report, work, path, &last);
    report.metric("serve.resident_evaluate_ms", num(&resident, "evaluate_ms"));
    report.metric(
        "serve.resident_peak_rss_mib",
        num(&resident, "peak_rss_mib"),
    );
    drop(last);

    let reps = 3;
    let parse_ms: Vec<f64> = (0..reps)
        .map(|_| timed(|| FrozenModel::load(path).expect("parse")).1)
        .collect();
    report.metric("serve.parse_ms", median(&parse_ms));
    let lazy_ms: Vec<f64> = (0..reps)
        .map(|_| {
            let m = parsed.clone();
            timed(|| LazyEngine::new(m, sh.parts).expect("lazy load")).1
        })
        .collect();
    report.metric("serve.lazy_load_ms", median(&lazy_ms));

    let graph = artifact_graph(&parsed);
    // The layout `LazyEngine` uses: BFS partitioning seeded with 0.
    let (partitioning, ms) =
        timed(|| Partitioning::new(&graph, sh.parts, &mut TensorRng::seed_from_u64(0)));
    let partitioning = partitioning.expect("partition the artifact graph");
    let partition_ms: Vec<f64> = std::iter::once(ms)
        .chain((1..reps).map(|_| {
            timed(|| Partitioning::new(&graph, sh.parts, &mut TensorRng::seed_from_u64(0))).1
        }))
        .collect();
    report.metric("graph.partition_ms", median(&partition_ms));
    let cores: Vec<&[usize]> = partitioning
        .parts()
        .iter()
        .map(|b| b.core.as_slice())
        .collect();
    let ratios: Vec<f64> = cores.iter().map(|c| halo_ratio(&graph, c)).collect();
    report.metric("graph.halo_ratio", median(&ratios));

    let weights: Vec<(String, Tensor)> = parsed
        .weights
        .iter()
        .map(|(n, w)| (n.clone(), w.to_tensor()))
        .collect();
    let sparse: Vec<_> = parsed.program.sparse.iter().map(|m| &**m).collect();
    let plan_of = || {
        RowPlan::from_parts(
            &parsed.program.ops,
            sparse.clone(),
            &weights,
            parsed.program.output,
        )
    };
    let plan_ms: Vec<f64> = (0..reps)
        .map(|_| timed(|| plan_of().expect("plan")).1)
        .collect();
    report.metric("autograd.plan_ms", median(&plan_ms));
    let plan = plan_of().expect("plan");
    // Two rounds over the partition cores, so the tail has samples beyond it.
    let eval_ms: Vec<f64> = (0..2)
        .flat_map(|_| {
            cores
                .iter()
                .map(|c| timed(|| plan.eval_rows(c).expect("eval rows")).1)
                .collect::<Vec<_>>()
        })
        .collect();
    let (q, eval_tail) = tail(&eval_ms, 0.9);
    report.metric("autograd.eval_rows_p50_ms", median(&eval_ms));
    report.metric("autograd.eval_rows_tail_ms", eval_tail);
    report.note(format!(
        "eval_rows over {} cores × 2: tail read at p{}",
        cores.len(),
        q * 100.0
    ));
}
