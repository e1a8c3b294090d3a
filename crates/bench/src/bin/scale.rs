//! Out-of-core scaling bench (DESIGN.md §14): peak RSS and nodes/sec of
//! resident full-graph evaluation vs. partitioned row-demand evaluation,
//! across degree-corrected SBM graphs up to a million nodes.
//!
//! Each (size, mode) cell runs in its **own child process** — peak RSS is
//! read from `VmHWM` in `/proc/self/status`, a process-lifetime high-water
//! mark, so resident and partitioned must not share an address space. The
//! child regenerates the same seeded dc-SBM graph and two-layer GCN-shaped
//! program, then either
//!
//! * **resident**: evaluates the whole program at once through
//!   [`lasagne_serve::evaluate_program`] — every intermediate is a full
//!   `N×H` tensor, the O(graph) memory profile every pre-partitioning code
//!   path has; or
//! * **partitioned**: plans once with [`lasagne_autograd::RowPlan`] and
//!   sweeps the node set in `PARTS` contiguous partitions through one
//!   [`lasagne_autograd::RowCache`], as `LazyEngine` does — each row of an
//!   SpMM operand is computed once, so peak memory is `N ×` the SpMM
//!   operands' widths plus one partition's working set, and the logits come
//!   out bitwise identical (pinned by the partition-equivalence suites, not
//!   re-proven here).
//!
//! The orchestrator records both cells per size into `BENCH_scale.json` and
//! **fails** (exit 1) if partitioned peak RSS is not strictly below resident
//! peak RSS on the largest size — the regression guard verify.sh leans on.
//!
//! ```sh
//! cargo run --release --bin scale-bench -- --smoke   # CI guard, small sizes
//! cargo run --release --bin scale-bench              # full sweep to 1M nodes
//! ```

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use lasagne_autograd::{ProgramOp, RowCache, RowPlan};
use lasagne_bench::fail;
use lasagne_graph::generators::{dc_sbm, DcSbmConfig};
use lasagne_sparse::Csr;
use lasagne_tensor::{Tensor, TensorRng};
use lasagne_testkit::Json;

/// Feature width of the synthetic input.
const IN_DIM: usize = 16;
/// Hidden width — sized so resident intermediates dominate the footprint.
const HIDDEN: usize = 64;
/// Output classes.
const CLASSES: usize = 8;
/// Partition count for the partitioned sweep.
const PARTS: usize = 32;
/// Average degree of the generated dc-SBM graphs (1M nodes → 3M edges).
const AVG_DEGREE: f64 = 6.0;
/// One seed for everything: both children regenerate identical inputs.
const SEED: u64 = 42;

struct Args {
    smoke: bool,
    out: PathBuf,
    /// `Some((mode, nodes))` when running as a measurement child.
    child: Option<(String, usize)>,
}

fn usage() -> ! {
    eprintln!("usage: scale-bench [--smoke] [--out PATH]");
    eprintln!("       scale-bench --child resident|partitioned --nodes N");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args =
        Args { smoke: false, out: PathBuf::from("BENCH_scale.json"), child: None };
    let (mut child_mode, mut child_nodes) = (None::<String>, None::<usize>);
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => {
                args.smoke = true;
                i += 1;
            }
            flag @ ("--out" | "--child" | "--nodes") => {
                let value = argv.get(i + 1).unwrap_or_else(|| {
                    eprintln!("{flag}: missing value");
                    usage()
                });
                match flag {
                    "--out" => args.out = value.into(),
                    "--child" => child_mode = Some(value.clone()),
                    _ => child_nodes = Some(value.parse().unwrap_or_else(|_| usage())),
                }
                i += 2;
            }
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    match (child_mode, child_nodes) {
        (Some(mode), Some(nodes)) => args.child = Some((mode, nodes)),
        (None, None) => {}
        _ => usage(),
    }
    args
}

/// Process-lifetime peak resident set, from `VmHWM` in `/proc/self/status`
/// (kiB → bytes). Linux-only by construction; the bench is too.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .unwrap_or_else(|e| fail(&format!("read /proc/self/status: {e}")));
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| fail("unparseable VmHWM line"));
            return kib * 1024;
        }
    }
    fail("no VmHWM in /proc/self/status")
}

/// The shared workload: a seeded dc-SBM graph, random features, and a
/// hand-assembled two-layer GCN program (`Â·relu(Â·X·W₁+b₁)·W₂+b₂`). Both
/// children build exactly this; only the evaluation strategy differs.
struct Workload {
    nodes: usize,
    edges: usize,
    ahat: Csr,
    ops: Vec<ProgramOp>,
    weights: Vec<(String, Tensor)>,
    output: usize,
    build_seconds: f64,
}

fn build_workload(nodes: usize) -> Workload {
    let build = Instant::now();
    let mut rng = TensorRng::seed_from_u64(SEED);
    let (graph, _labels) = dc_sbm(
        &DcSbmConfig {
            nodes,
            classes: CLASSES,
            avg_degree: AVG_DEGREE,
            homophily: 0.8,
            power_exponent: 2.5,
            max_weight_ratio: 10.0,
        },
        &mut rng,
    );
    let edges = graph.num_edges();
    let ahat = graph.normalized_adjacency();
    drop(graph); // the raw adjacency is not part of either memory profile
    let x = rng.normal_tensor(nodes, IN_DIM, 0.0, 1.0);
    let weights = vec![
        ("w1".to_string(), rng.normal_tensor(IN_DIM, HIDDEN, 0.0, 0.1)),
        ("b1".to_string(), rng.normal_tensor(1, HIDDEN, 0.0, 0.1)),
        ("w2".to_string(), rng.normal_tensor(HIDDEN, CLASSES, 0.0, 0.1)),
        ("b2".to_string(), rng.normal_tensor(1, CLASSES, 0.0, 0.1)),
    ];
    let ops = vec![
        ProgramOp::Constant { value: x },              // 0: X
        ProgramOp::Param { name: "w1".into() },        // 1
        ProgramOp::MatMul { a: 0, b: 1 },              // 2: X·W₁
        ProgramOp::SpMM { m: 0, x: 2 },                // 3: Â·(X·W₁)
        ProgramOp::Param { name: "b1".into() },        // 4
        ProgramOp::AddRowBroadcast { x: 3, b: 4 },     // 5
        ProgramOp::Relu { x: 5 },                      // 6
        ProgramOp::Param { name: "w2".into() },        // 7
        ProgramOp::MatMul { a: 6, b: 7 },              // 8
        ProgramOp::SpMM { m: 0, x: 8 },                // 9
        ProgramOp::Param { name: "b2".into() },        // 10
        ProgramOp::AddRowBroadcast { x: 9, b: 10 },    // 11: logits
    ];
    Workload {
        nodes,
        edges,
        ahat,
        ops,
        weights,
        output: 11,
        build_seconds: build.elapsed().as_secs_f64(),
    }
}

/// Resident cell: whole-program evaluation, every intermediate N rows tall.
fn run_resident(w: &Workload) -> (f64, f32) {
    let program = lasagne_autograd::Program {
        ops: w.ops.clone(),
        sparse: vec![std::rc::Rc::new(w.ahat.clone())],
        output: w.output,
    };
    let eval = Instant::now();
    let logits = lasagne_serve::evaluate_program(&program, &w.weights)
        .unwrap_or_else(|e| fail(&format!("resident evaluation: {e}")));
    let seconds = eval.elapsed().as_secs_f64();
    assert_eq!(logits.shape(), (w.nodes, CLASSES), "resident output shape");
    (seconds, logits.get(w.nodes - 1, 0))
}

/// Partitioned cell: one row-demand plan, swept in PARTS contiguous blocks
/// through one row cache.
fn run_partitioned(w: &Workload) -> (f64, f32) {
    let plan = RowPlan::from_parts(&w.ops, vec![&w.ahat], &w.weights, w.output)
        .unwrap_or_else(|e| fail(&format!("partitioned plan: {e}")));
    let cap = w.nodes.div_ceil(PARTS);
    let mut cache = RowCache::new();
    let eval = Instant::now();
    let mut rows_done = 0usize;
    let mut last = 0.0f32;
    for part in 0..PARTS {
        let lo = part * cap;
        let hi = ((part + 1) * cap).min(w.nodes);
        if lo >= hi {
            continue;
        }
        let rows: Vec<usize> = (lo..hi).collect();
        let block = plan
            .eval_rows_cached(&rows, &mut cache)
            .unwrap_or_else(|e| fail(&format!("partition {part} evaluation: {e}")));
        assert_eq!(block.shape(), (rows.len(), CLASSES), "partition output shape");
        rows_done += rows.len();
        last = block.get(rows.len() - 1, 0);
    }
    let seconds = eval.elapsed().as_secs_f64();
    assert_eq!(rows_done, w.nodes, "partitioned sweep must cover every node");
    (seconds, last)
}

/// Measurement child: build the workload, evaluate in one mode, print a
/// single JSON line with timings and the process peak RSS.
fn run_child(mode: &str, nodes: usize) {
    lasagne_par::set_threads(1);
    let w = build_workload(nodes);
    let (eval_seconds, witness) = match mode {
        "resident" => run_resident(&w),
        "partitioned" => run_partitioned(&w),
        other => fail(&format!("unknown child mode '{other}'")),
    };
    let doc = Json::Obj(vec![
        ("mode".into(), Json::Str(mode.into())),
        ("nodes".into(), Json::Num(w.nodes as f64)),
        ("edges".into(), Json::Num(w.edges as f64)),
        ("build_seconds".into(), Json::Num(w.build_seconds)),
        ("eval_seconds".into(), Json::Num(eval_seconds)),
        ("nodes_per_sec".into(), Json::Num(w.nodes as f64 / eval_seconds.max(1e-9))),
        ("peak_rss_bytes".into(), Json::Num(peak_rss_bytes() as f64)),
        // A logits witness: both modes print the same bits (belt on top of
        // the equivalence suites' suspenders).
        ("logit_witness_bits".into(), Json::Num(f64::from(witness.to_bits()))),
    ]);
    println!("{doc}");
}

/// Spawn one measurement child and parse its JSON report.
fn measure(mode: &str, nodes: usize) -> Json {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let out = Command::new(exe)
        .args(["--child", mode, "--nodes", &nodes.to_string()])
        .output()
        .unwrap_or_else(|e| fail(&format!("spawn {mode} child: {e}")));
    if !out.status.success() {
        fail(&format!(
            "{mode} child for {nodes} nodes failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_else(|| fail("child printed nothing"));
    Json::parse(line).unwrap_or_else(|e| fail(&format!("child report parse: {e}")))
}

fn num(doc: &Json, field: &str) -> f64 {
    doc.get(field)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail(&format!("child report missing '{field}'")))
}

fn run_orchestrator(args: &Args) {
    let sizes: &[usize] =
        if args.smoke { &[5_000, 30_000] } else { &[100_000, 300_000, 1_000_000] };
    let mut rows = Vec::new();
    let mut guard: Option<(usize, u64, u64)> = None;
    for &nodes in sizes {
        let resident = measure("resident", nodes);
        let partitioned = measure("partitioned", nodes);
        let res_rss = num(&resident, "peak_rss_bytes") as u64;
        let part_rss = num(&partitioned, "peak_rss_bytes") as u64;
        if num(&resident, "logit_witness_bits") != num(&partitioned, "logit_witness_bits") {
            fail(&format!("{nodes} nodes: resident and partitioned logits disagree"));
        }
        println!(
            "nodes={nodes:>9}  edges={:>9}  resident: {:>9.0} n/s, peak {:>7.1} MiB  \
             partitioned: {:>9.0} n/s, peak {:>7.1} MiB  (ratio {:.2}x)",
            num(&resident, "edges"),
            num(&resident, "nodes_per_sec"),
            res_rss as f64 / (1 << 20) as f64,
            num(&partitioned, "nodes_per_sec"),
            part_rss as f64 / (1 << 20) as f64,
            res_rss as f64 / part_rss.max(1) as f64,
        );
        rows.push(Json::Obj(vec![
            ("nodes".into(), Json::Num(nodes as f64)),
            ("edges".into(), Json::Num(num(&resident, "edges"))),
            ("resident".into(), resident),
            ("partitioned".into(), partitioned),
        ]));
        guard = Some((nodes, res_rss, part_rss));
    }
    // The regression guard: on the largest size both modes ran, partitioned
    // peak RSS must be strictly below resident peak RSS.
    let (guard_nodes, res_rss, part_rss) = guard.unwrap_or_else(|| fail("no sizes ran"));
    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("scale".into())),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("parts".into(), Json::Num(PARTS as f64)),
        ("hidden".into(), Json::Num(HIDDEN as f64)),
        ("sizes".into(), Json::Arr(rows)),
        (
            "rss_guard".into(),
            Json::Obj(vec![
                ("nodes".into(), Json::Num(guard_nodes as f64)),
                ("resident_peak_rss_bytes".into(), Json::Num(res_rss as f64)),
                ("partitioned_peak_rss_bytes".into(), Json::Num(part_rss as f64)),
                ("partitioned_below_resident".into(), Json::Bool(part_rss < res_rss)),
            ]),
        ),
    ]);
    std::fs::write(&args.out, format!("{doc}\n"))
        .unwrap_or_else(|e| fail(&format!("write {}: {e}", args.out.display())));
    println!("wrote {}", args.out.display());
    if part_rss >= res_rss {
        fail(&format!(
            "peak-RSS guard violated at {guard_nodes} nodes: partitioned {part_rss} B \
             is not below resident {res_rss} B"
        ));
    }
    println!(
        "rss guard ok at {guard_nodes} nodes: partitioned peak is {:.2}x below resident",
        res_rss as f64 / part_rss.max(1) as f64
    );
}

fn main() {
    let args = parse_args();
    match &args.child {
        Some((mode, nodes)) => run_child(mode, *nodes),
        None => run_orchestrator(&args),
    }
}
