//! Streaming-mutation bench + the verify-script equivalence drive.
//!
//! Three modes:
//!
//! * **Bench** (default): freeze a cora GCN, then replay a deterministic
//!   edge-toggle script against the live engine. Per-mutation latency is
//!   recorded as a function of dirty-set size and written to
//!   `BENCH_streaming.json`.
//! * **Drive** (`--drive --addr HOST:PORT`): replay the same script against
//!   an already-running server over TCP, then dump every node's prediction
//!   (class + probability bits) to `--out`. Fails unless at least one
//!   mutation took the incremental path (`"full_recompute": false`). Used by
//!   `scripts/verify.sh`.
//! * **Reference** (`--reference --frozen PATH`): a cold engine on the
//!   script's final graph, with no mutation applied — replay the script on
//!   the file's adjacency entries, build the final adjacency with
//!   `Csr::from_coo`, re-derive the operators with
//!   `FrozenGraph::operators`, run `Engine::new` — and dump the same
//!   prediction format. `verify.sh` byte-compares the two dumps: the
//!   incremental server must be bitwise indistinguishable from cold.
//!
//! ```sh
//! cargo run --release --bin streaming-bench                 # bench, cora GCN
//! cargo run --release --bin streaming-bench -- --smoke      # quick CI smoke
//! cargo run --release --bin streaming-bench -- --drive --addr 127.0.0.1:7878 \
//!     --seed 7 --mutations 40 --out /tmp/drive.txt
//! cargo run --release --bin streaming-bench -- --reference --frozen model.json \
//!     --seed 7 --mutations 40 --out /tmp/reference.txt
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use lasagne_bench::{connect_patiently, fail};
use lasagne_datasets::{Dataset, DatasetId};
use lasagne_gnn::{models, GraphContext, Hyper};
use lasagne_serve::{freeze, Engine, FrozenModel, Mutation, Request};
use lasagne_sparse::Csr;
use lasagne_testkit::bench::percentile;
use lasagne_testkit::rng::Rng;
use lasagne_testkit::Json;

struct Args {
    frozen: Option<PathBuf>,
    addr: Option<String>,
    out: Option<PathBuf>,
    seed: u64,
    mutations: usize,
    drive: bool,
    reference: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!("usage: streaming-bench [--frozen PATH] [--out PATH] [--smoke]");
    eprintln!("       streaming-bench --drive --addr HOST:PORT --out PATH [--seed N] [--mutations N]");
    eprintln!("       streaming-bench --reference --frozen PATH --out PATH [--seed N] [--mutations N]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        frozen: None,
        addr: None,
        out: None,
        seed: 7,
        mutations: 40,
        drive: false,
        reference: false,
        smoke: false,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--drive" => {
                args.drive = true;
                i += 1;
            }
            "--reference" => {
                args.reference = true;
                i += 1;
            }
            "--smoke" => {
                args.smoke = true;
                i += 1;
            }
            flag @ ("--frozen" | "--addr" | "--out" | "--seed" | "--mutations") => {
                let value = argv.get(i + 1).unwrap_or_else(|| {
                    eprintln!("{flag}: missing value");
                    usage()
                });
                match flag {
                    "--frozen" => args.frozen = Some(value.into()),
                    "--addr" => args.addr = Some(value.clone()),
                    "--out" => args.out = Some(value.into()),
                    "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
                    _ => args.mutations = value.parse().unwrap_or_else(|_| usage()),
                }
                i += 2;
            }
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    args
}

/// Load a frozen file, or freeze an untrained cora GCN (mutation latency
/// does not care whether the weights are trained).
fn load_frozen(frozen: &Option<PathBuf>) -> FrozenModel {
    match frozen {
        Some(path) => FrozenModel::load(path)
            .unwrap_or_else(|e| fail(&format!("cannot load {}: {e}", path.display()))),
        None => {
            let ds = Dataset::generate(DatasetId::Cora, 0);
            let ctx = GraphContext::from_dataset(&ds);
            let hyper = Hyper::for_dataset(DatasetId::Cora);
            let model = models::Gcn::new(ds.num_features(), ds.num_classes, &hyper, 0);
            freeze(&model, &ctx, ds.spec.name)
                .unwrap_or_else(|e| fail(&format!("freeze failed: {e}")))
        }
    }
}

fn build_engine(frozen: FrozenModel) -> Engine {
    Engine::new(frozen).unwrap_or_else(|e| fail(&format!("engine build failed: {e}")))
}

/// What one scripted edge toggle did.
enum Applied {
    Ok,
    /// The add hit an edge the frozen graph already had.
    Duplicate,
}

/// The deterministic mutation script shared by every mode: toggle random
/// pairs, tracking which edges *we* created. An add colliding with a
/// pre-existing graph edge is turned into its removal — that decision
/// depends only on (seed, frozen graph), so the drive and the reference
/// replay byte-identical mutation sequences without sharing any state.
fn run_script<F>(num_nodes: usize, seed: u64, mutations: usize, mut apply: F)
where
    F: FnMut(&Mutation) -> Applied,
{
    let mut rng = Rng::seed_from_u64(seed);
    let mut ours: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut done = 0usize;
    while done < mutations {
        let (u, v) = (rng.index(num_nodes), rng.index(num_nodes));
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if ours.remove(&key) {
            match apply(&Mutation::RemoveEdge { u: key.0, v: key.1 }) {
                Applied::Ok => {}
                Applied::Duplicate => fail("remove of our own edge reported duplicate"),
            }
        } else {
            match apply(&Mutation::AddEdge { u: key.0, v: key.1 }) {
                Applied::Ok => {
                    ours.insert(key);
                }
                Applied::Duplicate => {
                    // Pre-existing edge: delete it instead (also a mutation).
                    match apply(&Mutation::RemoveEdge { u: key.0, v: key.1 }) {
                        Applied::Ok => {}
                        Applied::Duplicate => fail("remove reported duplicate"),
                    }
                }
            }
        }
        done += 1;
    }
}

fn is_duplicate_error(message: &str) -> bool {
    message.contains("already exists")
}

/// Dump format shared by drive and reference: one line per node with the
/// argmax class and the exact bit pattern of every probability, so a `cmp`
/// of two dumps is a bitwise-equivalence check.
fn prediction_dump(mut predict: impl FnMut(usize) -> (usize, Vec<f32>), n: usize) -> String {
    let mut out = String::new();
    for node in 0..n {
        let (class, probs) = predict(node);
        write!(out, "{node} {class}").expect("string write");
        for p in probs {
            write!(out, " {:08x}", p.to_bits()).expect("string write");
        }
        out.push('\n');
    }
    out
}

fn write_out(path: &Option<PathBuf>, content: &str) {
    let Some(path) = path else { fail("--out is required for this mode") };
    std::fs::write(path, content)
        .unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
    println!("wrote {}", path.display());
}

/// Scripted mutation session against a live server, then a full prediction
/// dump over the same TCP connection.
fn run_drive(args: &Args) {
    let Some(addr) = &args.addr else { fail("--drive needs --addr HOST:PORT") };
    let mut client = connect_patiently(addr);
    let health = client.call_ok(&Request::Health).unwrap_or_else(|e| fail(&e.to_string()));
    let boot_nodes = health.get("num_nodes").and_then(Json::as_usize).unwrap_or(0);
    if boot_nodes == 0 {
        fail("health reported no nodes");
    }
    let mut num_nodes = boot_nodes;
    let mut incremental = 0usize;
    run_script(boot_nodes, args.seed, args.mutations, |m| {
        let request = match *m {
            Mutation::AddEdge { u, v } => Request::AddEdge { u, v },
            Mutation::RemoveEdge { u, v } => Request::RemoveEdge { u, v },
            Mutation::AddNode { ref features } => Request::AddNode { features: features.clone() },
        };
        let doc = client.call(&request).unwrap_or_else(|e| fail(&format!("mutation: {e}")));
        if doc.get("ok").and_then(Json::as_bool) == Some(true) {
            num_nodes = doc.get("num_nodes").and_then(Json::as_usize).unwrap_or(num_nodes);
            if doc.get("full_recompute").and_then(Json::as_bool) == Some(false) {
                incremental += 1;
            }
            return Applied::Ok;
        }
        let message = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        if is_duplicate_error(&message) {
            Applied::Duplicate
        } else {
            fail(&format!("unexpected mutation error: {message}"))
        }
    });
    // A dump of an all-cold session would match the reference trivially.
    if incremental == 0 {
        fail("no scripted mutation took the incremental path (\"full_recompute\": false)");
    }
    let dump = prediction_dump(
        |node| {
            let doc = client
                .call_ok(&Request::Predict { node })
                .unwrap_or_else(|e| fail(&format!("predict {node}: {e}")));
            let class = doc.get("class").and_then(Json::as_usize).unwrap_or(usize::MAX);
            let probs = doc.get("probs").and_then(Json::to_f32s).unwrap_or_default();
            (class, probs)
        },
        num_nodes,
    );
    write_out(&args.out, &dump);
    // Overload-contract fields (PR 7): the enriched `stats` payload must
    // round-trip through the testkit codec as plain numbers.
    let stats = client.call_ok(&Request::Stats).unwrap_or_else(|e| fail(&format!("stats: {e}")));
    for field in ["queue_depth", "shed", "expired", "swaps", "model_version", "connections"] {
        if stats.get(field).and_then(Json::as_usize).is_none() {
            fail(&format!("stats response missing numeric field '{field}'"));
        }
    }
    if stats.get("model_version").and_then(Json::as_usize) < Some(1) {
        fail("stats model_version must be >= 1");
    }
    println!(
        "drive ok: {} scripted mutations ({incremental} incremental), {} nodes dumped",
        args.mutations, num_nodes
    );
}

/// The identical script replayed on the frozen adjacency's entry set, then
/// one cold engine on the final graph — no mutation is ever applied to an
/// engine — and the same dump format.
fn run_reference(args: &Args) {
    if args.frozen.is_none() {
        fail("--reference needs --frozen PATH (the same file the server loaded)");
    }
    let mut frozen = load_frozen(&args.frozen);
    let Some(graph) = frozen.graph.as_mut() else {
        fail("frozen model carries no graph binding")
    };
    let n = graph.adjacency.rows();
    let mut entries: BTreeMap<(u32, u32), f32> = (0..n)
        .flat_map(|i| graph.adjacency.row(i).map(move |(j, v)| ((i as u32, j), v)))
        .collect();
    run_script(n, args.seed, args.mutations, |m| match *m {
        Mutation::AddEdge { u, v } => {
            let (u, v) = (u as u32, v as u32);
            if entries.contains_key(&(u, v)) {
                return Applied::Duplicate;
            }
            entries.insert((u, v), 1.0);
            entries.insert((v, u), 1.0);
            Applied::Ok
        }
        Mutation::RemoveEdge { u, v } => {
            let (u, v) = (u as u32, v as u32);
            if entries.remove(&(u, v)).is_none() || entries.remove(&(v, u)).is_none() {
                fail(&format!("reference: edge {u}-{v} does not exist"));
            }
            Applied::Ok
        }
        Mutation::AddNode { .. } => fail("reference: the script adds no nodes"),
    });
    let coo: Vec<(u32, u32, f32)> = entries.iter().map(|(&(r, c), &v)| (r, c, v)).collect();
    graph.adjacency = Csr::from_coo(n, n, &coo);
    let operators =
        graph.operators().unwrap_or_else(|e| fail(&format!("reference operators: {e}")));
    frozen.program.sparse = operators.into_iter().map(Rc::new).collect();
    let engine = build_engine(frozen);
    let dump = prediction_dump(
        |node| {
            let p = engine.predict(node).unwrap_or_else(|e| fail(&format!("predict {node}: {e}")));
            (p.class, p.probs)
        },
        engine.num_nodes(),
    );
    write_out(&args.out, &dump);
    println!("reference ok: {} scripted mutations, {n} nodes dumped", args.mutations);
}

/// Latency-vs-dirty-set-size buckets (the last bucket catches full
/// recomputes, whose "dirty set" is every row).
const BUCKETS: &[(usize, &str)] = &[
    (16, "<=16"),
    (64, "<=64"),
    (256, "<=256"),
    (1024, "<=1024"),
    (usize::MAX, ">1024"),
];

fn run_bench(args: &Args) {
    let mutations = if args.smoke { 30 } else { 200 };
    let mut engine = build_engine(load_frozen(&args.frozen));
    let num_nodes = engine.num_nodes();
    let mut latencies_us: Vec<f64> = Vec::with_capacity(mutations);
    let mut bucket_us: Vec<Vec<f64>> = vec![Vec::new(); BUCKETS.len()];
    let mut fulls = 0usize;
    run_script(num_nodes, args.seed, mutations, |m| {
        let start = Instant::now();
        match engine.apply_mutation(m) {
            Ok(report) => {
                let us = start.elapsed().as_secs_f64() * 1e6;
                latencies_us.push(us);
                if report.full {
                    fulls += 1;
                }
                let slot = BUCKETS
                    .iter()
                    .position(|&(cap, _)| report.dirty_rows <= cap)
                    .unwrap_or(BUCKETS.len() - 1);
                bucket_us[slot].push(us);
                Applied::Ok
            }
            Err(e) if is_duplicate_error(&e.to_string()) => Applied::Duplicate,
            Err(e) => fail(&format!("bench mutation: {e}")),
        }
    });
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mean = latencies_us.iter().sum::<f64>() / latencies_us.len().max(1) as f64;
    let p50 = percentile(&latencies_us, 0.50);
    let p99 = percentile(&latencies_us, 0.99);
    println!(
        "mutations={:>4}  full={fulls:>4}  p50={p50:>9.1}us  p99={p99:>9.1}us  mean={mean:>9.1}us",
        latencies_us.len()
    );
    let buckets: Vec<Json> = BUCKETS
        .iter()
        .zip(&bucket_us)
        .filter(|(_, us)| !us.is_empty())
        .map(|(&(_, label), us)| {
            let mean = us.iter().sum::<f64>() / us.len() as f64;
            println!("    dirty {label:>7}: n={:>4}  mean={mean:>9.1}us", us.len());
            Json::Obj(vec![
                ("dirty_rows".into(), Json::Str(label.into())),
                ("mutations".into(), Json::Num(us.len() as f64)),
                ("mean_us".into(), Json::Num(mean)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("streaming".into())),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("mutations".into(), Json::Num(latencies_us.len() as f64)),
        ("full_recomputes".into(), Json::Num(fulls as f64)),
        ("p50_us".into(), Json::Num(p50)),
        ("p99_us".into(), Json::Num(p99)),
        ("mean_us".into(), Json::Num(mean)),
        ("by_dirty_rows".into(), Json::Arr(buckets)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("BENCH_streaming.json"));
    std::fs::write(&out, format!("{doc}\n"))
        .unwrap_or_else(|e| fail(&format!("write {}: {e}", out.display())));
    println!("wrote {}", out.display());
}

fn main() {
    let args = parse_args();
    if args.drive && args.reference {
        fail("--drive and --reference are mutually exclusive");
    }
    if args.drive {
        run_drive(&args);
    } else if args.reference {
        run_reference(&args);
    } else {
        run_bench(&args);
    }
}
