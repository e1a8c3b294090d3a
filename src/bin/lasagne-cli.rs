//! Command-line entry point: train any model on any dataset and report
//! accuracy (optionally saving the trained weights).
//!
//! ```sh
//! cargo run --release --bin lasagne-cli -- cora lasagne-stochastic --depth 5 --seeds 3
//! cargo run --release --bin lasagne-cli -- pubmed gcn --epochs 100 --save /tmp/gcn.json
//! cargo run --release --bin lasagne-cli -- cora gcn --resume /tmp/run.ckpt.json
//! cargo run --release --bin lasagne-cli -- --list
//! ```
//!
//! `--resume PATH` keeps a crash-safe train-state checkpoint at PATH (saved
//! every epoch) and, when PATH already exists, continues from it
//! bit-identically instead of starting over. `--max-recoveries` bounds how
//! many divergence rollbacks (with LR halving) a run may consume, and
//! `--clip-norm` bounds the global gradient norm.
//!
//! `--threads N` sizes the `lasagne-par` kernel pool (overriding
//! `LASAGNE_THREADS` and the core count). By the determinism contract
//! (DESIGN.md §8) it changes wall-clock only — never a single output bit.
//!
//! `--trace-out PATH` records a span/counter trace of the training run
//! (DESIGN.md §9) and writes it as JSONL; `--trace-summary` prints the
//! top self-time spans and the counters as tables; `--trace-deterministic`
//! zeroes all durations so two same-seed traces are byte-identical.
//! Tracing never changes a computed bit — only observes.
//!
//! `--export PATH` freezes the trained model (last successful seed) into an
//! inference artifact, and `lasagne-cli serve --frozen PATH` serves it over
//! TCP (DESIGN.md §10):
//!
//! ```sh
//! cargo run --release --bin lasagne-cli -- cora gcn --epochs 100 --export /tmp/gcn.frozen.json
//! cargo run --release --bin lasagne-cli -- serve --frozen /tmp/gcn.frozen.json --port 7878
//! ```
//!
//! `serve --partitions K` answers out of lazily materialized per-partition
//! caches (DESIGN.md §14) instead of propagating the whole graph at load —
//! same bits per row as the resident engine, `recommend` artifacts
//! included, O(partition) peak memory; only streaming mutations are
//! refused typed.

use lasagne::prelude::*;
use lasagne_obs::{TraceReport, TraceSink};
use lasagne_serve::{freeze, Engine, FrozenModel, Server};
use lasagne_train::save_params;

struct Args {
    dataset: DatasetId,
    model: String,
    depth: Option<usize>,
    seeds: usize,
    epochs: usize,
    data_seed: u64,
    save: Option<std::path::PathBuf>,
    export: Option<std::path::PathBuf>,
    resume: Option<std::path::PathBuf>,
    max_recoveries: Option<usize>,
    clip_norm: Option<f32>,
    threads: Option<usize>,
    trace_out: Option<std::path::PathBuf>,
    trace_summary: bool,
    trace_deterministic: bool,
}

const MODELS: &[&str] = &[
    "gcn", "resgcn", "densegcn", "jknet", "gat", "sgc", "appnp", "mixhop", "dropedge",
    "pairnorm", "madreg", "graphsage", "fastgcn",
    "lasagne-weighted", "lasagne-stochastic", "lasagne-maxpool", "lasagne-mean",
];

fn usage() -> ! {
    eprintln!("usage: lasagne-cli <dataset> <model> [--depth N] [--seeds N] [--epochs N] [--data-seed N] [--save PATH]");
    eprintln!("                   [--resume PATH] [--max-recoveries N] [--clip-norm X] [--threads N] [--export PATH]");
    eprintln!("                   [--trace-out PATH] [--trace-summary] [--trace-deterministic]");
    eprintln!("       lasagne-cli serve --frozen PATH [--partitions K] [--port N] [--host ADDR] [--max-batch N]");
    eprintln!("                  [--queue-capacity N] [--deadline-ms N] [--max-conns N] [--max-request-bytes N] [--idle-timeout-ms N]");
    eprintln!("       lasagne-cli rec [--epochs N] [--seed N] [--k N] [--export PATH] [--threads N]");
    eprintln!("       lasagne-cli --list");
    eprintln!("datasets: {}", DatasetId::all().map(|d| d.name()).join(", "));
    eprintln!("models:   {}", MODELS.join(", "));
    std::process::exit(2);
}

/// Reject a flag's value, naming both — `"--epochs: invalid value 'abc'"` —
/// before showing the usage text.
fn bad_value(flag: &str, value: &str) -> ! {
    eprintln!("{flag}: invalid value '{value}'");
    usage()
}

fn missing_value(flag: &str) -> ! {
    eprintln!("{flag}: missing value");
    usage()
}

fn unknown_flag(flag: &str) -> ! {
    eprintln!("unknown flag '{flag}'");
    usage()
}

/// `lasagne-cli serve ...` settings.
struct ServeArgs {
    frozen: std::path::PathBuf,
    partitions: Option<usize>,
    host: String,
    port: u16,
    max_batch: usize,
    threads: Option<usize>,
    queue_capacity: usize,
    deadline_ms: u64,
    max_conns: usize,
    max_request_bytes: usize,
    idle_timeout_ms: u64,
}

fn parse_serve_args(argv: &[String]) -> ServeArgs {
    let mut frozen: Option<std::path::PathBuf> = None;
    let mut partitions: Option<usize> = None;
    let mut host = "127.0.0.1".to_string();
    let mut port: u16 = 7878;
    let mut max_batch: usize = 64;
    let mut threads: Option<usize> = None;
    let defaults = lasagne_serve::ServerConfig::default();
    let mut queue_capacity = defaults.queue_capacity;
    let mut deadline_ms = defaults.deadline_ms;
    let mut max_conns = defaults.max_connections;
    let mut max_request_bytes = defaults.max_request_bytes;
    let mut idle_timeout_ms = defaults.idle_timeout_ms;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).unwrap_or_else(|| missing_value(flag));
        match flag {
            "--frozen" => frozen = Some(value.into()),
            "--partitions" => {
                partitions = Some(
                    value.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| bad_value(flag, value)),
                )
            }
            "--host" => host = value.clone(),
            "--port" => port = value.parse().unwrap_or_else(|_| bad_value(flag, value)),
            "--max-batch" => {
                max_batch = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad_value(flag, value))
            }
            "--threads" => {
                threads = Some(
                    value.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| bad_value(flag, value)),
                )
            }
            "--queue-capacity" => {
                queue_capacity = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad_value(flag, value))
            }
            // 0 disables the deadline / idle reaper.
            "--deadline-ms" => {
                deadline_ms = value.parse().unwrap_or_else(|_| bad_value(flag, value))
            }
            "--max-conns" => {
                max_conns = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad_value(flag, value))
            }
            "--max-request-bytes" => {
                max_request_bytes = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= 64)
                    .unwrap_or_else(|| bad_value(flag, value))
            }
            "--idle-timeout-ms" => {
                idle_timeout_ms = value.parse().unwrap_or_else(|_| bad_value(flag, value))
            }
            other => unknown_flag(other),
        }
        i += 2;
    }
    let Some(frozen) = frozen else {
        eprintln!("serve: missing required --frozen PATH");
        usage()
    };
    ServeArgs {
        frozen,
        partitions,
        host,
        port,
        max_batch,
        threads,
        queue_capacity,
        deadline_ms,
        max_conns,
        max_request_bytes,
        idle_timeout_ms,
    }
}

/// Run the `serve` subcommand: load + cache the frozen model, bind, and
/// block until a client sends `shutdown`.
fn run_serve(args: ServeArgs) -> ! {
    if let Some(n) = args.threads {
        lasagne_par::set_threads(n);
    }
    let frozen = FrozenModel::load(&args.frozen).unwrap_or_else(|e| {
        eprintln!("error: cannot load frozen model: {e}");
        std::process::exit(1);
    });
    println!(
        "loaded {} on {} ({} nodes, {} classes, {} weight tensors)",
        frozen.meta.model,
        frozen.meta.dataset,
        frozen.meta.num_nodes,
        frozen.meta.num_classes,
        frozen.weights.len(),
    );
    let engine: lasagne_serve::ServerEngine = match args.partitions {
        // Partition-lazy serving (DESIGN.md §14): plan now, materialize a
        // partition's cache on first query of any node inside it.
        Some(k) => {
            let lazy = lasagne_serve::LazyEngine::new(frozen, k).unwrap_or_else(|e| {
                eprintln!("error: cannot build partition-lazy engine: {e}");
                std::process::exit(1);
            });
            println!("partition-lazy serving: {} partitions, nothing materialized yet", lazy.num_parts());
            lazy.into()
        }
        None => {
            let engine = Engine::new(frozen).unwrap_or_else(|e| {
                eprintln!("error: cannot build inference engine: {e}");
                std::process::exit(1);
            });
            if engine.supports_mutation() {
                println!("streaming mutations enabled (add_edge / remove_edge / add_node)");
            }
            engine.into()
        }
    };
    let config = lasagne_serve::ServerConfig {
        addr: format!("{}:{}", args.host, args.port),
        max_batch: args.max_batch,
        debug_ops: false,
        queue_capacity: args.queue_capacity,
        deadline_ms: args.deadline_ms,
        max_connections: args.max_conns,
        max_request_bytes: args.max_request_bytes,
        idle_timeout_ms: args.idle_timeout_ms,
        ..lasagne_serve::ServerConfig::default()
    };
    let server = Server::start_with(engine, config).unwrap_or_else(|e| {
        eprintln!("error: cannot start server: {e}");
        std::process::exit(1);
    });
    println!("serving on {} (newline-delimited JSON; send {{\"op\":\"shutdown\"}} to stop)", server.local_addr());
    server.wait();
    std::process::exit(0);
}

/// `lasagne-cli rec ...` settings.
struct RecArgs {
    epochs: usize,
    seed: u64,
    k: usize,
    export: Option<std::path::PathBuf>,
    threads: Option<usize>,
}

fn parse_rec_args(argv: &[String]) -> RecArgs {
    let mut args = RecArgs { epochs: 40, seed: 0, k: 10, export: None, threads: None };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).unwrap_or_else(|| missing_value(flag));
        match flag {
            "--epochs" => args.epochs = value.parse().unwrap_or_else(|_| bad_value(flag, value)),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad_value(flag, value)),
            "--k" => {
                args.k = value.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| bad_value(flag, value))
            }
            "--export" => args.export = Some(value.into()),
            "--threads" => {
                args.threads = Some(
                    value.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| bad_value(flag, value)),
                )
            }
            other => unknown_flag(other),
        }
        i += 2;
    }
    args
}

/// Run the `rec` subcommand: train the edge-gated model on the synthetic
/// bipartite recommendation dataset (DESIGN.md §15), report leave-one-out
/// hit-rate@k / NDCG@k against the popularity baseline, and optionally
/// export a frozen artifact with the recommendation binding for
/// `lasagne-cli serve`.
fn run_rec(args: RecArgs) -> ! {
    if let Some(n) = args.threads {
        lasagne_par::set_threads(n);
    }
    let cfg = lasagne_datasets::RecConfig::demo();
    let ds = lasagne_datasets::RecDataset::generate(&cfg, args.seed);
    let ctx = GraphContext::with_edge_data(
        &ds.graph,
        ds.features.clone(),
        ds.labels.clone(),
        ds.num_classes,
        &ds.edge_data,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: edge context build: {e}");
        std::process::exit(1);
    });
    println!(
        "rec: {} items x {} users, {} classes, seed {}, {} epochs",
        ds.items, ds.users, ds.num_classes, args.seed, args.epochs
    );
    // Same training recipe as rec-bench: item-classification loss only
    // (user labels stay out, so no holdout signal leaks into the ranker).
    let hyper = Hyper { hidden: 16, depth: 2, dropout_keep: 1.0, ..Hyper::default() };
    let mut model = models::EdgeGatedGcn::new(
        ds.features.shape().1,
        ds.num_classes,
        ds.edge_dim,
        &hyper,
        5,
    );
    let labels = std::rc::Rc::new(ds.labels.clone());
    let idx = std::rc::Rc::new(ds.train_items.clone());
    let mut opt = Adam::new(model.store(), 0.01, 5e-4);
    let mut rng = TensorRng::seed_from_u64(args.seed ^ 0x7ea1);
    for _ in 0..args.epochs {
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &ctx, Mode::Train, &mut rng);
        let lp = tape.log_softmax(out.logits);
        let loss = tape.nll_masked(lp, labels.clone(), idx.clone());
        model.store_mut().zero_grads();
        tape.backward(loss, model.store_mut());
        opt.step(model.store_mut());
    }
    // Rank through the frozen engine — the exact path `serve` answers with.
    let frozen = lasagne_serve::freeze_rec(
        &model,
        &ctx,
        "rec-synthetic",
        lasagne_serve::FrozenRec {
            items: ds.items,
            users: ds.users,
            interacted: ds.interacted.clone(),
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("error: freeze_rec: {e}");
        std::process::exit(1);
    });
    let engine = Engine::new(frozen.clone()).unwrap_or_else(|e| {
        eprintln!("error: engine build: {e}");
        std::process::exit(1);
    });
    let k = args.k;
    let model_eval = ds.evaluate(k, |user| {
        engine
            .recommend(user, k)
            .unwrap_or_else(|e| {
                eprintln!("error: recommend user {user}: {e}");
                std::process::exit(1);
            })
            .into_iter()
            .map(|(i, _)| i)
            .collect()
    });
    let pop_eval = ds.evaluate(k, |user| ds.popularity_topk(user, k));
    println!(
        "model:      hit@{k}={:.4}  ndcg@{k}={:.4}  ({} users evaluated)",
        model_eval.hit_rate, model_eval.ndcg, model_eval.users_evaluated
    );
    println!(
        "popularity: hit@{k}={:.4}  ndcg@{k}={:.4}",
        pop_eval.hit_rate, pop_eval.ndcg
    );
    if let Some(path) = &args.export {
        frozen.save(path).unwrap_or_else(|e| {
            eprintln!("error: export {}: {e}", path.display());
            std::process::exit(1);
        });
        println!(
            "exported recommendation artifact to {} (serve with: lasagne-cli serve --frozen {})",
            path.display(),
            path.display()
        );
    }
    std::process::exit(0);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list") {
        println!("datasets: {}", DatasetId::all().map(|d| d.name()).join(", "));
        println!("models:   {}", MODELS.join(", "));
        std::process::exit(0);
    }
    if argv.first().map(String::as_str) == Some("serve") {
        run_serve(parse_serve_args(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("rec") {
        run_rec(parse_rec_args(&argv[1..]));
    }
    if argv.len() < 2 {
        usage();
    }
    let dataset: DatasetId = argv[0].parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    let model = argv[1].to_ascii_lowercase();
    if !MODELS.contains(&model.as_str()) {
        eprintln!("unknown model '{model}'");
        usage();
    }
    let mut args = Args {
        dataset,
        model,
        depth: None,
        seeds: 1,
        epochs: 150,
        data_seed: 0,
        save: None,
        export: None,
        resume: None,
        max_recoveries: None,
        clip_norm: None,
        threads: None,
        trace_out: None,
        trace_summary: false,
        trace_deterministic: false,
    };
    let mut i = 2;
    while i < argv.len() {
        let flag = argv[i].as_str();
        // Boolean flags take no value.
        match flag {
            "--trace-summary" => {
                args.trace_summary = true;
                i += 1;
                continue;
            }
            "--trace-deterministic" => {
                args.trace_deterministic = true;
                i += 1;
                continue;
            }
            _ => {}
        }
        let value = argv.get(i + 1).unwrap_or_else(|| missing_value(flag));
        match flag {
            "--depth" => args.depth = Some(value.parse().unwrap_or_else(|_| bad_value(flag, value))),
            "--seeds" => args.seeds = value.parse().unwrap_or_else(|_| bad_value(flag, value)),
            "--epochs" => args.epochs = value.parse().unwrap_or_else(|_| bad_value(flag, value)),
            "--data-seed" => {
                args.data_seed = value.parse().unwrap_or_else(|_| bad_value(flag, value))
            }
            "--save" => args.save = Some(value.into()),
            "--export" => args.export = Some(value.into()),
            "--resume" => args.resume = Some(value.into()),
            "--max-recoveries" => {
                args.max_recoveries = Some(value.parse().unwrap_or_else(|_| bad_value(flag, value)))
            }
            "--clip-norm" => {
                args.clip_norm = Some(value.parse().unwrap_or_else(|_| bad_value(flag, value)))
            }
            "--threads" => {
                args.threads = Some(
                    value.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| bad_value(flag, value)),
                )
            }
            "--trace-out" => args.trace_out = Some(value.into()),
            other => unknown_flag(other),
        }
        i += 2;
    }
    if args.resume.is_some() && args.seeds != 1 {
        eprintln!("--resume tracks a single run; use it with --seeds 1 (the default)");
        std::process::exit(2);
    }
    args
}

fn build(model: &str, ds: &Dataset, hyper: &Hyper, seed: u64) -> Box<dyn NodeClassifier> {
    let (in_dim, classes, n) = (ds.num_features(), ds.num_classes, ds.num_nodes());
    let lasagne = |agg: AggregatorKind| -> Box<dyn NodeClassifier> {
        let cfg = LasagneConfig::from_hyper(hyper, agg);
        Box::new(Lasagne::new(in_dim, classes, Some(n), &cfg, seed))
    };
    match model {
        "gcn" => Box::new(models::Gcn::new(in_dim, classes, hyper, seed)),
        "resgcn" => Box::new(models::ResGcn::new(in_dim, classes, hyper, seed)),
        "densegcn" => Box::new(models::DenseGcn::new(in_dim, classes, hyper, seed)),
        "jknet" => Box::new(models::JkNet::new(in_dim, classes, hyper, seed)),
        "gat" => Box::new(models::Gat::new(in_dim, classes, hyper, seed)),
        "sgc" => Box::new(models::Sgc::new(in_dim, classes, hyper, seed)),
        "appnp" => Box::new(models::Appnp::new(in_dim, classes, hyper, seed)),
        "mixhop" => Box::new(models::MixHop::new(in_dim, classes, hyper, seed)),
        "dropedge" => Box::new(models::DropEdgeGcn::new(in_dim, classes, hyper, seed)),
        "pairnorm" => Box::new(models::PairNormGcn::new(in_dim, classes, hyper, seed)),
        "madreg" => Box::new(models::MadRegGcn::new(in_dim, classes, hyper, seed)),
        "graphsage" => Box::new(models::GraphSage::new(in_dim, classes, hyper, seed)),
        "fastgcn" => Box::new(models::FastGcn::new(in_dim, classes, hyper, seed)),
        "lasagne-weighted" => lasagne(AggregatorKind::Weighted),
        "lasagne-stochastic" => lasagne(AggregatorKind::Stochastic),
        "lasagne-maxpool" => lasagne(AggregatorKind::MaxPooling),
        "lasagne-mean" => lasagne(AggregatorKind::Mean),
        _ => unreachable!("validated in parse_args"),
    }
}

/// Top-10 spans by self time plus every counter, via `train::table`.
fn print_trace_summary(report: &TraceReport) {
    let total_ns: u64 = report.spans.iter().filter(|s| s.depth == 0).map(|s| s.total_ns).sum();
    let mut spans = Table::new(
        "trace: top spans by self time",
        &["span", "count", "total ms", "self ms", "self %"],
    );
    for s in report.top_by_self(10) {
        let pct = if total_ns > 0 { 100.0 * s.self_ns as f64 / total_ns as f64 } else { 0.0 };
        spans.row(vec![
            s.path.clone(),
            s.count.to_string(),
            format!("{:.3}", s.total_ns as f64 / 1e6),
            format!("{:.3}", s.self_ns as f64 / 1e6),
            format!("{pct:.1}"),
        ]);
    }
    print!("{}", spans.render());
    if !report.counters.is_empty() {
        let mut counters = Table::new("trace: counters", &["counter", "value"]);
        for (name, value) in &report.counters {
            counters.row(vec![name.clone(), value.to_string()]);
        }
        print!("{}", counters.render());
    }
}

fn main() {
    let args = parse_args();
    if let Some(n) = args.threads {
        lasagne_par::set_threads(n);
    }
    let ds = Dataset::generate(args.dataset, args.data_seed);
    println!(
        "{}: {} nodes, {} edges, {} classes (train/val/test = {}/{}/{})",
        ds.spec.name,
        ds.num_nodes(),
        ds.graph.num_edges(),
        ds.num_classes,
        ds.split.train.len(),
        ds.split.val.len(),
        ds.split.test.len(),
    );

    let mut hyper = Hyper::for_dataset(args.dataset);
    if let Some(d) = args.depth {
        hyper.depth = d;
    } else if args.model.starts_with("lasagne") {
        hyper.depth = 5;
    }
    let mut train_cfg = TrainConfig { max_epochs: args.epochs, ..TrainConfig::from_hyper(&hyper) };
    if let Some(n) = args.max_recoveries {
        train_cfg.max_recoveries = n;
    }
    train_cfg.clip_norm = args.clip_norm;
    let ctx = GraphContext::from_dataset(&ds);

    // Record spans/counters only when asked: without a sink every probe in
    // the kernels is a single disabled-path atomic load.
    let tracing = args.trace_out.is_some() || args.trace_summary;
    let sink = tracing.then(|| TraceSink::start(args.trace_deterministic));

    let mut last_model: Option<Box<dyn NodeClassifier>> = None;
    let summary = run_seeds_fallible(args.seeds, 42, |seed| {
        let mut model = build(&args.model, &ds, &hyper, seed);
        let mut strat = FullBatch::from_dataset(&ds);
        let mut rng = TensorRng::seed_from_u64(seed ^ 0xc11);
        let opts = FitOptions {
            checkpoint: args.resume.clone().map(CheckpointPolicy::every_epoch),
            resume: args.resume.is_some(),
            ..FitOptions::default()
        };
        let r = fit_with_options(
            model.as_mut(), &mut strat, &ctx, &ds.split, &train_cfg, &mut rng, opts,
        );
        if r.is_ok() {
            last_model = Some(model);
        }
        r
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    if let Some(sink) = sink {
        let report = sink.finish();
        if let Some(path) = &args.trace_out {
            if let Err(e) = report.write_jsonl(path) {
                eprintln!("error: failed to write trace: {e}");
                std::process::exit(1);
            }
            println!("wrote trace to {}", path.display());
        }
        if args.trace_summary {
            print_trace_summary(&report);
        }
    }
    for (seed, err) in &summary.failures {
        eprintln!("seed {seed} failed (after one retry): {err}");
    }
    let Some(model) = last_model else {
        eprintln!("error: every seed failed; nothing to report");
        std::process::exit(1);
    };
    println!(
        "{} (depth {}): test accuracy {} over {} ok / {} failed seed(s), {:.0} ms/epoch, ~{:.0} epochs",
        model.name(),
        hyper.depth,
        summary.cell(),
        summary.n_ok,
        summary.n_failed,
        1000.0 * summary.mean_epoch_seconds,
        summary.mean_epochs,
    );

    if let Some(path) = args.save {
        if let Err(e) = save_params(model.store(), &path) {
            eprintln!("error: failed to save checkpoint: {e}");
            std::process::exit(1);
        }
        println!("saved weights of the last seed to {}", path.display());
    }

    if let Some(path) = args.export {
        let result = freeze(model.as_ref(), &ctx, ds.spec.name).and_then(|f| f.save(&path));
        if let Err(e) = result {
            eprintln!("error: failed to export frozen model: {e}");
            std::process::exit(1);
        }
        println!("exported frozen model of the last seed to {}", path.display());
    }
}
