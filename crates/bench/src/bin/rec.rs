//! Recommendation bench + protocol conformance drive (DESIGN.md §15).
//!
//! Modes:
//!
//! * **Bench** (default): generate the synthetic bipartite rec dataset,
//!   train the edge-gated model on the item-classification loss, evaluate
//!   leave-one-out hit-rate@10 / NDCG@10 against the popularity baseline
//!   (**exits non-zero unless the model beats popularity** — the learned
//!   ranker earning its keep is the whole point), then freeze with the
//!   recommendation binding, serve in-process, and measure `recommend`
//!   p50/p99. Writes `BENCH_rec.json`.
//! * **Check** (`--check --addr HOST:PORT [--seed N]`): conformance drive
//!   against a live rec server exported from the same seed — happy-path
//!   ranking (sorted, deduplicated, masked items excluded), `k = 0`
//!   rejected as `bad_request`, item ids and out-of-range ids rejected as
//!   `unknown_user` with the bipartite layout as structured hints.
//! * **Expect-not-recommender** (`--expect-not-recommender --addr ...`):
//!   asserts a *classification* server refuses `recommend` with the typed
//!   `not_a_recommender` error while `predict` keeps answering.
//!
//! ```sh
//! cargo run --release --bin rec-bench                       # full bench
//! cargo run --release --bin rec-bench -- --smoke            # quick CI smoke
//! cargo run --release --bin rec-bench -- --check --addr 127.0.0.1:17882
//! cargo run --release --bin rec-bench -- --expect-not-recommender --addr 127.0.0.1:17883
//! ```

use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use lasagne_autograd::{Adam, Optimizer, Tape};
use lasagne_bench::{connect_patiently, fail};
use lasagne_datasets::{RecConfig, RecDataset};
use lasagne_gnn::{models, GraphContext, Hyper, Mode, NodeClassifier};
use lasagne_serve::{
    freeze_rec, Client, Engine, FrozenRec, Request, Server, ServerConfig,
};
use lasagne_tensor::TensorRng;
use lasagne_testkit::bench::percentile;
use lasagne_testkit::Json;

struct Args {
    out: PathBuf,
    addr: Option<String>,
    seed: u64,
    check: bool,
    expect_not_recommender: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!("usage: rec-bench [--out PATH] [--seed N] [--smoke]");
    eprintln!("       rec-bench --check --addr HOST:PORT [--seed N]");
    eprintln!("       rec-bench --expect-not-recommender --addr HOST:PORT");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        out: PathBuf::from("BENCH_rec.json"),
        addr: None,
        seed: 0,
        check: false,
        expect_not_recommender: false,
        smoke: false,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--check" => {
                args.check = true;
                i += 1;
            }
            "--expect-not-recommender" => {
                args.expect_not_recommender = true;
                i += 1;
            }
            "--smoke" => {
                args.smoke = true;
                i += 1;
            }
            flag @ ("--out" | "--addr" | "--seed") => {
                let value = argv.get(i + 1).unwrap_or_else(|| {
                    eprintln!("{flag}: missing value");
                    usage()
                });
                match flag {
                    "--out" => args.out = value.into(),
                    "--addr" => args.addr = Some(value.clone()),
                    _ => args.seed = value.parse().unwrap_or_else(|_| usage()),
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

/// The bench's dataset shape. More categories than the classification
/// default (12 over 600 items) so class-space dot products carry real
/// ranking signal — the frozen engine scores in logit space — and a
/// flatter catalog (Pareto exponent 3.5) with focused users (0.85), the
/// regime where personalization rather than blockbuster-counting decides
/// the ranking.
pub fn bench_config() -> RecConfig {
    RecConfig {
        items: 600,
        users: 400,
        classes: 12,
        features: 32,
        avg_user_degree: 8.0,
        time_buckets: 8,
        popularity_exponent: 3.5,
        user_focus: 0.85,
    }
}

fn rec_ctx(ds: &RecDataset) -> GraphContext {
    GraphContext::with_edge_data(
        &ds.graph,
        ds.features.clone(),
        ds.labels.clone(),
        ds.num_classes,
        &ds.edge_data,
    )
    .unwrap_or_else(|e| fail(&format!("edge context build: {e}")))
}

/// Train the edge-gated model on the item-classification loss (the users'
/// preferred-category labels stay out of the loss; their logits are shaped
/// by propagation alone, so no holdout signal leaks).
fn train_model(ds: &RecDataset, ctx: &GraphContext, epochs: usize, seed: u64) -> models::EdgeGatedGcn {
    let hyper = Hyper { hidden: 16, depth: 2, dropout_keep: 1.0, ..Hyper::default() };
    let mut model =
        models::EdgeGatedGcn::new(ds.features.shape().1, ds.num_classes, ds.edge_dim, &hyper, seed);
    let labels = Rc::new(ds.labels.clone());
    let idx = Rc::new(ds.train_items.clone());
    let mut opt = Adam::new(model.store(), 0.01, 5e-4);
    let mut rng = TensorRng::seed_from_u64(seed ^ 0x7ea1);
    for _ in 0..epochs {
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, ctx, Mode::Train, &mut rng);
        let lp = tape.log_softmax(out.logits);
        let loss = tape.nll_masked(lp, labels.clone(), idx.clone());
        model.store_mut().zero_grads();
        tape.backward(loss, model.store_mut());
        opt.step(model.store_mut());
    }
    model
}

fn run_bench(args: &Args) {
    let k = 10usize;
    let epochs = if args.smoke { 12 } else { 40 };
    let cfg = bench_config();
    println!(
        "rec-bench: {} items x {} users, {} classes, seed {}, {} epochs",
        cfg.items, cfg.users, cfg.classes, args.seed, epochs
    );
    let ds = RecDataset::generate(&cfg, args.seed);
    let ctx = rec_ctx(&ds);
    let train_start = Instant::now();
    let model = train_model(&ds, &ctx, epochs, 5);
    let train_s = train_start.elapsed().as_secs_f64();

    // Leave-one-out evaluation: learned ranker vs the popularity baseline,
    // both masked identically.
    let frozen = freeze_rec(
        &model,
        &ctx,
        "rec-synthetic",
        FrozenRec { items: ds.items, users: ds.users, interacted: ds.interacted.clone() },
    )
    .unwrap_or_else(|e| fail(&format!("freeze_rec: {e}")));
    let engine = Engine::new(frozen.clone()).unwrap_or_else(|e| fail(&format!("engine: {e}")));
    let model_eval = ds.evaluate(k, |user| {
        engine
            .recommend(user, k)
            .unwrap_or_else(|e| fail(&format!("recommend user {user}: {e}")))
            .into_iter()
            .map(|(i, _)| i)
            .collect()
    });
    let pop_eval = ds.evaluate(k, |user| ds.popularity_topk(user, k));
    println!(
        "model:      hit@{k}={:.4}  ndcg@{k}={:.4}  ({} users)",
        model_eval.hit_rate, model_eval.ndcg, model_eval.users_evaluated
    );
    println!(
        "popularity: hit@{k}={:.4}  ndcg@{k}={:.4}",
        pop_eval.hit_rate, pop_eval.ndcg
    );

    // Serving latency: one client, sequential `recommend` over the wire.
    let server = Server::start(
        Engine::new(frozen).unwrap_or_else(|e| fail(&format!("serve engine: {e}"))),
        ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .unwrap_or_else(|e| fail(&format!("server start: {e}")));
    let addr = server.local_addr().to_string();
    let mut client = Client::connect_with_retry(&addr, 8, 50, 0x7ec)
        .unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let rounds = if args.smoke { 200 } else { 2000 };
    let mut latencies = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let user = ds.items + (r % ds.users);
        let start = Instant::now();
        client
            .recommend(user, k)
            .unwrap_or_else(|e| fail(&format!("serve recommend user {user}: {e}")));
        latencies.push(start.elapsed().as_secs_f64() * 1e6);
    }
    server.shutdown();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let (p50, p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
    println!("serve: {rounds} recommends  p50={p50:.1}us  p99={p99:.1}us");

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("rec".into())),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("items".into(), Json::Num(ds.items as f64)),
        ("users".into(), Json::Num(ds.users as f64)),
        ("classes".into(), Json::Num(ds.num_classes as f64)),
        ("epochs".into(), Json::Num(epochs as f64)),
        ("train_s".into(), Json::Num(train_s)),
        ("k".into(), Json::Num(k as f64)),
        ("users_evaluated".into(), Json::Num(model_eval.users_evaluated as f64)),
        (
            "model".into(),
            Json::Obj(vec![
                ("hit_rate".into(), Json::Num(model_eval.hit_rate)),
                ("ndcg".into(), Json::Num(model_eval.ndcg)),
            ]),
        ),
        (
            "popularity".into(),
            Json::Obj(vec![
                ("hit_rate".into(), Json::Num(pop_eval.hit_rate)),
                ("ndcg".into(), Json::Num(pop_eval.ndcg)),
            ]),
        ),
        (
            "serve".into(),
            Json::Obj(vec![
                ("requests".into(), Json::Num(rounds as f64)),
                ("p50_us".into(), Json::Num(p50)),
                ("p99_us".into(), Json::Num(p99)),
            ]),
        ),
    ]);
    std::fs::write(&args.out, format!("{doc}\n"))
        .unwrap_or_else(|e| fail(&format!("write {}: {e}", args.out.display())));
    println!("wrote {}", args.out.display());

    if model_eval.hit_rate <= pop_eval.hit_rate {
        fail(&format!(
            "model hit@{k} {:.4} does not beat popularity {:.4} — the learned ranker is not earning its keep",
            model_eval.hit_rate, pop_eval.hit_rate
        ));
    }
    println!(
        "rec bench passed: model beats popularity by {:.4} hit@{k}",
        model_eval.hit_rate - pop_eval.hit_rate
    );
}

fn error_kind(doc: &Json) -> String {
    doc.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("<missing>")
        .to_string()
}

/// Conformance drive against a live recommendation server exported from
/// `--seed` (verify.sh starts the server from the CLI's export, so both
/// sides regenerate the identical dataset).
fn run_check(addr: &str, seed: u64) {
    let ds = RecDataset::generate(&bench_config(), seed);
    let mut client = connect_patiently(addr);
    let expect = |cond: bool, what: &str| {
        if !cond {
            fail(&format!("check failed: {what}"));
        }
    };

    // 1. Health reports the bipartite node count.
    let health = client.call_ok(&Request::Health).unwrap_or_else(|e| fail(&e.to_string()));
    expect(
        health.get("num_nodes").and_then(Json::as_usize) == Some(ds.num_nodes()),
        "health num_nodes must match the seeded dataset",
    );

    // 2. Happy path: sorted, deduplicated, masked training items excluded.
    for &(user, _) in ds.holdout.iter().take(5) {
        let doc = client
            .recommend(user, 10)
            .unwrap_or_else(|e| fail(&format!("recommend user {user}: {e}")));
        let items: &[Json] = doc.get("items").and_then(Json::as_arr).unwrap_or(&[]);
        expect(!items.is_empty() && items.len() <= 10, "recommend must return 1..=k items");
        let mask = ds.interacted.row_indices(user - ds.items);
        let mut last = f64::INFINITY;
        let mut seen = std::collections::HashSet::new();
        for entry in items {
            let item = entry.get("item").and_then(Json::as_usize).unwrap_or(usize::MAX);
            let score = entry.get("score").and_then(Json::as_f64).unwrap_or(f64::NAN);
            expect(item < ds.items, "recommended id must be an item node");
            expect(
                mask.binary_search(&(item as u32)).is_err(),
                "recommend must mask interacted items",
            );
            expect(seen.insert(item), "recommend must not repeat items");
            expect(score <= last, "recommend must be sorted best-first");
            last = score;
        }
    }

    // 3. k = 0 is a typed bad_request at the parse layer.
    let raw = client
        .roundtrip_raw(&format!("{{\"op\":\"recommend\",\"node\":{},\"k\":0}}", ds.items))
        .unwrap_or_else(|e| fail(&e.to_string()));
    let doc = Json::parse(&raw).unwrap_or_else(|e| fail(&format!("k=0 response: {e}")));
    expect(error_kind(&doc) == "bad_request", "k=0 must be bad_request");

    // 4. Item ids and out-of-range ids are unknown_user, with the layout
    //    as structured hints.
    for bad in [0usize, ds.num_nodes() + 7] {
        let doc = client
            .call(&Request::Recommend { node: bad, k: 5 })
            .unwrap_or_else(|e| fail(&e.to_string()));
        expect(
            error_kind(&doc) == "unknown_user",
            &format!("node {bad} must be unknown_user, got {}", error_kind(&doc)),
        );
        let error = doc.get("error").unwrap_or(&Json::Null);
        expect(
            error.get("items").and_then(Json::as_usize) == Some(ds.items)
                && error.get("users").and_then(Json::as_usize) == Some(ds.users),
            "unknown_user must carry items/users hints",
        );
    }

    // 5. The connection survives all of the above.
    client.call_ok(&Request::Health).unwrap_or_else(|e| fail(&e.to_string()));
    println!("rec check ok: ranking, masking, k=0, unknown_user all conform");
}

/// Typed-error sweep against a *classification* server: `recommend` must
/// refuse with `not_a_recommender` and the model surface must stay up.
fn run_expect_not_recommender(addr: &str) {
    let mut client = connect_patiently(addr);
    let doc = client
        .call(&Request::Recommend { node: 0, k: 5 })
        .unwrap_or_else(|e| fail(&e.to_string()));
    if error_kind(&doc) != "not_a_recommender" {
        fail(&format!(
            "classification server must answer recommend with not_a_recommender, got {}",
            error_kind(&doc)
        ));
    }
    client
        .call_ok(&Request::Predict { node: 0 })
        .unwrap_or_else(|e| fail(&format!("predict after refusal: {e}")));
    println!("not-a-recommender check ok: typed refusal, predict still answers");
}

fn main() {
    let args = parse_args();
    if args.check || args.expect_not_recommender {
        let Some(addr) = &args.addr else {
            eprintln!("--check/--expect-not-recommender need --addr HOST:PORT");
            usage()
        };
        if args.check {
            run_check(addr, args.seed);
        }
        if args.expect_not_recommender {
            run_expect_not_recommender(addr);
        }
    } else {
        run_bench(&args);
    }
}
