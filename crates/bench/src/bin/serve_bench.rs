//! Load generator, saturation prober, and chaos soak for the
//! `lasagne-serve` TCP server.
//!
//! Modes:
//!
//! * **Bench** (default): start an in-process server (from `--frozen PATH`,
//!   or a freshly built GCN on cora when omitted — serving latency does not
//!   care whether the weights are trained), then drive it with 1, 8, and 64
//!   concurrent clients, followed by a saturation sweep that walks
//!   concurrency up until throughput stops improving — the **knee**.
//!   Writes `BENCH_serve.json` with p50/p99 + throughput per level and the
//!   measured knee.
//! * **Soak** (`--soak`): the overload-contract proof (DESIGN.md §12,
//!   verify.sh stage). Measures the knee, then floods an overload-tuned
//!   server at 4× the knee concurrency for `--duration-s` seconds (default
//!   30) with chaos clients mixed in — garbage lines, oversized lines,
//!   mid-request hangups, slowloris tricklers, and periodic slow requests
//!   that stall the batcher. A dedicated prober hits `health` continuously.
//!   Mid-soak the model is hot-swapped. Exits non-zero unless: every flood
//!   response was typed (zero untyped failures), health p99 stayed under
//!   5 ms, the server actually shed and expired work (the flood really
//!   overloaded it), the swap installed, and shutdown drained cleanly.
//! * **Check** (`--check`): a protocol conformance drive for an already
//!   running server at `--addr HOST:PORT` — used by `scripts/verify.sh`.
//!   Sends well-formed, malformed, and out-of-range requests and asserts
//!   the typed responses, that `stats` carries the overload counters, and
//!   that `health` describes the artifact the server was started from
//!   (`--frozen PATH`: its node count); exits non-zero on any surprise.
//!
//! ```sh
//! cargo run --release --bin serve-bench                          # bench, cora GCN
//! cargo run --release --bin serve-bench -- --smoke               # quick CI smoke
//! cargo run --release --bin serve-bench -- --soak --duration-s 30
//! cargo run --release --bin serve-bench -- --check --addr 127.0.0.1:7878 --frozen model.json
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lasagne_bench::{connect_patiently, fail};
use lasagne_datasets::{Dataset, DatasetId};
use lasagne_gnn::{models, GraphContext, Hyper};
use lasagne_serve::{freeze, Client, Engine, FrozenModel, Request, Server, ServerConfig};
use lasagne_testkit::bench::percentile;
use lasagne_testkit::rng::Rng;
use lasagne_testkit::{chaos, Json};

struct Args {
    frozen: Option<PathBuf>,
    addr: Option<String>,
    out: PathBuf,
    check: bool,
    shutdown: bool,
    smoke: bool,
    soak: bool,
    duration_s: u64,
}

fn usage() -> ! {
    eprintln!("usage: serve-bench [--frozen PATH] [--out PATH] [--smoke]");
    eprintln!("       serve-bench --soak [--duration-s N] [--smoke]");
    eprintln!("       serve-bench --check --addr HOST:PORT --frozen PATH");
    eprintln!("       serve-bench --shutdown --addr HOST:PORT");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        frozen: None,
        addr: None,
        out: PathBuf::from("BENCH_serve.json"),
        check: false,
        shutdown: false,
        smoke: false,
        soak: false,
        duration_s: 30,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--check" => {
                args.check = true;
                i += 1;
            }
            "--shutdown" => {
                args.shutdown = true;
                i += 1;
            }
            "--smoke" => {
                args.smoke = true;
                i += 1;
            }
            "--soak" => {
                args.soak = true;
                i += 1;
            }
            flag @ ("--frozen" | "--addr" | "--out" | "--duration-s") => {
                let value = argv.get(i + 1).unwrap_or_else(|| {
                    eprintln!("{flag}: missing value");
                    usage()
                });
                match flag {
                    "--frozen" => args.frozen = Some(value.into()),
                    "--addr" => args.addr = Some(value.clone()),
                    "--duration-s" => {
                        args.duration_s = value.parse().unwrap_or_else(|_| usage())
                    }
                    _ => args.out = value.into(),
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

/// Load the engine from a frozen file, or freeze a cora GCN with the given
/// weight seed (distinct seeds give distinct models — the soak's hot-swap
/// target uses a different seed than the primary).
fn build_engine(frozen: &Option<PathBuf>, weight_seed: u64) -> Engine {
    let frozen_model = frozen_model(frozen, weight_seed);
    Engine::new(frozen_model).unwrap_or_else(|e| fail(&format!("engine build failed: {e}")))
}

fn frozen_model(frozen: &Option<PathBuf>, weight_seed: u64) -> FrozenModel {
    match frozen {
        Some(path) => FrozenModel::load(path)
            .unwrap_or_else(|e| fail(&format!("cannot load {}: {e}", path.display()))),
        None => {
            let ds = Dataset::generate(DatasetId::Cora, 0);
            let ctx = GraphContext::from_dataset(&ds);
            let hyper = Hyper::for_dataset(DatasetId::Cora);
            let model = models::Gcn::new(ds.num_features(), ds.num_classes, &hyper, weight_seed);
            freeze(&model, &ctx, ds.spec.name)
                .unwrap_or_else(|e| fail(&format!("freeze failed: {e}")))
        }
    }
}

/// One client worker: `n` sequential predicts on its own connection,
/// returning per-request latencies in microseconds.
fn drive(addr: &str, n: usize, num_nodes: usize, seed: u64) -> Vec<f64> {
    let mut client = Client::connect_with_retry(addr, 8, 50, seed)
        .unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
    let mut rng = Rng::seed_from_u64(seed);
    let mut latencies = Vec::with_capacity(n);
    for _ in 0..n {
        let node = (rng.next_u64() % num_nodes as u64) as usize;
        let start = Instant::now();
        let doc = client
            .call_ok(&Request::Predict { node })
            .unwrap_or_else(|e| fail(&format!("predict failed: {e}")));
        latencies.push(start.elapsed().as_secs_f64() * 1e6);
        debug_assert!(doc.get("class").is_some());
    }
    latencies
}

/// Closed-loop throughput at one concurrency level, measured over `window`.
fn throughput_at(addr: &str, clients: usize, num_nodes: usize, window: Duration) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.to_string();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect_with_retry(&addr, 8, 50, 0xbeef + c as u64)
                    .unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
                let mut rng = Rng::seed_from_u64(0xbeef + c as u64);
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let node = (rng.next_u64() % num_nodes as u64) as usize;
                    client
                        .call_ok(&Request::Predict { node })
                        .unwrap_or_else(|e| fail(&format!("sweep predict: {e}")));
                    done += 1;
                }
                done
            })
        })
        .collect();
    let wall = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = handles
        .into_iter()
        .map(|h| h.join().unwrap_or_else(|_| fail("sweep thread panicked")))
        .sum();
    total as f64 / wall.elapsed().as_secs_f64()
}

/// Walk concurrency up until throughput stops improving; the knee is the
/// level with the best observed throughput. Returns (rows, knee_clients,
/// knee_rps).
fn saturation_sweep(
    addr: &str,
    num_nodes: usize,
    window: Duration,
) -> (Vec<Json>, usize, f64) {
    let mut rows = Vec::new();
    let (mut knee_clients, mut knee_rps) = (1usize, 0.0f64);
    for &clients in &[1usize, 2, 4, 8, 16, 32] {
        let rps = throughput_at(addr, clients, num_nodes, window);
        println!("saturation: clients={clients:>3}  {rps:>9.0} req/s");
        rows.push(Json::Obj(vec![
            ("clients".into(), Json::Num(clients as f64)),
            ("throughput_rps".into(), Json::Num(rps)),
        ]));
        if rps > knee_rps {
            knee_rps = rps;
            knee_clients = clients;
        } else if rps < knee_rps * 0.9 {
            // Throughput is falling, not just flat — past the knee; stop
            // burning bench time.
            break;
        }
    }
    (rows, knee_clients, knee_rps)
}

fn run_bench(args: &Args) {
    let engine = build_engine(&args.frozen, 0);
    let num_nodes = engine.num_nodes();
    let server = Server::start(
        engine,
        ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .unwrap_or_else(|e| fail(&format!("server start: {e}")));
    let addr = server.local_addr().to_string();

    let per_client = if args.smoke { 20 } else { 400 };
    let mut rows: Vec<Json> = Vec::new();
    for &clients in &[1usize, 8, 64] {
        let wall = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                std::thread::spawn(move || drive(&addr, per_client, num_nodes, 0x5e4e + c as u64))
            })
            .collect();
        let mut latencies: Vec<f64> = Vec::with_capacity(clients * per_client);
        for h in handles {
            latencies.extend(h.join().unwrap_or_else(|_| fail("client thread panicked")));
        }
        let elapsed = wall.elapsed().as_secs_f64();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let total = latencies.len();
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);
        let throughput = total as f64 / elapsed;
        println!(
            "clients={clients:>3}  requests={total:>6}  p50={p50:>9.1}us  p99={p99:>9.1}us  {throughput:>9.0} req/s"
        );
        rows.push(Json::Obj(vec![
            ("clients".into(), Json::Num(clients as f64)),
            ("requests".into(), Json::Num(total as f64)),
            ("p50_us".into(), Json::Num(p50)),
            ("p99_us".into(), Json::Num(p99)),
            ("throughput_rps".into(), Json::Num(throughput)),
        ]));
    }
    let window = Duration::from_millis(if args.smoke { 150 } else { 500 });
    let (sweep_rows, knee_clients, knee_rps) = saturation_sweep(&addr, num_nodes, window);
    println!("knee: {knee_rps:.0} req/s at {knee_clients} clients");
    let stats = server.stats();
    println!(
        "server side: {} requests in {} batches (max batch {}, mean {:.2})",
        stats.requests, stats.batches, stats.max_batch, stats.mean_batch
    );
    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("serve".into())),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("levels".into(), Json::Arr(rows)),
        ("saturation".into(), Json::Arr(sweep_rows)),
        (
            "knee".into(),
            Json::Obj(vec![
                ("clients".into(), Json::Num(knee_clients as f64)),
                ("throughput_rps".into(), Json::Num(knee_rps)),
            ]),
        ),
        (
            "server".into(),
            Json::Obj(vec![
                ("requests".into(), Json::Num(stats.requests as f64)),
                ("batches".into(), Json::Num(stats.batches as f64)),
                ("max_batch".into(), Json::Num(stats.max_batch as f64)),
                ("mean_batch".into(), Json::Num(stats.mean_batch)),
            ]),
        ),
    ]);
    server.shutdown();
    std::fs::write(&args.out, format!("{doc}\n"))
        .unwrap_or_else(|e| fail(&format!("write {}: {e}", args.out.display())));
    println!("wrote {}", args.out.display());
}

/// Per-outcome counters shared by every soak client.
#[derive(Default)]
struct SoakLedger {
    ok: AtomicU64,
    overloaded: AtomicU64,
    expired: AtomicU64,
    draining: AtomicU64,
    too_large: AtomicU64,
    refused: AtomicU64,
    /// Typed rejections of malformed input (parse errors, unknown ops,
    /// unknown nodes) — the expected answer to the garbage chaos client.
    rejected: AtomicU64,
    /// Typed `internal` responses — the panic shield fired. Zero expected.
    internal: AtomicU64,
    /// Responses that were not well-formed typed protocol lines, or
    /// connections that died without the expected typed refusal. The soak
    /// passes only if this stays zero.
    untyped: AtomicU64,
    v1: AtomicU64,
    v2: AtomicU64,
}

/// Classify one parsed response into the ledger. Returns the server's
/// retry hint when the request was shed.
fn tally(ledger: &SoakLedger, doc: &Json) -> Option<u64> {
    if doc.get("ok").and_then(Json::as_bool) == Some(true) {
        ledger.ok.fetch_add(1, Ordering::Relaxed);
        match doc.get("model_version").and_then(Json::as_usize) {
            Some(1) => ledger.v1.fetch_add(1, Ordering::Relaxed),
            Some(2) => ledger.v2.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        return None;
    }
    let kind = doc
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("");
    match kind {
        "overloaded" => {
            ledger.overloaded.fetch_add(1, Ordering::Relaxed);
            return doc
                .get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Json::as_usize)
                .map(|ms| ms as u64);
        }
        "deadline_exceeded" => ledger.expired.fetch_add(1, Ordering::Relaxed),
        "draining" => ledger.draining.fetch_add(1, Ordering::Relaxed),
        "request_too_large" => ledger.too_large.fetch_add(1, Ordering::Relaxed),
        "too_many_connections" => ledger.refused.fetch_add(1, Ordering::Relaxed),
        "internal" => ledger.internal.fetch_add(1, Ordering::Relaxed),
        "" => ledger.untyped.fetch_add(1, Ordering::Relaxed),
        _ => ledger.rejected.fetch_add(1, Ordering::Relaxed),
    };
    None
}

/// The chaos soak (DESIGN.md §12; the verify.sh soak stage). See the
/// module docs for the pass criteria.
fn run_soak(args: &Args) {
    let duration = Duration::from_secs(if args.smoke { 4 } else { args.duration_s.max(4) });

    // Phase 1: measure the knee on a default-tuned server.
    let engine = build_engine(&args.frozen, 0);
    let num_nodes = engine.num_nodes();
    let probe = Server::start(
        engine,
        ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .unwrap_or_else(|e| fail(&format!("probe server start: {e}")));
    let window = Duration::from_millis(if args.smoke { 150 } else { 400 });
    let (_, knee_clients, knee_rps) =
        saturation_sweep(&probe.local_addr().to_string(), num_nodes, window);
    probe.shutdown();
    println!("soak: knee {knee_rps:.0} req/s at {knee_clients} clients; flooding at 4x");

    // The hot-swap target: same graph, different weights.
    let swap_path = std::env::temp_dir()
        .join(format!("lasagne-soak-swap-{}.json", std::process::id()));
    frozen_model(&args.frozen, 1)
        .save(&swap_path)
        .unwrap_or_else(|e| fail(&format!("save swap target: {e}")));

    // Phase 2: an overload-tuned server — queue sized to the knee so a 4×
    // flood genuinely sheds, deadlines short enough that batcher stalls
    // expire queued work, debug ops on so chaos can inject slow requests.
    let flood_clients = (knee_clients * 4).clamp(8, 64);
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_batch: 8,
        debug_ops: true,
        queue_capacity: knee_clients.max(2),
        deadline_ms: 50,
        max_connections: flood_clients + 32,
        max_request_bytes: 4096,
        idle_timeout_ms: 2_000,
        poll_interval_ms: 20,
        ..ServerConfig::default()
    };
    let server = Server::start(build_engine(&args.frozen, 0), config)
        .unwrap_or_else(|e| fail(&format!("soak server start: {e}")));
    let addr = server.local_addr().to_string();

    let ledger = Arc::new(SoakLedger::default());
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();

    // Flood clients: full-tilt predicts, honoring the shed retry hint —
    // exactly the client behavior README's operating guide prescribes.
    for c in 0..flood_clients {
        let addr = addr.clone();
        let ledger = Arc::clone(&ledger);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, 8, 50, 0xf100d + c as u64)
                .unwrap_or_else(|e| fail(&format!("flood connect: {e}")));
            client.set_timeout(Some(Duration::from_secs(10))).unwrap_or_else(|e| fail(&e.to_string()));
            let mut rng = Rng::seed_from_u64(0xf100d + c as u64);
            while !stop.load(Ordering::Relaxed) {
                let node = (rng.next_u64() % num_nodes as u64) as usize;
                match client.call(&Request::Predict { node }) {
                    Ok(doc) => {
                        if let Some(hint_ms) = tally(&ledger, &doc) {
                            std::thread::sleep(Duration::from_millis(hint_ms.min(200)));
                        }
                    }
                    Err(_) => {
                        ledger.untyped.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
        }));
    }

    // Chaos: garbage + mutated lines on a long-lived connection; the
    // server must answer every complete line with a typed rejection.
    {
        let addr = addr.clone();
        let ledger = Arc::clone(&ledger);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut rng = Rng::seed_from_u64(0xbad);
            let mut client = Client::connect_with_retry(&addr, 8, 50, 0xbad)
                .unwrap_or_else(|e| fail(&format!("garbage connect: {e}")));
            client
                .set_timeout(Some(Duration::from_secs(10)))
                .unwrap_or_else(|e| fail(&e.to_string()));
            while !stop.load(Ordering::Relaxed) {
                let node = rng.index(num_nodes);
                let line = if rng.bernoulli(0.5) {
                    chaos::garbage_line(&mut rng, 200)
                } else {
                    chaos::mutate_line(&mut rng, &Request::Predict { node }.to_line())
                };
                // Blank lines are skipped by the server (no response to
                // wait for); oversize lines belong to the dedicated thread.
                if line.trim().is_empty() || line.len() >= 4096 {
                    continue;
                }
                match client.roundtrip_raw(&line).map(|raw| Json::parse(&raw)) {
                    Ok(Ok(doc)) => {
                        tally(&ledger, &doc);
                    }
                    _ => {
                        ledger.untyped.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }));
    }

    // Chaos: oversized lines. Contract: a typed `request_too_large`, then
    // the server closes the connection — so reconnect each round.
    {
        let addr = addr.clone();
        let ledger = Arc::clone(&ledger);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let payload = "x".repeat(8192);
            while !stop.load(Ordering::Relaxed) {
                let Ok(mut client) = Client::connect(&addr) else {
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                };
                if client.set_timeout(Some(Duration::from_secs(10))).is_err() {
                    continue;
                }
                match client.roundtrip_raw(&payload).map(|raw| Json::parse(&raw)) {
                    Ok(Ok(doc)) => {
                        tally(&ledger, &doc);
                    }
                    _ => {
                        ledger.untyped.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }));
    }

    // Chaos: mid-request hangups — the server must reap the half-request
    // without leaking the connection slot.
    {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = chaos::drop_mid_request(&addr, "{\"op\": \"pre");
                std::thread::sleep(Duration::from_millis(10));
            }
        }));
    }

    // Chaos: a slow trickler that drips an unterminated line one byte at a
    // time and then hangs up. The cap/idle machinery bounds it; it never
    // completes a request.
    {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let payload = "y".repeat(400);
            while !stop.load(Ordering::Relaxed) {
                let _ = chaos::slow_sender(&addr, payload.as_bytes(), Duration::from_millis(1));
            }
        }));
    }

    // Chaos: periodic slow requests (debug_sleep) stall the batcher past
    // the 50 ms deadline so queued flood work genuinely expires.
    {
        let addr = addr.clone();
        let ledger = Arc::clone(&ledger);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, 8, 50, 0x57a11)
                .unwrap_or_else(|e| fail(&format!("staller connect: {e}")));
            client
                .set_timeout(Some(Duration::from_secs(10)))
                .unwrap_or_else(|e| fail(&e.to_string()));
            while !stop.load(Ordering::Relaxed) {
                match client.call(&Request::DebugSleep { ms: 120 }) {
                    Ok(doc) => {
                        tally(&ledger, &doc);
                    }
                    Err(_) => {
                        ledger.untyped.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                std::thread::sleep(Duration::from_millis(400));
            }
        }));
    }

    // The health prober: control ops ride the reserved fast path, so they
    // must stay snappy no matter what the flood does to the model queue.
    let prober = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, 8, 50, 0x4ea1)
                .unwrap_or_else(|e| fail(&format!("prober connect: {e}")));
            client
                .set_timeout(Some(Duration::from_secs(10)))
                .unwrap_or_else(|e| fail(&e.to_string()));
            let mut samples_ms: Vec<f64> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let t = Instant::now();
                client
                    .call_ok(&Request::Health)
                    .unwrap_or_else(|e| fail(&format!("health probe failed mid-soak: {e}")));
                samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
                std::thread::sleep(Duration::from_millis(5));
            }
            samples_ms
        })
    };

    // Let the flood rage, hot-swap the model at the midpoint, keep flooding.
    let half = duration / 2;
    std::thread::sleep(half);
    let swapped_version = server
        .swap(&swap_path)
        .unwrap_or_else(|e| fail(&format!("mid-soak swap: {e}")));
    println!("soak: hot swap submitted mid-flood (installing version {swapped_version})");
    std::thread::sleep(duration - half);
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().unwrap_or_else(|_| fail("soak thread panicked"));
    }
    let mut samples_ms = prober.join().unwrap_or_else(|_| fail("prober thread panicked"));
    samples_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let health_p99_ms = percentile(&samples_ms, 0.99);

    let stats = server.stats();
    let drain = Instant::now();
    server.shutdown();
    let drain_ms = drain.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&swap_path);

    let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
    println!(
        "soak: ok={} overloaded={} expired={} rejected={} too_large={} refused={} draining={} internal={} untyped={}",
        get(&ledger.ok),
        get(&ledger.overloaded),
        get(&ledger.expired),
        get(&ledger.rejected),
        get(&ledger.too_large),
        get(&ledger.refused),
        get(&ledger.draining),
        get(&ledger.internal),
        get(&ledger.untyped),
    );
    println!(
        "soak: versions v1={} v2={}; server shed={} expired={} swaps={} model_version={}",
        get(&ledger.v1),
        get(&ledger.v2),
        stats.shed,
        stats.expired,
        stats.swaps,
        stats.model_version,
    );
    println!(
        "soak: health probes={} p99={health_p99_ms:.3}ms; drain took {drain_ms:.1}ms",
        samples_ms.len()
    );

    let mut failures = Vec::new();
    if get(&ledger.untyped) > 0 {
        failures.push(format!("{} untyped failures (contract: zero)", get(&ledger.untyped)));
    }
    if get(&ledger.internal) > 0 {
        failures.push(format!("{} internal errors", get(&ledger.internal)));
    }
    if health_p99_ms >= 5.0 {
        failures.push(format!("health p99 {health_p99_ms:.3}ms >= 5ms"));
    }
    if stats.shed == 0 {
        failures.push("flood never shed — overload was not reached".into());
    }
    if stats.expired == 0 {
        failures.push("no queued work expired — deadlines untested".into());
    }
    if stats.swaps != 1 || stats.model_version != swapped_version {
        failures.push(format!(
            "swap did not install (swaps={}, version={})",
            stats.swaps, stats.model_version
        ));
    }
    if get(&ledger.v1) == 0 || get(&ledger.v2) == 0 {
        failures.push("flood did not observe both model versions".into());
    }
    if failures.is_empty() {
        println!("soak passed: every response typed, health fast path held, swap atomic, drain clean");
    } else {
        for f in &failures {
            eprintln!("soak FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// Protocol conformance drive against a live server serving the artifact
/// at `frozen` (verify.sh stage).
fn run_check(addr: &str, frozen: &std::path::Path) {
    let model = FrozenModel::load(frozen)
        .unwrap_or_else(|e| fail(&format!("cannot load {}: {e}", frozen.display())));
    let mut client = connect_patiently(addr);
    let expect = |cond: bool, what: &str| {
        if !cond {
            fail(&format!("check failed: {what}"));
        }
    };

    // 1. Health names the model and its degradation state.
    let health = client.call_ok(&Request::Health).unwrap_or_else(|e| fail(&e.to_string()));
    let num_nodes = health.get("num_nodes").and_then(Json::as_usize).unwrap_or(0);
    expect(
        num_nodes == model.meta.num_nodes,
        &format!("health reports {num_nodes} nodes, the artifact has {}", model.meta.num_nodes),
    );
    let status = health.get("status").and_then(Json::as_str).unwrap_or("");
    expect(
        matches!(status, "ok" | "degraded" | "draining"),
        "health status must be ok|degraded|draining",
    );
    expect(
        health.get("model_version").and_then(Json::as_usize) >= Some(1),
        "health must carry model_version >= 1",
    );

    // 2. A valid predict answers with a class and a normalized distribution.
    let pred =
        client.call_ok(&Request::Predict { node: 0 }).unwrap_or_else(|e| fail(&e.to_string()));
    let probs = pred.get("probs").and_then(Json::to_f32s).unwrap_or_default();
    expect(!probs.is_empty(), "predict must return probs");
    let mass: f32 = probs.iter().sum();
    expect((mass - 1.0).abs() < 1e-3, "probs must sum to ~1");
    expect(
        pred.get("model_version").and_then(Json::as_usize).is_some(),
        "predict must be stamped with model_version",
    );

    // 3. top_k is sorted descending.
    let topk = client
        .call_ok(&Request::TopK { node: 0, k: 3 })
        .unwrap_or_else(|e| fail(&e.to_string()));
    let top: &[Json] = topk.get("top").and_then(Json::as_arr).unwrap_or(&[]);
    expect(!top.is_empty(), "top_k must return entries");
    let top_probs: Vec<f64> =
        top.iter().filter_map(|t| t.get("prob").and_then(Json::as_f64)).collect();
    expect(top_probs.windows(2).all(|w| w[0] >= w[1]), "top_k must be sorted descending");

    // 4. Garbage JSON gets a typed parse error, not a hangup.
    let garbage = client
        .roundtrip_raw("{\"op\": \"predict\", node}")
        .unwrap_or_else(|e| fail(&e.to_string()));
    let doc = Json::parse(&garbage).unwrap_or_else(|e| fail(&format!("garbage response: {e}")));
    expect(doc.get("ok").and_then(Json::as_bool) == Some(false), "garbage must be ok:false");

    // 5. Unknown node id gets the typed unknown_node error.
    let oob = client
        .call(&Request::Predict { node: num_nodes + 17 })
        .unwrap_or_else(|e| fail(&e.to_string()));
    let kind = oob
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("<missing>")
        .to_string();
    expect(kind == "unknown_node", &format!("out-of-range node must be unknown_node, got {kind}"));

    // 6. Stats carries the overload-contract counters.
    let stats = client.call_ok(&Request::Stats).unwrap_or_else(|e| fail(&e.to_string()));
    for field in ["queue_depth", "shed", "expired", "swaps", "model_version", "connections"] {
        expect(
            stats.get(field).and_then(Json::as_usize).is_some(),
            &format!("stats must carry numeric '{field}'"),
        );
    }

    // 7. The server is still healthy after all the abuse.
    client.call_ok(&Request::Health).unwrap_or_else(|e| fail(&e.to_string()));
    println!("serve check ok: health, predict, top_k, garbage, unknown node, stats all conform");
}

fn main() {
    let args = parse_args();
    if args.check || args.shutdown {
        let Some(addr) = &args.addr else {
            eprintln!("--check/--shutdown need --addr HOST:PORT");
            usage()
        };
        if args.check {
            let Some(frozen) = &args.frozen else {
                eprintln!("--check needs --frozen PATH, the artifact the server serves");
                usage()
            };
            run_check(addr, frozen);
        }
        if args.shutdown {
            let mut client = connect_patiently(addr);
            client
                .call_ok(&Request::Shutdown)
                .unwrap_or_else(|e| fail(&format!("shutdown: {e}")));
            println!("server at {addr} acknowledged shutdown");
        }
    } else if args.soak {
        run_soak(&args);
    } else {
        run_bench(&args);
    }
}
