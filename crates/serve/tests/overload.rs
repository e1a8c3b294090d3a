//! Chaos suite for the overload contract (DESIGN.md §12). The server under
//! test gets floods past its admission queue, requests that expire in the
//! queue, oversized and trickled request lines, silent campers, connection
//! storms, mid-request hangups, a 10k-line protocol fuzz, and a hot model
//! swap in the middle of a flood — and must answer every single line with a
//! typed response, keep the health fast path responsive, stamp every answer
//! with exactly the model version that computed it, and drain cleanly on
//! shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lasagne_gnn::{models, GraphContext, Hyper};
use lasagne_graph::generators::{dc_sbm, DcSbmConfig};
use lasagne_serve::{freeze, Client, Engine, FrozenModel, Request, Server, ServerConfig};
use lasagne_tensor::TensorRng;
use lasagne_testkit::chaos;
use lasagne_testkit::{Json, Rng};

const IN_DIM: usize = 6;
const CLASSES: usize = 3;
const NODES: usize = 24;

/// Same 24-node dc_sbm fixture as `server_robustness.rs`; `weight_seed`
/// picks the GCN's init so two seeds give two genuinely different models
/// for the hot-swap checks.
fn tiny_frozen(weight_seed: u64) -> FrozenModel {
    let mut rng = TensorRng::seed_from_u64(11);
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
    let ctx = GraphContext::new(&g, features, labels, CLASSES);
    let hyper = Hyper { hidden: 4, depth: 2, dropout_keep: 1.0, ..Hyper::default() };
    let model = models::Gcn::new(IN_DIM, CLASSES, &hyper, weight_seed);
    freeze(&model, &ctx, "tiny").expect("freeze")
}

fn start_with(config: ServerConfig) -> (Server, String) {
    let engine = Engine::new(tiny_frozen(5)).expect("engine");
    let server = Server::start(engine, config).expect("server start");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn tight_config() -> ServerConfig {
    ServerConfig { addr: "127.0.0.1:0".into(), debug_ops: true, ..ServerConfig::default() }
}

fn error_field(doc: &Json, field: &str) -> Option<f64> {
    doc.get("error").and_then(|e| e.get(field)).and_then(Json::as_f64)
}

fn error_kind(doc: &Json) -> String {
    doc.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("<missing>")
        .to_string()
}

fn assert_healthy(addr: &str) {
    let mut client = Client::connect(addr).expect("connect for health");
    let health = client.call_ok(&Request::Health).expect("health after abuse");
    assert!(health.get("status").and_then(Json::as_str).is_some());
    let pred = client.call_ok(&Request::Predict { node: 1 }).expect("predict after abuse");
    let probs = pred.get("probs").and_then(Json::to_f32s).expect("probs");
    assert_eq!(probs.len(), CLASSES);
}

/// Park the batcher in a `debug_sleep` so the admission queue can be
/// filled deterministically; returns the sleeper's thread.
fn stall_batcher(addr: &str, ms: u64) -> std::thread::JoinHandle<()> {
    let addr = addr.to_string();
    let handle = std::thread::spawn(move || {
        let mut c = Client::connect(&addr).expect("sleeper connect");
        c.call_ok(&Request::DebugSleep { ms }).expect("debug_sleep ack");
    });
    // Long enough for the batcher to have dequeued the sleeper, so the
    // jobs queued next sit behind it rather than beside it.
    std::thread::sleep(Duration::from_millis(150));
    handle
}

#[test]
fn full_queue_sheds_typed_overloaded_with_retry_hint() {
    let (_server, addr) = start_with(ServerConfig {
        queue_capacity: 2,
        max_batch: 1,
        deadline_ms: 0,
        ..tight_config()
    });
    let sleeper = stall_batcher(&addr, 800);
    // Fill the 2-slot queue behind the sleeping batcher.
    let fillers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("filler connect");
                c.call_ok(&Request::Predict { node: i }).expect("queued predict succeeds")
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    // Queue is full: this one must be shed immediately, not block.
    let mut client = Client::connect(&addr).expect("connect");
    let t = Instant::now();
    let doc = client.call(&Request::Predict { node: 3 }).expect("shed response");
    assert!(t.elapsed() < Duration::from_millis(300), "shed must be immediate, not queued");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&doc), "overloaded");
    let hint = error_field(&doc, "retry_after_ms").expect("structured retry_after_ms");
    assert!(hint >= 1.0, "retry hint must be at least 1 ms, got {hint}");
    // While shedding, health must say degraded (queue full + recent shed).
    let health = client.call_ok(&Request::Health).expect("health while overloaded");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("degraded"));
    // The queued work itself still completes once the batcher wakes.
    for f in fillers {
        f.join().expect("filler thread");
    }
    sleeper.join().expect("sleeper thread");
    assert_healthy(&addr);
}

#[test]
fn expired_jobs_answer_deadline_exceeded_with_version() {
    let (_server, addr) = start_with(ServerConfig {
        deadline_ms: 100,
        max_batch: 1,
        ..tight_config()
    });
    let sleeper = stall_batcher(&addr, 500);
    // Queued behind a 500 ms sleep with a 100 ms deadline: must expire.
    let mut client = Client::connect(&addr).expect("connect");
    let doc = client.call(&Request::Predict { node: 0 }).expect("expired response");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&doc), "deadline_exceeded");
    assert_eq!(error_field(&doc, "deadline_ms"), Some(100.0));
    let waited = error_field(&doc, "waited_ms").expect("structured waited_ms");
    assert!(waited >= 100.0, "an expired job waited at least its deadline, got {waited}");
    // The drop is stamped by the batcher, so it carries the model version.
    assert_eq!(doc.get("model_version").and_then(Json::as_usize), Some(1));
    sleeper.join().expect("sleeper thread");
    assert_healthy(&addr);
}

#[test]
fn oversized_request_line_is_typed_then_the_connection_closes() {
    let (_server, addr) = start_with(ServerConfig {
        max_request_bytes: 256,
        debug_ops: false,
        ..tight_config()
    });
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let big = format!("{{\"op\":\"predict\",\"pad\":\"{}\"}}\n", "x".repeat(1000));
    stream.write_all(big.as_bytes()).expect("send oversized line");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("typed response before close");
    let doc = Json::parse(line.trim_end()).expect("response parses");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&doc), "request_too_large");
    assert_eq!(error_field(&doc, "limit"), Some(256.0));
    // Framing is lost, so the server must close: next read is EOF.
    line.clear();
    let n = reader.read_line(&mut line).expect("read after refusal");
    assert_eq!(n, 0, "connection must be closed after request_too_large");
    assert_healthy(&addr);
}

#[test]
fn connection_cap_refuses_the_excess_typed() {
    let (server, addr) = start_with(ServerConfig {
        max_connections: 2,
        debug_ops: false,
        ..tight_config()
    });
    let mut c1 = Client::connect(&addr).expect("c1");
    let mut c2 = Client::connect(&addr).expect("c2");
    c1.call_ok(&Request::Health).expect("c1 live");
    c2.call_ok(&Request::Health).expect("c2 live");
    // Third connection: typed refusal, then close.
    let stream = TcpStream::connect(&addr).expect("c3 tcp connect");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("refusal line");
    let doc = Json::parse(line.trim_end()).expect("refusal parses");
    assert_eq!(error_kind(&doc), "too_many_connections");
    assert_eq!(error_field(&doc, "limit"), Some(2.0));
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("post-refusal read"), 0);
    // Freeing a slot re-admits: drop c2, its reader notices EOF within a
    // poll tick and frees the slot, and a fresh connect succeeds. Connect
    // only once the slot is free: the acceptor refuses with a typed line
    // after the TCP handshake, which no connect retry can see.
    drop(c2);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().connections > 1 {
        assert!(Instant::now() < deadline, "c2's slot never freed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut c4 = Client::connect(&addr).expect("slot freed");
    c4.call_ok(&Request::Health).expect("c4 live");
    c1.call_ok(&Request::Health).expect("c1 still live");
}

#[test]
fn slowloris_is_bounded_by_the_line_cap() {
    let (_server, addr) = start_with(ServerConfig {
        max_request_bytes: 128,
        poll_interval_ms: 20,
        debug_ops: false,
        ..tight_config()
    });
    // Trickle 1 byte/ms, never sending a newline. At byte 129 the server
    // answers request_too_large and closes (after its bounded linger); the
    // trickler must observe the close long before its 4096-byte payload
    // runs out.
    let payload = vec![b'a'; 4096];
    let (sent, outcome) =
        chaos::slow_sender(&addr, &payload, Duration::from_millis(1)).expect("slow send");
    assert_eq!(
        outcome,
        chaos::SlowSendOutcome::ServerClosed,
        "server must cut a slowloris off (got {sent} bytes through)"
    );
    assert_healthy(&addr);
}

#[test]
fn silent_idle_connections_are_reaped() {
    let (server, addr) = start_with(ServerConfig {
        idle_timeout_ms: 200,
        poll_interval_ms: 50,
        debug_ops: false,
        ..tight_config()
    });
    let reaped = chaos::silent_camper(&addr, Duration::from_secs(3)).expect("camper");
    assert!(reaped, "a connection silent past idle_timeout_ms must be closed");
    // The reaped camper no longer counts against the connection gauge.
    std::thread::sleep(Duration::from_millis(100));
    let stats = server.stats();
    assert_eq!(stats.connections, 0, "reaped connections must release their slot");
    assert_healthy(&addr);
}

#[test]
fn mid_request_disconnects_leak_nothing() {
    let (server, addr) = start_with(ServerConfig { debug_ops: false, ..tight_config() });
    for i in 0..20 {
        chaos::drop_mid_request(&addr, "{\"op\":\"pre").unwrap_or_else(|e| panic!("drop {i}: {e}"));
    }
    assert_healthy(&addr);
    // Torn connections must fully release their reader slots.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if server.stats().connections == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "{} connections leaked", server.stats().connections);
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn health_fast_path_answers_while_the_queue_is_full() {
    let (_server, addr) = start_with(ServerConfig {
        queue_capacity: 2,
        max_batch: 1,
        deadline_ms: 0,
        ..tight_config()
    });
    let sleeper = stall_batcher(&addr, 700);
    let fillers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("filler connect");
                c.call_ok(&Request::Predict { node: i }).expect("queued predict")
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    // Queue full, batcher asleep — health and stats must still answer
    // immediately because control ops never enter the model-work queue.
    let mut probe = Client::connect(&addr).expect("probe connect");
    probe.set_timeout(Some(Duration::from_millis(500))).expect("probe deadline");
    for _ in 0..20 {
        let t = Instant::now();
        let health = probe.call_ok(&Request::Health).expect("health under load");
        assert!(
            t.elapsed() < Duration::from_millis(250),
            "health stalled {:?} behind model work",
            t.elapsed()
        );
        assert_eq!(health.get("status").and_then(Json::as_str), Some("degraded"));
        assert_eq!(health.get("queue_depth").and_then(Json::as_usize), Some(2));
        let stats = probe.call_ok(&Request::Stats).expect("stats under load");
        assert_eq!(stats.get("queue_depth").and_then(Json::as_usize), Some(2));
    }
    for f in fillers {
        f.join().expect("filler");
    }
    sleeper.join().expect("sleeper");
    assert_healthy(&addr);
}

#[test]
fn stats_surfaces_shed_expired_and_swap_counters_over_the_wire() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lasagne-overload-stats-{}.json", std::process::id()));
    tiny_frozen(6).save(&path).expect("save swap target");
    let (server, addr) = start_with(ServerConfig {
        queue_capacity: 1,
        max_batch: 1,
        deadline_ms: 80,
        ..tight_config()
    });
    let sleeper = stall_batcher(&addr, 600);
    // One job fills the 1-slot queue (and will expire), the next is shed.
    let expired = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("expired connect");
            c.call(&Request::Predict { node: 0 }).expect("expired response")
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    let mut client = Client::connect(&addr).expect("connect");
    let shed = client.call(&Request::Predict { node: 1 }).expect("shed response");
    assert_eq!(error_kind(&shed), "overloaded");
    assert_eq!(error_kind(&expired.join().expect("expired thread")), "deadline_exceeded");
    sleeper.join().expect("sleeper");
    let v2 = server.swap(&path).expect("swap");
    assert_eq!(v2, 2);
    // Swap installs at the next batch boundary; poke it and poll.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.model_version() != 2 {
        assert!(Instant::now() < deadline, "swap never installed");
        std::thread::sleep(Duration::from_millis(20));
    }
    let doc = client.call_ok(&Request::Stats).expect("stats");
    assert!(doc.get("shed").and_then(Json::as_usize).unwrap_or(0) >= 1);
    assert!(doc.get("expired").and_then(Json::as_usize).unwrap_or(0) >= 1);
    assert_eq!(doc.get("swaps").and_then(Json::as_usize), Some(1));
    assert_eq!(doc.get("model_version").and_then(Json::as_usize), Some(2));
    assert!(doc.get("connections").and_then(Json::as_usize).unwrap_or(0) >= 1);
    assert!(doc.get("queue_depth").and_then(Json::as_usize).is_some());
    let _ = std::fs::remove_file(path);
}

#[test]
fn swap_model_verb_swaps_and_bad_paths_fail_typed() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lasagne-overload-verb-{}.json", std::process::id()));
    tiny_frozen(6).save(&path).expect("save swap target");
    let (server, addr) = start_with(ServerConfig { debug_ops: false, ..tight_config() });
    let mut client = Client::connect(&addr).expect("connect");
    // A bad path fails typed at load time and changes nothing.
    let bad = client.call(&Request::SwapModel { path: "/nonexistent/m.json".into() }).expect("bad");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&bad), "io");
    assert_eq!(server.model_version(), 1);
    // The verb: ack names the pending version...
    let ack = client.swap_model(path.to_str().expect("utf8 path")).expect("swap_model");
    assert_eq!(ack.get("status").and_then(Json::as_str), Some("pending"));
    assert_eq!(ack.get("model_version").and_then(Json::as_usize), Some(2));
    // ...and after installation every prediction is the new model's,
    // bitwise equal to a cold engine on the same file.
    let cold = Engine::load_path(&path).expect("cold engine");
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.model_version() != 2 {
        assert!(Instant::now() < deadline, "swap never installed");
        std::thread::sleep(Duration::from_millis(20));
    }
    for node in 0..NODES {
        let doc = client.call_ok(&Request::Predict { node }).expect("predict after swap");
        assert_eq!(doc.get("model_version").and_then(Json::as_usize), Some(2));
        let wire: Vec<u32> = doc
            .get("probs")
            .and_then(Json::to_f32s)
            .expect("probs")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let local: Vec<u32> =
            cold.predict(node).expect("cold predict").probs.iter().map(|v| v.to_bits()).collect();
        assert_eq!(wire, local, "node {node}: swapped model must match a cold load bitwise");
    }
    let _ = std::fs::remove_file(path);
}

/// The headline atomicity test: hot-swap in the middle of a multi-client
/// flood. Every single response must carry exactly one model version, and
/// its probabilities must be bitwise what a cold engine on *that* version
/// computes — no torn batches, no mixed weights, no version skew.
#[test]
fn hot_swap_mid_flood_is_atomic_and_bitwise_versioned() {
    let dir = std::env::temp_dir();
    let path_b = dir.join(format!("lasagne-overload-swap-{}.json", std::process::id()));
    tiny_frozen(6).save(&path_b).expect("save model B");
    let cold_a = Engine::new(tiny_frozen(5)).expect("cold A");
    let cold_b = Engine::load_path(&path_b).expect("cold B");
    // The check below is vacuous if A and B happen to agree; prove they don't.
    assert_ne!(
        cold_a.predict(0).expect("a").probs[0].to_bits(),
        cold_b.predict(0).expect("b").probs[0].to_bits(),
        "fixture models must differ for the swap test to mean anything"
    );

    let (server, addr) = start_with(ServerConfig {
        max_batch: 8,
        deadline_ms: 0,
        debug_ops: false,
        ..tight_config()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let floods: Vec<_> = (0..4)
        .map(|t| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("flood connect");
                let mut seen: Vec<(u64, usize, Vec<u32>)> = Vec::new();
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let node = i % NODES;
                    i += 1;
                    let doc = client.call_ok(&Request::Predict { node }).expect("flood predict");
                    let version =
                        doc.get("model_version").and_then(Json::as_usize).expect("version stamp");
                    let bits: Vec<u32> = doc
                        .get("probs")
                        .and_then(Json::to_f32s)
                        .expect("probs")
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    seen.push((version as u64, node, bits));
                }
                seen
            })
        })
        .collect();
    // Let version-1 traffic accumulate, swap, then let version-2 traffic
    // accumulate. The swap itself loads + propagates on this thread while
    // the flood keeps being answered.
    std::thread::sleep(Duration::from_millis(100));
    let v2 = server.swap(&path_b).expect("swap mid-flood");
    assert_eq!(v2, 2);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.model_version() != 2 {
        assert!(Instant::now() < deadline, "swap never installed mid-flood");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);

    let mut v1 = 0u64;
    let mut v2_seen = 0u64;
    for flood in floods {
        for (version, node, bits) in flood.join().expect("flood thread") {
            let reference = match version {
                1 => {
                    v1 += 1;
                    &cold_a
                }
                2 => {
                    v2_seen += 1;
                    &cold_b
                }
                other => panic!("response stamped with unknown version {other}"),
            };
            let local: Vec<u32> = reference
                .predict(node)
                .expect("reference predict")
                .probs
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                bits, local,
                "node {node} @ v{version}: response does not match that version's cold engine"
            );
        }
    }
    assert!(v1 > 0, "flood never observed the old model");
    assert!(v2_seen > 0, "flood never observed the new model");
    assert_eq!(server.stats().swaps, 1);
    let _ = std::fs::remove_file(path_b);
}

/// 10k PRNG lines — valid requests, near-miss mutations, garbage, and
/// oversized lines — and the server owes a well-formed JSON response with
/// an `ok` bool (plus a typed `error.kind` when false) for every one.
/// Never a hang, never a panic, never a silent drop.
#[test]
fn protocol_fuzz_10k_lines_every_response_is_typed() {
    const MAX_BYTES: usize = 2048;
    let (_server, addr) = start_with(ServerConfig {
        max_request_bytes: MAX_BYTES,
        deadline_ms: 0,
        debug_ops: false,
        ..tight_config()
    });
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    let valid_pool = |rng: &mut Rng| -> String {
        match rng.index(7) {
            0 => Request::Predict { node: rng.index(NODES * 2) }.to_line(),
            1 => Request::TopK { node: rng.index(NODES * 2), k: rng.range_usize(1, 6) }.to_line(),
            2 => Request::Health.to_line(),
            3 => Request::Stats.to_line(),
            4 => Request::AddEdge { u: rng.index(NODES), v: rng.index(NODES) }.to_line(),
            5 => Request::RemoveEdge { u: rng.index(NODES), v: rng.index(NODES) }.to_line(),
            _ => {
                let n = if rng.bernoulli(0.5) { IN_DIM } else { rng.index(3) };
                Request::AddNode { features: vec![0.25; n] }.to_line()
            }
        }
    };
    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(10))).expect("fuzz deadline");
    let mut reconnects = 0u32;
    for i in 0..10_000 {
        let line = match rng.index(4) {
            0 => valid_pool(&mut rng),
            1 => {
                let base = valid_pool(&mut rng);
                chaos::mutate_line(&mut rng, &base)
            }
            2 => chaos::garbage_line(&mut rng, 200),
            // Oversized on purpose, ~1 in 40 lines.
            _ if rng.bernoulli(0.1) => chaos::garbage_line(&mut rng, MAX_BYTES * 2).repeat(3),
            _ => chaos::garbage_line(&mut rng, 200),
        };
        let response = client
            .roundtrip_raw(&line)
            .unwrap_or_else(|e| panic!("iteration {i}: no response ({e}) for line {line:?}"));
        let doc = Json::parse(&response)
            .unwrap_or_else(|e| panic!("iteration {i}: unparseable response {response:?}: {e}"));
        let ok = doc
            .get("ok")
            .and_then(Json::as_bool)
            .unwrap_or_else(|| panic!("iteration {i}: response without ok bool: {response:?}"));
        if !ok {
            let kind = error_kind(&doc);
            assert_ne!(kind, "<missing>", "iteration {i}: untyped failure {response:?}");
            assert_ne!(kind, "internal", "iteration {i}: fuzz line caused a panic: {line:?}");
            if kind == "request_too_large" {
                // Framing is gone; the server closed us. Reconnect.
                reconnects += 1;
                client = Client::connect(&addr).expect("reconnect after oversize");
                client.set_timeout(Some(Duration::from_secs(10))).expect("fuzz deadline");
            }
        }
    }
    assert!(reconnects > 0, "fuzz never exercised the oversized-line path");
    assert_healthy(&addr);
}

/// Graceful drain: jobs already admitted when shutdown starts still get
/// real answers; `shutdown()` joins without abandoning them.
#[test]
fn graceful_shutdown_drains_admitted_work() {
    let (server, addr) = start_with(ServerConfig {
        max_batch: 1,
        deadline_ms: 0,
        ..tight_config()
    });
    let sleeper = stall_batcher(&addr, 400);
    let queued: Vec<_> = (0..10)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("queued connect");
                c.call(&Request::Predict { node: i % NODES }).expect("queued response")
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    // Shutdown with 10 admitted jobs behind a sleeping batcher: all of
    // them must drain with real answers before the join returns.
    server.shutdown();
    for (i, thread) in queued.into_iter().enumerate() {
        let doc = thread.join().expect("queued thread");
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "admitted job {i} was abandoned during drain: {doc:?}"
        );
    }
    sleeper.join().expect("sleeper");
    // After the drain, new model work is refused typed (reader threads
    // outlive the drain to answer exactly this way).
    let mut late = Client::connect_with_retry(&addr, 3, 20, 9);
    if let Ok(client) = late.as_mut() {
        if let Ok(doc) = client.call(&Request::Predict { node: 0 }) {
            assert_eq!(error_kind(&doc), "draining");
        }
    }
}

/// `connect_with_retry` survives a server that binds late, and its jittered
/// schedule is deterministic per seed.
#[test]
fn connect_with_retry_rides_out_a_late_binding_server() {
    // Reserve a port, release it, then bind it again after a delay.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);
    let addr_for_server = addr.clone();
    let server_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let engine = Engine::new(tiny_frozen(5)).expect("engine");
        Server::start(engine, ServerConfig { addr: addr_for_server, ..ServerConfig::default() })
            .expect("late server")
    });
    // Plain connect fails immediately; the retrying connect hangs on.
    assert!(Client::connect(&addr).is_err(), "port must be closed at first");
    let mut client =
        Client::connect_with_retry(&addr, 10, 50, 42).expect("retry outlasts the bind delay");
    let server = server_thread.join().expect("server thread");
    client.call_ok(&Request::Health).expect("health over retried connection");
    server.shutdown();
}
