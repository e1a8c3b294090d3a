//! Fault-injection suite for the TCP server and the frozen-file loader.
//! The contract under test: no request — however malformed, out of range,
//! or deliberately panicking — may take the server down. After every abuse
//! the same server must still answer `health` and serve correct
//! predictions. Frozen files, in turn, must fail *typed* (corrupt / parse
//! / mismatch), never by panicking or by silently serving garbage.

use std::io::Write;
use std::net::TcpStream;

use lasagne_gnn::{models, GraphContext, Hyper};
use lasagne_graph::generators::{dc_sbm, DcSbmConfig};
use lasagne_serve::{
    freeze, Client, Engine, FrozenModel, FrozenWeight, LazyEngine, Request, Server, ServerConfig,
};
use lasagne_tensor::{Tensor, TensorRng};
use lasagne_testkit::Json;

const IN_DIM: usize = 6;
const CLASSES: usize = 3;
const NODES: usize = 24;

fn tiny_frozen() -> lasagne_serve::FrozenModel {
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
    let model = models::Gcn::new(IN_DIM, CLASSES, &hyper, 5);
    freeze(&model, &ctx, "tiny").expect("freeze")
}

fn start_server(debug_ops: bool) -> (Server, String) {
    let engine = Engine::new(tiny_frozen()).expect("engine");
    let server = Server::start(
        engine,
        ServerConfig { addr: "127.0.0.1:0".into(), debug_ops, ..ServerConfig::default() },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();
    (server, addr)
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
    assert_eq!(health.get("num_nodes").and_then(Json::as_usize), Some(NODES));
    let pred = client.call_ok(&Request::Predict { node: 1 }).expect("predict after abuse");
    let probs = pred.get("probs").and_then(Json::to_f32s).expect("probs");
    assert_eq!(probs.len(), CLASSES);
    assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-3, "probs must stay normalized");
}

#[test]
fn garbage_json_gets_a_typed_error_on_a_live_connection() {
    let (_server, addr) = start_server(false);
    let mut client = Client::connect(&addr).expect("connect");
    let response = client.roundtrip_raw("{\"op\": \"predict\", node}").expect("roundtrip");
    let doc = Json::parse(&response).expect("error response must still be valid JSON");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&doc), "parse");
    // Same connection keeps working after the bad line.
    let pred = client.call_ok(&Request::Predict { node: 0 }).expect("predict after garbage");
    assert!(pred.get("class").and_then(Json::as_usize).is_some());
    assert_healthy(&addr);
}

#[test]
fn truncated_request_then_hangup_does_not_kill_the_server() {
    let (_server, addr) = start_server(false);
    {
        // Half a request, no newline, then a hard hangup.
        let mut raw = TcpStream::connect(&addr).expect("raw connect");
        raw.write_all(b"{\"op\":\"pre").expect("partial write");
    } // dropped here — server side sees EOF mid-line
    assert_healthy(&addr);
}

#[test]
fn wrong_field_types_and_unknown_ops_are_bad_request() {
    let (_server, addr) = start_server(false);
    let mut client = Client::connect(&addr).expect("connect");
    for (line, what) in [
        ("{\"op\":\"predict\"}", "predict without node"),
        ("{\"op\":\"predict\",\"node\":-3}", "negative node"),
        ("{\"op\":\"top_k\",\"node\":0,\"k\":0}", "k = 0"),
        ("{\"op\":\"florp\"}", "unknown op"),
        ("[1,2,3]", "non-object request"),
    ] {
        let response = client.roundtrip_raw(line).expect(what);
        let doc = Json::parse(&response).expect(what);
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{what}");
        assert_eq!(error_kind(&doc), "bad_request", "{what}");
    }
    assert_healthy(&addr);
}

#[test]
fn unknown_node_is_a_typed_unknown_node_error() {
    let (_server, addr) = start_server(false);
    let mut client = Client::connect(&addr).expect("connect");
    let doc = client.call(&Request::Predict { node: NODES + 100 }).expect("call");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&doc), "unknown_node");
    assert_healthy(&addr);
}

#[test]
fn debug_panic_is_isolated_to_one_request() {
    let (server, addr) = start_server(true);
    let mut client = Client::connect(&addr).expect("connect");
    let doc = client.call(&Request::DebugPanic).expect("panic request must get a response");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&doc), "internal");
    // The batcher caught the panic; the same server keeps serving.
    assert_healthy(&addr);
    let stats = server.stats();
    assert!(stats.requests >= 1, "panicking request still counts in stats");
}

#[test]
fn debug_panic_is_refused_when_debug_ops_are_off() {
    let (_server, addr) = start_server(false);
    let mut client = Client::connect(&addr).expect("connect");
    let doc = client.call(&Request::DebugPanic).expect("call");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&doc), "bad_request");
    assert_healthy(&addr);
}

#[test]
fn concurrent_clients_are_batched_and_counted() {
    let (server, addr) = start_server(false);
    let per_client = 25usize;
    let clients = 8usize;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for i in 0..per_client {
                    let node = (c * per_client + i) % NODES;
                    client.call_ok(&Request::Predict { node }).expect("predict");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let stats = server.stats();
    assert_eq!(stats.requests, (clients * per_client) as u64);
    assert!(stats.batches >= 1 && stats.batches <= stats.requests);
    assert!(stats.max_batch >= 1);
    assert!(stats.p99_us >= stats.p50_us);
}

#[test]
fn protocol_shutdown_stops_the_server() {
    let (server, addr) = start_server(false);
    let mut client = Client::connect(&addr).expect("connect");
    client.call_ok(&Request::Shutdown).expect("shutdown ack");
    // wait() joins the accept + batcher threads; a hung shutdown would hang
    // the test harness here, which is exactly what this test guards.
    server.wait();
}

/// Malformed streaming mutations: every abuse gets a typed error and the
/// server keeps serving correct predictions afterwards.
#[test]
fn malformed_mutations_are_typed_and_leave_the_server_healthy() {
    let (_server, addr) = start_server(false);
    let mut client = Client::connect(&addr).expect("connect");
    for (line, kind, what) in [
        ("{\"op\":\"add_edge\",\"u\":3}", "bad_request", "add_edge without v"),
        ("{\"op\":\"add_edge\",\"u\":\"a\",\"v\":1}", "bad_request", "non-integer endpoint"),
        ("{\"op\":\"add_edge\",\"u\":3,\"v\":3}", "bad_request", "self-loop"),
        ("{\"op\":\"add_edge\",\"u\":0,\"v\":9999}", "unknown_node", "unknown add endpoint"),
        ("{\"op\":\"remove_edge\",\"u\":9999,\"v\":0}", "unknown_node", "unknown remove endpoint"),
        ("{\"op\":\"add_node\"}", "bad_request", "add_node without features"),
        ("{\"op\":\"add_node\",\"features\":[0.5]}", "bad_request", "feature-length mismatch"),
        ("{\"op\":\"add_node\",\"features\":\"x\"}", "bad_request", "non-array features"),
    ] {
        let response = client.roundtrip_raw(line).expect(what);
        let doc = Json::parse(&response).expect(what);
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{what}");
        assert_eq!(error_kind(&doc), kind, "{what}");
    }
    assert_healthy(&addr);
}

/// Duplicate insert and missing delete are `bad_request`, and a toggle pair
/// leaves the server exactly where it started.
#[test]
fn duplicate_and_missing_edges_are_bad_request() {
    let (_server, addr) = start_server(false);
    let mut client = Client::connect(&addr).expect("connect");
    // The generator decides whether (2, 17) exists; force it to exist.
    let first = client.call(&Request::AddEdge { u: 2, v: 17 }).expect("first add");
    let added_by_us = first.get("ok").and_then(Json::as_bool) == Some(true);
    let dup = client.call(&Request::AddEdge { u: 2, v: 17 }).expect("duplicate add");
    assert_eq!(dup.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&dup), "bad_request", "duplicate edge");
    // Endpoint order must not matter for the delete.
    let removed = client.remove_edge(17, 2).expect("remove");
    assert_eq!(removed.get("op").and_then(Json::as_str), Some("remove_edge"));
    assert_eq!(removed.get("num_nodes").and_then(Json::as_usize), Some(NODES));
    let missing = client.call(&Request::RemoveEdge { u: 2, v: 17 }).expect("remove again");
    assert_eq!(missing.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&missing), "bad_request", "missing edge");
    if !added_by_us {
        client.add_edge(2, 17).expect("restore pre-existing edge");
    }
    assert_healthy(&addr);
}

/// `add_node` over the wire: the response names the new id, and the grown
/// node is immediately queryable with a normalized distribution.
#[test]
fn add_node_over_the_wire_is_immediately_queryable() {
    let (_server, addr) = start_server(false);
    let mut client = Client::connect(&addr).expect("connect");
    let doc = client.add_node(&[0.1; IN_DIM]).expect("add_node");
    assert_eq!(doc.get("node").and_then(Json::as_usize), Some(NODES));
    assert_eq!(doc.get("num_nodes").and_then(Json::as_usize), Some(NODES + 1));
    assert_eq!(doc.get("full_recompute").and_then(Json::as_bool), Some(true));
    client.add_edge(NODES, 0).expect("wire the new node in");
    let pred = client.call_ok(&Request::Predict { node: NODES }).expect("predict new node");
    let probs = pred.get("probs").and_then(Json::to_f32s).expect("probs");
    assert_eq!(probs.len(), CLASSES);
    assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-3);
    // `health` reports the live meta snapshot; liveness itself must hold.
    let health = client.call_ok(&Request::Health).expect("health after growth");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
}

/// Lasagne-Weighted carries per-node parameters: edge toggles are fine,
/// `add_node` must be refused typed (no principled value for the new row).
#[test]
fn node_pinned_model_refuses_add_node_but_accepts_edges() {
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
    // Depth 3 so the Weighted aggregator actually registers a per-node
    // C(l) parameter (depth 2 has a single hidden layer and no C at all).
    let hyper = Hyper { hidden: 4, depth: 3, dropout_keep: 1.0, ..Hyper::default() };
    let cfg = lasagne_core::LasagneConfig::from_hyper(&hyper, lasagne_core::AggregatorKind::Weighted);
    let model = lasagne_core::Lasagne::new(IN_DIM, CLASSES, Some(NODES), &cfg, 5);
    let engine = Engine::new(freeze(&model, &ctx, "tiny").expect("freeze")).expect("engine");
    let server = Server::start(
        engine,
        ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    let doc = client.call(&Request::AddNode { features: vec![0.1; IN_DIM] }).expect("add_node");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&doc), "bad_request", "node-pinned add_node");
    // Edge mutations on the same model still work — toggle and restore.
    let first = client.call(&Request::AddEdge { u: 1, v: 19 }).expect("add");
    if first.get("ok").and_then(Json::as_bool) == Some(true) {
        client.remove_edge(1, 19).expect("restore");
    } else {
        client.remove_edge(1, 19).expect("remove existing");
        client.add_edge(1, 19).expect("restore");
    }
    assert_healthy(&addr);
}

/// A mutation arriving after `shutdown` gets the typed `draining` error on
/// its still-open connection instead of hanging or crashing the teardown.
#[test]
fn mutation_during_shutdown_gets_a_typed_draining_error() {
    let (server, addr) = start_server(false);
    let mut survivor = Client::connect(&addr).expect("connect survivor");
    survivor.call_ok(&Request::Health).expect("health before shutdown");
    let mut trigger = Client::connect(&addr).expect("connect trigger");
    trigger.call_ok(&Request::Shutdown).expect("shutdown ack");
    // The ack is written just before the flag flips; give it a beat.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let doc = survivor
        .call(&Request::AddEdge { u: 0, v: 1 })
        .expect("open connection must still get a response line");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&doc), "draining", "mutation during shutdown");
    server.wait();
}

#[test]
fn flipped_byte_in_frozen_file_fails_typed_on_load() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lasagne-serve-flip-{}.json", std::process::id()));
    tiny_frozen().save(&path).expect("save");
    let mut rng = lasagne_testkit::rng::Rng::seed_from_u64(99);
    // A single flipped byte must never load cleanly: either the checksum
    // catches it (corrupt), the JSON no longer parses, or — if it lands in
    // a value — the shape/invariant checks reject it (mismatch).
    for trial in 0..8 {
        lasagne_testkit::fault::flip_byte(&path, &mut rng).expect("flip");
        let err = FrozenModel::load(&path)
            .err()
            .unwrap_or_else(|| panic!("trial {trial}: corrupted file loaded cleanly"));
        assert!(
            matches!(err.kind(), "corrupt" | "parse" | "mismatch" | "missing_param"),
            "trial {trial}: unexpected kind {}",
            err.kind()
        );
        // Restore for the next independent trial.
        tiny_frozen().save(&path).expect("re-save");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn truncated_frozen_file_fails_typed_on_load() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lasagne-serve-trunc-{}.json", std::process::id()));
    tiny_frozen().save(&path).expect("save");
    lasagne_testkit::fault::truncate_file(&path, 0.5).expect("truncate");
    let err = FrozenModel::load(&path).err().expect("truncated file must not load");
    assert!(matches!(err.kind(), "corrupt" | "parse"), "unexpected kind {}", err.kind());
    let _ = std::fs::remove_file(path);
}

#[test]
fn frozen_file_round_trips_through_disk() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lasagne-serve-rt-{}.json", std::process::id()));
    let frozen = tiny_frozen();
    frozen.save(&path).expect("save");
    let engine_a = Engine::new(frozen).expect("engine from memory");
    let engine_b = Engine::new(FrozenModel::load(&path).expect("load")).expect("engine from disk");
    for node in 0..NODES {
        let a: Vec<u32> =
            engine_a.logits_row(node).expect("row a").iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> =
            engine_b.logits_row(node).expect("row b").iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "node {node}: disk round-trip changed the logits");
    }
    let _ = std::fs::remove_file(path);
}

/// Checksum-valid frozen files whose weights do not fit their program: the
/// first-layer weight transposed (the right element count in the wrong
/// shape), and the same weight declared `2^63 × 2` with no data (a size
/// that wraps to 0 in unchecked arithmetic).
fn ill_fitting_artifacts(tag: &str) -> Vec<(&'static str, std::path::PathBuf)> {
    let frozen = tiny_frozen();
    let slot = frozen
        .weights
        .iter()
        .position(|(_, w)| matches!(w.shape(), (r, c) if r > 1 && c > 1 && r != c))
        .expect("a non-square weight");
    let path = |what: &str| {
        std::env::temp_dir()
            .join(format!("lasagne-serve-{tag}-{what}-{}.json", std::process::id()))
    };

    let mut transposed = frozen.clone();
    let t = transposed.weights[slot].1.to_tensor();
    let data = t.as_slice().to_vec();
    transposed.weights[slot].1 =
        FrozenWeight::Exact(Tensor::from_vec(t.cols(), t.rows(), data).expect("transpose"));
    transposed.save(&path("transposed")).expect("save transposed");

    let mut body = frozen.to_json();
    let Json::Obj(fields) = &mut body else { panic!("body is an object") };
    let Some((_, Json::Arr(weights))) = fields.iter_mut().find(|(k, _)| k == "weights") else {
        panic!("weights array")
    };
    let Json::Obj(weight) = &mut weights[slot] else { panic!("weight is an object") };
    for (k, v) in weight.iter_mut() {
        match k.as_str() {
            "rows" => *v = Json::Num(2f64.powi(63)),
            "cols" => *v = Json::Num(2.0),
            "data" => *v = Json::Str(String::new()),
            _ => {}
        }
    }
    lasagne_train::atomic_write_envelope(&path("overflowing"), body).expect("save overflowing");
    vec![("transposed", path("transposed")), ("overflowing", path("overflowing"))]
}

#[test]
fn ill_fitting_weights_fail_typed_on_both_engines() {
    for (what, path) in ill_fitting_artifacts("load") {
        let resident = Engine::load_path(&path).err().unwrap_or_else(|| panic!("{what} loaded"));
        assert_eq!(resident.kind(), "mismatch", "{what}: {resident}");
        let lazy = LazyEngine::load_path(&path, 2).err().unwrap_or_else(|| panic!("{what} loaded"));
        assert_eq!(lazy.kind(), "mismatch", "{what}: {lazy}");
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn swapping_in_ill_fitting_weights_answers_typed_and_keeps_the_old_model() {
    let (server, addr) = start_server(false);
    let mut client = Client::connect(&addr).expect("connect");
    for (what, path) in ill_fitting_artifacts("swap") {
        let doc = client
            .call(&Request::SwapModel { path: path.display().to_string() })
            .unwrap_or_else(|e| panic!("{what}: swap must be answered, got {e}"));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{what}");
        assert_eq!(error_kind(&doc), "mismatch", "{what}");
        let pred = client.call_ok(&Request::Predict { node: 0 }).expect("predict after swap");
        assert_eq!(pred.get("model_version").and_then(Json::as_usize), Some(1), "{what}");
        let _ = std::fs::remove_file(path);
    }
    assert_eq!(server.model_version(), 1);
    assert_healthy(&addr);
}

/// The member `key` of a JSON object.
fn member<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = obj else { panic!("'{key}' of a non-object") };
    &mut fields.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no '{key}'")).1
}

/// `tiny_frozen`'s body with `edit` applied to one payload string:
/// `data` of the first weight or of the first program constant, or
/// `values` or `indices` of the first sparse operator. Published under a
/// valid checksum.
fn edited_artifact(tag: &str, payload: &str, edit: fn(&str) -> Json) -> std::path::PathBuf {
    let mut body = tiny_frozen().to_json();
    let (owner, key) = match payload {
        "weight data" => ("weights", "data"),
        "sparse values" => ("sparse", "values"),
        "sparse indices" => ("sparse", "indices"),
        _ => ("program", "data"),
    };
    let target = match member(&mut body, owner) {
        Json::Arr(items) => &mut items[0],
        program => {
            let Json::Arr(ops) = member(program, "ops") else { panic!("ops array") };
            let constant = ops
                .iter_mut()
                .find(|op| op.get("op").and_then(Json::as_str) == Some("constant"))
                .expect("a program constant");
            member(constant, "value")
        }
    };
    let v = member(target, key);
    *v = edit(v.as_str().expect("a hex-word string"));
    let path = std::env::temp_dir().join(format!("lasagne-serve-hex-{tag}-{}.json", std::process::id()));
    lasagne_train::atomic_write_envelope(&path, body).expect("save edited artifact");
    path
}

#[test]
fn malformed_payloads_fail_typed_on_both_engines() {
    type Edit = fn(&str) -> Json;
    let edits: [(&str, &str, Edit); 5] = [
        ("odd-length", "parse", |s| Json::Str(s[1..].to_string())),
        ("upper-case", "parse", |s| Json::Str(s.to_uppercase())),
        ("non-hex", "parse", |s| Json::Str(format!("{}g", &s[1..]))),
        ("array", "parse", |s| Json::Arr(vec![Json::Num(s.len() as f64)])),
        ("one-word-short", "mismatch", |s| Json::Str(s[8..].to_string())),
    ];
    for payload in ["weight data", "constant data", "sparse values", "sparse indices"] {
        for (what, kind, edit) in edits {
            let tag = format!("{}-{what}", payload.replace(' ', "-"));
            let path = edited_artifact(&tag, payload, edit);
            let resident = Engine::load_path(&path).err().unwrap_or_else(|| panic!("{tag} loaded"));
            assert_eq!(resident.kind(), kind, "{tag}: {resident}");
            let lazy = LazyEngine::load_path(&path, 2).err().unwrap_or_else(|| panic!("{tag} loaded"));
            assert_eq!(lazy.kind(), kind, "{tag}: {lazy}");
            let _ = std::fs::remove_file(path);
        }
    }
}

/// `j` as format v2 spelled it: every tensor `data` and sparse `values`
/// and `indices` element as a JSON number.
fn v2_spelling(j: Json) -> Json {
    let numbers = |k: &str, v: &Json| match k {
        "data" | "values" => v.to_hex_words(f32::from_le_bytes).map(Json::from_f32s),
        "indices" => v
            .to_hex_words(u32::from_le_bytes)
            .map(|c| Json::Arr(c.into_iter().map(|c| Json::Num(c as f64)).collect())),
        _ => None,
    };
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| {
                    let v = numbers(&k, &v).unwrap_or_else(|| v2_spelling(v));
                    (k, v)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(v2_spelling).collect()),
        other => other,
    }
}

#[test]
fn v1_and_v2_artifacts_are_refused_naming_their_version() {
    let body = v2_spelling(tiny_frozen().to_json());
    let path = |v: u32| {
        std::env::temp_dir().join(format!("lasagne-serve-v{v}-{}.json", std::process::id()))
    };
    // v2: checksummed, in the exact layout v2 writers used.
    let text = body.to_string();
    let checksum = format!("{:016x}", lasagne_train::fnv1a64(text.as_bytes()));
    let v2 = format!(r#"{{"format_version":2,"checksum":"{checksum}","body":{text}}}"#);
    std::fs::write(path(2), v2).expect("write v2");
    // v1: no envelope, the body's fields at the top level.
    let Json::Obj(mut fields) = body else { panic!("body is an object") };
    fields.insert(0, ("format_version".into(), Json::Num(1.0)));
    std::fs::write(path(1), Json::Obj(fields).to_string()).expect("write v1");
    for version in [1, 2] {
        let errs = [
            FrozenModel::load(&path(version)).err(),
            Engine::load_path(&path(version)).err(),
            LazyEngine::load_path(&path(version), 2).err(),
        ];
        for err in errs {
            let err = err.unwrap_or_else(|| panic!("v{version} loaded"));
            assert_eq!(err.kind(), "mismatch", "v{version}: {err}");
            let msg = err.to_string();
            assert!(msg.contains(&format!("unsupported format version {version}")), "{msg}");
            assert!(msg.contains("re-export"), "{msg}");
        }
        let _ = std::fs::remove_file(path(version));
    }
}
