//! `serve`: Lasagne(Weighted)+GC-FM at depth 3 on Cora-sim with seeded
//! weights, exported to a file, loaded, and served by an in-process TCP
//! `Server`. One closed-loop `Client` connection replays a seeded script:
//! each edge toggle is followed by a fixed number of `predict`/`top_k`
//! reads. This is the only path through export/load, the server and
//! streaming mutations; at depth 3 most toggles stay incremental and a few
//! percent fall back to full recompute, so the write median measures
//! `serve::streaming` and the write tail the fallback.
//!
//! Closed loop on one connection: `Client` calls block until the reply
//! arrives, so no read ever waits behind a write, and the program never has
//! more runnable threads than the machine has cores.

use std::collections::{BTreeSet, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

use lasagne_core::{AggregatorKind, Lasagne, LasagneConfig};
use lasagne_datasets::{Dataset, DatasetId};
use lasagne_gnn::{GraphContext, Hyper};
use lasagne_graph::Graph;
use lasagne_serve::{
    freeze, predict_response, top_k_response, Client, Engine, FrozenModel, Mutation, Prediction,
    Request, Server, ServerConfig,
};
use lasagne_testkit::{Json, Rng};

use crate::measure::{median, ms_since, peak_rss_mib, sub_seed, tail, timed, Report, WorkDir};
use crate::{RunConfig, Size};

/// Model depth: ≈95% of toggles stay incremental at 3 (81% fall back at 4).
const DEPTH: usize = 3;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Script edges alive at once: the script adds edges until this many are
/// live, then alternates removing the oldest with adding a new one, so the
/// graph — and the cost of a toggle — stays stationary over a run.
const WINDOW: usize = 8;
/// Reads after every toggle.
const READS_PER_WRITE: usize = 16;
/// `top_k` width of the read mix.
const TOP_K: usize = 3;

struct Shape {
    /// Rounds of the timed stream, each opened by one timed artifact load.
    loads: usize,
    /// Writes the stream always reaches, so that p99 of write latency has at
    /// least ten samples beyond it.
    min_writes: usize,
    warmup_reads: usize,
    probe_reps: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            loads: 12,
            min_writes: 1000,
            warmup_reads: 200,
            probe_reps: 5,
        },
        Size::Tiny => Shape {
            loads: 2,
            min_writes: 40,
            warmup_reads: 20,
            probe_reps: 2,
        },
    }
}

/// The seeded mutation script: edge toggles, each followed by reads.
struct Script {
    rng: Rng,
    nodes: usize,
    edges: BTreeSet<(u32, u32)>,
    live: VecDeque<(u32, u32)>,
}

impl Script {
    fn new(seed: u64, graph: &Graph) -> Script {
        Script {
            rng: Rng::seed_from_u64(sub_seed(seed, 8)),
            nodes: graph.num_nodes(),
            edges: graph.edges().iter().copied().collect(),
            live: VecDeque::new(),
        }
    }

    fn toggle(&mut self) -> Mutation {
        if self.live.len() >= WINDOW {
            let (u, v) = self.live.pop_front().expect("window is full");
            self.edges.remove(&(u, v));
            return Mutation::RemoveEdge {
                u: u as usize,
                v: v as usize,
            };
        }
        loop {
            let (a, b) = (
                self.rng.index(self.nodes) as u32,
                self.rng.index(self.nodes) as u32,
            );
            let key = (a.min(b), a.max(b));
            if a != b && self.edges.insert(key) {
                self.live.push_back(key);
                return Mutation::AddEdge {
                    u: key.0 as usize,
                    v: key.1 as usize,
                };
            }
        }
    }

    fn read(&mut self, i: usize) -> Request {
        let node = self.rng.index(self.nodes);
        if i.is_multiple_of(2) {
            Request::Predict { node }
        } else {
            Request::TopK { node, k: TOP_K }
        }
    }

    fn graph(&self) -> Graph {
        Graph::from_edges(self.nodes, &self.edges.iter().copied().collect::<Vec<_>>())
    }
}

fn request_of(m: &Mutation) -> Request {
    match *m {
        Mutation::AddEdge { u, v } => Request::AddEdge { u, v },
        Mutation::RemoveEdge { u, v } => Request::RemoveEdge { u, v },
        Mutation::AddNode { .. } => unreachable!("the script only toggles edges"),
    }
}

enum Answer {
    Predict(Prediction),
    TopK(usize, Vec<(usize, f32)>),
}

struct Inputs {
    ds: Dataset,
    model: Lasagne,
}

struct Live {
    server: Server,
    client: Client,
}

fn make_inputs(seed: u64) -> Inputs {
    let ds = Dataset::generate(DatasetId::Cora, sub_seed(seed, 1));
    let hyper = Hyper::for_dataset(DatasetId::Cora).with_depth(DEPTH);
    let cfg = LasagneConfig::from_hyper(&hyper, AggregatorKind::Weighted);
    let model = Lasagne::new(
        ds.num_features(),
        ds.num_classes,
        Some(ds.num_nodes()),
        &cfg,
        sub_seed(seed, 2),
    );
    Inputs { ds, model }
}

fn export(inputs: &Inputs, path: &Path) {
    let ctx = GraphContext::from_dataset(&inputs.ds);
    freeze(&inputs.model, &ctx, "cora")
        .and_then(|f| f.save(path))
        .unwrap_or_else(|e| panic!("export: {e}"));
}

fn load(path: &Path) -> Engine {
    FrozenModel::load(path)
        .and_then(Engine::new)
        .unwrap_or_else(|e| panic!("load: {e}"))
}

/// Generation, export, load, server start, one connect, warm-up reads.
fn setup(cfg: &RunConfig, sh: &Shape, path: &Path) -> (Inputs, Live) {
    let inputs = make_inputs(cfg.seed);
    export(&inputs, path);
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        // No deadline and no idle reaping: nothing in a run may fail on the
        // clock.
        deadline_ms: 0,
        idle_timeout_ms: 0,
        ..ServerConfig::default()
    };
    let server = Server::start(load(path), config).unwrap_or_else(|e| panic!("server start: {e}"));
    let mut client = Client::connect(&server.local_addr().to_string())
        .unwrap_or_else(|e| panic!("connect: {e}"));
    let mut rng = Rng::seed_from_u64(sub_seed(cfg.seed, 9));
    for _ in 0..sh.warmup_reads {
        let node = rng.index(inputs.ds.num_nodes());
        client
            .call_ok(&Request::Predict { node })
            .unwrap_or_else(|e| panic!("warm-up read: {e}"));
    }
    (inputs, Live { server, client })
}

/// Client-timed round trips, one inner vector per round (a call of
/// [`stream`]).
#[derive(Default)]
struct Stream {
    reads_ms: Vec<Vec<f64>>,
    writes_ms: Vec<Vec<f64>>,
    full: usize,
    failed: u64,
}

impl Stream {
    fn writes(&self) -> usize {
        self.writes_ms.iter().map(Vec::len).sum()
    }
}

/// Replay the script over the wire as one more round of `s`, until `end`
/// (measured from `start`) has passed and at least `min_writes` toggles ran
/// in total.
fn stream(
    client: &mut Client,
    script: &mut Script,
    s: &mut Stream,
    start: Instant,
    end: Duration,
    min_writes: usize,
) {
    let call = |client: &mut Client, request: &Request, s: &mut Stream| -> (Option<Json>, f64) {
        let t = Instant::now();
        let reply = client.call(request);
        let ms = ms_since(t);
        match reply {
            Ok(doc) if doc.get("ok").and_then(Json::as_bool) == Some(true) => (Some(doc), ms),
            _ => {
                s.failed += 1;
                (None, ms)
            }
        }
    };
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    while s.writes() + writes.len() < min_writes || start.elapsed() < end {
        let write = request_of(&script.toggle());
        let (doc, ms) = call(client, &write, s);
        writes.push(ms);
        if doc.and_then(|d| d.get("full_recompute").and_then(Json::as_bool)) == Some(true) {
            s.full += 1;
        }
        for i in 0..READS_PER_WRITE {
            let read = script.read(i);
            let (_, ms) = call(client, &read, s);
            reads.push(ms);
        }
    }
    s.reads_ms.push(reads);
    s.writes_ms.push(writes);
}

/// Every node's served probabilities against a cold engine frozen on the
/// final mutated graph; returns the number of nodes that differ.
fn served_vs_cold(client: &mut Client, inputs: &Inputs, script: &Script) -> usize {
    let ds = &inputs.ds;
    let ctx = GraphContext::new(
        &script.graph(),
        ds.features.clone(),
        ds.labels.clone(),
        ds.num_classes,
    );
    let cold = Engine::new(freeze(&inputs.model, &ctx, "cora").expect("cold freeze"))
        .expect("cold engine");
    (0..ds.num_nodes())
        .filter(|&node| {
            let served = client
                .call_ok(&Request::Predict { node })
                .ok()
                .and_then(|d| d.get("probs").and_then(Json::to_f32s));
            let want = cold.predict(node).expect("node in range").probs;
            served.is_none_or(|got| {
                got.iter()
                    .map(|p| p.to_bits())
                    .ne(want.iter().map(|p| p.to_bits()))
            })
        })
        .count()
}

pub fn run(cfg: &RunConfig) -> Report {
    let sh = shape(cfg.size);
    let mut report = Report::default();
    let work = WorkDir::create("serve");
    let path = work.path("model.frozen.json");

    let mut setups = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        if let Some((_, live)) = state.take() {
            shut_down(live);
        }
        let (s, ms) = timed(|| setup(cfg, &sh, &path));
        setups.push(ms / 1e3);
        state = Some(s);
    }
    let (inputs, mut live) = state.expect("at least one setup");
    report.metric("setup_s", median(&setups));

    if cfg.trace {
        run_traced(cfg, &sh, &inputs, &mut live, &path, &mut report);
    } else {
        // Rounds of one timed load and a stretch of the stream, so that both
        // sample the whole run.
        let mut script = Script::new(cfg.seed, &inputs.ds.graph);
        let mut s = Stream::default();
        let mut loads = Vec::with_capacity(sh.loads);
        let start = Instant::now();
        for round in 0..sh.loads {
            loads.push(timed(|| load(&path)).1);
            let end = Duration::from_secs_f64(cfg.seconds * (round + 1) as f64 / sh.loads as f64);
            let min_writes = sh.min_writes * (round + 1) / sh.loads;
            stream(
                &mut live.client,
                &mut script,
                &mut s,
                start,
                end,
                min_writes,
            );
        }
        report.metric("peak_rss_mib", peak_rss_mib());
        report.metric("load_p50_ms", median(&loads));
        report.attempted += loads.len() as u64;
        record_stream(&mut report, &s);
        check_final(&mut report, &mut live, &inputs, &script);
    }
    shut_down(live);
    report
}

fn shut_down(live: Live) {
    drop(live.client);
    live.server.shutdown();
}

fn record_stream(report: &mut Report, s: &Stream) {
    let (reads, writes) = (s.reads_ms.concat(), s.writes_ms.concat());
    let (q, write_tail) = tail(&writes, 0.99);
    let (rq, read_tail) = tail(&reads, 0.99);
    report.metric("op_p50_ms", median(&reads));
    report.metric("side_p50_ms", median(&writes));
    report.metric("tail_ms", write_tail);
    report.attempted += (reads.len() + writes.len()) as u64;
    report.failed += s.failed;
    report.note(format!(
        "stream: {} rounds; {} reads p50 {:.4} ms p{} {read_tail:.4} ms; {} writes p50 {:.4} ms p{} {write_tail:.4} ms; \
         full recompute {} ({:.2}%); {} failed",
        s.writes_ms.len(),
        reads.len(),
        median(&reads),
        rq * 100.0,
        writes.len(),
        median(&writes),
        q * 100.0,
        s.full,
        100.0 * s.full as f64 / s.writes() as f64,
        s.failed
    ));
}

fn check_final(report: &mut Report, live: &mut Live, inputs: &Inputs, script: &Script) {
    let differ = served_vs_cold(&mut live.client, inputs, script);
    report.gate(
        "served_equals_cold",
        differ == 0,
        format!(
            "{differ} of {} nodes differ from a cold engine on the final graph",
            inputs.ds.num_nodes()
        ),
    );
}

fn run_traced(
    cfg: &RunConfig,
    sh: &Shape,
    inputs: &Inputs,
    live: &mut Live,
    path: &Path,
    report: &mut Report,
) {
    // The stream in two halves, untraced then under lasagne-obs tracing;
    // the read p50 difference is the tracing overhead.
    let half = Duration::from_secs_f64(cfg.seconds / 2.0);
    let mut script = Script::new(cfg.seed, &inputs.ds.graph);
    let (mut plain, mut traced) = (Stream::default(), Stream::default());
    stream(
        &mut live.client,
        &mut script,
        &mut plain,
        Instant::now(),
        half,
        sh.min_writes / 2,
    );
    let stats = live.server.stats();
    let sink = lasagne_obs::TraceSink::start(false);
    stream(
        &mut live.client,
        &mut script,
        &mut traced,
        Instant::now(),
        half,
        sh.min_writes / 2,
    );
    let trace = sink.finish();
    record_stream(report, &plain);
    report.attempted +=
        (traced.writes() + traced.reads_ms.iter().map(Vec::len).sum::<usize>()) as u64;
    report.failed += traced.failed;
    check_final(report, live, inputs, &script);
    let (plain_reads, traced_reads) = (plain.reads_ms.concat(), traced.reads_ms.concat());
    let (read, traced_read) = (median(&plain_reads), median(&traced_reads));
    report.metric("trace.overhead_pct", 100.0 * (traced_read - read) / read);
    report.note(format!(
        "read p50 untraced {read:.4} ms, traced {traced_read:.4} ms; obs counters: serve.requests={:?} serve.mutations={:?}",
        trace.counter("serve.requests"),
        trace.counter("serve.mutations")
    ));
    report.metric("serve.read_tail_ms", tail(&plain_reads, 0.99).1);
    report.metric("serve.server_p50_us", stats.p50_us);
    report.metric("serve.wire_us", read * 1e3 - stats.p50_us);

    // Export, parse and evaluate apart.
    let export_ms: Vec<f64> = (0..sh.probe_reps)
        .map(|_| timed(|| export(inputs, path)).1)
        .collect();
    report.metric("serve.export_ms", median(&export_ms));
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    report.metric("serve.artifact_mib", bytes as f64 / (1u64 << 20) as f64);
    let mut parsed = None;
    let parse_ms: Vec<f64> = (0..sh.loads)
        .map(|_| {
            let (m, ms) = timed(|| FrozenModel::load(path).expect("parse artifact"));
            parsed = Some(m);
            ms
        })
        .collect();
    report.metric("serve.parse_ms", median(&parse_ms));
    let parsed = parsed.expect("at least one parse");
    let mut engine = None;
    let eval_ms: Vec<f64> = (0..sh.loads)
        .map(|_| {
            let model = parsed.clone();
            let (e, ms) = timed(|| Engine::new(model).expect("engine"));
            engine = Some(e);
            ms
        })
        .collect();
    report.metric("serve.evaluate_ms", median(&eval_ms));
    let mut engine = engine.expect("at least one engine");

    // In-process reads, then the protocol around them: parsing the request
    // line and formatting the reply, with the engine's answer in hand.
    let mut reads = Script::new(cfg.seed, &inputs.ds.graph);
    let (mut predict_us, mut answered) = (Vec::new(), Vec::new());
    for i in 0..2000 {
        let request = reads.read(i);
        let t = Instant::now();
        let answer = match request {
            Request::Predict { node } => Answer::Predict(engine.predict(node).expect("predict")),
            Request::TopK { node, k } => Answer::TopK(node, engine.top_k(node, k).expect("top_k")),
            _ => unreachable!("reads only"),
        };
        predict_us.push(ms_since(t) * 1e3);
        answered.push((request.to_line(), answer));
    }
    report.metric("serve.predict_us", median(&predict_us));
    let protocol_us: Vec<f64> = answered
        .iter()
        .map(|(line, answer)| {
            let t = Instant::now();
            let request = Request::parse(line).expect("parse request");
            let out = match answer {
                Answer::Predict(p) => predict_response(p, 1),
                Answer::TopK(node, ranked) => top_k_response(*node, ranked, 1),
            };
            let us = ms_since(t) * 1e3;
            std::hint::black_box((request, out));
            us
        })
        .collect();
    report.metric("serve.protocol_us", median(&protocol_us));

    // In-process mutations on the same script.
    let mut script = Script::new(cfg.seed, &inputs.ds.graph);
    let mut mutate_ms = Vec::new();
    let mut dirty = Vec::new();
    let mut full = 0usize;
    for _ in 0..sh.min_writes {
        let m = script.toggle();
        let (r, ms) = timed(|| engine.apply_mutation(&m));
        let r = r.unwrap_or_else(|e| panic!("in-process mutation {m:?}: {e}"));
        mutate_ms.push(ms);
        dirty.push(r.dirty_rows as f64);
        full += usize::from(r.full);
    }
    report.metric("serve.mutate_p50_ms", median(&mutate_ms));
    report.metric("serve.mutate_tail_ms", tail(&mutate_ms, 0.99).1);
    report.metric("serve.full_share", full as f64 / mutate_ms.len() as f64);
    report.metric("serve.dirty_rows_p50", median(&dirty));
}
