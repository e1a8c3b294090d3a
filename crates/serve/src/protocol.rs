//! The newline-delimited JSON wire protocol (grammar in DESIGN.md §10).
//!
//! One request object per line in, one response object per line out, over a
//! plain TCP stream. Every response carries `"ok"`; failures carry a typed
//! `error.kind` (the [`ServeError::kind`] string) so clients can branch
//! without parsing prose. A line the server cannot even parse still gets a
//! well-formed error response — garbage in never kills the connection, let
//! alone the server.

use lasagne_testkit::Json;

use crate::engine::Prediction;
use crate::error::{ServeError, ServeResult};
use crate::frozen::FrozenMeta;
use crate::streaming::MutationReport;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Argmax class + distribution for one node.
    Predict {
        /// Node id in the frozen graph.
        node: usize,
    },
    /// The `k` most probable classes for one node.
    TopK {
        /// Node id in the frozen graph.
        node: usize,
        /// How many classes to return.
        k: usize,
    },
    /// Top-`k` item recommendations for one user node (models frozen with
    /// a recommendation binding only).
    Recommend {
        /// User node id (`items..items+users` in the bipartite layout).
        node: usize,
        /// How many items to return.
        k: usize,
    },
    /// Insert undirected edge `u — v` into the live graph.
    AddEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// Delete undirected edge `u — v` from the live graph.
    RemoveEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// Append an isolated node with the given feature row.
    AddNode {
        /// Feature row, `input_dim` long.
        features: Vec<f32>,
    },
    /// Liveness probe: answered inline, never queued behind model work.
    Health,
    /// Serving counters (request/batch/latency/overload/swap).
    Stats,
    /// Load + checksum a new frozen file off the batcher thread, then
    /// atomically install it at the next batch boundary. In-flight work
    /// drains on the old model; new requests answer on the new one.
    SwapModel {
        /// Server-side path of the frozen file to load.
        path: String,
    },
    /// Stop the server.
    Shutdown,
    /// Test-only op (enabled by `ServerConfig::debug_ops`): the worker
    /// panics while handling it, exercising panic isolation.
    DebugPanic,
    /// Test-only op (enabled by `ServerConfig::debug_ops`): the batcher
    /// sleeps for `ms` while "handling" it — the chaos suite's tool for
    /// making model work slow enough to fill the admission queue.
    DebugSleep {
        /// Milliseconds the batcher sleeps.
        ms: u64,
    },
}

impl Request {
    /// Parse one request line. Errors name the offending field.
    pub fn parse(line: &str) -> ServeResult<Request> {
        let doc = Json::parse(line).map_err(|e| ServeError::Parse(format!("request: {e}")))?;
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::BadRequest("missing string field 'op'".into()))?;
        let node = |doc: &Json| -> ServeResult<usize> {
            doc.get("node")
                .and_then(Json::as_usize)
                .ok_or_else(|| ServeError::BadRequest(format!("'{op}' needs integer field 'node'")))
        };
        match op {
            "predict" => Ok(Request::Predict { node: node(&doc)? }),
            "top_k" => {
                let k = doc
                    .get("k")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| ServeError::BadRequest("'top_k' needs integer field 'k'".into()))?;
                if k == 0 {
                    return Err(ServeError::BadRequest("'top_k' needs k >= 1".into()));
                }
                Ok(Request::TopK { node: node(&doc)?, k })
            }
            "recommend" => {
                let k = doc.get("k").and_then(Json::as_usize).ok_or_else(|| {
                    ServeError::BadRequest("'recommend' needs integer field 'k'".into())
                })?;
                if k == 0 {
                    return Err(ServeError::BadRequest("'recommend' needs k >= 1".into()));
                }
                Ok(Request::Recommend { node: node(&doc)?, k })
            }
            "add_edge" | "remove_edge" => {
                let end = |field: &str| -> ServeResult<usize> {
                    doc.get(field).and_then(Json::as_usize).ok_or_else(|| {
                        ServeError::BadRequest(format!("'{op}' needs integer field '{field}'"))
                    })
                };
                let (u, v) = (end("u")?, end("v")?);
                if op == "add_edge" {
                    Ok(Request::AddEdge { u, v })
                } else {
                    Ok(Request::RemoveEdge { u, v })
                }
            }
            "add_node" => {
                let features = doc
                    .get("features")
                    .and_then(Json::to_f32s)
                    .ok_or_else(|| {
                        ServeError::BadRequest("'add_node' needs number array 'features'".into())
                    })?;
                Ok(Request::AddNode { features })
            }
            "health" => Ok(Request::Health),
            "stats" => Ok(Request::Stats),
            "swap_model" => {
                let path = doc.get("path").and_then(Json::as_str).ok_or_else(|| {
                    ServeError::BadRequest("'swap_model' needs string field 'path'".into())
                })?;
                Ok(Request::SwapModel { path: path.to_string() })
            }
            "shutdown" => Ok(Request::Shutdown),
            "debug_panic" => Ok(Request::DebugPanic),
            "debug_sleep" => {
                let ms = doc.get("ms").and_then(Json::as_u64).ok_or_else(|| {
                    ServeError::BadRequest("'debug_sleep' needs integer field 'ms'".into())
                })?;
                Ok(Request::DebugSleep { ms })
            }
            other => Err(ServeError::BadRequest(format!("unknown op '{other}'"))),
        }
    }

    /// Serialize a request line (the load generator and tests use this).
    pub fn to_line(&self) -> String {
        let obj = match self {
            Request::Predict { node } => vec![
                ("op".to_string(), Json::Str("predict".into())),
                ("node".to_string(), Json::Num(*node as f64)),
            ],
            Request::TopK { node, k } => vec![
                ("op".to_string(), Json::Str("top_k".into())),
                ("node".to_string(), Json::Num(*node as f64)),
                ("k".to_string(), Json::Num(*k as f64)),
            ],
            Request::Recommend { node, k } => vec![
                ("op".to_string(), Json::Str("recommend".into())),
                ("node".to_string(), Json::Num(*node as f64)),
                ("k".to_string(), Json::Num(*k as f64)),
            ],
            Request::AddEdge { u, v } => vec![
                ("op".to_string(), Json::Str("add_edge".into())),
                ("u".to_string(), Json::Num(*u as f64)),
                ("v".to_string(), Json::Num(*v as f64)),
            ],
            Request::RemoveEdge { u, v } => vec![
                ("op".to_string(), Json::Str("remove_edge".into())),
                ("u".to_string(), Json::Num(*u as f64)),
                ("v".to_string(), Json::Num(*v as f64)),
            ],
            Request::AddNode { features } => vec![
                ("op".to_string(), Json::Str("add_node".into())),
                ("features".to_string(), Json::from_f32s(features.iter().copied())),
            ],
            Request::Health => vec![("op".to_string(), Json::Str("health".into()))],
            Request::Stats => vec![("op".to_string(), Json::Str("stats".into()))],
            Request::SwapModel { path } => vec![
                ("op".to_string(), Json::Str("swap_model".into())),
                ("path".to_string(), Json::Str(path.clone())),
            ],
            Request::Shutdown => vec![("op".to_string(), Json::Str("shutdown".into()))],
            Request::DebugPanic => vec![("op".to_string(), Json::Str("debug_panic".into()))],
            Request::DebugSleep { ms } => vec![
                ("op".to_string(), Json::Str("debug_sleep".into())),
                ("ms".to_string(), Json::Num(*ms as f64)),
            ],
        };
        Json::Obj(obj).to_string()
    }
}

/// Point-in-time serving counters reported by `stats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Model requests answered (predict/top_k, ok or error).
    pub requests: u64,
    /// Batches the micro-batcher dispatched.
    pub batches: u64,
    /// Largest batch coalesced so far.
    pub max_batch: u64,
    /// Mean requests per batch.
    pub mean_batch: f64,
    /// Median request latency, microseconds (enqueue → response ready).
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Requests currently sitting in the admission queue.
    pub queue_depth: u64,
    /// Requests shed with a typed `overloaded` (queue was full).
    pub shed: u64,
    /// Requests dropped with a typed `deadline_exceeded` (expired in queue).
    pub expired: u64,
    /// Hot model swaps installed since start.
    pub swaps: u64,
    /// Monotonic version of the currently installed model (starts at 1).
    pub model_version: u64,
    /// Live client connections (including the one asking).
    pub connections: u64,
}

fn ok_head() -> (String, Json) {
    ("ok".to_string(), Json::Bool(true))
}

fn version_field(version: u64) -> (String, Json) {
    ("model_version".to_string(), Json::Num(version as f64))
}

/// `predict` success response line, stamped with the version of the model
/// that computed it.
pub fn predict_response(p: &Prediction, version: u64) -> String {
    Json::Obj(vec![
        ok_head(),
        version_field(version),
        ("node".into(), Json::Num(p.node as f64)),
        ("class".into(), Json::Num(p.class as f64)),
        ("probs".into(), Json::from_f32s(p.probs.iter().copied())),
    ])
    .to_string()
}

/// `top_k` success response line.
pub fn top_k_response(node: usize, ranked: &[(usize, f32)], version: u64) -> String {
    Json::Obj(vec![
        ok_head(),
        version_field(version),
        ("node".into(), Json::Num(node as f64)),
        (
            "top".into(),
            Json::Arr(
                ranked
                    .iter()
                    .map(|&(class, prob)| {
                        Json::Obj(vec![
                            ("class".into(), Json::Num(class as f64)),
                            ("prob".into(), Json::Num(prob as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

/// `recommend` success response line. Scores are raw dot products of
/// embedding rows (not probabilities) — useful for thresholding and for
/// bitwise comparison against the training-side evaluator.
pub fn recommend_response(node: usize, ranked: &[(usize, f32)], version: u64) -> String {
    Json::Obj(vec![
        ok_head(),
        version_field(version),
        ("node".into(), Json::Num(node as f64)),
        (
            "items".into(),
            Json::Arr(
                ranked
                    .iter()
                    .map(|&(item, score)| {
                        Json::Obj(vec![
                            ("item".into(), Json::Num(item as f64)),
                            ("score".into(), Json::Num(score as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

/// `health` response line (includes the model identity so probes double as
/// a deployment sanity check). `status` is the degradation state machine of
/// DESIGN.md §12: `ok` | `degraded` | `draining`.
pub fn health_response(meta: &FrozenMeta, status: &str, version: u64, queue_depth: u64) -> String {
    Json::Obj(vec![
        ok_head(),
        ("status".into(), Json::Str(status.into())),
        version_field(version),
        ("queue_depth".into(), Json::Num(queue_depth as f64)),
        ("model".into(), Json::Str(meta.model.clone())),
        ("dataset".into(), Json::Str(meta.dataset.clone())),
        ("num_nodes".into(), Json::Num(meta.num_nodes as f64)),
        ("num_classes".into(), Json::Num(meta.num_classes as f64)),
    ])
    .to_string()
}

/// `stats` response line.
pub fn stats_response(s: &StatsSnapshot) -> String {
    Json::Obj(vec![
        ok_head(),
        ("requests".into(), Json::Num(s.requests as f64)),
        ("batches".into(), Json::Num(s.batches as f64)),
        ("max_batch".into(), Json::Num(s.max_batch as f64)),
        ("mean_batch".into(), Json::Num(s.mean_batch)),
        ("p50_us".into(), Json::Num(s.p50_us)),
        ("p99_us".into(), Json::Num(s.p99_us)),
        ("queue_depth".into(), Json::Num(s.queue_depth as f64)),
        ("shed".into(), Json::Num(s.shed as f64)),
        ("expired".into(), Json::Num(s.expired as f64)),
        ("swaps".into(), Json::Num(s.swaps as f64)),
        version_field(s.model_version),
        ("connections".into(), Json::Num(s.connections as f64)),
    ])
    .to_string()
}

/// `add_edge` / `remove_edge` / `add_node` success response line. `op`
/// echoes the verb; `node` is present only for `add_node`.
pub fn mutation_response(op: &str, r: &MutationReport, version: u64) -> String {
    let mut fields = vec![
        ok_head(),
        version_field(version),
        ("op".into(), Json::Str(op.into())),
        ("dirty_rows".into(), Json::Num(r.dirty_rows as f64)),
        ("full_recompute".into(), Json::Bool(r.full)),
        ("num_nodes".into(), Json::Num(r.num_nodes as f64)),
    ];
    if let Some(node) = r.node {
        fields.push(("node".into(), Json::Num(node as f64)));
    }
    Json::Obj(fields).to_string()
}

/// `swap_model` acknowledgement: the new file loaded and checksummed clean
/// and will be installed at the next batch boundary as `model_version`.
pub fn swap_response(version: u64) -> String {
    Json::Obj(vec![
        ok_head(),
        ("status".into(), Json::Str("pending".into())),
        version_field(version),
    ])
    .to_string()
}

/// `debug_sleep` acknowledgement (test-only op).
pub fn debug_sleep_response(version: u64) -> String {
    Json::Obj(vec![ok_head(), version_field(version), ("op".into(), Json::Str("debug_sleep".into()))])
        .to_string()
}

/// `shutdown` acknowledgement line.
pub fn shutdown_response() -> String {
    Json::Obj(vec![ok_head(), ("status".into(), Json::Str("shutting_down".into()))]).to_string()
}

/// Error response line for any failed request. Overload-family errors carry
/// their machine-readable hints (`retry_after_ms`, `waited_ms`, `limit`) as
/// structured fields next to `kind`, so a client can back off without
/// parsing prose.
pub fn error_response(e: &ServeError) -> String {
    error_response_versioned(e, None)
}

/// [`error_response`], stamped with the model version of the batcher that
/// rejected it (errors from reader threads carry no version).
pub fn error_response_versioned(e: &ServeError, version: Option<u64>) -> String {
    let mut error = vec![
        ("kind".to_string(), Json::Str(e.kind().into())),
        ("message".to_string(), Json::Str(e.to_string())),
    ];
    match e {
        ServeError::Overloaded { retry_after_ms } => {
            error.push(("retry_after_ms".into(), Json::Num(*retry_after_ms as f64)));
        }
        ServeError::DeadlineExceeded { waited_ms, deadline_ms } => {
            error.push(("waited_ms".into(), Json::Num(*waited_ms as f64)));
            error.push(("deadline_ms".into(), Json::Num(*deadline_ms as f64)));
        }
        ServeError::RequestTooLarge { limit } | ServeError::TooManyConnections { limit } => {
            error.push(("limit".into(), Json::Num(*limit as f64)));
        }
        ServeError::UnknownUser { items, users, .. } => {
            error.push(("items".into(), Json::Num(*items as f64)));
            error.push(("users".into(), Json::Num(*users as f64)));
        }
        _ => {}
    }
    let mut fields = vec![("ok".to_string(), Json::Bool(false))];
    if let Some(v) = version {
        fields.push(version_field(v));
    }
    fields.push(("error".to_string(), Json::Obj(error)));
    Json::Obj(fields).to_string()
}
