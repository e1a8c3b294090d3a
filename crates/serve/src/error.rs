//! The serving error type. Every failure a client or operator can trigger —
//! bad files, bad requests, unknown nodes, worker panics — maps to a typed
//! variant, and every variant maps to a stable wire `kind` string, so
//! clients can branch on failures without parsing prose.

use std::fmt;

use lasagne_autograd::{ExportError, ModelError, PevalError};
use lasagne_train::TrainError;

/// `Result` alias for the serving subsystem.
pub type ServeResult<T> = Result<T, ServeError>;

/// Everything that can go wrong between a frozen-model file and a client
/// response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Filesystem / socket failure.
    Io(String),
    /// Unparseable JSON (file or wire).
    Parse(String),
    /// Checksum mismatch: the file was damaged after it was written.
    Corrupt(String),
    /// Structurally valid but wrong for this model (version, shapes, kinds).
    Mismatch(String),
    /// The frozen program references a weight the file does not carry.
    MissingParam(String),
    /// Query for a node id outside the frozen graph.
    UnknownNode {
        /// The requested node id.
        node: usize,
        /// Number of nodes in the frozen graph.
        num_nodes: usize,
    },
    /// A syntactically valid request the server refuses (missing fields,
    /// bad types, unknown op).
    BadRequest(String),
    /// The model could not be exported (train-only ops on the tape).
    Export(String),
    /// A worker panicked while handling the request; the server survives
    /// and reports this.
    Internal(String),
    /// The admission queue is full: the request was shed without queueing.
    /// `retry_after_ms` is the server's estimate of when capacity frees up.
    Overloaded {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request sat in the queue past its deadline; the batcher dropped
    /// it instead of computing a dead answer.
    DeadlineExceeded {
        /// How long the request waited before being dropped, milliseconds.
        waited_ms: u64,
        /// The deadline it was stamped with at enqueue, milliseconds.
        deadline_ms: u64,
    },
    /// A request line exceeded the server's byte cap. Framing is lost, so
    /// the server answers typed and closes the connection.
    RequestTooLarge {
        /// The configured per-line byte cap.
        limit: usize,
    },
    /// The server is at its connection cap; this connection was refused.
    TooManyConnections {
        /// The configured connection cap.
        limit: usize,
    },
    /// The server is draining its queue for shutdown; no new model work is
    /// admitted (control ops still answer).
    Draining,
    /// A client-side read/write deadline elapsed before the server answered.
    Timeout(String),
    /// `recommend` against a model with no recommendation binding (a
    /// node-classification artifact), on either engine — refused typed
    /// instead of ranking class logits as if they were item scores.
    NotARecommender {
        /// Why this engine cannot recommend.
        reason: String,
    },
    /// `recommend` for a node id that is not a user node of the bipartite
    /// layout (items and out-of-range ids both land here).
    UnknownUser {
        /// The requested node id.
        node: usize,
        /// Item-node count (`0..items` are items).
        items: usize,
        /// User-node count (`items..items+users` are users).
        users: usize,
    },
    /// Every item is masked for this user — nothing left to recommend.
    NoCandidates {
        /// The requesting user node.
        node: usize,
    },
}

impl ServeError {
    /// Stable machine-readable discriminator used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Io(_) => "io",
            ServeError::Parse(_) => "parse",
            ServeError::Corrupt(_) => "corrupt",
            ServeError::Mismatch(_) => "mismatch",
            ServeError::MissingParam(_) => "missing_param",
            ServeError::UnknownNode { .. } => "unknown_node",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Export(_) => "export",
            ServeError::Internal(_) => "internal",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::RequestTooLarge { .. } => "request_too_large",
            ServeError::TooManyConnections { .. } => "too_many_connections",
            ServeError::Draining => "draining",
            ServeError::Timeout(_) => "timeout",
            ServeError::NotARecommender { .. } => "not_a_recommender",
            ServeError::UnknownUser { .. } => "unknown_user",
            ServeError::NoCandidates { .. } => "no_candidates",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(m) => write!(f, "io error: {m}"),
            ServeError::Parse(m) => write!(f, "parse error: {m}"),
            ServeError::Corrupt(m) => write!(f, "corrupt frozen model: {m}"),
            ServeError::Mismatch(m) => write!(f, "mismatch: {m}"),
            ServeError::MissingParam(name) => {
                write!(f, "frozen program needs parameter '{name}' but the file does not carry it")
            }
            ServeError::UnknownNode { node, num_nodes } => {
                write!(f, "unknown node {node} (frozen graph has {num_nodes} nodes)")
            }
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Export(m) => write!(f, "export failed: {m}"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded: admission queue full, retry in ~{retry_after_ms} ms")
            }
            ServeError::DeadlineExceeded { waited_ms, deadline_ms } => {
                write!(f, "deadline exceeded: waited {waited_ms} ms past a {deadline_ms} ms budget")
            }
            ServeError::RequestTooLarge { limit } => {
                write!(f, "request line exceeds the {limit}-byte cap; closing the connection")
            }
            ServeError::TooManyConnections { limit } => {
                write!(f, "connection refused: server is at its cap of {limit} connections")
            }
            ServeError::Draining => write!(f, "server is draining for shutdown"),
            ServeError::Timeout(m) => write!(f, "timeout: {m}"),
            ServeError::NotARecommender { reason } => {
                write!(f, "not a recommender: {reason}")
            }
            ServeError::UnknownUser { node, items, users } => {
                write!(
                    f,
                    "node {node} is not a user (users are {items}..{} in this bipartite layout)",
                    items + users
                )
            }
            ServeError::NoCandidates { node } => {
                write!(f, "no candidate items left for user {node}: everything is masked")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TrainError> for ServeError {
    fn from(e: TrainError) -> ServeError {
        match e {
            TrainError::Io(m) => ServeError::Io(m),
            TrainError::Parse(m) => ServeError::Parse(m),
            TrainError::Corrupt(m) => ServeError::Corrupt(m),
            other => ServeError::Mismatch(other.to_string()),
        }
    }
}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> ServeError {
        match e {
            ModelError::MissingParam(name) => ServeError::MissingParam(name),
        }
    }
}

impl From<ExportError> for ServeError {
    fn from(e: ExportError) -> ServeError {
        ServeError::Export(e.to_string())
    }
}

impl From<PevalError> for ServeError {
    fn from(e: PevalError) -> ServeError {
        match e {
            PevalError::MissingParam(name) => ServeError::MissingParam(name),
            PevalError::NotRowLocal { .. } => ServeError::Mismatch(format!(
                "program is not row-local, cannot serve it partition-lazily: {e} \
                 (serve the resident engine instead)"
            )),
            PevalError::Shape { .. } => ServeError::Mismatch(format!("frozen program: {e}")),
            other => ServeError::Internal(format!("partitioned evaluation: {other}")),
        }
    }
}
