//! The batched TCP model server, hardened for overload.
//!
//! Architecture: one accept thread, one reader thread per connection, and a
//! single **micro-batcher** thread that owns the [`Engine`]. Readers parse
//! newline-delimited JSON requests; model queries (`predict`/`top_k`/
//! mutations) are enqueued and the batcher drains the queue in one gulp (up
//! to `max_batch`). Control queries (`health`/`stats`/`swap_model`/
//! `shutdown`) are answered on the reader's thread — a reserved fast path
//! that never queues behind model work, so a liveness probe stays
//! microsecond-fast even when the queue is full.
//!
//! The overload contract (DESIGN.md §12), in order of the request's life:
//!
//! * **Connection admission** — at most `max_connections` live connections;
//!   the acceptor answers the excess with a typed `too_many_connections`
//!   line and closes.
//! * **Read hygiene** — every socket carries read/write timeouts; a request
//!   line over `max_request_bytes` gets a typed `request_too_large` and the
//!   connection closes (framing is lost); a connection silent for
//!   `idle_timeout_ms` is reaped, so slowloris clients cannot pin reader
//!   threads forever.
//! * **Queue admission** — the request queue holds at most `queue_capacity`
//!   jobs; the excess is shed immediately with a typed `overloaded` carrying
//!   a `retry_after_ms` hint derived from queue depth × mean service time.
//! * **Deadlines** — every admitted job is stamped `now + deadline_ms`; the
//!   batcher answers expired jobs with a typed `deadline_exceeded` instead
//!   of computing a dead answer.
//! * **Hot swap** — `swap_model` (or [`Server::swap`]) loads + checksums a
//!   new frozen file on the *calling* thread, then parks the built engine in
//!   a pending slot; the batcher installs it atomically at the next batch
//!   boundary. In-flight work drains on the old model, every response is
//!   stamped with the `model_version` that computed it.
//! * **Health states** — `health` reports `ok` | `degraded` (queue more
//!   than half full, shed in the last second, or a swap pending) |
//!   `draining` (shutdown in progress); graceful shutdown drains the queue
//!   before the worker threads join.
//!
//! Each queued request is handled inside `catch_unwind`: a panicking worker
//! produces a typed `internal` error response for that one request and the
//! server keeps answering everything else.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lasagne_testkit::bench::percentile;

use crate::engine::{Engine, Prediction};
use crate::error::{ServeError, ServeResult};
use crate::frozen::FrozenMeta;
use crate::lazy::LazyEngine;
use crate::protocol::{
    debug_sleep_response, error_response, error_response_versioned, health_response,
    mutation_response, predict_response, recommend_response, shutdown_response, stats_response,
    swap_response, top_k_response, Request, StatsSnapshot,
};
use crate::streaming::{Mutation, MutationReport};

/// The engine a server answers from: the resident propagation-cache
/// [`Engine`], or the partition-lazy [`LazyEngine`] (DESIGN.md §14). The
/// batcher thread owns it either way, and hot swaps preserve the mode — a
/// lazy server re-plans the incoming artifact with the same partition
/// count instead of silently materializing a full cache.
// One engine per server, owned by the batcher: the variants' size gap
// costs nothing, and boxing one only moves it.
#[allow(clippy::large_enum_variant)]
pub enum ServerEngine {
    /// Full-graph cache materialized at load.
    Resident(Engine),
    /// Per-partition caches materialized on first query.
    Lazy(LazyEngine),
}

impl From<Engine> for ServerEngine {
    fn from(e: Engine) -> ServerEngine {
        ServerEngine::Resident(e)
    }
}

impl From<LazyEngine> for ServerEngine {
    fn from(e: LazyEngine) -> ServerEngine {
        ServerEngine::Lazy(e)
    }
}

impl ServerEngine {
    fn meta(&self) -> &FrozenMeta {
        match self {
            ServerEngine::Resident(e) => e.meta(),
            ServerEngine::Lazy(e) => e.meta(),
        }
    }

    fn is_quantized(&self) -> bool {
        match self {
            ServerEngine::Resident(e) => e.is_quantized(),
            ServerEngine::Lazy(e) => e.is_quantized(),
        }
    }

    /// `Some(k)` when lazy — the partition count swaps must preserve.
    fn lazy_partitions(&self) -> Option<usize> {
        match self {
            ServerEngine::Resident(_) => None,
            ServerEngine::Lazy(e) => Some(e.planned_parts()),
        }
    }

    fn predict(&mut self, node: usize) -> ServeResult<Prediction> {
        match self {
            ServerEngine::Resident(e) => e.predict(node),
            ServerEngine::Lazy(e) => e.predict(node),
        }
    }

    fn top_k(&mut self, node: usize, k: usize) -> ServeResult<Vec<(usize, f32)>> {
        match self {
            ServerEngine::Resident(e) => e.top_k(node, k),
            ServerEngine::Lazy(e) => e.top_k(node, k),
        }
    }

    fn recommend(&mut self, node: usize, k: usize) -> ServeResult<Vec<(usize, f32)>> {
        match self {
            ServerEngine::Resident(e) => e.recommend(node, k),
            ServerEngine::Lazy(e) => e.recommend(node, k),
        }
    }

    fn apply_mutation(&mut self, m: &Mutation) -> ServeResult<MutationReport> {
        match self {
            ServerEngine::Resident(e) => e.apply_mutation(m),
            ServerEngine::Lazy(e) => e.apply_mutation(m),
        }
    }
}

/// Server tunables. The defaults are sized for a trusted LAN client pool;
/// the chaos suite and the verify soak run with much tighter ones.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Most queued requests the batcher drains per gulp.
    pub max_batch: usize,
    /// Enable test-only ops (`debug_panic`, `debug_sleep`). Never enable in
    /// production.
    pub debug_ops: bool,
    /// Admission-queue capacity; requests beyond it are shed with a typed
    /// `overloaded`.
    pub queue_capacity: usize,
    /// Deadline stamped on every admitted request, milliseconds; jobs that
    /// expire in the queue answer `deadline_exceeded`. 0 disables deadlines.
    pub deadline_ms: u64,
    /// Most live connections; the excess is refused with a typed
    /// `too_many_connections`.
    pub max_connections: usize,
    /// Per-line byte cap; longer request lines answer `request_too_large`
    /// and the connection closes.
    pub max_request_bytes: usize,
    /// Reap a connection after this much inactivity, milliseconds. 0
    /// disables reaping.
    pub idle_timeout_ms: u64,
    /// Socket write timeout, milliseconds — a dead client can stall a
    /// reader thread for at most this long. 0 disables.
    pub write_timeout_ms: u64,
    /// Read-poll granularity, milliseconds: how often an idle reader wakes
    /// to check the idle clock. Clamped to ≥ 10.
    pub poll_interval_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            max_batch: 64,
            debug_ops: false,
            queue_capacity: 1024,
            deadline_ms: 2_000,
            max_connections: 1024,
            max_request_bytes: 1 << 20,
            idle_timeout_ms: 30_000,
            write_timeout_ms: 2_000,
            poll_interval_ms: 100,
        }
    }
}

/// One queued model request and the channel its response goes back on.
struct Job {
    request: Request,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: mpsc::Sender<String>,
}

/// An engine built off-thread, waiting for the batcher to install it.
struct PendingSwap {
    engine: ServerEngine,
    version: u64,
}

/// Latency reservoir: a fixed-size ring so a long-lived server's stats stay
/// O(1) in memory while still reflecting recent traffic.
const LATENCY_RING: usize = 65_536;

/// A shed within this window marks health `degraded`.
const SHED_DEGRADED_WINDOW: Duration = Duration::from_secs(1);

#[derive(Default)]
struct StatsInner {
    requests: u64,
    batches: u64,
    max_batch: u64,
    batch_req_sum: u64,
    latency_sum_us: f64,
    latencies_us: Vec<f64>,
    next_slot: usize,
}

impl StatsInner {
    fn record_latency(&mut self, us: f64) {
        self.latency_sum_us += us;
        if self.latencies_us.len() < LATENCY_RING {
            self.latencies_us.push(us);
        } else {
            self.latencies_us[self.next_slot] = us;
            self.next_slot = (self.next_slot + 1) % LATENCY_RING;
        }
    }

    /// Mean service time over the whole run — the basis of the
    /// `retry_after_ms` hint.
    fn mean_latency_us(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.latency_sum_us / self.requests as f64
        }
    }
}

struct Shared {
    meta: Mutex<FrozenMeta>,
    /// Bound address; a client-initiated shutdown self-connects to it to
    /// wake the blocking accept loop.
    addr: SocketAddr,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    stats: Mutex<StatsInner>,
    config: ServerConfig,
    /// Mirror of `queue.len()`, readable without the queue lock — the
    /// health fast path must never wait on model-work locks.
    queue_depth: AtomicUsize,
    connections: AtomicUsize,
    /// Version of the engine currently installed in the batcher.
    model_version: AtomicU64,
    /// Allocator for swap versions; monotonic, may skip numbers if a
    /// pending swap is replaced before installation.
    version_alloc: AtomicU64,
    /// The built-but-not-yet-installed engine. Last submission wins.
    swap_slot: Mutex<Option<PendingSwap>>,
    swap_pending: AtomicBool,
    shed: AtomicU64,
    expired: AtomicU64,
    swaps: AtomicU64,
    /// Nanoseconds since `start` of the most recent shed; `u64::MAX` =
    /// never shed.
    last_shed_ns: AtomicU64,
    /// Mirror of the installed engine's quantized flag (the engine itself
    /// lives in the batcher thread); updated at swap install.
    quantized: AtomicBool,
    /// `Some(k)` when the server runs partition-lazily: swap loads re-plan
    /// the new artifact with the same `k` instead of going resident.
    lazy_partitions: Option<usize>,
    start: Instant,
    debug_ops: bool,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_stats(&self) -> std::sync::MutexGuard<'_, StatsInner> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_swap(&self) -> std::sync::MutexGuard<'_, Option<PendingSwap>> {
        self.swap_slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_meta(&self) -> std::sync::MutexGuard<'_, FrozenMeta> {
        self.meta.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The health state machine: `draining` once shutdown begins,
    /// `degraded` when the queue is more than half full, a shed happened
    /// within the last second, or a swap is waiting to install — else `ok`.
    fn health_status(&self) -> &'static str {
        if self.shutdown.load(Ordering::SeqCst) {
            return "draining";
        }
        let depth = self.queue_depth.load(Ordering::Relaxed);
        let half_full = 2 * depth >= self.config.queue_capacity.max(1);
        let last_shed = self.last_shed_ns.load(Ordering::Relaxed);
        let shed_recently = last_shed != u64::MAX
            && self.start.elapsed().saturating_sub(Duration::from_nanos(last_shed))
                <= SHED_DEGRADED_WINDOW;
        if half_full || shed_recently || self.swap_pending.load(Ordering::SeqCst) {
            "degraded"
        } else {
            "ok"
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let (requests, batches, max_batch, mean_batch, p50_us, p99_us) = {
            let stats = self.lock_stats();
            let mut sorted = stats.latencies_us.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let mean_batch = if stats.batches == 0 {
                0.0
            } else {
                stats.batch_req_sum as f64 / stats.batches as f64
            };
            let (p50, p99) = (percentile(&sorted, 0.50), percentile(&sorted, 0.99));
            (stats.requests, stats.batches, stats.max_batch, mean_batch, p50, p99)
        };
        StatsSnapshot {
            requests,
            batches,
            max_batch,
            mean_batch,
            p50_us,
            p99_us,
            queue_depth: self.queue_depth.load(Ordering::Relaxed) as u64,
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            model_version: self.model_version.load(Ordering::SeqCst),
            connections: self.connections.load(Ordering::Relaxed) as u64,
            quantized: self.quantized.load(Ordering::Relaxed),
        }
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop, drains the queue, and joins the worker threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    batcher_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept + batcher threads, and start answering.
    /// The engine moves into the batcher thread — it is the only thread
    /// that touches model state.
    pub fn start(engine: Engine, config: ServerConfig) -> ServeResult<Server> {
        Server::start_with(engine.into(), config)
    }

    /// [`Server::start`] for either engine mode — pass
    /// `ServerEngine::Lazy(LazyEngine::new(frozen, k)?)` to serve out of
    /// lazily materialized per-partition caches.
    pub fn start_with(engine: ServerEngine, config: ServerConfig) -> ServeResult<Server> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Io(format!("bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;
        let debug_ops = config.debug_ops;
        let shared = Arc::new(Shared {
            meta: Mutex::new(engine.meta().clone()),
            addr,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: Mutex::new(StatsInner::default()),
            config,
            queue_depth: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            model_version: AtomicU64::new(1),
            version_alloc: AtomicU64::new(1),
            swap_slot: Mutex::new(None),
            swap_pending: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            last_shed_ns: AtomicU64::new(u64::MAX),
            quantized: AtomicBool::new(engine.is_quantized()),
            lazy_partitions: engine.lazy_partitions(),
            start: Instant::now(),
            debug_ops,
        });

        let batcher = {
            let shared = Arc::clone(&shared);
            let max_batch = shared.config.max_batch.max(1);
            std::thread::Builder::new()
                .name("serve-batcher".into())
                .spawn(move || batcher_loop(engine, shared, max_batch))
                .map_err(|e| ServeError::Io(format!("spawn batcher: {e}")))?
        };

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, shared))
                .map_err(|e| ServeError::Io(format!("spawn acceptor: {e}")))?
        };

        Ok(Server {
            addr,
            shared,
            accept_thread: Some(acceptor),
            batcher_thread: Some(batcher),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Version of the model answering new requests (monotonic, starts at 1).
    pub fn model_version(&self) -> u64 {
        self.shared.model_version.load(Ordering::SeqCst)
    }

    /// Hot-swap the served model: load + checksum `path` and build its
    /// engine on *this* thread (the batcher keeps serving), then hand it to
    /// the batcher, which installs it atomically at the next batch
    /// boundary. Returns the version the new model will serve as. The wire
    /// verb `swap_model` is this same path invoked from a reader thread.
    pub fn swap(&self, path: &Path) -> ServeResult<u64> {
        submit_swap(&self.shared, path)
    }

    /// Stop accepting, drain queued requests, and join the worker threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Block until a client sends `shutdown` (foreground serving — the CLI
    /// `serve` subcommand), then drain and join.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.batcher_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() || self.batcher_thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// Load + checksum a frozen file, build its engine (the expensive part —
/// full propagation), and park it for the batcher. Runs entirely on the
/// caller's thread; the batcher never blocks on a load.
fn submit_swap(shared: &Shared, path: &Path) -> ServeResult<u64> {
    lasagne_obs::span!("serve.swap.load");
    let engine = match shared.lazy_partitions {
        Some(k) => LazyEngine::load_path(path, k)?.into(),
        None => Engine::load_path(path)?.into(),
    };
    let version = shared.version_alloc.fetch_add(1, Ordering::SeqCst) + 1;
    {
        let mut slot = shared.lock_swap();
        *slot = Some(PendingSwap { engine, version });
    }
    shared.swap_pending.store(true, Ordering::SeqCst);
    // Wake the batcher even if the queue is empty so the swap installs
    // promptly, not at the next request.
    shared.available.notify_all();
    Ok(version)
}

/// Decrements the live-connection gauge when a reader exits, however it
/// exits.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Line-oriented request/response traffic stalls badly under Nagle
        // + delayed ACK (~40-200 ms per round trip); disable buffering.
        let _ = stream.set_nodelay(true);
        let limit = shared.config.max_connections.max(1);
        if shared.connections.fetch_add(1, Ordering::SeqCst) >= limit {
            shared.connections.fetch_sub(1, Ordering::SeqCst);
            lasagne_obs::counter_add("serve.conn_refused", 1);
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = writeln!(stream, "{}", error_response(&ServeError::TooManyConnections { limit }));
            continue; // dropped: refused connections never get a thread
        }
        let guard = ConnGuard(Arc::clone(&shared));
        let shared = Arc::clone(&shared);
        // Reader threads are detached: they end when their client hangs up
        // or idles out, and a shut-down server answers their enqueues with
        // a typed error.
        let spawned = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || connection_loop(stream, shared, guard));
        // On spawn failure the guard (moved into the closure that never
        // ran) is dropped by the Err, decrementing the gauge.
        let _ = spawned;
    }
}

/// What one poll of the bounded line reader produced.
enum NextLine {
    Line(String),
    /// The accumulated line crossed `max_request_bytes` with no newline.
    TooLarge,
    /// Read timed out with no new bytes; the caller checks the idle clock.
    Idle,
    /// EOF or a hard socket error.
    Closed,
}

/// A newline-delimited reader with a hard per-line byte cap, built on a
/// raw `TcpStream` so a read timeout never loses buffered partial input
/// (BufReader's `read_line` drops its progress on `Err`).
struct BoundedLineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    max_line: usize,
}

impl BoundedLineReader {
    fn next_line(&mut self) -> NextLine {
        loop {
            if let Some(p) = self.buf.iter().position(|&b| b == b'\n') {
                // The cap is on the line, not the buffer: a pipelined short
                // request ahead of a long one must not shield the long one.
                if p > self.max_line {
                    return NextLine::TooLarge;
                }
                let line: Vec<u8> = self.buf.drain(..=p).collect();
                let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                return NextLine::Line(text.trim_end_matches('\r').to_string());
            }
            if self.buf.len() > self.max_line {
                return NextLine::TooLarge;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return NextLine::Closed,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return NextLine::Idle
                }
                Err(_) => return NextLine::Closed,
            }
        }
    }
}

fn connection_loop(stream: TcpStream, shared: Arc<Shared>, _guard: ConnGuard) {
    let cfg = &shared.config;
    // The read timeout doubles as the idle-poll tick: an idle reader wakes
    // this often to check the reap clock, holding no locks in between.
    let tick = Duration::from_millis(cfg.poll_interval_ms.max(10));
    let _ = stream.set_read_timeout(Some(tick));
    if cfg.write_timeout_ms > 0 {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms)));
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let idle_timeout =
        (cfg.idle_timeout_ms > 0).then(|| Duration::from_millis(cfg.idle_timeout_ms));
    let max_line = cfg.max_request_bytes.max(1);
    let mut reader = BoundedLineReader { stream, buf: Vec::new(), max_line };
    let mut last_activity = Instant::now();
    loop {
        let line = match reader.next_line() {
            NextLine::Line(line) => {
                last_activity = Instant::now();
                line
            }
            NextLine::TooLarge => {
                // Framing is lost mid-line: answer typed, then close. The
                // close must *linger* — if we slam the socket while the
                // client is still blasting its oversized line, the kernel
                // answers the unread bytes with an RST that destroys our
                // response before the client can read it. So: send, FIN
                // our side, then drain and discard input for a bounded
                // window before dropping the socket.
                lasagne_obs::counter_add("serve.too_large", 1);
                let e = ServeError::RequestTooLarge { limit: max_line };
                let _ = writeln!(writer, "{}", error_response(&e));
                let _ = writer.shutdown(std::net::Shutdown::Write);
                let linger_until = Instant::now() + Duration::from_millis(500);
                let mut sink = [0u8; 4096];
                while Instant::now() < linger_until {
                    match reader.stream.read(&mut sink) {
                        Ok(0) => break,
                        Ok(_) => continue,
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            continue
                        }
                        Err(_) => break,
                    }
                }
                return;
            }
            NextLine::Idle => {
                match idle_timeout {
                    Some(limit) if last_activity.elapsed() >= limit => {
                        lasagne_obs::counter_add("serve.idle_reaped", 1);
                        return;
                    }
                    _ => continue,
                }
            }
            NextLine::Closed => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::parse(&line) {
            Err(e) => error_response(&e),
            // The control fast path: health/stats/swap/shutdown answer on
            // this thread and never touch the model-work queue.
            Ok(Request::Health) => health_response(
                &shared.lock_meta(),
                shared.health_status(),
                shared.model_version.load(Ordering::SeqCst),
                shared.queue_depth.load(Ordering::Relaxed) as u64,
            ),
            Ok(Request::Stats) => stats_response(&shared.snapshot()),
            Ok(Request::SwapModel { path }) => match submit_swap(&shared, Path::new(&path)) {
                Ok(version) => swap_response(version),
                Err(e) => error_response(&e),
            },
            Ok(Request::Shutdown) => {
                let _ = writeln!(writer, "{}", shutdown_response());
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.available.notify_all();
                // Wake the blocking accept() so the server can exit.
                let _ = TcpStream::connect(shared.addr);
                return;
            }
            Ok(request) => match enqueue_and_wait(&shared, request) {
                Ok(resp) => resp,
                Err(e) => error_response(&e),
            },
        };
        if writeln!(writer, "{response}").is_err() {
            break;
        }
    }
}

/// Bounded admission: queue a model request for the batcher and block until
/// its response. A full queue sheds immediately with a typed `overloaded`
/// (plus a backoff hint); a draining server refuses with `draining`.
fn enqueue_and_wait(shared: &Shared, request: Request) -> ServeResult<String> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(ServeError::Draining);
    }
    let capacity = shared.config.queue_capacity.max(1);
    let (tx, rx) = mpsc::channel();
    {
        let mut queue = shared.lock_queue();
        if queue.len() >= capacity {
            drop(queue);
            shared.shed.fetch_add(1, Ordering::Relaxed);
            shared
                .last_shed_ns
                .store(shared.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            lasagne_obs::counter_add("serve.shed", 1);
            // Retry hint: roughly how long the backlog takes to service at
            // the observed mean latency; 1 ms floor so clients always wait.
            let mean_us = shared.lock_stats().mean_latency_us();
            let hint = (capacity as f64 * mean_us / 1e3).ceil() as u64;
            return Err(ServeError::Overloaded { retry_after_ms: hint.clamp(1, 10_000) });
        }
        let deadline = (shared.config.deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(shared.config.deadline_ms));
        queue.push_back(Job { request, enqueued: Instant::now(), deadline, reply: tx });
        shared.queue_depth.store(queue.len(), Ordering::Relaxed);
    }
    shared.available.notify_one();
    rx.recv().map_err(|_| ServeError::Draining)
}

fn batcher_loop(mut engine: ServerEngine, shared: Arc<Shared>, max_batch: usize) {
    let mut version = shared.model_version.load(Ordering::SeqCst);
    loop {
        // Swap installation point: always at a batch boundary, so a batch
        // never straddles two models and every response is stamped with
        // exactly the version that computed it.
        if shared.swap_pending.swap(false, Ordering::SeqCst) {
            if let Some(pending) = shared.lock_swap().take() {
                engine = pending.engine;
                version = pending.version;
                shared.model_version.store(version, Ordering::SeqCst);
                *shared.lock_meta() = engine.meta().clone();
                shared.quantized.store(engine.is_quantized(), Ordering::Relaxed);
                shared.swaps.fetch_add(1, Ordering::Relaxed);
                lasagne_obs::counter_add("serve.swaps", 1);
            }
        }
        let batch: Vec<Job> = {
            let mut queue = shared.lock_queue();
            loop {
                if !queue.is_empty() {
                    let n = queue.len().min(max_batch);
                    let batch: Vec<Job> = queue.drain(..n).collect();
                    shared.queue_depth.store(queue.len(), Ordering::Relaxed);
                    break batch;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return; // drained and told to stop
                }
                if shared.swap_pending.load(Ordering::SeqCst) {
                    break Vec::new(); // install at the top of the loop
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        if batch.is_empty() {
            continue;
        }
        lasagne_obs::span!("serve.batch");
        lasagne_obs::counter_add("serve.batches", 1);
        lasagne_obs::counter_add("serve.batch_nodes", batch.len() as u64);
        {
            let mut stats = shared.lock_stats();
            stats.batches += 1;
            stats.batch_req_sum += batch.len() as u64;
            stats.max_batch = stats.max_batch.max(batch.len() as u64);
        }
        for job in batch {
            // Deadline check before compute: an expired job answers typed
            // instead of burning batcher time on a dead answer.
            let response = match job.deadline {
                Some(d) if Instant::now() > d => {
                    shared.expired.fetch_add(1, Ordering::Relaxed);
                    lasagne_obs::counter_add("serve.expired", 1);
                    let e = ServeError::DeadlineExceeded {
                        waited_ms: job.enqueued.elapsed().as_millis() as u64,
                        deadline_ms: shared.config.deadline_ms,
                    };
                    error_response_versioned(&e, Some(version))
                }
                _ => {
                    // Panic isolation: a crashing handler answers *this*
                    // request with a typed internal error and the loop
                    // moves on.
                    catch_unwind(AssertUnwindSafe(|| {
                        handle_model_request(&mut engine, &job.request, shared.debug_ops, version)
                    }))
                    .unwrap_or_else(|panic| {
                        let what = panic
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "worker panicked".into());
                        error_response_versioned(&ServeError::Internal(what), Some(version))
                    })
                }
            };
            let us = job.enqueued.elapsed().as_secs_f64() * 1e6;
            lasagne_obs::counter_add("serve.requests", 1);
            lasagne_obs::counter_add_ns("serve.latency_ns", (us * 1e3) as u64);
            {
                let mut stats = shared.lock_stats();
                stats.requests += 1;
                stats.record_latency(us);
            }
            let _ = job.reply.send(response);
        }
    }
}

fn handle_model_request(
    engine: &mut ServerEngine,
    request: &Request,
    debug_ops: bool,
    version: u64,
) -> String {
    lasagne_obs::span!("serve.request");
    let mutate = |engine: &mut ServerEngine, op: &str, m: Mutation| -> String {
        match engine.apply_mutation(&m) {
            Ok(report) => mutation_response(op, &report, version),
            Err(e) => error_response_versioned(&e, Some(version)),
        }
    };
    match request {
        Request::Predict { node } => match engine.predict(*node) {
            Ok(p) => predict_response(&p, version),
            Err(e) => error_response_versioned(&e, Some(version)),
        },
        Request::TopK { node, k } => match engine.top_k(*node, *k) {
            Ok(ranked) => top_k_response(*node, &ranked, version),
            Err(e) => error_response_versioned(&e, Some(version)),
        },
        Request::Recommend { node, k } => match engine.recommend(*node, *k) {
            Ok(ranked) => recommend_response(*node, &ranked, version),
            Err(e) => error_response_versioned(&e, Some(version)),
        },
        Request::AddEdge { u, v } => mutate(engine, "add_edge", Mutation::AddEdge { u: *u, v: *v }),
        Request::RemoveEdge { u, v } => {
            mutate(engine, "remove_edge", Mutation::RemoveEdge { u: *u, v: *v })
        }
        Request::AddNode { features } => {
            mutate(engine, "add_node", Mutation::AddNode { features: features.clone() })
        }
        Request::DebugPanic => {
            if debug_ops {
                panic!("debug_panic requested by client");
            }
            error_response(&ServeError::BadRequest(
                "debug ops are disabled on this server".into(),
            ))
        }
        Request::DebugSleep { ms } => {
            if debug_ops {
                std::thread::sleep(Duration::from_millis(*ms));
                debug_sleep_response(version)
            } else {
                error_response(&ServeError::BadRequest(
                    "debug ops are disabled on this server".into(),
                ))
            }
        }
        // Health/Stats/SwapModel/Shutdown are answered inline by the
        // reader thread — the fast path never reaches the batcher.
        other => error_response(&ServeError::Internal(format!(
            "control request {other:?} reached the batcher"
        ))),
    }
}
