//! `lasagne-obs`: a zero-registry-dependency tracing/metrics subsystem.
//!
//! The stack's hot paths (`Tensor::matmul*`, `Csr::spmm*`, the `lasagne-par`
//! pool, trainer epochs, checkpoint I/O) carry [`span!`] RAII guards and
//! [`counter_add`] calls. When no [`TraceSink`] is active they cost **one
//! relaxed atomic load** each — the overhead contract pinned by an assertion
//! in the kernels bench. When a sink is active, spans aggregate into a
//! call tree keyed by `(parent, name)`: entering `spmm` under
//! `epoch/forward` twice bumps one node's `count` rather than growing the
//! tree, so a 150-epoch run produces a screenful of rows, not gigabytes.
//!
//! # Model
//!
//! - A span is entered with [`SpanGuard::enter`] (or the [`span!`] macro)
//!   and recorded when the guard drops. Per-thread nesting is tracked by a
//!   thread-local stack; timing uses monotonic [`Instant`].
//! - Counters are process-global named `u64` sums: `spmm.nnz`,
//!   `matmul.flops`, `train.recoveries`, `par.chunks`, … The serve
//!   overload machinery (DESIGN.md §12) ticks `serve.shed`,
//!   `serve.expired`, `serve.swaps`, `serve.too_large`,
//!   `serve.conn_refused`, and `serve.idle_reaped` here, so a traced
//!   server run shows its overload behavior next to its kernel costs.
//! - [`TraceSink::start`] resets the global state and enables recording;
//!   [`TraceSink::finish`] disables it and returns a [`TraceReport`] —
//!   depth-first span rows plus name-sorted counters — which serializes to
//!   JSONL via the `lasagne-testkit` codec.
//!
//! # Determinism
//!
//! The JSONL artifact is byte-deterministic *modulo durations*: tree shape,
//! ordering, counts, and counter values depend only on the traced workload.
//! In deterministic mode (`TraceSink::start(true)`, CLI
//! `--trace-deterministic`) every duration is recorded as 0 at the source,
//! so two same-seed runs emit **byte-identical** files — diffable in tests.
//!
//! A sink reset (start or finish) bumps a generation counter; a guard whose
//! generation no longer matches at drop time records nothing, so spans
//! straddling a reset can never corrupt the new tree.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

mod report;
pub use report::{SpanStat, TraceReport};

/// Global enable flag. The *only* cost on the disabled path.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// When set, durations are recorded as 0 (byte-diffable traces).
static DETERMINISTIC: AtomicBool = AtomicBool::new(false);
/// Bumped on every sink start/finish; stale guards detect it and no-op.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// True while a [`TraceSink`] is recording. Instrumentation that needs more
/// than a span (e.g. taking an `Instant` for [`counter_add_ns`]) should gate
/// on this.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True while the active sink is in deterministic (zeroed-durations) mode.
#[inline(always)]
pub fn deterministic() -> bool {
    DETERMINISTIC.load(Ordering::Relaxed)
}

/// One aggregated node of the span call tree: all invocations of `name`
/// under the same parent chain.
struct SpanNode {
    name: &'static str,
    parent: Option<usize>,
    children: Vec<usize>,
    count: u64,
    total_ns: u64,
    /// Time attributed to direct children (subtracted to get self time).
    child_ns: u64,
}

struct Tree {
    nodes: Vec<SpanNode>,
    roots: Vec<usize>,
    counters: Vec<(&'static str, u64)>,
}

static TREE: Mutex<Tree> = Mutex::new(Tree {
    nodes: Vec::new(),
    roots: Vec::new(),
    counters: Vec::new(),
});

thread_local! {
    /// Stack of `(generation, node index)` for spans open on this thread.
    static STACK: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

fn lock_tree() -> std::sync::MutexGuard<'static, Tree> {
    TREE.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII span guard. Construction on the disabled path is a single relaxed
/// atomic load; everything else lives in the cold functions below.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    node: usize,
    generation: u64,
    start: Instant,
}

impl SpanGuard {
    /// Enter a span named `name`, nested under the innermost span open on
    /// this thread. No-op (and no allocation) when tracing is disabled.
    #[inline(always)]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !ENABLED.load(Ordering::Relaxed) {
            return SpanGuard { active: None };
        }
        SpanGuard { active: Some(enter_slow(name)) }
    }
}

#[inline(never)]
#[cold]
fn enter_slow(name: &'static str) -> ActiveSpan {
    let generation = GENERATION.load(Ordering::Relaxed);
    // The parent is the top of this thread's stack — but only if it was
    // pushed under the *current* sink; spans left open across a reset must
    // not become parents in the new tree.
    let parent = STACK.with(|s| {
        s.borrow().last().and_then(|&(g, n)| (g == generation).then_some(n))
    });
    let node = {
        let mut tree = lock_tree();
        let siblings: &[usize] = match parent {
            Some(p) if p < tree.nodes.len() => &tree.nodes[p].children,
            Some(_) => &[],
            None => &tree.roots,
        };
        match siblings.iter().copied().find(|&c| tree.nodes[c].name == name) {
            Some(existing) => existing,
            None => {
                let idx = tree.nodes.len();
                tree.nodes.push(SpanNode {
                    name,
                    parent,
                    children: Vec::new(),
                    count: 0,
                    total_ns: 0,
                    child_ns: 0,
                });
                match parent {
                    Some(p) if p < idx => tree.nodes[p].children.push(idx),
                    _ => tree.roots.push(idx),
                }
                idx
            }
        }
    };
    STACK.with(|s| s.borrow_mut().push((generation, node)));
    ActiveSpan { node, generation, start: Instant::now() }
}

impl Drop for SpanGuard {
    #[inline(always)]
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            exit_slow(active);
        }
    }
}

#[inline(never)]
#[cold]
fn exit_slow(active: ActiveSpan) {
    let elapsed = active.start.elapsed();
    // Spans nest strictly per thread, so our entry is the top of the stack
    // whether or not a reset happened in between.
    STACK.with(|s| {
        s.borrow_mut().pop();
    });
    if GENERATION.load(Ordering::Relaxed) != active.generation {
        return; // sink was reset mid-span; the node index is stale
    }
    let ns = if DETERMINISTIC.load(Ordering::Relaxed) {
        0
    } else {
        u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
    };
    let mut tree = lock_tree();
    if active.node >= tree.nodes.len() {
        return;
    }
    let parent = {
        let node = &mut tree.nodes[active.node];
        node.count += 1;
        node.total_ns = node.total_ns.saturating_add(ns);
        node.parent
    };
    if let Some(p) = parent {
        tree.nodes[p].child_ns = tree.nodes[p].child_ns.saturating_add(ns);
    }
}

/// Enter a span for the rest of the enclosing scope:
/// `span!("spmm");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _lasagne_obs_span = $crate::SpanGuard::enter($name);
    };
}

/// Add `delta` to the named counter (creating it at 0 first). Counter names
/// are static so the disabled path allocates nothing.
#[inline(always)]
pub fn counter_add(name: &'static str, delta: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    counter_add_slow(name, delta);
}

/// [`counter_add`] for *time-valued* counters (e.g. per-worker pool busy
/// time) and counters that vary with timings (the bytes of a checkpoint
/// that records epoch durations): in deterministic mode the value is
/// recorded as 0 so the counter key stays present but the artifact stays
/// byte-diffable.
#[inline(always)]
pub fn counter_add_ns(name: &'static str, ns: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    counter_add_slow(name, if DETERMINISTIC.load(Ordering::Relaxed) { 0 } else { ns });
}

#[inline(never)]
#[cold]
fn counter_add_slow(name: &'static str, delta: u64) {
    let mut tree = lock_tree();
    match tree.counters.iter_mut().find(|(n, _)| *n == name) {
        Some((_, v)) => *v = v.saturating_add(delta),
        None => tree.counters.push((name, delta)),
    }
}

/// A recording session. `start` resets the global span tree and counters
/// and enables recording; `finish` disables it and snapshots the report.
/// Dropping an unfinished sink disables recording without a report.
pub struct TraceSink {
    deterministic: bool,
    finished: bool,
}

impl TraceSink {
    /// Begin recording. Any previously accumulated spans/counters are
    /// discarded; guards still open from before the reset will detect the
    /// generation bump and record nothing.
    pub fn start(deterministic: bool) -> TraceSink {
        let mut tree = lock_tree();
        tree.nodes.clear();
        tree.roots.clear();
        tree.counters.clear();
        GENERATION.fetch_add(1, Ordering::Relaxed);
        DETERMINISTIC.store(deterministic, Ordering::Relaxed);
        ENABLED.store(true, Ordering::Relaxed);
        TraceSink { deterministic, finished: false }
    }

    /// Stop recording and return the aggregated report.
    pub fn finish(mut self) -> TraceReport {
        self.finished = true;
        ENABLED.store(false, Ordering::Relaxed);
        let mut tree = lock_tree();
        GENERATION.fetch_add(1, Ordering::Relaxed);
        let report = snapshot(&tree, self.deterministic);
        tree.nodes.clear();
        tree.roots.clear();
        tree.counters.clear();
        report
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        if !self.finished {
            ENABLED.store(false, Ordering::Relaxed);
            GENERATION.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Depth-first (insertion-ordered) flattening of the call tree plus
/// name-sorted counters. Deterministic in the traced workload alone.
fn snapshot(tree: &Tree, deterministic: bool) -> TraceReport {
    let mut spans = Vec::with_capacity(tree.nodes.len());
    fn walk(tree: &Tree, idx: usize, prefix: &str, depth: usize, out: &mut Vec<SpanStat>) {
        let node = &tree.nodes[idx];
        let path = if prefix.is_empty() {
            node.name.to_string()
        } else {
            format!("{prefix}/{}", node.name)
        };
        out.push(SpanStat {
            name: node.name.to_string(),
            depth,
            count: node.count,
            total_ns: node.total_ns,
            self_ns: node.total_ns.saturating_sub(node.child_ns),
            path: path.clone(),
        });
        for &c in &node.children {
            walk(tree, c, &path, depth + 1, out);
        }
    }
    for &r in &tree.roots {
        walk(tree, r, "", 0, &mut spans);
    }
    let mut counters: Vec<(String, u64)> =
        tree.counters.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    TraceReport { deterministic, spans, counters }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span tree and counters are process-global; tests must not record
    /// concurrently or they would observe each other's spans.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn workload() -> TraceReport {
        let sink = TraceSink::start(true);
        for _ in 0..3 {
            span!("epoch");
            {
                span!("forward");
                span!("spmm");
                counter_add("spmm.nnz", 10);
            }
            {
                span!("backward");
            }
        }
        counter_add("flops", 7);
        sink.finish()
    }

    #[test]
    fn disabled_guard_is_inert() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        {
            span!("never");
            counter_add("never", 1);
        }
        let report = TraceSink::start(true).finish();
        assert!(report.spans.is_empty(), "pre-sink spans must not leak into a report");
        assert!(report.counters.is_empty());
    }

    #[test]
    fn call_tree_aggregates_by_path() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let report = workload();
        let paths: Vec<(&str, u64, usize)> =
            report.spans.iter().map(|s| (s.path.as_str(), s.count, s.depth)).collect();
        assert_eq!(
            paths,
            vec![
                ("epoch", 3, 0),
                ("epoch/forward", 3, 1),
                ("epoch/forward/spmm", 3, 2),
                ("epoch/backward", 3, 1),
            ]
        );
        assert_eq!(report.counter("spmm.nnz"), Some(30));
        assert_eq!(report.counter("flops"), Some(7));
        // Counters come out name-sorted regardless of insertion order.
        assert_eq!(report.counters[0].0, "flops");
    }

    #[test]
    fn deterministic_mode_zeroes_durations_and_bytes_match() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = workload();
        let b = workload();
        assert!(a.spans.iter().all(|s| s.total_ns == 0 && s.self_ns == 0));
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "deterministic traces must be byte-identical");
    }

    #[test]
    fn timed_mode_records_nonzero_durations() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sink = TraceSink::start(false);
        {
            span!("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let report = sink.finish();
        let (count, total) = report.total_named("outer");
        assert_eq!(count, 1);
        assert!(total >= 1_000_000, "slept 2ms but recorded {total}ns");
    }

    #[test]
    fn jsonl_round_trips() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let report = workload();
        let text = report.to_jsonl();
        let parsed = TraceReport::parse_jsonl(&text).expect("parse back");
        assert_eq!(parsed.to_jsonl(), text);
        assert!(parsed.deterministic);
        assert_eq!(parsed.spans.len(), report.spans.len());
        assert_eq!(parsed.counters, report.counters);
    }

    #[test]
    fn guard_straddling_a_reset_records_nothing() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sink = TraceSink::start(true);
        let stale = SpanGuard::enter("stale");
        drop(sink.finish());
        let sink2 = TraceSink::start(true);
        drop(stale); // generation mismatch: must not touch the new tree
        {
            span!("fresh");
        }
        let report = sink2.finish();
        let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["fresh"], "stale guard leaked into {paths:?}");
    }
}
