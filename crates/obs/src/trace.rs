//! Distributed tracing: a [`TraceCtx`] carried through the rpc envelope on
//! every call, per-process lock-free span sinks, and an exporter that
//! stitches cross-node spans into per-operation trees.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** Tracing is opt-in via [`enable`]; when disabled
//!    every instrumentation point is a single relaxed atomic load.
//! 2. **Deterministic.** The simulator replays schedules from a seed; trace
//!    and span ids come from process-global atomic counters, never from
//!    randomness or wall-clock entropy, so enabling tracing cannot perturb a
//!    seeded run's id sequences.
//! 3. **No heap on the hot path.** Finished spans go into a bounded
//!    lock-free [`RingBuffer`] (overwriting the oldest on overflow); names
//!    are `&'static str`.
//!
//! Context flows two ways. Within a node, spans nest through a thread-local
//! (`Network::call` runs the handler on the caller's thread, so the
//! thread-local survives the hop naturally). Across threads — oneway
//! messages are delivered by worker threads — the context rides the wire: a
//! [`wire_wrap`]ed payload carries `(trace_id, span_id, parent)` ahead of
//! the application bytes and the rpc layer restores the thread-local before
//! dispatching the handler.

use crate::ring::RingBuffer;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The identity of an in-flight operation: which trace it belongs to, which
/// span is current, and that span's parent. This is what crosses the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Identifies the whole operation tree (e.g. one `create` call).
    pub trace_id: u64,
    /// The currently-open span.
    pub span_id: u64,
    /// The span that opened `span_id`; 0 for roots.
    pub parent: u64,
}

/// One finished span as recorded in the sink.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Unique id of this span.
    pub span_id: u64,
    /// Parent span id; 0 for trace roots.
    pub parent: u64,
    /// Node the span executed on (rpc-layer node id; 0 = unattributed).
    pub node: u64,
    /// Static name, e.g. `"fs.create"` or `"raft.propose"`.
    pub name: &'static str,
    /// Start offset in nanoseconds from the process trace epoch.
    pub start_ns: u64,
    /// End offset in nanoseconds from the process trace epoch.
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
    static NODE: Cell<u64> = const { Cell::new(0) };
    static LAST_ROOT: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn sink() -> &'static RingBuffer<SpanRecord> {
    static SINK: OnceLock<RingBuffer<SpanRecord>> = OnceLock::new();
    SINK.get_or_init(|| RingBuffer::new(65_536))
}

/// Turns span recording on process-wide.
pub fn enable() {
    epoch(); // pin the epoch before the first span
    ENABLED.store(true, Ordering::Release);
}

/// Turns span recording off. Already-recorded spans stay drainable.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether spans are currently being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Removes and returns every recorded span, oldest first.
pub fn drain() -> Vec<SpanRecord> {
    sink().drain()
}

/// Spans evicted from the sink because it was full.
pub fn evicted() -> u64 {
    sink().evicted()
}

/// Puts a span back into the sink. The sink is process-global and shared,
/// so a consumer interested in one trace drains everything, keeps its own
/// spans, and requeues the rest for other consumers.
pub fn requeue(span: SpanRecord) {
    sink().push(span);
}

/// The calling thread's current trace context, if any.
pub fn current() -> Option<TraceCtx> {
    CURRENT.with(|c| c.get())
}

/// Trace id of the most recent root span opened on this thread (0 if none).
/// Lets a harness that calls an instrumented API correlate the operation it
/// just ran with the trace the instrumentation opened internally.
pub fn last_root_trace_id() -> u64 {
    LAST_ROOT.with(|t| t.get())
}

/// The node id attributed to work on the calling thread (0 = none).
pub fn current_node() -> u64 {
    NODE.with(|n| n.get())
}

/// Attributes the calling thread's spans and metrics to `node` until the
/// guard drops; the previous attribution is restored.
pub fn node_scope(node: u64) -> NodeScope {
    let prev = NODE.with(|n| n.replace(node));
    NodeScope { prev }
}

/// Restores the previous node attribution on drop. See [`node_scope`].
pub struct NodeScope {
    prev: u64,
}

impl Drop for NodeScope {
    fn drop(&mut self) {
        NODE.with(|n| n.set(self.prev));
    }
}

/// Installs `ctx` as the calling thread's trace context until the guard
/// drops (used by the rpc layer when a context arrives over the wire).
pub fn ctx_scope(ctx: Option<TraceCtx>) -> CtxScope {
    let prev = CURRENT.with(|c| c.replace(ctx));
    CtxScope { prev }
}

/// Restores the previous trace context on drop. See [`ctx_scope`].
pub struct CtxScope {
    prev: Option<TraceCtx>,
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// An open span; records itself into the sink when dropped.
pub struct SpanGuard {
    ctx: Option<TraceCtx>,
    prev: Option<TraceCtx>,
    name: &'static str,
    start_ns: u64,
    node: u64,
}

impl SpanGuard {
    /// The context of this span while open (None when tracing is disabled).
    pub fn ctx(&self) -> Option<TraceCtx> {
        self.ctx
    }

    /// The trace id of this span, or 0 when tracing is disabled.
    pub fn trace_id(&self) -> u64 {
        self.ctx.map_or(0, |c| c.trace_id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx {
            CURRENT.with(|c| c.set(self.prev));
            sink().push(SpanRecord {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent: ctx.parent,
                node: self.node,
                name: self.name,
                start_ns: self.start_ns,
                end_ns: now_ns(),
            });
        }
    }
}

fn open(name: &'static str, force_root: bool) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            ctx: None,
            prev: None,
            name,
            start_ns: 0,
            node: 0,
        };
    }
    let prev = current();
    let ctx = match prev {
        Some(p) if !force_root => TraceCtx {
            trace_id: p.trace_id,
            span_id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            parent: p.span_id,
        },
        _ => {
            let trace_id = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
            LAST_ROOT.with(|t| t.set(trace_id));
            TraceCtx {
                trace_id,
                span_id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
                parent: 0,
            }
        }
    };
    CURRENT.with(|c| c.set(Some(ctx)));
    SpanGuard {
        ctx: Some(ctx),
        prev,
        name,
        start_ns: now_ns(),
        node: current_node(),
    }
}

/// Opens a span as a child of the thread's current context (or as a new
/// trace root if there is none). Closes, and records, on drop.
pub fn span(name: &'static str) -> SpanGuard {
    open(name, false)
}

/// Opens a span that starts a fresh trace regardless of the current context.
pub fn root_span(name: &'static str) -> SpanGuard {
    open(name, true)
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// First byte of a trace-wrapped payload. Chosen to collide with no mux
/// channel byte (`CH_RAFT`/`CH_APP`/`CH_TXN` are 0/1/2).
pub const WIRE_MAGIC: u8 = 0xE7;

const WIRE_HDR: usize = 1 + 3 * 8;

/// Prepends `ctx` to `payload`: `[0xE7, trace_id, span_id, parent]` as
/// little-endian u64s, then the original bytes.
pub fn wire_wrap(ctx: TraceCtx, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(WIRE_HDR + payload.len());
    out.push(WIRE_MAGIC);
    out.extend_from_slice(&ctx.trace_id.to_le_bytes());
    out.extend_from_slice(&ctx.span_id.to_le_bytes());
    out.extend_from_slice(&ctx.parent.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Splits a [`wire_wrap`]ed payload back into its context and inner bytes.
/// Returns `None` for payloads that don't carry the envelope.
pub fn wire_unwrap(payload: &[u8]) -> Option<(TraceCtx, &[u8])> {
    if payload.len() < WIRE_HDR || payload[0] != WIRE_MAGIC {
        return None;
    }
    let u = |i: usize| u64::from_le_bytes(payload[i..i + 8].try_into().unwrap());
    Some((
        TraceCtx {
            trace_id: u(1),
            span_id: u(9),
            parent: u(17),
        },
        &payload[WIRE_HDR..],
    ))
}

// ---------------------------------------------------------------------------
// Exporter
// ---------------------------------------------------------------------------

/// A span plus its children, as stitched by [`build_trees`].
#[derive(Debug)]
pub struct SpanTree {
    /// The span at this node of the tree.
    pub span: SpanRecord,
    /// Child spans ordered by start time.
    pub children: Vec<SpanTree>,
}

impl SpanTree {
    /// Longest root-to-leaf path, counting this node (a lone root = 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(SpanTree::depth).max().unwrap_or(0)
    }

    /// Every node id appearing in the tree, preorder.
    pub fn nodes(&self) -> Vec<u64> {
        let mut out = vec![self.span.node];
        for c in &self.children {
            out.extend(c.nodes());
        }
        out
    }

    /// Whether any span in the tree has the given name.
    pub fn contains(&self, name: &str) -> bool {
        self.span.name == name || self.children.iter().any(|c| c.contains(name))
    }
}

/// Checks parent-link consistency: every span with a nonzero parent must
/// have that parent present *in the same trace*. Returns the offending
/// spans (empty = valid).
pub fn validate_spans(spans: &[SpanRecord]) -> Vec<&SpanRecord> {
    use std::collections::HashSet;
    let ids: HashSet<(u64, u64)> = spans.iter().map(|s| (s.trace_id, s.span_id)).collect();
    spans
        .iter()
        .filter(|s| s.parent != 0 && !ids.contains(&(s.trace_id, s.parent)))
        .collect()
}

/// Stitches spans of one trace into trees (one per root; a consistent trace
/// has exactly one). Spans referencing missing parents become extra roots
/// rather than being dropped.
pub fn build_trees(spans: &[SpanRecord], trace_id: u64) -> Vec<SpanTree> {
    let mut mine: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
    mine.sort_by_key(|s| (s.start_ns, s.span_id));
    let present: std::collections::HashSet<u64> = mine.iter().map(|s| s.span_id).collect();

    fn attach(span: &SpanRecord, rest: &[&SpanRecord]) -> SpanTree {
        let children = rest
            .iter()
            .filter(|s| s.parent == span.span_id)
            .map(|s| attach(s, rest))
            .collect();
        SpanTree {
            span: span.clone(),
            children,
        }
    }

    mine.iter()
        .filter(|s| s.parent == 0 || !present.contains(&s.parent))
        .map(|s| attach(s, &mine))
        .collect()
}

/// Renders a trace as an indented, hop-annotated timeline:
///
/// ```text
/// fs.create  node=1000000  +0µs  1840µs
///   rpc.call  node=100  +12µs  903µs
///     raft.propose  node=100  +40µs  611µs
/// ```
pub fn render_trace(spans: &[SpanRecord], trace_id: u64) -> String {
    fn line(out: &mut String, t: &SpanTree, depth: usize, t0: u64) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{}  node={}  +{}µs  {}µs\n",
            t.span.name,
            t.span.node,
            (t.span.start_ns.saturating_sub(t0)) / 1_000,
            (t.span.end_ns.saturating_sub(t.span.start_ns)) / 1_000,
        ));
        for c in &t.children {
            line(out, c, depth + 1, t0);
        }
    }
    let trees = build_trees(spans, trace_id);
    let t0 = trees.iter().map(|t| t.span.start_ns).min().unwrap_or(0);
    let mut out = String::new();
    for t in &trees {
        line(&mut out, t, 0, t0);
    }
    out
}

/// Serializes spans to JSON: an array of objects with `trace_id`,
/// `span_id`, `parent`, `node`, `name`, `start_ns`, `end_ns`.
pub fn spans_to_json(spans: &[SpanRecord]) -> crate::Json {
    crate::Json::Arr(
        spans
            .iter()
            .map(|s| {
                crate::Json::obj(vec![
                    ("trace_id", crate::Json::Int(s.trace_id)),
                    ("span_id", crate::Json::Int(s.span_id)),
                    ("parent", crate::Json::Int(s.parent)),
                    ("node", crate::Json::Int(s.node)),
                    ("name", crate::Json::Str(s.name.to_string())),
                    ("start_ns", crate::Json::Int(s.start_ns)),
                    ("end_ns", crate::Json::Int(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share the process-global sink and on/off switch. Each test that
    // records or switches holds this turn: a sibling's `disable()` would
    // stop its spans from being recorded, and a sibling's `drain()` holds
    // them out of the sink until it requeues them.
    fn ring_turn() -> std::sync::MutexGuard<'static, ()> {
        static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    // Each drains only spans from trace ids it created itself.
    fn spans_of(all: &[SpanRecord], trace_id: u64) -> Vec<SpanRecord> {
        all.iter()
            .filter(|s| s.trace_id == trace_id)
            .cloned()
            .collect()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _turn = ring_turn();
        disable();
        let g = span("noop");
        assert_eq!(g.trace_id(), 0);
        assert!(g.ctx().is_none());
    }

    #[test]
    fn nesting_builds_parent_links() {
        let _turn = ring_turn();
        enable();
        let tid;
        {
            let root = root_span("op");
            tid = root.trace_id();
            let _child = span("inner");
        }
        let all = drain();
        let mine = spans_of(&all, tid);
        // re-push spans from other concurrent tests
        for s in all {
            if s.trace_id != tid {
                requeue(s);
            }
        }
        assert_eq!(mine.len(), 2);
        assert!(validate_spans(&mine).is_empty());
        let trees = build_trees(&mine, tid);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].span.name, "op");
        assert_eq!(trees[0].children.len(), 1);
        assert_eq!(trees[0].children[0].span.name, "inner");
        assert_eq!(trees[0].depth(), 2);
        assert!(trees[0].contains("inner"));
    }

    #[test]
    fn wire_round_trips_and_rejects_unwrapped() {
        let ctx = TraceCtx {
            trace_id: 7,
            span_id: 9,
            parent: 3,
        };
        let wrapped = wire_wrap(ctx, b"payload");
        let (got, inner) = wire_unwrap(&wrapped).unwrap();
        assert_eq!(got, ctx);
        assert_eq!(inner, b"payload");
        assert!(wire_unwrap(b"payload").is_none());
        assert!(wire_unwrap(&[0, 1, 2]).is_none());
        assert!(wire_unwrap(&[]).is_none());
    }

    #[test]
    fn ctx_crosses_threads_via_wire() {
        let _turn = ring_turn();
        enable();
        let root = root_span("sender");
        let ctx = root.ctx().unwrap();
        let wrapped = wire_wrap(ctx, b"m");
        let tid = ctx.trace_id;
        let handle = std::thread::spawn(move || {
            let (ctx, inner) = wire_unwrap(&wrapped).unwrap();
            assert_eq!(inner, b"m");
            let _cs = ctx_scope(Some(ctx));
            let _ns = node_scope(42);
            let _child = span("receiver");
        });
        handle.join().unwrap();
        drop(root);
        let all = drain();
        let mine = spans_of(&all, tid);
        for s in all {
            if s.trace_id != tid {
                requeue(s);
            }
        }
        assert!(validate_spans(&mine).is_empty());
        let recv = mine.iter().find(|s| s.name == "receiver").unwrap();
        assert_eq!(recv.node, 42);
        assert_eq!(recv.parent, ctx.span_id);
    }

    #[test]
    fn orphan_parent_is_reported() {
        let spans = vec![SpanRecord {
            trace_id: 1,
            span_id: 2,
            parent: 99,
            node: 0,
            name: "lost",
            start_ns: 0,
            end_ns: 1,
        }];
        assert_eq!(validate_spans(&spans).len(), 1);
    }

    #[test]
    fn render_produces_indented_lines() {
        let spans = vec![
            SpanRecord {
                trace_id: 5,
                span_id: 1,
                parent: 0,
                node: 1_000_000,
                name: "fs.create",
                start_ns: 1_000,
                end_ns: 90_000,
            },
            SpanRecord {
                trace_id: 5,
                span_id: 2,
                parent: 1,
                node: 100,
                name: "rpc.call",
                start_ns: 10_000,
                end_ns: 60_000,
            },
        ];
        let text = render_trace(&spans, 5);
        assert!(text.starts_with("fs.create"));
        assert!(text.contains("\n  rpc.call"));
        assert!(text.contains("node=100"));
    }
}
