//! # snn-trace — dependency-free request tracing for the serving stack
//!
//! Per-request, per-stage timelines for the TTFS serving path: a
//! [`TraceId`] is minted per request (or accepted from a client header),
//! every layer records [`Span`]s against it, and the whole lifecycle —
//! socket parse, JSON decode, batcher queue wait, EDF flush (with its
//! *reason*), per-CSR-stage execution, response write — becomes one
//! queryable tree.
//!
//! Design constraints, in order:
//!
//! 1. **The hot path stays bit-identical and effectively free.** Tracing
//!    never touches the float accumulation; when disabled, opening a span
//!    is a single relaxed atomic load and an untaken branch.
//! 2. **No new dependencies.** The crate is `std`-only.
//! 3. **Bounded memory.** Spans finish into per-thread buffers (one
//!    uncontended mutex each — the only other locker is a drain) and are
//!    drained into a bounded ring; when the ring is full the *oldest*
//!    spans are evicted and counted in
//!    [`spans_dropped`](TraceCollector::spans_dropped).
//!
//! Two recording APIs:
//!
//! * **Direct**: [`TraceCollector::span`] / the [`span!`] macro, for code
//!   that holds the collector and the request's [`TraceId`] — the gateway
//!   and the batcher.
//! * **Ambient context**: [`push_context`] + [`ctx_span`], for code deep
//!   inside the engine that must not thread trace arguments through its
//!   hot signatures. A worker pushes the batch's targets (one per traced
//!   request riding in the batch) before `run_batch`; every
//!   [`ctx_span`] inside then fans out one span per target, so each
//!   request's tree contains the per-stage execution spans of the batch
//!   it rode in. With no context pushed, [`ctx_span`] is a thread-local
//!   read and a `None` branch.
//!
//! Export surfaces: per-trace span trees ([`TraceCollector::trace`]) and
//! whole-run [`snapshot`](TraceCollector::snapshot)s, each span carrying
//! the track of the thread that recorded it
//! ([`tracks`](TraceCollector::tracks) names them).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Spans buffered per thread before an eager flush into the ring (a drain
/// or query flushes everything regardless).
const SHARD_FLUSH_THRESHOLD: usize = 128;

/// Default bound on retained finished spans.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Identity of one traced request; rendered as 16 lowercase hex digits
/// (the wire form of the `x-snn-trace-id` header and the `trace_id`
/// response field). Never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// Wraps a raw id; `raw` must be nonzero (zero is reserved for "no
    /// trace" on the wire).
    pub fn from_raw(raw: u64) -> Option<Self> {
        (raw != 0).then_some(Self(raw))
    }

    /// The raw 64-bit id.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Parses the 16-hex-digit wire form (shorter strings are accepted as
    /// the low digits); `None` for non-hex, overlong, or zero input.
    pub fn parse_hex(text: &str) -> Option<Self> {
        let text = text.trim();
        if text.is_empty() || text.len() > 16 {
            return None;
        }
        u64::from_str_radix(text, 16).ok().and_then(Self::from_raw)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One span attribute value. Only static strings and numbers, so
/// recording a span allocates nothing but its (small) attribute vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// A static string (flush reasons, stage kinds, backend names).
    Str(&'static str),
    /// An unsigned counter (spikes, edges, batch sizes).
    U64(u64),
    /// A measurement (energies, ratios).
    F64(f64),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Str(s) => f.write_str(s),
            Self::U64(v) => write!(f, "{v}"),
            Self::F64(v) => write!(f, "{v}"),
        }
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        Self::Str(v)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        Self::U64(v.into())
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}

/// One finished span, as stored and as returned by queries.
///
/// Timestamps are microseconds since the owning collector's epoch (its
/// construction instant), so spans recorded on different threads share
/// one monotonic axis and Chrome-trace `ts` values are direct.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// The request tree this span belongs to.
    pub trace: TraceId,
    /// Unique span id within the collector (never 0).
    pub span_id: u64,
    /// Parent span id; 0 marks a root.
    pub parent_id: u64,
    /// Static span name (see the taxonomy in `docs/OBSERVABILITY.md`).
    pub name: &'static str,
    /// Start, µs since the collector epoch.
    pub start_us: u64,
    /// Duration, µs (0 for instantaneous marks).
    pub dur_us: u64,
    /// Recording-thread track index (see [`TraceCollector::tracks`]).
    pub track: u32,
    /// Attributes, in recording order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanSnapshot {
    /// End instant, µs since the collector epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// The value of attribute `key`, if recorded.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// One recording thread's buffer: only its owner pushes, only a drain
/// takes, so the mutex is uncontended on the hot path.
#[derive(Debug)]
struct ThreadShard {
    track: u32,
    label: String,
    buf: Mutex<Vec<SpanSnapshot>>,
}

thread_local! {
    /// This thread's shard per collector id (pruned when collectors die).
    static SHARDS: RefCell<Vec<(u64, Arc<ThreadShard>)>> = const { RefCell::new(Vec::new()) };
}

thread_local! {
    /// The ambient trace context (see [`push_context`]).
    static CONTEXT: RefCell<Option<ActiveContext>> = const { RefCell::new(None) };
}

/// Process-wide collector id source (so thread-local shard entries can
/// tell collectors apart).
static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(1);

/// The bounded span sink shared by every layer of one serving stack.
///
/// Disabled-path cost of every recording API is one relaxed atomic load.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use snn_trace::{span, TraceCollector};
///
/// let collector = Arc::new(TraceCollector::new(1024));
/// let trace = collector.mint_trace();
/// {
///     let mut root = span!(collector, trace, 0, "http.request");
///     let child = span!(collector, trace, root.id(), "request.decode", {
///         bytes: 512usize,
///     });
///     drop(child);
///     root.attr("status", 200u64);
/// }
/// let spans = collector.trace(trace);
/// assert_eq!(spans.len(), 2);
/// assert!(spans.iter().any(|s| s.name == "request.decode"));
/// ```
#[derive(Debug)]
pub struct TraceCollector {
    id: u64,
    enabled: AtomicBool,
    epoch: Instant,
    capacity: usize,
    shards: Mutex<Vec<Arc<ThreadShard>>>,
    ring: Mutex<VecDeque<SpanSnapshot>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
    next_span: AtomicU64,
    next_trace: AtomicU64,
}

impl TraceCollector {
    /// Creates an **enabled** collector retaining at most `capacity`
    /// finished spans (0 → [`DEFAULT_CAPACITY`]); disable with
    /// [`set_enabled`](Self::set_enabled).
    pub fn new(capacity: usize) -> Self {
        Self {
            id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            capacity: if capacity == 0 {
                DEFAULT_CAPACITY
            } else {
                capacity
            },
            shards: Mutex::new(Vec::new()),
            ring: Mutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
        }
    }

    /// Whether spans are currently recorded — THE hot-path gate, read with
    /// a single relaxed load by every recording API.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (spans already retained stay queryable).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mints a fresh nonzero [`TraceId`] (collector id in the high bits,
    /// so stacks running side by side never collide).
    pub fn mint_trace(&self) -> TraceId {
        let n = self.next_trace.fetch_add(1, Ordering::Relaxed);
        TraceId((self.id << 40) | (n & 0xFF_FFFF_FFFF) | (1 << 39))
    }

    /// Allocates a span id without recording anything — for pre-naming a
    /// parent whose children are recorded before it finishes.
    pub fn next_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Microseconds from the collector epoch to `at` (0 if `at` precedes
    /// the epoch).
    pub fn us_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Opens a live span; it records when dropped (or
    /// [`finish`](Span::finish)ed). Disabled collectors return an inert
    /// guard whose [`id`](Span::id) is 0.
    pub fn span(self: &Arc<Self>, trace: TraceId, parent_id: u64, name: &'static str) -> Span {
        if !self.is_enabled() {
            return Span { state: None };
        }
        Span {
            state: Some(SpanState {
                collector: Arc::clone(self),
                trace,
                parent_id,
                span_id: self.next_span_id(),
                name,
                start: Instant::now(),
                attrs: Vec::new(),
            }),
        }
    }

    /// Records one finished span from explicit instants, returning its
    /// freshly allocated id (0 when disabled). For code that learns a
    /// span's bounds after the fact (queue waits measured at dispatch).
    pub fn record_span(
        &self,
        trace: TraceId,
        parent_id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        let span_id = self.next_span_id();
        self.record_span_with_id(span_id, trace, parent_id, name, start, end, attrs);
        span_id
    }

    /// [`record_span`](Self::record_span) with a pre-allocated id (see
    /// [`next_span_id`](Self::next_span_id)).
    #[allow(clippy::too_many_arguments)]
    pub fn record_span_with_id(
        &self,
        span_id: u64,
        trace: TraceId,
        parent_id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        if !self.is_enabled() || span_id == 0 {
            return;
        }
        let start_us = self.us_since_epoch(start);
        let end_us = self.us_since_epoch(end);
        self.push_record(SpanSnapshot {
            trace,
            span_id,
            parent_id,
            name,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            track: 0, // stamped by the shard below
            attrs,
        });
    }

    /// Buffers one finished span on this thread's shard, flushing the
    /// shard into the ring past the threshold.
    fn push_record(&self, mut record: SpanSnapshot) {
        let shard = self.shard_for_current_thread();
        record.track = shard.track;
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let overflow = {
            let mut buf = shard.buf.lock().expect("trace shard poisoned");
            buf.push(record);
            if buf.len() >= SHARD_FLUSH_THRESHOLD {
                std::mem::take(&mut *buf)
            } else {
                Vec::new()
            }
        };
        if !overflow.is_empty() {
            self.flush_to_ring(overflow);
        }
    }

    /// This thread's shard for this collector, registering one (and its
    /// track) on first use.
    fn shard_for_current_thread(&self) -> Arc<ThreadShard> {
        SHARDS.with(|cell| {
            let mut entries = cell.borrow_mut();
            if let Some((_, shard)) = entries.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(shard);
            }
            let label = std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_string();
            let shard = {
                let mut shards = self.shards.lock().expect("trace shards poisoned");
                let shard = Arc::new(ThreadShard {
                    track: shards.len() as u32,
                    label,
                    buf: Mutex::new(Vec::new()),
                });
                shards.push(Arc::clone(&shard));
                shard
            };
            // Entries whose collector died hold the only other Arc; prune
            // them so long-lived threads stay bounded across collectors.
            entries.retain(|(_, s)| Arc::strong_count(s) > 1);
            entries.push((self.id, Arc::clone(&shard)));
            shard
        })
    }

    /// Moves finished spans into the bounded ring, evicting (and
    /// counting) the oldest on overflow.
    fn flush_to_ring(&self, records: Vec<SpanSnapshot>) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        self.push_to_ring(&mut ring, records);
    }

    fn push_to_ring(&self, ring: &mut VecDeque<SpanSnapshot>, records: Vec<SpanSnapshot>) {
        for record in records {
            if ring.len() >= self.capacity {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(record);
        }
    }

    /// Drains every thread's shard into the ring and hands the ring back
    /// still locked, so a span recorded before the query is always
    /// visible to it. The ring lock is held across the whole drain: were
    /// it taken per shard, a second query could find a shard already
    /// emptied by the first while its spans were still on their way to
    /// the ring, and miss them. (Recording never holds a shard and the
    /// ring at once, so ring → shard is the only nesting.)
    fn drain_shards(&self) -> MutexGuard<'_, VecDeque<SpanSnapshot>> {
        let shards: Vec<Arc<ThreadShard>> = self
            .shards
            .lock()
            .expect("trace shards poisoned")
            .iter()
            .map(Arc::clone)
            .collect();
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        for shard in shards {
            let taken = std::mem::take(&mut *shard.buf.lock().expect("trace shard poisoned"));
            self.push_to_ring(&mut ring, taken);
        }
        ring
    }

    /// Every retained span of `trace`, sorted by start time then id;
    /// empty when the trace is unknown (or evicted).
    pub fn trace(&self, trace: TraceId) -> Vec<SpanSnapshot> {
        let ring = self.drain_shards();
        let mut spans: Vec<SpanSnapshot> =
            ring.iter().filter(|s| s.trace == trace).cloned().collect();
        spans.sort_by_key(|s| (s.start_us, s.span_id));
        spans
    }

    /// Every retained span, sorted by start time then id.
    pub fn snapshot(&self) -> Vec<SpanSnapshot> {
        let ring = self.drain_shards();
        let mut spans: Vec<SpanSnapshot> = ring.iter().cloned().collect();
        spans.sort_by_key(|s| (s.start_us, s.span_id));
        spans
    }

    /// Spans recorded since construction (including later-evicted ones).
    pub fn spans_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans evicted from the full ring since construction.
    pub fn spans_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Spans currently retained in the ring (occupancy against
    /// [`capacity`](Self::capacity)). Drains the per-thread shards first
    /// so the figure reflects everything recorded so far.
    pub fn ring_len(&self) -> usize {
        self.drain_shards().len()
    }

    /// Recording-thread tracks as `(track, thread name)` pairs, ascending
    /// by track.
    pub fn tracks(&self) -> Vec<(u32, String)> {
        self.shards
            .lock()
            .expect("trace shards poisoned")
            .iter()
            .map(|s| (s.track, s.label.clone()))
            .collect()
    }

    /// Discards every retained span and resets the recorded/dropped
    /// counters (tracks persist — threads keep their shards).
    pub fn clear(&self) {
        self.drain_shards().clear();
        self.recorded.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

/// A live span that records itself into its collector when dropped.
/// Inert (all methods no-ops, [`id`](Self::id) = 0) when the collector
/// was disabled at open time.
#[derive(Debug)]
pub struct Span {
    state: Option<SpanState>,
}

#[derive(Debug)]
struct SpanState {
    collector: Arc<TraceCollector>,
    trace: TraceId,
    parent_id: u64,
    span_id: u64,
    name: &'static str,
    start: Instant,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// This span's id, for parenting children; 0 when inert.
    pub fn id(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.span_id)
    }

    /// Whether the span will actually record.
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }

    /// Attaches an attribute (no-op when inert).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(state) = self.state.as_mut() {
            state.attrs.push((key, value.into()));
        }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            state.collector.record_span_with_id(
                state.span_id,
                state.trace,
                state.parent_id,
                state.name,
                state.start,
                Instant::now(),
                state.attrs,
            );
        }
    }
}

/// Opens a span on a collector, optionally with inline attributes:
///
/// ```
/// # use std::sync::Arc;
/// # use snn_trace::{span, TraceCollector};
/// # let collector = Arc::new(TraceCollector::new(64));
/// # let trace = collector.mint_trace();
/// let s = span!(collector, trace, 0, "batch.flush", { reason: "edf_deadline", batch_size: 4usize });
/// drop(s);
/// # assert_eq!(collector.trace(trace).len(), 1);
/// ```
#[macro_export]
macro_rules! span {
    ($collector:expr, $trace:expr, $parent:expr, $name:expr) => {
        $collector.span($trace, $parent, $name)
    };
    ($collector:expr, $trace:expr, $parent:expr, $name:expr, { $($key:ident : $value:expr),* $(,)? }) => {{
        let mut __span = $collector.span($trace, $parent, $name);
        $( __span.attr(stringify!($key), $value); )*
        __span
    }};
}

/// One `(trace, parent span)` attachment point for ambient-context spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceTarget {
    /// The request tree to record into.
    pub trace: TraceId,
    /// The span id new context spans hang under.
    pub parent: u64,
}

/// The ambient context [`ctx_span`] fans out to.
#[derive(Debug)]
struct ActiveContext {
    collector: Arc<TraceCollector>,
    targets: Vec<TraceTarget>,
}

/// Installs an ambient trace context on the current thread for the
/// guard's lifetime: every [`ctx_span`] opened underneath records one
/// span per target (a batch's worth of traced requests). Contexts nest;
/// the previous one is restored on drop. The guard is `!Send` by
/// construction (thread-local state).
pub fn push_context(collector: Arc<TraceCollector>, targets: Vec<TraceTarget>) -> ContextGuard {
    let prev = CONTEXT.with(|cell| {
        cell.borrow_mut()
            .replace(ActiveContext { collector, targets })
    });
    ContextGuard {
        prev,
        _not_send: std::marker::PhantomData,
    }
}

/// Whether an ambient context is installed on this thread.
pub fn context_active() -> bool {
    CONTEXT.with(|cell| cell.borrow().is_some())
}

/// The trace ids the ambient context currently targets, in target order
/// (empty when no context is installed). This is how non-span telemetry
/// (structured log events) correlates with the request tree for free:
/// anything recorded under a [`push_context`] window can stamp itself
/// with the same trace id the spans carry.
pub fn current_trace_ids() -> Vec<TraceId> {
    CONTEXT.with(|cell| {
        cell.borrow()
            .as_ref()
            .map(|ctx| ctx.targets.iter().map(|t| t.trace).collect())
            .unwrap_or_default()
    })
}

/// Restores the previous ambient context on drop (see [`push_context`]).
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<ActiveContext>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CONTEXT.with(|cell| *cell.borrow_mut() = prev);
    }
}

/// Opens a span against the ambient context: one span per context target,
/// each parented under the target's current parent, with the targets'
/// parents re-pointed at this span for its lifetime so nested
/// [`ctx_span`]s build a tree. With no context installed (the common
/// disabled path) this is a thread-local read and an untaken branch.
pub fn ctx_span(name: &'static str) -> CtxSpan {
    CONTEXT.with(|cell| {
        let mut borrowed = cell.borrow_mut();
        let Some(ctx) = borrowed.as_mut() else {
            return CtxSpan { state: None };
        };
        let mut entries = Vec::with_capacity(ctx.targets.len());
        for target in ctx.targets.iter_mut() {
            let span_id = ctx.collector.next_span_id();
            entries.push((target.trace, span_id, target.parent));
            target.parent = span_id;
        }
        CtxSpan {
            state: Some(CtxSpanState {
                collector: Arc::clone(&ctx.collector),
                name,
                start: Instant::now(),
                entries,
                attrs: Vec::new(),
            }),
        }
    })
}

/// A live ambient-context span (see [`ctx_span`]); records one span per
/// context target when dropped. Must be dropped before its enclosing
/// [`ContextGuard`] (the natural nesting).
#[derive(Debug)]
pub struct CtxSpan {
    state: Option<CtxSpanState>,
}

#[derive(Debug)]
struct CtxSpanState {
    collector: Arc<TraceCollector>,
    name: &'static str,
    start: Instant,
    /// `(trace, this span's id for that trace, saved parent to restore)`.
    entries: Vec<(TraceId, u64, u64)>,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl CtxSpan {
    /// Whether the span will actually record.
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }

    /// Attaches an attribute to every fanned-out span (no-op when inert).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(state) = self.state.as_mut() {
            state.attrs.push((key, value.into()));
        }
    }
}

impl Drop for CtxSpan {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let end = Instant::now();
        // Restore each target's parent (stack discipline: this span's ids
        // are the current parents).
        CONTEXT.with(|cell| {
            if let Some(ctx) = cell.borrow_mut().as_mut() {
                for (i, target) in ctx.targets.iter_mut().enumerate() {
                    if let Some((trace, span_id, saved)) = state.entries.get(i) {
                        if target.trace == *trace && target.parent == *span_id {
                            target.parent = *saved;
                        }
                    }
                }
            }
        });
        for (trace, span_id, parent) in &state.entries {
            state.collector.record_span_with_id(
                *span_id,
                *trace,
                *parent,
                state.name,
                state.start,
                end,
                state.attrs.clone(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn trace_id_wire_roundtrip() {
        let id = TraceId::from_raw(0xDEAD_BEEF).unwrap();
        assert_eq!(id.to_string(), "00000000deadbeef");
        assert_eq!(TraceId::parse_hex(&id.to_string()), Some(id));
        assert_eq!(TraceId::parse_hex("deadbeef"), Some(id));
        assert_eq!(TraceId::parse_hex("0"), None, "zero is reserved");
        assert_eq!(TraceId::parse_hex(""), None);
        assert_eq!(TraceId::parse_hex("not-hex"), None);
        assert_eq!(TraceId::parse_hex("11112222333344445"), None, "overlong");
    }

    #[test]
    fn spans_record_and_query_by_trace() {
        let c = Arc::new(TraceCollector::new(64));
        let t1 = c.mint_trace();
        let t2 = c.mint_trace();
        assert_ne!(t1, t2);
        let root = {
            let mut root = c.span(t1, 0, "root");
            let mut child = span!(c, t1, root.id(), "child", { edges: 42usize });
            child.attr("kind", "weighted");
            drop(child);
            root.attr("status", 200u64);
            let id = root.id();
            drop(root);
            id
        };
        drop(span!(c, t2, 0, "other"));

        let spans = c.trace(t1);
        assert_eq!(spans.len(), 2);
        let root_span = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(root_span.span_id, root);
        assert_eq!(root_span.parent_id, 0);
        assert_eq!(child.parent_id, root);
        assert_eq!(child.attr("edges"), Some(&AttrValue::U64(42)));
        assert_eq!(child.attr("kind"), Some(&AttrValue::Str("weighted")));
        assert!(child.start_us >= root_span.start_us);
        assert!(child.end_us() <= root_span.end_us());
        assert_eq!(c.trace(t2).len(), 1);
        assert_eq!(c.spans_recorded(), 3);
        assert_eq!(c.spans_dropped(), 0);
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Arc::new(TraceCollector::new(64));
        c.set_enabled(false);
        let t = c.mint_trace();
        let mut s = c.span(t, 0, "noop");
        assert!(!s.is_recording());
        assert_eq!(s.id(), 0);
        s.attr("k", 1u64);
        drop(s);
        assert_eq!(
            c.record_span(t, 0, "direct", Instant::now(), Instant::now(), Vec::new()),
            0
        );
        assert_eq!(c.spans_recorded(), 0);
        assert!(c.trace(t).is_empty());
    }

    #[test]
    fn ring_eviction_counts_drops_oldest_first() {
        let c = Arc::new(TraceCollector::new(4));
        let t = c.mint_trace();
        let base = Instant::now();
        for i in 0..10u64 {
            c.record_span(
                t,
                0,
                "s",
                base + Duration::from_micros(i),
                base + Duration::from_micros(i + 1),
                vec![("i", AttrValue::U64(i))],
            );
        }
        let spans = c.trace(t);
        assert_eq!(spans.len(), 4, "ring bounded");
        assert_eq!(c.spans_recorded(), 10);
        assert_eq!(c.spans_dropped(), 6);
        // The survivors are the newest.
        assert_eq!(spans[0].attr("i"), Some(&AttrValue::U64(6)));
    }

    #[test]
    fn ctx_spans_fan_out_and_nest_per_target() {
        let c = Arc::new(TraceCollector::new(256));
        let ta = c.mint_trace();
        let tb = c.mint_trace();
        let pa = c.next_span_id();
        let pb = c.next_span_id();
        assert!(!context_active());
        {
            let _guard = push_context(
                Arc::clone(&c),
                vec![
                    TraceTarget {
                        trace: ta,
                        parent: pa,
                    },
                    TraceTarget {
                        trace: tb,
                        parent: pb,
                    },
                ],
            );
            assert!(context_active());
            let mut outer = ctx_span("chunk");
            assert!(outer.is_recording());
            outer.attr("lanes", 2usize);
            let inner = ctx_span("stage.exec");
            drop(inner);
            drop(outer);
            // After the outer span closed, new spans re-attach at the
            // original parents.
            drop(ctx_span("tail"));
        }
        assert!(!context_active());
        let inert = ctx_span("no-context");
        assert!(!inert.is_recording());

        for (trace, parent) in [(ta, pa), (tb, pb)] {
            let spans = c.trace(trace);
            assert_eq!(spans.len(), 3, "chunk + stage + tail per target");
            let chunk = spans.iter().find(|s| s.name == "chunk").unwrap();
            let stage = spans.iter().find(|s| s.name == "stage.exec").unwrap();
            let tail = spans.iter().find(|s| s.name == "tail").unwrap();
            assert_eq!(chunk.parent_id, parent);
            assert_eq!(stage.parent_id, chunk.span_id);
            assert_eq!(tail.parent_id, parent, "parent restored after close");
            assert_eq!(chunk.attr("lanes"), Some(&AttrValue::U64(2)));
            assert!(stage.start_us >= chunk.start_us);
            assert!(stage.end_us() <= chunk.end_us());
        }
    }

    #[test]
    fn concurrent_threads_get_distinct_tracks() {
        let c = Arc::new(TraceCollector::new(4096));
        let mut handles = Vec::new();
        for i in 0..4 {
            let c = Arc::clone(&c);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("trace-test-{i}"))
                    .spawn(move || {
                        let t = c.mint_trace();
                        for _ in 0..50 {
                            drop(c.span(t, 0, "work"));
                        }
                        t
                    })
                    .unwrap(),
            );
        }
        let traces: Vec<TraceId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(c.spans_recorded(), 200);
        for t in traces {
            assert_eq!(c.trace(t).len(), 50, "no cross-thread interleaving");
        }
        let tracks = c.tracks();
        assert_eq!(tracks.len(), 4);
        let labels: Vec<&str> = tracks.iter().map(|(_, l)| l.as_str()).collect();
        for i in 0..4 {
            assert!(labels.contains(&format!("trace-test-{i}").as_str()));
        }
    }

    #[test]
    fn a_span_is_visible_to_its_own_thread_while_others_query() {
        // Each thread records one span and reads its trace back at once,
        // as a gateway worker does for `GET /v1/trace/<id>`. Another
        // thread's concurrent query may be the one that drains this
        // thread's shard; the span must not be missed in transit.
        let c = Arc::new(TraceCollector::new(1 << 20));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        let t = c.mint_trace();
                        drop(c.span(t, 0, "work"));
                        assert_eq!(c.trace(t).len(), 1, "own span lost to a concurrent drain");
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn clear_resets_retention_and_counters() {
        let c = Arc::new(TraceCollector::new(8));
        let t = c.mint_trace();
        drop(c.span(t, 0, "a"));
        assert_eq!(c.spans_recorded(), 1);
        c.clear();
        assert_eq!(c.spans_recorded(), 0);
        assert_eq!(c.spans_dropped(), 0);
        assert!(c.snapshot().is_empty());
        drop(c.span(t, 0, "b"));
        assert_eq!(c.trace(t).len(), 1);
    }
}
