//! # snn-log — structured logging + incident flight recorder
//!
//! The third observability pillar of the serving stack, next to spans
//! (`snn-trace`) and windowed metrics (`snn-telemetry`): structured,
//! leveled log events with typed attributes, correlated with the
//! per-request trace ids the rest of the stack already mints.
//!
//! * [`LogCollector`] — the bounded in-memory **flight recorder**, a
//!   level gate over the same [`ShardedRing`] that holds `snn-trace`'s
//!   spans: each recording thread buffers into its own shard behind an
//!   uncontended mutex, shards drain into a bounded ring that evicts (and
//!   counts) the oldest event on overflow, and the below-level/disabled
//!   path is a single relaxed atomic load.
//! * Trace correlation is free: when a `snn-trace` ambient context is
//!   installed on the recording thread (a request being served), every
//!   event records the context's [`TraceId`] without the call site
//!   passing anything.
//! * [`JsonSink`] — an optional JSON-lines sink (stderr or file) with
//!   per-`(level, target)` token-bucket rate limiting, so a hot error
//!   loop cannot melt the disk. Each line is written with one
//!   `write_all` under the writer lock: concurrent writers never
//!   interleave partial lines.
//! * [`LogSpec`] — `SNN_LOG=<level>[,target=level]*` parsing for the
//!   sink level plus per-target-prefix overrides; malformed specs fall
//!   back to `info` and never panic.
//! * [`IncidentRecorder`] — post-mortem snapshots: a panic hook
//!   ([`install_panic_hook`]) plus explicit triggers at the stack's
//!   failure sites atomically write (temp file + fsync + rename) a
//!   self-contained incident JSON — the last N flight-recorder events,
//!   build/uptime info, and caller-provided raw-JSON sections (stats
//!   snapshot, trace tree, fault counts) — into a bounded directory
//!   with oldest-first cleanup.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use snn_log::{info, warn, Level, LogCollector};
//!
//! let log = Arc::new(LogCollector::new(256));
//! info!(log, "example.server", { "port": 8080u64 }, "listening on {}", "0.0.0.0");
//! warn!(log, "example.server", "queue depth {} above high water", 97);
//! let events = log.recent();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0].target, "example.server");
//! assert_eq!(events[1].level, Level::Warn);
//! assert_eq!(log.events_recorded(Level::Info), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use snn_trace::ShardedRing;
pub use snn_trace::TraceId;

/// Ring capacity when [`LogCollector::new`] is passed 0.
pub const DEFAULT_CAPACITY: usize = 2048;

/// Events a thread shard buffers before flushing into the ring.
const SHARD_FLUSH_THRESHOLD: usize = 64;

/// Sentinel stored in the level gate when recording is disabled
/// entirely (one past [`Level::Error`]).
const LEVEL_OFF: u8 = 4;

// ---------------------------------------------------------------------------
// Levels and values
// ---------------------------------------------------------------------------

/// Log severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Level {
    /// High-volume diagnostics (per-batch flush decisions).
    Debug = 0,
    /// Normal operation (access log, loads, swaps).
    Info = 1,
    /// Degraded but handled (sheds, brownouts, injected faults).
    Warn = 2,
    /// A request or subsystem failed (quarantine, breaker open).
    Error = 3,
}

impl Level {
    /// All levels, ascending by severity.
    pub const ALL: [Level; 4] = [Level::Debug, Level::Info, Level::Warn, Level::Error];

    /// The stable lowercase label (`"debug"`, `"info"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a level label, case-insensitively; accepts the common
    /// aliases `warning` and `err`. `None` for anything else.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" | "err" => Some(Level::Error),
            _ => None,
        }
    }

    fn from_u8(raw: u8) -> Option<Level> {
        Level::ALL.get(usize::from(raw)).copied()
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed attribute value on a [`LogEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An owned string.
    Str(String),
    /// An unsigned integer (counts, sizes, status codes).
    U64(u64),
    /// A float (latencies, ratios).
    F64(f64),
    /// A boolean flag.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v.into())
    }
}
impl From<u16> for Value {
    fn from(v: u16) -> Self {
        Value::U64(v.into())
    }
}
impl From<u8> for Value {
    fn from(v: u8) -> Self {
        Value::U64(v.into())
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F64(v.into())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One recorded structured log event.
#[derive(Debug, Clone)]
pub struct LogEvent {
    /// Process-wide monotonically increasing sequence number (total
    /// order across threads).
    pub seq: u64,
    /// Severity.
    pub level: Level,
    /// Static dotted component name (`"gateway.access"`,
    /// `"runtime.batcher"`, ...).
    pub target: &'static str,
    /// The formatted human-readable message.
    pub message: String,
    /// Typed key/value attributes.
    pub attrs: Vec<(&'static str, Value)>,
    /// The ambient request trace id, when one was active (or explicitly
    /// supplied) at record time.
    pub trace: Option<TraceId>,
    /// Microseconds since the collector's epoch (monotonic clock).
    pub mono_us: u64,
    /// Milliseconds since the Unix epoch (wall clock).
    pub unix_ms: u64,
}

fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// The flight-recorder collector
// ---------------------------------------------------------------------------

/// The bounded structured-log flight recorder shared by every layer of
/// one serving stack.
///
/// Below-level cost of every recording API is one relaxed atomic load;
/// enabled events buffer on the recording thread's shard of a
/// [`ShardedRing`] and drain into its bounded ring, which evicts (and
/// counts) the oldest on overflow, so a query always sees the newest
/// window of what the process decided.
#[derive(Debug)]
pub struct LogCollector {
    /// The hot gate: events below this level are dropped after one
    /// relaxed load ([`LEVEL_OFF`] disables recording entirely).
    min_level: AtomicU8,
    epoch: Instant,
    ring: ShardedRing<LogEvent>,
    recorded: [AtomicU64; 4],
    seq: AtomicU64,
    has_sink: AtomicBool,
    sink: Mutex<Option<Arc<JsonSink>>>,
}

impl LogCollector {
    /// Creates a collector retaining at most `capacity` events
    /// (0 → [`DEFAULT_CAPACITY`]), recording at [`Level::Info`] and
    /// above.
    pub fn new(capacity: usize) -> Self {
        let capacity = Some(capacity)
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_CAPACITY);
        Self {
            min_level: AtomicU8::new(Level::Info as u8),
            epoch: Instant::now(),
            ring: ShardedRing::new(capacity, SHARD_FLUSH_THRESHOLD),
            recorded: Default::default(),
            seq: AtomicU64::new(0),
            has_sink: AtomicBool::new(false),
            sink: Mutex::new(None),
        }
    }

    /// Whether events at `level` are currently recorded — THE hot-path
    /// gate, one relaxed load.
    #[inline]
    pub fn level_enabled(&self, level: Level) -> bool {
        level as u8 >= self.min_level.load(Ordering::Relaxed)
    }

    /// Sets the minimum recorded level.
    pub fn set_min_level(&self, level: Level) {
        self.min_level.store(level as u8, Ordering::Relaxed);
    }

    /// Disables recording entirely (already-retained events stay
    /// queryable).
    pub fn disable(&self) {
        self.min_level.store(LEVEL_OFF, Ordering::Relaxed);
    }

    /// The current minimum recorded level (`None` when disabled).
    pub fn min_level(&self) -> Option<Level> {
        Level::from_u8(self.min_level.load(Ordering::Relaxed))
    }

    /// The retention bound of the flight-recorder ring.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Microseconds from the collector epoch to `at` (0 if `at`
    /// precedes the epoch).
    pub fn us_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records one event, stamping it with the ambient `snn-trace`
    /// context's trace id when one is active on this thread. Below the
    /// minimum level this is one relaxed load and an early return.
    pub fn record(
        &self,
        level: Level,
        target: &'static str,
        message: impl Into<String>,
        attrs: Vec<(&'static str, Value)>,
    ) {
        if !self.level_enabled(level) {
            return;
        }
        let trace = snn_trace::current_trace_id();
        self.record_traced(level, target, message.into(), attrs, trace);
    }

    /// [`record`](Self::record) with an explicit trace id (pass `None`
    /// for process-scoped events; an explicit `Some` wins over the
    /// ambient context).
    pub fn record_traced(
        &self,
        level: Level,
        target: &'static str,
        message: String,
        attrs: Vec<(&'static str, Value)>,
        trace: Option<TraceId>,
    ) {
        if !self.level_enabled(level) {
            return;
        }
        let event = LogEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            level,
            target,
            message,
            attrs,
            trace,
            mono_us: self.us_since_epoch(Instant::now()),
            unix_ms: unix_ms_now(),
        };
        self.recorded[level as usize].fetch_add(1, Ordering::Relaxed);
        if self.has_sink.load(Ordering::Relaxed) {
            if let Some(sink) = self.sink() {
                sink.write(&event);
            }
        }
        self.ring.push(|_track| event);
    }

    /// Every retained event, ascending by sequence number (oldest
    /// first).
    pub fn recent(&self) -> Vec<LogEvent> {
        self.recent_filtered(None, None)
    }

    /// Retained events at or above `min_level` whose target starts with
    /// `target_prefix` (either filter `None` = no constraint),
    /// ascending by sequence number.
    pub fn recent_filtered(
        &self,
        min_level: Option<Level>,
        target_prefix: Option<&str>,
    ) -> Vec<LogEvent> {
        let mut events: Vec<LogEvent> = self.ring.query(|ring| {
            ring.iter()
                .filter(|e| min_level.is_none_or(|min| e.level >= min))
                .filter(|e| target_prefix.is_none_or(|p| e.target.starts_with(p)))
                .cloned()
                .collect()
        });
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Events recorded at `level` since construction (including
    /// later-evicted ones).
    pub fn events_recorded(&self, level: Level) -> u64 {
        self.recorded[level as usize].load(Ordering::Relaxed)
    }

    /// Events recorded across all levels since construction.
    pub fn events_recorded_total(&self) -> u64 {
        Level::ALL.iter().map(|&l| self.events_recorded(l)).sum()
    }

    /// Events evicted from the full ring since construction.
    pub fn events_dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Events currently retained (drains the shards first so the figure
    /// reflects everything recorded so far).
    pub fn ring_len(&self) -> usize {
        self.ring.len()
    }

    /// Attaches a JSON-lines sink; every subsequently recorded event
    /// that passes the sink's [`LogSpec`] and rate limit is written as
    /// one line. Replaces any previous sink.
    pub fn set_sink(&self, sink: JsonSink) {
        *self.sink.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(sink));
        self.has_sink.store(true, Ordering::Relaxed);
    }

    /// Lines the attached sink suppressed by rate limiting (0 when no
    /// sink is attached).
    pub fn sink_suppressed(&self) -> u64 {
        self.sink().map_or(0, |s| s.suppressed())
    }

    /// The attached sink, cloned out so a write never holds the slot.
    fn sink(&self) -> Option<Arc<JsonSink>> {
        self.sink.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Records one event on `$collector` at `$level` under `$target`, with
/// an optional `{ "key": value, ... }` attribute block before the
/// format string. The level gate runs **before** the format arguments
/// are evaluated, so a below-level call costs one relaxed load.
#[macro_export]
macro_rules! log {
    ($collector:expr, $level:expr, $target:expr, { $($key:literal : $value:expr),* $(,)? }, $($fmt:tt)+) => {{
        let __collector = &$collector;
        let __level = $level;
        if __collector.level_enabled(__level) {
            __collector.record(
                __level,
                $target,
                format!($($fmt)+),
                vec![$(($key, $crate::Value::from($value))),*],
            );
        }
    }};
    ($collector:expr, $level:expr, $target:expr, $($fmt:tt)+) => {
        $crate::log!($collector, $level, $target, {}, $($fmt)+)
    };
}

/// [`log!`] at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($collector:expr, $target:expr, $($rest:tt)+) => {
        $crate::log!($collector, $crate::Level::Debug, $target, $($rest)+)
    };
}

/// [`log!`] at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($collector:expr, $target:expr, $($rest:tt)+) => {
        $crate::log!($collector, $crate::Level::Info, $target, $($rest)+)
    };
}

/// [`log!`] at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($collector:expr, $target:expr, $($rest:tt)+) => {
        $crate::log!($collector, $crate::Level::Warn, $target, $($rest)+)
    };
}

/// [`log!`] at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($collector:expr, $target:expr, $($rest:tt)+) => {
        $crate::log!($collector, $crate::Level::Error, $target, $($rest)+)
    };
}

// ---------------------------------------------------------------------------
// SNN_LOG spec
// ---------------------------------------------------------------------------

/// A sink filter: a default level plus per-target-prefix overrides,
/// parsed from `SNN_LOG=<level>[,target=level]*`.
///
/// Parsing never fails and never panics: an unparseable default falls
/// back to [`Level::Info`], malformed override segments are skipped.
/// The longest matching target prefix wins
/// (`SNN_LOG=warn,gateway=info,gateway.access=debug`).
#[derive(Debug, Clone, PartialEq)]
pub struct LogSpec {
    default: Level,
    overrides: Vec<(String, Level)>,
}

impl Default for LogSpec {
    fn default() -> Self {
        Self {
            default: Level::Info,
            overrides: Vec::new(),
        }
    }
}

impl LogSpec {
    /// Parses a spec string; see the type docs for the grammar and the
    /// fallback rules.
    pub fn parse(spec: &str) -> LogSpec {
        let mut out = LogSpec::default();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            match token.split_once('=') {
                None => {
                    if let Some(level) = Level::parse(token) {
                        out.default = level;
                    }
                }
                Some((target, level)) => {
                    let target = target.trim();
                    if target.is_empty() {
                        continue;
                    }
                    if let Some(level) = Level::parse(level) {
                        out.overrides.push((target.to_string(), level));
                    }
                }
            }
        }
        out
    }

    /// Parses the `SNN_LOG` environment variable (unset → the default
    /// info-level spec).
    pub fn from_env() -> LogSpec {
        match std::env::var("SNN_LOG") {
            Ok(spec) => LogSpec::parse(&spec),
            Err(_) => LogSpec::default(),
        }
    }

    /// The default level (applies to targets with no matching
    /// override).
    pub fn default_level(&self) -> Level {
        self.default
    }

    /// The effective level for `target`: the longest override whose
    /// prefix matches, else the default.
    pub fn effective(&self, target: &str) -> Level {
        let mut best: Option<(usize, Level)> = None;
        for (prefix, level) in &self.overrides {
            if target.starts_with(prefix.as_str())
                && best.is_none_or(|(len, _)| prefix.len() >= len)
            {
                best = Some((prefix.len(), *level));
            }
        }
        best.map(|(_, level)| level).unwrap_or(self.default)
    }

    /// Whether an event at `level` under `target` passes the spec.
    pub fn enabled(&self, level: Level, target: &str) -> bool {
        level >= self.effective(target)
    }

    /// The most verbose level the spec can emit anywhere (the minimum
    /// across the default and every override) — what a collector's gate
    /// must be set to so the sink sees everything it asked for.
    pub fn most_verbose(&self) -> Level {
        self.overrides
            .iter()
            .map(|(_, level)| *level)
            .chain(std::iter::once(self.default))
            .min()
            .unwrap_or(Level::Info)
    }
}

// ---------------------------------------------------------------------------
// JSON-lines sink
// ---------------------------------------------------------------------------

/// Where a [`JsonSink`] writes.
#[derive(Debug, Clone)]
pub enum SinkTarget {
    /// Standard error of the process.
    Stderr,
    /// Appended to the file at this path (created if missing).
    File(PathBuf),
}

/// Token-bucket parameters of a [`JsonSink`]'s per-`(level, target)`
/// rate limit: each key may burst `burst` lines, refilling at `per_s`
/// lines per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Bucket depth: lines a single `(level, target)` may emit
    /// back-to-back.
    pub burst: u32,
    /// Sustained refill rate, lines per second.
    pub per_s: f64,
}

impl Default for RateLimit {
    fn default() -> Self {
        Self {
            burst: 64,
            per_s: 16.0,
        }
    }
}

/// Configuration for [`JsonSink::new`].
#[derive(Debug, Clone)]
pub struct SinkConfig {
    /// Where lines go.
    pub target: SinkTarget,
    /// Level filter (default + per-target overrides).
    pub spec: LogSpec,
    /// Per-`(level, target)` token bucket; `None` disables rate
    /// limiting.
    pub rate: Option<RateLimit>,
}

impl SinkConfig {
    /// A stderr sink honoring `spec`, with the default rate limit.
    pub fn stderr(spec: LogSpec) -> Self {
        Self {
            target: SinkTarget::Stderr,
            spec,
            rate: Some(RateLimit::default()),
        }
    }

    /// A file sink honoring `spec`, with the default rate limit.
    pub fn file(path: impl Into<PathBuf>, spec: LogSpec) -> Self {
        Self {
            target: SinkTarget::File(path.into()),
            spec,
            rate: Some(RateLimit::default()),
        }
    }
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// A JSON-lines sink: one self-contained JSON object per event, one
/// line per object, written with a single `write_all` under the writer
/// lock so concurrent recording threads never interleave partial lines.
///
/// Line schema:
///
/// ```json
/// {"ts_ms": 1719400000000, "mono_us": 8123, "level": "warn",
///  "target": "gateway.access", "msg": "POST /v1/infer -> 503",
///  "trace": "0000008000000001",
///  "attrs": {"route": "/v1/infer", "status": 503}}
/// ```
///
/// `trace` is `null` for uncorrelated events; attribute values keep
/// their native JSON types.
pub struct JsonSink {
    writer: Mutex<Box<dyn Write + Send>>,
    spec: LogSpec,
    rate: Option<RateLimit>,
    buckets: Mutex<BTreeMap<(u8, &'static str), Bucket>>,
    suppressed: AtomicU64,
}

impl std::fmt::Debug for JsonSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonSink")
            .field("spec", &self.spec)
            .field("rate", &self.rate)
            .finish_non_exhaustive()
    }
}

impl JsonSink {
    /// Opens the sink (creating/appending the file for
    /// [`SinkTarget::File`]).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the file target cannot be opened.
    pub fn new(config: SinkConfig) -> std::io::Result<JsonSink> {
        let writer: Box<dyn Write + Send> = match &config.target {
            SinkTarget::Stderr => Box::new(std::io::stderr()),
            SinkTarget::File(path) => Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
        };
        Ok(JsonSink {
            writer: Mutex::new(writer),
            spec: config.spec,
            rate: config.rate,
            buckets: Mutex::new(BTreeMap::new()),
            suppressed: AtomicU64::new(0),
        })
    }

    /// Writes one event if it passes the spec and the rate limit.
    pub fn write(&self, event: &LogEvent) {
        if !self.spec.enabled(event.level, event.target) {
            return;
        }
        if !self.admit(event) {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let line = render_line(event);
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.flush();
    }

    /// Token-bucket admission for the event's `(level, target)` key.
    fn admit(&self, event: &LogEvent) -> bool {
        let Some(rate) = self.rate else {
            return true;
        };
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let bucket = buckets
            .entry((event.level as u8, event.target))
            .or_insert_with(|| Bucket {
                tokens: f64::from(rate.burst),
                last: now,
            });
        let elapsed = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * rate.per_s).min(f64::from(rate.burst));
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Lines suppressed by the rate limit since construction.
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }
}

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn render_value(value: &Value, out: &mut String) {
    match value {
        Value::Str(s) => {
            out.push('"');
            out.push_str(&json_escape(s));
            out.push('"');
        }
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(x) if x.is_finite() => out.push_str(&format!("{x}")),
        Value::F64(_) => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Renders one event as its JSON line (terminated by `\n`); see
/// [`JsonSink`] for the schema. Public so other layers (incident
/// reports, the `/v1/logs` route) render events identically.
pub fn render_line(event: &LogEvent) -> String {
    let mut out = String::with_capacity(128);
    out.push_str(&format!(
        "{{\"ts_ms\":{},\"mono_us\":{},\"seq\":{},\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"",
        event.unix_ms,
        event.mono_us,
        event.seq,
        event.level.as_str(),
        json_escape(event.target),
        json_escape(&event.message),
    ));
    match event.trace {
        Some(trace) => out.push_str(&format!(",\"trace\":\"{trace}\"")),
        None => out.push_str(",\"trace\":null"),
    }
    out.push_str(",\"attrs\":{");
    for (i, (key, value)) in event.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&json_escape(key));
        out.push_str("\":");
        render_value(value, &mut out);
    }
    out.push_str("}}\n");
    out
}

// ---------------------------------------------------------------------------
// Incident recorder
// ---------------------------------------------------------------------------

/// Bounds and debounce of an [`IncidentRecorder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncidentConfig {
    /// Incident files retained in the directory; the oldest are deleted
    /// past the bound.
    pub max_incidents: usize,
    /// Flight-recorder events embedded per incident (the newest N).
    pub last_events: usize,
    /// Minimum gap between written incidents *of the same kind*;
    /// triggers inside the gap are counted as coalesced instead of
    /// writing another file (a panic storm produces one report, not a
    /// thousand). The gap is tracked per kind so a panic flurry never
    /// swallows the first `quarantine` or `breaker_open` report — the
    /// set of kinds is small and fixed by the call sites, so the disk
    /// write rate stays bounded either way.
    pub min_gap: Duration,
}

impl Default for IncidentConfig {
    fn default() -> Self {
        Self {
            max_incidents: 32,
            last_events: 256,
            min_gap: Duration::from_millis(250),
        }
    }
}

/// A caller-installed snapshot hook: given the triggering trace id (if
/// any), returns named raw-JSON sections to embed in the report — the
/// gateway installs one that renders its live `/v1/stats` body, the
/// matching trace tree, and the fault-injector counts.
pub type SnapshotProvider = Box<dyn Fn(Option<TraceId>) -> Vec<(String, String)> + Send + Sync>;

/// Writes self-contained post-mortem snapshots ("incidents") when the
/// stack's failure machinery fires.
///
/// Each report is a single JSON file: trigger kind + detail, build and
/// uptime info, the last N flight-recorder events from the attached
/// [`LogCollector`], and whatever raw-JSON sections the installed
/// [`SnapshotProvider`] contributes. Files are written atomically —
/// temp sibling, `fsync`, rename — so a crash mid-write never leaves a
/// torn report, and the directory is bounded: the oldest reports are
/// deleted past [`IncidentConfig::max_incidents`].
pub struct IncidentRecorder {
    dir: PathBuf,
    config: IncidentConfig,
    collector: Arc<LogCollector>,
    started: Instant,
    written: AtomicU64,
    coalesced: AtomicU64,
    last_write: Mutex<BTreeMap<String, Instant>>,
    seq: AtomicU64,
    provider: Mutex<Option<SnapshotProvider>>,
}

impl std::fmt::Debug for IncidentRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncidentRecorder")
            .field("dir", &self.dir)
            .field("config", &self.config)
            .field("written", &self.written.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl IncidentRecorder {
    /// Creates the recorder, creating `dir` if missing.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the directory cannot be created.
    pub fn new(
        dir: impl Into<PathBuf>,
        collector: Arc<LogCollector>,
        config: IncidentConfig,
    ) -> std::io::Result<IncidentRecorder> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(IncidentRecorder {
            dir,
            config,
            collector,
            started: Instant::now(),
            written: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            last_write: Mutex::new(BTreeMap::new()),
            seq: AtomicU64::new(0),
            provider: Mutex::new(None),
        })
    }

    /// Installs the snapshot hook (replacing any previous one).
    pub fn set_provider(
        &self,
        provider: impl Fn(Option<TraceId>) -> Vec<(String, String)> + Send + Sync + 'static,
    ) {
        *self.provider.lock().unwrap_or_else(|e| e.into_inner()) = Some(Box::new(provider));
    }

    /// The directory reports are written into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Incidents written since construction.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Triggers coalesced into a preceding incident by the
    /// [`IncidentConfig::min_gap`] debounce.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Records one incident, returning its id (`None` when debounced or
    /// when the filesystem write failed — incident recording never
    /// takes the serving path down). The trigger is also logged at
    /// [`Level::Error`] under target `incident`, so the report's own
    /// event window carries it.
    pub fn record(&self, kind: &str, detail: &str, trace: Option<TraceId>) -> Option<String> {
        let kind = sanitize_kind(kind);
        {
            let mut last = self.last_write.lock().unwrap_or_else(|e| e.into_inner());
            let now = Instant::now();
            if let Some(prev) = last.get(&kind) {
                if now.saturating_duration_since(*prev) < self.config.min_gap {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
            last.insert(kind.clone(), now);
        }
        self.collector.record_traced(
            Level::Error,
            "incident",
            format!("{kind}: {detail}"),
            vec![("kind", Value::Str(kind.clone()))],
            trace,
        );
        let unix_ms = unix_ms_now();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let id = format!("inc-{unix_ms:013}-{seq:06}-{kind}");
        let body = self.render_report(&id, &kind, detail, trace, unix_ms);
        self.write_atomic(&id, body.as_bytes())?;
        self.written.fetch_add(1, Ordering::Relaxed);
        self.cleanup();
        Some(id)
    }

    /// Builds the report JSON.
    fn render_report(
        &self,
        id: &str,
        kind: &str,
        detail: &str,
        trace: Option<TraceId>,
        unix_ms: u64,
    ) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"kind\":\"{}\",\"detail\":\"{}\",\"unix_ms\":{},\"uptime_s\":{}",
            json_escape(id),
            json_escape(kind),
            json_escape(detail),
            unix_ms,
            self.started.elapsed().as_secs_f64(),
        ));
        out.push_str(&format!(
            ",\"build\":{{\"pkg_version\":\"{}\",\"profile\":\"{}\"}}",
            env!("CARGO_PKG_VERSION"),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        ));
        match trace {
            Some(trace) => out.push_str(&format!(",\"trace_id\":\"{trace}\"")),
            None => out.push_str(",\"trace_id\":null"),
        }
        let events = self.collector.recent();
        let skip = events.len().saturating_sub(self.config.last_events);
        out.push_str(",\"events\":[");
        for (i, event) in events[skip..].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let line = render_line(event);
            out.push_str(line.trim_end());
        }
        out.push(']');
        out.push_str(&format!(
            ",\"events_dropped\":{}",
            self.collector.events_dropped()
        ));
        out.push_str(",\"sections\":{");
        let provider = self.provider.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(provider) = provider.as_ref() {
            let mut first = true;
            for (name, raw) in provider(trace) {
                if raw.is_empty() {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push('"');
                out.push_str(&json_escape(&name));
                out.push_str("\":");
                out.push_str(&raw);
            }
        }
        out.push_str("}}");
        out
    }

    /// Temp sibling + fsync + rename, the same idiom the model
    /// artifacts publish with; all I/O errors are swallowed (`None`).
    fn write_atomic(&self, id: &str, body: &[u8]) -> Option<()> {
        let path = self.dir.join(format!("{id}.json"));
        let tmp = self.dir.join(format!("{id}.json.tmp"));
        let result = (|| -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(body)?;
            file.sync_all()?;
            std::fs::rename(&tmp, &path)?;
            Ok(())
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
            return None;
        }
        Some(())
    }

    /// Deletes the oldest reports past the retention bound (ids embed a
    /// zero-padded wall timestamp + sequence, so the lexicographic
    /// order is chronological).
    fn cleanup(&self) {
        let ids = self.list();
        let excess = ids.len().saturating_sub(self.config.max_incidents);
        for id in &ids[..excess] {
            let _ = std::fs::remove_file(self.dir.join(format!("{id}.json")));
        }
    }

    /// Ids of the retained reports, oldest first.
    pub fn list(&self) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut ids: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter_map(|name| name.strip_suffix(".json").map(str::to_string))
            .collect();
        ids.sort();
        ids
    }

    /// Reads one report body by id. Ids are restricted to
    /// `[A-Za-z0-9_-]` (no dots, no separators), so a hostile id can
    /// never traverse out of the incidents directory.
    pub fn read(&self, id: &str) -> Option<Vec<u8>> {
        if id.is_empty()
            || !id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return None;
        }
        std::fs::read(self.dir.join(format!("{id}.json"))).ok()
    }
}

/// Restricts an incident kind to a short `[a-z0-9_]` slug usable inside
/// a file name.
fn sanitize_kind(kind: &str) -> String {
    let slug: String = kind
        .chars()
        .map(|c| c.to_ascii_lowercase())
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .take(32)
        .collect();
    if slug.is_empty() {
        "incident".to_string()
    } else {
        slug
    }
}

/// Installs a process-wide panic hook that records an incident (kind
/// `panic`) before delegating to the previously installed hook. The
/// hook holds only a [`Weak`] reference: once the recorder is dropped
/// the hook degrades to a pure pass-through, so repeated installs from
/// short-lived stacks (tests) stay cheap.
pub fn install_panic_hook(recorder: &Arc<IncidentRecorder>) {
    let weak: Weak<IncidentRecorder> = Arc::downgrade(recorder);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some(recorder) = weak.upgrade() {
            recorder.record("panic", &info.to_string(), None);
        }
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static TEMP_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "snn-log-test-{tag}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        path
    }

    #[test]
    fn ring_overflow_keeps_newest_and_counts_drops_exactly() {
        let log = LogCollector::new(8);
        for i in 0..20u64 {
            log.record(Level::Info, "test.ring", format!("event {i}"), Vec::new());
        }
        let events = log.recent();
        assert_eq!(events.len(), 8, "ring retains exactly its capacity");
        assert_eq!(log.events_dropped(), 12, "drops counted exactly");
        assert_eq!(log.events_recorded(Level::Info), 20);
        // The retained window is the newest 8 events, in order.
        let messages: Vec<&str> = events.iter().map(|e| e.message.as_str()).collect();
        let expected: Vec<String> = (12..20).map(|i| format!("event {i}")).collect();
        assert_eq!(messages, expected);
    }

    #[test]
    fn recorded_events_are_retained_or_counted_dropped() {
        // Conservation at the source: every recorded event is either in
        // the ring or counted as evicted, and each thread's survivors are
        // the newest contiguous run of what it recorded.
        const TARGETS: [&str; 4] = ["thread.0", "thread.1", "thread.2", "thread.3"];
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for _ in 0..64 {
            let log = Arc::new(LogCollector::new(1 + next(64) as usize));
            let counts: Vec<u64> = (0..1 + next(4)).map(|_| next(300)).collect();
            let handles: Vec<_> = counts
                .iter()
                .zip(TARGETS)
                .map(|(&n, target)| {
                    let log = Arc::clone(&log);
                    std::thread::spawn(move || {
                        for i in 0..n {
                            log.record(Level::Info, target, String::new(), vec![("i", i.into())]);
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }
            let retained = log.ring_len() as u64;
            assert_eq!(log.events_recorded_total(), counts.iter().sum::<u64>());
            assert_eq!(log.events_recorded_total(), retained + log.events_dropped());
            assert!(retained <= log.capacity() as u64);
            for (n, target) in counts.into_iter().zip(TARGETS) {
                let kept: Vec<Value> = log
                    .recent_filtered(None, Some(target))
                    .into_iter()
                    .map(|e| e.attrs[0].1.clone())
                    .collect();
                let newest: Vec<Value> = (n - kept.len() as u64..n).map(Value::U64).collect();
                assert_eq!(kept, newest, "survivors are a newest suffix");
            }
        }
    }

    #[test]
    fn an_event_is_visible_to_its_own_thread_while_others_query() {
        // Each thread records under its own target and reads that target
        // back at once, as a gateway worker does for `GET /v1/logs`.
        // Another thread's concurrent query may be the one that drains
        // this thread's shard; the event must not be missed in transit.
        const TARGETS: [&str; 4] = ["race.0", "race.1", "race.2", "race.3"];
        let log = Arc::new(LogCollector::new(1 << 20));
        let handles: Vec<_> = TARGETS
            .into_iter()
            .map(|target| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for recorded in 1..=5_000 {
                        log.record(Level::Info, target, String::new(), Vec::new());
                        assert_eq!(
                            log.recent_filtered(None, Some(target)).len(),
                            recorded,
                            "own event lost to a concurrent drain"
                        );
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn below_min_level_records_nothing() {
        let log = LogCollector::new(16);
        log.set_min_level(Level::Warn);
        assert!(!log.level_enabled(Level::Info));
        log.record(Level::Info, "test", "dropped", Vec::new());
        debug!(log, "test", "also dropped {}", 1);
        log.record(Level::Error, "test", "kept", Vec::new());
        assert_eq!(log.events_recorded_total(), 1);
        assert_eq!(log.recent().len(), 1);
        log.disable();
        assert_eq!(log.min_level(), None);
        log.record(Level::Error, "test", "gone", Vec::new());
        assert_eq!(log.events_recorded_total(), 1);
    }

    #[test]
    fn macros_gate_before_evaluating_arguments() {
        let log = LogCollector::new(16);
        log.set_min_level(Level::Warn);
        let evaluated = std::cell::Cell::new(false);
        let probe = || {
            evaluated.set(true);
            7
        };
        info!(log, "test", "value {}", probe());
        assert!(
            !evaluated.get(),
            "below-level format args must not evaluate"
        );
        warn!(log, "test", { "k": 1u64 }, "value {}", probe());
        assert!(evaluated.get());
        let events = log.recent();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].attrs, vec![("k", Value::U64(1))]);
    }

    #[test]
    fn ambient_trace_context_stamps_events() {
        use snn_trace::{push_context, TraceCollector, TraceTarget};
        let traces = Arc::new(TraceCollector::new(64));
        let trace = traces.mint_trace();
        let log = LogCollector::new(16);
        log.record(Level::Info, "test", "before context", Vec::new());
        {
            let _guard = push_context(Arc::clone(&traces), vec![TraceTarget { trace, parent: 0 }]);
            log.record(Level::Info, "test", "inside context", Vec::new());
        }
        let events = log.recent();
        assert_eq!(events[0].trace, None);
        assert_eq!(events[1].trace, Some(trace));
    }

    #[test]
    fn spec_parses_overrides_and_survives_garbage() {
        let spec = LogSpec::parse("warn,gateway=info,gateway.access=debug");
        assert_eq!(spec.default_level(), Level::Warn);
        assert_eq!(spec.effective("runtime.batcher"), Level::Warn);
        assert_eq!(spec.effective("gateway.http"), Level::Info);
        assert_eq!(spec.effective("gateway.access"), Level::Debug);
        assert!(spec.enabled(Level::Debug, "gateway.access"));
        assert!(!spec.enabled(Level::Debug, "gateway.http"));
        assert_eq!(spec.most_verbose(), Level::Debug);

        // Malformed specs never panic and fall back to info.
        for garbage in [
            "",
            ",,,",
            "shout",
            "=debug",
            "gateway=",
            "gateway=verbose",
            "a=b=c",
            "🦀🦀🦀",
        ] {
            let spec = LogSpec::parse(garbage);
            assert_eq!(spec.default_level(), Level::Info, "spec {garbage:?}");
        }
        // A bad override is skipped without discarding the good ones.
        let spec = LogSpec::parse("error,runtime=bogus,gateway=warn");
        assert_eq!(spec.default_level(), Level::Error);
        assert_eq!(spec.effective("runtime"), Level::Error);
        assert_eq!(spec.effective("gateway"), Level::Warn);
    }

    #[test]
    fn sink_lines_never_interleave_across_threads() {
        let dir = temp_dir("sink");
        let path = dir.join("log.jsonl");
        let log = Arc::new(LogCollector::new(4096));
        let mut config = SinkConfig::file(&path, LogSpec::parse("info"));
        config.rate = None;
        log.set_sink(JsonSink::new(config).unwrap());

        let threads = 8;
        let per_thread = 100;
        let mut handles = Vec::new();
        for t in 0..threads {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    info!(
                        log,
                        "test.sink",
                        { "thread": t as u64, "i": i as u64 },
                        "thread {t} line {i} with a long-enough payload to tempt interleaving"
                    );
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), threads * per_thread);
        for line in &lines {
            let parsed: serde::Content = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("unparseable sink line {line:?}: {e:?}"));
            let map = parsed.as_map().expect("line is an object");
            assert_eq!(
                serde::field(map, "target").unwrap().as_str(),
                Some("test.sink")
            );
            assert!(serde::field(map, "attrs").unwrap().as_map().is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_rate_limit_suppresses_and_counts() {
        let dir = temp_dir("rate");
        let path = dir.join("log.jsonl");
        let log = LogCollector::new(4096);
        let mut config = SinkConfig::file(&path, LogSpec::parse("info"));
        config.rate = Some(RateLimit {
            burst: 5,
            per_s: 0.0,
        });
        log.set_sink(JsonSink::new(config).unwrap());
        for i in 0..50u64 {
            log.record(Level::Warn, "test.hot", format!("line {i}"), Vec::new());
            // A different (level, target) key has its own bucket.
            log.record(Level::Error, "test.other", format!("line {i}"), Vec::new());
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 10, "5 per (level, target) key");
        assert_eq!(log.sink_suppressed(), 90);
        // The flight recorder is not rate limited: all 100 events kept.
        assert_eq!(log.events_recorded_total(), 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_spec_filters_by_target() {
        let dir = temp_dir("spec");
        let path = dir.join("log.jsonl");
        let log = LogCollector::new(64);
        log.set_min_level(Level::Debug);
        let mut config = SinkConfig::file(&path, LogSpec::parse("warn,test.chatty=debug"));
        config.rate = None;
        log.set_sink(JsonSink::new(config).unwrap());
        log.record(Level::Debug, "test.chatty", "kept by override", Vec::new());
        log.record(Level::Debug, "test.quiet", "filtered", Vec::new());
        log.record(Level::Info, "test.quiet", "filtered too", Vec::new());
        log.record(Level::Error, "test.quiet", "kept by default", Vec::new());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        // Everything still reached the flight recorder.
        assert_eq!(log.recent().len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recent_filtered_applies_level_and_target() {
        let log = LogCollector::new(64);
        log.set_min_level(Level::Debug);
        log.record(Level::Debug, "gateway.access", "a", Vec::new());
        log.record(Level::Warn, "gateway.access", "b", Vec::new());
        log.record(Level::Error, "runtime.batcher", "c", Vec::new());
        assert_eq!(log.recent_filtered(Some(Level::Warn), None).len(), 2);
        assert_eq!(log.recent_filtered(None, Some("gateway")).len(), 2);
        assert_eq!(
            log.recent_filtered(Some(Level::Warn), Some("gateway"))
                .len(),
            1
        );
    }

    #[test]
    fn incidents_write_atomically_with_lru_cleanup() {
        let dir = temp_dir("incidents");
        let log = Arc::new(LogCollector::new(64));
        log.record(Level::Warn, "test", "pre-incident context", Vec::new());
        let recorder = IncidentRecorder::new(
            &dir,
            Arc::clone(&log),
            IncidentConfig {
                max_incidents: 4,
                last_events: 8,
                min_gap: Duration::ZERO,
            },
        )
        .unwrap();
        recorder.set_provider(|_trace| {
            vec![("stats".to_string(), "{\"schema_version\":1}".to_string())]
        });
        let mut last_id = None;
        for i in 0..10 {
            let id = recorder.record("breaker_open", &format!("breaker {i}"), None);
            assert!(id.is_some(), "incident {i} must write");
            last_id = id;
        }
        assert_eq!(recorder.written(), 10);
        let ids = recorder.list();
        assert_eq!(ids.len(), 4, "LRU cleanup bounds the directory");
        assert!(ids.contains(last_id.as_ref().unwrap()));
        // No torn temp files remain.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(name.ends_with(".json"), "stray file {name}");
        }
        // The report parses and carries the embedded section + events.
        let body = recorder.read(last_id.as_ref().unwrap()).unwrap();
        let parsed: serde::Content =
            serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
        let map = parsed.as_map().unwrap();
        assert_eq!(
            serde::field(map, "kind").unwrap().as_str(),
            Some("breaker_open")
        );
        let sections = serde::field(map, "sections").unwrap().as_map().unwrap();
        let stats = serde::field(sections, "stats").unwrap().as_map().unwrap();
        assert_eq!(
            serde::field(stats, "schema_version").unwrap().as_u64(),
            Some(1)
        );
        let events = serde::field(map, "events").unwrap().as_seq().unwrap();
        assert!(!events.is_empty());
        // Hostile ids never escape the directory.
        assert!(recorder.read("../../../etc/passwd").is_none());
        assert!(recorder.read("id.with.dots").is_none());
        assert!(recorder.read("").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incident_debounce_coalesces_storms() {
        let dir = temp_dir("debounce");
        let log = Arc::new(LogCollector::new(64));
        let recorder = IncidentRecorder::new(
            &dir,
            log,
            IncidentConfig {
                min_gap: Duration::from_secs(3600),
                ..IncidentConfig::default()
            },
        )
        .unwrap();
        assert!(recorder.record("quarantine", "first", None).is_some());
        for _ in 0..5 {
            assert!(recorder.record("quarantine", "storm", None).is_none());
        }
        // The gap is per kind: an unrelated panic flurry never swallows
        // the first report of a different failure.
        assert!(recorder.record("panic", "different kind", None).is_some());
        assert!(recorder.record("panic", "same kind again", None).is_none());
        assert_eq!(recorder.written(), 2);
        assert_eq!(recorder.coalesced(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_hook_records_an_incident() {
        let dir = temp_dir("panic");
        let log = Arc::new(LogCollector::new(64));
        let recorder = Arc::new(
            IncidentRecorder::new(
                &dir,
                log,
                IncidentConfig {
                    min_gap: Duration::ZERO,
                    ..IncidentConfig::default()
                },
            )
            .unwrap(),
        );
        install_panic_hook(&recorder);
        let result = std::panic::catch_unwind(|| panic!("deliberate test panic"));
        assert!(result.is_err());
        assert!(recorder.written() >= 1, "panic must write an incident");
        let ids = recorder.list();
        let body = recorder.read(&ids[ids.len() - 1]).unwrap();
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("deliberate test panic"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
