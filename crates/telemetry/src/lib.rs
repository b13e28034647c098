//! Latency histograms and windowed time-series metrics for the serving
//! stack.
//!
//! Every series is one cumulative cell that answers both "what happened
//! since the cell was created" and "what is happening *now*". A cell
//! keeps its running value plus a bounded ring of marks — the value at
//! the start of each recent time slot that saw a record — and a window
//! is the running value minus the first mark inside it (0 when no mark
//! falls inside it). Windowed figures are therefore never above the
//! cumulative ones, and both come from the same cell:
//!
//! - [`WindowCounter`] — 1-second slots, up to 300 marks (5 minutes of
//!   history). Accumulates `f64` so the same type serves request counts
//!   and energy-µJ sums; exposes a cumulative total plus per-window sums
//!   and rates.
//! - [`WindowHistogram`] — a cumulative [`Histogram`] with 5-second
//!   slots, up to 60 marks of its bins; window quantiles are nearest-rank
//!   over the bins the window adds and return the bin's upper edge.
//!
//! Both histograms share one bin layout: base-2 octaves split into 4
//! linear sub-bins, upper-inclusive, so every bin is at most 25 % wide
//! and a quantile overestimates the exact nearest-rank value by at most
//! 25 % + 1 µs, never underestimates it.
//!
//! Cells are listed in named families inside a [`TelemetryHub`] and
//! addressed by [`Labels`] (`model`, `route`, `flush_reason`, …). A
//! recorder that owns its cells publishes them
//! ([`TelemetryHub::publish_counter`]); code without a recorder looks a
//! cell up ([`TelemetryHub::counter`]). Every family is
//! cardinality-capped at [`MAX_SERIES_PER_FAMILY`] label sets: past it a
//! published cell is not listed, and lookups collapse into one reserved
//! overflow series. Lookups and publishes hold the hub lock briefly;
//! recording holds only the cell's own lock.
//!
//! Timestamps are explicit: every mutation and query takes `now_s`,
//! seconds on the process clock [`now_s`] (tests pass synthetic values
//! for deterministic rotation coverage). The [`slo`] module layers
//! multi-window burn rates on top: a fast (1 m) and slow (5 m)
//! error-budget burn per model, reduced to an `ok` / `warn` / `burning`
//! state.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// The sliding windows every snapshot reports, in seconds: 10 s, 1 m, 5 m.
pub const WINDOWS_S: [u64; 3] = [10, 60, 300];

/// Counter slot width, seconds.
const COUNTER_SLOT_S: u64 = 1;
/// Counter marks kept: 300 × 1 s = the longest window.
const COUNTER_SLOTS: usize = 300;
/// Histogram slot width, seconds. Coarser than counters because each
/// mark carries a full bin array; 5 divides every window in
/// [`WINDOWS_S`] so window edges align with slot edges.
const HIST_SLOT_S: u64 = 5;
/// Histogram marks kept: 60 × 5 s = the longest window.
const HIST_SLOTS: usize = 60;

/// Distinct label sets a family holds before further lookups collapse
/// into the reserved overflow series (see [`overflow_labels`]).
pub const MAX_SERIES_PER_FAMILY: usize = 64;

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Seconds on the process clock, whose epoch is its first read: the
/// `now_s` every cell is stamped and queried with. One clock for the
/// whole process, because a recorder's cells exist before any hub does.
pub fn now_s() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs()
}

// ---------------------------------------------------------------------------
// Marks
// ---------------------------------------------------------------------------

/// The most recent `(slot, value at the slot's start)` marks of one
/// cell, oldest first, one per slot that saw a record.
struct Marks<M> {
    slot_s: u64,
    cap: usize,
    ring: VecDeque<(u64, M)>,
}

impl<M> Marks<M> {
    fn new(slot_s: u64, cap: usize) -> Self {
        Self {
            slot_s,
            cap,
            ring: VecDeque::new(),
        }
    }

    /// Slots a `window_s` window spans, clamped to the ring.
    fn span(&self, window_s: u64) -> u64 {
        window_s.div_ceil(self.slot_s).clamp(1, self.cap as u64)
    }

    /// Marks the start of `now_s`'s slot with `value()` — the cell's
    /// value before this record — unless that slot (or a later one, when
    /// a racing recorder read the clock later) is already marked.
    fn mark(&mut self, now_s: u64, value: impl FnOnce() -> M) {
        let slot = now_s / self.slot_s;
        if self.ring.back().is_some_and(|&(last, _)| last >= slot) {
            return;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back((slot, value()));
    }

    /// The value at the start of the first marked slot inside the
    /// `window_s` seconds ending at `now_s`; `None` when no record fell
    /// inside the window.
    fn window_start(&self, now_s: u64, window_s: u64) -> Option<&M> {
        let (now_slot, span) = (now_s / self.slot_s, self.span(window_s));
        let first = self
            .ring
            .partition_point(|&(slot, _)| slot + span <= now_slot);
        self.ring.get(first).map(|(_, value)| value)
    }
}

/// A cell's running value and the marks its windows subtract.
struct Series<T, M> {
    value: T,
    marks: Marks<M>,
}

// ---------------------------------------------------------------------------
// WindowCounter
// ---------------------------------------------------------------------------

/// Monotone accumulating series: a running total plus marks over
/// 1-second slots.
///
/// Accumulates `f64`, so it serves both event counts (`add(now, 1.0)`)
/// and measured sums such as energy in µJ. The cumulative
/// [`total`](Self::total) is exact forever; [`window_sum`](Self::window_sum)
/// and the [`snapshot`](Self::snapshot) rates cover at most the last
/// 300 seconds and are differences of running totals.
pub struct WindowCounter {
    inner: Mutex<Series<f64, f64>>,
}

impl WindowCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Series {
                value: 0.0,
                marks: Marks::new(COUNTER_SLOT_S, COUNTER_SLOTS),
            }),
        }
    }

    /// Adds `v` at `now_s`.
    pub fn add(&self, now_s: u64, v: f64) {
        let mut st = lock_recover(&self.inner);
        let Series { value, marks } = &mut *st;
        marks.mark(now_s, || *value);
        *value += v;
    }

    /// Cumulative sum of everything ever added.
    pub fn total(&self) -> f64 {
        lock_recover(&self.inner).value
    }

    /// Sum over the last `window_s` seconds ending at `now_s`
    /// (inclusive of the current, still-filling slot). Windows longer
    /// than the ring are clamped to the ring span.
    pub fn window_sum(&self, now_s: u64, window_s: u64) -> f64 {
        lock_recover(&self.inner).window_sum(now_s, window_s)
    }

    /// The total and every [`WINDOWS_S`] window with its per-second
    /// rate, read under one lock.
    pub fn snapshot(&self, now_s: u64) -> CounterSnapshot {
        let st = lock_recover(&self.inner);
        CounterSnapshot {
            total: st.value,
            windows: WINDOWS_S
                .iter()
                .map(|&w| {
                    let sum = st.window_sum(now_s, w);
                    let width = st.marks.span(w) * COUNTER_SLOT_S;
                    WindowSum {
                        window_s: w,
                        sum,
                        rate_per_s: sum / width as f64,
                    }
                })
                .collect(),
        }
    }
}

impl Series<f64, f64> {
    fn window_sum(&self, now_s: u64, window_s: u64) -> f64 {
        self.marks
            .window_start(now_s, window_s)
            .map_or(0.0, |start| self.value - start)
    }
}

impl Default for WindowCounter {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Log-linear bins (shared by Histogram and WindowHistogram)
// ---------------------------------------------------------------------------

/// Octaves the bins cover. Octave 0 is [0, 1] µs and octave k ≥ 1 is
/// (2^(k−1), 2^k] µs, so the finite range ends at 2^25 µs (~33.5 s) and
/// anything slower lands in one overflow bin.
const HIST_OCTAVES: usize = 26;
/// Linear sub-bins per octave; 4 keeps every bin ≤ 25 % wide.
const HIST_SUBS: usize = 4;
/// Finite bins plus one overflow bin.
const HIST_BINS: usize = HIST_OCTAVES * HIST_SUBS + 1;
/// The bin holding everything above 2^25 µs.
const OVERFLOW_BIN: usize = HIST_BINS - 1;

/// Bin index for a value in whole µs: octave `ceil(log2 us)`, whose
/// (b, 2b] splits into 4 upper-inclusive sub-bins (b + j·b/4,
/// b + (j+1)·b/4]. Monotone in `us`, so nearest-rank over bins agrees
/// with nearest-rank over samples up to bin width.
fn hist_bin(us: u64) -> usize {
    if us <= 1 {
        return 0;
    }
    let octave = (u64::BITS - (us - 1).leading_zeros()) as usize;
    if octave >= HIST_OCTAVES {
        return OVERFLOW_BIN;
    }
    let b = 1u64 << (octave - 1);
    let sub = ((us - b) * HIST_SUBS as u64 - 1) / b;
    octave * HIST_SUBS + sub as usize
}

/// Inclusive upper edge of a bin, µs. The overflow bin reports the top
/// of the finite range.
fn hist_bin_upper_us(bin: usize) -> f64 {
    let (octave, sub) = (bin / HIST_SUBS, bin % HIST_SUBS);
    if bin >= OVERFLOW_BIN {
        (1u64 << (HIST_OCTAVES - 1)) as f64
    } else if octave == 0 {
        1.0
    } else {
        (1u64 << (octave - 1)) as f64 * (1.0 + (sub + 1) as f64 / HIST_SUBS as f64)
    }
}

/// The bin holding the nearest-rank `q`-quantile (0 ≤ q ≤ 1) of the
/// `count` observations in `bins`; `None` when `count` is 0.
fn rank_bin(bins: &[u64; HIST_BINS], count: u64, q: f64) -> Option<usize> {
    if count == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    bins.iter().position(|&b| {
        cumulative += b;
        cumulative >= rank
    })
}

/// Whole microseconds of `d`, truncated: the value a [`Histogram`] bins.
fn whole_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// `d` in microseconds, fractional: exact for whole-µs durations.
fn exact_us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Cumulative latency histogram: log-linear bins plus an exact count,
/// an exact sum and an exact maximum. About 1 KiB whatever the traffic;
/// the cumulative half of every [`WindowHistogram`].
///
/// Observations are binned by whole microseconds (truncated). A
/// quantile is the upper edge of the bin holding its nearest rank,
/// clamped to the maximum: the bin that holds the maximum reports the
/// maximum itself. So a quantile never falls below the exact
/// nearest-rank value (over whole µs), exceeds it by at most
/// 25 % + 1 µs below 2^25 µs, and `q = 1` is the exact maximum.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bins: [u64; HIST_BINS],
    count: u64,
    sum_us: f64,
    max: Duration,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            bins: [0; HIST_BINS],
            count: 0,
            sum_us: 0.0,
            max: Duration::ZERO,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, latency: Duration) {
        self.bins[hist_bin(whole_us(latency))] += 1;
        self.count += 1;
        self.sum_us += exact_us(latency);
        self.max = self.max.max(latency);
    }

    /// Absorbs every observation of `other` (e.g. per-thread histograms
    /// into one summary).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max = self.max.max(other.max);
    }

    /// Observations recorded (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, µs (exact).
    pub fn sum_us(&self) -> f64 {
        self.sum_us
    }

    /// Mean observation, µs (exact); 0 when empty.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), µs; 0 when empty. See the type docs
    /// for the tolerance.
    pub fn quantile_us(&self, q: f64) -> f64 {
        match rank_bin(&self.bins, self.count, q) {
            None => 0.0,
            Some(bin) if bin == hist_bin(whole_us(self.max)) => exact_us(self.max),
            Some(bin) => hist_bin_upper_us(bin),
        }
    }

    /// The Prometheus `le` view: `(le_us, cumulative count)` for le =
    /// 2^0 … 2^25 µs, up to the highest non-empty one. Each bucket is an
    /// octave sum; observations above 2^25 µs count only in the implicit
    /// `+Inf` bucket, whose cumulative count is [`count`](Self::count).
    pub fn le_buckets(&self) -> Vec<(u64, u64)> {
        let octaves: Vec<u64> = self.bins[..OVERFLOW_BIN]
            .chunks_exact(HIST_SUBS)
            .map(|octave| octave.iter().sum())
            .collect();
        let end = octaves.iter().rposition(|&c| c != 0).map_or(0, |k| k + 1);
        let mut cumulative = 0;
        octaves[..end]
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                cumulative += c;
                (1u64 << k, cumulative)
            })
            .collect()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// WindowHistogram
// ---------------------------------------------------------------------------

/// Latency series: a cumulative [`Histogram`] plus marks of its bins
/// over 5-second slots.
///
/// Window quantiles are nearest-rank over the bins the window added and
/// return the containing bin's **upper edge**, so they overestimate the
/// exact sample quantile by at most one bin width — ≤ 25 % + 1 µs.
pub struct WindowHistogram {
    inner: Mutex<Series<Histogram, [u64; HIST_BINS]>>,
}

impl WindowHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Series {
                value: Histogram::new(),
                marks: Marks::new(HIST_SLOT_S, HIST_SLOTS),
            }),
        }
    }

    /// Records one observation at `now_s`.
    pub fn record(&self, now_s: u64, latency: Duration) {
        let mut st = lock_recover(&self.inner);
        let Series { value, marks } = &mut *st;
        marks.mark(now_s, || value.bins);
        value.record(latency);
    }

    /// Records one observation of `us` microseconds at `now_s`.
    pub fn record_us(&self, now_s: u64, us: u64) {
        self.record(now_s, Duration::from_micros(us));
    }

    /// Total observations ever recorded (exact, not windowed).
    pub fn count(&self) -> u64 {
        lock_recover(&self.inner).value.count
    }

    /// A copy of the cumulative histogram.
    pub fn cumulative(&self) -> Histogram {
        lock_recover(&self.inner).value.clone()
    }

    /// Observations within the last `window_s` seconds ending at `now_s`.
    pub fn window_count(&self, now_s: u64, window_s: u64) -> u64 {
        lock_recover(&self.inner).window_bins(now_s, window_s).1
    }

    /// Nearest-rank `q`-quantile (0 ≤ q ≤ 1) over the last `window_s`
    /// seconds, µs; 0 when the window is empty. Returns the upper edge
    /// of the bin holding the rank — see the type docs for the
    /// tolerance this implies.
    pub fn window_quantile_us(&self, now_s: u64, window_s: u64, q: f64) -> f64 {
        let (bins, count) = lock_recover(&self.inner).window_bins(now_s, window_s);
        rank_bin(&bins, count, q).map_or(0.0, hist_bin_upper_us)
    }

    /// The cumulative count and sum and every [`WINDOWS_S`] window, read
    /// under one lock.
    pub fn snapshot(&self, now_s: u64) -> HistogramWindows {
        let st = lock_recover(&self.inner);
        HistogramWindows {
            count: st.value.count,
            sum_us: st.value.sum_us,
            windows: WINDOWS_S
                .iter()
                .map(|&w| {
                    let (bins, count) = st.window_bins(now_s, w);
                    let q = |q| rank_bin(&bins, count, q).map_or(0.0, hist_bin_upper_us);
                    WindowQuantiles {
                        window_s: w,
                        count,
                        p50_us: q(0.50),
                        p95_us: q(0.95),
                        p99_us: q(0.99),
                    }
                })
                .collect(),
        }
    }
}

impl Series<Histogram, [u64; HIST_BINS]> {
    /// The bins the window added since its first mark, and their count.
    fn window_bins(&self, now_s: u64, window_s: u64) -> ([u64; HIST_BINS], u64) {
        let mut bins = [0u64; HIST_BINS];
        if let Some(start) = self.marks.window_start(now_s, window_s) {
            for ((b, now), then) in bins.iter_mut().zip(&self.value.bins).zip(start) {
                *b = now - then;
            }
        }
        (bins, bins.iter().sum())
    }
}

impl Default for WindowHistogram {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------------

/// A sorted, duplicate-free set of label pairs addressing one series
/// within a family. Keys are static (the stack's label vocabulary is
/// fixed: `model`, `version`, `route`, `backend`, `priority`,
/// `flush_reason`); values are owned strings.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Labels {
    pairs: Vec<(&'static str, String)>,
}

impl Labels {
    /// Creates an empty label set (the family's unlabeled series).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the set with `key=value` added, replacing any existing
    /// value for `key` and keeping keys sorted.
    pub fn with(mut self, key: &'static str, value: impl Into<String>) -> Self {
        let value = value.into();
        match self.pairs.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.pairs[i].1 = value,
            Err(i) => self.pairs.insert(i, (key, value)),
        }
        self
    }

    /// Value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .binary_search_by(|(k, _)| (*k).cmp(key))
            .ok()
            .map(|i| self.pairs[i].1.as_str())
    }

    /// Canonical map key: `k1=v1,k2=v2` over the sorted pairs.
    pub fn key(&self) -> String {
        let mut out = String::new();
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out
    }
}

/// The reserved label set all over-cap lookups collapse into.
pub fn overflow_labels() -> Labels {
    Labels::new().with("overflow", "true")
}

// ---------------------------------------------------------------------------
// Hub
// ---------------------------------------------------------------------------

/// Canonical family names shared by the recorders (runtime, gateway)
/// and the consumers (`/v1/stats`, dashboard, bench), so both sides
/// agree without string drift.
pub mod families {
    /// Completed inferences per model (counter, labels `model`/`version`/`backend`).
    pub const REQUESTS: &str = "requests";
    /// End-to-end latency per model, µs (histogram).
    pub const E2E_US: &str = "e2e_us";
    /// Queue-wait latency per model, µs (histogram).
    pub const QUEUE_WAIT_US: &str = "queue_wait_us";
    /// Batch execution latency per model, µs (histogram).
    pub const EXEC_US: &str = "exec_us";
    /// Backpressure sheds (counter, extra label `priority`).
    pub const SHEDS: &str = "sheds";
    /// Priority-brownout sheds (counter, extra label `priority`).
    pub const BROWNOUT_SHEDS: &str = "brownout_sheds";
    /// Ticket wait-timeout expiries (counter).
    pub const WAIT_TIMEOUTS: &str = "wait_timeouts";
    /// Requests that completed after their declared deadline (counter).
    pub const DEADLINE_MISSES: &str = "deadline_misses";
    /// Priced energy, µJ summed per model (counter; divide by
    /// [`REQUESTS`] over the same window for µJ per inference).
    pub const ENERGY_UJ: &str = "energy_uj";
    /// Formed batches (counter, extra label `flush_reason`).
    pub const FLUSHES: &str = "flushes";
    /// HTTP requests per gateway route (counter, labels `route`).
    pub const HTTP_REQUESTS: &str = "http_requests";
    /// HTTP handling latency per route, µs (histogram, labels `route`).
    pub const HTTP_E2E_US: &str = "http_e2e_us";
}

struct Family<T> {
    series: BTreeMap<String, (Labels, Arc<T>)>,
}

impl<T> Family<T> {
    fn new() -> Self {
        Self {
            series: BTreeMap::new(),
        }
    }

    fn get_or_insert(&mut self, labels: &Labels, make: impl Fn() -> T) -> Arc<T> {
        let key = labels.key();
        if let Some((_, s)) = self.series.get(&key) {
            return Arc::clone(s);
        }
        let (key, labels) = if self.series.len() >= MAX_SERIES_PER_FAMILY {
            let ov = overflow_labels();
            (ov.key(), ov)
        } else {
            (key, labels.clone())
        };
        Arc::clone(
            &self
                .series
                .entry(key)
                .or_insert_with(|| (labels, Arc::new(make())))
                .1,
        )
    }

    /// Lists `cell` under `labels`, replacing a cell already listed
    /// there; past the cap a new label set is not listed at all.
    fn publish(&mut self, labels: &Labels, cell: Arc<T>) {
        let key = labels.key();
        if self.series.len() < MAX_SERIES_PER_FAMILY || self.series.contains_key(&key) {
            self.series.insert(key, (labels.clone(), cell));
        }
    }
}

/// The family named `name` in `map`, created empty on first use.
fn family_mut<'a, T>(map: &'a mut BTreeMap<String, Family<T>>, name: &str) -> &'a mut Family<T> {
    map.entry(name.to_string()).or_insert_with(Family::new)
}

/// Registry of labeled cells, grouped into named families.
///
/// One hub serves the whole process: the streaming server, registry and
/// gateway publish their cells into it, and `/v1/stats` snapshots it.
pub struct TelemetryHub {
    counters: Mutex<BTreeMap<String, Family<WindowCounter>>>,
    histograms: Mutex<BTreeMap<String, Family<WindowHistogram>>>,
}

impl TelemetryHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process clock ([`now_s`]) — the `now_s` to pass to cell
    /// mutations and window queries.
    pub fn now_s(&self) -> u64 {
        now_s()
    }

    /// The counter series for `labels` in `family`, created on first
    /// lookup. Past [`MAX_SERIES_PER_FAMILY`] distinct label sets the
    /// family's reserved overflow series is returned instead. Cache the
    /// handle on hot paths.
    pub fn counter(&self, family: &str, labels: &Labels) -> Arc<WindowCounter> {
        family_mut(&mut lock_recover(&self.counters), family)
            .get_or_insert(labels, WindowCounter::new)
    }

    /// The histogram series for `labels` in `family` (same caching and
    /// overflow behavior as [`counter`](Self::counter)).
    pub fn histogram(&self, family: &str, labels: &Labels) -> Arc<WindowHistogram> {
        family_mut(&mut lock_recover(&self.histograms), family)
            .get_or_insert(labels, WindowHistogram::new)
    }

    /// Lists a recorder's own counter `cell` under `labels` in `family`,
    /// replacing any cell listed there before (a republished series
    /// restarts from the new cell's values: a counter reset). Past
    /// [`MAX_SERIES_PER_FAMILY`] label sets a new one is not listed, and
    /// the cell stays its recorder's alone — never merged into the
    /// overflow series.
    pub fn publish_counter(&self, family: &str, labels: &Labels, cell: Arc<WindowCounter>) {
        family_mut(&mut lock_recover(&self.counters), family).publish(labels, cell);
    }

    /// Lists a recorder's own histogram `cell` (same rules as
    /// [`publish_counter`](Self::publish_counter)).
    pub fn publish_histogram(&self, family: &str, labels: &Labels, cell: Arc<WindowHistogram>) {
        family_mut(&mut lock_recover(&self.histograms), family).publish(labels, cell);
    }

    /// Snapshots every series at `now_s`: per-window sums/rates for
    /// counters, per-window counts and p50/p95/p99 for histograms.
    /// Families and series come out sorted by name and label key, so
    /// the output is deterministic.
    pub fn snapshot(&self, now_s: u64) -> HubSnapshot {
        HubSnapshot {
            now_s,
            counters: snapshot_families(&lock_recover(&self.counters), |c| c.snapshot(now_s)),
            histograms: snapshot_families(&lock_recover(&self.histograms), |h| h.snapshot(now_s)),
        }
    }
}

fn snapshot_families<T, S>(
    families: &BTreeMap<String, Family<T>>,
    snapshot: impl Fn(&T) -> S,
) -> Vec<FamilySnapshot<S>> {
    families
        .iter()
        .map(|(name, fam)| FamilySnapshot {
            name: name.clone(),
            series: fam
                .series
                .values()
                .map(|(labels, cell)| SeriesSnapshot {
                    labels: labels.clone(),
                    value: snapshot(cell),
                })
                .collect(),
        })
        .collect()
}

impl Default for TelemetryHub {
    fn default() -> Self {
        Self::new()
    }
}

/// One counter window in a [`CounterSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSum {
    /// Window width, seconds.
    pub window_s: u64,
    /// Sum over the window.
    pub sum: f64,
    /// `sum / window_s` — per-second rate.
    pub rate_per_s: f64,
}

/// Snapshot of one [`WindowCounter`].
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Cumulative total since series creation.
    pub total: f64,
    /// One entry per window in [`WINDOWS_S`].
    pub windows: Vec<WindowSum>,
}

/// One histogram window in a [`HistogramWindows`].
#[derive(Debug, Clone, PartialEq)]
pub struct WindowQuantiles {
    /// Window width, seconds.
    pub window_s: u64,
    /// Observations within the window.
    pub count: u64,
    /// Median, µs (bin upper edge; 0 when empty).
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
}

/// Snapshot of one [`WindowHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramWindows {
    /// Total observations since series creation (not windowed).
    pub count: u64,
    /// Sum of all observations, µs (not windowed).
    pub sum_us: f64,
    /// One entry per window in [`WINDOWS_S`].
    pub windows: Vec<WindowQuantiles>,
}

/// One series within a [`FamilySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot<T> {
    /// The series' label set.
    pub labels: Labels,
    /// The windowed values.
    pub value: T,
}

/// All series of one family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot<T> {
    /// Family name (see [`families`]).
    pub name: String,
    /// Series sorted by label key.
    pub series: Vec<SeriesSnapshot<T>>,
}

/// Full hub snapshot at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct HubSnapshot {
    /// The `now_s` the snapshot was taken at.
    pub now_s: u64,
    /// Counter families sorted by name.
    pub counters: Vec<FamilySnapshot<CounterSnapshot>>,
    /// Histogram families sorted by name.
    pub histograms: Vec<FamilySnapshot<HistogramWindows>>,
}

impl HubSnapshot {
    /// Finds a counter series by family name and labels.
    pub fn counter(&self, family: &str, labels: &Labels) -> Option<&CounterSnapshot> {
        find_series(&self.counters, family, labels)
    }

    /// Finds a histogram series by family name and labels.
    pub fn histogram(&self, family: &str, labels: &Labels) -> Option<&HistogramWindows> {
        find_series(&self.histograms, family, labels)
    }
}

fn find_series<'a, T>(
    families: &'a [FamilySnapshot<T>],
    family: &str,
    labels: &Labels,
) -> Option<&'a T> {
    let family = families.iter().find(|f| f.name == family)?;
    family
        .series
        .iter()
        .find(|s| &s.labels == labels)
        .map(|s| &s.value)
}

// ---------------------------------------------------------------------------
// SLO
// ---------------------------------------------------------------------------

/// Multi-window SLO burn rates.
///
/// An SLO objective is the tolerated bad-event ratio (deadline misses
/// at 1 %, sheds at 5 %). The **burn rate** is `observed ratio /
/// objective`: burn 1.0 exhausts exactly the error budget, burn 10
/// exhausts it ten times as fast. Following the multi-window pattern,
/// the state combines a fast window (1 m, catches sudden regressions)
/// and a slow window (5 m, filters blips):
///
/// - both windows ≥ 1.0 → `burning` (sustained budget burn — page),
/// - either window ≥ 1.0 → `warn` (starting or recovering),
/// - neither → `ok`.
pub mod slo {
    /// Tolerated deadline-miss ratio (1 %).
    pub const MISS_OBJECTIVE: f64 = 0.01;
    /// Tolerated shed ratio (5 %).
    pub const SHED_OBJECTIVE: f64 = 0.05;
    /// Fast burn window, seconds (1 m).
    pub const FAST_WINDOW_S: u64 = 60;
    /// Slow burn window, seconds (5 m).
    pub const SLOW_WINDOW_S: u64 = 300;

    /// `bad / total` guarded against an empty window.
    pub fn ratio(bad: f64, total: f64) -> f64 {
        if total > 0.0 {
            (bad / total).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Burn rate: observed bad-event ratio over the tolerated ratio.
    pub fn burn_rate(observed_ratio: f64, objective: f64) -> f64 {
        if objective > 0.0 {
            observed_ratio / objective
        } else {
            0.0
        }
    }

    /// Reduces fast- and slow-window burn rates to a state string:
    /// `"burning"` (both ≥ 1), `"warn"` (either ≥ 1), `"ok"`.
    pub fn state(fast_burn: f64, slow_burn: f64) -> &'static str {
        match (fast_burn >= 1.0, slow_burn >= 1.0) {
            (true, true) => "burning",
            (false, false) => "ok",
            _ => "warn",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_window_sums_and_total() {
        let c = WindowCounter::new();
        c.add(0, 1.0);
        c.add(5, 2.0);
        c.add(9, 4.0);
        assert_eq!(c.total(), 7.0);
        // At t=9 the 10s window [0,9] holds everything.
        assert_eq!(c.window_sum(9, 10), 7.0);
        // At t=12 the 10s window [3,12] drops the t=0 add.
        assert_eq!(c.window_sum(12, 10), 6.0);
        // The 5m window still holds everything.
        assert_eq!(c.window_sum(12, 300), 7.0);
        // Far in the future every window is empty but the total stays.
        assert_eq!(c.window_sum(10_000, 300), 0.0);
        assert_eq!(c.total(), 7.0);
    }

    #[test]
    fn counter_ring_reuses_slots_after_wrap() {
        let c = WindowCounter::new();
        c.add(3, 10.0);
        // 300 slots later the same physical slot is reused; the stale
        // stamp must be discarded, not summed.
        c.add(303, 5.0);
        assert_eq!(c.window_sum(303, 10), 5.0);
        assert_eq!(c.window_sum(303, 300), 5.0, "t=3 rotated out");
        assert_eq!(c.total(), 15.0);
    }

    #[test]
    fn counter_rate_divides_by_window() {
        let c = WindowCounter::new();
        for t in 0..10 {
            c.add(t, 3.0);
        }
        assert!((c.snapshot(9).windows[0].rate_per_s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hist_bins_are_monotone_and_bounded() {
        let mut prev = 0;
        for us in 0..100_000u64 {
            let b = hist_bin(us);
            assert!(b >= prev, "bin index must be monotone in value");
            assert!(b < HIST_BINS);
            prev = b;
            if us >= 1 {
                let upper = hist_bin_upper_us(b);
                assert!(upper >= us as f64, "{us} above its bin edge {upper}");
                assert!(
                    upper <= us as f64 * 1.25 + 1.0,
                    "{us} bin edge {upper} too loose"
                );
            }
        }
        assert_eq!(hist_bin(u64::MAX), HIST_BINS - 1);
    }

    /// The `le` bucket an observation of `us` whole µs lands in: the
    /// smallest k with us ≤ 2^k (k = 0 for us ≤ 1), `None` (only `+Inf`)
    /// past 2^25 µs — the power-of-two histogram's rule, computed
    /// independently of `hist_bin`.
    fn oracle_le(us: u64) -> Option<usize> {
        (0..HIST_OCTAVES).find(|&k| us <= 1u64 << k)
    }

    fn check_bin_against_oracle(us: u64) {
        let bin = hist_bin(us);
        let le = (bin != OVERFLOW_BIN).then_some(bin / HIST_SUBS);
        assert_eq!(le, oracle_le(us), "{us} µs in the wrong le bucket");
        if bin != OVERFLOW_BIN {
            let upper = hist_bin_upper_us(bin);
            assert!(
                (us as f64..=us as f64 * 1.25 + 1.0).contains(&upper),
                "{us} µs has bin edge {upper}"
            );
        }
    }

    #[test]
    fn bins_match_the_power_of_two_le_rule_and_stay_tight() {
        for us in 0..=1u64 << 21 {
            check_bin_against_oracle(us);
        }
        // Seeded xorshift over 0 .. 2^30 µs, past the finite range.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            check_bin_against_oracle(x >> 34);
        }
        for k in 0..32 {
            check_bin_against_oracle(1 << k);
            check_bin_against_oracle((1 << k) + 1);
        }
    }

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Cumulative quantiles bracket the exact nearest-rank value
        /// within one bin, `q = 1` is the exact maximum, counts and means
        /// are exact, and merging two histograms equals recording both
        /// streams into one.
        #[test]
        fn cumulative_quantiles_bracket_exact_and_merge_is_exact(
            samples in proptest::collection::vec(0u64..=1 << 25, 1..200),
            split in 0usize..200,
        ) {
            let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
            for (i, &us) in samples.iter().enumerate() {
                let d = Duration::from_micros(us);
                all.record(d);
                if i < split { a.record(d) } else { b.record(d) }
            }
            a.merge(&b);
            prop_assert_eq!(&a, &all);

            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.50, 0.99] {
                let exact = exact_quantile(&sorted, q);
                let got = all.quantile_us(q);
                prop_assert!(got >= exact, "q{q}: {got} below exact {exact}");
                prop_assert!(got <= exact * 1.25 + 1.0, "q{q}: {got} beyond one bin of {exact}");
            }
            prop_assert_eq!(all.quantile_us(1.0), sorted[sorted.len() - 1] as f64);
            prop_assert_eq!(all.count(), samples.len() as u64);
            let sum: u64 = samples.iter().sum();
            prop_assert_eq!(all.sum_us(), sum as f64);
            prop_assert_eq!(all.mean_us(), sum as f64 / samples.len() as f64);
        }
    }

    #[test]
    fn cumulative_max_is_exact_below_a_microsecond() {
        let mut h = Histogram::new();
        h.record(Duration::from_nanos(5_000_700));
        h.record(Duration::from_micros(1_024));
        assert_eq!(h.quantile_us(1.0), 5_000.7);
        assert_eq!(h.quantile_us(0.5), 1_024.0, "a power of two is a bin edge");
        assert_eq!(Histogram::new().quantile_us(0.99), 0.0);
        assert_eq!(Histogram::new().mean_us(), 0.0);
    }

    #[test]
    fn hist_window_quantiles_track_known_data() {
        let h = WindowHistogram::new();
        for us in 1..=100u64 {
            h.record_us(0, us * 1000);
        }
        let p50 = h.window_quantile_us(0, 10, 0.50);
        let p99 = h.window_quantile_us(0, 10, 0.99);
        assert!((50_000.0..=62_500.0).contains(&p50), "p50 {p50}");
        assert!((99_000.0..=123_750.0).contains(&p99), "p99 {p99}");
        assert_eq!(h.window_count(0, 10), 100);
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn hist_window_rotation_drops_old_slots() {
        let h = WindowHistogram::new();
        h.record_us(0, 1_000); // slot idx 0
        h.record_us(30, 1_000_000); // slot idx 6
                                    // 10s window at t=30 covers slot indices 5..=6 only.
        assert_eq!(h.window_count(30, 10), 1);
        let p50 = h.window_quantile_us(30, 10, 0.50);
        assert!(p50 >= 1_000_000.0, "only the slow sample remains: {p50}");
        // The 60s window still sees both.
        assert_eq!(h.window_count(30, 60), 2);
        // Empty window far in the future.
        assert_eq!(h.window_count(10_000, 300), 0);
        assert_eq!(h.window_quantile_us(10_000, 300, 0.99), 0.0);
    }

    #[test]
    fn hist_ring_reuses_slots_after_wrap() {
        let h = WindowHistogram::new();
        h.record_us(0, 100);
        // 60 slots × 5s later the same physical slot recurs.
        h.record_us(300, 200);
        assert_eq!(h.window_count(300, 300), 1, "t=0 rotated out");
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn labels_sort_dedup_and_render() {
        let l = Labels::new()
            .with("route", "/v1/infer")
            .with("model", "a")
            .with("model", "b");
        assert_eq!(l.key(), "model=b,route=/v1/infer");
        assert_eq!(l.get("model"), Some("b"));
        assert_eq!(l.get("absent"), None);
        assert_eq!(Labels::new().key(), "");
    }

    /// A monotone stream of `(t, v)` records: times climb from a random
    /// start by at most `max_step` seconds a record. Half the streams
    /// step by 0 or 1 s, so every second of a long stream holds a record
    /// and both mark rings run full and wrap.
    fn monotone_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
        (
            0u64..10_000,
            0u64..80,
            proptest::collection::vec((0u64..1_000, 1u64..5_000), 1..1_000),
        )
            .prop_map(|(start, coin, steps)| {
                let max_step = coin.saturating_sub(38).max(1);
                let mut t = start;
                steps
                    .into_iter()
                    .map(|(dt, v)| {
                        t += dt % (max_step + 1);
                        (t, v)
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Windows are differences of one cumulative cell: exact against
        /// the records they cover, never above the cumulative value, all
        /// of it once the 300 s window covers every record, and 0 when no
        /// record falls inside the window however many older ones exist.
        #[test]
        fn windows_are_the_cumulative_cell_minus_a_mark(
            stream in monotone_stream(),
            gap in 0u64..400,
        ) {
            let (c, h) = (WindowCounter::new(), WindowHistogram::new());
            for &(t, v) in &stream {
                c.add(t, v as f64);
                h.record_us(t, v);
            }
            let (first, last) = (stream[0].0, stream[stream.len() - 1].0);
            let now = last + gap;
            for w in WINDOWS_S {
                let counter_covers = |t: u64| t + w > now;
                let hist_covers = |t: u64| t / HIST_SLOT_S + w / HIST_SLOT_S > now / HIST_SLOT_S;
                let sum: u64 = stream
                    .iter()
                    .filter(|&&(t, _)| counter_covers(t))
                    .map(|&(_, v)| v)
                    .sum();
                let count = stream.iter().filter(|&&(t, _)| hist_covers(t)).count() as u64;
                prop_assert_eq!(c.window_sum(now, w), sum as f64, "{}s sum", w);
                prop_assert_eq!(h.window_count(now, w), count, "{}s count", w);
                prop_assert!(c.window_sum(now, w) <= c.total());
                prop_assert!(h.window_count(now, w) <= h.count());
                if !counter_covers(last) {
                    prop_assert_eq!(c.window_sum(now, w), 0.0);
                }
                if !hist_covers(last) {
                    prop_assert_eq!(h.window_count(now, w), 0);
                    prop_assert_eq!(h.window_quantile_us(now, w, 0.99), 0.0);
                }
            }
            if in_longest_window(first, now, COUNTER_SLOT_S) {
                prop_assert_eq!(c.window_sum(now, 300), c.total());
            }
            if in_longest_window(first, now, HIST_SLOT_S) {
                prop_assert_eq!(h.window_count(now, 300), h.count());
            }
        }
    }

    /// Whether a record at `t` lies in the 300 s window ending at `now`,
    /// on slots of `slot_s` seconds.
    fn in_longest_window(t: u64, now: u64, slot_s: u64) -> bool {
        t / slot_s + 300 / slot_s > now / slot_s
    }

    #[test]
    fn published_cells_replace_and_stop_at_the_cap() {
        let hub = TelemetryHub::new();
        let l = Labels::new().with("model", "m");
        let (old, new) = (
            Arc::new(WindowCounter::new()),
            Arc::new(WindowCounter::new()),
        );
        old.add(0, 5.0);
        hub.publish_counter("requests", &l, Arc::clone(&old));
        hub.publish_counter("requests", &l, Arc::clone(&new));
        new.add(0, 1.0);
        assert!(
            Arc::ptr_eq(&hub.counter("requests", &l), &new),
            "a republish replaces the listed cell"
        );
        for i in 0..MAX_SERIES_PER_FAMILY + 3 {
            let labels = Labels::new().with("model", format!("p{i}"));
            hub.publish_counter("requests", &labels, Arc::new(WindowCounter::new()));
        }
        let snap = hub.snapshot(0);
        assert_eq!(snap.counters[0].series.len(), MAX_SERIES_PER_FAMILY);
        assert!(
            snap.counter("requests", &overflow_labels()).is_none(),
            "a published cell past the cap is never merged into overflow"
        );
        assert_eq!(snap.counter("requests", &l).map(|c| c.total), Some(1.0));
    }

    #[test]
    fn hub_returns_same_series_for_same_labels() {
        let hub = TelemetryHub::new();
        let l = Labels::new().with("model", "m");
        let a = hub.counter("requests", &l);
        let b = hub.counter("requests", &l);
        assert!(Arc::ptr_eq(&a, &b));
        let other = hub.counter("requests", &Labels::new().with("model", "n"));
        assert!(!Arc::ptr_eq(&a, &other));
    }

    #[test]
    fn hub_caps_family_cardinality_with_overflow_series() {
        let hub = TelemetryHub::new();
        for i in 0..(MAX_SERIES_PER_FAMILY + 40) {
            let l = Labels::new().with("model", format!("m{i}"));
            hub.counter("requests", &l).add(0, 1.0);
        }
        let snap = hub.snapshot(0);
        let fam = &snap.counters[0];
        assert!(
            fam.series.len() <= MAX_SERIES_PER_FAMILY + 1,
            "cardinality must stay bounded, got {}",
            fam.series.len()
        );
        let ov = snap
            .counter("requests", &overflow_labels())
            .expect("overflow series exists");
        assert_eq!(ov.total, 40.0, "past-cap lookups collapse into overflow");
        // Past-cap lookups all alias the same physical series.
        let x = hub.counter("requests", &Labels::new().with("model", "mx"));
        let y = hub.counter("requests", &Labels::new().with("model", "my"));
        assert!(Arc::ptr_eq(&x, &y));
    }

    #[test]
    fn snapshot_reports_all_windows() {
        let hub = TelemetryHub::new();
        let l = Labels::new().with("model", "m");
        hub.counter(families::REQUESTS, &l).add(2, 5.0);
        hub.histogram(families::E2E_US, &l).record_us(2, 900);
        let snap = hub.snapshot(2);
        let c = snap.counter(families::REQUESTS, &l).unwrap();
        assert_eq!(c.total, 5.0);
        assert_eq!(c.windows.len(), WINDOWS_S.len());
        assert_eq!(c.windows[0].window_s, 10);
        assert_eq!(c.windows[0].sum, 5.0);
        let h = snap.histogram(families::E2E_US, &l).unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.windows[2].count, 1);
        assert!(h.windows[2].p99_us >= 900.0);
    }

    #[test]
    fn slo_burn_and_state() {
        use super::slo;
        assert_eq!(slo::ratio(0.0, 0.0), 0.0);
        assert_eq!(slo::ratio(5.0, 100.0), 0.05);
        assert!((slo::burn_rate(0.05, slo::MISS_OBJECTIVE) - 5.0).abs() < 1e-12);
        assert_eq!(slo::state(0.2, 0.1), "ok");
        assert_eq!(slo::state(5.0, 0.1), "warn", "fast burn alone warns");
        assert_eq!(slo::state(0.1, 5.0), "warn", "slow burn alone warns");
        assert_eq!(slo::state(2.0, 1.5), "burning");
    }
}
