//! Latency histograms and windowed time-series metrics for the serving
//! stack.
//!
//! [`Histogram`] answers "what happened since boot"; the windowed series
//! answer "what is happening *now*". Each windowed series is a ring of
//! fixed-width time slots — memory stays bounded no matter how long the
//! process runs — and queries merge the slots covering the last
//! 10 s / 1 m / 5 m into sliding-window rates and quantiles:
//!
//! - [`WindowCounter`] — 1-second slots, 300-slot ring (5 minutes of
//!   history). Accumulates `f64` so the same type serves request counts
//!   and energy-µJ sums; exposes a cumulative total plus per-window sums
//!   and rates.
//! - [`WindowGauge`] — last-written value (resident bytes, queue depth).
//! - [`WindowHistogram`] — 5-second slots, 60-slot ring of log-linear
//!   bins; window quantiles are nearest-rank over the merged bins and
//!   return the bin's upper edge.
//!
//! Both histograms share one bin layout: base-2 octaves split into 4
//! linear sub-bins, upper-inclusive, so every bin is at most 25 % wide
//! and a quantile overestimates the exact nearest-rank value by at most
//! 25 % + 1 µs, never underestimates it.
//!
//! Series are grouped into named families inside a [`TelemetryHub`] and
//! addressed by [`Labels`] (`model`, `route`, `flush_reason`, …). Every
//! family is cardinality-capped: past [`MAX_SERIES_PER_FAMILY`] distinct
//! label sets, further lookups collapse into one reserved overflow
//! series instead of growing without bound. Lookups hold the hub lock
//! briefly; recording holds only the per-series lock, and hot paths are
//! expected to cache the `Arc` handles a lookup returns.
//!
//! Timestamps are explicit: every mutation and query takes `now_s`,
//! seconds since the hub's epoch ([`TelemetryHub::now_s`] supplies it in
//! production, tests pass synthetic values for deterministic rotation
//! coverage). The [`slo`] module layers multi-window burn rates on top:
//! a fast (1 m) and slow (5 m) error-budget burn per model, reduced to
//! an `ok` / `warn` / `burning` state.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The sliding windows every snapshot reports, in seconds: 10 s, 1 m, 5 m.
pub const WINDOWS_S: [u64; 3] = [10, 60, 300];

/// Counter/gauge slot width, seconds.
const COUNTER_SLOT_S: u64 = 1;
/// Counter ring length: 300 × 1 s = the longest window.
const COUNTER_SLOTS: usize = 300;
/// Histogram slot width, seconds. Coarser than counters because each
/// slot carries a full bin array; 5 divides every window in
/// [`WINDOWS_S`] so window edges align with slot edges.
const HIST_SLOT_S: u64 = 5;
/// Histogram ring length: 60 × 5 s = the longest window.
const HIST_SLOTS: usize = 60;

/// Distinct label sets a family holds before further lookups collapse
/// into the reserved overflow series (see [`overflow_labels`]).
pub const MAX_SERIES_PER_FAMILY: usize = 64;

/// Stamp value meaning "slot never written".
const STAMP_EMPTY: u64 = u64::MAX;

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// WindowCounter
// ---------------------------------------------------------------------------

struct CounterState {
    /// Per-slot accumulated value.
    slots: [f64; COUNTER_SLOTS],
    /// Absolute slot index (`now_s / slot width`) each slot was last
    /// written at; a mismatch on touch means the ring wrapped and the
    /// slot holds stale data to be discarded lazily.
    stamps: [u64; COUNTER_SLOTS],
    total: f64,
}

/// Monotone accumulating series over a ring of 1-second slots.
///
/// Accumulates `f64`, so it serves both event counts (`add(now, 1.0)`)
/// and measured sums such as energy in µJ. The cumulative
/// [`total`](Self::total) is exact forever; [`window_sum`](Self::window_sum)
/// and [`rate_per_s`](Self::rate_per_s) cover at most the last
/// 300 seconds.
pub struct WindowCounter {
    inner: Mutex<CounterState>,
}

impl WindowCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(CounterState {
                slots: [0.0; COUNTER_SLOTS],
                stamps: [STAMP_EMPTY; COUNTER_SLOTS],
                total: 0.0,
            }),
        }
    }

    /// Adds `v` at `now_s` seconds since the hub epoch.
    pub fn add(&self, now_s: u64, v: f64) {
        let idx = now_s / COUNTER_SLOT_S;
        let slot = (idx % COUNTER_SLOTS as u64) as usize;
        let mut st = lock_recover(&self.inner);
        if st.stamps[slot] != idx {
            st.slots[slot] = 0.0;
            st.stamps[slot] = idx;
        }
        st.slots[slot] += v;
        st.total += v;
    }

    /// Cumulative sum of everything ever added.
    pub fn total(&self) -> f64 {
        lock_recover(&self.inner).total
    }

    /// Sum over the last `window_s` seconds ending at `now_s`
    /// (inclusive of the current, still-filling slot). Windows longer
    /// than the ring are clamped to the ring span.
    pub fn window_sum(&self, now_s: u64, window_s: u64) -> f64 {
        let now_idx = now_s / COUNTER_SLOT_S;
        let span = (window_s / COUNTER_SLOT_S).clamp(1, COUNTER_SLOTS as u64);
        let st = lock_recover(&self.inner);
        let mut sum = 0.0;
        for back in 0..span {
            let Some(idx) = now_idx.checked_sub(back) else {
                break;
            };
            let slot = (idx % COUNTER_SLOTS as u64) as usize;
            if st.stamps[slot] == idx {
                sum += st.slots[slot];
            }
        }
        sum
    }

    /// [`window_sum`](Self::window_sum) divided by the window width —
    /// events (or units) per second.
    pub fn rate_per_s(&self, now_s: u64, window_s: u64) -> f64 {
        let span = (window_s / COUNTER_SLOT_S).clamp(1, COUNTER_SLOTS as u64) as f64;
        self.window_sum(now_s, window_s) / (span * COUNTER_SLOT_S as f64)
    }
}

impl Default for WindowCounter {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// WindowGauge
// ---------------------------------------------------------------------------

/// Last-value series (queue depth, resident bytes, ring occupancy).
pub struct WindowGauge {
    value: Mutex<f64>,
}

impl WindowGauge {
    /// Creates a gauge holding 0.
    pub fn new() -> Self {
        Self {
            value: Mutex::new(0.0),
        }
    }

    /// Overwrites the gauge value.
    pub fn set(&self, v: f64) {
        *lock_recover(&self.value) = v;
    }

    /// Reads the last-set value (0 if never set).
    pub fn get(&self) -> f64 {
        *lock_recover(&self.value)
    }
}

impl Default for WindowGauge {
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

/// Cumulative latency histogram: the log-linear bins of
/// [`WindowHistogram`] with no time slots, plus an exact count, an
/// exact sum and an exact maximum. About 1 KiB whatever the traffic.
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

struct HistSlot {
    stamp: u64,
    bins: [u32; HIST_BINS],
}

struct HistState {
    slots: Vec<HistSlot>,
    count: u64,
    sum_us: f64,
}

/// Latency histogram over a ring of 5-second slots with the log-linear
/// bins of [`Histogram`] (4 linear sub-bins per base-2 octave, up to
/// 2^25 µs).
///
/// Window quantiles are nearest-rank over the merged window bins and
/// return the containing bin's **upper edge**, so they overestimate the
/// exact sample quantile by at most one bin width — ≤ 25 % + 1 µs.
pub struct WindowHistogram {
    inner: Mutex<HistState>,
}

impl WindowHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(HistState {
                slots: (0..HIST_SLOTS)
                    .map(|_| HistSlot {
                        stamp: STAMP_EMPTY,
                        bins: [0; HIST_BINS],
                    })
                    .collect(),
                count: 0,
                sum_us: 0.0,
            }),
        }
    }

    /// Records one observation of `us` microseconds at `now_s`.
    pub fn record_us(&self, now_s: u64, us: u64) {
        let idx = now_s / HIST_SLOT_S;
        let slot = (idx % HIST_SLOTS as u64) as usize;
        let mut st = lock_recover(&self.inner);
        let s = &mut st.slots[slot];
        if s.stamp != idx {
            s.bins = [0; HIST_BINS];
            s.stamp = idx;
        }
        s.bins[hist_bin(us)] += 1;
        st.count += 1;
        st.sum_us += us as f64;
    }

    /// Total observations ever recorded (exact, not windowed).
    pub fn count(&self) -> u64 {
        lock_recover(&self.inner).count
    }

    /// Sum of all observations ever recorded, µs (exact, not windowed).
    pub fn sum_us(&self) -> f64 {
        lock_recover(&self.inner).sum_us
    }

    /// Merged bins over the last `window_s` seconds ending at `now_s`.
    fn window_bins(&self, now_s: u64, window_s: u64) -> ([u64; HIST_BINS], u64) {
        let now_idx = now_s / HIST_SLOT_S;
        let span = (window_s.div_ceil(HIST_SLOT_S)).clamp(1, HIST_SLOTS as u64);
        let st = lock_recover(&self.inner);
        let mut merged = [0u64; HIST_BINS];
        let mut count = 0u64;
        for back in 0..span {
            let Some(idx) = now_idx.checked_sub(back) else {
                break;
            };
            let slot = &st.slots[(idx % HIST_SLOTS as u64) as usize];
            if slot.stamp == idx {
                for (m, &b) in merged.iter_mut().zip(slot.bins.iter()) {
                    *m += b as u64;
                    count += b as u64;
                }
            }
        }
        (merged, count)
    }

    /// Observations within the last `window_s` seconds ending at `now_s`.
    pub fn window_count(&self, now_s: u64, window_s: u64) -> u64 {
        self.window_bins(now_s, window_s).1
    }

    /// Nearest-rank `q`-quantile (0 ≤ q ≤ 1) over the last `window_s`
    /// seconds, µs; 0 when the window is empty. Returns the upper edge
    /// of the bin holding the rank — see the type docs for the
    /// tolerance this implies.
    pub fn window_quantile_us(&self, now_s: u64, window_s: u64, q: f64) -> f64 {
        let (bins, count) = self.window_bins(now_s, window_s);
        rank_bin(&bins, count, q).map_or(0.0, hist_bin_upper_us)
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

    /// The sorted pairs.
    pub fn pairs(&self) -> &[(&'static str, String)] {
        &self.pairs
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
}

/// Registry of labeled windowed series, grouped into named families.
///
/// One hub serves the whole process: the streaming server, registry and
/// gateway all record into it, and `/v1/stats` snapshots it. The hub
/// owns the epoch every `now_s` timestamp is relative to.
pub struct TelemetryHub {
    epoch: Instant,
    counters: Mutex<BTreeMap<String, Family<WindowCounter>>>,
    gauges: Mutex<BTreeMap<String, Family<WindowGauge>>>,
    histograms: Mutex<BTreeMap<String, Family<WindowHistogram>>>,
}

impl TelemetryHub {
    /// Creates an empty hub; the epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Seconds since the hub epoch — the `now_s` to pass to series
    /// mutations and window queries.
    pub fn now_s(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// The counter series for `labels` in `family`, created on first
    /// lookup. Past [`MAX_SERIES_PER_FAMILY`] distinct label sets the
    /// family's reserved overflow series is returned instead. Cache the
    /// handle on hot paths.
    pub fn counter(&self, family: &str, labels: &Labels) -> Arc<WindowCounter> {
        lock_recover(&self.counters)
            .entry(family.to_string())
            .or_insert_with(Family::new)
            .get_or_insert(labels, WindowCounter::new)
    }

    /// The gauge series for `labels` in `family` (same caching and
    /// overflow behavior as [`counter`](Self::counter)).
    pub fn gauge(&self, family: &str, labels: &Labels) -> Arc<WindowGauge> {
        lock_recover(&self.gauges)
            .entry(family.to_string())
            .or_insert_with(Family::new)
            .get_or_insert(labels, WindowGauge::new)
    }

    /// The histogram series for `labels` in `family` (same caching and
    /// overflow behavior as [`counter`](Self::counter)).
    pub fn histogram(&self, family: &str, labels: &Labels) -> Arc<WindowHistogram> {
        lock_recover(&self.histograms)
            .entry(family.to_string())
            .or_insert_with(Family::new)
            .get_or_insert(labels, WindowHistogram::new)
    }

    /// Snapshots every series at `now_s`: per-window sums/rates for
    /// counters, values for gauges, per-window counts and p50/p95/p99
    /// for histograms. Families and series come out sorted by name and
    /// label key, so the output is deterministic.
    pub fn snapshot(&self, now_s: u64) -> HubSnapshot {
        let counters = lock_recover(&self.counters)
            .iter()
            .map(|(name, fam)| FamilySnapshot {
                name: name.clone(),
                series: fam
                    .series
                    .values()
                    .map(|(labels, c)| SeriesSnapshot {
                        labels: labels.clone(),
                        value: CounterSnapshot {
                            total: c.total(),
                            windows: WINDOWS_S
                                .iter()
                                .map(|&w| WindowSum {
                                    window_s: w,
                                    sum: c.window_sum(now_s, w),
                                    rate_per_s: c.rate_per_s(now_s, w),
                                })
                                .collect(),
                        },
                    })
                    .collect(),
            })
            .collect();
        let gauges = lock_recover(&self.gauges)
            .iter()
            .map(|(name, fam)| FamilySnapshot {
                name: name.clone(),
                series: fam
                    .series
                    .values()
                    .map(|(labels, g)| SeriesSnapshot {
                        labels: labels.clone(),
                        value: GaugeSnapshot { value: g.get() },
                    })
                    .collect(),
            })
            .collect();
        let histograms = lock_recover(&self.histograms)
            .iter()
            .map(|(name, fam)| FamilySnapshot {
                name: name.clone(),
                series: fam
                    .series
                    .values()
                    .map(|(labels, h)| SeriesSnapshot {
                        labels: labels.clone(),
                        value: HistogramWindows {
                            count: h.count(),
                            sum_us: h.sum_us(),
                            windows: WINDOWS_S
                                .iter()
                                .map(|&w| WindowQuantiles {
                                    window_s: w,
                                    count: h.window_count(now_s, w),
                                    p50_us: h.window_quantile_us(now_s, w, 0.50),
                                    p95_us: h.window_quantile_us(now_s, w, 0.95),
                                    p99_us: h.window_quantile_us(now_s, w, 0.99),
                                })
                                .collect(),
                        },
                    })
                    .collect(),
            })
            .collect();
        HubSnapshot {
            now_s,
            counters,
            gauges,
            histograms,
        }
    }
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

/// Snapshot of one [`WindowGauge`].
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Last-set value.
    pub value: f64,
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
    /// Gauge families sorted by name.
    pub gauges: Vec<FamilySnapshot<GaugeSnapshot>>,
    /// Histogram families sorted by name.
    pub histograms: Vec<FamilySnapshot<HistogramWindows>>,
}

impl HubSnapshot {
    /// Finds a counter series by family name and labels.
    pub fn counter(&self, family: &str, labels: &Labels) -> Option<&CounterSnapshot> {
        self.counters
            .iter()
            .find(|f| f.name == family)?
            .series
            .iter()
            .find(|s| &s.labels == labels)
            .map(|s| &s.value)
    }

    /// Finds a histogram series by family name and labels.
    pub fn histogram(&self, family: &str, labels: &Labels) -> Option<&HistogramWindows> {
        self.histograms
            .iter()
            .find(|f| f.name == family)?
            .series
            .iter()
            .find(|s| &s.labels == labels)
            .map(|s| &s.value)
    }
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
        assert!((c.rate_per_s(9, 10) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn gauge_keeps_last_value() {
        let g = WindowGauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(42.5);
        g.set(7.0);
        assert_eq!(g.get(), 7.0);
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
        hub.gauge("depth", &Labels::new()).set(3.0);
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
        assert_eq!(snap.gauges[0].series[0].value.value, 3.0);
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
