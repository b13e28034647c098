//! Per-request latency accounting for the [`crate::StreamingServer`]:
//! [`StreamingMetrics`] splits queue-wait from execution time and
//! histograms the sizes of the batches its workers took from the backlog.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use snn_log::{IncidentRecorder, LogCollector, TraceId};
use snn_sim::RunStats;
use snn_telemetry::{families, Labels, TelemetryHub, WindowCounter, WindowHistogram};

use crate::batcher::FlushReason;
use crate::energy::EnergyPricer;

/// Reservoir capacity of a [`LatencyRecorder`]: counts, totals and means
/// stay exact forever, while quantile queries past this many samples are
/// computed over a uniform reservoir — a recorder feeding a long-running
/// metrics endpoint must stay bounded in memory and scrape-time sort cost.
const RESERVOIR_CAPACITY: usize = 65_536;

/// Collects per-request latencies and computes order statistics.
///
/// Samples are kept unsorted while recording; the first quantile query
/// after a record sorts **in place, once** — repeated queries reuse the
/// sorted order instead of cloning and re-sorting per call.
///
/// Memory is bounded: the first 65,536 samples are kept exactly; beyond
/// that, reservoir sampling (deterministic LCG, uniform over the whole
/// stream) keeps quantiles representative while
/// [`len`](Self::len), [`total_us`](Self::total_us) and
/// [`mean_us`](Self::mean_us) remain exact over every recorded sample.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples_us: Vec<f64>,
    sorted: bool,
    /// Total samples ever recorded (exact; ≥ `samples_us.len()`).
    count: u64,
    /// Exact running sum over every recorded sample, microseconds.
    total_us: f64,
    /// LCG state for reservoir replacement decisions.
    rng: u64,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn next_rng(&mut self) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.rng
    }

    /// Records one request latency.
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_secs_f64() * 1e6;
        self.count += 1;
        self.total_us += us;
        if self.samples_us.len() < RESERVOIR_CAPACITY {
            self.samples_us.push(us);
            self.sorted = false;
        } else {
            // Classic reservoir step: keep each of the `count` samples
            // with equal probability capacity/count.
            let slot = (self.next_rng() % self.count) as usize;
            if slot < RESERVOIR_CAPACITY {
                self.samples_us[slot] = us;
                self.sorted = false;
            }
        }
    }

    /// Number of recorded requests (exact, even past the reservoir
    /// capacity).
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total recorded time in microseconds (exact running sum).
    pub fn total_us(&self) -> f64 {
        self.total_us
    }

    /// Absorbs every sample of `other` (e.g. merging per-thread recorders
    /// into one summary). Counts and totals merge exactly; if the merged
    /// samples exceed the reservoir capacity, the surplus re-enters
    /// through the reservoir.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.count += other.count;
        self.total_us += other.total_us;
        for &us in &other.samples_us {
            if self.samples_us.len() < RESERVOIR_CAPACITY {
                self.samples_us.push(us);
                self.sorted = false;
            } else {
                let slot = (self.next_rng() % self.count.max(1)) as usize;
                if slot < RESERVOIR_CAPACITY {
                    self.samples_us[slot] = us;
                    self.sorted = false;
                }
            }
        }
    }

    fn sorted_samples(&mut self) -> &[f64] {
        if !self.sorted {
            self.samples_us.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        &self.samples_us
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in microseconds, by nearest-rank on the
    /// sorted (reservoir) samples; 0 when empty.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.samples_us.is_empty() {
            return 0.0;
        }
        quantile_from_sorted(self.sorted_samples(), q)
    }

    /// Mean latency in microseconds; 0 when empty. Exact over every
    /// recorded sample.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_us / self.count as f64
    }
}

/// Finite buckets of a [`LogHistogram`]: upper bounds 2^0 .. 2^25 µs
/// (1 µs to ~33.5 s); anything slower lands in the implicit `+Inf`
/// bucket. Power-of-2 bounds keep recording branch-free (a leading-zeros
/// count) and give Prometheus `le` bounds that are exact in binary.
const LOG_HISTOGRAM_BUCKETS: usize = 26;

/// Bounded-memory log-bucket latency histogram (the Prometheus-histogram
/// companion to [`LatencyRecorder`]'s quantiles): 26 power-of-2 µs
/// buckets plus overflow, with exact count and sum. Recording is O(1)
/// with no allocation, so it can sit on the streaming hot path.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// Per-bucket (non-cumulative) counts; index i covers
    /// `(2^(i-1), 2^i]` µs, index 0 covers `[0, 1]` µs, and the final
    /// slot is the `+Inf` overflow.
    counts: [u64; LOG_HISTOGRAM_BUCKETS + 1],
    count: u64,
    sum_us: f64,
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; LOG_HISTOGRAM_BUCKETS + 1],
            count: 0,
            sum_us: 0.0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_micros() as u64;
        // Smallest i with us <= 2^i, i.e. ceil(log2(us)).
        let idx = if us <= 1 {
            0
        } else {
            (u64::BITS - (us - 1).leading_zeros()) as usize
        };
        self.counts[idx.min(LOG_HISTOGRAM_BUCKETS)] += 1;
        self.count += 1;
        self.sum_us += latency.as_secs_f64() * 1e6;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, microseconds.
    pub fn sum_us(&self) -> f64 {
        self.sum_us
    }

    /// Serializable snapshot with **cumulative** bucket counts
    /// (Prometheus `le` semantics). Finite buckets are emitted up to the
    /// highest non-empty one; observations above it are only in the
    /// implicit `+Inf` bucket, whose cumulative count is
    /// [`count`](HistogramSnapshot::count).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let last_nonzero = self.counts[..LOG_HISTOGRAM_BUCKETS]
            .iter()
            .rposition(|&c| c != 0);
        let mut cumulative = 0;
        let buckets = match last_nonzero {
            None => Vec::new(),
            Some(last) => (0..=last)
                .map(|i| {
                    cumulative += self.counts[i];
                    HistogramBucket {
                        le_us: 1u64 << i,
                        count: cumulative,
                    }
                })
                .collect(),
        };
        HistogramSnapshot {
            buckets,
            count: self.count,
            sum_us: self.sum_us,
        }
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One cumulative bucket of a [`HistogramSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket, microseconds (a power of 2).
    pub le_us: u64,
    /// Observations at or below `le_us` (cumulative, Prometheus-style).
    pub count: u64,
}

/// Serializable log-bucket histogram snapshot (see
/// [`LogHistogram::snapshot`]); renders directly as a Prometheus
/// histogram: one `_bucket{le=...}` series per entry plus `+Inf`,
/// `_sum`, `_count`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Cumulative finite buckets, ascending by bound (may be empty).
    pub buckets: Vec<HistogramBucket>,
    /// Total observations (the `+Inf` cumulative count).
    pub count: u64,
    /// Sum of all observations, microseconds.
    pub sum_us: f64,
}

/// Nearest-rank quantile over an already-sorted slice; 0 when empty.
fn quantile_from_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One bucket of the batch-occupancy histogram: how many formed batches
/// flushed holding exactly `size` requests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OccupancyBucket {
    /// Images in the formed batch.
    pub size: u64,
    /// Batches that flushed at this size.
    pub batches: u64,
}

/// Serializable summary of a streaming-serving window: per-request
/// end-to-end latency percentiles, the queue-wait versus execution-time
/// split, and the occupancy distribution of the batches the workers took.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingMetrics {
    /// Streamed requests completed (one image each).
    pub requests: u64,
    /// Submissions rejected with [`SubmitError::QueueFull`]
    /// (backpressure sheds). Shed requests never enter the pending window,
    /// so they appear in no other counter or latency sample.
    ///
    /// [`SubmitError::QueueFull`]: crate::SubmitError::QueueFull
    pub shed_requests: u64,
    /// Submissions shed by priority brownout
    /// ([`SubmitError::Brownout`](crate::SubmitError::Brownout)): the
    /// server was above its high-water mark and the request's priority was
    /// below the shed threshold. Disjoint from
    /// [`shed_requests`](Self::shed_requests).
    pub brownout_shed_requests: u64,
    /// Batches the workers took from the pending window and executed.
    pub batches: u64,
    /// Wall-clock time from recorder creation to this summary, ms.
    pub wall_ms: f64,
    /// Completed requests per second of wall-clock time.
    pub images_per_sec: f64,
    /// Mean end-to-end (submit → result) latency, microseconds.
    pub e2e_mean_us: f64,
    /// Median end-to-end latency, microseconds.
    pub e2e_p50_us: f64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub e2e_p99_us: f64,
    /// Mean time a request waited before its batch started executing, µs.
    pub queue_wait_mean_us: f64,
    /// Median queue wait, microseconds.
    pub queue_wait_p50_us: f64,
    /// 99th-percentile queue wait, microseconds.
    pub queue_wait_p99_us: f64,
    /// Mean backend execution time of a formed batch, microseconds.
    pub exec_mean_us: f64,
    /// Median batch execution time, microseconds.
    pub exec_p50_us: f64,
    /// 99th-percentile batch execution time, microseconds.
    pub exec_p99_us: f64,
    /// Fraction of total end-to-end time spent queue-waiting (0..=1);
    /// high values mean batching delay, not inference, dominates latency.
    pub queue_wait_share: f64,
    /// Mean images per formed batch.
    pub mean_batch_occupancy: f64,
    /// Largest formed batch.
    pub max_batch_occupancy: u64,
    /// Distribution of formed-batch sizes, ascending by size.
    pub occupancy_histogram: Vec<OccupancyBucket>,
    /// Batches whose earliest deadline had already passed when a worker
    /// took them ([`FlushReason::EdfDeadline`]) — the latency-pressure
    /// signal: backlog is making requests late.
    pub flushes_edf_deadline: u64,
    /// Batches the backlog filled to `max_batch`
    /// ([`FlushReason::MaxBatch`]) — saturated, and amortising.
    pub flushes_max_batch: u64,
    /// Batches taken by shutdown drain ([`FlushReason::Drain`]).
    pub flushes_drain: u64,
    /// Batches a free worker took short of `max_batch` with no deadline
    /// passed ([`FlushReason::Idle`]) — spare capacity. With the three
    /// counters above this sums to [`batches`](Self::batches).
    pub flushes_idle: u64,
    /// [`Ticket::wait_timeout`](crate::Ticket::wait_timeout) expiries —
    /// callers that gave up waiting (the server-side view of gateway
    /// 504s). The request itself still executes and lands in the other
    /// counters when its batch completes.
    pub wait_timeouts: u64,
    /// Batches whose worker panicked mid-execution and were re-run
    /// request-by-request to isolate the blast radius — co-batched
    /// innocents get a second chance instead of inheriting the panic.
    pub batch_retries: u64,
    /// Requests quarantined after panicking *solo* on the isolation
    /// retry — the poison request itself, failed with a typed error.
    pub quarantined: u64,
    /// Requests whose formed batch began executing after their batching
    /// deadline had already expired — the cumulative companion of the
    /// per-model windowed deadline-miss SLO ratio.
    pub deadline_misses: u64,
    /// Log-bucket histogram of end-to-end (submit → result) latency.
    pub e2e_histogram: HistogramSnapshot,
    /// Log-bucket histogram of queue wait (submit → batch exec start).
    pub queue_wait_histogram: HistogramSnapshot,
    /// Log-bucket histogram of formed-batch backend execution time.
    pub exec_histogram: HistogramSnapshot,
}

/// Labeled windowed-telemetry fan-out for one [`StreamingRecorder`]:
/// an [`Arc<TelemetryHub>`] plus this server's label set (`model`,
/// `version`, `backend`) with the per-request series handles cached so
/// the hot path never touches the hub's family map. Optionally carries
/// an [`EnergyPricer`], in which case every executed batch is priced on
/// the `snn-hw` processor model and the per-model `energy_uj` series
/// fills in.
///
/// Attach one with
/// [`StreamingServer::attach_telemetry`](crate::StreamingServer::attach_telemetry);
/// recorders without a sink behave exactly as before (the cumulative
/// recorders are always fed — telemetry is additive, never a
/// replacement).
#[derive(Clone)]
pub struct TelemetrySink {
    hub: Arc<TelemetryHub>,
    labels: Labels,
    requests: Arc<WindowCounter>,
    deadline_misses: Arc<WindowCounter>,
    energy: Arc<WindowCounter>,
    e2e: Arc<WindowHistogram>,
    queue_wait: Arc<WindowHistogram>,
    exec: Arc<WindowHistogram>,
    wait_timeouts: Arc<WindowCounter>,
    pricer: Option<EnergyPricer>,
}

impl TelemetrySink {
    /// Builds a sink recording into `hub` under `labels`, pre-resolving
    /// the per-request series. `pricer` enables per-batch energy
    /// attribution (pass `None` for backends without fixed geometry).
    pub fn new(hub: Arc<TelemetryHub>, labels: Labels, pricer: Option<EnergyPricer>) -> Self {
        Self {
            requests: hub.counter(families::REQUESTS, &labels),
            deadline_misses: hub.counter(families::DEADLINE_MISSES, &labels),
            energy: hub.counter(families::ENERGY_UJ, &labels),
            e2e: hub.histogram(families::E2E_US, &labels),
            queue_wait: hub.histogram(families::QUEUE_WAIT_US, &labels),
            exec: hub.histogram(families::EXEC_US, &labels),
            wait_timeouts: hub.counter(families::WAIT_TIMEOUTS, &labels),
            hub,
            labels,
            pricer,
        }
    }

    /// The label value for a shed priority: `0`..`7` verbatim, anything
    /// higher collapses into `8+` so the `priority` label stays
    /// cardinality-bounded no matter what clients send.
    fn priority_label(priority: u8) -> String {
        if priority <= 7 {
            priority.to_string()
        } else {
            "8+".to_string()
        }
    }

    fn record_labeled(&self, family: &str, key: &'static str, value: String) {
        let labels = self.labels.clone().with(key, value);
        self.hub.counter(family, &labels).add(self.hub.now_s(), 1.0);
    }
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySink")
            .field("labels", &self.labels)
            .field("pricer", &self.pricer.is_some())
            .finish_non_exhaustive()
    }
}

/// Structured-logging fan-out for one serving component: the shared
/// flight-recorder [`LogCollector`] plus, optionally, the
/// [`IncidentRecorder`] the failure sites trigger post-mortem snapshots
/// on. Attach one with
/// [`StreamingServer::attach_logging`](crate::StreamingServer::attach_logging)
/// or [`ModelRegistry::attach_logging`](crate::ModelRegistry::attach_logging);
/// components without a sink behave exactly as before (logging is
/// additive, never a replacement).
#[derive(Debug, Clone)]
pub struct LogSink {
    log: Arc<LogCollector>,
    incidents: Option<Arc<IncidentRecorder>>,
}

impl LogSink {
    /// Builds a sink recording into `log`, triggering incident reports
    /// on `incidents` when present.
    pub fn new(log: Arc<LogCollector>, incidents: Option<Arc<IncidentRecorder>>) -> Self {
        Self { log, incidents }
    }

    /// The shared flight-recorder collector.
    pub fn collector(&self) -> &Arc<LogCollector> {
        &self.log
    }

    /// The incident recorder, when post-mortem snapshots are configured.
    pub fn incidents(&self) -> Option<&Arc<IncidentRecorder>> {
        self.incidents.as_ref()
    }

    /// Triggers an incident report (no-op without a recorder).
    ///
    /// Callers must NOT hold any lock an incident snapshot provider may
    /// take (the streaming recorder, registry state, telemetry hub) —
    /// the provider renders a live stats snapshot.
    pub fn incident(&self, kind: &str, detail: &str, trace: Option<TraceId>) -> Option<String> {
        self.incidents
            .as_ref()
            .and_then(|recorder| recorder.record(kind, detail, trace))
    }
}

/// Accumulates streaming measurements: one [`record_batch`] per formed
/// batch plus one [`record_request`] per request that rode in it.
///
/// [`record_batch`]: Self::record_batch
/// [`record_request`]: Self::record_request
#[derive(Debug, Clone)]
pub struct StreamingRecorder {
    started: Instant,
    e2e: LatencyRecorder,
    queue_wait: LatencyRecorder,
    exec: LatencyRecorder,
    e2e_hist: LogHistogram,
    queue_wait_hist: LogHistogram,
    exec_hist: LogHistogram,
    batch_sizes: BTreeMap<u64, u64>,
    sheds: u64,
    brownout_sheds: u64,
    /// Indexed by `FlushReason as usize`.
    flushes: [u64; 4],
    wait_timeouts: u64,
    batch_retries: u64,
    quarantined: u64,
    deadline_misses: u64,
    /// Windowed-telemetry fan-out; `None` keeps the recorder purely
    /// cumulative (the pre-telemetry behavior, and the disabled path the
    /// bench noise-gates against).
    sink: Option<TelemetrySink>,
    /// Structured-logging fan-out; `None` keeps the recorder silent (the
    /// pre-logging behavior the bench noise-gates against).
    log: Option<LogSink>,
}

impl StreamingRecorder {
    /// Creates a recorder; the wall clock starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            e2e: LatencyRecorder::new(),
            queue_wait: LatencyRecorder::new(),
            exec: LatencyRecorder::new(),
            e2e_hist: LogHistogram::new(),
            queue_wait_hist: LogHistogram::new(),
            exec_hist: LogHistogram::new(),
            batch_sizes: BTreeMap::new(),
            sheds: 0,
            brownout_sheds: 0,
            flushes: [0; 4],
            wait_timeouts: 0,
            batch_retries: 0,
            quarantined: 0,
            deadline_misses: 0,
            sink: None,
            log: None,
        }
    }

    /// Attaches a windowed-telemetry sink; every subsequent recording
    /// additionally feeds the hub's labeled series.
    pub fn set_sink(&mut self, sink: TelemetrySink) {
        self.sink = Some(sink);
    }

    /// Whether a telemetry sink is attached.
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Attaches a structured-logging sink; the workers' batch takes and
    /// failure-isolation decisions start emitting log events (and
    /// incident triggers, when the sink carries a recorder).
    pub fn set_log_sink(&mut self, sink: LogSink) {
        self.log = Some(sink);
    }

    /// The attached structured-logging sink, if any.
    pub fn log_sink(&self) -> Option<&LogSink> {
        self.log.as_ref()
    }

    /// Records one executed batch: its size, backend execution time and
    /// what the worker that took it found.
    pub fn record_batch(&mut self, size: usize, exec: Duration, reason: FlushReason) {
        *self.batch_sizes.entry(size as u64).or_insert(0) += 1;
        self.exec.record(exec);
        self.exec_hist.record(exec);
        self.flushes[reason as usize] += 1;
        if let Some(sink) = &self.sink {
            let now = sink.hub.now_s();
            sink.exec
                .record_us(now, exec.as_micros().min(u64::MAX as u128) as u64);
            sink.record_labeled(
                families::FLUSHES,
                "flush_reason",
                reason.as_str().to_string(),
            );
        }
        if let Some(log) = &self.log {
            snn_log::debug!(
                log.collector(),
                "runtime.batcher",
                {
                    "reason": reason.as_str(),
                    "batch_size": size,
                    "exec_us": exec.as_micros().min(u64::MAX as u128) as u64,
                },
                "flushed batch of {size} ({})",
                reason.as_str()
            );
        }
    }

    /// Prices one executed batch's measured event counters on the
    /// attached sink's `snn-hw` [`EnergyPricer`], accumulating
    /// `size × per-image µJ` into the per-model windowed `energy_uj`
    /// series. Returns the **per-image** figure for response
    /// attribution; `0.0` when no sink or no pricer is attached.
    pub fn record_batch_energy(&mut self, stats: &RunStats, size: usize) -> f64 {
        let Some(sink) = &self.sink else {
            return 0.0;
        };
        let Some(pricer) = &sink.pricer else {
            return 0.0;
        };
        let per_image_uj = pricer.price_per_image_uj(stats);
        sink.energy
            .add(sink.hub.now_s(), per_image_uj * size as f64);
        per_image_uj
    }

    /// Records one submission shed by backpressure (`QueueFull`), with
    /// the shed request's priority (labels the windowed series; the
    /// cumulative counter stays priority-blind).
    pub fn record_shed(&mut self, priority: u8) {
        self.sheds += 1;
        if let Some(sink) = &self.sink {
            sink.record_labeled(
                families::SHEDS,
                "priority",
                TelemetrySink::priority_label(priority),
            );
        }
    }

    /// Submissions shed so far.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Records one submission shed by priority brownout, with the shed
    /// request's priority.
    pub fn record_brownout_shed(&mut self, priority: u8) {
        self.brownout_sheds += 1;
        if let Some(sink) = &self.sink {
            sink.record_labeled(
                families::BROWNOUT_SHEDS,
                "priority",
                TelemetrySink::priority_label(priority),
            );
        }
    }

    /// Brownout sheds so far.
    pub fn brownout_sheds(&self) -> u64 {
        self.brownout_sheds
    }

    /// Records one batch that panicked and was re-run request-by-request
    /// to isolate the poison request.
    pub fn record_batch_retry(&mut self) {
        self.batch_retries += 1;
        if let Some(log) = &self.log {
            snn_log::warn!(
                log.collector(),
                "runtime.batcher",
                { "batch_retries": self.batch_retries },
                "batch panicked in a worker; re-running request-by-request to isolate the poison"
            );
        }
    }

    /// Records one request quarantined after panicking solo. The caller
    /// (the dispatch path) triggers the incident separately, outside
    /// this recorder's lock.
    pub fn record_quarantined(&mut self) {
        self.quarantined += 1;
        if let Some(log) = &self.log {
            snn_log::error!(
                log.collector(),
                "runtime.batcher",
                { "quarantined": self.quarantined },
                "request quarantined: the backend panicked while executing it solo"
            );
        }
    }

    /// Quarantined requests so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Records one [`Ticket::wait_timeout`](crate::Ticket::wait_timeout)
    /// expiry (the caller gave up before the batch completed).
    pub fn record_wait_timeout(&mut self) {
        self.wait_timeouts += 1;
        if let Some(sink) = &self.sink {
            sink.wait_timeouts.add(sink.hub.now_s(), 1.0);
        }
    }

    /// Wait-timeout expiries so far.
    pub fn wait_timeouts(&self) -> u64 {
        self.wait_timeouts
    }

    /// Records one completed request: end-to-end latency, the share of
    /// it spent waiting for the batch to form and reach a worker, and
    /// whether the request's batching deadline was missed (its batch
    /// began executing after the EDF deadline expired — the SLO
    /// deadline-miss signal).
    pub fn record_request(&mut self, e2e: Duration, queue_wait: Duration, deadline_missed: bool) {
        self.e2e.record(e2e);
        self.queue_wait.record(queue_wait);
        self.e2e_hist.record(e2e);
        self.queue_wait_hist.record(queue_wait);
        if deadline_missed {
            self.deadline_misses += 1;
        }
        if let Some(sink) = &self.sink {
            let now = sink.hub.now_s();
            sink.requests.add(now, 1.0);
            sink.e2e
                .record_us(now, e2e.as_micros().min(u64::MAX as u128) as u64);
            sink.queue_wait
                .record_us(now, queue_wait.as_micros().min(u64::MAX as u128) as u64);
            if deadline_missed {
                sink.deadline_misses.add(now, 1.0);
            }
        }
    }

    /// Completed requests so far.
    pub fn requests(&self) -> u64 {
        self.e2e.len() as u64
    }

    /// Snapshots everything recorded so far into a [`StreamingMetrics`].
    pub fn summarize(&mut self) -> StreamingMetrics {
        let wall_s = self.started.elapsed().as_secs_f64();
        let requests = self.e2e.len() as u64;
        let batches: u64 = self.batch_sizes.values().sum();
        let images: u64 = self.batch_sizes.iter().map(|(size, n)| size * n).sum();
        let e2e_total = self.e2e.total_us();
        StreamingMetrics {
            requests,
            shed_requests: self.sheds,
            brownout_shed_requests: self.brownout_sheds,
            batches,
            wall_ms: wall_s * 1e3,
            images_per_sec: if wall_s > 0.0 {
                requests as f64 / wall_s
            } else {
                0.0
            },
            e2e_mean_us: self.e2e.mean_us(),
            e2e_p50_us: self.e2e.quantile_us(0.50),
            e2e_p99_us: self.e2e.quantile_us(0.99),
            queue_wait_mean_us: self.queue_wait.mean_us(),
            queue_wait_p50_us: self.queue_wait.quantile_us(0.50),
            queue_wait_p99_us: self.queue_wait.quantile_us(0.99),
            exec_mean_us: self.exec.mean_us(),
            exec_p50_us: self.exec.quantile_us(0.50),
            exec_p99_us: self.exec.quantile_us(0.99),
            queue_wait_share: if e2e_total > 0.0 {
                self.queue_wait.total_us() / e2e_total
            } else {
                0.0
            },
            mean_batch_occupancy: if batches > 0 {
                images as f64 / batches as f64
            } else {
                0.0
            },
            max_batch_occupancy: self.batch_sizes.keys().next_back().copied().unwrap_or(0),
            occupancy_histogram: self
                .batch_sizes
                .iter()
                .map(|(&size, &batches)| OccupancyBucket { size, batches })
                .collect(),
            flushes_edf_deadline: self.flushes[FlushReason::EdfDeadline as usize],
            flushes_max_batch: self.flushes[FlushReason::MaxBatch as usize],
            flushes_drain: self.flushes[FlushReason::Drain as usize],
            flushes_idle: self.flushes[FlushReason::Idle as usize],
            wait_timeouts: self.wait_timeouts,
            batch_retries: self.batch_retries,
            quarantined: self.quarantined,
            deadline_misses: self.deadline_misses,
            e2e_histogram: self.e2e_hist.snapshot(),
            queue_wait_histogram: self.queue_wait_hist.snapshot(),
            exec_histogram: self.exec_hist.snapshot(),
        }
    }
}

impl Default for StreamingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_data() {
        let mut r = LatencyRecorder::new();
        for ms in 1..=100u64 {
            r.record(Duration::from_millis(ms));
        }
        assert_eq!(r.len(), 100);
        assert!((r.quantile_us(0.50) - 50_000.0).abs() < 1.0);
        assert!((r.quantile_us(0.99) - 99_000.0).abs() < 1.0);
        assert!((r.quantile_us(1.0) - 100_000.0).abs() < 1.0);
        assert!((r.mean_us() - 50_500.0).abs() < 1.0);
    }

    #[test]
    fn quantiles_stay_correct_across_interleaved_records() {
        // The sort-once cache must invalidate when new samples arrive.
        let mut r = LatencyRecorder::new();
        r.record(Duration::from_millis(30));
        r.record(Duration::from_millis(10));
        assert!((r.quantile_us(1.0) - 30_000.0).abs() < 1.0);
        r.record(Duration::from_millis(50));
        r.record(Duration::from_millis(20));
        assert!((r.quantile_us(1.0) - 50_000.0).abs() < 1.0);
        assert!((r.quantile_us(0.5) - 20_000.0).abs() < 1.0);
    }

    #[test]
    fn reservoir_bounds_memory_but_keeps_counts_exact() {
        let mut r = LatencyRecorder::new();
        let n = RESERVOIR_CAPACITY + 10_000;
        for _ in 0..n {
            r.record(Duration::from_millis(5));
        }
        assert_eq!(r.len(), n, "count stays exact past the reservoir");
        assert!(r.samples_us.len() <= RESERVOIR_CAPACITY, "memory bounded");
        assert!((r.mean_us() - 5_000.0).abs() < 1e-6, "mean stays exact");
        assert!((r.total_us() - n as f64 * 5_000.0).abs() < 1.0);
        // All samples identical, so quantiles are exact regardless of
        // which ones the reservoir kept.
        assert!((r.quantile_us(0.99) - 5_000.0).abs() < 1e-6);
    }

    #[test]
    fn merge_combines_counts_totals_and_samples() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        a.record(Duration::from_millis(10));
        b.record(Duration::from_millis(20));
        b.record(Duration::from_millis(30));
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert!((a.mean_us() - 20_000.0).abs() < 1e-6);
        assert!((a.quantile_us(1.0) - 30_000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_recorder_is_zero() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.quantile_us(0.5), 0.0);
        assert_eq!(r.mean_us(), 0.0);
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn log_histogram_buckets_by_power_of_two() {
        let mut h = LogHistogram::new();
        h.record(Duration::from_micros(1)); // bucket le=1
        h.record(Duration::from_micros(2)); // bucket le=2
        h.record(Duration::from_micros(3)); // bucket le=4
        h.record(Duration::from_micros(900)); // bucket le=1024
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.sum_us - 906.0).abs() < 1.0);
        let bucket = |le: u64| s.buckets.iter().find(|b| b.le_us == le).map(|b| b.count);
        assert_eq!(bucket(1), Some(1));
        assert_eq!(bucket(2), Some(2), "cumulative at le=2");
        assert_eq!(bucket(4), Some(3), "3µs rounds up into le=4");
        assert_eq!(bucket(512), Some(3), "cumulative carries through");
        assert_eq!(bucket(1024), Some(4));
        assert_eq!(
            s.buckets.last().map(|b| b.le_us),
            Some(1024),
            "trailing empty buckets trimmed"
        );
        // Cumulative counts are monotone non-decreasing.
        assert!(s.buckets.windows(2).all(|w| w[0].count <= w[1].count));
    }

    #[test]
    fn log_histogram_overflow_lands_in_inf_only() {
        let mut h = LogHistogram::new();
        h.record(Duration::from_secs(60)); // past the largest finite bucket
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.buckets.is_empty(), "no finite bucket holds it");
    }

    #[test]
    fn streaming_recorder_counts_flush_reasons_and_timeouts() {
        let mut r = StreamingRecorder::new();
        r.record_batch(4, Duration::from_millis(1), FlushReason::MaxBatch);
        r.record_batch(2, Duration::from_millis(1), FlushReason::EdfDeadline);
        r.record_batch(2, Duration::from_millis(1), FlushReason::EdfDeadline);
        r.record_batch(1, Duration::from_millis(1), FlushReason::Drain);
        for _ in 0..3 {
            r.record_batch(1, Duration::from_millis(1), FlushReason::Idle);
        }
        r.record_wait_timeout();
        assert_eq!(r.wait_timeouts(), 1);
        let m = r.summarize();
        assert_eq!(m.flushes_max_batch, 1);
        assert_eq!(m.flushes_edf_deadline, 2);
        assert_eq!(m.flushes_drain, 1);
        assert_eq!(m.flushes_idle, 3);
        assert_eq!(
            m.flushes_edf_deadline + m.flushes_max_batch + m.flushes_drain + m.flushes_idle,
            m.batches,
            "every batch has exactly one flush reason"
        );
        assert_eq!(m.wait_timeouts, 1);
    }

    #[test]
    fn streaming_recorder_splits_queue_and_exec() {
        let mut r = StreamingRecorder::new();
        // Two batches: sizes 3 and 1.
        r.record_batch(3, Duration::from_millis(6), FlushReason::MaxBatch);
        r.record_batch(1, Duration::from_millis(2), FlushReason::EdfDeadline);
        for _ in 0..3 {
            r.record_request(Duration::from_millis(10), Duration::from_millis(4), false);
        }
        r.record_request(Duration::from_millis(3), Duration::from_millis(1), true);
        let m = r.summarize();
        assert_eq!(m.requests, 4);
        assert_eq!(m.batches, 2);
        assert!((m.mean_batch_occupancy - 2.0).abs() < 1e-9);
        assert_eq!(m.max_batch_occupancy, 3);
        assert_eq!(
            m.occupancy_histogram,
            vec![
                OccupancyBucket {
                    size: 1,
                    batches: 1
                },
                OccupancyBucket {
                    size: 3,
                    batches: 1
                },
            ]
        );
        // queue share = (3*4 + 1) / (3*10 + 3) = 13/33.
        assert!((m.queue_wait_share - 13.0 / 33.0).abs() < 1e-9);
        assert!((m.e2e_p99_us - 10_000.0).abs() < 1.0);
        assert!((m.exec_p50_us - 2_000.0).abs() < 1.0);
        // The histograms see the same observations as the recorders.
        assert_eq!(m.e2e_histogram.count, 4);
        assert_eq!(m.queue_wait_histogram.count, 4);
        assert_eq!(m.exec_histogram.count, 2);
        assert!((m.e2e_histogram.sum_us - 33_000.0).abs() < 1.0);
    }

    #[test]
    fn shed_counter_accumulates_and_summarizes() {
        let mut r = StreamingRecorder::new();
        r.record_shed(0);
        r.record_shed(9);
        r.record_batch(1, Duration::from_millis(1), FlushReason::EdfDeadline);
        r.record_request(Duration::from_millis(2), Duration::from_millis(1), false);
        assert_eq!(r.sheds(), 2);
        let m = r.summarize();
        assert_eq!(m.shed_requests, 2);
        assert_eq!(m.requests, 1, "sheds never count as completed requests");
    }

    #[test]
    fn empty_streaming_recorder_summarizes_to_zeros() {
        let mut r = StreamingRecorder::new();
        let m = r.summarize();
        assert_eq!(m.requests, 0);
        assert_eq!(m.shed_requests, 0);
        assert_eq!(m.batches, 0);
        assert_eq!(m.queue_wait_share, 0.0);
        assert_eq!(m.mean_batch_occupancy, 0.0);
        assert!(m.occupancy_histogram.is_empty());
    }

    #[test]
    fn streaming_metrics_roundtrip_json() {
        let mut r = StreamingRecorder::new();
        r.record_batch(2, Duration::from_millis(1), FlushReason::MaxBatch);
        r.record_request(Duration::from_millis(2), Duration::from_millis(1), false);
        r.record_request(Duration::from_millis(2), Duration::from_millis(1), false);
        let m = r.summarize();
        let json = serde_json::to_string(&m).unwrap();
        let back: StreamingMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
