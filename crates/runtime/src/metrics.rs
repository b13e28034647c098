//! Per-request latency accounting for the [`crate::StreamingServer`]:
//! [`StreamingMetrics`] splits queue-wait from execution time and
//! histograms the sizes of the batches its workers took from the backlog.
//! The [`StreamingRecorder`] behind it records each fact once, into
//! telemetry cells that a [`TelemetryHub`] can list as they are.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use snn_log::{IncidentRecorder, LogCollector, TraceId};
use snn_sim::RunStats;
use snn_telemetry::{families, Histogram, Labels, TelemetryHub, WindowCounter, WindowHistogram};

use crate::batcher::FlushReason;
use crate::energy::EnergyPricer;

/// One cumulative bucket of a [`HistogramSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket, microseconds (a power of 2).
    pub le_us: u64,
    /// Observations at or below `le_us` (cumulative, Prometheus-style).
    pub count: u64,
}

/// Serializable `le` view of a [`Histogram`] (see
/// [`Histogram::le_buckets`]); renders directly as a Prometheus
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

impl From<&Histogram> for HistogramSnapshot {
    fn from(h: &Histogram) -> Self {
        Self {
            buckets: h
                .le_buckets()
                .into_iter()
                .map(|(le_us, count)| HistogramBucket { le_us, count })
                .collect(),
            count: h.count(),
            sum_us: h.sum_us(),
        }
    }
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
///
/// Counts, means, `queue_wait_share` and the histograms' `count`/`sum_us`
/// are exact. The `*_p50_us`/`*_p99_us` quantiles come from
/// [`Histogram::quantile_us`]: a log-linear bin's upper edge, clamped to
/// the exact maximum — never below the exact nearest-rank value (over
/// whole µs), at most 25 % + 1 µs above it.
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
    /// Median end-to-end latency, microseconds (bin edge, see the type
    /// docs).
    pub e2e_p50_us: f64,
    /// 99th-percentile end-to-end latency, microseconds (bin edge).
    pub e2e_p99_us: f64,
    /// Mean time a request waited before its batch started executing, µs.
    pub queue_wait_mean_us: f64,
    /// Median queue wait, microseconds (bin edge).
    pub queue_wait_p50_us: f64,
    /// 99th-percentile queue wait, microseconds (bin edge).
    pub queue_wait_p99_us: f64,
    /// Mean backend execution time of a formed batch, microseconds.
    pub exec_mean_us: f64,
    /// Median batch execution time, microseconds (bin edge).
    pub exec_p50_us: f64,
    /// 99th-percentile batch execution time, microseconds (bin edge).
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
    /// `le` buckets of end-to-end (submit → result) latency.
    pub e2e_histogram: HistogramSnapshot,
    /// `le` buckets of queue wait (submit → batch exec start).
    pub queue_wait_histogram: HistogramSnapshot,
    /// `le` buckets of formed-batch backend execution time.
    pub exec_histogram: HistogramSnapshot,
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

/// Label values for a shed's priority: `0`..`7` verbatim, anything
/// higher collapses into `8+`, so the `priority` label stays
/// cardinality-bounded no matter what clients send.
const PRIORITY_LABELS: [&str; 9] = ["0", "1", "2", "3", "4", "5", "6", "7", "8+"];

/// Every flush reason, in `FlushReason as usize` order.
const FLUSH_REASONS: [FlushReason; 4] = [
    FlushReason::EdfDeadline,
    FlushReason::MaxBatch,
    FlushReason::Drain,
    FlushReason::Idle,
];

/// Where a recorder's cells are listed: a hub, under the server's labels.
struct Published {
    hub: Arc<TelemetryHub>,
    labels: Labels,
}

/// One family's counters that carry one extra label (a flush reason, a
/// shed priority). Each is created on first use, so the hub lists only
/// the values that occurred.
struct LabeledCounters<const N: usize> {
    family: &'static str,
    key: &'static str,
    values: [&'static str; N],
    cells: [Option<Arc<WindowCounter>>; N],
}

impl<const N: usize> LabeledCounters<N> {
    fn new(family: &'static str, key: &'static str, values: [&'static str; N]) -> Self {
        Self {
            family,
            key,
            values,
            cells: std::array::from_fn(|_| None),
        }
    }

    /// Counts one event for `values[i]`, creating (and publishing) its
    /// cell on first use.
    fn add(&mut self, i: usize, now_s: u64, published: Option<&Published>) {
        self.cells[i]
            .get_or_insert_with(|| {
                let cell = Arc::new(WindowCounter::new());
                if let Some(p) = published {
                    let labels = p.labels.clone().with(self.key, self.values[i]);
                    p.hub
                        .publish_counter(self.family, &labels, Arc::clone(&cell));
                }
                cell
            })
            .add(now_s, 1.0);
    }

    fn publish(&self, p: &Published) {
        for (cell, value) in self.cells.iter().zip(self.values) {
            if let Some(cell) = cell {
                let labels = p.labels.clone().with(self.key, value);
                p.hub
                    .publish_counter(self.family, &labels, Arc::clone(cell));
            }
        }
    }

    fn total(&self, i: usize) -> u64 {
        self.cells[i].as_ref().map_or(0, |c| c.total() as u64)
    }

    fn sum(&self) -> u64 {
        (0..N).map(|i| self.total(i)).sum()
    }
}

/// Accumulates streaming measurements: one [`record_batch`] per formed
/// batch plus one [`record_request`] per request that rode in it.
///
/// Every fact the hub also shows — requests, e2e / queue-wait / exec
/// latency, deadline misses, wait timeouts, energy, flushes per reason,
/// sheds per priority — is recorded once, into a telemetry cell this
/// recorder owns from construction. [`summarize`](Self::summarize) reads
/// those cells back, and [`attach_telemetry`](Self::attach_telemetry)
/// lists the same cells in a hub, so [`StreamingMetrics`], `/metrics`
/// and `/v1/stats` agree by construction.
///
/// [`record_batch`]: Self::record_batch
/// [`record_request`]: Self::record_request
pub struct StreamingRecorder {
    started: Instant,
    requests: Arc<WindowCounter>,
    e2e: Arc<WindowHistogram>,
    queue_wait: Arc<WindowHistogram>,
    exec: Arc<WindowHistogram>,
    deadline_misses: Arc<WindowCounter>,
    wait_timeouts: Arc<WindowCounter>,
    energy: Arc<WindowCounter>,
    flushes: LabeledCounters<4>,
    sheds: LabeledCounters<9>,
    brownout_sheds: LabeledCounters<9>,
    batch_sizes: BTreeMap<u64, u64>,
    batch_retries: u64,
    quarantined: u64,
    /// The hub the cells are listed in; `None` until telemetry is
    /// attached.
    published: Option<Published>,
    /// Prices executed batches on the `snn-hw` processor model; set
    /// with telemetry, for backends with fixed geometry.
    pricer: Option<EnergyPricer>,
    /// Structured-logging fan-out; `None` keeps the recorder silent (the
    /// pre-logging behavior the bench noise-gates against).
    log: Option<LogSink>,
}

impl StreamingRecorder {
    /// Creates a recorder; the wall clock starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests: Arc::default(),
            e2e: Arc::default(),
            queue_wait: Arc::default(),
            exec: Arc::default(),
            deadline_misses: Arc::default(),
            wait_timeouts: Arc::default(),
            energy: Arc::default(),
            flushes: LabeledCounters::new(
                families::FLUSHES,
                "flush_reason",
                FLUSH_REASONS.map(FlushReason::as_str),
            ),
            sheds: LabeledCounters::new(families::SHEDS, "priority", PRIORITY_LABELS),
            brownout_sheds: LabeledCounters::new(
                families::BROWNOUT_SHEDS,
                "priority",
                PRIORITY_LABELS,
            ),
            batch_sizes: BTreeMap::new(),
            batch_retries: 0,
            quarantined: 0,
            published: None,
            pricer: None,
            log: None,
        }
    }

    /// Lists this recorder's cells in `hub` under `labels`
    /// (conventionally `model`, `version`, `backend`), replacing any cell
    /// listed there before; a flush reason or shed priority seen later is
    /// listed when it first occurs. What was recorded before the attach
    /// stays in the cells. `pricer` enables per-batch energy attribution
    /// (pass `None` for backends without fixed geometry).
    pub fn attach_telemetry(
        &mut self,
        hub: Arc<TelemetryHub>,
        labels: Labels,
        pricer: Option<EnergyPricer>,
    ) {
        let p = Published { hub, labels };
        for (family, cell) in [
            (families::REQUESTS, &self.requests),
            (families::DEADLINE_MISSES, &self.deadline_misses),
            (families::WAIT_TIMEOUTS, &self.wait_timeouts),
            (families::ENERGY_UJ, &self.energy),
        ] {
            p.hub.publish_counter(family, &p.labels, Arc::clone(cell));
        }
        for (family, cell) in [
            (families::E2E_US, &self.e2e),
            (families::QUEUE_WAIT_US, &self.queue_wait),
            (families::EXEC_US, &self.exec),
        ] {
            p.hub.publish_histogram(family, &p.labels, Arc::clone(cell));
        }
        self.flushes.publish(&p);
        self.sheds.publish(&p);
        self.brownout_sheds.publish(&p);
        self.published = Some(p);
        self.pricer = pricer;
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
        let now = snn_telemetry::now_s();
        *self.batch_sizes.entry(size as u64).or_insert(0) += 1;
        self.exec.record(now, exec);
        self.flushes
            .add(reason as usize, now, self.published.as_ref());
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
    /// [`EnergyPricer`] telemetry attached, accumulating
    /// `size × per-image µJ` into the per-model `energy_uj` cell.
    /// Returns the **per-image** figure for response attribution; `0.0`
    /// when no pricer is attached.
    pub fn record_batch_energy(&mut self, stats: &RunStats, size: usize) -> f64 {
        let Some(pricer) = &self.pricer else {
            return 0.0;
        };
        let per_image_uj = pricer.price_per_image_uj(stats);
        self.energy
            .add(snn_telemetry::now_s(), per_image_uj * size as f64);
        per_image_uj
    }

    /// Records one submission shed by backpressure (`QueueFull`), with
    /// the shed request's priority.
    pub fn record_shed(&mut self, priority: u8) {
        self.sheds.add(
            usize::from(priority).min(PRIORITY_LABELS.len() - 1),
            snn_telemetry::now_s(),
            self.published.as_ref(),
        );
    }

    /// Records one submission shed by priority brownout, with the shed
    /// request's priority.
    pub fn record_brownout_shed(&mut self, priority: u8) {
        self.brownout_sheds.add(
            usize::from(priority).min(PRIORITY_LABELS.len() - 1),
            snn_telemetry::now_s(),
            self.published.as_ref(),
        );
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

    /// Records one [`Ticket::wait_timeout`](crate::Ticket::wait_timeout)
    /// expiry (the caller gave up before the batch completed).
    pub fn record_wait_timeout(&mut self) {
        self.wait_timeouts.add(snn_telemetry::now_s(), 1.0);
    }

    /// Records one completed request: end-to-end latency, the share of
    /// it spent waiting for the batch to form and reach a worker, and
    /// whether the request's batching deadline was missed (its batch
    /// began executing after the EDF deadline expired — the SLO
    /// deadline-miss signal).
    pub fn record_request(&mut self, e2e: Duration, queue_wait: Duration, deadline_missed: bool) {
        let now = snn_telemetry::now_s();
        self.requests.add(now, 1.0);
        self.e2e.record(now, e2e);
        self.queue_wait.record(now, queue_wait);
        if deadline_missed {
            self.deadline_misses.add(now, 1.0);
        }
    }

    /// Snapshots everything recorded so far into a [`StreamingMetrics`].
    pub fn summarize(&self) -> StreamingMetrics {
        let wall_s = self.started.elapsed().as_secs_f64();
        let (e2e, queue_wait, exec) = (
            self.e2e.cumulative(),
            self.queue_wait.cumulative(),
            self.exec.cumulative(),
        );
        let requests = self.requests.total() as u64;
        let batches: u64 = self.batch_sizes.values().sum();
        let images: u64 = self.batch_sizes.iter().map(|(size, n)| size * n).sum();
        let e2e_total = e2e.sum_us();
        StreamingMetrics {
            requests,
            shed_requests: self.sheds.sum(),
            brownout_shed_requests: self.brownout_sheds.sum(),
            batches,
            wall_ms: wall_s * 1e3,
            images_per_sec: if wall_s > 0.0 {
                requests as f64 / wall_s
            } else {
                0.0
            },
            e2e_mean_us: e2e.mean_us(),
            e2e_p50_us: e2e.quantile_us(0.50),
            e2e_p99_us: e2e.quantile_us(0.99),
            queue_wait_mean_us: queue_wait.mean_us(),
            queue_wait_p50_us: queue_wait.quantile_us(0.50),
            queue_wait_p99_us: queue_wait.quantile_us(0.99),
            exec_mean_us: exec.mean_us(),
            exec_p50_us: exec.quantile_us(0.50),
            exec_p99_us: exec.quantile_us(0.99),
            queue_wait_share: if e2e_total > 0.0 {
                queue_wait.sum_us() / e2e_total
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
            flushes_edf_deadline: self.flushes.total(FlushReason::EdfDeadline as usize),
            flushes_max_batch: self.flushes.total(FlushReason::MaxBatch as usize),
            flushes_drain: self.flushes.total(FlushReason::Drain as usize),
            flushes_idle: self.flushes.total(FlushReason::Idle as usize),
            wait_timeouts: self.wait_timeouts.total() as u64,
            batch_retries: self.batch_retries,
            quarantined: self.quarantined,
            deadline_misses: self.deadline_misses.total() as u64,
            e2e_histogram: (&e2e).into(),
            queue_wait_histogram: (&queue_wait).into(),
            exec_histogram: (&exec).into(),
        }
    }
}

impl Default for StreamingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for StreamingRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingRecorder")
            .field("labels", &self.published.as_ref().map(|p| &p.labels))
            .field("pricer", &self.pricer.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_view_buckets_by_power_of_two() {
        let mut h = Histogram::new();
        h.record(Duration::from_micros(1)); // bucket le=1
        h.record(Duration::from_micros(2)); // bucket le=2
        h.record(Duration::from_micros(3)); // bucket le=4
        h.record(Duration::from_micros(900)); // bucket le=1024
        let s = HistogramSnapshot::from(&h);
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
    fn le_view_overflow_lands_in_inf_only() {
        let mut h = Histogram::new();
        h.record(Duration::from_secs(60)); // past the largest finite bucket
        let s = HistogramSnapshot::from(&h);
        assert_eq!(s.count, 1);
        assert!(s.buckets.is_empty(), "no finite bucket holds it");
    }

    #[test]
    fn flush_reasons_feed_one_cached_series_each() {
        let hub = Arc::new(TelemetryHub::new());
        let labels = Labels::new().with("model", "m");
        let mut r = StreamingRecorder::new();
        r.attach_telemetry(Arc::clone(&hub), labels.clone(), None);
        let counts = [
            (FlushReason::EdfDeadline, 2),
            (FlushReason::MaxBatch, 5),
            (FlushReason::Idle, 3),
        ];
        for (reason, n) in counts {
            for _ in 0..n {
                r.record_batch(1, Duration::from_micros(50), reason);
            }
        }
        let snap = hub.snapshot(hub.now_s());
        let family = snap
            .counters
            .iter()
            .find(|f| f.name == families::FLUSHES)
            .expect("a flushes family");
        assert_eq!(
            family.series.len(),
            counts.len(),
            "a reason that never occurred has no series"
        );
        for (reason, n) in counts {
            let series = labels.clone().with("flush_reason", reason.as_str());
            let total = snap.counter(families::FLUSHES, &series).map(|c| c.total);
            assert_eq!(total, Some(n as f64), "{}", reason.as_str());
        }
    }

    fn some_traffic(r: &mut StreamingRecorder) {
        r.record_batch(2, Duration::from_micros(700), FlushReason::MaxBatch);
        r.record_batch(1, Duration::from_micros(300), FlushReason::Idle);
        for missed in [false, false, true] {
            r.record_request(
                Duration::from_micros(1_000),
                Duration::from_micros(200),
                missed,
            );
        }
        r.record_shed(1);
        r.record_shed(12);
        r.record_brownout_shed(0);
        r.record_wait_timeout();
    }

    /// One cell per fact: what a recorder saw before and after telemetry
    /// was attached reads the same through `StreamingMetrics` and through
    /// the hub's series.
    #[test]
    fn streaming_metrics_and_the_hub_read_the_same_cells() {
        let hub = Arc::new(TelemetryHub::new());
        let labels = Labels::new().with("model", "m").with("backend", "csr");
        let mut r = StreamingRecorder::new();
        some_traffic(&mut r);
        r.attach_telemetry(Arc::clone(&hub), labels.clone(), None);
        some_traffic(&mut r);
        // A reason first seen after the attach is listed when it occurs.
        r.record_batch(1, Duration::from_micros(90), FlushReason::Drain);
        let m = r.summarize();
        assert_eq!((m.requests, m.shed_requests, m.batches), (6, 4, 5));

        let snap = hub.snapshot(hub.now_s());
        let total = |family: &str| snap.counter(family, &labels).map(|c| c.total as u64);
        let count = |family: &str| snap.histogram(family, &labels).map(|h| h.count);
        let family_total = |family: &str| -> u64 {
            snap.counters
                .iter()
                .filter(|f| f.name == family)
                .flat_map(|f| &f.series)
                .map(|s| s.value.total as u64)
                .sum()
        };
        assert_eq!(total(families::REQUESTS), Some(m.requests));
        assert_eq!(total(families::DEADLINE_MISSES), Some(m.deadline_misses));
        assert_eq!(total(families::WAIT_TIMEOUTS), Some(m.wait_timeouts));
        assert_eq!(count(families::E2E_US), Some(m.e2e_histogram.count));
        assert_eq!(
            count(families::QUEUE_WAIT_US),
            Some(m.queue_wait_histogram.count)
        );
        assert_eq!(count(families::EXEC_US), Some(m.exec_histogram.count));
        for (reason, n) in [
            (FlushReason::EdfDeadline, m.flushes_edf_deadline),
            (FlushReason::MaxBatch, m.flushes_max_batch),
            (FlushReason::Drain, m.flushes_drain),
            (FlushReason::Idle, m.flushes_idle),
        ] {
            let series = labels.clone().with("flush_reason", reason.as_str());
            let listed = snap
                .counter(families::FLUSHES, &series)
                .map(|c| c.total as u64);
            assert_eq!(listed.unwrap_or(0), n, "{}", reason.as_str());
        }
        assert_eq!(family_total(families::FLUSHES), m.batches);
        assert_eq!(family_total(families::SHEDS), m.shed_requests);
        assert_eq!(
            family_total(families::BROWNOUT_SHEDS),
            m.brownout_shed_requests
        );
    }

    /// Republishing under the same labels replaces the first recorder's
    /// cells; a recorder whose labels arrive past the cap is not listed
    /// and keeps exact metrics of its own.
    #[test]
    fn republish_replaces_and_past_the_cap_a_recorder_stays_its_own() {
        let hub = Arc::new(TelemetryHub::new());
        let labels = Labels::new().with("model", "m");
        let mut first = StreamingRecorder::new();
        first.attach_telemetry(Arc::clone(&hub), labels.clone(), None);
        some_traffic(&mut first);
        let mut second = StreamingRecorder::new();
        second.attach_telemetry(Arc::clone(&hub), labels.clone(), None);
        second.record_request(Duration::from_micros(50), Duration::ZERO, false);
        let requests = |hub: &TelemetryHub, labels: &Labels| {
            hub.snapshot(hub.now_s())
                .counter(families::REQUESTS, labels)
                .map(|c| c.total)
        };
        assert_eq!(
            requests(&hub, &labels),
            Some(1.0),
            "the second cell is listed"
        );

        for i in 1..snn_telemetry::MAX_SERIES_PER_FAMILY {
            let filler = Labels::new().with("model", format!("filler{i}"));
            hub.publish_counter(families::REQUESTS, &filler, Arc::default());
        }
        let late_labels = Labels::new().with("model", "late");
        let mut late = StreamingRecorder::new();
        late.attach_telemetry(Arc::clone(&hub), late_labels.clone(), None);
        some_traffic(&mut late);
        assert_eq!(late.summarize().requests, 3);
        assert_eq!(late.summarize().shed_requests, 2);
        assert_eq!(
            requests(&hub, &late_labels),
            None,
            "past the cap: not listed"
        );
        assert_eq!(
            requests(&hub, &snn_telemetry::overflow_labels()),
            None,
            "and not merged into overflow"
        );
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
        // p99 lands in the bin holding the maximum, which reports it
        // exactly; p50 reports its bin's upper edge, (1792, 2048] µs.
        assert_eq!(m.e2e_p99_us, 10_000.0);
        assert_eq!(m.exec_p50_us, 2_048.0);
        // The `le` views see the same observations as the quantiles.
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
        let m = r.summarize();
        assert_eq!(m.shed_requests, 2);
        assert_eq!(m.requests, 1, "sheds never count as completed requests");
    }

    #[test]
    fn empty_streaming_recorder_summarizes_to_zeros() {
        let r = StreamingRecorder::new();
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
