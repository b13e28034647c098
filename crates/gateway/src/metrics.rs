//! Gateway-level observability: wire counters, per-route latency
//! percentiles, and the one table of instruments that both `GET /metrics`
//! (Prometheus text, rendered here) and `GET /v1/stats` ([`crate::stats`])
//! are rendered from.
//!
//! The gateway's own counters (connections, parse errors, sheds, status
//! classes) compose with the runtime's
//! [`StreamingMetrics`](snn_runtime::StreamingMetrics) — one scrape shows
//! the whole path from accepted socket to executed batch. Each scalar is
//! one [`INSTRUMENTS`] row: its family, HELP, kind, label, `/v1/stats`
//! key and the snapshot field it reads.

use snn_runtime::{HistogramSnapshot, RegistryMetrics, StreamingMetrics};
use snn_telemetry::{families, Labels, TelemetryHub, WindowCounter, WindowHistogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Trace-collector health for the exposition: the cumulative
/// recorded/dropped totals plus the ring's current occupancy against its
/// capacity — `ring_spans` near `ring_capacity` with `spans_dropped`
/// climbing means the retention window is too small for the span rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Spans recorded into the collector since construction.
    pub spans_recorded: u64,
    /// Spans evicted from the bounded ring since construction.
    pub spans_dropped: u64,
    /// Spans currently retained in the ring.
    pub ring_spans: usize,
    /// The ring's retention bound.
    pub ring_capacity: usize,
}

/// Flight-recorder health for the exposition: per-level recorded totals,
/// ring drops/occupancy, sink rate-limit suppressions and incident
/// reports written — `dropped` climbing means the log ring is too small
/// for the event rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogStats {
    /// Events recorded per level, indexed `[debug, info, warn, error]`.
    pub events: [u64; 4],
    /// Events evicted from the bounded flight-recorder ring.
    pub dropped: u64,
    /// Events currently retained in the ring.
    pub ring_len: usize,
    /// The ring's retention bound.
    pub ring_capacity: usize,
    /// Sink lines suppressed by per-`(level, target)` rate limiting.
    pub suppressed: u64,
    /// Incident post-mortem reports written to disk.
    pub incidents_written: u64,
}

/// Latency summary for one route (`infer`, `metrics`, `health`, `other`).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteMetrics {
    /// Route label.
    pub route: String,
    /// Requests that completed on this route (any status).
    pub requests: u64,
    /// Mean handler latency, microseconds (exact).
    pub latency_mean_us: f64,
    /// Median handler latency, microseconds: a log-linear bin's upper
    /// edge clamped to the maximum
    /// ([`Histogram::quantile_us`](snn_telemetry::Histogram::quantile_us)),
    /// at most 25 % + 1 µs above the exact value, never below it.
    pub latency_p50_us: f64,
    /// 99th-percentile handler latency, microseconds (bin edge, as
    /// [`latency_p50_us`](Self::latency_p50_us)).
    pub latency_p99_us: f64,
}

/// Snapshot of the gateway's wire-level counters.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayMetrics {
    /// TCP connections accepted.
    pub connections: u64,
    /// HTTP requests that received a response.
    pub requests: u64,
    /// Responses with a 2xx status.
    pub responses_2xx: u64,
    /// Responses with a 4xx status (includes parse errors and sheds).
    pub responses_4xx: u64,
    /// Responses with a 5xx status (drain 503s, timeouts, internal).
    pub responses_5xx: u64,
    /// Malformed or over-limit requests (400/413 from the parser); the
    /// connection closes afterwards because framing is lost.
    pub parse_errors: u64,
    /// Requests shed with `429 Too Many Requests` — a full queue
    /// ([`SubmitError::QueueFull`](snn_runtime::SubmitError)) or a
    /// priority brownout
    /// ([`SubmitError::Brownout`](snn_runtime::SubmitError)) on the wire.
    pub shed_429: u64,
    /// Requests refused with `503 Service Unavailable` during drain.
    pub drained_503: u64,
    /// Requests that timed out waiting on the ticket (`504`).
    pub timeout_504: u64,
    /// Per-route latency percentiles, ascending by route label.
    pub routes: Vec<RouteMetrics>,
}

/// One route's cells: responses answered and their handler latency.
type RouteCells = (Arc<WindowCounter>, Arc<WindowHistogram>);

/// Accumulates gateway measurements; one instance lives behind a mutex in
/// the gateway and every connection worker records into it.
///
/// Each route's requests and latency are recorded once, into cells this
/// recorder owns; [`summarize`](Self::summarize) reads them back, and a
/// recorder built [`with_telemetry`](Self::with_telemetry) lists the
/// same cells in the gateway's hub, so `/metrics` and `/v1/stats` agree
/// by construction.
#[derive(Default)]
pub struct GatewayRecorder {
    connections: u64,
    parse_errors: u64,
    shed_429: u64,
    drained_503: u64,
    timeout_504: u64,
    responses_2xx: u64,
    responses_4xx: u64,
    responses_5xx: u64,
    routes: BTreeMap<&'static str, RouteCells>,
    /// The hub each route's cells are listed in as the route first
    /// answers.
    hub: Option<Arc<TelemetryHub>>,
}

impl GatewayRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder that lists each route's cells in `hub` as the
    /// route first answers (families
    /// [`HTTP_REQUESTS`](families::HTTP_REQUESTS) and
    /// [`HTTP_E2E_US`](families::HTTP_E2E_US), label `route`).
    pub fn with_telemetry(hub: Arc<TelemetryHub>) -> Self {
        Self {
            hub: Some(hub),
            ..Self::default()
        }
    }

    /// Records one accepted TCP connection.
    pub fn record_connection(&mut self) {
        self.connections += 1;
    }

    /// Records one completed response: its route, status and handler
    /// latency.
    pub fn record_response(&mut self, route: &'static str, status: u16, latency: Duration) {
        match status {
            200..=299 => self.responses_2xx += 1,
            400..=499 => self.responses_4xx += 1,
            _ => self.responses_5xx += 1,
        }
        match status {
            429 => self.shed_429 += 1,
            503 => self.drained_503 += 1,
            504 => self.timeout_504 += 1,
            _ => {}
        }
        let hub = &self.hub;
        let (requests, histogram) = self.routes.entry(route).or_insert_with(|| {
            let (requests, histogram) = RouteCells::default();
            if let Some(hub) = hub {
                let labels = Labels::new().with("route", route);
                hub.publish_counter(families::HTTP_REQUESTS, &labels, Arc::clone(&requests));
                hub.publish_histogram(families::HTTP_E2E_US, &labels, Arc::clone(&histogram));
            }
            (requests, histogram)
        });
        let now = snn_telemetry::now_s();
        requests.add(now, 1.0);
        histogram.record(now, latency);
    }

    /// Records one request the parser rejected (already counted as a
    /// response via [`record_response`](Self::record_response) by the
    /// caller; this only bumps the dedicated parse-error counter).
    pub fn record_parse_error(&mut self) {
        self.parse_errors += 1;
    }

    /// Snapshots everything recorded so far.
    pub fn summarize(&self) -> GatewayMetrics {
        let routes: Vec<RouteMetrics> = self
            .routes
            .iter()
            .map(|(route, (requests, latency))| {
                let latency = latency.cumulative();
                RouteMetrics {
                    route: route.to_string(),
                    requests: requests.total() as u64,
                    latency_mean_us: latency.mean_us(),
                    latency_p50_us: latency.quantile_us(0.50),
                    latency_p99_us: latency.quantile_us(0.99),
                }
            })
            .collect();
        GatewayMetrics {
            connections: self.connections,
            requests: routes.iter().map(|r| r.requests).sum(),
            responses_2xx: self.responses_2xx,
            responses_4xx: self.responses_4xx,
            responses_5xx: self.responses_5xx,
            parse_errors: self.parse_errors,
            shed_429: self.shed_429,
            drained_503: self.drained_503,
            timeout_504: self.timeout_504,
            routes,
        }
    }
}

/// A sample's value as its snapshot holds it. `/v1/stats` prints `U` as
/// an integer and `F` as a float; `/metrics` prints a counter as read and
/// a gauge as the `f64` it is.
#[derive(Clone, Copy)]
pub(crate) enum Num {
    U(u64),
    F(f64),
}

/// A Prometheus family's metric type.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    Counter,
    Gauge,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Self::Counter => "counter",
            Self::Gauge => "gauge",
        }
    }
}

/// The snapshots one scrape reads: `/metrics` and `/v1/stats` take the
/// same five.
pub(crate) struct Sources<'a> {
    pub gateway: &'a GatewayMetrics,
    pub streaming: &'a StreamingMetrics,
    pub registry: Option<&'a RegistryMetrics>,
    pub trace: Option<&'a TraceStats>,
    pub log: Option<&'a LogStats>,
}

/// Which snapshot an [`Instrument`] reads, and how.
#[derive(Clone, Copy)]
pub(crate) enum Read {
    Gateway(fn(&GatewayMetrics) -> Num),
    Streaming(fn(&StreamingMetrics) -> Num),
    Registry(fn(&RegistryMetrics) -> Num),
    Trace(fn(&TraceStats) -> Num),
    Log(fn(&LogStats) -> Num),
}

/// One scalar instrument, or one sample of a labelled family: a row of
/// [`INSTRUMENTS`].
pub(crate) struct Instrument {
    /// The Prometheus family.
    pub family: &'static str,
    /// The family's `# HELP` text.
    pub help: &'static str,
    pub kind: Kind,
    /// The `(name, value)` label of this sample of a labelled family.
    pub label: Option<(&'static str, &'static str)>,
    /// The `(section, key)` this value sits at in `/v1/stats` (`""`: the
    /// top level); rows sharing one key form an object keyed by their
    /// label values.
    pub stats: Option<(&'static str, &'static str)>,
    read: Read,
}

impl Instrument {
    const fn new(
        kind: Kind,
        (family, help): (&'static str, &'static str),
        stats: Option<(&'static str, &'static str)>,
        read: Read,
    ) -> Self {
        Self {
            family,
            help,
            kind,
            label: None,
            stats,
            read,
        }
    }

    const fn label(mut self, name: &'static str, value: &'static str) -> Self {
        self.label = Some((name, value));
        self
    }

    /// The value, or `None` when its snapshot is absent.
    pub fn read(&self, s: &Sources) -> Option<Num> {
        Some(match self.read {
            Read::Gateway(read) => read(s.gateway),
            Read::Streaming(read) => read(s.streaming),
            Read::Registry(read) => read(s.registry?),
            Read::Trace(read) => read(s.trace?),
            Read::Log(read) => read(s.log?),
        })
    }
}

/// Every scalar instrument `/metrics` and `/v1/stats` show, in the order
/// both list them: adding one is a snapshot field and a row here. Rows of
/// one family, and of one `/v1/stats` section, are adjacent; a section
/// whose snapshot is absent is `null` in `/v1/stats` and missing from
/// `/metrics`. The per-route families and the latency histograms are not
/// scalars and are rendered by hand.
#[rustfmt::skip]
pub(crate) static INSTRUMENTS: &[Instrument] = {
    use Kind::{Counter, Gauge};
    use Num::{F, U};
    use Read::{Gateway, Log, Registry, Streaming, Trace};
    type I = Instrument;
    const RESPONSES: (&str, &str) = ("snn_gateway_responses_total", "Responses by status class");
    const FLUSHES: (&str, &str) = ("snn_streaming_flushes_total", "Batch flushes by trigger");
    const LOG_EVENTS: (&str, &str) = ("snn_log_events_total", "Structured log events recorded, by level");
    const fn at(section: &'static str, key: &'static str) -> Option<(&'static str, &'static str)> {
        Some((section, key))
    }
    &[
        I::new(Counter, ("snn_gateway_connections_total", "TCP connections accepted"), None, Gateway(|g| U(g.connections))),
        I::new(Counter, ("snn_gateway_requests_total", "HTTP requests answered"), None, Gateway(|g| U(g.requests))),
        I::new(Counter, ("snn_gateway_parse_errors_total", "Requests rejected by the HTTP parser (400/413)"), None, Gateway(|g| U(g.parse_errors))),
        I::new(Counter, RESPONSES, None, Gateway(|g| U(g.responses_2xx))).label("class", "2xx"),
        I::new(Counter, RESPONSES, None, Gateway(|g| U(g.responses_4xx))).label("class", "4xx"),
        I::new(Counter, RESPONSES, None, Gateway(|g| U(g.responses_5xx))).label("class", "5xx"),
        // The degradation ladder, mildest to harshest.
        I::new(Counter, ("snn_streaming_deadline_misses_total", "Requests whose batch began executing more than the grace period past their EDF deadline"),
               at("degradation", "deadline_misses"), Streaming(|s| U(s.deadline_misses))),
        I::new(Counter, ("snn_streaming_wait_timeouts_total", "Ticket waits that expired before the result landed"),
               at("degradation", "wait_timeouts"), Streaming(|s| U(s.wait_timeouts))),
        I::new(Counter, ("snn_streaming_brownout_shed_requests_total", "Low-priority submissions shed by the priority brownout"),
               at("degradation", "brownout_sheds"), Streaming(|s| U(s.brownout_shed_requests))),
        I::new(Counter, ("snn_streaming_shed_requests_total", "Submissions shed by backpressure (QueueFull)"),
               at("degradation", "queue_sheds"), Streaming(|s| U(s.shed_requests))),
        I::new(Counter, ("snn_streaming_batch_retries_total", "Batches whose innocents were retried solo after a backend panic"),
               at("degradation", "batch_retries"), Streaming(|s| U(s.batch_retries))),
        I::new(Counter, ("snn_streaming_quarantined_total", "Requests quarantined as poison after panicking solo"),
               at("degradation", "quarantined"), Streaming(|s| U(s.quarantined))),
        I::new(Counter, ("snn_gateway_sheds_total", "Requests shed with 429 (streaming backpressure)"),
               at("degradation", "gateway_shed_429"), Gateway(|g| U(g.shed_429))),
        I::new(Counter, ("snn_gateway_drained_total", "Requests refused with 503 during drain"),
               at("degradation", "gateway_drained_503"), Gateway(|g| U(g.drained_503))),
        I::new(Counter, ("snn_gateway_timeouts_total", "Requests that hit the handler timeout (504)"),
               at("degradation", "gateway_timeout_504"), Gateway(|g| U(g.timeout_504))),
        // The default server's cumulative readings.
        I::new(Counter, ("snn_streaming_requests_total", "Streamed requests completed"),
               at("cumulative", "requests"), Streaming(|s| U(s.requests))),
        I::new(Gauge, ("snn_streaming_images_per_sec", "Completed requests per second of wall clock"),
               at("cumulative", "images_per_sec"), Streaming(|s| F(s.images_per_sec))),
        I::new(Gauge, ("snn_streaming_e2e_p50_us", "Median submit-to-result latency"),
               at("cumulative", "e2e_p50_us"), Streaming(|s| F(s.e2e_p50_us))),
        I::new(Gauge, ("snn_streaming_e2e_p99_us", "99th-percentile submit-to-result latency"),
               at("cumulative", "e2e_p99_us"), Streaming(|s| F(s.e2e_p99_us))),
        I::new(Gauge, ("snn_streaming_queue_wait_share", "Fraction of e2e time spent queue-waiting"),
               at("cumulative", "queue_wait_share"), Streaming(|s| F(s.queue_wait_share))),
        I::new(Gauge, ("snn_streaming_mean_batch_occupancy", "Mean images per formed batch"),
               at("cumulative", "mean_batch_occupancy"), Streaming(|s| F(s.mean_batch_occupancy))),
        I::new(Counter, ("snn_streaming_batches_total", "Batches the deadline batcher formed"),
               at("cumulative", "batches"), Streaming(|s| U(s.batches))),
        I::new(Counter, FLUSHES, at("cumulative", "flushes_edf_deadline"), Streaming(|s| U(s.flushes_edf_deadline))).label("reason", "edf_deadline"),
        I::new(Counter, FLUSHES, at("cumulative", "flushes_max_batch"), Streaming(|s| U(s.flushes_max_batch))).label("reason", "max_batch"),
        I::new(Counter, FLUSHES, at("cumulative", "flushes_drain"), Streaming(|s| U(s.flushes_drain))).label("reason", "drain"),
        I::new(Counter, FLUSHES, at("cumulative", "flushes_idle"), Streaming(|s| U(s.flushes_idle))).label("reason", "idle"),
        // The registry, when one fronts the gateway.
        I::new(Gauge, ("snn_registry_catalog_models", "Artifacts in the catalog (readable headers)"),
               at("registry", "catalog_models"), Registry(|r| U(r.catalog_models as u64))),
        I::new(Gauge, ("snn_registry_resident_models", "Currently resident compiled entries"),
               at("registry", "resident_models"), Registry(|r| U(r.resident_models as u64))),
        I::new(Gauge, ("snn_registry_resident_bytes", "Sum of resident compiled bytes"),
               at("registry", "resident_bytes"), Registry(|r| U(r.resident_bytes as u64))),
        I::new(Gauge, ("snn_registry_byte_budget", "Configured LRU byte budget (0 = unbounded)"),
               at("registry", "byte_budget"), Registry(|r| U(r.byte_budget as u64))),
        I::new(Counter, ("snn_registry_cold_loads_total", "Artifact loads performed (cold starts)"),
               at("registry", "cold_loads"), Registry(|r| U(r.cold_loads))),
        I::new(Counter, ("snn_registry_warm_hits_total", "Lookups served immediately from a resident entry"),
               at("registry", "warm_hits"), Registry(|r| U(r.warm_hits))),
        I::new(Counter, ("snn_registry_coalesced_loads_total", "Lookups that waited on another thread's in-progress load"),
               at("registry", "coalesced_loads"), Registry(|r| U(r.coalesced_loads))),
        I::new(Counter, ("snn_registry_evictions_total", "Entries evicted by the LRU byte budget"),
               at("registry", "evictions"), Registry(|r| U(r.evictions))),
        I::new(Counter, ("snn_registry_swaps_total", "Successful atomic version swaps"),
               at("registry", "swaps"), Registry(|r| U(r.swaps))),
        I::new(Counter, ("snn_registry_load_errors_total", "Loads that failed (artifact or compile error)"),
               at("registry", "load_errors"), Registry(|r| U(r.load_errors))),
        I::new(Counter, ("snn_registry_breaker_opens_total", "Times a model's circuit breaker opened"),
               at("registry", "breaker_opens"), Registry(|r| U(r.breaker_opens))),
        I::new(Counter, ("snn_registry_breaker_recoveries_total", "Half-open probes that restored a model to service"),
               at("registry", "breaker_recoveries"), Registry(|r| U(r.breaker_recoveries))),
        I::new(Counter, ("snn_registry_breaker_rejections_total", "Lookups rejected immediately by an open breaker"),
               at("registry", "breaker_rejections"), Registry(|r| U(r.breaker_rejections))),
        I::new(Gauge, ("snn_registry_load_ms_mean", "Mean artifact load wall time"),
               at("registry", "load_ms_mean"), Registry(|r| F(r.load_ms_mean))),
        I::new(Gauge, ("snn_registry_load_ms_max", "Max artifact load wall time"),
               at("registry", "load_ms_max"), Registry(|r| F(r.load_ms_max))),
        I::new(Gauge, ("snn_registry_compile_ms_mean", "Mean backend compile wall time"),
               at("registry", "compile_ms_mean"), Registry(|r| F(r.compile_ms_mean))),
        I::new(Gauge, ("snn_registry_compile_ms_max", "Max backend compile wall time"),
               at("registry", "compile_ms_max"), Registry(|r| F(r.compile_ms_max))),
        // The span collector, when the wrapped server is traced.
        I::new(Gauge, ("snn_trace_ring_spans", "Spans currently retained in the bounded trace ring"),
               at("trace", "ring_spans"), Trace(|t| U(t.ring_spans as u64))),
        I::new(Gauge, ("snn_trace_ring_capacity", "Retention bound of the trace ring"),
               at("trace", "ring_capacity"), Trace(|t| U(t.ring_capacity as u64))),
        I::new(Counter, ("snn_trace_spans_recorded_total", "Spans recorded into the trace collector"),
               at("trace", "spans_recorded"), Trace(|t| U(t.spans_recorded))),
        I::new(Counter, ("snn_trace_spans_dropped_total", "Spans evicted from the bounded trace ring"),
               at("trace", "spans_dropped"), Trace(|t| U(t.spans_dropped))),
        // The flight recorder, when logging is on.
        I::new(Counter, LOG_EVENTS, at("log", "events"), Log(|l| U(l.events[0]))).label("level", "debug"),
        I::new(Counter, LOG_EVENTS, at("log", "events"), Log(|l| U(l.events[1]))).label("level", "info"),
        I::new(Counter, LOG_EVENTS, at("log", "events"), Log(|l| U(l.events[2]))).label("level", "warn"),
        I::new(Counter, LOG_EVENTS, at("log", "events"), Log(|l| U(l.events[3]))).label("level", "error"),
        I::new(Counter, ("snn_log_events_dropped_total", "Events evicted from the bounded flight-recorder ring"),
               at("log", "dropped"), Log(|l| U(l.dropped))),
        I::new(Gauge, ("snn_log_ring_events", "Events currently retained in the flight-recorder ring"),
               at("log", "ring_events"), Log(|l| U(l.ring_len as u64))),
        I::new(Gauge, ("snn_log_ring_capacity", "Retention bound of the flight-recorder ring"),
               at("log", "ring_capacity"), Log(|l| U(l.ring_capacity as u64))),
        I::new(Counter, ("snn_log_sink_suppressed_total", "JSON sink lines suppressed by per-target rate limiting"),
               at("log", "sink_suppressed"), Log(|l| U(l.suppressed))),
        // A top-level key, 0 when logging is off.
        I::new(Counter, ("snn_incidents_written_total", "Incident post-mortem reports written to disk"),
               at("", "incidents"), Log(|l| U(l.incidents_written))),
    ]
};

/// Appends one family's `# HELP` and `# TYPE` lines.
fn family_head(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
}

/// Renders one [`HistogramSnapshot`] as a Prometheus histogram family:
/// cumulative `_bucket{le="..."}` samples (bounds converted from µs to
/// seconds, Prometheus' base unit), the implicit `+Inf` bucket, `_sum`
/// (seconds) and `_count`.
fn histogram_family(out: &mut String, name: &str, help: &str, hist: &HistogramSnapshot) {
    family_head(out, name, help, "histogram");
    for bucket in &hist.buckets {
        let le = bucket.le_us as f64 / 1e6;
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {}", bucket.count);
    }
    let _ = write!(
        out,
        "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
        hist.count,
        hist.sum_us / 1e6,
        hist.count
    );
}

/// Renders the gateway and streaming snapshots in Prometheus text
/// exposition format (`text/plain; version=0.0.4`): every `INSTRUMENTS`
/// row whose snapshot is present, then the per-route families and the
/// streaming latency histograms. `registry` adds the `snn_registry_*`
/// families when a [`ModelRegistry`](snn_runtime::ModelRegistry) fronts
/// this gateway; `trace` the span collector's totals and ring occupancy
/// when the wrapped server is traced; `log` the `snn_log_*` and
/// `snn_incidents_*` families when the flight recorder is on.
pub fn prometheus_text(
    gateway: &GatewayMetrics,
    streaming: &StreamingMetrics,
    registry: Option<&RegistryMetrics>,
    trace: Option<TraceStats>,
    log: Option<&LogStats>,
) -> String {
    let sources = Sources {
        gateway,
        streaming,
        registry,
        trace: trace.as_ref(),
        log,
    };
    let mut out = String::with_capacity(8192);
    let mut family = "";
    for row in INSTRUMENTS {
        let Some(value) = row.read(&sources) else {
            continue;
        };
        if row.family != family {
            family = row.family;
            family_head(&mut out, family, row.help, row.kind.name());
        }
        out.push_str(family);
        if let Some((name, value)) = row.label {
            let _ = write!(out, "{{{name}=\"{value}\"}}");
        }
        let _ = match (row.kind, value) {
            (Kind::Counter, Num::U(v)) => writeln!(out, " {v}"),
            (_, Num::U(v)) => writeln!(out, " {}", v as f64),
            (_, Num::F(v)) => writeln!(out, " {v}"),
        };
    }
    family_head(
        &mut out,
        "snn_gateway_route_requests_total",
        "Requests per route",
        "counter",
    );
    for route in &gateway.routes {
        let _ = writeln!(
            out,
            "snn_gateway_route_requests_total{{route=\"{}\"}} {}",
            route.route, route.requests
        );
    }
    family_head(
        &mut out,
        "snn_gateway_route_latency_us",
        "Handler latency percentiles per route",
        "gauge",
    );
    for route in &gateway.routes {
        for (q, v) in [
            ("0.5", route.latency_p50_us),
            ("0.99", route.latency_p99_us),
        ] {
            let _ = writeln!(
                out,
                "snn_gateway_route_latency_us{{route=\"{}\",quantile=\"{q}\"}} {v}",
                route.route
            );
        }
    }
    for (name, help, hist) in [
        (
            "snn_streaming_e2e_seconds",
            "Submit-to-result latency",
            &streaming.e2e_histogram,
        ),
        (
            "snn_streaming_queue_wait_seconds",
            "Time from submission until batch execution began",
            &streaming.queue_wait_histogram,
        ),
        (
            "snn_streaming_exec_seconds",
            "Backend execution time of the formed batch",
            &streaming.exec_histogram,
        ),
    ] {
        histogram_family(&mut out, name, help, hist);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_runtime::StreamingRecorder;

    #[test]
    fn recorder_counts_status_classes_and_routes() {
        let mut r = GatewayRecorder::new();
        r.record_connection();
        r.record_connection();
        r.record_response("infer", 200, Duration::from_millis(2));
        r.record_response("infer", 429, Duration::from_millis(1));
        r.record_response("metrics", 200, Duration::from_micros(80));
        r.record_response("parse", 400, Duration::ZERO);
        r.record_parse_error();
        r.record_response("infer", 503, Duration::ZERO);
        r.record_response("infer", 504, Duration::from_secs(1));
        let m = r.summarize();
        assert_eq!(m.connections, 2);
        assert_eq!(m.requests, 6);
        assert_eq!(m.responses_2xx, 2);
        assert_eq!(m.responses_4xx, 2);
        assert_eq!(m.responses_5xx, 2);
        assert_eq!(m.parse_errors, 1);
        assert_eq!(m.shed_429, 1);
        assert_eq!(m.drained_503, 1);
        assert_eq!(m.timeout_504, 1);
        let infer = m.routes.iter().find(|r| r.route == "infer").unwrap();
        assert_eq!(infer.requests, 4);
        assert!(infer.latency_p99_us >= infer.latency_p50_us);
    }

    #[test]
    fn prometheus_text_contains_every_family() {
        let mut r = GatewayRecorder::new();
        r.record_connection();
        r.record_response("infer", 200, Duration::from_millis(1));
        let gm = r.summarize();
        let sm = StreamingRecorder::new().summarize();
        let rm = RegistryMetrics {
            catalog_models: 2,
            resident_models: 1,
            resident_bytes: 4096,
            byte_budget: 0,
            cold_loads: 1,
            warm_hits: 3,
            coalesced_loads: 0,
            evictions: 0,
            swaps: 0,
            load_errors: 0,
            breaker_opens: 0,
            breaker_recoveries: 0,
            breaker_rejections: 0,
            load_ms_mean: 1.5,
            load_ms_max: 1.5,
            compile_ms_mean: 4.0,
            compile_ms_max: 4.0,
        };
        let text = prometheus_text(
            &gm,
            &sm,
            Some(&rm),
            Some(TraceStats {
                spans_recorded: 7,
                spans_dropped: 0,
                ring_spans: 7,
                ring_capacity: 4096,
            }),
            Some(&LogStats {
                events: [0, 5, 2, 1],
                dropped: 0,
                ring_len: 8,
                ring_capacity: 2048,
                suppressed: 0,
                incidents_written: 1,
            }),
        );
        for family in [
            "snn_gateway_connections_total 1",
            "snn_gateway_responses_total{class=\"2xx\"} 1",
            "snn_gateway_route_requests_total{route=\"infer\"} 1",
            "snn_gateway_route_latency_us{route=\"infer\",quantile=\"0.99\"}",
            "snn_streaming_requests_total 0",
            "snn_streaming_shed_requests_total 0",
            "snn_streaming_brownout_shed_requests_total 0",
            "snn_streaming_batch_retries_total 0",
            "snn_streaming_quarantined_total 0",
            "snn_streaming_mean_batch_occupancy 0",
            "snn_streaming_flushes_total{reason=\"edf_deadline\"} 0",
            "snn_streaming_flushes_total{reason=\"max_batch\"} 0",
            "snn_streaming_flushes_total{reason=\"drain\"} 0",
            "snn_streaming_flushes_total{reason=\"idle\"} 0",
            "snn_streaming_wait_timeouts_total 0",
            "snn_streaming_deadline_misses_total 0",
            "snn_streaming_e2e_seconds_count 0",
            "snn_registry_cold_loads_total 1",
            "snn_registry_warm_hits_total 3",
            "snn_registry_coalesced_loads_total 0",
            "snn_registry_evictions_total 0",
            "snn_registry_catalog_models 2",
            "snn_registry_resident_models 1",
            "snn_registry_resident_bytes 4096",
            "snn_registry_load_ms_mean 1.5",
            "snn_registry_compile_ms_max 4",
            "snn_trace_spans_recorded_total 7",
            "snn_trace_spans_dropped_total 0",
            "snn_trace_ring_spans 7",
            "snn_trace_ring_capacity 4096",
            "snn_log_events_total{level=\"info\"} 5",
            "snn_log_events_total{level=\"error\"} 1",
            "snn_log_events_dropped_total 0",
            "snn_log_sink_suppressed_total 0",
            "snn_log_ring_events 8",
            "snn_log_ring_capacity 2048",
            "snn_incidents_written_total 1",
        ] {
            assert!(text.contains(family), "missing {family:?} in:\n{text}");
        }
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad line {line:?}");
        }
    }

    /// Both renderers group by adjacency: a family split in two would be
    /// announced twice, a section split in two written twice.
    #[test]
    fn rows_of_a_family_and_of_a_section_are_adjacent() {
        let family: fn(&Instrument) -> Option<&'static str> = |r| Some(r.family);
        let section: fn(&Instrument) -> Option<&'static str> = |r| r.stats.map(|(s, _)| s);
        for group in [family, section] {
            let mut runs: Vec<&str> = Vec::new();
            for name in INSTRUMENTS.iter().filter_map(group) {
                if runs.last() != Some(&name) {
                    assert!(!runs.contains(&name), "{name:?} is split");
                    runs.push(name);
                }
            }
        }
    }

    /// `docs/OBSERVABILITY.md` lists every row as `| sample | kind | key |`,
    /// so the reference and the table cannot drift apart.
    #[test]
    fn every_instrument_row_is_in_the_observability_reference() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        for row in INSTRUMENTS {
            let (sample, label) = match row.label {
                Some((name, value)) => (format!("{}{{{name}=\"{value}\"}}", row.family), value),
                None => (row.family.to_string(), ""),
            };
            let shared = INSTRUMENTS.iter().filter(|r| r.stats == row.stats).count() > 1;
            let key = match row.stats {
                None => "—".to_string(),
                Some(("", key)) => format!("`{key}`"),
                Some((section, key)) if shared => format!("`{section}.{key}.{label}`"),
                Some((section, key)) => format!("`{section}.{key}`"),
            };
            let line = format!("| `{sample}` | {} | {key} |", row.kind.name());
            assert!(doc.contains(&line), "docs/OBSERVABILITY.md lacks {line:?}");
        }
    }

    /// A parser-shaped walk over the full scrape: every sample must belong
    /// to a family that announced `# HELP` then `# TYPE` immediately before
    /// its samples, histogram buckets must be cumulative and close with
    /// `+Inf`/`_sum`/`_count`, and no family may be announced twice.
    #[test]
    fn prometheus_scrape_conforms_to_exposition_format() {
        let mut gr = GatewayRecorder::new();
        gr.record_connection();
        gr.record_response("infer", 200, Duration::from_millis(2));
        let mut sr = StreamingRecorder::new();
        sr.record_request(
            Duration::from_micros(1500),
            Duration::from_micros(300),
            false,
        );
        sr.record_batch(
            1,
            Duration::from_micros(900),
            snn_runtime::FlushReason::Idle,
        );
        let text = prometheus_text(
            &gr.summarize(),
            &sr.summarize(),
            None,
            Some(TraceStats {
                spans_recorded: 3,
                spans_dropped: 1,
                ring_spans: 2,
                ring_capacity: 64,
            }),
            Some(&LogStats {
                events: [4, 3, 2, 1],
                dropped: 1,
                ring_len: 9,
                ring_capacity: 2048,
                suppressed: 2,
                incidents_written: 1,
            }),
        );

        let mut announced: Vec<String> = Vec::new(); // families, in order
        let mut current: Option<(String, String)> = None; // (family, type)
        let mut pending_help: Option<String> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let family = rest.split_whitespace().next().unwrap_or_default();
                assert!(rest.len() > family.len() + 1, "HELP without text: {line:?}");
                pending_help = Some(family.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let family = parts.next().unwrap_or_default().to_string();
                let kind = parts.next().unwrap_or_default().to_string();
                assert_eq!(
                    pending_help.take().as_deref(),
                    Some(family.as_str()),
                    "TYPE not preceded by its HELP: {line:?}"
                );
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind.as_str()),
                    "unknown type {kind:?}"
                );
                assert!(
                    !announced.contains(&family),
                    "family {family:?} announced twice"
                );
                announced.push(family.clone());
                current = Some((family, kind));
            } else {
                let (family, kind) = current.as_ref().expect("sample before any TYPE");
                let name = line.split(['{', ' ']).next().unwrap_or_default();
                let owned = if kind == "histogram" {
                    name == format!("{family}_bucket")
                        || name == format!("{family}_sum")
                        || name == format!("{family}_count")
                } else {
                    name == family
                };
                assert!(owned, "sample {name:?} outside its family {family:?}");
                let value = line.rsplit(' ').next().unwrap_or_default();
                assert!(
                    value.parse::<f64>().is_ok(),
                    "unparseable sample value: {line:?}"
                );
            }
        }
        // One flush sample per reason, in a fixed order, summing to the one
        // batch recorded.
        let flushes: Vec<(&str, u64)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("snn_streaming_flushes_total{reason=\""))
            .map(|rest| {
                let (reason, value) = rest.split_once("\"} ").unwrap();
                (reason, value.parse().unwrap())
            })
            .collect();
        assert_eq!(
            flushes,
            [
                ("edf_deadline", 0),
                ("max_batch", 0),
                ("drain", 0),
                ("idle", 1)
            ]
        );
        // Histogram invariants: buckets cumulative, closed by +Inf == count.
        for family in [
            "snn_streaming_e2e_seconds",
            "snn_streaming_queue_wait_seconds",
            "snn_streaming_exec_seconds",
        ] {
            assert!(announced.contains(&family.to_string()), "missing {family}");
            let mut last = 0u64;
            let mut inf = None;
            for line in text.lines().filter(|l| !l.starts_with('#')) {
                if let Some(rest) = line.strip_prefix(&format!("{family}_bucket{{le=\"")) {
                    let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                    assert!(count >= last, "non-cumulative bucket: {line:?}");
                    last = count;
                    if rest.starts_with("+Inf") {
                        inf = Some(count);
                    }
                }
            }
            let count_line = text
                .lines()
                .find(|l| l.starts_with(&format!("{family}_count ")))
                .unwrap();
            let total: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
            assert_eq!(inf, Some(total), "{family}: +Inf bucket != _count");
            assert_eq!(total, 1, "{family}: the one recorded request counts");
        }
    }
}
