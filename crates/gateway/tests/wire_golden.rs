//! The `/metrics` and `/v1/stats` bodies, byte for byte, rendered from
//! fixed snapshots: once with every optional source (registry, trace,
//! log) present and once with every one absent. The goldens under
//! `tests/golden/` are the wire bytes both renderers must keep.
//!
//! `/v1/stats` is compared whole, with only `now_s` (the process clock)
//! masked. `/metrics` is compared as a multiset of family blocks (a
//! family's `# HELP`, `# TYPE` and sample lines, verbatim), so the order
//! in which families are listed is free but nothing inside a block is.
//!
//! The fixtures lean on the edges of both formats: a gauge above 2^53
//! (Prometheus prints gauges as `f64`, `/v1/stats` prints the integer),,
//! integral and non-integral floats, and a label value that needs JSON
//! escaping (`"`, `\`, a backspace, non-ASCII).

use snn_gateway::{
    prometheus_text, render_stats, GatewayMetrics, LogStats, RouteMetrics, TraceStats,
};
use snn_runtime::{
    HistogramBucket, HistogramSnapshot, OccupancyBucket, RegistryMetrics, StreamingMetrics,
};
use snn_telemetry::{families, Labels, TelemetryHub};

const METRICS_FULL: &str = include_str!("golden/metrics_full.txt");
const METRICS_BARE: &str = include_str!("golden/metrics_bare.txt");
const STATS_FULL: &str = include_str!("golden/stats_full.json");
const STATS_BARE: &str = include_str!("golden/stats_bare.json");

fn histogram(buckets: &[(u64, u64)], sum_us: f64) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: buckets
            .iter()
            .map(|&(le_us, count)| HistogramBucket { le_us, count })
            .collect(),
        count: buckets.last().map_or(0, |&(_, count)| count),
        sum_us,
    }
}

fn gateway() -> GatewayMetrics {
    let route = |route: &str, requests, mean, p50, p99| RouteMetrics {
        route: route.to_string(),
        requests,
        latency_mean_us: mean,
        latency_p50_us: p50,
        latency_p99_us: p99,
    };
    GatewayMetrics {
        connections: 4,
        requests: 13,
        responses_2xx: 10,
        responses_4xx: 2,
        responses_5xx: 1,
        parse_errors: 1,
        shed_429: 1,
        drained_503: 0,
        timeout_504: 1,
        routes: vec![
            route("infer", 9, 812.5, 640.0, 1536.0),
            route("metrics", 3, 41.333333333333336, 40.0, 48.0),
            route("other", 1, 3.0, 3.0, 3.0),
        ],
    }
}

fn streaming() -> StreamingMetrics {
    StreamingMetrics {
        requests: 9,
        shed_requests: 2,
        brownout_shed_requests: 1,
        batches: 5,
        wall_ms: 1234.5,
        images_per_sec: 7.290400972053463,
        e2e_mean_us: 700.25,
        e2e_p50_us: 640.0,
        e2e_p99_us: 1536.0,
        queue_wait_mean_us: 120.5,
        queue_wait_p50_us: 96.0,
        queue_wait_p99_us: 320.0,
        exec_mean_us: 480.0,
        exec_p50_us: 448.0,
        exec_p99_us: 1024.0,
        queue_wait_share: 0.1720813995001785,
        mean_batch_occupancy: 1.8,
        max_batch_occupancy: 3,
        occupancy_histogram: vec![
            OccupancyBucket {
                size: 1,
                batches: 2,
            },
            OccupancyBucket {
                size: 2,
                batches: 2,
            },
            OccupancyBucket {
                size: 3,
                batches: 1,
            },
        ],
        flushes_edf_deadline: 1,
        flushes_max_batch: 1,
        flushes_drain: 0,
        flushes_idle: 3,
        wait_timeouts: 1,
        batch_retries: 1,
        quarantined: 0,
        deadline_misses: 2,
        e2e_histogram: histogram(&[(512, 3), (1024, 8), (2048, 9)], 6302.25),
        queue_wait_histogram: histogram(&[(128, 6), (256, 8), (512, 9)], 1084.5),
        exec_histogram: histogram(&[(512, 3), (1024, 5)], 2400.0),
    }
}

fn registry() -> RegistryMetrics {
    RegistryMetrics {
        catalog_models: 3,
        resident_models: 2,
        // Above 2^53: the gauge prints the f64 it rounds to.
        resident_bytes: 9_007_199_254_740_993,
        byte_budget: 0,
        cold_loads: 2,
        warm_hits: 17,
        coalesced_loads: 1,
        evictions: 0,
        swaps: 1,
        load_errors: 1,
        breaker_opens: 1,
        breaker_recoveries: 1,
        breaker_rejections: 4,
        load_ms_mean: 0.4321,
        load_ms_max: 1.0,
        compile_ms_mean: 2.5,
        compile_ms_max: 1e16,
    }
}

const TRACE: TraceStats = TraceStats {
    spans_recorded: 88,
    spans_dropped: 3,
    ring_spans: 85,
    ring_capacity: 4096,
};

const LOG: LogStats = LogStats {
    events: [0, 12, 2, 1],
    dropped: 0,
    ring_len: 15,
    ring_capacity: 2048,
    suppressed: 5,
    incidents_written: 1,
};

/// A hub with two models (one with a name JSON must escape), their
/// latency, energy, miss and shed cells, and one route.
fn hub() -> TelemetryHub {
    let hub = TelemetryHub::new();
    let now = hub.now_s();
    let alpha = Labels::new()
        .with("model", "alpha")
        .with("version", "1")
        .with("backend", "csr");
    hub.counter(families::REQUESTS, &alpha).add(now, 8.0);
    for us in [300, 640, 900, 1500, 2100] {
        hub.histogram(families::E2E_US, &alpha).record_us(now, us);
    }
    hub.counter(families::ENERGY_UJ, &alpha).add(now, 3449.6);
    hub.counter(families::DEADLINE_MISSES, &alpha).add(now, 1.0);
    let alpha_low = Labels::new().with("model", "alpha").with("priority", "0");
    hub.counter(families::SHEDS, &alpha_low).add(now, 2.0);
    hub.counter(families::BROWNOUT_SHEDS, &alpha_low)
        .add(now, 1.0);
    let odd = Labels::new()
        .with("model", "q\"u\\o\u{8}t\u{e9}")
        .with("version", "2")
        .with("backend", "quant");
    hub.counter(families::REQUESTS, &odd).add(now, 1.0);
    hub.histogram(families::E2E_US, &odd).record_us(now, 77);
    let infer = Labels::new().with("route", "infer");
    hub.counter(families::HTTP_REQUESTS, &infer).add(now, 9.0);
    for us in [500, 700, 1700] {
        hub.histogram(families::HTTP_E2E_US, &infer)
            .record_us(now, us);
    }
    hub
}

/// The stats body with its process-clock reading replaced by 0 and its
/// build profile (`debug` or `release`, whichever runs the test) by
/// `release`.
fn stats(
    registry: Option<&RegistryMetrics>,
    trace: Option<&TraceStats>,
    log: Option<&LogStats>,
) -> String {
    let body = render_stats(&hub(), &streaming(), &gateway(), registry, trace, log, 12.5);
    let body = String::from_utf8(body).unwrap();
    let start = body.find("\"now_s\":").unwrap() + "\"now_s\":".len();
    let end = start + body[start..].find(',').unwrap();
    format!("{}0{}", &body[..start], &body[end..])
        .replace("\"profile\":\"debug\"", "\"profile\":\"release\"")
}

/// A Prometheus scrape as its family blocks, sorted.
fn blocks(text: &str) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with("# HELP ") || blocks.is_empty() {
            blocks.push(String::new());
        }
        let block = blocks.last_mut().unwrap();
        block.push_str(line);
        block.push('\n');
    }
    blocks.sort();
    blocks
}

#[test]
fn stats_body_matches_its_golden_with_every_source() {
    assert_eq!(
        stats(Some(&registry()), Some(&TRACE), Some(&LOG)),
        STATS_FULL.trim_end()
    );
}

#[test]
fn stats_body_matches_its_golden_with_no_optional_source() {
    assert_eq!(stats(None, None, None), STATS_BARE.trim_end());
}

#[test]
fn metrics_families_match_their_golden_with_every_source() {
    let text = prometheus_text(
        &gateway(),
        &streaming(),
        Some(&registry()),
        Some(TRACE),
        Some(&LOG),
    );
    assert!(text.ends_with('\n'));
    assert_eq!(blocks(&text), blocks(METRICS_FULL));
}

#[test]
fn metrics_families_match_their_golden_with_no_optional_source() {
    let text = prometheus_text(&gateway(), &streaming(), None, None, None);
    assert!(text.ends_with('\n'));
    assert_eq!(blocks(&text), blocks(METRICS_BARE));
}

/// A float JSON cannot spell fails the whole body, not one field.
#[test]
fn a_non_finite_figure_yields_the_internal_error_body() {
    let mut broken = streaming();
    broken.queue_wait_share = f64::NAN;
    let body = render_stats(&hub(), &broken, &gateway(), None, None, None, 1.0);
    assert_eq!(body, b"{\"error\":\"internal error\"}");
}
