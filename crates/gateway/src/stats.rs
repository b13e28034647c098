//! The `GET /v1/stats` body: one JSON document with everything the
//! dashboard (or an operator's `curl | jq`) needs — windowed per-model
//! and per-route series, SLO burn rates, energy attribution, degradation
//! counters, and the cumulative recorders for cross-checking.
//!
//! # Schema (stable, `schema_version: 1`)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "now_s": 63,                  // hub clock, seconds since gateway start
//!   "uptime_s": 63.4,
//!   "windows_s": [10, 60, 300],   // every windowed figure uses these
//!   "slo": {"miss_objective": 0.01, "shed_objective": 0.05,
//!           "fast_window_s": 60, "slow_window_s": 300},
//!   "routes": [                   // per-route HTTP view, ascending by route
//!     {"route": "infer", "requests_total": 810.0,
//!      "req_per_s": {"10s": 81.0, "60s": 13.5, "300s": 2.7},
//!      "p50_us": 1800.0, "p95_us": 3900.0, "p99_us": 4200.0}],
//!   "models": [                   // one entry per labeled model series
//!     {"model": "default", "version": "", "backend": "csr",
//!      "requests_total": 810.0,
//!      "req_per_s": {"10s": 81.0, "60s": 13.5, "300s": 2.7},
//!      "e2e_us": {"10s": {"count": 810, "p50": 1800.0, "p95": 3900.0,
//!                          "p99": 4200.0}, "60s": {...}, "300s": {...}},
//!      "energy_uj_per_inference": 431.2,   // fast-window mean
//!      "energy_uj_per_s": 5821.0,          // fast-window rate
//!      "deadline_miss_ratio": {"fast": 0.0, "slow": 0.0},
//!      "shed_ratio": {"fast": 0.0, "slow": 0.0},
//!      "burn": {"miss_fast": 0.0, "miss_slow": 0.0,
//!               "shed_fast": 0.0, "shed_slow": 0.0},
//!      "slo_state": "ok"}],      // "ok" | "warn" | "burning"
//!   "degradation": {             // the ladder, mildest to harshest
//!     "deadline_misses": 0, "wait_timeouts": 0, "brownout_sheds": 0,
//!     "queue_sheds": 0, "batch_retries": 0, "quarantined": 0,
//!     "gateway_shed_429": 0, "gateway_drained_503": 0,
//!     "gateway_timeout_504": 0},
//!   "cumulative": {              // whole-process histograms, for agreement
//!     "requests": 810, "images_per_sec": 804.2,
//!     "e2e_p50_us": 1800.0, "e2e_p99_us": 4200.0,
//!     "queue_wait_share": 0.42, "mean_batch_occupancy": 3.8,
//!     "batches": 213,            // == the four flushes_* below, summed
//!     "flushes_edf_deadline": 2, "flushes_max_batch": 40,
//!     "flushes_drain": 0, "flushes_idle": 171},
//!   "registry": {...} | null,    // snn_runtime::RegistryMetrics verbatim
//!   "trace": {"ring_spans": 512, "ring_capacity": 4096,
//!             "spans_recorded": 9000, "spans_dropped": 0} | null,
//!   "log": {"events": {"debug": 0, "info": 810, "warn": 2, "error": 1},
//!           "dropped": 0, "ring_events": 813, "ring_capacity": 2048,
//!           "sink_suppressed": 0} | null,
//!   "incidents": 1,              // post-mortem reports written to disk
//!   "build": {"pkg_version": "0.1.0", "profile": "release"}
//! }
//! ```
//!
//! Every quantile, windowed or `cumulative`, is served from the telemetry
//! crate's log-linear bins, which report a bin's **upper** edge: it may
//! exceed the exact sample quantile by up to 25% + 1 µs, never undershoot
//! it. The cumulative ones are also clamped to the exact maximum. Counts,
//! `queue_wait_share` and `registry` are exact. Ratios whose
//! window saw no traffic are `0.0` (healthy-by-vacuity, never `NaN`).
//! `models` includes at most [`snn_telemetry::MAX_SERIES_PER_FAMILY`]
//! entries; past the cardinality cap new label sets collapse into one
//! `overflow=true` series, which appears here with `"model": "overflow"`.

use serde::{Content, Serialize};
use snn_runtime::{RegistryMetrics, StreamingMetrics};
use snn_telemetry::{families, slo, CounterSnapshot, HubSnapshot, TelemetryHub, WINDOWS_S};

use crate::metrics::{GatewayMetrics, LogStats, TraceStats};

/// Sum a counter snapshot's `window_s` window (0 when absent).
fn wsum(counter: Option<&CounterSnapshot>, window_s: u64) -> f64 {
    counter
        .and_then(|c| c.windows.iter().find(|w| w.window_s == window_s))
        .map(|w| w.sum)
        .unwrap_or(0.0)
}

/// `{"10s": rate, "60s": rate, "300s": rate}` for one counter.
fn rate_map(counter: Option<&CounterSnapshot>) -> Content {
    Content::Map(
        WINDOWS_S
            .iter()
            .map(|&w| {
                let rate = counter
                    .and_then(|c| c.windows.iter().find(|x| x.window_s == w))
                    .map(|x| x.rate_per_s)
                    .unwrap_or(0.0);
                (format!("{w}s"), Content::F64(rate))
            })
            .collect(),
    )
}

/// Sum of one family's windowed values across every series carrying
/// `model=<model>` — sheds are recorded per priority, so one model owns
/// several series in the shed families.
fn model_family_sum(snap: &HubSnapshot, family: &str, model: &str, window_s: u64) -> f64 {
    snap.counters
        .iter()
        .filter(|f| f.name == family)
        .flat_map(|f| &f.series)
        .filter(|s| s.labels.get("model") == Some(model))
        .map(|s| wsum(Some(&s.value), window_s))
        .sum()
}

/// `"ok"` < `"warn"` < `"burning"`.
fn severity(state: &str) -> u8 {
    match state {
        "ok" => 0,
        "warn" => 1,
        _ => 2,
    }
}

/// Renders the full `/v1/stats` JSON body from a live hub snapshot plus
/// the cumulative recorders. See the module docs for the schema.
pub fn render_stats(
    hub: &TelemetryHub,
    streaming: &StreamingMetrics,
    gateway: &GatewayMetrics,
    registry: Option<&RegistryMetrics>,
    trace: Option<&TraceStats>,
    log: Option<&LogStats>,
    uptime_s: f64,
) -> Vec<u8> {
    let now_s = hub.now_s();
    let snap = hub.snapshot(now_s);

    let routes: Vec<Content> = snap
        .counters
        .iter()
        .filter(|f| f.name == families::HTTP_REQUESTS)
        .flat_map(|f| &f.series)
        .map(|series| {
            let route = series.labels.get("route").unwrap_or("unknown");
            let hist = snap.histogram(families::HTTP_E2E_US, &series.labels);
            let fast =
                hist.and_then(|h| h.windows.iter().find(|w| w.window_s == slo::FAST_WINDOW_S));
            Content::Map(vec![
                ("route".to_string(), Content::Str(route.to_string())),
                (
                    "requests_total".to_string(),
                    Content::F64(series.value.total),
                ),
                ("req_per_s".to_string(), rate_map(Some(&series.value))),
                (
                    "p50_us".to_string(),
                    Content::F64(fast.map(|w| w.p50_us).unwrap_or(0.0)),
                ),
                (
                    "p95_us".to_string(),
                    Content::F64(fast.map(|w| w.p95_us).unwrap_or(0.0)),
                ),
                (
                    "p99_us".to_string(),
                    Content::F64(fast.map(|w| w.p99_us).unwrap_or(0.0)),
                ),
            ])
        })
        .collect();

    let models: Vec<Content> = snap
        .counters
        .iter()
        .filter(|f| f.name == families::REQUESTS)
        .flat_map(|f| &f.series)
        .map(|series| {
            let labels = &series.labels;
            let model = labels
                .get("model")
                .or_else(|| labels.get("overflow").map(|_| "overflow"))
                .unwrap_or("unknown");
            let requests = &series.value;
            let misses = snap.counter(families::DEADLINE_MISSES, labels);
            let energy = snap.counter(families::ENERGY_UJ, labels);
            let e2e = snap.histogram(families::E2E_US, labels);

            let e2e_windows = Content::Map(
                WINDOWS_S
                    .iter()
                    .map(|&w| {
                        let q = e2e.and_then(|h| h.windows.iter().find(|x| x.window_s == w));
                        (
                            format!("{w}s"),
                            Content::Map(vec![
                                (
                                    "count".to_string(),
                                    Content::U64(q.map(|x| x.count).unwrap_or(0)),
                                ),
                                (
                                    "p50".to_string(),
                                    Content::F64(q.map(|x| x.p50_us).unwrap_or(0.0)),
                                ),
                                (
                                    "p95".to_string(),
                                    Content::F64(q.map(|x| x.p95_us).unwrap_or(0.0)),
                                ),
                                (
                                    "p99".to_string(),
                                    Content::F64(q.map(|x| x.p99_us).unwrap_or(0.0)),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            );

            let req_fast = wsum(Some(requests), slo::FAST_WINDOW_S);
            let req_slow = wsum(Some(requests), slo::SLOW_WINDOW_S);
            let miss_fast = slo::ratio(wsum(misses, slo::FAST_WINDOW_S), req_fast);
            let miss_slow = slo::ratio(wsum(misses, slo::SLOW_WINDOW_S), req_slow);
            let sheds_fast = model_family_sum(&snap, families::SHEDS, model, slo::FAST_WINDOW_S)
                + model_family_sum(&snap, families::BROWNOUT_SHEDS, model, slo::FAST_WINDOW_S);
            let sheds_slow = model_family_sum(&snap, families::SHEDS, model, slo::SLOW_WINDOW_S)
                + model_family_sum(&snap, families::BROWNOUT_SHEDS, model, slo::SLOW_WINDOW_S);
            // Sheds never become requests, so the offered load is the sum.
            let shed_fast = slo::ratio(sheds_fast, req_fast + sheds_fast);
            let shed_slow = slo::ratio(sheds_slow, req_slow + sheds_slow);
            let burn_miss_fast = slo::burn_rate(miss_fast, slo::MISS_OBJECTIVE);
            let burn_miss_slow = slo::burn_rate(miss_slow, slo::MISS_OBJECTIVE);
            let burn_shed_fast = slo::burn_rate(shed_fast, slo::SHED_OBJECTIVE);
            let burn_shed_slow = slo::burn_rate(shed_slow, slo::SHED_OBJECTIVE);
            let miss_state = slo::state(burn_miss_fast, burn_miss_slow);
            let shed_state = slo::state(burn_shed_fast, burn_shed_slow);
            let slo_state = if severity(shed_state) > severity(miss_state) {
                shed_state
            } else {
                miss_state
            };
            let energy_fast = wsum(energy, slo::FAST_WINDOW_S);
            let energy_per_inference = if req_fast > 0.0 {
                energy_fast / req_fast
            } else {
                0.0
            };
            let energy_rate = energy_fast / slo::FAST_WINDOW_S as f64;

            Content::Map(vec![
                ("model".to_string(), Content::Str(model.to_string())),
                (
                    "version".to_string(),
                    Content::Str(labels.get("version").unwrap_or("").to_string()),
                ),
                (
                    "backend".to_string(),
                    Content::Str(labels.get("backend").unwrap_or("").to_string()),
                ),
                ("requests_total".to_string(), Content::F64(requests.total)),
                ("req_per_s".to_string(), rate_map(Some(requests))),
                ("e2e_us".to_string(), e2e_windows),
                (
                    "energy_uj_per_inference".to_string(),
                    Content::F64(energy_per_inference),
                ),
                ("energy_uj_per_s".to_string(), Content::F64(energy_rate)),
                (
                    "deadline_miss_ratio".to_string(),
                    Content::Map(vec![
                        ("fast".to_string(), Content::F64(miss_fast)),
                        ("slow".to_string(), Content::F64(miss_slow)),
                    ]),
                ),
                (
                    "shed_ratio".to_string(),
                    Content::Map(vec![
                        ("fast".to_string(), Content::F64(shed_fast)),
                        ("slow".to_string(), Content::F64(shed_slow)),
                    ]),
                ),
                (
                    "burn".to_string(),
                    Content::Map(vec![
                        ("miss_fast".to_string(), Content::F64(burn_miss_fast)),
                        ("miss_slow".to_string(), Content::F64(burn_miss_slow)),
                        ("shed_fast".to_string(), Content::F64(burn_shed_fast)),
                        ("shed_slow".to_string(), Content::F64(burn_shed_slow)),
                    ]),
                ),
                ("slo_state".to_string(), Content::Str(slo_state.to_string())),
            ])
        })
        .collect();

    let degradation = Content::Map(vec![
        (
            "deadline_misses".to_string(),
            Content::U64(streaming.deadline_misses),
        ),
        (
            "wait_timeouts".to_string(),
            Content::U64(streaming.wait_timeouts),
        ),
        (
            "brownout_sheds".to_string(),
            Content::U64(streaming.brownout_shed_requests),
        ),
        (
            "queue_sheds".to_string(),
            Content::U64(streaming.shed_requests),
        ),
        (
            "batch_retries".to_string(),
            Content::U64(streaming.batch_retries),
        ),
        (
            "quarantined".to_string(),
            Content::U64(streaming.quarantined),
        ),
        (
            "gateway_shed_429".to_string(),
            Content::U64(gateway.shed_429),
        ),
        (
            "gateway_drained_503".to_string(),
            Content::U64(gateway.drained_503),
        ),
        (
            "gateway_timeout_504".to_string(),
            Content::U64(gateway.timeout_504),
        ),
    ]);

    let cumulative = Content::Map(vec![
        ("requests".to_string(), Content::U64(streaming.requests)),
        (
            "images_per_sec".to_string(),
            Content::F64(streaming.images_per_sec),
        ),
        ("e2e_p50_us".to_string(), Content::F64(streaming.e2e_p50_us)),
        ("e2e_p99_us".to_string(), Content::F64(streaming.e2e_p99_us)),
        (
            "queue_wait_share".to_string(),
            Content::F64(streaming.queue_wait_share),
        ),
        (
            "mean_batch_occupancy".to_string(),
            Content::F64(streaming.mean_batch_occupancy),
        ),
        ("batches".to_string(), Content::U64(streaming.batches)),
        (
            "flushes_edf_deadline".to_string(),
            Content::U64(streaming.flushes_edf_deadline),
        ),
        (
            "flushes_max_batch".to_string(),
            Content::U64(streaming.flushes_max_batch),
        ),
        (
            "flushes_drain".to_string(),
            Content::U64(streaming.flushes_drain),
        ),
        (
            "flushes_idle".to_string(),
            Content::U64(streaming.flushes_idle),
        ),
    ]);

    let trace = trace
        .map(|t| {
            Content::Map(vec![
                ("ring_spans".to_string(), Content::U64(t.ring_spans as u64)),
                (
                    "ring_capacity".to_string(),
                    Content::U64(t.ring_capacity as u64),
                ),
                ("spans_recorded".to_string(), Content::U64(t.spans_recorded)),
                ("spans_dropped".to_string(), Content::U64(t.spans_dropped)),
            ])
        })
        .unwrap_or(Content::Null);

    let log_section = log
        .map(|l| {
            Content::Map(vec![
                (
                    "events".to_string(),
                    Content::Map(
                        ["debug", "info", "warn", "error"]
                            .iter()
                            .zip(l.events.iter())
                            .map(|(name, &n)| (name.to_string(), Content::U64(n)))
                            .collect(),
                    ),
                ),
                ("dropped".to_string(), Content::U64(l.dropped)),
                ("ring_events".to_string(), Content::U64(l.ring_len as u64)),
                (
                    "ring_capacity".to_string(),
                    Content::U64(l.ring_capacity as u64),
                ),
                ("sink_suppressed".to_string(), Content::U64(l.suppressed)),
            ])
        })
        .unwrap_or(Content::Null);

    let build = Content::Map(vec![
        (
            "pkg_version".to_string(),
            Content::Str(env!("CARGO_PKG_VERSION").to_string()),
        ),
        (
            "profile".to_string(),
            Content::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
    ]);

    let body = Content::Map(vec![
        ("schema_version".to_string(), Content::U64(1)),
        ("now_s".to_string(), Content::U64(now_s)),
        ("uptime_s".to_string(), Content::F64(uptime_s)),
        (
            "windows_s".to_string(),
            Content::Seq(WINDOWS_S.iter().map(|&w| Content::U64(w)).collect()),
        ),
        (
            "slo".to_string(),
            Content::Map(vec![
                (
                    "miss_objective".to_string(),
                    Content::F64(slo::MISS_OBJECTIVE),
                ),
                (
                    "shed_objective".to_string(),
                    Content::F64(slo::SHED_OBJECTIVE),
                ),
                (
                    "fast_window_s".to_string(),
                    Content::U64(slo::FAST_WINDOW_S),
                ),
                (
                    "slow_window_s".to_string(),
                    Content::U64(slo::SLOW_WINDOW_S),
                ),
            ]),
        ),
        ("routes".to_string(), Content::Seq(routes)),
        ("models".to_string(), Content::Seq(models)),
        ("degradation".to_string(), degradation),
        ("cumulative".to_string(), cumulative),
        (
            "registry".to_string(),
            registry.map(|r| r.to_content()).unwrap_or(Content::Null),
        ),
        ("trace".to_string(), trace),
        ("log".to_string(), log_section),
        (
            "incidents".to_string(),
            Content::U64(log.map_or(0, |l| l.incidents_written)),
        ),
        ("build".to_string(), build),
    ]);
    serde_json::to_string(&body)
        .unwrap_or_else(|_| "{\"error\":\"internal error\"}".to_string())
        .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::field;
    use snn_runtime::StreamingRecorder;
    use snn_telemetry::Labels;

    #[test]
    fn stats_body_parses_and_carries_every_top_level_key() {
        let hub = TelemetryHub::new();
        let labels = Labels::new().with("model", "m").with("backend", "csr");
        let now = hub.now_s();
        hub.counter(families::REQUESTS, &labels).add(now, 5.0);
        hub.histogram(families::E2E_US, &labels)
            .record_us(now, 1500);
        hub.counter(families::ENERGY_UJ, &labels).add(now, 2000.0);
        let route = Labels::new().with("route", "infer");
        hub.counter(families::HTTP_REQUESTS, &route).add(now, 5.0);
        hub.histogram(families::HTTP_E2E_US, &route)
            .record_us(now, 1700);

        let streaming = StreamingRecorder::new().summarize();
        let gateway = crate::metrics::GatewayRecorder::new().summarize();
        let body = render_stats(&hub, &streaming, &gateway, None, None, None, 12.5);
        let text = String::from_utf8(body).unwrap();
        let parsed: Content = serde_json::from_str(&text).unwrap();
        let map = parsed.as_map().unwrap();
        assert_eq!(field(map, "schema_version").unwrap().as_u64(), Some(1));
        for key in [
            "now_s",
            "uptime_s",
            "windows_s",
            "slo",
            "routes",
            "models",
            "degradation",
            "cumulative",
            "registry",
            "trace",
            "log",
            "incidents",
            "build",
        ] {
            assert!(
                map.iter().any(|(k, _)| k == key),
                "missing top-level key {key:?} in {text}"
            );
        }
        let models = field(map, "models").unwrap().as_seq().unwrap();
        assert_eq!(models.len(), 1);
        let model = models[0].as_map().unwrap();
        assert_eq!(field(model, "model").unwrap().as_str(), Some("m"));
        assert_eq!(field(model, "slo_state").unwrap().as_str(), Some("ok"));
        // 2000 µJ over 5 inferences in the fast window.
        let per_inf = field(model, "energy_uj_per_inference")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((per_inf - 400.0).abs() < 1e-9, "got {per_inf}");
        let cumulative = field(map, "cumulative").unwrap().as_map().unwrap();
        for key in [
            "batches",
            "flushes_edf_deadline",
            "flushes_max_batch",
            "flushes_drain",
            "flushes_idle",
        ] {
            assert_eq!(field(cumulative, key).unwrap().as_u64(), Some(0), "{key}");
        }
        let routes = field(map, "routes").unwrap().as_seq().unwrap();
        assert_eq!(routes.len(), 1);
        assert_eq!(
            field(routes[0].as_map().unwrap(), "route")
                .unwrap()
                .as_str(),
            Some("infer")
        );
    }

    #[test]
    fn burning_model_reports_burning_state() {
        let hub = TelemetryHub::new();
        let labels = Labels::new().with("model", "hot");
        let now = hub.now_s();
        // 10% deadline misses over both SLO windows: 10× the 1% objective.
        hub.counter(families::REQUESTS, &labels).add(now, 100.0);
        hub.counter(families::DEADLINE_MISSES, &labels)
            .add(now, 10.0);
        let streaming = StreamingRecorder::new().summarize();
        let gateway = crate::metrics::GatewayRecorder::new().summarize();
        let body = render_stats(&hub, &streaming, &gateway, None, None, None, 1.0);
        let parsed: Content = serde_json::from_str(&String::from_utf8(body).unwrap()).unwrap();
        let models = field(parsed.as_map().unwrap(), "models")
            .unwrap()
            .as_seq()
            .unwrap();
        let model = models[0].as_map().unwrap();
        assert_eq!(field(model, "slo_state").unwrap().as_str(), Some("burning"));
    }
}
