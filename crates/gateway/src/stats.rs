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
//!   "now_s": 63,                  // process clock, seconds since its first read
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
//!   "degradation": {"deadline_misses": 0, ..., "gateway_timeout_504": 0},
//!   "cumulative": {"requests": 810, ..., "flushes_idle": 171},
//!   "registry": {"catalog_models": 3, ...} | null,
//!   "trace": {"ring_spans": 512, ...} | null,
//!   "log": {"events": {"debug": 0, ...}, "dropped": 0, ...} | null,
//!   "incidents": 1,              // 0 when logging is off
//!   "build": {"pkg_version": "0.1.0", "profile": "release"}
//! }
//! ```
//!
//! Windowed and cumulative figures read the same cells: each recorder
//! publishes its own cells into the hub, and a window is the cell's
//! running value minus its first mark inside the window, so a windowed
//! count never exceeds the cumulative one. `now_s` is
//! [`snn_telemetry::now_s`], the one process clock every cell is stamped
//! with — not the gateway's start (`uptime_s` is that).
//!
//! Every quantile, windowed or `cumulative`, is served from the telemetry
//! crate's log-linear bins, which report a bin's **upper** edge: it may
//! exceed the exact sample quantile by up to 25% + 1 µs, never undershoot
//! it. The cumulative ones are also clamped to the exact maximum. Counts,
//! `queue_wait_share` and `registry` are exact; windowed energy sums are
//! differences of running `f64` totals. Ratios whose window saw no
//! traffic are `0.0` (healthy-by-vacuity, never `NaN`).
//!
//! `degradation` (the ladder, mildest to harshest), `cumulative` (the
//! default server's cells, read cumulatively), `registry`, `trace`, `log`
//! and `incidents` hold the rows of the `INSTRUMENTS` table
//! (`crates/gateway/src/metrics.rs`) that `/metrics` is
//! rendered from too, one key per row (`docs/OBSERVABILITY.md` lists them
//! all); `routes`, `models` and `slo` are windowed views of the hub and
//! are written here.
//! The body is written in one pass with [`serde_json::write_f64`] and
//! [`serde_json::write_escaped`], so it is byte for byte what
//! `serde_json::to_string` prints for the same document; a figure JSON
//! cannot spell (a non-finite float) turns the whole body into
//! `{"error":"internal error"}`.
//!
//! A `name@version` reloaded after eviction publishes fresh cells under
//! the same labels, replacing the old ones: its series restart from zero,
//! which a scraper reads as a counter reset. `models` includes at most
//! [`snn_telemetry::MAX_SERIES_PER_FAMILY`] entries; a server whose labels
//! arrive past that cap is not listed at all (its own `StreamingMetrics`
//! stay exact). An `overflow=true` row — shown with `"model": "overflow"`
//! — appears only when direct hub lookups overflow the cap; no recorder
//! ever merges into it.

use serde_json::{write_escaped, write_f64};
use snn_runtime::{RegistryMetrics, StreamingMetrics};
use snn_telemetry::{
    families, slo, CounterSnapshot, HubSnapshot, SeriesSnapshot, TelemetryHub, WindowQuantiles,
    WINDOWS_S,
};
use std::fmt::Write as _;

use crate::metrics::{GatewayMetrics, Instrument, LogStats, Num, Sources, TraceStats, INSTRUMENTS};

/// A JSON writer over a `String` that prints numbers and strings with the
/// `serde_json` shim's own rules, so a document comes out as
/// `serde_json::to_string` would print it.
#[derive(Default)]
struct Json {
    out: String,
    /// Whether the next key or value follows a sibling.
    comma: bool,
    /// A float JSON cannot spell was written.
    non_finite: bool,
}

impl Json {
    fn sep(&mut self) {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
    }

    /// Starts an object member; its value is the next thing written.
    fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        write_escaped(key, &mut self.out);
        self.out.push(':');
        self.comma = false;
        self
    }

    fn u64(&mut self, v: u64) {
        self.sep();
        let _ = write!(self.out, "{v}");
    }

    fn f64(&mut self, v: f64) {
        self.sep();
        self.non_finite |= write_f64(v, &mut self.out).is_err();
    }

    fn num(&mut self, v: Num) {
        match v {
            Num::U(v) => self.u64(v),
            Num::F(v) => self.f64(v),
        }
    }

    fn str(&mut self, s: &str) {
        self.sep();
        write_escaped(s, &mut self.out);
    }

    fn null(&mut self) {
        self.sep();
        self.out.push_str("null");
    }

    fn object(&mut self, members: impl FnOnce(&mut Self)) {
        self.nest('{', members, '}');
    }

    fn array(&mut self, items: impl FnOnce(&mut Self)) {
        self.nest('[', items, ']');
    }

    fn nest(&mut self, open: char, body: impl FnOnce(&mut Self), close: char) {
        self.sep();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
    }
}

/// Sum a counter snapshot's `window_s` window (0 when absent).
fn wsum(counter: Option<&CounterSnapshot>, window_s: u64) -> f64 {
    counter
        .and_then(|c| c.windows.iter().find(|w| w.window_s == window_s))
        .map(|w| w.sum)
        .unwrap_or(0.0)
}

/// `{"10s": rate, "60s": rate, "300s": rate}` for one counter.
fn rates(w: &mut Json, counter: &CounterSnapshot) {
    w.object(|w| {
        for window in &counter.windows {
            w.key(&format!("{}s", window.window_s))
                .f64(window.rate_per_s);
        }
    });
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
        // Not `sum()`: an empty `f64` sum is `-0.0`, which prints as such.
        .fold(0.0, |total, v| total + v)
}

/// `"ok"` < `"warn"` < `"burning"`.
fn severity(state: &str) -> u8 {
    match state {
        "ok" => 0,
        "warn" => 1,
        _ => 2,
    }
}

/// One `routes[]` entry: a route's request counter and its fast-window
/// latency quantiles.
fn route(w: &mut Json, snap: &HubSnapshot, series: &SeriesSnapshot<CounterSnapshot>) {
    let route = series.labels.get("route").unwrap_or("unknown");
    let hist = snap.histogram(families::HTTP_E2E_US, &series.labels);
    let fast = hist.and_then(|h| h.windows.iter().find(|w| w.window_s == slo::FAST_WINDOW_S));
    let quantile = |q: fn(&WindowQuantiles) -> f64| fast.map_or(0.0, q);
    w.object(|w| {
        w.key("route").str(route);
        w.key("requests_total").f64(series.value.total);
        rates(w.key("req_per_s"), &series.value);
        w.key("p50_us").f64(quantile(|q| q.p50_us));
        w.key("p95_us").f64(quantile(|q| q.p95_us));
        w.key("p99_us").f64(quantile(|q| q.p99_us));
    });
}

/// One `models[]` entry: a model's windowed rates, latency, energy and
/// SLO burn.
fn model(w: &mut Json, snap: &HubSnapshot, series: &SeriesSnapshot<CounterSnapshot>) {
    let labels = &series.labels;
    let model = labels
        .get("model")
        .or_else(|| labels.get("overflow").map(|_| "overflow"))
        .unwrap_or("unknown");
    let requests = &series.value;
    let misses = snap.counter(families::DEADLINE_MISSES, labels);
    let energy = snap.counter(families::ENERGY_UJ, labels);
    let e2e = snap.histogram(families::E2E_US, labels);

    let req_fast = wsum(Some(requests), slo::FAST_WINDOW_S);
    let req_slow = wsum(Some(requests), slo::SLOW_WINDOW_S);
    let miss_fast = slo::ratio(wsum(misses, slo::FAST_WINDOW_S), req_fast);
    let miss_slow = slo::ratio(wsum(misses, slo::SLOW_WINDOW_S), req_slow);
    let sheds_fast = model_family_sum(snap, families::SHEDS, model, slo::FAST_WINDOW_S)
        + model_family_sum(snap, families::BROWNOUT_SHEDS, model, slo::FAST_WINDOW_S);
    let sheds_slow = model_family_sum(snap, families::SHEDS, model, slo::SLOW_WINDOW_S)
        + model_family_sum(snap, families::BROWNOUT_SHEDS, model, slo::SLOW_WINDOW_S);
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

    w.object(|w| {
        w.key("model").str(model);
        w.key("version").str(labels.get("version").unwrap_or(""));
        w.key("backend").str(labels.get("backend").unwrap_or(""));
        w.key("requests_total").f64(requests.total);
        rates(w.key("req_per_s"), requests);
        w.key("e2e_us").object(|w| {
            for window_s in WINDOWS_S {
                let q = e2e.and_then(|h| h.windows.iter().find(|x| x.window_s == window_s));
                let quantile = |f: fn(&WindowQuantiles) -> f64| q.map_or(0.0, f);
                w.key(&format!("{window_s}s")).object(|w| {
                    w.key("count").u64(q.map_or(0, |x| x.count));
                    w.key("p50").f64(quantile(|x| x.p50_us));
                    w.key("p95").f64(quantile(|x| x.p95_us));
                    w.key("p99").f64(quantile(|x| x.p99_us));
                });
            }
        });
        w.key("energy_uj_per_inference").f64(energy_per_inference);
        w.key("energy_uj_per_s").f64(energy_rate);
        w.key("deadline_miss_ratio").object(|w| {
            w.key("fast").f64(miss_fast);
            w.key("slow").f64(miss_slow);
        });
        w.key("shed_ratio").object(|w| {
            w.key("fast").f64(shed_fast);
            w.key("slow").f64(shed_slow);
        });
        w.key("burn").object(|w| {
            w.key("miss_fast").f64(burn_miss_fast);
            w.key("miss_slow").f64(burn_miss_slow);
            w.key("shed_fast").f64(burn_shed_fast);
            w.key("shed_slow").f64(burn_shed_slow);
        });
        w.key("slo_state").str(slo_state);
    });
}

/// The [`INSTRUMENTS`] rows that have a `/v1/stats` place, section by
/// section. A section is `null` when its snapshot is absent, and a
/// top-level key (section `""`) is then `0`. Rows sharing a key form an
/// object keyed by their label values.
fn instruments(w: &mut Json, sources: &Sources) {
    let place = |row: &Instrument| row.stats.unwrap_or_default();
    let rows: Vec<&Instrument> = INSTRUMENTS.iter().filter(|r| r.stats.is_some()).collect();
    for rows in rows.chunk_by(|a, b| place(a).0 == place(b).0) {
        let section = place(rows[0]).0;
        if section.is_empty() {
            for row in rows {
                w.key(place(row).1)
                    .num(row.read(sources).unwrap_or(Num::U(0)));
            }
            continue;
        }
        let cells: Option<Vec<(&Instrument, Num)>> = rows
            .iter()
            .map(|&row| Some((row, row.read(sources)?)))
            .collect();
        let Some(cells) = cells else {
            w.key(section).null();
            continue;
        };
        w.key(section).object(|w| {
            for keyed in cells.chunk_by(|(a, _), (b, _)| place(a).1 == place(b).1) {
                w.key(place(keyed[0].0).1);
                match keyed {
                    [(_, value)] => w.num(*value),
                    _ => w.object(|w| {
                        for (row, value) in keyed {
                            w.key(row.label.unwrap_or_default().1).num(*value);
                        }
                    }),
                }
            }
        });
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
    let sources = Sources {
        gateway,
        streaming,
        registry,
        trace,
        log,
    };
    let series = |family: &'static str| {
        snap.counters
            .iter()
            .filter(move |f| f.name == family)
            .flat_map(|f| &f.series)
    };
    let mut w = Json {
        out: String::with_capacity(4096),
        ..Json::default()
    };
    w.object(|w| {
        w.key("schema_version").u64(1);
        w.key("now_s").u64(now_s);
        w.key("uptime_s").f64(uptime_s);
        w.key("windows_s")
            .array(|w| WINDOWS_S.into_iter().for_each(|s| w.u64(s)));
        w.key("slo").object(|w| {
            w.key("miss_objective").f64(slo::MISS_OBJECTIVE);
            w.key("shed_objective").f64(slo::SHED_OBJECTIVE);
            w.key("fast_window_s").u64(slo::FAST_WINDOW_S);
            w.key("slow_window_s").u64(slo::SLOW_WINDOW_S);
        });
        w.key("routes").array(|w| {
            for s in series(families::HTTP_REQUESTS) {
                route(w, &snap, s);
            }
        });
        w.key("models").array(|w| {
            for s in series(families::REQUESTS) {
                model(w, &snap, s);
            }
        });
        instruments(w, &sources);
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        w.key("build").object(|w| {
            w.key("pkg_version").str(env!("CARGO_PKG_VERSION"));
            w.key("profile").str(profile);
        });
    });
    if w.non_finite {
        return b"{\"error\":\"internal error\"}".to_vec();
    }
    w.out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_runtime::StreamingRecorder;
    use snn_telemetry::Labels;

    fn render(hub: &TelemetryHub) -> String {
        let streaming = StreamingRecorder::new().summarize();
        let gateway = crate::metrics::GatewayRecorder::new().summarize();
        let body = render_stats(hub, &streaming, &gateway, None, None, None, 12.5);
        String::from_utf8(body).unwrap()
    }

    #[test]
    fn stats_body_carries_every_top_level_key() {
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

        let text = render(&hub);
        assert!(text.starts_with("{\"schema_version\":1,"), "{text}");
        let mut at = 0;
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
            let found = text[at..].find(&format!("\"{key}\":"));
            at += found.unwrap_or_else(|| panic!("missing top-level key {key:?} in {text}"));
        }
        // The absent sources are null, the incident count 0.
        assert!(text.contains("\"registry\":null,\"trace\":null,\"log\":null,\"incidents\":0,"));
        assert!(text.contains("\"routes\":[{\"route\":\"infer\",\"requests_total\":5.0,"));
        assert!(text.contains("\"models\":[{\"model\":\"m\",\"version\":\"\",\"backend\":\"csr\","));
        assert_eq!(text.matches("\"slo_state\":\"ok\"").count(), 1, "{text}");
        // 2000 µJ over 5 inferences in the fast window.
        assert!(
            text.contains("\"energy_uj_per_inference\":400.0,"),
            "{text}"
        );
        // A model with no shed series never shed: `0.0`, not the `-0.0`
        // of an empty `f64` sum.
        assert!(
            text.contains("\"shed_ratio\":{\"fast\":0.0,\"slow\":0.0}"),
            "{text}"
        );
        assert!(
            text.contains("\"shed_fast\":0.0,\"shed_slow\":0.0}"),
            "{text}"
        );
        assert!(text.contains(
            "\"batches\":0,\"flushes_edf_deadline\":0,\"flushes_max_batch\":0,\"flushes_drain\":0,\"flushes_idle\":0}"
        ));
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
        assert!(render(&hub).contains("\"slo_state\":\"burning\"}]"));
    }

    /// Nested, empty and escaped values print as the shim's `to_string`
    /// prints them.
    #[test]
    fn writer_prints_what_the_shim_prints() {
        let mut w = Json::default();
        w.object(|w| {
            w.key("a\"\u{8}").array(|w| {
                w.u64(0);
                w.f64(-0.0);
                w.f64(1e16);
                w.str("\\\n\u{1f}é");
                w.null();
                w.object(|_| {});
                w.array(|_| {});
            });
            w.key("b").f64(0.1);
        });
        assert!(!w.non_finite);
        let expected = r#"{"a\"\b":[0,-0.0,10000000000000000,"\\\n\u001fé",null,{},[]],"b":0.1}"#;
        assert_eq!(w.out, expected);
        w.f64(f64::INFINITY);
        assert!(w.non_finite);
    }
}
