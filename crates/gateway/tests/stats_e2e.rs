//! End-to-end telemetry, readiness, and dashboard guarantees through the
//! full network stack:
//!
//! * `GET /v1/stats` serves the documented schema with a live per-model
//!   series after real inference traffic, and its windowed figures agree
//!   with the cumulative recorders on a short steady run.
//! * `POST /v1/infer` responses carry a positive modeled `energy_uj`.
//! * `GET /dashboard` serves a non-empty self-contained HTML page.
//! * `GET /readyz` flips to `503` after [`Gateway::begin_drain`] while
//!   `GET /healthz` keeps answering `200` — liveness and readiness are
//!   genuinely distinct probes.
//! * `GET /metrics` exposes the new `snn_registry_*` and trace-ring
//!   families when a registry and collector front the gateway.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{field, Content};
use snn_gateway::{client::HttpClient, Gateway, GatewayConfig, InferResponse};
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{CsrEngine, StreamingConfig, StreamingServer};
use ttfs_core::{convert, Base2Kernel, SnnModel};

const DIMS: [usize; 3] = [1, 2, 4];
const SAMPLE_LEN: usize = 8;

fn dense_model(seed: u64) -> SnnModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(SAMPLE_LEN, 6, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(6, 3, &mut rng)),
    ]);
    convert(&net, Base2Kernel::paper_default(), 24).unwrap()
}

fn start_gateway(seed: u64) -> (Gateway, Arc<snn_runtime::StreamingServer>) {
    let model = Arc::new(dense_model(seed));
    let server = Arc::new(StreamingServer::new(
        Arc::new(CsrEngine::compile_shared(Arc::clone(&model), &DIMS).expect("streaming stack")),
        StreamingConfig {
            threads: 1,
            max_batch: 4,
            // A deadline nothing here can miss: these tests read
            // the SLO state of a healthy server, and on a busy box a
            // tight one turns a scheduler stall into a burn.
            max_delay: Duration::from_millis(100),
            max_pending: 0,
            brownout: None,
        },
    ));
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            poll_interval: Duration::from_millis(5),
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .expect("gateway start");
    (gateway, server)
}

fn infer_body() -> String {
    r#"{"dims":[1,2,4],"pixels":[0.1,0.9,0.4,0.3,0.7,0.2,0.6,0.5]}"#.to_string()
}

#[test]
fn stats_route_serves_live_windowed_series_with_energy() {
    let (mut gateway, server) = start_gateway(7);
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();

    let n = 20usize;
    let mut energy_on_wire = 0.0f64;
    for _ in 0..n {
        let resp = client.post_json("/v1/infer", &infer_body()).unwrap();
        assert_eq!(resp.status, 200);
        let wire: InferResponse =
            serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(
            wire.energy_uj > 0.0,
            "each response must carry modeled energy, got {}",
            wire.energy_uj
        );
        energy_on_wire += wire.energy_uj;
    }

    let resp = client.get("/v1/stats").unwrap();
    assert_eq!(resp.status, 200);
    let text = std::str::from_utf8(&resp.body).unwrap();
    let parsed: Content = serde_json::from_str(text).expect("stats body parses as JSON");
    let map = parsed.as_map().unwrap();
    assert_eq!(field(map, "schema_version").unwrap().as_u64(), Some(1));

    // The default server's series is labeled model=default.
    let models = field(map, "models").unwrap().as_seq().unwrap();
    let model = models
        .iter()
        .map(|m| m.as_map().unwrap())
        .find(|m| field(m, "model").unwrap().as_str() == Some("default"))
        .expect("a model=default series");
    let e2e = field(model, "e2e_us").unwrap().as_map().unwrap();
    let w300 = field(e2e, "300s").unwrap().as_map().unwrap();
    assert_eq!(field(w300, "count").unwrap().as_u64(), Some(n as u64));
    let p50 = field(w300, "p50").unwrap().as_f64().unwrap();
    let p99 = field(w300, "p99").unwrap().as_f64().unwrap();
    assert!(p50 > 0.0 && p99 >= p50, "quantiles ordered: {p50} / {p99}");

    // Windowed p99 agrees with the cumulative recorder within the
    // documented log-linear-bin tolerance (bin upper edge: ≤ 25% + 1 µs
    // overshoot, never undershoot).
    let cumulative = field(map, "cumulative").unwrap().as_map().unwrap();
    assert_eq!(
        field(cumulative, "requests").unwrap().as_u64(),
        Some(n as u64)
    );
    let cum_p99 = field(cumulative, "e2e_p99_us").unwrap().as_f64().unwrap();
    assert!(
        p99 >= cum_p99 * 0.99 && p99 <= cum_p99 * 1.25 + 1.0,
        "windowed p99 {p99} vs cumulative {cum_p99} outside tolerance"
    );

    // Windowed energy attribution agrees with what rode the wire.
    let per_inf = field(model, "energy_uj_per_inference")
        .unwrap()
        .as_f64()
        .unwrap();
    let wire_mean = energy_on_wire / n as f64;
    assert!(
        (per_inf - wire_mean).abs() < wire_mean * 0.01 + 1e-9,
        "per-inference energy {per_inf} vs wire mean {wire_mean}"
    );
    assert_eq!(
        field(model, "slo_state").unwrap().as_str(),
        Some("ok"),
        "steady load within objectives"
    );

    // Per-route series observed the infer traffic.
    let routes = field(map, "routes").unwrap().as_seq().unwrap();
    assert!(
        routes
            .iter()
            .map(|r| r.as_map().unwrap())
            .any(|r| field(r, "route").unwrap().as_str() == Some("infer")),
        "an infer route series"
    );

    gateway.shutdown();
    server.shutdown();
}

#[test]
fn dashboard_serves_self_contained_html() {
    let (mut gateway, server) = start_gateway(8);
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    let resp = client.get("/dashboard").unwrap();
    assert_eq!(resp.status, 200);
    let html = std::str::from_utf8(&resp.body).unwrap();
    assert!(html.len() > 1000, "dashboard must be a real page");
    assert!(html.contains("<!DOCTYPE html>"));
    assert!(html.contains("/v1/stats"), "the page polls the stats route");
    for external in ["http://", "https://", "src=\"//"] {
        assert!(
            !html.contains(external),
            "dashboard must not reference external resources ({external})"
        );
    }
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn telemetry_off_disables_stats_routes_but_not_inference() {
    let model = Arc::new(dense_model(9));
    let server = Arc::new(StreamingServer::new(
        Arc::new(CsrEngine::compile_shared(Arc::clone(&model), &DIMS).unwrap()),
        StreamingConfig::default(),
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            telemetry: false,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    assert_eq!(client.get("/v1/stats").unwrap().status, 404);
    assert_eq!(client.get("/dashboard").unwrap().status, 404);
    let resp = client.post_json("/v1/infer", &infer_body()).unwrap();
    assert_eq!(resp.status, 200);
    let wire: InferResponse =
        serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(wire.energy_uj, 0.0, "no pricer without telemetry");
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn readiness_drains_while_liveness_stays_up() {
    let (mut gateway, server) = start_gateway(10);
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();

    let ready = client.get("/readyz").unwrap();
    assert_eq!(ready.status, 200);
    let parsed: Content = serde_json::from_str(std::str::from_utf8(&ready.body).unwrap()).unwrap();
    let map = parsed.as_map().unwrap();
    assert_eq!(field(map, "ready").unwrap().as_bool(), Some(true));
    assert_eq!(field(map, "draining").unwrap().as_bool(), Some(false));
    assert_eq!(
        field(map, "brownout_engaged").unwrap().as_bool(),
        Some(false)
    );
    assert_eq!(field(map, "breaker_open_models").unwrap().as_u64(), Some(0));
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    gateway.begin_drain();

    // Readiness flips; liveness does not. (Fresh connection: the drained
    // gateway stops keeping connections alive.)
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    let ready = client.get("/readyz").unwrap();
    assert_eq!(ready.status, 503);
    let parsed: Content = serde_json::from_str(std::str::from_utf8(&ready.body).unwrap()).unwrap();
    let map = parsed.as_map().unwrap();
    assert_eq!(field(map, "ready").unwrap().as_bool(), Some(false));
    assert_eq!(field(map, "draining").unwrap().as_bool(), Some(true));
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    // Ordinary traffic is refused while draining.
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    assert_eq!(
        client.post_json("/v1/infer", &infer_body()).unwrap().status,
        503
    );

    gateway.shutdown();
    server.shutdown();
}

#[test]
fn metrics_exposition_gains_trace_ring_and_new_counters() {
    let model = Arc::new(dense_model(11));
    let collector = Arc::new(snn_trace::TraceCollector::new(1024));
    let backend: Arc<dyn snn_runtime::InferenceBackend> =
        Arc::new(snn_runtime::CsrEngine::compile(&model, &DIMS).expect("csr compile"));
    let server = Arc::new(snn_runtime::StreamingServer::new_traced(
        backend,
        StreamingConfig {
            threads: 1,
            max_batch: 4,
            max_delay: Duration::from_micros(200),
            max_pending: 0,
            brownout: None,
        },
        Arc::clone(&collector),
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    assert_eq!(
        client.post_json("/v1/infer", &infer_body()).unwrap().status,
        200
    );
    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let text = std::str::from_utf8(&resp.body).unwrap();
    for family in [
        "snn_streaming_deadline_misses_total",
        "snn_trace_spans_recorded_total",
        "snn_trace_ring_spans",
        "snn_trace_ring_capacity 1024",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    gateway.shutdown();
    server.shutdown();
}
