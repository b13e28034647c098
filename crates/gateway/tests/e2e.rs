//! End-to-end serving guarantees through the full network stack:
//! HTTP/1.1 wire → JSON codec → `SubmitOptions` → EDF pending window →
//! worker → engine → JSON response.
//!
//! * **Equivalence property**: N concurrent HTTP clients with random
//!   per-request deadlines and priorities receive logits **bit-identical**
//!   to `EventSnn` over the same samples — batching composition, EDF
//!   reordering and two float↔text trips must all be invisible.
//! * **Backpressure on the wire**: with `max_pending` forced to 1, the
//!   gateway sheds with `429` while every `200` response stays correct —
//!   shedding must never corrupt an in-flight response.

#[path = "../../runtime/tests/common/mod.rs"]
mod common;

use std::sync::Arc;
use std::time::Duration;

use common::GatedBackend;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_gateway::{
    client::HttpClient, run_closed_loop, Gateway, GatewayConfig, InferRequest, LoadGenConfig,
};
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{BackendChoice, CsrEngine, StreamingConfig, StreamingServer};
use snn_sim::EventSnn;
use ttfs_core::{convert, Base2Kernel, SnnModel};

const DIMS: [usize; 3] = [1, 2, 4];
const SAMPLE_LEN: usize = 8;
const CLASSES: usize = 3;

fn dense_model(seed: u64) -> SnnModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(SAMPLE_LEN, 6, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(6, CLASSES, &mut rng)),
    ]);
    convert(&net, Base2Kernel::paper_default(), 24).unwrap()
}

proptest! {
    // Each case spins up a real TCP server and threads; keep cases few.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: concurrent HTTP clients, random arrival
    /// interleavings, random deadlines (including server-default) and
    /// random priorities — every returned logit row equals the reference
    /// event simulator's bit for bit.
    #[test]
    fn concurrent_http_clients_match_event_snn_bit_for_bit(
        seed in 0u64..256,
        clients in 2usize..5,
        max_batch in 1usize..6,
        delay_us in 0u64..2_000,
        deadline_hi_ms in 1.0f64..6.0,
        max_priority in 0u8..4,
    ) {
        let model = Arc::new(dense_model(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let n = 10usize;
        let x = snn_tensor::uniform(&[n, 1, 2, 4], 0.0, 1.0, &mut rng);
        let (expected, _) = EventSnn::new(&model).run(&x).expect("reference run");

        let server = Arc::new(
            BackendChoice::Csr
                .serve_streaming(
                    Arc::clone(&model),
                    &DIMS,
                    StreamingConfig {
                        threads: 2,
                        max_batch,
                        max_delay: Duration::from_micros(delay_us),
                        max_pending: 0,
                        brownout: None,
                    },
                )
                .expect("streaming stack"),
        );
        let mut gateway = Gateway::start(
            Arc::clone(&server),
            GatewayConfig {
                workers: clients,
                poll_interval: Duration::from_millis(5),
                ..GatewayConfig::for_dims(&DIMS)
            },
        )
        .expect("gateway start");

        let report = run_closed_loop(
            gateway.local_addr(),
            &x,
            Some(&expected),
            &LoadGenConfig {
                clients,
                passes: 2,
                deadline_ms: Some((0.0, deadline_hi_ms)),
                max_priority,
                seed,
                ..LoadGenConfig::default()
            },
        );
        let metrics = gateway.shutdown();
        let streaming = server.shutdown();

        prop_assert_eq!(report.transport_errors, 0, "no dropped connections");
        prop_assert_eq!(report.ok_200, report.requests, "every request served");
        prop_assert_eq!(report.mismatches, 0,
            "HTTP-served logits must be bit-identical to EventSnn");
        prop_assert_eq!(metrics.parse_errors, 0);
        prop_assert_eq!(streaming.requests, report.requests);
        prop_assert!(streaming.max_batch_occupancy as usize <= max_batch.max(1));
    }
}

/// Backpressure end-to-end: `max_pending = 1` forces `QueueFull` sheds;
/// the wire must show `429`s, the shed counter must see them, and no
/// `200` may carry corrupted logits.
#[test]
fn forced_backpressure_yields_429_without_corrupting_responses() {
    let model = Arc::new(dense_model(42));
    let mut rng = StdRng::seed_from_u64(99);
    let n = 8usize;
    let x = snn_tensor::uniform(&[n, 1, 2, 4], 0.0, 1.0, &mut rng);
    let (expected, _) = EventSnn::new(&model).run(&x).expect("reference run");

    // One admission slot, and a backend that holds whoever gets it until
    // the gate opens: every concurrent submitter bounces off max_pending.
    let backend = GatedBackend::closed(CsrEngine::compile(&model, &DIMS).unwrap());
    let server = Arc::new(StreamingServer::new(
        backend.clone(),
        StreamingConfig {
            threads: 1,
            max_batch: 64,
            max_delay: Duration::from_millis(2),
            max_pending: 1,
            brownout: None,
        },
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 4,
            poll_interval: Duration::from_millis(5),
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .expect("gateway start");

    let addr = gateway.local_addr();
    let report = std::thread::scope(|scope| {
        let load = scope.spawn(|| {
            run_closed_loop(
                addr,
                &x,
                Some(&expected),
                &LoadGenConfig {
                    clients: 4,
                    passes: 4,
                    deadline_ms: None,
                    max_priority: 0,
                    seed: 1234,
                    ..LoadGenConfig::default()
                },
            )
        });
        // Sheds are certain while the gate is closed; once one is on the
        // books the rest of the run may go either way.
        common::wait_until(|| server.metrics().shed_requests > 0);
        backend.open();
        load.join().expect("load generator")
    });
    let metrics = gateway.shutdown();
    let streaming = server.shutdown();

    assert!(
        report.shed_429 > 0,
        "max_pending=1 must shed on the wire: {report:?}"
    );
    assert!(report.ok_200 > 0, "some requests are admitted: {report:?}");
    assert_eq!(
        report.mismatches, 0,
        "sheds must not corrupt in-flight responses"
    );
    assert_eq!(report.transport_errors, 0);
    assert_eq!(
        metrics.shed_429, report.shed_429,
        "gateway counts every shed"
    );
    assert_eq!(
        streaming.shed_requests, report.shed_429,
        "StreamingMetrics::shed_requests sees the same sheds"
    );
    assert_eq!(streaming.requests, report.ok_200, "only 200s completed");
}

/// The Prometheus endpoint reflects real traffic, including sheds.
#[test]
fn metrics_endpoint_reports_traffic_and_sheds() {
    let model = Arc::new(dense_model(7));
    let server = Arc::new(
        BackendChoice::Csr
            .serve_streaming(
                Arc::clone(&model),
                &DIMS,
                StreamingConfig {
                    threads: 1,
                    max_batch: 2,
                    max_delay: Duration::from_millis(1),
                    max_pending: 0,
                    brownout: None,
                },
            )
            .unwrap(),
    );
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();

    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    let body =
        serde_json::to_string(&InferRequest::new(DIMS.to_vec(), vec![0.4; SAMPLE_LEN])).unwrap();
    for _ in 0..3 {
        assert_eq!(client.post_json("/v1/infer", &body).unwrap().status, 200);
    }
    let scrape = client.get("/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    let text = String::from_utf8(scrape.body).unwrap();
    assert!(
        text.contains("snn_gateway_route_requests_total{route=\"infer\"} 3"),
        "{text}"
    );
    assert!(text.contains("snn_streaming_requests_total 3"), "{text}");
    assert!(
        text.contains("snn_streaming_shed_requests_total 0"),
        "{text}"
    );
    gateway.shutdown();
    server.shutdown();
}

/// An absurd client-supplied deadline is clamped to the gateway's
/// handler timeout, so no client can push its EDF key (or its
/// deadline-miss line) out by a duration of its own choosing — and it is
/// answered at once either way: a deadline is never a wait.
#[test]
fn huge_client_deadline_is_clamped_to_handler_timeout() {
    let model = Arc::new(dense_model(33));
    let server = Arc::new(
        BackendChoice::Csr
            .serve_streaming(
                Arc::clone(&model),
                &DIMS,
                StreamingConfig {
                    threads: 1,
                    max_batch: 64,
                    max_delay: Duration::from_secs(30),
                    max_pending: 0,
                    brownout: None,
                },
            )
            .unwrap(),
    );
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            handler_timeout: Duration::from_millis(100),
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();

    let mut wire = InferRequest::new(DIMS.to_vec(), vec![0.2; SAMPLE_LEN]);
    wire.deadline_ms = Some(3_600_000.0); // one hour, as sent by the client
    let body = serde_json::to_string(&wire).unwrap();
    let started = std::time::Instant::now();
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    let response = client.post_json("/v1/infer", &body).unwrap();
    // Clamped to half the 100 ms handler budget — and never a wait in any
    // case — the request completes 200 inside the handler timeout,
    // nowhere near the requested hour.
    assert_eq!(response.status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "deadline must be clamped, not honored verbatim"
    );
    gateway.shutdown();
    server.shutdown();
}

/// `deadline_ms` on the wire is the request's place in the EDF order:
/// behind a busy worker, a tight-deadline request that arrived last leaves
/// first, riding with the earliest-admitted relaxed one — observed end to
/// end through HTTP as exact batch composition.
#[test]
fn tight_deadline_jumps_a_relaxed_backlog() {
    let backend = GatedBackend::closed(CsrEngine::compile(&dense_model(21), &DIMS).unwrap());
    let server = Arc::new(StreamingServer::new(
        backend.clone(),
        StreamingConfig {
            threads: 1,
            max_batch: 2,
            max_delay: Duration::from_secs(30),
            max_pending: 0,
            brownout: None,
        },
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 4,
            handler_timeout: Duration::from_secs(30),
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();
    let addr = gateway.local_addr();

    // One connection per request, each filled with its own pixel value so
    // the backend's batch log names it. `pending()` counts a request from
    // admission, so waiting on it fixes the arrival order.
    let mut in_flight = Vec::new();
    let mut post = |pixel: f32, deadline_ms: f64| {
        let mut request = InferRequest::new(DIMS.to_vec(), vec![pixel; SAMPLE_LEN]);
        request.deadline_ms = Some(deadline_ms);
        let body = serde_json::to_string(&request).unwrap();
        in_flight.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            client.post_json("/v1/infer", &body).unwrap()
        }));
        common::wait_until(|| server.pending() == in_flight.len());
    };
    post(0.1, 25_000.0);
    backend.wait_entered(1); // the only worker is now busy
    post(0.2, 25_000.0);
    post(0.3, 25_000.0);
    post(0.9, 1.0);
    backend.open();
    for response in in_flight {
        assert_eq!(response.join().unwrap().status, 200);
    }
    assert_eq!(
        backend.batches(),
        vec![vec![0.1], vec![0.9, 0.2], vec![0.3]],
        "the tight request jumped both relaxed ones"
    );
    assert_eq!(server.metrics().requests, 4);
    gateway.shutdown();
    server.shutdown();
}

/// The `504` path: with the only executor busy, a request waits on a
/// worker for at most `handler_timeout`, answers `504` with its error
/// body, and counts once in `/v1/stats`'s `wait_timeouts`. The abandoned
/// request still executes once the executor frees up — its reply is
/// discarded, and every admission is answered server-side.
#[test]
fn a_request_refused_an_executor_times_out_with_504() {
    let backend = GatedBackend::closed(CsrEngine::compile(&dense_model(22), &DIMS).unwrap());
    let server = Arc::new(StreamingServer::new(
        backend.clone(),
        StreamingConfig {
            threads: 1,
            max_batch: 2,
            max_delay: Duration::from_secs(30),
            max_pending: 0,
            brownout: None,
        },
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            handler_timeout: Duration::from_millis(50),
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();
    // Park the only executor in-process, outside any handler timeout.
    let parked = server
        .submit(&snn_tensor::Tensor::full(&DIMS, 0.1))
        .unwrap();
    backend.wait_entered(1);

    let body =
        serde_json::to_string(&InferRequest::new(DIMS.to_vec(), vec![0.2; SAMPLE_LEN])).unwrap();
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    let response = client.post_json("/v1/infer", &body).unwrap();
    assert_eq!(response.status, 504);
    let error: snn_gateway::ErrorBody =
        serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert!(
        error.error.starts_with("inference did not complete within"),
        "{error:?}"
    );
    let stats = client.get("/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let stats: serde::Content =
        serde_json::from_str(std::str::from_utf8(&stats.body).unwrap()).unwrap();
    let degradation = serde::field(stats.as_map().unwrap(), "degradation").unwrap();
    let count = |key: &str| {
        serde::field(degradation.as_map().unwrap(), key)
            .unwrap()
            .as_u64()
    };
    assert_eq!(count("wait_timeouts"), Some(1));
    assert_eq!(count("gateway_timeout_504"), Some(1));

    backend.open();
    parked.wait().expect("the parked request is answered");
    // The abandoned request still resolves server-side: its slot is
    // released only after its batch is booked.
    common::wait_until(|| server.pending() == 0);
    assert_eq!(server.metrics().requests, 2, "every admission answered");
    assert_eq!(backend.batches(), vec![vec![0.1], vec![0.2]]);
    gateway.shutdown();
    let metrics = server.shutdown();
    assert_eq!((metrics.requests, metrics.wait_timeouts), (2, 1));
}
