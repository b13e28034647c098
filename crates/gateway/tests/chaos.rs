//! Seeded chaos soak through the full HTTP path: with the global
//! fault injector firing backend panics, backend slowdowns and wire-level
//! connection resets, every request must still resolve to exactly one
//! typed outcome (no hangs), every `200` must stay bit-identical to the
//! reference simulator, and after the storm the *same* serving stack must
//! come back clean. Also pins the `Retry-After` contract on wire-visible
//! backpressure.
//!
//! Tests that arm the process-global injector serialize on one mutex;
//! this battery owns its test binary so the injector cannot leak into
//! other processes' tests.

#[path = "../../runtime/tests/common/mod.rs"]
mod common;
#[path = "common/loadgen.rs"]
mod loadgen;

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use common::GatedBackend;
use loadgen::{run_closed_loop, LoadGenConfig};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{field, Content};
use snn_gateway::{client::HttpClient, Gateway, GatewayConfig, InferResponse};
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{
    BrownoutConfig, CsrEngine, FaultConfig, FaultInjector, StreamingConfig, StreamingServer,
};
use snn_sim::EventSnn;
use snn_trace::{TraceCollector, TraceId};
use ttfs_core::{convert, Base2Kernel, SnnModel};

/// One armed injector per process: tests take this before touching it.
static SERIAL: Mutex<()> = Mutex::new(());

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

/// Silences the default panic printer for *injected* panics only, for the
/// duration of the guard — the storm fires them on purpose, and each
/// would otherwise dump a stack trace into the test output. Real panics
/// still print.
struct QuietInjectedPanics;

impl QuietInjectedPanics {
    fn install() -> Self {
        let forward = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected backend panic"));
            if !injected {
                forward(info);
            }
        }));
        QuietInjectedPanics
    }
}

impl Drop for QuietInjectedPanics {
    fn drop(&mut self) {
        // Dropping our filter reinstalls the default hook.
        let _ = std::panic::take_hook();
    }
}

/// The capstone soak: three seeded storms through one serving stack.
/// Faults may fail individual requests — they may never corrupt one, hang
/// one, or take the stack down.
#[test]
fn seeded_chaos_storms_resolve_every_request_and_the_stack_survives() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _quiet = QuietInjectedPanics::install();
    let injector = FaultInjector::global();
    injector.disarm();

    let model = Arc::new(dense_model(42));
    let mut rng = StdRng::seed_from_u64(0xC4A0);
    let n = 10usize;
    let x = snn_tensor::uniform(&[n, 1, 2, 4], 0.0, 1.0, &mut rng);
    let (expected, _) = EventSnn::new(&model).run(&x).expect("reference run");

    // One stack for every storm: its workers must absorb each seed's
    // panics and still serve the clean pass at the end.
    let clients = 4usize;
    let server = Arc::new(StreamingServer::new(
        Arc::new(CsrEngine::compile_shared(Arc::clone(&model), &DIMS).expect("streaming stack")),
        StreamingConfig {
            threads: 2,
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            max_pending: 0,
            brownout: None,
        },
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: clients,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .expect("gateway start");

    let mut total_injected = 0u64;
    for seed in [0xFA11u64, 0xFA12, 0xFA13] {
        injector.arm(
            seed,
            FaultConfig {
                backend_panic: 0.08,
                backend_slow: 0.08,
                conn_reset: 0.08,
                slow_delay: Duration::from_micros(300),
                ..FaultConfig::default()
            },
        );
        let start = Instant::now();
        let report = run_closed_loop(
            gateway.local_addr(),
            &x,
            Some(&expected),
            &LoadGenConfig {
                clients,
                passes: 3,
                max_priority: 3,
                seed,
                retry_after_cap: Some(Duration::from_millis(2)),
                ..LoadGenConfig::default()
            },
        );
        injector.disarm();
        total_injected += injector.counts().total_fired();

        // Every request resolved to exactly one typed outcome: the five
        // buckets partition the total, and nothing hung the closed loop.
        assert_eq!(
            report.requests,
            report.ok_200
                + report.shed_429
                + report.unavailable_503
                + report.other_status
                + report.transport_errors,
            "storm seed {seed:#x}: unaccounted outcomes in {report:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "storm seed {seed:#x} stalled"
        );
        // Faults fail requests; they never corrupt a success.
        assert_eq!(
            report.mismatches, 0,
            "storm seed {seed:#x}: corrupted 200 in {report:?}"
        );
        assert!(report.ok_200 > 0, "storm seed {seed:#x} served nothing");
    }
    assert!(
        total_injected > 0,
        "the storms never actually fired a fault"
    );

    // Post-storm serviceability: injector disarmed, the same stack must
    // serve a clean all-200, bit-exact pass.
    let clean = run_closed_loop(
        gateway.local_addr(),
        &x,
        Some(&expected),
        &LoadGenConfig {
            clients,
            passes: 2,
            seed: 0xC1EA,
            ..LoadGenConfig::default()
        },
    );
    assert_eq!(clean.transport_errors, 0, "clean pass: {clean:?}");
    assert_eq!(clean.ok_200, clean.requests, "clean pass: {clean:?}");
    assert_eq!(clean.mismatches, 0, "clean pass: {clean:?}");

    gateway.shutdown();
    let streaming = server.shutdown();
    // Quarantine only ever happens on the solo-retry path of a panicked
    // batch: it can never outnumber the retried batches' riders, and a
    // quarantine without any batch retry would mean an innocent was
    // condemned without its second chance.
    assert!(
        streaming.quarantined == 0 || streaming.batch_retries > 0,
        "quarantined {} requests without a single batch retry",
        streaming.quarantined
    );
}

/// Wire-visible backpressure carries retry advice: a `429` shed by a full
/// admission queue includes a `Retry-After` header, and the client
/// parses it into the typed response.
#[test]
fn shed_429_carries_retry_after_and_the_client_parses_it() {
    // An injector armed by a concurrent storm would reset these
    // connections too.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // One admission slot, held by a request parked in the backend's
    // closed gate: a second request must shed on the wire.
    let backend = GatedBackend::closed(CsrEngine::compile(&dense_model(7), &DIMS).unwrap());
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
            workers: 2,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .expect("gateway start");
    let addr = gateway.local_addr();

    let body = format!(
        "{{\"dims\":[1,2,4],\"pixels\":{:?}}}",
        (0..SAMPLE_LEN).map(|i| i as f32 / 8.0).collect::<Vec<_>>()
    );
    let parker = {
        let body = body.clone();
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("parker connect");
            client
                .post_json("/v1/infer", &body)
                .expect("parker request")
        })
    };
    // The parker holds the slot from admission until the gate opens.
    backend.wait_entered(1);
    let mut client = HttpClient::connect(addr).expect("shed connect");
    let shed = client.post_json("/v1/infer", &body).expect("shed request");
    assert_eq!(shed.status, 429, "expected a wire-visible shed");
    assert_eq!(
        shed.retry_after,
        Some(1),
        "429 must carry parseable retry advice"
    );

    backend.open();
    let parked = parker.join().expect("parker thread");
    assert_eq!(parked.status, 200, "the slot holder is served");
    gateway.shutdown();
    server.shutdown();
}

/// Brownout is wire-visible and typed: once the admitted backlog reaches
/// high water, a low-priority request sheds as a `429` whose body names
/// the brownout (not a queue-full) while a higher priority rides on, and
/// once the backlog drains below low water everything is admitted again.
/// The backlog is parked behind a closed gate, so no step depends on how
/// the scheduler interleaves clients and the worker.
#[test]
fn brownout_sheds_low_priority_on_the_wire_and_recovers() {
    // An injector a sibling storm left armed would fire panics and
    // resets into this test's stack.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let model = dense_model(21);
    let pixels: Vec<f32> = (0..SAMPLE_LEN).map(|i| i as f32 / 8.0).collect();
    let x = snn_tensor::Tensor::from_vec(pixels.clone(), &[1, 1, 2, 4]).unwrap();
    let (expected, _) = EventSnn::new(&model).run(&x).expect("reference run");
    let backend = GatedBackend::closed(CsrEngine::compile(&model, &DIMS).unwrap());
    let server = Arc::new(StreamingServer::new(
        backend.clone(),
        StreamingConfig {
            threads: 1,
            max_batch: 2,
            max_delay: Duration::from_millis(4),
            max_pending: 0,
            brownout: Some(BrownoutConfig {
                high_water: 3,
                low_water: 1,
                shed_below_priority: 2,
            }),
        },
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 6,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .expect("gateway start");
    let addr = gateway.local_addr();
    let infer = move |priority: u8| {
        let body = format!("{{\"dims\":[1,2,4],\"pixels\":{pixels:?},\"priority\":{priority}}}");
        let mut client = HttpClient::connect(addr).expect("connect");
        client.post_json("/v1/infer", &body).expect("request")
    };
    let rider = |priority: u8| {
        let infer = infer.clone();
        std::thread::spawn(move || infer(priority))
    };

    // Three high-priority requests fill the backlog to high water: the
    // worker holds one or two of them in the closed gate.
    let mut riders: Vec<_> = (0..3).map(|_| rider(3)).collect();
    common::wait_until(|| server.pending() == 3);
    let shed = infer(0);
    assert_eq!(shed.status, 429, "priority 0 at high water must shed");
    let body = String::from_utf8_lossy(&shed.body);
    assert!(
        body.contains("brownout"),
        "the 429 names the brownout: {body}"
    );
    riders.push(rider(3));
    common::wait_until(|| server.pending() == 4);

    backend.open();
    for rider in riders {
        let response = rider.join().expect("rider thread");
        assert_eq!(response.status, 200, "higher priorities ride on");
        let wire: InferResponse =
            serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(
            wire.logits,
            expected.as_slice(),
            "sheds must not corrupt 200s"
        );
    }
    // Drained: brownout disengages below low water and priority 0 is
    // admitted again.
    common::wait_until(|| server.pending() == 0);
    assert_eq!(infer(0).status, 200, "post-drain priority 0 is served");

    gateway.shutdown();
    let streaming = server.shutdown();
    assert_eq!(
        streaming.brownout_shed_requests, 1,
        "wire sheds and the runtime counter must agree"
    );
}

/// The flight-recorder acceptance capstone: a seeded chaos storm against
/// a traced, incident-enabled gateway must leave behind a `quarantine`
/// incident whose post-mortem snapshot (a) is valid self-contained JSON,
/// (b) carries the condemned request's real, still-retrievable trace id
/// with at least one embedded flight-recorder event stamped with it, and
/// (c) embeds a `/v1/stats` snapshot with exactly the live endpoint's
/// schema. Also walks the incident and log HTTP surface end to end.
#[test]
fn chaos_storm_writes_trace_correlated_incident_snapshots() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _quiet = QuietInjectedPanics::install();
    let injector = FaultInjector::global();
    injector.disarm();

    let incidents_dir =
        std::env::temp_dir().join(format!("snn_chaos_incidents_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&incidents_dir);

    let model = Arc::new(dense_model(42));
    let mut rng = StdRng::seed_from_u64(0xC4A1);
    let n = 10usize;
    let x = snn_tensor::uniform(&[n, 1, 2, 4], 0.0, 1.0, &mut rng);
    let (expected, _) = EventSnn::new(&model).run(&x).expect("reference run");

    let collector = Arc::new(TraceCollector::new(0));
    let server = Arc::new(StreamingServer::new_traced(
        Arc::new(
            CsrEngine::compile_shared(Arc::clone(&model), &DIMS).expect("traced streaming stack"),
        ),
        StreamingConfig {
            threads: 2,
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            max_pending: 0,
            brownout: None,
        },
        Arc::clone(&collector),
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 4,
            incidents_dir: Some(incidents_dir.clone()),
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .expect("gateway start");
    let recorder = Arc::clone(
        gateway
            .incidents()
            .expect("incidents_dir enables the recorder"),
    );

    // Panic often enough that some batch's solo isolation retry panics
    // again — quarantine, the explicit trigger whose incident carries
    // the condemned request's trace id. The storms are seeded, so which
    // one produces it is deterministic.
    let mut quarantine: Option<(String, Content)> = None;
    'storms: for seed in [0x1AC1u64, 0x1AC2, 0x1AC3] {
        injector.arm(
            seed,
            FaultConfig {
                backend_panic: 0.35,
                ..FaultConfig::default()
            },
        );
        let report = run_closed_loop(
            gateway.local_addr(),
            &x,
            Some(&expected),
            &LoadGenConfig {
                clients: 4,
                passes: 3,
                max_priority: 3,
                seed,
                retry_after_cap: Some(Duration::from_millis(2)),
                ..LoadGenConfig::default()
            },
        );
        injector.disarm();
        assert_eq!(report.mismatches, 0, "storm seed {seed:#x}: corrupted 200");
        for id in recorder.list() {
            let bytes = recorder.read(&id).expect("listed incident is readable");
            let parsed: Content = serde_json::from_str(std::str::from_utf8(&bytes).unwrap())
                .expect("incident report is valid JSON");
            let is_quarantine = parsed.as_map().and_then(|m| {
                field(m, "kind")
                    .ok()
                    .and_then(Content::as_str)
                    .map(str::to_string)
            }) == Some("quarantine".to_string());
            if is_quarantine {
                quarantine = Some((id, parsed));
                break 'storms;
            }
        }
    }
    let (id, report) = quarantine.expect("no storm produced a quarantine incident");
    let map = report.as_map().expect("incident report is a JSON object");

    // (a) Self-contained: build info, the event window, drop accounting.
    let build = field(map, "build")
        .ok()
        .and_then(Content::as_map)
        .expect("incident embeds build info");
    assert!(field(build, "pkg_version")
        .ok()
        .and_then(Content::as_str)
        .is_some());
    assert!(field(map, "events_dropped").is_ok());

    // (b) Trace correlation: a real hex trace id, retrievable over the
    // wire, and at least one embedded flight-recorder event carries it.
    let trace_hex = field(map, "trace_id")
        .ok()
        .and_then(Content::as_str)
        .expect("a quarantine incident names its request's trace")
        .to_string();
    assert!(
        TraceId::parse_hex(&trace_hex).is_some(),
        "trace id {trace_hex:?} must be 16-digit hex"
    );
    let window = field(map, "events")
        .ok()
        .and_then(Content::as_seq)
        .expect("incident embeds the flight-recorder window");
    assert!(!window.is_empty(), "the event window must not be empty");
    assert!(
        window.iter().any(|event| {
            event
                .as_map()
                .and_then(|m| field(m, "trace").ok().and_then(Content::as_str))
                == Some(trace_hex.as_str())
        }),
        "no embedded event carries the incident's trace id {trace_hex}"
    );
    let mut client = HttpClient::connect(gateway.local_addr()).expect("connect");
    let tree = client
        .get(&format!("/v1/trace/{trace_hex}"))
        .expect("trace fetch");
    assert_eq!(tree.status, 200, "incident trace must be retrievable");

    // (c) The embedded stats snapshot has exactly the live schema: same
    // keys, same order — both come from the same renderer.
    let sections = field(map, "sections")
        .ok()
        .and_then(Content::as_map)
        .expect("incident embeds snapshot sections");
    let snapshot = field(sections, "stats")
        .ok()
        .and_then(Content::as_map)
        .expect("sections embed a parseable stats snapshot");
    assert!(field(sections, "faults").is_ok(), "fault counts section");
    if let Some(tree) = field(sections, "trace").ok().and_then(Content::as_map) {
        assert_eq!(
            field(tree, "trace_id").ok().and_then(Content::as_str),
            Some(trace_hex.as_str()),
            "the embedded trace tree is the incident's own"
        );
    }
    let live = client.get("/v1/stats").expect("stats fetch");
    assert_eq!(live.status, 200);
    let live: Content =
        serde_json::from_str(std::str::from_utf8(&live.body).unwrap()).expect("live stats parse");
    let live_keys: Vec<&String> = live
        .as_map()
        .expect("live stats is a JSON object")
        .iter()
        .map(|(k, _)| k)
        .collect();
    let snapshot_keys: Vec<&String> = snapshot.iter().map(|(k, _)| k).collect();
    assert_eq!(
        snapshot_keys, live_keys,
        "incident stats snapshot must match the live /v1/stats schema"
    );

    // The HTTP surface serves the same artifacts.
    let list = client.get("/v1/incidents").expect("incident list");
    assert_eq!(list.status, 200);
    assert!(
        String::from_utf8(list.body).unwrap().contains(&id),
        "/v1/incidents must list {id}"
    );
    let fetched = client
        .get(&format!("/v1/incidents/{id}"))
        .expect("incident fetch");
    assert_eq!(fetched.status, 200);
    assert_eq!(
        fetched.body,
        recorder.read(&id).unwrap(),
        "/v1/incidents/<id> serves the report verbatim"
    );
    let logs = client.get("/v1/logs?level=error").expect("logs fetch");
    assert_eq!(logs.status, 200);
    let logs: Content =
        serde_json::from_str(std::str::from_utf8(&logs.body).unwrap()).expect("logs parse");
    let recorded = logs
        .as_map()
        .and_then(|m| field(m, "events").ok().and_then(Content::as_seq))
        .expect("/v1/logs returns an events array");
    assert!(
        !recorded.is_empty(),
        "the storm must leave error events behind in /v1/logs"
    );

    gateway.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&incidents_dir);
}
