//! End-to-end request tracing through the full network stack: every
//! `POST /v1/infer` against a traced gateway yields a `trace_id` whose
//! `GET /v1/trace/<id>` tree spans the whole lifecycle — socket receive,
//! parse, decode, EDF queue wait, flush (with its reason), per-CSR-stage
//! execution, and response write — and tracing never perturbs logits.

#[path = "../../runtime/tests/common/mod.rs"]
mod common;

use std::sync::Arc;
use std::time::Duration;

use common::GatedBackend;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{field, Content};
use snn_gateway::{client::HttpClient, Gateway, GatewayConfig, InferRequest, InferResponse};
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{
    BackendHint, CsrEngine, ModelArtifact, ModelRegistry, RegistryConfig, StreamingConfig,
    StreamingServer,
};
use snn_sim::EventSnn;
use snn_trace::TraceCollector;
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

fn traced_stack(seed: u64, config: StreamingConfig) -> (Arc<StreamingServer>, Arc<TraceCollector>) {
    let model = Arc::new(dense_model(seed));
    let collector = Arc::new(TraceCollector::new(0));
    let server = Arc::new(StreamingServer::new_traced(
        Arc::new(CsrEngine::compile_shared(model, &DIMS).expect("traced streaming stack")),
        config,
        Arc::clone(&collector),
    ));
    (server, collector)
}

/// One parsed span from the `GET /v1/trace/<id>` JSON body.
#[derive(Debug, Clone)]
struct WireSpan {
    span_id: u64,
    parent_id: u64,
    name: String,
    start_us: u64,
    dur_us: u64,
    attrs: Vec<(String, Content)>,
}

impl WireSpan {
    fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    fn attr(&self, key: &str) -> Option<&Content> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Fetches and parses one trace tree; panics on any malformed payload.
fn fetch_tree(client: &mut HttpClient, trace_id: &str) -> Vec<WireSpan> {
    let response = client
        .get(&format!("/v1/trace/{trace_id}"))
        .expect("trace fetch");
    assert_eq!(response.status, 200, "trace {trace_id} must be retrievable");
    let body = String::from_utf8(response.body).unwrap();
    let parsed: Content = serde_json::from_str(&body).unwrap();
    let map = parsed.as_map().unwrap();
    assert_eq!(
        field(map, "trace_id").unwrap().as_str(),
        Some(trace_id),
        "tree echoes its id"
    );
    field(map, "spans")
        .unwrap()
        .as_seq()
        .unwrap()
        .iter()
        .map(|span| {
            let span = span.as_map().unwrap();
            WireSpan {
                span_id: field(span, "span_id").unwrap().as_u64().unwrap(),
                parent_id: field(span, "parent_id").unwrap().as_u64().unwrap(),
                name: field(span, "name").unwrap().as_str().unwrap().to_string(),
                start_us: field(span, "start_us").unwrap().as_u64().unwrap(),
                dur_us: field(span, "dur_us").unwrap().as_u64().unwrap(),
                attrs: field(span, "attrs").unwrap().as_map().unwrap().to_vec(),
            }
        })
        .collect()
}

/// A complete, well-formed tree: exactly one root, every parent present,
/// child intervals nested inside their parent's, and at least one span
/// per lifecycle layer.
fn assert_tree_complete(spans: &[WireSpan], trace_id: &str) {
    let roots: Vec<&WireSpan> = spans.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "one root in {trace_id}: {spans:#?}");
    assert_eq!(roots[0].name, "http.request");
    for required in [
        "http.parse",
        "request.decode",
        "infer.submit",
        "queue.wait",
        "batch.flush",
        "batch.exec",
        "csr.chunk",
        "encode",
        "stage.exec",
        "ticket.wait",
        "http.respond",
    ] {
        assert!(
            spans.iter().any(|s| s.name == required),
            "trace {trace_id} is missing {required}: {spans:#?}"
        );
    }
    for span in spans {
        if span.parent_id == 0 {
            continue;
        }
        let parent = spans
            .iter()
            .find(|p| p.span_id == span.parent_id)
            .unwrap_or_else(|| panic!("orphan span in {trace_id}: {span:?}"));
        assert!(
            span.start_us >= parent.start_us && span.end_us() <= parent.end_us(),
            "span {span:?} does not nest inside {parent:?}"
        );
    }
    let flush = spans.iter().find(|s| s.name == "batch.flush").unwrap();
    let reason = flush.attr("reason").and_then(Content::as_str);
    assert!(
        matches!(
            reason,
            Some("edf_deadline" | "max_batch" | "drain" | "idle")
        ),
        "flush reason must be attributed: {flush:?}"
    );
    let stage = spans.iter().find(|s| s.name == "stage.exec").unwrap();
    assert!(
        stage.attr("kind").is_some(),
        "stage spans carry their layer kind: {stage:?}"
    );
}

/// The acceptance path: one request, its `trace_id` echoed in the JSON
/// response, and a follow-up `GET /v1/trace/<id>` returning a complete
/// tree whose root covers (at least) the measured end-to-end latency.
#[test]
fn trace_tree_covers_the_request_it_describes() {
    let (server, _collector) = traced_stack(
        51,
        StreamingConfig {
            threads: 2,
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            max_pending: 0,
            brownout: None,
        },
    );
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();

    let body =
        serde_json::to_string(&InferRequest::new(DIMS.to_vec(), vec![0.4; SAMPLE_LEN])).unwrap();
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    let response = client.post_json("/v1/infer", &body).unwrap();
    assert_eq!(response.status, 200);
    let wire: InferResponse =
        serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
    assert_eq!(
        wire.trace_id.len(),
        16,
        "traced gateways echo a 16-hex-digit id: {:?}",
        wire.trace_id
    );

    let spans = fetch_tree(&mut client, &wire.trace_id);
    assert_tree_complete(&spans, &wire.trace_id);
    let root = spans.iter().find(|s| s.parent_id == 0).unwrap();
    assert!(
        root.dur_us as f64 >= 0.95 * wire.e2e_us,
        "root span ({} us) must cover >=95% of the measured e2e ({} us)",
        root.dur_us,
        wire.e2e_us
    );
    gateway.shutdown();
    server.shutdown();
}

/// A caller-chosen `x-snn-trace-id` header is honored: the response echoes
/// it and the tree is filed under it.
#[test]
fn caller_supplied_trace_id_is_honored() {
    let (server, _collector) = traced_stack(52, StreamingConfig::default());
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();

    let body =
        serde_json::to_string(&InferRequest::new(DIMS.to_vec(), vec![0.6; SAMPLE_LEN])).unwrap();
    let chosen = "00000000deadbeef";
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    client
        .send_raw(
            format!(
                "POST /v1/infer HTTP/1.1\r\nHost: gateway\r\n\
                 x-snn-trace-id: {chosen}\r\n\
                 Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 200);
    let wire: InferResponse =
        serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
    assert_eq!(wire.trace_id, chosen, "the caller's id rides through");
    let spans = fetch_tree(&mut client, chosen);
    assert_tree_complete(&spans, chosen);
    gateway.shutdown();
    server.shutdown();
}

/// A traced request that fails still gets its root: a wrong-dims
/// `POST /v1/infer` answers 400, and its tree holds exactly one root —
/// `http.request` carrying that status — with no orphaned children.
#[test]
fn a_rejected_request_still_gets_its_root_span() {
    let (server, _collector) = traced_stack(54, StreamingConfig::default());
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();
    let body =
        serde_json::to_string(&InferRequest::new(vec![1, 4, 2], vec![0.4; SAMPLE_LEN])).unwrap();
    let chosen = "00000000bad0d135";
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    client
        .send_raw(
            format!(
                "POST /v1/infer HTTP/1.1\r\nHost: gateway\r\n\
                 x-snn-trace-id: {chosen}\r\n\
                 Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    assert_eq!(client.read_response().unwrap().status, 400);

    let spans = fetch_tree(&mut client, chosen);
    let roots: Vec<&WireSpan> = spans.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "one root: {spans:#?}");
    assert_eq!(roots[0].name, "http.request");
    assert_eq!(
        roots[0].attr("status").and_then(Content::as_u64),
        Some(400),
        "the root carries the status: {spans:#?}"
    );
    for span in &spans {
        assert!(
            span.parent_id == 0 || spans.iter().any(|p| p.span_id == span.parent_id),
            "orphan span: {span:?}"
        );
    }
    assert!(spans.iter().any(|s| s.name == "http.parse"));
    gateway.shutdown();
    server.shutdown();
}

/// A traced swap that fails — here to a version the catalog lacks — still
/// gets exactly one `http.request` root carrying its status, and nothing
/// under it is orphaned.
#[test]
fn a_failed_swap_still_gets_its_root_span() {
    let dir = std::env::temp_dir().join(format!("snn_trace_swap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    ModelArtifact::build("alpha", "1", dense_model(56), &DIMS, BackendHint::Csr)
        .unwrap()
        .save(dir.join("alpha@1.snna"))
        .unwrap();
    let registry = Arc::new(ModelRegistry::open(&dir, RegistryConfig::default()).unwrap());
    let (server, _collector) = traced_stack(56, StreamingConfig::default());
    let mut gateway = Gateway::start_with_registry(
        Arc::clone(&server),
        Arc::clone(&registry),
        GatewayConfig {
            workers: 2,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();
    let body = r#"{"version":"9"}"#;
    let chosen = "00000000005a9f00";
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    client
        .send_raw(
            format!(
                "POST /v1/models/alpha/swap HTTP/1.1\r\nHost: gateway\r\n\
                 x-snn-trace-id: {chosen}\r\n\
                 Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    assert_eq!(client.read_response().unwrap().status, 404);

    let spans = fetch_tree(&mut client, chosen);
    let roots: Vec<&WireSpan> = spans.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "one root: {spans:#?}");
    assert_eq!(roots[0].name, "http.request");
    assert_eq!(
        roots[0].attr("status").and_then(Content::as_u64),
        Some(404),
        "the root carries the status: {spans:#?}"
    );
    for span in &spans {
        assert!(
            span.parent_id == 0 || spans.iter().any(|p| p.span_id == span.parent_id),
            "orphan span: {span:?}"
        );
    }
    gateway.shutdown();
    server.shutdown();
    registry.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// On a gateway without a registry the per-model routes answer 404, and
/// each such request still gets its one `http.request` root carrying
/// that status: trace roots come from the route, not from the handler.
#[test]
fn a_model_route_without_a_registry_still_gets_its_root_span() {
    let (server, _collector) = traced_stack(57, StreamingConfig::default());
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    for (path, chosen) in [
        ("/v1/models/alpha/infer", "00000000005a9f01"),
        ("/v1/models/alpha/swap", "00000000005a9f02"),
    ] {
        client
            .send_raw(
                format!(
                    "POST {path} HTTP/1.1\r\nHost: gateway\r\n\
                     x-snn-trace-id: {chosen}\r\nContent-Length: 2\r\n\r\n{{}}"
                )
                .as_bytes(),
            )
            .unwrap();
        assert_eq!(client.read_response().unwrap().status, 404, "{path}");
        let spans = fetch_tree(&mut client, chosen);
        assert_eq!(spans.len(), 1, "only the root: {spans:#?}");
        assert_eq!(spans[0].name, "http.request");
        assert_eq!(spans[0].parent_id, 0);
        assert_eq!(
            spans[0].attr("status").and_then(Content::as_u64),
            Some(404),
            "the root carries the status: {spans:#?}"
        );
    }
    gateway.shutdown();
    server.shutdown();
}

/// Unknown and malformed trace ids answer 404/400 without disturbing the
/// stack; an untraced gateway answers 404 for every id.
#[test]
fn trace_route_rejects_unknown_and_malformed_ids() {
    let (server, _collector) = traced_stack(53, StreamingConfig::default());
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
        client.get("/v1/trace/ffffffffffffffff").unwrap().status,
        404
    );
    assert_eq!(client.get("/v1/trace/not-hex").unwrap().status, 400);
    assert_eq!(client.get("/v1/trace/+1").unwrap().status, 400);
    assert_eq!(client.get("/v1/trace/").unwrap().status, 400);
    let response = client.post_json("/v1/trace/abc", "{}").unwrap();
    assert_eq!(response.status, 405);
    gateway.shutdown();
    server.shutdown();

    let model = Arc::new(dense_model(53));
    let untraced = Arc::new(StreamingServer::new(
        Arc::new(CsrEngine::compile_shared(model, &DIMS).unwrap()),
        StreamingConfig::default(),
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&untraced),
        GatewayConfig {
            workers: 2,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    assert_eq!(
        client.get("/v1/trace/00000000000000ab").unwrap().status,
        404
    );
    let body =
        serde_json::to_string(&InferRequest::new(DIMS.to_vec(), vec![0.4; SAMPLE_LEN])).unwrap();
    let response = client.post_json("/v1/infer", &body).unwrap();
    assert_eq!(response.status, 200);
    let wire: InferResponse =
        serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
    assert!(wire.trace_id.is_empty(), "untraced gateways echo no id");
    gateway.shutdown();
    untraced.shutdown();
}

proptest! {
    // Each case spins up a real TCP server and threads; keep cases few.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Concurrency property: N clients hammer one traced gateway; every
    /// response's trace resolves to a complete, non-interleaved tree
    /// (exactly one root, every parent present, intervals nested), and
    /// the logits stay bit-identical to the reference simulator — the
    /// instrumented path must not perturb numerics under contention.
    #[test]
    fn concurrent_clients_get_complete_disjoint_trees(
        seed in 0u64..256,
        clients in 2usize..5,
        max_batch in 1usize..6,
        delay_us in 0u64..2_000,
    ) {
        let model = Arc::new(dense_model(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ACE);
        let per_client = 3usize;
        let n = clients * per_client;
        let x = snn_tensor::uniform(&[n, 1, 2, 4], 0.0, 1.0, &mut rng);
        let (expected, _) = EventSnn::new(&model).run(&x).expect("reference run");

        let collector = Arc::new(TraceCollector::new(0));
        let backend = Arc::new(
            CsrEngine::compile_shared(Arc::clone(&model), &DIMS).expect("traced streaming stack"),
        );
        let server = Arc::new(StreamingServer::new_traced(
            backend,
            StreamingConfig {
                threads: 2,
                max_batch,
                max_delay: Duration::from_micros(delay_us),
                max_pending: 0,
                brownout: None,
            },
            Arc::clone(&collector),
        ));
        let mut gateway = Gateway::start(
            Arc::clone(&server),
            GatewayConfig {
                workers: clients,
                poll_interval: Duration::from_millis(5),
                ..GatewayConfig::for_dims(&DIMS)
            },
        )
        .expect("gateway start");
        let addr = gateway.local_addr();

        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let rows: Vec<(usize, Vec<f32>)> = (0..per_client)
                    .map(|i| {
                        let row = c * per_client + i;
                        let start = row * SAMPLE_LEN;
                        (row, x.as_slice()[start..start + SAMPLE_LEN].to_vec())
                    })
                    .collect();
                std::thread::spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    rows.into_iter()
                        .map(|(row, pixels)| {
                            let body = serde_json::to_string(
                                &InferRequest::new(DIMS.to_vec(), pixels),
                            )
                            .unwrap();
                            let response =
                                client.post_json("/v1/infer", &body).expect("post");
                            assert_eq!(response.status, 200);
                            let wire: InferResponse = serde_json::from_str(
                                &String::from_utf8(response.body).unwrap(),
                            )
                            .unwrap();
                            // Fetch the tree over the same connection the
                            // moment the response lands — completeness must
                            // not depend on settling time.
                            let spans = fetch_tree(&mut client, &wire.trace_id);
                            (row, wire, spans)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();

        let mut seen_ids = std::collections::HashSet::new();
        for handle in handles {
            for (row, wire, spans) in handle.join().expect("client thread") {
                prop_assert!(seen_ids.insert(wire.trace_id.clone()),
                    "trace ids are unique per request");
                assert_tree_complete(&spans, &wire.trace_id);
                let start = row * CLASSES;
                let reference = &expected.as_slice()[start..start + CLASSES];
                prop_assert_eq!(wire.logits.len(), CLASSES);
                for (a, b) in wire.logits.iter().zip(reference) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(),
                        "traced serving must keep logits bit-identical");
                }
            }
        }
        prop_assert_eq!(collector.spans_dropped(), 0,
            "default capacity must absorb this run");
        gateway.shutdown();
        server.shutdown();
    }
}

/// Tracing toggled off at runtime (`set_enabled(false)`) stops recording
/// and costs the data path nothing observable: logits stay bit-identical
/// to both the traced run and the reference simulator.
#[test]
fn disabling_tracing_preserves_logits_and_records_nothing() {
    let model = Arc::new(dense_model(54));
    let mut rng = StdRng::seed_from_u64(77);
    let x = snn_tensor::uniform(&[1, 1, 2, 4], 0.0, 1.0, &mut rng);
    let (expected, _) = EventSnn::new(&model).run(&x).expect("reference run");
    let pixels = x.as_slice().to_vec();
    let body = serde_json::to_string(&InferRequest::new(DIMS.to_vec(), pixels)).unwrap();

    let collector = Arc::new(TraceCollector::new(0));
    let server = Arc::new(StreamingServer::new_traced(
        Arc::new(CsrEngine::compile_shared(Arc::clone(&model), &DIMS).unwrap()),
        StreamingConfig::default(),
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

    let infer = |client: &mut HttpClient| -> InferResponse {
        let response = client.post_json("/v1/infer", &body).unwrap();
        assert_eq!(response.status, 200);
        serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap()
    };

    let traced = infer(&mut client);
    assert!(!traced.trace_id.is_empty());

    collector.set_enabled(false);
    let recorded_before = collector.spans_recorded();
    let untraced = infer(&mut client);
    assert!(
        untraced.trace_id.is_empty(),
        "disabled tracing mints no ids: {:?}",
        untraced.trace_id
    );
    assert_eq!(
        collector.spans_recorded(),
        recorded_before,
        "disabled tracing records nothing"
    );
    for (a, b) in traced.logits.iter().zip(&untraced.logits) {
        assert_eq!(a.to_bits(), b.to_bits(), "tracing must not perturb logits");
    }
    for (a, b) in untraced.logits.iter().zip(expected.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "served logits match EventSnn");
    }
    gateway.shutdown();
    server.shutdown();
}

/// The executor of the request's batch, as its `batch.flush` span records
/// it.
fn executor_of(client: &mut HttpClient, response_body: Vec<u8>) -> String {
    let wire: InferResponse =
        serde_json::from_str(&String::from_utf8(response_body).unwrap()).unwrap();
    let spans = fetch_tree(client, &wire.trace_id);
    assert_tree_complete(&spans, &wire.trace_id);
    let flush = spans.iter().find(|s| s.name == "batch.flush").unwrap();
    flush
        .attr("executor")
        .and_then(Content::as_str)
        .unwrap_or_else(|| panic!("flush span names no executor: {flush:?}"))
        .to_string()
}

/// On an idle server a lone request runs on the connection thread that
/// read it: its flush span says `caller`.
#[test]
fn a_lone_request_on_an_idle_server_is_executed_by_its_caller() {
    let (server, _collector) = traced_stack(55, StreamingConfig::default());
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();
    let body =
        serde_json::to_string(&InferRequest::new(DIMS.to_vec(), vec![0.3; SAMPLE_LEN])).unwrap();
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    let response = client.post_json("/v1/infer", &body).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(executor_of(&mut client, response.body), "caller");
    gateway.shutdown();
    server.shutdown();
}

/// A request that finds the only executor busy queues, and the worker
/// that frees up runs it: its flush span says `worker`.
#[test]
fn a_request_queued_behind_a_busy_executor_is_executed_by_a_worker() {
    let collector = Arc::new(TraceCollector::new(0));
    let backend = GatedBackend::closed(CsrEngine::compile(&dense_model(56), &DIMS).unwrap());
    let server = Arc::new(StreamingServer::new_traced(
        backend.clone(),
        StreamingConfig {
            threads: 1,
            ..StreamingConfig::default()
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
    // Park the single worker in-process and queue one more behind it.
    let sample = snn_tensor::Tensor::full(&DIMS, 0.1);
    let parked = server.submit(&sample).unwrap();
    backend.wait_entered(1);
    let queued_in_process = server.submit(&sample).unwrap();
    let addr = gateway.local_addr();
    let body =
        serde_json::to_string(&InferRequest::new(DIMS.to_vec(), vec![0.3; SAMPLE_LEN])).unwrap();
    let queued = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        client.post_json("/v1/infer", &body).unwrap()
    });
    // The HTTP request is in the window, refused the only permit.
    common::wait_until(|| server.queued() == 2);
    backend.open();
    parked.wait().unwrap();
    queued_in_process.wait().unwrap();
    let response = queued.join().unwrap();
    assert_eq!(response.status, 200);
    let wire: InferResponse =
        serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(
        wire.batch_size, 2,
        "it rode with the request queued before it"
    );
    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(executor_of(&mut client, response.body), "worker");
    gateway.shutdown();
    server.shutdown();
}
