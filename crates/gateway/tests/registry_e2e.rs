//! End-to-end multi-model serving through the registry routes:
//! `GET /v1/models` listing, per-model inference with per-backend
//! geometry validation (two models with *different* input dims served
//! concurrently — the regression for the old first-submit-pins-the-dims
//! behavior), atomic hot swap under closed-loop load, and hostile
//! routing (unknown models, wrong methods, malformed swap bodies).

#[path = "../../runtime/tests/common/mod.rs"]
mod common;
#[path = "common/loadgen.rs"]
mod loadgen;

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use loadgen::{run_closed_loop_any, LoadGenConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_gateway::{client::HttpClient, Gateway, GatewayConfig, InferRequest};
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{
    BackendHint, CsrEngine, ModelArtifact, ModelRegistry, RegistryConfig, StreamingConfig,
    StreamingServer,
};
use snn_tensor::Tensor;
use ttfs_core::{convert, Base2Kernel};

const DIMS_A: [usize; 3] = [1, 3, 4];
const DIMS_B: [usize; 3] = [1, 2, 3];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("snn_registry_e2e_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn dense_artifact(name: &str, version: &str, seed: u64, dims: &[usize]) -> ModelArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let in_len: usize = dims.iter().product();
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(in_len, 8, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(8, 3, &mut rng)),
    ]);
    let model = convert(&net, Base2Kernel::paper_default(), 24).unwrap();
    ModelArtifact::build(name, version, model, dims, BackendHint::Csr).unwrap()
}

fn fast_streaming() -> StreamingConfig {
    StreamingConfig {
        threads: 2,
        max_batch: 8,
        max_delay: Duration::from_millis(1),
        max_pending: 0,
        brownout: None,
    }
}

/// Batch of `n` samples for `dims`, plus the artifact's reference logits.
fn batch_and_expected(artifact: &ModelArtifact, n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch_dims = vec![n];
    batch_dims.extend_from_slice(&artifact.info.input_dims);
    let x = snn_tensor::uniform(&batch_dims, 0.0, 1.0, &mut rng);
    let (engine, _) = artifact.compile().unwrap();
    let (expected, _) = engine.run_batch(&x).unwrap();
    (x, expected)
}

/// A registry-backed gateway over `dir`; the plain `/v1/infer` route keeps
/// serving a standalone alpha-shaped server.
fn registry_gateway(dir: &Path) -> (Arc<ModelRegistry>, Gateway) {
    let registry = Arc::new(
        ModelRegistry::open(
            dir,
            RegistryConfig {
                byte_budget: 0,
                streaming: fast_streaming(),
                ..RegistryConfig::default()
            },
        )
        .unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(0xDEFA);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(12, 3, &mut rng)),
    ]);
    let model = Arc::new(convert(&net, Base2Kernel::paper_default(), 24).unwrap());
    let server = Arc::new(StreamingServer::new(
        Arc::new(CsrEngine::compile_shared(model, &DIMS_A).unwrap()),
        fast_streaming(),
    ));
    let gateway = Gateway::start_with_registry(
        server,
        Arc::clone(&registry),
        GatewayConfig {
            workers: 6,
            poll_interval: Duration::from_millis(5),
            ..GatewayConfig::for_dims(&DIMS_A)
        },
    )
    .unwrap();
    (registry, gateway)
}

fn infer_body(dims: &[usize], value: f32) -> String {
    let len: usize = dims.iter().product();
    serde_json::to_string(&InferRequest::new(dims.to_vec(), vec![value; len])).unwrap()
}

#[test]
fn listing_and_per_model_inference_with_mixed_geometries() {
    let dir = TempDir::new("listing");
    let alpha = dense_artifact("alpha", "1", 1, &DIMS_A);
    let beta = dense_artifact("beta", "1", 2, &DIMS_B);
    alpha.save(dir.path().join("alpha@1.snna")).unwrap();
    beta.save(dir.path().join("beta@1.snna")).unwrap();
    let (registry, mut gateway) = registry_gateway(dir.path());
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();

    // The catalog lists both models cold, before anything compiled.
    let listing = client.get("/v1/models").unwrap();
    assert_eq!(listing.status, 200);
    let text = String::from_utf8(listing.body.clone()).unwrap();
    assert!(text.contains("\"alpha\"") && text.contains("\"beta\""));
    assert!(text.contains("\"cold\""));

    // Per-model inference on BOTH geometries through one gateway: the
    // beta route accepts [1,2,3] even though the gateway's default route
    // serves [1,3,4] — each backend validates its own compiled dims.
    for (artifact, route) in [
        (&alpha, "/v1/models/alpha/infer"),
        (&beta, "/v1/models/beta@1/infer"),
    ] {
        let dims = &artifact.info.input_dims;
        let response = client.post_json(route, &infer_body(dims, 0.5)).unwrap();
        assert_eq!(response.status, 200, "{route}");
        let mut batch_dims = vec![1usize];
        batch_dims.extend_from_slice(dims);
        let (engine, _) = artifact.compile().unwrap();
        let (expected, _) = engine.run_batch(&Tensor::full(&batch_dims, 0.5)).unwrap();
        let body = String::from_utf8(response.body).unwrap();
        let wire: snn_gateway::InferResponse = serde_json::from_str(&body).unwrap();
        let got: Vec<u32> = wire.logits.iter().map(|f| f.to_bits()).collect();
        let want: Vec<u32> = expected.as_slice().iter().map(|f| f.to_bits()).collect();
        assert_eq!(got, want, "{route} logits must be bit-exact");
    }

    // Alpha-shaped pixels on the beta route: rejected by the *backend's*
    // compiled geometry, not silently accepted.
    let crossed = client
        .post_json("/v1/models/beta/infer", &infer_body(&DIMS_A, 0.5))
        .unwrap();
    assert_eq!(crossed.status, 400);

    // Both models are now resident and the listing says so.
    let listing = client.get("/v1/models").unwrap();
    let text = String::from_utf8(listing.body).unwrap();
    assert!(text.contains("\"resident\""));
    assert_eq!(registry.metrics().cold_loads, 2);

    gateway.shutdown();
    registry.shutdown();
}

#[test]
fn two_models_with_different_dims_serve_concurrently() {
    let dir = TempDir::new("mixed");
    let alpha = dense_artifact("alpha", "1", 3, &DIMS_A);
    let beta = dense_artifact("beta", "1", 4, &DIMS_B);
    alpha.save(dir.path().join("alpha@1.snna")).unwrap();
    beta.save(dir.path().join("beta@1.snna")).unwrap();
    let (registry, mut gateway) = registry_gateway(dir.path());
    let addr = gateway.local_addr();

    let (xa, ea) = batch_and_expected(&alpha, 8, 11);
    let (xb, eb) = batch_and_expected(&beta, 8, 12);

    // Closed-loop load on both model routes at the same time. Under the
    // old first-submit-pins-the-dims behavior one of these would 400 (or
    // worse) depending on which model's request arrived first.
    let reports = [
        ("alpha", xa, ea, "/v1/models/alpha/infer"),
        ("beta", xb, eb, "/v1/models/beta/infer"),
    ]
    .map(|(tag, x, expected, path)| {
        let config = LoadGenConfig {
            clients: 2,
            passes: 10,
            path: path.to_string(),
            ..LoadGenConfig::default()
        };
        std::thread::spawn(move || {
            let report = run_closed_loop_any(addr, &x, &[&expected], &config);
            (tag, report)
        })
    })
    .map(|h| h.join().unwrap());

    for (tag, report) in reports {
        assert_eq!(report.transport_errors, 0, "{tag}");
        assert_eq!(report.ok_200, report.requests, "{tag}: every request 200");
        assert_eq!(report.mismatches, 0, "{tag}: logits bit-exact under mix");
        assert!(report.requests > 0, "{tag}");
    }

    gateway.shutdown();
    registry.shutdown();
}

#[test]
fn hot_swap_under_load_serves_exactly_old_or_new_logits() {
    let dir = TempDir::new("swap");
    let v1 = dense_artifact("alpha", "1", 21, &DIMS_A);
    let v2 = dense_artifact("alpha", "2", 22, &DIMS_A);
    v1.save(dir.path().join("alpha@1.snna")).unwrap();
    v2.save(dir.path().join("alpha@2.snna")).unwrap();
    let (registry, mut gateway) = registry_gateway(dir.path());
    let addr = gateway.local_addr();

    // Same input batch, one expected tensor per version. The load
    // generator accepts a 200 iff its logits bit-match ONE of them.
    let (x, e1) = batch_and_expected(&v1, 8, 31);
    let (_, e2) = batch_and_expected(&v2, 8, 31);
    assert_ne!(e1.as_slice(), e2.as_slice());

    let loader = {
        let x = x.clone();
        let (e1, e2) = (e1.clone(), e2.clone());
        std::thread::spawn(move || {
            run_closed_loop_any(
                addr,
                &x,
                &[&e2, &e1], // index 0 = pre-swap (v2 is the default), 1 = post-swap
                &LoadGenConfig {
                    clients: 4,
                    passes: 150,
                    path: "/v1/models/alpha/infer".into(),
                    ..LoadGenConfig::default()
                },
            )
        })
    };

    // Swap to v1 once the closed loop has provably been served by v2 (one
    // warm lookup per request); the 4 700 requests still to come dwarf the
    // swap itself, so v1 is provably observed too.
    common::wait_until(|| registry.metrics().warm_hits >= 100);
    let mut client = HttpClient::connect(addr).unwrap();
    let swapped = client
        .post_json("/v1/models/alpha/swap", r#"{"version":"1"}"#)
        .unwrap();
    assert_eq!(swapped.status, 200);
    let report_text = String::from_utf8(swapped.body).unwrap();
    assert!(report_text.contains("\"to\":\"1\""), "{report_text}");

    let report = loader.join().unwrap();
    assert_eq!(report.transport_errors, 0);
    assert_eq!(
        report.ok_200, report.requests,
        "no request may be dropped across the swap"
    );
    assert_eq!(
        report.mismatches, 0,
        "every 200 matches exactly one version's logits — never a blend"
    );
    assert!(
        report.ok_per_expected[0] > 0,
        "pre-swap traffic observed v2: {:?}",
        report.ok_per_expected
    );
    assert!(
        report.ok_per_expected[1] > 0,
        "post-swap traffic observed v1: {:?}",
        report.ok_per_expected
    );
    assert_eq!(registry.metrics().swaps, 1);

    gateway.shutdown();
    registry.shutdown();
}

#[test]
fn hostile_routing_gets_typed_statuses_never_hangs() {
    let dir = TempDir::new("hostile");
    dense_artifact("alpha", "1", 5, &DIMS_A)
        .save(dir.path().join("alpha@1.snna"))
        .unwrap();
    let (registry, mut gateway) = registry_gateway(dir.path());
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();

    // Unknown model → 404 with a JSON error body.
    let r = client
        .post_json("/v1/models/nosuch/infer", &infer_body(&DIMS_A, 0.5))
        .unwrap();
    assert_eq!(r.status, 404);
    // Wrong method on a model route → 405.
    let r = client.get("/v1/models/alpha/infer").unwrap();
    assert_eq!(r.status, 405);
    // Swap body that is not JSON → 400.
    let r = client
        .post_json("/v1/models/alpha/swap", "not json at all")
        .unwrap();
    assert_eq!(r.status, 400);
    // Swap to a version that does not exist → 404.
    let r = client
        .post_json("/v1/models/alpha/swap", r#"{"version":"9"}"#)
        .unwrap();
    assert_eq!(r.status, 404);
    // Empty model spec → 404.
    let r = client
        .post_json("/v1/models//infer", &infer_body(&DIMS_A, 0.5))
        .unwrap();
    assert_eq!(r.status, 404);
    // Unknown log level → 400; valid filters (plus an ignored junk key)
    // → 200 even with zero matching events.
    let r = client.get("/v1/logs?level=loud").unwrap();
    assert_eq!(r.status, 400);
    let r = client
        .get("/v1/logs?level=warn&target=registry&junk")
        .unwrap();
    assert_eq!(r.status, 200);
    // Wrong method on the observability routes → 405.
    let r = client.post_json("/v1/logs", "{}").unwrap();
    assert_eq!(r.status, 405);
    let r = client.post_json("/v1/incidents", "{}").unwrap();
    assert_eq!(r.status, 405);
    // Incident capture is not configured here → 404, and a hostile id
    // must not traverse out of the (nonexistent) incidents dir.
    let r = client.get("/v1/incidents").unwrap();
    assert_eq!(r.status, 404);
    let r = client.get("/v1/incidents/../../etc/passwd").unwrap();
    assert_eq!(r.status, 404);

    // After all of that the registry routes still serve.
    let r = client
        .post_json("/v1/models/alpha/infer", &infer_body(&DIMS_A, 0.5))
        .unwrap();
    assert_eq!(r.status, 200);

    gateway.shutdown();
    registry.shutdown();
}

#[test]
fn model_routes_are_404_without_a_registry() {
    let mut rng = StdRng::seed_from_u64(9);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(12, 3, &mut rng)),
    ]);
    let model = Arc::new(convert(&net, Base2Kernel::paper_default(), 24).unwrap());
    let server = Arc::new(StreamingServer::new(
        Arc::new(CsrEngine::compile_shared(model, &DIMS_A).unwrap()),
        fast_streaming(),
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            poll_interval: Duration::from_millis(5),
            ..GatewayConfig::for_dims(&DIMS_A)
        },
    )
    .unwrap();
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    assert_eq!(client.get("/v1/models").unwrap().status, 404);
    assert_eq!(
        client
            .post_json("/v1/models/alpha/infer", &infer_body(&DIMS_A, 0.5))
            .unwrap()
            .status,
        404
    );
    gateway.shutdown();
    server.shutdown();
}
