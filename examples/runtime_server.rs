//! Batched inference runtime: convert a CAT-style network, compile it to
//! the CSR fast path, run a closed batch through it, stream the same
//! images through the streaming server, and price the measured event
//! traffic on the paper's processor model.
//!
//! Run: `cargo run --release --example runtime_server`
//!
//! With `--gateway [addr]` it instead serves the model over HTTP via
//! `snn-gateway` (default `127.0.0.1:7878`) and prints ready-to-paste
//! `curl` commands; Ctrl-C stops it. Set `SNN_GATEWAY_ONCE=1` to
//! self-drive one request and exit (used to smoke the path headlessly).
//!
//! With `--model-dir <dir> [addr]` it serves every `.snna` artifact in
//! `dir` through a `ModelRegistry` (lazy load + compile, LRU cache,
//! atomic hot swap): `GET /v1/models`, `POST /v1/models/<name>/infer`,
//! `POST /v1/models/<name>/swap`. Demo artifacts are generated into an
//! empty dir on first run. `SNN_GATEWAY_ONCE=1` self-drives
//! list → infer → swap → infer and exits.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use ttfs_snn::gateway::{client::HttpClient, Gateway, GatewayConfig, InferRequest};
use ttfs_snn::hw::{Processor, ProcessorConfig};
use ttfs_snn::nn::models::vgg16_scaled;
use ttfs_snn::nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use ttfs_snn::runtime::{
    energy, quantize_model, BackendHint, CsrEngine, InferenceBackend, ModelArtifact, ModelRegistry,
    QuantConfig, QuantEngine, RegistryConfig, StreamingConfig, StreamingServer,
};
use ttfs_snn::sim::EventSnn;
use ttfs_snn::tensor::Tensor;
use ttfs_snn::trace::TraceCollector;
use ttfs_snn::ttfs::{convert, Base2Kernel};

/// Serves the converted model over HTTP until killed (or one self-driven
/// request with `SNN_GATEWAY_ONCE=1`).
fn serve_gateway(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(0);
    let side = 32;
    let input_dims = [3usize, side, side];
    let net = vgg16_scaled(side, 10, 16, &mut rng);
    let model = Arc::new(convert(&net, Base2Kernel::paper_default(), 24)?);
    // One shared weight copy behind the whole serving stack: CSR backend →
    // streaming server (EDF pending window) → HTTP gateway. The trace
    // collector makes every request queryable at GET /v1/trace/<id>.
    let collector = Arc::new(TraceCollector::new(0));
    let server = Arc::new(StreamingServer::new_traced(
        Arc::new(CsrEngine::compile_shared(Arc::clone(&model), &input_dims)?),
        StreamingConfig {
            threads: 0,
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            max_pending: 256,
            brownout: None,
        },
        collector,
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            addr: addr.to_string(),
            ..GatewayConfig::for_dims(&input_dims)
        },
    )?;
    let bound = gateway.local_addr();
    let pixels: usize = input_dims.iter().product();
    println!("snn-gateway serving vgg16/w16 on http://{bound}");
    println!("  # {pixels} pixels in [0,1], optional deadline_ms / priority:");
    println!(
        "  python3 -c 'import json; print(json.dumps({{\"dims\": [3, {side}, {side}], \
         \"pixels\": [0.5]*{pixels}, \"deadline_ms\": 5.0, \"priority\": 2}}))' > /tmp/req.json"
    );
    println!("  curl -s -X POST http://{bound}/v1/infer -d @/tmp/req.json");
    println!("  # the response echoes a trace_id; fetch that request's span tree:");
    println!("  curl -s http://{bound}/v1/trace/<trace_id>");
    println!("  curl -s http://{bound}/metrics | head");
    println!("  curl -s http://{bound}/healthz");

    // Prove the path with one in-process HTTP request, then fetch its
    // trace. The client drops right after, releasing its keep-alive
    // connection's worker.
    {
        let mut client = HttpClient::connect(bound)?;
        let mut request = InferRequest::new(input_dims.to_vec(), vec![0.5; pixels]);
        request.deadline_ms = Some(5.0);
        let response = client.post_json("/v1/infer", &serde_json::to_string(&request)?)?;
        println!(
            "self-check: POST /v1/infer -> {} ({} bytes)",
            response.status,
            response.body.len()
        );
        let body = String::from_utf8_lossy(&response.body).into_owned();
        if let Some(trace_id) = body
            .split("\"trace_id\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .filter(|id| !id.is_empty())
        {
            let tree = client.get(&format!("/v1/trace/{trace_id}"))?;
            let spans = String::from_utf8_lossy(&tree.body)
                .matches("\"span_id\"")
                .count();
            println!(
                "self-check: GET /v1/trace/{trace_id} -> {} ({spans} spans)",
                tree.status,
            );
        }
    }

    if std::env::var("SNN_GATEWAY_ONCE").is_ok() {
        gateway.shutdown();
        server.shutdown();
        return Ok(());
    }
    println!("serving until killed (Ctrl-C)...");
    loop {
        std::thread::park();
    }
}

/// Serves every `.snna` artifact in `dir` over HTTP through a
/// `ModelRegistry`, generating demo artifacts first if the dir is empty.
fn serve_model_dir(dir: &Path, addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    let has_artifacts = std::fs::read_dir(dir)?
        .flatten()
        .any(|e| e.path().extension().and_then(|x| x.to_str()) == Some("snna"));
    if !has_artifacts {
        println!(
            "no .snna artifacts in {}; generating demo models",
            dir.display()
        );
        let demo = |name: &str,
                    version: &str,
                    seed: u64,
                    dims: &[usize],
                    hint: BackendHint|
         -> Result<(), Box<dyn std::error::Error>> {
            let mut rng = StdRng::seed_from_u64(seed);
            let in_len: usize = dims.iter().product();
            let net = Sequential::new(vec![
                Layer::Flatten(Flatten::new()),
                Layer::Dense(DenseLayer::new(in_len, 32, &mut rng)),
                Layer::Activation(ActivationLayer::new(Box::new(Relu))),
                Layer::Dense(DenseLayer::new(32, 10, &mut rng)),
            ]);
            let model = convert(&net, Base2Kernel::paper_default(), 24)?;
            let artifact = ModelArtifact::build(name, version, model, dims, hint)?;
            let path = dir.join(artifact.info.file_name());
            artifact.save(&path)?;
            println!("  wrote {}", path.display());
            Ok(())
        };
        demo("alpha", "1", 1, &[1, 8, 8], BackendHint::Csr)?;
        demo("alpha", "2", 2, &[1, 8, 8], BackendHint::Csr)?;
        demo("beta", "1", 3, &[1, 6, 6], BackendHint::quant_default())?;
    }

    // The registry lazily loads + compiles artifacts on first request and
    // records registry.load / registry.compile / registry.swap spans.
    let collector = Arc::new(TraceCollector::new(0));
    let registry = Arc::new(ModelRegistry::open_traced(
        dir,
        RegistryConfig {
            byte_budget: 0,
            streaming: StreamingConfig {
                threads: 0,
                max_batch: 8,
                max_delay: Duration::from_millis(2),
                max_pending: 256,
                brownout: None,
            },
            ..RegistryConfig::default()
        },
        Some(collector),
    )?);
    // The plain /v1/infer route serves alpha's active version as of boot;
    // per-model routes always follow the registry (including swaps).
    let alpha = registry.get_or_load("alpha")?;
    let input_dims = alpha.input_dims().to_vec();
    let mut gateway = Gateway::start_with_registry(
        Arc::clone(alpha.server()),
        Arc::clone(&registry),
        GatewayConfig {
            addr: addr.to_string(),
            ..GatewayConfig::for_dims(&input_dims)
        },
    )?;
    let bound = gateway.local_addr();
    let pixels: usize = input_dims.iter().product();
    println!(
        "snn-gateway serving {} model(s) from {} on http://{bound}",
        registry.list().len(),
        dir.display()
    );
    println!("  curl -s http://{bound}/v1/models");
    println!(
        "  python3 -c 'import json; print(json.dumps({{\"dims\": {input_dims:?}, \
         \"pixels\": [0.5]*{pixels}}}))' > /tmp/req.json"
    );
    println!("  curl -s -X POST http://{bound}/v1/models/alpha/infer -d @/tmp/req.json");
    println!("  curl -s -X POST http://{bound}/v1/models/alpha@1/infer -d @/tmp/req.json");
    println!("  curl -s -X POST http://{bound}/v1/models/alpha/swap -d '{{\"version\":\"1\"}}'");
    println!("  curl -s http://{bound}/metrics | head");

    // Self-drive the whole surface once: list, per-model infer, an atomic
    // version swap, and an infer that must land on the swapped version.
    {
        let mut client = HttpClient::connect(bound)?;
        let list = client.get("/v1/models")?;
        println!("self-check: GET /v1/models -> {}", list.status);
        let request = InferRequest::new(input_dims.clone(), vec![0.5; pixels]);
        let body = serde_json::to_string(&request)?;
        let before = client.post_json("/v1/models/alpha/infer", &body)?;
        let swap = client.post_json("/v1/models/alpha/swap", "{\"version\":\"1\"}")?;
        let after = client.post_json("/v1/models/alpha/infer", &body)?;
        println!(
            "self-check: infer -> {}, swap -> {} ({}), infer -> {}",
            before.status,
            swap.status,
            String::from_utf8_lossy(&swap.body),
            after.status
        );
    }

    if std::env::var("SNN_GATEWAY_ONCE").is_ok() {
        gateway.shutdown();
        registry.shutdown();
        return Ok(());
    }
    println!("serving until killed (Ctrl-C)...");
    loop {
        std::thread::park();
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--model-dir") {
        let dir = args
            .get(pos + 1)
            .ok_or("--model-dir requires a directory argument")?;
        let addr = args
            .get(pos + 2)
            .map(String::as_str)
            .unwrap_or("127.0.0.1:7878");
        return serve_model_dir(Path::new(dir), addr);
    }
    if let Some(pos) = args.iter().position(|a| a == "--gateway") {
        let addr = args
            .get(pos + 1)
            .map(String::as_str)
            .unwrap_or("127.0.0.1:7878");
        return serve_gateway(addr);
    }

    let mut rng = StdRng::seed_from_u64(0);
    let side = 32;
    let batch = 16;

    // A VGG-16-shaped network at 1/16 width: real geometry, laptop budget.
    let net = vgg16_scaled(side, 10, 16, &mut rng);
    // One shared, read-only copy of the converted model: the CSR engine,
    // every server worker, and the reference simulator below all hold the
    // same Arc instead of cloning the weights.
    let model = Arc::new(convert(&net, Base2Kernel::paper_default(), 24)?);
    println!(
        "model: {} weighted layers, latency {} timesteps",
        model.weighted_layers(),
        model.latency_timesteps()
    );

    // Compile the CSR fast path for the deployment geometry. Conv layers
    // are pattern-deduplicated (border-class tap runs + one repacked
    // weight copy), so the compiled footprint is a fraction of a flat
    // per-pixel CSR; integration runs edge-major over lane chunks.
    let input_dims = [3, side, side];
    let engine = CsrEngine::compile_shared(Arc::clone(&model), &input_dims)?;
    let footprint = engine.compiled().footprint();
    println!(
        "csr: {} logical edges in {:.2} MB ({} border-class patterns; flat CSR would be {:.2} MB); {} lanes/chunk",
        engine.total_edges(),
        footprint.stored_bytes as f64 / 1e6,
        footprint.patterns,
        footprint.flat_bytes as f64 / 1e6,
        engine.max_lanes(),
    );

    // A closed batch is one backend call: the engine walks its lanes
    // edge-major over the whole batch.
    let x = ttfs_snn::tensor::uniform(&[batch, 3, side, side], 0.0, 1.0, &mut rng);
    let start = Instant::now();
    let (logits, stats) = engine.run_batch(&x)?;
    println!(
        "closed batch: {batch} images in {:.1} ms",
        start.elapsed().as_secs_f64() * 1e3
    );

    // The fast path matches the reference event simulator exactly.
    let (reference_logits, _) = EventSnn::new(&model).run(&x)?;
    assert_eq!(logits.as_slice(), reference_logits.as_slice());
    println!("logits match the reference event simulator bit-for-bit");

    // Streaming path: the same images arrive one at a time; free workers
    // take them as they come (batching only what backs up, earliest
    // deadline first) and each submit gets a ticket. The engine, and the
    // model behind it, are the same Arcs — no weight copy.
    let streaming = StreamingServer::new(
        Arc::new(engine),
        StreamingConfig {
            threads: 0,
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            // Backpressure: shed with SubmitError::QueueFull beyond 4x a
            // full window of admitted-but-unresolved requests.
            max_pending: 32,
            brownout: None,
        },
    );
    let sample_len: usize = input_dims.iter().product();
    let tickets: Vec<_> = (0..batch)
        .map(|i| {
            let image = Tensor::from_vec(
                x.as_slice()[i * sample_len..(i + 1) * sample_len].to_vec(),
                &input_dims,
            )
            .expect("sample slice matches input dims");
            streaming.submit(&image)
        })
        .collect::<Result<_, _>>()?;
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait()?;
        assert_eq!(
            response.logits.as_slice(),
            &logits.as_slice()[i * 10..(i + 1) * 10],
            "streamed logits are bit-identical to the closed batch"
        );
    }
    let stream_metrics = streaming.shutdown();
    println!(
        "streamed {} images in {} batches: e2e p99 {:.0} µs, queue-wait share {:.0}%, mean occupancy {:.1}",
        stream_metrics.requests,
        stream_metrics.batches,
        stream_metrics.e2e_p99_us,
        stream_metrics.queue_wait_share * 100.0,
        stream_metrics.mean_batch_occupancy,
    );

    // Quantized serving: the same Arc'd model behind packed 5-bit log
    // codes + LUT decode — the paper's multiplier-free weight
    // representation as a serving backend. Stored weights shrink 4x, and
    // logits are bit-identical to the event simulator over per-layer
    // quantize_tensor'd weights.
    let qconfig = QuantConfig::default(); // 5-bit, aw = 2^-1/2, exact LUT
    let quant_backend = QuantEngine::compile_shared(Arc::clone(&model), &input_dims, qconfig)?;
    let start = Instant::now();
    let (quant_logits, quant_stats) = quant_backend.run_batch(&x)?;
    let quant_ms = start.elapsed().as_secs_f64() * 1e3;
    let (qmodel, _) = quantize_model(&model, qconfig.base, qconfig.bits)?;
    let (quant_reference, _) = EventSnn::new(&qmodel).run(&x)?;
    assert_eq!(
        quant_logits.as_slice(),
        quant_reference.as_slice(),
        "quantized serving is bit-identical to the quantized reference"
    );
    let agree = (0..batch)
        .filter(|&i| {
            let row = |t: &Tensor| {
                t.as_slice()[i * 10..(i + 1) * 10]
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| a.total_cmp(b))
                    .map(|(c, _)| c)
            };
            row(&quant_logits) == row(&logits)
        })
        .count();
    println!(
        "quantized ({}-bit {}): closed batch in {quant_ms:.1} ms, top-1 agreement {}/{} vs f32",
        qconfig.bits,
        qconfig.base.label(),
        agree,
        batch,
    );

    // Hardware energy report from the measured event counts — f32 path
    // and quantized path, priced on the same proposed (log-PE) processor.
    let processor = Processor::new(ProcessorConfig::proposed());
    let hw = energy::energy_report(&processor, &model, &stats, &input_dims)?;
    let quant_hw = energy::energy_report(&processor, &model, &quant_stats, &input_dims)?;
    println!(
        "hardware model: f32 {:.1} µJ/image, quantized {:.1} µJ/image, {:.0} fps at {} MHz",
        hw.energy_per_image_uj,
        quant_hw.energy_per_image_uj,
        hw.fps,
        processor.config().frequency_mhz
    );
    Ok(())
}
