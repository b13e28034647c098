//! Runtime throughput benchmark: single-thread reference `EventSnn` versus
//! the `snn-runtime` CSR engine — sample-at-a-time (`csr_single`, one
//! lane), edge-major batched (`batched`, default lane count), behind the
//! multi-threaded closed batch inference server, and behind the streaming
//! deadline batcher under a closed-loop load generator — on a batched
//! VGG-16-geometry workload (the paper's 13 conv + 3 dense stack,
//! width-scaled to a CI-sized budget).
//!
//! Emits `BENCH_runtime.json` with images/sec, per-request p50/p99 latency
//! (closed path), streaming end-to-end latency percentiles with the
//! queue-wait/execution split, batch-occupancy histogram and shed counts,
//! the compiled CSR memory footprint before/after conv pattern
//! deduplication (`csr_memory`), the quantized serving path (`quant`:
//! packed 5-bit log-code throughput, code bytes vs the f32 weight copy,
//! bit-exactness vs the event simulator over quantized weights, top-1
//! agreement vs the f32 path, shift-add error bounds, quantized-workload
//! energy), the HTTP gateway smoke (`gateway`: a loopback `snn-gateway`
//! instance driven by the std-only closed-loop HTTP load generator with
//! random per-request deadlines/priorities, plus a forced `max_pending=1`
//! sub-run that must shed with 429s), logits-equivalence versus
//! `SnnModel::reference_forward`, the tracing cost model (`observability`:
//! interleaved best-of-N engine runs with spans on vs off, the
//! disabled-collector and fully-traced streaming configurations, span
//! volume and collector drops), the seeded fault-injection storms
//! (`faults`: chaos seeds driven through the full HTTP path with backend
//! panics / slowdowns / connection resets armed, the circuit-breaker
//! open-and-recover scenario, a torn artifact write that must leave the
//! previous version loadable, and the disabled-injector overhead guard),
//! the live-telemetry guarantees (`telemetry`: interleaved
//! telemetry-on/off gateway throughput, `/v1/stats` windowed-vs-cumulative
//! p99 agreement, per-model energy attribution, the `/dashboard` page and
//! the per-scrape cost), and the hardware energy report driven by the fast
//! path's event counts.
//!
//! Run: `cargo run -p snn-bench --bin runtime_throughput --release`
//! Scale with `SNN_BENCH_SCALE=quick|default|full`. Pass
//! `-- --trace-out trace.json` to export the fully-traced streaming run as
//! Chrome trace-event JSON (load it at `chrome://tracing` or in Perfetto).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use snn_bench::Scale;
use snn_gateway::{
    client::HttpClient, run_closed_loop, run_closed_loop_any, Gateway, GatewayConfig,
    GatewayMetrics, LoadGenConfig, LoadReport,
};
use snn_hw::{Processor, ProcessorConfig};
use snn_nn::models::vgg16_scaled;
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{
    energy, quantize_model, BackendHint, BrownoutConfig, CsrEngine, DecodeMode, FaultConfig,
    FaultCounts, FaultInjector, InferenceBackend, InferenceServer, ModelArtifact, ModelRegistry,
    QuantConfig, QuantEngine, RegistryConfig, RegistryError, RegistryMetrics, ServerConfig,
    StreamingConfig, StreamingMetrics, StreamingServer, SubmitOptions,
};
use snn_sim::EventSnn;
use snn_tensor::Tensor;
use snn_trace::{push_context, TraceCollector, TraceTarget};
use ttfs_core::{convert, normalize_output_layer, Base2Kernel};

#[derive(Debug, Serialize)]
struct BackendResult {
    images_per_sec: f64,
    wall_ms: f64,
}

#[derive(Debug, Serialize)]
struct BatchedResult {
    /// Samples integrated together as lanes of one edge-major traversal
    /// (the engine's default, `DEFAULT_MAX_LANES`).
    max_lanes: usize,
    images_per_sec: f64,
    wall_ms: f64,
    /// Batched versus the one-lane walk of the same engine.
    speedup_vs_csr_single: f64,
    /// Streamed logits bit-identical to the one-lane walk's.
    matches_csr_single: bool,
}

#[derive(Debug, Serialize)]
struct CsrMemoryResult {
    /// Edges the integration loop traverses (flat-equivalent count).
    logical_edges: usize,
    /// Edges physically stored after conv pattern deduplication.
    stored_edges: usize,
    /// Bytes of all synapse storage (patterns, offsets, row maps).
    stored_bytes: usize,
    /// Bytes of the stored f32 weight payloads alone (compare with
    /// `quant.code_bytes`).
    weight_bytes: usize,
    /// Bytes a flat per-pixel CSR of the same model would occupy.
    flat_bytes: usize,
    /// Conv-only edge counts (the deduplicated stages).
    conv_logical_edges: usize,
    conv_stored_edges: usize,
    /// Canonical (channel, border-class) patterns across conv stages.
    patterns: usize,
    /// conv_logical_edges / conv_stored_edges.
    conv_dedup_edge_ratio: f64,
    /// flat_bytes / stored_bytes.
    bytes_dedup_ratio: f64,
}

#[derive(Debug, Serialize)]
struct PooledResult {
    images_per_sec: f64,
    wall_ms: f64,
    requests: u64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    latency_mean_us: f64,
}

#[derive(Debug, Serialize)]
struct StreamingResult {
    /// Closed-loop clients (each submits, waits, submits again).
    clients: usize,
    /// Most requests any one client issued (clients owning fewer images
    /// when `clients` does not divide `batch` issue one round less).
    requests_per_client: usize,
    /// Batcher count-flush threshold.
    max_batch: usize,
    /// Batcher deadline, microseconds.
    max_delay_us: u64,
    /// Streamed logits bit-identical to the single-thread CSR rows.
    matches_batched: bool,
    /// Full streaming metrics (e2e/queue-wait/exec percentiles,
    /// queue-wait share, batch-occupancy histogram).
    metrics: StreamingMetrics,
}

#[derive(Debug, Serialize)]
struct GatewayBackpressureResult {
    /// The forced backpressure bound (1: at most one unresolved request).
    max_pending: usize,
    /// Wire-level outcome of the overload run.
    load: LoadReport,
    /// 429s were observed (CI-enforced: sheds must reach the wire).
    saw_429: bool,
    /// Every 200 in the overload run carried bit-correct logits
    /// (CI-enforced: shedding must not corrupt in-flight responses).
    ok_match: bool,
}

#[derive(Debug, Serialize)]
struct GatewayResult {
    /// Closed-loop HTTP client threads.
    clients: usize,
    /// Re-submissions of the sample set per client.
    passes: usize,
    /// Client-side view: status counts, throughput, latency percentiles.
    load: LoadReport,
    /// Every 200 response's logits were bit-identical to the single-thread
    /// CSR rows (must be `true`; CI-enforced).
    matches_batched: bool,
    /// Requests the gateway's HTTP parser rejected (must be 0 under the
    /// well-formed load generator; CI-enforced).
    parse_errors: u64,
    /// Server-side gateway counters and per-route latency.
    metrics: GatewayMetrics,
    /// The gateway's streaming server metrics (includes `shed_requests`).
    streaming: StreamingMetrics,
    /// The forced `max_pending = 1` overload sub-run.
    backpressure: GatewayBackpressureResult,
}

#[derive(Debug, Serialize)]
struct RegistrySwapResult {
    /// Closed-loop run on `/v1/models/alpha/infer` with a version swap
    /// fired mid-run; each 200 is accepted iff its logits bit-match one
    /// version's reference rows.
    load: LoadReport,
    /// Every request answered 200 and matched exactly one version — no
    /// dropped tickets, no blended logits (must be `true`; CI-enforced).
    ok_match: bool,
    /// Both the old and the new version's logits were observed, proving
    /// the swap actually landed mid-run.
    saw_both_versions: bool,
    /// The swapped-to version as reported by the `/swap` response body.
    swapped_to: String,
    /// p99 latency of the no-swap baseline run on the same route, µs.
    baseline_p99_us: f64,
    /// `(swap-run p99 − baseline p99) / baseline p99`: the latency cost a
    /// live swap imposes on concurrent traffic.
    p99_delta_frac: f64,
}

#[derive(Debug, Serialize)]
struct RegistryResult {
    /// Artifacts on disk in the bench model dir.
    models: usize,
    /// Total serialized artifact bytes.
    artifact_bytes: u64,
    /// Wall time the first `get_or_load` spent decoding the artifact, ms
    /// (must be > 0; CI-enforced).
    cold_load_ms: f64,
    /// Backend compile time paid by the same cold start, ms.
    cold_compile_ms: f64,
    /// Resident lookups timed for the warm-hit cost.
    warm_lookups: u64,
    /// Mean warm `get_or_load` cost, nanoseconds — the per-request
    /// registry overhead once a model is resident.
    warm_lookup_mean_ns: f64,
    /// Closed-loop load on `/v1/models/alpha/infer` (active version).
    alpha: LoadReport,
    /// Alpha run: all 200, logits bit-exact (CI-enforced).
    alpha_ok_match: bool,
    /// Closed-loop load on `/v1/models/beta/infer` — a model with
    /// *different* input dims than the gateway's default route.
    beta: LoadReport,
    /// Beta run: all 200, logits bit-exact (CI-enforced).
    beta_ok_match: bool,
    /// The atomic hot-swap-under-load sub-run.
    swap: RegistrySwapResult,
    /// Server-side registry counters (cold/warm/coalesced/evictions).
    metrics: RegistryMetrics,
}

#[derive(Debug, Serialize)]
struct EnergySummary {
    energy_per_image_uj: f64,
    model_fps: f64,
    total_sops: u64,
}

#[derive(Debug, Serialize)]
struct QuantResult {
    /// Code width (sign included) and log base label.
    bits: u8,
    base: String,
    /// Batched quantized throughput (engine default lane count).
    images_per_sec: f64,
    wall_ms: f64,
    /// Stored weight payload: packed codes vs the f32 repacked copy.
    code_bytes: usize,
    f32_weight_bytes: usize,
    /// `f32_weight_bytes / code_bytes` (≥ 4 by construction; CI-enforced).
    weight_bytes_ratio: f64,
    /// Bit-exactness: quantized serving vs the reference event simulator
    /// over `quantize_tensor`'d weights (must be 0.0; CI-enforced).
    max_abs_logit_diff_vs_quantized_event: f32,
    /// Event statistics identical to that quantized reference run.
    stats_match_quantized_event: bool,
    /// Accuracy cost of quantization vs the f32 serving path.
    top1_agreement_vs_f32: f64,
    max_abs_logit_diff_vs_f32: f32,
    /// Shift-add (LogPe Q16 mantissa) datapath diagnostics.
    shift_add_available: bool,
    mantissa_error_bound: f32,
    shift_add_max_rel_error: f32,
    max_abs_logit_diff_shift_add_vs_lut: f32,
    /// Hardware model on the measured quantized workload (proposed
    /// log-PE processor configuration).
    energy: EnergySummary,
}

#[derive(Debug, Serialize)]
struct ObservabilityResult {
    /// Interleaved timing rounds (each round times baseline then traced;
    /// best-of-N is reported, which cancels scheduler noise).
    rounds: usize,
    /// Engine-level `run_batch` with no ambient trace context — the
    /// tracing-off hot path (one thread-local read per instrumentation
    /// point).
    engine_baseline_images_per_sec: f64,
    /// The same engine under an active single-target trace context, every
    /// chunk/encode/stage span recorded.
    engine_traced_images_per_sec: f64,
    /// `(baseline - traced) / baseline`, best-of-N (CI-enforced ≤ 5%).
    tracing_on_overhead_frac: f64,
    /// Traced engine logits bit-identical to the untraced run
    /// (CI-enforced).
    logits_match_with_tracing: bool,
    /// Closed-loop streaming throughput with a *disabled* collector
    /// attached — the realistic tracing-off serving configuration.
    streaming_off_images_per_sec: f64,
    /// Relative delta vs the main (untraced) streaming run; noise-gated in
    /// CI rather than zero-asserted, since closed-loop throughput is
    /// scheduler-sensitive.
    streaming_off_delta_frac: f64,
    /// Closed-loop streaming with every submission traced end to end.
    streaming_on_images_per_sec: f64,
    /// Traced streaming logits bit-identical to the single-thread CSR rows
    /// (CI-enforced).
    streaming_on_matches: bool,
    /// Spans the traced streaming run recorded / evicted (drops are
    /// CI-enforced to 0 at the default collector capacity).
    spans_recorded: u64,
    spans_dropped: u64,
    /// Distinct threads (chrome tracks) that recorded spans.
    trace_tracks: usize,
    /// Size of the Chrome trace-event JSON export; the file itself is
    /// written when `--trace-out <path>` is passed.
    chrome_trace_bytes: usize,
    /// Where the export landed ("" when `--trace-out` was not given).
    chrome_trace_path: String,
}

#[derive(Debug, Serialize)]
struct TelemetryResult {
    /// `/v1/stats` parsed as JSON, carried `schema_version` 1 and a
    /// `model=default` series (CI-enforced).
    stats_parse_ok: bool,
    schema_version: u64,
    /// The `model=default` windowed e2e p99 over the 300 s window, µs.
    windowed_p99_us: f64,
    /// The cumulative recorder's e2e p99 from the same stack, µs.
    cumulative_p99_us: f64,
    /// `windowed / cumulative`. The windowed quantile reports its
    /// log-linear bin's upper edge, so it may overshoot the cumulative
    /// figure by ≤ 25% + 1 µs but never undershoot (CI-enforced).
    p99_agreement_ratio: f64,
    p99_within_tolerance: bool,
    /// Modeled per-inference energy from the windowed per-model series,
    /// µJ (CI-enforced > 0).
    energy_uj_per_inference: f64,
    /// Computed multi-window SLO state for the default model.
    slo_state: String,
    /// Fast-window (1 m) deadline-miss ratio for the default model.
    deadline_miss_ratio_fast: f64,
    /// `GET /dashboard` served a non-empty self-contained HTML page
    /// (CI-enforced).
    dashboard_ok: bool,
    dashboard_bytes: usize,
    /// Mean wall cost of one `/v1/stats` scrape over `scrapes` timed
    /// GETs, µs — what a 1–2 s dashboard poll costs the gateway.
    scrapes: u64,
    scrape_mean_us: f64,
    stats_body_bytes: usize,
    /// Interleaved best-of-N closed-loop HTTP throughput with telemetry
    /// on vs off (fresh identical stacks, same backend Arc).
    rounds: usize,
    on_requests_per_sec: f64,
    off_requests_per_sec: f64,
    /// `(off − on) / off`, best-of-N; noise-gated (≤ 5%) in CI rather
    /// than zero-asserted, since closed-loop HTTP throughput is
    /// scheduler-sensitive.
    telemetry_overhead_frac: f64,
    /// Every 200 in every round was bit-exact against the single-thread
    /// CSR rows, on both sides (CI-enforced: telemetry must not perturb
    /// logits).
    on_ok_match: bool,
    off_ok_match: bool,
}

#[derive(Debug, Serialize)]
struct LoggingResult {
    /// Interleaved best-of-N closed-loop HTTP throughput with the
    /// structured-log flight recorder on (`logging: true`, the default,
    /// plus an incidents dir) vs `logging: false` (fresh identical
    /// stacks, same backend Arc).
    rounds: usize,
    on_requests_per_sec: f64,
    off_requests_per_sec: f64,
    /// `(off − on) / off`, best-of-N; noise-gated (≤ 5%) in CI rather
    /// than zero-asserted, same protocol as the tracing/telemetry gates.
    logging_overhead_frac: f64,
    /// Every 200 in every round was bit-exact on both sides
    /// (CI-enforced: logging must not perturb logits).
    on_ok_match: bool,
    off_ok_match: bool,
    /// Flight-recorder accounting on the logging-on stack after the
    /// rounds: the closed loop's access log must leave events behind,
    /// and at quick scale the ring must not overflow (CI-enforced).
    events_recorded: u64,
    events_dropped: u64,
    /// `GET /v1/logs?level=info` parsed and returned ≥ 1 event
    /// (CI-enforced).
    logs_route_ok: bool,
    /// An explicit incident written on the live stack, then fetched
    /// back over `GET /v1/incidents/<id>`: kind echoed, embedded
    /// `/v1/stats` snapshot parsed (CI-enforced).
    incident_id: String,
    incidents_written: u64,
    incident_round_trip_ok: bool,
}

#[derive(Debug, Serialize)]
struct FaultsResult {
    /// Chaos seeds driven through the full HTTP path with the injector
    /// armed (backend panics, slowdowns, connection resets, brownout).
    seeds: Vec<u64>,
    /// Aggregate wire-visible outcomes across every storm seed. These
    /// five buckets partition `storm_requests` exactly: a request that
    /// fell into none of them would have hung a closed-loop client.
    storm_requests: u64,
    storm_ok_200: u64,
    storm_shed_429: u64,
    storm_unavailable_503: u64,
    storm_other_status: u64,
    storm_transport_errors: u64,
    /// `200` responses whose logits did not bit-match the reference
    /// (CI-gated to 0: faults may fail requests, never corrupt them).
    storm_mismatches: u64,
    /// Every issued request resolved to exactly one typed outcome.
    all_resolved: bool,
    /// Faults actually fired, summed over every armed segment.
    injected: FaultCounts,
    injected_total: u64,
    /// Blast-radius isolation counters from the storm server: batches
    /// re-run after a panic, and requests quarantined after panicking
    /// solo on the retry path.
    batch_retries: u64,
    quarantined: u64,
    /// Clean closed loop through the *same* gateway/server after
    /// disarming: all `200`, bit-exact — the stack survived the storm.
    post_storm_ok: bool,
    /// Repeated injected compile failures opened the per-model circuit
    /// breaker, an open-state lookup was rejected without a load
    /// attempt, and the half-open probe after "repair" closed it again.
    breaker_opened: bool,
    breaker_recovered: bool,
    breaker_rejections: u64,
    /// An injected torn write failed the save but left the previously
    /// committed artifact bytes loadable (crash-safe save protocol).
    torn_write_survived: bool,
    /// Closed-loop streaming throughput with the injector disarmed, and
    /// its fractional delta versus the main `streaming` section — the
    /// disabled path is one relaxed atomic load, so CI gates the delta
    /// to the run-to-run noise band.
    disabled_images_per_sec: f64,
    disabled_delta_frac: f64,
}

#[derive(Debug, Serialize)]
struct RuntimeBenchReport {
    scale: String,
    geometry: String,
    weighted_layers: usize,
    window: u32,
    batch: usize,
    threads: usize,
    chunk_size: usize,
    csr_edges: usize,
    csr_memory: CsrMemoryResult,
    event_single: BackendResult,
    csr_single: BackendResult,
    batched: BatchedResult,
    csr_pooled: PooledResult,
    streaming: StreamingResult,
    gateway: GatewayResult,
    registry: RegistryResult,
    faults: FaultsResult,
    quant: QuantResult,
    observability: ObservabilityResult,
    telemetry: TelemetryResult,
    logging: LoggingResult,
    speedup_csr_single: f64,
    speedup_batched: f64,
    speedup_csr_pooled: f64,
    max_abs_logit_diff_vs_reference: f32,
    logits_within_1e4: bool,
    stats_match_reference_backend: bool,
    energy_fast_path: EnergySummary,
}

fn main() {
    let scale = Scale::from_env();
    let (width_div, batch) = match scale {
        Scale::Quick => (16usize, 24usize),
        Scale::Default => (8, 64),
        Scale::Full => (4, 128),
    };
    let classes = 10usize;
    let side = 32usize;
    let window = 24u32;

    // Both backends quantize activations onto the TTFS kernel grid each
    // layer, so they agree exactly except when a membrane sum lands within
    // f32-summation-order noise of a threshold grid point and the two
    // accumulation orders encode one timestep apart. The seed is
    // overridable so such quantization-cliff workloads stay reproducible.
    let seed = std::env::var("SNN_BENCH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7u64);
    let mut rng = StdRng::seed_from_u64(seed);
    let net = vgg16_scaled(side, classes, width_div, &mut rng);
    let mut model = convert(&net, Base2Kernel::paper_default(), window).expect("conversion");
    let input_dims = [3usize, side, side];
    let x = snn_tensor::uniform(&[batch, 3, side, side], 0.0, 1.0, &mut rng);
    // Deployment step of the paper's pipeline: scale the readout so logits
    // sit in the fixed-point-friendly unit range (argmax-invariant).
    let calib_len = 8.min(batch);
    let calib = snn_tensor::Tensor::from_vec(
        x.as_slice()[..calib_len * 3 * side * side].to_vec(),
        &[calib_len, 3, side, side],
    )
    .expect("calibration slice");
    normalize_output_layer(&mut model, &calib).expect("output normalization");

    eprintln!(
        "# runtime_throughput: VGG-16/{} geometry @ {side}x{side}, batch {batch}, window {window}",
        width_div
    );

    // One read-only copy of the converted model, shared by every engine
    // and server below.
    let model = Arc::new(model);

    // Reference backend, single thread.
    let event = EventSnn::new(&model);
    let t0 = Instant::now();
    let (event_logits, event_stats) = event.run(&x).expect("event run");
    let event_wall = t0.elapsed();

    // CSR engine over the pattern-deduplicated synapse tables. `csr` keeps
    // the engine's default lane count (edge-major batched
    // integration); the one-lane clone is the classic sample-at-a-time
    // walk for comparison. Both share the same Arc'd model + compiled CSR.
    let csr =
        Arc::new(CsrEngine::compile_shared(Arc::clone(&model), &input_dims).expect("csr compile"));
    let csr_edges = csr.total_edges();
    let footprint = csr.compiled().footprint();
    let csr_one_lane = csr.as_ref().clone().with_max_lanes(1);
    // One untimed pass per engine first: the freshly compiled tables pay
    // page-in/first-touch and scratch-allocation costs on their first
    // traversal, which would otherwise bias whichever path runs first.
    let _ = csr_one_lane.run_batch(&x).expect("csr warm-up");
    let _ = csr.run_batch(&x).expect("batched warm-up");
    let t0 = Instant::now();
    let (csr_logits, csr_stats) = csr_one_lane.run_batch(&x).expect("csr single run");
    let csr_wall = t0.elapsed();

    // Edge-major batched integration (the engine default).
    let t0 = Instant::now();
    let (batched_logits, batched_stats) = csr.run_batch(&x).expect("batched run");
    let batched_wall = t0.elapsed();
    let batched_matches = batched_logits.as_slice() == csr_logits.as_slice();
    assert!(
        batched_matches && batched_stats == csr_stats,
        "batched path must be bit-identical to the one-lane walk"
    );

    // CSR engine behind the worker pool.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let chunk_size = (batch / (threads * 2)).max(1);
    let server = InferenceServer::new(
        Arc::clone(&csr) as Arc<dyn InferenceBackend>,
        ServerConfig {
            threads,
            chunk_size,
        },
    );
    let report = server.run(&x).expect("pooled run");

    // CSR engine behind the streaming deadline batcher, driven by a
    // closed-loop load generator (each client submits one image, waits for
    // its ticket, then submits the next — classic closed-loop offered
    // load, so concurrency == clients).
    let passes = match scale {
        Scale::Quick => 2usize,
        Scale::Default => 3,
        Scale::Full => 4,
    };
    // More clients than workers, so the batcher sees genuine queueing
    // pressure and forms multi-image batches even on small machines.
    let streaming = closed_loop_streaming(
        Arc::clone(&csr) as Arc<dyn InferenceBackend>,
        &x,
        &csr_logits,
        threads * 4,
        passes,
        chunk_size.max(2),
        Duration::from_millis(2),
        None,
    );
    assert!(
        streaming.matches_batched,
        "streamed logits must equal single-thread CSR logits"
    );

    // Tracing cost at both layers: interleaved best-of-N engine runs under
    // an ambient trace context, plus disabled-collector and fully-traced
    // closed-loop streaming runs. `--trace-out <path>` additionally dumps
    // the traced run as Chrome trace-event JSON.
    let observability = observability_bench(
        &csr,
        Arc::clone(&csr) as Arc<dyn InferenceBackend>,
        &x,
        &csr_logits,
        streaming.metrics.images_per_sec,
        threads * 4,
        passes,
        chunk_size.max(2),
        Duration::from_millis(2),
        trace_out_path(),
    );
    assert!(
        observability.logits_match_with_tracing,
        "tracing must not perturb engine logits"
    );
    assert!(
        observability.streaming_on_matches,
        "traced streaming logits must equal single-thread CSR logits"
    );
    assert_eq!(
        observability.spans_dropped, 0,
        "default collector capacity must hold the bench's span volume"
    );

    // HTTP gateway smoke: the same CSR backend behind a loopback
    // snn-gateway, driven end-to-end by the std-only HTTP load generator
    // (random per-request deadlines/priorities ride the wire into the EDF
    // batcher), plus a forced max_pending=1 overload that must shed 429s.
    let gateway = gateway_smoke(
        Arc::clone(&csr) as Arc<dyn InferenceBackend>,
        &x,
        &csr_logits,
        &input_dims,
        (threads * 2).clamp(2, 8),
        passes,
        chunk_size.max(2),
        Duration::from_millis(2),
        seed,
    );
    assert!(
        gateway.matches_batched,
        "HTTP-served logits must equal single-thread CSR logits"
    );
    assert_eq!(gateway.parse_errors, 0, "load generator speaks clean HTTP");
    assert!(
        gateway.backpressure.saw_429,
        "max_pending=1 must shed 429s on the wire"
    );
    assert!(
        gateway.backpressure.ok_match,
        "shedding must not corrupt in-flight responses"
    );

    // Live telemetry: interleaved telemetry-on/off gateway stacks for the
    // overhead gate, then a scrape of /v1/stats and /dashboard whose
    // windowed per-model figures must agree with the cumulative recorders.
    let telemetry = telemetry_bench(
        Arc::clone(&csr) as Arc<dyn InferenceBackend>,
        &x,
        &csr_logits,
        &input_dims,
        (threads * 2).clamp(2, 8),
        passes,
        chunk_size.max(2),
        Duration::from_millis(2),
        seed,
    );
    assert!(
        telemetry.stats_parse_ok,
        "/v1/stats must parse with schema_version 1 and a model=default series"
    );
    assert!(
        telemetry.dashboard_ok,
        "/dashboard must serve a non-empty self-contained page"
    );
    assert!(
        telemetry.energy_uj_per_inference > 0.0,
        "per-model energy attribution must be positive"
    );
    assert!(
        telemetry.p99_within_tolerance,
        "windowed p99 ({} µs) must agree with the cumulative recorder ({} µs)",
        telemetry.windowed_p99_us, telemetry.cumulative_p99_us
    );
    assert!(
        telemetry.on_ok_match && telemetry.off_ok_match,
        "logits must stay bit-exact with telemetry on and off"
    );

    // Structured logging + flight recorder: interleaved logging-on/off
    // stacks for the overhead gate, then the /v1/logs ring and an
    // explicit incident round-trip through /v1/incidents/<id>.
    let logging = logging_bench(
        Arc::clone(&csr) as Arc<dyn InferenceBackend>,
        &x,
        &csr_logits,
        &input_dims,
        (threads * 2).clamp(2, 8),
        passes,
        chunk_size.max(2),
        Duration::from_millis(2),
        seed,
    );
    assert!(
        logging.on_ok_match && logging.off_ok_match,
        "logits must stay bit-exact with logging on and off"
    );
    assert!(
        logging.events_recorded > 0,
        "the closed loop must leave flight-recorder events behind"
    );
    assert!(
        logging.logs_route_ok,
        "/v1/logs must serve the recorded ring"
    );
    assert!(
        logging.incident_round_trip_ok,
        "an incident must round-trip through /v1/incidents/<id>"
    );
    if matches!(scale, Scale::Quick) {
        assert_eq!(
            logging.events_dropped, 0,
            "quick scale must not overflow the flight ring"
        );
    }

    // Multi-model registry: artifact cold start, warm lookup cost,
    // per-model routing for two geometries through one gateway, and an
    // atomic version swap under closed-loop load.
    let registry_passes = match scale {
        Scale::Quick => 30usize,
        Scale::Default => 60,
        Scale::Full => 100,
    };
    let registry = registry_smoke((threads * 2).clamp(2, 6), registry_passes, seed);
    assert!(registry.cold_load_ms > 0.0, "cold start paid a real load");
    assert!(
        registry.alpha_ok_match && registry.beta_ok_match,
        "both model routes must serve bit-exact logits"
    );
    assert!(
        registry.swap.ok_match,
        "hot swap must not drop or blend a single request"
    );

    // Seeded fault storms: the injector armed over the full HTTP path
    // (panics, slowdowns, resets, brownout sheds), the circuit-breaker
    // open-and-recover scenario, a torn artifact write, and the
    // disabled-injector overhead guard. Disarms before returning, so
    // every later section runs the production fast path.
    let faults = faults_bench(
        Arc::clone(&csr) as Arc<dyn InferenceBackend>,
        &x,
        &csr_logits,
        &input_dims,
        streaming.metrics.images_per_sec,
        (threads * 2).clamp(2, 8),
        threads * 4,
        passes,
        chunk_size.max(2),
        Duration::from_millis(2),
        seed,
    );
    assert!(
        faults.all_resolved,
        "every storm request must resolve to a typed outcome"
    );
    assert_eq!(
        faults.storm_mismatches, 0,
        "storm 200s must stay bit-exact: faults may fail requests, never corrupt them"
    );
    assert!(
        faults.post_storm_ok,
        "the serving stack must come back clean after the storm"
    );
    assert!(
        faults.breaker_opened && faults.breaker_recovered,
        "the circuit breaker must open under repeated failures and recover after repair"
    );
    assert!(
        faults.torn_write_survived,
        "a torn write must leave the previously committed artifact loadable"
    );
    assert!(
        faults.injected_total > 0,
        "the storm must actually fire injected faults"
    );

    // Quantized serving path: packed 5-bit log codes + LUT decode, from
    // the same shared model Arc. Ground truth for bit-exactness is the
    // reference event simulator over per-layer quantize_tensor'd weights.
    let qconfig = QuantConfig::default();
    let quant_engine = QuantEngine::compile_shared(Arc::clone(&model), &input_dims, qconfig)
        .expect("quant compile");
    let (qmodel, _) = quantize_model(&model, qconfig.base, qconfig.bits).expect("quantize model");
    let (qevent_logits, qevent_stats) = EventSnn::new(&qmodel).run(&x).expect("quantized event");
    let _ = quant_engine.run_batch(&x).expect("quant warm-up");
    let t0 = Instant::now();
    let (quant_logits, quant_stats) = quant_engine.run_batch(&x).expect("quant run");
    let quant_wall = t0.elapsed();
    let quant_vs_event = max_abs_diff(&quant_logits, &qevent_logits);
    assert_eq!(
        quant_vs_event, 0.0,
        "quantized serving must be bit-identical to EventSnn over quantized weights"
    );
    // Shift-add (LogPe Q16 mantissa) datapath versus the exact LUT.
    let shift_add = quant_engine
        .clone()
        .with_mode(DecodeMode::ShiftAdd)
        .expect("paper kernel satisfies eq. 18");
    let (sa_logits, _) = shift_add.run_batch(&x).expect("shift-add run");
    let quant_fp = quant_engine.compiled().footprint();

    // Equivalence versus the analytic reference.
    let reference = model.reference_forward(&x).expect("reference forward");
    let max_diff = max_abs_diff(&csr_logits, &reference);
    let pooled_matches_csr = report.logits.as_slice() == csr_logits.as_slice();
    let event_matches_csr = event_logits.as_slice() == csr_logits.as_slice();
    assert!(
        pooled_matches_csr,
        "pooled logits must equal single-thread CSR logits"
    );
    assert!(
        event_matches_csr,
        "CSR logits must equal reference-backend logits"
    );

    // Hardware energy report from the fast path's measured event counts.
    let processor = Processor::new(ProcessorConfig::proposed());
    let hw = energy::energy_report(&processor, &model, &report.stats, &input_dims)
        .expect("energy report");
    let quant_hw = energy::quant_energy_report(&processor, &quant_engine, &quant_stats)
        .expect("quant energy report");

    let per_sec = |n: usize, wall: std::time::Duration| n as f64 / wall.as_secs_f64();
    let out = RuntimeBenchReport {
        scale: format!("{scale:?}"),
        geometry: format!("vgg16/w{width_div} @ {side}x{side}"),
        weighted_layers: model.weighted_layers(),
        window,
        batch,
        threads,
        chunk_size,
        csr_edges,
        csr_memory: CsrMemoryResult {
            logical_edges: footprint.logical_edges,
            stored_edges: footprint.stored_edges,
            stored_bytes: footprint.stored_bytes,
            weight_bytes: footprint.weight_bytes,
            flat_bytes: footprint.flat_bytes,
            conv_logical_edges: footprint.conv_logical_edges,
            conv_stored_edges: footprint.conv_stored_edges,
            patterns: footprint.patterns,
            conv_dedup_edge_ratio: footprint.conv_dedup_ratio(),
            bytes_dedup_ratio: footprint.flat_bytes as f64 / footprint.stored_bytes.max(1) as f64,
        },
        event_single: BackendResult {
            images_per_sec: per_sec(batch, event_wall),
            wall_ms: event_wall.as_secs_f64() * 1e3,
        },
        csr_single: BackendResult {
            images_per_sec: per_sec(batch, csr_wall),
            wall_ms: csr_wall.as_secs_f64() * 1e3,
        },
        batched: BatchedResult {
            max_lanes: csr.max_lanes(),
            images_per_sec: per_sec(batch, batched_wall),
            wall_ms: batched_wall.as_secs_f64() * 1e3,
            speedup_vs_csr_single: csr_wall.as_secs_f64() / batched_wall.as_secs_f64(),
            matches_csr_single: batched_matches,
        },
        csr_pooled: PooledResult {
            images_per_sec: report.metrics.images_per_sec,
            wall_ms: report.metrics.wall_ms,
            requests: report.metrics.requests,
            latency_p50_us: report.metrics.latency_p50_us,
            latency_p99_us: report.metrics.latency_p99_us,
            latency_mean_us: report.metrics.latency_mean_us,
        },
        streaming,
        gateway,
        registry,
        faults,
        quant: QuantResult {
            bits: qconfig.bits,
            base: qconfig.base.label(),
            images_per_sec: per_sec(batch, quant_wall),
            wall_ms: quant_wall.as_secs_f64() * 1e3,
            code_bytes: quant_fp.weight_bytes,
            f32_weight_bytes: footprint.weight_bytes,
            weight_bytes_ratio: footprint.weight_bytes as f64 / quant_fp.weight_bytes.max(1) as f64,
            max_abs_logit_diff_vs_quantized_event: quant_vs_event,
            stats_match_quantized_event: quant_stats == qevent_stats,
            top1_agreement_vs_f32: top1_agreement(&quant_logits, &csr_logits),
            max_abs_logit_diff_vs_f32: max_abs_diff(&quant_logits, &csr_logits),
            shift_add_available: quant_engine.compiled().shift_add_available(),
            mantissa_error_bound: quant_engine.compiled().mantissa_error_bound(),
            shift_add_max_rel_error: quant_engine
                .compiled()
                .layers()
                .iter()
                .map(|l| l.shift_add_max_rel_error)
                .fold(0.0, f32::max),
            max_abs_logit_diff_shift_add_vs_lut: max_abs_diff(&sa_logits, &quant_logits),
            energy: EnergySummary {
                energy_per_image_uj: quant_hw.energy_per_image_uj,
                model_fps: quant_hw.fps,
                total_sops: quant_hw.total_sops,
            },
        },
        observability,
        telemetry,
        logging,
        speedup_csr_single: event_wall.as_secs_f64() / csr_wall.as_secs_f64(),
        speedup_batched: event_wall.as_secs_f64() / batched_wall.as_secs_f64(),
        speedup_csr_pooled: event_wall.as_secs_f64() / (report.metrics.wall_ms / 1e3),
        max_abs_logit_diff_vs_reference: max_diff,
        logits_within_1e4: max_diff <= 1e-4,
        stats_match_reference_backend: csr_stats == event_stats && batched_stats == event_stats,
        energy_fast_path: EnergySummary {
            energy_per_image_uj: hw.energy_per_image_uj,
            model_fps: hw.fps,
            total_sops: hw.total_sops,
        },
    };

    let json = serde_json::to_string_pretty(&out).expect("serialize report");
    std::fs::write("BENCH_runtime.json", &json).expect("write BENCH_runtime.json");

    println!("{json}");
    eprintln!(
        "event {:.1} img/s | csr x1 {:.1} img/s ({:.2}x) | batched({} lanes) {:.1} img/s ({:.2}x) | csr pool({threads}t) {:.1} img/s ({:.2}x) | p99 {:.0} µs | max|Δlogit| {:.2e}",
        out.event_single.images_per_sec,
        out.csr_single.images_per_sec,
        out.speedup_csr_single,
        out.batched.max_lanes,
        out.batched.images_per_sec,
        out.speedup_batched,
        out.csr_pooled.images_per_sec,
        out.speedup_csr_pooled,
        out.csr_pooled.latency_p99_us,
        out.max_abs_logit_diff_vs_reference,
    );
    eprintln!(
        "csr memory: {} logical edges -> {} stored ({} patterns) | conv dedup {:.0}x edges | {:.2} MB -> {:.3} MB",
        out.csr_memory.logical_edges,
        out.csr_memory.stored_edges,
        out.csr_memory.patterns,
        out.csr_memory.conv_dedup_edge_ratio,
        out.csr_memory.flat_bytes as f64 / 1e6,
        out.csr_memory.stored_bytes as f64 / 1e6,
    );
    eprintln!(
        "quant({}b {}) {:.1} img/s | codes {:.3} MB vs f32 {:.3} MB ({:.1}x) | vs quantized event {:.1e} | top-1 vs f32 {:.1}% | shift-add bound {:.1e} | {:.2} µJ/img",
        out.quant.bits,
        out.quant.base,
        out.quant.images_per_sec,
        out.quant.code_bytes as f64 / 1e6,
        out.quant.f32_weight_bytes as f64 / 1e6,
        out.quant.weight_bytes_ratio,
        out.quant.max_abs_logit_diff_vs_quantized_event,
        out.quant.top1_agreement_vs_f32 * 100.0,
        out.quant.mantissa_error_bound,
        out.quant.energy.energy_per_image_uj,
    );
    eprintln!(
        "stream({}c) {:.1} img/s | e2e p50 {:.0} µs p99 {:.0} µs | queue share {:.0}% | occupancy mean {:.1} max {} | shed {}",
        out.streaming.clients,
        out.streaming.metrics.images_per_sec,
        out.streaming.metrics.e2e_p50_us,
        out.streaming.metrics.e2e_p99_us,
        out.streaming.metrics.queue_wait_share * 100.0,
        out.streaming.metrics.mean_batch_occupancy,
        out.streaming.metrics.max_batch_occupancy,
        out.streaming.metrics.shed_requests,
    );
    eprintln!(
        "gateway({}c http) {:.1} req/s | p50 {:.0} µs p99 {:.0} µs | {} ok / {} total | parse errors {} | backpressure: {} x 429, ok {}",
        out.gateway.clients,
        out.gateway.load.requests_per_sec,
        out.gateway.load.latency_p50_us,
        out.gateway.load.latency_p99_us,
        out.gateway.load.ok_200,
        out.gateway.load.requests,
        out.gateway.parse_errors,
        out.gateway.backpressure.load.shed_429,
        out.gateway.backpressure.load.ok_200,
    );
    eprintln!(
        "registry: cold {:.2} ms load + {:.2} ms compile | warm {:.0} ns | alpha {:.1} req/s, beta {:.1} req/s | swap p99 {:+.1}% ({} old / {} new, 0 dropped: {})",
        out.registry.cold_load_ms,
        out.registry.cold_compile_ms,
        out.registry.warm_lookup_mean_ns,
        out.registry.alpha.requests_per_sec,
        out.registry.beta.requests_per_sec,
        out.registry.swap.p99_delta_frac * 100.0,
        out.registry.swap.load.ok_per_expected.first().copied().unwrap_or(0),
        out.registry.swap.load.ok_per_expected.get(1).copied().unwrap_or(0),
        out.registry.swap.ok_match,
    );
    eprintln!(
        "trace: engine overhead {:+.2}% (best of {}) | stream off delta {:+.2}% | traced {:.1} img/s, {} spans on {} tracks, {} dropped | chrome {} bytes{}",
        out.observability.tracing_on_overhead_frac * 100.0,
        out.observability.rounds,
        out.observability.streaming_off_delta_frac * 100.0,
        out.observability.streaming_on_images_per_sec,
        out.observability.spans_recorded,
        out.observability.trace_tracks,
        out.observability.spans_dropped,
        out.observability.chrome_trace_bytes,
        if out.observability.chrome_trace_path.is_empty() {
            String::new()
        } else {
            format!(" -> {}", out.observability.chrome_trace_path)
        },
    );
    eprintln!(
        "telemetry: windowed p99 {:.0} µs vs cumulative {:.0} µs (x{:.3}) | {:.2} µJ/inference | slo {} | scrape {:.0} µs ({} B) | on/off delta {:+.2}%",
        out.telemetry.windowed_p99_us,
        out.telemetry.cumulative_p99_us,
        out.telemetry.p99_agreement_ratio,
        out.telemetry.energy_uj_per_inference,
        out.telemetry.slo_state,
        out.telemetry.scrape_mean_us,
        out.telemetry.stats_body_bytes,
        out.telemetry.telemetry_overhead_frac * 100.0,
    );
    eprintln!(
        "logging: {} events ({} dropped) | /v1/logs ok {} | incident {} round-trip {} ({} written) | on/off delta {:+.2}%",
        out.logging.events_recorded,
        out.logging.events_dropped,
        out.logging.logs_route_ok,
        out.logging.incident_id,
        out.logging.incident_round_trip_ok,
        out.logging.incidents_written,
        out.logging.logging_overhead_frac * 100.0,
    );
    eprintln!(
        "faults({} seeds) {} req: {} ok / {} 429 / {} 503 / {} other / {} transport | injected {} | mismatches {} | retries {} quarantined {} | post-storm ok {} | breaker open {} recover {} | torn-write survived {} | disabled delta {:+.2}%",
        out.faults.seeds.len(),
        out.faults.storm_requests,
        out.faults.storm_ok_200,
        out.faults.storm_shed_429,
        out.faults.storm_unavailable_503,
        out.faults.storm_other_status,
        out.faults.storm_transport_errors,
        out.faults.injected_total,
        out.faults.storm_mismatches,
        out.faults.batch_retries,
        out.faults.quarantined,
        out.faults.post_storm_ok,
        out.faults.breaker_opened,
        out.faults.breaker_recovered,
        out.faults.torn_write_survived,
        out.faults.disabled_delta_frac * 100.0,
    );
}

/// Boots a loopback gateway over `backend`, drives it with the closed-loop
/// HTTP load generator (random per-request deadlines and priorities), then
/// repeats at `max_pending = 1` to force wire-visible 429 sheds. Every 200
/// response's logits are checked bit-for-bit against `expected_logits`.
#[allow(clippy::too_many_arguments)]
fn gateway_smoke(
    backend: Arc<dyn InferenceBackend>,
    x: &Tensor,
    expected_logits: &Tensor,
    input_dims: &[usize],
    clients: usize,
    passes: usize,
    max_batch: usize,
    max_delay: Duration,
    seed: u64,
) -> GatewayResult {
    let server = Arc::new(StreamingServer::new(
        Arc::clone(&backend),
        StreamingConfig {
            threads: 0,
            max_batch,
            max_delay,
            max_pending: 0,
            brownout: None,
        },
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: clients,
            ..GatewayConfig::for_dims(input_dims)
        },
    )
    .expect("gateway bind on loopback");
    let load = run_closed_loop(
        gateway.local_addr(),
        x,
        Some(expected_logits),
        &LoadGenConfig {
            clients,
            passes,
            deadline_ms: Some((1.0, 8.0)),
            max_priority: 3,
            seed,
            ..LoadGenConfig::default()
        },
    );
    let metrics = gateway.shutdown();
    let streaming = server.shutdown();
    let matches_batched = load.mismatches == 0 && load.ok_200 > 0 && load.ok_200 == load.requests;
    let parse_errors = metrics.parse_errors;

    // Overload sub-run: a fresh serving stack with max_pending = 1 and a
    // wide batching window, hammered by 4 clients — concurrent submitters
    // must bounce off the single admission slot as wire-level 429s. A
    // pathological scheduler could serialize a round perfectly, so retry
    // up to 3 rounds for sheds (in practice the first round sheds).
    let sample_len: usize = input_dims.iter().product();
    let classes = expected_logits.dims()[1];
    let sub_n = x.dims()[0].min(8);
    let mut sub_dims = vec![sub_n];
    sub_dims.extend_from_slice(input_dims);
    let sub_x = Tensor::from_vec(x.as_slice()[..sub_n * sample_len].to_vec(), &sub_dims)
        .expect("subset slice");
    let sub_expected = Tensor::from_vec(
        expected_logits.as_slice()[..sub_n * classes].to_vec(),
        &[sub_n, classes],
    )
    .expect("subset logits");
    let bp_server = Arc::new(StreamingServer::new(
        backend,
        StreamingConfig {
            threads: 1,
            max_batch: 64,
            max_delay: Duration::from_millis(15),
            max_pending: 1,
            brownout: None,
        },
    ));
    let mut bp_gateway = Gateway::start(
        Arc::clone(&bp_server),
        GatewayConfig {
            workers: 4,
            ..GatewayConfig::for_dims(input_dims)
        },
    )
    .expect("backpressure gateway bind");
    let mut bp_load = None;
    for round in 0..3u64 {
        let r = run_closed_loop(
            bp_gateway.local_addr(),
            &sub_x,
            Some(&sub_expected),
            &LoadGenConfig {
                clients: 4,
                passes: 4,
                deadline_ms: None,
                max_priority: 0,
                seed: seed ^ (0xB00 + round),
                ..LoadGenConfig::default()
            },
        );
        let saw = r.shed_429 > 0;
        bp_load = Some(r);
        if saw {
            break;
        }
    }
    bp_gateway.shutdown();
    bp_server.shutdown();
    let bp_load = bp_load.expect("at least one overload round");
    let backpressure = GatewayBackpressureResult {
        max_pending: 1,
        saw_429: bp_load.shed_429 > 0,
        ok_match: bp_load.mismatches == 0 && bp_load.ok_200 > 0,
        load: bp_load,
    };
    GatewayResult {
        clients,
        passes,
        load,
        matches_batched,
        parse_errors,
        metrics,
        streaming,
        backpressure,
    }
}

/// The live-telemetry section: two identical gateway stacks over the same
/// backend — one with the windowed `TelemetryHub` attached (the
/// default), one with `telemetry: false` — driven by interleaved
/// best-of-N closed-loop HTTP rounds for the overhead estimate. The
/// telemetry-on stack is then scraped: `/v1/stats` must parse with the
/// documented schema and its `model=default` windowed p99 / energy
/// figures must agree with the cumulative recorders; `/dashboard` must
/// serve a non-empty self-contained page; N timed scrapes price the
/// dashboard's poll loop.
#[allow(clippy::too_many_arguments)]
fn telemetry_bench(
    backend: Arc<dyn InferenceBackend>,
    x: &Tensor,
    expected_logits: &Tensor,
    input_dims: &[usize],
    clients: usize,
    passes: usize,
    max_batch: usize,
    max_delay: Duration,
    seed: u64,
) -> TelemetryResult {
    let make_stack = |telemetry: bool| {
        let server = Arc::new(StreamingServer::new(
            Arc::clone(&backend),
            StreamingConfig {
                threads: 0,
                max_batch,
                max_delay,
                max_pending: 0,
                brownout: None,
            },
        ));
        let gateway = Gateway::start(
            Arc::clone(&server),
            GatewayConfig {
                workers: clients,
                telemetry,
                ..GatewayConfig::for_dims(input_dims)
            },
        )
        .expect("telemetry gateway bind");
        (gateway, server)
    };
    let (mut on_gateway, on_server) = make_stack(true);
    let (mut off_gateway, off_server) = make_stack(false);

    // Interleaved best-of-N: each round drives the identical closed loop
    // through both stacks back to back, so frequency/scheduler drift hits
    // both sides equally; best-of-N on each side is the overhead estimate
    // (same protocol as the tracing and fault-injection overhead gates).
    let rounds = 5usize;
    let mut best_on = 0.0f64;
    let mut best_off = 0.0f64;
    let mut on_ok_match = true;
    let mut off_ok_match = true;
    let clean = |r: &LoadReport| {
        r.mismatches == 0 && r.transport_errors == 0 && r.ok_200 > 0 && r.ok_200 == r.requests
    };
    for round in 0..rounds as u64 {
        let config = |s: u64| LoadGenConfig {
            clients,
            passes,
            seed: s,
            ..LoadGenConfig::default()
        };
        let off = run_closed_loop(
            off_gateway.local_addr(),
            x,
            Some(expected_logits),
            &config(seed ^ (0x0FF0 + round)),
        );
        off_ok_match &= clean(&off);
        best_off = best_off.max(off.requests_per_sec);
        let on = run_closed_loop(
            on_gateway.local_addr(),
            x,
            Some(expected_logits),
            &config(seed ^ (0x0A00 + round)),
        );
        on_ok_match &= clean(&on);
        best_on = best_on.max(on.requests_per_sec);
    }
    let telemetry_overhead_frac = (best_off - best_on) / best_off.max(1e-9);

    // Scrape the telemetry-on stack while its windows still hold every
    // round's traffic (the rounds take seconds; the widest window is
    // 300 s), so windowed and cumulative figures describe the same load.
    let mut client = HttpClient::connect(on_gateway.local_addr()).expect("stats client");
    let stats = client.get("/v1/stats").expect("stats GET");
    let stats_body_bytes = stats.body.len();
    let parsed: Option<serde::Content> = std::str::from_utf8(&stats.body)
        .ok()
        .and_then(|text| serde_json::from_str(text).ok())
        .filter(|_| stats.status == 200);

    let mut schema_version = 0u64;
    let mut windowed_p99_us = 0.0f64;
    let mut cumulative_p99_us = 0.0f64;
    let mut energy_uj_per_inference = 0.0f64;
    let mut slo_state = String::new();
    let mut deadline_miss_ratio_fast = 0.0f64;
    let mut found_default_model = false;
    if let Some(map) = parsed.as_ref().and_then(|c| c.as_map()) {
        schema_version = serde::field(map, "schema_version")
            .ok()
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        cumulative_p99_us = serde::field(map, "cumulative")
            .ok()
            .and_then(|c| c.as_map())
            .and_then(|c| serde::field(c, "e2e_p99_us").ok())
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        if let Some(models) = serde::field(map, "models").ok().and_then(|m| m.as_seq()) {
            if let Some(model) = models
                .iter()
                .filter_map(|m| m.as_map())
                .find(|m| serde::field(m, "model").ok().and_then(|v| v.as_str()) == Some("default"))
            {
                found_default_model = true;
                windowed_p99_us = serde::field(model, "e2e_us")
                    .ok()
                    .and_then(|w| w.as_map())
                    .and_then(|w| serde::field(w, "300s").ok())
                    .and_then(|w| w.as_map())
                    .and_then(|w| serde::field(w, "p99").ok())
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0);
                energy_uj_per_inference = serde::field(model, "energy_uj_per_inference")
                    .ok()
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0);
                slo_state = serde::field(model, "slo_state")
                    .ok()
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_string();
                deadline_miss_ratio_fast = serde::field(model, "deadline_miss_ratio")
                    .ok()
                    .and_then(|r| r.as_map())
                    .and_then(|r| serde::field(r, "fast").ok())
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0);
            }
        }
    }
    let stats_parse_ok = parsed.is_some() && schema_version == 1 && found_default_model;
    // Windowed quantiles report their log-linear bin's upper edge: bounded
    // overshoot, never undershoot (see the snn-telemetry docs).
    let p99_within_tolerance = cumulative_p99_us > 0.0
        && windowed_p99_us >= cumulative_p99_us * 0.99
        && windowed_p99_us <= cumulative_p99_us * 1.25 + 1.0;

    // What one dashboard poll costs the gateway.
    let scrapes = 30u64;
    let t0 = Instant::now();
    for _ in 0..scrapes {
        let scrape = client.get("/v1/stats").expect("stats scrape");
        assert_eq!(scrape.status, 200, "scrape loop must keep getting 200s");
    }
    let scrape_mean_us = t0.elapsed().as_micros() as f64 / scrapes as f64;

    let dash = client.get("/dashboard").expect("dashboard GET");
    let dashboard_bytes = dash.body.len();
    let dashboard_ok = dash.status == 200
        && dashboard_bytes > 1000
        && std::str::from_utf8(&dash.body)
            .map(|h| h.contains("<!DOCTYPE html>") && h.contains("/v1/stats"))
            .unwrap_or(false);

    on_gateway.shutdown();
    on_server.shutdown();
    off_gateway.shutdown();
    off_server.shutdown();

    TelemetryResult {
        stats_parse_ok,
        schema_version,
        windowed_p99_us,
        cumulative_p99_us,
        p99_agreement_ratio: windowed_p99_us / cumulative_p99_us.max(1e-9),
        p99_within_tolerance,
        energy_uj_per_inference,
        slo_state,
        deadline_miss_ratio_fast,
        dashboard_ok,
        dashboard_bytes,
        scrapes,
        scrape_mean_us,
        stats_body_bytes,
        rounds,
        on_requests_per_sec: best_on,
        off_requests_per_sec: best_off,
        telemetry_overhead_frac,
        on_ok_match,
        off_ok_match,
    }
}

/// The structured-logging section: two identical gateway stacks over the
/// same backend — one with the flight recorder and an incidents dir
/// attached (`logging: true`, the default), one with `logging: false` —
/// driven by interleaved best-of-N closed-loop rounds for the overhead
/// estimate (same protocol as the tracing/telemetry/fault gates). The
/// logging-on stack is then probed: `/v1/logs` must serve the recorded
/// ring, and an explicitly written incident must round-trip through
/// `GET /v1/incidents/<id>` with its kind echoed and its embedded
/// `/v1/stats` snapshot parseable.
#[allow(clippy::too_many_arguments)]
fn logging_bench(
    backend: Arc<dyn InferenceBackend>,
    x: &Tensor,
    expected_logits: &Tensor,
    input_dims: &[usize],
    clients: usize,
    passes: usize,
    max_batch: usize,
    max_delay: Duration,
    seed: u64,
) -> LoggingResult {
    let incidents_dir =
        std::env::temp_dir().join(format!("snn_bench_incidents_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&incidents_dir);
    let make_stack = |logging: bool| {
        let server = Arc::new(StreamingServer::new(
            Arc::clone(&backend),
            StreamingConfig {
                threads: 0,
                max_batch,
                max_delay,
                max_pending: 0,
                brownout: None,
            },
        ));
        let gateway = Gateway::start(
            Arc::clone(&server),
            GatewayConfig {
                workers: clients,
                logging,
                incidents_dir: logging.then(|| incidents_dir.clone()),
                ..GatewayConfig::for_dims(input_dims)
            },
        )
        .expect("logging gateway bind");
        (gateway, server)
    };
    let (mut on_gateway, on_server) = make_stack(true);
    let (mut off_gateway, off_server) = make_stack(false);

    let rounds = 5usize;
    let mut best_on = 0.0f64;
    let mut best_off = 0.0f64;
    let mut on_ok_match = true;
    let mut off_ok_match = true;
    let clean = |r: &LoadReport| {
        r.mismatches == 0 && r.transport_errors == 0 && r.ok_200 > 0 && r.ok_200 == r.requests
    };
    for round in 0..rounds as u64 {
        let config = |s: u64| LoadGenConfig {
            clients,
            passes,
            seed: s,
            ..LoadGenConfig::default()
        };
        let off = run_closed_loop(
            off_gateway.local_addr(),
            x,
            Some(expected_logits),
            &config(seed ^ (0x10F0 + round)),
        );
        off_ok_match &= clean(&off);
        best_off = best_off.max(off.requests_per_sec);
        let on = run_closed_loop(
            on_gateway.local_addr(),
            x,
            Some(expected_logits),
            &config(seed ^ (0x10A0 + round)),
        );
        on_ok_match &= clean(&on);
        best_on = best_on.max(on.requests_per_sec);
    }
    let logging_overhead_frac = (best_off - best_on) / best_off.max(1e-9);

    let collector = Arc::clone(on_gateway.log_collector().expect("logging-on collector"));
    let events_recorded = collector.events_recorded_total();
    let events_dropped = collector.events_dropped();

    let mut client = HttpClient::connect(on_gateway.local_addr()).expect("logs client");
    let logs = client.get("/v1/logs?level=info").expect("logs GET");
    let logs_route_ok = logs.status == 200
        && std::str::from_utf8(&logs.body)
            .ok()
            .and_then(|text| serde_json::from_str::<serde::Content>(text).ok())
            .map(|body| {
                body.as_map()
                    .and_then(|m| serde::field(m, "events").ok())
                    .and_then(|e| e.as_seq())
                    .is_some_and(|events| !events.is_empty())
            })
            .unwrap_or(false);

    // The incident round-trip: write one on the live stack, fetch it
    // back over the wire, and require the embedded stats snapshot to be
    // real JSON (it comes from the same renderer as `/v1/stats`).
    let recorder = Arc::clone(on_gateway.incidents().expect("incident recorder"));
    let incident_id = recorder
        .record(
            "bench_probe",
            "synthetic incident for the round-trip gate",
            None,
        )
        .unwrap_or_default();
    let incidents_written = recorder.written();
    let listed = client.get("/v1/incidents").expect("incident list GET");
    let fetched = client
        .get(&format!("/v1/incidents/{incident_id}"))
        .expect("incident GET");
    let incident_round_trip_ok = !incident_id.is_empty()
        && listed.status == 200
        && std::str::from_utf8(&listed.body).is_ok_and(|t| t.contains(&incident_id))
        && fetched.status == 200
        && std::str::from_utf8(&fetched.body)
            .ok()
            .and_then(|text| serde_json::from_str::<serde::Content>(text).ok())
            .map(|report| {
                let map = report.as_map();
                let kind_ok = map
                    .and_then(|m| serde::field(m, "kind").ok())
                    .and_then(|v| v.as_str())
                    == Some("bench_probe");
                let stats_ok = map
                    .and_then(|m| serde::field(m, "sections").ok())
                    .and_then(|s| s.as_map())
                    .and_then(|s| serde::field(s, "stats").ok())
                    .is_some_and(|stats| stats.as_map().is_some());
                kind_ok && stats_ok
            })
            .unwrap_or(false);

    on_gateway.shutdown();
    on_server.shutdown();
    off_gateway.shutdown();
    off_server.shutdown();
    let _ = std::fs::remove_dir_all(&incidents_dir);

    LoggingResult {
        rounds,
        on_requests_per_sec: best_on,
        off_requests_per_sec: best_off,
        logging_overhead_frac,
        on_ok_match,
        off_ok_match,
        events_recorded,
        events_dropped,
        logs_route_ok,
        incident_id,
        incidents_written,
        incident_round_trip_ok,
    }
}

/// A tiny dense artifact for the registry-focused sections: flatten →
/// dense(16) → relu → dense(4) over `dims`, converted with the paper
/// kernel.
fn small_artifact(name: &str, version: &str, seed: u64, dims: &[usize]) -> ModelArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let in_len: usize = dims.iter().product();
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(in_len, 16, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(16, 4, &mut rng)),
    ]);
    let model = convert(&net, Base2Kernel::paper_default(), 24).expect("bench model");
    ModelArtifact::build(name, version, model, dims, BackendHint::Csr).expect("bench artifact")
}

/// Boots a [`ModelRegistry`] over a scratch artifact dir (two versions of
/// `alpha` plus a `beta` with different input dims), measures the cold
/// load / compile / warm-lookup costs, drives both per-model routes
/// through a registry-backed gateway, and fires an atomic version swap
/// under closed-loop load — every response must bit-match exactly one
/// version's reference logits.
fn registry_smoke(clients: usize, passes: usize, seed: u64) -> RegistryResult {
    let dir = std::env::temp_dir().join(format!("snn_bench_registry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench registry dir");

    let dims_a = [1usize, 4, 6];
    let dims_b = [1usize, 3, 4];
    let v1 = small_artifact("alpha", "1", seed ^ 0xA1, &dims_a);
    let v2 = small_artifact("alpha", "2", seed ^ 0xA2, &dims_a);
    let b1 = small_artifact("beta", "1", seed ^ 0xB1, &dims_b);
    let mut artifact_bytes = 0u64;
    for artifact in [&v1, &v2, &b1] {
        let path = dir.join(artifact.info.file_name());
        artifact.save(&path).expect("save bench artifact");
        artifact_bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    }

    let registry = Arc::new(
        ModelRegistry::open(
            &dir,
            RegistryConfig {
                byte_budget: 0,
                streaming: StreamingConfig {
                    threads: 2,
                    max_batch: 8,
                    max_delay: Duration::from_millis(1),
                    max_pending: 0,
                    brownout: None,
                },
                ..RegistryConfig::default()
            },
        )
        .expect("registry open"),
    );

    // Cold start: the first lookup decodes the artifact and compiles the
    // backend; the handle carries both wall times.
    let cold = registry.get_or_load("alpha").expect("cold load");
    let (cold_load_ms, cold_compile_ms) = (cold.load_ms(), cold.compile_ms());
    drop(cold);

    // Warm-hit cost: resident lookups are a lock + LRU touch.
    let warm_lookups = 1_000u64;
    let t0 = Instant::now();
    for _ in 0..warm_lookups {
        let _ = registry.get_or_load("alpha").expect("warm lookup");
    }
    let warm_lookup_mean_ns = t0.elapsed().as_nanos() as f64 / warm_lookups as f64;

    // Registry-backed gateway; the default `/v1/infer` route keeps serving
    // an alpha-shaped standalone server.
    let (default_engine, _) = v2.compile().expect("default backend");
    let server = Arc::new(StreamingServer::new(
        default_engine,
        StreamingConfig {
            threads: 2,
            max_batch: 8,
            max_delay: Duration::from_millis(1),
            max_pending: 0,
            brownout: None,
        },
    ));
    let mut gateway = Gateway::start_with_registry(
        Arc::clone(&server),
        Arc::clone(&registry),
        GatewayConfig {
            workers: clients.max(4),
            ..GatewayConfig::for_dims(&dims_a)
        },
    )
    .expect("registry gateway bind");
    let addr = gateway.local_addr();

    // Reference batches + logits per artifact, via direct compiles.
    let n = 16usize;
    let batch_for = |dims: &[usize], tag: u64| {
        let mut rng = StdRng::seed_from_u64(seed ^ tag);
        let mut batch_dims = vec![n];
        batch_dims.extend_from_slice(dims);
        snn_tensor::uniform(&batch_dims, 0.0, 1.0, &mut rng)
    };
    let reference = |artifact: &ModelArtifact, x: &Tensor| {
        let (engine, _) = artifact.compile().expect("reference compile");
        engine.run_batch(x).expect("reference run").0
    };
    let xa = batch_for(&dims_a, 0x0005_EEDA);
    let xb = batch_for(&dims_b, 0x0005_EEDB);
    let e1 = reference(&v1, &xa);
    let e2 = reference(&v2, &xa);
    let eb = reference(&b1, &xb);

    // Baseline closed loops: alpha (active version 2 — lexically greatest
    // wins by default) and beta (different input geometry).
    let alpha = run_closed_loop_any(
        addr,
        &xa,
        &[&e2],
        &LoadGenConfig {
            clients,
            passes,
            seed,
            path: "/v1/models/alpha/infer".into(),
            ..LoadGenConfig::default()
        },
    );
    let beta = run_closed_loop_any(
        addr,
        &xb,
        &[&eb],
        &LoadGenConfig {
            clients,
            passes,
            seed: seed ^ 0xBEE,
            path: "/v1/models/beta/infer".into(),
            ..LoadGenConfig::default()
        },
    );

    // Swap under load: the closed loop accepts a 200 iff it bit-matches
    // v2 (pre-swap) or v1 (post-swap); the swap fires mid-run — once a
    // quarter of the run's requests (it is twice the baseline's length)
    // have provably resolved the old version, one warm lookup each.
    let swap_after_lookups = registry.metrics().warm_hits + alpha.requests / 2;
    let loader = {
        let (xa, e1, e2) = (xa.clone(), e1.clone(), e2.clone());
        let config = LoadGenConfig {
            clients,
            passes: passes * 2,
            seed: seed ^ 0x5AB,
            path: "/v1/models/alpha/infer".into(),
            ..LoadGenConfig::default()
        };
        std::thread::spawn(move || run_closed_loop_any(addr, &xa, &[&e2, &e1], &config))
    };
    while registry.metrics().warm_hits < swap_after_lookups {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut swap_client = HttpClient::connect(addr).expect("swap client");
    let swap_response = swap_client
        .post_json("/v1/models/alpha/swap", "{\"version\":\"1\"}")
        .expect("swap request");
    assert_eq!(swap_response.status, 200, "swap must succeed");
    let swap_load = loader.join().expect("swap load generator");

    let metrics = registry.metrics();
    gateway.shutdown();
    server.shutdown();
    registry.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let ok = |r: &LoadReport| {
        r.mismatches == 0 && r.transport_errors == 0 && r.ok_200 > 0 && r.ok_200 == r.requests
    };
    let swap = RegistrySwapResult {
        ok_match: ok(&swap_load),
        saw_both_versions: swap_load.ok_per_expected.iter().all(|&c| c > 0),
        swapped_to: "1".into(),
        baseline_p99_us: alpha.latency_p99_us,
        p99_delta_frac: (swap_load.latency_p99_us - alpha.latency_p99_us)
            / alpha.latency_p99_us.max(1.0),
        load: swap_load,
    };
    RegistryResult {
        models: 3,
        artifact_bytes,
        cold_load_ms,
        cold_compile_ms,
        warm_lookups,
        warm_lookup_mean_ns,
        alpha_ok_match: ok(&alpha),
        alpha,
        beta_ok_match: ok(&beta),
        beta,
        swap,
        metrics,
    }
}

/// Field-wise sum of two fired-counter snapshots (one armed segment
/// each).
fn add_counts(into: &mut FaultCounts, c: &FaultCounts) {
    into.backend_panics += c.backend_panics;
    into.backend_slowdowns += c.backend_slowdowns;
    into.artifact_read_errors += c.artifact_read_errors;
    into.artifact_torn_writes += c.artifact_torn_writes;
    into.compile_failures += c.compile_failures;
    into.conn_resets += c.conn_resets;
    into.evaluated += c.evaluated;
}

/// The robustness section: seeded chaos storms through the full HTTP
/// path with the global [`FaultInjector`] armed (backend panics and
/// slowdowns, wire-level connection resets, a brownout watermark tight
/// enough to shed under the closed-loop load), a post-storm clean pass
/// through the *same* surviving stack, the circuit-breaker
/// open-and-recover scenario driven by injected compile failures, a torn
/// artifact write that must leave the previous version loadable, and a
/// disarmed closed-loop run whose throughput is compared against the
/// main `streaming` section (the disabled path is one relaxed atomic
/// load per hook). Always disarms before returning.
#[allow(clippy::too_many_arguments)]
fn faults_bench(
    backend: Arc<dyn InferenceBackend>,
    x: &Tensor,
    expected_logits: &Tensor,
    input_dims: &[usize],
    baseline_images_per_sec: f64,
    http_clients: usize,
    stream_clients: usize,
    passes: usize,
    max_batch: usize,
    max_delay: Duration,
    seed: u64,
) -> FaultsResult {
    let injector = FaultInjector::global();
    injector.disarm();
    let mut injected = FaultCounts::default();

    // The storm fires injected panics on purpose; silence the default
    // panic printer for exactly those so stderr stays readable. Any
    // *real* panic still prints through the saved hook.
    let saved_hook = std::panic::take_hook();
    let forward = Arc::new(saved_hook);
    let forward_for_hook = Arc::clone(&forward);
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected backend panic"));
        if !injected {
            forward_for_hook(info);
        }
    }));

    // One serving stack for the whole storm: the same workers must absorb
    // every seed's faults and then serve the clean pass.
    let server = Arc::new(StreamingServer::new(
        Arc::clone(&backend),
        StreamingConfig {
            threads: 0,
            max_batch,
            max_delay,
            max_pending: 0,
            // Brownout enabled so the admission path runs its policy
            // branch under chaos, but with watermarks the closed-loop
            // concurrency cannot cross (slots release shortly after each
            // reply, so transient occupancy stays well under 8x clients):
            // storm outcomes stay a deterministic function of the seeds.
            brownout: Some(BrownoutConfig {
                high_water: http_clients * 8,
                low_water: http_clients * 4,
                shed_below_priority: 1,
            }),
        },
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: http_clients,
            ..GatewayConfig::for_dims(input_dims)
        },
    )
    .expect("faults gateway bind");

    let seeds: Vec<u64> = (0..3u64).map(|i| seed ^ (0xC4A0 + i)).collect();
    let mut storm = LoadReport::default();
    let mut all_resolved = true;
    for &s in &seeds {
        injector.arm(
            s,
            FaultConfig {
                backend_panic: 0.05,
                backend_slow: 0.10,
                conn_reset: 0.10,
                slow_delay: Duration::from_micros(500),
                ..FaultConfig::default()
            },
        );
        let r = run_closed_loop(
            gateway.local_addr(),
            x,
            Some(expected_logits),
            &LoadGenConfig {
                clients: http_clients,
                passes,
                max_priority: 3,
                seed: s,
                retry_after_cap: Some(Duration::from_millis(2)),
                ..LoadGenConfig::default()
            },
        );
        injector.disarm();
        add_counts(&mut injected, &injector.counts());
        all_resolved &= r.requests
            == r.ok_200 + r.shed_429 + r.unavailable_503 + r.other_status + r.transport_errors;
        storm.requests += r.requests;
        storm.ok_200 += r.ok_200;
        storm.shed_429 += r.shed_429;
        storm.unavailable_503 += r.unavailable_503;
        storm.other_status += r.other_status;
        storm.transport_errors += r.transport_errors;
        storm.mismatches += r.mismatches;
    }

    // Post-storm serviceability: the same stack, injector disarmed, must
    // serve a clean all-200 bit-exact pass.
    let clean = run_closed_loop(
        gateway.local_addr(),
        x,
        Some(expected_logits),
        &LoadGenConfig {
            clients: http_clients,
            passes: 1,
            seed: seed ^ 0xC1EA,
            ..LoadGenConfig::default()
        },
    );
    let post_storm_ok = clean.mismatches == 0
        && clean.transport_errors == 0
        && clean.ok_200 > 0
        && clean.ok_200 == clean.requests;
    if !post_storm_ok {
        eprintln!("DEBUG post-storm clean report: {clean:?}");
    }
    gateway.shutdown();
    let storm_streaming = server.shutdown();

    // Breaker scenario: a registry whose only model compiles fine until
    // the injector fails it. Two failures trip the (threshold 2)
    // breaker, an open-state lookup is rejected without touching the
    // loader, and after "repair" (disarm) the half-open probe recovers.
    let dir = std::env::temp_dir().join(format!("snn_bench_faults_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench faults dir");
    let artifact = small_artifact("gamma", "1", seed ^ 0xF0, &[1, 3, 4]);
    let path = dir.join(artifact.info.file_name());
    artifact.save(&path).expect("save gamma");

    // Torn-write probe: a re-save under artifact_write=1.0 must fail and
    // leave the committed bytes loadable.
    injector.arm(
        seed ^ 0x7042,
        FaultConfig {
            artifact_write: 1.0,
            ..FaultConfig::default()
        },
    );
    let torn = artifact.save(&path).is_err();
    injector.disarm();
    add_counts(&mut injected, &injector.counts());
    let torn_write_survived = torn && ModelArtifact::load(&path).is_ok();

    let backoff = Duration::from_millis(30);
    let registry = ModelRegistry::open(
        &dir,
        RegistryConfig {
            byte_budget: 0,
            streaming: StreamingConfig {
                threads: 1,
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                max_pending: 0,
                brownout: None,
            },
            breaker_threshold: 2,
            breaker_backoff: backoff,
            breaker_backoff_max: backoff * 8,
        },
    )
    .expect("faults registry open");
    injector.arm(
        seed ^ 0xB4EA,
        FaultConfig {
            compile: 1.0,
            ..FaultConfig::default()
        },
    );
    for _ in 0..2 {
        assert!(
            registry.get_or_load("gamma").is_err(),
            "injected compile failure must surface as a typed error"
        );
    }
    // Open state rejects with retry advice while the backoff runs.
    let rejected = matches!(
        registry.get_or_load("gamma"),
        Err(RegistryError::BreakerOpen { .. })
    );
    injector.disarm();
    add_counts(&mut injected, &injector.counts());
    std::thread::sleep(backoff + Duration::from_millis(10));
    let recovered = registry.get_or_load("gamma").is_ok();
    let breaker_metrics = registry.metrics();
    registry.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Disabled-path overhead: the same closed-loop streaming run as the
    // main section, injector disarmed, CI-gated to the noise band.
    let disabled = closed_loop_streaming(
        backend,
        x,
        expected_logits,
        stream_clients,
        passes,
        max_batch,
        max_delay,
        None,
    );
    // Back to the hook that was installed when we started.
    let _ = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| forward(info)));

    FaultsResult {
        seeds,
        storm_requests: storm.requests,
        storm_ok_200: storm.ok_200,
        storm_shed_429: storm.shed_429,
        storm_unavailable_503: storm.unavailable_503,
        storm_other_status: storm.other_status,
        storm_transport_errors: storm.transport_errors,
        storm_mismatches: storm.mismatches,
        all_resolved,
        injected_total: injected.total_fired(),
        injected,
        batch_retries: storm_streaming.batch_retries,
        quarantined: storm_streaming.quarantined,
        post_storm_ok,
        breaker_opened: breaker_metrics.breaker_opens > 0 && rejected,
        breaker_recovered: recovered && breaker_metrics.breaker_recoveries > 0,
        breaker_rejections: breaker_metrics.breaker_rejections,
        torn_write_survived,
        disabled_images_per_sec: disabled.metrics.images_per_sec,
        disabled_delta_frac: (baseline_images_per_sec - disabled.metrics.images_per_sec)
            / baseline_images_per_sec.max(1e-9),
    }
}

/// Elementwise max |a − b| over two equal-shape logit tensors.
fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// Fraction of batch rows whose argmax class agrees between two `[N,
/// classes]` logit tensors.
fn top1_agreement(a: &Tensor, b: &Tensor) -> f64 {
    let n = a.dims()[0];
    let classes = a.dims()[1];
    let argmax = |t: &Tensor, row: usize| {
        t.as_slice()[row * classes..(row + 1) * classes]
            .iter()
            .enumerate()
            .max_by(|(_, x), (_, y)| x.total_cmp(y))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };
    let agree = (0..n).filter(|&i| argmax(a, i) == argmax(b, i)).count();
    agree as f64 / n.max(1) as f64
}

/// Drives the streaming server with `clients` closed-loop threads: client
/// `c` owns image indices `c, c + clients, …` and re-submits each of them
/// `passes` times, always waiting for the previous ticket before the next
/// submit. Checks every streamed row bit-for-bit against the single-thread
/// CSR logits.
///
/// With `trace: Some(collector)` the server is built with the collector
/// attached; if the collector is *enabled*, every submission additionally
/// carries its own freshly minted trace target (the fully-traced serving
/// configuration), otherwise the run measures the tracing-off hot path of
/// a trace-capable server.
#[allow(clippy::too_many_arguments)]
fn closed_loop_streaming(
    backend: Arc<dyn InferenceBackend>,
    x: &Tensor,
    expected_logits: &Tensor,
    clients: usize,
    passes: usize,
    max_batch: usize,
    max_delay: Duration,
    trace: Option<Arc<TraceCollector>>,
) -> StreamingResult {
    let batch = x.dims()[0];
    let sample_dims = x.dims()[1..].to_vec();
    let sample_len: usize = sample_dims.iter().product();
    let classes = expected_logits.dims()[1];
    let clients = clients.clamp(1, batch);
    let config = StreamingConfig {
        threads: 0, // one worker per core
        max_batch,
        max_delay,
        max_pending: 0,
        brownout: None,
    };
    let server = match &trace {
        Some(collector) => StreamingServer::new_traced(backend, config, Arc::clone(collector)),
        None => StreamingServer::new(backend, config),
    };
    let trace_submissions = trace.as_ref().filter(|c| c.is_enabled()).cloned();

    let all_match = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = &server;
                let sample_dims = &sample_dims;
                let trace_submissions = trace_submissions.as_ref();
                scope.spawn(move || {
                    let mut matches = true;
                    for _ in 0..passes {
                        for i in (c..batch).step_by(clients) {
                            let image = Tensor::from_vec(
                                x.as_slice()[i * sample_len..(i + 1) * sample_len].to_vec(),
                                sample_dims,
                            )
                            .expect("sample slice");
                            let mut options = SubmitOptions::default();
                            if let Some(collector) = trace_submissions {
                                options = options.traced(TraceTarget {
                                    trace: collector.mint_trace(),
                                    parent: 0,
                                });
                            }
                            let response = server
                                .submit_with(&image, options)
                                .expect("submit")
                                .wait()
                                .expect("streamed result");
                            matches &= response.logits.as_slice()
                                == &expected_logits.as_slice()[i * classes..(i + 1) * classes];
                        }
                    }
                    matches
                })
            })
            .collect();
        let mut all = true;
        for handle in handles {
            all &= handle.join().expect("client thread");
        }
        all
    });
    // Client 0 owns the most images when clients does not divide batch.
    let requests_per_client = passes * batch.div_ceil(clients);
    let metrics = server.shutdown();
    StreamingResult {
        clients,
        requests_per_client,
        max_batch,
        max_delay_us: max_delay.as_micros() as u64,
        matches_batched: all_match,
        metrics,
    }
}

/// Measures the cost of tracing at both layers it touches.
///
/// Engine level: `rounds` interleaved (baseline, traced) pairs of the same
/// `run_batch`, best-of-N on each side — the traced side runs under an
/// ambient [`push_context`] so every `csr.chunk`/`encode`/`stage.exec`
/// span is actually recorded. Interleaving plus best-of-N cancels the
/// frequency/scheduler drift that would otherwise dominate a ≤5% budget.
///
/// Streaming level: two extra closed-loop runs over a trace-capable
/// server — one with the collector disabled (the realistic tracing-off
/// serving configuration, compared against `untraced_images_per_sec` from
/// the main streaming run) and one with every submission traced (span
/// volume, drop count, and the Chrome export come from this run).
#[allow(clippy::too_many_arguments)]
fn observability_bench(
    csr: &CsrEngine,
    backend: Arc<dyn InferenceBackend>,
    x: &Tensor,
    expected_logits: &Tensor,
    untraced_images_per_sec: f64,
    clients: usize,
    passes: usize,
    max_batch: usize,
    max_delay: Duration,
    trace_out: Option<String>,
) -> ObservabilityResult {
    let batch = x.dims()[0];
    let rounds = 5usize;
    let engine_collector = Arc::new(TraceCollector::new(0));
    let mut best_baseline = Duration::MAX;
    let mut best_traced = Duration::MAX;
    let mut logits_match_with_tracing = true;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let (baseline_logits, _) = csr.run_batch(x).expect("baseline run");
        best_baseline = best_baseline.min(t0.elapsed());

        let targets = vec![TraceTarget {
            trace: engine_collector.mint_trace(),
            parent: 0,
        }];
        let t0 = Instant::now();
        let traced_logits = {
            let _guard = push_context(Arc::clone(&engine_collector), targets);
            csr.run_batch(x).expect("traced run").0
        };
        best_traced = best_traced.min(t0.elapsed());
        logits_match_with_tracing &= traced_logits.as_slice() == baseline_logits.as_slice();
    }
    let engine_baseline_images_per_sec = batch as f64 / best_baseline.as_secs_f64();
    let engine_traced_images_per_sec = batch as f64 / best_traced.as_secs_f64();
    let tracing_on_overhead_frac =
        (best_traced.as_secs_f64() - best_baseline.as_secs_f64()) / best_baseline.as_secs_f64();

    // Tracing-off serving configuration: collector attached but disabled,
    // so every recording site pays exactly one relaxed atomic load.
    let off_collector = Arc::new(TraceCollector::new(0));
    off_collector.set_enabled(false);
    let off = closed_loop_streaming(
        Arc::clone(&backend),
        x,
        expected_logits,
        clients,
        passes,
        max_batch,
        max_delay,
        Some(off_collector),
    );
    let streaming_off_images_per_sec = off.metrics.images_per_sec;
    let streaming_off_delta_frac =
        (untraced_images_per_sec - streaming_off_images_per_sec) / untraced_images_per_sec;

    // Fully-traced serving: every submission carries its own trace.
    let on_collector = Arc::new(TraceCollector::new(0));
    let on = closed_loop_streaming(
        backend,
        x,
        expected_logits,
        clients,
        passes,
        max_batch,
        max_delay,
        Some(Arc::clone(&on_collector)),
    );
    let spans_recorded = on_collector.spans_recorded();
    let spans_dropped = on_collector.spans_dropped();
    let trace_tracks = on_collector.tracks().len();
    let chrome = on_collector.chrome_trace_json();
    let chrome_trace_path = match trace_out {
        Some(path) => {
            std::fs::write(&path, &chrome).expect("write --trace-out file");
            path
        }
        None => String::new(),
    };

    ObservabilityResult {
        rounds,
        engine_baseline_images_per_sec,
        engine_traced_images_per_sec,
        tracing_on_overhead_frac,
        logits_match_with_tracing,
        streaming_off_images_per_sec,
        streaming_off_delta_frac,
        streaming_on_images_per_sec: on.metrics.images_per_sec,
        streaming_on_matches: on.matches_batched,
        spans_recorded,
        spans_dropped,
        trace_tracks,
        chrome_trace_bytes: chrome.len(),
        chrome_trace_path,
    }
}

/// `--trace-out <path>` / `--trace-out=<path>` from the process arguments
/// (cargo strips everything before `--`).
fn trace_out_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace-out" {
            return args.next();
        }
        if let Some(path) = arg.strip_prefix("--trace-out=") {
            return Some(path.to_string());
        }
    }
    None
}
