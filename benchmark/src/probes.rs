//! Per-layer probes: each times calls into one layer's public functions on
//! fixed, seeded inputs, from outside, and reports the median. They read
//! the same on every workload; a `--trace 1` run prints them next to the
//! figures of its own traced run.
//!
//! A probe stops at `min_calls` calls or when its time budget is spent,
//! whichever comes first, and always reports a median, never a mean: one
//! busy thread on a shared 2-core box is bimodal.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use snn_gateway::http::{parse_request, write_response, Limits};
use snn_gateway::{InferRequest, InferResponse};
use snn_hw::{Processor, ProcessorConfig};
use snn_log::{Level, LogCollector};
use snn_runtime::energy::{energy_report, EnergyPricer};
use snn_runtime::{
    fit_layer_quantizers, quantize_model, BackendHint, BatchWheel, CsrEngine, DecodeMode,
    InferenceBackend, ModelArtifact, ModelRegistry, QuantConfig, QuantEngine, RegistryConfig,
    StreamingConfig, StreamingServer, SubmitOptions, TimeWheel,
};
use snn_sim::EventSnn;
use snn_telemetry::{Labels, TelemetryHub};
use snn_trace::{TraceCollector, TraceTarget};

use crate::check::top1;
use crate::client::{Conn, Rendered};
use crate::inputs::{image_pool, stream};
use crate::models::{nproc, stack, vgg_model, Scratch, Served, VGG_DIMS, WINDOW};
use crate::stats::median;
use crate::workloads::small::{HttpSmall, Switches};
use crate::workloads::{engine_config, Workload};

/// Images in the engine probes' batch: one full `max_batch`.
const LANES: usize = 8;

/// Median wall time of one call, ns.
fn call_ns(budget: Duration, min_calls: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut times = Vec::with_capacity(min_calls);
    loop {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_nanos() as f64);
        if times.len() >= min_calls || t0.elapsed() >= budget {
            return median(&times);
        }
    }
}

/// For calls too short to time one by one: median over batches of
/// `inner` calls, per call, ns.
fn tight_ns(budget: Duration, inner: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut i = 0;
    call_ns(budget, 200, || {
        for _ in 0..inner {
            f(i);
            i += 1;
        }
    }) / inner as f64
}

/// Collected `(name, value)` pairs.
pub struct Probes(pub Vec<(String, f64)>);

impl Probes {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }
}

/// Runs every probe. `unit` is the time budget of one timed probe.
pub fn run(seed: u64, unit: Duration) -> Result<Probes, String> {
    let mut p = Probes(Vec::new());
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let images = image_pool(seed, 0x9B0B, &VGG_DIMS, LANES);
    let batch = stack(&images);
    let single = stack(&images[..1]);

    // --- runtime.engine: the w16 f32 CSR engine -------------------------
    let f32_model = Arc::new(vgg_model(16));
    let csr = CsrEngine::compile_shared(Arc::clone(&f32_model), &VGG_DIMS).map_err(|e| err(&e))?;
    let one_lane = csr.clone().with_max_lanes(1);
    let eight_lanes = csr.clone().with_max_lanes(LANES);
    let (want, stats) = EventSnn::new(&f32_model).run(&batch).map_err(|e| err(&e))?;
    let (got, csr_stats) = eight_lanes.run_batch(&batch).map_err(|e| err(&e))?;
    if got.as_slice() != want.as_slice() || csr_stats != stats {
        return Err("probe: CSR engine disagrees with EventSnn".into());
    }
    let lanes1 =
        call_ns(unit, 200, || drop(black_box(one_lane.run_batch(&batch)))) / 1e3 / LANES as f64;
    let lanes8 =
        call_ns(unit, 200, || drop(black_box(eight_lanes.run_batch(&batch)))) / 1e3 / LANES as f64;
    let batch1 = call_ns(unit, 200, || {
        drop(black_box(eight_lanes.run_batch(&single)))
    }) / 1e3;
    let event = call_ns(unit, 200, || {
        drop(black_box(EventSnn::new(&f32_model).run(&batch)))
    }) / 1e3
        / LANES as f64;
    p.put("engine.f32.us_per_image.lanes1", lanes1);
    p.put("engine.f32.us_per_image.lanes8", lanes8);
    p.put("engine.f32.lane_speedup", lanes1 / lanes8);
    p.put("engine.f32.batch1_us", batch1);
    p.put(
        "engine.f32.msops_per_s",
        stats.total_synaptic_ops() as f64 / LANES as f64 / lanes8,
    );
    p.put("engine.f32.timesteps", f64::from(stats.latency_timesteps));
    p.put("engine.f32.speedup_vs_event", event / lanes8);
    p.put("engine.event_ref.us_per_image", event);

    // --- runtime.quant: the w8 5-bit log-code engine --------------------
    let q = QuantConfig::default();
    let w8 = Arc::new(vgg_model(8));
    let lut = QuantEngine::compile_shared(Arc::clone(&w8), &VGG_DIMS, q).map_err(|e| err(&e))?;
    let (quantised, _) = quantize_model(&w8, q.base, q.bits).map_err(|e| err(&e))?;
    let (q_want, _) = EventSnn::new(&quantised).run(&batch).map_err(|e| err(&e))?;
    let (w8_f32, _) = EventSnn::new(&w8).run(&batch).map_err(|e| err(&e))?;
    let (q_got, q_stats) = lut.run_batch(&batch).map_err(|e| err(&e))?;
    let max_diff = q_got
        .as_slice()
        .iter()
        .zip(q_want.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    let classes = q_got.len() / LANES;
    let agree = q_got
        .as_slice()
        .chunks(classes)
        .zip(w8_f32.as_slice().chunks(classes))
        .filter(|(a, b)| top1(a) == top1(b))
        .count();
    p.put(
        "quant.lut.us_per_image",
        call_ns(unit, 200, || drop(black_box(lut.run_batch(&batch)))) / 1e3 / LANES as f64,
    );
    let shift_add = lut
        .clone()
        .with_mode(DecodeMode::ShiftAdd)
        .map_err(|e| err(&e))?;
    p.put(
        "quant.shift_add.us_per_image",
        call_ns(unit, 200, || drop(black_box(shift_add.run_batch(&batch)))) / 1e3 / LANES as f64,
    );
    p.put(
        "quant.fit_ms",
        call_ns(unit / 4, 20, || {
            drop(black_box(fit_layer_quantizers(&w8, q.base, q.bits)))
        }) / 1e6,
    );
    let w8_csr = CsrEngine::compile_shared(Arc::clone(&w8), &VGG_DIMS).map_err(|e| err(&e))?;
    let (q_fp, w8_fp) = (lut.compiled().footprint(), w8_csr.compiled().footprint());
    p.put("quant.code_bytes", q_fp.weight_bytes as f64);
    p.put(
        "quant.weight_bytes_ratio",
        w8_fp.weight_bytes as f64 / q_fp.weight_bytes.max(1) as f64,
    );
    p.put("quant.top1_vs_f32", agree as f64 / LANES as f64);
    p.put("quant.max_abs_diff_vs_quant_event", f64::from(max_diff));

    // --- runtime.csr ----------------------------------------------------
    p.put(
        "csr.compile_ms.f32_w16",
        call_ns(unit / 4, 20, || {
            drop(black_box(CsrEngine::compile(&f32_model, &VGG_DIMS)))
        }) / 1e6,
    );
    p.put(
        "csr.compile_ms.quant_w8",
        call_ns(unit / 4, 10, || {
            drop(black_box(QuantEngine::compile(&w8, &VGG_DIMS, q)))
        }) / 1e6,
    );
    let f32_fp = csr.compiled().footprint();
    p.put("csr.stored_bytes.f32_w16", f32_fp.stored_bytes as f64);
    p.put("csr.stored_bytes.quant_w8", q_fp.stored_bytes as f64);
    p.put("csr.conv_dedup_edge_ratio", f32_fp.conv_dedup_ratio());

    // --- runtime.wheel: a seeded uniform spike train --------------------
    let mut rng = stream(seed, 0x3EE1);
    let train: Vec<(u32, u32, u32, f32)> = (0..4096)
        .map(|_| {
            (
                rng.gen_range(0..=WINDOW),
                rng.gen_range(0..LANES as u32),
                rng.gen_range(0..4096u32),
                rng.gen::<f32>(),
            )
        })
        .collect();
    let per_spike = |total_ns: f64| total_ns / train.len() as f64;
    p.put(
        "wheel.time_push_pop_ns",
        per_spike(call_ns(unit / 4, 200, || {
            let mut wheel = TimeWheel::new(WINDOW);
            for &(t, _, neuron, scale) in &train {
                wheel.push(t, neuron, scale);
            }
            black_box(
                wheel
                    .iter_ordered()
                    .map(|(t, n, _)| u64::from(t + n))
                    .sum::<u64>(),
            );
        })),
    );
    let mut wheel = BatchWheel::new(WINDOW, LANES);
    p.put(
        "wheel.batch_push_pop_ns",
        per_spike(call_ns(unit / 4, 200, || {
            wheel.reset(WINDOW, LANES);
            for &(t, lane, neuron, scale) in &train {
                wheel.push(t, lane, neuron, scale);
            }
            wheel.seal();
            black_box((0..=WINDOW).map(|t| wheel.slot(t).len()).sum::<usize>());
        })),
    );

    // --- runtime.artifact -----------------------------------------------
    let scratch = Scratch::new("probe");
    let model = (*f32_model).clone();
    let build = || {
        ModelArtifact::build("probe", "1", model.clone(), &VGG_DIMS, BackendHint::Csr)
            .expect("artifact build")
    };
    let artifact = build();
    let bytes = artifact.to_bytes().map_err(|e| err(&e))?;
    let path = scratch.0.join(artifact.info.file_name());
    artifact.save(&path).map_err(|e| err(&e))?;
    // `build` clones the model it is given; the clone is part of the call.
    p.put(
        "artifact.build_ms",
        call_ns(unit / 4, 20, || drop(black_box(build()))) / 1e6,
    );
    p.put(
        "artifact.to_bytes_ms",
        call_ns(unit / 4, 20, || drop(black_box(artifact.to_bytes()))) / 1e6,
    );
    p.put(
        "artifact.from_bytes_ms",
        call_ns(unit / 4, 20, || {
            drop(black_box(ModelArtifact::from_bytes(&bytes)))
        }) / 1e6,
    );
    p.put(
        "artifact.load_ms",
        call_ns(unit / 4, 20, || drop(black_box(ModelArtifact::load(&path)))) / 1e6,
    );
    p.put(
        "artifact.compile_ms",
        call_ns(unit / 4, 20, || drop(black_box(artifact.compile()))) / 1e6,
    );
    p.put("artifact.bytes.f32_w16", bytes.len() as f64);
    let w8_artifact = ModelArtifact::build(
        "probe8",
        "1",
        (*w8).clone(),
        &VGG_DIMS,
        BackendHint::quant_default(),
    )
    .map_err(|e| err(&e))?;
    p.put(
        "artifact.bytes.quant_w8",
        w8_artifact.to_bytes().map_err(|e| err(&e))?.len() as f64,
    );

    // --- runtime.energy + hw --------------------------------------------
    let pricer = EnergyPricer::new(&f32_model, &VGG_DIMS).map_err(|e| err(&e))?;
    p.put(
        "energy.price_ns",
        tight_ns(unit / 4, 100, |_| {
            black_box(pricer.price_per_image_uj(&stats));
        }),
    );
    p.put("hw.energy_uj.f32_w16", pricer.price_per_image_uj(&stats));
    p.put(
        "hw.energy_uj.quant_w8",
        EnergyPricer::new(&w8, &VGG_DIMS)
            .map_err(|e| err(&e))?
            .price_per_image_uj(&q_stats),
    );
    let report = energy_report(
        &Processor::new(ProcessorConfig::proposed()),
        &f32_model,
        &stats,
        &VGG_DIMS,
    )
    .map_err(|e| err(&e))?;
    p.put("hw.model_fps.f32_w16", report.fps);

    // --- telemetry / log / trace primitives -----------------------------
    let hub = TelemetryHub::new();
    let histogram = hub.histogram("probe_us", &Labels::new().with("model", "probe"));
    let now_s = hub.now_s();
    p.put(
        "telemetry.record_ns",
        tight_ns(unit / 4, 1000, |i| {
            histogram.record_us(now_s, 100 + (i % 900) as u64)
        }),
    );
    p.put(
        "telemetry.snapshot_us",
        call_ns(unit / 4, 200, || drop(black_box(hub.snapshot(now_s)))) / 1e3,
    );
    let log = LogCollector::new(snn_log::DEFAULT_CAPACITY);
    log.set_min_level(Level::Info);
    p.put(
        "log.record_ns",
        tight_ns(unit / 4, 1000, |i| {
            log.record(Level::Info, "probe", "probe event", vec![("i", i.into())])
        }),
    );
    p.put(
        "log.disabled_ns",
        tight_ns(unit / 4, 1000, |i| {
            log.record(Level::Debug, "probe", "probe event", vec![("i", i.into())])
        }),
    );
    let collector = Arc::new(TraceCollector::new(snn_trace::DEFAULT_CAPACITY));
    let trace = collector.mint_trace();
    let at = Instant::now();
    p.put(
        "trace.span_ns",
        tight_ns(unit / 4, 1000, |_| {
            black_box(collector.record_span(trace, 0, "probe", at, at, Vec::new()));
        }),
    );

    // --- trace.overhead_frac: traced vs plain streaming server, ABAB ----
    let backend: Arc<dyn InferenceBackend> = Arc::new(csr.clone());
    let leg = |traced: bool| -> Result<f64, String> {
        let collector = Arc::new(TraceCollector::new(snn_trace::DEFAULT_CAPACITY));
        let server = if traced {
            StreamingServer::new_traced(
                Arc::clone(&backend),
                engine_config(LANES),
                Arc::clone(&collector),
            )
        } else {
            StreamingServer::new(Arc::clone(&backend), engine_config(LANES))
        };
        let mut inflight = VecDeque::new();
        let (t0, mut done, mut next) = (Instant::now(), 0u64, 0usize);
        while t0.elapsed() < unit / 2 {
            while inflight.len() < 16 {
                let options = if traced {
                    SubmitOptions::default().traced(TraceTarget {
                        trace: collector.mint_trace(),
                        parent: 0,
                    })
                } else {
                    SubmitOptions::default()
                };
                inflight.push_back(
                    server
                        .submit_with(&images[next % LANES], options)
                        .map_err(|e| err(&e))?,
                );
                next += 1;
            }
            inflight
                .pop_front()
                .expect("16 in flight")
                .wait()
                .map_err(|e| err(&e))?;
            done += 1;
        }
        let rate = done as f64 / t0.elapsed().as_secs_f64();
        server.shutdown();
        Ok(rate)
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        plain.push(leg(false)?);
        traced.push(leg(true)?);
    }
    p.put(
        "trace.overhead_frac",
        1.0 - median(&traced) / median(&plain),
    );

    // --- runtime.server: dispatch cost with nothing to batch ------------
    let small0 = Served::small(0, seed);
    let (small_backend, _) = small0.artifact.compile().map_err(|e| err(&e))?;
    let config = StreamingConfig {
        threads: nproc(),
        max_batch: LANES,
        max_delay: Duration::ZERO,
        max_pending: 0,
        brownout: None,
    };
    let server = StreamingServer::new(small_backend, config);
    let mut gaps = Vec::new();
    let t0 = Instant::now();
    while gaps.len() < 2000 && t0.elapsed() < unit {
        let start = Instant::now();
        let answer = server
            .submit(&small0.pool[gaps.len() % small0.pool.len()])
            .map_err(|e| err(&e))?
            .wait()
            .map_err(|e| err(&e))?;
        gaps.push((start.elapsed().saturating_sub(answer.exec_time)).as_nanos() as f64 / 1e3);
    }
    server.shutdown();
    p.put("server.dispatch_overhead_us", median(&gaps));

    // --- gateway.http / gateway.json on pre-rendered bytes --------------
    let limits = Limits {
        max_head_bytes: 16 * 1024,
        max_body_bytes: 8 * 1024 * 1024,
    };
    let vgg_wire = Rendered::new("/v1/infer", &images[0]).plain();
    let small_wire = Rendered::new("/v1/models/s0/infer", &small0.pool[0]).plain();
    let body_of = |wire: &[u8]| -> String {
        let (request, _) = parse_request(wire, &limits)
            .expect("parse")
            .expect("complete");
        String::from_utf8(request.body).expect("utf-8 body")
    };
    let (vgg_body, small_body) = (body_of(&vgg_wire), body_of(&small_wire));
    let decode = |body: &str, dims: &[usize]| {
        let request: InferRequest = serde_json::from_str(body).expect("decode");
        request.validate(dims).expect("validate");
        black_box(request);
    };
    p.put(
        "gateway.http.parse_vgg_us",
        call_ns(unit / 4, 200, || {
            drop(black_box(parse_request(&vgg_wire, &limits)))
        }) / 1e3,
    );
    p.put(
        "gateway.http.parse_small_us",
        tight_ns(unit / 4, 20, |_| {
            drop(black_box(parse_request(&small_wire, &limits)))
        }) / 1e3,
    );
    p.put(
        "gateway.json.decode_vgg_us",
        call_ns(unit / 4, 200, || decode(&vgg_body, &VGG_DIMS)) / 1e3,
    );
    p.put(
        "gateway.json.decode_small_us",
        tight_ns(unit / 4, 20, |_| decode(&small_body, small0.dims())) / 1e3,
    );
    p.put("gateway.json.body_bytes_vgg", vgg_body.len() as f64);
    let response = InferResponse {
        logits: want.as_slice()[..classes].to_vec(),
        top1: 3,
        batch_size: 8,
        queue_wait_us: 1234.5,
        exec_us: 5432.1,
        e2e_us: 6789.25,
        energy_uj: 3.21,
        trace_id: String::new(),
    };
    let response_body = serde_json::to_string(&response).map_err(|e| err(&e))?;
    p.put(
        "gateway.json.encode_response_us",
        tight_ns(unit / 4, 20, |_| {
            drop(black_box(serde_json::to_string(&response)))
        }) / 1e3,
    );
    p.put(
        "gateway.http.write_response_us",
        tight_ns(unit / 4, 20, |_| {
            drop(black_box(write_response(
                200,
                "application/json",
                response_body.as_bytes(),
                true,
            )))
        }) / 1e3,
    );

    // --- the small HTTP stack: floor, scrapes, registry, on/off costs ---
    let mut small = HttpSmall::new(seed);
    small.cold_start()?;
    let mut conn = Conn::connect(small.addr()).map_err(|e| err(&e))?;
    let mut get_us = |path: &str, min_calls: usize| -> Result<f64, String> {
        let mut failed = None;
        let us = call_ns(unit / 4, min_calls, || match conn.get(path) {
            Ok((200, _)) => {}
            Ok((status, _)) => failed = Some(format!("GET {path}: HTTP {status}")),
            Err(e) => failed = Some(format!("GET {path}: {e}")),
        }) / 1e3;
        failed.map_or(Ok(us), Err)
    };
    p.put("gateway.loopback_floor_us", get_us("/healthz", 500)?);
    p.put("gateway.stats_scrape_us", get_us("/v1/stats", 50)?);
    p.put("gateway.metrics_scrape_us", get_us("/metrics", 50)?);
    p.put("registry.resident_bytes", small.resident_bytes() as f64);
    drop(conn);

    let registry_dir = Scratch::new("probe-registry");
    let names: Vec<String> = small
        .served()
        .iter()
        .map(|m| {
            m.save(&registry_dir.0);
            m.artifact.info.name.clone()
        })
        .collect();
    let mut cold = Vec::new();
    let mut warm = 0.0;
    for _ in 0..3 {
        let registry =
            ModelRegistry::open(&registry_dir.0, RegistryConfig::default()).map_err(|e| err(&e))?;
        for name in &names {
            let start = Instant::now();
            registry.get_or_load(name).map_err(|e| err(&e))?;
            cold.push(start.elapsed().as_nanos() as f64 / 1e6);
        }
        warm = tight_ns(unit / 8, 100, |i| {
            drop(black_box(registry.get_or_load(&names[i % names.len()])))
        });
        registry.shutdown();
    }
    p.put("registry.cold_get_ms", median(&cold));
    p.put("registry.warm_get_ns", warm);

    // Telemetry and logging on/off, interleaved so drift hits both sides.
    let mut rate = |switches: Switches| -> Result<f64, String> {
        small.switches = switches;
        small.cold_start()?;
        let phase = small.phase(
            (unit.as_secs_f64() / 2.0 * small.nominal_rate()) as usize,
            false,
        );
        match phase.out.first_failure {
            Some(failure) => Err(format!("overhead probe: {failure}")),
            None => Ok(phase.timing.whole_throughput_per_s),
        }
    };
    let (mut on, mut no_telemetry, mut no_logging) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 {
        on.push(rate(Switches::default())?);
        no_telemetry.push(rate(Switches {
            telemetry: false,
            logging: true,
        })?);
        no_logging.push(rate(Switches {
            telemetry: true,
            logging: false,
        })?);
    }
    p.put(
        "telemetry.overhead_frac",
        1.0 - median(&on) / median(&no_telemetry),
    );
    p.put("log.overhead_frac", 1.0 - median(&on) / median(&no_logging));
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_report_medians_per_call() {
        let slow = call_ns(Duration::from_millis(50), 5, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert!((2.0e6..2.0e7).contains(&slow), "{slow}");
        let mut calls = 0;
        let per_call = tight_ns(Duration::from_millis(20), 10, |_| calls += 1);
        assert!(calls >= 10 && calls % 10 == 0);
        assert!(per_call >= 0.0);
    }
}
