//! Names, units, directions and bounds: the benchmark's vocabulary.
//!
//! `BENCHMARK.json` at the repo root carries the same tables for the
//! driver; a unit test holds the two together. Later issues quote these
//! names.

/// Which way is worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A workload: its final name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const ENGINE_F32: &str = "engine_f32_closed";
pub const ENGINE_QUANT: &str = "engine_quant_closed";
pub const HTTP_VGG: &str = "http_vgg_paced";
pub const HTTP_SMALL: &str = "http_small_closed";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: ENGINE_F32,
        why: "VGG-16/w16 f32 CSR engine saturated in-process, 16 outstanding: engine is >90% of CPU, batches ride 6-8 lanes, so scatter/lane/early-exit work shows here",
    },
    Workload {
        name: ENGINE_QUANT,
        why: "VGG-16/w8 5-bit log-code LUT engine (the paper's headline config), same harness: 4x the edges and membrane working set, moves opposite to f32 on cache or decode changes",
    },
    Workload {
        name: HTTP_VGG,
        why: "w16 model behind the HTTP gateway at 100 req/s open loop with deadlines: HTTP+JSON, EDF batching wait and engine each show in p50; what a user of the server feels",
    },
    Workload {
        name: HTTP_SMALL,
        why: "8 tiny registry models over HTTP, pinned to one CPU, one closed-loop client: engine does ~nothing, so parse, JSON, registry, batcher hand-off, telemetry, logs are the work; engine changes: no move",
    },
];

/// One end-to-end metric.
///
/// The bounds are what two sets of runs of the *same* code held on the
/// shared 2-vCPU box (see `results/aa-seed-commit.json`), not what one
/// would wish: the box's speed drifts by up to 1.5x over minutes with
/// steal reading 0, so every wall- or CPU-clock metric gets the widest
/// bound the contract allows. Counts repeat exactly for a seed and move
/// by < 0.1 % across seeds; `top1_match_share` is a share of 256 seeded
/// images and moves by a few percent with the seed.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "throughput_per_s",
        unit: "inf/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_1k",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "top1_match_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "energy_uj_per_inference",
        unit: "uJ",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "sops_per_inference",
        unit: "count",
        better: Better::Lower,
        bound: 0.01,
    },
];

/// Weighted layers of the VGG-16 geometry (13 conv + 3 dense).
pub const VGG_LAYERS: usize = 16;

/// One per-layer metric (no bound: diagnostics).
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Every per-layer metric a `--trace 1` run prints, in print order.
///
/// Metrics of the run itself (`harness.*`, `batcher.*`, `server.exec_*`,
/// `gateway.overhead_us`, `engine.layerNN.*`) describe *this* workload's
/// traced run; the rest are probes of fixed inputs and read the same on
/// every workload. A run-derived metric whose layer is not on the
/// workload's path reads 0.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let fixed: &[(&str, &'static str, Better)] = &[
        // harness (validity of the run, not of the program)
        ("harness.gen_late_share", "ratio", Lower),
        ("harness.gen_cpu_share", "ratio", Lower),
        ("harness.segment_spread", "ratio", Lower),
        ("harness.whole_run_throughput_per_s", "inf/s", Higher),
        ("harness.whole_run_latency_p50_ms", "ms", Lower),
        ("harness.whole_run_latency_p95_ms", "ms", Lower),
        ("harness.whole_run_latency_p99_ms", "ms", Lower),
        ("harness.trace_overhead_frac", "ratio", Lower),
        // gateway.http
        ("gateway.http.parse_vgg_us", "us", Lower),
        ("gateway.http.parse_small_us", "us", Lower),
        ("gateway.http.write_response_us", "us", Lower),
        ("gateway.loopback_floor_us", "us", Lower),
        // gateway.json
        ("gateway.json.decode_vgg_us", "us", Lower),
        ("gateway.json.decode_small_us", "us", Lower),
        ("gateway.json.encode_response_us", "us", Lower),
        ("gateway.json.body_bytes_vgg", "count", Lower),
        // gateway.server
        ("gateway.overhead_us", "us", Lower),
        ("gateway.stats_scrape_us", "us", Lower),
        ("gateway.metrics_scrape_us", "us", Lower),
        // runtime.batcher
        ("batcher.queue_wait_p50_us", "us", Lower),
        ("batcher.occupancy_mean", "count", Higher),
        ("batcher.deadline_flush_share", "ratio", Lower),
        // runtime.server
        ("server.exec_p50_us", "us", Lower),
        ("server.dispatch_overhead_us", "us", Lower),
        // runtime.engine
        ("engine.f32.us_per_image.lanes1", "us", Lower),
        ("engine.f32.us_per_image.lanes8", "us", Lower),
        ("engine.f32.lane_speedup", "ratio", Higher),
        ("engine.f32.batch1_us", "us", Lower),
        ("engine.f32.msops_per_s", "1/s", Higher),
        ("engine.f32.timesteps", "count", Lower),
        ("engine.f32.speedup_vs_event", "ratio", Higher),
        ("engine.event_ref.us_per_image", "us", Lower),
        // runtime.quant
        ("quant.lut.us_per_image", "us", Lower),
        ("quant.shift_add.us_per_image", "us", Lower),
        ("quant.fit_ms", "ms", Lower),
        ("quant.code_bytes", "count", Lower),
        ("quant.weight_bytes_ratio", "ratio", Higher),
        ("quant.top1_vs_f32", "ratio", Higher),
        ("quant.max_abs_diff_vs_quant_event", "count", Lower),
        // runtime.csr
        ("csr.compile_ms.f32_w16", "ms", Lower),
        ("csr.compile_ms.quant_w8", "ms", Lower),
        ("csr.stored_bytes.f32_w16", "count", Lower),
        ("csr.stored_bytes.quant_w8", "count", Lower),
        ("csr.conv_dedup_edge_ratio", "ratio", Higher),
        // runtime.wheel
        ("wheel.time_push_pop_ns", "ns", Lower),
        ("wheel.batch_push_pop_ns", "ns", Lower),
        // runtime.artifact
        ("artifact.build_ms", "ms", Lower),
        ("artifact.to_bytes_ms", "ms", Lower),
        ("artifact.from_bytes_ms", "ms", Lower),
        ("artifact.load_ms", "ms", Lower),
        ("artifact.compile_ms", "ms", Lower),
        ("artifact.bytes.f32_w16", "count", Lower),
        ("artifact.bytes.quant_w8", "count", Lower),
        // runtime.registry
        ("registry.cold_get_ms", "ms", Lower),
        ("registry.warm_get_ns", "ns", Lower),
        ("registry.resident_bytes", "count", Lower),
        // runtime.energy + hw
        ("energy.price_ns", "ns", Lower),
        ("hw.energy_uj.f32_w16", "uJ", Lower),
        ("hw.energy_uj.quant_w8", "uJ", Lower),
        ("hw.model_fps.f32_w16", "1/s", Higher),
        // telemetry / log / trace
        ("telemetry.overhead_frac", "ratio", Lower),
        ("log.overhead_frac", "ratio", Lower),
        ("trace.overhead_frac", "ratio", Lower),
        ("telemetry.record_ns", "ns", Lower),
        ("telemetry.snapshot_us", "us", Lower),
        ("log.record_ns", "ns", Lower),
        ("log.disabled_ns", "ns", Lower),
        ("trace.span_ns", "ns", Lower),
    ];
    let mut out: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.into(),
            unit,
            better,
        })
        .collect();
    // Exact per-inference counts of this workload's model(s), layer by
    // layer; layers the model does not have read 0.
    for what in ["sops", "spikes_in"] {
        for layer in 0..VGG_LAYERS {
            out.push(PerLayer {
                name: format!("engine.layer{layer:02}.{what}"),
                unit: "count",
                better: Lower,
            });
        }
    }
    out
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    fn get<'a>(map: &'a Content, key: &str) -> &'a Content {
        let entries = map.as_map().expect("object");
        &entries
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("key {key}"))
            .1
    }

    fn text(c: &Content) -> String {
        match c {
            Content::Str(s) => s.clone(),
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn number(c: &Content) -> f64 {
        match c {
            Content::F64(v) => *v,
            Content::U64(v) => *v as f64,
            Content::I64(v) => *v as f64,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_says_what_the_code_says() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: Content = serde_json::from_str(&raw).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads = get(&doc, "workloads").as_seq().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (json, code) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(get(json, "name")), code.name);
            assert_eq!(text(get(json, "why")), code.why);
            assert!(code.why.len() <= 200 && !code.why.contains('\n'));
        }
        let e2e = get(&doc, "end_to_end").as_seq().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, code) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(get(json, "name")), code.name);
            assert_eq!(text(get(json, "unit")), code.unit);
            assert_eq!(text(get(json, "better")), code.better.as_str());
            assert_eq!(number(get(json, "bound")), code.bound);
            assert!(code.bound <= 0.25);
        }
        let layers = get(&doc, "per_layer").as_seq().unwrap();
        let code = per_layer();
        assert_eq!(layers.len(), code.len());
        for (json, code) in layers.iter().zip(&code) {
            assert_eq!(text(get(json, "name")), code.name);
            assert_eq!(text(get(json, "unit")), code.unit);
            assert_eq!(text(get(json, "better")), code.better.as_str());
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(layers.iter().map(|m| m.name.clone()));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(layers.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
