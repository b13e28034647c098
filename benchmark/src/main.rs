//! The repo benchmark.
//!
//! ```text
//! snn-benchmark [run] --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//! snn-benchmark trace --workload <name> --seed <u64> [--seconds <s>]
//! snn-benchmark list
//! snn-benchmark aa [--runs <n>] [--seconds <s>] [--seed <u64>] [--out <file>]
//! ```
//!
//! `run` (`--trace 0`) measures one workload in this one process and
//! prints every end-to-end metric by name with its unit; `trace`
//! (`--trace 1`) is the separate traced run that prints the per-layer
//! metrics and writes `benchmark/out/trace-<workload>.json`. Both end with
//! one JSON line `{"correct", "attempted", "failed", "metrics"}` and exit
//! non-zero if any answer was wrong. See `benchmark/README.md`.

mod aa;
mod affinity;
mod check;
mod client;
mod inputs;
mod models;
mod phase;
mod probes;
mod procfs;
mod record;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Content;

use crate::inputs::POOL;
use crate::report::Values;
use crate::spec::VGG_LAYERS;
use crate::workloads::{batch_composition_guard, Phase};

/// `run_seconds` of `BENCHMARK.json`: how long a run measures by default.
pub const RUN_SECONDS: f64 = 20.0;
/// Cold constructions whose median is `setup_s`.
const SETUP_REPEATS: usize = 7;
/// Unmeasured warm-up, as a share of the measured phase.
const WARM_UP: f64 = 0.05;
/// A run is suspect beyond these. (On a 2-core box the paced generators
/// share cores with the server they load, and 1-3 % of their wake-ups land
/// more than 1 ms late while both cores execute a batch; that lateness is
/// charged to latency, which runs from the due instant. 5 % means the
/// schedule itself was not kept.)
const MAX_LATE_SHARE: f64 = 0.05;
const MAX_SEGMENT_SPREAD: f64 = 0.25;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        runs: 5,
        out: None,
    };
    let mut words = std::env::args().skip(1).peekable();
    if let Some(first) = words.peek() {
        if !first.starts_with("--") {
            args.command = words.next().unwrap_or_default();
        }
    }
    while let Some(flag) = words.next() {
        let value = words
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| bad("in (0, 120]"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--runs" => {
                args.runs = value
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| bad("a positive count"))?
            }
            "--out" => args.out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.command == "trace" {
        args.trace = true;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("snn-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "list" => {
            list();
            Ok(true)
        }
        "aa" => aa::run(args.runs, args.seconds, args.seed, args.out.as_deref()),
        "run" | "trace" => match args.workload.as_deref() {
            Some(name) if spec::workload(name).is_some() => {
                if args.trace {
                    trace(name, args.seed, args.seconds)
                } else {
                    run(name, args.seed, args.seconds)
                }
            }
            Some(name) => Err(format!(
                "unknown workload {name:?}; `list` prints the names"
            )),
            None => Err("--workload is required".into()),
        },
        other => Err(format!("unknown command {other:?} (run, trace, list, aa)")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("snn-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

/// Prints every name, unit and bound.
fn list() {
    println!("workloads:");
    for w in &spec::WORKLOADS {
        println!("  {:<22} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload reports all of them):");
    for m in &spec::END_TO_END {
        println!(
            "  {:<28} {:<6} better {:<7} bound {:.1} %",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    println!("per-layer metrics (--trace 1; no bound):");
    for m in spec::per_layer() {
        println!(
            "  {:<40} {:<6} better {}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
}

fn header(kind: &str, workload: &str, seed: u64, seconds: f64) {
    println!(
        "# snn-benchmark {kind}: workload={workload} seed={seed} seconds={seconds} nproc={}",
        models::nproc()
    );
}

/// Shares of a phase that say whether to trust it.
fn validity(phase: &Phase) -> (f64, f64, bool) {
    let late_share = phase.out.late as f64 / phase.out.attempted.max(1) as f64;
    let gen_cpu_share = phase.out.gen_cpu_ns as f64 / 1e9 / phase.timing.whole_cpu_s.max(1e-9);
    let suspect = late_share > MAX_LATE_SHARE || phase.timing.segment_spread > MAX_SEGMENT_SPREAD;
    (late_share, gen_cpu_share, suspect)
}

/// The untraced run: every end-to-end metric.
fn run(name: &str, seed: u64, seconds: f64) -> Result<bool, String> {
    header("run", name, seed, seconds);
    let mut workload = workloads::build(name, seed).ok_or("unknown workload")?;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        setups.push(workload.cold_start()?);
    }
    let requests = (seconds * workload.nominal_rate()) as usize;
    let warm_up = workload.phase((requests as f64 * WARM_UP) as usize, false);
    let phase = workload.phase(requests, false);
    workload_failure(&warm_up)?;

    let attempted = phase.out.attempted;
    let failed = phase.out.failed;
    let ok = phase.out.ok();
    let counts = if failed == 0 {
        workload.counts(&phase)?
    } else {
        workloads::Counts {
            energy_uj_per_inference: 0.0,
            sops_per_inference: 0.0,
        }
    };
    let timing = &phase.timing;
    // The stack (and its threads) must be gone before VmHWM is read as
    // "at exit"; tearing down frees memory, it cannot raise the peak.
    drop(workload);
    let values: Values = vec![
        ("throughput_per_s".into(), timing.throughput_per_s),
        ("latency_p50_ms".into(), timing.latency_p50_ms),
        ("latency_p95_ms".into(), timing.latency_p95_ms),
        ("cpu_s_per_1k".into(), timing.cpu_s_per_1k),
        ("peak_rss_mb".into(), procfs::peak_rss_mb()),
        ("setup_s".into(), stats::median(&setups)),
        ("ok_share".into(), ok as f64 / attempted.max(1) as f64),
        (
            "top1_match_share".into(),
            phase.out.top1_match as f64 / ok.max(1) as f64,
        ),
        (
            "energy_uj_per_inference".into(),
            counts.energy_uj_per_inference,
        ),
        ("sops_per_inference".into(), counts.sops_per_inference),
    ];
    report::print_table(&values, false);
    let (late_share, gen_cpu_share, suspect) = validity(&phase);
    println!("suspect: {suspect}");
    if let Some(failure) = &phase.out.first_failure {
        println!("first failure: {failure}");
    }
    println!(
        "{}",
        report::summary_line(vec![
            ("workload", Content::Str(name.into())),
            ("seed", Content::U64(seed)),
            ("seconds", Content::F64(seconds)),
            ("segments", Content::U64(timing.segments as u64)),
            ("parts", Content::U64(phase.parts)),
            ("segment_spread", Content::F64(timing.segment_spread)),
            (
                "segment_throughputs",
                Content::Seq(
                    timing
                        .segment_throughputs
                        .iter()
                        .map(|v| Content::F64(v.round()))
                        .collect()
                )
            ),
            (
                "whole_run_throughput_per_s",
                Content::F64(timing.whole_throughput_per_s)
            ),
            ("gen_late_share", Content::F64(late_share)),
            ("gen_cpu_share", Content::F64(gen_cpu_share)),
            (
                "setup_runs_s",
                Content::Seq(setups.iter().map(|s| Content::F64(*s)).collect())
            ),
            ("suspect", Content::Bool(suspect)),
        ])
    );
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &values, false)?
    );
    Ok(correct)
}

/// A warm-up that failed is a failed run; returns the failure as an error.
fn workload_failure(phase: &Phase) -> Result<(), String> {
    match &phase.out.first_failure {
        Some(failure) => Err(format!(
            "wrong answer outside the measured phase: {failure}"
        )),
        None => Ok(()),
    }
}

/// The traced run: every per-layer metric, the spans, the probes.
fn trace(name: &str, seed: u64, seconds: f64) -> Result<bool, String> {
    header("trace", name, seed, seconds);
    let started = Instant::now();
    let mut workload = workloads::build(name, seed).ok_or("unknown workload")?;
    workload.cold_start()?;
    // A tenth of the untraced run's work, untraced and then traced.
    let requests = (seconds * workload.nominal_rate() / 10.0) as usize;
    workload_failure(&workload.phase(requests / 5, false))?;
    let plain = workload.phase(requests, false);
    let traced = workload.phase(requests, true);
    workload_failure(&plain)?;

    let mut values = Values::new();
    let mut put = |name: &str, value: f64| values.push((name.to_string(), value));
    let (late_share, gen_cpu_share, suspect) = validity(&traced);
    let t = &traced.timing;
    put("harness.gen_late_share", late_share);
    put("harness.gen_cpu_share", gen_cpu_share);
    put("harness.segment_spread", t.segment_spread);
    put(
        "harness.whole_run_throughput_per_s",
        t.whole_throughput_per_s,
    );
    put("harness.whole_run_latency_p50_ms", t.whole_latency_p50_ms);
    put("harness.whole_run_latency_p95_ms", t.whole_latency_p95_ms);
    put("harness.whole_run_latency_p99_ms", t.whole_latency_p99_ms);
    // A closed loop slows down under tracing; an open loop keeps its rate
    // and answers later.
    let overhead = if workload.open_loop() {
        t.whole_latency_p50_ms / plain.timing.whole_latency_p50_ms.max(1e-9) - 1.0
    } else {
        1.0 - t.whole_throughput_per_s / plain.timing.whole_throughput_per_s.max(1e-9)
    };
    put("harness.trace_overhead_frac", overhead);
    let detail = traced.out.detail.clone().unwrap_or_default();
    let answers = detail.queue_wait_us.len().max(1) as f64;
    put("gateway.overhead_us", stats::median(&detail.overhead_us));
    put(
        "batcher.queue_wait_p50_us",
        stats::median(&detail.queue_wait_us),
    );
    put(
        "batcher.occupancy_mean",
        if detail.batches > 0.0 {
            answers / detail.batches
        } else {
            0.0
        },
    );
    put(
        "batcher.deadline_flush_share",
        traced.deadline_flushes as f64 / traced.batches.max(1) as f64,
    );
    put("server.exec_p50_us", stats::median(&detail.exec_us));

    // Exact counts, and the proof that batch composition does not reach
    // them.
    let served = workload.served();
    let inferences = (served.len() * POOL) as f64;
    let guard = batch_composition_guard(&served)?;
    let guard_sops = guard.total_synaptic_ops() as f64 / inferences;
    for layer in 0..VGG_LAYERS {
        let stats = guard.layers.get(layer).copied().unwrap_or_default();
        put(
            &format!("engine.layer{layer:02}.sops"),
            stats.synaptic_ops as f64 / inferences,
        );
        put(
            &format!("engine.layer{layer:02}.spikes_in"),
            stats.input_spikes as f64 / inferences,
        );
    }
    let counts = workload.counts(&traced)?;
    if counts.sops_per_inference != guard_sops {
        return Err(format!(
            "sops per inference: the run says {}, the guard's exact pass {guard_sops}",
            counts.sops_per_inference
        ));
    }
    println!(
        "exactness guard: counts identical at max_batch 1 and 8 ({guard_sops} sops/inference)"
    );

    // Where a request's time went, layer by layer.
    let table = spans::self_times(&traced.out.spans);
    let request_p50 = spans::request_p50_us(&traced.out.spans);
    println!(
        "self time per layer (span minus children), {} spans:",
        traced.out.spans.len()
    );
    for row in &table {
        println!(
            "  {:<22} n={:<7} mean {:>10.1} us   p50 {:>10.1} us",
            row.name, row.count, row.mean_us, row.p50_us
        );
    }
    let in_request = |n: &str| n != "gen.wait";
    let sum_mean: f64 = table
        .iter()
        .filter(|r| in_request(r.name))
        .map(|r| r.mean_us)
        .sum();
    let sum_p50: f64 = table
        .iter()
        .filter(|r| in_request(r.name))
        .map(|r| r.p50_us)
        .sum();
    println!(
        "  sum of means {sum_mean:.1} us, sum of p50s {sum_p50:.1} us, request p50 {request_p50:.1} us (p50 sum / request p50 = {:.3})",
        sum_p50 / request_p50.max(1e-9)
    );
    let trace_path = models::out_dir().join(format!("trace-{name}.json"));
    let written = spans::write_chrome_trace(&trace_path, name, &traced.out.spans)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "wrote {written} of {} spans to {}",
        traced.out.spans.len(),
        trace_path.display()
    );

    let (attempted, failed) = (traced.out.attempted, traced.out.failed);
    drop(workload);
    // The probes share whatever time the run has left, at most `seconds`.
    let unit = Duration::from_secs_f64((seconds / RUN_SECONDS).clamp(0.05, 1.0));
    values.extend(probes::run(seed, unit)?.0);
    report::print_table(&values, true);
    println!("suspect: {suspect}");
    println!(
        "{}",
        report::summary_line(vec![
            ("workload", Content::Str(name.into())),
            ("seed", Content::U64(seed)),
            ("trace_file", Content::Str(trace_path.display().to_string())),
            ("spans", Content::U64(traced.out.spans.len() as u64)),
            (
                "self_time_p50_sum_over_request_p50",
                Content::F64(sum_p50 / request_p50.max(1e-9))
            ),
            ("wall_s", Content::F64(started.elapsed().as_secs_f64())),
            ("suspect", Content::Bool(suspect)),
        ])
    );
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &values, true)?
    );
    Ok(correct)
}
