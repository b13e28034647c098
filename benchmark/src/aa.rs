//! The A/A check: the same code, measured twice, must agree with itself
//! within the benchmark's own bounds.
//!
//! Every run is a fresh process of this binary. Two sets, A and B, of
//! `runs` runs per workload are interleaved in ABBA order so slow drift
//! of the box lands on both; run `i` of either set uses seed `seed + i`,
//! as the driver varies the seed from run to run. For each workload ×
//! metric the check prints both medians, their relative difference, each
//! set's quartile spread (interquartile distance over median) and the
//! verdict: PASS when the medians differ by no more than the metric's
//! bound and — `setup_s` excepted, as the driver excepts it — both
//! spreads stay within it. `steady` additionally wants the spreads under a
//! third of the bound.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use serde::Content;

use crate::report::{lookup, parse_result_line, summary, Values};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};

fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    match parse_result_line(last) {
        Some((true, values)) if output.status.success() => Ok(values),
        _ => Err(format!(
            "{workload} seed {seed} failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

fn field(values: &Values, name: &str) -> f64 {
    lookup(values, name).unwrap_or(0.0)
}

/// Runs the check; `Ok(true)` when every pair passed.
pub fn run(runs: usize, seconds: f64, seed: u64, out: Option<&str>) -> Result<bool, String> {
    let started = Instant::now();
    // results[workload][set] = one Values per run
    let mut results: Vec<[Vec<Values>; 2]> =
        WORKLOADS.iter().map(|_| [Vec::new(), Vec::new()]).collect();
    for i in 0..runs {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for (w, workload) in WORKLOADS.iter().enumerate() {
                let values = one_run(workload.name, seed + i as u64, seconds)?;
                eprintln!(
                    "aa: run {} of set {} {} throughput {:.1} p50 {:.3} ms ({:.0} s elapsed)",
                    i + 1,
                    ["A", "B"][set],
                    workload.name,
                    field(&values, "throughput_per_s"),
                    field(&values, "latency_p50_ms"),
                    started.elapsed().as_secs_f64()
                );
                results[w][set].push(values);
            }
        }
    }

    let mut rows = Vec::new();
    let (mut all_pass, mut all_steady) = (true, true);
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median_A", "median_B", "diff", "iqr_A", "iqr_B", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for metric in &END_TO_END {
            let series = |set: usize| -> Vec<f64> {
                results[w][set]
                    .iter()
                    .map(|v| field(v, metric.name))
                    .collect()
            };
            let (a, b) = (series(0), series(1));
            let (median_a, median_b) = (median(&a), median(&b));
            let diff = if median_a == 0.0 {
                0.0
            } else {
                (median_b - median_a) / median_a.abs()
            };
            let (spread_a, spread_b) = (iqr_share(&a), iqr_share(&b));
            let spread_gated = metric.name != "setup_s";
            let worst_spread = if spread_gated {
                spread_a.max(spread_b)
            } else {
                0.0
            };
            let pass = diff.abs() <= metric.bound && worst_spread <= metric.bound;
            let steady = pass && worst_spread <= metric.bound / 3.0;
            all_pass &= pass;
            all_steady &= steady;
            println!(
                "{:<20} {:<24} {:>14.6} {:>14.6} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.1}%  {}{}",
                workload.name,
                metric.name,
                median_a,
                median_b,
                diff * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                metric.bound * 100.0,
                if pass { "PASS" } else { "FAIL" },
                if pass && !steady {
                    " (spread over a third of the bound)"
                } else {
                    ""
                },
            );
            rows.push(Content::Map(vec![
                ("workload".into(), Content::Str(workload.name.into())),
                ("metric".into(), Content::Str(metric.name.into())),
                ("unit".into(), Content::Str(metric.unit.into())),
                ("median_A".into(), Content::F64(median_a)),
                ("median_B".into(), Content::F64(median_b)),
                ("relative_difference".into(), Content::F64(diff)),
                ("iqr_share_A".into(), Content::F64(spread_a)),
                ("iqr_share_B".into(), Content::F64(spread_b)),
                ("bound".into(), Content::F64(metric.bound)),
                (
                    "verdict".into(),
                    Content::Str(if pass { "PASS" } else { "FAIL" }.into()),
                ),
                ("steady".into(), Content::Bool(steady)),
                (
                    "values_A".into(),
                    Content::Seq(a.into_iter().map(Content::F64).collect()),
                ),
                (
                    "values_B".into(),
                    Content::Seq(b.into_iter().map(Content::F64).collect()),
                ),
            ]));
        }
    }
    let report = summary(vec![
        ("check", Content::Str("aa".into())),
        ("runs_per_set", Content::U64(runs as u64)),
        ("seconds", Content::F64(seconds)),
        ("first_seed", Content::U64(seed)),
        ("nproc", Content::U64(crate::models::nproc() as u64)),
        ("wall_s", Content::F64(started.elapsed().as_secs_f64())),
        ("all_pass", Content::Bool(all_pass)),
        ("all_steady", Content::Bool(all_steady)),
        ("pairs", Content::Seq(rows)),
    ]);
    let path = out.map_or_else(|| crate::models::out_dir().join("aa.json"), PathBuf::from);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&path, format!("{text}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "all_pass: {all_pass}  all_steady: {all_steady}  ({} written)",
        path.display()
    );
    Ok(all_pass)
}
