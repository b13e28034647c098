//! The closed-loop load generator the gateway's end-to-end tests drive it
//! with (pulled in with `#[path]`). [`run_closed_loop`] runs `clients`
//! threads that each own a share of the sample set and submit → wait →
//! submit over a keep-alive [`HttpClient`], optionally attaching random
//! per-request deadlines and priorities (deterministic xorshift seeded per
//! client), and optionally checking every `200` response's logits
//! bit-for-bit against an expected tensor.

#![allow(dead_code)] // each test binary uses its own subset

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use snn_gateway::client::HttpClient;
use snn_gateway::{InferRequest, InferResponse};
use snn_telemetry::Histogram;
use snn_tensor::Tensor;

/// Deterministic xorshift64* — the load generator's only randomness
/// source, keeping the client std-only.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform f64 in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Closed-loop client threads.
    pub clients: usize,
    /// How many times each client re-submits its share of the samples.
    pub passes: usize,
    /// When `Some((lo, hi))`, each request draws `deadline_ms` uniformly
    /// from the range — except a random quarter of requests omit the field
    /// to exercise the server-default path. `None` omits it always.
    pub deadline_ms: Option<(f64, f64)>,
    /// Priorities are drawn uniformly from `0..=max_priority`.
    pub max_priority: u8,
    /// Seed for the per-client deterministic RNG.
    pub seed: u64,
    /// Request path each POST targets — `/v1/infer` by default, or a
    /// registry route such as `/v1/models/alpha/infer`.
    pub path: String,
    /// When `Some(cap)`, a `429`/`503` response carrying a `Retry-After`
    /// header makes the client sleep `min(header, cap)` before its next
    /// request — the well-behaved-client model. `None` (the default)
    /// ignores the header and keeps hammering, which is what a
    /// backpressure benchmark wants.
    pub retry_after_cap: Option<Duration>,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            clients: 4,
            passes: 1,
            deadline_ms: None,
            max_priority: 0,
            seed: 7,
            path: "/v1/infer".into(),
            retry_after_cap: None,
        }
    }
}

/// Outcome of one closed-loop load-generation run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Client threads that ran.
    pub clients: usize,
    /// Total HTTP requests issued.
    pub requests: u64,
    /// `200` responses.
    pub ok_200: u64,
    /// `429` sheds (streaming backpressure on the wire).
    pub shed_429: u64,
    /// `503` unavailable responses (gateway drain).
    pub unavailable_503: u64,
    /// Any other HTTP status.
    pub other_status: u64,
    /// Requests that failed at the transport layer (connect/read/write).
    pub transport_errors: u64,
    /// `200` responses whose logits did NOT match any supplied expected
    /// tensor (only counted when at least one was supplied; must be 0).
    pub mismatches: u64,
    /// Per-expected-tensor match counts, aligned with the `expected_any`
    /// slice passed to [`run_closed_loop_any`] — the swap tests use this
    /// to assert both the old and the new version were actually observed.
    /// Empty when no expected tensors were supplied.
    pub ok_per_expected: Vec<u64>,
    /// Wall-clock of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Completed requests (any status) per second of wall clock.
    pub requests_per_sec: f64,
    /// Mean client-observed request latency, microseconds (exact).
    pub latency_mean_us: f64,
    /// Median client-observed request latency, microseconds: a
    /// log-linear bin's upper edge clamped to the maximum
    /// ([`Histogram::quantile_us`]), at most 25 % + 1 µs above the exact
    /// value, never below it.
    pub latency_p50_us: f64,
    /// 99th-percentile client-observed request latency, microseconds
    /// (bin edge, as [`latency_p50_us`](Self::latency_p50_us)).
    pub latency_p99_us: f64,
}

/// Drives the gateway at `addr` with closed-loop clients: client `c` owns
/// sample rows `c, c + clients, …` of `images` (`[N, …sample_dims]`) and
/// submits each of them `passes` times, always waiting for the previous
/// response before the next request. When `expected` is given (`[N,
/// classes]`), every `200` response's logits are compared bit-for-bit
/// against the matching row.
///
/// Transport errors reconnect once per request and are counted, never
/// panicked on — a load generator must survive a draining server.
pub fn run_closed_loop(
    addr: SocketAddr,
    images: &Tensor,
    expected: Option<&Tensor>,
    config: &LoadGenConfig,
) -> LoadReport {
    let expected_any: Vec<&Tensor> = expected.into_iter().collect();
    run_closed_loop_any(addr, images, &expected_any, config)
}

/// [`run_closed_loop`] generalized to a *set* of acceptable answers: a
/// `200` response counts as a match when its logits are bit-identical to
/// the sample's row in **any** tensor of `expected_any` (each `[N,
/// classes]`), and [`LoadReport::ok_per_expected`] records which. This is
/// the hot-swap correctness probe — during a version swap every response
/// must match exactly the old or the new version's logits, never a blend,
/// so a run with `expected_any = [v1_logits, v2_logits]` must finish with
/// zero mismatches and (for a mid-run swap) nonzero counts on both.
///
/// Transport errors reconnect once per request and are counted, never
/// panicked on.
pub fn run_closed_loop_any(
    addr: SocketAddr,
    images: &Tensor,
    expected_any: &[&Tensor],
    config: &LoadGenConfig,
) -> LoadReport {
    let n = images.dims().first().copied().unwrap_or(0);
    let sample_dims: Vec<usize> = images.dims().get(1..).unwrap_or_default().to_vec();
    let sample_len: usize = sample_dims.iter().product();
    let classes: Vec<usize> = expected_any
        .iter()
        .map(|e| e.dims().get(1).copied().unwrap_or(0))
        .collect();
    let clients = config.clients.clamp(1, n.max(1));
    let started = Instant::now();

    #[derive(Default)]
    struct ClientTally {
        latencies: Histogram,
        requests: u64,
        ok_200: u64,
        shed_429: u64,
        unavailable_503: u64,
        other_status: u64,
        transport_errors: u64,
        mismatches: u64,
        ok_per_expected: Vec<u64>,
    }

    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let sample_dims = &sample_dims;
                let classes = &classes;
                scope.spawn(move || {
                    let mut rng = XorShift::new(config.seed ^ (c as u64).wrapping_mul(0x9E37));
                    let mut tally = ClientTally {
                        ok_per_expected: vec![0; expected_any.len()],
                        ..ClientTally::default()
                    };
                    let mut client = HttpClient::connect(addr).ok();
                    for _ in 0..config.passes {
                        for i in (c..n).step_by(clients) {
                            let mut wire = InferRequest::new(
                                sample_dims.clone(),
                                images.as_slice()[i * sample_len..(i + 1) * sample_len].to_vec(),
                            );
                            if let Some((lo, hi)) = config.deadline_ms {
                                if rng.next_f64() >= 0.25 {
                                    wire.deadline_ms = Some(lo + (hi - lo) * rng.next_f64());
                                }
                            }
                            if config.max_priority > 0 {
                                wire.priority =
                                    (rng.next_u64() % (u64::from(config.max_priority) + 1)) as u8;
                            }
                            let body = match serde_json::to_string(&wire) {
                                Ok(body) => body,
                                Err(_) => {
                                    tally.transport_errors += 1;
                                    continue;
                                }
                            };
                            let t0 = Instant::now();
                            // At most two attempts per request: the kept
                            // connection, then one fresh reconnect. A
                            // wedged server must surface as a counted
                            // transport error, never an infinite retry.
                            let mut response = None;
                            for _attempt in 0..2 {
                                if client.is_none() {
                                    client = HttpClient::connect(addr).ok();
                                }
                                let Some(c) = client.as_mut() else { break };
                                match c.post_json(&config.path, &body) {
                                    Ok(r) => {
                                        response = Some(r);
                                        break;
                                    }
                                    Err(_) => client = None,
                                }
                            }
                            tally.requests += 1;
                            let Some(response) = response else {
                                tally.transport_errors += 1;
                                continue;
                            };
                            tally.latencies.record(t0.elapsed());
                            if !response.keep_alive {
                                client = None;
                            }
                            match response.status {
                                200 => {
                                    tally.ok_200 += 1;
                                    if !expected_any.is_empty() {
                                        let parsed: Result<InferResponse, _> =
                                            std::str::from_utf8(&response.body)
                                                .map_err(|_| ())
                                                .and_then(|t| {
                                                    serde_json::from_str(t).map_err(|_| ())
                                                });
                                        let matched = parsed.ok().and_then(|r| {
                                            expected_any.iter().zip(classes).position(
                                                |(expected, &k)| {
                                                    r.logits
                                                        == expected.as_slice()[i * k..(i + 1) * k]
                                                },
                                            )
                                        });
                                        match matched {
                                            Some(j) => tally.ok_per_expected[j] += 1,
                                            None => tally.mismatches += 1,
                                        }
                                    }
                                }
                                429 => tally.shed_429 += 1,
                                503 => tally.unavailable_503 += 1,
                                _ => tally.other_status += 1,
                            }
                            if let (Some(cap), Some(secs), 429 | 503) = (
                                config.retry_after_cap,
                                response.retry_after,
                                response.status,
                            ) {
                                std::thread::sleep(Duration::from_secs(secs).min(cap));
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        // A client thread that panicked contributes nothing.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });

    let wall = started.elapsed();
    let mut latencies = Histogram::new();
    let mut report = LoadReport {
        clients,
        ok_per_expected: vec![0; expected_any.len()],
        wall_ms: wall.as_secs_f64() * 1e3,
        ..LoadReport::default()
    };
    for tally in tallies {
        report.requests += tally.requests;
        report.ok_200 += tally.ok_200;
        report.shed_429 += tally.shed_429;
        report.unavailable_503 += tally.unavailable_503;
        report.other_status += tally.other_status;
        report.transport_errors += tally.transport_errors;
        report.mismatches += tally.mismatches;
        for (slot, count) in report
            .ok_per_expected
            .iter_mut()
            .zip(&tally.ok_per_expected)
        {
            *slot += count;
        }
        latencies.merge(&tally.latencies);
    }
    if wall.as_secs_f64() > 0.0 {
        report.requests_per_sec = report.requests as f64 / wall.as_secs_f64();
    }
    report.latency_mean_us = latencies.mean_us();
    report.latency_p50_us = latencies.quantile_us(0.50);
    report.latency_p99_us = latencies.quantile_us(0.99);
    report
}
