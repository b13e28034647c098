//! A std-only HTTP/1.1 client and closed-loop load generator.
//!
//! [`HttpClient`] is a minimal keep-alive client over one `TcpStream` —
//! enough to drive the gateway from tests, the benchmark harness, and CI
//! without any external tooling. [`run_closed_loop`] layers the classic
//! closed-loop load model on top: `clients` threads each own a share of
//! the sample set and submit → wait → submit, optionally attaching random
//! per-request deadlines and priorities (deterministic xorshift seeded per
//! client — no external RNG dependency, matching the gateway's
//! dependency-free story), and optionally checking every `200` response's
//! logits bit-for-bit against an expected tensor.

use serde::Serialize;
use snn_telemetry::Histogram;
use snn_tensor::Tensor;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::http::find_head_end;
use crate::json::{InferRequest, InferResponse};

/// One parsed HTTP response as the client sees it.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Response body (framed by `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
    /// Parsed `Retry-After` header, whole seconds, when the server sent
    /// one (the gateway attaches it to every `429`/`503`).
    pub retry_after: Option<u64>,
}

/// A blocking keep-alive HTTP/1.1 client over one TCP connection.
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    /// Connects to `addr` with a generous read timeout (requests never
    /// hang a test run forever).
    ///
    /// # Errors
    ///
    /// Propagates the connect/configure error.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Issues a `GET`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors or a malformed response.
    pub fn get(&mut self, path: &str) -> std::io::Result<WireResponse> {
        self.request("GET", path, None)
    }

    /// Issues a `POST` with a JSON body.
    ///
    /// # Errors
    ///
    /// Propagates transport errors or a malformed response.
    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<WireResponse> {
        self.request("POST", path, Some(body.as_bytes()))
    }

    /// Writes raw bytes to the underlying stream — the hostile-input tests
    /// use this to send deliberately broken requests.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads one response off the wire (for use after
    /// [`send_raw`](Self::send_raw)).
    ///
    /// # Errors
    ///
    /// Propagates transport errors or a malformed response.
    pub fn read_response(&mut self) -> std::io::Result<WireResponse> {
        let mut scratch = [0u8; 8192];
        loop {
            if let Some(response) = self.try_parse_response()? {
                return Ok(response);
            }
            let n = self.stream.read(&mut scratch)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before a full response arrived",
                ));
            }
            self.buf.extend_from_slice(&scratch[..n]);
        }
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<WireResponse> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: gateway\r\n");
        if let Some(body) = body {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        if let Some(body) = body {
            self.stream.write_all(body)?;
        }
        self.read_response()
    }

    fn try_parse_response(&mut self) -> std::io::Result<Option<WireResponse>> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let Some(head_end) = find_head_end(&self.buf) else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        let mut keep_alive = true;
        let mut retry_after = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| bad("bad Content-Length"))?;
            } else if name == "connection" {
                keep_alive = !value.eq_ignore_ascii_case("close");
            } else if name == "retry-after" {
                // Only the delta-seconds form (the one the gateway emits);
                // an HTTP-date or garbage value is ignored, not fatal.
                retry_after = value.parse::<u64>().ok();
            }
        }
        let total = head_end + content_length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(WireResponse {
            status,
            body,
            keep_alive,
            retry_after,
        }))
    }
}

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
#[derive(Debug, Clone, Default, Serialize)]
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
