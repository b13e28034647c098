//! # snn-gateway — dependency-free HTTP/1.1 serving front-end
//!
//! The network edge of the workspace's serving stack: a hand-rolled
//! HTTP/1.1 server on `std::net::TcpListener` (no hyper/tokio — the build
//! is fully offline) that fronts the runtime's
//! [`StreamingServer`](snn_runtime::StreamingServer) and pushes each
//! request's deadline from the wire all the way into the EDF order of the
//! [`DeadlineBatcher`](snn_runtime::DeadlineBatcher)'s pending window.
//!
//! * [`http`] — panic-free incremental request parser (`Content-Length`
//!   bodies, keep-alive, pipelining; `400`/`413` on malformed or oversized
//!   input) and the response writer.
//! * [`json`] — the inference wire format: `dims` + flat f32 `pixels` in,
//!   logits + top-1 + timing out; optional `deadline_ms`/`priority` fields
//!   map onto [`SubmitOptions`](snn_runtime::SubmitOptions). Float
//!   round-trips are bit-exact, so HTTP serving preserves the workspace's
//!   logit-equivalence guarantees.
//! * [`Gateway`] — acceptor + connection worker pool with graceful drain.
//!   One static route table in `server.rs` (`ROUTES`) is the only list of
//!   what it serves: each row's method, path pattern, `route` label (the
//!   one `/metrics` and `/v1/stats` report), handler, trace root and drain
//!   rule. A `GET` row also answers `HEAD` (the head alone), a wrong
//!   method answers `405` with `Allow`, an unknown path `404`. The rows: `POST /v1/infer`; `GET /metrics` (Prometheus text:
//!   gateway counters, [`StreamingMetrics`](snn_runtime::StreamingMetrics)
//!   and latency histograms whose `le` buckets are octave sums of
//!   `snn_telemetry`'s log-linear bins); `GET /v1/trace/<id>` (a traced
//!   request's span tree — when the wrapped server carries a
//!   [`TraceCollector`](snn_trace::TraceCollector), each inference
//!   response echoes its `trace_id`, honoring a client-supplied
//!   `x-snn-trace-id` header); `GET /healthz` (liveness: always `200`
//!   while the process runs, even mid-drain); `GET /readyz` (readiness:
//!   `503` with a JSON body once [`Gateway::begin_drain`] flips the drain
//!   flag, reporting brownout and breaker state alongside); `GET /v1/logs`
//!   and `GET /v1/incidents[/<id>]` (the flight recorder and incident
//!   reports). With telemetry on (the [`GatewayConfig::telemetry`]
//!   default) a windowed [`TelemetryHub`](snn_telemetry::TelemetryHub)
//!   collects labeled per-model / per-route sliding-window series —
//!   served as JSON by `GET /v1/stats` ([`stats`] documents the schema)
//!   and rendered live by `GET /dashboard`, a single dependency-free HTML
//!   page. Backpressure maps onto the wire:
//!   [`QueueFull`](snn_runtime::SubmitError::QueueFull) → `429`, drain →
//!   `503`, handler timeout → `504`. With a
//!   [`ModelRegistry`](snn_runtime::ModelRegistry) attached
//!   ([`Gateway::start_with_registry`]) the gateway also serves
//!   `GET /v1/models` (catalog + residency), `POST
//!   /v1/models/<name[@version]>/infer` (per-model routing with lazy
//!   load + compile, through the same inference handler as `/v1/infer`)
//!   and `POST /v1/models/<name>/swap` (atomic version swap under live
//!   traffic); without one those rows answer `404`.
//! * [`client`] — a std-only keep-alive HTTP client ([`HttpClient`]) for
//!   tests and examples. The benchmark harness has its own.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use rand::SeedableRng;
//! use snn_gateway::{client::HttpClient, Gateway, GatewayConfig};
//! use snn_nn::{DenseLayer, Flatten, Layer, Sequential};
//! use snn_runtime::{CsrEngine, StreamingConfig, StreamingServer};
//! use ttfs_core::{convert, Base2Kernel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = Sequential::new(vec![
//!     Layer::Flatten(Flatten::new()),
//!     Layer::Dense(DenseLayer::new(9, 2, &mut rng)),
//! ]);
//! let model = Arc::new(convert(&net, Base2Kernel::paper_default(), 16)?);
//! let dims = [1usize, 3, 3];
//! let backend = Arc::new(CsrEngine::compile_shared(Arc::clone(&model), &dims)?);
//! let server = Arc::new(StreamingServer::new(backend, StreamingConfig::default()));
//! let mut gateway = Gateway::start(Arc::clone(&server), GatewayConfig::for_dims(&dims))?;
//!
//! let mut client = HttpClient::connect(gateway.local_addr())?;
//! let body = r#"{"dims":[1,3,3],"pixels":[0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5],
//!                "deadline_ms":2.0,"priority":1}"#;
//! let response = client.post_json("/v1/infer", body)?;
//! assert_eq!(response.status, 200);
//!
//! gateway.shutdown();
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod json;
mod metrics;
mod server;
pub mod stats;

pub use client::{HttpClient, WireResponse};
pub use http::{Limits, ParseError, Request};
pub use json::{ErrorBody, InferRequest, InferResponse, ModelListBody, SwapRequest};
pub use metrics::{
    prometheus_text, GatewayMetrics, GatewayRecorder, LogStats, RouteMetrics, TraceStats,
};
pub use server::{Gateway, GatewayConfig};
pub use stats::render_stats;
