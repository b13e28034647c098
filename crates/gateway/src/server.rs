//! The gateway proper: a `std::net::TcpListener` acceptor plus a
//! connection worker pool, fronting a [`StreamingServer`].
//!
//! ```text
//! accept loop ──► WorkerPool (connection jobs)
//!                    │  read → parse_head once (pipelining), then the
//!                    │       body straight into a Content-Length buffer
//!                    │  POST /v1/infer: one-pass JSON → Tensor →
//!                    │       infer_blocking(image, SubmitOptions {
//!                    │         deadline_ms, priority, trace }, handler_timeout)
//!                    │       permit free → this thread runs the EDF batch
//!                    │       every permit held → a worker runs it; 200 / 504
//!                    │       SubmitError::QueueFull → 429
//!                    │       SubmitError::Brownout → 429 (load shed)
//!                    │       breaker open → 503 + Retry-After
//!                    │       drain → 503
//!                    │       (every 429/503 carries Retry-After)
//!                    │  one-pass JSON response
//!                    │  GET /metrics: Prometheus text (+ histograms)
//!                    │  GET /v1/trace/<id>: span tree of a traced request
//!                    ▼
//!           StreamingServer (EDF pending window → caller or worker → engine)
//! ```
//!
//! A lone request on an idle server therefore never leaves the
//! connection thread that read it: it is decoded, executed and answered
//! there. Only when `threads` batches are already executing does it queue
//! for a worker, and then the handler timeout bounds the wait. A handler
//! never executes more than one batch: if more urgent requests filled the
//! one it took, it hands back and waits like a queued one.
//!
//! When the wrapped server was built with a
//! [`TraceCollector`](snn_trace::TraceCollector)
//! ([`StreamingServer::new_traced`](snn_runtime::StreamingServer::new_traced)),
//! each inference request gets a trace: the handler mints a
//! [`TraceId`](snn_trace::TraceId) (or honors the request's
//! `x-snn-trace-id` header), records the gateway-side spans
//! (`http.request` root, `http.parse`, `request.decode`, `infer.submit` —
//! the admission instant — `ticket.wait` — the rest of the blocking call,
//! executing or waiting — and `http.respond`), and threads the id through
//! [`SubmitOptions`](snn_runtime::SubmitOptions) so the worker and engine
//! spans land in the same tree. The response echoes the id,
//! and `GET /v1/trace/<id>` serves the finished tree.
//!
//! Shutdown is a graceful drain: the acceptor stops, connection workers
//! answer anything already parsed with `503` and exit at their next poll
//! tick, and in-flight inference handlers run to completion before the
//! pool joins. The wrapped [`StreamingServer`] is left running — it
//! belongs to the caller, who may front it with a new gateway or shut it
//! down separately.

use std::io::{Read, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snn_log::{IncidentConfig, IncidentRecorder, Level, LogCollector};
use snn_runtime::{
    FaultInjector, FaultPoint, LogSink, ModelRegistry, RegistryError, StreamingServer, SubmitError,
    WorkerPool,
};
use snn_telemetry::{Labels, TelemetryHub};
use snn_tensor::Tensor;
use snn_trace::{AttrValue, TraceCollector, TraceId, TraceTarget};

use crate::http::{
    parse_head, write_response, write_response_with_retry_after, Head, Limits, ParseError, Request,
};
use crate::json::{
    render_trace, ErrorBody, InferRequest, InferResponse, ModelListBody, SwapRequest,
};
use crate::metrics::{prometheus_text, GatewayMetrics, GatewayRecorder, LogStats, TraceStats};
use crate::stats::render_stats;

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`Gateway::local_addr`]).
    pub addr: String,
    /// Connection worker threads (0 = one per available core, floored at
    /// 4). Each worker owns one connection for its keep-alive lifetime;
    /// additional accepted connections queue until a worker frees — which
    /// [`keep_alive_idle`](Self::keep_alive_idle) guarantees it eventually
    /// does.
    pub workers: usize,
    /// The per-sample dims this gateway serves (e.g. `[3, 32, 32]`).
    /// Requests with any other `dims` are rejected with `400` **before**
    /// touching the stream, so a hostile first request can never pin the
    /// streaming server to the wrong geometry.
    pub input_dims: Vec<usize>,
    /// Most bytes a request body may declare (`413` beyond).
    pub max_body_bytes: usize,
    /// Most bytes a request head may occupy (`400` beyond).
    pub max_head_bytes: usize,
    /// Longest a handler waits for a worker to answer before answering
    /// `504` (the batch still executes; the reply is discarded), counted
    /// from the handoff to the streaming server. A handler that executes
    /// its own request's batch (an executor permit was free) is not cut
    /// short; one whose batch was more urgent work instead runs that one
    /// batch, then waits out the rest of this bound. Client-supplied `deadline_ms` values are clamped to
    /// half this bound — an untrusted request must not park in the EDF
    /// window longer than the gateway is willing to wait for it, and the
    /// remaining half of the budget covers queueing and execution.
    pub handler_timeout: Duration,
    /// Socket read timeout: how often an idle keep-alive connection checks
    /// for shutdown. Smaller drains faster; larger polls less.
    pub poll_interval: Duration,
    /// Close a connection that has gone this long without completing a
    /// request. This reclaims workers from parked keep-alive clients (a
    /// handful of idle connections must never starve the pool) and bounds
    /// slow-loris senders who trickle a request forever.
    pub keep_alive_idle: Duration,
    /// Whether to stand up a windowed [`TelemetryHub`] for this gateway
    /// (default `true`). When on, the wrapped server, the registry (if
    /// any) and the gateway's route recorder list their cells in it
    /// under labels, executed batches are priced for energy, and
    /// `GET /v1/stats` + `GET /dashboard` serve live snapshots. Turning
    /// it off leaves those routes answering `404`; the cells `/metrics`
    /// reads are recorded either way.
    pub telemetry: bool,
    /// Whether to stand up the structured log flight recorder (default
    /// `true`). When on, every layer — access log, batcher, registry,
    /// fault injector — records leveled events into a bounded in-memory
    /// ring served by `GET /v1/logs`; the minimum level comes from the
    /// `SNN_LOG` spec (default `info`), and setting `SNN_LOG` also
    /// attaches a JSON-lines stderr sink. Off, the routes answer `404`
    /// and every log call is one relaxed atomic load.
    pub logging: bool,
    /// Directory for incident post-mortem reports. When set (and
    /// [`logging`](Self::logging) is on), failure sites — batch
    /// quarantine, breaker open, brownout engage, panics — atomically
    /// write self-contained JSON snapshots here (bounded, LRU-cleaned),
    /// served by `GET /v1/incidents`. `None` (the default) disables
    /// incident capture.
    pub incidents_dir: Option<PathBuf>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            input_dims: Vec::new(),
            max_body_bytes: 8 * 1024 * 1024,
            max_head_bytes: 16 * 1024,
            handler_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(50),
            keep_alive_idle: Duration::from_secs(10),
            telemetry: true,
            logging: true,
            incidents_dir: None,
        }
    }
}

impl GatewayConfig {
    /// A config serving the given per-sample dims, all else default.
    pub fn for_dims(input_dims: &[usize]) -> Self {
        Self {
            input_dims: input_dims.to_vec(),
            ..Self::default()
        }
    }
}

/// State shared between the acceptor, every connection worker, and the
/// [`Gateway`] handle.
struct Shared {
    server: Arc<StreamingServer>,
    /// The model registry behind the `/v1/models` routes, when this
    /// gateway was started with [`Gateway::start_with_registry`].
    registry: Option<Arc<ModelRegistry>>,
    /// The streaming server's span sink, if it was built traced
    /// ([`StreamingServer::trace_collector`]); gateway request spans and
    /// the `GET /v1/trace/<id>` route record into / read from it.
    trace: Option<Arc<TraceCollector>>,
    recorder: Mutex<GatewayRecorder>,
    /// The windowed time-series hub (when
    /// [`GatewayConfig::telemetry`] is on): the default server, every
    /// registry entry, and the per-route HTTP recorder list their cells
    /// in it; `/v1/stats` and `/dashboard` read them back.
    telemetry: Option<Arc<TelemetryHub>>,
    /// The structured-log sink (collector + optional incident recorder)
    /// every layer records into, when [`GatewayConfig::logging`] is on.
    log: Option<LogSink>,
    /// When the gateway started serving (the `uptime_s` origin).
    started: Instant,
    /// Soft drain ([`Gateway::begin_drain`]): readiness flips to `503`,
    /// non-health traffic is refused, keep-alive stops — but connections
    /// are still accepted so `/healthz` and `/readyz` probes keep working.
    draining: AtomicBool,
    /// Hard stop ([`Gateway::shutdown`]): the acceptor exits and
    /// connection workers close their streams. Implies `draining`.
    stopping: AtomicBool,
    limits: Limits,
    input_dims: Vec<usize>,
    handler_timeout: Duration,
    poll_interval: Duration,
    keep_alive_idle: Duration,
}

/// The HTTP serving front-end: acceptor + connection worker pool over a
/// [`StreamingServer`], with graceful drain (see the module-level docs for
/// the data path).
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use snn_gateway::{Gateway, GatewayConfig};
/// use snn_runtime::{BackendChoice, StreamingConfig};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let model: Arc<ttfs_core::SnnModel> = unimplemented!();
/// let dims = [3usize, 32, 32];
/// let server = Arc::new(BackendChoice::Csr.serve_streaming(
///     Arc::clone(&model), &dims, StreamingConfig::default())?);
/// let mut gateway = Gateway::start(server, GatewayConfig::for_dims(&dims))?;
/// println!("serving on http://{}", gateway.local_addr());
/// // ... traffic ...
/// gateway.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct Gateway {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    connections: Mutex<Option<Arc<WorkerPool>>>,
}

impl Gateway {
    /// Binds the listener, spawns the acceptor and connection workers, and
    /// starts serving.
    ///
    /// # Errors
    ///
    /// Returns the bind error, or `InvalidInput` when
    /// [`input_dims`](GatewayConfig::input_dims) is empty (the gateway
    /// must know its geometry to validate requests).
    pub fn start(server: Arc<StreamingServer>, config: GatewayConfig) -> std::io::Result<Self> {
        Self::start_inner(server, None, config)
    }

    /// [`start`](Self::start) with a [`ModelRegistry`] attached: the
    /// gateway additionally serves `GET /v1/models`,
    /// `POST /v1/models/<name[@version]>/infer` and
    /// `POST /v1/models/<name>/swap`. The default `server` + `input_dims`
    /// keep serving the plain `/v1/infer` route. When the registry carries
    /// a trace collector, per-model requests record `registry.load` /
    /// `registry.compile` / `registry.swap` spans under their request
    /// root.
    ///
    /// # Errors
    ///
    /// Same conditions as [`start`](Self::start).
    pub fn start_with_registry(
        server: Arc<StreamingServer>,
        registry: Arc<ModelRegistry>,
        config: GatewayConfig,
    ) -> std::io::Result<Self> {
        Self::start_inner(server, Some(registry), config)
    }

    fn start_inner(
        server: Arc<StreamingServer>,
        registry: Option<Arc<ModelRegistry>>,
        config: GatewayConfig,
    ) -> std::io::Result<Self> {
        if config.input_dims.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "GatewayConfig::input_dims must name the served sample geometry",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = if config.workers > 0 {
            config.workers
        } else {
            // Floor at 4: connection workers are I/O-parked most of their
            // lives, and a 1-core box must still overlap several clients.
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(4)
        };
        let trace = server
            .trace_collector()
            .cloned()
            .or_else(|| registry.as_ref().and_then(|r| r.trace_collector().cloned()));
        let telemetry = config.telemetry.then(|| {
            let hub = Arc::new(TelemetryHub::new());
            // The default (non-registry) server records under a fixed
            // model label; registry entries attach their own
            // model/version/backend labels at load time.
            server.attach_telemetry(
                Arc::clone(&hub),
                Labels::new()
                    .with("model", "default")
                    .with("backend", server.backend_name()),
            );
            if let Some(registry) = &registry {
                registry.attach_telemetry(Arc::clone(&hub));
            }
            hub
        });
        let log = config.logging.then(|| {
            // The SNN_LOG spec sets the collector's floor; the spec's
            // per-target overrides additionally filter the stderr sink.
            // No SNN_LOG → info-level ring only, no sink.
            let spec = snn_log::LogSpec::from_env();
            let collector = Arc::new(LogCollector::new(snn_log::DEFAULT_CAPACITY));
            collector.set_min_level(spec.most_verbose());
            if std::env::var_os("SNN_LOG").is_some() {
                if let Ok(sink) = snn_log::JsonSink::new(snn_log::SinkConfig::stderr(spec)) {
                    collector.set_sink(sink);
                }
            }
            let incidents = config.incidents_dir.as_ref().and_then(|dir| {
                IncidentRecorder::new(dir, Arc::clone(&collector), IncidentConfig::default())
                    .ok()
                    .map(Arc::new)
            });
            if let Some(recorder) = &incidents {
                snn_log::install_panic_hook(recorder);
            }
            let sink = LogSink::new(collector, incidents);
            server.attach_logging(sink.clone());
            if let Some(registry) = &registry {
                registry.attach_logging(sink.clone());
            }
            FaultInjector::global().attach_log(Arc::clone(sink.collector()));
            sink
        });
        let recorder = telemetry
            .clone()
            .map_or_else(GatewayRecorder::new, GatewayRecorder::with_telemetry);
        let shared = Arc::new(Shared {
            server,
            registry,
            trace,
            telemetry,
            log,
            started: Instant::now(),
            recorder: Mutex::new(recorder),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            limits: Limits {
                max_head_bytes: config.max_head_bytes,
                max_body_bytes: config.max_body_bytes,
            },
            input_dims: config.input_dims,
            handler_timeout: config.handler_timeout,
            poll_interval: config.poll_interval,
            keep_alive_idle: config.keep_alive_idle,
        });
        if let Some(recorder) = shared.log.as_ref().and_then(|s| s.incidents()).cloned() {
            // Weak back-reference: the incident recorder must not keep the
            // gateway alive after shutdown — a post-shutdown incident just
            // loses its live-snapshot sections.
            let weak = Arc::downgrade(&shared);
            recorder.set_provider(move |trace| match weak.upgrade() {
                Some(shared) => snapshot_sections(&shared, trace),
                None => Vec::new(),
            });
        }
        let pool = Arc::new(WorkerPool::new(workers));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("snn-gateway-acceptor".into())
                .spawn(move || acceptor_loop(listener, shared, pool))
                .map_err(std::io::Error::other)?
        };
        Ok(Self {
            addr,
            shared,
            acceptor: Some(acceptor),
            connections: Mutex::new(Some(pool)),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the gateway is draining (shutdown has begun).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Marks the gateway as draining **without** stopping it: readiness
    /// (`GET /readyz`) flips to `503` so load balancers stop routing here,
    /// new non-health requests are refused with `503`, and liveness
    /// (`GET /healthz`) keeps answering `200` — the process is alive, just
    /// winding down. Idempotent; [`shutdown`](Self::shutdown) completes
    /// the drain.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
    }

    /// The windowed telemetry hub, when the gateway was configured with
    /// [`GatewayConfig::telemetry`] (the default).
    pub fn telemetry(&self) -> Option<&Arc<TelemetryHub>> {
        self.shared.telemetry.as_ref()
    }

    /// The structured-log flight recorder, when the gateway was
    /// configured with [`GatewayConfig::logging`] (the default).
    pub fn log_collector(&self) -> Option<&Arc<LogCollector>> {
        self.shared.log.as_ref().map(|s| s.collector())
    }

    /// The incident recorder, when [`GatewayConfig::incidents_dir`] was
    /// set (and logging is on).
    pub fn incidents(&self) -> Option<&Arc<IncidentRecorder>> {
        self.shared.log.as_ref().and_then(|s| s.incidents())
    }

    /// Snapshot of the gateway-level metrics accumulated so far.
    pub fn metrics(&self) -> GatewayMetrics {
        // Recover, don't propagate, a poisoned recorder: it holds plain
        // counters with no multi-step invariants, and losing /metrics
        // because one handler thread panicked would blind the operator
        // exactly when they need the numbers.
        self.shared
            .recorder
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .summarize()
    }

    /// Gracefully drains and stops the gateway: no new connections are
    /// accepted, parked keep-alive connections close at their next poll
    /// tick, in-flight handlers finish (their responses are written), and
    /// the connection pool joins. Returns the final gateway metrics.
    /// Idempotent; also invoked by [`Drop`]. The wrapped
    /// [`StreamingServer`] keeps running.
    pub fn shutdown(&mut self) -> GatewayMetrics {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.stopping.store(true, Ordering::Release);
        if let Some(handle) = self.acceptor.take() {
            // Wake the blocking accept with a throwaway connection; the
            // acceptor sees the stop flag and exits.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
        // The acceptor is gone, so its pool Arc is dropped; taking ours
        // makes this the last reference and dropping it joins the workers
        // after every queued connection job finishes.
        if let Some(pool) = self
            .connections
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            drop(pool);
        }
        self.metrics()
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn acceptor_loop(listener: TcpListener, shared: Arc<Shared>, pool: Arc<WorkerPool>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.stopping.load(Ordering::Acquire) {
                    // The wakeup connection (or late traffic): close it.
                    let _ = stream.shutdown(NetShutdown::Both);
                    break;
                }
                shared
                    .recorder
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record_connection();
                let shared = Arc::clone(&shared);
                // A closed pool can only mean shutdown raced us; drop the
                // stream and exit on the next accept.
                if pool
                    .try_execute(move || handle_connection(stream, &shared))
                    .is_err()
                {
                    break;
                }
            }
            Err(_) => {
                // Transient accept errors (EMFILE, aborted handshake) must
                // not kill the acceptor; a poisoned listener during drain
                // just exits. Back off briefly so persistent failures
                // (e.g. fd exhaustion) do not busy-spin a core against
                // the workers trying to free descriptors.
                if shared.stopping.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// The first slice of a declared body the gateway reserves and zero-fills
/// ahead of the reads; each later step doubles what is there.
const BODY_STEP: usize = 64 * 1024;

/// Serves one connection until it closes, errors, stops keeping alive, or
/// the gateway drains. Panic-free by construction: all parsing is
/// [`parse_head`], all indexing bounded.
///
/// Each head is parsed once. Its body is then read straight into a
/// buffer that becomes [`Request::body`] as is; only the body bytes that
/// arrived in the same read as the head are copied over. The buffer grows
/// toward the declared length in steps ([`BODY_STEP`], then doubling)
/// ahead of the reads, never all at once, so a client that declares a
/// large body and sends none of it holds at most one step of memory. Bytes
/// past the body stay buffered for the next pipelined request.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.poll_interval));
    let mut stream = stream;
    // Bytes read but not yet part of a request: a head arriving, or what
    // a client pipelined behind the current request.
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 8192];
    // The request whose head is parsed, how much of its body has landed
    // in `request.body`, and its declared length.
    let mut pending: Option<(Request, usize, usize)> = None;
    // Reset after every completed response (not at parse time — a slow
    // handler must not eat into its connection's idle allowance); a
    // connection that then goes `keep_alive_idle` without completing a
    // request is closed, so parked keep-alive clients and slow-loris
    // senders cannot pin a worker.
    let mut last_activity = Instant::now();
    // When the current request's first bytes landed — the start instant of
    // its `http.request` trace span (parse + queue + exec + respond all
    // nest under it).
    let mut recv_start: Option<Instant> = None;
    loop {
        // Serve everything already buffered first (pipelining).
        if pending.is_none() {
            match parse_head(&buf, &shared.limits) {
                Ok(Some(head)) => {
                    let Head {
                        mut request,
                        head_len,
                        content_length,
                    } = head;
                    let body_end = head_len.saturating_add(content_length).min(buf.len());
                    let mut body = Vec::with_capacity(content_length.min(BODY_STEP));
                    body.extend_from_slice(buf.get(head_len..body_end).unwrap_or_default());
                    buf.drain(..body_end);
                    let filled = body.len();
                    request.body = body;
                    pending = Some((request, filled, content_length));
                }
                Ok(None) => {}
                Err(e) => {
                    answer_parse_error(&mut stream, shared, &e);
                    return;
                }
            }
        }
        if let Some((request, ..)) = pending.take_if(|(_, filled, len)| filled == len) {
            if FaultInjector::global().should(FaultPoint::ConnReset) {
                // Injected mid-exchange connection loss: the request
                // parsed but its response never leaves. The client
                // must surface a typed transport error, not hang.
                if let Some(sink) = &shared.log {
                    snn_log::warn!(
                        sink.collector(),
                        "gateway.conn",
                        { "target": request.target.as_str() },
                        "dropping connection: injected reset after parsing {}",
                        request.target
                    );
                }
                let _ = stream.shutdown(NetShutdown::Both);
                return;
            }
            let received = recv_start.take().unwrap_or_else(Instant::now);
            let keep_alive = respond(&mut stream, &request, shared, received);
            last_activity = Instant::now();
            if !buf.is_empty() {
                // A pipelined follow-up is already buffered.
                recv_start = Some(last_activity);
            }
            if !keep_alive {
                let _ = stream.shutdown(NetShutdown::Both);
                return;
            }
            continue;
        }
        if shared.stopping.load(Ordering::Acquire) {
            // Mid-request bytes can never complete once we stop reading;
            // close so the client sees a connection error, not a hang.
            // (A soft drain keeps reading: health probes must still land.)
            let _ = stream.shutdown(NetShutdown::Both);
            return;
        }
        if last_activity.elapsed() >= shared.keep_alive_idle {
            let _ = stream.shutdown(NetShutdown::Both);
            return;
        }
        // A body reads into place; anything else into the head buffer.
        let read = match &mut pending {
            Some((request, filled, len)) => {
                let body = &mut request.body;
                if *filled == body.len() {
                    let step = body.len().max(BODY_STEP);
                    body.resize(body.len().saturating_add(step).min(*len), 0);
                }
                let read = stream.read(body.get_mut(*filled..).unwrap_or_default());
                if let Ok(n) = read {
                    *filled += n;
                }
                read
            }
            None => {
                let read = stream.read(&mut scratch);
                if let Ok(n) = read {
                    buf.extend_from_slice(scratch.get(..n).unwrap_or_default());
                }
                read
            }
        };
        match read {
            Ok(0) => return, // peer closed
            Ok(_) => {
                if recv_start.is_none() {
                    recv_start = Some(Instant::now());
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle poll tick: loop back to re-check the drain flag.
            }
            Err(_) => return,
        }
    }
}

/// Answers a request the parser refused (`400`/`413`) and closes the
/// connection: the byte stream can no longer be trusted to frame the
/// next request.
fn answer_parse_error(stream: &mut TcpStream, shared: &Shared, e: &ParseError) {
    let (status, message) = match e {
        ParseError::BadRequest(msg) => (400u16, msg.clone()),
        ParseError::PayloadTooLarge { limit } => {
            (413u16, format!("body exceeds the {limit}-byte limit"))
        }
    };
    let start = Instant::now();
    if let Some(sink) = &shared.log {
        snn_log::warn!(
            sink.collector(),
            "gateway.conn",
            { "status": u64::from(status) },
            "connection closed on parse error: {message}"
        );
    }
    let body = ErrorBody::render(message);
    let bytes = write_response(status, "application/json", &body, false);
    let _ = stream.write_all(&bytes);
    let mut rec = shared.recorder.lock().unwrap_or_else(|e| e.into_inner());
    rec.record_parse_error();
    rec.record_response("parse", status, start.elapsed());
    let _ = stream.shutdown(NetShutdown::Both);
}

/// A routed answer: `(route label, status, content type, body, explicit
/// Retry-After seconds)`. The final element is `None` almost everywhere —
/// [`respond`] derives a default `Retry-After: 1` for every `429`/`503` —
/// and carries an explicit value only where the server knows better (the
/// registry's circuit breaker knows exactly how long it will stay open).
type Reply = (&'static str, u16, &'static str, Vec<u8>, Option<u64>);

/// Widens a plain 4-field answer into a [`Reply`] with no explicit
/// Retry-After override.
fn widen(reply: (&'static str, u16, &'static str, Vec<u8>)) -> Reply {
    let (route, status, content_type, body) = reply;
    (route, status, content_type, body, None)
}

/// Routes and answers one request; returns whether the connection may
/// serve another. `received` is when the request's first bytes arrived —
/// the root instant of its trace, when tracing is on.
fn respond(stream: &mut TcpStream, request: &Request, shared: &Shared, received: Instant) -> bool {
    let start = Instant::now();
    let draining = shared.draining.load(Ordering::Acquire);
    // Health probes are answered even while draining: liveness must stay
    // `200` (the process is alive, winding down is not a crash) and
    // readiness must keep *reporting* — it answers `503` with a JSON body
    // saying why, so a load balancer sees "alive but do not route here".
    let probe = match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => Some(("health", 200u16, "text/plain", b"ok\n".to_vec(), None)),
        ("GET", "/readyz") => Some(widen(handle_readyz(shared, draining))),
        _ => None,
    };
    let (route, status, content_type, body, retry_override) = if let Some(reply) = probe {
        reply
    } else if draining {
        (
            "drain",
            503u16,
            "application/json",
            ErrorBody::render("gateway is draining; retry against another replica"),
            None,
        )
    } else {
        match (request.method.as_str(), request.path()) {
            ("POST", "/v1/infer") => handle_infer(request, shared, received),
            ("GET", "/v1/models") => widen(handle_models_list(shared)),
            (method, path) if path.starts_with("/v1/models/") => {
                handle_model_route(method, path, request, shared, received)
            }
            ("GET", path) if path.starts_with("/v1/trace/") => widen(handle_trace(path, shared)),
            (_, path) if path.starts_with("/v1/trace/") => (
                "other",
                405,
                "application/json",
                ErrorBody::render(format!("method {} not allowed on {path}", request.method)),
                None,
            ),
            ("GET", "/v1/logs") => widen(handle_logs(request, shared)),
            ("GET", "/v1/incidents") => widen(handle_incidents_list(shared)),
            ("GET", path) if path.starts_with("/v1/incidents/") => {
                widen(handle_incident_get(path, shared))
            }
            (_, path) if path == "/v1/incidents" || path.starts_with("/v1/incidents/") => (
                "other",
                405,
                "application/json",
                ErrorBody::render(format!("method {} not allowed on {path}", request.method)),
                None,
            ),
            ("GET", "/metrics") => {
                let streaming = shared.server.metrics();
                let gateway = shared
                    .recorder
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .summarize();
                let registry = shared.registry.as_deref().map(|r| r.metrics());
                let trace = live_trace_stats(shared);
                let log = live_log_stats(shared);
                (
                    "metrics",
                    200,
                    "text/plain; version=0.0.4",
                    prometheus_text(&gateway, &streaming, registry.as_ref(), trace, log.as_ref())
                        .into_bytes(),
                    None,
                )
            }
            ("GET", "/v1/stats") => widen(handle_stats(shared)),
            ("GET", "/dashboard") => widen(handle_dashboard(shared)),
            (_, "/v1/infer")
            | (_, "/v1/models")
            | (_, "/metrics")
            | (_, "/healthz")
            | (_, "/readyz")
            | (_, "/v1/stats")
            | (_, "/v1/logs")
            | (_, "/dashboard") => (
                "other",
                405,
                "application/json",
                ErrorBody::render(format!(
                    "method {} not allowed on {}",
                    request.method,
                    request.path()
                )),
                None,
            ),
            (_, path) => (
                "other",
                404,
                "application/json",
                ErrorBody::render(format!("no route for {path}")),
                None,
            ),
        }
    };
    // Every backpressure/unavailability answer carries a Retry-After so
    // clients pace their retries: an explicit value when the server knows
    // the outage's horizon (breaker backoff), else "1" (brownout, queue
    // full and drain all clear on the order of a second or a re-route).
    let retry_after = retry_override.or(match status {
        429 | 503 => Some(1),
        _ => None,
    });
    // During drain the connection stops keeping alive so workers wind down.
    let keep_alive = request.keep_alive && !draining;
    let bytes =
        write_response_with_retry_after(status, content_type, &body, keep_alive, retry_after);
    let wrote = stream.write_all(&bytes).is_ok();
    // One clock read, so the route's cells and the access log agree
    // about this request.
    let latency = start.elapsed();
    shared
        .recorder
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .record_response(route, status, latency);
    // Per-request access log: one event per answered request, error-level
    // for 5xx, warn for backpressure, stamped with the caller's trace id
    // when the request carried one (inference failures additionally log
    // with their internally minted id — see `log_request_failure`).
    if let Some(sink) = &shared.log {
        let collector = sink.collector();
        let level = match status {
            500.. => Level::Error,
            429 => Level::Warn,
            _ => Level::Info,
        };
        if collector.level_enabled(level) {
            let trace = request
                .header("x-snn-trace-id")
                .and_then(TraceId::parse_hex);
            collector.record_traced(
                level,
                "gateway.http",
                format!("{} {} -> {status}", request.method, request.path()),
                vec![
                    ("route", route.into()),
                    ("status", u64::from(status).into()),
                    ("latency_us", (latency.as_micros() as u64).into()),
                ],
                trace,
            );
        }
    }
    keep_alive && wrote
}

/// The `GET /readyz` handler — readiness as distinct from liveness. A
/// ready gateway answers `200`; a draining one answers `503` so load
/// balancers stop routing here while `/healthz` keeps reporting the
/// process alive. The body always carries the degradation signals an
/// operator triages first: the drain flag, whether the streaming server's
/// priority brownout is engaged, and how many registry models sit behind
/// an open circuit breaker.
fn handle_readyz(shared: &Shared, draining: bool) -> (&'static str, u16, &'static str, Vec<u8>) {
    const ROUTE: &str = "health";
    let breaker_open_models = shared
        .registry
        .as_deref()
        .map(|r| {
            r.list()
                .iter()
                .filter(|m| m.state == "breaker-open")
                .count()
        })
        .unwrap_or(0);
    let body = serde::Content::Map(vec![
        ("ready".to_string(), serde::Content::Bool(!draining)),
        ("draining".to_string(), serde::Content::Bool(draining)),
        (
            "brownout_engaged".to_string(),
            serde::Content::Bool(shared.server.brownout_engaged()),
        ),
        (
            "breaker_open_models".to_string(),
            serde::Content::U64(breaker_open_models as u64),
        ),
    ]);
    let body = serde_json::to_string(&body)
        .unwrap_or_else(|_| "{\"ready\":false}".to_string())
        .into_bytes();
    let status = if draining { 503 } else { 200 };
    (ROUTE, status, "application/json", body)
}

/// The `GET /v1/stats` handler: the full windowed telemetry snapshot as
/// JSON (see [`crate::stats`] for the schema). `404` when the gateway was
/// configured with [`GatewayConfig::telemetry`] off.
fn handle_stats(shared: &Shared) -> (&'static str, u16, &'static str, Vec<u8>) {
    const ROUTE: &str = "stats";
    let Some(hub) = shared.telemetry.as_deref() else {
        return (
            ROUTE,
            404,
            "application/json",
            ErrorBody::render("telemetry is not enabled on this gateway"),
        );
    };
    (
        ROUTE,
        200,
        "application/json",
        render_live_stats(shared, hub),
    )
}

/// Renders the full `/v1/stats` snapshot body — shared between the route
/// handler and the incident report's `stats` section, so a post-mortem
/// snapshot always matches the live schema.
fn render_live_stats(shared: &Shared, hub: &TelemetryHub) -> Vec<u8> {
    let streaming = shared.server.metrics();
    let gateway = shared
        .recorder
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .summarize();
    let registry = shared.registry.as_deref().map(|r| r.metrics());
    let trace = live_trace_stats(shared);
    let log = live_log_stats(shared);
    render_stats(
        hub,
        &streaming,
        &gateway,
        registry.as_ref(),
        trace.as_ref(),
        log.as_ref(),
        shared.started.elapsed().as_secs_f64(),
    )
}

/// The trace collector's cumulative counters, when tracing is on.
fn live_trace_stats(shared: &Shared) -> Option<TraceStats> {
    shared.trace.as_deref().map(|c| TraceStats {
        spans_recorded: c.spans_recorded(),
        spans_dropped: c.spans_dropped(),
        ring_spans: c.ring_len(),
        ring_capacity: c.capacity(),
    })
}

/// The flight recorder's cumulative counters, when logging is on.
fn live_log_stats(shared: &Shared) -> Option<LogStats> {
    shared.log.as_ref().map(|sink| {
        let c = sink.collector();
        LogStats {
            events: [
                c.events_recorded(Level::Debug),
                c.events_recorded(Level::Info),
                c.events_recorded(Level::Warn),
                c.events_recorded(Level::Error),
            ],
            dropped: c.events_dropped(),
            ring_len: c.ring_len(),
            ring_capacity: c.capacity(),
            suppressed: c.sink_suppressed(),
            incidents_written: sink.incidents().map_or(0, |r| r.written()),
        }
    })
}

/// The sections an incident report embeds: the live `/v1/stats` snapshot
/// (same renderer as the route, so the schemas match), the failing
/// request's span tree when its trace id is known, and the fault
/// injector's counters.
fn snapshot_sections(shared: &Shared, trace: Option<TraceId>) -> Vec<(String, String)> {
    let mut sections = Vec::new();
    if let Some(hub) = shared.telemetry.as_deref() {
        if let Ok(body) = String::from_utf8(render_live_stats(shared, hub)) {
            sections.push(("stats".to_string(), body));
        }
    }
    if let (Some(collector), Some(trace)) = (shared.trace.as_deref(), trace) {
        let spans = collector.trace(trace);
        if !spans.is_empty() {
            if let Ok(tree) = String::from_utf8(render_trace(trace, &spans)) {
                sections.push(("trace".to_string(), tree));
            }
        }
    }
    if let Ok(counts) = serde_json::to_string(&FaultInjector::global().counts()) {
        sections.push(("faults".to_string(), counts));
    }
    sections
}

/// The `GET /dashboard` handler: one self-contained HTML page (no external
/// scripts, styles or fonts — it must render on an air-gapped box) that
/// polls `/v1/stats` and draws per-model tiles, sparklines, SLO state and
/// the degradation ladder. `404` when telemetry is off.
fn handle_dashboard(shared: &Shared) -> (&'static str, u16, &'static str, Vec<u8>) {
    const ROUTE: &str = "dashboard";
    if shared.telemetry.is_none() {
        return (
            ROUTE,
            404,
            "application/json",
            ErrorBody::render("telemetry is not enabled on this gateway"),
        );
    }
    (
        ROUTE,
        200,
        "text/html; charset=utf-8",
        include_str!("dashboard.html").as_bytes().to_vec(),
    )
}

/// The `GET /v1/trace/<id>` handler: parses the hex trace id from the
/// path and returns the recorded span tree as JSON. `404` when tracing is
/// off, the id is unknown, or the trace was evicted from the bounded
/// collector; `400` for a malformed id.
fn handle_trace(path: &str, shared: &Shared) -> (&'static str, u16, &'static str, Vec<u8>) {
    const ROUTE: &str = "trace";
    let json = "application/json";
    let Some(collector) = shared.trace.as_deref() else {
        return (
            ROUTE,
            404,
            json,
            ErrorBody::render("tracing is not enabled on this gateway"),
        );
    };
    let id_text = path.strip_prefix("/v1/trace/").unwrap_or_default();
    let Some(trace) = TraceId::parse_hex(id_text) else {
        return (
            ROUTE,
            400,
            json,
            ErrorBody::render(format!(
                "{id_text:?} is not a trace id (up to 16 hex digits)"
            )),
        );
    };
    let spans = collector.trace(trace);
    if spans.is_empty() {
        return (
            ROUTE,
            404,
            json,
            ErrorBody::render(format!(
                "no spans recorded for trace {trace}; it may have been evicted"
            )),
        );
    }
    (ROUTE, 200, json, render_trace(trace, &spans))
}

/// The `GET /v1/logs` handler: the flight recorder's retained events as
/// JSON, optionally filtered by `?level=<debug|info|warn|error>`
/// (at-least) and `?target=<prefix>`. Each event uses the same schema as
/// the JSON-lines sink. `404` when logging is off; `400` for an unknown
/// level.
fn handle_logs(request: &Request, shared: &Shared) -> (&'static str, u16, &'static str, Vec<u8>) {
    const ROUTE: &str = "logs";
    let json = "application/json";
    let Some(sink) = &shared.log else {
        return (
            ROUTE,
            404,
            json,
            ErrorBody::render("logging is not enabled on this gateway"),
        );
    };
    let mut level = None;
    let mut target = None;
    if let Some((_, query)) = request.target.split_once('?') {
        for pair in query.split('&') {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            match key {
                "level" => match Level::parse(value) {
                    Some(parsed) => level = Some(parsed),
                    None => {
                        return (
                            ROUTE,
                            400,
                            json,
                            ErrorBody::render(format!(
                                "{value:?} is not a log level (debug|info|warn|error)"
                            )),
                        )
                    }
                },
                "target" => target = Some(value.to_string()),
                _ => {} // unknown query keys are ignored, not rejected
            }
        }
    }
    let collector = sink.collector();
    let events = collector.recent_filtered(level, target.as_deref());
    let mut body = String::with_capacity(events.len() * 160 + 64);
    body.push_str("{\"events\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        // `render_line` emits one self-contained JSON object per event —
        // the exact sink schema — so the array embeds them verbatim.
        body.push_str(snn_log::render_line(event).trim_end());
    }
    body.push_str(&format!(
        "],\"recorded\":{},\"dropped\":{}}}",
        collector.events_recorded_total(),
        collector.events_dropped()
    ));
    (ROUTE, 200, json, body.into_bytes())
}

/// The `GET /v1/incidents` handler: every incident report id on disk
/// (oldest first — ids sort chronologically) plus cumulative counters.
/// `404` when incident capture is off.
fn handle_incidents_list(shared: &Shared) -> (&'static str, u16, &'static str, Vec<u8>) {
    const ROUTE: &str = "incidents";
    let json = "application/json";
    let Some(recorder) = shared.log.as_ref().and_then(|s| s.incidents()) else {
        return (
            ROUTE,
            404,
            json,
            ErrorBody::render("incident capture is not enabled on this gateway"),
        );
    };
    let ids = recorder.list();
    let mut body = String::with_capacity(ids.len() * 48 + 64);
    body.push_str("{\"incidents\":[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('"');
        body.push_str(&snn_log::json_escape(id));
        body.push('"');
    }
    body.push_str(&format!(
        "],\"written\":{},\"coalesced\":{}}}",
        recorder.written(),
        recorder.coalesced()
    ));
    (ROUTE, 200, json, body.into_bytes())
}

/// The `GET /v1/incidents/<id>` handler: one incident report, verbatim.
/// `404` for an unknown (or malformed — ids never contain separators) id,
/// or when incident capture is off.
fn handle_incident_get(path: &str, shared: &Shared) -> (&'static str, u16, &'static str, Vec<u8>) {
    const ROUTE: &str = "incidents";
    let json = "application/json";
    let Some(recorder) = shared.log.as_ref().and_then(|s| s.incidents()) else {
        return (
            ROUTE,
            404,
            json,
            ErrorBody::render("incident capture is not enabled on this gateway"),
        );
    };
    let id = path.strip_prefix("/v1/incidents/").unwrap_or_default();
    match recorder.read(id) {
        Some(bytes) => (ROUTE, 200, json, bytes),
        None => (
            ROUTE,
            404,
            json,
            ErrorBody::render(format!("no incident report named {id:?}")),
        ),
    }
}

/// Records a request-failure event in the flight recorder, stamped with
/// the request's (possibly internally minted) trace id — every 5xx answer
/// leaves at least one correlated event behind.
fn log_request_failure(
    shared: &Shared,
    route: &'static str,
    status: u16,
    detail: &str,
    trace: Option<TraceId>,
) {
    let Some(sink) = &shared.log else { return };
    let collector = sink.collector();
    let level = if status >= 500 {
        Level::Error
    } else {
        Level::Warn
    };
    if collector.level_enabled(level) {
        collector.record_traced(
            level,
            "gateway.http",
            format!("{route} failed with {status}: {detail}"),
            vec![
                ("route", route.into()),
                ("status", u64::from(status).into()),
            ],
            trace,
        );
    }
}

/// The `POST /v1/infer` handler: JSON body → geometry validation →
/// `infer_blocking` → JSON response. Backpressure and
/// lifecycle map onto the wire: `QueueFull` → 429, drain/shutdown → 503,
/// handler timeout → 504.
///
/// When the wrapped server is traced, the handler accepts the caller's
/// `x-snn-trace-id` header (or mints an id), hangs `http.parse`,
/// `request.decode`, `infer.submit`, `ticket.wait` and `http.respond`
/// spans under one `http.request` root, and rides the
/// [`TraceTarget`] into the runtime so queue/flush/execution spans land in
/// the same tree (see [`with_request_root`]).
fn handle_infer(request: &Request, shared: &Shared, received: Instant) -> Reply {
    with_request_root(request, shared, received, |trace_ctx| {
        widen(run_infer(
            "infer",
            &shared.server,
            &shared.input_dims,
            request,
            shared,
            received,
            trace_ctx,
        ))
    })
}

/// Runs an inference handler under the request's trace context and then
/// records its `http.request` root with the reply's status — for every
/// outcome, not only a `200`. The root closes after every child span and
/// before [`respond`] writes a byte, so a follow-up
/// `GET /v1/trace/<id>` always sees a complete tree with one root and no
/// orphans.
fn with_request_root(
    request: &Request,
    shared: &Shared,
    received: Instant,
    handler: impl FnOnce(Option<&TraceCtx>) -> Reply,
) -> Reply {
    let trace_ctx = make_trace_ctx(request, shared);
    let reply = handler(trace_ctx.as_ref());
    if let Some((collector, trace, root)) = &trace_ctx {
        collector.record_span_with_id(
            *root,
            *trace,
            0,
            "http.request",
            received,
            Instant::now(),
            vec![("status", AttrValue::U64(u64::from(reply.1)))],
        );
    }
    reply
}

/// `(collector, trace id, pre-allocated root span id)` for one request —
/// `None` when the gateway is untraced or the collector is disabled, in
/// which case the only cost downstream is one check per instrumentation
/// point.
type TraceCtx = (Arc<TraceCollector>, TraceId, u64);

/// Mints (or adopts from `x-snn-trace-id`) the request's trace context.
fn make_trace_ctx(request: &Request, shared: &Shared) -> Option<TraceCtx> {
    shared
        .trace
        .as_ref()
        .filter(|c| c.is_enabled())
        .map(|collector| {
            let trace = request
                .header("x-snn-trace-id")
                .and_then(TraceId::parse_hex)
                .unwrap_or_else(|| collector.mint_trace());
            (Arc::clone(collector), trace, collector.next_span_id())
        })
}

/// The shared inference body behind `POST /v1/infer` and
/// `POST /v1/models/<spec>/infer`: one-pass JSON decode → geometry
/// validation against `expected_dims` (the routed entry's geometry, not
/// the process's) → [`StreamingServer::infer_blocking`] on `server`, which
/// runs the batch on this connection thread when an executor permit is
/// free and otherwise waits on a worker for at most the handler timeout →
/// one-pass JSON response.
#[allow(clippy::too_many_arguments)]
fn run_infer(
    route: &'static str,
    server: &StreamingServer,
    expected_dims: &[usize],
    request: &Request,
    shared: &Shared,
    received: Instant,
    trace_ctx: Option<&TraceCtx>,
) -> (&'static str, u16, &'static str, Vec<u8>) {
    let json = "application/json";
    let handler_start = Instant::now();
    let trace_id = trace_ctx.map(|&(_, trace, _)| trace);
    if let Some((collector, trace, root)) = trace_ctx {
        collector.record_span(
            *trace,
            *root,
            "http.parse",
            received,
            handler_start,
            vec![("body_bytes", request.body.len().into())],
        );
    }
    let wire = match InferRequest::decode(&request.body) {
        Ok(wire) => wire,
        Err(msg) => return (route, 400, json, ErrorBody::render(msg)),
    };
    if let Err(msg) = wire.validate(expected_dims) {
        return (route, 400, json, ErrorBody::render(msg));
    }
    let mut options = match wire.submit_options() {
        Ok(options) => options,
        Err(msg) => return (route, 400, json, ErrorBody::render(msg)),
    };
    // Clamp untrusted deadlines to HALF the handler timeout: the handler
    // gives up (504) at handler_timeout, so batching may consume at most
    // half the budget, leaving the rest for queueing and execution. An
    // unclamped deadline would park in the EDF window for a client-chosen
    // duration, stalling every request sharing it (and, under tight
    // max_pending, wedging admission) — and a clamp at the full timeout
    // would race the 504 by design.
    options.deadline = options.deadline.map(|d| d.min(shared.handler_timeout / 2));
    let pixels = wire.pixels.len();
    let image = match Tensor::from_vec(wire.pixels, &wire.dims) {
        Ok(image) => image,
        Err(e) => return (route, 400, json, ErrorBody::render(e.to_string())),
    };
    if let Some((collector, trace, root)) = trace_ctx {
        collector.record_span(
            *trace,
            *root,
            "request.decode",
            handler_start,
            Instant::now(),
            vec![("pixels", pixels.into())],
        );
        options = options.traced(TraceTarget {
            trace: *trace,
            parent: *root,
        });
    }
    let submitted = Instant::now();
    let outcome = server.infer_blocking(image, options, shared.handler_timeout);
    let answered = Instant::now();
    if let (Some((collector, trace, root)), Ok(waited)) = (trace_ctx, &outcome) {
        // Admission is an instant inside the blocking call; the wait spans
        // the rest of it — the batch executing on this thread, or the wait
        // for a worker's answer.
        collector.record_span(*trace, *root, "infer.submit", submitted, submitted, vec![]);
        if let Ok(response) = waited {
            let attrs = match response {
                Some(response) => vec![("batch_size", response.batch_size.into())],
                None => vec![],
            };
            collector.record_span(*trace, *root, "ticket.wait", submitted, answered, attrs);
        }
    }
    let response = match outcome {
        Ok(Ok(Some(response))) => response,
        Ok(Ok(None)) => {
            log_request_failure(
                shared,
                route,
                504,
                &format!("ticket wait exceeded {:?}", shared.handler_timeout),
                trace_id,
            );
            return (
                route,
                504,
                json,
                ErrorBody::render(format!(
                    "inference did not complete within {:?}",
                    shared.handler_timeout
                )),
            );
        }
        Ok(Err(e)) => {
            log_request_failure(shared, route, 500, &e.to_string(), trace_id);
            return (route, 500, json, ErrorBody::render(e.to_string()));
        }
        Err(SubmitError::QueueFull { max_pending }) => {
            log_request_failure(
                shared,
                route,
                429,
                &format!("queue full at {max_pending} admitted"),
                trace_id,
            );
            return (
                route,
                429,
                json,
                ErrorBody::render(format!(
                    "queue full: {max_pending} requests already admitted; retry with backoff"
                )),
            );
        }
        Err(SubmitError::Brownout {
            priority,
            shed_below_priority,
        }) => {
            // Load shedding is backpressure, same wire shape as a full
            // queue: the client should back off and retry (or escalate
            // its priority if it genuinely is latency-critical).
            log_request_failure(
                shared,
                route,
                429,
                &format!("brownout shed priority {priority} (below {shed_below_priority})"),
                trace_id,
            );
            return (
                route,
                429,
                json,
                ErrorBody::render(format!(
                    "brownout: shedding priority {priority} (below {shed_below_priority}) \
                     while the pending queue is above its high-water mark; retry with backoff"
                )),
            );
        }
        Err(SubmitError::Rejected(e)) => {
            // A rejected submit during server teardown is unavailability,
            // not a client error.
            let status = if server.is_shut_down() { 503 } else { 400 };
            if status >= 500 {
                log_request_failure(shared, route, status, &e.to_string(), trace_id);
            }
            return (route, status, json, ErrorBody::render(e.to_string()));
        }
    };
    let logits = response.logits.into_vec();
    let top1 = logits
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let wire = InferResponse {
        logits,
        top1,
        batch_size: response.batch_size,
        queue_wait_us: response.queue_wait.as_secs_f64() * 1e6,
        exec_us: response.exec_time.as_secs_f64() * 1e6,
        e2e_us: submitted.elapsed().as_secs_f64() * 1e6,
        energy_uj: response.energy_uj,
        trace_id: trace_id.map(|trace| trace.to_string()).unwrap_or_default(),
    };
    let body = match wire.encode() {
        Ok(body) => body,
        Err(e) => {
            log_request_failure(
                shared,
                route,
                500,
                &format!("response serialization failed: {e}"),
                trace_id,
            );
            return (
                route,
                500,
                json,
                ErrorBody::render(format!("response serialization failed: {e}")),
            );
        }
    };
    if let Some((collector, trace, root)) = trace_ctx {
        collector.record_span(
            *trace,
            *root,
            "http.respond",
            answered,
            Instant::now(),
            vec![("body_bytes", body.len().into())],
        );
    }
    (route, 200, json, body)
}

/// The `GET /v1/models` handler: the registry catalog with residency
/// state. `404` when no registry is attached.
fn handle_models_list(shared: &Shared) -> (&'static str, u16, &'static str, Vec<u8>) {
    const ROUTE: &str = "models";
    let json = "application/json";
    let Some(registry) = shared.registry.as_deref() else {
        return (
            ROUTE,
            404,
            json,
            ErrorBody::render("no model registry attached to this gateway"),
        );
    };
    let body = ModelListBody {
        models: registry.list(),
    };
    match serde_json::to_string(&body) {
        Ok(body) => (ROUTE, 200, json, body.into_bytes()),
        Err(e) => (
            ROUTE,
            500,
            json,
            ErrorBody::render(format!("model list serialization failed: {e}")),
        ),
    }
}

/// Dispatches `/v1/models/<...>` sub-routes:
/// `POST /v1/models/<name[@version]>/infer` and
/// `POST /v1/models/<name>/swap`.
fn handle_model_route(
    method: &str,
    path: &str,
    request: &Request,
    shared: &Shared,
    received: Instant,
) -> Reply {
    let json = "application/json";
    let rest = path.strip_prefix("/v1/models/").unwrap_or_default();
    if let Some(spec) = rest.strip_suffix("/infer") {
        if spec.is_empty() {
            return (
                "model_infer",
                404,
                json,
                ErrorBody::render("missing model name in /v1/models/<name>/infer"),
                None,
            );
        }
        if method != "POST" {
            return (
                "model_infer",
                405,
                json,
                ErrorBody::render(format!("method {method} not allowed on {path}")),
                None,
            );
        }
        return handle_model_infer(spec, request, shared, received);
    }
    if let Some(name) = rest.strip_suffix("/swap") {
        if name.is_empty() {
            return (
                "swap",
                404,
                json,
                ErrorBody::render("missing model name in /v1/models/<name>/swap"),
                None,
            );
        }
        if method != "POST" {
            return (
                "swap",
                405,
                json,
                ErrorBody::render(format!("method {method} not allowed on {path}")),
                None,
            );
        }
        return handle_swap(name, request, shared, received);
    }
    (
        "other",
        404,
        json,
        ErrorBody::render(format!("no route for {path}")),
        None,
    )
}

/// Maps a registry failure onto the wire: a model the catalog has never
/// heard of is the client's mistake (`404`); an artifact or compile
/// failure is the server's (`500`); an open circuit breaker is temporary
/// unavailability (`503`) with a `Retry-After` telling the client exactly
/// how long the breaker will keep rejecting.
fn registry_error_response(route: &'static str, e: &RegistryError) -> Reply {
    let (status, retry_after) = match e {
        RegistryError::UnknownModel(_) => (404, None),
        RegistryError::Artifact(_) | RegistryError::Compile(_) | RegistryError::LoadPanicked(_) => {
            (500, None)
        }
        RegistryError::BreakerOpen { retry_after, .. } => {
            // Ceil to whole seconds so a 300 ms residue does not round
            // down to "retry immediately".
            (503, Some(retry_after.as_secs_f64().ceil().max(1.0) as u64))
        }
    };
    (
        route,
        status,
        "application/json",
        ErrorBody::render(e.to_string()),
        retry_after,
    )
}

/// The `POST /v1/models/<name[@version]>/infer` handler: resolves `spec`
/// through the registry (lazily loading + compiling a cold entry —
/// recorded as `registry.load` / `registry.compile` spans under this
/// request's root when traced) and runs the shared inference body against
/// that entry's server and geometry. The resolved handle is held across
/// the whole request, so LRU eviction can never tear down an entry with
/// this request in flight.
fn handle_model_infer(spec: &str, request: &Request, shared: &Shared, received: Instant) -> Reply {
    const ROUTE: &str = "model_infer";
    let json = "application/json";
    let Some(registry) = shared.registry.as_deref() else {
        return (
            ROUTE,
            404,
            json,
            ErrorBody::render("no model registry attached to this gateway"),
            None,
        );
    };
    with_request_root(request, shared, received, |trace_ctx| {
        let parent = trace_ctx.map(|(_, trace, root)| TraceTarget {
            trace: *trace,
            parent: *root,
        });
        match registry.get_or_load_traced(spec, parent) {
            Ok(handle) => widen(run_infer(
                ROUTE,
                handle.server(),
                handle.input_dims(),
                request,
                shared,
                received,
                trace_ctx,
            )),
            Err(e) => {
                let reply = registry_error_response(ROUTE, &e);
                if reply.1 >= 500 {
                    log_request_failure(
                        shared,
                        ROUTE,
                        reply.1,
                        &e.to_string(),
                        parent.map(|t| t.trace),
                    );
                }
                reply
            }
        }
    })
}

/// The `POST /v1/models/<name>/swap` handler: parses `{"version": ...}`
/// and atomically repoints the name's active version. In-flight tickets
/// complete against the old entry; new bare-`name` submissions land on
/// the new one. Returns the [`snn_runtime::SwapReport`] as JSON.
fn handle_swap(name: &str, request: &Request, shared: &Shared, received: Instant) -> Reply {
    const ROUTE: &str = "swap";
    let json = "application/json";
    let Some(registry) = shared.registry.as_deref() else {
        return (
            ROUTE,
            404,
            json,
            ErrorBody::render("no model registry attached to this gateway"),
            None,
        );
    };
    with_request_root(request, shared, received, |trace_ctx| {
        let text = match std::str::from_utf8(&request.body) {
            Ok(text) => text,
            Err(_) => {
                return (
                    ROUTE,
                    400,
                    json,
                    ErrorBody::render("request body is not valid UTF-8"),
                    None,
                )
            }
        };
        let wire: SwapRequest = match serde_json::from_str(text) {
            Ok(wire) => wire,
            Err(e) => {
                return (
                    ROUTE,
                    400,
                    json,
                    ErrorBody::render(format!("bad JSON: {e}")),
                    None,
                )
            }
        };
        let parent = trace_ctx.map(|(_, trace, root)| TraceTarget {
            trace: *trace,
            parent: *root,
        });
        match registry.swap(name, &wire.version, parent) {
            Ok(report) => match serde_json::to_string(&report) {
                Ok(body) => (ROUTE, 200, json, body.into_bytes(), None),
                Err(e) => (
                    ROUTE,
                    500,
                    json,
                    ErrorBody::render(format!("swap report serialization failed: {e}")),
                    None,
                ),
            },
            Err(e) => {
                let reply = registry_error_response(ROUTE, &e);
                if reply.1 >= 500 {
                    log_request_failure(
                        shared,
                        ROUTE,
                        reply.1,
                        &e.to_string(),
                        parent.map(|t| t.trace),
                    );
                }
                reply
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
    use snn_runtime::BackendChoice;
    use ttfs_core::{convert, Base2Kernel};

    fn small_gateway() -> (Gateway, Arc<StreamingServer>) {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Sequential::new(vec![
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(8, 4, &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::Dense(DenseLayer::new(4, 3, &mut rng)),
        ]);
        let model = Arc::new(convert(&net, Base2Kernel::paper_default(), 24).unwrap());
        let dims = [1usize, 2, 4];
        let server = Arc::new(
            BackendChoice::Csr
                .serve_streaming(
                    Arc::clone(&model),
                    &dims,
                    snn_runtime::StreamingConfig {
                        threads: 1,
                        max_batch: 2,
                        max_delay: Duration::from_millis(1),
                        max_pending: 0,
                        brownout: None,
                    },
                )
                .unwrap(),
        );
        let gateway = Gateway::start(
            Arc::clone(&server),
            GatewayConfig {
                workers: 2,
                ..GatewayConfig::for_dims(&dims)
            },
        )
        .unwrap();
        (gateway, server)
    }

    /// Observability must survive exactly the situations it exists for: a
    /// thread that panics while holding the gateway recorder lock poisons
    /// it, and a later `GET /metrics` scrape over real TCP must still
    /// answer `200` with the full exposition text — counters are plain
    /// data, so the poison is recovered, not propagated.
    #[test]
    fn metrics_scrape_survives_a_poisoned_recorder_lock() {
        let (mut gateway, server) = small_gateway();

        // Poison the recorder mutex: panic while holding its guard.
        let shared = Arc::clone(&gateway.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.recorder.lock().unwrap();
            panic!("poison the gateway recorder lock");
        });
        assert!(poisoner.join().is_err(), "the poisoner must panic");
        assert!(
            gateway.shared.recorder.is_poisoned(),
            "the recorder lock must actually be poisoned"
        );

        // A real scrape through the full socket path still answers.
        let mut stream = TcpStream::connect(gateway.local_addr()).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 200"),
            "poisoned-lock scrape failed: {text}"
        );
        assert!(
            text.contains("snn_gateway_requests_total"),
            "scrape is missing its families: {text}"
        );

        // Shutdown also crosses the recorder; it must not unwind either.
        let metrics = gateway.shutdown();
        server.shutdown();
        assert!(metrics.requests >= 1, "the scrape itself was recorded");
    }

    /// `/metrics` and `/v1/stats` read the same cells: after N inferences
    /// the route counter and the default model's request counter agree
    /// between the scrape and the stats body.
    #[test]
    fn metrics_and_stats_read_the_same_route_and_model_cells() {
        let (mut gateway, server) = small_gateway();
        let mut client = crate::client::HttpClient::connect(gateway.local_addr()).unwrap();
        let n = 7;
        let body = r#"{"dims":[1,2,4],"pixels":[0.1,0.9,0.4,0.3,0.7,0.2,0.6,0.5]}"#;
        for _ in 0..n {
            assert_eq!(client.post_json("/v1/infer", body).unwrap().status, 200);
        }
        let scrape = String::from_utf8(client.get("/metrics").unwrap().body).unwrap();
        let sample = |name: &str| {
            scrape
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<f64>().ok())
        };
        let stats = client.get("/v1/stats").unwrap().body;
        let stats: serde::Content =
            serde_json::from_str(std::str::from_utf8(&stats).unwrap()).unwrap();
        let row = |section: &str, key: &str, value: &str| {
            serde::field(stats.as_map()?, section)
                .ok()?
                .as_seq()?
                .iter()
                .filter_map(|r| r.as_map())
                .find(|r| serde::field(r, key).ok().and_then(|v| v.as_str()) == Some(value))
                .and_then(|r| serde::field(r, "requests_total").ok()?.as_f64())
        };
        let infer_route = sample("snn_gateway_route_requests_total{route=\"infer\"}");
        assert_eq!(infer_route, Some(n as f64));
        assert_eq!(row("routes", "route", "infer"), infer_route);
        let streamed = sample("snn_streaming_requests_total");
        assert_eq!(streamed, Some(n as f64));
        assert_eq!(row("models", "model", "default"), streamed);
        gateway.shutdown();
        server.shutdown();
    }
}
