//! The gateway proper: a `std::net::TcpListener` acceptor plus a
//! connection worker pool, fronting a [`StreamingServer`].
//!
//! ```text
//! accept loop ──► WorkerPool (connection jobs)
//!                    │  read → parse_head once (pipelining), then the
//!                    │       body straight into a Content-Length buffer
//!                    │  ROUTES: (method, path) → row → handler → Reply
//!                    │       404 / 405 + Allow / drain 503 from the table
//!                    │  POST /v1/infer, /v1/models/<spec>/infer: one-pass
//!                    │       JSON → Tensor → infer_blocking(image,
//!                    │       SubmitOptions { deadline_ms, priority, trace })
//!                    │       permit free → this thread runs the EDF batch
//!                    │       every permit held → a worker runs it; 200 / 504
//!                    │       queue full or brownout → 429, breaker open or
//!                    │       drain → 503 (every 429/503 carries Retry-After)
//!                    ▼
//!           StreamingServer (EDF pending window → caller or worker → engine)
//! ```
//!
//! [`ROUTES`] is the one source of the gateway's routes: each row names a
//! method, a path pattern, the `route` label `/metrics` and `/v1/stats`
//! report, its handler, whether it gets a trace root and whether it
//! answers while draining.
//!
//! A lone request on an idle server never leaves the connection thread
//! that read it: it is decoded, executed and answered there. Only when
//! `threads` batches are already executing does it queue for a worker, and
//! then the handler timeout bounds the wait. A handler never executes more
//! than one batch: if more urgent requests filled the one it took, it
//! hands back and waits like a queued one.
//!
//! On a traced gateway (the wrapped server was built with a
//! [`TraceCollector`](snn_trace::TraceCollector)) every traced row — the
//! two inference routes and swap — gets a trace: an `http.request` root
//! carrying the status, whatever it is, under an id minted or taken from
//! the request's `x-snn-trace-id` header. The inference handler adds
//! `http.parse`, `request.decode`, `infer.submit`, `ticket.wait` and
//! `http.respond` spans and threads the id through
//! [`SubmitOptions`](snn_runtime::SubmitOptions), so the worker and engine
//! spans land in the same tree. The response echoes the id, and
//! `GET /v1/trace/<id>` serves the finished tree.
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
use std::sync::{Arc, Mutex, MutexGuard};
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
    parse_head, write_response, write_response_with_headers, Head, Limits, ParseError, Request,
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

impl Shared {
    /// The route recorder. A poisoned lock is recovered, not propagated:
    /// it holds plain counters with no multi-step invariants, and losing
    /// `/metrics` because one handler thread panicked would blind the
    /// operator exactly when they need the numbers.
    fn recorder(&self) -> MutexGuard<'_, GatewayRecorder> {
        self.recorder.lock().unwrap_or_else(|e| e.into_inner())
    }
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
        self.shared.recorder().summarize()
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
                shared.recorder().record_connection();
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
    let mut rec = shared.recorder();
    rec.record_parse_error();
    rec.record_response("parse", status, start.elapsed());
    let _ = stream.shutdown(NetShutdown::Both);
}

/// A handler's answer. `retry_after` is `None` almost everywhere —
/// [`respond`] derives a default `Retry-After: 1` for every `429`/`503` —
/// and carries an explicit value only where the server knows better (the
/// registry's circuit breaker knows exactly how long it will stay open).
struct Reply {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    retry_after: Option<u64>,
}

impl Reply {
    fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        Self {
            status,
            content_type,
            body,
            retry_after: None,
        }
    }

    fn json(status: u16, body: Vec<u8>) -> Self {
        Self::new(status, "application/json", body)
    }

    /// A JSON error body: `{"error": message}`.
    fn error(status: u16, message: impl Into<String>) -> Self {
        Self::json(status, ErrorBody::render(message))
    }
}

/// How a [`Route`] matches a path. Matching borrows the path and never
/// allocates; what the pattern leaves over is the handler's `tail`.
#[derive(Clone, Copy)]
enum Pattern {
    /// Exactly this path; the tail is empty.
    Exact(&'static str),
    /// Any path under this prefix; the tail (possibly empty) is the rest.
    Under(&'static str),
    /// `prefix tail suffix` with a non-empty tail.
    Around(&'static str, &'static str),
}

impl Pattern {
    fn tail(self, path: &str) -> Option<&str> {
        match self {
            Self::Exact(exact) => (path == exact).then_some(""),
            Self::Under(prefix) => path.strip_prefix(prefix),
            Self::Around(prefix, suffix) => path
                .strip_prefix(prefix)?
                .strip_suffix(suffix)
                .filter(|tail| !tail.is_empty()),
        }
    }
}

/// A route's handler, typed by the optional subsystem it reads: dispatch
/// ([`serve`]) hands the subsystem over, or answers `404` with that
/// subsystem's one message when the gateway runs without it.
#[derive(Clone, Copy)]
enum Handler {
    Plain(fn(&Call) -> Reply),
    Registry(fn(&Call, &ModelRegistry) -> Reply),
    Telemetry(fn(&Call, &TelemetryHub) -> Reply),
    Tracing(fn(&Call, &TraceCollector) -> Reply),
    Logging(fn(&Call, &LogCollector) -> Reply),
    Incidents(fn(&Call, &IncidentRecorder) -> Reply),
}

/// One row of [`ROUTES`].
struct Route {
    method: &'static str,
    pattern: Pattern,
    /// The `route` label of `/metrics`, `/v1/stats` and the access log.
    label: &'static str,
    gate: Gate,
    handler: Handler,
}

/// What a row gets besides its handler.
#[derive(Clone, Copy, PartialEq)]
enum Gate {
    /// Refused with `503` while the gateway drains.
    Serve,
    /// As `Serve`, and an `http.request` root span carrying the status,
    /// whatever it is (on a traced gateway).
    Traced,
    /// Still answered while the gateway drains.
    Probe,
}

/// Every route the gateway serves: the one source of its paths, methods,
/// `route` labels, trace roots and drain rule. A path some row matches
/// under other methods only answers `405` with `Allow`, a path no row
/// matches `404`, both labelled `other`. While the gateway drains, only
/// the probe rows answer and everything else gets `503` (label `drain`):
/// liveness stays `200` and readiness reports `503` with a JSON body
/// saying why, so a load balancer sees "alive but do not route here".
#[rustfmt::skip]
static ROUTES: &[Route] = {
    use Gate::{Probe, Serve, Traced};
    use Handler::{Incidents, Logging, Plain, Registry, Telemetry, Tracing};
    use Pattern::{Around, Exact, Under};
    &[
        Route { method: "GET",  pattern: Exact("/healthz"),               label: "health",      gate: Probe,  handler: Plain(health) },
        Route { method: "GET",  pattern: Exact("/readyz"),                label: "health",      gate: Probe,  handler: Plain(readyz) },
        Route { method: "POST", pattern: Exact("/v1/infer"),              label: "infer",       gate: Traced, handler: Plain(|c| infer(c, None)) },
        Route { method: "POST", pattern: Around("/v1/models/", "/infer"), label: "model_infer", gate: Traced, handler: Registry(|c, r| infer(c, Some(r))) },
        Route { method: "POST", pattern: Around("/v1/models/", "/swap"),  label: "swap",        gate: Traced, handler: Registry(swap) },
        Route { method: "GET",  pattern: Exact("/v1/models"),             label: "models",      gate: Serve,  handler: Registry(models) },
        Route { method: "GET",  pattern: Exact("/metrics"),               label: "metrics",     gate: Serve,  handler: Plain(metrics) },
        Route { method: "GET",  pattern: Exact("/v1/stats"),              label: "stats",       gate: Serve,  handler: Telemetry(stats) },
        Route { method: "GET",  pattern: Exact("/dashboard"),             label: "dashboard",   gate: Serve,  handler: Telemetry(dashboard) },
        Route { method: "GET",  pattern: Under("/v1/trace/"),             label: "trace",       gate: Serve,  handler: Tracing(trace) },
        Route { method: "GET",  pattern: Exact("/v1/logs"),               label: "logs",        gate: Serve,  handler: Logging(logs) },
        Route { method: "GET",  pattern: Exact("/v1/incidents"),          label: "incidents",   gate: Serve,  handler: Incidents(incidents) },
        Route { method: "GET",  pattern: Under("/v1/incidents/"),         label: "incidents",   gate: Serve,  handler: Incidents(incident) },
    ]
};

/// The row serving `(method, path)` and the path's tail. `Err` carries the
/// `Allow` value when rows serve `path` under other methods only, and is
/// `Err(None)` when no row serves it.
fn route<'p>(method: &str, path: &'p str) -> Result<(&'static Route, &'p str), Option<String>> {
    let rows = ROUTES
        .iter()
        .filter_map(|row| Some((row, row.pattern.tail(path)?)));
    if let Some(hit) = rows.clone().find(|(row, _)| row.method == method) {
        return Ok(hit);
    }
    let allow: Vec<&str> = rows.map(|(row, _)| row.method).collect();
    Err((!allow.is_empty()).then(|| allow.join(", ")))
}

/// One routed request, as its handler sees it.
struct Call<'a> {
    request: &'a Request,
    shared: &'a Shared,
    route: &'static Route,
    /// What the row's [`Pattern`] left of the path.
    tail: &'a str,
    /// When the request's first bytes arrived: its root span's start.
    received: Instant,
    /// The request's trace context, on traced rows of a traced gateway.
    trace: Option<TraceCtx>,
}

impl Call<'_> {
    /// Where this request's runtime and registry spans hang: its root.
    fn parent(&self) -> Option<TraceTarget> {
        self.trace.as_ref().map(|(_, trace, root)| TraceTarget {
            trace: *trace,
            parent: *root,
        })
    }

    /// Records a child span of the request's root, when traced; `attrs`
    /// is only built then.
    fn span(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: impl FnOnce() -> Vec<(&'static str, AttrValue)>,
    ) {
        if let Some((collector, trace, root)) = &self.trace {
            collector.record_span(*trace, *root, name, start, end, attrs());
        }
    }

    /// Answers `status` with `message`, logging `detail` first (see
    /// [`log_failure`](Self::log_failure)).
    fn fail(&self, status: u16, detail: &str, message: String) -> Reply {
        self.log_failure(status, detail);
        Reply::error(status, message)
    }

    /// Records a request-failure event in the flight recorder, stamped
    /// with the request's (possibly internally minted) trace id — every 5xx
    /// answer leaves at least one correlated event behind.
    fn log_failure(&self, status: u16, detail: &str) {
        let Some(sink) = &self.shared.log else { return };
        let collector = sink.collector();
        let level = if status >= 500 {
            Level::Error
        } else {
            Level::Warn
        };
        if collector.level_enabled(level) {
            let route = self.route.label;
            collector.record_traced(
                level,
                "gateway.http",
                format!("{route} failed with {status}: {detail}"),
                vec![
                    ("route", route.into()),
                    ("status", u64::from(status).into()),
                ],
                self.trace.as_ref().map(|&(_, trace, _)| trace),
            );
        }
    }
}

/// Answers one request; returns whether the connection may serve another.
/// `received` is when the request's first bytes arrived — the root instant
/// of its trace, when tracing is on.
fn respond(stream: &mut TcpStream, request: &Request, shared: &Shared, received: Instant) -> bool {
    let start = Instant::now();
    let draining = shared.draining.load(Ordering::Acquire);
    let path = request.path();
    let mut allow = None;
    let (label, reply) = match route(&request.method, path) {
        Ok((row, tail)) if row.gate == Gate::Probe || !draining => {
            (row.label, serve(row, tail, request, shared, received))
        }
        _ if draining => (
            "drain",
            Reply::error(503, "gateway is draining; retry against another replica"),
        ),
        Err(Some(methods)) => {
            allow = Some(methods);
            let message = format!("method {} not allowed on {path}", request.method);
            ("other", Reply::error(405, message))
        }
        _ => ("other", Reply::error(404, format!("no route for {path}"))),
    };
    let status = reply.status;
    // Every backpressure/unavailability answer carries a Retry-After so
    // clients pace their retries: an explicit value when the server knows
    // the outage's horizon (breaker backoff), else "1" (brownout, queue
    // full and drain all clear on the order of a second or a re-route).
    let retry_after = reply.retry_after.or(match status {
        429 | 503 => Some(1),
        _ => None,
    });
    // During drain the connection stops keeping alive so workers wind down.
    let keep_alive = request.keep_alive && !draining;
    let mut bytes = write_response_with_headers(
        status,
        reply.content_type,
        &reply.body,
        keep_alive,
        retry_after,
        allow.as_deref(),
    );
    // A HEAD response is the head alone (RFC 9110 §9.3.2), whatever its
    // status; Content-Length still gives the length the body would have.
    if request.method == "HEAD" {
        bytes.truncate(bytes.len() - reply.body.len());
    }
    let wrote = stream.write_all(&bytes).is_ok();
    // One clock read, so the route's cells and the access log agree
    // about this request.
    let latency = start.elapsed();
    shared.recorder().record_response(label, status, latency);
    // Per-request access log: one event per answered request, error-level
    // for 5xx, warn for backpressure, stamped with the caller's trace id
    // when the request carried one (inference failures additionally log
    // with their internally minted id — see `Call::log_failure`).
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
                format!("{} {path} -> {status}", request.method),
                vec![
                    ("route", label.into()),
                    ("status", u64::from(status).into()),
                    ("latency_us", (latency.as_micros() as u64).into()),
                ],
                trace,
            );
        }
    }
    keep_alive && wrote
}

/// Runs `route`'s handler, or answers `404` when the subsystem it reads is
/// off. A traced row's `http.request` root is recorded with the reply's
/// status for every outcome, not only a `200`; it closes after every child
/// span and before [`respond`] writes a byte, so a follow-up
/// `GET /v1/trace/<id>` always sees a complete tree with one root and no
/// orphans.
fn serve(
    route: &'static Route,
    tail: &str,
    request: &Request,
    shared: &Shared,
    received: Instant,
) -> Reply {
    let call = Call {
        request,
        shared,
        route,
        tail,
        received,
        // A traced row mints its trace, or adopts the `x-snn-trace-id` one.
        trace: (route.gate == Gate::Traced)
            .then(|| shared.trace.as_ref().filter(|c| c.is_enabled()))
            .flatten()
            .map(|collector| {
                let trace = request
                    .header("x-snn-trace-id")
                    .and_then(TraceId::parse_hex)
                    .unwrap_or_else(|| collector.mint_trace());
                (Arc::clone(collector), trace, collector.next_span_id())
            }),
    };
    let off = |message| Reply::error(404, message);
    let reply = match route.handler {
        Handler::Plain(handler) => handler(&call),
        Handler::Registry(handler) => match shared.registry.as_deref() {
            Some(registry) => handler(&call, registry),
            None => off("no model registry attached to this gateway"),
        },
        Handler::Telemetry(handler) => match shared.telemetry.as_deref() {
            Some(hub) => handler(&call, hub),
            None => off("telemetry is not enabled on this gateway"),
        },
        Handler::Tracing(handler) => match shared.trace.as_deref() {
            Some(collector) => handler(&call, collector),
            None => off("tracing is not enabled on this gateway"),
        },
        Handler::Logging(handler) => match &shared.log {
            Some(sink) => handler(&call, sink.collector()),
            None => off("logging is not enabled on this gateway"),
        },
        Handler::Incidents(handler) => match shared.log.as_ref().and_then(|s| s.incidents()) {
            Some(recorder) => handler(&call, recorder),
            None => off("incident capture is not enabled on this gateway"),
        },
    };
    if let Some((collector, trace, root)) = &call.trace {
        collector.record_span_with_id(
            *root,
            *trace,
            0,
            "http.request",
            received,
            Instant::now(),
            vec![("status", AttrValue::U64(u64::from(reply.status)))],
        );
    }
    reply
}

/// `(collector, trace id, pre-allocated root span id)` for one request —
/// `None` when the gateway is untraced or the collector is disabled, in
/// which case the only cost downstream is one check per instrumentation
/// point.
type TraceCtx = (Arc<TraceCollector>, TraceId, u64);

/// `GET /healthz` — liveness: `200` while the process runs, even mid-drain.
fn health(_: &Call) -> Reply {
    Reply::new(200, "text/plain", b"ok\n".to_vec())
}

/// `GET /readyz` — readiness as distinct from liveness. A ready gateway
/// answers `200`; a draining one answers `503` so load balancers stop
/// routing here while `/healthz` keeps reporting the process alive. The
/// body always carries the degradation signals an operator triages first:
/// the drain flag, whether the streaming server's priority brownout is
/// engaged, and how many registry models sit behind an open circuit
/// breaker.
fn readyz(call: &Call) -> Reply {
    let shared = call.shared;
    let draining = shared.draining.load(Ordering::Acquire);
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
    let body = format!(
        "{{\"ready\":{},\"draining\":{draining},\"brownout_engaged\":{},\"breaker_open_models\":{breaker_open_models}}}",
        !draining,
        shared.server.brownout_engaged(),
    );
    Reply::json(if draining { 503 } else { 200 }, body.into_bytes())
}

/// `GET /metrics` — Prometheus text: gateway, streaming, registry, trace
/// and log families.
fn metrics(call: &Call) -> Reply {
    let shared = call.shared;
    let streaming = shared.server.metrics();
    let gateway = shared.recorder().summarize();
    let registry = shared.registry.as_deref().map(|r| r.metrics());
    let trace = live_trace_stats(shared);
    let log = live_log_stats(shared);
    let text = prometheus_text(&gateway, &streaming, registry.as_ref(), trace, log.as_ref());
    Reply::new(200, "text/plain; version=0.0.4", text.into_bytes())
}

/// `GET /v1/stats` — the full windowed telemetry snapshot as JSON (see
/// [`crate::stats`] for the schema).
fn stats(call: &Call, hub: &TelemetryHub) -> Reply {
    Reply::json(200, render_live_stats(call.shared, hub))
}

/// Renders the full `/v1/stats` snapshot body — shared between the route
/// handler and the incident report's `stats` section, so a post-mortem
/// snapshot always matches the live schema.
fn render_live_stats(shared: &Shared, hub: &TelemetryHub) -> Vec<u8> {
    let streaming = shared.server.metrics();
    let gateway = shared.recorder().summarize();
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

/// `GET /dashboard` — one self-contained HTML page (no external scripts,
/// styles or fonts — it must render on an air-gapped box) that polls
/// `/v1/stats` and draws per-model tiles, sparklines, SLO state and the
/// degradation ladder.
fn dashboard(_: &Call, _: &TelemetryHub) -> Reply {
    let page = include_str!("dashboard.html").as_bytes().to_vec();
    Reply::new(200, "text/html; charset=utf-8", page)
}

/// `GET /v1/trace/<id>` — parses the hex trace id from the path and
/// returns the recorded span tree as JSON. `404` when the id is unknown
/// or the trace was evicted from the bounded collector; `400` for a
/// malformed id.
fn trace(call: &Call, collector: &TraceCollector) -> Reply {
    let Some(trace) = TraceId::parse_hex(call.tail) else {
        let message = format!("{:?} is not a trace id (up to 16 hex digits)", call.tail);
        return Reply::error(400, message);
    };
    let spans = collector.trace(trace);
    if spans.is_empty() {
        let message = format!("no spans recorded for trace {trace}; it may have been evicted");
        return Reply::error(404, message);
    }
    Reply::json(200, render_trace(trace, &spans))
}

/// `GET /v1/logs` — the flight recorder's retained events as JSON,
/// optionally filtered by `?level=<debug|info|warn|error>` (at-least) and
/// `?target=<prefix>`. Each event uses the same schema as the JSON-lines
/// sink. `400` for an unknown level.
fn logs(call: &Call, collector: &LogCollector) -> Reply {
    let mut level = None;
    let mut target = None;
    if let Some((_, query)) = call.request.target.split_once('?') {
        for pair in query.split('&') {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            match key {
                "level" => match Level::parse(value) {
                    Some(parsed) => level = Some(parsed),
                    None => {
                        return Reply::error(
                            400,
                            format!("{value:?} is not a log level (debug|info|warn|error)"),
                        )
                    }
                },
                "target" => target = Some(value.to_string()),
                _ => {} // unknown query keys are ignored, not rejected
            }
        }
    }
    // `render_line` emits one self-contained JSON object per event — the
    // exact sink schema — so the array embeds them verbatim.
    let events = collector.recent_filtered(level, target.as_deref());
    let events: Vec<String> = events
        .iter()
        .map(|event| snn_log::render_line(event).trim_end().to_owned())
        .collect();
    let body = format!(
        "{{\"events\":[{}],\"recorded\":{},\"dropped\":{}}}",
        events.join(","),
        collector.events_recorded_total(),
        collector.events_dropped()
    );
    Reply::json(200, body.into_bytes())
}

/// `GET /v1/incidents` — every incident report id on disk (oldest first —
/// ids sort chronologically) plus cumulative counters.
fn incidents(_: &Call, recorder: &IncidentRecorder) -> Reply {
    let ids: Vec<String> = recorder
        .list()
        .iter()
        .map(|id| format!("\"{}\"", snn_log::json_escape(id)))
        .collect();
    let body = format!(
        "{{\"incidents\":[{}],\"written\":{},\"coalesced\":{}}}",
        ids.join(","),
        recorder.written(),
        recorder.coalesced()
    );
    Reply::json(200, body.into_bytes())
}

/// `GET /v1/incidents/<id>` — one incident report, verbatim. `404` for an
/// unknown (or malformed — ids never contain separators) id.
fn incident(call: &Call, recorder: &IncidentRecorder) -> Reply {
    match recorder.read(call.tail) {
        Some(bytes) => Reply::json(200, bytes),
        None => Reply::error(404, format!("no incident report named {:?}", call.tail)),
    }
}

/// The one inference handler. It resolves its target first: the gateway's
/// own server and [`GatewayConfig::input_dims`] for `POST /v1/infer`
/// (`registry` is `None`), or the registry entry the tail names for
/// `POST /v1/models/<name[@version]>/infer`, lazily loaded and compiled
/// (`registry.load` / `registry.compile` spans under the root when
/// traced). The handle is held across the whole request, so LRU eviction
/// can never tear down an entry with this request in flight.
///
/// Then one body: one-pass JSON decode → geometry check against the
/// target's dims → [`StreamingServer::infer_blocking`] (this thread runs
/// the batch when an executor permit is free, else a worker does within
/// the handler timeout) → one-pass JSON response. Queue full and brownout
/// → 429, shutdown → 503, handler timeout → 504. When traced, the
/// request's spans hang under its root and its [`TraceTarget`] rides into
/// the runtime, so queue, flush and execution spans join the same tree.
fn infer(call: &Call, registry: Option<&ModelRegistry>) -> Reply {
    let shared = call.shared;
    let handle = registry.map(|r| r.get_or_load_traced(call.tail, call.parent()));
    let handle = match handle.transpose() {
        Ok(handle) => handle,
        Err(e) => return registry_error(call, &e),
    };
    let (server, expected_dims) = match &handle {
        Some(handle) => (&**handle.server(), handle.input_dims()),
        None => (&*shared.server, &shared.input_dims[..]),
    };
    let request = call.request;
    let handler_start = Instant::now();
    let trace_id = call.trace.as_ref().map(|&(_, trace, _)| trace);
    call.span("http.parse", call.received, handler_start, || {
        vec![("body_bytes", request.body.len().into())]
    });
    let decoded = (|| {
        let wire = InferRequest::decode(&request.body)?;
        wire.validate(expected_dims)?;
        let options = wire.submit_options()?;
        let pixels = wire.pixels.len();
        let image = Tensor::from_vec(wire.pixels, &wire.dims).map_err(|e| e.to_string())?;
        Ok::<_, String>((image, options, pixels))
    })();
    let (image, mut options, pixels) = match decoded {
        Ok(decoded) => decoded,
        Err(msg) => return Reply::error(400, msg),
    };
    // Clamp untrusted deadlines to HALF the handler timeout: the handler
    // gives up (504) at handler_timeout, so batching may consume at most
    // half the budget, leaving the rest for queueing and execution. An
    // unclamped deadline would park in the EDF window for a client-chosen
    // duration, stalling every request sharing it (and, under tight
    // max_pending, wedging admission) — and a clamp at the full timeout
    // would race the 504 by design.
    let timeout = shared.handler_timeout;
    options.deadline = options.deadline.map(|d| d.min(timeout / 2));
    call.span("request.decode", handler_start, Instant::now(), || {
        vec![("pixels", pixels.into())]
    });
    if let Some(target) = call.parent() {
        options = options.traced(target);
    }
    let submitted = Instant::now();
    let outcome = server.infer_blocking(image, options, timeout);
    let answered = Instant::now();
    if let Ok(waited) = &outcome {
        // Admission is an instant inside the blocking call; the wait spans
        // the rest of it — the batch executing on this thread, or the wait
        // for a worker's answer.
        call.span("infer.submit", submitted, submitted, Vec::new);
        if let Ok(response) = waited {
            call.span("ticket.wait", submitted, answered, || match response {
                Some(response) => vec![("batch_size", response.batch_size.into())],
                None => vec![],
            });
        }
    }
    let response = match outcome {
        Ok(Ok(Some(response))) => response,
        Ok(Ok(None)) => {
            let detail = format!("ticket wait exceeded {timeout:?}");
            return call.fail(
                504,
                &detail,
                format!("inference did not complete within {timeout:?}"),
            );
        }
        Ok(Err(e)) => return call.fail(500, &e.to_string(), e.to_string()),
        Err(SubmitError::QueueFull { max_pending }) => {
            let detail = format!("queue full at {max_pending} admitted");
            let message =
                format!("queue full: {max_pending} requests already admitted; retry with backoff");
            return call.fail(429, &detail, message);
        }
        Err(SubmitError::Brownout {
            priority,
            shed_below_priority,
        }) => {
            // Load shedding is backpressure, same wire shape as a full
            // queue: the client should back off and retry (or escalate
            // its priority if it genuinely is latency-critical).
            let detail = format!("brownout shed priority {priority} (below {shed_below_priority})");
            let message = format!(
                "brownout: shedding priority {priority} (below {shed_below_priority}) \
                 while the pending queue is above its high-water mark; retry with backoff"
            );
            return call.fail(429, &detail, message);
        }
        // A rejected submit during server teardown is unavailability, not
        // a client error.
        Err(SubmitError::Rejected(e)) if server.is_shut_down() => {
            return call.fail(503, &e.to_string(), e.to_string())
        }
        Err(SubmitError::Rejected(e)) => return Reply::error(400, e.to_string()),
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
            let message = format!("response serialization failed: {e}");
            return call.fail(500, &message, message.clone());
        }
    };
    call.span("http.respond", answered, Instant::now(), || {
        vec![("body_bytes", body.len().into())]
    });
    Reply::json(200, body)
}

/// Maps a registry failure onto the wire, logging the server's own: a
/// model the catalog has never heard of is the client's mistake (`404`);
/// an artifact or compile failure is the server's (`500`); an open circuit
/// breaker is temporary unavailability (`503`) with a `Retry-After` telling
/// the client exactly how long the breaker will keep rejecting.
fn registry_error(call: &Call, e: &RegistryError) -> Reply {
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
    if status >= 500 {
        call.log_failure(status, &e.to_string());
    }
    Reply {
        retry_after,
        ..Reply::error(status, e.to_string())
    }
}

/// `GET /v1/models` — the registry catalog with residency state.
fn models(_: &Call, registry: &ModelRegistry) -> Reply {
    let body = ModelListBody {
        models: registry.list(),
    };
    match serde_json::to_string(&body) {
        Ok(body) => Reply::json(200, body.into_bytes()),
        Err(e) => Reply::error(500, format!("model list serialization failed: {e}")),
    }
}

/// `POST /v1/models/<name>/swap` — parses `{"version": ...}` and
/// atomically repoints the name's active version (a `registry.swap` span
/// under the request's root when traced). In-flight tickets complete
/// against the old entry; new bare-`name` submissions land on the new one.
/// Returns the [`snn_runtime::SwapReport`] as JSON.
fn swap(call: &Call, registry: &ModelRegistry) -> Reply {
    let Ok(text) = std::str::from_utf8(&call.request.body) else {
        return Reply::error(400, "request body is not valid UTF-8");
    };
    let wire: SwapRequest = match serde_json::from_str(text) {
        Ok(wire) => wire,
        Err(e) => return Reply::error(400, format!("bad JSON: {e}")),
    };
    match registry.swap(call.tail, &wire.version, call.parent()) {
        Ok(report) => match serde_json::to_string(&report) {
            Ok(body) => Reply::json(200, body.into_bytes()),
            Err(e) => Reply::error(500, format!("swap report serialization failed: {e}")),
        },
        Err(e) => registry_error(call, &e),
    }
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

    /// A dense 8 → 4 → 3 model over `[1, 2, 4]` samples.
    fn dense_model(seed: u64) -> ttfs_core::SnnModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Sequential::new(vec![
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(8, 4, &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::Dense(DenseLayer::new(4, 3, &mut rng)),
        ]);
        convert(&net, Base2Kernel::paper_default(), 24).unwrap()
    }

    /// A gateway with every subsystem on: a traced default server, a
    /// registry serving `alpha@1` from `dir`, telemetry, logging and
    /// incident capture under `dir/incidents`.
    fn full_gateway(dir: &std::path::Path) -> (Gateway, Arc<StreamingServer>, Arc<ModelRegistry>) {
        let dims = [1usize, 2, 4];
        let artifact = snn_runtime::ModelArtifact::build(
            "alpha",
            "1",
            dense_model(5),
            &dims,
            snn_runtime::BackendHint::Csr,
        )
        .unwrap();
        artifact.save(dir.join("alpha@1.snna")).unwrap();
        let registry =
            Arc::new(ModelRegistry::open(dir, snn_runtime::RegistryConfig::default()).unwrap());
        let server = Arc::new(
            BackendChoice::Csr
                .serve_streaming_traced(
                    Arc::new(dense_model(3)),
                    &dims,
                    snn_runtime::StreamingConfig::default(),
                    Arc::new(TraceCollector::new(0)),
                )
                .unwrap(),
        );
        let gateway = Gateway::start_with_registry(
            Arc::clone(&server),
            Arc::clone(&registry),
            GatewayConfig {
                workers: 2,
                incidents_dir: Some(dir.join("incidents")),
                ..GatewayConfig::for_dims(&dims)
            },
        )
        .unwrap();
        (gateway, server, registry)
    }

    /// One exchange on a raw keep-alive socket: the response's status, its
    /// head (status line and headers, verbatim) and its body.
    fn exchange(
        stream: &mut TcpStream,
        method: &str,
        path: &str,
        body: &str,
    ) -> (u16, String, Vec<u8>) {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).unwrap();
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        let status = head.get(9..12).and_then(|s| s.parse().ok()).unwrap();
        let length = head
            .lines()
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .and_then(|n| n.parse().ok())
            .unwrap();
        let mut body = vec![0; length];
        stream.read_exact(&mut body).unwrap();
        (status, head, body)
    }

    /// RFC 9110 §15.5.6: a `405` lists the methods the path does allow.
    #[test]
    fn a_wrong_method_gets_405_with_the_allowed_methods() {
        let (mut gateway, server) = small_gateway();
        let mut stream = TcpStream::connect(gateway.local_addr()).unwrap();
        let (status, head, _) = exchange(&mut stream, "GET", "/v1/infer", "");
        assert_eq!(status, 405, "{head}");
        assert!(head.contains("\r\nAllow: POST\r\n"), "{head}");
        let (status, head, _) = exchange(&mut stream, "POST", "/metrics", "{}");
        assert_eq!(status, 405, "{head}");
        assert!(head.contains("\r\nAllow: GET\r\n"), "{head}");
        let (status, head, _) = exchange(&mut stream, "GET", "/nope", "");
        assert_eq!(status, 404, "{head}");
        assert!(!head.contains("Allow"), "only a 405 lists methods: {head}");
        gateway.shutdown();
        server.shutdown();
    }

    /// Walks [`ROUTES`]: every row answers its own method with neither `404`
    /// nor `405`, every other method with `405` and the row's `Allow`, and
    /// its label shows in `/metrics` once hit. Then the edge cases the
    /// patterns draw, and the drain rule row by row.
    #[test]
    fn every_route_row_answers_its_method_and_405s_the_others() {
        let dir = std::env::temp_dir().join(format!("snn_gateway_routes_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (mut gateway, server, registry) = full_gateway(&dir);
        let incident = gateway
            .incidents()
            .unwrap()
            .record("walk", "a report to fetch", None)
            .unwrap();
        let example = |row: &Route| match row.pattern {
            Pattern::Exact(path) => path.to_string(),
            Pattern::Under("/v1/trace/") => "/v1/trace/not-hex".to_string(),
            Pattern::Under("/v1/incidents/") => format!("/v1/incidents/{incident}"),
            Pattern::Under(prefix) => panic!("no example tail for {prefix}"),
            Pattern::Around(prefix, suffix) => format!("{prefix}alpha{suffix}"),
        };
        let mut stream = TcpStream::connect(gateway.local_addr()).unwrap();
        for row in ROUTES {
            let path = example(row);
            for method in ["GET", "POST", "PUT", "DELETE"] {
                let (status, head, _) = exchange(&mut stream, method, &path, "");
                if method == row.method {
                    assert!(!matches!(status, 404 | 405), "{method} {path}: {head}");
                } else {
                    assert_eq!(status, 405, "{method} {path}: {head}");
                    let allow = format!("\r\nAllow: {}\r\n", row.method);
                    assert!(head.contains(&allow), "{method} {path}: {head}");
                }
            }
            let (_, _, scrape) = exchange(&mut stream, "GET", "/metrics", "");
            let series = format!(
                "snn_gateway_route_requests_total{{route=\"{}\"}}",
                row.label
            );
            let scrape = String::from_utf8(scrape).unwrap();
            assert!(scrape.contains(&series), "{path}: no {series}");
        }

        let pixels = r#"{"dims":[1,2,4],"pixels":[0.1,0.9,0.4,0.3,0.7,0.2,0.6,0.5]}"#;
        for (method, path, body, expected) in [
            // The empty id is parsed (and refused), not unrouted.
            ("GET", "/v1/trace/", "", 400),
            ("POST", "/v1/models//infer", pixels, 404),
            ("POST", "/v1/models//swap", r#"{"version":"1"}"#, 404),
            ("POST", "/v1/models/x/other", "", 404),
            ("POST", "/v1/infer?x=1", pixels, 200),
            ("GET", "/v1/infer?x=1", "", 405),
        ] {
            let (status, head, _) = exchange(&mut stream, method, path, body);
            assert_eq!(status, expected, "{method} {path}: {head}");
        }

        gateway.begin_drain();
        for row in ROUTES {
            let path = example(row);
            let mut stream = TcpStream::connect(gateway.local_addr()).unwrap();
            let (status, head, _) = exchange(&mut stream, row.method, &path, "");
            match path.as_str() {
                "/healthz" => assert_eq!(status, 200, "{head}"),
                "/readyz" => assert_eq!(status, 503, "{head}"),
                _ => {
                    assert_eq!(status, 503, "{path}: {head}");
                    assert!(head.contains("\r\nRetry-After: 1\r\n"), "{path}: {head}");
                }
            }
        }
        gateway.shutdown();
        server.shutdown();
        registry.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
