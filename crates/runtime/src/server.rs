//! The serving front-end, [`StreamingServer`]: requests arrive one at a
//! time into a pending window kept in EDF order ([`DeadlineBatcher`]), and
//! whoever executes takes batches straight from that window — one request
//! if one is pending, up to `max_batch` if a backlog built up while every
//! executor was busy. Who executes depends on how the request came in:
//!
//! * [`StreamingServer::submit`] / [`submit_with`](StreamingServer::submit_with)
//!   return a [`Ticket`] at once and wake one of the server's worker
//!   threads, which takes and executes the batch.
//! * [`StreamingServer::infer_blocking`] is for a caller that would only
//!   block on the ticket anyway (the gateway's connection thread). When an
//!   executor permit is free, the caller takes the batch and executes it
//!   on its own thread, with no hand-off to a worker and none back; when
//!   none is free, it wakes a worker and waits on its ticket.
//!
//! Either way at most `threads` batches execute at once: workers and
//! blocking callers share one set of permits. No thread sits between a
//! request and its executor, and nothing sleeps on a timer. A closed batch
//! needs no server: it is one [`InferenceBackend::run_batch`] call.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snn_sim::RunStats;
use snn_telemetry::{Labels, TelemetryHub};
use snn_tensor::Tensor;
use snn_trace::{push_context, TraceCollector, TraceTarget};
use ttfs_core::{ConvertError, SnnModel};

use crate::batcher::{
    BrownoutConfig, DeadlineBatcher, FlushReason, PendingRequest, StreamingConfig, SubmitError,
    SubmitOptions, Ticket,
};
use crate::energy::EnergyPricer;
use crate::faults::{FaultInjector, FaultPoint};
use crate::metrics::{LogSink, StreamingMetrics, StreamingRecorder};
use crate::{InferenceBackend, StreamedResponse};

/// `threads` resolved to a worker count: itself when nonzero, otherwise
/// one per available core.
fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
}

/// How far past its deadline a request's batch may start executing before
/// the request counts as a deadline miss.
///
/// Nothing in the server waits for a deadline, so what separates a
/// request's arrival from its `exec_start` is either one condvar hand-off
/// to an idle worker or genuine backlog, and only the second is a miss.
/// The hand-off is the non-blocking path's
/// ([`submit`](StreamingServer::submit)); a
/// [`infer_blocking`](StreamingServer::infer_blocking) caller that finds a
/// permit free starts its batch on its own thread with no hand-off at all.
/// The hand-off was measured on the 2-vCPU box this repo is developed on,
/// with a `max_delay: ZERO` server (every deadline is the arrival instant,
/// so a grace below the hand-off would count every request), 50 000
/// sequential requests per run: p50 1.5–21 µs, p99 12–105 µs, p99.9
/// 25–270 µs, and on a quiet box a maximum of 0.94 ms and zero misses at
/// 1 ms. 1 ms is the smallest round constant above that; in a noisy spell
/// 14 of 50 000 hand-offs stalled past it (up to 46 ms) — time the request
/// really did lose, which no constant should hide. Backlog behind a
/// VGG-16 batch (≈ 1 ms per image) lands beyond the grace.
/// `deadline_miss_counts_backlog_not_the_idle_hand_off` in
/// `tests/streaming.rs` pins both sides.
pub const DEADLINE_MISS_GRACE: Duration = Duration::from_millis(1);

/// Locks `mutex`, recovering the guard if a panic poisoned it. Every
/// mutex in this module guards plain data (the pending window, recorders,
/// handles) with no multi-step invariants, so a panic under one of them
/// must not wedge serving, shutdown or `/metrics` — observability has to
/// survive exactly the situations it exists for.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Streaming inference front-end: one-at-a-time submission,
/// work-conserving EDF batching, per-request [`Ticket`] delivery.
///
/// Requests admitted by [`submit`](Self::submit) enter the
/// [`DeadlineBatcher`]'s pending window and wake one worker. Each of the
/// server's [`threads`](Self::threads) workers loops *take a batch,
/// execute it*, sleeping only while there is nothing it may take: a
/// request that arrives while an executor is idle executes at once, and
/// what arrives while all of them are busy is taken together — up to
/// [`max_batch`](StreamingConfig::max_batch), earliest deadline first —
/// by the first executor to free up. A caller of
/// [`infer_blocking`](Self::infer_blocking) is an executor too: with a
/// permit free it takes the batch on its own thread instead of waking a
/// worker, and `threads` caps the batches executing at once, whoever runs
/// them. A request's deadline (plain `submit`
/// inherits [`max_delay`](StreamingConfig::max_delay);
/// [`submit_with`](Self::submit_with) carries a per-request
/// [`SubmitOptions`]) orders the backlog and draws the deadline-miss
/// line; it never holds a request back. Because every backend processes
/// batch samples independently, streamed logits are bit-identical to one
/// closed [`run_batch`](InferenceBackend::run_batch) over the same images,
/// no matter how arrivals interleave into batches (enforced by property
/// test in `tests/runtime_equivalence.rs`).
///
/// [`shutdown`](Self::shutdown) (also run on drop) is graceful: it closes
/// admission, lets the workers drain the window, joins them and waits for
/// blocking callers to finish the batches they hold — no admitted ticket
/// is left unresolved.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use rand::SeedableRng;
/// use snn_nn::{DenseLayer, Flatten, Layer, Sequential};
/// use snn_runtime::{CsrEngine, StreamingConfig, StreamingServer};
/// use snn_tensor::Tensor;
/// use ttfs_core::{convert, Base2Kernel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = Sequential::new(vec![
///     Layer::Flatten(Flatten::new()),
///     Layer::Dense(DenseLayer::new(9, 2, &mut rng)),
/// ]);
/// let model = convert(&net, Base2Kernel::paper_default(), 16)?;
/// let engine = Arc::new(CsrEngine::compile(&model, &[1, 3, 3])?);
/// let server = StreamingServer::new(
///     engine,
///     StreamingConfig {
///         threads: 2,
///         max_batch: 4,
///         max_delay: Duration::from_millis(1),
///         ..StreamingConfig::default()
///     },
/// );
///
/// // Requests arrive one at a time; each gets a ticket.
/// let tickets: Vec<_> = (0..3)
///     .map(|_| server.submit(&Tensor::full(&[1, 3, 3], 0.5)))
///     .collect::<Result<_, _>>()?;
/// for ticket in tickets {
///     let response = ticket.wait()?;
///     assert_eq!(response.logits.dims(), &[2]);
///     assert!(response.batch_size >= 1);
/// }
///
/// let metrics = server.shutdown();
/// assert_eq!(metrics.requests, 3);
/// # Ok(())
/// # }
/// ```
pub struct StreamingServer {
    stream: Arc<Stream>,
    /// Emptied (and joined) by the first [`shutdown`](Self::shutdown).
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
    threads: usize,
    max_batch: usize,
    max_delay: Duration,
    max_pending: usize,
    /// Priority-brownout policy; `None` = disabled.
    brownout: Option<BrownoutConfig>,
    /// Hysteresis state: whether brownout is currently engaged.
    brownout_engaged: AtomicBool,
}

/// What submitters, callers and workers share.
struct Stream {
    backend: Arc<dyn InferenceBackend>,
    /// The pending window and the executor permits. Submitters admit under
    /// this lock, executors take under it, and its closed flag is what
    /// makes a submit unable to race a shutdown.
    window: Mutex<Window>,
    /// Signalled once per non-blocking admission, once by a blocking
    /// caller refused a permit, by a caller that returns its permit with
    /// work still pending, and — to everyone — on close and on every
    /// permit returned after it. Workers wait on it only while they cannot
    /// take (window empty, or every permit held), so a wake-up is never
    /// lost: whoever finds nothing to take is holding the lock that
    /// admitting work or returning a permit needs. Once closed, every
    /// permit returned wakes every waiter, because any one of them — a
    /// worker that may now take or exit, or
    /// [`StreamingServer::shutdown`] waiting out caller-held permits — may
    /// be the one that was waiting for it.
    work: Condvar,
    /// Executor permits: at most this many batches execute at once,
    /// whoever runs them.
    threads: usize,
    recorder: Arc<Mutex<StreamingRecorder>>,
    /// For backends without compiled dims: pinned by the first
    /// submission; later submissions must match so any taken batch is
    /// rectangular.
    sample_dims: Mutex<Option<Vec<usize>>>,
    /// Admitted-but-unresolved requests (pending + executing); bounded by
    /// `max_pending` when nonzero.
    in_flight: AtomicUsize,
    /// Span sink the executors record into; `None` on an untraced server
    /// ([`StreamingServer::new`]), where the runtime records nothing
    /// regardless of [`SubmitOptions::trace`].
    trace: Option<Arc<TraceCollector>>,
}

/// Where a submission's reply arrives.
type ReplyReceiver = Receiver<Result<StreamedResponse, ConvertError>>;

/// The pending window plus the count of batches executing right now —
/// one lock, so taking a batch and claiming the permit to run it are one
/// step.
struct Window {
    batcher: DeadlineBatcher<PendingRequest>,
    /// Batches executing, by workers and blocking callers together; never
    /// above [`Stream::threads`].
    executing: usize,
}

/// Who executed a batch: recorded as the `executor` attribute of its
/// `batch.flush` span.
#[derive(Debug, Clone, Copy)]
enum Executor {
    /// A [`StreamingServer::infer_blocking`] caller, on its own thread.
    Caller,
    /// One of the server's worker threads.
    Worker,
}

impl Executor {
    fn as_str(self) -> &'static str {
        match self {
            Self::Caller => "caller",
            Self::Worker => "worker",
        }
    }
}

/// A blocking caller's executor permit. Returned on drop — so also when
/// the caller's batch unwinds — and a caller returning it with work still
/// pending wakes a worker, so an admitted request is never stranded
/// behind a permit nobody is using.
struct CallerPermit<'a>(&'a Stream);

impl Drop for CallerPermit<'_> {
    fn drop(&mut self) {
        self.0.release_permit();
    }
}

impl StreamingServer {
    /// Builds a streaming server around `backend` and starts its worker
    /// threads.
    pub fn new(backend: Arc<dyn InferenceBackend>, config: StreamingConfig) -> Self {
        Self::build(backend, config, None)
    }

    /// Like [`new`](Self::new), but with a [`TraceCollector`] the
    /// executors record runtime spans into (`queue.wait`, `batch.flush`
    /// with its reason and executor, `batch.exec` and the per-stage engine
    /// spans underneath) for
    /// every submission carrying a [`SubmitOptions::trace`] target. A
    /// disabled collector costs one relaxed atomic load per recording
    /// site; logits are bit-identical either way (tracing never touches
    /// the accumulation path).
    pub fn new_traced(
        backend: Arc<dyn InferenceBackend>,
        config: StreamingConfig,
        collector: Arc<TraceCollector>,
    ) -> Self {
        Self::build(backend, config, Some(collector))
    }

    fn build(
        backend: Arc<dyn InferenceBackend>,
        config: StreamingConfig,
        trace: Option<Arc<TraceCollector>>,
    ) -> Self {
        let threads = resolve_threads(config.threads);
        let max_batch = config.max_batch.max(1);
        let stream = Arc::new(Stream {
            backend,
            window: Mutex::new(Window {
                batcher: DeadlineBatcher::new(max_batch),
                executing: 0,
            }),
            work: Condvar::new(),
            threads,
            recorder: Arc::new(Mutex::new(StreamingRecorder::new())),
            sample_dims: Mutex::new(None),
            in_flight: AtomicUsize::new(0),
            trace,
        });
        let workers = (0..threads)
            .map(|i| {
                let stream = Arc::clone(&stream);
                std::thread::Builder::new()
                    .name(format!("snn-runtime-worker-{i}"))
                    .spawn(move || stream.work_until_closed())
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            stream,
            workers: Mutex::new(workers),
            next_id: AtomicU64::new(0),
            threads,
            max_batch,
            max_delay: config.max_delay,
            max_pending: config.max_pending,
            brownout: config.brownout,
            brownout_engaged: AtomicBool::new(false),
        }
    }

    /// The span sink this server records runtime spans into, if it was
    /// built with [`new_traced`](Self::new_traced).
    pub fn trace_collector(&self) -> Option<&Arc<TraceCollector>> {
        self.stream.trace.as_ref()
    }

    /// The wrapped backend's identifier.
    pub fn backend_name(&self) -> &'static str {
        self.stream.backend.name()
    }

    /// The converted model the wrapped backend executes (a network
    /// front-end uses this to validate request geometry before admitting
    /// traffic into the stream).
    pub fn model(&self) -> &SnnModel {
        self.stream.backend.model()
    }

    /// The per-sample dims this server's backend was compiled for, when
    /// fixed ([`InferenceBackend::input_dims`]).
    pub fn input_dims(&self) -> Option<&[usize]> {
        self.stream.backend.input_dims()
    }

    /// Worker thread count — every thread the server owns, and the most
    /// batches that execute at once (workers and blocking callers
    /// together).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The most requests one worker takes from the backlog at once.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The backpressure bound (0 = unbounded).
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Admitted-but-unresolved requests right now (pending window +
    /// executing).
    pub fn pending(&self) -> usize {
        self.stream.in_flight.load(Ordering::Relaxed)
    }

    /// Requests in the pending window right now: admitted, not yet taken
    /// by an executor.
    pub fn queued(&self) -> usize {
        lock(&self.stream.window).batcher.len()
    }

    /// Whether [`shutdown`](Self::shutdown) has begun: submissions are
    /// closed and every future `submit` returns
    /// [`SubmitError::Rejected`]. A front-end uses this to tell
    /// unavailability (503) apart from a malformed request (400).
    pub fn is_shut_down(&self) -> bool {
        lock(&self.stream.window).batcher.is_closed()
    }

    /// Whether priority brownout is currently engaged (admitted count
    /// crossed the high-water mark and has not yet fallen back to the
    /// low-water mark).
    pub fn brownout_engaged(&self) -> bool {
        self.brownout.is_some() && self.brownout_engaged.load(Ordering::Relaxed)
    }

    /// Submits one image (per-sample dims, e.g. `[C, H, W]`) with default
    /// [`SubmitOptions`] and returns the [`Ticket`] its result will arrive
    /// on.
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit_with`](Self::submit_with).
    pub fn submit(&self, image: &Tensor) -> Result<Ticket, SubmitError> {
        self.submit_with(image, SubmitOptions::default())
    }

    /// Submits one image with explicit per-request scheduling options: a
    /// deadline (its place in the EDF order workers take the backlog in)
    /// and a tie-break priority.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::QueueFull`] when
    /// [`max_pending`](StreamingConfig::max_pending) requests are already
    /// admitted and unresolved (backpressure: shed now rather than queue
    /// into unbounded latency; the shed is counted in
    /// [`StreamingMetrics::shed_requests`]), or [`SubmitError::Rejected`]
    /// if the server has shut down, `image` is empty, or its dims differ
    /// from the backend's compiled geometry (for shape-agnostic backends:
    /// from the first submission's dims).
    pub fn submit_with(
        &self,
        image: &Tensor,
        options: SubmitOptions,
    ) -> Result<Ticket, SubmitError> {
        let (window, rx) = self.admit(Cow::Borrowed(image), options)?;
        drop(window);
        // Outside the lock, so the woken worker does not immediately block
        // on it. If every worker is busy nobody hears this — and nobody
        // needs to: each looks at the window again before it sleeps.
        self.stream.work.notify_one();
        Ok(self.ticket(rx))
    }

    /// Runs one image to completion for a caller that is going to block on
    /// the answer anyway — the gateway's connection thread. Admission is
    /// exactly [`submit_with`](Self::submit_with)'s. When an executor
    /// permit is free (fewer than [`threads`](Self::threads) batches
    /// executing), the calling thread takes the EDF batch itself and
    /// executes it — no worker is woken, nothing crosses threads. It takes
    /// one batch, never more: if an earlier deadline kept its own request
    /// out of that batch, it returns the permit (waking a worker, since
    /// work is pending) and waits like a refused caller, so a stream of
    /// more urgent requests cannot keep it executing other clients'
    /// batches. When every permit is held, it wakes a worker and waits on
    /// its ticket. Either way `timeout`, counted from the call, bounds the
    /// wait as [`Ticket::wait_timeout`] does.
    ///
    /// The outer result is admission; the inner one is what
    /// [`Ticket::wait_timeout`] would have returned: the response, `None`
    /// if `timeout` passed first (the request still executes; its reply is
    /// discarded), or the batch's error.
    ///
    /// # Errors
    ///
    /// Same admission conditions as [`submit_with`](Self::submit_with).
    pub fn infer_blocking(
        &self,
        image: Tensor,
        options: SubmitOptions,
        timeout: Duration,
    ) -> Result<Result<Option<StreamedResponse>, ConvertError>, SubmitError> {
        let called = Instant::now();
        let stream = &*self.stream;
        let (mut window, rx) = self.admit(Cow::Owned(image), options)?;
        let mut ticket = self.ticket(rx);
        if window.executing < stream.threads {
            window.executing += 1;
            let permit = CallerPermit(stream);
            // Admitted under this same lock, so there is a batch to take.
            let taken = window.batcher.take(Instant::now());
            drop(window);
            if let Some((batch, reason)) = taken {
                // Same isolation as a worker: a panic outside the guarded
                // backend call fails this batch's tickets, not the caller.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    stream.execute(batch, reason, Executor::Caller)
                }));
            }
            drop(permit);
            if let Some(answer) = ticket.try_wait().transpose() {
                return Ok(answer.map(Some));
            }
        } else {
            drop(window);
            stream.work.notify_one();
        }
        Ok(ticket.wait_timeout(timeout.saturating_sub(called.elapsed())))
    }

    /// The ticket a submission's reply arrives on.
    fn ticket(&self, rx: ReplyReceiver) -> Ticket {
        Ticket::new(
            self.next_id.fetch_add(1, Ordering::Relaxed),
            rx,
            Some(Arc::clone(&self.stream.recorder)),
        )
    }

    /// Admission, shared by [`submit_with`](Self::submit_with) and
    /// [`infer_blocking`](Self::infer_blocking): sheds, brownout, the dims
    /// check, then the request joins the pending window. Returns the
    /// window still locked (the blocking path takes from it under the
    /// same lock) and the receiver the reply will arrive on. A borrowed
    /// image is copied only once it is admitted; an owned one moves.
    fn admit(
        &self,
        image: Cow<'_, Tensor>,
        options: SubmitOptions,
    ) -> Result<(MutexGuard<'_, Window>, ReplyReceiver), SubmitError> {
        let stream = &*self.stream;
        if image.dims().is_empty() || image.as_slice().is_empty() {
            return Err(SubmitError::Rejected(ConvertError::Structure(
                "streamed sample must be a non-empty per-sample tensor".into(),
            )));
        }
        // Backpressure admission: optimistically claim a slot, back out if
        // that overshot the bound (atomic, so concurrent submitters can
        // never jointly exceed it). Unbounded servers still count, so
        // `pending()` stays observable. This runs BEFORE the stream's
        // sample dims are pinned: a shed request must be side-effect free.
        let admitted = stream.in_flight.fetch_add(1, Ordering::AcqRel);
        let release_slot = || {
            stream.in_flight.fetch_sub(1, Ordering::AcqRel);
        };
        if self.max_pending > 0 && admitted >= self.max_pending {
            release_slot();
            lock(&stream.recorder).record_shed(options.priority);
            return Err(SubmitError::QueueFull {
                max_pending: self.max_pending,
            });
        }
        // Priority brownout: between the high- and low-water marks the
        // engaged bit carries hysteresis, so the shed decision cannot flap
        // per-request at the boundary. Engaged, low-priority traffic sheds
        // with a typed error while higher priorities ride on.
        if let Some(brownout) = &self.brownout {
            let engaged = if admitted >= brownout.high_water {
                if !self.brownout_engaged.swap(true, Ordering::Relaxed) {
                    self.on_brownout_transition(true, admitted);
                }
                true
            } else if admitted <= brownout.low_water {
                if self.brownout_engaged.swap(false, Ordering::Relaxed) {
                    self.on_brownout_transition(false, admitted);
                }
                false
            } else {
                self.brownout_engaged.load(Ordering::Relaxed)
            };
            if engaged && options.priority < brownout.shed_below_priority {
                release_slot();
                lock(&stream.recorder).record_brownout_shed(options.priority);
                return Err(SubmitError::Brownout {
                    priority: options.priority,
                    shed_below_priority: brownout.shed_below_priority,
                });
            }
        }
        // Validate geometry against the backend's compiled dims when it
        // has them — per entry, not per process, so two servers fronting
        // models of different dims coexist and a bad first submission
        // can't pin the stream to the wrong geometry. Shape-agnostic
        // backends fall back to first-submission pinning.
        if let Some(expected) = stream.backend.input_dims() {
            if expected != image.dims() {
                release_slot();
                return Err(SubmitError::Rejected(ConvertError::Structure(format!(
                    "streamed sample dims {:?} do not match the backend's compiled geometry {:?}",
                    image.dims(),
                    expected
                ))));
            }
        } else {
            let mut dims = lock(&stream.sample_dims);
            let expected = dims.get_or_insert_with(|| image.dims().to_vec());
            if expected != image.dims() {
                release_slot();
                return Err(SubmitError::Rejected(ConvertError::Structure(format!(
                    "streamed sample dims {:?} do not match the stream's dims {:?}",
                    image.dims(),
                    expected
                ))));
            }
        }
        let (reply, rx) = channel();
        let enqueued = Instant::now();
        let deadline = enqueued + options.deadline.unwrap_or(self.max_delay);
        let request = PendingRequest {
            image: match image {
                Cow::Borrowed(image) => image.as_slice().to_vec(),
                Cow::Owned(image) => image.into_vec(),
            },
            enqueued,
            deadline,
            // A trace target without a collector records nothing.
            trace: stream.trace.as_ref().and(options.trace),
            reply,
        };
        let mut window = lock(&stream.window);
        if window
            .batcher
            .admit(request, deadline, options.priority)
            .is_err()
        {
            drop(window);
            release_slot();
            return Err(SubmitError::Rejected(ConvertError::Structure(
                "streaming server is shut down; submissions are closed".into(),
            )));
        }
        Ok((window, rx))
    }

    /// Attaches windowed telemetry: lists the recorder's own cells in
    /// `hub` under `labels` (conventionally `model`, `version`,
    /// `backend`), so the hub's series and [`metrics`](Self::metrics)
    /// read the same cells (see
    /// [`StreamingRecorder::attach_telemetry`]). When the backend
    /// exposes fixed compiled geometry
    /// ([`InferenceBackend::input_dims`]), an [`EnergyPricer`] is built
    /// so every executed batch is priced on the `snn-hw` processor
    /// model: responses carry per-image
    /// [`energy_uj`](StreamedResponse::energy_uj), the per-model
    /// windowed `energy_uj` series fills in, and traced requests gain an
    /// `energy.price` span. Telemetry only ever reads timings and event
    /// counters, so logits stay bit-identical with or without it.
    pub fn attach_telemetry(&self, hub: Arc<TelemetryHub>, labels: Labels) {
        let backend = &self.stream.backend;
        let pricer = backend
            .input_dims()
            .and_then(|dims| EnergyPricer::new(backend.model(), dims).ok());
        lock(&self.stream.recorder).attach_telemetry(hub, labels, pricer);
    }

    /// Attaches structured logging: the workers' batch takes, failure
    /// isolation (batch retries, quarantines) and brownout transitions
    /// start emitting flight-recorder events — and incident snapshots,
    /// when the sink carries an
    /// [`IncidentRecorder`](snn_log::IncidentRecorder). Logging only
    /// ever reads timings and counters, so logits stay bit-identical
    /// with or without it.
    pub fn attach_logging(&self, sink: LogSink) {
        lock(&self.stream.recorder).set_log_sink(sink);
    }

    /// Logs (and, on engage, snapshots) a brownout hysteresis
    /// transition. Off the submit fast path: called only when the
    /// engaged bit actually flips.
    #[cold]
    fn on_brownout_transition(&self, engaged: bool, depth: usize) {
        let sink = lock(&self.stream.recorder).log_sink().cloned();
        let Some(sink) = sink else { return };
        if engaged {
            snn_log::warn!(
                sink.collector(),
                "runtime.brownout",
                { "depth": depth, "engaged": true },
                "brownout engaged: queue depth {depth} crossed the high-water mark"
            );
            // The recorder lock is released above: the incident snapshot
            // provider reads live stats through that same lock.
            sink.incident(
                "brownout_engage",
                &format!("queue depth {depth} crossed the brownout high-water mark"),
                None,
            );
        } else {
            snn_log::info!(
                sink.collector(),
                "runtime.brownout",
                { "depth": depth, "engaged": false },
                "brownout disengaged: queue depth {depth} fell to the low-water mark"
            );
        }
    }

    /// Snapshot of the streaming metrics accumulated so far.
    pub fn metrics(&self) -> StreamingMetrics {
        lock(&self.stream.recorder).summarize()
    }

    /// Gracefully shuts down: closes submissions, wakes every worker to
    /// drain the pending window in `max_batch`-sized EDF batches
    /// (resolving all outstanding tickets), joins them, waits for blocking
    /// callers still executing a batch to return their permits, and
    /// returns the final metrics — which therefore count every batch.
    /// Idempotent; also invoked by [`Drop`].
    pub fn shutdown(&self) -> StreamingMetrics {
        lock(&self.stream.window).batcher.close();
        self.stream.work.notify_all();
        let workers = std::mem::take(&mut *lock(&self.workers));
        for worker in workers {
            let _ = worker.join();
        }
        let mut window = lock(&self.stream.window);
        while window.executing > 0 {
            window = self
                .stream
                .work
                .wait(window)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(window);
        self.metrics()
    }
}

impl Drop for StreamingServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Releases a batch's backpressure slots on drop, so the release also
/// happens when executing the batch unwinds (a panic on the worker must
/// not wedge a bounded server by leaking admissions).
struct SlotRelease<'a> {
    in_flight: &'a AtomicUsize,
    slots: usize,
}

impl Drop for SlotRelease<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(self.slots, Ordering::AcqRel);
    }
}

impl Stream {
    /// Returns a blocking caller's permit. With work still pending one
    /// worker is woken to take it; once the window is closed every waiter
    /// is (see [`work`](Self::work)).
    fn release_permit(&self) {
        let mut window = lock(&self.window);
        window.executing -= 1;
        let pending = !window.batcher.is_empty();
        let closed = window.batcher.is_closed();
        drop(window);
        if closed {
            self.work.notify_all();
        } else if pending {
            self.work.notify_one();
        }
    }

    /// One worker thread: take a batch, execute it, repeat; sleep only
    /// while there is nothing it may take; exit once the window is closed
    /// and drained. A worker keeps its permit from batch to batch and
    /// returns it only when it finds the window empty, so a busy worker
    /// costs the permit count nothing.
    fn work_until_closed(&self) {
        let mut window = lock(&self.window);
        let mut holding = false;
        loop {
            if holding || window.executing < self.threads {
                if let Some((batch, reason)) = window.batcher.take(Instant::now()) {
                    if !holding {
                        window.executing += 1;
                        holding = true;
                    }
                    drop(window);
                    // The backend call is guarded on its own (see
                    // `run_batch_guarded`); this catches a panic anywhere
                    // else in the batch — its tickets then see a dropped
                    // channel — so the worker outlives it and later
                    // submissions are not stranded.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.execute(batch, reason, Executor::Worker)
                    }));
                    window = lock(&self.window);
                    continue;
                }
            }
            if holding {
                window.executing -= 1;
                holding = false;
                if window.batcher.is_closed() {
                    self.work.notify_all();
                }
            }
            if window.batcher.is_closed() && window.batcher.is_empty() {
                return;
            }
            window = self.work.wait(window).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// `[k, …sample dims]` for a batch of `k`: the backend's compiled
    /// dims, or the dims the first submission pinned.
    fn batch_dims(&self, k: usize) -> Vec<usize> {
        let mut dims = vec![k];
        match self.backend.input_dims() {
            Some(sample) => dims.extend_from_slice(sample),
            None => dims.extend_from_slice(lock(&self.sample_dims).as_deref().unwrap_or_default()),
        }
        dims
    }

    /// Runs one taken batch as a single `[k, …]` tensor and fans the
    /// per-row logits back out to each rider's ticket, recording the
    /// flush, queue-wait and execution spans and metrics.
    fn execute(&self, mut batch: Vec<PendingRequest>, reason: FlushReason, executor: Executor) {
        let k = batch.len();
        let _slot_release = SlotRelease {
            in_flight: &self.in_flight,
            slots: k,
        };
        let exec_start = Instant::now();
        let collector = self.trace.as_ref().filter(|c| c.is_enabled());
        // One pre-allocated `batch.exec` span id per traced rider.
        let exec_spans: Vec<(TraceTarget, u64)> = match collector {
            Some(c) => batch
                .iter()
                .filter_map(|r| r.trace)
                .map(|t| (t, c.next_span_id()))
                .collect(),
            None => Vec::new(),
        };
        if let Some(c) = collector {
            // Mark the take itself — an instantaneous span per traced
            // rider carrying what the worker found.
            for (target, _) in &exec_spans {
                c.record_span(
                    target.trace,
                    target.parent,
                    "batch.flush",
                    exec_start,
                    exec_start,
                    vec![
                        ("reason", reason.as_str().into()),
                        ("batch_size", k.into()),
                        ("executor", executor.as_str().into()),
                    ],
                );
            }
        }
        // A lone rider's image becomes the batch tensor as is.
        let data = if k == 1 {
            std::mem::take(&mut batch[0].image)
        } else {
            let mut data = Vec::with_capacity(k * batch[0].image.len());
            for request in &batch {
                data.extend_from_slice(&request.image);
            }
            data
        };
        let batch_dims = self.batch_dims(k);
        let images = match Tensor::from_vec(data, &batch_dims) {
            Ok(images) => images,
            Err(e) => {
                // Submission validated every rider's dims, so the shapes
                // agree; should they ever not, fail the riders, not the
                // worker.
                let e = ConvertError::Structure(e.to_string());
                for request in batch {
                    let _ = request.reply.send(Err(e.clone()));
                }
                return;
            }
        };
        // Hang an ambient context under the riders' `batch.exec` spans, so
        // per-stage engine spans fan out into every traced request's tree.
        let ctx = collector.filter(|_| !exec_spans.is_empty()).map(|c| {
            push_context(
                Arc::clone(c),
                exec_spans
                    .iter()
                    .map(|(t, exec_id)| TraceTarget {
                        trace: t.trace,
                        parent: *exec_id,
                    })
                    .collect(),
            )
        });
        let injector = FaultInjector::global();
        if injector.should(FaultPoint::BackendSlow) {
            std::thread::sleep(injector.slow_delay());
        }
        let outcome = run_batch_guarded(&self.backend, &images);
        drop(ctx);
        let exec_end = Instant::now();
        if let Some(c) = collector {
            for (target, exec_id) in &exec_spans {
                c.record_span_with_id(
                    *exec_id,
                    target.trace,
                    target.parent,
                    "batch.exec",
                    exec_start,
                    exec_end,
                    vec![
                        ("batch_size", k.into()),
                        ("backend", self.backend.name().into()),
                        ("ok", u64::from(matches!(outcome, Ok(Ok(_)))).into()),
                    ],
                );
            }
        }
        match outcome {
            Ok(Ok((logits, stats))) => {
                self.deliver(batch, &logits, &stats, exec_start, exec_end, reason)
            }
            Ok(Err(e)) => {
                for request in batch {
                    let _ = request.reply.send(Err(e.clone()));
                }
            }
            Err(()) => {
                // The batch panicked inside the backend. Blast-radius
                // isolation: re-run every rider individually once, so
                // innocents co-batched with a poison request still get
                // their answer; a request that panics again *solo* is the
                // poison — quarantine it with a typed error instead of
                // letting it take its batchmates (or the next batch it
                // would be retried into) down.
                lock(&self.recorder).record_batch_retry();
                let sample_len = images.len() / k;
                let mut solo_dims = batch_dims;
                solo_dims[0] = 1;
                for (i, request) in batch.into_iter().enumerate() {
                    let solo_start = Instant::now();
                    let row = images.as_slice()[i * sample_len..(i + 1) * sample_len].to_vec();
                    let solo_outcome = match Tensor::from_vec(row, &solo_dims) {
                        Err(e) => Ok(Err(ConvertError::Structure(e.to_string()))),
                        Ok(solo) => run_batch_guarded(&self.backend, &solo),
                    };
                    match solo_outcome {
                        Ok(Ok((logits, stats))) => self.deliver(
                            vec![request],
                            &logits,
                            &stats,
                            solo_start,
                            Instant::now(),
                            reason,
                        ),
                        Ok(Err(e)) => {
                            let _ = request.reply.send(Err(e));
                        }
                        Err(()) => self.quarantine(request),
                    }
                }
            }
        }
    }

    /// Books one successfully executed batch — its size, split of queue
    /// wait and execution, energy, deadline misses — and sends each rider
    /// its row of `logits`.
    fn deliver(
        &self,
        batch: Vec<PendingRequest>,
        logits: &Tensor,
        stats: &RunStats,
        exec_start: Instant,
        exec_end: Instant,
        reason: FlushReason,
    ) {
        let k = batch.len();
        let classes = logits.dims()[1];
        let exec_time = exec_end.duration_since(exec_start);
        let collector = self.trace.as_ref().filter(|c| c.is_enabled());
        // One lock for the whole batch, not one per request.
        let mut rec = lock(&self.recorder);
        rec.record_batch(k, exec_time, reason);
        // Priced once per executed batch (O(layers)), attributed per
        // image; 0.0 when no telemetry/pricer is attached.
        let energy_uj = rec.record_batch_energy(stats, k);
        for (i, request) in batch.into_iter().enumerate() {
            let row = Tensor::from_vec(
                logits.as_slice()[i * classes..(i + 1) * classes].to_vec(),
                &[classes],
            )
            .expect("row slice matches classes");
            let queue_wait = exec_start.saturating_duration_since(request.enqueued);
            let deadline_missed = exec_start > request.deadline + DEADLINE_MISS_GRACE;
            rec.record_request(request.enqueued.elapsed(), queue_wait, deadline_missed);
            // Record runtime spans BEFORE the reply lands: once the
            // submitter sees its response, its trace query must already
            // contain the whole runtime side.
            if let (Some(c), Some(target)) = (collector, request.trace) {
                c.record_span(
                    target.trace,
                    target.parent,
                    "queue.wait",
                    request.enqueued,
                    exec_start,
                    Vec::new(),
                );
                if energy_uj > 0.0 {
                    c.record_span(
                        target.trace,
                        target.parent,
                        "energy.price",
                        exec_end,
                        exec_end,
                        vec![("energy_uj", energy_uj.into())],
                    );
                }
            }
            let _ = request.reply.send(Ok(StreamedResponse {
                logits: row,
                batch_stats: stats.clone(),
                queue_wait,
                exec_time,
                batch_size: k,
                energy_uj,
            }));
        }
    }

    /// Fails the poison request — it panicked the backend again when run
    /// solo — with the typed quarantine error.
    fn quarantine(&self, request: PendingRequest) {
        let log_sink = {
            let mut rec = lock(&self.recorder);
            rec.record_quarantined();
            rec.log_sink().cloned()
        };
        // Outside the recorder lock: the incident snapshot provider reads
        // live stats through that same lock.
        if let Some(sink) = log_sink {
            sink.incident(
                "quarantine",
                "request quarantined after panicking solo on the isolation retry",
                request.trace.map(|t| t.trace),
            );
        }
        let _ = request.reply.send(Err(quarantined_error()));
    }
}

/// Runs the backend under `catch_unwind`, so one poison request cannot
/// unwind the worker and drop every co-batched ticket. `Err(())` means
/// the backend panicked (the payload is discarded — tickets receive the
/// typed quarantine error, not a panic string). Also the injection site
/// for [`FaultPoint::BackendPanic`].
fn run_batch_guarded(
    backend: &Arc<dyn InferenceBackend>,
    images: &Tensor,
) -> Result<Result<(Tensor, RunStats), ConvertError>, ()> {
    let inject = FaultInjector::global().should(FaultPoint::BackendPanic);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inject {
            panic!("injected backend panic");
        }
        backend.run_batch(images)
    }))
    .map_err(|_| ())
}

/// The typed error a quarantined request resolves with.
fn quarantined_error() -> ConvertError {
    ConvertError::Structure(
        "request quarantined: the backend panicked while executing it \
         (isolated after a batch retry)"
            .into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
    use ttfs_core::{convert, Base2Kernel, SnnModel};

    fn dense_model() -> SnnModel {
        let mut rng = StdRng::seed_from_u64(31);
        let net = Sequential::new(vec![
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(12, 8, &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::Dense(DenseLayer::new(8, 3, &mut rng)),
        ]);
        convert(&net, Base2Kernel::paper_default(), 24).unwrap()
    }

    /// Answers each row with its own first pixel, logs which thread ran
    /// every batch and what rode in it, and holds a batch carrying
    /// [`HELD`] until [`release`](Self::release).
    struct HeldEcho {
        model: SnnModel,
        held: Mutex<bool>,
        changed: Condvar,
        ran: Mutex<Vec<(std::thread::ThreadId, Vec<f32>)>>,
    }

    const HELD: f32 = 0.0;

    impl HeldEcho {
        fn release(&self) {
            *self.held.lock().unwrap() = false;
            self.changed.notify_all();
        }

        fn ran(&self) -> Vec<(std::thread::ThreadId, Vec<f32>)> {
            self.ran.lock().unwrap().clone()
        }
    }

    impl InferenceBackend for HeldEcho {
        fn name(&self) -> &'static str {
            "held-echo"
        }
        fn model(&self) -> &SnnModel {
            &self.model
        }
        fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
            let k = images.dims()[0];
            let sample_len = images.len() / k;
            let firsts: Vec<f32> = (0..k).map(|i| images.as_slice()[i * sample_len]).collect();
            if firsts.contains(&HELD) {
                let held = self.held.lock().unwrap();
                drop(self.changed.wait_while(held, |held| *held).unwrap());
            }
            self.ran
                .lock()
                .unwrap()
                .push((std::thread::current().id(), firsts.clone()));
            Ok((
                Tensor::from_vec(firsts, &[k, 1]).unwrap(),
                RunStats::default(),
            ))
        }
    }

    /// A blocking caller that finds a permit free while more urgent work
    /// is pending executes one batch of that work, then hands back and
    /// waits: it does not keep executing other clients' batches while its
    /// own request keeps losing in EDF order.
    #[test]
    fn a_caller_executes_at_most_one_batch_that_is_not_its_own() {
        let backend = Arc::new(HeldEcho {
            model: dense_model(),
            held: Mutex::new(true),
            changed: Condvar::new(),
            ran: Mutex::new(Vec::new()),
        });
        let server = StreamingServer::new(
            backend.clone(),
            StreamingConfig {
                threads: 1,
                max_batch: 1,
                max_delay: Duration::from_secs(30),
                ..StreamingConfig::default()
            },
        );
        let sample = |v: f32| Tensor::full(&[1, 3, 4], v);
        // The only worker parks inside a batch, holding the only permit.
        let parked = server.submit(&sample(HELD)).unwrap();
        while server.queued() > 0 {
            std::thread::yield_now();
        }
        let urgent = SubmitOptions {
            deadline: Some(Duration::ZERO),
            priority: u8::MAX,
            trace: None,
        };
        let backlog: Vec<_> = [1.0, 2.0, 3.0]
            .map(|v| server.submit_with(&sample(v), urgent).unwrap())
            .into();
        // Hand out a permit the parked worker cannot use: the state a
        // blocking caller meets when it wins the lock between a submit's
        // wake-up and the woken worker's take.
        lock(&server.stream.window).executing -= 1;
        let caller = std::thread::scope(|scope| {
            let relaxed = scope.spawn(|| {
                let answer = server.infer_blocking(
                    sample(9.0),
                    SubmitOptions::default(),
                    Duration::from_secs(30),
                );
                (std::thread::current().id(), answer)
            });
            // The caller ran the most urgent batch and returned the permit.
            while backend.ran().is_empty() || lock(&server.stream.window).executing > 0 {
                std::thread::yield_now();
            }
            lock(&server.stream.window).executing += 1;
            backend.release();
            relaxed.join().unwrap()
        });
        let (caller, answer) = caller;
        let answer = answer.unwrap().unwrap().expect("answered by the worker");
        assert_eq!(answer.logits.as_slice(), &[9.0]);
        parked.wait().unwrap();
        for ticket in backlog {
            ticket.wait().unwrap();
        }
        let ran = backend.ran();
        let by_caller: Vec<_> = ran.iter().filter(|(t, _)| *t == caller).collect();
        assert_eq!(
            by_caller,
            vec![&(caller, vec![1.0])],
            "the caller ran exactly one batch, the most urgent one; all: {ran:?}"
        );
        let metrics = server.shutdown();
        assert_eq!(metrics.requests, 5);
        assert_eq!(server.pending(), 0);
    }

    #[test]
    fn metrics_and_shutdown_survive_a_poisoned_recorder_lock() {
        let model = dense_model();
        let backend = Arc::new(CsrEngine::compile(&model, &[1, 3, 4]).unwrap());
        let server = StreamingServer::new(
            backend,
            StreamingConfig {
                threads: 2,
                ..StreamingConfig::default()
            },
        );
        // Poison the recorder lock the way production would: a thread
        // panics while holding it.
        let recorder = Arc::clone(&server.stream.recorder);
        let _ = std::thread::spawn(move || {
            let _guard = recorder.lock().unwrap();
            panic!("deliberately poisoning the recorder lock");
        })
        .join();
        assert!(
            server.stream.recorder.is_poisoned(),
            "lock must be poisoned"
        );
        // Metrics, serving and shutdown all keep working.
        let before = server.metrics();
        let ticket = server.submit(&Tensor::full(&[1, 3, 4], 0.5)).unwrap();
        ticket.wait().expect("serving survives the poisoned lock");
        let metrics = server.shutdown();
        assert_eq!(metrics.requests, before.requests + 1);
    }
}
