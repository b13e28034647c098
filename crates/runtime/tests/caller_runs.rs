//! The blocking entry point, [`StreamingServer::infer_blocking`]: a lone
//! request on an idle server executes on the calling thread; the executor
//! permits cap concurrent batches at `threads` whoever runs them; nothing
//! admitted is stranded behind a permit; a panic returns the permit;
//! shutdown waits for caller-held permits, and returns once they come
//! back; and the caller's own trace context survives the batch it ran.
//! Backlogs are built by parking the executors on [`GatedBackend`] (or on
//! [`Held`], which releases its batches one value at a time), never by
//! sleeping.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use common::GatedBackend;

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{
    CsrEngine, InferenceBackend, StreamedResponse, StreamingConfig, StreamingServer, SubmitError,
    SubmitOptions,
};
use snn_sim::RunStats;
use snn_tensor::Tensor;
use snn_trace::{push_context, AttrValue, TraceCollector, TraceTarget};
use ttfs_core::{convert, Base2Kernel, ConvertError, SnnModel};

const DIMS: [usize; 3] = [1, 3, 4];

/// Long enough that only a hang reaches it.
const PATIENCE: Duration = Duration::from_secs(30);

fn dense_model(seed: u64) -> SnnModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(12, 8, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(8, 3, &mut rng)),
    ]);
    convert(&net, Base2Kernel::paper_default(), 24).unwrap()
}

fn engine(seed: u64) -> CsrEngine {
    CsrEngine::compile(&dense_model(seed), &DIMS).unwrap()
}

fn sample(value: f32) -> Tensor {
    Tensor::full(&DIMS, value)
}

fn config(threads: usize, max_batch: usize) -> StreamingConfig {
    StreamingConfig {
        threads,
        max_batch,
        max_delay: Duration::from_secs(30),
        max_pending: 0,
        brownout: None,
    }
}

/// A blocking call that must answer: admission, execution and the wait
/// all succeed.
fn answer(server: &StreamingServer, value: f32) -> StreamedResponse {
    server
        .infer_blocking(sample(value), SubmitOptions::default(), PATIENCE)
        .expect("admitted")
        .expect("executed")
        .expect("answered in time")
}

/// Wraps a real engine and records the thread every batch ran on.
struct ThreadLog {
    inner: CsrEngine,
    threads: Mutex<Vec<ThreadId>>,
}

impl InferenceBackend for ThreadLog {
    fn name(&self) -> &'static str {
        "thread-log"
    }
    fn model(&self) -> &SnnModel {
        InferenceBackend::model(&self.inner)
    }
    fn input_dims(&self) -> Option<&[usize]> {
        self.inner.input_dims()
    }
    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        self.inner.run_batch(images)
    }
}

#[test]
fn a_lone_request_on_an_idle_server_executes_on_the_calling_thread() {
    let backend = Arc::new(ThreadLog {
        inner: engine(40),
        threads: Mutex::new(Vec::new()),
    });
    let server = StreamingServer::new(backend.clone(), config(2, 4));
    let me = std::thread::current().id();
    for i in 0..20 {
        let response = answer(&server, i as f32 / 20.0);
        assert_eq!(response.batch_size, 1);
    }
    assert_eq!(
        *backend.threads.lock().unwrap(),
        vec![me; 20],
        "every lone blocking request ran on the caller"
    );
    // The non-blocking path never takes a caller's thread: its batch runs
    // on a worker.
    server.submit(&sample(0.5)).unwrap().wait().unwrap();
    let threads = backend.threads.lock().unwrap().clone();
    assert_eq!(threads.len(), 21);
    assert_ne!(threads[20], me, "submit hands its batch to a worker");
    let metrics = server.shutdown();
    assert_eq!((metrics.requests, metrics.batches), (21, 21));
}

/// Counts the batches inside `run_batch` right now and remembers the
/// most ever seen; each batch lingers a little so executors overlap.
struct Overlap {
    inner: CsrEngine,
    now: AtomicUsize,
    most: AtomicUsize,
}

impl InferenceBackend for Overlap {
    fn name(&self) -> &'static str {
        "overlap"
    }
    fn model(&self) -> &SnnModel {
        InferenceBackend::model(&self.inner)
    }
    fn input_dims(&self) -> Option<&[usize]> {
        self.inner.input_dims()
    }
    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
        self.most.fetch_max(now, Ordering::SeqCst);
        for _ in 0..50 {
            std::thread::yield_now();
        }
        let out = self.inner.run_batch(images);
        self.now.fetch_sub(1, Ordering::SeqCst);
        out
    }
}

#[test]
fn at_most_threads_batches_execute_at_once_whoever_runs_them() {
    const THREADS: usize = 2;
    let backend = Arc::new(Overlap {
        inner: engine(41),
        now: AtomicUsize::new(0),
        most: AtomicUsize::new(0),
    });
    let server = StreamingServer::new(backend.clone(), config(THREADS, 3));
    std::thread::scope(|scope| {
        // Blocking callers and non-blocking submitters compete for the
        // same permits.
        for c in 0..6 {
            let server = &server;
            scope.spawn(move || {
                for i in 0..150 {
                    answer(server, (c * 1000 + i) as f32 / 1e4);
                }
            });
        }
        for s in 0..2 {
            let server = &server;
            scope.spawn(move || {
                for i in 0..150 {
                    let ticket = server.submit(&sample((s * 1000 + i) as f32 / 1e4)).unwrap();
                    ticket.wait().expect("submitted request answered");
                }
            });
        }
    });
    let most = backend.most.load(Ordering::SeqCst);
    assert!(
        (1..=THREADS).contains(&most),
        "{most} batches executed at once with {THREADS} permits"
    );
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 8 * 150, "every request answered once");
}

#[test]
fn a_request_admitted_behind_a_caller_run_batch_is_served() {
    let backend = GatedBackend::closed(engine(42));
    let server = StreamingServer::new(backend.clone(), config(1, 4));
    std::thread::scope(|scope| {
        // The only permit goes to a caller, which parks in the gate.
        let first = scope.spawn(|| answer(&server, 0.1));
        backend.wait_entered(1);
        // Meanwhile a blocking caller is refused the permit and a
        // non-blocking submitter queues.
        let second = scope.spawn(|| answer(&server, 0.2));
        common::wait_until(|| server.pending() == 2);
        let mut third = server.submit(&sample(0.3)).unwrap();
        backend.open();
        // The first caller's answer arrives, it returns its permit with
        // work pending, and a worker takes the rest.
        assert_eq!(first.join().unwrap().batch_size, 1);
        second.join().unwrap();
        third
            .wait_timeout(PATIENCE)
            .unwrap()
            .expect("the queued submission is answered");
    });
    let mut riders = backend.batches();
    assert_eq!(riders[0], vec![0.1], "the caller ran its own request");
    let mut rest: Vec<f32> = riders.drain(1..).flatten().collect();
    rest.sort_by(f32::total_cmp);
    assert_eq!(rest, vec![0.2, 0.3], "each queued request ran once");
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 3);
}

/// A real engine, except that a batch carrying [`POISON`] panics in the
/// backend and one carrying [`MANGLED`] returns logits of the wrong rank,
/// which panics the server's delivery — outside the backend guard.
struct Faulty(CsrEngine);

const POISON: f32 = 99.0;
const MANGLED: f32 = 77.0;

impl InferenceBackend for Faulty {
    fn name(&self) -> &'static str {
        "faulty"
    }
    fn model(&self) -> &SnnModel {
        InferenceBackend::model(&self.0)
    }
    fn input_dims(&self) -> Option<&[usize]> {
        self.0.input_dims()
    }
    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        if images.as_slice().contains(&POISON) {
            panic!("poison value in batch");
        }
        if images.as_slice().contains(&MANGLED) {
            return Ok((Tensor::zeros(&[images.dims()[0]]), RunStats::default()));
        }
        self.0.run_batch(images)
    }
}

#[test]
fn a_panic_in_a_caller_run_batch_returns_the_permit() {
    let server = StreamingServer::new(Arc::new(Faulty(engine(43))), config(1, 4));
    // Backend panic: the quarantine path isolates the request and the
    // caller gets the typed error.
    let poisoned = server
        .infer_blocking(sample(POISON), SubmitOptions::default(), PATIENCE)
        .expect("admitted")
        .expect_err("the poison request fails");
    assert!(poisoned.to_string().contains("quarantined"), "{poisoned}");
    // A panic outside the backend guard unwinds out of the batch; the
    // caller survives and sees its request dropped.
    let mangled = server
        .infer_blocking(sample(MANGLED), SubmitOptions::default(), PATIENCE)
        .expect("admitted")
        .expect_err("the mangled batch fails");
    assert!(mangled.to_string().contains("dropped"), "{mangled}");
    // With one permit, a leaked one would leave the next request with no
    // executor at all; instead it is answered at once.
    for _ in 0..3 {
        answer(&server, 0.5);
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.quarantined, 1);
    assert_eq!(metrics.batch_retries, 1);
    assert_eq!(metrics.requests, 3);
    assert_eq!(server.pending(), 0, "every slot released");
}

#[test]
fn shutdown_waits_for_a_caller_held_permit() {
    let backend = GatedBackend::closed(engine(44));
    let server = StreamingServer::new(backend.clone(), config(2, 4));
    std::thread::scope(|scope| {
        let caller = scope.spawn(|| answer(&server, 0.1));
        backend.wait_entered(1);
        let shutdown = scope.spawn(|| server.shutdown());
        common::wait_until(|| server.is_shut_down());
        // Admission is closed and the idle workers can exit, but the
        // caller still holds a permit: shutdown must not return yet.
        for _ in 0..1000 {
            std::thread::yield_now();
        }
        assert!(
            !shutdown.is_finished(),
            "shutdown returned while a caller was executing"
        );
        backend.open();
        let metrics = shutdown.join().unwrap();
        assert_eq!(
            (metrics.requests, metrics.batches),
            (1, 1),
            "the final metrics include the caller's batch"
        );
        assert_eq!(caller.join().unwrap().batch_size, 1);
    });
}

/// A real engine whose batches each wait until the test releases their
/// first rider's value.
struct Held {
    inner: CsrEngine,
    /// Values still held, and how many batches have entered `run_batch`.
    state: Mutex<(Vec<f32>, usize)>,
    changed: Condvar,
}

impl Held {
    fn new(inner: CsrEngine, held: &[f32]) -> Arc<Self> {
        Arc::new(Self {
            inner,
            state: Mutex::new((held.to_vec(), 0)),
            changed: Condvar::new(),
        })
    }

    fn wait_entered(&self, n: usize) {
        let state = self.state.lock().unwrap();
        let (_state, timeout) = self
            .changed
            .wait_timeout_while(state, PATIENCE, |(_, entered)| *entered < n)
            .unwrap();
        assert!(!timeout.timed_out(), "{n} batches never started");
    }

    fn release(&self, value: f32) {
        self.state.lock().unwrap().0.retain(|&v| v != value);
        self.changed.notify_all();
    }
}

impl InferenceBackend for Held {
    fn name(&self) -> &'static str {
        "held"
    }
    fn model(&self) -> &SnnModel {
        InferenceBackend::model(&self.inner)
    }
    fn input_dims(&self) -> Option<&[usize]> {
        self.inner.input_dims()
    }
    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        let first = images.as_slice()[0];
        let mut state = self.state.lock().unwrap();
        state.1 += 1;
        self.changed.notify_all();
        let (state, timeout) = self
            .changed
            .wait_timeout_while(state, PATIENCE, |(held, _)| held.contains(&first))
            .unwrap();
        assert!(!timeout.timed_out(), "{first} was never released");
        drop(state);
        self.inner.run_batch(images)
    }
}

/// Blocking callers hold every permit and a submission is queued when
/// `shutdown()` closes the window; the callers then let go one at a time.
/// The first permit back lets a worker drain the window and exit; the
/// second comes back to a closed, empty window while the other worker is
/// still asleep, having found every permit held. It must hear that
/// permit too, or it never exits and `shutdown()` never returns.
#[test]
fn shutdown_returns_once_callers_holding_every_permit_let_go() {
    let backend = Held::new(engine(47), &[0.1, 0.2]);
    let server = Arc::new(StreamingServer::new(backend.clone(), config(2, 4)));
    let callers: Vec<_> = [0.1, 0.2]
        .into_iter()
        .map(|value| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || answer(&server, value))
        })
        .collect();
    backend.wait_entered(2);
    let mut queued = server.submit(&sample(0.3)).unwrap();
    let (done, shut_down) = channel();
    let closer = Arc::clone(&server);
    std::thread::spawn(move || done.send(closer.shutdown()).unwrap());
    common::wait_until(|| server.is_shut_down());
    // The close woke both workers; let them find every permit held and
    // go back to sleep — the state in which a lost wake-up strands one.
    // (Whatever the timing, shutdown must return.)
    for _ in 0..1000 {
        std::thread::yield_now();
    }
    backend.release(0.1);
    queued
        .wait_timeout(PATIENCE)
        .unwrap()
        .expect("the queued submission is answered");
    backend.release(0.2);
    let metrics = shut_down
        .recv_timeout(PATIENCE)
        .expect("shutdown() returned");
    assert_eq!((metrics.requests, metrics.batches), (3, 3));
    for caller in callers {
        assert_eq!(caller.join().unwrap().batch_size, 1);
    }
}

/// Answers each row with its own first pixel.
struct Echo(SnnModel);

impl InferenceBackend for Echo {
    fn name(&self) -> &'static str {
        "echo"
    }
    fn model(&self) -> &SnnModel {
        &self.0
    }
    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        let k = images.dims()[0];
        let sample_len = images.len() / k;
        let firsts = (0..k).map(|i| images.as_slice()[i * sample_len]).collect();
        Ok((
            Tensor::from_vec(firsts, &[k, 1]).unwrap(),
            RunStats::default(),
        ))
    }
}

#[test]
fn blocking_callers_racing_shutdown_get_an_answer_or_a_rejection() {
    const CALLERS: usize = 6;
    const PER_CALLER: usize = 5_000;
    let server = StreamingServer::new(Arc::new(Echo(dense_model(45))), config(2, 8));
    let (answered, refused) = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|c| {
                let server = &server;
                scope.spawn(move || {
                    let (mut answered, mut refused) = (0usize, 0usize);
                    for i in 0..PER_CALLER {
                        if c == 0 && i == PER_CALLER / 2 {
                            server.shutdown();
                        }
                        let id = (c * PER_CALLER + i) as f32;
                        match server.infer_blocking(sample(id), SubmitOptions::default(), PATIENCE)
                        {
                            Ok(Ok(Some(response))) => {
                                assert_eq!(response.logits.as_slice(), &[id], "misrouted reply");
                                answered += 1;
                            }
                            Err(SubmitError::Rejected(e)) => {
                                assert!(e.to_string().contains("shut down"), "got: {e}");
                                refused += 1;
                            }
                            other => panic!("neither an answer nor a rejection: {other:?}"),
                        }
                    }
                    (answered, refused)
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|h| h.join().expect("caller"))
            .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1))
    });
    assert_eq!(answered + refused, CALLERS * PER_CALLER);
    assert!(refused > 0, "shutdown raced live callers");
    let metrics = server.shutdown();
    assert_eq!(
        metrics.requests, answered as u64,
        "every admission answered"
    );
    assert_eq!(server.pending(), 0);
    assert_eq!(
        metrics.flushes_idle
            + metrics.flushes_max_batch
            + metrics.flushes_edf_deadline
            + metrics.flushes_drain,
        metrics.batches
    );
}

#[test]
fn a_caller_run_batch_restores_the_callers_trace_context() {
    let collector = Arc::new(TraceCollector::new(0));
    let server =
        StreamingServer::new_traced(Arc::new(engine(46)), config(1, 4), Arc::clone(&collector));
    let mine = collector.mint_trace();
    let theirs = collector.mint_trace();
    let _own = push_context(
        Arc::clone(&collector),
        vec![TraceTarget {
            trace: mine,
            parent: 7,
        }],
    );
    let options = SubmitOptions::default().traced(TraceTarget {
        trace: theirs,
        parent: 0,
    });
    server
        .infer_blocking(sample(0.5), options, PATIENCE)
        .unwrap()
        .unwrap()
        .unwrap();
    assert_eq!(
        snn_trace::current_trace_id(),
        Some(mine),
        "the batch's ambient context was popped back to the caller's"
    );
    // The engine spans went to the request's own tree, under its
    // `batch.exec`, and the flush says who executed it.
    let spans = collector.trace(theirs);
    let exec = spans.iter().find(|s| s.name == "batch.exec").unwrap();
    assert!(spans
        .iter()
        .any(|s| s.name == "csr.chunk" && s.parent_id == exec.span_id));
    let flush = spans.iter().find(|s| s.name == "batch.flush").unwrap();
    assert_eq!(flush.attr("executor"), Some(&AttrValue::Str("caller")));
    assert!(collector.trace(mine).is_empty(), "nothing leaked into ours");
    server.shutdown();
}
