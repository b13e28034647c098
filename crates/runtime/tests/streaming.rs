//! Edge-case coverage for the streaming front-end: the idle path, batches
//! formed out of backlog (EDF order, flush reasons, deadline misses),
//! graceful shutdown with work still queued, submissions after shutdown,
//! ticket polling, and a submit/shutdown stress run. Tests that need a
//! backlog park the workers on [`GatedBackend`] instead of sleeping.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::GatedBackend;

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{
    BrownoutConfig, CsrEngine, InferenceBackend, StreamingConfig, StreamingServer, SubmitError,
    SubmitOptions, Ticket, DEADLINE_MISS_GRACE,
};
use snn_sim::RunStats;
use snn_tensor::Tensor;
use ttfs_core::{convert, Base2Kernel, ConvertError, SnnModel};

const DIMS: [usize; 3] = [1, 3, 4];

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

fn engine(seed: u64) -> Arc<CsrEngine> {
    Arc::new(CsrEngine::compile(&dense_model(seed), &[1, 3, 4]).unwrap())
}

fn sample(value: f32) -> Tensor {
    Tensor::full(&[1, 3, 4], value)
}

/// A closed-gate backend over a fresh engine.
fn gated(seed: u64) -> Arc<GatedBackend> {
    GatedBackend::closed(CsrEngine::compile(&dense_model(seed), &[1, 3, 4]).unwrap())
}

fn config(threads: usize, max_batch: usize, max_delay: Duration) -> StreamingConfig {
    StreamingConfig {
        threads,
        max_batch,
        max_delay,
        max_pending: 0,
        brownout: None,
    }
}

/// Far enough off that no test run ever reaches it.
const RELAXED: Duration = Duration::from_secs(30);

/// Bounded wait on a ticket: a hang fails the test instead of wedging it.
fn resolve(mut ticket: Ticket) -> snn_runtime::StreamedResponse {
    ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("request failed")
        .expect("request never resolved")
}

#[test]
fn lone_request_runs_at_once_on_an_idle_worker() {
    // max_batch is far from reached and the deadline is 30 s off: nothing
    // may hold the request back for either.
    let server = StreamingServer::new(engine(1), config(1, 64, RELAXED));
    let response = resolve(server.submit(&sample(0.5)).unwrap());
    assert_eq!(response.batch_size, 1);
    assert_eq!(response.logits.dims(), &[3]);
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 1);
    assert_eq!(metrics.batches, 1);
    assert_eq!(
        metrics.flushes_idle, 1,
        "taken by a free worker, not flushed"
    );
    assert_eq!(metrics.deadline_misses, 0);
}

#[test]
fn backlog_behind_busy_workers_rides_in_max_batch_sized_edf_batches() {
    let backend = gated(2);
    let server = StreamingServer::new(backend.clone(), config(2, 4, RELAXED));
    // Two requests, two idle workers: each runs alone and parks in the
    // gate.
    let parked: Vec<Ticket> = (0..2)
        .map(|i| {
            let ticket = server.submit(&sample(i as f32)).unwrap();
            backend.wait_entered(i + 1);
            ticket
        })
        .collect();
    // Eight more arrive while both workers are busy.
    let backlog: Vec<Ticket> = (2..10)
        .map(|i| server.submit(&sample(i as f32)).unwrap())
        .collect();
    backend.open();
    for ticket in parked {
        assert_eq!(resolve(ticket).batch_size, 1);
    }
    for ticket in backlog {
        assert_eq!(resolve(ticket).batch_size, 4, "the backlog fills batches");
    }
    // Which worker frees up first is a race; what each batch holds is not.
    let mut batches = backend.batches();
    batches.sort_by(|a, b| a[0].total_cmp(&b[0]));
    assert_eq!(
        batches,
        vec![
            vec![0.0],
            vec![1.0],
            vec![2.0, 3.0, 4.0, 5.0],
            vec![6.0, 7.0, 8.0, 9.0]
        ]
    );
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 10);
    assert_eq!(metrics.flushes_idle, 2);
    assert_eq!(metrics.flushes_max_batch, 2);
    assert!((metrics.mean_batch_occupancy - 2.5).abs() < 1e-9);
}

#[test]
fn urgent_request_jumps_the_backlog() {
    let backend = gated(16);
    let server = StreamingServer::new(backend.clone(), config(1, 2, RELAXED));
    let parked = server.submit(&sample(0.0)).unwrap();
    backend.wait_entered(1);
    // Two relaxed requests queue up behind the busy worker; an urgent one
    // arrives last and must leave first.
    let relaxed: Vec<Ticket> = [1.0, 2.0]
        .iter()
        .map(|&v| server.submit(&sample(v)).unwrap())
        .collect();
    let urgent = server
        .submit_with(
            &sample(3.0),
            SubmitOptions::with_deadline(Duration::from_millis(1)),
        )
        .unwrap();
    backend.open();
    assert_eq!(resolve(urgent).batch_size, 2);
    for ticket in relaxed {
        resolve(ticket);
    }
    resolve(parked);
    assert_eq!(
        backend.batches(),
        vec![vec![0.0], vec![3.0, 1.0], vec![2.0]],
        "EDF order across the backlog, admission order among equals"
    );
    server.shutdown();
}

#[test]
fn max_batch_flush_with_zero_remaining_deadline() {
    // max_delay == 0: every pending window is already expired the moment
    // it forms. Count and deadline flushes race; every request must still
    // be answered exactly once and no batch may exceed max_batch.
    let server = StreamingServer::new(
        engine(3),
        StreamingConfig {
            threads: 2,
            max_batch: 4,
            max_delay: Duration::ZERO,
            max_pending: 0,
            brownout: None,
        },
    );
    let tickets: Vec<Ticket> = (0..16)
        .map(|i| server.submit(&sample(i as f32 / 16.0)).unwrap())
        .collect();
    for ticket in tickets {
        let response = ticket.wait().unwrap();
        assert!(response.batch_size >= 1 && response.batch_size <= 4);
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 16);
    let histogram_total: u64 = metrics
        .occupancy_histogram
        .iter()
        .map(|bucket| bucket.size * bucket.batches)
        .sum();
    assert_eq!(histogram_total, 16, "histogram accounts for every request");
}

#[test]
fn shutdown_drains_queued_requests() {
    // One parked worker, per-request batches: four submissions are still
    // pending when shutdown closes the window. Every ticket must resolve.
    let backend = gated(4);
    let server = StreamingServer::new(backend.clone(), config(1, 1, Duration::ZERO));
    let tickets: Vec<Ticket> = (0..5)
        .map(|i| server.submit(&sample(i as f32 / 5.0)).unwrap())
        .collect();
    backend.wait_entered(1);
    let metrics = std::thread::scope(|scope| {
        let shutdown = scope.spawn(|| server.shutdown());
        // Shutdown is now waiting for the parked worker; let it go only
        // once the window is closed, so the four pending requests are
        // provably drained rather than taken in steady state.
        common::wait_until(|| server.is_shut_down());
        backend.open();
        shutdown.join().unwrap()
    });
    assert_eq!(metrics.requests, 5, "shutdown drained every request");
    assert_eq!(metrics.flushes_drain, 4);
    assert_eq!(server.pending(), 0);
    for ticket in tickets {
        assert_eq!(resolve(ticket).batch_size, 1, "drained, not dropped");
    }
}

#[test]
fn submit_after_shutdown_returns_error() {
    let server = StreamingServer::new(
        engine(5),
        StreamingConfig {
            threads: 1,
            max_batch: 2,
            max_delay: Duration::from_millis(1),
            max_pending: 0,
            brownout: None,
        },
    );
    server.submit(&sample(0.3)).unwrap().wait().unwrap();
    server.shutdown();
    let err = server.submit(&sample(0.3)).unwrap_err();
    assert!(
        err.to_string().contains("shut down"),
        "structured shutdown error, got: {err}"
    );
    // Shutdown stays idempotent and keeps reporting the drained state.
    assert_eq!(server.shutdown().requests, 1);
}

#[test]
fn try_wait_polls_until_the_result_lands() {
    let backend = gated(6);
    let server = StreamingServer::new(backend.clone(), config(1, 1, Duration::ZERO));
    let mut ticket = server.submit(&sample(0.7)).unwrap();
    backend.wait_entered(1);
    assert!(
        ticket.try_wait().unwrap().is_none(),
        "the batch is parked in the gate: nothing can have landed"
    );
    backend.open();
    let response = resolve(ticket);
    assert_eq!(response.logits.dims(), &[3]);
}

#[test]
fn wait_timeout_returns_none_then_the_result() {
    let backend = gated(12);
    let server = StreamingServer::new(backend.clone(), config(1, 1, Duration::ZERO));
    let mut ticket = server.submit(&sample(0.4)).unwrap();
    // The gate is closed: a bounded wait must time out cleanly and leave
    // the ticket usable.
    assert!(
        ticket
            .wait_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none(),
        "result cannot be ready yet"
    );
    backend.open();
    let response = ticket
        .wait_timeout(Duration::from_secs(10))
        .unwrap()
        .expect("result lands within the bound");
    assert_eq!(response.logits.dims(), &[3]);
    // A consumed ticket's channel is empty but alive semantics are moot —
    // the server keeps serving.
    resolve(server.submit(&sample(0.5)).unwrap());
    server.shutdown();
}

#[test]
fn wait_timeout_surfaces_backend_panic_as_error() {
    let server = StreamingServer::new(
        Arc::new(PanickingBackend(dense_model(13))),
        StreamingConfig {
            threads: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            max_pending: 0,
            brownout: None,
        },
    );
    let mut ticket = server.submit(&sample(0.5)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    // Depending on timing we see Ok(None) ticks first, then the error.
    loop {
        match ticket.wait_timeout(Duration::from_millis(5)) {
            Ok(None) => assert!(std::time::Instant::now() < deadline, "never resolved"),
            Ok(Some(_)) => panic!("panicking backend cannot produce a response"),
            Err(e) => {
                // The panic is isolated: a solo retry panics again, so the
                // request is quarantined with a typed error — not a
                // dropped channel.
                assert!(e.to_string().contains("quarantined"), "got: {e}");
                break;
            }
        }
    }
    server.shutdown();
}

#[test]
fn shed_requests_metric_counts_queue_full_rejections() {
    let backend = gated(14);
    let server = StreamingServer::new(
        backend.clone(),
        StreamingConfig {
            max_pending: 1,
            ..config(1, 1, Duration::ZERO)
        },
    );
    let admitted = server.submit(&sample(0.1)).expect("first admitted");
    for _ in 0..3 {
        assert!(matches!(
            server.submit(&sample(0.2)),
            Err(SubmitError::QueueFull { .. })
        ));
    }
    backend.open();
    resolve(admitted);
    let metrics = server.shutdown();
    assert_eq!(metrics.shed_requests, 3, "every QueueFull counted");
    assert_eq!(metrics.requests, 1, "sheds are not completions");
}

#[test]
fn deadline_miss_counts_backlog_not_the_idle_hand_off() {
    // Every request's deadline is its arrival instant, so what trails it
    // on the idle path is one hand-off to a waiting worker. Inside the
    // grace that is not a miss, however many times it happens. (Other
    // tests share this process's CPUs, so a hand-off can stall past the
    // grace here; the server must then count exactly those.)
    let backend = gated(15);
    backend.open();
    let server = StreamingServer::new(backend, config(1, 8, Duration::ZERO));
    let stalled = (0..200)
        .map(|i| resolve(server.submit(&sample(i as f32 / 200.0)).unwrap()))
        .filter(|response| response.queue_wait > DEADLINE_MISS_GRACE)
        .count();
    assert!(stalled < 200, "some hand-off must fit the grace");
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 200);
    assert_eq!(metrics.deadline_misses, stalled as u64);
    assert_eq!(
        metrics.flushes_edf_deadline, 200,
        "taken at (not before) their deadline"
    );

    // Behind a busy worker for longer than the grace, it is a miss.
    let backend = gated(15);
    let server = StreamingServer::new(backend.clone(), config(1, 8, RELAXED));
    let parked = server.submit(&sample(0.1)).unwrap();
    backend.wait_entered(1);
    let mut late = server
        .submit_with(&sample(0.2), SubmitOptions::with_deadline(Duration::ZERO))
        .unwrap();
    assert!(
        late.wait_timeout(DEADLINE_MISS_GRACE * 3)
            .unwrap()
            .is_none(),
        "held behind the gate past its deadline and the grace"
    );
    backend.open();
    resolve(parked);
    resolve(late);
    let metrics = server.shutdown();
    assert_eq!(metrics.deadline_misses, 1, "only the backlogged request");
    assert_eq!(metrics.flushes_edf_deadline, 1);
    assert_eq!(metrics.flushes_idle, 1);
}

#[test]
fn mismatched_sample_dims_are_rejected() {
    let server = StreamingServer::new(engine(7), StreamingConfig::default());
    server.submit(&sample(0.5)).unwrap();
    let err = server.submit(&Tensor::full(&[1, 4, 4], 0.5)).unwrap_err();
    assert!(err.to_string().contains("do not match"), "got: {err}");
    let err = server
        .submit(&Tensor::from_vec(vec![], &[0]).unwrap())
        .unwrap_err();
    assert!(err.to_string().contains("non-empty"), "got: {err}");
}

#[test]
fn bounded_queue_rejects_with_queue_full_and_recovers() {
    // One parked worker, per-request batches, a bound of 2: the first two
    // submissions are admitted (one executing, one pending), the third must
    // be shed with QueueFull instead of growing the queue. Once the
    // admitted work resolves, capacity frees and submission succeeds again.
    let backend = gated(9);
    let server = StreamingServer::new(
        backend.clone(),
        StreamingConfig {
            max_pending: 2,
            ..config(1, 1, Duration::ZERO)
        },
    );
    assert_eq!(server.max_pending(), 2);
    let first = server.submit(&sample(0.1)).expect("slot 1 admitted");
    let second = server.submit(&sample(0.2)).expect("slot 2 admitted");
    let err = server.submit(&sample(0.3)).expect_err("bound reached");
    assert_eq!(err, SubmitError::QueueFull { max_pending: 2 });
    assert!(err.to_string().contains("full"), "got: {err}");
    assert_eq!(server.pending(), 2);

    // Resolving the admitted requests releases their slots.
    backend.open();
    resolve(first);
    resolve(second);
    let third = server
        .submit(&sample(0.3))
        .expect("capacity freed after completion");
    resolve(third);
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 3, "the shed request never counted");
}

#[test]
fn unbounded_queue_still_tracks_pending() {
    let server = StreamingServer::new(
        engine(10),
        StreamingConfig {
            threads: 1,
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            max_pending: 0,
            brownout: None,
        },
    );
    assert_eq!(server.max_pending(), 0);
    let tickets: Vec<Ticket> = (0..6)
        .map(|i| server.submit(&sample(i as f32 / 6.0)).unwrap())
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    // Shutdown joins the workers, so every batch's slot release has run.
    server.shutdown();
    assert_eq!(server.pending(), 0, "all resolved requests released");
}

struct PanickingBackend(SnnModel);

impl InferenceBackend for PanickingBackend {
    fn name(&self) -> &'static str {
        "panic"
    }
    fn model(&self) -> &SnnModel {
        &self.0
    }
    fn input_dims(&self) -> &[usize] {
        &DIMS
    }
    fn run_batch(&self, _images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        panic!("backend exploded mid-batch");
    }
}

#[test]
fn backend_panic_releases_backpressure_slots() {
    // A panicking backend must not wedge a bounded server: the batch's
    // admission slots are released on unwind (drop guard), so once the
    // failure surfaces, new submissions are admitted — not QueueFull.
    let server = StreamingServer::new(
        Arc::new(PanickingBackend(dense_model(11))),
        StreamingConfig {
            threads: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            max_pending: 1,
            brownout: None,
        },
    );
    for round in 0..3 {
        // The quarantine error reaches the ticket just before the worker's
        // drop guard releases the slot; a leaked slot never would be.
        common::wait_until(|| server.pending() == 0);
        let ticket = server
            .submit(&sample(0.5))
            .unwrap_or_else(|e| panic!("round {round} must be admitted, got {e}"));
        assert!(ticket.wait().is_err(), "backend always panics");
    }
    server.shutdown();
    assert_eq!(server.pending(), 0, "no leaked admissions");
}

#[test]
fn flush_reason_counters_split_idle_full_late_and_drain() {
    let backend = gated(20);
    let server = StreamingServer::new(backend.clone(), config(1, 3, RELAXED));
    // Idle: a free worker takes a lone request whose deadline is far off.
    let mut tickets = vec![server.submit(&sample(0.0)).unwrap()];
    backend.wait_entered(1);
    // Max-batch: four arrive behind the busy worker; three fill a batch.
    // The one left over is taken alone, on time: idle again.
    tickets.extend((1..5).map(|i| server.submit(&sample(i as f32)).unwrap()));
    backend.open();
    tickets.drain(..).for_each(|ticket| drop(resolve(ticket)));
    // EDF deadline: short of a full batch, and already due when taken.
    resolve(
        server
            .submit_with(&sample(5.0), SubmitOptions::with_deadline(Duration::ZERO))
            .unwrap(),
    );
    let metrics = server.shutdown();
    assert_eq!(
        backend.batches(),
        vec![vec![0.0], vec![1.0, 2.0, 3.0], vec![4.0], vec![5.0]]
    );
    assert_eq!(metrics.flushes_idle, 2);
    assert_eq!(metrics.flushes_max_batch, 1);
    assert_eq!(metrics.flushes_edf_deadline, 1);
    assert_eq!(metrics.flushes_drain, 0);
    assert_eq!(metrics.batches, 4, "one reason per batch");

    // Drain: requests still pending when shutdown closes the window.
    let backend = gated(22);
    let server = StreamingServer::new(backend.clone(), config(1, 64, RELAXED));
    let mut tickets = vec![server.submit(&sample(0.0)).unwrap()];
    backend.wait_entered(1);
    tickets.extend((1..4).map(|i| server.submit(&sample(i as f32)).unwrap()));
    let metrics = std::thread::scope(|scope| {
        let shutdown = scope.spawn(|| server.shutdown());
        common::wait_until(|| server.is_shut_down());
        backend.open();
        shutdown.join().unwrap()
    });
    assert_eq!(metrics.flushes_drain, 1, "shutdown drained the backlog");
    assert_eq!(metrics.flushes_idle, 1);
    assert_eq!(metrics.requests, 4);
    assert_eq!(backend.batches(), vec![vec![0.0], vec![1.0, 2.0, 3.0]]);
    for ticket in tickets {
        resolve(ticket);
    }
}

#[test]
fn wait_timeouts_metric_counts_ticket_expiries() {
    let backend = gated(23);
    let server = StreamingServer::new(backend.clone(), config(1, 1, Duration::ZERO));
    let mut ticket = server.submit(&sample(0.4)).unwrap();
    // Two early polls expire against the closed gate; both must count.
    for _ in 0..2 {
        assert!(ticket
            .wait_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
    }
    backend.open();
    resolve(ticket);
    let metrics = server.shutdown();
    assert_eq!(metrics.wait_timeouts, 2, "only the expired polls count");
}

/// Answers each row with its own first pixel: as cheap as a backend
/// gets, and a misrouted reply is visible in the logits.
struct EchoBackend(SnnModel);

impl InferenceBackend for EchoBackend {
    fn name(&self) -> &'static str {
        "echo"
    }
    fn model(&self) -> &SnnModel {
        &self.0
    }
    fn input_dims(&self) -> &[usize] {
        &DIMS
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
fn concurrent_submitters_and_a_racing_shutdown_resolve_every_ticket() {
    const SUBMITTERS: usize = 8;
    const PER_SUBMITTER: usize = 10_000;
    let server = StreamingServer::new(
        Arc::new(EchoBackend(dense_model(30))),
        config(4, 8, Duration::from_millis(2)),
    );
    let (answered, refused): (usize, usize) = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|s| {
                let server = &server;
                scope.spawn(move || {
                    let (mut answered, mut refused) = (0usize, 0usize);
                    let mut held: Vec<(f32, Ticket)> = Vec::new();
                    let check = |id: f32, ticket: Ticket| {
                        // A lost wake-up or a dropped ticket shows up
                        // here as a timeout or an error, never a hang.
                        let response = resolve(ticket);
                        assert_eq!(response.logits.as_slice(), &[id], "misrouted reply");
                    };
                    for i in 0..PER_SUBMITTER {
                        // Submitter 0 pulls the plug with a tenth of
                        // everyone's work still to come.
                        if s == 0 && i == PER_SUBMITTER * 9 / 10 {
                            server.shutdown();
                        }
                        let id = (s * PER_SUBMITTER + i) as f32;
                        match server.submit(&sample(id)) {
                            // Alternate ping-pong (every request needs its
                            // own wake-up) with bursts (backlog forms).
                            Ok(ticket) if i % 2 == 0 => {
                                check(id, ticket);
                                answered += 1;
                            }
                            Ok(ticket) => held.push((id, ticket)),
                            Err(e) => {
                                assert!(e.to_string().contains("shut down"), "got: {e}");
                                refused += 1;
                            }
                        }
                        if held.len() == 16 {
                            answered += held.len();
                            held.drain(..).for_each(|(id, ticket)| check(id, ticket));
                        }
                    }
                    answered += held.len();
                    held.into_iter().for_each(|(id, ticket)| check(id, ticket));
                    (answered, refused)
                })
            })
            .collect();
        submitters
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1))
    });
    assert_eq!(answered + refused, SUBMITTERS * PER_SUBMITTER);
    assert!(refused > 0, "shutdown raced live submitters");
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

/// Panics only when the magic poison value rides in the batch; otherwise
/// defers to a real engine, so one poison request can be co-batched with
/// innocents.
struct PoisonValueBackend(CsrEngine);

const POISON: f32 = 99.0;

impl InferenceBackend for PoisonValueBackend {
    fn name(&self) -> &'static str {
        "poison-value"
    }
    fn model(&self) -> &SnnModel {
        InferenceBackend::model(&self.0)
    }
    fn input_dims(&self) -> &[usize] {
        self.0.input_dims()
    }
    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        if images.as_slice().contains(&POISON) {
            panic!("poison value in batch");
        }
        self.0.run_batch(images)
    }
}

#[test]
fn poison_request_is_quarantined_and_co_batched_innocents_survive() {
    let engine = CsrEngine::compile(&dense_model(31), &[1, 3, 4]).unwrap();
    let expected = {
        let (logits, _) = engine.run_batch(&Tensor::full(&[1, 1, 3, 4], 0.5)).unwrap();
        logits.as_slice().to_vec()
    };
    let backend = GatedBackend::closed(PoisonValueBackend(engine));
    let server = StreamingServer::new(backend.clone(), config(1, 4, RELAXED));
    // Behind a parked worker, three innocents and one poison request pile
    // up into one batch of four.
    let parked = server.submit(&sample(0.5)).unwrap();
    backend.wait_entered(1);
    let innocents: Vec<Ticket> = (0..3)
        .map(|_| server.submit(&sample(0.5)).unwrap())
        .collect();
    let poison_ticket = server.submit(&sample(POISON)).unwrap();
    backend.open();
    resolve(parked);
    for ticket in innocents {
        let response = resolve(ticket);
        assert_eq!(response.logits.as_slice(), &expected[..], "bit-exact");
        assert_eq!(response.batch_size, 1, "isolation retries run solo");
    }
    let err = poison_ticket.wait().unwrap_err();
    assert!(
        err.to_string().contains("quarantined"),
        "poison request gets the typed quarantine error, got: {err}"
    );
    assert_eq!(
        backend.batches()[1],
        vec![0.5, 0.5, 0.5, POISON],
        "the four did share a batch"
    );
    // The server stays fully serviceable afterwards.
    let after = resolve(server.submit(&sample(0.5)).unwrap());
    assert_eq!(after.logits.as_slice(), &expected[..]);
    let metrics = server.shutdown();
    assert_eq!(metrics.batch_retries, 1, "one batch was re-run");
    assert_eq!(metrics.quarantined, 1, "exactly the poison request");
    assert_eq!(metrics.requests, 5, "parked + 3 innocents + 1 follow-up");
}

#[test]
fn brownout_sheds_low_priority_and_recovers_after_drain() {
    let backend = gated(32);
    let server = StreamingServer::new(
        backend.clone(),
        StreamingConfig {
            brownout: Some(BrownoutConfig {
                high_water: 2,
                low_water: 0,
                shed_below_priority: 1,
            }),
            ..config(1, 1, Duration::ZERO)
        },
    );
    // Pile up 3 high-priority requests behind the closed gate; the third
    // submission sees 2 admitted-but-unresolved and engages brownout — but
    // rides on, because its priority clears the shed threshold.
    let high: Vec<Ticket> = (0..3)
        .map(|_| {
            server
                .submit_with(&sample(0.5), SubmitOptions::default().priority(1))
                .expect("high priority is never browned out")
        })
        .collect();
    assert!(server.brownout_engaged(), "high-water mark crossed");
    let err = server
        .submit_with(&sample(0.5), SubmitOptions::default().priority(0))
        .expect_err("low priority must shed while engaged");
    assert!(
        matches!(
            err,
            SubmitError::Brownout {
                priority: 0,
                shed_below_priority: 1
            }
        ),
        "typed brownout error, got {err:?}"
    );
    backend.open();
    for ticket in high {
        resolve(ticket);
    }
    // The reply lands slightly before the worker releases its admission
    // slot; wait for the count to actually reach zero.
    common::wait_until(|| server.pending() == 0);
    // Everything drained: the next submission observes the low-water
    // mark, disengages, and priority-0 traffic is admitted again.
    let after = server
        .submit_with(&sample(0.5), SubmitOptions::default().priority(0))
        .expect("brownout must disengage at the low-water mark");
    resolve(after);
    assert!(!server.brownout_engaged());
    let metrics = server.shutdown();
    assert_eq!(metrics.brownout_shed_requests, 1);
    assert_eq!(metrics.shed_requests, 0, "brownout sheds are counted apart");
    assert_eq!(metrics.requests, 4);
}

#[test]
fn traced_server_records_runtime_spans_with_identical_logits() {
    use snn_trace::{AttrValue, TraceCollector, TraceTarget};

    let model = Arc::new(dense_model(24));
    let x = sample(0.6);

    // Tracing off: the plain server's logits are the reference.
    let plain = StreamingServer::new(
        Arc::new(CsrEngine::compile(&model, &[1, 3, 4]).unwrap()),
        StreamingConfig::default(),
    );
    let expected = plain.submit(&x).unwrap().wait().unwrap().logits;
    plain.shutdown();

    let collector = Arc::new(TraceCollector::new(0));
    let server = StreamingServer::new_traced(
        Arc::new(CsrEngine::compile_shared(Arc::clone(&model), &[1, 3, 4]).unwrap()),
        StreamingConfig::default(),
        Arc::clone(&collector),
    );
    let trace = collector.mint_trace();
    let target = TraceTarget { trace, parent: 0 };
    let response = server
        .submit_with(&x, SubmitOptions::default().traced(target))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        response.logits.as_slice(),
        expected.as_slice(),
        "tracing must not perturb logits"
    );
    // All runtime spans are recorded before the ticket reply is sent, so
    // the tree is complete the moment `wait` returns.
    let spans = collector.trace(trace);
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    for required in [
        "queue.wait",
        "batch.flush",
        "batch.exec",
        "csr.chunk",
        "encode",
        "stage.exec",
    ] {
        assert!(names.contains(&required), "missing {required} in {names:?}");
    }
    let flush = spans.iter().find(|s| s.name == "batch.flush").unwrap();
    assert!(
        matches!(flush.attr("reason"), Some(AttrValue::Str(_))),
        "flush span carries its reason"
    );
    let exec = spans.iter().find(|s| s.name == "batch.exec").unwrap();
    assert_eq!(exec.attr("backend"), Some(&AttrValue::Str("csr")));
    // Engine spans parent under the batch execution span.
    let chunk = spans.iter().find(|s| s.name == "csr.chunk").unwrap();
    assert_eq!(chunk.parent_id, exec.span_id);
    assert!(chunk.attr("lanes").is_some() && chunk.attr("scratch").is_some());
    // Every non-root parent exists in the tree.
    let ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
    for span in &spans {
        assert!(
            span.parent_id == 0 || ids.contains(&span.parent_id),
            "orphan span {span:?}"
        );
    }
    server.shutdown();
}

#[test]
fn untraced_submissions_on_a_traced_server_record_nothing() {
    use snn_trace::TraceCollector;

    let collector = Arc::new(TraceCollector::new(0));
    let server = StreamingServer::new_traced(
        engine(25),
        StreamingConfig::default(),
        Arc::clone(&collector),
    );
    server.submit(&sample(0.5)).unwrap().wait().unwrap();
    server.shutdown();
    assert_eq!(collector.spans_recorded(), 0, "no target, no spans");
}

#[test]
fn worker_panic_surfaces_as_ticket_error() {
    let server = StreamingServer::new(
        Arc::new(PanickingBackend(dense_model(8))),
        StreamingConfig {
            threads: 1,
            max_batch: 2,
            max_delay: Duration::from_millis(1),
            max_pending: 0,
            brownout: None,
        },
    );
    let ticket = server.submit(&sample(0.5)).unwrap();
    // Blast-radius isolation retries the panicked request solo; it
    // panics again and is quarantined with a typed error, so the ticket
    // resolves instead of observing a dropped channel.
    let err = ticket.wait().unwrap_err();
    assert!(err.to_string().contains("quarantined"), "got: {err}");
    // The server survives the panic for later (failing) traffic.
    let err2 = server.submit(&sample(0.5)).unwrap().wait().unwrap_err();
    assert!(err2.to_string().contains("quarantined"), "got: {err2}");
}
