//! Work-conserving EDF batching for the streaming front-end.
//!
//! Requests arrive one at a time and are never held for riders: a request
//! that arrives while a worker is idle runs now, alone. Batches form only
//! out of **backlog** — whatever was admitted while every worker was busy
//! rides together when the next worker frees up, which is also when the
//! engine's per-chunk work amortises. [`DeadlineBatcher`] is that policy
//! as a state machine with two inputs: [`admit`](DeadlineBatcher::admit)
//! (a request arrived) and [`take`](DeadlineBatcher::take) (a worker is
//! idle). A take hands over up to `max_batch` pending requests in EDF
//! order — ascending deadline, ties broken by descending
//! [`SubmitOptions::priority`], then admission order — and leaves the rest
//! pending in that order.
//!
//! Every request carries a deadline ([`SubmitOptions::deadline`],
//! defaulting to the server's `max_delay` past its arrival). The deadline
//! is the request's place in the EDF order and the line its
//! [`deadline_misses`](crate::StreamingMetrics::deadline_misses)
//! accounting is drawn at; it is never a timer anything sleeps on.
//!
//! The policy never reads a clock and owns no thread, so its behaviour is
//! a function of the (admit, take) sequence alone and is unit and property
//! tested as such. The executors that drive it — worker threads and
//! blocking callers — and the [`Ticket`] handed to each submitter live
//! with [`crate::StreamingServer`] in the server module.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use snn_sim::RunStats;
use snn_tensor::Tensor;
use snn_trace::TraceTarget;
use ttfs_core::ConvertError;

use crate::metrics::StreamingRecorder;

/// What a worker found when it took a batch from the pending window.
/// Recorded per batch in [`StreamingMetrics`](crate::StreamingMetrics)
/// (the four `flushes_*` counters, which sum to `batches`) and as the
/// `reason` attribute of the `batch.flush` trace span. At the same
/// throughput a server taking mostly [`Idle`](Self::Idle) batches has
/// spare workers, one taking mostly [`MaxBatch`](Self::MaxBatch) is
/// saturated but keeping up, and one taking mostly
/// [`EdfDeadline`](Self::EdfDeadline) is making requests wait past their
/// deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushReason {
    /// The earliest pending deadline had already passed when the worker
    /// freed up: backlog made the request wait (the latency-pressure
    /// signal).
    EdfDeadline,
    /// The backlog filled the batch to `max_batch` requests.
    MaxBatch,
    /// Shutdown drained the window.
    Drain,
    /// A worker was free and took what was pending — fewer than
    /// `max_batch` requests, none past its deadline.
    Idle,
}

impl FlushReason {
    /// Stable label used in metrics and trace attributes.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::EdfDeadline => "edf_deadline",
            Self::MaxBatch => "max_batch",
            Self::Drain => "drain",
            Self::Idle => "idle",
        }
    }
}

impl std::fmt::Display for FlushReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration for the [`crate::StreamingServer`].
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// Worker threads, each taking batches from the pending window and
    /// executing them (0 = one per core) — and the most batches that
    /// execute at once, blocking callers included.
    pub threads: usize,
    /// The most requests a worker takes from the backlog at once
    /// (0 = clamp to 1).
    pub max_batch: usize,
    /// The deadline a plain [`submit`](crate::StreamingServer::submit)
    /// gets, counted from its arrival: its place in the EDF order and the
    /// line its deadline-miss accounting is drawn at. Nothing waits for it
    /// — a request runs as soon as a worker is free, however far off its
    /// deadline is.
    pub max_delay: Duration,
    /// Backpressure: the most admitted-but-unresolved requests (pending
    /// window + executing) the server holds before
    /// [`submit`](crate::StreamingServer::submit) starts returning
    /// [`SubmitError::QueueFull`]. `0` = unbounded (accept everything and
    /// let the queue grow — the pre-backpressure behavior).
    pub max_pending: usize,
    /// Priority brownout: above a pending high-water mark, shed the
    /// *lowest-priority* requests first instead of waiting for the
    /// indiscriminate [`max_pending`](Self::max_pending) cliff. `None`
    /// disables brownout (the default).
    pub brownout: Option<BrownoutConfig>,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            max_pending: 0,
            brownout: None,
        }
    }
}

/// Priority-brownout policy for [`StreamingConfig::brownout`].
///
/// When the admitted-but-unresolved count reaches
/// [`high_water`](Self::high_water) the server *engages* brownout and
/// sheds every submission whose priority is below
/// [`shed_below_priority`](Self::shed_below_priority) with
/// [`SubmitError::Brownout`]; higher-priority traffic still rides the
/// normal admission path (and the `max_pending` cliff, if configured).
/// Brownout *disengages* only once the count falls back to
/// [`low_water`](Self::low_water) — the hysteresis gap prevents the
/// engaged bit from flapping at the boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// Engage brownout when admitted-but-unresolved requests reach this.
    pub high_water: usize,
    /// Disengage once the count falls back to this (must be below
    /// `high_water` for real hysteresis).
    pub low_water: usize,
    /// While engaged, shed submissions with priority strictly below this.
    /// `1` sheds only priority-0 traffic; `u8::MAX` sheds all but the
    /// highest.
    pub shed_below_priority: u8,
}

/// Why [`crate::StreamingServer::submit`] refused a request.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The bounded submission queue is at
    /// [`max_pending`](StreamingConfig::max_pending) admitted-but-
    /// unresolved requests: shed the request now (retry, divert, or fail
    /// upstream) instead of queueing it into ever-growing latency.
    QueueFull {
        /// The configured bound that was hit.
        max_pending: usize,
    },
    /// The server is browning out: it is above its
    /// [`BrownoutConfig::high_water`] mark and this request's priority is
    /// below the shed threshold. Higher-priority traffic is still being
    /// served — retry later, or resubmit at a higher priority if the
    /// request genuinely warrants one.
    Brownout {
        /// The shed request's priority.
        priority: u8,
        /// The engaged threshold: priorities below this are shed.
        shed_below_priority: u8,
    },
    /// The request was structurally invalid or the server is shut down.
    Rejected(ConvertError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { max_pending } => write!(
                f,
                "submission queue full: {max_pending} requests already admitted and unresolved"
            ),
            Self::Brownout {
                priority,
                shed_below_priority,
            } => write!(
                f,
                "brownout: shedding priority {priority} (below {shed_below_priority}) while above the high-water mark"
            ),
            Self::Rejected(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::QueueFull { .. } | Self::Brownout { .. } => None,
            Self::Rejected(e) => Some(e),
        }
    }
}

impl From<ConvertError> for SubmitError {
    fn from(e: ConvertError) -> Self {
        Self::Rejected(e)
    }
}

/// Per-request scheduling options for
/// [`submit_with`](crate::StreamingServer::submit_with).
///
/// The defaults reproduce plain [`submit`](crate::StreamingServer::submit):
/// the request inherits the server's
/// [`max_delay`](StreamingConfig::max_delay) as its deadline and the lowest
/// priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubmitOptions {
    /// This request's deadline, counted from submission. `None` inherits
    /// the server's configured `max_delay`. Workers take the backlog in
    /// earliest-deadline-first order, so under load a tight deadline jumps
    /// ahead of relaxed requests admitted before it; a request that starts
    /// executing after its deadline counts as a deadline miss. A deadline
    /// never delays anything: with a worker free, an urgent and a relaxed
    /// request both run at once.
    pub deadline: Option<Duration>,
    /// EDF tie-break: on equal deadlines, higher-priority requests are
    /// taken first. Priority never evicts an admitted request.
    pub priority: u8,
    /// Where runtime-side spans for this request attach: the request's
    /// [`TraceId`](snn_trace::TraceId) plus the parent span id minted by
    /// the caller (the gateway's `http.request` root). `None` — the
    /// default — records nothing for this request even on a tracing
    /// server; scheduling is unaffected either way.
    pub trace: Option<TraceTarget>,
}

impl SubmitOptions {
    /// Options with an explicit deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Returns `self` with the given tie-break priority.
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Returns `self` with runtime spans attached to the given trace
    /// target (see [`SubmitOptions::trace`]).
    pub fn traced(mut self, target: TraceTarget) -> Self {
        self.trace = Some(target);
        self
    }
}

/// The work-conserving EDF policy: requests are admitted into a pending
/// set kept in EDF order, and an idle worker takes up to `max_batch` of
/// them off the front.
///
/// Generic over the queued item so the policy can be exercised without
/// spinning up a server. [`take`](Self::take) is told `now`; the batcher
/// never reads the clock.
#[derive(Debug)]
pub struct DeadlineBatcher<T> {
    /// Keyed `(deadline, Reverse(priority), admission seq)`: iteration
    /// order is take order, and `seq` makes every key unique.
    pending: BTreeMap<(Instant, Reverse<u8>, u64), T>,
    next_seq: u64,
    max_batch: usize,
    closed: bool,
}

impl<T> DeadlineBatcher<T> {
    /// Creates an empty, open batcher (`max_batch` is clamped to at least
    /// 1).
    pub fn new(max_batch: usize) -> Self {
        Self {
            pending: BTreeMap::new(),
            next_seq: 0,
            max_batch: max_batch.max(1),
            closed: false,
        }
    }

    /// Pending (admitted, not yet taken) requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Admits one item with its absolute deadline and priority.
    ///
    /// # Errors
    ///
    /// Hands the item back if the batcher is [closed](Self::close).
    pub fn admit(&mut self, item: T, deadline: Instant, priority: u8) -> Result<(), T> {
        if self.closed {
            return Err(item);
        }
        self.pending
            .insert((deadline, Reverse(priority), self.next_seq), item);
        self.next_seq += 1;
        Ok(())
    }

    /// Stops admission. What is already pending stays takeable, and every
    /// later take reports [`FlushReason::Drain`].
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// A worker is idle at `now`: takes up to `max_batch` pending items in
    /// EDF order and says what it found — [`Drain`](FlushReason::Drain)
    /// once closed, [`MaxBatch`](FlushReason::MaxBatch) if the batch is
    /// full, [`EdfDeadline`](FlushReason::EdfDeadline) if the earliest
    /// deadline is at or before `now`, [`Idle`](FlushReason::Idle)
    /// otherwise. `None` when nothing is pending. Costs
    /// O(`max_batch` · log pending), whatever the backlog.
    pub fn take(&mut self, now: Instant) -> Option<(Vec<T>, FlushReason)> {
        let earliest = self.pending.first_key_value()?.0 .0;
        let mut batch = Vec::with_capacity(self.max_batch.min(self.pending.len()));
        while batch.len() < self.max_batch {
            let Some((_, item)) = self.pending.pop_first() else {
                break;
            };
            batch.push(item);
        }
        let reason = if self.closed {
            FlushReason::Drain
        } else if batch.len() == self.max_batch {
            FlushReason::MaxBatch
        } else if earliest <= now {
            FlushReason::EdfDeadline
        } else {
            FlushReason::Idle
        };
        Some((batch, reason))
    }
}

/// The outcome of one streamed request.
#[derive(Debug, Clone)]
pub struct StreamedResponse {
    /// Decoded logits of this image, shape `[classes]`.
    pub logits: Tensor,
    /// Event statistics of the whole formed batch this request rode in
    /// (per-request attribution is not separable after integration).
    pub batch_stats: RunStats,
    /// Time from admission until an executor took the batch and began
    /// executing it — a worker, or on the blocking path possibly the
    /// caller itself, in which case this is the admit-and-take step alone.
    pub queue_wait: Duration,
    /// Backend execution time of the formed batch.
    pub exec_time: Duration,
    /// Images in the formed batch (1 ..= `max_batch`).
    pub batch_size: usize,
    /// Per-image energy of the formed batch in µJ, priced on the
    /// `snn-hw` processor model from the batch's measured event
    /// counters. `0.0` when the server has no energy pricer attached
    /// (telemetry disabled, or the backend exposes no model geometry).
    pub energy_uj: f64,
}

/// Handle to one in-flight streaming request, returned by
/// [`crate::StreamingServer::submit`].
///
/// Exactly one response arrives per ticket; consume it with a blocking
/// [`wait`](Self::wait) or poll with [`try_wait`](Self::try_wait).
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: Receiver<Result<StreamedResponse, ConvertError>>,
    /// Server recorder, so [`wait_timeout`](Self::wait_timeout) expiries
    /// land in [`StreamingMetrics::wait_timeouts`](crate::StreamingMetrics)
    /// — otherwise a gateway 504 is invisible server-side.
    recorder: Option<Arc<Mutex<StreamingRecorder>>>,
}

impl Ticket {
    pub(crate) fn new(
        id: u64,
        rx: Receiver<Result<StreamedResponse, ConvertError>>,
        recorder: Option<Arc<Mutex<StreamingRecorder>>>,
    ) -> Self {
        Self { id, rx, recorder }
    }

    /// Monotone submission id (submission order across the server).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request's batch has executed.
    ///
    /// # Errors
    ///
    /// Returns the backend's error if the formed batch failed, or a
    /// [`ConvertError::Structure`] if the server dropped the request
    /// (e.g. a worker panicked mid-batch).
    pub fn wait(self) -> Result<StreamedResponse, ConvertError> {
        self.rx.recv().unwrap_or_else(|_| Err(dropped_error()))
    }

    /// Non-blocking poll: `Ok(None)` while the request is still queued or
    /// executing, `Ok(Some(_))` exactly once when the result lands.
    ///
    /// # Errors
    ///
    /// Same conditions as [`wait`](Self::wait).
    pub fn try_wait(&mut self) -> Result<Option<StreamedResponse>, ConvertError> {
        match self.rx.try_recv() {
            Ok(Ok(response)) => Ok(Some(response)),
            Ok(Err(e)) => Err(e),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(dropped_error()),
        }
    }

    /// Bounded wait: blocks at most `timeout`, returning `Ok(None)` if the
    /// result has not landed by then. The ticket stays valid after a
    /// timeout — wait again or drop it to abandon the request (the batch
    /// still executes; the reply is discarded). This is how a network
    /// handler bounds the time it holds a connection hostage.
    ///
    /// # Errors
    ///
    /// Same conditions as [`wait`](Self::wait).
    pub fn wait_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<StreamedResponse>, ConvertError> {
        match self.rx.recv_timeout(timeout) {
            Ok(Ok(response)) => Ok(Some(response)),
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => {
                if let Some(recorder) = &self.recorder {
                    // A panic elsewhere under this lock must not take
                    // timeout accounting down with it: the guarded data is
                    // a plain recorder, always safe to keep using.
                    recorder
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .record_wait_timeout();
                }
                Ok(None)
            }
            Err(RecvTimeoutError::Disconnected) => Err(dropped_error()),
        }
    }
}

fn dropped_error() -> ConvertError {
    ConvertError::Structure(
        "streaming server dropped the request (worker panicked or server torn down mid-flight)"
            .into(),
    )
}

/// One queued streaming request as it travels submitter → window →
/// worker.
pub(crate) struct PendingRequest {
    /// Flat sample data (dims validated at submit).
    pub image: Vec<f32>,
    /// Submission instant (starts the end-to-end latency clock).
    pub enqueued: Instant,
    /// Absolute deadline (`enqueued` + the request's or the server's
    /// delay bound): the EDF key and the deadline-miss line.
    pub deadline: Instant,
    /// Trace attachment point for runtime-side spans, if the submitter
    /// asked for tracing ([`SubmitOptions::trace`]).
    pub trace: Option<TraceTarget>,
    /// Where the worker delivers the per-request slice of the batch result.
    pub reply: Sender<Result<StreamedResponse, ConvertError>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn empty_window_has_nothing_to_take() {
        let mut b = DeadlineBatcher::<u32>::new(4);
        assert_eq!(b.take(Instant::now()), None);
        b.close();
        assert_eq!(b.take(Instant::now()), None, "closed and empty: still None");
    }

    #[test]
    fn idle_take_hands_over_a_lone_request_at_once() {
        // The deadline is 100 ms off and the batch far from full: nothing
        // holds the request back.
        let base = Instant::now();
        let mut b = DeadlineBatcher::new(8);
        b.admit("only", at(base, 100), 0).unwrap();
        assert_eq!(b.take(base), Some((vec!["only"], FlushReason::Idle)));
        assert!(b.is_empty());
    }

    #[test]
    fn take_never_exceeds_max_batch_and_leftovers_keep_edf_order() {
        let base = Instant::now();
        let mut b = DeadlineBatcher::new(3);
        // Admitted in scrambled deadline order.
        for ms in [50u64, 10, 70, 30, 60, 20, 40] {
            b.admit(ms, at(base, ms), 0).unwrap();
        }
        assert_eq!(b.len(), 7);
        assert_eq!(
            b.take(base),
            Some((vec![10, 20, 30], FlushReason::MaxBatch))
        );
        // A later arrival sorts into the leftovers, not behind them.
        b.admit(45, at(base, 45), 0).unwrap();
        assert_eq!(
            b.take(base),
            Some((vec![40, 45, 50], FlushReason::MaxBatch))
        );
        assert_eq!(b.take(base), Some((vec![60, 70], FlushReason::Idle)));
        assert_eq!(b.take(base), None);
    }

    #[test]
    fn edf_deadline_means_the_head_of_the_backlog_is_already_late() {
        let base = Instant::now();
        let mut b = DeadlineBatcher::new(8);
        b.admit("relaxed", at(base, 100), 0).unwrap();
        b.admit("urgent", at(base, 5), 0).unwrap();
        // Taken at exactly the urgent deadline: late, and EDF-ordered.
        assert_eq!(
            b.take(at(base, 5)),
            Some((vec!["urgent", "relaxed"], FlushReason::EdfDeadline))
        );
        // A full batch reports MaxBatch even when its head is late.
        let mut b = DeadlineBatcher::new(2);
        b.admit(1u8, base, 0).unwrap();
        b.admit(2u8, base, 0).unwrap();
        assert_eq!(
            b.take(at(base, 1)),
            Some((vec![1, 2], FlushReason::MaxBatch))
        );
    }

    #[test]
    fn priority_breaks_deadline_ties_then_admission_order() {
        let base = Instant::now();
        let mut b = DeadlineBatcher::new(10);
        let d = at(base, 10);
        b.admit("low-first", d, 0).unwrap();
        b.admit("high", d, 7).unwrap();
        b.admit("low-second", d, 0).unwrap();
        b.admit("earlier", at(base, 3), 0).unwrap();
        let (batch, _) = b.take(base).unwrap();
        assert_eq!(batch, vec!["earlier", "high", "low-first", "low-second"]);
    }

    #[test]
    fn max_batch_zero_clamps_to_one() {
        let base = Instant::now();
        let mut b = DeadlineBatcher::new(0);
        b.admit("x", at(base, 1), 0).unwrap();
        b.admit("y", at(base, 2), 0).unwrap();
        assert_eq!(b.take(base), Some((vec!["x"], FlushReason::MaxBatch)));
    }

    #[test]
    fn close_refuses_admission_and_drains_in_max_batch_chunks() {
        let base = Instant::now();
        let mut b = DeadlineBatcher::new(2);
        for i in 0..3u32 {
            b.admit(i, at(base, u64::from(i)), 0).unwrap();
        }
        assert!(!b.is_closed());
        b.close();
        assert!(b.is_closed());
        assert_eq!(b.admit(9, base, 0), Err(9), "the item comes back");
        assert_eq!(b.take(base), Some((vec![0, 1], FlushReason::Drain)));
        assert_eq!(b.take(base), Some((vec![2], FlushReason::Drain)));
        assert_eq!(b.take(base), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of admits and takes, against the obvious
        /// model (sort everything pending, cut at `max_batch`): each take
        /// is exactly the model's prefix — so nothing leaves behind an
        /// item with a later key, and back-to-back takes concatenate
        /// EDF-sorted — and every admitted item comes out exactly once.
        #[test]
        fn takes_match_a_sorted_model_and_lose_nothing(
            max_batch in 1usize..6,
            ops in proptest::collection::vec((0u8..3, 0u64..12, 0u8..3, 0u64..12), 1..120),
        ) {
            let base = Instant::now();
            let mut b = DeadlineBatcher::new(max_batch);
            // (deadline_ms, Reverse(priority), id): ids ascend with
            // admission, so the tuple order is the EDF key order.
            let mut model: Vec<(u64, Reverse<u8>, usize)> = Vec::new();
            let mut admitted = 0usize;
            let mut taken: Vec<usize> = Vec::new();
            let mut check_take = |b: &mut DeadlineBatcher<usize>,
                                  model: &mut Vec<(u64, Reverse<u8>, usize)>,
                                  now_ms: u64|
             -> Result<(), TestCaseError> {
                model.sort();
                let cut = model.len().min(max_batch);
                let expected: Vec<(u64, Reverse<u8>, usize)> = model.drain(..cut).collect();
                match b.take(at(base, now_ms)) {
                    None => prop_assert!(expected.is_empty()),
                    Some((batch, reason)) => {
                        let ids: Vec<usize> = expected.iter().map(|e| e.2).collect();
                        prop_assert_eq!(&batch, &ids);
                        let want = if batch.len() == max_batch {
                            FlushReason::MaxBatch
                        } else if expected[0].0 <= now_ms {
                            FlushReason::EdfDeadline
                        } else {
                            FlushReason::Idle
                        };
                        prop_assert_eq!(reason, want);
                        taken.extend(batch);
                    }
                }
                prop_assert_eq!(b.len(), model.len());
                Ok(())
            };
            for (kind, deadline_ms, priority, now_ms) in ops {
                if kind < 2 {
                    prop_assert!(b.admit(admitted, at(base, deadline_ms), priority).is_ok());
                    model.push((deadline_ms, Reverse(priority), admitted));
                    admitted += 1;
                } else {
                    check_take(&mut b, &mut model, now_ms)?;
                }
            }
            while !b.is_empty() {
                check_take(&mut b, &mut model, 0)?;
            }
            taken.sort_unstable();
            prop_assert_eq!(taken, (0..admitted).collect::<Vec<_>>());
        }
    }
}
