//! What a measured phase leaves behind, and how it becomes numbers.
//!
//! Each completed request takes the next global sequence number and stores
//! `(seq, latency)`. Every `block` completions the finishing thread stamps
//! a [`Mark`] — wall time and process CPU time — so segments are cut on
//! exact request counts after the fact, whatever the number of generator
//! threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::procfs::process_cpu_ns;
use crate::stats::{median, percentile_sorted, segment_ranges, spread};

/// The clocks at a block boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    /// Requests completed so far.
    pub done: u64,
    /// Nanoseconds since the phase began.
    pub t_ns: u64,
    /// Process on-CPU nanoseconds (all threads).
    pub cpu_ns: u64,
}

/// One completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Global completion order.
    pub seq: u32,
    /// Latency, ns (saturating at ~4.29 s).
    pub lat_ns: u32,
}

/// Shared by the generator threads of one phase.
pub struct Recorder {
    t0: Instant,
    block: u64,
    counter: AtomicU64,
    marks: Mutex<Vec<Mark>>,
}

impl Recorder {
    /// Starts the phase clock; `block` completions separate two marks.
    pub fn new(block: usize) -> Self {
        Self::starting_at(block, Instant::now())
    }

    /// A phase whose clock starts at `t0` (slightly in the future, so
    /// several generator threads can line up on it).
    pub fn starting_at(block: usize, t0: Instant) -> Self {
        let start = Mark {
            done: 0,
            t_ns: 0,
            cpu_ns: process_cpu_ns(),
        };
        Self {
            t0,
            block: block.max(1) as u64,
            counter: AtomicU64::new(0),
            marks: Mutex::new(vec![start]),
        }
    }

    /// The instant the phase began.
    pub fn t0(&self) -> Instant {
        self.t0
    }

    /// Registers one completion observed at `at` with the given latency.
    pub fn complete(&self, at: Instant, latency_ns: u128) -> Sample {
        let seq = self.counter.fetch_add(1, Ordering::Relaxed);
        if (seq + 1).is_multiple_of(self.block) {
            let mark = Mark {
                done: seq + 1,
                t_ns: at.saturating_duration_since(self.t0).as_nanos() as u64,
                cpu_ns: process_cpu_ns(),
            };
            self.marks
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(mark);
        }
        Sample {
            seq: seq as u32,
            lat_ns: latency_ns.min(u32::MAX as u128) as u32,
        }
    }

    /// Ends the phase: the marks in order, plus a closing mark at `end`.
    pub fn finish(self, end: Instant) -> (Vec<Mark>, Mark) {
        let mut marks = self.marks.into_inner().unwrap_or_else(|e| e.into_inner());
        marks.sort_by_key(|m| m.done);
        let last = Mark {
            done: self.counter.into_inner(),
            t_ns: end.saturating_duration_since(self.t0).as_nanos() as u64,
            cpu_ns: process_cpu_ns(),
        };
        (marks, last)
    }
}

/// The timing figures of one phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timing {
    /// Segment medians — the figures the benchmark reports.
    pub throughput_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub cpu_s_per_1k: f64,
    /// Segments the medians were taken over.
    pub segments: usize,
    /// `(max - min) / median` of segment throughput.
    pub segment_spread: f64,
    /// Throughput of each segment, in order.
    pub segment_throughputs: Vec<f64>,
    /// Un-robustified whole-phase figures, kept as diagnostics so a real
    /// periodic stall cannot hide behind the medians.
    pub whole_throughput_per_s: f64,
    pub whole_latency_p50_ms: f64,
    pub whole_latency_p95_ms: f64,
    pub whole_latency_p99_ms: f64,
    pub whole_cpu_s_per_1k: f64,
    /// Process CPU seconds over the whole phase.
    pub whole_cpu_s: f64,
}

fn sorted_ms(samples: &[Sample]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().map(|s| f64::from(s.lat_ns) / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Turns marks and samples into [`Timing`]. `marks[0]` is the phase start;
/// requests after the last full block count only in the whole-phase
/// figures.
pub fn analyse(marks: &[Mark], last: Mark, mut samples: Vec<Sample>) -> Timing {
    let mut timing = Timing::default();
    if samples.is_empty() || last.t_ns == 0 {
        return timing;
    }
    samples.sort_by_key(|s| s.seq);
    let all = sorted_ms(&samples);
    let total = samples.len() as f64;
    timing.whole_throughput_per_s = total / (last.t_ns as f64 / 1e9);
    timing.whole_latency_p50_ms = percentile_sorted(&all, 0.50);
    timing.whole_latency_p95_ms = percentile_sorted(&all, 0.95);
    timing.whole_latency_p99_ms = percentile_sorted(&all, 0.99);
    timing.whole_cpu_s = (last.cpu_ns - marks[0].cpu_ns) as f64 / 1e9;
    timing.whole_cpu_s_per_1k = timing.whole_cpu_s / total * 1e3;

    let (mut thr, mut p50, mut p95, mut cpu) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (a, b) in segment_ranges(marks.len() - 1) {
        let (from, to) = (marks[a], marks[b]);
        let requests = (to.done - from.done) as f64;
        let lat = sorted_ms(&samples[from.done as usize..to.done as usize]);
        thr.push(requests / ((to.t_ns - from.t_ns) as f64 / 1e9));
        p50.push(percentile_sorted(&lat, 0.50));
        p95.push(percentile_sorted(&lat, 0.95));
        cpu.push((to.cpu_ns - from.cpu_ns) as f64 / 1e9 / requests * 1e3);
    }
    timing.segments = thr.len();
    timing.throughput_per_s = median(&thr);
    timing.latency_p50_ms = median(&p50);
    timing.latency_p95_ms = median(&p95);
    timing.cpu_s_per_1k = median(&cpu);
    timing.segment_spread = spread(&thr);
    timing.segment_throughputs = thr;
    timing
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 100 requests in blocks of 10, one per ms, latency = seq µs; block 4
    /// stalls for 91 ms extra.
    fn synthetic() -> (Vec<Mark>, Mark, Vec<Sample>) {
        let mut marks = vec![Mark {
            done: 0,
            t_ns: 0,
            cpu_ns: 1_000,
        }];
        let mut t = 0u64;
        for b in 1..=10u64 {
            t += if b == 4 { 101_000_000 } else { 10_000_000 };
            marks.push(Mark {
                done: b * 10,
                t_ns: t,
                cpu_ns: 1_000 + b * 5_000_000,
            });
        }
        let samples = (0..100u32)
            .rev()
            .map(|seq| Sample {
                seq,
                lat_ns: (seq + 1) * 1000,
            })
            .collect();
        let last = *marks.last().unwrap();
        (marks, last, samples)
    }

    #[test]
    fn segment_medians_by_hand() {
        let (marks, last, samples) = synthetic();
        let t = analyse(&marks, last, samples);
        assert_eq!(t.segments, 10);
        // Nine segments run at 10 req / 10 ms, one at 10 / 101 ms.
        assert!((t.throughput_per_s - 1000.0).abs() < 1e-9);
        assert!((t.whole_throughput_per_s - 100.0 / 0.191).abs() < 1e-6);
        assert!(t.segment_spread > 0.9);
        // Segment k holds latencies 10k+1 ..= 10k+10 µs: p50 = 10k+5, and
        // the median over k = 0..9 of those is (45 + 55) / 2 = 50 µs.
        assert!((t.latency_p50_ms - 0.050).abs() < 1e-12);
        assert!((t.latency_p95_ms - 0.055).abs() < 1e-12);
        assert!((t.whole_latency_p99_ms - 0.099).abs() < 1e-12);
        // 5 ms of CPU per 10 requests.
        assert!((t.cpu_s_per_1k - 0.5).abs() < 1e-9);
        assert!((t.whole_cpu_s_per_1k - 0.5).abs() < 1e-9);
    }

    #[test]
    fn recorder_marks_every_block_and_keeps_the_tail_out_of_segments() {
        let rec = Recorder::new(4);
        let t0 = rec.t0();
        let mut samples = Vec::new();
        for i in 0..10u64 {
            let at = t0 + std::time::Duration::from_millis(i + 1);
            samples.push(rec.complete(at, 1_000_000));
        }
        let (marks, last) = rec.finish(t0 + std::time::Duration::from_millis(10));
        assert_eq!(marks.iter().map(|m| m.done).collect::<Vec<_>>(), [0, 4, 8]);
        assert_eq!(marks[1].t_ns, 4_000_000);
        assert_eq!(last.done, 10);
        let t = analyse(&marks, last, samples);
        assert_eq!(t.segments, 2);
        assert!((t.throughput_per_s - 1000.0).abs() < 1e-6);
        assert!((t.whole_throughput_per_s - 1000.0).abs() < 1e-6);
        assert_eq!(analyse(&marks, last, Vec::new()), Timing::default());
    }
}
