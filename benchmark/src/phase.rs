//! What one generator thread carries out of a phase, and the exact
//! bookkeeping of event counters.

use snn_sim::{LayerStats, RunStats};

use crate::record::Sample;
use crate::spans::Span;

/// Event counters summed over answers, exactly.
///
/// A streamed answer carries the counters of the *whole batch* it rode
/// in, so an answer from a batch of `b` adds `counters * SCALE / b`: the
/// `b` riders together add the batch exactly once, in integers, because
/// `SCALE` is a multiple of every batch size up to [`MAX_BATCH`]. Per-image
/// counters do not depend on batch composition, so neither does the sum.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AggStats {
    layers: Vec<[u128; 5]>,
    images: u128,
    latency_timesteps: u32,
}

/// Largest `max_batch` any workload configures.
pub const MAX_BATCH: usize = 8;
/// lcm(1..=8).
const SCALE: u128 = 840;

impl AggStats {
    /// Adds one answer's batch counters.
    pub fn add(&mut self, stats: &RunStats, batch_size: usize) {
        assert!(
            (1..=MAX_BATCH).contains(&batch_size),
            "batch of {batch_size} answers"
        );
        let share = SCALE / batch_size as u128;
        if self.layers.len() < stats.layers.len() {
            self.layers.resize(stats.layers.len(), [0; 5]);
        }
        for (mine, l) in self.layers.iter_mut().zip(&stats.layers) {
            let theirs = [
                l.input_spikes,
                l.output_spikes,
                l.neurons,
                l.synaptic_ops,
                l.encoder_iterations,
            ];
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t as u128 * share;
            }
        }
        self.images += stats.batch as u128 * share;
        self.latency_timesteps = self.latency_timesteps.max(stats.latency_timesteps);
    }

    /// Folds another thread's sum in.
    pub fn absorb(&mut self, other: &AggStats) {
        if self.layers.len() < other.layers.len() {
            self.layers.resize(other.layers.len(), [0; 5]);
        }
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
        self.images += other.images;
        self.latency_timesteps = self.latency_timesteps.max(other.latency_timesteps);
    }

    /// The counters of one of `parts` identical parts (pool cycles), or
    /// `None` if the sum does not divide — some batch was only partly
    /// seen, or the parts were not identical.
    pub fn per_part(&self, parts: u64) -> Option<RunStats> {
        let div = SCALE * u128::from(parts.max(1));
        let exact = |v: u128| v.is_multiple_of(div).then(|| (v / div) as usize);
        let layers = self
            .layers
            .iter()
            .map(|l| {
                Some(LayerStats {
                    input_spikes: exact(l[0])?,
                    output_spikes: exact(l[1])?,
                    neurons: exact(l[2])?,
                    synaptic_ops: exact(l[3])?,
                    encoder_iterations: exact(l[4])?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RunStats {
            batch: exact(self.images)?,
            layers,
            latency_timesteps: self.latency_timesteps,
        })
    }
}

/// Per-answer detail a traced run keeps for the per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct Detail {
    pub queue_wait_us: Vec<f64>,
    pub exec_us: Vec<f64>,
    /// Client latency minus the gateway's own `e2e_us` (HTTP only).
    pub overhead_us: Vec<f64>,
    /// Σ 1/batch_size: the number of batches the answers rode in.
    pub batches: f64,
}

/// Everything one generator thread (or all of them, merged) saw.
#[derive(Debug, Default)]
pub struct PhaseOut {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Refused, errored or bit-mismatched answers.
    pub failed: u64,
    /// OK answers whose top-1 equals the f32 reference's.
    pub top1_match: u64,
    /// Exact counter sums (in-process workloads).
    pub agg: AggStats,
    /// Σ `energy_uj` over OK answers (HTTP workloads).
    pub energy_uj_sum: f64,
    /// Requests sent more than 1 ms after they were due (open loop).
    pub late: u64,
    /// On-CPU ns of the generator threads themselves.
    pub gen_cpu_ns: u64,
    /// First failure, for the error message.
    pub first_failure: Option<String>,
    pub detail: Option<Detail>,
    pub spans: Vec<Span>,
}

impl PhaseOut {
    /// A fresh accumulator; `traced` keeps per-answer detail and spans.
    pub fn new(traced: bool) -> Self {
        Self {
            detail: traced.then(Detail::default),
            ..Self::default()
        }
    }

    /// The result of a phase that could not start.
    pub fn failed(traced: bool, why: String) -> Self {
        let mut out = Self::new(traced);
        out.fail(|| why);
        out
    }

    /// Counts one failed request.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Folds another generator thread's results in.
    pub fn merge(&mut self, other: PhaseOut) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.top1_match += other.top1_match;
        self.agg.absorb(&other.agg);
        self.energy_uj_sum += other.energy_uj_sum;
        self.late += other.late;
        self.gen_cpu_ns += other.gen_cpu_ns;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        if let (Some(mine), Some(theirs)) = (&mut self.detail, other.detail) {
            mine.queue_wait_us.extend(theirs.queue_wait_us);
            mine.exec_us.extend(theirs.exec_us);
            mine.overhead_us.extend(theirs.overhead_us);
            mine.batches += theirs.batches;
        }
        self.spans.extend(other.spans);
    }

    /// Correct answers.
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_stats(k: usize) -> RunStats {
        RunStats {
            batch: 1,
            layers: vec![
                LayerStats {
                    input_spikes: 10 + k,
                    output_spikes: 3,
                    neurons: 8,
                    synaptic_ops: 100 + 7 * k,
                    encoder_iterations: 5,
                },
                LayerStats {
                    input_spikes: 3,
                    output_spikes: 1,
                    neurons: 4,
                    synaptic_ops: 12 + k,
                    encoder_iterations: 2,
                },
            ],
            latency_timesteps: 48,
        }
    }

    /// Serves images `0..n` in batches of `b`, every rider seeing the
    /// whole batch's counters, as the streaming server does.
    fn serve(n: usize, b: usize) -> AggStats {
        let mut agg = AggStats::default();
        for chunk in (0..n).collect::<Vec<_>>().chunks(b) {
            let mut batch = RunStats::default();
            for &k in chunk {
                batch.absorb(&image_stats(k));
            }
            for _ in chunk {
                agg.add(&batch, chunk.len());
            }
        }
        agg
    }

    #[test]
    fn batch_composition_does_not_leak_into_sums() {
        let solo = serve(24, 1);
        for b in 2..=MAX_BATCH {
            assert_eq!(serve(24, b), solo, "batches of {b}");
        }
        let stats = solo.per_part(1).unwrap();
        assert_eq!(stats.batch, 24);
        assert_eq!(
            stats.layers[0].synaptic_ops,
            (0..24).map(|k| 100 + 7 * k).sum::<usize>()
        );
    }

    #[test]
    fn identical_parts_divide_exactly_and_a_lost_rider_shows() {
        let mut two = serve(24, 8);
        two.absorb(&serve(24, 3));
        assert_eq!(two.per_part(2), serve(24, 1).per_part(1));
        let mut torn = AggStats::default();
        let mut batch = image_stats(0);
        batch.absorb(&image_stats(1));
        torn.add(&batch, 2); // the other rider never counted: 21 spikes / 2
        assert_eq!(torn.per_part(1), None);
    }
}
