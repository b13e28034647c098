//! The four workloads behind one small interface.

use std::time::Duration;

use snn_runtime::energy::EnergyPricer;
use snn_runtime::{StreamingConfig, StreamingServer};
use snn_sim::RunStats;

use crate::check::{logits_match, top1};
use crate::inputs::POOL;
use crate::models::{nproc, Served};
use crate::phase::{AggStats, PhaseOut, MAX_BATCH};
use crate::record::Timing;
use crate::spec;

pub mod engine;
mod http;
pub mod paced;
pub mod small;

/// One phase of load: what the generators saw and the timing cut from it.
pub struct Phase {
    pub out: PhaseOut,
    pub timing: Timing,
    /// Identical parts (pool cycles) the phase consisted of; exact counts
    /// are taken per part.
    pub parts: u64,
    /// Batches the servers flushed during the phase, and how many of them
    /// because a deadline expired.
    pub batches: u64,
    pub deadline_flushes: u64,
}

/// The count metrics of a phase.
pub struct Counts {
    pub energy_uj_per_inference: f64,
    pub sops_per_inference: f64,
}

/// What `main` needs from a workload.
pub trait Workload {
    /// Tears the serving stack down and builds it again from the
    /// artifact(s) on disk: load, compile, start server (and gateway),
    /// first correct answer from every model. Returns the seconds taken.
    fn cold_start(&mut self) -> Result<f64, String>;

    /// Requests per second this workload completes on the seed commit on
    /// the 2-core box the benchmark was sized on. A phase meant to last
    /// `s` seconds is given `s * nominal_rate()` requests: fixed work, so
    /// counts (and memory that grows with them) repeat exactly.
    fn nominal_rate(&self) -> f64;

    /// Drives `requests` requests (rounded to whole cycles of the
    /// workload's inputs, at least one) on the current stack.
    fn phase(&mut self, requests: usize, traced: bool) -> Phase;

    /// Energy and synaptic operations per inference of `phase`.
    fn counts(&self, phase: &Phase) -> Result<Counts, String>;

    /// The models this workload serves (for the batch-composition guard
    /// and the per-layer counts).
    fn served(&self) -> Vec<&Served>;

    /// Whether requests are sent on a schedule (open loop) rather than
    /// each after the previous answer.
    fn open_loop(&self) -> bool {
        false
    }
}

/// Builds a workload by name; everything `seed` decides is made here.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        spec::ENGINE_F32 => Box::new(engine::EngineClosed::new(Served::vgg_f32(seed), seed)),
        spec::ENGINE_QUANT => Box::new(engine::EngineClosed::new(Served::vgg_quant(seed), seed)),
        spec::HTTP_VGG => Box::new(paced::HttpPaced::new(Served::vgg_f32(seed), seed)),
        spec::HTTP_SMALL => Box::new(small::HttpSmall::new(seed)),
        _ => return None,
    })
}

/// The streaming configuration of the saturating in-process workloads.
pub fn engine_config(max_batch: usize) -> StreamingConfig {
    StreamingConfig {
        threads: nproc(),
        max_batch,
        max_delay: Duration::from_millis(2),
        max_pending: 0,
        brownout: None,
    }
}

/// Checks one answer against the pool's ground truth and books it.
pub fn book_answer(out: &mut PhaseOut, served: &Served, image: usize, logits: &[f32]) -> bool {
    if logits_match(logits, &served.want[image]) {
        out.attempted += 1;
        out.top1_match += u64::from(top1(logits) == served.f32_top1[image]);
        true
    } else {
        out.fail(|| {
            format!(
                "{}: logits of pool image {image} differ from the EventSnn reference",
                served.artifact.info.name
            )
        });
        false
    }
}

/// Prices exact per-part counters on the paper's processor model.
pub fn price(served: &Served, per_part: &RunStats) -> Result<f64, String> {
    let pricer =
        EnergyPricer::new(&served.artifact.model, served.dims()).map_err(|e| e.to_string())?;
    Ok(pricer.price_per_image_uj(per_part))
}

/// The exactness guard: every served model answers one pool cycle through
/// an in-process server at `max_batch` 1 and again at 8; the summed event
/// counters, the priced energy and the top-1 agreement must be identical,
/// or batch composition leaks into the count metrics. Returns the
/// counters summed over the models (one cycle each).
pub fn batch_composition_guard(models: &[&Served]) -> Result<RunStats, String> {
    let mut total = RunStats::default();
    for served in models {
        let mut seen: Option<(RunStats, u64, u64)> = None;
        for max_batch in [1, MAX_BATCH] {
            let (backend, _) = served.artifact.compile().map_err(|e| e.to_string())?;
            let server = StreamingServer::new(backend, engine_config(max_batch));
            let tickets: Vec<_> = served
                .pool
                .iter()
                .map(|image| server.submit(image))
                .collect();
            let mut out = PhaseOut::new(false);
            let mut agg = AggStats::default();
            for (image, ticket) in tickets.into_iter().enumerate() {
                let answer = ticket
                    .map_err(|e| e.to_string())?
                    .wait()
                    .map_err(|e| e.to_string())?;
                book_answer(&mut out, served, image, answer.logits.as_slice());
                agg.add(&answer.batch_stats, answer.batch_size);
            }
            server.shutdown();
            let name = &served.artifact.info.name;
            if out.failed > 0 {
                return Err(format!(
                    "{name}: {} wrong answers at max_batch {max_batch}",
                    out.failed
                ));
            }
            let stats = agg.per_part(1).ok_or_else(|| {
                format!("{name}: counters do not divide at max_batch {max_batch}")
            })?;
            let energy = price(served, &stats)?.to_bits();
            let this = (stats, energy, out.top1_match);
            match &seen {
                None => seen = Some(this),
                Some(first) if *first != this => {
                    return Err(format!("{name}: counts differ between max_batch 1 and {max_batch}: batch composition leaks"));
                }
                Some(_) => {}
            }
        }
        let (stats, _, _) = seen.expect("two passes ran");
        debug_assert_eq!(stats.batch, POOL);
        total.absorb(&stats);
    }
    Ok(total)
}
