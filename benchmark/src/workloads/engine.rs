//! `engine_f32_closed` / `engine_quant_closed`: a VGG-16 artifact served
//! by an in-process `StreamingServer` with one worker per core, kept
//! saturated by one generator thread holding 16 tickets outstanding.
//!
//! The generator submits without blocking and waits oldest-first. A phase
//! is a whole number of cycles over the seeded order of the 256-image
//! pool, so every phase sums the same counters per cycle.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

use snn_runtime::{ModelArtifact, StreamingServer, Ticket};

use super::{book_answer, engine_config, price, Counts, Phase, Workload};
use crate::inputs::{permutation, POOL};
use crate::models::{Scratch, Served};
use crate::phase::{PhaseOut, MAX_BATCH};
use crate::procfs::thread_cpu_ns;
use crate::record::{analyse, Recorder};
use crate::spans::{self, push};

/// Tickets the generator keeps in flight.
pub const OUTSTANDING: usize = 16;

pub struct EngineClosed {
    served: Served,
    order: Vec<u32>,
    path: PathBuf,
    server: Option<StreamingServer>,
    quantised: bool,
    _scratch: Scratch,
}

impl EngineClosed {
    pub fn new(served: Served, seed: u64) -> Self {
        let scratch = Scratch::new("engine");
        let path = served.save(&scratch.0);
        let quantised = served.artifact.info.backend.quant_config().is_some();
        Self {
            order: permutation(seed, 0x0DE2, POOL),
            quantised,
            served,
            path,
            server: None,
            _scratch: scratch,
        }
    }
}

impl Workload for EngineClosed {
    fn cold_start(&mut self) -> Result<f64, String> {
        if let Some(old) = self.server.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let artifact = ModelArtifact::load(&self.path).map_err(|e| e.to_string())?;
        let (backend, _) = artifact.compile().map_err(|e| e.to_string())?;
        let server = StreamingServer::new(backend, engine_config(MAX_BATCH));
        let first = server
            .submit(&self.served.pool[0])
            .map_err(|e| e.to_string())?;
        let answer = first.wait().map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        let mut probe = PhaseOut::new(false);
        if !book_answer(&mut probe, &self.served, 0, answer.logits.as_slice()) {
            return Err(probe.first_failure.unwrap_or_default());
        }
        self.server = Some(server);
        Ok(secs)
    }

    fn nominal_rate(&self) -> f64 {
        if self.quantised {
            560.0
        } else {
            1500.0
        }
    }

    fn phase(&mut self, requests: usize, traced: bool) -> Phase {
        let server = self.server.as_ref().expect("cold_start before phase");
        let cycles = ((requests + POOL / 2) / POOL).max(1);
        let total = cycles * POOL;
        let before = server.metrics();
        let cpu0 = thread_cpu_ns();
        let mut out = PhaseOut::new(traced);
        // A mark every ~100 ms of work.
        let recorder = Recorder::new(if self.quantised { 64 } else { 128 });
        out.samples.reserve_exact(total);
        let t0 = recorder.t0();
        let since = |at: Instant| at.saturating_duration_since(t0).as_nanos() as u64;
        let mut inflight: VecDeque<(u32, usize, Instant, Instant, Ticket)> =
            VecDeque::with_capacity(OUTSTANDING);
        let mut submitted = 0usize;
        loop {
            while submitted < total && inflight.len() < OUTSTANDING {
                let image = self.order[submitted % POOL] as usize;
                let start = Instant::now();
                match server.submit(&self.served.pool[image]) {
                    Ok(ticket) => {
                        inflight.push_back((submitted as u32, image, start, Instant::now(), ticket))
                    }
                    Err(e) => out.fail(|| format!("submit refused: {e}")),
                }
                submitted += 1;
            }
            let Some((req, image, start, sent, ticket)) = inflight.pop_front() else {
                break;
            };
            let wait_from = Instant::now();
            let answer = ticket.wait();
            let end = Instant::now();
            out.samples
                .push(recorder.complete(end, (end - start).as_nanos()));
            let answer = match answer {
                Ok(answer) => answer,
                Err(e) => {
                    out.fail(|| format!("ticket failed: {e}"));
                    continue;
                }
            };
            if book_answer(&mut out, &self.served, image, answer.logits.as_slice()) {
                out.agg.add(&answer.batch_stats, answer.batch_size);
            }
            if let Some(detail) = &mut out.detail {
                let (queue, exec) = (
                    answer.queue_wait.as_nanos() as u64,
                    answer.exec_time.as_nanos() as u64,
                );
                detail.queue_wait_us.push(queue as f64 / 1e3);
                detail.exec_us.push(exec as f64 / 1e3);
                detail.batches += 1.0 / answer.batch_size as f64;
                let s = &mut out.spans;
                let (root, submit) = (since(start), (sent - start).as_nanos() as u64);
                push(
                    s,
                    spans::REQUEST,
                    spans::NO_PARENT,
                    0,
                    req,
                    root,
                    (end - start).as_nanos() as u64,
                );
                push(s, spans::GEN_SUBMIT, spans::REQUEST, 0, req, root, submit);
                push(
                    s,
                    spans::QUEUE_WAIT,
                    spans::REQUEST,
                    0,
                    req,
                    root + submit,
                    queue,
                );
                push(
                    s,
                    spans::EXEC,
                    spans::REQUEST,
                    0,
                    req,
                    root + submit + queue,
                    exec,
                );
                push(
                    s,
                    spans::GEN_WAIT,
                    spans::NO_PARENT,
                    0,
                    req,
                    since(wait_from),
                    (end - wait_from).as_nanos() as u64,
                );
            }
        }
        let (marks, last) = recorder.finish(Instant::now());
        out.gen_cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
        let after = server.metrics();
        let timing = analyse(&marks, last, std::mem::take(&mut out.samples));
        Phase {
            timing,
            parts: cycles as u64,
            batches: after.batches - before.batches,
            deadline_flushes: after.flushes_edf_deadline - before.flushes_edf_deadline,
            out,
        }
    }

    fn counts(&self, phase: &Phase) -> Result<Counts, String> {
        let per_cycle = phase
            .out
            .agg
            .per_part(phase.parts)
            .ok_or("event counters do not divide into whole pool cycles: an answer was lost or cycles differ")?;
        Ok(Counts {
            energy_uj_per_inference: price(&self.served, &per_cycle)?,
            sops_per_inference: per_cycle.total_synaptic_ops() as f64 / POOL as f64,
        })
    }

    fn served(&self) -> Vec<&Served> {
        vec![&self.served]
    }
}

impl Drop for EngineClosed {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
