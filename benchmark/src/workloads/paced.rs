//! `http_vgg_paced`: the w16 f32 model behind the HTTP gateway on
//! loopback, driven open-loop at 100 requests a second.
//!
//! Two generator threads hold one keep-alive connection each. Every 20 ms
//! both fire, the second a seeded 0–3 ms after the first, so its request
//! lands inside or outside the first one's 2 ms batching window. A seeded
//! half of the requests carry `deadline_ms` and `priority`. Latency runs
//! from the instant a request was *due*, so a stall is charged to every
//! request it delays.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use snn_gateway::{Gateway, GatewayConfig};
use snn_runtime::{ModelArtifact, StreamingConfig, StreamingServer};

use super::http::{engine_sops_per_image, Generator};
use super::{book_answer, Counts, Phase, Workload};
use crate::client::{parse_answer, Conn, Rendered};
use crate::inputs::{paced_schedule, permutation, Tick, POOL};
use crate::models::{Scratch, Served};
use crate::phase::PhaseOut;
use crate::record::{analyse, Recorder};

/// Both generators fire once per tick.
pub const TICK: Duration = Duration::from_millis(20);
const GENERATORS: usize = 2;
/// Completions between two timing marks: half a second of schedule.
const BLOCK: usize = 50;
/// Head start the generator threads get to connect before the first tick.
const LINE_UP: Duration = Duration::from_millis(20);
/// A request sent this long after it was due counts as late.
const LATE: Duration = Duration::from_millis(1);

struct Stack {
    gateway: Gateway,
    server: Arc<StreamingServer>,
}

pub struct HttpPaced {
    served: Served,
    order: Vec<u32>,
    schedule: Vec<Tick>,
    rendered: Vec<Rendered>,
    /// Synaptic operations per image as the served engine counts them.
    engine_sops: f64,
    path: PathBuf,
    stack: Option<Stack>,
    _scratch: Scratch,
}

impl HttpPaced {
    pub fn new(served: Served, seed: u64) -> Self {
        let scratch = Scratch::new("paced");
        let path = served.save(&scratch.0);
        Self {
            order: permutation(seed, 0xACED, POOL),
            schedule: paced_schedule(seed, 4096),
            rendered: served
                .pool
                .iter()
                .map(|image| Rendered::new("/v1/infer", image))
                .collect(),
            engine_sops: engine_sops_per_image(&served),
            served,
            path,
            stack: None,
            _scratch: scratch,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.stack
            .as_ref()
            .expect("cold_start before phase")
            .gateway
            .local_addr()
    }

    fn teardown(&mut self) {
        if let Some(mut stack) = self.stack.take() {
            stack.gateway.shutdown();
            stack.server.shutdown();
        }
    }

    /// One generator thread's share of a phase.
    fn generate(&self, g: usize, ticks: usize, recorder: &Recorder, traced: bool) -> PhaseOut {
        let mut generator = match Generator::connect(self.addr(), recorder, traced, g as u8, ticks)
        {
            Ok(generator) => generator,
            Err(why) => return PhaseOut::failed(traced, why),
        };
        let mut wire = Vec::new();
        for k in 0..ticks {
            let tick = &self.schedule[k % self.schedule.len()];
            let image = self.order[(GENERATORS * k + g) % POOL] as usize;
            self.rendered[image].write_into(tick.urgency[g], &mut wire);
            let jitter = if g == 1 {
                Duration::from_micros(tick.jitter_us.into())
            } else {
                Duration::ZERO
            };
            let due = recorder.t0() + TICK * k as u32 + jitter;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            generator.out.late += u64::from(due.elapsed() > LATE);
            if !generator.exchange(&self.served, image, &wire, Some(due), k as u32) {
                break;
            }
        }
        generator.finish()
    }
}

impl Workload for HttpPaced {
    fn cold_start(&mut self) -> Result<f64, String> {
        self.teardown();
        let t0 = Instant::now();
        let artifact = ModelArtifact::load(&self.path).map_err(|e| e.to_string())?;
        let (backend, _) = artifact.compile().map_err(|e| e.to_string())?;
        let server = Arc::new(StreamingServer::new(backend, StreamingConfig::default()));
        let gateway = Gateway::start(
            Arc::clone(&server),
            GatewayConfig::for_dims(self.served.dims()),
        )
        .map_err(|e| e.to_string())?;
        let mut conn = Conn::connect(gateway.local_addr()).map_err(|e| e.to_string())?;
        conn.send(&self.rendered[0].plain())
            .map_err(|e| e.to_string())?;
        let mut logits = Vec::new();
        let (status, body) = conn.recv().map_err(|e| e.to_string())?;
        let parsed = parse_answer(body, &mut logits);
        let secs = t0.elapsed().as_secs_f64();
        self.stack = Some(Stack { gateway, server });
        let mut probe = PhaseOut::new(false);
        if status != 200 || parsed.is_none() || !book_answer(&mut probe, &self.served, 0, &logits) {
            return Err(format!(
                "first answer wrong (HTTP {status}): {}",
                probe.first_failure.unwrap_or_default()
            ));
        }
        Ok(secs)
    }

    fn nominal_rate(&self) -> f64 {
        GENERATORS as f64 / TICK.as_secs_f64()
    }

    fn phase(&mut self, requests: usize, traced: bool) -> Phase {
        let ticks = (requests / GENERATORS).max(1);
        let before = self
            .stack
            .as_ref()
            .expect("cold_start before phase")
            .server
            .metrics();
        let recorder = Recorder::starting_at(BLOCK, Instant::now() + LINE_UP);
        let mut out = PhaseOut::new(traced);
        std::thread::scope(|scope| {
            let this = &*self;
            let recorder = &recorder;
            let generators: Vec<_> = (0..GENERATORS)
                .map(|g| scope.spawn(move || this.generate(g, ticks, recorder, traced)))
                .collect();
            for generator in generators {
                out.merge(generator.join().expect("generator thread"));
            }
        });
        let (marks, last) = recorder.finish(Instant::now());
        let after = self.stack.as_ref().expect("stack").server.metrics();
        let timing = analyse(&marks, last, std::mem::take(&mut out.samples));
        Phase {
            timing,
            parts: 1,
            batches: after.batches - before.batches,
            deadline_flushes: after.flushes_edf_deadline - before.flushes_edf_deadline,
            out,
        }
    }

    fn counts(&self, phase: &Phase) -> Result<Counts, String> {
        Ok(Counts {
            energy_uj_per_inference: phase.out.energy_uj_sum / phase.out.ok().max(1) as f64,
            sops_per_inference: self.engine_sops,
        })
    }

    fn served(&self) -> Vec<&Served> {
        vec![&self.served]
    }

    fn open_loop(&self) -> bool {
        true
    }
}

impl Drop for HttpPaced {
    fn drop(&mut self) {
        self.teardown();
    }
}
