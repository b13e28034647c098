//! `http_small_closed`: eight tiny dense models behind a registry-backed
//! gateway, one closed-loop client.
//!
//! The engine does ~nothing per request (a few hundred synaptic
//! operations), so HTTP parsing, JSON, the registry's warm lookup, the
//! batcher hand-off, telemetry and log writes *are* the work. `max_delay`
//! is 0: with the 2 ms default the run would time a sleep. The client
//! walks a seeded order over all (model, image) pairs a whole number of
//! times, so every cycle sums the same counters.
//!
//! The process is pinned to one CPU for this workload (see `affinity.rs`):
//! a request is a chain of four thread hand-offs, and on a 2-vCPU guest
//! the scheduler's choice between packing the chain on one vCPU (~25 µs a
//! request) and spreading it (~125 µs, one hypervisor-mediated wake-up per
//! hop) lasts whole runs and flipped in 2 of 20 of them. Pinned, the run
//! measures the software path alone, and one closed-loop client saturates
//! the CPU.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use snn_gateway::{Gateway, GatewayConfig};
use snn_runtime::{ModelRegistry, RegistryConfig, StreamingConfig, StreamingServer};

use super::http::{engine_sops_per_image, Generator};
use super::{book_answer, Counts, Phase, Workload};
use crate::affinity::Pinned;
use crate::client::{parse_answer, Conn, Rendered};
use crate::inputs::{permutation, POOL};
use crate::models::{nproc, Scratch, Served, SMALL_MODELS};
use crate::phase::{PhaseOut, MAX_BATCH};
use crate::record::{analyse, Recorder};

/// Requests in one cycle: every image of every model once.
pub const CYCLE: usize = SMALL_MODELS * POOL;
/// Completions between two timing marks: ~130 ms of work.
const BLOCK: usize = 4096;

/// What to switch off for the overhead probes; `Default` is the workload.
#[derive(Debug, Clone, Copy)]
pub struct Switches {
    pub telemetry: bool,
    pub logging: bool,
}

impl Default for Switches {
    fn default() -> Self {
        Self {
            telemetry: true,
            logging: true,
        }
    }
}

struct Stack {
    gateway: Gateway,
    registry: Arc<ModelRegistry>,
    default_server: Arc<StreamingServer>,
}

pub struct HttpSmall {
    models: Vec<Served>,
    /// Pre-rendered requests, `[model][image]`.
    wire: Vec<Vec<Vec<u8>>>,
    /// The seeded order of (model, image) pairs of one cycle.
    order: Vec<u32>,
    engine_sops: f64,
    pub switches: Switches,
    stack: Option<Stack>,
    scratch: Scratch,
    /// Declared last: the stack is torn down before the CPUs come back.
    _pinned: Option<Pinned>,
}

fn streaming() -> StreamingConfig {
    StreamingConfig {
        threads: nproc(),
        max_batch: MAX_BATCH,
        max_delay: Duration::ZERO,
        max_pending: 0,
        brownout: None,
    }
}

impl HttpSmall {
    pub fn new(seed: u64) -> Self {
        // Before anything spawns a thread, so that all of them inherit it.
        let pinned = Pinned::new()
            .map_err(|e| eprintln!("http_small_closed runs unpinned, expect bimodal timings: {e}"))
            .ok();
        let scratch = Scratch::new("small");
        let models: Vec<Served> = (0..SMALL_MODELS).map(|i| Served::small(i, seed)).collect();
        let wire = models
            .iter()
            .map(|m| {
                m.save(&scratch.0);
                let path = format!("/v1/models/{}/infer", m.artifact.info.name);
                m.pool
                    .iter()
                    .map(|image| Rendered::new(&path, image).plain())
                    .collect()
            })
            .collect();
        Self {
            engine_sops: models.iter().map(engine_sops_per_image).sum::<f64>()
                / SMALL_MODELS as f64,
            order: permutation(seed, 0x5A11, CYCLE),
            models,
            wire,
            switches: Switches::default(),
            stack: None,
            scratch,
            _pinned: pinned,
        }
    }

    /// The gateway's address (for probes that scrape it).
    pub fn addr(&self) -> SocketAddr {
        self.stack
            .as_ref()
            .expect("cold_start before use")
            .gateway
            .local_addr()
    }

    /// Bytes of compiled tables resident in the registry.
    pub fn resident_bytes(&self) -> usize {
        self.stack
            .as_ref()
            .map_or(0, |s| s.registry.metrics().resident_bytes)
    }

    fn teardown(&mut self) {
        if let Some(mut stack) = self.stack.take() {
            stack.gateway.shutdown();
            stack.registry.shutdown();
            stack.default_server.shutdown();
        }
    }

    fn flushes(&self) -> (u64, u64) {
        let stack = self.stack.as_ref().expect("stack");
        self.models.iter().fold((0, 0), |(batches, deadline), m| {
            match stack.registry.get_or_load(&m.artifact.info.name) {
                Ok(handle) => {
                    let metrics = handle.server().metrics();
                    (
                        batches + metrics.batches,
                        deadline + metrics.flushes_edf_deadline,
                    )
                }
                Err(_) => (batches, deadline),
            }
        })
    }

    /// The closed-loop client: `cycles` walks over the seeded order.
    fn client(&self, cycles: usize, recorder: &Recorder, traced: bool) -> PhaseOut {
        let mut client = match Generator::connect(self.addr(), recorder, traced, 0, cycles * CYCLE)
        {
            Ok(client) => client,
            Err(why) => return PhaseOut::failed(traced, why),
        };
        let mut req = 0u32;
        'cycles: for _ in 0..cycles {
            for &pair in &self.order {
                let (model, image) = (pair as usize / POOL, pair as usize % POOL);
                req += 1;
                if !client.exchange(
                    &self.models[model],
                    image,
                    &self.wire[model][image],
                    None,
                    req,
                ) {
                    break 'cycles;
                }
            }
        }
        client.finish()
    }
}

impl Workload for HttpSmall {
    fn cold_start(&mut self) -> Result<f64, String> {
        self.teardown();
        let t0 = Instant::now();
        let config = RegistryConfig {
            streaming: streaming(),
            ..RegistryConfig::default()
        };
        let registry =
            Arc::new(ModelRegistry::open(&self.scratch.0, config).map_err(|e| e.to_string())?);
        // The plain `/v1/infer` route needs a server of its own; model 0
        // stands in and stays idle.
        let (backend, _) = self.models[0]
            .artifact
            .compile()
            .map_err(|e| e.to_string())?;
        let default_server = Arc::new(StreamingServer::new(backend, streaming()));
        let gateway_config = GatewayConfig {
            telemetry: self.switches.telemetry,
            logging: self.switches.logging,
            ..GatewayConfig::for_dims(self.models[0].dims())
        };
        let gateway = Gateway::start_with_registry(
            Arc::clone(&default_server),
            Arc::clone(&registry),
            gateway_config,
        )
        .map_err(|e| e.to_string())?;
        let mut conn = Conn::connect(gateway.local_addr()).map_err(|e| e.to_string())?;
        let mut firsts = Vec::new();
        for wire in &self.wire {
            conn.send(&wire[0]).map_err(|e| e.to_string())?;
            let (status, body) = conn.recv().map_err(|e| e.to_string())?;
            firsts.push((status, body.to_vec()));
        }
        let secs = t0.elapsed().as_secs_f64();
        self.stack = Some(Stack {
            gateway,
            registry,
            default_server,
        });
        let (mut probe, mut logits) = (PhaseOut::new(false), Vec::new());
        for (model, (status, body)) in self.models.iter().zip(&firsts) {
            if *status != 200
                || parse_answer(body, &mut logits).is_none()
                || !book_answer(&mut probe, model, 0, &logits)
            {
                return Err(format!(
                    "{}: first answer wrong (HTTP {status})",
                    model.artifact.info.name
                ));
            }
        }
        Ok(secs)
    }

    fn nominal_rate(&self) -> f64 {
        32_000.0
    }

    fn phase(&mut self, requests: usize, traced: bool) -> Phase {
        let before = self.flushes();
        let recorder = Recorder::new(BLOCK);
        let cycles = ((requests + CYCLE / 2) / CYCLE).max(1);
        let mut out = self.client(cycles, &recorder, traced);
        let (marks, last) = recorder.finish(Instant::now());
        let after = self.flushes();
        let timing = analyse(&marks, last, std::mem::take(&mut out.samples));
        Phase {
            timing,
            parts: cycles as u64,
            batches: after.0 - before.0,
            deadline_flushes: after.1 - before.1,
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
        self.models.iter().collect()
    }
}

impl Drop for HttpSmall {
    fn drop(&mut self) {
        self.teardown();
    }
}
