//! The gated test backend shared by the runtime's and the gateway's
//! integration tests (the gateway's pull this file in with `#[path]`).
//!
//! The streaming server never holds a request back, so a test that wants a
//! backlog has to make the workers provably busy first. [`GatedBackend`]
//! blocks every `run_batch` on a gate the test opens and remembers what
//! each batch was made of: park the workers, submit a backlog of known
//! size, open the gate, and batch composition is exact — no sleeps, no
//! timing windows.

#![allow(dead_code)] // each test binary uses its own subset

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use snn_runtime::InferenceBackend;
use snn_sim::RunStats;
use snn_tensor::Tensor;
use ttfs_core::{ConvertError, SnnModel};

/// How long a test waits on the gate before it fails instead of hanging.
const PATIENCE: Duration = Duration::from_secs(30);

#[derive(Default)]
struct Gate {
    open: bool,
    /// First pixel of every rider of every batch that reached
    /// `run_batch`, in arrival order — tests fill each sample with one
    /// distinct value, so this names the batch's riders in row order.
    batches: Vec<Vec<f32>>,
}

/// Wraps a real backend; `run_batch` blocks until [`open`](Self::open).
pub struct GatedBackend {
    inner: Box<dyn InferenceBackend>,
    gate: Mutex<Gate>,
    changed: Condvar,
}

impl GatedBackend {
    /// A backend over `inner` whose gate starts closed.
    pub fn closed(inner: impl InferenceBackend + 'static) -> Arc<Self> {
        Arc::new(Self {
            inner: Box::new(inner),
            gate: Mutex::new(Gate::default()),
            changed: Condvar::new(),
        })
    }

    /// Blocks until `n` batches have reached `run_batch` — with a closed
    /// gate, until `n` workers are provably busy.
    pub fn wait_entered(&self, n: usize) {
        let gate = self.gate.lock().unwrap();
        let (_gate, timeout) = self
            .changed
            .wait_timeout_while(gate, PATIENCE, |g| g.batches.len() < n)
            .unwrap();
        assert!(
            !timeout.timed_out(),
            "{n} batches never reached the backend"
        );
    }

    /// Opens the gate for good: parked and future batches run through.
    pub fn open(&self) {
        self.gate.lock().unwrap().open = true;
        self.changed.notify_all();
    }

    /// The riders of every batch seen so far (see [`Gate::batches`]).
    pub fn batches(&self) -> Vec<Vec<f32>> {
        self.gate.lock().unwrap().batches.clone()
    }
}

impl InferenceBackend for GatedBackend {
    fn name(&self) -> &'static str {
        "gated"
    }

    fn model(&self) -> &SnnModel {
        self.inner.model()
    }

    fn input_dims(&self) -> &[usize] {
        self.inner.input_dims()
    }

    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        let k = images.dims()[0];
        let sample_len = images.len() / k;
        let riders = (0..k).map(|i| images.as_slice()[i * sample_len]).collect();
        let mut gate = self.gate.lock().unwrap();
        gate.batches.push(riders);
        self.changed.notify_all();
        let (gate, timeout) = self
            .changed
            .wait_timeout_while(gate, PATIENCE, |g| !g.open)
            .unwrap();
        assert!(!timeout.timed_out(), "the test never opened the gate");
        drop(gate);
        self.inner.run_batch(images)
    }
}

/// Spins (yielding) until `done()` holds — for state a test can observe
/// but not be signalled about, such as "shutdown has closed admission".
/// Fails the test rather than hanging it.
pub fn wait_until(done: impl Fn() -> bool) {
    let give_up = std::time::Instant::now() + PATIENCE;
    while !done() {
        assert!(std::time::Instant::now() < give_up, "condition never held");
        std::thread::yield_now();
    }
}
