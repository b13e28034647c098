//! The serving backend abstraction.
//!
//! A backend executes a converted [`SnnModel`] over a `[N, C, H, W]` batch
//! compiled for one per-sample geometry, and reports logits plus the
//! shared [`RunStats`] event counters. The runtime's one implementation
//! is [`crate::Engine`], over f32 weights ([`crate::CsrEngine`]) or packed
//! log codes ([`crate::QuantEngine`]). A closed batch is one
//! [`run_batch`](InferenceBackend::run_batch) call; the
//! [`crate::StreamingServer`] drives every backend identically, and all
//! feed the same event statistics into the `snn-hw` energy model. The
//! reference `snn_sim::EventSnn` is the oracle both payloads are checked
//! against, through its own `run`.

use snn_sim::RunStats;
use snn_tensor::Tensor;
use ttfs_core::{ConvertError, SnnModel};

/// A batch-capable inference engine over a converted SNN.
pub trait InferenceBackend: Send + Sync {
    /// Short backend identifier (`"csr"`, `"quant"`, ...) used in reports.
    fn name(&self) -> &'static str;

    /// The converted model this backend executes.
    fn model(&self) -> &SnnModel;

    /// The per-sample input dims (`[C, H, W]`) this backend was compiled
    /// for: servers validate every submission against them.
    fn input_dims(&self) -> &[usize];

    /// Runs a `[N, C, H, W]` batch, returning decoded logits
    /// `[N, classes]` and accumulated event statistics.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError`] if the batch does not match the model
    /// geometry.
    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError>;
}
