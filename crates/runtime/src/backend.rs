//! The pluggable backend abstraction.
//!
//! A backend executes a converted [`SnnModel`] over a `[N, C, H, W]` batch
//! and reports logits plus the shared [`RunStats`] event counters. Three
//! implementations ship: `snn_sim`'s reference [`EventSnn`], the
//! [`crate::CsrEngine`] f32 fast path, and the [`crate::QuantEngine`]
//! packed-log-code path. A closed batch is one
//! [`run_batch`](InferenceBackend::run_batch) call on any of them; the
//! [`crate::StreamingServer`] drives them identically, and all feed the
//! same event statistics into the `snn-hw` energy model. [`BackendChoice`]
//! is the engine factory: it builds any of the three from one shared
//! `Arc`'d model, so an f32 engine and a quantized engine can run side by
//! side on a single read-only weight copy.

use std::sync::Arc;

use snn_sim::{EventSnn, RunStats};
use snn_tensor::Tensor;
use ttfs_core::{ConvertError, SnnModel};

use crate::quant::{QuantConfig, QuantEngine};
use crate::CsrEngine;

/// A batch-capable inference engine over a converted SNN.
pub trait InferenceBackend: Send + Sync {
    /// Short backend identifier (`"event"`, `"csr"`, ...) used in reports.
    fn name(&self) -> &'static str;

    /// The converted model this backend executes.
    fn model(&self) -> &SnnModel;

    /// The per-sample input dims this backend was compiled for, when the
    /// backend has a fixed geometry. Compiled engines return their
    /// compile-time dims so servers can validate submissions against the
    /// entry's geometry; shape-agnostic backends (the reference event
    /// simulator) return `None` and validate at run time.
    fn input_dims(&self) -> Option<&[usize]> {
        None
    }

    /// Runs a `[N, C, H, W]` batch, returning decoded logits
    /// `[N, classes]` and accumulated event statistics.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError`] if the batch does not match the model
    /// geometry.
    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError>;
}

impl InferenceBackend for EventSnn {
    fn name(&self) -> &'static str {
        "event"
    }

    fn model(&self) -> &SnnModel {
        EventSnn::model(self)
    }

    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        self.run(images)
    }
}

/// Which engine to execute — the factory every serving backend is built
/// through, so f32 and quantized serving are a one-line switch over the
/// same `Arc`'d model. A streaming stack is
/// `StreamingServer::new(choice.build(model, dims)?, config)`.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use rand::SeedableRng;
/// use snn_nn::{DenseLayer, Flatten, Layer, Sequential};
/// use snn_runtime::{BackendChoice, QuantConfig};
/// use snn_tensor::Tensor;
/// use ttfs_core::{convert, Base2Kernel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = Sequential::new(vec![
///     Layer::Flatten(Flatten::new()),
///     Layer::Dense(DenseLayer::new(9, 2, &mut rng)),
/// ]);
/// let model = Arc::new(convert(&net, Base2Kernel::paper_default(), 16)?);
/// // One weight copy, two engines.
/// let f32_engine = BackendChoice::Csr.build(Arc::clone(&model), &[1, 3, 3])?;
/// let quant_engine =
///     BackendChoice::Quant(QuantConfig::default()).build(Arc::clone(&model), &[1, 3, 3])?;
/// let x = Tensor::full(&[4, 1, 3, 3], 0.5);
/// assert_eq!(f32_engine.name(), "csr");
/// assert_eq!(quant_engine.name(), "quant");
/// let (logits, _stats) = quant_engine.run_batch(&x)?;
/// assert_eq!(logits.dims(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BackendChoice {
    /// The reference event simulator (no compilation, slowest).
    Event,
    /// The batched f32 CSR engine.
    #[default]
    Csr,
    /// The quantized engine: packed log codes + LUT decode.
    Quant(QuantConfig),
}

impl BackendChoice {
    /// Builds the chosen backend over a shared model. `input_dims` are the
    /// per-sample dims the compiled engines serve (`[C, H, W]`); the event
    /// backend ignores them beyond validation at run time.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Structure`] if `input_dims` does not fit
    /// the model geometry or the quantized compile fails (bad bit width,
    /// all-zero layer, shift-add without the eq. 18 kernel).
    pub fn build(
        &self,
        model: Arc<SnnModel>,
        input_dims: &[usize],
    ) -> Result<Arc<dyn InferenceBackend>, ConvertError> {
        Ok(match self {
            Self::Event => {
                // Validate geometry eagerly like the compiled engines do.
                model.shape_trace(input_dims)?;
                Arc::new(EventSnn::new(&model))
            }
            Self::Csr => Arc::new(CsrEngine::compile_shared(model, input_dims)?),
            Self::Quant(config) => {
                Arc::new(QuantEngine::compile_shared(model, input_dims, *config)?)
            }
        })
    }
}
