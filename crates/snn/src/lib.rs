//! Event-driven TTFS spiking-network simulator.
//!
//! Executes a converted [`ttfs_core::SnnModel`] the way the paper's
//! processor does: per layer, an **integration (decoding) phase** accumulates
//! each incoming spike's postsynaptic potential `w·κ(t)` into IF-neuron
//! membrane voltages, then a **fire (encoding) phase** converts membrane
//! voltages into at-most-one output spike per neuron via the falling
//! threshold `θ₀·2^(−t/τ)` (Fig. 1 of the paper).
//!
//! The simulator's contract — verified by cross-crate tests — is that the
//! decoded logits equal [`ttfs_core::SnnModel::reference_forward`] up to
//! float summation order. That equality *is* the paper's "zero conversion
//! loss" claim (Table 1, I+II+III).
//!
//! Besides outputs it produces [`RunStats`]: spike counts, synaptic-operation
//! counts and fire-phase iteration counts per layer — the event statistics
//! the hardware model in `snn-hw` charges energy to.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
//! use snn_sim::EventSnn;
//! use snn_tensor::Tensor;
//! use ttfs_core::{convert, Base2Kernel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = Sequential::new(vec![
//!     Layer::Flatten(Flatten::new()),
//!     Layer::Dense(DenseLayer::new(16, 4, &mut rng)),
//!     Layer::Activation(ActivationLayer::new(Box::new(Relu))),
//!     Layer::Dense(DenseLayer::new(4, 2, &mut rng)),
//! ]);
//! let model = convert(&net, Base2Kernel::paper_default(), 24)?;
//! let sim = EventSnn::new(&model);
//! let (logits, stats) = sim.run(&Tensor::full(&[1, 1, 4, 4], 0.5))?;
//! assert_eq!(logits.dims(), &[1, 2]);
//! assert!(stats.total_spikes() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod network;
pub mod phase;
mod schedule;
mod spike;
mod stats;

pub use network::EventSnn;
pub use schedule::PipelineSchedule;
pub use spike::{Spike, SpikeRaster, SpikeTrain};
pub use stats::{LayerStats, RunStats};
