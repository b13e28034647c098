//! # snn-runtime — batched, multi-threaded sparse inference engine
//!
//! The paper (Lew, Lee, Park — DAC 2022) is about inference *throughput
//! and energy*; this crate turns the workspace's reproduction into a
//! serving-shaped runtime:
//!
//! * [`InferenceBackend`] — the serving engine abstraction, implemented
//!   by the one [`Engine`] over either weight payload: [`CsrEngine`]
//!   (f32) and [`QuantEngine`] (packed log codes) are its two
//!   instantiations, each built from one shared `Arc`'d model by its own
//!   constructors. The reference event simulator
//!   ([`snn_sim::EventSnn`]) is the oracle both reproduce bit for bit.
//! * [`CsrModel`] / [`CsrEngine`] — ahead-of-time compilation of a
//!   converted [`ttfs_core::SnnModel`] into synapse tables (conv layers
//!   pattern-deduplicated per `(channel, border-class)` — roughly
//!   `H·W`-fold less edge storage; dense layers a transposed weight
//!   matrix with no index) plus the
//!   [`BatchWheel`] multi-lane spike queue. Integration is **batched**: a
//!   chunk of samples is walked together in ascending `(t, neuron)` order,
//!   spike by spike, each spike's synapse row added into its lane of a
//!   cache-line-aligned `[lanes, out]` membrane matrix whose conv slices
//!   are channel-last, so a row is a few contiguous `cells += w · psp`
//!   runs (one per kernel row at stride 1), and an interior pixel of a
//!   3×3 conv three fixed-width blocks. A neuron fires at most once, so a
//!   fire phase writes one time step per cell — a dense step plane, each
//!   step looked up in a table built at compile time — max-pooling is an
//!   element-wise `min` over that plane, and the wheel a weighted stage
//!   consumes is one counting sort of it. Logits match the reference
//!   backend bit-for-bit for every chunk width (only cell addresses
//!   move, never the per-cell float accumulation order) and
//!   `reference_forward` within tolerance. Model and compiled tables sit
//!   behind `Arc`, so engine clones and server workers share one
//!   read-only copy of the weights.
//! * [`QuantCsrModel`] / [`QuantEngine`] — the quantized serving
//!   subsystem: one [`snn_logquant::LogQuantizer`] calibrated per weighted
//!   layer, packed 5-bit log codes stored in place of the repacked f32
//!   weight copy (4× smaller stored weights), and the same batched
//!   inner loop over a stage's codes decoded once per chunk through the
//!   per-layer decode LUT — or through the `LogPe`-style shift-add
//!   datapath's table, with reported mantissa-error bounds. In LUT mode,
//!   logits are **bit-identical** to the reference simulator over
//!   [`snn_logquant::LogQuantizer::quantize_tensor`]'d weights.
//! * [`StreamingServer`] / [`DeadlineBatcher`] — the open-traffic path:
//!   requests arrive one at a time (`submit(image) -> Ticket`, or
//!   `submit_with` carrying per-request [`SubmitOptions`]) into a pending
//!   window kept in EDF order, and the server's workers take batches
//!   straight from it whenever they are free; `infer_blocking` lets a
//!   caller that would block anyway take and execute its batch on its own
//!   thread when an executor permit is free. Batching is
//!   work-conserving: a request that finds a worker idle runs at once,
//!   and only what piles up while every worker is busy rides together
//!   (up to `max_batch`, earliest deadline first; plain submissions
//!   inherit `max_delay` as their deadline, which orders and accounts
//!   but never delays). [`StreamingMetrics`] splits queue-wait from
//!   execution time, histograms batch occupancy, says why each batch was
//!   the size it was ([`FlushReason`]) and counts backpressure sheds.
//!   Streamed logits are bit-identical to one closed
//!   [`InferenceBackend::run_batch`] over the same images regardless of
//!   arrival interleaving, deadlines or priorities. It is the one serving
//!   path; the `snn-gateway` crate fronts it with a dependency-free
//!   HTTP/1.1 edge (whose connection jobs run on a [`WorkerPool`]).
//! * [`ModelArtifact`] / [`ModelRegistry`] — the many-models layer: a
//!   versioned on-disk artifact format (magic + format version + checksum
//!   around a binary payload that carries what is served — raw f32
//!   weights, or packed log codes plus per-layer quantizer calibration —
//!   bit-exactly) and a registry that resolves `name@version` to lazily
//!   loaded, single-flight-compiled serving entries with LRU eviction
//!   under a byte budget ([`CsrFootprint`] accounting) and atomic version
//!   swap under live traffic.
//! * [`energy`] — feeds measured event counts into the
//!   [`snn_hw::Processor`] cycle/energy model, so hardware reports work
//!   unchanged on the fast path.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use rand::SeedableRng;
//! use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
//! use snn_runtime::{CsrEngine, InferenceBackend, StreamingConfig, StreamingServer};
//! use snn_tensor::Tensor;
//! use ttfs_core::{convert, Base2Kernel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = Sequential::new(vec![
//!     Layer::Flatten(Flatten::new()),
//!     Layer::Dense(DenseLayer::new(16, 8, &mut rng)),
//!     Layer::Activation(ActivationLayer::new(Box::new(Relu))),
//!     Layer::Dense(DenseLayer::new(8, 2, &mut rng)),
//! ]);
//! let model = convert(&net, Base2Kernel::paper_default(), 24)?;
//! let engine = Arc::new(CsrEngine::compile(&model, &[1, 4, 4])?);
//!
//! // A closed batch is one backend call.
//! let (logits, _stats) = engine.run_batch(&Tensor::full(&[8, 1, 4, 4], 0.5))?;
//! assert_eq!(logits.dims(), &[8, 2]);
//!
//! // Open traffic goes through the streaming server, one image per ticket,
//! // and gets the same bits back.
//! let server = StreamingServer::new(engine, StreamingConfig { threads: 2, ..Default::default() });
//! let response = server.submit(&Tensor::full(&[1, 4, 4], 0.5))?.wait()?;
//! assert_eq!(response.logits.as_slice(), &logits.as_slice()[..2]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod artifact;
mod backend;
mod batcher;
mod csr;
pub mod energy;
mod engine;
mod faults;
mod metrics;
mod quant;
mod registry;
mod server;
mod wheel;
mod workers;

pub use artifact::{
    fnv1a64, ArtifactError, ArtifactInfo, BackendHint, ModelArtifact, ARTIFACT_EXTENSION,
    ARTIFACT_FORMAT_VERSION, ARTIFACT_MAGIC, MAX_SECTION_BYTES,
};
pub use backend::InferenceBackend;
pub use batcher::{
    BrownoutConfig, DeadlineBatcher, FlushReason, StreamedResponse, StreamingConfig, SubmitError,
    SubmitOptions, Ticket,
};
pub use csr::{ConvPatterns, CsrFootprint, CsrModel, CsrStage, EdgeIter, SynapseTable};
pub use engine::{CsrEngine, Engine, DEFAULT_MAX_LANES};
pub use faults::{FaultConfig, FaultCounts, FaultInjector, FaultPoint};
pub use metrics::{
    HistogramBucket, HistogramSnapshot, LogSink, OccupancyBucket, StreamingMetrics,
    StreamingRecorder,
};
pub use quant::{
    encode_layer_codes, fit_layer_quantizers, quantize_model, DecodeMode, QuantConfig,
    QuantCsrModel, QuantEngine, QuantLayer,
};
pub use registry::{
    ModelHandle, ModelRegistry, ModelStatus, RegistryConfig, RegistryError, RegistryMetrics,
    SwapReport,
};
pub use server::{StreamingServer, DEADLINE_MISS_GRACE};
pub use wheel::{BatchWheel, LaneSpike, TimeWheel, WheelSpike};
pub use workers::{PoolClosed, WorkerPool};
