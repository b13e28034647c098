//! Cycle-approximate model of the paper's SNN processor (§4–5).
//!
//! The architecture is SpinalFlow-derived: an input generator (48 KB input
//! buffer + minfind merge-sort), a PE array (128 PEs in four clusters of 32,
//! each cluster with a 90 KB weight buffer), output processing (PPU + spike
//! encoder with threshold LUT and priority encoder) and a DMA engine talking
//! to off-chip DRAM at 4 pJ/bit.
//!
//! Since the original is a 28 nm silicon implementation measured with
//! Synopsys tools, this crate substitutes an **analytical component model**:
//!
//! * `cost` (private module) — area/power constants per component,
//!   calibrated so the
//!   *baseline* configuration (per-layer SRAM kernel decoders + multiplier
//!   PEs, i.e. T2FSNN-on-SpinalFlow) matches the paper's Fig. 6 split. The
//!   CAT and log-PE savings then *emerge* from swapping components.
//! * [`Processor`] — per-layer cycle/energy accounting from event counts
//!   (spikes, synaptic ops) and memory traffic, reproducing Table 4's
//!   energy-per-image and throughput columns.
//! * [`MinFindUnit`] / [`SpikeEncoder`] — functional models of the sorting
//!   and encoding pipelines with cycle counts.
//! * [`vgg16_geometry`] — the VGG-16 layer shapes the paper runs.
//! * [`TpuModel`] — the redesigned 16×16 systolic TPU comparison column.
//!
//! # Example
//!
//! ```
//! use snn_hw::{vgg16_geometry, Processor, ProcessorConfig, WorkloadProfile};
//!
//! let config = ProcessorConfig::proposed();
//! let processor = Processor::new(config);
//! let layers = vgg16_geometry(32, 32, 10);
//! let report = processor.run_network(&layers, &WorkloadProfile::paper_default());
//! assert!(report.energy_per_image_uj > 0.0);
//! assert!(report.fps > 0.0);
//! ```

#![forbid(unsafe_code)]

mod config;
mod cost;
mod datapath;
mod encoder;
mod geometry;
mod minfind;
mod processor;
mod report;
mod tpu;

pub use config::{DecoderKind, PeKind, ProcessorConfig};
pub use cost::{AreaPowerModel, ComponentCosts, EnergyModel};
pub use datapath::PeDatapath;
pub use encoder::{SpikeEncoder, ThresholdLut};
pub use geometry::{vgg16_geometry, LayerGeometry, LayerKind};
pub use minfind::MinFindUnit;
pub use processor::{LayerReport, NetworkReport, Processor, WorkloadProfile};
pub use report::{ComparisonRow, ComparisonTable, DatasetRow};
pub use tpu::TpuModel;
