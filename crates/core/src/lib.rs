//! # ttfs-core — the paper's contribution
//!
//! Conversion-aware training (CAT) and base-2 time-to-first-spike (TTFS)
//! coding, reproducing §3 of *"A Time-to-first-spike Coding and Conversion
//! Aware Training for Energy-Efficient Deep Spiking Neural Network Processor
//! Design"* (Lew, Lee, Park — DAC 2022).
//!
//! The pieces:
//!
//! * [`Base2Kernel`] — the paper's new kernel `κ(t) = θ₀·2^(−t/τ)` (eq. 9)
//!   with a single global `τ`, chosen so spike times live in the log2 domain
//!   and synaptic multiplies reduce to LUT + shift in hardware.
//! * [`ExpKernel`] — the baseline T2FSNN kernel `ε(t) = θ₀·e^(−(t−t_d)/τ)`
//!   (eq. 5) with per-layer `t_d`, `τ`.
//! * [`PhiClip`] / [`PhiTtfs`] — the CAT activation functions (eq. 10–13)
//!   that simulate SNN data representation during ANN training.
//! * [`CatSchedule`] / [`train_with_cat`] — the `ReLU → φ_Clip → φ_TTFS`
//!   switching schedule with the paper's LR-coupled switch-epoch rule.
//! * [`convert`] — ANN→SNN conversion: BN fusion into convolution weights
//!   and output-layer weight normalization, producing an [`SnnModel`].
//! * [`t2fsnn`] — the post-conversion kernel-tuning baseline the paper
//!   compares against in Table 2.
//!
//! ## Sign convention
//!
//! Equations (8), (10) and (14) of the paper contain sign/scale typos (the
//! printed forms are not mutually consistent with the kernel definitions).
//! This crate implements the self-consistent versions: a neuron with
//! membrane voltage `u` crosses the falling threshold `θ₀·2^(−k/τ)` at
//! `k = ⌈−τ·log₂(u/θ₀)⌉`, and the decoded value is `θ₀·2^(−k/τ)`, so
//! `φ_TTFS(x) = decode(encode(x))` exactly — which is the property the whole
//! method rests on (Table 1, row I+II+III, conversion loss ≈ 0).

#![forbid(unsafe_code)]

mod activation;
mod cat;
mod convert;
mod error;
mod kernel;
pub mod t2fsnn;

pub use activation::{PhiClip, PhiTtfs};
pub use cat::{
    encode_input_as_spikes, train_with_cat, CatComponents, CatPhase, CatSchedule, CatTrainLog,
    EpochRecord,
};
pub use convert::{convert, normalize_output_layer, SnnLayer, SnnModel};
pub use error::ConvertError;
pub use kernel::{Base2Kernel, ExpKernel, TtfsKernel};
