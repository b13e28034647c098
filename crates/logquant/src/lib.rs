//! Logarithmic weight quantization and multiplication-free synaptic
//! arithmetic (§3.2 of the paper, adopting Vogel et al., ICCAD 2018).
//!
//! The chain of ideas:
//!
//! 1. Weights are quantized to signed powers of an arbitrary log base
//!    `a_w` ([`LogQuantizer`], eq. 15). The paper picks `a_w = 2^(−1/2)`
//!    and 5-bit weights.
//! 2. If `log₂ a_w = −2^(−z)` (eq. 16) and the TTFS time constant satisfies
//!    `log₂ τ = 2^z` (eq. 18), then both the weight exponent and the spike
//!    kernel exponent `−t/τ` land on a *coarse fractional grid*, and the
//!    product `w · κ(t)` becomes `sign · (LUT(frac) << int)` — a lookup and
//!    a shift instead of a multiplier (eq. 17, [`LogPe`]).
//! 3. [`LinearPe`] is the baseline multiplier datapath used by the Fig. 6
//!    "Base"/"I" configurations for comparison.
//!
//! # Example
//!
//! ```
//! use snn_logquant::{LogBase, LogPe, LogQuantizer};
//!
//! # fn main() -> Result<(), snn_logquant::QuantError> {
//! let weights = [0.8f32, -0.31, 0.05, 0.62];
//! let q = LogQuantizer::fit(LogBase::inv_sqrt2(), 5, &weights)?;
//! let wq = q.quantize(-0.31);
//! assert!(wq < 0.0 && (wq.abs() - 0.31).abs() < 0.1);
//!
//! // Multiplication-free product of a quantized weight and a spike at t=6, τ=4:
//! let pe = LogPe::for_kernel(4.0, LogBase::inv_sqrt2())?;
//! let exact = wq * (2.0f32).powf(-6.0 / 4.0);
//! let approx = pe.multiply(q.code(-0.31), 6)?;
//! assert!((approx - exact).abs() < 2e-4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod base;
mod error;
mod pe;
mod qat;
mod quantizer;

pub use base::LogBase;
pub use error::QuantError;
pub use pe::{LinearPe, LogPe};
pub use qat::QatTrainer;
pub use quantizer::{LogCode, LogQuantizer};
