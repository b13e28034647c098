use crate::{LogBase, LogCode, QuantError};

/// Fixed-point fraction bits used by the LUT datapath.
const LUT_FRAC_BITS: u32 = 16;

/// The log-domain processing element (eq. 17): computes `w · κ(t)` as
/// `sign(w) · (LUT(Frac(p̂)) << Int(p̂))` where `p̂ = log₂|w| − t/τ`.
///
/// Constructing the PE checks the co-design constraints: `log₂ τ = 2^z`
/// (eq. 18) and the base grid of eq. 16. When they hold, the fractional part
/// of `p̂` can only take `lcm(τ, 2^z_w)` distinct values — the LUT stays
/// tiny (4 entries for the paper's `τ = 4`, `a_w = 2^(−1/2)`), which is what
/// makes the multiplier removable.
///
/// # Example
///
/// ```
/// use snn_logquant::{LogBase, LogPe, LogQuantizer};
///
/// # fn main() -> Result<(), snn_logquant::QuantError> {
/// let pe = LogPe::for_kernel(4.0, LogBase::inv_sqrt2())?;
/// assert_eq!(pe.lut_entries(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogPe {
    tau: f32,
    base: LogBase,
    /// Denominator of the common fractional grid.
    grid: u32,
    /// `lut[j] = round(2^(j/grid) · 2^LUT_FRAC_BITS)` for `j ∈ [0, grid)`.
    lut: Vec<u64>,
    /// FSR exponent of the weight quantizer, on the common grid
    /// (numerator over `grid`).
    fsr_num: i64,
}

impl LogPe {
    /// Builds the PE for a TTFS kernel time constant `tau` and weight base,
    /// with full-scale range 1.0 (override with [`LogPe::with_fsr_log2`]).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::KernelConstraint`] if `tau` is not a positive
    /// power of two with `log₂ τ = 2^z` (eq. 18), i.e. τ ∈ {1, 2, 4, 16, 256, …}.
    pub fn for_kernel(tau: f32, base: LogBase) -> Result<Self, QuantError> {
        if tau <= 0.0 || tau.fract() != 0.0 {
            return Err(QuantError::KernelConstraint(format!(
                "tau {tau} is not a positive integer"
            )));
        }
        let l = tau.log2();
        let ok = if l == 0.0 {
            true // tau = 1: degenerate integer-time coding
        } else {
            let z = l.log2();
            (z - z.round()).abs() < 1e-6 && z >= 0.0
        };
        if !ok {
            return Err(QuantError::KernelConstraint(format!(
                "log2(tau)={l} is not a power of two (eq. 18)"
            )));
        }
        let tau_u = tau as u32;
        let grid = lcm(tau_u, base.denominator());
        let lut = (0..grid)
            .map(|j| {
                let v = (j as f64 / grid as f64).exp2();
                (v * f64::from(1u32 << LUT_FRAC_BITS)).round() as u64
            })
            .collect();
        Ok(Self {
            tau,
            base,
            grid,
            lut,
            fsr_num: 0,
        })
    }

    /// Sets the weight quantizer's FSR exponent (log₂ of the largest
    /// magnitude). Values off the PE grid are rounded onto it — the
    /// quantizer and PE must be configured consistently in hardware.
    pub fn with_fsr_log2(mut self, fsr_log2: f32) -> Self {
        self.fsr_num = (fsr_log2 * self.grid as f32).round() as i64;
        self
    }

    /// Kernel time constant τ.
    pub fn tau(&self) -> f32 {
        self.tau
    }

    /// Number of LUT entries — 4 for the paper's configuration.
    pub fn lut_entries(&self) -> usize {
        self.lut.len()
    }

    /// Multiplication-free product of a quantized weight and the kernel
    /// value of a spike at timestep `t`: `w · θ₀·2^(−t/τ)` with θ₀ = 1.
    ///
    /// # Errors
    ///
    /// This method cannot currently fail for in-range inputs; the `Result`
    /// mirrors the fallible construction API.
    pub fn multiply(&self, code: LogCode, t: u32) -> Result<f32, QuantError> {
        if code.zero {
            return Ok(0.0);
        }
        // p̂ numerator on the common grid: log2|w| − t/τ.
        let w_num = self.fsr_num - code.steps as i64 * (self.grid / self.base.denominator()) as i64;
        let x_num = -(t as i64) * (self.grid / self.tau as u32) as i64;
        let p_num = w_num + x_num;
        // Split into integer shift and LUT index (Euclidean division keeps
        // the fraction non-negative).
        let int = p_num.div_euclid(self.grid as i64);
        let frac = p_num.rem_euclid(self.grid as i64) as usize;
        // mantissa is 2^frac in Q(LUT_FRAC_BITS);
        // value = mantissa · 2^(int − LUT_FRAC_BITS).
        let mantissa = self.lut[frac];
        let exp = int - i64::from(LUT_FRAC_BITS);
        let magnitude = mantissa as f64 * (exp as f64).exp2();
        let signed = if code.negative { -magnitude } else { magnitude };
        Ok(signed as f32)
    }

    /// Worst-case relative error of the LUT mantissa (Q-format rounding).
    pub fn mantissa_relative_error_bound(&self) -> f32 {
        0.5 / f32::from(1u16) / (1u64 << LUT_FRAC_BITS) as f32 * 2.0
    }
}

/// Baseline multiplier datapath (the "linear PE" of Fig. 6's Base/I
/// configurations): an ordinary fixed-point multiply of the decoded weight
/// and kernel value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearPe;

impl LinearPe {
    /// Creates the baseline PE.
    pub fn new() -> Self {
        Self
    }

    /// Plain product of a decoded weight and the kernel value at `t`.
    pub fn multiply(&self, weight: f32, tau: f32, t: u32) -> f32 {
        weight * (-(t as f32) / tau).exp2()
    }
}

impl Default for LinearPe {
    fn default() -> Self {
        Self::new()
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u32, b: u32) -> u32 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogQuantizer;

    #[test]
    fn paper_config_needs_4_lut_entries() {
        // tau=4 grid 1/4; base 2^-1/2 grid 1/2; lcm denominator 4.
        let pe = LogPe::for_kernel(4.0, LogBase::inv_sqrt2()).unwrap();
        assert_eq!(pe.lut_entries(), 4);
    }

    #[test]
    fn finer_base_grows_lut() {
        let pe = LogPe::for_kernel(4.0, LogBase::inv_4th_root2()).unwrap();
        assert_eq!(pe.lut_entries(), 4);
        let pe16 = LogPe::for_kernel(16.0, LogBase::inv_4th_root2()).unwrap();
        assert_eq!(pe16.lut_entries(), 16);
    }

    #[test]
    fn eq18_rejected_for_bad_tau() {
        assert!(LogPe::for_kernel(3.0, LogBase::inv_sqrt2()).is_err());
        assert!(LogPe::for_kernel(8.0, LogBase::inv_sqrt2()).is_err()); // log2=3, not 2^z
        assert!(LogPe::for_kernel(0.5, LogBase::inv_sqrt2()).is_err());
        for tau in [1.0f32, 2.0, 4.0, 16.0] {
            assert!(
                LogPe::for_kernel(tau, LogBase::inv_sqrt2()).is_ok(),
                "{tau}"
            );
        }
    }

    #[test]
    #[allow(clippy::approx_constant)] // 0.7071 sits on the 2^(-1/2) grid
    fn log_pe_matches_float_product() {
        let weights = [0.9f32, -0.5, 0.31, -0.044, 0.7071];
        let q = LogQuantizer::fit(LogBase::inv_sqrt2(), 5, &weights).unwrap();
        let pe = LogPe::for_kernel(4.0, LogBase::inv_sqrt2())
            .unwrap()
            .with_fsr_log2(q.fsr_log2());
        for &w in &weights {
            let code = q.code(w);
            let wq = q.decode(code);
            for t in 0..=24u32 {
                let exact = wq * (-(t as f32) / 4.0).exp2();
                let approx = pe.multiply(code, t).unwrap();
                let tol = 1e-4 * (1.0 + exact.abs());
                assert!(
                    (approx - exact).abs() <= tol,
                    "w={w} t={t}: {approx} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn zero_code_multiplies_to_zero() {
        let pe = LogPe::for_kernel(4.0, LogBase::inv_sqrt2()).unwrap();
        assert_eq!(pe.multiply(LogCode::zeroed(), 5).unwrap(), 0.0);
    }

    #[test]
    fn linear_pe_is_exact() {
        let pe = LinearPe::new();
        let v = pe.multiply(0.5, 4.0, 4);
        assert!((v - 0.25).abs() < 1e-7);
    }

    #[test]
    fn lcm_gcd() {
        assert_eq!(lcm(4, 2), 4);
        assert_eq!(lcm(4, 1), 4);
        assert_eq!(lcm(16, 4), 16);
        assert_eq!(gcd(12, 18), 6);
    }
}
