use serde::{Deserialize, Serialize};

/// A logarithmic quantization base satisfying eq. 16:
/// `a_w = 2^(−2^(−z))` for integer `z ≥ 0`.
///
/// * `z = 0` → `a_w = 2^(−1)` (classic power-of-two quantization),
/// * `z = 1` → `a_w = 2^(−1/2)` (the paper's choice),
/// * `z = 2` → `a_w = 2^(−1/4)`.
///
/// These are the three curves of Fig. 4.
///
/// # Example
///
/// ```
/// use snn_logquant::LogBase;
///
/// let b = LogBase::inv_sqrt2();
/// assert_eq!(b.z(), 1);
/// assert!((b.value() - 0.70710677).abs() < 1e-6);
/// assert!((b.log2_step() - 0.5).abs() < 1e-9);
/// ```
// Serde: the `.snna` header's backend hint and the layout's quantizers carry
// it; the field name `z` is an on-disk key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LogBase {
    z: u8,
}

impl LogBase {
    /// Creates a base from its eq. 16 exponent parameter `z`.
    pub fn new(z: u8) -> Self {
        Self { z }
    }

    /// `a_w = 2^(−1)` — power-of-two quantization ("aw=2" in Fig. 4).
    pub fn pow2() -> Self {
        Self::new(0)
    }

    /// `a_w = 2^(−1/2)` — the paper's hardware choice.
    pub fn inv_sqrt2() -> Self {
        Self::new(1)
    }

    /// `a_w = 2^(−1/4)`.
    pub fn inv_4th_root2() -> Self {
        Self::new(2)
    }

    /// The `z` parameter of eq. 16.
    pub fn z(&self) -> u8 {
        self.z
    }

    /// Numeric base value `a_w ∈ (0, 1)`.
    pub fn value(&self) -> f32 {
        (-self.log2_step()).exp2()
    }

    /// `|log₂ a_w| = 2^(−z)`: the spacing of representable weight
    /// exponents in the log2 domain.
    pub fn log2_step(&self) -> f32 {
        (2.0f32).powi(-(self.z as i32))
    }

    /// Exponent-grid denominator: representable `log₂|w|` are integer
    /// multiples of `1/denominator()`.
    pub fn denominator(&self) -> u32 {
        1u32 << self.z
    }

    /// Label used in Fig. 4 legends.
    pub fn label(&self) -> String {
        match self.z {
            0 => "aw=2^-1".to_string(),
            z => format!("aw=2^-1/{}", 1u32 << z),
        }
    }
}

impl Default for LogBase {
    fn default() -> Self {
        Self::inv_sqrt2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bases_match_fig4() {
        assert!((LogBase::pow2().value() - 0.5).abs() < 1e-7);
        assert!((LogBase::inv_sqrt2().value() - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-6);
        assert!((LogBase::inv_4th_root2().value() - (0.5f32).powf(0.25)).abs() < 1e-6);
    }

    #[test]
    fn step_and_denominator_agree() {
        for z in 0..4u8 {
            let b = LogBase::new(z);
            assert!((b.log2_step() * b.denominator() as f32 - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(LogBase::inv_sqrt2().label(), "aw=2^-1/2");
        assert_eq!(LogBase::pow2().label(), "aw=2^-1");
    }
}
