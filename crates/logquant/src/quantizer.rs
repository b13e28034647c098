use snn_tensor::Tensor;

use crate::{LogBase, QuantError};

/// The hardware representation of one quantized weight: a sign, a zero
/// flag, and an exponent *code* counting `log2_step`s below the full-scale
/// range (eq. 15). With `b` bits: 1 sign bit and `b−1` exponent bits giving
/// `2^(b−1) − 1` magnitude levels plus a dedicated zero code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogCode {
    /// True for negative weights.
    pub negative: bool,
    /// Exponent steps below FSR (0 = largest magnitude). Meaningless when
    /// `zero`.
    pub steps: u16,
    /// Dedicated zero code (weights that underflow the range).
    pub zero: bool,
}

impl LogCode {
    /// The zero code.
    pub fn zeroed() -> Self {
        Self {
            negative: false,
            steps: 0,
            zero: true,
        }
    }
}

/// Post-training logarithmic weight quantizer (eq. 15, after Vogel et al.).
///
/// Fitted to a weight population: the full-scale range (FSR) anchors at the
/// largest magnitude, and every weight is rounded to the nearest power of
/// the base below it, clipped to the representable window.
///
/// # Example
///
/// ```
/// use snn_logquant::{LogBase, LogQuantizer};
///
/// # fn main() -> Result<(), snn_logquant::QuantError> {
/// let q = LogQuantizer::fit(LogBase::inv_sqrt2(), 5, &[1.0, -0.5, 0.1])?;
/// assert_eq!(q.levels(), 15); // 2^(5-1) - 1
/// assert_eq!(q.quantize(1.0), 1.0); // FSR is exactly representable
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogQuantizer {
    base: LogBase,
    bits: u8,
    fsr_log2: f32,
}

impl LogQuantizer {
    /// Fits a quantizer to a weight population: FSR := max |w|.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadBitWidth`] for `bits < 2` and
    /// [`QuantError::DegenerateRange`] when no weight is nonzero.
    pub fn fit(base: LogBase, bits: u8, weights: &[f32]) -> Result<Self, QuantError> {
        Self::fit_slice(base, bits, weights)
    }

    /// Per-layer calibration helper: fits one quantizer to a layer's weight
    /// tensor (FSR anchors at the layer's largest magnitude, as deployment
    /// calibrates each layer independently).
    ///
    /// # Errors
    ///
    /// Same conditions as [`LogQuantizer::fit`].
    pub fn fit_tensor(base: LogBase, bits: u8, weights: &Tensor) -> Result<Self, QuantError> {
        Self::fit_slice(base, bits, weights.as_slice())
    }

    fn fit_slice(base: LogBase, bits: u8, weights: &[f32]) -> Result<Self, QuantError> {
        if bits < 2 {
            return Err(QuantError::BadBitWidth(bits));
        }
        let max = weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
        if max <= 0.0 {
            return Err(QuantError::DegenerateRange);
        }
        // Snap the FSR exponent *up* onto the base grid so that it is a
        // representable hardware exponent (the log-domain PE shares this
        // grid) and no weight exceeds the full-scale range.
        let denom = base.denominator() as f32;
        let fsr_log2 = (max.log2() * denom).ceil() / denom;
        Ok(Self {
            base,
            bits,
            fsr_log2,
        })
    }

    /// Builds a quantizer with an explicit full-scale range (log2 of the
    /// largest representable magnitude).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadBitWidth`] for `bits < 2`.
    pub fn with_fsr(base: LogBase, bits: u8, fsr_log2: f32) -> Result<Self, QuantError> {
        if bits < 2 {
            return Err(QuantError::BadBitWidth(bits));
        }
        Ok(Self {
            base,
            bits,
            fsr_log2,
        })
    }

    /// The quantization base.
    pub fn base(&self) -> LogBase {
        self.base
    }

    /// Total bit width (1 sign + `bits−1` exponent bits).
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of representable magnitude levels (`2^(bits−1) − 1`).
    pub fn levels(&self) -> u16 {
        (1u16 << (self.bits - 1)) - 1
    }

    /// log₂ of the full-scale range.
    pub fn fsr_log2(&self) -> f32 {
        self.fsr_log2
    }

    /// Encodes a weight into its hardware code.
    pub fn code(&self, w: f32) -> LogCode {
        if w == 0.0 {
            return LogCode::zeroed();
        }
        let step = self.base.log2_step();
        let n = ((self.fsr_log2 - w.abs().log2()) / step).round();
        let max_steps = (self.levels() - 1) as f32;
        // Underflow far below the smallest level becomes zero; mild
        // underflow clips to the smallest magnitude (Vogel's clip).
        if n > max_steps + 0.5 / step + (self.levels() as f32) {
            return LogCode::zeroed();
        }
        let steps = n.clamp(0.0, max_steps) as u16;
        LogCode {
            negative: w < 0.0,
            steps,
            zero: false,
        }
    }

    /// Decodes a hardware code back to its real value.
    pub fn decode(&self, code: LogCode) -> f32 {
        if code.zero {
            return 0.0;
        }
        let mag = (self.fsr_log2 - code.steps as f32 * self.base.log2_step()).exp2();
        if code.negative {
            -mag
        } else {
            mag
        }
    }

    /// Quantizes a weight (encode–decode round trip).
    pub fn quantize(&self, w: f32) -> f32 {
        self.decode(self.code(w))
    }

    /// Packs a code into one byte: bit 0 is the sign, the upper bits are
    /// the magnitude index (`0` = exact zero, `m` = `steps + 1` for
    /// `m ∈ 1..=levels()`). The magnitude space thus has `levels() + 1`
    /// entries including the dedicated zero, and the byte doubles as a
    /// direct index into [`decode_lut`](Self::decode_lut).
    ///
    /// Requires `bits ≤ 8` (the code space must fit one byte); wider
    /// quantizers are a diagnostic configuration, not a packing target.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 8`.
    pub fn pack(&self, code: LogCode) -> u8 {
        assert!(self.bits <= 8, "packed codes need bits <= 8");
        if code.zero {
            0
        } else {
            ((code.steps as u8 + 1) << 1) | u8::from(code.negative)
        }
    }

    /// Inverse of [`pack`](Self::pack). The unused `packed == 1` slot
    /// (a negative zero the encoder never emits) decodes as the zero code.
    pub fn unpack(&self, packed: u8) -> LogCode {
        if packed >> 1 == 0 {
            LogCode::zeroed()
        } else {
            LogCode {
                negative: packed & 1 == 1,
                steps: (packed >> 1) as u16 - 1,
                zero: false,
            }
        }
    }

    /// Encode straight to the packed byte.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 8` (see [`pack`](Self::pack)).
    pub fn encode_packed(&self, w: f32) -> u8 {
        self.pack(self.code(w))
    }

    /// Decode a packed byte back to its real value.
    pub fn decode_packed(&self, packed: u8) -> f32 {
        self.decode(self.unpack(packed))
    }

    /// Number of packed-code slots ([`decode_lut`](Self::decode_lut)'s
    /// length): `2·levels() + 2` — `levels() + 1` magnitudes including
    /// exact zero, times the sign bit.
    pub fn packed_slots(&self) -> usize {
        2 * self.levels() as usize + 2
    }

    /// The signed decode table indexed by packed code:
    /// `decode_lut()[pack(c)] == decode(c)` **bit-for-bit** for every code
    /// `c` the encoder emits (negation is exact in IEEE 754, so folding
    /// the sign into the table loses nothing). This is the table a serving
    /// runtime resolves stored codes through instead of multiplying or
    /// re-deriving exponents per synaptic op.
    pub fn decode_lut(&self) -> Vec<f32> {
        (0..self.packed_slots())
            .map(|p| self.decode_packed(p as u8))
            .collect()
    }

    /// Quantizes every element of a tensor.
    pub fn quantize_tensor(&self, t: &Tensor) -> Tensor {
        t.map(|w| self.quantize(w))
    }

    /// Mean relative quantization error over a population (diagnostic used
    /// by the Fig. 4 harness).
    pub fn mean_relative_error(&self, weights: &[f32]) -> f32 {
        let mut err = 0.0f32;
        let mut n = 0usize;
        for &w in weights {
            if w.abs() > 0.0 {
                err += (self.quantize(w) - w).abs() / w.abs();
                n += 1;
            }
        }
        err / n.max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q5() -> LogQuantizer {
        LogQuantizer::fit(LogBase::inv_sqrt2(), 5, &[1.0, -0.5, 0.001]).unwrap()
    }

    #[test]
    fn fsr_is_exact() {
        let q = q5();
        assert_eq!(q.quantize(1.0), 1.0);
        assert_eq!(q.quantize(-1.0), -1.0);
    }

    #[test]
    fn quantized_values_on_base_grid() {
        let q = q5();
        for &w in &[0.9f32, 0.3, -0.07, 0.5, -0.21] {
            let v = q.quantize(w);
            // log2|v| must be a multiple of 1/2 (inv_sqrt2 base).
            let l = v.abs().log2() * 2.0;
            assert!((l - l.round()).abs() < 1e-4, "w={w} v={v}");
        }
    }

    #[test]
    fn sign_preserved() {
        let q = q5();
        assert!(q.quantize(-0.3) < 0.0);
        assert!(q.quantize(0.3) > 0.0);
        assert_eq!(q.quantize(0.0), 0.0);
    }

    #[test]
    fn five_bits_give_15_levels() {
        assert_eq!(q5().levels(), 15);
        let q4 = LogQuantizer::fit(LogBase::inv_sqrt2(), 4, &[1.0]).unwrap();
        assert_eq!(q4.levels(), 7);
    }

    #[test]
    fn deep_underflow_becomes_zero_mild_clips() {
        let q = q5();
        // Smallest level: 2^(0 - 14*0.5) = 2^-7 ~ 0.0078
        assert_eq!(q.quantize(1e-12), 0.0);
        let mild = q.quantize(0.004);
        assert!(mild > 0.0, "mild underflow clips to smallest level");
    }

    #[test]
    fn error_shrinks_with_bits_and_finer_base() {
        let pop: Vec<f32> = (1..200)
            .map(|i| (i as f32 * 0.005) * if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let e4 = LogQuantizer::fit(LogBase::inv_sqrt2(), 4, &pop)
            .unwrap()
            .mean_relative_error(&pop);
        let e6 = LogQuantizer::fit(LogBase::inv_sqrt2(), 6, &pop)
            .unwrap()
            .mean_relative_error(&pop);
        assert!(e6 < e4, "more bits must reduce error: {e6} vs {e4}");
        let coarse = LogQuantizer::fit(LogBase::pow2(), 6, &pop)
            .unwrap()
            .mean_relative_error(&pop);
        let fine = LogQuantizer::fit(LogBase::inv_4th_root2(), 6, &pop)
            .unwrap()
            .mean_relative_error(&pop);
        assert!(fine < coarse, "finer base must reduce error at ample bits");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            LogQuantizer::fit(LogBase::inv_sqrt2(), 1, &[1.0]),
            Err(QuantError::BadBitWidth(1))
        );
        assert_eq!(
            LogQuantizer::fit(LogBase::inv_sqrt2(), 5, &[0.0]),
            Err(QuantError::DegenerateRange)
        );
    }

    #[test]
    fn code_roundtrip() {
        let q = q5();
        for &w in &[0.77f32, -0.12, 0.031] {
            let code = q.code(w);
            assert_eq!(q.decode(code), q.quantize(w));
        }
        assert_eq!(q.decode(LogCode::zeroed()), 0.0);
    }

    #[test]
    fn fit_tensor_matches_fit_on_the_flat_population() {
        let data = vec![1.0f32, -0.5, 0.1, 0.0];
        let t = Tensor::from_vec(data.clone(), &[2, 2]).unwrap();
        let a = LogQuantizer::fit_tensor(LogBase::inv_sqrt2(), 5, &t).unwrap();
        let b = LogQuantizer::fit(LogBase::inv_sqrt2(), 5, &data).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn packed_roundtrip_covers_every_code() {
        let q = q5();
        // Every reachable code: zero, and both signs of every magnitude.
        assert_eq!(q.unpack(q.pack(LogCode::zeroed())), LogCode::zeroed());
        for steps in 0..q.levels() {
            for negative in [false, true] {
                let code = LogCode {
                    negative,
                    steps,
                    zero: false,
                };
                assert_eq!(q.unpack(q.pack(code)), code, "steps={steps}");
            }
        }
        // The never-emitted negative-zero slot decodes as zero.
        assert_eq!(q.decode_packed(1), 0.0);
    }

    #[test]
    fn packed_bytes_match_float_roundtrip() {
        let q = q5();
        for &w in &[0.77f32, -0.12, 0.031, 0.0, -1.0, 1e-12] {
            assert_eq!(q.decode_packed(q.encode_packed(w)), q.quantize(w));
        }
    }

    #[test]
    fn decode_lut_is_bit_exact_for_every_packed_code() {
        for bits in [3u8, 4, 5, 8] {
            for base in [LogBase::pow2(), LogBase::inv_sqrt2()] {
                let q = LogQuantizer::fit(base, bits, &[0.9, -0.4, 0.02]).unwrap();
                let lut = q.decode_lut();
                assert_eq!(lut.len(), q.packed_slots());
                assert_eq!(lut.len(), 2 * q.levels() as usize + 2);
                for (p, &v) in lut.iter().enumerate() {
                    let exact = q.decode(q.unpack(p as u8));
                    assert_eq!(v.to_bits(), exact.to_bits(), "bits={bits} packed={p}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bits <= 8")]
    fn pack_rejects_wide_quantizers() {
        let q = LogQuantizer::fit(LogBase::inv_sqrt2(), 9, &[1.0]).unwrap();
        let _ = q.pack(q.code(0.5));
    }
}
