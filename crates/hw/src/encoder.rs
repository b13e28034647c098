/// The threshold LUT of the spike encoder: precomputed falling threshold
/// `θ₀·2^(−t/τ)` for every encoding timestep (§4's "threshold LUT").
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdLut {
    values: Vec<f32>,
}

impl ThresholdLut {
    /// Builds the base-2 threshold sequence for timesteps `0..=window`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` or `theta0` is not strictly positive.
    pub fn base2(tau: f32, theta0: f32, window: u32) -> Self {
        assert!(
            tau > 0.0 && theta0 > 0.0,
            "kernel parameters must be positive"
        );
        Self {
            values: (0..=window)
                .map(|t| theta0 * (-(t as f32) / tau).exp2())
                .collect(),
        }
    }

    /// Threshold at encoding timestep `t`.
    pub fn at(&self, t: u32) -> f32 {
        self.values[t as usize]
    }

    /// Number of stored thresholds (window + 1).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.values.len()
    }
}

/// Cycle-level functional model of the **spike encoder** (§4, right of
/// Fig. 5): a Vmem buffer, 128 comparators against the current threshold, a
/// 128→7 priority encoder that serializes simultaneous crossings one neuron
/// ID per cycle, and feedback that resets a fired neuron's Vmem.
///
/// Mirrors the paper's procedure: negative membranes are zeroed at load;
/// the timestep advances only when no remaining membrane exceeds the
/// current threshold; encoding ends when the buffer is all-zero or the last
/// timestep T has run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeEncoder {
    lut: ThresholdLut,
}

/// Result of encoding one Vmem batch.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeResult {
    /// Emitted spikes as `(neuron, timestep)`, in emission order.
    pub spikes: Vec<(usize, u32)>,
    /// Total cycles: threshold steps + one per emitted spike.
    pub cycles: u64,
}

impl SpikeEncoder {
    /// Creates an encoder with the given threshold sequence.
    pub fn new(lut: ThresholdLut) -> Self {
        Self { lut }
    }

    /// The threshold LUT.
    pub fn lut(&self) -> &ThresholdLut {
        &self.lut
    }

    /// Encodes a buffer of membrane voltages into TTFS spikes.
    pub fn encode(&self, vmem: &[f32]) -> EncodeResult {
        // Load phase: negative membranes cannot spike; clamp to zero.
        let mut buf: Vec<f32> = vmem.iter().map(|&v| v.max(0.0)).collect();
        let mut spikes = Vec::new();
        let mut cycles: u64 = 0;
        let window = (self.lut.len() - 1) as u32;
        for t in 0..=window {
            let threshold = self.lut.at(t);
            // Priority encoder: one crossing serialized per cycle.
            loop {
                cycles += 1; // comparator + priority-encode step
                let hit = buf.iter().position(|&v| v > 0.0 && v >= threshold);
                match hit {
                    Some(neuron) => {
                        spikes.push((neuron, t));
                        buf[neuron] = 0.0; // feedback reset
                    }
                    None => break, // advance timestep
                }
            }
            if buf.iter().all(|&v| v == 0.0) {
                break; // all membranes reset: encoding done early
            }
        }
        EncodeResult { spikes, cycles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder() -> SpikeEncoder {
        SpikeEncoder::new(ThresholdLut::base2(4.0, 1.0, 24))
    }

    #[test]
    fn lut_is_monotone_decreasing() {
        let lut = ThresholdLut::base2(4.0, 1.0, 24);
        for t in 1..lut.len() {
            assert!(lut.at(t as u32) < lut.at(t as u32 - 1));
        }
        assert_eq!(lut.len(), 25);
    }

    #[test]
    fn larger_vmem_fires_earlier() {
        let enc = encoder();
        let res = enc.encode(&[0.9, 0.3, 0.05]);
        let t_of = |n: usize| res.spikes.iter().find(|s| s.0 == n).map(|s| s.1);
        assert!(t_of(0).unwrap() < t_of(1).unwrap());
        assert!(t_of(1).unwrap() < t_of(2).unwrap());
    }

    #[test]
    fn negative_vmem_never_spikes() {
        let enc = encoder();
        let res = enc.encode(&[-0.5, 0.5]);
        assert_eq!(res.spikes.len(), 1);
        assert_eq!(res.spikes[0].0, 1);
    }

    #[test]
    fn at_most_one_spike_per_neuron() {
        let enc = encoder();
        let res = enc.encode(&[1.0, 1.0, 0.7, 0.2, 0.0]);
        let mut neurons: Vec<usize> = res.spikes.iter().map(|s| s.0).collect();
        neurons.sort_unstable();
        neurons.dedup();
        assert_eq!(neurons.len(), res.spikes.len());
    }

    #[test]
    fn simultaneous_crossings_serialize_on_same_timestep() {
        let enc = encoder();
        let res = enc.encode(&[1.0, 1.0, 1.0]);
        assert_eq!(res.spikes.len(), 3);
        assert!(res.spikes.iter().all(|s| s.1 == 0), "{:?}", res.spikes);
        // 3 emit cycles + 1 no-hit cycle to notice the buffer is clear.
        assert_eq!(res.cycles, 4);
    }

    #[test]
    fn early_termination_when_all_reset() {
        let enc = encoder();
        let res = enc.encode(&[1.0]);
        // One emit cycle, one advance check; never walks the full window.
        assert!(res.cycles < 5);
    }

    #[test]
    fn encoding_matches_kernel_quantization() {
        // The encoder must emit exactly the timestep ⌈−τ·log2(u)⌉ the
        // base-2 kernel predicts.
        let enc = encoder();
        for &u in &[0.9f32, 0.51, 0.2, 0.0401] {
            let res = enc.encode(&[u]);
            let expected = (-4.0 * u.log2() - 1e-4).ceil().max(0.0) as u32;
            assert_eq!(res.spikes[0].1, expected, "u={u}");
        }
    }

    #[test]
    fn below_window_floor_never_fires() {
        let enc = encoder();
        // kappa(24) = 2^-6 ~ 0.0156; 0.001 is unrepresentable.
        let res = enc.encode(&[0.001]);
        assert!(res.spikes.is_empty());
    }
}
