/// PE datapath flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeKind {
    /// Multiplier datapath (decoded spike value × weight).
    Linear,
    /// Log-domain LUT + shift datapath (eq. 17) — no multiplier.
    Log,
}

/// Spike-decoder (kernel) storage flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecoderKind {
    /// Per-layer reconfigurable kernels in SRAM (T2FSNN needs a different
    /// `(τ, t_d)` per layer).
    Sram,
    /// One shared kernel in a small LUT (CAT unifies kernels across
    /// layers).
    Lut,
}

/// Static configuration of the SNN processor (Table 4 column "This work").
///
/// # Example
///
/// ```
/// use snn_hw::ProcessorConfig;
///
/// let c = ProcessorConfig::proposed();
/// assert_eq!(c.pe_count, 128);
/// assert_eq!(c.frequency_mhz, 250);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorConfig {
    /// Number of processing elements (128 = 4 clusters × 32).
    pub pe_count: usize,
    /// PE clusters (each with its own weight buffer).
    pub clusters: usize,
    /// Weight buffer size per cluster, KB (90 KB × 4 in the paper).
    pub weight_buffer_kb: usize,
    /// Input buffer size, KB (48 KB, added over SpinalFlow for DRAM reuse).
    pub input_buffer_kb: usize,
    /// Output spike buffer, bytes (192 B).
    pub output_buffer_bytes: usize,
    /// Clock frequency, MHz.
    pub frequency_mhz: u32,
    /// Supply voltage, V.
    pub voltage: f32,
    /// Weight bit width (5-bit logarithmic in the paper).
    pub weight_bits: u32,
    /// PE datapath.
    pub pe_kind: PeKind,
    /// Kernel decoder storage.
    pub decoder_kind: DecoderKind,
    /// TTFS fire window T.
    pub window: u32,
    /// TTFS kernel time constant τ (must satisfy eq. 18 for log PEs).
    pub kernel_tau: f32,
}

impl ProcessorConfig {
    /// Baseline: T2FSNN mapped onto SpinalFlow — per-layer SRAM kernel
    /// decoding and multiplier PEs (Fig. 6 "Base").
    pub fn baseline() -> Self {
        Self {
            pe_count: 128,
            clusters: 4,
            weight_buffer_kb: 90,
            input_buffer_kb: 48,
            output_buffer_bytes: 192,
            frequency_mhz: 250,
            voltage: 0.99,
            weight_bits: 5,
            pe_kind: PeKind::Linear,
            decoder_kind: DecoderKind::Sram,
            window: 80,
            kernel_tau: 20.0,
        }
    }

    /// CAT applied (Fig. 6 "I"): kernels unified → SRAM decoder replaced by
    /// a shared LUT; PEs still multiply.
    pub fn with_cat() -> Self {
        Self {
            decoder_kind: DecoderKind::Lut,
            window: 24,
            kernel_tau: 4.0,
            ..Self::baseline()
        }
    }

    /// Full proposal (Fig. 6 "I+II"): shared-LUT decoder *and* log-domain
    /// multiplication-free PEs.
    pub fn proposed() -> Self {
        Self {
            pe_kind: PeKind::Log,
            decoder_kind: DecoderKind::Lut,
            window: 24,
            kernel_tau: 4.0,
            ..Self::baseline()
        }
    }

    /// The proposed design minus the 48 KB input buffer (the SpinalFlow
    /// starting point): input spikes must be refetched from DRAM on every
    /// PE-array pass. Used by the input-buffer ablation.
    pub fn without_input_buffer() -> Self {
        Self {
            input_buffer_kb: 0,
            ..Self::proposed()
        }
    }

    /// Total on-chip weight storage in bytes.
    pub fn weight_buffer_bytes(&self) -> usize {
        self.clusters * self.weight_buffer_kb * 1024
    }

    /// Peak synaptic-op throughput in GSOP/s (`PEs × f`), Table 4's
    /// "Computational Throughput" row: 128 × 250 MHz = 32 GSOP/s.
    pub fn peak_gsops(&self) -> f32 {
        self.pe_count as f32 * self.frequency_mhz as f32 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_throughput_row() {
        assert_eq!(ProcessorConfig::proposed().peak_gsops(), 32.0);
    }

    #[test]
    fn configs_differ_only_in_expected_fields() {
        let base = ProcessorConfig::baseline();
        let cat = ProcessorConfig::with_cat();
        let full = ProcessorConfig::proposed();
        assert_eq!(base.pe_kind, PeKind::Linear);
        assert_eq!(base.decoder_kind, DecoderKind::Sram);
        assert_eq!(cat.pe_kind, PeKind::Linear);
        assert_eq!(cat.decoder_kind, DecoderKind::Lut);
        assert_eq!(full.pe_kind, PeKind::Log);
        assert_eq!(full.decoder_kind, DecoderKind::Lut);
        assert_eq!(base.pe_count, full.pe_count);
    }

    #[test]
    fn buffer_sizes() {
        let c = ProcessorConfig::proposed();
        assert_eq!(c.weight_buffer_bytes(), 4 * 90 * 1024);
    }
}
