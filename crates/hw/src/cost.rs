use crate::{DecoderKind, PeKind, ProcessorConfig};

/// Relative area/power of one processor configuration's PE array, split the
/// way Fig. 6 plots it (PE datapath vs spike decoder), normalized so the
/// baseline configuration totals 1.0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentCosts {
    /// PE-array datapath share (multipliers/shifters + accumulators + ctrl).
    pub pe: f32,
    /// Spike-decoder share (per-layer kernel SRAM or shared LUT).
    pub decoder: f32,
}

impl ComponentCosts {
    /// Total normalized cost.
    pub fn total(&self) -> f32 {
        self.pe + self.decoder
    }
}

/// Analytical area/power model of the PE array.
///
/// The constants below decompose the **baseline** array (multiplier PEs +
/// per-layer SRAM kernel decoders) into components; they are the
/// calibration knobs standing in for the paper's Synopsys synthesis. The
/// Fig. 6 staircase is *derived* from component substitution:
///
/// * CAT (config "I"): `DecoderKind::Sram → Lut` removes the kernel SRAM —
///   −12.7 % area / −14.7 % power of the baseline array.
/// * Log PE (config "I+II"): `PeKind::Linear → Log` swaps the multiplier
///   for a 4-entry LUT + barrel shifter — a further −8.1 % / −8.6 %.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaPowerModel {
    /// Per-PE multiplier area (normalized units).
    pub area_pe_mult: f32,
    /// Per-PE log datapath (LUT share + shifter) area.
    pub area_pe_logdp: f32,
    /// Per-PE common area (accumulator, Vmem regs, control).
    pub area_pe_common: f32,
    /// Whole-array kernel-SRAM decoder area.
    pub area_decoder_sram: f32,
    /// Whole-array shared-LUT decoder area.
    pub area_decoder_lut: f32,
    /// Per-PE multiplier power.
    pub pow_pe_mult: f32,
    /// Per-PE log datapath power.
    pub pow_pe_logdp: f32,
    /// Per-PE common power.
    pub pow_pe_common: f32,
    /// Whole-array kernel-SRAM decoder power.
    pub pow_decoder_sram: f32,
    /// Whole-array shared-LUT decoder power.
    pub pow_decoder_lut: f32,
    /// Absolute scale: mm² of PE array per normalized area unit.
    pub pe_array_mm2_per_unit: f32,
    /// Absolute scale: mW of PE array per normalized power unit.
    pub pe_array_mw_per_unit: f32,
    /// On-chip SRAM density, mm² per KB (28 nm-class 6T).
    pub sram_mm2_per_kb: f32,
    /// Fixed area for control/DMA/encoder blocks, mm².
    pub misc_mm2: f32,
    /// Power of SRAM buffers + control at full activity, mW.
    pub buffers_ctrl_mw: f32,
}

impl AreaPowerModel {
    /// 28 nm-class calibration (see module docs).
    pub fn cmos28() -> Self {
        let pes = 128.0f32;
        Self {
            // Area: baseline total = 1.0 → decoder SRAM 0.140, multipliers
            // 0.3072, common 0.5528.
            area_pe_mult: 0.0024,
            area_pe_logdp: 0.0024 - 0.081 / pes,
            area_pe_common: 0.5528 / pes,
            area_decoder_sram: 0.140,
            area_decoder_lut: 0.140 - 0.127,
            // Power: baseline total = 1.0 → decoder SRAM 0.160, multipliers
            // 0.3328, common 0.5072.
            pow_pe_mult: 0.0026,
            pow_pe_logdp: 0.0026 - 0.086 / pes,
            pow_pe_common: 0.5072 / pes,
            pow_decoder_sram: 0.160,
            pow_decoder_lut: 0.160 - 0.147,
            pe_array_mm2_per_unit: 0.38,
            pe_array_mw_per_unit: 55.0,
            sram_mm2_per_kb: 0.0013,
            misc_mm2: 0.08,
            buffers_ctrl_mw: 25.0,
        }
    }

    /// Normalized PE-array area of a configuration, split per Fig. 6.
    pub fn area(&self, config: &ProcessorConfig) -> ComponentCosts {
        let per_pe = match config.pe_kind {
            PeKind::Linear => self.area_pe_mult,
            PeKind::Log => self.area_pe_logdp,
        } + self.area_pe_common;
        let decoder = match config.decoder_kind {
            DecoderKind::Sram => self.area_decoder_sram,
            DecoderKind::Lut => self.area_decoder_lut,
        };
        ComponentCosts {
            pe: per_pe * config.pe_count as f32,
            decoder,
        }
    }

    /// Normalized PE-array power of a configuration, split per Fig. 6.
    pub fn power(&self, config: &ProcessorConfig) -> ComponentCosts {
        let per_pe = match config.pe_kind {
            PeKind::Linear => self.pow_pe_mult,
            PeKind::Log => self.pow_pe_logdp,
        } + self.pow_pe_common;
        let decoder = match config.decoder_kind {
            DecoderKind::Sram => self.pow_decoder_sram,
            DecoderKind::Lut => self.pow_decoder_lut,
        };
        ComponentCosts {
            pe: per_pe * config.pe_count as f32,
            decoder,
        }
    }

    /// Absolute chip area estimate in mm² (PE array + SRAM buffers + misc),
    /// landing near the paper's 0.9102 mm² for the proposed configuration.
    pub fn chip_area_mm2(&self, config: &ProcessorConfig) -> f32 {
        let sram_kb =
            (config.weight_buffer_bytes() + config.input_buffer_kb * 1024) as f32 / 1024.0;
        self.area(config).total() * self.pe_array_mm2_per_unit
            + sram_kb * self.sram_mm2_per_kb
            + self.misc_mm2
    }

    /// Absolute chip power estimate in mW at full activity, landing near
    /// the paper's 67.3 mW for the proposed configuration.
    pub fn chip_power_mw(&self, config: &ProcessorConfig) -> f32 {
        self.power(config).total() * self.pe_array_mw_per_unit + self.buffers_ctrl_mw
    }
}

impl Default for AreaPowerModel {
    fn default() -> Self {
        Self::cmos28()
    }
}

/// Per-event energy constants (pJ), 28 nm-class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Off-chip DRAM access energy per bit (the paper's HBM-like 4 pJ/bit).
    pub dram_pj_per_bit: f32,
    /// On-chip SRAM read energy per bit.
    pub sram_pj_per_bit: f32,
    /// Synaptic operation on a linear (multiplier) PE, pJ.
    pub sop_linear_pj: f32,
    /// Synaptic operation on a log (LUT+shift) PE, pJ.
    pub sop_log_pj: f32,
    /// Spike-encoder energy per comparator/priority-encoder cycle, pJ.
    pub encoder_pj_per_cycle: f32,
    /// Minfind sorting energy per spike, pJ.
    pub sort_pj_per_spike: f32,
    /// Chip-wide static/clock energy per cycle, pJ (leakage + clock tree).
    pub idle_pj_per_cycle: f32,
}

impl EnergyModel {
    /// 28 nm-class calibration consistent with [`AreaPowerModel::cmos28`].
    pub fn cmos28() -> Self {
        Self {
            dram_pj_per_bit: 4.0,
            sram_pj_per_bit: 0.06,
            sop_linear_pj: 1.10,
            sop_log_pj: 0.95,
            encoder_pj_per_cycle: 2.0,
            sort_pj_per_spike: 1.5,
            idle_pj_per_cycle: 60.0,
        }
    }

    /// SOP energy for a PE kind.
    pub fn sop_pj(&self, kind: PeKind) -> f32 {
        match kind {
            PeKind::Linear => self.sop_linear_pj,
            PeKind::Log => self.sop_log_pj,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::cmos28()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_area_staircase_emerges() {
        let m = AreaPowerModel::cmos28();
        let base = m.area(&ProcessorConfig::baseline()).total();
        let cat = m.area(&ProcessorConfig::with_cat()).total();
        let full = m.area(&ProcessorConfig::proposed()).total();
        assert!(
            (base - 1.0).abs() < 1e-3,
            "baseline normalizes to 1: {base}"
        );
        assert!(
            ((base - cat) - 0.127).abs() < 2e-3,
            "CAT saves 12.7%: {}",
            base - cat
        );
        assert!(
            ((cat - full) - 0.081).abs() < 2e-3,
            "log PE saves 8.1%: {}",
            cat - full
        );
    }

    #[test]
    fn fig6_power_staircase_emerges() {
        let m = AreaPowerModel::cmos28();
        let base = m.power(&ProcessorConfig::baseline()).total();
        let cat = m.power(&ProcessorConfig::with_cat()).total();
        let full = m.power(&ProcessorConfig::proposed()).total();
        assert!((base - 1.0).abs() < 1e-3);
        assert!(((base - cat) - 0.147).abs() < 2e-3, "CAT saves 14.7%");
        assert!(((cat - full) - 0.086).abs() < 2e-3, "log PE saves 8.6%");
    }

    #[test]
    fn absolute_area_power_near_table4() {
        let m = AreaPowerModel::cmos28();
        let area = m.chip_area_mm2(&ProcessorConfig::proposed());
        assert!(
            (area - 0.9102).abs() < 0.1,
            "chip area {area} vs 0.9102 mm2"
        );
        let power = m.chip_power_mw(&ProcessorConfig::proposed());
        assert!((power - 67.3).abs() < 5.0, "chip power {power} vs 67.3 mW");
    }

    #[test]
    fn log_pe_cheaper_per_sop() {
        let e = EnergyModel::cmos28();
        assert!(e.sop_pj(PeKind::Log) < e.sop_pj(PeKind::Linear));
    }
}
