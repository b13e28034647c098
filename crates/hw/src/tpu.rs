use crate::LayerGeometry;

/// Analytical model of the comparison ANN accelerator: the paper's
/// "redesigned TPU" — a 16×16 systolic MAC array at 250 MHz / 0.99 V in the
/// same 28 nm node, with 8-bit weights streamed from DRAM.
///
/// ANN inference has no event sparsity: every MAC executes, which is
/// exactly why the SNN wins on energy in Table 4 despite the same process
/// and clock.
///
/// # Example
///
/// ```
/// use snn_hw::{vgg16_geometry, TpuModel};
///
/// let tpu = TpuModel::redesigned_16x16();
/// let r = tpu.run_network(&vgg16_geometry(32, 32, 10));
/// assert!(r.fps > 100.0 && r.fps < 400.0); // paper: 204 fps
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpuModel {
    /// MAC units (16 × 16 = 256).
    pub macs: usize,
    /// Clock frequency, MHz.
    pub frequency_mhz: u32,
    /// Core power at full activity, mW (Table 4: 100.1 mW).
    pub power_mw: f32,
    /// Weight bit width (8-bit post-training quantization).
    pub weight_bits: u32,
    /// DRAM energy per bit, pJ (same 4 pJ/bit interface).
    pub dram_pj_per_bit: f32,
    /// Average systolic-array utilization.
    pub utilization: f32,
}

/// TPU run summary (one image).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpuReport {
    /// Cycles per image.
    pub cycles: u64,
    /// Energy per image, µJ.
    pub energy_per_image_uj: f64,
    /// Frames per second.
    pub fps: f64,
}

impl TpuModel {
    /// The paper's comparison configuration.
    pub fn redesigned_16x16() -> Self {
        Self {
            macs: 256,
            frequency_mhz: 250,
            power_mw: 100.1,
            weight_bits: 8,
            dram_pj_per_bit: 4.0,
            utilization: 1.0,
        }
    }

    /// Peak GMAC/s (Table 4: 64 GMAC/s).
    pub fn peak_gmacs(&self) -> f32 {
        self.macs as f32 * self.frequency_mhz as f32 / 1000.0
    }

    /// Runs the workload: every MAC executes (dense compute), weights
    /// stream from DRAM once.
    pub fn run_network(&self, layers: &[LayerGeometry]) -> TpuReport {
        let total_macs: u64 = layers.iter().map(|l| l.macs as u64).sum();
        let weights: u64 = layers.iter().map(|l| l.weights as u64).sum();
        let cycles =
            (total_macs as f64 / (self.macs as f64 * self.utilization as f64)).ceil() as u64;
        let seconds = cycles as f64 / (self.frequency_mhz as f64 * 1e6);
        let core_uj = self.power_mw as f64 * 1e-3 * seconds * 1e6;
        let dram_uj =
            (weights * self.weight_bits as u64) as f64 * self.dram_pj_per_bit as f64 * 1e-6;
        TpuReport {
            cycles,
            energy_per_image_uj: core_uj + dram_uj,
            fps: 1.0 / seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vgg16_geometry;

    #[test]
    fn peak_throughput_matches_table4() {
        assert_eq!(TpuModel::redesigned_16x16().peak_gmacs(), 64.0);
    }

    #[test]
    fn cifar10_near_paper_numbers() {
        // Table 4 TPU column: 204 fps, 978.5 µJ on CIFAR-10.
        let r = TpuModel::redesigned_16x16().run_network(&vgg16_geometry(32, 32, 10));
        assert!((r.fps - 204.0).abs() < 60.0, "fps {}", r.fps);
        assert!(
            (r.energy_per_image_uj - 978.5).abs() < 250.0,
            "energy {}",
            r.energy_per_image_uj
        );
    }

    #[test]
    fn tiny_imagenet_near_paper_numbers() {
        // Table 4 TPU column: 51 fps, 2759 µJ on Tiny-ImageNet.
        let r = TpuModel::redesigned_16x16().run_network(&vgg16_geometry(64, 64, 200));
        assert!((r.fps - 51.0).abs() < 15.0, "fps {}", r.fps);
        assert!(
            r.energy_per_image_uj > 1800.0 && r.energy_per_image_uj < 3500.0,
            "energy {}",
            r.energy_per_image_uj
        );
    }
}
