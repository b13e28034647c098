use crate::{AreaPowerModel, EnergyModel, LayerGeometry, MinFindUnit, ProcessorConfig};

/// Event-rate profile of a workload: what fraction of neurons spike at each
/// layer boundary. TTFS coding caps this at 1 spike/neuron; the paper's
/// trained VGG-16 models see roughly a third of neurons firing.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Input-image spike density (fraction of pixels that fire).
    pub input_sparsity: f32,
    /// Per-layer output spike density; reused cyclically if shorter than
    /// the network.
    pub layer_sparsity: Vec<f32>,
}

impl WorkloadProfile {
    /// The density profile used for the Table 4 reproduction (≈ one third
    /// of neurons spiking, slightly denser early layers).
    pub fn paper_default() -> Self {
        Self {
            input_sparsity: 0.9,
            layer_sparsity: vec![0.45, 0.40, 0.35, 0.30, 0.28, 0.25],
        }
    }

    /// Uniform density at every boundary.
    pub fn uniform(s: f32) -> Self {
        Self {
            input_sparsity: s,
            layer_sparsity: vec![s],
        }
    }

    /// Builds a profile from measured per-layer sparsities (e.g. from the
    /// `snn-sim` event statistics of a real converted model).
    pub fn from_measurements(input_sparsity: f32, layer_sparsity: Vec<f32>) -> Self {
        Self {
            input_sparsity,
            layer_sparsity,
        }
    }

    /// Spike density entering weighted layer `i` (layer 0 sees the coded
    /// input image).
    pub fn density_into(&self, i: usize) -> f32 {
        if i == 0 {
            self.input_sparsity
        } else {
            let ls = &self.layer_sparsity;
            ls[(i - 1) % ls.len().max(1)]
        }
    }
}

/// Cycle/energy report for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Input spikes processed.
    pub input_spikes: u64,
    /// Synaptic operations executed.
    pub sops: u64,
    /// Total cycles (sorting/integration overlapped, plus encoding).
    pub cycles: u64,
    /// Energy spent in the PE array, µJ.
    pub pe_energy_uj: f64,
    /// Energy spent reading weights from on-chip SRAM, µJ.
    pub sram_energy_uj: f64,
    /// Energy spent on DRAM traffic, µJ.
    pub dram_energy_uj: f64,
    /// Sorting + encoding energy, µJ.
    pub overhead_energy_uj: f64,
}

impl LayerReport {
    /// Total layer energy, µJ (excluding chip-static share).
    pub fn energy_uj(&self) -> f64 {
        self.pe_energy_uj + self.sram_energy_uj + self.dram_energy_uj + self.overhead_energy_uj
    }
}

/// Whole-network report (one image).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Per-layer reports.
    pub layers: Vec<LayerReport>,
    /// Total cycles per image.
    pub cycles: u64,
    /// Static/clock energy over the whole run, µJ.
    pub static_energy_uj: f64,
    /// Total energy per image, µJ.
    pub energy_per_image_uj: f64,
    /// Throughput at the configured clock, frames/s.
    pub fps: f64,
    /// Total synaptic operations.
    pub total_sops: u64,
    /// Average PE utilization (SOPs / (PEs × cycles)).
    pub utilization: f64,
}

/// The cycle-approximate processor model (Fig. 5 architecture).
///
/// Per layer: the minfind unit sorts incoming spikes (overlapped with PE
/// integration — the slower of the two binds the phase), the PE array
/// integrates `fanout` weights per spike at one SOP per PE per cycle, and
/// the spike encoder walks its threshold schedule emitting one spike per
/// cycle. DRAM is charged for weight streaming (minus what the weight
/// buffers can hold) and spike I/O at 4 pJ/bit.
#[derive(Debug, Clone)]
pub struct Processor {
    config: ProcessorConfig,
    energy: EnergyModel,
    area_power: AreaPowerModel,
    minfind: MinFindUnit,
}

impl Processor {
    /// Creates a processor with the default 28 nm calibration.
    pub fn new(config: ProcessorConfig) -> Self {
        Self {
            config,
            energy: EnergyModel::cmos28(),
            area_power: AreaPowerModel::cmos28(),
            minfind: MinFindUnit::new(16),
        }
    }

    /// Overrides the energy model.
    pub fn with_energy_model(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// The static configuration.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// The area/power model (Fig. 6 source).
    pub fn area_power(&self) -> &AreaPowerModel {
        &self.area_power
    }

    /// Runs one layer of the workload.
    pub fn run_layer(
        &self,
        geom: &LayerGeometry,
        density_in: f32,
        density_out: f32,
    ) -> LayerReport {
        let cfg = &self.config;
        let input_spikes = (geom.in_neurons as f64 * density_in as f64).round() as u64;
        let output_spikes = (geom.out_neurons as f64 * density_out as f64).round() as u64;
        let sops = (geom.macs as f64 * density_in as f64).round() as u64;

        // Integration: PEs process `pe_count` output neurons per pass; each
        // spike is broadcast, each PE applies its weight — one SOP per PE
        // per cycle at full occupancy.
        let passes = geom.out_neurons.div_ceil(cfg.pe_count) as u64;
        // The `passes * 8` term is the pipeline fill per pass.
        let integration_cycles = sops.div_ceil(cfg.pe_count as u64) + passes * 8;
        // Sorting overlaps integration (SpinalFlow double-buffers); the
        // phase takes the slower of the two.
        let sort_cycles = self.minfind.cycles_for(input_spikes as usize);
        // Encoding: per pass the threshold walks ≤ T steps; each emitted
        // spike costs one serialization cycle.
        let encode_cycles = passes * cfg.window as u64 + output_spikes;
        let cycles = integration_cycles.max(sort_cycles) + encode_cycles;

        // Weight traffic: weights stream from DRAM once per image; the
        // portion resident in the weight buffers is free on later reuse
        // (our model charges each layer its full footprint once).
        let weight_bits = geom.weights as u64 * cfg.weight_bits as u64;
        // Spike I/O: 16-bit (neuron id, timestep) records in and out. The
        // 48 KB input buffer (added over SpinalFlow) holds the sorted input
        // spikes so all four PE clusters reuse one DRAM fetch; without it
        // (or when the spikes overflow it) each cluster streams the input
        // separately.
        let input_spike_bytes = input_spikes * 2;
        let input_fetches = if (cfg.input_buffer_kb as u64) * 1024 >= input_spike_bytes {
            1
        } else {
            cfg.clusters as u64
        };
        let spike_bits = input_spikes * 16 * input_fetches + output_spikes * 16;
        let dram_bits = weight_bits + spike_bits;

        let pe_energy_uj = sops as f64 * self.energy.sop_pj(cfg.pe_kind) as f64 * 1e-6;
        let sram_energy_uj =
            (sops * cfg.weight_bits as u64) as f64 * self.energy.sram_pj_per_bit as f64 * 1e-6;
        let dram_energy_uj = dram_bits as f64 * self.energy.dram_pj_per_bit as f64 * 1e-6;
        let overhead_energy_uj = (self.minfind.comparisons_for(input_spikes as usize) as f64
            * self.energy.sort_pj_per_spike as f64
            + encode_cycles as f64 * self.energy.encoder_pj_per_cycle as f64)
            * 1e-6;

        LayerReport {
            name: geom.name.clone(),
            input_spikes,
            sops,
            cycles,
            pe_energy_uj,
            sram_energy_uj,
            dram_energy_uj,
            overhead_energy_uj,
        }
    }

    /// Runs a full network (one image) and aggregates the report.
    pub fn run_network(
        &self,
        layers: &[LayerGeometry],
        profile: &WorkloadProfile,
    ) -> NetworkReport {
        let mut reports = Vec::with_capacity(layers.len());
        for (i, geom) in layers.iter().enumerate() {
            let density_in = profile.density_into(i);
            let density_out = profile.density_into(i + 1);
            reports.push(self.run_layer(geom, density_in, density_out));
        }
        let cycles: u64 = reports.iter().map(|r| r.cycles).sum();
        let dynamic: f64 = reports.iter().map(|r| r.energy_uj()).sum();
        let static_energy_uj = cycles as f64 * self.energy.idle_pj_per_cycle as f64 * 1e-6;
        let total_sops: u64 = reports.iter().map(|r| r.sops).sum();
        let seconds = cycles as f64 / (self.config.frequency_mhz as f64 * 1e6);
        NetworkReport {
            cycles,
            static_energy_uj,
            energy_per_image_uj: dynamic + static_energy_uj,
            fps: 1.0 / seconds,
            total_sops,
            utilization: total_sops as f64 / (self.config.pe_count as f64 * cycles as f64),
            layers: reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vgg16_geometry;

    fn cifar_report(config: ProcessorConfig) -> NetworkReport {
        Processor::new(config).run_network(
            &vgg16_geometry(32, 32, 10),
            &WorkloadProfile::paper_default(),
        )
    }

    #[test]
    fn cifar10_energy_and_fps_in_paper_range() {
        // Table 4, "This work": 486.7 µJ, 327 fps on CIFAR-10. Our analytic
        // substrate must land in the same regime (factor ~1.5).
        let r = cifar_report(ProcessorConfig::proposed());
        assert!(
            r.energy_per_image_uj > 300.0 && r.energy_per_image_uj < 800.0,
            "energy {} µJ",
            r.energy_per_image_uj
        );
        assert!(r.fps > 180.0 && r.fps < 600.0, "fps {}", r.fps);
    }

    #[test]
    fn tiny_imagenet_costs_more_and_runs_slower() {
        let p = Processor::new(ProcessorConfig::proposed());
        let profile = WorkloadProfile::paper_default();
        let cifar = p.run_network(&vgg16_geometry(32, 32, 10), &profile);
        let tin = p.run_network(&vgg16_geometry(64, 64, 200), &profile);
        assert!(tin.energy_per_image_uj > 2.0 * cifar.energy_per_image_uj);
        assert!(tin.fps < cifar.fps / 2.0);
    }

    #[test]
    fn log_pe_saves_energy_at_same_cycles() {
        let lin = cifar_report(ProcessorConfig::with_cat());
        let log = cifar_report(ProcessorConfig::proposed());
        assert!(log.energy_per_image_uj < lin.energy_per_image_uj);
        // Window differences aside, integration cycles are density-bound:
        assert_eq!(lin.total_sops, log.total_sops);
    }

    #[test]
    fn sparser_workload_is_cheaper() {
        let p = Processor::new(ProcessorConfig::proposed());
        let layers = vgg16_geometry(32, 32, 10);
        let dense = p.run_network(&layers, &WorkloadProfile::uniform(0.9));
        let sparse = p.run_network(&layers, &WorkloadProfile::uniform(0.2));
        assert!(sparse.energy_per_image_uj < dense.energy_per_image_uj);
        assert!(sparse.fps > dense.fps);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let r = cifar_report(ProcessorConfig::proposed());
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
    }

    #[test]
    fn layer_energy_components_sum() {
        let p = Processor::new(ProcessorConfig::proposed());
        let geom = LayerGeometry::conv("c", 3, 64, 3, 32, 32);
        let r = p.run_layer(&geom, 0.9, 0.4);
        let total = r.pe_energy_uj + r.sram_energy_uj + r.dram_energy_uj + r.overhead_energy_uj;
        assert!((r.energy_uj() - total).abs() < 1e-12);
        assert!(r.sops > 0 && r.cycles > 0);
    }
}
