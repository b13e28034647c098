//! Bridge from runtime event statistics to the `snn-hw` processor model —
//! the fast path produces the same hardware energy/throughput reports as
//! the reference simulator because both feed the same [`RunStats`]
//! counters in.
//!
//! The quantized serving path rides the same bridge: a
//! [`crate::QuantEngine`] run emits the shared counters (its synaptic-op
//! accounting matches the reference exactly, zero codes included), so
//! [`energy_report`] over the engine's model and input dims prices the
//! measured quantized workload on the processor model — pair it with [`crate::QuantCsrModel::footprint`]'s
//! packed-code bytes and the bench's top-1 agreement for the full
//! accuracy/energy/bytes trade-off.

use snn_hw::{
    LayerGeometry, LayerKind, NetworkReport, Processor, ProcessorConfig, WorkloadProfile,
};
use snn_sim::RunStats;
use ttfs_core::{ConvertError, SnnLayer, SnnModel};

/// Derives the hardware layer geometry (neuron/weight/MAC counts) of every
/// weighted layer of `model` for per-sample input dims.
///
/// # Errors
///
/// Returns [`ConvertError::Structure`] if `input_dims` does not fit the
/// model.
pub fn layer_geometry(
    model: &SnnModel,
    input_dims: &[usize],
) -> Result<Vec<LayerGeometry>, ConvertError> {
    let trace = model.shape_trace(input_dims)?;
    let mut layers = Vec::new();
    let mut conv_idx = 0usize;
    let mut dense_idx = 0usize;
    for (i, layer) in model.layers().iter().enumerate() {
        let in_dims = &trace[i];
        let out_dims = &trace[i + 1];
        let in_neurons: usize = in_dims.iter().product();
        let out_neurons: usize = out_dims.iter().product();
        match layer {
            SnnLayer::Conv { spec, .. } => {
                conv_idx += 1;
                let weights = spec.out_channels * spec.in_channels * spec.kernel * spec.kernel;
                layers.push(LayerGeometry {
                    name: format!("conv{conv_idx}"),
                    kind: LayerKind::Conv,
                    in_neurons,
                    out_neurons,
                    weights,
                    macs: out_neurons * spec.in_channels * spec.kernel * spec.kernel,
                });
            }
            SnnLayer::Dense { weight, .. } => {
                dense_idx += 1;
                let weights = weight.len();
                layers.push(LayerGeometry {
                    name: format!("fc{dense_idx}"),
                    kind: LayerKind::Dense,
                    in_neurons,
                    out_neurons,
                    weights,
                    macs: weights,
                });
            }
            _ => {}
        }
    }
    Ok(layers)
}

/// Converts measured per-layer event statistics into the spike-density
/// profile the processor model charges energy to.
///
/// Densities are per-sample averages: `input_spikes / (batch ×
/// in_neurons)` entering layer 0, then each layer's measured output
/// sparsity.
pub fn measured_profile(stats: &RunStats, input_neurons: usize) -> WorkloadProfile {
    let denom = (stats.batch.max(1) * input_neurons.max(1)) as f32;
    let input_sparsity = stats
        .layers
        .first()
        .map(|l| l.input_spikes as f32 / denom)
        .unwrap_or(0.0);
    let layer_sparsity: Vec<f32> = stats.layers.iter().map(|l| l.output_sparsity()).collect();
    WorkloadProfile::from_measurements(input_sparsity, layer_sparsity)
}

/// Runs the hardware model on the measured workload of one batched run:
/// geometry from the model, spike densities from the runtime's event
/// counters. The resulting per-image energy/fps report is the same artifact
/// `snn-hw` produces for the paper's Table 4 — now driven by the fast path.
///
/// # Errors
///
/// Returns [`ConvertError::Structure`] if `input_dims` does not fit the
/// model.
pub fn energy_report(
    processor: &Processor,
    model: &SnnModel,
    stats: &RunStats,
    input_dims: &[usize],
) -> Result<NetworkReport, ConvertError> {
    let mut span = snn_trace::ctx_span("energy.report");
    let geometry = layer_geometry(model, input_dims)?;
    let input_neurons: usize = input_dims.iter().product();
    let profile = measured_profile(stats, input_neurons);
    let report = processor.run_network(&geometry, &profile);
    if span.is_recording() {
        span.attr("layers", geometry.len());
        span.attr("energy_per_image_uj", report.energy_per_image_uj);
    }
    Ok(report)
}

/// Reusable per-batch energy pricer for the streaming serving path.
///
/// [`energy_report`] re-derives the layer geometry on every call —
/// fine for one post-hoc report, too heavy to sit behind every flushed
/// batch. `EnergyPricer` does the geometry walk once at attach time
/// and then prices each batch's measured [`RunStats`] in O(layers):
/// [`measured_profile`] normalizes the counters per sample, so the
/// returned figure is already **µJ per image** regardless of how many
/// requests rode in the batch.
#[derive(Debug, Clone)]
pub struct EnergyPricer {
    geometry: Vec<LayerGeometry>,
    input_neurons: usize,
    processor: Processor,
}

impl EnergyPricer {
    /// Builds a pricer for `model` at per-sample `input_dims`, on the
    /// paper's proposed (log-PE) processor configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Structure`] if `input_dims` does not fit
    /// the model.
    pub fn new(model: &SnnModel, input_dims: &[usize]) -> Result<Self, ConvertError> {
        Ok(Self {
            geometry: layer_geometry(model, input_dims)?,
            input_neurons: input_dims.iter().product(),
            processor: Processor::new(ProcessorConfig::proposed()),
        })
    }

    /// Prices one executed batch's measured counters: µJ per image.
    pub fn price_per_image_uj(&self, stats: &RunStats) -> f64 {
        let profile = measured_profile(stats, self.input_neurons);
        self.processor
            .run_network(&self.geometry, &profile)
            .energy_per_image_uj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_hw::ProcessorConfig;
    use snn_nn::{
        ActivationLayer, Conv2dLayer, DenseLayer, Flatten, Layer, MaxPool2dLayer, Relu, Sequential,
    };
    use snn_sim::EventSnn;
    use snn_tensor::Conv2dSpec;
    use ttfs_core::{convert, Base2Kernel};

    fn model() -> SnnModel {
        let mut rng = StdRng::seed_from_u64(41);
        let net = Sequential::new(vec![
            Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(1, 4, 3, 1, 1), &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(4 * 4 * 4, 5, &mut rng)),
        ]);
        convert(&net, Base2Kernel::paper_default(), 24).unwrap()
    }

    #[test]
    fn geometry_matches_model_shapes() {
        let m = model();
        let g = layer_geometry(&m, &[1, 8, 8]).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].in_neurons, 64);
        assert_eq!(g[0].out_neurons, 4 * 8 * 8);
        assert_eq!(g[0].weights, 4 * 9);
        assert_eq!(g[0].macs, 4 * 8 * 8 * 9);
        assert_eq!(g[1].in_neurons, 64);
        assert_eq!(g[1].out_neurons, 5);
        assert_eq!(g[1].macs, 64 * 5);
    }

    #[test]
    fn measured_profile_densities_are_fractions() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(42);
        let x = snn_tensor::uniform(&[3, 1, 8, 8], 0.0, 1.0, &mut rng);
        let (_, stats) = EventSnn::new(&m).run(&x).unwrap();
        let p = measured_profile(&stats, 64);
        assert!(p.input_sparsity > 0.0 && p.input_sparsity <= 1.0);
        assert_eq!(p.layer_sparsity.len(), 2);
        for &s in &p.layer_sparsity {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn energy_report_from_fast_path_counts() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(43);
        let x = snn_tensor::uniform(&[2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let csr = crate::CsrEngine::compile(&m, &[1, 8, 8]).unwrap();
        let (_, stats) = crate::InferenceBackend::run_batch(&csr, &x).unwrap();
        let processor = Processor::new(ProcessorConfig::proposed());
        let report = energy_report(&processor, &m, &stats, &[1, 8, 8]).unwrap();
        assert!(report.energy_per_image_uj > 0.0);
        assert!(report.fps > 0.0);
        assert_eq!(report.layers.len(), 2);
    }

    #[test]
    fn quantized_path_prices_like_event_on_quantized_weights() {
        // The quantized engine's measured counters must drive the
        // processor model to the same report as the reference simulator
        // over the quantize_tensor'd model — the stats are bit-identical,
        // so the energy bridge cannot tell the two apart.
        let m = model();
        let config = crate::QuantConfig::default();
        let (qm, _) = crate::quantize_model(&m, config.base, config.bits).unwrap();
        let mut rng = StdRng::seed_from_u64(45);
        let x = snn_tensor::uniform(&[2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let (_, ref_stats) = EventSnn::new(&qm).run(&x).unwrap();
        let engine = crate::QuantEngine::compile(&m, &[1, 8, 8], config).unwrap();
        let (_, q_stats) = crate::InferenceBackend::run_batch(&engine, &x).unwrap();
        let processor = Processor::new(ProcessorConfig::proposed());
        let model = crate::InferenceBackend::model(&engine);
        let a = energy_report(
            &processor,
            model,
            &q_stats,
            crate::InferenceBackend::input_dims(&engine),
        )
        .unwrap();
        let b = energy_report(&processor, &qm, &ref_stats, &[1, 8, 8]).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert!((a.energy_per_image_uj - b.energy_per_image_uj).abs() < 1e-9);
        assert!(a.energy_per_image_uj > 0.0 && a.fps > 0.0);
    }

    #[test]
    fn fast_and_reference_paths_agree_on_energy() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(44);
        let x = snn_tensor::uniform(&[2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let (_, ref_stats) = EventSnn::new(&m).run(&x).unwrap();
        let csr = crate::CsrEngine::compile(&m, &[1, 8, 8]).unwrap();
        let (_, csr_stats) = crate::InferenceBackend::run_batch(&csr, &x).unwrap();
        let processor = Processor::new(ProcessorConfig::proposed());
        let a = energy_report(&processor, &m, &ref_stats, &[1, 8, 8]).unwrap();
        let b = energy_report(&processor, &m, &csr_stats, &[1, 8, 8]).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert!((a.energy_per_image_uj - b.energy_per_image_uj).abs() < 1e-9);
    }
}
