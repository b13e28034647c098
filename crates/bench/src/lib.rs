//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §4 for the index).
//!
//! The paper's experiments train VGG-16 on CIFAR/Tiny-ImageNet for 200 GPU
//! epochs; this harness substitutes scaled CNNs on synthetic datasets (see
//! DESIGN.md §2) whose *relative* behaviour — ablation ordering, conversion
//! loss trends, latency ratios — is what the binaries reproduce. Scale is
//! controlled by the `SNN_BENCH_SCALE` environment variable (`quick`,
//! `default` or `full`).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_data::{DatasetSpec, SyntheticDataset};
use snn_nn::{
    ActivationLayer, BatchNorm2d, Conv2dLayer, DenseLayer, Flatten, Layer, MaxPool2dLayer, Relu,
    Sequential,
};
use snn_tensor::Conv2dSpec;
use ttfs_core::{
    convert, normalize_output_layer, train_with_cat, Base2Kernel, CatComponents, CatSchedule,
    CatTrainLog, ConvertError, PhiTtfs, SnnModel,
};

/// Scale of the experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smallest runnable configuration (CI smoke).
    Quick,
    /// Default: minutes-per-table on one core.
    Default,
    /// Larger runs for tighter statistics.
    Full,
}

impl Scale {
    /// Reads `SNN_BENCH_SCALE` (defaults to `Default`).
    pub fn from_env() -> Self {
        match std::env::var("SNN_BENCH_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("full") => Scale::Full,
            _ => Scale::Default,
        }
    }

    /// Training epochs for CAT runs.
    pub fn epochs(&self) -> usize {
        match self {
            Scale::Quick => 10,
            Scale::Default => 20,
            Scale::Full => 40,
        }
    }

    /// (train, test) samples **per class**.
    pub fn samples_per_class(&self) -> (usize, usize) {
        match self {
            Scale::Quick => (16, 8),
            Scale::Default => (24, 10),
            Scale::Full => (40, 16),
        }
    }

    /// Scaled class count standing in for a paper dataset's class count
    /// (10 → 10, 100 → 20, 200 → 40): keeps the relative difficulty
    /// ordering while leaving per-class sample counts trainable.
    pub fn classes_for(&self, paper_classes: usize) -> usize {
        match paper_classes {
            c if c <= 10 => 10,
            c if c <= 100 => 20,
            _ => 40,
        }
    }

    /// Image side length (square RGB inputs).
    pub fn image_side(&self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::Default => 8,
            Scale::Full => 16,
        }
    }
}

/// Builds the scaled dataset standing in for a paper dataset.
pub fn scaled_dataset(base: &DatasetSpec, scale: Scale, seed: u64) -> SyntheticDataset {
    let classes = scale.classes_for(base.classes);
    let (train_pc, test_pc) = scale.samples_per_class();
    let side = scale.image_side();
    let spec = base
        .clone()
        .with_classes(classes)
        .with_samples(train_pc * classes, test_pc * classes)
        .with_geometry(3, side, side);
    SyntheticDataset::generate(&spec, seed)
}

/// Builds the scaled VGG-style CNN (conv-BN-act ×2 with pooling, then a
/// two-layer classifier) for `side`×`side` RGB inputs.
pub fn scaled_cnn(side: usize, classes: usize, rng: &mut StdRng) -> Sequential {
    let act = || Layer::Activation(ActivationLayer::new(Box::new(Relu)));
    let after_pool = side / 2 / 2;
    let flat = 16 * after_pool * after_pool;
    Sequential::new(vec![
        Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(3, 8, 3, 1, 1), rng)),
        Layer::BatchNorm2d(BatchNorm2d::new(8)),
        act(),
        Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
        Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(8, 16, 3, 1, 1), rng)),
        Layer::BatchNorm2d(BatchNorm2d::new(16)),
        act(),
        Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(flat, 64, rng)),
        act(),
        Layer::Dense(DenseLayer::new(64, classes, rng)),
    ])
}

/// Builds a deeper VGG-style CNN (6 conv + 2 dense) used by the Fig. 3
/// harness: training instability from the discrete φ_TTFS compounds with
/// depth, which is the effect Fig. 3 measures.
pub fn scaled_deep_cnn(side: usize, classes: usize, rng: &mut StdRng) -> Sequential {
    let act = || Layer::Activation(ActivationLayer::new(Box::new(Relu)));
    let conv = |i: usize, o: usize, rng: &mut StdRng| {
        Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(i, o, 3, 1, 1), rng))
    };
    let after_pools = side / 2 / 2;
    let flat = 32 * after_pools * after_pools;
    Sequential::new(vec![
        conv(3, 16, rng),
        Layer::BatchNorm2d(BatchNorm2d::new(16)),
        act(),
        conv(16, 16, rng),
        Layer::BatchNorm2d(BatchNorm2d::new(16)),
        act(),
        Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
        conv(16, 32, rng),
        Layer::BatchNorm2d(BatchNorm2d::new(32)),
        act(),
        conv(32, 32, rng),
        Layer::BatchNorm2d(BatchNorm2d::new(32)),
        act(),
        Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
        conv(32, 32, rng),
        Layer::BatchNorm2d(BatchNorm2d::new(32)),
        act(),
        conv(32, 32, rng),
        Layer::BatchNorm2d(BatchNorm2d::new(32)),
        act(),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(flat, 64, rng)),
        act(),
        Layer::Dense(DenseLayer::new(64, classes, rng)),
    ])
}

/// Result of one end-to-end CAT + conversion experiment.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Training log (Fig. 3 source).
    pub log: CatTrainLog,
    /// ANN test accuracy after training (with the final-phase activations).
    pub ann_accuracy: f32,
    /// SNN test accuracy after conversion (reference/event-equivalent).
    pub snn_accuracy: f32,
    /// Converted model.
    pub model: SnnModel,
}

impl PipelineResult {
    /// The paper's conversion-loss metric `acc_SNN − acc_ANN` (Table 1).
    pub fn conversion_loss(&self) -> f32 {
        self.snn_accuracy - self.ann_accuracy
    }
}

/// Runs the full pipeline: CAT training on the dataset, ANN evaluation,
/// conversion (BN fusion + output normalization) and SNN evaluation.
///
/// # Errors
///
/// Propagates training and conversion errors.
pub fn run_pipeline(
    data: &SyntheticDataset,
    components: CatComponents,
    window: u32,
    tau: f32,
    epochs: usize,
    seed: u64,
) -> Result<PipelineResult, ConvertError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = data.spec();
    let mut net = scaled_cnn(spec.height, spec.classes, &mut rng);
    let phi = PhiTtfs::new(Base2Kernel::new(tau, 1.0), window);
    let schedule = CatSchedule::paper_scaled(epochs, phi, components);
    let log = train_with_cat(
        &mut net,
        &schedule,
        data.train_images(),
        data.train_labels(),
        data.test_images(),
        data.test_labels(),
        32,
        &mut rng,
    )?;
    let ann_accuracy = log.final_test_accuracy();
    let mut model = convert(&net, *phi.kernel(), window)?;
    // Calibrate the output normalization on a training slice.
    let calib_len = 32.min(data.train_images().dims()[0]);
    let sample_len = data.train_images().len() / data.train_images().dims()[0];
    let mut dims = data.train_images().dims().to_vec();
    dims[0] = calib_len;
    let calib = snn_tensor::Tensor::from_vec(
        data.train_images().as_slice()[..calib_len * sample_len].to_vec(),
        &dims,
    )
    .map_err(snn_nn::NnError::from)?;
    normalize_output_layer(&mut model, &calib)?;
    let snn_accuracy = model.accuracy(data.test_images(), data.test_labels())?;
    Ok(PipelineResult {
        log,
        ann_accuracy,
        snn_accuracy,
        model,
    })
}

/// Formats an accuracy/conversion-loss cell like Table 1: `92.45 (+0.04)`.
pub fn table1_cell(snn_acc: f32, loss: f32) -> String {
    format!("{:.2} ({:+.2})", snn_acc * 100.0, loss * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_default() {
        // Not setting the var in tests; default must be Default.
        assert_eq!(Scale::from_env().epochs(), 20);
    }

    #[test]
    fn scaled_cnn_shapes_compose() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = scaled_cnn(8, 10, &mut rng);
        let x = snn_tensor::Tensor::zeros(&[2, 3, 8, 8]);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn pipeline_smoke() {
        let data = scaled_dataset(&DatasetSpec::cifar10_like(), Scale::Quick, 3);
        let r = run_pipeline(&data, CatComponents::full(), 24, 4.0, 4, 7).unwrap();
        assert!(r.ann_accuracy >= 0.0 && r.ann_accuracy <= 1.0);
        assert_eq!(r.model.weighted_layers(), 4);
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(table1_cell(0.9245, 0.0004), "92.45 (+0.04)");
        assert_eq!(table1_cell(0.5248, -0.2023), "52.48 (-20.23)");
    }
}
