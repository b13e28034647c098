//! The served models and their ground truth.
//!
//! Weights come from fixed seed 7 — the model is part of the workload,
//! like a checkpoint. The reference answers come from `snn_sim::EventSnn`
//! (for a quantised artifact: over `quantize_model`'d weights), computed
//! in set-up and never timed.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_nn::models::vgg16_scaled;
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{quantize_model, BackendHint, ModelArtifact};
use snn_sim::EventSnn;
use snn_tensor::Tensor;
use ttfs_core::{convert, normalize_output_layer, Base2Kernel, SnnModel};

use crate::check::top1;
use crate::inputs::{image_pool, stream, POOL};

/// The seed every model's weights come from.
pub const MODEL_SEED: u64 = 7;
/// Per-sample dims of the VGG workloads.
pub const VGG_DIMS: [usize; 3] = [3, 32, 32];
/// TTFS window of every model here.
pub const WINDOW: u32 = 24;
/// Tiny registry models in `http_small_closed`.
pub const SMALL_MODELS: usize = 8;

/// Worker threads to use: the box's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// The converted VGG-16 geometry at `1/width_div` width, 3×32×32 input,
/// readout normalised into the unit range (argmax-invariant), exactly as
/// the repo's own throughput bench deploys it.
pub fn vgg_model(width_div: usize) -> SnnModel {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let net = vgg16_scaled(VGG_DIMS[1], 10, width_div, &mut rng);
    let mut model = convert(&net, Base2Kernel::paper_default(), WINDOW).expect("vgg conversion");
    let calib = snn_tensor::uniform(&[8, 3, 32, 32], 0.0, 1.0, &mut rng);
    normalize_output_layer(&mut model, &calib).expect("output normalisation");
    model
}

/// Tiny dense model `i` (in→16→4): two input geometries, the first four
/// served on the f32 CSR engine and the last four on 5-bit log codes.
pub fn small_spec(i: usize) -> (Vec<usize>, BackendHint) {
    let dims = if i.is_multiple_of(2) {
        vec![1, 4, 6]
    } else {
        vec![1, 3, 4]
    };
    let hint = if i < SMALL_MODELS / 2 {
        BackendHint::Csr
    } else {
        BackendHint::quant_default()
    };
    (dims, hint)
}

fn small_model(i: usize, dims: &[usize]) -> SnnModel {
    let mut rng = stream(MODEL_SEED, 0x5A00 + i as u64);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(dims.iter().product(), 16, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(16, 4, &mut rng)),
    ]);
    convert(&net, Base2Kernel::paper_default(), WINDOW).expect("small conversion")
}

/// One model as a workload serves it: the artifact, the seeded image pool
/// and, per pool image, the reference logits and the f32 top-1.
pub struct Served {
    pub artifact: ModelArtifact,
    pub pool: Vec<Tensor>,
    /// `EventSnn` logits the served engine must reproduce bit-for-bit.
    pub want: Vec<Vec<f32>>,
    /// Top-1 of the f32 `EventSnn` (equals `top1(want)` unless quantised).
    pub f32_top1: Vec<usize>,
}

impl Served {
    /// Builds the artifact and computes the pool's ground truth.
    pub fn new(
        name: &str,
        model: SnnModel,
        dims: &[usize],
        hint: BackendHint,
        seed: u64,
        tag: u64,
    ) -> Self {
        let pool = image_pool(seed, tag, dims, POOL);
        let artifact = ModelArtifact::build(name, "1", model, dims, hint).expect("artifact");
        let f32_logits = event_logits(&artifact.model, &pool);
        let f32_top1 = f32_logits.iter().map(|l| top1(l)).collect();
        let want = match artifact.info.backend.quant_config() {
            None => f32_logits,
            Some(q) => {
                let (quantised, _) =
                    quantize_model(&artifact.model, q.base, q.bits).expect("quantise");
                event_logits(&quantised, &pool)
            }
        };
        Self {
            artifact,
            pool,
            want,
            f32_top1,
        }
    }

    /// The VGG model of `engine_f32_closed` and `http_vgg_paced`.
    pub fn vgg_f32(seed: u64) -> Self {
        Self::new(
            "vgg16w16",
            vgg_model(16),
            &VGG_DIMS,
            BackendHint::Csr,
            seed,
            0x16,
        )
    }

    /// The VGG model of `engine_quant_closed`: the paper's configuration.
    pub fn vgg_quant(seed: u64) -> Self {
        Self::new(
            "vgg16w8q",
            vgg_model(8),
            &VGG_DIMS,
            BackendHint::quant_default(),
            seed,
            0x08,
        )
    }

    /// Tiny model `i` of `http_small_closed`.
    pub fn small(i: usize, seed: u64) -> Self {
        let (dims, hint) = small_spec(i);
        Self::new(
            &format!("s{i}"),
            small_model(i, &dims),
            &dims,
            hint,
            seed,
            0x5000 + i as u64,
        )
    }

    /// Per-sample input dims.
    pub fn dims(&self) -> &[usize] {
        &self.artifact.info.input_dims
    }

    /// Saves the artifact under `dir`, returning its path.
    pub fn save(&self, dir: &Path) -> PathBuf {
        let path = dir.join(self.artifact.info.file_name());
        self.artifact.save(&path).expect("save artifact");
        path
    }
}

/// Stacks per-sample images into one `[N, C, H, W]` batch.
pub fn stack(images: &[Tensor]) -> Tensor {
    let mut dims = vec![images.len()];
    dims.extend_from_slice(images[0].dims());
    let data: Vec<f32> = images
        .iter()
        .flat_map(|t| t.as_slice().iter().copied())
        .collect();
    Tensor::from_vec(data, &dims).expect("stacked batch")
}

/// Reference logits, one row per image, computed over every core.
pub fn event_logits(model: &SnnModel, pool: &[Tensor]) -> Vec<Vec<f32>> {
    let chunk = pool.len().div_ceil(nproc());
    std::thread::scope(|scope| {
        let workers: Vec<_> = pool
            .chunks(chunk)
            .map(|images| {
                scope.spawn(move || {
                    let (logits, _) = EventSnn::new(model)
                        .run(&stack(images))
                        .expect("reference run");
                    let classes = logits.len() / images.len();
                    logits
                        .as_slice()
                        .chunks(classes)
                        .map(<[f32]>::to_vec)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference thread"))
            .collect()
    })
}

/// Where the benchmark may write: `<benchmark dir>/out`.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from);
    base.join("out")
}

/// A scratch directory of this process, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(label: &str) -> Self {
        let dir = out_dir().join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir under benchmark/out");
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
