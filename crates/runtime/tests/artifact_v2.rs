//! Properties of the v2 artifact payload over random models and both
//! backends: re-serializing a loaded artifact reproduces its bytes
//! exactly; a loaded quantized artifact's weights are the reference
//! quantization of the original, bit for bit; and the built and the
//! loaded artifact compile to the same packed codes — the codes the
//! fit-and-encode path of `QuantCsrModel::compile` produces — and the
//! same logits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_nn::{
    ActivationLayer, AvgPool2dLayer, Conv2dLayer, DenseLayer, Flatten, Layer, MaxPool2dLayer, Relu,
    Sequential,
};
use snn_runtime::{
    quantize_model, BackendHint, CsrStage, ModelArtifact, QuantConfig, QuantCsrModel,
};
use snn_tensor::{uniform, Conv2dSpec, Tensor};
use ttfs_core::{convert, Base2Kernel, SnnModel};

/// A random small model — a conv stage with max or average pooling, or
/// a dense stack — and its per-sample input dims.
fn random_model(rng: &mut StdRng) -> (SnnModel, Vec<usize>) {
    let classes = rng.gen_range(2..=5);
    let (layers, dims) = if rng.gen_bool(0.5) {
        let side = if rng.gen_bool(0.5) { 6 } else { 8 };
        let (in_c, out_c) = (rng.gen_range(1..=2), rng.gen_range(2..=4));
        let pool = if rng.gen_bool(0.5) {
            Layer::MaxPool2d(MaxPool2dLayer::new(2, 2))
        } else {
            Layer::AvgPool2d(AvgPool2dLayer::new(2, 2))
        };
        (
            vec![
                Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(in_c, out_c, 3, 1, 1), rng)),
                Layer::Activation(ActivationLayer::new(Box::new(Relu))),
                pool,
                Layer::Flatten(Flatten::new()),
                Layer::Dense(DenseLayer::new(
                    out_c * (side / 2) * (side / 2),
                    classes,
                    rng,
                )),
            ],
            vec![in_c, side, side],
        )
    } else {
        let (h, w, hidden) = (
            rng.gen_range(2..=5),
            rng.gen_range(2..=5),
            rng.gen_range(4..=12),
        );
        (
            vec![
                Layer::Flatten(Flatten::new()),
                Layer::Dense(DenseLayer::new(h * w, hidden, rng)),
                Layer::Activation(ActivationLayer::new(Box::new(Relu))),
                Layer::Dense(DenseLayer::new(hidden, classes, rng)),
            ],
            vec![1, h, w],
        )
    };
    let model = convert(&Sequential::new(layers), Base2Kernel::paper_default(), 24).unwrap();
    (model, dims)
}

fn quant_hint(rng: &mut StdRng) -> BackendHint {
    BackendHint::Quant {
        base: QuantConfig::default().base,
        bits: rng.gen_range(3..=7u8),
        shift_add: false,
    }
}

fn weight_bits(t: Option<&Tensor>) -> Vec<u32> {
    t.map_or_else(Vec::new, |t| {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    })
}

/// Every weighted stage's rows as `(target, code)` edge lists.
fn stage_codes(compiled: &QuantCsrModel) -> Vec<Vec<Vec<(u32, u8)>>> {
    compiled
        .stages()
        .iter()
        .filter_map(|stage| match stage {
            CsrStage::Weighted { syn, .. } => Some(
                (0..syn.in_neurons() as u32)
                    .map(|j| syn.edges_of(j).collect())
                    .collect(),
            ),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn reserializing_a_loaded_artifact_reproduces_its_bytes(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (model, dims) = random_model(&mut rng);
        for hint in [BackendHint::Csr, quant_hint(&mut rng)] {
            let bytes = ModelArtifact::build("prop", "1", model.clone(), &dims, hint)
                .unwrap()
                .to_bytes()
                .unwrap();
            let again = ModelArtifact::from_bytes(&bytes).unwrap().to_bytes().unwrap();
            prop_assert_eq!(again, bytes);
        }
    }

    #[test]
    fn loaded_quant_weights_are_the_reference_quantization(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (model, dims) = random_model(&mut rng);
        let hint = quant_hint(&mut rng);
        let q = hint.quant_config().unwrap();
        let built = ModelArtifact::build("prop", "1", model.clone(), &dims, hint).unwrap();
        let loaded = ModelArtifact::from_bytes(&built.to_bytes().unwrap()).unwrap();
        let (reference, quantizers) = quantize_model(&model, q.base, q.bits).unwrap();
        prop_assert_eq!(&loaded.quantizers, &quantizers);
        for (a, b) in reference.layers().iter().zip(loaded.model.layers()) {
            prop_assert_eq!(weight_bits(a.weight()), weight_bits(b.weight()));
            prop_assert_eq!(weight_bits(a.bias()), weight_bits(b.bias()));
        }
    }

    #[test]
    fn built_and_loaded_compile_to_the_same_codes_and_logits(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (model, dims) = random_model(&mut rng);
        let hint = quant_hint(&mut rng);
        let q = hint.quant_config().unwrap();
        let built = ModelArtifact::build("prop", "1", model.clone(), &dims, hint).unwrap();
        let loaded = ModelArtifact::from_bytes(&built.to_bytes().unwrap()).unwrap();
        let tables = |a: &ModelArtifact| {
            QuantCsrModel::from_codes(&a.model, &dims, q, a.quantizers.clone(), &a.codes).unwrap()
        };
        let fit_and_encode = QuantCsrModel::compile(&model, &dims, q).unwrap();
        let codes = stage_codes(&tables(&built));
        prop_assert_eq!(&codes, &stage_codes(&tables(&loaded)));
        prop_assert_eq!(&codes, &stage_codes(&fit_and_encode));

        let mut batch_dims = vec![4usize];
        batch_dims.extend_from_slice(&dims);
        let x = uniform(&batch_dims, 0.0, 1.0, &mut rng);
        let (a, _) = built.compile().unwrap().0.run_batch(&x).unwrap();
        let (b, _) = loaded.compile().unwrap().0.run_batch(&x).unwrap();
        prop_assert_eq!(weight_bits(Some(&a)), weight_bits(Some(&b)));
    }
}
