//! Unit tests for the v2 artifact format: round trips, framing
//! corruption, and hostile payloads whose checksum is recomputed so that
//! the payload check under test is the one that fires.

use super::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use ttfs_core::convert;

fn model() -> SnnModel {
    let mut rng = StdRng::seed_from_u64(11);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(12, 8, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(8, 3, &mut rng)),
    ]);
    convert(&net, Base2Kernel::paper_default(), 24).unwrap()
}

#[test]
fn roundtrip_preserves_weights_bit_exactly() {
    let m = model();
    let artifact =
        ModelArtifact::build("demo", "v1", m.clone(), &[1, 3, 4], BackendHint::Csr).unwrap();
    let bytes = artifact.to_bytes().unwrap();
    let back = ModelArtifact::from_bytes(&bytes).unwrap();
    assert_eq!(back.info, artifact.info);
    for (a, b) in m.layers().iter().zip(back.model.layers()) {
        if let (Some(wa), Some(wb)) = (a.weight(), b.weight()) {
            let bits_a: Vec<u32> = wa.as_slice().iter().map(|f| f.to_bits()).collect();
            let bits_b: Vec<u32> = wb.as_slice().iter().map(|f| f.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "weights must round-trip bit-exactly");
        }
    }
}

#[test]
fn quant_artifact_ships_matching_calibration() {
    let artifact = ModelArtifact::build(
        "demo",
        "v1",
        model(),
        &[1, 3, 4],
        BackendHint::quant_default(),
    )
    .unwrap();
    assert_eq!(artifact.quantizers.len(), 2);
    let back = ModelArtifact::from_bytes(&artifact.to_bytes().unwrap()).unwrap();
    assert_eq!(back.quantizers.len(), 2);
    for (a, b) in artifact.quantizers.iter().zip(&back.quantizers) {
        assert_eq!(a.fsr_log2().to_bits(), b.fsr_log2().to_bits());
    }
}

#[test]
fn every_corruption_is_a_typed_error() {
    let artifact =
        ModelArtifact::build("demo", "v1", model(), &[1, 3, 4], BackendHint::Csr).unwrap();
    let good = artifact.to_bytes().unwrap();

    // Wrong magic.
    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(matches!(
        ModelArtifact::from_bytes(&bad),
        Err(ArtifactError::BadMagic { .. })
    ));

    // Any version but the one this build reads.
    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        ModelArtifact::from_bytes(&bad),
        Err(ArtifactError::UnsupportedVersion { found: 99, .. })
    ));

    // Truncation (any prefix must fail cleanly).
    for cut in [0, 7, 12, 20, good.len() / 2, good.len() - 1] {
        let err = ModelArtifact::from_bytes(&good[..cut]).unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::Truncated { .. } | ArtifactError::ChecksumMismatch { .. }
            ),
            "cut at {cut}: {err}"
        );
    }

    // Single bit flip in the payload.
    let mut bad = good.clone();
    let mid = good.len() / 2;
    bad[mid] ^= 0x01;
    assert!(matches!(
        ModelArtifact::from_bytes(&bad),
        Err(ArtifactError::ChecksumMismatch { .. })
    ));

    // Oversized declared header length.
    let mut bad = good.clone();
    bad[12..16].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        ModelArtifact::from_bytes(&bad),
        Err(ArtifactError::OversizedLength {
            field: "header",
            ..
        })
    ));

    // Trailing garbage.
    let mut bad = good.clone();
    bad.extend_from_slice(b"junk");
    assert!(matches!(
        ModelArtifact::from_bytes(&bad),
        Err(ArtifactError::Malformed(_))
    ));

    // The original still loads (corruption tests must not mutate it).
    assert!(ModelArtifact::from_bytes(&good).is_ok());
}

#[test]
fn hostile_labels_rejected() {
    for bad in ["", "a@b", "a/b", "a b"] {
        assert!(
            ModelArtifact::build(bad, "v1", model(), &[1, 3, 4], BackendHint::Csr).is_err(),
            "name {bad:?} must be rejected"
        );
    }
}

/// A conv + pool + dense model on `[1, 6, 6]` inputs: every layer kind
/// the layout describes except average pooling.
fn conv_model() -> SnnModel {
    use snn_nn::{Conv2dLayer, MaxPool2dLayer};
    let mut rng = StdRng::seed_from_u64(12);
    let net = Sequential::new(vec![
        Layer::Conv2d(Conv2dLayer::new(
            snn_tensor::Conv2dSpec::new(1, 3, 3, 1, 1),
            &mut rng,
        )),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(3 * 3 * 3, 4, &mut rng)),
    ]);
    convert(&net, Base2Kernel::paper_default(), 24).unwrap()
}

fn csr_bytes() -> Vec<u8> {
    ModelArtifact::build("demo", "1", conv_model(), &[1, 6, 6], BackendHint::Csr)
        .unwrap()
        .to_bytes()
        .unwrap()
}

fn quant_bytes() -> Vec<u8> {
    ModelArtifact::build(
        "demo",
        "1",
        conv_model(),
        &[1, 6, 6],
        BackendHint::quant_default(),
    )
    .unwrap()
    .to_bytes()
    .unwrap()
}

/// An artifact file taken apart: header JSON, payload layout, raw
/// sections.
struct Parts {
    header: String,
    layout: PayloadLayout,
    raw: Vec<u8>,
}

impl Parts {
    fn of(bytes: &[u8]) -> Self {
        let (info, payload, _) = decode_framing(bytes).unwrap();
        let len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
        Self {
            header: serde_json::to_string(&info).unwrap(),
            layout: serde_json::from_str(std::str::from_utf8(&payload[4..4 + len]).unwrap())
                .unwrap(),
            raw: payload[4 + len..].to_vec(),
        }
    }

    /// Frames the parts again, with a correct checksum.
    fn assemble(&self) -> Vec<u8> {
        let layout = serde_json::to_string(&self.layout).unwrap();
        let mut payload = (layout.len() as u32).to_le_bytes().to_vec();
        payload.extend_from_slice(layout.as_bytes());
        payload.extend_from_slice(&self.raw);
        frame(&self.header, &payload)
    }
}

/// Magic, version, header and payload with a recomputed checksum.
fn frame(header: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = ARTIFACT_MAGIC.to_vec();
    out.extend_from_slice(&ARTIFACT_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(header.len() as u32).to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = fnv1a64(&out[ARTIFACT_MAGIC.len()..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Tampers with `bytes`' parts, re-frames them with a valid checksum and
/// returns the loader's `Malformed` message (panicking on anything else).
fn malformed(bytes: &[u8], tamper: impl FnOnce(&mut Parts)) -> String {
    let mut parts = Parts::of(bytes);
    tamper(&mut parts);
    match ModelArtifact::from_bytes(&parts.assemble()) {
        Err(ArtifactError::Malformed(msg)) => msg,
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn taking_apart_and_reassembling_is_the_identity() {
    for bytes in [csr_bytes(), quant_bytes()] {
        assert_eq!(Parts::of(&bytes).assemble(), bytes);
    }
}

#[test]
fn the_payload_holds_no_decimal_floats_and_quant_ships_only_codes() {
    let model = conv_model();
    let weights: usize = model
        .layers()
        .iter()
        .filter_map(SnnLayer::weight)
        .map(Tensor::len)
        .sum();
    let biases: usize = model
        .layers()
        .iter()
        .filter_map(SnnLayer::bias)
        .map(Tensor::len)
        .sum();
    for (bytes, weight_width) in [(csr_bytes(), 4), (quant_bytes(), 1)] {
        let parts = Parts::of(&bytes);
        let layout = serde_json::to_string(&parts.layout).unwrap();
        assert!(!layout.contains('.'), "decimal text in {layout}");
        assert_eq!(parts.raw.len(), weights * weight_width + 4 * biases);
    }
}

#[test]
fn loaded_quant_weights_are_the_decoded_codes() {
    let model = conv_model();
    let artifact = ModelArtifact::build(
        "demo",
        "1",
        model.clone(),
        &[1, 6, 6],
        BackendHint::quant_default(),
    )
    .unwrap();
    let back = ModelArtifact::from_bytes(&artifact.to_bytes().unwrap()).unwrap();
    assert_eq!(back.codes, artifact.codes);
    let q = QuantConfig::default();
    let (reference, _) = crate::quantize_model(&model, q.base, q.bits).unwrap();
    for (a, b) in reference.layers().iter().zip(back.model.layers()) {
        let bits = |t: Option<&Tensor>| -> Vec<u32> {
            t.map_or_else(Vec::new, |t| {
                t.as_slice().iter().map(|v| v.to_bits()).collect()
            })
        };
        assert_eq!(bits(a.weight()), bits(b.weight()));
        assert_eq!(bits(a.bias()), bits(b.bias()));
    }
}

#[test]
fn version_one_is_refused_before_the_checksum() {
    let mut bytes = csr_bytes();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let err = ModelArtifact::from_bytes(&bytes).unwrap_err();
    assert_eq!(
        err,
        ArtifactError::UnsupportedVersion {
            found: 1,
            supported: 2
        }
    );
    assert_eq!(
        err.to_string(),
        "artifact format version 1 is not readable by this build (it reads 2)"
    );
}

#[test]
fn non_finite_weights_and_biases_are_malformed() {
    let bytes = csr_bytes();
    let bias_at = |parts: &Parts| parts.layout.sections[0] as usize;
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let msg = malformed(&bytes, |p| p.raw[..4].copy_from_slice(&bad.to_le_bytes()));
        assert!(msg.contains("weight value 0"), "{msg}");
        let msg = malformed(&bytes, |p| {
            let at = bias_at(p) + 4;
            p.raw[at..at + 4].copy_from_slice(&bad.to_le_bytes());
        });
        assert!(msg.contains("bias value 1"), "{msg}");
    }
    // Quant biases are raw f32 too.
    let bytes = quant_bytes();
    let msg = malformed(&bytes, |p| {
        let at = bias_at(p);
        p.raw[at..at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    });
    assert!(msg.contains("bias value 0"), "{msg}");
}

#[test]
fn codes_outside_the_packed_range_are_malformed() {
    let bytes = quant_bytes();
    // 5 bits: 15 levels, so packed codes 0..32.
    for code in [32u8, 200, 255] {
        let msg = malformed(&bytes, |p| p.raw[3] = code);
        assert!(msg.contains(&format!("code {code} at 3")), "{msg}");
        assert!(msg.contains("5-bit packed range 0..32"), "{msg}");
    }
    // The top of the range is a real code.
    let mut parts = Parts::of(&bytes);
    parts.raw[3] = 31;
    assert!(ModelArtifact::from_bytes(&parts.assemble()).is_ok());
}

#[test]
fn section_lengths_that_disagree_with_the_shapes_are_malformed() {
    for bytes in [csr_bytes(), quant_bytes()] {
        // Same total, wrong split between weights and bias.
        let msg = malformed(&bytes, |p| {
            p.layout.sections[0] -= 4;
            p.layout.sections[1] += 4;
        });
        assert!(msg.contains("weight section declares"), "{msg}");
        // A total that disagrees with the bytes present.
        let msg = malformed(&bytes, |p| p.layout.sections[3] += 1);
        assert!(msg.contains("sections declare"), "{msg}");
        let msg = malformed(&bytes, |p| {
            p.raw.pop();
        });
        assert!(msg.contains("sections declare"), "{msg}");
        // A shape that disagrees with unchanged sections.
        let msg = malformed(&bytes, |p| {
            let LayerShape::Dense { outputs, .. } = &mut p.layout.layers[3] else {
                panic!("layer 3 is dense");
            };
            *outputs += 1;
        });
        assert!(msg.contains("section declares"), "{msg}");
        // A section missing altogether.
        let msg = malformed(&bytes, |p| {
            p.layout.sections.pop();
        });
        assert!(msg.contains("3 sections for 2 weighted layers"), "{msg}");
    }
}

#[test]
fn quantizer_counts_must_match_the_weighted_layers() {
    let msg = malformed(&quant_bytes(), |p| {
        p.layout.quantizers.pop();
    });
    assert!(msg.contains("1 quantizers for 2 weighted layers"), "{msg}");
    let quantizers = Parts::of(&quant_bytes()).layout.quantizers;
    let msg = malformed(&csr_bytes(), |p| p.layout.quantizers = quantizers);
    assert!(msg.contains("f32 artifact carries quantizer"), "{msg}");
}

#[test]
fn quantizers_must_agree_with_the_backend_hint() {
    let bytes = quant_bytes();
    let msg = malformed(&bytes, |p| p.layout.quantizers[1].bits = 4);
    assert!(msg.contains("disagrees with the header's 5-bit"), "{msg}");
    let msg = malformed(&bytes, |p| p.layout.quantizers[0].base = LogBase::pow2());
    assert!(msg.contains("disagrees with the header's"), "{msg}");
    // The header and the layout may agree and still be unusable.
    for fsr in [f32::NAN, f32::INFINITY, 500.0] {
        let msg = malformed(&bytes, |p| {
            p.layout.quantizers[0].fsr_log2_bits = fsr.to_bits()
        });
        assert!(msg.contains("finite weights"), "{msg}");
    }
    let hint = |bits: u8| BackendHint::Quant {
        base: LogBase::inv_sqrt2(),
        bits,
        shift_add: false,
    };
    for bits in [1u8, 9, 200] {
        let msg = malformed(&bytes, |p| {
            let mut info: ArtifactInfo = serde_json::from_str(&p.header).unwrap();
            info.backend = hint(bits);
            p.header = serde_json::to_string(&info).unwrap();
            for q in &mut p.layout.quantizers {
                q.bits = bits;
            }
        });
        assert!(msg.contains("finite weights"), "bits {bits}: {msg}");
    }
}

#[test]
fn hostile_geometry_and_kernels_are_malformed_not_panics() {
    let bytes = csr_bytes();
    let msg = malformed(&bytes, |p| {
        p.layout.tau_bits = f32::NAN.to_bits();
    });
    assert!(msg.contains("kernel tau"), "{msg}");
    let msg = malformed(&bytes, |p| {
        p.layout.theta0_bits = (-1.0f32).to_bits();
    });
    assert!(msg.contains("kernel tau"), "{msg}");
    fn conv(p: &mut Parts) -> &mut Conv2dSpec {
        let LayerShape::Conv(spec) = &mut p.layout.layers[0] else {
            panic!("layer 0 is conv");
        };
        spec
    }
    let msg = malformed(&bytes, |p| conv(p).stride = 0);
    assert!(msg.contains("out of range"), "{msg}");
    let msg = malformed(&bytes, |p| conv(p).padding = usize::MAX / 2);
    assert!(msg.contains("out of range"), "{msg}");
    // In range, but the grid it implies outgrows u32 indexing.
    let msg = malformed(&bytes, |p| conv(p).padding = u32::MAX as usize);
    assert!(msg.contains("exceeds u32"), "{msg}");
    let msg = malformed(&bytes, |p| {
        p.layout.layers[1] = LayerShape::MaxPool(Pool2dSpec::new(2, 0));
    });
    assert!(msg.contains("out of range"), "{msg}");
    let msg = malformed(&bytes, |p| {
        let mut info: ArtifactInfo = serde_json::from_str(&p.header).unwrap();
        info.input_dims = vec![1, usize::MAX, 6];
        p.header = serde_json::to_string(&info).unwrap();
    });
    assert!(msg.contains("exceeds u32"), "{msg}");
    let msg = malformed(&bytes, |p| {
        let mut info: ArtifactInfo = serde_json::from_str(&p.header).unwrap();
        info.input_dims = vec![1, 5, 6];
        p.header = serde_json::to_string(&info).unwrap();
    });
    assert!(msg.contains("input dims"), "{msg}");
}

#[test]
fn broken_layouts_are_malformed() {
    let bytes = csr_bytes();
    let header = Parts::of(&bytes).header;
    for payload in [
        Vec::new(),
        vec![1, 0],
        u32::MAX.to_le_bytes().to_vec(),
        [&4u32.to_le_bytes()[..], b"{no}"].concat(),
        [&2u32.to_le_bytes()[..], &[0xff, 0xfe]].concat(),
    ] {
        match ModelArtifact::from_bytes(&frame(&header, &payload)) {
            Err(ArtifactError::Malformed(_)) => {}
            other => panic!("payload {payload:?}: expected Malformed, got {other:?}"),
        }
    }
}
