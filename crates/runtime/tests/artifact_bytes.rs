//! Pins the `.snna` bytes. The other artifact tests check round-trips,
//! which a format change that both sides agree on passes; this one checks
//! the exact bytes `to_bytes` writes for one seeded f32 artifact and one
//! 5-bit quantized artifact (every layer kind between them), and the
//! header `peek` reads back from disk. A change here is a file-format
//! change: bump the format version, not the constants.

use std::fs;

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_nn::{
    ActivationLayer, AvgPool2dLayer, Conv2dLayer, DenseLayer, Flatten, Layer, MaxPool2dLayer, Relu,
    Sequential,
};
use snn_runtime::{fnv1a64, BackendHint, ModelArtifact};
use snn_tensor::Conv2dSpec;
use ttfs_core::{convert, Base2Kernel, SnnModel};

const DIMS: [usize; 3] = [2, 8, 8];

/// Conv, max pool, conv, average pool, flatten, dense — every
/// `LayerShape` the layout names — from a fixed seed.
fn seeded_model() -> SnnModel {
    let mut rng = StdRng::seed_from_u64(49);
    let net = Sequential::new(vec![
        Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(2, 3, 3, 1, 1), &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
        Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(3, 4, 3, 1, 1), &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::AvgPool2d(AvgPool2dLayer::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(16, 5, &mut rng)),
    ]);
    convert(&net, Base2Kernel::paper_default(), 24).unwrap()
}

/// Builds, serializes and peeks one artifact; asserts its size, byte
/// hash and header text, and that `peek` reads the header and size back.
fn assert_pinned(version: &str, hint: BackendHint, len: usize, hash: u64, header: &str) {
    let artifact = ModelArtifact::build("pinned", version, seeded_model(), &DIMS, hint).unwrap();
    let bytes = artifact.to_bytes().unwrap();
    assert_eq!(bytes.len(), len, "{version}: artifact length");
    assert_eq!(fnv1a64(&bytes), hash, "{version}: artifact bytes");
    let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    assert_eq!(
        std::str::from_utf8(&bytes[16..16 + header_len]).unwrap(),
        header,
        "{version}: header JSON"
    );

    let path = std::env::temp_dir().join(format!(
        "snn_artifact_bytes_{version}_{}.snna",
        std::process::id()
    ));
    fs::write(&path, &bytes).unwrap();
    let peeked = ModelArtifact::peek(&path);
    let _ = fs::remove_file(&path);
    let (info, size) = peeked.unwrap();
    assert_eq!(size, len as u64);
    assert_eq!(info, artifact.info);
    assert_eq!(info.key(), format!("pinned@{version}"));
    assert_eq!(info.input_dims, DIMS);
}

#[test]
fn f32_artifact_bytes_are_pinned() {
    assert_pinned(
        "f32",
        BackendHint::Csr,
        1517,
        0x061a_08ea_788e_71a8,
        r#"{"name":"pinned","version":"f32","input_dims":[2,8,8],"backend":"Csr"}"#,
    );
}

#[test]
fn quantized_artifact_bytes_are_pinned() {
    let hint = BackendHint::quant_default();
    assert!(matches!(hint, BackendHint::Quant { bits: 5, .. }));
    assert_pinned(
        "q5",
        hint,
        994,
        0x1cc6_e17f_fc62_bd49,
        r#"{"name":"pinned","version":"q5","input_dims":[2,8,8],"backend":{"Quant":{"base":{"z":1},"bits":5,"shift_add":false}}}"#,
    );
}
