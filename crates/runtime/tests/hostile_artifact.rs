//! Hostile-artifact coverage for the model registry: truncated files,
//! corrupted checksums, wrong magic, future format versions, oversized
//! declared section lengths, and plain binary garbage. The invariant under
//! test everywhere: **a typed [`ArtifactError`], never a panic** — and
//! after every attack the registry still loads and serves a good model.

use std::fs;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{
    ArtifactError, BackendHint, ModelArtifact, ModelRegistry, RegistryConfig, RegistryError,
};
use snn_tensor::Tensor;
use ttfs_core::{convert, Base2Kernel};

const DIMS: [usize; 3] = [1, 3, 4];

/// Scratch artifact directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("snn_hostile_artifact_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn dense_artifact(name: &str, version: &str, seed: u64) -> ModelArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(12, 8, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(8, 3, &mut rng)),
    ]);
    let model = convert(&net, Base2Kernel::paper_default(), 24).unwrap();
    ModelArtifact::build(name, version, model, &DIMS, BackendHint::Csr).unwrap()
}

/// A registry dir seeded with one known-good artifact plus one attack
/// file, and the valid bytes the attack mutates.
fn hostile_registry(tag: &str, attack: impl FnOnce(&mut Vec<u8>)) -> (TempDir, ModelRegistry) {
    let dir = TempDir::new(tag);
    dense_artifact("good", "1", 7)
        .save(dir.path().join("good@1.snna"))
        .unwrap();
    let mut bytes = dense_artifact("bad", "1", 8).to_bytes().unwrap();
    attack(&mut bytes);
    fs::write(dir.path().join("bad@1.snna"), &bytes).unwrap();
    let registry = ModelRegistry::open(dir.path(), RegistryConfig::default()).unwrap();
    (dir, registry)
}

/// The liveness probe: the good model still loads, compiles, and answers
/// an inference end to end.
fn assert_serviceable(registry: &ModelRegistry) {
    let handle = registry
        .get_or_load("good")
        .expect("registry must stay serviceable after an attack");
    let response = handle
        .server()
        .submit(&Tensor::full(&DIMS, 0.5))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(response.logits.dims(), &[3]);
}

/// The typed artifact error a poisoned catalog entry replays to callers.
fn artifact_error(registry: &ModelRegistry, spec: &str) -> ArtifactError {
    match registry.get_or_load(spec) {
        Err(RegistryError::Artifact(e)) => e,
        other => panic!("expected a typed artifact error for {spec}, got {other:?}"),
    }
}

#[test]
fn truncated_artifacts_are_rejected_with_typed_errors() {
    let full_len = dense_artifact("bad", "1", 8).to_bytes().unwrap().len();
    // Cut mid-payload, mid-header, mid-magic, and down to nothing.
    for keep in [full_len / 2, 20, 5, 0] {
        let (_dir, registry) =
            hostile_registry(&format!("trunc{keep}"), |bytes| bytes.truncate(keep));
        match artifact_error(&registry, "bad@1") {
            ArtifactError::Truncated { needed, available } => {
                assert!(
                    needed > available,
                    "needed {needed} vs available {available}"
                );
            }
            other => panic!("expected Truncated for keep={keep}, got {other:?}"),
        }
        assert_serviceable(&registry);
        registry.shutdown();
    }
}

#[test]
fn corrupted_payload_fails_the_checksum() {
    let (_dir, registry) = hostile_registry("bitflip", |bytes| {
        // Flip one bit deep in the weight payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
    });
    match artifact_error(&registry, "bad@1") {
        ArtifactError::ChecksumMismatch { stored, computed } => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    assert_serviceable(&registry);
    registry.shutdown();
}

#[test]
fn wrong_magic_is_rejected_before_anything_else() {
    let (_dir, registry) = hostile_registry("magic", |bytes| {
        bytes[..8].copy_from_slice(b"GGUFGGUF");
    });
    match artifact_error(&registry, "bad@1") {
        ArtifactError::BadMagic { found } => assert_eq!(found, b"GGUFGGUF".to_vec()),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    assert_serviceable(&registry);
    registry.shutdown();
}

#[test]
fn future_format_version_is_rejected_without_a_checksum_pass() {
    let (_dir, registry) = hostile_registry("futurever", |bytes| {
        // Version field sits right after the 8-byte magic. The stale
        // checksum must NOT mask the version error: version is checked
        // first so old readers give new formats a clear refusal.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    });
    match artifact_error(&registry, "bad@1") {
        ArtifactError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, 99);
            assert_eq!(supported, snn_runtime::ARTIFACT_FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    assert_serviceable(&registry);
    registry.shutdown();
}

#[test]
fn oversized_declared_header_length_is_rejected() {
    let (_dir, registry) = hostile_registry("bigheader", |bytes| {
        // header_len u32 follows magic + version. Declare ~4 GiB.
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    match artifact_error(&registry, "bad@1") {
        ArtifactError::OversizedLength { field, declared } => {
            assert_eq!(field, "header");
            assert_eq!(declared, u64::from(u32::MAX));
        }
        other => panic!("expected OversizedLength, got {other:?}"),
    }
    assert_serviceable(&registry);
    registry.shutdown();
}

#[test]
fn oversized_declared_payload_length_is_rejected() {
    let (_dir, registry) = hostile_registry("bigpayload", |bytes| {
        // payload_len u64 follows the header JSON.
        let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let at = 16 + header_len;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    });
    match artifact_error(&registry, "bad@1") {
        ArtifactError::OversizedLength { field, declared } => {
            assert_eq!(field, "payload");
            assert_eq!(declared, u64::MAX);
        }
        other => panic!("expected OversizedLength, got {other:?}"),
    }
    assert_serviceable(&registry);
    registry.shutdown();
}

#[test]
fn binary_garbage_with_the_right_extension_never_panics() {
    let (_dir, registry) = hostile_registry("garbage", |bytes| {
        let len = bytes.len();
        bytes.clear();
        // Deterministic pseudo-noise: no valid magic, no valid framing.
        bytes.extend((0..len).map(|i| (i as u8).wrapping_mul(37).wrapping_add(101)));
    });
    // Any typed error is acceptable; reaching here at all proves no panic.
    let err = artifact_error(&registry, "bad@1");
    assert!(matches!(err, ArtifactError::BadMagic { .. }));
    assert_serviceable(&registry);
    registry.shutdown();
}

#[test]
fn poisoned_entries_are_cataloged_as_unreadable_not_hidden() {
    let (_dir, registry) = hostile_registry("listing", |bytes| bytes.truncate(10));
    let rows = registry.list();
    let bad = rows
        .iter()
        .find(|r| r.name == "bad" || r.name == "bad@1")
        .expect("attack file must appear in the listing");
    assert_eq!(bad.state, "unreadable");
    let good = rows.iter().find(|r| r.name == "good").unwrap();
    assert_eq!(good.state, "cold");
    assert_serviceable(&registry);
    // Now resident.
    assert!(registry.list().iter().any(|r| r.state == "resident"));
    registry.shutdown();
}

#[test]
fn a_version_one_file_is_refused_not_decoded_as_v2() {
    let (_dir, registry) = hostile_registry("v1", |bytes| {
        // An older format's file: the gate must refuse it by version,
        // before the checksum pass, rather than hand its payload to the
        // v2 decoder.
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    });
    match artifact_error(&registry, "bad@1") {
        ArtifactError::UnsupportedVersion { found, supported } => {
            assert_eq!((found, supported), (1, 2));
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let rows = registry.list();
    let bad = rows
        .iter()
        .find(|r| r.name == "bad" || r.name == "bad@1")
        .unwrap();
    assert_eq!(bad.state, "unreadable");
    assert_serviceable(&registry);
    registry.shutdown();
}
