//! Concurrency battery for [`ModelRegistry`]: single-flight compilation
//! under a thundering herd and atomic hot swap under closed-loop load —
//! every ticket completes with logits bit-matching exactly one of
//! {old version, new version}, never a mix. (LRU eviction sparing a model
//! with in-flight work needs a stalled backend: see `tests/faults.rs`.)

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{BackendHint, ModelArtifact, ModelRegistry, RegistryConfig, StreamingConfig};
use snn_tensor::Tensor;
use ttfs_core::{convert, Base2Kernel};

const DIMS: [usize; 3] = [1, 3, 4];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("snn_registry_test_{tag}_{}", std::process::id()));
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

fn fast_streaming() -> StreamingConfig {
    StreamingConfig {
        threads: 2,
        max_batch: 8,
        max_delay: Duration::from_millis(1),
        max_pending: 0,
        brownout: None,
    }
}

fn sample() -> Tensor {
    Tensor::full(&[1, 3, 4], 0.5)
}

/// Reference logits for an artifact: compile it directly (no registry)
/// and run the probe sample.
fn reference_bits(artifact: &ModelArtifact) -> Vec<u32> {
    let (engine, _) = artifact.compile().unwrap();
    let mut dims = vec![1usize];
    dims.extend_from_slice(&DIMS);
    let x = Tensor::full(&dims, 0.5);
    let (logits, _) = engine.run_batch(&x).unwrap();
    logits.as_slice().iter().map(|f| f.to_bits()).collect()
}

#[test]
fn thundering_herd_on_a_cold_model_compiles_exactly_once() {
    let dir = TempDir::new("herd");
    dense_artifact("alpha", "1", 1)
        .save(dir.path().join("alpha@1.snna"))
        .unwrap();
    let registry = Arc::new(
        ModelRegistry::open(
            dir.path(),
            RegistryConfig {
                byte_budget: 0,
                streaming: fast_streaming(),
                ..RegistryConfig::default()
            },
        )
        .unwrap(),
    );

    const THREADS: usize = 8;
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || registry.get_or_load("alpha").unwrap())
        })
        .collect();
    let loaded: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every thread got the SAME resident entry — one compile, N handles.
    for handle in &loaded[1..] {
        assert!(Arc::ptr_eq(&loaded[0], handle));
    }
    let metrics = registry.metrics();
    assert_eq!(metrics.cold_loads, 1, "single-flight: exactly one compile");
    assert_eq!(
        metrics.warm_hits + metrics.coalesced_loads,
        (THREADS - 1) as u64,
        "the other {} lookups coalesced or hit warm",
        THREADS - 1
    );
    assert_eq!(metrics.load_errors, 0);
    // Cold-start timings are recorded.
    assert!(metrics.load_ms_max >= 0.0);
    assert!(metrics.compile_ms_max > 0.0, "compile wall time recorded");
    registry.shutdown();
}

#[test]
fn swap_repoints_the_bare_name_and_survives_rescans() {
    let dir = TempDir::new("swap");
    dense_artifact("alpha", "1", 1)
        .save(dir.path().join("alpha@1.snna"))
        .unwrap();
    dense_artifact("alpha", "2", 2)
        .save(dir.path().join("alpha@2.snna"))
        .unwrap();
    let registry = ModelRegistry::open(
        dir.path(),
        RegistryConfig {
            byte_budget: 0,
            streaming: fast_streaming(),
            ..RegistryConfig::default()
        },
    )
    .unwrap();

    // Default active pointer: lexically greatest version.
    assert_eq!(registry.get_or_load("alpha").unwrap().info().version, "2");

    let report = registry.swap("alpha", "1", None).unwrap();
    assert_eq!(report.from.as_deref(), Some("2"));
    assert_eq!(report.to, "1");
    assert!(report.was_resident || report.load_ms >= 0.0);
    assert_eq!(registry.get_or_load("alpha").unwrap().info().version, "1");

    // A rescan must not un-pin the explicit swap.
    registry.refresh().unwrap();
    assert_eq!(registry.get_or_load("alpha").unwrap().info().version, "1");
    assert_eq!(registry.metrics().swaps, 1);

    // Swapping to a version that does not exist is a typed error and
    // leaves the pointer untouched.
    assert!(registry.swap("alpha", "9", None).is_err());
    assert_eq!(registry.get_or_load("alpha").unwrap().info().version, "1");
    registry.shutdown();
}

#[test]
fn hot_swap_under_closed_loop_load_never_mixes_versions() {
    let dir = TempDir::new("hotswap");
    let v1 = dense_artifact("alpha", "1", 10);
    let v2 = dense_artifact("alpha", "2", 20);
    v1.save(dir.path().join("alpha@1.snna")).unwrap();
    v2.save(dir.path().join("alpha@2.snna")).unwrap();
    let expected_v1 = reference_bits(&v1);
    let expected_v2 = reference_bits(&v2);
    assert_ne!(expected_v1, expected_v2, "versions must be distinguishable");

    let registry = Arc::new(
        ModelRegistry::open(
            dir.path(),
            RegistryConfig {
                byte_budget: 0,
                streaming: fast_streaming(),
                ..RegistryConfig::default()
            },
        )
        .unwrap(),
    );
    // Start on v2 (the default); swap to v1 once the load has provably
    // been answered by v2, and keep every thread going until it has
    // provably been answered by v1 — however fast or slow the box is.
    const THREADS: usize = 4;
    const V2_BEFORE_SWAP: u64 = 100;
    const V1_PER_THREAD: u64 = 50;
    let v2_answers = Arc::new(AtomicU64::new(0));
    let (swap_now, swap_due) = channel();
    let give_up = Instant::now() + Duration::from_secs(60);
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            let v2_answers = Arc::clone(&v2_answers);
            let swap_now = swap_now.clone();
            let (e1, e2) = (expected_v1.clone(), expected_v2.clone());
            std::thread::spawn(move || {
                let (mut saw_v1, mut saw_v2) = (0u64, 0u64);
                while saw_v1 < V1_PER_THREAD {
                    assert!(Instant::now() < give_up, "the swap never took effect");
                    // Resolve the bare name each iteration, like a
                    // gateway request would.
                    let handle = registry.get_or_load("alpha").unwrap();
                    let response = handle
                        .server()
                        .submit(&sample())
                        .unwrap()
                        .wait()
                        .expect("no ticket may be dropped across a swap");
                    let bits: Vec<u32> = response
                        .logits
                        .as_slice()
                        .iter()
                        .map(|f| f.to_bits())
                        .collect();
                    if bits == e1 {
                        saw_v1 += 1;
                    } else if bits == e2 {
                        saw_v2 += 1;
                        if v2_answers.fetch_add(1, Ordering::Relaxed) + 1 == V2_BEFORE_SWAP {
                            swap_now.send(()).unwrap();
                        }
                    } else {
                        panic!("logits match neither version: torn swap");
                    }
                }
                (saw_v1, saw_v2)
            })
        })
        .collect();

    swap_due
        .recv_timeout(Duration::from_secs(60))
        .expect("pre-swap traffic must have hit v2");
    let report = registry.swap("alpha", "1", None).unwrap();
    assert_eq!(report.to, "1");

    let (mut total_v1, mut total_v2) = (0u64, 0u64);
    for worker in workers {
        let (saw_v1, saw_v2) = worker.join().unwrap();
        total_v1 += saw_v1;
        total_v2 += saw_v2;
    }
    // Every answer matched exactly one version (a thread panics otherwise).
    assert!(total_v2 >= V2_BEFORE_SWAP);
    assert_eq!(total_v1, THREADS as u64 * V1_PER_THREAD);
    registry.shutdown();
}
