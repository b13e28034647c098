//! Seeded fault-injection battery: torn artifact writes that must leave
//! the previously committed version loadable, injected read and compile
//! failures surfacing as typed errors, single-flight failure broadcast to
//! every coalesced waiter, the per-model circuit breaker opening under
//! repeated failures and recovering through its half-open probe, and LRU
//! eviction sparing a model whose only request is stalled in a slow
//! backend.
//!
//! Every test arms the process-global [`FaultInjector`], so they
//! serialize on one mutex — this battery lives in its own integration
//! binary precisely so its global injector cannot leak into any other
//! test process.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{
    BackendHint, FaultConfig, FaultInjector, ModelArtifact, ModelRegistry, RegistryConfig,
    RegistryError, StreamingConfig,
};
use snn_tensor::Tensor;
use ttfs_core::{convert, Base2Kernel};

/// One armed injector per process: tests take this before touching it.
static SERIAL: Mutex<()> = Mutex::new(());

const DIMS: [usize; 3] = [1, 3, 4];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("snn_faults_test_{tag}_{}", std::process::id()));
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

/// A deliberately heavyweight artifact (≈ 2 M weights, 8 MB on disk) whose
/// `load` outlasts the scheduling jitter between threads released from
/// one barrier, so they reliably coalesce onto a single flight.
fn wide_artifact(name: &str, version: &str, seed: u64) -> ModelArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(12, 2048, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(2048, 1024, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(1024, 3, &mut rng)),
    ]);
    let model = convert(&net, Base2Kernel::paper_default(), 24).unwrap();
    ModelArtifact::build(name, version, model, &DIMS, BackendHint::Csr).unwrap()
}

fn registry_config(threshold: u32, backoff: Duration) -> RegistryConfig {
    RegistryConfig {
        byte_budget: 0,
        streaming: StreamingConfig {
            threads: 1,
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            max_pending: 0,
            brownout: None,
        },
        breaker_threshold: threshold,
        breaker_backoff: backoff,
        breaker_backoff_max: backoff * 8,
    }
}

fn probe_bits(artifact: &ModelArtifact) -> Vec<u32> {
    let (engine, _) = artifact.compile().unwrap();
    let mut dims = vec![1usize];
    dims.extend_from_slice(&DIMS);
    let x = Tensor::full(&dims, 0.5);
    let (logits, _) = engine.run_batch(&x).unwrap();
    logits.as_slice().iter().map(|f| f.to_bits()).collect()
}

#[test]
fn torn_write_leaves_the_previous_artifact_loadable() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("torn");
    let path = dir.path().join("alpha@1.snna");
    let v1 = dense_artifact("alpha", "1", 1);
    v1.save(&path).unwrap();
    let committed = fs::read(&path).unwrap();

    // A re-save of different content tears mid-write: the failure must
    // land on the temp sibling, never the committed file.
    let replacement = dense_artifact("alpha", "1", 2);
    FaultInjector::global().arm(
        11,
        FaultConfig {
            artifact_write: 1.0,
            ..FaultConfig::default()
        },
    );
    let err = replacement.save(&path).unwrap_err();
    FaultInjector::global().disarm();
    assert!(
        err.to_string().contains("injected torn write"),
        "typed torn-write error, got: {err}"
    );
    assert_eq!(
        FaultInjector::global().counts().artifact_torn_writes,
        1,
        "exactly one torn write fired"
    );

    // The committed bytes are untouched, still load, and still produce
    // the ORIGINAL version's logits bit-for-bit.
    assert_eq!(
        fs::read(&path).unwrap(),
        committed,
        "torn write reached the committed file"
    );
    let reloaded = ModelArtifact::load(&path).unwrap();
    assert_eq!(probe_bits(&reloaded), probe_bits(&v1));
}

#[test]
fn lru_never_evicts_a_model_with_in_flight_work() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("lru");
    let a = dense_artifact("alpha", "1", 1);
    let b = dense_artifact("beta", "1", 2);
    let c = dense_artifact("gamma", "1", 3);
    a.save(dir.path().join("alpha@1.snna")).unwrap();
    b.save(dir.path().join("beta@1.snna")).unwrap();
    c.save(dir.path().join("gamma@1.snna")).unwrap();
    let fa = a.compile().unwrap().1.stored_bytes;
    let fb = b.compile().unwrap().1.stored_bytes;

    // Budget admits one model comfortably but not two: the second load
    // must try to evict the first.
    let registry = ModelRegistry::open(
        dir.path(),
        RegistryConfig {
            byte_budget: fa.max(fb) + 1,
            ..registry_config(3, Duration::from_millis(50))
        },
    )
    .unwrap();

    // The server never parks a request, so a stalled backend does: the
    // injected slowdown holds alpha's only batch — and its pending() > 0 —
    // for far longer than loading beta takes.
    FaultInjector::global().arm(
        13,
        FaultConfig {
            backend_slow: 1.0,
            slow_delay: Duration::from_millis(300),
            ..FaultConfig::default()
        },
    );
    let alpha = registry.get_or_load("alpha").unwrap();
    let sample = Tensor::full(&DIMS, 0.5);
    let ticket = alpha.server().submit(&sample).unwrap();
    drop(alpha); // only the registry and the stalled ticket's server remain

    // Loading beta pushes the registry over budget, but alpha has an
    // in-flight request: it must NOT be evicted mid-ticket.
    let _beta = registry.get_or_load("beta").unwrap();
    let states: Vec<_> = registry
        .list()
        .into_iter()
        .map(|r| (r.name, r.state))
        .collect();
    assert!(
        states.iter().any(|(n, s)| n == "alpha" && s == "resident"),
        "alpha must stay resident while its ticket is in flight: {states:?}"
    );
    assert_eq!(registry.metrics().evictions, 0);

    // The stalled ticket completes normally — never dropped by eviction.
    let response = ticket.wait().expect("in-flight ticket must complete");
    FaultInjector::global().disarm();
    assert_eq!(response.logits.dims(), &[3]);

    // With alpha idle again — the reply lands just before the worker
    // releases its admission slot — the next over-budget load evicts it.
    while registry.list().iter().any(|r| r.pending > 0) {
        std::thread::yield_now();
    }
    let _gamma = registry.get_or_load("gamma").unwrap();
    let metrics = registry.metrics();
    assert!(
        metrics.evictions >= 1,
        "idle LRU entry is evictable once its work drains: {metrics:?}"
    );
    assert!(!registry
        .list()
        .iter()
        .any(|r| r.name == "alpha" && r.state == "resident"));
    registry.shutdown();
}

#[test]
fn injected_read_fault_is_a_typed_io_error_and_clears_on_disarm() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("read");
    let path = dir.path().join("alpha@1.snna");
    dense_artifact("alpha", "1", 3).save(&path).unwrap();

    FaultInjector::global().arm(
        13,
        FaultConfig {
            artifact_read: 1.0,
            ..FaultConfig::default()
        },
    );
    let err = ModelArtifact::load(&path).unwrap_err();
    assert!(
        err.to_string().contains("injected read fault"),
        "typed read fault, got: {err}"
    );
    FaultInjector::global().disarm();
    assert!(ModelArtifact::load(&path).is_ok(), "disarmed loads succeed");
}

#[test]
fn injected_compile_failure_surfaces_typed_and_the_registry_recovers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("compile");
    dense_artifact("alpha", "1", 5)
        .save(dir.path().join("alpha@1.snna"))
        .unwrap();
    // Breaker disabled: this test isolates the typed error itself.
    let registry =
        ModelRegistry::open(dir.path(), registry_config(0, Duration::from_millis(50))).unwrap();

    FaultInjector::global().arm(
        17,
        FaultConfig {
            compile: 1.0,
            ..FaultConfig::default()
        },
    );
    let err = registry.get_or_load("alpha").unwrap_err();
    assert!(
        matches!(&err, RegistryError::Compile(msg) if msg.contains("injected compile failure")),
        "typed compile error, got: {err}"
    );
    FaultInjector::global().disarm();

    // The failure is not negatively cached without a breaker: the next
    // lookup retries and succeeds.
    assert!(registry.get_or_load("alpha").is_ok());
    let metrics = registry.metrics();
    assert_eq!(metrics.load_errors, 1);
    assert_eq!(metrics.cold_loads, 1);
    registry.shutdown();
}

#[test]
fn single_flight_broadcasts_one_failure_to_every_coalesced_waiter() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("broadcast");
    wide_artifact("alpha", "1", 7)
        .save(dir.path().join("alpha@1.snna"))
        .unwrap();
    let registry = Arc::new(
        ModelRegistry::open(dir.path(), registry_config(0, Duration::from_millis(50))).unwrap(),
    );

    FaultInjector::global().arm(
        19,
        FaultConfig {
            compile: 1.0,
            ..FaultConfig::default()
        },
    );
    // Nine threads leave one barrier together: whichever enters the
    // (slow, multi-megabyte) artifact load first leads, the others must
    // coalesce onto its flight and all receive its typed failure promptly
    // — not one failure each, and no hangs.
    const WAITERS: usize = 8;
    let gate = Arc::new(Barrier::new(WAITERS + 1));
    let start = Instant::now();
    let mut threads: Vec<_> = (0..=WAITERS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                registry.get_or_load("alpha").map(|_| ())
            })
        })
        .collect();
    let leader = threads.remove(0);
    let waiters = threads;
    let leader_result = leader.join().unwrap();
    assert!(
        matches!(leader_result, Err(RegistryError::Compile(_))),
        "leader gets the typed compile failure"
    );
    for waiter in waiters {
        let result = waiter.join().unwrap();
        assert!(
            matches!(result, Err(RegistryError::Compile(_))),
            "every waiter gets the broadcast typed failure, got: {result:?}"
        );
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "failure broadcast must be prompt, not a hang"
    );
    // The injector rolled the compile point once per actual attempt:
    // the waiters that coalesced onto the leader's flight replayed its
    // error instead of paying their own load.
    let attempts = FaultInjector::global().counts().compile_failures;
    FaultInjector::global().disarm();
    let metrics = registry.metrics();
    assert_eq!(attempts, 1, "waiters coalesced onto a single load attempt");
    assert_eq!(metrics.load_errors, 1);
    assert_eq!(
        metrics.coalesced_loads, WAITERS as u64,
        "every waiter was counted as coalesced"
    );

    // Repair (disarm) and retry: the failure was broadcast, not sticky.
    assert!(registry.get_or_load("alpha").is_ok());
    registry.shutdown();
}

#[test]
fn breaker_opens_after_threshold_and_recovers_via_half_open_probe() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("breaker");
    dense_artifact("alpha", "1", 9)
        .save(dir.path().join("alpha@1.snna"))
        .unwrap();
    let backoff = Duration::from_millis(50);
    let registry = ModelRegistry::open(dir.path(), registry_config(2, backoff)).unwrap();

    FaultInjector::global().arm(
        23,
        FaultConfig {
            compile: 1.0,
            ..FaultConfig::default()
        },
    );
    // Two consecutive failures reach the threshold and open the breaker.
    for _ in 0..2 {
        assert!(matches!(
            registry.get_or_load("alpha"),
            Err(RegistryError::Compile(_))
        ));
    }
    // Open: rejected with retry advice, WITHOUT another load attempt.
    let err = registry.get_or_load("alpha").unwrap_err();
    match &err {
        RegistryError::BreakerOpen { key, retry_after } => {
            assert_eq!(key, "alpha@1");
            assert!(*retry_after <= backoff, "retry advice within the backoff");
        }
        other => panic!("expected BreakerOpen, got: {other}"),
    }
    assert_eq!(
        FaultInjector::global().counts().compile_failures,
        2,
        "the open breaker short-circuits before the loader"
    );
    assert!(
        registry
            .list()
            .iter()
            .any(|m| m.name == "alpha" && m.state == "breaker-open"),
        "listing surfaces the open breaker"
    );

    // Repair the fault, wait out the backoff: the next lookup is the
    // half-open probe, and its success closes the breaker.
    FaultInjector::global().disarm();
    std::thread::sleep(backoff + Duration::from_millis(20));
    assert!(
        registry.get_or_load("alpha").is_ok(),
        "half-open probe recovers"
    );
    let metrics = registry.metrics();
    assert_eq!(metrics.breaker_opens, 1);
    assert_eq!(metrics.breaker_recoveries, 1);
    assert_eq!(metrics.breaker_rejections, 1);
    assert_eq!(metrics.load_errors, 2);
    // Closed again: warm hits serve normally.
    assert!(registry.get_or_load("alpha").is_ok());
    registry.shutdown();
}

#[test]
fn failed_half_open_probe_doubles_the_backoff() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("backoff");
    dense_artifact("alpha", "1", 15)
        .save(dir.path().join("alpha@1.snna"))
        .unwrap();
    let backoff = Duration::from_millis(40);
    let registry = ModelRegistry::open(dir.path(), registry_config(1, backoff)).unwrap();

    FaultInjector::global().arm(
        29,
        FaultConfig {
            compile: 1.0,
            ..FaultConfig::default()
        },
    );
    // Threshold 1: the first failure opens the breaker at the base
    // backoff; a failed half-open probe re-opens it with the backoff
    // doubled (negative caching backs off exponentially).
    assert!(registry.get_or_load("alpha").is_err());
    std::thread::sleep(backoff + Duration::from_millis(20));
    assert!(
        matches!(
            registry.get_or_load("alpha"),
            Err(RegistryError::Compile(_))
        ),
        "expired backoff admits exactly one probe, which fails"
    );
    let err = registry.get_or_load("alpha").unwrap_err();
    match &err {
        RegistryError::BreakerOpen { retry_after, .. } => {
            assert!(
                *retry_after > backoff,
                "re-opened backoff must exceed the base {backoff:?}, got {retry_after:?}"
            );
        }
        other => panic!("expected BreakerOpen after the failed probe, got: {other}"),
    }
    FaultInjector::global().disarm();
    let metrics = registry.metrics();
    assert_eq!(metrics.breaker_opens, 2, "initial open plus the re-open");
    assert_eq!(metrics.breaker_recoveries, 0);
    registry.shutdown();
}
