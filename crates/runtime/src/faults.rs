//! Deterministic, seeded fault injection — failure as a first-class,
//! testable input to the serving stack.
//!
//! A process-global [`FaultInjector`] sits behind every fault-prone
//! operation in the runtime and gateway: backend execution (panic,
//! slowdown), artifact I/O (read error, torn write), compilation, and
//! the HTTP edge (connection reset). Call sites ask
//! [`FaultInjector::should`] whether the fault fires *right now*; the
//! draw comes from a seeded xorshift64* stream, so a given seed and
//! request schedule produce a reproducible storm.
//!
//! Gating mirrors `snn-trace`: when the injector is disarmed (the
//! default, and the only production state) every hook is **one relaxed
//! atomic load** and the serving path is bit-identical to a build
//! without the hooks. Tests and the chaos bench arm it with
//! [`FaultInjector::arm`] and disarm with [`FaultInjector::disarm`].
//!
//! ```
//! use snn_runtime::{FaultConfig, FaultInjector, FaultPoint};
//!
//! let injector = FaultInjector::global();
//! assert!(!injector.should(FaultPoint::BackendPanic)); // disarmed: never fires
//! injector.arm(
//!     42,
//!     FaultConfig {
//!         backend_panic: 1.0,
//!         ..FaultConfig::default()
//!     },
//! );
//! assert!(injector.should(FaultPoint::BackendPanic));
//! injector.disarm();
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use serde::Serialize;
use snn_log::LogCollector;

/// Every place the stack can be made to fail on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// The inference backend panics mid-batch inside a worker thread.
    BackendPanic,
    /// The backend stalls for [`FaultConfig::slow_delay`] before running.
    BackendSlow,
    /// [`ModelArtifact::load`](crate::ModelArtifact::load) fails with an
    /// injected I/O error before touching the file.
    ArtifactRead,
    /// [`ModelArtifact::save`](crate::ModelArtifact::save) tears mid-write:
    /// a truncated temp file is left behind and the publish rename never
    /// happens (the published path must stay intact).
    ArtifactWrite,
    /// Artifact-to-engine compilation fails inside the registry.
    Compile,
    /// The gateway drops an accepted connection without responding.
    ConnReset,
}

impl FaultPoint {
    /// All points, in counter order.
    pub const ALL: [FaultPoint; 6] = [
        FaultPoint::BackendPanic,
        FaultPoint::BackendSlow,
        FaultPoint::ArtifactRead,
        FaultPoint::ArtifactWrite,
        FaultPoint::Compile,
        FaultPoint::ConnReset,
    ];

    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::BackendPanic => "backend_panic",
            Self::BackendSlow => "backend_slow",
            Self::ArtifactRead => "artifact_read",
            Self::ArtifactWrite => "artifact_write",
            Self::Compile => "compile",
            Self::ConnReset => "conn_reset",
        }
    }

    fn index(self) -> usize {
        match self {
            Self::BackendPanic => 0,
            Self::BackendSlow => 1,
            Self::ArtifactRead => 2,
            Self::ArtifactWrite => 3,
            Self::Compile => 4,
            Self::ConnReset => 5,
        }
    }
}

/// Per-point firing probabilities (each in `[0, 1]`) plus the injected
/// slowdown. The default fires nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability a dispatched batch panics inside its worker.
    pub backend_panic: f64,
    /// Probability a dispatched batch stalls for
    /// [`slow_delay`](Self::slow_delay) first.
    pub backend_slow: f64,
    /// Probability an artifact load fails with an injected I/O error.
    pub artifact_read: f64,
    /// Probability an artifact save tears mid-write.
    pub artifact_write: f64,
    /// Probability artifact compilation fails.
    pub compile: f64,
    /// Probability the gateway resets an accepted connection.
    pub conn_reset: f64,
    /// How long an injected [`FaultPoint::BackendSlow`] stalls.
    pub slow_delay: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            backend_panic: 0.0,
            backend_slow: 0.0,
            artifact_read: 0.0,
            artifact_write: 0.0,
            compile: 0.0,
            conn_reset: 0.0,
            slow_delay: Duration::from_millis(2),
        }
    }
}

impl FaultConfig {
    fn probability(&self, point: FaultPoint) -> f64 {
        match point {
            FaultPoint::BackendPanic => self.backend_panic,
            FaultPoint::BackendSlow => self.backend_slow,
            FaultPoint::ArtifactRead => self.artifact_read,
            FaultPoint::ArtifactWrite => self.artifact_write,
            FaultPoint::Compile => self.compile,
            FaultPoint::ConnReset => self.conn_reset,
        }
    }
}

/// Snapshot of how often each fault point was consulted and fired since
/// the injector was last armed.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultCounts {
    /// Injected backend panics.
    pub backend_panics: u64,
    /// Injected backend slowdowns.
    pub backend_slowdowns: u64,
    /// Injected artifact read errors.
    pub artifact_read_errors: u64,
    /// Injected torn artifact writes.
    pub artifact_torn_writes: u64,
    /// Injected compile failures.
    pub compile_failures: u64,
    /// Injected connection resets.
    pub conn_resets: u64,
    /// Total fault-point evaluations while armed.
    pub evaluated: u64,
}

impl FaultCounts {
    /// Total faults fired across every point.
    pub fn total_fired(&self) -> u64 {
        self.backend_panics
            + self.backend_slowdowns
            + self.artifact_read_errors
            + self.artifact_torn_writes
            + self.compile_failures
            + self.conn_resets
    }
}

/// Deterministic xorshift64* stream — the injector's only randomness.
struct Inner {
    rng: u64,
    config: FaultConfig,
    fired: [u64; 6],
    evaluated: u64,
    log: Option<Arc<LogCollector>>,
}

impl Inner {
    fn next_f64(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded fault injector. One process-global instance exists
/// ([`FaultInjector::global`]); while disarmed, every
/// [`should`](Self::should) call is a single relaxed atomic load.
pub struct FaultInjector {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl FaultInjector {
    fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(Inner {
                rng: 1,
                config: FaultConfig::default(),
                fired: [0; 6],
                evaluated: 0,
                log: None,
            }),
        }
    }

    /// The process-global injector every hook consults.
    pub fn global() -> &'static FaultInjector {
        static GLOBAL: OnceLock<FaultInjector> = OnceLock::new();
        GLOBAL.get_or_init(FaultInjector::new)
    }

    /// Arms the injector: resets the deterministic stream to `seed`,
    /// installs `config`, and zeroes the fired counters.
    pub fn arm(&self, seed: u64, config: FaultConfig) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.rng = seed.max(1);
        inner.config = config;
        inner.fired = [0; 6];
        inner.evaluated = 0;
        drop(inner);
        self.enabled.store(true, Ordering::Release);
    }

    /// Disarms the injector; every hook returns to the one-relaxed-load
    /// fast path and no further faults fire. Counters are preserved until
    /// the next [`arm`](Self::arm).
    pub fn disarm(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Attaches a log collector: every fired fault emits a `faults`
    /// warning event naming the injection point. Survives re-arming.
    pub fn attach_log(&self, log: Arc<LogCollector>) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).log = Some(log);
    }

    /// Whether the injector is currently armed (one relaxed load).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Draws whether `point` fires right now. Disarmed: always `false`
    /// after a single relaxed atomic load.
    #[inline]
    pub fn should(&self, point: FaultPoint) -> bool {
        if !self.enabled.load(Ordering::Relaxed) {
            return false;
        }
        self.roll(point)
    }

    #[cold]
    fn roll(&self, point: FaultPoint) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.evaluated += 1;
        let p = inner.config.probability(point);
        if p <= 0.0 {
            return false;
        }
        let fire = inner.next_f64() < p;
        if fire {
            inner.fired[point.index()] += 1;
            // The collector's locks are leaves: logging under `inner` is
            // safe, and no incident is triggered from here.
            if let Some(log) = &inner.log {
                snn_log::warn!(
                    log,
                    "faults",
                    { "point": point.label(), "fired": inner.fired[point.index()] },
                    "injected fault fired: {}",
                    point.label()
                );
            }
        }
        fire
    }

    /// The configured [`FaultPoint::BackendSlow`] stall duration.
    pub fn slow_delay(&self) -> Duration {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .config
            .slow_delay
    }

    /// Snapshot of fired/evaluated counters since the last
    /// [`arm`](Self::arm).
    pub fn counts(&self) -> FaultCounts {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        FaultCounts {
            backend_panics: inner.fired[0],
            backend_slowdowns: inner.fired[1],
            artifact_read_errors: inner.fired[2],
            artifact_torn_writes: inner.fired[3],
            compile_failures: inner.fired[4],
            conn_resets: inner.fired[5],
            evaluated: inner.evaluated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The injector is process-global; tests in this module serialize on
    // one lock so armed windows never overlap.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_never_fires() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let injector = FaultInjector::global();
        injector.disarm();
        for point in FaultPoint::ALL {
            assert!(!injector.should(point));
        }
    }

    #[test]
    fn armed_schedule_is_deterministic_per_seed() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let injector = FaultInjector::global();
        let config = FaultConfig {
            backend_panic: 0.3,
            conn_reset: 0.3,
            ..FaultConfig::default()
        };
        let draw = |seed: u64| -> Vec<bool> {
            injector.arm(seed, config.clone());
            let out = (0..64)
                .map(|i| {
                    injector.should(if i % 2 == 0 {
                        FaultPoint::BackendPanic
                    } else {
                        FaultPoint::ConnReset
                    })
                })
                .collect();
            injector.disarm();
            out
        };
        let a = draw(7);
        let b = draw(7);
        let c = draw(8);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(a, c, "different seeds must diverge");
        assert!(a.iter().any(|&f| f), "p=0.3 over 64 draws must fire");
        assert!(a.iter().any(|&f| !f), "p=0.3 over 64 draws must skip");
    }

    #[test]
    fn counters_track_fired_faults() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let injector = FaultInjector::global();
        injector.arm(
            3,
            FaultConfig {
                artifact_read: 1.0,
                ..FaultConfig::default()
            },
        );
        for _ in 0..5 {
            assert!(injector.should(FaultPoint::ArtifactRead));
        }
        assert!(!injector.should(FaultPoint::Compile));
        let counts = injector.counts();
        injector.disarm();
        assert_eq!(counts.artifact_read_errors, 5);
        assert_eq!(counts.compile_failures, 0);
        assert_eq!(counts.evaluated, 6);
        assert_eq!(counts.total_fired(), 5);
    }
}
