//! Multi-model registry: `name@version` → lazily loaded, single-flight
//! compiled serving entries with LRU eviction and atomic hot swap.
//!
//! A [`ModelRegistry`] watches a directory of `.snna` artifacts (see
//! [`crate::ModelArtifact`]). Opening the registry only *peeks* each
//! file's header — models stay cold until the first request. The entry
//! lifecycle:
//!
//! ```text
//! cold ──get_or_load──▶ loading ──▶ resident ──LRU eviction──▶ cold
//!            │ (single-flight: concurrent callers wait on one compile)
//!            ▼
//!      unreadable (typed ArtifactError, retried on refresh)
//! ```
//!
//! * **Single-flight compilation** — N threads racing `get_or_load` on a
//!   cold model trigger exactly one load + compile; the rest park on a
//!   condvar and wake to the shared handle — or, when that single load
//!   fails, to its typed error: the failure is broadcast to every parked
//!   waiter, so N racers on a bad artifact cost one disk read, not N.
//! * **Circuit breaking** — [`RegistryConfig::breaker_threshold`]
//!   consecutive load failures open a per-key breaker: further lookups
//!   fail immediately with [`RegistryError::BreakerOpen`] (carrying the
//!   remaining backoff) instead of re-reading and re-compiling a
//!   known-bad artifact. The rejection window doubles per failed
//!   half-open probe (capped) and one successful probe restores service.
//! * **LRU under a byte budget** — resident entries are charged their
//!   [`CsrFootprint::stored_bytes`]; crossing
//!   [`RegistryConfig::byte_budget`] evicts least-recently-used entries,
//!   but **never** one with in-flight work (an outstanding handle clone or
//!   a pending streaming ticket).
//! * **Atomic swap** — [`ModelRegistry::swap`] compiles the target version
//!   first, then repoints the name's active version under the same lock
//!   every resolve takes. In-flight tickets complete against the old
//!   entry's `Arc`; new submissions land on the new version; no request is
//!   dropped or served mixed logits.
//! * **Cold-start metrics** — per-entry load/compile wall time is kept and
//!   aggregated in [`RegistryMetrics`]; with a trace collector attached,
//!   each load emits `registry.load` / `registry.compile` spans (and swaps
//!   `registry.swap`) into the request's trace tree.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::Serialize;
use snn_telemetry::{Histogram, Labels, TelemetryHub};
use snn_trace::{AttrValue, TraceCollector, TraceTarget};
use ttfs_core::ConvertError;

use crate::artifact::{ArtifactError, ArtifactInfo, ModelArtifact, ARTIFACT_EXTENSION};
use crate::csr::CsrFootprint;
use crate::faults::{FaultInjector, FaultPoint};
use crate::metrics::LogSink;
use crate::{InferenceBackend, StreamingConfig, StreamingServer};

/// Tuning knobs for a [`ModelRegistry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// LRU budget over resident compiled bytes
    /// ([`CsrFootprint::stored_bytes`]); `0` means unbounded.
    pub byte_budget: usize,
    /// Streaming-server configuration applied to every loaded entry.
    pub streaming: StreamingConfig,
    /// Consecutive load failures that open a model's circuit breaker
    /// (`0` disables breaking). While open, lookups for the key fail
    /// immediately with [`RegistryError::BreakerOpen`] instead of hitting
    /// the disk and compiler again.
    pub breaker_threshold: u32,
    /// How long the first open rejects lookups before a half-open probe
    /// is allowed through. Each probe that fails doubles the window.
    pub breaker_backoff: Duration,
    /// Cap on the doubled backoff window.
    pub breaker_backoff_max: Duration,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            byte_budget: 0,
            streaming: StreamingConfig::default(),
            breaker_threshold: 3,
            breaker_backoff: Duration::from_millis(100),
            breaker_backoff_max: Duration::from_secs(5),
        }
    }
}

/// Errors surfaced by registry resolution.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// No artifact in the catalog matches the requested spec.
    UnknownModel(String),
    /// The artifact file failed to load or validate.
    Artifact(ArtifactError),
    /// The artifact loaded but its backend failed to compile.
    Compile(String),
    /// The key's circuit breaker is open after repeated load failures:
    /// the registry refuses to retry the load until `retry_after` has
    /// elapsed (negative caching with exponential backoff).
    BreakerOpen {
        /// The `name@version` key whose breaker rejected the lookup.
        key: String,
        /// How long until the next half-open probe is allowed.
        retry_after: Duration,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownModel(spec) => write!(f, "unknown model {spec:?}"),
            Self::Artifact(e) => write!(f, "artifact: {e}"),
            Self::Compile(e) => write!(f, "compile: {e}"),
            Self::BreakerOpen { key, retry_after } => write!(
                f,
                "circuit breaker open for {key:?} after repeated load failures; retry in {:.1}s",
                retry_after.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<ArtifactError> for RegistryError {
    fn from(e: ArtifactError) -> Self {
        Self::Artifact(e)
    }
}

impl From<ConvertError> for RegistryError {
    fn from(e: ConvertError) -> Self {
        Self::Compile(e.to_string())
    }
}

/// A resident model: compiled backend + streaming server + accounting.
/// Handles are shared via `Arc`; the registry's eviction policy treats any
/// outside clone (`Arc::strong_count > 1`) or pending streaming work as
/// in-flight and refuses to evict.
pub struct ModelHandle {
    key: String,
    info: ArtifactInfo,
    server: Arc<StreamingServer>,
    footprint: CsrFootprint,
    load_ms: f64,
    compile_ms: f64,
}

impl ModelHandle {
    /// The `name@version` key this handle resolved from.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Header info of the artifact backing this handle.
    pub fn info(&self) -> &ArtifactInfo {
        &self.info
    }

    /// The streaming server fronting this model's compiled backend.
    pub fn server(&self) -> &Arc<StreamingServer> {
        &self.server
    }

    /// Per-sample input dims this entry's geometry was compiled for.
    pub fn input_dims(&self) -> &[usize] {
        &self.info.input_dims
    }

    /// Compiled-table footprint (the bytes charged to the LRU budget).
    pub fn footprint(&self) -> CsrFootprint {
        self.footprint
    }

    /// Artifact read + validate wall time for this load, in ms.
    pub fn load_ms(&self) -> f64 {
        self.load_ms
    }

    /// Backend compile wall time for this load, in ms.
    pub fn compile_ms(&self) -> f64 {
        self.compile_ms
    }
}

impl std::fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelHandle")
            .field("key", &self.key)
            .field("stored_bytes", &self.footprint.stored_bytes)
            .finish()
    }
}

/// One row of [`ModelRegistry::list`]: catalog + residency state.
#[derive(Debug, Clone, Serialize)]
pub struct ModelStatus {
    /// Model name.
    pub name: String,
    /// Version label.
    pub version: String,
    /// `"resident"`, `"loading"`, `"cold"`, `"breaker-open"` or
    /// `"unreadable"`.
    pub state: String,
    /// Whether `name` (bare, no `@version`) currently routes here.
    pub active: bool,
    /// Backend label (`"csr"`, `"quant5b-..."`), from the artifact header.
    pub backend: String,
    /// Per-sample input dims.
    pub input_dims: Vec<usize>,
    /// Artifact size on disk in bytes.
    pub file_bytes: u64,
    /// Compiled resident bytes (0 unless resident).
    pub resident_bytes: usize,
    /// In-flight streaming requests (0 unless resident).
    pub pending: usize,
}

/// Aggregated registry counters and cold-start timings.
#[derive(Debug, Clone, Serialize)]
pub struct RegistryMetrics {
    /// Artifacts in the catalog (readable headers).
    pub catalog_models: usize,
    /// Currently resident entries.
    pub resident_models: usize,
    /// Sum of resident compiled bytes.
    pub resident_bytes: usize,
    /// Configured LRU budget (0 = unbounded).
    pub byte_budget: usize,
    /// Artifact loads performed (cold starts).
    pub cold_loads: u64,
    /// Lookups served immediately from a resident entry.
    pub warm_hits: u64,
    /// Lookups that waited on another thread's in-progress load
    /// (counted once per lookup, in this bucket only).
    pub coalesced_loads: u64,
    /// Entries evicted by the LRU budget.
    pub evictions: u64,
    /// Successful version swaps.
    pub swaps: u64,
    /// Loads that failed (artifact or compile error).
    pub load_errors: u64,
    /// Times a key's circuit breaker opened (including re-opens after a
    /// failed half-open probe).
    pub breaker_opens: u64,
    /// Times an open breaker's half-open probe succeeded and the key
    /// returned to service.
    pub breaker_recoveries: u64,
    /// Lookups rejected immediately because the key's breaker was open.
    pub breaker_rejections: u64,
    /// Mean artifact load wall time, ms.
    pub load_ms_mean: f64,
    /// Max artifact load wall time, ms.
    pub load_ms_max: f64,
    /// Mean backend compile wall time, ms.
    pub compile_ms_mean: f64,
    /// Max backend compile wall time, ms.
    pub compile_ms_max: f64,
}

/// Outcome of an atomic version swap.
#[derive(Debug, Clone, Serialize)]
pub struct SwapReport {
    /// Model name whose active version moved.
    pub name: String,
    /// Previously active version (if the name had one pinned).
    pub from: Option<String>,
    /// Now-active version.
    pub to: String,
    /// Whether the target version was already resident (warm swap).
    pub was_resident: bool,
    /// Artifact load time paid by this swap, ms (0 for a warm swap).
    pub load_ms: f64,
    /// Compile time paid by this swap, ms (0 for a warm swap).
    pub compile_ms: f64,
    /// End-to-end swap wall time, ms.
    pub swap_ms: f64,
}

/// Catalog entry: one artifact file discovered on disk.
#[derive(Debug, Clone)]
enum CatalogEntry {
    /// Header peeked successfully; loadable on demand.
    Readable {
        path: PathBuf,
        info: ArtifactInfo,
        file_bytes: u64,
    },
    /// Header or framing rejected; the typed error is replayed to callers.
    Unreadable { error: ArtifactError },
}

#[derive(Default)]
struct Counters {
    cold_loads: u64,
    warm_hits: u64,
    coalesced_loads: u64,
    evictions: u64,
    swaps: u64,
    load_errors: u64,
    breaker_opens: u64,
    breaker_recoveries: u64,
    breaker_rejections: u64,
}

/// Per-key circuit-breaker bookkeeping
/// (see [`RegistryConfig::breaker_threshold`]).
#[derive(Debug, Clone)]
struct BreakerState {
    /// Failed loads since the last success.
    consecutive_failures: u32,
    /// When set, lookups are rejected until this instant; once it passes,
    /// exactly one caller is let through as the half-open probe.
    open_until: Option<Instant>,
    /// Backoff applied at the next (re-)open; doubles per failed probe.
    backoff: Duration,
}

struct State {
    /// `name@version` → discovered artifact.
    catalog: BTreeMap<String, CatalogEntry>,
    /// `name@version` → resident handle.
    resident: BTreeMap<String, Arc<ModelHandle>>,
    /// Keys in least-recently-used-first order (front = eviction candidate).
    lru: Vec<String>,
    /// Keys with a load in flight (single-flight markers).
    loading: BTreeSet<String>,
    /// Bare name → active version (the swap pointer).
    active: BTreeMap<String, String>,
    /// Names whose active pointer was set by an explicit swap; `refresh`
    /// never overrides these defaults.
    pinned: BTreeSet<String>,
    /// Sum of resident `stored_bytes`.
    resident_bytes: usize,
    /// `name@version` → circuit-breaker state (absent = healthy).
    breakers: BTreeMap<String, BreakerState>,
    /// `name@version` → completed load attempts (success or failure).
    /// Lets a condvar waiter detect that the load it parked behind
    /// finished (and failed) even after the marker left `loading`.
    load_generations: BTreeMap<String, u64>,
    /// `name@version` → (generation that failed, its typed error). The
    /// single-flight loser replays this to every parked waiter instead of
    /// each waiter re-attempting the same doomed load.
    load_failures: BTreeMap<String, (u64, RegistryError)>,
    counters: Counters,
    load_times: Histogram,
    compile_times: Histogram,
}

/// The multi-model registry. See the module docs for semantics.
pub struct ModelRegistry {
    dir: PathBuf,
    config: RegistryConfig,
    trace: Option<Arc<TraceCollector>>,
    telemetry: Mutex<Option<Arc<TelemetryHub>>>,
    log: Mutex<Option<LogSink>>,
    state: Mutex<State>,
    loading_cv: Condvar,
}

impl ModelRegistry {
    /// Opens a registry over `dir`, peeking every `*.snna` header to build
    /// the catalog. Unreadable files are cataloged with their typed error
    /// (listed as `"unreadable"`) rather than failing the open. For each
    /// name the lexically greatest readable version starts active.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Artifact`] only if `dir` itself cannot be read.
    pub fn open(dir: impl AsRef<Path>, config: RegistryConfig) -> Result<Self, RegistryError> {
        Self::open_traced(dir, config, None)
    }

    /// [`open`](Self::open) with a trace collector: entry servers are
    /// built traced, and loads/compiles/swaps emit `registry.*` spans.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Artifact`] only if `dir` itself cannot be read.
    pub fn open_traced(
        dir: impl AsRef<Path>,
        config: RegistryConfig,
        trace: Option<Arc<TraceCollector>>,
    ) -> Result<Self, RegistryError> {
        let registry = Self {
            dir: dir.as_ref().to_path_buf(),
            config,
            trace,
            telemetry: Mutex::new(None),
            log: Mutex::new(None),
            state: Mutex::new(State {
                catalog: BTreeMap::new(),
                resident: BTreeMap::new(),
                lru: Vec::new(),
                loading: BTreeSet::new(),
                active: BTreeMap::new(),
                pinned: BTreeSet::new(),
                resident_bytes: 0,
                breakers: BTreeMap::new(),
                load_generations: BTreeMap::new(),
                load_failures: BTreeMap::new(),
                counters: Counters::default(),
                load_times: Histogram::new(),
                compile_times: Histogram::new(),
            }),
            loading_cv: Condvar::new(),
        };
        registry.refresh()?;
        Ok(registry)
    }

    /// Rescans the artifact directory, adding new files and refreshing
    /// previously unreadable ones. Resident entries are kept even if
    /// their file vanished (they serve until evicted).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Artifact`] if the directory cannot be read.
    pub fn refresh(&self) -> Result<(), RegistryError> {
        let entries = std::fs::read_dir(&self.dir).map_err(|e| {
            RegistryError::Artifact(ArtifactError::Io(format!(
                "read dir {}: {e}",
                self.dir.display()
            )))
        })?;
        let mut discovered: Vec<(String, CatalogEntry)> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(ARTIFACT_EXTENSION) {
                continue;
            }
            match ModelArtifact::peek(&path) {
                Ok((info, file_bytes)) => discovered.push((
                    info.key(),
                    CatalogEntry::Readable {
                        path,
                        info,
                        file_bytes,
                    },
                )),
                Err(error) => {
                    let key = path
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .unwrap_or("unreadable")
                        .to_string();
                    discovered.push((key, CatalogEntry::Unreadable { error }));
                }
            }
        }
        let mut state = self.state.lock().expect("registry state poisoned");
        for (key, entry) in discovered {
            state.catalog.insert(key, entry);
        }
        // Default each name's active pointer to its lexically greatest
        // readable version; explicit swap() pins survive rescans.
        let mut greatest: BTreeMap<String, String> = BTreeMap::new();
        for entry in state.catalog.values() {
            if let CatalogEntry::Readable { info, .. } = entry {
                let slot = greatest.entry(info.name.clone()).or_default();
                if info.version > *slot {
                    slot.clone_from(&info.version);
                }
            }
        }
        for (name, version) in greatest {
            if !state.pinned.contains(&name) {
                state.active.insert(name, version);
            }
        }
        Ok(())
    }

    /// The artifact directory this registry scans.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Resolves `spec` (`"name"` or `"name@version"`) to a resident
    /// handle, loading and compiling the artifact if cold. Concurrent
    /// callers for the same cold key coalesce onto a single load
    /// (single-flight); the winners' timings are shared.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] for a spec not in the catalog,
    /// [`RegistryError::Artifact`] / [`RegistryError::Compile`] when the
    /// load fails (the entry stays cold and the error is replayed).
    pub fn get_or_load(&self, spec: &str) -> Result<Arc<ModelHandle>, RegistryError> {
        self.get_or_load_traced(spec, None)
    }

    /// [`get_or_load`](Self::get_or_load) recording `registry.load` /
    /// `registry.compile` spans under `parent` when this call pays the
    /// cold start.
    ///
    /// # Errors
    ///
    /// Same conditions as [`get_or_load`](Self::get_or_load).
    pub fn get_or_load_traced(
        &self,
        spec: &str,
        parent: Option<TraceTarget>,
    ) -> Result<Arc<ModelHandle>, RegistryError> {
        let (key, path, info) = {
            let mut state = self.state.lock().expect("registry state poisoned");
            // Each lookup lands in exactly one bucket: a call that waits
            // out another caller's load is `coalesced`, even if it then
            // resolves via the resident map — and it counts once, not once
            // per condvar wakeup (waits can wake spuriously and re-loop).
            let mut coalesced = false;
            // `(key, generation)` recorded before parking: if the load we
            // parked behind completed with a failure, replay that failure
            // instead of re-attempting the same doomed load.
            let mut waited: Option<(String, u64)> = None;
            loop {
                let key = self.resolve_key(&state, spec)?;
                if let Some(handle) = state.resident.get(&key).cloned() {
                    Self::touch_lru(&mut state, &key);
                    if coalesced {
                        state.counters.coalesced_loads += 1;
                    } else {
                        state.counters.warm_hits += 1;
                    }
                    return Ok(handle);
                }
                if let Some((waited_key, start_gen)) = &waited {
                    if *waited_key == key {
                        let replay = state
                            .load_failures
                            .get(&key)
                            .filter(|(fail_gen, _)| fail_gen > start_gen)
                            .map(|(_, error)| error.clone());
                        if let Some(error) = replay {
                            state.counters.coalesced_loads += 1;
                            return Err(error);
                        }
                    }
                }
                if state.loading.contains(&key) {
                    coalesced = true;
                    let gen = state.load_generations.get(&key).copied().unwrap_or(0);
                    waited = Some((key, gen));
                    state = self
                        .loading_cv
                        .wait(state)
                        .expect("registry state poisoned");
                    continue; // re-resolve: the load may have failed or the active pointer moved
                }
                if self.config.breaker_threshold > 0 {
                    if let Some(until) = state.breakers.get(&key).and_then(|b| b.open_until) {
                        let now = Instant::now();
                        if now < until {
                            state.counters.breaker_rejections += 1;
                            if let Some(sink) = self.log_sink() {
                                snn_log::warn!(
                                    sink.collector(),
                                    "registry.breaker",
                                    { "key": key.as_str(), "retry_ms": (until - now).as_millis() as u64 },
                                    "lookup rejected: breaker open for {key}"
                                );
                            }
                            return Err(RegistryError::BreakerOpen {
                                key,
                                retry_after: until - now,
                            });
                        }
                        // Backoff expired: fall through — this caller is
                        // the half-open probe (single-flight guarantees
                        // it is alone; racers park on the condvar).
                    }
                }
                match state.catalog.get(&key) {
                    None => return Err(RegistryError::UnknownModel(spec.to_string())),
                    Some(CatalogEntry::Unreadable { error }) => {
                        return Err(RegistryError::Artifact(error.clone()))
                    }
                    Some(CatalogEntry::Readable { path, info, .. }) => {
                        let path = path.clone();
                        let info = info.clone();
                        state.loading.insert(key.clone());
                        break (key, path, info);
                    }
                }
            }
        };
        // Load + compile outside the lock: other models stay serviceable
        // and waiters for this key park on the condvar.
        let result = self.load_and_compile(&key, &path, &info, parent);
        let mut state = self.state.lock().expect("registry state poisoned");
        state.loading.remove(&key);
        let generation = {
            let slot = state.load_generations.entry(key.clone()).or_insert(0);
            *slot += 1;
            *slot
        };
        match result {
            Ok(handle) => {
                state.load_failures.remove(&key);
                let mut breaker_recovered = false;
                if let Some(breaker) = state.breakers.remove(&key) {
                    if breaker.open_until.is_some() {
                        // A half-open probe came back healthy.
                        state.counters.breaker_recoveries += 1;
                        breaker_recovered = true;
                    }
                }
                let handle = Arc::new(handle);
                state.resident_bytes += handle.footprint.stored_bytes;
                state.resident.insert(key.clone(), Arc::clone(&handle));
                Self::touch_lru(&mut state, &key);
                state.counters.cold_loads += 1;
                state
                    .load_times
                    .record(Duration::from_secs_f64(handle.load_ms / 1e3));
                state
                    .compile_times
                    .record(Duration::from_secs_f64(handle.compile_ms / 1e3));
                let evicted = Self::evict_over_budget(&mut state, self.config.byte_budget);
                drop(state);
                self.loading_cv.notify_all();
                if let Some(sink) = self.log_sink() {
                    snn_log::info!(
                        sink.collector(),
                        "registry",
                        { "key": key.as_str(), "load_ms": handle.load_ms, "compile_ms": handle.compile_ms },
                        "cold-loaded {key} ({:.1} ms load + {:.1} ms compile)",
                        handle.load_ms,
                        handle.compile_ms
                    );
                    if breaker_recovered {
                        snn_log::info!(
                            sink.collector(),
                            "registry.breaker",
                            { "key": key.as_str() },
                            "circuit breaker closed for {key}: half-open probe succeeded"
                        );
                    }
                    for victim in &evicted {
                        snn_log::info!(
                            sink.collector(),
                            "registry",
                            { "key": victim.key.as_str(), "bytes": victim.footprint.stored_bytes as u64 },
                            "evicted {} ({} resident bytes) under the LRU byte budget",
                            victim.key,
                            victim.footprint.stored_bytes
                        );
                    }
                }
                drop(evicted); // shut servers down outside the lock
                Ok(handle)
            }
            Err(e) => {
                state.counters.load_errors += 1;
                state
                    .load_failures
                    .insert(key.clone(), (generation, e.clone()));
                let mut breaker_opened = false;
                let mut breaker_backoff = Duration::ZERO;
                if self.config.breaker_threshold > 0 {
                    let base = self.config.breaker_backoff;
                    let breaker = state.breakers.entry(key.clone()).or_insert(BreakerState {
                        consecutive_failures: 0,
                        open_until: None,
                        backoff: base,
                    });
                    breaker.consecutive_failures += 1;
                    if breaker.open_until.is_some() {
                        // A failed half-open probe re-opens with a longer
                        // window (exponential backoff, capped).
                        breaker.backoff =
                            (breaker.backoff * 2).min(self.config.breaker_backoff_max);
                        breaker.open_until = Some(Instant::now() + breaker.backoff);
                        breaker_opened = true;
                        breaker_backoff = breaker.backoff;
                        state.counters.breaker_opens += 1;
                    } else if breaker.consecutive_failures >= self.config.breaker_threshold {
                        breaker.open_until = Some(Instant::now() + breaker.backoff);
                        breaker_opened = true;
                        breaker_backoff = breaker.backoff;
                        state.counters.breaker_opens += 1;
                    }
                }
                drop(state);
                self.loading_cv.notify_all();
                if let Some(sink) = self.log_sink() {
                    snn_log::error!(
                        sink.collector(),
                        "registry",
                        { "key": key.as_str(), "error": e.to_string() },
                        "load failed for {key}: {e}"
                    );
                    if breaker_opened {
                        snn_log::error!(
                            sink.collector(),
                            "registry.breaker",
                            { "key": key.as_str(), "backoff_ms": breaker_backoff.as_millis() as u64 },
                            "circuit breaker opened for {key}; rejecting lookups for {:.1}s",
                            breaker_backoff.as_secs_f64()
                        );
                        // The state lock is released: the incident snapshot
                        // provider reads registry metrics through it.
                        sink.incident(
                            "breaker_open",
                            &format!("circuit breaker opened for {key} after repeated load failures: {e}"),
                            parent.map(|t| t.trace),
                        );
                    }
                }
                Err(e)
            }
        }
    }

    /// Atomically repoints `name`'s active version to `version`, loading
    /// and compiling it first if cold. The pointer moves under the same
    /// lock every resolve takes, so a bare-`name` request observes either
    /// the old or the new version — never a mix — and in-flight tickets
    /// complete against the old entry's `Arc`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`get_or_load`](Self::get_or_load) for
    /// `name@version`.
    pub fn swap(
        &self,
        name: &str,
        version: &str,
        parent: Option<TraceTarget>,
    ) -> Result<SwapReport, RegistryError> {
        let swap_start = Instant::now();
        let key = format!("{name}@{version}");
        let was_resident = {
            let state = self.state.lock().expect("registry state poisoned");
            state.resident.contains_key(&key)
        };
        let handle = self.get_or_load_traced(&key, parent)?;
        let from = {
            let mut state = self.state.lock().expect("registry state poisoned");
            let from = state.active.insert(name.to_string(), version.to_string());
            state.pinned.insert(name.to_string());
            state.counters.swaps += 1;
            from.filter(|v| !v.is_empty())
        };
        let swap_ms = swap_start.elapsed().as_secs_f64() * 1e3;
        if let Some(sink) = self.log_sink() {
            snn_log::info!(
                sink.collector(),
                "registry",
                {
                    "name": name,
                    "from": from.as_deref().unwrap_or("-"),
                    "to": version,
                    "warm": was_resident,
                },
                "swapped {name} to @{version} in {swap_ms:.1} ms ({})",
                if was_resident { "warm" } else { "cold" }
            );
        }
        if let (Some(collector), Some(target)) = (&self.trace, parent) {
            collector.record_span(
                target.trace,
                target.parent,
                "registry.swap",
                swap_start,
                Instant::now(),
                vec![("registry.cold", AttrValue::from(u64::from(!was_resident)))],
            );
        }
        Ok(SwapReport {
            name: name.to_string(),
            from,
            to: version.to_string(),
            was_resident,
            load_ms: if was_resident { 0.0 } else { handle.load_ms },
            compile_ms: if was_resident { 0.0 } else { handle.compile_ms },
            swap_ms,
        })
    }

    /// Lists every cataloged model with its residency state, active flag
    /// and in-flight count, sorted by key.
    pub fn list(&self) -> Vec<ModelStatus> {
        let state = self.state.lock().expect("registry state poisoned");
        state
            .catalog
            .iter()
            .map(|(key, entry)| match entry {
                CatalogEntry::Readable {
                    info, file_bytes, ..
                } => {
                    let resident = state.resident.get(key);
                    let loading = state.loading.contains(key);
                    let breaker_open = state
                        .breakers
                        .get(key)
                        .and_then(|b| b.open_until)
                        .is_some_and(|until| Instant::now() < until);
                    ModelStatus {
                        name: info.name.clone(),
                        version: info.version.clone(),
                        state: if resident.is_some() {
                            "resident".into()
                        } else if loading {
                            "loading".into()
                        } else if breaker_open {
                            "breaker-open".into()
                        } else {
                            "cold".into()
                        },
                        active: state.active.get(&info.name) == Some(&info.version),
                        backend: info.backend.label(),
                        input_dims: info.input_dims.clone(),
                        file_bytes: *file_bytes,
                        resident_bytes: resident.map_or(0, |h| h.footprint.stored_bytes),
                        pending: resident.map_or(0, |h| h.server.pending()),
                    }
                }
                CatalogEntry::Unreadable { error } => ModelStatus {
                    name: key.clone(),
                    version: String::new(),
                    state: "unreadable".into(),
                    active: false,
                    backend: error.to_string(),
                    input_dims: Vec::new(),
                    file_bytes: 0,
                    resident_bytes: 0,
                    pending: 0,
                },
            })
            .collect()
    }

    /// Aggregated counters and cold-start timings.
    pub fn metrics(&self) -> RegistryMetrics {
        let state = self.state.lock().expect("registry state poisoned");
        let catalog_models = state.catalog.len();
        let resident_models = state.resident.len();
        let resident_bytes = state.resident_bytes;
        let c = &state.counters;
        let (cold_loads, warm_hits, coalesced_loads, evictions, swaps, load_errors) = (
            c.cold_loads,
            c.warm_hits,
            c.coalesced_loads,
            c.evictions,
            c.swaps,
            c.load_errors,
        );
        let (breaker_opens, breaker_recoveries, breaker_rejections) =
            (c.breaker_opens, c.breaker_recoveries, c.breaker_rejections);
        let load_ms_mean = state.load_times.mean_us() / 1e3;
        let load_ms_max = state.load_times.quantile_us(1.0) / 1e3;
        let compile_ms_mean = state.compile_times.mean_us() / 1e3;
        let compile_ms_max = state.compile_times.quantile_us(1.0) / 1e3;
        RegistryMetrics {
            catalog_models,
            resident_models,
            resident_bytes,
            byte_budget: self.config.byte_budget,
            cold_loads,
            warm_hits,
            coalesced_loads,
            evictions,
            swaps,
            load_errors,
            breaker_opens,
            breaker_recoveries,
            breaker_rejections,
            load_ms_mean,
            load_ms_max,
            compile_ms_mean,
            compile_ms_max,
        }
    }

    /// The trace collector entry servers record into, if any.
    pub fn trace_collector(&self) -> Option<&Arc<TraceCollector>> {
        self.trace.as_ref()
    }

    /// Attaches a telemetry hub: every entry server loaded from here on
    /// records windowed per-model series labeled
    /// `model=<name>,version=<version>,backend=<label>`, and every
    /// already-resident entry is retrofitted with the same sink.
    pub fn attach_telemetry(&self, hub: Arc<TelemetryHub>) {
        let resident: Vec<Arc<ModelHandle>> = {
            let state = self.state.lock().expect("registry state poisoned");
            state.resident.values().cloned().collect()
        };
        for handle in resident {
            handle
                .server
                .attach_telemetry(Arc::clone(&hub), Self::entry_labels(&handle.info));
        }
        *self.telemetry.lock().expect("registry telemetry poisoned") = Some(hub);
    }

    /// Attaches a log sink: lifecycle transitions (cold loads, evictions,
    /// swaps, breaker opens/recoveries/rejections, load errors) emit
    /// structured `registry.*` events, a breaker opening triggers an
    /// incident snapshot, and every entry server — resident now or loaded
    /// later — gets the same sink for its batcher events.
    pub fn attach_logging(&self, sink: LogSink) {
        let resident: Vec<Arc<ModelHandle>> = {
            let state = self.state.lock().expect("registry state poisoned");
            state.resident.values().cloned().collect()
        };
        for handle in resident {
            handle.server.attach_logging(sink.clone());
        }
        *self.log.lock().expect("registry log poisoned") = Some(sink);
    }

    /// A clone of the attached log sink, if any.
    fn log_sink(&self) -> Option<LogSink> {
        self.log.lock().expect("registry log poisoned").clone()
    }

    /// Windowed-series labels identifying one registry entry.
    fn entry_labels(info: &ArtifactInfo) -> Labels {
        Labels::new()
            .with("model", info.name.clone())
            .with("version", info.version.clone())
            .with("backend", info.backend.label())
    }

    /// Releases every resident entry (each server drains its in-flight
    /// tickets when its last `Arc` drops). The catalog stays intact; the
    /// next lookup reloads cold.
    pub fn shutdown(&self) {
        let drained: Vec<Arc<ModelHandle>> = {
            let mut state = self.state.lock().expect("registry state poisoned");
            state.resident_bytes = 0;
            state.lru.clear();
            std::mem::take(&mut state.resident).into_values().collect()
        };
        drop(drained); // servers shut down outside the lock
    }

    /// Resolves a request spec to a catalog key. Bare names follow the
    /// active pointer; explicit `name@version` passes through.
    fn resolve_key(&self, state: &State, spec: &str) -> Result<String, RegistryError> {
        if spec.contains('@') {
            return Ok(spec.to_string());
        }
        match state.active.get(spec) {
            Some(version) if !version.is_empty() => Ok(format!("{spec}@{version}")),
            _ => Err(RegistryError::UnknownModel(spec.to_string())),
        }
    }

    /// Moves `key` to the most-recently-used end of the LRU order.
    fn touch_lru(state: &mut State, key: &str) {
        state.lru.retain(|k| k != key);
        state.lru.push(key.to_string());
    }

    /// Evicts least-recently-used entries until under budget, skipping any
    /// entry with in-flight work: an outside handle clone
    /// (`Arc::strong_count > 1` beyond the map's own reference) or pending
    /// streaming tickets. Both checks happen under the state lock, and
    /// every new clone is minted under that same lock, so an entry judged
    /// idle here cannot gain a user before it is removed from the map.
    /// Returns the evicted handles so the caller can drop them (and shut
    /// their servers down) outside the lock.
    fn evict_over_budget(state: &mut State, budget: usize) -> Vec<Arc<ModelHandle>> {
        let mut evicted = Vec::new();
        if budget == 0 {
            return evicted;
        }
        while state.resident_bytes > budget {
            let victim = state.lru.iter().position(|key| {
                state.resident.get(key).is_some_and(|handle| {
                    Arc::strong_count(handle) == 1 && handle.server.pending() == 0
                })
            });
            match victim {
                None => break, // everything busy: stay transiently over budget
                Some(pos) => {
                    let key = state.lru.remove(pos);
                    if let Some(handle) = state.resident.remove(&key) {
                        state.resident_bytes = state
                            .resident_bytes
                            .saturating_sub(handle.footprint.stored_bytes);
                        state.counters.evictions += 1;
                        evicted.push(handle);
                    }
                }
            }
        }
        evicted
    }

    /// The cold path: read + validate the artifact, compile its backend,
    /// stand up a streaming server, and record spans when traced.
    fn load_and_compile(
        &self,
        key: &str,
        path: &Path,
        info: &ArtifactInfo,
        parent: Option<TraceTarget>,
    ) -> Result<ModelHandle, RegistryError> {
        let load_start = Instant::now();
        let artifact = ModelArtifact::load(path)?;
        if FaultInjector::global().should(FaultPoint::Compile) {
            return Err(RegistryError::Compile(format!(
                "injected compile failure for {key}"
            )));
        }
        let load_end = Instant::now();
        let (backend, footprint) = artifact.compile()?;
        let compile_end = Instant::now();
        if let (Some(collector), Some(target)) = (&self.trace, parent) {
            collector.record_span(
                target.trace,
                target.parent,
                "registry.load",
                load_start,
                load_end,
                vec![(
                    "artifact.bytes",
                    AttrValue::from(std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)),
                )],
            );
            collector.record_span(
                target.trace,
                target.parent,
                "registry.compile",
                load_end,
                compile_end,
                vec![(
                    "csr.stored_bytes",
                    AttrValue::from(footprint.stored_bytes as u64),
                )],
            );
        }
        let backend: Arc<dyn InferenceBackend> = backend;
        let server = match &self.trace {
            Some(collector) => Arc::new(StreamingServer::new_traced(
                backend,
                self.config.streaming.clone(),
                Arc::clone(collector),
            )),
            None => Arc::new(StreamingServer::new(backend, self.config.streaming.clone())),
        };
        let hub = self
            .telemetry
            .lock()
            .expect("registry telemetry poisoned")
            .clone();
        if let Some(hub) = hub {
            server.attach_telemetry(hub, Self::entry_labels(info));
        }
        if let Some(sink) = self.log_sink() {
            server.attach_logging(sink);
        }
        Ok(ModelHandle {
            key: key.to_string(),
            info: info.clone(),
            server,
            footprint,
            load_ms: load_end.duration_since(load_start).as_secs_f64() * 1e3,
            compile_ms: compile_end.duration_since(load_end).as_secs_f64() * 1e3,
        })
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("dir", &self.dir)
            .field("byte_budget", &self.config.byte_budget)
            .finish()
    }
}
