//! Multi-model registry: `name@version` → lazily loaded, single-flight
//! compiled serving entries with LRU eviction and atomic hot swap.
//!
//! A [`ModelRegistry`] watches a directory of `.snna` artifacts (see
//! [`crate::ModelArtifact`]). Opening the registry only *peeks* each
//! file's header — models stay cold until the first request. Everything
//! known about one key lives in one entry, whose slot moves through:
//!
//! ```text
//!          get_or_load                  load ok
//!   cold ───────────────▶ loading ───────────────▶ resident
//!    ▲ ▲                     │                        │
//!    │ └──── load fails ─────┘                        │
//!    └─────────── LRU eviction / shutdown ────────────┘
//! ```
//!
//! A cold lookup fails fast instead of loading while the key's breaker is
//! open or its file is unreadable (re-peeked by [`ModelRegistry::refresh`]).
//!
//! * **Single-flight compilation** — N threads racing `get_or_load` on a
//!   cold model trigger exactly one load + compile. The loader parks a
//!   once-cell in the entry; the rest wait on that cell and receive the
//!   load's own result — the shared handle, or its typed error — so N
//!   racers on a bad artifact cost one disk read, not N. A load that
//!   panics is completed by its guard: the slot goes cold and the waiters
//!   get [`RegistryError::LoadPanicked`], so no key is left loading.
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
use std::sync::{Arc, Mutex, OnceLock};
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
    /// The load of the named `name@version` key panicked; its slot is
    /// cold again and the next lookup retries.
    LoadPanicked(String),
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
            Self::LoadPanicked(key) => write!(f, "load of {key} panicked"),
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
#[derive(Debug, Clone)]
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

/// One load's outcome, set exactly once by the loader; every lookup that
/// found the load in flight waits on it.
type LoadCell = OnceLock<Result<Arc<ModelHandle>, RegistryError>>;

/// Where one key's compiled model is.
enum Slot {
    /// Never loaded, evicted, or the last load failed.
    Cold,
    /// A load is in flight (the single-flight marker).
    Loading(Arc<LoadCell>),
    /// Compiled and serving.
    Resident(Arc<ModelHandle>),
}

impl Slot {
    fn resident(&self) -> Option<&Arc<ModelHandle>> {
        match self {
            Self::Resident(handle) => Some(handle),
            _ => None,
        }
    }

    /// Takes a resident handle out, leaving the slot cold; a cold or
    /// loading slot stays as it is.
    fn take_resident(&mut self) -> Option<Arc<ModelHandle>> {
        match std::mem::replace(self, Self::Cold) {
            Self::Resident(handle) => Some(handle),
            other => {
                *self = other;
                None
            }
        }
    }
}

/// Held by the one caller running a key's load, across the unlocked
/// load and compile. It is forgotten once the load returns; dropping it —
/// only an unwinding panic does — completes the load as a failure: the
/// slot goes back to cold (the next lookup retries, subject to the
/// breaker) and every waiter gets [`RegistryError::LoadPanicked`].
struct LoadGuard<'a> {
    registry: &'a ModelRegistry,
    key: &'a str,
    cell: &'a Arc<LoadCell>,
}

impl Drop for LoadGuard<'_> {
    fn drop(&mut self) {
        // A panic must not follow a panic: take the state even if poisoned.
        let mut locked = self
            .registry
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let state = &mut *locked;
        if let Some(entry) = state.entries.get_mut(self.key) {
            entry.slot = Slot::Cold;
            let opened = entry.breaker.fail(Instant::now(), &self.registry.config);
            state.counters.load_errors += 1;
            state.counters.breaker_opens += u64::from(opened.is_some());
        }
        drop(locked);
        let _ = self
            .cell
            .set(Err(RegistryError::LoadPanicked(self.key.to_string())));
    }
}

/// Everything the registry knows about one `name@version` key.
struct Entry {
    catalog: CatalogEntry,
    slot: Slot,
    breaker: Breaker,
    /// LRU tick of the entry's last use; the smallest is evicted first.
    last_used: u64,
}

/// Per-key circuit breaker (see [`RegistryConfig::breaker_threshold`]).
#[derive(Debug, Default)]
struct Breaker {
    /// Failed loads since the last success.
    failures: u32,
    /// When set, lookups are rejected until this instant; after it, the
    /// next load is the half-open probe.
    open_until: Option<Instant>,
    /// Window of the current open; each failed probe doubles it.
    backoff: Duration,
}

impl Breaker {
    /// `Err(remaining)` while open. Once the window has passed the caller
    /// is admitted as the half-open probe; the key's loading slot keeps
    /// it the only one until its load reports back.
    fn admit(&self, now: Instant) -> Result<(), Duration> {
        match self.open_until {
            Some(until) if now < until => Err(until - now),
            _ => Ok(()),
        }
    }

    /// Closes the breaker after a successful load; `true` when it was
    /// open, i.e. a half-open probe came back healthy.
    fn succeed(&mut self) -> bool {
        std::mem::take(self).open_until.is_some()
    }

    /// Counts a failed load; `Some(window)` when it (re-)opens the
    /// breaker: at `breaker_threshold` consecutive failures with the base
    /// backoff, or on a failed probe with the window doubled up to
    /// `breaker_backoff_max`. A threshold of 0 never opens.
    fn fail(&mut self, now: Instant, config: &RegistryConfig) -> Option<Duration> {
        self.failures = self.failures.saturating_add(1);
        self.backoff = if self.open_until.is_some() {
            self.backoff
                .saturating_mul(2)
                .min(config.breaker_backoff_max)
        } else if config.breaker_threshold > 0 && self.failures >= config.breaker_threshold {
            config.breaker_backoff
        } else {
            return None;
        };
        self.open_until = Some(now + self.backoff);
        Some(self.backoff)
    }
}

#[derive(Default)]
struct State {
    /// `name@version` → its catalog row, slot, breaker and LRU tick.
    entries: BTreeMap<String, Entry>,
    /// Bare name → active version (the swap pointer).
    active: BTreeMap<String, String>,
    /// Names whose active pointer was set by an explicit swap; `refresh`
    /// never overrides these defaults.
    pinned: BTreeSet<String>,
    /// LRU clock, advanced on every use of a resident entry.
    tick: u64,
    counters: Counters,
    load_times: Histogram,
    compile_times: Histogram,
}

impl State {
    fn resident(&self) -> impl Iterator<Item = &Arc<ModelHandle>> {
        self.entries
            .values()
            .filter_map(|entry| entry.slot.resident())
    }
}

/// The multi-model registry. See the module docs for semantics.
pub struct ModelRegistry {
    dir: PathBuf,
    config: RegistryConfig,
    trace: Option<Arc<TraceCollector>>,
    telemetry: Mutex<Option<Arc<TelemetryHub>>>,
    log: Mutex<Option<LogSink>>,
    state: Mutex<State>,
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
            state: Mutex::default(),
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
        for (key, catalog) in discovered {
            match state.entries.get_mut(&key) {
                Some(entry) => entry.catalog = catalog,
                None => {
                    state.entries.insert(
                        key,
                        Entry {
                            catalog,
                            slot: Slot::Cold,
                            breaker: Breaker::default(),
                            last_used: 0,
                        },
                    );
                }
            }
        }
        // Default each name's active pointer to its lexically greatest
        // readable version; explicit swap() pins survive rescans.
        let mut greatest: BTreeMap<String, String> = BTreeMap::new();
        for entry in state.entries.values() {
            if let CatalogEntry::Readable { info, .. } = &entry.catalog {
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
        // Each lookup lands in exactly one counter bucket: a warm hit, a
        // coalesced wait, a breaker rejection, or — for the one caller
        // that runs the load — a cold load or a load error.
        let mut guard = self.state.lock().expect("registry state poisoned");
        let key = Self::resolve_key(&guard, spec)?;
        let state = &mut *guard;
        let Some(entry) = state.entries.get_mut(&key) else {
            return Err(RegistryError::UnknownModel(spec.to_string()));
        };
        match &entry.slot {
            Slot::Resident(handle) => {
                state.tick += 1;
                entry.last_used = state.tick;
                state.counters.warm_hits += 1;
                return Ok(Arc::clone(handle));
            }
            Slot::Loading(cell) => {
                let cell = Arc::clone(cell);
                state.counters.coalesced_loads += 1;
                drop(guard);
                return cell.wait().clone();
            }
            Slot::Cold => {}
        }
        if let Err(retry_after) = entry.breaker.admit(Instant::now()) {
            state.counters.breaker_rejections += 1;
            drop(guard);
            if let Some(sink) = self.log_sink() {
                snn_log::warn!(
                    sink.collector(),
                    "registry.breaker",
                    { "key": key.as_str(), "retry_ms": retry_after.as_millis() as u64 },
                    "lookup rejected: breaker open for {key}"
                );
            }
            return Err(RegistryError::BreakerOpen { key, retry_after });
        }
        let (path, info) = match &entry.catalog {
            CatalogEntry::Unreadable { error } => {
                return Err(RegistryError::Artifact(error.clone()))
            }
            CatalogEntry::Readable { path, info, .. } => (path.clone(), info.clone()),
        };
        let cell = Arc::new(LoadCell::new());
        entry.slot = Slot::Loading(Arc::clone(&cell));
        drop(guard);

        // Load + compile outside the lock: other models stay serviceable
        // and lookups for this key wait on `cell`. Should the load panic,
        // the armed guard completes it on the way out.
        let loading = LoadGuard {
            registry: self,
            key: &key,
            cell: &cell,
        };
        let result = self
            .load_and_compile(&key, &path, &info, parent)
            .map(Arc::new);
        std::mem::forget(loading);
        let mut guard = self.state.lock().expect("registry state poisoned");
        let state = &mut *guard;
        let entry = state
            .entries
            .get_mut(&key)
            .expect("entries are never removed");
        let (recovered, opened, evicted) = match &result {
            Ok(handle) => {
                let recovered = entry.breaker.succeed();
                state.tick += 1;
                entry.last_used = state.tick;
                entry.slot = Slot::Resident(Arc::clone(handle));
                state.counters.cold_loads += 1;
                state.counters.breaker_recoveries += u64::from(recovered);
                state
                    .load_times
                    .record(Duration::from_secs_f64(handle.load_ms / 1e3));
                state
                    .compile_times
                    .record(Duration::from_secs_f64(handle.compile_ms / 1e3));
                let evicted = Self::evict_over_budget(state, self.config.byte_budget);
                (recovered, None, evicted)
            }
            Err(_) => {
                entry.slot = Slot::Cold;
                let opened = entry.breaker.fail(Instant::now(), &self.config);
                state.counters.load_errors += 1;
                state.counters.breaker_opens += u64::from(opened.is_some());
                (false, opened, Vec::new())
            }
        };
        drop(guard);
        // The entry is published before the waiters wake.
        let _ = cell.set(result.clone());
        let Some(sink) = self.log_sink() else {
            return result;
        };
        match &result {
            Ok(handle) => {
                snn_log::info!(
                    sink.collector(),
                    "registry",
                    { "key": key.as_str(), "load_ms": handle.load_ms, "compile_ms": handle.compile_ms },
                    "cold-loaded {key} ({:.1} ms load + {:.1} ms compile)",
                    handle.load_ms,
                    handle.compile_ms
                );
                if recovered {
                    snn_log::info!(
                        sink.collector(),
                        "registry.breaker",
                        { "key": key.as_str() },
                        "circuit breaker closed for {key}: half-open probe succeeded"
                    );
                }
            }
            Err(e) => {
                snn_log::error!(
                    sink.collector(),
                    "registry",
                    { "key": key.as_str(), "error": e.to_string() },
                    "load failed for {key}: {e}"
                );
                if let Some(backoff) = opened {
                    snn_log::error!(
                        sink.collector(),
                        "registry.breaker",
                        { "key": key.as_str(), "backoff_ms": backoff.as_millis() as u64 },
                        "circuit breaker opened for {key}; rejecting lookups for {:.1}s",
                        backoff.as_secs_f64()
                    );
                    // The state lock is released: the incident snapshot
                    // provider reads registry metrics through it.
                    sink.incident(
                        "breaker_open",
                        &format!(
                            "circuit breaker opened for {key} after repeated load failures: {e}"
                        ),
                        parent.map(|t| t.trace),
                    );
                }
            }
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
        result // evicted servers shut down here, outside the lock
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
            state
                .entries
                .get(&key)
                .is_some_and(|entry| entry.slot.resident().is_some())
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
    /// and in-flight count, sorted by key. A resident entry lists from
    /// its handle even if its file has since gone bad; the catalog's
    /// error shows once the entry is evicted.
    pub fn list(&self) -> Vec<ModelStatus> {
        let state = self.state.lock().expect("registry state poisoned");
        let now = Instant::now();
        state
            .entries
            .iter()
            .map(|(key, entry)| {
                let resident = entry.slot.resident();
                let (info, file_bytes) = match (&entry.catalog, resident) {
                    (
                        CatalogEntry::Readable {
                            info, file_bytes, ..
                        },
                        _,
                    ) => (resident.map_or(info, |h| &h.info), *file_bytes),
                    (CatalogEntry::Unreadable { .. }, Some(handle)) => (&handle.info, 0),
                    (CatalogEntry::Unreadable { error }, None) => {
                        return ModelStatus {
                            name: key.clone(),
                            version: String::new(),
                            state: "unreadable".into(),
                            active: false,
                            backend: error.to_string(),
                            input_dims: Vec::new(),
                            file_bytes: 0,
                            resident_bytes: 0,
                            pending: 0,
                        }
                    }
                };
                let label = match &entry.slot {
                    Slot::Resident(_) => "resident",
                    Slot::Loading(_) => "loading",
                    Slot::Cold if entry.breaker.admit(now).is_err() => "breaker-open",
                    Slot::Cold => "cold",
                };
                ModelStatus {
                    name: info.name.clone(),
                    version: info.version.clone(),
                    state: label.into(),
                    active: state.active.get(&info.name) == Some(&info.version),
                    backend: info.backend.label(),
                    input_dims: info.input_dims.clone(),
                    file_bytes,
                    resident_bytes: resident.map_or(0, |h| h.footprint.stored_bytes),
                    pending: resident.map_or(0, |h| h.server.pending()),
                }
            })
            .collect()
    }

    /// Aggregated counters and cold-start timings.
    pub fn metrics(&self) -> RegistryMetrics {
        let state = self.state.lock().expect("registry state poisoned");
        let c = &state.counters;
        RegistryMetrics {
            catalog_models: state.entries.len(),
            resident_models: state.resident().count(),
            resident_bytes: state.resident().map(|h| h.footprint.stored_bytes).sum(),
            byte_budget: self.config.byte_budget,
            cold_loads: c.cold_loads,
            warm_hits: c.warm_hits,
            coalesced_loads: c.coalesced_loads,
            evictions: c.evictions,
            swaps: c.swaps,
            load_errors: c.load_errors,
            breaker_opens: c.breaker_opens,
            breaker_recoveries: c.breaker_recoveries,
            breaker_rejections: c.breaker_rejections,
            load_ms_mean: state.load_times.mean_us() / 1e3,
            load_ms_max: state.load_times.quantile_us(1.0) / 1e3,
            compile_ms_mean: state.compile_times.mean_us() / 1e3,
            compile_ms_max: state.compile_times.quantile_us(1.0) / 1e3,
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
        for handle in self.resident_handles() {
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
        for handle in self.resident_handles() {
            handle.server.attach_logging(sink.clone());
        }
        *self.log.lock().expect("registry log poisoned") = Some(sink);
    }

    /// Clones of every resident handle, taken under the state lock.
    fn resident_handles(&self) -> Vec<Arc<ModelHandle>> {
        let state = self.state.lock().expect("registry state poisoned");
        state.resident().cloned().collect()
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
            state
                .entries
                .values_mut()
                .filter_map(|entry| entry.slot.take_resident())
                .collect()
        };
        drop(drained); // servers shut down outside the lock
    }

    /// Resolves a request spec to a catalog key. Bare names follow the
    /// active pointer; explicit `name@version` passes through.
    fn resolve_key(state: &State, spec: &str) -> Result<String, RegistryError> {
        if spec.contains('@') {
            return Ok(spec.to_string());
        }
        match state.active.get(spec) {
            Some(version) if !version.is_empty() => Ok(format!("{spec}@{version}")),
            _ => Err(RegistryError::UnknownModel(spec.to_string())),
        }
    }

    /// Evicts least-recently-used entries until under budget, skipping any
    /// entry with in-flight work: an outside handle clone
    /// (`Arc::strong_count > 1` beyond the slot's own reference) or pending
    /// streaming tickets. Both checks happen under the state lock, and
    /// every new clone is minted under that same lock or from a clone
    /// that already exists, so an entry judged idle here cannot gain a
    /// user before it leaves its slot. Returns the evicted handles so the
    /// caller can drop them (and shut their servers down) outside the lock.
    fn evict_over_budget(state: &mut State, budget: usize) -> Vec<Arc<ModelHandle>> {
        let mut evicted = Vec::new();
        if budget == 0 {
            return evicted;
        }
        let mut resident_bytes: usize = state.resident().map(|h| h.footprint.stored_bytes).sum();
        while resident_bytes > budget {
            let victim = state
                .entries
                .values_mut()
                .filter(|entry| {
                    entry.slot.resident().is_some_and(|handle| {
                        Arc::strong_count(handle) == 1 && handle.server.pending() == 0
                    })
                })
                .min_by_key(|entry| entry.last_used);
            let Some(entry) = victim else {
                break; // everything busy: stay transiently over budget
            };
            if let Some(handle) = entry.slot.take_resident() {
                resident_bytes -= handle.footprint.stored_bytes;
                state.counters.evictions += 1;
                evicted.push(handle);
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

#[cfg(test)]
mod tests;
