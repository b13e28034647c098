//! The CSR fast-path inference engine.
//!
//! [`Engine`] executes the same integrate/fire physics as
//! [`snn_sim::EventSnn`] but over compiled tables — [`CsrModel`] for
//! [`CsrEngine`], packed log codes for [`crate::QuantEngine`] — a chunk
//! of samples at a time: the chunk's samples are the lanes of a
//! [`BatchWheel`], whose time slots are walked in ascending order, and
//! each stage's membranes are one `[lanes, out_neurons]` f64 matrix (each
//! lane owns a contiguous slice, padded to whole cache lines, the matrix
//! starting on a 64-byte boundary). Integration walks a sealed slot's
//! spikes **one at a time, in their stored order**, in one small
//! `#[inline(never)]` function per synapse kind: a dense spike streams its
//! CSR row into its lane's slice; a conv spike reads one packed row record
//! `(t_base, w_base, pattern)` and adds its pattern there. Lanes share
//! the compiled tables and the fire/pool/wheel passes; they do not share
//! row fetches.
//!
//! Under TTFS coding a neuron fires at most once, so a layer's whole
//! output is one time step per neuron, and that is how the engine holds
//! it: a fire phase (input coding is one, with no bias) is a single
//! contiguous pass over the membrane matrix that writes a dense **step
//! plane** — a `u16` per cell, `window + 1` meaning "never" — and a
//! per-lane histogram of the steps. The step comes from the [`FireTable`]:
//! the membrane's f32 bit pattern indexes a small table, then at most a
//! step or two down a threshold list derived from `encode` itself at
//! compile time. The layer statistics fall out of the histogram without
//! touching a spike. Max-pooling runs on the plane (the earliest step of
//! a window wins, an element-wise `min` over contiguous rows), and only
//! what a weighted or average-pooling stage actually consumes is turned
//! into a wheel, by one counting sort over the plane.
//!
//! Every inner loop is a contiguous sweep. A conv stage's lane slice is
//! **channel-last** (`[oy·ow + ox][oc]`, see [`crate::csr`]), so a row is a
//! handful of runs `cells[..n] += w[..n] · psp` over two slices — one run
//! per kernel row at stride 1. An interior pixel of a 3×3 stride-1 conv
//! with `OC ∈ {4, 8, 16, 32, 64}` follows the layer's full pattern, and
//! the stage's const-generic kernel adds it as three fixed-width
//! `[f64; 3·OC] += [f32; 3·OC] · psp` blocks with no loop over a
//! remainder and no run table; border pixels, other widths and other
//! kernels take the run loop. The workspace builds for x86-64-v3
//! (`.cargo/config.toml`), so one AVX2 op widens, multiplies and adds four
//! f64 cells; rustc never fuses the multiply and add into an FMA, so a
//! baseline (SSE2, two cells per op) build computes the same bits. A
//! quantised stage stores packed log codes and decodes them through its
//! layer's LUT once per chunk into a scratch f32 array, then integrates
//! through the very same code.
//!
//! Bit-exactness is preserved by construction. Per accumulator cell
//! `(lane, target)`, additions land in exactly the reference backend's
//! order: the walk is ascending `(t, neuron)` per lane — the order the
//! counting sort emits, because it walks neurons in ascending index and is
//! stable (and [`BatchWheel::seal`]'s stable sort keeps per-lane
//! duplicates in emission order) — and within one row every edge hits a
//! distinct cell, so neither the channel-last layout (which moves a cell's
//! *address*, and reorders edges only inside a row) nor the fixed-width
//! blocks ever swap two additions to the same cell; a decoded code is the
//! f32 the reference multiplies by. The readout walks neurons in ascending
//! index order through the `[pos][oc]` map. Logits therefore match
//! [`snn_sim::EventSnn`] bit-for-bit for every chunk size, and the shared
//! event statistics are identical.
//!
//! The engine holds the converted [`SnnModel`] and its compiled tables
//! behind [`Arc`], so clones (one per worker, per shard, per server) share
//! one read-only copy of the weights. Per-run scratch (membrane matrix,
//! step planes, wheels, decoded weights) lives in an internal pool and is
//! reused across stages and calls instead of reallocated per layer.

use std::sync::{Arc, Mutex};

use snn_sim::{phase, RunStats};
use snn_tensor::Tensor;
use ttfs_core::{Base2Kernel, ConvertError, SnnModel, TtfsKernel};

use crate::csr::{axis_class, ConvPatterns, CsrModel, CsrStage, CsrSynapses, SynapseTable};
use crate::wheel::{BatchWheel, LaneSpike};
use crate::InferenceBackend;

/// Default number of sample lanes integrated together per chunk — the
/// batcher's default `max_batch`, so a formed batch runs as one chunk (and
/// a quantised stage is decoded once per batch). Lanes share the compiled
/// tables, that decode and the per-stage passes, but each spike fetches
/// its own row: the benchmark's `engine.f32.lane_speedup` (8 lanes vs 1,
/// VGG-16/w16, x86-64-v3 build on a 2-vCPU guest) read 0.94, 0.80, 0.90
/// and 1.00 on four 2 s trace runs — no gain from lanes. Explicit
/// [`CsrEngine::with_max_lanes`] may set any width; every width is
/// bit-identical.
pub const DEFAULT_MAX_LANES: usize = 8;

/// Mantissa bits that, with the exponent, pick a [`FireTable`] bucket: 32
/// buckets per binade.
const BUCKET_BITS: u32 = 5;
const BUCKET_SHIFT: u32 = f32::MANTISSA_DIGITS - 1 - BUCKET_BITS;

/// [`Base2Kernel::encode`] and `decode` as tables, built once per compiled
/// model. `encode` is monotone in `u`, so it is fully described by the
/// `window + 1` thresholds `min{u : encode(u) ≤ k}`, found by bisection on
/// f32 bit patterns through `encode` itself. Positive f32s order like
/// their bit patterns, so the top bits of a membrane — its bucket — bound
/// its step from above by the step of the bucket's lower edge; a bucket is
/// 1/32 of a binade and a step `1/τ` of one, so for the kernels in use at
/// most one threshold falls inside a bucket and [`step`](Self::step) is a
/// table load and one or two compares, with no branch on the membrane's
/// sign (half of all membranes are negative, in no pattern). It returns
/// exactly what `encode` does, for every f32.
#[derive(Debug, Clone)]
pub struct FireTable {
    /// `th[k + 1] = min{u : encode(u) ≤ k}`; `th[0]` is NaN, which no
    /// membrane reaches, so a walk down the thresholds stops by itself.
    th: Vec<f32>,
    psp: Vec<f32>,
    /// Bucket of the last threshold, the first one `bucket` covers.
    first_bucket: i32,
    /// `bucket[i + 1]`: the step of the lower edge of the `i`-th bucket
    /// from `first_bucket`, up to the bucket of the first threshold.
    /// `bucket[0]` ("never") stands for everything below, the last entry
    /// (step 0) for everything above.
    bucket: Vec<u16>,
    /// Whether a later step always decodes to a smaller value (false once
    /// late values underflow to equal f32s).
    strictly_decreasing: bool,
}

impl FireTable {
    /// `window` must leave room for the "never" step in a `u16`
    /// ([`CsrModel::compile`] checks).
    pub(crate) fn new(kernel: &Base2Kernel, window: u32) -> Self {
        let fires_by = |bits: u32, k: u32| {
            kernel
                .encode(f32::from_bits(bits), window)
                .is_some_and(|t| t <= k)
        };
        let thresholds = (0..=window).map(|k| {
            // Positive f32s order like their bit patterns; +0.0 never
            // fires, +inf fires at step 0.
            let (mut lo, mut hi) = (0u32, f32::INFINITY.to_bits());
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if fires_by(mid, k) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            f32::from_bits(hi)
        });
        let th: Vec<f32> = std::iter::once(f32::NAN).chain(thresholds).collect();
        let never = window as u16 + 1;
        let bucket_of = |u: f32| (u.to_bits() >> BUCKET_SHIFT) as i32;
        let first_bucket = bucket_of(th[never as usize]);
        let edges = (first_bucket..=bucket_of(th[1])).map(|b| {
            let edge = f32::from_bits((b as u32) << BUCKET_SHIFT);
            th[1..].partition_point(|&th| th > edge) as u16
        });
        let bucket = std::iter::once(never).chain(edges).chain([0]).collect();
        let psp: Vec<f32> = (0..=window).map(|t| kernel.decode(t)).collect();
        Self {
            th,
            first_bucket,
            bucket,
            strictly_decreasing: psp.windows(2).all(|w| w[0] > w[1]),
            psp,
        }
    }

    /// The fire window `T`.
    fn window(&self) -> u32 {
        (self.psp.len() - 1) as u32
    }

    /// The step that stands for "never fires": `window + 1`.
    fn never(&self) -> u16 {
        self.psp.len() as u16
    }

    /// Distinct values a step takes, "never" included: the length of one
    /// lane's histogram.
    fn slots(&self) -> usize {
        self.th.len()
    }

    /// `kernel.encode(u, window)`, with [`never`](Self::never) for `None`:
    /// the first step whose threshold `u` reaches (NaN and non-positive
    /// `u` reach none).
    #[inline]
    pub(crate) fn step(&self, u: f32) -> u16 {
        // As integers negative floats are negative, and NaNs lie above
        // +inf: both belong below every bucket.
        let bits = u.to_bits() as i32;
        let bits = if bits > f32::INFINITY.to_bits() as i32 {
            -1
        } else {
            bits
        };
        let above = self.bucket.len() as i32 - 1;
        let i = ((bits >> BUCKET_SHIFT) - self.first_bucket + 1).clamp(0, above);
        let mut t = self.bucket[i as usize] as usize;
        while u >= self.th[t] {
            t -= 1;
        }
        t as u16
    }

    /// `kernel.decode(t)`.
    #[inline]
    fn decode(&self, t: u32) -> f32 {
        self.psp[t as usize]
    }

    /// A fire phase over one contiguous run of membranes: each cell's step
    /// into `steps`, counted in `hist`.
    #[inline]
    fn fire_row(&self, membranes: impl Iterator<Item = f32>, steps: &mut [u16], hist: &mut [u32]) {
        for (step, u) in steps.iter_mut().zip(membranes) {
            *step = self.step(u);
            hist[*step as usize] += 1;
        }
    }
}

/// Sets `v` to `len` copies of `value`, growing capacity to exactly
/// `len`: a plain `resize` doubles past it as batches grow lane by lane.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.reserve_exact(len);
    v.resize(len, value);
}

/// One layer boundary's spikes held densely: a time step per cell.
#[derive(Debug, Default)]
struct StepPlane {
    /// `[lanes, channels · plane]` fire steps, `window + 1` where the cell
    /// never fired. Cell `p · channels + c` of a lane is neuron `c · plane
    /// + p` (a dense layer, and the input, is `plane = 1`).
    steps: Vec<u16>,
    /// The cells' pooling scales, maintained only while `scaled` (fire
    /// phases emit scale 1).
    scales: Vec<f32>,
    scaled: bool,
    /// `[lanes, window + 2]`: how many of a lane's cells hold each step.
    hist: Vec<u32>,
    channels: usize,
    plane: usize,
}

impl StepPlane {
    /// Lays the plane out for `lanes × channels · plane` unscaled cells
    /// that have not fired, with a zeroed histogram.
    fn reset(&mut self, lanes: usize, channels: usize, plane: usize, fire: &FireTable) {
        refill(&mut self.steps, lanes * channels * plane, fire.never());
        refill(&mut self.hist, lanes * fire.slots(), 0);
        self.scaled = false;
        self.channels = channels;
        self.plane = plane;
    }

    /// Cells that fired, all lanes together.
    fn fired(&self, fire: &FireTable) -> usize {
        let silent = self.hist.iter().skip(fire.never().into());
        self.steps.len() - silent.step_by(fire.slots()).sum::<u32>() as usize
    }

    /// Counting-sorts the plane into `wheel`.
    fn to_wheel(&self, wheel: &mut BatchWheel, lanes: usize, fire: &FireTable) {
        wheel.fill_from_plane(
            fire.window(),
            lanes,
            &self.steps,
            self.scaled.then_some(&self.scales[..]),
            &self.hist,
            self.channels,
            self.plane,
        );
    }

    /// The opposite direction, for a `[c, h, w]` pooling input that
    /// arrives as a wheel: a neuron's last spike in canonical order stands
    /// for it (one pass over the slots), step and scale.
    fn scatter_from(
        &mut self,
        wheel: &BatchWheel,
        lanes: usize,
        c: usize,
        hw: usize,
        fire: &FireTable,
    ) {
        self.reset(lanes, c, hw, fire);
        self.scaled = true;
        refill(&mut self.scales, self.steps.len(), 0.0);
        for t in 0..=fire.window() {
            for s in wheel.slot(t) {
                let n = s.neuron as usize;
                let cell = s.lane as usize * c * hw + n % hw * c + n / hw;
                self.steps[cell] = t as u16;
                self.scales[cell] = s.scale;
            }
        }
    }
}

/// Where the spikes entering the next stage are.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Spikes {
    /// Dense, in [`Scratch::plane_in`].
    Plane,
    /// Sealed in [`Scratch::wheel_in`].
    Wheel,
}

/// Reusable per-run buffers: the membrane matrix, a quantised stage's
/// decoded weights, the two ping-pong step planes and the two ping-pong
/// batch wheels. Pooled on the engine so repeat calls skip every per-layer
/// allocation.
#[derive(Debug, Default)]
struct Scratch {
    /// `[lanes, out_neurons]` f64 membrane accumulator.
    acc: Membranes,
    /// The current stage's packed codes, decoded (quantized stages only).
    weights: Vec<f32>,
    /// The current stage's bias per output channel.
    channel_bias: Vec<f32>,
    /// Spikes entering the current stage, when dense.
    plane_in: StepPlane,
    /// Output of the current max-pool stage.
    plane_out: StepPlane,
    /// Spikes entering the current stage, when queued.
    wheel_in: BatchWheel,
    /// Output of the current average-pool stage.
    wheel_out: BatchWheel,
}

/// A mutex-guarded stack of [`Scratch`] buffers: a run pops a buffer (or
/// starts fresh), and returns it when done, so back-to-back calls skip
/// the per-layer allocations.
#[derive(Debug, Default)]
struct ScratchPool(Mutex<Vec<Scratch>>);

impl ScratchPool {
    /// Pops a pooled buffer, or starts fresh. The flag says which — a
    /// fresh take on a warm server means the pool ran dry and this run
    /// pays the allocations (surfaced as the `scratch` trace attribute).
    fn take(&self) -> (Scratch, bool) {
        match self.0.lock().expect("scratch pool poisoned").pop() {
            Some(scratch) => (scratch, true),
            None => (Scratch::default(), false),
        }
    }

    fn put(&self, scratch: Scratch) {
        self.0.lock().expect("scratch pool poisoned").push(scratch);
    }
}

/// The compiled tables an [`Engine`] runs: the f32 [`CsrModel`] or the
/// packed-code [`crate::QuantCsrModel`]. Both are one stage list over the
/// same payload-free synapse tables; they differ only in the payload array
/// beside each table and in how a weighted stage turns it into f32
/// weights. Sealed: the trait is not exported, so the two payloads are the
/// only implementations.
pub trait Compiled: Send + Sync + 'static {
    /// Engine-side choice of decode datapath (`()` when there is none).
    type Mode: Copy + std::fmt::Debug + Send + Sync;
    /// [`InferenceBackend::name`] of an engine over these tables.
    const NAME: &'static str;

    /// The compiled stages, in execution order.
    fn stages(&self) -> &[CsrStage];
    /// The model kernel's fire table.
    fn fire(&self) -> &FireTable;
    /// Per-sample input dims the tables were compiled for.
    fn input_dims(&self) -> &[usize];
    /// Total traversed synapses across weighted stages (flat-equivalent).
    fn total_edges(&self) -> usize;
    /// Weighted stage `layer`'s f32 weights under `mode`, slot for slot:
    /// the stored array, or the stored codes decoded into `buf`.
    fn layer_weights<'a>(
        &'a self,
        layer: usize,
        mode: Self::Mode,
        buf: &'a mut Vec<f32>,
    ) -> &'a [f32];
}

impl Compiled for CsrModel {
    type Mode = ();
    const NAME: &'static str = "csr";

    fn stages(&self) -> &[CsrStage] {
        &self.stages
    }

    fn fire(&self) -> &FireTable {
        &self.fire
    }

    fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    fn total_edges(&self) -> usize {
        self.total_edges
    }

    /// The f32 path multiplies the stored weights as they are.
    fn layer_weights<'a>(&'a self, layer: usize, _mode: (), _buf: &'a mut Vec<f32>) -> &'a [f32] {
        &self.weights[layer]
    }
}

/// Batched CSR + time-wheel executor for a converted [`SnnModel`], over
/// either payload: [`CsrEngine`] (f32 weights) or [`crate::QuantEngine`]
/// (packed log codes). Both run one integrate-and-fire walk; only how a
/// weighted stage resolves its payload to f32 weights differs.
pub struct Engine<C: Compiled> {
    pub(crate) model: Arc<SnnModel>,
    pub(crate) compiled: Arc<C>,
    pub(crate) mode: C::Mode,
    max_lanes: usize,
    scratch: ScratchPool,
}

/// The f32 engine: stored weights are multiplied as they are.
pub type CsrEngine = Engine<CsrModel>;

impl<C: Compiled> std::fmt::Debug for Engine<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("backend", &C::NAME)
            .field("input_dims", &self.compiled.input_dims())
            .field("total_edges", &self.compiled.total_edges())
            .field("mode", &self.mode)
            .field("max_lanes", &self.max_lanes)
            .finish()
    }
}

impl<C: Compiled> Clone for Engine<C> {
    /// Cheap clone: the model and compiled tables are shared (`Arc`), only
    /// the scratch pool starts empty.
    fn clone(&self) -> Self {
        Self {
            model: Arc::clone(&self.model),
            compiled: Arc::clone(&self.compiled),
            mode: self.mode,
            max_lanes: self.max_lanes,
            scratch: ScratchPool::default(),
        }
    }
}

impl CsrEngine {
    /// Compiles `model` for per-sample input dims (`[C, H, W]`).
    ///
    /// Compilation walks the model once and materializes every weighted
    /// layer's synapses (pattern-deduplicated for conv, flat CSR for
    /// dense), so each later inference is a contiguous edge scan per
    /// spike. The model is cloned once into a shared [`Arc`]; use
    /// [`compile_shared`](Self::compile_shared) to avoid even that copy.
    ///
    /// # Example
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use snn_nn::{DenseLayer, Flatten, Layer, Sequential};
    /// use snn_runtime::{CsrEngine, InferenceBackend};
    /// use snn_tensor::Tensor;
    /// use ttfs_core::{convert, Base2Kernel};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    /// let net = Sequential::new(vec![
    ///     Layer::Flatten(Flatten::new()),
    ///     Layer::Dense(DenseLayer::new(9, 4, &mut rng)),
    /// ]);
    /// let model = convert(&net, Base2Kernel::paper_default(), 16)?;
    /// let engine = CsrEngine::compile(&model, &[1, 3, 3])?;
    /// assert_eq!(engine.total_edges(), 9 * 4); // dense 9→4, one edge per weight
    /// let (logits, stats) = engine.run_batch(&Tensor::full(&[2, 1, 3, 3], 0.5))?;
    /// assert_eq!(logits.dims(), &[2, 4]);
    /// assert_eq!(stats.batch, 2);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Structure`] if `input_dims` does not fit the
    /// model geometry.
    pub fn compile(model: &SnnModel, input_dims: &[usize]) -> Result<Self, ConvertError> {
        Self::compile_shared(Arc::new(model.clone()), input_dims)
    }

    /// Compiles an already-shared model without cloning it: the engine (and
    /// every clone of it) holds the same read-only `Arc<SnnModel>` the
    /// caller keeps — one copy of the weights no matter how many engines,
    /// workers or servers reference it.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use rand::SeedableRng;
    /// use snn_nn::{DenseLayer, Flatten, Layer, Sequential};
    /// use snn_runtime::CsrEngine;
    /// use ttfs_core::{convert, Base2Kernel};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    /// let net = Sequential::new(vec![
    ///     Layer::Flatten(Flatten::new()),
    ///     Layer::Dense(DenseLayer::new(9, 4, &mut rng)),
    /// ]);
    /// let model = Arc::new(convert(&net, Base2Kernel::paper_default(), 16)?);
    /// let engine = CsrEngine::compile_shared(Arc::clone(&model), &[1, 3, 3])?;
    /// // The engine shares the caller's copy rather than cloning it.
    /// assert!(Arc::ptr_eq(&model, &engine.model_shared()));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Structure`] if `input_dims` does not fit the
    /// model geometry.
    pub fn compile_shared(
        model: Arc<SnnModel>,
        input_dims: &[usize],
    ) -> Result<Self, ConvertError> {
        let compiled = CsrModel::compile(&model, input_dims)?;
        Ok(Self::new(model, compiled, ()))
    }
}

impl<C: Compiled> Engine<C> {
    /// An engine over freshly compiled tables, at the default chunk width.
    pub(crate) fn new(model: Arc<SnnModel>, compiled: C, mode: C::Mode) -> Self {
        Self {
            model,
            compiled: Arc::new(compiled),
            mode,
            max_lanes: DEFAULT_MAX_LANES,
            scratch: ScratchPool::default(),
        }
    }

    /// Sets the chunk width: how many samples are integrated together as
    /// lanes of one batched traversal (clamped to at least 1). Lane count 1
    /// degenerates to the classic sample-at-a-time walk; results are
    /// bit-identical for every setting.
    #[must_use]
    pub fn with_max_lanes(mut self, lanes: usize) -> Self {
        self.max_lanes = lanes.max(1);
        self
    }

    /// The chunk width (samples integrated together).
    pub fn max_lanes(&self) -> usize {
        self.max_lanes
    }

    /// The compiled tables.
    pub fn compiled(&self) -> &C {
        &self.compiled
    }

    /// The shared handle to the compiled tables.
    pub fn compiled_shared(&self) -> Arc<C> {
        Arc::clone(&self.compiled)
    }

    /// The shared handle to the converted model.
    pub fn model_shared(&self) -> Arc<SnnModel> {
        Arc::clone(&self.model)
    }

    /// Total traversed synapses across weighted layers (flat-equivalent).
    pub fn total_edges(&self) -> usize {
        self.compiled.total_edges()
    }
}

/// `[C, H, W]` of a pooling stage's input grid.
fn chw(in_dims: &[usize]) -> Result<(usize, usize, usize), ConvertError> {
    match *in_dims {
        [c, h, w] => Ok((c, h, w)),
        _ => Err(ConvertError::Structure(format!(
            "pooling expects [C, H, W] spikes, got {in_dims:?}"
        ))),
    }
}

/// Integrates one chunk of `lanes` samples (`data` is their
/// concatenated flat pixels) over the compiled stage list, appending
/// one logits row per lane to `rows`. A weighted stage's payload is
/// resolved by [`Compiled::layer_weights`] (the stored f32 weights, or the
/// packed codes through the layer's LUT); everything else — encode,
/// wheels, fire phases, pooling, statistics — is one code path for both
/// payloads, which is what keeps them bit-comparable.
fn run_chunk<C: Compiled>(
    engine: &Engine<C>,
    scratch: &mut Scratch,
    data: &[f32],
    lanes: usize,
    stats: &mut RunStats,
    rows: &mut Vec<f32>,
) -> Result<(), ConvertError> {
    let sample_len = data.len() / lanes;
    let (model, tables) = (&*engine.model, &*engine.compiled);
    let (stages, fire) = (tables.stages(), tables.fire());
    let window = fire.window();
    let weighted = model.weighted_layers();
    let Scratch {
        acc,
        weights,
        channel_bias,
        plane_in,
        plane_out,
        wheel_in,
        wheel_out,
    } = scratch;

    // Input coding: a fire phase over the pixels themselves, neuron `i` in
    // cell `i`.
    {
        let mut span = snn_trace::ctx_span("encode");
        plane_in.reset(lanes, sample_len, 1, fire);
        let lane_steps = plane_in.steps.chunks_exact_mut(sample_len);
        let lane_hist = plane_in.hist.chunks_exact_mut(fire.slots());
        for ((pixels, steps), hist) in data.chunks_exact(sample_len).zip(lane_steps).zip(lane_hist)
        {
            fire.fire_row(pixels.iter().copied(), steps, hist);
        }
        if span.is_recording() {
            span.attr("spikes", plane_in.fired(fire));
        }
    }
    let mut spikes = Spikes::Plane;

    let mut seen = 0usize;
    let mut produced = false;
    for stage in stages {
        let mut stage_span = snn_trace::ctx_span("stage.exec");
        if stage_span.is_recording() {
            stage_span.attr(
                "kind",
                match stage {
                    CsrStage::Weighted { .. } => "weighted",
                    CsrStage::MaxPool { .. } => "max_pool",
                    CsrStage::AvgPool { .. } => "avg_pool",
                    CsrStage::Flatten => "flatten",
                },
            );
            stage_span.attr(
                "in_spikes",
                match spikes {
                    Spikes::Plane => plane_in.fired(fire),
                    Spikes::Wheel => wheel_in.len(),
                },
            );
        }
        match stage {
            CsrStage::Weighted { syn, bias } => {
                if spikes == Spikes::Plane {
                    plane_in.to_wheel(wheel_in, lanes, fire);
                }
                let out_len = bias.len();
                let resolved = tables.layer_weights(seen, engine.mode, weights);
                acc.reset(lanes, out_len);
                // f64 accumulate -> one f32 rounding -> f32 bias add:
                // identical to the reference GEMM discipline, so the
                // fire-phase quantizer sees the same f32 membranes.
                let ops = match syn {
                    SynapseTable::Flat(cs) => integrate_dense(cs, resolved, wheel_in, fire, acc),
                    SynapseTable::Patterned(p) => integrate_conv(p, resolved, wheel_in, fire, acc),
                };

                let layer_stats = &mut stats.layers[seen];
                layer_stats.input_spikes += wheel_in.len();
                layer_stats.synaptic_ops += ops;
                layer_stats.neurons += out_len * lanes;
                seen += 1;
                if stage_span.is_recording() {
                    stage_span.attr("edges", ops);
                    stage_span.attr("neurons", out_len * lanes);
                }

                // Neuron `c·plane + p` lives in cell `p·channels + c` of
                // its lane's slice (the identity for dense stages).
                let (channels, plane) = match syn {
                    SynapseTable::Flat(_) => (out_len, 1),
                    SynapseTable::Patterned(p) => p.layout(),
                };
                if seen < weighted {
                    // Fire phase straight out of the membrane matrix
                    // (identical semantics to `phase::fire_phase`): one
                    // pass in cell order. A conv stage's bias is one value
                    // per channel, so in cell order it repeats every
                    // `channels` cells.
                    channel_bias.clear();
                    channel_bias.extend(bias.iter().step_by(plane));
                    plane_in.reset(lanes, channels, plane, fire);
                    let lane_steps = plane_in.steps.chunks_exact_mut(out_len);
                    let lane_hist = plane_in.hist.chunks_exact_mut(fire.slots());
                    for ((cells, steps), hist) in acc.lanes().zip(lane_steps).zip(lane_hist) {
                        let bias = channel_bias.iter().cycle();
                        let membranes = cells.iter().zip(bias).map(|(&u, &b)| u as f32 + b);
                        fire.fire_row(membranes, steps, hist);
                        let silent = hist[window as usize + 1] as usize;
                        let latest = hist[..=window as usize].iter().rposition(|&n| n > 0);
                        layer_stats.output_spikes += out_len - silent;
                        layer_stats.encoder_iterations += phase::encoder_iteration_count(
                            window,
                            latest.unwrap_or(0) as u32,
                            silent == 0,
                        );
                    }
                    if stage_span.is_recording() {
                        stage_span.attr("out_spikes", plane_in.fired(fire));
                    }
                    spikes = Spikes::Plane;
                } else {
                    // Readout: decode every lane's logits row.
                    for cells in acc.lanes() {
                        rows.extend(
                            (0..out_len)
                                .map(|o| cells[o % plane * channels + o / plane] as f32 + bias[o]),
                        );
                    }
                    produced = true;
                }
            }
            CsrStage::MaxPool {
                win,
                stride,
                in_dims,
            } => {
                // `phase::max_pool_spikes`, plane to plane. A fire phase
                // left the channel-last plane this needs; anything else
                // (average-pool output, the input itself) comes by way of
                // the wheel.
                let (c, h, w) = chw(in_dims)?;
                let laid_out = (plane_in.channels, plane_in.plane) == (c, h * w);
                if spikes == Spikes::Plane && !laid_out {
                    plane_in.to_wheel(wheel_in, lanes, fire);
                    spikes = Spikes::Wheel;
                }
                if spikes == Spikes::Wheel {
                    plane_in.scatter_from(wheel_in, lanes, c, h * w, fire);
                }
                max_pool(fire, plane_in, plane_out, lanes, (c, h, w), *win, *stride);
                std::mem::swap(plane_in, plane_out);
                spikes = Spikes::Plane;
            }
            CsrStage::AvgPool {
                win,
                stride,
                in_dims,
            } => {
                // `phase::avg_pool_spikes`, wheel to wheel: every spike is
                // re-emitted once per covering window with `scale / win²`;
                // each lane's pushes keep its canonical input order, which
                // seal()'s stable sorts preserve.
                if spikes == Spikes::Plane {
                    plane_in.to_wheel(wheel_in, lanes, fire);
                }
                let (_, h, w) = chw(in_dims)?;
                let (oh, ow) = ((h - win) / stride + 1, (w - win) / stride + 1);
                let norm = 1.0 / (win * win) as f32;
                wheel_out.reset(window, lanes);
                for t in 0..=window {
                    for s in wheel_in.slot(t) {
                        let n = s.neuron as usize;
                        let (ci, iy, ix) = (n / (h * w), n / w % h, n % w);
                        // The windows covering a pixel are its unpadded
                        // border class along each axis.
                        let (_, ny, oy0) = axis_class(iy, *win, *stride, 0, oh);
                        let (_, nx, ox0) = axis_class(ix, *win, *stride, 0, ow);
                        for oy in oy0 as usize..(oy0 + ny) as usize {
                            for ox in ox0 as usize..(ox0 + nx) as usize {
                                let o = (ci * oh + oy) * ow + ox;
                                wheel_out.push(t, s.lane, o as u32, s.scale * norm);
                            }
                        }
                    }
                }
                wheel_out.seal();
                std::mem::swap(wheel_in, wheel_out);
                spikes = Spikes::Wheel;
            }
            CsrStage::Flatten => {} // flat indices already
        }
    }
    if produced {
        Ok(())
    } else {
        Err(ConvertError::Structure("model produced no readout".into()))
    }
}

/// `phase::max_pool_spikes` over a channel-last `[h · w][c]` step plane:
/// in each window the spike with the largest decoded value `decode(t) ·
/// scale` wins, the window walked in `(ky, kx)` order with the reference's
/// strict `>` — ties keep the first. Unscaled spikes (a fire phase's)
/// under a strictly decreasing `decode` order by step alone, tied steps
/// are the same spike for all that follows, and "never" is the largest
/// step: the winner is then the element-wise `min` of the window's rows.
fn max_pool(
    fire: &FireTable,
    src: &StepPlane,
    dst: &mut StepPlane,
    lanes: usize,
    (c, h, w): (usize, usize, usize),
    win: usize,
    stride: usize,
) {
    let (oh, ow) = ((h - win) / stride + 1, (w - win) / stride + 1);
    let by_step = !src.scaled && fire.strictly_decreasing;
    dst.reset(lanes, c, oh * ow, fire);
    if !by_step {
        dst.scaled = true;
        refill(&mut dst.scales, dst.steps.len(), 0.0);
    }
    let (in_len, out_len) = (c * h * w, c * oh * ow);
    for (lane, hist) in dst.hist.chunks_exact_mut(fire.slots()).enumerate() {
        let src_at = lane * in_len;
        for oy in 0..oh {
            for ox in 0..ow {
                let dst_at = lane * out_len + (oy * ow + ox) * c;
                let out = &mut dst.steps[dst_at..dst_at + c];
                let rows = (0..win).flat_map(|ky| {
                    (0..win).map(move |kx| src_at + ((oy * stride + ky) * w + ox * stride + kx) * c)
                });
                if by_step {
                    for at in rows {
                        for (o, &t) in out.iter_mut().zip(&src.steps[at..at + c]) {
                            *o = (*o).min(t);
                        }
                    }
                } else {
                    for (ch, o) in out.iter_mut().enumerate() {
                        let mut best = f32::NEG_INFINITY;
                        for at in rows.clone() {
                            let t = src.steps[at + ch];
                            if t == fire.never() {
                                continue;
                            }
                            let scale = if src.scaled { src.scales[at + ch] } else { 1.0 };
                            let val = fire.decode(t.into()) * scale;
                            if val > best {
                                best = val;
                                *o = t;
                                dst.scales[dst_at + ch] = scale;
                            }
                        }
                    }
                }
                for &t in &*out {
                    hist[t as usize] += 1;
                }
            }
        }
    }
}

/// f64 cells per 64-byte cache line.
const LINE: usize = 8;

/// The `[lanes, out_len]` f64 membrane matrix of a weighted stage. It
/// starts on a 64-byte boundary and every lane's slice is padded to whole
/// cache lines, so every lane starts on a line and, where `OC` is a
/// multiple of 8, so does every tap's block of cells. The alignment is an
/// offset into a padded `Vec`, found without `unsafe`.
#[derive(Debug, Default)]
struct Membranes {
    buf: Vec<f64>,
    /// Index of lane 0's first cell: on a 64-byte boundary.
    start: usize,
    /// Cells from one lane's first cell to the next one's.
    stride: usize,
    /// Cells per lane.
    len: usize,
    lanes: usize,
}

impl Membranes {
    /// Zeroes `lanes` slices of `len` cells.
    fn reset(&mut self, lanes: usize, len: usize) {
        self.stride = len.next_multiple_of(LINE);
        refill(&mut self.buf, lanes * self.stride + LINE - 1, 0.0);
        // Vec<f64> is 8-byte aligned, so the line starts within 7 cells.
        self.start = self.buf.as_ptr().align_offset(LINE * 8).min(LINE - 1);
        self.len = len;
        self.lanes = lanes;
    }

    /// Every lane's cells, lane by lane.
    fn lanes(&self) -> impl Iterator<Item = &[f64]> {
        let all = &self.buf[self.start..self.start + self.lanes * self.stride];
        all.chunks_exact(self.stride).map(|lane| &lane[..self.len])
    }

    /// One spike's view of the integration: its f64 post-synaptic
    /// potential (computed in f32 as `decode(t) · scale` then widened,
    /// like the reference) and its lane's cells.
    #[inline]
    fn spike_cells(&mut self, s: &LaneSpike, psp_t: f32) -> (f64, &mut [f64]) {
        let psp = psp_t * s.scale;
        let at = self.start + s.lane as usize * self.stride;
        (psp as f64, &mut self.buf[at..at + self.len])
    }
}

/// Integrates a dense stage: every sealed spike, slot after slot in stored
/// order, streams its row of `weights` into its lane's cells. Returns the
/// synaptic ops.
#[inline(never)]
fn integrate_dense(
    cs: &CsrSynapses,
    weights: &[f32],
    wheel: &BatchWheel,
    fire: &FireTable,
    acc: &mut Membranes,
) -> usize {
    let mut ops = 0usize;
    for t in 0..=fire.window() {
        let psp_t = fire.decode(t);
        for s in wheel.slot(t) {
            // A dense row's targets are `0..len` in order.
            let row = &weights[cs.slots(s.neuron)];
            let (psp, cells) = acc.spike_cells(s, psp_t);
            add_run(&mut cells[..row.len()], row, psp);
            ops += row.len();
        }
    }
    ops
}

/// Integrates a conv stage. A 3×3 stride-1 kernel over `OC ∈ {4, 8, 16,
/// 32, 64}` output channels adds its full pattern with the fixed-width
/// kernel for `N = 3·OC`; everything else takes the run loop alone.
fn integrate_conv(
    p: &ConvPatterns,
    weights: &[f32],
    wheel: &BatchWheel,
    fire: &FireTable,
    acc: &mut Membranes,
) -> usize {
    let full = p.full_pattern().filter(|&(_, k, _)| k == 3);
    match full.map(|_| p.layout().0) {
        Some(4) => conv_spikes::<12>(p, weights, wheel, fire, acc),
        Some(8) => conv_spikes::<24>(p, weights, wheel, fire, acc),
        Some(16) => conv_spikes::<48>(p, weights, wheel, fire, acc),
        Some(32) => conv_spikes::<96>(p, weights, wheel, fire, acc),
        Some(64) => conv_spikes::<192>(p, weights, wheel, fire, acc),
        _ => conv_spikes::<0>(p, weights, wheel, fire, acc),
    }
}

/// Every sealed spike of a conv stage, slot after slot in stored order,
/// one at a time: its row record gives its cells and channel slice; a row
/// on the full 3×3 pattern adds three `N`-wide blocks (`N = 3·OC`, `0`
/// when the stage has no such kernel), any other walks its pattern's runs.
/// Returns the synaptic ops.
#[inline(never)]
fn conv_spikes<const N: usize>(
    p: &ConvPatterns,
    weights: &[f32],
    wheel: &BatchWheel,
    fire: &FireTable,
    acc: &mut Membranes,
) -> usize {
    let (full, row_cells) = match p.full_pattern() {
        Some((full, _, row_cells)) if N > 0 => (full, row_cells),
        _ => (u32::MAX, 0),
    };
    let rows = p.rows();
    let mut ops = 0usize;
    for t in 0..=fire.window() {
        let psp_t = fire.decode(t);
        for s in wheel.slot(t) {
            let row = rows[s.neuron as usize];
            let (psp, cells) = acc.spike_cells(s, psp_t);
            let cells = &mut cells[row.t_base as usize..];
            let weights = &weights[row.w_base as usize..];
            if N > 0 && row.pattern == full {
                // Kernel row r feeds output row 2 − r.
                add_block::<N>(&mut cells[2 * row_cells..], weights, psp);
                add_block::<N>(&mut cells[row_cells..], &weights[N..], psp);
                add_block::<N>(cells, &weights[2 * N..], psp);
                ops += 3 * N;
            } else {
                for run in p.runs_of(row.pattern) {
                    let (t0, w0, n) = (run.t0 as usize, run.w0 as usize, run.len as usize);
                    add_run(&mut cells[t0..t0 + n], &weights[w0..w0 + n], psp);
                }
                ops += p.pattern(row.pattern).degree as usize;
            }
        }
    }
    ops
}

/// `cells[i] += weights[i] · psp` for the first `N = 3·OC` cells, with
/// no loop over a remainder. LLVM vectorises a plain loop sixteen cells
/// per iteration (four AVX2 ops), so a block that is a multiple of 16
/// (OC ≥ 16) takes the plain loop; a smaller one (OC 4 and 8) is written
/// as four-cell adds, which LLVM unrolls into straight-line code.
#[inline(always)]
fn add_block<const N: usize>(cells: &mut [f64], weights: &[f32], psp: f64) {
    let cells = cells.first_chunk_mut::<N>().expect("block within the lane");
    let weights = weights.first_chunk::<N>().expect("block within the slice");
    if N.is_multiple_of(16) {
        for (c, &w) in cells.iter_mut().zip(weights) {
            *c += w as f64 * psp;
        }
    } else {
        let (cells, _) = cells.as_chunks_mut::<4>();
        let (weights, _) = weights.as_chunks::<4>();
        for (c, w) in cells.iter_mut().zip(weights) {
            *c = [
                c[0] + w[0] as f64 * psp,
                c[1] + w[1] as f64 * psp,
                c[2] + w[2] as f64 * psp,
                c[3] + w[3] as f64 * psp,
            ];
        }
    }
}

/// `cells[i] += weights[i] · psp` over one contiguous run — the inner
/// loop of integration for every run the fixed-width kernel does not
/// take, for stored f32 weights and decoded codes alike. Lanes own
/// disjoint slices and a row's edges hit distinct cells, so per-cell
/// accumulation order equals the spike order, matching the reference
/// backend.
#[inline]
fn add_run(cells: &mut [f64], weights: &[f32], psp: f64) {
    for (c, &w) in cells.iter_mut().zip(weights) {
        *c += w as f64 * psp;
    }
}

impl<C: Compiled> InferenceBackend for Engine<C> {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn model(&self) -> &SnnModel {
        &self.model
    }

    fn input_dims(&self) -> &[usize] {
        self.compiled.input_dims()
    }

    /// Splits the batch into `max_lanes`-wide chunks, each integrated as
    /// one batched walk on a pooled scratch buffer.
    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        let input_dims = self.compiled.input_dims();
        let dims = images.dims();
        if dims.len() < 2 {
            return Err(ConvertError::Structure(format!(
                "expected batched input, got {:?}",
                dims
            )));
        }
        if dims[1..] != input_dims[..] {
            return Err(ConvertError::Structure(format!(
                "batch sample dims {:?} do not match compiled dims {:?}",
                &dims[1..],
                input_dims
            )));
        }
        let n = dims[0];
        let sample_len: usize = input_dims.iter().product();
        let mut stats = phase::new_run_stats(&self.model, n);
        let mut rows = Vec::new();
        let mut begin = 0usize;
        while begin < n {
            let lanes = self.max_lanes.min(n - begin);
            let data = &images.as_slice()[begin * sample_len..(begin + lanes) * sample_len];
            let (mut scratch, reused) = self.scratch.take();
            let mut span = snn_trace::ctx_span("csr.chunk");
            span.attr("lanes", lanes);
            span.attr("scratch", if reused { "reused" } else { "fresh" });
            let result = run_chunk(self, &mut scratch, data, lanes, &mut stats, &mut rows);
            self.scratch.put(scratch);
            drop(span);
            result?;
            begin += lanes;
        }
        let classes = rows.len() / n.max(1);
        let logits = Tensor::from_vec(rows, &[n, classes])
            .map_err(|e| ConvertError::Structure(e.to_string()))?;
        Ok((logits, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snn_nn::{
        ActivationLayer, AvgPool2dLayer, Conv2dLayer, DenseLayer, Flatten, Layer, MaxPool2dLayer,
        Relu, Sequential,
    };
    use snn_sim::EventSnn;
    use snn_tensor::Conv2dSpec;
    use ttfs_core::{convert, Base2Kernel};

    fn cnn_model(seed: u64) -> SnnModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Sequential::new(vec![
            Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(1, 4, 3, 1, 1), &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(4 * 4 * 4, 5, &mut rng)),
        ]);
        convert(&net, Base2Kernel::paper_default(), 24).unwrap()
    }

    /// The table lookup must be `kernel.encode`, not an approximation of
    /// it: every f32 within 2^16 ulps of each of the `T + 1` thresholds
    /// and of each bucket edge (where a wrong table entry would show), a
    /// million seeded membranes in `(0, θ₀]`, a million seeded bit patterns
    /// and the special values all agree — for the paper's kernel, an
    /// off-grid one, and one whose late steps underflow to equal
    /// thresholds and equal decoded values.
    #[test]
    fn fire_table_equals_kernel_encode() {
        for (kernel, window, strict) in [
            (Base2Kernel::paper_default(), 24u32, true),
            (Base2Kernel::new(3.0, 0.8), 41, true),
            (Base2Kernel::new(1.0, 1.0), 160, false),
        ] {
            let table = FireTable::new(&kernel, window);
            assert_eq!(table.th.len(), window as usize + 2);
            assert_eq!(table.window(), window);
            assert_eq!(u32::from(table.never()), window + 1);
            assert_eq!(table.strictly_decreasing, strict, "{kernel:?}");
            let check = |u: f32| {
                assert_eq!(
                    u32::from(table.step(u)),
                    kernel.encode(u, window).unwrap_or(window + 1),
                    "u = {u:e} ({:#010x}), {kernel:?}, T = {window}",
                    u.to_bits()
                );
            };
            let around = |centre: u32| {
                for bits in centre.saturating_sub(1 << 16)..=centre + (1 << 16) {
                    check(f32::from_bits(bits));
                }
            };
            for (k, th) in table.th[1..].iter().enumerate() {
                assert_eq!(table.decode(k as u32), kernel.decode(k as u32));
                around(th.to_bits());
            }
            // The table's entries, and the hand-over to its two ends.
            for i in 0..table.bucket.len() as i32 {
                around(((table.first_bucket + i) as u32) << BUCKET_SHIFT);
            }
            let mut rng = StdRng::seed_from_u64(0xF1DE);
            for _ in 0..1_000_000 {
                check(kernel.theta0() * (1.0 - rng.gen::<f32>()));
                check(f32::from_bits(rng.gen::<u32>()));
            }
            let theta0 = kernel.theta0();
            for u in [
                0.0,
                -0.0,
                -1.0,
                f32::MIN_POSITIVE,
                -f32::MIN_POSITIVE,
                f32::from_bits(1),
                f32::from_bits(0x007f_ffff),
                theta0,
                f32::from_bits(theta0.to_bits() - 1),
                f32::from_bits(theta0.to_bits() + 1),
                f32::MAX,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                -f32::NAN,
            ] {
                check(u);
            }
        }
    }

    #[test]
    fn matches_event_backend_bit_for_bit() {
        let model = cnn_model(11);
        let mut rng = StdRng::seed_from_u64(99);
        let x = snn_tensor::uniform(&[3, 1, 8, 8], 0.0, 1.0, &mut rng);
        let event = EventSnn::new(&model);
        let csr = CsrEngine::compile(&model, &[1, 8, 8]).unwrap();
        let (a, sa) = event.run(&x).unwrap();
        let (b, sb) = csr.run_batch(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "same accumulation order");
        assert_eq!(sa, sb, "identical event statistics");
    }

    #[test]
    fn every_chunk_width_is_bit_identical() {
        // The whole point of the batched path: lane count is a pure
        // performance knob. Logits AND event statistics must be invariant.
        let model = cnn_model(17);
        let mut rng = StdRng::seed_from_u64(101);
        let x = snn_tensor::uniform(&[7, 1, 8, 8], 0.0, 1.0, &mut rng);
        let (expect_logits, expect_stats) = EventSnn::new(&model).run(&x).unwrap();
        for lanes in [1usize, 2, 3, 5, 7, 16] {
            let csr = CsrEngine::compile(&model, &[1, 8, 8])
                .unwrap()
                .with_max_lanes(lanes);
            assert_eq!(csr.max_lanes(), lanes);
            let (logits, stats) = csr.run_batch(&x).unwrap();
            assert_eq!(
                logits.as_slice(),
                expect_logits.as_slice(),
                "chunk width {lanes}"
            );
            assert_eq!(stats, expect_stats, "chunk width {lanes}");
        }
    }

    #[test]
    fn scratch_pool_reuse_is_deterministic() {
        // Back-to-back runs on one engine reuse pooled scratch buffers;
        // results must not depend on buffer history.
        let model = cnn_model(18);
        let mut rng = StdRng::seed_from_u64(102);
        let csr = CsrEngine::compile(&model, &[1, 8, 8]).unwrap();
        let x1 = snn_tensor::uniform(&[5, 1, 8, 8], 0.0, 1.0, &mut rng);
        let x2 = snn_tensor::uniform(&[2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let first = csr.run_batch(&x1).unwrap().0;
        let _ = csr.run_batch(&x2).unwrap();
        let again = csr.run_batch(&x1).unwrap().0;
        assert_eq!(first.as_slice(), again.as_slice());
    }

    #[test]
    fn clone_shares_model_and_compiled() {
        let model = Arc::new(cnn_model(19));
        let csr = CsrEngine::compile_shared(Arc::clone(&model), &[1, 8, 8]).unwrap();
        // Wire-visible: `/v1/stats` reports it as a server's `backend` label.
        assert_eq!(csr.name(), "csr");
        let dup = csr.clone();
        assert!(Arc::ptr_eq(&csr.model_shared(), &dup.model_shared()));
        assert!(Arc::ptr_eq(&csr.compiled_shared(), &dup.compiled_shared()));
        assert!(Arc::ptr_eq(&model, &csr.model_shared()));
        let mut rng = StdRng::seed_from_u64(103);
        let x = snn_tensor::uniform(&[2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let (a, _) = csr.run_batch(&x).unwrap();
        let (b, _) = dup.run_batch(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn zeroed_weights_stay_bit_identical_to_event() {
        // Exact-zero weights are *retained* by both compilers (conv
        // patterns and dense rows): `+= 0·psp` is bit-neutral on the
        // accumulator, and the reference backend charges synaptic ops for
        // every surviving tap regardless of weight value — so both logits
        // AND RunStats must still match for pruned models.
        let mut model = cnn_model(16);
        let ttfs_core::SnnLayer::Conv { weight, .. } = &mut model.layers_mut()[0] else {
            panic!("layer 0 is conv");
        };
        let wd = weight.as_mut_slice();
        wd[0] = 0.0;
        wd[5] = 0.0;
        wd[17] = 0.0;
        let ttfs_core::SnnLayer::Dense { weight, .. } = &mut model.layers_mut()[3] else {
            panic!("layer 3 is dense");
        };
        let wd = weight.as_mut_slice();
        wd[3] = 0.0;
        wd[40] = 0.0;
        let mut rng = StdRng::seed_from_u64(104);
        let x = snn_tensor::uniform(&[3, 1, 8, 8], 0.0, 1.0, &mut rng);
        let (a, sa) = EventSnn::new(&model).run(&x).unwrap();
        let csr = CsrEngine::compile(&model, &[1, 8, 8]).unwrap();
        let (b, sb) = csr.run_batch(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(sa, sb, "synaptic ops must count zero-weight taps too");
    }

    #[test]
    fn matches_reference_forward() {
        let model = cnn_model(12);
        let mut rng = StdRng::seed_from_u64(100);
        let x = snn_tensor::uniform(&[4, 1, 8, 8], 0.0, 1.0, &mut rng);
        let csr = CsrEngine::compile(&model, &[1, 8, 8]).unwrap();
        let (logits, _) = csr.run_batch(&x).unwrap();
        let reference = model.reference_forward(&x).unwrap();
        assert!(logits.allclose(&reference, 1e-4 * (1.0 + reference.abs_max())));
    }

    #[test]
    fn avg_pool_path_matches_event() {
        let mut rng = StdRng::seed_from_u64(13);
        let net = Sequential::new(vec![
            Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(2, 3, 3, 1, 1), &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::AvgPool2d(AvgPool2dLayer::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(3 * 3 * 3, 4, &mut rng)),
        ]);
        let model = convert(&net, Base2Kernel::paper_default(), 24).unwrap();
        let x = snn_tensor::uniform(&[2, 2, 6, 6], 0.0, 1.0, &mut rng);
        let event = EventSnn::new(&model);
        let csr = CsrEngine::compile(&model, &[2, 6, 6]).unwrap();
        let (a, _) = event.run(&x).unwrap();
        let (b, _) = csr.run_batch(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    /// A kernel whose late decoded values underflow to equal f32s takes
    /// max-pooling off the `min`-of-steps shortcut; comparing decoded
    /// values must still be the reference's pooling.
    #[test]
    fn max_pool_compares_values_when_decode_is_not_strictly_decreasing() {
        let mut rng = StdRng::seed_from_u64(21);
        let net = Sequential::new(vec![
            Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(1, 4, 3, 1, 1), &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(4 * 4 * 4, 5, &mut rng)),
        ]);
        let model = convert(&net, Base2Kernel::new(1.0, 1.0), 160).unwrap();
        let x = snn_tensor::uniform(&[5, 1, 8, 8], 0.0, 1.0, &mut rng);
        let (want, want_stats) = EventSnn::new(&model).run(&x).unwrap();
        assert!(
            want_stats.layers[1].input_spikes > 0,
            "spikes reach the readout"
        );
        let csr = CsrEngine::compile(&model, &[1, 8, 8]).unwrap();
        assert!(!csr.compiled().fire.strictly_decreasing);
        for lanes in [1usize, 3, 8] {
            let (logits, stats) = csr.clone().with_max_lanes(lanes).run_batch(&x).unwrap();
            assert_eq!(logits.as_slice(), want.as_slice(), "{lanes} lanes");
            assert_eq!(stats, want_stats, "{lanes} lanes");
        }
    }

    #[test]
    fn zero_input_yields_bias_logits() {
        let model = cnn_model(14);
        let csr = CsrEngine::compile(&model, &[1, 8, 8]).unwrap();
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        let (logits, stats) = csr.run_batch(&x).unwrap();
        assert_eq!(stats.layers[0].input_spikes, 0);
        let reference = model.reference_forward(&x).unwrap();
        assert!(logits.allclose(&reference, 1e-4));
    }

    #[test]
    fn rejects_mismatched_batch_dims() {
        let model = cnn_model(15);
        let csr = CsrEngine::compile(&model, &[1, 8, 8]).unwrap();
        let x = Tensor::zeros(&[1, 1, 6, 6]);
        assert!(csr.run_batch(&x).is_err());
        let flat = Tensor::zeros(&[4]);
        assert!(csr.run_batch(&flat).is_err());
    }
}
