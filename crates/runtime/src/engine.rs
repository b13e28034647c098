//! The CSR fast-path inference engine.
//!
//! [`CsrEngine`] executes the same integrate/fire physics as
//! [`snn_sim::EventSnn`] but over the compiled [`CsrModel`], and it does so
//! **edge-major over a chunk of samples**: instead of walking one sample's
//! spikes at a time (which streams every CSR row from memory once per
//! sample), the engine lines the chunk's samples up as lanes of a
//! [`BatchWheel`], walks time slots in ascending order, groups equal
//! neurons across lanes within a slot, and streams each synapse row **once
//! per group** while scattering into a `[lanes, out_neurons]` f64 membrane
//! matrix (each lane owns a contiguous membrane slice). Weight traffic is
//! amortized across the whole chunk — the software analogue of the paper's
//! weight-buffered PE clusters.
//!
//! Every inner loop is a contiguous sweep. A conv stage's lane slice is
//! **channel-last** (`[oy·ow + ox][oc]`, see [`crate::csr`]), so a row is a
//! handful of runs `cells[..n] += w[..n] · psp` over two slices — one run
//! per kernel row at stride 1 — which rustc vectorises at the SSE2
//! baseline. Packed log codes skip the multiply as the paper's PE does:
//! `prod[code] = lut[code] · psp` is tabulated once per distinct `psp`
//! (once per time slot unless pooling scales differ) and an edge is one
//! byte load, one table load, one add. The fire phase replaces
//! `encode`'s per-membrane `log2` with a search of the [`FireTable`]
//! thresholds derived from `encode` itself at compile time, and pooling
//! stages go wheel to wheel.
//!
//! Bit-exactness is preserved by construction. Per accumulator cell
//! `(lane, target)`, additions land in exactly the reference backend's
//! order: the outer loop is ascending `(t, neuron)` — the canonical order
//! every spike source emits (and [`BatchWheel::seal`]'s stable sort keeps
//! per-lane duplicates in emission order) — and within one row every edge
//! hits a distinct cell, so neither the edge-major interchange nor the
//! channel-last layout (which moves a cell's *address*, and reorders edges
//! only inside a row) ever swaps two additions to the same cell; each
//! table entry is the very f64 product the per-edge code computed. The
//! fire phase and the readout walk neurons in ascending index order
//! through the `[pos][oc]` map. Logits therefore match
//! [`snn_sim::EventSnn`] bit-for-bit for every chunk size, and the shared
//! event statistics are identical.
//!
//! The engine holds the converted [`SnnModel`] and compiled [`CsrModel`]
//! behind [`Arc`], so clones (one per worker, per shard, per server) share
//! one read-only copy of the weights. Per-run scratch (membrane matrix,
//! wheels, product table, pooling grid) lives in an internal pool and is
//! reused across stages and calls instead of reallocated per layer.

use std::sync::{Arc, Mutex};

use snn_sim::{phase, RunStats};
use snn_tensor::Tensor;
use ttfs_core::{Base2Kernel, ConvertError, SnnModel, TtfsKernel};

use crate::csr::{axis_class, CsrModel, CsrStage, SynapseTable};
use crate::wheel::{BatchWheel, LaneSpike};
use crate::InferenceBackend;

/// Upper bound on the default number of sample lanes integrated together
/// per chunk (explicit [`CsrEngine::with_max_lanes`] may exceed it).
pub const DEFAULT_MAX_LANES: usize = 32;

/// Cache budget for the `[lanes, out_neurons]` f64 membrane matrix used to
/// pick the default lane count: enough lanes to amortize row fetches
/// across the chunk, but never so many that the accumulator spills out of
/// L2 (the time-major walk revisits the whole matrix once per time slot,
/// while deduplication keeps the synapse table cache-resident). What the
/// lanes buy is small: with the channel-last layout the benchmark's
/// `engine.f32.lane_speedup` (8 lanes vs 1, VGG-16/w16) reads 1.06 (three
/// `--trace 1` runs: 1.33, 1.06, 1.06; it read 0.87–0.96 with the strided
/// layout this budget was tuned for). The budget itself has not been
/// re-tuned; ROADMAP item 2(b) decides whether the lane heuristics stay.
pub const ACC_BYTES_BUDGET: usize = 256 * 1024;

/// Default chunk width for a compiled stage list: the most lanes whose
/// membrane matrix for the widest weighted layer stays within
/// [`ACC_BYTES_BUDGET`], clamped to `1..=`[`DEFAULT_MAX_LANES`].
pub(crate) fn default_lanes<W>(stages: &[CsrStage<W>]) -> usize {
    let widest = stages
        .iter()
        .filter_map(|s| match s {
            CsrStage::Weighted { bias, .. } => Some(bias.len()),
            _ => None,
        })
        .max()
        .unwrap_or(1)
        .max(1);
    (ACC_BYTES_BUDGET / (widest * std::mem::size_of::<f64>())).clamp(1, DEFAULT_MAX_LANES)
}

/// One stored edge payload inside the integration loop. `f32` multiplies
/// (the full-precision path); packed log codes (`u8`) look their product
/// up in the [`ProdTable`] built from the layer's decode LUT, carried as
/// the decode context — no multiplier per edge, the paper's PE shape.
pub(crate) trait EdgeWeight: Copy + Send + Sync + 'static {
    /// Per-weighted-stage decode context (e.g. the layer's code LUT).
    type Ctx<'a>: Copy;

    /// Readies `table` for a spike of post-synaptic potential `psp`.
    fn prepare(ctx: Self::Ctx<'_>, psp: f32, table: &mut ProdTable);

    /// This edge's addend `weight · psp` (`table` prepared for `psp`).
    fn term(self, psp: f64, table: &ProdTable) -> f64;
}

impl EdgeWeight for f32 {
    type Ctx<'a> = ();

    #[inline(always)]
    fn prepare(_ctx: (), _psp: f32, _table: &mut ProdTable) {}

    #[inline(always)]
    fn term(self, psp: f64, _table: &ProdTable) -> f64 {
        self as f64 * psp
    }
}

/// The spike-time × log-code product table: `prod[code] = lut[code] · psp`
/// for the `psp` whose bits are `key`. 256 entries, so a `u8` code indexes
/// it unchecked.
#[derive(Debug)]
pub(crate) struct ProdTable {
    pub(crate) key: Option<u32>,
    pub(crate) prod: [f64; 256],
}

impl Default for ProdTable {
    fn default() -> Self {
        Self {
            key: None,
            prod: [0.0; 256],
        }
    }
}

/// [`Base2Kernel::encode`] and `decode` as tables, built once per compiled
/// model. `encode` is monotone in `u`, so it is fully described by the
/// `window + 1` thresholds `th[k] = min{u : encode(u) ≤ k}`, found by
/// bisection on f32 bit patterns through `encode` itself — the search
/// returns exactly what `encode` does, for every f32.
#[derive(Debug, Clone)]
pub(crate) struct FireTable {
    th: Vec<f32>,
    psp: Vec<f32>,
}

impl FireTable {
    pub(crate) fn new(kernel: &Base2Kernel, window: u32) -> Self {
        let fires_by = |bits: u32, k: u32| {
            kernel
                .encode(f32::from_bits(bits), window)
                .is_some_and(|t| t <= k)
        };
        let th = (0..=window)
            .map(|k| {
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
            })
            .collect();
        Self {
            th,
            psp: (0..=window).map(|t| kernel.decode(t)).collect(),
        }
    }

    /// The fire window `T`.
    fn window(&self) -> u32 {
        (self.psp.len() - 1) as u32
    }

    /// `kernel.encode(u, window)`: the first step whose threshold `u`
    /// reaches (NaN and non-positive `u` reach none).
    #[inline]
    pub(crate) fn encode(&self, u: f32) -> Option<u32> {
        if u >= self.th[self.th.len() - 1] {
            Some(self.th.partition_point(|&th| th > u) as u32)
        } else {
            None
        }
    }

    /// `kernel.decode(t)`.
    #[inline]
    fn decode(&self, t: u32) -> f32 {
        self.psp[t as usize]
    }
}

/// A max-pool input as seen by the output walk: the decoded value of the
/// last spike of one `(neuron, lane)`, or `-inf` when it never fired.
#[derive(Debug, Clone, Copy)]
struct PoolCell {
    val: f32,
    t: u32,
    scale: f32,
}

const NO_SPIKE: PoolCell = PoolCell {
    val: f32::NEG_INFINITY,
    t: 0,
    scale: 0.0,
};

/// Reusable per-run buffers: the membrane matrix, the per-lane fire-phase
/// trackers, the product table, the max-pool grid and the two ping-pong
/// batch wheels. Pooled on the engine so repeat calls skip every per-layer
/// allocation.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// `[lanes, out_neurons]` f64 membrane accumulator.
    acc: Vec<f64>,
    /// Per-lane latest spike time of the current fire phase.
    latest: Vec<u32>,
    /// Per-lane "every membrane fired" flag of the current fire phase.
    all_fired: Vec<bool>,
    /// Code products for the current `psp` (quantized stages only).
    prod: ProdTable,
    /// `[in_neurons, lanes]` grid of the current max-pool stage.
    pool: Vec<PoolCell>,
    /// Spikes entering the current stage.
    wheel_in: BatchWheel,
    /// Spikes produced by the current stage's fire phase / pooling.
    wheel_out: BatchWheel,
}

/// A mutex-guarded stack of [`Scratch`] buffers, shared by every engine
/// kind: a run pops a buffer (or starts fresh), and returns it when done,
/// so back-to-back calls skip the per-layer allocations.
#[derive(Debug, Default)]
pub(crate) struct ScratchPool(Mutex<Vec<Scratch>>);

impl ScratchPool {
    /// Pops a pooled buffer, or starts fresh. The flag says which — a
    /// fresh take on a warm server means the pool ran dry and this run
    /// pays the allocations (surfaced as the `scratch` trace attribute).
    pub(crate) fn take(&self) -> (Scratch, bool) {
        match self.0.lock().expect("scratch pool poisoned").pop() {
            Some(scratch) => (scratch, true),
            None => (Scratch::default(), false),
        }
    }

    pub(crate) fn put(&self, scratch: Scratch) {
        self.0.lock().expect("scratch pool poisoned").push(scratch);
    }
}

/// Batched edge-major CSR + time-wheel executor for a converted
/// [`SnnModel`].
pub struct CsrEngine {
    model: Arc<SnnModel>,
    compiled: Arc<CsrModel>,
    max_lanes: usize,
    scratch: ScratchPool,
}

impl std::fmt::Debug for CsrEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrEngine")
            .field("input_dims", &self.compiled.input_dims)
            .field("total_edges", &self.compiled.total_edges)
            .field("max_lanes", &self.max_lanes)
            .finish()
    }
}

impl Clone for CsrEngine {
    /// Cheap clone: the model and compiled CSR are shared (`Arc`), only the
    /// scratch pool starts empty.
    fn clone(&self) -> Self {
        Self {
            model: Arc::clone(&self.model),
            compiled: Arc::clone(&self.compiled),
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
    /// dense), so each later inference is a contiguous edge scan per spike
    /// group. The model is cloned once into a shared [`Arc`]; use
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
        let compiled = Arc::new(CsrModel::compile(&model, input_dims)?);
        let max_lanes = default_lanes(&compiled.stages);
        Ok(Self {
            model,
            compiled,
            max_lanes,
            scratch: ScratchPool::default(),
        })
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

    /// The compiled CSR representation.
    pub fn compiled(&self) -> &CsrModel {
        &self.compiled
    }

    /// The shared handle to the compiled CSR representation.
    pub fn compiled_shared(&self) -> Arc<CsrModel> {
        Arc::clone(&self.compiled)
    }

    /// The shared handle to the converted model.
    pub fn model_shared(&self) -> Arc<SnnModel> {
        Arc::clone(&self.model)
    }

    /// Total traversed synapses across weighted layers (flat-equivalent).
    pub fn total_edges(&self) -> usize {
        self.compiled.total_edges
    }

    /// Integrates `lanes` samples (`data` is their concatenated flat
    /// pixels) as one edge-major chunk, appending one logits row per lane.
    fn run_chunk(
        &self,
        data: &[f32],
        lanes: usize,
        sample_len: usize,
        stats: &mut RunStats,
        rows: &mut Vec<f32>,
    ) -> Result<(), ConvertError> {
        let (mut scratch, reused) = self.scratch.take();
        let mut span = snn_trace::ctx_span("csr.chunk");
        span.attr("lanes", lanes);
        span.attr("scratch", if reused { "reused" } else { "fresh" });
        let result = run_chunk_stages(
            &self.model,
            &self.compiled.stages,
            &self.compiled.fire,
            |_| (), // the f32 path multiplies in place: unit decode contexts
            &mut scratch,
            data,
            lanes,
            sample_len,
            stats,
            rows,
        );
        self.scratch.put(scratch);
        result
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

/// Integrates one chunk of `lanes` samples edge-major over a compiled
/// stage list — the shared inner loop of [`CsrEngine`] and
/// [`crate::QuantEngine`]. `ctx_of(i)` is the [`EdgeWeight`] decode
/// context of weighted stage `i` (unit for f32 weights, the layer's code
/// LUT for packed log codes); everything else — encode, slot grouping,
/// fire phases, pooling, statistics — is identical between the two
/// serving modes, which is what keeps them bit-comparable. Appends one
/// logits row per lane to `rows`.
#[allow(clippy::too_many_arguments)] // one call site per engine, flat by design
pub(crate) fn run_chunk_stages<'a, W: EdgeWeight>(
    model: &SnnModel,
    stages: &'a [CsrStage<W>],
    fire: &FireTable,
    ctx_of: impl Fn(usize) -> W::Ctx<'a>,
    scratch: &mut Scratch,
    data: &[f32],
    lanes: usize,
    sample_len: usize,
    stats: &mut RunStats,
    rows: &mut Vec<f32>,
) -> Result<(), ConvertError> {
    let window = fire.window();
    let weighted = model.weighted_layers();
    let Scratch {
        acc,
        latest,
        all_fired,
        prod,
        pool,
        wheel_in,
        wheel_out,
    } = scratch;

    // Input coding, neuron-major with lanes inner: every slot comes out
    // grouped by neuron with each lane's spikes in canonical ascending
    // order, so seal() reduces to its O(n) already-sorted check.
    {
        let mut span = snn_trace::ctx_span("encode");
        wheel_in.reset(window, lanes);
        for i in 0..sample_len {
            for lane in 0..lanes {
                if let Some(t) = fire.encode(data[lane * sample_len + i]) {
                    wheel_in.push(t, lane as u32, i as u32, 1.0);
                }
            }
        }
        wheel_in.seal();
        span.attr("spikes", wheel_in.len());
    }

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
            stage_span.attr("in_spikes", wheel_in.len());
        }
        match stage {
            CsrStage::Weighted { syn, bias } => {
                let out_len = bias.len();
                let ctx = ctx_of(seen);
                prod.key = None; // a new stage's LUT: no product carries over
                acc.clear();
                acc.resize(out_len * lanes, 0.0);
                let mut ops = 0usize;
                // Edge-major integration: ascending time slots, equal
                // neurons grouped across lanes, one row fetch per
                // group. f64 accumulate -> one f32 rounding -> f32
                // bias add: identical to the reference GEMM
                // discipline, so the fire-phase quantizer sees the
                // same f32 membranes.
                for t in 0..=window {
                    let slot = wheel_in.slot(t);
                    let psp_t = fire.decode(t);
                    let mut i = 0usize;
                    while i < slot.len() {
                        let neuron = slot[i].neuron;
                        let mut end = i + 1;
                        while end < slot.len() && slot[end].neuron == neuron {
                            end += 1;
                        }
                        let group = &slot[i..end];
                        let degree = match syn {
                            SynapseTable::Flat(cs) => {
                                let (cols, weights) = cs.row_slices(neuron);
                                for s in group {
                                    let (psp, cells) =
                                        lane_cells::<W>(s, psp_t, ctx, prod, acc, out_len);
                                    if cs.full_rows() {
                                        add_run(&mut cells[..weights.len()], weights, psp, prod);
                                    } else {
                                        for (c, w) in cols.iter().zip(weights) {
                                            cells[*c as usize] += w.term(psp, prod);
                                        }
                                    }
                                }
                                cols.len()
                            }
                            SynapseTable::Patterned(p) => {
                                let row = p.row_slices(neuron);
                                let runs = row.t_start.iter().zip(row.w_start).zip(row.run_len);
                                for s in group {
                                    let (psp, cells) =
                                        lane_cells::<W>(s, psp_t, ctx, prod, acc, out_len);
                                    let cells = &mut cells[row.t_base as usize..];
                                    for ((&t0, &w0), &n) in runs.clone() {
                                        let (t0, w0, n) = (t0 as usize, w0 as usize, n as usize);
                                        let weights = &row.channel_weights[w0..w0 + n];
                                        add_run(&mut cells[t0..t0 + n], weights, psp, prod);
                                    }
                                }
                                row.degree
                            }
                        };
                        ops += degree * group.len();
                        i = end;
                    }
                }

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
                    // (identical semantics to `phase::fire_phase`,
                    // minus the sort the wheel makes unnecessary).
                    // Neuron-major with lanes inner, so the produced
                    // slots are pre-grouped like the encode wheel's.
                    wheel_out.reset(window, lanes);
                    latest.clear();
                    latest.resize(lanes, 0);
                    all_fired.clear();
                    all_fired.resize(lanes, true);
                    for c in 0..channels {
                        for p in 0..plane {
                            let o = c * plane + p;
                            let b = bias[o];
                            for lane in 0..lanes {
                                let u = acc[lane * out_len + p * channels + c] as f32 + b;
                                match fire.encode(u) {
                                    Some(t) => {
                                        latest[lane] = latest[lane].max(t);
                                        wheel_out.push(t, lane as u32, o as u32, 1.0);
                                    }
                                    None => all_fired[lane] = false,
                                }
                            }
                        }
                    }
                    layer_stats.output_spikes += wheel_out.len();
                    for lane in 0..lanes {
                        layer_stats.encoder_iterations +=
                            phase::encoder_iteration_count(window, latest[lane], all_fired[lane]);
                    }
                    if stage_span.is_recording() {
                        stage_span.attr("out_spikes", wheel_out.len());
                    }
                    wheel_out.seal();
                    std::mem::swap(wheel_in, wheel_out);
                } else {
                    // Readout: decode every lane's logits row.
                    for cells in acc.chunks_exact(out_len) {
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
                // `phase::max_pool_spikes`, wheel to wheel: a neuron's
                // last spike in canonical order stands for it (one pass
                // over the slots), then outputs are walked neuron-major,
                // lanes inner, the window in (ky, kx) order with the
                // reference's strict `>` — ties keep the first.
                let (c, h, w) = chw(in_dims)?;
                let (oh, ow) = ((h - win) / stride + 1, (w - win) / stride + 1);
                pool.clear();
                pool.resize(c * h * w * lanes, NO_SPIKE);
                for t in 0..=window {
                    for s in wheel_in.slot(t) {
                        pool[s.neuron as usize * lanes + s.lane as usize] = PoolCell {
                            val: fire.decode(t) * s.scale,
                            t,
                            scale: s.scale,
                        };
                    }
                }
                wheel_out.reset(window, lanes);
                for o in 0..c * oh * ow {
                    let (ci, oy, ox) = (o / (oh * ow), o / ow % oh, o % ow);
                    for lane in 0..lanes {
                        let mut best = NO_SPIKE;
                        for iy in oy * stride..oy * stride + win {
                            for ix in ox * stride..ox * stride + win {
                                let cell = pool[((ci * h + iy) * w + ix) * lanes + lane];
                                if cell.val > best.val {
                                    best = cell;
                                }
                            }
                        }
                        if best.val > NO_SPIKE.val {
                            wheel_out.push(best.t, lane as u32, o as u32, best.scale);
                        }
                    }
                }
                wheel_out.seal();
                std::mem::swap(wheel_in, wheel_out);
            }
            CsrStage::AvgPool {
                win,
                stride,
                in_dims,
            } => {
                // `phase::avg_pool_spikes`, wheel to wheel: every spike is
                // re-emitted once per covering window with `scale / win²`;
                // each lane's pushes keep its canonical input order, which
                // seal()'s stable sort by neuron preserves.
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

/// One spike's view of the integration: its f64 post-synaptic potential
/// (computed in f32 as `decode(t) · scale` then widened, like the
/// reference) with `prod` readied for it, and its lane's membrane slice.
#[inline]
fn lane_cells<'m, W: EdgeWeight>(
    s: &LaneSpike,
    psp_t: f32,
    ctx: W::Ctx<'_>,
    prod: &mut ProdTable,
    acc: &'m mut [f64],
    out_len: usize,
) -> (f64, &'m mut [f64]) {
    let psp = psp_t * s.scale;
    W::prepare(ctx, psp, prod);
    (psp as f64, &mut acc[s.lane as usize * out_len..][..out_len])
}

/// `cells[i] += weights[i] · psp` over one contiguous run — the whole
/// inner loop of integration. Lanes own disjoint slices and a row's edges
/// hit distinct cells, so per-cell accumulation order equals the spike
/// order, matching the reference backend.
#[inline]
fn add_run<W: EdgeWeight>(cells: &mut [f64], weights: &[W], psp: f64, prod: &ProdTable) {
    for (c, w) in cells.iter_mut().zip(weights) {
        *c += w.term(psp, prod);
    }
}

/// Splits a `[N, …]` batch into `max_lanes`-wide chunks and drives `chunk`
/// over each — the shared [`crate::InferenceBackend::run_batch`] shell of
/// [`CsrEngine`] and [`crate::QuantEngine`] (dims validation, stats
/// allocation, logits reassembly).
pub(crate) fn run_batch_chunked(
    model: &SnnModel,
    input_dims: &[usize],
    max_lanes: usize,
    images: &Tensor,
    mut chunk: impl FnMut(
        &[f32],
        usize,
        usize,
        &mut RunStats,
        &mut Vec<f32>,
    ) -> Result<(), ConvertError>,
) -> Result<(Tensor, RunStats), ConvertError> {
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
    let mut stats = phase::new_run_stats(model, n);
    let mut rows = Vec::new();
    let mut begin = 0usize;
    while begin < n {
        let lanes = max_lanes.min(n - begin);
        let data = &images.as_slice()[begin * sample_len..(begin + lanes) * sample_len];
        chunk(data, lanes, sample_len, &mut stats, &mut rows)?;
        begin += lanes;
    }
    let classes = rows.len() / n.max(1);
    let logits = Tensor::from_vec(rows, &[n, classes])
        .map_err(|e| ConvertError::Structure(e.to_string()))?;
    Ok((logits, stats))
}

impl InferenceBackend for CsrEngine {
    fn name(&self) -> &'static str {
        "csr"
    }

    fn model(&self) -> &SnnModel {
        &self.model
    }

    fn input_dims(&self) -> Option<&[usize]> {
        Some(&self.compiled.input_dims)
    }

    fn run_batch(&self, images: &Tensor) -> Result<(Tensor, RunStats), ConvertError> {
        run_batch_chunked(
            &self.model,
            &self.compiled.input_dims,
            self.max_lanes,
            images,
            |data, lanes, sample_len, stats, rows| {
                self.run_chunk(data, lanes, sample_len, stats, rows)
            },
        )
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

    /// The threshold search must be `kernel.encode`, not an approximation
    /// of it: every f32 around each of the `T + 1` boundaries, a million
    /// seeded membranes in `(0, θ₀]`, a million seeded bit patterns and
    /// the special values all agree.
    #[test]
    fn fire_table_equals_kernel_encode() {
        for (kernel, window) in [
            (Base2Kernel::paper_default(), 24u32),
            (Base2Kernel::new(3.0, 0.8), 41),
        ] {
            let table = FireTable::new(&kernel, window);
            assert_eq!(table.th.len(), window as usize + 1);
            assert_eq!(table.window(), window);
            let check = |u: f32| {
                assert_eq!(
                    table.encode(u),
                    kernel.encode(u, window),
                    "u = {u:e} ({:#010x}), {kernel:?}, T = {window}",
                    u.to_bits()
                );
            };
            for (k, th) in table.th.iter().enumerate() {
                assert_eq!(table.decode(k as u32), kernel.decode(k as u32));
                let centre = th.to_bits();
                for bits in centre.saturating_sub(1 << 16)..=centre + (1 << 16) {
                    check(f32::from_bits(bits));
                }
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
                f32::from_bits(1),
                theta0,
                f32::from_bits(theta0.to_bits() - 1),
                f32::from_bits(theta0.to_bits() + 1),
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
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
        let (a, sa) = event.run_batch(&x).unwrap();
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
        let (expect_logits, expect_stats) = EventSnn::new(&model).run_batch(&x).unwrap();
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
        let (a, sa) = EventSnn::new(&model).run_batch(&x).unwrap();
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
        let (a, _) = event.run_batch(&x).unwrap();
        let (b, _) = csr.run_batch(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
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
