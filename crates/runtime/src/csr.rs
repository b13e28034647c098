//! CSR compilation of a converted [`SnnModel`].
//!
//! The reference backend re-derives every spike's receptive field from conv
//! geometry on each integration step — branchy index arithmetic in the
//! innermost loop. Compilation walks the model once per deployment and
//! materializes, for every weighted layer, the **outgoing synapse list of
//! each input neuron** (`row_ptr` / `col` / `weight`): the integration
//! phase then reduces to one contiguous edge scan per spike. Exact-zero
//! weights are kept in both layer kinds — the reference backend charges
//! synaptic ops for every surviving tap regardless of weight value, so
//! dropping them would skew `RunStats` (and the energy model) for pruned
//! models, and a `+= 0·psp` is bit-neutral on the accumulator.
//!
//! Conv layers do **not** store one edge list per input pixel. A pixel's
//! outgoing synapse *structure* is fully determined by its spatial
//! *border class* — which kernel taps survive clipping against the padded
//! input boundary and the stride grid — and is the same for every input
//! channel; only the targets shift by a per-pixel base and the weights by
//! a per-channel base. The compiler therefore emits one canonical tap
//! pattern per border class plus one repacked copy of the layer's weights
//! ([`ConvPatterns`]), in three packed tables — a `(t_base, w_base,
//! pattern)` record per input row, a `(first_run, end_run, degree)`
//! record per pattern, a `(t0, w0, len)` record per run — cutting conv
//! CSR storage roughly `C·H·W`-fold (the shared weight-buffer idea of the
//! paper's PE clusters: one resident copy of the kernel weights serves
//! every spatial position). Dense layers keep the flat per-neuron CSR
//! ([`CsrSynapses`]); [`SynapseTable`] unifies the two behind one
//! row-oriented API.
//!
//! A conv stage's membranes are **channel-last**: cell `(oy·ow + ox)·OC +
//! oc` instead of the neuron index `(oc·oh + oy)·ow + ox`. One kernel tap
//! then covers `OC` adjacent cells, and at stride 1 the surviving x-taps
//! of a kernel row hit adjacent output columns, so the compiler merges
//! them into **one run per kernel row** of `countx·OC` contiguous cells,
//! with the weights repacked `[ci][ki][k−1−kj][oc]` to ascend in the same
//! direction (other strides keep one run per tap in the same table). The
//! integration loop is `cells[..n] += w[..n] · psp` over two slices, and
//! the layer's full (unclipped) pattern, marked at compile time, lets the
//! engine add an interior pixel with fixed-width blocks instead. Only
//! a cell's *address* moves: every edge of an input row still hits a
//! distinct cell, so reordering edges inside a row swaps no two additions
//! to one cell, and [`ConvPatterns::edges_of`] still yields the reference
//! `(neuron, weight)` sequence.
//!
//! Pooling and flatten layers stay event-domain operations (max pooling is
//! not linear, so it cannot be folded into synapse weights); the engine
//! runs max pooling on the dense step planes its fire phases write and
//! average pooling wheel to wheel, both with the semantics of the
//! `snn_sim::phase` primitives, which remain the oracle the equivalence
//! tests compare with.

use snn_tensor::Tensor;
use ttfs_core::{ConvertError, SnnLayer, SnnModel};

use crate::engine::FireTable;

/// Per-input-neuron adjacency of one weighted layer, in compressed sparse
/// row form (used for dense layers, where every row is genuinely unique).
///
/// Generic over the stored edge scalar `W`: `f32` for the full-precision
/// serving path, `u8` packed log codes for the quantized path
/// ([`crate::QuantCsrModel`]) — the structure (row pointers, targets,
/// traversal order) is identical either way, only the per-edge payload
/// width changes.
#[derive(Debug, Clone)]
pub struct CsrSynapses<W = f32> {
    /// `row_ptr[j]..row_ptr[j + 1]` indexes the edges of input neuron `j`.
    row_ptr: Vec<u32>,
    /// Target (output-neuron) index per edge.
    col: Vec<u32>,
    /// Synapse weight (or packed code) per edge.
    weight: Vec<W>,
    /// Every row's targets are exactly `0..degree` in order (true for a
    /// dense layer with no structural zeros): the integration loop can
    /// walk the weight slice directly and skip the per-edge target loads.
    full_rows: bool,
}

impl<W: Copy> CsrSynapses<W> {
    /// Number of input neurons (rows).
    pub fn in_neurons(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored (non-zero) synapses.
    pub fn edges(&self) -> usize {
        self.col.len()
    }

    /// The `(target, weight)` edge list of input neuron `j`.
    #[inline]
    pub fn edges_of(&self, j: u32) -> EdgeIter<'_, W> {
        let (col, weight) = self.row_slices(j);
        EdgeIter::Flat {
            col: col.iter(),
            weight: weight.iter(),
        }
    }

    /// Raw `(targets, weights)` slices of input neuron `j` for the batched
    /// scatter loop.
    #[inline]
    pub fn row_slices(&self, j: u32) -> (&[u32], &[W]) {
        self.row_slices_in(j, &self.weight)
    }

    /// [`row_slices`](Self::row_slices) with the weights taken from
    /// `weights`, an index-for-index image of [`weights`](Self::weights)
    /// (the decoded copy of a packed-code table).
    #[inline]
    pub(crate) fn row_slices_in<'a, V>(&'a self, j: u32, weights: &'a [V]) -> (&'a [u32], &'a [V]) {
        let lo = self.row_ptr[j as usize] as usize;
        let hi = self.row_ptr[j as usize + 1] as usize;
        (&self.col[lo..hi], &weights[lo..hi])
    }

    /// The whole per-edge weight (or packed code) array, row after row.
    pub(crate) fn weights(&self) -> &[W] {
        &self.weight
    }

    /// Edge count of input neuron `j`.
    #[inline]
    pub fn degree(&self, j: u32) -> usize {
        (self.row_ptr[j as usize + 1] - self.row_ptr[j as usize]) as usize
    }

    /// Bytes of backing storage.
    pub fn stored_bytes(&self) -> usize {
        self.row_ptr.len() * 4 + self.col.len() * 4 + self.weight_bytes()
    }

    /// Bytes of the per-edge weight (or packed code) array alone.
    pub fn weight_bytes(&self) -> usize {
        self.weight.len() * std::mem::size_of::<W>()
    }

    /// Whether every row's targets are exactly `0..degree` in order.
    pub fn full_rows(&self) -> bool {
        self.full_rows
    }

    fn from_rows(rows: Vec<Vec<(u32, W)>>) -> Self {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let total: usize = rows.iter().map(Vec::len).sum();
        let mut col = Vec::with_capacity(total);
        let mut weight = Vec::with_capacity(total);
        let mut full_rows = true;
        row_ptr.push(0u32);
        for row in rows {
            for (i, (c, w)) in row.into_iter().enumerate() {
                full_rows &= c as usize == i;
                col.push(c);
                weight.push(w);
            }
            row_ptr.push(col.len() as u32);
        }
        Self {
            row_ptr,
            col,
            weight,
            full_rows,
        }
    }
}

/// Pattern-deduplicated conv adjacency: one canonical tap pattern per
/// spatial **border class** — shared by every input channel — plus one
/// repacked copy of the layer's weights, held in three packed tables:
///
/// * one `(t_base, w_base, pattern)` record per input row (pixel ×
///   channel): where the row's cells start, where its channel slice of
///   the weights starts, and which pattern it follows;
/// * one `(first_run, end_run, degree)` record per pattern: its slice of
///   the run table and its edge count;
/// * one [`ConvRun`] `(t0, w0, len)` per run: `len` contiguous
///   channel-last cells from `t_base + t0`, multiplied by the weights from
///   `w_base + w0`.
///
/// At stride 1 a pattern has one run per surviving kernel row (`countx·OC`
/// cells, x-taps descending as cells ascend), otherwise one per surviving
/// tap (`OC` cells); the weights are repacked `[ci][ki][k−1−kj][oc]` (so
/// `w_base = ci·k²·OC`). Nothing in a run depends on the pixel or the
/// channel, so a layer needs only ≈ (per-axis border classes)² patterns of
/// ≤ `k²` runs each, and the weights are stored exactly once — while the
/// integration loop walks each run without loading any per-edge index.
///
/// At stride 1 the compiler also marks the layer's **full** pattern, the
/// one no border clips: `k` runs
/// of `k·OC` cells, run `r` reading weights `[r·k·OC, (r + 1)·k·OC)` of
/// the channel slice into output row `k − 1 − r`. Every interior pixel
/// follows it, so the engine adds it with fixed-width blocks and no run
/// table at all.
///
/// [`edges_of`](Self::edges_of) expands runs in the flat per-pixel
/// compiler's and the reference integration loop's order (ascending
/// kernel row, kernel column, then output channel) with neuron-index
/// targets. Structurally zero weights are **kept** (as in the dense
/// compiler): channels share one tap pattern, a `+= 0·psp` is
/// bit-neutral on the accumulator, and the reference backend charges
/// synaptic ops for every surviving tap regardless of weight value — so
/// retaining them keeps `RunStats` identical to `EventSnn` even for
/// models with exact-zero weights.
#[derive(Debug, Clone)]
pub struct ConvPatterns<W = f32> {
    /// One record per input row.
    rows: Vec<ConvRow>,
    /// One record per border-class pattern.
    patterns: Vec<ConvPattern>,
    /// Every pattern's runs, pattern after pattern.
    runs: Vec<ConvRun>,
    /// Output channels `OC` (cells per tap).
    oc: u32,
    /// Output plane `oh·ow` (neuron-index stride between channels).
    plane: u32,
    /// Kernel side `k`.
    kernel: u32,
    /// Cells per output row (`ow·OC`).
    row_cells: u32,
    /// The unclipped pattern at stride 1, if any pixel follows it.
    full: Option<u32>,
    /// Repacked weights (or packed codes) `[ci][ki][k−1−kj][oc]` — one
    /// copy per layer, read contiguously run by run within each channel
    /// slice.
    weight: Vec<W>,
    /// Weights per channel slice (`k²·OC`).
    ch_stride: usize,
    /// Total traversed (logical) edges: `Σ_rows degree(row)`.
    logical_edges: usize,
}

/// One input row of a [`ConvPatterns`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvRow {
    /// Base cell (`(oy₀·ow + ox₀)·OC`) the row's runs are relative to.
    pub(crate) t_base: u32,
    /// Base weight index (`ci·k²·OC`) of the row's channel slice.
    pub(crate) w_base: u32,
    /// The row's border-class pattern.
    pub(crate) pattern: u32,
}

/// One border-class pattern of a [`ConvPatterns`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvPattern {
    /// `first_run..end_run` indexes the pattern's runs.
    pub(crate) first_run: u32,
    pub(crate) end_run: u32,
    /// Edges per row (`Σ len` over the runs).
    pub(crate) degree: u32,
}

/// One run of a [`ConvPatterns`] pattern: cells `t_base + t0 + i` take
/// weights `w_base + w0 + i` for `i < len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvRun {
    /// First cell, relative to the row's `t_base`: `(dy·ow + dx)·OC`.
    pub t0: u32,
    /// First weight, relative to the row's `w_base`: `(ki·k + k−1−kj)·OC`.
    pub w0: u32,
    /// Cells in the run (`taps·OC`).
    pub len: u32,
}

impl<W: Copy> ConvPatterns<W> {
    /// Number of input neurons (rows).
    pub fn in_neurons(&self) -> usize {
        self.rows.len()
    }

    /// Number of canonical border-class patterns (channel-independent).
    pub fn patterns(&self) -> usize {
        self.patterns.len()
    }

    /// Physically stored edge-metadata records (runs, after
    /// deduplication).
    pub fn stored_edges(&self) -> usize {
        self.runs.len()
    }

    /// Logical edges: what a flat per-pixel CSR would store, and what the
    /// integration loop actually traverses.
    pub fn logical_edges(&self) -> usize {
        self.logical_edges
    }

    /// The `(target, weight)` edge list of input neuron `j` (absolute
    /// neuron-index targets; identical to the flat CSR row, with
    /// structural zeros retained).
    #[inline]
    pub fn edges_of(&self, j: u32) -> EdgeIter<'_, W> {
        EdgeIter::Runs {
            row: self.row_slices(j),
            run: 0,
            i: 0,
        }
    }

    /// The run view of input neuron `j`.
    #[inline]
    pub fn row_slices(&self, j: u32) -> PatternRow<'_, W> {
        let row = self.rows[j as usize];
        let wbase = row.w_base as usize;
        PatternRow {
            runs: self.runs_of(row.pattern),
            oc: self.oc,
            plane: self.plane,
            t_base: row.t_base,
            channel_weights: &self.weight[wbase..wbase + self.ch_stride],
            degree: self.patterns[row.pattern as usize].degree as usize,
        }
    }

    /// The whole repacked weight (or packed code) array.
    pub(crate) fn weights(&self) -> &[W] {
        &self.weight
    }

    /// One record per input row.
    #[inline]
    pub(crate) fn rows(&self) -> &[ConvRow] {
        &self.rows
    }

    /// Pattern `p`'s record.
    #[inline]
    pub(crate) fn pattern(&self, p: u32) -> ConvPattern {
        self.patterns[p as usize]
    }

    /// Pattern `p`'s runs.
    #[inline]
    pub(crate) fn runs_of(&self, p: u32) -> &[ConvRun] {
        let pat = self.pattern(p);
        &self.runs[pat.first_run as usize..pat.end_run as usize]
    }

    /// The unclipped stride-1 pattern's id, with the kernel side `k` and
    /// the cells per output row (`ow·OC`): run `r` of that pattern adds
    /// weights `[r·k·OC, (r + 1)·k·OC)` of a row's channel slice to the
    /// `k·OC` cells from `t_base + (k − 1 − r)·ow·OC`.
    pub(crate) fn full_pattern(&self) -> Option<(u32, usize, usize)> {
        let full = self.full?;
        Some((full, self.kernel as usize, self.row_cells as usize))
    }

    /// Edge count of input neuron `j`.
    #[inline]
    pub fn degree(&self, j: u32) -> usize {
        self.patterns[self.rows[j as usize].pattern as usize].degree as usize
    }

    /// `(OC, oh·ow)`: output neuron `oc·oh·ow + pos` lives in membrane
    /// cell `pos·OC + oc`.
    pub fn layout(&self) -> (usize, usize) {
        (self.oc as usize, self.plane as usize)
    }

    /// Bytes of backing storage (row, pattern and run tables, repacked
    /// weights).
    pub fn stored_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<ConvRow>()
            + self.patterns.len() * std::mem::size_of::<ConvPattern>()
            + self.runs.len() * std::mem::size_of::<ConvRun>()
            + self.weight_bytes()
    }

    /// Bytes of the repacked weight (or packed code) array alone.
    pub fn weight_bytes(&self) -> usize {
        self.weight.len() * std::mem::size_of::<W>()
    }

    /// Bytes a flat per-pixel CSR of the same layer would occupy.
    pub fn flat_bytes(&self) -> usize {
        (self.in_neurons() + 1) * 4 + self.logical_edges * 8
    }
}

/// One input pixel's view into a [`ConvPatterns`] table: the shared runs
/// plus the pixel's cell base and channel weight slice.
#[derive(Debug, Clone, Copy)]
pub struct PatternRow<'a, W = f32> {
    /// The pattern's runs.
    pub runs: &'a [ConvRun],
    /// Output channels (cells per tap).
    pub oc: u32,
    /// Output plane `oh·ow`.
    pub plane: u32,
    /// Added to every relative cell.
    pub t_base: u32,
    /// The row's channel slice of the repacked weight array.
    pub channel_weights: &'a [W],
    /// Total edges of the row (`Σ len`).
    pub degree: usize,
}

/// Iterator over the `(absolute_target, weight)` edges of one row of a
/// [`SynapseTable`].
#[derive(Debug)]
pub enum EdgeIter<'a, W = f32> {
    /// Flat CSR row: explicit target + weight per edge.
    Flat {
        /// Remaining targets.
        col: std::slice::Iter<'a, u32>,
        /// Remaining weights.
        weight: std::slice::Iter<'a, W>,
    },
    /// Pattern row: expand the runs on the fly, taps of a merged run
    /// from the last (lowest kernel column) to the first.
    Runs {
        /// The run view being expanded.
        row: PatternRow<'a, W>,
        /// Current run index.
        run: usize,
        /// Edges of the current run already yielded.
        i: u32,
    },
}

impl<W: Copy> Iterator for EdgeIter<'_, W> {
    type Item = (u32, W);

    #[inline]
    fn next(&mut self) -> Option<(u32, W)> {
        match self {
            Self::Flat { col, weight } => Some((*col.next()?, *weight.next()?)),
            Self::Runs { row, run, i } => loop {
                let r = *row.runs.get(*run)?;
                if *i < r.len {
                    let at = r.len - row.oc - *i / row.oc * row.oc + *i % row.oc;
                    let cell = r.t0 + row.t_base + at;
                    let t = cell % row.oc * row.plane + cell / row.oc;
                    let w = row.channel_weights[(r.w0 + at) as usize];
                    *i += 1;
                    return Some((t, w));
                }
                *run += 1;
                *i = 0;
            },
        }
    }
}

/// The synapse storage of one weighted stage: flat CSR for dense layers,
/// pattern-deduplicated for conv layers. Both expose the same row-oriented
/// view — `edges_of(j)` yields identical `(target, weight)` sequences either
/// way; only the memory footprint differs.
#[derive(Debug, Clone)]
pub enum SynapseTable<W = f32> {
    /// One explicit edge list per input neuron.
    Flat(CsrSynapses<W>),
    /// Shared per-(channel, border-class) patterns + per-pixel offsets.
    Patterned(ConvPatterns<W>),
}

impl<W: Copy> SynapseTable<W> {
    /// Number of input neurons (rows).
    pub fn in_neurons(&self) -> usize {
        match self {
            Self::Flat(s) => s.in_neurons(),
            Self::Patterned(p) => p.in_neurons(),
        }
    }

    /// Logical (traversed) edges across all rows.
    pub fn logical_edges(&self) -> usize {
        match self {
            Self::Flat(s) => s.edges(),
            Self::Patterned(p) => p.logical_edges(),
        }
    }

    /// Physically stored edges.
    pub fn stored_edges(&self) -> usize {
        match self {
            Self::Flat(s) => s.edges(),
            Self::Patterned(p) => p.stored_edges(),
        }
    }

    /// Bytes of backing storage.
    pub fn stored_bytes(&self) -> usize {
        match self {
            Self::Flat(s) => s.stored_bytes(),
            Self::Patterned(p) => p.stored_bytes(),
        }
    }

    /// Bytes of the stored weight (or packed code) array alone.
    pub fn weight_bytes(&self) -> usize {
        match self {
            Self::Flat(s) => s.weight_bytes(),
            Self::Patterned(p) => p.weight_bytes(),
        }
    }

    /// The stored weight (or packed code) array the rows index into.
    pub(crate) fn weights(&self) -> &[W] {
        match self {
            Self::Flat(s) => s.weights(),
            Self::Patterned(p) => p.weights(),
        }
    }

    /// The `(target, weight)` edge list of input neuron `j`.
    #[inline]
    pub fn edges_of(&self, j: u32) -> EdgeIter<'_, W> {
        match self {
            Self::Flat(s) => s.edges_of(j),
            Self::Patterned(p) => p.edges_of(j),
        }
    }

    /// Edge count of input neuron `j`.
    #[inline]
    pub fn degree(&self, j: u32) -> usize {
        match self {
            Self::Flat(s) => s.degree(j),
            Self::Patterned(p) => p.degree(j),
        }
    }
}

/// One compiled stage of the CSR pipeline.
// Weighted dominates the enum size, but stages are few (one per layer)
// and always heap-backed — boxing would only add an indirection to the
// hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum CsrStage<W = f32> {
    /// A weighted layer: synapse table + per-output bias, followed by a
    /// fire phase unless it is the readout. Integration accumulates in
    /// `f64` and rounds once to `f32` before the f32 bias add — the exact
    /// summation discipline of the reference GEMM, so membrane voltages
    /// (and therefore spike times) match `reference_forward` bit-for-bit.
    Weighted {
        /// Synapse adjacency (flat or pattern-deduplicated).
        syn: SynapseTable<W>,
        /// Per-output-neuron bias (broadcast over spatial positions for
        /// conv). Biases stay f32 in every serving mode: the hardware
        /// accumulates them post-LUT, outside the log-coded datapath.
        bias: Vec<f32>,
    },
    /// Event-domain max pooling (not linear — cannot be CSR-folded).
    MaxPool {
        /// Pool window.
        win: usize,
        /// Pool stride.
        stride: usize,
        /// Input grid dims `[C, H, W]`.
        in_dims: Vec<usize>,
    },
    /// Event-domain average pooling.
    AvgPool {
        /// Pool window.
        win: usize,
        /// Pool stride.
        stride: usize,
        /// Input grid dims `[C, H, W]`.
        in_dims: Vec<usize>,
    },
    /// Flatten: identity on flat neuron indices.
    Flatten,
}

/// Memory accounting of a compiled [`CsrModel`]: what the deduplicated
/// representation stores versus what a flat per-pixel CSR would.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CsrFootprint {
    /// Edges the integration loop traverses (== flat CSR edge count).
    pub logical_edges: usize,
    /// Edges physically materialized after pattern deduplication.
    pub stored_edges: usize,
    /// Bytes of all synapse storage (patterns, offsets, row maps).
    pub stored_bytes: usize,
    /// Bytes of the stored weight payloads alone — f32 weights on the
    /// full-precision path, packed log codes on the quantized path. This
    /// is the number the two serving modes are compared on: the index
    /// structure is shared, only the payload width shrinks.
    pub weight_bytes: usize,
    /// Bytes a fully flat (f32, per-pixel) CSR of the same model would
    /// occupy.
    pub flat_bytes: usize,
    /// Logical edges of conv (patterned) stages only.
    pub conv_logical_edges: usize,
    /// Stored edges of conv (patterned) stages only.
    pub conv_stored_edges: usize,
    /// Canonical `(channel, border-class)` patterns across conv stages.
    pub patterns: usize,
}

impl CsrFootprint {
    /// Conv edge-storage reduction factor achieved by deduplication
    /// (`conv_logical_edges / conv_stored_edges`; 1.0 when no conv stage).
    pub fn conv_dedup_ratio(&self) -> f64 {
        if self.conv_stored_edges == 0 {
            1.0
        } else {
            self.conv_logical_edges as f64 / self.conv_stored_edges as f64
        }
    }
}

/// The compiled model: stages in execution order, for one fixed input
/// geometry.
#[derive(Debug, Clone)]
pub struct CsrModel {
    /// Compiled stages.
    pub stages: Vec<CsrStage>,
    /// Per-sample input dims the model was compiled for.
    pub input_dims: Vec<usize>,
    /// Total traversed synapses across weighted stages (flat-equivalent
    /// edge count; the physically stored count is in [`CsrModel::footprint`]).
    pub total_edges: usize,
    /// The model kernel's fire thresholds and decode values over its
    /// window, tabulated once here so no inference derives them.
    pub(crate) fire: FireTable,
}

/// Flat CSR of a dense layer whose `[out_f, in_f]` row-major weights (or
/// packed codes) are `wd`.
fn compile_dense<W: Copy>(wd: &[W], out_f: usize, in_f: usize) -> CsrSynapses<W> {
    let mut rows: Vec<Vec<(u32, W)>> = vec![Vec::new(); in_f];
    // Row-major [out, in]: walk outputs outer so each row's edge list ends
    // up sorted by target. Exact-zero weights are kept, like the conv
    // compiler: the reference backend charges `out_f` synaptic ops per
    // spike regardless of weight value, so dropping them would skew
    // RunStats (and thus the energy model) for pruned models — and
    // retention makes every row full, enabling the index-free scatter.
    for o in 0..out_f {
        for (j, row) in rows.iter_mut().enumerate() {
            row.push((o as u32, wd[o * in_f + j]));
        }
    }
    CsrSynapses::from_rows(rows)
}

/// Per-coordinate border class along one spatial axis: which kernel taps
/// survive clipping for input coordinate `i`, as `(k_min, count, out_min)`
/// — tap indices are `k_min, k_min + stride, …` (ascending, which walks
/// output coordinates `out_min + count - 1` **down** to `out_min`, the same
/// direction the flat compiler walks them).
pub(crate) fn axis_class(
    i: usize,
    k: usize,
    stride: usize,
    padding: usize,
    out: usize,
) -> (u32, u32, u32) {
    let a = i + padding;
    let lo = if a + 1 > k {
        (a + 1 - k).div_ceil(stride)
    } else {
        0
    };
    let hi = (a / stride).min(out - 1);
    if lo > hi {
        return (0, 0, 0); // fully clipped: no surviving taps
    }
    ((a - stride * hi) as u32, (hi - lo + 1) as u32, lo as u32)
}

/// Pattern table of a conv layer whose `[oc][ci][ki][kj]` weights (or
/// packed codes) are `wd`, on an `h`×`w` input.
fn compile_conv<W: Copy + Default>(
    spec: &snn_tensor::Conv2dSpec,
    wd: &[W],
    h: usize,
    w: usize,
) -> ConvPatterns<W> {
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let s = spec.stride;
    let oc_n = spec.out_channels;

    let y_class: Vec<(u32, u32, u32)> = (0..h)
        .map(|iy| axis_class(iy, k, s, spec.padding, oh))
        .collect();
    let x_class: Vec<(u32, u32, u32)> = (0..w)
        .map(|ix| axis_class(ix, k, s, spec.padding, ow))
        .collect();

    // Repack weights `[oc][ci][ki][kj]` -> `[ci][ki][k-1-kj][oc]`: kernel
    // columns reversed because ascending kj walks output columns (and so
    // channel-last cells) downward — a run's weights then ascend with its
    // cells.
    let ch_stride = k * k * oc_n;
    let mut rw = vec![W::default(); spec.in_channels * ch_stride];
    for oc in 0..oc_n {
        for ci in 0..spec.in_channels {
            for ki in 0..k {
                for kj in 0..k {
                    rw[(ci * k * k + ki * k + (k - 1 - kj)) * oc_n + oc] =
                        wd[((oc * spec.in_channels + ci) * k + ki) * k + kj];
                }
            }
        }
    }

    // Pattern key: (y tap class, x tap class) — channels share patterns.
    // The per-axis (k_min, count) pair pins down every (tap, relative
    // output) pair, so equal keys guarantee identical run lists.
    let mut ids: std::collections::HashMap<(u32, u32, u32, u32), u32> =
        std::collections::HashMap::new();
    let mut patterns: Vec<ConvPattern> = Vec::new();
    let mut runs: Vec<ConvRun> = Vec::new();

    // One pass over the spatial grid resolves all patterns and the
    // per-pixel rows of channel 0; other channels reuse them with a
    // shifted weight base.
    let mut grid: Vec<ConvRow> = Vec::with_capacity(h * w);
    for &(ky_min, county, oy_lo) in &y_class {
        for &(kx_min, countx, ox_lo) in &x_class {
            let key = (ky_min, county, kx_min, countx);
            let pattern = *ids.entry(key).or_insert_with(|| {
                // Materialize the canonical pattern, kernel rows
                // ascending. A row's taps hit adjacent output columns;
                // at stride 1 their weights are adjacent too, so the row
                // is one run, else one run per tap (kernel columns
                // ascending). A run starts at its highest kernel column.
                let countx = countx as usize;
                let taps = if s == 1 { countx.max(1) } else { 1 };
                let first_run = runs.len() as u32;
                for ai in 0..county as usize {
                    let ki = ky_min as usize + ai * s;
                    let dy = county as usize - 1 - ai;
                    for end in (taps..=countx).step_by(taps) {
                        let kj = kx_min as usize + (end - 1) * s;
                        runs.push(ConvRun {
                            t0: ((dy * ow + countx - end) * oc_n) as u32,
                            w0: ((ki * k + k - 1 - kj) * oc_n) as u32,
                            len: (taps * oc_n) as u32,
                        });
                    }
                }
                patterns.push(ConvPattern {
                    first_run,
                    end_run: runs.len() as u32,
                    degree: county * (countx * oc_n) as u32,
                });
                (patterns.len() - 1) as u32
            });
            grid.push(ConvRow {
                t_base: (oy_lo * ow as u32 + ox_lo) * oc_n as u32,
                w_base: 0,
                pattern,
            });
        }
    }
    let rows: Vec<ConvRow> = (0..spec.in_channels)
        .flat_map(|ci| {
            let w_base = (ci * ch_stride) as u32;
            grid.iter().map(move |&row| ConvRow { w_base, ..row })
        })
        .collect();
    let logical_edges = rows
        .iter()
        .map(|row| patterns[row.pattern as usize].degree as usize)
        .sum();
    // All k taps survive on both axes from tap 0: the unclipped pattern.
    let full = ids
        .get(&(0, k as u32, 0, k as u32))
        .copied()
        .filter(|_| s == 1);

    ConvPatterns {
        rows,
        patterns,
        runs,
        oc: oc_n as u32,
        plane: (oh * ow) as u32,
        kernel: k as u32,
        row_cells: (ow * oc_n) as u32,
        full,
        weight: rw,
        ch_stride,
        logical_edges,
    }
}

/// The flat per-pixel conv compiler the pattern table replaces — kept as
/// the ground truth for the deduplication tests. Like the pattern
/// compiler (and the reference integration loop, which charges synaptic
/// ops for every surviving tap), it keeps structurally zero weights.
#[cfg(test)]
fn compile_conv_flat(
    spec: &snn_tensor::Conv2dSpec,
    weight: &Tensor,
    h: usize,
    w: usize,
) -> CsrSynapses {
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let wd = weight.as_slice();
    let mut rows: Vec<Vec<(u32, f32)>> = vec![Vec::new(); spec.in_channels * h * w];
    for ci in 0..spec.in_channels {
        for iy in 0..h {
            for ix in 0..w {
                let row = &mut rows[(ci * h + iy) * w + ix];
                // Same traversal as the reference integration loop, so each
                // (input, output) pair resolves to the same unique weight.
                for ki in 0..k {
                    let oy_num = iy as isize + spec.padding as isize - ki as isize;
                    if oy_num < 0 || oy_num % spec.stride as isize != 0 {
                        continue;
                    }
                    let oy = (oy_num / spec.stride as isize) as usize;
                    if oy >= oh {
                        continue;
                    }
                    for kj in 0..k {
                        let ox_num = ix as isize + spec.padding as isize - kj as isize;
                        if ox_num < 0 || ox_num % spec.stride as isize != 0 {
                            continue;
                        }
                        let ox = (ox_num / spec.stride as isize) as usize;
                        if ox >= ow {
                            continue;
                        }
                        for oc in 0..spec.out_channels {
                            let widx = ((oc * spec.in_channels + ci) * k + ki) * k + kj;
                            row.push(((oc * oh + oy) as u32 * ow as u32 + ox as u32, wd[widx]));
                        }
                    }
                }
            }
        }
    }
    CsrSynapses::from_rows(rows)
}

fn check_u32_bound(edge_bound: usize, kind: &str) -> Result<(), ConvertError> {
    if edge_bound > u32::MAX as usize {
        return Err(ConvertError::Structure(format!(
            "{kind} layer needs up to {edge_bound} CSR edges, beyond u32 \
             indexing; shard the model (see ROADMAP: sharded weight buffers)"
        )));
    }
    Ok(())
}

/// Compiles `model`'s stage list for per-sample `input_dims`, taking the
/// `i`-th weighted layer's per-edge payloads from `payloads[i]`: an
/// index-for-index image of that layer's weight tensor (the f32 weights
/// themselves, or one packed log code per weight). Geometry and biases
/// come from `model`. Returns the stages and the total traversed edges.
///
/// # Errors
///
/// Returns [`ConvertError::Structure`] if `input_dims` does not fit the
/// model geometry, the window does not fit the engine's step planes, a
/// layer outgrows `u32` indexing, or `payloads` does not hold one
/// weight-sized slice per weighted layer.
pub(crate) fn compile_stages<W: Copy + Default>(
    model: &SnnModel,
    input_dims: &[usize],
    payloads: &[&[W]],
) -> Result<(Vec<CsrStage<W>>, usize), ConvertError> {
    // Validates geometry up front and gives the dims at each boundary.
    let trace = model.shape_trace(input_dims)?;
    // The engine holds a fire step per neuron in a u16, `window + 1`
    // standing for "never".
    if model.window() >= u32::from(u16::MAX) {
        return Err(ConvertError::Structure(format!(
            "fire window {} does not fit the engine's u16 step planes",
            model.window()
        )));
    }
    let weights: Vec<&Tensor> = model.layers().iter().filter_map(SnnLayer::weight).collect();
    if payloads.len() != weights.len()
        || payloads
            .iter()
            .zip(&weights)
            .any(|(p, w)| p.len() != w.len())
    {
        return Err(ConvertError::Structure(
            "weight payloads do not match the model's weight tensors".into(),
        ));
    }
    let mut payloads = payloads.iter();
    let mut stages = Vec::with_capacity(model.layers().len());
    let mut total_edges = 0usize;
    for (i, layer) in model.layers().iter().enumerate() {
        let in_dims = &trace[i];
        let out_dims = &trace[i + 1];
        match layer {
            SnnLayer::Conv { spec, weight, bias } => {
                // Targets, weight offsets and row indices are u32.
                // Deduplication keeps the *stored* pattern table tiny —
                // worst case (every pixel its own border class) it is the
                // flat table of ONE channel — so the old
                // per-pixel-times-channels MAC bound that rejected
                // full-width VGG-16 no longer applies.
                check_u32_bound(in_dims.iter().product::<usize>(), "conv input of")?;
                check_u32_bound(out_dims.iter().product::<usize>(), "conv output of")?;
                check_u32_bound(weight.len(), "conv weights of")?;
                check_u32_bound(
                    in_dims[1] * in_dims[2] * spec.kernel * spec.kernel * spec.out_channels,
                    "conv pattern table of",
                )?;
                let wd = payloads.next().expect("one payload per weighted layer");
                let syn = compile_conv(spec, wd, in_dims[1], in_dims[2]);
                total_edges += syn.logical_edges();
                let spatial = out_dims[1] * out_dims[2];
                // Broadcast per-channel bias over spatial positions.
                let mut full_bias = vec![0.0f32; out_dims.iter().product()];
                for (oc, &b) in bias.as_slice().iter().enumerate() {
                    for v in &mut full_bias[oc * spatial..(oc + 1) * spatial] {
                        *v = b;
                    }
                }
                stages.push(CsrStage::Weighted {
                    syn: SynapseTable::Patterned(syn),
                    bias: full_bias,
                });
            }
            SnnLayer::Dense { weight, bias } => {
                check_u32_bound(weight.len(), "dense")?;
                let wd = payloads.next().expect("one payload per weighted layer");
                let syn = compile_dense(wd, weight.dims()[0], weight.dims()[1]);
                total_edges += syn.edges();
                stages.push(CsrStage::Weighted {
                    syn: SynapseTable::Flat(syn),
                    bias: bias.as_slice().to_vec(),
                });
            }
            SnnLayer::MaxPool { spec } => stages.push(CsrStage::MaxPool {
                win: spec.window,
                stride: spec.stride,
                in_dims: in_dims.clone(),
            }),
            SnnLayer::AvgPool { spec } => stages.push(CsrStage::AvgPool {
                win: spec.window,
                stride: spec.stride,
                in_dims: in_dims.clone(),
            }),
            SnnLayer::Flatten => stages.push(CsrStage::Flatten),
        }
    }
    Ok((stages, total_edges))
}

impl CsrModel {
    /// Compiles `model` for per-sample input dims (`[C, H, W]`).
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Structure`] if `input_dims` does not fit the
    /// model geometry.
    pub fn compile(model: &SnnModel, input_dims: &[usize]) -> Result<Self, ConvertError> {
        let weights: Vec<&[f32]> = model
            .layers()
            .iter()
            .filter_map(SnnLayer::weight)
            .map(Tensor::as_slice)
            .collect();
        let (stages, total_edges) = compile_stages(model, input_dims, &weights)?;
        Ok(Self {
            stages,
            input_dims: input_dims.to_vec(),
            total_edges,
            fire: FireTable::new(model.kernel(), model.window()),
        })
    }

    /// Memory accounting: stored versus flat-equivalent synapse storage.
    pub fn footprint(&self) -> CsrFootprint {
        footprint_of(&self.stages)
    }
}

/// Aggregates the [`CsrFootprint`] of a compiled stage list — shared by the
/// f32 [`CsrModel`] and the packed-code [`crate::QuantCsrModel`], whose only
/// accounting difference is the per-edge payload width (`weight_bytes`).
pub(crate) fn footprint_of<W: Copy>(stages: &[CsrStage<W>]) -> CsrFootprint {
    let mut fp = CsrFootprint::default();
    for stage in stages {
        let CsrStage::Weighted { syn, .. } = stage else {
            continue;
        };
        fp.logical_edges += syn.logical_edges();
        fp.stored_edges += syn.stored_edges();
        fp.stored_bytes += syn.stored_bytes();
        fp.weight_bytes += syn.weight_bytes();
        match syn {
            SynapseTable::Flat(s) => {
                fp.flat_bytes += (s.in_neurons() + 1) * 4 + s.edges() * 8;
            }
            SynapseTable::Patterned(p) => {
                fp.flat_bytes += p.flat_bytes();
                fp.conv_logical_edges += p.logical_edges();
                fp.conv_stored_edges += p.stored_edges();
                fp.patterns += p.patterns();
            }
        }
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_nn::{ActivationLayer, Conv2dLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
    use snn_tensor::Conv2dSpec;
    use ttfs_core::{convert, Base2Kernel, TtfsKernel};

    fn model() -> SnnModel {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Sequential::new(vec![
            Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(2, 3, 3, 1, 1), &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(3 * 4 * 4, 5, &mut rng)),
        ]);
        convert(&net, Base2Kernel::paper_default(), 24).unwrap()
    }

    #[test]
    fn dense_csr_matches_weight_matrix() {
        let m = model();
        let csr = CsrModel::compile(&m, &[2, 4, 4]).unwrap();
        let CsrStage::Weighted { syn, .. } = &csr.stages[2] else {
            panic!("stage 2 should be the dense layer");
        };
        let dense_w = m.layers()[2].weight().unwrap();
        let in_f = dense_w.dims()[1];
        assert_eq!(syn.in_neurons(), in_f);
        for j in 0..in_f as u32 {
            for (o, w) in syn.edges_of(j) {
                let expect = dense_w.as_slice()[o as usize * in_f + j as usize];
                assert_eq!(w, expect);
            }
        }
    }

    #[test]
    fn conv_csr_reproduces_dense_matvec() {
        // CSR gather must equal the conv applied to a one-hot input.
        let m = model();
        let csr = CsrModel::compile(&m, &[2, 4, 4]).unwrap();
        let CsrStage::Weighted { syn, bias, .. } = &csr.stages[0] else {
            panic!("stage 0 should be conv");
        };
        let SnnLayer::Conv {
            spec,
            weight,
            bias: cb,
        } = &m.layers()[0]
        else {
            panic!()
        };
        let kernel = m.kernel();
        let psp = kernel.decode(3);
        for j in [0u32, 5, 17, 31] {
            let mut via_csr = [0.0f32; 3 * 4 * 4];
            for (o, w) in syn.edges_of(j) {
                via_csr[o as usize] += w * psp;
            }
            for (v, b) in via_csr.iter_mut().zip(bias.iter()) {
                *v += b;
            }
            let mut one_hot = vec![0.0f32; 2 * 4 * 4];
            one_hot[j as usize] = psp;
            let x = Tensor::from_vec(one_hot, &[1, 2, 4, 4]).unwrap();
            let y = snn_tensor::conv2d(&x, weight, Some(cb), spec).unwrap();
            for (a, b) in via_csr.iter().zip(y.as_slice()) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn edge_count_matches_macs_for_dense_weights() {
        let m = model();
        let csr = CsrModel::compile(&m, &[2, 4, 4]).unwrap();
        // No exactly-zero weights in random init: edges == macs.
        let conv_macs = 3 * 4 * 4 * 2 * 9
            - /* border cut by padding: count separately */ missing_border_edges();
        let dense_macs = 3 * 4 * 4 * 5;
        assert_eq!(csr.total_edges, conv_macs + dense_macs);
    }

    fn missing_border_edges() -> usize {
        // 3x3 same-padding conv on 4x4: an interior input reaches 9 outputs,
        // edges reach 6, corners 4.
        let full = 16 * 9;
        let actual: usize = (0..4usize)
            .flat_map(|y| {
                (0..4usize).map(move |x| {
                    let ry = 3 - (y == 0 || y == 3) as usize;
                    let rx = 3 - (x == 0 || x == 3) as usize;
                    ry * rx
                })
            })
            .sum();
        (full - actual) * 2 * 3
    }

    #[test]
    fn compile_rejects_bad_geometry() {
        let m = model();
        assert!(CsrModel::compile(&m, &[3, 4, 4]).is_err());
        assert!(CsrModel::compile(&m, &[2, 9, 9]).is_err());
    }

    #[test]
    fn compile_rejects_a_window_beyond_the_u16_step_planes() {
        let m = model();
        let wide = |window| SnnModel::from_parts(m.layers().to_vec(), *m.kernel(), window);
        let err = CsrModel::compile(&wide(u32::from(u16::MAX)), &[2, 4, 4]).unwrap_err();
        assert!(err.to_string().contains("window 65535"), "got: {err}");
        assert!(CsrModel::compile(&wide(300), &[2, 4, 4]).is_ok());
    }

    /// Ground-truth check of the deduplicated compiler: every row of the
    /// pattern table must be edge-for-edge identical (same order, same
    /// targets, same weights) to the flat per-pixel CSR, across asymmetric
    /// geometries — non-square inputs, stride > 1, padded borders, even
    /// kernels, and kernels larger than the input.
    #[test]
    fn patterns_match_flat_csr_edge_for_edge() {
        let cases: &[(usize, usize, usize, usize, usize, usize, usize)] = &[
            // (in_c, out_c, k, stride, padding, h, w)
            (2, 3, 3, 1, 1, 5, 7), // non-square, same-padding
            (1, 4, 3, 2, 1, 7, 5), // stride 2, non-square the other way
            (3, 2, 5, 2, 2, 9, 6), // big kernel, stride 2
            (2, 2, 2, 2, 0, 6, 8), // even kernel, no padding
            (1, 3, 3, 3, 1, 8, 8), // stride 3: some pixels fully clipped
            (2, 2, 5, 1, 0, 6, 5), // big valid-only kernel: single output column
            (1, 2, 1, 1, 0, 3, 4), // 1x1 conv: every pixel one class per channel
        ];
        let mut rng = StdRng::seed_from_u64(77);
        for &(ci, co, k, s, p, h, w) in cases {
            let spec = Conv2dSpec::new(ci, co, k, s, p);
            let (oh, ow) = spec.output_hw(h, w);
            assert!(oh > 0 && ow > 0, "degenerate case {spec:?} {h}x{w}");
            let weight = snn_tensor::uniform(&[co, ci, k, k], -1.0, 1.0, &mut rng);
            let flat = compile_conv_flat(&spec, &weight, h, w);
            let pat = compile_conv(&spec, weight.as_slice(), h, w);
            assert_eq!(pat.in_neurons(), flat.in_neurons(), "{spec:?}");
            assert_eq!(pat.logical_edges(), flat.edges(), "{spec:?}");
            for j in 0..flat.in_neurons() as u32 {
                let f: Vec<(u32, f32)> = flat.edges_of(j).collect();
                let d: Vec<(u32, f32)> = pat.edges_of(j).collect();
                assert_eq!(f, d, "row {j} of {spec:?} on {h}x{w}");
                assert_eq!(pat.degree(j), f.len());
            }
        }
    }

    /// The marked full pattern is what the engine's fixed-width kernel
    /// assumes: `k` runs of `k·OC` cells, run `r` reading weights from
    /// `r·k·OC` into output row `k − 1 − r`, followed by every interior
    /// pixel — and it is marked only at stride 1, and only where some pixel
    /// is interior.
    #[test]
    fn full_pattern_is_marked_with_its_fixed_layout() {
        let mut rng = StdRng::seed_from_u64(80);
        // (in_c, out_c, k, stride, padding, h, w, interior pixels per channel)
        for (ci, co, k, s, p, h, w, interior) in [
            (2, 4, 3, 1, 1, 6, 5, 4 * 3),
            (1, 8, 5, 1, 2, 7, 7, 3 * 3),
            (2, 3, 3, 1, 0, 5, 6, 2),
            (1, 4, 3, 1, 1, 2, 2, 0),
            (1, 4, 3, 2, 1, 7, 7, 0),
        ] {
            let spec = Conv2dSpec::new(ci, co, k, s, p);
            let (_, ow) = spec.output_hw(h, w);
            let weight = snn_tensor::uniform(&[co, ci, k, k], -1.0, 1.0, &mut rng);
            let pat = compile_conv(&spec, weight.as_slice(), h, w);
            let full = pat.full_pattern();
            let on_full = full.map_or(0, |(id, _, _)| {
                pat.rows().iter().filter(|row| row.pattern == id).count()
            });
            assert_eq!(on_full, interior * ci, "{spec:?} on {h}x{w}");
            let Some((id, kernel, row_cells)) = full else {
                continue;
            };
            assert_eq!((kernel, row_cells), (k, ow * co), "{spec:?}");
            let expect: Vec<ConvRun> = (0..k)
                .map(|r| ConvRun {
                    t0: ((k - 1 - r) * ow * co) as u32,
                    w0: (r * k * co) as u32,
                    len: (k * co) as u32,
                })
                .collect();
            assert_eq!(pat.runs_of(id), &expect[..], "{spec:?}");
            assert_eq!(pat.pattern(id).degree as usize, k * k * co);
        }
    }

    /// Structurally zero conv weights are retained (channels share one tap
    /// pattern, and the reference backend charges synaptic ops for every
    /// surviving tap regardless of value): edge lists still match the flat
    /// compiler exactly, zero entries included.
    #[test]
    fn patterns_keep_structural_zeros_like_reference() {
        let spec = Conv2dSpec::new(2, 3, 3, 1, 1);
        let mut rng = StdRng::seed_from_u64(78);
        let mut weight = snn_tensor::uniform(&[3, 2, 3, 3], -1.0, 1.0, &mut rng);
        // Zero a scattering of taps, including a full kernel slice.
        let wd = weight.as_mut_slice();
        wd[0] = 0.0;
        wd[7] = 0.0;
        for v in &mut wd[18..27] {
            *v = 0.0;
        }
        let flat = compile_conv_flat(&spec, &weight, 6, 6);
        let pat = compile_conv(&spec, weight.as_slice(), 6, 6);
        assert_eq!(pat.logical_edges(), flat.edges());
        let mut zeros = 0usize;
        for j in 0..flat.in_neurons() as u32 {
            let f: Vec<(u32, f32)> = flat.edges_of(j).collect();
            let d: Vec<(u32, f32)> = pat.edges_of(j).collect();
            assert_eq!(f, d, "row {j}");
            zeros += d.iter().filter(|(_, w)| *w == 0.0).count();
        }
        assert!(zeros > 0, "the zeroed taps must appear as explicit edges");
    }

    /// The point of the exercise: pattern storage must shrink conv edge
    /// memory by ~C·H·W while the logical view is unchanged.
    #[test]
    fn dedup_cuts_conv_storage() {
        let spec = Conv2dSpec::new(2, 4, 3, 1, 1);
        let mut rng = StdRng::seed_from_u64(79);
        let weight = snn_tensor::uniform(&[4, 2, 3, 3], -1.0, 1.0, &mut rng);
        let pat = compile_conv(&spec, weight.as_slice(), 16, 16);
        // 3 border classes per axis, shared by both channels -> at most 9
        // patterns.
        assert!(pat.patterns() <= 9, "{} patterns", pat.patterns());
        assert!(
            pat.stored_edges() * 10 <= pat.logical_edges(),
            "stored {} vs logical {}",
            pat.stored_edges(),
            pat.logical_edges()
        );
        assert!(pat.stored_bytes() < pat.flat_bytes() / 4);
    }

    /// The served geometry — VGG-16 at 1/16 width on 32 × 32 inputs —
    /// stores at least 10× fewer conv edges than it walks.
    #[test]
    fn vgg16_w16_dedups_conv_edges_tenfold() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = snn_nn::models::vgg16_scaled(32, 10, 16, &mut rng);
        let m = convert(&net, Base2Kernel::paper_default(), 24).unwrap();
        let fp = CsrModel::compile(&m, &[3, 32, 32]).unwrap().footprint();
        assert!(
            fp.conv_dedup_ratio() >= 10.0,
            "conv dedup {:.1}x < 10x",
            fp.conv_dedup_ratio()
        );
        assert!(fp.stored_bytes < fp.flat_bytes);
    }

    #[test]
    fn footprint_aggregates_stages() {
        let m = model();
        let csr = CsrModel::compile(&m, &[2, 4, 4]).unwrap();
        let fp = csr.footprint();
        assert_eq!(fp.logical_edges, csr.total_edges);
        assert!(fp.stored_edges < fp.logical_edges);
        // f32 payloads: 4 bytes per stored weight slot, all inside
        // stored_bytes.
        assert_eq!(fp.weight_bytes % 4, 0);
        assert!(fp.weight_bytes > 0 && fp.weight_bytes < fp.stored_bytes);
        assert!(fp.conv_logical_edges > 0 && fp.conv_stored_edges > 0);
        assert!(fp.patterns > 0);
        assert!(fp.conv_dedup_ratio() > 1.0);
        // Dense stage is flat: logical - conv == stored - conv_stored.
        assert_eq!(
            fp.logical_edges - fp.conv_logical_edges,
            fp.stored_edges - fp.conv_stored_edges
        );
    }
}
