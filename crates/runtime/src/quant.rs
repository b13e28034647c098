//! The quantized serving subsystem: 5-bit log-code CSR storage with LUT
//! (or shift-add) weight resolution ahead of the batched inner loop.
//!
//! The paper's processor never multiplies: weights are stored as 5-bit
//! logarithmic codes (sign + magnitude exponent, eq. 15) and each synaptic
//! op resolves `w · κ(t)` through a tiny LUT plus a shift (eq. 17). The
//! workspace has modelled that arithmetic in `snn-logquant` since the
//! reproduction's early PRs — but the serving runtime still streamed full
//! f32 weights. This module closes the gap end-to-end:
//!
//! * [`QuantCsrModel`] — the quantized twin of [`CsrModel`]: one
//!   [`LogQuantizer`] is **calibrated per weighted layer** (FSR anchored at
//!   the layer's largest magnitude, the deployment-time calibration of the
//!   paper), every weight is encoded **once** to its packed code byte
//!   ([`encode_layer_codes`] — or the codes arrive ready-made in a
//!   quantized [`crate::ModelArtifact`]), and the codes are gathered into
//!   the slot order of the compiled synapse tables as the f32 model
//!   gathers its weights. The tables themselves ([`SynapseTable`]) hold no
//!   payload: pattern deduplication, per-pixel maps and traversal order
//!   are the f32 model's, equal table for table — only the payload array
//!   beside them shrinks, 4× for the stored weights.
//! * [`QuantEngine`] — the [`Engine`] over these tables: its integration
//!   loop is the *same* batched walk as [`crate::CsrEngine`]'s (one
//!   engine type, one code path), down to the vectorised `cells +=
//!   w · psp` run (four f64 cells per AVX2 op at the workspace's
//!   x86-64-v3 target, the same bits as a baseline build): a weighted
//!   stage's packed codes are decoded through the layer's LUT **once per
//!   chunk** into a reused scratch f32 array (a table load per stored
//!   code — ≈ 239 k for VGG-16 at 1/8 width — instead of one per
//!   traversed edge, millions), and the loop multiplies
//!   the decoded value by the spike's `κ(t) · scale` in f64, exactly the
//!   product the reference computes. The codes stay the only resident
//!   payload; the decoded array is scratch, sized by the largest layer. In
//!   [`DecodeMode::Lut`] the LUT holds the quantizer's exact decoded
//!   values, so the engine's logits (and event statistics) are
//!   **bit-identical** to [`snn_sim::EventSnn`] run over a model whose
//!   weights went through [`LogQuantizer::quantize_tensor`] — the serving
//!   path and the reference quantization analysis can never drift apart.
//!   [`DecodeMode::ShiftAdd`] instead populates the LUT through the
//!   [`LogPe`] fixed-point datapath (Q16 mantissa LUT + shift, the actual
//!   hardware arithmetic) and reports its mantissa-rounding error bound.
//!
//! Accuracy/energy/bytes trade-off reporting rides on the existing
//! bridges: the engine emits the shared [`RunStats`] counters (fed to
//! [`snn_hw::Processor`] via [`crate::energy`]) and
//! [`QuantCsrModel::footprint`] accounts packed-code bytes against the f32
//! copy.

use std::sync::Arc;

use snn_logquant::{LogBase, LogPe, LogQuantizer, QuantError};
use ttfs_core::{ConvertError, SnnLayer, SnnModel};

use crate::csr::{compile_stages, footprint_of, gather, CsrFootprint, CsrStage};
use crate::engine::{Compiled, Engine, FireTable};

#[cfg(doc)]
use crate::csr::{CsrModel, SynapseTable};
#[cfg(doc)]
use snn_sim::RunStats;

/// How [`QuantEngine`] resolves packed codes to synaptic weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodeMode {
    /// Exact decode table: `lut[code] == LogQuantizer::decode(code)`
    /// bit-for-bit, so quantized serving is bit-identical to the reference
    /// event simulator over [`LogQuantizer::quantize_tensor`]'d weights.
    #[default]
    Lut,
    /// The [`LogPe`] fixed-point datapath: each table entry is
    /// reconstructed as `sign · (Q16 mantissa LUT << shift)` — the
    /// hardware's actual arithmetic — with the mantissa-rounding error
    /// bound reported per layer ([`QuantLayer::mantissa_error_bound`]).
    /// Requires the model kernel to satisfy the eq. 18 co-design
    /// constraint (`log₂ τ` a power of two).
    ShiftAdd,
}

/// Configuration of the quantized serving path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantConfig {
    /// Logarithmic quantization base (eq. 16); the paper serves
    /// `a_w = 2^(−1/2)`.
    pub base: LogBase,
    /// Code width in bits, sign included (the paper serves 5). Packing
    /// needs `2 ≤ bits ≤ 8`.
    pub bits: u8,
    /// Weight-resolution datapath.
    pub mode: DecodeMode,
}

impl Default for QuantConfig {
    /// The paper's serving configuration: 5-bit codes, base `2^(−1/2)`,
    /// exact-LUT decode.
    fn default() -> Self {
        Self {
            base: LogBase::inv_sqrt2(),
            bits: 5,
            mode: DecodeMode::Lut,
        }
    }
}

/// Per-weighted-layer quantization artifacts of a compiled
/// [`QuantCsrModel`].
#[derive(Debug, Clone)]
pub struct QuantLayer {
    /// The layer's calibrated quantizer (FSR = layer's max |w|).
    pub quantizer: LogQuantizer,
    /// Exact signed decode table indexed by packed code
    /// ([`LogQuantizer::decode_lut`]).
    pub lut: Vec<f32>,
    /// The same table reconstructed through the [`LogPe`] Q16
    /// mantissa-LUT + shift datapath; `None` when the model kernel
    /// violates the eq. 18 constraint (no shift-add hardware exists for
    /// such a kernel).
    pub shift_add_lut: Option<Vec<f32>>,
    /// Worst-case relative error of the shift-add mantissa (Q-format
    /// rounding bound from [`LogPe::mantissa_relative_error_bound`]);
    /// `0.0` when no shift-add table exists.
    pub mantissa_error_bound: f32,
    /// Measured max relative deviation of the shift-add table from the
    /// exact decode table over every nonzero code (always ≤ the bound).
    pub shift_add_max_rel_error: f32,
}

impl QuantLayer {
    /// The decode table `mode` resolves codes through.
    fn table(&self, mode: DecodeMode) -> &[f32] {
        match mode {
            DecodeMode::Lut => &self.lut,
            DecodeMode::ShiftAdd => self
                .shift_add_lut
                .as_deref()
                .expect("mode validated at construction"),
        }
    }
}

/// The quantized twin of [`CsrModel`]: identical pattern-deduplicated
/// tables, packed log codes as the payload, plus each layer's quantizer
/// and decode tables.
#[derive(Debug, Clone)]
pub struct QuantCsrModel {
    stages: Vec<CsrStage>,
    /// Each weighted layer's packed codes, in its table's slot order.
    codes: Vec<Vec<u8>>,
    layers: Vec<QuantLayer>,
    input_dims: Vec<usize>,
    total_edges: usize,
    fire: FireTable,
}

/// Maps a quantization failure into the runtime's error type.
fn quant_err(e: QuantError) -> ConvertError {
    ConvertError::Structure(format!("quantized compile: {e}"))
}

/// Packed codes are one byte each: `2 <= bits <= 8`.
fn check_bits(bits: u8) -> Result<(), ConvertError> {
    if (2..=8).contains(&bits) {
        Ok(())
    } else {
        Err(ConvertError::Structure(format!(
            "quantized compile: packed codes need 2 <= bits <= 8, got {bits}"
        )))
    }
}

/// Calibrates one [`LogQuantizer`] per weighted layer of `model`, in stage
/// order — the per-layer calibration both [`QuantCsrModel::compile`] and
/// [`quantize_model`] share, so the serving tables and the reference
/// quantized model can never disagree on a code.
///
/// # Errors
///
/// Returns [`ConvertError::Structure`] for an unpackable bit width or a
/// layer whose weights are all zero (no full-scale range exists).
pub fn fit_layer_quantizers(
    model: &SnnModel,
    base: LogBase,
    bits: u8,
) -> Result<Vec<LogQuantizer>, ConvertError> {
    check_bits(bits)?;
    model
        .layers()
        .iter()
        .filter_map(SnnLayer::weight)
        .map(|w| LogQuantizer::fit_tensor(base, bits, w).map_err(quant_err))
        .collect()
}

/// Quantizes every weighted layer of `model` through its per-layer
/// calibrated quantizer ([`LogQuantizer::quantize_tensor`]; biases stay
/// f32), returning the quantized model and the quantizers used. Running
/// the reference event simulator over this model is the ground truth
/// [`QuantEngine`] reproduces bit-for-bit in [`DecodeMode::Lut`].
///
/// # Errors
///
/// Same conditions as [`fit_layer_quantizers`].
pub fn quantize_model(
    model: &SnnModel,
    base: LogBase,
    bits: u8,
) -> Result<(SnnModel, Vec<LogQuantizer>), ConvertError> {
    let quantizers = fit_layer_quantizers(model, base, bits)?;
    let mut quantized = model.clone();
    let mut qi = quantizers.iter();
    for layer in quantized.layers_mut() {
        let (SnnLayer::Conv { weight, .. } | SnnLayer::Dense { weight, .. }) = layer else {
            continue;
        };
        let q = qi.next().expect("one quantizer per weighted layer");
        *weight = q.quantize_tensor(weight);
    }
    Ok((quantized, quantizers))
}

/// Builds one layer's decode tables: the exact LUT, and — when the model
/// kernel admits the eq. 18 co-design — the shift-add reconstruction with
/// its error bound.
fn build_layer(model: &SnnModel, base: LogBase, quantizer: LogQuantizer) -> QuantLayer {
    let lut = quantizer.decode_lut();
    let tau = model.kernel().tau();
    let pe = if model.kernel().satisfies_log_constraint() {
        LogPe::for_kernel(tau, base).ok()
    } else {
        None
    };
    let (shift_add_lut, mantissa_error_bound, shift_add_max_rel_error) = match pe {
        Some(pe) => {
            let pe = pe.with_fsr_log2(quantizer.fsr_log2());
            // t = 0 strips the kernel factor: what remains is the PE's
            // fixed-point reconstruction of the decoded weight itself.
            let sa: Vec<f32> = (0..lut.len())
                .map(|p| {
                    pe.multiply(quantizer.unpack(p as u8), 0)
                        .expect("in-range code")
                })
                .collect();
            let max_rel = sa
                .iter()
                .zip(lut.iter())
                .filter(|(_, &exact)| exact != 0.0)
                .map(|(&approx, &exact)| (approx - exact).abs() / exact.abs())
                .fold(0.0f32, f32::max);
            (Some(sa), pe.mantissa_relative_error_bound(), max_rel)
        }
        None => (None, 0.0, 0.0),
    };
    QuantLayer {
        quantizer,
        lut,
        shift_add_lut,
        mantissa_error_bound,
        shift_add_max_rel_error,
    }
}

/// Encodes every weight of `model` to its packed code through its layer's
/// quantizer (`quantizers[i]` for the `i`-th weighted layer, as
/// [`fit_layer_quantizers`] returns them): one code byte per weight, in
/// the weight tensor's order. This is the payload a quantized artifact
/// ships and [`QuantCsrModel::from_codes`] compiles.
///
/// # Panics
///
/// Panics if a quantizer is wider than 8 bits ([`LogQuantizer::pack`]);
/// [`fit_layer_quantizers`] never returns one.
pub fn encode_layer_codes(model: &SnnModel, quantizers: &[LogQuantizer]) -> Vec<Vec<u8>> {
    model
        .layers()
        .iter()
        .filter_map(SnnLayer::weight)
        .zip(quantizers)
        .map(|(w, q)| w.as_slice().iter().map(|&w| q.encode_packed(w)).collect())
        .collect()
}

impl QuantCsrModel {
    /// Compiles the quantized serving tables for `model` at per-sample
    /// `input_dims`: calibrate one quantizer per weighted layer, encode
    /// every weight once ([`encode_layer_codes`]), then compile those
    /// codes ([`from_codes`](Self::from_codes)).
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Structure`] if `input_dims` does not fit the
    /// model geometry, for an unpackable bit width, or for a layer whose
    /// weights are all zero.
    pub fn compile(
        model: &SnnModel,
        input_dims: &[usize],
        config: QuantConfig,
    ) -> Result<Self, ConvertError> {
        let quantizers = fit_layer_quantizers(model, config.base, config.bits)?;
        let codes = encode_layer_codes(model, &quantizers);
        Self::from_codes(model, input_dims, config, quantizers, &codes)
    }

    /// Compiles the serving tables from shipped packed codes: `codes[i]`
    /// (one code per weight of the `i`-th weighted layer, in the weight
    /// tensor's order) is gathered into the slot order of its table as the
    /// f32 model gathers weights, and each layer decodes through
    /// `quantizers[i]`. Geometry, kernel, window and biases come from
    /// `model`; its weight values are never read.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Structure`] if `input_dims` does not fit the
    /// model geometry, for an unpackable bit width, or when `quantizers`
    /// or `codes` do not match the model's weighted layers and `config`.
    pub fn from_codes(
        model: &SnnModel,
        input_dims: &[usize],
        config: QuantConfig,
        quantizers: Vec<LogQuantizer>,
        codes: &[Vec<u8>],
    ) -> Result<Self, ConvertError> {
        check_bits(config.bits)?;
        if quantizers.len() != model.weighted_layers()
            || quantizers
                .iter()
                .any(|q| q.base() != config.base || q.bits() != config.bits)
        {
            return Err(ConvertError::Structure(
                "quantized compile: quantizers do not match the model and config".into(),
            ));
        }
        let (stages, slots, total_edges) = compile_stages(model, input_dims)?;
        if codes.len() != slots.len() || codes.iter().zip(&slots).any(|(c, s)| c.len() != s.len()) {
            return Err(ConvertError::Structure(
                "quantized compile: codes do not match the model's weight tensors".into(),
            ));
        }
        let codes = codes
            .iter()
            .zip(&slots)
            .map(|(c, s)| gather(c, s))
            .collect();
        let layers = quantizers
            .into_iter()
            .map(|q| build_layer(model, config.base, q))
            .collect();
        Ok(Self {
            stages,
            codes,
            layers,
            input_dims: input_dims.to_vec(),
            total_edges,
            fire: FireTable::new(model.kernel(), model.window()),
        })
    }

    /// The compiled stages.
    pub fn stages(&self) -> &[CsrStage] {
        &self.stages
    }

    /// Each weighted layer's packed codes, slot for slot as its stage's
    /// [`SynapseTable::edges_of`] names them.
    pub fn codes(&self) -> &[Vec<u8>] {
        &self.codes
    }

    /// Per-weighted-layer quantization artifacts, in stage order.
    pub fn layers(&self) -> &[QuantLayer] {
        &self.layers
    }

    /// Whether every layer has a shift-add table (the model kernel
    /// satisfies eq. 18 and each layer's PE was constructible).
    pub fn shift_add_available(&self) -> bool {
        self.layers.iter().all(|l| l.shift_add_lut.is_some())
    }

    /// Worst per-layer mantissa-rounding error bound of the shift-add
    /// datapath (`0.0` when shift-add is unavailable).
    pub fn mantissa_error_bound(&self) -> f32 {
        self.layers
            .iter()
            .map(|l| l.mantissa_error_bound)
            .fold(0.0, f32::max)
    }

    /// Memory accounting of the packed tables. `weight_bytes` is the
    /// packed-code payload (one byte per stored weight slot) — compare it
    /// with the f32 [`CsrModel::footprint`]'s `weight_bytes` for the
    /// quantization byte saving; the index structure is identical in both.
    pub fn footprint(&self) -> CsrFootprint {
        footprint_of(&self.stages, self.codes.iter().map(Vec::len).sum())
    }
}

impl Compiled for QuantCsrModel {
    type Mode = DecodeMode;
    const NAME: &'static str = "quant";

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

    /// Decoded through the layer's LUT once per chunk; the integration
    /// loop then runs over the decoded f32s exactly as it does over stored
    /// f32 weights, and computes the f64 products a per-edge `lut[code] ·
    /// psp` would.
    fn layer_weights<'a>(
        &'a self,
        layer: usize,
        mode: DecodeMode,
        buf: &'a mut Vec<f32>,
    ) -> &'a [f32] {
        let lut = self.layers[layer].table(mode);
        // Padded to 256 entries so a `u8` indexes it unchecked.
        let mut table = [0.0f32; 256];
        table[..lut.len()].copy_from_slice(lut);
        buf.clear();
        buf.extend(self.codes[layer].iter().map(|&code| table[code as usize]));
        buf
    }
}

/// Batched inference over packed log codes: the [`Engine`] walk with each
/// stage's weights resolved through the layer's decode LUT once per
/// chunk.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_nn::{DenseLayer, Flatten, Layer, Sequential};
/// use snn_runtime::{InferenceBackend, QuantConfig, QuantEngine};
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
/// let engine = QuantEngine::compile(&model, &[1, 3, 3], QuantConfig::default())?;
/// // Stored weights shrank 4x: one packed byte per f32 weight slot.
/// assert_eq!(engine.compiled().footprint().weight_bytes, 9 * 4);
/// let (logits, stats) = engine.run_batch(&Tensor::full(&[2, 1, 3, 3], 0.5))?;
/// assert_eq!(logits.dims(), &[2, 4]);
/// assert_eq!(stats.batch, 2);
/// # Ok(())
/// # }
/// ```
pub type QuantEngine = Engine<QuantCsrModel>;

impl QuantEngine {
    /// Compiles the quantized serving tables for `model` (cloned once into
    /// a shared [`Arc`]; use [`compile_shared`](Self::compile_shared) to
    /// avoid the copy).
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuantCsrModel::compile`], plus a structure
    /// error when [`DecodeMode::ShiftAdd`] is requested but the model
    /// kernel violates the eq. 18 constraint.
    pub fn compile(
        model: &SnnModel,
        input_dims: &[usize],
        config: QuantConfig,
    ) -> Result<Self, ConvertError> {
        Self::compile_shared(Arc::new(model.clone()), input_dims, config)
    }

    /// Compiles an already-shared model without cloning it — the same
    /// `Arc` discipline as [`crate::CsrEngine::compile_shared`], so an f32
    /// engine and a quantized engine can serve from one read-only copy of
    /// the converted model.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuantEngine::compile`].
    pub fn compile_shared(
        model: Arc<SnnModel>,
        input_dims: &[usize],
        config: QuantConfig,
    ) -> Result<Self, ConvertError> {
        let compiled = QuantCsrModel::compile(&model, input_dims, config)?;
        Self::new(model, compiled, DecodeMode::Lut).with_mode(config.mode)
    }

    /// Compiles an engine from shipped packed codes and their quantizers
    /// ([`QuantCsrModel::from_codes`]) — how a quantized
    /// [`crate::ModelArtifact`] is served, with no calibration and no
    /// re-encoding.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuantCsrModel::from_codes`], plus the
    /// [`DecodeMode::ShiftAdd`] kernel check of
    /// [`compile`](Self::compile).
    pub fn from_codes(
        model: Arc<SnnModel>,
        input_dims: &[usize],
        config: QuantConfig,
        quantizers: Vec<LogQuantizer>,
        codes: &[Vec<u8>],
    ) -> Result<Self, ConvertError> {
        let compiled = QuantCsrModel::from_codes(&model, input_dims, config, quantizers, codes)?;
        Self::new(model, compiled, DecodeMode::Lut).with_mode(config.mode)
    }

    /// Selects the weight-resolution datapath.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Structure`] if [`DecodeMode::ShiftAdd`] is
    /// requested but the model kernel violates eq. 18 (no shift-add table
    /// could be built).
    pub fn with_mode(mut self, mode: DecodeMode) -> Result<Self, ConvertError> {
        if mode == DecodeMode::ShiftAdd && !self.compiled.shift_add_available() {
            return Err(ConvertError::Structure(format!(
                "shift-add decode needs log2(tau) to be a power of two (eq. 18); \
                 tau = {} does not qualify",
                self.model.kernel().tau()
            )));
        }
        self.mode = mode;
        Ok(self)
    }

    /// The active weight-resolution datapath.
    pub fn mode(&self) -> DecodeMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrModel;
    use crate::InferenceBackend;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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

    #[test]
    fn lut_matches_decode_for_every_code() {
        let model = cnn_model(21);
        let compiled = QuantCsrModel::compile(&model, &[1, 8, 8], QuantConfig::default()).unwrap();
        assert_eq!(compiled.layers().len(), 2);
        for layer in compiled.layers() {
            let q = &layer.quantizer;
            assert_eq!(layer.lut.len(), q.packed_slots());
            for (p, &v) in layer.lut.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    q.decode_packed(p as u8).to_bits(),
                    "packed {p}"
                );
            }
        }
    }

    #[test]
    fn packed_codes_round_trip_through_the_tables() {
        // One index structure serves both payloads: the f32 and quantized
        // compiles yield equal stage lists, and the code at every slot
        // decodes (via the LUT) to exactly the quantized f32 weight at the
        // same slot.
        let model = cnn_model(22);
        let csr = CsrModel::compile(&model, &[1, 8, 8]).unwrap();
        let quant = QuantCsrModel::compile(&model, &[1, 8, 8], QuantConfig::default()).unwrap();
        assert_eq!(csr.stages, quant.stages());
        assert_eq!(csr.weights.len(), 2, "both weighted stages checked");
        assert_eq!(quant.codes().len(), csr.weights.len());
        for ((weights, codes), layer) in csr.weights.iter().zip(quant.codes()).zip(quant.layers()) {
            assert_eq!(weights.len(), codes.len());
            for (s, (&w, &code)) in weights.iter().zip(codes).enumerate() {
                assert_eq!(
                    layer.lut[code as usize].to_bits(),
                    layer.quantizer.quantize(w).to_bits(),
                    "slot {s}"
                );
            }
        }
    }

    #[test]
    fn matches_event_backend_on_quantized_weights_bit_for_bit() {
        let model = cnn_model(23);
        let config = QuantConfig::default();
        let (qmodel, _) = quantize_model(&model, config.base, config.bits).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let x = snn_tensor::uniform(&[5, 1, 8, 8], 0.0, 1.0, &mut rng);
        let (expect_logits, expect_stats) = EventSnn::new(&qmodel).run(&x).unwrap();
        for lanes in [1usize, 2, 3, 7] {
            let engine = QuantEngine::compile(&model, &[1, 8, 8], config)
                .unwrap()
                .with_max_lanes(lanes);
            let (logits, stats) = engine.run_batch(&x).unwrap();
            assert_eq!(logits.as_slice(), expect_logits.as_slice(), "lanes {lanes}");
            assert_eq!(stats, expect_stats, "lanes {lanes}");
        }
    }

    #[test]
    fn avg_pool_path_matches_quantized_event() {
        let mut rng = StdRng::seed_from_u64(24);
        let net = Sequential::new(vec![
            Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(2, 3, 3, 1, 1), &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::AvgPool2d(AvgPool2dLayer::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(3 * 3 * 3, 4, &mut rng)),
        ]);
        let model = convert(&net, Base2Kernel::paper_default(), 24).unwrap();
        let config = QuantConfig::default();
        let (qmodel, _) = quantize_model(&model, config.base, config.bits).unwrap();
        let x = snn_tensor::uniform(&[3, 2, 6, 6], 0.0, 1.0, &mut rng);
        let (a, sa) = EventSnn::new(&qmodel).run(&x).unwrap();
        let engine = QuantEngine::compile(&model, &[2, 6, 6], config).unwrap();
        let (b, sb) = engine.run_batch(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(sa, sb);
    }

    #[test]
    fn code_bytes_shrink_stored_weights_4x() {
        let model = cnn_model(25);
        let csr = CsrModel::compile(&model, &[1, 8, 8]).unwrap();
        let quant = QuantCsrModel::compile(&model, &[1, 8, 8], QuantConfig::default()).unwrap();
        let f32_fp = csr.footprint();
        let q_fp = quant.footprint();
        // Same structure, 1-byte payloads: exactly 4x on the weight array.
        assert_eq!(q_fp.weight_bytes * 4, f32_fp.weight_bytes);
        assert_eq!(q_fp.logical_edges, f32_fp.logical_edges);
        assert_eq!(q_fp.stored_edges, f32_fp.stored_edges);
        assert!(q_fp.stored_bytes < f32_fp.stored_bytes);
    }

    #[test]
    fn shift_add_mode_stays_within_the_mantissa_bound() {
        let model = cnn_model(26);
        let config = QuantConfig {
            mode: DecodeMode::ShiftAdd,
            ..QuantConfig::default()
        };
        let engine = QuantEngine::compile(&model, &[1, 8, 8], config).unwrap();
        assert_eq!(engine.mode(), DecodeMode::ShiftAdd);
        let compiled = engine.compiled();
        assert!(compiled.shift_add_available());
        assert!(compiled.mantissa_error_bound() > 0.0);
        for layer in compiled.layers() {
            assert!(
                layer.shift_add_max_rel_error <= layer.mantissa_error_bound,
                "measured {} vs bound {}",
                layer.shift_add_max_rel_error,
                layer.mantissa_error_bound
            );
        }
        // The two datapaths agree to within the bound's reach on logits.
        let mut rng = StdRng::seed_from_u64(27);
        let x = snn_tensor::uniform(&[3, 1, 8, 8], 0.0, 1.0, &mut rng);
        let lut_engine = engine.clone().with_mode(DecodeMode::Lut).unwrap();
        let (sa_logits, _) = engine.run_batch(&x).unwrap();
        let (lut_logits, _) = lut_engine.run_batch(&x).unwrap();
        let scale = lut_logits.abs_max().max(1.0);
        for (a, b) in sa_logits.as_slice().iter().zip(lut_logits.as_slice()) {
            assert!((a - b).abs() <= 1e-3 * scale, "{a} vs {b}");
        }
    }

    #[test]
    fn shift_add_rejected_for_non_codesigned_kernel() {
        // tau = 8: log2(tau) = 3 is not a power of two (eq. 18 fails), so
        // the LUT mode works but the shift-add datapath must refuse.
        let mut rng = StdRng::seed_from_u64(28);
        let net = Sequential::new(vec![
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(12, 3, &mut rng)),
        ]);
        let model = convert(&net, Base2Kernel::new(8.0, 1.0), 24).unwrap();
        let lut = QuantEngine::compile(&model, &[1, 3, 4], QuantConfig::default());
        assert!(lut.is_ok());
        let err = QuantEngine::compile(
            &model,
            &[1, 3, 4],
            QuantConfig {
                mode: DecodeMode::ShiftAdd,
                ..QuantConfig::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("eq. 18"), "got: {err}");
    }

    #[test]
    fn rejects_bad_configs() {
        let model = cnn_model(29);
        for bits in [1u8, 9] {
            let err = QuantCsrModel::compile(
                &model,
                &[1, 8, 8],
                QuantConfig {
                    bits,
                    ..QuantConfig::default()
                },
            )
            .unwrap_err();
            assert!(err.to_string().contains("bits"), "bits {bits}: {err}");
        }
        assert!(QuantCsrModel::compile(&model, &[2, 8, 8], QuantConfig::default()).is_err());
    }

    #[test]
    fn rejects_all_zero_layer() {
        let mut model = cnn_model(30);
        let SnnLayer::Dense { weight, .. } = &mut model.layers_mut()[3] else {
            panic!("layer 3 is dense");
        };
        for w in weight.as_mut_slice() {
            *w = 0.0;
        }
        let err = QuantCsrModel::compile(&model, &[1, 8, 8], QuantConfig::default()).unwrap_err();
        assert!(err.to_string().contains("nonzero"), "got: {err}");
    }

    #[test]
    fn clone_shares_model_and_tables() {
        let model = Arc::new(cnn_model(31));
        let engine =
            QuantEngine::compile_shared(Arc::clone(&model), &[1, 8, 8], QuantConfig::default())
                .unwrap();
        // Wire-visible: `/v1/stats` reports it as a server's `backend` label.
        assert_eq!(engine.name(), "quant");
        let dup = engine.clone();
        assert!(Arc::ptr_eq(&engine.model_shared(), &dup.model_shared()));
        assert!(Arc::ptr_eq(
            &engine.compiled_shared(),
            &dup.compiled_shared()
        ));
        assert!(Arc::ptr_eq(&model, &engine.model_shared()));
        let mut rng = StdRng::seed_from_u64(32);
        let x = snn_tensor::uniform(&[2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let (a, _) = engine.run_batch(&x).unwrap();
        let (b, _) = dup.run_batch(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn zeroed_weights_keep_stats_identical() {
        // Underflow/zero codes stay as stored edges, so synaptic-op
        // accounting matches the quantized reference exactly even for
        // pruned models.
        let mut model = cnn_model(33);
        let SnnLayer::Conv { weight, .. } = &mut model.layers_mut()[0] else {
            panic!("layer 0 is conv");
        };
        let wd = weight.as_mut_slice();
        wd[0] = 0.0;
        wd[7] = 1e-12; // deep underflow -> zero code
        let config = QuantConfig::default();
        let (qmodel, _) = quantize_model(&model, config.base, config.bits).unwrap();
        let mut rng = StdRng::seed_from_u64(34);
        let x = snn_tensor::uniform(&[3, 1, 8, 8], 0.0, 1.0, &mut rng);
        let (a, sa) = EventSnn::new(&qmodel).run(&x).unwrap();
        let engine = QuantEngine::compile(&model, &[1, 8, 8], config).unwrap();
        let (b, sb) = engine.run_batch(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(sa, sb, "zero codes must still be charged as ops");
    }
}
