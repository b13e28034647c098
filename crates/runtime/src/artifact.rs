//! Versioned on-disk model artifacts — the unit the
//! [`ModelRegistry`](crate::ModelRegistry) loads, caches and swaps.
//!
//! An artifact carries exactly what a serving box serves: the converted
//! model's layer geometry, kernel and window, its biases, and its weights
//! in the form the engine runs them — raw f32 for the CSR engine, or one
//! packed log code per weight plus the per-layer [`LogQuantizer`]
//! parameters for the quantized engine (which then ships **no** f32
//! weights) — along with the per-sample input geometry and a backend hint
//! selecting the engine ([`BackendHint`]). The framing is defensive by
//! construction:
//!
//! ```text
//! offset 0   magic            b"SNNARTF\0"            (8 bytes)
//! offset 8   format version   u32 little-endian       (currently 2)
//! offset 12  header length    u32 little-endian
//! offset 16  header JSON      ArtifactInfo            (name, version, dims, backend)
//! ...        payload length   u64 little-endian
//! ...        payload          layout + raw sections   (below)
//! ...        checksum         u64 little-endian       FNV-1a over bytes [8, checksum)
//! ```
//!
//! The payload is a small JSON layout followed by raw little-endian
//! sections:
//!
//! ```text
//! u32 little-endian   layout length
//! layout JSON         per layer: kind + geometry; kernel τ/θ₀ and
//!                     quantizer fsr_log2 as f32 bit patterns; window;
//!                     quantizer base + bits; every section's byte length
//! per weighted layer, in layer order:
//!   weights           f32 LE per weight (Csr), or one packed u8 code per
//!                     weight (Quant), in the weight tensor's order
//!   bias              f32 LE per output
//! ```
//!
//! No float travels as decimal text, so loading is a checksum pass plus
//! copies, and every value round-trips **bit-exactly**. A loaded
//! quantized artifact's [`model`](ModelArtifact::model) holds the decoded
//! weights (`lut[code]`), which equal
//! [`quantize_model`](crate::quantize_model) of the original bit for bit,
//! and it compiles from the shipped codes — nothing is re-fitted or
//! re-encoded (property-tested in
//! `crates/runtime/tests/artifact_roundtrip.rs` and
//! `crates/runtime/tests/artifact_v2.rs`).
//!
//! Every failure mode maps to a typed [`ArtifactError`]: wrong magic,
//! a format version other than [`ARTIFACT_FORMAT_VERSION`], declared
//! lengths larger than the sanity cap ([`MAX_SECTION_BYTES`]) or the file
//! itself (truncation), checksum mismatches from bit flips, and malformed
//! content — a bad layout, a section length that disagrees with its
//! layer's shape, a non-finite weight or bias, a code outside the packed
//! range, quantizers that disagree with the header. Loading never panics.

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use snn_logquant::{LogBase, LogQuantizer};
use snn_tensor::{Conv2dSpec, Pool2dSpec, Tensor};
use ttfs_core::{Base2Kernel, ConvertError, SnnLayer, SnnModel, TtfsKernel};

use crate::csr::CsrFootprint;
use crate::quant::{
    encode_layer_codes, fit_layer_quantizers, DecodeMode, QuantConfig, QuantEngine,
};
use crate::{CsrEngine, InferenceBackend};

/// The artifact file magic (8 bytes at offset 0).
pub const ARTIFACT_MAGIC: [u8; 8] = *b"SNNARTF\0";

/// The format version this build writes and the only one it reads.
pub const ARTIFACT_FORMAT_VERSION: u32 = 2;

/// Sanity cap on any declared section length: a header or payload
/// claiming more than this is rejected as hostile before any allocation.
pub const MAX_SECTION_BYTES: u64 = 1 << 30;

/// Canonical file extension for model artifacts (`name@version.snna`).
pub const ARTIFACT_EXTENSION: &str = "snna";

/// Typed failure modes of artifact decoding. Every variant is a clean
/// error — a corrupt or hostile file can never panic the loader.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// Filesystem-level failure (open, read, write).
    Io(String),
    /// The first 8 bytes are not [`ARTIFACT_MAGIC`].
    BadMagic {
        /// What the file started with instead.
        found: Vec<u8>,
    },
    /// The format version is not the one this build reads.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// A declared section length exceeds [`MAX_SECTION_BYTES`].
    OversizedLength {
        /// Which length field was hostile (`"header"` or `"payload"`).
        field: &'static str,
        /// The declared byte count.
        declared: u64,
    },
    /// The file ends before the bytes its lengths promise.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The stored checksum does not match the bytes (bit flip or tamper).
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the file's bytes.
        computed: u64,
    },
    /// Structurally valid framing around semantically broken content
    /// (bad header or layout JSON, section lengths that disagree with the
    /// layout, non-finite values, out-of-range codes, geometry that does
    /// not fit the model, quantizers that do not match the backend hint,
    /// trailing garbage).
    Malformed(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "artifact i/o: {e}"),
            Self::BadMagic { found } => {
                write!(f, "bad artifact magic {found:?} (want {ARTIFACT_MAGIC:?})")
            }
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not readable by this build (it reads {supported})"
            ),
            Self::OversizedLength { field, declared } => write!(
                f,
                "declared {field} length {declared} exceeds the {MAX_SECTION_BYTES}-byte cap"
            ),
            Self::Truncated { needed, available } => write!(
                f,
                "artifact truncated: needed {needed} more bytes, found {available}"
            ),
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            Self::Malformed(msg) => write!(f, "malformed artifact: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// FNV-1a 64-bit over `bytes` — the artifact checksum. Dependency-free,
/// deterministic, and sensitive to any single-bit flip.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Which engine an artifact asks to be served on — the serializable twin
/// of [`crate::BackendChoice`] minus the reference simulator (artifacts
/// describe deployments; nobody deploys the reference backend).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BackendHint {
    /// The f32 batched CSR engine.
    Csr,
    /// The packed-log-code engine.
    Quant {
        /// Logarithmic quantization base.
        base: LogBase,
        /// Code width in bits, sign included.
        bits: u8,
        /// Serve through the shift-add (LogPe) datapath instead of the
        /// exact decode LUT.
        shift_add: bool,
    },
}

impl BackendHint {
    /// The paper's default quantized serving hint (5-bit, base `2^-1/2`,
    /// exact LUT).
    pub fn quant_default() -> Self {
        let q = QuantConfig::default();
        Self::Quant {
            base: q.base,
            bits: q.bits,
            shift_add: false,
        }
    }

    /// Stable label used in listings and reports.
    pub fn label(&self) -> String {
        match self {
            Self::Csr => "csr".into(),
            Self::Quant {
                base,
                bits,
                shift_add,
            } => format!(
                "quant{bits}b-{}{}",
                base.label(),
                if *shift_add { "-shiftadd" } else { "" }
            ),
        }
    }

    /// The quantized-path configuration, when this hint is quantized.
    pub fn quant_config(&self) -> Option<QuantConfig> {
        match self {
            Self::Csr => None,
            Self::Quant {
                base,
                bits,
                shift_add,
            } => Some(QuantConfig {
                base: *base,
                bits: *bits,
                mode: if *shift_add {
                    DecodeMode::ShiftAdd
                } else {
                    DecodeMode::Lut
                },
            }),
        }
    }
}

/// The artifact header: everything a registry needs to catalog a model
/// without deserializing its weights ([`ModelArtifact::peek`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactInfo {
    /// Model name (no `@` or path separators; the registry's routing key).
    pub name: String,
    /// Model version label (no `@` or path separators).
    pub version: String,
    /// Per-sample input dims the model serves (e.g. `[3, 32, 32]`).
    pub input_dims: Vec<usize>,
    /// Which engine to compile for serving.
    pub backend: BackendHint,
}

impl ArtifactInfo {
    /// `name@version` — the registry key this artifact resolves to.
    pub fn key(&self) -> String {
        format!("{}@{}", self.name, self.version)
    }

    /// Canonical file name for this artifact (`name@version.snna`).
    pub fn file_name(&self) -> String {
        format!("{}.{ARTIFACT_EXTENSION}", self.key())
    }
}

/// A deserialized model artifact: header info plus the model and, for a
/// quantized artifact, its packed codes and calibration — ready to
/// compile into a serving backend.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// Header fields (name, version, geometry, backend hint).
    pub info: ArtifactInfo,
    /// The converted model. For a quantized artifact this is the model
    /// [`build`](Self::build) was given, or — once loaded — the model
    /// with the decoded weights (`lut[code]`, the only weights the file
    /// carries). Either way its weight values are not what is served or
    /// saved: [`codes`](Self::codes) are.
    pub model: SnnModel,
    /// Per-weighted-layer quantizer calibration, in stage order; empty for
    /// a pure-f32 artifact.
    pub quantizers: Vec<LogQuantizer>,
    /// Per-weighted-layer packed log codes, one byte per weight in the
    /// weight tensor's order — what a quantized artifact ships and
    /// compiles in place of f32 weights; empty for a pure-f32 artifact.
    pub codes: Vec<Vec<u8>>,
}

/// Rejects names/versions that would break `name@version` keys, URLs or
/// file paths.
fn validate_label(field: &str, value: &str) -> Result<(), ArtifactError> {
    if value.is_empty() {
        return Err(ArtifactError::Malformed(format!("{field} is empty")));
    }
    if value.contains(['@', '/', '\\']) || value.contains(char::is_whitespace) {
        return Err(ArtifactError::Malformed(format!(
            "{field} {value:?} may not contain '@', path separators or whitespace"
        )));
    }
    Ok(())
}

impl ModelArtifact {
    /// Packages `model` as a named, versioned artifact, validating the
    /// geometry and (for quantized hints) calibrating one quantizer per
    /// weighted layer and encoding every weight once to its packed code —
    /// the codes and calibration ship inside the artifact, so a serving
    /// box never re-derives them.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Malformed`] for an unusable name/version, a
    /// geometry that does not fit the model, or an uncalibratable
    /// quantized hint (bad bit width, all-zero layer).
    pub fn build(
        name: &str,
        version: &str,
        model: SnnModel,
        input_dims: &[usize],
        backend: BackendHint,
    ) -> Result<Self, ArtifactError> {
        validate_label("artifact name", name)?;
        validate_label("artifact version", version)?;
        model
            .shape_trace(input_dims)
            .map_err(|e| ArtifactError::Malformed(format!("input dims: {e}")))?;
        let quantizers = match &backend {
            BackendHint::Csr => Vec::new(),
            BackendHint::Quant { base, bits, .. } => fit_layer_quantizers(&model, *base, *bits)
                .map_err(|e| ArtifactError::Malformed(e.to_string()))?,
        };
        let codes = encode_layer_codes(&model, &quantizers);
        Ok(Self {
            info: ArtifactInfo {
                name: name.into(),
                version: version.into(),
                input_dims: input_dims.to_vec(),
                backend,
            },
            model,
            quantizers,
            codes,
        })
    }

    /// Serializes the artifact to its framed byte format.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Malformed`] if the header fails to serialize, or
    /// the quantizers and codes do not match the model and backend hint
    /// (possible only after editing the public fields).
    pub fn to_bytes(&self) -> Result<Vec<u8>, ArtifactError> {
        let header = serde_json::to_string(&self.info)
            .map_err(|e| ArtifactError::Malformed(format!("serialize header: {e}")))?;
        let payload = self.encode_payload()?;
        let mut out = Vec::with_capacity(32 + header.len() + payload.len());
        out.extend_from_slice(&ARTIFACT_MAGIC);
        out.extend_from_slice(&ARTIFACT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(header.len() as u32).to_le_bytes());
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let checksum = fnv1a64(&out[ARTIFACT_MAGIC.len()..]);
        out.extend_from_slice(&checksum.to_le_bytes());
        Ok(out)
    }

    /// The v2 payload: layout length, layout JSON, raw sections.
    fn encode_payload(&self) -> Result<Vec<u8>, ArtifactError> {
        let weighted = self.model.weighted_layers();
        let quantized = self.info.backend.quant_config().is_some();
        let expect = if quantized { weighted } else { 0 };
        if self.quantizers.len() != expect || self.codes.len() != expect {
            return Err(ArtifactError::Malformed(format!(
                "{} quantizers and {} code layers for {expect} expected by the backend hint",
                self.quantizers.len(),
                self.codes.len()
            )));
        }
        let mut raw = Vec::new();
        let mut sections = Vec::with_capacity(2 * weighted);
        let mut codes = self.codes.iter();
        for layer in self.model.layers() {
            let (Some(weight), Some(bias)) = (layer.weight(), layer.bias()) else {
                continue;
            };
            let start = raw.len();
            match codes.next() {
                Some(codes) if codes.len() == weight.len() => raw.extend_from_slice(codes),
                Some(codes) => {
                    return Err(ArtifactError::Malformed(format!(
                        "{} codes for {} weights",
                        codes.len(),
                        weight.len()
                    )))
                }
                None => put_f32s(&mut raw, weight.as_slice()),
            }
            sections.push((raw.len() - start) as u64);
            put_f32s(&mut raw, bias.as_slice());
            sections.push(4 * bias.len() as u64);
        }
        let kernel = self.model.kernel();
        let layout = PayloadLayout {
            layers: self.model.layers().iter().map(LayerShape::of).collect(),
            tau_bits: kernel.tau().to_bits(),
            theta0_bits: kernel.theta0().to_bits(),
            window: self.model.window(),
            quantizers: self
                .quantizers
                .iter()
                .map(|q| QuantizerParams {
                    base: q.base(),
                    bits: q.bits(),
                    fsr_log2_bits: q.fsr_log2().to_bits(),
                })
                .collect(),
            sections,
        };
        let layout = serde_json::to_string(&layout)
            .map_err(|e| ArtifactError::Malformed(format!("serialize layout: {e}")))?;
        let mut out = Vec::with_capacity(4 + layout.len() + raw.len());
        out.extend_from_slice(&(layout.len() as u32).to_le_bytes());
        out.extend_from_slice(layout.as_bytes());
        out.extend_from_slice(&raw);
        Ok(out)
    }

    /// Decodes an artifact from bytes, verifying magic, format version,
    /// declared lengths, the checksum, and the semantic invariants (the
    /// layout parses, every section matches its layer's shape, values are
    /// finite, codes are in range, quantizers match the backend hint,
    /// geometry fits).
    ///
    /// # Errors
    ///
    /// The matching [`ArtifactError`] variant; never panics on hostile
    /// input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let (info, payload, consumed) = decode_framing(bytes)?;
        if consumed != bytes.len() {
            return Err(ArtifactError::Malformed(format!(
                "{} trailing bytes after the checksum",
                bytes.len() - consumed
            )));
        }
        validate_label("artifact name", &info.name)?;
        validate_label("artifact version", &info.version)?;
        decode_payload(info, payload)
    }

    /// Writes the artifact to `path` **crash-safely**: the bytes go to a
    /// temp sibling (`path` + `.tmp`), are fsynced, and only then renamed
    /// over `path`. A crash — or an injected
    /// [`FaultPoint::ArtifactWrite`](crate::FaultPoint::ArtifactWrite)
    /// tear — at any point leaves the published path either absent or a
    /// complete previous version, never a torn `.snna`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, or serialization
    /// errors from [`to_bytes`](Self::to_bytes).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let path = path.as_ref();
        let bytes = self.to_bytes()?;
        let io_err = |stage: &str, e: std::io::Error| {
            ArtifactError::Io(format!("{stage} {}: {e}", path.display()))
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        if crate::FaultInjector::global().should(crate::FaultPoint::ArtifactWrite) {
            // Simulate a crash mid-write: half the bytes land in the temp
            // file, the fsync+rename publish step never runs. The
            // published path must remain whatever it was before.
            let torn = &bytes[..bytes.len() / 2];
            let _ = std::fs::write(&tmp, torn);
            return Err(ArtifactError::Io(format!(
                "injected torn write: {} (temp sibling left truncated)",
                tmp.display()
            )));
        }
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err("create temp for", e))?;
        std::io::Write::write_all(&mut file, &bytes).map_err(|e| io_err("write temp for", e))?;
        file.sync_all().map_err(|e| io_err("fsync temp for", e))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(|e| io_err("publish (rename)", e))
    }

    /// Reads and fully validates an artifact from `path`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`from_bytes`](Self::from_bytes), plus
    /// [`ArtifactError::Io`] — including an injected
    /// [`FaultPoint::ArtifactRead`](crate::FaultPoint::ArtifactRead)
    /// failure, which surfaces before the file is touched.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        if crate::FaultInjector::global().should(crate::FaultPoint::ArtifactRead) {
            return Err(ArtifactError::Io(format!(
                "injected read fault: {}",
                path.as_ref().display()
            )));
        }
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| ArtifactError::Io(format!("read {}: {e}", path.as_ref().display())))?;
        Self::from_bytes(&bytes)
    }

    /// Reads only the framing and header of `path` — magic, version,
    /// lengths, checksum and [`ArtifactInfo`] — without decoding the
    /// payload. The registry uses this to catalog a model directory
    /// cheaply. Returns the info and the file's total size in bytes.
    ///
    /// # Errors
    ///
    /// Same framing conditions as [`from_bytes`](Self::from_bytes), plus
    /// [`ArtifactError::Io`].
    pub fn peek(path: impl AsRef<Path>) -> Result<(ArtifactInfo, u64), ArtifactError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| ArtifactError::Io(format!("read {}: {e}", path.as_ref().display())))?;
        let (info, _payload, consumed) = decode_framing(&bytes)?;
        if consumed != bytes.len() {
            return Err(ArtifactError::Malformed(format!(
                "{} trailing bytes after the checksum",
                bytes.len() - consumed
            )));
        }
        validate_label("artifact name", &info.name)?;
        validate_label("artifact version", &info.version)?;
        Ok((info, bytes.len() as u64))
    }

    /// Compiles the serving backend this artifact asks for, returning the
    /// engine and its compiled-table memory footprint (the byte accounting
    /// the registry's LRU budget charges). A quantized artifact compiles
    /// from its shipped codes and quantizers
    /// ([`QuantEngine::from_codes`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError`] if compilation fails (geometry, bit width,
    /// shift-add without the eq. 18 kernel).
    pub fn compile(&self) -> Result<(Arc<dyn InferenceBackend>, CsrFootprint), ConvertError> {
        let model = Arc::new(self.model.clone());
        match self.info.backend.quant_config() {
            None => {
                let engine = CsrEngine::compile_shared(model, &self.info.input_dims)?;
                let footprint = engine.compiled().footprint();
                Ok((Arc::new(engine), footprint))
            }
            Some(config) => {
                let engine = QuantEngine::from_codes(
                    model,
                    &self.info.input_dims,
                    config,
                    self.quantizers.clone(),
                    &self.codes,
                )?;
                let footprint = engine.compiled().footprint();
                Ok((Arc::new(engine), footprint))
            }
        }
    }
}

/// Shared framing decoder: checks magic, version, lengths and checksum,
/// parses the header, and returns `(info, payload, bytes_consumed)`.
fn decode_framing(bytes: &[u8]) -> Result<(ArtifactInfo, &[u8], usize), ArtifactError> {
    let need = |cursor: usize, n: usize| -> Result<(), ArtifactError> {
        if bytes.len() < cursor + n {
            Err(ArtifactError::Truncated {
                needed: cursor + n - bytes.len(),
                available: bytes.len().saturating_sub(cursor),
            })
        } else {
            Ok(())
        }
    };
    need(0, ARTIFACT_MAGIC.len() + 8)?;
    if bytes[..ARTIFACT_MAGIC.len()] != ARTIFACT_MAGIC {
        return Err(ArtifactError::BadMagic {
            found: bytes[..ARTIFACT_MAGIC.len()].to_vec(),
        });
    }
    let mut cursor = ARTIFACT_MAGIC.len();
    let version = u32::from_le_bytes(bytes[cursor..cursor + 4].try_into().expect("4 bytes"));
    cursor += 4;
    // Exactly one version is readable: there is no decoder for any other
    // payload, so older and newer files alike are refused here, before
    // the checksum pass.
    if version != ARTIFACT_FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: ARTIFACT_FORMAT_VERSION,
        });
    }
    let header_len = u32::from_le_bytes(bytes[cursor..cursor + 4].try_into().expect("4 bytes"));
    cursor += 4;
    if u64::from(header_len) > MAX_SECTION_BYTES {
        return Err(ArtifactError::OversizedLength {
            field: "header",
            declared: u64::from(header_len),
        });
    }
    need(cursor, header_len as usize)?;
    let header = &bytes[cursor..cursor + header_len as usize];
    cursor += header_len as usize;
    need(cursor, 8)?;
    let payload_len = u64::from_le_bytes(bytes[cursor..cursor + 8].try_into().expect("8 bytes"));
    cursor += 8;
    if payload_len > MAX_SECTION_BYTES {
        return Err(ArtifactError::OversizedLength {
            field: "payload",
            declared: payload_len,
        });
    }
    need(cursor, payload_len as usize)?;
    let payload = &bytes[cursor..cursor + payload_len as usize];
    cursor += payload_len as usize;
    need(cursor, 8)?;
    let stored = u64::from_le_bytes(bytes[cursor..cursor + 8].try_into().expect("8 bytes"));
    let computed = fnv1a64(&bytes[ARTIFACT_MAGIC.len()..cursor]);
    cursor += 8;
    if stored != computed {
        return Err(ArtifactError::ChecksumMismatch { stored, computed });
    }
    let header = std::str::from_utf8(header)
        .map_err(|_| ArtifactError::Malformed("header is not UTF-8".into()))?;
    let info: ArtifactInfo = serde_json::from_str(header)
        .map_err(|e| ArtifactError::Malformed(format!("header JSON: {e}")))?;
    Ok((info, payload, cursor))
}

/// The payload's layout section: everything but the weight and bias
/// values, as integers (floats travel as their IEEE-754 bit patterns).
#[derive(Debug, Serialize, Deserialize)]
struct PayloadLayout {
    /// Every layer's kind and geometry, in execution order.
    layers: Vec<LayerShape>,
    /// Kernel τ as `f32::to_bits`.
    tau_bits: u32,
    /// Kernel θ₀ as `f32::to_bits`.
    theta0_bits: u32,
    /// TTFS window.
    window: u32,
    /// One per weighted layer for a quantized artifact, else none.
    quantizers: Vec<QuantizerParams>,
    /// Byte length of every raw section: weights, then bias, of each
    /// weighted layer in layer order.
    sections: Vec<u64>,
}

/// One layer's kind and geometry (its tensor shapes follow from it).
#[derive(Debug, Serialize, Deserialize)]
enum LayerShape {
    /// Weights `[out_channels, in_channels, kernel, kernel]`, bias
    /// `[out_channels]`.
    Conv(Conv2dSpec),
    /// Weights `[outputs, inputs]`, bias `[outputs]`.
    Dense {
        outputs: usize,
        inputs: usize,
    },
    MaxPool(Pool2dSpec),
    AvgPool(Pool2dSpec),
    Flatten,
}

/// A layer quantizer's parameters; `fsr_log2` as `f32::to_bits`.
#[derive(Debug, Serialize, Deserialize)]
struct QuantizerParams {
    base: LogBase,
    bits: u8,
    fsr_log2_bits: u32,
}

impl LayerShape {
    fn of(layer: &SnnLayer) -> Self {
        match layer {
            SnnLayer::Conv { spec, .. } => Self::Conv(*spec),
            SnnLayer::Dense { weight, .. } => Self::Dense {
                outputs: weight.dims()[0],
                inputs: weight.dims()[1],
            },
            SnnLayer::MaxPool { spec } => Self::MaxPool(*spec),
            SnnLayer::AvgPool { spec } => Self::AvgPool(*spec),
            SnnLayer::Flatten => Self::Flatten,
        }
    }

    /// The weight tensor dims of a weighted layer (its bias has
    /// `dims[0]` entries), `None` for a structural one.
    fn weight_dims(&self) -> Option<Vec<usize>> {
        match *self {
            Self::Conv(spec) => Some(vec![
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
            ]),
            Self::Dense { outputs, inputs } => Some(vec![outputs, inputs]),
            _ => None,
        }
    }

    /// Every geometry field that sizes something or divides must be ≥ 1,
    /// and all of them fit `u32`, so shape propagation cannot overflow.
    fn check(&self) -> Result<(), ArtifactError> {
        let (positive, other) = match *self {
            Self::Conv(s) => (
                vec![s.in_channels, s.out_channels, s.kernel, s.stride],
                s.padding,
            ),
            Self::Dense { outputs, inputs } => (vec![outputs, inputs], 0),
            Self::MaxPool(s) | Self::AvgPool(s) => (vec![s.window, s.stride], 0),
            Self::Flatten => (Vec::new(), 0),
        };
        let limit = u32::MAX as usize;
        if positive.iter().all(|&v| (1..=limit).contains(&v)) && other <= limit {
            Ok(())
        } else {
            Err(ArtifactError::Malformed(format!(
                "layer geometry {self:?} out of range"
            )))
        }
    }

    /// The layer itself; `params` (weight, bias) is `Some` exactly for
    /// a weighted shape.
    fn into_layer(self, params: Option<(Tensor, Tensor)>) -> SnnLayer {
        match (self, params) {
            (Self::Conv(spec), Some((weight, bias))) => SnnLayer::Conv { spec, weight, bias },
            (Self::Dense { .. }, Some((weight, bias))) => SnnLayer::Dense { weight, bias },
            (Self::MaxPool(spec), _) => SnnLayer::MaxPool { spec },
            (Self::AvgPool(spec), _) => SnnLayer::AvgPool { spec },
            _ => SnnLayer::Flatten,
        }
    }
}

/// Appends `values` as little-endian f32s.
fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(4 * values.len());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Reads little-endian f32s, refusing any NaN or infinity.
fn read_f32s(bytes: &[u8], what: &str) -> Result<Vec<f32>, ArtifactError> {
    let values: Vec<f32> = bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    match values.iter().position(|v| !v.is_finite()) {
        None => Ok(values),
        Some(i) => Err(ArtifactError::Malformed(format!(
            "{what} value {i} is {}",
            values[i]
        ))),
    }
}

/// Decodes and validates a v2 payload into the artifact `info` heads.
fn decode_payload(info: ArtifactInfo, payload: &[u8]) -> Result<ModelArtifact, ArtifactError> {
    let malformed = ArtifactError::Malformed;
    let Some((len, rest)) = payload.split_first_chunk::<4>() else {
        return Err(malformed("payload too short for its layout length".into()));
    };
    let len = u32::from_le_bytes(*len) as usize;
    if len > rest.len() {
        return Err(malformed(format!(
            "layout length {len} exceeds the {} payload bytes after it",
            rest.len()
        )));
    }
    let (layout, mut raw) = rest.split_at(len);
    let layout =
        std::str::from_utf8(layout).map_err(|_| malformed("payload layout is not UTF-8".into()))?;
    let layout: PayloadLayout =
        serde_json::from_str(layout).map_err(|e| malformed(format!("payload layout JSON: {e}")))?;

    let (tau, theta0) = (
        f32::from_bits(layout.tau_bits),
        f32::from_bits(layout.theta0_bits),
    );
    if !(tau.is_finite() && tau > 0.0 && theta0.is_finite() && theta0 > 0.0) {
        return Err(malformed(format!(
            "kernel tau {tau} / theta0 {theta0} must be finite and positive"
        )));
    }
    for shape in &layout.layers {
        shape.check()?;
    }
    let weighted = layout
        .layers
        .iter()
        .filter(|l| l.weight_dims().is_some())
        .count();
    let config = info.backend.quant_config();
    let quantizers = match config {
        None if layout.quantizers.is_empty() => Vec::new(),
        None => {
            return Err(malformed(
                "f32 artifact carries quantizer parameters".into(),
            ))
        }
        Some(config) => {
            if layout.quantizers.len() != weighted {
                return Err(malformed(format!(
                    "{} quantizers for {weighted} weighted layers",
                    layout.quantizers.len()
                )));
            }
            layout
                .quantizers
                .iter()
                .map(|p| decode_quantizer(p, config))
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    if layout.sections.len() != 2 * weighted {
        return Err(malformed(format!(
            "{} sections for {weighted} weighted layers (want weights + bias each)",
            layout.sections.len()
        )));
    }
    let declared = layout
        .sections
        .iter()
        .try_fold(0u64, |sum, &n| sum.checked_add(n));
    if declared != Some(raw.len() as u64) {
        return Err(malformed(format!(
            "sections declare {declared:?} bytes, the payload holds {}",
            raw.len()
        )));
    }

    let weight_width = if config.is_some() { 1 } else { 4 };
    let mut sections = layout.sections.iter().copied();
    let mut quantizer = quantizers.iter();
    let mut codes = Vec::with_capacity(quantizers.len());
    let mut layers = Vec::with_capacity(layout.layers.len());
    for (i, shape) in layout.layers.into_iter().enumerate() {
        let Some(dims) = shape.weight_dims() else {
            layers.push(shape.into_layer(None));
            continue;
        };
        let count = dims
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .unwrap_or(usize::MAX);
        let mut take = |want: usize, what: &str| {
            let declared = sections.next().expect("two sections per weighted layer");
            if declared != want as u64 {
                return Err(malformed(format!(
                    "layer {i} {what} section declares {declared} bytes, its shape needs {want}"
                )));
            }
            let (section, rest) = raw.split_at(want);
            raw = rest;
            Ok(section)
        };
        let weight_bytes = take(count.saturating_mul(weight_width), "weight")?;
        let bias = read_f32s(take(4 * dims[0], "bias")?, "bias")?;
        let weight = match quantizer.next() {
            None => read_f32s(weight_bytes, "weight")?,
            Some(q) => {
                let lut = q.decode_lut();
                if let Some(at) = weight_bytes.iter().position(|&c| c as usize >= lut.len()) {
                    return Err(malformed(format!(
                        "layer {i} code {} at {at} is outside the {}-bit packed range 0..{}",
                        weight_bytes[at],
                        q.bits(),
                        lut.len()
                    )));
                }
                codes.push(weight_bytes.to_vec());
                weight_bytes.iter().map(|&c| lut[c as usize]).collect()
            }
        };
        let tensor = |data, dims: &[usize]| {
            Tensor::from_vec(data, dims).map_err(|e| malformed(format!("layer {i}: {e}")))
        };
        let params = (tensor(weight, &dims)?, tensor(bias, &dims[..1])?);
        layers.push(shape.into_layer(Some(params)));
    }
    let model = SnnModel::from_parts(layers, Base2Kernel::new(tau, theta0), layout.window);
    check_geometry(&model, &info.input_dims)?;
    Ok(ModelArtifact {
        info,
        model,
        quantizers,
        codes,
    })
}

/// A quantizer from its shipped parameters, which must agree with the
/// header's backend hint and decode to finite values only.
fn decode_quantizer(
    p: &QuantizerParams,
    config: QuantConfig,
) -> Result<LogQuantizer, ArtifactError> {
    if p.base != config.base || p.bits != config.bits {
        return Err(ArtifactError::Malformed(format!(
            "quantizer {}-bit {} disagrees with the header's {}-bit {}",
            p.bits,
            p.base.label(),
            config.bits,
            config.base.label()
        )));
    }
    // Eq. 16 bases the hardware uses have z ≤ 2; z > 8 would only size
    // absurd shift-add grids.
    if p.base.z() > 8 {
        return Err(ArtifactError::Malformed(format!(
            "quantizer base exponent z = {} is out of range",
            p.base.z()
        )));
    }
    let fsr_log2 = f32::from_bits(p.fsr_log2_bits);
    let q = LogQuantizer::with_fsr(p.base, p.bits, fsr_log2)
        .ok()
        .filter(|q| (2..=8).contains(&q.bits()) && q.decode_lut().iter().all(|v| v.is_finite()))
        .ok_or_else(|| {
            ArtifactError::Malformed(format!(
                "quantizer {}-bit fsr_log2 {fsr_log2} does not decode to finite weights",
                p.bits
            ))
        })?;
    Ok(q)
}

/// Propagates `input_dims` through `model`, requiring every boundary's
/// neuron grid to be non-empty and to fit `u32` — checked before each
/// layer reads it, so no shape arithmetic can overflow on hostile
/// geometry.
fn check_geometry(model: &SnnModel, input_dims: &[usize]) -> Result<(), ArtifactError> {
    let fits = |dims: &[usize]| {
        dims.iter()
            .try_fold(1u64, |n, &d| n.checked_mul(d as u64))
            .is_some_and(|n| (1..=u64::from(u32::MAX)).contains(&n))
            && dims.iter().all(|&d| d > 0)
    };
    let mut dims = input_dims.to_vec();
    for layer in model.layers() {
        if !fits(&dims) {
            break;
        }
        dims = layer
            .out_dims(&dims)
            .map_err(|e| ArtifactError::Malformed(format!("input dims: {e}")))?;
    }
    if fits(&dims) {
        Ok(())
    } else {
        Err(ArtifactError::Malformed(format!(
            "neuron grid {dims:?} is empty or exceeds u32 indexing"
        )))
    }
}

#[cfg(test)]
mod tests;
