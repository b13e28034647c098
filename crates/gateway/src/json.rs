//! The inference wire format: JSON bodies for `POST /v1/infer`.
//!
//! Request — sample dims plus flat f32 pixels, with optional scheduling
//! fields carried straight into the runtime's
//! [`snn_runtime::SubmitOptions`]:
//!
//! ```json
//! {"dims": [3, 32, 32], "pixels": [0.1, 0.2, ...],
//!  "deadline_ms": 5.0, "priority": 2}
//! ```
//!
//! Response — logits, top-1 class, and the timing split the streaming
//! server measured for this request:
//!
//! ```json
//! {"logits": [...], "top1": 3, "batch_size": 4,
//!  "queue_wait_us": 812.0, "exec_us": 1554.0, "e2e_us": 2410.0}
//! ```
//!
//! Two codecs speak this format. The `Serialize`/`Deserialize` impls ride
//! the vendored `serde_json` shim, whose float printing is
//! shortest-round-trip: an `f32 → text → f32` trip is bit-exact, which is
//! what lets the end-to-end tests demand logits *identical* to the
//! in-process engines through the HTTP boundary. The gateway's own hot
//! path uses the one-pass pair instead, [`InferRequest::decode`] and
//! [`InferResponse::encode`]: the decoder writes pixels straight into the
//! `Vec<f32>` that becomes the batch tensor, with no `Content` tree in
//! between, and the writer renders the response without building one.
//! Neither has a grammar of its own: the decoder reads tokens with the
//! shim's [`Reader`] and converts values with the shim's `Deserialize`
//! impls, and the writer prints floats with [`serde_json::write_f64`]. Both
//! are differential-tested against the shim: a decoded request is
//! bit-identical to `serde_json::from_str`'s, every error message is the
//! shim's own (anything outside the canonical request shape — unknown or
//! repeated keys, a non-number pixel, malformed JSON — is handed to the
//! shim, which therefore words every `400`), and an encoded response is
//! byte-identical to `serde_json::to_string`'s.
//!
//! [`InferRequest`] implements [`Deserialize`] by hand because
//! `deadline_ms` and `priority` are optional (the derive shim requires
//! every field); everything else derives.

use serde::{field, Content, Deserialize, Error as SerdeError, Serialize};
use serde_json::Reader;
use snn_runtime::{ModelStatus, SubmitOptions};
use snn_trace::{AttrValue, SpanSnapshot, TraceId};
use std::fmt::Write as _;
use std::time::Duration;

/// One inference request as it appears on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Per-sample dims, e.g. `[3, 32, 32]`; must match the gateway's
    /// configured input geometry exactly.
    pub dims: Vec<usize>,
    /// Flat row-major pixels; length must equal the product of `dims`.
    pub pixels: Vec<f32>,
    /// Optional batching deadline in milliseconds (fractional allowed).
    /// Omitted → the streaming server's configured `max_delay`.
    pub deadline_ms: Option<f64>,
    /// Optional EDF tie-break priority (0–255, default 0; higher sorts
    /// earlier in the formed batch on equal deadlines).
    pub priority: u8,
}

impl InferRequest {
    /// A request with default scheduling (no explicit deadline, priority 0).
    pub fn new(dims: Vec<usize>, pixels: Vec<f32>) -> Self {
        Self {
            dims,
            pixels,
            deadline_ms: None,
            priority: 0,
        }
    }

    /// Converts the wire scheduling fields into runtime [`SubmitOptions`].
    ///
    /// # Errors
    ///
    /// Returns a message suitable for a `400` body when `deadline_ms` is
    /// negative or not a finite, representable duration.
    pub fn submit_options(&self) -> Result<SubmitOptions, String> {
        let deadline = match self.deadline_ms {
            None => None,
            Some(ms) => Some(
                Duration::try_from_secs_f64(ms / 1e3)
                    .map_err(|_| format!("deadline_ms {ms} is not a valid duration"))?,
            ),
        };
        Ok(SubmitOptions {
            deadline,
            priority: self.priority,
            trace: None,
        })
    }

    /// Validates the sample geometry against the gateway's configured
    /// dims.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for a `400` body when `dims` differs
    /// from `expected` or `pixels` does not fill the geometry.
    pub fn validate(&self, expected: &[usize]) -> Result<(), String> {
        if self.dims != expected {
            return Err(format!(
                "dims {:?} do not match the served model's input dims {:?}",
                self.dims, expected
            ));
        }
        let len: usize = self.dims.iter().product();
        if self.pixels.len() != len {
            return Err(format!(
                "pixels has {} values but dims {:?} require {}",
                self.pixels.len(),
                self.dims,
                len
            ));
        }
        Ok(())
    }
}

impl Serialize for InferRequest {
    fn to_content(&self) -> Content {
        let mut map = vec![
            ("dims".to_string(), self.dims.to_content()),
            ("pixels".to_string(), self.pixels.to_content()),
        ];
        if let Some(ms) = self.deadline_ms {
            map.push(("deadline_ms".to_string(), Content::F64(ms)));
        }
        if self.priority != 0 {
            map.push(("priority".to_string(), Content::U64(self.priority.into())));
        }
        Content::Map(map)
    }
}

impl Deserialize for InferRequest {
    fn from_content(content: &Content) -> Result<Self, SerdeError> {
        let map = content
            .as_map()
            .ok_or_else(|| SerdeError::msg("infer request must be a JSON object"))?;
        let dims = Vec::<usize>::from_content(field(map, "dims")?)?;
        let pixels = Vec::<f32>::from_content(field(map, "pixels")?)?;
        let lookup = |key: &str| map.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let deadline_ms = deadline_from(lookup("deadline_ms"))
            .ok_or_else(|| SerdeError::msg("deadline_ms must be a number"))?;
        let priority = priority_from(lookup("priority"))
            .ok_or_else(|| SerdeError::msg("priority must be an integer in 0..=255"))?;
        Ok(Self {
            dims,
            pixels,
            deadline_ms,
            priority,
        })
    }
}

/// `deadline_ms` as the wire reads it: absent or `null` is no deadline,
/// any number is its value, anything else is `None`.
fn deadline_from(value: Option<&Content>) -> Option<Option<f64>> {
    match value {
        None | Some(Content::Null) => Some(None),
        Some(v) => v.as_f64().map(Some),
    }
}

/// `priority` as the wire reads it: absent or `null` is 0, an integer in
/// `0..=255` is itself, anything else is `None`.
fn priority_from(value: Option<&Content>) -> Option<u8> {
    match value {
        None | Some(Content::Null) => Some(0),
        Some(v) => v.as_u64().and_then(|raw| u8::try_from(raw).ok()),
    }
}

impl InferRequest {
    /// Decodes a request body in one pass: pixels go straight into the
    /// `Vec<f32>` the batch tensor is built from, with no `Content` tree in
    /// between. The tokens are read by the shim's own [`Reader`] and each
    /// value is converted by the same `Deserialize` impl `from_str` uses,
    /// so the result is bit-identical to
    /// `serde_json::from_str::<InferRequest>`'s. A body outside the
    /// canonical shape — unknown or repeated keys, a value of the wrong
    /// kind, anything malformed — is handed to the shim, so every error is
    /// the shim's own.
    ///
    /// # Errors
    ///
    /// The `400` message: `request body is not valid UTF-8`, or `bad JSON: `
    /// followed by the shim's error.
    pub fn decode(body: &[u8]) -> Result<Self, String> {
        let text =
            std::str::from_utf8(body).map_err(|_| "request body is not valid UTF-8".to_string())?;
        if let Some(request) = canonical_request(&mut Reader::new(text)) {
            return Ok(request);
        }
        serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))
    }
}

/// The canonical request shape — one object, each known key at most once,
/// number arrays for `dims` and `pixels` — read off `r`; `None` for
/// anything else, never an error of its own.
fn canonical_request(r: &mut Reader<'_>) -> Option<InferRequest> {
    let (mut dims, mut pixels, mut deadline_ms, mut priority) = (None, None, None, None);
    r.skip_ws();
    if !r.eat(b'{') {
        return None;
    }
    loop {
        r.skip_ws();
        let key = r.parse_string().ok()?;
        r.skip_ws();
        if !r.eat(b':') {
            return None;
        }
        r.skip_ws();
        match key.as_str() {
            "dims" if dims.is_none() => dims = Some(array::<usize>(r, 0)?),
            "pixels" if pixels.is_none() => {
                // Reserve what the dims (when they came first) call for,
                // but never more than the rest of the body could hold.
                let len = dims
                    .as_deref()
                    .and_then(|d: &[usize]| d.iter().try_fold(1usize, |n, &d| n.checked_mul(d)));
                let room = r.remaining() / 2 + 1;
                pixels = Some(array::<f32>(r, len.unwrap_or(0).min(room))?);
            }
            "deadline_ms" if deadline_ms.is_none() => {
                deadline_ms = Some(deadline_from(Some(&r.parse_value().ok()?))?);
            }
            "priority" if priority.is_none() => {
                priority = Some(priority_from(Some(&r.parse_value().ok()?))?);
            }
            _ => return None,
        }
        r.skip_ws();
        if !r.eat(b',') {
            if !r.eat(b'}') {
                return None;
            }
            break;
        }
    }
    r.skip_ws();
    if r.remaining() != 0 {
        return None;
    }
    Some(InferRequest {
        dims: dims?,
        pixels: pixels?,
        deadline_ms: deadline_ms.flatten(),
        priority: priority.unwrap_or(0),
    })
}

/// `[v, …]`, each value converted as `Vec<T>`'s `Deserialize` would.
fn array<T: Deserialize>(r: &mut Reader<'_>, capacity: usize) -> Option<Vec<T>> {
    let mut out = Vec::with_capacity(capacity);
    if !r.eat(b'[') {
        return None;
    }
    r.skip_ws();
    if r.eat(b']') {
        return Some(out);
    }
    loop {
        r.skip_ws();
        out.push(T::from_content(&r.parse_value().ok()?).ok()?);
        r.skip_ws();
        if !r.eat(b',') {
            return r.eat(b']').then_some(out);
        }
    }
}

/// One successful inference response as it appears on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferResponse {
    /// Decoded logits for this sample, `[classes]`.
    pub logits: Vec<f32>,
    /// Index of the largest logit.
    pub top1: usize,
    /// Images in the formed batch this request rode in.
    pub batch_size: usize,
    /// Time from submission until an executor — a worker, or the
    /// connection thread itself — began executing the batch, µs.
    pub queue_wait_us: f64,
    /// Backend execution time of the formed batch, µs.
    pub exec_us: f64,
    /// Submit-to-result latency as measured inside the gateway, µs.
    pub e2e_us: f64,
    /// Modeled per-image energy of the formed batch this request rode in,
    /// µJ on the paper's proposed processor configuration. `0.0` when the
    /// serving stack has no energy pricer attached (telemetry disabled).
    pub energy_uj: f64,
    /// The request's trace id (16 hex digits); empty when the gateway
    /// serves an untraced [`snn_runtime::StreamingServer`]. Feed it to
    /// `GET /v1/trace/<id>` to retrieve the recorded span tree.
    pub trace_id: String,
}

impl InferResponse {
    /// Renders the response body in one pass, without a `Content` tree:
    /// the same bytes as `serde_json::to_string(self)` — fields in
    /// declaration order, each float printed by the shim's own
    /// [`serde_json::write_f64`].
    ///
    /// # Errors
    ///
    /// The shim's error when a float is not finite (JSON cannot spell it).
    pub fn encode(&self) -> Result<Vec<u8>, serde_json::Error> {
        let mut out = String::with_capacity(192 + 24 * self.logits.len() + self.trace_id.len());
        out.push_str("{\"logits\":[");
        for (i, &logit) in self.logits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde_json::write_f64(f64::from(logit), &mut out)?;
        }
        let _ = write!(
            out,
            "],\"top1\":{},\"batch_size\":{},\"queue_wait_us\":",
            self.top1, self.batch_size
        );
        serde_json::write_f64(self.queue_wait_us, &mut out)?;
        out.push_str(",\"exec_us\":");
        serde_json::write_f64(self.exec_us, &mut out)?;
        out.push_str(",\"e2e_us\":");
        serde_json::write_f64(self.e2e_us, &mut out)?;
        out.push_str(",\"energy_uj\":");
        serde_json::write_f64(self.energy_uj, &mut out)?;
        out.push_str(",\"trace_id\":");
        // The shim quotes the one string field, so escaping stays its own.
        out.push_str(&serde_json::to_string(&self.trace_id)?);
        out.push('}');
        Ok(out.into_bytes())
    }
}

/// Renders one recorded span tree as the `GET /v1/trace/<id>` response
/// body:
///
/// ```json
/// {"trace_id": "000000800000002a", "spans": [
///   {"span_id": 3, "parent_id": 0, "name": "http.request",
///    "start_us": 12, "dur_us": 840, "track": 2,
///    "attrs": {"status": 200}}, ...]}
/// ```
///
/// Spans arrive sorted by start time; attribute values keep their native
/// JSON types (strings stay strings, counters stay integers).
pub fn render_trace(trace: TraceId, spans: &[SpanSnapshot]) -> Vec<u8> {
    let spans = spans
        .iter()
        .map(|span| {
            let attrs = span
                .attrs
                .iter()
                .map(|(key, value)| {
                    let value = match *value {
                        AttrValue::Str(s) => Content::Str(s.to_string()),
                        AttrValue::U64(n) => Content::U64(n),
                        AttrValue::F64(x) => Content::F64(x),
                    };
                    ((*key).to_string(), value)
                })
                .collect();
            Content::Map(vec![
                ("span_id".to_string(), Content::U64(span.span_id)),
                ("parent_id".to_string(), Content::U64(span.parent_id)),
                ("name".to_string(), Content::Str(span.name.to_string())),
                ("start_us".to_string(), Content::U64(span.start_us)),
                ("dur_us".to_string(), Content::U64(span.dur_us)),
                ("track".to_string(), Content::U64(span.track.into())),
                ("attrs".to_string(), Content::Map(attrs)),
            ])
        })
        .collect();
    let body = Content::Map(vec![
        ("trace_id".to_string(), Content::Str(trace.to_string())),
        ("spans".to_string(), Content::Seq(spans)),
    ]);
    serde_json::to_string(&body)
        .unwrap_or_else(|_| "{\"error\":\"internal error\"}".to_string())
        .into_bytes()
}

/// The `POST /v1/models/<name>/swap` request body: which version the
/// name's active pointer should move to.
///
/// ```json
/// {"version": "2"}
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwapRequest {
    /// Target version label (the artifact `name@version` must exist).
    pub version: String,
}

/// The `GET /v1/models` response body: one
/// [`ModelStatus`] row per cataloged artifact.
#[derive(Debug, Clone, Serialize)]
pub struct ModelListBody {
    /// Cataloged models with residency state, sorted by `name@version`.
    pub models: Vec<ModelStatus>,
}

/// The JSON error body every non-2xx response carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable reason, safe to echo to clients.
    pub error: String,
}

impl ErrorBody {
    /// Serializes an error message to its JSON wire form.
    pub fn render(message: impl Into<String>) -> Vec<u8> {
        let body = ErrorBody {
            error: message.into(),
        };
        serde_json::to_string(&body)
            .unwrap_or_else(|_| "{\"error\":\"internal error\"}".to_string())
            .into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_with_options() {
        let req = InferRequest {
            dims: vec![1, 2, 2],
            pixels: vec![0.25, 0.5, 0.75, 1.0],
            deadline_ms: Some(2.5),
            priority: 7,
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: InferRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn request_optional_fields_default() {
        let back: InferRequest =
            serde_json::from_str(r#"{"dims":[1,1,2],"pixels":[0.1,0.9]}"#).unwrap();
        assert_eq!(back.deadline_ms, None);
        assert_eq!(back.priority, 0);
        let opts = back.submit_options().unwrap();
        assert_eq!(opts, SubmitOptions::default());
    }

    #[test]
    fn request_rejects_bad_shapes() {
        assert!(serde_json::from_str::<InferRequest>("[1,2]").is_err());
        assert!(serde_json::from_str::<InferRequest>(r#"{"dims":[1]}"#).is_err());
        assert!(serde_json::from_str::<InferRequest>(
            r#"{"dims":[1],"pixels":[0.5],"priority":999}"#
        )
        .is_err());
        assert!(serde_json::from_str::<InferRequest>(
            r#"{"dims":[1],"pixels":[0.5],"deadline_ms":"soon"}"#
        )
        .is_err());
    }

    #[test]
    fn validate_checks_geometry() {
        let req = InferRequest::new(vec![1, 2, 2], vec![0.0; 4]);
        assert!(req.validate(&[1, 2, 2]).is_ok());
        assert!(req.validate(&[3, 2, 2]).unwrap_err().contains("dims"));
        let short = InferRequest::new(vec![1, 2, 2], vec![0.0; 3]);
        assert!(short.validate(&[1, 2, 2]).unwrap_err().contains("pixels"));
    }

    #[test]
    fn submit_options_rejects_negative_deadline() {
        let mut req = InferRequest::new(vec![1], vec![0.5]);
        req.deadline_ms = Some(-1.0);
        assert!(req.submit_options().is_err());
        req.deadline_ms = Some(3.5);
        let opts = req.submit_options().unwrap();
        assert_eq!(opts.deadline, Some(Duration::from_micros(3500)));
    }

    #[test]
    fn pixel_floats_roundtrip_bit_exact() {
        // The equivalence guarantee across the HTTP boundary hangs on
        // this: shortest-round-trip printing makes f32 → text → f32 exact.
        let vals: Vec<f32> = vec![0.1, 1.0 / 3.0, -0.687_194_9, 2.337_512e-6, 0.999_999_94];
        let req = InferRequest::new(vec![5], vals.clone());
        let json = serde_json::to_string(&req).unwrap();
        let back: InferRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.pixels.len(), vals.len());
        for (a, b) in back.pixels.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = InferResponse {
            logits: vec![0.1, -0.9],
            top1: 0,
            batch_size: 3,
            queue_wait_us: 12.5,
            exec_us: 99.0,
            e2e_us: 120.0,
            energy_uj: 431.25,
            trace_id: "00000080000002ab".to_string(),
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: InferResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn render_trace_keeps_native_attr_types() {
        let trace = TraceId::from_raw(0xab).unwrap();
        let spans = vec![SpanSnapshot {
            trace,
            span_id: 2,
            parent_id: 1,
            name: "batch.flush",
            start_us: 10,
            dur_us: 0,
            track: 3,
            attrs: vec![
                ("reason", AttrValue::Str("max_batch")),
                ("batch_size", AttrValue::U64(4)),
            ],
        }];
        let body = String::from_utf8(render_trace(trace, &spans)).unwrap();
        let parsed: Content = serde_json::from_str(&body).unwrap();
        let map = parsed.as_map().unwrap();
        assert_eq!(
            field(map, "trace_id").unwrap().as_str(),
            Some("00000000000000ab")
        );
        let spans_json = field(map, "spans").unwrap().as_seq().unwrap();
        let span = spans_json[0].as_map().unwrap();
        assert_eq!(field(span, "name").unwrap().as_str(), Some("batch.flush"));
        assert_eq!(field(span, "parent_id").unwrap().as_u64(), Some(1));
        let attrs = field(span, "attrs").unwrap().as_map().unwrap();
        assert_eq!(field(attrs, "reason").unwrap().as_str(), Some("max_batch"));
        assert_eq!(field(attrs, "batch_size").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn error_body_renders_json() {
        let body = String::from_utf8(ErrorBody::render("queue full")).unwrap();
        assert_eq!(body, r#"{"error":"queue full"}"#);
    }

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// What the gateway answered before the one-pass decoder: the shim's
    /// verdict, worded as the `400` body words it.
    fn shim_decode(body: &[u8]) -> Result<InferRequest, String> {
        let text =
            std::str::from_utf8(body).map_err(|_| "request body is not valid UTF-8".to_string())?;
        serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))
    }

    /// Bit-level equality: `-0.0` vs `0.0` and every NaN payload count.
    fn same_request(a: &InferRequest, b: &InferRequest) -> bool {
        a.dims == b.dims
            && a.priority == b.priority
            && a.deadline_ms.map(f64::to_bits) == b.deadline_ms.map(f64::to_bits)
            && a.pixels.len() == b.pixels.len()
            && a.pixels
                .iter()
                .zip(&b.pixels)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn assert_decodes_like_the_shim(body: &[u8]) {
        let ours = InferRequest::decode(body);
        let shim = shim_decode(body);
        let agree = match (&ours, &shim) {
            (Ok(a), Ok(b)) => same_request(a, b),
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        assert!(
            agree,
            "body {:?}\none-pass: {ours:?}\nshim:     {shim:?}",
            String::from_utf8_lossy(body)
        );
    }

    /// Number spellings that sit on an edge of the shim's number scan or
    /// of `f64 → f32` narrowing.
    const EDGE_NUMBERS: &[&str] = &[
        "0",
        "-0",
        "-0.0",
        "0.0",
        "00",
        "007",
        "-00.5e1",
        "1.",
        "1.e5",
        "1E5",
        "1e05",
        "1e400",
        "-1e400",
        "1e-400",
        "4.9e-324",
        "2.4703282292062328e-324",
        "1.401298464324817e-45",
        "7.006492321624085e-46",
        "1.1754942e-38",
        "3.4028235677973366e38",
        "3.4028236e38",
        "16777217",
        "9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "0.1",
        "0.30000000000000004",
        "1e",
        "1e+",
        "-",
        "--1",
        "1-2",
        "1.2.3",
        "0x10",
        "+1",
        ".5",
        "1e-",
        "256",
        "255",
        "-1",
        "2.5",
    ];

    fn number(rng: &mut StdRng) -> String {
        match rng.gen_range(0..6) {
            0 => EDGE_NUMBERS[rng.gen_range(0..EDGE_NUMBERS.len())].to_string(),
            1 => {
                let v = f32::from_bits(rng.gen::<u32>());
                if v.is_finite() {
                    serde_json::to_string(&v).unwrap()
                } else {
                    "1.5".into()
                }
            }
            2 => format!(
                "{:.16e}",
                rng.gen::<f64>() * 10f64.powi(rng.gen_range(-60..60))
            ),
            3 => {
                // Hand-rolled: sign, up to 25 digits (leading zeros too),
                // optional fraction and exponent.
                let mut t = String::new();
                if rng.gen_bool(0.3) {
                    t.push('-');
                }
                for _ in 0..rng.gen_range(1..25) {
                    t.push(char::from(b'0' + rng.gen_range(0..10u8)));
                }
                if rng.gen_bool(0.5) {
                    t.push('.');
                    for _ in 0..rng.gen_range(0..20) {
                        t.push(char::from(b'0' + rng.gen_range(0..10u8)));
                    }
                }
                if rng.gen_bool(0.3) {
                    t.push(if rng.gen_bool(0.5) { 'e' } else { 'E' });
                    match rng.gen_range(0..3) {
                        0 => t.push('-'),
                        1 => t.push('+'),
                        _ => {}
                    }
                    t.push_str(&rng.gen_range(0..400u32).to_string());
                }
                t
            }
            4 => rng.gen::<u64>().to_string(),
            _ => (rng.gen::<u64>() as i64).to_string(),
        }
    }

    fn ws(rng: &mut StdRng) -> &'static str {
        [" ", "", "", "", "\n", "\t ", "\r\n"][rng.gen_range(0..7)]
    }

    /// Any JSON-ish value, nesting at most `depth` deep.
    fn value(rng: &mut StdRng, depth: u32) -> String {
        match rng.gen_range(0..if depth == 0 { 5 } else { 7 }) {
            0 => number(rng),
            1 => "null".into(),
            2 => ["true", "false", "nul", "tru"][rng.gen_range(0..4)].into(),
            3 => [
                r#""s""#,
                r#""\u0041\n""#,
                r#""\ud800""#,
                r#""é""#,
                r#""x\q""#,
                r#""open"#,
            ][rng.gen_range(0..6)]
            .into(),
            4 => number(rng),
            5 => {
                let items: Vec<String> = (0..rng.gen_range(0..4))
                    .map(|_| value(rng, depth - 1))
                    .collect();
                format!("[{}]", items.join(","))
            }
            _ => format!(r#"{{"k":{}}}"#, value(rng, depth - 1)),
        }
    }

    fn array(
        rng: &mut StdRng,
        lens: std::ops::Range<usize>,
        item: impl Fn(&mut StdRng) -> String,
    ) -> String {
        let len = rng.gen_range(lens);
        let mut out = String::from("[");
        out.push_str(ws(rng));
        for i in 0..len {
            if i > 0 {
                out.push(',');
                out.push_str(ws(rng));
            }
            if rng.gen_bool(0.03) {
                out.push_str(&value(rng, 1));
            } else {
                out.push_str(&item(rng));
            }
            out.push_str(ws(rng));
        }
        out.push(']');
        out
    }

    /// A value for one request field, in the forms the shim accepts and
    /// rejects for it.
    fn field_value(rng: &mut StdRng, key: &str) -> String {
        match key {
            "dims" => match rng.gen_range(0..8) {
                0 => value(rng, 2),
                1 => array(rng, 0..4, number),
                _ => array(rng, 1..4, |r| {
                    ["1", "2", "4", "2.0", "1e0", "-0", "3"][r.gen_range(0..7)].into()
                }),
            },
            "pixels" => {
                if rng.gen_bool(0.1) {
                    value(rng, 2)
                } else {
                    // Mostly what clients send, so that whole arrays
                    // often survive to the comparison of values.
                    array(rng, 0..24, |r| {
                        if r.gen_bool(0.8) {
                            serde_json::to_string(&(r.gen::<f32>() * 4.0 - 2.0)).unwrap()
                        } else {
                            number(r)
                        }
                    })
                }
            }
            "deadline_ms" | "priority" => match rng.gen_range(0..4) {
                0 => "null".into(),
                1 => value(rng, 1),
                2 => rng.gen_range(0..300u32).to_string(),
                _ => number(rng),
            },
            _ => value(rng, 2),
        }
    }

    /// A request body: mostly well-formed, with every field spelled in
    /// the forms the shim accepts and rejects, then sometimes mangled.
    fn body(rng: &mut StdRng) -> Vec<u8> {
        let mut fields: Vec<(String, String)> = Vec::new();
        for (key, p) in [
            ("dims", 0.95),
            ("pixels", 0.95),
            ("deadline_ms", 0.5),
            ("priority", 0.5),
        ] {
            if rng.gen_bool(p) {
                fields.push((key.into(), field_value(rng, key)));
            }
        }
        if rng.gen_bool(0.2) {
            // An unknown key, an escaped spelling of a known one, or a
            // repeat of one already present (the shim keeps the first).
            let key = [
                "extra",
                "pi\\u0078els",
                "dims",
                "pixels",
                "priority",
                "deadline_ms",
                "",
            ][rng.gen_range(0..7)];
            let at = rng.gen_range(0..=fields.len());
            let value = field_value(rng, key);
            fields.insert(at, (key.into(), value));
        }
        if rng.gen_bool(0.5) {
            fields.reverse();
        }
        let mut text = String::new();
        text.push_str(ws(rng));
        text.push('{');
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            text.push_str(ws(rng));
            text.push_str(&format!("\"{key}\""));
            text.push_str(ws(rng));
            text.push(':');
            text.push_str(ws(rng));
            text.push_str(value);
            text.push_str(ws(rng));
        }
        text.push('}');
        text.push_str(ws(rng));
        if rng.gen_bool(0.05) {
            text = value(rng, 2); // not an object at all
        }
        let mut bytes = text.into_bytes();
        match rng.gen_range(0..12) {
            0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
            1 => {
                bytes.extend_from_slice([&b"x"[..], b" }", b",", b"\0", b"{}"][rng.gen_range(0..5)])
            }
            2 => {
                let at = rng.gen_range(0..=bytes.len());
                let junk = [
                    0xffu8, 0xc3, b'"', b'\\', b',', b'-', b'.', b'e', b'1', b'}', b']',
                ];
                bytes.insert(at, junk[rng.gen_range(0..junk.len())]);
            }
            3 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                bytes.remove(at);
            }
            _ => {}
        }
        bytes
    }

    #[test]
    fn one_pass_decode_takes_the_canonical_shape_itself() {
        // What the gateway's clients send — the shim's own serialization,
        // optionally with scheduling fields — never falls back, whenever
        // the shim can read it at all.
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..500 {
            let pixels = (0..rng.gen_range(0..40))
                .map(|_| f32::from_bits(rng.gen::<u32>()))
                .filter(|v| v.is_finite())
                .collect::<Vec<_>>();
            let mut request = InferRequest::new(vec![pixels.len()], pixels);
            if i % 2 == 0 {
                request.deadline_ms = Some(rng.gen::<f64>() * 10.0);
                request.priority = rng.gen_range(0..=255u8);
            }
            let text = serde_json::to_string(&request).unwrap();
            if serde_json::from_str::<InferRequest>(&text).is_err() {
                // An integral float of 1e15 and up prints without a
                // point and overflows the shim's integer read.
                continue;
            }
            let fast = canonical_request(&mut Reader::new(&text))
                .unwrap_or_else(|| panic!("fell back on canonical body {text}"));
            assert!(same_request(&fast, &request), "{text}");
        }
    }

    #[test]
    fn one_pass_decode_matches_the_shim_on_edge_spellings() {
        for n in EDGE_NUMBERS {
            for body in [
                format!(r#"{{"dims":[1],"pixels":[{n}]}}"#),
                format!(r#"{{"dims":[{n}],"pixels":[0.5]}}"#),
                format!(r#"{{"dims":[1],"pixels":[0.5],"deadline_ms":{n}}}"#),
                format!(r#"{{"dims":[1],"pixels":[0.5],"priority":{n}}}"#),
            ] {
                assert_decodes_like_the_shim(body.as_bytes());
            }
        }
        for body in [
            &b""[..],
            b"   ",
            b"[1,2]",
            b"{}",
            b"{\"dims\":[1]}",
            b"{\"pixels\":[1]}",
            b"{\"dims\":[1],\"pixels\":[1,]}",
            b"{\"dims\":[1],\"pixels\":[1]} x",
            b"{\"dims\":[1],\"pixels\":[1]}}",
            b"{\"dims\":[1],\"pixels\":[\xff]}",
            b"{\"dims\":[1],\"pixels\":[1],\"dims\":[2]}",
            b"{\"dims\":[1],\"pixels\":[0.5],\"pixels\":[0.25]}",
            b"{\"dims\":[1],\"pixels\":[0.5],\"deadline_ms\":1,\"deadline_ms\":2}",
            b"{\"dims\":[1],\"pixels\":[0.5],\"priority\":1,\"priority\":2}",
            b"{\"dims\":[1],\"pi\\u0078els\":[0.25]}",
            b"{\"dims\":[1],\"pixels\":[1],\"deadline_ms\":nullx}",
            b"{\"dims\":[1],\"pixels\":[true]}",
            b"{\"dims\":[1],\"pixels\":[1],\"priority\":null}",
        ] {
            assert_decodes_like_the_shim(body);
        }
    }

    #[test]
    fn generated_bodies_exercise_both_outcomes() {
        // The differential below is only as good as its bodies: at least
        // a tenth must decode and at least a tenth must fail.
        let mut rng = StdRng::seed_from_u64(11);
        let (mut ok, n) = (0, 4000);
        for _ in 0..n {
            let body = body(&mut rng);
            assert_decodes_like_the_shim(&body);
            ok += usize::from(shim_decode(&body).is_ok());
        }
        assert!(
            (n / 10..=n * 9 / 10).contains(&ok),
            "{ok} of {n} bodies decode"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential against the shim over random and adversarial
        /// bodies: the same `Ok` values bit for bit, the same error text.
        #[test]
        fn one_pass_decode_matches_the_shim(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                assert_decodes_like_the_shim(&body(&mut rng));
            }
        }

        /// The writer's bytes are the shim's for any finite response, and
        /// a non-finite float fails with the shim's message.
        #[test]
        fn one_pass_encode_matches_the_shim(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let float = |rng: &mut StdRng| -> f64 {
                match rng.gen_range(0..6) {
                    0 => f64::from_bits(rng.gen::<u64>()),
                    1 => [0.0, -0.0, 1.0, 1e15, 1e15 - 1.0, -1e15, 5e-324, 1e300][rng.gen_range(0..8)],
                    2 => rng.gen_range(0..1_000_000u64) as f64,
                    _ => rng.gen::<f64>() * 1e4,
                }
            };
            for _ in 0..32 {
                let logits = (0..rng.gen_range(0..12))
                    .map(|_| match rng.gen_range(0..3) {
                        0 => f32::from_bits(rng.gen::<u32>()),
                        1 => (rng.gen::<f64>() * 64.0 - 32.0).round() as f32,
                        _ => rng.gen::<f32>() * 2.0 - 1.0,
                    })
                    .collect();
                let trace_id = match rng.gen_range(0..4) {
                    0 => String::new(),
                    1 => "00000080000002ab".into(),
                    2 => "q\"\\\n\r\t\u{08}\u{0c}\u{01}\u{1f}é∀".into(),
                    _ => (0..rng.gen_range(0..8)).map(|_| char::from(rng.gen_range(0..128u8))).collect(),
                };
                let response = InferResponse {
                    logits,
                    top1: rng.gen::<usize>(),
                    batch_size: rng.gen_range(0..64usize),
                    queue_wait_us: float(&mut rng),
                    exec_us: float(&mut rng),
                    e2e_us: float(&mut rng),
                    energy_uj: float(&mut rng),
                    trace_id,
                };
                match (response.encode(), serde_json::to_string(&response)) {
                    (Ok(ours), Ok(shim)) => prop_assert_eq!(ours, shim.into_bytes()),
                    (Err(ours), Err(shim)) => prop_assert_eq!(ours.to_string(), shim.to_string()),
                    (ours, shim) => prop_assert!(false, "{:?} vs {:?}", ours, shim),
                }
            }
        }
    }
}
