//! A hand-rolled, panic-free HTTP/1.1 request parser and response writer.
//!
//! The build is fully offline (no hyper/tiny-http), so the gateway parses
//! the wire format itself. The parser is deliberately **incremental**: it
//! looks at whatever bytes have arrived so far and either produces a
//! complete request plus the number of bytes it consumed, asks for more
//! ([`None`]), or rejects the connection with a structured error the
//! server maps to `400`/`413`. Because consumption is explicit, pipelined
//! keep-alive requests fall out naturally — the connection loop parses
//! the remainder of its buffer before reading again. `parse_head` is the
//! same parser stopped at the blank line: the gateway's connection loop
//! parses each head once and then reads the body straight into a buffer
//! of the declared length.
//!
//! Supported surface (everything the inference wire format needs):
//! `Content-Length` bodies, keep-alive (HTTP/1.1 default, `Connection:
//! close` honored, HTTP/1.0 opt-in), header-size and body-size limits.
//! `Transfer-Encoding: chunked` is rejected with `400` — the gateway's own
//! clients never produce it and accepting it would complicate the
//! denial-of-service story for no serving benefit.

/// Byte-size limits the parser enforces before buffering further input.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Most bytes the request line + headers may occupy (`400` beyond).
    pub max_head_bytes: usize,
    /// Most bytes a declared `Content-Length` may claim (`413` beyond).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 8 * 1024 * 1024,
        }
    }
}

/// A fully received HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-cased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path plus optional query), e.g. `/v1/infer`.
    pub target: String,
    /// Header list in arrival order: lower-cased names, trimmed values.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request afterwards
    /// (HTTP/1.1 default, overridden by `Connection: close`; HTTP/1.0
    /// requires an explicit `Connection: keep-alive`).
    pub keep_alive: bool,
}

impl Request {
    /// First header value with the given (case-insensitive) name. Stored
    /// names are already lowercase, so the comparison allocates nothing.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The request path with any `?query` suffix removed.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }
}

/// Why a request could not be parsed. The server maps these onto the wire
/// (`BadRequest` → 400, `PayloadTooLarge` → 413) and closes the
/// connection, since the byte stream can no longer be trusted to frame the
/// next request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed request line, header, or unsupported framing.
    BadRequest(String),
    /// Declared `Content-Length` exceeds the configured body limit.
    PayloadTooLarge {
        /// The configured limit that was exceeded.
        limit: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadRequest(msg) => write!(f, "bad request: {msg}"),
            Self::PayloadTooLarge { limit } => {
                write!(f, "payload exceeds the {limit}-byte body limit")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Locates the end of an HTTP head: the index one past the blank line,
/// accepting both CRLF and bare-LF line endings. Shared with the client's
/// response parser.
///
/// Single left-to-right pass that stops at the FIRST blank line (a `\n`
/// followed by `\n` or `\r\n`), whichever line-ending style produced it.
/// A caller that re-parses a growing buffer must not pay for the body
/// behind the head — separate whole-buffer searches per terminator style
/// would be quadratic in the body size.
pub fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0usize;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match (buf.get(i + 1), buf.get(i + 2)) {
                (Some(b'\n'), _) => return Some(i + 2),
                (Some(b'\r'), Some(b'\n')) => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// A `Content-Length` value as RFC 9110 frames it: `1*DIGIT`, nothing
/// else. `usize::from_str` also takes a leading `+`, and a front end that
/// reads `+4` differently from the gateway would let one request smuggle
/// another; `None` here (no digits, any other byte, or overflow) is a
/// framing error. Shared by the request parser and the client's response
/// parser.
pub fn parse_content_length(value: &str) -> Option<usize> {
    if !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse().ok() // rejects "" and overflow
}

/// Tries to parse one complete request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a full head **and** body
/// are buffered (`consumed` bytes belong to this request; the caller keeps
/// the rest for the next pipelined request), `Ok(None)` when more bytes
/// are needed, and an error when the stream is malformed or over limits.
///
/// # Errors
///
/// [`ParseError::BadRequest`] on a malformed request line or header, an
/// unsupported version or framing, or a head exceeding
/// [`Limits::max_head_bytes`]; [`ParseError::PayloadTooLarge`] when the
/// declared `Content-Length` exceeds [`Limits::max_body_bytes`] (detected
/// from the head alone, before the body is buffered).
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Option<(Request, usize)>, ParseError> {
    let Some(Head {
        mut request,
        head_len,
        content_length,
    }) = parse_head(buf, limits)?
    else {
        return Ok(None);
    };
    let total = head_len.saturating_add(content_length);
    let Some(body) = buf.get(head_len..total) else {
        return Ok(None); // body still in flight
    };
    request.body = body.to_vec();
    Ok(Some((request, total)))
}

/// A parsed request head: the request with an empty body, and how the
/// body that follows is framed.
#[derive(Debug, Clone)]
pub(crate) struct Head {
    /// The request line and headers; [`Request::body`] is empty.
    pub(crate) request: Request,
    /// Bytes the head occupies, blank line included.
    pub(crate) head_len: usize,
    /// The declared body length (0 without a `Content-Length`), already
    /// checked against [`Limits::max_body_bytes`].
    pub(crate) content_length: usize,
}

/// Tries to parse one request head from the front of `buf` — everything
/// [`parse_request`] checks except that the body has arrived.
///
/// # Errors
///
/// The same as [`parse_request`]; a too-large `Content-Length` is
/// reported here, before any of the body is read.
pub(crate) fn parse_head(buf: &[u8], limits: &Limits) -> Result<Option<Head>, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > limits.max_head_bytes {
            return Err(ParseError::BadRequest(format!(
                "request head exceeds {} bytes without terminating",
                limits.max_head_bytes
            )));
        }
        return Ok(None);
    };
    if head_end > limits.max_head_bytes {
        return Err(ParseError::BadRequest(format!(
            "request head exceeds {} bytes",
            limits.max_head_bytes
        )));
    }
    let head = std::str::from_utf8(buf.get(..head_end).unwrap_or_default())
        .map_err(|_| ParseError::BadRequest("request head is not valid UTF-8".into()))?;

    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines
        .next()
        .ok_or_else(|| ParseError::BadRequest("empty request head".into()))?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(ParseError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(ParseError::BadRequest(format!("invalid method {method:?}")));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }
    let version_11 = version == "HTTP/1.1";

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator line
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(ParseError::BadRequest(
                "obsolete header line folding is not supported".into(),
            ));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::BadRequest(format!(
                "malformed header line {line:?}"
            )));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::BadRequest(format!(
                "malformed header name {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(ParseError::BadRequest(
            "transfer-encoding is not supported; send a Content-Length body".into(),
        ));
    }

    let mut content_length = 0usize;
    let mut saw_content_length = false;
    for (name, value) in &headers {
        if name == "content-length" {
            let parsed = parse_content_length(value).ok_or_else(|| {
                ParseError::BadRequest(format!("invalid Content-Length {value:?}"))
            })?;
            if saw_content_length && parsed != content_length {
                return Err(ParseError::BadRequest(
                    "conflicting Content-Length headers".into(),
                ));
            }
            content_length = parsed;
            saw_content_length = true;
        }
    }
    if content_length > limits.max_body_bytes {
        return Err(ParseError::PayloadTooLarge {
            limit: limits.max_body_bytes,
        });
    }

    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some(v) if v.contains("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        _ => version_11,
    };

    Ok(Some(Head {
        request: Request {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body: Vec::new(),
            keep_alive,
        },
        head_len: head_end,
        content_length,
    }))
}

/// Canonical reason phrase for the status codes the gateway emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serializes one response with a `Content-Length` body and an explicit
/// `Connection` header (the gateway always frames by length, never by
/// connection close).
pub fn write_response(status: u16, content_type: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    write_response_with_retry_after(status, content_type, body, keep_alive, None)
}

/// [`write_response`] with an optional `Retry-After: <seconds>` header —
/// the gateway attaches one to every backpressure/unavailability answer
/// (`429`/`503`) so well-behaved clients can pace their retries instead
/// of hammering a breaker that is known to stay open.
pub fn write_response_with_retry_after(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    retry_after_secs: Option<u64>,
) -> Vec<u8> {
    let retry_after = retry_after_secs
        .map(|secs| format!("Retry-After: {secs}\r\n"))
        .unwrap_or_default();
    let mut out = Vec::with_capacity(body.len() + 160);
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
            status,
            status_reason(status),
            content_type,
            body.len(),
            retry_after,
            if keep_alive { "keep-alive" } else { "close" },
        )
        .as_bytes(),
    );
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits::default()
    }

    #[test]
    fn parses_get_without_body() {
        let raw = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        let (req, used) = parse_request(raw, &limits()).unwrap().unwrap();
        assert_eq!(used, raw.len());
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/metrics");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let raw = b"POST /v1/infer HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let (req, used) = parse_request(raw, &limits()).unwrap().unwrap();
        assert_eq!(used, raw.len());
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.header("content-length"), Some("4"));
    }

    #[test]
    fn incomplete_head_and_body_ask_for_more() {
        assert!(parse_request(b"POST /v1/in", &limits()).unwrap().is_none());
        let partial = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(parse_request(partial, &limits()).unwrap().is_none());
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let (req, used) = parse_request(raw, &limits()).unwrap().unwrap();
        assert_eq!(req.path(), "/healthz");
        let (req2, used2) = parse_request(&raw[used..], &limits()).unwrap().unwrap();
        assert_eq!(req2.path(), "/metrics");
        assert_eq!(used + used2, raw.len());
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let raw = b"POST /v1/infer HTTP/1.0\nContent-Length: 2\nConnection: keep-alive\n\nhi";
        let (req, _) = parse_request(raw, &limits()).unwrap().unwrap();
        assert_eq!(req.body, b"hi");
        assert!(req.keep_alive, "HTTP/1.0 opts in explicitly");
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (req, _) = parse_request(raw, &limits()).unwrap().unwrap();
        assert!(!req.keep_alive);
        let raw10 = b"GET / HTTP/1.0\r\n\r\n";
        let (req10, _) = parse_request(raw10, &limits()).unwrap().unwrap();
        assert!(!req10.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn truncated_request_line_rejected() {
        let err = parse_request(b"GARBAGE\r\n\r\n", &limits()).unwrap_err();
        assert!(matches!(err, ParseError::BadRequest(_)), "{err:?}");
        let err = parse_request(b"GET /x\r\n\r\n", &limits()).unwrap_err();
        assert!(matches!(err, ParseError::BadRequest(_)), "{err:?}");
        let err = parse_request(b"GET /x SPDY/3\r\n\r\n", &limits()).unwrap_err();
        assert!(matches!(err, ParseError::BadRequest(_)), "{err:?}");
    }

    #[test]
    fn bad_content_length_rejected() {
        for head in [
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: -3\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: +4\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\n",
        ] {
            let err = parse_request(head.as_bytes(), &limits()).unwrap_err();
            assert!(matches!(err, ParseError::BadRequest(_)), "{head:?}");
        }
    }

    #[test]
    fn oversized_content_length_is_413_before_the_body_arrives() {
        let small = Limits {
            max_head_bytes: 1024,
            max_body_bytes: 16,
        };
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 17\r\n\r\n";
        assert_eq!(
            parse_request(raw, &small).unwrap_err(),
            ParseError::PayloadTooLarge { limit: 16 }
        );
    }

    #[test]
    fn unterminated_head_over_limit_rejected() {
        let small = Limits {
            max_head_bytes: 32,
            max_body_bytes: 16,
        };
        let raw = vec![b'A'; 64];
        let err = parse_request(&raw, &small).unwrap_err();
        assert!(matches!(err, ParseError::BadRequest(_)));
    }

    #[test]
    fn chunked_transfer_encoding_rejected() {
        let raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        let err = parse_request(raw, &limits()).unwrap_err();
        assert!(matches!(err, ParseError::BadRequest(_)));
    }

    #[test]
    fn malformed_headers_rejected() {
        for head in [
            "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET / HTTP/1.1\r\nbad name: x\r\n\r\n",
            "GET / HTTP/1.1\r\nx: 1\r\n folded\r\n\r\n",
        ] {
            let err = parse_request(head.as_bytes(), &limits()).unwrap_err();
            assert!(matches!(err, ParseError::BadRequest(_)), "{head:?}");
        }
    }

    #[test]
    fn response_writer_frames_by_length() {
        let bytes = write_response(200, "application/json", b"{}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Retry-After"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn response_writer_emits_retry_after_when_asked() {
        let bytes = write_response_with_retry_after(503, "application/json", b"{}", false, Some(7));
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 7\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
