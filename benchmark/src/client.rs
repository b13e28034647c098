//! The load generator's HTTP side: a keep-alive connection that sends
//! pre-rendered requests and scans the answer for the fields the
//! benchmark checks. Written here, not borrowed from `snn_gateway::client`
//! — client cost is part of the measured process, and the instrument must
//! not change when the program's own client does.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use snn_gateway::InferRequest;
use snn_tensor::Tensor;

use crate::inputs::Urgency;

/// One keep-alive connection, one request in flight at a time.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Position of `needle` in `hay`.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a read timeout, so a lost answer
    /// fails the run instead of hanging it.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Writes one whole request.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(request)
    }

    /// Reads one response; returns the status and the body (valid until
    /// the next call).
    pub fn recv(&mut self) -> std::io::Result<(u16, &[u8])> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.buf.clear();
        let mut scratch = [0u8; 4096];
        let (mut head_end, mut total) = (None, usize::MAX);
        while self.buf.len() < total {
            let n = self.stream.read(&mut scratch)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&scratch[..n]);
            if head_end.is_none() {
                if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                    let head = std::str::from_utf8(&self.buf[..at])
                        .map_err(|_| bad("head is not UTF-8"))?;
                    let length = head
                        .lines()
                        .filter_map(|l| l.split_once(':'))
                        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                        .ok_or_else(|| bad("no Content-Length"))?;
                    head_end = Some(at + 4);
                    total = at + 4 + length;
                }
            }
        }
        let head_end = head_end.ok_or_else(|| bad("no head"))?;
        let status = std::str::from_utf8(self.buf.get(9..12).unwrap_or_default())
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status"))?;
        Ok((status, &self.buf[head_end..total]))
    }

    /// `GET path`, returning status and body.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, &[u8])> {
        self.send(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
        self.recv()
    }
}

/// The fields of a `200` inference answer the benchmark reads.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Answer {
    pub batch_size: usize,
    pub queue_wait_us: f64,
    pub exec_us: f64,
    pub e2e_us: f64,
    pub energy_uj: f64,
}

/// The text of the JSON value after `key` (quotes included) and its `:`
/// in a flat object.
fn value_after<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(key)? + key.len();
    let rest = body[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = if rest.starts_with('[') {
        rest.find(']')? + 1
    } else {
        rest.find([',', '}'])?
    };
    Some(rest[..end].trim())
}

/// Scans an inference answer: logits go into `logits` (decimal text →
/// `f32` is exact for the shortest-round-trip form the gateway prints).
pub fn parse_answer(body: &[u8], logits: &mut Vec<f32>) -> Option<Answer> {
    let body = std::str::from_utf8(body).ok()?;
    logits.clear();
    let list = value_after(body, "\"logits\"")?
        .strip_prefix('[')?
        .strip_suffix(']')?;
    for item in list.split(',') {
        logits.push(item.trim().parse().ok()?);
    }
    let num = |key: &str| value_after(body, key)?.parse::<f64>().ok();
    Some(Answer {
        batch_size: num("\"batch_size\"")? as usize,
        queue_wait_us: num("\"queue_wait_us\"")?,
        exec_us: num("\"exec_us\"")?,
        e2e_us: num("\"e2e_us\"")?,
        energy_uj: num("\"energy_uj\"")?,
    })
}

/// A request split so that one copy of the (large) pixel text serves every
/// scheduling variant: `head(len) + body_prefix + suffix`.
pub struct Rendered {
    path: String,
    /// The JSON body up to, not including, the closing `}`.
    prefix: Vec<u8>,
}

impl Rendered {
    /// Serialises `image` through the gateway's own wire type.
    pub fn new(path: &str, image: &Tensor) -> Self {
        let request = InferRequest::new(image.dims().to_vec(), image.as_slice().to_vec());
        let mut body = serde_json::to_string(&request)
            .expect("serialise request")
            .into_bytes();
        assert_eq!(body.pop(), Some(b'}'));
        Self {
            path: path.to_string(),
            prefix: body,
        }
    }

    /// Assembles the full HTTP request for one scheduling variant into
    /// `out` (cleared first).
    pub fn write_into(&self, urgency: Urgency, out: &mut Vec<u8>) {
        let mut suffix = String::new();
        if let Some(ms) = urgency.deadline_ms {
            suffix.push_str(&format!(",\"deadline_ms\":{ms}.0"));
        }
        if urgency.priority != 0 {
            suffix.push_str(&format!(",\"priority\":{}", urgency.priority));
        }
        suffix.push('}');
        out.clear();
        out.extend_from_slice(
            format!(
                "POST {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                self.path,
                self.prefix.len() + suffix.len()
            )
            .as_bytes(),
        );
        out.extend_from_slice(&self.prefix);
        out.extend_from_slice(suffix.as_bytes());
    }

    /// The full request with default scheduling.
    pub fn plain(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_into(
            Urgency {
                deadline_ms: None,
                priority: 0,
            },
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_gateway::http::{parse_request, Limits};

    #[test]
    fn answers_are_scanned_field_by_field() {
        let body = br#"{"logits":[0.25,-1.5e-3, 3],"top1":0,"batch_size":4,"queue_wait_us":12.5,"exec_us":900.0,"e2e_us":1000.25,"energy_uj":1.75,"trace_id":""}"#;
        let mut logits = Vec::new();
        let a = parse_answer(body, &mut logits).unwrap();
        assert_eq!(logits, [0.25, -1.5e-3, 3.0]);
        assert_eq!(
            a,
            Answer {
                batch_size: 4,
                queue_wait_us: 12.5,
                exec_us: 900.0,
                e2e_us: 1000.25,
                energy_uj: 1.75
            }
        );
        assert!(parse_answer(br#"{"error":"nope"}"#, &mut logits).is_none());
    }

    #[test]
    fn rendered_requests_parse_back_through_the_gateway_types() {
        let image = Tensor::from_vec(vec![0.5, 0.125, 0.75, 1.0e-3], &[1, 2, 2]).unwrap();
        let rendered = Rendered::new("/v1/infer", &image);
        let mut bytes = Vec::new();
        rendered.write_into(
            Urgency {
                deadline_ms: Some(4),
                priority: 1,
            },
            &mut bytes,
        );
        let limits = Limits {
            max_head_bytes: 1 << 14,
            max_body_bytes: 1 << 20,
        };
        let (request, used) = parse_request(&bytes, &limits).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(request.path(), "/v1/infer");
        let decoded: InferRequest =
            serde_json::from_str(std::str::from_utf8(&request.body).unwrap()).unwrap();
        assert_eq!(decoded.pixels, image.as_slice());
        assert_eq!((decoded.deadline_ms, decoded.priority), (Some(4.0), 1));
        let (plain, _) = parse_request(&rendered.plain(), &limits).unwrap().unwrap();
        let decoded: InferRequest =
            serde_json::from_str(std::str::from_utf8(&plain.body).unwrap()).unwrap();
        assert_eq!((decoded.deadline_ms, decoded.priority), (None, 0));
    }
}
