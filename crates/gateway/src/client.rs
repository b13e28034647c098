//! A std-only HTTP/1.1 client.
//!
//! [`HttpClient`] is a minimal keep-alive client over one `TcpStream` —
//! enough to drive the gateway from tests and examples without any
//! external tooling.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{find_head_end, parse_content_length};

/// One parsed HTTP response as the client sees it.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Response body (framed by `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
    /// Parsed `Retry-After` header, whole seconds, when the server sent
    /// one (the gateway attaches it to every `429`/`503`).
    pub retry_after: Option<u64>,
}

/// A blocking keep-alive HTTP/1.1 client over one TCP connection.
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    /// Connects to `addr` with a generous read timeout (requests never
    /// hang a test run forever).
    ///
    /// # Errors
    ///
    /// Propagates the connect/configure error.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Issues a `GET`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors or a malformed response.
    pub fn get(&mut self, path: &str) -> std::io::Result<WireResponse> {
        self.request("GET", path, None)
    }

    /// Issues a `POST` with a JSON body.
    ///
    /// # Errors
    ///
    /// Propagates transport errors or a malformed response.
    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<WireResponse> {
        self.request("POST", path, Some(body.as_bytes()))
    }

    /// Writes raw bytes to the underlying stream — the hostile-input tests
    /// use this to send deliberately broken requests.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads one response off the wire (for use after
    /// [`send_raw`](Self::send_raw)).
    ///
    /// # Errors
    ///
    /// Propagates transport errors or a malformed response.
    pub fn read_response(&mut self) -> std::io::Result<WireResponse> {
        let mut scratch = [0u8; 8192];
        loop {
            if let Some(response) = self.try_parse_response()? {
                return Ok(response);
            }
            let n = self.stream.read(&mut scratch)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before a full response arrived",
                ));
            }
            self.buf.extend_from_slice(&scratch[..n]);
        }
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<WireResponse> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: gateway\r\n");
        if let Some(body) = body {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        if let Some(body) = body {
            self.stream.write_all(body)?;
        }
        self.read_response()
    }

    fn try_parse_response(&mut self) -> std::io::Result<Option<WireResponse>> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let Some(head_end) = find_head_end(&self.buf) else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        let mut keep_alive = true;
        let mut retry_after = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length =
                    parse_content_length(value).ok_or_else(|| bad("bad Content-Length"))?;
            } else if name == "connection" {
                keep_alive = !value.eq_ignore_ascii_case("close");
            } else if name == "retry-after" {
                // Only the delta-seconds form (the one the gateway emits);
                // an HTTP-date or garbage value is ignored, not fatal.
                retry_after = value.parse::<u64>().ok();
            }
        }
        let total = head_end + content_length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(WireResponse {
            status,
            body,
            keep_alive,
            retry_after,
        }))
    }
}
