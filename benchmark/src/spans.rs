//! The harness's own span store: one record per call across a layer
//! boundary, kept in a `Vec` and written out when the run ends.
//!
//! Deliberately not `snn-trace`: the instrument must not depend on code
//! it will be used to refactor. Spans of one request share its id; what
//! the server reports about a request (`queue_wait`, `exec_time`, the
//! gateway's `e2e_us`) hangs under the client-side span as child
//! intervals whose *lengths* are measured and whose *positions* are
//! inferred (centred in the parent).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::stats::{median, percentile};

/// Span names, by id. Index 0 is the root of every request.
pub const NAMES: [&str; 9] = [
    "request",
    "gen.submit",
    "gen.wait",
    "harness.late",
    "client.write",
    "client.read",
    "gateway.server",
    "batcher.queue_wait",
    "engine.exec",
];
pub const REQUEST: u8 = 0;
pub const GEN_SUBMIT: u8 = 1;
pub const GEN_WAIT: u8 = 2;
pub const LATE: u8 = 3;
pub const CLIENT_WRITE: u8 = 4;
pub const CLIENT_READ: u8 = 5;
pub const GATEWAY: u8 = 6;
pub const QUEUE_WAIT: u8 = 7;
pub const EXEC: u8 = 8;
/// Parent id of a span that has none.
pub const NO_PARENT: u8 = u8::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: u8,
    pub parent: u8,
    /// Generator thread that recorded it.
    pub tid: u8,
    /// Request id shared by all spans of one request (unique per thread).
    pub req: u32,
    /// Start, ns since the phase began.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Appends a span.
pub fn push(
    spans: &mut Vec<Span>,
    name: u8,
    parent: u8,
    tid: u8,
    req: u32,
    start_ns: u64,
    dur_ns: u64,
) {
    spans.push(Span {
        name,
        parent,
        tid,
        req,
        start_ns,
        dur_ns,
    });
}

/// Appends what the server said about an HTTP request under its
/// `client.read` span: the gateway's own `e2e` interval, and inside it
/// the batcher wait followed by the engine execution.
pub fn push_server_side(
    spans: &mut Vec<Span>,
    tid: u8,
    req: u32,
    read: (u64, u64),
    e2e_ns: u64,
    queue_ns: u64,
    exec_ns: u64,
) {
    // Lengths are measured; positions are inferred: centred in the parent.
    let dur = e2e_ns.min(read.1);
    let start = read.0 + (read.1 - dur) / 2;
    push(spans, GATEWAY, CLIENT_READ, tid, req, start, dur);
    let queue = queue_ns.min(dur);
    let exec = exec_ns.min(dur - queue);
    let inner = start + (dur - queue - exec) / 2;
    push(spans, QUEUE_WAIT, GATEWAY, tid, req, inner, queue);
    push(spans, EXEC, GATEWAY, tid, req, inner + queue, exec);
}

/// Self time of one layer over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub mean_us: f64,
    pub p50_us: f64,
}

/// Per layer: span length minus the part its child spans cover, per
/// request, then mean and median over requests.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    // Children's total length per (thread, request, parent name).
    let mut covered: BTreeMap<(u8, u32, u8), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        *covered.entry((s.tid, s.req, s.parent)).or_default() += s.dur_ns;
    }
    let mut per_name: Vec<Vec<f64>> = vec![Vec::new(); NAMES.len()];
    for s in spans {
        let children = covered.get(&(s.tid, s.req, s.name)).copied().unwrap_or(0);
        per_name[s.name as usize].push(s.dur_ns.saturating_sub(children) as f64 / 1e3);
    }
    per_name
        .into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(i, mut v)| SelfTime {
            name: NAMES[i],
            count: v.len(),
            mean_us: v.iter().sum::<f64>() / v.len() as f64,
            p50_us: percentile(&mut v, 0.5),
        })
        .collect()
}

/// Median length of the root `request` spans, µs.
pub fn request_p50_us(spans: &[Span]) -> f64 {
    let roots: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == REQUEST)
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect();
    median(&roots)
}

/// Most events written to a trace file; the in-memory store is not cut.
pub const MAX_EVENTS: usize = 60_000;

/// Writes the spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto). Returns how many events were written.
pub fn write_chrome_trace(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let written = spans.len().min(MAX_EVENTS);
    write!(out, "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{workload}\",\"spans\":{},\"written\":{written},\"child_positions\":\"inferred\"}},\"traceEvents\":[", spans.len())?;
    for (i, s) in spans[..written].iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            ""
        } else {
            NAMES[s.parent as usize]
        };
        write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"req\":{},\"parent\":\"{parent}\"}}}}",
            if i == 0 { "" } else { "," },
            NAMES[s.name as usize],
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.tid,
            s.req,
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_length_minus_children_and_sums_to_the_root() {
        let mut spans = Vec::new();
        for req in 0..3u32 {
            let base = u64::from(req) * 10_000_000;
            push(&mut spans, REQUEST, NO_PARENT, 0, req, base, 5_000_000);
            push(&mut spans, LATE, REQUEST, 0, req, base, 100_000);
            push(
                &mut spans,
                CLIENT_WRITE,
                REQUEST,
                0,
                req,
                base + 100_000,
                400_000,
            );
            push(
                &mut spans,
                CLIENT_READ,
                REQUEST,
                0,
                req,
                base + 500_000,
                4_500_000,
            );
            push_server_side(
                &mut spans,
                0,
                req,
                (base + 500_000, 4_500_000),
                3_500_000,
                2_000_000,
                1_000_000,
            );
            let gateway = spans[spans.len() - 3];
            assert_eq!(
                (gateway.start_ns, gateway.dur_ns),
                (base + 1_000_000, 3_500_000)
            );
            let exec = spans[spans.len() - 1];
            assert_eq!((exec.start_ns, exec.dur_ns), (base + 3_250_000, 1_000_000));
        }
        let table = self_times(&spans);
        let get = |n: &str| table.iter().find(|t| t.name == n).unwrap().mean_us;
        assert_eq!(get("request"), 0.0);
        assert_eq!(get("client.read"), 1000.0);
        assert_eq!(get("gateway.server"), 500.0);
        assert_eq!(get("batcher.queue_wait"), 2000.0);
        let sum: f64 = table.iter().map(|t| t.mean_us).sum();
        assert_eq!(sum, request_p50_us(&spans));
        assert_eq!(sum, 5000.0);
    }

    #[test]
    fn trace_file_is_valid_json_with_one_event_per_span() {
        let dir = crate::models::Scratch::new("spans-test");
        let path = dir.0.join("t.json");
        let mut spans = Vec::new();
        push(&mut spans, REQUEST, NO_PARENT, 1, 7, 1_500, 2_000_000);
        push(&mut spans, GEN_SUBMIT, REQUEST, 1, 7, 1_500, 9_000);
        assert_eq!(write_chrome_trace(&path, "w", &spans).unwrap(), 2);
        let doc: serde::Content =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let events = doc
            .as_map()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .unwrap()
            .1
            .as_seq()
            .unwrap();
        assert_eq!(events.len(), 2);
    }
}
