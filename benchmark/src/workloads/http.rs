//! What the two HTTP workloads share: one generator's connection and the
//! booking of each exchange.

use std::net::SocketAddr;
use std::time::Instant;

use super::book_answer;
use crate::client::{parse_answer, Conn};
use crate::models::{stack, Served};
use crate::phase::PhaseOut;
use crate::procfs::thread_cpu_ns;
use crate::record::Recorder;
use crate::spans::{self, push, push_server_side};

/// Synaptic operations per pool image as `served`'s compiled serving
/// backend counts them (they are not on the wire): one untimed pass.
pub fn engine_sops_per_image(served: &Served) -> f64 {
    let (backend, _) = served
        .artifact
        .compile()
        .expect("compile for the sops pass");
    let (_, stats) = backend.run_batch(&stack(&served.pool)).expect("sops pass");
    stats.total_synaptic_ops() as f64 / served.pool.len() as f64
}

/// One generator thread: its keep-alive connection and what it has seen.
pub struct Generator<'a> {
    pub out: PhaseOut,
    conn: Conn,
    recorder: &'a Recorder,
    logits: Vec<f32>,
    tid: u8,
    cpu0: u64,
}

impl<'a> Generator<'a> {
    /// Connects to the gateway.
    pub fn connect(
        addr: SocketAddr,
        recorder: &'a Recorder,
        traced: bool,
        tid: u8,
        requests: usize,
    ) -> Result<Self, String> {
        let conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut out = PhaseOut::new(traced);
        out.samples.reserve_exact(requests);
        Ok(Self {
            out,
            conn,
            recorder,
            logits: Vec::new(),
            tid,
            cpu0: thread_cpu_ns(),
        })
    }

    /// Sends `wire` now and books the answer. An open loop passes the
    /// instant the request was `due`, and latency runs from there; a closed
    /// loop passes `None`, and it runs from the write. The logits are
    /// checked against `served`'s pool image. Returns `false` once the
    /// connection is unusable.
    pub fn exchange(
        &mut self,
        served: &Served,
        image: usize,
        wire: &[u8],
        due: Option<Instant>,
        req: u32,
    ) -> bool {
        let out = &mut self.out;
        let write_from = Instant::now();
        let due = due.unwrap_or(write_from);
        let sent = self.conn.send(wire).map(|()| Instant::now());
        let answer =
            sent.and_then(|sent| self.conn.recv().map(|(status, body)| (sent, status, body)));
        let end = Instant::now();
        out.samples.push(
            self.recorder
                .complete(end, end.saturating_duration_since(due).as_nanos()),
        );
        let (sent, body) = match answer {
            Ok((sent, 200, body)) => (sent, body),
            Ok((_, status, _)) => {
                out.fail(|| format!("HTTP {status}"));
                return true;
            }
            Err(e) => {
                out.fail(|| format!("transport: {e}"));
                return false;
            }
        };
        let Some(answer) = parse_answer(body, &mut self.logits) else {
            out.fail(|| "unreadable 200 body".into());
            return true;
        };
        if book_answer(out, served, image, &self.logits) {
            out.energy_uj_sum += answer.energy_uj;
        }
        if let Some(detail) = &mut out.detail {
            let client_us = end.saturating_duration_since(write_from).as_nanos() as f64 / 1e3;
            detail.queue_wait_us.push(answer.queue_wait_us);
            detail.exec_us.push(answer.exec_us);
            detail.overhead_us.push(client_us - answer.e2e_us);
            detail.batches += 1.0 / answer.batch_size as f64;
            let t0 = self.recorder.t0();
            let since = |at: Instant| at.saturating_duration_since(t0).as_nanos() as u64;
            let (s, tid) = (&mut out.spans, self.tid);
            let (root, write, read, end) = (since(due), since(write_from), since(sent), since(end));
            push(
                s,
                spans::REQUEST,
                spans::NO_PARENT,
                tid,
                req,
                root,
                end - root,
            );
            if write > root {
                push(s, spans::LATE, spans::REQUEST, tid, req, root, write - root);
            }
            push(
                s,
                spans::CLIENT_WRITE,
                spans::REQUEST,
                tid,
                req,
                write,
                read - write,
            );
            push(
                s,
                spans::CLIENT_READ,
                spans::REQUEST,
                tid,
                req,
                read,
                end - read,
            );
            let ns = |us: f64| (us * 1e3) as u64;
            push_server_side(
                s,
                tid,
                req,
                (read, end - read),
                ns(answer.e2e_us),
                ns(answer.queue_wait_us),
                ns(answer.exec_us),
            );
        }
        true
    }

    /// The generator's results, with its own CPU time.
    pub fn finish(mut self) -> PhaseOut {
        self.out.gen_cpu_ns = thread_cpu_ns().saturating_sub(self.cpu0);
        self.out
    }
}
