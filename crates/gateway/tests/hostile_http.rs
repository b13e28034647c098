//! Hostile-input coverage for the gateway: truncated request lines,
//! missing/oversized Content-Length, reads split across TCP segments,
//! pipelined keep-alive requests, and binary garbage. The invariant under
//! test everywhere: **no panic, no hung acceptor** — after every attack
//! the gateway still answers a clean request.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_gateway::{client::HttpClient, Gateway, GatewayConfig, InferRequest};
use snn_nn::{ActivationLayer, DenseLayer, Flatten, Layer, Relu, Sequential};
use snn_runtime::{BackendChoice, StreamingConfig, StreamingServer};
use ttfs_core::{convert, Base2Kernel};

const DIMS: [usize; 3] = [1, 3, 4];

fn serving_stack(seed: u64) -> (Arc<StreamingServer>, Gateway) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(12, 8, &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::Dense(DenseLayer::new(8, 3, &mut rng)),
    ]);
    let model = Arc::new(convert(&net, Base2Kernel::paper_default(), 24).unwrap());
    let server = Arc::new(
        BackendChoice::Csr
            .serve_streaming(
                model,
                &DIMS,
                StreamingConfig {
                    threads: 2,
                    max_batch: 4,
                    max_delay: Duration::from_millis(1),
                    max_pending: 0,
                    brownout: None,
                },
            )
            .unwrap(),
    );
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 2,
            max_body_bytes: 64 * 1024,
            max_head_bytes: 2 * 1024,
            poll_interval: Duration::from_millis(10),
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();
    (server, gateway)
}

fn good_body() -> String {
    let req = InferRequest::new(DIMS.to_vec(), vec![0.5; 12]);
    serde_json::to_string(&req).unwrap()
}

/// A clean request must succeed — the liveness probe after every attack.
fn assert_still_serving(gateway: &Gateway) {
    let mut client = HttpClient::connect(gateway.local_addr()).expect("fresh connection accepted");
    let response = client
        .post_json("/v1/infer", &good_body())
        .expect("clean request answered");
    assert_eq!(
        response.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&response.body)
    );
}

#[test]
fn truncated_request_line_gets_400_and_acceptor_survives() {
    let (server, mut gateway) = serving_stack(1);
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    client.send_raw(b"GARBAGE-NO-HTTP\r\n\r\n").unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 400);
    assert!(!response.keep_alive, "framing is lost; connection closes");
    assert_still_serving(&gateway);
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn truncated_then_closed_connection_does_not_hang() {
    let (server, mut gateway) = serving_stack(2);
    {
        // Half a request line, then slam the connection shut.
        let mut raw = TcpStream::connect(gateway.local_addr()).unwrap();
        raw.write_all(b"POST /v1/inf").unwrap();
        drop(raw);
    }
    {
        // A full head promising a body that never comes, then close.
        let mut raw = TcpStream::connect(gateway.local_addr()).unwrap();
        raw.write_all(b"POST /v1/infer HTTP/1.1\r\nContent-Length: 512\r\n\r\n")
            .unwrap();
        drop(raw);
    }
    assert_still_serving(&gateway);
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn missing_content_length_is_a_clean_400() {
    let (server, mut gateway) = serving_stack(3);
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    // No Content-Length at all: the parser sees an empty body, the JSON
    // codec rejects it — never a hang waiting for bytes.
    client.send_raw(b"POST /v1/infer HTTP/1.1\r\n\r\n").unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 400);
    assert_still_serving(&gateway);
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn oversized_content_length_is_413_before_the_body_uploads() {
    let (server, mut gateway) = serving_stack(4);
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    // Claim 100 MB against a 64 KB limit; send no body bytes at all — the
    // rejection must come from the head alone.
    client
        .send_raw(b"POST /v1/infer HTTP/1.1\r\nContent-Length: 104857600\r\n\r\n")
        .unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 413);
    assert_still_serving(&gateway);
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn unterminated_giant_head_is_rejected() {
    let (server, mut gateway) = serving_stack(5);
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    // 4 KB of header bytes with no blank line against a 2 KB head limit.
    let flood = format!("GET / HTTP/1.1\r\nX-Junk: {}\r\n", "a".repeat(4096));
    client.send_raw(flood.as_bytes()).unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 400);
    assert_still_serving(&gateway);
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn request_split_across_many_tcp_segments_still_parses() {
    let (server, mut gateway) = serving_stack(6);
    let body = good_body();
    let raw = format!(
        "POST /v1/infer HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    // Dribble the request in 7-byte segments with real pauses, crossing
    // head/body boundaries at arbitrary offsets.
    for chunk in raw.as_bytes().chunks(7) {
        client.send_raw(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 200);
    assert_still_serving(&gateway);
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn pipelined_keep_alive_requests_are_each_answered_in_order() {
    let (server, mut gateway) = serving_stack(7);
    let body = good_body();
    let infer = format!(
        "POST /v1/infer HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let pipeline = format!("{infer}GET /healthz HTTP/1.1\r\n\r\n{infer}");
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    client.send_raw(pipeline.as_bytes()).unwrap();
    let first = client.read_response().unwrap();
    let second = client.read_response().unwrap();
    let third = client.read_response().unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(second.status, 200);
    assert_eq!(second.body, b"ok\n");
    assert_eq!(third.status, 200);
    assert!(third.keep_alive, "pipelining must not poison keep-alive");
    assert_still_serving(&gateway);
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn binary_garbage_and_bad_json_do_not_kill_the_worker() {
    let (server, mut gateway) = serving_stack(8);
    {
        let mut raw = TcpStream::connect(gateway.local_addr()).unwrap();
        raw.write_all(&[0xff, 0x00, 0x13, 0x37, b'\r', b'\n', b'\r', b'\n'])
            .unwrap();
        // Response or reset — either way, no panic and no hang.
    }
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    let response = client.post_json("/v1/infer", "{not json").unwrap();
    assert_eq!(response.status, 400);
    // Wrong geometry is a 400 too — and must NOT pin the stream's dims.
    let wrong = InferRequest::new(vec![2, 2], vec![0.1; 4]);
    let response = client
        .post_json("/v1/infer", &serde_json::to_string(&wrong).unwrap())
        .unwrap();
    assert_eq!(response.status, 400);
    assert_still_serving(&gateway);
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn idle_keep_alive_connections_cannot_starve_the_worker_pool() {
    // Regression: with one connection worker, a parked keep-alive client
    // used to pin it forever and every later connection queued without
    // ever being served. keep_alive_idle must reclaim the worker.
    let mut rng = StdRng::seed_from_u64(20);
    let net = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(12, 3, &mut rng)),
    ]);
    let model = Arc::new(convert(&net, Base2Kernel::paper_default(), 16).unwrap());
    let server = Arc::new(
        BackendChoice::Csr
            .serve_streaming(model, &DIMS, StreamingConfig::default())
            .unwrap(),
    );
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            workers: 1, // the worst case: a single connection worker
            poll_interval: Duration::from_millis(10),
            keep_alive_idle: Duration::from_millis(100),
            ..GatewayConfig::for_dims(&DIMS)
        },
    )
    .unwrap();

    // Occupy the only worker with a connection that completes one request
    // and then just sits there, keep-alive.
    let mut parked = HttpClient::connect(gateway.local_addr()).unwrap();
    assert_eq!(
        parked.post_json("/v1/infer", &good_body()).unwrap().status,
        200
    );

    // A second connection must still get served once the idle timeout
    // reclaims the worker (well before the client's read timeout).
    assert_still_serving(&gateway);
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn unknown_routes_and_methods_get_404_405() {
    let (server, mut gateway) = serving_stack(9);
    let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/v1/infer").unwrap().status, 405);
    assert_eq!(client.post_json("/metrics", "{}").unwrap().status, 405);
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    assert_still_serving(&gateway);
    gateway.shutdown();
    server.shutdown();
}

/// Reads one response head, byte by byte so nothing past its blank line
/// is consumed.
fn read_head(stream: &mut TcpStream) -> String {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("head byte");
        head.push(byte[0]);
    }
    String::from_utf8(head).expect("ASCII head")
}

/// RFC 9110 §9.3.2: a HEAD response carries no content. A compliant
/// client reads the head alone and sends its next request on the same
/// connection; any body bytes would be read as the next response.
#[test]
fn head_gets_the_head_alone_and_the_connection_stays_in_step() {
    let (server, mut gateway) = serving_stack(12);
    let mut raw = TcpStream::connect(gateway.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let head = read_head(&mut raw);
    assert!(head.starts_with("HTTP/1.1 405 "), "{head}");
    assert!(head.contains("\r\nAllow: GET\r\n"), "{head}");
    assert!(head.contains("\r\nContent-Length: "), "{head}");
    raw.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let head = read_head(&mut raw);
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    assert!(head.contains("\r\nContent-Length: 3\r\n"), "{head}");
    let mut body = [0u8; 3];
    raw.read_exact(&mut body).unwrap();
    assert_eq!(&body, b"ok\n");
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn parse_errors_are_counted_in_gateway_metrics() {
    let (server, mut gateway) = serving_stack(10);
    for _ in 0..3 {
        let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
        client.send_raw(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
        let _ = client.read_response();
    }
    assert_still_serving(&gateway);
    let metrics = gateway.shutdown();
    assert_eq!(metrics.parse_errors, 3);
    assert!(metrics.responses_2xx >= 1);
    server.shutdown();
}

#[test]
fn graceful_drain_answers_503_then_refuses_connections() {
    let (server, mut gateway) = serving_stack(11);
    let addr = gateway.local_addr();
    // A healthy request first.
    assert_still_serving(&gateway);
    let metrics = gateway.shutdown();
    assert!(metrics.responses_2xx >= 1);
    // After shutdown the port no longer accepts (or resets immediately) —
    // and crucially, shutdown() returned instead of hanging.
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut stream) => {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut client_buf = [0u8; 64];
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            matches!(
                std::io::Read::read(&mut stream, &mut client_buf),
                Ok(0) | Err(_)
            )
        }
    };
    assert!(refused, "drained gateway must not serve new traffic");
    server.shutdown();
}
