//! The resilient client against misbehaving servers: reconnect after
//! dropped connections, retry on `overloaded`, fail fast on structured
//! errors, and bounded time against a wedged server.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use arrayflow_service::{
    Client, ClientConfig, ClientError, ErrorKind, Frame, Json, Service, ServiceConfig,
};

/// A fast-retry config for tests: small deadlines, deterministic jitter.
fn test_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(2),
        max_retries: 4,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        backoff_seed: Some(7),
        ..ClientConfig::default()
    }
}

/// Runs `script` against each accepted connection on an ephemeral
/// listener, in order; returns the address and the server thread.
fn fake_server(script: Vec<fn(TcpStream)>) -> (String, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = thread::spawn(move || {
        for handler in script {
            let (stream, _) = listener.accept().expect("accept");
            handler(stream);
        }
    });
    (addr, handle)
}

/// Reads one request line and answers with a well-formed `ok` frame.
fn answer_ok(stream: TcpStream) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let mut w = &stream;
    w.write_all(b"{\"id\":0,\"ok\":true,\"pong\":true}\n")
        .expect("write");
}

/// Accepts and immediately drops the connection — a crash mid-session.
fn drop_connection(stream: TcpStream) {
    drop(stream);
}

/// One connection, three requests: `overloaded` twice (transient
/// backpressure), then an `ok` once capacity returns.
fn overloaded_twice_then_ok(stream: TcpStream) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = &stream;
    for reply in [
        b"{\"id\":0,\"ok\":false,\"error\":{\"kind\":\"overloaded\",\"message\":\"queue full\"}}\n"
            .as_slice(),
        b"{\"id\":0,\"ok\":false,\"error\":{\"kind\":\"overloaded\",\"message\":\"queue full\"}}\n"
            .as_slice(),
        b"{\"id\":0,\"ok\":true,\"pong\":true}\n".as_slice(),
    ] {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        w.write_all(reply).expect("write");
    }
}

/// Reads one request and answers a fatal `parse` error.
fn answer_parse_error(stream: TcpStream) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let mut w = &stream;
    w.write_all(b"{\"id\":0,\"ok\":false,\"error\":{\"kind\":\"parse\",\"message\":\"bad\"}}\n")
        .expect("write");
}

/// Reads one request and never answers — a wedged server.
fn wedge(stream: TcpStream) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    // Hold the socket open without responding until the client gives up.
    thread::sleep(Duration::from_millis(500));
}

#[test]
fn reconnects_when_the_server_drops_the_connection() {
    let (addr, server) = fake_server(vec![drop_connection, answer_ok]);
    let mut client = Client::new(addr, test_config());
    client.ping().expect("retry on a new connection succeeds");
    assert_eq!(client.connects(), 2, "one reconnect");
    assert_eq!(client.retries(), 1);
    server.join().expect("fake server");
}

#[test]
fn survives_a_mid_session_crash() {
    // First connection serves one request then dies; the client's next
    // request sees EOF, redials, and resends.
    let (addr, server) = fake_server(vec![answer_ok, answer_ok]);
    let mut client = Client::new(addr, test_config());
    client.ping().expect("first request");
    client.ping().expect("second request after server restart");
    assert_eq!(client.connects(), 2);
    server.join().expect("fake server");
}

#[test]
fn overloaded_is_retried_until_capacity_returns() {
    let (addr, server) = fake_server(vec![overloaded_twice_then_ok]);
    let mut client = Client::new(addr, test_config());
    client.ping().expect("retries ride out the overload");
    assert_eq!(client.retries(), 2);
    // `overloaded` is an application answer, not a transport failure:
    // the client kept the connection instead of redialing.
    assert_eq!(client.connects(), 1);
    server.join().expect("fake server");
}

#[test]
fn fatal_service_errors_are_not_retried() {
    let (addr, server) = fake_server(vec![answer_parse_error]);
    let mut client = Client::new(addr, test_config());
    match client.analyze("do do do") {
        Err(ClientError::Service { kind, .. }) => assert_eq!(kind, Some(ErrorKind::Parse)),
        other => panic!("expected a fatal service error, got {other:?}"),
    }
    assert_eq!(client.retries(), 0, "a structured answer is final");
    server.join().expect("fake server");
}

#[test]
fn retry_budget_is_bounded() {
    // Nothing is listening on this address: every attempt fails fast
    // with connection-refused until the budget runs out.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);
    let mut config = test_config();
    config.max_retries = 2;
    let mut client = Client::new(addr, config);
    match client.ping() {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected transport failure, got {other:?}"),
    }
    assert_eq!(client.retries(), 2, "exactly max_retries resends");
}

#[test]
fn wedged_server_costs_bounded_time() {
    let (addr, server) = fake_server(vec![wedge]);
    let mut config = test_config();
    config.request_timeout = Duration::from_millis(100);
    config.max_retries = 0;
    let mut client = Client::new(addr, config);
    let start = Instant::now();
    match client.ping() {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected a deadline failure, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "deadline bounded the hang: {:?}",
        start.elapsed()
    );
    server.join().expect("fake server");
}

#[cfg(unix)]
#[test]
fn full_session_against_the_real_service() {
    use arrayflow_service::EventServer;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let service = Service::start(ServiceConfig::default()).expect("start");
    let server = EventServer::attach(listener, service);
    let server_thread = thread::spawn(move || server.run());

    let mut client = Client::connect(addr, test_config()).expect("connect");
    let a = client
        .analyze("do i = 1, 100 A[i+2] := A[i] + x; end")
        .expect("analyze");
    let b = client
        .analyze("do j = 1, 100 B[j+2] := B[j] + y; end")
        .expect("alpha-equivalent analyze");
    assert!(a.contains("reuse use_site"));
    assert!(b.contains("\"cache_hits\":1"), "memo cache hit: {b}");

    let metrics = client.metrics().expect("metrics");
    let metrics = Json::parse(metrics.as_bytes()).expect("metrics line parses");
    let text = common::exposition(&metrics);
    assert!(common::scrape(&text, "arrayflow_requests_total", &[]).is_some());

    client.shutdown().expect("shutdown");
    server_thread.join().expect("server thread").expect("run");
    assert_eq!(client.connects(), 1, "one connection for the whole session");
    assert_eq!(client.retries(), 0);
}

/// The in-process path is unaffected by client-side machinery: a
/// `Service` embedded directly still frames every response.
#[test]
fn embedded_service_still_frames_responses() {
    let service = Service::start(ServiceConfig::default()).expect("start");
    let resp = service.handle_frame(Frame::Json(br#"{"id": 1, "verb": "ping"}"#));
    assert!(String::from_utf8(resp).unwrap().contains("\"ok\":true"));
    service.shutdown();
    service.join_workers();
}
