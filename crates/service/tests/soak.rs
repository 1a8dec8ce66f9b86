//! Connection-scaling soak: many concurrent connections against one
//! event loop, every response byte-identical to a sequential replay —
//! against a node, and through a router in front of one.
//!
//! The connection count comes from `AF_SOAK_CONNS` (default 256; CI runs
//! 1000). The test adapts to the process fd limit: if connects start
//! failing partway it proceeds with what it got, as long as a sane floor
//! was reached.
#![cfg(unix)]

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use arrayflow_service::{Client, ClientConfig, ServiceConfig};
use arrayflow_wire::proto::{AnalyzeRequest, Request as WireRequest};
use arrayflow_wire::{encode_frame, FrameDecoder, FrameEvent};
use common::{Front, Stack};

const SRC: &str = "do i = 1, 60 B[i+1] := B[i] + c; end";
const FLOOR: usize = 64;

fn requests(fp: [u8; 16]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let ping = WireRequest::Ping { id: 1 };
    bytes.extend(encode_frame(ping.tag(), &ping.encode_payload()));
    let probe = WireRequest::Analyze(AnalyzeRequest {
        id: 2,
        fingerprint: Some(fp),
        problems: None,
        distance_bound: None,
        source: None,
    });
    bytes.extend(encode_frame(probe.tag(), &probe.encode_payload()));
    bytes
}

/// Reads exactly `n` response frames and returns their raw bytes.
fn read_frames(stream: &mut TcpStream, n: usize) -> Vec<u8> {
    let mut decoder = FrameDecoder::new(usize::MAX);
    let mut raw = Vec::new();
    let mut frames = 0;
    let mut buf = [0u8; 8192];
    while frames < n {
        let read = stream.read(&mut buf).expect("read response");
        assert!(read > 0, "server closed early");
        raw.extend_from_slice(&buf[..read]);
        decoder.extend(&buf[..read]);
        while let Some(ev) = decoder.next().unwrap() {
            assert!(matches!(ev, FrameEvent::Frame { .. }));
            frames += 1;
        }
    }
    raw
}

fn soak(front: Front) {
    let target: usize = std::env::var("AF_SOAK_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);

    let stack = Stack::start(front, ServiceConfig::default(), Duration::from_secs(60));
    let addr = stack.addr;

    // Warm the cache and learn the canonical fingerprint.
    let mut warm = Client::new(addr.to_string(), ClientConfig::default());
    let full = warm.analyze_binary(SRC).unwrap();
    let fp = full.loops[0].fingerprint;
    let burst = requests(fp);

    // The sequential replay — the byte-level ground truth.
    let expected = {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&burst).unwrap();
        read_frames(&mut stream, 2)
    };

    // Open as many concurrent connections as the fd limit allows, up to
    // the target, all held open at once.
    let t0 = std::time::Instant::now();
    let mut conns = Vec::new();
    for i in 0..target {
        // On a single hardware thread a tight connect loop can fill the
        // listen backlog before the event loop is ever scheduled to
        // accept, stalling connects in SYN retransmit; yielding lets the
        // loop drain the queue. Real clients arrive from other machines.
        if i % 64 == 63 {
            std::thread::yield_now();
        }
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                conns.push(s);
            }
            Err(_) => break, // fd limit; soak with what we have
        }
    }
    assert!(
        conns.len() >= FLOOR,
        "only {} connections opened; below the {} floor",
        conns.len(),
        FLOOR
    );
    eprintln!(
        "soak ({front:?}): {} concurrent connections (connect {:.2?})",
        conns.len(),
        t0.elapsed()
    );

    // Everyone writes first (all connections genuinely concurrent),
    // then everyone is read back.
    let t1 = std::time::Instant::now();
    for stream in conns.iter_mut() {
        stream.write_all(&burst).unwrap();
    }
    let t2 = std::time::Instant::now();
    for (i, stream) in conns.iter_mut().enumerate() {
        let got = read_frames(stream, 2);
        assert_eq!(got, expected, "connection {i} diverged from replay");
    }
    eprintln!(
        "soak ({front:?}): write burst {:.2?}, read-back {:.2?}",
        t2 - t1,
        t2.elapsed()
    );

    let mut c = Client::new(addr.to_string(), ClientConfig::default());
    let metrics = c.metrics_prometheus().unwrap();
    // Through a router the node's sample carries a `node` label.
    let hits: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("arrayflow_fingerprint_fast_hits_total"))
        .find_map(|l| l.rsplit(' ').next()?.parse().ok())
        .expect("fast-hit counter in exposition");
    assert!(
        hits > conns.len() as u64,
        "expected a fast hit per connection, saw {hits}"
    );

    c.shutdown().unwrap();
    stack.join();
}

#[test]
fn concurrent_connections_match_sequential_replay() {
    soak(Front::Node);
}

#[test]
fn concurrent_routed_connections_match_sequential_replay() {
    soak(Front::Router);
}
