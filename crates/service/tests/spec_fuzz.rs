//! Fuzz-style robustness tests for the custom-spec decoders.
//!
//! The `custom` verb walks untrusted bytes into two new decode paths —
//! the JSON `spec` object validator and the binary `0x0B` payload
//! decoder — and both sit in front of the solver. Mirroring the parser's
//! fuzz suite (`crates/ir/tests/parser_fuzz.rs`), these tests hammer the
//! paths with seeded random bytes, structured garbage and mutated valid
//! inputs, asserting every input comes back as a framed error or a
//! result — never a panic, and never an unbounded response.

use arrayflow_service::{Frame, Request, Service, ServiceConfig};
use arrayflow_wire::proto::{
    strip_deadline, with_deadline, AnalyzeRequest, CustomRequest, Request as WireRequest,
    MAX_DEADLINE_MS, TAG_ANALYZE, TAG_CUSTOM, TAG_DEADLINE_BIT,
};

/// SplitMix64 — the same tiny seeded generator the parser fuzz suite
/// uses, so failures replay deterministically.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn random_bytes_into_the_binary_custom_decoder_never_panic() {
    let mut rng = SplitMix64(0xc0ffee);
    for _ in 0..4_000 {
        let len = rng.below(200);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        // The result does not matter — only that we get one.
        let _ = WireRequest::decode(TAG_CUSTOM, &bytes);
    }
}

#[test]
fn mutated_valid_custom_payloads_never_panic() {
    let valid = WireRequest::Custom(CustomRequest {
        id: 7,
        spec: 0b11_0110,
        fingerprint: Some([9; 16]),
        distance_bound: Some(64),
        source: Some(b"do i = 1, 9 A[i] := 1; end".to_vec()),
    });
    let payload = valid.encode_payload();
    // Truncation at every prefix length.
    for len in 0..payload.len() {
        let _ = WireRequest::decode(TAG_CUSTOM, &payload[..len]);
    }
    // Random single- and multi-byte corruption.
    let mut rng = SplitMix64(0xdead);
    for _ in 0..4_000 {
        let mut bytes = payload.clone();
        for _ in 0..1 + rng.below(4) {
            let pos = rng.below(bytes.len());
            bytes[pos] = rng.next() as u8;
        }
        let _ = WireRequest::decode(TAG_CUSTOM, &bytes);
    }
}

#[test]
fn random_json_spec_values_never_panic_request_decode() {
    // Structured garbage exercises the validator (not just the JSON
    // lexer): random member names and values in a spec-shaped object.
    const KEYS: &[&str] = &[
        "gen",
        "kill",
        "direction",
        "mode",
        "bogus",
        "Gen",
        "",
        "g\\u0000",
    ];
    const VALUES: &[&str] = &[
        r#"["defs"]"#,
        r#"["uses"]"#,
        r#"["defs","uses"]"#,
        r#"["defs","defs","defs"]"#,
        r#"[]"#,
        r#"["both"]"#,
        r#"[1]"#,
        r#"[null]"#,
        r#""forward""#,
        r#""backward""#,
        r#""must""#,
        r#""may""#,
        r#""sideways""#,
        "17",
        "null",
        "true",
        r#"{"nested":1}"#,
        "-1e308",
    ];
    let mut rng = SplitMix64(0xf022);
    for _ in 0..4_000 {
        let members = rng.below(6);
        let mut spec = String::from("{");
        for i in 0..members {
            if i > 0 {
                spec.push(',');
            }
            spec.push('"');
            spec.push_str(KEYS[rng.below(KEYS.len())]);
            spec.push_str("\":");
            spec.push_str(VALUES[rng.below(VALUES.len())]);
        }
        spec.push('}');
        let frame = format!(
            r#"{{"id": 1, "verb": "custom", "program": "do i = 1, 9 A[i] := 1; end", "spec": {spec}}}"#
        );
        // Decode must classify, never panic.
        let _ = Request::decode(frame.as_bytes());
    }
}

#[test]
fn hostile_spec_frames_get_bounded_error_responses_end_to_end() {
    // The full JSON path: hostile spec shapes through a live service.
    // Every frame must come back answered (ok or structured error) with
    // a bounded response line.
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..Default::default()
    })
    .unwrap();
    let hostile = [
        r#"{"id":1,"verb":"custom","program":"do i = 1, 9 A[i] := 1; end"}"#.to_string(),
        r#"{"id":2,"verb":"custom","program":"x := 1;","spec":null}"#.to_string(),
        r#"{"id":3,"verb":"custom","program":"x := 1;","spec":[]}"#.to_string(),
        r#"{"id":4,"verb":"custom","program":"x := 1;","spec":{"gen":[]}}"#.to_string(),
        r#"{"id":5,"verb":"custom","program":"x := 1;","spec":{"kill":["defs"]}}"#.to_string(),
        r#"{"id":6,"verb":"custom","program":"x := 1;","spec":{"gen":["defs"],"mode":"perhaps"}}"#
            .to_string(),
        r#"{"id":7,"verb":"custom","program":"x := 1;","spec":{"gen":["defs"],"extra":1}}"#
            .to_string(),
        format!(
            r#"{{"id":8,"verb":"custom","program":"x := 1;","spec":{{"gen":["defs"]}},"distance_bound":{}}}"#,
            u64::MAX
        ),
        format!(
            r#"{{"id":9,"verb":"custom","program":"x := 1;","spec":{{"gen":["{}"]}}}}"#,
            "u".repeat(10_000)
        ),
    ];
    for frame in &hostile {
        let resp = String::from_utf8(service.handle_frame(Frame::Json(frame.as_bytes()))).unwrap();
        assert!(
            resp.contains(r#""ok":false"#),
            "hostile frame must be rejected: {frame} -> {}",
            resp
        );
        assert!(
            resp.len() < 64 << 10,
            "response must stay bounded: {} bytes",
            resp.len()
        );
    }
    // A valid spec still works after the barrage — the connection-level
    // state survives hostile frames.
    let resp = service.handle_frame(Frame::Json(
        br#"{"id":10,"verb":"custom","program":"do i = 1, 9 A[i+1] := A[i]; end","spec":{"gen":["uses"],"kill":["defs"],"direction":"backward","mode":"may"}}"#,
    ));
    let resp = String::from_utf8(resp).unwrap();
    assert!(resp.contains(r#""ok":true"#), "{}", resp);
    assert!(resp.contains("custom spec=gu-kd-bwd-may"), "{}", resp);
    service.shutdown();
    service.join_workers();
}

#[test]
fn random_deadline_prefixes_never_panic_the_binary_decoder() {
    // The deadline tag bit prepends a varint to the payload; hostile
    // prefixes (truncated, overlong, pure noise) must decode to an error
    // or a clamped value, never a panic or an out-of-bounds read.
    let mut rng = SplitMix64(0xdd11_u64 ^ 0x0dea_d1e5);
    for _ in 0..4_000 {
        let len = rng.below(32);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let tag = (rng.next() as u8) | TAG_DEADLINE_BIT;
        if let Ok((base, deadline, offset)) = strip_deadline(tag, &bytes) {
            assert_eq!(base, tag & !TAG_DEADLINE_BIT);
            assert!(deadline.unwrap() <= MAX_DEADLINE_MS, "unclamped deadline");
            assert!(offset <= bytes.len(), "offset past payload end");
        }
    }
}

#[test]
fn mutated_deadline_prefixes_on_valid_frames_never_panic() {
    let valid = WireRequest::Analyze(AnalyzeRequest {
        id: 3,
        fingerprint: None,
        problems: None,
        distance_bound: None,
        source: Some(b"do i = 1, 9 A[i] := 1; end".to_vec()),
    });
    let (tag, payload) = with_deadline(valid.tag(), &valid.encode_payload(), 250);

    // Truncation at every prefix length: the varint header and the body
    // both get cut.
    for len in 0..payload.len() {
        if let Ok((base, _, offset)) = strip_deadline(tag, &payload[..len]) {
            let _ = WireRequest::decode(base, &payload[offset..len]);
        }
    }
    // Structured hostile headers in place of the encoded varint.
    let body = valid.encode_payload();
    let hostile_headers: &[&[u8]] = &[
        &[],                                                           // missing varint
        &[0xFF; 11],                                                   // varint never terminates
        &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F], // overlong u64
        &[0x80],                                                       // continuation then EOF
    ];
    for header in hostile_headers {
        let mut bytes = header.to_vec();
        bytes.extend_from_slice(&body);
        if let Ok((base, deadline, offset)) = strip_deadline(tag, &bytes) {
            assert!(deadline.unwrap() <= MAX_DEADLINE_MS);
            let _ = WireRequest::decode(base, &bytes[offset..]);
        }
    }
    // Random corruption across header + body.
    let mut rng = SplitMix64(0xbadd_11fe);
    for _ in 0..4_000 {
        let mut bytes = payload.clone();
        for _ in 0..1 + rng.below(4) {
            let pos = rng.below(bytes.len());
            bytes[pos] = rng.next() as u8;
        }
        if let Ok((base, _, offset)) = strip_deadline(tag, &bytes) {
            let _ = WireRequest::decode(base, &bytes[offset..]);
        }
    }
}

#[test]
fn absurd_deadline_values_are_clamped_on_both_protocols() {
    // Binary: any encodable budget survives the round trip clamped.
    for ms in [0, 1, MAX_DEADLINE_MS, MAX_DEADLINE_MS + 1, u64::MAX] {
        let ping = WireRequest::Ping { id: 1 };
        let (tag, payload) = with_deadline(ping.tag(), &ping.encode_payload(), ms);
        let (base, deadline, offset) = strip_deadline(tag, &payload).unwrap();
        assert_eq!(base, ping.tag());
        assert_eq!(deadline, Some(ms.min(MAX_DEADLINE_MS)));
        assert!(WireRequest::decode(base, &payload[offset..]).is_ok());
    }
    // JSON: hostile deadline_ms shapes classify (clamped value or framed
    // error), never panic — and huge-but-valid numbers clamp.
    let hostile = [
        r#"{"verb":"ping","deadline_ms":18446744073709551615}"#,
        r#"{"verb":"ping","deadline_ms":1e308}"#,
        r#"{"verb":"ping","deadline_ms":-1}"#,
        r#"{"verb":"ping","deadline_ms":0.5}"#,
        r#"{"verb":"ping","deadline_ms":"soon"}"#,
        r#"{"verb":"ping","deadline_ms":[250]}"#,
        r#"{"verb":"ping","deadline_ms":{"ms":250}}"#,
        r#"{"verb":"ping","deadline_ms":}"#,
    ];
    for frame in hostile {
        if let Ok(req) = Request::decode(frame.as_bytes()) {
            assert!(req.deadline_ms.unwrap_or(0) <= MAX_DEADLINE_MS, "{frame}");
        }
    }
}

#[test]
fn hostile_deadline_frames_get_bounded_error_responses_end_to_end() {
    // The full binary path: deadline-bit frames with garbage payloads
    // through a live service must answer with a bounded framed error (or
    // a result), never a panic and never a hung worker.
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..Default::default()
    })
    .unwrap();
    let mut rng = SplitMix64(0x005e_edd1);
    for i in 0..500 {
        let len = rng.below(64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let tag = if i % 2 == 0 {
            TAG_ANALYZE | TAG_DEADLINE_BIT
        } else {
            (rng.next() as u8) | TAG_DEADLINE_BIT
        };
        let resp = service.handle_frame(Frame::Binary(tag, &bytes));
        assert!(resp.len() < 64 << 10, "response must stay bounded");
    }
    // A well-formed budgeted frame still works after the barrage.
    let ok = WireRequest::Ping { id: 9 };
    let (tag, payload) = with_deadline(ok.tag(), &ok.encode_payload(), 5_000);
    let resp = service.handle_frame(Frame::Binary(tag, &payload));
    assert!(!resp.is_empty());
    service.shutdown();
    service.join_workers();
}

#[test]
fn random_spec_byte_times_flag_byte_cross_product_never_panics() {
    // The binary payload's first two variable bytes are the spec byte
    // and the flags byte; sweep the full cross product with and without
    // trailing content.
    for spec in 0..=u8::MAX {
        for flags in 0..=u8::MAX {
            let payload = [1u8, spec, flags];
            let _ = WireRequest::decode(TAG_CUSTOM, &payload);
            let mut with_body = payload.to_vec();
            with_body.extend_from_slice(&[16, 0, 0, 0]);
            let _ = WireRequest::decode(TAG_CUSTOM, &with_body);
        }
    }
}
