//! Hostility suite: the binary decoder must never panic, never allocate
//! proportionally to a hostile length prefix, and must classify every
//! malformed input as an error or a pending state — on any byte stream.
//! The blocking reader ([`read_frame`]) gets the same inputs and must
//! agree with the decoder.

use std::io;

use arrayflow_wire::codec::put_varint;
use arrayflow_wire::frame::{
    detect, encode_frame, read_frame, Detect, FrameDecoder, FrameError, FrameEvent, MAGIC, VERSION,
};
use arrayflow_wire::proto::{Request, Response};

/// Deterministic xorshift64* — the workspace is zero-dependency, so the
/// fuzz corpus is generated, not sampled.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn byte(&mut self) -> u8 {
        (self.next() >> 32) as u8
    }
}

fn drain(dec: &mut FrameDecoder) -> Result<Vec<FrameEvent>, FrameError> {
    let mut out = Vec::new();
    while let Some(ev) = dec.next()? {
        out.push(ev);
    }
    Ok(out)
}

/// Checks that [`read_frame`] over `bytes` returns a frame exactly when a
/// fresh decoder's first event is that frame, and otherwise fails.
fn blocking_read_agrees(bytes: &[u8], max_payload: usize) {
    let mut dec = FrameDecoder::new(max_payload);
    dec.extend(bytes);
    let expected = match dec.next() {
        Ok(Some(FrameEvent::Frame { tag, payload })) => Some((tag, payload)),
        _ => None,
    };
    assert_eq!(read_frame(&mut &bytes[..], max_payload).ok(), expected);
}

#[test]
fn random_bytes_never_panic_the_frame_decoder() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for round in 0..500 {
        let len = (rng.next() % 256) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.byte()).collect();
        let mut dec = FrameDecoder::new(4096);
        dec.extend(&bytes);
        // Any outcome is fine; panicking or ballooning is not.
        let _ = drain(&mut dec);
        assert!(dec.buffered() <= bytes.len(), "round {round}");
        blocking_read_agrees(&bytes, 4096);
    }
}

#[test]
fn random_mutations_of_a_valid_frame_never_panic() {
    let base = encode_frame(0x02, b"do i = 1, n\n  a[i] = a[i-1]\nend");
    let mut rng = Rng(0xDEAD_BEEF_CAFE_F00D);
    for _ in 0..2000 {
        let mut frame = base.clone();
        // Flip 1–4 random bytes.
        for _ in 0..(1 + rng.next() % 4) {
            let i = (rng.next() as usize) % frame.len();
            frame[i] ^= rng.byte() | 1;
        }
        blocking_read_agrees(&frame, 1 << 16);
        let mut dec = FrameDecoder::new(1 << 16);
        dec.extend(&frame);
        // A mutated frame that still decodes must have survived the
        // CRC only if the payload bytes are untouched — either way,
        // decoding the payload as a message must also not panic.
        if let Ok(events) = drain(&mut dec) {
            for ev in events {
                if let FrameEvent::Frame { tag, payload } = ev {
                    let _ = Request::decode(tag, &payload);
                    let _ = Response::decode(tag, &payload);
                }
            }
        }
    }
}

#[test]
fn random_payloads_never_panic_message_decode() {
    let mut rng = Rng(0x0123_4567_89AB_CDEF);
    for _ in 0..2000 {
        let len = (rng.next() % 128) as usize;
        let payload: Vec<u8> = (0..len).map(|_| rng.byte()).collect();
        let tag = rng.byte();
        let _ = Request::decode(tag, &payload);
        let _ = Response::decode(tag, &payload);
    }
}

#[test]
fn truncated_frames_pend_at_every_cut_point() {
    let frame = encode_frame(0x02, &vec![0x5A; 300]);
    for cut in 0..frame.len() {
        let mut dec = FrameDecoder::new(4096);
        dec.extend(&frame[..cut]);
        assert_eq!(dec.next(), Ok(None), "cut {cut}");
        // Completing the frame afterwards must still succeed.
        dec.extend(&frame[cut..]);
        assert!(matches!(
            dec.next(),
            Ok(Some(FrameEvent::Frame { tag: 0x02, .. }))
        ));
        // The blocking reader runs out of bytes instead.
        let err = read_frame(&mut &frame[..cut], 4096).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
    }
    // Whole, it reads the frame and not one byte past it.
    let mut stream = frame.clone();
    stream.extend_from_slice(b"next");
    let mut rest = &stream[..];
    assert_eq!(
        read_frame(&mut rest, 4096).unwrap(),
        (0x02, vec![0x5A; 300])
    );
    assert_eq!(rest, b"next");
}

#[test]
fn hostile_length_prefixes_never_allocate() {
    // Every declared length from just-over-cap to u64::MAX must be
    // rejected from the prefix without buffering the payload.
    for declared in [4097u64, 1 << 20, 1 << 40, u64::MAX / 2, u64::MAX] {
        let mut head = Vec::new();
        head.extend_from_slice(&MAGIC);
        head.push(VERSION);
        head.push(0x02);
        put_varint(&mut head, declared);
        head.extend_from_slice(&0u32.to_le_bytes());
        let mut dec = FrameDecoder::new(4096);
        dec.extend(&head);
        assert_eq!(
            dec.next(),
            Ok(Some(FrameEvent::Oversized {
                tag: 0x02,
                declared
            }))
        );
        assert_eq!(dec.buffered(), 0);
        let err = read_frame(&mut &head[..], 4096).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

#[test]
fn bad_version_and_bad_crc_are_terminal() {
    let mut bad_version = encode_frame(0x01, b"x");
    bad_version[8] = 2;
    let mut dec = FrameDecoder::new(4096);
    dec.extend(&bad_version);
    assert_eq!(dec.next(), Err(FrameError::BadVersion(2)));

    let mut bad_crc = encode_frame(0x01, b"payload");
    let n = bad_crc.len();
    bad_crc[n - 3] ^= 0x80;
    let mut dec = FrameDecoder::new(4096);
    dec.extend(&bad_crc);
    assert_eq!(dec.next(), Err(FrameError::BadCrc));

    for frame in [bad_version, bad_crc] {
        let err = read_frame(&mut &frame[..], 4096).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

#[test]
fn detection_ambiguity_cases() {
    // Every strict prefix of the magic is ambiguous; anything that
    // diverges — even at the last byte — is JSON.
    for n in 0..MAGIC.len() {
        assert_eq!(detect(&MAGIC[..n]), Detect::NeedMore, "prefix len {n}");
        let mut diverged = MAGIC[..n + 1].to_vec();
        diverged[n] ^= 0xFF;
        assert_eq!(detect(&diverged), Detect::Json, "diverge at {n}");
    }
    assert_eq!(detect(&MAGIC), Detect::Binary);
    // A JSON request always starts with '{' (or whitespace) — never 'A'.
    assert_eq!(detect(b"{\"verb\":\"ping\"}"), Detect::Json);
    assert_eq!(detect(b" "), Detect::Json);
    // Longer than the magic: classification uses only the first 8 bytes.
    let mut long = MAGIC.to_vec();
    long.extend_from_slice(b"garbage-after-magic");
    assert_eq!(detect(&long), Detect::Binary);
}

#[test]
fn pipelined_frames_with_noise_boundaries_decode_in_order() {
    // Three frames concatenated, fed in pathological chunk sizes.
    let mut stream = Vec::new();
    for (tag, body) in [(0x01u8, &b"a"[..]), (0x03, b"bb"), (0x02, b"ccc")] {
        stream.extend_from_slice(&encode_frame(tag, body));
    }
    for chunk in [1usize, 2, 3, 7, 16] {
        let mut dec = FrameDecoder::new(4096);
        let mut tags = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.extend(piece);
            while let Some(ev) = dec.next().unwrap() {
                if let FrameEvent::Frame { tag, .. } = ev {
                    tags.push(tag);
                }
            }
        }
        assert_eq!(tags, vec![0x01, 0x03, 0x02], "chunk size {chunk}");
    }
    // The blocking reader takes the same stream one frame per call.
    let mut rest = &stream[..];
    let tags: Vec<u8> = (0..3)
        .map(|_| read_frame(&mut rest, 4096).unwrap().0)
        .collect();
    assert_eq!(tags, vec![0x01, 0x03, 0x02]);
    assert!(rest.is_empty());
}
