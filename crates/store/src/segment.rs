//! The on-disk segment format and its recovery scanner.
//!
//! A store directory holds numbered segment files (`seg-00000001.log`,
//! ids strictly increasing, never reused — compaction writes fresh ids
//! and deletes the old files). Each segment is:
//!
//! ```text
//! ┌──────────────────────────── header (12 bytes) ────────────────────┐
//! │ magic "AFSTOR01" (8 bytes) │ version u32 LE (= 1)                 │
//! ├──────────────────────────── record frame ─────────────────────────┤
//! │ len u32 LE │ crc32(payload) u32 LE │ payload (len bytes, codec)   │
//! ├───────────────────────────────────────────────────────────────────┤
//! │ … more record frames, until EOF …                                 │
//! └───────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Recovery trusts nothing: a bad header skips the whole segment; a
//! frame whose length runs past EOF (a torn append) ends the segment; a
//! CRC mismatch or an undecodable payload skips that record and resyncs
//! at the next frame. Every skip is counted, nothing panics, and a
//! record is only ever surfaced when its CRC *and* its codec decode both
//! check out — a corrupt report can be lost, never returned.

use std::fmt;
use std::fs;
use std::path::Path;

use crate::codec::{decode_record, Record};
use crate::crc::crc32;

/// Leading bytes of every segment file.
pub const MAGIC: [u8; 8] = *b"AFSTOR01";
/// Format version written after the magic.
pub const VERSION: u32 = 1;
/// Header size in bytes (magic + version).
pub const HEADER_LEN: usize = 12;
/// Frame overhead per record (length + CRC).
pub const FRAME_LEN: usize = 8;
/// Upper bound on one record payload; anything larger in a length field
/// is treated as corruption.
pub const MAX_RECORD_BYTES: usize = 1 << 26; // 64 MiB

/// Builds the file name of segment `id`.
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:08}.log")
}

/// Parses a segment id back out of a file name, if it is one of ours.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The 12-byte header every segment starts with.
pub fn header_bytes() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&MAGIC);
    h[8..].copy_from_slice(&VERSION.to_le_bytes());
    h
}

/// Frames one encoded payload: `len | crc | payload`.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why the record frame at the front of a buffer did not parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer than [`FRAME_LEN`] bytes left.
    TruncatedHeader,
    /// A length field over [`MAX_RECORD_BYTES`].
    Oversized,
    /// The length field runs past the end of the buffer.
    TruncatedRecord,
    /// The payload fails its CRC. The length field still frames it: the
    /// frame is `frame_len` bytes long.
    Crc {
        /// Bytes to the next frame.
        frame_len: usize,
    },
    /// The payload passes its CRC but does not decode; the frame is
    /// `frame_len` bytes long.
    Undecodable {
        /// Bytes to the next frame.
        frame_len: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FrameError::TruncatedHeader => "truncated frame header",
            FrameError::Oversized => "oversized record",
            FrameError::TruncatedRecord => "truncated record",
            FrameError::Crc { .. } => "CRC mismatch",
            FrameError::Undecodable { .. } => "undecodable record",
        })
    }
}

/// Parses the record frame at the front of `buf` (`len | crc | payload`,
/// as [`frame_record`] writes it): bounds, CRC, then the codec decode.
/// Returns the record and the frame's length in bytes. Never panics,
/// whatever the bytes; each caller picks its own policy for an error.
pub fn parse_frame(buf: &[u8]) -> Result<(Record, usize), FrameError> {
    if buf.len() < FRAME_LEN {
        return Err(FrameError::TruncatedHeader);
    }
    let len = read_u32(buf, 0) as usize;
    let crc = read_u32(buf, 4);
    if len > MAX_RECORD_BYTES {
        return Err(FrameError::Oversized);
    }
    let frame_len = FRAME_LEN + len;
    let Some(payload) = buf.get(FRAME_LEN..frame_len) else {
        return Err(FrameError::TruncatedRecord);
    };
    if crc32(payload) != crc {
        return Err(FrameError::Crc { frame_len });
    }
    match decode_record(payload) {
        Ok(record) => Ok((record, frame_len)),
        Err(_) => Err(FrameError::Undecodable { frame_len }),
    }
}

/// What one segment scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Records whose CRC and decode both validated.
    pub records: u64,
    /// Records skipped: CRC mismatch, undecodable payload, or a torn /
    /// truncated tail (the tail counts as one skip).
    pub skipped: u64,
    /// True when the segment header itself was missing or wrong (the
    /// whole segment is skipped and counted as one `skipped`).
    pub bad_header: bool,
}

/// A validated record with its position inside the segment buffer.
#[derive(Debug)]
pub struct ScannedRecord {
    /// The decoded record.
    pub record: Record,
    /// Byte offset of the frame (the `len` field) within the segment.
    pub frame_offset: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
}

fn read_u32(buf: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]])
}

/// Scans one segment buffer, calling `emit` for every intact record in
/// file order. Returns the scan statistics; never panics, whatever the
/// bytes.
pub fn scan_segment_bytes(buf: &[u8], mut emit: impl FnMut(ScannedRecord)) -> ScanStats {
    let mut stats = ScanStats::default();
    if buf.len() < HEADER_LEN || buf[..8] != MAGIC || read_u32(buf, 8) != VERSION {
        stats.bad_header = true;
        stats.skipped = 1;
        return stats;
    }
    let mut pos = HEADER_LEN;
    while pos < buf.len() {
        match parse_frame(&buf[pos..]) {
            Ok((record, frame_len)) => {
                emit(ScannedRecord {
                    record,
                    frame_offset: pos as u64,
                    payload_len: (frame_len - FRAME_LEN) as u32,
                });
                stats.records += 1;
                pos += frame_len;
            }
            Err(FrameError::Crc { frame_len } | FrameError::Undecodable { frame_len }) => {
                // The length field still framed it: resync after it.
                stats.skipped += 1;
                pos += frame_len;
            }
            Err(_) => {
                // A torn frame header, a torn append or a corrupt length:
                // the rest of the segment cannot be trusted for resync,
                // drop it as one skip.
                stats.skipped += 1;
                break;
            }
        }
    }
    stats
}

/// Reads and scans one segment file. An unreadable file counts as a bad
/// header (one skip).
pub fn scan_segment_file(path: &Path, emit: impl FnMut(ScannedRecord)) -> ScanStats {
    match fs::read(path) {
        Ok(buf) => scan_segment_bytes(&buf, emit),
        Err(_) => ScanStats {
            records: 0,
            skipped: 1,
            bad_header: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_record;
    use arrayflow_engine::{CacheKey, ProblemSet};
    use arrayflow_ir::Fingerprint;

    fn tombstone(fp: u128) -> Record {
        Record::Tombstone {
            key: CacheKey {
                fingerprint: Fingerprint(fp),
                problems: ProblemSet::ALL,
                dep_max_distance: 8,
                custom: None,
            },
        }
    }

    fn segment_with(records: &[Record]) -> Vec<u8> {
        let mut buf = header_bytes().to_vec();
        for r in records {
            buf.extend_from_slice(&frame_record(&encode_record(r)));
        }
        buf
    }

    #[test]
    fn file_names_round_trip() {
        assert_eq!(segment_file_name(1), "seg-00000001.log");
        assert_eq!(parse_segment_file_name("seg-00000001.log"), Some(1));
        assert_eq!(
            parse_segment_file_name("seg-123456789.log"),
            Some(123_456_789)
        );
        assert_eq!(parse_segment_file_name("seg-.log"), None);
        assert_eq!(parse_segment_file_name("seg-1x.log"), None);
        assert_eq!(parse_segment_file_name("other.log"), None);
    }

    #[test]
    fn scans_intact_segment() {
        let buf = segment_with(&[tombstone(1), tombstone(2), tombstone(3)]);
        let mut seen = Vec::new();
        let stats = scan_segment_bytes(&buf, |r| seen.push(r.record.key().fingerprint.0));
        assert_eq!(
            stats,
            ScanStats {
                records: 3,
                skipped: 0,
                bad_header: false
            }
        );
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn truncated_tail_counts_one_skip() {
        let buf = segment_with(&[tombstone(1), tombstone(2)]);
        // Chop into the middle of the second record.
        let cut = buf.len() - 5;
        let mut seen = 0;
        let stats = scan_segment_bytes(&buf[..cut], |_| seen += 1);
        assert_eq!(seen, 1);
        assert_eq!(
            stats,
            ScanStats {
                records: 1,
                skipped: 1,
                bad_header: false
            }
        );
    }

    #[test]
    fn crc_flip_skips_record_and_resyncs() {
        let mut buf = segment_with(&[tombstone(1), tombstone(2), tombstone(3)]);
        // Flip a byte in the *body* of the first record (after its frame).
        buf[HEADER_LEN + FRAME_LEN + 2] ^= 0xFF;
        let mut seen = Vec::new();
        let stats = scan_segment_bytes(&buf, |r| seen.push(r.record.key().fingerprint.0));
        assert_eq!(seen, vec![2, 3]);
        assert_eq!(stats.records, 2);
        assert_eq!(stats.skipped, 1);
    }

    #[test]
    fn parse_frame_names_each_failure() {
        let frame = frame_record(&encode_record(&tombstone(1)));
        let (record, n) = parse_frame(&frame).unwrap();
        assert_eq!((record.key().fingerprint.0, n), (1, frame.len()));
        assert_eq!(
            parse_frame(&frame[..7]).unwrap_err(),
            FrameError::TruncatedHeader
        );
        let cut = parse_frame(&frame[..frame.len() - 1]).unwrap_err();
        assert_eq!(cut, FrameError::TruncatedRecord);
        let mut big = frame.clone();
        big[..4].copy_from_slice(&(MAX_RECORD_BYTES as u32 + 1).to_le_bytes());
        assert_eq!(parse_frame(&big).unwrap_err(), FrameError::Oversized);
        let frame_len = frame.len();
        let mut flipped = frame.clone();
        flipped[FRAME_LEN] ^= 0xFF;
        assert_eq!(
            parse_frame(&flipped).unwrap_err(),
            FrameError::Crc { frame_len }
        );
        let garbage = frame_record(&[0xFF; 5]);
        let frame_len = garbage.len();
        let undecodable = FrameError::Undecodable { frame_len };
        assert_eq!(parse_frame(&garbage).unwrap_err(), undecodable);
    }

    #[test]
    fn bad_header_skips_segment() {
        let mut buf = segment_with(&[tombstone(1)]);
        buf[0] ^= 0xFF;
        let stats = scan_segment_bytes(&buf, |_| panic!("no records from a bad header"));
        assert!(stats.bad_header);
        let stats = scan_segment_bytes(b"", |_| ());
        assert!(stats.bad_header);
    }

    #[test]
    fn random_bytes_never_panic() {
        // Deterministic pseudo-random garbage, including a valid header
        // followed by garbage.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [0usize, 1, 11, 12, 13, 64, 1024, 8192] {
            let mut buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            scan_segment_bytes(&buf, |_| ());
            if buf.len() >= HEADER_LEN {
                buf[..HEADER_LEN].copy_from_slice(&header_bytes());
                scan_segment_bytes(&buf, |_| ());
            }
        }
    }
}
