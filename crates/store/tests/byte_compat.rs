//! Byte-compatibility: the codec now lives in `arrayflow-wire`, and the
//! bytes must not have moved.
//!
//! `GOLDEN_SEGMENT_HEX` was captured from the **pre-extraction** codec
//! (the PR 3 implementation that lived inside this crate): one segment
//! holding a `Put` and a `Tombstone` for a fixed report/key. The
//! refactored codec must (a) reproduce these bytes exactly — so every
//! existing `seg-*.log` on disk was written in today's format — and
//! (b) decode them back to the original values — so existing segments
//! still recover.

use arrayflow_analyses::{Dep, DepKind, RedundantStore, Reuse};
use arrayflow_core::RefId;
use arrayflow_engine::{AnalysisReport, CacheKey, ProblemSet, SolveStats};
use arrayflow_ir::stmt::StmtId;
use arrayflow_ir::Fingerprint;
use arrayflow_store::codec::{encode_record, Record};
use arrayflow_store::segment::{frame_record, header_bytes, scan_segment_bytes};

/// Captured from the pre-refactor codec; regenerating it with today's
/// code must be a no-op.
const GOLDEN_SEGMENT_HEX: &str = "414653544f5230310100000044000000d12c50f2017766554433221100efcdab89674523010f087766554433221100efcdab89674523010f080703010715030201070e020100000101000002010102010501000100010200130000004374a8e9027766554433221100efcdab89674523010f08";

fn golden_report() -> AnalysisReport {
    AnalysisReport {
        fingerprint: Fingerprint(0x0123_4567_89ab_cdef_0011_2233_4455_6677),
        problems: ProblemSet::ALL,
        dep_max_distance: 8,
        nodes: 7,
        sites: 3,
        canned_stats: [
            Some(SolveStats {
                init_visits: 7,
                iter_visits: 21,
                passes: 3,
                changing_passes: 2,
            }),
            Some(SolveStats {
                init_visits: 7,
                iter_visits: 14,
                passes: 2,
                changing_passes: 1,
            }),
            None,
            None,
        ],
        reuses: vec![Reuse {
            use_site: 1,
            gen: RefId(0),
            gen_site: 0,
            distance: 2,
            gen_is_def: true,
        }],
        redundant_stores: vec![RedundantStore {
            store_site: 2,
            stmt: Some(StmtId(5)),
            distance: 1,
            killer_site: 0,
        }],
        dependences: vec![Dep {
            src_site: 0,
            dst_site: 1,
            distance: 2,
            kind: DepKind::Flow,
        }],
        custom: None,
    }
}

fn golden_key() -> CacheKey {
    CacheKey {
        fingerprint: Fingerprint(0x0123_4567_89ab_cdef_0011_2233_4455_6677),
        problems: ProblemSet::ALL,
        dep_max_distance: 8,
        custom: None,
    }
}

fn golden_segment() -> Vec<u8> {
    let mut seg = Vec::new();
    seg.extend_from_slice(&header_bytes());
    seg.extend_from_slice(&frame_record(&encode_record(&Record::Put {
        key: golden_key(),
        report: Box::new(golden_report()),
    })));
    seg.extend_from_slice(&frame_record(&encode_record(&Record::Tombstone {
        key: golden_key(),
    })));
    seg
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn refactored_codec_reproduces_pre_extraction_bytes() {
    assert_eq!(
        hex(&golden_segment()),
        GOLDEN_SEGMENT_HEX,
        "shared-codec extraction changed the segment encoding"
    );
}

#[test]
fn pre_extraction_segments_still_decode() {
    let seg = unhex(GOLDEN_SEGMENT_HEX);
    let mut records = Vec::new();
    let stats = scan_segment_bytes(&seg, |r| records.push(r.record));
    assert!(!stats.bad_header);
    assert_eq!(stats.records, 2);
    assert_eq!(stats.skipped, 0);
    assert_eq!(
        records[0],
        Record::Put {
            key: golden_key(),
            report: Box::new(golden_report()),
        }
    );
    assert_eq!(records[1], Record::Tombstone { key: golden_key() });
}

#[test]
fn wire_and_store_share_one_crc() {
    // The store's crc path is a re-export of the wire implementation:
    // same function, same table, same checksums.
    let payload = b"segment payload bytes";
    assert_eq!(
        arrayflow_store::crc32(payload),
        arrayflow_wire::crc32(payload)
    );
}
