//! The binary codec for persisted records, built on the shared
//! primitives in [`arrayflow_wire::codec`] (extracted from this crate in
//! PR 6 so the segment log and the binary wire protocol share one
//! implementation — the byte-compatibility tests in
//! `tests/byte_compat.rs` pin the encoding against pre-extraction
//! golden bytes).
//!
//! Integers are LEB128 varints, fingerprints are fixed 16-byte
//! little-endian, sequences are count-prefixed. Encoding is canonical
//! (minimal varints, fixed field order), so `encode(decode(encode(r)))`
//! reproduces the same bytes and two equal reports always serialize
//! identically — the property the store's byte-exact round-trip and the
//! service's byte-identical-across-restart guarantee rest on.
//!
//! Decoding is fully defensive: every read is bounds-checked, sequence
//! counts are validated against the remaining input before allocation,
//! enums reject unknown discriminants, and no input — however hostile —
//! panics. Corrupt bytes come back as [`DecodeError`].

use arrayflow_analyses::{Dep, DepKind, RedundantStore, Reuse};
use arrayflow_core::{CustomSpec, Dist, RefId, SolveStats};
use arrayflow_engine::{AnalysisReport, CacheKey, CustomResult, CustomValue, ProblemSet};
use arrayflow_ir::stmt::StmtId;
use arrayflow_ir::Fingerprint;
use arrayflow_wire::codec::{put_bool, put_u128, put_usize, put_varint, Reader};

pub use arrayflow_wire::codec::{DecodeError, DecodeResult};

// ---------------------------------------------------------------- write

/// The four solver counters, in [`SolveStats`] field order.
fn put_stats(out: &mut Vec<u8>, s: &SolveStats) {
    put_usize(out, s.init_visits);
    put_usize(out, s.iter_visits);
    put_usize(out, s.passes);
    put_usize(out, s.changing_passes);
}

fn put_opt_stats(out: &mut Vec<u8>, s: &Option<SolveStats>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_stats(out, s);
        }
    }
}

// ----------------------------------------------------------------- read

fn read_stats(r: &mut Reader<'_>) -> DecodeResult<SolveStats> {
    Ok(SolveStats {
        init_visits: r.usize()?,
        iter_visits: r.usize()?,
        passes: r.usize()?,
        changing_passes: r.usize()?,
    })
}

fn read_opt_stats(r: &mut Reader<'_>) -> DecodeResult<Option<SolveStats>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_stats(r)?)),
        _ => Err(DecodeError::BadDiscriminant),
    }
}

/// High bit of the problems byte: set when the key/report answers a
/// custom (G, K) spec, with [`CustomSpec::bits`] in the low bits. Canned
/// [`ProblemSet::bits`] never exceed `0b1111`, so every pre-custom byte
/// stream decodes unchanged and canned encodings stay byte-identical.
const CUSTOM_MARKER: u8 = 0x80;

fn put_problems_byte(out: &mut Vec<u8>, problems: ProblemSet, custom: Option<CustomSpec>) {
    match custom {
        Some(spec) => out.push(CUSTOM_MARKER | spec.bits()),
        None => out.push(problems.bits()),
    }
}

fn read_problems_byte(r: &mut Reader<'_>) -> DecodeResult<(ProblemSet, Option<CustomSpec>)> {
    let byte = r.u8()?;
    if byte & CUSTOM_MARKER != 0 {
        let spec =
            CustomSpec::from_bits(byte & !CUSTOM_MARKER).ok_or(DecodeError::BadDiscriminant)?;
        Ok((ProblemSet::NONE, Some(spec)))
    } else {
        let problems = ProblemSet::from_bits(byte).ok_or(DecodeError::BadDiscriminant)?;
        Ok((problems, None))
    }
}

fn put_dist(out: &mut Vec<u8>, dist: Dist) {
    match dist {
        Dist::Bottom => out.push(0),
        Dist::Fin(x) => {
            out.push(1);
            put_varint(out, x);
        }
        Dist::Top => out.push(2),
    }
}

fn read_dist(r: &mut Reader<'_>) -> DecodeResult<Dist> {
    match r.u8()? {
        0 => Ok(Dist::Bottom),
        1 => Ok(Dist::Fin(r.varint()?)),
        2 => Ok(Dist::Top),
        _ => Err(DecodeError::BadDiscriminant),
    }
}

// ------------------------------------------------------------- key

/// Appends the canonical encoding of `key` to `out`.
pub fn encode_key_into(out: &mut Vec<u8>, key: &CacheKey) {
    put_u128(out, key.fingerprint.0);
    put_problems_byte(out, key.problems, key.custom);
    put_varint(out, key.dep_max_distance);
}

fn decode_key(r: &mut Reader<'_>) -> DecodeResult<CacheKey> {
    let fingerprint = Fingerprint(r.u128()?);
    let (problems, custom) = read_problems_byte(r)?;
    Ok(CacheKey {
        fingerprint,
        problems,
        dep_max_distance: r.varint()?,
        custom,
    })
}

// ---------------------------------------------------------- report

/// Appends the canonical encoding of `report` to `out`.
pub fn encode_report_into(out: &mut Vec<u8>, report: &AnalysisReport) {
    put_u128(out, report.fingerprint.0);
    put_problems_byte(out, report.problems, report.custom.as_ref().map(|c| c.spec));
    put_varint(out, report.dep_max_distance);
    put_usize(out, report.nodes);
    put_usize(out, report.sites);
    for stats in &report.canned_stats {
        put_opt_stats(out, stats);
    }

    put_usize(out, report.reuses.len());
    for r in &report.reuses {
        put_usize(out, r.use_site);
        put_varint(out, r.gen.0 as u64);
        put_usize(out, r.gen_site);
        put_varint(out, r.distance);
        put_bool(out, r.gen_is_def);
    }
    put_usize(out, report.redundant_stores.len());
    for s in &report.redundant_stores {
        put_usize(out, s.store_site);
        match s.stmt {
            None => out.push(0),
            Some(StmtId(id)) => {
                out.push(1);
                put_varint(out, id as u64);
            }
        }
        put_varint(out, s.distance);
        put_usize(out, s.killer_site);
    }
    put_usize(out, report.dependences.len());
    for d in &report.dependences {
        put_usize(out, d.src_site);
        put_usize(out, d.dst_site);
        put_varint(out, d.distance);
        out.push(match d.kind {
            DepKind::Flow => 0,
            DepKind::Anti => 1,
            DepKind::Output => 2,
        });
    }
    // The custom section rides behind the marker bit of the problems
    // byte, so canned reports (the only kind older readers know) encode
    // byte-identically to the pre-custom format.
    if let Some(c) = &report.custom {
        put_stats(out, &c.stats);
        put_usize(out, c.width);
        put_usize(out, c.values.len());
        for v in &c.values {
            put_varint(out, v.gen as u64);
            put_varint(out, v.gen_site as u64);
            put_varint(out, v.node as u64);
            put_dist(out, v.dist);
        }
    }
}

/// The canonical encoding of one report, standalone.
pub fn encode_report(report: &AnalysisReport) -> Vec<u8> {
    let mut out = Vec::new();
    encode_report_into(&mut out, report);
    out
}

fn decode_report_inner(r: &mut Reader<'_>) -> DecodeResult<AnalysisReport> {
    let fingerprint = Fingerprint(r.u128()?);
    let (problems, custom_spec) = read_problems_byte(r)?;
    let dep_max_distance = r.varint()?;
    let nodes = r.usize()?;
    let sites = r.usize()?;
    let mut canned_stats = [None; 4];
    for stats in &mut canned_stats {
        *stats = read_opt_stats(r)?;
    }

    let n = r.count(5)?; // use_site, gen, gen_site, distance, flag
    let mut reuses = Vec::with_capacity(n);
    for _ in 0..n {
        reuses.push(Reuse {
            use_site: r.usize()?,
            gen: RefId(r.u32()?),
            gen_site: r.usize()?,
            distance: r.varint()?,
            gen_is_def: r.bool()?,
        });
    }
    let n = r.count(4)?; // store_site, stmt tag, distance, killer_site
    let mut redundant_stores = Vec::with_capacity(n);
    for _ in 0..n {
        let store_site = r.usize()?;
        let stmt = match r.u8()? {
            0 => None,
            1 => Some(StmtId(r.u32()?)),
            _ => return Err(DecodeError::BadDiscriminant),
        };
        redundant_stores.push(RedundantStore {
            store_site,
            stmt,
            distance: r.varint()?,
            killer_site: r.usize()?,
        });
    }
    let n = r.count(4)?; // src, dst, distance, kind
    let mut dependences = Vec::with_capacity(n);
    for _ in 0..n {
        dependences.push(Dep {
            src_site: r.usize()?,
            dst_site: r.usize()?,
            distance: r.varint()?,
            kind: match r.u8()? {
                0 => DepKind::Flow,
                1 => DepKind::Anti,
                2 => DepKind::Output,
                _ => return Err(DecodeError::BadDiscriminant),
            },
        });
    }

    let custom = match custom_spec {
        None => None,
        Some(spec) => {
            let stats = read_stats(r)?;
            let width = r.usize()?;
            let n = r.count(4)?; // gen, gen_site, node, dist tag
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(CustomValue {
                    gen: r.u32()?,
                    gen_site: r.u32()?,
                    node: r.u32()?,
                    dist: read_dist(r)?,
                });
            }
            Some(CustomResult {
                spec,
                stats,
                width,
                values,
            })
        }
    };

    Ok(AnalysisReport {
        fingerprint,
        problems,
        dep_max_distance,
        nodes,
        sites,
        canned_stats,
        reuses,
        redundant_stores,
        dependences,
        custom,
    })
}

/// Decodes a standalone report, rejecting trailing bytes.
pub fn decode_report(bytes: &[u8]) -> DecodeResult<AnalysisReport> {
    let mut r = Reader::new(bytes);
    let report = decode_report_inner(&mut r)?;
    r.finish()?;
    Ok(report)
}

// ---------------------------------------------------------- records

/// One logical entry of the segment log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A report stored under its cache key (last write wins).
    Put {
        /// The memo-cache identity of the report.
        key: CacheKey,
        /// The persisted analysis (boxed: a report is an order of
        /// magnitude larger than a tombstone).
        report: Box<AnalysisReport>,
    },
    /// A deletion marker: earlier `Put`s for `key` are dead and will be
    /// dropped by the next compaction.
    Tombstone {
        /// The deleted key.
        key: CacheKey,
    },
}

impl Record {
    /// The key this record is about.
    pub fn key(&self) -> &CacheKey {
        match self {
            Record::Put { key, .. } | Record::Tombstone { key } => key,
        }
    }
}

const TAG_PUT: u8 = 1;
const TAG_TOMBSTONE: u8 = 2;

/// The canonical encoding of one record (a segment-log payload).
pub fn encode_record(record: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    match record {
        Record::Put { key, report } => {
            out.push(TAG_PUT);
            encode_key_into(&mut out, key);
            encode_report_into(&mut out, report);
        }
        Record::Tombstone { key } => {
            out.push(TAG_TOMBSTONE);
            encode_key_into(&mut out, key);
        }
    }
    out
}

/// Decodes a record payload, rejecting trailing bytes. Never panics on
/// arbitrary input.
pub fn decode_record(bytes: &[u8]) -> DecodeResult<Record> {
    let mut r = Reader::new(bytes);
    let record = match r.u8()? {
        TAG_PUT => Record::Put {
            key: decode_key(&mut r)?,
            report: Box::new(decode_report_inner(&mut r)?),
        },
        TAG_TOMBSTONE => Record::Tombstone {
            key: decode_key(&mut r)?,
        },
        _ => return Err(DecodeError::BadDiscriminant),
    };
    r.finish()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> AnalysisReport {
        AnalysisReport {
            fingerprint: Fingerprint(0xdead_beef_cafe_f00d_0123_4567_89ab_cdef),
            problems: ProblemSet::ALL,
            dep_max_distance: 8,
            nodes: 12,
            sites: 5,
            canned_stats: [
                Some(SolveStats {
                    init_visits: 12,
                    iter_visits: 36,
                    passes: 3,
                    changing_passes: 2,
                }),
                Some(SolveStats {
                    init_visits: 12,
                    iter_visits: 24,
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
                store_site: 3,
                stmt: Some(StmtId(7)),
                distance: 1,
                killer_site: 4,
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

    fn sample_key() -> CacheKey {
        CacheKey {
            fingerprint: Fingerprint(42),
            problems: ProblemSet::ALL,
            dep_max_distance: 8,
            custom: None,
        }
    }

    fn sample_custom_report() -> AnalysisReport {
        let spec = CustomSpec::from_bits(0b11_0110).unwrap(); // live elements
        AnalysisReport {
            fingerprint: Fingerprint(0x0123_4567_89ab_cdef_dead_beef_cafe_f00d),
            problems: ProblemSet::NONE,
            dep_max_distance: 8,
            nodes: 6,
            sites: 3,
            canned_stats: [None; 4],
            reuses: Vec::new(),
            redundant_stores: Vec::new(),
            dependences: Vec::new(),
            custom: Some(CustomResult {
                spec,
                stats: SolveStats {
                    init_visits: 6,
                    iter_visits: 12,
                    passes: 2,
                    changing_passes: 1,
                },
                width: 2,
                values: vec![
                    CustomValue {
                        gen: 0,
                        gen_site: 1,
                        node: 2,
                        dist: Dist::Fin(3),
                    },
                    CustomValue {
                        gen: 1,
                        gen_site: 2,
                        node: 0,
                        dist: Dist::Top,
                    },
                ],
            }),
        }
    }

    #[test]
    fn report_round_trips_byte_exactly() {
        let report = sample_report();
        let bytes = encode_report(&report);
        let decoded = decode_report(&bytes).unwrap();
        assert_eq!(decoded, report);
        // Canonical: re-encoding the decoded value reproduces the bytes.
        assert_eq!(encode_report(&decoded), bytes);
    }

    #[test]
    fn custom_report_round_trips_byte_exactly() {
        let report = sample_custom_report();
        let bytes = encode_report(&report);
        let decoded = decode_report(&bytes).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(encode_report(&decoded), bytes);

        let key = CacheKey {
            fingerprint: report.fingerprint,
            problems: ProblemSet::NONE,
            dep_max_distance: 8,
            custom: report.custom.as_ref().map(|c| c.spec),
        };
        let record = Record::Put {
            key,
            report: Box::new(report),
        };
        let bytes = encode_record(&record);
        assert_eq!(decode_record(&bytes).unwrap(), record);
    }

    #[test]
    fn canned_encoding_is_unchanged_by_the_custom_extension() {
        // The marker bit rides on the problems byte; a canned report must
        // not grow a custom section or shift any field.
        let bytes = encode_report(&sample_report());
        assert_eq!(bytes[16], ProblemSet::ALL.bits());
        assert!(bytes[16] & CUSTOM_MARKER == 0);
    }

    #[test]
    fn bad_custom_spec_bytes_are_rejected() {
        let report = sample_custom_report();
        let mut bytes = encode_report(&report);
        // The problems byte sits right after the 16-byte fingerprint.
        assert_eq!(bytes[16], CUSTOM_MARKER | 0b11_0110);
        // Marker with empty-G spec bits: invalid, must not panic.
        bytes[16] = CUSTOM_MARKER;
        assert_eq!(decode_report(&bytes), Err(DecodeError::BadDiscriminant));
        bytes[16] = CUSTOM_MARKER | 0b11_1100; // G empty, K full
        assert_eq!(decode_report(&bytes), Err(DecodeError::BadDiscriminant));
    }

    #[test]
    fn bad_dist_tag_is_rejected() {
        let report = sample_custom_report();
        let mut bytes = encode_report(&report);
        let last = bytes.len() - 1;
        assert_eq!(bytes[last], 2); // trailing value's dist tag (Top)
        bytes[last] = 3;
        assert_eq!(decode_report(&bytes), Err(DecodeError::BadDiscriminant));
    }

    #[test]
    fn custom_truncation_at_every_length_is_an_error_not_a_panic() {
        let bytes = encode_report(&sample_custom_report());
        for len in 0..bytes.len() {
            assert!(decode_report(&bytes[..len]).is_err(), "len {len}");
        }
    }

    #[test]
    fn records_round_trip() {
        for record in [
            Record::Put {
                key: sample_key(),
                report: Box::new(sample_report()),
            },
            Record::Tombstone { key: sample_key() },
        ] {
            let bytes = encode_record(&record);
            assert_eq!(decode_record(&bytes).unwrap(), record);
            assert_eq!(encode_record(&decode_record(&bytes).unwrap()), bytes);
        }
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        let bytes = encode_record(&Record::Put {
            key: sample_key(),
            report: Box::new(sample_report()),
        });
        for len in 0..bytes.len() {
            assert!(decode_record(&bytes[..len]).is_err(), "len {len}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_record(&Record::Tombstone { key: sample_key() });
        bytes.push(0);
        assert_eq!(decode_record(&bytes), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn huge_counts_do_not_allocate() {
        // TAG_PUT + valid key + valid report prefix, then a count claiming
        // u64::MAX reuses: must fail fast on the count check.
        let mut bytes = Vec::new();
        bytes.push(TAG_PUT);
        encode_key_into(&mut bytes, &sample_key());
        let mut report = sample_report();
        report.reuses.clear();
        report.redundant_stores.clear();
        report.dependences.clear();
        let body = encode_report(&report);
        // The empty report ends with three zero counts; replace the first
        // with a giant varint.
        bytes.extend_from_slice(&body[..body.len() - 3]);
        bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
        assert!(decode_record(&bytes).is_err());
    }
}
