//! Crash-recovery tests for the persistent report store.
//!
//! Each test builds a real store on disk, then damages it the way a
//! crash, a bad disk, or an operator would — truncating a segment
//! mid-record, flipping bytes in record bodies and CRC fields, deleting a
//! whole segment file — and asserts recovery's exact skip accounting,
//! that every undamaged record survives, and that nothing ever panics or
//! surfaces a corrupt report.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use arrayflow_engine::{AnalysisReport, CacheKey, ProblemSet};
use arrayflow_ir::Fingerprint;
use arrayflow_obs::Registry;
use arrayflow_store::segment::{FRAME_LEN, HEADER_LEN};
use arrayflow_store::{decode_record, Store, StoreConfig};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("afcrash-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Opens (and recovers) the store at `config` on a registry no test
/// reads.
fn open(config: StoreConfig) -> Store {
    Store::open_in(config, &Registry::new()).unwrap()
}

fn key(fp: u128) -> CacheKey {
    CacheKey {
        fingerprint: Fingerprint(fp),
        problems: ProblemSet::ALL,
        dep_max_distance: 8,
        custom: None,
    }
}

fn report(fp: u128) -> AnalysisReport {
    AnalysisReport {
        fingerprint: Fingerprint(fp),
        problems: ProblemSet::ALL,
        dep_max_distance: 8,
        nodes: 7,
        sites: 3,
        canned_stats: [None; 4],
        reuses: Vec::new(),
        redundant_stores: Vec::new(),
        dependences: Vec::new(),
        custom: None,
    }
}

/// Writes `n` records into one segment and returns the store directory's
/// single segment path.
fn populate_one_segment(dir: &TempDir, n: u128) -> PathBuf {
    let store = open(StoreConfig::at(&dir.0));
    for i in 0..n {
        store.put(key(i), report(i)).unwrap();
    }
    drop(store);
    let seg = dir.0.join(arrayflow_store::segment::segment_file_name(1));
    assert!(seg.exists(), "expected a single first segment");
    seg
}

#[test]
fn truncate_mid_record_loses_exactly_the_tail() {
    let dir = TempDir::new("truncate");
    let seg = populate_one_segment(&dir, 5);
    // Chop into the middle of the final record.
    let bytes = fs::read(&seg).unwrap();
    fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

    let store = open(StoreConfig::at(&dir.0));
    let rec = store.recovery();
    assert_eq!(rec.records_replayed, 4);
    assert_eq!(rec.skipped, 1);
    assert_eq!(rec.bad_segments, 0);
    assert_eq!(rec.live_records, 4);
    for i in 0..4u128 {
        assert_eq!(store.get(&key(i)), Some(report(i)), "key {i}");
    }
    assert_eq!(store.get(&key(4)), None);
}

#[test]
fn truncate_mid_frame_header_loses_exactly_the_tail() {
    let dir = TempDir::new("truncate-frame");
    let seg = populate_one_segment(&dir, 3);
    // Leave only 4 of the final record's 8 frame bytes.
    let bytes = fs::read(&seg).unwrap();
    let record_len = (bytes.len() - HEADER_LEN) / 3;
    let cut = HEADER_LEN + 2 * record_len + FRAME_LEN / 2;
    fs::write(&seg, &bytes[..cut]).unwrap();

    let store = open(StoreConfig::at(&dir.0));
    let rec = store.recovery();
    assert_eq!((rec.records_replayed, rec.skipped), (2, 1));
    assert_eq!(store.len(), 2);
}

#[test]
fn body_byte_flip_skips_one_record_and_resyncs() {
    let dir = TempDir::new("flip-body");
    let seg = populate_one_segment(&dir, 5);
    let mut bytes = fs::read(&seg).unwrap();
    // Third byte of the first record's payload.
    bytes[HEADER_LEN + FRAME_LEN + 2] ^= 0xA5;
    fs::write(&seg, bytes).unwrap();

    let store = open(StoreConfig::at(&dir.0));
    let rec = store.recovery();
    assert_eq!(rec.records_replayed, 4);
    assert_eq!(rec.skipped, 1);
    assert_eq!(store.get(&key(0)), None, "corrupted record must be gone");
    for i in 1..5u128 {
        assert_eq!(store.get(&key(i)), Some(report(i)), "key {i}");
    }
}

#[test]
fn crc_field_byte_flip_skips_one_record_and_resyncs() {
    let dir = TempDir::new("flip-crc");
    let seg = populate_one_segment(&dir, 5);
    let mut bytes = fs::read(&seg).unwrap();
    let record_len = (bytes.len() - HEADER_LEN) / 5;
    // A byte inside the CRC field of the *second* record's frame.
    bytes[HEADER_LEN + record_len + 5] ^= 0xFF;
    fs::write(&seg, bytes).unwrap();

    let store = open(StoreConfig::at(&dir.0));
    let rec = store.recovery();
    assert_eq!(rec.records_replayed, 4);
    assert_eq!(rec.skipped, 1);
    assert_eq!(store.get(&key(1)), None);
    for i in [0u128, 2, 3, 4] {
        assert_eq!(store.get(&key(i)), Some(report(i)), "key {i}");
    }
}

#[test]
fn length_field_corruption_abandons_the_tail_as_one_skip() {
    let dir = TempDir::new("flip-len");
    let seg = populate_one_segment(&dir, 5);
    let mut bytes = fs::read(&seg).unwrap();
    let record_len = (bytes.len() - HEADER_LEN) / 5;
    // Blow up the length field of the third record: the scanner cannot
    // trust anything after it, so records 3..5 are gone but the count is
    // exactly one skip (the untrustworthy tail).
    let pos = HEADER_LEN + 2 * record_len;
    bytes[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    fs::write(&seg, bytes).unwrap();

    let store = open(StoreConfig::at(&dir.0));
    let rec = store.recovery();
    assert_eq!(rec.records_replayed, 2);
    assert_eq!(rec.skipped, 1);
    assert_eq!(store.len(), 2);
}

#[test]
fn corrupted_segment_header_skips_that_segment_only() {
    let dir = TempDir::new("bad-header");
    let mut config = StoreConfig::at(&dir.0);
    config.segment_bytes = 256; // several segments
    {
        let registry = Registry::new();
        let store = Store::open_in(config.clone(), &registry).unwrap();
        for i in 0..12u128 {
            store.put(key(i), report(i)).unwrap();
        }
        let segments = registry.snapshot().value("arrayflow_store_segments", &[]);
        assert!(segments >= Some(3), "need multiple segments");
    }
    // Count what segment 2 holds, then corrupt its magic.
    let seg2 = dir.0.join(arrayflow_store::segment::segment_file_name(2));
    let mut in_seg2 = 0u64;
    arrayflow_store::segment::scan_segment_file(&seg2, |_| in_seg2 += 1);
    assert!(in_seg2 > 0);
    let mut bytes = fs::read(&seg2).unwrap();
    bytes[0] ^= 0xFF;
    fs::write(&seg2, bytes).unwrap();

    let store = open(config);
    let rec = store.recovery();
    assert_eq!(rec.bad_segments, 1);
    assert_eq!(rec.skipped, 1, "a bad segment is one counted skip");
    assert_eq!(
        rec.records_replayed,
        12 - in_seg2,
        "other segments fully recovered"
    );
    // Everything outside segment 2 is intact and readable.
    let mut present = 0;
    for i in 0..12u128 {
        if let Some(r) = store.get(&key(i)) {
            assert_eq!(r, report(i));
            present += 1;
        }
    }
    assert_eq!(present as u64, rec.records_replayed);
}

#[test]
fn deleted_segment_loses_its_records_and_nothing_else() {
    let dir = TempDir::new("deleted");
    let mut config = StoreConfig::at(&dir.0);
    config.segment_bytes = 256;
    let keys_in_seg2: Vec<u128>;
    {
        let registry = Registry::new();
        let store = Store::open_in(config.clone(), &registry).unwrap();
        for i in 0..12u128 {
            store.put(key(i), report(i)).unwrap();
        }
        let segments = registry.snapshot().value("arrayflow_store_segments", &[]);
        assert!(segments >= Some(3));
        drop(store);
        // Find which keys live in segment 2 by scanning it.
        let seg2 = dir.0.join(arrayflow_store::segment::segment_file_name(2));
        let mut ks = Vec::new();
        arrayflow_store::segment::scan_segment_file(&seg2, |r| {
            ks.push(r.record.key().fingerprint.0);
        });
        keys_in_seg2 = ks;
        fs::remove_file(&seg2).unwrap();
    }
    assert!(!keys_in_seg2.is_empty());

    let store = open(config);
    let rec = store.recovery();
    assert_eq!(rec.bad_segments, 0, "a missing file is simply not scanned");
    assert_eq!(rec.skipped, 0);
    assert_eq!(rec.records_replayed as usize, 12 - keys_in_seg2.len());
    for i in 0..12u128 {
        if keys_in_seg2.contains(&i) {
            assert_eq!(
                store.get(&key(i)),
                None,
                "key {i} was in the deleted segment"
            );
        } else {
            assert_eq!(store.get(&key(i)), Some(report(i)), "key {i}");
        }
    }
}

#[test]
fn fresh_appends_after_damaged_recovery_work_and_survive() {
    let dir = TempDir::new("append-after");
    let seg = populate_one_segment(&dir, 4);
    let bytes = fs::read(&seg).unwrap();
    fs::write(&seg, &bytes[..bytes.len() - 1]).unwrap(); // torn tail

    let store = open(StoreConfig::at(&dir.0));
    assert_eq!(store.recovery().skipped, 1);
    store.put(key(100), report(100)).unwrap();
    store.put(key(3), report(3)).unwrap(); // re-put the lost key
    drop(store);

    let store = open(StoreConfig::at(&dir.0));
    let rec = store.recovery();
    assert_eq!(rec.skipped, 1, "old damage still counted, nothing new");
    assert_eq!(store.len(), 5);
    assert_eq!(store.get(&key(3)), Some(report(3)));
    assert_eq!(store.get(&key(100)), Some(report(100)));
}

/// SplitMix64, inlined like in `crates/ir/tests/parser_fuzz.rs` — the
/// store sits below the workloads crate in the dependency graph for the
/// purposes of this suite's determinism.
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
fn codec_never_panics_on_random_bytes() {
    let mut rng = SplitMix64(0x5afe_c0de);
    for _ in 0..4_000 {
        let len = rng.below(300);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        // Only that it returns, never that it succeeds.
        let _ = decode_record(&bytes);
    }
}

#[test]
fn codec_never_panics_on_mutated_valid_records() {
    use arrayflow_store::encode_record;
    use arrayflow_store::Record;
    let valid = encode_record(&Record::Put {
        key: key(7),
        report: Box::new(report(7)),
    });
    let mut rng = SplitMix64(0x0bad_cafe);
    for _ in 0..4_000 {
        let mut bytes = valid.clone();
        for _ in 0..1 + rng.below(4) {
            let pos = rng.below(bytes.len());
            bytes[pos] ^= (1 << rng.below(8)) as u8;
        }
        if let Ok(rec) = decode_record(&bytes) {
            // A surviving decode must still re-encode canonically.
            let _ = encode_record(&rec);
        }
    }
}

#[test]
fn store_open_never_panics_on_garbage_directory() {
    let dir = TempDir::new("garbage");
    fs::create_dir_all(&dir.0).unwrap();
    let mut rng = SplitMix64(0xd15ea5e);
    for id in 1..=4u64 {
        let len = rng.below(600);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        fs::write(
            dir.0.join(arrayflow_store::segment::segment_file_name(id)),
            bytes,
        )
        .unwrap();
    }
    // Plus a non-segment file which must simply be ignored.
    fs::write(dir.0.join("notes.txt"), b"hello").unwrap();

    let store = open(StoreConfig::at(&dir.0));
    assert_eq!(store.len(), 0);
    assert_eq!(store.recovery().segments, 4);
    // The store remains usable for fresh appends.
    store.put(key(1), report(1)).unwrap();
    assert_eq!(store.get(&key(1)), Some(report(1)));
}
