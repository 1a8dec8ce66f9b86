//! The disk-backed report store: an append-only segment log plus an
//! in-memory index from [`CacheKey`] to the latest live record.
//!
//! Invariants the implementation maintains:
//!
//! * **Append-only segments.** Records are only ever appended; segment
//!   ids strictly increase and are never reused, so "later id ⇒ later
//!   write" holds across rotations *and* compactions.
//! * **Last write wins.** Recovery replays segments in id order; a later
//!   `Put` supersedes an earlier one, a `Tombstone` kills the key.
//! * **Reads re-validate.** `get` re-checks the frame CRC and re-decodes
//!   the payload on every disk read — a record is either returned intact
//!   or not at all, never corrupt.
//! * **Recovery never panics.** Torn tails, flipped bytes, bad headers
//!   and deleted segments degrade into counted skips (see
//!   [`RecoveryReport`]); every record whose CRC and decode validate is
//!   returned.
//! * **Compaction preserves bytes.** Live frames are copied verbatim into
//!   fresh segments (re-CRC-checked in transit), then the old files are
//!   deleted; a crash mid-compaction leaves both generations on disk and
//!   recovery's last-write-wins replay still yields the same live set.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};

use arrayflow_engine::{AnalysisReport, CacheKey};
use arrayflow_obs::{Counter, Gauge, Registry};

use crate::codec::{decode_record, encode_record, Record};
use crate::crc::crc32;
use crate::segment::{
    frame_record, header_bytes, parse_segment_file_name, scan_segment_file, segment_file_name,
    FRAME_LEN, HEADER_LEN, MAX_RECORD_BYTES,
};

/// Store construction parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Rotation threshold: when the current segment reaches this many
    /// bytes, the next append opens a fresh segment.
    pub segment_bytes: u64,
    /// Bound of the async writer-thread channel used by
    /// [`PersistentTier`](crate::PersistentTier); appends beyond it are
    /// dropped (and counted) rather than blocking analysis.
    pub writer_queue: usize,
    /// Consecutive failed appends that trip the tier's write-path
    /// circuit breaker open (degrading the cache to memory-only).
    pub breaker_threshold: u32,
    /// How long the tripped breaker refuses appends before admitting a
    /// half-open probe.
    pub breaker_cooldown: std::time::Duration,
}

impl StoreConfig {
    /// A config with default tuning (8 MiB segments, 1024-deep writer
    /// queue, breaker tripping after 8 consecutive failures with a 5 s
    /// cooldown) rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            segment_bytes: 8 << 20,
            writer_queue: 1024,
            breaker_threshold: 8,
            breaker_cooldown: std::time::Duration::from_secs(5),
        }
    }
}

/// What [`Store::open_in`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files scanned.
    pub segments: u64,
    /// Intact records replayed (including superseded ones).
    pub records_replayed: u64,
    /// Records (or torn tails / bad segments) skipped as corrupt.
    pub skipped: u64,
    /// Segments whose header was missing or unreadable.
    pub bad_segments: u64,
    /// Live keys in the index after replay.
    pub live_records: u64,
}

/// The outcome of one compaction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Live records rewritten.
    pub live_records: u64,
    /// Dead records (superseded puts, tombstones) dropped.
    pub dropped: u64,
    /// Store size before, in bytes.
    pub bytes_before: u64,
    /// Store size after, in bytes.
    pub bytes_after: u64,
}

#[derive(Debug, Clone, Copy)]
struct Location {
    segment: u64,
    frame_offset: u64,
    payload_len: u32,
}

struct WriterState {
    /// Open handle of the current segment; `None` until the first append
    /// (or after a rotation), so read-only opens create no files.
    file: Option<File>,
    /// Id of the current segment (valid when `file` is `Some`).
    seg_id: u64,
    /// Bytes written to the current segment so far.
    seg_bytes: u64,
    /// Next segment id to allocate. Strictly increasing, never reused.
    next_seg_id: u64,
    /// Ids of all segments currently on disk.
    segments: Vec<u64>,
}

/// The crash-safe persistent report store. Cheap to share behind an
/// [`Arc`]; reads take the index `RwLock`, writes serialize on one
/// writer mutex.
pub struct Store {
    config: StoreConfig,
    writer: Mutex<WriterState>,
    index: RwLock<HashMap<CacheKey, Location>>,
    recovery: RecoveryReport,
    ins: StoreInstruments,
    faults: RwLock<Option<Arc<dyn arrayflow_resilience::FaultSurface>>>,
}

/// The store's registered instruments. Sizes are gauges (they go down on
/// compaction), everything else is a monotone counter.
#[derive(Debug, Clone)]
struct StoreInstruments {
    /// Total bytes across segment files.
    bytes: Gauge,
    /// Intact records physically on disk (live + superseded + tombstones);
    /// `records_on_disk - live` is what a compaction will drop.
    records_on_disk: Gauge,
    /// Live records in the index.
    live_records: Gauge,
    /// Segment files currently on disk.
    segments: Gauge,
    disk_hits: Counter,
    disk_misses: Counter,
    read_errors: Counter,
    appends: Counter,
    compactions: Counter,
}

impl StoreInstruments {
    fn registered(registry: &Registry) -> Self {
        Self {
            bytes: registry.gauge("arrayflow_store_bytes", "total bytes across segment files"),
            records_on_disk: registry.gauge(
                "arrayflow_store_records_on_disk",
                "intact records physically on disk (live + superseded + tombstones)",
            ),
            live_records: registry.gauge(
                "arrayflow_store_live_records",
                "live records in the store's index",
            ),
            segments: registry.gauge(
                "arrayflow_store_segments",
                "segment files currently on disk",
            ),
            disk_hits: registry.counter(
                "arrayflow_store_disk_hits_total",
                "store gets answered from disk",
            ),
            disk_misses: registry.counter(
                "arrayflow_store_disk_misses_total",
                "store gets that found no live record",
            ),
            read_errors: registry.counter(
                "arrayflow_store_read_errors_total",
                "disk reads that failed CRC or decode validation",
            ),
            appends: registry.counter(
                "arrayflow_store_appends_total",
                "records appended since open (puts and tombstones)",
            ),
            compactions: registry.counter(
                "arrayflow_store_compactions_total",
                "compaction passes completed",
            ),
        }
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.config.dir)
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Opens (creating the directory if needed) and recovers a store:
    /// every segment is scanned in id order, intact records rebuild the
    /// index last-write-wins, corrupt ones are skipped and counted. The
    /// store's instruments land on `registry`, so one `metrics` scrape
    /// covers the persistence layer too.
    pub fn open_in(config: StoreConfig, registry: &Registry) -> io::Result<Store> {
        fs::create_dir_all(&config.dir)?;
        let mut seg_ids: Vec<u64> = fs::read_dir(&config.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_segment_file_name(&e.file_name().to_string_lossy()))
            .collect();
        seg_ids.sort_unstable();

        let mut index: HashMap<CacheKey, Location> = HashMap::new();
        let mut recovery = RecoveryReport::default();
        let mut total_bytes = 0u64;
        for &id in &seg_ids {
            let path = config.dir.join(segment_file_name(id));
            total_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let stats = scan_segment_file(&path, |scanned| match scanned.record {
                Record::Put { key, .. } => {
                    index.insert(
                        key,
                        Location {
                            segment: id,
                            frame_offset: scanned.frame_offset,
                            payload_len: scanned.payload_len,
                        },
                    );
                }
                Record::Tombstone { key } => {
                    index.remove(&key);
                }
            });
            recovery.segments += 1;
            recovery.records_replayed += stats.records;
            recovery.skipped += stats.skipped;
            recovery.bad_segments += stats.bad_header as u64;
        }
        recovery.live_records = index.len() as u64;

        let next_seg_id = seg_ids.last().copied().unwrap_or(0) + 1;
        let ins = StoreInstruments::registered(registry);
        ins.bytes.set(total_bytes);
        ins.records_on_disk.set(recovery.records_replayed);
        ins.live_records.set(recovery.live_records);
        ins.segments.set(seg_ids.len() as u64);
        registry
            .counter(
                "arrayflow_store_recovery_skipped_total",
                "corrupt records skipped by recovery when the store was opened",
            )
            .add(recovery.skipped);
        Ok(Store {
            writer: Mutex::new(WriterState {
                file: None,
                seg_id: 0,
                seg_bytes: 0,
                next_seg_id,
                segments: seg_ids,
            }),
            index: RwLock::new(index),
            recovery,
            ins,
            config,
            faults: RwLock::new(None),
        })
    }

    /// The configuration the store was opened with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Installs a fault surface on the append path: before any real I/O,
    /// each append asks the surface for an injected error. Intended for
    /// chaos drills and breaker tests; with no surface installed the seam
    /// costs one uncontended read-lock check.
    pub fn set_fault_surface(&self, faults: Arc<dyn arrayflow_resilience::FaultSurface>) {
        *self.faults.write().unwrap() = Some(faults);
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.index.read().unwrap().len()
    }

    /// True when no live records exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn read_location(&self, loc: Location) -> Option<Record> {
        let path = self.config.dir.join(segment_file_name(loc.segment));
        let mut file = File::open(path).ok()?;
        file.seek(SeekFrom::Start(loc.frame_offset)).ok()?;
        let mut frame = vec![0u8; FRAME_LEN + loc.payload_len as usize];
        file.read_exact(&mut frame).ok()?;
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        let crc = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        if len != loc.payload_len as usize || len > MAX_RECORD_BYTES {
            return None;
        }
        let payload = &frame[FRAME_LEN..];
        if crc32(payload) != crc {
            return None;
        }
        decode_record(payload).ok()
    }

    /// Fetches the live report for `key`, re-validating CRC and decode on
    /// the way — returns `None` (never a corrupt report) when anything
    /// fails.
    pub fn get(&self, key: &CacheKey) -> Option<AnalysisReport> {
        let loc = {
            let ix = self.index.read().unwrap();
            match ix.get(key) {
                Some(loc) => *loc,
                None => {
                    self.ins.disk_misses.inc();
                    return None;
                }
            }
        };
        match self.read_location(loc) {
            Some(Record::Put { report, .. }) => {
                self.ins.disk_hits.inc();
                Some(*report)
            }
            _ => {
                // Validation failed (or the segment vanished under a
                // concurrent compaction): report a miss, never bad data.
                self.ins.read_errors.inc();
                self.ins.disk_misses.inc();
                None
            }
        }
    }

    fn append_frame(&self, w: &mut WriterState, frame: &[u8]) -> io::Result<(u64, u64)> {
        if w.file.is_none() {
            let id = w.next_seg_id;
            w.next_seg_id += 1;
            let path = self.config.dir.join(segment_file_name(id));
            let mut file = OpenOptions::new().create_new(true).write(true).open(path)?;
            file.write_all(&header_bytes())?;
            w.file = Some(file);
            w.seg_id = id;
            w.seg_bytes = HEADER_LEN as u64;
            w.segments.push(id);
            self.ins.segments.set(w.segments.len() as u64);
            self.ins.bytes.add(HEADER_LEN as u64);
        }
        let offset = w.seg_bytes;
        w.file.as_mut().expect("opened above").write_all(frame)?;
        w.seg_bytes += frame.len() as u64;
        self.ins.bytes.add(frame.len() as u64);
        let seg_id = w.seg_id;
        if w.seg_bytes >= self.config.segment_bytes {
            // Rotate: sync the finished segment, next append opens a new
            // one.
            if let Some(file) = w.file.take() {
                let _ = file.sync_data();
            }
        }
        Ok((seg_id, offset))
    }

    /// Appends one record and updates the index. Rotation happens
    /// transparently when the current segment crosses the size cap.
    pub fn append(&self, record: &Record) -> io::Result<()> {
        if let Some(faults) = self.faults.read().unwrap().as_ref() {
            if let Some(e) = faults.store_io() {
                return Err(e);
            }
        }
        let payload = encode_record(record);
        let frame = frame_record(&payload);
        let mut w = self.writer.lock().unwrap();
        let (segment, frame_offset) = self.append_frame(&mut w, &frame)?;
        // Update the index while still holding the writer lock so index
        // order matches log order.
        let mut ix = self.index.write().unwrap();
        match record {
            Record::Put { key, .. } => {
                ix.insert(
                    *key,
                    Location {
                        segment,
                        frame_offset,
                        payload_len: payload.len() as u32,
                    },
                );
            }
            Record::Tombstone { key } => {
                ix.remove(key);
            }
        }
        self.ins.live_records.set(ix.len() as u64);
        drop(ix);
        drop(w);
        self.ins.appends.inc();
        self.ins.records_on_disk.add(1);
        Ok(())
    }

    /// Persists a report under its key.
    pub fn put(&self, key: CacheKey, report: AnalysisReport) -> io::Result<()> {
        self.append(&Record::Put {
            key,
            report: Box::new(report),
        })
    }

    /// Writes a tombstone: the key is dead and the next compaction drops
    /// its records.
    pub fn remove(&self, key: CacheKey) -> io::Result<()> {
        self.append(&Record::Tombstone { key })
    }

    /// Visits every live record (reading and re-validating each from
    /// disk) — the warm-start path. Records failing validation are
    /// counted as read errors and skipped. Returns how many were
    /// delivered.
    pub fn for_each_live(&self, mut f: impl FnMut(CacheKey, AnalysisReport)) -> u64 {
        let snapshot: Vec<(CacheKey, Location)> = {
            let ix = self.index.read().unwrap();
            ix.iter().map(|(k, v)| (*k, *v)).collect()
        };
        let mut delivered = 0;
        for (key, loc) in snapshot {
            match self.read_location(loc) {
                Some(Record::Put { report, .. }) => {
                    f(key, *report);
                    delivered += 1;
                }
                _ => {
                    self.ins.read_errors.inc();
                }
            }
        }
        delivered
    }

    /// Serializes every live record into the segment log's frame format
    /// (`len | crc32 | payload`, no segment header) — the replication
    /// batch format. Each record is read and re-validated from disk; ones
    /// failing validation are counted as read errors and skipped. The
    /// result can be shipped over the `replicate` wire verb and applied
    /// with [`Store::import_frames`].
    pub fn export_live(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.for_each_live(|key, report| {
            let payload = encode_record(&Record::Put {
                key,
                report: Box::new(report),
            });
            out.extend_from_slice(&frame_record(&payload));
        });
        out
    }

    /// Applies a batch of record frames (the [`Store::export_live`] /
    /// replication format): each frame is CRC-checked and decoded, then
    /// appended — except `Put`s whose key is already live, which are
    /// skipped (reports are deterministic functions of their key, so a
    /// present key already holds identical bytes). Corrupt or truncated
    /// frames abort the batch with `InvalidData`; everything applied
    /// before the bad frame stays applied (appends are idempotent under
    /// replay, so the sender can simply re-ship). Returns the number of
    /// records applied.
    pub fn import_frames(&self, batch: &[u8]) -> io::Result<u64> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut applied = 0u64;
        let mut off = 0usize;
        while off < batch.len() {
            if batch.len() - off < FRAME_LEN {
                return Err(bad("truncated frame header in replication batch"));
            }
            let len =
                u32::from_le_bytes([batch[off], batch[off + 1], batch[off + 2], batch[off + 3]])
                    as usize;
            let crc = u32::from_le_bytes([
                batch[off + 4],
                batch[off + 5],
                batch[off + 6],
                batch[off + 7],
            ]);
            if len > MAX_RECORD_BYTES {
                return Err(bad("oversized record in replication batch"));
            }
            let start = off + FRAME_LEN;
            let end = match start.checked_add(len) {
                Some(end) if end <= batch.len() => end,
                _ => return Err(bad("truncated record in replication batch")),
            };
            let payload = &batch[start..end];
            if crc32(payload) != crc {
                return Err(bad("CRC mismatch in replication batch"));
            }
            let record = decode_record(payload)
                .map_err(|_| bad("undecodable record in replication batch"))?;
            let skip = match &record {
                // A live key already holds these exact bytes; a tombstone
                // for a dead key is a no-op.
                Record::Put { key, .. } => self.index.read().unwrap().contains_key(key),
                Record::Tombstone { key } => !self.index.read().unwrap().contains_key(key),
            };
            if !skip {
                self.append(&record)?;
                applied += 1;
            }
            off = end;
        }
        Ok(applied)
    }

    /// Rewrites every live record into fresh segments and deletes the old
    /// files, dropping superseded puts and tombstones. Appends are
    /// blocked for the duration (reads stay concurrent); a crash
    /// mid-compaction is safe because old segments are only deleted after
    /// the new ones are synced, and replay is last-write-wins.
    pub fn compact(&self) -> io::Result<CompactionReport> {
        let mut w = self.writer.lock().unwrap();
        let bytes_before = self.ins.bytes.get();
        let records_before = self.ins.records_on_disk.get();
        let old_segments = std::mem::take(&mut w.segments);
        // Seal the current segment; compaction output starts a fresh one.
        if let Some(file) = w.file.take() {
            let _ = file.sync_data();
        }

        let snapshot: Vec<(CacheKey, Location)> = {
            let ix = self.index.read().unwrap();
            ix.iter().map(|(k, v)| (*k, *v)).collect()
        };

        // Copy each live record into the new generation, re-validating in
        // transit. `append_frame` keeps the byte counter current.
        let mut new_index: HashMap<CacheKey, Location> = HashMap::new();
        let mut live = 0u64;
        for (key, loc) in snapshot {
            let record = match self.read_location(loc) {
                Some(r @ Record::Put { .. }) => r,
                _ => {
                    self.ins.read_errors.inc();
                    continue;
                }
            };
            let payload = encode_record(&record);
            let frame = frame_record(&payload);
            let (segment, frame_offset) = self.append_frame(&mut w, &frame)?;
            new_index.insert(
                key,
                Location {
                    segment,
                    frame_offset,
                    payload_len: payload.len() as u32,
                },
            );
            live += 1;
        }
        if let Some(file) = &mut w.file {
            file.sync_data()?;
        }

        // Swap the index, then delete the old generation. Old files are
        // only removed after the new ones are durable, so a crash at any
        // point leaves a recoverable (if larger) store.
        *self.index.write().unwrap() = new_index;
        self.ins.live_records.set(live);
        self.ins.segments.set(w.segments.len() as u64);
        let mut removed_bytes = 0u64;
        for id in old_segments {
            let path = self.config.dir.join(segment_file_name(id));
            removed_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let _ = fs::remove_file(path);
        }
        self.ins.bytes.sub(removed_bytes);
        self.ins.records_on_disk.set(live);
        self.ins.compactions.inc();
        let bytes_after = self.ins.bytes.get();
        drop(w);
        Ok(CompactionReport {
            live_records: live,
            dropped: records_before.saturating_sub(live),
            bytes_before,
            bytes_after,
        })
    }
}

/// Convenience alias used by the service wiring.
pub type SharedStore = Arc<Store>;

#[cfg(test)]
mod tests {
    use super::*;
    use arrayflow_engine::ProblemSet;
    use arrayflow_ir::Fingerprint;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A fresh directory under the system temp dir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("afstore-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn key(fp: u128) -> CacheKey {
        CacheKey {
            fingerprint: Fingerprint(fp),
            problems: ProblemSet::ALL,
            dep_max_distance: 8,
            custom: None,
        }
    }

    /// Opens `config` on a registry no test reads.
    fn open(config: StoreConfig) -> Store {
        Store::open_in(config, &Registry::new()).unwrap()
    }

    /// The counter or gauge `name` on `registry`.
    fn count(registry: &Registry, name: &str) -> u64 {
        registry.snapshot().value(name, &[]).unwrap()
    }

    fn report(fp: u128, sites: usize) -> AnalysisReport {
        AnalysisReport {
            fingerprint: Fingerprint(fp),
            problems: ProblemSet::ALL,
            dep_max_distance: 8,
            nodes: 10,
            sites,
            canned_stats: [None; 4],
            reuses: Vec::new(),
            redundant_stores: Vec::new(),
            dependences: Vec::new(),
            custom: None,
        }
    }

    #[test]
    fn put_get_round_trip() {
        let dir = TempDir::new("roundtrip");
        let registry = Registry::new();
        let store = Store::open_in(StoreConfig::at(&dir.0), &registry).unwrap();
        store.put(key(1), report(1, 3)).unwrap();
        store.put(key(2), report(2, 4)).unwrap();
        assert_eq!(store.get(&key(1)), Some(report(1, 3)));
        assert_eq!(store.get(&key(2)), Some(report(2, 4)));
        assert_eq!(store.get(&key(3)), None);
        assert_eq!(count(&registry, "arrayflow_store_live_records"), 2);
        assert_eq!(count(&registry, "arrayflow_store_disk_hits_total"), 2);
        assert_eq!(count(&registry, "arrayflow_store_disk_misses_total"), 1);
        assert_eq!(count(&registry, "arrayflow_store_appends_total"), 2);
    }

    #[test]
    fn last_write_wins_and_tombstones_kill() {
        let dir = TempDir::new("lww");
        let store = open(StoreConfig::at(&dir.0));
        store.put(key(1), report(1, 3)).unwrap();
        store.put(key(1), report(1, 9)).unwrap();
        assert_eq!(store.get(&key(1)), Some(report(1, 9)));
        store.remove(key(1)).unwrap();
        assert_eq!(store.get(&key(1)), None);
        assert!(store.is_empty());
    }

    #[test]
    fn reopen_recovers_live_set() {
        let dir = TempDir::new("reopen");
        {
            let store = open(StoreConfig::at(&dir.0));
            store.put(key(1), report(1, 3)).unwrap();
            store.put(key(2), report(2, 4)).unwrap();
            store.put(key(1), report(1, 7)).unwrap();
            store.remove(key(2)).unwrap();
        }
        let store = open(StoreConfig::at(&dir.0));
        let rec = store.recovery();
        assert_eq!(rec.records_replayed, 4);
        assert_eq!(rec.skipped, 0);
        assert_eq!(rec.live_records, 1);
        assert_eq!(store.get(&key(1)), Some(report(1, 7)));
        assert_eq!(store.get(&key(2)), None);
    }

    #[test]
    fn rotation_spawns_new_segments_and_reopen_sees_all() {
        let dir = TempDir::new("rotate");
        let mut config = StoreConfig::at(&dir.0);
        config.segment_bytes = 128; // force a rotation every few records
        {
            let registry = Registry::new();
            let store = Store::open_in(config.clone(), &registry).unwrap();
            for i in 0..20u128 {
                store.put(key(i), report(i, i as usize)).unwrap();
            }
            let segments = count(&registry, "arrayflow_store_segments");
            assert!(segments > 1, "expected rotation");
        }
        let store = open(config);
        assert_eq!(store.len(), 20);
        for i in 0..20u128 {
            assert_eq!(store.get(&key(i)), Some(report(i, i as usize)), "key {i}");
        }
    }

    #[test]
    fn compaction_drops_dead_records_and_preserves_live() {
        let dir = TempDir::new("compact");
        let mut config = StoreConfig::at(&dir.0);
        config.segment_bytes = 256;
        let registry = Registry::new();
        let store = Store::open_in(config.clone(), &registry).unwrap();
        for i in 0..10u128 {
            store.put(key(i), report(i, 1)).unwrap();
            store.put(key(i), report(i, 2)).unwrap(); // supersede
        }
        store.remove(key(9)).unwrap();
        let before = count(&registry, "arrayflow_store_bytes");
        let report_c = store.compact().unwrap();
        assert_eq!(report_c.live_records, 9);
        assert_eq!(report_c.dropped, 21 - 9);
        assert_eq!(report_c.bytes_before, before);
        assert!(report_c.bytes_after < report_c.bytes_before);
        assert_eq!(
            count(&registry, "arrayflow_store_bytes"),
            report_c.bytes_after
        );
        for i in 0..9u128 {
            assert_eq!(store.get(&key(i)), Some(report(i, 2)), "key {i}");
        }
        assert_eq!(store.get(&key(9)), None);
        // Appends after compaction land in fresh segments; reopen agrees.
        store.put(key(100), report(100, 5)).unwrap();
        drop(store);
        let store = open(config);
        assert_eq!(store.recovery().skipped, 0);
        assert_eq!(store.len(), 10);
        assert_eq!(store.get(&key(100)), Some(report(100, 5)));
        assert_eq!(store.get(&key(4)), Some(report(4, 2)));
    }

    #[test]
    fn for_each_live_visits_exactly_live() {
        let dir = TempDir::new("foreach");
        let store = open(StoreConfig::at(&dir.0));
        for i in 0..5u128 {
            store.put(key(i), report(i, 1)).unwrap();
        }
        store.remove(key(0)).unwrap();
        let mut seen = Vec::new();
        let delivered = store.for_each_live(|k, _| seen.push(k.fingerprint.0));
        seen.sort_unstable();
        assert_eq!(delivered, 4);
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn export_import_replicates_live_set() {
        let src_dir = TempDir::new("export-src");
        let dst_dir = TempDir::new("export-dst");
        let src = open(StoreConfig::at(&src_dir.0));
        for i in 0..6u128 {
            src.put(key(i), report(i, i as usize)).unwrap();
        }
        src.remove(key(5)).unwrap();
        let batch = src.export_live();

        let dst = open(StoreConfig::at(&dst_dir.0));
        // Pre-seed one key: the import must skip it, not duplicate it.
        dst.put(key(2), report(2, 2)).unwrap();
        let applied = dst.import_frames(&batch).unwrap();
        assert_eq!(applied, 4);
        assert_eq!(dst.len(), 5);
        for i in 0..5u128 {
            assert_eq!(dst.get(&key(i)), Some(report(i, i as usize)), "key {i}");
        }
        assert_eq!(dst.get(&key(5)), None);
        // Re-importing the same batch is a no-op.
        assert_eq!(dst.import_frames(&batch).unwrap(), 0);
    }

    #[test]
    fn import_rejects_corrupt_batches() {
        let dir = TempDir::new("import-corrupt");
        let store = open(StoreConfig::at(&dir.0));
        store.put(key(1), report(1, 1)).unwrap();
        let mut batch = store.export_live();
        // Truncated tail.
        assert!(store.import_frames(&batch[..batch.len() - 1]).is_err());
        // Flipped payload byte.
        let n = batch.len();
        batch[n - 1] ^= 0xFF;
        assert!(store.import_frames(&batch).is_err());
        // Garbage header.
        assert!(store.import_frames(&[1, 2, 3]).is_err());
        // Empty batch is fine.
        assert_eq!(store.import_frames(&[]).unwrap(), 0);
    }

    #[test]
    fn corrupt_record_on_disk_is_a_miss_not_a_panic() {
        let dir = TempDir::new("corrupt-get");
        let registry = Registry::new();
        let store = Store::open_in(StoreConfig::at(&dir.0), &registry).unwrap();
        store.put(key(1), report(1, 3)).unwrap();
        // Flip a payload byte behind the store's back.
        let seg = dir.0.join(segment_file_name(1));
        let mut bytes = fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        fs::write(&seg, bytes).unwrap();
        assert_eq!(store.get(&key(1)), None);
        assert_eq!(count(&registry, "arrayflow_store_read_errors_total"), 1);
        assert_eq!(count(&registry, "arrayflow_store_disk_misses_total"), 1);
    }
}
