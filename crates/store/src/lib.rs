//! # arrayflow-store
//!
//! Crash-safe, disk-backed persistence for analysis reports — the second
//! tier under the engine's [`MemoCache`](arrayflow_engine::MemoCache).
//! Zero external dependencies, like the rest of the workspace: the
//! binary codec, CRC-32, and segment log are all in-crate.
//!
//! ## Layers
//!
//! * [`codec`] — compact varint binary encoding of [`CacheKey`] and
//!   [`AnalysisReport`], byte-exact on round trip and defensive on
//!   decode (bounds-checked reader, never panics on hostile bytes).
//! * [`segment`] — the on-disk format: `seg-NNNNNNNN.log` files with a
//!   magic/version header and CRC-framed records, plus the recovery
//!   scanner that skips-and-counts corruption instead of failing.
//! * [`Store`] — the store proper: append-only writes with size-capped
//!   segment rotation, an in-memory key→location index rebuilt on open,
//!   re-validated reads, and a compaction pass that rewrites live
//!   records into fresh segments.
//! * [`PersistentTier`] — the [`SecondTier`](arrayflow_engine::SecondTier)
//!   implementation: synchronous loads, asynchronous appends through a
//!   bounded writer-thread channel (backpressure drops are counted,
//!   analysis never blocks on disk), and a write-path circuit breaker
//!   that degrades the cache to memory-only while the disk is failing
//!   (see [`arrayflow_resilience::CircuitBreaker`]).
//!
//! ## Example
//!
//! ```
//! use arrayflow_obs::Registry;
//! use arrayflow_store::{Store, StoreConfig};
//! # let dir = std::env::temp_dir().join(format!("afstore-doc-{}", std::process::id()));
//! let registry = Registry::new();
//! let store = Store::open_in(StoreConfig::at(&dir), &registry).unwrap();
//! assert!(store.is_empty());
//! let segments = registry.snapshot().value("arrayflow_store_segments", &[]);
//! assert_eq!(segments, Some(0));
//! # drop(store);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! [`CacheKey`]: arrayflow_engine::CacheKey
//! [`AnalysisReport`]: arrayflow_engine::AnalysisReport

pub mod codec;
pub mod crc;
pub mod segment;
mod store;
mod tier;

pub use codec::{decode_record, encode_record, DecodeError, Record};
pub use crc::crc32;
pub use segment::{ScanStats, ScannedRecord};
pub use store::{CompactionReport, RecoveryReport, SharedStore, Store, StoreConfig};
pub use tier::{PersistentTier, ReplicationSink};
