#![warn(missing_docs)]
//! # arrayflow-cluster
//!
//! The scale-out layer: everything a sharded multi-node deployment of
//! the analysis service needs that is *not* connection handling (the
//! router itself lives in `arrayflow-service`, which owns the sockets
//! and protocols).
//!
//! The design center is the canonical 128-bit alpha-renamed loop
//! fingerprint: because it names the *work* rather than the request,
//! consistent-hashing it across nodes multiplies aggregate cache
//! capacity — every alpha-equivalent submission from any client lands on
//! the same node's memo cache and segment log — instead of diluting it
//! the way random load-balancing would.
//!
//! * [`ring`] — the consistent-hash [`Ring`]: name-seeded virtual
//!   nodes, `O(log n)` lookups, ≈ `1/N` key movement on membership
//!   change.
//! * [`topology`] — the ordered node list + ring ([`Topology`]), and
//!   the replica relation: node `i` replicates to node `(i + 1) % n`.
//! * [`replicate`] — the [`Replicator`]: a
//!   [`ReplicationSink`](arrayflow_store::ReplicationSink) teeing the
//!   store writer thread's successful appends to the designated replica
//!   as `replicate` wire frames, with a full live-set sync on every
//!   (re)connect so dropped batches are always re-covered.
//! * [`merge`] — cross-node Prometheus exposition merging with per-node
//!   `node` labels.

pub mod merge;
pub mod replicate;
pub mod ring;
pub mod topology;

pub use merge::merge_expositions;
pub use replicate::{Replicator, ReplicatorConfig};
pub use ring::{source_route_hash, Ring, DEFAULT_VNODES};
pub use topology::{NodeSpec, Topology};
