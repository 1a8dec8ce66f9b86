//! arrayflow-wire: the zero-dependency wire layer.
//!
//! Three pieces, layered bottom-up:
//!
//! * [`codec`] + [`crc`] — the shared LEB128/CRC-32 primitives extracted
//!   from `arrayflow-store` (PR 3). The store's segment log and the
//!   binary protocol now use one implementation, pinned by the store's
//!   byte-compatibility tests.
//! * [`frame`] — the `AFWIRE01` frame: magic, version, tag, LEB128
//!   payload length, CRC-32, payload. The incremental [`frame::FrameDecoder`]
//!   enforces the payload cap from the length prefix *before allocating*
//!   and skips oversized payloads in bounded memory, so a hostile peer
//!   cannot balloon the server. [`frame::detect`] classifies a connection
//!   as binary or newline-JSON from its first bytes.
//!   [`frame::Connection`] is the one blocking outbound connection, for
//!   the service's client, the router's backends and the replicator.
//! * [`proto`] — typed request/response messages. Analysis reports travel
//!   as opaque store-codec bytes so cache hits are shipped verbatim,
//!   never re-serialized.
//! * [`event`] (unix) — a `poll(2)` readiness loop core ([`event::Poller`])
//!   plus a socketpair self-wake ([`event::wake_pair`]), used by the
//!   service's event-driven server to multiplex thousands of connections
//!   onto the worker pool without a thread per connection.
//!
//! This crate depends on nothing but `std` and knows nothing about the
//! engine: fingerprints are 16 bytes, reports are byte strings. The
//! mapping to engine types lives in `arrayflow-service`.

#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod event;
pub mod frame;
pub mod proto;

pub use codec::{DecodeError, DecodeResult, Reader};
pub use crc::crc32;
pub use frame::{detect, encode_frame, Connection, Detect, FrameDecoder, FrameError, FrameEvent};
