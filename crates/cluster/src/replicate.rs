//! The [`Replicator`]: ships a node's store to its designated replica.
//!
//! Installed as the [`ReplicationSink`] of the node's
//! [`PersistentTier`](arrayflow_store::PersistentTier), it is the tee on
//! the store's writer thread: every record that reaches the local
//! segment log is queued here, and a dedicated shipping thread sends
//! queued records to the replica as `replicate` wire frames — store-codec
//! record frames, byte-identical to the local log's — on a fixed
//! interval or sooner when a flush barrier passes.
//!
//! **Losing a batch is safe.** Records are appended locally *before*
//! they are queued here, and every (re)connect starts with a full
//! [`Store::export_live`] sync; an incremental batch lost to a broken
//! connection is re-covered by the next sync, and the replica's
//! [`Store::import_frames`] dedupes by live key. The queue is bounded:
//! overflow drops the record (counted), never blocks the writer thread.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use arrayflow_engine::{AnalysisReport, CacheKey};
use arrayflow_obs::{Counter, Registry};
use arrayflow_resilience::Backoff;
use arrayflow_store::segment::frame_record;
use arrayflow_store::{encode_record, Record, ReplicationSink, Store};
use arrayflow_wire::proto::{Request, Response};
use arrayflow_wire::Connection;

/// Queue bound in records; overflow is dropped and counted.
const MAX_BUFFER: usize = 4096;

/// Cap on the replica's answer to one replicate frame.
const MAX_FRAME_BYTES: usize = 64 << 20;

/// Replicator tuning.
#[derive(Debug, Clone)]
pub struct ReplicatorConfig {
    /// Replica's dial address (`serve --replicate-to` value).
    pub replica_addr: String,
    /// Ship interval: queued records wait at most this long (a flush
    /// barrier ships them sooner).
    pub interval: Duration,
    /// Deadline on dialing the replica and on each replicate round trip
    /// (frame write and ack read). An unreachable or wedged replica costs
    /// at most this long per attempt instead of hanging the ship thread
    /// — and with it [`Replicator::shutdown`] — indefinitely.
    pub request_timeout: Duration,
}

impl ReplicatorConfig {
    /// Defaults: 250 ms interval, 10 s round-trip deadline.
    pub fn to(replica_addr: impl Into<String>) -> Self {
        ReplicatorConfig {
            replica_addr: replica_addr.into(),
            interval: Duration::from_millis(250),
            request_timeout: Duration::from_secs(10),
        }
    }
}

#[derive(Default)]
struct Queue {
    pending: Vec<(CacheKey, Arc<AnalysisReport>)>,
    barrier: bool,
    shutdown: bool,
}

#[derive(Clone)]
struct ReplicatorInstruments {
    shipped: Counter,
    batches: Counter,
    syncs: Counter,
    dropped: Counter,
    errors: Counter,
}

impl ReplicatorInstruments {
    fn registered(registry: &Registry) -> Self {
        Self {
            shipped: registry.counter(
                "arrayflow_replica_shipped_records_total",
                "records shipped to the replica in incremental batches",
            ),
            batches: registry.counter(
                "arrayflow_replica_batches_total",
                "incremental replication batches acknowledged by the replica",
            ),
            syncs: registry.counter(
                "arrayflow_replica_syncs_total",
                "full-store syncs completed (one per successful connect)",
            ),
            dropped: registry.counter(
                "arrayflow_replica_dropped_records_total",
                "records dropped because the replication queue was full",
            ),
            errors: registry.counter(
                "arrayflow_replica_errors_total",
                "replication connects or ships that failed",
            ),
        }
    }
}

/// Ships the local store to one replica. See the module docs for the
/// delivery contract. Dropping the last handle stops and joins the
/// shipping thread, which holds only the queue it shares with the
/// replicator.
pub struct Replicator {
    shared: Arc<Shared>,
    shipper: Mutex<Option<JoinHandle<()>>>,
}

/// What the replicator shares with its shipping thread.
struct Shared {
    queue: Mutex<Queue>,
    cv: Condvar,
    ins: ReplicatorInstruments,
}

impl Replicator {
    /// Starts the shipping thread and returns the sink to install with
    /// [`PersistentTier::set_replication_sink`]. Instruments land on
    /// `registry`.
    ///
    /// [`PersistentTier::set_replication_sink`]:
    ///     arrayflow_store::PersistentTier::set_replication_sink
    pub fn start(
        store: Arc<Store>,
        config: ReplicatorConfig,
        registry: &Registry,
    ) -> Arc<Replicator> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            cv: Condvar::new(),
            ins: ReplicatorInstruments::registered(registry),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("replica-shipper".into())
            .spawn(move || worker.run(store, config))
            .expect("spawn replica shipper thread");
        Arc::new(Replicator {
            shared,
            shipper: Mutex::new(Some(handle)),
        })
    }

    /// Signals the shipper to drain and exit, then joins it. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
            self.shared.cv.notify_all();
        }
        if let Some(handle) = self.shipper.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

impl Shared {
    fn run(&self, store: Arc<Store>, config: ReplicatorConfig) {
        let mut conn: Option<Connection> = None;
        let mut backoff = Backoff::new(Duration::from_millis(50), Duration::from_secs(2));
        let mut next_id = 1u64;
        loop {
            // Wait for work: records, a barrier, shutdown, or the tick.
            let (batch, shutdown) = {
                let mut q = self.queue.lock().unwrap();
                while q.pending.is_empty() && !q.barrier && !q.shutdown {
                    let (guard, timeout) = self.cv.wait_timeout(q, config.interval).unwrap();
                    q = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
                q.barrier = false;
                (std::mem::take(&mut q.pending), q.shutdown)
            };

            if conn.is_none() && (!batch.is_empty() || !shutdown) {
                // (Re)connect, full-sync the live set, then resume
                // incremental shipping. An unreachable replica backs off
                // without ever touching the analysis path.
                match self.connect_and_sync(&store, &config, &mut next_id) {
                    Some(c) => {
                        conn = Some(c);
                        backoff.reset();
                    }
                    None => {
                        if shutdown {
                            return;
                        }
                        // Shutdown cuts the backoff short. Anything batched
                        // is covered by the sync of the next connect.
                        let q = self.queue.lock().unwrap();
                        let _ = self
                            .cv
                            .wait_timeout_while(q, backoff.next_delay(), |q| !q.shutdown);
                        continue;
                    }
                }
            }

            if !batch.is_empty() {
                if let Some(c) = conn.as_mut() {
                    let mut bytes = Vec::new();
                    for (key, report) in &batch {
                        let payload = encode_record(&Record::Put {
                            key: *key,
                            report: Box::new((**report).clone()),
                        });
                        bytes.extend_from_slice(&frame_record(&payload));
                    }
                    if self.ship(c, &config, &mut next_id, bytes) {
                        self.ins.shipped.add(batch.len() as u64);
                        self.ins.batches.inc();
                    } else {
                        // Broken pipe: drop the connection; the records
                        // are already in the local log and the next
                        // connect's full sync re-covers them.
                        conn = None;
                    }
                }
            }

            if shutdown {
                return;
            }
        }
    }

    /// Dials the replica and ships the full live set. Returns the
    /// connection on success.
    fn connect_and_sync(
        &self,
        store: &Store,
        config: &ReplicatorConfig,
        next_id: &mut u64,
    ) -> Option<Connection> {
        let Ok(mut conn) = Connection::dial(&config.replica_addr, config.request_timeout) else {
            self.ins.errors.inc();
            return None;
        };
        let synced = self.ship(&mut conn, config, next_id, store.export_live());
        synced.then(|| {
            self.ins.syncs.inc();
            conn
        })
    }

    /// Sends one replicate frame and waits for the ack. `true` on a
    /// well-formed OK response.
    fn ship(
        &self,
        conn: &mut Connection,
        config: &ReplicatorConfig,
        next_id: &mut u64,
        batch: Vec<u8>,
    ) -> bool {
        let id = *next_id;
        *next_id += 1;
        let frame = Request::Replicate { id, batch }.to_frame(None);
        let acked = conn
            .exchange_frame(&frame, config.request_timeout, MAX_FRAME_BYTES)
            .is_ok_and(|(tag, payload)| {
                matches!(Response::decode(tag, &payload), Ok(Response::Text { id: rid, .. }) if rid == id)
            });
        if !acked {
            self.ins.errors.inc();
        }
        acked
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ReplicationSink for Replicator {
    fn record(&self, key: &CacheKey, report: &Arc<AnalysisReport>) {
        let shared = &*self.shared;
        let mut q = shared.queue.lock().unwrap();
        if q.shutdown {
            return;
        }
        if q.pending.len() >= MAX_BUFFER {
            shared.ins.dropped.inc();
            return;
        }
        q.pending.push((*key, Arc::clone(report)));
        shared.cv.notify_all();
    }

    fn barrier(&self) {
        let mut q = self.shared.queue.lock().unwrap();
        q.barrier = true;
        self.shared.cv.notify_all();
    }
}
