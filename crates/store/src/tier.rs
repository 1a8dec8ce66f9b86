//! [`PersistentTier`]: the bridge between [`MemoCache`] and the disk
//! [`Store`] — a [`SecondTier`] implementation whose writes go through a
//! dedicated writer thread behind a **bounded** channel.
//!
//! Reads (`load`) hit the store synchronously: a disk read is the slow
//! path of a cache miss that was going to solve four data-flow problems
//! anyway. Writes (`store`) must never stall analysis, so they are
//! forwarded with `try_send`; when the queue is full the append is
//! dropped and counted (`dropped_appends`) — losing a cache write costs
//! a future re-analysis, never correctness.
//!
//! [`MemoCache`]: arrayflow_engine::MemoCache

use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

use arrayflow_engine::{AnalysisReport, CacheKey, SecondTier};
use arrayflow_obs::{observed_span, Counter, Gauge, Histogram, Registry, PHASE_BUCKETS_US};
use arrayflow_resilience::{BreakerState, CircuitBreaker, Transition};

use crate::store::Store;

enum WriterMsg {
    Put(CacheKey, Arc<AnalysisReport>),
    /// Flush barrier: the writer acks on the back-channel once every
    /// message queued before it has been appended.
    Flush(SyncSender<()>),
}

/// A tee on the tier's writer thread: every append that reaches disk is
/// also offered to the sink, and each flush barrier is forwarded so the
/// sink can ship what it has buffered. Implemented by the cluster
/// replicator; calls are made *on the writer thread*, so implementations
/// must be quick and non-blocking (queue and return).
pub trait ReplicationSink: Send + Sync {
    /// A record just reached the local segment log.
    fn record(&self, key: &CacheKey, report: &Arc<AnalysisReport>);
    /// A flush barrier passed: everything recorded so far should be
    /// shipped at the next opportunity.
    fn barrier(&self);
}

/// Counters specific to the tier (the store keeps its own).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Appends accepted onto the writer queue.
    pub queued_appends: u64,
    /// Appends dropped because the queue was full (backpressure).
    pub dropped_appends: u64,
    /// Appends that reached disk.
    pub written_appends: u64,
    /// Appends that failed with an I/O error on the writer thread.
    pub failed_appends: u64,
    /// Appends refused locally because the write-path breaker was open
    /// (the memory-only degraded mode).
    pub breaker_dropped_appends: u64,
    /// Times the write-path breaker has tripped open.
    pub breaker_trips: u64,
}

/// Disk-backed second tier with an asynchronous writer thread and a
/// write-path circuit breaker.
///
/// The breaker (configured by `breaker_threshold` / `breaker_cooldown`
/// in [`StoreConfig`](crate::StoreConfig)) sits at the tier's front
/// door: after `threshold` consecutive failed appends it trips open and
/// the cache degrades to memory-only — appends are refused by a local
/// check instead of paying a doomed enqueue + syscall each. After the
/// cooldown, one append is admitted as a half-open probe; its outcome on
/// the writer thread closes or re-opens the breaker. Reads (`load`) are
/// never gated: a readable disk keeps serving warm loads even while
/// writes are broken.
pub struct PersistentTier {
    store: Arc<Store>,
    sender: Mutex<Option<SyncSender<WriterMsg>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
    breaker: Arc<CircuitBreaker>,
    replication: Arc<RwLock<Option<Arc<dyn ReplicationSink>>>>,
    ins: TierInstruments,
}

/// The tier's registered instruments: writer-queue counters plus the
/// `tier_load` / `tier_append` phase histograms.
#[derive(Debug, Clone)]
struct TierInstruments {
    queued: Counter,
    dropped: Counter,
    written: Counter,
    failed: Counter,
    breaker_state: Gauge,
    breaker_trips: Counter,
    breaker_dropped: Counter,
    phase_load: Histogram,
    phase_append: Histogram,
}

impl TierInstruments {
    fn registered(registry: &Registry) -> Self {
        let phase = |name| {
            registry.histogram_with(
                "arrayflow_phase_us",
                "per-phase wall-clock, microseconds",
                &[("phase", name)],
                &PHASE_BUCKETS_US,
            )
        };
        Self {
            queued: registry.counter(
                "arrayflow_tier_queued_appends_total",
                "appends accepted onto the writer queue",
            ),
            dropped: registry.counter(
                "arrayflow_tier_dropped_appends_total",
                "appends dropped because the writer queue was full (backpressure)",
            ),
            written: registry.counter(
                "arrayflow_tier_written_appends_total",
                "appends that reached disk",
            ),
            failed: registry.counter(
                "arrayflow_tier_failed_appends_total",
                "appends that failed with an I/O error on the writer thread",
            ),
            breaker_state: registry.gauge(
                "arrayflow_store_breaker_state",
                "write-path circuit breaker state: 0 closed, 1 half-open, 2 open",
            ),
            breaker_trips: registry.counter(
                "arrayflow_store_breaker_trips_total",
                "times the write-path breaker tripped open",
            ),
            breaker_dropped: registry.counter(
                "arrayflow_tier_breaker_dropped_total",
                "appends refused locally while the write-path breaker was open",
            ),
            phase_load: phase("tier_load"),
            phase_append: phase("tier_append"),
        }
    }

    /// Records a breaker transition: gauge, trip counter, and one
    /// structured stderr line (the `--slow-log` format family) so
    /// operators see degradation without scraping metrics.
    fn breaker_transition(&self, t: Transition) {
        self.breaker_state.set(t.to.as_gauge() as u64);
        if t.to == BreakerState::Open {
            self.breaker_trips.inc();
        }
        eprintln!(
            "store: breaker-transition from={} to={} consecutive_failures={} mode={}",
            t.from,
            t.to,
            t.consecutive_failures,
            if t.to == BreakerState::Open {
                "memory-only"
            } else {
                "persistent"
            }
        );
    }
}

impl std::fmt::Debug for PersistentTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentTier")
            .field("stats", &self.stats())
            .finish()
    }
}

impl PersistentTier {
    /// Wraps `store`, spawning the writer thread. `queue_bound` is the
    /// maximum number of in-flight appends before backpressure drops new
    /// ones. Instruments land on a fresh private [`Registry`]; use
    /// [`PersistentTier::new_in`] to share one.
    pub fn new(store: Arc<Store>, queue_bound: usize) -> Arc<PersistentTier> {
        Self::new_in(store, queue_bound, &Registry::new())
    }

    /// Like [`PersistentTier::new`], but registers the tier's counters and
    /// phase histograms on `registry`.
    pub fn new_in(
        store: Arc<Store>,
        queue_bound: usize,
        registry: &Registry,
    ) -> Arc<PersistentTier> {
        let (tx, rx) = sync_channel::<WriterMsg>(queue_bound.max(1));
        let ins = TierInstruments::registered(registry);
        let breaker = Arc::new(CircuitBreaker::new(
            store.config().breaker_threshold,
            store.config().breaker_cooldown,
        ));
        let replication: Arc<RwLock<Option<Arc<dyn ReplicationSink>>>> =
            Arc::new(RwLock::new(None));
        let writer = {
            let store = Arc::clone(&store);
            let ins = ins.clone();
            let breaker = Arc::clone(&breaker);
            let replication = Arc::clone(&replication);
            std::thread::Builder::new()
                .name("store-writer".into())
                .spawn(move || {
                    for msg in rx {
                        match msg {
                            WriterMsg::Put(key, report) => {
                                let ok = {
                                    let _span = observed_span("tier_append", &ins.phase_append);
                                    store.put(key, (*report).clone()).is_ok()
                                };
                                if ok {
                                    ins.written.inc();
                                    // Tee to the replica only what
                                    // actually reached the local log.
                                    let sink = replication.read().unwrap().clone();
                                    if let Some(sink) = sink {
                                        sink.record(&key, &report);
                                    }
                                } else {
                                    ins.failed.inc();
                                }
                                // The append outcome drives the breaker:
                                // the threshold-th consecutive failure
                                // trips it, a successful half-open probe
                                // closes it again.
                                if let Some(t) = breaker.record(ok) {
                                    ins.breaker_transition(t);
                                }
                            }
                            WriterMsg::Flush(ack) => {
                                let sink = replication.read().unwrap().clone();
                                if let Some(sink) = sink {
                                    sink.barrier();
                                }
                                let _ = ack.send(());
                            }
                        }
                    }
                })
                .expect("spawn store writer thread")
        };
        Arc::new(PersistentTier {
            store,
            sender: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
            breaker,
            replication,
            ins,
        })
    }

    /// Installs a [`ReplicationSink`] teeing every successful append (and
    /// each flush barrier) to a replica. Replaces any previous sink.
    pub fn set_replication_sink(&self, sink: Arc<dyn ReplicationSink>) {
        *self.replication.write().unwrap() = Some(sink);
    }

    /// The underlying store.
    pub fn store_handle(&self) -> &Arc<Store> {
        &self.store
    }

    /// Tier counters.
    pub fn stats(&self) -> TierStats {
        TierStats {
            queued_appends: self.ins.queued.get(),
            dropped_appends: self.ins.dropped.get(),
            written_appends: self.ins.written.get(),
            failed_appends: self.ins.failed.get(),
            breaker_dropped_appends: self.ins.breaker_dropped.get(),
            breaker_trips: self.breaker.trips(),
        }
    }

    /// Current state of the write-path circuit breaker.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Blocks until every append queued so far has reached the store (or
    /// the writer is gone). Uses a flush barrier message, so it *does*
    /// wait on the queue if it is full.
    pub fn flush(&self) {
        let sender = self.sender.lock().unwrap().clone();
        if let Some(tx) = sender {
            let (ack_tx, ack_rx) = sync_channel::<()>(1);
            if tx.send(WriterMsg::Flush(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
    }

    /// Flushes, stops the writer thread, and joins it. Idempotent; called
    /// by `Drop` as well.
    pub fn shutdown(&self) {
        // Dropping the sender ends the writer's receive loop after it
        // drains everything already queued.
        self.sender.lock().unwrap().take();
        if let Some(handle) = self.writer.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PersistentTier {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl SecondTier for PersistentTier {
    fn load(&self, key: &CacheKey) -> Option<Arc<AnalysisReport>> {
        let _span = observed_span("tier_load", &self.ins.phase_load);
        self.store.get(key).map(Arc::new)
    }

    fn store(&self, key: &CacheKey, report: &Arc<AnalysisReport>) {
        // Breaker front door. While open this is the entire cost of a
        // "write": one local check, no enqueue, no syscall. When the
        // cooldown has elapsed, this very call is admitted as the
        // half-open probe and flows through the writer like any append.
        let (admitted, transition) = self.breaker.try_acquire();
        if let Some(t) = transition {
            self.ins.breaker_transition(t);
        }
        if !admitted {
            self.ins.breaker_dropped.inc();
            return;
        }
        let was_probe = transition.is_some();
        let sender = self.sender.lock().unwrap().clone();
        let Some(tx) = sender else {
            self.ins.dropped.inc();
            return;
        };
        match tx.try_send(WriterMsg::Put(*key, Arc::clone(report))) {
            Ok(()) => {
                self.ins.queued.inc();
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.ins.dropped.inc();
                if was_probe {
                    // The probe never reached the writer, so no outcome
                    // will ever be recorded for it; fail it here or the
                    // breaker would wedge half-open forever.
                    if let Some(t) = self.breaker.record(false) {
                        self.ins.breaker_transition(t);
                    }
                }
            }
        }
    }
}
