//! Bounded storage for open analysis sessions.
//!
//! The serving layer keeps one [`Session`] per interactive client. Sessions
//! hold a full converged analysis, so memory must be bounded: the store
//! evicts least-recently-used sessions past a capacity limit and expires
//! sessions idle longer than a time-to-live. Every change to the
//! population is reported to an observer as it happens
//! ([`SessionStore::observed`]), which is how the engine's session
//! metrics stay current without ever taking the store's lock.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::session::Session;

/// Session store limits.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Maximum number of simultaneously open sessions; opening one more
    /// evicts the least recently used.
    pub capacity: usize,
    /// Idle time after which a session expires. `None` disables the TTL.
    pub ttl: Option<Duration>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            ttl: Some(Duration::from_secs(600)),
        }
    }
}

/// Counters describing the store's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions currently open.
    pub open: usize,
    /// Sessions ever opened.
    pub opened_total: u64,
    /// Sessions evicted to respect [`StoreConfig::capacity`].
    pub evicted_capacity: u64,
    /// Sessions expired by the [`StoreConfig::ttl`].
    pub expired_ttl: u64,
    /// Deltas applied through [`SessionStore::with_session`].
    pub deltas_total: u64,
    /// Deltas that fell back to a full re-analysis.
    pub delta_fallbacks: u64,
}

/// A change to a [`SessionStore`]'s population, reported to its observer
/// together with the number of sessions open after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// A session was inserted.
    Opened,
    /// The least recently used session was evicted to respect
    /// [`StoreConfig::capacity`].
    Evicted,
    /// This many sessions idled past [`StoreConfig::ttl`] and were swept.
    Expired(u64),
    /// [`SessionStore::remove`] closed a session.
    Closed,
}

/// Receives each [`SessionEvent`] and the open count after it.
type Observer = Box<dyn Fn(SessionEvent, usize) + Send + Sync>;

struct Entry {
    session: Session,
    last_used: Instant,
    /// Monotonic touch counter; smallest is the LRU victim.
    touched: u64,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    next_id: u64,
    clock: u64,
    stats: SessionStats,
}

/// A thread-safe, bounded map of session id → [`Session`].
pub struct SessionStore {
    config: StoreConfig,
    inner: Mutex<Inner>,
    observer: Observer,
}

impl SessionStore {
    /// Creates an empty store with the given limits.
    pub fn new(config: StoreConfig) -> Self {
        Self {
            config,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                next_id: 1,
                clock: 0,
                stats: SessionStats::default(),
            }),
            observer: Box::new(|_, _| {}),
        }
    }

    /// Reports every [`SessionEvent`] to `observer`. It runs under the
    /// store's lock, right where the population changes, so it must be
    /// quick and must not call back into the store.
    pub fn observed(
        mut self,
        observer: impl Fn(SessionEvent, usize) + Send + Sync + 'static,
    ) -> Self {
        self.observer = Box::new(observer);
        self
    }

    /// Refreshes the open count and reports `event`.
    fn changed(&self, inner: &mut Inner, event: SessionEvent) {
        inner.stats.open = inner.entries.len();
        (self.observer)(event, inner.stats.open);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock means a panic mid-insert on another thread; the
        // map itself is still structurally sound, so serving continues.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sweep(&self, inner: &mut Inner, now: Instant) {
        if let Some(ttl) = self.config.ttl {
            let before = inner.entries.len();
            inner
                .entries
                .retain(|_, e| now.duration_since(e.last_used) <= ttl);
            let expired = (before - inner.entries.len()) as u64;
            if expired > 0 {
                inner.stats.expired_ttl += expired;
                self.changed(inner, SessionEvent::Expired(expired));
            }
        }
    }

    /// Inserts a freshly opened session, returning its id. Expired sessions
    /// are swept first; if the store is still full, the least recently used
    /// session is evicted.
    pub fn insert(&self, session: Session) -> u64 {
        let now = Instant::now();
        let mut inner = self.lock();
        self.sweep(&mut inner, now);
        while inner.entries.len() >= self.config.capacity.max(1) {
            if let Some((&victim, _)) = inner.entries.iter().min_by_key(|(_, e)| e.touched) {
                inner.entries.remove(&victim);
                inner.stats.evicted_capacity += 1;
                self.changed(&mut inner, SessionEvent::Evicted);
            } else {
                break;
            }
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.clock += 1;
        let touched = inner.clock;
        inner.entries.insert(
            id,
            Entry {
                session,
                last_used: now,
                touched,
            },
        );
        inner.stats.opened_total += 1;
        self.changed(&mut inner, SessionEvent::Opened);
        id
    }

    /// Runs `f` against the named session, refreshing its recency. Returns
    /// `None` if the session is unknown (never opened, evicted or expired).
    ///
    /// The requested id is refreshed *before* the sweep: a session that is
    /// still inside its TTL at the moment of this call is in active use,
    /// and the sweep this very call triggers must not be the thing that
    /// expires it. Sessions already idle past the TTL still expire — the
    /// touch does not resurrect them.
    pub fn with_session<T>(&self, id: u64, f: impl FnOnce(&mut Session) -> T) -> Option<T> {
        let now = Instant::now();
        let mut inner = self.lock();
        inner.clock += 1;
        let touched = inner.clock;
        let ttl = self.config.ttl;
        let live = match inner.entries.get_mut(&id) {
            Some(entry) => {
                let fresh = ttl.is_none_or(|t| now.duration_since(entry.last_used) <= t);
                if fresh {
                    entry.last_used = now;
                    entry.touched = touched;
                }
                fresh
            }
            None => false,
        };
        self.sweep(&mut inner, now);
        if !live {
            return None;
        }
        let entry = inner
            .entries
            .get_mut(&id)
            .expect("the just-refreshed entry survives its own sweep");
        Some(f(&mut entry.session))
    }

    /// Records the outcome of a delta (hit vs fallback) in the stats.
    pub fn record_delta(&self, fallback: bool) {
        let mut inner = self.lock();
        inner.stats.deltas_total += 1;
        if fallback {
            inner.stats.delta_fallbacks += 1;
        }
    }

    /// Closes a session, returning whether it was open.
    pub fn remove(&self, id: u64) -> bool {
        let mut inner = self.lock();
        let hit = inner.entries.remove(&id).is_some();
        if hit {
            self.changed(&mut inner, SessionEvent::Closed);
        }
        hit
    }

    /// A snapshot of the store's counters (sweeping expired sessions first
    /// so `open` is accurate).
    pub fn stats(&self) -> SessionStats {
        let mut inner = self.lock();
        self.sweep(&mut inner, Instant::now());
        inner.stats
    }
}

impl std::fmt::Debug for SessionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionStore")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayflow_ir::parse_program;

    fn session() -> Session {
        let p = parse_program("do i = 1, 100 A[i+1] := A[i]; end").unwrap();
        Session::open(p, 16).unwrap()
    }

    #[test]
    fn insert_and_reuse() {
        let store = SessionStore::new(StoreConfig::default());
        let id = store.insert(session());
        let fp = store.with_session(id, |s| s.fingerprint()).unwrap();
        assert_eq!(store.with_session(id, |s| s.fingerprint()), Some(fp));
        assert!(store.with_session(id + 1, |_| ()).is_none());
        let stats = store.stats();
        assert_eq!(stats.open, 1);
        assert_eq!(stats.opened_total, 1);
    }

    #[test]
    fn capacity_evicts_lru() {
        let store = SessionStore::new(StoreConfig {
            capacity: 2,
            ttl: None,
        });
        let a = store.insert(session());
        let b = store.insert(session());
        // Touch `a` so `b` becomes the LRU victim.
        store.with_session(a, |_| ()).unwrap();
        let c = store.insert(session());
        assert!(store.with_session(a, |_| ()).is_some());
        assert!(store.with_session(b, |_| ()).is_none());
        assert!(store.with_session(c, |_| ()).is_some());
        let stats = store.stats();
        assert_eq!(stats.open, 2);
        assert_eq!(stats.evicted_capacity, 1);
    }

    #[test]
    fn ttl_expires() {
        let store = SessionStore::new(StoreConfig {
            capacity: 8,
            ttl: Some(Duration::from_millis(0)),
        });
        let id = store.insert(session());
        std::thread::sleep(Duration::from_millis(5));
        assert!(store.with_session(id, |_| ()).is_none());
        let stats = store.stats();
        assert_eq!(stats.open, 0);
        assert_eq!(stats.expired_ttl, 1);
    }

    #[test]
    fn an_actively_touched_session_survives_its_own_sweeps() {
        // Regression: `with_session` swept TTL-expired entries before
        // refreshing the requested id, so a get near the TTL boundary
        // could expire the very session it was using. The touch now
        // lands first; only sessions already idle past the TTL expire.
        let store = SessionStore::new(StoreConfig {
            capacity: 8,
            ttl: Some(Duration::from_millis(500)),
        });
        let a = store.insert(session());
        let b = store.insert(session());
        std::thread::sleep(Duration::from_millis(300));
        // `a` is inside its TTL: this get must refresh it, and the sweep
        // the get itself triggers must not remove it.
        assert!(store.with_session(a, |_| ()).is_some());
        std::thread::sleep(Duration::from_millis(300));
        // `a` was touched 300 ms ago (< ttl); `b` has idled 600 ms (> ttl).
        assert!(store.with_session(a, |_| ()).is_some());
        assert!(store.with_session(b, |_| ()).is_none());
        let stats = store.stats();
        assert_eq!(stats.open, 1);
        assert_eq!(stats.expired_ttl, 1);
    }

    #[test]
    fn the_observer_sees_every_population_change() {
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let log = std::sync::Arc::clone(&seen);
        let store = SessionStore::new(StoreConfig {
            capacity: 1,
            ttl: Some(Duration::from_millis(20)),
        })
        .observed(move |event, open| log.lock().unwrap().push((event, open)));
        let a = store.insert(session());
        let b = store.insert(session());
        std::thread::sleep(Duration::from_millis(40));
        // Looking up the evicted `a` sweeps the expired `b`.
        assert!(store.with_session(a, |_| ()).is_none());
        assert!(!store.remove(b));
        use SessionEvent::*;
        assert_eq!(
            *seen.lock().unwrap(),
            [(Opened, 1), (Evicted, 0), (Opened, 1), (Expired(1), 0)]
        );
    }

    #[test]
    fn remove_closes() {
        let store = SessionStore::new(StoreConfig::default());
        let id = store.insert(session());
        assert!(store.remove(id));
        assert!(!store.remove(id));
        assert_eq!(store.stats().open, 0);
    }
}
