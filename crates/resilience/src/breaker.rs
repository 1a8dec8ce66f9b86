//! A circuit breaker for a persistently failing dependency.
//!
//! The store's write path uses one of these so a dead disk degrades the
//! service to memory-only at the cost of a single atomic check per
//! append, instead of a doomed syscall (plus error handling, plus metric
//! churn) per request:
//!
//! * **Closed** — normal operation; every failure is counted, every
//!   success resets the count. `threshold` consecutive failures trip the
//!   breaker.
//! * **Open** — all acquisitions are refused locally. After `cooldown`
//!   has elapsed the next acquisition is admitted as a *probe* and the
//!   breaker moves to half-open.
//! * **HalfOpen** — exactly one probe is in flight; other acquisitions
//!   are still refused. The probe's outcome decides: success closes the
//!   breaker, failure re-opens it and restarts the cooldown.
//!
//! Every state change is surfaced as a [`Transition`] returned from the
//! call that caused it, so callers can log it and update a gauge without
//! polling.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The three positions of the breaker's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are being counted.
    Closed,
    /// Tripped; work is refused locally until the cooldown elapses.
    Open,
    /// One probe is in flight to test whether the dependency recovered.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name, used in stats output and stderr lines.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    /// Encoding for the `arrayflow_store_breaker_state` gauge:
    /// 0 = closed, 1 = half-open, 2 = open.
    pub fn as_gauge(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A state change, reported by the call that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State before the change.
    pub from: BreakerState,
    /// State after the change.
    pub to: BreakerState,
    /// Consecutive failures observed at the moment of the change.
    pub consecutive_failures: u32,
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

/// Closed → open → half-open circuit breaker. Thread-safe; one short
/// mutex hold per call.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A breaker that trips after `threshold` consecutive failures and
    /// probes again `cooldown` after opening. A threshold of 0 is
    /// treated as 1 (a breaker that can never trip would be a no-op).
    pub fn new(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
            }),
        }
    }

    /// Asks whether one unit of work may proceed. Returns `(admitted,
    /// transition)`; a `Some` transition means this very call moved the
    /// breaker (open → half-open when the cooldown elapsed, admitting
    /// the caller as the probe).
    pub fn try_acquire(&self) -> (bool, Option<Transition>) {
        let mut inner = self.inner.lock().unwrap();
        match inner.state {
            BreakerState::Closed => (true, None),
            BreakerState::HalfOpen => (false, None),
            BreakerState::Open => {
                let elapsed = inner
                    .opened_at
                    .map(|t| t.elapsed() >= self.cooldown)
                    .unwrap_or(true);
                if elapsed {
                    let t = transition(&mut inner, BreakerState::HalfOpen);
                    (true, Some(t))
                } else {
                    (false, None)
                }
            }
        }
    }

    /// Reports the outcome of an admitted unit of work. Returns the
    /// transition if this outcome moved the breaker: the threshold-th
    /// consecutive failure trips closed → open, the probe's outcome
    /// resolves half-open → closed (success) or → open (failure).
    pub fn record(&self, ok: bool) -> Option<Transition> {
        let mut inner = self.inner.lock().unwrap();
        match (inner.state, ok) {
            (BreakerState::Closed, true) => {
                inner.consecutive_failures = 0;
                None
            }
            (BreakerState::Closed, false) => {
                inner.consecutive_failures += 1;
                (inner.consecutive_failures >= self.threshold).then(|| self.open(&mut inner))
            }
            (BreakerState::HalfOpen, true) => {
                inner.consecutive_failures = 0;
                Some(transition(&mut inner, BreakerState::Closed))
            }
            (BreakerState::HalfOpen, false) => {
                inner.consecutive_failures += 1;
                Some(self.open(&mut inner))
            }
            // Work admitted before the trip may report after it; the
            // breaker has already made its decision.
            (BreakerState::Open, _) => None,
        }
    }

    fn open(&self, inner: &mut Inner) -> Transition {
        inner.opened_at = Some(Instant::now());
        transition(inner, BreakerState::Open)
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.inner.lock().unwrap().state
    }
}

fn transition(inner: &mut Inner, to: BreakerState) -> Transition {
    let t = Transition {
        from: inner.state,
        to,
        consecutive_failures: inner.consecutive_failures,
    };
    inner.state = to;
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trips among `record` outcomes: their transitions to open.
    fn trips(outcomes: impl IntoIterator<Item = Option<Transition>>) -> usize {
        let transitions = outcomes.into_iter().flatten();
        transitions.filter(|t| t.to == BreakerState::Open).count()
    }

    #[test]
    fn stays_closed_under_isolated_failures() {
        let b = CircuitBreaker::new(3, Duration::from_secs(60));
        let mut outcomes = Vec::new();
        for _ in 0..10 {
            outcomes.push(b.record(false));
            outcomes.push(b.record(false));
            outcomes.push(b.record(true)); // success resets the streak
        }
        assert!(outcomes.iter().all(Option::is_none));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(trips(outcomes), 0);
    }

    #[test]
    fn trips_on_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(3, Duration::from_secs(60));
        let outcomes: Vec<_> = (0..3).map(|_| b.record(false)).collect();
        assert_eq!(outcomes[..2], [None, None]);
        let t = outcomes[2].expect("third failure trips");
        assert_eq!(t.from, BreakerState::Closed);
        assert_eq!(t.to, BreakerState::Open);
        assert_eq!(t.consecutive_failures, 3);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(trips(outcomes), 1);
        // While open (cooldown not elapsed), everything is refused.
        assert_eq!(b.try_acquire(), (false, None));
    }

    #[test]
    fn probe_success_closes_probe_failure_reopens() {
        let b = CircuitBreaker::new(1, Duration::ZERO);
        let mut outcomes = vec![b.record(false)];
        assert_eq!(b.state(), BreakerState::Open);

        // Cooldown of zero: the next acquire is admitted as the probe.
        let (ok, t) = b.try_acquire();
        assert!(ok);
        assert_eq!(t.unwrap().to, BreakerState::HalfOpen);
        // A second caller is refused while the probe is in flight.
        assert_eq!(b.try_acquire(), (false, None));
        // Probe fails: back to open, counted as another trip.
        outcomes.push(b.record(false));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(trips(outcomes), 2);

        // Probe again, succeed this time: closed and admitting.
        let (ok, _) = b.try_acquire();
        assert!(ok);
        assert_eq!(b.record(true).unwrap().to, BreakerState::Closed);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.try_acquire(), (true, None));
    }

    #[test]
    fn open_cooldown_is_respected() {
        let b = CircuitBreaker::new(1, Duration::from_secs(3600));
        b.record(false);
        for _ in 0..5 {
            assert_eq!(b.try_acquire(), (false, None), "cooldown far from elapsed");
        }
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn late_reports_after_trip_are_ignored() {
        let b = CircuitBreaker::new(1, Duration::from_secs(3600));
        let outcomes = [b.record(false), b.record(true), b.record(false)];
        assert_eq!(outcomes[1..], [None, None]);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(trips(outcomes), 1);
    }

    #[test]
    fn gauge_encoding_is_stable() {
        assert_eq!(BreakerState::Closed.as_gauge(), 0);
        assert_eq!(BreakerState::HalfOpen.as_gauge(), 1);
        assert_eq!(BreakerState::Open.as_gauge(), 2);
        assert_eq!(BreakerState::HalfOpen.to_string(), "half-open");
    }
}
