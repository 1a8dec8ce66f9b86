//! Deterministic fault injection behind the [`FaultSurface`] trait.
//!
//! The runtime crates each expose one *seam* — a single call into an
//! optional `Arc<dyn FaultSurface>` at the point where a real fault
//! would strike:
//!
//! * the store's append path asks [`FaultSurface::store_io`] whether this
//!   write should fail with an injected I/O error (a dying disk);
//! * the engine's solve path asks [`FaultSurface::solver_panic`] whether
//!   this instance should panic (a solver blow-up on an adversarial
//!   input) and [`FaultSurface::solve_latency`] whether to stall first
//!   (a pathological, slow-to-converge input);
//! * the service's worker loop asks [`FaultSurface::worker_exit`]
//!   whether the thread should die (a crashed worker its drop guard must
//!   replace).
//!
//! With no surface installed every seam is a `None` check — zero
//! allocations, zero atomics, one branch. [`FaultPlan`] is the standard
//! implementation: every decision is drawn from a SplitMix64 stream (the
//! same generator `arrayflow-workloads` uses for programs, kept local so
//! this crate stays a dependency-free leaf), so a chaos run is exactly
//! reproducible from its spec string and two runs with the same spec
//! inject the same faults at the same call indices.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The injection seams the runtime exposes. Every method defaults to
/// "no fault", so custom test surfaces override only the seam under
/// test.
pub trait FaultSurface: Send + Sync + std::fmt::Debug {
    /// Store write seam: `Some(error)` makes this append fail as if the
    /// disk had.
    fn store_io(&self) -> Option<io::Error> {
        None
    }

    /// Solver seam: `true` makes the caller panic mid-solve (the panic
    /// is caught and isolated by the engine).
    fn solver_panic(&self) -> bool {
        false
    }

    /// Solver latency seam: `Some(d)` stalls the solve phase by `d`
    /// before running, simulating a pathological input.
    fn solve_latency(&self) -> Option<Duration> {
        None
    }

    /// Worker seam, consulted between jobs: `true` makes the service
    /// worker thread exit, as if it had crashed; its drop guard must
    /// start a replacement.
    fn worker_exit(&self) -> bool {
        false
    }
}

/// A seeded, deterministic fault plan parsed from a compact spec string.
///
/// ```text
/// seed=42,solver_panic=10%,store_io=5%,store_io_first=20,latency_us=500,latency=3%,worker_exit=1%
/// ```
///
/// * `seed=N` — the SplitMix64 seed (default 0). Same spec ⇒ same
///   decisions at the same call indices, across runs and platforms.
/// * `solver_panic=P%` — probability that one solve panics.
/// * `store_io=P%` — probability that one store append fails.
/// * `store_io_first=N` — additionally fail the *first* `N` appends
///   unconditionally; this is how a chaos drill trips the store circuit
///   breaker at a known point and then lets it recover.
/// * `latency_us=N` + `latency=P%` — stall `P%` of solves by `N` µs
///   (`latency` defaults to 100% when only `latency_us` is given).
/// * `worker_exit=P%` — probability that a service worker dies before
///   picking up its next job.
///
/// Percentages are integers in `0..=100`; the `%` suffix is optional.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    solver_panic_pct: u32,
    store_io_pct: u32,
    store_io_first: u64,
    latency_us: u64,
    latency_pct: u32,
    worker_exit_pct: u32,
    // Per-seam call counters: the position in the decision stream.
    store_io_calls: AtomicU64,
    solver_calls: AtomicU64,
    latency_calls: AtomicU64,
    worker_calls: AtomicU64,
}

// Distinct salts keep the four decision streams independent even though
// they share one seed.
const SALT_STORE_IO: u64 = 0x5354_4f52_455f_494f; // "STORE_IO"
const SALT_SOLVER: u64 = 0x534f_4c56_4552_5f50; // "SOLVER_P"
const SALT_LATENCY: u64 = 0x4c41_5445_4e43_595f; // "LATENCY_"
const SALT_WORKER: u64 = 0x574f_524b_4552_5f58; // "WORKER_X"

/// SplitMix64 finalizer evaluated at stream position `n` — the same
/// mixing constants as `arrayflow_workloads::prng::splitmix64`, applied
/// statelessly so concurrent seams never contend on shared PRNG state.
fn mix(seed: u64, salt: u64, n: u64) -> u64 {
    let mut z = (seed ^ salt.rotate_left(31))
        .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(n.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Parses a plan from its spec string (see the type docs for the
    /// grammar). The empty string is a valid plan that injects nothing.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let mut latency_pct_given = false;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan entry `{part}` is not key=value"))?;
            let percent = || -> Result<u32, String> {
                let v = value.strip_suffix('%').unwrap_or(value);
                let p: u32 = v
                    .parse()
                    .map_err(|_| format!("`{key}` wants an integer percentage, got `{value}`"))?;
                if p > 100 {
                    return Err(format!("`{key}={value}` exceeds 100%"));
                }
                Ok(p)
            };
            let count = || -> Result<u64, String> {
                value
                    .parse()
                    .map_err(|_| format!("`{key}` wants an integer, got `{value}`"))
            };
            match key.trim() {
                "seed" => plan.seed = count()?,
                "solver_panic" => plan.solver_panic_pct = percent()?,
                "store_io" => plan.store_io_pct = percent()?,
                "store_io_first" => plan.store_io_first = count()?,
                "latency_us" => plan.latency_us = count()?,
                "latency" => {
                    plan.latency_pct = percent()?;
                    latency_pct_given = true;
                }
                "worker_exit" => plan.worker_exit_pct = percent()?,
                other => return Err(format!("unknown fault plan key `{other}`")),
            }
        }
        if plan.latency_us > 0 && !latency_pct_given {
            plan.latency_pct = 100;
        }
        Ok(plan)
    }

    /// The seed the decision streams run on.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// One deterministic percent-draw on the seam's stream.
    fn draw(&self, salt: u64, calls: &AtomicU64, pct: u32) -> bool {
        if pct == 0 {
            return false;
        }
        let n = calls.fetch_add(1, Ordering::Relaxed);
        mix(self.seed, salt, n) % 100 < pct as u64
    }
}

impl std::fmt::Display for FaultPlan {
    /// Renders the plan back as a canonical spec string.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed={},solver_panic={}%,store_io={}%,store_io_first={},latency_us={},latency={}%,worker_exit={}%",
            self.seed,
            self.solver_panic_pct,
            self.store_io_pct,
            self.store_io_first,
            self.latency_us,
            self.latency_pct,
            self.worker_exit_pct
        )
    }
}

impl FaultSurface for FaultPlan {
    fn store_io(&self) -> Option<io::Error> {
        if self.store_io_pct == 0 && self.store_io_first == 0 {
            return None;
        }
        let n = self.store_io_calls.fetch_add(1, Ordering::Relaxed);
        let hit = n < self.store_io_first
            || (self.store_io_pct > 0
                && mix(self.seed, SALT_STORE_IO, n) % 100 < self.store_io_pct as u64);
        hit.then(|| io::Error::other(format!("injected store I/O fault (call #{n})")))
    }

    fn solver_panic(&self) -> bool {
        self.draw(SALT_SOLVER, &self.solver_calls, self.solver_panic_pct)
    }

    fn solve_latency(&self) -> Option<Duration> {
        if self.latency_us == 0 {
            return None;
        }
        self.draw(SALT_LATENCY, &self.latency_calls, self.latency_pct)
            .then(|| Duration::from_micros(self.latency_us))
    }

    fn worker_exit(&self) -> bool {
        self.draw(SALT_WORKER, &self.worker_calls, self.worker_exit_pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_injects_nothing() {
        let plan = FaultPlan::parse("").unwrap();
        let mut hits = 0;
        for _ in 0..100 {
            hits += usize::from(plan.store_io().is_some())
                + usize::from(plan.solver_panic())
                + usize::from(plan.solve_latency().is_some())
                + usize::from(plan.worker_exit());
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn same_spec_same_decisions() {
        let spec = "seed=42,solver_panic=30%,store_io=20,latency_us=5,latency=50%,worker_exit=10%";
        let a = FaultPlan::parse(spec).unwrap();
        let b = FaultPlan::parse(spec).unwrap();
        let mut solver_panics = 0;
        for _ in 0..500 {
            let panicked = a.solver_panic();
            assert_eq!(panicked, b.solver_panic());
            solver_panics += usize::from(panicked);
            assert_eq!(a.store_io().is_some(), b.store_io().is_some());
            assert_eq!(a.solve_latency(), b.solve_latency());
            assert_eq!(a.worker_exit(), b.worker_exit());
        }
        assert!(solver_panics > 0, "30% over 500 draws must fire");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::parse("seed=1,solver_panic=50%").unwrap();
        let b = FaultPlan::parse("seed=2,solver_panic=50%").unwrap();
        let diverged = (0..200)
            .filter(|_| a.solver_panic() != b.solver_panic())
            .count();
        assert!(diverged > 0, "independent seeds must disagree somewhere");
    }

    #[test]
    fn rates_are_roughly_calibrated() {
        let plan = FaultPlan::parse("seed=7,solver_panic=25%").unwrap();
        let hits = (0..10_000).filter(|_| plan.solver_panic()).count();
        assert!((2_000..3_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn store_io_first_fails_exactly_the_prefix() {
        let plan = FaultPlan::parse("seed=3,store_io_first=5").unwrap();
        let mut failed = 0;
        for i in 0..50 {
            let hit = plan.store_io().is_some();
            assert_eq!(hit, i < 5, "call {i}");
            failed += usize::from(hit);
        }
        assert_eq!(failed, 5);
    }

    #[test]
    fn latency_without_rate_defaults_to_every_solve() {
        let plan = FaultPlan::parse("latency_us=250").unwrap();
        assert_eq!(plan.solve_latency(), Some(Duration::from_micros(250)));
        assert_eq!(plan.solve_latency(), Some(Duration::from_micros(250)));
    }

    #[test]
    fn spec_errors_are_reported() {
        assert!(FaultPlan::parse("nonsense")
            .unwrap_err()
            .contains("key=value"));
        assert!(FaultPlan::parse("frob=1")
            .unwrap_err()
            .contains("unknown fault plan key"));
        assert!(FaultPlan::parse("solver_panic=101%")
            .unwrap_err()
            .contains("exceeds"));
        assert!(FaultPlan::parse("seed=abc")
            .unwrap_err()
            .contains("integer"));
    }

    #[test]
    fn display_round_trips_through_parse() {
        let plan = FaultPlan::parse("seed=9,solver_panic=10,store_io=5%,latency_us=7").unwrap();
        let again = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan.to_string(), again.to_string());
    }
}
