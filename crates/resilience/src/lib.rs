#![warn(missing_docs)]
//! Fault-tolerance primitives for the arrayflow serving stack.
//!
//! Worst-case data-flow analysis cost can sit far above the paper's
//! three-pass common case on non-separable or adversarial inputs, so a
//! serving stack for this framework has to treat solver blow-ups,
//! crashes and I/O faults as *routine events to contain*, not bugs to
//! hope away. This crate supplies the self-contained building blocks the
//! runtime crates wire in — zero dependencies, like the rest of the
//! workspace:
//!
//! * [`FaultSurface`] / [`FaultPlan`] — deterministic, seeded fault
//!   injection behind one trait. The runtime checks an
//!   `Option<Arc<dyn FaultSurface>>` that is `None` in production, so
//!   the seams cost one branch when no plan is installed. A
//!   [`FaultPlan`] parses from a compact spec string
//!   (`seed=42,solver_panic=10%,store_io=5%`) and makes every decision
//!   from a SplitMix64 stream — the same generator the workload crate
//!   uses — so a chaos run is exactly reproducible from its spec.
//! * [`CircuitBreaker`] — the classic closed → open → half-open state
//!   machine that turns a persistently failing dependency (a dead disk)
//!   into a cheap local decision instead of a doomed syscall per
//!   request.
//! * [`Backoff`] — capped exponential backoff with full jitter for
//!   retrying clients.
//! * [`RetryBudget`] — a token bucket capping total retry volume per
//!   window, the aggregate complement of per-attempt backoff.
//! * [`CancelToken`] — a shared sticky flag bridging the layer that
//!   learns a request is dead (connection teardown) to the layer
//!   spending on it (a worker mid-solve).
//! * [`panic_message`] — extracts the human-readable payload of a caught
//!   panic so `catch_unwind` sites can turn it into a typed error.

pub mod backoff;
pub mod breaker;
pub mod budget;
pub mod cancel;
pub mod fault;

pub use backoff::Backoff;
pub use breaker::{BreakerState, CircuitBreaker, Transition};
pub use budget::RetryBudget;
pub use cancel::CancelToken;
pub use fault::{FaultPlan, FaultSurface};

/// Extracts the human-readable message from a payload caught by
/// [`std::panic::catch_unwind`]. Panics carry either a `&'static str`
/// (from `panic!("literal")`) or a `String` (from `panic!("{x}")`);
/// anything else renders as `"non-string panic payload"`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn panic_message_extracts_both_payload_kinds() {
        let p = catch_unwind(|| panic!("static message")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static message");
        let x = 7;
        let p = catch_unwind(AssertUnwindSafe(|| panic!("formatted {x}"))).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
        let p = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }
}
