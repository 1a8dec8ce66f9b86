//! Allocation budget of a fast-path delta.
//!
//! A one-statement edit that stays on the incremental path must build
//! only what the edit changes — the edited node's graph entry, sites and
//! spec rows, the re-solved columns and the touched arrays' report
//! entries — and share everything else with the pre-edit state. So it
//! allocates a small fraction of what opening a session over the same
//! program does; copying the graph, the site table, the specs or the
//! programs shows up here as a ratio near one.
//!
//! The count is per thread (the allocator charges each allocation to the
//! thread that makes it), so the harness and other tests cannot pollute
//! it; the binary also holds this one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use arrayflow_incremental::Session;
use arrayflow_workloads::{random_edits, random_loop, LoopShape};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // During thread teardown the slot may be gone; such allocations are
    // not the measured thread's.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

/// The dependence distance bound sessions distill at.
const DEP_MAX_DISTANCE: u64 = 8;

/// Fast-path edits checked per tier.
const EDITS: usize = 6;

#[test]
fn a_fast_path_delta_allocates_a_tenth_of_an_open() {
    // The E16 tiers' base loops and edit streams (`incremental_throughput`).
    for (stmts, arrays) in [(128, 16), (512, 64)] {
        let shape = LoopShape {
            stmts,
            arrays,
            ..LoopShape::default()
        };
        let base = random_loop(&shape, 42);
        let mut source = base.clone();
        source.renumber();
        let edits = random_edits(&source, &shape, EDITS, 7);
        assert_eq!(edits.len(), EDITS);

        let (open, session) = allocations(|| Session::open(base, DEP_MAX_DISTANCE));
        let mut session = session.expect("the base loop analyzes");
        for (k, edit) in edits.iter().enumerate() {
            let (apply, outcome) = allocations(|| session.apply(edit));
            let outcome = outcome.expect("the edit applies");
            assert!(
                !outcome.fallback,
                "{stmts} stmts, edit {k}: left the fast path"
            );
            let ratio = apply as f64 / open as f64;
            println!(
                "{stmts} stmts, edit {k}: {apply} allocations vs {open} to open ({ratio:.3}x)"
            );
            assert!(
                apply * 10 <= open,
                "{stmts} stmts, edit {k}: a fast-path apply allocated {apply} times, \
                 more than a tenth of the {open} an open of the same loop does"
            );
        }
    }
}
