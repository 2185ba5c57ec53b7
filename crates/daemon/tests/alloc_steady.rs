//! Allocation audit of the multiplexed reactor's steady state.
//!
//! Once every engine, batch buffer and per-node table is warm, a further
//! round of the reactor should allocate next to nothing: frames are
//! appended into one reusable batch, engine outputs go through one
//! reusable buffer, and the engines' per-peer state has reached its
//! working set. The test runs the same lossless cluster for 20 and for
//! 40 rounds and charges the difference in heap acquisitions to the
//! extra 20 rounds, so set-up, the summary and teardown cancel out.
//!
//! Same counting allocator as `crates/sim/tests/alloc_free.rs`, in its
//! own integration-test binary so no concurrent test thread pollutes the
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use penelope_daemon::multiplex::{run_multiplexed, MuxConfig, MuxSummary};

/// Counts every heap acquisition (alloc, realloc, alloc_zeroed);
/// deallocations are free and uncounted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap acquisitions the extra 20 rounds (about 2,900 engine inputs) may
/// make. What remains is amortized growth: the run's RTT sample vector
/// doubling, and each granter's per-requester table growing as it meets
/// requesters it has not served before (bounded by the cluster size).
/// Both seeds below measure about 60 on x86-64 Linux; a per-message
/// allocation anywhere in the reactor would cost thousands.
const BUDGET: u64 = 128;

/// Run a lossless 64-node soak for `rounds` and count its allocations.
fn counted(seed: u64, rounds: u64) -> (u64, MuxSummary) {
    let cfg = MuxConfig::soak(64, seed, rounds);
    let before = ALLOCS.load(Ordering::Relaxed);
    let summary = run_multiplexed(&cfg).expect("loopback sockets");
    (ALLOCS.load(Ordering::Relaxed) - before, summary)
}

#[test]
fn extra_reactor_rounds_stay_within_the_allocation_budget() {
    for seed in [3, 17] {
        let (short, s20) = counted(seed, 20);
        let (long, s40) = counted(seed, 40);
        for s in [&s20, &s40] {
            assert_eq!(s.wire_lost, 0, "a lossless run must deliver every frame");
            assert!(s.grant_rtt().is_some(), "no grant round trip completed");
        }
        let extra_events = s40.events - s20.events;
        assert!(
            extra_events > 2_000,
            "the extra rounds ran only {extra_events} engine inputs — not a steady-state window"
        );
        let extra = long.saturating_sub(short);
        assert!(
            extra <= BUDGET,
            "seed {seed}: 20 extra rounds ({extra_events} engine inputs) made {extra} heap \
             allocations ({short} at 20 rounds, {long} at 40); the budget is {BUDGET}"
        );
    }
}
