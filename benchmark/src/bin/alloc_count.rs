//! Heap allocations per executed event for one repetition of a
//! workload's first cell, counted by a global allocator that only this
//! binary installs, so the timed runs carry no counting cost.
//!
//! ```text
//! alloc-count --workload <name> --seed <n>
//! ```
//!
//! Prints `allocs=<count> events=<count>` as its last line. Building the
//! cluster is not counted on the simulators (it is timed as set-up);
//! the reactor builds and runs inside one call, so both are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use penelope_benchmark::cli;
use penelope_benchmark::workloads::{build_des, cells, run_mux, Cell, DesMode, Scale};
use penelope_sim::ShardedSim;

/// Counts every heap acquisition (alloc, realloc, alloc_zeroed).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed statistic that publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    argv.extend(["--seconds", "1", "--trace", "1"].map(String::from));
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: alloc-count --workload <name> --seed <n>");
            return ExitCode::from(2);
        }
    };
    let cell = cells(args.workload, args.seed, &Scale::FULL).remove(0);
    let (allocs, events) = match cell {
        Cell::Des(c) => {
            let (mut sim, horizon, _) = build_des(&c, &DesMode::Plain);
            let before = ALLOCS.load(Ordering::Relaxed);
            sim.advance_to(horizon);
            let report = sim.finish();
            (ALLOCS.load(Ordering::Relaxed) - before, report.events)
        }
        Cell::Mega(cfg) => {
            let sim = ShardedSim::new(cfg);
            let before = ALLOCS.load(Ordering::Relaxed);
            let report = sim.run();
            (
                ALLOCS.load(Ordering::Relaxed) - before,
                report.executed_events,
            )
        }
        Cell::Mux(cfg) => {
            let before = ALLOCS.load(Ordering::Relaxed);
            let run = run_mux(&cfg);
            let after = ALLOCS.load(Ordering::Relaxed);
            if !run.violations.is_empty() {
                eprintln!("{:?}", run.violations);
                return ExitCode::FAILURE;
            }
            (after - before, run.executed)
        }
    };
    println!("allocs={allocs} events={events}");
    ExitCode::SUCCESS
}
