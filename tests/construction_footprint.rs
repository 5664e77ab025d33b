//! Construction footprint contract: the bytes one simulated paper
//! prototype asks the allocator for while `FlashAbacusSystem::new` builds
//! it.
//!
//! A counting global allocator tallies the bytes requested on the thread
//! that sets its flag (other test-harness threads are not counted):
//! every `alloc`/`alloc_zeroed` size, plus the growth of every `realloc`.
//! Frees are not subtracted, so the figure is what construction requests,
//! not what it keeps. It is the construction-side counterpart of the
//! run-side work counts in `tests/golden/work_counts.txt`.
//!
//! The bound is 11.0 MiB. The per-system state that dominates it (die
//! page bitmaps, the 4-byte mapping and reverse tables, the 16-bit group
//! counters) is tabled in `docs/ARCHITECTURE.md` under "Memory layout &
//! hot-path budget".

use flashabacus_suite::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// True while the current thread's requests are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Bytes requested by the current thread while counting.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
    if counting {
        let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s. `note` only touches thread-locals with const
// initialisers and no destructor, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; both are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes requested on this thread while `f` runs, and its result.
fn requested_by<T>(f: impl FnOnce() -> T) -> (u64, T) {
    REQUESTED.with(|r| r.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (REQUESTED.with(Cell::get), out)
}

const MIB: f64 = 1024.0 * 1024.0;
const BOUND_BYTES: u64 = 11 * 1024 * 1024;

#[test]
fn paper_prototype_construction_requests_at_most_11_0_mib() {
    for policy in SchedulerPolicy::all() {
        let config = FlashAbacusConfig::paper_prototype(policy);
        let (bytes, system) = requested_by(|| FlashAbacusSystem::new(config));
        drop(system);
        println!(
            "FlashAbacusSystem::new(paper_prototype({policy:?})): {bytes} B ({:.2} MiB)",
            bytes as f64 / MIB
        );
        assert!(
            bytes <= BOUND_BYTES,
            "{policy:?}: construction requested {:.2} MiB, bound {:.2} MiB",
            bytes as f64 / MIB,
            BOUND_BYTES as f64 / MIB
        );
    }
}
