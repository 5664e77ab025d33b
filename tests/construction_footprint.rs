//! Construction footprint contract: the bytes one simulated paper
//! prototype asks the allocator for while `FlashAbacusSystem::new` builds
//! it.
//!
//! A counting global allocator tallies the bytes requested on the thread
//! that sets its flag (other test-harness threads are not counted):
//! every `alloc`/`alloc_zeroed` size, plus the growth of every `realloc`,
//! and apart from that total the `alloc_zeroed` bytes. Frees are not
//! subtracted, so the figures are what construction requests, not what it
//! keeps. They are the construction-side counterpart of the run-side work
//! counts in `tests/golden/work_counts.txt`.
//!
//! Requested bytes are bounded at 7.0 MiB. The per-system state that
//! dominates them (die page bitmaps, the 4-byte mapping and reverse
//! tables, one 16-bit programmed-page counter per group, the one-byte
//! group states; the overwrite table waits for the first overwrite) is
//! tabled in `docs/ARCHITECTURE.md` under "Per-system state at the paper
//! prototype".
//!
//! Zeroed bytes are bounded at 2.25 MiB (2.15 MiB measured). Zeroed memory
//! costs construction time in proportion to its size once glibc serves it
//! from recycled heap, which it must clear. The mapping and reverse tables
//! are reserved with a plain allocation and written only up to the highest
//! entry a run touches (`fa_sim::table::LazyTable`), so they are no longer
//! among the zeroed bytes (6.15 MiB before).

use flashabacus_suite::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// True while the current thread's requests are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Bytes requested by the current thread while counting.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    /// The part of `REQUESTED` asked for through `alloc_zeroed`.
    static ZEROED: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize, zeroed: bool) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
    if counting {
        let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes as u64));
        if zeroed {
            let _ = ZEROED.try_with(|z| z.set(z.get() + bytes as u64));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s. `note` only touches thread-locals with const
// initialisers and no destructor, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), false);
        // SAFETY: the caller's `layout` is passed through (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), true);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()), false);
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

/// Bytes requested on this thread while `f` runs.
struct Requested {
    /// Every byte requested, zeroed or not.
    total: u64,
    /// The bytes requested through `alloc_zeroed`.
    zeroed: u64,
}

/// Bytes requested on this thread while `f` runs, and its result.
fn requested_by<T>(f: impl FnOnce() -> T) -> (Requested, T) {
    REQUESTED.with(|r| r.set(0));
    ZEROED.with(|z| z.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let requested = Requested {
        total: REQUESTED.with(Cell::get),
        zeroed: ZEROED.with(Cell::get),
    };
    (requested, out)
}

const MIB: f64 = 1024.0 * 1024.0;
const BOUND_BYTES: u64 = 7 * 1024 * 1024;
const ZEROED_BOUND_BYTES: u64 = 9 * 1024 * 1024 / 4;

/// What building one paper prototype per scheduler requests.
fn prototype_footprints() -> Vec<(SchedulerPolicy, Requested)> {
    SchedulerPolicy::all()
        .into_iter()
        .map(|policy| {
            let config = FlashAbacusConfig::paper_prototype(policy);
            let (requested, system) = requested_by(|| FlashAbacusSystem::new(config));
            drop(system);
            let Requested { total, zeroed } = requested;
            println!(
                "FlashAbacusSystem::new(paper_prototype({policy:?})): {total} B ({:.2} MiB), \
                 {zeroed} B ({:.2} MiB) of it zeroed",
                total as f64 / MIB,
                zeroed as f64 / MIB
            );
            (policy, requested)
        })
        .collect()
}

#[test]
fn paper_prototype_construction_requests_at_most_7_0_mib() {
    for (policy, Requested { total: bytes, .. }) in prototype_footprints() {
        assert!(
            bytes <= BOUND_BYTES,
            "{policy:?}: construction requested {:.2} MiB, bound {:.2} MiB",
            bytes as f64 / MIB,
            BOUND_BYTES as f64 / MIB
        );
    }
}

#[test]
fn paper_prototype_construction_zeroes_at_most_2_25_mib() {
    for (policy, Requested { zeroed, .. }) in prototype_footprints() {
        assert!(
            zeroed <= ZEROED_BOUND_BYTES,
            "{policy:?}: construction asked for {:.2} MiB zeroed, bound {:.2} MiB",
            zeroed as f64 / MIB,
            ZEROED_BOUND_BYTES as f64 / MIB
        );
    }
}
