//! A counting global allocator for the traced run's `vm.allocs` and
//! `vm.alloc_bytes`.
//!
//! The `segbench` binary installs [`Counting`] as its
//! `#[global_allocator]`. Counting is off until [`CountScope::start`]
//! switches it on, so untimed code and untraced runs pay one relaxed load
//! per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations while enabled. The counters
/// are statistics only: they publish no other data, so `Relaxed` suffices.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counting
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Counts allocations from [`CountScope::start`] to [`CountScope::stop`].
/// Only meaningful on a single thread with the counting allocator
/// installed; otherwise it reads zero.
pub struct CountScope {
    allocs: u64,
    bytes: u64,
}

impl CountScope {
    /// Enables counting and remembers the current totals.
    pub fn start() -> Self {
        ENABLED.store(true, Ordering::Relaxed);
        CountScope { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
    }

    /// Disables counting; returns (allocations, bytes) since `start`.
    pub fn stop(self) -> (u64, u64) {
        ENABLED.store(false, Ordering::Relaxed);
        (ALLOCS.load(Ordering::Relaxed) - self.allocs, BYTES.load(Ordering::Relaxed) - self.bytes)
    }
}
