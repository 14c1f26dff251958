//! The counting global allocator.
//!
//! `gfl-obs` does not install an allocator itself. A binary that counts
//! allocations installs [`Counting`], and the engine's per-round metrics
//! read its counter through [`current_allocs`]:
//!
//! ```
//! #[global_allocator]
//! static GLOBAL: gfl_obs::alloc::Counting = gfl_obs::alloc::Counting;
//!
//! fn main() {
//!     let before = gfl_obs::alloc::current_allocs();
//!     let v = std::hint::black_box(Vec::<u8>::with_capacity(16));
//!     assert!(gfl_obs::alloc::current_allocs() > before);
//!     drop(v);
//! }
//! ```
//!
//! In a binary without it, [`current_allocs`] stays 0 and per-round
//! `allocs` deltas are all zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator, counting every allocation and reallocation and
/// tracking the live heap bytes and their high-water mark. The counters are
/// process-wide: a measured window sees every thread's allocations.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counters beside it allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations and reallocations so far (0 unless [`Counting`] is the
/// global allocator).
pub fn current_allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f`, returning its result and the heap high-water mark it added
/// over the bytes live when it started. Resets the process-wide mark, so
/// two windows must not overlap.
pub fn peak_added<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = f();
    (result, PEAK.load(Ordering::Relaxed).saturating_sub(before))
}
