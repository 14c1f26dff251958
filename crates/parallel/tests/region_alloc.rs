//! Entering a pool region allocates nothing once the pool is warm.
//!
//! The one `#[test]` of this binary, on purpose: the allocation counter is
//! process-wide, so a concurrent test (or the harness reporting on it)
//! would allocate inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use gfl_parallel::{set_default_parallelism, TaskQueue};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// After warm-up (worker spawn, the caller's latch, the queue's pooled
/// buffer, the broadcast channel's capacity), 100 `TaskQueue::run` regions
/// at width 2 — each fanned out to a pool worker, which runs a task and
/// pushes another — allocate 0 times.
#[test]
fn warm_regions_allocate_nothing() {
    set_default_parallelism(2);
    let queue = TaskQueue::default();
    let ran = AtomicUsize::new(0);
    let region = || {
        queue.run(
            [0u32, 1],
            || (),
            |(), task, push| {
                ran.fetch_add(1, Ordering::Relaxed);
                if task < 2 {
                    push.push(task + 2);
                }
            },
        );
    };
    for _ in 0..10 {
        region();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..100 {
        region();
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(ran.load(Ordering::Relaxed), 110 * 4);
    assert_eq!(allocs, 0, "100 warm regions allocated {allocs} times");
}
