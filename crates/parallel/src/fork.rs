//! A persistent fork-join pool for borrowed parallel regions, the ground
//! under [`crate::TaskQueue`].
//!
//! Spawning fresh OS threads per region would cost thousands of spawn/join
//! cycles per simulation run. This module keeps one process-wide set of
//! workers alive and broadcasts the region body to them, so entering a
//! region costs a few channel sends and a latch wait instead of thread
//! creation.
//!
//! # Safety model
//!
//! The region body borrows the caller's stack (`&(dyn Fn(usize) + Sync)`),
//! but long-lived workers require `'static` jobs. [`region`] erases the
//! lifetime with a raw pointer and restores soundness structurally: it never
//! returns — not even by unwinding — until every broadcast job has finished
//! executing, which the completion latch guarantees (worker panics are caught
//! so they still count down).
//!
//! # Nesting
//!
//! Each thread tracks whether it is already executing inside a region via a
//! thread-local flag. Nested [`region`] calls run the body sequentially on
//! the current thread, so inner parallelism (e.g. `Network::evaluate` called
//! from a client-training task) cannot oversubscribe the machine.
//!
//! Each job carries its caller's width pin and SIMD tier for the worker to
//! run under, and what the worker counts while serving it goes back on the
//! region's latch to the caller's pool counters.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::stats::PoolStats;

thread_local! {
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
    /// This thread's width pin (0 = none), or on a worker that of the
    /// region it serves.
    pub(crate) static WIDTH: Cell<usize> = const { Cell::new(0) };
    /// The calling thread's SIMD tier in `gfl_tensor::simd`'s encoding
    /// (`None` = the process default), or on a worker that of the region it
    /// serves. It lives beside the width because a region copies both.
    pub static SIMD_TIER: Cell<Option<u8>> = const { Cell::new(None) };
    /// The completion latch of every region this thread calls, leaked once
    /// per calling thread and reset at each region's start, so entering a
    /// region allocates nothing. A thread is in at most one region it
    /// called at a time, and a region returns only once its latch is zero.
    static LATCH: &'static Latch = Box::leak(Box::default());
}

/// Returns the stable pool index of the current thread when it is a
/// fork-pool worker (`Some(0..MAX_WORKERS)`), or `None` on any other thread
/// (including region callers, who participate as index 0 of the *region*
/// but are not pool workers).
///
/// Consumers can use this as a cheap, contention-free shard key: workers
/// keep their index for the life of the process.
pub fn worker_index() -> Option<usize> {
    WORKER_INDEX.with(Cell::get)
}

/// Returns true when the current thread is already executing inside a
/// parallel region (as the caller or as a pool worker), where [`region`]
/// runs inline.
pub(crate) fn in_region() -> bool {
    IN_REGION.with(Cell::get)
}

/// RAII guard that marks the current thread as inside a region.
struct RegionGuard {
    prev: bool,
}

impl RegionGuard {
    fn enter() -> Self {
        let prev = IN_REGION.with(|c| c.replace(true));
        Self { prev }
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_REGION.with(|c| c.set(prev));
    }
}

/// Completion latch counting outstanding broadcast jobs of one region,
/// and summing the pool counters they tallied.
#[derive(Default)]
struct Latch {
    state: Mutex<(usize, PoolStats)>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    /// Arms the latch for a region of `jobs` broadcast jobs. The previous
    /// region's last `count_down` released the lock before its `wait`
    /// returned, so no job of it touches the latch any more.
    fn reset(&self, jobs: usize) {
        *self.state.lock() = (jobs, PoolStats::default());
        self.panicked.store(false, Ordering::SeqCst);
    }

    fn count_down(&self, tally: PoolStats) {
        let mut state = self.state.lock();
        state.0 -= 1;
        state.1.add(tally);
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Returns once every job has counted down, with their summed tallies.
    fn wait(&self) -> PoolStats {
        let mut state = self.state.lock();
        while state.0 > 0 {
            self.done.wait(&mut state);
        }
        state.1
    }
}

/// Lifetime-erased pointer to a region body living on the caller's stack.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine) and
// `region` keeps it alive until the latch confirms all workers are done.
unsafe impl Send for TaskPtr {}

struct Job {
    task: TaskPtr,
    participant: usize,
    latch: &'static Latch,
    pin: (usize, Option<u8>),
}

struct ForkPool {
    tx: Sender<Job>,
    rx: Receiver<Job>,
    spawned: Mutex<usize>,
}

/// Hard cap on pool size; far above any sane `--threads` request, it only
/// bounds damage from a misconfigured environment.
const MAX_WORKERS: usize = 256;

static POOL: OnceLock<ForkPool> = OnceLock::new();

fn pool() -> &'static ForkPool {
    POOL.get_or_init(|| {
        let (tx, rx) = unbounded();
        ForkPool {
            tx,
            rx,
            spawned: Mutex::new(0),
        }
    })
}

impl ForkPool {
    /// Lazily grows the pool until at least `needed` workers exist.
    fn ensure_workers(&'static self, needed: usize) {
        let needed = needed.min(MAX_WORKERS);
        let mut spawned = self.spawned.lock();
        while *spawned < needed {
            let id = *spawned;
            let rx = self.rx.clone();
            std::thread::Builder::new()
                .name(format!("gfl-fork-{id}"))
                .spawn(move || {
                    WORKER_INDEX.with(|c| c.set(Some(id)));
                    worker_loop(rx)
                })
                .expect("failed to spawn fork-pool worker");
            *spawned += 1;
        }
    }
}

fn worker_loop(rx: Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        let _guard = RegionGuard::enter();
        WIDTH.set(job.pin.0);
        SIMD_TIER.set(job.pin.1);
        // SAFETY: `region` waits on the latch before returning, so the
        // pointee outlives this call; we count down only after it finishes.
        let body = unsafe { &*job.task.0 };
        if catch_unwind(AssertUnwindSafe(|| body(job.participant))).is_err() {
            job.latch.panicked.store(true, Ordering::SeqCst);
        }
        // A worker counts only while serving, so this is the job's tally.
        job.latch.count_down(crate::stats::take());
    }
}

/// Runs `body(participant)` on `width` participants in parallel: the calling
/// thread is participant 0 and pool workers take 1..`width`. Returns once
/// every participant has finished.
///
/// Participants coordinate work among themselves (through a
/// [`crate::TaskQueue`]'s shared queue, which also records their busy
/// time). `width <= 1` and nested calls (from inside another region)
/// degrade to `body(0)` on the current thread.
///
/// Panics in any participant are propagated to the caller after all
/// participants have stopped.
pub(crate) fn region(width: usize, body: &(dyn Fn(usize) + Sync)) {
    if width <= 1 || in_region() {
        let _guard = RegionGuard::enter();
        body(0);
        return;
    }

    let pool = pool();
    let helpers = width - 1;
    pool.ensure_workers(helpers);
    let latch = LATCH.with(|latch| *latch);
    latch.reset(helpers);
    let pin = (WIDTH.get(), SIMD_TIER.get());
    let region_started = std::time::Instant::now();

    // SAFETY: erases the borrow's lifetime. Sound because every path out of
    // this function first waits on `latch`, which counts down exactly once
    // per broadcast job after the pointee call (even on worker panic).
    let task = TaskPtr(unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
    });
    for participant in 1..width {
        pool.tx
            .send(Job {
                task,
                participant,
                latch,
                pin,
            })
            .expect("fork-pool workers exited");
    }

    let caller = {
        let _guard = RegionGuard::enter();
        catch_unwind(AssertUnwindSafe(|| body(0)))
    };
    // Must not unwind past here before the workers are done with `body`.
    let mut tally = latch.wait();
    tally.regions += 1;
    tally.capacity_ns += region_started.elapsed().as_nanos() as u64 * width as u64;
    crate::stats::record(tally);
    if let Err(payload) = caller {
        resume_unwind(payload);
    }
    if latch.panicked.load(Ordering::SeqCst) {
        panic!("parallel region worker panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn region_runs_every_participant_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        region(6, &|p| {
            hits[p].fetch_add(1, Ordering::SeqCst);
        });
        for (p, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::SeqCst), 1, "participant {p}");
        }
    }

    #[test]
    fn width_one_runs_inline() {
        let caller = std::thread::current().id();
        region(1, &|p| {
            assert_eq!(p, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn nested_region_degrades_to_sequential() {
        let inner_widths = Mutex::new(Vec::new());
        region(4, &|_| {
            assert!(in_region());
            region(4, &|p| {
                inner_widths.lock().push(p);
            });
        });
        // Every nested call ran exactly its participant 0, inline.
        let widths = inner_widths.lock();
        assert_eq!(widths.len(), 4);
        assert!(widths.iter().all(|&p| p == 0));
        assert!(!in_region());
    }

    #[test]
    fn regions_are_reusable_back_to_back() {
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            region(4, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 400);
    }

    #[test]
    fn worker_panic_propagates_after_join() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            region(4, &|p| {
                if p == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        assert!(!in_region());
        // The pool must still be usable afterwards.
        let total = AtomicUsize::new(0);
        region(4, &|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn worker_index_is_stable_per_worker_and_none_on_the_caller() {
        let seen = Mutex::new(Vec::new());
        region(4, &|p| {
            let idx = worker_index();
            if p == 0 {
                // The calling thread is a region participant, not a pool
                // worker — unless this test thread happens to *be* a pool
                // worker, which it is not.
                assert_eq!(idx, None);
            } else {
                let idx = idx.expect("pool workers must report an index");
                assert!(idx < MAX_WORKERS);
                seen.lock().push(idx);
            }
        });
        // All three helper jobs ran on pool workers (a fast worker may
        // take more than one job, so distinct indices are 1..=3).
        let mut indices = seen.lock().clone();
        assert_eq!(indices.len(), 3);
        indices.sort_unstable();
        indices.dedup();
        assert!((1..=3).contains(&indices.len()));
    }

    #[test]
    fn caller_panic_propagates_after_join() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            region(3, &|p| {
                if p == 0 {
                    panic!("caller boom");
                }
            });
        }));
        assert!(result.is_err());
        assert!(!in_region());
    }
}
