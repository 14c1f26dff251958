//! Parallelism primitives for the Group-FEL simulator.
//!
//! Algorithm 1 of the paper runs three nested "in parallel" loops: edge
//! servers form groups in parallel, sampled groups train in parallel, and
//! clients inside a group run local SGD in parallel. Each runs on one
//! scheduler, a [`TaskQueue`]: one region of a persistent fork-join pool
//! (channel sends, not thread spawns) whose participants pop the oldest
//! queued task; a task may push the tasks it releases, and uneven work
//! balances itself. Over slices, the helpers are flat runs, a task an item:
//!
//! * [`par_map`]: one output per item, in input order.
//! * [`par_for_each_init`]: every item in place, with worker-local state
//!   built once per participating thread (scratch buffers, workspaces).
//!
//! Every run degrades to sequential execution, in task order, when the
//! requested parallelism is 1, there is one task, or the caller is already
//! inside a parallel region, so unit tests remain deterministic and nested
//! parallelism cannot oversubscribe the machine.
//!
//! The width a run asks for and the SIMD tier its kernels dispatch to are
//! settings of the calling thread, not of the process: a region copies
//! them to its participants for its duration, and the pool counters
//! ([`stats`]) it produces are added back to the caller's. Two runs on two
//! threads share the one pool and nothing else.

mod fork;
mod pool;
mod queue;
mod scope;
pub mod stats;

pub use fork::{worker_index, SIMD_TIER};
pub use pool::{Checkout, Pool};
pub use queue::{Pusher, TaskQueue};
pub use scope::{par_for_each_init, par_map};

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// [`std::thread::available_parallelism`], asked once: std does not cache
/// it, and each call redoes its affinity and cgroup-quota lookups (tens of
/// microseconds, against nanoseconds for a pinned width).
static DETECTED_THREADS: OnceLock<usize> = OnceLock::new();

/// Returns the default degree of parallelism used by the fork-join helpers.
///
/// Resolution order: the calling thread's [`set_default_parallelism`] pin
/// (e.g. the CLI `--threads` flag; a region's participants inherit their
/// caller's), then [`std::thread::available_parallelism`] as it read on the
/// first unpinned call. Pinning keeps benchmarks comparable across machines
/// and forces sequential execution in tests.
pub fn default_parallelism() -> usize {
    let pinned = fork::WIDTH.get();
    if pinned > 0 {
        return pinned;
    }
    *DETECTED_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Pins the default parallelism degree of the calling thread, and so of
/// every region it opens. Other threads keep their own.
///
/// `0` restores autodetection.
pub fn set_default_parallelism(threads: usize) {
    fork::WIDTH.set(threads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex};

    #[test]
    fn default_parallelism_is_positive_and_pinnable() {
        assert!(default_parallelism() >= 1);
        set_default_parallelism(3);
        assert_eq!(default_parallelism(), 3);
        set_default_parallelism(0);
        assert!(default_parallelism() >= 1);
    }

    #[test]
    fn an_unpinned_width_is_the_detected_one_every_call() {
        // This test's thread pins nothing.
        let want = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        for _ in 0..3 {
            assert_eq!(default_parallelism(), want);
        }
    }

    /// Two threads pin different widths and tiers, meet, then each runs a
    /// queue at once: every task, on whichever participant, sees its own
    /// caller's settings, and each caller's counters hold exactly its own
    /// claims. On the wide side the first two tasks wait for each other,
    /// so a helper runs at least one.
    #[test]
    fn a_region_carries_its_callers_settings_and_reports_back_to_it() {
        const TASKS: u32 = 64;
        let meet = Barrier::new(2);
        let side = |width: usize, tier: u8| {
            set_default_parallelism(width);
            SIMD_TIER.set(Some(tier));
            meet.wait();
            let caller = std::thread::current().id();
            let seen = Mutex::new(Vec::new());
            let first_two = Barrier::new(2);
            let before = stats::snapshot();
            TaskQueue::default().run(
                0..TASKS,
                || (),
                |(), task, _| {
                    if width > 1 && task < 2 {
                        first_two.wait();
                    }
                    let here = std::thread::current().id() != caller;
                    seen.lock()
                        .unwrap()
                        .push((default_parallelism(), SIMD_TIER.get(), here));
                },
            );
            let delta = stats::snapshot().since(before);
            meet.wait();
            (seen.into_inner().unwrap(), delta)
        };
        let (narrow, wide) = std::thread::scope(|s| {
            let narrow = s.spawn(|| side(1, 0));
            let wide = s.spawn(|| side(8, 3));
            (narrow.join().unwrap(), wide.join().unwrap())
        });
        for ((seen, delta), width, tier) in [(narrow, 1, 0), (wide, 8, 3)] {
            assert_eq!(seen.len(), TASKS as usize);
            assert!(
                seen.iter().all(|&(w, t, _)| (w, t) == (width, Some(tier))),
                "width {width}: {seen:?}"
            );
            assert_eq!(delta.claims, u64::from(TASKS), "width {width}: {delta:?}");
            assert_eq!(delta.regions, u64::from(width > 1), "width {width}");
            let off_caller = seen.iter().any(|&(.., here)| here);
            assert_eq!(off_caller, width > 1, "width {width}: helpers ran tasks");
        }
    }
}
