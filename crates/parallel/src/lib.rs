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
//! * [`par_map_init`] / [`par_for_each_init`]: the same (or in place), with
//!   worker-local state built once per participating thread (scratch
//!   buffers, workspaces).
//!
//! Every run degrades to sequential execution, in task order, when the
//! requested parallelism is 1, there is one task, or the caller is already
//! inside a parallel region, so unit tests remain deterministic and nested
//! parallelism cannot oversubscribe the machine.

mod fork;
mod pool;
mod queue;
mod scope;
pub mod stats;

pub use fork::worker_index;
pub use pool::{Checkout, Pool};
pub use queue::{Pusher, TaskQueue};
pub use scope::{par_for_each_init, par_map, par_map_init};

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Global override for the default parallelism degree (0 = autodetect).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// `GFL_THREADS` environment override, read once (0 = unset/invalid).
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("GFL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// Returns the default degree of parallelism used by the fork-join helpers.
///
/// Resolution order: [`set_default_parallelism`] pin (e.g. the CLI
/// `--threads` flag), then the `GFL_THREADS` environment variable, then
/// [`std::thread::available_parallelism`]. Pinning keeps benchmarks
/// comparable across machines and forces sequential execution in tests.
pub fn default_parallelism() -> usize {
    let forced = DEFAULT_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    let env = env_threads();
    if env > 0 {
        return env;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Pins the default parallelism degree for the whole process.
///
/// `0` restores autodetection.
pub fn set_default_parallelism(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::{Mutex, PoisonError};

    /// Runs `f` with the default parallelism pinned to `threads`, then
    /// restores autodetection. Pinning tests hold one lock, so none sees
    /// another's width.
    pub(crate) fn at_width<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        static PINNED: Mutex<()> = Mutex::new(());
        let _held = PINNED.lock().unwrap_or_else(PoisonError::into_inner);
        set_default_parallelism(threads);
        let out = catch_unwind(AssertUnwindSafe(f));
        set_default_parallelism(0);
        out.unwrap_or_else(|payload| resume_unwind(payload))
    }

    #[test]
    fn default_parallelism_is_positive_and_pinnable() {
        assert!(default_parallelism() >= 1);
        at_width(3, || assert_eq!(default_parallelism(), 3));
        assert!(default_parallelism() >= 1);
    }
}
