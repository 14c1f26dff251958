//! A task queue run as one pool region: a task graph whose tasks may push
//! further tasks.
//!
//! It is the one scheduler of the crate. The slice helpers
//! ([`crate::par_map_init`], [`crate::par_for_each_init`]) are flat runs
//! whose tasks push nothing. A computation whose later units become
//! runnable only as earlier ones finish (a chain of rounds, each closed by
//! a reduction) pushes them as it goes instead of opening one region per
//! stage and waiting at each barrier: every participant pops the oldest
//! queued task, runs it, and the tasks it pushes join the back of the
//! queue. The call returns once the queue is empty and no task is in
//! flight.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::fork::{in_region, region};
use crate::stats::PoolStats;
use crate::{default_parallelism, Pool};

/// A typed task queue. It keeps nothing between runs but its pooled queue
/// buffer, so a warm one-thread run allocates nothing.
#[derive(Debug)]
pub struct TaskQueue<T> {
    buffers: Pool<VecDeque<T>>,
}

impl<T> Default for TaskQueue<T> {
    fn default() -> Self {
        Self {
            buffers: Pool::default(),
        }
    }
}

/// The handle a running task pushes further tasks through.
pub struct Pusher<'q, T>(&'q Shared<T>);

impl<T> Pusher<'_, T> {
    /// Queues one task.
    pub fn push(&self, task: T) {
        self.extend([task]);
    }

    /// Queues every task of `tasks`, in order, under one lock.
    pub fn extend(&self, tasks: impl IntoIterator<Item = T>) {
        let mut state = self.0.lock();
        let before = state.queue.len();
        state.queue.extend(tasks);
        let added = state.queue.len() - before;
        // Wake only sleepers there is work for; a notify with no waiter
        // still costs a system call.
        for _ in 0..added.min(state.sleepers) {
            self.0.ready.notify_one();
        }
    }
}

struct State<T> {
    queue: VecDeque<T>,
    /// Tasks popped and not yet finished: while any runs, it may push more.
    in_flight: usize,
    /// Participants blocked on `ready`.
    sleepers: usize,
    /// The first task panic, re-raised once the queue has drained.
    panic: Option<Box<dyn Any + Send>>,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Shared<T> {
    /// The lock is never held while a task runs, so no panic can poison it.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Send> TaskQueue<T> {
    /// Runs `seed` and every task they push, on up to
    /// [`default_parallelism`] participants of one region, each with state
    /// built by `init` before its first task. A task gets that state,
    /// itself and a [`Pusher`]. Participants with nothing to pop block
    /// until a task is pushed or the last one in flight finishes.
    ///
    /// At width 1, or when called from inside a region, the tasks run
    /// inline in push order. A panicking task does not stop the others:
    /// the first panic is re-raised after the queue has drained.
    pub fn run<S, I, F>(&self, seed: impl IntoIterator<Item = T>, init: I, task: F)
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, T, &Pusher<'_, T>) + Sync,
    {
        self.run_on(default_parallelism(), seed, init, task);
    }

    /// [`TaskQueue::run`] on at most `threads` participants.
    pub(crate) fn run_on<S, I, F>(
        &self,
        threads: usize,
        seed: impl IntoIterator<Item = T>,
        init: I,
        task: F,
    ) where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, T, &Pusher<'_, T>) + Sync,
    {
        let mut queue = self.buffers.take(VecDeque::new);
        queue.clear();
        queue.extend(seed);
        self.buffers.put(drain(threads, queue, init, task));
    }
}

/// Runs the tasks of `queue` and every task they push, as
/// [`TaskQueue::run`] does, on at most `threads` participants and never on
/// more than there are queued tasks. Returns the emptied buffer; the slice
/// helpers, which build theirs per call, drop it.
pub(crate) fn drain<T, S, I, F>(threads: usize, queue: VecDeque<T>, init: I, task: F) -> VecDeque<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T, &Pusher<'_, T>) + Sync,
{
    if queue.is_empty() {
        return queue;
    }
    let width = threads.clamp(1, queue.len());
    let shared = Shared {
        state: Mutex::new(State {
            queue,
            in_flight: 0,
            sleepers: 0,
            panic: None,
        }),
        ready: Condvar::new(),
    };
    // An inline run's time is its caller's: only a fanned-out region has
    // capacity to be busy against.
    let fanned = width > 1 && !in_region();
    region(width, &|participant| {
        let started = fanned.then(Instant::now);
        let mut parked = Duration::ZERO;
        let pusher = Pusher(&shared);
        // Built at the first pop: a participant that finds nothing to run
        // holds no state while it waits.
        let mut local = None;
        let mut ran = 0u64;
        let mut state = shared.lock();
        loop {
            if let Some(next) = state.queue.pop_front() {
                state.in_flight += 1;
                drop(state);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    task(local.get_or_insert_with(&init), next, &pusher)
                }));
                ran += 1;
                state = shared.lock();
                state.in_flight -= 1;
                if let Err(payload) = outcome {
                    state.panic.get_or_insert(payload);
                }
            } else if state.in_flight == 0 {
                // Drained: wake the sleepers so they see it too.
                if state.sleepers > 0 {
                    shared.ready.notify_all();
                }
                break;
            } else {
                state.sleepers += 1;
                let park = Instant::now();
                state = shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                parked += park.elapsed();
                state.sleepers -= 1;
            }
        }
        drop(state);
        crate::stats::record(PoolStats {
            claims: ran,
            steals: if participant == 0 { 0 } else { ran },
            busy_ns: started.map_or(0, |t| t.elapsed().saturating_sub(parked).as_nanos() as u64),
            ..PoolStats::default()
        });
    });
    let State { queue, panic, .. } = shared
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    queue
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_seeded_and_pushed_task_runs_exactly_once() {
        let queue = TaskQueue::default();
        for width in [1, 2, 8] {
            // Task ids: seeds 0..4 each push a tree of 127; every id is
            // unique.
            let runs: Vec<AtomicUsize> = (0..4 * 128).map(|_| AtomicUsize::new(0)).collect();
            queue.run_on(
                width,
                (0..4).map(|s| (s * 128, 6u32)),
                || (),
                |(), (id, depth): (usize, u32), push| {
                    runs[id].fetch_add(1, Ordering::Relaxed);
                    if depth > 0 {
                        // Children of a node at `id` with `depth` levels
                        // below it, numbered as in a complete binary tree.
                        push.push((id + 1, depth - 1));
                        push.push((id + (1 << depth), depth - 1));
                    }
                },
            );
            let ran: usize = runs.iter().map(|r| r.load(Ordering::Relaxed)).sum();
            assert_eq!(ran, 4 * 127, "width {width}");
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) <= 1),
                "width {width}: a task ran twice"
            );
        }
    }

    #[test]
    fn a_push_chain_longer_than_the_width_completes() {
        // Eight seeds, each a chain of 500 links where only the running
        // link's push makes the next one runnable: participants sleep and
        // wake all the way down.
        let queue = TaskQueue::default();
        for width in [2, 8] {
            let done = AtomicUsize::new(0);
            queue.run_on(
                width,
                (0..8).map(|c| (c, 0usize)),
                || (),
                |(), (chain, link), push| {
                    if link + 1 < 500 {
                        push.push((chain, link + 1));
                    } else {
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                },
            );
            assert_eq!(done.load(Ordering::Relaxed), 8, "width {width}");
        }
    }

    #[test]
    fn a_panicking_task_propagates_after_the_queue_drains() {
        let queue = TaskQueue::default();
        for width in [1, 2, 8] {
            let ran = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                queue.run_on(
                    width,
                    0..64usize,
                    || (),
                    |(), i, push| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        if i == 3 {
                            panic!("task 3");
                        }
                        if i < 64 {
                            push.push(i + 64);
                        }
                    },
                );
            }));
            let payload = result.expect_err("the panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 3"));
            // Every task but the panicking one's push still ran.
            assert_eq!(ran.load(Ordering::Relaxed), 127, "width {width}");
            assert!(!in_region());
        }
        // The pool (and the queue) stay usable.
        let total = AtomicUsize::new(0);
        queue.run_on(
            4,
            0..16usize,
            || (),
            |(), i, _| {
                total.fetch_add(i, Ordering::Relaxed);
            },
        );
        assert_eq!(total.load(Ordering::Relaxed), (0..16).sum());
    }

    #[test]
    fn width_one_and_nested_runs_are_inline_in_push_order() {
        fn order_of(queue: &TaskQueue<u32>, width: usize) -> Vec<u32> {
            let caller = std::thread::current().id();
            let order = Mutex::new(Vec::new());
            queue.run_on(
                width,
                [1, 2, 3],
                || (),
                |(), n, push| {
                    assert_eq!(std::thread::current().id(), caller, "ran off the caller");
                    order.lock().unwrap().push(n);
                    if n < 10 {
                        push.extend([n * 10, n * 10 + 1]);
                    }
                },
            );
            order.into_inner().unwrap()
        }
        let fifo = vec![1, 2, 3, 10, 11, 20, 21, 30, 31];
        let queue = TaskQueue::default();
        assert_eq!(order_of(&queue, 1), fifo);
        region(4, &|_| assert_eq!(order_of(&queue, 4), fifo));
    }

    #[test]
    fn a_panicking_init_propagates_after_the_queue_drains() {
        // State is built at a participant's first pop, inside the task's
        // unwind guard: a panic there must not leave the task in flight.
        let queue = TaskQueue::default();
        for width in [1, 2, 8] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                queue.run_on(width, 0..16u32, || -> u32 { panic!("init") }, |_, _, _| {});
            }));
            let payload = result.expect_err("the panic must propagate");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"init"),
                "width {width}"
            );
        }
    }

    #[test]
    fn an_empty_seed_returns_at_once() {
        let queue: TaskQueue<u8> = TaskQueue::default();
        queue.run_on(
            4,
            [],
            || panic!("no state is built"),
            |(), _, _| panic!("no task runs"),
        );
    }

    #[test]
    fn a_warm_run_reuses_the_queue_buffer() {
        let queue = TaskQueue::default();
        queue.run_on(1, 0..100u32, || (), |(), _, _| {});
        let warm = queue.buffers.take(VecDeque::new);
        assert!(warm.capacity() >= 100, "the buffer went back to the pool");
        queue.buffers.put(warm);
    }

    #[test]
    fn a_fanned_out_run_is_one_region() {
        let queue = TaskQueue::default();
        let before = crate::stats::snapshot();
        queue.run_on(
            2,
            0..4u32,
            || (),
            |(), n, push| {
                if n < 200 {
                    push.push(n + 4);
                }
            },
        );
        let delta = crate::stats::snapshot().since(before);
        assert_eq!(delta.regions, 1);
        assert_eq!(delta.claims, 204);
    }
}
