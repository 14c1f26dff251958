//! Fork-join helpers over slices: each call is one flat
//! [`crate::TaskQueue`] run whose tasks are the slice's items, seeded in
//! index order into a queue buffer of its own.
//!
//! Participants pop the oldest unclaimed item, so load balances when
//! per-item cost is highly skewed — exactly the situation in federated
//! simulation, where client dataset sizes span an order of magnitude
//! (20–200 samples in the paper's setup). Every task writes only its own
//! slot, so results are in input order whichever participant ran which
//! item, and nested or width-1 calls run inline in index order.

use crate::default_parallelism;
use crate::queue::drain;

/// Applies `f` to every item of `items`, returning outputs in input order.
///
/// Runs on up to [`default_parallelism`] pool participants. `f` must be
/// `Sync` because multiple workers call it concurrently.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_init(items, || (), |(), item| f(item))
}

/// Like [`par_map`], but each participant first builds private state with
/// `init` and threads it through all the items it processes.
///
/// This is the hook for expensive per-worker resources (scratch buffers,
/// workspaces): `init` runs once per participating thread per call, not once
/// per item. Note the state is per-*participant*, so anything observable in
/// the output must not depend on which items shared a state instance.
pub fn par_map_init<T, U, S, I, F>(items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    drain(
        default_parallelism(),
        items.iter().zip(out.spare_capacity_mut()).collect(),
        init,
        |state, (item, slot), _| {
            slot.write(f(state, item));
        },
    );
    // SAFETY: the run returned normally, so it ran every seeded task and
    // each wrote its slot of the first `items.len()`. (A panicking item
    // re-raises before this point and the written outputs leak.)
    unsafe { out.set_len(items.len()) };
    out
}

/// Applies `f` to every element of `items` in place, in parallel, with
/// per-participant state built once per participating thread via `init`.
///
/// Each `&mut T` is one task, so it goes to exactly one participant and
/// skewed per-item cost balances automatically.
///
/// The population build and membership placement fan out through here:
/// `items` are per-unit result slots, `init` builds scratch, and `f` fills
/// one slot.
pub fn par_for_each_init<T, S, I, F>(items: &mut [T], init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    drain(
        default_parallelism(),
        items.iter_mut().enumerate().collect(),
        init,
        |state, (i, item), _| f(state, i, item),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_default_parallelism, TaskQueue};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |&x| x * 2);
        let expected: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_with_every_thread_count_matches_sequential() {
        let items: Vec<i64> = (0..101).map(|i| i * 3 - 50).collect();
        let expected: Vec<i64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 5, 16] {
            set_default_parallelism(threads);
            assert_eq!(par_map(&items, |&x| x * x), expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_init_matches_sequential_and_reuses_state() {
        let items: Vec<u64> = (0..300).collect();
        // State counts how many items this participant processed; the output
        // must not depend on it, but init must have run at least once.
        let out = par_map_init(
            &items,
            || 0u64,
            |count, &x| {
                *count += 1;
                x + 1
            },
        );
        let expected: Vec<u64> = items.iter().map(|&x| x + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_for_each_init_empty_is_noop() {
        let mut items: Vec<u8> = Vec::new();
        par_for_each_init(
            &mut items,
            || panic!("must not build state"),
            |(), _, _| panic!("must not be called"),
        );
    }

    #[test]
    fn par_for_each_init_writes_every_slot() {
        for width in [1, 2, 8] {
            let mut items: Vec<(usize, bool)> = (0..500).map(|i| (i, false)).collect();
            set_default_parallelism(width);
            par_for_each_init(&mut items, Vec::<u8>::new, |scratch, i, slot| {
                scratch.clear();
                scratch.extend_from_slice(&[1, 2, 3]);
                assert_eq!(slot.0, i);
                assert!(!slot.1, "slot {i} visited twice");
                slot.1 = true;
            });
            assert!(items.iter().all(|&(_, seen)| seen), "width {width}");
        }
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items where the first item is vastly more expensive; the queue
        // should still finish (this is a smoke test for deadlock/livelock).
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            if x == 0 {
                (0..50_000u64).sum::<u64>()
            } else {
                x
            }
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[1], 1);
    }

    #[test]
    fn nested_par_map_is_sequential_but_correct() {
        let outer: Vec<u64> = (0..16).collect();
        let out = par_map(&outer, |&x| {
            let inner: Vec<u64> = (0..8).collect();
            par_map(&inner, |&y| x * 100 + y).iter().sum::<u64>()
        });
        let expected: Vec<u64> = outer
            .iter()
            .map(|&x| (0..8).map(|y| x * 100 + y).sum::<u64>())
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn helpers_called_from_a_task_run_inline_in_index_order() {
        let queue = TaskQueue::default();
        queue.run_on(
            4,
            0..4u64,
            || (),
            |(), seed, _| {
                let caller = std::thread::current().id();
                let order = Mutex::new(Vec::new());
                let visit = |i: usize| {
                    assert_eq!(std::thread::current().id(), caller, "ran off the task");
                    order.lock().unwrap().push(i);
                };
                let items: Vec<u64> = (0..16).map(|i| seed * 100 + i).collect();
                let mapped = par_map(&items, |&x| {
                    visit((x - seed * 100) as usize);
                    x + 1
                });
                assert_eq!(mapped, items.iter().map(|&x| x + 1).collect::<Vec<_>>());
                let inited = par_map_init(&items, Vec::<u64>::new, |seen, &x| {
                    visit((x - seed * 100) as usize);
                    seen.push(x);
                    seen.len()
                });
                // One state threaded through every item, in index order.
                assert_eq!(inited, (1..=16).collect::<Vec<usize>>());
                let mut slots = items.clone();
                par_for_each_init(
                    &mut slots,
                    || (),
                    |(), i, slot| {
                        visit(i);
                        *slot += 1;
                    },
                );
                let once: Vec<usize> = (0..16).collect();
                let expected: Vec<usize> = once.iter().chain(&once).chain(&once).copied().collect();
                assert_eq!(order.into_inner().unwrap(), expected, "seed {seed}");
            },
        );
    }

    #[test]
    fn a_panicking_item_re_raises_after_the_run() {
        for width in [1, 2, 8] {
            let visits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            let mut items: Vec<usize> = (0..64).collect();
            set_default_parallelism(width);
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_for_each_init(
                    &mut items,
                    || (),
                    |(), i, _| {
                        visits[i].fetch_add(1, Ordering::Relaxed);
                        if i == 5 {
                            panic!("item 5");
                        }
                    },
                )
            }));
            let payload = result.expect_err("the panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 5"));
            // The run went on past the panic: every item was visited once.
            assert!(
                visits.iter().all(|v| v.load(Ordering::Relaxed) == 1),
                "width {width}"
            );
            assert!(!crate::fork::in_region());
            // The pool stays usable.
            let mut again = vec![0u8; 64];
            par_for_each_init(&mut again, || (), |(), _, s| *s = 1);
            assert!(again.iter().all(|&s| s == 1), "width {width}");
        }
    }
}
