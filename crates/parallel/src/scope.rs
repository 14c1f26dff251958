//! Fork-join helpers over slices, running on the persistent pool in
//! [`crate::fork`].
//!
//! Scheduling is atomic index stealing: participants repeatedly claim the
//! next unprocessed index from a shared counter. This keeps load balanced
//! when per-item cost is highly skewed — exactly the situation in federated
//! simulation, where client dataset sizes span an order of magnitude
//! (20–200 samples in the paper's setup).
//!
//! Outputs are written into fixed per-index slots, so results are always in
//! input order regardless of which participant processed which item.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::default_parallelism;
use crate::fork::region;

/// Shared raw pointer used to hand out disjoint element writes to
/// participants. Each index is claimed exactly once through an atomic
/// cursor, so no two threads ever touch the same element.
struct SendPtr<T>(*mut T);

// SAFETY: access is partitioned by the unique-claim protocol described above.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

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
    map_on(items, default_parallelism(), || (), |(), item| f(item))
}

/// [`par_map`] with an explicit thread count, for tests that must stay off
/// the process-global default.
#[cfg(test)]
pub(crate) fn par_map_with<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_on(items, threads, || (), |(), item| f(item))
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
    map_on(items, default_parallelism(), init, f)
}

/// The one map body: [`par_map_init`] on up to `threads` participants.
fn map_on<T, U, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, len);
    if threads == 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    let mut out: Vec<U> = Vec::with_capacity(len);
    let out_ptr = SendPtr(out.as_mut_ptr());
    let cursor = AtomicUsize::new(0);
    region(threads, |participant| {
        let out_ptr = &out_ptr;
        let mut state = init();
        let mut claimed = 0u64;
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            claimed += 1;
            // SAFETY: slot `i` belongs to this claim alone, and the buffer
            // has capacity `len`.
            unsafe { out_ptr.0.add(i).write(f(&mut state, &items[i])) };
        }
        crate::stats::record_claims(claimed, participant != 0);
    });
    // SAFETY: the cursor handed out every index in 0..len exactly once and
    // `region` returned normally, so all slots are initialized. (If a worker
    // panics, `region` unwinds before this point and the written elements
    // leak — safe, and acceptable on the panic path.)
    unsafe { out.set_len(len) };
    out
}

/// Applies `f` to every element of `items` in place, in parallel, with
/// per-participant state built once per participating thread via `init`.
///
/// Indices are claimed one at a time through an atomic cursor, so each
/// `&mut T` is handed to exactly one participant and skewed per-item cost
/// balances automatically.
///
/// This is the engine's client-training workhorse: `items` are per-client
/// result slots, `init` borrows a pooled scratch buffer, and `f` runs one
/// client's local SGD into its slot.
pub fn par_for_each_init<T, S, I, F>(items: &mut [T], init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    let len = items.len();
    if len == 0 {
        return;
    }
    let threads = default_parallelism().clamp(1, len);
    if threads == 1 {
        let mut state = init();
        for (i, item) in items.iter_mut().enumerate() {
            f(&mut state, i, item);
        }
        return;
    }
    let base = SendPtr(items.as_mut_ptr());
    let cursor = AtomicUsize::new(0);
    region(threads, |participant| {
        let base = &base;
        let mut state = init();
        let mut claimed = 0u64;
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            claimed += 1;
            // SAFETY: index `i` is claimed exactly once, so this is the only
            // live `&mut` to the element.
            let item = unsafe { &mut *base.0.add(i) };
            f(&mut state, i, item);
        }
        crate::stats::record_claims(claimed, participant != 0);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(
                par_map_with(&items, threads, |&x| x * x),
                expected,
                "threads={threads}"
            );
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
        let mut items: Vec<(usize, bool)> = (0..500).map(|i| (i, false)).collect();
        par_for_each_init(&mut items, Vec::<u8>::new, |scratch, i, slot| {
            scratch.clear();
            scratch.extend_from_slice(&[1, 2, 3]);
            assert_eq!(slot.0, i);
            assert!(!slot.1, "slot {i} visited twice");
            slot.1 = true;
        });
        assert!(items.iter().all(|&(_, seen)| seen));
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items where the first item is vastly more expensive; index stealing
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
}
