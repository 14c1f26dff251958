//! Deterministic discrete-event scheduling for the semi-async runtime.
//!
//! The semi-async engine path (ROADMAP item 2; HierFAVG, Liu et al.
//! 1905.06641) replaces the lockstep round barrier with events on an
//! emulated clock: client reports, group-round closes, and edge→cloud
//! arrivals are all timed by the [`crate::cost`] / [`crate::comm`] models
//! and popped in time order. Determinism is non-negotiable, so the queue
//! never consults the wall clock or an RNG:
//!
//! * time is an `f64` ordered via `total_cmp` (every value the cost model
//!   produces is finite; `total_cmp` makes even pathological inputs
//!   totally ordered instead of panicking),
//! * ties are broken by the stable identity triple
//!   `(round, edge-or-group, client)` — two events at the same instant
//!   always pop in the same order, on every thread count and across
//!   checkpoint resume.
//!
//! The queue is a plain binary min-heap over that composite key; payloads
//! are generic so the engine can schedule whatever it likes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Stable identity of an event, used only for tie-breaking at equal time.
/// Fields are ordered most- to least-significant: global round, then the
/// edge or group index, then the client index (0 for non-client events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    pub round: u64,
    pub actor: u64,
    pub client: u64,
}

impl EventId {
    pub fn new(round: usize, actor: usize, client: usize) -> Self {
        Self {
            round: round as u64,
            actor: actor as u64,
            client: client as u64,
        }
    }
}

/// One scheduled event: fires at `time`, identity breaks ties.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<T> {
    pub time: f64,
    pub id: EventId,
    pub payload: T,
}

// BinaryHeap is a max-heap; reverse the comparison to pop earliest-first.
// Equal (time, id) pairs are genuinely interchangeable for scheduling, so
// payloads do not participate in the order.
impl<T> PartialEq for ScheduledEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time) == Ordering::Equal && self.id == other.id
    }
}

impl<T> Eq for ScheduledEvent<T> {}

impl<T> PartialOrd for ScheduledEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for ScheduledEvent<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Deterministic priority queue of timed events.
///
/// `pop` returns events in non-decreasing `time`; events at identical
/// times pop in ascending [`EventId`] order. Scheduling order never
/// affects pop order, so producers may push from any traversal.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<ScheduledEvent<T>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
    }

    /// Schedules `payload` at `time` with the given tie-break identity.
    pub fn push(&mut self, time: f64, id: EventId, payload: T) {
        self.heap.push(ScheduledEvent { time, id, payload });
    }

    /// Removes and returns the earliest event (stable-tie-broken).
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        self.heap.pop()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(round: usize, actor: usize, client: usize) -> EventId {
        EventId::new(round, actor, client)
    }

    /// Pops every pending event, in pop order.
    fn popped<T>(q: &mut EventQueue<T>) -> Vec<ScheduledEvent<T>> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, id(0, 0, 0), "c");
        q.push(1.0, id(0, 0, 1), "a");
        q.push(2.0, id(0, 0, 2), "b");
        let order: Vec<_> = popped(&mut q).iter().map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_break_ties_by_id() {
        let mut q = EventQueue::new();
        // Push in scrambled order; the (round, actor, client) triple must
        // decide, lexicographically.
        q.push(5.0, id(1, 0, 0), "round1");
        q.push(5.0, id(0, 2, 0), "actor2");
        q.push(5.0, id(0, 0, 7), "client7");
        q.push(5.0, id(0, 0, 3), "client3");
        let order: Vec<_> = popped(&mut q).iter().map(|e| e.payload).collect();
        assert_eq!(order, vec!["client3", "client7", "actor2", "round1"]);
    }

    #[test]
    fn insertion_order_never_matters() {
        let events = [
            (2.0, id(0, 1, 0)),
            (2.0, id(0, 0, 5)),
            (1.5, id(3, 0, 0)),
            (2.0, id(0, 0, 2)),
            (0.5, id(9, 9, 9)),
        ];
        // Try several permutations; pop order must be identical.
        let reference: Vec<_> = {
            let mut q = EventQueue::new();
            for (i, &(t, eid)) in events.iter().enumerate() {
                q.push(t, eid, i);
            }
            popped(&mut q).iter().map(|e| (e.time, e.id)).collect()
        };
        for rot in 1..events.len() {
            let mut q = EventQueue::new();
            for (i, &(t, eid)) in events.iter().enumerate().skip(rot) {
                q.push(t, eid, i);
            }
            for (i, &(t, eid)) in events.iter().enumerate().take(rot) {
                q.push(t, eid, i);
            }
            let got: Vec<_> = popped(&mut q).iter().map(|e| (e.time, e.id)).collect();
            assert_eq!(got, reference, "rotation {rot} changed pop order");
        }
    }

    #[test]
    fn pop_takes_the_earliest_and_len_counts_the_rest() {
        let mut q = EventQueue::new();
        assert!(q.is_empty() && q.pop().is_none());
        q.push(4.0, id(0, 0, 0), ());
        q.push(2.0, id(0, 0, 1), ());
        assert_eq!(q.pop().map(|e| e.time), Some(2.0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop().map(|e| e.time), Some(4.0));
    }

    #[test]
    fn total_cmp_orders_non_finite_times_without_panicking() {
        // The engine only schedules finite times, but the queue must stay
        // totally ordered even if a pathological config sneaks an ∞ in
        // (e.g. a disabled deadline modelled as +inf).
        let mut q = EventQueue::new();
        q.push(f64::INFINITY, id(0, 0, 0), "inf");
        q.push(1.0, id(0, 0, 1), "one");
        q.push(0.0, id(0, 0, 2), "zero");
        let order: Vec<_> = popped(&mut q).iter().map(|e| e.payload).collect();
        assert_eq!(order, vec!["zero", "one", "inf"]);
    }
}
