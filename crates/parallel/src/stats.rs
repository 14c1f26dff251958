//! Fork-join pool statistics, per calling thread.
//!
//! Cheap always-on counters (thread-local cells, no allocation) that let the
//! observability layer report how well the pool is utilized without touching
//! simulation state:
//!
//! * **regions** — parallel broadcast regions entered (runs that actually
//!   fanned out; sequential degradations are not counted).
//! * **claims** — tasks run by [`crate::TaskQueue`] runs, the slice
//!   helpers' included (one task per item).
//! * **steals** — the subset of claims made by helper workers rather than
//!   the region caller (participant 0). With perfect static balance this is
//!   `claims × (width-1)/width`; skew shows up as deviation.
//! * **busy_ns / capacity_ns** — summed participant time in a fanned-out
//!   run, less the time it spent parked waiting for a task, vs. region wall
//!   time × width. Their ratio is pool utilization: 1.0 means no
//!   participant ever idled waiting for stragglers.
//!
//! Counters are cumulative for the calling thread: a region's helpers
//! hand what they counted back to its caller when the region ends, so a
//! thread's counters hold exactly the regions and runs it called, and a
//! run on another thread never shows in them. Consumers take a
//! [`snapshot`] before and after the interval of interest and diff with
//! [`PoolStats::since`]. Claim counts and busy time are accumulated per
//! participant and flushed once per run, so the per-task hot path pays
//! nothing.

use std::cell::Cell;

thread_local! {
    static TOTALS: Cell<PoolStats> = Cell::default();
}

/// Point-in-time (or, after [`PoolStats::since`], per-interval) pool
/// counters. See the module docs for field semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    pub regions: u64,
    pub claims: u64,
    pub steals: u64,
    pub busy_ns: u64,
    pub capacity_ns: u64,
}

impl PoolStats {
    /// Counter deltas accumulated since `earlier` was snapshotted.
    pub fn since(self, earlier: PoolStats) -> PoolStats {
        PoolStats {
            regions: self.regions.saturating_sub(earlier.regions),
            claims: self.claims.saturating_sub(earlier.claims),
            steals: self.steals.saturating_sub(earlier.steals),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            capacity_ns: self.capacity_ns.saturating_sub(earlier.capacity_ns),
        }
    }

    pub(crate) fn add(&mut self, other: PoolStats) {
        self.regions += other.regions;
        self.claims += other.claims;
        self.steals += other.steals;
        self.busy_ns += other.busy_ns;
        self.capacity_ns += other.capacity_ns;
    }

    /// Busy time over capacity, clamped to `0.0..=1.0`. Returns 0.0 when no
    /// parallel region ran in the interval (capacity 0).
    pub fn utilization(&self) -> f64 {
        if self.capacity_ns == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / self.capacity_ns as f64).min(1.0)
        }
    }
}

/// Reads the calling thread's cumulative counters.
pub fn snapshot() -> PoolStats {
    TOTALS.get()
}

/// Takes the calling thread's counters, leaving zeros.
pub(crate) fn take() -> PoolStats {
    TOTALS.take()
}

/// Adds `delta` to the calling thread's counters.
pub(crate) fn record(delta: PoolStats) {
    let mut totals = TOTALS.get();
    totals.add(delta);
    TOTALS.set(totals);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_and_utilization_behave() {
        let a = PoolStats {
            regions: 1,
            claims: 10,
            steals: 4,
            busy_ns: 50,
            capacity_ns: 100,
        };
        let b = PoolStats {
            regions: 3,
            claims: 30,
            steals: 10,
            busy_ns: 250,
            capacity_ns: 300,
        };
        let d = b.since(a);
        assert_eq!(d.regions, 2);
        assert_eq!(d.claims, 20);
        assert_eq!(d.steals, 6);
        assert!((d.utilization() - 1.0).abs() < 1e-9, "clamped to 1.0");
        assert_eq!(PoolStats::default().utilization(), 0.0);
    }

    #[test]
    fn parallel_region_moves_the_counters() {
        let before = snapshot();
        crate::TaskQueue::default().run_on(
            4,
            0..4u64,
            || (),
            |(), n, _| {
                std::hint::black_box((0..10_000 + n).sum::<u64>());
            },
        );
        let delta = snapshot().since(before);
        assert_eq!(delta.regions, 1);
        assert_eq!(delta.claims, 4);
        assert!(delta.capacity_ns > 0);
        assert!(delta.busy_ns > 0);
    }

    #[test]
    fn claims_and_steals_are_flushed_by_scope_helpers() {
        let items: Vec<u64> = (0..512).collect();
        crate::set_default_parallelism(4);
        let before = snapshot();
        let out = crate::par_map(&items, |&x| x + 1);
        assert_eq!(out.len(), 512);
        let delta = snapshot().since(before);
        assert_eq!(delta.claims, 512, "every item is one task");
        assert_eq!(delta.regions, 1);
        assert!(delta.steals <= delta.claims);
    }
}
