//! Process-wide fork-join pool statistics.
//!
//! Cheap always-on counters (relaxed atomics, no allocation) that let the
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
//! Counters are cumulative for the process; consumers take a [`snapshot`]
//! before and after the interval of interest and diff with
//! [`PoolStats::since`]. Claim counts and busy time are accumulated per
//! participant and flushed once per run, so the per-task hot path pays
//! nothing.

use std::sync::atomic::{AtomicU64, Ordering};

static REGIONS: AtomicU64 = AtomicU64::new(0);
static CLAIMS: AtomicU64 = AtomicU64::new(0);
static STEALS: AtomicU64 = AtomicU64::new(0);
static BUSY_NS: AtomicU64 = AtomicU64::new(0);
static CAPACITY_NS: AtomicU64 = AtomicU64::new(0);

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

/// Reads the current cumulative counters.
pub fn snapshot() -> PoolStats {
    PoolStats {
        regions: REGIONS.load(Ordering::Relaxed),
        claims: CLAIMS.load(Ordering::Relaxed),
        steals: STEALS.load(Ordering::Relaxed),
        busy_ns: BUSY_NS.load(Ordering::Relaxed),
        capacity_ns: CAPACITY_NS.load(Ordering::Relaxed),
    }
}

/// Records one completed parallel region: wall time and participant width.
pub(crate) fn record_region(wall_ns: u64, width: usize) {
    REGIONS.fetch_add(1, Ordering::Relaxed);
    CAPACITY_NS.fetch_add(wall_ns.saturating_mul(width as u64), Ordering::Relaxed);
}

/// Records one participant's busy time within a region: its body time less
/// the time it spent parked.
pub(crate) fn record_busy(ns: u64) {
    BUSY_NS.fetch_add(ns, Ordering::Relaxed);
}

/// Flushes one participant's claim tally for a region. `steal` marks claims
/// made by a helper worker rather than the region caller.
pub(crate) fn record_claims(claims: u64, steal: bool) {
    if claims == 0 {
        return;
    }
    CLAIMS.fetch_add(claims, Ordering::Relaxed);
    if steal {
        STEALS.fetch_add(claims, Ordering::Relaxed);
    }
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
        assert!(delta.regions >= 1);
        assert!(delta.capacity_ns > 0);
        assert!(delta.busy_ns > 0);
    }

    #[test]
    fn claims_and_steals_are_flushed_by_scope_helpers() {
        let items: Vec<u64> = (0..512).collect();
        let before = snapshot();
        let out = crate::tests::at_width(4, || crate::par_map(&items, |&x| x + 1));
        assert_eq!(out.len(), 512);
        let delta = snapshot().since(before);
        // Other tests may run concurrently against the same process-wide
        // counters, so assert a lower bound rather than an exact count.
        assert!(
            delta.claims >= 512,
            "every item is one task (saw {})",
            delta.claims
        );
        assert!(delta.steals <= delta.claims);
    }
}
