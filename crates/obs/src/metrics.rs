//! Named metrics: counters, gauges, and fixed-bucket histograms.
//!
//! Instruments are registered on first use (`registry.counter("name")`) and
//! shared via `Arc`, so hot paths can hold an instrument directly and update
//! it with a single relaxed atomic — the registry lock is only taken at
//! registration and snapshot time. Snapshots are plain serializable structs
//! sorted by name, suitable for the JSONL summary record and CLI tables.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An invalid instrument registration, caught before the instrument exists.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricsError {
    /// A histogram was registered with no bucket bounds: every observation
    /// would land in the overflow bucket and the histogram says nothing.
    EmptyBounds { name: String },
    /// A bucket bound is NaN or infinite (`bounds[index]`): comparisons
    /// against it misbucket silently.
    NonFiniteBound { name: String, index: usize },
    /// Bounds are not strictly increasing at `index` (`bounds[index] >=
    /// bounds[index + 1]`): observations land in the first matching bucket,
    /// so later buckets are unreachable.
    UnsortedBounds { name: String, index: usize },
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::EmptyBounds { name } => {
                write!(f, "histogram `{name}`: bucket bounds must be non-empty")
            }
            MetricsError::NonFiniteBound { name, index } => {
                write!(f, "histogram `{name}`: bound {index} is not finite")
            }
            MetricsError::UnsortedBounds { name, index } => write!(
                f,
                "histogram `{name}`: bounds must be strictly increasing (violated at index {index})"
            ),
        }
    }
}

impl std::error::Error for MetricsError {}

/// Validates histogram bucket bounds: non-empty, all finite, strictly
/// increasing.
fn validate_bounds(name: &str, bounds: &[f64]) -> Result<(), MetricsError> {
    if bounds.is_empty() {
        return Err(MetricsError::EmptyBounds { name: name.into() });
    }
    if let Some(index) = bounds.iter().position(|b| !b.is_finite()) {
        return Err(MetricsError::NonFiniteBound {
            name: name.into(),
            index,
        });
    }
    if let Some(index) = bounds.windows(2).position(|w| w[0] >= w[1]) {
        return Err(MetricsError::UnsortedBounds {
            name: name.into(),
            index,
        });
    }
    Ok(())
}

/// Monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins `f64` gauge (stored as bits in an atomic).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram: `bounds` are upper edges; an observation lands in
/// the first bucket whose bound is `>=` the value, or the overflow bucket.
///
/// `counts.len() == bounds.len() + 1`; the last slot is the overflow bucket.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // CAS loop: atomic f64 accumulate via bit transmutation.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

/// Get-or-register registry of named instruments.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut list = self.counters.lock().unwrap();
        if let Some((_, c)) = list.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        list.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// Returns the gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut list = self.gauges.lock().unwrap();
        if let Some((_, g)) = list.iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        list.push((name.to_string(), Arc::clone(&g)));
        g
    }

    /// Returns the histogram named `name`, registering it with the given
    /// bucket bounds on first use (later calls ignore `bounds`).
    ///
    /// # Panics
    /// Panics when the first registration carries malformed bounds — empty,
    /// non-finite, or not strictly increasing. Use
    /// [`MetricsRegistry::try_histogram`] for a typed error instead.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.try_histogram(name, bounds)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MetricsRegistry::histogram`] that validates the bucket bounds at
    /// registration (non-empty, finite, strictly increasing) and returns a
    /// typed [`MetricsError`] instead of silently misbucketing. Bounds of
    /// later calls for an already-registered name are not re-validated —
    /// they are ignored, like in `histogram`.
    pub fn try_histogram(
        &self,
        name: &str,
        bounds: &[f64],
    ) -> Result<Arc<Histogram>, MetricsError> {
        let mut list = self.histograms.lock().unwrap();
        if let Some((_, h)) = list.iter().find(|(n, _)| n == name) {
            return Ok(Arc::clone(h));
        }
        validate_bounds(name, bounds)?;
        let h = Arc::new(Histogram::new(bounds));
        list.push((name.to_string(), Arc::clone(&h)));
        Ok(h)
    }

    /// Serializable snapshot of every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterSnapshot> = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(n, c)| CounterSnapshot {
                name: n.clone(),
                value: c.get(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSnapshot> = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(n, g)| GaugeSnapshot {
                name: n.clone(),
                value: g.get(),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSnapshot> = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| HistogramSnapshot {
                name: n.clone(),
                bounds: h.bounds.clone(),
                counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                count: h.count(),
                sum: h.sum(),
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
}

/// Point-in-time value of one gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    pub name: String,
    pub value: f64,
}

/// Point-in-time state of one histogram. `counts.len() == bounds.len() + 1`
/// (last slot is the overflow bucket).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub name: String,
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: f64,
}

/// Snapshot of a whole registry, embedded in the trace summary record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub gauges: Vec<GaugeSnapshot>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }
}

/// Millisecond-scale bucket bounds used for per-round phase-time histograms.
pub const PHASE_MS_BUCKETS: [f64; 10] = [0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("a.b").get(), 5, "same instrument on reuse");
        reg.gauge("g").set(2.5);
        assert_eq!(reg.gauge("g").get(), 2.5);
    }

    #[test]
    fn histogram_buckets_values() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        let snap = reg.snapshot();
        let hs = &snap.histograms[0];
        assert_eq!(hs.counts, vec![1, 1, 1]);
        assert_eq!(hs.count, 3);
        assert!((hs.sum - 55.5).abs() < 1e-9);
    }

    #[test]
    fn gauge_round_trips_negative_and_subnormal_values_through_the_bit_cast() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("g");
        // Negative values: the sign bit must survive the u64 transmutation.
        g.set(-273.15);
        assert_eq!(g.get(), -273.15);
        assert_eq!(g.get().to_bits(), (-273.15f64).to_bits());
        // Negative zero is a distinct bit pattern from +0.0.
        g.set(-0.0);
        assert_eq!(g.get().to_bits(), (-0.0f64).to_bits());
        // Subnormals: the smallest positive f64 (5e-324) and a negative
        // subnormal — exponent bits all zero, mantissa non-zero.
        let tiny = f64::from_bits(1);
        assert!(tiny > 0.0 && !tiny.is_normal());
        g.set(tiny);
        assert_eq!(g.get().to_bits(), 1);
        let neg_sub = f64::from_bits((1u64 << 63) | 0xFFF);
        assert!(neg_sub < 0.0 && !neg_sub.is_normal());
        g.set(neg_sub);
        assert_eq!(g.get().to_bits(), neg_sub.to_bits());
        // NaN payload bits survive too (get() returns *some* NaN with the
        // exact stored bits).
        g.set(f64::NAN);
        assert!(g.get().is_nan());
    }

    #[test]
    fn concurrent_counter_adds_under_the_pool_lose_no_increments() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("pool.hits");
        const PARTICIPANTS: usize = 8;
        const ADDS_PER_PARTICIPANT: u64 = 10_000;
        std::thread::scope(|s| {
            for p in 0..PARTICIPANTS {
                let c = &c;
                s.spawn(move || {
                    for i in 0..ADDS_PER_PARTICIPANT {
                        // Mix inc() and add() so both entry points are exercised.
                        if i % 2 == 0 {
                            c.inc();
                        } else {
                            c.add(1 + (p as u64 % 2));
                        }
                    }
                });
            }
        });
        // Participant p adds 10k/2 ones plus 10k/2 of (1 + p%2):
        let expected: u64 = (0..PARTICIPANTS as u64)
            .map(|p| ADDS_PER_PARTICIPANT / 2 + (ADDS_PER_PARTICIPANT / 2) * (1 + p % 2))
            .sum();
        assert_eq!(c.get(), expected);
    }

    #[test]
    fn try_histogram_rejects_malformed_bounds_with_typed_errors() {
        let reg = MetricsRegistry::new();
        assert_eq!(
            reg.try_histogram("empty", &[]).unwrap_err(),
            MetricsError::EmptyBounds {
                name: "empty".into()
            }
        );
        assert_eq!(
            reg.try_histogram("nan", &[1.0, f64::NAN]).unwrap_err(),
            MetricsError::NonFiniteBound {
                name: "nan".into(),
                index: 1
            }
        );
        assert_eq!(
            reg.try_histogram("inf", &[f64::INFINITY, 2.0]).unwrap_err(),
            MetricsError::NonFiniteBound {
                name: "inf".into(),
                index: 0
            }
        );
        assert_eq!(
            reg.try_histogram("unsorted", &[1.0, 3.0, 2.0]).unwrap_err(),
            MetricsError::UnsortedBounds {
                name: "unsorted".into(),
                index: 1
            }
        );
        assert_eq!(
            reg.try_histogram("dup", &[1.0, 1.0]).unwrap_err(),
            MetricsError::UnsortedBounds {
                name: "dup".into(),
                index: 0
            }
        );
        // A rejected registration leaves nothing behind: the snapshot is
        // empty and a later valid registration under the same name works.
        assert!(reg.snapshot().histograms.is_empty());
        assert!(reg.try_histogram("empty", &[1.0, 2.0]).is_ok());
        // Registered names skip re-validation (bounds are ignored).
        assert!(reg.try_histogram("empty", &[]).is_ok());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_panics_on_malformed_bounds() {
        MetricsRegistry::new().histogram("bad", &[2.0, 1.0]);
    }

    #[test]
    fn snapshot_is_sorted_and_serializable() {
        let reg = MetricsRegistry::new();
        reg.counter("z");
        reg.counter("a");
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].name, "a");
        assert_eq!(snap.counters[1].name, "z");
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }
}
