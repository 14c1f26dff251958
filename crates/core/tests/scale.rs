//! Memory-bound proof for virtual populations (ISSUE 10, satellite 3).
//!
//! The tentpole claim is that a virtual federation's working set is
//! O(sampled clients), not O(population): feature rows exist only for the
//! clients a round actually trains, inside pooled buffers. This binary
//! installs a peak-tracking counting allocator and runs the full pipeline
//! — population build, stream formation, training — asserting the peak
//! heap stays a small fraction of what eagerly materializing the
//! population's features would require. The bound is self-calibrating:
//! it is derived from `total_samples × feature_dim`, so growing the
//! population makes the assertion *stronger*, not stale.
//!
//! The unconditional test runs 10⁴ paper_vision-shaped clients (~280 MB
//! if materialized). `GFL_SCALE=1` adds the acceptance-criteria run: 10⁶
//! clients (~28 GB if materialized) — wired into CI's scale-smoke job in
//! release mode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gfl_core::prelude::*;
use gfl_data::{VirtualPopulation, VirtualSpec};
use gfl_sim::Topology;

/// System allocator wrapper tracking live bytes and the high-water mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note_alloc(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Runs the full virtual pipeline at `clients` and returns
/// `(peak heap bytes over the run, bytes a materialized twin's feature
/// matrix alone would occupy)`.
fn peak_bytes_for(clients: usize, seed: u64) -> (usize, usize) {
    // Baseline from the current live count, not zero: the harness itself
    // owns memory.
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let before = LIVE.load(Ordering::Relaxed);

    let pop = VirtualPopulation::new(VirtualSpec::paper_vision(clients, 0.1, seed));
    let dim = pop.spec().data.feature_dim;
    let materialized_floor = pop.total_samples() * dim * std::mem::size_of::<gfl_tensor::Scalar>();

    let sizes: Vec<usize> = (0..pop.num_clients()).map(|c| pop.client_size(c)).collect();
    let topo = Topology::even_split(8, sizes);
    let groups = form_groups_per_edge(
        &StreamGrouping { group_size: 8 },
        &topo,
        pop.label_matrix(),
        seed,
    );
    assert!(groups.len() >= clients / 16, "stream formation collapsed");
    let test = pop.test_set(512);
    let mut cfg = GroupFelConfig::tiny();
    cfg.seed = seed;
    cfg.global_rounds = 3;
    let t = Trainer::try_new(cfg, gfl_nn::zoo::vision_model(), pop, test).unwrap();
    let h = t.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
    assert_eq!(h.records().len(), 3);
    drop(t);

    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);
    (peak, materialized_floor)
}

#[test]
fn ten_thousand_client_run_is_o_sampled_memory() {
    let (peak, floor) = peak_bytes_for(10_000, 5);
    eprintln!(
        "10^4 clients: peak {:.1} MiB, materialized floor {:.1} MiB",
        peak as f64 / (1 << 20) as f64,
        floor as f64 / (1 << 20) as f64
    );
    assert!(
        peak < floor / 4,
        "peak heap {peak} B is not clearly below the {floor} B a \
         materialized population would need"
    );
    // Absolute backstop so the relative bound cannot rot silently.
    assert!(peak < 96 << 20, "peak heap {peak} B exceeds 96 MiB");
}

#[test]
fn million_client_run_is_o_sampled_memory() {
    // Acceptance criteria: 10⁶ paper_vision-shaped clients on one machine
    // with memory O(sampled). ~28 GB if materialized; the virtual pipeline
    // must stay under 1.5 GiB (population summaries + groups + pools).
    // Debug builds take ~40 s here, so the scale-smoke CI job runs this
    // in release via GFL_SCALE=1.
    if std::env::var("GFL_SCALE").ok().as_deref() != Some("1") {
        return;
    }
    let (peak, floor) = peak_bytes_for(1_000_000, 5);
    eprintln!(
        "10^6 clients: peak {:.1} MiB, materialized floor {:.1} MiB",
        peak as f64 / (1 << 20) as f64,
        floor as f64 / (1 << 20) as f64
    );
    assert!(peak < floor / 16);
    assert!(peak < 1536 << 20, "peak heap {peak} B exceeds 1.5 GiB");
}
