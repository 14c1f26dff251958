//! Memory-bound proof for virtual populations (ISSUE 10, satellite 3).
//!
//! The tentpole claim is that a virtual federation's working set is
//! O(sampled clients), not O(population): feature rows exist only for the
//! clients a round actually trains, inside pooled buffers. This binary
//! installs `gfl_obs::alloc::Counting`, which tracks the heap's high-water
//! mark, and runs the full pipeline — population build, stream formation,
//! training — asserting the peak heap stays a small fraction of what eagerly materializing the
//! population's features would require. The bound is self-calibrating:
//! it is derived from `total_samples × feature_dim`, so growing the
//! population makes the assertion *stronger*, not stale.
//!
//! The unconditional test runs 10⁴ paper_vision-shaped clients (~280 MB
//! if materialized). `GFL_SCALE=1` adds the acceptance-criteria run: 10⁶
//! clients (~28 GB if materialized) — wired into CI's scale-smoke job in
//! release mode.
//!
//! The same allocator bounds what saving a benchmark-sized checkpoint adds
//! to the heap: the printer streams, so the file's size never is.

use std::sync::{Mutex, MutexGuard};

use gfl_core::prelude::*;
use gfl_data::{VirtualPopulation, VirtualSpec};
use gfl_obs::alloc::{peak_added, Counting};
use gfl_sim::Topology;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held across every measured window: the tests of this binary share the
/// allocator's high-water mark, and the default harness runs them
/// concurrently.
fn measuring() -> MutexGuard<'static, ()> {
    static WINDOW: Mutex<()> = Mutex::new(());
    WINDOW.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs the full virtual pipeline at `clients` on two workers and returns
/// `(peak heap bytes over the run, bytes a materialized twin's feature
/// matrix alone would occupy)`.
///
/// One measured run at a time, at a fixed worker count: the two tests share
/// the allocator's counters and the default harness runs them concurrently (which
/// put the 10⁶-client run's ~100 MiB inside the 10⁴-client test's window),
/// and per-edge formation holds one restricted label matrix per worker, so
/// the peak grows with the count. The [`measuring`] lock is taken before
/// [`peak_added`] resets the mark and held to its last read.
fn peak_bytes_for(clients: usize, seed: u64) -> (usize, usize) {
    let _window = measuring();
    let mut measured = (0, 0);
    gfl_test_support::for_each_thread_count(&[2], |_| measured = measure(clients, seed));
    measured
}

fn measure(clients: usize, seed: u64) -> (usize, usize) {
    let (materialized_floor, peak) = peak_added(|| {
        let pop = VirtualPopulation::new(VirtualSpec::paper_vision(clients, 0.1, seed));
        let dim = pop.spec().data.feature_dim;
        let floor = pop.total_samples() * dim * std::mem::size_of::<gfl_tensor::Scalar>();

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
        floor
    });
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

/// `Checkpoint::save` prints into a bounded buffer in front of the file, so
/// a save adds next to nothing over the state it saves. The parent of the
/// streaming printer built the whole `Value` tree and its pretty `String`
/// first (`to_json`, then `std::fs::write`): on this same state that added
/// 11.4 MiB, 3.2× the 3.6 MB file; this save adds about 128 KiB.
#[test]
fn checkpoint_save_streams_in_bounded_memory() {
    let cp = gfl_test_support::hostile_checkpoint(18_536);
    assert!(cp.history.events().len() >= 10_000);
    let path = std::env::temp_dir().join(format!("gfl_scale_save_{}.json", std::process::id()));
    let mut added = 0;
    // Under the [`measuring`] lock, so no other test of this binary moves
    // the high-water mark inside the window.
    let window = measuring();
    gfl_test_support::for_each_thread_count(&[1], |_| {
        added = peak_added(|| cp.save(&path).unwrap()).1;
    });
    drop(window);
    let bytes = std::fs::metadata(&path).unwrap().len();
    let _ = std::fs::remove_file(&path);
    eprintln!(
        "save of {} events ({:.1} MB): peak heap +{:.1} KiB",
        cp.history.events().len(),
        bytes as f64 / 1e6,
        added as f64 / 1024.0
    );
    assert!(bytes > 3_000_000, "{bytes} B is not the benchmark's shape");
    assert!(added < 1 << 20, "checkpoint save added {added} B of heap");
}

/// Peak heap of the 10⁶-client run on two workers as last recorded, in MiB
/// (81.5–83.1 over six runs; 111.4 before the label matrix was one flat
/// buffer). docs/SCALE.md quotes this figure and the test below compares.
const RECORDED_PEAK_MIB: f64 = 82.3;

#[test]
fn million_client_run_is_o_sampled_memory() {
    // Acceptance criteria: 10⁶ paper_vision-shaped clients on one machine
    // with memory O(sampled). ~28 GB if materialized; the virtual pipeline
    // (population summaries + groups + pools; 38 MiB of it the flat label
    // matrix) must stay within a fifth above the recorded reading, and a
    // reading a tenth below it means the record and the doc are stale.
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
    let ratio = peak as f64 / (RECORDED_PEAK_MIB * (1 << 20) as f64);
    assert!(
        (0.9..1.2).contains(&ratio),
        "peak heap {peak} B is {ratio:.2} of the recorded {RECORDED_PEAK_MIB} MiB"
    );
}

/// The leading figure of the second cell of docs/SCALE.md's "Measured" row
/// that starts with `row`, as written (bold markers dropped).
fn quoted<'a>(doc: &'a str, row: &str) -> &'a str {
    let line = doc
        .lines()
        .find(|l| l.starts_with(&format!("| {row}")))
        .unwrap_or_else(|| panic!("docs/SCALE.md has no `{row}` row"));
    let cell = line.split('|').nth(2).expect("a second cell");
    let cell = cell.trim().trim_start_matches('*');
    let end = cell
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(cell.len());
    &cell[..end]
}

#[test]
fn scale_md_quotes_the_recorded_figures() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc = std::fs::read_to_string(root.join("docs/SCALE.md")).unwrap();
    let bench: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(root.join("BENCH_ROUND.json")).unwrap())
            .unwrap();
    let scale = |key: &str| {
        bench
            .get("scale")
            .and_then(|s| s.get(key))
            .and_then(serde_json::Value::as_f64)
            .unwrap_or_else(|| panic!("BENCH_ROUND.json has no scale.{key}"))
    };
    for (row, recorded, source) in [
        (
            "peak heap",
            RECORDED_PEAK_MIB,
            "RECORDED_PEAK_MIB in this file",
        ),
        (
            "population build",
            scale("population_build_seconds_1m"),
            "BENCH_ROUND.json scale.population_build_seconds_1m",
        ),
        (
            "stream formation",
            scale("formation_seconds_1m"),
            "BENCH_ROUND.json scale.formation_seconds_1m",
        ),
    ] {
        // Equal at the precision the doc prints.
        let figure = quoted(&doc, row);
        let decimals = figure.split_once('.').map_or(0, |(_, frac)| frac.len());
        assert_eq!(
            figure,
            format!("{recorded:.decimals$}"),
            "docs/SCALE.md `{row}` row against {source} = {recorded}"
        );
    }
}
