//! Shared fixtures for the `bench_round` and `bench_scale` binaries.

use gfl_data::{VirtualPopulation, VirtualSpec};
use gfl_sim::Topology;

/// Checks `GFL_THREADS` and `GFL_SIMD` as `gfl` and `gfl-experiments` do
/// at start-up: on a value that names nothing valid, prints the parser's
/// message and exits 2 before anything is measured.
pub fn check_env_or_exit() {
    if let Err(e) = gfl_tensor::check_env() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

/// A `paper_vision`-shaped virtual population (α = 0.1) and its even split
/// over `edges` edge servers — the benchmark workloads' set-up.
pub fn virtual_world(clients: usize, edges: usize, seed: u64) -> (VirtualPopulation, Topology) {
    let pop = VirtualPopulation::new(VirtualSpec::paper_vision(clients, 0.1, seed));
    let sizes = (0..clients).map(|c| pop.client_size(c)).collect();
    let topo = Topology::even_split(edges, sizes);
    (pop, topo)
}

/// Everybody survives, at weight one: `updates[i]` belongs to member `i`.
pub fn unit_survivors(updates: &[Vec<f32>]) -> Vec<gfl_secagg::Survivor<'_>> {
    let ids = 0..updates.len() as u32;
    ids.zip(updates)
        .map(|(id, update)| gfl_secagg::Survivor {
            id,
            weight: 1.0,
            update,
        })
        .collect()
}

/// One secure-aggregation round the way the engine runs it — the fused
/// range kernel over chunks of 1 024 coordinates, the engine's chunk
/// length — on the calling thread.
pub fn fused_secagg_round(
    session: &gfl_secagg::SecAggSession,
    survivors: &[gfl_secagg::Survivor<'_>],
    out: &mut [f32],
    scratch: &mut gfl_secagg::RangeScratch,
) {
    const CHUNK: usize = 1024;
    for (i, chunk) in out.chunks_mut(CHUNK).enumerate() {
        session.aggregate_range(i * CHUNK, survivors, chunk, scratch);
    }
}
