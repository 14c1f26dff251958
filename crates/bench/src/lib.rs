//! Shared fixtures for the criterion benchmarks.
//!
//! Figure/table ↔ bench mapping (see DESIGN.md §3):
//! * `grouping` — Fig. 5 (grouping runtime vs client count, all four
//!   algorithms) and the Fig. 6 quality sweep's hot path.
//! * `cov` — Eq. 27 evaluation and the Algorithm-2 inner loop primitive.
//! * `secagg` — Fig. 2(a)/Fig. 8 SecAgg scaling (mask + unmask + dropout).
//! * `defense` — Fig. 2(a)/Fig. 8 backdoor-detection scaling.
//! * `sampling_agg` — Eq. 34 probabilities, without-replacement draws, and
//!   the Line-15/Eq.-4/Eq.-35 weighting kernels (Fig. 7 / §6.2 machinery).
//! * `nn` — local-update kernel (Line 13): forward/backward per batch.
//! * `training_round` — one full Algorithm-1 global round, the unit the
//!   accuracy figures (2b, 9–12, Table 1) integrate over.

use gfl_data::{LabelMatrix, VirtualPopulation, VirtualSpec};
use gfl_sim::Topology;
use gfl_tensor::init;
use rand::Rng;

/// Skewed per-client label histograms like the paper's Dirichlet clients.
pub fn skewed_labels(clients: usize, labels: usize, seed: u64) -> LabelMatrix {
    let mut rng = init::rng(seed);
    LabelMatrix::new(
        (0..clients)
            .map(|_| {
                let hot = rng.gen_range(0..labels);
                (0..labels)
                    .map(|l| {
                        if l == hot {
                            rng.gen_range(20..120)
                        } else if rng.gen_bool(0.3) {
                            rng.gen_range(0..10)
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect(),
        labels,
    )
}

/// A `paper_vision`-shaped virtual population (α = 0.1) and its even split
/// over `edges` edge servers — the benchmark workloads' set-up.
pub fn virtual_world(clients: usize, edges: usize, seed: u64) -> (VirtualPopulation, Topology) {
    let pop = VirtualPopulation::new(VirtualSpec::paper_vision(clients, 0.1, seed));
    let sizes = (0..clients).map(|c| pop.client_size(c)).collect();
    let topo = Topology::even_split(edges, sizes);
    (pop, topo)
}

/// Random dense vectors for aggregation/masking benches.
pub fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = init::rng(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
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
