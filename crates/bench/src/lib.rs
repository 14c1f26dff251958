//! Shared fixtures for the `bench_round` and `bench_scale` binaries.

#![forbid(unsafe_code)]

use gfl_data::{VirtualPopulation, VirtualSpec};
use gfl_sim::Topology;

/// The one flag a snapshot binary takes, a positive count (`--rounds N`,
/// `--clients N`), from the command line, or `default` without it. An
/// unknown argument, or a value that is missing or not a positive whole
/// number, prints `error: …` naming it and exits 2.
pub fn count_flag_or_exit(flag: &str, default: usize) -> usize {
    fn fail(message: String) -> ! {
        eprintln!("error: {message}");
        std::process::exit(2)
    }
    let mut count = default;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg != flag {
            fail(format!("unknown argument `{arg}` (supported: {flag} N)"));
        }
        let value = args
            .next()
            .unwrap_or_else(|| fail(format!("{flag} needs a value")));
        count = match value.parse() {
            Ok(n) if n > 0 => n,
            _ => fail(format!("{flag} {value}: expected a positive whole number")),
        };
    }
    count
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
