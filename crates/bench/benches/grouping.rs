//! Fig. 5 — grouping-algorithm runtime vs client count.
//!
//! The paper's ordering: RG ≈ free, CDG cheap, CoVG moderate, KLDG slowest
//! (full KL recomputation with `ln()` per candidate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gfl_bench::{skewed_labels, virtual_world};
use gfl_core::engine::form_groups_per_edge;
use gfl_core::grouping::{
    CdgGrouping, CovGrouping, GroupingAlgorithm, KldGrouping, RandomGrouping,
};
use gfl_tensor::init;
use std::hint::black_box;

fn bench_grouping(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_grouping_runtime");
    group.sample_size(10);
    for &n in &[100usize, 200, 400] {
        let labels = skewed_labels(n, 10, n as u64);
        let algos: Vec<(&str, Box<dyn GroupingAlgorithm>)> = vec![
            ("RG", Box::new(RandomGrouping { group_size: 6 })),
            (
                "CDG",
                Box::new(CdgGrouping {
                    group_size: 6,
                    kmeans_iters: 10,
                }),
            ),
            ("KLDG", Box::new(KldGrouping { group_size: 6 })),
            (
                "CoVG",
                Box::new(CovGrouping {
                    min_group_size: 5,
                    max_cov: 0.3,
                }),
            ),
        ];
        for (name, algo) in algos {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    let mut rng = init::rng(1);
                    black_box(algo.form_groups(&labels, &mut rng))
                });
            });
        }
    }
    group.finish();
}

/// Algorithm 2 per edge at the benchmark's `secure-covg` shape — the set-up
/// that workload spends most of an invocation in.
fn bench_secure_covg_formation(c: &mut Criterion) {
    let (pop, topo) = virtual_world(12_000, 4, 1);
    let algo = CovGrouping {
        min_group_size: 10,
        max_cov: 0.5,
    };
    let mut group = c.benchmark_group("secure_covg_formation");
    group.sample_size(10);
    group.bench_function("CoVG/12000x4", |b| {
        b.iter(|| black_box(form_groups_per_edge(&algo, &topo, pop.label_matrix(), 1)));
    });
    group.finish();
}

criterion_group!(benches, bench_grouping, bench_secure_covg_formation);
criterion_main!(benches);
