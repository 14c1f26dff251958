//! Fig. 2(a)/Fig. 8 — secure-aggregation cost scaling with group size.
//!
//! Per-client masking is O(|g|·d); the whole round is O(|g|²·d). Dropout
//! recovery adds O(dropped × survivors × d) on the server.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gfl_bench::{fused_secagg_round, random_vectors, unit_survivors};
use gfl_secagg::{ExactSecAgg, RangeScratch, SecAggSession};
use rand::RngCore;
use std::hint::black_box;

fn bench_secagg(c: &mut Criterion) {
    let dim = 4096; // roughly the speech model's parameter count
    let mut group = c.benchmark_group("fig8_secagg_scaling");
    group.sample_size(10);
    for &g in &[5usize, 10, 20, 40] {
        let updates = random_vectors(g, dim, g as u64);
        let session = SecAggSession::new((0..g as u32).collect(), dim, 7);
        group.throughput(Throughput::Elements(g as u64));

        group.bench_with_input(BenchmarkId::new("mask_one_client", g), &g, |b, _| {
            b.iter(|| black_box(session.mask(0, &updates[0])));
        });
        group.bench_with_input(BenchmarkId::new("full_round", g), &g, |b, _| {
            b.iter(|| black_box(session.aggregate(&updates)));
        });

        // Dropout recovery: 20% of the group drops after masking.
        let masked: Vec<Vec<f32>> = (0..g)
            .map(|i| session.mask(i as u32, &updates[i]).0)
            .collect();
        let survivors: Vec<u32> = (0..g as u32).filter(|&m| m % 5 != 0).collect();
        let masked_surv: Vec<Vec<f32>> = survivors
            .iter()
            .map(|&m| masked[m as usize].clone())
            .collect();
        group.bench_with_input(BenchmarkId::new("unmask_with_dropouts", g), &g, |b, _| {
            b.iter(|| black_box(session.unmask_sum(&survivors, &masked_surv)));
        });
    }
    group.finish();

    // One `secure-covg` session: the vision model, a group of ten. The
    // keystream fill is the ceiling of a mask expansion; `full_round` is
    // the protocol party by party, `fused_round` what the engine runs.
    let (dim, g) = (17_226, 10);
    let mut group = c.benchmark_group("secagg_vision_round");
    group.sample_size(10);
    let mut bytes = vec![0u8; 4 * dim];
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("pair_mask_fill", |b| {
        b.iter(|| gfl_tensor::init::rng(7).fill_bytes(black_box(&mut bytes)));
    });
    let updates = random_vectors(g, dim, 3);
    let session = SecAggSession::new((0..g as u32).collect(), dim, 7);
    group.throughput(Throughput::Elements(g as u64));
    group.bench_function("full_round", |b| {
        b.iter(|| black_box(session.aggregate(&updates)));
    });
    let survivors = unit_survivors(&updates);
    let (mut out, mut scratch) = (vec![0.0; dim], RangeScratch::default());
    group.bench_function("fused_round", |b| {
        b.iter(|| fused_secagg_round(&session, &survivors, black_box(&mut out), &mut scratch));
    });
    group.finish();

    // The bit-exact fixed-point ring variant, for the float-vs-ring
    // overhead comparison.
    let mut group = c.benchmark_group("exact_ring_secagg");
    group.sample_size(10);
    for &g in &[5usize, 20] {
        let updates = random_vectors(g, dim, g as u64 + 7);
        let session = ExactSecAgg::new((0..g as u32).collect(), dim, 11);
        group.bench_with_input(BenchmarkId::new("mask_one_client", g), &g, |b, _| {
            b.iter(|| black_box(session.mask(0, &updates[0])));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_secagg);
criterion_main!(benches);
