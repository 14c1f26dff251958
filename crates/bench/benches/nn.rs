//! Line 13 — the local-update kernel: one forward/backward pass per
//! minibatch for both task models, plus evaluation throughput, plus the
//! SIMD microkernels (dot/gemm, the softmax row kernels) those passes
//! bottleneck on, measured once per dispatch tier this machine supports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gfl_data::SyntheticSpec;
use gfl_tensor::{init, simd};
use std::hint::black_box;

/// Deterministic non-zero fill for kernel operands.
fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// The forward/backward GEMM and dot microkernels on the paper workload's
/// layer shapes (batch 32–512 × feature width 256–784), once per SIMD
/// tier. Criterion reports per-iteration time; `Throughput::Elements` is
/// set to the FLOP count so the HTML/CLI output reads as FLOP/s, making
/// the scalar-vs-SIMD ratio directly visible per shape.
fn bench_simd_kernels(c: &mut Criterion) {
    let shapes: [(usize, usize, usize); 4] = [
        // (batch m, out n, in k) — vision first layer, speech first layer,
        // a deep/narrow hidden layer, and the widest eval batch.
        (32, 256, 784),
        (64, 256, 512),
        (128, 128, 256),
        (512, 256, 784),
    ];
    let mut group = c.benchmark_group("simd_kernels");
    for tier in simd::supported_tiers() {
        let prev = simd::set_tier(tier);
        for &(m, n, k) in &shapes {
            let a = filled(m * k, 1);
            let b = filled(n * k, 2);
            let mut out = vec![0.0f32; m * n];
            let flops = 2 * m * n * k;
            group.throughput(Throughput::Elements(flops as u64));
            group.bench_function(
                BenchmarkId::new(format!("gemm_nt_{}", tier.name()), format!("{m}x{n}x{k}")),
                |bch| {
                    bch.iter(|| {
                        simd::gemm_nt(black_box(&a), black_box(&b), &mut out, m, n, k);
                        black_box(&out);
                    })
                },
            );
            // Backward weight gradient: ∇W = ∇Yᵀ·X with the ReLU zero-skip
            // (~half the activations are zero, as in training).
            let mut act = filled(m * n, 3);
            for (i, v) in act.iter_mut().enumerate() {
                if i % 2 == 0 {
                    *v = 0.0;
                }
            }
            let x = filled(m * k, 4);
            let mut gw = vec![0.0f32; n * k];
            group.bench_function(
                BenchmarkId::new(format!("gemm_tn_{}", tier.name()), format!("{m}x{n}x{k}")),
                |bch| {
                    bch.iter(|| {
                        simd::gemm_tn(black_box(&act), black_box(&x), &mut gw, m, n, k);
                        black_box(&gw);
                    })
                },
            );
        }
        let x = filled(784, 5);
        let y = filled(784, 6);
        group.throughput(Throughput::Elements(2 * 784));
        group.bench_function(BenchmarkId::new("dot", tier.name()), |bch| {
            bch.iter(|| black_box(simd::dot(black_box(&x), black_box(&y))))
        });
        simd::set_tier(prev);
    }
    group.finish();
}

/// The lane-per-row softmax kernels at the two tasks' class counts, once
/// per SIMD tier: `softmax_xent_rows` on a batch of 32 (the training tail,
/// copy of the logits included) and `xent_argmax_rows` on an evaluation
/// chunk of 256. `Throughput::Elements` is the row count, so the output
/// reads as rows/s and the scalar row form is the `scalar` line.
fn bench_softmax(c: &mut Criterion) {
    let (batch, chunk) = (32usize, 256usize);
    let mut group = c.benchmark_group("softmax");
    for tier in simd::supported_tiers() {
        let prev = simd::set_tier(tier);
        for classes in [35usize, 10] {
            let logits: Vec<f32> = filled(chunk * classes, 7)
                .iter()
                .map(|u| u * 16.0)
                .collect();
            let labels: Vec<usize> = (0..chunk).map(|r| r * 7 % classes).collect();
            let mut block = Vec::new();
            let mut delta = vec![0.0f32; batch * classes];
            group.throughput(Throughput::Elements(batch as u64));
            group.bench_function(
                BenchmarkId::new(format!("softmax_xent_rows_{}", tier.name()), classes),
                |bch| {
                    bch.iter(|| {
                        delta.copy_from_slice(&logits[..batch * classes]);
                        black_box(simd::softmax_xent_rows(
                            &mut delta,
                            classes,
                            &labels[..batch],
                            1.0 / batch as f32,
                            &mut block,
                        ))
                    })
                },
            );
            group.throughput(Throughput::Elements(chunk as u64));
            group.bench_function(
                BenchmarkId::new(format!("xent_argmax_rows_{}", tier.name()), classes),
                |bch| {
                    bch.iter(|| {
                        black_box(simd::xent_argmax_rows(
                            black_box(&logits),
                            classes,
                            &labels,
                            &mut block,
                        ))
                    })
                },
            );
        }
        simd::set_tier(prev);
    }
    group.finish();
}

fn bench_nn(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_update_kernel");
    // The paper-faithful 5-layer CNN kernel (cnn_speech extension).
    {
        let net = gfl_nn::zoo::speech_cnn();
        let data = SyntheticSpec::speech_like().generate(64, 3);
        let params = net.init_params(&mut init::rng(4));
        let mut grad = vec![0.0f32; net.param_len()];
        let mut ws = net.workspace();
        let batch: Vec<usize> = (0..32).collect();
        let mb = data.batch(&batch);
        group.throughput(Throughput::Elements(32));
        group.bench_function(BenchmarkId::new("loss_and_grad_b32", "speech_cnn"), |b| {
            b.iter(|| {
                black_box(net.loss_and_grad(&params, &mb.features, &mb.labels, &mut grad, &mut ws))
            });
        });
    }
    for (name, model, spec) in [
        (
            "vision",
            gfl_nn::zoo::vision_model(),
            SyntheticSpec::vision_like(),
        ),
        (
            "speech",
            gfl_nn::zoo::speech_model(),
            SyntheticSpec::speech_like(),
        ),
    ] {
        let data = spec.generate(256, 1);
        let params = model.init_params(&mut init::rng(2));
        let mut grad = vec![0.0f32; model.param_len()];
        let mut ws = model.workspace();
        let batch: Vec<usize> = (0..32).collect();
        let mb = data.batch(&batch);
        group.throughput(Throughput::Elements(32));
        group.bench_function(BenchmarkId::new("loss_and_grad_b32", name), |b| {
            b.iter(|| {
                black_box(model.loss_and_grad(
                    &params,
                    &mb.features,
                    &mb.labels,
                    &mut grad,
                    &mut ws,
                ))
            });
        });
        group.throughput(Throughput::Elements(256));
        group.bench_function(BenchmarkId::new("evaluate_256", name), |b| {
            b.iter(|| black_box(model.evaluate(&params, data.features(), data.labels())));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_nn, bench_simd_kernels, bench_softmax);
criterion_main!(benches);
