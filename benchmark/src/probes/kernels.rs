//! `gfl-tensor` kernels against ceilings measured in the same run,
//! `gfl-nn` forward/backward and evaluation, and the client step of
//! `gfl-core::local`.

use std::hint::black_box;

use gfl_core::local::{FedAvg, LocalScratch, LocalTask, LocalUpdate};
use gfl_data::{ClientPartition, Dataset};
use gfl_nn::Network;
use gfl_tensor::{init, simd};

use super::{filled, partition_spec, task_of, vision_population, Ctx, Phase};

const DENSE: &str = "dense-train";
const HOSTILE: &str = "hostile-async";
const SECURE: &str = "secure-covg";

/// The vision model's layers at batch 32, as `(batch, out, in)`.
const VISION_LAYERS: [(usize, usize, usize); 3] = [(32, 128, 64), (32, 64, 128), (32, 10, 64)];
/// Parameter counts of the vision and speech models.
const VECTOR_LENS: [usize; 2] = [17_226, 3_683];

/// Sixteen independent multiply-then-add chains per lane: enough to keep two
/// vector ports busy, with nothing to load or store.
#[inline(always)]
fn mul_add_chains(iters: usize) -> f32 {
    let mut acc = [1.0f32; 256];
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = *v * 0.999_99 + 1e-5;
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mul_add_chains_avx512(iters: usize) -> f32 {
    mul_add_chains(iters)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_add_chains_avx2(iters: usize) -> f32 {
    mul_add_chains(iters)
}

/// The multiply-add loop compiled for the widest vectors the active SIMD
/// tier uses, so the ceiling and the kernels are held to the same hardware.
fn peak_mul_add(iters: usize) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        let tier = simd::active_tier().name();
        if tier == "avx512" && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU feature the function is compiled for was just detected.
            return unsafe { mul_add_chains_avx512(iters) };
        }
        if tier == "avx2" && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above.
            return unsafe { mul_add_chains_avx2(iters) };
        }
    }
    mul_add_chains(iters)
}

/// Bytes per stream-copy array: four times the last-level cache, within an
/// eighth of memory; a fixed 32 MiB at smoke size.
fn stream_array_bytes(ctx: &Ctx<'_>) -> (usize, u64) {
    let llc = ctx.inputs.env.llc_bytes.unwrap_or(32 << 20);
    if ctx.size() == crate::workloads::Size::Smoke {
        return (32 << 20, llc);
    }
    let cap = ctx.inputs.env.mem_total_bytes.map_or(256 << 20, |m| m / 8);
    ((4 * llc).min(cap).max(64 << 20) as usize, llc)
}

pub fn tensor(ctx: &mut Ctx<'_>) {
    // GEMM at the vision model's own shapes, time-weighted.
    let (mut nt_flops, mut nt_s, mut tn_flops, mut tn_s) = (0.0, 0.0, 0.0, 0.0);
    for (i, &(b, o, n)) in VISION_LAYERS.iter().enumerate() {
        let acts = filled(b * n, 1 + i as u64);
        let weights = filled(o * n, 11 + i as u64);
        let deltas = filled(b * o, 21 + i as u64);
        let mut out = vec![0.0f32; b * o];
        let name = format!("gemm_nt_{b}x{o}x{n}");
        nt_s += ctx.bench(DENSE, Phase::Rounds, "tensor", &name, || {
            simd::gemm_nt(&acts, &weights, &mut out, b, o, n);
        });
        nt_flops += (2 * b * o * n) as f64;
        let mut grad = vec![0.0f32; o * n];
        let name = format!("gemm_tn_{b}x{o}x{n}");
        tn_s += ctx.bench(DENSE, Phase::Rounds, "tensor", &name, || {
            simd::gemm_tn(&deltas, &acts, &mut grad, b, o, n);
        });
        tn_flops += (2 * b * o * n) as f64;
        black_box((&out, &grad));
    }
    ctx.set("tensor.gemm_nt_gflops", nt_flops / nt_s / 1e9);
    ctx.set("tensor.gemm_tn_gflops", tn_flops / tn_s / 1e9);
    ctx.model_s("tensor.gemm_s_per_batch", nt_s + tn_s);

    let (m, n, k) = (256usize, 256usize, 784usize);
    let (a, b) = (filled(m * k, 1), filled(n * k, 2));
    let mut out = vec![0.0f32; m * n];
    let s = ctx.bench("-", Phase::Rounds, "tensor", "gemm_nt_256x256x784", || {
        simd::gemm_nt(&a, &b, &mut out, m, n, k);
    });
    let gemm_256 = (2 * m * n * k) as f64 / s / 1e9;
    ctx.set("tensor.gemm_nt_256_gflops", gemm_256);

    // Vector kernels at the two models' parameter counts.
    let (mut axpy_bytes, mut axpy_s, mut dot_bytes, mut dot_s) = (0.0, 0.0, 0.0, 0.0);
    for d in VECTOR_LENS {
        let x = filled(d, 3);
        let mut y = filled(d, 4);
        axpy_s += ctx.bench("-", Phase::Rounds, "tensor", &format!("axpy_{d}"), || {
            simd::axpy(1e-6, &x, &mut y);
        });
        axpy_bytes += (3 * 4 * d) as f64;
        dot_s += ctx.bench("-", Phase::Rounds, "tensor", &format!("dot_{d}"), || {
            black_box(simd::dot(&x, &y));
        });
        dot_bytes += (2 * 4 * d) as f64;
    }
    ctx.set("tensor.axpy_gbs", axpy_bytes / axpy_s / 1e9);
    ctx.set("tensor.dot_gbs", dot_bytes / dot_s / 1e9);

    // Ceilings, measured in the same run: a non-fused multiply-add rate and
    // a copy bandwidth over arrays no cache can hold.
    let iters = 20_000;
    let s = ctx.bench("-", Phase::Rounds, "tensor", "peak_mul_add", || {
        black_box(peak_mul_add(black_box(iters)));
    });
    let peak = (2 * 256 * iters) as f64 / s / 1e9;
    ctx.set("tensor.peak_mul_add_gflops", peak);
    ctx.set("tensor.gemm_nt_peak_ratio", gemm_256 / peak);

    let (bytes, llc) = stream_array_bytes(ctx);
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    dst.copy_from_slice(&src); // first touch of `dst`, untimed
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let ((), s) = ctx.once("-", Phase::Rounds, "tensor", "stream_copy", || {
            dst.copy_from_slice(black_box(&src));
        });
        best = best.min(s);
    }
    black_box(&dst);
    ctx.set("tensor.stream_copy_gbs", 2.0 * bytes as f64 / best / 1e9);
    ctx.set("tensor.stream_array_mib", bytes as f64 / (1 << 20) as f64);
    ctx.set("tensor.llc_mib", llc as f64 / (1 << 20) as f64);
}

pub fn nn(ctx: &mut Ctx<'_>) {
    for (workload, lg_name, eval_name) in [
        (
            DENSE,
            "nn.loss_and_grad_us.vision_b32",
            "nn.evaluate_samples_per_s.vision",
        ),
        (
            HOSTILE,
            "nn.loss_and_grad_us.speech_b32",
            "nn.evaluate_samples_per_s.speech",
        ),
    ] {
        let w = ctx.workload(workload);
        let (spec, model) = task_of(w);
        let params = model.init_params(&mut init::rng(ctx.seed()));
        let data = spec.generate(w.samples(ctx.size()), ctx.seed());
        let (train, test) = data.split_holdout(6);
        let batch = train.batch(&(0..32).collect::<Vec<_>>());
        let mut grad = vec![0.0f32; model.param_len()];
        let mut ws = model.workspace();
        let s = ctx.bench(workload, Phase::Rounds, "nn", "loss_and_grad_b32", || {
            black_box(model.loss_and_grad(
                &params,
                &batch.features,
                &batch.labels,
                &mut grad,
                &mut ws,
            ));
        });
        ctx.set(lg_name, s * 1e6);
        ctx.model_s(
            if w.speech {
                "nn.lg_s.speech"
            } else {
                "nn.lg_s.vision"
            },
            s,
        );
        let s = ctx.bench(workload, Phase::Rounds, "nn", "evaluate", || {
            black_box(model.evaluate(&params, test.features(), test.labels()));
        });
        ctx.set(eval_name, test.len() as f64 / s);
        ctx.model_s(
            if w.speech {
                "nn.eval_s.speech"
            } else {
                "nn.eval_s.vision"
            },
            s,
        );
    }
    let share = ctx.model("tensor.gemm_s_per_batch") / ctx.model("nn.lg_s.vision");
    ctx.set("nn.kernel_share", share);

    // Evaluation on the virtual populations' holdout (vision, 2000 rows).
    let w = ctx.workload(SECURE);
    let (spec, model) = task_of(w);
    let params = model.init_params(&mut init::rng(ctx.seed()));
    let test = spec.generate(w.samples(ctx.size()) / 6, ctx.seed());
    let s = ctx.bench(SECURE, Phase::Rounds, "nn", "evaluate", || {
        black_box(model.evaluate(&params, test.features(), test.labels()));
    });
    ctx.model_s("nn.eval_s.virtual", s);
}

/// One client's local training, as the engine's `run_unit` sets it up.
fn client_step(
    model: &Network,
    start: &[f32],
    data: &Dataset,
    indices: &[usize],
    epochs: usize,
    client: usize,
    scratch: &mut LocalScratch,
) {
    let mut params = start.to_vec();
    let mut rng = init::rng(client as u64);
    let task = LocalTask {
        client,
        model,
        group_start: start,
        global_start: start,
        data,
        indices,
        epochs,
        batch_size: 32,
        lr: 0.05,
        round: 0,
    };
    black_box(FedAvg.train(&task, &mut params, scratch, &mut rng));
}

/// Totals over the client steps of one shape.
struct StepTotals {
    seconds: f64,
    steps: usize,
    samples: usize,
    batches: usize,
    /// Seconds of the client whose shard is the median size.
    median_client_s: f64,
}

/// A step lasts a fraction of a millisecond and a burst on the host lasts
/// longer: each is timed three times and the middle reading kept.
fn median_of_three(mut timed: impl FnMut() -> f64) -> f64 {
    let mut readings = [timed(), timed(), timed()];
    readings.sort_by(f64::total_cmp);
    readings[1]
}

/// Steps every client of a materialized federation.
fn materialized_steps(ctx: &mut Ctx<'_>, workload: &'static str) -> StepTotals {
    let w = ctx.workload(workload);
    let (spec, model) = task_of(w);
    let data = spec.generate(w.samples(ctx.size()), ctx.seed());
    let (train, _) = data.split_holdout(6);
    let partition = ClientPartition::dirichlet(&train, &partition_spec(w, ctx.size(), ctx.seed()));
    let start = model.init_params(&mut init::rng(ctx.seed()));
    let mut scratch = LocalScratch::new(&model);
    // Warm the scratch buffers on the largest shard, as the engine's pool is
    // after its first round.
    let order = {
        let mut order: Vec<usize> = (0..partition.num_clients()).collect();
        order.sort_by_key(|&c| partition.indices[c].len());
        order
    };
    let largest = *order.last().expect("at least one client");
    client_step(
        &model,
        &start,
        &train,
        &partition.indices[largest],
        w.e,
        largest,
        &mut scratch,
    );
    let mut totals = StepTotals {
        seconds: 0.0,
        steps: 0,
        samples: 0,
        batches: 0,
        median_client_s: 0.0,
    };
    for c in 0..partition.num_clients() {
        let indices = &partition.indices[c];
        let s = median_of_three(|| {
            ctx.once(workload, Phase::Rounds, "core.local", "client_step", || {
                client_step(&model, &start, &train, indices, w.e, c, &mut scratch);
            })
            .1
        });
        totals.seconds += s;
        totals.steps += 1;
        totals.samples += indices.len() * w.e;
        totals.batches += indices.len().div_ceil(32) * w.e;
        if c == order[order.len() / 2] {
            totals.median_client_s = s;
        }
    }
    totals
}

pub fn local(ctx: &mut Ctx<'_>) {
    let dense = materialized_steps(ctx, DENSE);
    ctx.set("local.client_step_us.dense", dense.median_client_s * 1e6);
    ctx.set("local.samples_per_s", dense.samples as f64 / dense.seconds);
    ctx.model_s("local.step_s.dense", dense.seconds / dense.steps as f64);

    let light = materialized_steps(ctx, HOSTILE);
    ctx.set("local.client_step_us.light", light.median_client_s * 1e6);
    ctx.model_s("local.step_s.light", light.seconds / light.steps as f64);
    // Both sides in reference units: the kernel was timed a probe earlier.
    let in_kernels = light.batches as f64 * ctx.model("nn.lg_s.speech");
    let in_steps = light.steps as f64 * ctx.model("local.step_s.light");
    ctx.set("local.step_overhead_share", 1.0 - in_kernels / in_steps);

    // Virtual populations derive the shard first, then step on it (E = 1).
    let w = ctx.workload(SECURE);
    let (_, model) = task_of(w);
    let pop = vision_population(w.clients(ctx.size()), ctx.seed());
    let start = model.init_params(&mut init::rng(ctx.seed()));
    let mut scratch = LocalScratch::new(&model);
    let sampled = 200.min(pop.num_clients());
    let stride = pop.num_clients() / sampled;
    let (mut shard_s, mut step_s) = (Vec::new(), Vec::new());
    for c in (0..sampled).map(|i| i * stride) {
        shard_s.push(median_of_three(|| {
            ctx.once(SECURE, Phase::Rounds, "data", "shard", || pop.shard(c))
                .1
        }));
        let shard = pop.shard(c);
        let indices: Vec<usize> = (0..shard.len()).collect();
        step_s.push(median_of_three(|| {
            ctx.once(SECURE, Phase::Rounds, "core.local", "client_step", || {
                client_step(&model, &start, &shard, &indices, w.e, c, &mut scratch);
            })
            .1
        }));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    ctx.set(
        "data.shard_us",
        crate::stats::median(&shard_s).expect("shards timed") * 1e6,
    );
    ctx.set(
        "local.client_step_us.virtual",
        crate::stats::median(&step_s).expect("steps timed") * 1e6,
    );
    ctx.model_s("data.shard_s", mean(&shard_s));
    ctx.model_s("local.step_s.virtual", mean(&step_s));
}
