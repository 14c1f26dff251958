//! Standalone perf harness for the training hot path.
//!
//! Runs a paper_vision-shaped workload (§7.2: K=5, E=2, 12 sampled groups,
//! batch 32, vision model) for a few global rounds at each worker-thread
//! count, measuring rounds/sec and heap allocations per round via a
//! counting global allocator, then writes the results to
//! `BENCH_ROUND.json` (and stdout). Each thread count runs one warm-up
//! round, reported as `warmup_allocs`, before the `N` rounds it measures,
//! so `allocs_per_round` counts warm rounds only and does not depend on
//! `N`.
//!
//! Usage: `cargo run --release -p gfl-bench --bin bench_round [-- --rounds N]`
//!
//! Results are bit-identical across thread counts by construction (see
//! `crates/core/tests/determinism.rs`); this harness only measures time
//! and allocation pressure. The report records the machine's core count —
//! thread-scaling numbers are only meaningful when cores >= threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gfl_core::driver::{Clock, Membership, RunPlan, RunState};
use gfl_core::engine::{form_groups_per_edge, GroupFelConfig, Trainer};
use gfl_core::grouping::CovGrouping;
use gfl_core::local::FedAvg;
use gfl_core::prelude::{FaultPlan, FaultPolicy};
use gfl_core::sampling::SamplingStrategy;
use gfl_core::semi_async::AsyncConfig;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_secagg::{RangeScratch, SecAggSession};
use gfl_sim::Topology;
use rand::RngCore;

/// Counts every allocation and reallocation on top of the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn build_paper_scale(rounds: usize) -> (Trainer, Vec<Vec<usize>>, Topology) {
    let data = SyntheticSpec::vision_like().generate(6_000, 1);
    let (train, test) = data.split_holdout(6);
    let partition = ClientPartition::dirichlet(
        &train,
        &PartitionSpec {
            num_clients: 60,
            alpha: 0.1,
            min_size: 20,
            max_size: 160,
            seed: 1,
        },
    );
    let topology = Topology::even_split(3, partition.sizes());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 5,
            max_cov: 0.5,
        },
        &topology,
        &partition.label_matrix,
        1,
    );
    let mut config = GroupFelConfig::paper_vision();
    config.global_rounds = rounds;
    config.cost_budget = None;
    config.eval_every = rounds; // evaluate once, not per round
    config.seed = 1;
    let data = (train, partition);
    let trainer = Trainer::try_new(config, gfl_nn::zoo::vision_model(), data, test)
        .expect("valid configuration");
    (trainer, groups, topology)
}

/// Deterministic non-zero fill for GEMM operands.
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

/// The vision model's layers at batch 32, as `(batch, out, in)`.
const VISION_LAYERS: [(usize, usize, usize); 3] = [(32, 128, 64), (32, 64, 128), (32, 10, 64)];

/// Best-of-three seconds per call of `f`, the iteration count calibrated
/// to ~150 ms per rep to shave scheduler noise.
fn seconds_per_call(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let dt = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.15 / dt).ceil() as usize).clamp(1, 1_000_000);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// Rows per second of the two lane-per-row softmax kernels at `classes`,
/// at the shapes the light task calls them with: `softmax_xent_rows` on a
/// batch of 32 (copy of the logits included, as in `loss_and_grad`),
/// `xent_argmax_rows` on an evaluation chunk of 256.
fn softmax_rows_per_s(classes: usize) -> (f64, f64) {
    use gfl_tensor::simd;
    let (batch, chunk) = (32usize, 256usize);
    let logits: Vec<f32> = filled(chunk * classes, 3)
        .iter()
        .map(|u| u * 16.0)
        .collect();
    let labels: Vec<usize> = (0..chunk).map(|r| r * 7 % classes).collect();
    let mut block = Vec::new();
    let mut delta = vec![0.0f32; batch * classes];
    let step_s = seconds_per_call(|| {
        delta.copy_from_slice(&logits[..batch * classes]);
        let loss = simd::softmax_xent_rows(
            &mut delta,
            classes,
            &labels[..batch],
            1.0 / 32.0,
            &mut block,
        );
        std::hint::black_box((loss, &delta));
    });
    let eval_s = seconds_per_call(|| {
        std::hint::black_box(simd::xent_argmax_rows(
            std::hint::black_box(&logits),
            classes,
            &labels,
            &mut block,
        ));
    });
    (batch as f64 / step_s, chunk as f64 / eval_s)
}

/// The light task's two layer figures at the active tier and the default
/// thread count: `Network::evaluate` over the 10 000-row speech test set
/// (samples/s) and one batch-32 `loss_and_grad` (µs).
fn speech_layer_section() -> serde_json::Value {
    let model = gfl_nn::zoo::speech_model();
    let data = SyntheticSpec::speech_like().generate(10_000, 1);
    let params = model.init_params(&mut gfl_tensor::init::rng(1));
    let eval_s = seconds_per_call(|| {
        std::hint::black_box(model.evaluate(&params, data.features(), data.labels()));
    });
    let batch = data.subset(&(0..32).collect::<Vec<_>>());
    let (mut grad, mut ws) = (vec![0.0; model.param_len()], model.workspace());
    let step_s = seconds_per_call(|| {
        std::hint::black_box(model.loss_and_grad(
            &params,
            batch.features(),
            batch.labels(),
            &mut grad,
            &mut ws,
        ));
    });
    eprintln!(
        "speech model: evaluate {:.2} Msamples/s  loss_and_grad b32 {:.2} us",
        10_000.0 / eval_s / 1e6,
        step_s * 1e6
    );
    serde_json::json!({
        "workload": "speech model (40-48-35): evaluate over 10 000 test rows on `threads` workers; one batch-32 loss_and_grad (docs/PERF.md, Softmax tails)",
        "threads": gfl_parallel::default_parallelism(),
        "evaluate_samples_per_s_speech": 10_000.0 / eval_s,
        "loss_and_grad_us_speech_b32": step_s * 1e6,
    })
}

/// Single-threaded GEMM GFLOP/s, once per SIMD tier this machine supports:
/// `gemm_nt` on a paper-shaped layer (batch 256 × 256 outputs × 784
/// inputs), and `gemm_nt`/`gemm_tn` time-weighted over the vision model's
/// own three layers — the table the tier-pruning rule reads (a tier stays
/// only if it is >= 1.15x the tier below on both). Returns the per-tier
/// rows plus the detected-best-tier-over-scalar throughput ratio.
fn gemm_gflops_per_tier() -> (Vec<serde_json::Value>, Option<f64>) {
    use gfl_tensor::simd;
    let (m, n, k) = (256usize, 256usize, 784usize);
    let a = filled(m * k, 1);
    let b = filled(n * k, 2);
    let mut out = vec![0.0f32; m * n];
    let flops = (2 * m * n * k) as f64;
    let vision_flops: f64 = VISION_LAYERS
        .iter()
        .map(|&(b, o, i)| (2 * b * o * i) as f64)
        .sum();
    let active = simd::active_tier();
    let mut rows = Vec::new();
    let mut scalar_gflops = None;
    let mut active_gflops = None;
    for tier in simd::supported_tiers() {
        let prev = simd::set_tier(tier);
        let best = seconds_per_call(|| simd::gemm_nt(&a, &b, &mut out, m, n, k));
        std::hint::black_box(&out);
        let (mut nt_s, mut tn_s) = (0.0, 0.0);
        for (l, &(batch, o, i)) in VISION_LAYERS.iter().enumerate() {
            let acts = filled(batch * i, 1 + l as u64);
            let weights = filled(o * i, 11 + l as u64);
            let deltas = filled(batch * o, 21 + l as u64);
            let mut out = vec![0.0f32; batch * o];
            let mut grad = vec![0.0f32; o * i];
            nt_s += seconds_per_call(|| simd::gemm_nt(&acts, &weights, &mut out, batch, o, i));
            tn_s += seconds_per_call(|| simd::gemm_tn(&deltas, &acts, &mut grad, batch, o, i));
            std::hint::black_box((&out, &grad));
        }
        let (xent_35, argmax_35) = softmax_rows_per_s(35);
        let (xent_10, argmax_10) = softmax_rows_per_s(10);
        simd::set_tier(prev);
        let gflops = flops / best / 1e9;
        let (nt_vision, tn_vision) = (vision_flops / nt_s / 1e9, vision_flops / tn_s / 1e9);
        eprintln!(
            "[{:>6}] gemm_nt 256x256x784 {gflops:6.2}  vision b32: gemm_nt {nt_vision:6.2}  gemm_tn {tn_vision:6.2} GFLOP/s",
            tier.name()
        );
        eprintln!(
            "[{:>6}] Mrows/s at 35 classes: softmax_xent {:6.2}  xent_argmax {:6.2}   at 10: {:6.2}  {:6.2}",
            tier.name(),
            xent_35 / 1e6,
            argmax_35 / 1e6,
            xent_10 / 1e6,
            argmax_10 / 1e6
        );
        if tier == simd::SimdTier::Scalar {
            scalar_gflops = Some(gflops);
        }
        if tier == active {
            active_gflops = Some(gflops);
        }
        rows.push(serde_json::json!({
            "tier": tier.name(),
            "gemm_gflops": gflops,
            "seconds_per_gemm": best,
            "vision_gemm_nt_gflops": nt_vision,
            "vision_gemm_tn_gflops": tn_vision,
            "softmax_xent_rows_per_s": xent_35,
            "xent_argmax_rows_per_s": argmax_35,
            "softmax_xent_rows_per_s_10c": xent_10,
            "xent_argmax_rows_per_s_10c": argmax_10,
        }));
    }
    let ratio = match (scalar_gflops, active_gflops) {
        (Some(s), Some(a)) if s > 0.0 => Some(a / s),
        _ => None,
    };
    (rows, ratio)
}

/// Secure aggregation at the `secure-covg` shape (vision model, a group of
/// ten, nobody dropped), single-threaded: the keystream fill of one mask
/// against a plain copy of as many bytes, and one round party by party
/// (`aggregate`) against the fused chunked pass the engine runs.
fn secagg_section() -> serde_json::Value {
    let (dim, g) = (gfl_nn::zoo::vision_model().param_len(), 10u32);
    let mut bytes = vec![0u8; 4 * dim];
    let fill_s = seconds_per_call(|| gfl_tensor::init::rng(7).fill_bytes(&mut bytes));
    let source = bytes.clone();
    let copy_s = seconds_per_call(|| {
        bytes.copy_from_slice(std::hint::black_box(&source));
        std::hint::black_box(&mut bytes);
    });
    let gbs = |s: f64| bytes.len() as f64 / s / 1e9;

    let updates: Vec<Vec<f32>> = (0..g).map(|c| filled(dim, 31 + u64::from(c))).collect();
    let session = SecAggSession::new((0..g).collect(), dim, 7);
    let party_s = seconds_per_call(|| {
        std::hint::black_box(session.aggregate(&updates));
    });
    let survivors = gfl_bench::unit_survivors(&updates);
    let (mut out, mut scratch) = (vec![0.0; dim], RangeScratch::default());
    let fused_s = seconds_per_call(|| {
        gfl_bench::fused_secagg_round(&session, &survivors, &mut out, &mut scratch);
        std::hint::black_box(&out);
    });
    assert_eq!(out, session.aggregate(&updates).0, "fused round diverged");
    eprintln!(
        "secagg d={dim} g={g}: mask fill {:.2} GB/s (copy {:.1} GB/s)  round {:.2} ms by party, {:.2} ms fused",
        gbs(fill_s),
        gbs(copy_s),
        party_s * 1e3,
        fused_s * 1e3
    );
    serde_json::json!({
        "workload": "vision model, group of 10, no dropouts, single thread (docs/PERF.md, Secure aggregation)",
        "mask_fill_gbs": gbs(fill_s),
        "stream_copy_gbs": gbs(copy_s),
        "round_by_party_ms": party_s * 1e3,
        "round_fused_ms": fused_s * 1e3,
    })
}

/// The two writers of an observed run: one span line through the stream
/// writer (a barrier of 1 000 `client_step` spans into a discarding sink,
/// per line), and `Checkpoint::save` of a `hostile-observed`-shaped state
/// (18 536 events) to a file in the temp directory.
fn serialize_section() -> serde_json::Value {
    use gfl_obs::{RoundMetrics, SpanAttrs, SpanKind, StreamConfig, TraceCollector};
    const SPANS: usize = 1_000;
    let obs = TraceCollector::streaming(Box::new(std::io::sink()), 1, StreamConfig::default());
    let mut round = 0;
    let mut barrier_s = || {
        for i in 0..SPANS {
            let attrs = SpanAttrs::client_step(round, i % 3, i % 59, i);
            let start = (round * SPANS + i) as u64 * 1_000;
            obs.record_span_at(SpanKind::ClientStep, start, start + 16_384, attrs);
        }
        let t0 = Instant::now();
        obs.record_round(RoundMetrics::empty(round));
        round += 1;
        t0.elapsed().as_secs_f64()
    };
    let per_barrier = (0..3)
        .map(|_| (0..50).map(|_| barrier_s()).sum::<f64>() / 50.0)
        .fold(f64::INFINITY, f64::min);
    let span_line_ns = per_barrier / SPANS as f64 * 1e9;

    let cp = gfl_test_support::hostile_checkpoint(18_536);
    let path = std::env::temp_dir().join(format!("bench_round_{}.json", std::process::id()));
    let save_s = seconds_per_call(|| cp.save(&path).expect("save the checkpoint"));
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);
    let save_mb_per_s = bytes as f64 / save_s / 1e6;
    eprintln!(
        "serialize: span line {span_line_ns:.0} ns through the stream writer; \
         Checkpoint::save {save_mb_per_s:.0} MB/s ({:.2} MB, {:.2} ms)",
        bytes as f64 / 1e6,
        save_s * 1e3
    );
    serde_json::json!({
        "workload": "a streamed barrier of 1 000 client_step spans into a discarding sink (per line); Checkpoint::save of gfl_test_support::hostile_checkpoint(18 536) to the temp directory; single thread (docs/PERF.md, Writers)",
        "span_line_ns": span_line_ns,
        "checkpoint_bytes": bytes,
        "checkpoint_save_mb_per_s": save_mb_per_s,
    })
}

/// Runs the same workload through the event-driven scheduler under a
/// straggler plan (a quarter of the fleet slowed 8×) and returns the
/// final emulated clock — wait-for-all vs quorum-or-deadline
/// (docs/ASYNC.md). Deterministic, so the clocks are exact, not sampled.
fn emulated_clock_s(rounds: usize, policy: FaultPolicy) -> f64 {
    let (trainer, groups, topology) = build_paper_scale(rounds);
    let plan = FaultPlan {
        seed: 1,
        straggler_fraction: 0.25,
        straggler_factor: 8.0,
        straggler_jitter: 0.25,
        ..FaultPlan::none()
    };
    let trainer = trainer.with_faults(plan, policy, &topology);
    let probs = trainer.sampling_probs(&groups, SamplingStrategy::ESRCov);
    let plan = RunPlan {
        clock: Clock::EventDriven(AsyncConfig::default()),
        membership: Membership::Static {
            groups: &groups,
            probs: &probs,
        },
    };
    let state = trainer
        .run_plan(&FedAvg, &plan)
        .expect("a static partition is never re-formed");
    state
        .scheduler
        .expect("event-clock runs carry a scheduler")
        .clock_s
}

fn main() {
    let mut rounds = 3usize;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--rounds" => {
                rounds = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds needs a positive integer");
            }
            other => panic!("unknown argument '{other}' (supported: --rounds N)"),
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Expose the counting allocator to the observability layer so traced
    // runs report allocs/round from the same counter this harness uses.
    gfl_obs::alloc::register_alloc_counter(|| ALLOCS.load(Ordering::Relaxed));
    let (trainer, groups, _) = build_paper_scale(rounds);
    let param_count = trainer.model().param_len();
    let probs = trainer.sampling_probs(&groups, SamplingStrategy::ESRCov);
    let plan = RunPlan {
        clock: Clock::Lockstep,
        membership: Membership::Static {
            groups: &groups,
            probs: &probs,
        },
    };
    // One warm-up round, then the `rounds` measured ones, each driven on
    // its own and evaluated: every measured round does the same work, so
    // the per-round figures do not depend on `--rounds`.
    let leg = |state: &mut RunState| {
        trainer
            .drive(&FedAvg, &plan, state, 1)
            .expect("a static partition is never re-formed");
    };
    let allocs_of = |f: &mut dyn FnMut()| {
        let before = ALLOCS.load(Ordering::Relaxed);
        f();
        ALLOCS.load(Ordering::Relaxed) - before
    };

    // Warm-up at one thread: the whole run once, so every pool is sized
    // for the groups it samples. Its history is the reference.
    gfl_parallel::set_default_parallelism(1);
    let mut reference = trainer.start(&FedAvg);
    (0..=rounds).for_each(|_| leg(&mut reference));

    let mut results = Vec::new();
    let mut per_rounds: Vec<f64> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        gfl_parallel::set_default_parallelism(threads);
        let mut state = trainer.start(&FedAvg);
        // No measured round regrows the history.
        state.history.reserve_rounds(rounds + 1);
        // Worker spawn and per-worker scratch at this width.
        let warmup_allocs = allocs_of(&mut || leg(&mut state));
        let pool_start = gfl_parallel::stats::snapshot();
        let t0 = Instant::now();
        let allocs = allocs_of(&mut || (0..rounds).for_each(|_| leg(&mut state)));
        let secs = t0.elapsed().as_secs_f64();
        let pool = gfl_parallel::stats::snapshot().since(pool_start);
        assert_eq!(
            state.history, reference.history,
            "thread count changed the result"
        );
        let per_round = secs / rounds as f64;
        // A timing row is only an honest scaling datum when the machine
        // actually has a core per worker thread.
        let reliable = cores >= threads;
        eprintln!(
            "threads={threads:2}  {:7.3} s/round  {:9.4} rounds/s  {:8} allocs/round  {:6} warm-up allocs  pool util {:5.1}%  steals {}{}",
            per_round,
            1.0 / per_round,
            allocs / rounds as u64,
            warmup_allocs,
            pool.utilization() * 100.0,
            pool.steals,
            if reliable { "" } else { "  [unreliable: threads > cores]" }
        );
        results.push(serde_json::json!({
            "threads": threads,
            "cores": cores,
            "reliable": reliable,
            "seconds_per_round": per_round,
            "rounds_per_sec": 1.0 / per_round,
            "allocs_per_round": allocs / rounds as u64,
            "warmup_allocs": warmup_allocs,
            "pool_utilization": pool.utilization(),
            "pool_regions": pool.regions,
            "pool_claims": pool.claims,
            "pool_steals": pool.steals,
        }));
        per_rounds.push(per_round);
    }
    // Emulated wall-clock under stragglers: the same workload closed
    // wait-for-all vs quorum-or-deadline through the semi-async runtime.
    let clock_sync = emulated_clock_s(
        rounds,
        FaultPolicy {
            quorum_fraction: 1.0,
            deadline_factor: 0.0,
            ..FaultPolicy::default()
        },
    );
    let clock_semi = emulated_clock_s(
        rounds,
        FaultPolicy {
            quorum_fraction: 0.8,
            deadline_factor: 2.5,
            ..FaultPolicy::default()
        },
    );
    eprintln!(
        "emulated clock under 8x stragglers: sync {:.1} s/round, semi-async {:.1} s/round ({:.2}x)",
        clock_sync / rounds as f64,
        clock_semi / rounds as f64,
        clock_sync / clock_semi
    );
    gfl_parallel::set_default_parallelism(0);

    // SIMD microkernel throughput, per dispatch tier, single-threaded.
    let (simd_tiers, simd_speedup) = gemm_gflops_per_tier();

    let speech_layers = speech_layer_section();

    let secagg = secagg_section();

    let serialize = serialize_section();

    // Honest scaling summary: the 8-vs-1 speedup is only reported when the
    // 8-thread row was measured with 8 real cores behind it.
    let speedup_8_vs_1 = (cores >= 8).then(|| per_rounds[0] / per_rounds[3]);
    if speedup_8_vs_1.is_none() {
        eprintln!(
            "warning: only {cores} core(s) available; rows with threads > cores are \
             oversubscribed and no 8-vs-1 thread-scaling speedup is reported"
        );
    }

    let report = serde_json::json!({
        "workload": "paper_vision-shaped: 60 clients / 3 edges, K=5, E=2, 12 sampled groups, batch 32, vision model",
        "param_count": param_count,
        "rounds_measured": rounds,
        "cores": cores,
        "results": results,
        "speedup_8_vs_1_threads": speedup_8_vs_1,
        "speedup_warning": if speedup_8_vs_1.is_none() {
            Some(format!(
                "machine has {cores} core(s); speedup_8_vs_1_threads requires >= 8 \
                 (rows with reliable=false are oversubscribed)"
            ))
        } else {
            None
        },
        "simd": serde_json::json!({
            "workload": "gemm_nt 256x256x784 f32 (gemm_gflops), gemm_nt/gemm_tn over the vision model's layers at batch 32, and the lane-per-row softmax kernels at 35 classes (the speech model's; `_10c`: the vision model's 10) — softmax_xent_rows on a batch of 32, xent_argmax_rows on an evaluation chunk of 256; single thread",
            "active_tier": gfl_tensor::simd::active_tier().name(),
            "tiers": simd_tiers,
            "speedup_vs_scalar": simd_speedup,
        }),
        "nn": speech_layers,
        "secagg": secagg,
        "serialize": serialize,
        "emulated_clock": serde_json::json!({
            "plan": "straggler_fraction 0.25, straggler_factor 8.0, jitter 0.25 (docs/ASYNC.md)",
            "sync_clock_s_per_round": clock_sync / rounds as f64,
            "semi_async_clock_s_per_round": clock_semi / rounds as f64,
            "semi_async_speedup": clock_sync / clock_semi,
        }),
        "note": "results are bit-identical across thread counts; speedup only materializes when cores >= threads",
    });
    let pretty = serde_json::to_string_pretty(&report).unwrap();
    std::fs::write("BENCH_ROUND.json", format!("{pretty}\n")).expect("write BENCH_ROUND.json");
    println!("{pretty}");
}
