//! Determinism suite: bit-identical results across worker-thread counts.
//!
//! The engine runs each global round as one task graph on the pool — every
//! sampled group's chain of member steps, drains and SecAgg chunks — so
//! *which* thread runs a client or a drain, and in what order, varies
//! freely with the parallelism degree. This suite pins each test thread's
//! worker count to 1, 2, and 8 in turn and asserts that the
//! full [`RunHistory`] (records, fault log, regroup log) and the final
//! model parameters are bit-for-bit identical in every configuration the
//! engine supports: clean, fault-injected, churned/self-healing, and
//! secure-aggregation runs.
//!
//! Set `GFL_SEED` (CI runs 1 and 2) to shift every seed in the suite and
//! shake out seed-sensitive nondeterminism.

use std::sync::{Barrier, Mutex};

use gfl_core::local::LocalScratch;
use gfl_core::membership::RegroupPolicy;
use gfl_core::prelude::*;
use gfl_faults::{AdversaryPlan, ChurnPlan, FaultPlan, FaultPolicy};
use gfl_nn::Params;
use gfl_sim::Topology;
use gfl_tensor::init::GflRng;
use gfl_tensor::simd::{self, SimdTier};
use gfl_tensor::Scalar;
use gfl_test_support::{
    assert_bit_identical, covg, for_each_thread_count, seed_offset, tiny_world, Runs, Streamed,
};

/// Thread counts every path must agree across.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn clean_run_is_bit_identical_across_thread_counts() {
    let w = tiny_world(31);
    assert_bit_identical(&THREAD_COUNTS, || {
        w.trainer().run_static(&w.groups, SamplingStrategy::ESRCov)
    });
}

#[test]
fn virtual_population_build_is_bit_identical_across_thread_counts() {
    // The build writes each chunk of clients into its own range of the
    // final buffers; where the chunk boundaries fall must not show. 4 001
    // does not divide by 2 or 8, and 5 clients are fewer than 8 workers.
    let seed = 17 + seed_offset();
    for clients in [4_001, 5] {
        for alpha in [0.01, 0.5] {
            assert_bit_identical(&THREAD_COUNTS, || {
                let mut spec = gfl_data::VirtualSpec::paper_vision(clients, alpha, seed);
                spec.data = gfl_data::SyntheticSpec::speech_like();
                let pop = gfl_data::VirtualPopulation::new(spec);
                let sizes: Vec<usize> = (0..clients).map(|c| pop.client_size(c)).collect();
                (sizes, pop.total_samples(), pop.label_matrix().clone())
            });
        }
    }
}

#[test]
fn virtual_population_run_is_bit_identical_across_thread_counts() {
    // Virtual populations add two more thread-sensitive stages: the
    // chunked parallel population build (per-client summary statistics)
    // and the on-demand shard materialization inside each work unit. Both
    // must be invariant — the whole pipeline from `VirtualSpec` to final
    // parameters is rebuilt per thread count here, nothing is shared.
    let seed = 91 + seed_offset();
    assert_bit_identical(&THREAD_COUNTS, || {
        let pop =
            gfl_data::VirtualPopulation::new(gfl_data::VirtualSpec::paper_vision(4_000, 0.1, seed));
        let sizes: Vec<usize> = (0..pop.num_clients()).map(|c| pop.client_size(c)).collect();
        let topo = Topology::even_split(4, sizes);
        let groups = form_groups_per_edge(
            &StreamGrouping { group_size: 8 },
            &topo,
            pop.label_matrix(),
            seed,
        );
        let test = pop.test_set(256);
        let mut cfg = GroupFelConfig::tiny();
        cfg.seed = seed;
        let hists: Vec<Vec<u32>> = (0..pop.num_clients())
            .map(|c| pop.label_matrix().client(c).to_vec())
            .collect();
        let t = Trainer::try_new(cfg, gfl_nn::zoo::vision_model(), pop, test).unwrap();
        let (h, p) = t.run_static(&groups, SamplingStrategy::ESRCov);
        (h, p, groups, hists)
    });
}

#[test]
fn faulted_run_is_bit_identical_across_thread_counts() {
    // Crashes, straggler cuts, corrupt rejections, outages, and quorum
    // skips must all land on the same (t, k, client) coordinates — and in
    // the same event-log order — no matter how units are scheduled.
    let w = tiny_world(32);
    assert_bit_identical(&THREAD_COUNTS, || {
        let t = w
            .trainer()
            .with_faults(FaultPlan::moderate(99), FaultPolicy::default(), &w.topo);
        let (h, p) = t.run_static(&w.groups, SamplingStrategy::ESRCov);
        assert!(
            h.events().iter().any(|e| e.fault().is_some()),
            "plan should inject faults for this test to mean anything"
        );
        (h, p)
    });
}

#[test]
fn churned_self_healing_run_is_bit_identical_across_thread_counts() {
    // The self-healing loop layers churn transitions and online regrouping
    // on top of training; membership, regroup log, and model must all
    // match across thread counts.
    let w = tiny_world(33);
    assert_bit_identical(&THREAD_COUNTS, || {
        let t = w.trainer().with_churn(
            ChurnPlan {
                horizon: w.cfg.global_rounds,
                ..ChurnPlan::moderate(w.cfg.seed)
            },
            RegroupPolicy::default(),
        );
        let (h, p, m) = t
            .run_healing(&covg(2, 1.0), &w.topo, SamplingStrategy::ESRCov)
            .expect("self-healing run failed");
        (h, p, m.groups().to_vec())
    });
}

#[test]
fn hostile_event_clock_chains_are_bit_identical_across_thread_counts() {
    // The shape each global round's task graph is hardest on: K = 3 group
    // rounds per chain, drains (the FLAME filter, then the axpy) on
    // whichever worker finishes a round, event-clock cuts, faults,
    // poisoning and a self-healing partition under churn, all at once.
    let seed = 39 + seed_offset();
    let spec = gfl_data::PartitionSpec {
        num_clients: 40,
        ..gfl_data::PartitionSpec::tiny(0.5, seed)
    };
    let cfg = GroupFelConfig {
        seed,
        global_rounds: 8,
        group_rounds: 3,
        sampled_groups: 3,
        ..GroupFelConfig::tiny()
    };
    let w = gfl_test_support::TinyWorld::build(2_000, &spec, &covg(6, 10.0), cfg);
    assert_bit_identical(&THREAD_COUNTS, || {
        let t = w
            .trainer()
            // A group round closes once 70 % of its reports are in, so
            // enough survive for the filter to cluster.
            .with_faults(
                FaultPlan::moderate(seed),
                FaultPolicy {
                    quorum_fraction: 0.7,
                    ..FaultPolicy::default()
                },
                &w.topo,
            )
            .with_churn(
                ChurnPlan {
                    horizon: w.cfg.global_rounds,
                    ..ChurnPlan::moderate(seed)
                },
                RegroupPolicy::default(),
            )
            .with_adversary(AdversaryPlan::moderate(seed))
            .with_robust_agg(RobustAggRule::FlameFilter);
        let (h, p, _, m) = t
            .run_event_healing(
                &covg(6, 10.0),
                &w.topo,
                SamplingStrategy::ESRCov,
                &AsyncConfig::default(),
            )
            .expect("the hostile world keeps a partition");
        let defended = h.events().iter().filter_map(Event::attack);
        assert!(
            summarize_attacks(defended).filtered_flame > 0,
            "the filter should reject someone for this test to mean anything"
        );
        assert!(h.events().iter().any(|e| e.fault().is_some()));
        (h, p, m.groups().to_vec())
    });
}

#[test]
fn secure_chains_with_dropout_are_bit_identical_across_thread_counts() {
    // Secure aggregation at K = 3: each group round's drain opens a session
    // and pushes its chunks as tasks, and the last chunk releases the next
    // round — with members dropping, so recovery runs in every chunk.
    let mut w = tiny_world(40);
    let groups = w.groups_with(4, 10.0);
    w.model = gfl_nn::Mlp::new(vec![4, 64, 32, 3]).into();
    w.cfg.group_rounds = 3;
    w.cfg.secure_aggregation = true;
    w.cfg.dropout_prob = 0.3;
    assert_bit_identical(&THREAD_COUNTS, || {
        w.trainer().run_static(&groups, SamplingStrategy::Random)
    });
}

#[test]
fn traced_run_is_bit_identical_to_untraced_run() {
    // Tracing observes wall-clock time, which differs every run — but none
    // of it may leak into simulation state. A run with a collector attached
    // (and a trace sink written) must produce byte-identical history and
    // final parameters to the untraced run, at 1 and 8 threads alike.
    let w = tiny_world(35);
    let mut base = None;
    for_each_thread_count(&[1], |_| {
        base = Some(w.trainer().run_static(&w.groups, SamplingStrategy::ESRCov));
    });
    let (base_h, base_p) = base.expect("the baseline ran");
    let base_h_bytes = serde_json::to_string(&base_h).expect("serialize history");

    for_each_thread_count(&[1, 8], |threads| {
        // A counting collector (what `--metrics` alone attaches) and a
        // streaming one: neither may move a bit of the run.
        let obs = gfl_obs::TraceCollector::new();
        let (h, p) = w
            .trainer()
            .with_observer(std::sync::Arc::clone(&obs))
            .run_static(&w.groups, SamplingStrategy::ESRCov);
        let trace = obs.finish(threads);
        assert_eq!(
            base_h_bytes,
            serde_json::to_string(&h).expect("serialize history"),
            "traced history diverged at {threads} threads"
        );
        assert_eq!(base_h, h);
        assert_eq!(
            base_p, p,
            "traced final params diverged at {threads} threads"
        );
        assert_eq!(trace.rounds.len(), w.cfg.global_rounds);
        assert_eq!(trace.meta.threads, threads as u64);

        let streamed = Streamed::new(threads);
        let (h, p) = w
            .trainer()
            .with_observer(std::sync::Arc::clone(&streamed.obs))
            .run_static(&w.groups, SamplingStrategy::ESRCov);
        assert_eq!(
            base_h_bytes,
            serde_json::to_string(&h).expect("serialize history"),
            "streamed history diverged at {threads} threads"
        );
        assert_eq!(
            base_p, p,
            "streamed final params diverged at {threads} threads"
        );
        // The trace itself must be well-formed: read the bytes back.
        let back = streamed.finish();
        assert_eq!(back.rounds.len(), w.cfg.global_rounds);
        assert_eq!(back.meta.threads, threads as u64);
    });
}

#[test]
fn attacked_defended_run_is_bit_identical_across_thread_counts() {
    // Poisoned shards, amplified uploads, FLAME interceptions, the attack
    // log, and the ASR trajectory are all pure functions of (plan, t, k,
    // client) — none may move with the scheduler.
    let w = tiny_world(36);
    let groups = w.groups_with(4, 10.0);
    let plan = AdversaryPlan {
        backdoor_fraction: 0.2,
        label_flip_fraction: 0.15,
        model_poison_fraction: 0.15,
        ..AdversaryPlan::moderate(w.cfg.seed)
    };
    assert_bit_identical(&THREAD_COUNTS, || {
        let t = w
            .trainer()
            .with_adversary(plan.clone())
            .with_robust_agg(RobustAggRule::FlameFilter);
        let (h, p) = t.run_static(&groups, SamplingStrategy::ESRCov);
        assert!(
            summarize_attacks(h.events().iter().filter_map(Event::attack)).injected() > 0,
            "plan should attack for this test to mean anything"
        );
        (h, p)
    });
}

#[test]
fn attacked_secure_aggregation_run_is_bit_identical_across_thread_counts() {
    // Attacks inside the masked domain: the poison is baked into the
    // update before masking, and the whole secure path must still agree
    // across thread counts.
    let mut w = tiny_world(37);
    w.cfg.secure_aggregation = true;
    let plan = AdversaryPlan {
        backdoor_fraction: 0.25,
        ..AdversaryPlan::moderate(w.cfg.seed)
    };
    assert_bit_identical(&THREAD_COUNTS, || {
        let t = w.trainer().with_adversary(plan.clone());
        let (h, p) = t.run_static(&w.groups, SamplingStrategy::Random);
        assert!(
            summarize_attacks(h.events().iter().filter_map(Event::attack)).injected() > 0,
            "plan should attack"
        );
        (h, p)
    });
}

#[test]
fn simd_tiers_are_bit_identical_across_thread_counts() {
    // Every SIMD dispatch tier this machine supports (scalar, AVX2,
    // AVX-512F — whatever is present) implements the same canonical
    // 16-chain summation order, so forcing any tier must reproduce the
    // scalar run bit-for-bit, at every thread count. This is the whole-run
    // version of the kernel-level cross-tier tests in `gfl-tensor`. The CLI
    // determinism table (`crates/cli/tests/golden.rs`) runs every row at
    // every tier too; this case stays because CI's seed-shift job runs it
    // under `GFL_SEED`, which the table's fixed seeds do not reach.
    let w = tiny_world(38);
    let mut baseline: Option<(RunHistory, Vec<f32>)> = None;
    for tier in gfl_tensor::simd::supported_tiers() {
        let prev = gfl_tensor::simd::set_tier(tier);
        for_each_thread_count(&THREAD_COUNTS, |threads| {
            let result = w.trainer().run_static(&w.groups, SamplingStrategy::ESRCov);
            match &baseline {
                None => baseline = Some(result),
                Some(b) => assert_eq!(
                    *b,
                    result,
                    "run diverged on tier {} at {threads} threads",
                    tier.name()
                ),
            }
        });
        gfl_tensor::simd::set_tier(prev);
    }
}

/// FedAvg that records the width and SIMD tier each client step ran at.
#[derive(Default)]
struct SettingsSeen(Mutex<Vec<(usize, SimdTier)>>);

impl LocalUpdate for SettingsSeen {
    fn name(&self) -> &'static str {
        "settings-seen"
    }

    fn train(
        &self,
        task: &LocalTask<'_>,
        params: &mut Params,
        scratch: &mut LocalScratch,
        rng: &mut GflRng,
    ) -> Scalar {
        let seen = (gfl_parallel::default_parallelism(), simd::active_tier());
        self.0.lock().unwrap().push(seen);
        FedAvg.train(task, params, scratch, rng)
    }
}

#[test]
fn two_trainers_at_once_each_keep_their_width_and_tier() {
    // One trainer at width 1 on the scalar tier and one at width 8 on
    // `auto` run at the same time on two threads. Every client step of
    // each, on whichever pool worker, must run under its own trainer's
    // settings, and each must reach the bits it reaches alone.
    let w = tiny_world(39);
    let probs = w
        .trainer()
        .sampling_probs(&w.groups, SamplingStrategy::ESRCov);
    let run = |width: usize, tier: SimdTier, meet: Option<&Barrier>| {
        gfl_parallel::set_default_parallelism(width);
        simd::set_tier(tier);
        if let Some(meet) = meet {
            meet.wait();
        }
        let seen = SettingsSeen::default();
        let plan = RunPlan {
            clock: Clock::Lockstep,
            membership: Membership::Static {
                groups: &w.groups,
                probs: &probs,
            },
        };
        let state = w.trainer().run_plan(&seen, &plan).unwrap();
        let bits: Vec<u32> = state.params.iter().map(|p| p.to_bits()).collect();
        (state.history, bits, seen.0.into_inner().unwrap())
    };
    let configs = [(1, SimdTier::Scalar), (8, simd::detect_best())];
    let alone = configs.map(|(width, tier)| {
        std::thread::scope(|s| s.spawn(|| run(width, tier, None)).join().unwrap())
    });
    let (run, meet) = (&run, &Barrier::new(2));
    let together = std::thread::scope(|s| {
        let runs = configs.map(|(width, tier)| s.spawn(move || run(width, tier, Some(meet))));
        runs.map(|r| r.join().unwrap())
    });
    for (((width, tier), alone), together) in configs.iter().zip(alone).zip(together) {
        let what = format!("width {width}, tier {}", tier.name());
        let (history, bits, seen) = together;
        assert_eq!(alone.0, history, "{what}: history");
        assert_eq!(
            serde_json::to_string(&alone.0).unwrap(),
            serde_json::to_string(&history).unwrap(),
            "{what}: history bits"
        );
        assert_eq!(alone.1, bits, "{what}: final params");
        assert!(!seen.is_empty(), "{what}: no client step ran");
        for steps in [&alone.2, &seen] {
            assert!(
                steps.iter().all(|&step| step == (*width, *tier)),
                "{what}: a step ran under another trainer's settings: {steps:?}"
            );
        }
    }
}

#[test]
fn secure_aggregation_run_is_bit_identical_across_thread_counts() {
    // The pairwise-masking protocol's mask generation is keyed by (seed,
    // t, k) and member ids only — never by scheduling — so the secure path
    // must agree across thread counts too.
    let mut w = tiny_world(34);
    w.cfg.secure_aggregation = true;
    assert_bit_identical(&THREAD_COUNTS, || {
        w.trainer().run_static(&w.groups, SamplingStrategy::Random)
    });
}

#[test]
fn chunked_secure_aggregation_with_dropouts_is_bit_identical_across_thread_counts() {
    // The tiny model is one chunk of the fused secure aggregation and never
    // enters its parallel region. This one is three — two whole and a
    // ragged one that ends inside a keystream block — and members drop, so
    // mask recovery crosses chunks and workers as well.
    let mut w = tiny_world(35);
    let groups = w.groups_with(5, 1.0);
    w.model = gfl_nn::Mlp::new(vec![4, 64, 32, 3]).into();
    assert!(w.model.param_len() > 2 * 1024 && !w.model.param_len().is_multiple_of(16));
    w.cfg.secure_aggregation = true;
    w.cfg.dropout_prob = 0.3;
    assert_bit_identical(&THREAD_COUNTS, || {
        w.trainer().run_static(&groups, SamplingStrategy::Random)
    });
}
