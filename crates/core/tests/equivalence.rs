//! Virtual ≡ materialized equivalence suite.
//!
//! The virtual-population tentpole only earns its keep if it is *not an
//! approximation*: a [`Trainer`] over a [`VirtualPopulation`] must produce
//! the same bits as a trainer over the eagerly materialized twin —
//! [`VirtualPopulation::materialize`] lowers the population to a
//! `(Dataset, ClientPartition)` with contiguous per-client row ranges, so
//! client `c`'s row `i` is the same scalar values through either path.
//!
//! Every golden scenario the engine supports is pinned here, at seeds
//! 1–3 (shifted by `GFL_SEED` in CI): clean lockstep, injected faults,
//! secure aggregation, a live poisoning campaign, churn with
//! self-healing regrouping, the semi-async runtime, and semi-async
//! composed with churn. In each case the full [`RunHistory`] (losses,
//! accuracies, fault/attack/regroup events, ASR records) and the final
//! parameter vector must match exactly — `assert_eq!` on floats, no
//! tolerances.
//!
//! A virtual member, or a materialized data poisoner, derives its shard at
//! its first trained group round and keeps it for the chain's later rounds;
//! the `K = 3` cases at the end pin that cache's edge cases at 1, 2 and 8
//! threads, under both clocks' straggler cuts.

use std::collections::{BTreeMap, BTreeSet};

use gfl_core::membership::RegroupPolicy;
use gfl_core::prelude::*;
use gfl_faults::{AdversaryPlan, ChurnPlan, FaultEvent, FaultPlan, FaultPolicy};
use gfl_test_support::{assert_bit_identical, covg, twins, Runs, Twins};

/// Run both trainers through `f` and demand bitwise-equal outcomes.
fn assert_equivalent<R: PartialEq + std::fmt::Debug>(
    seed: u64,
    scenario: &str,
    t: &Twins,
    f: impl Fn(Trainer) -> R,
) -> R {
    let eager = f(t.eager());
    let virt = f(t.virt());
    assert_eq!(
        eager, virt,
        "seed {seed}: {scenario} diverged between eager and virtual"
    );
    eager
}

#[test]
fn clean_lockstep_is_bitwise_equivalent() {
    for seed in 1..=3u64 {
        let t = twins(seed);
        let groups = t.groups.clone();
        let (h, p) = assert_equivalent(seed, "clean", &t, |tr| {
            tr.run_static(&groups, SamplingStrategy::ESRCov)
        });
        assert!(p.iter().all(|w| w.is_finite()));
        // Serialized traces must match byte for byte too — nothing about
        // virtuality may leak into the recorded history shape.
        let h_virt = t.virt().run(&t.groups, &FedAvg, SamplingStrategy::ESRCov);
        assert_eq!(
            serde_json::to_string(&h).unwrap(),
            serde_json::to_string(&h_virt).unwrap(),
            "seed {seed}: histories serialize differently"
        );
    }
}

#[test]
fn every_sampling_strategy_is_equivalent() {
    // Group-sampling probabilities come from the label matrix, which both
    // representations share verbatim — but the per-round draws consume the
    // engine RNG, so a mismatch anywhere upstream would surface here.
    let t = twins(1);
    let groups = t.groups.clone();
    for sampling in [
        SamplingStrategy::Random,
        SamplingStrategy::RCov,
        SamplingStrategy::SRCov,
        SamplingStrategy::ESRCov,
    ] {
        let g = groups.clone();
        assert_equivalent(1, "sampling strategy", &t, move |tr| {
            tr.run_static(&g, sampling)
        });
    }
}

#[test]
fn faulted_runs_are_bitwise_equivalent() {
    for seed in 1..=3u64 {
        let t = twins(seed);
        let groups = t.groups.clone();
        let topo = t.topo.clone();
        let (h, _) = assert_equivalent(seed, "faulted", &t, |tr| {
            tr.with_faults(FaultPlan::moderate(5), FaultPolicy::default(), &topo)
                .run_static(&groups, SamplingStrategy::ESRCov)
        });
        assert!(
            h.events().iter().any(|e| e.fault().is_some()),
            "seed {seed}: a moderate plan should inject something"
        );
    }
}

#[test]
fn secure_aggregation_is_bitwise_equivalent() {
    for seed in 1..=3u64 {
        let mut t = twins(seed);
        t.cfg.secure_aggregation = true;
        let groups = t.groups.clone();
        assert_equivalent(seed, "secure", &t, |tr| {
            tr.run_static(&groups, SamplingStrategy::ESRCov)
        });
    }
}

#[test]
fn poisoning_campaigns_are_bitwise_equivalent() {
    // A materialized poisoner gathers its rows from the pooled dataset, a
    // virtual one re-derives them; both apply the campaign as the shard is
    // derived. Same picks, same rows, same ASR records — or the on-demand
    // poisoning is a different attack than the one we benchmarked.
    for seed in 1..=3u64 {
        let t = twins(seed);
        let groups = t.groups.clone();
        let plan = AdversaryPlan {
            backdoor_fraction: 0.25,
            label_flip_fraction: 0.2,
            model_poison_fraction: 0.2,
            ..AdversaryPlan::moderate(t.cfg.seed)
        };
        let p = plan.clone();
        let (h, _) = assert_equivalent(seed, "attacked", &t, move |tr| {
            tr.with_adversary(p.clone())
                .run_static(&groups, SamplingStrategy::ESRCov)
        });
        assert!(
            h.events().iter().any(|e| e.attack().is_some()),
            "seed {seed}: a heavy campaign should land at least one attack"
        );
        assert!(
            h.records().iter().any(|r| r.trigger_asr.is_some()),
            "seed {seed}: backdoor clients must trigger ASR evaluation"
        );
    }
}

#[test]
fn churned_self_healing_is_bitwise_equivalent() {
    for seed in 1..=3u64 {
        let t = twins(seed);
        let topo = t.topo.clone();
        let plan = ChurnPlan {
            seed: t.cfg.seed ^ 0xC0FF,
            horizon: 4,
            departure_fraction: 0.4,
            arrival_fraction: 0.3,
            flap_prob: 0.1,
        };
        let p = plan.clone();
        let (h, _, membership) = assert_equivalent(seed, "churned", &t, move |tr| {
            tr.with_churn(p.clone(), RegroupPolicy::default())
                .run_healing(&covg(2, 1.0), &topo, SamplingStrategy::ESRCov)
                .unwrap()
        });
        assert!(
            h.events().iter().any(|e| e.regroup().is_some()),
            "seed {seed}: churn this heavy should regroup somebody"
        );
        assert!(!membership.groups().is_empty());
    }
}

#[test]
fn semi_async_runtime_is_bitwise_equivalent() {
    for seed in 1..=3u64 {
        let t = twins(seed);
        let groups = t.groups.clone();
        let topo = t.topo.clone();
        let (h, _, report) = assert_equivalent(seed, "semi-async", &t, move |tr| {
            tr.with_faults(
                FaultPlan {
                    straggler_fraction: 0.45,
                    straggler_factor: 8.0,
                    ..FaultPlan::none()
                },
                FaultPolicy {
                    quorum_fraction: 0.7,
                    deadline_factor: 1.5,
                    ..FaultPolicy::default()
                },
                &topo,
            )
            .run_event(&groups, SamplingStrategy::ESRCov, &AsyncConfig::default())
        });
        assert!(!report.rounds.is_empty());
        assert!(h.records().iter().all(|r| r.loss.is_finite()));
    }
}

#[test]
fn semi_async_with_churn_is_bitwise_equivalent() {
    for seed in 1..=3u64 {
        let t = twins(seed);
        let topo = t.topo.clone();
        let plan = ChurnPlan {
            seed: t.cfg.seed ^ 0xAB1E,
            horizon: 4,
            departure_fraction: 0.4,
            arrival_fraction: 0.3,
            flap_prob: 0.1,
        };
        let p = plan.clone();
        let (h, _, report, membership) =
            assert_equivalent(seed, "semi-async + churn", &t, move |tr| {
                tr.with_faults(
                    FaultPlan {
                        straggler_fraction: 0.4,
                        straggler_factor: 8.0,
                        ..FaultPlan::none()
                    },
                    FaultPolicy {
                        quorum_fraction: 0.7,
                        deadline_factor: 1.5,
                        ..FaultPolicy::default()
                    },
                    &topo,
                )
                .with_churn(p.clone(), RegroupPolicy::default())
                .run_event_healing(
                    &covg(2, 1.0),
                    &topo,
                    SamplingStrategy::ESRCov,
                    &AsyncConfig::default(),
                )
                .unwrap()
            });
        assert!(!report.rounds.is_empty());
        assert!(
            h.events().iter().any(|e| e.regroup().is_some()),
            "seed {seed}: churn should produce membership transitions"
        );
        let _ = membership;
    }
}

/// A campaign of both data poisoners: their injection events witness
/// which group rounds trained on a kept shard.
fn data_poisoners(seed: u64) -> AdversaryPlan {
    AdversaryPlan {
        backdoor_fraction: 0.4,
        label_flip_fraction: 0.4,
        model_poison_fraction: 0.0,
        ..AdversaryPlan::moderate(seed)
    }
}

/// The shard cache's edge cases a run reached, read off its events: per
/// (round, poisoner), the group rounds it trained in (its injections) and
/// the ones it missed (crashed or cut).
#[derive(Debug, Default)]
struct Reached {
    backdoor: bool,
    label_flip: bool,
    /// A poisoned shard served two group rounds.
    reused: bool,
    /// A member missed group round 0 and derived its shard later.
    derived_late: bool,
    /// A member trained at k = 0, missed k = 1 and trained at k = 2.
    kept_across_miss: bool,
}

impl Reached {
    fn add(&mut self, h: &RunHistory) {
        let mut trained: BTreeMap<(usize, usize), BTreeSet<usize>> = BTreeMap::new();
        let mut missed: BTreeMap<(usize, usize), BTreeSet<usize>> = BTreeMap::new();
        for e in h.events() {
            let (map, round, k, client) = match *e {
                Event::Attack(AttackEvent::BackdoorInjected {
                    round,
                    group_round,
                    client,
                    ..
                }) => {
                    self.backdoor = true;
                    (&mut trained, round, group_round, client)
                }
                Event::Attack(AttackEvent::LabelsFlipped {
                    round,
                    group_round,
                    client,
                    ..
                }) => {
                    self.label_flip = true;
                    (&mut trained, round, group_round, client)
                }
                Event::Fault(
                    FaultEvent::ClientCrash {
                        round,
                        group_round,
                        client,
                        ..
                    }
                    | FaultEvent::StragglerCut {
                        round,
                        group_round,
                        client,
                        ..
                    },
                ) => (&mut missed, round, group_round, client),
                _ => continue,
            };
            map.entry((round, client)).or_default().insert(k);
        }
        for (key, ks) in &trained {
            let missed_at = |k| missed.get(key).is_some_and(|m| m.contains(&k));
            self.reused |= ks.len() > 1;
            self.derived_late |= missed_at(0);
            self.kept_across_miss |= ks.contains(&0) && missed_at(1) && ks.contains(&2);
        }
    }
}

/// Runs `run` on both twins at `K = 3`, sampling every group for 8
/// rounds, at seeds 1–3 and 1, 2 and 8 threads, demanding the same bits
/// everywhere; returns the shard cache's edge cases the runs reached.
fn kept_shard_cases<R: PartialEq + std::fmt::Debug>(
    scenario: &str,
    setup: impl Fn(&mut Twins),
    run: impl Fn(&Twins, Trainer) -> (RunHistory, R),
) -> Reached {
    let mut reached = Reached::default();
    for seed in 1..=3u64 {
        let mut t = twins(seed);
        t.cfg.group_rounds = 3;
        t.cfg.global_rounds = 8;
        t.cfg.sampled_groups = t.groups.len();
        setup(&mut t);
        assert_bit_identical(&[1, 2, 8], || {
            assert_equivalent(seed, scenario, &t, |tr| run(&t, tr))
        });
        reached.add(&run(&t, t.virt()).0);
    }
    reached
}

#[test]
fn kept_shards_are_equivalent_under_dropout_crashes_and_secure_aggregation() {
    let secure_dropout = |t: &mut Twins| {
        t.cfg.secure_aggregation = true;
        t.cfg.dropout_prob = 0.3;
    };
    let r = kept_shard_cases(
        "K = 3 secure + dropout + crashes",
        secure_dropout,
        |t, tr| {
            let crashes = FaultPlan {
                crash_prob: 0.3,
                ..FaultPlan::none()
            };
            tr.with_faults(crashes, FaultPolicy::default(), &t.topo)
                .with_adversary(data_poisoners(t.cfg.seed))
                .run_static(&t.groups, SamplingStrategy::ESRCov)
        },
    );
    assert!(r.reused && r.derived_late && r.kept_across_miss, "{r:?}");
}

#[test]
fn kept_poisoned_shards_are_equivalent() {
    let r = kept_shard_cases(
        "K = 3 backdoor + label flip",
        |_| {},
        |t, tr| {
            tr.with_adversary(data_poisoners(t.cfg.seed))
                .run_static(&t.groups, SamplingStrategy::ESRCov)
        },
    );
    assert!(r.backdoor && r.label_flip && r.reused, "{r:?}");
}

#[test]
fn kept_shards_are_equivalent_across_timed_cuts() {
    let r = kept_shard_cases(
        "K = 3 semi-async cuts",
        |_| {},
        |t, tr| {
            let stragglers = FaultPlan {
                straggler_fraction: 0.5,
                straggler_factor: 2.0,
                straggler_jitter: 0.9,
                ..FaultPlan::none()
            };
            let policy = FaultPolicy {
                quorum_fraction: 0.6,
                deadline_factor: 1.5,
                ..FaultPolicy::default()
            };
            let (h, p, report) = tr
                .with_faults(stragglers, policy, &t.topo)
                .with_adversary(data_poisoners(t.cfg.seed))
                .run_event(&t.groups, SamplingStrategy::ESRCov, &AsyncConfig::default());
            (h, (p, report))
        },
    );
    assert!(r.reused && r.derived_late && r.kept_across_miss, "{r:?}");
}

#[test]
fn kept_shards_are_equivalent_across_lockstep_deadline_cuts() {
    // No crashes: every group round a poisoner misses, the lockstep
    // deadline cut it.
    let r = kept_shard_cases(
        "K = 3 lockstep deadline cuts",
        |_| {},
        |t, tr| {
            let stragglers = FaultPlan {
                straggler_fraction: 0.5,
                straggler_factor: 2.0,
                straggler_jitter: 0.9,
                ..FaultPlan::none()
            };
            let policy = FaultPolicy {
                deadline_factor: 1.5,
                ..FaultPolicy::default()
            };
            tr.with_faults(stragglers, policy, &t.topo)
                .with_adversary(data_poisoners(t.cfg.seed))
                .run_static(&t.groups, SamplingStrategy::ESRCov)
        },
    );
    assert!(r.reused && r.derived_late && r.kept_across_miss, "{r:?}");
}
