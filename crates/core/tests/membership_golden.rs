//! Event-log golden for the membership layer (ISSUE 14).
//!
//! The `scale-churn` benchmark workload — a virtual paper_vision
//! population on 8 edges, stream groups of 8, `ChurnPlan::moderate` over
//! the run's horizon, two random groups trained a round — run through the
//! real self-healing engine, with the whole regroup log, the final
//! partition and the final sampling probabilities folded into FNV-1a
//! hashes. The constants were recorded on the commit *before* the
//! membership index existed (every tick rebuilt its histograms from the
//! member lists), so they pin the incremental index, the lane-per-group
//! placement scan and the linear heal bookkeeping to the bits of the
//! rebuild-per-tick code they replaced: one different placement anywhere
//! in the 29 k events changes every hash after it.
//!
//! The smoke size (18 000 clients × 4 rounds) runs in tier-1, at the
//! default worker count and again at one and at eight; so does the
//! benchmark's full size (90 000 × 16, ~2 s in debug), whose event counts
//! are the ones `gfl simulate` prints for the workload at seed 1.

use gfl_core::checkpoint::Checkpoint;
use gfl_core::membership::{MembershipState, RegroupPolicy};
use gfl_core::prelude::*;
use gfl_data::{SyntheticSpec, VirtualPopulation, VirtualSpec};
use gfl_faults::ChurnPlan;
use gfl_nn::sgd::LrSchedule;
use gfl_sim::{Task, Topology};
use gfl_test_support::Runs;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// What a churned run leaves behind, hashed.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    events: usize,
    groups: usize,
    active: usize,
    log: u64,
    partition: u64,
    probs: u64,
}

fn fingerprint(history: &RunHistory, membership: &MembershipState) -> Fingerprint {
    let mut log = FNV_OFFSET;
    let regroups = || history.events().iter().filter_map(Event::regroup);
    for e in regroups() {
        fnv1a(&mut log, format!("{} {e}\n", e.round()).as_bytes());
    }
    let groups = membership.groups();
    let mut partition = FNV_OFFSET;
    for g in groups {
        for &c in g {
            fnv1a(&mut partition, &(c as u64).to_le_bytes());
        }
        fnv1a(&mut partition, b"\n");
    }
    let mut probs = FNV_OFFSET;
    for p in &membership.probs {
        fnv1a(&mut probs, &p.to_bits().to_le_bytes());
    }
    Fingerprint {
        events: regroups().count(),
        groups: groups.len(),
        active: membership.active_members(),
        log,
        partition,
        probs,
    }
}

/// The `scale-churn` flags as `gfl simulate` resolves them.
struct World {
    trainer: Trainer,
    topology: Topology,
    algo: StreamGrouping,
}

fn scale_churn(clients: usize, rounds: usize, seed: u64) -> World {
    let pop = VirtualPopulation::new(VirtualSpec {
        data: SyntheticSpec::vision_like(),
        num_clients: clients,
        alpha: 0.1,
        min_size: 20,
        max_size: 200,
        seed,
    });
    let test = pop.test_set(2_000);
    let sizes: Vec<usize> = (0..pop.num_clients()).map(|c| pop.client_size(c)).collect();
    let topology = Topology::even_split(8, sizes);
    let config = GroupFelConfig {
        global_rounds: rounds,
        group_rounds: 1,
        local_rounds: 1,
        sampled_groups: 2,
        batch_size: 32,
        lr: LrSchedule::Constant(0.05),
        weighting: AggregationWeighting::Standard,
        eval_every: 4,
        seed,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 0.0,
    };
    let plan = ChurnPlan {
        horizon: rounds,
        ..ChurnPlan::moderate(seed)
    };
    let trainer = Trainer::try_new(config, gfl_nn::zoo::vision_model(), pop, test)
        .unwrap()
        .with_churn(plan, RegroupPolicy::default());
    World {
        trainer,
        topology,
        algo: StreamGrouping { group_size: 8 },
    }
}

fn run(clients: usize, rounds: usize, seed: u64) -> Fingerprint {
    let w = scale_churn(clients, rounds, seed);
    let (history, _, membership) = w
        .trainer
        .run_healing(&w.algo, &w.topology, SamplingStrategy::Random)
        .expect("healing keeps a partition");
    fingerprint(&history, &membership)
}

/// The smoke size's recording.
const SMOKE: Fingerprint = Fingerprint {
    events: 5193,
    groups: 2032,
    active: 14515,
    log: 1315389086103369355,
    partition: 8146491469969143512,
    probs: 5943257321608300261,
};

#[test]
fn scale_churn_smoke_event_log_matches_the_rebuild_per_tick_recording() {
    assert_eq!(run(18_000, 4, 1), SMOKE);
}

#[test]
fn scale_churn_smoke_event_log_is_the_recording_at_one_and_eight_threads() {
    // Arrivals and orphans are placed an edge per pool task, and the
    // recording was taken one client at a time on one thread: neither a
    // lone worker nor more workers than edges may move an event.
    gfl_test_support::for_each_thread_count(&[1, 8], |threads| {
        assert_eq!(run(18_000, 4, 1), SMOKE, "{threads} threads");
    });
}

#[test]
fn scale_churn_full_event_log_matches_the_rebuild_per_tick_recording() {
    assert_eq!(
        run(90_000, 16, 1),
        Fingerprint {
            events: 29204,
            groups: 9672,
            active: 72159,
            log: 5018837647008291558,
            partition: 440205505127908313,
            probs: 11913785508801859477,
        }
    );
}

#[test]
fn churned_resume_rebuilds_the_index_and_continues_bit_identically() {
    // A state that went through JSON has no index: the first tick after the
    // load rebuilds it from the member lists. The resumed half must replay
    // the uninterrupted run exactly, and what the resumed state serializes
    // to must equal, byte for byte, what a state that never ticked again
    // (so never rebuilt anything) serializes to after the same history.
    // The cut falls after an evaluation round, so the first half's "last
    // round" evaluation is one the straight run takes anyway.
    let (clients, rounds, seed) = (4_000, 8, 3);
    let cut = 5;
    let sampling = SamplingStrategy::Random;

    let w = scale_churn(clients, rounds, seed);
    let (hist_straight, p_straight, m_straight) = w
        .trainer
        .run_healing(&w.algo, &w.topology, sampling)
        .unwrap();
    assert!(
        hist_straight
            .events()
            .iter()
            .any(|e| e.regroup().is_some() && e.round() >= cut),
        "the resumed half must see membership events"
    );

    let w = scale_churn(clients, rounds, seed);
    let plan = RunPlan {
        clock: Clock::Lockstep,
        membership: Membership::SelfHealing {
            algo: &w.algo,
            topology: &w.topology,
            sampling,
        },
    };
    let mut half = w.trainer.start(&FedAvg);
    w.trainer.drive(&FedAvg, &plan, &mut half, cut).unwrap();

    let cp = Checkpoint::from_state(&half, w.trainer.config().clone());
    let json = cp.to_json();
    let restored = Checkpoint::from_json(&json).unwrap();
    assert_eq!(
        restored.to_json(),
        json,
        "a loaded, index-less state must serialize to the bytes it was read from"
    );

    let mut resumed = restored.into_state(half.ledger);
    w.trainer
        .drive(&FedAvg, &plan, &mut resumed, rounds - cut)
        .unwrap();
    let (p_resumed, h_resumed) = (resumed.params, resumed.history);
    let m_resumed = resumed
        .membership
        .expect("self-healing runs carry membership");
    assert_eq!(p_resumed, p_straight, "resumed model diverged");
    assert_eq!(h_resumed, hist_straight, "resumed trajectory diverged");
    assert_eq!(m_resumed, m_straight, "resumed membership diverged");
    assert_eq!(
        serde_json::to_string(&m_resumed).unwrap(),
        serde_json::to_string(&m_straight).unwrap(),
        "the index leaked into the wire format"
    );
}
