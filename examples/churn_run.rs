//! Churn run: the same federation trained with static membership, with
//! self-healing regrouping under churn, and with the partition frozen
//! under the same churn, side by side.
//!
//! Demonstrates the online-membership subsystem (`gfl_faults::ChurnPlan`
//! with `Trainer::with_churn` and a `Membership::SelfHealing` plan): clients
//! permanently depart, late arrivals are placed into the CoV-best group
//! on their edge, flapping clients miss single rounds, degraded groups
//! are dissolved and their orphans migrated — all deterministically, so
//! the run (and its `RegroupEvent` audit trail) is reproducible bit for
//! bit from the seed.
//!
//! ```text
//! cargo run --release --example churn_run
//! ```

use gfl_core::prelude::*;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_faults::ChurnPlan;
use gfl_nn::sgd::LrSchedule;
use gfl_sim::{Task, Topology};

fn main() {
    gfl_tensor::check_env_or_exit();
    // A small non-IID federation: 24 clients on 2 edge servers.
    let data = SyntheticSpec::vision_like().generate(6_000, 13);
    let (train, test) = data.split_holdout(6);
    let partition = ClientPartition::dirichlet(
        &train,
        &PartitionSpec {
            num_clients: 24,
            alpha: 0.3,
            min_size: 20,
            max_size: 200,
            seed: 13,
        },
    );
    let topology = Topology::even_split(2, partition.sizes());
    let grouping = CovGrouping {
        min_group_size: 3,
        max_cov: 0.6,
    };
    let groups = form_groups_per_edge(&grouping, &topology, &partition.label_matrix, 13);

    let config = GroupFelConfig {
        global_rounds: 30,
        group_rounds: 3,
        local_rounds: 1,
        sampled_groups: 3,
        batch_size: 32,
        lr: LrSchedule::Constant(0.1),
        weighting: AggregationWeighting::Standard,
        eval_every: 3,
        seed: 13,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 0.0,
    };

    let make_trainer = || {
        let data = (train.clone(), partition.clone());
        Trainer::try_new(
            config.clone(),
            gfl_nn::zoo::vision_model(),
            data,
            test.clone(),
        )
        .expect("valid configuration")
    };

    // Static baseline: nobody leaves, nobody joins.
    let clean = make_trainer().run(&groups, &FedAvg, SamplingStrategy::ESRCov);

    // The churn: 20% of clients permanently depart within the horizon,
    // 15% arrive late, and any present client flaps (misses one round)
    // with 3% probability. Both runs below see exactly this schedule.
    let plan = ChurnPlan {
        seed: 101,
        horizon: 30,
        departure_fraction: 0.2,
        arrival_fraction: 0.15,
        flap_prob: 0.03,
    };

    // Self-healing: the monitor dissolves degraded groups, migrates
    // orphans to the CoV-best group on their edge, and places arrivals.
    let self_healing = RunPlan {
        clock: Clock::Lockstep,
        membership: Membership::SelfHealing {
            algo: &grouping,
            topology: &topology,
            sampling: SamplingStrategy::ESRCov,
        },
    };
    let run_healing = |trainer: Trainer| {
        trainer
            .run_plan(&FedAvg, &self_healing)
            .expect("self-healing run")
    };
    let state = run_healing(make_trainer().with_churn(plan.clone(), RegroupPolicy::default()));
    let (healed, membership) = (state.history, state.membership.expect("live partition"));

    // Frozen: the founding partition is kept as-is; departures just
    // shrink groups and arrivals are never placed.
    let frozen = run_healing(make_trainer().with_churn(plan, RegroupPolicy::frozen())).history;

    println!("round   clean-acc  healed-acc  frozen-acc");
    let at = |h: &RunHistory, round: usize| {
        h.records()
            .iter()
            .find(|r| r.round == round)
            .map_or_else(|| "-".into(), |r| format!("{:.4}", r.accuracy))
    };
    for r in clean.records() {
        println!(
            "{:5} {:10.4} {:>11} {:>11}",
            r.round,
            r.accuracy,
            at(&healed, r.round),
            at(&frozen, r.round)
        );
    }
    println!(
        "\nbest accuracy: clean {:.4}, healed {:.4} (gap {:+.4}), frozen {:.4} (gap {:+.4})",
        clean.best_accuracy(),
        healed.best_accuracy(),
        clean.best_accuracy() - healed.best_accuracy(),
        frozen.best_accuracy(),
        clean.best_accuracy() - frozen.best_accuracy()
    );
    println!(
        "\nfinal partition: {} groups over {} active clients",
        membership.groups().len(),
        membership.active_members()
    );
    let transitions: Vec<_> = healed.events().iter().filter_map(Event::regroup).collect();
    let summary = summarize_regroups(transitions.iter().copied());
    println!("membership transitions: {summary}");
    for e in transitions.iter().take(10) {
        println!("  round {:3}: {e}", e.round());
    }
    let more = transitions.len().saturating_sub(10);
    if more > 0 {
        println!("  ... and {more} more (see RunHistory::events)");
    }
}
