//! Extension (§6.1) — periodic *regrouping*: re-run CoV-Grouping every R
//! global rounds so clients stranded in high-CoV groups get fresh chances
//! to participate ("one possible solution is regrouping clients ... In that
//! case, our design of randomly selecting the first client for each group
//! becomes critical and useful").

use gfl_core::driver::{Clock, Membership, RunPlan};
use gfl_core::engine::form_groups_per_edge;
use gfl_core::grouping::CovGrouping;
use gfl_core::local::FedAvg;
use gfl_core::sampling::AggregationWeighting;
use gfl_core::sampling::SamplingStrategy;
use gfl_experiments::emit::{f, print_series, to_csv, write_csv};
use gfl_experiments::world::{ExpScale, World};

fn main() {
    let mut scale = ExpScale::from_env();
    scale.global_rounds = scale.global_rounds.min(48);
    let world = World::vision(0.1, 42, scale);
    let algo = CovGrouping {
        min_group_size: 5,
        max_cov: 0.5,
    };

    let header = ["variant", "round", "cost", "accuracy"];
    let mut rows = Vec::new();
    let mut summaries = Vec::new();

    for (name, regroup_every) in [("static", None), ("regroup_every_12", Some(12usize))] {
        let trainer = world.trainer(world.config(AggregationWeighting::Stabilized));
        let mut state = trainer.start(&FedAvg);
        let chunk = regroup_every.unwrap_or(scale.global_rounds);
        let mut epoch = 0u64;
        while state.next_round < scale.global_rounds {
            let groups = form_groups_per_edge(
                &algo,
                &world.topology,
                &world.partition.label_matrix,
                world.seed.wrapping_add(epoch * 7919),
            );
            let probs = trainer.sampling_probs(&groups, SamplingStrategy::ESRCov);
            // §6.1: the same run carries on under a fresh static partition.
            let plan = RunPlan {
                clock: Clock::Lockstep,
                membership: Membership::Static {
                    groups: &groups,
                    probs: &probs,
                },
            };
            let rounds = chunk.min(scale.global_rounds - state.next_round);
            trainer
                .drive(&FedAvg, &plan, &mut state, rounds)
                .expect("a static partition is never re-formed");
            epoch += 1;
        }
        let history = &state.history;
        for r in history.records() {
            rows.push(vec![
                name.to_string(),
                r.round.to_string(),
                f(r.cost, 1),
                f(f64::from(r.accuracy), 4),
            ]);
        }
        let acc = history.best_accuracy();
        println!("{name:18} best accuracy {acc:.4}");
        summaries.push((name, acc));
    }

    print_series("Extension: periodic regrouping", &header, &rows);
    let path = write_csv("ablation_regroup", &to_csv(&header, &rows));
    println!("\nwrote {}", path.display());

    // Regrouping must at minimum not break training; it typically matches
    // or slightly improves the static partition by refreshing group CoVs.
    let static_acc = summaries[0].1;
    let regroup_acc = summaries[1].1;
    assert!(
        regroup_acc >= static_acc - 0.05,
        "regrouping must stay competitive: static {static_acc} vs regroup {regroup_acc}"
    );
    println!("shape check passed");
}
