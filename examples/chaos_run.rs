//! Chaos run: the same federation trained clean and under a moderate
//! fault plan, side by side.
//!
//! Demonstrates the deterministic fault-injection subsystem
//! (`gfl-faults` + `Trainer::with_faults`): stragglers are cut at the
//! deadline, crashed and corrupt clients are dropped, a dark edge server
//! takes its groups offline, lost uploads are retried with exponential
//! backoff — and the run still converges close to the clean baseline.
//!
//! ```text
//! cargo run --release --example chaos_run
//! ```

use gfl_core::prelude::*;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_faults::{FaultPlan, FaultPolicy};
use gfl_nn::sgd::LrSchedule;
use gfl_sim::{Task, Topology};

fn main() {
    gfl_tensor::check_env_or_exit();
    // A small non-IID federation: 24 clients on 2 edge servers.
    let data = SyntheticSpec::vision_like().generate(6_000, 11);
    let (train, test) = data.split_holdout(6);
    let partition = ClientPartition::dirichlet(
        &train,
        &PartitionSpec {
            num_clients: 24,
            alpha: 0.3,
            min_size: 20,
            max_size: 200,
            seed: 11,
        },
    );
    let topology = Topology::even_split(2, partition.sizes());
    let grouping = CovGrouping {
        min_group_size: 3,
        max_cov: 0.6,
    };
    let groups = form_groups_per_edge(&grouping, &topology, &partition.label_matrix, 11);

    let config = GroupFelConfig {
        global_rounds: 20,
        group_rounds: 3,
        local_rounds: 1,
        sampled_groups: 3,
        batch_size: 32,
        lr: LrSchedule::Constant(0.1),
        weighting: AggregationWeighting::Standard,
        eval_every: 2,
        seed: 11,
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

    // Clean baseline.
    let clean = make_trainer().run(&groups, &FedAvg, SamplingStrategy::ESRCov);

    // Same seeds, same data — but 20% of devices straggle at ~4×, clients
    // crash and corrupt updates at the moderate plan's rates, edge 0 goes
    // dark for rounds 2–3, and every tenth upload needs retries.
    let plan = FaultPlan::moderate(97);
    let faulted = make_trainer()
        .with_faults(plan, FaultPolicy::default(), &topology)
        .run(&groups, &FedAvg, SamplingStrategy::ESRCov);

    println!("round   clean-acc  faulted-acc");
    let faulted_at = |round: usize| {
        faulted
            .records()
            .iter()
            .find(|r| r.round == round)
            .map(|r| r.accuracy)
    };
    for r in clean.records() {
        match faulted_at(r.round) {
            Some(acc) => println!("{:5} {:10.4} {:12.4}", r.round, r.accuracy, acc),
            None => println!("{:5} {:10.4} {:>12}", r.round, r.accuracy, "-"),
        }
    }
    println!(
        "\nbest accuracy: clean {:.4}, faulted {:.4} (gap {:+.4})",
        clean.best_accuracy(),
        faulted.best_accuracy(),
        clean.best_accuracy() - faulted.best_accuracy()
    );
    let faults: Vec<_> = faulted.events().iter().filter_map(Event::fault).collect();
    println!(
        "\ninjected faults: {}",
        gfl_faults::summarize(faults.iter().copied())
    );
    for e in faults.iter().take(8) {
        println!("  {e:?}");
    }
    let more = faults.len().saturating_sub(8);
    if more > 0 {
        println!("  ... and {more} more (see RunHistory::events)");
    }
}
