//! Secure group pipeline: the two group operations the paper charges for,
//! exercised for real — pairwise-masking secure aggregation and backdoor
//! detection — inside an actual training round.
//!
//! Demonstrates:
//! 1. training with `secure_aggregation: true` produces the same model as
//!    plain aggregation (masks cancel exactly);
//! 2. a poisoned group is sanitized by the defense before aggregation;
//! 3. the per-client cost of both operations grows with group size, which
//!    is exactly what `gfl-sim`'s quadratic cost curves charge.
//!
//! ```text
//! cargo run --release --example secure_pipeline
//! ```

use gfl_core::prelude::*;
use gfl_core::sampling::AggregationWeighting;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_defense::{filter_updates, scale_attack, DefenseConfig};
use gfl_nn::sgd::LrSchedule;
use gfl_secagg::SecAggSession;
use gfl_sim::{Task, Topology};
use gfl_tensor::ops;

fn main() {
    gfl_tensor::check_env_or_exit();
    // --- Part 1: SecAgg inside training --------------------------------
    let data = SyntheticSpec::tiny().generate(900, 9);
    let (train, test) = data.split_holdout(5);
    let partition = ClientPartition::dirichlet(&train, &PartitionSpec::tiny(0.5, 9));
    let topology = Topology::even_split(2, partition.sizes());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 3,
            max_cov: 1.0,
        },
        &topology,
        &partition.label_matrix,
        9,
    );
    let mut config = GroupFelConfig {
        global_rounds: 6,
        group_rounds: 2,
        local_rounds: 1,
        sampled_groups: 3,
        batch_size: 16,
        lr: LrSchedule::Constant(0.15),
        weighting: AggregationWeighting::Standard,
        eval_every: 2,
        seed: 9,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 0.0,
    };
    let model = gfl_nn::zoo::tiny(4, 3);
    let data = (train.clone(), partition.clone());
    let plain = Trainer::try_new(config.clone(), model.clone(), data, test.clone())
        .expect("valid configuration")
        .run(&groups, &FedAvg, SamplingStrategy::Random);

    config.secure_aggregation = true;
    let secure = Trainer::try_new(config, model, (train, partition), test)
        .expect("valid configuration")
        .run(&groups, &FedAvg, SamplingStrategy::Random);

    println!("round | plain acc | secagg acc");
    for (p, s) in plain.records().iter().zip(secure.records()) {
        println!("{:5} | {:9.4} | {:9.4}", p.round, p.accuracy, s.accuracy);
        assert!((p.accuracy - s.accuracy).abs() < 0.05);
    }
    println!("secure aggregation reproduces plain training ✓\n");

    // --- Part 2: standalone SecAgg with a dropout ----------------------
    let dim = 8;
    let session = SecAggSession::new(vec![0, 1, 2, 3], dim, 77);
    let updates: Vec<Vec<f32>> = (0..4)
        .map(|i| (0..dim).map(|j| (i * dim + j) as f32 * 0.01).collect())
        .collect();
    let masked: Vec<Vec<f32>> = updates
        .iter()
        .enumerate()
        .map(|(i, u)| session.mask(i as u32, u).0)
        .collect();
    // Client 2 drops after masking; the server recovers.
    let survivors = [0u32, 1, 3];
    let masked_surv: Vec<Vec<f32>> = [0usize, 1, 3].iter().map(|&i| masked[i].clone()).collect();
    let (sum, cost) = session.unmask_sum(&survivors, &masked_surv);
    let mut want = vec![0.0f32; dim];
    for &i in &[0usize, 1, 3] {
        ops::add_assign(&updates[i], &mut want);
    }
    for (a, b) in sum.iter().zip(want.iter()) {
        assert!((a - b).abs() < 1e-3);
    }
    println!(
        "dropout recovery ✓ (server did {} extra PRG expansions to cancel orphaned masks)\n",
        cost.prg_expansions
    );

    // --- Part 3: poisoned group sanitized ------------------------------
    let mut group_updates: Vec<Vec<f32>> = (0..8).map(|_| vec![0.5f32; 64]).collect();
    for u in group_updates.iter_mut().take(6) {
        // Honest clients: small jitter around the common direction.
        u.iter_mut()
            .enumerate()
            .for_each(|(j, v)| *v += (j as f32).sin() * 0.05);
    }
    for u in group_updates.iter_mut().skip(6) {
        // Two attackers: boosted opposite direction.
        u.iter_mut().for_each(|v| *v = -*v);
        scale_attack(u, 10.0);
    }
    let report = filter_updates(&mut group_updates, &DefenseConfig::default());
    println!(
        "defense: accepted {:?}, rejected {:?} ({} pairwise sims)",
        report.accepted, report.rejected, report.cost.similarity_evals
    );
    assert_eq!(report.rejected, vec![6, 7]);
    println!("backdoor clients excluded before aggregation ✓");
}
