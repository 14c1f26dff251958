//! Ablations and sensitivity sweeps over the design choices the paper
//! argues for in §5.1, §6.1 and §6.2, and extensions along the same axes.

use gfl_baselines::FedNova;
use gfl_core::cov::{group_cov, histogram_cov, mean_group_cov};
use gfl_core::driver::{Clock, Membership, RunPlan};
use gfl_core::engine::{form_groups_per_edge, Trainer};
use gfl_core::grouping::{histogram_variance, CovGrouping, GroupingAlgorithm, VarianceGrouping};
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_core::{theory, Group};
use gfl_sim::Task;

use super::mean;
use crate::emit::{Cell, Output, Table};
use crate::methods::{default_covg, trajectory_rows};
use crate::registry::{Ctx, Experiment, Verdict};
use crate::world::{ExpScale, ScaleRule, World};

/// Ablation (§6.2) — aggregation weighting under prioritized sampling:
/// Standard (Line 15) vs Unbiased (Eq. 4) vs Stabilized (Eq. 35).
///
/// The paper warns that raw unbiased correction with an aggressive w()
/// "extremely amplifies the gradient and ruins all previous training
/// results". This row demonstrates the instability and shows Eq. 35's
/// normalization restores it. ESRCoV makes some p_g minuscule — the stress
/// case of §6.2.
pub const ABLATION_WEIGHTING: Experiment = Experiment {
    id: "ablation_weighting",
    title: "Ablation: aggregation weighting under ESRCoV sampling",
    claim: "Eq. 35's normalisation does not lose to the raw Eq. 4 weights, which trail or diverge",
    scale: ScaleRule::capped(40),
    outputs: &[Output::new(
        "ablation_weighting",
        "weighting,round,accuracy,loss",
    )],
    run: weighting_run,
    shape: weighting_shape,
};

fn weighting_run(ctx: &Ctx) -> Vec<Table> {
    let world = World::vision(0.1, 42, ctx.scale);
    let groups = default_covg(&world);
    let mut table = ctx.table(0);
    for (name, weighting) in [
        ("standard", AggregationWeighting::Standard),
        ("unbiased", AggregationWeighting::Unbiased),
        ("stabilized", AggregationWeighting::Stabilized),
    ] {
        let history = world.fedavg(&groups, weighting, SamplingStrategy::ESRCov);
        trajectory_rows(&mut table, &[Cell::of(name)], &history);
    }
    vec![table]
}

fn weighting_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let last = |weighting: &str, col: &str| {
        let column = tables[0].column(&[("weighting", weighting)], col);
        column.last().copied().unwrap_or(f64::NAN)
    };
    let (stabilized, unbiased) = (last("stabilized", "accuracy"), last("unbiased", "accuracy"));
    ensure!(
        stabilized >= unbiased - 0.02,
        "Eq. 35 normalization ({stabilized}) must not lose to raw Eq. 4 ({unbiased})"
    );
    Ok(format!(
        "final loss: standard {:.4}, unbiased {:.4}, stabilized {:.4}",
        last("standard", "loss"),
        last("unbiased", "loss"),
        last("stabilized", "loss")
    ))
}

/// Extension (§6.1) — periodic *regrouping*: re-run CoV-Grouping every R
/// global rounds so clients stranded in high-CoV groups get fresh chances
/// to participate ("one possible solution is regrouping clients ... In that
/// case, our design of randomly selecting the first client for each group
/// becomes critical and useful").
///
/// Regrouping must at minimum not break training; it typically matches or
/// slightly improves the static partition by refreshing group CoVs.
pub const ABLATION_REGROUP: Experiment = Experiment {
    id: "ablation_regroup",
    title: "Extension: periodic regrouping",
    claim: "regrouping every 12 rounds stays within 5 points of the static partition",
    scale: ScaleRule::capped(48),
    outputs: &[Output::new(
        "ablation_regroup",
        "variant,round,cost,accuracy",
    )],
    run: regroup_run,
    shape: regroup_shape,
};

fn regroup_run(ctx: &Ctx) -> Vec<Table> {
    let rounds = ctx.scale.global_rounds;
    let world = World::vision(0.1, 42, ctx.scale);
    let algo = CovGrouping {
        min_group_size: 5,
        max_cov: 0.5,
    };
    let mut table = ctx.table(0);
    for (name, chunk) in [("static", rounds), ("regroup_every_12", 12)] {
        let trainer = world.trainer(world.config(AggregationWeighting::Stabilized));
        let mut state = trainer.start(&FedAvg);
        let mut epoch = 0u64;
        while state.next_round < rounds {
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
            let span = chunk.min(rounds - state.next_round);
            trainer
                .drive(&FedAvg, &plan, &mut state, span)
                .expect("a static partition is never re-formed");
            epoch += 1;
        }
        trajectory_rows(&mut table, &[Cell::of(name)], &state.history);
    }
    vec![table]
}

fn regroup_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let best = |variant: &str| tables[0].best(&[("variant", variant)], "accuracy", None);
    let (fixed, regroup) = (best("static"), best("regroup_every_12"));
    ensure!(
        regroup >= fixed - 0.05,
        "regrouping must stay competitive: static {fixed} vs regroup {regroup}"
    );
    Ok(String::new())
}

/// World seeds of the criterion comparison.
const CRITERION_SEEDS: [u64; 12] = [42, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];

/// Ablation (§5.1) — CoV vs raw variance as the grouping criterion.
///
/// The paper argues variance "is susceptible to the scale of data number":
/// a small skewed group can out-score a large balanced one. This row
/// quantifies the argument three ways:
///
/// 1. the §5.1 pathology on explicit histograms,
/// 2. grouping quality (mean CoV, data-weighted mean CoV, data dispersion
///    γ) of the two greedy variants on Dirichlet federations, α ∈ {0.1,
///    0.5} × twelve world seeds,
/// 3. downstream federated accuracy under identical sampling (one pair:
///    the first world).
///
/// Both greedies run with MinGS = 5 and no threshold, so every group has
/// exactly five members and the partitions differ only in Line 5's
/// criterion — mean group size is matched by construction, where a
/// threshold pair "tuned for a comparable group count" compares a coarser
/// partition against a finer one. The scale pathology then shows where
/// Line 15 looks: variance spends its well-mixed groups on small-data
/// clients and leaves the large-data clients to skewed ones, so its
/// *data-weighted* mean CoV (Σ n_g·CoV_g / n, the weighting of the
/// aggregate) is the higher one, while the plain mean over groups — which
/// counts a 150-sample group like a 700-sample one — separates the two on
/// about half the seeds under heavy skew.
///
/// Shape: at each α the CoV-greedy partition has the lower data-weighted
/// mean CoV on at least two thirds of the seeds and in the seed-mean; the
/// trained pair's CoV-greedy accuracy is within 2 points of variance's.
pub const ABLATION_CRITERION: Experiment = Experiment {
    id: "ablation_criterion",
    title: "Ablation: CoV vs variance grouping criterion",
    claim: "variance ranks a small skewed histogram above a large balanced one; as the greedy \
            criterion it leaves more of the data in skewed groups than CoV does",
    scale: ScaleRule::capped(40),
    outputs: &[
        Output::new(
            "ablation_criterion_pathology",
            "histogram,samples,variance,cov",
        ),
        Output::new(
            "ablation_criterion",
            "alpha,seed,criterion,groups,mean_cov,weighted_cov,mean_gamma,accuracy",
        ),
    ],
    run: criterion_run,
    shape: criterion_shape,
};

fn criterion_run(ctx: &Ctx) -> Vec<Table> {
    let mut pathology = ctx.table(0);
    for (name, histogram) in [
        ("small-skewed", [4u64, 0, 0]),
        ("large-balanced", [40, 36, 44]),
    ] {
        pathology.push(vec![
            Cell::of(name),
            Cell::of(histogram.iter().sum::<u64>()),
            Cell::num(histogram_variance(&histogram), 3),
            Cell::num(histogram_cov(&histogram), 3),
        ]);
    }

    let (min_group_size, unbounded) = (5, f32::INFINITY);
    let algos: [(&str, &dyn GroupingAlgorithm); 2] = [
        (
            "CoV",
            &CovGrouping {
                min_group_size,
                max_cov: unbounded,
            },
        ),
        (
            "variance",
            &VarianceGrouping {
                min_group_size,
                max_variance: unbounded,
            },
        ),
    ];
    let mut federation = ctx.table(1);
    for alpha in [0.1f64, 0.5] {
        for seed in CRITERION_SEEDS {
            let world = World::vision(alpha, seed, ctx.scale);
            for (name, algo) in algos {
                let groups = world.form(algo);
                let accuracy = match (alpha, seed) == (0.1, CRITERION_SEEDS[0]) {
                    true => {
                        let weighting = AggregationWeighting::Standard;
                        let history = world.fedavg(&groups, weighting, SamplingStrategy::ESRCov);
                        Cell::num(history.accuracy_within_cost(ctx.scale.budget), 4)
                    }
                    false => Cell::of(""),
                };
                let (weighted_cov, mean_gamma) = group_quality(&world, &groups);
                federation.push(vec![
                    Cell::of(alpha),
                    Cell::of(seed),
                    Cell::of(name),
                    Cell::of(groups.len()),
                    Cell::num(mean_group_cov(&world.partition.label_matrix, &groups), 3),
                    Cell::num(weighted_cov, 4),
                    Cell::num(mean_gamma, 3),
                    accuracy,
                ]);
            }
        }
    }
    vec![pathology, federation]
}

/// The data-weighted mean of the groups' CoVs (Σ n_g·CoV_g / n) and the
/// mean over groups of the data-dispersion constant γ (Eq. 11).
fn group_quality(world: &World, groups: &[Group]) -> (f64, f64) {
    let (mut weighted, mut samples, mut gamma) = (0.0, 0usize, 0.0);
    for group in groups {
        let sizes: Vec<usize> = group
            .iter()
            .map(|&c| world.partition.indices[c].len())
            .collect();
        let n_g: usize = sizes.iter().sum();
        weighted += n_g as f64 * f64::from(group_cov(&world.partition.label_matrix, group));
        samples += n_g;
        gamma += theory::gamma(&sizes);
    }
    (weighted / samples as f64, gamma / groups.len() as f64)
}

fn criterion_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let (pathology, federation) = (&tables[0], &tables[1]);
    let of = |histogram: &str, col: &str| pathology.get(&[("histogram", histogram)], col);
    let (small, large) = ("small-skewed", "large-balanced");
    ensure!(
        of(small, "variance") < of(large, "variance"),
        "variance must exhibit the scale pathology"
    );
    ensure!(
        of(small, "cov") > of(large, "cov"),
        "CoV must rank by skew, not scale"
    );

    let mut lines = Vec::new();
    for alpha in federation.distinct("alpha") {
        let lower = |col: &str| {
            let of =
                |criterion| federation.column(&[("alpha", alpha), ("criterion", criterion)], col);
            let (cov, var) = (of("CoV"), of("variance"));
            let wins = cov.iter().zip(&var).filter(|(c, v)| c < v).count();
            (wins, cov.len(), mean(&cov), mean(&var))
        };
        let (wins, seeds, cov, var) = lower("weighted_cov");
        ensure!(
            3 * wins >= 2 * seeds && cov < var,
            "alpha={alpha}: CoV-greedy must have the lower data-weighted mean CoV on two thirds \
             of the seeds and in the seed-mean (holds on {wins} of {seeds}; {cov:.4} vs {var:.4})"
        );
        let (plain_wins, _, plain_cov, plain_var) = lower("mean_cov");
        lines.push(format!(
            "alpha={alpha}: CoV-greedy has the lower data-weighted mean CoV on {wins} of {seeds} \
             seeds (seed-means {cov:.4} vs {var:.4}), the lower plain mean on {plain_wins} of \
             {seeds} ({plain_cov:.3} vs {plain_var:.3})"
        ));
    }
    let first_world = [
        ("alpha", federation.text(0, "alpha")),
        ("seed", federation.text(0, "seed")),
    ];
    let accuracy = |criterion| {
        let key = [&first_world[..], &[("criterion", criterion)]].concat();
        federation.get(&key, "accuracy")
    };
    let (cov, var) = (accuracy("CoV"), accuracy("variance"));
    ensure!(
        cov >= var - 0.02,
        "CoV criterion ({cov}) must not lose accuracy to variance ({var})"
    );
    Ok(lines.join("\n"))
}

/// Sensitivity sweep over the hierarchy's depth knobs: group rounds `K`,
/// local epochs `E`, and sampled groups `S` (Algorithm 1's inputs).
///
/// The convergence theorem couples these (λ-conditions, Eq. 13–18: η must
/// shrink as K·E grows; the sampling term shrinks with |S_t|). The sweep
/// makes the practical trade-offs visible: more local work per round costs
/// more per round but needs fewer rounds; sampling more groups costs more
/// but lowers sampling variance.
pub const SWEEP_HYPER: Experiment = Experiment {
    id: "sweep_hyper",
    title: "Sensitivity: K (group rounds) × E (epochs) × S (groups)",
    claim: "per-round cost grows with each of K, E and S",
    scale: ScaleRule::capped(40),
    outputs: &[Output::new(
        "sweep_hyper",
        "k,e,s,rounds_run,final_cost,accuracy",
    )],
    run: sweep_run,
    shape: sweep_shape,
};

fn sweep_run(ctx: &Ctx) -> Vec<Table> {
    let world = World::vision(0.1, 42, ctx.scale);
    let groups = default_covg(&world);
    let mut table = ctx.table(0);
    for (k, e, s) in [
        (1usize, 1usize, 4usize),
        (5, 2, 4), // the paper's K=5, E=2
        (10, 2, 4),
        (5, 4, 4),
        (5, 2, 2),
        (5, 2, 8),
    ] {
        let mut config = world.config(AggregationWeighting::Standard);
        config.group_rounds = k;
        config.local_rounds = e;
        config.sampled_groups = s;
        let history = world
            .trainer(config)
            .run(&groups, &FedAvg, SamplingStrategy::ESRCov);
        let last = history.last_record().expect("run produced records");
        table.push(vec![
            Cell::of(k),
            Cell::of(e),
            Cell::of(s),
            Cell::of(last.round + 1),
            Cell::num(last.cost, 0),
            Cell::num(history.accuracy_within_cost(ctx.scale.budget), 4),
        ]);
    }
    vec![table]
}

fn sweep_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let per_round = |k: &str, e: &str, s: &str| {
        let of = |col: &str| tables[0].get(&[("k", k), ("e", e), ("s", s)], col);
        of("final_cost") / of("rounds_run")
    };
    let paper = per_round("5", "2", "4");
    let raised = [
        ("K", per_round("10", "2", "4")),
        ("E", per_round("5", "4", "4")),
        ("S", per_round("5", "2", "8")),
    ];
    for (knob, cost) in raised {
        ensure!(
            cost > paper,
            "raising {knob} must raise the per-round cost ({cost} vs {paper})"
        );
    }
    Ok(String::new())
}

/// Extension — FedNova-style normalized averaging (the paper's reference
/// [15]) under extreme data-volume disparity.
///
/// The paper's setup gives clients 20–200 samples (10× disparity), which
/// makes local step counts differ by 10× and skews plain FedAvg toward
/// heavy clients. This row compares FedAvg vs FedNova on federations with
/// widening size disparity and reports accuracy plus the per-client
/// data-size dispersion γ. FedNova must stay competitive everywhere (its
/// win condition — severe objective inconsistency — grows with γ).
pub const FEDNOVA_COMPARE: Experiment = Experiment {
    id: "fednova_compare",
    title: "Extension: FedNova normalized averaging vs FedAvg under size disparity",
    claim: "FedNova stays within 3 points of FedAvg at every size disparity",
    scale: ScaleRule::capped(40),
    outputs: &[Output::new(
        "fednova_compare",
        "disparity,gamma,fedavg_acc,fednova_acc",
    )],
    run: fednova_run,
    shape: fednova_shape,
};

fn fednova_run(ctx: &Ctx) -> Vec<Table> {
    let mut table = ctx.table(0);
    for (min_size, max_size) in [(60usize, 80usize), (20, 200), (10, 300)] {
        let world = World::build(Task::Vision, 0.1, 42, ctx.scale, (min_size, max_size));
        let groups = default_covg(&world);
        let sizes = world.partition.sizes();
        let config = world.config(AggregationWeighting::Standard);
        let nova = FedNova::from_sizes(&sizes, config.local_rounds, config.batch_size);
        let trainer = world.trainer(config);
        let avg = trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
        let nova = trainer.run(&groups, &nova, SamplingStrategy::ESRCov);
        table.push(vec![
            Cell::of(format!("{min_size}-{max_size}")),
            Cell::num(theory::gamma(&sizes), 3),
            Cell::num(avg.accuracy_within_cost(ctx.scale.budget), 4),
            Cell::num(nova.accuracy_within_cost(ctx.scale.budget), 4),
        ]);
    }
    vec![table]
}

fn fednova_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let table = &tables[0];
    for row in 0..table.rows.len() {
        let (avg, nova) = (table.num(row, "fedavg_acc"), table.num(row, "fednova_acc"));
        let sizes = table.text(row, "disparity");
        ensure!(
            nova > avg - 0.03,
            "sizes {sizes}: FedNova {nova} fell behind FedAvg {avg}"
        );
    }
    Ok(String::new())
}

/// Extension — the paper-faithful 5-layer 1-D CNN trained through the full
/// Group-FEL hierarchy on the speech task, next to the dense stand-in.
///
/// §7.1 uses "a 5-layer convolutional neural network (CNN) that is easy to
/// train on RPi" for Speech Commands; this row shows the reproduction
/// supports that architecture class end to end (flat-parameter aggregation,
/// CoV grouping, ESRCoV sampling, cost accounting) — not just MLPs. It
/// compares per-round learning, so the budget is lifted.
///
/// Both architectures must actually learn through the hierarchy. The CNN's
/// weight-sharing prior is mismatched to the synthetic features (no spatial
/// structure), so it learns more slowly than the dense net; the bar is
/// clearing 2x chance within the short horizon.
pub const CNN_SPEECH: Experiment = Experiment {
    id: "cnn_speech",
    title: "Extension: 5-layer CNN vs dense model through Group-FEL (speech task)",
    claim: "both architectures clear twice chance (2/35) through the hierarchy",
    scale: ScaleRule::Shared {
        rounds_times: 1,
        rounds_cap: 30,
        budget_times: f64::INFINITY,
    },
    outputs: &[Output::new("cnn_speech", "model,round,accuracy")],
    run: cnn_run,
    shape: cnn_shape,
};

fn cnn_run(ctx: &Ctx) -> Vec<Table> {
    let world = World::speech(0.1, 42, ctx.scale);
    let groups = world.form(&CovGrouping {
        min_group_size: 8,
        max_cov: 1.0,
    });
    let mut table = ctx.table(0);
    for (name, model) in [
        ("dense", gfl_nn::zoo::speech_model()),
        ("cnn5", gfl_nn::zoo::speech_cnn()),
    ] {
        let mut config = world.config(AggregationWeighting::Standard);
        config.cost_budget = None;
        let data = (world.train.clone(), world.partition.clone());
        let trainer = Trainer::try_new(config, model, data, world.test.clone())
            .expect("every scale's configuration is valid");
        let history = trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
        trajectory_rows(&mut table, &[Cell::of(name)], &history);
    }
    vec![table]
}

fn cnn_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    for model in tables[0].distinct("model") {
        let best = tables[0].best(&[("model", model)], "accuracy", None);
        ensure!(
            best > 2.0 / 35.0,
            "{model} failed to learn: best accuracy {best}"
        );
    }
    Ok(String::new())
}
