//! The paper's own figures and table (§2, §7): cost curves, sampling,
//! the seven-method comparisons, the grouping × sampling ablation, Table 1.

use gfl_core::cov::mean_group_cov;
use gfl_core::grouping::{CovGrouping, GroupingAlgorithm, KldGrouping, RandomGrouping};
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_core::Group;
use gfl_sim::{CostModel, GroupOpKind, Task};

use super::mean;
use crate::emit::{Cell, Key, Output, Table};
use crate::methods::{default_covg, run_method, trajectory_rows, GroupingKnobs, Method};
use crate::registry::{Ctx, Experiment, Verdict};
use crate::world::{ExpScale, ScaleRule, World};

/// Fig. 2(a) — group overheads of a client in group-based FEL.
///
/// Reproduces the motivating measurement: training cost grows *linearly* in
/// the client's data size while secure aggregation and backdoor detection
/// grow *quadratically* in group size, overtaking training for realistic
/// groups. Columns are emulated seconds from the RPi-calibrated model
/// (vision task, as in the paper's Fig. 2); the real protocols' operation
/// counters are checked against the same shapes in `gfl-secagg`'s and
/// `gfl-defense`'s own tests and in `backdoor_e2e`.
pub const FIG2A: Experiment = Experiment {
    id: "fig2a",
    title: "Fig 2(a): per-client overheads (x = data size for training, group size for ops)",
    claim: "training is ~linear in data size; SecAgg is superlinear in group size and \
            dominates training at size 50",
    scale: ScaleRule::SHARED,
    outputs: &[Output::new("fig2a", "x,training_s,secagg_s,backdoor_s")],
    run: fig2a_run,
    shape: fig2a_shape,
};

fn fig2a_run(ctx: &Ctx) -> Vec<Table> {
    let model = CostModel::for_task(Task::Vision);
    let mut table = ctx.table(0);
    for x in (0..=50usize).step_by(5) {
        table.push(vec![
            Cell::of(x),
            Cell::num(model.training(x), 2),
            Cell::num(model.group_op(GroupOpKind::SecureAggregation, x), 2),
            Cell::num(model.group_op(GroupOpKind::BackdoorDetection, x), 2),
        ]);
    }
    vec![table]
}

fn fig2a_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let at = |x: &str, col: &str| tables[0].get(&[("x", x)], col);
    let training = at("50", "training_s") / at("10", "training_s");
    ensure!(
        training < 6.0,
        "training must be ~linear (5x data -> {training:.1}x cost)"
    );
    let secagg = at("50", "secagg_s") / at("10", "secagg_s");
    ensure!(
        secagg > 10.0,
        "secagg must be superlinear (5x group -> {secagg:.1}x cost)"
    );
    let (s50, t50) = (at("50", "secagg_s"), at("50", "training_s"));
    ensure!(
        s50 > t50,
        "group ops ({s50} s) must dominate training ({t50} s) at size 50"
    );
    Ok(format!(
        "5x the data costs training x{training:.1}; 5x the group costs SecAgg x{secagg:.1}"
    ))
}

/// Fig. 2(b) — accuracy over cost for fixed random group sizes
/// GS ∈ {5, 10, 15, 20}.
///
/// The motivating observation: simply shrinking the group size does *not*
/// reduce the total cost needed for a given accuracy — small random groups
/// are more skewed, which slows convergence and eats the overhead savings.
/// All four curves should land in the same band.
///
/// Fig 2(b)'s cost axis runs ~4x further than the comparison figures — the
/// invariance claim is about *converged* accuracy-per-cost, so every group
/// size must get enough rounds to converge within budget.
pub const FIG2B: Experiment = Experiment {
    id: "fig2b",
    title: "Fig 2(b): accuracy over cost by group size",
    claim: "group size alone does not change accuracy-per-cost (spread under 15 points)",
    scale: ScaleRule::Shared {
        rounds_times: 2,
        rounds_cap: usize::MAX,
        budget_times: 4.0,
    },
    outputs: &[Output::new("fig2b", "group_size,round,cost,accuracy")],
    run: fig2b_run,
    shape: fig2b_shape,
};

fn fig2b_run(ctx: &Ctx) -> Vec<Table> {
    let world = World::vision(0.1, 42, ctx.scale);
    let mut table = ctx.table(0);
    for group_size in [5usize, 10, 15, 20] {
        let groups = world.form(&RandomGrouping { group_size });
        let (weighting, sampling) = (AggregationWeighting::Standard, SamplingStrategy::Random);
        let history = world.fedavg(&groups, weighting, sampling);
        trajectory_rows(&mut table, &[Cell::of(group_size)], &history);
    }
    vec![table]
}

/// The best accuracy of each series of `col` — within `budget` of cost,
/// when given — over the rows matching `key`.
fn scores<'t>(table: &'t Table, key: Key, col: &str, budget: Option<f64>) -> Vec<(&'t str, f64)> {
    let within = budget.map(|b| ("cost", b));
    let score = |series: &'t str| {
        let key = [key, &[(col, series)]].concat();
        (series, table.best(&key, "accuracy", within))
    };
    table.distinct(col).into_iter().map(score).collect()
}

fn top(scores: &[(&str, f64)]) -> f64 {
    scores.iter().map(|s| s.1).fold(f64::NAN, f64::max)
}

/// `name value, …`, largest first.
fn listed(scores: &[(&str, f64)]) -> String {
    let mut sorted = scores.to_vec();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
    let each: Vec<String> = sorted.iter().map(|(n, v)| format!("{n} {v:.4}")).collect();
    each.join(", ")
}

fn fig2b_shape(scale: &ExpScale, tables: &[Table]) -> Verdict {
    let by_size = scores(&tables[0], &[], "group_size", Some(scale.budget));
    let worst = by_size.iter().map(|s| s.1).fold(f64::NAN, f64::min);
    let spread = top(&by_size) - worst;
    ensure!(
        spread < 0.15,
        "group size alone changes accuracy-per-cost: {by_size:?}"
    );
    Ok(format!(
        "spread of the best accuracy within budget across group sizes: {spread:.4}"
    ))
}

/// Fig. 7 — the four sampling methods over CoV-formed groups:
/// Random < RCoV < SRCoV < ESRCoV in accuracy-over-cost.
///
/// "Overall, the more we emphasize CoV in sampling, the smoother and faster
/// the convergence is" (§6.1). Biased Line-15 weighting throughout: the
/// paper's Fig. 7 studies the sampling emphasis, not the unbiasedness
/// correction.
///
/// Shape: ESRCoV must not lose at the full budget and must win clearly in
/// the transient half-budget regime.
pub const FIG7: Experiment = Experiment {
    id: "fig7",
    title: "Fig 7: sampling methods, accuracy over cost",
    claim: "ESRCoV converges faster than Random (ahead at half budget) and ends no more than \
            a point behind it",
    scale: ScaleRule::SHARED,
    outputs: &[Output::new("fig7", "sampling,round,cost,accuracy")],
    run: fig7_run,
    shape: fig7_shape,
};

fn fig7_run(ctx: &Ctx) -> Vec<Table> {
    let world = World::vision(0.1, 42, ctx.scale);
    let groups = default_covg(&world);
    let mut table = ctx.table(0);
    for strategy in [
        SamplingStrategy::Random,
        SamplingStrategy::RCov,
        SamplingStrategy::SRCov,
        SamplingStrategy::ESRCov,
    ] {
        let history = world.fedavg(&groups, AggregationWeighting::Standard, strategy);
        trajectory_rows(&mut table, &[Cell::of(strategy.name())], &history);
    }
    vec![table]
}

fn fig7_shape(scale: &ExpScale, tables: &[Table]) -> Verdict {
    let at = |strategy: &str, budget: f64| {
        tables[0].best(
            &[("sampling", strategy)],
            "accuracy",
            Some(("cost", budget)),
        )
    };
    let (random, esr) = (at("Random", scale.budget), at("ESRCoV", scale.budget));
    ensure!(
        esr >= random - 0.01,
        "ESRCoV ({esr}) lost to Random ({random}) at full budget"
    );
    let half = scale.budget / 2.0;
    let (random, esr) = (at("Random", half), at("ESRCoV", half));
    ensure!(
        esr > random,
        "ESRCoV ({esr}) must converge faster than Random ({random})"
    );
    let at_half = scores(&tables[0], &[], "sampling", Some(half));
    Ok(format!(
        "best accuracy within half the budget ({half:.0}): {}",
        listed(&at_half)
    ))
}

/// Fig. 8 — the full RPi-4 overhead measurement: eight series,
/// {CIFAR, SC} × {training, backdoor detection, SecAgg, SCAFFOLD SecAgg}.
///
/// These curves *are* the calibration of the cost model (§7.1 "Total Cost
/// Emulation"): the paper fits H_i and O_g to them and then drives every
/// accuracy-vs-cost experiment from the fit. The table holds the fitted
/// curves over the paper's x ∈ [0, 50] range.
pub const FIG8: Experiment = Experiment {
    id: "fig8",
    title: "Fig 8: RPi overhead curves (emulated seconds)",
    claim: "SCAFFOLD SecAgg > SecAgg > backdoor detection at every size; CIFAR training \
            costs more than SC",
    scale: ScaleRule::SHARED,
    outputs: &[Output::new(
        "fig8",
        "x,cifar_train,cifar_backdoor,cifar_secagg,cifar_scaffold_secagg,\
         sc_train,sc_backdoor,sc_secagg,sc_scaffold_secagg",
    )],
    run: fig8_run,
    shape: fig8_shape,
};

fn fig8_run(ctx: &Ctx) -> Vec<Table> {
    let mut table = ctx.table(0);
    for x in (0..=50usize).step_by(5) {
        let mut row = vec![Cell::of(x)];
        for task in [Task::Vision, Task::Speech] {
            let model = CostModel::for_task(task);
            row.push(Cell::num(model.training(x), 2));
            for op in [
                GroupOpKind::BackdoorDetection,
                GroupOpKind::SecureAggregation,
                GroupOpKind::ScaffoldSecureAggregation,
            ] {
                row.push(Cell::num(model.group_op(op, x), 2));
            }
        }
        table.push(row);
    }
    vec![table]
}

fn fig8_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    for x in ["10", "30", "50"] {
        let at = |col: String| tables[0].get(&[("x", x)], &col);
        for task in ["cifar", "sc"] {
            let scaffold = at(format!("{task}_scaffold_secagg"));
            let (secagg, backdoor) = (at(format!("{task}_secagg")), at(format!("{task}_backdoor")));
            ensure!(
                scaffold > secagg && secagg > backdoor,
                "{task} at x={x}: SCAFFOLD SecAgg {scaffold} > SecAgg {secagg} > backdoor {backdoor}"
            );
        }
        let (cifar, sc) = (at("cifar_train".into()), at("sc_train".into()));
        ensure!(
            cifar > sc,
            "x={x}: CIFAR training ({cifar} s) must cost more than SC ({sc} s)"
        );
    }
    Ok(String::new())
}

/// Appends every method's trajectory on `world`, each row led by `lead`
/// and the method's name.
fn compare_methods(
    table: &mut Table,
    lead: &[Cell],
    world: &World,
    knobs: GroupingKnobs,
    methods: &[Method],
) {
    for &method in methods {
        let history = run_method(method, world, knobs);
        let lead = [lead, &[Cell::of(method.name())]].concat();
        trajectory_rows(table, &lead, &history);
    }
}

/// Splits `scores` into the entry named `lead` and the rest.
fn against<'t>(scores: Vec<(&'t str, f64)>, lead: &str) -> (f64, Vec<(&'t str, f64)>) {
    let (ours, rest): (Vec<_>, Vec<_>) = scores.into_iter().partition(|s| s.0 == lead);
    (ours.first().map_or(f64::NAN, |s| s.1), rest)
}

/// Fig. 9 — accuracy vs global round, all seven methods, CIFAR-like task
/// (α = 0.1, K=5, E=2).
///
/// Expected shape: Group-FEL on top; the training-based and
/// assignment-based baselines clustered below it; FedCLAR's curve drops
/// after its clustering round.
pub const FIG9: Experiment = Experiment {
    id: "fig9",
    title: "Fig 9: accuracy vs global round (CIFAR-like)",
    claim: "per round, Group-FEL matches or beats every baseline (within 3 points)",
    scale: ScaleRule::SHARED,
    outputs: &[Output::new("fig9", "method,round,accuracy")],
    run: fig9_run,
    shape: fig9_shape,
};

fn fig9_run(ctx: &Ctx) -> Vec<Table> {
    let world = World::vision(0.1, 42, ctx.scale);
    let mut table = ctx.table(0);
    let knobs = GroupingKnobs::default();
    compare_methods(&mut table, &[], &world, knobs, &Method::ALL);
    vec![table]
}

fn fig9_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let (ours, baselines) = against(
        scores(&tables[0], &[], "method", None),
        Method::GroupFel.name(),
    );
    let best = top(&baselines);
    ensure!(
        ours >= best - 0.03,
        "Group-FEL ({ours}) trails the best baseline ({best}) by round"
    );
    Ok(String::new())
}

/// World seeds of the headline comparison: the paper's §7 curves are
/// averages, and one draw decides a 0.3-point margin by luck.
const FIG10_SEEDS: [u64; 5] = [42, 1, 2, 3, 4];

/// How far the seed-mean of Group-FEL may sit below the best baseline's and
/// still count as "in the top band": half an accuracy point, about the
/// seed-to-seed standard deviation of any one method's score.
const FIG10_TOLERANCE: f64 = 0.005;

/// Fig. 10 — accuracy vs *cost*, all seven methods, CIFAR-like task.
///
/// The paper's headline comparison: measured against total learning cost
/// (Eq. 5), Group-FEL's advantage widens beyond Fig. 9's per-round view,
/// because FedProx/SCAFFOLD pay more per round and OUEA/SHARE form costly
/// oversized groups.
///
/// Run over five world seeds. Shape: the seed-mean of Group-FEL's accuracy
/// within the budget is no more than [`FIG10_TOLERANCE`] below the best
/// baseline's seed-mean; the verdict reports on how many seeds it leads
/// outright.
pub const FIG10: Experiment = Experiment {
    id: "fig10",
    title: "Fig 10: accuracy vs cost (CIFAR-like)",
    claim: "at equal learning cost Group-FEL's seed-mean accuracy is in the top band of the \
            seven methods (no more than half a point below the best baseline)",
    scale: ScaleRule::SHARED,
    outputs: &[Output::new("fig10", "seed,method,cost,accuracy")],
    run: fig10_run,
    shape: fig10_shape,
};

fn fig10_run(ctx: &Ctx) -> Vec<Table> {
    let mut table = ctx.table(0);
    for seed in FIG10_SEEDS {
        let world = World::vision(0.1, seed, ctx.scale);
        let (lead, knobs) = ([Cell::of(seed)], GroupingKnobs::default());
        compare_methods(&mut table, &lead, &world, knobs, &Method::ALL);
    }
    vec![table]
}

fn fig10_shape(scale: &ExpScale, tables: &[Table]) -> Verdict {
    let table = &tables[0];
    let (mut per_seed, mut leads) = (Vec::new(), 0);
    for seed in table.distinct("seed") {
        let by_method = scores(table, &[("seed", seed)], "method", Some(scale.budget));
        let (ours, baselines) = against(by_method, Method::GroupFel.name());
        per_seed.push(format!("seed {seed} {:+.4}", ours - top(&baselines)));
        leads += usize::from(ours >= top(&baselines));
    }
    let seed_mean = |method| {
        let by_seed = scores(table, &[("method", method)], "seed", Some(scale.budget));
        let accuracies: Vec<f64> = by_seed.iter().map(|s| s.1).collect();
        (method, mean(&accuracies))
    };
    let seed_means: Vec<(&str, f64)> = table
        .distinct("method")
        .into_iter()
        .map(seed_mean)
        .collect();
    let ranking = listed(&seed_means);
    let (ours, baselines) = against(seed_means, Method::GroupFel.name());
    let margin = ours - top(&baselines);
    ensure!(
        margin >= -FIG10_TOLERANCE,
        "Group-FEL's seed-mean is {margin:+.4} from the best baseline's: {ranking}"
    );
    Ok(format!(
        "seed-mean accuracy within budget {:.0}: {ranking}\n\
         Group-FEL's margin to the best baseline: seed-mean {margin:+.4} (tolerance \
         -{FIG10_TOLERANCE}); {}; it leads outright on {leads} of {} seeds",
        scale.budget,
        per_seed.join(", "),
        per_seed.len()
    ))
}

/// Fig. 11 — accuracy vs cost on the Speech-Commands-like task with
/// extreme skew: α = 0.01 (each client dominated by ≤5 of 35 labels),
/// MinGS = 15, no MaxCoV constraint (§7.3.2).
///
/// Expected shape: curves are noisier ("the convergence is unstable due to
/// the serious inconsistency"), and Group-FEL still leads. The 35-class
/// task under extreme skew converges slowly; the speech cost table is ~3x
/// cheaper per round, so the same budget buys the longer horizon the
/// paper's Fig. 11 plots.
pub const FIG11: Experiment = Experiment {
    id: "fig11",
    title: "Fig 11: accuracy vs cost (Speech-Commands-like)",
    claim: "under extreme skew Group-FEL still beats the typical (median) baseline",
    scale: ScaleRule::Shared {
        rounds_times: 2,
        rounds_cap: usize::MAX,
        budget_times: 1.0,
    },
    outputs: &[Output::new("fig11", "method,cost,accuracy")],
    run: fig11_run,
    shape: fig11_shape,
};

fn fig11_run(ctx: &Ctx) -> Vec<Table> {
    let world = World::speech(0.01, 42, ctx.scale);
    let knobs = GroupingKnobs {
        target_size: 16,
        min_group_size: 15,
        max_cov: f32::INFINITY,
    };
    let mut table = ctx.table(0);
    compare_methods(&mut table, &[], &world, knobs, &Method::ALL);
    vec![table]
}

fn fig11_shape(scale: &ExpScale, tables: &[Table]) -> Verdict {
    let by_method = scores(&tables[0], &[], "method", Some(scale.budget));
    let (ours, mut baselines) = against(by_method, Method::GroupFel.name());
    baselines.sort_by(|a, b| a.1.total_cmp(&b.1));
    let median = baselines[baselines.len() / 2].1;
    ensure!(
        ours >= median,
        "Group-FEL ({ours}) is below the median baseline ({median})"
    );
    Ok(format!("median baseline within budget: {median:.4}"))
}

/// Fig. 12 — impact ablation: grouping × sampling combinations.
///
/// {CoVG+RS, RG+CoVS, CoVG+CoVS, KLDG+RS, KLDG+CoVS} with FedAvg local
/// updates. Expected shape: CoVG+CoVS (the full Group-FEL) on top; either
/// component alone gives only part of the benefit ("the advantage of the
/// proposed methods is more clear when both CoVG and CoVS are used
/// together").
pub const FIG12: Experiment = Experiment {
    id: "fig12",
    title: "Fig 12: grouping × sampling combinations (accuracy vs cost)",
    claim: "CoV grouping and CoV sampling together lead every partial combination (within 2 \
            points)",
    scale: ScaleRule::SHARED,
    outputs: &[Output::new("fig12", "combo,cost,accuracy")],
    run: fig12_run,
    shape: fig12_shape,
};

fn fig12_run(ctx: &Ctx) -> Vec<Table> {
    let world = World::vision(0.1, 42, ctx.scale);
    let knobs = GroupingKnobs::default();
    let group_size = knobs.target_size;
    let covg = CovGrouping {
        min_group_size: knobs.min_group_size,
        max_cov: knobs.max_cov,
    };
    let (rg, kldg) = (RandomGrouping { group_size }, KldGrouping { group_size });
    let combos: [(&str, &dyn GroupingAlgorithm, SamplingStrategy); 5] = [
        ("CoVG+RS", &covg, SamplingStrategy::Random),
        ("RG+CoVS", &rg, SamplingStrategy::ESRCov),
        ("CoVG+CoVS", &covg, SamplingStrategy::ESRCov),
        ("KLDG+RS", &kldg, SamplingStrategy::Random),
        ("KLDG+CoVS", &kldg, SamplingStrategy::ESRCov),
    ];
    let mut table = ctx.table(0);
    for (name, grouping, sampling) in combos {
        let groups = world.form(grouping);
        let history = world.fedavg(&groups, AggregationWeighting::Standard, sampling);
        trajectory_rows(&mut table, &[Cell::of(name)], &history);
    }
    vec![table]
}

fn fig12_shape(scale: &ExpScale, tables: &[Table]) -> Verdict {
    let by_combo = scores(&tables[0], &[], "combo", Some(scale.budget));
    let (full, partial) = against(by_combo, "CoVG+CoVS");
    let best = top(&partial);
    ensure!(
        full >= best - 0.02,
        "CoVG+CoVS ({full}) trails a partial combination ({best})"
    );
    Ok(String::new())
}

/// Table 1 — Group-FEL under α ∈ {0.1, 0.5, 1.0} × MaxCoV ∈ {0.1, 0.5, 1.0}:
/// group-size range/average, average group CoV, and budget-constrained
/// accuracy (MinGS=5, K=5, E=2).
///
/// Expected structure (§7.2): larger MaxCoV ⇒ smaller groups with larger
/// CoV; larger α (more IID data) ⇒ higher accuracy and smaller achievable
/// CoV. Greedy leftover-tail groups add noise to the mean CoV at reduced
/// scale, so the CoV ordering is required up to a tolerance of 0.1.
pub const TABLE1: Experiment = Experiment {
    id: "table1",
    title: "Table 1: Group-FEL across alpha × MaxCoV",
    claim: "tighter MaxCoV gives larger groups with smaller CoV; the most IID data reaches \
            at least the most skewed data's accuracy (within 2 points)",
    scale: ScaleRule::SHARED,
    outputs: &[Output::new(
        "table1",
        "alpha,max_cov,gs_min,gs_max,gs_avg,avg_cov,accuracy",
    )],
    run: table1_run,
    shape: table1_shape,
};

fn table1_run(ctx: &Ctx) -> Vec<Table> {
    let mut table = ctx.table(0);
    for alpha in [0.1f64, 0.5, 1.0] {
        let world = World::vision(alpha, 42, ctx.scale);
        for max_cov in [0.1f32, 0.5, 1.0] {
            let groups = world.form(&CovGrouping {
                min_group_size: 5,
                max_cov,
            });
            let sizes: Vec<usize> = groups.iter().map(Group::len).collect();
            let gs_avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
            let avg_cov = mean_group_cov(&world.partition.label_matrix, &groups);
            let (weighting, sampling) =
                (AggregationWeighting::Stabilized, SamplingStrategy::ESRCov);
            let history = world.fedavg(&groups, weighting, sampling);
            table.push(vec![
                Cell::of(alpha),
                Cell::of(max_cov),
                Cell::of(sizes.iter().min().expect("a federation forms groups")),
                Cell::of(sizes.iter().max().expect("a federation forms groups")),
                Cell::num(gs_avg, 2),
                Cell::num(avg_cov, 3),
                Cell::num(history.accuracy_within_cost(ctx.scale.budget), 4),
            ]);
        }
    }
    vec![table]
}

fn table1_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let table = &tables[0];
    let mut best = Vec::new();
    for alpha in table.distinct("alpha") {
        let cell =
            |max_cov: &str, col: &str| table.get(&[("alpha", alpha), ("max_cov", max_cov)], col);
        let (tight, loose) = (cell("0.1", "gs_avg"), cell("1", "gs_avg"));
        ensure!(
            tight >= loose,
            "alpha={alpha}: tighter MaxCoV must give larger groups"
        );
        let (tight, loose) = (cell("0.1", "avg_cov"), cell("1", "avg_cov"));
        ensure!(
            tight <= loose + 0.1,
            "alpha={alpha}: tighter MaxCoV must give smaller CoV ({tight} vs {loose})"
        );
        best.push(table.best(&[("alpha", alpha)], "accuracy", None));
    }
    let (skewed, iid) = (best[0], best[best.len() - 1]);
    ensure!(
        iid >= skewed - 0.02,
        "the most IID alpha ({iid}) should reach the most skewed one's accuracy ({skewed})"
    );
    Ok(String::new())
}
