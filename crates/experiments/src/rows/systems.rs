//! The hierarchy as a system: wall-clock under stragglers, the semi-async
//! runtime, and the attack↔defense loop (docs/ASYNC.md, docs/FAULTS.md).

use gfl_core::prelude::*;
use gfl_core::sampling::sample_without_replacement;
use gfl_defense::robust::{coordinate_median, multi_krum, trimmed_mean};
use gfl_defense::{filter_updates, scale_attack, sign_flip_attack, DefenseConfig};
use gfl_sim::{CommModel, CostModel, StragglerModel, Task};
use gfl_tensor::init::GflRng;
use gfl_tensor::{init, ops};

use crate::emit::{Cell, Output, Table};
use crate::methods::default_covg;
use crate::registry::{Ctx, Experiment, Verdict};
use crate::world::{ExpScale, ScaleRule, World};

/// Sampled rounds the expected synchronous barrier is averaged over.
const WALLCLOCK_DRAWS: u64 = 128;

/// Extension — wall-clock view of the hierarchy under device heterogeneity
/// (§2.3's alternative measurement axis): small groups finish faster
/// because the synchronous barrier waits for fewer stragglers per group.
///
/// A tenth of the clients run 4× slow. One round's barrier is set by the
/// slowest client of the S sampled groups, so a single draw says which
/// groups were picked, not how the grouping behaves; the table holds the
/// *expected* barrier — the mean over [`WALLCLOCK_DRAWS`] rounds of S
/// groups drawn by the engine's own sampler at the engine's per-round
/// seeds. (That hierarchical FL moves less WAN traffic than flat FL is
/// `gfl-sim`'s `hierarchy_beats_flat_cloud_upload`.)
pub const WALLCLOCK: Experiment = Experiment {
    id: "wallclock",
    title: "Wall-clock per global round under stragglers (mean over sampled rounds)",
    claim: "larger groups lose more wall-clock to stragglers: RG15's expected round is \
            strictly slower than RG6's",
    scale: ScaleRule::SHARED,
    outputs: &[Output::new("wallclock", "grouping,groups,wall_clock_s")],
    run: wallclock_run,
    shape: wallclock_shape,
};

fn wallclock_run(ctx: &Ctx) -> Vec<Table> {
    let world = World::vision(0.1, 42, ctx.scale);
    let params = world.model.param_len();
    let comm = CommModel::edge_default();
    let cost = CostModel::for_task(Task::Vision);
    let stragglers = StragglerModel::heavy_tail(world.partition.num_clients(), 0.1, 4.0, 7);
    let compute = |client: &usize| {
        let samples = world.partition.indices[*client].len();
        2.0 * cost.training(samples) * stragglers.slowdown(*client)
    };

    let mut table = ctx.table(0);
    let partitions = [
        ("RG6", world.form(&RandomGrouping { group_size: 6 })),
        ("RG15", world.form(&RandomGrouping { group_size: 15 })),
        ("CoVG", default_covg(&world)),
    ];
    for (name, groups) in partitions {
        let uniform = vec![1.0; groups.len()];
        let mut total = 0.0;
        for round in 0..WALLCLOCK_DRAWS {
            // The driver's sampling stream: a pure function of (seed, round).
            let mut rng = init::rng(world.seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F));
            let sampled = sample_without_replacement(&mut rng, &uniform, ctx.scale.sampled_groups);
            let compute: Vec<Vec<f64>> = sampled
                .iter()
                .map(|&g| groups[g].iter().map(compute).collect())
                .collect();
            total += comm.global_round_wall_clock(&compute, params, 5, 1.0);
        }
        table.push(vec![
            Cell::of(name),
            Cell::of(groups.len()),
            Cell::num(total / WALLCLOCK_DRAWS as f64, 1),
        ]);
    }
    vec![table]
}

fn wallclock_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let seconds = |grouping: &str| tables[0].get(&[("grouping", grouping)], "wall_clock_s");
    let (rg6, rg15) = (seconds("RG6"), seconds("RG15"));
    ensure!(
        rg15 > rg6,
        "larger groups must lose more wall-clock to stragglers (RG15 {rg15} s vs RG6 {rg6} s)"
    );
    Ok(String::new())
}

/// The robustness rows train a smaller federation of their own: every cell
/// is a full run, and there are ten (or two long) of them.
const fn robustness_scale(small_rounds: usize) -> ScaleRule {
    ScaleRule::Own {
        small: ExpScale {
            clients: 48,
            edges: 2,
            dataset: 6_000,
            global_rounds: small_rounds,
            sampled_groups: 4,
            eval_every: 4,
            budget: 1e9,
        },
        paper: ExpScale {
            clients: 120,
            edges: 3,
            dataset: 22_000,
            global_rounds: 40,
            sampled_groups: 6,
            eval_every: 4,
            budget: 1e9,
        },
    }
}

/// Extension — straggler resilience of the semi-async runtime, measured
/// in emulated wall-clock (docs/ASYNC.md).
///
/// Both arms run the *same* event-driven scheduler over the same
/// straggler plan (a fifth of the clients slowed 8× — the regime where
/// wait-for-all rounds are dominated by the tail), so the emulated clocks
/// are directly comparable:
///
/// * **sync** — `quorum_fraction = 1.0`, deadlines disabled: every group
///   round waits for its slowest member. Bit-identical in model terms to
///   the lockstep engine; the clock shows what stragglers cost it.
/// * **semi-async** — quorum-or-deadline rounds (quorum 0.8, deadline
///   2.5× nominal): slow reports are cut as timed fault events and the
///   round closes without them.
///
/// Shape check: the semi-async arm must finish at a strictly lower
/// emulated clock while staying within ±2 accuracy points of sync.
pub const STRAGGLER_RESILIENCE: Experiment = Experiment {
    id: "straggler_resilience",
    title: "Straggler resilience: quorum-or-deadline rounds vs wait-for-all (emulated clock)",
    claim: "cutting the 8x tail buys emulated wall-clock at no more than 2 accuracy points",
    scale: robustness_scale(24),
    outputs: &[Output::new(
        "straggler_resilience",
        "arm,accuracy,clock_s,cut_reports,stale_admitted,busy_skips,cost",
    )],
    run: straggler_run,
    shape: straggler_shape,
};

fn straggler_run(ctx: &Ctx) -> Vec<Table> {
    let seed = 11u64;
    let world = World::vision(0.3, seed, ctx.scale);
    let groups = world.form(&CovGrouping {
        min_group_size: 4,
        max_cov: 1000.0,
    });
    let stragglers = FaultPlan {
        seed,
        straggler_fraction: 0.20,
        straggler_factor: 8.0,
        straggler_jitter: 0.25,
        ..FaultPlan::none()
    };
    let mut table = ctx.table(0);
    for (name, quorum_fraction, deadline_factor) in [("sync", 1.0, 0.0), ("semi-async", 0.8, 2.5)] {
        let policy = FaultPolicy {
            quorum_fraction,
            deadline_factor,
            ..FaultPolicy::default()
        };
        let trainer = world
            .trainer(world.config(AggregationWeighting::Standard))
            .with_faults(stragglers.clone(), policy, &world.topology);
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
        let sched = state.scheduler.as_ref().expect("event-clock report");
        let last = state.history.last_record().expect("run produced records");
        let sum = |g: fn(&AsyncRoundRecord) -> usize| -> usize { sched.rounds.iter().map(g).sum() };
        table.push(vec![
            Cell::of(name),
            Cell::num(last.accuracy, 4),
            Cell::num(sched.clock_s, 1),
            Cell::of(sched.total_cut_reports()),
            Cell::of(sum(|r| r.stale_admitted)),
            Cell::of(sum(|r| r.busy_skipped)),
            Cell::num(last.cost, 0),
        ]);
    }
    vec![table]
}

fn straggler_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let of = |arm: &str, col: &str| tables[0].get(&[("arm", arm)], col);
    let (clock_sync, clock_semi) = (of("sync", "clock_s"), of("semi-async", "clock_s"));
    ensure!(
        clock_semi < clock_sync,
        "semi-async clock {clock_semi} s must beat sync {clock_sync} s"
    );
    let points = (of("semi-async", "accuracy") - of("sync", "accuracy")) * 100.0;
    ensure!(
        points.abs() <= 2.0,
        "semi-async accuracy must stay within ±2 points of sync (off by {points:+.2})"
    );
    Ok(format!(
        "{:.0}% of the emulated clock saved at {points:+.2} accuracy points",
        (1.0 - clock_semi / clock_sync) * 100.0
    ))
}

/// Extension — the closed attack↔defense loop measured end to end: a
/// deterministic backdoor campaign runs *inside* federated training and
/// each group-level defense is scored by the attack success rate (ASR)
/// that survives it.
///
/// Unlike `robust_defense` / `backdoor_e2e` (which score aggregation
/// rules on synthetic update vectors), every cell here is a full
/// Algorithm-1 run: compromised clients train on trigger-stamped shards,
/// the group aggregator applies the configured defense, and the engine's
/// ASR evaluator reports how often the trigger set is misclassified to
/// the attacker's target at the end of training.
///
/// The sweep crosses group size (the paper's formation knob, here the CoV
/// formation floor: 4 and 8) with the defense rule
/// (none/median/trimmed-mean/krum/flame), echoing Fig. 7's structure with
/// ASR on the y-axis. Shape check: for every group size, the undefended
/// mean must leak a higher ASR than the best of Krum and the FLAME filter.
pub const ATTACK_DEFENSE: Experiment = Experiment {
    id: "attack_defense",
    title: "Backdoor ASR vs group-level defense (trigger-set misclassification)",
    claim: "krum/flame suppress the backdoor the plain mean leaks, at every group size",
    scale: robustness_scale(16),
    outputs: &[Output::new(
        "attack_defense",
        "group_size,defense,trigger_asr,accuracy,injected,filtered",
    )],
    run: attack_run,
    shape: attack_shape,
};

fn attack_run(ctx: &Ctx) -> Vec<Table> {
    let seed = 7u64;
    let world = World::vision(0.3, seed, ctx.scale);
    // Model-replacement backdoor: a modest compromised fraction whose
    // members boost their poison-trained delta. The boost is what gives
    // the mean-aggregated run its high ASR — and what makes the poisoned
    // updates geometric outliers that Krum and FLAME can actually catch.
    let plan = AdversaryPlan {
        backdoor_boost: 8.0,
        ..AdversaryPlan::backdoor(seed, 0.15)
    };
    let mut table = ctx.table(0);
    for group_size in [4usize, 8] {
        let groups = world.form(&CovGrouping {
            min_group_size: group_size,
            max_cov: 1000.0,
        });
        for (name, rule) in [
            ("none", RobustAggRule::Mean),
            ("median", RobustAggRule::CoordinateMedian),
            ("trimmed-mean", RobustAggRule::TrimmedMean { trim: 1 }),
            ("krum", RobustAggRule::Krum { byzantine: 1 }),
            ("flame", RobustAggRule::FlameFilter),
        ] {
            let trainer = world
                .trainer(world.config(AggregationWeighting::Standard))
                .with_adversary(plan.clone())
                .with_robust_agg(rule);
            let history = trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
            let asr = history.records().iter().rev().find_map(|r| r.trigger_asr);
            let summary = summarize_attacks(history.events().iter().filter_map(Event::attack));
            table.push(vec![
                Cell::of(group_size),
                Cell::of(name),
                Cell::num(
                    asr.expect("backdoor campaign must produce a trigger ASR"),
                    4,
                ),
                Cell::num(history.final_accuracy(), 4),
                Cell::of(summary.injected()),
                Cell::of(summary.filtered()),
            ]);
        }
    }
    vec![table]
}

fn attack_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    for group_size in tables[0].distinct("group_size") {
        let asr = |defense: &str| {
            let key = [("group_size", group_size), ("defense", defense)];
            tables[0].get(&key, "trigger_asr")
        };
        let (undefended, defended) = (asr("none"), asr("krum").min(asr("flame")));
        ensure!(
            undefended > defended,
            "group_size={group_size}: ASR(none)={undefended} must exceed best defended ASR={defended}"
        );
    }
    Ok(String::new())
}

/// A common descent direction and `count` noisy copies of it (σ = 0.15).
fn noisy_updates(rng: &mut GflRng, dim: usize, count: usize) -> (Vec<f32>, Vec<Vec<f32>>) {
    let mut base = vec![0.0f32; dim];
    init::fill_normal(rng, 1.0, &mut base);
    let mut updates: Vec<Vec<f32>> = Vec::with_capacity(count);
    for _ in 0..count {
        let mut update = base.clone();
        let mut noise = vec![0.0f32; dim];
        init::fill_normal(rng, 0.15, &mut noise);
        ops::add_assign(&noise, &mut update);
        updates.push(update);
    }
    (base, updates)
}

/// Model replacement: the update sign-flipped and scaled by `boost`.
fn poison(update: &mut [f32], boost: f32) {
    sign_flip_attack(update);
    scale_attack(update, boost);
}

fn mean_update<'a>(dim: usize, updates: impl ExactSizeIterator<Item = &'a Vec<f32>>) -> Vec<f32> {
    let count = updates.len().max(1);
    let mut sum = vec![0.0f32; dim];
    for update in updates {
        ops::add_assign(update, &mut sum);
    }
    ops::scale(1.0 / count as f32, &mut sum);
    sum
}

/// The FLAME-style filter's aggregate: mean of the accepted, clipped
/// updates, with the filter's report.
fn flame_aggregate(updates: &[Vec<f32>]) -> (Vec<f32>, gfl_defense::DefenseReport) {
    let mut clipped = updates.to_vec();
    let report = filter_updates(&mut clipped, &DefenseConfig::default());
    let accepted = mean_update(
        clipped[0].len(),
        report.accepted.iter().map(|&i| &clipped[i]),
    );
    (accepted, report)
}

fn relative_error(aggregate: &[f32], truth: &[f32]) -> f64 {
    let mut diff = aggregate.to_vec();
    ops::sub_assign(truth, &mut diff);
    f64::from(ops::norm(&diff) / ops::norm(truth).max(1e-9))
}

/// Extension — the backdoor-detection group operation exercised end to end.
///
/// The paper charges for backdoor detection in every group round but never
/// shows it firing. This row injects actual malicious clients (scaled
/// sign-flipped updates) into one group's aggregation and shows the
/// `gfl-defense` pipeline (pairwise cosine clustering + norm clipping)
/// excluding them, at the quadratic cost the model assumes.
pub const BACKDOOR_E2E: Experiment = Experiment {
    id: "backdoor_e2e",
    title: "Backdoor defense end-to-end: detection, error reduction, quadratic cost",
    claim: "every attacker is caught, no honest client excluded, the aggregation error falls, \
            and the pairwise work is g(g-1)/2",
    scale: ScaleRule::SHARED,
    outputs: &[Output::new(
        "backdoor_e2e",
        "group_size,attackers,detected,false_pos,sim_evals,agg_error_defended,agg_error_undefended",
    )],
    run: backdoor_run,
    shape: backdoor_shape,
};

fn backdoor_run(ctx: &Ctx) -> Vec<Table> {
    let mut table = ctx.table(0);
    for (group, attackers) in [(8usize, 1usize), (12, 2), (20, 4), (32, 6)] {
        let (dim, honest) = (4096, group - attackers);
        let mut rng = init::rng(group as u64 * 31 + attackers as u64);
        // Benign updates are noisy; each attacker replaces the clean direction.
        let (base, mut updates) = noisy_updates(&mut rng, dim, honest);
        for _ in 0..attackers {
            let mut update = base.clone();
            poison(&mut update, 8.0);
            updates.push(update);
        }
        let truth = mean_update(dim, updates[..honest].iter());
        let undefended = mean_update(dim, updates.iter());
        let (defended, report) = flame_aggregate(&updates);
        let detected = report.rejected.iter().filter(|&&i| i >= honest).count();
        table.push(vec![
            Cell::of(group),
            Cell::of(attackers),
            Cell::of(format!("{detected}/{attackers}")),
            Cell::of(report.rejected.len() - detected),
            Cell::of(report.cost.similarity_evals),
            Cell::num(relative_error(&defended, &truth), 3),
            Cell::num(relative_error(&undefended, &truth), 3),
        ]);
    }
    vec![table]
}

fn backdoor_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let table = &tables[0];
    for row in 0..table.rows.len() {
        let (g, attackers) = (table.num(row, "group_size"), table.num(row, "attackers"));
        let detected = table.text(row, "detected");
        let all = format!("{attackers}/{attackers}");
        ensure!(
            detected == all,
            "g={g}: all attackers must be caught (detected {detected})"
        );
        let false_pos = table.num(row, "false_pos");
        ensure!(
            false_pos == 0.0,
            "g={g}: {false_pos} honest clients were excluded"
        );
        let defended = table.num(row, "agg_error_defended");
        let undefended = table.num(row, "agg_error_undefended");
        ensure!(
            defended < undefended,
            "g={g}: defense must reduce aggregation error ({defended} vs {undefended})"
        );
        let sims = table.num(row, "sim_evals");
        ensure!(
            sims == g * (g - 1.0) / 2.0,
            "g={g}: pairwise work must be g(g-1)/2, not {sims}"
        );
    }
    Ok(String::new())
}

/// Extension — comparing the group aggregator's defense options under a
/// coordinated model-replacement attack: FLAME-style filtering (the
/// paper's backdoor-detection op), coordinate median, trimmed mean, and
/// Multi-Krum.
///
/// Reports the relative aggregation error vs the honest mean as the number
/// of attackers in a group of 16 grows — the table a deployment would
/// consult to pick its group operation.
pub const ROBUST_DEFENSE: Experiment = Experiment {
    id: "robust_defense",
    title: "Robust aggregation under model-replacement attack (relative error vs honest mean)",
    claim: "every defense beats the undefended mean once attackers appear",
    scale: ScaleRule::SHARED,
    outputs: &[Output::new(
        "robust_defense",
        "attackers,plain_mean,flame_filter,coord_median,trimmed_mean,multi_krum",
    )],
    run: robust_run,
    shape: robust_shape,
};

fn robust_run(ctx: &Ctx) -> Vec<Table> {
    let group = 16usize;
    let mut table = ctx.table(0);
    for attackers in [0usize, 1, 2, 4, 6] {
        let (dim, honest) = (2048, group - attackers);
        let mut rng = init::rng(100 + attackers as u64);
        let (_, mut updates) = noisy_updates(&mut rng, dim, group);
        for update in &mut updates[honest..] {
            poison(update, 12.0);
        }
        let truth = mean_update(dim, updates[..honest].iter());
        let aggregates = [
            mean_update(dim, updates.iter()),
            flame_aggregate(&updates).0,
            coordinate_median(&updates),
            trimmed_mean(&updates, attackers.min((group - 1) / 2)),
            multi_krum(&updates, attackers, honest / 2),
        ];
        let mut row = vec![Cell::of(attackers)];
        row.extend(
            aggregates
                .iter()
                .map(|a| Cell::num(relative_error(a, &truth), 3)),
        );
        table.push(row);
    }
    vec![table]
}

fn robust_shape(_: &ExpScale, tables: &[Table]) -> Verdict {
    let table = &tables[0];
    for row in 1..table.rows.len() {
        let plain = table.num(row, "plain_mean");
        for defense in table.spec.columns().skip(2) {
            let err = table.num(row, defense);
            let attackers = table.text(row, "attackers");
            ensure!(
                err < plain,
                "attackers={attackers}: {defense} error {err} vs plain mean {plain}"
            );
        }
    }
    Ok(String::new())
}
