//! Extension — straggler resilience of the semi-async runtime, measured
//! in emulated wall-clock (docs/ASYNC.md).
//!
//! Both arms run the *same* event-driven scheduler over the same
//! straggler plan (a quarter of the clients slowed 8×), so the emulated
//! clocks are directly comparable:
//!
//! * **sync** — `quorum_fraction = 1.0`, deadlines disabled: every group
//!   round waits for its slowest member. Bit-identical in model terms to
//!   the lockstep engine; the clock shows what stragglers cost it.
//! * **semi-async** — quorum-or-deadline rounds (quorum 0.8, deadline
//!   2.5× nominal): slow reports are cut as timed fault events and the
//!   round closes without them.
//!
//! Shape check: the semi-async arm must finish at a strictly lower
//! emulated clock while staying within ±2 accuracy points of sync.
//!
//! Scale: `GFL_SCALE=smoke` (CI), default reduced, `GFL_SCALE=paper`.

use gfl_core::prelude::*;
use gfl_core::sampling::AggregationWeighting;
use gfl_experiments::emit::{f, print_series, to_csv, write_csv};
use gfl_experiments::world::{ExpScale, World};

fn scale() -> ExpScale {
    match std::env::var("GFL_SCALE").as_deref() {
        Ok("paper") => ExpScale {
            clients: 120,
            edges: 3,
            dataset: 22_000,
            global_rounds: 40,
            sampled_groups: 6,
            eval_every: 4,
            budget: 1e9,
        },
        Ok("smoke") => ExpScale {
            clients: 24,
            edges: 2,
            dataset: 2_400,
            global_rounds: 6,
            sampled_groups: 2,
            eval_every: 3,
            budget: 1e9,
        },
        _ => ExpScale {
            clients: 48,
            edges: 2,
            dataset: 6_000,
            global_rounds: 24,
            sampled_groups: 4,
            eval_every: 4,
            budget: 1e9,
        },
    }
}

/// A fifth of the fleet slowed 8×: the regime where wait-for-all
/// rounds are dominated by the tail.
fn straggler_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        straggler_fraction: 0.20,
        straggler_factor: 8.0,
        straggler_jitter: 0.25,
        ..FaultPlan::none()
    }
}

fn main() {
    let seed = 11u64;
    let world = World::vision(0.3, seed, scale());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 4,
            max_cov: 1000.0,
        },
        &world.topology,
        &world.partition.label_matrix,
        seed,
    );

    let arms: [(&str, FaultPolicy); 2] = [
        (
            "sync",
            FaultPolicy {
                quorum_fraction: 1.0,
                deadline_factor: 0.0,
                ..FaultPolicy::default()
            },
        ),
        (
            "semi-async",
            FaultPolicy {
                quorum_fraction: 0.8,
                deadline_factor: 2.5,
                ..FaultPolicy::default()
            },
        ),
    ];

    let header = [
        "arm",
        "accuracy",
        "clock_s",
        "cut_reports",
        "stale_admitted",
        "busy_skips",
        "cost",
    ];
    let mut rows = Vec::new();
    let mut cells: Vec<(&str, f64, f64)> = Vec::new();
    for (name, policy) in arms {
        let trainer = world
            .trainer(world.config(AggregationWeighting::Standard))
            .with_faults(straggler_plan(seed), policy, &world.topology);
        let probs = trainer.sampling_probs(&groups, SamplingStrategy::ESRCov);
        let plan = RunPlan {
            clock: Clock::EventDriven(AsyncConfig::default()),
            membership: Membership::Static {
                groups: &groups,
                probs: &probs,
            },
        };
        let mut state = trainer.start(&FedAvg);
        trainer
            .drive(&FedAvg, &plan, &mut state, trainer.config().global_rounds)
            .expect("a static partition is never re-formed");
        let history = &state.history;
        let (_, report) = state.scheduler.as_ref().expect("event-clock report");
        let last = history.records().last().expect("run produced records");
        let accuracy = f64::from(last.accuracy);
        let clock = report.final_clock_s();
        let sum =
            |g: fn(&AsyncRoundRecord) -> usize| -> usize { report.rounds.iter().map(g).sum() };
        rows.push(vec![
            name.to_string(),
            f(accuracy, 4),
            f(clock, 1),
            report.total_cut_reports().to_string(),
            sum(|r| r.stale_admitted).to_string(),
            sum(|r| r.busy_skipped).to_string(),
            f(last.cost, 0),
        ]);
        cells.push((name, accuracy, clock));
    }

    print_series(
        "Straggler resilience: quorum-or-deadline rounds vs wait-for-all (emulated clock)",
        &header,
        &rows,
    );
    let path = write_csv("straggler_resilience", &to_csv(&header, &rows));
    println!("\nwrote {}", path.display());

    // Shape check: cutting the 8× tail must buy emulated wall-clock
    // without giving up accuracy.
    let (_, acc_sync, clock_sync) = cells[0];
    let (_, acc_semi, clock_semi) = cells[1];
    assert!(
        clock_semi < clock_sync,
        "semi-async clock {clock_semi:.1}s must beat sync {clock_sync:.1}s"
    );
    assert!(
        (acc_semi - acc_sync).abs() <= 0.02,
        "semi-async accuracy {acc_semi:.4} must stay within ±2 points of sync {acc_sync:.4}"
    );
    println!(
        "shape check passed: {:.1}s -> {:.1}s ({:.0}% faster) at {:+.2} accuracy points",
        clock_sync,
        clock_semi,
        (1.0 - clock_semi / clock_sync) * 100.0,
        (acc_semi - acc_sync) * 100.0
    );
}
