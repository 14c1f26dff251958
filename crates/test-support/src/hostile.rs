//! A checkpoint shaped like the `hostile-observed` benchmark's, built
//! without running anything.

use gfl_core::checkpoint::{Checkpoint, CHECKPOINT_VERSION};
use gfl_core::prelude::*;
use gfl_faults::FaultEvent;

/// Rounds, and model parameters (the speech model's), of the benchmark run.
const ROUNDS: usize = 50;
const PARAMS: usize = 3_683;

/// A checkpoint with the make-up of `hostile-observed`'s at seed 7: 50
/// evaluated rounds of the speech model, an event-clock report, and
/// `events` events spread over the rounds, three in four of them
/// straggler cuts (that run logs 18 536, 77 % cuts). Deterministic and
/// synthetic: a fixture for the writers' memory and throughput figures,
/// not a state to resume.
pub fn hostile_checkpoint(events: usize) -> Checkpoint {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    let mut history = RunHistory::default();
    let mut rounds = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let clock_s = 39.4 * (round + 1) as f64 + (draw() % 1000) as f64 / 977.0;
        history.push(RoundRecord {
            round,
            cost: 5_847.46 * (round + 1) as f64,
            accuracy: 0.2 + round as f32 / 97.0,
            loss: 2.9 - round as f32 / 41.0,
            train_loss: 3.1 - round as f32 / 43.0,
            trigger_asr: Some(0.949),
            flip_asr: Some(0.215),
        });
        let span = events * round / ROUNDS..events * (round + 1) / ROUNDS;
        history.record(span.map(|i| event(round, i, draw(), clock_s)));
        rounds.push(AsyncRoundRecord {
            round,
            clock_s,
            trained: 12,
            admitted: 11,
            stale_admitted: 0,
            stale_dropped: 0,
            busy_skipped: 0,
            cut_reports: 276,
        });
    }
    Checkpoint {
        version: CHECKPOINT_VERSION,
        params: (0..PARAMS)
            .map(|_| (draw() % 2_000_001) as f32 / 1e6 - 1.0)
            .collect(),
        round: ROUNDS,
        history,
        config: GroupFelConfig::tiny(),
        cost_so_far: 292_373.032,
        membership: None,
        scheduler: Some(SchedulerState {
            clock_s: rounds.last().map_or(0.0, |r| r.clock_s),
            busy: Vec::new(),
            pending: Vec::new(),
            rounds,
        }),
    }
}

/// The `i`-th event of the log, recorded at `round`; `r` is a fresh draw.
fn event(round: usize, i: usize, r: u64, clock_s: f64) -> Event {
    let (group_round, group, client) = (i % 3, (r % 59) as usize, (r % 600) as usize);
    let frac = (r >> 20) as f64 / (1u64 << 33) as f64;
    match i % 16 {
        0..=11 => Event::Fault(FaultEvent::StragglerCut {
            round,
            group_round,
            group,
            client,
            slowdown: 1.0 + 7.0 * frac,
        }),
        12 => Event::Timed(TimedEvent::GroupRoundClosed {
            round,
            group,
            group_round,
            close_s: clock_s - 10.0 * frac,
            reported: 7,
            cut: 3,
        }),
        13 => Event::Fault(FaultEvent::ClientCrash {
            round,
            group_round,
            group,
            client,
        }),
        14 => Event::Attack(AttackEvent::BackdoorInjected {
            round,
            group_round,
            group,
            client,
            rows: 40,
        }),
        _ => Event::Regroup(RegroupEvent::ClientDeparted {
            round,
            client,
            group,
        }),
    }
}
