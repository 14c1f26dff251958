//! Parent-anchored digests of the run's event log.
//!
//! The constants below were recorded by running this file's digests on
//! commit `6c05297`, the parent of the change that folded the history's
//! four per-kind logs (faults, attacks, regroups, emulated-clock
//! incidents) and its ASR side trajectory into one round-ordered `Event`
//! list and two `RoundRecord` fields. There they were read through the
//! four per-kind accessors; here each kind's sequence is the projection
//! of the one log, so "the fold moved nothing" is a statement about what
//! the parent recorded, not about the change agreeing with itself.
//!
//! Each kind's sequence is hashed (FNV-1a) event by event in its JSON
//! form, and the records by the bits of their five fields plus the ASR
//! pair. The cases are the six history-golden scenarios at seeds 1 and 2,
//! and one hostile world — event clock × self-healing × faults ×
//! adversary — the only source of emulated-clock events. A mismatch prints
//! the freshly computed table, so a change that *means* to move an event
//! can paste it back; nothing re-records by itself.

use gfl_core::prelude::*;
use gfl_faults::{ChurnPlan, FaultPlan, FaultPolicy};
use gfl_test_support::{covg, golden_scenario, Runs, TinyWorld, GOLDEN_SCENARIOS};
use serde::Serialize;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// `(count, digest)` of one kind's sequence.
fn kind_digest<'a, T: Serialize + 'a>(events: impl Iterator<Item = &'a T>) -> (usize, u64) {
    let mut hash = FNV_OFFSET;
    let mut n = 0;
    for e in events {
        fnv1a(&mut hash, serde_json::to_string(e).unwrap().as_bytes());
        fnv1a(&mut hash, b"\n");
        n += 1;
    }
    (n, hash)
}

fn records_digest(h: &RunHistory) -> u64 {
    let mut hash = FNV_OFFSET;
    for r in h.records() {
        fnv1a(&mut hash, &(r.round as u64).to_le_bytes());
        fnv1a(&mut hash, &r.cost.to_bits().to_le_bytes());
        for x in [r.accuracy, r.loss, r.train_loss] {
            fnv1a(&mut hash, &x.to_bits().to_le_bytes());
        }
        for rate in [r.trigger_asr, r.flip_asr] {
            match rate {
                None => fnv1a(&mut hash, &[0]),
                Some(x) => {
                    fnv1a(&mut hash, &[1]);
                    fnv1a(&mut hash, &x.to_bits().to_le_bytes());
                }
            }
        }
    }
    hash
}

/// `(case, seed, [(count, digest)] of faults, attacks, regroups, timed
/// events, records digest)`.
type Digest = (&'static str, u64, [(usize, u64); 4], u64);

fn digest(case: &'static str, seed: u64, h: &RunHistory) -> Digest {
    let events = h.events();
    let kinds = [
        kind_digest(events.iter().filter_map(Event::fault)),
        kind_digest(events.iter().filter_map(Event::attack)),
        kind_digest(events.iter().filter_map(Event::regroup)),
        kind_digest(events.iter().filter_map(Event::timed)),
    ];
    (case, seed, kinds, records_digest(h))
}

/// Seed of the hostile world.
const HOSTILE_SEED: u64 = 3;

/// Event clock × self-healing × faults × adversary: straggler cuts under a
/// partial quorum, a tight cloud deadline parking stale uploads, churn
/// moving members, and a FLAME-filtered mixed campaign — every kind of
/// event in twelve rounds.
fn hostile() -> RunHistory {
    let w = TinyWorld::at(HOSTILE_SEED).rounds(12);
    let trainer = w
        .trainer()
        .with_faults(
            FaultPlan {
                straggler_fraction: 0.45,
                straggler_factor: 4.0,
                ..FaultPlan::moderate(HOSTILE_SEED)
            },
            FaultPolicy {
                quorum_fraction: 0.7,
                deadline_factor: 1.5,
                ..FaultPolicy::default()
            },
            &w.topo,
        )
        .with_churn(
            ChurnPlan {
                horizon: 8,
                departure_fraction: 0.3,
                arrival_fraction: 0.2,
                flap_prob: 0.1,
                ..ChurnPlan::moderate(HOSTILE_SEED)
            },
            RegroupPolicy::default(),
        )
        .with_adversary(AdversaryPlan {
            backdoor_fraction: 0.2,
            label_flip_fraction: 0.15,
            model_poison_fraction: 0.15,
            ..AdversaryPlan::moderate(HOSTILE_SEED)
        })
        .with_robust_agg(RobustAggRule::FlameFilter);
    let acfg = AsyncConfig {
        staleness: StalenessPolicy::Weighted { decay: 0.5 },
        cloud_deadline_factor: 1.05,
    };
    let (h, ..) = trainer
        .run_event_healing(&covg(4, 10.0), &w.topo, SamplingStrategy::ESRCov, &acfg)
        .expect("the hostile world keeps a partition");
    h
}

const E: u64 = FNV_OFFSET;

#[rustfmt::skip]
const PARENT: [Digest; 13] = [
    ("clean", 1, [(0, E), (0, E), (0, E), (0, E)], 0x39b105dcb13faf8e),
    ("clean", 2, [(0, E), (0, E), (0, E), (0, E)], 0x8d83eef783481909),
    ("faulted", 1, [(2, 0x1d9beed3252ca51f), (0, E), (0, E), (0, E)], 0x8fd131b91c48ba5d),
    ("faulted", 2, [(11, 0xead33a2c0fcd7824), (0, E), (0, E), (0, E)], 0x3d3efe2a004fa838),
    ("churned", 1, [(0, E), (0, E), (2, 0x615688d2e37327b5), (0, E)], 0x56b17e70b9cd6660),
    ("churned", 2, [(0, E), (0, E), (3, 0xb54bc4a881a5bd93), (0, E)], 0xc719db247ed978f6),
    ("secure", 1, [(0, E), (0, E), (0, E), (0, E)], 0x0e3182a59732690f),
    ("secure", 2, [(0, E), (0, E), (0, E), (0, E)], 0x42f52ad82ba6591c),
    ("attacked", 1, [(0, E), (40, 0x4e51a6a8318cf99d), (0, E), (0, E)], 0x823e6488640b77e0),
    ("attacked", 2, [(0, E), (30, 0x35f74700156d6dfb), (0, E), (0, E)], 0x6641156046f94ed8),
    ("virtual", 1, [(0, E), (0, E), (0, E), (0, E)], 0x6801251bc9953ded),
    ("virtual", 2, [(0, E), (0, E), (0, E), (0, E)], 0x37b9ab69eea6feb8),
    ("hostile", 3, [(47, 0x40dda5a2e3c6eb2d), (25, 0x88e1d5161f5484fb), (9, 0xb04474193e592014), (42, 0x430e457785ec76f5)], 0x666f5a9b722e0cd9),
];

#[test]
fn event_log_projections_are_the_parents_logs() {
    let mut fresh = Vec::new();
    for case in GOLDEN_SCENARIOS {
        for seed in [1, 2] {
            fresh.push(digest(case, seed, &golden_scenario(case, seed, None)));
        }
    }
    fresh.push(digest("hostile", HOSTILE_SEED, &hostile()));
    let table: String = fresh
        .iter()
        .map(|(case, seed, kinds, records)| {
            let kinds: Vec<String> = kinds
                .iter()
                .map(|&(n, d)| match d {
                    E => format!("({n}, E)"),
                    d => format!("({n}, {d:#018x})"),
                })
                .collect();
            let kinds = kinds.join(", ");
            format!("    ({case:?}, {seed}, [{kinds}], {records:#018x}),\n")
        })
        .collect();
    assert!(
        fresh == PARENT,
        "an event or a record moved; computed now:\n{table}"
    );
}

#[test]
fn event_log_is_sorted_by_round() {
    let h = hostile();
    let events = h.events();
    assert!(events.is_sorted_by_key(Event::round));
    let last = events
        .last()
        .expect("the hostile world logs events")
        .round();
    let mut seen = 0;
    for t in 0..=last {
        let round = h.events_in_round(t);
        assert!(round.iter().all(|e| e.round() == t));
        assert_eq!(round, &events[seen..seen + round.len()]);
        seen += round.len();
    }
    assert_eq!(seen, events.len());
    // A round's incidents interleave kinds in the order it produced them.
    let mixed = (0..=last).filter(|&t| {
        let round = h.events_in_round(t);
        round.iter().any(|e| e.fault().is_some()) && round.iter().any(|e| e.timed().is_some())
    });
    assert!(mixed.count() > 0);
}
