//! Deterministic client-churn plans: permanent departures, late arrivals,
//! and flapping availability.
//!
//! PR 1's [`crate::FaultPlan`] models *transient* failures — a crashed
//! client is back next round. Real cross-device federations are dominated
//! by **membership churn**: devices leave for good, new devices enroll
//! mid-run, and flaky devices oscillate between reachable and not. A
//! [`ChurnPlan`] describes all three as pure functions of
//! `(plan seed, round, client)`, in exactly the same spirit as the fault
//! injector's decision streams: no engine RNG is ever consumed, so a run
//! with `ChurnPlan::none()` is bit-identical to one without churn
//! machinery at all, and two runs with the same seeds and plan agree on
//! every membership transition.
//!
//! The plan answers three questions per `(client, round)`:
//!
//! * [`ChurnPlan::departure_round`] — when (if ever) the client leaves
//!   permanently.
//! * [`ChurnPlan::arrival_round`] — when the client first becomes a
//!   member (0 for founding members).
//! * [`ChurnPlan::flaps`] — whether the client is transiently unreachable
//!   for this one round (present, but unavailable).
//!
//! `gfl-core`'s membership layer consumes these to drive departures,
//! greedy re-placement of arrivals, and group-health-triggered regrouping.

use serde::{Deserialize, Serialize};

use crate::{probabilities, unit, FaultConfigError};

// Purpose tags keep churn decision streams independent of each other and
// of the fault streams.
const P_DEPART_SELECT: u64 = 0x4445_5041_5254_5345; // "DEPARTSE"
const P_DEPART_ROUND: u64 = 0x4445_5041_5254_5244;
const P_ARRIVE_SELECT: u64 = 0x4152_5249_5645_5345;
const P_ARRIVE_ROUND: u64 = 0x4152_5249_5645_5244;
const P_FLAP: u64 = 0x464C_4150_0000_0001;

/// What membership churn happens, and when. All decisions are pure hashes
/// of the plan seed and the decision coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnPlan {
    /// Seed of the churn decision streams (independent of the engine and
    /// fault seeds).
    pub seed: u64,
    /// Rounds over which departures and arrivals are spread. Departure and
    /// arrival rounds are drawn uniformly from `[0, horizon)`; churn after
    /// the horizon is only flapping.
    pub horizon: usize,
    /// Fraction of clients that permanently depart within the horizon.
    pub departure_fraction: f64,
    /// Fraction of clients that are *late arrivals*: absent from round 0
    /// until their arrival round.
    pub arrival_fraction: f64,
    /// Probability a present client is transiently unreachable for one
    /// global round (it stays a group member; it just misses the round).
    pub flap_prob: f64,
}

impl ChurnPlan {
    /// The clean plan: founding membership never changes.
    pub fn none() -> Self {
        Self {
            seed: 0,
            horizon: 1,
            departure_fraction: 0.0,
            arrival_fraction: 0.0,
            flap_prob: 0.0,
        }
    }

    /// The documented "moderate churn" preset used by the churn tests and
    /// `examples/churn_run.rs`: over a 100-round horizon, 20% of clients
    /// depart permanently, 10% arrive late, and present clients miss 5% of
    /// their rounds to flapping.
    pub fn moderate(seed: u64) -> Self {
        Self {
            seed,
            horizon: 100,
            departure_fraction: 0.2,
            arrival_fraction: 0.1,
            flap_prob: 0.05,
        }
    }

    /// Whether this plan can ever change membership or availability.
    pub fn is_clean(&self) -> bool {
        self.departure_fraction == 0.0 && self.arrival_fraction == 0.0 && self.flap_prob == 0.0
    }

    /// Checks every knob, returning the first violation as a typed error:
    /// a zero horizon, or a fraction outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        if self.horizon == 0 {
            return Err(FaultConfigError::ZeroChurnHorizon);
        }
        probabilities(&[
            ("departure_fraction", self.departure_fraction),
            ("arrival_fraction", self.arrival_fraction),
            ("flap_prob", self.flap_prob),
        ])
    }

    /// The round at which `client` first becomes a member: 0 for founding
    /// members, a round in `[1, horizon)` for late arrivals.
    pub fn arrival_round(&self, client: usize) -> usize {
        if self.arrival_fraction == 0.0
            || unit(self.seed, P_ARRIVE_SELECT, client as u64, 0, 0) >= self.arrival_fraction
        {
            return 0;
        }
        let u = unit(self.seed, P_ARRIVE_ROUND, client as u64, 0, 0);
        1 + (u * (self.horizon.saturating_sub(1)) as f64) as usize
    }

    /// The round at which `client` permanently departs, if ever. Always
    /// strictly after the client's arrival round, so every member exists
    /// for at least one round.
    pub fn departure_round(&self, client: usize) -> Option<usize> {
        if self.departure_fraction == 0.0
            || unit(self.seed, P_DEPART_SELECT, client as u64, 0, 0) >= self.departure_fraction
        {
            return None;
        }
        let arrive = self.arrival_round(client);
        let u = unit(self.seed, P_DEPART_ROUND, client as u64, 0, 0);
        let span = self.horizon.saturating_sub(arrive + 1).max(1);
        Some(arrive + 1 + (u * span as f64) as usize)
    }

    /// Whether `client` is a member at global round `t` (arrived, not yet
    /// departed). Flapping does not affect membership.
    pub fn present(&self, client: usize, t: usize) -> bool {
        t >= self.arrival_round(client) && self.departure_round(client).is_none_or(|d| t < d)
    }

    /// Whether `client` is transiently unreachable at round `t`. Only
    /// meaningful for present clients.
    pub fn flaps(&self, client: usize, t: usize) -> bool {
        self.flap_prob > 0.0 && unit(self.seed, P_FLAP, client as u64, t as u64, 0) < self.flap_prob
    }

    /// Whether `client` can actually participate in round `t`: present and
    /// not flapping.
    pub fn available(&self, client: usize, t: usize) -> bool {
        self.present(client, t) && !self.flaps(client, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = ChurnPlan::moderate(9);
        let b = ChurnPlan::moderate(9);
        for c in 0..200 {
            assert_eq!(a.arrival_round(c), b.arrival_round(c));
            assert_eq!(a.departure_round(c), b.departure_round(c));
            for t in 0..30 {
                assert_eq!(a.flaps(c, t), b.flaps(c, t));
                assert_eq!(a.present(c, t), b.present(c, t));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChurnPlan::moderate(1);
        let b = ChurnPlan::moderate(2);
        let leavers = |p: &ChurnPlan| {
            (0..300)
                .filter(|&c| p.departure_round(c).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(leavers(&a), leavers(&b));
    }

    #[test]
    fn clean_plan_changes_nothing() {
        let p = ChurnPlan::none();
        assert!(p.is_clean());
        assert!(!ChurnPlan::moderate(0).is_clean());
        for c in 0..50 {
            assert_eq!(p.arrival_round(c), 0);
            assert_eq!(p.departure_round(c), None);
            for t in 0..20 {
                assert!(p.present(c, t));
                assert!(!p.flaps(c, t));
                assert!(p.available(c, t));
            }
        }
    }

    #[test]
    fn fractions_are_respected_statistically() {
        let p = ChurnPlan::moderate(7);
        let n = 2_000;
        let departed = (0..n).filter(|&c| p.departure_round(c).is_some()).count();
        let late = (0..n).filter(|&c| p.arrival_round(c) > 0).count();
        let d = departed as f64 / n as f64;
        let a = late as f64 / n as f64;
        assert!(
            (d - 0.2).abs() < 0.04,
            "departure fraction {d} far from 0.2"
        );
        assert!((a - 0.1).abs() < 0.03, "arrival fraction {a} far from 0.1");
    }

    #[test]
    fn departure_is_strictly_after_arrival() {
        let p = ChurnPlan {
            seed: 3,
            horizon: 40,
            departure_fraction: 0.9,
            arrival_fraction: 0.9,
            flap_prob: 0.0,
        };
        for c in 0..500 {
            let arrive = p.arrival_round(c);
            if let Some(depart) = p.departure_round(c) {
                assert!(
                    depart > arrive,
                    "client {c} departs at {depart} before arriving at {arrive}"
                );
                // Every member is present for at least its arrival round.
                assert!(p.present(c, arrive));
                assert!(!p.present(c, depart));
            }
        }
    }

    #[test]
    fn membership_is_monotone_between_arrival_and_departure() {
        let p = ChurnPlan::moderate(5);
        for c in 0..200 {
            let mut was_present = false;
            let mut ended = false;
            for t in 0..120 {
                let now = p.present(c, t);
                if was_present && !now {
                    ended = true;
                }
                if ended {
                    assert!(!now, "client {c} re-appeared after departing");
                }
                was_present = now;
            }
        }
    }

    #[test]
    fn flap_rate_is_respected_statistically() {
        let p = ChurnPlan::moderate(11);
        let mut flapped = 0usize;
        let trials = 10_000;
        for i in 0..trials {
            if p.flaps(i % 200, i / 200) {
                flapped += 1;
            }
        }
        let rate = flapped as f64 / trials as f64;
        assert!((rate - 0.05).abs() < 0.01, "flap rate {rate} far from 0.05");
    }

    #[test]
    fn bad_knobs_are_typed_errors() {
        let bad = |plan: ChurnPlan| plan.validate().unwrap_err();
        ChurnPlan::none().validate().unwrap();
        ChurnPlan::moderate(1).validate().unwrap();
        let plan = ChurnPlan::moderate(1);
        assert_eq!(
            bad(ChurnPlan {
                horizon: 0,
                ..plan.clone()
            }),
            FaultConfigError::ZeroChurnHorizon
        );
        for value in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = bad(ChurnPlan {
                flap_prob: value,
                ..plan.clone()
            });
            assert!(
                matches!(
                    err,
                    FaultConfigError::NotAProbability {
                        knob: "flap_prob",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = ChurnPlan::moderate(42);
        let json = serde_json::to_string(&plan).unwrap();
        let back: ChurnPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
