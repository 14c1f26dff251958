//! Deterministic poisoning campaigns: which clients are adversaries, what
//! attack each one runs, and which of their samples are poisoned.
//!
//! [`crate::FaultPlan`] models *accidental* failure; an [`AdversaryPlan`]
//! models **malice**. A fixed fraction of clients is compromised for the
//! whole run, each assigned one of three classic campaigns:
//!
//! * **Backdoor** — the client trains on shards carrying a trigger
//!   pattern (`gfl_data::poison::Trigger`) relabelled to the attacker's
//!   target class, so the global model misclassifies triggered inputs.
//! * **Label flip** — the client relabels its `flip_from` samples to
//!   `flip_to`, a targeted availability attack on one class.
//! * **Model poison** — the client trains honestly, then amplifies its
//!   uploaded update (scale and/or sign-flip), the model-replacement
//!   attack FLAME-style defenses are built to catch.
//!
//! Like the fault and churn plans, every decision is a pure hash of
//! `(plan seed, purpose, client [, row])`: no engine RNG stream is ever
//! consumed, so an attacked run with [`AdversaryPlan::none`] is
//! bit-identical to a clean run, and identical seeds replay identical
//! campaigns at any thread count.

use serde::{Deserialize, Serialize};

use crate::{probabilities, unit, FaultConfigError};

// Purpose tags keep the adversary decision streams independent of each
// other and of the fault/churn streams.
const P_ADV_SELECT: u64 = 0x4144_5653_454C_4543; // "ADVSELEC"
const P_POISON_ROW: u64 = 0x504F_4953_4E52_4F57; // "POISNROW"

/// The campaign a compromised client runs. Fixed for the whole run — real
/// adversaries do not change strategy round to round, and a stable
/// assignment keeps the plan a pure function of `(seed, client)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackKind {
    /// Trigger-pattern backdoor on the client's training shard.
    Backdoor,
    /// Targeted `flip_from → flip_to` label flipping.
    LabelFlip,
    /// Scale/sign-flip amplification of the uploaded update.
    ModelPoison,
}

/// Which clients attack, how, and how hard. All decisions are pure hashes
/// of the plan seed and the decision coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversaryPlan {
    /// Seed of the adversary decision streams (independent of the engine,
    /// fault, and churn seeds).
    pub seed: u64,
    /// Fraction of clients running the backdoor campaign.
    pub backdoor_fraction: f64,
    /// Fraction of clients running the label-flip campaign.
    pub label_flip_fraction: f64,
    /// Fraction of clients running the model-poison campaign.
    pub model_poison_fraction: f64,
    /// Fraction of a data-poisoning adversary's local samples that are
    /// poisoned (per-row pure-hash selection).
    pub poison_rate: f64,
    /// Amplification factor backdoor clients apply to their uploaded
    /// delta. `1.0` is pure data poisoning; `>1` is the model-replacement
    /// boost of Bagdasaryan et al. — the regime norm-inspecting defenses
    /// (Krum, FLAME) are designed to catch.
    pub backdoor_boost: f64,
    /// Trigger width (leading coordinates) for the backdoor campaign.
    pub trigger_width: usize,
    /// The label every triggered sample is forced to.
    pub trigger_target: usize,
    /// Source class of the label-flip campaign.
    pub flip_from: usize,
    /// Target class of the label-flip campaign.
    pub flip_to: usize,
    /// Model-poison amplification factor applied to the update delta.
    pub scale_factor: f64,
    /// Whether model poisoners also flip the sign of their delta.
    pub sign_flip: bool,
}

impl AdversaryPlan {
    /// The clean plan: nobody attacks.
    pub fn none() -> Self {
        Self {
            seed: 0,
            backdoor_fraction: 0.0,
            label_flip_fraction: 0.0,
            model_poison_fraction: 0.0,
            poison_rate: 0.0,
            backdoor_boost: 1.0,
            trigger_width: 0,
            trigger_target: 0,
            flip_from: 0,
            flip_to: 0,
            scale_factor: 1.0,
            sign_flip: false,
        }
    }

    /// The documented "moderate adversary" preset used by the adversarial
    /// suite: 10% backdoor + 5% label-flip + 5% model-poison clients,
    /// half of each data poisoner's shard poisoned, a 3-coordinate trigger
    /// targeting class 0, 1→0 flips, and 5× sign-flipped model poison.
    pub fn moderate(seed: u64) -> Self {
        Self {
            seed,
            backdoor_fraction: 0.1,
            label_flip_fraction: 0.05,
            model_poison_fraction: 0.05,
            poison_rate: 0.5,
            backdoor_boost: 1.0,
            trigger_width: 3,
            trigger_target: 0,
            flip_from: 1,
            flip_to: 0,
            scale_factor: 5.0,
            sign_flip: true,
        }
    }

    /// A pure backdoor campaign at the given compromised fraction — the
    /// configuration the ASR-vs-defense experiment sweeps.
    pub fn backdoor(seed: u64, fraction: f64) -> Self {
        Self {
            seed,
            backdoor_fraction: fraction,
            label_flip_fraction: 0.0,
            model_poison_fraction: 0.0,
            poison_rate: 0.9,
            backdoor_boost: 1.0,
            trigger_width: 3,
            trigger_target: 0,
            flip_from: 0,
            flip_to: 0,
            scale_factor: 1.0,
            sign_flip: false,
        }
    }

    /// Whether this plan can ever attack anything.
    pub fn is_clean(&self) -> bool {
        self.backdoor_fraction == 0.0
            && self.label_flip_fraction == 0.0
            && self.model_poison_fraction == 0.0
    }

    /// Checks every rule that needs no dataset, returning the first
    /// violation as a typed error: a fraction outside `[0, 1]`, fractions
    /// summing past 1, a backdoor boost that is not a positive finite
    /// factor, a label flip that changes nothing (`flip_from == flip_to`),
    /// or a model poison that cannot perturb anything.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        probabilities(&[
            ("backdoor_fraction", self.backdoor_fraction),
            ("label_flip_fraction", self.label_flip_fraction),
            ("model_poison_fraction", self.model_poison_fraction),
            ("poison_rate", self.poison_rate),
        ])?;
        let sum = self.backdoor_fraction + self.label_flip_fraction + self.model_poison_fraction;
        if sum > 1.0 {
            return Err(FaultConfigError::FractionsOversubscribed { sum });
        }
        let boost = self.backdoor_boost;
        if self.backdoor_fraction > 0.0 && !(boost.is_finite() && boost > 0.0) {
            return Err(FaultConfigError::BadBackdoorBoost { value: boost });
        }
        if self.label_flip_fraction > 0.0 && self.flip_from == self.flip_to {
            return Err(FaultConfigError::IdentityLabelFlip {
                label: self.flip_to,
            });
        }
        if self.model_poison_fraction > 0.0 && self.scale_factor == 1.0 && !self.sign_flip {
            return Err(FaultConfigError::NoOpModelPoison);
        }
        Ok(())
    }

    /// [`AdversaryPlan::validate`], then the rules that need the dataset's
    /// shape: a running backdoor's trigger covers `1..=feature_dim`
    /// coordinates and targets an existing class; a running label flip's
    /// two labels exist.
    pub fn validate_for(
        &self,
        num_classes: usize,
        feature_dim: usize,
    ) -> Result<(), FaultConfigError> {
        self.validate()?;
        let backdoor = self.backdoor_fraction > 0.0;
        let flip = self.label_flip_fraction > 0.0;
        if backdoor && !(1..=feature_dim).contains(&self.trigger_width) {
            return Err(FaultConfigError::BadTriggerWidth {
                width: self.trigger_width,
                feature_dim,
            });
        }
        for (knob, label, live) in [
            ("trigger_target", self.trigger_target, backdoor),
            ("flip_from", self.flip_from, flip),
            ("flip_to", self.flip_to, flip),
        ] {
            if live && label >= num_classes {
                return Err(FaultConfigError::LabelOutOfRange {
                    knob,
                    label,
                    num_classes,
                });
            }
        }
        Ok(())
    }

    /// The campaign `client` runs, if compromised. One uniform draw is
    /// split over the three fractions, so assignments are disjoint and the
    /// compromised population is exactly the fraction sum in expectation.
    pub fn kind(&self, client: usize) -> Option<AttackKind> {
        if self.is_clean() {
            return None;
        }
        let u = unit(self.seed, P_ADV_SELECT, client as u64, 0, 0);
        if u < self.backdoor_fraction {
            Some(AttackKind::Backdoor)
        } else if u < self.backdoor_fraction + self.label_flip_fraction {
            Some(AttackKind::LabelFlip)
        } else if u < self.backdoor_fraction + self.label_flip_fraction + self.model_poison_fraction
        {
            Some(AttackKind::ModelPoison)
        } else {
            None
        }
    }

    /// Whether `client` is compromised at all.
    pub fn is_adversary(&self, client: usize) -> bool {
        self.kind(client).is_some()
    }

    /// Whether row `row` of a data-poisoning adversary's local shard is
    /// poisoned. Pure hash of `(seed, client, row)` — the poisoned subset
    /// is fixed for the whole run.
    pub fn poisons_row(&self, client: usize, row: usize) -> bool {
        self.poison_rate > 0.0
            && unit(self.seed, P_POISON_ROW, client as u64, row as u64, 0) < self.poison_rate
    }
}

/// The stage of the defense pipeline that neutralized an attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DefenseStage {
    /// The FLAME-style cosine-clustering filter rejected the update.
    FlameFilter,
    /// The non-finite gate caught an amplified update that overflowed.
    NonFiniteGate,
}

/// One attack (or one defense interception), recorded in the run history
/// exactly like a [`crate::FaultEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttackEvent {
    /// A backdoor adversary trained on its triggered shard this group
    /// round; `rows` is the number of poisoned samples in the shard.
    BackdoorInjected {
        round: usize,
        group_round: usize,
        group: usize,
        client: usize,
        rows: usize,
    },
    /// A label-flip adversary trained on its relabelled shard this group
    /// round; `rows` is the number of flipped samples.
    LabelsFlipped {
        round: usize,
        group_round: usize,
        group: usize,
        client: usize,
        rows: usize,
    },
    /// A model poisoner amplified its uploaded update this group round.
    UpdatePoisoned {
        round: usize,
        group_round: usize,
        group: usize,
        client: usize,
    },
    /// A defense stage rejected a compromised client's update.
    AttackFiltered {
        round: usize,
        group_round: usize,
        group: usize,
        client: usize,
        stage: DefenseStage,
    },
}

impl AttackEvent {
    /// The global round the event belongs to.
    pub fn round(&self) -> usize {
        match *self {
            AttackEvent::BackdoorInjected { round, .. }
            | AttackEvent::LabelsFlipped { round, .. }
            | AttackEvent::UpdatePoisoned { round, .. }
            | AttackEvent::AttackFiltered { round, .. } => round,
        }
    }

    /// Whether this event is an injection (as opposed to a defense
    /// interception).
    pub fn is_injection(&self) -> bool {
        !matches!(self, AttackEvent::AttackFiltered { .. })
    }
}

/// Per-kind tallies of an attack log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackSummary {
    /// Backdoor-poisoned training units.
    pub backdoor: usize,
    /// Label-flipped training units.
    pub label_flip: usize,
    /// Amplified (model-poisoned) uploads.
    pub model_poison: usize,
    /// Updates rejected by the FLAME-style filter.
    pub filtered_flame: usize,
    /// Updates rejected by the non-finite gate.
    pub filtered_non_finite: usize,
}

impl AttackSummary {
    /// Total injected attacks (not counting interceptions).
    pub fn injected(&self) -> usize {
        self.backdoor + self.label_flip + self.model_poison
    }

    /// Total defense interceptions.
    pub fn filtered(&self) -> usize {
        self.filtered_flame + self.filtered_non_finite
    }
}

impl std::fmt::Display for AttackSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} backdoor, {} label-flip, {} model-poison injections; \
             {} filtered (flame {}, non-finite {})",
            self.backdoor,
            self.label_flip,
            self.model_poison,
            self.filtered(),
            self.filtered_flame,
            self.filtered_non_finite
        )
    }
}

/// Tallies an attack log into per-kind counts.
pub fn summarize_attacks<'a>(events: impl IntoIterator<Item = &'a AttackEvent>) -> AttackSummary {
    let mut s = AttackSummary::default();
    for e in events {
        match e {
            AttackEvent::BackdoorInjected { .. } => s.backdoor += 1,
            AttackEvent::LabelsFlipped { .. } => s.label_flip += 1,
            AttackEvent::UpdatePoisoned { .. } => s.model_poison += 1,
            AttackEvent::AttackFiltered { stage, .. } => match stage {
                DefenseStage::FlameFilter => s.filtered_flame += 1,
                DefenseStage::NonFiniteGate => s.filtered_non_finite += 1,
            },
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = AdversaryPlan::moderate(9);
        let b = AdversaryPlan::moderate(9);
        for c in 0..300 {
            assert_eq!(a.kind(c), b.kind(c));
            for r in 0..50 {
                assert_eq!(a.poisons_row(c, r), b.poisons_row(c, r));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = AdversaryPlan::moderate(1);
        let b = AdversaryPlan::moderate(2);
        let compromised =
            |p: &AdversaryPlan| (0..400).filter(|&c| p.is_adversary(c)).collect::<Vec<_>>();
        assert_ne!(compromised(&a), compromised(&b));
    }

    #[test]
    fn clean_plan_attacks_nobody() {
        let p = AdversaryPlan::none();
        assert!(p.is_clean());
        assert!(!AdversaryPlan::moderate(0).is_clean());
        for c in 0..100 {
            assert_eq!(p.kind(c), None);
            for r in 0..20 {
                assert!(!p.poisons_row(c, r));
            }
        }
    }

    #[test]
    fn fractions_are_respected_statistically() {
        let p = AdversaryPlan::moderate(7);
        let n = 4_000;
        let mut counts = [0usize; 3];
        for c in 0..n {
            match p.kind(c) {
                Some(AttackKind::Backdoor) => counts[0] += 1,
                Some(AttackKind::LabelFlip) => counts[1] += 1,
                Some(AttackKind::ModelPoison) => counts[2] += 1,
                None => {}
            }
        }
        let frac = |k: usize| counts[k] as f64 / n as f64;
        assert!((frac(0) - 0.1).abs() < 0.02, "backdoor {}", frac(0));
        assert!((frac(1) - 0.05).abs() < 0.015, "label flip {}", frac(1));
        assert!((frac(2) - 0.05).abs() < 0.015, "model poison {}", frac(2));
    }

    #[test]
    fn poison_rate_is_respected_statistically() {
        let p = AdversaryPlan::moderate(11);
        let trials = 10_000;
        let poisoned = (0..trials)
            .filter(|&i| p.poisons_row(i % 40, i / 40))
            .count();
        let rate = poisoned as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.02, "poison rate {rate} far from 0.5");
    }

    #[test]
    fn campaign_assignment_is_disjoint() {
        // One draw split over the fractions: a client has exactly zero or
        // one campaign, never two.
        let p = AdversaryPlan {
            backdoor_fraction: 0.4,
            label_flip_fraction: 0.3,
            model_poison_fraction: 0.3,
            ..AdversaryPlan::moderate(3)
        };
        let mut seen = [0usize; 3];
        for c in 0..1_000 {
            if let Some(k) = p.kind(c) {
                seen[k as usize] += 1;
            }
        }
        // Fractions sum to 1.0: everyone is compromised by some campaign.
        assert_eq!(seen.iter().sum::<usize>(), 1_000);
        assert!(seen.iter().all(|&s| s > 200), "{seen:?}");
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn oversubscribed_fractions_panic() {
        AdversaryPlan {
            backdoor_fraction: 0.6,
            label_flip_fraction: 0.6,
            ..AdversaryPlan::moderate(1)
        }
        .validate()
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    #[should_panic(expected = "must change the label")]
    fn identity_flip_panics() {
        AdversaryPlan {
            flip_from: 2,
            flip_to: 2,
            ..AdversaryPlan::moderate(1)
        }
        .validate()
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn shape_rules_are_typed_errors_and_only_bind_running_campaigns() {
        let plan = AdversaryPlan::moderate(1);
        plan.validate_for(10, 64).unwrap();
        let bad = |plan: AdversaryPlan| plan.validate_for(10, 64).unwrap_err();
        for width in [0, 65] {
            let err = bad(AdversaryPlan {
                trigger_width: width,
                ..plan.clone()
            });
            assert!(
                matches!(err, FaultConfigError::BadTriggerWidth { .. }),
                "{err}"
            );
        }
        for (knob, plan) in [
            (
                "trigger_target",
                AdversaryPlan {
                    trigger_target: 10,
                    ..plan.clone()
                },
            ),
            (
                "flip_from",
                AdversaryPlan {
                    flip_from: 99,
                    ..plan.clone()
                },
            ),
            (
                "flip_to",
                AdversaryPlan {
                    flip_to: 10,
                    ..plan.clone()
                },
            ),
        ] {
            let err = bad(plan);
            assert!(
                matches!(err, FaultConfigError::LabelOutOfRange { knob: k, .. } if k == knob),
                "{err}"
            );
        }
        // A campaign nobody runs binds nothing: the clean plan's zero-width
        // trigger and a flip-free plan's equal labels are fine.
        AdversaryPlan::none().validate_for(10, 64).unwrap();
        AdversaryPlan {
            flip_from: 99,
            ..AdversaryPlan::backdoor(1, 0.2)
        }
        .validate_for(10, 64)
        .unwrap();
        let boost = AdversaryPlan {
            backdoor_boost: f64::NAN,
            ..plan.clone()
        };
        assert!(matches!(
            boost.validate().unwrap_err(),
            FaultConfigError::BadBackdoorBoost { .. }
        ));
        let honest = AdversaryPlan {
            scale_factor: 1.0,
            sign_flip: false,
            ..plan
        };
        assert_eq!(
            honest.validate().unwrap_err(),
            FaultConfigError::NoOpModelPoison
        );
    }

    #[test]
    fn summary_counts_every_kind() {
        let events = vec![
            AttackEvent::BackdoorInjected {
                round: 0,
                group_round: 0,
                group: 0,
                client: 1,
                rows: 5,
            },
            AttackEvent::BackdoorInjected {
                round: 1,
                group_round: 0,
                group: 0,
                client: 1,
                rows: 5,
            },
            AttackEvent::LabelsFlipped {
                round: 0,
                group_round: 1,
                group: 1,
                client: 2,
                rows: 3,
            },
            AttackEvent::UpdatePoisoned {
                round: 2,
                group_round: 0,
                group: 0,
                client: 3,
            },
            AttackEvent::AttackFiltered {
                round: 2,
                group_round: 0,
                group: 0,
                client: 3,
                stage: DefenseStage::FlameFilter,
            },
        ];
        let s = summarize_attacks(&events);
        assert_eq!(s.backdoor, 2);
        assert_eq!(s.label_flip, 1);
        assert_eq!(s.model_poison, 1);
        assert_eq!(s.filtered_flame, 1);
        assert_eq!(s.injected(), 4);
        assert_eq!(s.filtered(), 1);
        assert_eq!(events[0].round(), 0);
        assert!(events[0].is_injection());
        assert!(!events[4].is_injection());
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = AdversaryPlan::moderate(42);
        let json = serde_json::to_string(&plan).unwrap();
        let back: AdversaryPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
