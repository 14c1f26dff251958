//! The cost model of §3.2, calibrated to the shapes of Fig. 8.
//!
//! Two parametric families cover everything the paper charges for:
//!
//! * `H_i(n_i) = a·n_i + b` — time for client `i` to iterate its trainset
//!   once (linear in data volume; §3.2).
//! * `O_g(|g|) = c₂·|g|² + c₁·|g| + c₀` — per-client group-operation
//!   overhead (quadratic in group size; §3.2, citing Bonawitz'17/FLAME).
//!
//! The [`rpi`] tables encode coefficients for the eight Fig. 8 series
//! ({CIFAR, SC} × {training, backdoor detection, SecAgg, SCAFFOLD SecAgg}).
//! Absolute values are chosen to land in the same 0–50 s range the paper
//! plots over `x ∈ [0, 50]`; the *orderings* (SCAFFOLD SecAgg > SecAgg >
//! backdoor > training; CIFAR > SC) are the behaviour the experiments
//! depend on. Validation that real protocol work scales the same way lives
//! in this module's tests, which compare against `gfl-secagg` /
//! `gfl-defense` operation counters.

use serde::{Deserialize, Serialize};

/// `f(n) = a·n + b`, in emulated seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearCost {
    pub a: f64,
    pub b: f64,
}

impl LinearCost {
    pub fn eval(&self, n: usize) -> f64 {
        self.a * n as f64 + self.b
    }
}

/// `f(g) = c2·g² + c1·g + c0`, in emulated seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuadraticCost {
    pub c2: f64,
    pub c1: f64,
    pub c0: f64,
}

impl QuadraticCost {
    pub fn eval(&self, group_size: usize) -> f64 {
        let g = group_size as f64;
        self.c2 * g * g + self.c1 * g + self.c0
    }
}

/// The two evaluation tasks of §7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Task {
    /// CIFAR-10 stand-in — "relatively heavy load tasks" (3-block ResNet).
    Vision,
    /// Speech-Commands stand-in — "lightweight tasks" (5-layer CNN).
    Speech,
}

/// The group operations measured in Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GroupOpKind {
    /// Bonawitz-style pairwise-mask secure aggregation.
    SecureAggregation,
    /// SecAgg under SCAFFOLD, which ships both the model delta and the
    /// control-variate delta → roughly double the masked payload.
    ScaffoldSecureAggregation,
    /// FLAME-style backdoor detection.
    BackdoorDetection,
}

/// Calibrated per-task cost tables (see [`rpi`]).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostModel {
    pub task: Task,
    pub training: LinearCost,
    pub secagg: QuadraticCost,
    pub scaffold_secagg: QuadraticCost,
    pub backdoor: QuadraticCost,
}

impl CostModel {
    /// The calibrated model for a task.
    pub fn for_task(task: Task) -> Self {
        match task {
            Task::Vision => rpi::VISION,
            Task::Speech => rpi::SPEECH,
        }
    }

    /// Per-client group-operation cost `O_g(|g|)` for one group round.
    pub fn group_op(&self, kind: GroupOpKind, group_size: usize) -> f64 {
        match kind {
            GroupOpKind::SecureAggregation => self.secagg.eval(group_size),
            GroupOpKind::ScaffoldSecureAggregation => self.scaffold_secagg.eval(group_size),
            GroupOpKind::BackdoorDetection => self.backdoor.eval(group_size),
        }
    }

    /// Training cost `H_i(n_i)` for one local epoch over `n_i` samples.
    pub fn training(&self, samples: usize) -> f64 {
        self.training.eval(samples)
    }

    /// Emulated seconds for *measured* defense work — the operation
    /// counters `gfl-defense` reports when the FLAME-style filter actually
    /// runs (as opposed to the static per-group-round `BackdoorDetection`
    /// charge, which emulates the op whether or not it fires). Rates are
    /// anchored to the calibrated backdoor quadratic's coefficients: a
    /// pairwise similarity evaluation costs `8·c₂` and a norm pass `c₁`,
    /// so the measured total stays quadratic in group size like `O_g` and
    /// keeps the Vision > Speech ordering.
    pub fn defense_seconds(&self, similarity_evals: u64, norm_passes: u64) -> f64 {
        8.0 * self.backdoor.c2 * similarity_evals as f64 + self.backdoor.c1 * norm_passes as f64
    }
}

/// Raspberry-Pi-4 calibrated coefficient tables (Fig. 8 shapes).
pub mod rpi {
    use super::*;

    /// CIFAR-10-like task on RPi 4.
    pub const VISION: CostModel = CostModel {
        task: Task::Vision,
        // ~15 s to train one epoch over 50 samples.
        training: LinearCost { a: 0.30, b: 0.5 },
        // ~42 s of SecAgg overhead per client in a 50-client group.
        secagg: QuadraticCost {
            c2: 0.016,
            c1: 0.04,
            c0: 0.1,
        },
        // SCAFFOLD doubles the masked payload → steepest curve (~52 s @ 50).
        scaffold_secagg: QuadraticCost {
            c2: 0.020,
            c1: 0.04,
            c0: 0.1,
        },
        // Backdoor detection sits between training and SecAgg (~23 s @ 50).
        backdoor: QuadraticCost {
            c2: 0.008,
            c1: 0.05,
            c0: 0.1,
        },
    };

    /// Speech-Commands-like task on RPi 4 (lighter model ⇒ every curve is
    /// proportionally lower).
    pub const SPEECH: CostModel = CostModel {
        task: Task::Speech,
        training: LinearCost { a: 0.10, b: 0.2 },
        secagg: QuadraticCost {
            c2: 0.008,
            c1: 0.03,
            c0: 0.05,
        },
        scaffold_secagg: QuadraticCost {
            c2: 0.011,
            c1: 0.03,
            c0: 0.05,
        },
        backdoor: QuadraticCost {
            c2: 0.004,
            c1: 0.03,
            c0: 0.05,
        },
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostLedger;

    #[test]
    fn curves_keep_paper_ordering_over_fig8_range() {
        for model in [rpi::VISION, rpi::SPEECH] {
            for g in 5..=50usize {
                let train = model.training(g); // Fig 8 x-axis doubles as data size
                let backdoor = model.group_op(GroupOpKind::BackdoorDetection, g);
                let secagg = model.group_op(GroupOpKind::SecureAggregation, g);
                let scaffold = model.group_op(GroupOpKind::ScaffoldSecureAggregation, g);
                assert!(
                    scaffold > secagg && secagg > backdoor,
                    "ordering broken at g={g} for {:?}",
                    model.task
                );
                // Group ops overtake training for large groups (the paper's
                // central motivation).
                if g >= 40 {
                    assert!(
                        secagg > train,
                        "SecAgg must dominate training at g={g} ({:?})",
                        model.task
                    );
                }
            }
        }
    }

    #[test]
    fn vision_costs_exceed_speech() {
        for g in [5usize, 20, 50] {
            assert!(rpi::VISION.training(g) > rpi::SPEECH.training(g));
            assert!(
                rpi::VISION.group_op(GroupOpKind::SecureAggregation, g)
                    > rpi::SPEECH.group_op(GroupOpKind::SecureAggregation, g)
            );
        }
    }

    /// One group round (K = 1) of the ledger's charge is Eq. 5's inner
    /// term: `Σ_{c_i∈g} (O_g(|g|) + E·H_i(n_i))`.
    #[test]
    fn group_round_cost_implements_eq5_inner_term() {
        let m = CostModel::for_task(Task::Vision);
        let samples = [10usize, 20, 30];
        let e = 2;
        let mut ledger = CostLedger::new(m, vec![GroupOpKind::SecureAggregation]);
        ledger.charge_group(&samples, 1, e);
        let og = m.group_op(GroupOpKind::SecureAggregation, 3);
        let want: f64 = samples.iter().map(|&n| og + e as f64 * m.training(n)).sum();
        assert!((ledger.total() - want).abs() < 1e-9);
    }

    #[test]
    fn empty_group_costs_nothing() {
        let m = CostModel::for_task(Task::Speech);
        let mut ledger = CostLedger::new(m, vec![GroupOpKind::SecureAggregation]);
        ledger.charge_group(&[], 1, 5);
        assert_eq!(ledger.total(), 0.0);
    }

    #[test]
    fn quadratic_shape_matches_real_secagg_work() {
        // The analytic model assumes per-client SecAgg work grows linearly
        // with |g| (total quadratic). Verify against the real protocol's
        // operation counters.
        let d = 16;
        let mut per_client = Vec::new();
        for &n in &[4usize, 8, 16, 32] {
            let session = gfl_secagg::SecAggSession::new((0..n as u32).collect(), d, 1);
            let update = vec![0.5f32; d];
            let (_, cost) = session.mask(0, &update);
            per_client.push(cost.prg_expansions as f64);
        }
        // Doubling |g| should roughly double per-client mask work.
        for w in per_client.windows(2) {
            let ratio = w[1] / w[0];
            assert!(
                (1.8..=2.4).contains(&ratio),
                "per-client SecAgg growth ratio {ratio}"
            );
        }
    }

    #[test]
    fn quadratic_shape_matches_real_defense_work() {
        let mut totals = Vec::new();
        for &n in &[4usize, 8, 16] {
            let mut updates = vec![vec![1.0f32, 0.5]; n];
            let report =
                gfl_defense::filter_updates(&mut updates, &gfl_defense::DefenseConfig::default());
            totals.push(report.cost.similarity_evals as f64);
        }
        // Total pairwise work quadruples when the group doubles.
        for w in totals.windows(2) {
            let ratio = w[1] / w[0];
            assert!(
                (3.0..=5.0).contains(&ratio),
                "total defense growth ratio {ratio}"
            );
        }
    }
}
