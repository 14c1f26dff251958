//! SGD update rules and learning-rate schedules.
//!
//! Line 13 of Algorithm 1 is a plain SGD step; FedProx and SCAFFOLD modify
//! the *gradient*, not the step, so a single step kernel serves every
//! method. Schedules are evaluated per *global round* `t` — the paper keeps
//! η constant within a round.

use gfl_tensor::{ops, Scalar};
use serde::{Deserialize, Serialize};

/// Applies `params -= lr * grad`.
pub fn sgd_step(params: &mut [Scalar], grad: &[Scalar], lr: Scalar) {
    ops::axpy(-lr, grad, params);
}

/// Learning-rate schedule over global rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// Constant η.
    Constant(Scalar),
    /// `η₀ / (1 + decay · t)` — the classic Robbins–Monro style decay.
    InverseTime { base: Scalar, decay: Scalar },
    /// Multiplies by `factor` every `every` rounds.
    Step {
        base: Scalar,
        factor: Scalar,
        every: usize,
    },
}

impl LrSchedule {
    /// Learning rate at global round `t` (0-based).
    pub fn at(&self, t: usize) -> Scalar {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::InverseTime { base, decay } => base / (1.0 + decay * t as Scalar),
            LrSchedule::Step {
                base,
                factor,
                every,
            } => base * factor.powi((t / every.max(1)) as i32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut p = vec![1.0, 2.0];
        sgd_step(&mut p, &[10.0, -10.0], 0.1);
        assert_eq!(p, vec![0.0, 3.0]);
    }

    #[test]
    fn schedules() {
        assert_eq!(LrSchedule::Constant(0.1).at(100), 0.1);
        let inv = LrSchedule::InverseTime {
            base: 1.0,
            decay: 1.0,
        };
        assert_eq!(inv.at(0), 1.0);
        assert_eq!(inv.at(1), 0.5);
        let step = LrSchedule::Step {
            base: 1.0,
            factor: 0.5,
            every: 10,
        };
        assert_eq!(step.at(9), 1.0);
        assert_eq!(step.at(10), 0.5);
        assert_eq!(step.at(25), 0.25);
    }

    #[test]
    fn schedules_are_nonincreasing() {
        for sched in [
            LrSchedule::Constant(0.3),
            LrSchedule::InverseTime {
                base: 0.3,
                decay: 0.01,
            },
            LrSchedule::Step {
                base: 0.3,
                factor: 0.9,
                every: 5,
            },
        ] {
            let mut prev = f32::INFINITY;
            for t in 0..100 {
                let lr = sched.at(t);
                assert!(lr > 0.0 && lr <= prev, "{sched:?} at {t}");
                prev = lr;
            }
        }
    }
}
