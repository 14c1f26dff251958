//! The registry's rows: each experiment is a documented constant with the
//! function that runs it and the predicate that judges its tables.

/// Fails the enclosing shape predicate with a formatted reason.
macro_rules! ensure {
    ($holds:expr, $($reason:tt)+) => {
        let holds: bool = $holds;
        if !holds {
            return Err(format!($($reason)+));
        }
    };
}

pub mod ablations;
pub mod formation;
pub mod paper;
pub mod systems;

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}
