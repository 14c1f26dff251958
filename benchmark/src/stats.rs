//! Order statistics over a handful of runs, and the verdict that compares
//! two sets of runs of one metric.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Median, quartiles and extremes of one metric over its runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// The `p`-quantile by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here and by
/// whoever checks this benchmark agree. `sorted` must be ascending.
fn quantile_exclusive(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = pos - j as f64;
    sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
}

pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.median)
}

impl Summary {
    /// `None` for an empty or non-finite sample.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Some(Self {
            median,
            q1: quantile_exclusive(&sorted, 0.25),
            q3: quantile_exclusive(&sorted, 0.75),
            min: sorted[0],
            max: sorted[n - 1],
            n,
        })
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return if self.q3 == self.q1 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Outcome of comparing runs B of a metric against runs A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A's own spread exceeds the bound and B does not win every pairing:
    /// the runs cannot tell a change of the bound's size from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric compared across two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    pub a: Summary,
    pub b: Summary,
    /// `b.median / a.median`; the base is A.
    pub ratio: f64,
    pub verdict: Verdict,
}

/// Compares runs `b` against runs `a` for a metric that may worsen by
/// `bound` (a share of A's median) before it counts as a regression.
///
/// * `unresolved` — A's quartile spread is wider than the bound, unless every
///   run of B beats every run of A (then `better`).
/// * `worse` / `better` — B's median is beyond the bound on that side.
/// * `same` — otherwise.
pub fn compare(a: &[f64], b: &[f64], better: Better, bound: f64) -> Option<Comparison> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    let ratio = sb.median / sa.median;
    // Positive when B is worse, as a share of A's median.
    let worsening = match better {
        Better::Lower => (sb.median - sa.median) / sa.median.abs(),
        Better::Higher => (sa.median - sb.median) / sa.median.abs(),
    };
    let b_wins_every_pair = match better {
        Better::Lower => sb.max < sa.min,
        Better::Higher => sb.min > sa.max,
    };
    let verdict = if b_wins_every_pair {
        Verdict::Better
    } else if sa.spread() > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Some(Comparison {
        a: sa,
        b: sb,
        ratio,
        verdict,
    })
}
