//! The five named workloads: the `gfl simulate` flags of each, at full and
//! smoke size, and the few facts about their shape that the per-layer probes
//! need in order to rebuild the same inputs in process.
//!
//! Every workload is sized so that one `gfl simulate` invocation lasts about
//! a second on a two-core box: the contract this benchmark is written to
//! gives each run a fixed number of seconds, and a run has to hold several
//! invocations (each one sets up again) for its medians to mean anything.

/// Output flags that switch on every artifact the CLI can write.
const OBSERVED_OUTPUTS: [(&str, &str); 3] = [
    ("--trace-out", "t.jsonl"),
    ("--checkpoint", "c.json"),
    ("--csv", "r.csv"),
];

/// How big a workload is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// About a fifth of it: for tests and for the discarded warm-up.
    Smoke,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// One sentence: why the workload exists and which layer it isolates.
    pub why: &'static str,
    /// Measured runs write every artifact (`hostile-observed`).
    pub observed: bool,
    /// `--task speech` (light model) instead of vision.
    pub speech: bool,
    /// `--virtual` population of this many clients, else materialized data.
    pub is_virtual: bool,
    clients: (usize, usize),
    rounds: (usize, usize),
    /// `--samples` (materialized pool size; also fixes the test-set size).
    samples: (usize, usize),
    pub edges: usize,
    pub k: usize,
    pub e: usize,
    pub sample: usize,
    /// Flags that do not change with size, after the sized ones.
    fixed: &'static str,
    /// Accuracy a run must reach (at full and at smoke size); `None` where
    /// the horizon is too short to learn anything and the last round stands
    /// in for the round that reaches it.
    acc_target: Option<(f64, f64)>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "dense-train",
        why: "the paper's section 7.2 shape: >95% of the time is client_step -> nn fwd/bwd -> tensor GEMM on the pool; kernel, layer and pool changes must show here",
        observed: false,
        speech: false,
        is_virtual: false,
        clients: (60, 60),
        rounds: (6, 2),
        samples: (6000, 3000),
        edges: 3,
        k: 5,
        e: 2,
        sample: 12,
        fixed: "--batch 32 --eval-every 1",
        acc_target: Some((0.55, 0.35)),
    },
    Workload {
        name: "secure-covg",
        why: "setup is Algorithm 2 (CoV formation, quadratic per edge, Fig. 5); rounds are SecAgg pairwise masking with dropout recovery plus fault decisions; GEMM is a minority",
        observed: false,
        speech: false,
        is_virtual: true,
        clients: (12000, 2400),
        rounds: (8, 2),
        samples: (12000, 12000),
        edges: 4,
        k: 2,
        e: 1,
        sample: 4,
        fixed: "--grouping covg --min-gs 10 --secure --dropout 0.1 --faults moderate --eval-every 4",
        acc_target: None,
    },
    Workload {
        name: "scale-churn",
        why: "population build and stream formation in setup; rounds are MembershipState apply_churn/heal over 11k groups plus a little training; a kernel optimisation must show no change here",
        observed: false,
        speech: false,
        is_virtual: true,
        clients: (90000, 18000),
        rounds: (16, 4),
        samples: (12000, 12000),
        edges: 8,
        k: 1,
        e: 1,
        sample: 2,
        fixed: "--grouping stream --group-size 8 --alpha 0.1 --sampling random --churn moderate --eval-every 4",
        acc_target: None,
    },
    Workload {
        name: "hostile-async",
        why: "the round driver the other way: event-driven clock, self-healing membership, poisoning, FLAME filter, quorum cuts; per-step overhead on the light model, not GEMM, dominates",
        observed: false,
        speech: true,
        is_virtual: false,
        clients: (600, 600),
        rounds: (50, 10),
        samples: (60000, 60000),
        edges: 6,
        k: 3,
        e: 1,
        sample: 12,
        fixed: "--eval-every 1 --runtime semi-async --faults moderate --churn moderate --adversary moderate --robust-agg flame",
        acc_target: None,
    },
    Workload {
        name: "hostile-observed",
        why: "hostile-async with every output on (trace, checkpoint, CSVs, metrics): paired with it, isolates the cost of watching; an obs change must move this and leave hostile-async alone",
        observed: true,
        speech: true,
        is_virtual: false,
        clients: (600, 600),
        rounds: (50, 10),
        samples: (60000, 60000),
        edges: 6,
        k: 3,
        e: 1,
        sample: 12,
        fixed: "--eval-every 1 --runtime semi-async --faults moderate --churn moderate --adversary moderate --robust-agg flame",
        acc_target: None,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn pick(pair: (usize, usize), size: Size) -> usize {
    match size {
        Size::Full => pair.0,
        Size::Smoke => pair.1,
    }
}

impl Workload {
    pub fn clients(&self, size: Size) -> usize {
        pick(self.clients, size)
    }

    pub fn rounds(&self, size: Size) -> usize {
        pick(self.rounds, size)
    }

    pub fn samples(&self, size: Size) -> usize {
        pick(self.samples, size)
    }

    pub fn acc_target(&self, size: Size) -> Option<f64> {
        self.acc_target.map(|(full, smoke)| match size {
            Size::Full => full,
            Size::Smoke => smoke,
        })
    }

    /// Whether the fixed flags contain `flag` (e.g. `--secure`).
    pub fn has_flag(&self, flag: &str) -> bool {
        self.fixed.split_whitespace().any(|f| f == flag)
    }

    /// The value following `flag` in the fixed flags.
    pub fn flag_value(&self, flag: &str) -> Option<&'static str> {
        let mut it = self.fixed.split_whitespace();
        while let Some(f) = it.next() {
            if f == flag {
                return it.next();
            }
        }
        None
    }

    /// Arguments after `gfl`, without any output flag. The seed reaches the
    /// program only here; fault, churn and adversary seeds follow from it by
    /// the CLI's own defaults.
    pub fn plain_args(&self, seed: u64, threads: usize, size: Size) -> Vec<String> {
        let mut args: Vec<String> = vec![
            "simulate".into(),
            "--seed".into(),
            seed.to_string(),
            "--threads".into(),
            threads.to_string(),
        ];
        if self.speech {
            args.extend(["--task".into(), "speech".into()]);
        }
        if self.is_virtual {
            args.push("--virtual".into());
        } else {
            args.extend(["--samples".into(), self.samples(size).to_string()]);
        }
        for (flag, value) in [
            ("--clients", self.clients(size)),
            ("--edges", self.edges),
            ("--rounds", self.rounds(size)),
            ("--k", self.k),
            ("--e", self.e),
            ("--sample", self.sample),
        ] {
            args.extend([flag.to_string(), value.to_string()]);
        }
        args.extend(self.fixed.split_whitespace().map(String::from));
        args
    }

    /// Flags that switch on every artifact, writing under `out_dir`; returns
    /// the flags and the paths they name.
    pub fn output_args(&self, out_dir: &std::path::Path) -> (Vec<String>, Vec<std::path::PathBuf>) {
        let mut flags = Vec::new();
        let mut paths = Vec::new();
        let mut add = |flag: &str, file: &str| {
            let path = out_dir.join(file);
            flags.extend([flag.to_string(), path.to_string_lossy().into_owned()]);
            paths.push(path);
        };
        for (flag, file) in OBSERVED_OUTPUTS {
            add(flag, file);
        }
        if self.flag_value("--runtime") == Some("semi-async") {
            add("--async-csv", "a.csv");
        }
        flags.push("--metrics".into());
        (flags, paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
        }
    }

    #[test]
    fn seed_is_passed_once_and_outputs_stay_in_the_out_dir() {
        let w = by_name("hostile-observed").unwrap();
        let args = w.plain_args(7, 2, Size::Full);
        assert_eq!(args.iter().filter(|a| a.as_str() == "--seed").count(), 1);
        assert!(!args.iter().any(|a| a.ends_with("-seed") && a != "--seed"));
        let (flags, paths) = w.output_args(std::path::Path::new("out"));
        assert_eq!(paths.len(), 4, "trace, checkpoint, csv, async csv");
        assert!(paths.iter().all(|p| p.starts_with("out")));
        assert!(flags.contains(&"--metrics".to_string()));
        assert_eq!(w.flag_value("--runtime"), Some("semi-async"));
        assert!(by_name("secure-covg").unwrap().has_flag("--secure"));
    }
}
