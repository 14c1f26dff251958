//! The declared configuration surface of `gfl` and `gfl-trace`.
//!
//! Every flag is one [`Flag`] row of its [`Command`]'s table — name, value
//! [`Kind`] with its range, default, one help line — and everything else is
//! read off the rows: [`Args::parse`] rejects unknown flags before any getter
//! runs, the typed getters take the default and the range from the row, the
//! `(a|b|c)` of a choice error and the `--help` text are rendered from it. A
//! new flag is one row in the tables at the bottom of this file plus the
//! getter call that reads it.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use gfl_core::engine::RobustAggRule;
use gfl_core::grouping::{
    CdgGrouping, CovGrouping, GroupingAlgorithm, KldGrouping, RandomGrouping, StreamGrouping,
    VarianceGrouping,
};
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_core::semi_async::StalenessPolicy;
use gfl_faults::{AdversaryPlan, ChurnPlan, FaultPlan};
use gfl_sim::Task;

/// Parse-time errors.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// An argument did not start with `--`.
    NotAFlag(String),
    /// A `--key` was given twice.
    Duplicate(String),
    /// A value is not of its flag's kind, or outside its range or its list
    /// of names: (key, value, the kind the flag's row declares).
    BadValue(String, String, Kind),
    /// A key has no row in the command's table.
    Unknown(String),
    /// A flag with no default was not given.
    Missing(&'static str),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::NotAFlag(a) => write!(f, "expected --flag, got '{a}'"),
            ParseError::Duplicate(k) => write!(f, "--{k} given more than once"),
            ParseError::BadValue(k, v, names @ Kind::Choice(_)) => {
                write!(f, "unknown --{k} '{v}' ({names})")
            }
            ParseError::BadValue(k, v, kind) => write!(f, "--{k}: '{v}' is not a valid {kind}"),
            ParseError::Unknown(k) => write!(f, "unknown option --{k}"),
            ParseError::Missing(k) => write!(f, "missing required option --{k}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// The floats a row accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Range {
    /// Anything that parses: the type the flag feeds validates its own knobs.
    Any,
    /// Finite and at least 0.
    NonNegative,
    /// Finite and above 0.
    Positive,
    /// In [0, 1].
    Probability,
}

/// What a flag's value is, with its range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A bare `--flag` (or an explicit `true`/`false`); off when absent.
    Switch,
    /// An integer no smaller than this.
    Int(u64),
    /// A float in the range.
    Float(Range),
    /// Free text — a path or a structured spec — shown as this placeholder.
    Text(&'static str),
    /// One of a list of names; build it with [`names`] from the typed
    /// `(name, value)` list that [`Args::choice`] resolves it against.
    Choice(&'static [&'static str]),
}

impl Kind {
    /// Whether `value` is of this kind and within its range.
    fn admits(&self, value: &str) -> bool {
        match *self {
            Kind::Switch => matches!(value, "true" | "false"),
            Kind::Int(min) => value.parse::<u64>().is_ok_and(|n| n >= min),
            Kind::Float(range) => value.parse::<f64>().is_ok_and(|x| match range {
                Range::Any => true,
                Range::NonNegative => x.is_finite() && x >= 0.0,
                Range::Positive => x.is_finite() && x > 0.0,
                Range::Probability => (0.0..=1.0).contains(&x),
            }),
            Kind::Text(_) => true,
            Kind::Choice(names) => names.contains(&value),
        }
    }
}

/// As `--help` and the errors name it: `integer >= 1`, `vision|speech`, ….
impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Kind::Switch => write!(f, "true|false"),
            Kind::Int(0) => write!(f, "integer"),
            Kind::Int(min) => write!(f, "integer >= {min}"),
            Kind::Float(Range::Any) => write!(f, "float"),
            Kind::Float(Range::NonNegative) => write!(f, "finite float >= 0"),
            Kind::Float(Range::Positive) => write!(f, "finite float > 0"),
            Kind::Float(Range::Probability) => write!(f, "probability in [0, 1]"),
            Kind::Text(placeholder) => write!(f, "{placeholder}"),
            Kind::Choice(names) => write!(f, "{}", names.join("|")),
        }
    }
}

/// What a flag's value is when the flag is not given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// Nothing: the flag is optional, or an override of a preset.
    Absent,
    /// This literal, parsed under the row's own kind.
    Lit(&'static str),
    /// Whatever this other flag's value is.
    SameAs(&'static str),
}

/// One row of a command's table.
#[derive(Debug)]
pub struct Flag {
    /// The flag without its `--`.
    pub name: &'static str,
    pub kind: Kind,
    pub default: Fallback,
    /// One line for `--help`.
    pub help: &'static str,
}

/// One row: name, kind and range, default, help line.
pub const fn flag(name: &'static str, kind: Kind, default: Fallback, help: &'static str) -> Flag {
    Flag {
        name,
        kind,
        default,
        help,
    }
}

/// The names of a typed `(name, value)` choice list, for [`Kind::Choice`].
pub const fn names<T, const N: usize>(list: &[(&'static str, T); N]) -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    while i < N {
        out[i] = list[i].0;
        i += 1;
    }
    out
}

/// One command: what it is called, what it does, and its table.
#[derive(Debug)]
pub struct Command {
    /// As typed, e.g. `gfl simulate`.
    pub name: &'static str,
    pub about: &'static str,
    /// `(section title, rows)` in help order. Adjacent slices may share a
    /// title (`""` is no title), and commands that take the same flags
    /// share the slice.
    pub sections: &'static [(&'static str, &'static [Flag])],
}

impl Command {
    /// Every row, in help order.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.sections.iter().flat_map(|(_, rows)| rows.iter())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.name == name)
    }

    /// The `--help` text: one line per row, under its section's title.
    pub fn help(&self) -> String {
        let mut text = format!("{} — {}", self.name, self.about);
        let mut last_title = "";
        for (title, rows) in self.sections {
            if *title != last_title {
                text += &format!("\n\n{title}:");
                last_title = title;
            }
            for f in rows.iter() {
                let value = match f.kind {
                    Kind::Switch => String::new(),
                    kind => format!(" <{kind}>"),
                };
                let default = match f.default {
                    Fallback::Absent => String::new(),
                    Fallback::Lit(v) => format!(" [{v}]"),
                    Fallback::SameAs(other) => format!(" [--{other}]"),
                };
                let left = format!("  --{}{value}", f.name);
                text += &format!("\n{left:<36}  {}{default}", f.help);
            }
        }
        text
    }
}

/// The `--key value` pairs of one invocation, checked against the
/// command's table; bare `--flag`s get the value `"true"`.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    values: BTreeMap<String, String>,
    help: bool,
}

impl Args {
    /// Parses an argv slice (after the subcommand): rejects non-flags,
    /// duplicates and flags `command` has no row for. `--help` anywhere
    /// wins over all of that.
    pub fn parse(command: &'static Command, argv: &[String]) -> Result<Self, ParseError> {
        let mut values = BTreeMap::new();
        let help = argv.iter().any(|a| a == "--help");
        let mut i = 0;
        while i < argv.len() && !help {
            let arg = &argv[i];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ParseError::NotAFlag(arg.clone()));
            };
            if command.flag(key).is_none() {
                return Err(ParseError::Unknown(key.to_string()));
            }
            // Value = next token unless it is another flag or absent.
            let value = match argv.get(i + 1) {
                Some(next) if !next.starts_with("--") => {
                    i += 1;
                    next.clone()
                }
                _ => "true".to_string(),
            };
            if values.insert(key.to_string(), value).is_some() {
                return Err(ParseError::Duplicate(key.to_string()));
            }
            i += 1;
        }
        Ok(Self {
            command,
            values,
            help,
        })
    }

    /// `Some(help text)` if `--help` was passed.
    pub fn wants_help(&self) -> Option<String> {
        self.help.then(|| self.command.help())
    }

    /// The row of `key` and its value: as given, else the row's default.
    ///
    /// # Panics
    /// Panics when `key` has no row — a bug in the command, not in its
    /// input: [`Args::parse`] let no such key in.
    fn lookup(&self, key: &str) -> (&'static Flag, Option<&str>) {
        let Some(flag) = self.command.flag(key) else {
            panic!("`{}` reads --{key}, which has no row", self.command.name);
        };
        let value = match (self.values.get(key), flag.default, flag.kind) {
            (Some(v), ..) => Some(v.as_str()),
            (None, Fallback::Lit(v), _) => Some(v),
            (None, Fallback::SameAs(other), _) => self.lookup(other).1,
            (None, Fallback::Absent, Kind::Switch) => Some("false"),
            (None, Fallback::Absent, _) => None,
        };
        (flag, value)
    }

    /// The value of `key`, if it was given or has a default: checked
    /// against the row's kind and range, then parsed as `T`.
    pub fn opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, ParseError> {
        let (flag, Some(value)) = self.lookup(key) else {
            return Ok(None);
        };
        match value.parse() {
            Ok(v) if flag.kind.admits(value) => Ok(Some(v)),
            _ => Err(ParseError::BadValue(key.into(), value.into(), flag.kind)),
        }
    }

    /// [`Args::opt`] for a flag that has a default (or is required).
    pub fn get<T: FromStr>(&self, key: &str) -> Result<T, ParseError> {
        let missing = ParseError::Missing(self.lookup(key).0.name);
        self.opt(key)?.ok_or(missing)
    }

    /// The `(name, value)` entry of `list` that `key` names. `list` is the
    /// typed list the row's [`Kind::Choice`] took its names from.
    pub fn choice<T>(
        &self,
        key: &str,
        list: &'static [(&'static str, T)],
    ) -> Result<&'static (&'static str, T), ParseError> {
        let (flag, value) = self.lookup(key);
        debug_assert!(
            matches!(flag.kind, Kind::Choice(n) if n.iter().eq(list.iter().map(|(name, _)| name))),
            "--{key} is resolved against a list its row does not name"
        );
        let value = value.ok_or(ParseError::Missing(flag.name))?;
        let entry = list.iter().find(|(name, _)| *name == value);
        entry.ok_or_else(|| ParseError::BadValue(key.into(), value.into(), flag.kind))
    }
}

// --- the `(name, value)` list of every string-valued enum ---

pub const TASKS: [(&str, Task); 2] = [("vision", Task::Vision), ("speech", Task::Speech)];

/// Builds a grouping algorithm from `(--min-gs, --max-cov, --group-size)`.
pub type MakeGrouping = fn(usize, f32, usize) -> Box<dyn GroupingAlgorithm>;

#[rustfmt::skip]
pub const GROUPINGS: [(&str, MakeGrouping); 6] = [
    ("covg",   |min_group_size, max_cov, _| Box::new(CovGrouping { min_group_size, max_cov })),
    ("rg",     |_, _, group_size| Box::new(RandomGrouping { group_size })),
    ("cdg",    |_, _, group_size| Box::new(CdgGrouping { group_size, kmeans_iters: 10 })),
    ("kldg",   |_, _, group_size| Box::new(KldGrouping { group_size })),
    ("varg",   |min_group_size, _, _| Box::new(VarianceGrouping { min_group_size, max_variance: 60.0 })),
    ("stream", |_, _, group_size| Box::new(StreamGrouping { group_size })),
];

pub const SAMPLINGS: [(&str, SamplingStrategy); 4] = [
    ("random", SamplingStrategy::Random),
    ("rcov", SamplingStrategy::RCov),
    ("srcov", SamplingStrategy::SRCov),
    ("esrcov", SamplingStrategy::ESRCov),
];

pub const WEIGHTINGS: [(&str, AggregationWeighting); 3] = [
    ("standard", AggregationWeighting::Standard),
    ("unbiased", AggregationWeighting::Unbiased),
    ("stabilized", AggregationWeighting::Stabilized),
];

/// The local update rules `gfl simulate --method` can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    FedAvg,
    FedProx,
    Scaffold,
    FedNova,
}

pub const METHODS: [(&str, Method); 4] = [
    ("fedavg", Method::FedAvg),
    ("fedprox", Method::FedProx),
    ("scaffold", Method::Scaffold),
    ("fednova", Method::FedNova),
];

/// `true` selects the event-driven clock.
pub const RUNTIMES: [(&str, bool); 2] = [("sync", false), ("semi-async", true)];

/// Builds the late-upload policy from `--staleness-decay`.
pub type MakeStaleness = fn(f64) -> StalenessPolicy;

pub const STALENESS: [(&str, MakeStaleness); 2] = [
    ("drop", |_| StalenessPolicy::DropStale),
    ("weighted", |decay| StalenessPolicy::Weighted { decay }),
];

/// Builds a preset plan from its decision seed (which the clean ones
/// ignore: the command sets it on whatever plan it gets).
pub type Preset<P> = fn(u64) -> P;

pub const FAULT_PLANS: [(&str, Preset<FaultPlan>); 2] = [
    ("none", |_| FaultPlan::none()),
    ("moderate", FaultPlan::moderate),
];

pub const CHURN_PLANS: [(&str, Preset<ChurnPlan>); 2] = [
    ("none", |_| ChurnPlan::none()),
    ("moderate", ChurnPlan::moderate),
];

pub const ADVERSARIES: [(&str, Preset<AdversaryPlan>); 3] = [
    ("none", |_| AdversaryPlan::none()),
    ("moderate", AdversaryPlan::moderate),
    ("backdoor", |seed| AdversaryPlan::backdoor(seed, 0.2)),
];

/// `true` leaves online regrouping enabled.
pub const REGROUP_POLICIES: [(&str, bool); 2] = [("heal", true), ("frozen", false)];

/// Builds the group-level rule from `(--robust-f, --robust-select)`.
pub type MakeRobust = fn(usize, usize) -> RobustAggRule;

#[rustfmt::skip]
pub const ROBUST_RULES: [(&str, MakeRobust); 6] = [
    ("mean",         |_, _| RobustAggRule::Mean),
    ("median",       |_, _| RobustAggRule::CoordinateMedian),
    ("trimmed-mean", |trim, _| RobustAggRule::TrimmedMean { trim }),
    ("krum",         |byzantine, _| RobustAggRule::Krum { byzantine }),
    ("multi-krum",   |byzantine, select| RobustAggRule::MultiKrum { byzantine, select }),
    ("flame",        |_, _| RobustAggRule::FlameFilter),
];

// --- the tables: one row per line, columns aligned by hand ---

use Fallback::{Absent, Lit, SameAs};
use Kind::{Choice, Float, Int, Switch, Text};
use Range::{Any, NonNegative, Positive, Probability};

const DATA_TITLE: &str = "DATA (synthetic unless --data is given)";

#[rustfmt::skip]
const TASK: &[Flag] = &[
    flag("task", Choice(&names(&TASKS)), Lit("vision"), "task preset: synthetic data, model and cost curves"),
];

#[rustfmt::skip]
const DATA: &[Flag] = &[
    flag("data",    Text("PATH"),    Absent,       "CSV dataset, label in last column (see gfl-data::csv)"),
    flag("samples", Int(0),          Lit("12000"), "synthetic dataset size"),
    flag("alpha",   Float(Positive), Lit("0.1"),   "Dirichlet concentration"),
    flag("clients", Int(1),          Lit("90"),    "number of clients"),
    flag("edges",   Int(1),          Lit("3"),     "number of edge servers"),
    flag("seed",    Int(0),          Lit("42"),    "seed of data, partition, formation and training"),
];

#[rustfmt::skip]
const GROUPING: &[Flag] = &[
    flag("grouping",   Choice(&names(&GROUPINGS)), Lit("covg"), "group formation (covg is Algorithm 2)"),
    flag("min-gs",     Int(1),     Lit("5"),   "minimum group size (covg, varg)"),
    flag("max-cov",    Float(Any), Lit("0.5"), "CoV target (covg)"),
    flag("group-size", Int(1),     Lit("6"),   "target size (rg, cdg, kldg, stream)"),
];

/// `gfl simulate`.
#[rustfmt::skip]
pub const SIMULATE: Command = Command {
    name: "gfl simulate",
    about: "run a federated training session",
    sections: &[
        (DATA_TITLE, TASK),
        (DATA_TITLE, DATA),
        (DATA_TITLE, &[
            flag("virtual", Switch, Absent,
                 "derive client shards on demand from (seed, id): memory stays O(sampled clients), \
                  so --clients scales to 10^6 and beyond (docs/SCALE.md); excludes --data and \
                  --method scaffold"),
        ]),
        ("GROUPING & SAMPLING", GROUPING),
        ("GROUPING & SAMPLING", &[
            flag("sampling",  Choice(&names(&SAMPLINGS)),  Lit("esrcov"),   "group sampling strategy (section 6)"),
            flag("weighting", Choice(&names(&WEIGHTINGS)), Lit("standard"), "global aggregation weighting"),
        ]),
        ("TRAINING", &[
            flag("method",     Choice(&names(&METHODS)), Lit("fedavg"), "local update rule"),
            flag("mu",         Float(Any),         Lit("0.1"),  "FedProx proximal strength"),
            flag("rounds",     Int(1),             Lit("40"),   "global rounds T"),
            flag("k",          Int(1),             Lit("5"),    "group rounds K per global round"),
            flag("e",          Int(0),             Lit("2"),    "local epochs E per group round"),
            flag("sample",     Int(1),             Lit("4"),    "groups sampled per global round S"),
            flag("batch",      Int(1),             Lit("32"),   "minibatch size"),
            flag("lr",         Float(Positive),    Lit("0.05"), "learning rate"),
            flag("eval-every", Int(1),             Lit("2"),    "evaluate the global model every N rounds"),
            flag("budget",     Float(Any),         Absent,      "cost budget in emulated seconds (unlimited when absent)"),
            flag("secure",     Switch,             Absent,      "route aggregation through real SecAgg"),
            flag("dropout",    Float(Probability), Lit("0.0"),  "per-group-round client dropout"),
            flag("threads",    Int(0),             Lit("0"),
                 "worker threads (0 = GFL_THREADS env, else all cores); results are bit-identical for every N"),
        ]),
        ("RUNTIME (deterministic semi-async rounds; see docs/ASYNC.md)", &[
            flag("runtime", Choice(&names(&RUNTIMES)), Lit("sync"),
                 "round engine; composes with --churn: membership heals on the round boundary and \
                  resets in-flight edge state"),
            flag("staleness-policy", Choice(&names(&STALENESS)), Lit("drop"), "late-upload policy"),
            flag("staleness-decay",  Float(NonNegative), Lit("1.0"), "weighted-staleness damping"),
            flag("cloud-deadline",   Float(NonNegative), Lit("0"),   "cloud close factor (0 = wait for all)"),
            flag("async-csv",        Text("PATH"),       Absent,
                 "write the per-round async report as CSV (needs --runtime semi-async)"),
        ]),
        ("FAULT INJECTION (deterministic; see docs/FAULTS.md)", &[
            flag("faults",           Choice(&names(&FAULT_PLANS)), Lit("none"), "preset fault plan"),
            flag("fault-seed",       Int(0),     SameAs("seed"), "fault decision seed"),
            flag("straggler-frac",   Float(Any), Absent,      "plan override: fraction of clients that straggle"),
            flag("straggler-factor", Float(Any), Absent,      "plan override: their slowdown (>= 1)"),
            flag("crash-prob",       Float(Any), Absent,      "plan override: crash per client and group round"),
            flag("corrupt-prob",     Float(Any), Absent,      "plan override: corrupted update"),
            flag("upload-fail",      Float(Any), Absent,      "plan override: failed edge->cloud upload attempt"),
            flag("outage",           Text("E:FROM:UNTIL"), Absent, "edge E dark for rounds [FROM, UNTIL)"),
            flag("quorum",           Float(Any), Lit("0.25"), "min surviving-upload fraction"),
            flag("deadline-factor",  Float(Any), Lit("2.5"),  "straggler cut threshold (0 = never cut)"),
            flag("max-retries",      Int(0),     Lit("3"),    "edge->cloud upload retries"),
            flag("backoff-base",     Float(Any), Lit("0.5"),  "upload retry backoff base (s)"),
            flag("max-backoff",      Float(Any), Lit("60"),   "per-wait backoff cap (s)"),
        ]),
        ("CHURN & SELF-HEALING (deterministic; see docs/FAULTS.md)", &[
            flag("churn",            Choice(&names(&CHURN_PLANS)), Lit("none"), "preset churn plan"),
            flag("churn-seed",       Int(0),     SameAs("seed"),   "churn decision seed"),
            flag("churn-horizon",    Int(0),     SameAs("rounds"), "rounds over which churn unfolds (>= 1)"),
            flag("depart-frac",      Float(Any), Absent,     "plan override: fraction of clients departing for good"),
            flag("arrive-frac",      Float(Any), Absent,     "plan override: fraction of clients arriving late"),
            flag("flap-prob",        Float(Any), Absent,     "plan override: a present client missing a round"),
            flag("regroup-policy",   Choice(&names(&REGROUP_POLICIES)), Lit("heal"), "online regrouping"),
            flag("size-floor",       Int(0),     Lit("2"),   "dissolve groups smaller than this"),
            flag("cov-drift",        Float(Any), Lit("0.5"), "CoV drift tolerance before repair"),
            flag("regroup-cooldown", Int(0),     Lit("5"),   "rounds between group repairs"),
            flag("reform-every",     Int(1),     Absent,     "periodic full re-formation cadence (off when absent)"),
        ]),
        ("ADVERSARIES (deterministic campaigns; see docs/FAULTS.md)", &[
            flag("adversary",      Choice(&names(&ADVERSARIES)), Lit("none"), "preset campaign"),
            flag("adversary-seed", Int(0),     SameAs("seed"), "attack decision seed"),
            flag("backdoor-frac",  Float(Any), Absent, "plan override: fraction of clients running the backdoor"),
            flag("flip-frac",      Float(Any), Absent, "plan override: fraction of clients flipping labels"),
            flag("poison-frac",    Float(Any), Absent, "plan override: fraction of clients poisoning the model"),
            flag("poison-rate",    Float(Any), Absent, "plan override: per-row poison probability"),
            flag("trigger-width",  Int(0),     Absent, "plan override: backdoor trigger coordinates"),
            flag("trigger-target", Int(0),     Absent, "plan override: label a triggered sample gets"),
            flag("backdoor-boost", Float(Any), Absent, "plan override: model-replacement amplification"),
            flag("flip-from",      Int(0),     Absent, "plan override: label-flip source class"),
            flag("flip-to",        Int(0),     Absent, "plan override: label-flip target class"),
            flag("attack-scale",   Float(Any), Absent, "plan override: model-poison amplification"),
        ]),
        ("ROBUST AGGREGATION (group-level, Line 14)", &[
            flag("robust-agg", Choice(&names(&ROBUST_RULES)), Lit("mean"),
                 "aggregation rule; all but mean exclude --secure"),
            flag("robust-f",      Int(0), Lit("1"), "assumed Byzantine count / trim"),
            flag("robust-select", Int(0), Lit("2"), "multi-krum selection size"),
        ]),
        ("OUTPUT", &[
            flag("csv",          Text("PATH"), Absent,       "write the trajectory as CSV"),
            flag("checkpoint",   Text("PATH"), Absent,       "write a resumable snapshot at the end"),
            flag("trace-out",    Text("PATH"), Absent,       "stream a JSONL run trace (docs/OBSERVABILITY.md)"),
            flag("trace-buffer", Int(0),       Lit("65536"), "max spans buffered before spilling to the trace file"),
            flag("metrics",      Switch,       Absent,       "print the end-of-run metrics summary table"),
        ]),
    ],
};

/// `gfl group`.
#[rustfmt::skip]
pub const GROUP: Command = Command {
    name: "gfl group",
    about: "form client groups and report their quality",
    sections: &[
        (DATA_TITLE, TASK),
        (DATA_TITLE, DATA),
        ("GROUPING", GROUPING),
        ("OUTPUT", &[flag("json", Switch, Absent, "emit the groups as JSON instead of a table")]),
    ],
};

/// `gfl cost`.
#[rustfmt::skip]
pub const COST: Command = Command {
    name: "gfl cost",
    about: "print the calibrated RPi cost curves (Fig. 2a / Fig. 8)",
    sections: &[
        ("OPTIONS", TASK),
        ("OPTIONS", &[flag("max", Int(0), Lit("50"), "largest x to print")]),
    ],
};

/// `gfl theory`; the defaults are `TheoremInputs::reference()`.
#[rustfmt::skip]
pub const THEORY: Command = Command {
    name: "gfl theory",
    about: "evaluate the Theorem 1 convergence bound",
    sections: &[
        ("SCHEDULE", &[
            flag("gap",     Float(Any), Lit("2"),    "initial optimality gap"),
            flag("eta",     Float(Any), Lit("0.01"), "step size"),
            flag("t",       Int(0),     Lit("200"),  "global rounds T"),
            flag("k",       Int(0),     Lit("5"),    "group rounds K"),
            flag("e",       Int(0),     Lit("2"),    "local epochs E"),
            flag("sampled", Int(0),     Lit("12"),   "groups sampled per round"),
        ]),
        ("CONSTANTS", &[
            flag("l",      Float(Any), Lit("1"),   "smoothness L"),
            flag("sigma2", Float(Any), Lit("1"),   "gradient variance"),
            flag("zeta2",  Float(Any), Lit("1"),   "intra-group heterogeneity"),
            flag("zetag2", Float(Any), Lit("0.5"), "inter-group heterogeneity"),
        ]),
        ("GROUP STATISTICS", &[
            flag("gamma",      Float(Any), Lit("1.2"), "gamma"),
            flag("big-gamma",  Float(Any), Lit("1.3"), "Gamma"),
            flag("gamma-p",    Float(Any), Lit("120"), "Gamma_p"),
            flag("group-size", Float(Any), Lit("6"),   "mean group size"),
        ]),
    ],
};

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn parse(s: &str) -> Result<Args, ParseError> {
        Args::parse(&SIMULATE, &argv(s))
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = parse("--alpha 0.1 --clients 120").unwrap();
        assert_eq!(a.get::<f64>("alpha").unwrap(), 0.1);
        assert_eq!(a.get::<usize>("clients").unwrap(), 120);
    }

    #[test]
    fn bare_flags_are_true() {
        let a = parse("--secure --alpha 0.5").unwrap();
        assert!(a.get::<bool>("secure").unwrap());
        assert!(!a.get::<bool>("metrics").unwrap());
        assert!(!parse("--secure false")
            .unwrap()
            .get::<bool>("secure")
            .unwrap());
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("--seed 7").unwrap();
        assert_eq!(a.get::<usize>("rounds").unwrap(), 40);
        assert_eq!(a.choice("task", &TASKS).unwrap().0, "vision");
        // A default may be another flag's value, given or itself defaulted.
        assert_eq!(a.get::<u64>("fault-seed").unwrap(), 7);
        assert_eq!(a.get::<usize>("churn-horizon").unwrap(), 40);
        assert_eq!(a.opt::<String>("csv").unwrap(), None);
        assert_eq!(a.opt::<f64>("crash-prob").unwrap(), None);
    }

    #[test]
    fn rejects_non_flags() {
        assert_eq!(
            parse("positional").unwrap_err(),
            ParseError::NotAFlag("positional".into())
        );
    }

    #[test]
    fn rejects_duplicates() {
        assert_eq!(
            parse("--seed 1 --seed 2").unwrap_err(),
            ParseError::Duplicate("seed".into())
        );
    }

    #[test]
    fn rejects_bad_values() {
        let a = parse("--rounds banana --secure maybe --budget abc").unwrap();
        for key in ["rounds", "secure", "budget"] {
            let err = a.opt::<String>(key).unwrap_err();
            assert!(matches!(&err, ParseError::BadValue(k, ..) if k == key));
        }
        // The message carries the value and the row's kind.
        let err = a.opt::<f64>("budget").unwrap_err().to_string();
        assert_eq!(err, "--budget: 'abc' is not a valid float");
    }

    #[test]
    fn rejects_values_outside_the_rows_range() {
        for (args, key, kind) in [
            ("--clients 0", "clients", "integer >= 1"),
            ("--alpha nan", "alpha", "finite float > 0"),
            ("--alpha inf", "alpha", "finite float > 0"),
            ("--dropout 2", "dropout", "probability in [0, 1]"),
            (
                "--staleness-decay -1",
                "staleness-decay",
                "finite float >= 0",
            ),
            ("--max-retries 4294967296", "max-retries", "integer"),
        ] {
            let err = parse(args).unwrap().get::<u32>(key).unwrap_err();
            assert!(
                matches!(&err, ParseError::BadValue(k, _, r) if k == key && r.to_string() == kind),
                "{args}: {err}"
            );
        }
    }

    #[test]
    fn rejects_unknown_after_consumption() {
        // … and before it: no getter has run, nothing was consumed.
        assert_eq!(
            parse("--alpha 0.1 --typo 3").unwrap_err(),
            ParseError::Unknown("typo".into())
        );
        // A flag of another command's table is as unknown as a typo.
        assert_eq!(
            Args::parse(&COST, &argv("--alpha 0.1")).unwrap_err(),
            ParseError::Unknown("alpha".into())
        );
    }

    #[test]
    fn accepts_all_consumed() {
        // Every row of a table is accepted by its command's parser.
        for command in [&SIMULATE, &GROUP, &COST, &THEORY] {
            for f in command.flags() {
                Args::parse(command, &[format!("--{}", f.name)]).unwrap();
            }
        }
    }

    #[test]
    fn unknown_choices_list_the_accepted_names() {
        let err = parse("--task audio").unwrap().choice("task", &TASKS);
        assert_eq!(
            err.unwrap_err().to_string(),
            "unknown --task 'audio' (vision|speech)"
        );
    }

    #[test]
    fn help_wins_and_lists_every_row_with_its_default() {
        let a = parse("--typo --help positional").unwrap();
        let help = a.wants_help().expect("--help was passed");
        assert!(parse("--seed 1").unwrap().wants_help().is_none());
        for f in SIMULATE.flags() {
            let line = help
                .lines()
                .find(|l| l.split_whitespace().next() == Some(&format!("--{}", f.name)))
                .unwrap_or_else(|| panic!("--{} missing from:\n{help}", f.name));
            if let Lit(v) = f.default {
                assert!(line.ends_with(&format!("[{v}]")), "{line}");
            }
            if let Choice(names) = f.kind {
                assert!(line.contains(&names.join("|")), "{line}");
            }
        }
        assert!(help.contains("--eval-every <integer >= 1>"), "{help}");
        assert!(help.contains("--task <vision|speech>"), "{help}");
        assert!(THEORY.help().contains("--gap <float>"));
    }

    #[test]
    fn every_default_parses_under_its_rows_kind_and_range() {
        for command in [&SIMULATE, &GROUP, &COST, &THEORY] {
            let args = Args::parse(command, &[]).unwrap();
            for f in command.flags() {
                match f.default {
                    Lit(v) => assert!(f.kind.admits(v), "--{}: default {v}", f.name),
                    // The other flag exists, and its value fits this row.
                    SameAs(_) => assert!(args.opt::<String>(f.name).unwrap().is_some()),
                    Absent if f.kind == Switch => assert!(!args.get::<bool>(f.name).unwrap()),
                    Absent => assert_eq!(args.opt::<String>(f.name).unwrap(), None),
                }
            }
            // No name is declared twice.
            let mut names: Vec<_> = command.flags().map(|f| f.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), command.flags().count(), "{}", command.name);
        }
    }
}
