//! The four `gfl` subcommands. Each parses its argv against its table in
//! [`crate::args`] into a config — all of it, before anything is built —
//! and only then builds, drives and reports.

use std::io::Write;
use std::str::FromStr;

use gfl_baselines::{FedNova, FedProx, Scaffold};
use gfl_core::checkpoint::Checkpoint;
use gfl_core::cov::{group_cov, mean_group_cov};
use gfl_core::driver::{Clock, Membership, RunPlan, RunState};
use gfl_core::engine::{form_groups_per_edge, GroupFelConfig, RobustAggRule, Trainer};
use gfl_core::grouping::GroupingAlgorithm;
use gfl_core::history::{Event, RoundRecord};
use gfl_core::local::{FedAvg, LocalUpdate};
use gfl_core::membership::{summarize_regroups, RegroupPolicy};
use gfl_core::sampling::SamplingStrategy;
use gfl_core::semi_async::AsyncConfig;
use gfl_core::theory::{self, TheoremInputs};
use gfl_data::{
    ClientPartition, Dataset, FedData, PartitionSpec, SyntheticSpec, VirtualPopulation, VirtualSpec,
};
use gfl_faults::{summarize, summarize_attacks, AdversaryPlan, ChurnPlan, FaultPlan, FaultPolicy};
use gfl_nn::sgd::LrSchedule;
use gfl_sim::{CostModel, GroupOpKind, Task, Topology};

use crate::args::{self, Args, Command, Method, ParseError};

/// Command-level errors.
#[derive(Debug)]
pub enum CommandError {
    Parse(ParseError),
    Invalid(String),
    Io(std::io::Error),
    /// Not an error: `--help` was requested; payload is the help text.
    Help(String),
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::Parse(e) => write!(f, "{e}"),
            CommandError::Invalid(m) => write!(f, "{m}"),
            CommandError::Io(e) => write!(f, "io: {e}"),
            CommandError::Help(_) => write!(f, "help requested"),
        }
    }
}

impl From<ParseError> for CommandError {
    fn from(e: ParseError) -> Self {
        CommandError::Parse(e)
    }
}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError::Io(e)
    }
}

type CmdResult = Result<(), CommandError>;

/// A typed error of the layer a flag feeds, as this layer's.
fn invalid(e: impl std::fmt::Display) -> CommandError {
    CommandError::Invalid(e.to_string())
}

/// Parses `argv` against `command`'s table; `--help` short-circuits with
/// the text rendered from it.
fn parse(command: &'static Command, argv: &[String]) -> Result<Args, CommandError> {
    let args = Args::parse(command, argv)?;
    match args.wants_help() {
        Some(text) => Err(CommandError::Help(text)),
        None => Ok(args),
    }
}

/// The DATA rows `simulate` and `group` share: where the samples come from
/// and how they are spread over clients and edges.
struct DataConfig {
    task: Task,
    path: Option<String>,
    samples: usize,
    alpha: f64,
    clients: usize,
    edges: usize,
    seed: u64,
}

impl DataConfig {
    fn from_args(a: &Args) -> Result<Self, ParseError> {
        Ok(Self {
            task: a.choice("task", &args::TASKS)?.1,
            path: a.opt("data")?,
            samples: a.get("samples")?,
            alpha: a.get("alpha")?,
            clients: a.get("clients")?,
            edges: a.get("edges")?,
            seed: a.get("seed")?,
        })
    }

    fn synthetic(&self) -> SyntheticSpec {
        match self.task {
            Task::Vision => SyntheticSpec::vision_like(),
            Task::Speech => SyntheticSpec::speech_like(),
        }
    }

    /// The pooled dataset: the `--data` CSV, else the task's synthetic one.
    fn pooled(&self) -> Result<Dataset, CommandError> {
        match &self.path {
            Some(path) => gfl_data::load_dataset(path)
                .map_err(|e| CommandError::Invalid(format!("--data {path}: {e}"))),
            None => Ok(self.synthetic().generate(self.samples, self.seed)),
        }
    }

    /// The pooled dataset's `split_holdout(6)` halves; the synthetic one is
    /// drawn straight into them.
    fn holdout(&self) -> Result<(Dataset, Dataset), CommandError> {
        match &self.path {
            Some(_) => Ok(self.pooled()?.split_holdout(6)),
            None => Ok(self
                .synthetic()
                .generate_holdout(self.samples, 6, self.seed)),
        }
    }

    /// `train` spread over the clients by Dirichlet(`--alpha`).
    fn partition(&self, train: Dataset) -> FedData {
        let spec = PartitionSpec {
            num_clients: self.clients,
            alpha: self.alpha,
            min_size: 20,
            max_size: 200,
            seed: self.seed,
        };
        let partition = ClientPartition::dirichlet(&train, &spec);
        FedData::Materialized { train, partition }
    }

    /// The same spread with client shards derived on demand (O(sampled)
    /// memory), and a holdout set of the proportion `split_holdout(6)`
    /// gives the materialized path, generated independently of any shard.
    fn virtual_population(&self) -> (FedData, Dataset) {
        let population = VirtualPopulation::new(VirtualSpec {
            data: self.synthetic(),
            num_clients: self.clients,
            alpha: self.alpha,
            min_size: 20,
            max_size: 200,
            seed: self.seed,
        });
        let test = population.test_set((self.samples / 6).max(1));
        (FedData::Virtual(population), test)
    }
}

fn grouping(a: &Args) -> Result<Box<dyn GroupingAlgorithm>, ParseError> {
    let make = a.choice("grouping", &args::GROUPINGS)?.1;
    Ok(make(
        a.get("min-gs")?,
        a.get("max-cov")?,
        a.get("group-size")?,
    ))
}

/// Sets every plan field whose override flag was given; whether any was.
/// A plan runs exactly when its preset is not `none` or this is true.
fn apply_overrides<T: FromStr>(a: &Args, rows: &mut [(&str, &mut T)]) -> Result<bool, ParseError> {
    let mut any = false;
    for (flag, field) in rows {
        if let Some(v) = a.opt(flag)? {
            **field = v;
            any = true;
        }
    }
    Ok(any)
}

/// `--faults` and its overrides; `None` is a clean run at zero cost. The
/// policy flags (`--quorum`, …) tune a faulted run but do not start one.
fn faults(a: &Args) -> Result<Option<(FaultPlan, FaultPolicy)>, CommandError> {
    let &(preset, make) = a.choice("faults", &args::FAULT_PLANS)?;
    let mut plan = make(a.get("fault-seed")?);
    plan.seed = a.get("fault-seed")?;
    let mut on = apply_overrides(
        a,
        &mut [
            ("straggler-frac", &mut plan.straggler_fraction),
            ("straggler-factor", &mut plan.straggler_factor),
            ("crash-prob", &mut plan.crash_prob),
            ("corrupt-prob", &mut plan.corrupt_prob),
            ("upload-fail", &mut plan.upload_fail_prob),
        ],
    )?;
    if let Some(window) = a.opt("outage")? {
        plan.edge_outages.push(window);
        on = true;
    }
    plan.validate().map_err(invalid)?;
    let policy = FaultPolicy {
        deadline_factor: a.get("deadline-factor")?,
        quorum_fraction: a.get("quorum")?,
        max_retries: a.get("max-retries")?,
        backoff_base_s: a.get("backoff-base")?,
        max_backoff_s: a.get("max-backoff")?,
        ..FaultPolicy::default()
    };
    policy.validate().map_err(invalid)?;
    Ok((on || preset != "none").then_some((plan, policy)))
}

/// `--churn` and its overrides; `None` is static membership.
fn churn(a: &Args) -> Result<Option<(ChurnPlan, RegroupPolicy)>, CommandError> {
    let &(preset, make) = a.choice("churn", &args::CHURN_PLANS)?;
    let mut plan = make(a.get("churn-seed")?);
    plan.seed = a.get("churn-seed")?;
    plan.horizon = a.get("churn-horizon")?;
    let on = apply_overrides(
        a,
        &mut [
            ("depart-frac", &mut plan.departure_fraction),
            ("arrive-frac", &mut plan.arrival_fraction),
            ("flap-prob", &mut plan.flap_prob),
        ],
    )?;
    plan.validate().map_err(invalid)?;
    let policy = RegroupPolicy {
        enabled: a.choice("regroup-policy", &args::REGROUP_POLICIES)?.1,
        size_floor: a.get("size-floor")?,
        cov_drift: a.get("cov-drift")?,
        cooldown: a.get("regroup-cooldown")?,
        full_reform_every: a.opt("reform-every")?,
        ..RegroupPolicy::default()
    };
    Ok((on || preset != "none").then_some((plan, policy)))
}

/// `--adversary` and its overrides; `None` is a clean run, bit-identical
/// to no plan. The plan's own rules are checked by [`SimulateConfig`].
fn adversary(a: &Args) -> Result<Option<AdversaryPlan>, ParseError> {
    let &(preset, make) = a.choice("adversary", &args::ADVERSARIES)?;
    let mut plan = make(a.get("adversary-seed")?);
    plan.seed = a.get("adversary-seed")?;
    let fractions = apply_overrides(
        a,
        &mut [
            ("backdoor-frac", &mut plan.backdoor_fraction),
            ("flip-frac", &mut plan.label_flip_fraction),
            ("poison-frac", &mut plan.model_poison_fraction),
            ("poison-rate", &mut plan.poison_rate),
            ("attack-scale", &mut plan.scale_factor),
            ("backdoor-boost", &mut plan.backdoor_boost),
        ],
    )?;
    let labels = apply_overrides(
        a,
        &mut [
            ("trigger-width", &mut plan.trigger_width),
            ("trigger-target", &mut plan.trigger_target),
            ("flip-from", &mut plan.flip_from),
            ("flip-to", &mut plan.flip_to),
        ],
    )?;
    Ok((fractions || labels || preset != "none").then_some(plan))
}

/// `--runtime` and the semi-async knobs; `None` is the lockstep engine.
fn runtime(a: &Args) -> Result<Option<AsyncConfig>, ParseError> {
    let staleness = a.choice("staleness-policy", &args::STALENESS)?.1;
    let config = AsyncConfig {
        staleness: staleness(a.get("staleness-decay")?),
        cloud_deadline_factor: a.get("cloud-deadline")?,
    };
    Ok(a.choice("runtime", &args::RUNTIMES)?.1.then_some(config))
}

/// Everything `gfl simulate` was asked to do.
pub struct SimulateConfig {
    data: DataConfig,
    is_virtual: bool,
    grouping: Box<dyn GroupingAlgorithm>,
    sampling: SamplingStrategy,
    method: &'static (&'static str, Method),
    mu: f32,
    engine: GroupFelConfig,
    threads: usize,
    runtime: Option<AsyncConfig>,
    faults: Option<(FaultPlan, FaultPolicy)>,
    churn: Option<(ChurnPlan, RegroupPolicy)>,
    adversary: Option<AdversaryPlan>,
    robust: RobustAggRule,
    csv: Option<String>,
    async_csv: Option<String>,
    checkpoint: Option<String>,
    trace_out: Option<String>,
    trace_buffer: usize,
    metrics: bool,
}

impl SimulateConfig {
    /// Reads every flag and checks every rule that needs no data — each
    /// value against its row, each plan against its type, each pair of
    /// flags that cannot go together — so a rejected command line has run
    /// nothing and printed nothing.
    pub fn from_args(a: &Args) -> Result<Self, CommandError> {
        let data = DataConfig::from_args(a)?;
        let engine = GroupFelConfig {
            global_rounds: a.get("rounds")?,
            group_rounds: a.get("k")?,
            local_rounds: a.get("e")?,
            sampled_groups: a.get("sample")?,
            batch_size: a.get("batch")?,
            lr: LrSchedule::Constant(a.get("lr")?),
            weighting: a.choice("weighting", &args::WEIGHTINGS)?.1,
            eval_every: a.get("eval-every")?,
            seed: data.seed,
            task: data.task,
            cost_budget: a.opt("budget")?,
            secure_aggregation: a.get("secure")?,
            dropout_prob: a.get("dropout")?,
        };
        let robust = a.choice("robust-agg", &args::ROBUST_RULES)?.1;
        let cfg = Self {
            is_virtual: a.get("virtual")?,
            grouping: grouping(a)?,
            sampling: a.choice("sampling", &args::SAMPLINGS)?.1,
            method: a.choice("method", &args::METHODS)?,
            mu: a.get("mu")?,
            threads: a.get("threads")?,
            runtime: runtime(a)?,
            faults: faults(a)?,
            churn: churn(a)?,
            adversary: adversary(a)?,
            robust: robust(a.get("robust-f")?, a.get("robust-select")?),
            csv: a.opt("csv")?,
            async_csv: a.opt("async-csv")?,
            checkpoint: a.opt("checkpoint")?,
            trace_out: a.opt("trace-out")?,
            trace_buffer: a.get("trace-buffer")?,
            metrics: a.get("metrics")?,
            data,
            engine,
        };
        if cfg.is_virtual && cfg.data.path.is_some() {
            return Err(CommandError::Invalid(
                "--virtual derives client shards on demand from (seed, id); \
                 a --data CSV cannot back a virtual population"
                    .into(),
            ));
        }
        if cfg.is_virtual && cfg.method.1 == Method::Scaffold {
            return Err(CommandError::Invalid(
                "--method scaffold cannot be combined with --virtual: SCAFFOLD \
                 keeps O(clients × params) control-variate state, which defeats \
                 the O(sampled) memory contract of virtual populations"
                    .into(),
            ));
        }
        if cfg.async_csv.is_some() && cfg.runtime.is_none() {
            return Err(CommandError::Invalid(
                "--async-csv requires --runtime semi-async".into(),
            ));
        }
        if let Err(e) = cfg.robust.check_secure(cfg.engine.secure_aggregation) {
            return Err(CommandError::Invalid(format!(
                "--robust-agg with --secure: {e}"
            )));
        }
        // A synthetic preset's shape is known without generating it; a
        // CSV's only once it is loaded (`simulate` checks again then).
        if let Some(plan) = &cfg.adversary {
            match &cfg.data.path {
                Some(_) => plan.validate(),
                None => {
                    let spec = cfg.data.synthetic();
                    plan.validate_for(spec.num_classes, spec.feature_dim)
                }
            }
            .map_err(invalid)?;
        }
        Ok(cfg)
    }
}

/// `gfl simulate`: config, build, drive, report.
pub fn simulate(argv: &[String], out: &mut dyn Write) -> CmdResult {
    let cfg = SimulateConfig::from_args(&parse(&args::SIMULATE, argv)?)?;
    // --- parallelism: flag > GFL_THREADS env > autodetect ---
    if cfg.threads > 0 {
        gfl_parallel::set_default_parallelism(cfg.threads);
    }
    let threads = gfl_parallel::default_parallelism();

    // --- build: data, groups, trainer ---
    let (fed, test) = if cfg.is_virtual {
        cfg.data.virtual_population()
    } else {
        let (train, test) = cfg.data.holdout()?;
        (cfg.data.partition(train), test)
    };
    if let Some(plan) = &cfg.adversary {
        plan.validate_for(fed.num_classes(), fed.feature_dim())
            .map_err(invalid)?;
    }
    let sizes = (0..fed.num_clients()).map(|c| fed.client_size(c)).collect();
    let topology = Topology::even_split(cfg.data.edges, sizes);
    let labels = fed.label_matrix();
    let groups = form_groups_per_edge(cfg.grouping.as_ref(), &topology, labels, cfg.data.seed);
    writeln!(
        out,
        "formed {} groups (mean CoV {:.3})",
        groups.len(),
        mean_group_cov(labels, &groups)
    )?;
    let model = model_for(&test, cfg.data.task);
    let param_count = model.param_len();
    let mut trainer = Trainer::try_new(cfg.engine.clone(), model, fed, test).map_err(invalid)?;
    // Observation is one-way: attaching a collector never changes results
    // (asserted by crates/core/tests/determinism.rs). With --trace-out the
    // collector streams spans to the file at every round barrier, keeping
    // buffered-span memory bounded by --trace-buffer; --metrics alone only
    // counts them.
    let observer = match &cfg.trace_out {
        Some(path) => Some(
            gfl_obs::TraceCollector::streaming_to(
                std::path::Path::new(path),
                threads,
                gfl_obs::StreamConfig {
                    span_buffer_cap: cfg.trace_buffer,
                },
            )
            .map_err(|e| CommandError::Invalid(format!("cannot open trace file: {e}")))?,
        ),
        None => cfg.metrics.then(gfl_obs::TraceCollector::new),
    };
    if let Some(obs) = &observer {
        trainer = trainer.with_observer(std::sync::Arc::clone(obs));
    }
    if let Some((plan, policy)) = cfg.faults.clone() {
        trainer = trainer.with_faults(plan, policy, &topology);
    }
    if let Some((plan, policy)) = cfg.churn.clone() {
        trainer = trainer.with_churn(plan, policy);
    }
    if let Some(plan) = cfg.adversary.clone() {
        trainer = trainer.with_adversary(plan);
    }
    trainer = trainer.with_robust_agg(cfg.robust);
    let &(method_name, method) = cfg.method;
    writeln!(
        out,
        "training {method_name} on {} clients / {} edges ({param_count} params, {threads} threads)",
        cfg.data.clients, cfg.data.edges
    )?;

    // --- drive ---
    let probs;
    let plan = RunPlan {
        clock: cfg.runtime.map_or(Clock::Lockstep, Clock::EventDriven),
        membership: if cfg.churn.is_some() {
            Membership::SelfHealing {
                algo: cfg.grouping.as_ref(),
                topology: &topology,
                sampling: cfg.sampling,
            }
        } else {
            probs = trainer.sampling_probs(&groups, cfg.sampling);
            Membership::Static {
                groups: &groups,
                probs: &probs,
            }
        },
    };
    let strategy: Box<dyn LocalUpdate> = match method {
        Method::FedAvg => Box::new(FedAvg),
        Method::FedProx => Box::new(FedProx { mu: cfg.mu }),
        Method::Scaffold => Box::new(Scaffold::new(param_count, topology.num_clients())),
        Method::FedNova => {
            let sizes = topology.all_samples();
            let s = FedNova::from_sizes(sizes, cfg.engine.local_rounds, cfg.engine.batch_size);
            Box::new(s)
        }
    };
    let state = trainer
        .run_plan(strategy.as_ref(), &plan)
        .map_err(|e| CommandError::Invalid(format!("regrouping failed: {e}")))?;

    // --- report ---
    write_report(out, &cfg, &state)?;
    if let Some(path) = &cfg.csv {
        std::fs::write(path, state.history.to_csv())?;
        writeln!(out, "wrote {path}")?;
    }
    if let (Some(path), Some(sched)) = (&cfg.async_csv, &state.scheduler) {
        std::fs::write(path, sched.to_csv())?;
        writeln!(out, "wrote {path}")?;
    }
    if let Some(path) = &cfg.checkpoint {
        let cp = Checkpoint::from_state(&state, cfg.engine.clone());
        cp.save(path).map_err(invalid)?;
        writeln!(out, "wrote {path}")?;
    }
    if let Some(obs) = observer {
        // A streaming collector has been writing the file all along;
        // finish() appends the summary line and flushes it.
        let trace = obs.finish(threads);
        if cfg.metrics {
            write_metrics_summary(out, &trace)?;
        }
        if let Some(path) = &cfg.trace_out {
            writeln!(out, "wrote {path}")?;
        }
    }
    Ok(())
}

/// The trajectory table and one summary block per subsystem that ran.
fn write_report(out: &mut dyn Write, cfg: &SimulateConfig, state: &RunState) -> CmdResult {
    let history = &state.history;
    // The table's header marks the end of the rounds to whoever reads
    // stdout as it arrives, so it goes out at once. The rest — about 30 000
    // lines for a churned run at scale — goes through one buffer, not one
    // write per line.
    writeln!(out, "\n round       cost  accuracy    loss")?;
    out.flush()?;
    let mut out = std::io::BufWriter::new(out);
    for r in history.records() {
        writeln!(
            out,
            "{:6} {:10.0} {:9.4} {:7.4}",
            r.round, r.cost, r.accuracy, r.loss
        )?;
    }
    writeln!(out, "\nbest accuracy: {:.4}", history.best_accuracy())?;
    if let Some(sched) = &state.scheduler {
        let sum = |f: fn(&gfl_core::semi_async::AsyncRoundRecord) -> usize| -> usize {
            sched.rounds.iter().map(f).sum()
        };
        writeln!(
            out,
            "semi-async: emulated clock {:.1} s, {} straggler cuts, \
             {} stale admitted, {} stale dropped, {} busy skips",
            sched.clock_s,
            sched.total_cut_reports(),
            sum(|r| r.stale_admitted),
            sum(|r| r.stale_dropped),
            sum(|r| r.busy_skipped),
        )?;
    }
    let events = history.events();
    if cfg.faults.is_some() {
        let summary = summarize(events.iter().filter_map(Event::fault));
        writeln!(out, "faults: {summary}")?;
    }
    if cfg.adversary.is_some() {
        let summary = summarize_attacks(events.iter().filter_map(Event::attack));
        writeln!(out, "attacks: {summary}")?;
        writeln!(
            out,
            "defense efficacy: {} injected / {} filtered ({} flame, {} non-finite)",
            summary.injected(),
            summary.filtered(),
            summary.filtered_flame,
            summary.filtered_non_finite
        )?;
        let measured = |r: &&RoundRecord| r.trigger_asr.is_some() || r.flip_asr.is_some();
        let mut asr = history.records().iter().filter(measured).peekable();
        if asr.peek().is_some() {
            let cell = |v: Option<f32>| v.map_or("      -".into(), |x| format!("{x:7.4}"));
            writeln!(out, "\n round  trigger-asr  flip-asr")?;
            for r in asr {
                writeln!(
                    out,
                    "{:6}  {:>10}  {:>8}",
                    r.round,
                    cell(r.trigger_asr),
                    cell(r.flip_asr)
                )?;
            }
        }
    }
    if cfg.churn.is_some() {
        let summary = summarize_regroups(events.iter().filter_map(Event::regroup));
        writeln!(out, "regroups: {summary}")?;
        let m = state
            .membership
            .as_ref()
            .expect("self-healing runs carry their membership");
        writeln!(
            out,
            "final partition: {} groups over {} active clients",
            m.groups().len(),
            m.active_members()
        )?;
        let mut transitions = events.iter().filter_map(Event::regroup).peekable();
        if transitions.peek().is_some() {
            writeln!(out, "\n round  transition")?;
            for e in transitions {
                writeln!(out, "{:6}  {e}", e.round())?;
            }
        }
    }
    out.flush()?;
    Ok(())
}

/// Renders the `--metrics` end-of-run summary table from a finished trace.
fn write_metrics_summary(out: &mut dyn Write, trace: &gfl_obs::Trace) -> std::io::Result<()> {
    let summary = trace
        .summary
        .as_ref()
        .expect("finished traces carry a summary");
    let secs = |ns: u64| ns as f64 / 1e9;
    writeln!(out, "\n=== run metrics ===")?;
    writeln!(out, "rounds traced:   {}", summary.rounds)?;
    writeln!(out, "wall time:       {:.3} s", secs(summary.wall_ns))?;
    writeln!(out, "phase coverage:  {:.1}%", summary.coverage * 100.0)?;
    writeln!(out, "\nspan kind        count     total")?;
    for t in &summary.span_totals {
        writeln!(
            out,
            "{:<14} {:>7} {:>8.3} s",
            t.kind.label(),
            t.count,
            secs(t.total_ns)
        )?;
    }
    let metrics = &summary.metrics;
    if !metrics.counters.is_empty() {
        writeln!(out, "\ncounter                     value")?;
        for c in &metrics.counters {
            writeln!(out, "{:<24} {:>9}", c.name, c.value)?;
        }
    }
    if !metrics.gauges.is_empty() {
        writeln!(out, "\ngauge                       value")?;
        for g in &metrics.gauges {
            writeln!(out, "{:<24} {:>9.3}", g.name, g.value)?;
        }
    }
    if !metrics.histograms.is_empty() {
        writeln!(out, "\nhistogram              count      mean")?;
        for h in &metrics.histograms {
            let mean = if h.count > 0 {
                h.sum / h.count as f64
            } else {
                0.0
            };
            writeln!(out, "{:<20} {:>7} {:>7.3} ms", h.name, h.count, mean)?;
        }
    }
    Ok(())
}

/// What `gfl group` was asked for: the data, the algorithm, `--json`.
fn group_config(a: &Args) -> Result<(DataConfig, Box<dyn GroupingAlgorithm>, bool), ParseError> {
    Ok((DataConfig::from_args(a)?, grouping(a)?, a.get("json")?))
}

/// `gfl group`.
pub fn group(argv: &[String], out: &mut dyn Write) -> CmdResult {
    let (data, grouping, as_json) = group_config(&parse(&args::GROUP, argv)?)?;
    let fed = data.partition(data.pooled()?);
    let sizes = (0..fed.num_clients()).map(|c| fed.client_size(c)).collect();
    let topology = Topology::even_split(data.edges, sizes);
    let labels = fed.label_matrix();
    let groups = form_groups_per_edge(grouping.as_ref(), &topology, labels, data.seed);
    let samples = |g: &[usize]| g.iter().map(|&c| fed.client_size(c)).sum::<usize>();
    if as_json {
        let payload: Vec<serde_json::Value> = groups
            .iter()
            .map(|g| {
                serde_json::json!({
                    "members": g,
                    "cov": group_cov(labels, g),
                    "samples": samples(g),
                })
            })
            .collect();
        writeln!(out, "{}", serde_json::to_string_pretty(&payload).unwrap())?;
    } else {
        writeln!(out, "group  size  samples     cov")?;
        for (i, g) in groups.iter().enumerate() {
            writeln!(
                out,
                "{:5} {:5} {:8} {:7.3}",
                i,
                g.len(),
                samples(g),
                group_cov(labels, g)
            )?;
        }
        writeln!(
            out,
            "\n{} groups, mean CoV {:.3}",
            groups.len(),
            mean_group_cov(labels, &groups)
        )?;
    }
    Ok(())
}

/// What `gfl cost` was asked for: the task's table, up to `--max`.
fn cost_config(a: &Args) -> Result<(Task, usize), ParseError> {
    Ok((a.choice("task", &args::TASKS)?.1, a.get("max")?))
}

/// `gfl cost`.
pub fn cost(argv: &[String], out: &mut dyn Write) -> CmdResult {
    let (task, max) = cost_config(&parse(&args::COST, argv)?)?;
    let m = CostModel::for_task(task);
    writeln!(out, "  x  training  backdoor    secagg  scaffold_secagg")?;
    for x in (0..=max).step_by((max / 10).max(1)) {
        writeln!(
            out,
            "{:3} {:9.2} {:9.2} {:9.2} {:16.2}",
            x,
            m.training(x),
            m.group_op(GroupOpKind::BackdoorDetection, x),
            m.group_op(GroupOpKind::SecureAggregation, x),
            m.group_op(GroupOpKind::ScaffoldSecureAggregation, x),
        )?;
    }
    Ok(())
}

/// The Theorem 1 inputs `gfl theory` was given.
fn theory_inputs(a: &Args) -> Result<TheoremInputs, ParseError> {
    Ok(TheoremInputs {
        initial_gap: a.get("gap")?,
        eta: a.get("eta")?,
        t: a.get("t")?,
        k: a.get("k")?,
        e: a.get("e")?,
        l: a.get("l")?,
        sigma_sq: a.get("sigma2")?,
        zeta_sq: a.get("zeta2")?,
        zeta_g_sq: a.get("zetag2")?,
        gamma: a.get("gamma")?,
        big_gamma: a.get("big-gamma")?,
        gamma_p: a.get("gamma-p")?,
        sampled: a.get("sampled")?,
        group_size: a.get("group-size")?,
    })
}

/// `gfl theory`.
pub fn theory(argv: &[String], out: &mut dyn Write) -> CmdResult {
    let inputs = theory_inputs(&parse(&args::THEORY, argv)?)?;
    match theory::theorem1_bound(&inputs) {
        Some(bound) => {
            writeln!(out, "optimization term:  {:.6}", bound.optimization)?;
            writeln!(out, "sampling term:      {:.6}", bound.sampling)?;
            writeln!(out, "heterogeneity term: {:.6}", bound.heterogeneity)?;
            writeln!(out, "total bound:        {:.6}", bound.total())?;
        }
        None => {
            writeln!(
                out,
                "configuration violates the step-size conditions (Eq. 14/18): \
                 eta must satisfy eta <= 1/(2KE) and keep lambda_1 > 0"
            )?;
        }
    }
    Ok(())
}

fn model_for(train: &Dataset, task: Task) -> gfl_nn::Network {
    // Synthetic presets use the zoo models; CSV data gets an MLP sized to
    // its dimensions.
    match task {
        Task::Vision if train.feature_dim() == 64 && train.num_classes() == 10 => {
            gfl_nn::zoo::vision_model()
        }
        Task::Speech if train.feature_dim() == 40 && train.num_classes() == 35 => {
            gfl_nn::zoo::speech_model()
        }
        _ => gfl_nn::Mlp::new(vec![
            train.feature_dim(),
            (train.feature_dim() * 2).max(16),
            train.num_classes(),
        ])
        .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    type Cmd = fn(&[String], &mut dyn Write) -> CmdResult;

    fn run_cmd(f: Cmd, args: &str) -> (Result<(), CommandError>, String) {
        let mut buf = Vec::new();
        let r = f(&argv(args), &mut buf);
        (r, String::from_utf8(buf).unwrap())
    }

    /// Runs `simulate` on a command line it must refuse: with a typed
    /// error, and before anything ran — not a byte on `out`; through the
    /// entry point, exit 2 and one `error:` line.
    fn rejected(flags: &str) -> CommandError {
        let mut entry = Vec::new();
        let code = crate::run(&argv(&format!("simulate {flags}")), &mut entry);
        let entry = String::from_utf8(entry).unwrap();
        let one_error = entry.starts_with("error: ") && entry.lines().count() == 1;
        assert!(code == 2 && one_error, "{flags}: exit {code}, {entry}");
        let (r, out) = run_cmd(simulate, flags);
        assert_eq!(out, "", "{flags}: printed before it was refused");
        match r {
            Err(e @ (CommandError::Parse(_) | CommandError::Invalid(_))) => e,
            other => panic!("{flags} should be rejected, got {other:?}"),
        }
    }

    /// Each command's table and its config builder: parsing only, no run.
    type Build = fn(&Args) -> Result<(), CommandError>;
    const COMMANDS: [(&Command, Build, Cmd); 4] = [
        (
            &args::SIMULATE,
            |a| SimulateConfig::from_args(a).map(drop),
            simulate,
        ),
        (&args::GROUP, |a| Ok(group_config(a).map(drop)?), group),
        (&args::COST, |a| Ok(cost_config(a).map(drop)?), cost),
        (&args::THEORY, |a| Ok(theory_inputs(a).map(drop)?), theory),
    ];

    fn build(command: &'static Command, config: Build, args: &[String]) -> CmdResult {
        config(&parse(command, args)?)
    }

    const SMALL: &str = "--clients 8 --edges 2 --samples 900 --min-gs 2";

    #[test]
    fn cost_prints_table() {
        let (r, out) = run_cmd(cost, "--task speech --max 20");
        r.unwrap();
        assert!(out.contains("scaffold_secagg"));
        assert!(out.lines().count() > 5);
    }

    #[test]
    fn cost_rejects_unknown_flag() {
        let (r, _) = run_cmd(cost, "--task vision --bogus 1");
        assert!(matches!(r.unwrap_err(), CommandError::Parse(_)));
    }

    #[test]
    fn theory_evaluates_reference() {
        let (r, out) = run_cmd(theory, "");
        r.unwrap();
        assert!(out.contains("total bound"));
    }

    #[test]
    fn theory_reports_invalid_eta() {
        let (r, out) = run_cmd(theory, "--eta 1.0");
        r.unwrap();
        assert!(out.contains("violates"));
    }

    #[test]
    fn group_reports_quality() {
        let (r, out) = run_cmd(
            group,
            "--clients 12 --edges 2 --samples 1200 --min-gs 2 --alpha 0.5 --seed 3",
        );
        r.unwrap();
        assert!(out.contains("mean CoV"));
    }

    #[test]
    fn every_grouping_the_parser_accepts_is_in_both_help_texts() {
        // True by construction, and for every choice list: the parser, the
        // `(a|b|c)` of its error and the help line read the one list. What
        // is left to check is that every name the list accepts really runs.
        let tiny = "--clients 8 --edges 2 --samples 800 --group-size 3";
        let session = format!("{tiny} --rounds 1 --k 1 --e 1 --sample 2 --eval-every 1");
        for (command, _, run) in COMMANDS {
            let base = match command.name {
                "gfl simulate" => session.as_str(),
                "gfl group" => tiny,
                _ => "",
            };
            let help = command.help();
            for f in command.flags() {
                let args::Kind::Choice(names) = f.kind else {
                    continue;
                };
                assert!(help.contains(&format!("--{} <{}>", f.name, names.join("|"))));
                for name in names {
                    let line = format!("{base} --{} {name}", f.name);
                    let (r, out) = run_cmd(run, &line);
                    r.unwrap_or_else(|e| panic!("{} {line}: {e}\n{out}", command.name));
                }
            }
        }
    }

    #[test]
    fn group_emits_json() {
        let (r, out) = run_cmd(
            group,
            "--clients 8 --edges 2 --samples 800 --min-gs 2 --json",
        );
        r.unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(parsed.as_array().unwrap().len() >= 2);
    }

    #[test]
    fn simulate_tiny_session_runs() {
        let (r, out) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
             --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1",
        );
        r.unwrap();
        assert!(out.contains("best accuracy"), "{out}");
    }

    #[test]
    fn simulate_faulted_session_prints_summary() {
        let (r, out) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --rounds 3 --k 2 --e 1 \
             --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 \
             --faults moderate --fault-seed 9 --crash-prob 0.3",
        );
        r.unwrap();
        assert!(out.contains("best accuracy"), "{out}");
        assert!(out.contains("faults:"), "{out}");
    }

    #[test]
    fn simulate_rejects_bad_fault_flags() {
        for flags in [
            "--faults typhoon",
            "--crash-prob 1.5",
            "--straggler-frac 0.2 --straggler-factor 0.5",
            "--outage 0-1-2",
        ] {
            rejected(&format!("{SMALL} {flags}"));
        }
    }

    #[test]
    fn simulate_churned_session_prints_regroup_summary() {
        let (r, out) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --rounds 4 --k 1 --e 1 \
             --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 \
             --churn moderate --churn-seed 11 --depart-frac 0.5 --arrive-frac 0.3",
        );
        r.unwrap();
        assert!(out.contains("best accuracy"), "{out}");
        assert!(out.contains("regroups:"), "{out}");
        assert!(out.contains("final partition:"), "{out}");
    }

    #[test]
    fn simulate_frozen_policy_accepted() {
        let (r, out) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --rounds 3 --k 1 --e 1 \
             --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 \
             --churn moderate --regroup-policy frozen",
        );
        r.unwrap();
        assert!(out.contains("regroups:"), "{out}");
    }

    #[test]
    fn simulate_robust_agg_runs() {
        let (r, out) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
             --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 \
             --robust-agg median",
        );
        r.unwrap();
        assert!(out.contains("best accuracy"), "{out}");
    }

    #[test]
    fn simulate_rejects_robust_agg_with_secure() {
        let (r, _) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --min-gs 2 \
             --robust-agg krum --secure",
        );
        assert!(matches!(r.unwrap_err(), CommandError::Invalid(_)));
    }

    #[test]
    fn simulate_rejects_bad_churn_flags() {
        for flags in [
            "--churn hurricane",
            "--churn moderate --depart-frac 1.5",
            "--churn moderate --regroup-policy maybe",
            "--churn moderate --churn-horizon 0",
            "--churn moderate --reform-every 0",
            "--robust-agg sha256",
        ] {
            rejected(&format!("{SMALL} {flags}"));
        }
    }

    #[test]
    fn simulate_adversary_session_prints_attack_summary_and_asr() {
        let (r, out) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --rounds 3 --k 2 --e 1 \
             --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 \
             --adversary moderate --adversary-seed 7 --backdoor-frac 0.3 \
             --flip-frac 0.2 --poison-frac 0.2",
        );
        r.unwrap();
        assert!(out.contains("best accuracy"), "{out}");
        assert!(out.contains("attacks:"), "{out}");
        assert!(out.contains("defense efficacy:"), "{out}");
        assert!(out.contains("trigger-asr"), "{out}");
    }

    #[test]
    fn simulate_adversary_with_flame_defense_runs() {
        let (r, out) = run_cmd(
            simulate,
            "--clients 12 --edges 2 --samples 1400 --rounds 3 --k 2 --e 1 \
             --sample 2 --min-gs 4 --max-cov 10.0 --alpha 0.5 --seed 3 \
             --eval-every 1 --adversary backdoor --backdoor-frac 0.3 \
             --poison-frac 0.2 --attack-scale 5.0 --robust-agg flame",
        );
        r.unwrap();
        assert!(out.contains("defense efficacy:"), "{out}");
    }

    #[test]
    fn simulate_rejects_bad_adversary_flags() {
        for flags in [
            "--adversary ninja",
            "--adversary moderate --backdoor-frac 1.5",
            "--adversary moderate --backdoor-frac 0.6 --flip-frac 0.6",
            "--adversary moderate --flip-from 2 --flip-to 2",
            "--adversary backdoor --trigger-target 99",
            "--adversary backdoor --trigger-width 0",
            "--robust-agg flame --secure",
        ] {
            rejected(&format!("{SMALL} {flags}"));
        }
    }

    #[test]
    fn simulate_semi_async_session_prints_clock_summary() {
        let (r, out) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --rounds 3 --k 2 --e 1 \
             --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 \
             --runtime semi-async --staleness-policy weighted --cloud-deadline 1.5 \
             --faults moderate --straggler-frac 0.4 --straggler-factor 8 \
             --quorum 0.6 --deadline-factor 1.5",
        );
        r.unwrap();
        assert!(out.contains("best accuracy"), "{out}");
        assert!(out.contains("semi-async: emulated clock"), "{out}");
    }

    #[test]
    fn simulate_semi_async_degenerate_limit_matches_sync_output() {
        // With no faults and default knobs, the semi-async engine must
        // print the exact same trajectory as the lockstep one.
        let base = "--clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
             --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1";
        let (r1, out1) = run_cmd(simulate, base);
        r1.unwrap();
        let (r2, out2) = run_cmd(simulate, &format!("{base} --runtime semi-async"));
        r2.unwrap();
        let table = |s: &str| {
            s.lines()
                .skip_while(|l| !l.contains("round"))
                .take_while(|l| !l.starts_with("semi-async:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table(&out1), table(&out2));
        assert!(out2.contains("semi-async: emulated clock"), "{out2}");
    }

    #[test]
    fn simulate_semi_async_writes_report_csv() {
        let path = std::env::temp_dir().join(format!("gfl_async_{}.csv", std::process::id()));
        let (r, _) = run_cmd(
            simulate,
            &format!(
                "--clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
                 --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 \
                 --runtime semi-async --async-csv {}",
                path.display()
            ),
        );
        r.unwrap();
        let csv = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(csv.starts_with("round,"), "{csv}");
        assert_eq!(csv.lines().count(), 3, "{csv}");
    }

    #[test]
    fn simulate_semi_async_checkpoint_carries_scheduler_state() {
        // With and without churn: the self-healing cell used to drop it.
        for (i, churn) in ["", "--churn moderate --churn-seed 11"].iter().enumerate() {
            let path =
                std::env::temp_dir().join(format!("gfl_async_cp_{}_{i}.json", std::process::id()));
            let (r, _) = run_cmd(
                simulate,
                &format!(
                    "--clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
                     --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 \
                     --runtime semi-async {churn} --checkpoint {}",
                    path.display()
                ),
            );
            r.unwrap();
            let cp = Checkpoint::load(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(cp.membership.is_some(), !churn.is_empty());
            let sched = cp
                .scheduler
                .expect("semi-async checkpoint stores the scheduler");
            assert!(sched.clock_s > 0.0, "emulated clock must have advanced");
            assert_eq!(sched.rounds.len(), 2, "the checkpoint carries the report");
        }
    }

    #[test]
    fn simulate_semi_async_survives_every_client_departing() {
        // Every group dissolves by round 4; the event clock used to panic
        // sampling from none. The rest of the run is held rounds.
        let all_depart = "--clients 24 --edges 2 --samples 600 --rounds 10 --k 1 --e 1 \
             --sample 2 --runtime semi-async --churn moderate --depart-frac 1.0 \
             --arrive-frac 0 --flap-prob 0 --churn-horizon 5";
        let (r, out) = run_cmd(simulate, all_depart);
        r.unwrap();
        assert!(out.contains("final partition: 0 groups"), "{out}");
        // The fault summary (printed for faulted runs) counts them.
        let (r, out) = run_cmd(simulate, &format!("{all_depart} --faults moderate"));
        r.unwrap();
        let held = out
            .lines()
            .find(|l| l.starts_with("faults:"))
            .and_then(|l| l.rsplit(", ").next())
            .and_then(|cell| cell.strip_suffix(" rounds held"))
            .and_then(|n| n.parse::<usize>().ok());
        assert!(held.is_some_and(|n| n >= 5), "{out}");
    }

    #[test]
    fn simulate_rejects_bad_runtime_flags() {
        for flags in [
            "--runtime warp",
            "--runtime semi-async --staleness-policy soggy",
            "--runtime semi-async --staleness-decay -1",
            "--runtime semi-async --cloud-deadline -2",
            "--async-csv out.csv",
            "--faults moderate --quorum 1.5",
            "--faults moderate --deadline-factor -1",
            "--faults moderate --backoff-base -1",
            "--faults moderate --max-backoff 0",
        ] {
            rejected(&format!("{SMALL} {flags}"));
        }
    }

    #[test]
    fn simulate_semi_async_with_churn_heals_and_reports_clock() {
        // ROADMAP item: the previously-rejected --runtime semi-async +
        // --churn combination now runs through the self-healing scheduler
        // and reports both the emulated clock and the regroup log.
        let (r, out) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --rounds 4 --k 1 --e 1 \
             --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 \
             --runtime semi-async --churn moderate --churn-seed 11 \
             --depart-frac 0.5 --arrive-frac 0.3",
        );
        r.unwrap();
        assert!(out.contains("best accuracy"), "{out}");
        assert!(out.contains("semi-async: emulated clock"), "{out}");
        assert!(out.contains("regroups:"), "{out}");
        assert!(out.contains("final partition:"), "{out}");
    }

    #[test]
    fn simulate_virtual_session_runs() {
        let (r, out) = run_cmd(
            simulate,
            "--virtual --clients 24 --edges 2 --samples 900 --rounds 2 --k 1 \
             --e 1 --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1",
        );
        r.unwrap();
        assert!(out.contains("best accuracy"), "{out}");
        assert!(out.contains("24 clients"), "{out}");
    }

    #[test]
    fn simulate_virtual_composes_with_stream_grouping_and_runtime() {
        let (r, out) = run_cmd(
            simulate,
            "--virtual --clients 24 --edges 2 --rounds 2 --k 1 --e 1 \
             --sample 2 --group-size 4 --grouping stream --alpha 0.5 \
             --seed 3 --eval-every 1 --runtime semi-async",
        );
        r.unwrap();
        assert!(out.contains("best accuracy"), "{out}");
        assert!(out.contains("semi-async: emulated clock"), "{out}");
    }

    #[test]
    fn simulate_virtual_rejects_incompatible_flags() {
        for flags in [
            "--virtual --data somewhere.csv",
            "--virtual --method scaffold",
        ] {
            let (r, _) = run_cmd(
                simulate,
                &format!("--clients 8 --edges 2 --min-gs 2 {flags}"),
            );
            assert!(
                matches!(r, Err(CommandError::Invalid(_))),
                "{flags} should be rejected as invalid"
            );
        }
    }

    #[test]
    fn simulate_stream_grouping_runs_on_materialized_data() {
        let (r, out) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
             --sample 2 --group-size 3 --grouping stream --alpha 0.5 \
             --seed 3 --eval-every 1",
        );
        r.unwrap();
        assert!(out.contains("best accuracy"), "{out}");
    }

    #[test]
    fn simulate_threads_flag_echoed_and_bit_identical() {
        let args = "--clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
             --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 --threads";
        let (r1, out1) = run_cmd(simulate, &format!("{args} 1"));
        r1.unwrap();
        assert!(out1.contains("1 threads"), "{out1}");
        let (r2, out2) = run_cmd(simulate, &format!("{args} 4"));
        r2.unwrap();
        assert!(out2.contains("4 threads"), "{out2}");
        // Same trajectory regardless of the worker count.
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.contains("round"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&out1), tail(&out2));
    }

    #[test]
    fn simulate_traced_session_writes_valid_jsonl_and_metrics() {
        let path = std::env::temp_dir().join(format!("gfl_cli_trace_{}.jsonl", std::process::id()));
        let (r, out) = run_cmd(
            simulate,
            &format!(
                "--clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
                 --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 \
                 --metrics --trace-out {}",
                path.display()
            ),
        );
        r.unwrap();
        assert!(out.contains("=== run metrics ==="), "{out}");
        assert!(out.contains("rounds.total"), "{out}");
        let trace = gfl_obs::TraceReader::read(&path).expect("trace must parse");
        std::fs::remove_file(&path).ok();
        assert_eq!(trace.rounds.len(), 2);
        assert!(trace.summary.is_some());
    }

    #[test]
    fn semi_async_metrics_expose_the_async_family() {
        let (r, out) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
             --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 \
             --runtime semi-async --metrics",
        );
        r.unwrap();
        assert!(out.contains("async.clock_s"), "{out}");
        assert!(out.contains("async.stale."), "{out}");
    }

    #[test]
    fn adversary_metrics_expose_the_attacks_family() {
        let (r, out) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
             --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 \
             --adversary moderate --metrics",
        );
        r.unwrap();
        assert!(out.contains("attacks.injected"), "{out}");
    }

    #[test]
    fn robust_aggregation_metrics_expose_the_defense_family() {
        let (r, out) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
             --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1 \
             --adversary moderate --robust-agg flame --robust-f 1 --metrics",
        );
        r.unwrap();
        assert!(out.contains("defense.similarity_evals"), "{out}");
        assert!(out.contains("defense.norm_passes"), "{out}");
    }

    #[test]
    fn secure_metrics_expose_the_protocols_counts_at_any_thread_count() {
        let args = "--clients 12 --edges 2 --samples 900 --rounds 2 --k 2 --e 1 \
             --sample 2 --min-gs 4 --alpha 0.5 --seed 3 --eval-every 1 \
             --dropout 0.3 --metrics";
        let secagg_rows = |out: &str| -> Vec<String> {
            let rows = out.lines().filter(|l| l.starts_with("secagg."));
            rows.map(String::from).collect()
        };
        let (r, plain) = run_cmd(simulate, args);
        r.unwrap();
        assert_eq!(secagg_rows(&plain), Vec::<String>::new(), "{plain}");
        let (r1, out1) = run_cmd(simulate, &format!("{args} --secure --threads 1"));
        r1.unwrap();
        let (r2, out2) = run_cmd(simulate, &format!("{args} --secure --threads 2"));
        r2.unwrap();
        let rows = secagg_rows(&out1);
        assert_eq!(
            rows,
            secagg_rows(&out2),
            "counts moved with the thread count"
        );
        let value = |name: &str| -> u64 {
            let row = rows.iter().find(|r| r.starts_with(name));
            let row = row.unwrap_or_else(|| panic!("no {name} row in {out1}"));
            row.split_whitespace().last().unwrap().parse().unwrap()
        };
        // At most one session per (round, sampled group, group round); a
        // session of g ≥ 4 members with s ≥ 1 survivors expands
        // s(g−1) + (g−s)s ≥ g−1 masks between its parties.
        let sessions = value("secagg.sessions");
        assert!((1..=2 * 2 * 2).contains(&sessions), "{out1}");
        assert!(value("secagg.pair_masks") >= 3 * sessions, "{out1}");
    }

    #[test]
    fn simulate_zero_rounds_is_a_typed_error_not_a_panic() {
        let err = rejected(&format!("{SMALL} --rounds 0")).to_string();
        assert_eq!(err, "--rounds: '0' is not a valid integer >= 1");
    }

    #[test]
    fn simulate_zero_sample_or_batch_is_a_usage_error_not_a_silent_one() {
        // Both used to parse and run as 1.
        for flag in ["sample", "batch"] {
            let err = rejected(&format!("{SMALL} --{flag} 0")).to_string();
            assert_eq!(err, format!("--{flag}: '0' is not a valid integer >= 1"));
        }
    }

    #[test]
    fn simulate_unknown_method_errors() {
        let err = rejected(&format!("{SMALL} --method sgd")).to_string();
        assert_eq!(
            err,
            "unknown --method 'sgd' (fedavg|fedprox|scaffold|fednova)"
        );
    }

    #[test]
    fn nothing_runs_before_the_command_line_is_accepted() {
        for (flags, message) in [
            ("--typo 1", "unknown option --typo"),
            ("--method sgd", "unknown --method 'sgd'"),
            (
                "--sampling nope",
                "unknown --sampling 'nope' (random|rcov|srcov|esrcov)",
            ),
            ("--budget abc", "--budget: 'abc' is not a valid float"),
            ("--async-csv x.csv", "--async-csv requires --runtime"),
            (
                "--virtual --method scaffold",
                "--method scaffold cannot be combined with --virtual",
            ),
            ("--robust-agg krum --secure", "--robust-agg with --secure"),
        ] {
            let err = rejected(&format!("{SMALL} {flags}")).to_string();
            assert!(err.contains(message), "{flags}: {err}");
        }
        // Nor is a population built: this one would take over a second.
        rejected("--virtual --clients 300000 --grouping stream --typo 1");
    }

    #[test]
    fn hostile_values_are_typed_errors_for_every_numeric_row_of_every_command() {
        let hostile = ["0", "-1", "nan", "inf", "1e308", "18446744073709551616", ""];
        for (command, config, _) in COMMANDS {
            let numeric =
                |f: &&args::Flag| matches!(f.kind, args::Kind::Int(_) | args::Kind::Float(_));
            for f in command.flags().filter(numeric) {
                for value in hostile {
                    let line = [format!("--{}", f.name), value.to_string()];
                    match build(command, config, &line) {
                        // In range, or refused by the plan the flag feeds.
                        Ok(()) | Err(CommandError::Invalid(_)) => {}
                        Err(CommandError::Parse(ParseError::BadValue(key, v, _))) => {
                            assert_eq!((key.as_str(), v.as_str()), (f.name, value));
                        }
                        Err(other) => panic!("{} {line:?}: {other:?}", command.name),
                    }
                }
            }
        }
        // Exit 2, never exit 101: these tripped asserts deep in the data,
        // topology and grouping crates, or ran to completion.
        for (flags, range) in [
            ("--clients 0", "integer >= 1"),
            ("--virtual --clients 0", "integer >= 1"),
            ("--edges 0", "integer >= 1"),
            ("--min-gs 0", "integer >= 1"),
            ("--grouping rg --group-size 0", "integer >= 1"),
            ("--alpha 0", "finite float > 0"),
            ("--alpha -1", "finite float > 0"),
            ("--alpha nan", "finite float > 0"),
            ("--alpha inf", "finite float > 0"),
            ("--dropout 2", "probability in [0, 1]"),
            ("--dropout -1", "probability in [0, 1]"),
            ("--lr nan", "finite float > 0"),
            ("--lr inf", "finite float > 0"),
            ("--lr 0", "finite float > 0"),
            ("--lr -0.1", "finite float > 0"),
        ] {
            let err = rejected(flags);
            assert!(
                matches!(&err, CommandError::Parse(ParseError::BadValue(_, _, r)) if r.to_string() == range),
                "{flags}: {err}"
            );
        }
    }

    #[test]
    fn every_row_is_read_and_every_read_has_a_row() {
        for (command, config, _) in COMMANDS {
            // Every read has a row: a getter whose key has none panics.
            build(command, config, &[]).unwrap();
            // Every row is read: a value no kind admits is refused by name
            // (an unread row would swallow it).
            for f in command.flags() {
                if f.kind == args::Kind::Text("PATH") {
                    continue;
                }
                let line = [format!("--{}", f.name), "@".to_string()];
                let Err(CommandError::Parse(ParseError::BadValue(key, ..))) =
                    build(command, config, &line)
                else {
                    panic!("{} swallowed {line:?}", command.name);
                };
                assert_eq!(key, f.name);
            }
        }
        // Path rows admit anything; they are read into the config.
        let line = "--data d --csv c --async-csv a --checkpoint k --trace-out t \
                    --runtime semi-async";
        let cfg = SimulateConfig::from_args(&parse(&args::SIMULATE, &argv(line)).unwrap());
        let cfg = cfg.unwrap();
        let paths = [
            cfg.data.path,
            cfg.csv,
            cfg.async_csv,
            cfg.checkpoint,
            cfg.trace_out,
        ];
        assert_eq!(paths.map(Option::unwrap), ["d", "c", "a", "k", "t"]);
        let (data, ..) = group_config(&parse(&args::GROUP, &argv("--data d")).unwrap()).unwrap();
        assert_eq!(data.path.as_deref(), Some("d"));
    }

    #[test]
    fn table_defaults_are_the_librarys_and_only_plan_flags_start_a_plan() {
        let config = |line: &str| {
            SimulateConfig::from_args(&parse(&args::SIMULATE, &argv(line)).unwrap()).unwrap()
        };
        let cfg = config("--faults moderate --churn moderate --rounds 100 --seed 9");
        let (faults, churn) = (cfg.faults.unwrap(), cfg.churn.unwrap());
        assert_eq!(faults, (FaultPlan::moderate(9), FaultPolicy::default()));
        assert_eq!(churn, (ChurnPlan::moderate(9), RegroupPolicy::default()));
        let inputs = theory_inputs(&parse(&args::THEORY, &[]).unwrap()).unwrap();
        assert_eq!(
            serde_json::to_string(&inputs).unwrap(),
            serde_json::to_string(&TheoremInputs::reference()).unwrap()
        );
        // A plan runs when its preset or one of its overrides is given;
        // a policy flag tunes a run that something else started.
        let cfg = config("--quorum 0.5 --size-floor 3 --robust-f 2 --fault-seed 4");
        assert!(cfg.faults.is_none() && cfg.churn.is_none() && cfg.adversary.is_none());
        let cfg = config("--crash-prob 0.1 --flap-prob 0.1 --trigger-width 3 --seed 6");
        assert_eq!(cfg.faults.unwrap().0.seed, 6);
        assert_eq!(cfg.churn.unwrap().0.horizon, 40);
        assert_eq!(cfg.adversary.unwrap().trigger_width, 3);
    }

    #[test]
    fn every_pair_of_flags_composes_or_is_refused_by_a_rule_naming_both() {
        // One setting per switch (on), per name of a choice list, per path
        // row (a placeholder `from_args` never opens) and per numeric row
        // that has a default (at it).
        let defaults = parse(&args::SIMULATE, &[]).unwrap();
        let mut settings: Vec<(&str, String)> = Vec::new();
        for f in args::SIMULATE.flags() {
            match f.kind {
                args::Kind::Switch => settings.push((f.name, "true".into())),
                args::Kind::Choice(names) => {
                    settings.extend(names.iter().map(|n| (f.name, n.to_string())));
                }
                args::Kind::Text("PATH") => settings.push((f.name, "placeholder".into())),
                args::Kind::Text(_) => settings.push((f.name, "0:1:2".into())),
                args::Kind::Int(_) | args::Kind::Float(_) => {
                    let default = defaults.opt::<String>(f.name).unwrap();
                    settings.extend(default.map(|v| (f.name, v)));
                }
            }
        }
        assert!(settings.len() > 80, "{}", settings.len());
        // The four cross-flag rules: the two flags a command line sets
        // against each other, if it does.
        let clash = |line: &[&(&str, String)]| -> Option<[&str; 2]> {
            let has = |flag: &str| {
                line.iter()
                    .find(|(f, _)| *f == flag)
                    .map(|(_, v)| v.as_str())
            };
            if has("virtual").is_some() && has("data").is_some() {
                Some(["--virtual", "--data"])
            } else if has("virtual").is_some() && has("method") == Some("scaffold") {
                Some(["--virtual", "--method"])
            } else if has("async-csv").is_some() && has("runtime") != Some("semi-async") {
                Some(["--async-csv", "--runtime"])
            } else if has("secure").is_some() && has("robust-agg").is_some_and(|r| r != "mean") {
                Some(["--robust-agg", "--secure"])
            } else {
                None
            }
        };
        let mut refused = 0;
        for (i, x) in settings.iter().enumerate() {
            for y in settings[i + 1..].iter().filter(|y| y.0 != x.0) {
                let line = [x, y];
                let words = line.map(|(f, v)| [format!("--{f}"), v.clone()]).concat();
                let built = SimulateConfig::from_args(&parse(&args::SIMULATE, &words).unwrap());
                match (built, clash(&line)) {
                    (Ok(_), None) => {}
                    (Err(CommandError::Invalid(message)), Some(flags)) => {
                        assert!(flags.iter().all(|f| message.contains(f)), "{message}");
                        refused += 1;
                    }
                    (built, rule) => panic!("{words:?}: {:?}, rule {rule:?}", built.err()),
                }
            }
        }
        assert!(refused > 80, "{refused}");
    }

    #[test]
    fn every_command_line_in_the_docs_parses_against_its_table() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = vec![root.join("README.md")];
        for entry in std::fs::read_dir(root.join("docs")).unwrap() {
            files.push(entry.unwrap().path());
        }
        let mut checked = 0;
        for file in files
            .iter()
            .filter(|f| f.extension().is_some_and(|e| e == "md"))
        {
            let text = std::fs::read_to_string(file).unwrap();
            // Fenced blocks only; `\` continuations joined, `#` comments cut.
            let (mut fenced, mut pending) = (false, String::new());
            for raw in text.lines() {
                if raw.trim_start().starts_with("```") {
                    fenced = !fenced;
                    continue;
                }
                let code = raw.split_once(" #").map_or(raw, |(code, _)| code).trim();
                if let (true, Some(more)) = (fenced, code.strip_suffix('\\')) {
                    pending = format!("{pending}{more} ");
                    continue;
                }
                let full = std::mem::take(&mut pending) + code;
                let words = argv(&full);
                let table = COMMANDS.iter().find(|(c, ..)| {
                    fenced && words.len() > 1 && c.name == format!("{} {}", words[0], words[1])
                });
                if let Some((command, config, _)) = table {
                    match build(command, *config, &words[2..]) {
                        Ok(()) | Err(CommandError::Help(_)) => checked += 1,
                        Err(e) => panic!("{}: `{full}`: {e}", file.display()),
                    }
                }
            }
        }
        assert!(checked >= 15, "only {checked} command lines found");
    }

    #[test]
    fn help_short_circuits() {
        for (command, _, f) in COMMANDS {
            let (r, _) = run_cmd(f, "--help");
            assert!(matches!(r.unwrap_err(), CommandError::Help(_)));
            // Exit 0; every workload passes --eval-every, so it is listed.
            let line = format!("{} --help", command.name.strip_prefix("gfl ").unwrap());
            let mut out = Vec::new();
            assert_eq!(crate::run(&argv(&line), &mut out), 0, "{line}");
            let text = String::from_utf8(out).unwrap();
            assert!(!line.starts_with("simulate") || text.contains("--eval-every"));
        }
    }
}
