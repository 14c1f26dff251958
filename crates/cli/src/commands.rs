//! The four `gfl` subcommands.

use std::io::Write;

use gfl_baselines::{FedNova, FedProx, Scaffold};
use gfl_core::checkpoint::Checkpoint;
use gfl_core::cov::{group_cov, mean_group_cov};
use gfl_core::driver::{Clock, Membership, RunPlan, RunState};
use gfl_core::engine::{form_groups_per_edge, GroupFelConfig, RobustAggRule, Trainer};
use gfl_core::grouping::{
    CdgGrouping, CovGrouping, GroupingAlgorithm, KldGrouping, RandomGrouping, StreamGrouping,
    VarianceGrouping,
};
use gfl_core::local::{FedAvg, LocalUpdate};
use gfl_core::membership::RegroupPolicy;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_core::semi_async::{AsyncConfig, StalenessPolicy};
use gfl_core::theory::{self, TheoremInputs};
use gfl_data::{
    ClientPartition, Dataset, PartitionSpec, SyntheticSpec, VirtualPopulation, VirtualSpec,
};
use gfl_faults::{AdversaryPlan, ChurnPlan, FaultPlan, FaultPolicy, OutageWindow};
use gfl_nn::sgd::LrSchedule;
use gfl_sim::{CostModel, GroupOpKind, Task, Topology};

use crate::args::{Args, ParseError};

/// Command-level errors.
#[derive(Debug)]
pub enum CommandError {
    Parse(ParseError),
    Invalid(String),
    Io(std::io::Error),
    /// Not an error: `--help` was requested; payload is the help text.
    Help(&'static str),
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

const SIMULATE_HELP: &str = "\
gfl simulate — run a federated training session

DATA (synthetic unless --data is given):
  --data PATH        CSV dataset, label in last column (see gfl-data::csv)
  --task vision|speech   synthetic task preset          [vision]
  --samples N        synthetic dataset size             [12000]
  --alpha F          Dirichlet concentration            [0.1]
  --clients N        number of clients                  [90]
  --edges N          number of edge servers             [3]
  --virtual          derive client shards on demand from (seed, id):
                     memory stays O(sampled clients), so --clients scales
                     to 10^6 and beyond (docs/SCALE.md); excludes --data
                     and --method scaffold

GROUPING & SAMPLING:
  --grouping covg|rg|cdg|kldg|varg|stream               [covg]
  --min-gs N         minimum group size                 [5]
  --max-cov F        CoV target (covg)                  [0.5]
  --group-size N     target size (rg/cdg/kldg/stream)   [6]
  --sampling random|rcov|srcov|esrcov                   [esrcov]
  --weighting standard|unbiased|stabilized              [standard]

TRAINING:
  --method fedavg|fedprox|scaffold|fednova              [fedavg]
  --mu F             FedProx proximal strength          [0.1]
  --rounds T  --k K  --e E  --sample S  --batch B       [40 5 2 4 32]
  --lr F             learning rate                      [0.05]
  --budget F         cost budget (emulated seconds)     [unlimited]
  --seed N                                              [42]
  --secure           route aggregation through real SecAgg
  --dropout F        per-group-round client dropout     [0.0]
  --threads N        worker threads (0 = GFL_THREADS env, else all cores);
                     results are bit-identical for every N  [0]

RUNTIME (deterministic semi-async rounds; see docs/ASYNC.md):
  --runtime sync|semi-async   round engine               [sync]
                     composes with --churn: membership heals on the round
                     boundary and resets in-flight edge state
  --staleness-policy drop|weighted   late-upload policy  [drop]
  --staleness-decay F  weighted-staleness damping        [1.0]
  --cloud-deadline F   cloud close factor (0 = wait-all) [0]
  --async-csv PATH     write the per-round async report as CSV

FAULT INJECTION (deterministic; see docs/FAULTS.md):
  --faults none|moderate   preset fault plan            [none]
  --fault-seed N     fault decision seed                [--seed]
  --straggler-frac F --straggler-factor F               plan overrides
  --crash-prob F --corrupt-prob F --upload-fail F       plan overrides
  --outage E:FROM:UNTIL    edge E dark for rounds [FROM, UNTIL)
  --quorum F         min surviving-upload fraction      [0.25]
  --deadline-factor F      straggler cut threshold      [2.5]
  --max-retries N    edge->cloud upload retries         [3]
  --backoff-base F   upload retry backoff base (s)      [0.5]
  --max-backoff F    per-wait backoff cap (s)           [60]

CHURN & SELF-HEALING (deterministic; see docs/FAULTS.md):
  --churn none|moderate    preset churn plan            [none]
  --churn-seed N     churn decision seed                [--seed]
  --churn-horizon N  rounds over which churn unfolds    [--rounds]
  --depart-frac F --arrive-frac F --flap-prob F         plan overrides
  --regroup-policy heal|frozen   online regrouping      [heal]
  --size-floor N     dissolve groups smaller than this  [2]
  --cov-drift F      CoV drift tolerance before repair  [0.5]
  --regroup-cooldown N     rounds between group repairs [5]
  --reform-every N   periodic full re-formation cadence [off]

ADVERSARIES (deterministic campaigns; see docs/FAULTS.md):
  --adversary none|moderate|backdoor   preset plan      [none]
  --adversary-seed N attack decision seed               [--seed]
  --backdoor-frac F --flip-frac F --poison-frac F       compromised fractions
  --poison-rate F    per-row poison probability         plan override
  --trigger-width N --trigger-target L                  backdoor trigger
  --backdoor-boost F model-replacement amplification    [1.0]
  --flip-from L --flip-to L                             label-flip campaign
  --attack-scale F   model-poison amplification         plan override

ROBUST AGGREGATION (group-level, Line 14):
  --robust-agg mean|median|trimmed-mean|krum|multi-krum|flame [mean]
  --robust-f N       assumed Byzantine count / trim     [1]
  --robust-select N  multi-krum selection size          [2]

OUTPUT:
  --csv PATH         write the trajectory as CSV
  --checkpoint PATH  write a resumable snapshot at the end
  --trace-out PATH   stream a JSONL run trace (docs/OBSERVABILITY.md)
  --trace-buffer N   max spans buffered before spilling to the trace file
                     (default 65536; memory bound for --trace-out)
  --metrics          print the end-of-run metrics summary table";

/// `gfl simulate`.
pub fn simulate(argv: &[String], out: &mut dyn Write) -> CmdResult {
    let args = Args::parse(argv)?;
    if args.wants_help() {
        return Err(CommandError::Help(SIMULATE_HELP));
    }
    let seed: u64 = args.get("seed", 42, "int")?;
    let task = parse_task(&args.get_str("task", "vision"))?;

    // --- parallelism: flag > GFL_THREADS env > autodetect ---
    let threads: usize = args.get("threads", 0usize, "int")?;
    if threads > 0 {
        gfl_parallel::set_default_parallelism(threads);
    }
    let effective_threads = gfl_parallel::default_parallelism();

    // --- data ---
    let clients: usize = args.get("clients", 90, "int")?;
    let edges: usize = args.get("edges", 3, "int")?;
    let alpha: f64 = args.get("alpha", 0.1, "float")?;
    let is_virtual = args.get_flag("virtual")?;
    // Virtual populations derive client shards on demand (O(sampled)
    // memory); the materialized path pools one dataset and partitions it.
    let (population, train, partition, test) = if is_virtual {
        if args.get_opt("data").is_some() {
            return Err(CommandError::Invalid(
                "--virtual derives client shards on demand from (seed, id); \
                 a --data CSV cannot back a virtual population"
                    .into(),
            ));
        }
        let samples: usize = args.get("samples", 12_000, "int")?;
        let spec = VirtualSpec {
            data: match task {
                Task::Vision => SyntheticSpec::vision_like(),
                Task::Speech => SyntheticSpec::speech_like(),
            },
            num_clients: clients,
            alpha,
            min_size: 20,
            max_size: 200,
            seed,
        };
        let pop = VirtualPopulation::new(spec);
        // Same holdout proportion the materialized path gets from
        // split_holdout(6), but generated independently of any shard.
        let test = pop.test_set((samples / 6).max(1));
        (Some(pop), None, None, test)
    } else {
        let dataset = load_or_generate(&args, task, seed)?;
        let (train, test) = dataset.split_holdout(6);
        let partition = ClientPartition::dirichlet(
            &train,
            &PartitionSpec {
                num_clients: clients,
                alpha,
                min_size: 20,
                max_size: 200,
                seed,
            },
        );
        (None, Some(train), Some(partition), test)
    };
    let sizes: Vec<usize> = match (&population, &partition) {
        (Some(pop), _) => (0..pop.num_clients()).map(|c| pop.client_size(c)).collect(),
        (None, Some(part)) => part.sizes(),
        (None, None) => unreachable!("one data representation is always built"),
    };
    let topology = Topology::even_split(edges, sizes.clone());

    // --- grouping ---
    let label_matrix = match (&population, &partition) {
        (Some(pop), _) => pop.label_matrix(),
        (None, Some(part)) => &part.label_matrix,
        (None, None) => unreachable!("one data representation is always built"),
    };
    let grouping = parse_grouping(&args)?;
    let groups = form_groups_per_edge(grouping.as_ref(), &topology, label_matrix, seed);
    writeln!(
        out,
        "formed {} groups (mean CoV {:.3})",
        groups.len(),
        mean_group_cov(label_matrix, &groups)
    )?;

    // --- config ---
    let config = GroupFelConfig {
        global_rounds: args.get("rounds", 40, "int")?,
        group_rounds: args.get("k", 5, "int")?,
        local_rounds: args.get("e", 2, "int")?,
        sampled_groups: args.get("sample", 4, "int")?,
        batch_size: args.get("batch", 32, "int")?,
        lr: LrSchedule::Constant(args.get("lr", 0.05f32, "float")?),
        weighting: parse_weighting(&args.get_str("weighting", "standard"))?,
        eval_every: args.get("eval-every", 2, "int")?,
        seed,
        task,
        cost_budget: args
            .get_opt("budget")
            .map(|b| b.parse())
            .transpose()
            .map_err(|_| ParseError::BadValue("budget".into(), "?".into(), "float"))?,
        secure_aggregation: args.get_flag("secure")?,
        dropout_prob: args.get("dropout", 0.0f64, "float")?,
    };
    let sampling = parse_sampling(&args.get_str("sampling", "esrcov"))?;
    let method = args.get_str("method", "fedavg");
    let mu: f32 = args.get("mu", 0.1, "float")?;
    let csv_path = args.get_opt("csv");
    let checkpoint_path = args.get_opt("checkpoint");
    let trace_out = args.get_opt("trace-out");
    let trace_buffer: usize = args.get("trace-buffer", 65_536, "int")?;
    let show_metrics = args.get_flag("metrics")?;
    let faults = parse_faults(&args, seed)?;
    let churn = parse_churn(&args, seed, config.global_rounds)?;
    let adversary = parse_adversary(&args, seed, test.num_classes(), test.feature_dim())?;
    let robust = parse_robust_agg(&args)?;
    let runtime = parse_runtime(&args)?;
    let async_csv = args.get_opt("async-csv");
    args.reject_unknown()?;
    if is_virtual && method == "scaffold" {
        return Err(CommandError::Invalid(
            "--method scaffold cannot be combined with --virtual: SCAFFOLD \
             keeps O(clients × params) control-variate state, which defeats \
             the O(sampled) memory contract of virtual populations"
                .into(),
        ));
    }
    if async_csv.is_some() && runtime.is_none() {
        return Err(CommandError::Invalid(
            "--async-csv requires --runtime semi-async".into(),
        ));
    }
    if robust != RobustAggRule::Mean && config.secure_aggregation {
        return Err(CommandError::Invalid(
            "--robust-agg cannot be combined with --secure: the masking \
             protocol only computes linear functions of the updates"
                .into(),
        ));
    }

    // --- model: pick by feature dimensionality (the holdout set has the
    // same shape as the training data in both representations) ---
    let model = model_for(&test, task);
    let param_count = model.param_len();
    let mut trainer = match (population, train, partition) {
        (Some(pop), _, _) => Trainer::try_new_virtual(config.clone(), model, pop, test),
        (None, Some(train), Some(part)) => {
            Trainer::try_new(config.clone(), model, train, part, test)
        }
        _ => unreachable!("one data representation is always built"),
    }
    .map_err(|e| CommandError::Invalid(e.to_string()))?;
    // Observation is one-way: attaching a collector never changes results
    // (asserted by crates/core/tests/determinism.rs). With --trace-out the
    // collector streams spans to the file at every round barrier, keeping
    // buffered-span memory bounded by --trace-buffer.
    let observer = match &trace_out {
        Some(path) => Some(
            gfl_obs::TraceCollector::streaming_to(
                std::path::Path::new(path),
                effective_threads,
                gfl_obs::StreamConfig {
                    span_buffer_cap: trace_buffer,
                    ..gfl_obs::StreamConfig::default()
                },
            )
            .map_err(|e| CommandError::Invalid(format!("cannot open trace file: {e}")))?,
        ),
        None => show_metrics.then(gfl_obs::TraceCollector::new),
    };
    if let Some(obs) = &observer {
        trainer = trainer.with_observer(std::sync::Arc::clone(obs));
    }
    let faults_on = faults.is_some();
    if let Some((plan, policy)) = faults {
        trainer = trainer.with_faults(plan, policy, &topology);
    }
    let churn_on = churn.is_some();
    if let Some((plan, policy)) = churn {
        trainer = trainer.with_churn(plan, policy);
    }
    let adversary_on = adversary.is_some();
    if let Some(plan) = adversary {
        trainer = trainer.with_adversary(plan);
    }
    trainer = trainer.with_robust_agg(robust);

    writeln!(
        out,
        "training {method} on {} clients / {} edges ({param_count} params, {effective_threads} threads)",
        clients, edges
    )?;
    let probs;
    let plan = RunPlan {
        clock: runtime.map_or(Clock::Lockstep, Clock::EventDriven),
        membership: if churn_on {
            Membership::SelfHealing {
                algo: grouping.as_ref(),
                topology: &topology,
                sampling,
            }
        } else {
            probs = trainer.sampling_probs(&groups, sampling);
            Membership::Static {
                groups: &groups,
                probs: &probs,
            }
        },
    };
    let state = match method.as_str() {
        "fedavg" => drive_to_end(&trainer, &plan, &FedAvg)?,
        "fedprox" => drive_to_end(&trainer, &plan, &FedProx { mu })?,
        "scaffold" => drive_to_end(&trainer, &plan, &Scaffold::new(param_count, clients))?,
        "fednova" => {
            let s = FedNova::from_sizes(&sizes, config.local_rounds, config.batch_size);
            drive_to_end(&trainer, &plan, &s)?
        }
        other => {
            return Err(CommandError::Invalid(format!(
                "unknown --method '{other}' (fedavg|fedprox|scaffold|fednova)"
            )))
        }
    };
    let history = &state.history;
    let async_report = state.scheduler.as_ref().map(|(_, report)| report);

    writeln!(out, "\n round       cost  accuracy    loss")?;
    for r in history.records() {
        writeln!(
            out,
            "{:6} {:10.0} {:9.4} {:7.4}",
            r.round, r.cost, r.accuracy, r.loss
        )?;
    }
    writeln!(out, "\nbest accuracy: {:.4}", history.best_accuracy())?;
    if let Some(rep) = async_report {
        let sum = |f: fn(&gfl_core::semi_async::AsyncRoundRecord) -> usize| -> usize {
            rep.rounds.iter().map(f).sum()
        };
        writeln!(
            out,
            "semi-async: emulated clock {:.1} s, {} straggler cuts, \
             {} stale admitted, {} stale dropped, {} busy skips",
            rep.final_clock_s(),
            rep.total_cut_reports(),
            sum(|r| r.stale_admitted),
            sum(|r| r.stale_dropped),
            sum(|r| r.busy_skipped),
        )?;
    }
    if faults_on {
        writeln!(out, "faults: {}", history.fault_summary())?;
    }
    if adversary_on {
        let summary = history.attack_summary();
        writeln!(out, "attacks: {summary}")?;
        writeln!(
            out,
            "defense efficacy: {} injected / {} filtered ({} flame, {} non-finite)",
            summary.injected(),
            summary.filtered(),
            summary.filtered_flame,
            summary.filtered_non_finite
        )?;
        let asr = history.asr_records();
        if !asr.is_empty() {
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
    if churn_on {
        writeln!(out, "regroups: {}", history.regroup_summary())?;
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
        let transitions = history.regroup_events();
        if !transitions.is_empty() {
            writeln!(out, "\n round  transition")?;
            for e in transitions {
                writeln!(out, "{:6}  {e}", e.round())?;
            }
        }
    }

    if let Some(path) = csv_path {
        std::fs::write(&path, history.to_csv())?;
        writeln!(out, "wrote {path}")?;
    }
    if let (Some(path), Some(rep)) = (async_csv, async_report) {
        std::fs::write(&path, rep.to_csv())?;
        writeln!(out, "wrote {path}")?;
    }
    if let Some(path) = checkpoint_path {
        let cp = Checkpoint::from_state(&state, config);
        cp.save(&path)
            .map_err(|e| CommandError::Invalid(e.to_string()))?;
        writeln!(out, "wrote {path}")?;
    }
    if let Some(obs) = observer {
        // A streaming collector has been writing the file all along;
        // finish() appends the summary line and flushes it.
        let trace = obs.finish(effective_threads);
        if show_metrics {
            write_metrics_summary(out, &trace)?;
        }
        if let Some(path) = trace_out {
            writeln!(out, "wrote {path}")?;
        }
    }
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

/// One whole run of `strategy` under `plan`: all configured rounds from a
/// fresh state.
fn drive_to_end<S: LocalUpdate>(
    trainer: &Trainer,
    plan: &RunPlan<'_>,
    strategy: &S,
) -> Result<RunState, CommandError> {
    let mut state = trainer.start(strategy);
    trainer
        .drive(strategy, plan, &mut state, trainer.config().global_rounds)
        .map_err(|e| CommandError::Invalid(format!("regrouping failed: {e}")))?;
    Ok(state)
}

const GROUP_HELP: &str = "\
gfl group — form client groups and report their quality

  --data PATH | --task vision|speech --samples N   data source
  --alpha F --clients N --edges N --seed N         federation shape
  --grouping covg|rg|cdg|kldg|varg|stream          algorithm [covg]
  --min-gs N --max-cov F --group-size N            algorithm knobs
  --json             emit the groups as JSON instead of a table";

/// `gfl group`.
pub fn group(argv: &[String], out: &mut dyn Write) -> CmdResult {
    let args = Args::parse(argv)?;
    if args.wants_help() {
        return Err(CommandError::Help(GROUP_HELP));
    }
    let seed: u64 = args.get("seed", 42, "int")?;
    let task = parse_task(&args.get_str("task", "vision"))?;
    let dataset = load_or_generate(&args, task, seed)?;
    let clients: usize = args.get("clients", 90, "int")?;
    let edges: usize = args.get("edges", 3, "int")?;
    let alpha: f64 = args.get("alpha", 0.1, "float")?;
    let partition = ClientPartition::dirichlet(
        &dataset,
        &PartitionSpec {
            num_clients: clients,
            alpha,
            min_size: 20,
            max_size: 200,
            seed,
        },
    );
    let topology = Topology::even_split(edges, partition.sizes());
    let grouping = parse_grouping(&args)?;
    let as_json = args.get_flag("json")?;
    args.reject_unknown()?;

    let groups = form_groups_per_edge(grouping.as_ref(), &topology, &partition.label_matrix, seed);
    if as_json {
        let payload: Vec<serde_json::Value> = groups
            .iter()
            .map(|g| {
                serde_json::json!({
                    "members": g,
                    "cov": group_cov(&partition.label_matrix, g),
                    "samples": g.iter().map(|&c| partition.indices[c].len()).sum::<usize>(),
                })
            })
            .collect();
        writeln!(out, "{}", serde_json::to_string_pretty(&payload).unwrap())?;
    } else {
        writeln!(out, "group  size  samples     cov")?;
        for (i, g) in groups.iter().enumerate() {
            let samples: usize = g.iter().map(|&c| partition.indices[c].len()).sum();
            writeln!(
                out,
                "{:5} {:5} {:8} {:7.3}",
                i,
                g.len(),
                samples,
                group_cov(&partition.label_matrix, g)
            )?;
        }
        writeln!(
            out,
            "\n{} groups, mean CoV {:.3}",
            groups.len(),
            mean_group_cov(&partition.label_matrix, &groups)
        )?;
    }
    Ok(())
}

const COST_HELP: &str = "\
gfl cost — print the calibrated RPi cost curves (Fig. 2a / Fig. 8)

  --task vision|speech    which task's table [vision]
  --max N                 largest x to print [50]";

/// `gfl cost`.
pub fn cost(argv: &[String], out: &mut dyn Write) -> CmdResult {
    let args = Args::parse(argv)?;
    if args.wants_help() {
        return Err(CommandError::Help(COST_HELP));
    }
    let task = parse_task(&args.get_str("task", "vision"))?;
    let max: usize = args.get("max", 50, "int")?;
    args.reject_unknown()?;
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

const THEORY_HELP: &str = "\
gfl theory — evaluate the Theorem 1 convergence bound

  --eta F --t N --k N --e N --sampled N   schedule      [0.01 200 5 2 12]
  --l F --sigma2 F --zeta2 F --zetag2 F   constants     [1 1 1 0.5]
  --gamma F --big-gamma F --gamma-p F     group stats   [1.2 1.3 120]
  --group-size F                                        [6]";

/// `gfl theory`.
pub fn theory(argv: &[String], out: &mut dyn Write) -> CmdResult {
    let args = Args::parse(argv)?;
    if args.wants_help() {
        return Err(CommandError::Help(THEORY_HELP));
    }
    let reference = TheoremInputs::reference();
    let inputs = TheoremInputs {
        initial_gap: args.get("gap", reference.initial_gap, "float")?,
        eta: args.get("eta", reference.eta, "float")?,
        t: args.get("t", reference.t, "int")?,
        k: args.get("k", reference.k, "int")?,
        e: args.get("e", reference.e, "int")?,
        l: args.get("l", reference.l, "float")?,
        sigma_sq: args.get("sigma2", reference.sigma_sq, "float")?,
        zeta_sq: args.get("zeta2", reference.zeta_sq, "float")?,
        zeta_g_sq: args.get("zetag2", reference.zeta_g_sq, "float")?,
        gamma: args.get("gamma", reference.gamma, "float")?,
        big_gamma: args.get("big-gamma", reference.big_gamma, "float")?,
        gamma_p: args.get("gamma-p", reference.gamma_p, "float")?,
        sampled: args.get("sampled", reference.sampled, "int")?,
        group_size: args.get("group-size", reference.group_size, "float")?,
    };
    args.reject_unknown()?;
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

// --- shared parsing helpers ---

fn parse_task(s: &str) -> Result<Task, CommandError> {
    match s {
        "vision" => Ok(Task::Vision),
        "speech" => Ok(Task::Speech),
        other => Err(CommandError::Invalid(format!(
            "unknown --task '{other}' (vision|speech)"
        ))),
    }
}

fn parse_sampling(s: &str) -> Result<SamplingStrategy, CommandError> {
    match s {
        "random" => Ok(SamplingStrategy::Random),
        "rcov" => Ok(SamplingStrategy::RCov),
        "srcov" => Ok(SamplingStrategy::SRCov),
        "esrcov" => Ok(SamplingStrategy::ESRCov),
        other => Err(CommandError::Invalid(format!(
            "unknown --sampling '{other}' (random|rcov|srcov|esrcov)"
        ))),
    }
}

fn parse_weighting(s: &str) -> Result<AggregationWeighting, CommandError> {
    match s {
        "standard" => Ok(AggregationWeighting::Standard),
        "unbiased" => Ok(AggregationWeighting::Unbiased),
        "stabilized" => Ok(AggregationWeighting::Stabilized),
        other => Err(CommandError::Invalid(format!(
            "unknown --weighting '{other}' (standard|unbiased|stabilized)"
        ))),
    }
}

fn parse_grouping(args: &Args) -> Result<Box<dyn GroupingAlgorithm>, CommandError> {
    let min_gs: usize = args.get("min-gs", 5, "int")?;
    let max_cov: f32 = args.get("max-cov", 0.5, "float")?;
    let group_size: usize = args.get("group-size", 6, "int")?;
    Ok(match args.get_str("grouping", "covg").as_str() {
        "covg" => Box::new(CovGrouping {
            min_group_size: min_gs,
            max_cov,
        }),
        "rg" => Box::new(RandomGrouping { group_size }),
        "cdg" => Box::new(CdgGrouping {
            group_size,
            kmeans_iters: 10,
        }),
        "kldg" => Box::new(KldGrouping { group_size }),
        "varg" => Box::new(VarianceGrouping {
            min_group_size: min_gs,
            max_variance: 60.0,
        }),
        "stream" => Box::new(StreamGrouping { group_size }),
        other => {
            return Err(CommandError::Invalid(format!(
                "unknown --grouping '{other}' (covg|rg|cdg|kldg|varg|stream)"
            )))
        }
    })
}

/// Builds the fault plan + policy from `--faults` and its override flags.
/// Returns `None` when no fault option was given (clean run, zero cost).
fn parse_faults(args: &Args, seed: u64) -> Result<Option<(FaultPlan, FaultPolicy)>, CommandError> {
    let preset = args.get_str("faults", "none");
    let fault_seed: u64 = args.get("fault-seed", seed, "int")?;
    let mut plan = match preset.as_str() {
        "none" => FaultPlan::none(),
        "moderate" => FaultPlan::moderate(fault_seed),
        other => {
            return Err(CommandError::Invalid(format!(
                "unknown --faults '{other}' (none|moderate)"
            )))
        }
    };
    plan.seed = fault_seed;
    let mut any = preset != "none";
    {
        let overrides: [(&str, &mut f64); 5] = [
            ("straggler-frac", &mut plan.straggler_fraction),
            ("straggler-factor", &mut plan.straggler_factor),
            ("crash-prob", &mut plan.crash_prob),
            ("corrupt-prob", &mut plan.corrupt_prob),
            ("upload-fail", &mut plan.upload_fail_prob),
        ];
        for (key, field) in overrides {
            if let Some(v) = args.get_opt(key) {
                *field = v
                    .parse()
                    .map_err(|_| ParseError::BadValue(key.into(), v, "float"))?;
                any = true;
            }
        }
    }
    if let Some(spec) = args.get_opt("outage") {
        let parts: Vec<Option<usize>> = spec.split(':').map(|p| p.parse().ok()).collect();
        match parts.as_slice() {
            [Some(edge), Some(from), Some(until)] if from < until => {
                plan.edge_outages.push(OutageWindow {
                    edge: *edge,
                    from_round: *from,
                    until_round: *until,
                });
                any = true;
            }
            _ => return Err(ParseError::BadValue("outage".into(), spec, "edge:from:until").into()),
        }
    }
    // Typed validation (gfl_faults::FaultConfigError): NaN, negative, and
    // out-of-range knobs fail here at parse time, not as engine panics.
    plan.validate()
        .map_err(|e| CommandError::Invalid(e.to_string()))?;
    let defaults = FaultPolicy::default();
    let policy = FaultPolicy {
        deadline_factor: args.get("deadline-factor", defaults.deadline_factor, "float")?,
        quorum_fraction: args.get("quorum", defaults.quorum_fraction, "float")?,
        max_retries: args.get("max-retries", defaults.max_retries, "int")?,
        backoff_base_s: args.get("backoff-base", defaults.backoff_base_s, "float")?,
        max_backoff_s: args.get("max-backoff", defaults.max_backoff_s, "float")?,
        ..defaults
    };
    policy
        .validate()
        .map_err(|e| CommandError::Invalid(e.to_string()))?;
    Ok(any.then_some((plan, policy)))
}

/// Parses `--runtime` and the semi-async knobs into an [`AsyncConfig`].
/// Returns `None` for the default lockstep engine.
fn parse_runtime(args: &Args) -> Result<Option<AsyncConfig>, CommandError> {
    let runtime = args.get_str("runtime", "sync");
    let decay: f64 = args.get("staleness-decay", 1.0, "float")?;
    let cloud: f64 = args.get("cloud-deadline", 0.0, "float")?;
    let policy = args.get_str("staleness-policy", "drop");
    match runtime.as_str() {
        "sync" => Ok(None),
        "semi-async" => {
            if !decay.is_finite() || decay < 0.0 {
                return Err(CommandError::Invalid(format!(
                    "--staleness-decay must be finite and >= 0, got {decay}"
                )));
            }
            if !cloud.is_finite() || cloud < 0.0 {
                return Err(CommandError::Invalid(format!(
                    "--cloud-deadline must be finite and >= 0 (0 waits for all), got {cloud}"
                )));
            }
            let staleness = match policy.as_str() {
                "drop" => StalenessPolicy::DropStale,
                "weighted" => StalenessPolicy::Weighted { decay },
                other => {
                    return Err(CommandError::Invalid(format!(
                        "unknown --staleness-policy '{other}' (drop|weighted)"
                    )))
                }
            };
            Ok(Some(AsyncConfig {
                staleness,
                cloud_deadline_factor: cloud,
            }))
        }
        other => Err(CommandError::Invalid(format!(
            "unknown --runtime '{other}' (sync|semi-async)"
        ))),
    }
}

/// Builds the churn plan + regroup policy from `--churn` and its override
/// flags. Returns `None` when no churn option was given (static membership).
fn parse_churn(
    args: &Args,
    seed: u64,
    rounds: usize,
) -> Result<Option<(ChurnPlan, RegroupPolicy)>, CommandError> {
    let preset = args.get_str("churn", "none");
    let churn_seed: u64 = args.get("churn-seed", seed, "int")?;
    let mut plan = match preset.as_str() {
        "none" => ChurnPlan {
            horizon: rounds.max(1),
            ..ChurnPlan::none()
        },
        "moderate" => ChurnPlan {
            horizon: rounds.max(1),
            ..ChurnPlan::moderate(churn_seed)
        },
        other => {
            return Err(CommandError::Invalid(format!(
                "unknown --churn '{other}' (none|moderate)"
            )))
        }
    };
    plan.seed = churn_seed;
    plan.horizon = args.get("churn-horizon", plan.horizon, "int")?;
    let mut any = preset != "none";
    {
        let overrides: [(&str, &mut f64); 3] = [
            ("depart-frac", &mut plan.departure_fraction),
            ("arrive-frac", &mut plan.arrival_fraction),
            ("flap-prob", &mut plan.flap_prob),
        ];
        for (key, field) in overrides {
            if let Some(v) = args.get_opt(key) {
                *field = v
                    .parse()
                    .map_err(|_| ParseError::BadValue(key.into(), v, "float"))?;
                any = true;
            }
        }
    }
    for (key, p) in [
        ("depart-frac", plan.departure_fraction),
        ("arrive-frac", plan.arrival_fraction),
        ("flap-prob", plan.flap_prob),
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(CommandError::Invalid(format!(
                "--{key} must be a probability, got {p}"
            )));
        }
    }
    if plan.horizon == 0 {
        return Err(CommandError::Invalid(
            "--churn-horizon must be at least 1 round".into(),
        ));
    }
    let defaults = RegroupPolicy::default();
    let mut policy = match args.get_str("regroup-policy", "heal").as_str() {
        "heal" => defaults.clone(),
        "frozen" => RegroupPolicy::frozen(),
        other => {
            return Err(CommandError::Invalid(format!(
                "unknown --regroup-policy '{other}' (heal|frozen)"
            )))
        }
    };
    policy.size_floor = args.get("size-floor", defaults.size_floor, "int")?;
    policy.cov_drift = args.get("cov-drift", defaults.cov_drift, "float")?;
    policy.cooldown = args.get("regroup-cooldown", defaults.cooldown, "int")?;
    if let Some(v) = args.get_opt("reform-every") {
        let every: usize = v
            .parse()
            .map_err(|_| ParseError::BadValue("reform-every".into(), v, "int"))?;
        if every == 0 {
            return Err(CommandError::Invalid(
                "--reform-every must be at least 1 round".into(),
            ));
        }
        policy.full_reform_every = Some(every);
    }
    Ok(any.then_some((plan, policy)))
}

/// Builds the adversary plan from `--adversary` and its override flags,
/// checking labels and trigger width against the dataset's shape so bad
/// campaigns fail as typed errors, not engine panics. Returns `None` when
/// no adversary option was given (clean run, bit-identical to no plan).
fn parse_adversary(
    args: &Args,
    seed: u64,
    num_classes: usize,
    feature_dim: usize,
) -> Result<Option<AdversaryPlan>, CommandError> {
    let preset = args.get_str("adversary", "none");
    let adversary_seed: u64 = args.get("adversary-seed", seed, "int")?;
    let mut plan = match preset.as_str() {
        "none" => AdversaryPlan::none(),
        "moderate" => AdversaryPlan::moderate(adversary_seed),
        "backdoor" => AdversaryPlan::backdoor(adversary_seed, 0.2),
        other => {
            return Err(CommandError::Invalid(format!(
                "unknown --adversary '{other}' (none|moderate|backdoor)"
            )))
        }
    };
    plan.seed = adversary_seed;
    let mut any = preset != "none";
    {
        let overrides: [(&str, &mut f64); 6] = [
            ("backdoor-frac", &mut plan.backdoor_fraction),
            ("flip-frac", &mut plan.label_flip_fraction),
            ("poison-frac", &mut plan.model_poison_fraction),
            ("poison-rate", &mut plan.poison_rate),
            ("attack-scale", &mut plan.scale_factor),
            ("backdoor-boost", &mut plan.backdoor_boost),
        ];
        for (key, field) in overrides {
            if let Some(v) = args.get_opt(key) {
                *field = v
                    .parse()
                    .map_err(|_| ParseError::BadValue(key.into(), v, "float"))?;
                any = true;
            }
        }
    }
    {
        let overrides: [(&str, &mut usize); 4] = [
            ("trigger-width", &mut plan.trigger_width),
            ("trigger-target", &mut plan.trigger_target),
            ("flip-from", &mut plan.flip_from),
            ("flip-to", &mut plan.flip_to),
        ];
        for (key, field) in overrides {
            if let Some(v) = args.get_opt(key) {
                *field = v
                    .parse()
                    .map_err(|_| ParseError::BadValue(key.into(), v, "int"))?;
                any = true;
            }
        }
    }
    for (key, p) in [
        ("backdoor-frac", plan.backdoor_fraction),
        ("flip-frac", plan.label_flip_fraction),
        ("poison-frac", plan.model_poison_fraction),
        ("poison-rate", plan.poison_rate),
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(CommandError::Invalid(format!(
                "--{key} must be a probability, got {p}"
            )));
        }
    }
    if plan.backdoor_fraction + plan.label_flip_fraction + plan.model_poison_fraction > 1.0 {
        return Err(CommandError::Invalid(
            "adversary fractions must sum to at most 1".into(),
        ));
    }
    if plan.backdoor_fraction > 0.0 {
        if plan.trigger_width == 0 || plan.trigger_width > feature_dim {
            return Err(CommandError::Invalid(format!(
                "--trigger-width must be in 1..={feature_dim} for this dataset"
            )));
        }
        if plan.trigger_target >= num_classes {
            return Err(CommandError::Invalid(format!(
                "--trigger-target must be < {num_classes} classes"
            )));
        }
        if !plan.backdoor_boost.is_finite() || plan.backdoor_boost <= 0.0 {
            return Err(CommandError::Invalid(
                "--backdoor-boost must be a positive finite factor".into(),
            ));
        }
    }
    if plan.label_flip_fraction > 0.0 {
        if plan.flip_from >= num_classes || plan.flip_to >= num_classes {
            return Err(CommandError::Invalid(format!(
                "--flip-from/--flip-to must be < {num_classes} classes"
            )));
        }
        if plan.flip_from == plan.flip_to {
            return Err(CommandError::Invalid(
                "--flip-from and --flip-to must differ: a flip must change the label".into(),
            ));
        }
    }
    if plan.model_poison_fraction > 0.0 && plan.scale_factor == 1.0 && !plan.sign_flip {
        return Err(CommandError::Invalid(
            "--attack-scale 1.0 with no sign flip is a no-op model poison".into(),
        ));
    }
    Ok(any.then_some(plan))
}

/// Parses `--robust-agg` into a group-level aggregation rule.
fn parse_robust_agg(args: &Args) -> Result<RobustAggRule, CommandError> {
    let f: usize = args.get("robust-f", 1, "int")?;
    let select: usize = args.get("robust-select", 2, "int")?;
    match args.get_str("robust-agg", "mean").as_str() {
        "mean" => Ok(RobustAggRule::Mean),
        "median" => Ok(RobustAggRule::CoordinateMedian),
        "trimmed-mean" => Ok(RobustAggRule::TrimmedMean { trim: f }),
        "krum" => Ok(RobustAggRule::Krum { byzantine: f }),
        "multi-krum" => Ok(RobustAggRule::MultiKrum {
            byzantine: f,
            select,
        }),
        "flame" => Ok(RobustAggRule::FlameFilter),
        other => Err(CommandError::Invalid(format!(
            "unknown --robust-agg '{other}' (mean|median|trimmed-mean|krum|multi-krum|flame)"
        ))),
    }
}

fn load_or_generate(args: &Args, task: Task, seed: u64) -> Result<Dataset, CommandError> {
    if let Some(path) = args.get_opt("data") {
        return gfl_data::load_dataset(&path)
            .map_err(|e| CommandError::Invalid(format!("--data {path}: {e}")));
    }
    let samples: usize = args.get("samples", 12_000, "int")?;
    let spec = match task {
        Task::Vision => SyntheticSpec::vision_like(),
        Task::Speech => SyntheticSpec::speech_like(),
    };
    Ok(spec.generate(samples, seed))
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

    fn run_cmd(
        f: fn(&[String], &mut dyn Write) -> CmdResult,
        args: &str,
    ) -> (Result<(), CommandError>, String) {
        let mut buf = Vec::new();
        let r = f(&argv(args), &mut buf);
        (r, String::from_utf8(buf).unwrap())
    }

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
        // The parser's own error message is the list of names it accepts.
        let (r, _) = run_cmd(group, "--grouping nonesuch");
        let CommandError::Invalid(msg) = r.unwrap_err() else {
            panic!("an unknown --grouping is an Invalid error");
        };
        let names = msg
            .rsplit_once('(')
            .and_then(|(_, list)| list.strip_suffix(')'))
            .expect("the error lists the accepted names in parentheses");
        assert!(names.split('|').count() >= 6, "{msg}");
        for help in [SIMULATE_HELP, GROUP_HELP] {
            let line = help
                .lines()
                .find(|l| l.trim_start().starts_with("--grouping "))
                .expect("help documents --grouping");
            let listed: Vec<&str> = line.split_whitespace().nth(1).unwrap().split('|').collect();
            for name in names.split('|') {
                assert!(listed.contains(&name), "'{name}' missing from: {line}");
            }
        }
        for name in names.split('|') {
            let args = format!("--grouping {name} --clients 8 --edges 2 --samples 800");
            run_cmd(group, &args).0.unwrap();
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
            let (r, _) = run_cmd(
                simulate,
                &format!("--clients 8 --edges 2 --samples 900 --min-gs 2 {flags}"),
            );
            assert!(r.is_err(), "{flags} should be rejected");
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
            let (r, _) = run_cmd(
                simulate,
                &format!("--clients 8 --edges 2 --samples 900 --min-gs 2 {flags}"),
            );
            assert!(r.is_err(), "{flags} should be rejected");
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
            let (r, _) = run_cmd(
                simulate,
                &format!("--clients 8 --edges 2 --samples 900 --min-gs 2 {flags}"),
            );
            assert!(r.is_err(), "{flags} should be rejected");
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
            let (r, _) = run_cmd(
                simulate,
                &format!("--clients 8 --edges 2 --samples 900 --min-gs 2 {flags}"),
            );
            assert!(
                matches!(r, Err(CommandError::Invalid(_))),
                "{flags} should be rejected as invalid"
            );
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
        gfl_parallel::set_default_parallelism(0);
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
        gfl_parallel::set_default_parallelism(0);
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
        let (r, _) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --min-gs 2 --rounds 0",
        );
        assert!(matches!(r.unwrap_err(), CommandError::Invalid(_)));
    }

    #[test]
    fn simulate_unknown_method_errors() {
        let (r, _) = run_cmd(
            simulate,
            "--clients 8 --edges 2 --samples 900 --method sgd --min-gs 2",
        );
        assert!(matches!(r.unwrap_err(), CommandError::Invalid(_)));
    }

    #[test]
    fn help_short_circuits() {
        for f in [simulate, group, cost, theory] {
            let (r, _) = run_cmd(f, "--help");
            assert!(matches!(r.unwrap_err(), CommandError::Help(_)));
        }
    }
}
