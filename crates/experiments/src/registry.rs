//! The one table of experiments, and the runner that owns everything a
//! row does not say: printing, CSV files, verdicts, drift checks.

use std::fs;
use std::path::{Path, PathBuf};

use crate::emit::{print_series, write_csv, Output, Table};
use crate::rows::{ablations, formation, paper, systems};
use crate::world::{ExpScale, ScaleName, ScaleRule};

/// What a run gets: its federation size and its declared tables.
pub struct Ctx {
    pub scale: ExpScale,
    outputs: &'static [Output],
}

impl Ctx {
    /// An empty table for the row's `i`-th declared output.
    pub fn table(&self, i: usize) -> Table {
        Table::new(&self.outputs[i])
    }
}

/// `Ok`: what the predicate computed that no single table row shows (seed
/// means, win counts; often nothing). `Err`: the part of the claim that
/// does not hold.
pub type Verdict = Result<String, String>;

/// One figure, table or ablation.
pub struct Experiment {
    /// The name on the command line.
    pub id: &'static str,
    /// Heading printed above the row's tables.
    pub title: &'static str,
    /// What the paper (or the extension) claims, in one line.
    pub claim: &'static str,
    pub scale: ScaleRule,
    /// The tables `run` returns, in order; each is a file under `results/`.
    pub outputs: &'static [Output],
    pub run: fn(&Ctx) -> Vec<Table>,
    /// Judges the claim from the emitted tables alone, so a fresh run and
    /// a committed CSV get the same verdict.
    pub shape: fn(&ExpScale, &[Table]) -> Verdict,
}

/// Every experiment, in the order `all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    paper::FIG2A,
    paper::FIG2B,
    formation::FIG5,
    formation::FIG6,
    paper::FIG7,
    paper::FIG8,
    paper::FIG9,
    paper::FIG10,
    paper::FIG11,
    paper::FIG12,
    paper::TABLE1,
    ablations::ABLATION_WEIGHTING,
    ablations::ABLATION_REGROUP,
    ablations::ABLATION_CRITERION,
    ablations::SWEEP_HYPER,
    ablations::FEDNOVA_COMPARE,
    ablations::CNN_SPEECH,
    systems::WALLCLOCK,
    systems::STRAGGLER_RESILIENCE,
    systems::ATTACK_DEFENSE,
    systems::BACKDOOR_E2E,
    systems::ROBUST_DEFENSE,
];

impl Experiment {
    /// Runs the experiment and judges the fresh tables.
    pub fn regenerate(&self, name: ScaleName) -> (Vec<Table>, Verdict) {
        let ctx = Ctx {
            scale: self.scale.at(name),
            outputs: self.outputs,
        };
        let tables = (self.run)(&ctx);
        let verdict = (self.shape)(&ctx.scale, &tables);
        (tables, verdict)
    }

    /// What EXPERIMENTS.md quotes of `tables`: each table's digest, then
    /// the verdict's text.
    pub fn report(&self, scale: &ExpScale, tables: &[Table]) -> Verdict {
        let said = (self.shape)(scale, tables)?;
        let digests = tables.iter().map(|table| table.digest(scale.budget));
        let parts: Vec<String> = digests.chain([said]).collect();
        Ok(parts.join("\n").trim_end().to_string())
    }

    /// The tables committed under `dir`: `None` when no file of this row is
    /// there, an error when one is missing or does not parse.
    pub fn committed(&self, dir: &Path) -> Result<Option<Vec<Table>>, String> {
        let path = |o: &Output| dir.join(format!("{}.csv", o.file));
        if !self.outputs.iter().any(|o| path(o).exists()) {
            return Ok(None);
        }
        let parse = |o: &'static Output| {
            let text =
                fs::read_to_string(path(o)).map_err(|e| format!("{}: {e}", path(o).display()))?;
            Table::parse(o, &text)
        };
        self.outputs
            .iter()
            .map(parse)
            .collect::<Result<_, _>>()
            .map(Some)
    }
}

/// Where the tables of scale `name` are committed under `results`.
pub fn results_dir(results: &Path, name: ScaleName) -> PathBuf {
    match name {
        ScaleName::Small => results.to_path_buf(),
        ScaleName::Paper => results.join("paper"),
    }
}

/// The experiments named by `ids` (`all` = every row), or the unknown id.
pub fn resolve(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if ids == ["all"] {
        return Ok(EXPERIMENTS.iter().collect());
    }
    let find = |id: &String| {
        let row = EXPERIMENTS.iter().find(|e| e.id == id);
        row.ok_or_else(|| format!("unknown experiment `{id}` (see `gfl-experiments list`)"))
    };
    ids.iter().map(find).collect()
}

/// `run`: prints each experiment's tables, writes them under `results`
/// and judges them. Returns one line per failed experiment.
pub fn run(exps: &[&Experiment], name: ScaleName, results: &Path) -> Vec<String> {
    let dir = results_dir(results, name);
    let mut failures = Vec::new();
    for exp in exps {
        let (tables, verdict) = exp.regenerate(name);
        write_tables(exp, &tables, &dir, true);
        match verdict {
            Ok(said) => println!("shape ok: {}\n{said}", exp.claim),
            Err(why) => failures.push(format!("{}: shape failed: {why}", exp.id)),
        }
    }
    failures
}

fn write_tables(exp: &Experiment, tables: &[Table], dir: &Path, print: bool) {
    for table in tables {
        if print {
            print_series(exp.title, table);
        }
        let path = write_csv(dir, table).unwrap_or_else(|e| {
            panic!(
                "cannot write {}.csv under {}: {e}",
                table.spec.file,
                dir.display()
            )
        });
        println!("wrote {}", path.display());
    }
}

/// `check`: regenerates each experiment into a temporary directory and
/// requires its shape to hold on the fresh tables and on the committed
/// ones, and every non-measured cell to equal the committed file's. An
/// experiment with nothing committed at this scale is shape-checked and
/// reported `unrecorded`. Returns one line per failure.
pub fn check(exps: &[&Experiment], name: ScaleName, results: &Path) -> Vec<String> {
    let dir = results_dir(results, name);
    let fresh_dir = std::env::temp_dir().join(format!("gfl-experiments-{}", std::process::id()));
    let mut failures = Vec::new();
    for exp in exps {
        let (fresh, verdict) = exp.regenerate(name);
        write_tables(exp, &fresh, &fresh_dir, false);
        let mut problems: Vec<String> = verdict.err().into_iter().collect();
        let committed = exp.committed(&dir);
        match &committed {
            Ok(Some(committed)) => {
                problems.extend((exp.shape)(&exp.scale.at(name), committed).err());
                let drifts = fresh.iter().zip(committed).map(|(f, c)| f.drift_from(c));
                problems.extend(drifts.filter_map(Result::err));
            }
            Ok(None) => {}
            Err(unreadable) => problems.push(unreadable.clone()),
        }
        let status = match (problems.is_empty(), committed) {
            (false, _) => "FAILED",
            (true, Ok(None)) => "unrecorded",
            (true, _) => "ok",
        };
        println!("{}: {status}", exp.id);
        failures.extend(problems.into_iter().map(|p| format!("{}: {p}", exp.id)));
    }
    if failures.is_empty() {
        let _ = fs::remove_dir_all(&fresh_dir);
    } else {
        println!("regenerated tables kept in {}", fresh_dir.display());
    }
    failures
}

/// The command line: `list`, `run <id>…|all`, `check <id>…|all`. Exit code
/// 0, 1 (a shape failed or a table drifted) or 2 (usage).
pub fn main(args: &[String], results: &Path) -> u8 {
    let (code, lines) = match dispatch(args, results) {
        Ok(failures) if failures.is_empty() => return 0,
        Ok(failures) => (1, failures),
        Err(usage) => (2, vec![usage]),
    };
    for line in lines {
        eprintln!("error: {line}");
    }
    code
}

/// Runs the command; `Ok` holds one line per failed experiment, `Err` a
/// usage error.
fn dispatch(args: &[String], results: &Path) -> Result<Vec<String>, String> {
    let usage = "usage: gfl-experiments list | run <id>...|all | check <id>...|all";
    gfl_tensor::check_env().map_err(|e| e.to_string())?;
    let name = ScaleName::from_env()?;
    match args.split_first() {
        Some((list, [])) if list == "list" => {
            for exp in EXPERIMENTS {
                let files: Vec<&str> = exp.outputs.iter().map(|o| o.file).collect();
                let (id, title, claim, files) = (exp.id, exp.title, exp.claim, files.join(", "));
                println!(
                    "{id:22} {title}\n{:22} claim: {claim}\n{:22} writes: {files}",
                    "", ""
                );
            }
            Ok(Vec::new())
        }
        Some((command, ids)) if !ids.is_empty() => match command.as_str() {
            "run" => Ok(run(&resolve(ids)?, name, results)),
            "check" => Ok(check(&resolve(ids)?, name, results)),
            _ => Err(usage.to_string()),
        },
        _ => Err(usage.to_string()),
    }
}
