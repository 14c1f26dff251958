//! Stdout goldens for `gfl`, and its determinism table: every row runs
//! in-process at widths 1, 2 and 8 (`set_default_parallelism` on the calling
//! thread) and must print the same stdout, write the same checkpoint and CSV
//! bytes, and a trace that `gfl-trace diff` finds clean at every width.
//!
//! The golden rows are the five `BENCHMARK.json` workloads' flag sets
//! (`benchmark/src/workloads.rs`, without `--metrics`, whose table carries
//! wall-clock figures) at a shape small enough for a debug-profile test, at
//! seeds 1 and 5 (5 at one width), and `dense-train` under each other
//! `--method` at seed 1. The workloads' files under `tests/golden/` were
//! written by the release binary of the commit *before* the flag table
//! existed, the methods' by that of the commit before the strategy became a
//! `&dyn LocalUpdate`; every later binary has to reproduce them, byte for
//! byte, with `N threads` masked. `hostile-observed` also pins the bytes of
//! its `--csv` and `--async-csv` artifacts at seed 1, and its `--checkpoint`
//! section by section: one FNV-1a digest per top-level key and one per event
//! kind, so a moved byte names the section it moved in. Each other row
//! asserts from its own artifacts that it reached its path.
//!
//! `GFL_BLESS=1 cargo test -p gfl-cli --test golden` rewrites the files; do
//! that only with a change that means to move stdout, and commit the diff.

use std::collections::BTreeSet;
use std::path::Path;

use gfl_core::checkpoint::Checkpoint;
use gfl_core::history::Event;
use gfl_faults::{AttackEvent, FaultEvent};
use gfl_test_support::golden::first_divergence;
use serde::Serialize;
use serde_json::Value;

const HOSTILE: &str = "--task speech --samples 7200 --clients 72 --edges 6 --rounds 6 --k 3 \
     --e 1 --sample 12 --eval-every 1 --runtime semi-async --faults moderate --churn moderate \
     --adversary moderate --robust-agg flame";

/// `(workload, flags after --seed)`.
const WORKLOADS: [(&str, &str); 5] = [
    (
        "dense-train",
        "--samples 900 --clients 12 --edges 3 --rounds 2 --k 5 --e 2 --sample 12 --batch 32 \
         --eval-every 1",
    ),
    (
        "secure-covg",
        "--virtual --clients 240 --edges 4 --rounds 2 --k 2 --e 1 --sample 4 --grouping covg \
         --min-gs 10 --secure --dropout 0.1 --faults moderate --eval-every 4",
    ),
    (
        "scale-churn",
        "--virtual --clients 1800 --edges 8 --rounds 4 --k 1 --e 1 --sample 2 --grouping stream \
         --group-size 8 --alpha 0.1 --sampling random --churn moderate --eval-every 4",
    ),
    ("hostile-async", HOSTILE),
    ("hostile-observed", HOSTILE),
];

const WIDTHS: [usize; 3] = [1, 2, 8];

/// The artifacts `hostile-observed` writes: `(flag, file name)`.
const OUTPUTS: [(&str, &str); 4] = [
    ("--trace-out", "trace.jsonl"),
    ("--checkpoint", "checkpoint.json"),
    ("--csv", "csv"),
    ("--async-csv", "async.csv"),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `key digest` per top-level checkpoint key, then `events.kind count
/// digest` per event kind, each over compact JSON.
fn checkpoint_digests(json: &str) -> String {
    let value: Value = serde_json::from_str(json).expect("checkpoint JSON");
    let mut out = String::new();
    for (key, section) in value.as_object().expect("a checkpoint object") {
        let json = serde_json::to_string(section).unwrap();
        out += &format!("{key} {:#018x}\n", fnv1a(json.as_bytes()));
    }
    let cp = Checkpoint::from_json(json).expect("a loadable checkpoint");
    let events = cp.history.events();
    fn kind<'a, T: Serialize + 'a>(name: &str, of_kind: impl Iterator<Item = &'a T>) -> String {
        let lines: Vec<String> = of_kind.map(|e| serde_json::to_string(e).unwrap()).collect();
        let digest = fnv1a(lines.join("\n").as_bytes());
        format!("events.{name} {} {digest:#018x}\n", lines.len())
    }
    out += &kind("fault", events.iter().filter_map(Event::fault));
    out += &kind("attack", events.iter().filter_map(Event::attack));
    out += &kind("regroup", events.iter().filter_map(Event::regroup));
    out += &kind("timed", events.iter().filter_map(Event::timed));
    out
}

fn check(name: &str, actual: &[u8]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    gfl_test_support::golden::check(&path.join(name), actual);
}

/// `… (17226 params, 2 threads)` → `… (17226 params, N threads)`.
fn mask_threads(stdout: &str) -> String {
    let Some(end) = stdout.find(" threads)") else {
        return stdout.to_string();
    };
    let start = stdout[..end].rfind(' ').map_or(0, |i| i + 1);
    format!("{}N{}", &stdout[..start], &stdout[end..])
}

fn replay(workload: &str) {
    let (_, flags) = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .expect("a named workload");
    let observed = workload == "hostile-observed";
    let outputs: &[_] = if observed { &OUTPUTS } else { &[] };
    // Membership places an edge per task: also more workers than edges.
    let widths: &[usize] = match workload {
        "scale-churn" => &[1, 2, 8, 16],
        _ => &WIDTHS,
    };
    for (seed, widths) in [(1u64, widths), (5, &[2][..])] {
        let name = format!("{workload}.seed{seed}");
        let line = format!("simulate --seed {seed} {flags}");
        table(&name, &line, outputs, widths, &|stdout, dir| {
            check(&format!("{name}.txt"), stdout.as_bytes());
            if workload.starts_with("hostile") {
                let flame = stdout.split("filtered (flame ").nth(1).unwrap_or("0");
                assert!(!flame.starts_with('0'), "{name}: no FLAME rejection");
            }
            if observed && seed == 1 {
                for (_, file) in &OUTPUTS[1..] {
                    let text = std::fs::read_to_string(dir.join(file)).unwrap();
                    match *file {
                        "checkpoint.json" => check(
                            &format!("{name}.checkpoint.digests"),
                            checkpoint_digests(&text).as_bytes(),
                        ),
                        _ => check(&format!("{name}.{file}"), text.as_bytes()),
                    }
                }
            }
        });
    }
}

#[test]
fn dense_train_stdout_is_the_parents() {
    replay("dense-train");
}

#[test]
fn secure_covg_stdout_is_the_parents() {
    replay("secure-covg");
}

#[test]
fn scale_churn_stdout_is_the_parents() {
    replay("scale-churn");
}

#[test]
fn hostile_async_stdout_is_the_parents() {
    replay("hostile-async");
}

#[test]
fn hostile_observed_stdout_and_artifacts_are_the_parents() {
    replay("hostile-observed");
}

/// Each local update `--method` picks (FedAvg is `dense-train`'s own row).
#[test]
fn dense_train_methods_stdout_is_the_parents() {
    let (_, flags) = WORKLOADS[0];
    for method in ["fedprox", "scaffold", "fednova"] {
        let name = format!("dense-train.{method}.seed1");
        let line = format!("simulate --seed 1 {flags} --method {method}");
        table(&name, &line, &[], &WIDTHS, &|stdout, _| {
            check(&format!("{name}.txt"), stdout.as_bytes());
        });
    }
}

/// Runs `gfl <line>` at each of `widths`, and asserts that each printed and
/// wrote what the first did; then runs the row's checks on the first's
/// stdout (thread count and directory masked) and `outputs` directory.
fn table(name: &str, line: &str, outputs: &[(&str, &str)], widths: &[usize], first: Check) {
    let run = |width: usize| {
        let dir = std::env::temp_dir().join(format!("gfl_{}_{name}_{width}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        for (flag, file) in outputs {
            argv.extend([flag.to_string(), dir.join(file).display().to_string()]);
        }
        gfl_parallel::set_default_parallelism(width);
        let mut out = Vec::new();
        let code = gfl_cli::run(&argv, &mut out);
        let stdout = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{name} at width {width} failed:\n{stdout}");
        // `wrote /tmp/…/csv` → `wrote csv`: the recording ran in its cwd.
        let stdout = mask_threads(&stdout).replace(&format!("{}/", dir.display()), "");
        (stdout, dir)
    };
    let (stdout, dir) = run(widths[0]);
    for &width in &widths[1..] {
        let (other_stdout, other) = run(width);
        let same = |what: &str, a: &[u8], b: &[u8]| {
            if let Some(at) = first_divergence(a, b) {
                panic!("{name}: {what} at width {width}: {at}");
            }
        };
        same("stdout", stdout.as_bytes(), other_stdout.as_bytes());
        for (_, file) in outputs {
            let (a, b) = (dir.join(file), other.join(file));
            if file.ends_with(".jsonl") {
                let argv = ["diff", a.to_str().unwrap(), b.to_str().unwrap()].map(String::from);
                let code = gfl_cli::trace_cli::run(&argv, &mut Vec::new());
                assert_eq!(code, 0, "{name} trace, width {width}");
            } else {
                same(file, &std::fs::read(a).unwrap(), &std::fs::read(b).unwrap());
            }
        }
        std::fs::remove_dir_all(&other).ok();
    }
    first(&stdout, &dir);
    std::fs::remove_dir_all(&dir).ok();
}

type Check<'a> = &'a dyn Fn(&str, &Path);

/// The edges `Topology::even_split` puts `clients` on under `line`.
fn edges(line: &str, clients: impl Iterator<Item = usize>) -> BTreeSet<usize> {
    let flag = |name: &str| {
        let value = line.split_whitespace().skip_while(|w| *w != name).nth(1);
        value.unwrap().parse::<usize>().unwrap()
    };
    let (edges, n) = (flag("--edges"), flag("--clients"));
    clients.map(|c| c * edges / n).collect()
}

fn events(dir: &Path) -> Vec<Event> {
    let text = std::fs::read_to_string(dir.join("checkpoint.json")).unwrap();
    let cp = Checkpoint::from_json(&text).unwrap();
    cp.history.events().to_vec()
}

fn cut(_: &str, dir: &Path) {
    let cut = |e: &Event| matches!(e.fault(), Some(FaultEvent::StragglerCut { .. }));
    assert!(events(dir).iter().any(cut), "no straggler cut");
}

/// Edges form on the pool: CoVG, VarG, and the materialized set-up (7 200
/// speech rows span several 1 920-row chunks).
#[test]
fn formation_is_width_independent() {
    for line in [
        "group --grouping covg --clients 60 --edges 2 --samples 7200 --min-gs 10 --seed 1 --json",
        "group --grouping varg --clients 60 --edges 2 --samples 7200 --min-gs 10 --seed 1 --json",
        "group --task speech --clients 72 --edges 6 --samples 7200 --seed 1 --json",
    ] {
        let name = line.split_whitespace().nth(2).unwrap();
        table(name, line, &[], &WIDTHS, &|stdout, _| {
            let groups: Vec<Value> = serde_json::from_str(stdout).unwrap();
            let members = groups
                .iter()
                .flat_map(|g| g.get("members").unwrap().as_array());
            let members = members.flatten().map(|m| m.as_u64().unwrap() as usize);
            assert!(edges(line, members).len() >= 2, "groups on one edge");
        });
    }
}

/// A virtual member keeps its shard for its group's K = 3 rounds through
/// dropout, crashes and poisoners; secure sessions recover missed members.
#[test]
fn kept_virtual_shards_are_width_independent() {
    let line = "simulate --seed 1 --virtual --clients 120 --edges 2 --rounds 1 --k 3 --e 1 \
         --sample 2 --grouping covg --min-gs 4 --secure --dropout 0.2 --faults moderate \
         --adversary moderate --eval-every 1";
    table("kept-shards", line, &OUTPUTS[..2], &WIDTHS, &|_, dir| {
        let trace = gfl_obs::TraceReader::read(dir.join("trace.jsonl")).unwrap();
        let metrics = &trace.summary.as_ref().unwrap().metrics;
        let counter = |name| metrics.counter(name).unwrap();
        // Fewer derivations than steps trained on a shard: some member
        // trained on a kept one.
        assert!(counter("data.shards_derived") < counter("data.shard_steps"));
        let crash = |e: &Event| matches!(e.fault(), Some(FaultEvent::ClientCrash { .. }));
        assert!(counter("secagg.sessions") > 0 && events(dir).iter().any(crash));
    });
}

/// Lockstep decides its straggler cuts before a round's graph runs, and a
/// materialized data poisoner derives its shard in its chain.
#[test]
fn lockstep_cuts_are_width_independent() {
    let line = "simulate --seed 1 --clients 12 --edges 3 --samples 600 --rounds 2 --k 3 --e 1 \
         --sample 4 --eval-every 1 --runtime sync --faults moderate --adversary moderate \
         --dropout 0.2";
    table("lockstep", line, &OUTPUTS[1..2], &WIDTHS, &|stdout, dir| {
        cut(stdout, dir);
        let poisoned = |e: &Event| matches!(e.attack(), Some(AttackEvent::BackdoorInjected { .. }));
        assert!(events(dir).iter().any(poisoned));
    });
}

/// The driver cells no row above runs faulted with a checkpoint: lockstep with
/// churn (arrivals placed an edge per task), the event clock without churn.
#[test]
fn driver_cells_are_width_independent() {
    let cell = "simulate --seed 1 --samples 600 --edges 3 --k 2 --e 1 --sample 4 \
         --eval-every 1 --faults moderate --rounds 4";
    let churn = format!("{cell} --clients 24 --runtime sync --churn moderate");
    let placed = |stdout: &str, _: &Path| {
        // `     3  client 16 arrived, placed in group 4`, `… migrated to …`.
        let lines = stdout
            .lines()
            .filter(|l| l.contains(" placed in ") || l.contains(" migrated to "));
        let clients = lines.map(|l| l.split_whitespace().nth(2).unwrap().parse().unwrap());
        assert!(edges(&churn, clients).len() >= 2, "placed on one edge");
    };
    table("sync-churn", &churn, &OUTPUTS[1..2], &WIDTHS, &placed);
    let event = format!("{cell} --clients 12 --runtime semi-async --churn none");
    table("event-static", &event, &OUTPUTS[1..2], &WIDTHS, &cut);
}
