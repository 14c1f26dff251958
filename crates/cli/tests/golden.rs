//! Stdout goldens for `gfl simulate`: bytes this code did not produce.
//!
//! The five `BENCHMARK.json` workloads' flag sets (`benchmark/src/workloads.rs`,
//! without `--metrics`, whose table carries wall-clock figures, and without
//! `--threads`, so the suite runs at whatever `GFL_THREADS` says) at a shape
//! small enough for a debug-profile test, at seeds 1 and 5. The files under
//! `tests/golden/` were written by the release binary of the commit *before*
//! the flag table existed; every later parser has to reproduce them, byte for
//! byte, with `N threads` masked. `hostile-observed` also pins the bytes of
//! its `--csv` and `--async-csv` artifacts at seed 1, and its `--checkpoint`
//! section by section: one FNV-1a digest per top-level key and one per event
//! kind, so a moved byte names the section it moved in.
//!
//! `GFL_BLESS=1 cargo test -p gfl-cli --test golden` rewrites the files; do
//! that only with a change that means to move stdout, and commit the diff.

use std::path::Path;

use gfl_core::checkpoint::Checkpoint;
use gfl_core::history::Event;
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

/// The artifacts `hostile-observed` writes: `(flag, file name)`. The trace
/// carries wall-clock timings, so it is written but not compared.
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
    for seed in [1u64, 5] {
        let mut argv: Vec<String> = format!("simulate --seed {seed} {flags}")
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let dir = std::env::temp_dir().join(format!("gfl_golden_{}_{seed}", std::process::id()));
        let observed = workload == "hostile-observed";
        if observed {
            std::fs::create_dir_all(&dir).unwrap();
            for (flag, file) in OUTPUTS {
                argv.extend([flag.to_string(), dir.join(file).display().to_string()]);
            }
        }
        let mut out = Vec::new();
        let code = gfl_cli::run(&argv, &mut out);
        let stdout = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{workload} seed {seed} failed:\n{stdout}");
        // `wrote /tmp/…/csv` → `wrote csv`: the recording ran in its cwd.
        let stdout = mask_threads(&stdout).replace(&format!("{}/", dir.display()), "");
        check(&format!("{workload}.seed{seed}.txt"), stdout.as_bytes());
        if observed {
            if seed == 1 {
                for (_, file) in &OUTPUTS[1..] {
                    let text = std::fs::read_to_string(dir.join(file)).unwrap();
                    let name = format!("{workload}.seed{seed}");
                    match *file {
                        "checkpoint.json" => check(
                            &format!("{name}.checkpoint.digests"),
                            checkpoint_digests(&text).as_bytes(),
                        ),
                        _ => check(&format!("{name}.{file}"), text.as_bytes()),
                    }
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
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
