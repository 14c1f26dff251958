//! The registry held to its artifacts: every committed table is claimed,
//! parses and passes its row's shape; the rows that train nothing
//! regenerate byte for byte; the docs quote what the tables say.
//!
//! Nothing here trains (a training row takes minutes unoptimised) and
//! nothing reads `GFL_SCALE` — the scale is passed explicitly, so
//! `GFL_SCALE=1 cargo test` (the core scale suites' switch) stays green.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use gfl_experiments::registry::{check, resolve, results_dir};
use gfl_experiments::{Experiment, ScaleName, EXPERIMENTS};

const SCALES: [ScaleName; 2] = [ScaleName::Small, ScaleName::Paper];

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn results() -> PathBuf {
    repo().join("results")
}

fn row(id: &str) -> &'static Experiment {
    resolve(&[id.to_string()]).expect("registered id")[0]
}

fn read(path: &str) -> String {
    fs::read_to_string(repo().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn ids_and_output_files_are_unique() {
    let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), EXPERIMENTS.len());
    let files = EXPERIMENTS.iter().flat_map(|e| e.outputs).map(|o| o.file);
    let distinct: BTreeSet<&str> = files.clone().collect();
    assert_eq!(distinct.len(), files.count(), "two rows write one file");
}

#[test]
fn every_results_file_is_claimed_and_every_output_is_recorded() {
    let claimed: BTreeSet<&str> = EXPERIMENTS
        .iter()
        .flat_map(|e| e.outputs)
        .map(|o| o.file)
        .collect();
    for scale in SCALES {
        let dir = results_dir(&results(), scale);
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                assert_eq!(path, results().join("paper"), "stray directory");
                continue;
            }
            let stem = path.file_stem().unwrap().to_str().unwrap();
            let is_csv = path.extension().is_some_and(|e| e == "csv");
            assert!(
                is_csv && claimed.contains(stem),
                "no row claims {}",
                path.display()
            );
        }
    }
    for file in claimed {
        let path = results().join(format!("{file}.csv"));
        assert!(path.exists(), "{} is not recorded", path.display());
    }
}

#[test]
fn committed_tables_parse_and_pass_their_rows_shape() {
    for scale in SCALES {
        for exp in EXPERIMENTS {
            let committed = exp.committed(&results_dir(&results(), scale));
            let Some(tables) = committed.unwrap_or_else(|e| panic!("{}: {e}", exp.id)) else {
                assert_eq!(scale, ScaleName::Paper, "{} is unrecorded", exp.id);
                continue;
            };
            if let Err(why) = (exp.shape)(&exp.scale.at(scale), &tables) {
                panic!(
                    "{} at {scale:?}: committed tables fail the shape: {why}",
                    exp.id
                );
            }
        }
    }
}

/// The rows that train nothing.
const ANALYTIC: [&str; 5] = ["fig2a", "fig8", "fig6", "backdoor_e2e", "robust_defense"];

#[test]
fn analytic_rows_regenerate_equal_to_results() {
    let rows: Vec<&Experiment> = ANALYTIC.iter().map(|id| row(id)).collect();
    assert_eq!(
        check(&rows, ScaleName::Small, &results()),
        Vec::<String>::new()
    );
}

#[test]
fn a_perturbed_cell_fails_check_naming_file_row_and_column() {
    let dir = std::env::temp_dir().join(format!("gfl-registry-test-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let committed = fs::read_to_string(results().join("fig8.csv")).unwrap();
    let mut lines: Vec<String> = committed.lines().map(String::from).collect();
    let mut cells: Vec<&str> = lines[3].split(',').collect();
    assert_ne!(cells[3], "9.99");
    cells[3] = "9.99";
    lines[3] = cells.join(",");
    fs::write(dir.join("fig8.csv"), lines.join("\n") + "\n").unwrap();

    let failures = check(&[row("fig8")], ScaleName::Small, &dir);
    fs::remove_dir_all(&dir).unwrap();
    assert!(
        failures
            .iter()
            .any(|f| f.contains("fig8.csv row 3 column cifar_secagg")),
        "{failures:?}"
    );
}

#[test]
fn an_unknown_id_and_a_bad_scale_exit_2() {
    let exit = |scale: Option<&str>, args: &[&str]| {
        let mut command = Command::new(env!("CARGO_BIN_EXE_gfl-experiments"));
        command.args(args).env_remove("GFL_SCALE");
        if let Some(scale) = scale {
            command.env("GFL_SCALE", scale);
        }
        command.output().unwrap().status.code()
    };
    assert_eq!(exit(None, &["list"]), Some(0));
    assert_eq!(exit(Some("paper"), &["list"]), Some(0));
    assert_eq!(exit(None, &["run", "fig2a", "nope"]), Some(2));
    assert_eq!(exit(None, &["check", "nope"]), Some(2));
    assert_eq!(exit(Some("nope"), &["list"]), Some(2));
    assert_eq!(exit(Some("smoke"), &["run", "fig2a"]), Some(2));
    assert_eq!(exit(None, &["run"]), Some(2));
    assert_eq!(exit(None, &["regenerate", "all"]), Some(2));
    // A GFL_SIMD or GFL_THREADS value that names nothing, as in `gfl`.
    for env in
        "GFL_SIMD=neon GFL_SIMD=avx9 GFL_THREADS=abc GFL_THREADS=-1 GFL_THREADS=1.5".split(' ')
    {
        let (var, value) = env.split_once('=').unwrap();
        let mut list = Command::new(env!("CARGO_BIN_EXE_gfl-experiments"));
        list.arg("list").env(var, value);
        assert_eq!(list.output().unwrap().status.code(), Some(2), "{env}");
    }
}

/// The `<!-- measured: <id> <scale> -->` blocks of EXPERIMENTS.md, as
/// `(id, scale, fenced text)`, and the document with the blocks cut out.
fn measured_blocks(doc: &str) -> (Vec<(String, ScaleName, String)>, String) {
    let (mut blocks, mut prose) = (Vec::new(), String::new());
    let mut rest = doc;
    while let Some(start) = rest.find("<!-- measured: ") {
        prose.push_str(&rest[..start]);
        let (tag, after) = rest[start + 15..].split_once(" -->\n```text\n").unwrap();
        let (body, tail) = after.split_once("\n```\n<!-- /measured -->").unwrap();
        let (id, scale) = tag.split_once(' ').unwrap();
        let scale = match scale {
            "small" => ScaleName::Small,
            "paper" => ScaleName::Paper,
            other => panic!("block {id}: unknown scale {other}"),
        };
        blocks.push((id.to_string(), scale, body.to_string()));
        rest = tail;
    }
    prose.push_str(rest);
    (blocks, prose)
}

#[test]
fn experiments_md_blocks_are_what_the_committed_tables_say() {
    let (blocks, _) = measured_blocks(&read("EXPERIMENTS.md"));
    let mut documented = BTreeSet::new();
    for (id, scale, quoted) in &blocks {
        let exp = row(id);
        let dir = results_dir(&results(), *scale);
        let tables = exp
            .committed(&dir)
            .unwrap()
            .expect("a documented table is recorded");
        let rendered = exp.report(&exp.scale.at(*scale), &tables).unwrap();
        assert_eq!(
            quoted, &rendered,
            "EXPERIMENTS.md block `{id}` at {scale:?} is stale"
        );
        documented.insert((id.as_str(), *scale == ScaleName::Paper));
    }
    for exp in EXPERIMENTS {
        assert!(
            documented.contains(&(exp.id, false)),
            "{} has no measured block",
            exp.id
        );
        let recorded_at_paper = exp.committed(&results().join("paper")).unwrap().is_some();
        assert_eq!(
            documented.contains(&(exp.id, true)),
            recorded_at_paper,
            "{}",
            exp.id
        );
    }
}

/// Decimal numbers in `text` (`12.5`, not `§7.2`'s cross-references).
fn decimals(text: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut token = String::new();
    for ch in text.chars().chain([' ']) {
        if ch.is_ascii_digit() || ch == '.' || (ch == '§' && token.is_empty()) {
            token.push(ch);
            continue;
        }
        let number = token.trim_end_matches('.');
        let is_decimal = number.contains('.') && number.starts_with(|c: char| c.is_ascii_digit());
        if is_decimal {
            found.push(number.to_string());
        }
        token.clear();
    }
    found
}

#[test]
fn experiments_md_prose_quotes_no_measured_decimals() {
    // Outside the measured blocks a decimal is either a configured value in
    // a code span (`alpha=0.1`) or a row of the marked history table, whose
    // `now` column must repeat its experiment's measured block.
    let (blocks, prose) = measured_blocks(&read("EXPERIMENTS.md"));
    let (before, history) = prose.split_once("<!-- history -->\n").unwrap();
    let (history, after) = history.split_once("<!-- /history -->").unwrap();
    for part in [before, after] {
        let outside_code: String = part.split('`').step_by(2).collect();
        assert_eq!(decimals(&outside_code), Vec::<String>::new());
    }
    for line in history.lines().skip(2) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let (id, now) = (cells[1].trim_matches('`'), cells[4]);
        let quoted: Vec<&String> = blocks.iter().filter(|b| b.0 == id).map(|b| &b.2).collect();
        assert!(
            !quoted.is_empty(),
            "history row `{id}` has no measured block"
        );
        for number in decimals(now) {
            assert!(
                quoted.iter().any(|block| block.contains(&number)),
                "history row `{id}` quotes {number}, which its measured block does not"
            );
        }
    }
}

#[test]
fn every_id_the_docs_quote_is_registered_and_every_row_is_documented() {
    let docs = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "docs/FAULTS.md",
        "docs/ASYNC.md",
        "docs/SCALE.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ];
    for doc in docs {
        let text = read(doc);
        for (at, _) in text.match_indices("gfl-experiments ") {
            let line = text[at + 16..].lines().next().unwrap_or("");
            let mut words = line.trim_start_matches("-- ").split_whitespace();
            if !matches!(words.next(), Some("run" | "check")) {
                continue;
            }
            for word in words {
                // The command ends at the first word carrying punctuation.
                let id = word.trim_end_matches(['`', ',', ';', ')', '.']);
                let is_id =
                    !id.is_empty() && id.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                if !is_id {
                    break;
                }
                let known = id == "all" || EXPERIMENTS.iter().any(|e| e.id == id);
                assert!(known, "{doc} quotes unregistered `{id}`");
                if id.len() < word.len() {
                    break;
                }
            }
        }
    }
    let index = read("DESIGN.md") + &read("EXPERIMENTS.md");
    for exp in EXPERIMENTS {
        assert!(
            index.contains(&format!("`{}`", exp.id)),
            "{} is in neither index",
            exp.id
        );
    }
}
