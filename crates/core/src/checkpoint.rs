//! Checkpointing: persist and resume a training session.
//!
//! A [`Checkpoint`] is the serialized form of a [`RunState`], the one
//! thing [`crate::engine::Trainer::drive`] advances: a long federated run
//! (or a §6.1 regrouping schedule) can snapshot it after any global round
//! and pick up where it left off under any clock × membership plan —
//! including across process restarts, since everything in the engine is
//! deterministic given `(seed, round)`.

use std::fs::File;
use std::io;
use std::path::Path;

use gfl_nn::Params;
use gfl_sim::CostLedger;
use serde::{Deserialize, Serialize, Value};

use crate::driver::RunState;
use crate::engine::GroupFelConfig;
use crate::history::RunHistory;
use crate::membership::MembershipState;
use crate::semi_async::SchedulerState;

/// A resumable training snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The global model `x_t`.
    pub params: Params,
    /// Next global round to run (rounds `0..round` are complete).
    pub round: usize,
    /// Evaluation trajectory and event log so far.
    pub history: RunHistory,
    /// The configuration the run was started with.
    pub config: GroupFelConfig,
    /// Cumulative emulated cost so far (Eq. 5).
    pub cost_so_far: f64,
    /// Live membership of a self-healing run (current partition, activity
    /// mask, group health, sampling probabilities) — `None` for static
    /// runs.
    pub membership: Option<MembershipState>,
    /// Scheduler state of a semi-async run (emulated clock, busy edges,
    /// parked stale uploads, the per-round report) — `None` for lockstep
    /// runs.
    pub scheduler: Option<SchedulerState>,
}

/// Current checkpoint format version. Version 2 carries the history as one
/// event log and the semi-async report inside the scheduler state.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Errors from checkpoint IO.
#[derive(Debug)]
pub enum CheckpointError {
    Io(std::io::Error),
    Format(serde_json::Error),
    /// Found version, supported version.
    Version(u32, u32),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::Format(e) => write!(f, "format error: {e}"),
            CheckpointError::Version(found, want) => {
                write!(f, "checkpoint version {found}, supported {want}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Snapshots a run between two [`crate::engine::Trainer::drive`]
    /// calls, under the configuration it was started with.
    pub fn from_state(state: &RunState, config: GroupFelConfig) -> Self {
        Self {
            version: CHECKPOINT_VERSION,
            params: state.params.clone(),
            round: state.next_round,
            history: state.history.clone(),
            config,
            cost_so_far: state.ledger.total(),
            membership: state.membership.clone(),
            scheduler: state.scheduler.clone(),
        }
    }

    /// The run to resume: a self-healing run continues from the healed
    /// partition rather than re-forming, an event-clock run from the same
    /// emulated clock, busy-edge map, parked stale uploads and report — the
    /// resume is bit-identical, not merely approximate. The cost account is
    /// not persisted beyond its total, so the caller supplies the `ledger`
    /// to keep charging (the live one, or
    /// [`crate::engine::Trainer::ledger_for`] after a restart).
    pub fn into_state(self, ledger: CostLedger) -> RunState {
        RunState {
            params: self.params,
            ledger,
            history: self.history,
            next_round: self.round,
            membership: self.membership,
            scheduler: self.scheduler,
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("checkpoint serialization cannot fail")
    }

    /// Parses from JSON. The version is read first, so a checkpoint of
    /// another version is refused by its number, not by whatever field its
    /// shape lacks.
    pub fn from_json(json: &str) -> Result<Self, CheckpointError> {
        let value: Value = serde_json::from_str(json).map_err(CheckpointError::Format)?;
        let version = value.get("version").and_then(Value::as_u64);
        let version = version.and_then(|v| u32::try_from(v).ok());
        if let Some(found) = version.filter(|&v| v != CHECKPOINT_VERSION) {
            return Err(CheckpointError::Version(found, CHECKPOINT_VERSION));
        }
        serde_json::from_value(value).map_err(CheckpointError::Format)
    }

    /// Writes the checkpoint to a file, the bytes of [`Self::to_json`]
    /// streamed through a bounded buffer. The write is atomic: it goes to a
    /// temporary file beside `path` that then replaces `path`, so a failed
    /// or interrupted save leaves whatever was at `path` untouched.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        write_atomically(path.as_ref(), |file| {
            serde_json::to_writer_pretty(file, self).map_err(io::Error::from)
        })
        .map_err(CheckpointError::Io)
    }

    /// Reads a checkpoint from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let json = std::fs::read_to_string(path).map_err(CheckpointError::Io)?;
        Self::from_json(&json)
    }
}

/// Fills a temporary file beside `path` through `write`, then renames it
/// over `path`. If either step fails the temporary file is removed.
fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    let mut name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path names no file"))?
        .to_os_string();
    name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(name);
    let written = File::create(&tmp)
        .and_then(|mut file| write(&mut file))
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RoundRecord;
    use std::io::Write;

    /// A sink that takes `left` bytes, then fails every write.
    struct FailAfter<W> {
        inner: W,
        left: usize,
    }

    impl<W: Write> Write for FailAfter<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::other("device full"));
            }
            let n = self.inner.write(&buf[..buf.len().min(self.left)])?;
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    /// A fresh, empty directory of this process's own.
    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gfl_checkpoint_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entries(dir: &Path) -> Vec<std::ffi::OsString> {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    }

    fn sample() -> Checkpoint {
        let mut history = RunHistory::default();
        history.push(RoundRecord {
            round: 0,
            cost: 12.5,
            accuracy: 0.4,
            loss: 1.2,
            train_loss: 1.5,
            trigger_asr: None,
            flip_asr: None,
        });
        Checkpoint {
            version: CHECKPOINT_VERSION,
            params: vec![0.25, -1.5, 3.0],
            round: 1,
            history,
            config: GroupFelConfig::tiny(),
            cost_so_far: 12.5,
            membership: None,
            scheduler: None,
        }
    }

    #[test]
    fn json_roundtrip() {
        let cp = sample();
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(back.params, cp.params);
        assert_eq!(back.round, 1);
        assert_eq!(back.history.records().len(), 1);
        assert_eq!(back.cost_so_far, 12.5);
        assert_eq!(back.config.global_rounds, cp.config.global_rounds);
    }

    #[test]
    fn file_roundtrip() {
        let cp = sample();
        // Unique per-process path: `cargo test` runs suites in parallel,
        // and a shared fixed name races between them.
        let path = std::env::temp_dir().join(format!(
            "gfl_checkpoint_test_{}_{:p}.json",
            std::process::id(),
            &cp
        ));
        cp.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.params, cp.params);
        let _ = std::fs::remove_file(path);
    }

    /// A checkpoint whose pretty JSON spans several spills of the printer's
    /// buffer.
    fn large() -> Checkpoint {
        let mut cp = sample();
        cp.params = (0..40_000).map(|i| i as f32 * 0.37 - 99.5).collect();
        cp
    }

    #[test]
    fn save_writes_the_bytes_of_to_json_and_leaves_no_temp_file() {
        let dir = fresh_dir("bytes");
        let cp = large();
        let path = dir.join("cp.json");
        cp.save(&path).unwrap();
        let json = cp.to_json();
        assert!(
            json.len() > 4 * serde_json::SPILL_BYTES,
            "{} bytes",
            json.len()
        );
        assert_eq!(std::fs::read(&path).unwrap(), json.as_bytes());
        assert_eq!(entries(&dir), ["cp.json"]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_save_keeps_the_old_checkpoint_and_no_temp_file() {
        let dir = fresh_dir("full");
        let path = dir.join("cp.json");
        sample().save(&path).unwrap();
        let old = std::fs::read(&path).unwrap();
        // The disk fills 70 kB into the new checkpoint's bytes.
        let err = write_atomically(&path, |file| {
            let sink = FailAfter {
                inner: file,
                left: 70_000,
            };
            serde_json::to_writer_pretty(sink, &large()).map_err(io::Error::from)
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(std::fs::read(&path).unwrap(), old, "old checkpoint moved");
        assert_eq!(entries(&dir), ["cp.json"], "temp file left behind");

        // A save whose rename fails (a non-empty directory sits at the
        // path) is an I/O error and cleans up after itself too.
        let blocked = dir.join("blocked");
        std::fs::create_dir(&blocked).unwrap();
        std::fs::write(blocked.join("keep"), b"x").unwrap();
        let err = sample().save(&blocked).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        assert_eq!(
            entries(&dir),
            ["blocked", "cp.json"],
            "temp file left behind"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn writer_failing_after_n_bytes_is_an_error_not_a_panic() {
        let cp = large();
        let json = cp.to_json();
        for left in [0, 1, 70_000, json.len() - 1, json.len()] {
            let mut sink = FailAfter {
                inner: Vec::new(),
                left,
            };
            let result = serde_json::to_writer_pretty(&mut sink, &cp);
            assert_eq!(sink.inner, json.as_bytes()[..left], "prefix at {left}");
            if left < json.len() {
                let err = result.expect_err("a short sink is an error");
                assert_eq!(err.io_error_kind(), Some(io::ErrorKind::Other));
            } else {
                result.unwrap();
            }
        }
    }

    #[test]
    fn v1_checkpoint_is_refused_by_its_version() {
        // A v1 history had one key per log and no `events`; read whole, it
        // would fail on the missing field before its version was looked at.
        let json = sample().to_json().replace(
            "\"events\": []",
            "\"faults\": [],\n    \"regroups\": null,\n    \"asr\": null",
        );
        let v1 = json.replace("\"version\": 2", "\"version\": 1");
        assert!(v1.contains("\"faults\"") && v1 != json);
        assert!(serde_json::from_str::<Checkpoint>(&v1).is_err());
        assert!(matches!(
            Checkpoint::from_json(&v1).unwrap_err(),
            CheckpointError::Version(1, 2)
        ));
    }

    #[test]
    fn scheduler_state_roundtrips_exactly() {
        use crate::semi_async::{AsyncRoundRecord, PendingUpload};
        let sched = SchedulerState {
            clock_s: 1_234.562_500_001,
            busy: vec![(3, 1300.25), (0, 1250.125)],
            pending: vec![PendingUpload {
                group: 3,
                dispatch_round: 7,
                arrival_s: 1300.25,
                samples: 42,
                prob: 0.125,
                uploads: 9,
                members: vec![1, 4, 6],
                params: vec![0.5, -1.25, 3.75],
            }],
            rounds: vec![AsyncRoundRecord {
                round: 0,
                clock_s: 1_234.562_500_001,
                trained: 2,
                admitted: 1,
                stale_admitted: 0,
                stale_dropped: 0,
                busy_skipped: 1,
                cut_reports: 3,
            }],
        };
        let mut cp = sample();
        cp.scheduler = Some(sched.clone());
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        // Exact equality, including every f64: resume bit-identity hangs
        // on the JSON float round-trip being lossless.
        assert_eq!(back.scheduler, Some(sched));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut cp = sample();
        cp.version = 999;
        let json = serde_json::to_string(&cp).unwrap();
        assert!(matches!(
            Checkpoint::from_json(&json).unwrap_err(),
            CheckpointError::Version(999, CHECKPOINT_VERSION)
        ));
    }

    #[test]
    fn garbage_rejected() {
        assert!(matches!(
            Checkpoint::from_json("not json").unwrap_err(),
            CheckpointError::Format(_)
        ));
    }

    #[test]
    fn deep_nesting_is_a_format_error_not_a_stack_overflow() {
        let err = Checkpoint::from_json(&"[".repeat(200_000)).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err:?}");
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
    }

    #[test]
    fn checkpointed_session_resumes_equivalently() {
        // Run 6 rounds straight vs 3 rounds → checkpoint → restore → 3
        // more: the driver must produce the same final model.
        use crate::driver::{Clock, Membership, RunPlan};
        use crate::engine::{form_groups_per_edge, Trainer};
        use crate::grouping::CovGrouping;
        use crate::local::FedAvg;
        use crate::sampling::SamplingStrategy;
        use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
        use gfl_sim::Topology;

        let data = SyntheticSpec::tiny().generate(500, 77);
        let (train, test) = data.split_holdout(5);
        let partition = ClientPartition::dirichlet(&train, &PartitionSpec::tiny(0.5, 77));
        let topology = Topology::even_split(2, partition.sizes());
        let groups = form_groups_per_edge(
            &CovGrouping {
                min_group_size: 2,
                max_cov: 1.0,
            },
            &topology,
            &partition.label_matrix,
            77,
        );
        let mut cfg = GroupFelConfig::tiny();
        cfg.global_rounds = 6;
        cfg.seed = 77;
        let trainer = Trainer::try_new(
            cfg.clone(),
            gfl_nn::zoo::tiny(4, 3),
            (train, partition),
            test,
        )
        .unwrap();
        let probs = trainer.sampling_probs(&groups, SamplingStrategy::Random);
        let plan = RunPlan {
            clock: Clock::Lockstep,
            membership: Membership::Static {
                groups: &groups,
                probs: &probs,
            },
        };

        // Straight 6 rounds.
        let mut straight = trainer.start(&FedAvg);
        trainer.drive(&FedAvg, &plan, &mut straight, 6).unwrap();

        // 3 rounds, checkpoint to JSON, restore, 3 more.
        let mut half = trainer.start(&FedAvg);
        trainer.drive(&FedAvg, &plan, &mut half, 3).unwrap();
        let cp = Checkpoint::from_state(&half, cfg);
        let restored = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(restored.round, 3);
        let mut resumed = restored.into_state(half.ledger);
        trainer.drive(&FedAvg, &plan, &mut resumed, 3).unwrap();
        let (p_straight, p_resumed) = (straight.params, resumed.params);
        for (a, b) in p_straight.iter().zip(p_resumed.iter()) {
            assert!((a - b).abs() < 1e-6, "resume diverged: {a} vs {b}");
        }
    }
}
