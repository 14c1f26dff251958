//! Span records: timed intervals in the run hierarchy.
//!
//! The span tree mirrors Algorithm 1's structure:
//!
//! ```text
//! round t
//! ├── train                  (sampling + outage filter + all group rounds)
//! │   └── group_round k      (one local-SGD epoch across sampled groups)
//! │       └── client_step    (one client's K_t local steps, worker thread)
//! ├── aggregate              (ledger charge + degradation + Line-15 merge,
//! │   └── upload_retry        excluding retry time, reported as `comm`)
//! ├── eval                   (holdout evaluation, on cadence)
//! └── regroup                (self-healing heal pass, when churn is enabled)
//! ```
//!
//! The four phase spans (`train`, `aggregate`, `eval`, `comm`) are disjoint
//! by construction — `comm` (upload-retry handling) is subtracted from the
//! `aggregate` interval — so their sum is a lower bound on round wall time
//! and per-round coverage can be computed without double counting.

use serde::{Deserialize, Serialize};

/// What a span measured. Serialized as the variant name (e.g. `"Round"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// One global round `t` (the whole round skeleton, `Trainer::drive`).
    Round,
    /// Synthetic phase span: sampling + outage filtering + local training.
    Train,
    /// One group-round `k` within a round: all sampled groups' client steps.
    GroupRound,
    /// One client's local-SGD unit, recorded from the worker thread.
    ClientStep,
    /// Cost charging, graceful degradation, and the Line-15 weighted merge.
    Aggregate,
    /// One upload retry burst for a group whose upload initially failed.
    UploadRetry,
    /// Synthetic phase span: total upload-retry (communication) time.
    Comm,
    /// Holdout evaluation.
    Eval,
    /// A self-healing regroup (heal) pass.
    Regroup,
}

impl SpanKind {
    /// All kinds, in schema order (stable for summary tables).
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Round,
        SpanKind::Train,
        SpanKind::GroupRound,
        SpanKind::ClientStep,
        SpanKind::Aggregate,
        SpanKind::UploadRetry,
        SpanKind::Comm,
        SpanKind::Eval,
        SpanKind::Regroup,
    ];

    /// Lower-case label used in summary tables and docs.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Round => "round",
            SpanKind::Train => "train",
            SpanKind::GroupRound => "group_round",
            SpanKind::ClientStep => "client_step",
            SpanKind::Aggregate => "aggregate",
            SpanKind::UploadRetry => "upload_retry",
            SpanKind::Comm => "comm",
            SpanKind::Eval => "eval",
            SpanKind::Regroup => "regroup",
        }
    }
}

/// One recorded span. Timestamps are nanoseconds since collector creation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    pub kind: SpanKind,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Global round `t`, when the span belongs to one.
    pub round: Option<u64>,
    /// Group-round index `k` within the round.
    pub group_round: Option<u64>,
    /// Group id, for group- and client-scoped spans.
    pub group: Option<u64>,
    /// Client id, for `client_step` spans.
    pub client: Option<u64>,
    /// Bytes moved by this span, for `comm`/`upload_retry` spans.
    pub bytes: Option<u64>,
}

/// The total order [`SpanRecord::sort_key`] sorts by: timestamps first,
/// then every identity attribute.
pub type SpanSortKey = (
    u64,
    u64,
    u8,
    Option<u64>,
    Option<u64>,
    Option<u64>,
    Option<u64>,
    Option<u64>,
);

impl SpanRecord {
    /// Total order the writer merges shards in: timestamps first, then
    /// every identity attribute. Two spans with identical timings from
    /// different workers (possible on coarse clocks) still land in one
    /// deterministic order.
    pub fn sort_key(&self) -> SpanSortKey {
        (
            self.start_ns,
            self.dur_ns,
            self.kind as u8,
            self.round,
            self.group_round,
            self.group,
            self.client,
            self.bytes,
        )
    }
}

/// Optional attributes attached to a span (all default to `None`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAttrs {
    pub round: Option<u64>,
    pub group_round: Option<u64>,
    pub group: Option<u64>,
    pub client: Option<u64>,
    pub bytes: Option<u64>,
}

impl SpanAttrs {
    /// Attributes for a round-scoped span.
    pub fn round(t: usize) -> Self {
        SpanAttrs {
            round: Some(t as u64),
            ..SpanAttrs::default()
        }
    }

    /// Attributes for a group-round span (`round t`, `group_round k`).
    pub fn group_round(t: usize, k: usize) -> Self {
        SpanAttrs {
            round: Some(t as u64),
            group_round: Some(k as u64),
            ..SpanAttrs::default()
        }
    }

    /// Attributes for a group-scoped span within a round.
    pub fn group(t: usize, group: usize) -> Self {
        SpanAttrs {
            round: Some(t as u64),
            group: Some(group as u64),
            ..SpanAttrs::default()
        }
    }

    /// Attributes for a client-step span.
    pub fn client_step(t: usize, k: usize, group: usize, client: usize) -> Self {
        SpanAttrs {
            round: Some(t as u64),
            group_round: Some(k as u64),
            group: Some(group as u64),
            client: Some(client as u64),
            bytes: None,
        }
    }

    /// Attaches a byte count (wire traffic the span accounts for).
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.bytes = Some(bytes);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_kind_round_trips_through_json() {
        for kind in SpanKind::ALL {
            let json = serde_json::to_string(&kind).unwrap();
            let back: SpanKind = serde_json::from_str(&json).unwrap();
            assert_eq!(kind, back);
        }
    }

    #[test]
    fn span_record_round_trips_through_json() {
        let rec = SpanRecord {
            kind: SpanKind::ClientStep,
            start_ns: 123,
            dur_ns: 456,
            round: Some(7),
            group_round: Some(1),
            group: Some(2),
            client: Some(40),
            bytes: Some(4096),
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: SpanRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn sort_key_breaks_timestamp_ties_by_identity() {
        let base = SpanRecord {
            kind: SpanKind::ClientStep,
            start_ns: 10,
            dur_ns: 5,
            round: Some(0),
            group_round: Some(0),
            group: Some(0),
            client: Some(3),
            bytes: None,
        };
        let other = SpanRecord {
            client: Some(1),
            ..base
        };
        // Identical timings, different clients: the key still orders them.
        assert!(other.sort_key() < base.sort_key());
        assert_eq!(base.sort_key(), base.sort_key());
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = SpanKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), SpanKind::ALL.len());
    }
}
