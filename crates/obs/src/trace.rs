//! Versioned JSONL trace format: the records, the reader, and the phase
//! coverage fold. The one writer is [`crate::stream`].
//!
//! A trace file is newline-delimited JSON. Every line is an object with a
//! `type` field; the first line is always the `meta` record:
//!
//! ```text
//! {"type":"meta","schema_version":2,"producer":"gfl-obs 0.1.0","threads":8}
//! {"type":"span","kind":"Round","start_ns":...,"dur_ns":...,"bytes":...}
//! {"type":"round","round":0,"train_ns":...,"client_edge_bytes":...,...}
//! {"type":"summary","wall_ns":...,"rounds":...,"span_totals":[...],...}
//! ```
//!
//! ## Schema v2: streaming barrier layout and byte accounting
//!
//! Traces are written in *barrier order*: each round's spans (sorted by
//! [`SpanRecord::sort_key`]) immediately precede that round's `round`
//! record, because the streaming collector flushes its shard buffers at
//! exactly that boundary (a shard that fills mid-round spills early).
//! Spans belonging to no recorded round trail the last round, before the
//! `summary`. v2 carries wire-byte accounting: `bytes` on spans and
//! `client_edge_bytes` / `edge_cloud_bytes` on round records.
//!
//! Readers must ignore unknown record types and unknown fields (forward
//! compatibility); writers bump [`SCHEMA_VERSION`] on breaking changes.
//! [`TraceReader`] reads [`SCHEMA_VERSION`] only and rejects every other
//! version with [`TraceError::UnsupportedVersion`].

use crate::metrics::MetricsSnapshot;
use crate::span::{SpanKind, SpanRecord};
use serde::{Deserialize, JsonWriter, Serialize, Value};
use std::fmt;
use std::path::Path;

/// Version of the JSONL schema emitted (and read) by this crate.
pub const SCHEMA_VERSION: u32 = 2;

/// First line of every trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    pub schema_version: u32,
    /// Producing crate and version, e.g. `"gfl-obs 0.1.0"`.
    pub producer: String,
    /// Parallelism degree the run used (0 = unknown).
    pub threads: u64,
}

impl TraceMeta {
    /// The meta line this build writes: [`SCHEMA_VERSION`], this crate as
    /// producer, and `threads`.
    pub(crate) fn new(threads: u64) -> Self {
        TraceMeta {
            schema_version: SCHEMA_VERSION,
            producer: format!("gfl-obs {}", env!("CARGO_PKG_VERSION")),
            threads,
        }
    }
}

/// One round's phase breakdown and event tallies.
///
/// Phase durations are disjoint: `comm_ns` (upload-retry handling) is
/// excluded from `aggregate_ns`, so
/// `train_ns + aggregate_ns + comm_ns + eval_ns <= wall_ns`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundMetrics {
    /// Global round index `t`.
    pub round: u64,
    /// Whole-round wall time.
    pub wall_ns: u64,
    /// Sampling + outage filtering + local training (all group rounds).
    pub train_ns: u64,
    /// Cost charging + graceful degradation + Line-15 merge (minus comm).
    pub aggregate_ns: u64,
    /// Upload-retry (simulated communication recovery) time.
    pub comm_ns: u64,
    /// Holdout evaluation time (0 when off-cadence).
    pub eval_ns: u64,
    /// Groups that produced an update this round.
    pub groups_trained: u64,
    /// Scheduled client units (members × group rounds of every sampled
    /// group), including crashed, cut and dropped ones.
    pub clients_trained: u64,
    /// Fault events recorded this round.
    pub fault_events: u64,
    /// Cumulative simulated cost after this round (ledger total).
    pub cost_total: f64,
    /// Fork-join regions entered during this round.
    pub pool_regions: u64,
    /// Pool tasks run this round (one per item of a slice helper).
    pub pool_claims: u64,
    /// Claims made by helper workers (not the region caller): "steals".
    pub pool_steals: u64,
    /// Pool busy-time / capacity over this round's regions (0..=1; 0 when no
    /// parallel region ran).
    pub pool_utilization: f64,
    /// Heap allocations during this round (0 unless the binary installs
    /// [`crate::alloc::Counting`] as its global allocator).
    pub allocs: u64,
    /// Simulated client↔edge wire bytes this round (`None` on paths that
    /// do not model communication).
    pub client_edge_bytes: Option<u64>,
    /// Simulated edge↔cloud wire bytes this round, including failed upload
    /// attempts.
    pub edge_cloud_bytes: Option<u64>,
}

impl RoundMetrics {
    /// An all-zero record for round `t` (placeholder for held rounds).
    pub fn empty(t: usize) -> Self {
        RoundMetrics {
            round: t as u64,
            wall_ns: 0,
            train_ns: 0,
            aggregate_ns: 0,
            comm_ns: 0,
            eval_ns: 0,
            groups_trained: 0,
            clients_trained: 0,
            fault_events: 0,
            cost_total: 0.0,
            pool_regions: 0,
            pool_claims: 0,
            pool_steals: 0,
            pool_utilization: 0.0,
            allocs: 0,
            client_edge_bytes: None,
            edge_cloud_bytes: None,
        }
    }

    /// Fraction of this round's wall time covered by the four phase spans.
    pub fn coverage(&self) -> f64 {
        phase_coverage(std::slice::from_ref(self))
    }
}

/// Phase coverage of `rounds`: Σ(train + aggregate + comm + eval) / Σwall,
/// so long rounds weigh what they cost; 1.0 when no wall time was recorded.
/// The one coverage fold — the summary line, [`Trace::round_coverage`] and
/// [`RoundMetrics::coverage`] all use it.
pub fn phase_coverage(rounds: &[RoundMetrics]) -> f64 {
    // Saturating: the values come from parsed (possibly hostile) traces.
    let (covered, wall): (u64, u64) = rounds.iter().fold((0, 0), |(c, w), r| {
        let phases = [r.train_ns, r.aggregate_ns, r.comm_ns, r.eval_ns];
        (
            phases.into_iter().fold(c, u64::saturating_add),
            w.saturating_add(r.wall_ns),
        )
    });
    if wall == 0 {
        1.0
    } else {
        covered as f64 / wall as f64
    }
}

/// Total duration and count for one span kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanTotal {
    pub kind: SpanKind,
    pub count: u64,
    pub total_ns: u64,
}

/// End-of-run rollup: last line of a complete trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Collector lifetime (ns) when the trace was finalized.
    pub wall_ns: u64,
    /// Rounds with a `round` record.
    pub rounds: u64,
    /// Aggregate phase coverage across all rounds ([`phase_coverage`]).
    pub coverage: f64,
    /// Per-kind span totals, in [`SpanKind::ALL`] order (kinds with no
    /// recorded span are omitted).
    pub span_totals: Vec<SpanTotal>,
    /// Snapshot of the metrics registry.
    pub metrics: MetricsSnapshot,
}

/// Per-kind span totals in [`SpanKind::ALL`] order, zero-count kinds
/// omitted, from `of(kind) = (count, total_ns)`.
pub(crate) fn span_totals(of: impl Fn(SpanKind) -> (u64, u64)) -> Vec<SpanTotal> {
    SpanKind::ALL
        .into_iter()
        .map(|kind| {
            let (count, total_ns) = of(kind);
            SpanTotal {
                kind,
                count,
                total_ns,
            }
        })
        .filter(|t| t.count > 0)
        .collect()
}

/// A parsed trace: what [`TraceReader`] reads back from a file, and — with
/// no spans — what [`crate::TraceCollector::finish`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub meta: TraceMeta,
    pub spans: Vec<SpanRecord>,
    pub rounds: Vec<RoundMetrics>,
    pub summary: Option<RunSummary>,
}

impl Trace {
    /// Total recorded duration for one span kind (ns), saturating at
    /// `u64::MAX` on a hostile trace.
    pub fn span_total_ns(&self, kind: SpanKind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .fold(0, |total, s| total.saturating_add(s.dur_ns))
    }

    /// Number of recorded spans of `kind`.
    pub fn span_count(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }

    /// The summary line's per-kind totals, re-derived from the spans (for
    /// a trace cut off before its summary).
    pub fn span_totals(&self) -> Vec<SpanTotal> {
        span_totals(|kind| (self.span_count(kind) as u64, self.span_total_ns(kind)))
    }

    /// Aggregate phase coverage across all recorded rounds
    /// ([`phase_coverage`]).
    pub fn round_coverage(&self) -> f64 {
        phase_coverage(&self.rounds)
    }
}

/// Appends `record` to `out` as one compact JSON object with `"type": tag`
/// injected as its first field (a record that is not an object travels
/// under `"data"`). No newline.
pub(crate) fn tagged_line<T: Serialize>(tag: &str, record: &T, out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"type\":");
    JsonWriter::new(out, false).str(tag);
    let start = out.len();
    record.write_json(&mut JsonWriter::new(out, false));
    match &out[start..] {
        b"{}" => {
            out.truncate(start);
            out.push(b'}');
        }
        // The record's own `{` becomes the comma after the tag; its `}`
        // closes the line.
        [b'{', ..] => out[start] = b',',
        _ => {
            out.splice(start..start, *b",\"data\":");
            out.push(b'}');
        }
    }
}

/// Errors surfaced when parsing a trace file.
#[derive(Debug)]
pub enum TraceError {
    Io(std::io::Error),
    /// A line failed to parse as JSON, or a known record type had the wrong
    /// shape. Carries the 1-based line number and a description.
    Malformed {
        line: usize,
        message: String,
    },
    /// The final line of the file is cut off mid-record (no trailing
    /// newline and invalid JSON) — the signature of a crashed or still
    /// running writer. Distinguished from [`TraceError::Malformed`] so
    /// crash-recovery tooling can treat the prefix as salvageable.
    Truncated {
        line: usize,
        message: String,
    },
    /// The first line is not a `meta` record.
    MissingMeta,
    /// The trace was written by an incompatible schema version.
    UnsupportedVersion(u32),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Malformed { line, message } => {
                write!(f, "malformed trace line {line}: {message}")
            }
            TraceError::Truncated { line, message } => {
                write!(f, "trace truncated mid-record at line {line}: {message}")
            }
            TraceError::MissingMeta => write!(f, "trace does not start with a meta record"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace schema version {v} (this reader reads v{SCHEMA_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Parses JSONL traces back into a [`Trace`]; used by tests to assert on
/// runs structurally.
pub struct TraceReader;

impl TraceReader {
    /// Reads and validates the trace at `path`.
    pub fn read(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text)
    }

    /// Parses a JSONL trace from a string.
    ///
    /// A final line cut off mid-record (invalid JSON with no trailing
    /// newline) is reported as [`TraceError::Truncated`] with its line
    /// number; malformed interior lines as [`TraceError::Malformed`].
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        // A complete JSONL file ends in a newline; a last line without one
        // that also fails to parse was cut off mid-write.
        let last_line_complete = text.ends_with('\n');
        let total_lines = text.lines().count();
        let classify = |no: usize, message: String| {
            if no == total_lines && !last_line_complete {
                TraceError::Truncated { line: no, message }
            } else {
                TraceError::Malformed { line: no, message }
            }
        };
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (first_no, first) = lines.next().ok_or(TraceError::MissingMeta)?;
        let meta: TraceMeta = parse_record(first_no + 1, first, "meta")?;
        if meta.schema_version != SCHEMA_VERSION {
            return Err(TraceError::UnsupportedVersion(meta.schema_version));
        }
        let mut trace = Trace {
            meta,
            spans: Vec::new(),
            rounds: Vec::new(),
            summary: None,
        };
        for (no, line) in lines {
            let no = no + 1;
            let value: Value =
                serde_json::from_str(line).map_err(|e| classify(no, e.to_string()))?;
            let kind =
                value
                    .get("type")
                    .and_then(Value::as_str)
                    .ok_or_else(|| TraceError::Malformed {
                        line: no,
                        message: "record has no `type` field".into(),
                    })?;
            match kind {
                "span" => trace.spans.push(from_line(no, &value)?),
                "round" => trace.rounds.push(from_line(no, &value)?),
                "summary" => trace.summary = Some(from_line(no, &value)?),
                // Unknown record types are skipped for forward compatibility.
                _ => {}
            }
        }
        Ok(trace)
    }
}

/// Parses one line expecting a specific record type tag.
fn parse_record<T: Deserialize>(no: usize, line: &str, expect: &str) -> Result<T, TraceError> {
    let value: Value = serde_json::from_str(line).map_err(|e| TraceError::Malformed {
        line: no,
        message: e.to_string(),
    })?;
    match value.get("type").and_then(Value::as_str) {
        Some(t) if t == expect => from_line(no, &value),
        Some(_) | None if expect == "meta" => Err(TraceError::MissingMeta),
        other => Err(TraceError::Malformed {
            line: no,
            message: format!("expected `{expect}` record, got {other:?}"),
        }),
    }
}

/// Deserializes a record from an already-parsed line value (the extra
/// `type` field is ignored by the derived deserializers).
fn from_line<T: Deserialize>(no: usize, value: &Value) -> Result<T, TraceError> {
    T::from_value(value).map_err(|e| TraceError::Malformed {
        line: no,
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanAttrs;
    use crate::tests::streamed;
    use crate::TraceCollector;

    fn record_sample(c: &TraceCollector) {
        let t0 = c.now_ns();
        c.record_span_at(SpanKind::Train, t0, t0 + 80, SpanAttrs::round(0));
        c.record_span_at(SpanKind::Round, t0, t0 + 100, SpanAttrs::round(0));
        c.metrics().counter("events.faults").add(3);
        let mut rm = RoundMetrics::empty(0);
        rm.wall_ns = 100;
        rm.train_ns = 80;
        rm.aggregate_ns = 15;
        rm.eval_ns = 5;
        c.record_round(rm);
    }

    /// The streamed JSONL of a one-round sample run.
    fn sample_jsonl() -> String {
        streamed(record_sample).1
    }

    #[test]
    fn trace_round_trips_through_jsonl() {
        let (trace, text) = streamed(record_sample);
        let back = TraceReader::parse(&text).expect("parse");
        assert_eq!(back.meta, trace.meta);
        assert_eq!(back.rounds, trace.rounds);
        assert_eq!(back.summary, trace.summary);
        let kinds: Vec<SpanKind> = back.spans.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [SpanKind::Train, SpanKind::Round], "sort_key order");
    }

    #[test]
    fn first_line_is_versioned_meta() {
        let text = sample_jsonl();
        let first = text.lines().next().unwrap();
        let v: Value = serde_json::from_str(first).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("meta"));
        assert_eq!(
            v.get("schema_version").and_then(Value::as_u64),
            Some(SCHEMA_VERSION as u64)
        );
    }

    #[test]
    fn reader_rejects_missing_meta_and_bad_version() {
        assert!(matches!(
            TraceReader::parse("{\"type\":\"span\"}"),
            Err(TraceError::MissingMeta)
        ));
        let wrong = "{\"type\":\"meta\",\"schema_version\":99,\"producer\":\"x\",\"threads\":1}";
        assert!(matches!(
            TraceReader::parse(wrong),
            Err(TraceError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn deep_nesting_is_a_malformed_line_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        match TraceReader::parse(&deep) {
            Err(TraceError::Malformed { line: 1, message }) => {
                assert!(message.contains("recursion limit exceeded"), "{message}")
            }
            other => panic!("expected Malformed error, got {other:?}"),
        }
        let interior = format!("{}{deep}\n", sample_jsonl());
        let lines = interior.lines().count();
        match TraceReader::parse(&interior) {
            Err(TraceError::Malformed { line, .. }) => assert_eq!(line, lines),
            other => panic!("expected Malformed error, got {other:?}"),
        }
    }

    #[test]
    fn reader_refuses_v1_traces_with_a_typed_version_error() {
        // Nothing writes v1 (the pre-byte-accounting schema) any more, so
        // its meta line is refused up front, naming the version.
        let v1 = concat!(
            "{\"type\":\"meta\",\"schema_version\":1,\"producer\":\"gfl-obs 0.1.0\",\"threads\":2}\n",
            "{\"type\":\"span\",\"kind\":\"Round\",\"start_ns\":0,\"dur_ns\":100,\"round\":0,\
             \"group_round\":null,\"group\":null,\"client\":null}\n",
        );
        let err = TraceReader::parse(v1).expect_err("v1 is not read");
        assert!(matches!(err, TraceError::UnsupportedVersion(1)), "{err:?}");
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn mid_line_truncation_is_a_typed_error_with_the_line_number() {
        let text = sample_jsonl();
        // Cut the file mid-way through its 3rd line (a span or round
        // record), like a crashed writer would leave it.
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(text.match_indices('\n').map(|(i, _)| i + 1))
            .collect();
        let cut = line_starts[2] + 25;
        let truncated = &text[..cut];
        assert!(!truncated.ends_with('\n'));
        match TraceReader::parse(truncated) {
            Err(TraceError::Truncated { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected Truncated error, got {other:?}"),
        }
        // The same broken JSON *inside* the file (newline follows) is
        // corruption, not truncation.
        let mut corrupt = String::from(truncated);
        corrupt.push('\n');
        corrupt.push_str(&text[line_starts[3]..]);
        match TraceReader::parse(&corrupt) {
            Err(TraceError::Malformed { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected Malformed error, got {other:?}"),
        }
    }

    #[test]
    fn jsonl_layout_interleaves_round_spans_before_their_round_record() {
        let (_, text) = streamed(|c| {
            for t in 0..2usize {
                let t0 = c.now_ns();
                c.record_span_at(SpanKind::Train, t0, t0 + 10, SpanAttrs::round(t));
                c.record_span_at(SpanKind::Round, t0, t0 + 12, SpanAttrs::round(t));
                c.record_round(RoundMetrics::empty(t));
            }
        });
        let types: Vec<String> = text
            .lines()
            .map(|l| {
                let v: Value = serde_json::from_str(l).unwrap();
                let ty = v.get("type").and_then(Value::as_str).unwrap().to_string();
                let round = v.get("round").and_then(Value::as_u64);
                format!("{ty}{}", round.map(|r| r.to_string()).unwrap_or_default())
            })
            .collect();
        assert_eq!(
            types,
            ["meta", "span0", "span0", "round0", "span1", "span1", "round1", "summary"],
            "full layout: {text}"
        );
    }

    #[test]
    fn reader_skips_unknown_record_types() {
        let mut text = sample_jsonl();
        text.push_str("{\"type\":\"future-record\",\"x\":1}\n");
        let back = TraceReader::parse(&text).expect("unknown types are skipped");
        assert_eq!(back.rounds.len(), 1);
    }

    #[test]
    fn coverage_accounts_phases_against_wall() {
        let (trace, text) = streamed(record_sample);
        let back = TraceReader::parse(&text).unwrap();
        let cov = back.round_coverage();
        assert!(
            (cov - 1.0).abs() < 1e-9,
            "80+15+5 of 100 ns = 1.0, got {cov}"
        );
        assert_eq!(back.span_total_ns(SpanKind::Train), 80);
        assert_eq!(back.span_totals(), trace.summary.unwrap().span_totals);
        // One fold: a long round weighs what it costs, so two rounds of
        // 100% and 0% coverage average to their wall-weighted 10%, not 50%.
        let round = |wall_ns, train_ns| RoundMetrics {
            wall_ns,
            train_ns,
            ..RoundMetrics::empty(0)
        };
        let rounds = [round(10, 10), round(90, 0)];
        assert_eq!(phase_coverage(&rounds), 0.1);
        assert_eq!(rounds[0].coverage(), 1.0);
        assert_eq!(phase_coverage(&[]), 1.0);
    }
}
