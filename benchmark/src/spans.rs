//! The harness's own span recorder and the per-workload ledger built from it.
//!
//! Spans are recorded from outside the program, around child processes and
//! around calls into each crate's public functions, kept in memory and
//! written as JSON lines when the benchmark ends. Tracing inside the program
//! is a later change.
//!
//! ```text
//! <workload>                      root: one traced child, spawn → exit
//! ├── setup | rounds | report     phases, from the stamps on its stdout
//! │   └── <layer>/<probe>         calls into one layer at the workload's shape
//! ```
//!
//! A probe span's parent is the phase its work belongs to; its timestamps are
//! its own (the probe runs in this process, after the child).

use std::io::Write;
use std::time::Instant;

use serde_json::{json, Value};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub workload: String,
    pub layer: String,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// How many calls of the layer's function the span covers.
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn to_json(&self) -> Value {
        json!({
            "id": self.id,
            "parent": self.parent,
            "workload": self.workload,
            "layer": self.layer,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "calls": self.calls,
        })
    }
}

/// In-memory span store with one clock origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span between two instants and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        parent: Option<u64>,
        workload: &str,
        layer: &str,
        name: &str,
        start: Instant,
        end: Instant,
        calls: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            workload: workload.to_string(),
            layer: layer.to_string(),
            name: name.to_string(),
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            calls,
        });
        id
    }

    /// Times `calls` back-to-back calls of one layer function as one span and
    /// returns the seconds per call.
    pub fn time<R>(
        &mut self,
        parent: Option<u64>,
        workload: &str,
        layer: &str,
        name: &str,
        calls: u64,
        body: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let result = std::hint::black_box(body());
        let end = Instant::now();
        self.record(parent, workload, layer, name, start, end, calls);
        let per_call = end.duration_since(start).as_secs_f64() / calls.max(1) as f64;
        (result, per_call)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for span in &self.spans {
            let line = serde_json::to_string(&span.to_json())
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}

/// One line of a ledger: a layer's modelled share of a phase.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    pub layer: String,
    pub name: String,
    /// Exact count from the program's own `--metrics` table or its flags.
    pub calls: f64,
    pub call_s: f64,
    /// `calls × call_s`.
    pub modelled_s: f64,
    /// `modelled_s ÷` the phase's measured time.
    pub share: f64,
}

/// A phase of one workload reconciled against the layers below it.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub workload: String,
    pub phase: String,
    /// The phase as measured on the single-threaded child, where time adds up.
    pub phase_s: f64,
    pub rows: Vec<LedgerRow>,
    /// `phase_s − Σ modelled`, the part no probe accounts for: the engine's
    /// own work in `rounds`, process start-up in `setup`.
    pub remainder_s: f64,
    pub remainder_share: f64,
}

impl Ledger {
    /// Builds a ledger from `(layer, name, calls, seconds per call)` rows.
    pub fn build(
        workload: &str,
        phase: &str,
        phase_s: f64,
        rows: &[(&str, &str, f64, f64)],
    ) -> Self {
        let rows: Vec<LedgerRow> = rows
            .iter()
            .map(|&(layer, name, calls, call_s)| {
                let modelled_s = calls * call_s;
                LedgerRow {
                    layer: layer.to_string(),
                    name: name.to_string(),
                    calls,
                    call_s,
                    modelled_s,
                    share: modelled_s / phase_s,
                }
            })
            .collect();
        let modelled: f64 = rows.iter().map(|r| r.modelled_s).sum();
        Self {
            workload: workload.to_string(),
            phase: phase.to_string(),
            phase_s,
            rows,
            remainder_s: phase_s - modelled,
            remainder_share: 1.0 - modelled / phase_s,
        }
    }

    /// Modelled share of the phase for one layer (all its rows).
    pub fn layer_share(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.layer == layer)
            .fold(0.0, |sum, r| sum + r.share)
    }

    pub fn to_json(&self) -> Value {
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|r| {
                json!({
                    "layer": r.layer, "name": r.name, "calls": r.calls,
                    "call_s": r.call_s, "modelled_s": r.modelled_s, "share": r.share,
                })
            })
            .collect();
        json!({
            "workload": self.workload, "phase": self.phase, "phase_s": self.phase_s,
            "rows": rows, "remainder_s": self.remainder_s,
            "remainder_share": self.remainder_share,
        })
    }

    pub fn print(&self, mut w: impl Write) -> std::io::Result<()> {
        writeln!(
            w,
            "ledger {} / {} ({:.4} s at 1 thread)",
            self.workload, self.phase, self.phase_s
        )?;
        writeln!(
            w,
            "  {:<28} {:>12} {:>12} {:>10} {:>7}",
            "layer/call", "calls", "call", "modelled", "share"
        )?;
        for r in &self.rows {
            writeln!(
                w,
                "  {:<28} {:>12.0} {:>9.2} us {:>8.4} s {:>6.1}%",
                format!("{}/{}", r.layer, r.name),
                r.calls,
                r.call_s * 1e6,
                r.modelled_s,
                r.share * 100.0
            )?;
        }
        writeln!(
            w,
            "  {:<28} {:>12} {:>12} {:>8.4} s {:>6.1}%",
            "remainder",
            "",
            "",
            self.remainder_s,
            self.remainder_share * 100.0
        )
    }
}
