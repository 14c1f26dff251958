//! The one JSONL trace writer: bounded-memory span streaming.
//!
//! A streaming collector buffers spans in per-worker shards and writes them
//! at deterministic *barriers* — round boundaries, where the engine records
//! its [`crate::RoundMetrics`] — ahead of the round record, in
//! [`crate::span::SpanRecord::sort_key`] order. The meta line is written at
//! construction and the writer is flushed at every barrier, so a crash loses
//! at most the round in flight, and the surviving prefix parses (the reader
//! reports a cut final line as [`crate::trace::TraceError::Truncated`]).
//! This is the only code that writes a trace file.
//!
//! Every line is printed straight into one reused buffer in front of the
//! writer ([`crate::trace::tagged_line`]): no `Value` tree and no `String`
//! per line.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use serde::Serialize;

use crate::span::SpanRecord;
use crate::trace::{tagged_line, RoundMetrics, RunSummary, TraceMeta};

/// The writer and the buffer every line is rendered into; the buffer is
/// handed to the writer once it holds [`serde_json::SPILL_BYTES`], and at
/// every flush.
struct Lines {
    sink: Box<dyn Write + Send>,
    buf: Vec<u8>,
}

impl Lines {
    fn line<T: Serialize>(&mut self, tag: &str, record: &T) {
        tagged_line(tag, record, &mut self.buf);
        self.buf.push(b'\n');
        if self.buf.len() >= serde_json::SPILL_BYTES {
            self.spill();
        }
    }

    fn spill(&mut self) {
        self.sink.write_all(&self.buf).expect("trace stream: write");
        self.buf.clear();
    }

    fn flush(&mut self) {
        self.spill();
        self.sink.flush().expect("trace stream: flush");
    }
}

/// Number of span-buffer shards. Pool worker `i` writes to shard
/// `1 + i % (SHARDS - 1)`; every non-pool thread (the region caller,
/// single-threaded runs) shares shard 0.
pub const SHARDS: usize = 16;

fn shard_index() -> usize {
    match gfl_parallel::worker_index() {
        Some(i) => 1 + i % (SHARDS - 1),
        None => 0,
    }
}

/// Tuning for a streaming collector.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Maximum spans buffered in memory across all shards. When a shard's
    /// slice of the budget fills mid-round, it spills straight to the
    /// writer (out of barrier order, still schema-valid). Rounded up to at
    /// least one span per shard; see
    /// [`crate::TraceCollector::span_buffer_bound`] for the effective
    /// bound.
    pub span_buffer_cap: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            span_buffer_cap: 65_536,
        }
    }
}

/// Sharded span buffers in front of one writer. All writes panic on I/O
/// failure: a trace sink that stops accepting bytes mid-run has no
/// recovery path, and silently dropping telemetry would defeat the point.
pub(crate) struct StreamSink {
    shards: Vec<Mutex<Vec<SpanRecord>>>,
    /// Per-shard buffered-span cap (`span_buffer_cap / SHARDS`, min 1).
    per_shard_cap: usize,
    /// Spans currently buffered across all shards, and the high-water mark
    /// (proves the memory bound in tests).
    buffered: AtomicUsize,
    high_water: AtomicUsize,
    /// Thread count frozen into the meta line at construction.
    pub(crate) threads: u64,
    w: Mutex<Lines>,
}

impl StreamSink {
    /// Wraps `writer` and immediately writes (and flushes) the meta line,
    /// so even a run that crashes in round 0 leaves a parseable header.
    pub(crate) fn new(writer: Box<dyn Write + Send>, meta: &TraceMeta, cfg: &StreamConfig) -> Self {
        let mut w = Lines {
            sink: writer,
            buf: Vec::new(),
        };
        w.line("meta", meta);
        w.flush();
        StreamSink {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            per_shard_cap: (cfg.span_buffer_cap / SHARDS).max(1),
            buffered: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            threads: meta.threads,
            w: Mutex::new(w),
        }
    }

    /// Buffers one span in the calling worker's shard. A full shard first
    /// spills straight to the writer so buffered memory stays bounded;
    /// spilled spans leave barrier order but remain schema-valid.
    pub(crate) fn push(&self, rec: SpanRecord) {
        let mut buf = self.shards[shard_index()].lock().unwrap();
        if buf.len() >= self.per_shard_cap {
            self.buffered.fetch_sub(buf.len(), Ordering::Relaxed);
            buf.sort_by_key(SpanRecord::sort_key);
            drop(self.write(&buf));
            buf.clear();
        }
        buf.push(rec);
        drop(buf);
        let now = self.buffered.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// One round barrier: every buffered span, sorted, then the round
    /// record, then a flush.
    pub(crate) fn barrier(&self, round: &RoundMetrics) {
        let mut w = self.write(&self.drain());
        w.line("round", round);
        w.flush();
    }

    /// End of run: trailing spans that belong to no barrier, the summary
    /// line, and a final flush.
    pub(crate) fn finalize(&self, summary: &RunSummary) {
        let mut w = self.write(&self.drain());
        w.line("summary", summary);
        w.flush();
    }

    /// Drains every shard, returning the batch sorted by
    /// [`SpanRecord::sort_key`].
    fn drain(&self) -> Vec<SpanRecord> {
        let mut batch = Vec::new();
        for shard in &self.shards {
            batch.append(&mut shard.lock().unwrap());
        }
        self.buffered.fetch_sub(batch.len(), Ordering::Relaxed);
        batch.sort_by_key(SpanRecord::sort_key);
        batch
    }

    /// Appends `spans` and hands back the still-locked writer.
    fn write(&self, spans: &[SpanRecord]) -> MutexGuard<'_, Lines> {
        let mut w = self.w.lock().unwrap();
        for s in spans {
            w.line("span", s);
        }
        w
    }

    pub(crate) fn buffered(&self) -> usize {
        self.buffered.load(Ordering::Relaxed)
    }

    pub(crate) fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    pub(crate) fn bound(&self) -> usize {
        self.per_shard_cap * SHARDS
    }
}
