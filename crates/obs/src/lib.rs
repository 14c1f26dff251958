//! Deterministic observability for the Group-FEL simulator.
//!
//! `gfl-obs` gives every run a measurement substrate — spans, metrics, and a
//! JSONL trace file — without ever touching simulation state. The design
//! invariant is simple and absolute:
//!
//! > **Timing flows out of the simulation, never back in.** A
//! > [`TraceCollector`] observes wall-clock durations and event tallies, but
//! > no simulated quantity (RNG draws, aggregation order, cost accounting)
//! > depends on anything the collector records. Runs are therefore
//! > bit-identical with tracing on, off, or at any thread count — a property
//! > asserted by the determinism suite in `gfl-core`.
//!
//! Three layers (see `docs/OBSERVABILITY.md` for the full catalog):
//!
//! * [`span::SpanRecord`] — timed intervals in the hierarchy
//!   `round > group_round > client_step`, plus `aggregate`, `eval`,
//!   `regroup`, `upload_retry` and the synthetic `train` / `comm` phase
//!   spans. Timestamps are nanoseconds relative to collector creation
//!   (monotonic clock).
//! * [`metrics::MetricsRegistry`] — named counters, gauges, and fixed-bucket
//!   histograms. The engine records per-round phase times, pool utilization
//!   and steal counts (from `gfl_parallel::stats`), allocations per round
//!   (via [`alloc`]), fault/churn/regroup tallies, simulated cost, and
//!   cumulative `comm.bytes.*` link traffic.
//! * [`trace`] — a versioned JSONL sink ([`trace::Trace::save`]) and the
//!   [`trace::TraceReader`] tests use to assert on runs structurally.
//!
//! # Collection modes
//!
//! Spans land in one of [`SHARDS`] mutex-guarded buffers keyed by
//! [`gfl_parallel::worker_index`], so pool workers almost never contend on a
//! shared lock. From there:
//!
//! * **In-memory** ([`TraceCollector::new`]): shards grow unbounded and
//!   [`TraceCollector::finish`] freezes everything into a [`Trace`].
//! * **Streaming** ([`TraceCollector::streaming_to`]): shards drain to a
//!   JSONL v2 writer at every round barrier ([`TraceCollector::record_round`])
//!   and spill early if a shard's slice of [`StreamConfig::span_buffer_cap`]
//!   fills, so buffered-span memory stays bounded for arbitrarily long runs.
//!   The streamed file is byte-identical to what the in-memory path would
//!   have serialized for the same run (same barrier layout, same
//!   deterministic [`span::SpanRecord::sort_key`] order within each round).
//!
//! The collector is designed for a disabled-by-default world: when no
//! collector is attached the instrumented code paths are `Option::None`
//! checks with zero allocations and zero atomics on the hot loop.

pub mod alloc;
pub mod diff;
pub mod metrics;
pub mod span;
pub mod stream;
pub mod trace;

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use metrics::{Counter, Gauge, Histogram, MetricsError, MetricsRegistry, MetricsSnapshot};
pub use span::{SpanAttrs, SpanKind, SpanRecord};
pub use stream::StreamConfig;
pub use trace::{
    RoundMetrics, RunSummary, SpanTotal, Trace, TraceError, TraceMeta, TraceReader, SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
};

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

struct StreamState {
    sink: stream::StreamSink,
    /// Per-shard buffered-span cap (`span_buffer_cap / SHARDS`, min 1).
    per_shard_cap: usize,
    /// Thread count frozen into the meta line at construction.
    threads: u64,
    /// Retain streamed spans in memory too (tee mode, for byte-identity
    /// proofs in tests). Defeats the memory bound; not for production runs.
    retain: bool,
}

/// Collects spans, per-round metrics, and registry metrics for one run.
///
/// Cheap to share (`Arc`), safe to record into from worker threads. Spans
/// land in sharded mutex-guarded buffers (shard keyed by pool worker);
/// round records and the lock-free [`MetricsRegistry`] complete the state.
pub struct TraceCollector {
    start: Instant,
    shards: Vec<Mutex<Vec<SpanRecord>>>,
    rounds: Mutex<Vec<RoundMetrics>>,
    metrics: MetricsRegistry,
    /// Running per-kind aggregates (indexed by `SpanKind as usize`), so the
    /// summary never needs the retained span list.
    kind_counts: [AtomicU64; SpanKind::ALL.len()],
    kind_total_ns: [AtomicU64; SpanKind::ALL.len()],
    /// Spans currently buffered across all shards, and the high-water mark
    /// (proves the streaming memory bound in tests).
    buffered: AtomicUsize,
    buffered_high_water: AtomicUsize,
    stream: Option<StreamState>,
    /// Tee-mode copy of everything handed to the stream.
    retained: Mutex<Vec<SpanRecord>>,
}

impl TraceCollector {
    fn build(stream: Option<StreamState>) -> Arc<Self> {
        Arc::new(TraceCollector {
            start: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            rounds: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
            kind_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            kind_total_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            buffered: AtomicUsize::new(0),
            buffered_high_water: AtomicUsize::new(0),
            stream,
            retained: Mutex::new(Vec::new()),
        })
    }

    /// Creates an in-memory collector; the monotonic clock starts now.
    pub fn new() -> Arc<Self> {
        Self::build(None)
    }

    /// Creates a streaming collector writing schema-v2 JSONL to `path`.
    ///
    /// The meta line (recording `threads`) is written and flushed
    /// immediately; spans stream out at round barriers and the summary at
    /// [`Self::finish`]. Buffered spans never exceed
    /// [`Self::span_buffer_bound`].
    pub fn streaming_to(path: &Path, threads: usize, cfg: StreamConfig) -> io::Result<Arc<Self>> {
        let file = File::create(path)?;
        Ok(Self::streaming(Box::new(file), threads, cfg))
    }

    /// Streaming collector over an arbitrary writer (see
    /// [`Self::streaming_to`]).
    pub fn streaming(
        writer: Box<dyn Write + Send>,
        threads: usize,
        cfg: StreamConfig,
    ) -> Arc<Self> {
        Self::build(Some(Self::stream_state(writer, threads, cfg, false)))
    }

    /// Streaming collector that *also* retains every span in memory, so
    /// tests can compare the streamed bytes against the in-memory
    /// serialization of the same run. Defeats the memory bound on purpose.
    pub fn streaming_tee(
        writer: Box<dyn Write + Send>,
        threads: usize,
        cfg: StreamConfig,
    ) -> Arc<Self> {
        Self::build(Some(Self::stream_state(writer, threads, cfg, true)))
    }

    fn stream_state(
        writer: Box<dyn Write + Send>,
        threads: usize,
        cfg: StreamConfig,
        retain: bool,
    ) -> StreamState {
        let threads = threads as u64;
        let meta = TraceMeta {
            schema_version: SCHEMA_VERSION,
            producer: trace::producer(),
            threads,
        };
        StreamState {
            sink: stream::StreamSink::new(writer, &meta, &cfg),
            per_shard_cap: (cfg.span_buffer_cap / SHARDS).max(1),
            threads,
            retain,
        }
    }

    /// Nanoseconds since the collector was created (monotonic).
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start_ns` (from [`Self::now_ns`]) and
    /// ends now; returns that end timestamp.
    pub fn record_span(&self, kind: SpanKind, start_ns: u64, attrs: SpanAttrs) -> u64 {
        let end = self.now_ns();
        self.record_span_at(kind, start_ns, end, attrs);
        end
    }

    /// Records a span with explicit start and end timestamps.
    pub fn record_span_at(&self, kind: SpanKind, start_ns: u64, end_ns: u64, attrs: SpanAttrs) {
        let rec = SpanRecord {
            kind,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            round: attrs.round,
            group_round: attrs.group_round,
            group: attrs.group,
            client: attrs.client,
            bytes: attrs.bytes,
        };
        let ki = rec.kind as usize;
        self.kind_counts[ki].fetch_add(1, Ordering::Relaxed);
        self.kind_total_ns[ki].fetch_add(rec.dur_ns, Ordering::Relaxed);

        let shard = &self.shards[shard_index()];
        let mut buf = shard.lock().unwrap();
        if let Some(stream) = &self.stream {
            if buf.len() >= stream.per_shard_cap {
                // Mid-round overflow: spill this shard straight to the
                // writer so buffered memory stays bounded. Spilled spans
                // leave barrier order but remain schema-valid.
                let mut spill = std::mem::take(&mut *buf);
                self.buffered.fetch_sub(spill.len(), Ordering::Relaxed);
                spill.sort_by_key(SpanRecord::sort_key);
                if stream.retain {
                    self.retained.lock().unwrap().extend(spill.iter().copied());
                }
                stream.sink.write_spans(&spill);
                spill.clear();
                *buf = spill;
            }
        }
        buf.push(rec);
        drop(buf);
        let now = self.buffered.fetch_add(1, Ordering::Relaxed) + 1;
        self.buffered_high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Appends one round's phase breakdown and tallies.
    ///
    /// In streaming mode this is the flush barrier: all buffered spans drain
    /// to the writer in [`SpanRecord::sort_key`] order ahead of the round
    /// record, reproducing the canonical layout of [`Trace::write_jsonl`].
    pub fn record_round(&self, metrics: RoundMetrics) {
        if let Some(stream) = &self.stream {
            let batch = self.drain_shards();
            if stream.retain {
                self.retained.lock().unwrap().extend(batch.iter().copied());
            }
            stream.sink.write_round(&batch, &metrics);
        }
        self.rounds.lock().unwrap().push(metrics);
    }

    /// Drains every shard, returning the batch sorted by
    /// [`SpanRecord::sort_key`].
    fn drain_shards(&self) -> Vec<SpanRecord> {
        let mut batch = Vec::new();
        for shard in &self.shards {
            batch.append(&mut shard.lock().unwrap());
        }
        self.buffered.fetch_sub(batch.len(), Ordering::Relaxed);
        batch.sort_by_key(SpanRecord::sort_key);
        batch
    }

    /// The named-metric registry (counters / gauges / histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Number of rounds recorded so far.
    pub fn rounds_recorded(&self) -> usize {
        self.rounds.lock().unwrap().len()
    }

    /// Spans currently buffered in the shards (not yet streamed out).
    pub fn buffered_spans(&self) -> usize {
        self.buffered.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Self::buffered_spans`] over the collector's
    /// lifetime. In streaming mode this never exceeds
    /// [`Self::span_buffer_bound`].
    pub fn max_buffered_spans(&self) -> usize {
        self.buffered_high_water.load(Ordering::Relaxed)
    }

    /// The hard bound on buffered spans: `per-shard cap × SHARDS` when
    /// streaming (the configured [`StreamConfig::span_buffer_cap`] rounded
    /// up to at least one span per shard), `usize::MAX` in-memory.
    pub fn span_buffer_bound(&self) -> usize {
        match &self.stream {
            Some(s) => s.per_shard_cap * SHARDS,
            None => usize::MAX,
        }
    }

    fn span_totals(&self) -> Vec<SpanTotal> {
        SpanKind::ALL
            .iter()
            .filter_map(|&kind| {
                let count = self.kind_counts[kind as usize].load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                Some(SpanTotal {
                    kind,
                    count,
                    total_ns: self.kind_total_ns[kind as usize].load(Ordering::Relaxed),
                })
            })
            .collect()
    }

    /// Freezes the collector into a [`Trace`]: spans in canonical barrier
    /// order, per-round metrics in round order, and a computed
    /// [`RunSummary`].
    ///
    /// `threads` is recorded in the trace meta line for reproducibility; a
    /// streaming collector already froze its thread count at construction
    /// and ignores the argument. In streaming mode this also writes any
    /// trailing spans plus the summary line and flushes the file — the
    /// returned `Trace` carries spans only in tee mode.
    pub fn finish(&self, threads: usize) -> Trace {
        let wall_ns = self.now_ns();
        let rounds = self.rounds.lock().unwrap().clone();
        let summary = trace::summarize_with_totals(
            wall_ns,
            self.span_totals(),
            &rounds,
            self.metrics.snapshot(),
        );
        let drained = self.drain_shards();
        let (threads, spans) = match &self.stream {
            Some(stream) => {
                stream.sink.finalize(&drained, &summary);
                let spans = if stream.retain {
                    let mut spans = std::mem::take(&mut *self.retained.lock().unwrap());
                    spans.extend(drained);
                    trace::canonical_order(&mut spans, &rounds);
                    spans
                } else {
                    Vec::new()
                };
                (stream.threads, spans)
            }
            None => {
                let mut spans = drained;
                trace::canonical_order(&mut spans, &rounds);
                (threads as u64, spans)
            }
        };
        Trace {
            meta: TraceMeta {
                schema_version: SCHEMA_VERSION,
                producer: trace::producer(),
                threads,
            },
            spans,
            rounds,
            summary: Some(summary),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_records_spans_and_rounds() {
        let c = TraceCollector::new();
        let t0 = c.now_ns();
        c.record_span(SpanKind::Round, t0, SpanAttrs::round(3));
        c.record_span_at(
            SpanKind::ClientStep,
            10,
            25,
            SpanAttrs::client_step(3, 1, 0, 7),
        );
        c.metrics().counter("events.faults").add(2);
        c.record_round(RoundMetrics::empty(3));
        let trace = c.finish(4);
        assert_eq!(trace.meta.schema_version, SCHEMA_VERSION);
        assert_eq!(trace.meta.threads, 4);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.rounds.len(), 1);
        let summary = trace.summary.as_ref().unwrap();
        assert_eq!(summary.rounds, 1);
        let faults = summary
            .metrics
            .counters
            .iter()
            .find(|c| c.name == "events.faults")
            .unwrap();
        assert_eq!(faults.value, 2);
        // Spans sorted by start.
        assert!(trace.spans[0].start_ns <= trace.spans[1].start_ns);
    }

    /// Shared in-memory sink for asserting on streamed bytes.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn record_two_rounds(c: &TraceCollector) {
        for round in 0..2usize {
            for client in 0..5usize {
                let t = (round * 100 + client) as u64;
                c.record_span_at(
                    SpanKind::ClientStep,
                    t,
                    t + 10,
                    SpanAttrs::client_step(round, 0, 0, client),
                );
            }
            let t0 = (round * 100) as u64;
            c.record_span_at(SpanKind::Round, t0, t0 + 90, SpanAttrs::round(round));
            c.record_round(RoundMetrics::empty(round));
        }
    }

    #[test]
    fn streamed_bytes_match_the_in_memory_serialization() {
        let buf = SharedBuf::default();
        let c = TraceCollector::streaming_tee(Box::new(buf.clone()), 3, StreamConfig::default());
        record_two_rounds(&c);
        let trace = c.finish(99); // streaming froze threads=3 at creation
        assert_eq!(trace.meta.threads, 3);
        let streamed = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(streamed, trace.to_jsonl());
        // And the file round-trips through the reader.
        let parsed = TraceReader::parse(&streamed).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn streaming_buffered_spans_respect_the_configured_bound() {
        let buf = SharedBuf::default();
        let cfg = StreamConfig {
            span_buffer_cap: SHARDS, // one span per shard
            ..StreamConfig::default()
        };
        let c = TraceCollector::streaming(Box::new(buf.clone()), 1, cfg);
        // Everything lands on shard 0 (no pool workers here), so the second
        // span already forces a spill.
        for i in 0..100usize {
            let t = i as u64;
            c.record_span_at(
                SpanKind::ClientStep,
                t,
                t + 1,
                SpanAttrs::client_step(0, 0, 0, i),
            );
        }
        c.record_round(RoundMetrics::empty(0));
        assert!(c.max_buffered_spans() <= c.span_buffer_bound());
        assert_eq!(c.buffered_spans(), 0, "barrier must drain all shards");
        let trace = c.finish(1);
        assert!(trace.spans.is_empty(), "non-tee streaming retains nothing");
        let parsed =
            TraceReader::parse(&String::from_utf8(buf.0.lock().unwrap().clone()).unwrap()).unwrap();
        assert_eq!(parsed.spans.len(), 100, "no span lost to spills");
        assert_eq!(parsed.summary, trace.summary);
    }

    #[test]
    fn in_memory_and_streaming_summaries_agree_span_for_span() {
        let mem = TraceCollector::new();
        record_two_rounds(&mem);
        let buf = SharedBuf::default();
        let st = TraceCollector::streaming(Box::new(buf.clone()), 2, StreamConfig::default());
        record_two_rounds(&st);
        let mem_trace = mem.finish(2);
        let st_trace = st.finish(2);
        let mem_summary = mem_trace.summary.as_ref().unwrap();
        let st_summary = st_trace.summary.as_ref().unwrap();
        assert_eq!(mem_summary.span_totals, st_summary.span_totals);
        assert_eq!(mem_summary.rounds, st_summary.rounds);
    }
}
