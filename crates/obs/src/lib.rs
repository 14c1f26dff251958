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
//!   histograms. [`TraceCollector::record_round`] maps each round record
//!   onto the round families (phase times, pool utilization, cost, fault
//!   and client tallies, cumulative `comm.bytes.*` link traffic); opt-in
//!   subsystems add their own.
//! * [`trace`] — the versioned JSONL schema, written only by the
//!   [`stream`] writer, and the [`trace::TraceReader`] that parses it back.
//!
//! # Two collectors
//!
//! * **Streaming** ([`TraceCollector::streaming_to`]): spans land in one of
//!   [`SHARDS`] mutex-guarded buffers keyed by
//!   [`gfl_parallel::worker_index`], drain to the JSONL writer at every
//!   round barrier ([`TraceCollector::record_round`]) and spill early if a
//!   shard's slice of [`StreamConfig::span_buffer_cap`] fills, so
//!   buffered-span memory stays bounded for arbitrarily long runs.
//! * **Counting** ([`TraceCollector::new`]): keeps no spans at all — it only
//!   bumps the per-kind count and duration totals the [`RunSummary`] is
//!   built from, with no lock and no buffer. `--metrics` without a trace
//!   file runs on this.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use metrics::{Counter, Gauge, Histogram, MetricsError, MetricsRegistry, MetricsSnapshot};
pub use span::{SpanAttrs, SpanKind, SpanRecord};
pub use stream::{StreamConfig, SHARDS};
pub use trace::{
    RoundMetrics, RunSummary, SpanTotal, Trace, TraceError, TraceMeta, TraceReader, SCHEMA_VERSION,
};

/// Collects spans, per-round metrics, and registry metrics for one run.
///
/// Cheap to share (`Arc`), safe to record into from worker threads. Every
/// span bumps lock-free per-kind totals; a streaming collector also hands
/// it to its writer. Round records and the lock-free [`MetricsRegistry`]
/// complete the state.
pub struct TraceCollector {
    start: Instant,
    rounds: Mutex<Vec<RoundMetrics>>,
    metrics: MetricsRegistry,
    /// Running per-kind aggregates (indexed by `SpanKind as usize`), so the
    /// summary never needs the spans themselves.
    kind_counts: [AtomicU64; SpanKind::ALL.len()],
    kind_total_ns: [AtomicU64; SpanKind::ALL.len()],
    stream: Option<stream::StreamSink>,
}

impl TraceCollector {
    fn build(stream: Option<stream::StreamSink>) -> Arc<Self> {
        Arc::new(TraceCollector {
            start: Instant::now(),
            rounds: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
            kind_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            kind_total_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            stream,
        })
    }

    /// Creates a counting collector — per-kind span totals, round records
    /// and metrics, no spans kept; the monotonic clock starts now.
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
        let meta = TraceMeta::new(threads as u64);
        Self::build(Some(stream::StreamSink::new(writer, &meta, &cfg)))
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
        let dur_ns = end_ns.saturating_sub(start_ns);
        self.kind_counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        self.kind_total_ns[kind as usize].fetch_add(dur_ns, Ordering::Relaxed);
        if let Some(stream) = &self.stream {
            stream.push(SpanRecord {
                kind,
                start_ns,
                dur_ns,
                round: attrs.round,
                group_round: attrs.group_round,
                group: attrs.group,
                client: attrs.client,
                bytes: attrs.bytes,
            });
        }
    }

    /// Appends one round's phase breakdown and tallies, and folds it into
    /// the round metric families: `rounds.total`, `events.faults`,
    /// `clients.trained`, `comm.bytes.*`, the `cost.total` and
    /// `pool.utilization` gauges and the `round.*_ms` phase histograms.
    ///
    /// For a streaming collector this is the flush barrier: all buffered
    /// spans drain to the writer in [`SpanRecord::sort_key`] order ahead of
    /// the round record.
    pub fn record_round(&self, round: RoundMetrics) {
        let m = &self.metrics;
        for (name, value) in [
            ("rounds.total", 1),
            ("events.faults", round.fault_events),
            ("clients.trained", round.clients_trained),
            (
                "comm.bytes.client_edge",
                round.client_edge_bytes.unwrap_or(0),
            ),
            ("comm.bytes.edge_cloud", round.edge_cloud_bytes.unwrap_or(0)),
        ] {
            m.counter(name).add(value);
        }
        m.gauge("cost.total").set(round.cost_total);
        m.gauge("pool.utilization").set(round.pool_utilization);
        for (name, ns) in [
            ("round.train_ms", round.train_ns),
            ("round.aggregate_ms", round.aggregate_ns),
            ("round.comm_ms", round.comm_ns),
            ("round.eval_ms", round.eval_ns),
        ] {
            let ms = ns as f64 / 1e6;
            m.histogram(name, &metrics::PHASE_MS_BUCKETS).observe(ms);
        }
        if let Some(stream) = &self.stream {
            stream.barrier(&round);
        }
        self.rounds.lock().unwrap().push(round);
    }

    /// The named-metric registry (counters / gauges / histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Spans currently buffered in the shards (not yet streamed out).
    pub fn buffered_spans(&self) -> usize {
        self.stream.as_ref().map_or(0, |s| s.buffered())
    }

    /// High-water mark of [`Self::buffered_spans`] over the collector's
    /// lifetime; never above [`Self::span_buffer_bound`].
    pub fn max_buffered_spans(&self) -> usize {
        self.stream.as_ref().map_or(0, |s| s.high_water())
    }

    /// The hard bound on buffered spans: `per-shard cap × SHARDS` when
    /// streaming (the configured [`StreamConfig::span_buffer_cap`] rounded
    /// up to at least one span per shard), 0 for a counting collector.
    pub fn span_buffer_bound(&self) -> usize {
        self.stream.as_ref().map_or(0, |s| s.bound())
    }

    /// Ends the run: per-round metrics in round order and a computed
    /// [`RunSummary`], under a meta line. The returned [`Trace`] carries no
    /// spans — a streaming collector has written them, and writes any
    /// trailing spans plus the summary line and flushes here; a counting
    /// collector never kept them.
    ///
    /// `threads` is recorded in the meta line; a streaming collector
    /// already froze its thread count at construction and ignores it.
    pub fn finish(&self, threads: usize) -> Trace {
        let rounds = self.rounds.lock().unwrap().clone();
        let summary = RunSummary {
            wall_ns: self.now_ns(),
            rounds: rounds.len() as u64,
            coverage: trace::phase_coverage(&rounds),
            span_totals: trace::span_totals(|kind| {
                let i = kind as usize;
                let count = self.kind_counts[i].load(Ordering::Relaxed);
                (count, self.kind_total_ns[i].load(Ordering::Relaxed))
            }),
            metrics: self.metrics.snapshot(),
        };
        let threads = match &self.stream {
            Some(stream) => {
                stream.finalize(&summary);
                stream.threads
            }
            None => threads as u64,
        };
        Trace {
            meta: TraceMeta::new(threads),
            spans: Vec::new(),
            rounds,
            summary: Some(summary),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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

    /// Streams what `record` records into a buffer at `threads` and `cfg`;
    /// returns what [`TraceCollector::finish`] returned and the bytes.
    pub(crate) fn streamed_with(
        threads: usize,
        cfg: StreamConfig,
        record: impl FnOnce(&TraceCollector),
    ) -> (Trace, String) {
        let buf = SharedBuf::default();
        let c = TraceCollector::streaming(Box::new(buf.clone()), threads, cfg);
        record(&c);
        let trace = c.finish(99);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        (trace, text)
    }

    /// [`streamed_with`] at one thread and the default configuration.
    pub(crate) fn streamed(record: impl FnOnce(&TraceCollector)) -> (Trace, String) {
        streamed_with(1, StreamConfig::default(), record)
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
    fn collector_records_spans_and_rounds() {
        let record = |c: &TraceCollector| {
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
        };
        let (trace, text) = streamed_with(3, StreamConfig::default(), record);
        // Streaming froze threads = 3 at creation; finish(99) cannot move it.
        assert_eq!(trace.meta.threads, 3);
        assert!(trace.spans.is_empty(), "the spans went to the writer");
        let back = TraceReader::parse(&text).unwrap();
        assert_eq!((&back.meta, &back.rounds), (&trace.meta, &trace.rounds));
        assert_eq!(back.summary, trace.summary);
        assert_eq!(back.spans.len(), 2);
        assert!(back.spans[0].start_ns <= back.spans[1].start_ns);
        let summary = trace.summary.as_ref().unwrap();
        assert_eq!(summary.rounds, 1);
        assert_eq!(summary.metrics.counter("events.faults"), Some(2));
        assert_eq!(summary.metrics.counter("rounds.total"), Some(1));

        let counting = TraceCollector::new();
        record(&counting);
        let trace = counting.finish(4);
        assert_eq!(trace.meta.threads, 4);
        assert!(trace.spans.is_empty());
        assert_eq!(trace.summary.unwrap().span_totals.len(), 2);
    }

    #[test]
    fn streaming_buffered_spans_respect_the_configured_bound() {
        let cfg = StreamConfig {
            span_buffer_cap: SHARDS, // one span per shard
        };
        let (trace, text) = streamed_with(1, cfg, |c| {
            // Everything lands on shard 0 (no pool workers here), so the
            // second span already forces a spill.
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
        });
        let parsed = TraceReader::parse(&text).unwrap();
        assert_eq!(parsed.spans.len(), 100, "no span lost to spills");
        assert_eq!(parsed.summary, trace.summary);
    }

    #[test]
    fn in_memory_and_streaming_summaries_agree_span_for_span() {
        let counting = TraceCollector::new();
        record_two_rounds(&counting);
        assert_eq!(counting.max_buffered_spans(), 0, "counting buffers nothing");
        let (st_trace, _) = streamed(record_two_rounds);
        let counted = counting.finish(2).summary.unwrap();
        let st_summary = st_trace.summary.unwrap();
        assert_eq!(counted.span_totals, st_summary.span_totals);
        assert_eq!(counted.rounds, st_summary.rounds);
        assert_eq!(counted.metrics.counters, st_summary.metrics.counters);
    }
}
