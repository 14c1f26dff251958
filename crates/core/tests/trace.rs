//! End-to-end trace acceptance: a traced paper-shaped run must stream a
//! JSONL trace that (a) round-trips through [`gfl_obs::TraceReader`]
//! faithfully and (b) accounts ≥ 95% of every round's wall-clock time
//! across the four disjoint phase spans (train / aggregate / comm / eval).

use std::collections::BTreeSet;
use std::sync::Mutex;

use gfl_core::local::LocalScratch;
use gfl_core::prelude::*;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_nn::Params;
use gfl_obs::{SpanKind, TraceCollector, TraceReader};
use gfl_sim::Topology;
use gfl_tensor::init::GflRng;
use gfl_tensor::Scalar;
use gfl_test_support::{for_each_thread_count, tiny_world, twins, Streamed};

/// A paper_vision-shaped federation (§7.2: K=5, E=2, batch 32, vision
/// model, CoV grouping, stabilized weighting), scaled down from 60 to 24
/// clients and 3 global rounds so the test stays fast in debug builds.
fn paper_shaped() -> (Trainer, Vec<Group>, usize) {
    let data = SyntheticSpec::vision_like().generate(1_200, 1);
    let (train, test) = data.split_holdout(6);
    let partition = ClientPartition::dirichlet(
        &train,
        &PartitionSpec {
            num_clients: 24,
            alpha: 0.1,
            min_size: 10,
            max_size: 80,
            seed: 1,
        },
    );
    let topology = Topology::even_split(3, partition.sizes());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 3,
            max_cov: 0.5,
        },
        &topology,
        &partition.label_matrix,
        1,
    );
    let mut config = GroupFelConfig::paper_vision();
    config.global_rounds = 3;
    config.sampled_groups = config.sampled_groups.min(groups.len());
    config.eval_every = 1;
    config.cost_budget = None;
    config.seed = 1;
    let rounds = config.global_rounds;
    (
        Trainer::try_new(
            config,
            gfl_nn::zoo::vision_model(),
            (train, partition),
            test,
        )
        .unwrap(),
        groups,
        rounds,
    )
}

#[test]
fn paper_shaped_trace_round_trips_and_covers_rounds() {
    let (trainer, groups, rounds) = paper_shaped();
    // --- File round-trip: stream JSONL to disk, read it back, compare
    // with what the collector handed back faithfully.
    let path = std::env::temp_dir().join(format!("gfl_trace_test_{}.jsonl", std::process::id()));
    let obs = TraceCollector::streaming_to(&path, 1, gfl_obs::StreamConfig::default())
        .expect("open trace sink");
    let trainer = trainer.with_observer(std::sync::Arc::clone(&obs));
    let history = trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
    assert_eq!(history.records().len(), rounds);
    let trace = obs.finish(1);
    let back = TraceReader::read(&path).expect("trace must parse");
    std::fs::remove_file(&path).ok();

    assert_eq!(back.meta, trace.meta);
    assert_eq!(back.meta.schema_version, gfl_obs::SCHEMA_VERSION);
    assert_eq!(back.meta.threads, 1);
    assert_eq!(
        back.rounds, trace.rounds,
        "rounds must round-trip unchanged"
    );
    assert_eq!(back.summary, trace.summary, "summary must round-trip");
    let summary = back.summary.as_ref().expect("summary record present");
    assert_eq!(back.span_totals(), summary.span_totals, "every span landed");
    assert_eq!(summary.rounds, rounds as u64);

    // --- Structure: every round carries the full phase-span complement.
    assert_eq!(back.rounds.len(), rounds);
    assert_eq!(back.span_count(SpanKind::Round), rounds);
    assert_eq!(back.span_count(SpanKind::Train), rounds);
    assert_eq!(back.span_count(SpanKind::Aggregate), rounds);
    assert_eq!(back.span_count(SpanKind::Eval), rounds);
    assert!(back.span_count(SpanKind::ClientStep) > 0);

    // --- Coverage: the four disjoint phases must account for ≥ 95% of
    // every round's wall-clock time (the acceptance bar for the layer).
    for r in &back.rounds {
        let covered = r.train_ns + r.aggregate_ns + r.comm_ns + r.eval_ns;
        assert!(
            covered <= r.wall_ns,
            "round {}: phases ({covered} ns) exceed wall ({} ns)",
            r.round,
            r.wall_ns
        );
        assert!(
            r.coverage() >= 0.95,
            "round {}: phase spans cover only {:.1}% of wall-clock time",
            r.round,
            r.coverage() * 100.0
        );
        assert!(r.clients_trained > 0);
        assert!(r.cost_total > 0.0);
    }
    assert!(back.round_coverage() >= 0.95);

    // --- Metrics made it into the summary.
    let metrics = &summary.metrics;
    assert_eq!(
        metrics.counter("rounds.total"),
        Some(rounds as u64),
        "rounds.total counter"
    );
    assert!(metrics.counter("clients.trained").unwrap_or(0) > 0);
    assert!(metrics.gauge("cost.total").unwrap_or(0.0) > 0.0);

    // --- Byte accounting (schema v2): every round carries per-link wire
    // bytes and they sum into the comm.bytes.* counters.
    for r in &back.rounds {
        assert!(
            r.client_edge_bytes.unwrap_or(0) > 0,
            "round {}: no client-edge bytes",
            r.round
        );
        assert!(
            r.edge_cloud_bytes.unwrap_or(0) > 0,
            "round {}: no edge-cloud bytes",
            r.round
        );
    }
    let ce_sum: u64 = back.rounds.iter().filter_map(|r| r.client_edge_bytes).sum();
    let ec_sum: u64 = back.rounds.iter().filter_map(|r| r.edge_cloud_bytes).sum();
    assert_eq!(metrics.counter("comm.bytes.client_edge"), Some(ce_sum));
    assert_eq!(metrics.counter("comm.bytes.edge_cloud"), Some(ec_sum));
}

#[test]
fn streaming_collector_keeps_span_memory_bounded_on_a_paper_shaped_run() {
    // A deliberately tiny buffer (4 spans per shard) forces mid-round
    // spills on a run producing thousands of client-step spans. The
    // collector must (a) never buffer more than its configured bound,
    // (b) drain to zero at every round barrier, and (c) still stream a
    // complete, parseable trace.
    let (trainer, groups, rounds) = paper_shaped();
    let path = std::env::temp_dir().join(format!(
        "gfl_stream_bound_test_{}.jsonl",
        std::process::id()
    ));
    let obs = TraceCollector::streaming_to(
        &path,
        1,
        gfl_obs::StreamConfig {
            span_buffer_cap: 4 * gfl_obs::SHARDS,
        },
    )
    .expect("open trace sink");
    let trainer = trainer.with_observer(std::sync::Arc::clone(&obs));
    trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);

    let bound = obs.span_buffer_bound();
    assert_eq!(bound, 4 * gfl_obs::SHARDS);
    assert!(
        obs.max_buffered_spans() <= bound,
        "buffered {} spans, bound {bound}",
        obs.max_buffered_spans()
    );
    assert_eq!(obs.buffered_spans(), 0, "round barrier must drain shards");

    let trace = obs.finish(1);
    assert!(
        trace.spans.is_empty(),
        "streaming must not retain spans in memory"
    );
    let back = TraceReader::read(&path).expect("streamed trace parses");
    std::fs::remove_file(&path).ok();
    assert_eq!(back.rounds.len(), rounds);
    let summary = back.summary.as_ref().expect("summary present");
    assert_eq!(summary.rounds, rounds as u64);
    // The streamed file holds far more spans than the collector was ever
    // allowed to buffer — the memory bound is real, not slack.
    assert!(
        back.spans.len() > bound,
        "run produced {} spans, bound {bound}: cap never exercised",
        back.spans.len()
    );
}

#[test]
fn counting_collector_buffers_no_span_and_counts_what_a_stream_writes() {
    // `TraceCollector::new()` (what `--metrics` alone attaches) keeps no
    // spans: over a whole run it never buffers one, yet its per-kind totals
    // count exactly the spans a streaming collector writes for the same
    // seed, kind by kind.
    let w = tiny_world(12);
    let counting = TraceCollector::new();
    w.trainer()
        .with_observer(std::sync::Arc::clone(&counting))
        .run(&w.groups, &FedAvg, SamplingStrategy::ESRCov);
    assert_eq!(counting.max_buffered_spans(), 0);
    let counted = counting.finish(1).summary.expect("summary").span_totals;

    let streamed = Streamed::new(1);
    w.trainer()
        .with_observer(std::sync::Arc::clone(&streamed.obs))
        .run(&w.groups, &FedAvg, SamplingStrategy::ESRCov);
    let written = streamed.finish().span_totals();
    assert!(!written.is_empty());
    let count = |totals: &[gfl_obs::SpanTotal]| -> Vec<(SpanKind, u64)> {
        totals.iter().map(|t| (t.kind, t.count)).collect()
    };
    assert_eq!(count(&counted), count(&written));
}

/// FedAvg that records the (global round, client) pair of every step
/// reaching local training.
#[derive(Default)]
struct Recording(Mutex<Vec<(usize, usize)>>);

impl LocalUpdate for Recording {
    fn name(&self) -> &'static str {
        "recording"
    }

    fn train(
        &self,
        task: &LocalTask<'_>,
        params: &mut Params,
        scratch: &mut LocalScratch,
        rng: &mut GflRng,
    ) -> Scalar {
        self.0.lock().unwrap().push((task.round, task.client));
        FedAvg.train(task, params, scratch, rng)
    }
}

#[test]
fn shards_derived_counts_each_member_that_trained_once_per_round() {
    // A virtual member derives its shard at its first trained group round
    // and keeps it for the chain's later ones, so `data.shards_derived` is
    // the number of (global round, member) pairs that trained at all —
    // with dropouts and crashes, fewer than the trained steps, and not a
    // function of the thread count.
    let mut t = twins(4);
    t.cfg.group_rounds = 3;
    t.cfg.dropout_prob = 0.3;
    let faults = FaultPlan {
        crash_prob: 0.2,
        ..FaultPlan::none()
    };
    let counted = |trainer: Trainer, threads: usize| {
        let obs = TraceCollector::new();
        let recording = Recording::default();
        trainer
            .with_faults(faults.clone(), FaultPolicy::default(), &t.topo)
            .with_observer(std::sync::Arc::clone(&obs))
            .run(&t.groups, &recording, SamplingStrategy::ESRCov);
        let metrics = obs.finish(threads).summary.expect("summary").metrics;
        let steps = recording.0.into_inner().unwrap();
        let pairs = steps.iter().collect::<BTreeSet<_>>().len() as u64;
        (
            metrics.counter("data.shards_derived"),
            pairs,
            steps.len() as u64,
        )
    };
    for_each_thread_count(&[1, 2, 8], |threads| {
        let (derived, pairs, steps) = counted(t.virt(), threads);
        assert_eq!(derived, Some(pairs), "{threads} threads");
        assert!(0 < pairs && pairs < steps, "{pairs} pairs of {steps} steps");
        let (derived, ..) = counted(t.eager(), threads);
        assert_eq!(derived, None, "materialized runs derive no shard");
    });
}
