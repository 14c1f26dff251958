//! The layers a group round leans on beside training: secure aggregation,
//! the FLAME-style filter, fault and attack decisions, the simulator's
//! queue and ledger, checkpoints, the observer, and the pool's dispatch.

use std::hint::black_box;
use std::time::Instant;

use gfl_core::checkpoint::Checkpoint;
use gfl_faults::{AdversaryPlan, FaultInjector, FaultPlan};
use gfl_obs::{RoundMetrics, SpanAttrs, SpanKind, StreamConfig, TraceCollector, TraceReader};
use gfl_secagg::SecAggSession;
use gfl_sim::event::{EventId, EventQueue};
use gfl_sim::{CommModel, CostLedger, CostModel, GroupOpKind, Task};

use super::{filled, Ctx, Phase};

const HOSTILE: &str = "hostile-async";
const SECURE: &str = "secure-covg";

/// Group size `--min-gs 10` yields and the vision model's parameter count.
const SECAGG_GROUP: u32 = 10;
const VISION_PARAMS: usize = 17_226;
const SPEECH_PARAMS: usize = 3_683;

pub fn secagg(ctx: &mut Ctx<'_>) {
    let members: Vec<u32> = (0..SECAGG_GROUP).collect();
    let updates: Vec<Vec<f32>> = members
        .iter()
        .map(|&c| filled(VISION_PARAMS, u64::from(c) + 1))
        .collect();
    let seed = ctx.seed();
    let session = SecAggSession::new(members.clone(), VISION_PARAMS, seed);
    let s = ctx.bench(SECURE, Phase::Rounds, "secagg", "session_new", || {
        black_box(SecAggSession::new(members.clone(), VISION_PARAMS, seed));
    });
    ctx.model_s("secagg.new_s", s);
    let s = ctx.bench(SECURE, Phase::Rounds, "secagg", "mask", || {
        black_box(session.mask(3, &updates[3]));
    });
    ctx.set("secagg.mask_us", s * 1e6);
    // One pairwise mask: expansion of d pseudo-random floats plus one axpy.
    ctx.model_s("secagg.pair_mask_s", s / f64::from(SECAGG_GROUP - 1));

    // One member drops after masking: the server rebuilds its orphaned masks.
    let survivors: Vec<u32> = members[1..].to_vec();
    let masked: Vec<Vec<f32>> = survivors
        .iter()
        .map(|&c| session.mask(c, &updates[c as usize]).0)
        .collect();
    let s = ctx.bench(SECURE, Phase::Rounds, "secagg", "unmask_sum", || {
        black_box(session.unmask_sum(&survivors, &masked));
    });
    ctx.set("secagg.unmask_us", s * 1e6);

    let mut ops = 0u64;
    let s = ctx.bench(SECURE, Phase::Rounds, "secagg", "aggregate", || {
        let (sum, cost) = session.aggregate(&updates);
        ops = cost.scalar_ops(VISION_PARAMS);
        black_box(sum);
    });
    ctx.set("secagg.aggregate_ms", s * 1e3);
    ctx.set("secagg.scalar_ops", ops as f64);
}

pub fn defense(ctx: &mut Ctx<'_>) {
    // A hostile-async group round hands the filter about a dozen deltas.
    let deltas: Vec<Vec<f32>> = (0..12).map(|i| filled(SPEECH_PARAMS, 100 + i)).collect();
    // The filter clips in place, so every call gets a fresh copy; the copies
    // are made outside the timed span.
    let batch = 16usize;
    let mut per_call = Vec::new();
    for _ in 0..5 {
        let mut copies: Vec<Vec<Vec<f32>>> = (0..batch).map(|_| deltas.clone()).collect();
        let parent = ctx.inputs.phases.get(HOSTILE).map(|p| p.rounds);
        let ((), s) = ctx.rec.time(
            parent,
            HOSTILE,
            "defense",
            "filter_updates",
            batch as u64,
            || {
                for copy in copies.iter_mut() {
                    black_box(gfl_defense::filter_updates(
                        copy,
                        &gfl_defense::DefenseConfig::default(),
                    ));
                }
            },
        );
        per_call.push(s);
    }
    let s = crate::stats::median(&per_call).expect("five timings");
    ctx.set("defense.filter_us", s * 1e6);
    ctx.model_s("defense.filter_s", s);
    let s = ctx.bench("-", Phase::Rounds, "defense", "coordinate_median", || {
        black_box(gfl_defense::robust::coordinate_median(&deltas));
    });
    ctx.set("defense.median_us", s * 1e6);
}

pub fn faults(ctx: &mut Ctx<'_>) {
    let injector = FaultInjector::new(FaultPlan::moderate(ctx.seed()));
    let clients = 600usize;
    let s = ctx.bench(
        HOSTILE,
        Phase::Rounds,
        "faults",
        "decide_600_clients",
        || {
            let mut hits = 0usize;
            for c in 0..clients {
                hits += usize::from(injector.crashes(3, 1, c));
                hits += usize::from(injector.corrupts(3, 1, c));
                hits += usize::from(injector.slowdown(3, 1, c) > 1.0);
            }
            black_box(hits);
        },
    );
    ctx.set("faults.decisions_per_s", (3 * clients) as f64 / s);
    ctx.model_s("faults.decision_s", s / (3 * clients) as f64);
    let plan = AdversaryPlan::moderate(ctx.seed());
    let rows = 200usize;
    let s = ctx.bench(HOSTILE, Phase::Rounds, "faults", "poisons_200_rows", || {
        black_box((0..rows).filter(|&r| plan.poisons_row(17, r)).count());
    });
    ctx.set("faults.poison_rows_per_s", rows as f64 / s);
}

pub fn sim(ctx: &mut Ctx<'_>) {
    let n = 4096usize;
    let times = filled(n, 9);
    let s = ctx.bench(HOSTILE, Phase::Rounds, "sim", "event_queue_4096", || {
        let mut queue = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            queue.push(f64::from(t) + 1.0, EventId::new(0, i % 12, i), i as u32);
        }
        while let Some(event) = queue.pop() {
            black_box(event.payload);
        }
    });
    ctx.set("sim.event_queue_mops", (2 * n) as f64 / s / 1e6);
    ctx.model_s("sim.event_s", s / (2 * n) as f64);

    let comm = CommModel::edge_default();
    let payload = CommModel::model_bytes(SPEECH_PARAMS);
    let s = ctx.bench(HOSTILE, Phase::Rounds, "sim", "upload_with_retries", || {
        black_box(comm.upload_with_retries(black_box(payload), 2, 3, 0.5, 60.0));
    });
    ctx.set("sim.upload_retry_us", s * 1e6);

    let mut ledger = CostLedger::new(
        CostModel::for_task(Task::Speech),
        vec![
            GroupOpKind::SecureAggregation,
            GroupOpKind::BackdoorDetection,
        ],
    );
    let sizes: Vec<usize> = (0..9).map(|i| 60 + 5 * i).collect();
    let s = ctx.bench(HOSTILE, Phase::Rounds, "sim", "ledger_charge_group", || {
        ledger.charge_group(black_box(&sizes), 3, 1);
    });
    black_box(ledger.total());
    ctx.set("sim.ledger_charge_ns", s * 1e9);
}

/// Serialisation of the checkpoint a `dense-train` child wrote: static
/// membership, half a megabyte. (`hostile-observed`'s own is 3 MB, takes the
/// vendored JSON parser most of a minute, and is then rejected: an infinite
/// `baseline_cov` was written as `null`.) Without a file the metrics are
/// left unset.
pub fn checkpoint(ctx: &mut Ctx<'_>) {
    let Some(path) = ctx.inputs.checkpoint_file.clone() else {
        return;
    };
    let Ok(json) = std::fs::read_to_string(&path) else {
        return;
    };
    ctx.set("checkpoint.bytes", json.len() as f64);
    let (parsed, s) = ctx.once(
        "dense-train",
        Phase::Rounds,
        "core.checkpoint",
        "from_json",
        || Checkpoint::from_json(&json),
    );
    ctx.set("checkpoint.from_json_ms", s * 1e3);
    if let Ok(cp) = parsed {
        let (_, s) = ctx.once(
            "dense-train",
            Phase::Rounds,
            "core.checkpoint",
            "to_json",
            || cp.to_json(),
        );
        ctx.set("checkpoint.to_json_ms", s * 1e3);
    }
}

pub fn obs(ctx: &mut Ctx<'_>) {
    // Recording one span into an in-memory collector.
    let collector = TraceCollector::new();
    let s = ctx.bench("-", Phase::Rounds, "obs", "record_span", || {
        let start = collector.now_ns();
        collector.record_span(
            SpanKind::ClientStep,
            start,
            SpanAttrs::client_step(1, 2, 3, 4),
        );
    });
    ctx.set("obs.span_record_ns", s * 1e9);

    // The trace each traced workload's observed child wrote: size per round,
    // parse rate, and a replay of its barrier flushes at the same
    // spans-per-round.
    for (traced, path) in ctx.inputs.trace_files.clone() {
        let metrics = trace_metrics(ctx, traced, &path);
        ctx.out.per_trace.insert(traced, metrics);
    }
}

fn trace_metrics(
    ctx: &mut Ctx<'_>,
    traced: &'static str,
    path: &std::path::Path,
) -> Vec<(&'static str, f64)> {
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let (trace, s) = ctx.once(traced, Phase::Rounds, "obs", "trace_read", || {
        TraceReader::read(path)
    });
    let Ok(trace) = trace else {
        return Vec::new();
    };
    let rounds = trace.rounds.len().max(1);
    let spans_per_round = trace.spans.len() / rounds;
    let sink = TraceCollector::streaming(Box::new(std::io::sink()), 1, StreamConfig::default());
    let mut flush_s = Vec::with_capacity(rounds);
    for t in 0..rounds {
        for i in 0..spans_per_round {
            sink.record_span_at(
                SpanKind::ClientStep,
                0,
                1,
                SpanAttrs::client_step(t, 0, i % 12, i),
            );
        }
        let start = Instant::now();
        sink.record_round(RoundMetrics::empty(t));
        let end = Instant::now();
        let parent = ctx.inputs.phases.get(traced).map(|p| p.rounds);
        ctx.rec
            .record(parent, traced, "obs", "record_round_flush", start, end, 1);
        flush_s.push(end.duration_since(start).as_secs_f64());
    }
    black_box(sink.finish(1));
    let flush = crate::stats::median(&flush_s).expect("at least one round");
    vec![
        ("obs.parse_mb_per_s", bytes as f64 / 1e6 / s),
        ("obs.trace_bytes_per_round", bytes as f64 / rounds as f64),
        ("obs.flush_us_per_round", flush * 1e6),
    ]
}

pub fn parallel(ctx: &mut Ctx<'_>) {
    // An empty region over 64 units at the children's thread count: what one
    // group round pays to wake the pool, whatever the units then do.
    gfl_parallel::set_default_parallelism(ctx.inputs.env.child_threads);
    let mut units = [0u8; 64];
    let s = ctx.bench("-", Phase::Rounds, "parallel", "empty_region_64", || {
        gfl_parallel::par_for_each_init(
            &mut units,
            || (),
            |(), _, unit| {
                *unit = unit.wrapping_add(1);
            },
        );
    });
    gfl_parallel::set_default_parallelism(1);
    black_box(units);
    ctx.set("parallel.region_dispatch_us", s * 1e6);
}
