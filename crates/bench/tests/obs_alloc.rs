//! Allocation guard for the observability layer.
//!
//! The engine's instrumentation is `Option`-gated: with no collector
//! attached every instrument site is `None.map(..)` — no clock reads, no
//! span pushes, no allocation. This test pins that down with a counting
//! global allocator: warm steady-state rounds with tracing disabled must
//! allocate *exactly* the same number of times run over run (any hidden
//! per-round growth or disabled-path bookkeeping would break equality),
//! and the traced run's extra allocations must stay bounded. The same
//! counter bounds a membership tick: its allocations follow its events,
//! not the population; and a streamed trace barrier: its allocations do not
//! follow its spans.

use gfl_core::driver::{Clock, Membership, RunPlan};
use gfl_core::engine::Trainer;
use gfl_core::local::FedAvg;
use gfl_core::sampling::SamplingStrategy;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_obs::alloc::{current_allocs, Counting};
use gfl_sim::Topology;
use gfl_test_support::TinyWorld;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn tiny_world(secure_aggregation: bool) -> (Trainer, Vec<Vec<usize>>) {
    let mut w = TinyWorld::at(5);
    w.cfg.secure_aggregation = secure_aggregation;
    (w.trainer(), w.groups)
}

fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = current_allocs();
    f();
    current_allocs() - before
}

/// Hard per-round allocation budget for the warm engine.
///
/// After a warm-up leg has seeded every pool (local-training scratch,
/// group parameter/slot/member buffers, evaluation workspaces), a
/// steady-state round of `Trainer::drive` — including its per-round
/// evaluation at `eval_every = 1` — must stay within this many heap
/// allocations. The residue is small unavoidable per-round state
/// (sampling draws, the round's context/outcome vectors, per-group-round
/// unit queues); anything that scales with model size or group membership
/// must come from a pool and trips this gate if it regresses.
const ROUND_ALLOC_BUDGET: u64 = 64;

/// The one `#[test]` of this file, on purpose: the allocation counter is
/// process-wide, so a second test (or the harness reporting on it) would
/// allocate inside this one's windows.
#[test]
fn steady_state_rounds_fit_the_alloc_budget() {
    // A counter that read 0 would pass every gate below without measuring.
    assert!(allocs_of(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(16)))) >= 1);
    gfl_parallel::set_default_parallelism(1);
    warm_rounds_fit_the_budget(false);
    // Secure group aggregation works in pooled per-worker rows: a session
    // costs its roster, survivor and chunk lists, nothing of model size.
    warm_rounds_fit_the_budget(true);
    disabled_tracing_adds_no_allocations_to_the_hot_loop();
    steady_state_churn_ticks_fit_the_alloc_budget();
    streamed_barrier_allocates_o1_times();
}

/// Allocation budget of one streamed round barrier, whatever its span
/// count: the drained batch and the sort's scratch. Every line is printed
/// into the writer's one reused buffer, so a barrier of 1 000 spans
/// allocates twice, one of 10 once. (Printing each line through a `Value`
/// tree and a `String` cost 37 066 allocations for the 1 000.)
const BARRIER_ALLOC_BUDGET: u64 = 4;

fn streamed_barrier_allocates_o1_times() {
    use gfl_obs::{RoundMetrics, SpanAttrs, SpanKind, StreamConfig, TraceCollector};

    let obs = TraceCollector::streaming(Box::new(std::io::sink()), 1, StreamConfig::default());
    let barrier = |round: usize, spans: usize| {
        for i in 0..spans {
            let attrs = SpanAttrs::client_step(round, 0, i % 12, i);
            obs.record_span_at(SpanKind::ClientStep, i as u64, i as u64 + 7, attrs);
        }
        allocs_of(|| obs.record_round(RoundMetrics::empty(round)))
    };
    // The first barrier sizes the shard, the line buffer and the metric
    // families.
    barrier(0, 1_000);
    let (few, many) = (barrier(1, 10), barrier(2, 1_000));
    assert!(
        many <= BARRIER_ALLOC_BUDGET,
        "a barrier of 1 000 spans allocated {many} times (10 spans: {few}), \
         budget {BARRIER_ALLOC_BUDGET}"
    );
}

/// Allocation budget of one membership tick, beyond its events.
///
/// A tick over an indexed state owes the heap its event list, its arrival
/// list and each placement batch's list of groups, the fresh probability
/// vector, and — when groups dissolve — the marks, orphans and the
/// partition check; nothing per client, per group or per label, and nothing
/// per edge: a placement pass reuses its edge's buffers. (Before
/// the index, a tick allocated a histogram per group and a filtered copy of
/// every group: thousands.) Member lists grow by amortized doubling, which
/// the per-event allowance covers.
const TICK_ALLOC_BUDGET: u64 = 16;
const ALLOCS_PER_EVENT: u64 = 1;

fn steady_state_churn_ticks_fit_the_alloc_budget() {
    use gfl_core::membership::{MembershipState, RegroupPolicy};
    use gfl_faults::ChurnPlan;

    let data = SyntheticSpec::tiny().generate(4_000, 5);
    let partition = ClientPartition::dirichlet(
        &data,
        &PartitionSpec {
            num_clients: 400,
            alpha: 0.5,
            min_size: 5,
            max_size: 15,
            seed: 5,
        },
    );
    let topology = Topology::even_split(4, partition.sizes());
    let labels = &partition.label_matrix;
    let algo = gfl_core::grouping::StreamGrouping { group_size: 4 };
    let sampling = SamplingStrategy::ESRCov;
    let plan = ChurnPlan {
        horizon: 12,
        ..ChurnPlan::moderate(5)
    };
    let mut state = MembershipState::form(
        &algo,
        &topology,
        labels,
        Some(&plan),
        RegroupPolicy::default(),
        5,
        sampling,
        0,
    )
    .unwrap();
    // The first ticks size the event list's and the member lists' capacity.
    for t in 0..2 {
        state
            .tick(Some(&plan), t, labels, &topology, &algo, 5, sampling)
            .unwrap();
    }
    let (mut ticks, mut events) = (0u64, 0u64);
    let allocs = allocs_of(|| {
        for t in 2..12 {
            let ev = state
                .tick(Some(&plan), t, labels, &topology, &algo, 5, sampling)
                .unwrap();
            ticks += 1;
            events += ev.len() as u64;
        }
    });
    assert!(events > 20, "the ticks must churn: {events} events");
    let budget = ticks * TICK_ALLOC_BUDGET + events * ALLOCS_PER_EVENT;
    assert!(
        allocs <= budget,
        "churn ticks allocate too much: {allocs} allocs over {ticks} ticks and \
         {events} events, budget {budget}"
    );
}

fn warm_rounds_fit_the_budget(secure_aggregation: bool) {
    let (trainer, groups) = tiny_world(secure_aggregation);
    let probs = vec![1.0 / groups.len() as f32; groups.len()];
    let plan = RunPlan {
        clock: Clock::Lockstep,
        membership: Membership::Static {
            groups: &groups,
            probs: &probs,
        },
    };
    let mut state = trainer.start(&FedAvg);

    // Warm-up rounds size every pool; they are excluded from the count.
    trainer.drive(&FedAvg, &plan, &mut state, 3).unwrap();

    const MEASURED: u64 = 8;
    let allocs = allocs_of(|| {
        trainer
            .drive(&FedAvg, &plan, &mut state, MEASURED as usize)
            .unwrap();
    });
    let per_round = allocs / MEASURED;
    assert!(
        per_round <= ROUND_ALLOC_BUDGET,
        "steady-state rounds (secure: {secure_aggregation}) allocate too much: \
         {per_round} allocs/round ({allocs} over {MEASURED} rounds), budget {ROUND_ALLOC_BUDGET}"
    );
}

/// Single-threaded (set by the caller) so the worker pool does not allocate
/// on its own schedule mid-measurement.
fn disabled_tracing_adds_no_allocations_to_the_hot_loop() {
    let (trainer, groups) = tiny_world(false);

    // Warm-up populates lazily-initialized caches (datasets paged, scratch
    // pools sized); afterwards the untraced loop is in steady state.
    trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
    let untraced_a = allocs_of(|| {
        trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
    });
    let untraced_b = allocs_of(|| {
        trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
    });
    assert_eq!(
        untraced_a, untraced_b,
        "untraced steady-state runs must allocate identically"
    );

    // With a collector attached the run allocates extra (span records, the
    // JSONL buffers are out of scope here) — but the overhead must stay
    // small relative to the workload itself.
    let (t2, groups2) = tiny_world(false);
    let obs = gfl_obs::TraceCollector::new();
    let traced_trainer = t2.with_observer(std::sync::Arc::clone(&obs));
    traced_trainer.run(&groups2, &FedAvg, SamplingStrategy::ESRCov);
    let traced = allocs_of(|| {
        traced_trainer.run(&groups2, &FedAvg, SamplingStrategy::ESRCov);
    });
    assert!(
        traced < untraced_a * 2 + 10_000,
        "tracing overhead exploded: {traced} allocs vs {untraced_a} untraced"
    );
}
