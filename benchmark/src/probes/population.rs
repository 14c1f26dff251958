//! `gfl-data` builders, group formation (Algorithm 2 and the streaming
//! variant), membership maintenance under churn, and group sampling — at the
//! shapes of `secure-covg` and `scale-churn`.

use std::hint::black_box;

use gfl_core::cov::mean_group_cov;
use gfl_core::engine::form_groups_per_edge;
use gfl_core::grouping::{CovGrouping, GroupingAlgorithm, KldGrouping, StreamGrouping};
use gfl_core::membership::{MembershipState, RegroupPolicy};
use gfl_core::sampling::{
    aggregation_weights_into, sample_without_replacement, AggregationWeighting, SamplingStrategy,
};
use gfl_data::{ClientPartition, VirtualPopulation};
use gfl_faults::ChurnPlan;
use gfl_sim::Topology;
use gfl_tensor::init;

use super::{partition_spec, task_of, vision_population, Ctx, Phase};
use crate::workloads::Size;

const DENSE: &str = "dense-train";
const HOSTILE: &str = "hostile-async";
const SECURE: &str = "secure-covg";
const SCALE: &str = "scale-churn";

fn topology_of(pop: &VirtualPopulation, edges: usize) -> Topology {
    let sizes = (0..pop.num_clients()).map(|c| pop.client_size(c)).collect();
    Topology::even_split(edges, sizes)
}

pub fn data_and_grouping(ctx: &mut Ctx<'_>) {
    let (seed, size) = (ctx.seed(), ctx.size());

    // Materialized set-up: generate, hold out, partition.
    for (workload, metric) in [
        (DENSE, "data.generate_s.vision"),
        (HOSTILE, "data.generate_s.speech"),
    ] {
        let w = ctx.workload(workload);
        let (spec, _) = task_of(w);
        let (data, s) = ctx.once(workload, Phase::Setup, "data", "generate", || {
            spec.generate(w.samples(size), seed)
        });
        ctx.set(metric, s);
        let (train, _) = data.split_holdout(6);
        let spec = partition_spec(w, size, seed);
        let (_, s) = ctx.once(
            workload,
            Phase::Setup,
            "data",
            "dirichlet_partition",
            || ClientPartition::dirichlet(&train, &spec),
        );
        if w.speech {
            ctx.set("data.dirichlet_partition_s", s);
        }
    }

    // secure-covg: population, then Algorithm 2 per edge.
    let w = ctx.workload(SECURE);
    let (pop, _) = ctx.once(SECURE, Phase::Setup, "data", "population_build", || {
        vision_population(w.clients(size), seed)
    });
    let topo = topology_of(&pop, w.edges);
    let algo = CovGrouping {
        min_group_size: 10,
        max_cov: 0.5,
    };
    let (groups, s) = ctx.once(SECURE, Phase::Setup, "core.grouping", "form_covg", || {
        form_groups_per_edge(&algo, &topo, pop.label_matrix(), seed)
    });
    ctx.set("grouping.covg_clients_per_s", pop.num_clients() as f64 / s);
    ctx.set(
        "grouping.mean_cov",
        f64::from(mean_group_cov(pop.label_matrix(), &groups)),
    );
    ctx.out
        .facts
        .insert("grouping.groups.secure-covg", groups.len() as f64);

    // No workload runs KLD grouping; the row keeps Fig. 5's other curve.
    let clients = if ctx.size() == Size::Smoke {
        1000
    } else {
        5000
    };
    let pop = vision_population(clients, seed);
    let topo = topology_of(&pop, 4);
    let (groups, s) = ctx.once("-", Phase::Setup, "core.grouping", "form_kldg", || {
        form_groups_per_edge(
            &KldGrouping { group_size: 6 },
            &topo,
            pop.label_matrix(),
            seed,
        )
    });
    black_box(groups);
    ctx.set("grouping.kldg_clients_per_s", clients as f64 / s);
}

/// One replay of a churned run's membership work.
struct Replay {
    form_s: f64,
    churn_s: Vec<f64>,
    heal_s: Vec<f64>,
    refresh_s: f64,
    events: usize,
    state: MembershipState,
}

impl Replay {
    fn ticks_s(&self) -> f64 {
        self.churn_s.iter().chain(&self.heal_s).sum::<f64>() + self.refresh_s
    }
}

/// Forms the membership as the self-healing run does, then applies every
/// round's churn, heal and probability refresh, each call its own span.
fn replay_horizon(
    ctx: &mut Ctx<'_>,
    algo: &StreamGrouping,
    topo: &Topology,
    pop: &VirtualPopulation,
    plan: &ChurnPlan,
    rounds: usize,
    seed: u64,
) -> Replay {
    let labels = pop.label_matrix();
    let sampling = SamplingStrategy::Random;
    let (state, form_s) = ctx.once(SCALE, Phase::Rounds, "core.membership", "form", || {
        MembershipState::form(
            algo as &dyn GroupingAlgorithm,
            topo,
            labels,
            Some(plan),
            RegroupPolicy::default(),
            seed,
            sampling,
            0,
        )
    });
    let mut replay = Replay {
        form_s,
        churn_s: Vec::new(),
        heal_s: Vec::new(),
        refresh_s: 0.0,
        events: 0,
        state: state.expect("stream formation yields a partition"),
    };
    for t in 0..rounds {
        let state = &mut replay.state;
        let (ev, s) = ctx.once(
            SCALE,
            Phase::Rounds,
            "core.membership",
            "apply_churn",
            || state.apply_churn(plan, t, labels, topo),
        );
        replay.events += ev.len();
        replay.churn_s.push(s);
        let (ev, s) = ctx.once(SCALE, Phase::Rounds, "core.membership", "heal", || {
            state.heal(t, labels, algo, topo, seed, sampling)
        });
        replay.events += ev.expect("heal keeps a partition").len();
        replay.heal_s.push(s);
        let ((), s) = ctx.once(
            SCALE,
            Phase::Rounds,
            "core.membership",
            "refresh_probs",
            || {
                state.refresh_probs(labels, sampling);
            },
        );
        replay.refresh_s += s;
    }
    replay
}

pub fn membership_and_sampling(ctx: &mut Ctx<'_>) {
    let seed = ctx.seed();
    let w = ctx.workload(SCALE);
    let (clients, rounds) = (w.clients(ctx.size()), w.rounds(ctx.size()));
    let (pop, s) = ctx.once(SCALE, Phase::Setup, "data", "population_build", || {
        vision_population(clients, seed)
    });
    ctx.set("data.population_build_s", s);
    ctx.set(
        "data.population_build_ns_per_client",
        s * 1e9 / clients as f64,
    );
    let topo = topology_of(&pop, w.edges);
    let labels = pop.label_matrix();
    let algo = StreamGrouping { group_size: 8 };
    let (groups, s) = ctx.once(SCALE, Phase::Setup, "core.grouping", "form_stream", || {
        form_groups_per_edge(&algo, &topo, labels, seed)
    });
    ctx.set("grouping.stream_clients_per_s", clients as f64 / s);
    ctx.out
        .facts
        .insert("grouping.groups.scale-churn", groups.len() as f64);

    // The churned run forms its membership again inside the rounds phase,
    // then ticks once per round: replay the whole horizon, not one tick.
    let plan = ChurnPlan {
        horizon: rounds,
        ..ChurnPlan::moderate(seed)
    };
    // Three replays; the one with the middle total is reported, so one burst
    // on the host does not decide whether the ledger reconciles.
    let mut replays: Vec<Replay> = (0..3)
        .map(|_| replay_horizon(ctx, &algo, &topo, &pop, &plan, rounds, seed))
        .collect();
    replays.sort_by(|a, b| a.ticks_s().total_cmp(&b.ticks_s()));
    let replay = replays.swap_remove(1);
    let ticks_s = replay.ticks_s();
    let ms = |s: f64| s * 1e3;
    let heal = crate::stats::Summary::of(&replay.heal_s).expect("at least one tick");
    ctx.set(
        "membership.apply_churn_ms_p50",
        ms(crate::stats::median(&replay.churn_s).expect("at least one tick")),
    );
    ctx.set("membership.heal_ms_p50", ms(heal.median));
    ctx.set("membership.heal_ms_max", ms(heal.max));
    ctx.set("membership.tick_ms_total", ms(ticks_s));
    ctx.set("membership.events_per_s", replay.events as f64 / ticks_s);
    ctx.set("membership.events", replay.events as f64);
    ctx.model_s("membership.form_s", replay.form_s);
    ctx.model_s("membership.ticks_s", ticks_s);
    let state = replay.state;

    // Sampling over the healed partition's group count.
    let probs = state.probs.clone();
    let mut rng = init::rng(seed);
    let s = ctx.bench(SCALE, Phase::Rounds, "core.sampling", "draw", || {
        black_box(sample_without_replacement(&mut rng, &probs, w.sample));
    });
    ctx.set("sampling.draw_us", s * 1e6);
    ctx.model_s("sampling.draw_s", s);
    let sizes: Vec<usize> = (0..w.sample).map(|g| 400 + 10 * g).collect();
    let sampled_probs = vec![probs[0]; w.sample];
    let mut weights = Vec::new();
    let s = ctx.bench(SCALE, Phase::Rounds, "core.sampling", "weights", || {
        aggregation_weights_into(
            AggregationWeighting::Standard,
            &sizes,
            &sampled_probs,
            pop.total_samples(),
            &mut weights,
        );
        black_box(&weights);
    });
    ctx.set("sampling.weights_us", s * 1e6);
}
