//! Million-client scale harness: measures virtual-population build, on-demand
//! shard derivation, stream group formation, and one churn regroup tick at
//! 10⁶ paper_vision-shaped clients, then merges a `scale` section into `BENCH_ROUND.json` so
//! `gfl-trace regress --max-formation-seconds` can *gate* the sub-second
//! formation claim instead of asserting it in prose (docs/SCALE.md).
//!
//! One tick says little about a run: tick 1 has no heal due and a fresh
//! partition, and extrapolating it over a horizon was off by 30× (see
//! benchmark/README.md). So the section also carries `membership`: the
//! whole 16-round horizon of the benchmark's `scale-churn` shape (90 000
//! clients, moderate churn, default healing policy) — total tick time,
//! the slowest heal, and the event count at 2 threads, and the total tick
//! time at 1 and 2 threads.
//!
//! Set-up is most of a `secure-covg` invocation and Algorithm 2 is most of
//! that set-up, so a third section, `formation`, times CoVG at that
//! workload's shape (12 000 clients / 4 edges / MinGS 10) as clients/s at 1
//! and 2 threads; `gfl-trace regress` holds each row to `--min-rps-ratio`
//! of the baseline's.
//!
//! Unlike `bench_round` (which owns the file and overwrites it), this
//! binary read-modify-writes: every section `bench_round` produced is
//! preserved, only `scale` and `formation` are replaced. Run order in CI is therefore
//! irrelevant as long as `bench_round` runs first when both run.
//!
//! `GFL_SCALE_CLIENTS` overrides the population size (default 1_000_000)
//! for quick local iteration; the emitted key names stay `*_1m` because
//! the regress gate keys on them — the actual size is recorded alongside.

#![forbid(unsafe_code)]

use std::time::Instant;

use gfl_core::prelude::*;
use gfl_data::{VirtualPopulation, VirtualSpec};
use gfl_faults::ChurnPlan;
use gfl_sim::Topology;

fn main() {
    gfl_tensor::check_env_or_exit();
    let clients: usize = std::env::var("GFL_SCALE_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let seed = 1u64;

    let t0 = Instant::now();
    let pop = VirtualPopulation::new(VirtualSpec::paper_vision(clients, 0.1, seed));
    let build_s = t0.elapsed().as_secs_f64();

    // On-demand shard derivation, the per-step cost a virtual run pays for
    // not holding feature rows: mean over clients spread across the id
    // range, best of three passes.
    const SHARDS: usize = 2_000;
    let shard_us = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..SHARDS {
                std::hint::black_box(pop.shard(i * (clients / SHARDS).max(1) % clients));
            }
            t0.elapsed().as_secs_f64() * 1e6 / SHARDS as f64
        })
        .fold(f64::INFINITY, f64::min);

    let sizes: Vec<usize> = (0..pop.num_clients()).map(|c| pop.client_size(c)).collect();
    let topo = Topology::even_split(8, sizes);
    let algo = StreamGrouping { group_size: 8 };

    // Formation: the paper's Fig. 5 quantity, over the full population.
    let t0 = Instant::now();
    let groups = form_groups_per_edge(&algo, &topo, pop.label_matrix(), seed);
    let formation_s = t0.elapsed().as_secs_f64();
    assert!(
        groups.len() >= clients / 16,
        "stream formation collapsed: {} groups for {clients} clients",
        groups.len()
    );

    // Regroup: one apply_churn + heal tick at moderate churn rates — at
    // 10⁶ clients a round sees ~2 000 departures and ~1 000 greedy
    // arrival placements, plus heal's full degradation sweep. A zero
    // cooldown lets heal repair immediately. This exercises the
    // membership index (per-edge candidate lists, the lane-per-group
    // placement scan) end to end.
    let plan = ChurnPlan {
        seed: seed ^ 0x5CA1E,
        horizon: 50,
        departure_fraction: 0.1,
        arrival_fraction: 0.05,
        flap_prob: 0.0,
    };
    let policy = RegroupPolicy {
        cooldown: 0,
        ..RegroupPolicy::default()
    };
    let mut membership = MembershipState::form(
        &algo,
        &topo,
        pop.label_matrix(),
        Some(&plan),
        policy,
        seed,
        SamplingStrategy::ESRCov,
        0,
    )
    .expect("initial membership partition");

    let t0 = Instant::now();
    let churn_events = membership.apply_churn(&plan, 1, pop.label_matrix(), &topo);
    let heal_events = membership
        .heal(
            1,
            pop.label_matrix(),
            &algo,
            &topo,
            seed,
            SamplingStrategy::ESRCov,
        )
        .expect("heal pass");
    let regroup_s = t0.elapsed().as_secs_f64();
    assert!(
        !churn_events.is_empty(),
        "churn tick was a no-op; the regroup timing would measure nothing"
    );

    let scale = serde_json::json!({
        "workload": "paper_vision-shaped virtual population, 8 edges, stream grouping (group_size 8)",
        "clients": clients,
        "groups_formed": groups.len(),
        "population_build_seconds_1m": build_s,
        "formation_seconds_1m": formation_s,
        "regroup_seconds_1m": regroup_s,
        "shard_us": shard_us,
        "regroup_events": churn_events.len() + heal_events.len(),
        "membership": membership_horizon(seed),
        "note": "formation_seconds_1m and regroup_seconds_1m are gated sub-second by `gfl-trace regress --max-formation-seconds` in CI's scale-smoke job, which also holds clients / population_build_seconds_1m to `--min-rps-ratio` of the committed baseline's",
    });

    let mut report: serde_json::Value = std::fs::read_to_string("BENCH_ROUND.json")
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!({}));
    match &mut report {
        serde_json::Value::Object(pairs) => {
            pairs.retain(|(k, _)| k != "scale" && k != "formation");
            pairs.push(("scale".to_string(), scale));
            pairs.push(("formation".to_string(), covg_formation(seed)));
        }
        _ => panic!("BENCH_ROUND.json must hold a JSON object"),
    }
    let pretty = serde_json::to_string_pretty(&report).unwrap();
    std::fs::write("BENCH_ROUND.json", format!("{pretty}\n")).expect("write BENCH_ROUND.json");

    println!(
        "scale: {clients} clients — build {build_s:.3}s, shard {shard_us:.0}us, formation \
         {formation_s:.3}s ({} groups), regroup {regroup_s:.3}s ({} events)",
        groups.len(),
        churn_events.len() + heal_events.len()
    );
}

/// Algorithm 2 at the benchmark's `secure-covg` shape, best of three per
/// thread count (formation is a pure function of its inputs, so the runs
/// differ only by what else the machine was doing).
fn covg_formation(seed: u64) -> serde_json::Value {
    const CLIENTS: usize = 12_000;
    let (pop, topo) = gfl_bench::virtual_world(CLIENTS, 4, seed);
    let algo = CovGrouping {
        min_group_size: 10,
        max_cov: 0.5,
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut groups_formed = 0;
    let results: Vec<serde_json::Value> = [1usize, 2]
        .iter()
        .map(|&threads| {
            gfl_parallel::set_default_parallelism(threads);
            let seconds = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    let groups = form_groups_per_edge(&algo, &topo, pop.label_matrix(), seed);
                    groups_formed = std::hint::black_box(groups).len();
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            println!("formation: CoVG {CLIENTS} clients / 4 edges at {threads} thread(s) — {seconds:.3}s");
            serde_json::json!({
                "threads": threads,
                "cores": cores,
                "reliable": threads <= cores,
                "seconds": seconds,
                "clients_per_sec": CLIENTS as f64 / seconds,
            })
        })
        .collect();
    gfl_parallel::set_default_parallelism(0);
    serde_json::json!({
        "workload": "the benchmark's secure-covg shape: paper_vision-shaped virtual population, 4 edges, CoVG (MinGS 10, MaxCoV 0.5)",
        "clients": CLIENTS,
        "groups_formed": groups_formed,
        "results": results,
    })
}

/// Every membership tick of the benchmark's `scale-churn` workload: forms
/// the partition as the self-healing run does, then applies each round's
/// churn, heal and probability refresh, timing the three apart. The horizon
/// runs once per worker count — arrivals and orphans are placed an edge per
/// pool task — and the breakdown is the last, widest run's.
fn membership_horizon(seed: u64) -> serde_json::Value {
    const CLIENTS: usize = 90_000;
    const ROUNDS: usize = 16;
    let (pop, topo) = gfl_bench::virtual_world(CLIENTS, 8, seed);
    let labels = pop.label_matrix();
    let algo = StreamGrouping { group_size: 8 };
    let sampling = SamplingStrategy::Random;
    let plan = ChurnPlan {
        horizon: ROUNDS,
        ..ChurnPlan::moderate(seed)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut results = Vec::new();
    let mut breakdown = serde_json::Value::Null;
    for threads in [1usize, 2] {
        gfl_parallel::set_default_parallelism(threads);
        let t0 = Instant::now();
        let mut membership = MembershipState::form(
            &algo,
            &topo,
            labels,
            Some(&plan),
            RegroupPolicy::default(),
            seed,
            sampling,
            0,
        )
        .expect("initial membership partition");
        let form_s = t0.elapsed().as_secs_f64();
        let groups_formed = membership.groups().len();

        let (mut churn_s, mut heal_s, mut heal_max_s, mut refresh_s) = (0.0, 0.0, 0.0f64, 0.0);
        let mut events = 0;
        for t in 0..ROUNDS {
            let t0 = Instant::now();
            events += membership.apply_churn(&plan, t, labels, &topo).len();
            churn_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            events += membership
                .heal(t, labels, &algo, &topo, seed, sampling)
                .expect("heal pass")
                .len();
            let s = t0.elapsed().as_secs_f64();
            heal_s += s;
            heal_max_s = heal_max_s.max(s);
            let t0 = Instant::now();
            membership.refresh_probs(labels, sampling);
            refresh_s += t0.elapsed().as_secs_f64();
        }
        let ticks_s = churn_s + heal_s + refresh_s;
        println!(
            "membership: {CLIENTS} clients × {ROUNDS} ticks at {threads} thread(s) — form \
             {form_s:.3}s, ticks {ticks_s:.3}s (churn {churn_s:.3}s, heal {heal_s:.3}s, slowest \
             heal {heal_max_s:.3}s), {events} events"
        );
        results.push(serde_json::json!({
            "threads": threads,
            "cores": cores,
            "reliable": threads <= cores,
            "ticks_seconds_total": ticks_s,
        }));
        breakdown = serde_json::json!({
            "workload": "the benchmark's scale-churn shape: 8 edges, stream grouping (group_size 8), ChurnPlan::moderate over the horizon, RegroupPolicy::default, random sampling",
            "clients": CLIENTS,
            "rounds": ROUNDS,
            "threads": threads,
            "groups_formed": groups_formed,
            "groups_final": membership.groups().len(),
            "form_seconds": form_s,
            "ticks_seconds_total": ticks_s,
            "apply_churn_seconds_total": churn_s,
            "heal_seconds_total": heal_s,
            "heal_seconds_max": heal_max_s,
            "refresh_probs_seconds_total": refresh_s,
            "events": events,
        });
    }
    gfl_parallel::set_default_parallelism(0);
    if let serde_json::Value::Object(pairs) = &mut breakdown {
        pairs.push(("results".to_string(), serde_json::Value::Array(results)));
    }
    breakdown
}
