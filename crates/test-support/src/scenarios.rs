//! The core history goldens' scenarios, shared by the snapshot suite and
//! the event-log digests: each a small fixed federation (clean, faulted,
//! churned/self-healing, secure, attacked, virtual) at a fixed seed.

use std::sync::Arc;

use gfl_core::prelude::*;
use gfl_faults::ChurnPlan;
use gfl_obs::TraceCollector;
use gfl_sim::Topology;

use crate::{covg, Runs, TinyWorld};

/// Every scenario the goldens pin at seeds 1 and 2.
pub const GOLDEN_SCENARIOS: [&str; 6] = [
    "clean", "faulted", "churned", "secure", "attacked", "virtual",
];

/// Vision-shaped virtual federation (paper §7.2 client shape: 20–200
/// rows, 10 classes, 64-dim features) at an arbitrary population size.
/// Groups are stream-formed — the only formation that stays sub-second at
/// 10⁶ clients — and only `cfg.sampled_groups` of them train per round.
fn virtual_world(
    clients: usize,
    seed: u64,
) -> (
    GroupFelConfig,
    gfl_nn::Network,
    gfl_data::VirtualPopulation,
    Vec<Group>,
    gfl_data::Dataset,
) {
    let pop =
        gfl_data::VirtualPopulation::new(gfl_data::VirtualSpec::paper_vision(clients, 0.1, seed));
    let sizes: Vec<usize> = (0..pop.num_clients()).map(|c| pop.client_size(c)).collect();
    let topo = Topology::even_split(8, sizes);
    let groups = form_groups_per_edge(
        &StreamGrouping { group_size: 8 },
        &topo,
        pop.label_matrix(),
        seed,
    );
    let test = pop.test_set(512);
    let mut cfg = GroupFelConfig::tiny();
    cfg.seed = seed;
    cfg.global_rounds = 3;
    (cfg, gfl_nn::zoo::vision_model(), pop, groups, test)
}

/// The history of golden scenario `name` run at exactly `seed` (no
/// `GFL_SEED` shift), with `obs` attached to the trainer when given: one of
/// [`GOLDEN_SCENARIOS`], or `"virtual-1m"`, the virtual scenario at 10⁶
/// clients.
pub fn golden_scenario(name: &str, seed: u64, obs: Option<Arc<TraceCollector>>) -> RunHistory {
    let attach = |t: Trainer| match &obs {
        Some(o) => t.with_observer(Arc::clone(o)),
        None => t,
    };
    // Virtual scenarios derive their population instead of materializing
    // one; they never touch the eager world.
    let virtual_clients = match name {
        "virtual" => Some(20_000),
        "virtual-1m" => Some(1_000_000),
        _ => None,
    };
    if let Some(clients) = virtual_clients {
        let (cfg, model, pop, groups, test) = virtual_world(clients, seed);
        let t = attach(Trainer::try_new(cfg, model, pop, test).unwrap());
        return t.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
    }
    // The determinism suite's world, with no seed shifting.
    let mut w = TinyWorld::at(seed);
    match name {
        "clean" => attach(w.trainer()).run(&w.groups, &FedAvg, SamplingStrategy::ESRCov),
        "faulted" => {
            let t = attach(w.trainer().with_faults(
                FaultPlan::moderate(99 + seed),
                FaultPolicy::default(),
                &w.topo,
            ));
            t.run(&w.groups, &FedAvg, SamplingStrategy::ESRCov)
        }
        "churned" => {
            let t = attach(w.trainer().with_churn(
                ChurnPlan {
                    horizon: w.cfg.global_rounds,
                    ..ChurnPlan::moderate(w.cfg.seed)
                },
                RegroupPolicy::default(),
            ));
            let (h, _, _) = t
                .run_healing(&covg(2, 1.0), &w.topo, SamplingStrategy::ESRCov)
                .expect("self-healing run failed");
            h
        }
        "secure" => {
            w.cfg.secure_aggregation = true;
            attach(w.trainer()).run(&w.groups, &FedAvg, SamplingStrategy::Random)
        }
        "attacked" => {
            // Attacked + defended: a mixed campaign against FLAME-filtered
            // aggregation. Groups are re-formed larger so the filter's
            // ≥3-live-member floor is met and interceptions actually land
            // in the snapshot.
            let groups = w.groups_with(4, 10.0);
            let plan = AdversaryPlan {
                backdoor_fraction: 0.2,
                label_flip_fraction: 0.15,
                model_poison_fraction: 0.15,
                ..AdversaryPlan::moderate(77 + seed)
            };
            let t = attach(
                w.trainer()
                    .with_adversary(plan)
                    .with_robust_agg(RobustAggRule::FlameFilter),
            );
            let h = t.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
            assert!(
                h.events()
                    .iter()
                    .any(|e| e.attack().is_some_and(|a| a.is_injection())),
                "attacked snapshot must contain injections"
            );
            h
        }
        other => panic!("unknown scenario {other}"),
    }
}
