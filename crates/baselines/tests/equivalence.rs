//! Baseline-method leg of the virtual ≡ materialized equivalence suite.
//!
//! The core crate pins FedAvg across every engine scenario (see
//! `crates/core/tests/equivalence.rs`); this file pins the baseline local
//! updaters, whose strategies carry extra per-client state — FedNova's
//! normalization constants are precomputed from client *sizes*, exactly
//! the summary a [`VirtualPopulation`] keeps, so the virtual trainer must
//! reproduce the eager FedNova run bit for bit.

use gfl_baselines::{FedNova, FedProx};
use gfl_core::prelude::*;
use gfl_data::{VirtualPopulation, VirtualSpec};
use gfl_nn::Params;
use gfl_sim::Topology;

fn seed_offset() -> u64 {
    std::env::var("GFL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[test]
fn baseline_strategies_are_bitwise_equivalent_on_virtual_populations() {
    for seed in 1..=3u64 {
        let seed = seed + seed_offset();
        let pop = VirtualPopulation::new(VirtualSpec::tiny(24, 0.5, seed));
        let (train, part) = pop.materialize();
        let test = pop.test_set(120);
        let topo = Topology::even_split(2, part.sizes());
        let groups = form_groups_per_edge(
            &CovGrouping {
                min_group_size: 2,
                max_cov: 1.0,
            },
            &topo,
            &part.label_matrix,
            seed,
        );
        let mut cfg = GroupFelConfig::tiny();
        cfg.seed = seed;
        let model = gfl_nn::zoo::tiny(4, 3);
        let sizes: Vec<usize> = (0..pop.num_clients()).map(|c| pop.client_size(c)).collect();
        let nova = FedNova::from_sizes(&sizes, cfg.local_rounds, cfg.batch_size);
        let prox = FedProx { mu: 0.1 };

        fn run<S: LocalUpdate>(t: Trainer, groups: &[Group], strategy: &S) -> (RunHistory, Params) {
            let probs = t.sampling_probs(groups, SamplingStrategy::ESRCov);
            let plan = RunPlan {
                clock: Clock::Lockstep,
                membership: Membership::Static {
                    groups,
                    probs: &probs,
                },
            };
            let mut state = t.start(strategy);
            t.drive(strategy, &plan, &mut state, t.config().global_rounds)
                .unwrap();
            (state.history, state.params)
        }
        let run_nova = |t: Trainer| run(t, &groups, &nova);
        let run_prox = |t: Trainer| run(t, &groups, &prox);

        let eager = |cfg: &GroupFelConfig| {
            Trainer::new(
                cfg.clone(),
                model.clone(),
                train.clone(),
                part.clone(),
                test.clone(),
            )
        };
        let virt = |cfg: &GroupFelConfig| {
            Trainer::new_virtual(cfg.clone(), model.clone(), pop.clone(), test.clone())
        };

        assert_eq!(
            run_nova(eager(&cfg)),
            run_nova(virt(&cfg)),
            "seed {seed}: FedNova diverged between eager and virtual"
        );
        assert_eq!(
            run_prox(eager(&cfg)),
            run_prox(virt(&cfg)),
            "seed {seed}: FedProx diverged between eager and virtual"
        );
    }
}
