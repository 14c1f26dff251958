//! Baseline-method leg of the equivalence and determinism suites.
//!
//! The core crate pins FedAvg across every engine scenario (see
//! `crates/core/tests/equivalence.rs` and `determinism.rs`); this file pins
//! the baseline local updaters, whose strategies carry extra per-client
//! state — FedNova's normalization constants are precomputed from client
//! *sizes*, exactly the summary a [`VirtualPopulation`] keeps, so the
//! virtual trainer must reproduce the eager FedNova run bit for bit; and
//! SCAFFOLD folds every client's variate delta into one server variate,
//! which must not depend on the order the pool finished them in.
//!
//! [`VirtualPopulation`]: gfl_data::VirtualPopulation

use gfl_baselines::{FedNova, FedProx, Scaffold};
use gfl_core::prelude::*;
use gfl_nn::Params;
use gfl_test_support::{assert_bit_identical, tiny_world, twins};

/// Algorithm 1 under `strategy`: the trajectory and the final model.
fn run(t: Trainer, groups: &[Group], strategy: &dyn LocalUpdate) -> (RunHistory, Params) {
    let probs = t.sampling_probs(groups, SamplingStrategy::ESRCov);
    let plan = RunPlan {
        clock: Clock::Lockstep,
        membership: Membership::Static {
            groups,
            probs: &probs,
        },
    };
    let state = t.run_plan(strategy, &plan).unwrap();
    (state.history, state.params)
}

#[test]
fn baseline_strategies_are_bitwise_equivalent_on_virtual_populations() {
    for seed in 1..=3u64 {
        let t = twins(seed);
        let sizes = t.part.sizes();
        let nova = FedNova::from_sizes(&sizes, t.cfg.local_rounds, t.cfg.batch_size);
        let prox = FedProx { mu: 0.1 };
        assert_eq!(
            run(t.eager(), &t.groups, &nova),
            run(t.virt(), &t.groups, &nova),
            "seed {seed}: FedNova diverged between eager and virtual"
        );
        assert_eq!(
            run(t.eager(), &t.groups, &prox),
            run(t.virt(), &t.groups, &prox),
            "seed {seed}: FedProx diverged between eager and virtual"
        );
    }
}

#[test]
fn scaffold_is_bit_identical_across_thread_counts() {
    // K = 2 group rounds, so a client's slot accumulates twice before the
    // server sums the slots; four groups a round, so several clients finish
    // at once above one thread.
    let mut w = tiny_world(71).rounds(6);
    w.cfg.group_rounds = 2;
    w.cfg.sampled_groups = 4;
    assert_bit_identical(&[1, 2, 8], || {
        let scaffold = Scaffold::new(w.model.param_len(), w.part.num_clients());
        let (history, params) = run(w.trainer(), &w.groups, &scaffold);
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
        let variate = bits(scaffold.server_variate());
        assert!(variate.iter().any(|&b| b != 0), "the variate never moved");
        (history, bits(params), variate)
    });
}
