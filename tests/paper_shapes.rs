//! Miniature versions of the paper's qualitative claims, kept fast enough
//! for `cargo test --workspace`. Full-scale versions live in the
//! `gfl-experiments` registry; these guard the shapes against regressions.

use gfl_core::cov::{group_cov, mean_group_cov};
use gfl_core::engine::form_groups_per_edge;
use gfl_core::grouping::{
    CdgGrouping, CovGrouping, GroupingAlgorithm, KldGrouping, RandomGrouping,
};
use gfl_core::sampling::SamplingStrategy;
use gfl_core::theory::{self, TheoremInputs};
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_experiments::world::skewed_labels;
use gfl_sim::{CostModel, GroupOpKind, Task, Topology};
use gfl_tensor::init;

/// Fig 2(a)/Fig 8: group-op cost overtakes training cost as groups grow,
/// and the method-specific orderings hold for both tasks.
#[test]
fn fig8_cost_orderings() {
    for task in [Task::Vision, Task::Speech] {
        let m = CostModel::for_task(task);
        assert!(m.group_op(GroupOpKind::SecureAggregation, 50) > m.training(50));
        assert!(m.training(50) > m.group_op(GroupOpKind::SecureAggregation, 5));
        for g in [10usize, 30, 50] {
            assert!(
                m.group_op(GroupOpKind::ScaffoldSecureAggregation, g)
                    > m.group_op(GroupOpKind::SecureAggregation, g)
            );
            assert!(
                m.group_op(GroupOpKind::SecureAggregation, g)
                    > m.group_op(GroupOpKind::BackdoorDetection, g)
            );
        }
    }
}

/// Fig 5's quality side + Fig 6: CoVG produces the lowest mean CoV of the
/// four algorithms at comparable group sizes.
#[test]
fn fig6_grouping_quality_ordering() {
    let labels = skewed_labels((80, 10), 3, 20..80, None, 0..6);
    let mut results = Vec::new();
    let algos: Vec<(&str, Box<dyn GroupingAlgorithm>)> = vec![
        ("RG", Box::new(RandomGrouping { group_size: 6 })),
        (
            "CDG",
            Box::new(CdgGrouping {
                group_size: 6,
                kmeans_iters: 10,
            }),
        ),
        ("KLDG", Box::new(KldGrouping { group_size: 6 })),
        (
            "CoVG",
            Box::new(CovGrouping {
                min_group_size: 5,
                max_cov: 0.2,
            }),
        ),
    ];
    for (name, algo) in algos {
        let groups = algo.form_groups(&labels, &mut init::rng(4));
        results.push((name, mean_group_cov(&labels, &groups)));
    }
    let get = |n: &str| results.iter().find(|(name, _)| *name == n).unwrap().1;
    assert!(get("CoVG") < get("RG"), "CoVG must beat RG");
    assert!(get("KLDG") < get("RG"), "KLDG must beat RG");
    assert!(
        get("CoVG") <= get("KLDG") * 1.2,
        "CoVG competitive with KLDG"
    );
}

/// §6.1: stronger emphasis functions concentrate sampling probability on
/// low-CoV groups monotonically (Random < RCoV < SRCoV < ESRCoV).
#[test]
fn fig7_sampling_emphasis_monotonicity() {
    let covs = vec![0.15f32, 0.3, 0.6, 1.2, 2.4];
    let mass_on_best = |s: SamplingStrategy| s.probabilities(&covs)[0];
    let r = mass_on_best(SamplingStrategy::Random);
    let rc = mass_on_best(SamplingStrategy::RCov);
    let src = mass_on_best(SamplingStrategy::SRCov);
    let esrc = mass_on_best(SamplingStrategy::ESRCov);
    assert!(r < rc && rc < src && src < esrc);
}

/// Table 1 structure: in a real Dirichlet federation, tightening MaxCoV
/// grows groups and lowers their CoV, for every α.
#[test]
fn table1_structure_on_dirichlet_partitions() {
    let data = SyntheticSpec::vision_like().generate(6_000, 5);
    for &alpha in &[0.1f64, 1.0] {
        let partition = ClientPartition::dirichlet(
            &data,
            &PartitionSpec {
                num_clients: 60,
                alpha,
                min_size: 20,
                max_size: 120,
                seed: 5,
            },
        );
        let topology = Topology::even_split(2, partition.sizes());
        let stats = |max_cov: f32| {
            let groups = form_groups_per_edge(
                &CovGrouping {
                    min_group_size: 5,
                    max_cov,
                },
                &topology,
                &partition.label_matrix,
                5,
            );
            let avg_size = groups.iter().map(Vec::len).sum::<usize>() as f64 / groups.len() as f64;
            (avg_size, mean_group_cov(&partition.label_matrix, &groups))
        };
        let (size_tight, cov_tight) = stats(0.1);
        let (size_loose, cov_loose) = stats(1.0);
        assert!(
            size_tight >= size_loose,
            "alpha={alpha}: tight MaxCoV sizes {size_tight} vs loose {size_loose}"
        );
        // At this reduced scale the greedy's leftover tail groups add noise,
        // so allow a small tolerance on the CoV ordering (the full-scale
        // table1 binary asserts it strictly).
        assert!(
            cov_tight <= cov_loose + 0.1,
            "alpha={alpha}: tight MaxCoV cov {cov_tight} vs loose {cov_loose}"
        );
    }
}

/// §4.3 key observations on the theorem bound, evaluated on groupings from
/// a real partition: the CoV grouping's lower heterogeneity proxy yields a
/// smaller bound than random grouping's.
#[test]
fn theorem_bound_prefers_cov_grouping() {
    // The observation is statistical, so compare the bound averaged over
    // several partition seeds rather than a single draw (any one draw can
    // go either way by a hair when the random grouping gets lucky).
    let mut covg_total = 0.0;
    let mut rg_total = 0.0;
    for seed in 0..6u64 {
        let data = SyntheticSpec::vision_like().generate(4_000, 6);
        let partition = ClientPartition::dirichlet(
            &data,
            &PartitionSpec {
                num_clients: 40,
                alpha: 0.1,
                min_size: 20,
                max_size: 100,
                seed,
            },
        );
        let topology = Topology::even_split(2, partition.sizes());
        // Hold every theorem input fixed except ζ_g (observation 1 isolates
        // group heterogeneity); ζ_g is proxied by the grouping's mean CoV.
        let bound_for = |algo: &dyn GroupingAlgorithm| {
            let groups = form_groups_per_edge(algo, &topology, &partition.label_matrix, seed);
            let covs: Vec<f32> = groups
                .iter()
                .map(|g| group_cov(&partition.label_matrix, g))
                .collect();
            // Sanity: probabilities derived from these groups stay finite.
            let probs = SamplingStrategy::SRCov.probabilities(&covs);
            assert!(theory::gamma_p(&probs).is_finite());
            let mean_cov = mean_group_cov(&partition.label_matrix, &groups);
            let mut inputs = TheoremInputs::reference();
            inputs.zeta_g_sq = f64::from(mean_cov * mean_cov);
            theory::theorem1_bound(&inputs).unwrap().total()
        };
        covg_total += bound_for(&CovGrouping {
            min_group_size: 5,
            max_cov: 0.3,
        });
        rg_total += bound_for(&RandomGrouping { group_size: 6 });
    }
    assert!(
        covg_total < rg_total,
        "theorem bound must favor CoV grouping on average: {covg_total} vs {rg_total}"
    );
}
