//! Theory explorer: evaluates the Theorem 1 convergence bound (§4) for a
//! real grouping produced by each algorithm, making the paper's three key
//! observations (§4.3) concrete:
//!
//! 1. lower group heterogeneity ζ_g ⇒ smaller bound (CoV-Grouping's goal),
//! 2. lower sampling variance Γ_p ⇒ smaller sampling term,
//! 3. γ − 1 equals the squared CoV of client data volumes.
//!
//! ```text
//! cargo run --release --example theory_explorer
//! ```

use gfl_core::cov::{group_cov, mean_group_cov};
use gfl_core::grouping::{CovGrouping, GroupingAlgorithm, RandomGrouping};
use gfl_core::prelude::*;
use gfl_core::theory::{self, TheoremInputs};
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_sim::Topology;

fn main() {
    let data = SyntheticSpec::vision_like().generate(6_000, 11);
    let partition = ClientPartition::dirichlet(
        &data,
        &PartitionSpec {
            num_clients: 80,
            alpha: 0.1,
            min_size: 20,
            max_size: 120,
            seed: 11,
        },
    );
    let topology = Topology::even_split(2, partition.sizes());

    println!("algorithm | mean CoV | gamma | Gamma | Gamma_p | bound (total)");
    let algos: Vec<Box<dyn GroupingAlgorithm>> = vec![
        Box::new(RandomGrouping { group_size: 6 }),
        Box::new(CovGrouping {
            min_group_size: 5,
            max_cov: 0.4,
        }),
    ];
    for algo in algos {
        let groups = form_groups_per_edge(algo.as_ref(), &topology, &partition.label_matrix, 11);
        let covs: Vec<f32> = groups
            .iter()
            .map(|g| group_cov(&partition.label_matrix, g))
            .collect();
        let probs = SamplingStrategy::SRCov.probabilities(&covs);

        // γ averaged over groups, Γ across groups, Γ_p from the sampler.
        let gammas: Vec<f64> = groups
            .iter()
            .map(|g| {
                let sizes: Vec<usize> = g.iter().map(|&c| partition.indices[c].len()).collect();
                theory::gamma(&sizes)
            })
            .collect();
        let gamma = gammas.iter().sum::<f64>() / gammas.len() as f64;
        let group_sizes: Vec<usize> = groups
            .iter()
            .map(|g| g.iter().map(|&c| partition.indices[c].len()).sum())
            .collect();
        let big_gamma = theory::big_gamma(&group_sizes);
        let gamma_p = theory::gamma_p(&probs);
        let mean_cov = mean_group_cov(&partition.label_matrix, &groups);

        // Use mean group CoV as the ζ_g proxy (§4.3: "we use the difference
        // between data distributions to measure how analogous two loss
        // functions are").
        let mut inputs = TheoremInputs::reference();
        inputs.gamma = gamma;
        inputs.big_gamma = big_gamma;
        inputs.gamma_p = gamma_p.min(1e6);
        inputs.zeta_g_sq = f64::from(mean_cov * mean_cov);
        let bound = theory::theorem1_bound(&inputs).expect("inside validity region");
        println!(
            "{:9} | {mean_cov:8.3} | {gamma:5.3} | {big_gamma:5.3} | {gamma_p:7.1} | {:.4} \
             (opt {:.4} + sampling {:.4} + heterogeneity {:.4})",
            algo.name(),
            bound.total(),
            bound.optimization,
            bound.sampling,
            bound.heterogeneity
        );
    }

    // Observation 3: γ − 1 = CoV² of client data volumes, exactly.
    let sizes = [30usize, 60, 90, 180];
    let g = theory::gamma(&sizes);
    let floats: Vec<f32> = sizes.iter().map(|&s| s as f32).collect();
    let cov = f64::from(gfl_tensor::stats::coefficient_of_variation(&floats));
    println!(
        "\nγ − 1 = {:.6}, CoV² = {:.6} (identity of §4.3 ✓)",
        g - 1.0,
        cov * cov
    );
    assert!((g - 1.0 - cov * cov).abs() < 1e-6);
}
