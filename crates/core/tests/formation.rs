//! Per-edge formation pins (ISSUE 16).
//!
//! Two contracts. The partition `form_groups_per_edge` and
//! `form_groups_active` return is the same at every thread count — edges
//! form on the pool, each from an RNG that is a pure function of
//! `(seed, edge, salt)`, and land by edge index. And it is the partition
//! the scalar, one-edge-after-the-other formation produced: the digests in
//! `golden/formation_digests.txt` were written by the commit *before* the
//! lane kernel existed, so the new code is checked against bytes it did not
//! produce.
//!
//! `GFL_BLESS=1 cargo test -p gfl-core --test formation` rewrites the file;
//! a diff there means formation moved a bit and needs explaining.

use gfl_core::grouping::VarianceGrouping;
use gfl_core::membership::form_groups_active;
use gfl_core::prelude::*;
use gfl_data::{SyntheticSpec, VirtualPopulation, VirtualSpec};
use gfl_sim::Topology;
use gfl_test_support::{assert_bit_identical, golden};

fn population(data: SyntheticSpec, clients: usize, seed: u64) -> (VirtualPopulation, Vec<usize>) {
    let pop = VirtualPopulation::new(VirtualSpec {
        data,
        ..VirtualSpec::paper_vision(clients, 0.1, seed)
    });
    let sizes = (0..clients).map(|c| pop.client_size(c)).collect();
    (pop, sizes)
}

/// FNV-1a over every group's length and members, in order.
fn digest(groups: &[Group]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = groups
        .iter()
        .flat_map(|g| std::iter::once(g.len()).chain(g.iter().copied()));
    for word in words {
        for byte in (word as u64).to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The pinned shapes: `secure-covg`'s smoke shape at two seeds, a MaxCoV
/// tight enough that groups grow past MinGS until nothing improves, VarG on
/// the 35-label speech task, and `scale-churn`'s smoke shape.
fn pinned() -> Vec<(String, Vec<Group>)> {
    let form = |algo: &dyn GroupingAlgorithm, data, clients, edges, seed| {
        let (pop, sizes) = population(data, clients, seed);
        let topo = Topology::even_split(edges, sizes);
        form_groups_per_edge(algo, &topo, pop.label_matrix(), seed)
    };
    let covg = CovGrouping {
        min_group_size: 10,
        max_cov: 0.5,
    };
    let tight = CovGrouping {
        min_group_size: 3,
        max_cov: 0.05,
    };
    let varg = VarianceGrouping {
        min_group_size: 5,
        max_variance: 60.0,
    };
    let vision = SyntheticSpec::vision_like;
    vec![
        (
            "covg/2400x4/seed1".into(),
            form(&covg, vision(), 2400, 4, 1),
        ),
        (
            "covg/2400x4/seed2".into(),
            form(&covg, vision(), 2400, 4, 2),
        ),
        (
            "covg-tight/600x2/seed5".into(),
            form(&tight, vision(), 600, 2, 5),
        ),
        (
            "varg-speech/900x3/seed1".into(),
            form(&varg, SyntheticSpec::speech_like(), 900, 3, 1),
        ),
        (
            "stream/18000x8/seed1".into(),
            form(&StreamGrouping { group_size: 8 }, vision(), 18_000, 8, 1),
        ),
    ]
}

#[test]
fn partitions_match_the_digests_recorded_before_the_lane_kernel() {
    let rendered: String = pinned()
        .iter()
        .map(|(name, groups)| {
            format!(
                "{name} groups={} fnv1a={:016x}\n",
                groups.len(),
                digest(groups)
            )
        })
        .collect();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/formation_digests.txt");
    golden::check(&path, rendered.as_bytes());
}

#[test]
fn partitions_are_equal_at_one_two_and_eight_threads() {
    let (pop, sizes) = population(SyntheticSpec::vision_like(), 700, 3);
    let labels = pop.label_matrix();
    // Edge 1 is empty for the active-only formation, and a fifth of the
    // others' clients are away.
    let topo = Topology::even_split(4, sizes);
    let mut active: Vec<bool> = (0..700).map(|c| c % 5 != 0).collect();
    for &c in topo.clients_of(1) {
        active[c] = false;
    }
    let algos: [&dyn GroupingAlgorithm; 3] = [
        &CovGrouping {
            min_group_size: 6,
            max_cov: 0.5,
        },
        &VarianceGrouping {
            min_group_size: 4,
            max_variance: 60.0,
        },
        &StreamGrouping { group_size: 8 },
    ];
    let form = || {
        algos
            .iter()
            .map(|&algo| {
                (
                    form_groups_per_edge(algo, &topo, labels, 9),
                    form_groups_active(algo, &topo, labels, &active, 9, 0xABCD),
                )
            })
            .collect::<Vec<_>>()
    };
    for (all, some) in &form() {
        assert_eq!(all.iter().map(Vec::len).sum::<usize>(), 700);
        assert!(some.iter().flatten().all(|&c| active[c]));
        assert_eq!(
            some.iter().map(Vec::len).sum::<usize>(),
            active.iter().filter(|&&a| a).count()
        );
    }
    assert_bit_identical(&[1, 2, 8], form);
}
