//! Property layer for the virtual-population derivation (ISSUE 10,
//! satellite 1).
//!
//! [`VirtualPopulation::shard`] must be *the same function* as the eager
//! generator it claims to factor: for any population shape and any client
//! id, the shard equals [`SyntheticSpec::generate_weighted_with_means`]
//! evaluated at the client's published `(size, mix, means, seed)` — to the
//! bit, features and labels both. The same holds after poisoning: applying
//! a backdoor trigger or label flip to a freshly derived shard yields the
//! rows an eagerly materialized-and-poisoned pipeline would train on.
//! Population-level invariants (histogram consistency, materialize
//! round-trip, buffer obliviousness) are also pinned under arbitrary
//! shapes.

use gfl_data::poison::label_flip;
use gfl_data::{Trigger, VirtualPopulation, VirtualSpec};
use proptest::prelude::*;

/// Arbitrary small population shapes: degenerate single-client
/// populations, fixed-size populations, near-uniform and heavily skewed
/// mixes all reachable.
fn spec_strategy() -> impl Strategy<Value = VirtualSpec> {
    (1usize..40, 0.05f64..4.0, 0u64..u64::MAX).prop_map(|(n, alpha, seed)| {
        let mut s = VirtualSpec::tiny(n, alpha, seed);
        // Cover the min == max degeneracy on a slice of cases.
        if seed % 7 == 0 {
            s.min_size = s.max_size;
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite 1 core: shard(c) ≡ the eager weighted generator at the
    /// client's published derivation inputs.
    #[test]
    fn shard_matches_eager_generator(spec in spec_strategy(), pick in 0usize..1 << 20) {
        let pop = VirtualPopulation::new(spec.clone());
        let c = pick % pop.num_clients();
        let shard = pop.shard(c);
        let eager = spec.data.generate_weighted_with_means(
            pop.client_size(c),
            &pop.client_mix(c),
            pop.means(),
            pop.client_seed(c),
        );
        prop_assert_eq!(shard.labels(), eager.labels());
        prop_assert_eq!(shard.features().as_slice(), eager.features().as_slice());
        prop_assert_eq!(shard.num_classes(), eager.num_classes());
    }

    /// Poisoned rows: trigger + flip applied to a derived shard equal the
    /// same campaign applied to the eager twin, row for row.
    #[test]
    fn poisoned_shards_match_eager_poisoning(
        spec in spec_strategy(),
        pick in 0usize..1 << 20,
        rows in proptest::collection::vec(0usize..1 << 20, 0..8),
        width in 1usize..3,
    ) {
        let pop = VirtualPopulation::new(spec.clone());
        let c = pick % pop.num_clients();
        let n = pop.client_size(c);
        let picked: Vec<usize> = {
            let mut v: Vec<usize> = rows.iter().map(|r| r % n).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let trigger = Trigger::corner(width, 0);

        let poison = |ds: gfl_data::Dataset| {
            let classes = ds.num_classes();
            let (mut features, mut labels) = ds.into_parts();
            trigger.apply(&mut features, &mut labels, &picked);
            label_flip(&mut labels, &picked, 1, 0);
            gfl_data::Dataset::new(features, labels, classes)
        };

        let virt = poison(pop.shard(c));
        let eager = poison(spec.data.generate_weighted_with_means(
            n,
            &pop.client_mix(c),
            pop.means(),
            pop.client_seed(c),
        ));
        prop_assert_eq!(virt.labels(), eager.labels());
        prop_assert_eq!(virt.features().as_slice(), eager.features().as_slice());
    }

    /// The population's O(labels)-per-client summary statistics agree with
    /// full derivation: histogram row c counts shard(c)'s labels, sizes
    /// match and stay in bounds.
    #[test]
    fn summaries_match_derived_shards(spec in spec_strategy(), pick in 0usize..1 << 20) {
        let pop = VirtualPopulation::new(spec.clone());
        let c = pick % pop.num_clients();
        let shard = pop.shard(c);
        prop_assert_eq!(shard.len(), pop.client_size(c));
        prop_assert!((spec.min_size..=spec.max_size).contains(&shard.len()));
        let mut hist = vec![0u32; spec.data.num_classes];
        for &l in shard.labels() {
            hist[l] += 1;
        }
        prop_assert_eq!(pop.label_matrix().client(c), hist.as_slice());
    }

    /// `materialize()` is a faithful lowering: contiguous in-order ranges
    /// whose rows are bitwise the per-client shards.
    #[test]
    fn materialize_roundtrips(spec in spec_strategy()) {
        let pop = VirtualPopulation::new(spec);
        let (data, part) = pop.materialize();
        prop_assert_eq!(data.len(), pop.total_samples());
        prop_assert_eq!(part.num_clients(), pop.num_clients());
        let mut offset = 0usize;
        for c in 0..pop.num_clients() {
            let shard = pop.shard(c);
            for i in 0..shard.len() {
                prop_assert_eq!(data.labels()[offset + i], shard.labels()[i]);
                prop_assert_eq!(data.features().row(offset + i), shard.features().row(i));
            }
            prop_assert_eq!(
                part.indices[c].as_slice(),
                (offset..offset + shard.len()).collect::<Vec<_>>().as_slice()
            );
            offset += shard.len();
        }
        prop_assert_eq!(&part.label_matrix, pop.label_matrix());
    }

    /// Buffer recycling cannot change bits: dirty, over- and under-sized
    /// backing buffers produce the same shard as fresh allocation.
    #[test]
    fn shard_from_parts_is_buffer_oblivious(
        spec in spec_strategy(),
        pick in 0usize..1 << 20,
        junk_f in 0usize..4096,
        junk_l in 0usize..512,
    ) {
        let pop = VirtualPopulation::new(spec);
        let c = pick % pop.num_clients();
        let fresh = pop.shard(c);
        let pooled = pop.shard_from_parts(
            c,
            vec![gfl_tensor::Scalar::NAN; junk_f],
            vec![usize::MAX; junk_l],
            &mut vec![f64::NAN; junk_l % 50],
        );
        prop_assert_eq!(fresh.labels(), pooled.labels());
        prop_assert_eq!(fresh.features().as_slice(), pooled.features().as_slice());
    }
}
