//! Parent-anchored digests of every synthetic stream (ISSUE 23).
//!
//! The constants below were recorded by running this file on commit
//! `0c78155`, the parent of the change that opened the long streams with
//! the wide reader, replaced the label pass with the lane-wise categorical
//! kernel and flattened `LabelMatrix`. "Bit for bit" is therefore a
//! statement about what the parent computed — population sizes and label
//! rows, shard labels and feature bits, the uniform generator's output —
//! not about the change agreeing with itself. The grid is three population
//! shapes × α ∈ {0.01, 0.1, 1.0} × seeds {1, 5, 9}; α = 0.01 is in it
//! because it reaches the degenerate one-hot mix (all weights but one
//! exactly zero).
//!
//! A mismatch prints the whole freshly computed table, so a change that
//! *means* to move a stream can paste it back; nothing re-records by
//! itself.
//!
//! Every stream draws its normals through the tier's lane kernel, so the
//! digests are checked at every SIMD tier this CPU supports
//! (`simd::set_tier` on the calling thread). A population's sizes and label
//! rows draw no normal through it (their Dirichlet and size draws are the
//! scalar `init::standard_normal`), so each population is built once and
//! each tier redraws what does: the class means and the shards.

use gfl_data::{Dataset, SyntheticSpec, VirtualPopulation, VirtualSpec};
use gfl_tensor::{simd, Matrix};

const CLIENTS: usize = 5_000;
const SHARDS: usize = 16;
const SEEDS: [u64; 3] = [1, 5, 9];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Runs `check` once under each supported tier, passing the tier's name.
fn at_every_tier(check: impl Fn(&str)) {
    for tier in simd::supported_tiers() {
        let prev = simd::set_tier(tier);
        check(tier.name());
        simd::set_tier(prev);
    }
}

/// Labels (as `u32`) then feature bits, row-major.
fn dataset_digest(hash: &mut u64, d: &Dataset) {
    for &l in d.labels() {
        fnv1a(hash, &(l as u32).to_le_bytes());
    }
    for &x in d.features().as_slice() {
        fnv1a(hash, &x.to_bits().to_le_bytes());
    }
}

/// `(sizes, label rows)` of the whole population, client by client.
fn population_digest(pop: &VirtualPopulation) -> u64 {
    let mut hash = FNV_OFFSET;
    for c in 0..pop.num_clients() {
        fnv1a(&mut hash, &(pop.client_size(c) as u32).to_le_bytes());
        for &count in pop.label_matrix().client(c) {
            fnv1a(&mut hash, &count.to_le_bytes());
        }
    }
    hash
}

/// `shard(c)` for sixteen clients spread over the id range.
fn shards_digest(pop: &VirtualPopulation) -> u64 {
    let mut hash = FNV_OFFSET;
    for i in 0..SHARDS {
        let c = (i * 311 + 7) % pop.num_clients();
        dataset_digest(&mut hash, &pop.shard(c));
    }
    hash
}

fn spec_of(shape: &str, alpha: f64, seed: u64) -> VirtualSpec {
    match shape {
        "vision" => VirtualSpec::paper_vision(CLIENTS, alpha, seed),
        "tiny" => VirtualSpec::tiny(CLIENTS, alpha, seed),
        "speech" => VirtualSpec {
            data: SyntheticSpec::speech_like(),
            ..VirtualSpec::paper_vision(CLIENTS, alpha, seed)
        },
        other => panic!("no population shape named {other}"),
    }
}

/// `(shape, α, seed, population digest, shards digest)` at the parent.
const POPULATIONS: [(&str, f64, u64, u64, u64); 27] = [
    ("vision", 0.01, 1, 0x4cf11d9c0f4e4a8b, 0xcdc32f6fe0cd93e2),
    ("vision", 0.01, 5, 0xedb1ff1b716b9d8b, 0x8df9f447c3d0968e),
    ("vision", 0.01, 9, 0x4f09757746de64eb, 0x71a5deeedd08a137),
    ("vision", 0.1, 1, 0x84a4fca6eb8f2e31, 0x0608c4410a0bb71a),
    ("vision", 0.1, 5, 0x1a85d6889d67d9bb, 0x78692a9e3e36789b),
    ("vision", 0.1, 9, 0xcd96dbad1d43c0b3, 0x0fe7d49f55f228ff),
    ("vision", 1.0, 1, 0xd55cc9ec28c23b75, 0x9dffadb823913172),
    ("vision", 1.0, 5, 0x3e1feac48bc1a51b, 0x394f4760d49a6bdb),
    ("vision", 1.0, 9, 0x7372cf2b1518d193, 0xe389e82e46c82658),
    ("tiny", 0.01, 1, 0xe0b39b2a1db6534f, 0xe5d7edfd0755bcd4),
    ("tiny", 0.01, 5, 0x622c11a39dff0ce9, 0xeef10caa3851aabe),
    ("tiny", 0.01, 9, 0x992b38003d170ffb, 0x00eb95e2020c2d02),
    ("tiny", 0.1, 1, 0x35cea992f09fa03b, 0x4d83846558332b6e),
    ("tiny", 0.1, 5, 0x870e8f4ebd32c70b, 0xb9a41e80aaeaf517),
    ("tiny", 0.1, 9, 0x32c5f77c3e514883, 0x314c0b962726c407),
    ("tiny", 1.0, 1, 0x71b048bba834a425, 0x038cf747f6d45664),
    ("tiny", 1.0, 5, 0x948fbad32eba3715, 0xe4f910f647f21850),
    ("tiny", 1.0, 9, 0x9c3ff459d283d0b1, 0x2d9ce74ba84e0e9e),
    ("speech", 0.01, 1, 0x22a92a5acd56d9c5, 0x13ce2f28cb6ca6c5),
    ("speech", 0.01, 5, 0x16dfce63aa973a21, 0xcf1be4c0ea2c5229),
    ("speech", 0.01, 9, 0x31a339a51c2459ef, 0x4dfbba9149a35b2f),
    ("speech", 0.1, 1, 0xce9e9f0df09b5e3d, 0x7dd0c79ec177cbdc),
    ("speech", 0.1, 5, 0x43510e7029860885, 0xcec99a4c7d0e80d0),
    ("speech", 0.1, 9, 0x0d1233186697f2c3, 0x9c6e5290aacce936),
    ("speech", 1.0, 1, 0x4e55a08f30a206b5, 0xcf48640fe3183924),
    ("speech", 1.0, 5, 0x0c73ab05a4ba518d, 0xea2d10be24431593),
    ("speech", 1.0, 9, 0x3220c9d234f2d73b, 0x9171a80bae9d8b47),
];

/// `(task, seed, digest of generate(2 000, seed))` at the parent.
const GENERATED: [(&str, u64, u64); 6] = [
    ("vision", 1, 0x32f86bcc0ba8dad2),
    ("vision", 5, 0xdca9371ad8811362),
    ("vision", 9, 0x9e765ae640fd3171),
    ("speech", 1, 0x2748e44c78508717),
    ("speech", 5, 0x4bdfe4041d603c2e),
    ("speech", 9, 0x414343236a314989),
];

#[test]
fn populations_and_shards_are_the_parents() {
    let pops: Vec<_> = POPULATIONS
        .iter()
        .map(|&(shape, alpha, seed, ..)| VirtualPopulation::new(spec_of(shape, alpha, seed)))
        .collect();
    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    at_every_tier(|tier| {
        let fresh: Vec<_> = POPULATIONS
            .iter()
            .zip(&pops)
            .map(|(&(shape, alpha, seed, ..), pop)| {
                let means = pop.spec().data.class_means_for(pop.spec().seed);
                assert!(
                    bits(&means) == bits(pop.means()),
                    "class means of ({shape}, {alpha}, {seed}) moved at tier {tier}"
                );
                (
                    shape,
                    alpha,
                    seed,
                    population_digest(pop),
                    shards_digest(pop),
                )
            })
            .collect();
        let table: String = fresh
            .iter()
            .map(|(shape, alpha, seed, pop, shards)| {
                format!("    ({shape:?}, {alpha:?}, {seed}, {pop:#018x}, {shards:#018x}),\n")
            })
            .collect();
        assert!(
            fresh == POPULATIONS,
            "population or shard streams moved at tier {tier}; computed now:\n{table}"
        );
    });
}

#[test]
fn uniform_generator_output_is_the_parents() {
    at_every_tier(|tier| {
        let mut fresh = Vec::new();
        for (task, spec) in [
            ("vision", SyntheticSpec::vision_like()),
            ("speech", SyntheticSpec::speech_like()),
        ] {
            for seed in SEEDS {
                let mut hash = FNV_OFFSET;
                dataset_digest(&mut hash, &spec.generate(2_000, seed));
                fresh.push((task, seed, hash));
            }
        }
        let table: String = fresh
            .iter()
            .map(|(task, seed, hash)| format!("    ({task:?}, {seed}, {hash:#018x}),\n"))
            .collect();
        assert!(
            fresh == GENERATED,
            "the interleaved generate stream moved at tier {tier}; computed now:\n{table}"
        );
    });
}

/// `(seed, digests of generate(60 000, seed) and of its split_holdout(6)
/// train and test halves)` for the speech task, recorded by running this
/// test on `6604efa`, the parent of the change that generates the uniform
/// stream in chunks. 60 000 rows span many chunks.
const GENERATED_MULTI_CHUNK: [(u64, u64, u64, u64); 3] = [
    (
        1,
        0xa49d52092296908e,
        0x494316cdffd353ff,
        0x10e32b22862a8958,
    ),
    (
        5,
        0x4417b5648d820fa6,
        0x63414c9a2f385d86,
        0xa535fe05c870a021,
    ),
    (
        9,
        0x3c67eac8efbabfcf,
        0xc260caed313f5856,
        0x2cf7100382e2b574,
    ),
];

#[test]
fn multi_chunk_generator_output_is_the_parents() {
    let spec = SyntheticSpec::speech_like();
    let digest = |d: &Dataset| {
        let mut hash = FNV_OFFSET;
        dataset_digest(&mut hash, d);
        hash
    };
    let fresh: Vec<_> = SEEDS
        .iter()
        .map(|&seed| {
            let pooled = spec.generate(60_000, seed);
            let (train, test) = pooled.split_holdout(6);
            (seed, digest(&pooled), digest(&train), digest(&test))
        })
        .collect();
    let table: String = fresh
        .iter()
        .map(|(seed, pooled, train, test)| {
            format!("    ({seed}, {pooled:#018x}, {train:#018x}, {test:#018x}),\n")
        })
        .collect();
    assert!(
        fresh == GENERATED_MULTI_CHUNK,
        "the multi-chunk generate stream moved; computed now:\n{table}"
    );
    // The halves drawn straight from the stream are the same ones, at every
    // tier: together they hold every row of the stream.
    at_every_tier(|tier| {
        for &(seed, _, train_digest, test_digest) in &GENERATED_MULTI_CHUNK {
            let (train, test) = spec.generate_holdout(60_000, 6, seed);
            assert_eq!(
                (digest(&train), digest(&test)),
                (train_digest, test_digest),
                "generate_holdout(60 000, 6, {seed}) at tier {tier}"
            );
        }
    });
}
