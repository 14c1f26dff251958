//! Virtual client populations: clients as pure functions of `(seed, id)`.
//!
//! The eager pipeline (generate → `ClientPartition::dirichlet`) materializes
//! every client's rows up front, which caps experiments at ~10³ clients. The
//! paper's population-level results (Theorems 1–2, Figs. 5–6) want 10⁵–10⁶
//! clients, of which only the sampled groups ever train in a round. A
//! [`VirtualPopulation`] therefore stores O(population) *summary statistics*
//! (per-client sizes and label histograms — exactly what group formation
//! consumes) and derives any client's feature rows on demand:
//!
//! * client `c`'s RNG seed is a splitmix hash of `(population seed, c)`,
//! * its size is one clipped-normal draw (the `partition.rs` formula,
//!   without the finite-supply cap — a virtual population has no pooled
//!   dataset to exhaust),
//! * its label mix is `Dirichlet(α)` from a salted stream,
//! * its shard is [`SyntheticSpec::generate_weighted_with_means`] against
//!   the population-wide mean constellation, so every client sees the same
//!   learnable task (per-client constellations would make federation
//!   meaningless).
//!
//! Because the weighted generator is split-stream, label histograms are
//! recovered with O(size) integer draws and zero feature work; features are
//! only synthesized for clients an engine round actually samples, into
//! pooled buffers via [`VirtualPopulation::shard_from_parts`].
//!
//! [`VirtualPopulation::materialize`] lowers the whole population to the
//! eager `(Dataset, ClientPartition)` representation with contiguous
//! per-client row ranges — the bridge the equivalence test layer uses to
//! prove virtual ≡ materialized bitwise (see docs/SCALE.md).

use gfl_tensor::init;
use gfl_tensor::{Matrix, Scalar};

use crate::{ClientPartition, Dataset, LabelMatrix, SyntheticSpec};

/// Stream salts separating the per-client derivations. Distinct constants
/// keep the size, mix, and shard streams independent even though they share
/// one client seed.
const CLIENT_SALT: u64 = 0x5649_5254_434C_4E54; // "VIRTCLNT"
const SIZE_SALT: u64 = 0x5649_5254_535A_4531; // "VIRTSZE1"
const MIX_SALT: u64 = 0x5649_5254_4D49_5831; // "VIRTMIX1"
const TEST_SALT: u64 = 0x5649_5254_5445_5354; // "VIRTTEST"

/// SplitMix64 finalizer — decorrelates adjacent client ids into full-width
/// seeds before they feed the ChaCha streams.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Specification of a virtual population: the data model plus the paper's
/// §7.2 population shape (client count, Dirichlet α, size bounds).
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualSpec {
    /// Class-conditional Gaussian data model shared by every client.
    pub data: SyntheticSpec,
    /// Population size (the paper's N; scalable to 10⁶).
    pub num_clients: usize,
    /// Dirichlet concentration α for per-client label mixes.
    pub alpha: f64,
    /// Minimum client dataset size (paper: 20).
    pub min_size: usize,
    /// Maximum client dataset size (paper: 200).
    pub max_size: usize,
    /// Population RNG seed; every client derivation hashes off this.
    pub seed: u64,
}

impl VirtualSpec {
    /// The paper's CIFAR-10 experiment shape (vision data, 20–200 samples
    /// per client) at an arbitrary population size.
    pub fn paper_vision(num_clients: usize, alpha: f64, seed: u64) -> Self {
        Self {
            data: SyntheticSpec::vision_like(),
            num_clients,
            alpha,
            min_size: 20,
            max_size: 200,
            seed,
        }
    }

    /// Small population for unit tests.
    pub fn tiny(num_clients: usize, alpha: f64, seed: u64) -> Self {
        Self {
            data: SyntheticSpec::tiny(),
            num_clients,
            alpha,
            min_size: 5,
            max_size: 20,
            seed,
        }
    }
}

/// A population whose clients exist as summary statistics until sampled.
///
/// Memory: O(num_clients × num_labels) for the label matrix plus
/// O(num_clients) sizes — never O(total samples × feature_dim).
#[derive(Debug, Clone)]
pub struct VirtualPopulation {
    spec: VirtualSpec,
    /// Population-wide class-mean constellation (shared learnable task).
    means: Matrix,
    /// Per-client sample counts.
    sizes: Vec<u32>,
    /// Per-client label histograms — the grouping algorithms' only input.
    label_matrix: LabelMatrix,
    /// Sum of all client sizes.
    total_samples: usize,
}

impl VirtualPopulation {
    /// Builds the population's summary statistics. O(total samples) integer
    /// draws, parallelized over clients; no feature work.
    pub fn new(spec: VirtualSpec) -> Self {
        assert!(spec.num_clients > 0, "need at least one client");
        assert!(spec.min_size <= spec.max_size, "size bounds inverted");
        assert!(spec.alpha > 0.0, "alpha must be positive");
        assert!(spec.data.num_classes > 0 && spec.data.feature_dim > 0);
        let m = spec.data.num_classes;
        let means = spec.data.class_means_for(spec.seed);

        // Chunked parallel build, in place: each chunk of clients owns its
        // range of the two final buffers. A client is a pure function of its
        // id, so the population is the same at any thread count or chunk
        // boundary.
        let mut sizes = vec![0u32; spec.num_clients];
        let mut counts = vec![0u32; spec.num_clients * m];
        let per_chunk = spec
            .num_clients
            .div_ceil(gfl_parallel::default_parallelism());
        let mut chunks: Vec<_> = sizes
            .chunks_mut(per_chunk)
            .zip(counts.chunks_mut(per_chunk * m))
            .collect();
        let spec_ref = &spec;
        gfl_parallel::par_for_each_init(
            &mut chunks,
            || vec![0.0f64; m],
            |mix, chunk, (chunk_sizes, chunk_counts)| {
                let rows = chunk_counts.chunks_exact_mut(m);
                for (i, (size, row)) in chunk_sizes.iter_mut().zip(rows).enumerate() {
                    *size = client_stats(spec_ref, chunk * per_chunk + i, mix, row) as u32;
                }
            },
        );

        let total_samples = sizes.iter().map(|&s| s as usize).sum();
        Self {
            label_matrix: LabelMatrix::from_flat(counts, spec.num_clients, m),
            spec,
            means,
            sizes,
            total_samples,
        }
    }

    pub fn spec(&self) -> &VirtualSpec {
        &self.spec
    }

    /// The shared class-mean constellation.
    pub fn means(&self) -> &Matrix {
        &self.means
    }

    pub fn num_clients(&self) -> usize {
        self.sizes.len()
    }

    /// Client `c`'s sample count — one array read, no derivation.
    pub fn client_size(&self, c: usize) -> usize {
        self.sizes[c] as usize
    }

    /// Per-client label histograms, the input to group formation.
    pub fn label_matrix(&self) -> &LabelMatrix {
        &self.label_matrix
    }

    /// Total samples across the population.
    pub fn total_samples(&self) -> usize {
        self.total_samples
    }

    /// The derivation seed for client `c`'s streams.
    pub fn client_seed(&self, c: usize) -> u64 {
        client_seed(&self.spec, c)
    }

    /// Client `c`'s Dirichlet(α) label mix, re-derived on demand.
    pub fn client_mix(&self, c: usize) -> Vec<f64> {
        let mut mix = vec![0.0; self.spec.data.num_classes];
        client_mix_into(&self.spec, self.client_seed(c), &mut mix);
        mix
    }

    /// Materializes client `c`'s shard: `client_size(c)` rows of
    /// `means[label] + N(0, noise²)`. Bitwise-deterministic in
    /// `(spec.seed, c)`.
    pub fn shard(&self, c: usize) -> Dataset {
        self.shard_from_parts(c, Vec::new(), Vec::new(), &mut Vec::new())
    }

    /// [`Self::shard`] building into caller-supplied backing buffers, so
    /// the per-round materialization of sampled clients can recycle the
    /// allocations of a worker's scratch. Pass the buffers back by
    /// destructuring the returned dataset with [`Dataset::into_parts`] and
    /// [`Matrix::into_vec`]; `mix` is scratch for the client's label mix
    /// and holds nothing the caller needs afterwards.
    pub fn shard_from_parts(
        &self,
        c: usize,
        mut features: Vec<Scalar>,
        mut labels: Vec<usize>,
        mix: &mut Vec<f64>,
    ) -> Dataset {
        let n = self.client_size(c);
        let data = &self.spec.data;
        let seed = self.client_seed(c);
        mix.clear();
        mix.resize(data.num_classes, 0.0);
        client_mix_into(&self.spec, seed, mix);
        labels.clear();
        data.weighted_labels_into(n, mix, seed, &mut labels);
        features.clear();
        features.resize(n * data.feature_dim, 0.0);
        let mut matrix = Matrix::from_vec(n, data.feature_dim, features);
        data.fill_weighted_features(&labels, &self.means, seed, &mut matrix);
        Dataset::new(matrix, labels, data.num_classes)
    }

    /// A held-out evaluation set from the population's data model, drawn
    /// from a salted stream disjoint from every client's.
    pub fn test_set(&self, n: usize) -> Dataset {
        self.spec.data.generate(n, self.spec.seed ^ TEST_SALT)
    }

    /// Lowers the population to the eager representation: one dataset whose
    /// rows are the clients' shards concatenated in id order, plus a
    /// [`ClientPartition`] giving client `c` the contiguous row range
    /// `[offset_c, offset_c + size_c)`. Row `offset_c + i` is bitwise
    /// `shard(c)` row `i` — the invariant the equivalence suite pins.
    ///
    /// O(total samples × feature_dim) memory: only for tests and small
    /// populations.
    pub fn materialize(&self) -> (Dataset, ClientPartition) {
        let dim = self.spec.data.feature_dim;
        let mut features = Matrix::zeros(self.total_samples, dim);
        let mut labels = Vec::with_capacity(self.total_samples);
        let mut indices = Vec::with_capacity(self.num_clients());
        let mut offset = 0usize;
        for c in 0..self.num_clients() {
            let shard = self.shard(c);
            let n = shard.len();
            for i in 0..n {
                features
                    .row_mut(offset + i)
                    .copy_from_slice(shard.features().row(i));
            }
            labels.extend_from_slice(shard.labels());
            indices.push((offset..offset + n).collect());
            offset += n;
        }
        let dataset = Dataset::new(features, labels, self.spec.data.num_classes);
        let partition = ClientPartition {
            indices,
            label_matrix: self.label_matrix.clone(),
        };
        (dataset, partition)
    }
}

/// One client's summary derivation: returns its size and adds its label
/// histogram into `row` (zeroed, one slot per class). `mix` is scratch of the
/// same width, reused across clients.
fn client_stats(spec: &VirtualSpec, c: usize, mix: &mut [f64], row: &mut [u32]) -> usize {
    let seed = client_seed(spec, c);
    let size = draw_size(spec, seed);
    client_mix_into(spec, seed, mix);
    spec.data.weighted_label_counts_into(size, mix, seed, row);
    size
}

/// The seed of client `c`'s streams: a hash of `(population seed, c)`.
fn client_seed(spec: &VirtualSpec, c: usize) -> u64 {
    splitmix(spec.seed ^ splitmix(c as u64 ^ CLIENT_SALT))
}

/// The Dirichlet(α) label mix of the client with seed `client_seed`, into
/// `mix` (one slot per class).
fn client_mix_into(spec: &VirtualSpec, client_seed: u64, mix: &mut [f64]) {
    let mut rng = init::rng(client_seed ^ MIX_SALT);
    init::dirichlet_symmetric_into(&mut rng, spec.alpha, mix);
}

/// The `partition.rs` clipped-normal size draw, minus the finite-supply cap
/// (a virtual population synthesizes data instead of drawing from a pool).
fn draw_size(spec: &VirtualSpec, client_seed: u64) -> usize {
    let mean = (spec.min_size + spec.max_size) as f32 / 2.0;
    let std = (spec.max_size - spec.min_size).max(1) as f32 / 4.0;
    let mut rng = init::rng(client_seed ^ SIZE_SALT);
    let draw = init::normal(&mut rng, mean, std).round();
    (draw as i64).clamp(spec.min_size as i64, spec.max_size as i64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_deterministic() {
        let a = VirtualPopulation::new(VirtualSpec::tiny(40, 0.5, 7));
        let b = VirtualPopulation::new(VirtualSpec::tiny(40, 0.5, 7));
        assert_eq!(a.sizes, b.sizes);
        assert_eq!(a.label_matrix, b.label_matrix);
        let sa = a.shard(13);
        let sb = b.shard(13);
        assert_eq!(sa.labels(), sb.labels());
        assert_eq!(sa.features().as_slice(), sb.features().as_slice());
    }

    #[test]
    fn sizes_respect_bounds_and_total() {
        let pop = VirtualPopulation::new(VirtualSpec::tiny(100, 0.3, 3));
        let mut total = 0usize;
        for c in 0..pop.num_clients() {
            let s = pop.client_size(c);
            assert!((5..=20).contains(&s), "size {s} out of bounds");
            total += s;
        }
        assert_eq!(total, pop.total_samples());
    }

    #[test]
    fn histograms_match_materialized_shards() {
        let pop = VirtualPopulation::new(VirtualSpec::tiny(30, 0.4, 11));
        for c in 0..pop.num_clients() {
            let shard = pop.shard(c);
            assert_eq!(shard.len(), pop.client_size(c));
            let mut hist = vec![0u32; 3];
            for &l in shard.labels() {
                hist[l] += 1;
            }
            assert_eq!(pop.label_matrix().client(c), hist.as_slice());
        }
    }

    #[test]
    fn shard_from_parts_recycles_buffers() {
        let pop = VirtualPopulation::new(VirtualSpec::tiny(10, 0.5, 5));
        let eager = pop.shard(4);
        let pooled = pop.shard_from_parts(4, vec![9.0; 1000], vec![7usize; 9], &mut vec![0.5; 7]);
        assert_eq!(eager.labels(), pooled.labels());
        assert_eq!(eager.features().as_slice(), pooled.features().as_slice());
        let (m, l) = pooled.into_parts();
        assert_eq!(m.into_vec().len(), eager.len() * 4);
        assert_eq!(l.len(), eager.len());
    }

    #[test]
    fn materialize_gives_contiguous_ranges() {
        let pop = VirtualPopulation::new(VirtualSpec::tiny(20, 0.5, 9));
        let (data, part) = pop.materialize();
        assert_eq!(data.len(), pop.total_samples());
        assert_eq!(part.num_clients(), pop.num_clients());
        let mut offset = 0usize;
        for c in 0..pop.num_clients() {
            let shard = pop.shard(c);
            let expect: Vec<usize> = (offset..offset + shard.len()).collect();
            assert_eq!(part.indices[c], expect);
            for i in 0..shard.len() {
                assert_eq!(data.labels()[offset + i], shard.labels()[i]);
                assert_eq!(
                    data.features().row(offset + i),
                    shard.features().row(i),
                    "client {c} row {i}"
                );
            }
            offset += shard.len();
        }
        assert_eq!(&part.label_matrix, pop.label_matrix());
    }

    #[test]
    fn distinct_clients_have_distinct_shards() {
        let pop = VirtualPopulation::new(VirtualSpec::tiny(6, 0.5, 2));
        let a = pop.shard(0);
        let b = pop.shard(1);
        assert_ne!(a.features().as_slice(), b.features().as_slice());
    }

    #[test]
    fn test_set_is_disjoint_stream() {
        let pop = VirtualPopulation::new(VirtualSpec::tiny(4, 1.0, 3));
        let t = pop.test_set(50);
        assert_eq!(t.len(), 50);
        assert_eq!(t.num_classes(), 3);
        let s = pop.shard(0);
        assert_ne!(t.features().row(0), s.features().row(0));
    }
}
