//! The federated data layout a trainer runs over.
//!
//! Historically the engine owned a materialized `(Dataset, ClientPartition)`
//! pair. [`FedData`] makes that one of two representations: the other is a
//! [`VirtualPopulation`] whose client shards are derived on demand, so the
//! steady-state memory of a run is O(sampled clients), not O(population).
//! Everything the engine's hot paths ask of its data — client sizes, label
//! histograms, total sample mass, dimensions — is answerable from summary
//! statistics in both representations; only the client-update boundary ever
//! touches feature rows.

use crate::{Batch, ClientPartition, Dataset, LabelMatrix, VirtualPopulation};
use gfl_tensor::{Matrix, Scalar};

/// Either an eagerly materialized federation or a virtual population.
pub enum FedData {
    /// The eager layout: one dataset, row-index partition per client.
    Materialized {
        /// The pooled training data.
        train: Dataset,
        /// Row indices per client plus the label matrix.
        partition: ClientPartition,
    },
    /// Clients as pure functions of `(seed, id)`; shards derived on demand.
    Virtual(VirtualPopulation),
}

impl FedData {
    /// Number of clients in the federation.
    pub fn num_clients(&self) -> usize {
        match self {
            FedData::Materialized { partition, .. } => partition.num_clients(),
            FedData::Virtual(pop) => pop.num_clients(),
        }
    }

    /// Number of samples held by client `c` — an array/length read in both
    /// representations, never a derivation.
    pub fn client_size(&self, c: usize) -> usize {
        match self {
            FedData::Materialized { partition, .. } => partition.indices[c].len(),
            FedData::Virtual(pop) => pop.client_size(c),
        }
    }

    /// Total training samples across all clients.
    pub fn total_samples(&self) -> usize {
        match self {
            FedData::Materialized { train, .. } => train.len(),
            FedData::Virtual(pop) => pop.total_samples(),
        }
    }

    /// Per-client label histograms — the input to group formation.
    pub fn label_matrix(&self) -> &LabelMatrix {
        match self {
            FedData::Materialized { partition, .. } => &partition.label_matrix,
            FedData::Virtual(pop) => pop.label_matrix(),
        }
    }

    /// Feature width of every sample.
    pub fn feature_dim(&self) -> usize {
        match self {
            FedData::Materialized { train, .. } => train.feature_dim(),
            FedData::Virtual(pop) => pop.spec().data.feature_dim,
        }
    }

    /// Number of label classes.
    pub fn num_classes(&self) -> usize {
        match self {
            FedData::Materialized { train, .. } => train.num_classes(),
            FedData::Virtual(pop) => pop.spec().data.num_classes,
        }
    }

    /// Client `c`'s rows as a dataset of their own, built into the given
    /// backing buffers: the materialized rows gathered from the pooled
    /// dataset in partition order, or the virtual shard derived
    /// ([`VirtualPopulation::shard_from_parts`], whose buffer contract this
    /// shares; `mix` is scratch).
    pub fn shard_from_parts(
        &self,
        c: usize,
        mut features: Vec<Scalar>,
        labels: Vec<usize>,
        mix: &mut Vec<f64>,
    ) -> Dataset {
        match self {
            FedData::Materialized { train, partition } => {
                features.clear();
                let features = Matrix::from_vec(0, 0, features);
                let mut rows = Batch { features, labels };
                train.batch_into(&partition.indices[c], &mut rows);
                Dataset::new(rows.features, rows.labels, train.num_classes())
            }
            FedData::Virtual(pop) => pop.shard_from_parts(c, features, labels, mix),
        }
    }

    /// The eager partition. Panics for virtual populations, whose row
    /// indices do not exist — callers that need per-client rows should go
    /// through [`FedData::client_size`] / the shard derivation instead.
    pub fn partition(&self) -> &ClientPartition {
        match self {
            FedData::Materialized { partition, .. } => partition,
            FedData::Virtual(_) => {
                panic!("virtual populations have no materialized partition")
            }
        }
    }

    /// The eager pooled dataset. Panics for virtual populations.
    pub fn train(&self) -> &Dataset {
        match self {
            FedData::Materialized { train, .. } => train,
            FedData::Virtual(_) => {
                panic!("virtual populations have no materialized training dataset")
            }
        }
    }
}

impl From<(Dataset, ClientPartition)> for FedData {
    fn from((train, partition): (Dataset, ClientPartition)) -> Self {
        FedData::Materialized { train, partition }
    }
}

impl From<VirtualPopulation> for FedData {
    fn from(population: VirtualPopulation) -> Self {
        FedData::Virtual(population)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionSpec, SyntheticSpec, VirtualSpec};

    #[test]
    fn materialized_accessors_delegate() {
        let data = SyntheticSpec::tiny().generate(300, 5);
        let part = ClientPartition::dirichlet(&data, &PartitionSpec::tiny(0.5, 5));
        let sizes = part.sizes();
        let fed = FedData::from((data, part));
        assert_eq!(fed.num_clients(), sizes.len());
        assert_eq!(fed.client_size(0), sizes[0]);
        assert_eq!(fed.total_samples(), 300);
        assert_eq!(fed.num_classes(), 3);
        assert_eq!(fed.feature_dim(), 4);
        assert_eq!(fed.partition().num_clients(), sizes.len());
        assert_eq!(fed.train().len(), 300);
    }

    #[test]
    fn materialized_shard_is_the_clients_rows_in_partition_order() {
        let data = SyntheticSpec::tiny().generate(300, 5);
        let part = ClientPartition::dirichlet(&data, &PartitionSpec::tiny(0.5, 5));
        let fed = FedData::from((data.clone(), part.clone()));
        // Dirty, oversized buffers are cleared before the gather.
        let (features, labels) = (vec![7.0; 999], vec![2; 5]);
        let shard = fed.shard_from_parts(1, features, labels, &mut Vec::new());
        let want = data.subset(&part.indices[1]);
        assert_eq!(shard.features(), want.features());
        assert_eq!(shard.labels(), want.labels());
        assert_eq!(shard.num_classes(), want.num_classes());
    }

    #[test]
    fn virtual_accessors_answer_from_summaries() {
        let pop = VirtualPopulation::new(VirtualSpec::tiny(25, 0.5, 9));
        let total = pop.total_samples();
        let fed = FedData::from(pop);
        assert_eq!(fed.num_clients(), 25);
        assert_eq!(fed.total_samples(), total);
        assert_eq!(fed.num_classes(), 3);
        assert_eq!(fed.feature_dim(), 4);
        assert_eq!(fed.label_matrix().num_clients(), 25);
        let per_client: usize = (0..25).map(|c| fed.client_size(c)).sum();
        assert_eq!(per_client, total);
    }

    #[test]
    #[should_panic(expected = "no materialized partition")]
    fn virtual_partition_access_panics() {
        let fed = FedData::Virtual(VirtualPopulation::new(VirtualSpec::tiny(4, 0.5, 1)));
        let _ = fed.partition();
    }

    #[test]
    #[should_panic(expected = "no materialized training dataset")]
    fn virtual_train_access_panics() {
        let fed = FedData::Virtual(VirtualPopulation::new(VirtualSpec::tiny(4, 0.5, 1)));
        let _ = fed.train();
    }
}
