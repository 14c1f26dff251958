//! Data substrate for the Group-FEL reproduction.
//!
//! The paper evaluates on CIFAR-10 (10 classes) and Speech Commands (35
//! classes), partitioned across 300 clients with 20–200 samples each and
//! Dirichlet(α) label skew. Neither dataset ships with this repository, so
//! [`synthetic`] generates class-conditional Gaussian datasets with the same
//! label cardinalities — the non-IID phenomena under study are functions of
//! the *label distribution geometry*, which the substitution preserves
//! exactly (see DESIGN.md §1).
//!
//! * [`Dataset`] — dense feature matrix + labels + class count.
//! * [`synthetic`] — seeded generators (`vision_like`, `speech_like`).
//! * [`partition`] — Dirichlet label-skew client partitioner (§7.2 setup).
//! * [`LabelMatrix`] — per-client label histograms `L[i][j]` (§5.1), the
//!   only statistic the grouping algorithms are allowed to see.

pub mod csv;
pub mod dataset;
pub mod feddata;
pub mod label_matrix;
pub mod partition;
pub mod poison;
pub mod synthetic;
pub mod virtual_pop;

pub use csv::{load_dataset, read_dataset, write_dataset};
pub use dataset::{Batch, Dataset};
pub use feddata::FedData;
pub use label_matrix::LabelMatrix;
pub use partition::{ClientPartition, PartitionSpec};
pub use poison::Trigger;
pub use synthetic::SyntheticSpec;
pub use virtual_pop::{VirtualPopulation, VirtualSpec};
