//! `gfl-benchmark`: the repository's benchmark.
//!
//! Five named workloads ([`workloads`]) are measured end to end by driving
//! the release `gfl` binary as a black-box child process ([`child`],
//! [`measure`]), and layer by layer by timing calls into each crate's public
//! functions at the workloads' own shapes ([`probes`], [`traced`]). A ledger
//! per workload ([`spans`]) reconciles the two. See `README.md` beside this
//! crate for the workloads, the metrics and how to read the output.

pub mod child;
pub mod cli;
pub mod compare;
pub mod env;
pub mod measure;
pub mod metrics;
pub mod parse;
pub mod probes;
pub mod refload;
pub mod report;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
