//! Host package for the cross-crate integration tests in the
//! repository-root `tests/` directory and the runnable examples in its
//! `examples/` directory. Run the tests with `cargo test -p
//! gfl-integration` (or `cargo test --workspace`), an example with, e.g.:
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example edge_deployment
//! cargo run --release --example secure_pipeline
//! cargo run --release --example custom_grouping
//! cargo run --release --example theory_explorer
//! cargo run --release --example chaos_run
//! cargo run --release --example churn_run
//! ```
