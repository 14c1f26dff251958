//! Every table and figure of the paper's §7 (and the repository's
//! extensions) as rows of one registry — see DESIGN.md §3 for the index —
//! behind one binary: `gfl-experiments [--threads N] [--scale small|paper]
//! list | run <id>…|all | check <id>…|all`.
//!
//! Every row:
//! 1. builds a *world* (synthetic federation mirroring the paper's setup),
//! 2. runs one or more methods through the Algorithm-1 engine,
//! 3. returns the rows/series the paper plots as typed tables, and
//! 4. judges the paper's claim from those tables alone.
//!
//! The runner prints the tables, writes them as CSV under `results/`, and
//! (`check`) compares a regeneration against the committed files.
//!
//! Scale is chosen by `--scale`:
//! * `small` (default) — a reduced federation that reproduces every *shape*
//!   in minutes on a laptop (120 clients, 3 edges, shortened horizon).
//! * `paper` — the paper's full §7.2 scale (300 clients, 10⁶ budget);
//!   tables land in `results/paper/`.

#![forbid(unsafe_code)]

pub mod emit;
pub mod methods;
pub mod registry;
mod rows;
pub mod world;

pub use methods::{run_method, Method};
pub use registry::{Experiment, EXPERIMENTS};
pub use world::{ExpScale, ScaleName, World};
