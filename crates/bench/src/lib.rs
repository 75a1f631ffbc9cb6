//! # segstack-bench
//!
//! The benchmark harness reproducing every experiment of *Representing
//! Control in the Presence of First-Class Continuations*: E1–E14, E16–E19
//! and the ablations A1–A3. DESIGN.md §4 maps E1–E14 and A1–A3 to the paper's
//! figures and claims; EXPERIMENTS.md records the measured shape of each.
//!
//! Two entry points:
//!
//! * `cargo run -p segstack-bench --release --bin harness [e01 e09 ...]` —
//!   prints every experiment table (or just the selected ones), with both
//!   sampled wall-clock times and architecture-independent counters;
//!   `--json PATH` also writes them as a machine-readable snapshot.
//! * `cargo run -p segstack-bench --release --bin compare -- -e EXPR` —
//!   runs one program on all six strategies and prints their sampled
//!   times and counters.
//!
//! Both time programs one way, through [`experiments::sample`]: a warm-up
//! run of each variant, then [`experiments::ROUNDS`] rounds on fresh
//! engines in alternating order, reduced to medians and quartiles. The
//! serve runtime is measured end to end by `segbench serve`, which
//! submits the [`serve_load`] job mix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod serve_load;
pub mod table;
pub mod workloads;
