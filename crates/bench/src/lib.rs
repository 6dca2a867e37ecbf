//! Experiment harness for the `oblisched` workspace.
//!
//! The paper *Oblivious Interference Scheduling* is a theory paper without an
//! experimental section; its "evaluation" is the set of quantitative claims
//! made by its theorems. This crate regenerates each of those claims as a
//! table (experiments E1–E8), plus three engine measurements that carry
//! acceptance bounds: E9 (incremental engine vs the naive evaluator), E10
//! (dynamic scheduler vs full reschedules) and E11 (dense vs sparse vs
//! parallel-sparse tiers). Alongside sit the pinned perf suite behind the
//! `BENCH_<date>.json` regression gate and five criterion micro-benchmarks
//! of the computational kernels.
//!
//! Run all experiments with
//! `cargo run -p oblisched_bench --bin experiments --release`, or a single one
//! with `--exp e3`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod experiments;
pub mod perf;
pub mod table;
pub mod tiers;

pub use churn::{
    replay_durable, replay_full_reschedule, replay_incremental, replay_incremental_with,
};
pub use experiments::{all_experiments, run_experiment, Experiment};
pub use perf::{run_suite, PerfCase, PerfReport};
pub use table::Table;
pub use tiers::{non_conservative_classes, parallel_tier, TIER_SEED};
