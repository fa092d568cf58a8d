//! # kairos-bench
//!
//! Shared experiment harness code for reproducing every figure and table of
//! the Kairos paper's evaluation (Sec. 7–8), plus Criterion micro-benchmarks
//! for the implementation-level claims of Sec. 6.
//!
//! The heavy lifting lives in [`harness`]: it wires the simulator, the Kairos
//! planner/scheduler and the baselines together and measures *allowable
//! throughput* for arbitrary (model, configuration, scheduler) combinations.
//! Every figure has one id in [`registry`]; the `figures` bench target
//! (`cargo bench -p kairos-bench --bench figures -- fig8`) and
//! `fleet figures fig8` both run it from there.

#![warn(missing_docs)]

pub mod figures;
pub mod fleet;
pub mod harness;
pub mod paper;
pub mod registry;

pub use fleet::{run_matrix, run_scenario, Scenario, ScenarioMatrix, ScenarioResult};
pub use harness::{
    best_homogeneous_throughput, measure_throughput, oracle_sample, prefault_heap,
    scheduler_factory, tune_allocator_for_replay, ExperimentContext, SchedulerKind,
};
