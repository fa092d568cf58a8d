//! # kairos-testkit
//!
//! The reference code the workspace's tests and benches compare the
//! production crates against.  Nothing here ships: every crate that uses it
//! takes it as a dev-dependency.
//!
//! * [`engine::run_trace_naive`] — the original simulator event loop, which
//!   rebuilds every instance view and the idle index on every event: the
//!   whole-report reference for `kairos_sim::SimEngine` and the baseline of
//!   the `simulator` bench's `*_run_trace_naive` rows.
//! * [`scheduler::idle_order`] — the idle index rebuilt from a view array,
//!   for hand-built scheduling rounds.
//! * [`matrix::CostMatrix`] and [`solution::Assignment`] — a checked cost
//!   matrix and a full matching, the input and output of
//!   [`jv::solve_jv`] (the one-shot form of the production
//!   `kairos_assignment::jv::solve_jv_into`), [`brute::solve_brute_force`]
//!   (the exhaustive optimum) and [`greedy::solve_greedy`] (the naive
//!   strawman of Fig. 5).
//!
//! The integration tests and benches of a crate this one depends on
//! (`kairos-sim`, `kairos-assignment`) see one copy of that crate's types;
//! its unit tests would see a second copy, so those crates call the oracles
//! from their integration tests only.

#![warn(missing_docs)]

pub mod brute;
pub mod engine;
pub mod greedy;
pub mod jv;
pub mod matrix;
pub mod scheduler;
pub mod solution;

pub use engine::run_trace_naive;
pub use matrix::{CostMatrix, MatrixError};
pub use scheduler::idle_order;
pub use solution::Assignment;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_uses_exact_solver() {
        let m = CostMatrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 100.0]).unwrap();
        let a = jv::solve_jv(&m).unwrap();
        assert!((a.total_cost - 2.0).abs() < 1e-9);
    }
}
