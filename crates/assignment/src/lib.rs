//! # kairos-assignment
//!
//! Rectangular linear-sum assignment (min-cost bipartite matching) solvers for
//! the Kairos inference-serving framework (HPDC'23).
//!
//! Kairos distributes inference queries across a heterogeneous pool of cloud
//! instances by solving, at every scheduling instant, a min-cost bipartite
//! matching between queued queries and available instances (paper Sec. 5.1,
//! Eq. 4–8).  The reference implementation delegates this to SciPy's
//! `linear_sum_assignment`; this crate provides equivalent, dependency-free
//! Rust solvers:
//!
//! * [`JonkerVolgenantSolver`] — the production solver (shortest augmenting
//!   paths, the algorithm named in the paper), exact and `O(r^2 c)`.
//! * [`GreedySolver`] — non-optimal cheapest-edge heuristic, the "naive"
//!   strawman of Fig. 5.
//! * [`BruteForceSolver`] — exhaustive reference for tests.
//!
//! ```
//! use kairos_assignment::{CostMatrix, solve, JonkerVolgenantSolver, AssignmentSolver};
//!
//! // 2 queries x 3 instances: entry (i, j) is the weighted completion time.
//! let costs = CostMatrix::from_vec(2, 3, vec![
//!     4.0, 1.5, 9.0,
//!     2.0, 8.0, 3.0,
//! ]).unwrap();
//! let plan = solve(&costs).unwrap();
//! assert_eq!(plan.matched_count(), 2);
//! assert_eq!(plan.row_to_col, vec![Some(1), Some(0)]);
//!
//! // Solvers are also available behind a common trait for ablations.
//! let jv = JonkerVolgenantSolver::new();
//! assert_eq!(jv.solve(&costs).unwrap().total_cost, plan.total_cost);
//! ```

#![warn(missing_docs)]

pub mod brute;
pub mod greedy;
pub mod jv;
pub mod matrix;
pub mod solution;

pub use brute::BruteForceSolver;
pub use greedy::GreedySolver;
pub use jv::JonkerVolgenantSolver;
pub use matrix::{CostMatrix, MatrixError};
pub use solution::{Assignment, AssignmentError, AssignmentSolver};

/// Solves a rectangular min-cost assignment with the default (Jonker–Volgenant)
/// solver.  The Kairos query distributor calls the buffer-reusing form,
/// [`jv::solve_jv_into`], once per scheduling round.
pub fn solve(matrix: &CostMatrix) -> Result<Assignment, AssignmentError> {
    jv::solve_jv(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_uses_exact_solver() {
        let m = CostMatrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 100.0]).unwrap();
        let a = solve(&m).unwrap();
        assert!((a.total_cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn all_solvers_report_names() {
        let solvers: Vec<Box<dyn AssignmentSolver>> = vec![
            Box::new(JonkerVolgenantSolver::new()),
            Box::new(GreedySolver::new()),
            Box::new(BruteForceSolver::new()),
        ];
        let names: Vec<_> = solvers.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["jonker-volgenant", "greedy", "brute-force"]);
    }
}
