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
//! * [`jv::solve_jv`] — the production solver (shortest augmenting paths,
//!   the algorithm named in the paper), exact and `O(r^2 c)`.  The Kairos
//!   query distributor calls its buffer-reusing form, [`jv::solve_jv_into`],
//!   once per scheduling round.
//! * [`greedy::solve_greedy`] — non-optimal cheapest-edge heuristic, the
//!   "naive" strawman of Fig. 5.
//! * [`brute::solve_brute_force`] — exhaustive reference for tests.
//!
//! ```
//! use kairos_assignment::{jv::solve_jv, CostMatrix};
//!
//! // 2 queries x 3 instances: entry (i, j) is the weighted completion time.
//! let costs = CostMatrix::from_vec(2, 3, vec![
//!     4.0, 1.5, 9.0,
//!     2.0, 8.0, 3.0,
//! ]).unwrap();
//! let plan = solve_jv(&costs).unwrap();
//! assert_eq!(plan.matched_count(), 2);
//! assert_eq!(plan.row_to_col, vec![Some(1), Some(0)]);
//! ```

#![warn(missing_docs)]

pub mod brute;
pub mod greedy;
pub mod jv;
pub mod matrix;
pub mod solution;

pub use matrix::{CostMatrix, MatrixError};
pub use solution::{Assignment, AssignmentError};

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
