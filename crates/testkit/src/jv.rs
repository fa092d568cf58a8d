//! The one-shot form of the production Jonker–Volgenant solver, over a
//! checked [`CostMatrix`] and returning a full [`Assignment`]: the solver
//! the property tests and the solver bench compare other solvers against.

use crate::matrix::CostMatrix;
use crate::solution::Assignment;
use kairos_assignment::jv::{solve_jv_into, JvWorkspace};
use kairos_assignment::AssignmentError;

/// Solves the rectangular min-cost assignment problem and returns an optimal
/// matching of size `min(rows, cols)`.
///
/// A one-shot wrapper over [`solve_jv_into`] with a fresh workspace.
pub fn solve_jv(matrix: &CostMatrix) -> Result<Assignment, AssignmentError> {
    let mut ws = JvWorkspace::new();
    let row_to_col = solve_jv_into(&mut ws, matrix.rows(), matrix.cols(), matrix.as_slice())?;
    Ok(Assignment::from_row_mapping(matrix, row_to_col.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::solve_brute_force;

    fn solve(rows: usize, cols: usize, data: Vec<f64>) -> Assignment {
        let m = CostMatrix::from_vec(rows, cols, data).unwrap();
        solve_jv(&m).unwrap()
    }

    #[test]
    fn square_3x3_known_optimum() {
        // Classic example: optimal cost is 5 (0->1, 1->0, 2->2) -> 1 + 2 + 2.
        let a = solve(3, 3, vec![4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0]);
        assert_eq!(a.matched_count(), 3);
        assert!((a.total_cost - 5.0).abs() < 1e-9);
    }

    #[test]
    fn identity_preference() {
        // Diagonal is cheapest: the solver must pick it.
        let a = solve(3, 3, vec![0.0, 9.0, 9.0, 9.0, 0.0, 9.0, 9.0, 9.0, 0.0]);
        assert_eq!(a.row_to_col, vec![Some(0), Some(1), Some(2)]);
        assert_eq!(a.total_cost, 0.0);
    }

    #[test]
    fn wide_matrix_fewer_rows_than_cols() {
        // 2 queries, 4 instances: both queries must be matched.
        let a = solve(2, 4, vec![10.0, 2.0, 8.0, 7.0, 3.0, 9.0, 9.0, 9.0]);
        assert_eq!(a.matched_count(), 2);
        assert!((a.total_cost - 5.0).abs() < 1e-9);
        assert_eq!(a.row_to_col, vec![Some(1), Some(0)]);
    }

    #[test]
    fn tall_matrix_fewer_cols_than_rows() {
        // 4 queries, 2 instances: exactly two queries get served.
        let a = solve(4, 2, vec![5.0, 6.0, 1.0, 9.0, 9.0, 1.0, 4.0, 4.0]);
        assert_eq!(a.matched_count(), 2);
        assert!((a.total_cost - 2.0).abs() < 1e-9);
        assert!(a.is_valid_for(4, 2));
    }

    #[test]
    fn single_cell() {
        let a = solve(1, 1, vec![42.0]);
        assert_eq!(a.row_to_col, vec![Some(0)]);
        assert_eq!(a.total_cost, 42.0);
    }

    #[test]
    fn negative_costs_supported() {
        let a = solve(2, 2, vec![-5.0, 0.0, 0.0, -5.0]);
        assert!((a.total_cost - -10.0).abs() < 1e-9);
    }

    #[test]
    fn matches_brute_force_on_small_matrices() {
        // Deterministic pseudo-random matrices via a simple LCG, so this test
        // does not need the rand crate.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 100.0
        };
        for rows in 1..=5usize {
            for cols in 1..=5usize {
                let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
                let m = CostMatrix::from_vec(rows, cols, data).unwrap();
                let jv = solve_jv(&m).unwrap();
                let brute = solve_brute_force(&m).unwrap();
                assert!(
                    (jv.total_cost - brute.total_cost).abs() < 1e-6,
                    "JV {} vs brute {} on {rows}x{cols}",
                    jv.total_cost,
                    brute.total_cost
                );
                assert!(jv.is_valid_for(rows, cols));
            }
        }
    }

    #[test]
    fn ties_resolve_to_a_valid_matching() {
        let a = solve(3, 3, vec![1.0; 9]);
        assert_eq!(a.matched_count(), 3);
        assert!((a.total_cost - 3.0).abs() < 1e-9);
        assert!(a.is_valid_for(3, 3));
    }
}
