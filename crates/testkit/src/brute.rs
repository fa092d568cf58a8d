//! Brute-force reference solver (exhaustive permutation search).
//!
//! Exponential — only intended for validating the exact solvers on small
//! matrices in tests and property-based checks.

use crate::matrix::CostMatrix;
use crate::solution::Assignment;
use kairos_assignment::AssignmentError;

/// Finds the optimal rectangular assignment by trying every injective mapping
/// from the smaller side into the larger side.
///
/// # Panics
/// Panics on matrices larger than 10 on the smaller side, to avoid
/// accidental exponential blow-ups in benchmarks.
pub fn solve_brute_force(matrix: &CostMatrix) -> Result<Assignment, AssignmentError> {
    let rows = matrix.rows();
    let cols = matrix.cols();
    let small = rows.min(cols);
    assert!(
        small <= 10,
        "brute-force solver limited to min-dimension <= 10 (got {small})"
    );

    // Work on the orientation where rows <= cols so we enumerate injections
    // rows -> cols.
    let transposed;
    let (m, flipped) = if rows <= cols {
        (matrix, false)
    } else {
        transposed = matrix.transposed();
        (&transposed, true)
    };

    let nr = m.rows();
    let nc = m.cols();
    let mut best_cost = f64::INFINITY;
    let mut best: Vec<usize> = Vec::new();
    let mut current: Vec<usize> = Vec::with_capacity(nr);
    let mut used = vec![false; nc];

    fn recurse(
        m: &CostMatrix,
        row: usize,
        current: &mut Vec<usize>,
        used: &mut [bool],
        running: f64,
        best_cost: &mut f64,
        best: &mut Vec<usize>,
    ) {
        if row == m.rows() {
            if running < *best_cost {
                *best_cost = running;
                *best = current.clone();
            }
            return;
        }
        for col in 0..m.cols() {
            if !used[col] {
                used[col] = true;
                current.push(col);
                recurse(
                    m,
                    row + 1,
                    current,
                    used,
                    running + m.get(row, col),
                    best_cost,
                    best,
                );
                current.pop();
                used[col] = false;
            }
        }
    }

    recurse(
        m,
        0,
        &mut current,
        &mut used,
        0.0,
        &mut best_cost,
        &mut best,
    );

    if best.len() != nr {
        return Err(AssignmentError::Infeasible);
    }

    let row_to_col = if !flipped {
        best.into_iter().map(Some).collect()
    } else {
        // `best[j]` maps transposed-row j (original column j) to an original row.
        let mut mapping = vec![None; matrix.rows()];
        for (col, row) in best.into_iter().enumerate() {
            mapping[row] = Some(col);
        }
        mapping
    };

    Ok(Assignment::from_row_mapping(matrix, row_to_col))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_1x1() {
        let m = CostMatrix::from_vec(1, 1, vec![3.0]).unwrap();
        let a = solve_brute_force(&m).unwrap();
        assert_eq!(a.total_cost, 3.0);
    }

    #[test]
    fn known_2x2() {
        let m = CostMatrix::from_vec(2, 2, vec![1.0, 10.0, 10.0, 1.0]).unwrap();
        let a = solve_brute_force(&m).unwrap();
        assert_eq!(a.total_cost, 2.0);
        assert_eq!(a.row_to_col, vec![Some(0), Some(1)]);
    }

    #[test]
    fn rectangular_tall_matches_all_columns() {
        let m = CostMatrix::from_vec(3, 2, vec![9.0, 9.0, 1.0, 9.0, 9.0, 1.0]).unwrap();
        let a = solve_brute_force(&m).unwrap();
        assert_eq!(a.matched_count(), 2);
        assert_eq!(a.total_cost, 2.0);
        assert!(a.is_valid_for(3, 2));
    }

    #[test]
    #[should_panic(expected = "brute-force")]
    fn rejects_large_matrices() {
        let m = CostMatrix::filled(11, 11, 1.0).unwrap();
        let _ = solve_brute_force(&m);
    }
}
