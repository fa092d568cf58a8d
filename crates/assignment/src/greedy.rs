//! Greedy (non-optimal) assignment heuristic.
//!
//! Repeatedly matches the globally cheapest remaining (row, column) pair.
//! This is not optimal in general, but it is a useful baseline in the solver
//! ablation benchmarks and it mirrors what a naive "send each query to its
//! fastest free instance" controller would do — the behaviour Kairos improves
//! upon (paper Fig. 5).

use crate::matrix::CostMatrix;
use crate::solution::{Assignment, AssignmentError};

/// Solves the assignment greedily: sort all edges by cost and take each edge
/// whose endpoints are both still free, until `min(rows, cols)` pairs are
/// matched.
pub fn solve_greedy(matrix: &CostMatrix) -> Result<Assignment, AssignmentError> {
    let rows = matrix.rows();
    let cols = matrix.cols();
    let target = rows.min(cols);

    let mut edges: Vec<(f64, usize, usize)> = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            edges.push((matrix.get(r, c), r, c));
        }
    }
    edges.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));

    let mut row_to_col = vec![None; rows];
    let mut col_taken = vec![false; cols];
    let mut matched = 0usize;
    for (_, r, c) in edges {
        if matched == target {
            break;
        }
        if row_to_col[r].is_none() && !col_taken[c] {
            row_to_col[r] = Some(c);
            col_taken[c] = true;
            matched += 1;
        }
    }

    Ok(Assignment::from_row_mapping(matrix, row_to_col))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jv::solve_jv;

    #[test]
    fn produces_complete_matching() {
        let m = CostMatrix::from_vec(3, 5, vec![1.0; 15]).unwrap();
        let a = solve_greedy(&m).unwrap();
        assert_eq!(a.matched_count(), 3);
        assert!(a.is_valid_for(3, 5));
    }

    #[test]
    fn greedy_is_suboptimal_on_adversarial_input() {
        // Greedy takes the 0.0 edge first and is then forced into 100.0;
        // the optimum pairs 1.0 + 1.0.
        let m = CostMatrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 100.0]).unwrap();
        let g = solve_greedy(&m).unwrap();
        let o = solve_jv(&m).unwrap();
        assert!((g.total_cost - 100.0).abs() < 1e-9);
        assert!((o.total_cost - 2.0).abs() < 1e-9);
        assert!(g.total_cost >= o.total_cost);
    }

    #[test]
    fn greedy_never_beats_optimal() {
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            ((state >> 33) as f64) / (u32::MAX as f64) * 10.0
        };
        for _ in 0..20 {
            let rows = 4;
            let cols = 6;
            let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
            let m = CostMatrix::from_vec(rows, cols, data).unwrap();
            let g = solve_greedy(&m).unwrap();
            let o = solve_jv(&m).unwrap();
            assert!(g.total_cost + 1e-9 >= o.total_cost);
        }
    }
}
