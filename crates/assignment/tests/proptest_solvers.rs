//! Property-based tests for the assignment solvers.
//!
//! Invariants checked:
//! * The Jonker–Volgenant solver agrees with the brute-force optimum on
//!   random rectangular matrices.
//! * Every solver returns a structurally valid rectangular matching.
//! * The greedy heuristic never beats the optimum.
//! * Optimal cost is invariant under transposition and monotone under
//!   uniform cost shifts.
//! * The workspace solver returns exactly `solve_jv`'s matching, whether it
//!   is handed a matrix or its transpose and however many differently sized
//!   problems its workspace solved before.

use kairos_assignment::jv::{solve_jv_into, JvWorkspace};
use kairos_testkit::{brute::solve_brute_force, greedy::solve_greedy, jv::solve_jv, CostMatrix};
use proptest::prelude::*;

/// Strategy producing small rectangular matrices with bounded finite costs.
fn small_matrix() -> impl Strategy<Value = CostMatrix> {
    (1usize..=6, 1usize..=6).prop_flat_map(|(rows, cols)| {
        prop::collection::vec(-100.0f64..100.0, rows * cols)
            .prop_map(move |data| CostMatrix::from_vec(rows, cols, data).unwrap())
    })
}

/// Strategy producing tall, wide and square matrices up to the serving
/// shapes' aspect ratios.
fn rect_matrix() -> impl Strategy<Value = CostMatrix> {
    (1usize..=40, 1usize..=12, 0u64..2).prop_flat_map(|(long, short, tall)| {
        let (rows, cols) = if tall == 1 {
            (long, short)
        } else {
            (short, long)
        };
        prop::collection::vec(0.0f64..500.0, rows * cols)
            .prop_map(move |data| CostMatrix::from_vec(rows, cols, data).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jv_matches_brute_force(m in small_matrix()) {
        let jv = solve_jv(&m).unwrap();
        let brute = solve_brute_force(&m).unwrap();
        prop_assert!((jv.total_cost - brute.total_cost).abs() < 1e-6);
        prop_assert!(jv.is_valid_for(m.rows(), m.cols()));
    }

    #[test]
    fn greedy_is_feasible_and_never_better_than_optimal(m in small_matrix()) {
        let g = solve_greedy(&m).unwrap();
        let opt = solve_jv(&m).unwrap();
        prop_assert!(g.is_valid_for(m.rows(), m.cols()));
        prop_assert!(g.total_cost + 1e-9 >= opt.total_cost);
    }

    #[test]
    fn optimal_cost_invariant_under_transpose(m in small_matrix()) {
        let a = solve_jv(&m).unwrap();
        let b = solve_jv(&m.transposed()).unwrap();
        prop_assert!((a.total_cost - b.total_cost).abs() < 1e-6);
    }

    #[test]
    fn uniform_shift_changes_cost_predictably(m in small_matrix(), shift in -50.0f64..50.0) {
        // Adding a constant to every entry adds `min(rows, cols) * shift`
        // to the optimal cost and leaves the optimal matching structure valid.
        let shifted = CostMatrix::from_fn(m.rows(), m.cols(), |r, c| m.get(r, c) + shift).unwrap();
        let a = solve_jv(&m).unwrap();
        let b = solve_jv(&shifted).unwrap();
        let k = m.rows().min(m.cols()) as f64;
        prop_assert!((b.total_cost - (a.total_cost + k * shift)).abs() < 1e-6);
    }

    #[test]
    fn matched_count_is_min_dimension(m in small_matrix()) {
        let a = solve_jv(&m).unwrap();
        prop_assert_eq!(a.matched_count(), m.rows().min(m.cols()));
    }

    #[test]
    fn jv_into_matches_jv_in_both_orientations(
        matrices in prop::collection::vec(rect_matrix(), 1..6),
    ) {
        // One workspace across every problem, in both orientations.
        let mut ws = JvWorkspace::new();
        for m in &matrices {
            let reference = solve_jv(m).unwrap();
            let got = solve_jv_into(&mut ws, m.rows(), m.cols(), m.as_slice()).unwrap();
            prop_assert_eq!(got, &reference.row_to_col[..]);

            // The transpose asks the same question with rows and columns
            // swapped; off the square the solver runs the same augmentations.
            let t = m.transposed();
            let by_col = solve_jv_into(&mut ws, t.rows(), t.cols(), t.as_slice()).unwrap();
            if m.rows() != m.cols() {
                let mut inverted = vec![None; m.rows()];
                for (col, row) in by_col.iter().enumerate() {
                    if let Some(row) = *row {
                        inverted[row] = Some(col);
                    }
                }
                prop_assert_eq!(&inverted, &reference.row_to_col);
            } else {
                let cost: f64 = by_col.iter().enumerate().map(|(r, c)| t.get(r, c.unwrap())).sum();
                prop_assert!((cost - reference.total_cost).abs() < 1e-6);
            }
        }
    }
}
