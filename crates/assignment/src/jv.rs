//! Jonker–Volgenant shortest-augmenting-path solver for the rectangular
//! linear-sum assignment problem.
//!
//! This is the algorithm Kairos uses to solve its query-distribution
//! optimization (paper Sec. 5.1 and Sec. 6: "Kairos solves this problem using
//! the Jonker-Volgenant algorithm which is a variant of the widely used
//! Hungarian algorithm, but more efficient in practice").  The implementation
//! follows the modified Jonker–Volgenant formulation without initialization
//! described by Crouse, *"On implementing 2D rectangular assignment
//! algorithms"* (IEEE TAES 2016) — the same formulation used by SciPy's
//! `linear_sum_assignment`, which the paper's reference implementation calls
//! through `scipy.optimize`.
//!
//! Complexity: `O(r^2 * c)` for an `r x c` matrix with `r <= c` (a matrix
//! with `r > c` is solved as its transpose, read in place), which is far below
//! a millisecond for the 20-query x 20-instance matchings the paper measures.
//! Under overload the serving shapes are hundreds of queued queries by tens of
//! instances, and the matching runs at every scheduling instant.  For that
//! caller, [`solve_jv_into`] solves from a flat cost buffer in a reusable
//! [`JvWorkspace`], so a round neither copies the costs nor allocates;
//! [`solve_jv`] is the one-shot form of the same routine.

use crate::matrix::CostMatrix;
use crate::solution::{Assignment, AssignmentError, AssignmentSolver};

/// Exact rectangular LAP solver (shortest augmenting paths with dual updates).
#[derive(Debug, Default, Clone, Copy)]
pub struct JonkerVolgenantSolver;

impl JonkerVolgenantSolver {
    /// Creates a new solver.
    pub fn new() -> Self {
        Self
    }
}

impl AssignmentSolver for JonkerVolgenantSolver {
    fn solve(&self, matrix: &CostMatrix) -> Result<Assignment, AssignmentError> {
        solve_jv(matrix)
    }

    fn name(&self) -> &'static str {
        "jonker-volgenant"
    }
}

/// Solves the rectangular min-cost assignment problem and returns an optimal
/// matching of size `min(rows, cols)`.
///
/// A one-shot wrapper over [`solve_jv_into`] with a fresh workspace.
pub fn solve_jv(matrix: &CostMatrix) -> Result<Assignment, AssignmentError> {
    let mut ws = JvWorkspace::new();
    let row_to_col = solve_jv_into(&mut ws, matrix.rows(), matrix.cols(), matrix.as_slice())?;
    Ok(Assignment::from_row_mapping(matrix, row_to_col.to_vec()))
}

/// Buffers of the shortest-augmenting-path solver (duals, matching state,
/// path and scan marks), kept between calls to [`solve_jv_into`] so a caller
/// that solves one matching per scheduling round allocates only when a round
/// is larger than every round before it.
#[derive(Debug, Default, Clone)]
pub struct JvWorkspace {
    u: Vec<f64>,
    v: Vec<f64>,
    col4row: Vec<usize>,
    row4col: Vec<usize>,
    shortest_path_costs: Vec<f64>,
    path: Vec<usize>,
    sr: Vec<bool>,
    sc: Vec<bool>,
    remaining: Vec<usize>,
    row_to_col: Vec<Option<usize>>,
}

impl JvWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Solves the `rows x cols` assignment problem whose costs are `cost`, in
/// row-major order, reusing the buffers of `ws`.  Returns `row_to_col`: the
/// column matched to each row, `None` for the rows left unmatched when
/// `rows > cols`.
///
/// Either orientation is solved without copying the costs: when `rows >
/// cols` the solver walks the buffer column-wise as the transposed problem.
/// Callers that choose the layout themselves should pass the orientation
/// with `rows <= cols`, whose scans are contiguous.  Entries must be finite
/// (see [`CostMatrix`]).
///
/// # Panics
/// Panics if `cost.len() != rows * cols`.
pub fn solve_jv_into<'ws>(
    ws: &'ws mut JvWorkspace,
    rows: usize,
    cols: usize,
    cost: &[f64],
) -> Result<&'ws [Option<usize>], AssignmentError> {
    assert_eq!(
        cost.len(),
        rows * cols,
        "cost buffer must hold rows x cols entries"
    );
    ws.row_to_col.clear();
    if rows <= cols {
        ws.augment_all::<false>(rows, cols, cost)?;
        ws.row_to_col.extend(ws.col4row.iter().map(|&c| Some(c)));
    } else {
        // `col4row[j]` of the transposed problem is the row matched to
        // column j.
        ws.augment_all::<true>(cols, rows, cost)?;
        ws.row_to_col.resize(rows, None);
        for (col, &row) in ws.col4row.iter().enumerate() {
            ws.row_to_col[row] = Some(col);
        }
    }
    Ok(&ws.row_to_col)
}

/// "Unassigned" marker of the matching state.
const UNASSIGNED: usize = usize::MAX;

impl JvWorkspace {
    /// Core shortest-augmenting-path loop over an `nr x nc` problem with
    /// `nr <= nc`; leaves `col4row[i]`, the column assigned to row `i`, in
    /// the workspace.  Entry `(i, j)` is `cost[i * nc + j]`, or
    /// `cost[j * nr + i]` when `TRANSPOSED` (the buffer holds the `nc x nr`
    /// original).
    fn augment_all<const TRANSPOSED: bool>(
        &mut self,
        nr: usize,
        nc: usize,
        cost: &[f64],
    ) -> Result<(), AssignmentError> {
        debug_assert!(nr <= nc);
        let entry = |i: usize, j: usize| {
            if TRANSPOSED {
                cost[j * nr + i]
            } else {
                cost[i * nc + j]
            }
        };

        // Dual variables.
        let u = &mut self.u;
        let v = &mut self.v;
        u.clear();
        u.resize(nr, 0.0);
        v.clear();
        v.resize(nc, 0.0);

        // Matching state.
        let col4row = &mut self.col4row;
        let row4col = &mut self.row4col;
        col4row.clear();
        col4row.resize(nr, UNASSIGNED);
        row4col.clear();
        row4col.resize(nc, UNASSIGNED);

        // Scratch buffers reused across augmentations.
        let shortest_path_costs = &mut self.shortest_path_costs;
        let path = &mut self.path;
        let sr = &mut self.sr;
        let sc = &mut self.sc;
        let remaining = &mut self.remaining;
        path.clear();
        path.resize(nc, UNASSIGNED);

        for cur_row in 0..nr {
            // Reset per-augmentation state.
            shortest_path_costs.clear();
            shortest_path_costs.resize(nc, f64::INFINITY);
            sr.clear();
            sr.resize(nr, false);
            sc.clear();
            sc.resize(nc, false);
            remaining.clear();
            remaining.extend(0..nc);

            let mut min_val = 0.0f64;
            let mut i = cur_row;
            let mut sink = UNASSIGNED;

            while sink == UNASSIGNED {
                sr[i] = true;
                let mut index = UNASSIGNED;
                let mut lowest = f64::INFINITY;

                for (it, &j) in remaining.iter().enumerate() {
                    let r = min_val + entry(i, j) - u[i] - v[j];
                    if r < shortest_path_costs[j] {
                        path[j] = i;
                        shortest_path_costs[j] = r;
                    }
                    // Prefer unassigned columns on ties so the augmenting path
                    // terminates as early as possible.
                    if shortest_path_costs[j] < lowest
                        || (shortest_path_costs[j] == lowest && row4col[j] == UNASSIGNED)
                    {
                        lowest = shortest_path_costs[j];
                        index = it;
                    }
                }

                min_val = lowest;
                if !min_val.is_finite() || index == UNASSIGNED {
                    // Cannot happen with finite costs, but guard anyway.
                    return Err(AssignmentError::Infeasible);
                }
                let j = remaining[index];
                if row4col[j] == UNASSIGNED {
                    sink = j;
                } else {
                    i = row4col[j];
                }
                sc[j] = true;
                remaining.swap_remove(index);
            }

            // Update dual variables.
            u[cur_row] += min_val;
            for irow in 0..nr {
                if irow != cur_row && sr[irow] {
                    u[irow] += min_val - shortest_path_costs[col4row[irow]];
                }
            }
            for jcol in 0..nc {
                if sc[jcol] {
                    v[jcol] -= min_val - shortest_path_costs[jcol];
                }
            }

            // Augment along the alternating path ending at `sink`.
            let mut j = sink;
            loop {
                let i = path[j];
                row4col[j] = i;
                std::mem::swap(&mut col4row[i], &mut j);
                if i == cur_row {
                    break;
                }
            }
        }

        Ok(())
    }
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
