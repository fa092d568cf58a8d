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
//! [`JvWorkspace`], so a round neither copies the costs nor allocates.
//!
//! There a matrix of `r` instances by `c` queued queries (`c` in the
//! hundreds) takes `r` augmentations, each of which visits only a few rows.
//! So an augmentation touches only what it visits.  It scans one contiguous
//! list of the unscanned columns, in which each column carries its running
//! shortest-path cost (the two are swap-removed together).  It records a
//! column's final cost when the column leaves that list, and it updates the
//! duals over the visited rows and columns alone.  The tie rule (prefer an
//! unassigned column) and every float expression are the textbook
//! formulation's, so the matching and the duals keep their bits.
//!
//! The scan order is not SciPy's.  Each augmentation lists the unscanned
//! columns in ascending order, `0..c`, while SciPy fills that list in
//! reverse (`remaining[it] = nc - it - 1`) so that a constant matrix gives
//! the identity.  Among tied columns the scan keeps the first one at the
//! minimum, unless an unassigned column ties with it, in which case the last
//! unassigned one wins.  So here a constant 3 x 5 matrix matches rows 0, 1
//! and 2 to columns 4, 3 and 2.  In a deep Kairos round with no feasible
//! pair, the instances therefore take the newest queued queries.
//!
//! [`crate::background::solve_background_into`] solves the same problem
//! when each row is one background cost plus a few listed cells, and returns
//! the same matching.

use crate::background::{Mark, Special};
use std::fmt;

/// Buffers of the shortest-augmenting-path solver, kept between calls to
/// [`solve_jv_into`] so a caller that solves one matching per scheduling
/// round allocates only when a round is larger than every round before it.
///
/// Per problem: the duals `u`/`v`, the matching in both directions and the
/// shortest-path tree (`path`).  Per augmentation: the unscanned columns,
/// each beside its running shortest-path cost (one contiguous list), and the
/// columns scanned so far with their final costs.  The duals are updated
/// over the scanned columns and the rows matched to them, so an augmentation
/// resets only the unscanned list and sweeps no other buffer whole.
///
/// [`solve_background_into`](crate::background::solve_background_into)
/// shares the per-problem buffers and keeps its own column records in place
/// of the unscanned list.  Each solver drops the other's own buffers, so a
/// workspace that serves both holds one set at a time.
#[derive(Debug, Default, Clone)]
pub struct JvWorkspace {
    pub(crate) u: Vec<f64>,
    pub(crate) v: Vec<f64>,
    pub(crate) col4row: Vec<usize>,
    pub(crate) row4col: Vec<usize>,
    pub(crate) path: Vec<usize>,
    pub(crate) remaining: Vec<Unscanned>,
    pub(crate) scanned: Vec<(usize, f64)>,
    pub(crate) row_to_col: Vec<Option<usize>>,
    pub(crate) special: Vec<Special>,
    pub(crate) marks: Vec<Mark>,
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
/// with `rows <= cols`, whose scans are contiguous.  Entries must be
/// finite: an infeasible pair carries a large finite penalty (the paper's
/// `10 * T_qos`, Eq. 8), so a complete matching always exists.
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
    ws.special = Vec::new();
    ws.marks = Vec::new();
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

/// Errors produced by the assignment solver.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignmentError {
    /// No complete matching was found: only possible when a cost is not
    /// finite.
    Infeasible,
}

impl fmt::Display for AssignmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignmentError::Infeasible => write!(f, "no complete matching exists"),
        }
    }
}

impl std::error::Error for AssignmentError {}

/// A column not yet scanned in the current augmentation, with the shortest
/// path cost found to it so far.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unscanned {
    col: usize,
    cost: f64,
}

/// "Unassigned" marker of the matching state.
pub(crate) const UNASSIGNED: usize = usize::MAX;

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
        let path = &mut self.path;
        let remaining = &mut self.remaining;
        let scanned = &mut self.scanned;
        path.clear();
        path.resize(nc, UNASSIGNED);

        for cur_row in 0..nr {
            // Reset per-augmentation state: every column is unscanned, at an
            // infinite shortest-path cost, and nothing is scanned yet.
            remaining.clear();
            remaining.extend((0..nc).map(|col| Unscanned {
                col,
                cost: f64::INFINITY,
            }));
            scanned.clear();

            let mut min_val = 0.0f64;
            let mut i = cur_row;
            let mut sink = UNASSIGNED;

            while sink == UNASSIGNED {
                let mut index = UNASSIGNED;
                let mut lowest = f64::INFINITY;
                let ui = u[i];
                // Row i's costs: entry j is `line[j * stride]`.  Every
                // per-column slice has length `nc`, so one bounds check
                // covers all of a column's reads.
                let (line, stride) = if TRANSPOSED {
                    (&cost[i..], nr)
                } else {
                    (&cost[i * nc..][..nc], 1)
                };
                let (v, row4col, path) = (&v[..nc], &row4col[..nc], &mut path[..nc]);

                for (it, c) in remaining.iter_mut().enumerate() {
                    let r = min_val + line[c.col * stride] - ui - v[c.col];
                    if r < c.cost {
                        path[c.col] = i;
                        c.cost = r;
                    }
                    // Prefer unassigned columns on ties so the augmenting path
                    // terminates as early as possible.
                    if c.cost < lowest || (c.cost == lowest && row4col[c.col] == UNASSIGNED) {
                        lowest = c.cost;
                        index = it;
                    }
                }

                min_val = lowest;
                if !min_val.is_finite() || index == UNASSIGNED {
                    // Cannot happen with finite costs, but guard anyway.
                    return Err(AssignmentError::Infeasible);
                }
                // A scanned column's cost is final: it is never scanned again.
                let j = remaining.swap_remove(index).col;
                scanned.push((j, lowest));
                if row4col[j] == UNASSIGNED {
                    sink = j;
                } else {
                    i = row4col[j];
                }
            }

            finish_augmentation(
                cur_row, sink, min_val, scanned, path, u, v, col4row, row4col,
            );
        }

        Ok(())
    }
}

/// Ends the augmentation of `cur_row` whose shortest path reached the
/// unassigned column `sink` at cost `min_val`: updates the duals of the
/// visited rows and columns only, then augments along the alternating path.
/// `scanned` holds the columns the augmentation scanned, each with its final
/// shortest-path cost, and `path[j]` the row a scanned column was reached
/// from.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_augmentation(
    cur_row: usize,
    sink: usize,
    min_val: f64,
    scanned: &[(usize, f64)],
    path: &[usize],
    u: &mut [f64],
    v: &mut [f64],
    col4row: &mut [usize],
    row4col: &mut [usize],
) {
    // The rows visited besides `cur_row` are the ones matched to the
    // scanned columns other than the sink, each reached through its column.
    u[cur_row] += min_val;
    for &(j, cost) in scanned {
        if j != sink {
            u[row4col[j]] += min_val - cost;
        }
        v[j] -= min_val - cost;
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the scan order: ascending columns, the last tied unassigned one
    /// winning.  SciPy, which lists the columns in reverse, gives the
    /// identity `[0, 1, 2]` here.
    #[test]
    fn a_constant_matrix_matches_rows_to_the_last_columns() {
        let mut ws = JvWorkspace::new();
        let matched = solve_jv_into(&mut ws, 3, 5, &[1.0; 15]).unwrap();
        assert_eq!(matched, &[Some(4), Some(3), Some(2)]);
    }
}
