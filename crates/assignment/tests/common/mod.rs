//! The Jonker–Volgenant solver as it was before augmentations touched only
//! the rows and columns they visit, kept as a test-only bit-identity
//! reference.
//!
//! Every augmentation here resets its shortest-path costs, scan marks and
//! unscanned-column list over all `nc` columns, reads each column's cost
//! through the `remaining` indirection, and updates the duals by sweeping
//! every row and every column.  The production solver must return the same
//! matching bit for bit: same scan order, same tie rule (prefer an
//! unassigned column), same float expressions.

/// "Unassigned" marker of the matching state.
const UNASSIGNED: usize = usize::MAX;

/// Buffers of the reference solver, reusable across problems.
#[derive(Debug, Default)]
pub struct ReferenceWorkspace {
    u: Vec<f64>,
    v: Vec<f64>,
    col4row: Vec<usize>,
    row4col: Vec<usize>,
    shortest_path_costs: Vec<f64>,
    path: Vec<usize>,
    sr: Vec<bool>,
    sc: Vec<bool>,
    remaining: Vec<usize>,
}

impl ReferenceWorkspace {
    /// Solves the `rows x cols` problem whose costs are `cost`, row-major,
    /// and returns the column matched to each row (`None` when unmatched),
    /// or `None` when the solver reports the problem infeasible.
    pub fn solve(&mut self, rows: usize, cols: usize, cost: &[f64]) -> Option<Vec<Option<usize>>> {
        assert_eq!(cost.len(), rows * cols);
        if rows <= cols {
            self.augment_all::<false>(rows, cols, cost)?;
            Some(self.col4row.iter().map(|&c| Some(c)).collect())
        } else {
            self.augment_all::<true>(cols, rows, cost)?;
            let mut row_to_col = vec![None; rows];
            for (col, &row) in self.col4row.iter().enumerate() {
                row_to_col[row] = Some(col);
            }
            Some(row_to_col)
        }
    }

    fn augment_all<const TRANSPOSED: bool>(
        &mut self,
        nr: usize,
        nc: usize,
        cost: &[f64],
    ) -> Option<()> {
        let entry = |i: usize, j: usize| {
            if TRANSPOSED {
                cost[j * nr + i]
            } else {
                cost[i * nc + j]
            }
        };

        let u = &mut self.u;
        let v = &mut self.v;
        u.clear();
        u.resize(nr, 0.0);
        v.clear();
        v.resize(nc, 0.0);

        let col4row = &mut self.col4row;
        let row4col = &mut self.row4col;
        col4row.clear();
        col4row.resize(nr, UNASSIGNED);
        row4col.clear();
        row4col.resize(nc, UNASSIGNED);

        let shortest_path_costs = &mut self.shortest_path_costs;
        let path = &mut self.path;
        let sr = &mut self.sr;
        let sc = &mut self.sc;
        let remaining = &mut self.remaining;
        path.clear();
        path.resize(nc, UNASSIGNED);

        for cur_row in 0..nr {
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
                    if shortest_path_costs[j] < lowest
                        || (shortest_path_costs[j] == lowest && row4col[j] == UNASSIGNED)
                    {
                        lowest = shortest_path_costs[j];
                        index = it;
                    }
                }

                min_val = lowest;
                if !min_val.is_finite() || index == UNASSIGNED {
                    return None;
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
        Some(())
    }
}
