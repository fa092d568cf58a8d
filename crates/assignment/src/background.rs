//! Jonker–Volgenant over rows that are one background cost plus a few
//! listed cells.
//!
//! In a deep Kairos round every QoS-violating pair of instance `j` costs the
//! same `C_j · 10 T_qos` (paper Eq. 8), so an instance's row of the cost
//! matrix holds one value almost everywhere: a *background* cost, beside
//! the few feasible pairs at their own costs.  [`solve_background_into`]
//! takes an `nr <= nc` problem in that form and returns exactly the
//! `row_to_col` that [`solve_jv_into`](crate::jv::solve_jv_into) returns on
//! the equivalent dense matrix, without scanning the background cells one by
//! one.
//!
//! # Why the matching is the same
//!
//! A column's dual `v` changes only when an augmentation scans it, and a
//! scanned column is assigned from then on.  So every unassigned column has
//! `v = 0` exactly, and within one augmentation all unassigned columns that
//! no visited row lists see bit-equal reduced costs: the same running
//! shortest-path cost and the same predecessor row.  The solver keeps one
//! cost and one path entry for all of these *plain* columns.  It tracks on
//! their own only the *special* columns: the assigned ones, and the listed
//! cells of the rows the augmentation has visited.  Every reduced cost is
//! the dense scan's float expression.
//!
//! The dense scan keeps the unscanned columns in a list that starts as
//! `0..nc` and is swap-removed at each scan.  Among the columns at the
//! minimum it picks the first in that list, unless an unassigned column
//! ties, in which case it picks the last unassigned one.  The solver keeps
//! the list as an overlay: only the positions and columns a swap-remove
//! moved are recorded, stamped with the augmentation's number, so an
//! augmentation starts without resetting anything.  The plain columns'
//! candidate is the last plain position, found by walking down from the end
//! of the list past the special columns.
//!
//! A visited row costs the special columns plus its own listed cells,
//! instead of all `nc` columns.

use crate::jv::{finish_augmentation, AssignmentError, JvWorkspace, UNASSIGNED};

/// One row of a background problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackgroundRow {
    /// The cost of every column the row does not list.
    pub background: f64,
    /// End of the row's listed cells in the cells slice.  They start where
    /// the previous row's end, the first row's at 0.
    pub cells_end: usize,
}

/// Entry `k` of the solver's marks: the state of column `k`, and the
/// column at position `k` of the unscanned list, in the augmentation the
/// entry is stamped with.  Unstamped, column `k` is plain at position `k`,
/// and position `k` holds column `k`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Mark {
    epoch: u32,
    /// Column `k`'s index into the special list, [`PLAIN`] or [`SCANNED`].
    slot: u32,
    /// Column `k`'s position in the unscanned list.
    pos: u32,
    /// The column at position `k`.
    at: u32,
}

const PLAIN: u32 = u32::MAX;
const SCANNED: u32 = u32::MAX - 1;

/// The marks, read and written in one augmentation.
struct Marks<'a> {
    marks: &'a mut [Mark],
    epoch: u32,
}

impl Marks<'_> {
    fn get(&self, k: usize) -> Mark {
        let mark = self.marks[k];
        if mark.epoch == self.epoch {
            mark
        } else {
            Mark {
                epoch: self.epoch,
                slot: PLAIN,
                pos: k as u32,
                at: k as u32,
            }
        }
    }

    fn entry(&mut self, k: usize) -> &mut Mark {
        let mark = self.get(k);
        let entry = &mut self.marks[k];
        *entry = mark;
        entry
    }

    /// Swap-removes position `pos` from the unscanned list of length `len`.
    fn swap_remove(&mut self, pos: usize, len: usize) {
        let last = len - 1;
        if pos != last {
            let moved = self.get(last).at;
            self.entry(pos).at = moved;
            self.entry(moved as usize).pos = pos as u32;
        }
    }
}

/// An unscanned column tracked on its own, with its running shortest-path
/// cost; its predecessor row is kept in the workspace's `path`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Special {
    col: u32,
    /// Number, within the augmentation, of the last scan whose row listed
    /// the column.
    listed_in: u32,
    cost: f64,
}

/// Solves the assignment problem of `rows.len() <= cols` rows by `cols`
/// columns in which row `i` costs `rows[i].background` in every column
/// except its listed cells, each a `(column, cost)` pair of `cells` (see
/// [`BackgroundRow::cells_end`]).  Returns `row_to_col` (every row matched),
/// exactly as [`solve_jv_into`](crate::jv::solve_jv_into) returns it on the
/// equivalent dense matrix, reusing the buffers of `ws`.
///
/// A row lists a column at most once; a listed cost may equal the
/// background.  Costs must be finite, as for the dense solver.
///
/// # Panics
/// Panics if `rows.len() > cols`, if the rows' cell ends decrease or pass
/// the end of `cells`, or if a listed column is out of range.
pub fn solve_background_into<'ws>(
    ws: &'ws mut JvWorkspace,
    cols: usize,
    rows: &[BackgroundRow],
    cells: &[(usize, f64)],
) -> Result<&'ws [Option<usize>], AssignmentError> {
    let (nr, nc) = (rows.len(), cols);
    assert!(nr <= nc, "the background solver takes rows <= cols");
    assert!(
        nc < SCANNED as usize,
        "column count exceeds the marks' range"
    );

    ws.remaining = Vec::new();
    let JvWorkspace {
        u,
        v,
        col4row,
        row4col,
        path,
        scanned,
        row_to_col,
        special,
        marks,
        ..
    } = ws;
    u.clear();
    u.resize(nr, 0.0);
    v.clear();
    v.resize(nc, 0.0);
    col4row.clear();
    col4row.resize(nr, UNASSIGNED);
    row4col.clear();
    row4col.resize(nc, UNASSIGNED);
    path.clear();
    path.resize(nc, UNASSIGNED);
    marks.clear();
    marks.resize(nc, Mark::default());

    for cur_row in 0..nr {
        let mut marks = Marks {
            marks,
            epoch: cur_row as u32 + 1,
        };
        // Every assigned column starts special, at an infinite running
        // cost; every other column is plain.
        special.clear();
        for &col in &col4row[..cur_row] {
            marks.entry(col).slot = special.len() as u32;
            special.push(Special {
                col: col as u32,
                listed_in: 0,
                cost: f64::INFINITY,
            });
        }
        scanned.clear();
        let mut unscanned = nc;
        let (mut plain_cost, mut plain_path) = (f64::INFINITY, UNASSIGNED);

        let mut min_val = 0.0f64;
        let mut i = cur_row;
        let mut scan = 0u32;
        let sink = loop {
            scan += 1;
            let ui = u[i];
            // The row's listed cells; a plain column among them becomes
            // special with the group's running cost and path.
            let start = if i == 0 { 0 } else { rows[i - 1].cells_end };
            for &(col, cost) in &cells[start..rows[i].cells_end] {
                let slot = match marks.get(col).slot {
                    SCANNED => continue,
                    PLAIN => {
                        marks.entry(col).slot = special.len() as u32;
                        path[col] = plain_path;
                        special.push(Special {
                            col: col as u32,
                            listed_in: 0,
                            cost: plain_cost,
                        });
                        special.len() - 1
                    }
                    slot => slot as usize,
                };
                let s = &mut special[slot];
                s.listed_in = scan;
                let r = min_val + cost - ui - v[col];
                if r < s.cost {
                    path[col] = i;
                    s.cost = r;
                }
            }
            // A plain column's `v` is exactly zero, so `back` is its
            // reduced cost bit for bit.
            let back = min_val + rows[i].background - ui;
            if back < plain_cost {
                plain_path = i;
                plain_cost = back;
            }

            // The other special columns take the background, and the pass
            // finds the dense scan's pick among the special columns: the
            // first position at the minimum, or the last unassigned one
            // there if any.
            let plain = unscanned - special.len();
            let mut lowest = if plain > 0 { plain_cost } else { f64::INFINITY };
            let (mut first, mut last_free) = (None::<(u32, usize)>, None::<(u32, usize)>);
            for (slot, s) in special.iter_mut().enumerate() {
                let col = s.col as usize;
                if s.listed_in != scan {
                    let r = back - v[col];
                    if r < s.cost {
                        path[col] = i;
                        s.cost = r;
                    }
                }
                if s.cost > lowest {
                    continue;
                }
                if s.cost < lowest {
                    lowest = s.cost;
                    (first, last_free) = (None, None);
                }
                let pos = marks.get(col).pos;
                if first.is_none_or(|(p, _)| pos < p) {
                    first = Some((pos, slot));
                }
                if row4col[col] == UNASSIGNED && last_free.is_none_or(|(p, _)| pos > p) {
                    last_free = Some((pos, slot));
                }
            }
            if !lowest.is_finite() {
                // Cannot happen with finite costs, but guard anyway.
                return Err(AssignmentError::Infeasible);
            }
            // The plain columns are unassigned, so at the minimum the last
            // of them competes with the last unassigned special column.
            let plain_pick = if plain > 0 && plain_cost == lowest {
                let last_plain = (0..unscanned)
                    .rev()
                    .find(|&p| marks.get(marks.get(p).at as usize).slot == PLAIN)
                    .expect("a plain column is unscanned");
                match last_free {
                    Some((p, _)) if p as usize > last_plain => None,
                    _ => Some(last_plain),
                }
            } else {
                None
            };
            let (pos, j) = match plain_pick {
                Some(pos) => {
                    let j = marks.get(pos).at as usize;
                    path[j] = plain_path;
                    (pos, j)
                }
                None => {
                    let (pos, slot) = last_free.or(first).expect("a column is at the minimum");
                    let j = special.swap_remove(slot).col as usize;
                    if let Some(moved) = special.get(slot) {
                        marks.entry(moved.col as usize).slot = slot as u32;
                    }
                    (pos as usize, j)
                }
            };

            // `j` leaves the unscanned list; its cost is final.
            marks.swap_remove(pos, unscanned);
            unscanned -= 1;
            marks.entry(j).slot = SCANNED;
            scanned.push((j, lowest));
            min_val = lowest;
            if row4col[j] == UNASSIGNED {
                break j;
            }
            i = row4col[j];
        };

        finish_augmentation(
            cur_row, sink, min_val, scanned, path, u, v, col4row, row4col,
        );
    }

    row_to_col.clear();
    row_to_col.extend(col4row.iter().map(|&c| Some(c)));
    Ok(row_to_col)
}
