//! Common result and error types shared by all assignment solvers.

use crate::matrix::CostMatrix;
use std::fmt;

/// The outcome of a rectangular min-cost assignment.
///
/// For an `m x n` cost matrix, exactly `min(m, n)` pairs are matched: when
/// there are fewer rows (queries) than columns (instances) every row is
/// matched to a distinct column; otherwise every column is matched to a
/// distinct row.  This mirrors constraint Eq. 7 in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `row_to_col[i]` is the column matched to row `i`, or `None` when the
    /// row is left unmatched (only possible when `rows > cols`).
    pub row_to_col: Vec<Option<usize>>,
    /// `col_to_row[j]` is the row matched to column `j`, or `None` when the
    /// column is left unmatched (only possible when `cols > rows`).
    pub col_to_row: Vec<Option<usize>>,
    /// Total cost of the matched pairs.
    pub total_cost: f64,
}

impl Assignment {
    /// Builds an [`Assignment`] from a row-to-column mapping and the matrix it
    /// was computed against, deriving the inverse mapping and total cost.
    pub fn from_row_mapping(matrix: &CostMatrix, row_to_col: Vec<Option<usize>>) -> Self {
        assert_eq!(row_to_col.len(), matrix.rows(), "mapping length mismatch");
        let mut col_to_row = vec![None; matrix.cols()];
        let mut total_cost = 0.0;
        for (row, col) in row_to_col.iter().enumerate() {
            if let Some(col) = col {
                debug_assert!(col_to_row[*col].is_none(), "column matched twice");
                col_to_row[*col] = Some(row);
                total_cost += matrix.get(row, *col);
            }
        }
        Self {
            row_to_col,
            col_to_row,
            total_cost,
        }
    }

    /// Number of matched pairs.
    pub fn matched_count(&self) -> usize {
        self.row_to_col.iter().filter(|c| c.is_some()).count()
    }

    /// Iterator over `(row, col)` matched pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.row_to_col
            .iter()
            .enumerate()
            .filter_map(|(r, c)| c.map(|c| (r, c)))
    }

    /// Checks the structural invariants of a valid rectangular assignment
    /// against the matrix dimensions: one-to-one mapping and
    /// `min(rows, cols)` matched pairs (paper Eq. 6 and Eq. 7).
    pub fn is_valid_for(&self, rows: usize, cols: usize) -> bool {
        if self.row_to_col.len() != rows || self.col_to_row.len() != cols {
            return false;
        }
        if self.matched_count() != rows.min(cols) {
            return false;
        }
        // One-to-one: each matched column appears exactly once.
        let mut seen = vec![false; cols];
        for (_, col) in self.pairs() {
            if col >= cols || seen[col] {
                return false;
            }
            seen[col] = true;
        }
        // Inverse mapping consistency.
        for (row, col) in self.pairs() {
            if self.col_to_row[col] != Some(row) {
                return false;
            }
        }
        true
    }
}

/// Errors produced by the assignment solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignmentError {
    /// The cost matrix was malformed.
    Matrix(crate::matrix::MatrixError),
    /// The solver could not find a complete matching (only possible when
    /// forbidden edges are modelled with infinite costs, which [`CostMatrix`]
    /// disallows; kept for future sparse solvers).
    Infeasible,
}

impl fmt::Display for AssignmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignmentError::Matrix(e) => write!(f, "invalid cost matrix: {e}"),
            AssignmentError::Infeasible => write!(f, "no complete matching exists"),
        }
    }
}

impl std::error::Error for AssignmentError {}

impl From<crate::matrix::MatrixError> for AssignmentError {
    fn from(e: crate::matrix::MatrixError) -> Self {
        AssignmentError::Matrix(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_row_mapping_derives_inverse_and_cost() {
        let m = CostMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let a = Assignment::from_row_mapping(&m, vec![Some(2), Some(0)]);
        assert_eq!(a.total_cost, 3.0 + 4.0);
        assert_eq!(a.col_to_row, vec![Some(1), None, Some(0)]);
        assert_eq!(a.matched_count(), 2);
        assert!(a.is_valid_for(2, 3));
    }

    #[test]
    fn validity_detects_incomplete_matching() {
        let m = CostMatrix::from_vec(2, 3, vec![1.0; 6]).unwrap();
        let a = Assignment::from_row_mapping(&m, vec![Some(0), None]);
        assert!(!a.is_valid_for(2, 3));
    }

    #[test]
    fn pairs_iterates_matched_rows_only() {
        let m = CostMatrix::from_vec(3, 2, vec![1.0; 6]).unwrap();
        let a = Assignment::from_row_mapping(&m, vec![Some(1), None, Some(0)]);
        let pairs: Vec<_> = a.pairs().collect();
        assert_eq!(pairs, vec![(0, 1), (2, 0)]);
        assert!(a.is_valid_for(3, 2));
    }
}
