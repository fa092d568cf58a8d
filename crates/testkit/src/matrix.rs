//! Dense rectangular cost matrices: the checked input of the reference
//! solvers.
//!
//! The Kairos query-distribution problem (paper Sec. 5.1) builds an `m x n`
//! matrix whose entry `(i, j)` is the heterogeneity-weighted completion time
//! `C_j * L_{i,j}` of query `i` on instance `j`.  The matrix is generally
//! rectangular: there is no guarantee that the number of queued queries equals
//! the number of instances.

use std::fmt;

/// A dense, row-major rectangular matrix of `f64` costs.
///
/// Invariants enforced by the constructors:
/// * `rows * cols == data.len()`
/// * every entry is finite (no NaN / infinity) — infeasible pairs must be
///   expressed with a large *finite* penalty (the paper uses `10 * T_qos`,
///   Eq. 8) so that the matching problem always has a feasible solution.
#[derive(Clone, PartialEq)]
pub struct CostMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Errors produced while building a [`CostMatrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The matrix would have zero rows or zero columns.
    Empty,
    /// The provided buffer length does not equal `rows * cols`.
    ShapeMismatch {
        /// Number of rows requested.
        rows: usize,
        /// Number of columns requested.
        cols: usize,
        /// Length of the provided buffer.
        len: usize,
    },
    /// An entry was NaN or infinite.
    NonFinite {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Empty => write!(f, "cost matrix must have at least one row and column"),
            MatrixError::ShapeMismatch { rows, cols, len } => write!(
                f,
                "buffer of length {len} cannot be reshaped into a {rows}x{cols} matrix"
            ),
            MatrixError::NonFinite { row, col } => {
                write!(f, "cost matrix entry ({row}, {col}) is not finite")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

impl CostMatrix {
    /// Creates a matrix from a row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MatrixError> {
        if rows == 0 || cols == 0 {
            return Err(MatrixError::Empty);
        }
        if data.len() != rows * cols {
            return Err(MatrixError::ShapeMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        for (idx, value) in data.iter().enumerate() {
            if !value.is_finite() {
                return Err(MatrixError::NonFinite {
                    row: idx / cols,
                    col: idx % cols,
                });
            }
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn<F>(rows: usize, cols: usize, mut f: F) -> Result<Self, MatrixError>
    where
        F: FnMut(usize, usize) -> f64,
    {
        if rows == 0 || cols == 0 {
            return Err(MatrixError::Empty);
        }
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Result<Self, MatrixError> {
        Self::from_vec(rows, cols, vec![value; rows * cols])
    }

    /// Number of rows (queries, in Kairos).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (instances, in Kairos).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds or `value` is not finite.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        assert!(value.is_finite(), "cost entries must be finite");
        self.data[row * self.cols + col] = value;
    }

    /// Borrow of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns one row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns the transposed matrix.
    pub fn transposed(&self) -> CostMatrix {
        let mut data = vec![0.0; self.data.len()];
        for r in 0..self.rows {
            for c in 0..self.cols {
                data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        CostMatrix {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }
}

impl fmt::Debug for CostMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CostMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:>10.4} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_valid() {
        let m = CostMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    fn from_vec_rejects_empty() {
        assert_eq!(
            CostMatrix::from_vec(0, 3, vec![]).unwrap_err(),
            MatrixError::Empty
        );
        assert_eq!(
            CostMatrix::from_vec(3, 0, vec![]).unwrap_err(),
            MatrixError::Empty
        );
    }

    #[test]
    fn from_vec_rejects_shape_mismatch() {
        let err = CostMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!(
            err,
            MatrixError::ShapeMismatch {
                rows: 2,
                cols: 2,
                len: 3
            }
        );
    }

    #[test]
    fn from_vec_rejects_nan_and_infinity() {
        let err = CostMatrix::from_vec(1, 2, vec![1.0, f64::NAN]).unwrap_err();
        assert_eq!(err, MatrixError::NonFinite { row: 0, col: 1 });
        let err = CostMatrix::from_vec(2, 1, vec![f64::INFINITY, 1.0]).unwrap_err();
        assert_eq!(err, MatrixError::NonFinite { row: 0, col: 0 });
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let m = CostMatrix::from_fn(3, 2, |r, c| (r * 10 + c) as f64).unwrap();
        assert_eq!(m.get(2, 1), 21.0);
        assert_eq!(m.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = CostMatrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64).unwrap();
        let t = m.transposed();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn set_updates_entry() {
        let mut m = CostMatrix::filled(2, 2, 1.0).unwrap();
        m.set(1, 1, 9.0);
        assert_eq!(m.get(1, 1), 9.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn set_rejects_nan() {
        let mut m = CostMatrix::filled(2, 2, 1.0).unwrap();
        m.set(0, 0, f64::NAN);
    }
}
