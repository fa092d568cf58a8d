//! Bit-identity of the Jonker–Volgenant solver against the formulation it
//! replaced.
//!
//! `common::ReferenceWorkspace` is the solver as it was before each
//! augmentation touched only the rows and columns it visits.  On every
//! matrix, [`solve_jv_into`] must return the reference's `row_to_col`
//! exactly.  Optimality alone does not pin that down: on tied costs many
//! matchings are optimal, and which one comes out depends on the scan order
//! and the tie rule (prefer an unassigned column).  So most matrices here
//! draw their cells from 2–5 cost levels, some mix levels with continuous
//! costs (the Kairos round's shape: one penalty level per instance type
//! beside weighted completion times), and the rest are continuous.  Shapes
//! reach 16 x 600 in both orientations, and one workspace solves every
//! problem of a case, so its reused buffers see differently sized problems.
//!
//! [`solve_background_into`] takes a problem as one background cost per row
//! plus listed cells, and must return the `row_to_col` that
//! [`solve_jv_into`] returns on the equivalent dense matrix, on shapes up to
//! 16 x 600 with `rows <= cols`: tie-heavy small-integer costs, rows that
//! are all background and rows whose every cell is listed, listed cells
//! equal to the background, and cells in the last column.

mod common;

use common::ReferenceWorkspace;
use kairos_assignment::background::{solve_background_into, BackgroundRow};
use kairos_assignment::jv::{solve_jv_into, JvWorkspace};
use proptest::prelude::*;

/// SplitMix64: a small deterministic stream for filling matrices from a
/// drawn seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One problem: its shape and how its cells are drawn.
#[derive(Debug, Clone)]
struct Problem {
    rows: usize,
    cols: usize,
    /// 0: continuous; 1: 2–5 cost levels; 2: levels mixed with continuous.
    kind: u64,
    seed: u64,
}

impl Problem {
    fn costs(&self) -> Vec<f64> {
        let mut rng = SplitMix(self.seed);
        let levels: Vec<f64> = (0..2 + rng.below(4))
            .map(|_| (rng.below(50) as f64) * 2.5)
            .collect();
        (0..self.rows * self.cols)
            .map(|_| match self.kind {
                0 => rng.unit() * 500.0,
                1 => levels[rng.below(levels.len())],
                _ if rng.below(2) == 0 => levels[rng.below(levels.len())],
                _ => rng.unit() * 100.0,
            })
            .collect()
    }
}

/// Shapes up to 16 x 600, tall or wide, with a bias to the long side the
/// serving rounds use.
fn problem() -> impl Strategy<Value = Problem> {
    (1usize..=16, 1usize..=600, 0u64..2, 0u64..3, 0u64..u64::MAX).prop_map(
        |(short, long, tall, kind, seed)| {
            let (rows, cols) = if tall == 1 {
                (long, short)
            } else {
                (short, long)
            };
            Problem {
                rows,
                cols,
                kind,
                seed,
            }
        },
    )
}

/// A background problem: one background cost per row plus listed cells.
#[derive(Debug, Clone)]
struct BackgroundProblem {
    rows: usize,
    cols: usize,
    /// 0: small-integer costs (tie-heavy); 1: continuous costs.
    kind: u64,
    seed: u64,
}

/// The problem in the solver's form, and as the dense matrix it stands for.
struct Sparse {
    rows: Vec<BackgroundRow>,
    cells: Vec<(usize, f64)>,
    dense: Vec<f64>,
}

impl BackgroundProblem {
    fn build(&self) -> Sparse {
        let mut rng = SplitMix(self.seed);
        let draw = |rng: &mut SplitMix| match self.kind {
            0 => rng.below(5) as f64,
            _ => rng.unit() * 100.0,
        };
        let mut sparse = Sparse {
            rows: Vec::with_capacity(self.rows),
            cells: Vec::new(),
            dense: Vec::with_capacity(self.rows * self.cols),
        };
        for _ in 0..self.rows {
            let background = draw(&mut rng);
            // One row in eight lists no cell, one in eight every cell; the
            // rest list a sparse few, the last column often among them.
            let density = match rng.below(8) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.unit() * 0.1,
            };
            let last_listed = density > 0.0 && rng.below(3) == 0;
            for col in 0..self.cols {
                let listed = rng.unit() < density || (last_listed && col + 1 == self.cols);
                // One listed cell in six costs the background.
                let cost = if listed && rng.below(6) != 0 {
                    draw(&mut rng)
                } else {
                    background
                };
                if listed {
                    sparse.cells.push((col, cost));
                }
                sparse.dense.push(cost);
            }
            sparse.rows.push(BackgroundRow {
                background,
                cells_end: sparse.cells.len(),
            });
        }
        sparse
    }
}

/// Shapes up to 16 x 600 with `rows <= cols`, deep queues the most common.
fn background_problem() -> impl Strategy<Value = BackgroundProblem> {
    (1usize..=16, 0usize..=600, 0u64..2, 0u64..u64::MAX).prop_map(|(rows, extra, kind, seed)| {
        BackgroundProblem {
            rows,
            cols: (rows + extra).min(600),
            kind,
            seed,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solve_background_into_matches_the_dense_solver(
        problems in prop::collection::vec(background_problem(), 1..5),
    ) {
        // One workspace serves both solvers, as in the Kairos round.
        let mut ws = JvWorkspace::new();
        for p in &problems {
            let s = p.build();
            let expected = solve_jv_into(&mut ws, p.rows, p.cols, &s.dense)
                .map(<[_]>::to_vec)
                .ok();
            let got = solve_background_into(&mut ws, p.cols, &s.rows, &s.cells).ok();
            prop_assert!(got == expected.as_deref(), "{:?}: {:?} vs {:?}", p, got, expected);
        }
    }

    #[test]
    fn solve_jv_into_matches_the_reference_bit_for_bit(
        problems in prop::collection::vec(problem(), 1..5),
    ) {
        let mut ws = JvWorkspace::new();
        let mut reference = ReferenceWorkspace::default();
        for p in &problems {
            let cost = p.costs();
            let expected = reference.solve(p.rows, p.cols, &cost);
            let got = solve_jv_into(&mut ws, p.rows, p.cols, &cost).ok();
            prop_assert!(got == expected.as_deref(), "{:?}: {:?} vs {:?}", p, got, expected);
        }
    }
}

#[test]
fn tied_columns_resolve_as_the_reference_does() {
    // Every cell ties: the tie rule alone decides the matching.
    let mut ws = JvWorkspace::new();
    let mut reference = ReferenceWorkspace::default();
    for (rows, cols) in [(3, 7), (7, 3), (5, 5), (14, 512)] {
        let cost = vec![250.0; rows * cols];
        let expected = reference.solve(rows, cols, &cost).unwrap();
        let got = solve_jv_into(&mut ws, rows, cols, &cost).unwrap();
        assert_eq!(got, &expected[..], "{rows}x{cols}");
    }
}

#[test]
fn background_rows_resolve_ties_as_the_dense_solver_does() {
    // No listed cell, or every cell listed at the background: the tie rule
    // alone decides the matching, and it must be the dense scan's.
    let mut ws = JvWorkspace::new();
    for (rows, cols) in [(3, 5), (5, 5), (14, 512)] {
        let background: Vec<f64> = (0..rows).map(|i| 250.0 + (i % 3) as f64).collect();
        let dense: Vec<f64> = background
            .iter()
            .flat_map(|&b| std::iter::repeat_n(b, cols))
            .collect();
        let expected = solve_jv_into(&mut ws, rows, cols, &dense).unwrap().to_vec();
        let bare: Vec<BackgroundRow> = background
            .iter()
            .map(|&background| BackgroundRow {
                background,
                cells_end: 0,
            })
            .collect();
        let got = solve_background_into(&mut ws, cols, &bare, &[]).unwrap();
        assert_eq!(got, &expected[..], "{rows}x{cols}, nothing listed");
        let cells: Vec<(usize, f64)> = background
            .iter()
            .flat_map(|&b| (0..cols).map(move |col| (col, b)))
            .collect();
        let full: Vec<BackgroundRow> = background
            .iter()
            .enumerate()
            .map(|(i, &background)| BackgroundRow {
                background,
                cells_end: (i + 1) * cols,
            })
            .collect();
        let got = solve_background_into(&mut ws, cols, &full, &cells).unwrap();
        assert_eq!(got, &expected[..], "{rows}x{cols}, everything listed");
    }
}
