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

mod common;

use common::ReferenceWorkspace;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
