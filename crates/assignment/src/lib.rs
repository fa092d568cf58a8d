//! # kairos-assignment
//!
//! The rectangular linear-sum assignment (min-cost bipartite matching)
//! solver of the Kairos inference-serving framework (HPDC'23).
//!
//! Kairos distributes inference queries across a heterogeneous pool of cloud
//! instances by solving, at every scheduling instant, a min-cost bipartite
//! matching between queued queries and available instances (paper Sec. 5.1,
//! Eq. 4–8).  The reference implementation delegates this to SciPy's
//! `linear_sum_assignment`; this crate provides the equivalent,
//! dependency-free Rust solver, [`jv::solve_jv_into`]: shortest augmenting
//! paths (the algorithm the paper names), exact and `O(r^2 c)`, solving from
//! a flat row-major cost buffer in a reusable [`jv::JvWorkspace`].  The
//! Kairos query distributor calls it once per scheduling round.
//!
//! The test oracles the solver is checked against (a brute-force optimum, a
//! greedy strawman and a checked cost-matrix type) live in the dev-only
//! `kairos-testkit` crate.
//!
//! ```
//! use kairos_assignment::jv::{solve_jv_into, JvWorkspace};
//!
//! // 2 queries x 3 instances, row-major: entry (i, j) is the weighted
//! // completion time of query i on instance j.
//! let costs = [
//!     4.0, 1.5, 9.0,
//!     2.0, 8.0, 3.0,
//! ];
//! let mut ws = JvWorkspace::new();
//! let row_to_col = solve_jv_into(&mut ws, 2, 3, &costs).unwrap();
//! assert_eq!(row_to_col, &[Some(1), Some(0)]);
//! ```

#![warn(missing_docs)]

pub mod jv;

pub use jv::AssignmentError;
