//! The Kairos round's original matrix assembly, kept as a test-only oracle:
//! construction of the `L` matrix and the QoS-penalized cost matrix (paper
//! Sec. 5.1, Eq. 2–8), one entry per (query, instance) pair.
//!
//! `L[i][j]` is the time instance `j` would be occupied, measured from the
//! scheduling instant `t0`, if it were chosen to serve query `i`: the
//! instance's remaining busy time plus the predicted service latency of the
//! query on that instance type.  The QoS constraint (Eq. 3, with the paper's
//! `ξ = 0.98` noise safeguard) is folded into the matrix by replacing
//! infeasible entries with a `10 × T_qos` penalty (Eq. 8), after which the
//! problem is a plain min-cost bipartite matching with edge cost
//! `C_j · L[i][j]` (Eq. 2).

use kairos_core::distribution::QOS_PENALTY_FACTOR;
use kairos_testkit::CostMatrix;

/// Inputs describing one query row of the matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRow {
    /// Batch size of the query.
    pub batch_size: u32,
    /// Time the query has already waited in the central queue (`W_i`), in ms.
    pub waited_ms: f64,
}

/// Inputs describing one instance column of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceColumn {
    /// Remaining time until the instance is free, in ms (0 when idle).
    pub remaining_ms: f64,
    /// Heterogeneity coefficient `C_j` of the instance's type.
    pub coefficient: f64,
    /// Predicted service latency (ms) of each query row on this instance,
    /// aligned with the query rows.
    pub predicted_service_ms: Vec<f64>,
}

/// The assembled matrices: raw completion times `L`, the penalized version,
/// and the final cost matrix `C_j · L~[i][j]` handed to the solver.
#[derive(Debug, Clone)]
pub struct LMatrices {
    /// Raw completion-time matrix `L` (ms), before QoS penalization.
    pub completion_ms: CostMatrix,
    /// Whether each (query, instance) pair satisfies the QoS constraint.
    pub feasible: Vec<Vec<bool>>,
    /// Final solver cost matrix (`C_j` weighting and penalties applied).
    pub cost: CostMatrix,
}

/// Builds the `L`/cost matrices for one scheduling round.
///
/// # Panics
/// Panics on inconsistent dimensions or non-positive QoS target.
pub fn build_matrices(
    queries: &[QueryRow],
    instances: &[InstanceColumn],
    qos_ms: f64,
    xi: f64,
) -> LMatrices {
    assert!(!queries.is_empty(), "need at least one query");
    assert!(!instances.is_empty(), "need at least one instance");
    assert!(qos_ms > 0.0, "QoS target must be positive");
    assert!(xi > 0.0 && xi <= 1.0, "xi must lie in (0, 1]");
    for col in instances {
        assert_eq!(
            col.predicted_service_ms.len(),
            queries.len(),
            "column predictions must cover every query"
        );
        assert!(
            col.coefficient > 0.0 && col.coefficient <= 1.0,
            "C_j must lie in (0, 1]"
        );
    }

    let m = queries.len();
    let n = instances.len();
    let penalty = QOS_PENALTY_FACTOR * qos_ms;

    let mut completion = Vec::with_capacity(m * n);
    let mut cost = Vec::with_capacity(m * n);
    let mut feasible = vec![vec![false; n]; m];

    for (i, q) in queries.iter().enumerate() {
        for (j, inst) in instances.iter().enumerate() {
            // Completion time from t0: wait for the instance, then serve.
            let l_ij = inst.remaining_ms + inst.predicted_service_ms[i];
            completion.push(l_ij);
            // Eq. 3 with the ξ safeguard: (L_ij + W_i) <= ξ T_qos.
            let ok = l_ij + q.waited_ms <= xi * qos_ms;
            feasible[i][j] = ok;
            let effective_l = if ok { l_ij } else { penalty };
            cost.push(inst.coefficient * effective_l);
        }
    }

    LMatrices {
        completion_ms: CostMatrix::from_vec(m, n, completion).expect("finite completion times"),
        feasible,
        cost: CostMatrix::from_vec(m, n, cost).expect("finite costs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_core::DEFAULT_XI;

    fn queries() -> Vec<QueryRow> {
        vec![
            QueryRow {
                batch_size: 10,
                waited_ms: 0.0,
            },
            QueryRow {
                batch_size: 800,
                waited_ms: 5.0,
            },
        ]
    }

    fn instances() -> Vec<InstanceColumn> {
        vec![
            // Base GPU: idle, fast for both queries.
            InstanceColumn {
                remaining_ms: 0.0,
                coefficient: 1.0,
                predicted_service_ms: vec![5.0, 18.0],
            },
            // Cheap CPU: busy for 3 ms, fine for the small query but the large
            // query would blow the 25 ms QoS target.
            InstanceColumn {
                remaining_ms: 3.0,
                coefficient: 0.4,
                predicted_service_ms: vec![8.0, 60.0],
            },
        ]
    }

    #[test]
    fn completion_includes_remaining_time() {
        let m = build_matrices(&queries(), &instances(), 25.0, 1.0);
        assert_eq!(m.completion_ms.get(0, 0), 5.0);
        assert_eq!(m.completion_ms.get(0, 1), 11.0);
        assert_eq!(m.completion_ms.get(1, 1), 63.0);
    }

    #[test]
    fn qos_violations_are_penalized_by_ten_times_target() {
        let m = build_matrices(&queries(), &instances(), 25.0, 1.0);
        assert!(m.feasible[0][0] && m.feasible[0][1]);
        assert!(m.feasible[1][0]);
        assert!(!m.feasible[1][1]);
        // Penalized entry: C_j * 10 * T_qos = 0.4 * 250.
        assert_eq!(m.cost.get(1, 1), 0.4 * 250.0);
        // Feasible entries are weighted completion times.
        assert_eq!(m.cost.get(0, 1), 0.4 * 11.0);
        assert_eq!(m.cost.get(1, 0), 18.0);
    }

    #[test]
    fn xi_safeguard_tightens_the_boundary() {
        // Query 0 on instance 1 completes at 11 ms + 0 wait; with QoS 11.2 ms
        // it is feasible at xi = 1.0 but infeasible at the default xi = 0.98.
        let m_loose = build_matrices(&queries(), &instances(), 11.2, 1.0);
        assert!(m_loose.feasible[0][1]);
        let m_tight = build_matrices(&queries(), &instances(), 11.2, DEFAULT_XI);
        assert!(!m_tight.feasible[0][1]);
    }

    #[test]
    fn waiting_time_counts_against_qos() {
        // The large query already waited 5 ms; on the GPU it completes at
        // 18 ms for a total of 23 ms, so a 22 ms target is violated but a
        // 24 ms target is met (xi = 1 to keep the arithmetic exact).
        let m = build_matrices(&queries(), &instances(), 22.0, 1.0);
        assert!(!m.feasible[1][0]);
        let m = build_matrices(&queries(), &instances(), 24.0, 1.0);
        assert!(m.feasible[1][0]);
    }

    #[test]
    #[should_panic(expected = "cover every query")]
    fn dimension_mismatch_is_rejected() {
        let mut inst = instances();
        inst[0].predicted_service_ms.pop();
        build_matrices(&queries(), &inst, 25.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "C_j")]
    fn rejects_out_of_range_coefficient() {
        let mut inst = instances();
        inst[1].coefficient = 1.5;
        build_matrices(&queries(), &inst, 25.0, 1.0);
    }
}
