//! Heterogeneity coefficients (paper Definition 1).
//!
//! One wall-clock second on a GPU is worth more than one second on a cheap
//! CPU, so Kairos weights the resource usage of instance type `j` by a
//! coefficient `C_j ∈ (0, 1]`: the ratio between the *largest* query's latency
//! on the base type and on type `j`.  The base type gets `C = 1`; slower
//! types get proportionally smaller coefficients.  The paper's example: if the
//! largest query takes 100 ms on `I1` (base), 200 ms on `I2` and 500 ms on
//! `I3`, then `C = (1, 0.5, 0.2)`.

/// Computes heterogeneity coefficients from the latency of the largest query
/// on every instance type.
///
/// * `largest_query_latency_ms[j]` — latency of the largest admissible query
///   on type `j`.
/// * `base_index` — which entry is the base type.
///
/// Returns one coefficient per type, with the base pinned to exactly 1.0 and
/// every other coefficient clamped into `(0, 1]`.
///
/// # Panics
/// Panics if the slice is empty, the base index is out of range, or any
/// latency is not strictly positive.
pub fn heterogeneity_coefficients(largest_query_latency_ms: &[f64], base_index: usize) -> Vec<f64> {
    let mut coefficients = largest_query_latency_ms.to_vec();
    heterogeneity_coefficients_in_place(&mut coefficients, base_index);
    coefficients
}

/// [`heterogeneity_coefficients`] computed in place: each type's latency is
/// replaced by its coefficient, for the per-round matching path.
///
/// # Panics
/// As [`heterogeneity_coefficients`].
pub(crate) fn heterogeneity_coefficients_in_place(
    largest_query_latency_ms: &mut [f64],
    base_index: usize,
) {
    assert!(
        !largest_query_latency_ms.is_empty(),
        "need at least one instance type"
    );
    assert!(
        base_index < largest_query_latency_ms.len(),
        "base index out of range"
    );
    for (i, &l) in largest_query_latency_ms.iter().enumerate() {
        assert!(
            l.is_finite() && l > 0.0,
            "latency of type {i} must be positive (got {l})"
        );
    }
    let base = largest_query_latency_ms[base_index];
    for (i, l) in largest_query_latency_ms.iter_mut().enumerate() {
        *l = if i == base_index {
            1.0
        } else {
            (base / *l).clamp(f64::MIN_POSITIVE, 1.0)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example() {
        // 100 ms on base, 200 ms and 500 ms on the others -> (1, 0.5, 0.2).
        let c = heterogeneity_coefficients(&[100.0, 200.0, 500.0], 0);
        assert_eq!(c, vec![1.0, 0.5, 0.2]);
    }

    #[test]
    fn base_is_always_exactly_one() {
        let c = heterogeneity_coefficients(&[300.0, 100.0, 600.0], 1);
        assert_eq!(c[1], 1.0);
        assert!((c[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn coefficients_clamped_to_at_most_one() {
        // A type faster than the base on the largest query would produce a
        // coefficient above 1; the definition restricts C to (0, 1].
        let c = heterogeneity_coefficients(&[100.0, 50.0], 0);
        assert_eq!(c, vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_latency() {
        heterogeneity_coefficients(&[100.0, 0.0], 0);
    }

    #[test]
    #[should_panic(expected = "base index")]
    fn rejects_bad_base_index() {
        heterogeneity_coefficients(&[100.0], 3);
    }
}
