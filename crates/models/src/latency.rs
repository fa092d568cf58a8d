//! Latency profiles of (model, instance type) pairs.
//!
//! The paper observes (Sec. 5.1, "Remarks on assumptions and overhead") that
//! ML inference latency is highly predictable and almost perfectly linear in
//! the query batch size (Pearson correlation > 0.99, end-to-end variance
//! < 0.5 % of the mean), because each instance serves exactly one query at a
//! time with no resource contention.  We therefore model the service latency
//! of a batch-`b` query as
//!
//! ```text
//! latency_ms(b) = intercept_ms + slope_ms * b        (+ optional noise)
//! ```
//!
//! The optional additive Gaussian noise reproduces the robustness experiment
//! of Fig. 16(b), where 5 % white noise is injected into latency predictions
//! to emulate cloud performance variability.

use crate::mlmodel::ModelKind;
use rand::Rng;
use std::collections::HashMap;
use std::fmt;

/// Typed construction error for latency profiles and batch-axis grids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyError {
    /// The intercept was negative or not finite.
    InvalidIntercept {
        /// The offending intercept, in milliseconds.
        intercept_ms: f64,
    },
    /// The slope was zero, negative, or not finite (larger batches must be
    /// slower).
    InvalidSlope {
        /// The offending slope, in milliseconds per request.
        slope_ms: f64,
    },
    /// A batch grid had no points.
    EmptyGrid,
    /// Batch sizes in a grid were not strictly increasing.
    UnsortedGrid {
        /// Index of the first out-of-order point.
        index: usize,
    },
    /// A grid latency was zero, negative, or not finite.
    InvalidGridLatency {
        /// Index of the offending point.
        index: usize,
    },
    /// Latency decreased between two adjacent grid points: the batch axis
    /// must be monotone non-decreasing.
    NonMonotoneGrid {
        /// Index of the point whose latency undercuts its predecessor.
        index: usize,
    },
}

impl fmt::Display for LatencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatencyError::InvalidIntercept { intercept_ms } => {
                write!(
                    f,
                    "intercept must be finite and non-negative, got {intercept_ms}"
                )
            }
            LatencyError::InvalidSlope { slope_ms } => {
                write!(f, "slope must be finite and positive, got {slope_ms}")
            }
            LatencyError::EmptyGrid => write!(f, "batch latency grid has no points"),
            LatencyError::UnsortedGrid { index } => {
                write!(
                    f,
                    "grid batch sizes must be strictly increasing (point {index})"
                )
            }
            LatencyError::InvalidGridLatency { index } => {
                write!(
                    f,
                    "grid latency must be finite and positive (point {index})"
                )
            }
            LatencyError::NonMonotoneGrid { index } => {
                write!(
                    f,
                    "grid latency must be non-decreasing in batch size (point {index})"
                )
            }
        }
    }
}

impl std::error::Error for LatencyError {}

/// Linear latency profile of one model on one instance type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Fixed per-query overhead in milliseconds (dispatch, data movement).
    pub intercept_ms: f64,
    /// Marginal cost of one additional request in the batch, in milliseconds.
    pub slope_ms: f64,
}

impl LatencyProfile {
    /// Creates a profile; both coefficients must be finite and non-negative,
    /// and the slope must be strictly positive so larger batches are slower.
    pub fn new(intercept_ms: f64, slope_ms: f64) -> Self {
        match Self::try_new(intercept_ms, slope_ms) {
            Ok(profile) => profile,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`Self::new`]: reports invalid coefficients as a typed
    /// [`LatencyError`] instead of panicking.
    pub fn try_new(intercept_ms: f64, slope_ms: f64) -> Result<Self, LatencyError> {
        if !intercept_ms.is_finite() || intercept_ms < 0.0 {
            return Err(LatencyError::InvalidIntercept { intercept_ms });
        }
        if !slope_ms.is_finite() || slope_ms <= 0.0 {
            return Err(LatencyError::InvalidSlope { slope_ms });
        }
        Ok(Self {
            intercept_ms,
            slope_ms,
        })
    }

    /// Deterministic service latency of a batch-`batch` query, in milliseconds.
    #[inline]
    pub fn latency_ms(&self, batch: u32) -> f64 {
        self.intercept_ms + self.slope_ms * batch as f64
    }

    /// Deterministic service latency in microseconds (simulator time unit).
    #[inline]
    pub fn latency_us(&self, batch: u32) -> u64 {
        (self.latency_ms(batch) * 1000.0).round().max(1.0) as u64
    }

    /// The largest batch size whose latency stays within `qos_ms`, or `None`
    /// if even a single-request query violates the target.  This is the
    /// QoS-respecting region boundary `s` of the upper-bound analysis
    /// (paper Fig. 6).
    pub fn max_batch_within(&self, qos_ms: f64) -> Option<u32> {
        if self.latency_ms(1) > qos_ms {
            return None;
        }
        let b = ((qos_ms - self.intercept_ms) / self.slope_ms).floor();
        Some(b.max(1.0) as u32)
    }

    /// Steady-state throughput, in queries per second, when continuously
    /// serving queries of the given batch size.
    #[inline]
    pub fn throughput_qps(&self, batch: u32) -> f64 {
        1000.0 / self.latency_ms(batch)
    }
}

/// Piecewise-linear latency over an explicit batch-size grid — the measured
/// batch axis of a profile when the perfectly-linear model of
/// [`LatencyProfile`] is too coarse (batched serving amortizes the fixed
/// overhead unevenly across batch regimes).
///
/// Construction validates the grid shape: batch sizes strictly increasing,
/// latencies finite, positive, and **monotone non-decreasing** in batch size.
/// Lookups interpolate linearly between knots and *clamp* at the edges of
/// the grid — a batch below the first knot costs the first knot's latency
/// and a batch beyond the last knot costs the last knot's, never a negative
/// or runaway extrapolation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLatencyGrid {
    points: Vec<(u32, f64)>,
}

impl BatchLatencyGrid {
    /// Builds a grid from `(batch size, latency in ms)` knots, validating
    /// the shape (see the type docs).
    pub fn try_new(points: Vec<(u32, f64)>) -> Result<Self, LatencyError> {
        if points.is_empty() {
            return Err(LatencyError::EmptyGrid);
        }
        for (index, &(batch, latency_ms)) in points.iter().enumerate() {
            if index > 0 && batch <= points[index - 1].0 {
                return Err(LatencyError::UnsortedGrid { index });
            }
            if !latency_ms.is_finite() || latency_ms <= 0.0 {
                return Err(LatencyError::InvalidGridLatency { index });
            }
            if index > 0 && latency_ms < points[index - 1].1 {
                return Err(LatencyError::NonMonotoneGrid { index });
            }
        }
        Ok(Self { points })
    }

    /// The validated `(batch size, latency in ms)` knots.
    pub fn points(&self) -> &[(u32, f64)] {
        &self.points
    }

    /// Latency of a batch-`batch` query in milliseconds: linear
    /// interpolation between the bracketing knots, clamped to the first /
    /// last knot outside the grid.
    pub fn latency_ms(&self, batch: u32) -> f64 {
        let first = self.points[0];
        let last = self.points[self.points.len() - 1];
        if batch <= first.0 {
            return first.1;
        }
        if batch >= last.0 {
            return last.1;
        }
        // Index of the first knot with knot.0 >= batch; the checks above
        // guarantee a bracketing pair exists.
        let hi = self.points.partition_point(|&(b, _)| b < batch);
        let (b0, l0) = self.points[hi - 1];
        let (b1, l1) = self.points[hi];
        let t = (batch - b0) as f64 / (b1 - b0) as f64;
        l0 + t * (l1 - l0)
    }

    /// Latency in microseconds (simulator time unit), at least 1 µs.
    pub fn latency_us(&self, batch: u32) -> u64 {
        (self.latency_ms(batch) * 1000.0).round().max(1.0) as u64
    }
}

/// Latency-prediction noise model (Fig. 16(b) robustness experiment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseModel {
    /// Fully deterministic latency (the paper's default assumption).
    None,
    /// Additive Gaussian white noise with standard deviation
    /// `std_fraction * latency` (the paper injects 5 % variance).
    Gaussian {
        /// Noise standard deviation as a fraction of the nominal latency.
        std_fraction: f64,
    },
}

impl NoiseModel {
    /// Applies the noise model to a nominal latency (milliseconds).  The
    /// result is clamped to at least 5 % of the nominal value so service
    /// times remain physically meaningful.
    pub fn apply<R: Rng + ?Sized>(&self, nominal_ms: f64, rng: &mut R) -> f64 {
        match self {
            NoiseModel::None => nominal_ms,
            NoiseModel::Gaussian { std_fraction } => {
                // Box–Muller transform; avoids a hard dependency on rand_distr here.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let noisy = nominal_ms * (1.0 + std_fraction * z);
                noisy.max(0.05 * nominal_ms)
            }
        }
    }
}

/// Calibrated latency profiles for every (model, instance type) pair.
///
/// Instance types are keyed by their cloud name (e.g. `"g4dn.xlarge"`), so a
/// table can be shared across pools that pick subsets of the catalogue.
#[derive(Debug, Clone, Default)]
pub struct LatencyTable {
    entries: HashMap<ModelKind, HashMap<String, LatencyProfile>>,
}

impl LatencyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) the profile for a (model, instance type) pair.
    pub fn insert(&mut self, model: ModelKind, instance_name: &str, profile: LatencyProfile) {
        self.entries
            .entry(model)
            .or_default()
            .insert(instance_name.to_string(), profile);
    }

    /// Looks up the profile for a (model, instance type) pair.
    pub fn get(&self, model: ModelKind, instance_name: &str) -> Option<LatencyProfile> {
        self.entries
            .get(&model)
            .and_then(|m| m.get(instance_name))
            .copied()
    }

    /// Looks up the profile, panicking with a descriptive message when the
    /// pair has not been calibrated.  Used on hot paths where absence is a
    /// programming error rather than a runtime condition.
    pub fn expect(&self, model: ModelKind, instance_name: &str) -> LatencyProfile {
        self.get(model, instance_name).unwrap_or_else(|| {
            panic!("no latency calibration for model {model} on instance {instance_name}")
        })
    }

    /// Number of calibrated pairs.
    pub fn len(&self) -> usize {
        self.entries.values().map(|m| m.len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all `(model, instance name, profile)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (ModelKind, &str, LatencyProfile)> + '_ {
        self.entries
            .iter()
            .flat_map(|(m, inner)| inner.iter().map(move |(n, p)| (*m, n.as_str(), *p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn latency_is_linear_in_batch_size() {
        let p = LatencyProfile::new(2.0, 0.5);
        assert_eq!(p.latency_ms(0), 2.0);
        assert_eq!(p.latency_ms(10), 7.0);
        assert_eq!(p.latency_ms(100), 52.0);
        // Perfect linearity implies perfect correlation with batch size,
        // consistent with the paper's Pearson > 0.99 observation.
        let d1 = p.latency_ms(20) - p.latency_ms(10);
        let d2 = p.latency_ms(30) - p.latency_ms(20);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn microsecond_conversion_rounds_up_to_at_least_one() {
        let p = LatencyProfile::new(0.0, 0.0005);
        assert_eq!(p.latency_us(1), 1);
        let q = LatencyProfile::new(1.5, 0.1);
        assert_eq!(q.latency_us(10), 2500);
    }

    #[test]
    fn max_batch_within_qos() {
        let p = LatencyProfile::new(2.0, 0.1);
        // 2 + 0.1 b <= 12  =>  b <= 100
        assert_eq!(p.max_batch_within(12.0), Some(100));
        // Even one request is too slow for a 1 ms target.
        assert_eq!(p.max_batch_within(1.0), None);
        // Boundary: exactly one request fits.
        assert_eq!(p.max_batch_within(2.1), Some(1));
    }

    #[test]
    fn throughput_is_inverse_latency() {
        let p = LatencyProfile::new(5.0, 0.05);
        let qps = p.throughput_qps(100);
        assert!((qps - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "slope must be finite and positive")]
    fn rejects_zero_slope() {
        LatencyProfile::new(1.0, 0.0);
    }

    #[test]
    fn try_new_reports_bad_coefficients_without_panicking() {
        assert_eq!(
            LatencyProfile::try_new(-1.0, 0.5),
            Err(LatencyError::InvalidIntercept { intercept_ms: -1.0 })
        );
        assert!(matches!(
            LatencyProfile::try_new(1.0, f64::NAN),
            Err(LatencyError::InvalidSlope { .. })
        ));
        assert!(LatencyProfile::try_new(1.0, 0.5).is_ok());
    }

    #[test]
    fn batch_grid_interpolates_and_clamps_at_the_edges() {
        let grid = BatchLatencyGrid::try_new(vec![(8, 4.0), (64, 10.0), (256, 40.0)]).unwrap();
        // Interior points interpolate linearly between bracketing knots.
        assert!((grid.latency_ms(36) - 7.0).abs() < 1e-12);
        assert!((grid.latency_ms(160) - 25.0).abs() < 1e-12);
        // Knots are exact.
        assert_eq!(grid.latency_ms(8), 4.0);
        assert_eq!(grid.latency_ms(64), 10.0);
        assert_eq!(grid.latency_ms(256), 40.0);
        // Edges clamp instead of extrapolating: a batch below the first knot
        // costs the first knot's latency, above the last knot the last's.
        assert_eq!(grid.latency_ms(1), 4.0);
        assert_eq!(grid.latency_ms(1000), 40.0);
        assert_eq!(grid.latency_us(1000), 40_000);
    }

    #[test]
    fn batch_grid_rejects_malformed_inputs() {
        assert_eq!(
            BatchLatencyGrid::try_new(Vec::new()),
            Err(LatencyError::EmptyGrid)
        );
        assert_eq!(
            BatchLatencyGrid::try_new(vec![(8, 1.0), (8, 2.0)]),
            Err(LatencyError::UnsortedGrid { index: 1 })
        );
        assert_eq!(
            BatchLatencyGrid::try_new(vec![(8, 1.0), (4, 2.0)]),
            Err(LatencyError::UnsortedGrid { index: 1 })
        );
        assert_eq!(
            BatchLatencyGrid::try_new(vec![(8, 0.0)]),
            Err(LatencyError::InvalidGridLatency { index: 0 })
        );
        // The monotone batch axis is validated at construction: a dip in
        // latency between adjacent knots is a typed error.
        assert_eq!(
            BatchLatencyGrid::try_new(vec![(8, 5.0), (16, 4.0)]),
            Err(LatencyError::NonMonotoneGrid { index: 1 })
        );
        // A flat segment is allowed (non-decreasing, not strictly increasing).
        assert!(BatchLatencyGrid::try_new(vec![(8, 5.0), (16, 5.0)]).is_ok());
    }

    #[test]
    fn noise_none_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(NoiseModel::None.apply(10.0, &mut rng), 10.0);
    }

    #[test]
    fn gaussian_noise_stays_near_nominal_and_positive() {
        let mut rng = StdRng::seed_from_u64(42);
        let noise = NoiseModel::Gaussian { std_fraction: 0.05 };
        let mut sum = 0.0;
        for _ in 0..2000 {
            let v = noise.apply(100.0, &mut rng);
            assert!(v > 0.0);
            sum += v;
        }
        let mean = sum / 2000.0;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean} drifted too far");
    }

    #[test]
    fn table_insert_and_lookup() {
        let mut t = LatencyTable::new();
        assert!(t.is_empty());
        t.insert(
            ModelKind::Ncf,
            "g4dn.xlarge",
            LatencyProfile::new(1.0, 0.01),
        );
        assert_eq!(t.len(), 1);
        let p = t.get(ModelKind::Ncf, "g4dn.xlarge").unwrap();
        assert_eq!(p.intercept_ms, 1.0);
        assert!(t.get(ModelKind::Rm2, "g4dn.xlarge").is_none());
    }

    #[test]
    #[should_panic(expected = "no latency calibration")]
    fn expect_panics_on_missing_pair() {
        let t = LatencyTable::new();
        t.expect(ModelKind::Dien, "t3.xlarge");
    }
}
