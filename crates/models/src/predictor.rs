//! Online latency prediction (paper Sec. 5.1, "Remarks on assumptions and
//! overhead").
//!
//! Kairos needs the `L` matrix entries — the predicted latency of every queued
//! query on every instance — but it does not assume any offline profiling.
//! Instead it "starts with a linear model but does not rely on the model
//! accuracy because it will quickly transition into a lookup table after
//! processing more queries".  This module implements exactly that: a
//! per-instance-type predictor that
//!
//! 1. records every observed `(batch size, latency)` pair,
//! 2. answers exact-batch-size queries from a lookup table of observed means,
//! 3. falls back to an online least-squares linear fit for unseen batch sizes,
//! 4. and, before it has seen at least two distinct batch sizes, falls back to
//!    an optional prior profile (or a conservative default).
//!
//! A caller that predicts many batches against one unchanging predictor (the
//! Kairos matching round predicts every queued query on every instance type)
//! resolves it once with [`OnlinePredictor::resolve`]: the fit is computed
//! once and each prediction is one lookup-table probe.  [`OnlinePredictor::predict`]
//! is that same resolution, made for a single batch.

use crate::latency::LatencyProfile;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Conservative latency (ms) assumed for a batch when nothing is known about
/// the instance type: 1 ms plus 1 ms per request.
pub fn default_latency_ms(batch: u32) -> f64 {
    1.0 + batch as f64
}

/// Online latency predictor for a single (model, instance type) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlinePredictor {
    /// Sum statistics for the least-squares fit.
    n: f64,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_xy: f64,
    /// Mean observed latency per exact batch size (the lookup table, keyed
    /// through [`BatchHasher`]).
    observed: BatchTable,
    /// Optional prior used before enough observations are available.
    prior: Option<LatencyProfile>,
}

impl OnlinePredictor {
    /// Creates a predictor with no prior knowledge.
    pub fn new() -> Self {
        Self {
            n: 0.0,
            sum_x: 0.0,
            sum_y: 0.0,
            sum_xx: 0.0,
            sum_xy: 0.0,
            observed: BatchTable::default(),
            prior: None,
        }
    }

    /// Creates a predictor seeded with a prior latency profile (used when a
    /// rough estimate is available, e.g. from a sibling instance type).
    pub fn with_prior(prior: LatencyProfile) -> Self {
        let mut p = Self::new();
        p.prior = Some(prior);
        p
    }

    /// Records an observed query: batch size and measured latency (ms).
    pub fn observe(&mut self, batch: u32, latency_ms: f64) {
        assert!(
            latency_ms.is_finite() && latency_ms > 0.0,
            "latency must be positive"
        );
        let x = batch as f64;
        self.n += 1.0;
        self.sum_x += x;
        self.sum_y += latency_ms;
        self.sum_xx += x * x;
        self.sum_xy += x * latency_ms;
        let entry = self.observed.entry(batch).or_insert((0.0, 0));
        entry.1 += 1;
        // Running mean of observations for this exact batch size.
        entry.0 += (latency_ms - entry.0) / entry.1 as f64;
    }

    /// Number of observations recorded so far.
    pub fn observations(&self) -> u64 {
        self.n as u64
    }

    /// Number of distinct batch sizes in the lookup table.
    pub fn distinct_batches(&self) -> usize {
        self.observed.len()
    }

    /// Whether the linear model can be fit (at least two distinct batch sizes).
    pub fn has_fit(&self) -> bool {
        self.distinct_batches() >= 2
    }

    /// The current least-squares linear fit `(intercept_ms, slope_ms)`, if a
    /// fit is possible.
    pub fn linear_fit(&self) -> Option<(f64, f64)> {
        if !self.has_fit() {
            return None;
        }
        let denom = self.n * self.sum_xx - self.sum_x * self.sum_x;
        if denom.abs() < 1e-12 {
            return None;
        }
        let slope = (self.n * self.sum_xy - self.sum_x * self.sum_y) / denom;
        let intercept = (self.sum_y - slope * self.sum_x) / self.n;
        Some((intercept, slope))
    }

    /// Predicts the latency (ms) of a query with the given batch size, in
    /// the resolution order of [`ResolvedPredictor::predict`].
    pub fn predict(&self, batch: u32) -> f64 {
        self.resolve().predict(batch)
    }

    /// Resolves the predictor for a run of predictions: borrows the lookup
    /// table and computes the linear fit once.
    pub fn resolve(&self) -> ResolvedPredictor<'_> {
        ResolvedPredictor {
            observed: Some(&self.observed),
            fit: self.linear_fit(),
            prior: self.prior,
        }
    }

    /// Mean absolute relative error of the predictor against a ground-truth
    /// profile, evaluated on the given batch sizes (used in tests and the
    /// noise-robustness experiments).
    pub fn relative_error_against(&self, truth: &LatencyProfile, batches: &[u32]) -> f64 {
        assert!(!batches.is_empty(), "need at least one batch size");
        let mut total = 0.0;
        for &b in batches {
            let t = truth.latency_ms(b);
            total += ((self.predict(b) - t) / t).abs();
        }
        total / batches.len() as f64
    }
}

impl Default for OnlinePredictor {
    fn default() -> Self {
        Self::new()
    }
}

/// The lookup table: mean observed latency and observation count per exact
/// batch size, hashed by [`BatchHasher`].
type BatchTable = HashMap<u32, (f64, u32), BuildHasherDefault<BatchHasher>>;

/// Hasher of the lookup table's batch-size keys: a multiply by the 64-bit
/// golden-ratio constant (Fibonacci hashing), rotated so the product's high
/// bits, which depend on every bit of the key, land in the low bits the
/// table picks a bucket by.  Keys that share their low bits, such as
/// multiples of 64, then spread as well as consecutive ones.  The keys are
/// batch sizes the simulator itself produces, so SipHash's resistance to
/// crafted collisions buys nothing here, at several times the cost per
/// probe.
#[derive(Debug, Default, Clone, Copy)]
struct BatchHasher(u64);

impl Hasher for BatchHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// An [`OnlinePredictor`] resolved for a run of predictions: its lookup table
/// borrowed and its linear fit computed once.  The default value stands for
/// an instance type never observed, whose every prediction is the
/// conservative default.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResolvedPredictor<'a> {
    observed: Option<&'a BatchTable>,
    fit: Option<(f64, f64)>,
    prior: Option<LatencyProfile>,
}

impl ResolvedPredictor<'_> {
    /// Predicts the latency (ms) of a query with the given batch size.
    ///
    /// Resolution order: exact lookup-table hit → linear fit → prior →
    /// conservative default (1 ms + 1 ms per request) so the scheduler always
    /// has *some* number to work with during the first few queries.
    pub fn predict(&self, batch: u32) -> f64 {
        if let Some(&(mean, _)) = self.observed.and_then(|table| table.get(&batch)) {
            return mean;
        }
        if let Some((intercept, slope)) = self.fit {
            let estimate = intercept + slope * batch as f64;
            if estimate > 0.0 {
                return estimate;
            }
        }
        if let Some(prior) = self.prior {
            return prior.latency_ms(batch);
        }
        default_latency_ms(batch)
    }
}

/// A bank of online predictors, one per instance-type name, as held by the
/// Kairos central controller.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PredictorBank {
    predictors: HashMap<String, OnlinePredictor>,
}

impl PredictorBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an observation for an instance type.  The common case (type
    /// already known) is a plain map lookup: the name is only copied into an
    /// owned `String` on the *first* observation of a type, so the
    /// per-completion hot path allocates nothing.
    pub fn observe(&mut self, instance_name: &str, batch: u32, latency_ms: f64) {
        if let Some(predictor) = self.predictors.get_mut(instance_name) {
            predictor.observe(batch, latency_ms);
        } else {
            let mut predictor = OnlinePredictor::new();
            predictor.observe(batch, latency_ms);
            self.predictors.insert(instance_name.to_string(), predictor);
        }
    }

    /// Predicts latency for a batch on an instance type (conservative default
    /// when the type has never been observed).
    pub fn predict(&self, instance_name: &str, batch: u32) -> f64 {
        self.predictors
            .get(instance_name)
            .map(OnlinePredictor::resolve)
            .unwrap_or_default()
            .predict(batch)
    }

    /// Access the predictor of one instance type, if it exists.
    pub fn get(&self, instance_name: &str) -> Option<&OnlinePredictor> {
        self.predictors.get(instance_name)
    }

    /// Total number of observations across all instance types.
    pub fn total_observations(&self) -> u64 {
        self.predictors.values().map(|p| p.observations()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_table_takes_precedence_over_fit() {
        let mut p = OnlinePredictor::new();
        p.observe(10, 5.0);
        p.observe(20, 9.0);
        p.observe(10, 7.0); // mean for batch 10 becomes 6.0
        assert!((p.predict(10) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_recovers_exact_linear_data() {
        let mut p = OnlinePredictor::new();
        let truth = LatencyProfile::new(3.0, 0.25);
        for b in [1u32, 5, 17, 40, 100, 400] {
            p.observe(b, truth.latency_ms(b));
        }
        let (intercept, slope) = p.linear_fit().unwrap();
        assert!((intercept - 3.0).abs() < 1e-6);
        assert!((slope - 0.25).abs() < 1e-9);
        // Unseen batch size is predicted through the fit.
        assert!((p.predict(250) - truth.latency_ms(250)).abs() < 1e-6);
        assert!(p.relative_error_against(&truth, &[2, 33, 750]) < 1e-6);
    }

    #[test]
    fn no_fit_with_single_batch_size() {
        let mut p = OnlinePredictor::new();
        p.observe(64, 10.0);
        p.observe(64, 10.0);
        assert!(!p.has_fit());
        assert!(p.linear_fit().is_none());
        // Exact batch still answered from the table.
        assert_eq!(p.predict(64), 10.0);
    }

    #[test]
    fn prior_used_before_observations() {
        let p = OnlinePredictor::with_prior(LatencyProfile::new(2.0, 0.5));
        assert!((p.predict(10) - 7.0).abs() < 1e-9);
        let q = OnlinePredictor::new();
        assert_eq!(q.predict(10), 11.0); // conservative default
    }

    #[test]
    fn observations_counter() {
        let mut p = OnlinePredictor::new();
        assert_eq!(p.observations(), 0);
        p.observe(1, 1.0);
        p.observe(2, 2.0);
        assert_eq!(p.observations(), 2);
        assert_eq!(p.distinct_batches(), 2);
    }

    #[test]
    #[should_panic(expected = "latency must be positive")]
    fn rejects_nonpositive_latency() {
        OnlinePredictor::new().observe(1, 0.0);
    }

    #[test]
    fn bank_tracks_per_instance_predictors() {
        let mut bank = PredictorBank::new();
        bank.observe("g4dn.xlarge", 100, 20.0);
        bank.observe("g4dn.xlarge", 200, 35.0);
        bank.observe("r5n.large", 100, 80.0);
        assert_eq!(bank.total_observations(), 3);
        assert!(bank.predict("g4dn.xlarge", 100) < bank.predict("r5n.large", 100));
        // Unknown instance types fall back to the conservative default.
        assert_eq!(bank.predict("unknown", 5), 6.0);
        assert!(bank.get("g4dn.xlarge").unwrap().has_fit());
    }
}
