//! Bit-identity of the online latency predictor against the form it
//! replaced.
//!
//! [`ReferencePredictor`] is `OnlinePredictor` as it was before its lookup
//! table took a hand-written integer hasher and before a run of predictions
//! could resolve the linear fit once: a SipHash `HashMap` probed, and the fit
//! recomputed, on every call.  Both are fed the same random observation
//! sequences — none at all, a single batch size, a few repeated sizes, and
//! sizes up to 1000 — with and without a prior.  For every batch size in
//! `1..=1000`, `predict` and the resolved form must return the reference's
//! bits, and the table size, fit state and fit coefficients must agree.

use kairos_models::latency::LatencyProfile;
use kairos_models::predictor::{default_latency_ms, OnlinePredictor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The predictor before the change: SipHash table, fit per call.
struct ReferencePredictor {
    n: f64,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_xy: f64,
    observed: HashMap<u32, (f64, u32)>,
    prior: Option<LatencyProfile>,
}

impl ReferencePredictor {
    fn new(prior: Option<LatencyProfile>) -> Self {
        Self {
            n: 0.0,
            sum_x: 0.0,
            sum_y: 0.0,
            sum_xx: 0.0,
            sum_xy: 0.0,
            observed: HashMap::new(),
            prior,
        }
    }

    fn observe(&mut self, batch: u32, latency_ms: f64) {
        let x = batch as f64;
        self.n += 1.0;
        self.sum_x += x;
        self.sum_y += latency_ms;
        self.sum_xx += x * x;
        self.sum_xy += x * latency_ms;
        let entry = self.observed.entry(batch).or_insert((0.0, 0));
        entry.1 += 1;
        entry.0 += (latency_ms - entry.0) / entry.1 as f64;
    }

    fn distinct_batches(&self) -> usize {
        self.observed.len()
    }

    fn has_fit(&self) -> bool {
        self.distinct_batches() >= 2
    }

    fn linear_fit(&self) -> Option<(f64, f64)> {
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

    fn predict(&self, batch: u32) -> f64 {
        if let Some(&(mean, _)) = self.observed.get(&batch) {
            return mean;
        }
        if let Some((intercept, slope)) = self.linear_fit() {
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

/// Bits of a fit, so `None` and the coefficients compare exactly.
fn fit_bits(fit: Option<(f64, f64)>) -> Option<(u64, u64)> {
    fit.map(|(a, b)| (a.to_bits(), b.to_bits()))
}

/// Draws `count` observations of the given shape: 0 none, 1 a single batch
/// size, 2 a few sizes repeated, 3 any size in `1..=1000`.  Latencies follow
/// a random line with noise, and are sometimes steep enough downward that
/// the fit predicts non-positive latencies for large batches.
fn observations(rng: &mut StdRng, shape: u64, count: usize) -> Vec<(u32, f64)> {
    let sizes: Vec<u32> = match shape {
        0 => return Vec::new(),
        1 => vec![rng.gen_range(1..=1000u32)],
        2 => (0..rng.gen_range(2..5usize))
            .map(|_| rng.gen_range(1..=1000u32))
            .collect(),
        _ => Vec::new(),
    };
    let intercept = rng.gen_range(0.5..30.0);
    let slope = if rng.gen_bool(0.2) {
        -rng.gen_range(0.0..0.05)
    } else {
        rng.gen_range(0.0..0.2)
    };
    (0..count)
        .map(|_| {
            let batch = if sizes.is_empty() {
                rng.gen_range(1..=1000u32)
            } else {
                sizes[rng.gen_range(0..sizes.len())]
            };
            let line = intercept + slope * batch as f64;
            let ms = (line * rng.gen_range(0.8..1.2)).max(0.01);
            (batch, ms)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn predictions_match_the_reference_bit_for_bit(
        seed in 0u64..u64::MAX,
        shape in 0u64..4,
        count in 1usize..200,
        with_prior in 0u64..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let prior = (with_prior == 1)
            .then(|| LatencyProfile::new(rng.gen_range(0.5..5.0), rng.gen_range(0.001..0.1)));
        let mut predictor = prior.map_or_else(OnlinePredictor::new, OnlinePredictor::with_prior);
        let mut reference = ReferencePredictor::new(prior);
        for (batch, ms) in observations(&mut rng, shape, count) {
            predictor.observe(batch, ms);
            reference.observe(batch, ms);
        }

        prop_assert_eq!(predictor.distinct_batches(), reference.distinct_batches());
        prop_assert_eq!(predictor.has_fit(), reference.has_fit());
        prop_assert_eq!(fit_bits(predictor.linear_fit()), fit_bits(reference.linear_fit()));
        let resolved = predictor.resolve();
        for batch in 1..=1000u32 {
            let expected = reference.predict(batch).to_bits();
            prop_assert!(
                predictor.predict(batch).to_bits() == expected,
                "predict({batch}) differs"
            );
            prop_assert!(
                resolved.predict(batch).to_bits() == expected,
                "resolved predict({batch}) differs"
            );
        }
    }
}
