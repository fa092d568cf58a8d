//! Query batch-size distributions.
//!
//! The paper's evaluation is driven by the production trace of query batch
//! sizes from Meta's recommendation services \[17\], which is heavily skewed
//! towards small batches; the robustness experiments additionally use
//! Gaussian batch sizes (Fig. 16a) and a log-normal → Gaussian shift
//! (Fig. 12).  Since the production trace is not redistributable, this module
//! provides parametric generators whose shapes cover the same regimes, plus
//! an empirical distribution backed by an explicit sample list.
//!
//! All samplers clamp to `[1, max_batch]` — the paper caps queries at 1000
//! requests (Sec. 5.1).

use kairos_models::MAX_BATCH_SIZE;
use rand::Rng;
use rand_distr::{Distribution, LogNormal, Normal};

/// A parametric (or empirical) distribution over query batch sizes.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchSizeDistribution {
    /// Log-normal distribution parameterized by its *median* and the sigma of
    /// the underlying normal.  This is the default "production-like" mix:
    /// most queries are small, with a heavy tail of large batches.
    LogNormal {
        /// Median batch size (i.e. `exp(mu)` of the underlying normal).
        median: f64,
        /// Standard deviation of the underlying normal distribution.
        sigma: f64,
    },
    /// Gaussian batch sizes (Fig. 16a / Fig. 12 after the shift).
    Gaussian {
        /// Mean batch size.
        mean: f64,
        /// Standard deviation of the batch size.
        std_dev: f64,
    },
    /// Uniform batch sizes over an inclusive range.
    Uniform {
        /// Smallest batch size.
        min: u32,
        /// Largest batch size.
        max: u32,
    },
    /// Every query has the same batch size (useful in unit tests).
    Fixed(u32),
    /// Empirical distribution: sample uniformly from an explicit list (e.g. a
    /// recorded trace of batch sizes).
    Empirical(Vec<u32>),
}

impl BatchSizeDistribution {
    /// The default production-like mix used throughout the evaluation: median
    /// 120 requests, sigma 1.0, which puts ~85 % of queries below batch 330
    /// while still producing occasional near-cap queries.
    pub fn production_default() -> Self {
        BatchSizeDistribution::LogNormal {
            median: 120.0,
            sigma: 1.0,
        }
    }

    /// The Gaussian mix used by the robustness experiments (Fig. 16a).
    pub fn gaussian_default() -> Self {
        BatchSizeDistribution::Gaussian {
            mean: 250.0,
            std_dev: 120.0,
        }
    }

    /// Draws one batch size, clamped to `[1, MAX_BATCH_SIZE]`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.sample_with_cap(rng, MAX_BATCH_SIZE)
    }

    /// Draws one batch size, clamped to `[1, cap]`.
    pub fn sample_with_cap<R: Rng + ?Sized>(&self, rng: &mut R, cap: u32) -> u32 {
        assert!(cap >= 1, "cap must be at least 1");
        let raw = match self {
            BatchSizeDistribution::LogNormal { median, sigma } => {
                assert!(
                    *median > 0.0 && *sigma > 0.0,
                    "log-normal parameters must be positive"
                );
                let dist = LogNormal::new(median.ln(), *sigma).expect("valid log-normal");
                dist.sample(rng)
            }
            BatchSizeDistribution::Gaussian { mean, std_dev } => {
                assert!(*std_dev > 0.0, "standard deviation must be positive");
                let dist = Normal::new(*mean, *std_dev).expect("valid normal");
                dist.sample(rng)
            }
            BatchSizeDistribution::Uniform { min, max } => {
                assert!(min <= max, "uniform range must be non-empty");
                return (rng.gen_range(*min..=*max)).clamp(1, cap);
            }
            BatchSizeDistribution::Fixed(b) => return (*b).clamp(1, cap),
            BatchSizeDistribution::Empirical(samples) => {
                assert!(!samples.is_empty(), "empirical distribution needs samples");
                let idx = rng.gen_range(0..samples.len());
                return samples[idx].clamp(1, cap);
            }
        };
        (raw.round().max(1.0) as u32).clamp(1, cap)
    }

    /// Draws `n` batch sizes.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Monte-Carlo estimate of the fraction of queries whose batch size is at
    /// most `threshold` (the `f` parameter of the upper-bound analysis,
    /// paper Fig. 6).  Kairos itself estimates this online from a query
    /// monitor window; this helper is used by tests and the oracle baseline.
    pub fn fraction_at_most<R: Rng + ?Sized>(
        &self,
        threshold: u32,
        rng: &mut R,
        samples: usize,
    ) -> f64 {
        assert!(samples > 0, "need at least one sample");
        let below = (0..samples)
            .filter(|_| self.sample(rng) <= threshold)
            .count();
        below as f64 / samples as f64
    }

    /// Monte-Carlo estimate of the `q`-th batch-size quantile
    /// (`0.0 <= q <= 1.0`), the inverse of [`Self::fraction_at_most`]:
    /// the smallest drawn batch size with at least a `q` fraction of the
    /// sample at or below it.  Useful for sizing a dynamic batcher's fuse
    /// cap against the offered mix (e.g. its p90) instead of guessing.
    pub fn quantile<R: Rng + ?Sized>(&self, q: f64, rng: &mut R, samples: usize) -> u32 {
        assert!(samples > 0, "need at least one sample");
        assert!(
            (0.0..=1.0).contains(&q) && q.is_finite(),
            "quantile must lie in [0, 1], got {q}"
        );
        let mut drawn = self.sample_many(rng, samples);
        drawn.sort_unstable();
        // ceil(q * n) draws fall at or below the answer; the index clamps
        // so q = 0 is the minimum and q = 1 the maximum.
        let rank = (q * samples as f64).ceil() as usize;
        drawn[rank.saturating_sub(1).min(samples - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_are_within_cap() {
        let mut rng = StdRng::seed_from_u64(7);
        for dist in [
            BatchSizeDistribution::production_default(),
            BatchSizeDistribution::gaussian_default(),
            BatchSizeDistribution::Uniform { min: 1, max: 5000 },
            BatchSizeDistribution::Fixed(4000),
            BatchSizeDistribution::Empirical(vec![1, 10, 2000]),
        ] {
            for _ in 0..500 {
                let b = dist.sample(&mut rng);
                assert!((1..=MAX_BATCH_SIZE).contains(&b), "{dist:?} produced {b}");
            }
        }
    }

    #[test]
    fn lognormal_median_is_approximately_right() {
        let mut rng = StdRng::seed_from_u64(11);
        let dist = BatchSizeDistribution::LogNormal {
            median: 120.0,
            sigma: 1.0,
        };
        let mut samples = dist.sample_many(&mut rng, 20_000);
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64;
        assert!((median - 120.0).abs() < 15.0, "median {median}");
    }

    #[test]
    fn production_mix_is_small_query_heavy() {
        let mut rng = StdRng::seed_from_u64(3);
        let dist = BatchSizeDistribution::production_default();
        let f = dist.fraction_at_most(330, &mut rng, 20_000);
        assert!(f > 0.75, "expected most queries below 330, got {f}");
        let tail = 1.0 - dist.fraction_at_most(800, &mut rng, 20_000);
        assert!(
            tail > 0.005,
            "expected a non-trivial large-batch tail, got {tail}"
        );
    }

    #[test]
    fn gaussian_mean_is_approximately_right() {
        let mut rng = StdRng::seed_from_u64(5);
        let dist = BatchSizeDistribution::Gaussian {
            mean: 250.0,
            std_dev: 50.0,
        };
        let samples = dist.sample_many(&mut rng, 10_000);
        let mean: f64 = samples.iter().map(|&b| b as f64).sum::<f64>() / samples.len() as f64;
        assert!((mean - 250.0).abs() < 10.0, "mean {mean}");
    }

    #[test]
    fn fixed_distribution_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let dist = BatchSizeDistribution::Fixed(64);
        assert!(dist.sample_many(&mut rng, 100).iter().all(|&b| b == 64));
    }

    #[test]
    fn empirical_only_emits_listed_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let dist = BatchSizeDistribution::Empirical(vec![5, 50, 500]);
        for _ in 0..200 {
            let b = dist.sample(&mut rng);
            assert!([5, 50, 500].contains(&b));
        }
    }

    #[test]
    fn quantile_inverts_fraction_at_most() {
        let mut rng = StdRng::seed_from_u64(13);
        let dist = BatchSizeDistribution::production_default();
        // The log-normal median is the 50 % point by construction.
        let p50 = dist.quantile(0.5, &mut rng, 20_000);
        assert!((p50 as f64 - 120.0).abs() < 15.0, "p50 {p50}");
        // Quantiles are monotone in q and bounded by the sample extremes.
        let p10 = dist.quantile(0.1, &mut rng, 20_000);
        let p90 = dist.quantile(0.9, &mut rng, 20_000);
        assert!(p10 < p50 && p50 < p90, "{p10} / {p50} / {p90}");
        // Round trip: the mass at or below the p90 estimate is ~0.9.
        let f = dist.fraction_at_most(p90, &mut rng, 20_000);
        assert!((f - 0.9).abs() < 0.02, "fraction at p90 was {f}");
        // Degenerate mixes collapse every quantile to the single value.
        let fixed = BatchSizeDistribution::Fixed(64);
        assert_eq!(fixed.quantile(0.0, &mut rng, 100), 64);
        assert_eq!(fixed.quantile(1.0, &mut rng, 100), 64);
    }
}
