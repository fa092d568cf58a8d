//! Multi-model query mixes.
//!
//! Production inference clusters rarely serve one model: the paper's five
//! models (NCF at 5 ms through RM2 at 350 ms, Table 3) would in practice
//! share one fleet, each contributing a *share* of the arriving query stream
//! with its own batch-size composition.  A [`MixSpec`] describes such a mix —
//! per-model rate share plus per-model batch distribution — and is the
//! multi-model generalization of a bare
//! [`BatchSizeDistribution`]: a single-entry
//! mix samples *exactly* like the wrapped distribution (same RNG draw
//! sequence), so every single-model trace remains bit-identical to the
//! pre-multi-model code paths.
//!
//! [`MixedTraceSpec`] couples a mix with an arrival process into a
//! reproducible stationary multi-model trace, mirroring
//! [`TraceSpec`](crate::TraceSpec) for the single-model case.

use crate::arrival::ArrivalProcess;
use crate::batch::BatchSizeDistribution;
use crate::query::{ModelId, Query, TimeUs};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One model's contribution to a query mix.
#[derive(Debug, Clone, PartialEq)]
pub struct MixComponent {
    /// The model these queries target.
    pub model: ModelId,
    /// Relative rate share of the model (normalized over the mix).
    pub share: f64,
    /// Batch-size composition of this model's queries.
    pub batch_sizes: BatchSizeDistribution,
}

/// A per-model query mix: rate shares plus batch distributions.
///
/// Mixes scale to thousands of components: construction sorts model ids
/// once for the duplicate check (instead of the quadratic pairwise scan)
/// and precomputes a cumulative-share table, so [`MixSpec::sample`] is one
/// binary search rather than a linear walk over every component.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSpec {
    components: Vec<MixComponent>,
    /// Prefix sums of the component shares, in declaration order:
    /// `cumulative_shares[i]` is the sum of shares `0..=i`.  Sampling binary
    /// searches this table, which picks exactly the component the legacy
    /// linear subtraction scan picked for the same RNG draw.
    cumulative_shares: Vec<f64>,
}

impl MixSpec {
    /// Builds a mix from explicit components.
    ///
    /// # Panics
    /// Panics if `components` is empty, any share is non-positive, or two
    /// components target the same model.
    pub fn new(components: Vec<MixComponent>) -> Self {
        assert!(!components.is_empty(), "a mix needs at least one model");
        assert!(
            components.iter().all(|c| c.share > 0.0),
            "mix shares must be positive"
        );
        // Sort-based duplicate check: O(n log n) over the model indices, so
        // a several-thousand-entry mix constructs instantly.
        let mut ids: Vec<usize> = components.iter().map(|c| c.model.index()).collect();
        ids.sort_unstable();
        if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
            panic!("duplicate model {} in mix", ModelId::new(dup[0]));
        }
        let mut acc = 0.0;
        let cumulative_shares = components
            .iter()
            .map(|c| {
                acc += c.share;
                acc
            })
            .collect();
        Self {
            components,
            cumulative_shares,
        }
    }

    /// A single-model mix: the thin wrapper the single-model constructors
    /// reduce to.  Sampling it consumes exactly the RNG draws of sampling
    /// `batch_sizes` directly.
    pub fn single(model: ModelId, batch_sizes: BatchSizeDistribution) -> Self {
        Self::new(vec![MixComponent {
            model,
            share: 1.0,
            batch_sizes,
        }])
    }

    /// A mix over models `0..shares.len()` with one batch distribution per
    /// model, ids assigned in slice order.
    ///
    /// # Panics
    /// Panics on empty input or mismatched lengths.
    pub fn from_shares(shares: &[f64], batch_sizes: &[BatchSizeDistribution]) -> Self {
        assert_eq!(
            shares.len(),
            batch_sizes.len(),
            "one batch distribution per share"
        );
        Self::new(
            shares
                .iter()
                .zip(batch_sizes)
                .enumerate()
                .map(|(i, (&share, dist))| MixComponent {
                    model: ModelId::new(i),
                    share,
                    batch_sizes: dist.clone(),
                })
                .collect(),
        )
    }

    /// The mix components, in declaration order.
    pub fn components(&self) -> &[MixComponent] {
        &self.components
    }

    /// Number of models in the mix.
    pub fn num_models(&self) -> usize {
        self.components.len()
    }

    /// Total (unnormalized) share mass of the mix.
    fn total_share(&self) -> f64 {
        *self
            .cumulative_shares
            .last()
            .expect("a mix has at least one component")
    }

    /// Draws one query's `(model, batch size)`.  Single-entry mixes skip the
    /// model draw entirely, preserving the single-model RNG stream.
    ///
    /// Multi-entry mixes consume one uniform draw and binary search the
    /// cumulative-share table — O(log n) per query.  The search lands on the
    /// first component whose cumulative share exceeds the drawn point, which
    /// is exactly the component the old linear subtraction scan selected, so
    /// every existing trace regenerates bit-identically.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (ModelId, u32) {
        let component = if self.components.len() == 1 {
            &self.components[0]
        } else {
            let point = rng.gen::<f64>() * self.total_share();
            let index = self
                .cumulative_shares
                .partition_point(|&cum| cum <= point)
                .min(self.components.len() - 1);
            &self.components[index]
        };
        (component.model, component.batch_sizes.sample(rng))
    }
}

/// Specification of a stationary multi-model trace: one arrival process
/// whose queries are tagged and batched according to a [`MixSpec`].  The
/// multi-model sibling of [`TraceSpec`](crate::TraceSpec).
#[derive(Debug, Clone, PartialEq)]
pub struct MixedTraceSpec {
    /// Arrival process of the combined query stream.
    pub arrival: ArrivalProcess,
    /// Per-model composition of the stream.
    pub mix: MixSpec,
    /// Duration of the trace in virtual seconds.
    pub duration_s: f64,
    /// RNG seed so traces are reproducible.
    pub seed: u64,
}

impl MixedTraceSpec {
    /// Poisson arrivals at `rate_qps` with the given mix.
    pub fn poisson(rate_qps: f64, mix: MixSpec, duration_s: f64, seed: u64) -> Self {
        Self {
            arrival: ArrivalProcess::Poisson { rate_qps },
            mix,
            duration_s,
            seed,
        }
    }

    /// Generates the trace described by this specification.
    ///
    /// # Panics
    /// Panics if the duration is non-positive.
    pub fn generate(&self) -> Trace {
        assert!(self.duration_s > 0.0, "duration must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let horizon_us = (self.duration_s * 1e6) as TimeUs;
        let mut queries = Vec::new();
        let mut t: TimeUs = 0;
        let mut id = 0u64;
        loop {
            t += self.arrival.next_gap_us(&mut rng);
            if t > horizon_us {
                break;
            }
            let (model, batch) = self.mix.sample(&mut rng);
            queries.push(Query::for_model(id, model, batch, t));
            id += 1;
            // Bursts would loop forever (gap 0); cap them at a generous size.
            if matches!(self.arrival, ArrivalProcess::Burst) && queries.len() >= 10_000 {
                break;
            }
        }
        Trace {
            spec: None,
            queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSpec;

    fn three_way() -> MixSpec {
        MixSpec::from_shares(
            &[0.5, 0.2, 0.3],
            &[
                BatchSizeDistribution::production_default(),
                BatchSizeDistribution::gaussian_default(),
                BatchSizeDistribution::Fixed(64),
            ],
        )
    }

    #[test]
    fn shares_normalize_and_sampling_respects_them() {
        let mix = three_way();
        assert_eq!(mix.num_models(), 3);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            let (model, batch) = mix.sample(&mut rng);
            counts[model.index()] += 1;
            assert!(batch >= 1);
        }
        let f0 = counts[0] as f64 / 30_000.0;
        let f1 = counts[1] as f64 / 30_000.0;
        assert!((f0 - 0.5).abs() < 0.02, "share 0 observed {f0}");
        assert!((f1 - 0.2).abs() < 0.02, "share 1 observed {f1}");
    }

    #[test]
    fn single_entry_mix_preserves_the_single_model_rng_stream() {
        // A single-entry mix must consume the same draws as the wrapped
        // distribution, so single-model traces stay bit-identical.
        let dist = BatchSizeDistribution::production_default();
        let mix = MixSpec::single(ModelId::DEFAULT, dist.clone());
        let mut a = StdRng::seed_from_u64(77);
        let mut b = StdRng::seed_from_u64(77);
        for _ in 0..200 {
            let (model, batch) = mix.sample(&mut a);
            assert_eq!(model, ModelId::DEFAULT);
            assert_eq!(batch, dist.sample(&mut b));
        }
    }

    #[test]
    fn single_model_mixed_trace_equals_trace_spec() {
        let spec = TraceSpec::production(150.0, 2.0, 9);
        let mixed = MixedTraceSpec::poisson(
            150.0,
            MixSpec::single(
                ModelId::DEFAULT,
                BatchSizeDistribution::production_default(),
            ),
            2.0,
            9,
        );
        assert_eq!(spec.generate().queries, mixed.generate().queries);
    }

    #[test]
    fn generated_queries_carry_their_model_tags() {
        let trace = MixedTraceSpec::poisson(300.0, three_way(), 2.0, 3).generate();
        assert!(!trace.is_empty());
        let mut seen = [false; 3];
        for q in &trace.queries {
            seen[q.model.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "all three models must appear");
        // Deterministic per seed.
        let again = MixedTraceSpec::poisson(300.0, three_way(), 2.0, 3).generate();
        assert_eq!(trace, again);
    }

    #[test]
    fn sharded_generation_projects_the_single_rng_stream() {
        let spec = MixedTraceSpec::poisson(300.0, three_way(), 2.0, 3);
        let combined = spec.generate();
        let shards = combined.split_by_model(3);
        assert_eq!(shards.len(), 3);
        for (m, shard) in shards.iter().enumerate() {
            assert!(shard.queries.iter().all(|q| q.model.index() == m));
        }
        let union: Vec<Query> = shards.iter().flat_map(|s| s.queries.clone()).collect();
        assert_eq!(Trace::from_queries(union).queries, combined.queries);
    }

    #[test]
    fn binary_search_sampling_matches_the_linear_scan() {
        // The cumulative-table binary search must pick exactly the component
        // the legacy linear subtraction scan picked for the same draw.
        fn linear_pick(components: &[MixComponent], u: f64) -> ModelId {
            let total: f64 = components.iter().map(|c| c.share).sum();
            let mut point = u * total;
            let mut picked = &components[components.len() - 1];
            for c in components {
                if point < c.share {
                    picked = c;
                    break;
                }
                point -= c.share;
            }
            picked.model
        }
        let mut rng = StdRng::seed_from_u64(12345);
        let shares: Vec<f64> = (0..2_000).map(|_| rng.gen::<f64>() + 1e-3).collect();
        let dists: Vec<BatchSizeDistribution> = shares
            .iter()
            .map(|_| BatchSizeDistribution::Fixed(1))
            .collect();
        let mix = MixSpec::from_shares(&shares, &dists);
        for _ in 0..20_000 {
            // Quantize the draw exactly as the standard f64 distribution
            // does ((bits >> 11) / 2^53), so both algorithms see the same u.
            let bits = (rng.gen::<f64>() * (1u64 << 53) as f64) as u64;
            let u = bits as f64 * (1.0 / (1u64 << 53) as f64);
            let mut probe = Replay(bits << 11);
            let (model, _) = mix.sample(&mut probe);
            assert_eq!(model, linear_pick(mix.components(), u));
        }
    }

    /// An `Rng` whose every draw is one fixed `u64` — enough to replay a
    /// single model pick through both selection algorithms.
    struct Replay(u64);
    impl rand::RngCore for Replay {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn thousands_of_components_construct_and_sample_fast() {
        let shares: Vec<f64> = (0..4_000).map(|i| 1.0 + (i % 7) as f64).collect();
        let dists: Vec<BatchSizeDistribution> = (0..4_000)
            .map(|i| BatchSizeDistribution::Fixed(1 + (i % 32) as u32))
            .collect();
        let mix = MixSpec::from_shares(&shares, &dists);
        assert_eq!(mix.num_models(), 4_000);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10_000 {
            let (model, batch) = mix.sample(&mut rng);
            assert!(model.index() < 4_000);
            assert_eq!(batch, 1 + (model.index() % 32) as u32);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate model")]
    fn duplicate_models_rejected() {
        MixSpec::new(vec![
            MixComponent {
                model: ModelId::DEFAULT,
                share: 1.0,
                batch_sizes: BatchSizeDistribution::Fixed(1),
            },
            MixComponent {
                model: ModelId::DEFAULT,
                share: 1.0,
                batch_sizes: BatchSizeDistribution::Fixed(2),
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn empty_mix_rejected() {
        MixSpec::new(vec![]);
    }
}
