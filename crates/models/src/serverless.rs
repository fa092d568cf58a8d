//! Serverless container economics: cold-start profiles and keep-alive
//! policies.
//!
//! Kairos' baseline billing model rents every instance from provisioning
//! until retirement, so a replica serving a low-QPS model burns money while
//! idle and the system can never scale a lane to zero.  The serverless lane
//! flips that: an instance idle past its *keep-alive* deadline is **parked**
//! (the container is torn down and billing stops), and the next dispatch to
//! a parked container pays a *cold start* — container init plus model load —
//! before service begins.  This module is the vocabulary of that trade-off:
//!
//! * a [`ColdStartProfile`] prices the cold start per instance type (a GPU
//!   box loads a model far slower than it serves a query);
//! * a [`KeepAlivePolicy`] decides how long an idle container survives:
//!   [`Fixed`](KeepAlivePolicy::Fixed) keeps it warm for a constant window,
//!   while [`Hybrid`](KeepAlivePolicy::Hybrid) keeps a histogram of the
//!   idle gaps that *ended in reuse* and parks at a percentile of that
//!   distribution — the histogram-of-idle-times policy of dslab-faas'
//!   `coldstart.rs`, which adapts the window per workload instead of
//!   guessing one constant for hot and sparse lanes alike;
//! * an [`IdleHistogram`] is the observation state the hybrid policy reads.
//!
//! Like the fault and market processes, everything here is plain validated
//! data: policies carry no clock and no RNG, so a replay under the same
//! policy is reproducible bit-for-bit.

use std::fmt;

/// Microseconds of virtual time (mirrors `kairos_workload::TimeUs`).
pub type ServerlessTimeUs = u64;

/// Cost of materializing one cold container on an instance type: the
/// container/runtime init plus loading the model replica into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdStartCost {
    /// Container and runtime initialization, in µs of virtual time.
    pub container_init_us: ServerlessTimeUs,
    /// Loading the model replica into the container, in µs.
    pub model_load_us: ServerlessTimeUs,
}

impl ColdStartCost {
    /// A cold-start cost from its two phases.
    pub fn new(container_init_us: ServerlessTimeUs, model_load_us: ServerlessTimeUs) -> Self {
        Self {
            container_init_us,
            model_load_us,
        }
    }

    /// Total latency a dispatch to a parked container pays before service.
    pub fn total_us(&self) -> ServerlessTimeUs {
        self.container_init_us + self.model_load_us
    }
}

/// Per-instance-type cold-start pricing: either one uniform
/// [`ColdStartCost`] for every type, or exactly one per pool type (in pool
/// order) — the same one-or-one-per-type shape as the sharing degradation
/// curves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdStartProfile {
    costs: Vec<ColdStartCost>,
}

impl ColdStartProfile {
    /// One cold-start cost applied to every instance type.
    pub fn uniform(cost: ColdStartCost) -> Self {
        Self { costs: vec![cost] }
    }

    /// One cold-start cost per pool type, in pool order.
    ///
    /// # Panics
    /// Panics if `costs` is empty.
    pub fn per_type(costs: Vec<ColdStartCost>) -> Self {
        assert!(
            !costs.is_empty(),
            "a cold-start profile needs at least one cost entry"
        );
        Self { costs }
    }

    /// Number of cost entries (1 for a uniform profile).
    pub fn num_entries(&self) -> usize {
        self.costs.len()
    }

    /// The cold-start cost of instance type `type_index` (uniform profiles
    /// answer for every index).
    ///
    /// # Panics
    /// Panics if the profile is per-type and `type_index` is out of range.
    pub fn cost(&self, type_index: usize) -> ColdStartCost {
        if self.costs.len() == 1 {
            self.costs[0]
        } else {
            self.costs[type_index]
        }
    }
}

/// A typed validation error from the [`KeepAlivePolicy`] constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerlessError {
    /// A fixed keep-alive window of zero would park a container the instant
    /// it goes idle *and* the instant it is created — degenerate thrashing.
    ZeroKeepAlive,
    /// A hybrid policy's histogram had no buckets.
    NoBuckets,
    /// A hybrid policy's histogram bucket width was zero.
    ZeroBucketWidth,
    /// A hybrid policy's percentile was outside `(0, 1]` or not finite.
    InvalidPercentile {
        /// The offending percentile.
        percentile: f64,
    },
}

impl fmt::Display for ServerlessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerlessError::ZeroKeepAlive => {
                write!(f, "fixed keep-alive window must be positive")
            }
            ServerlessError::NoBuckets => {
                write!(f, "hybrid keep-alive histogram needs at least one bucket")
            }
            ServerlessError::ZeroBucketWidth => {
                write!(f, "hybrid keep-alive bucket width must be positive")
            }
            ServerlessError::InvalidPercentile { percentile } => {
                write!(
                    f,
                    "hybrid keep-alive percentile must lie in (0, 1], got {percentile}"
                )
            }
        }
    }
}

impl std::error::Error for ServerlessError {}

/// How long an idle container survives before it is parked.
///
/// Built through the validating constructors [`KeepAlivePolicy::fixed`] and
/// [`KeepAlivePolicy::hybrid`]; the fields are public so policies remain
/// plain inspectable data, but hand-built degenerate values (zero windows,
/// percentiles outside `(0, 1]`) are rejected at construction.
#[derive(Debug, Clone, PartialEq)]
pub enum KeepAlivePolicy {
    /// Park after a constant idle window.
    Fixed {
        /// Idle time after which the container is parked, in µs (positive).
        idle_us: ServerlessTimeUs,
    },
    /// Park at a percentile of the observed idle-gap distribution: the
    /// engine records every idle gap that ended in a reuse into an
    /// [`IdleHistogram`], and the keep-alive window is the smallest bucket
    /// boundary covering `percentile` of those observations.  Until the
    /// histogram has observations the window defaults to the histogram's
    /// full span (`bucket_width_us × num_buckets`) — keep warm while
    /// learning, then tighten.
    Hybrid {
        /// Width of one histogram bucket, in µs (positive).
        bucket_width_us: ServerlessTimeUs,
        /// Number of histogram buckets (positive); gaps beyond the span
        /// land in the last bucket.
        num_buckets: usize,
        /// Fraction of observed idle gaps the window must cover, in
        /// `(0, 1]`.
        percentile: f64,
    },
}

impl KeepAlivePolicy {
    /// A validated fixed keep-alive window.
    pub fn fixed(idle_us: ServerlessTimeUs) -> Result<Self, ServerlessError> {
        if idle_us == 0 {
            return Err(ServerlessError::ZeroKeepAlive);
        }
        Ok(Self::Fixed { idle_us })
    }

    /// A validated hybrid (histogram-of-idle-times) policy.
    pub fn hybrid(
        bucket_width_us: ServerlessTimeUs,
        num_buckets: usize,
        percentile: f64,
    ) -> Result<Self, ServerlessError> {
        if num_buckets == 0 {
            return Err(ServerlessError::NoBuckets);
        }
        if bucket_width_us == 0 {
            return Err(ServerlessError::ZeroBucketWidth);
        }
        if !(percentile.is_finite() && percentile > 0.0 && percentile <= 1.0) {
            return Err(ServerlessError::InvalidPercentile { percentile });
        }
        Ok(Self::Hybrid {
            bucket_width_us,
            num_buckets,
            percentile,
        })
    }

    /// The observation state this policy reads: a sized histogram for
    /// hybrid policies, an empty placeholder for fixed ones.
    pub fn histogram(&self) -> IdleHistogram {
        match self {
            Self::Fixed { .. } => IdleHistogram::new(1, 1),
            Self::Hybrid {
                bucket_width_us,
                num_buckets,
                ..
            } => IdleHistogram::new(*bucket_width_us, *num_buckets),
        }
    }

    /// The keep-alive window to grant an idle container now, given the
    /// observations so far.
    pub fn keep_alive_us(&self, observed: &IdleHistogram) -> ServerlessTimeUs {
        match self {
            Self::Fixed { idle_us } => *idle_us,
            Self::Hybrid { percentile, .. } => observed
                .percentile_us(*percentile)
                .unwrap_or_else(|| observed.span_us()),
        }
    }

    /// A deterministic fingerprint of the policy's parameters (FNV-1a), for
    /// folding the policy into plan-cache knowledge signatures: two policies
    /// fingerprint equal iff their parameters are equal.
    pub fn signature_bits(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut mix = |value: u64| {
            hash ^= value;
            hash = hash.wrapping_mul(FNV_PRIME);
        };
        match self {
            Self::Fixed { idle_us } => {
                mix(1);
                mix(*idle_us);
            }
            Self::Hybrid {
                bucket_width_us,
                num_buckets,
                percentile,
            } => {
                mix(2);
                mix(*bucket_width_us);
                mix(*num_buckets as u64);
                mix(percentile.to_bits());
            }
        }
        hash
    }
}

/// Histogram of idle gaps that ended in a container reuse — the observation
/// state behind [`KeepAlivePolicy::Hybrid`].  Gap `g` lands in bucket
/// `min(g / bucket_width_us, num_buckets - 1)`; the percentile query answers
/// the upper edge of the first bucket whose cumulative count covers the
/// requested fraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleHistogram {
    bucket_width_us: ServerlessTimeUs,
    counts: Vec<u64>,
    total: u64,
}

impl IdleHistogram {
    /// An empty histogram of `num_buckets` buckets, each `bucket_width_us`
    /// wide.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(bucket_width_us: ServerlessTimeUs, num_buckets: usize) -> Self {
        assert!(bucket_width_us > 0, "bucket width must be positive");
        assert!(num_buckets > 0, "need at least one bucket");
        Self {
            bucket_width_us,
            counts: vec![0; num_buckets],
            total: 0,
        }
    }

    /// Records one observed idle gap (µs).  Gaps beyond the span land in
    /// the last bucket.
    pub fn record(&mut self, idle_us: ServerlessTimeUs) {
        let bucket = ((idle_us / self.bucket_width_us) as usize).min(self.counts.len() - 1);
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// Number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The histogram's full span in µs (`bucket_width × buckets`) — the
    /// keep-warm-while-learning default of the hybrid policy.
    pub fn span_us(&self) -> ServerlessTimeUs {
        self.bucket_width_us * self.counts.len() as ServerlessTimeUs
    }

    /// The upper edge of the first bucket whose cumulative count reaches
    /// `percentile` of all observations, or `None` when nothing has been
    /// recorded yet.
    pub fn percentile_us(&self, percentile: f64) -> Option<ServerlessTimeUs> {
        if self.total == 0 {
            return None;
        }
        let needed = (percentile * self.total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= needed {
                return Some(self.bucket_width_us * (bucket as ServerlessTimeUs + 1));
            }
        }
        Some(self.span_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_profile_uniform_answers_for_every_type() {
        let profile = ColdStartProfile::uniform(ColdStartCost::new(150_000, 350_000));
        assert_eq!(profile.num_entries(), 1);
        assert_eq!(profile.cost(0).total_us(), 500_000);
        assert_eq!(profile.cost(7).total_us(), 500_000);
        let per_type = ColdStartProfile::per_type(vec![
            ColdStartCost::new(100_000, 200_000),
            ColdStartCost::new(50_000, 100_000),
        ]);
        assert_eq!(per_type.cost(1).total_us(), 150_000);
    }

    #[test]
    #[should_panic(expected = "at least one cost entry")]
    fn empty_cold_start_profile_rejected() {
        ColdStartProfile::per_type(vec![]);
    }

    #[test]
    fn keep_alive_constructors_validate() {
        assert_eq!(
            KeepAlivePolicy::fixed(0).unwrap_err(),
            ServerlessError::ZeroKeepAlive
        );
        assert!(KeepAlivePolicy::fixed(10_000_000).is_ok());
        assert_eq!(
            KeepAlivePolicy::hybrid(1_000_000, 0, 0.9).unwrap_err(),
            ServerlessError::NoBuckets
        );
        assert_eq!(
            KeepAlivePolicy::hybrid(0, 10, 0.9).unwrap_err(),
            ServerlessError::ZeroBucketWidth
        );
        assert_eq!(
            KeepAlivePolicy::hybrid(1_000_000, 10, 1.5).unwrap_err(),
            ServerlessError::InvalidPercentile { percentile: 1.5 }
        );
        assert_eq!(
            KeepAlivePolicy::hybrid(1_000_000, 10, 0.0).unwrap_err(),
            ServerlessError::InvalidPercentile { percentile: 0.0 }
        );
        assert!(KeepAlivePolicy::hybrid(1_000_000, 10, 1.0).is_ok());
        // Errors format.
        assert!(ServerlessError::ZeroKeepAlive.to_string().contains("fixed"));
    }

    #[test]
    fn fixed_policy_window_is_constant() {
        let policy = KeepAlivePolicy::fixed(10_000_000).unwrap();
        let mut hist = policy.histogram();
        assert_eq!(policy.keep_alive_us(&hist), 10_000_000);
        hist.record(123);
        assert_eq!(policy.keep_alive_us(&hist), 10_000_000);
    }

    #[test]
    fn hybrid_policy_learns_the_idle_gap_percentile() {
        let policy = KeepAlivePolicy::hybrid(1_000_000, 60, 0.9).unwrap();
        let mut hist = policy.histogram();
        // No observations yet: keep warm for the whole span.
        assert_eq!(policy.keep_alive_us(&hist), 60_000_000);
        // Ten gaps of ~2 s, one of ~30 s: the 90th percentile sits at the
        // 2-3 s bucket edge.
        for _ in 0..10 {
            hist.record(2_100_000);
        }
        hist.record(30_500_000);
        assert_eq!(hist.total(), 11);
        assert_eq!(policy.keep_alive_us(&hist), 3_000_000);
        // Covering everything reaches the long gap's bucket edge.
        assert_eq!(hist.percentile_us(1.0), Some(31_000_000));
    }

    #[test]
    fn histogram_clamps_overflow_gaps_to_the_last_bucket() {
        let mut hist = IdleHistogram::new(1_000, 4);
        hist.record(1_000_000); // far beyond the 4 ms span
        assert_eq!(hist.percentile_us(1.0), Some(4_000));
        assert_eq!(hist.span_us(), 4_000);
    }

    #[test]
    fn signature_bits_distinguish_policies() {
        let a = KeepAlivePolicy::fixed(10_000_000).unwrap();
        let b = KeepAlivePolicy::fixed(60_000_000).unwrap();
        let c = KeepAlivePolicy::hybrid(1_000_000, 60, 0.9).unwrap();
        let d = KeepAlivePolicy::hybrid(1_000_000, 60, 0.95).unwrap();
        let bits = [
            a.signature_bits(),
            b.signature_bits(),
            c.signature_bits(),
            d.signature_bits(),
        ];
        for i in 0..bits.len() {
            for j in i + 1..bits.len() {
                assert_ne!(bits[i], bits[j], "policies {i} and {j} collide");
            }
        }
        assert_eq!(
            a.signature_bits(),
            KeepAlivePolicy::fixed(10_000_000).unwrap().signature_bits()
        );
    }
}
