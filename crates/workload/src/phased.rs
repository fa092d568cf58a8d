//! Multi-phase workloads: arrival processes whose rate and batch mix change
//! over time.
//!
//! The single-phase [`TraceSpec`](crate::trace::TraceSpec) replays a
//! stationary workload; real serving systems face *load shifts* — step
//! changes in rate, short bursts, diurnal ramps, and drifting batch mixes
//! (paper Sec. 6, Fig. 12).  A [`PhasedArrival`] composes per-phase arrival
//! processes and batch-size distributions into one trace with
//! **deterministic phase boundaries**: phase `k` starts exactly at the sum of
//! the preceding phase durations, regardless of the random arrival draws
//! inside each phase, so experiments can measure behaviour "at the boundary"
//! reproducibly.

use crate::arrival::ArrivalProcess;
use crate::batch::BatchSizeDistribution;
use crate::mix::MixSpec;
use crate::query::{ModelId, Query, TimeUs};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One stationary segment of a phased workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Duration of the phase in virtual seconds.
    pub duration_s: f64,
    /// Arrival process active during the phase.
    pub arrival: ArrivalProcess,
    /// Per-model composition of queries arriving during the phase.  Single
    /// model workloads use a single-entry mix, which samples with exactly the
    /// RNG draws of the bare batch distribution it wraps.
    pub mix: MixSpec,
}

impl Phase {
    /// Convenience constructor: Poisson arrivals at `rate_qps` with the given
    /// single-model batch mix for `duration_s` seconds (thin wrapper over
    /// [`Phase::poisson_mix`] with model [`ModelId::DEFAULT`]).
    pub fn poisson(rate_qps: f64, batch_sizes: BatchSizeDistribution, duration_s: f64) -> Self {
        Self::poisson_mix(
            rate_qps,
            MixSpec::single(ModelId::DEFAULT, batch_sizes),
            duration_s,
        )
    }

    /// Poisson arrivals at `rate_qps` whose queries follow a multi-model
    /// [`MixSpec`] for `duration_s` seconds.
    pub fn poisson_mix(rate_qps: f64, mix: MixSpec, duration_s: f64) -> Self {
        Self {
            duration_s,
            arrival: ArrivalProcess::Poisson { rate_qps },
            mix,
        }
    }
}

/// A non-stationary arrival process composed of consecutive [`Phase`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedArrival {
    /// The phases, played back-to-back in order.
    pub phases: Vec<Phase>,
    /// RNG seed; each phase draws from an independent stream derived from it,
    /// so editing one phase never perturbs the others.
    pub seed: u64,
}

impl PhasedArrival {
    /// Builds a phased workload from explicit phases.
    ///
    /// # Panics
    /// Panics if `phases` is empty or any phase has a non-positive duration.
    pub fn new(phases: Vec<Phase>, seed: u64) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(
            phases.iter().all(|p| p.duration_s > 0.0),
            "phase durations must be positive"
        );
        Self { phases, seed }
    }

    /// A step change: `before_s` seconds at `low_qps`, then `after_s` seconds
    /// at `high_qps`, with the same batch mix throughout.  The canonical
    /// "can the system scale out?" scenario.
    pub fn step_change(
        low_qps: f64,
        high_qps: f64,
        batch_sizes: BatchSizeDistribution,
        before_s: f64,
        after_s: f64,
        seed: u64,
    ) -> Self {
        Self::new(
            vec![
                Phase::poisson(low_qps, batch_sizes.clone(), before_s),
                Phase::poisson(high_qps, batch_sizes, after_s),
            ],
            seed,
        )
    }

    /// A transient burst: `base_qps` everywhere except a `burst_s`-second
    /// window at `burst_qps` starting after `lead_s` seconds.
    pub fn burst(
        base_qps: f64,
        burst_qps: f64,
        batch_sizes: BatchSizeDistribution,
        lead_s: f64,
        burst_s: f64,
        tail_s: f64,
        seed: u64,
    ) -> Self {
        Self::new(
            vec![
                Phase::poisson(base_qps, batch_sizes.clone(), lead_s),
                Phase::poisson(burst_qps, batch_sizes.clone(), burst_s),
                Phase::poisson(base_qps, batch_sizes, tail_s),
            ],
            seed,
        )
    }

    /// A diurnal ramp: `steps` equal-length phases whose rates trace one
    /// sinusoidal period between `min_qps` and `max_qps` over `total_s`
    /// seconds (a compressed day).
    pub fn diurnal(
        min_qps: f64,
        max_qps: f64,
        batch_sizes: BatchSizeDistribution,
        steps: usize,
        total_s: f64,
        seed: u64,
    ) -> Self {
        assert!(steps >= 2, "a ramp needs at least two steps");
        assert!(min_qps > 0.0 && max_qps >= min_qps, "invalid rate range");
        let mid = (min_qps + max_qps) / 2.0;
        let amplitude = (max_qps - min_qps) / 2.0;
        let phases = (0..steps)
            .map(|k| {
                // Trough at the start and end, peak mid-period.
                let angle = 2.0 * std::f64::consts::PI * (k as f64 + 0.5) / steps as f64;
                let rate = mid - amplitude * angle.cos();
                Phase::poisson(
                    rate.max(min_qps),
                    batch_sizes.clone(),
                    total_s / steps as f64,
                )
            })
            .collect();
        Self::new(phases, seed)
    }

    /// Virtual start time of each phase, in microseconds.  `boundaries()[0]`
    /// is always 0; the slice has one entry per phase.
    pub fn boundaries_us(&self) -> Vec<TimeUs> {
        let mut out = Vec::with_capacity(self.phases.len());
        let mut t = 0u64;
        for p in &self.phases {
            out.push(t);
            t += (p.duration_s * 1e6) as TimeUs;
        }
        out
    }

    /// Total duration across all phases, in microseconds.
    pub fn total_duration_us(&self) -> TimeUs {
        self.phases
            .iter()
            .map(|p| (p.duration_s * 1e6) as TimeUs)
            .sum()
    }

    /// Generates the trace: each phase's queries are drawn from its own
    /// deterministic RNG stream and clipped to the phase window, so phase `k`
    /// always starts at `boundaries_us()[k]`.
    pub fn generate(&self) -> Trace {
        let mut queries = Vec::new();
        let mut id = 0u64;
        let boundaries = self.boundaries_us();
        for (k, phase) in self.phases.iter().enumerate() {
            // Independent stream per phase (splitmix-style offset) so phases
            // do not share draws.
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let start = boundaries[k];
            let end = start + (phase.duration_s * 1e6) as TimeUs;
            let mut t = start;
            loop {
                t += phase.arrival.next_gap_us(&mut rng);
                if t >= end {
                    break;
                }
                let (model, batch) = phase.mix.sample(&mut rng);
                queries.push(Query::for_model(id, model, batch, t));
                id += 1;
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

    fn mix() -> BatchSizeDistribution {
        BatchSizeDistribution::production_default()
    }

    #[test]
    fn boundaries_are_deterministic_and_exact() {
        let p = PhasedArrival::step_change(50.0, 200.0, mix(), 2.0, 3.0, 7);
        assert_eq!(p.boundaries_us(), vec![0, 2_000_000]);
        assert_eq!(p.total_duration_us(), 5_000_000);
        // No query generated in phase 1 crosses the boundary.
        let trace = p.generate();
        let phase1: Vec<_> = trace
            .queries
            .iter()
            .filter(|q| q.arrival_us < 2_000_000)
            .collect();
        assert!(!phase1.is_empty());
        assert!(trace.queries.iter().all(|q| q.arrival_us < 5_000_000));
    }

    #[test]
    fn step_change_shifts_the_offered_rate() {
        let p = PhasedArrival::step_change(50.0, 400.0, mix(), 4.0, 4.0, 11);
        let trace = p.generate();
        let before = trace
            .queries
            .iter()
            .filter(|q| q.arrival_us < 4_000_000)
            .count() as f64
            / 4.0;
        let after = trace
            .queries
            .iter()
            .filter(|q| q.arrival_us >= 4_000_000)
            .count() as f64
            / 4.0;
        assert!((before - 50.0).abs() < 15.0, "before {before}");
        assert!((after - 400.0).abs() < 50.0, "after {after}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = PhasedArrival::burst(40.0, 300.0, mix(), 1.0, 0.5, 1.0, 3);
        assert_eq!(p.generate(), p.generate());
        let other = PhasedArrival::burst(40.0, 300.0, mix(), 1.0, 0.5, 1.0, 4);
        assert_ne!(p.generate(), other.generate());
    }

    #[test]
    fn editing_a_later_phase_does_not_perturb_earlier_phases() {
        let a = PhasedArrival::step_change(80.0, 200.0, mix(), 2.0, 2.0, 9);
        let mut b = a.clone();
        b.phases[1] = Phase::poisson(500.0, mix(), 2.0);
        let qa: Vec<_> = a
            .generate()
            .queries
            .into_iter()
            .filter(|q| q.arrival_us < 2_000_000)
            .map(|q| (q.arrival_us, q.batch_size))
            .collect();
        let qb: Vec<_> = b
            .generate()
            .queries
            .into_iter()
            .filter(|q| q.arrival_us < 2_000_000)
            .map(|q| (q.arrival_us, q.batch_size))
            .collect();
        assert_eq!(qa, qb, "phase 0 must be independent of phase 1");
    }

    #[test]
    fn diurnal_ramp_peaks_mid_period() {
        let p = PhasedArrival::diurnal(50.0, 500.0, mix(), 8, 8.0, 5);
        assert_eq!(p.phases.len(), 8);
        let rates: Vec<f64> = p.phases.iter().map(|ph| ph.arrival.rate_qps()).collect();
        let peak = rates
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((3..=4).contains(&peak), "peak at step {peak}");
        assert!(rates[0] < rates[peak] / 2.0);
        // Queries are globally sorted even across phase boundaries.
        let trace = p.generate();
        assert!(trace
            .queries
            .windows(2)
            .all(|w| w[0].arrival_us <= w[1].arrival_us));
        let ids: Vec<u64> = trace.queries.iter().map(|q| q.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn mix_shift_changes_batch_composition() {
        // The Fig. 12 scenario: the batch mix shifts at a constant rate.
        let p = PhasedArrival::new(
            vec![
                Phase::poisson(100.0, BatchSizeDistribution::production_default(), 3.0),
                Phase::poisson(100.0, BatchSizeDistribution::gaussian_default(), 3.0),
            ],
            21,
        );
        let trace = p.generate();
        let mean = |pred: &dyn Fn(&Query) -> bool| {
            let v: Vec<f64> = trace
                .queries
                .iter()
                .filter(|q| pred(q))
                .map(|q| q.batch_size as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let before = mean(&|q: &Query| q.arrival_us < 3_000_000);
        let after = mean(&|q: &Query| q.arrival_us >= 3_000_000);
        assert!(
            after > before + 20.0,
            "gaussian mix should skew larger: {before} -> {after}"
        );
        // The log-normal mix is dominated by small queries; the Gaussian mix
        // has almost none — this is what moves the optimal configuration.
        let small = |lo: TimeUs, hi: TimeUs| {
            let (n, total) = trace
                .queries
                .iter()
                .filter(|q| (lo..hi).contains(&q.arrival_us))
                .fold((0usize, 0usize), |(n, t), q| {
                    (n + usize::from(q.batch_size <= 100), t + 1)
                });
            n as f64 / total as f64
        };
        assert!(small(0, 3_000_000) > 2.0 * small(3_000_000, 6_000_000));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phase_list_rejected() {
        PhasedArrival::new(vec![], 0);
    }

    #[test]
    fn multi_model_phases_tag_queries_with_their_models() {
        use crate::mix::MixSpec;
        use crate::query::ModelId;
        let multi = MixSpec::from_shares(
            &[0.7, 0.3],
            &[mix(), BatchSizeDistribution::gaussian_default()],
        );
        let p = PhasedArrival::new(
            vec![
                Phase::poisson_mix(200.0, multi.clone(), 2.0),
                // Second phase drops model 1 from the stream entirely.
                Phase::poisson_mix(200.0, MixSpec::single(ModelId::new(0), mix()), 2.0),
            ],
            13,
        );
        let trace = p.generate();
        let phase0 = trace.queries.iter().filter(|q| q.arrival_us < 2_000_000);
        let models: std::collections::HashSet<_> = phase0.map(|q| q.model).collect();
        assert_eq!(models.len(), 2, "both models must appear in phase 0");
        assert!(trace
            .queries
            .iter()
            .filter(|q| q.arrival_us >= 2_000_000)
            .all(|q| q.model == ModelId::new(0)));
    }
}
