//! Query arrival processes.
//!
//! The paper generates query inter-arrivals from a Poisson process at rates
//! of hundreds of queries per second (Sec. 7), the standard model for online
//! inference serving studies.  A deterministic (uniform-spacing) process is
//! also provided for tests and for the capacity search, where a smooth ramp
//! is easier to reason about.

use crate::query::TimeUs;
use rand::Rng;
use rand_distr::{Distribution, Exp};

/// A stochastic process generating query inter-arrival gaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential inter-arrival times with the given mean
    /// rate in queries per second.
    Poisson {
        /// Mean arrival rate in queries per second.
        rate_qps: f64,
    },
    /// Deterministic arrivals, exactly `rate_qps` queries per second equally
    /// spaced.
    Uniform {
        /// Arrival rate in queries per second.
        rate_qps: f64,
    },
    /// All queries arrive in a single burst at time zero (stress test of the
    /// queueing behaviour).
    Burst,
}

impl ArrivalProcess {
    /// Mean arrival rate of the process in queries per second (`f64::INFINITY`
    /// for a burst).
    pub fn rate_qps(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_qps } | ArrivalProcess::Uniform { rate_qps } => {
                *rate_qps
            }
            ArrivalProcess::Burst => f64::INFINITY,
        }
    }

    /// Returns a copy of the process with its rate replaced (bursts are
    /// unchanged).  Used by the allowable-throughput ramp.
    pub fn with_rate(&self, rate_qps: f64) -> Self {
        assert!(rate_qps > 0.0, "rate must be positive");
        match self {
            ArrivalProcess::Poisson { .. } => ArrivalProcess::Poisson { rate_qps },
            ArrivalProcess::Uniform { .. } => ArrivalProcess::Uniform { rate_qps },
            ArrivalProcess::Burst => ArrivalProcess::Burst,
        }
    }

    /// Draws the gap until the next arrival, in microseconds.
    pub fn next_gap_us<R: Rng + ?Sized>(&self, rng: &mut R) -> TimeUs {
        match self {
            ArrivalProcess::Poisson { rate_qps } => {
                assert!(*rate_qps > 0.0, "rate must be positive");
                // Exponential with mean 1/rate seconds = 1e6/rate microseconds.
                let exp = Exp::new(*rate_qps).expect("valid rate");
                let gap_seconds: f64 = exp.sample(rng);
                (gap_seconds * 1e6).round().max(1.0) as TimeUs
            }
            ArrivalProcess::Uniform { rate_qps } => {
                assert!(*rate_qps > 0.0, "rate must be positive");
                ((1e6 / rate_qps).round().max(1.0)) as TimeUs
            }
            ArrivalProcess::Burst => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_rate_is_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = ArrivalProcess::Poisson { rate_qps: 200.0 };
        let n = 20_000usize;
        let total_us: u64 = (0..n).map(|_| p.next_gap_us(&mut rng)).sum();
        let measured_rate = n as f64 / (total_us as f64 / 1e6);
        assert!((measured_rate - 200.0).abs() < 10.0, "rate {measured_rate}");
    }

    #[test]
    fn uniform_gaps_are_exact() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = ArrivalProcess::Uniform { rate_qps: 100.0 };
        assert_eq!(p.next_gap_us(&mut rng), 10_000);
    }

    #[test]
    fn burst_arrives_at_once() {
        let mut rng = StdRng::seed_from_u64(2);
        let gaps: Vec<TimeUs> = (0..5)
            .map(|_| ArrivalProcess::Burst.next_gap_us(&mut rng))
            .collect();
        assert_eq!(gaps, vec![0; 5]);
    }

    #[test]
    fn with_rate_swaps_rate_only() {
        let p = ArrivalProcess::Poisson { rate_qps: 10.0 };
        assert_eq!(
            p.with_rate(50.0),
            ArrivalProcess::Poisson { rate_qps: 50.0 }
        );
        assert_eq!(p.with_rate(50.0).rate_qps(), 50.0);
        assert_eq!(ArrivalProcess::Burst.with_rate(5.0), ArrivalProcess::Burst);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn with_rate_rejects_zero() {
        ArrivalProcess::Poisson { rate_qps: 1.0 }.with_rate(0.0);
    }
}
