//! Throughput-degradation curves for fair-sharing service models.
//!
//! The paper's serving model (Sec. 6) dedicates an instance to one query at
//! a time, so service latency is a pure function of the batch size.  Real
//! inference servers let several queries share an accelerator and degrade
//! per-query throughput as the sharer count grows — the throughput-sharing
//! abstraction of dslab-models (see PAPERS.md).  A [`ThroughputDegradation`]
//! curve describes that contention for one instance type: with `n` queries
//! in flight the instance delivers `total_multiplier(n)` times its
//! single-query throughput in aggregate, and each sharer progresses at
//! `per_sharer_rate(n) = total_multiplier(n) / n` of full speed.
//!
//! The simulator's fair-sharing engine only requires the *per-sharer* rate
//! to be non-increasing in `n` (adding a sharer never speeds up an
//! individual query); explicit tables are validated against that invariant
//! at construction.

use std::fmt;

/// Typed construction error for throughput-degradation curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SharingError {
    /// A table had no entries.
    EmptyTable,
    /// A table multiplier was zero, negative, or not finite.
    InvalidMultiplier {
        /// Index of the offending entry (sharer count `index + 1`).
        index: usize,
    },
    /// The per-sharer rate `table[n-1] / n` increased between two adjacent
    /// sharer counts — adding a sharer must never speed up an individual
    /// query.
    IncreasingPerSharerRate {
        /// Index of the offending entry (sharer count `index + 1`).
        index: usize,
    },
    /// The linear contention coefficient was outside `[0, 1]` or not finite.
    InvalidContention {
        /// The offending coefficient.
        alpha: f64,
    },
}

impl fmt::Display for SharingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharingError::EmptyTable => write!(f, "degradation table has no entries"),
            SharingError::InvalidMultiplier { index } => {
                write!(
                    f,
                    "degradation multiplier must be finite and positive (entry {index})"
                )
            }
            SharingError::IncreasingPerSharerRate { index } => {
                write!(
                    f,
                    "per-sharer rate must be non-increasing in the sharer count (entry {index})"
                )
            }
            SharingError::InvalidContention { alpha } => {
                write!(
                    f,
                    "contention coefficient must be within [0, 1], got {alpha}"
                )
            }
        }
    }
}

impl std::error::Error for SharingError {}

/// How an instance's aggregate throughput scales with the number of queries
/// sharing it (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum ThroughputDegradation {
    /// Contention-free scaling: `n` sharers deliver `n`× aggregate
    /// throughput, so each query runs at full speed regardless of company.
    Ideal,
    /// Pure time-slicing: aggregate throughput stays at 1× no matter how
    /// many queries share the instance; each sharer runs at `1/n` speed.
    TimeSliced,
    /// A one-knob family between the two extremes:
    /// `total_multiplier(n) = n / (1 + alpha * (n - 1))`.  `alpha = 0` is
    /// [`Self::Ideal`], `alpha = 1` is [`Self::TimeSliced`]; intermediate
    /// values model partial contention (memory bandwidth, kernel-launch
    /// serialization).
    Linear {
        /// Contention coefficient in `[0, 1]`.
        alpha: f64,
    },
    /// An explicit measured table: entry `n - 1` is the aggregate multiplier
    /// at `n` sharers.  Sharer counts beyond the table clamp to the last
    /// entry (aggregate throughput stops growing; per-sharer rate keeps
    /// falling as `1/n`).  Build through [`Self::try_new_table`] so the
    /// per-sharer monotonicity invariant is checked.
    Table(Vec<f64>),
}

impl ThroughputDegradation {
    /// Builds a [`Self::Linear`] curve, validating the coefficient.
    pub fn try_new_linear(alpha: f64) -> Result<Self, SharingError> {
        if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) {
            return Err(SharingError::InvalidContention { alpha });
        }
        Ok(Self::Linear { alpha })
    }

    /// Builds a [`Self::Table`] curve, validating every multiplier and the
    /// non-increasing per-sharer rate invariant.
    pub fn try_new_table(multipliers: Vec<f64>) -> Result<Self, SharingError> {
        if multipliers.is_empty() {
            return Err(SharingError::EmptyTable);
        }
        for (index, &m) in multipliers.iter().enumerate() {
            if !m.is_finite() || m <= 0.0 {
                return Err(SharingError::InvalidMultiplier { index });
            }
            if index > 0 {
                let prev_rate = multipliers[index - 1] / index as f64;
                let rate = m / (index + 1) as f64;
                if rate > prev_rate {
                    return Err(SharingError::IncreasingPerSharerRate { index });
                }
            }
        }
        Ok(Self::Table(multipliers))
    }

    /// Aggregate throughput multiplier at `sharers` concurrent queries
    /// (`sharers >= 1`), relative to a lone query.
    pub fn total_multiplier(&self, sharers: u32) -> f64 {
        debug_assert!(sharers >= 1, "an empty instance has no sharing rate");
        let n = sharers as f64;
        match self {
            ThroughputDegradation::Ideal => n,
            ThroughputDegradation::TimeSliced => 1.0,
            ThroughputDegradation::Linear { alpha } => n / (1.0 + alpha * (n - 1.0)),
            ThroughputDegradation::Table(multipliers) => {
                let idx = (sharers as usize - 1).min(multipliers.len() - 1);
                multipliers[idx]
            }
        }
    }

    /// Per-sharer progress rate at `sharers` concurrent queries:
    /// `total_multiplier(sharers) / sharers`, the fraction of full speed
    /// each query advances at.
    #[inline]
    pub fn per_sharer_rate(&self, sharers: u32) -> f64 {
        self.total_multiplier(sharers) / sharers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_and_time_sliced_are_the_two_extremes() {
        for n in 1..=16 {
            assert_eq!(ThroughputDegradation::Ideal.per_sharer_rate(n), 1.0);
            assert!(
                (ThroughputDegradation::TimeSliced.per_sharer_rate(n) - 1.0 / n as f64).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn linear_interpolates_between_the_extremes() {
        let half = ThroughputDegradation::try_new_linear(0.5).unwrap();
        assert_eq!(half.total_multiplier(1), 1.0);
        // n = 3, alpha = 0.5: 3 / (1 + 0.5 * 2) = 1.5x aggregate.
        assert!((half.total_multiplier(3) - 1.5).abs() < 1e-12);
        let ideal = ThroughputDegradation::try_new_linear(0.0).unwrap();
        assert_eq!(ideal.total_multiplier(4), 4.0);
        let sliced = ThroughputDegradation::try_new_linear(1.0).unwrap();
        assert_eq!(sliced.total_multiplier(4), 1.0);
        assert_eq!(
            ThroughputDegradation::try_new_linear(1.5),
            Err(SharingError::InvalidContention { alpha: 1.5 })
        );
    }

    #[test]
    fn per_sharer_rate_never_increases_with_company() {
        for curve in [
            ThroughputDegradation::Ideal,
            ThroughputDegradation::TimeSliced,
            ThroughputDegradation::try_new_linear(0.3).unwrap(),
            ThroughputDegradation::try_new_table(vec![1.0, 1.6, 1.9, 2.0]).unwrap(),
        ] {
            let mut prev = f64::INFINITY;
            for n in 1..=32 {
                let rate = curve.per_sharer_rate(n);
                assert!(rate > 0.0);
                assert!(
                    rate <= prev + 1e-12,
                    "{curve:?} sped up at {n} sharers: {rate} > {prev}"
                );
                prev = rate;
            }
        }
    }

    #[test]
    fn table_clamps_beyond_its_last_entry() {
        let curve = ThroughputDegradation::try_new_table(vec![1.0, 1.5]).unwrap();
        assert_eq!(curve.total_multiplier(2), 1.5);
        assert_eq!(curve.total_multiplier(10), 1.5);
        assert!((curve.per_sharer_rate(10) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn table_validation_rejects_malformed_curves() {
        assert_eq!(
            ThroughputDegradation::try_new_table(Vec::new()),
            Err(SharingError::EmptyTable)
        );
        assert_eq!(
            ThroughputDegradation::try_new_table(vec![1.0, -2.0]),
            Err(SharingError::InvalidMultiplier { index: 1 })
        );
        // 2 sharers at 2.5x aggregate would run each query *faster* than
        // alone — physically impossible contention.
        assert_eq!(
            ThroughputDegradation::try_new_table(vec![1.0, 2.5]),
            Err(SharingError::IncreasingPerSharerRate { index: 1 })
        );
        // Perfect scaling is the boundary case and is allowed.
        assert!(ThroughputDegradation::try_new_table(vec![1.0, 2.0, 3.0]).is_ok());
    }
}
