//! Failure domains and correlated fault processes.
//!
//! PR 5's preemptions are per-instance and independent: a spot notice kills
//! the instances of one offering, and nothing else moves.  Real clouds fail
//! in *correlated* ways — a zone outage wipes every pool in the zone at
//! once, capacity purchases are rejected while a zone is short, and
//! instances degrade into stragglers instead of dying cleanly.  This module
//! gives those modes a first-class vocabulary:
//!
//! * a [`FailureDomain`] places an offering in the cloud's zone/region
//!   hierarchy (every offering lives somewhere; the default is the single
//!   `global/global` domain, which reproduces the domain-blind world);
//! * a [`FaultEvent`] is one correlated occurrence — [`ZoneOutage`],
//!   [`CapacityShortage`] or [`Straggler`] — and a [`FaultProcess`] is the
//!   scripted, fully deterministic set of them a run replays;
//! * a [`PurchaseRejected`] is the typed error a purchase attempt returns
//!   while its target domain is down or short, instead of silently
//!   succeeding.
//!
//! Like [`PreemptionProcess`](crate::market::PreemptionProcess), a fault
//! process is a pure value: materializing it twice at the same horizon
//! yields the same events, so the simulator's replay is reproducible
//! bit-for-bit and an *empty* process is indistinguishable from no process
//! at all (property-tested in `kairos-sim/tests/proptest_fault.rs`).
//!
//! [`ZoneOutage`]: FaultEvent::ZoneOutage
//! [`CapacityShortage`]: FaultEvent::CapacityShortage
//! [`Straggler`]: FaultEvent::Straggler

use std::fmt;

/// Microseconds of virtual time (mirrors `kairos_workload::TimeUs`).
pub type FaultTimeUs = u64;

/// A placement in the cloud's failure hierarchy: a zone within a region.
///
/// Domains are compared structurally; two offerings share a fate exactly
/// when a fault's domain [`covers`](FailureDomain::covers) both of their
/// placements.  The zone `"*"` is the region-level wildcard: a fault scoped
/// to `region/*` covers every zone of the region.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FailureDomain {
    /// The region, e.g. `"us-east-1"`.
    pub region: String,
    /// The zone within the region, e.g. `"us-east-1a"`, or `"*"` for the
    /// whole region (only meaningful on a fault's domain, not a placement).
    pub zone: String,
}

impl FailureDomain {
    /// The single default domain every un-placed offering lives in.
    pub fn global() -> Self {
        Self {
            region: "global".to_string(),
            zone: "global".to_string(),
        }
    }

    /// A zone placement within a region.
    pub fn zone(region: &str, zone: &str) -> Self {
        Self {
            region: region.to_string(),
            zone: zone.to_string(),
        }
    }

    /// The whole-region wildcard domain (covers every zone of the region).
    pub fn region(region: &str) -> Self {
        Self {
            region: region.to_string(),
            zone: "*".to_string(),
        }
    }

    /// Display label, e.g. `"us-east-1/us-east-1a"`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.region, self.zone)
    }

    /// Whether a fault scoped to `self` reaches an offering placed at
    /// `placement`: same region, and either an exact zone match or the
    /// region-level wildcard.
    pub fn covers(&self, placement: &FailureDomain) -> bool {
        self.region == placement.region && (self.zone == "*" || self.zone == placement.zone)
    }
}

impl Default for FailureDomain {
    fn default() -> Self {
        Self::global()
    }
}

impl fmt::Display for FailureDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.region, self.zone)
    }
}

/// One correlated fault occurrence of a run's scripted [`FaultProcess`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Every live instance whose placement the domain covers gets a
    /// preemption-style notice at `start_us` (drain, then forced kill after
    /// the process's notice window), and purchases into the domain are
    /// rejected until `start_us + duration_us`.
    ZoneOutage {
        /// The domain that goes dark.
        domain: FailureDomain,
        /// When the outage begins.
        start_us: FaultTimeUs,
        /// How long the domain stays dark (must be positive).
        duration_us: FaultTimeUs,
    },
    /// Purchases into the domain return [`PurchaseRejected`] during
    /// `[start_us, end_us)`; live instances keep running.
    CapacityShortage {
        /// The domain that runs short.
        domain: FailureDomain,
        /// When the shortage begins.
        start_us: FaultTimeUs,
        /// When capacity becomes purchasable again (must exceed `start_us`).
        end_us: FaultTimeUs,
    },
    /// One live instance of the offering degrades at `at_us`: its throughput
    /// is scaled by `slowdown` for the rest of the run.  The victim is the
    /// lowest-indexed live non-straggler instance of the offering at onset —
    /// a pure function of the event history, so replays are deterministic.
    Straggler {
        /// When the degradation sets in.
        at_us: FaultTimeUs,
        /// Pool/offering coordinate the victim is drawn from.
        offering: usize,
        /// Throughput multiplier in `(0, 1]` (0.25 = a 4x slower instance).
        slowdown: f64,
    },
}

impl FaultEvent {
    /// The virtual time the event first takes effect.
    pub fn at_us(&self) -> FaultTimeUs {
        match self {
            FaultEvent::ZoneOutage { start_us, .. }
            | FaultEvent::CapacityShortage { start_us, .. } => *start_us,
            FaultEvent::Straggler { at_us, .. } => *at_us,
        }
    }
}

/// A typed validation error from [`FaultProcess::try_new`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A zone outage had a zero duration.
    EmptyOutage,
    /// A capacity shortage's window was empty (`end_us <= start_us`).
    EmptyShortage,
    /// A straggler slowdown was outside `(0, 1]` or not finite.
    InvalidSlowdown {
        /// The offending multiplier.
        slowdown: f64,
    },
    /// A stochastic process rate was negative or not finite.
    InvalidRate {
        /// The offending rate, in events per hour.
        rate_per_hour: f64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::EmptyOutage => write!(f, "zone outage must have a positive duration"),
            FaultError::EmptyShortage => {
                write!(f, "capacity shortage window must end after it starts")
            }
            FaultError::InvalidSlowdown { slowdown } => {
                write!(f, "straggler slowdown must lie in (0, 1], got {slowdown}")
            }
            FaultError::InvalidRate { rate_per_hour } => {
                write!(
                    f,
                    "stochastic fault rate must be finite and non-negative, got {rate_per_hour}"
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// The scripted set of correlated faults a run replays.
///
/// A process is plain data — no RNG, no clock — so materializing it twice
/// yields identical events, and [`FaultProcess::default`] (no events) leaves
/// an attached engine bit-identical to one that never heard of faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultProcess {
    events: Vec<FaultEvent>,
    notice_us: Option<FaultTimeUs>,
}

impl FaultProcess {
    /// Default notice window between an outage notice and the forced kill:
    /// 200 ms of virtual time, matching
    /// [`TraceMarket::DEFAULT_NOTICE_US`](crate::market::TraceMarket::DEFAULT_NOTICE_US).
    pub const DEFAULT_NOTICE_US: FaultTimeUs = 200_000;

    /// Validates and builds a process from its events.
    pub fn try_new(events: Vec<FaultEvent>) -> Result<Self, FaultError> {
        for event in &events {
            match event {
                FaultEvent::ZoneOutage { duration_us, .. } => {
                    if *duration_us == 0 {
                        return Err(FaultError::EmptyOutage);
                    }
                }
                FaultEvent::CapacityShortage {
                    start_us, end_us, ..
                } => {
                    if end_us <= start_us {
                        return Err(FaultError::EmptyShortage);
                    }
                }
                FaultEvent::Straggler { slowdown, .. } => {
                    if !(slowdown.is_finite() && *slowdown > 0.0 && *slowdown <= 1.0) {
                        return Err(FaultError::InvalidSlowdown {
                            slowdown: *slowdown,
                        });
                    }
                }
            }
        }
        Ok(Self {
            events,
            notice_us: None,
        })
    }

    /// [`Self::try_new`], panicking on validation failure.
    ///
    /// # Panics
    /// Panics if an event fails validation.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        Self::try_new(events).expect("invalid fault process")
    }

    /// A **seeded, deterministic** Poisson outage calendar: zone outages of
    /// `domain` arrive as a Poisson process of `rate_per_hour` over
    /// `[0, horizon_us)`, each lasting `duration_us`.  The inter-arrival
    /// gaps are drawn from a splitmix64 stream keyed by `seed` alone — no
    /// global RNG, no clock — so the same `(rate, seed, horizon, duration)`
    /// always materializes the identical calendar, and a rate of `0` yields
    /// an *empty* process that leaves an attached engine bit-identical to
    /// one with no faults at all (property-tested in
    /// `kairos-sim/tests/proptest_fault.rs`).
    pub fn poisson(
        rate_per_hour: f64,
        seed: u64,
        horizon_us: FaultTimeUs,
        duration_us: FaultTimeUs,
        domain: FailureDomain,
    ) -> Result<Self, FaultError> {
        if !(rate_per_hour.is_finite() && rate_per_hour >= 0.0) {
            return Err(FaultError::InvalidRate { rate_per_hour });
        }
        let mut events = Vec::new();
        if rate_per_hour > 0.0 {
            let mean_gap_us = 3_600_000_000.0 / rate_per_hour;
            let mut state = seed;
            let mut at = 0.0f64;
            loop {
                // splitmix64 step, mapped to a uniform draw in (0, 1].
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let uniform = ((z >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                at += -uniform.ln() * mean_gap_us;
                if at >= horizon_us as f64 {
                    break;
                }
                events.push(FaultEvent::ZoneOutage {
                    domain: domain.clone(),
                    start_us: at as FaultTimeUs,
                    duration_us,
                });
            }
        }
        Self::try_new(events)
    }

    /// Overrides the outage notice window.
    #[must_use]
    pub fn with_notice(mut self, notice_us: FaultTimeUs) -> Self {
        self.notice_us = Some(notice_us);
        self
    }

    /// The events, in declaration order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the process carries no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Grace period between an outage notice and the forced kill.
    pub fn notice_us(&self) -> FaultTimeUs {
        self.notice_us.unwrap_or(Self::DEFAULT_NOTICE_US)
    }
}

/// Why a purchase was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectionCause {
    /// The target domain is inside an active zone outage.
    ZoneOutage,
    /// The target domain is inside an active capacity shortage.
    CapacityShortage,
}

/// The typed error a purchase attempt returns while its target domain is
/// down or short — the caller sees the rejection instead of a silently
/// successful add, and can retry with backoff against another domain.
#[derive(Debug, Clone, PartialEq)]
pub struct PurchaseRejected {
    /// Pool/offering coordinate of the attempted purchase.
    pub type_index: usize,
    /// The domain the purchase targeted.
    pub domain: FailureDomain,
    /// When the attempt was made.
    pub at_us: FaultTimeUs,
    /// Which fault mode rejected it.
    pub cause: RejectionCause,
}

impl fmt::Display for PurchaseRejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cause = match self.cause {
            RejectionCause::ZoneOutage => "zone outage",
            RejectionCause::CapacityShortage => "capacity shortage",
        };
        write!(
            f,
            "purchase of type {} rejected at t={}us: {cause} in {}",
            self.type_index, self.at_us, self.domain
        )
    }
}

impl std::error::Error for PurchaseRejected {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_coverage_follows_the_zone_region_hierarchy() {
        let a = FailureDomain::zone("us-east-1", "us-east-1a");
        let b = FailureDomain::zone("us-east-1", "us-east-1b");
        let other = FailureDomain::zone("eu-west-1", "eu-west-1a");
        assert!(a.covers(&a));
        assert!(!a.covers(&b));
        let region = FailureDomain::region("us-east-1");
        assert!(region.covers(&a));
        assert!(region.covers(&b));
        assert!(!region.covers(&other));
        assert_eq!(FailureDomain::default(), FailureDomain::global());
        assert_eq!(a.label(), "us-east-1/us-east-1a");
        assert_eq!(a.to_string(), a.label());
    }

    #[test]
    fn fault_process_validation_catches_degenerate_events() {
        assert_eq!(
            FaultProcess::try_new(vec![FaultEvent::ZoneOutage {
                domain: FailureDomain::global(),
                start_us: 5,
                duration_us: 0,
            }])
            .unwrap_err(),
            FaultError::EmptyOutage
        );
        assert_eq!(
            FaultProcess::try_new(vec![FaultEvent::CapacityShortage {
                domain: FailureDomain::global(),
                start_us: 10,
                end_us: 10,
            }])
            .unwrap_err(),
            FaultError::EmptyShortage
        );
        assert_eq!(
            FaultProcess::try_new(vec![FaultEvent::Straggler {
                at_us: 1,
                offering: 0,
                slowdown: 0.0,
            }])
            .unwrap_err(),
            FaultError::InvalidSlowdown { slowdown: 0.0 }
        );
        assert!(FaultProcess::try_new(vec![FaultEvent::Straggler {
            at_us: 1,
            offering: 0,
            slowdown: 1.0,
        }])
        .is_ok());
    }

    #[test]
    fn fault_process_is_deterministic_plain_data() {
        let events = vec![
            FaultEvent::ZoneOutage {
                domain: FailureDomain::zone("r", "a"),
                start_us: 1_000,
                duration_us: 2_000,
            },
            FaultEvent::Straggler {
                at_us: 500,
                offering: 1,
                slowdown: 0.5,
            },
        ];
        let p = FaultProcess::new(events.clone());
        assert_eq!(p.events(), p.clone().events(), "pure value");
        assert_eq!(p.events(), &events[..]);
        assert_eq!(p.notice_us(), FaultProcess::DEFAULT_NOTICE_US);
        assert_eq!(p.clone().with_notice(77).notice_us(), 77);
        assert!(!p.is_empty());
        assert!(FaultProcess::default().is_empty());
        assert_eq!(events[0].at_us(), 1_000);
        assert_eq!(events[1].at_us(), 500);
    }

    #[test]
    fn poisson_calendar_is_seeded_and_deterministic() {
        let hour = 3_600_000_000u64;
        let a =
            FaultProcess::poisson(4.0, 7, 3 * hour, 60_000_000, FailureDomain::global()).unwrap();
        let b =
            FaultProcess::poisson(4.0, 7, 3 * hour, 60_000_000, FailureDomain::global()).unwrap();
        assert_eq!(a, b, "same seed, same calendar");
        assert!(!a.is_empty(), "a 4/hour process over 3 hours fires");
        // Roughly Poisson: expect ~12 events, accept a wide band.
        assert!((3..=30).contains(&a.events().len()), "{}", a.events().len());
        // Every event is an in-horizon outage with the requested shape.
        for event in a.events() {
            match event {
                FaultEvent::ZoneOutage {
                    start_us,
                    duration_us,
                    ..
                } => {
                    assert!(*start_us < 3 * hour);
                    assert_eq!(*duration_us, 60_000_000);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        // A different seed draws a different calendar.
        let c =
            FaultProcess::poisson(4.0, 8, 3 * hour, 60_000_000, FailureDomain::global()).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_rate_zero_is_the_empty_process() {
        let p = FaultProcess::poisson(0.0, 42, 3_600_000_000, 1, FailureDomain::global()).unwrap();
        assert!(p.is_empty());
        assert_eq!(p, FaultProcess::default());
        assert_eq!(
            FaultProcess::poisson(-1.0, 0, 1, 1, FailureDomain::global()).unwrap_err(),
            FaultError::InvalidRate {
                rate_per_hour: -1.0
            }
        );
        assert!(FaultError::InvalidRate {
            rate_per_hour: -1.0
        }
        .to_string()
        .contains("non-negative"));
    }

    #[test]
    fn purchase_rejected_formats_its_cause() {
        let e = PurchaseRejected {
            type_index: 2,
            domain: FailureDomain::zone("us-east-1", "us-east-1a"),
            at_us: 42,
            cause: RejectionCause::ZoneOutage,
        };
        let text = e.to_string();
        assert!(text.contains("zone outage"));
        assert!(text.contains("us-east-1a"));
    }
}
