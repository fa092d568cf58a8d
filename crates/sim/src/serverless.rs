//! Serverless execution lane: per-model keep-alive policies over the
//! engine's container lifecycle.
//!
//! The configuration couples a [`KeepAlivePolicy`] per served model lane
//! (`None` keeps a lane always-on) with a [`ColdStartProfile`] pricing the
//! container init + model load an instance pays when a dispatch wakes it
//! from the [`Parked`](crate::cluster::InstanceLifecycle::Parked) state.
//! The engine-side mechanics (generation-stamped keep-alive timers, the
//! zero-billing park transition, cold-start injection before service) live
//! in [`SimEngine::with_serverless`](crate::SimEngine::with_serverless);
//! DESIGN.md's "Serverless lane" section has the correctness argument.

use kairos_models::{ColdStartProfile, KeepAlivePolicy};
use kairos_workload::TimeUs;

/// Serverless-lane configuration for one engine run: which model lanes may
/// scale to zero, under which keep-alive policy, and what waking a parked
/// container costs.
#[derive(Debug, Clone)]
pub struct ServerlessConfig {
    /// Per-model keep-alive policy, indexed by
    /// [`ModelId`](kairos_workload::ModelId).  `None` keeps that lane
    /// always-on: its instances never park and the engine's behaviour on the
    /// lane is bit-identical to an engine without the serverless lane.
    pub policies: Vec<Option<KeepAlivePolicy>>,
    /// Cold-start cost (container init + model load) per pool type; a
    /// single-entry profile applies uniformly.
    pub cold_start: ColdStartProfile,
}

impl ServerlessConfig {
    /// A configuration applying one policy to every one of `num_models`
    /// lanes.
    pub fn uniform(
        policy: KeepAlivePolicy,
        num_models: usize,
        cold_start: ColdStartProfile,
    ) -> Self {
        Self {
            policies: vec![Some(policy); num_models],
            cold_start,
        }
    }

    /// Whether at least one lane carries a keep-alive policy (i.e. the
    /// configuration actually changes engine behaviour).
    pub fn any_enabled(&self) -> bool {
        self.policies.iter().any(|p| p.is_some())
    }
}

/// Per-instance serverless state, maintained by the engine alongside the
/// instance's lifecycle.  The keep-alive timer follows the batcher's lazy
/// deletion discipline: `park_gen` stamps the live pending expiry, and a
/// popped [`KeepAliveExpiry`](crate::calendar::TimedKind::KeepAliveExpiry)
/// whose stamp trails it is skipped as stale.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ServerlessState {
    /// The instance is parked: unbilled, container torn down, still
    /// dispatchable (the next dispatch pays the cold start).
    pub parked: bool,
    /// A keep-alive expiry with stamp [`Self::park_gen`] is pending on the
    /// calendar.
    pub park_pending: bool,
    /// Generation stamp of the live pending expiry; bumped to invalidate.
    pub park_gen: u64,
    /// Start of the current tracked idle period (timer arming time) — the
    /// observed idle gap recorded into the lane's histogram on the next
    /// dispatch.
    pub idle_since_us: TimeUs,
    /// Moment the instance parked (meaningless unless [`Self::parked`]).
    pub parked_since_us: TimeUs,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::ColdStartCost;

    #[test]
    fn uniform_config_covers_every_lane() {
        let config = ServerlessConfig::uniform(
            KeepAlivePolicy::fixed(10_000_000).unwrap(),
            3,
            ColdStartProfile::uniform(ColdStartCost::new(500_000, 1_500_000)),
        );
        assert_eq!(config.policies.len(), 3);
        assert!(config.any_enabled());
        assert!(config.policies.iter().all(|p| p.is_some()));
    }

    #[test]
    fn all_none_config_reports_disabled() {
        let config = ServerlessConfig {
            policies: vec![None, None],
            cold_start: ColdStartProfile::uniform(ColdStartCost::new(0, 0)),
        };
        assert!(!config.any_enabled());
    }
}
