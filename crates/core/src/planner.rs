//! The Kairos one-shot configuration planner (paper Sec. 5.2).
//!
//! Given a cost budget, the planner enumerates every configuration that fits,
//! estimates each configuration's throughput upper bound with the closed-form
//! formula, and applies the similarity-based selection rule — producing a
//! deployable configuration **without a single online evaluation**.  The
//! paper reports that ranking ~1000 configurations takes well under two
//! seconds.  Serving budgets are larger: the RM2 lane of the `fleet_mix`
//! benchmark replans at about 10.3 $/hr, where the affordable space holds
//! about 86k configurations, on every plan-cache miss.
//!
//! The paper ranks the space once, offline; the serving loop replans, and
//! never needs the order.  So a plan comes in two forms over one walk
//! ([`ThroughputEstimator::score_affordable`], which bounds and prices each
//! configuration as it reaches it):
//!
//! * [`ScoredPlan`] — the scored space in enumeration order plus the chosen
//!   configuration, picked from a bounded top-k of the ranking.  The space
//!   keeps the walk's runs: one bound (8 bytes) per configuration, its
//!   counts and cost once per run.  Its scan queries answer each of the
//!   loop's questions in one pass over the runs, with no sort and no
//!   per-configuration allocation.  [`PlanCache`] holds these.
//! * [`Plan`] — the same space ranked and materialized, one [`Config`] per
//!   entry, for Kairos+ and the offline analyses.
//!
//! The Criterion groups `planner` (bench `upper_bound`) and `planner_cold`
//! (bench `simulator`) time both forms; `planner_warm` times a
//! [`PlanCache`] miss as the serving loop pays it.

use crate::controller::KairosController;
use crate::selection::select_configuration;
use crate::upper_bound::{ScoredSpace, ThroughputEstimator};
use kairos_models::{
    latency::LatencyTable, mlmodel::ModelKind, Config, EnumerationOptions, PoolSpec,
};
use std::sync::Arc;

/// Output of a planning pass.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The configuration Kairos deploys.
    pub chosen: Config,
    /// Every affordable configuration with its upper bound, sorted by bound
    /// (descending).  Used by Kairos+ and by the Fig. 13/14 analyses.
    pub ranked: Vec<(Config, f64)>,
    /// The hourly budget the plan was computed for.
    pub budget_per_hour: f64,
}

impl Plan {
    /// Upper bound of the chosen configuration.
    pub fn chosen_upper_bound(&self) -> f64 {
        self.ranked
            .iter()
            .find(|(c, _)| c == &self.chosen)
            .map(|(_, ub)| *ub)
            .unwrap_or(0.0)
    }

    /// The top-`n` configurations by upper bound.
    pub fn top(&self, n: usize) -> &[(Config, f64)] {
        &self.ranked[..self.ranked.len().min(n)]
    }
}

/// A planning pass without the ranking: the scored affordable space and the
/// configuration Kairos deploys.  [`Self::into_plan`] ranks it into the
/// [`Plan`] the same budget and sample give.
#[derive(Debug, Clone)]
pub struct ScoredPlan {
    /// The configuration Kairos deploys (selected from the top of the
    /// ranking, exactly as [`Plan::chosen`]).
    pub chosen: Config,
    /// Every affordable configuration with its upper bound and cost, in
    /// enumeration order.
    pub space: ScoredSpace,
    /// The hourly budget the plan was computed for.
    pub budget_per_hour: f64,
}

impl ScoredPlan {
    /// The ranked [`Plan`].
    pub fn into_plan(self) -> Plan {
        Plan {
            chosen: self.chosen,
            ranked: self.space.ranked(),
            budget_per_hour: self.budget_per_hour,
        }
    }
}

/// The Kairos planner: throughput-upper-bound ranking plus similarity-based
/// selection over the affordable configuration space.
#[derive(Debug, Clone)]
pub struct KairosPlanner {
    pool: PoolSpec,
    model: ModelKind,
    latency: LatencyTable,
}

impl KairosPlanner {
    /// Creates a planner from the latency knowledge Kairos has gathered (its
    /// online-learned table, or a calibration table in offline studies).
    pub fn new(pool: PoolSpec, model: ModelKind, latency: LatencyTable) -> Self {
        Self {
            pool,
            model,
            latency,
        }
    }

    /// Builds the estimator for a given observed batch-size sample.
    pub fn estimator(&self, batch_sample: Vec<u32>) -> ThroughputEstimator {
        ThroughputEstimator::new(
            self.pool.clone(),
            self.model,
            self.latency.clone(),
            batch_sample,
        )
    }

    /// Plans a configuration under the given hourly budget, using the observed
    /// batch-size sample (e.g. the query monitor window) to parameterize the
    /// upper bound.
    ///
    /// The ranked list is exactly `rank_configs(enumerate_configs(..))`:
    /// same configurations, same order, same bound bits.
    ///
    /// # Panics
    /// Panics if the budget is not positive or cannot afford a configuration
    /// with a base instance, or on an empty sample.
    pub fn plan(&self, budget_per_hour: f64, batch_sample: &[u32]) -> Plan {
        self.scored_plan(budget_per_hour, batch_sample).into_plan()
    }

    /// [`Self::plan`] without the ranking: the scored space and the same
    /// chosen configuration, selected from the bounded top-k of the ranking
    /// (everything [`select_configuration`] reads).
    ///
    /// # Panics
    /// As [`Self::plan`].
    pub fn scored_plan(&self, budget_per_hour: f64, batch_sample: &[u32]) -> ScoredPlan {
        self.scored_plan_into(budget_per_hour, batch_sample, ScoredSpace::default())
    }

    /// [`Self::scored_plan`], scoring into the buffers of `spare` (see
    /// [`ThroughputEstimator::score_affordable_into`]).
    pub(crate) fn scored_plan_into(
        &self,
        budget_per_hour: f64,
        batch_sample: &[u32],
        spare: ScoredSpace,
    ) -> ScoredPlan {
        let options = EnumerationOptions::with_budget(budget_per_hour);
        let estimator = ThroughputEstimator::from_sample(
            self.pool.clone(),
            self.model,
            &self.latency,
            batch_sample,
        );
        let space = estimator.score_affordable_into(&options, spare);
        assert!(
            !space.is_empty(),
            "budget {budget_per_hour} cannot afford any configuration with a base instance"
        );
        let chosen = select_configuration(&space.top_ranked(), &self.pool);
        ScoredPlan {
            chosen,
            space,
            budget_per_hour,
        }
    }
}

/// Memoizes the most recent [`ScoredPlan`] against the knowledge it was
/// computed from, so a replanning loop (the serving system replans on a
/// cadence *and* on demand drift) only pays for the enumeration walk when
/// the planner's inputs actually changed.
///
/// The key is `(quantized knowledge signature, budget bits)` — see
/// [`KairosController::knowledge_signature`].  The scored space a plan
/// carries depends only on those inputs, **not** on the observed arrival
/// rate: the demand-aware selection happens downstream, as scans over the
/// cached space, which is why cadence replans under drifting load still hit.
/// A miss scores the space without ranking it, so it costs the estimator
/// and one walk, not a sort and one [`Config`] allocation per entry; the
/// walk fills the buffers of the plan it replaces.  Plans are shared out
/// as [`Arc`]s, so a hit costs a pointer clone.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entry: Option<(u64, u64, Arc<ScoredPlan>)>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The controller's current scored plan for `budget_per_hour`, reusing
    /// the cached one when the controller's quantized knowledge and the
    /// budget are unchanged.  Returns `None` (and caches nothing) while the
    /// controller cannot plan.
    pub fn plan(
        &mut self,
        controller: &KairosController,
        budget_per_hour: f64,
    ) -> Option<Arc<ScoredPlan>> {
        let signature = controller.knowledge_signature();
        let budget_bits = budget_per_hour.to_bits();
        if let Some((cached_sig, cached_budget, plan)) = &self.entry {
            if *cached_sig == signature && *cached_budget == budget_bits {
                self.hits += 1;
                return Some(plan.clone());
            }
        }
        let planner = controller.planner()?;
        // The plan this miss replaces lends its buffers to the walk when no
        // one else still holds it.
        let spare = self
            .entry
            .take()
            .and_then(|(_, _, plan)| Arc::into_inner(plan))
            .map(|plan| plan.space)
            .unwrap_or_default();
        let plan =
            Arc::new(planner.scored_plan_into(budget_per_hour, &controller.batch_sample(), spare));
        self.misses += 1;
        self.entry = Some((signature, budget_bits, plan.clone()));
        Some(plan)
    }

    /// Number of replans served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of replans that had to recompute.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::{best_homogeneous, calibration::paper_calibration, ec2};
    use kairos_workload::BatchSizeDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(17);
        BatchSizeDistribution::production_default().sample_many(&mut rng, 4000)
    }

    fn planner(model: ModelKind) -> KairosPlanner {
        KairosPlanner::new(PoolSpec::new(ec2::paper_pool()), model, paper_calibration())
    }

    #[test]
    fn plan_respects_budget_and_includes_base() {
        let plan = planner(ModelKind::Rm2).plan(2.5, &sample());
        let pool = PoolSpec::new(ec2::paper_pool());
        assert!(plan.chosen.cost(&pool) <= 2.5 + 1e-9);
        assert!(plan.chosen.count(pool.base_index()) >= 1);
        assert!(plan.ranked.len() > 100);
        assert!(plan.chosen_upper_bound() > 0.0);
    }

    #[test]
    fn chosen_config_is_heterogeneous_and_beats_homogeneous_bound_for_rm2() {
        let plan = planner(ModelKind::Rm2).plan(2.5, &sample());
        let pool = PoolSpec::new(ec2::paper_pool());
        let homo = best_homogeneous(&pool, 2.5);
        let estimator = planner(ModelKind::Rm2).estimator(sample());
        assert!(
            !plan.chosen.is_homogeneous(&pool),
            "RM2 should favour heterogeneity"
        );
        assert!(estimator.estimate(&plan.chosen) > estimator.estimate(&homo));
    }

    #[test]
    fn ranked_list_is_sorted_and_contains_chosen() {
        let plan = planner(ModelKind::Wnd).plan(2.5, &sample());
        assert!(plan.ranked.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(plan.ranked.iter().any(|(c, _)| c == &plan.chosen));
        assert_eq!(plan.top(10).len(), 10);
    }

    #[test]
    fn larger_budget_never_reduces_the_best_upper_bound() {
        let p = planner(ModelKind::Dien);
        let s = sample();
        let small = p.plan(2.5, &s);
        let large = p.plan(10.0, &s);
        assert!(large.ranked[0].1 >= small.ranked[0].1);
        assert!(large.ranked.len() > small.ranked.len());
    }

    #[test]
    #[should_panic(expected = "cannot afford")]
    fn budget_below_one_base_instance_panics() {
        planner(ModelKind::Ncf).plan(0.3, &sample());
    }

    #[test]
    fn scored_plan_chooses_as_the_ranked_plan_and_ranks_into_it() {
        let p = planner(ModelKind::Rm2);
        let s = sample();
        let plan = p.plan(5.0, &s);
        let scored = p.scored_plan(5.0, &s);
        assert_eq!(scored.chosen, plan.chosen);
        assert_eq!(scored.space.len(), plan.ranked.len());
        assert_eq!(
            scored.space.best_bound().to_bits(),
            plan.ranked[0].1.to_bits()
        );
        assert_eq!(scored.into_plan().ranked, plan.ranked);
    }

    #[test]
    fn a_miss_refills_the_replaced_space_exactly() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let mut controller =
            KairosController::with_priors(pool, ModelKind::Wnd, paper_calibration());
        for i in 0..2000u32 {
            controller.observe_query(10 + i % 300);
        }
        let mut cache = PlanCache::new();
        // Large, then small, then large again: each miss walks into the
        // buffers of the plan it replaces.
        for budget in [6.0, 2.5, 6.0] {
            let cached = cache.plan(&controller, budget).unwrap();
            let fresh = controller.scored_plan(budget).unwrap();
            assert_eq!(cached.chosen, fresh.chosen);
            assert_eq!(cached.space.len(), fresh.space.len());
            for i in 0..fresh.space.len() {
                assert_eq!(cached.space.config(i), fresh.space.config(i));
                assert_eq!(
                    cached.space.bound(i).to_bits(),
                    fresh.space.bound(i).to_bits()
                );
                assert_eq!(
                    cached.space.cost(i).to_bits(),
                    fresh.space.cost(i).to_bits()
                );
            }
            assert_eq!(cached.space.top(), fresh.space.top());
        }
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn plan_cache_reuses_until_knowledge_or_budget_changes() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let mut controller =
            KairosController::with_priors(pool, ModelKind::Rm2, paper_calibration());
        for i in 0..2000u32 {
            controller.observe_query(10 + i % 300);
        }
        let mut cache = PlanCache::new();
        let first = cache.plan(&controller, 2.5).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Identical knowledge: the second replan is a pointer clone.
        let second = cache.plan(&controller, 2.5).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // More observations of the *same* mix leave the quantized signature
        // (band mass in twentieths) unchanged: still a cache hit.
        for i in 0..2000u32 {
            controller.observe_query(10 + i % 300);
        }
        let third = cache.plan(&controller, 2.5).unwrap();
        assert!(Arc::ptr_eq(&first, &third));
        // A different budget misses.
        let other = cache.plan(&controller, 5.0).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(cache.misses(), 2);
        // A real mix shift (all-large queries) re-plans.
        for _ in 0..4000 {
            controller.observe_query(900);
        }
        let shifted = cache.plan(&controller, 5.0).unwrap();
        assert!(!Arc::ptr_eq(&other, &shifted));
        assert_eq!(cache.misses(), 3);
    }
}
