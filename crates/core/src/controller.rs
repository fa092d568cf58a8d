//! The Kairos central controller: the online glue between query monitoring,
//! latency learning, configuration planning and query distribution
//! (paper Sec. 6 "Implementation").
//!
//! The controller observes the arriving query stream (batch sizes) and the
//! completed queries (measured latencies), and can at any point
//!
//! * produce a [`Plan`] for a cost budget from its *current* knowledge — this
//!   is what lets Kairos react to load changes in "one shot" (Fig. 12), and
//! * hand out a [`KairosScheduler`] seeded with everything it has learned.
//!
//! It also implements the POP-style sharded planning mode the paper mentions
//! for scaling to very large systems: the budget is split into `k` shards,
//! each planned independently, and the shard configurations are summed.

use crate::distribution::KairosScheduler;
use crate::planner::{KairosPlanner, Plan, ScoredPlan};
use kairos_models::{
    latency::{LatencyProfile, LatencyTable},
    mlmodel::ModelKind,
    predictor::PredictorBank,
    Config, KeepAlivePolicy, PoolSpec, MAX_BATCH_SIZE,
};
use kairos_workload::QueryMonitor;

/// Online controller state.
#[derive(Debug, Clone)]
pub struct KairosController {
    pool: PoolSpec,
    model: ModelKind,
    monitor: QueryMonitor,
    predictors: PredictorBank,
    /// Optional latency priors used for instance types that have not yet been
    /// observed often enough for a linear fit.
    priors: Option<LatencyTable>,
    /// Delivered accuracy of the model *variant* this controller currently
    /// plans for.  `None` means the reference (full-precision) deployment —
    /// the legacy, variant-unaware mode — and leaves the
    /// [knowledge signature](Self::knowledge_signature) untouched so cached
    /// plans from before variant support remain valid.
    variant_accuracy: Option<f64>,
    /// Keep-alive policy of the serverless lane this controller plans for.
    /// `None` means the lane is always-on (the legacy mode) and leaves the
    /// [knowledge signature](Self::knowledge_signature) untouched, so cached
    /// plans from before serverless support remain valid.
    serverless_policy: Option<KeepAlivePolicy>,
}

impl KairosController {
    /// Creates a controller with no prior latency knowledge.
    pub fn new(pool: PoolSpec, model: ModelKind) -> Self {
        Self {
            pool,
            model,
            monitor: QueryMonitor::new(),
            predictors: PredictorBank::new(),
            priors: None,
            variant_accuracy: None,
            serverless_policy: None,
        }
    }

    /// Creates a controller seeded with latency priors (e.g. profiles from a
    /// previous deployment of the same model).
    pub fn with_priors(pool: PoolSpec, model: ModelKind, priors: LatencyTable) -> Self {
        let mut c = Self::new(pool, model);
        c.priors = Some(priors);
        c
    }

    /// The pool the controller currently plans over.
    pub fn pool(&self) -> &PoolSpec {
        &self.pool
    }

    /// The model this controller serves.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// Replaces the planning pool — how a market-aware serving loop feeds
    /// live offering prices (and post-preemption cooldown penalties) into
    /// the planner.  The pool's prices are part of the
    /// [knowledge signature](Self::knowledge_signature), so a price change
    /// invalidates any cached plan.
    ///
    /// # Panics
    /// Panics if the new pool's shape (type names, in order) differs from
    /// the current one: latency knowledge is keyed by type name and would
    /// silently misresolve.
    pub fn set_pool(&mut self, pool: PoolSpec) {
        assert!(
            pool.num_types() == self.pool.num_types()
                && pool
                    .types()
                    .iter()
                    .zip(self.pool.types())
                    .all(|(a, b)| a.name == b.name),
            "set_pool must preserve the pool's shape (only prices may change)"
        );
        self.pool = pool;
    }

    /// Switches the controller to a different variant of its model: the
    /// variant's calibrated latency profiles become the new priors, the
    /// online latency fits are discarded (they described the *old* variant's
    /// kernels), and the delivered accuracy is recorded so it joins the
    /// [knowledge signature](Self::knowledge_signature) — a variant switch
    /// must invalidate every cached plan.  The query monitor is kept: the
    /// arriving batch-size mix is a property of the workload, not of the
    /// variant serving it.
    pub fn adopt_variant(&mut self, priors: LatencyTable, accuracy: f64) {
        self.priors = Some(priors);
        self.predictors = PredictorBank::new();
        self.variant_accuracy = Some(accuracy);
    }

    /// Delivered accuracy of the variant this controller plans for, or `None`
    /// in the legacy reference-only mode (see [`Self::adopt_variant`]).
    pub fn variant_accuracy(&self) -> Option<f64> {
        self.variant_accuracy
    }

    /// Sets (or clears) the keep-alive policy of the lane this controller
    /// plans for.  The policy joins the
    /// [knowledge signature](Self::knowledge_signature): moving a lane
    /// between always-on and any serverless policy — or between two
    /// policies — changes what a plan costs, so cached plans must retire.
    pub fn set_serverless_policy(&mut self, policy: Option<KeepAlivePolicy>) {
        self.serverless_policy = policy;
    }

    /// Keep-alive policy of the lane this controller plans for, or `None`
    /// for an always-on lane (see [`Self::set_serverless_policy`]).
    pub fn serverless_policy(&self) -> Option<&KeepAlivePolicy> {
        self.serverless_policy.as_ref()
    }

    /// Records the batch size of an arriving query (feeds the monitor window).
    pub fn observe_query(&mut self, batch_size: u32) {
        self.monitor.observe(batch_size);
    }

    /// Records a completed query's measured service latency (feeds the online
    /// latency predictors).
    pub fn observe_completion(&mut self, instance_type: &str, batch_size: u32, latency_ms: f64) {
        self.predictors
            .observe(instance_type, batch_size, latency_ms);
    }

    /// Number of queries currently tracked by the monitor window.
    pub fn observed_queries(&self) -> usize {
        self.monitor.len()
    }

    /// The query monitor window (batch-size mix of recent arrivals).
    pub fn monitor(&self) -> &QueryMonitor {
        &self.monitor
    }

    /// The latency knowledge the controller currently has: online fits where
    /// available, priors otherwise.  Returns `None` if some instance type has
    /// neither a fit nor a prior (planning would be guesswork).
    pub fn learned_table(&self) -> Option<LatencyTable> {
        let mut table = LatencyTable::new();
        for ty in self.pool.types() {
            let fitted = self
                .predictors
                .get(&ty.name)
                .and_then(|p| p.linear_fit())
                .filter(|(_, slope)| *slope > 0.0)
                .map(|(intercept, slope)| LatencyProfile::new(intercept.max(0.0), slope));
            let profile = match fitted {
                Some(p) => p,
                None => self
                    .priors
                    .as_ref()
                    .and_then(|t| t.get(self.model, &ty.name))?,
            };
            table.insert(self.model, &ty.name, profile);
        }
        Some(table)
    }

    /// The batch-size sample the planner should use: the monitor window, or a
    /// conservative single-bucket sample when nothing has been observed yet
    /// (assuming worst-case largest queries until evidence says otherwise).
    pub(crate) fn batch_sample(&self) -> Vec<u32> {
        if self.monitor.is_empty() {
            vec![MAX_BATCH_SIZE]
        } else {
            self.monitor.snapshot()
        }
    }

    /// Plans a configuration for the given hourly budget from current
    /// knowledge.  Returns `None` until enough latency knowledge exists.
    pub fn plan(&self, budget_per_hour: f64) -> Option<Plan> {
        Some(self.scored_plan(budget_per_hour)?.into_plan())
    }

    /// [`Self::plan`] without the ranking: the scored affordable space and
    /// the same chosen configuration — what the serving loop replans from.
    pub fn scored_plan(&self, budget_per_hour: f64) -> Option<ScoredPlan> {
        Some(
            self.planner()?
                .scored_plan(budget_per_hour, &self.batch_sample()),
        )
    }

    /// The planner over the controller's current latency knowledge, or
    /// `None` while it cannot plan (see [`Self::learned_table`]).
    pub(crate) fn planner(&self) -> Option<KairosPlanner> {
        let table = self.learned_table()?;
        Some(KairosPlanner::new(self.pool.clone(), self.model, table))
    }

    /// A quantized fingerprint of everything a [`Plan`] depends on besides
    /// the budget: the monitor's batch-size mix and the learned latency
    /// coefficients.  Two controllers (or the same controller at two points
    /// in time) with equal signatures would produce materially identical
    /// plans, so replanning loops can reuse a prior plan — this is
    /// what [`crate::PlanCache`] keys on.
    ///
    /// Quantization is deliberately coarse: the mix histogram is bucketed
    /// into sixteen batch-size bands at 5 % mass resolution, and latency
    /// coefficients are rounded (1/16 ms intercepts, 2⁻¹² ms/query slopes),
    /// so sampling jitter in a stationary workload maps to one signature
    /// while a real mix shift or a revised latency fit changes it.
    pub fn knowledge_signature(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut mix = |value: u64| {
            hash ^= value;
            hash = hash.wrapping_mul(FNV_PRIME);
        };

        // Batch-mix histogram: 16 bands over [0, MAX_BATCH_SIZE], each
        // band's mass quantized to twentieths of the window.
        let mut bands = [0usize; 16];
        let mut total = 0usize;
        for batch in self.monitor.iter() {
            let band = (batch.min(MAX_BATCH_SIZE) as usize * 16) / (MAX_BATCH_SIZE as usize + 1);
            bands[band] += 1;
            total += 1;
        }
        match std::num::NonZeroUsize::new(total) {
            // Worst-case sample sentinel (see `batch_sample`).
            None => mix(u64::MAX),
            Some(total) => {
                for count in bands {
                    mix((count * 20 / total.get()) as u64);
                }
            }
        }

        // Learned latency coefficients per pool type, in pool order.
        match self.learned_table() {
            None => mix(0),
            Some(table) => {
                for ty in self.pool.types() {
                    let profile = table.expect(self.model, &ty.name);
                    mix((profile.intercept_ms * 16.0).round() as i64 as u64);
                    mix((profile.slope_ms * 4096.0).round() as i64 as u64);
                }
            }
        }

        // Live offering prices, exact: a market price step (or a cooldown
        // penalty after a preemption notice) must invalidate cached plans —
        // the affordable set itself changed.  Prices move in discrete steps,
        // so no quantization is needed to keep stationary signatures stable.
        for ty in self.pool.types() {
            mix(ty.price_per_hour.to_bits());
        }

        // Variant identity, exact: a switch to a different variant changes
        // the delivered accuracy and must retire every cached plan.  Legacy
        // (reference-only) controllers skip this mix entirely so their
        // signatures are bit-identical to pre-variant builds.
        if let Some(accuracy) = self.variant_accuracy {
            mix(accuracy.to_bits());
        }

        // Keep-alive policy, exact: a lane moving between always-on and a
        // serverless policy (or between two policies) changes the billing
        // model behind every plan.  Always-on controllers skip this mix so
        // their signatures match pre-serverless builds bit for bit.
        if let Some(policy) = &self.serverless_policy {
            mix(policy.signature_bits());
        }
        hash
    }

    /// POP-style sharded planning: split the budget into `shards` equal parts,
    /// plan each independently, and merge the shard configurations by summing
    /// instance counts.  Useful when the configuration space under the full
    /// budget would be too large to enumerate.
    ///
    /// Every shard gets the same budget and sees the same batch sample, so
    /// the shard plans are identical: the planner runs **once** and the shard
    /// configuration is multiplied by the shard count.
    pub fn plan_sharded(&self, budget_per_hour: f64, shards: usize) -> Option<Config> {
        assert!(shards >= 1, "need at least one shard");
        let chosen = self.scored_plan(budget_per_hour / shards as f64)?.chosen;
        let merged = chosen
            .counts()
            .iter()
            .map(|&c| c * shards)
            .collect::<Vec<_>>();
        Some(Config::new(merged))
    }

    /// Builds a query-distribution scheduler seeded with the controller's
    /// current latency knowledge.
    pub fn make_scheduler(&self) -> KairosScheduler {
        match self.learned_table() {
            Some(table) => KairosScheduler::with_priors(self.model, &table),
            None => KairosScheduler::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::{calibration::paper_calibration, ec2};

    fn pool() -> PoolSpec {
        PoolSpec::new(ec2::paper_pool())
    }

    fn feed_latency_observations(c: &mut KairosController) {
        let table = paper_calibration();
        for ty in ec2::paper_pool() {
            let p = table.expect(ModelKind::Rm2, &ty.name);
            for batch in [10u32, 100, 400, 900] {
                c.observe_completion(&ty.name, batch, p.latency_ms(batch));
            }
        }
    }

    #[test]
    fn learned_table_requires_fits_or_priors() {
        let mut c = KairosController::new(pool(), ModelKind::Rm2);
        assert!(c.learned_table().is_none());
        feed_latency_observations(&mut c);
        let table = c.learned_table().unwrap();
        let truth = paper_calibration();
        for ty in ec2::paper_pool() {
            let learned = table.expect(ModelKind::Rm2, &ty.name);
            let actual = truth.expect(ModelKind::Rm2, &ty.name);
            assert!((learned.latency_ms(500) - actual.latency_ms(500)).abs() < 0.5);
        }
    }

    #[test]
    fn priors_fill_in_for_unobserved_types() {
        let c = KairosController::with_priors(pool(), ModelKind::Wnd, paper_calibration());
        assert!(c.learned_table().is_some());
        assert!(c.plan(2.5).is_some());
    }

    #[test]
    fn plan_uses_observed_batch_mix() {
        let mut c = KairosController::with_priors(pool(), ModelKind::Rm2, paper_calibration());
        // Observe a small-query-heavy stream.
        for i in 0..2000u32 {
            c.observe_query(10 + i % 200);
        }
        for i in 0..100u32 {
            c.observe_query(700 + i % 300);
        }
        assert_eq!(c.observed_queries(), 2100);
        let plan = c.plan(2.5).unwrap();
        assert!(
            !plan.chosen.is_homogeneous(&pool()),
            "small-heavy RM2 mix should go heterogeneous"
        );
    }

    #[test]
    fn planning_without_observations_is_conservative_but_possible() {
        let c = KairosController::with_priors(pool(), ModelKind::Dien, paper_calibration());
        // No observed queries: the sample degenerates to the largest batch, so
        // the planner cannot credit auxiliary instances with anything.
        let plan = c.plan(2.5).unwrap();
        assert!(plan.chosen.count(0) >= 1);
    }

    #[test]
    fn sharded_plan_costs_at_most_the_budget() {
        let mut c = KairosController::with_priors(pool(), ModelKind::Rm2, paper_calibration());
        for i in 0..1000u32 {
            c.observe_query(5 + i % 300);
        }
        let merged = c.plan_sharded(5.0, 2).unwrap();
        assert!(merged.cost(&pool()) <= 5.0 + 1e-9);
        assert!(merged.total_instances() >= 2);
    }

    #[test]
    fn sharded_plan_is_the_shard_plan_scaled() {
        let mut c = KairosController::with_priors(pool(), ModelKind::Rm2, paper_calibration());
        for i in 0..1000u32 {
            c.observe_query(5 + i % 300);
        }
        let shards = 3usize;
        let merged = c.plan_sharded(7.5, shards).unwrap();
        let single = c.plan(7.5 / shards as f64).unwrap().chosen;
        let expected: Vec<usize> = single.counts().iter().map(|&n| n * shards).collect();
        assert_eq!(merged.counts(), &expected[..]);
    }

    #[test]
    fn scheduler_is_seeded_with_learned_knowledge() {
        let mut c = KairosController::new(pool(), ModelKind::Rm2);
        feed_latency_observations(&mut c);
        let s = c.make_scheduler();
        assert!(s.predictors().total_observations() > 0);
    }

    #[test]
    fn price_changes_join_the_knowledge_signature() {
        let mut c = KairosController::with_priors(pool(), ModelKind::Rm2, paper_calibration());
        for i in 0..2000u32 {
            c.observe_query(10 + i % 300);
        }
        let before = c.knowledge_signature();
        // Re-setting the same pool leaves the signature unchanged.
        c.set_pool(pool());
        assert_eq!(c.knowledge_signature(), before);
        // A price move (a market step) must change it, so cached plans die.
        let mut repriced = ec2::paper_pool();
        repriced[2].price_per_hour = 0.05;
        c.set_pool(PoolSpec::new(repriced));
        assert_ne!(c.knowledge_signature(), before);
    }

    #[test]
    fn adopting_a_variant_changes_the_signature_and_resets_latency_fits() {
        let mut c = KairosController::with_priors(pool(), ModelKind::Rm2, paper_calibration());
        for i in 0..2000u32 {
            c.observe_query(10 + i % 300);
        }
        feed_latency_observations(&mut c);
        assert_eq!(c.variant_accuracy(), None);
        let before = c.knowledge_signature();

        // Adopt an int8-style variant: same profile table scaled 1.8x faster.
        let mut faster = LatencyTable::new();
        let truth = paper_calibration();
        for ty in ec2::paper_pool() {
            let p = truth.expect(ModelKind::Rm2, &ty.name);
            faster.insert(
                ModelKind::Rm2,
                &ty.name,
                LatencyProfile::new(p.intercept_ms / 1.8, p.slope_ms / 1.8),
            );
        }
        c.adopt_variant(faster.clone(), 0.97);
        assert_eq!(c.variant_accuracy(), Some(0.97));
        // Online fits are gone: the learned table is now the variant priors.
        let learned = c.learned_table().unwrap();
        for ty in ec2::paper_pool() {
            let got = learned.expect(ModelKind::Rm2, &ty.name);
            let want = faster.expect(ModelKind::Rm2, &ty.name);
            assert_eq!(got.intercept_ms.to_bits(), want.intercept_ms.to_bits());
            assert_eq!(got.slope_ms.to_bits(), want.slope_ms.to_bits());
        }
        let after = c.knowledge_signature();
        assert_ne!(after, before, "a variant switch must retire cached plans");
        // Same priors, different accuracy: still a different signature.
        c.adopt_variant(faster, 0.95);
        assert_ne!(c.knowledge_signature(), after);
        // The workload monitor survives the switch.
        assert_eq!(c.observed_queries(), 2000);
    }

    #[test]
    fn keep_alive_policy_moves_change_the_signature() {
        let mut c = KairosController::with_priors(pool(), ModelKind::Rm2, paper_calibration());
        for i in 0..2000u32 {
            c.observe_query(10 + i % 300);
        }
        assert!(c.serverless_policy().is_none());
        let always_on = c.knowledge_signature();

        // Always-on -> fixed keep-alive: cached plans must retire.
        c.set_serverless_policy(Some(KeepAlivePolicy::fixed(10_000_000).unwrap()));
        let fixed_10s = c.knowledge_signature();
        assert_ne!(fixed_10s, always_on);
        // A different deadline is a different policy.
        c.set_serverless_policy(Some(KeepAlivePolicy::fixed(60_000_000).unwrap()));
        let fixed_60s = c.knowledge_signature();
        assert_ne!(fixed_60s, fixed_10s);
        // A policy-family move (fixed -> hybrid) changes it too.
        c.set_serverless_policy(Some(KeepAlivePolicy::hybrid(1_000_000, 24, 0.95).unwrap()));
        assert_ne!(c.knowledge_signature(), fixed_60s);
        // Clearing the policy restores the pre-serverless signature exactly.
        c.set_serverless_policy(None);
        assert_eq!(c.knowledge_signature(), always_on);
    }

    #[test]
    #[should_panic(expected = "preserve the pool's shape")]
    fn set_pool_rejects_shape_changes() {
        let mut c = KairosController::with_priors(pool(), ModelKind::Rm2, paper_calibration());
        c.set_pool(PoolSpec::new(ec2::figure1_pool()));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let c = KairosController::with_priors(pool(), ModelKind::Rm2, paper_calibration());
        let _ = c.plan_sharded(2.5, 0);
    }
}
