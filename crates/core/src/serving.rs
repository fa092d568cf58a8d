//! The online serving loop: [`KairosController`] in the loop of a live,
//! reconfigurable cluster.
//!
//! This module holds the loop's vocabulary and its per-model planning
//! state.  A [`ModelLane`] is one served model's controller, plan cache
//! and variant runtime; the [`InferenceService`] that holds the lanes owns
//! every fleet-wide attachment (planning pool, options, failure-domain
//! placements, market, fault process, serverless runtime) and drives the one
//! serving control loop (see `control_loop.rs`).  [`ServingSystem`] is the
//! service's one-lane form for single-model callers: its
//! [`run`](ServingSystem::run) is [`InferenceService::run`] from no drift
//! baseline, with the same scheduler and the same outcome type.
//!
//! Replanning is **demand-aware**: rather than always deploying the
//! maximum-throughput configuration under the budget cap, the driver picks
//! the *cheapest* affordable configuration whose throughput upper bound covers
//! the observed arrival rate (times a headroom factor), falling back to the
//! full-budget pick when demand exceeds every cheaper option.  This is what
//! makes the loop elastic in both directions: it scales out on a rate spike
//! and scales in — gracefully draining surplus instances — when load drops.

use crate::controller::KairosController;
use crate::planner::{PlanCache, ScoredPlan};
use crate::service::{InferenceService, MultiServingOutcome};
use crate::variants::VariantRuntime;
use kairos_models::{
    latency::{LatencyProfile, LatencyTable},
    mlmodel::ModelKind,
    Config, FailureDomain, FaultEvent, FaultProcess, Market, OfferingCatalog, PoolSpec,
    VariantCatalog,
};
use kairos_sim::{ClusterSpec, EngineEvent, ServiceSpec, SimEngine};
use kairos_workload::{BatchSizeDistribution, MixSpec, ModelId, TimeUs, Trace};
use std::collections::VecDeque;
use std::sync::Arc;

/// Capacity headroom: the deployed configuration's throughput upper bound
/// must cover `observed rate × DEMAND_HEADROOM`.
pub(crate) const DEMAND_HEADROOM: f64 = 1.35;

/// Scale-in hysteresis: the deployed configuration is kept (even when a
/// cheaper one would cover demand) unless it costs more than
/// `SHRINK_FACTOR ×` the cheapest sufficient alternative.  Prevents
/// near-equivalent configurations from thrashing the cluster when the demand
/// estimate wobbles.
const SHRINK_FACTOR: f64 = 1.25;

/// How long a spot offering stays priced out of the planner after one of its
/// preemption notices (market-attached runs only): re-buying the exact
/// capacity the cloud is actively reclaiming would bounce straight into the
/// next kill.
const SPOT_COOLDOWN_US: TimeUs = 2_000_000;

/// Base delay of the capped exponential purchase backoff: after a rejected
/// purchase (zone outage or capacity shortage) the offering is retried no
/// sooner than `PURCHASE_BACKOFF_US << min(failures, PURCHASE_BACKOFF_CAP)`
/// later, and is priced out of the planning pool meanwhile so replans steer
/// spend to alternative offerings and domains.
const PURCHASE_BACKOFF_US: TimeUs = 400_000;

/// Exponent cap of the purchase backoff.
const PURCHASE_BACKOFF_CAP: u32 = 3;

/// The choices the operator makes for the online serving loop; every other
/// loop parameter is a named constant.
#[derive(Debug, Clone, Copy)]
pub struct ServingOptions {
    /// Hourly budget cap handed to the planner.
    pub budget_per_hour: f64,
    /// Cadence of unconditional replanning.
    pub replan_interval_us: TimeUs,
    /// Provisioning delay charged to every added instance.
    pub provisioning_delay_us: TimeUs,
    /// Service-noise seed passed to the engine.
    pub seed: u64,
    /// Dynamic batcher: maximum fused batch size per instance (summed over
    /// member queries' batch sizes).  `0` disables batching: instances serve
    /// one query at a time (the paper's serial service).
    pub batch_max_size: u32,
    /// Dynamic batcher: how long a forming batch waits for company before
    /// firing anyway (only meaningful when `batch_max_size > 0`).
    pub batch_timeout_us: TimeUs,
    /// Domain-spread constraint: no failure domain may hold more than this
    /// fraction of the deployed instances (checked over the planner's scored
    /// configurations through the catalog's per-offering domain table, so
    /// solvers stay domain-free).  `None` plans domain-blind.
    pub max_fraction_per_domain: Option<f64>,
    /// Accuracy floor for variant auto-selection
    /// ([`InferenceService::with_variants`]): a variant below the floor is
    /// never served, no matter the pressure.  `None` admits every catalog
    /// variant; without an attached variant catalog the floor is inert.
    pub min_accuracy: Option<f64>,
}

impl Default for ServingOptions {
    fn default() -> Self {
        Self {
            budget_per_hour: 2.5,
            replan_interval_us: 1_000_000,
            provisioning_delay_us: 500_000,
            seed: 0,
            batch_max_size: 0,
            batch_timeout_us: 2_000,
            max_fraction_per_domain: None,
            min_accuracy: None,
        }
    }
}

/// Builder-style setters so call sites configure only what they deviate on:
/// `ServingOptions::default().budget(4.0).replan_every(500_000)`.
impl ServingOptions {
    /// Sets the hourly budget cap.
    pub fn budget(mut self, budget_per_hour: f64) -> Self {
        self.budget_per_hour = budget_per_hour;
        self
    }

    /// Sets the unconditional replanning cadence.
    pub fn replan_every(mut self, interval_us: TimeUs) -> Self {
        self.replan_interval_us = interval_us;
        self
    }

    /// Sets the provisioning delay charged to every added instance.
    pub fn provisioning_delay(mut self, delay_us: TimeUs) -> Self {
        self.provisioning_delay_us = delay_us;
        self
    }

    /// Sets the service-noise seed passed to the engine.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the per-instance dynamic batcher: queries fuse until their
    /// batch sizes sum past `max_size` or the oldest waits `timeout_us`.
    pub fn batching(mut self, max_size: u32, timeout_us: TimeUs) -> Self {
        self.batch_max_size = max_size;
        self.batch_timeout_us = timeout_us;
        self
    }

    /// Enables the domain-spread constraint: no failure domain may hold more
    /// than `fraction` of the deployed instances.
    pub fn spread_limit(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction) && fraction > 0.0,
            "spread fraction must lie in (0, 1]"
        );
        self.max_fraction_per_domain = Some(fraction);
        self
    }

    /// Sets the accuracy floor for variant auto-selection.
    ///
    /// # Panics
    /// Panics unless `floor` lies in (0, 1].
    pub fn min_accuracy(mut self, floor: f64) -> Self {
        assert!(
            floor.is_finite() && floor > 0.0 && floor <= 1.0,
            "accuracy floor must lie in (0, 1]"
        );
        self.min_accuracy = Some(floor);
        self
    }

    /// The domain-spread constraint plans honor over the per-type domain
    /// table `placements`: `None` unless both the fraction and the table are
    /// set.
    pub(crate) fn spread<'a>(
        &self,
        placements: &'a [FailureDomain],
    ) -> Option<(f64, &'a [FailureDomain])> {
        self.max_fraction_per_domain
            .zip((!placements.is_empty()).then_some(placements))
    }
}

/// What caused a replan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanTrigger {
    /// The periodic replanning cadence fired.
    Cadence,
    /// The observed arrival rate drifted past the threshold.
    Drift,
    /// The cloud market moved: a price step, a preemption notice, or a
    /// forced kill.
    Market,
    /// A correlated fault was detected: a zone outage began or lifted, a
    /// capacity shortage toggled, or an instance started straggling.
    Fault,
}

/// One applied reconfiguration (replans that change nothing are not logged).
#[derive(Debug, Clone)]
pub struct ReconfigEvent {
    /// Virtual time the reconfiguration was issued.
    pub at_us: TimeUs,
    /// The model whose sub-cluster was steered ([`ModelId::DEFAULT`] for
    /// single-model serving).
    pub model: ModelId,
    /// What caused it.
    pub trigger: ReplanTrigger,
    /// Arrival-rate estimate that drove the plan, in QPS.
    pub demand_qps: f64,
    /// The configuration the cluster was steered towards.
    pub target: Config,
    /// Pool type index of every instance added.
    pub added_types: Vec<usize>,
    /// Cluster index of every instance retired.
    pub retired_instances: Vec<usize>,
}

/// One applied model-variant switch (selections that keep the live variant
/// are not logged).
#[derive(Debug, Clone)]
pub struct VariantSwitch {
    /// Virtual time the switch was applied.
    pub at_us: TimeUs,
    /// The model whose serving variant changed ([`ModelId::DEFAULT`] for
    /// single-model serving).
    pub model: ModelId,
    /// Name of the variant served before the switch.
    pub from: String,
    /// Name of the variant served after the switch.
    pub to: String,
    /// Delivered accuracy of the new variant.
    pub accuracy: f64,
    /// The replan that decided the switch.
    pub trigger: ReplanTrigger,
}

/// Price multiplier applied to an offering during its post-preemption
/// cooldown: high enough that the planner never buys it (the enumeration box
/// collapses to zero affordable instances for any realistic budget).
const COOLDOWN_PRICE_FACTOR: f64 = 40.0;

/// The serving loop's view of an attached cloud market: the offering
/// catalog, the live price oracle, and the post-preemption cooldowns that
/// make replanning *preemption-aware* (a just-reclaimed spot offering is
/// priced out until the storm passes).
#[derive(Debug, Clone)]
pub struct MarketState {
    catalog: OfferingCatalog,
    market: Arc<dyn Market>,
    cooldown_until: Vec<TimeUs>,
}

impl MarketState {
    /// Binds a catalog to its price oracle.
    ///
    /// # Panics
    /// Panics if the market does not price exactly the catalog's offerings.
    pub fn new(catalog: OfferingCatalog, market: Arc<dyn Market>) -> Self {
        assert_eq!(
            market.num_offerings(),
            catalog.len(),
            "market must price exactly the catalog's offerings"
        );
        let n = catalog.len();
        Self {
            catalog,
            market,
            cooldown_until: vec![0; n],
        }
    }

    /// The offering catalog.
    pub fn catalog(&self) -> &OfferingCatalog {
        &self.catalog
    }

    /// The price oracle.
    pub fn market(&self) -> &Arc<dyn Market> {
        &self.market
    }

    /// Whether an offering is inside its post-preemption cooldown at `now`.
    pub fn in_cooldown(&self, offering: usize, now: TimeUs) -> bool {
        self.cooldown_until[offering] > now
    }

    /// The pool the planner should enumerate at `now`: live market prices,
    /// with offerings inside their post-preemption cooldown priced out (at
    /// a prohibitive multiple of their on-demand reference price, which
    /// zeroes their affordable count under any realistic budget).
    pub fn planning_pool(&self, now: TimeUs) -> PoolSpec {
        let prices: Vec<f64> = (0..self.catalog.len())
            .map(|i| {
                if self.in_cooldown(i, now) {
                    self.catalog.on_demand_price(i) * COOLDOWN_PRICE_FACTOR
                } else {
                    self.market.price_at(i, now)
                }
            })
            .collect();
        self.catalog.pool_with_prices(&prices)
    }

    /// Digests a market-facing engine event; returns `true` when the event
    /// warrants an immediate replan (price moved or capacity was reclaimed).
    pub fn on_event(&mut self, event: &EngineEvent, now: TimeUs) -> bool {
        match event {
            EngineEvent::PriceStep { .. } => true,
            EngineEvent::PreemptionNotice { offering, .. } => {
                self.cooldown_until[*offering] = now + SPOT_COOLDOWN_US;
                true
            }
            EngineEvent::InstancePreempted { .. } => true,
            _ => false,
        }
    }

    /// Clears the cooldown book.  Called at the end of every run: cooldowns
    /// are stamped in that run's virtual time and must not bleed into the
    /// next run's fresh clock.
    pub fn reset(&mut self) {
        self.cooldown_until.fill(0);
    }
}

/// Per-offering capped exponential backoff over rejected purchases.  A
/// rejected purchase (zone outage, capacity shortage) parks the offering
/// until 400 ms `<< min(failures, 3)` elapses; while parked the offering is
/// also priced out of the planning pool, so replans steer spend to
/// alternative offerings and domains instead of hammering the dead one.
#[derive(Debug, Clone)]
pub struct PurchaseBackoff {
    failures: Vec<u32>,
    retry_at: Vec<TimeUs>,
}

impl PurchaseBackoff {
    /// A clean backoff book over `num_types` offerings.
    pub fn new(num_types: usize) -> Self {
        Self {
            failures: vec![0; num_types],
            retry_at: vec![0; num_types],
        }
    }

    /// Number of offerings the book tracks.
    pub(crate) fn num_types(&self) -> usize {
        self.retry_at.len()
    }

    /// Whether purchases of `type_index` are parked at `now`.
    pub fn blocked(&self, type_index: usize, now: TimeUs) -> bool {
        self.retry_at[type_index] > now
    }

    /// Whether any offering is parked at `now`.
    pub fn any_blocked(&self, now: TimeUs) -> bool {
        self.retry_at.iter().any(|&t| t > now)
    }

    /// Books one rejected purchase: doubles the delay up to the cap.
    pub fn note_rejection(&mut self, type_index: usize, now: TimeUs) {
        let exponent = self.failures[type_index].min(PURCHASE_BACKOFF_CAP);
        self.retry_at[type_index] = now + (PURCHASE_BACKOFF_US << exponent);
        self.failures[type_index] = self.failures[type_index].saturating_add(1);
    }

    /// Books one successful purchase: the offering is healthy again.
    pub fn note_success(&mut self, type_index: usize) {
        self.failures[type_index] = 0;
        self.retry_at[type_index] = 0;
    }

    /// Parks the offering until `until_us` without burning a failure: used
    /// when a fault window is *known* to reject purchases (a zone outage or
    /// capacity shortage announced itself), so there is no point probing.
    /// Never shortens an existing exponential-backoff hold.
    pub fn park(&mut self, type_index: usize, until_us: TimeUs) {
        self.retry_at[type_index] = self.retry_at[type_index].max(until_us);
    }

    /// `base` with every parked offering priced out (same prohibitive
    /// multiple as the spot cooldown), so the planner routes around it.  The
    /// pool's base anchor keeps its price — every enumerable configuration
    /// carries a base instance, so pricing it out would leave the planner
    /// with nothing; purchases of it are still parked at reconcile time.
    pub(crate) fn penalized_pool(&self, base: &PoolSpec, now: TimeUs) -> PoolSpec {
        PoolSpec::new(
            base.types()
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let mut t = t.clone();
                    if self.blocked(i, now) && !t.is_base {
                        t.price_per_hour *= COOLDOWN_PRICE_FACTOR;
                    }
                    t
                })
                .collect(),
        )
    }
}

/// One served model's planning state: its controller (which holds the
/// lane's planning pool), its plan cache and its variant runtime.  The
/// [`InferenceService`] that holds the lane owns every fleet-wide
/// attachment; what the lane needs of them — its budget share, the accuracy
/// floor, the domain spread — reaches it as an argument.
#[derive(Debug, Clone)]
pub struct ModelLane {
    /// Query monitor, latency predictors and the live planning pool.
    pub(crate) controller: KairosController,
    /// Memoizes the scored plan across replans, keyed on the controller's
    /// quantized knowledge signature *and* the budget: a replan whose key
    /// matches the previous one reuses the prior scored space instead of
    /// re-enumerating and re-scoring the configuration space.
    pub(crate) plan_cache: PlanCache,
    /// The attached variant lanes, if any (see
    /// [`InferenceService::with_variants`]).  `None` serves the reference
    /// only, exactly as before variants existed.
    pub(crate) variants: Option<VariantRuntime>,
}

impl ModelLane {
    /// The controller driving the lane.
    pub fn controller(&self) -> &KairosController {
        &self.controller
    }

    /// The plan cache: how many replans reused the previous scored space
    /// versus recomputed it (diagnostics for the replanning hot path).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Name of the variant the lane is currently serving (`None` without an
    /// attached catalog).
    pub fn active_variant(&self) -> Option<&str> {
        self.variants.as_ref().map(|v| v.active_lane().name())
    }

    /// Runs the variant auto-selection for one replan under the accuracy
    /// floor `min_accuracy` and applies a switch to the controller if the
    /// winner differs from the live variant.  Returns what the caller must
    /// apply to its engine — `(from, to, pool-ordered profiles, accuracy)` —
    /// or `None` when the live variant stays (or no catalog is attached).
    pub(crate) fn switch_variant_if_needed(
        &mut self,
        min_accuracy: Option<f64>,
        budget_per_hour: f64,
        demand_qps: f64,
    ) -> Option<(String, String, Vec<LatencyProfile>, f64)> {
        let runtime = self.variants.as_mut()?;
        let winner =
            runtime.select_lane(&self.controller, min_accuracy, budget_per_hour, demand_qps);
        if winner == runtime.active() {
            return None;
        }
        let from = runtime.active_lane().variant.name.clone();
        let lane = &runtime.lanes()[winner];
        let to = lane.variant.name.clone();
        let profiles = lane.profiles.clone();
        let accuracy = lane.variant.accuracy;
        self.controller.adopt_variant(lane.priors.clone(), accuracy);
        runtime.set_active(winner);
        Some((from, to, profiles, accuracy))
    }

    /// The engine hot-swap a fresh run must apply before its first event
    /// when the lane is not on the reference variant (a previous run may
    /// have left a cheaper variant live): `(profiles, accuracy)`.
    pub(crate) fn initial_variant_profiles(&self) -> Option<(Vec<LatencyProfile>, f64)> {
        let runtime = self.variants.as_ref()?;
        if runtime.active() == 0 {
            return None;
        }
        let lane = runtime.active_lane();
        Some((lane.profiles.clone(), lane.variant.accuracy))
    }

    /// Picks the cheapest configuration within `budget_per_hour` whose
    /// throughput upper bound covers `demand_qps × demand_headroom`, from
    /// the controller's current knowledge, under the domain `spread` (see
    /// [`ServingOptions::spread`]).  Falls back to the planner's full-budget
    /// choice when no cheaper configuration suffices, and to `None` when the
    /// controller cannot plan yet.
    pub(crate) fn plan_for_demand_with_budget(
        &self,
        spread: Option<(f64, &[FailureDomain])>,
        budget_per_hour: f64,
        demand_qps: f64,
    ) -> Option<Config> {
        let plan = self.controller.scored_plan(budget_per_hour)?;
        // The spread constraint binds from the very first deployment: a
        // fleet that only spreads after its first cadence replan spends the
        // opening interval fully concentrated.
        let required = demand_qps * DEMAND_HEADROOM;
        Some(demand_candidate(&plan, required, None, spread).0)
    }

    /// The next deployment target for this lane's model given current
    /// knowledge, observed demand, an explicit budget cap, the domain
    /// `spread`, and the sub-cluster deployed right now.  Applies the
    /// scale-in hysteresis described on `SHRINK_FACTOR` and goes through the
    /// plan cache (keyed on the controller's knowledge signature *and* the
    /// budget), so a replan under unchanged knowledge and unchanged budget
    /// split skips the enumeration walk, and every question asked of the
    /// plan is one scan.  With `blocked` (the run's backoff book at its
    /// current time), a target that grows a parked type is not realizable
    /// and loses to one that is.
    pub(crate) fn select_target(
        &mut self,
        spread: Option<(f64, &[FailureDomain])>,
        budget_per_hour: f64,
        demand_qps: f64,
        current: &Config,
        blocked: Option<(&PurchaseBackoff, TimeUs)>,
    ) -> Option<Config> {
        let plan = self.plan_cache.plan(&self.controller, budget_per_hour)?;
        let pool = self.controller.pool();
        let required = demand_qps * DEMAND_HEADROOM;
        // Realizability first: during an announced fault window the parked
        // offerings reject every purchase, so a target that *grows* a parked
        // type is a phantom plan — reconcile would shed real capacity against
        // replacements that can never land.  (The price penalty alone cannot
        // express this for the base type, which stays unpenalized so the
        // planner always has an affordable anchor.)
        let realizable = blocked
            .filter(|(backoff, now)| backoff.any_blocked(*now))
            .map(|(backoff, now)| {
                move |counts: &[usize]| purchasable(counts, current, pool, backoff, now)
            });
        // The spread constraint filters the scored space *after* the solver
        // ran — planners stay domain-free and the per-offering domain table
        // resolves each coordinate back to its zone here.  While a fault
        // window actively blocks offerings, the spread *preference* is
        // suspended: concentrating in the surviving domains is exactly what
        // the moment calls for (the constraint would otherwise veto the
        // failover), and the next fault replan after restore re-balances the
        // fleet.
        let (candidate, realized) = demand_candidate(
            &plan,
            required,
            realizable.as_ref().map(|f| f as CountsFilter<'_>),
            spread,
        );
        // Keep the deployment when it still (approximately) covers demand —
        // the 0.8 slack absorbs upper-bound wobble as knowledge evolves — and
        // is not substantially more expensive than the candidate.  A
        // deployment that violates the spread constraint is never kept.
        let keep = plan.space.bound_of(current) >= required * 0.8
            && current.cost(pool) <= candidate.cost(pool) * SHRINK_FACTOR
            && (realized
                || spread.is_none_or(|(fraction, table)| {
                    within_spread(current.counts(), table, fraction)
                }));
        Some(if keep { current.clone() } else { candidate })
    }
}

/// The single-model serving system: a one-lane [`InferenceService`] whose
/// runs start with no drift baseline.
#[derive(Debug, Clone)]
pub struct ServingSystem {
    service: InferenceService,
}

impl ServingSystem {
    /// Creates a serving system.  `priors` seeds the controller's latency
    /// knowledge (without priors the first plan must wait for online fits).
    pub fn new(
        pool: PoolSpec,
        model: ModelKind,
        priors: Option<LatencyTable>,
        options: ServingOptions,
    ) -> Self {
        Self {
            service: InferenceService::new(pool, &[model], priors, options),
        }
    }

    /// Creates a **market-aware** serving system over an offering catalog
    /// (see [`InferenceService::with_market`]).
    pub fn with_market(
        catalog: OfferingCatalog,
        market: Arc<dyn Market>,
        model: ModelKind,
        priors: Option<LatencyTable>,
        options: ServingOptions,
    ) -> Self {
        Self {
            service: InferenceService::with_market(catalog, market, &[model], priors, options),
        }
    }

    /// Attaches a variant catalog (see [`InferenceService::with_variants`]).
    ///
    /// # Panics
    /// Panics if the catalog has no variants for this system's model or if
    /// `base` lacks a profile for some pool type.
    #[must_use]
    pub fn with_variants(self, catalog: &VariantCatalog, base: &LatencyTable) -> Self {
        Self {
            service: self.service.with_variants(catalog, base),
        }
    }

    /// Attaches a correlated-fault process (see
    /// [`InferenceService::with_fault_process`]).
    #[must_use]
    pub fn with_fault_process(self, process: FaultProcess) -> Self {
        Self {
            service: self.service.with_fault_process(process),
        }
    }

    /// Warm-starts the query monitor with `n` samples of a batch mix (a real
    /// deployment inherits the previous window; a fresh simulation has to
    /// seed it, or the first plans act on the conservative worst-case
    /// sample).
    pub fn warm_monitor(&mut self, mix: &BatchSizeDistribution, n: usize, seed: u64) {
        let mix = MixSpec::single(ModelId::DEFAULT, mix.clone());
        self.service.warm_monitors(&mix, n, seed);
    }

    /// Picks the cheapest configuration (within the budget cap) whose
    /// throughput upper bound covers `demand_qps × demand_headroom`, from
    /// the controller's current knowledge.  Falls back to the planner's
    /// full-budget choice when no cheaper configuration suffices, and to
    /// `None` when the controller cannot plan yet.
    pub fn plan_for_demand(&self, demand_qps: f64) -> Option<Config> {
        let fleet = &self.service.fleet;
        let spread = fleet.options.spread(&fleet.placements);
        let lane = &self.service.lanes[0];
        lane.plan_for_demand_with_budget(spread, fleet.options.budget_per_hour, demand_qps)
    }

    /// The controller driving the loop.
    pub fn controller(&self) -> &KairosController {
        self.service.lanes[0].controller()
    }

    /// The plan cache: how many replans reused the previous scored space
    /// versus recomputed it (diagnostics for the replanning hot path).
    pub fn plan_cache(&self) -> &PlanCache {
        self.service.lanes[0].plan_cache()
    }

    /// Name of the variant the loop is currently serving (`None` without an
    /// attached catalog).
    pub fn active_variant(&self) -> Option<&str> {
        self.service.lanes[0].active_variant()
    }

    /// Runs the controller-in-the-loop simulation of `trace` on `service`,
    /// starting from `initial`: [`InferenceService::run`] over the one lane,
    /// reconfiguring the cluster live.  Every run starts with no drift
    /// baseline.  With one lane, every trigger restarts the replan cadence,
    /// even one that finds no fresh rate to plan with.
    ///
    /// # Panics
    /// Panics if `service` is not a spec of this system's model, or if the
    /// trace contains a query for any model but [`ModelId::DEFAULT`].
    pub fn run(
        &mut self,
        initial: &Config,
        service: &ServiceSpec,
        trace: &Trace,
    ) -> MultiServingOutcome {
        self.service.planned.fill(None);
        self.service.run(
            &ClusterSpec::single(initial.clone()),
            std::slice::from_ref(service),
            trace,
        )
    }
}

/// A predicate over a configuration's per-type counts.
type CountsFilter<'a> = &'a dyn Fn(&[usize]) -> bool;

/// The demand-aware candidate over a scored plan, shared by initial plans
/// and replans.  The filters apply in order, `realizable` then the domain
/// `spread`, and the first one some entry passes binds: the pick is its
/// cheapest entry covering `required` QPS, or its top-ranked entry when
/// none covers.  When no filter binds, the pick is the cheapest covering
/// entry of the whole space, else the planner's choice.  The flag tells
/// whether the realizability filter bound the pick.
fn demand_candidate(
    plan: &ScoredPlan,
    required: f64,
    realizable: Option<CountsFilter<'_>>,
    spread: Option<(f64, &[FailureDomain])>,
) -> (Config, bool) {
    let space = &plan.space;
    let pick = |filter: CountsFilter<'_>| {
        space
            .cheapest_covering(required, filter)
            .or_else(|| space.best(filter))
    };
    if let Some(i) = realizable.and_then(pick) {
        return (space.config(i), true);
    }
    if let Some((fraction, table)) = spread {
        if let Some(i) = pick(&|counts| within_spread(counts, table, fraction)) {
            return (space.config(i), false);
        }
        // No configuration satisfies the spread (e.g. a single-offering
        // catalog): plan unconstrained rather than not at all.
    }
    let unconstrained = space
        .cheapest_covering(required, |_| true)
        .map_or_else(|| plan.chosen.clone(), |i| space.config(i));
    (unconstrained, false)
}

/// Whether `target` can be realized right now: every type it grows beyond
/// the current deployment must be purchasable (not parked in the backoff
/// book).  Shrinking or holding a type needs no purchase and always passes.
/// Base types get a floor of one, mirroring the price-penalty exemption —
/// every enumerable configuration carries a base instance, so holding them
/// strictly to the rule would empty the plan space mid-drain; growing base
/// capacity *beyond* that floor in a parked domain is still vetoed, so the
/// planner cannot paper over an outage with phantom base instances.
fn purchasable(
    target: &[usize],
    current: &Config,
    pool: &PoolSpec,
    backoff: &PurchaseBackoff,
    now: TimeUs,
) -> bool {
    target.iter().enumerate().all(|(i, &n)| {
        let held = current.counts().get(i).copied().unwrap_or(0);
        let cap = if pool.types()[i].is_base {
            held.max(1)
        } else {
            held
        };
        n <= cap || !backoff.blocked(i, now)
    })
}

/// End of the latest fault window of `process` that is active on `domain` at
/// `now`, if any: a zone outage spanning `[start, start + duration)` or a
/// capacity shortage spanning `[start, end)`.  Straggler onsets have no
/// window — they degrade capacity but never reject purchases.
pub(crate) fn fault_window_end(
    process: &FaultProcess,
    domain: &FailureDomain,
    now: TimeUs,
) -> Option<TimeUs> {
    process
        .events()
        .iter()
        .filter_map(|event| match event {
            FaultEvent::ZoneOutage {
                domain: d,
                start_us,
                duration_us,
            } if d == domain && *start_us <= now && now < start_us + duration_us => {
                Some(start_us + duration_us)
            }
            FaultEvent::CapacityShortage {
                domain: d,
                start_us,
                end_us,
            } if d == domain && *start_us <= now && now < *end_us => Some(*end_us),
            _ => None,
        })
        .max()
}

/// Whether no failure domain holds more than `fraction` of the
/// configuration's instances (per-type `counts`, per-type domain `table`).
/// Single-instance deployments trivially pass: there is nothing to spread.
/// Allocation-free: each occupied domain is totalled once, at its first
/// occupied type.
pub(crate) fn within_spread(counts: &[usize], table: &[FailureDomain], fraction: f64) -> bool {
    let total: usize = counts.iter().sum();
    if total <= 1 {
        return true;
    }
    let limit = fraction * total as f64 + 1e-9;
    let occupied = || (0..counts.len()).filter(|&j| counts[j] > 0);
    occupied().all(|i| {
        let domain = &table[i];
        let totalled = occupied()
            .take_while(|&j| j < i)
            .any(|j| table[j] == *domain);
        let held: usize = occupied()
            .filter(|&j| table[j] == *domain)
            .map(|j| counts[j])
            .sum();
        totalled || held as f64 <= limit
    })
}

/// Offered-rate estimate (QPS) over the arrivals within `horizon_us` of
/// `now`; older entries are pruned in place.  `None` until at least two
/// arrivals span non-zero time.
pub(crate) fn estimate_rate_qps(
    arrivals: &mut VecDeque<TimeUs>,
    now: TimeUs,
    horizon_us: TimeUs,
) -> Option<f64> {
    while arrivals.front().is_some_and(|&t| t + horizon_us < now) {
        arrivals.pop_front();
    }
    let (first, last) = (arrivals.front()?, arrivals.back()?);
    if arrivals.len() < 2 || first == last {
        return None;
    }
    let span_us = now.saturating_sub(*first).max(1);
    Some((arrivals.len() - 1) as f64 / (span_us as f64 / 1e6))
}

/// Diffs `target` against the live sub-cluster of `model` and applies the
/// difference: missing instances are added (with the provisioning delay,
/// bound to the model), surplus instances of each type are gracefully
/// retired — idle ones first, then the shallowest backlog, so draining
/// finishes as fast as possible.  Instances bound to other models are never
/// touched.  With `defer_retires` (fault replans), a reconcile that ordered
/// additions keeps its surplus serving until they come up — make before
/// break — so a post-restore rebalance never opens a capacity gap one
/// provisioning delay wide.
pub(crate) fn reconcile_model(
    engine: &mut SimEngine<'_>,
    model: ModelId,
    target: &Config,
    provisioning_delay_us: TimeUs,
    mut backoff: Option<&mut PurchaseBackoff>,
    defer_retires: bool,
) -> (Vec<usize>, Vec<usize>) {
    let active = engine.cluster().active_counts_for(model);
    let mut added_types = Vec::new();
    let mut retired_instances = Vec::new();
    for (type_index, &want) in target.counts().iter().enumerate() {
        let have = active[type_index];
        if want > have {
            for _ in 0..want - have {
                match backoff.as_deref_mut() {
                    Some(backoff) => {
                        // Parked offerings are skipped outright; a rejection
                        // parks the offering and abandons its remaining adds
                        // (the next replan routes around it).
                        let now = engine.now();
                        if backoff.blocked(type_index, now) {
                            break;
                        }
                        match engine.try_add_instance_for(model, type_index, provisioning_delay_us)
                        {
                            Ok(_) => {
                                backoff.note_success(type_index);
                                added_types.push(type_index);
                            }
                            Err(_) => {
                                backoff.note_rejection(type_index, now);
                                break;
                            }
                        }
                    }
                    None => {
                        engine.add_instance_for(model, type_index, provisioning_delay_us);
                        added_types.push(type_index);
                    }
                }
            }
        }
    }
    // Make before break on fault replans: a reconcile that just ordered
    // replacements leaves the surplus serving until they come up — retiring
    // now would open a capacity gap one provisioning delay wide (the
    // post-restore rebalance aftershock).  Pending instances count as
    // active, so the next replan sheds the surplus without re-buying.
    if added_types.is_empty() || !defer_retires {
        for (type_index, &want) in target.counts().iter().enumerate() {
            let have = active[type_index];
            if have > want {
                let mut surplus: Vec<(usize, usize)> = engine
                    .cluster()
                    .instances()
                    .iter()
                    .filter(|inst| {
                        inst.model == model
                            && inst.type_index == type_index
                            && inst.accepts_dispatches()
                    })
                    .map(|inst| (engine.instance_backlog(inst.index), inst.index))
                    .collect();
                // Shallowest backlog first; ties retire the newest instance.
                surplus.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
                for &(_, index) in surplus.iter().take(have - want) {
                    engine.retire_instance(index);
                    retired_instances.push(index);
                }
            }
        }
    }
    (added_types, retired_instances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::{
        calibration::paper_calibration, ec2, mlmodel::ModelKind, Offering, OfferingCatalog,
        PreemptionProcess, PriceTrace, TraceMarket,
    };
    use kairos_workload::{BatchSizeDistribution, PhasedArrival, Query};

    fn pool() -> PoolSpec {
        PoolSpec::new(ec2::paper_pool())
    }

    /// A two-hardware market: on-demand GPU + r5n, spot GPU + r5n at deep
    /// discounts, with one scripted GPU-spot storm at `storm_us`.
    fn spot_catalog(storm_us: Option<TimeUs>) -> OfferingCatalog {
        let notices = PreemptionProcess::At {
            notices_us: storm_us.into_iter().collect(),
        };
        OfferingCatalog::new(vec![
            Offering::on_demand(ec2::g4dn_xlarge()),
            Offering::on_demand(ec2::r5n_large()),
            Offering::spot(ec2::g4dn_xlarge(), PriceTrace::constant(0.17), notices),
            Offering::spot(
                ec2::r5n_large(),
                PriceTrace::constant(0.05),
                PreemptionProcess::None,
            ),
        ])
    }

    fn system(options: ServingOptions) -> ServingSystem {
        ServingSystem::new(pool(), ModelKind::Rm2, Some(paper_calibration()), options)
    }

    /// Seeds the controller's monitor with the production mix, as a real
    /// deployment's window would be after any amount of serving.
    fn warm(s: &mut ServingSystem, n: usize) {
        s.warm_monitor(&BatchSizeDistribution::production_default(), n, 99);
    }

    #[test]
    fn plan_for_demand_is_monotone_in_cost() {
        let s = system(ServingOptions::default());
        let small = s.plan_for_demand(20.0).unwrap();
        let large = s.plan_for_demand(200.0).unwrap();
        assert!(small.cost(&pool()) <= large.cost(&pool()));
        assert!(small.cost(&pool()) < 2.5, "light demand must not max out");
    }

    #[test]
    #[should_panic(expected = "service spec 0 does not match lane model")]
    fn run_refuses_a_service_spec_for_another_model() {
        let mut s = system(ServingOptions::default());
        warm(&mut s, 2000);
        let initial = s.plan_for_demand(40.0).unwrap();
        let trace = Trace::from_queries(vec![Query::new(0, 8, 0)]);
        s.run(
            &initial,
            &ServiceSpec::new(ModelKind::Wnd, paper_calibration()),
            &trace,
        );
    }

    #[test]
    #[should_panic(expected = "targets model m1 but only 1 models are served")]
    fn run_refuses_a_query_for_an_unserved_model() {
        let mut s = system(ServingOptions::default());
        warm(&mut s, 2000);
        let initial = s.plan_for_demand(40.0).unwrap();
        let trace = Trace::from_queries(vec![
            Query::new(0, 8, 0),
            Query::for_model(1, ModelId::new(1), 8, 1_000),
        ]);
        s.run(
            &initial,
            &ServiceSpec::new(ModelKind::Rm2, paper_calibration()),
            &trace,
        );
    }

    #[test]
    fn plan_for_demand_falls_back_to_full_budget_pick() {
        let s = system(ServingOptions::default());
        // Demand beyond any upper bound under the budget: full-budget choice.
        let huge = s.plan_for_demand(1e9).unwrap();
        let chosen = s.controller().plan(2.5).unwrap().chosen;
        assert_eq!(huge, chosen);
    }

    #[test]
    fn batching_knobs_drive_the_engine_batcher() {
        let service = ServiceSpec::new(ModelKind::Rm2, paper_calibration());
        let workload = PhasedArrival::step_change(
            80.0,
            80.0,
            BatchSizeDistribution::production_default(),
            3.0,
            3.0,
            23,
        );
        let trace = workload.generate();
        let initial = system(ServingOptions::default())
            .plan_for_demand(80.0)
            .unwrap();

        let mut plain = system(ServingOptions::default().replan_every(500_000));
        warm(&mut plain, 2000);
        let without = plain.run(&initial, &service, &trace);
        assert_eq!(without.report.service.batches_fired, 0);

        let mut batched = system(
            ServingOptions::default()
                .replan_every(500_000)
                .batching(256, 2_000),
        );
        warm(&mut batched, 2000);
        let with = batched.run(&initial, &service, &trace);
        assert!(
            with.report.service.batches_fired > 0,
            "the batching knob must reach the engine"
        );
        assert!(with.report.service.batched_queries as usize >= with.report.records.len());
        // Batching must not lose queries.
        assert_eq!(
            with.report.records.len() + with.report.unfinished.len(),
            with.report.offered
        );
    }

    /// Sends every query to the highest-indexed accepting instance.
    struct LastInstance;

    impl kairos_sim::Scheduler for LastInstance {
        fn name(&self) -> &'static str {
            "last-instance"
        }

        fn schedule_into(
            &mut self,
            ctx: &kairos_sim::SchedulingContext<'_>,
            out: &mut Vec<kairos_sim::Dispatch>,
        ) {
            let Some(last) = ctx.instances.iter().rposition(|v| v.accepting) else {
                return;
            };
            out.extend(
                (0..ctx.queued.len()).map(|query_index| kairos_sim::Dispatch {
                    query_index,
                    instance_index: last,
                }),
            );
        }
    }

    #[test]
    fn reconcile_retires_the_idle_instance_when_the_loaded_one_batches() {
        // Two GPUs behind a batcher: the newer one holds a forming batch,
        // the older one is idle.  Shrinking the type by one must retire the
        // idle instance, not the loaded one.
        let service = ServiceSpec::new(ModelKind::Rm2, paper_calibration());
        let trace = Trace::from_queries(vec![kairos_workload::Query::new(0, 10, 1_000)]);
        let mut scheduler = LastInstance;
        let mut engine = SimEngine::new(
            &pool(),
            &Config::new(vec![2, 0, 0, 0]),
            &service,
            &trace,
            &mut scheduler,
            &kairos_sim::SimulationOptions::default(),
        )
        .with_batching(kairos_sim::BatchingOptions::new(256, 2_000));
        assert!(engine.step());
        let (added, retired) = reconcile_model(
            &mut engine,
            ModelId::DEFAULT,
            &Config::new(vec![1, 0, 0, 0]),
            ServingOptions::default().provisioning_delay_us,
            None,
            false,
        );
        assert!(added.is_empty());
        assert_eq!(retired, vec![0], "the idle instance goes first");
        assert!(engine.cluster().instances()[0].is_retired());
        assert!(engine.cluster().instances()[1].accepts_dispatches());
        let report = engine.run();
        assert_eq!(report.completed(), 1);
        assert_eq!(report.records[0].instance_index, 1);
    }

    #[test]
    fn rate_estimate_needs_a_window_and_prunes_stale_arrivals() {
        let horizon = 2_000_000;
        let mut w: VecDeque<TimeUs> = VecDeque::new();
        assert_eq!(estimate_rate_qps(&mut w, 0, horizon), None);
        w.push_back(0);
        assert_eq!(estimate_rate_qps(&mut w, 500_000, horizon), None);
        w.push_back(1_000_000);
        assert_eq!(estimate_rate_qps(&mut w, 1_000_000, horizon), Some(1.0));
        // Far in the future, both arrivals are stale: no estimate, pruned.
        assert_eq!(estimate_rate_qps(&mut w, 10_000_000, horizon), None);
        assert!(w.is_empty());
    }

    #[test]
    fn steady_load_keeps_the_cluster_stable() {
        let mut s = system(ServingOptions::default().replan_every(500_000));
        warm(&mut s, 2000);
        let workload = PhasedArrival::step_change(
            60.0,
            60.0,
            BatchSizeDistribution::production_default(),
            4.0,
            4.0,
            17,
        );
        let initial = s.plan_for_demand(60.0).unwrap();
        let service = ServiceSpec::new(ModelKind::Rm2, paper_calibration());
        let duration = workload.total_duration_us();
        let outcome = s.run(&initial, &service, &workload.generate());
        assert!(outcome.replans > 0, "cadence must fire");
        // Same rate throughout: while traffic flows the cluster must not
        // churn (after the last arrival the offered rate decays to zero and
        // scaling in is the *correct* reaction, so the tail is exempt).
        let in_trace: Vec<_> = outcome
            .reconfigs
            .iter()
            .filter(|r| r.at_us < duration)
            .collect();
        assert!(
            in_trace.len() <= 1,
            "steady load should not thrash: {in_trace:?}"
        );
        assert!(outcome.report.meets_qos(0.05));
        // Steady load means stationary knowledge: the scored plan must be
        // reused across cadence replans, not recomputed each tick.
        assert!(
            s.plan_cache().hits() > 0,
            "cadence replans under steady load should hit the plan cache \
             (hits {}, misses {})",
            s.plan_cache().hits(),
            s.plan_cache().misses()
        );
    }

    #[test]
    fn rate_spike_scales_the_cluster_out() {
        let mut s = system(
            ServingOptions::default()
                .replan_every(500_000)
                .provisioning_delay(200_000),
        );
        warm(&mut s, 2000);
        let workload = PhasedArrival::step_change(
            40.0,
            160.0,
            BatchSizeDistribution::production_default(),
            3.0,
            3.0,
            23,
        );
        let initial = s.plan_for_demand(40.0).unwrap();
        let service = ServiceSpec::new(ModelKind::Rm2, paper_calibration());
        let outcome = s.run(&initial, &service, &workload.generate());
        assert!(
            !outcome.reconfigs.is_empty(),
            "the spike must trigger reconfig"
        );
        let grew = outcome.reconfigs.iter().any(|r| !r.added_types.is_empty());
        assert!(grew, "scale-out expected: {:?}", outcome.reconfigs);
        // The cluster was scaled past its initial size while the spike was
        // live (it may legitimately scale back in once arrivals stop).
        let peak_cost = outcome
            .reconfigs
            .iter()
            .map(|r| r.target.cost(&pool()))
            .fold(0.0f64, f64::max);
        assert!(
            peak_cost > initial.cost(&pool()),
            "peak cluster should exceed the initial one"
        );
    }

    #[test]
    fn market_plan_buys_spot_capacity_and_undercuts_on_demand() {
        let catalog = spot_catalog(None);
        let market = Arc::new(TraceMarket::new(catalog.clone()));
        let mut market_sys = ServingSystem::with_market(
            catalog.clone(),
            market,
            ModelKind::Rm2,
            Some(paper_calibration()),
            ServingOptions::default(),
        );
        market_sys.warm_monitor(&BatchSizeDistribution::production_default(), 2000, 99);
        let od_pool = PoolSpec::new(vec![ec2::g4dn_xlarge(), ec2::r5n_large()]);
        let mut od_sys = ServingSystem::new(
            od_pool.clone(),
            ModelKind::Rm2,
            Some(paper_calibration()),
            ServingOptions::default(),
        );
        od_sys.warm_monitor(&BatchSizeDistribution::production_default(), 2000, 99);

        let effective = catalog.effective_pool();
        let market_plan = market_sys.plan_for_demand(80.0).unwrap();
        let od_plan = od_sys.plan_for_demand(80.0).unwrap();
        // The market plan rides the discount: it buys spot offerings and
        // covers the same demand for less than the on-demand-only plan.
        let spot_count = market_plan.count(2) + market_plan.count(3);
        assert!(spot_count > 0, "plan {market_plan} ignores spot capacity");
        assert!(
            market_plan.cost(&effective) < od_plan.cost(&od_pool),
            "market {:.3} $/hr vs on-demand {:.3} $/hr",
            market_plan.cost(&effective),
            od_plan.cost(&od_pool)
        );
        // The base anchor stays on-demand.
        assert!(market_plan.count(0) >= 1);
    }

    #[test]
    fn preemption_storm_triggers_market_replans_and_recovery() {
        let storm_us = 3_000_000;
        let catalog = spot_catalog(Some(storm_us));
        let market = Arc::new(TraceMarket::new(catalog.clone()));
        let mut system = ServingSystem::with_market(
            catalog,
            market,
            ModelKind::Rm2,
            Some(paper_calibration()),
            ServingOptions::default()
                .replan_every(500_000)
                .provisioning_delay(200_000),
        );
        system.warm_monitor(&BatchSizeDistribution::production_default(), 2000, 7);
        let workload = PhasedArrival::step_change(
            70.0,
            70.0,
            BatchSizeDistribution::production_default(),
            3.0,
            3.0,
            41,
        );
        let initial = system.plan_for_demand(70.0).unwrap();
        assert!(
            initial.count(2) + initial.count(3) > 0,
            "the initial plan should ride spot capacity: {initial}"
        );
        let service = ServiceSpec::new(ModelKind::Rm2, paper_calibration());
        let outcome = system.run(&initial, &service, &workload.generate());

        // The storm actually reclaimed capacity and the loop replanned on it.
        assert!(outcome.report.preemption_notices >= 1);
        assert!(
            outcome
                .reconfigs
                .iter()
                .any(|r| r.trigger == ReplanTrigger::Market),
            "a market replan must fire: {:?}",
            outcome.reconfigs
        );
        // Recovery: replacement capacity was bought after the storm.
        assert!(
            outcome
                .reconfigs
                .iter()
                .any(|r| r.at_us >= storm_us && !r.added_types.is_empty()),
            "the loop must re-buy capacity after the storm"
        );
        // All queries accounted for despite requeues.
        assert_eq!(
            outcome.report.completed() + outcome.report.unfinished.len(),
            outcome.report.offered
        );
        // Billing reflects the discount: time-weighted spend stays below
        // the nominal budget.
        assert!(
            outcome.report.billed_cost_per_hour() < system.service.fleet.options.budget_per_hour,
            "billed {:.3} $/hr",
            outcome.report.billed_cost_per_hour()
        );
        // The run must not leak per-run market state: cooldowns are cleared
        // and the planning pool is back at live catalog prices, so a
        // post-run plan rides the spot discount again instead of seeing the
        // stormed offering at its ×40 penalty.
        for offering in 0..4 {
            assert!(
                !system.service.market().unwrap().in_cooldown(offering, 0),
                "cooldown leaked past the run for offering {offering}"
            );
        }
        let after = system.plan_for_demand(70.0).unwrap();
        assert!(
            after.count(2) + after.count(3) > 0,
            "post-run plan must see spot prices again: {after}"
        );
    }

    #[test]
    fn storm_during_backlog_drain_still_fires() {
        // The notice lands *after* the last arrival but within the market
        // horizon slack — the storm must still be delivered while the
        // backlog drains, not silently dropped at the trace boundary.
        let catalog = spot_catalog(Some(3_100_000));
        let market = Arc::new(TraceMarket::new(catalog.clone()));
        let mut system = ServingSystem::with_market(
            catalog,
            market,
            ModelKind::Rm2,
            Some(paper_calibration()),
            ServingOptions::default(),
        );
        system.warm_monitor(&BatchSizeDistribution::production_default(), 2000, 7);
        let workload = PhasedArrival::step_change(
            60.0,
            60.0,
            BatchSizeDistribution::production_default(),
            1.5,
            1.5,
            43,
        );
        let trace = workload.generate();
        assert!(trace.duration_us() < 3_100_000);
        let initial = system.plan_for_demand(60.0).unwrap();
        let service = ServiceSpec::new(ModelKind::Rm2, paper_calibration());
        let outcome = system.run(&initial, &service, &trace);
        assert_eq!(
            outcome.report.preemption_notices, 1,
            "a storm inside the drain window must fire"
        );
    }

    /// A two-zone catalog: GPU + r5n hardware offered on demand in both
    /// `us-east-1a` and `us-east-1b` (zone b at a hair more expensive, so a
    /// domain-blind planner concentrates in zone a).
    fn two_zone_catalog() -> OfferingCatalog {
        let zone_a = FailureDomain::zone("us-east-1", "us-east-1a");
        let zone_b = FailureDomain::zone("us-east-1", "us-east-1b");
        let mut gpu_b = ec2::g4dn_xlarge();
        gpu_b.is_base = false;
        gpu_b.price_per_hour *= 1.02;
        let mut aux_b = ec2::r5n_large();
        aux_b.price_per_hour *= 1.02;
        OfferingCatalog::new(vec![
            Offering::on_demand(ec2::g4dn_xlarge()).in_domain(zone_a.clone()),
            Offering::on_demand(ec2::r5n_large()).in_domain(zone_a),
            Offering::on_demand(gpu_b).in_domain(zone_b.clone()),
            Offering::on_demand(aux_b).in_domain(zone_b),
        ])
    }

    #[test]
    fn within_spread_checks_per_domain_shares() {
        let table = two_zone_catalog().domains();
        // Everything in zone a: 4/4 in one domain.
        assert!(!within_spread(&[2, 2, 0, 0], &table, 0.6));
        // 2/4 per zone respects a 0.6 cap.
        assert!(within_spread(&[1, 1, 1, 1], &table, 0.6));
        // A single instance has nothing to spread.
        assert!(within_spread(&[1, 0, 0, 0], &table, 0.5));
    }

    #[test]
    fn zone_outage_triggers_fault_replans_and_failover() {
        use kairos_models::FaultEvent;
        let catalog = two_zone_catalog();
        let zone_a = FailureDomain::zone("us-east-1", "us-east-1a");
        let process = FaultProcess::new(vec![FaultEvent::ZoneOutage {
            domain: zone_a,
            start_us: 2_500_000,
            duration_us: 2_500_000,
        }]);
        let market = Arc::new(TraceMarket::new(catalog.clone()));
        let mut system = ServingSystem::with_market(
            catalog,
            market,
            ModelKind::Rm2,
            Some(paper_calibration()),
            ServingOptions::default()
                .replan_every(500_000)
                .provisioning_delay(200_000)
                .spread_limit(0.75),
        )
        .with_fault_process(process);
        system.warm_monitor(&BatchSizeDistribution::production_default(), 2000, 7);
        let workload = PhasedArrival::step_change(
            70.0,
            70.0,
            BatchSizeDistribution::production_default(),
            4.0,
            4.0,
            31,
        );
        let initial = system.plan_for_demand(70.0).unwrap();
        let service = ServiceSpec::new(ModelKind::Rm2, paper_calibration());
        let outcome = system.run(&initial, &service, &workload.generate());

        // The outage fired, was booked, and drove at least one Fault replan.
        assert_eq!(outcome.report.outages.len(), 1);
        assert!(outcome.report.outages[0].killed_instances > 0);
        assert!(
            outcome
                .reconfigs
                .iter()
                .any(|r| r.trigger == ReplanTrigger::Fault),
            "a fault replan must fire: {:?}",
            outcome.reconfigs
        );
        // Failover: replacement capacity was bought after the outage began.
        assert!(
            outcome
                .reconfigs
                .iter()
                .any(|r| r.at_us >= 2_500_000 && !r.added_types.is_empty()),
            "the loop must re-buy capacity around the outage"
        );
        // Requeues and rejections never lose queries.
        assert_eq!(
            outcome.report.completed() + outcome.report.unfinished.len(),
            outcome.report.offered
        );
    }

    #[test]
    fn load_drop_scales_the_cluster_in() {
        let mut s = system(ServingOptions::default().replan_every(500_000));
        warm(&mut s, 2000);
        let workload = PhasedArrival::step_change(
            180.0,
            30.0,
            BatchSizeDistribution::production_default(),
            3.0,
            3.0,
            29,
        );
        let initial = s.plan_for_demand(180.0).unwrap();
        let service = ServiceSpec::new(ModelKind::Rm2, paper_calibration());
        let outcome = s.run(&initial, &service, &workload.generate());
        let shrank = outcome
            .reconfigs
            .iter()
            .any(|r| !r.retired_instances.is_empty());
        assert!(shrank, "scale-in expected: {:?}", outcome.reconfigs);
        assert!(outcome.final_active.cost(&pool()) < initial.cost(&pool()));
        // Graceful draining: every query is still accounted for.
        assert_eq!(
            outcome.report.completed() + outcome.report.unfinished.len(),
            outcome.report.offered
        );
    }

    #[test]
    fn reference_only_catalog_reproduces_the_legacy_run_bit_for_bit() {
        let workload = PhasedArrival::step_change(
            40.0,
            160.0,
            BatchSizeDistribution::production_default(),
            3.0,
            3.0,
            23,
        );
        let trace = workload.generate();
        let service = ServiceSpec::new(ModelKind::Rm2, paper_calibration());

        let mut legacy = system(ServingOptions::default().replan_every(500_000));
        warm(&mut legacy, 2000);
        let initial = legacy.plan_for_demand(40.0).unwrap();
        let base = legacy.run(&initial, &service, &trace);

        let mut with_catalog = system(ServingOptions::default().replan_every(500_000))
            .with_variants(
                &VariantCatalog::reference_only(&[ModelKind::Rm2]),
                &paper_calibration(),
            );
        warm(&mut with_catalog, 2000);
        let lowered = with_catalog.run(&initial, &service, &trace);

        // A reference-only catalog has nothing to switch to, so the variant
        // axis must be a perfect no-op: same report, same reconfig tape.
        assert!(lowered.variant_switches.is_empty());
        assert_eq!(with_catalog.active_variant(), Some("fp32"));
        assert_eq!(base.replans, lowered.replans);
        assert_eq!(
            format!("{:?}", base.report),
            format!("{:?}", lowered.report)
        );
        assert_eq!(
            format!("{:?}", base.reconfigs),
            format!("{:?}", lowered.reconfigs)
        );
    }

    #[test]
    fn serving_downgrades_under_pressure_and_repromotes_when_calm_returns() {
        let mut s = system(ServingOptions::default().replan_every(500_000))
            .with_variants(&VariantCatalog::paper_variants(), &paper_calibration());
        warm(&mut s, 2000);
        // Size the spike off the reference plan's own best bound: fp32
        // cannot cover it under the budget, but the quantized lanes can.
        let ref_best = s.controller().plan(2.5).unwrap().ranked[0].1;
        let workload = PhasedArrival::step_change(
            ref_best * 1.1,
            25.0,
            BatchSizeDistribution::production_default(),
            4.0,
            6.0,
            23,
        );
        let initial = s.plan_for_demand(25.0).unwrap();
        let service = ServiceSpec::new(ModelKind::Rm2, paper_calibration());
        let outcome = s.run(&initial, &service, &workload.generate());

        assert!(
            !outcome.variant_switches.is_empty(),
            "the overload must force a variant switch"
        );
        let first = &outcome.variant_switches[0];
        assert_eq!(first.from, "fp32");
        assert_ne!(
            first.to, "fp32",
            "pressure must downgrade off the reference"
        );
        assert!(first.accuracy < 0.985);
        // Calm returns: the loop re-promotes to the highest-accuracy lane.
        let last = outcome.variant_switches.last().unwrap();
        assert_eq!(
            last.to, "fp32",
            "re-promotion expected: {:?}",
            outcome.variant_switches
        );
        assert_eq!(s.active_variant(), Some("fp32"));
        // Delivered accuracy reflects the mixed-variant service.
        let delivered = outcome.report.delivered_accuracy();
        assert!(delivered < 0.985 && delivered > 0.9, "got {delivered}");
    }

    #[test]
    fn accuracy_floor_vetoes_the_downgrade() {
        let mut s = system(
            ServingOptions::default()
                .replan_every(500_000)
                .min_accuracy(0.98),
        )
        .with_variants(&VariantCatalog::paper_variants(), &paper_calibration());
        warm(&mut s, 2000);
        let ref_best = s.controller().plan(2.5).unwrap().ranked[0].1;
        let workload = PhasedArrival::step_change(
            ref_best * 1.1,
            25.0,
            BatchSizeDistribution::production_default(),
            4.0,
            4.0,
            23,
        );
        let initial = s.plan_for_demand(25.0).unwrap();
        let service = ServiceSpec::new(ModelKind::Rm2, paper_calibration());
        let outcome = s.run(&initial, &service, &workload.generate());

        // Rm2's quantized lanes sit below the 0.98 floor: the loop serves
        // degraded on the reference rather than trade accuracy away.
        assert!(outcome.variant_switches.is_empty());
        assert_eq!(s.active_variant(), Some("fp32"));
        let delivered = outcome.report.delivered_accuracy();
        assert!((delivered - 0.985).abs() < 1e-9, "got {delivered}");
    }
}
