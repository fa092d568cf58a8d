//! The multi-model serving facade: one [`InferenceService`] in front of N
//! per-model Kairos control loops sharing a single `$/hr` budget.
//!
//! INFaaS-style *model-less, managed* serving is the API users actually
//! want: submit a query tagged with a model (a compact
//! [`ModelId`]) and let the system own placement and capacity.  Kairos's
//! evaluation spans five models with QoS targets from 5 ms (NCF) to 350 ms
//! (RM2, Table 3); a production fleet serves that *mix* on shared
//! infrastructure, not one model at a time.  The facade:
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!                    │              InferenceService              │
//!   mixed trace ──►  │  SimEngine (multi-model cluster, per-model │
//!  (ModelId-tagged)  │  QoS in-engine, model-checked dispatch)    │
//!                    │      │ arrivals / completions, by model    │
//!                    │      ▼                                     │
//!                    │  lane[m]: ModelLane (controller, plan      │
//!                    │  cache, variants)  ── per-model            │
//!                    │      ▲                        replanning   │
//!                    │      │ budget_m                            │
//!                    │  demand-weighted water-filling over the    │
//!                    │  one global budget                         │
//!                    └────────────────────────────────────────────┘
//! ```
//!
//! * **Budget split** ([`InferenceService::split_budget`]) — every model is
//!   guaranteed a floor (one base instance); the spare budget is
//!   water-filled proportionally to per-model demand, re-pinning any model
//!   whose proportional share would fall below its floor.
//! * **Per-model replanning** — each lane is a [`ModelLane`]: its own
//!   controller (monitor + predictors), its own
//!   [`PlanCache`] keyed on *its* knowledge signature and
//!   budget share, its own variant runtime and drift detection.  A mix
//!   shift in one model replans that model; the others keep their cached
//!   rankings.
//! * **Fleet-wide attachments** — the planning pool, [`ServingOptions`],
//!   the failure-domain placements, the market, the fault process and the
//!   serverless runtime live once, on the facade, and reach each lane as
//!   arguments.
//! * **Scheduling** ([`MultiScheduler`]) — queries are partitioned by model
//!   each round and matched by per-model Kairos min-cost matchings against
//!   the instances bound to that model; the engine enforces the binding.
//!   Every lane reads the round's one view list and passes over other
//!   models' views itself, so no view is copied per lane.  With one lane
//!   the partition is the identity, and the round goes straight to the
//!   lane's matching.
//!
//! [`InferenceService::run`] drives the serving control loop over every
//! lane; [`ServingSystem`](crate::ServingSystem) is the facade's one-lane
//! form, whose `run` is this `run` from no drift baseline.  The replan clock
//! follows from the lane count: several lanes share one cadence clock that
//! only its tick restarts, while a one-lane service restarts it on every
//! trigger.

use crate::control_loop::{self, Fleet};
use crate::controller::KairosController;
use crate::distribution::KairosScheduler;
use crate::planner::PlanCache;
use crate::serverless::ServerlessRuntime;
use crate::serving::{MarketState, ModelLane, ReconfigEvent, ServingOptions, VariantSwitch};
use crate::variants::{build_lanes, prune_dominated, VariantRuntime};
use kairos_models::{
    latency::LatencyTable, mlmodel::ModelKind, Config, FaultProcess, Market, OfferingCatalog,
    PoolSpec, VariantCatalog,
};
use kairos_sim::{
    ClusterSpec, Dispatch, ModelReport, Scheduler, SchedulingContext, ServiceSpec, SimReport,
};
use kairos_workload::{MixSpec, ModelId, Query, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A query-distribution policy for multi-model clusters: one Kairos
/// min-cost matching per model, each seeing only its model's queries and
/// instances.  Completions are routed to the owning model's predictors via
/// the `(type, model)` indices — no string hashing.
pub struct MultiScheduler {
    /// One scheduler per model, each the lane of its [`ModelId`].
    inner: Vec<KairosScheduler>,
    /// Reusable per-model scratch: sub-queue, global-index map.
    queued: Vec<Vec<Query>>,
    qmap: Vec<Vec<usize>>,
}

impl MultiScheduler {
    /// Builds the policy from one per-model scheduler, indexed by
    /// [`ModelId`]: scheduler `m` becomes the lane of model `m`.
    pub fn new(inner: Vec<KairosScheduler>) -> Self {
        let n = inner.len();
        Self {
            inner: inner
                .into_iter()
                .enumerate()
                .map(|(m, s)| s.for_lane(ModelId::new(m)))
                .collect(),
            queued: vec![Vec::new(); n],
            qmap: vec![Vec::new(); n],
        }
    }

    /// Builds the policy from every lane's current latency knowledge.
    pub(crate) fn for_lanes(lanes: &[ModelLane]) -> Self {
        Self::new(
            lanes
                .iter()
                .map(|l| l.controller.make_scheduler())
                .collect(),
        )
    }
}

impl Scheduler for MultiScheduler {
    fn name(&self) -> &'static str {
        "kairos-multi"
    }

    fn bind_types(&mut self, type_names: &[Arc<str>]) {
        for s in &mut self.inner {
            s.bind_types(type_names);
        }
    }

    fn on_completion(
        &mut self,
        type_index: usize,
        model: ModelId,
        batch_size: u32,
        service_ms: f64,
    ) {
        if let Some(s) = self.inner.get_mut(model.index()) {
            s.on_completion(type_index, model, batch_size, service_ms);
        }
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        // One lane owns every query and instance, so the partition below is
        // the identity.
        if let [only] = self.inner.as_mut_slice() {
            let qos_us = ctx.qos_for(ModelId::DEFAULT);
            only.schedule_into(&SchedulingContext { qos_us, ..*ctx }, out);
            return;
        }
        // Partition the queue by model.  Every lane reads the caller's views
        // and matches only those bound to its model, so no view is copied
        // and dispatches name instances in cluster coordinates; each lane
        // gets its model's own QoS target.
        for m in 0..self.inner.len() {
            self.queued[m].clear();
            self.qmap[m].clear();
        }
        for (qi, q) in ctx.queued.iter().enumerate() {
            if let Some(sub) = self.queued.get_mut(q.model.index()) {
                sub.push(*q);
                self.qmap[q.model.index()].push(qi);
            }
        }
        for (m, inner) in self.inner.iter_mut().enumerate() {
            let sub_ctx = SchedulingContext {
                queued: &self.queued[m],
                qos_us: ctx.qos_for(ModelId::new(m)),
                ..*ctx
            };
            // The inner round appends in sub-queue coordinates; remap its
            // dispatches to the caller's queue in place.
            let start = out.len();
            inner.schedule_into(&sub_ctx, out);
            for d in &mut out[start..] {
                d.query_index = self.qmap[m][d.query_index];
            }
        }
    }
}

/// Result of one multi-model serving run.
#[derive(Debug, Clone)]
pub struct MultiServingOutcome {
    /// The per-query simulation report (with per-model breakdowns).
    pub report: SimReport,
    /// The cluster spec the run started from.
    pub initial: ClusterSpec,
    /// Dispatch-accepting per-model instance counts at the end of the run.
    pub final_active: ClusterSpec,
    /// Every reconfiguration applied, in order, tagged with its model.
    pub reconfigs: Vec<ReconfigEvent>,
    /// Total number of replanning passes (including no-op ones), across all
    /// models.
    pub replans: usize,
    /// The most recent per-model budget split, indexed by [`ModelId`].
    pub last_budget_split: Vec<f64>,
    /// Every model-variant switch applied, in order, tagged with its model
    /// (empty without an attached variant catalog).
    pub variant_switches: Vec<VariantSwitch>,
}

impl MultiServingOutcome {
    /// Per-model accounting of the run (sums to the aggregate report).
    pub fn per_model(&self) -> Vec<ModelReport> {
        self.report.per_model()
    }
}

/// The multi-model serving facade: N per-model [`ModelLane`]s behind one
/// model-tagged query API and one shared hourly budget, with every
/// fleet-wide attachment held once, here.
#[derive(Debug, Clone)]
pub struct InferenceService {
    /// One lane per served model, indexed by [`ModelId`].
    pub(crate) lanes: Vec<ModelLane>,
    /// Each lane's drift baseline: the demand its deployment was last
    /// planned for (`None` before the first plan).
    pub(crate) planned: Vec<Option<f64>>,
    pub(crate) fleet: Fleet,
}

impl InferenceService {
    /// Creates a service for `models` over a shared pool.  `models[i]` is
    /// served as [`ModelId`] `i`.  `priors` seeds every lane's latency
    /// knowledge; [`ServingOptions::budget_per_hour`] is the **global**
    /// budget shared by all models.
    ///
    /// # Panics
    /// Panics if `models` is empty, a model repeats, or, serving several
    /// models, the global budget cannot cover one base instance per model
    /// (a single model owns the whole budget, which the split never floors).
    pub fn new(
        pool: PoolSpec,
        models: &[ModelKind],
        priors: Option<LatencyTable>,
        options: ServingOptions,
    ) -> Self {
        assert!(!models.is_empty(), "need at least one model");
        for (i, m) in models.iter().enumerate() {
            assert!(
                models[i + 1..].iter().all(|n| n != m),
                "model {m} appears twice"
            );
        }
        if models.len() > 1 {
            let floor = pool.price(pool.base_index());
            assert!(
                options.budget_per_hour >= floor * models.len() as f64,
                "budget {} cannot cover one base instance ({floor} $/hr) per model",
                options.budget_per_hour
            );
        }
        let lanes = models
            .iter()
            .map(|&kind| ModelLane {
                controller: match priors.clone() {
                    Some(table) => KairosController::with_priors(pool.clone(), kind, table),
                    None => KairosController::new(pool.clone(), kind),
                },
                plan_cache: PlanCache::new(),
                variants: None,
            })
            .collect();
        Self {
            lanes,
            planned: vec![None; models.len()],
            fleet: Fleet {
                pool,
                options,
                placements: Vec::new(),
                market: None,
                faults: None,
                serverless: None,
            },
        }
    }

    /// Creates a **market-aware** facade over an offering catalog: every
    /// lane plans over the catalog's offerings (which hardware *at which
    /// purchase option*) at live prices, simulation runs bill at the
    /// market's live prices, and the loop replans on market events — price
    /// steps refresh the planning pool (joining the knowledge signature, so
    /// the plan cache invalidates exactly when prices move) and preemption
    /// notices price the reclaimed offering out for a cooldown of 2 s.  The
    /// catalog's per-offering failure domains become the placement table.
    pub fn with_market(
        catalog: OfferingCatalog,
        market: Arc<dyn Market>,
        models: &[ModelKind],
        priors: Option<LatencyTable>,
        options: ServingOptions,
    ) -> Self {
        let mut service = Self::new(catalog.effective_pool(), models, priors, options);
        service.fleet.placements = catalog.domains();
        service.fleet.market = Some(MarketState::new(catalog, market));
        service
    }

    /// Attaches a variant catalog to **every** lane: each lane auto-selects
    /// which variant of its model to serve at its own replans.  The catalog
    /// is lowered against the pool and `base` (the reference calibration
    /// table), dominated variants are pruned, and serving starts on the
    /// reference, so a [`reference_only`](VariantCatalog::reference_only)
    /// catalog reproduces the variant-free service bit for bit.  A replan
    /// serves the most accurate variant at or above
    /// [`ServingOptions::min_accuracy`] whose plan covers the lane's demand
    /// within its budget share, downgrading under pressure and re-promoting
    /// once headroom returns.  A switch adopts the variant's priors (joining
    /// the knowledge signature, so cached plans retire), hot-swaps the
    /// engine's latency profiles, and is logged in the outcome.
    ///
    /// # Panics
    /// Panics if the catalog lacks variants for any served model or if
    /// `base` lacks a profile for some pool type.
    #[must_use]
    pub fn with_variants(mut self, catalog: &VariantCatalog, base: &LatencyTable) -> Self {
        for lane in &mut self.lanes {
            let model = lane.controller.model();
            let variants = prune_dominated(build_lanes(&self.fleet.pool, model, base, catalog));
            lane.variants = Some(VariantRuntime::new(variants));
        }
        self
    }

    /// Attaches a correlated-fault process: the engine materializes its zone
    /// outages, capacity shortages and stragglers, and the loop becomes
    /// resilient — fault events trigger
    /// [`ReplanTrigger::Fault`](crate::ReplanTrigger::Fault) replans of
    /// every lane, rejected purchases back off exponentially across
    /// alternative offerings, and (with
    /// [`ServingOptions::max_fraction_per_domain`]) the planner spreads each
    /// lane's deployment across failure domains.
    #[must_use]
    pub fn with_fault_process(mut self, process: FaultProcess) -> Self {
        self.fleet.faults = Some(process);
        self
    }

    /// Attaches a serverless runtime: lanes whose planned demand falls below
    /// the runtime's sparse threshold serve under its keep-alive policy —
    /// their single container parks (and stops billing) once idle past the
    /// policy deadline and pays the cold-start cost on the next dispatch —
    /// and their always-on floor in the budget split drops to zero, so the
    /// freed budget water-fills into the hot lanes.  The lane assignment is
    /// fixed per run, from the demands the run was planned for; each lane's
    /// policy joins its controller's knowledge signature, so moving a lane
    /// between always-on and serverless retires its cached plans.
    #[must_use]
    pub fn with_serverless(mut self, runtime: ServerlessRuntime) -> Self {
        self.fleet.serverless = Some(runtime);
        self
    }

    /// The attached serverless runtime, if any.
    pub fn serverless(&self) -> Option<&ServerlessRuntime> {
        self.fleet.serverless.as_ref()
    }

    /// The attached market state, if this facade trades on one.
    pub fn market(&self) -> Option<&MarketState> {
        self.fleet.market.as_ref()
    }

    /// The served models, indexed by [`ModelId`].
    pub fn models(&self) -> Vec<ModelKind> {
        self.lanes.iter().map(|l| l.controller.model()).collect()
    }

    /// A model's lane (controller, plan cache, variant runtime).
    pub fn lane(&self, model: ModelId) -> &ModelLane {
        &self.lanes[model.index()]
    }

    /// The ground-truth service specifications of the served models, in
    /// [`ModelId`] order — the table handed to
    /// [`SimEngine::new_multi`](kairos_sim::SimEngine::new_multi) by
    /// [`Self::run`].
    pub fn service_specs(&self, latency: &LatencyTable) -> Vec<ServiceSpec> {
        self.lanes
            .iter()
            .map(|l| ServiceSpec::new(l.controller.model(), latency.clone()))
            .collect()
    }

    /// Warm-starts every lane's query monitor from a [`MixSpec`]: `n` draws
    /// are routed to the lane of the model they tag, as a real deployment's
    /// windows would be after any amount of serving.
    pub fn warm_monitors(&mut self, mix: &MixSpec, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            let (model, batch) = mix.sample(&mut rng);
            if let Some(lane) = self.lanes.get_mut(model.index()) {
                lane.controller.observe_query(batch);
            }
        }
    }

    /// Splits the global hourly budget across models by **demand-weighted
    /// water-filling**: every model is guaranteed a floor of one base
    /// instance (zero for lanes an attached [`ServerlessRuntime`] lets
    /// scale to zero); the spare budget is distributed proportionally to
    /// each model's *capacity* demand (its QPS × learned per-query
    /// base-type service time, so slow models are not starved), iteratively
    /// pinning to its floor any model whose proportional share would fall
    /// below it (its freed share re-floods the rest).  Zero total demand
    /// splits the spare evenly, and a single-model service keeps the whole
    /// budget.
    ///
    /// The pinning loop keeps the still-flexible lanes in one in-place list
    /// (pinned lanes are swap-removed as they pin), so a pass over a
    /// thousands-of-lanes split costs O(flex) instead of rebuilding an
    /// all-lanes index vector per round.
    ///
    /// # Panics
    /// Panics if `demands` does not have one entry per model.
    pub fn split_budget(&self, demands: &[f64]) -> Vec<f64> {
        assert_eq!(demands.len(), self.lanes.len(), "one demand per model");
        let fleet = &self.fleet;
        split_budget(
            &self.lanes,
            fleet.serverless.as_ref(),
            fleet.options.budget_per_hour,
            demands,
        )
    }

    /// Plans an initial per-model cluster spec for the given expected
    /// per-model demands (QPS), splitting the global budget first.  The
    /// demands also seed each lane's drift baseline, so a run whose traffic
    /// deviates from the initial plan can replan on drift before the first
    /// cadence tick.  Returns `None` if any lane cannot plan yet (no
    /// latency knowledge).
    ///
    /// With a [`ServerlessRuntime`] attached, sparse lanes are not planned
    /// against their (near-zero) budget share: each gets exactly one base
    /// instance — the vessel the engine parks whenever it idles past the
    /// keep-alive deadline — and its controller adopts the keep-alive
    /// policy, which joins the knowledge signature and retires any cached
    /// always-on plans.  Hot lanes get `None` (always-on) and plan as
    /// before.
    pub fn plan_initial(&mut self, demands: &[f64]) -> Option<ClusterSpec> {
        let budgets = self.split_budget(demands);
        let fleet = &self.fleet;
        let policies = match &fleet.serverless {
            Some(rt) => rt.assign(demands),
            None => vec![None; self.lanes.len()],
        };
        let base_vessel = {
            let mut counts = vec![0; fleet.pool.num_types()];
            counts[fleet.pool.base_index()] = 1;
            Config::new(counts)
        };
        let spread = fleet.options.spread(&fleet.placements);
        let mut configs = Vec::with_capacity(self.lanes.len());
        for (m, (lane, policy)) in self.lanes.iter_mut().zip(policies).enumerate() {
            let always_on = policy.is_none();
            lane.controller.set_serverless_policy(policy);
            configs.push(if always_on {
                lane.plan_for_demand_with_budget(spread, budgets[m], demands[m])?
            } else {
                base_vessel.clone()
            });
            self.planned[m] = Some(demands[m]);
        }
        Some(ClusterSpec::from_configs(configs))
    }

    /// Builds the multi-model query distributor from every lane's current
    /// latency knowledge.
    pub fn make_scheduler(&self) -> MultiScheduler {
        MultiScheduler::for_lanes(&self.lanes)
    }

    /// Runs the multi-model controller-in-the-loop simulation of `trace`
    /// (a [`ModelId`]-tagged query stream) on `services`, starting from
    /// `initial`: the serving control loop with one lane per model.  Every
    /// lane observes its own arrivals and completions and replans on the
    /// shared cadence or on its own drift signal; on each replan the global
    /// budget is re-split across lanes by current demand and each due lane's
    /// sub-cluster is steered independently (graceful add/retire).  With
    /// several lanes, a lane's drift or market replan leaves the shared
    /// cadence clock alone; a one-lane service restarts it on every trigger.
    /// An attached fault process reaches every lane: outages and shortages
    /// replan each lane with [`ReplanTrigger::Fault`](crate::ReplanTrigger).
    ///
    /// # Panics
    /// Panics if `services` does not cover every lane (in [`ModelId`]
    /// order), or if the trace contains a query for a model this service
    /// does not serve.
    pub fn run(
        &mut self,
        initial: &ClusterSpec,
        services: &[ServiceSpec],
        trace: &Trace,
    ) -> MultiServingOutcome {
        let n = self.lanes.len();
        self.check_services(services);
        if let Some(stray) = trace.queries.iter().find(|q| q.model.index() >= n) {
            panic!(
                "trace query {} targets model {} but only {n} models are served",
                stray.id, stray.model
            );
        }
        let service_refs: Vec<&ServiceSpec> = services.iter().collect();
        control_loop::serve(
            &mut self.lanes,
            &mut self.planned,
            &mut self.fleet,
            initial,
            &service_refs,
            trace,
        )
    }

    /// Panics unless `services` holds one spec per lane, in [`ModelId`]
    /// order.
    fn check_services(&self, services: &[ServiceSpec]) {
        assert_eq!(
            services.len(),
            self.lanes.len(),
            "one service spec per model"
        );
        for (i, (lane, service)) in self.lanes.iter().zip(services).enumerate() {
            assert_eq!(
                lane.controller.model(),
                service.model.kind,
                "service spec {i} does not match lane model"
            );
        }
    }
}

/// Demand-weighted water-filling of `budget` across `lanes` (see
/// [`InferenceService::split_budget`]); a single lane owns the whole budget.
pub(crate) fn split_budget(
    lanes: &[ModelLane],
    serverless: Option<&ServerlessRuntime>,
    budget: f64,
    demands: &[f64],
) -> Vec<f64> {
    let n = lanes.len();
    if n == 1 {
        return vec![budget];
    }
    // The lanes' live planning pool (lanes share it).
    let pool = lanes[0].controller.pool();
    let base_name = &pool.types()[pool.base_index()].name;
    // Capacity weights: offered QPS × the learned per-query service time on
    // the pool's base type at the lane's observed mean batch size, i.e. how
    // many base-instance seconds per second the model actually consumes.
    // Raw QPS would starve slow models (an RM2 query costs ~100× an NCF
    // query); lanes without latency knowledge fall back to raw QPS.
    let weights: Vec<f64> = lanes
        .iter()
        .zip(demands)
        .map(|(lane, &demand)| {
            let controller = &lane.controller;
            let per_query_s = controller
                .learned_table()
                .and_then(|t| t.get(controller.model(), base_name))
                .map(|profile| {
                    let batch = controller.monitor().mean().unwrap_or(1.0);
                    profile.latency_ms(batch.round().max(1.0) as u32) / 1000.0
                })
                .unwrap_or(1.0);
            demand.max(0.0) * per_query_s
        })
        .collect();
    // Floors: one base instance per lane, except lanes the serverless
    // runtime classifies as sparse — their parked container bills nothing,
    // so the split owes them nothing up front.
    let base_floor = pool.price(pool.base_index());
    let floors: Vec<f64> = demands
        .iter()
        .map(|&d| match serverless {
            Some(rt) if rt.is_sparse(d) => 0.0,
            _ => base_floor,
        })
        .collect();
    let mut alloc = floors.clone();
    let mut flex: Vec<usize> = (0..n).collect();
    let mut pinned_total = 0.0;
    loop {
        if flex.is_empty() {
            break;
        }
        let spare = budget - pinned_total;
        let flex_weight: f64 = flex.iter().map(|&i| weights[i]).sum();
        // Round-start snapshot of the flex count: every lane in this round
        // shares against the same denominator even as pinned lanes are
        // swap-removed mid-round.
        let round_len = flex.len();
        let mut changed = false;
        let mut k = 0;
        while k < flex.len() {
            let i = flex[k];
            let share = if flex_weight > 0.0 {
                weights[i] / flex_weight
            } else {
                1.0 / round_len as f64
            };
            alloc[i] = spare * share;
            if alloc[i] < floors[i] {
                alloc[i] = floors[i];
                pinned_total += floors[i];
                flex.swap_remove(k);
                changed = true;
            } else {
                k += 1;
            }
        }
        if !changed {
            break;
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{within_spread, ReplanTrigger, ServingSystem};
    use kairos_models::{
        calibration::paper_calibration, ec2, FailureDomain, FaultEvent, Offering,
        PreemptionProcess, PriceTrace, TraceMarket,
    };
    use kairos_workload::{ArrivalProcess, BatchSizeDistribution, MixedTraceSpec, PhasedArrival};

    fn pool() -> PoolSpec {
        PoolSpec::new(ec2::paper_pool())
    }

    fn three_models() -> [ModelKind; 3] {
        [ModelKind::Ncf, ModelKind::Rm2, ModelKind::Wnd]
    }

    fn mix() -> MixSpec {
        MixSpec::from_shares(
            &[0.4, 0.3, 0.3],
            &[
                BatchSizeDistribution::production_default(),
                BatchSizeDistribution::production_default(),
                BatchSizeDistribution::production_default(),
            ],
        )
    }

    fn service(options: ServingOptions) -> InferenceService {
        InferenceService::new(pool(), &three_models(), Some(paper_calibration()), options)
    }

    #[test]
    fn budget_split_is_capacity_weighted_with_floors() {
        let mut s = service(ServingOptions::default().budget(6.0));
        s.warm_monitors(&mix(), 3000, 3);
        let split = s.split_budget(&[100.0, 100.0, 100.0]);
        assert_eq!(split.len(), 3);
        let total: f64 = split.iter().sum();
        assert!((total - 6.0).abs() < 1e-9, "the split spends the budget");
        // Equal QPS is *not* equal capacity: an RM2 query costs ~100x an NCF
        // query on the base type, so RM2 (model 1) must get the dominant
        // share while the cheap models sit at (or near) the floor.
        let floor = pool().price(pool().base_index());
        assert!(
            split[1] > split[0] && split[1] > split[2],
            "split {split:?}"
        );
        assert!(
            split[1] > 6.0 - 3.0 * floor,
            "RM2 takes the spare: {split:?}"
        );
        assert!(split[0] >= floor - 1e-9 && split[2] >= floor - 1e-9);
        // A starved model is pinned at the floor (one base instance).
        let skew = s.split_budget(&[1000.0, 0.0, 1000.0]);
        assert!((skew[1] - floor).abs() < 1e-9, "idle model gets the floor");
        let total: f64 = skew.iter().sum();
        assert!((total - 6.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn budget_below_per_model_floors_rejected() {
        service(ServingOptions::default().budget(0.9));
    }

    #[test]
    fn plan_initial_binds_one_config_per_model_within_budget() {
        let mut s = service(ServingOptions::default().budget(6.0));
        s.warm_monitors(&mix(), 3000, 11);
        let spec = s.plan_initial(&[60.0, 40.0, 50.0]).unwrap();
        assert_eq!(spec.pools.len(), 3);
        assert!(spec.cost(&pool()) <= 6.0 + 1e-9);
        for (m, slice) in spec.pools.iter().enumerate() {
            assert_eq!(slice.model, ModelId::new(m));
            assert!(slice.config.count(pool().base_index()) >= 1);
        }
    }

    #[test]
    fn three_model_mix_runs_end_to_end_under_one_budget() {
        let mut s = service(
            ServingOptions::default()
                .budget(6.0)
                .replan_every(500_000)
                .provisioning_delay(200_000),
        );
        s.warm_monitors(&mix(), 3000, 7);
        let spec = s.plan_initial(&[60.0, 45.0, 45.0]).unwrap();
        let services = s.service_specs(&paper_calibration());
        let trace = MixedTraceSpec {
            arrival: ArrivalProcess::Poisson { rate_qps: 150.0 },
            mix: mix(),
            duration_s: 4.0,
            seed: 31,
        }
        .generate();
        let offered = trace.len();
        let outcome = s.run(&spec, &services, &trace);
        assert_eq!(outcome.report.offered, offered);
        assert_eq!(
            outcome.report.completed() + outcome.report.unfinished.len(),
            offered
        );
        // Per-model accounting covers all three models and sums exactly.
        let per = outcome.per_model();
        assert_eq!(per.len(), 3);
        assert!(per.iter().all(|m| m.offered > 0));
        assert_eq!(
            per.iter().map(|m| m.offered).sum::<usize>(),
            outcome.report.offered
        );
        assert_eq!(
            per.iter().map(|m| m.violations).sum::<usize>(),
            outcome.report.violations()
        );
        // Per-model QoS is enforced in-engine: the QoS table carries each
        // model's own target.
        assert_eq!(outcome.report.qos_by_model.len(), 3);
        assert_eq!(outcome.report.qos_for(ModelId::new(0)), 5_000);
        assert_eq!(outcome.report.qos_for(ModelId::new(1)), 350_000);
        assert_eq!(outcome.report.qos_for(ModelId::new(2)), 25_000);
        // The loop replanned and the budget split covers every lane.
        assert!(outcome.replans > 0, "cadence must fire");
        assert_eq!(outcome.last_budget_split.len(), 3);
        assert!(outcome.last_budget_split.iter().sum::<f64>() <= 6.0 + 1e-9);
        // Every query landed on an instance bound to its model.
        let spec_models: Vec<ModelId> =
            outcome.final_active.pools.iter().map(|p| p.model).collect();
        assert_eq!(
            spec_models,
            vec![ModelId::new(0), ModelId::new(1), ModelId::new(2)]
        );
    }

    /// Every lane of the one serving path lands its billing and delivered
    /// accuracy in per-model slots that add up to the combined report, and
    /// a fresh facade re-running the same inputs reproduces it bit-for-bit.
    #[test]
    fn sharded_serving_runs_every_lane_and_accounts_like_the_combined_facade() {
        let options = ServingOptions::default()
            .budget(6.0)
            .replan_every(500_000)
            .provisioning_delay(200_000);
        let mut s = service(options);
        s.warm_monitors(&mix(), 3000, 7);
        let spec = s.plan_initial(&[60.0, 45.0, 45.0]).unwrap();
        let services = s.service_specs(&paper_calibration());
        let trace = MixedTraceSpec {
            arrival: ArrivalProcess::Poisson { rate_qps: 150.0 },
            mix: mix(),
            duration_s: 4.0,
            seed: 31,
        }
        .generate();
        let outcome = s.run(&spec, &services, &trace);
        let per = outcome.per_model();
        assert_eq!(per.len(), 3);
        assert!(per.iter().all(|m| m.offered > 0));
        // Billing lands in per-model slots whose left fold is the total.
        let billed = &outcome.report.billed_by_model;
        assert_eq!(billed.len(), 3);
        assert_eq!(
            billed.iter().fold(0.0, |acc, &b| acc + b).to_bits(),
            outcome.report.billed_dollars.to_bits()
        );
        assert!(outcome.report.billed_dollars > 0.0);
        // Every lane serves its reference model, so each per-model mean
        // accuracy is that model's spec accuracy.
        assert_eq!(outcome.report.accuracy_sum_by_model.len(), 3);
        for (m, &kind) in three_models().iter().enumerate() {
            let expected = kairos_models::mlmodel::spec(kind).accuracy;
            assert!(
                (per[m].mean_accuracy - expected).abs() < 1e-9,
                "model {m}: {} != {expected}",
                per[m].mean_accuracy
            );
        }
        // Deterministic: a fresh facade re-running the same inputs
        // reproduces the report bit-for-bit.
        let mut again = service(options);
        again.warm_monitors(&mix(), 3000, 7);
        let outcome2 = again.run(&spec, &services, &trace);
        assert_eq!(outcome.report.records, outcome2.report.records);
        assert_eq!(outcome.report.unfinished, outcome2.report.unfinished);
        assert_eq!(
            outcome.report.billed_dollars.to_bits(),
            outcome2.report.billed_dollars.to_bits()
        );
        assert_eq!(outcome.replans, outcome2.replans);
    }

    #[test]
    fn a_second_run_starts_from_fresh_loop_state() {
        let mut s = service(
            ServingOptions::default()
                .budget(6.0)
                .replan_every(500_000)
                .provisioning_delay(200_000),
        );
        s.warm_monitors(&mix(), 3000, 7);
        let spec = s.plan_initial(&[60.0, 45.0, 45.0]).unwrap();
        let services = s.service_specs(&paper_calibration());
        let trace = MixedTraceSpec {
            arrival: ArrivalProcess::Poisson { rate_qps: 150.0 },
            mix: mix(),
            duration_s: 4.0,
            seed: 31,
        }
        .generate();
        s.run(&spec, &services, &trace);
        // The second run's virtual clock restarts at zero: arrival windows
        // and cooldown stamps left by the first run must not feed its demand
        // estimates.
        let again = s.run(&spec, &services, &trace);
        let offered_qps = trace.offered_qps();
        for r in &again.reconfigs {
            assert!(
                r.demand_qps <= 10.0 * offered_qps,
                "second run planned lane {} for {} QPS (offered {offered_qps})",
                r.model,
                r.demand_qps
            );
        }
        assert_eq!(
            again.report.completed() + again.report.unfinished.len(),
            trace.len()
        );
    }

    #[test]
    fn batching_reaches_the_multi_model_engine() {
        let mut s = service(
            ServingOptions::default()
                .budget(6.0)
                .replan_every(500_000)
                .batching(256, 2_000),
        );
        s.warm_monitors(&mix(), 3000, 7);
        let spec = s.plan_initial(&[60.0, 45.0, 45.0]).unwrap();
        let services = s.service_specs(&paper_calibration());
        let trace = MixedTraceSpec {
            arrival: ArrivalProcess::Poisson { rate_qps: 150.0 },
            mix: mix(),
            duration_s: 4.0,
            seed: 31,
        }
        .generate();
        let outcome = s.run(&spec, &services, &trace);
        assert!(
            outcome.report.service.batches_fired > 0,
            "the batching knob must reach the engine"
        );
        assert_eq!(
            outcome.report.completed() + outcome.report.unfinished.len(),
            outcome.report.offered
        );
        assert_eq!(outcome.report.offered, trace.len());
    }

    #[test]
    fn one_model_drift_replans_only_that_lane() {
        let mut s = service(
            ServingOptions::default()
                .budget(6.0)
                .replan_every(100_000_000), // cadence never fires in-trace
        );
        s.warm_monitors(&mix(), 3000, 19);
        let spec = s.plan_initial(&[40.0, 30.0, 30.0]).unwrap();
        let services = s.service_specs(&paper_calibration());
        // Model 0's rate quadruples mid-trace; the others stay flat.
        use kairos_workload::Phase;
        let calm = MixSpec::from_shares(
            &[0.4, 0.3, 0.3],
            &[
                BatchSizeDistribution::production_default(),
                BatchSizeDistribution::production_default(),
                BatchSizeDistribution::production_default(),
            ],
        );
        // RM2 (model 1, the slow 350 ms model) spikes; the others stay flat.
        let spiked = MixSpec::from_shares(
            &[0.12, 0.76, 0.12],
            &[
                BatchSizeDistribution::production_default(),
                BatchSizeDistribution::production_default(),
                BatchSizeDistribution::production_default(),
            ],
        );
        let workload = PhasedArrival::new(
            vec![
                Phase::poisson_mix(100.0, calm, 3.0),
                Phase::poisson_mix(250.0, spiked, 3.0),
            ],
            23,
        );
        let outcome = s.run(&spec, &services, &workload.generate());
        // The cadence never fires, so every reconfiguration is drift-driven
        // and belongs to the spiking lane.
        assert!(
            outcome.reconfigs.iter().any(|r| r.model == ModelId::new(1)),
            "the spiking model must reconfigure: {:?}",
            outcome.reconfigs
        );
        assert!(
            outcome
                .reconfigs
                .iter()
                .all(|r| r.trigger == ReplanTrigger::Drift),
            "cadence is disabled: {:?}",
            outcome.reconfigs
        );
    }

    #[test]
    fn variant_catalog_downgrades_the_pressured_lane() {
        use kairos_models::VariantCatalog;
        use kairos_workload::Phase;
        let mut s = service(
            ServingOptions::default()
                .budget(6.0)
                .replan_every(500_000)
                .provisioning_delay(200_000),
        )
        .with_variants(&VariantCatalog::paper_variants(), &paper_calibration());
        s.warm_monitors(&mix(), 3000, 19);
        let spec = s.plan_initial(&[40.0, 30.0, 30.0]).unwrap();
        let services = s.service_specs(&paper_calibration());
        // RM2 (model 1, the slow 350 ms model) spikes far past what its
        // budget share can serve at full precision; the others stay flat.
        let spiked = MixSpec::from_shares(
            &[0.12, 0.76, 0.12],
            &[
                BatchSizeDistribution::production_default(),
                BatchSizeDistribution::production_default(),
                BatchSizeDistribution::production_default(),
            ],
        );
        let workload = PhasedArrival::new(
            vec![
                Phase::poisson_mix(100.0, mix(), 2.0),
                Phase::poisson_mix(300.0, spiked, 4.0),
            ],
            23,
        );
        let outcome = s.run(&spec, &services, &workload.generate());
        // The pressured RM2 lane traded accuracy for throughput.
        let rm2 = ModelId::new(1);
        assert!(
            outcome
                .variant_switches
                .iter()
                .any(|sw| sw.model == rm2 && sw.to != "fp32"),
            "the RM2 lane must downgrade: {:?}",
            outcome.variant_switches
        );
        // Accuracy accounting reflects the mixed-variant service: RM2's
        // delivered mean sits strictly between its distilled and reference
        // accuracies, and the aggregate folds all three models.
        let per = outcome.per_model();
        let reference = kairos_models::mlmodel::spec(ModelKind::Rm2).accuracy;
        assert!(per[1].completed > 0);
        assert!(
            per[1].mean_accuracy < reference && per[1].mean_accuracy > reference - 0.05,
            "got {}",
            per[1].mean_accuracy
        );
        let delivered = outcome.report.delivered_accuracy();
        assert!(delivered > 0.9 && delivered < 1.0, "got {delivered}");
    }

    fn tail_runtime(threshold: f64) -> ServerlessRuntime {
        use kairos_models::{ColdStartCost, ColdStartProfile, KeepAlivePolicy};
        ServerlessRuntime::new(
            KeepAlivePolicy::fixed(200_000).unwrap(),
            ColdStartProfile::uniform(ColdStartCost::new(50_000, 150_000)),
            threshold,
        )
    }

    #[test]
    fn serverless_floors_free_the_budget_for_hot_lanes() {
        let mut s = service(ServingOptions::default().budget(6.0));
        s.warm_monitors(&mix(), 3000, 3);
        let demands = [1000.0, 0.5, 0.2];
        let always_on = s.split_budget(&demands);
        let mut s =
            service(ServingOptions::default().budget(6.0)).with_serverless(tail_runtime(5.0));
        s.warm_monitors(&mix(), 3000, 3);
        let split = s.split_budget(&demands);
        let floor = pool().price(pool().base_index());
        // Without serverless the sparse lanes hold a one-base-instance floor
        // each; with it they keep only their (tiny) demand-proportional
        // share and the freed floors water-fill into the hot lane.
        assert!((always_on[1] - floor).abs() < 1e-9);
        assert!((always_on[2] - floor).abs() < 1e-9);
        assert!(split[0] > always_on[0], "split {split:?} vs {always_on:?}");
        assert!(split[1] < floor && split[2] < floor, "split {split:?}");
        assert!((split.iter().sum::<f64>() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_lanes_scale_to_zero_park_and_bill_less_than_their_floors() {
        // Model 0 (NCF) carries ~96% of the traffic; RM2 and WND are a
        // low-QPS tail whose arrivals leave gaps far past the 200 ms
        // keep-alive deadline.
        let sparse_mix = MixSpec::from_shares(
            &[0.96, 0.02, 0.02],
            &[
                BatchSizeDistribution::production_default(),
                BatchSizeDistribution::production_default(),
                BatchSizeDistribution::production_default(),
            ],
        );
        let trace = MixedTraceSpec {
            arrival: ArrivalProcess::Poisson { rate_qps: 60.0 },
            mix: sparse_mix.clone(),
            duration_s: 6.0,
            seed: 17,
        }
        .generate();
        let options = ServingOptions::default().budget(6.0).replan_every(500_000);
        let demands = [58.0, 1.2, 1.2];

        let mut baseline = service(options);
        baseline.warm_monitors(&sparse_mix, 3000, 9);
        let base_spec = baseline.plan_initial(&demands).unwrap();
        let services = baseline.service_specs(&paper_calibration());
        let base = baseline.run(&base_spec, &services, &trace);
        assert_eq!(base.report.service.cold_starts, 0);

        let mut s = service(options).with_serverless(tail_runtime(5.0));
        s.warm_monitors(&sparse_mix, 3000, 9);
        let spec = s.plan_initial(&demands).unwrap();
        // Sparse lanes got exactly the one-base-instance vessel and adopted
        // the keep-alive policy; the hot lane stayed always-on.
        assert_eq!(spec.pools[1].config.total_instances(), 1);
        assert_eq!(spec.pools[2].config.total_instances(), 1);
        assert!(s
            .lane(ModelId::new(0))
            .controller()
            .serverless_policy()
            .is_none());
        assert!(s
            .lane(ModelId::new(1))
            .controller()
            .serverless_policy()
            .is_some());
        let outcome = s.run(&spec, &services, &trace);

        // Conservation still holds and the tail lanes really parked: cold
        // starts happened and parked time accrued.
        assert_eq!(
            outcome.report.completed() + outcome.report.unfinished.len(),
            trace.len()
        );
        assert!(outcome.report.service.cold_starts > 0, "tail must park");
        assert!(outcome.report.service.parked_us_sum > 0);
        // The tail lanes bill strictly less than their always-on floors in
        // the baseline run (parked time is unbilled).
        let tail = |r: &SimReport| r.billed_by_model[1] + r.billed_by_model[2];
        assert!(
            tail(&outcome.report) < tail(&base.report),
            "parked tail {} must undercut always-on tail {}",
            tail(&outcome.report),
            tail(&base.report)
        );
    }

    #[test]
    fn a_zero_threshold_runtime_is_bit_identical_to_no_runtime() {
        // Threshold 0 classifies no lane as sparse: every policy slot is
        // `None`, and the whole facade must reproduce the plain run bit for
        // bit — the serverless lane is pay-for-use.
        let options = ServingOptions::default()
            .budget(6.0)
            .replan_every(500_000)
            .provisioning_delay(200_000);
        let trace = MixedTraceSpec {
            arrival: ArrivalProcess::Poisson { rate_qps: 150.0 },
            mix: mix(),
            duration_s: 3.0,
            seed: 31,
        }
        .generate();
        let demands = [60.0, 45.0, 45.0];

        let mut plain = service(options);
        plain.warm_monitors(&mix(), 3000, 7);
        let spec = plain.plan_initial(&demands).unwrap();
        let services = plain.service_specs(&paper_calibration());
        let a = plain.run(&spec, &services, &trace);

        let mut gated = service(options).with_serverless(tail_runtime(0.0));
        gated.warm_monitors(&mix(), 3000, 7);
        let spec2 = gated.plan_initial(&demands).unwrap();
        assert_eq!(spec.pools.len(), spec2.pools.len());
        for (p, q) in spec.pools.iter().zip(&spec2.pools) {
            assert_eq!(p.config.counts(), q.config.counts());
        }
        let b = gated.run(&spec2, &services, &trace);
        assert_eq!(a.report.records, b.report.records);
        assert_eq!(a.report.unfinished, b.report.unfinished);
        assert_eq!(
            a.report.billed_dollars.to_bits(),
            b.report.billed_dollars.to_bits()
        );
        assert_eq!(a.report.service, b.report.service);
        assert_eq!(a.replans, b.replans);
    }

    /// The same hardware in two zones, zone b a hair dearer, so a
    /// domain-blind plan concentrates in zone a.
    fn two_zone_catalog() -> OfferingCatalog {
        let zone_a = FailureDomain::zone("us-east-1", "us-east-1a");
        let zone_b = FailureDomain::zone("us-east-1", "us-east-1b");
        let mut gpu_b = ec2::g4dn_xlarge();
        gpu_b.is_base = false;
        gpu_b.price_per_hour *= 1.001;
        let mut aux_b = ec2::r5n_large();
        aux_b.price_per_hour *= 1.02;
        OfferingCatalog::new(vec![
            Offering::on_demand(ec2::g4dn_xlarge()).in_domain(zone_a.clone()),
            Offering::on_demand(ec2::r5n_large()).in_domain(zone_a),
            Offering::on_demand(gpu_b).in_domain(zone_b.clone()),
            Offering::on_demand(aux_b).in_domain(zone_b),
        ])
    }

    /// A zone-a outage over `[start_us, start_us + duration_us)`.
    fn zone_a_outage(start_us: u64, duration_us: u64) -> FaultProcess {
        FaultProcess::new(vec![FaultEvent::ZoneOutage {
            domain: FailureDomain::zone("us-east-1", "us-east-1a"),
            start_us,
            duration_us,
        }])
    }

    /// Serves `trace` through the single-model system and through the
    /// one-lane facade built with the same attachments, asserts the two
    /// runs are the same run, and returns the single-model outcome.
    fn assert_one_lane_replay(
        mut system: ServingSystem,
        mut service: InferenceService,
        trace: &Trace,
    ) -> MultiServingOutcome {
        let batches = BatchSizeDistribution::production_default();
        let latency = paper_calibration();
        system.warm_monitor(&batches, 2000, 99);
        let initial = system.plan_for_demand(40.0).unwrap();
        let single = system.run(
            &initial,
            &ServiceSpec::new(ModelKind::Rm2, latency.clone()),
            trace,
        );

        service.warm_monitors(&MixSpec::single(ModelId::DEFAULT, batches), 2000, 99);
        let services = service.service_specs(&latency);
        let multi = service.run(&ClusterSpec::single(initial), &services, trace);

        assert!(single.replans > 0);
        assert_eq!(single.report.records, multi.report.records);
        assert_eq!(single.report.unfinished, multi.report.unfinished);
        assert_eq!(
            single.report.billed_dollars.to_bits(),
            multi.report.billed_dollars.to_bits()
        );
        assert_eq!(single.replans, multi.replans);
        assert_eq!(
            format!("{:?}", single.reconfigs),
            format!("{:?}", multi.reconfigs)
        );
        assert_eq!(
            format!("{:?}", single.variant_switches),
            format!("{:?}", multi.variant_switches)
        );
        single
    }

    #[test]
    fn a_one_lane_service_replays_the_single_model_system() {
        // One lane restarts the replan clock on every trigger, exactly as the
        // single-model entry point does, so the two serve the same run — for
        // every attachment: bare, on a market through a preemption storm, and
        // through a zone outage.
        let options = ServingOptions::default()
            .replan_every(500_000)
            .provisioning_delay(200_000);
        let batches = BatchSizeDistribution::production_default();
        let trace =
            PhasedArrival::step_change(40.0, 160.0, batches.clone(), 3.0, 3.0, 23).generate();
        let latency = paper_calibration();
        let rm2 = [ModelKind::Rm2];

        assert_one_lane_replay(
            ServingSystem::new(pool(), ModelKind::Rm2, Some(latency.clone()), options),
            InferenceService::new(pool(), &rm2, Some(latency.clone()), options),
            &trace,
        );

        let storm = OfferingCatalog::new(vec![
            Offering::on_demand(ec2::g4dn_xlarge()),
            Offering::on_demand(ec2::r5n_large()),
            Offering::spot(
                ec2::g4dn_xlarge(),
                PriceTrace::constant(0.17),
                PreemptionProcess::At {
                    notices_us: vec![3_500_000],
                },
            ),
            Offering::spot(
                ec2::r5n_large(),
                PriceTrace::constant(0.05),
                PreemptionProcess::None,
            ),
        ]);
        let market = || Arc::new(TraceMarket::new(storm.clone()));
        let single = assert_one_lane_replay(
            ServingSystem::with_market(
                storm.clone(),
                market(),
                ModelKind::Rm2,
                Some(latency.clone()),
                options,
            ),
            InferenceService::with_market(
                storm.clone(),
                market(),
                &rm2,
                Some(latency.clone()),
                options,
            ),
            &trace,
        );
        assert!(single.report.preemption_notices >= 1);
        assert!(single
            .reconfigs
            .iter()
            .any(|r| r.trigger == ReplanTrigger::Market));

        let zones = two_zone_catalog();
        let market = || Arc::new(TraceMarket::new(zones.clone()));
        let options = options.spread_limit(0.75);
        let outage = zone_a_outage(2_500_000, 2_000_000);
        let single = assert_one_lane_replay(
            ServingSystem::with_market(
                zones.clone(),
                market(),
                ModelKind::Rm2,
                Some(latency.clone()),
                options,
            )
            .with_fault_process(outage.clone()),
            InferenceService::with_market(
                zones.clone(),
                market(),
                &rm2,
                Some(latency.clone()),
                options,
            )
            .with_fault_process(outage),
            &trace,
        );
        assert_eq!(single.report.outages.len(), 1);
        assert!(single
            .reconfigs
            .iter()
            .any(|r| r.trigger == ReplanTrigger::Fault));

        let catalog = VariantCatalog::paper_variants();
        let options = ServingOptions::default()
            .replan_every(500_000)
            .provisioning_delay(200_000);
        let single = assert_one_lane_replay(
            ServingSystem::new(pool(), ModelKind::Rm2, Some(latency.clone()), options)
                .with_variants(&catalog, &latency),
            InferenceService::new(pool(), &rm2, Some(latency.clone()), options)
                .with_variants(&catalog, &latency),
            &trace,
        );
        assert!(
            !single.variant_switches.is_empty(),
            "the step change must switch variants"
        );
    }

    #[test]
    fn faults_reach_every_lane_of_a_three_model_service() {
        let catalog = two_zone_catalog();
        let market = Arc::new(TraceMarket::new(catalog.clone()));
        let mut s = InferenceService::with_market(
            catalog,
            market,
            &three_models(),
            Some(paper_calibration()),
            ServingOptions::default()
                .budget(6.0)
                .replan_every(500_000)
                .provisioning_delay(200_000),
        )
        .with_fault_process(zone_a_outage(2_000_000, 2_000_000));
        s.warm_monitors(&mix(), 3000, 7);
        let spec = s.plan_initial(&[60.0, 45.0, 45.0]).unwrap();
        let services = s.service_specs(&paper_calibration());
        let trace = MixedTraceSpec {
            arrival: ArrivalProcess::Poisson { rate_qps: 150.0 },
            mix: mix(),
            duration_s: 5.0,
            seed: 31,
        }
        .generate();
        let outcome = s.run(&spec, &services, &trace);
        let report = &outcome.report;

        // The outage fired, was booked, and drove at least one Fault replan.
        assert_eq!(report.outages.len(), 1);
        assert!(
            outcome
                .reconfigs
                .iter()
                .any(|r| r.trigger == ReplanTrigger::Fault),
            "a fault replan must fire: {:?}",
            outcome.reconfigs
        );
        // Kills and rejected purchases lose no query, in aggregate or per
        // model.
        assert_eq!(report.offered, trace.len());
        assert_eq!(report.completed() + report.unfinished.len(), report.offered);
        let per = outcome.per_model();
        assert_eq!(per.len(), 3);
        for m in &per {
            assert_eq!(m.completed + m.unfinished, m.offered, "model {}", m.model);
        }
        // The calendar's books balance.
        let service = &report.service;
        assert!(service.calendar_stale_popped <= service.calendar_cancelled);
        assert!(service.calendar_cancelled <= service.calendar_scheduled);
        // The billing integral is the left fold of the per-model bills.
        let folded = report.billed_by_model.iter().fold(0.0, |acc, &b| acc + b);
        assert_eq!(report.billed_dollars.to_bits(), folded.to_bits());
    }

    #[test]
    fn market_lanes_plan_under_the_catalog_spread() {
        let catalog = two_zone_catalog();
        let market = Arc::new(TraceMarket::new(catalog.clone()));
        let mut s = InferenceService::with_market(
            catalog.clone(),
            market,
            &three_models(),
            Some(paper_calibration()),
            ServingOptions::default().budget(6.0).spread_limit(0.5),
        );
        s.warm_monitors(&mix(), 3000, 11);
        let domains = catalog.domains();
        assert_eq!(s.fleet.placements, domains);
        let spec = s.plan_initial(&[60.0, 45.0, 45.0]).unwrap();
        for slice in &spec.pools {
            assert!(
                within_spread(slice.config.counts(), &domains, 0.5),
                "lane {} plans {} past the spread",
                slice.model,
                slice.config
            );
        }
    }
}
