//! Model-less variant selection: the accuracy axis of the planner.
//!
//! A [`VariantCatalog`] publishes, per model,
//! a reference (full-precision) deployment plus cheaper quantized/distilled
//! variants that trade accuracy for latency.  This module lowers that
//! catalog into the existing planning machinery the same way PR 5's
//! offering catalog lowers purchase options into a flat
//! [`PoolSpec`]: every variant becomes a *lane*
//! with its own concrete [`LatencyTable`], and the unchanged
//! [`ThroughputEstimator`] ranks configurations
//! per lane.  The variant axis is then just one more loop around the
//! solver:
//!
//! 1. **Dominance pruning** ([`prune_dominated`]) — a variant that is no
//!    more accurate *and* no faster on any instance type than another is
//!    Pareto-dominated on both axes the planner cares about and is dropped
//!    before any estimator runs (the variant analogue of the Kairos+
//!    candidate pruning).
//! 2. **Per-lane ranking** ([`VariantPlanner::rank_configs_variants`]) —
//!    each surviving lane above the accuracy floor ranks the affordable
//!    configuration space under its own latency table; the per-lane lists
//!    merge into one (upper bound, accuracy)-ordered frontier.
//! 3. **Admissible selection** ([`VariantPlanner::plan_for_demand`]) — the
//!    highest-accuracy admissible lane with a demand-covering configuration
//!    in budget wins; when no lane covers, the one with the largest
//!    achievable bound serves degraded (downgrade-under-pressure), and the
//!    next replan re-promotes automatically once headroom returns.
//!
//! The online half (per-replan switching inside a live serving loop) lives
//! in [`crate::serving`]; this module is the pure planning layer it calls.

use crate::controller::KairosController;
use crate::planner::PlanCache;
use crate::serving::DEMAND_HEADROOM;
use crate::ThroughputEstimator;
use kairos_models::{
    latency::{LatencyProfile, LatencyTable},
    mlmodel::ModelKind,
    Config, EnumerationOptions, ModelVariant, PoolSpec, VariantCatalog,
};

/// One deployable variant of a model, lowered against a concrete pool: the
/// variant's identity plus its latency knowledge in both the table form the
/// controller wants and the pool-ordered form the engine hot-swap wants.
#[derive(Debug, Clone)]
pub struct VariantLane {
    /// The catalog variant this lane serves.
    pub variant: ModelVariant,
    /// The variant's per-(model, type) latency table — the priors a
    /// controller adopts when switching to this lane.
    pub priors: LatencyTable,
    /// The same profiles in pool-type order — the slice
    /// `SimEngine::set_model_profiles` takes when the switch goes live.
    pub profiles: Vec<LatencyProfile>,
}

impl VariantLane {
    /// Delivered accuracy of this lane's variant.
    pub fn accuracy(&self) -> f64 {
        self.variant.accuracy
    }

    /// The variant's name within its model family (e.g. `"int8"`).
    pub fn name(&self) -> &str {
        &self.variant.name
    }

    /// Whether this lane serves the reference (full-precision) variant.
    pub fn is_reference(&self) -> bool {
        self.variant.reference
    }
}

/// Lowers a model's catalog variants against a pool and a base (reference)
/// latency table: one [`VariantLane`] per variant, in the catalog's order
/// (reference first, then accuracy-descending).
///
/// # Panics
/// Panics if the catalog has no variants for `model`, or if `base` lacks a
/// profile for some pool type.
pub fn build_lanes(
    pool: &PoolSpec,
    model: ModelKind,
    base: &LatencyTable,
    catalog: &VariantCatalog,
) -> Vec<VariantLane> {
    let variants = catalog.variants_for(model);
    assert!(
        !variants.is_empty(),
        "variant catalog has no entries for model {model}"
    );
    variants
        .iter()
        .map(|variant| {
            let mut priors = LatencyTable::new();
            let mut profiles = Vec::with_capacity(pool.num_types());
            for ty in pool.types() {
                let profile = variant.profile_on(&ty.name, base.expect(model, &ty.name));
                priors.insert(model, &ty.name, profile);
                profiles.push(profile);
            }
            VariantLane {
                variant: variant.clone(),
                priors,
                profiles,
            }
        })
        .collect()
}

/// Whether lane `a` Pareto-dominates lane `b` on the two axes the planner
/// trades: at least as accurate, and at least as fast (intercept and slope)
/// on *every* pool type, with at least one of those comparisons strict.
fn dominates(a: &VariantLane, b: &VariantLane) -> bool {
    if a.variant.accuracy < b.variant.accuracy {
        return false;
    }
    let mut strict = a.variant.accuracy > b.variant.accuracy;
    for (pa, pb) in a.profiles.iter().zip(&b.profiles) {
        if pa.intercept_ms > pb.intercept_ms || pa.slope_ms > pb.slope_ms {
            return false;
        }
        strict |= pa.intercept_ms < pb.intercept_ms || pa.slope_ms < pb.slope_ms;
    }
    strict
}

/// Drops every lane Pareto-dominated by another on (accuracy, latency) —
/// a dominated variant can never be the right answer at any accuracy floor,
/// so pruning it up front spares the estimator an entire ranking pass (the
/// variant analogue of the Kairos+ candidate pruning).  The reference lane
/// is always kept: it is the legacy-equivalence anchor every serving loop
/// starts from, even when an equally accurate but faster variant exists.
pub fn prune_dominated(lanes: Vec<VariantLane>) -> Vec<VariantLane> {
    let keep: Vec<bool> = lanes
        .iter()
        .enumerate()
        .map(|(j, lane)| {
            lane.is_reference()
                || !lanes
                    .iter()
                    .enumerate()
                    .any(|(i, other)| i != j && dominates(other, lane))
        })
        .collect();
    lanes
        .into_iter()
        .zip(keep)
        .filter_map(|(lane, keep)| keep.then_some(lane))
        .collect()
}

/// One entry of the variant-aware ranking: a lane, a configuration, and the
/// configuration's throughput upper bound under that lane's latency table.
#[derive(Debug, Clone)]
pub struct VariantChoice {
    /// Index of the lane in [`VariantPlanner::lanes`].
    pub lane: usize,
    /// The variant's name within its model family.
    pub variant: String,
    /// Delivered accuracy of the lane.
    pub accuracy: f64,
    /// The configuration.
    pub config: Config,
    /// Throughput upper bound of `config` under the lane's latency table.
    pub upper_bound: f64,
}

/// The accuracy-aware configuration planner: the Kairos estimator run once
/// per (pruned, admissible) variant lane, with selection over the merged
/// frontier.  See the module docs for where this sits in the pipeline.
#[derive(Debug, Clone)]
pub struct VariantPlanner {
    pool: PoolSpec,
    model: ModelKind,
    lanes: Vec<VariantLane>,
}

impl VariantPlanner {
    /// Builds the planner for `model`: lowers the catalog against the pool
    /// and base table ([`build_lanes`]) and prunes dominated variants
    /// ([`prune_dominated`]).
    pub fn new(
        pool: PoolSpec,
        model: ModelKind,
        base: &LatencyTable,
        catalog: &VariantCatalog,
    ) -> Self {
        let lanes = prune_dominated(build_lanes(&pool, model, base, catalog));
        Self { pool, model, lanes }
    }

    /// The surviving lanes, reference first then accuracy-descending.
    pub fn lanes(&self) -> &[VariantLane] {
        &self.lanes
    }

    /// The indices of the lanes meeting the accuracy floor (all lanes when
    /// `min_accuracy` is `None`).  The `1e-9` slack keeps a floor set to a
    /// variant's published accuracy from excluding that variant over the
    /// last bit of an `f64`.
    fn admissible(&self, min_accuracy: Option<f64>) -> Vec<usize> {
        (0..self.lanes.len())
            .filter(|&i| {
                min_accuracy.is_none_or(|floor| self.lanes[i].variant.accuracy + 1e-9 >= floor)
            })
            .collect()
    }

    /// Ranks the affordable configuration space under every admissible lane
    /// and merges the per-lane lists into one frontier, ordered by upper
    /// bound (descending), then accuracy (descending), then lane index.
    /// Each lane ranks through the planner's fused pass
    /// ([`ThroughputEstimator::rank_affordable`]), so a lane's list is
    /// exactly what a single-variant plan under its latency table ranks.
    ///
    /// # Panics
    /// Panics if the budget cannot afford any configuration, or if no lane
    /// meets the accuracy floor.
    pub fn rank_configs_variants(
        &self,
        budget_per_hour: f64,
        batch_sample: &[u32],
        min_accuracy: Option<f64>,
    ) -> Vec<VariantChoice> {
        let admissible = self.admissible(min_accuracy);
        assert!(
            !admissible.is_empty(),
            "no variant of {} meets the accuracy floor {min_accuracy:?}",
            self.model
        );
        let options = EnumerationOptions::with_budget(budget_per_hour);
        let mut merged: Vec<VariantChoice> = Vec::new();
        for &i in &admissible {
            let lane = &self.lanes[i];
            let ranked = self.estimator(lane, batch_sample).rank_affordable(&options);
            assert!(
                !ranked.is_empty(),
                "budget {budget_per_hour} cannot afford any configuration with a base instance"
            );
            if merged.is_empty() {
                // Every lane ranks the same affordable set.
                merged.reserve_exact(admissible.len() * ranked.len());
            }
            for (config, upper_bound) in ranked {
                merged.push(VariantChoice {
                    lane: i,
                    variant: lane.variant.name.clone(),
                    accuracy: lane.variant.accuracy,
                    config,
                    upper_bound,
                });
            }
        }
        merged.sort_by(|a, b| {
            b.upper_bound
                .total_cmp(&a.upper_bound)
                .then(b.accuracy.total_cmp(&a.accuracy))
                .then(a.lane.cmp(&b.lane))
        });
        merged
    }

    /// One lane's estimator: the bound under the lane's own latency table.
    fn estimator(&self, lane: &VariantLane, batch_sample: &[u32]) -> ThroughputEstimator {
        ThroughputEstimator::from_sample(self.pool.clone(), self.model, &lane.priors, batch_sample)
    }

    /// The accuracy-aware analogue of the serving loop's demand planner:
    /// among admissible lanes, the **highest-accuracy** lane with a
    /// configuration in budget whose upper bound covers
    /// `demand_qps × headroom` wins (with the *cheapest* such configuration,
    /// as in single-variant serving); when no lane covers, the admissible
    /// lane with the largest achievable bound serves degraded.  Returns
    /// `None` when no lane meets the floor.
    pub fn plan_for_demand(
        &self,
        budget_per_hour: f64,
        batch_sample: &[u32],
        demand_qps: f64,
        headroom: f64,
        min_accuracy: Option<f64>,
    ) -> Option<VariantChoice> {
        let admissible = self.admissible(min_accuracy);
        let required = demand_qps * headroom;
        let options = EnumerationOptions::with_budget(budget_per_hour);
        let mut fallback: Option<VariantChoice> = None;
        let mut best: Option<VariantChoice> = None;
        for &i in &admissible {
            let lane = &self.lanes[i];
            let space = self
                .estimator(lane, batch_sample)
                .score_affordable(&options);
            let choice = |entry: usize| VariantChoice {
                lane: i,
                variant: lane.variant.name.clone(),
                accuracy: lane.variant.accuracy,
                config: space.config(entry),
                upper_bound: space.bound(entry),
            };
            if let Some(found) = space.cheapest_covering(required, |_| true) {
                let found = choice(found);
                // Lanes iterate accuracy-descending: the first covering
                // lane is the most accurate one.
                if best
                    .as_ref()
                    .is_none_or(|b| found.accuracy > b.accuracy + 1e-12)
                {
                    best = Some(found);
                }
            } else if let Some(&top) = space.top().first() {
                let top = choice(top);
                if fallback
                    .as_ref()
                    .is_none_or(|f| top.upper_bound > f.upper_bound)
                {
                    fallback = Some(top);
                }
            }
        }
        best.or(fallback)
    }

    /// The frontier query: among admissible lanes, the globally **cheapest**
    /// configuration in budget whose upper bound covers
    /// `demand_qps × headroom` (at equal cost the higher-accuracy lane
    /// wins).  Where [`Self::plan_for_demand`] answers the serving loop's
    /// question — the most accurate service that still meets demand — this
    /// answers the capacity planner's: what does meeting demand *cost* at a
    /// given accuracy floor.  Sweeping the floor traces the accuracy-vs-cost
    /// frontier; the strictest floor (reference only) is exactly what
    /// single-variant Kairos pays.  Returns `None` when no admissible lane
    /// covers the demand.
    ///
    /// # Panics
    /// Panics if the budget cannot afford any configuration, or if no lane
    /// meets the accuracy floor.
    pub fn cheapest_for_demand(
        &self,
        budget_per_hour: f64,
        batch_sample: &[u32],
        demand_qps: f64,
        headroom: f64,
        min_accuracy: Option<f64>,
    ) -> Option<VariantChoice> {
        let required = demand_qps * headroom;
        self.rank_configs_variants(budget_per_hour, batch_sample, min_accuracy)
            .into_iter()
            .filter(|c| c.upper_bound >= required)
            .min_by(|a, b| {
                a.config
                    .cost(&self.pool)
                    .total_cmp(&b.config.cost(&self.pool))
                    .then(b.accuracy.total_cmp(&a.accuracy))
            })
    }
}

/// The per-model runtime state of online variant switching inside a serving
/// loop: the (pruned) lanes, one [`PlanCache`] per lane (each lane has its
/// own knowledge signature, so caches never alias), and which lane is live.
/// Lane `0` is always the reference variant — the state a fresh engine
/// starts in.
#[derive(Debug, Clone)]
pub struct VariantRuntime {
    lanes: Vec<VariantLane>,
    caches: Vec<PlanCache>,
    active: usize,
}

impl VariantRuntime {
    /// Wraps pruned lanes into runtime state, starting on the reference.
    ///
    /// # Panics
    /// Panics unless lane 0 exists and is the reference variant.
    pub fn new(lanes: Vec<VariantLane>) -> Self {
        assert!(
            lanes.first().is_some_and(|l| l.is_reference()),
            "lane 0 must be the reference variant"
        );
        let caches = vec![PlanCache::new(); lanes.len()];
        Self {
            lanes,
            caches,
            active: 0,
        }
    }

    /// The lanes, reference first then accuracy-descending.
    pub fn lanes(&self) -> &[VariantLane] {
        &self.lanes
    }

    /// Index of the live lane.
    pub fn active(&self) -> usize {
        self.active
    }

    /// The live lane.
    pub fn active_lane(&self) -> &VariantLane {
        &self.lanes[self.active]
    }

    /// Makes lane `index` the live one.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn set_active(&mut self, index: usize) {
        assert!(index < self.lanes.len(), "lane {index} out of range");
        self.active = index;
    }

    /// Picks the lane the loop should serve on for the coming interval:
    /// the highest-accuracy lane at or above the accuracy floor
    /// `min_accuracy` (every lane when `None`) whose scored plan covers
    /// `demand_qps × DEMAND_HEADROOM` within the budget, else the admissible
    /// lane with the largest achievable bound (downgrade-under-pressure; the
    /// same rule re-promotes automatically once demand recedes).  The live
    /// lane is evaluated with the loop's real `controller` — its online
    /// latency fits included — while every other lane is probed through a
    /// clone that adopts the lane's static priors, so probing never
    /// perturbs live state.  Per-lane [`PlanCache`]s keep repeated probes
    /// under stationary knowledge near-free.
    pub fn select_lane(
        &mut self,
        controller: &KairosController,
        min_accuracy: Option<f64>,
        budget_per_hour: f64,
        demand_qps: f64,
    ) -> usize {
        let required = demand_qps * DEMAND_HEADROOM;
        let mut fallback: Option<(usize, f64)> = None;
        for i in 0..self.lanes.len() {
            let lane = &self.lanes[i];
            if min_accuracy.is_some_and(|floor| lane.variant.accuracy + 1e-9 < floor) {
                continue;
            }
            let probe;
            let view = if i == self.active {
                controller
            } else {
                let mut clone = controller.clone();
                clone.adopt_variant(lane.priors.clone(), lane.variant.accuracy);
                probe = clone;
                &probe
            };
            let Some(plan) = self.caches[i].plan(view, budget_per_hour) else {
                continue;
            };
            let best_ub = plan.space.best_bound();
            if best_ub >= required {
                // Lanes are accuracy-descending: first cover wins.
                return i;
            }
            if fallback.is_none_or(|(_, ub)| best_ub > ub) {
                fallback = Some((i, best_ub));
            }
        }
        fallback.map(|(i, _)| i).unwrap_or(self.active)
    }
}

/// Convenience: the paper-shaped three-variant catalog restricted to
/// `models`, lowered and pruned against a pool and base table — what the
/// bench figures and examples start from.
pub fn paper_variant_planner(
    pool: &PoolSpec,
    model: ModelKind,
    base: &LatencyTable,
) -> VariantPlanner {
    let catalog = VariantCatalog::paper_variants();
    VariantPlanner::new(pool.clone(), model, base, &catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::{calibration::paper_calibration, ec2};

    fn pool() -> PoolSpec {
        PoolSpec::new(ec2::paper_pool())
    }

    fn sample() -> Vec<u32> {
        (0..2000u32).map(|i| 10 + i % 300).collect()
    }

    #[test]
    fn reference_lane_lowering_is_bit_identical_to_the_base_table() {
        let catalog = VariantCatalog::reference_only(&[ModelKind::Rm2]);
        let lanes = build_lanes(&pool(), ModelKind::Rm2, &paper_calibration(), &catalog);
        assert_eq!(lanes.len(), 1);
        assert!(lanes[0].is_reference());
        let truth = paper_calibration();
        for (i, ty) in pool().types().iter().enumerate() {
            let base = truth.expect(ModelKind::Rm2, &ty.name);
            let lane = lanes[0].profiles[i];
            assert_eq!(lane.intercept_ms.to_bits(), base.intercept_ms.to_bits());
            assert_eq!(lane.slope_ms.to_bits(), base.slope_ms.to_bits());
            let table = lanes[0].priors.expect(ModelKind::Rm2, &ty.name);
            assert_eq!(table.intercept_ms.to_bits(), base.intercept_ms.to_bits());
        }
    }

    #[test]
    fn dominated_variants_are_pruned_but_the_reference_survives() {
        let reference = ModelVariant::reference(ModelKind::Rm2);
        // Strictly worse than int8 on both axes: dominated.
        let slow_int8 =
            ModelVariant::try_new("int8-slow", ModelKind::Rm2, 0.96, 4096, 1.2).unwrap();
        let int8 = ModelVariant::try_new("int8", ModelKind::Rm2, 0.97, 2048, 1.8).unwrap();
        let catalog = VariantCatalog::try_new(vec![reference, slow_int8, int8]).unwrap();
        let lanes = prune_dominated(build_lanes(
            &pool(),
            ModelKind::Rm2,
            &paper_calibration(),
            &catalog,
        ));
        let names: Vec<&str> = lanes.iter().map(|l| l.name()).collect();
        assert_eq!(names, vec!["fp32", "int8"]);
    }

    #[test]
    fn equal_accuracy_faster_variant_never_prunes_the_reference() {
        let reference = ModelVariant::reference(ModelKind::Rm2);
        let accuracy = reference.accuracy;
        let twin = ModelVariant::try_new("fp16", ModelKind::Rm2, accuracy, 4096, 1.9).unwrap();
        let catalog = VariantCatalog::try_new(vec![reference, twin]).unwrap();
        let lanes = prune_dominated(build_lanes(
            &pool(),
            ModelKind::Rm2,
            &paper_calibration(),
            &catalog,
        ));
        assert!(lanes.iter().any(|l| l.is_reference()));
        assert_eq!(lanes.len(), 2, "the faster twin is kept too");
    }

    #[test]
    fn accuracy_floor_filters_the_merged_ranking() {
        let planner = paper_variant_planner(&pool(), ModelKind::Rm2, &paper_calibration());
        assert_eq!(planner.lanes().len(), 3);
        let all = planner.rank_configs_variants(2.5, &sample(), None);
        let lanes_seen: std::collections::HashSet<usize> = all.iter().map(|c| c.lane).collect();
        assert_eq!(lanes_seen.len(), 3);
        // A floor above every quantized variant leaves only the reference.
        let strict = planner.rank_configs_variants(2.5, &sample(), Some(0.98));
        assert!(strict.iter().all(|c| c.lane == 0));
        // The merged list is upper-bound-descending.
        assert!(all.windows(2).all(|w| w[0].upper_bound >= w[1].upper_bound));
    }

    #[test]
    fn faster_variants_dominate_the_top_of_the_unfloored_ranking() {
        let planner = paper_variant_planner(&pool(), ModelKind::Rm2, &paper_calibration());
        let all = planner.rank_configs_variants(2.5, &sample(), None);
        // The distilled lane (2.8x faster) owns the very best bound.
        assert_eq!(all[0].variant, "distilled");
        let best_ref = all
            .iter()
            .find(|c| c.lane == 0)
            .expect("reference entries present");
        assert!(all[0].upper_bound > best_ref.upper_bound);
    }

    #[test]
    fn demand_planner_downgrades_under_pressure_and_repromotes() {
        let planner = paper_variant_planner(&pool(), ModelKind::Rm2, &paper_calibration());
        let sample = sample();
        // Light demand: the reference covers it, highest accuracy wins.
        let light = planner
            .plan_for_demand(2.5, &sample, 20.0, 1.35, None)
            .unwrap();
        assert_eq!(light.variant, "fp32");
        // Heavy demand the reference cannot cover in budget: a cheaper
        // variant that *can* cover is preferred over serving degraded.
        let ref_best = planner.rank_configs_variants(2.5, &sample, Some(0.98))[0].upper_bound;
        let heavy = planner
            .plan_for_demand(2.5, &sample, ref_best * 1.2, 1.0, None)
            .unwrap();
        assert_ne!(heavy.variant, "fp32", "pressure must downgrade");
        assert!(heavy.upper_bound >= ref_best * 1.2);
        // Floors bind: under the same pressure with a strict floor the
        // planner stays on the reference (degraded but admissible).
        let floored = planner
            .plan_for_demand(2.5, &sample, ref_best * 1.2, 1.0, Some(0.98))
            .unwrap();
        assert_eq!(floored.variant, "fp32");
    }

    #[test]
    fn frontier_query_buys_the_same_demand_cheaper_as_the_floor_relaxes() {
        let planner = paper_variant_planner(&pool(), ModelKind::Rm2, &paper_calibration());
        let sample = sample();
        // A demand the reference covers with headroom under the budget.
        let ref_best = planner.rank_configs_variants(2.5, &sample, Some(0.98))[0].upper_bound;
        let demand = ref_best * 0.7 / 1.35;
        let strict = planner
            .cheapest_for_demand(2.5, &sample, demand, 1.35, Some(0.98))
            .unwrap();
        let relaxed = planner
            .cheapest_for_demand(2.5, &sample, demand, 1.35, None)
            .unwrap();
        assert_eq!(
            strict.variant, "fp32",
            "strict floor admits only the reference"
        );
        assert_ne!(
            relaxed.variant, "fp32",
            "a faster lane covers with a cheaper config"
        );
        assert!(relaxed.config.cost(&pool()) < strict.config.cost(&pool()));
        // The floor sweep is monotone: relaxing it never raises the cost.
        let mid = planner
            .cheapest_for_demand(2.5, &sample, demand, 1.35, Some(0.965))
            .unwrap();
        assert!(mid.config.cost(&pool()) <= strict.config.cost(&pool()));
        assert!(relaxed.config.cost(&pool()) <= mid.config.cost(&pool()));
    }

    #[test]
    #[should_panic(expected = "meets the accuracy floor")]
    fn impossible_floor_panics_in_ranking() {
        let planner = paper_variant_planner(&pool(), ModelKind::Rm2, &paper_calibration());
        planner.rank_configs_variants(2.5, &sample(), Some(1.5));
    }
}
