//! Property tests: the one-pass planner against the enumerate-then-rank
//! pipeline it replaced.
//!
//! [`oracle_plan`] plans the long way: [`enumerate_configs`] materializes
//! every affordable configuration, [`ReferenceEstimator`] bounds each one
//! from per-filter sample means (one filtered pass over the sample per
//! cutoff, side and type) through an [`AuxClass`] list and
//! [`upper_bound_general`], a stable descending `partial_cmp` sort ranks
//! them, and [`select_configuration`] picks.  `KairosPlanner::plan` must
//! return the identical ranked list — same configurations, same order, same
//! bound bits — and the same chosen configuration on random pools of 2–6
//! types (equal prices and duplicated types, so costs and bounds tie),
//! budgets from just over one base instance up to ~20k configurations,
//! perturbed latency priors, and batch samples that are production-like,
//! single-valued, entirely above every cutoff or entirely below.  A budget
//! just below one base instance must panic the same way on both paths.

mod common;

use common::{capped_budget, panic_message, perturbed_priors, random_pool, random_sample, MODELS};
use kairos_core::{
    select_configuration, upper_bound_general, AuxClass, KairosPlanner, ThroughputEstimator,
};
use kairos_models::{
    enumerate_configs,
    latency::{LatencyProfile, LatencyTable},
    spec, Config, EnumerationOptions, ModelKind, PoolSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The bound as the estimator computed it before the one-pass statistics:
/// every sample statistic is a separate filtered mean.
struct ReferenceEstimator {
    base: usize,
    profiles: Vec<LatencyProfile>,
    cutoffs: Vec<Option<u32>>,
    sample: Vec<u32>,
    q_base: f64,
}

impl ReferenceEstimator {
    fn new(pool: &PoolSpec, model: ModelKind, latency: &LatencyTable, sample: &[u32]) -> Self {
        let spec = spec(model);
        let profiles: Vec<LatencyProfile> = pool
            .types()
            .iter()
            .map(|t| latency.expect(model, &t.name))
            .collect();
        let cutoffs = profiles
            .iter()
            .map(|p| {
                p.max_batch_within(spec.qos_ms)
                    .map(|b| b.min(spec.max_batch_size))
            })
            .collect();
        let mut reference = Self {
            base: pool.base_index(),
            profiles,
            cutoffs,
            sample: sample.to_vec(),
            q_base: 0.0,
        };
        reference.q_base = reference
            .mean_latency_over(reference.base, |_| true)
            .map(|ms| 1000.0 / ms)
            .unwrap_or(0.0);
        reference
    }

    fn mean_latency_over(&self, type_index: usize, filter: impl Fn(u32) -> bool) -> Option<f64> {
        let selected: Vec<f64> = self
            .sample
            .iter()
            .copied()
            .filter(|&b| filter(b))
            .map(|b| self.profiles[type_index].latency_ms(b))
            .collect();
        if selected.is_empty() {
            None
        } else {
            Some(selected.iter().sum::<f64>() / selected.len() as f64)
        }
    }

    /// `(f', Q_b^{s+}, Q_a^i per type)` for the shared cutoff `s`.
    fn cutoff_stats(&self, s: u32) -> (f64, f64, Vec<f64>) {
        let fraction_small =
            self.sample.iter().filter(|&&b| b <= s).count() as f64 / self.sample.len() as f64;
        let q_base_splus = self
            .mean_latency_over(self.base, |b| b > s)
            .map(|ms| 1000.0 / ms)
            .unwrap_or(self.q_base);
        let aux_qps = (0..self.profiles.len())
            .map(|i| {
                self.mean_latency_over(i, |b| b <= s)
                    .map(|ms| 1000.0 / ms)
                    .unwrap_or(0.0)
            })
            .collect();
        (fraction_small, q_base_splus, aux_qps)
    }

    fn estimate(&self, config: &Config, memo: &mut HashMap<u32, (f64, f64, Vec<f64>)>) -> f64 {
        let u = config.count(self.base);
        let s_max = config
            .counts()
            .iter()
            .enumerate()
            .filter(|&(i, &count)| i != self.base && count > 0)
            .filter_map(|(i, _)| self.cutoffs[i])
            .max();
        let Some(s) = s_max else {
            return u as f64 * self.q_base;
        };
        let (fraction_small, q_base_splus, aux_qps) =
            memo.entry(s).or_insert_with(|| self.cutoff_stats(s));
        let aux: Vec<AuxClass> = config
            .counts()
            .iter()
            .enumerate()
            .filter(|&(i, &count)| i != self.base && count > 0 && self.cutoffs[i].is_some())
            .map(|(i, &count)| AuxClass {
                nodes: count,
                qps: aux_qps[i],
            })
            .collect();
        upper_bound_general(u, self.q_base, *q_base_splus, &aux, *fraction_small)
    }

    /// Bounds `configs` and ranks them with the stable descending sort.
    fn rank(&self, configs: &[Config]) -> Vec<(Config, f64)> {
        let mut memo = HashMap::new();
        let mut ranked: Vec<(Config, f64)> = configs
            .iter()
            .map(|c| (c.clone(), self.estimate(c, &mut memo)))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite bounds"));
        ranked
    }
}

/// The enumerate → rank → select pipeline the planner replaced.
fn oracle_plan(
    pool: &PoolSpec,
    model: ModelKind,
    latency: &LatencyTable,
    budget_per_hour: f64,
    sample: &[u32],
) -> (Vec<(Config, f64)>, Config) {
    let options = EnumerationOptions::with_budget(budget_per_hour);
    let configs = enumerate_configs(pool, &options);
    assert!(
        !configs.is_empty(),
        "budget {budget_per_hour} cannot afford any configuration with a base instance"
    );
    let ranked = ReferenceEstimator::new(pool, model, latency, sample).rank(&configs);
    let chosen = select_configuration(&ranked, pool);
    (ranked, chosen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_matches_the_enumerate_then_rank_oracle(
        seed in 0u64..u64::MAX,
        types in 2usize..=6,
        model_index in 0usize..5,
        shape in 0u32..4,
        len in 1usize..=600,
        log_factor in 0.0f64..3.7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = random_pool(&mut rng, types);
        let model = MODELS[model_index];
        let spread = if rng.gen_bool(0.25) { 0.0 } else { 0.3 };
        let latency = perturbed_priors(&mut rng, spread);
        let sample = random_sample(&mut rng, shape, len);
        // Log-uniform from just over one base instance to ~40 of them.
        let base_price = pool.base_type().price_per_hour;
        let floor = base_price * (1.0 + 1e-6);
        let budget = capped_budget(&pool, floor, floor * log_factor.exp());

        let plan = KairosPlanner::new(pool.clone(), model, latency.clone()).plan(budget, &sample);
        let (ranked, chosen) = oracle_plan(&pool, model, &latency, budget, &sample);
        prop_assert_eq!(plan.ranked.len(), ranked.len());
        for (i, ((c_new, b_new), (c_old, b_old))) in plan.ranked.iter().zip(&ranked).enumerate() {
            prop_assert!(
                c_new == c_old && b_new.to_bits() == b_old.to_bits(),
                "rank {}: planner ({}, {:e}) vs oracle ({}, {:e})",
                i, c_new, b_new, c_old, b_old
            );
        }
        prop_assert_eq!(&plan.chosen, &chosen);

        // The public helper over an arbitrary list: shuffled, with
        // duplicates, so equal bounds must keep the input order.
        let mut list: Vec<Config> = ranked.iter().map(|(c, _)| c.clone()).collect();
        for i in (1..list.len()).rev() {
            list.swap(i, rng.gen_range(0..=i));
        }
        let extra: Vec<Config> = list.iter().step_by(3).cloned().collect();
        list.extend(extra);
        let estimator = ThroughputEstimator::new(pool.clone(), model, latency.clone(), sample.clone());
        let helper = estimator.rank_configs(&list);
        let reference = ReferenceEstimator::new(&pool, model, &latency, &sample).rank(&list);
        prop_assert_eq!(helper.len(), reference.len());
        for ((c_new, b_new), (c_old, b_old)) in helper.iter().zip(&reference) {
            prop_assert!(c_new == c_old && b_new.to_bits() == b_old.to_bits());
        }
    }

    #[test]
    fn budget_below_one_base_instance_panics_like_the_oracle(
        seed in 0u64..u64::MAX,
        types in 2usize..=6,
        shortfall in 1e-6f64..0.5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = random_pool(&mut rng, types);
        let latency = perturbed_priors(&mut rng, 0.3);
        let sample = random_sample(&mut rng, 0, 200);
        let budget = pool.base_type().price_per_hour * (1.0 - shortfall);
        let planner = KairosPlanner::new(pool.clone(), ModelKind::Rm2, latency.clone());
        let new = panic_message(catch_unwind(AssertUnwindSafe(|| planner.plan(budget, &sample))));
        let old = panic_message(catch_unwind(AssertUnwindSafe(|| {
            oracle_plan(&pool, ModelKind::Rm2, &latency, budget, &sample)
        })));
        prop_assert!(new.as_deref().is_some_and(|m| m.contains("cannot afford")), "{:?}", new);
        prop_assert_eq!(new, old);
    }
}
