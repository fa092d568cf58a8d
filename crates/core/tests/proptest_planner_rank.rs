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

use kairos_core::{
    select_configuration, upper_bound_general, AuxClass, KairosPlanner, ThroughputEstimator,
};
use kairos_models::{
    calibration::paper_calibration,
    ec2, enumerate_configs, for_each_affordable,
    latency::{LatencyProfile, LatencyTable},
    spec, Config, EnumerationOptions, InstanceType, ModelKind, PoolSpec, MAX_BATCH_SIZE,
};
use kairos_workload::BatchSizeDistribution;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

const MODELS: [ModelKind; 5] = [
    ModelKind::Ncf,
    ModelKind::Rm2,
    ModelKind::Wnd,
    ModelKind::MtWnd,
    ModelKind::Dien,
];

/// The largest affordable space a case ranks.
const MAX_CONFIGS: usize = 20_000;

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

/// A random pool of 2–6 types: the paper's base type first, then auxiliary
/// types drawn from the paper's three, some repeated verbatim (same name,
/// same price: tied costs and bounds) and some re-priced to an earlier
/// type's price (tied costs only).
fn random_pool(rng: &mut StdRng, types: usize) -> PoolSpec {
    let mut base = ec2::g4dn_xlarge();
    base.price_per_hour *= rng.gen_range(0.6..1.4);
    let palette = [ec2::c5n_2xlarge(), ec2::r5n_large(), ec2::t3_xlarge()];
    let mut pool = vec![base];
    while pool.len() < types {
        let roll = rng.gen_range(0..10u32);
        let next = if roll < 2 && pool.len() > 1 {
            pool[rng.gen_range(1..pool.len())].clone()
        } else {
            let mut t: InstanceType = palette[rng.gen_range(0..palette.len())].clone();
            if roll < 4 {
                t.price_per_hour = pool[rng.gen_range(0..pool.len())].price_per_hour;
            } else {
                t.price_per_hour *= rng.gen_range(0.7..1.3);
            }
            t
        };
        pool.push(next);
    }
    PoolSpec::new(pool)
}

/// The paper calibration with every (model, type) profile scaled by a
/// random factor per coefficient; `spread = 0` keeps the priors exact.
fn perturbed_priors(rng: &mut StdRng, spread: f64) -> LatencyTable {
    let mut entries: Vec<(ModelKind, String, LatencyProfile)> = paper_calibration()
        .iter()
        .map(|(m, name, p)| (m, name.to_string(), p))
        .collect();
    entries.sort_by(|a, b| (format!("{:?}", a.0), &a.1).cmp(&(format!("{:?}", b.0), &b.1)));
    let mut table = LatencyTable::new();
    for (model, name, p) in entries {
        let intercept = p.intercept_ms * rng.gen_range(1.0 - spread..=1.0 + spread);
        let slope = p.slope_ms * rng.gen_range(1.0 - spread..=1.0 + spread);
        table.insert(model, &name, LatencyProfile::new(intercept, slope));
    }
    table
}

/// One of four sample shapes: production mix, single-valued, entirely
/// above every auxiliary cutoff, entirely below.
fn random_sample(rng: &mut StdRng, shape: u32, len: usize) -> Vec<u32> {
    match shape {
        0 => BatchSizeDistribution::production_default().sample_many(rng, len),
        1 => vec![rng.gen_range(1..=MAX_BATCH_SIZE); len],
        2 => (0..len)
            .map(|_| rng.gen_range(990..=MAX_BATCH_SIZE))
            .collect(),
        _ => (0..len).map(|_| rng.gen_range(1..=2)).collect(),
    }
}

/// Number of configurations `budget` affords on `pool`.
fn affordable(pool: &PoolSpec, budget: f64) -> usize {
    let mut count = 0usize;
    for_each_affordable(pool, &EnumerationOptions::with_budget(budget), |_| {
        count += 1
    });
    count
}

/// `target`, or the largest budget on a 15 % geometric ladder up from
/// `floor` that affords at most `MAX_CONFIGS` configurations when `target`
/// affords more.  Climbing the ladder keeps every walk small, however large
/// the space at `target` is.
fn capped_budget(pool: &PoolSpec, floor: f64, target: f64) -> f64 {
    let mut budget = floor;
    loop {
        let next = budget * 1.15;
        if next >= target {
            return if affordable(pool, target) <= MAX_CONFIGS {
                target
            } else {
                budget
            };
        }
        if affordable(pool, next) > MAX_CONFIGS {
            return budget;
        }
        budget = next;
    }
}

fn panic_message(result: std::thread::Result<impl Sized>) -> Option<String> {
    let payload = result.err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    )
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
