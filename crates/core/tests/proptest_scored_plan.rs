//! Property tests: the serving loop's scan queries over the scored
//! affordable space against the ranked-list pipeline they replaced.
//!
//! The oracle is that pipeline, kept off the scoring walk the planner
//! uses: [`enumerate_configs`] lists the space and
//! [`ThroughputEstimator::rank_configs`] bounds each configuration on its
//! own (`estimate_counts`) and ranks the list, [`oracle_cheapest_covering`] (the `min_by` over the
//! ranked list the loop used) finds the cheapest covering entry, a filtered
//! copy of the list supplies the top entry passing a filter (its `[0]`), a
//! `find` reads the bound of the current deployment, and
//! [`select_configuration`] picks over the whole list.  A
//! [`KairosPlanner::scored_plan`] over the same inputs must answer every
//! one of those questions with the same entry — same configuration, same
//! bound bits, same cost bits — on random pools of 2–6 types with tied
//! prices and repeated types (the base type first or anywhere else),
//! budgets from one base instance up to ~20k
//! configurations (including budgets a hair under an integer multiple of a
//! price), demands below, between and above the bounds, deployments inside
//! and outside the affordable set, and random spread-like and
//! purchase-like filters.  NaN bounds and unaffordable budgets must panic
//! with the same message on both paths.

mod common;

use common::{
    capped_budget, panic_message, perturbed_priors, random_pool, random_sample, relocate_base,
    MODELS,
};
use kairos_core::{
    select_configuration, selection::TOP_CANDIDATES, KairosPlanner, ScoredSpace,
    ThroughputEstimator,
};
use kairos_models::{
    enumerate_configs,
    latency::{LatencyProfile, LatencyTable},
    Config, EnumerationOptions, ModelKind, PoolSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The loop's cheapest-covering rule over a ranked list, as it was: the
/// first minimum of (cost ascending, bound descending) among the entries
/// covering `required`.
fn oracle_cheapest_covering<'a>(
    pool: &PoolSpec,
    ranked: &'a [(Config, f64)],
    required: f64,
) -> Option<&'a (Config, f64)> {
    ranked
        .iter()
        .filter(|(_, ub)| *ub >= required)
        .map(|entry| (entry.0.cost(pool), entry))
        .min_by(|(cost_a, (_, ua)), (cost_b, (_, ub))| {
            cost_a
                .partial_cmp(cost_b)
                .expect("finite costs")
                .then(ub.partial_cmp(ua).expect("finite bounds"))
        })
        .map(|(_, entry)| entry)
}

/// The ranked list's answers the oracle pipeline gives.
fn oracle_ranked(
    pool: &PoolSpec,
    model: ModelKind,
    latency: &LatencyTable,
    budget_per_hour: f64,
    sample: &[u32],
) -> (Vec<(Config, f64)>, Config) {
    let configs = enumerate_configs(pool, &EnumerationOptions::with_budget(budget_per_hour));
    assert!(
        !configs.is_empty(),
        "budget {budget_per_hour} cannot afford any configuration with a base instance"
    );
    let estimator = ThroughputEstimator::new(pool.clone(), model, latency.clone(), sample.to_vec());
    let ranked = estimator.rank_configs(&configs);
    let chosen = select_configuration(&ranked, pool);
    (ranked, chosen)
}

/// A filter over per-type counts, as the serving loop applies them.
type Filter = Box<dyn Fn(&[usize]) -> bool>;

/// A spread-like filter: a random domain per type, and no domain may hold
/// more than `fraction` of the instances.
fn spread_filter(rng: &mut StdRng, types: usize) -> Filter {
    let domains = rng.gen_range(1..=3usize);
    let table: Vec<usize> = (0..types).map(|_| rng.gen_range(0..domains)).collect();
    let fraction = rng.gen_range(0.3..1.0);
    Box::new(move |counts: &[usize]| {
        let total: usize = counts.iter().sum();
        if total <= 1 {
            return true;
        }
        (0..domains).all(|d| {
            let held: usize = (0..counts.len())
                .filter(|&i| table[i] == d)
                .map(|i| counts[i])
                .sum();
            held as f64 <= fraction * total as f64 + 1e-9
        })
    })
}

/// A purchase-like filter: growing a random set of blocked types beyond a
/// held deployment fails; the base type keeps a floor of one.
fn purchase_filter(rng: &mut StdRng, pool: &PoolSpec, held: &[usize]) -> Filter {
    let base = pool.base_index();
    let blocked: Vec<bool> = (0..pool.num_types()).map(|_| rng.gen_bool(0.5)).collect();
    let held = held.to_vec();
    Box::new(move |counts: &[usize]| {
        counts.iter().enumerate().all(|(i, &n)| {
            let cap = if i == base { held[i].max(1) } else { held[i] };
            n <= cap || !blocked[i]
        })
    })
}

/// `(config, bound bits, cost bits)` of a space entry.
fn scored_entry(space: &ScoredSpace, i: usize) -> (Config, u64, u64) {
    (
        space.config(i),
        space.bound(i).to_bits(),
        space.cost(i).to_bits(),
    )
}

/// `(config, bound bits, cost bits)` of a ranked entry.
fn ranked_entry(pool: &PoolSpec, (config, bound): &(Config, f64)) -> (Config, u64, u64) {
    (config.clone(), bound.to_bits(), config.cost(pool).to_bits())
}

/// Demands to probe: below every bound, exactly at and between sampled
/// bounds, and above every bound.
fn demands(rng: &mut StdRng, ranked: &[(Config, f64)]) -> Vec<f64> {
    let top = ranked[0].1;
    let bottom = ranked[ranked.len() - 1].1;
    let mut out = vec![bottom - 1.0, bottom, top, top * 1.5 + 1.0];
    for _ in 0..6 {
        let a = ranked[rng.gen_range(0..ranked.len())].1;
        let b = ranked[rng.gen_range(0..ranked.len())].1;
        out.push(a);
        out.push(0.5 * (a + b));
    }
    out
}

/// A budget just under `k` instances of a random type: `k · price`
/// stepped down a few ulps, so `budget / price` lands just under `k`.
fn budget_under_a_multiple(rng: &mut StdRng, pool: &PoolSpec) -> f64 {
    let base_price = pool.base_type().price_per_hour;
    let price = pool.price(rng.gen_range(0..pool.num_types()));
    let k = ((base_price / price).ceil() as u64).max(1) + rng.gen_range(0..6u64);
    let exact = k as f64 * price;
    f64::from_bits(exact.to_bits() - rng.gen_range(0..4u64))
}

/// The paper priors with the base type's latency slope driven to the
/// smallest subnormal: the base rate overflows to infinity, and every
/// configuration mixing it with a usable auxiliary type bounds to NaN.
fn nan_priors(rng: &mut StdRng, pool: &PoolSpec, model: ModelKind) -> LatencyTable {
    let mut table = perturbed_priors(rng, 0.3);
    table.insert(
        model,
        &pool.base_type().name,
        LatencyProfile::new(0.0, f64::from_bits(1)),
    );
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scored_queries_match_the_ranked_pipeline(
        seed in 0u64..u64::MAX,
        types in 2usize..=6,
        model_index in 0usize..5,
        shape in 0u32..4,
        len in 1usize..=600,
        log_factor in 0.0f64..3.7,
        budget_shape in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = random_pool(&mut rng, types);
        let pool = relocate_base(&mut rng, pool);
        let model = MODELS[model_index];
        let spread = if rng.gen_bool(0.25) { 0.0 } else { 0.3 };
        let latency = perturbed_priors(&mut rng, spread);
        let sample = random_sample(&mut rng, shape, len);
        let floor = pool.base_type().price_per_hour;
        let target = if budget_shape == 1 {
            budget_under_a_multiple(&mut rng, &pool).max(floor)
        } else {
            floor * log_factor.exp()
        };
        let budget = capped_budget(&pool, floor, target);

        let plan = KairosPlanner::new(pool.clone(), model, latency.clone())
            .scored_plan(budget, &sample);
        let space = &plan.space;
        let (ranked, chosen) = oracle_ranked(&pool, model, &latency, budget, &sample);

        // The space is the enumeration, priced as `Config::cost` prices.
        let configs = enumerate_configs(&pool, &EnumerationOptions::with_budget(budget));
        prop_assert_eq!(space.len(), configs.len());
        for (i, config) in configs.iter().enumerate() {
            prop_assert_eq!(space.counts(i), config.counts());
            prop_assert_eq!(space.cost(i).to_bits(), config.cost(&pool).to_bits());
        }

        prop_assert_eq!(&plan.chosen, &chosen);
        prop_assert_eq!(space.best_bound().to_bits(), ranked[0].1.to_bits());
        let top: Vec<(Config, u64)> = space
            .top_ranked()
            .into_iter()
            .map(|(c, b)| (c, b.to_bits()))
            .collect();
        let prefix: Vec<(Config, u64)> = ranked
            .iter()
            .take(TOP_CANDIDATES)
            .map(|(c, b)| (c.clone(), b.to_bits()))
            .collect();
        prop_assert_eq!(top, prefix);

        let held = ranked[rng.gen_range(0..ranked.len())].0.clone();
        let filters: Vec<Filter> = vec![
            Box::new(|_: &[usize]| true),
            spread_filter(&mut rng, types),
            purchase_filter(&mut rng, &pool, held.counts()),
            Box::new(|_: &[usize]| false),
        ];
        for filter in &filters {
            let filtered: Vec<(Config, f64)> = ranked
                .iter()
                .filter(|(c, _)| filter(c.counts()))
                .cloned()
                .collect();
            prop_assert_eq!(
                space.best(filter).map(|i| scored_entry(space, i)),
                filtered.first().map(|e| ranked_entry(&pool, e))
            );
            for required in demands(&mut rng, &ranked) {
                prop_assert_eq!(
                    space.cheapest_covering(required, filter).map(|i| scored_entry(space, i)),
                    oracle_cheapest_covering(&pool, &filtered, required)
                        .map(|e| ranked_entry(&pool, e))
                );
            }
        }

        // The current deployment: inside the space, over the budget, and
        // of the wrong dimension.
        let mut outside = held.counts().to_vec();
        outside[pool.base_index()] += (budget / floor).ceil() as usize + 1;
        for current in [held, Config::new(outside), Config::new(vec![1; types + 1])] {
            let oracle = ranked
                .iter()
                .find(|(c, _)| c == &current)
                .map(|(_, ub)| *ub)
                .unwrap_or(0.0);
            prop_assert_eq!(space.bound_of(&current).to_bits(), oracle.to_bits());
        }
    }

    #[test]
    fn nan_bounds_and_unaffordable_budgets_panic_like_the_pipeline(
        seed in 0u64..u64::MAX,
        types in 2usize..=6,
        model_index in 0usize..5,
        factor in 0.5f64..6.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = random_pool(&mut rng, types);
        let pool = relocate_base(&mut rng, pool);
        let model = MODELS[model_index];
        let latency = if rng.gen_bool(0.5) {
            nan_priors(&mut rng, &pool, model)
        } else {
            perturbed_priors(&mut rng, 0.3)
        };
        let sample = random_sample(&mut rng, 0, 300);
        let budget = pool.base_type().price_per_hour * factor;
        let planner = KairosPlanner::new(pool.clone(), model, latency.clone());
        let new = panic_message(catch_unwind(AssertUnwindSafe(|| {
            planner.scored_plan(budget, &sample).chosen
        })));
        let old = panic_message(catch_unwind(AssertUnwindSafe(|| {
            oracle_ranked(&pool, model, &latency, budget, &sample).1
        })));
        prop_assert_eq!(new, old);
    }
}
