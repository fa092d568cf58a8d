//! Property-based tests for the domain model crate.

use kairos_models::{
    calibration::paper_calibration,
    config::{enumerate_configs, for_each_affordable, Config, EnumerationOptions, PoolSpec},
    instance::{ec2, InstanceClass, InstanceType},
    latency::LatencyProfile,
    mlmodel::ModelKind,
    predictor::OnlinePredictor,
};
use proptest::prelude::*;
use std::ops::Range;

/// A run as the walk hands it over: prefix, fold state, prefix cost and
/// last-type counts.
type WalkRun = (Vec<usize>, Vec<usize>, f64, Range<usize>);

fn paper_pool() -> PoolSpec {
    PoolSpec::new(ec2::paper_pool())
}

/// The affordable space by brute force: every count vector in the box
/// `0..=floor(budget / price_i)`, in lexicographic order, kept when it
/// holds a base instance and its [`Config::cost`] is within the budget
/// (`+1e-9`).
fn box_filter(pool: &PoolSpec, budget: f64) -> Vec<Config> {
    let n = pool.num_types();
    let caps: Vec<usize> = (0..n)
        .map(|i| (budget / pool.price(i)).floor() as usize)
        .collect();
    let mut counts = vec![0usize; n];
    let mut out = Vec::new();
    loop {
        let config = Config::new(counts.clone());
        if config.count(pool.base_index()) >= 1 && config.cost(pool) <= budget + 1e-9 {
            out.push(config);
        }
        // Odometer step: the last type counts fastest.
        let mut dim = n;
        loop {
            if dim == 0 {
                return out;
            }
            dim -= 1;
            if counts[dim] < caps[dim] {
                counts[dim] += 1;
                break;
            }
            counts[dim] = 0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn latency_monotone_in_batch_size(
        intercept in 0.0f64..100.0,
        slope in 0.001f64..5.0,
        b1 in 1u32..1000,
        b2 in 1u32..1000,
    ) {
        let p = LatencyProfile::new(intercept, slope);
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(p.latency_ms(lo) <= p.latency_ms(hi));
        prop_assert!(p.latency_us(lo) <= p.latency_us(hi));
    }

    #[test]
    fn max_batch_within_is_consistent(
        intercept in 0.0f64..50.0,
        slope in 0.01f64..2.0,
        qos in 1.0f64..500.0,
    ) {
        let p = LatencyProfile::new(intercept, slope);
        match p.max_batch_within(qos) {
            None => prop_assert!(p.latency_ms(1) > qos),
            Some(b) => {
                prop_assert!(p.latency_ms(b) <= qos + 1e-9);
                // One more request either exceeds the target or hits the b>=1 clamp.
                if p.latency_ms(b + 1) <= qos {
                    prop_assert_eq!(b, 1);
                }
            }
        }
    }

    #[test]
    fn config_cost_additive_and_monotone(
        counts in prop::collection::vec(0usize..8, 4),
        extra_type in 0usize..4,
    ) {
        let pool = paper_pool();
        let config = Config::new(counts);
        let bigger = config.with_one_more(extra_type);
        prop_assert!(config.is_sub_config_of(&bigger));
        let expected_increase = pool.price(extra_type);
        prop_assert!((bigger.cost(&pool) - config.cost(&pool) - expected_increase).abs() < 1e-9);
    }

    #[test]
    fn enumeration_monotone_in_budget(budget_small in 1.0f64..3.0, delta in 0.1f64..2.0) {
        let pool = paper_pool();
        let small = enumerate_configs(&pool, &EnumerationOptions::with_budget(budget_small));
        let large = enumerate_configs(&pool, &EnumerationOptions::with_budget(budget_small + delta));
        prop_assert!(large.len() >= small.len());
        // Every small-budget configuration is also affordable under the larger budget.
        for c in &small {
            prop_assert!(large.contains(c));
        }
    }

    #[test]
    fn affordable_walk_is_the_box_filter(
        prices in prop::collection::vec(0.3f64..1.5, 1..=5),
        base_pick in 0usize..5,
        factor in 0.2f64..2.5,
        multiple_pick in 0usize..5,
        k in 1u32..=8,
        ulps in 0u64..4,
        budget_shape in 0u32..2,
    ) {
        let base = base_pick % prices.len();
        let pool = PoolSpec::new(
            prices
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    InstanceType::new(&format!("t{i}"), InstanceClass::GeneralPurpose, p, i == base)
                })
                .collect(),
        );
        // Either a plain budget or `k` instances of one type's price
        // stepped down a few ulps, so `budget / price` lands just under `k`.
        let budget = if budget_shape == 1 {
            let exact = f64::from(k) * prices[multiple_pick % prices.len()];
            f64::from_bits(exact.to_bits() - ulps)
        } else {
            factor
        };

        let mut runs: Vec<WalkRun> = Vec::new();
        for_each_affordable(
            &pool,
            &EnumerationOptions::with_budget(budget),
            Vec::new(),
            |parent: &Vec<usize>, child: &mut Vec<usize>, dim, count| {
                assert_eq!(parent.len(), dim, "fold runs in pool order");
                child.clone_from(parent);
                child.push(count);
            },
            |prefix, spent, lasts, state| {
                runs.push((prefix.to_vec(), state.clone(), spent, lasts));
            },
        );
        let last = prices.len() - 1;
        let first = usize::from(base == last);
        for (prefix, state, _, lasts) in &runs {
            prop_assert_eq!(prefix.len(), last);
            prop_assert_eq!(state, prefix);
            prop_assert!(!lasts.is_empty(), "a run is never empty");
            prop_assert_eq!(lasts.start, first);
        }
        prop_assert!(
            runs.windows(2).all(|w| w[0].0 < w[1].0),
            "one run per prefix, in lexicographic order"
        );
        let price_last = prices[last];
        let walked: Vec<(Vec<usize>, u64)> = runs
            .iter()
            .flat_map(|(prefix, _, spent, lasts)| {
                lasts.clone().map(move |c| {
                    let mut counts = prefix.clone();
                    counts.push(c);
                    (counts, (spent + price_last * c as f64).to_bits())
                })
            })
            .collect();
        let expected: Vec<(Vec<usize>, u64)> = box_filter(&pool, budget)
            .into_iter()
            .map(|c| (c.counts().to_vec(), c.cost(&pool).to_bits()))
            .collect();
        prop_assert_eq!(&walked, &expected);
        prop_assert_eq!(
            enumerate_configs(&pool, &EnumerationOptions::with_budget(budget)),
            box_filter(&pool, budget)
        );
    }

    #[test]
    fn predictor_converges_on_linear_truth(
        intercept in 0.1f64..20.0,
        slope in 0.01f64..1.0,
        batches in prop::collection::vec(1u32..1000, 2..30),
    ) {
        prop_assume!(batches.iter().collect::<std::collections::HashSet<_>>().len() >= 2);
        let truth = LatencyProfile::new(intercept, slope);
        let mut predictor = OnlinePredictor::new();
        for &b in &batches {
            predictor.observe(b, truth.latency_ms(b));
        }
        // Observed batch sizes are answered exactly; unseen ones via the fit.
        for &b in &batches {
            prop_assert!((predictor.predict(b) - truth.latency_ms(b)).abs() < 1e-6);
        }
        let err = predictor.relative_error_against(&truth, &[1, 250, 999]);
        prop_assert!(err < 1e-4, "relative error too large: {err}");
    }

    #[test]
    fn squared_distance_is_symmetric_and_nonnegative(
        a in prop::collection::vec(0usize..12, 4),
        b in prop::collection::vec(0usize..12, 4),
    ) {
        let ca = Config::new(a);
        let cb = Config::new(b);
        prop_assert_eq!(ca.squared_distance(&cb), cb.squared_distance(&ca));
        prop_assert!(ca.squared_distance(&cb) >= 0.0);
        prop_assert_eq!(ca.squared_distance(&ca), 0.0);
    }
}

#[test]
fn calibration_serializes_round_trip() {
    let table = paper_calibration();
    let json = serde_json::to_string(&table).unwrap();
    let back: kairos_models::LatencyTable = serde_json::from_str(&json).unwrap();
    for model in ModelKind::ALL {
        for inst in ec2::paper_pool() {
            assert_eq!(table.get(model, &inst.name), back.get(model, &inst.name));
        }
    }
}
