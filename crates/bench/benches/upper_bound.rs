//! Criterion benchmarks for the throughput upper-bound estimator and planner.
//!
//! Reproduces the paper's Sec. 5.2 overhead claim: ranking a search space of
//! about 1000 configurations takes well under two seconds, which is what
//! lets Kairos re-plan "in one shot" when the load changes.  Here the paper
//! pool affords 331 configurations at 2.5 $/hr, ranked in tens of
//! microseconds.  Serving budgets are larger: the `fleet_mix` benchmark's
//! RM2 lane replans at about 10.3 $/hr, where the affordable space holds
//! about 86k configurations.  `one_shot_plan_budget_10` (77k configurations)
//! sits near that scale, and the `planner_cold/rm2_budget_10` group of the
//! `simulator` bench gates it.

use criterion::{criterion_group, criterion_main, Criterion};
use kairos_core::{planner::KairosPlanner, ThroughputEstimator};
use kairos_models::{
    calibration::paper_calibration, ec2, enumerate_configs, Config, EnumerationOptions, ModelKind,
    PoolSpec,
};
use kairos_workload::BatchSizeDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn sample(n: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(11);
    BatchSizeDistribution::production_default().sample_many(&mut rng, n)
}

fn bench_single_estimate(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let estimator =
        ThroughputEstimator::new(pool, ModelKind::Rm2, paper_calibration(), sample(2000));
    let config = Config::new(vec![3, 1, 3, 0]);
    c.bench_function("upper_bound_single_config", |b| {
        b.iter(|| black_box(estimator.estimate(black_box(&config))))
    });
}

fn bench_rank_full_space(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let configs = enumerate_configs(&pool, &EnumerationOptions::with_budget(2.5));
    let estimator =
        ThroughputEstimator::new(pool, ModelKind::Rm2, paper_calibration(), sample(2000));
    let mut group = c.benchmark_group("upper_bound_ranking");
    group.sample_size(20);
    group.bench_function(format!("rank_{}_configs", configs.len()), |b| {
        b.iter(|| black_box(estimator.rank_configs(black_box(&configs))))
    });
    group.finish();
}

fn bench_one_shot_plan(c: &mut Criterion) {
    // Full planning pass: enumerate + rank + similarity selection.
    let planner = KairosPlanner::new(
        PoolSpec::new(ec2::paper_pool()),
        ModelKind::Rm2,
        paper_calibration(),
    );
    let s = sample(2000);
    let mut group = c.benchmark_group("planner");
    group.sample_size(10);
    group.bench_function("one_shot_plan_budget_2.5", |b| {
        b.iter(|| black_box(planner.plan(2.5, black_box(&s))))
    });
    group.bench_function("one_shot_plan_budget_10", |b| {
        b.iter(|| black_box(planner.plan(10.0, black_box(&s))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_estimate,
    bench_rank_full_space,
    bench_one_shot_plan
);
criterion_main!(benches);
