//! Criterion micro-benchmarks for the assignment solvers.
//!
//! Reproduces the implementation claim of paper Sec. 6: solving a
//! 20-query x 20-instance matching (algorithm runtime alone) takes well under
//! 0.05 ms, so the central controller never becomes the bottleneck.  Also
//! compares the Jonker–Volgenant solver against the greedy strawman across
//! matrix sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kairos_assignment::{
    greedy::solve_greedy,
    jv::{solve_jv, solve_jv_into, JvWorkspace},
    CostMatrix,
};
use kairos_core::{distribution::QOS_PENALTY_FACTOR, heterogeneity_coefficients, DEFAULT_XI};
use kairos_models::{
    calibration::paper_calibration, ec2, ModelKind, OnlinePredictor, MAX_BATCH_SIZE,
};
use kairos_workload::BatchSizeDistribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_matrix(rows: usize, cols: usize, seed: u64) -> CostMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    CostMatrix::from_fn(rows, cols, |_, _| rng.gen_range(0.1..500.0)).unwrap()
}

fn bench_controller_claim(c: &mut Criterion) {
    // The paper's 20x20 controller matching.
    let m = random_matrix(20, 20, 7);
    c.bench_function("jv_20x20_controller_claim", |b| {
        b.iter(|| solve_jv(black_box(&m)).unwrap())
    });
}

fn bench_solver_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_scaling");
    group.sample_size(30);
    for &size in &[10usize, 20, 50, 100] {
        let m = random_matrix(size, size, size as u64);
        group.bench_with_input(BenchmarkId::new("jonker_volgenant", size), &m, |b, m| {
            b.iter(|| solve_jv(black_box(m)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("greedy", size), &m, |b, m| {
            b.iter(|| solve_greedy(black_box(m)).unwrap())
        });
    }
    group.finish();
}

fn bench_rectangular(c: &mut Criterion) {
    // Typical serving-time shapes: a handful of queries, tens of instances.
    let mut group = c.benchmark_group("rectangular_matching");
    group.sample_size(50);
    for &(rows, cols) in &[(5usize, 20usize), (50, 20), (200, 16)] {
        let m = random_matrix(rows, cols, (rows * cols) as u64);
        group.bench_with_input(
            BenchmarkId::new("jonker_volgenant", format!("{rows}x{cols}")),
            &m,
            |b, m| b.iter(|| solve_jv(black_box(m)).unwrap()),
        );
    }
    // The solve alone of the deep-queue Kairos round that
    // `kairos_round/deep_queue_512x14` in the simulator bench times fill
    // plus solve: the same WND context (512 production-mix queries, 14
    // instances over three types, one type having seen a single batch size)
    // and the round's cost formula, so the matrix is the round's cell for
    // cell, instance-major, solved into a warm workspace as the round does.
    let (rows, cols) = (14usize, 512usize);
    let model = ModelKind::Wnd;
    let latency = paper_calibration();
    let pool = ec2::paper_pool();
    // Predictors in the round's slot order (types 0, 2, 1): two fitted from
    // the profile, one with a single observed batch size.
    let predictors: Vec<OnlinePredictor> = [
        (0usize, &[1u32, 64, 256, 1000][..]),
        (2, &[1, 64, 256, 1000]),
        (1, &[128]),
    ]
    .iter()
    .map(|&(t, batches)| {
        let profile = latency.get(model, &pool[t].name).unwrap();
        let mut p = OnlinePredictor::new();
        for &b in batches {
            p.observe(b, profile.latency_ms(b));
        }
        p
    })
    .collect();
    let reference: Vec<f64> = predictors
        .iter()
        .map(|p| p.predict(MAX_BATCH_SIZE).max(1e-6))
        .collect();
    let coefficient = heterogeneity_coefficients(&reference, 0);
    let qos_ms = model.qos_us() as f64 / 1000.0;
    let mut rng = StdRng::seed_from_u64(29);
    let mix = BatchSizeDistribution::production_default();
    let queries: Vec<(u32, f64)> = (0..cols)
        .map(|_| {
            let batch = mix.sample(&mut rng);
            (batch, rng.gen_range(0..40_000u64) as f64 / 1000.0)
        })
        .collect();
    let round = CostMatrix::from_fn(rows, cols, |instance, query| {
        let slot = instance % 3;
        let busy_us = if instance % 2 == 0 {
            2_000 * instance as u64
        } else {
            0
        };
        let (batch, waited_ms) = queries[query];
        let l = busy_us as f64 / 1000.0 + predictors[slot].predict(batch).max(1e-3);
        let ok = !predictors[slot].has_fit() || l + waited_ms <= DEFAULT_XI * qos_ms;
        coefficient[slot] * if ok { l } else { QOS_PENALTY_FACTOR * qos_ms }
    })
    .unwrap();
    let mut ws = JvWorkspace::new();
    group.bench_function(BenchmarkId::new("jonker_volgenant", "14x512"), |b| {
        b.iter(|| {
            let matched = solve_jv_into(&mut ws, rows, cols, black_box(round.as_slice())).unwrap();
            black_box(matched.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_controller_claim,
    bench_solver_scaling,
    bench_rectangular
);
criterion_main!(benches);
