//! Criterion micro-benchmarks for the assignment solvers.
//!
//! Reproduces the implementation claim of paper Sec. 6: solving a
//! 20-query x 20-instance matching (algorithm runtime alone) takes well under
//! 0.05 ms, so the central controller never becomes the bottleneck.  Also
//! compares the Jonker–Volgenant solver against the greedy strawman across
//! matrix sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kairos_assignment::{greedy::solve_greedy, jv::solve_jv, CostMatrix};
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
    group.finish();
}

criterion_group!(
    benches,
    bench_controller_claim,
    bench_solver_scaling,
    bench_rectangular
);
criterion_main!(benches);
