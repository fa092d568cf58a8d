//! Property tests: the allocation-free Kairos matching round against the
//! reference round it replaced.
//!
//! [`reference_round`] assembles one round the long way — per-instance
//! [`QueryRow`]/[`InstanceColumn`]s with a predictor lookup per pair,
//! [`build_matrices`], the cold-start override, then [`solve_jv`] on the
//! resulting cost matrix.  `KairosScheduler::schedule_into` must return the
//! identical dispatch list, in the same order, on every random context:
//! queues of 0–600 queries against 1–32 instances of the four paper types
//! (some not accepting, with random remaining busy time), waits past the QoS
//! target, and per-type predictors that are fitted, unfitted or never
//! observed — covering both the query-major (m <= n) and the instance-major
//! (m > n) layouts.  Every case runs several rounds on one scheduler so its
//! reused buffers see differently sized rounds.
//!
//! A second property drives the background form of the round: queries
//! outnumber instances, every type is fitted, and at least three queries in
//! four have waited past the QoS target, so most pairs are penalized.  It
//! asserts that each such round has that shape (instance-major, every type
//! fitted, at least three pairs in four infeasible in the oracle's
//! matrices) and dispatches as the reference does, with general rounds in
//! between on the same scheduler.
//!
//! On the same random rounds, a one-lane [`MultiScheduler`] (which hands the
//! round straight to its Kairos round) must dispatch exactly as the general
//! per-model partition does: a two-lane one built from the same controller,
//! whose second lane has no queries and no instances.
//!
//! A 2–4-lane [`MultiScheduler`], whose lanes all read the caller's views,
//! must dispatch exactly as [`partitioned_round`] does over per-lane copies
//! of the views, on rounds with the lanes' instances interleaved, some
//! draining, and lanes with no queries or no instances.
//!
//! A deterministic test puts queue waits on the edges of the live-query rule
//! (a deep round prices a query on a fitted type only while its wait is at
//! most `ξ T_qos`): exactly at the bound, 1 µs past it, between it and
//! `T_qos`, and at `T_qos`, over one fitted and one unfitted type, and
//! rounds in which no query is live.

#[path = "common/lmatrix.rs"]
mod lmatrix;
#[path = "common/partitioned_round.rs"]
mod partitioned_round;

use kairos_core::{
    heterogeneity_coefficients, KairosController, KairosScheduler, MultiScheduler, DEFAULT_XI,
};
use kairos_models::{calibration::paper_calibration, ec2, ModelKind, PoolSpec, MAX_BATCH_SIZE};
use kairos_sim::{Dispatch, InstanceView, Scheduler, SchedulingContext};
use kairos_testkit::{idle_order, jv::solve_jv};
use kairos_workload::{BatchSizeDistribution, ModelId, Query, TimeUs};
use lmatrix::{build_matrices, InstanceColumn, QueryRow};
use partitioned_round::partitioned_round;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Batch sizes drawn often on both sides, so lookup-table hits are common.
const PALETTE: [u32; 4] = [1, 32, 120, 500];

/// The round as it was computed before the per-type rewrite: its dispatches,
/// and the share of its pairs that violate QoS (0 when there is no round).
fn reference_round(kairos: &KairosScheduler, ctx: &SchedulingContext<'_>) -> (Vec<Dispatch>, f64) {
    let predictors = kairos.predictors();
    let instances: Vec<&InstanceView> = ctx.instances.iter().filter(|i| i.accepting).collect();
    if ctx.queued.is_empty() || instances.is_empty() {
        return (Vec::new(), 0.0);
    }
    let qos_ms = ctx.qos_us as f64 / 1000.0;

    let mut names: Vec<Arc<str>> = Vec::new();
    let mut base_pos = 0usize;
    for inst in &instances {
        if !names.contains(&inst.type_name) {
            if inst.is_base {
                base_pos = names.len();
            }
            names.push(inst.type_name.clone());
        }
    }
    let latencies: Vec<f64> = names
        .iter()
        .map(|n| predictors.predict(n, MAX_BATCH_SIZE).max(1e-6))
        .collect();
    let coeffs: HashMap<Arc<str>, f64> = names
        .into_iter()
        .zip(heterogeneity_coefficients(&latencies, base_pos))
        .collect();

    let rows: Vec<QueryRow> = ctx
        .queued
        .iter()
        .map(|q| QueryRow {
            batch_size: q.batch_size,
            waited_ms: q.waiting_time_us(ctx.now_us) as f64 / 1000.0,
        })
        .collect();
    let columns: Vec<InstanceColumn> = instances
        .iter()
        .map(|inst| InstanceColumn {
            remaining_ms: inst.remaining_us(ctx.now_us) as f64 / 1000.0,
            coefficient: coeffs[&inst.type_name],
            predicted_service_ms: rows
                .iter()
                .map(|r| predictors.predict(&inst.type_name, r.batch_size).max(1e-3))
                .collect(),
        })
        .collect();
    let mut matrices = build_matrices(&rows, &columns, qos_ms, DEFAULT_XI);
    let pairs = rows.len() * columns.len();
    let infeasible = matrices
        .feasible
        .iter()
        .flatten()
        .filter(|&&ok| !ok)
        .count();
    let infeasible_share = infeasible as f64 / pairs as f64;

    // Cold-start optimism: pairs on a type without a latency fit count as
    // feasible, at their weighted completion time.
    let type_fitted: Vec<bool> = instances
        .iter()
        .map(|inst| predictors.get(&inst.type_name).is_some_and(|p| p.has_fit()))
        .collect();
    for i in 0..rows.len() {
        for j in 0..columns.len() {
            if !matrices.feasible[i][j] && !type_fitted[j] {
                matrices.feasible[i][j] = true;
                let cost = columns[j].coefficient * matrices.completion_ms.get(i, j);
                matrices.cost.set(i, j, cost);
            }
        }
    }

    let Ok(assignment) = solve_jv(&matrices.cost) else {
        return (Vec::new(), infeasible_share);
    };
    let dispatches = assignment
        .pairs()
        .filter(|&(i, j)| matrices.feasible[i][j] || rows[i].waited_ms >= qos_ms)
        .map(|(query_index, j)| Dispatch {
            query_index,
            instance_index: instances[j].instance_index,
        })
        .collect();
    (dispatches, infeasible_share)
}

/// Teaches the scheduler one pool type's latency through completions:
/// state `0` leaves it unobserved, `1` observes a single batch size (no
/// fit), `2` observes many (fitted).
fn observe_type(kairos: &mut KairosScheduler, type_index: usize, state: u64, rng: &mut StdRng) {
    let intercept_ms = rng.gen_range(0.5..5.0);
    let slope_ms = rng.gen_range(0.005..0.08);
    let mut complete = |batch: u32, rng: &mut StdRng| {
        let ms = (intercept_ms + slope_ms * batch as f64) * rng.gen_range(0.9..1.1);
        kairos.on_completion(type_index, ModelId::DEFAULT, batch, ms);
    };
    match state {
        1 => {
            let batch = rng.gen_range(1..MAX_BATCH_SIZE + 1);
            for _ in 0..rng.gen_range(1..4usize) {
                complete(batch, rng);
            }
        }
        2 => {
            for _ in 0..rng.gen_range(0..40usize) {
                let batch = if rng.gen_bool(0.5) {
                    PALETTE[rng.gen_range(0..PALETTE.len())]
                } else {
                    rng.gen_range(1..MAX_BATCH_SIZE + 1)
                };
                complete(batch, rng);
            }
            complete(1, rng);
            complete(2, rng);
        }
        _ => {}
    }
}

/// A round in the background form's shape: `queue > instances`, every
/// instance accepting, and a random three queries in four (at least) waited
/// past the QoS target, so every pair of theirs violates it.  The rest
/// waited less than the target.
fn penalized_round(
    rng: &mut StdRng,
    queue: usize,
    instances: usize,
    pool: &[(Arc<str>, bool)],
) -> Round {
    let mut round = random_round(rng, queue, instances, pool);
    for view in &mut round.views {
        view.accepting = true;
    }
    let mut order: Vec<usize> = (0..queue).collect();
    for k in (1..queue).rev() {
        order.swap(k, rng.gen_range(0..k + 1));
    }
    let doomed = (3 * queue).div_ceil(4);
    for (k, &q) in order.iter().enumerate() {
        let waited = if k < doomed {
            rng.gen_range(round.qos_us..round.qos_us * 5 / 2)
        } else {
            rng.gen_range(0..round.qos_us)
        };
        round.queued[q].arrival_us = NOW_US - waited;
    }
    round
}

/// A random round's inputs.
struct Round {
    qos_us: u64,
    queued: Vec<Query>,
    views: Vec<InstanceView>,
}

const NOW_US: TimeUs = 200_000;

fn random_round(
    rng: &mut StdRng,
    queue: usize,
    instances: usize,
    pool: &[(Arc<str>, bool)],
) -> Round {
    let qos_us = [10_000u64, 25_000, 50_000][rng.gen_range(0..3usize)];
    let mix = BatchSizeDistribution::production_default();
    let queued = (0..queue)
        .map(|q| {
            let batch = if rng.gen_bool(0.3) {
                PALETTE[rng.gen_range(0..PALETTE.len())]
            } else {
                mix.sample(rng)
            };
            // Up to 2.5x the QoS target ago: some queries are already doomed.
            let waited = rng.gen_range(0..qos_us * 5 / 2);
            Query::new(q as u64, batch, NOW_US - waited)
        })
        .collect();
    let views = (0..instances)
        .map(|instance_index| {
            let type_index = rng.gen_range(0..pool.len());
            let busy = rng.gen_bool(0.5);
            InstanceView {
                instance_index,
                type_index,
                type_name: pool[type_index].0.clone(),
                model: ModelId::DEFAULT,
                is_base: pool[type_index].1,
                accepting: rng.gen_bool(0.85),
                free_at_us: if busy {
                    NOW_US + rng.gen_range(1..60_000u64)
                } else {
                    NOW_US - rng.gen_range(0..10_000u64)
                },
                backlog: usize::from(busy),
            }
        })
        .collect();
    Round {
        qos_us,
        queued,
        views,
    }
}

/// A query of batch `batch` that has waited `waited_us` at [`NOW_US`].
fn waited(id: u64, batch: u32, waited_us: u64) -> Query {
    Query::new(id, batch, NOW_US - waited_us)
}

#[test]
fn waits_on_the_live_query_edges_match_the_matrix_oracle() {
    let names: Vec<Arc<str>> = ec2::paper_pool()
        .iter()
        .map(|t| Arc::from(t.name.as_str()))
        .collect();
    let (fitted, unfitted) = (0, 2);
    let latency = paper_calibration();
    let mut kairos = KairosScheduler::new();
    kairos.bind_types(&names);
    for batch in [64, 256, 1000] {
        let profile = latency.get(ModelKind::Wnd, &names[fitted]).unwrap();
        kairos.on_completion(fitted, ModelId::DEFAULT, batch, profile.latency_ms(batch));
    }
    // A batch of one is served in 0.25 ms, so a query can still meet QoS
    // with a wait just under the bound.
    kairos.on_completion(fitted, ModelId::DEFAULT, 1, 0.25);
    kairos.on_completion(unfitted, ModelId::DEFAULT, 128, 9.0);
    let predictors = kairos.predictors();
    assert!(predictors.get(&names[fitted]).unwrap().has_fit());
    assert!(!predictors.get(&names[unfitted]).unwrap().has_fit());

    // WND's 25 ms target: the bound ξ T_qos is 24.5 ms, which a wait of
    // 24 500 µs reaches exactly.
    let qos_us = ModelKind::Wnd.qos_us();
    assert_eq!(qos_us, 25_000);
    assert_eq!(24_500.0 / 1000.0, DEFAULT_XI * (qos_us as f64 / 1000.0));
    let view = |instance_index: usize, type_index: usize, accepting: bool| InstanceView {
        instance_index,
        type_index,
        type_name: names[type_index].clone(),
        model: ModelId::DEFAULT,
        is_base: type_index == 0,
        accepting,
        free_at_us: NOW_US,
        backlog: 0,
    };
    // Two idle instances of the fitted type and one of the unfitted type.
    let mixed = [
        view(0, fitted, true),
        view(1, fitted, true),
        view(2, unfitted, true),
    ];
    // The same fleet with the unfitted instance draining, so every column
    // is fitted and the round takes the background form.
    let all_fitted = [
        view(0, fitted, true),
        view(1, fitted, true),
        view(2, unfitted, false),
        view(3, fitted, true),
    ];
    let unfitted_instance = 2;

    let mut round = |queued: &[Query], views: &[InstanceView]| {
        let idle = idle_order(views);
        let ctx = SchedulingContext {
            now_us: NOW_US,
            queued,
            instances: views,
            idle: &idle,
            qos_us,
            qos_by_model: &[],
        };
        let (expected, _) = reference_round(&kairos, &ctx);
        let mut out = Vec::new();
        kairos.schedule_into(&ctx, &mut out);
        assert_eq!(out, expected);
        assert!(queued.len() > views.iter().filter(|v| v.accepting).count());
        out
    };
    let on = |out: &[Dispatch], query: usize| {
        out.iter()
            .find(|d| d.query_index == query)
            .map(|d| d.instance_index)
    };

    // A query 24.2 ms old that still fits on the fitted type, then waits
    // exactly at the bound (live), 1 µs past it and between it and `T_qos`
    // (both pruned), and at `T_qos`.  The unfitted column prices every query, so
    // it takes the smallest batch: the pruned query between the bound and
    // `T_qos`, dispatched by the cold-start override.  Neither query at or
    // just past the bound is dispatched.
    let queued = [
        waited(0, 1, 24_200),
        waited(1, 64, 24_500),
        waited(2, 64, 24_501),
        waited(3, 8, 24_800),
        waited(4, 64, 25_000),
    ];
    let out = round(&queued, &mixed);
    assert!(matches!(on(&out, 0), Some(0 | 1)), "{out:?}");
    assert_eq!(on(&out, 3), Some(unfitted_instance), "{out:?}");
    assert_eq!((on(&out, 1), on(&out, 2)), (None, None), "{out:?}");

    // No query is live.  The unfitted column still takes the smallest
    // batch; the fitted columns dispatch only a query at `T_qos`.
    let queued = [
        waited(0, 64, 24_501),
        waited(1, 64, 24_800),
        waited(2, 64, 25_000),
        waited(3, 8, 30_000),
    ];
    let out = round(&queued, &mixed);
    assert_eq!(on(&out, 3), Some(unfitted_instance), "{out:?}");
    assert_eq!((on(&out, 0), on(&out, 1)), (None, None), "{out:?}");

    // Background rounds with no query live, so no column lists a cell:
    // queries between the bound and `T_qos` are all held back, and
    // queries at `T_qos` go out one per instance.
    let pruned: Vec<Query> = (0..4).map(|id| waited(id, 64, 24_800)).collect();
    assert!(round(&pruned, &all_fitted).is_empty());
    let doomed: Vec<Query> = (0..4).map(|id| waited(id, 64, 25_000)).collect();
    let out = round(&doomed, &all_fitted);
    let mut instances: Vec<usize> = out.iter().map(|d| d.instance_index).collect();
    instances.sort_unstable();
    assert_eq!(instances, [0, 1, 3]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedule_into_matches_the_reference_round(
        seed in 0u64..u64::MAX,
        queue in 0usize..=600,
        instances in 1usize..=32,
        type_states in 0u64..81,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<(Arc<str>, bool)> = ec2::paper_pool()
            .iter()
            .map(|t| (Arc::from(t.name.as_str()), t.is_base))
            .collect();
        let names: Vec<Arc<str>> = pool.iter().map(|(name, _)| name.clone()).collect();

        // `type_states` holds one base-3 digit per paper type.
        let mut kairos = KairosScheduler::new();
        kairos.bind_types(&names);
        let mut states = type_states;
        for type_index in 0..pool.len() {
            observe_type(&mut kairos, type_index, states % 3, &mut rng);
            states /= 3;
        }

        // The drawn shape first, then two more rounds of other sizes on the
        // same scheduler, so its reused buffers shrink and grow.
        let shapes = [
            (queue, instances),
            (rng.gen_range(0..instances + 1), rng.gen_range(1..33usize)),
            (rng.gen_range(0..601usize), rng.gen_range(1..33usize)),
        ];
        for (m, n) in shapes {
            let round = random_round(&mut rng, m, n, &pool);
            let idle = idle_order(&round.views);
            let ctx = SchedulingContext {
                now_us: NOW_US,
                queued: &round.queued,
                instances: &round.views,
                idle: &idle,
                qos_us: round.qos_us,
                qos_by_model: &[],
            };
            let (expected, _) = reference_round(&kairos, &ctx);
            // A caller's earlier dispatches stay in front of the round's.
            let marker = Dispatch { query_index: usize::MAX, instance_index: usize::MAX };
            let mut out = vec![marker];
            kairos.schedule_into(&ctx, &mut out);
            prop_assert_eq!(out[0], marker);
            prop_assert_eq!(&out[1..], &expected[..]);
        }
    }

    #[test]
    fn penalized_instance_major_rounds_match_the_reference_round(
        seed in 0u64..u64::MAX,
        instances in 1usize..=32,
        extra in 1usize..=300,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<(Arc<str>, bool)> = ec2::paper_pool()
            .iter()
            .map(|t| (Arc::from(t.name.as_str()), t.is_base))
            .collect();
        let names: Vec<Arc<str>> = pool.iter().map(|(name, _)| name.clone()).collect();
        let mut kairos = KairosScheduler::new();
        kairos.bind_types(&names);
        for type_index in 0..pool.len() {
            observe_type(&mut kairos, type_index, 2, &mut rng);
        }
        for name in &names {
            prop_assert!(kairos.predictors().get(name).is_some_and(|p| p.has_fit()));
        }

        // Penalized rounds with a general one between them, on one
        // scheduler, so the two forms' buffers take turns.
        let n2 = rng.gen_range(1..33usize);
        let general = (rng.gen_range(0..601usize), rng.gen_range(1..33usize));
        let rounds = [
            (true, (instances + extra, instances)),
            (false, general),
            (true, (n2 + rng.gen_range(1..601usize), n2)),
        ];
        for (penalized, (m, n)) in rounds {
            let round = if penalized {
                penalized_round(&mut rng, m, n, &pool)
            } else {
                random_round(&mut rng, m, n, &pool)
            };
            let idle = idle_order(&round.views);
            let ctx = SchedulingContext {
                now_us: NOW_US,
                queued: &round.queued,
                instances: &round.views,
                idle: &idle,
                qos_us: round.qos_us,
                qos_by_model: &[],
            };
            let (expected, infeasible_share) = reference_round(&kairos, &ctx);
            if penalized {
                prop_assert!(m > n);
                prop_assert!(infeasible_share >= 0.75, "{infeasible_share}");
            }
            let mut out = Vec::new();
            kairos.schedule_into(&ctx, &mut out);
            prop_assert_eq!(&out, &expected);
        }
    }

    #[test]
    fn a_one_lane_multi_scheduler_matches_the_partitioned_round(
        seed in 0u64..u64::MAX,
        queue in 0usize..=600,
        instances in 1usize..=32,
        priors in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<(Arc<str>, bool)> = ec2::paper_pool()
            .iter()
            .map(|t| (Arc::from(t.name.as_str()), t.is_base))
            .collect();
        let names: Vec<Arc<str>> = pool.iter().map(|(name, _)| name.clone()).collect();
        let controller = |model| {
            let pool = PoolSpec::new(ec2::paper_pool());
            if priors == 1 {
                KairosController::with_priors(pool, model, paper_calibration())
            } else {
                KairosController::new(pool, model)
            }
        };
        let wnd = controller(ModelKind::Wnd);
        let mut one = MultiScheduler::new(vec![wnd.make_scheduler()]);
        let mut two = MultiScheduler::new(vec![
            wnd.make_scheduler(),
            controller(ModelKind::Ncf).make_scheduler(),
        ]);
        one.bind_types(&names);
        two.bind_types(&names);

        let shapes = [
            (queue, instances),
            (rng.gen_range(0..instances + 1), rng.gen_range(1..33usize)),
            (rng.gen_range(0..601usize), rng.gen_range(1..33usize)),
            (rng.gen_range(0..601usize), rng.gen_range(1..33usize)),
        ];
        for (m, n) in shapes {
            let round = random_round(&mut rng, m, n, &pool);
            let idle = idle_order(&round.views);
            let qos_by_model = [round.qos_us, 1_000_000];
            let ctx = SchedulingContext {
                now_us: NOW_US,
                queued: &round.queued,
                instances: &round.views,
                idle: &idle,
                qos_us: round.qos_us,
                qos_by_model: &qos_by_model,
            };
            let (mut passed, mut partitioned) = (Vec::new(), Vec::new());
            one.schedule_into(&ctx, &mut passed);
            two.schedule_into(&ctx, &mut partitioned);
            prop_assert_eq!(&passed, &partitioned);
            // Both learn the same completions before the next round.
            for _ in 0..rng.gen_range(0..12usize) {
                let type_index = rng.gen_range(0..pool.len());
                let batch = PALETTE[rng.gen_range(0..PALETTE.len())];
                let ms = rng.gen_range(0.5..40.0);
                one.on_completion(type_index, ModelId::DEFAULT, batch, ms);
                two.on_completion(type_index, ModelId::DEFAULT, batch, ms);
            }
        }
    }

    #[test]
    fn lanes_over_the_shared_views_match_the_partitioned_round(
        seed in 0u64..u64::MAX,
        lanes in 2usize..=4,
        queue in 0usize..=300,
        instances in 1usize..=32,
        priors in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<(Arc<str>, bool)> = ec2::paper_pool()
            .iter()
            .map(|t| (Arc::from(t.name.as_str()), t.is_base))
            .collect();
        let names: Vec<Arc<str>> = pool.iter().map(|(name, _)| name.clone()).collect();
        let schedulers: Vec<KairosScheduler> = (0..lanes)
            .map(|_| {
                let model = ModelKind::ALL[rng.gen_range(0..ModelKind::ALL.len())];
                let pool = PoolSpec::new(ec2::paper_pool());
                let controller = if priors == 1 {
                    KairosController::with_priors(pool, model, paper_calibration())
                } else {
                    KairosController::new(pool, model)
                };
                controller.make_scheduler()
            })
            .collect();
        let mut oracle = schedulers.clone();
        let mut multi = MultiScheduler::new(schedulers);
        multi.bind_types(&names);
        for lane in &mut oracle {
            lane.bind_types(&names);
        }

        let shapes = [
            (queue, instances),
            (rng.gen_range(0..instances + 1), rng.gen_range(1..33usize)),
            (rng.gen_range(0..301usize), rng.gen_range(1..33usize)),
            (rng.gen_range(0..301usize), rng.gen_range(1..33usize)),
        ];
        for (m, n) in shapes {
            let mut round = random_round(&mut rng, m, n, &pool);
            // Each lane may get no queries or no instances this round; the
            // rest interleave over the queue and the views.  With no lane
            // left, they go to a model no lane serves.
            let mut owners = || -> Vec<usize> {
                let some: Vec<usize> = (0..lanes).filter(|_| rng.gen_bool(0.75)).collect();
                if some.is_empty() { vec![lanes] } else { some }
            };
            let (query_owners, view_owners) = (owners(), owners());
            for q in &mut round.queued {
                q.model = ModelId::new(query_owners[rng.gen_range(0..query_owners.len())]);
            }
            for view in &mut round.views {
                view.model = ModelId::new(view_owners[rng.gen_range(0..view_owners.len())]);
            }
            let qos_by_model: Vec<u64> = (0..lanes)
                .map(|_| [10_000u64, 25_000, 50_000][rng.gen_range(0..3usize)])
                .collect();
            let idle = idle_order(&round.views);
            let ctx = SchedulingContext {
                now_us: NOW_US,
                queued: &round.queued,
                instances: &round.views,
                idle: &idle,
                qos_us: round.qos_us,
                qos_by_model: &qos_by_model,
            };
            let marker = Dispatch { query_index: usize::MAX, instance_index: usize::MAX };
            let (mut shared, mut copied) = (vec![marker], vec![marker]);
            multi.schedule_into(&ctx, &mut shared);
            partitioned_round(&mut oracle, &ctx, &mut copied);
            prop_assert_eq!(&shared, &copied);
            // Both learn the same completions before the next round.
            for _ in 0..rng.gen_range(0..24usize) {
                let lane = rng.gen_range(0..lanes);
                let type_index = rng.gen_range(0..pool.len());
                let batch = PALETTE[rng.gen_range(0..PALETTE.len())];
                let ms = rng.gen_range(0.5..40.0);
                multi.on_completion(type_index, ModelId::new(lane), batch, ms);
                oracle[lane].on_completion(type_index, ModelId::new(lane), batch, ms);
            }
        }
    }
}
