//! Criterion benchmarks for the discrete-event serving simulator: how fast a
//! trace replay runs under the different scheduling policies.  This bounds the
//! cost of every allowable-throughput probe used by the figure harness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kairos_baselines::ClockworkScheduler;
use kairos_bench::{figures::ScaleMix, scheduler_factory, SchedulerKind};
use kairos_models::{
    calibration::paper_calibration, ec2, Config, FailureDomain, FaultEvent, FaultProcess,
    ModelKind, PoolSpec,
};
use kairos_sim::{
    allowable_throughput, run_trace, BatchingOptions, CapacityOptions, CapacityProber, ClusterSpec,
    FcfsScheduler, Scheduler, ServiceSpec, ShardedEngine, SharingMode, SharingOptions,
    SimulationOptions,
};
use kairos_testkit::run_trace_naive;
use kairos_workload::{BatchSizeDistribution, MixSpec, MixedTraceSpec, TraceSpec};
use std::hint::black_box;

fn bench_trace_replay(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let latency = paper_calibration();
    let model = ModelKind::Wnd;
    let service = ServiceSpec::new(model, latency.clone());
    let config = Config::new(vec![2, 0, 4, 0]);
    let trace = TraceSpec::production(300.0, 1.0, 5).generate();

    let mut group = c.benchmark_group("trace_replay_300qps_1s");
    group.sample_size(10);
    for kind in [
        SchedulerKind::Kairos,
        SchedulerKind::Ribbon,
        SchedulerKind::Drs(280),
        SchedulerKind::Clockwork,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut scheduler = scheduler_factory(kind, model, &latency);
                    black_box(run_trace(
                        &pool,
                        &config,
                        &service,
                        &trace,
                        scheduler.as_mut(),
                        &SimulationOptions::default(),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// Incremental `SimEngine` vs the preserved per-event-rebuild reference on a
/// 50k-query production trace — the regression gate for the engine refactor:
/// the incremental views must deliver at least a 2x speedup at identical
/// output.
///
/// Clockwork is the showcase scheduler because it queues queries at busy
/// instances, so the naive path recomputes the nominal latency of every
/// local queue entry on every event (O(events × instances × queue-depth));
/// the incremental engine keeps per-instance `free_at_us` as a running value.
/// The trace rate (2.5 kQPS on a ~2.2 kQPS configuration) mildly overloads
/// the pool so local queues actually carry depth, as they do during every
/// allowable-throughput probe at the QoS boundary.  An FCFS pair (idle-only
/// dispatch, so queue depth stays 0) isolates the remaining constant-factor
/// win of the persistent views and the gap-closing central-queue sweep.
fn bench_engine_vs_naive_50k(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let latency = paper_calibration();
    let model = ModelKind::Wnd;
    let service = ServiceSpec::new(model, latency.clone());
    let config = Config::new(vec![8, 4, 8, 4]);
    let trace = TraceSpec::production(2_500.0, 20.0, 17).generate();
    assert!(
        trace.len() >= 50_000,
        "want a 50k-query trace, got {}",
        trace.len()
    );
    let opts = SimulationOptions::default();

    let mut group = c.benchmark_group("trace_replay_50k");
    group.sample_size(10);
    group.bench_function("clockwork_sim_engine", |b| {
        b.iter(|| {
            let mut scheduler = ClockworkScheduler::new(model, latency.clone());
            black_box(run_trace(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &opts,
            ))
        })
    });
    group.bench_function("clockwork_run_trace_naive", |b| {
        b.iter(|| {
            let mut scheduler = ClockworkScheduler::new(model, latency.clone());
            black_box(run_trace_naive(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &opts,
            ))
        })
    });
    group.bench_function("fcfs_sim_engine", |b| {
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(run_trace(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &opts,
            ))
        })
    });
    group.bench_function("fcfs_run_trace_naive", |b| {
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(run_trace_naive(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &opts,
            ))
        })
    });
    // The market-attached replay: same 50k-query trace with a constant
    // market bound to the engine, so per-instance billing integrals and the
    // market event plumbing are on the measured path.  Its budget entry in
    // BENCH_budget.json gates the preemption-era engine against silently
    // regressing the allocation-free hot loop.
    let market = kairos_models::ConstantMarket::from_pool(&pool);
    group.bench_function("fcfs_sim_engine_market", |b| {
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(
                kairos_sim::SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                    .with_market(&market)
                    .run(),
            )
        })
    });
    // The throughput-sharing hot path: same 50k-query replay with fair
    // sharing enabled (Linear contention, four admission slots per
    // instance), so the processed-volume advance, the O(affected-instance)
    // frontmost-completion recompute and the generation-stamped lazy
    // deletion are all on the measured path.  Budget-gated in
    // BENCH_budget.json.
    group.bench_function("fcfs_sharing", |b| {
        let sharing = SharingMode::Fair(
            SharingOptions::uniform(
                kairos_models::ThroughputDegradation::try_new_linear(0.2).unwrap(),
            )
            .with_max_concurrency(4),
        );
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(
                kairos_sim::SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                    .with_sharing(sharing.clone())
                    .run(),
            )
        })
    });
    // The fault-calendar hot path: same 50k-query replay with a zone outage
    // (notice -> drain -> kill -> purchase rejection), a capacity shortage
    // and a straggler onset materialized mid-trace, so the TimedKind
    // calendar, the preemption lifecycle and per-domain bookkeeping are all
    // on the measured path.  Budget-gated in BENCH_budget.json.
    let zone_a = FailureDomain::zone("us-east-1", "us-east-1a");
    let zone_b = FailureDomain::zone("us-east-1", "us-east-1b");
    let placements = vec![
        zone_a.clone(),
        zone_a.clone(),
        zone_b.clone(),
        zone_b.clone(),
    ];
    let process = FaultProcess::new(vec![
        FaultEvent::Straggler {
            at_us: 5_000_000,
            offering: 0,
            slowdown: 0.5,
        },
        FaultEvent::ZoneOutage {
            domain: zone_a,
            start_us: 8_000_000,
            duration_us: 4_000_000,
        },
        FaultEvent::CapacityShortage {
            domain: zone_b,
            start_us: 14_000_000,
            end_us: 16_000_000,
        },
    ]);
    group.bench_function("fcfs_fault_injection", |b| {
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(
                kairos_sim::SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                    .with_faults(&process, &placements)
                    .run(),
            )
        })
    });
    // The dynamic-batcher hot path: queue-and-fire on an 8-query-scale fuse
    // cap or a 2 ms timeout, serial service per instance.  Exercises batch
    // formation, timeout scheduling/cancellation and fused completions.
    group.bench_function("fcfs_batched", |b| {
        let batching = BatchingOptions::new(8 * 128, 2_000);
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(
                kairos_sim::SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                    .with_batching(batching)
                    .run(),
            )
        })
    });
    group.finish();
}

/// Sharded vs combined multi-model replay on a three-model 2.4 kQPS trace:
/// the regression gate for the sharded engine's per-lane fan-out.  The
/// sharded pass must stay within budget (and the per-run report carries
/// `events_processed` / `events_per_sec` as first-class metrics, asserted
/// non-zero here so the counter itself is gated too).
fn bench_sharded_replay(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let latency = paper_calibration();
    let services: Vec<ServiceSpec> = [ModelKind::Ncf, ModelKind::Wnd, ModelKind::MtWnd]
        .iter()
        .map(|&k| ServiceSpec::new(k, latency.clone()))
        .collect();
    let svc_refs: Vec<&ServiceSpec> = services.iter().collect();
    let spec = ClusterSpec::from_configs(vec![
        Config::new(vec![4, 0, 2, 0]),
        Config::new(vec![6, 0, 4, 0]),
        Config::new(vec![6, 0, 4, 0]),
    ]);
    let mix = MixSpec::from_shares(
        &[0.5, 0.3, 0.2],
        &[
            BatchSizeDistribution::Fixed(8),
            BatchSizeDistribution::Fixed(8),
            BatchSizeDistribution::Fixed(8),
        ],
    );
    let trace = MixedTraceSpec::poisson(2_400.0, mix, 20.0, 17).generate();
    let opts = SimulationOptions::default();

    let mut group = c.benchmark_group("sharded_replay_multimodel");
    group.sample_size(10);
    group.bench_function("fcfs_single_engine", |b| {
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(
                kairos_sim::SimEngine::new_multi(
                    &pool,
                    &spec,
                    &svc_refs,
                    &trace,
                    &mut scheduler,
                    &opts,
                )
                .run(),
            )
        })
    });
    group.bench_function("fcfs_sharded_engine", |b| {
        let sharded = ShardedEngine::new(&pool, &spec, &svc_refs, &opts);
        b.iter(|| {
            let report = sharded.run(&trace, |_| Box::new(FcfsScheduler::new()));
            assert!(report.events_processed > 0);
            assert!(report.events_per_sec(1.0) > 0.0);
            black_box(report)
        })
    });
    group.finish();
}

/// FCFS replay over wide lanes: the `fig_scale` five-model mix at 1M QPS
/// for 0.1 simulated seconds (100k queries) through [`ShardedEngine`],
/// every lane sized to its offered rate (hundreds to thousands of instances
/// per lane).  The `trace_replay_50k` and `sharded_replay_multimodel` rows
/// replay lanes of at most ten instances, where a per-round cost linear in
/// the idle set is invisible; here a round that copies and sorts the idle
/// set more than doubles the replay time.  The same query count at 100k
/// QPS for one second makes lanes ten times narrower and hides most of
/// that cost.
fn bench_sharded_replay_wide(c: &mut Criterion) {
    let mix = ScaleMix::new(1_000_000.0, 0.1, 2023);
    let svc_refs: Vec<&ServiceSpec> = mix.services.iter().collect();
    let opts = SimulationOptions { seed: 11 };
    let sharded = ShardedEngine::new(&mix.pool, &mix.spec, &svc_refs, &opts);

    let mut group = c.benchmark_group("sharded_replay_wide");
    group.sample_size(10);
    group.bench_function("fcfs_scale_mix_1m_qps", |b| {
        b.iter(|| {
            let report = sharded.run(&mix.trace, |_| Box::new(FcfsScheduler::new()));
            assert_eq!(
                report.completed() + report.unfinished.len(),
                mix.trace.len()
            );
            black_box(report)
        })
    });
    group.finish();
}

fn capacity_options(early_exit: bool) -> CapacityOptions {
    CapacityOptions {
        duration_s: 1.0,
        refine_steps: 3,
        max_qps: 4_000.0,
        early_exit,
        ..CapacityOptions::with_seed(97)
    }
}

fn fcfs_factory() -> Box<dyn Scheduler> {
    Box::new(FcfsScheduler::new())
}

/// End-to-end measured configuration ranking, shaped like the serving loop's
/// replanning: seven replan rounds rank the budget's candidate set with
/// capacity ramps — cadence replans re-rank the *same* enumerated candidates
/// (only knowledge drifts), and one drift replan swaps two candidates in.
/// `memoized_early_exit` is the production path: one [`CapacityProber`]
/// shared across rounds (per-config memo keyed by interned type names) with
/// early-exit probes.  `naive_full_replay` re-simulates every probe of every
/// round to completion, which is what the sweep cost before this
/// optimization pass.
fn bench_rank_configs_sweep(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
    let candidates: Vec<Config> = vec![
        Config::new(vec![1, 0, 0, 0]),
        Config::new(vec![1, 0, 1, 0]),
        Config::new(vec![1, 0, 2, 0]),
        Config::new(vec![1, 1, 0, 0]),
        Config::new(vec![2, 0, 0, 0]),
        Config::new(vec![1, 0, 0, 2]),
    ];
    let drifted: Vec<Config> = vec![
        Config::new(vec![1, 0, 1, 0]),
        Config::new(vec![1, 0, 2, 0]),
        Config::new(vec![1, 1, 0, 0]),
        Config::new(vec![2, 0, 0, 0]),
        Config::new(vec![1, 1, 1, 0]),
        Config::new(vec![2, 0, 2, 0]),
    ];
    let rounds: Vec<&[Config]> = vec![
        &candidates,
        &candidates,
        &candidates,
        &candidates,
        &drifted,
        &drifted,
        &drifted,
    ];

    let mut group = c.benchmark_group("rank_configs_sweep");
    group.sample_size(10);
    group.bench_function("memoized_early_exit", |b| {
        b.iter(|| {
            let prober = CapacityProber::new(&pool, &service, capacity_options(true));
            for round in &rounds {
                black_box(prober.rank_measured(round, fcfs_factory));
            }
        })
    });
    group.bench_function("naive_full_replay", |b| {
        b.iter(|| {
            for round in &rounds {
                let prober = CapacityProber::new(&pool, &service, capacity_options(false));
                black_box(prober.rank_measured(round, fcfs_factory));
            }
        })
    });
    group.finish();
}

/// Variant-aware configuration ranking: the merged per-lane ranking sweep
/// the variant planner runs at every replan (three RM2 lanes — fp32, int8,
/// distilled — each ranking the same budget's candidate set).
/// Budgeted at roughly twice the single-lane `rank_configs_sweep` path: the
/// per-lane closed-form rankings dominate and the merge is linear.
fn bench_rank_configs_variants(c: &mut Criterion) {
    use kairos_core::paper_variant_planner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let pool = PoolSpec::new(ec2::paper_pool());
    let planner = paper_variant_planner(&pool, ModelKind::Rm2, &paper_calibration());
    let sample = BatchSizeDistribution::production_default()
        .sample_many(&mut StdRng::seed_from_u64(7), 2_000);

    let mut group = c.benchmark_group("rank_configs_variants");
    group.sample_size(10);
    group.bench_function("three_lane_merge", |b| {
        b.iter(|| black_box(planner.rank_configs_variants(2.5, black_box(&sample), None)))
    });
    group.finish();
}

/// A cold Kairos plan at serving scale: a frozen RM2 controller (paper
/// priors, a full 10k-query production-mix monitor window) planned at
/// 10.3 $/hr — about 86k affordable configurations, the RM2 lane's share of
/// the `fleet_mix` benchmark's 12 $/hr budget on a plan-cache miss.
/// `rm2_budget_10` times the offline plan: learned table, window snapshot,
/// the one-pass cutoff statistics, the fused enumerate → bound walk, the
/// ranked-list sort and materialization, and selection.
/// `rm2_budget_10_replan` times the serving loop's miss: the same walk into
/// the unsorted scored space, selection from its bounded top-k, then the
/// cheapest-covering scan at a mid-space demand and the bound lookup of the
/// deployed configuration.  `planner_warm/rm2_budget_10_miss` times that
/// walk into warm buffers through a `PlanCache`, and
/// `planner_warm/rm2_budget_10_scans` the scans alone on the scored space:
/// the cheapest covering entry at a mid-space demand, the top entry under a
/// count filter (as when nothing realizable covers) and the bound of the
/// deployed configuration.
fn bench_planner_cold(c: &mut Criterion) {
    use kairos_core::{KairosController, PlanCache};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let pool = PoolSpec::new(ec2::paper_pool());
    let mut controller = KairosController::with_priors(pool, ModelKind::Rm2, paper_calibration());
    for batch in BatchSizeDistribution::production_default().sample_many(
        &mut StdRng::seed_from_u64(3),
        kairos_workload::DEFAULT_WINDOW,
    ) {
        controller.observe_query(batch);
    }
    let ranked = controller
        .plan(10.3)
        .expect("priors allow a plan")
        .ranked
        .len();
    assert!(
        ranked > 80_000,
        "want the ~86k-configuration space, got {ranked}"
    );

    // The serving loop's miss: the scored space (no ranking), the cheapest
    // configuration covering a mid-space demand, and the bound of the
    // deployment it would replace.
    let scored = controller.scored_plan(10.3).expect("priors allow a plan");
    let (required, current) = (scored.space.best_bound() / 2.0, scored.chosen.clone());

    let mut group = c.benchmark_group("planner_cold");
    group.sample_size(10);
    group.bench_function("rm2_budget_10", |b| {
        b.iter(|| black_box(controller.plan(black_box(10.3))))
    });
    group.bench_function("rm2_budget_10_replan", |b| {
        b.iter(|| {
            let plan = controller
                .scored_plan(black_box(10.3))
                .expect("priors allow a plan");
            let space = &plan.space;
            let target = space.cheapest_covering(black_box(required), |_| true);
            black_box((target.map(|i| space.config(i)), space.bound_of(&current)))
        })
    });
    group.finish();

    // The serving loop's miss as the loop pays it: a plan cache asked for
    // two budgets one ulp apart in turn, so every call misses and scores
    // into the warm buffers of the plan it replaces.
    let budgets = [10.3, f64::from_bits(10.3f64.to_bits() + 1)];
    let mut cache = PlanCache::new();
    let mut turn = 0;
    let mut group = c.benchmark_group("planner_warm");
    group.sample_size(10);
    group.bench_function("rm2_budget_10_miss", |b| {
        b.iter(|| {
            turn ^= 1;
            let plan = cache
                .plan(&controller, black_box(budgets[turn]))
                .expect("priors allow a plan");
            black_box(plan.space.len())
        })
    });
    let space = &scored.space;
    group.bench_function("rm2_budget_10_scans", |b| {
        b.iter(|| {
            let covering = space.cheapest_covering(black_box(required), |_| true);
            let capped = space.best(|counts| counts[0] <= black_box(2));
            black_box((covering, capped, space.bound_of(black_box(&current))))
        })
    });
    group.finish();
    assert_eq!(cache.hits(), 0, "every call must miss");
}

/// The sparse per-model hot paths a thousands-of-models serverless tail
/// leans on: sampling a 2000-component mix (binary search over the
/// cumulative-share table — the legacy linear subtraction scan is O(n) per
/// draw) and reading per-lane state out of a model-tagged monitor window
/// (active-lane index + per-lane rings instead of full-window scans).
fn bench_sparse_mix(c: &mut Criterion) {
    use kairos_workload::{MixSpec, ModelId, QueryMonitor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let n = 2_000usize;
    let shares: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64).collect();
    let dists: Vec<BatchSizeDistribution> = vec![BatchSizeDistribution::Fixed(64); n];
    let mix = MixSpec::from_shares(&shares, &dists);

    let mut monitor = QueryMonitor::with_capacity(4_096);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..8_192 {
        let (model, batch) = mix.sample(&mut rng);
        monitor.observe_tagged(model, batch);
    }

    let mut group = c.benchmark_group("sparse_mix_2000");
    group.sample_size(10);
    group.bench_function("sample_10k", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(11);
            let mut acc = 0usize;
            for _ in 0..10_000 {
                acc += mix.sample(&mut rng).0.index();
            }
            black_box(acc)
        })
    });
    group.bench_function("monitor_mix_and_lane_snapshots", |b| {
        b.iter(|| {
            let mix = monitor.mix();
            let mut len = mix.len();
            for &lane in monitor.active_models() {
                len += monitor.snapshot_for(ModelId::new(lane)).len();
            }
            black_box(len)
        })
    });
    group.finish();
}

/// One allowable-throughput ramp for a single configuration: the unit of
/// work every planner comparison and baseline grid search repeats hundreds
/// of times.  Early exit aborts each probe replay the moment its verdict is
/// provable; the verdicts (and hence the ramp result) are identical.
fn bench_allowable_throughput_probe(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
    let config = Config::new(vec![2, 0, 4, 0]);

    let mut group = c.benchmark_group("allowable_throughput_probe");
    group.sample_size(10);
    for (label, early_exit) in [("early_exit", true), ("full_replay", false)] {
        let opts = capacity_options(early_exit);
        group.bench_with_input(BenchmarkId::from_parameter(label), &opts, |b, opts| {
            b.iter(|| {
                black_box(allowable_throughput(
                    &pool,
                    &config,
                    &service,
                    opts,
                    fcfs_factory,
                ))
            })
        });
    }
    group.finish();
}

/// One Kairos matching round on a frozen deep-queue WND context: 512 queued
/// queries of the production batch mix against 14 instances over three
/// types, one of which has a single observed batch size (no latency fit, so
/// its pairs take the cold-start override).  This is the round that
/// dominates an overload burst, where queries outnumber instances and the
/// cost buffer is laid out instance-major.  `three_lane_fleet_mix` is the
/// multi-model round of the `fleet_mix` benchmark: three lanes over one
/// fleet's views, a short mixed queue.
fn bench_kairos_round(c: &mut Criterion) {
    use kairos_core::KairosScheduler;
    use kairos_sim::{Dispatch, InstanceView, SchedulingContext};
    use kairos_testkit::idle_order;
    use kairos_workload::{ModelId, Query};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    let model = ModelKind::Wnd;
    let latency = paper_calibration();
    let names: Vec<Arc<str>> = ec2::paper_pool()
        .iter()
        .map(|t| Arc::from(t.name.as_str()))
        .collect();
    let mut kairos = KairosScheduler::new();
    kairos.bind_types(&names);
    // Types 0 and 2 are fitted from their profiles; type 1 has seen only
    // one batch size.
    for (type_index, batches) in [
        (0usize, &[1u32, 64, 256, 1000][..]),
        (2, &[1, 64, 256, 1000]),
        (1, &[128]),
    ] {
        let profile = latency
            .get(model, &names[type_index])
            .expect("the paper calibration covers every paper type");
        for &batch in batches {
            kairos.on_completion(
                type_index,
                ModelId::DEFAULT,
                batch,
                profile.latency_ms(batch),
            );
        }
    }

    let now_us = 1_000_000;
    let mix = BatchSizeDistribution::production_default();
    let mut rng = StdRng::seed_from_u64(29);
    let queued: Vec<Query> = (0..512u64)
        .map(|id| {
            Query::new(
                id,
                mix.sample(&mut rng),
                now_us - rng.gen_range(0..40_000u64),
            )
        })
        .collect();
    let views: Vec<InstanceView> = (0..14usize)
        .map(|instance_index| {
            let type_index = [0, 2, 1][instance_index % 3];
            let busy = instance_index % 2 == 0;
            InstanceView {
                instance_index,
                type_index,
                type_name: names[type_index].clone(),
                model: ModelId::DEFAULT,
                is_base: type_index == 0,
                accepting: true,
                free_at_us: if busy {
                    now_us + 2_000 * instance_index as u64
                } else {
                    now_us
                },
                backlog: usize::from(busy),
            }
        })
        .collect();
    let idle = idle_order(&views);
    let ctx = SchedulingContext {
        now_us,
        queued: &queued,
        instances: &views,
        idle: &idle,
        qos_us: model.qos_us(),
        qos_by_model: &[],
    };

    let mut group = c.benchmark_group("kairos_round");
    group.sample_size(10);
    let mut out: Vec<Dispatch> = Vec::new();
    group.bench_function("deep_queue_512x14", |b| {
        b.iter(|| {
            out.clear();
            kairos.schedule_into(black_box(&ctx), &mut out);
            black_box(out.len())
        })
    });

    // A `fleet_mix` round: NCF / RM2 / WND lanes with paper priors over 26
    // instances of the paper pool, the lanes' instances interleaved and
    // two of them draining, and the few queued queries that round sees
    // (its median queue is one, its 99th percentile four).
    let models = [ModelKind::Ncf, ModelKind::Rm2, ModelKind::Wnd];
    let mut multi = kairos_core::MultiScheduler::new(
        models
            .iter()
            .map(|&m| KairosScheduler::with_priors(m, &latency))
            .collect(),
    );
    multi.bind_types(&names);
    let views: Vec<InstanceView> = (0..26usize)
        .map(|instance_index| {
            let type_index = [0, 2, 1, 3, 2][instance_index % 5];
            let busy = instance_index % 3 == 0;
            InstanceView {
                instance_index,
                type_index,
                type_name: names[type_index].clone(),
                model: ModelId::new([0, 2, 1, 0, 2, 1, 2][instance_index % 7]),
                is_base: type_index == 0,
                accepting: instance_index % 11 != 7,
                free_at_us: if busy {
                    now_us + 1_500 * instance_index as u64
                } else {
                    now_us
                },
                backlog: usize::from(busy),
            }
        })
        .collect();
    let queued: Vec<Query> = [0usize, 2, 1, 0]
        .iter()
        .enumerate()
        .map(|(id, &m)| {
            Query::for_model(
                id as u64,
                ModelId::new(m),
                mix.sample(&mut rng),
                now_us - rng.gen_range(0..4_000u64),
            )
        })
        .collect();
    let qos_by_model: Vec<u64> = models.iter().map(|m| m.qos_us()).collect();
    let idle = idle_order(&views);
    let ctx = SchedulingContext {
        now_us,
        queued: &queued,
        instances: &views,
        idle: &idle,
        qos_us: model.qos_us(),
        qos_by_model: &qos_by_model,
    };
    group.bench_function("three_lane_fleet_mix", |b| {
        b.iter(|| {
            out.clear();
            multi.schedule_into(black_box(&ctx), &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_trace_replay,
    bench_engine_vs_naive_50k,
    bench_sharded_replay,
    bench_sharded_replay_wide,
    bench_rank_configs_sweep,
    bench_rank_configs_variants,
    bench_planner_cold,
    bench_sparse_mix,
    bench_allowable_throughput_probe,
    bench_kairos_round
);
criterion_main!(benches);
