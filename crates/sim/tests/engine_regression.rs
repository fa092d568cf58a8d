//! Regression tests for the incremental `SimEngine`:
//!
//! 1. the incrementally maintained views and idle index must equal the
//!    recomputed-from-scratch ones after **every** event of a 10k-query
//!    production trace, under serial service and with the sharing and
//!    batching knobs, and
//! 2. `SimEngine::run` must byte-match the preserved `run_trace_naive`
//!    reference (records, unfinished queries, horizon) for fixed seeds, an
//!    FCFS run and an out-of-order trace, and
//! 3. the calendar's generation-stamped lazy deletion must never skip an
//!    entry it did not first cancel (`stale_popped <= cancelled`), under
//!    serial service and with the sharing and batching knobs.

use kairos_models::{
    calibration::paper_calibration, ec2, Config, FailureDomain, FaultEvent, FaultProcess,
    ModelKind, PoolSpec, ThroughputDegradation,
};
use kairos_sim::{
    run_trace, BatchingOptions, Dispatch, FcfsScheduler, Scheduler, SchedulingContext, ServiceSpec,
    SharingMode, SharingOptions, SimEngine, SimulationOptions,
};
use kairos_testkit::{idle_order, run_trace_naive};
use kairos_workload::{Query, Trace, TraceSpec};

fn setup() -> (PoolSpec, ServiceSpec) {
    (
        PoolSpec::new(ec2::paper_pool()),
        ServiceSpec::new(ModelKind::Wnd, paper_calibration()),
    )
}

/// A Clockwork-like policy that immediately assigns every queued query to
/// the instance with the earliest projected free time, piling work onto
/// *busy* instances so local queues carry real depth — the regime where the
/// naive per-event view rebuild was O(instances × queue-depth).
#[derive(Default)]
struct EarliestFreeScheduler;

impl Scheduler for EarliestFreeScheduler {
    fn name(&self) -> &'static str {
        "earliest-free"
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        // Idle views keep the time they went idle; the scheduler contract is
        // to read availability clamped to now (`remaining_us` semantics).
        let mut free_at: Vec<u64> = ctx
            .instances
            .iter()
            .map(|i| i.free_at_us.max(ctx.now_us))
            .collect();
        out.extend(ctx.queued.iter().enumerate().map(|(query_index, _)| {
            let slot = free_at
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .map(|(slot, _)| slot)
                .expect("non-empty cluster");
            // Rough occupancy charge so consecutive picks spread out.
            free_at[slot] += 10_000;
            Dispatch {
                query_index,
                instance_index: ctx.instances[slot].instance_index,
            }
        }));
    }
}

/// Service-path knobs every check runs under: serial service, sharing
/// alone, batching alone, and sharing + batching.
fn service_knobs() -> [(Option<SharingMode>, Option<BatchingOptions>); 4] {
    [
        (None, None),
        (
            Some(SharingMode::Fair(
                SharingOptions::uniform(ThroughputDegradation::try_new_linear(0.2).unwrap())
                    .with_max_concurrency(4),
            )),
            None,
        ),
        (None, Some(BatchingOptions::new(256, 2_000))),
        (
            Some(SharingMode::Fair(
                SharingOptions::uniform(ThroughputDegradation::TimeSliced).with_max_concurrency(2),
            )),
            Some(BatchingOptions::new(128, 1_000)),
        ),
    ]
}

/// A 10k-query production trace: 2 kQPS Poisson for 5 s, log-normal batches,
/// against a configuration loaded near its capacity so queues build up.
fn production_10k(seed: u64) -> kairos_workload::Trace {
    let trace = TraceSpec::production(2_000.0, 5.0, seed).generate();
    assert!(
        trace.len() >= 9_000,
        "expected ~10k queries, got {}",
        trace.len()
    );
    trace
}

#[test]
fn incremental_views_equal_recomputed_views_on_a_10k_production_trace() {
    let (pool, service) = setup();
    let config = Config::new(vec![8, 4, 8, 4]);
    let trace = production_10k(101);
    for (sharing, batching) in service_knobs() {
        let serial = sharing.is_none() && batching.is_none();
        let mut scheduler = EarliestFreeScheduler;
        let mut engine = SimEngine::new(
            &pool,
            &config,
            &service,
            &trace,
            &mut scheduler,
            &SimulationOptions::default(),
        );
        if let Some(mode) = sharing {
            engine = engine.with_sharing(mode);
        }
        if let Some(b) = batching {
            engine = engine.with_batching(b);
        }
        let mut events = 0usize;
        let mut saw_queued_work = false;
        while engine.step() {
            let reference = engine.recompute_views();
            let reference_idle = engine.recompute_idle();
            if serial {
                // Serial service: dispatchable means backlog-free, so the
                // public view-derived oracle agrees.
                assert_eq!(reference_idle, idle_order(&reference));
            }
            saw_queued_work |= (0..engine.cluster().len()).any(|i| engine.instance_backlog(i) > 1);
            // The *hot-path* state: incrementally maintained views + idle
            // index, with no full-cluster sweep behind them.
            let (views, idle) = engine.scheduler_views();
            assert_eq!(views, &reference[..], "views diverged after event {events}");
            assert_eq!(
                idle,
                &reference_idle[..],
                "idle index diverged after event {events}"
            );
            events += 1;
        }
        // Every query arrives and completes; fused completions share one
        // event, so only serial service has one completion per query.
        let min_events = if serial { 2 * trace.len() } else { trace.len() };
        assert!(events >= min_events, "every query must arrive and complete");
        assert!(saw_queued_work, "test must exercise queued work");
    }
}

#[test]
fn engine_byte_matches_naive_reference_for_fixed_seeds() {
    let (pool, service) = setup();
    let config = Config::new(vec![8, 4, 8, 4]);
    for seed in [0u64, 7, 42] {
        let trace = production_10k(seed.wrapping_add(11));
        let opts = SimulationOptions { seed };

        // FCFS: idle-only dispatch (empty local queues).
        let fast = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut FcfsScheduler::new(),
            &opts,
        );
        let naive = run_trace_naive(
            &pool,
            &config,
            &service,
            &trace,
            &mut FcfsScheduler::new(),
            &opts,
        );
        assert_eq!(
            fast.records, naive.records,
            "fcfs records diverged (seed {seed})"
        );
        assert_eq!(fast.unfinished, naive.unfinished);
        assert_eq!(fast.horizon_us, naive.horizon_us);

        // Earliest-free: queue-building dispatch (deep local queues).
        let fast = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut EarliestFreeScheduler,
            &opts,
        );
        let naive = run_trace_naive(
            &pool,
            &config,
            &service,
            &trace,
            &mut EarliestFreeScheduler,
            &opts,
        );
        assert_eq!(
            fast.records, naive.records,
            "earliest-free records diverged (seed {seed})"
        );
        assert_eq!(fast.unfinished, naive.unfinished);
        assert_eq!(fast.horizon_us, naive.horizon_us);
    }
}

#[test]
fn engine_matches_naive_reference_for_fcfs() {
    let (pool, service) = setup();
    let trace = TraceSpec::production(400.0, 1.0, 21).generate();
    let config = Config::new(vec![1, 1, 2, 0]);
    let opts = SimulationOptions { seed: 3 };
    let fast = run_trace(
        &pool,
        &config,
        &service,
        &trace,
        &mut FcfsScheduler::new(),
        &opts,
    );
    let naive = run_trace_naive(
        &pool,
        &config,
        &service,
        &trace,
        &mut FcfsScheduler::new(),
        &opts,
    );
    assert_eq!(fast.records, naive.records);
    assert_eq!(fast.unfinished, naive.unfinished);
    assert_eq!(fast.horizon_us, naive.horizon_us);
}

#[test]
fn unsorted_trace_matches_naive_reference() {
    let (pool, service) = setup();
    let config = Config::new(vec![1, 0, 0, 0]);
    // Hand-assembled out-of-order queries (bypassing `from_queries`).
    let trace = Trace {
        spec: None,
        queries: vec![
            Query::new(0, 10, 9_000),
            Query::new(1, 10, 1_000),
            Query::new(2, 10, 5_000),
        ],
    };
    let opts = SimulationOptions::default();
    let fast = run_trace(
        &pool,
        &config,
        &service,
        &trace,
        &mut FcfsScheduler::new(),
        &opts,
    );
    let naive = run_trace_naive(
        &pool,
        &config,
        &service,
        &trace,
        &mut FcfsScheduler::new(),
        &opts,
    );
    assert_eq!(fast.records, naive.records);
}

/// Under serial service an FCFS run's from-scratch idle index is the
/// view-derived `idle_order` after every event.
#[test]
fn serial_idle_index_matches_idle_order_each_step() {
    let (pool, service) = setup();
    let trace = TraceSpec::production(600.0, 0.5, 31).generate();
    let config = Config::new(vec![1, 0, 1, 0]);
    let mut scheduler = FcfsScheduler::new();
    let mut engine = SimEngine::new(
        &pool,
        &config,
        &service,
        &trace,
        &mut scheduler,
        &SimulationOptions::default(),
    );
    while engine.step() {
        assert_eq!(
            engine.recompute_idle(),
            idle_order(&engine.recompute_views())
        );
    }
}

/// Lazy-deletion bookkeeping on 10k-query production traces: every stale
/// calendar entry skipped at pop time was cancelled first, cancellations
/// never exceed what was scheduled, and the engine still conserves queries.
#[test]
fn calendar_lazy_deletion_counters_stay_consistent() {
    let (pool, service) = setup();
    let config = Config::new(vec![8, 4, 8, 4]);
    for seed in [0u64, 7] {
        let trace = production_10k(seed.wrapping_add(23));
        let opts = SimulationOptions { seed };
        for (sharing, batching) in &service_knobs() {
            let mut scheduler = FcfsScheduler::new();
            let mut engine =
                SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts);
            if let Some(mode) = sharing {
                engine = engine.with_sharing(mode.clone());
            }
            if let Some(b) = batching {
                engine = engine.with_batching(*b);
            }
            let report = engine.run();
            let s = &report.service;
            assert!(
                s.calendar_stale_popped <= s.calendar_cancelled,
                "skipped an entry that was never cancelled (seed {seed}): {s:?}"
            );
            assert!(
                s.calendar_cancelled <= s.calendar_scheduled,
                "cancelled more than was ever scheduled (seed {seed}): {s:?}"
            );
            assert_eq!(
                report.records.len() + report.unfinished.len(),
                report.offered,
                "query conservation broke (seed {seed})"
            );
            if batching.is_some() {
                assert!(
                    s.batches_fired > 0,
                    "the batcher never engaged (seed {seed})"
                );
                assert!(s.batched_queries as usize >= report.records.len());
            }
        }
    }
}

/// The same lazy-deletion invariant across *fault-triggered* re-schedules: a
/// zone outage (notice → drain → kill with requeues), a capacity shortage,
/// and a mid-run straggler onset all cancel and re-book calendar entries,
/// and `stale_popped <= cancelled <= scheduled` must survive every knob
/// combination — serial, sharing, batching, and sharing + batching.
#[test]
fn calendar_counters_stay_consistent_on_fault_paths() {
    let (pool, service) = setup();
    let config = Config::new(vec![4, 2, 4, 2]);
    let zone_a = FailureDomain::zone("us-east-1", "us-east-1a");
    let zone_b = FailureDomain::zone("us-east-1", "us-east-1b");
    // Types 0 and 1 in zone a (taken down mid-run), 2 and 3 in zone b.
    let placements = vec![
        zone_a.clone(),
        zone_a.clone(),
        zone_b.clone(),
        zone_b.clone(),
    ];
    let process = FaultProcess::new(vec![
        FaultEvent::ZoneOutage {
            domain: zone_a,
            start_us: 1_500_000,
            duration_us: 1_000_000,
        },
        FaultEvent::CapacityShortage {
            domain: zone_b,
            start_us: 2_000_000,
            end_us: 3_000_000,
        },
        FaultEvent::Straggler {
            at_us: 500_000,
            offering: 2,
            slowdown: 0.5,
        },
    ]);
    for seed in [0u64, 7] {
        let trace = production_10k(seed.wrapping_add(23));
        let opts = SimulationOptions { seed };
        for (sharing, batching) in &service_knobs() {
            let mut scheduler = FcfsScheduler::new();
            let mut engine =
                SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                    .with_faults(&process, &placements);
            if let Some(mode) = sharing {
                engine = engine.with_sharing(mode.clone());
            }
            if let Some(b) = batching {
                engine = engine.with_batching(*b);
            }
            let report = engine.run();
            let s = &report.service;
            assert!(
                s.calendar_stale_popped <= s.calendar_cancelled,
                "skipped an entry that was never cancelled (seed {seed}): {s:?}"
            );
            assert!(
                s.calendar_cancelled <= s.calendar_scheduled,
                "cancelled more than was ever scheduled (seed {seed}): {s:?}"
            );
            assert_eq!(
                report.records.len() + report.unfinished.len(),
                report.offered,
                "query conservation broke (seed {seed})"
            );
            // The faults actually landed: the outage killed the two zone-a
            // types' instances and the straggler found its zone-b victim.
            assert_eq!(report.outages.len(), 1);
            assert_eq!(report.outages[0].killed_instances, 6);
            assert_eq!(report.straggler_onsets, 1);
            assert!(
                report.preempted_instances >= 6,
                "outage kills must requeue through the preemption lifecycle"
            );
        }
    }
}
