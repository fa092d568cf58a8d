//! Property-based tests of the engine's hot-path and reconfiguration
//! invariants.
//!
//! **Reconfiguration** — for random traces, random service-path knobs
//! (serial, sharing, batching, both) and random interleavings of
//! `add_instance` / `retire_instance` actions injected at random points of
//! the event stream:
//!
//! 1. the incrementally maintained scheduler views *and idle-instance index*
//!    stay **bit-identical** to a from-scratch recomputation after every
//!    event (retired instances excepted for `free_at_us`, which the hot path
//!    deliberately leaves stale because no policy may dispatch to them),
//! 2. retired (and draining) instances never receive a dispatch after
//!    retirement was requested,
//! 3. every offered query is either completed or reported unfinished, and
//! 4. once the run ends, every drained instance has actually transitioned to
//!    the retired lifecycle state.
//!
//! **Optimized vs naive** — for random traces, cluster shapes and scheduler
//! policies, the optimized engine (arrival cursor + calendar queue + idle
//! index + scratch buffers) produces **bit-identical** [`SimReport`]s to
//! `run_trace_naive`: same records, same unfinished set, same horizon, same
//! violation timeline.

use kairos_models::{
    calibration::paper_calibration, ec2, Config, ModelKind, Offering, OfferingCatalog, PoolSpec,
    PreemptionProcess, PriceTrace, ThroughputDegradation, TraceMarket,
};
use kairos_sim::{
    run_trace, BatchingOptions, Dispatch, EngineEvent, Scheduler, SchedulingContext, ServiceSpec,
    SharingMode, SharingOptions, SimEngine, SimulationOptions,
};
use kairos_testkit::{idle_order, run_trace_naive};
use kairos_workload::TraceSpec;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// One reconfiguration action at a given event ordinal.
#[derive(Debug, Clone, Copy)]
enum Action {
    Add { type_index: usize, delay_us: u64 },
    Retire { victim_seed: usize },
}

fn actions() -> impl Strategy<Value = Vec<(usize, Action)>> {
    prop::collection::vec(
        (
            0usize..400,                // event ordinal the action fires after
            0usize..2,                  // discriminant: add or retire
            (0usize..4, 0u64..800_000), // type index, provisioning delay
            0usize..64,                 // victim selector seed
        ),
        0..12,
    )
    .prop_map(|raw| {
        let mut out: Vec<(usize, Action)> = raw
            .into_iter()
            .map(|(at, kind, (type_index, delay_us), victim_seed)| {
                let action = if kind == 0 {
                    Action::Add {
                        type_index,
                        delay_us,
                    }
                } else {
                    Action::Retire { victim_seed }
                };
                (at, action)
            })
            .collect();
        out.sort_by_key(|(at, _)| *at);
        out
    })
}

/// A queue-building policy (earliest projected free time) so local queues
/// gain real depth — the regime where incremental-view bugs would surface.
#[derive(Default)]
struct EarliestFreeScheduler;

impl Scheduler for EarliestFreeScheduler {
    fn name(&self) -> &'static str {
        "earliest-free"
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        // Idle views keep the time they went idle; the scheduler contract is
        // to read availability clamped to now (`remaining_us` semantics).
        let mut free_at: Vec<Option<u64>> = ctx
            .instances
            .iter()
            .map(|i| i.accepting.then_some(i.free_at_us.max(ctx.now_us)))
            .collect();
        out.extend(
            ctx.queued
                .iter()
                .enumerate()
                .filter_map(|(query_index, _)| {
                    let slot = free_at
                        .iter()
                        .enumerate()
                        .filter_map(|(slot, t)| t.map(|t| (slot, t)))
                        .min_by_key(|&(_, t)| t)
                        .map(|(slot, _)| slot)?;
                    *free_at.get_mut(slot).unwrap() = free_at[slot].map(|t| t + 10_000);
                    Some(Dispatch {
                        query_index,
                        instance_index: ctx.instances[slot].instance_index,
                    })
                }),
        );
    }
}

/// An idle-index-driven policy: large queries to idle base instances, small
/// ones to idle auxiliaries, consuming `ctx.idle_now()` directly — so the
/// equivalence property also covers the engine-maintained idle index as seen
/// through the public scheduling contract.
struct ThresholdScheduler {
    threshold: u32,
}

impl Scheduler for ThresholdScheduler {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        let mut idle_base: Vec<u32> = Vec::new();
        let mut idle_aux: Vec<u32> = Vec::new();
        for &i in ctx.idle_now() {
            if ctx.instances[i as usize].is_base {
                idle_base.push(i);
            } else {
                idle_aux.push(i);
            }
        }
        for (query_index, query) in ctx.queued.iter().enumerate() {
            let pool = if query.batch_size > self.threshold {
                &mut idle_base
            } else {
                &mut idle_aux
            };
            if let Some(instance_index) = pool.pop() {
                out.push(Dispatch {
                    query_index,
                    instance_index: instance_index as usize,
                });
            }
        }
    }
}

/// Applies service-path knob `knob`: 0 serial, 1 sharing, 2 batching,
/// 3 sharing + batching.
fn with_knob(engine: SimEngine<'_>, knob: usize) -> SimEngine<'_> {
    let sharing = SharingMode::Fair(
        SharingOptions::uniform(ThroughputDegradation::try_new_linear(0.2).unwrap())
            .with_max_concurrency(3),
    );
    let batching = BatchingOptions::new(256, 2_000);
    match knob {
        0 => engine,
        1 => engine.with_sharing(sharing),
        2 => engine.with_batching(batching),
        _ => engine.with_sharing(sharing).with_batching(batching),
    }
}

/// The queries an instance holds in any stage.
fn held_of(engine: &SimEngine<'_>, index: usize) -> HashSet<u64> {
    engine.instance_queries(index).map(|q| q.id).collect()
}

fn make_scheduler(kind: usize) -> Box<dyn Scheduler> {
    match kind {
        0 => Box::new(kairos_sim::FcfsScheduler::new()),
        1 => Box::new(EarliestFreeScheduler),
        _ => Box::new(ThresholdScheduler { threshold: 280 }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reconfig_preserves_views_and_never_dispatches_to_retired(
        seed in 1u64..1000,
        plan in actions(),
        knob in 0usize..4,
    ) {
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let trace = TraceSpec::production(800.0, 0.5, seed).generate();
        let offered = trace.len();
        let mut scheduler = EarliestFreeScheduler;
        let mut engine = with_knob(
            SimEngine::new(
                &pool,
                &Config::new(vec![1, 1, 1, 0]),
                &service,
                &trace,
                &mut scheduler,
                &SimulationOptions::default(),
            ),
            knob,
        );

        let mut next_action = 0usize;
        let mut event_ordinal = 0usize;
        // For every instance with retirement requested: the queries it held
        // at that moment.  Anything it serves later must come from this set.
        let mut allowed_after_retire: Vec<(usize, HashSet<u64>)> = Vec::new();

        while engine.step() {
            event_ordinal += 1;

            // Inject any actions scheduled at this ordinal.
            while next_action < plan.len() && plan[next_action].0 <= event_ordinal {
                match plan[next_action].1 {
                    Action::Add { type_index, delay_us } => {
                        engine.add_instance(type_index, delay_us);
                    }
                    Action::Retire { victim_seed } => {
                        let candidates: Vec<usize> = engine
                            .cluster()
                            .instances()
                            .iter()
                            .filter(|i| i.accepts_dispatches())
                            .map(|i| i.index)
                            .collect();
                        // Keep at least one live instance so the run drains.
                        if candidates.len() > 1 {
                            let victim = candidates[victim_seed % candidates.len()];
                            let held = held_of(&engine, victim);
                            engine.retire_instance(victim);
                            allowed_after_retire.push((victim, held));
                        }
                    }
                }
                next_action += 1;
            }

            // Invariant 1: the hot-path views and idle index — incremental,
            // no full sweep behind them — match the recomputed reference, bit
            // for bit.  Only retired instances (never dispatchable) are
            // allowed a stale `free_at_us`.
            let reference = engine.recompute_views();
            let reference_idle = engine.recompute_idle();
            if knob == 0 {
                prop_assert_eq!(&reference_idle, &idle_order(&reference));
            }
            let (views, idle) = engine.scheduler_views();
            prop_assert_eq!(idle, &reference_idle[..]);
            for (view, expect) in views.iter().zip(&reference) {
                if view.accepting || expect.backlog > 0 {
                    prop_assert_eq!(view, expect);
                } else {
                    // Retired: everything but the (unread) free time matches.
                    prop_assert_eq!(view.instance_index, expect.instance_index);
                    prop_assert_eq!(view.backlog, expect.backlog);
                    prop_assert_eq!(view.accepting, expect.accepting);
                }
            }

            // Invariant 2: non-accepting instances hold no query that was not
            // already theirs when retirement was requested.
            for (victim, held) in &allowed_after_retire {
                for q in held_of(&engine, *victim) {
                    prop_assert!(
                        held.contains(&q),
                        "query {} dispatched to instance {} after retirement",
                        q,
                        victim
                    );
                }
            }
        }

        // Invariant 4: draining finished for every drained instance.
        for (victim, _) in &allowed_after_retire {
            let inst = &engine.cluster().instances()[*victim];
            prop_assert!(
                inst.is_retired(),
                "instance {} never settled to retired",
                victim
            );
            prop_assert_eq!(engine.instance_backlog(*victim), 0);
        }

        // Invariant 3: conservation of queries.
        let report = engine.report();
        prop_assert_eq!(report.completed() + report.unfinished.len(), offered);
    }

    /// Random preemption storms interleaved with random add/retire actions
    /// preserve every hot-path and accounting invariant: the incremental
    /// views and idle index stay bit-identical to recomputation, a noticed
    /// instance never receives work it did not already hold, each kill
    /// requeues the instance's in-flight work exactly once, and every
    /// offered query is accounted for exactly once at the end.
    #[test]
    fn preemption_interleavings_preserve_views_and_requeue_exactly_once(
        seed in 1u64..500,
        notices in prop::collection::vec((50_000u64..450_000, 0usize..2), 1..4),
        plan in actions(),
        scheduler_kind in 0usize..3,
        knob in 0usize..4,
    ) {
        // Offerings: the four on-demand paper types plus two preemptible
        // spot offerings (GPU and r5n) the notices target.
        let spot_offsets: Vec<Vec<u64>> = (0..2)
            .map(|o| {
                notices
                    .iter()
                    .filter(|(_, target)| *target == o)
                    .map(|(t, _)| *t)
                    .collect()
            })
            .collect();
        let catalog = OfferingCatalog::new(vec![
            Offering::on_demand(ec2::g4dn_xlarge()),
            Offering::on_demand(ec2::c5n_2xlarge()),
            Offering::on_demand(ec2::r5n_large()),
            Offering::on_demand(ec2::t3_xlarge()),
            Offering::spot(
                ec2::g4dn_xlarge(),
                PriceTrace::constant(0.17),
                PreemptionProcess::At { notices_us: spot_offsets[0].clone() },
            ),
            Offering::spot(
                ec2::r5n_large(),
                PriceTrace::constant(0.05),
                PreemptionProcess::At { notices_us: spot_offsets[1].clone() },
            ),
        ]);
        let market = TraceMarket::new(catalog.clone()).with_notice(30_000);
        let pool = catalog.effective_pool();
        let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let trace = TraceSpec::production(700.0, 0.5, seed).generate();
        let offered = trace.len();
        let mut scheduler = make_scheduler(scheduler_kind);
        let mut engine = with_knob(
            SimEngine::new(
                &pool,
                &Config::new(vec![1, 0, 0, 0, 1, 1]),
                &service,
                &trace,
                scheduler.as_mut(),
                &SimulationOptions::default(),
            )
            .with_market_horizon(&market, 1_000_000),
            knob,
        );

        let mut next_action = 0usize;
        let mut event_ordinal = 0usize;
        // Per-instance: the queries it held when it stopped accepting work
        // (retirement or preemption notice).  Anything it holds later must
        // come from this set.
        let mut held_after_stop: Vec<(usize, HashSet<u64>)> = Vec::new();
        let mut noticed: HashSet<usize> = HashSet::new();
        let mut requeues_seen = 0usize;
        let mut requeues_by_kill: HashMap<usize, usize> = HashMap::new();

        while let Some(event) = engine.step_event() {
            event_ordinal += 1;
            match &event {
                EngineEvent::PreemptionNotice { offering, .. } => {
                    let hit: Vec<usize> = engine
                        .cluster()
                        .instances()
                        .iter()
                        .filter(|i| i.type_index == *offering && !i.is_terminated())
                        .map(|i| i.index)
                        .collect();
                    for index in hit {
                        held_after_stop.push((index, held_of(&engine, index)));
                        noticed.insert(index);
                    }
                }
                EngineEvent::InstancePreempted { instance_index, requeued } => {
                    requeues_seen += requeued;
                    let prior = requeues_by_kill.insert(*instance_index, *requeued);
                    // An instance must be killed at most once.
                    prop_assert_eq!(prior, None);
                    let inst = &engine.cluster().instances()[*instance_index];
                    prop_assert!(inst.is_preempted());
                    prop_assert!(
                        engine.instance_backlog(*instance_index) == 0,
                        "kill must strip all work"
                    );
                }
                _ => {}
            }

            // Inject reconfiguration actions, as in the retirement test.
            while next_action < plan.len() && plan[next_action].0 <= event_ordinal {
                match plan[next_action].1 {
                    Action::Add { type_index, delay_us } => {
                        // Spread the 0..4 strategy range over the six
                        // offerings so spot capacity is also added mid-run
                        // (possibly after its offering's storm).
                        engine.add_instance((type_index * 2) % 6, delay_us);
                    }
                    Action::Retire { victim_seed } => {
                        let candidates: Vec<usize> = engine
                            .cluster()
                            .instances()
                            .iter()
                            .filter(|i| i.accepts_dispatches())
                            .map(|i| i.index)
                            .collect();
                        if candidates.len() > 1 {
                            let victim = candidates[victim_seed % candidates.len()];
                            held_after_stop.push((victim, held_of(&engine, victim)));
                            engine.retire_instance(victim);
                        }
                    }
                }
                next_action += 1;
            }

            // Hot-path views and idle index stay bit-identical to the
            // recomputed reference (terminated instances may keep a stale
            // free time — no policy reads it).
            let reference = engine.recompute_views();
            let reference_idle = engine.recompute_idle();
            let (views, idle) = engine.scheduler_views();
            prop_assert_eq!(idle, &reference_idle[..]);
            for (view, expect) in views.iter().zip(&reference) {
                if view.accepting || expect.backlog > 0 {
                    prop_assert_eq!(view, expect);
                } else {
                    prop_assert_eq!(view.instance_index, expect.instance_index);
                    prop_assert_eq!(view.backlog, expect.backlog);
                    prop_assert_eq!(view.accepting, expect.accepting);
                }
            }

            // A stopped instance holds only queries it already had.
            for (index, held) in &held_after_stop {
                for q in held_of(&engine, *index) {
                    prop_assert!(
                        held.contains(&q),
                        "query {} reached instance {} after it stopped accepting",
                        q,
                        index
                    );
                }
            }
        }

        // Every noticed instance was killed exactly once and ended preempted.
        for index in &noticed {
            prop_assert!(
                requeues_by_kill.contains_key(index),
                "instance {} was noticed but never killed",
                index
            );
            prop_assert!(engine.cluster().instances()[*index].is_preempted());
        }

        let report = engine.report();
        prop_assert_eq!(report.requeued_queries, requeues_seen);
        prop_assert_eq!(report.preempted_instances, requeues_by_kill.len());
        // Conservation: every offered query completes or is reported
        // unfinished, exactly once (requeues never duplicate or drop work).
        prop_assert_eq!(report.completed() + report.unfinished.len(), offered);
        let mut seen: HashSet<u64> = HashSet::new();
        for id in report
            .records
            .iter()
            .map(|r| r.id)
            .chain(report.unfinished.iter().map(|u| u.id))
        {
            prop_assert!(seen.insert(id), "query {} accounted twice", id);
        }
    }

    /// The optimized engine is bit-identical to the naive reference across
    /// random traces, cluster shapes and scheduler policies: per-query
    /// records, unfinished queries, horizon, and the derived violation
    /// timeline all match exactly.
    #[test]
    fn optimized_engine_bit_matches_naive_reference(
        seed in 1u64..400,
        rate in 50.0f64..1600.0,
        duration_ds in 3u32..12,            // deciseconds: 0.3 s – 1.1 s
        counts in prop::collection::vec(0usize..3, 4),
        scheduler_kind in 0usize..3,
        noise_seed in 0u64..64,
    ) {
        prop_assume!(counts.iter().sum::<usize>() > 0);
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let trace =
            TraceSpec::production(rate, duration_ds as f64 / 10.0, seed).generate();
        let config = Config::new(counts);
        let opts = SimulationOptions { seed: noise_seed };

        let mut fast_scheduler = make_scheduler(scheduler_kind);
        let fast = run_trace(
            &pool, &config, &service, &trace, fast_scheduler.as_mut(), &opts,
        );
        let mut naive_scheduler = make_scheduler(scheduler_kind);
        let naive = run_trace_naive(
            &pool, &config, &service, &trace, naive_scheduler.as_mut(), &opts,
        );

        prop_assert_eq!(&fast.records, &naive.records);
        prop_assert_eq!(&fast.unfinished, &naive.unfinished);
        prop_assert_eq!(fast.offered, naive.offered);
        prop_assert_eq!(fast.horizon_us, naive.horizon_us);
        prop_assert_eq!(
            fast.violation_timeline(100_000),
            naive.violation_timeline(100_000)
        );

        // The early-exit probe agrees with the full-replay verdict too.
        for tolerance in [0.0, 0.01, 0.25] {
            let mut probe_scheduler = make_scheduler(scheduler_kind);
            let probe = SimEngine::new(
                &pool, &config, &service, &trace, probe_scheduler.as_mut(), &opts,
            )
            .run_qos_probe(tolerance);
            prop_assert_eq!(probe, naive.meets_qos(tolerance));
        }
    }
}
