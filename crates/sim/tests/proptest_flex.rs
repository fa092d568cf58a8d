//! Property-based tests of the engine's service path under its sharing and
//! batching settings.
//!
//! 1. **Sharing capped at one is serial service** — every degradation curve
//!    runs a lone invocation at rate 1, so sharing under it with a concurrency
//!    cap of 1 reproduces the serial report bit for bit, under FCFS and
//!    under Kairos, whose matching reads busy instances' projected free
//!    times (`free_at_us`) and so sees any view the sharing setting fails
//!    to keep exact.
//! 2. **Shard transparency under flex** — with random sharing curves,
//!    concurrency caps and batcher knobs enabled, the [`ShardedEngine`]
//!    reproduces the combined engine's report bit-for-bit under rayon
//!    pools of 1, 2, 4 and 8 threads: per-instance sharing state never
//!    couples model lanes.
//! 3. **Conservation & counter sanity** — on every random flex case each
//!    offered query lands in `records` or `unfinished` exactly once, fused
//!    members share their invocation's bounds, and the calendar's lazy
//!    deletion never skips an entry it did not first cancel
//!    (`stale_popped <= cancelled`).

use kairos_core::KairosScheduler;
use kairos_models::{
    calibration::paper_calibration, ec2, Config, ModelKind, PoolSpec, ThroughputDegradation,
};
use kairos_sim::{
    BatchingOptions, ClusterSpec, FcfsScheduler, Scheduler, ServiceSpec, ShardedEngine,
    SharingOptions, SimEngine, SimReport, SimulationOptions,
};
use kairos_workload::{ModelId, Query, Trace, TraceSpec};
use proptest::prelude::*;

/// The model kinds backing ids 0..3 in these tests.
const KINDS: [ModelKind; 3] = [ModelKind::Ncf, ModelKind::Wnd, ModelKind::Rm2];

fn services(n: usize) -> Vec<ServiceSpec> {
    KINDS[..n]
        .iter()
        .map(|&k| ServiceSpec::new(k, paper_calibration()))
        .collect()
}

fn fcfs(_: ModelId) -> Box<dyn Scheduler> {
    Box::new(FcfsScheduler::new())
}

/// Random model-tagged queries: (model, batch, gap) triples turned into a
/// sorted trace.  Gaps skew short so batches actually form.
fn multi_trace(num_models: usize) -> impl Strategy<Value = Trace> {
    prop::collection::vec((0..num_models, 1u32..900, 1u64..20_000), 1..120).prop_map(|raw| {
        let mut t = 0u64;
        let queries = raw
            .into_iter()
            .enumerate()
            .map(|(id, (model, batch, gap))| {
                t += gap;
                Query::for_model(id as u64, ModelId::new(model), batch, t)
            })
            .collect();
        Trace::from_queries(queries)
    })
}

/// Random per-model sub-cluster configs over the 4-type paper pool; every
/// model gets at least one instance somewhere so its queries can complete.
fn multi_spec(num_models: usize) -> impl Strategy<Value = ClusterSpec> {
    prop::collection::vec((0usize..3, 0usize..2, 0usize..2, 0usize..2), num_models).prop_map(
        |counts| {
            ClusterSpec::from_configs(
                counts
                    .into_iter()
                    .map(|(a, b, c, d)| Config::new(vec![a.max(1), b, c, d]))
                    .collect(),
            )
        },
    )
}

/// A random degradation curve covering every variant.
fn curve() -> impl Strategy<Value = ThroughputDegradation> {
    (
        0usize..4,
        0.01f64..0.9,
        prop::collection::vec(0.5f64..1.0, 1..5),
    )
        .prop_map(|(variant, alpha, shrinks)| match variant {
            0 => ThroughputDegradation::Ideal,
            1 => ThroughputDegradation::TimeSliced,
            2 => ThroughputDegradation::try_new_linear(alpha).unwrap(),
            _ => {
                // A non-increasing per-sharer rate by construction:
                // r(1) = 1, r(n) = r(n-1) * shrink, table T(n) = n * r(n).
                let mut rate = 1.0;
                let table = shrinks
                    .into_iter()
                    .enumerate()
                    .map(|(i, shrink)| {
                        if i > 0 {
                            rate *= shrink;
                        }
                        (i + 1) as f64 * rate
                    })
                    .collect();
                ThroughputDegradation::try_new_table(table).unwrap()
            }
        })
}

/// Random flex knobs: a sharing curve with a small concurrency cap, and a
/// batcher sized so both the size cap and the timeout fire across cases.
fn flex_knobs() -> impl Strategy<Value = (SharingOptions, Option<BatchingOptions>)> {
    (curve(), 0u32..5, 0usize..2, 64u32..1024, 0u64..30_000).prop_map(
        |(c, cap, batch_on, size, timeout)| {
            (
                SharingOptions::uniform(c).with_max_concurrency(cap),
                (batch_on == 1).then(|| BatchingOptions::new(size, timeout)),
            )
        },
    )
}

/// One full random case: model count, tagged trace, cluster spec, seed.
fn multi_case() -> impl Strategy<Value = (usize, Trace, ClusterSpec, u64)> {
    (1usize..=3).prop_flat_map(|n| (Just(n), multi_trace(n), multi_spec(n), 0u64..1_000))
}

fn assert_reports_identical(a: &SimReport, b: &SimReport) {
    assert_eq!(a.scheduler, b.scheduler);
    assert_eq!(a.records, b.records);
    assert_eq!(a.unfinished, b.unfinished);
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.horizon_us, b.horizon_us);
    assert_eq!(a.qos_us, b.qos_us);
    assert_eq!(a.qos_by_model, b.qos_by_model);
    assert_eq!(a.billed_dollars.to_bits(), b.billed_dollars.to_bits());
    assert_eq!(a.billed_by_model.len(), b.billed_by_model.len());
    for (x, y) in a.billed_by_model.iter().zip(&b.billed_by_model) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.service, b.service);
}

/// Replays a single-model WND trace on `counts` under serial service and
/// under sharing with `curve` capped at one invocation, with FCFS or Kairos, and
/// asserts the two reports are identical.
fn assert_capped_sharing_is_serial(
    counts: Vec<usize>,
    trace: &Trace,
    curve: ThroughputDegradation,
    kairos: bool,
    seed: u64,
) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
    let config = Config::new(counts);
    let opts = SimulationOptions { seed };
    let scheduler = || -> Box<dyn Scheduler> {
        if kairos {
            Box::new(KairosScheduler::new())
        } else {
            Box::new(FcfsScheduler::new())
        }
    };
    let mut serial_sched = scheduler();
    let serial = SimEngine::new(
        &pool,
        &config,
        &service,
        trace,
        serial_sched.as_mut(),
        &opts,
    )
    .run();
    let mut capped_sched = scheduler();
    let capped = SimEngine::new(
        &pool,
        &config,
        &service,
        trace,
        capped_sched.as_mut(),
        &opts,
    )
    .with_sharing(SharingOptions::uniform(curve).with_max_concurrency(1))
    .run();
    assert_reports_identical(&serial, &capped);
}

/// The two cases where a busy sharing instance used to look free to Kairos
/// (its view was never refreshed while it served): WND at 60 QPS on
/// (1, 0, 2, 0), seed 15, and at 250 QPS on (1, 0, 3, 0), seed 13.
#[test]
fn kairos_sees_busy_capped_sharing_instances_as_busy() {
    for (rate, counts, seed) in [(60.0, vec![1, 0, 2, 0], 15), (250.0, vec![1, 0, 3, 0], 13)] {
        let trace = TraceSpec::production(rate, 1.0, seed).generate();
        assert_capped_sharing_is_serial(counts, &trace, ThroughputDegradation::TimeSliced, true, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharing capped at one invocation is serial service, bit for bit,
    /// under FCFS and Kairos on random traces and clusters.
    #[test]
    fn sharing_capped_at_one_is_serial_service(
        seed in 0u64..64,
        rate in 20.0f64..400.0,
        counts in prop::collection::vec(0usize..3, 4),
        c in curve(),
        kairos in 0usize..2,
    ) {
        prop_assume!(counts.iter().sum::<usize>() > 0);
        let trace = TraceSpec::production(rate, 1.0, seed).generate();
        assert_capped_sharing_is_serial(counts, &trace, c, kairos == 1, seed);
    }

    /// With sharing and batching enabled, the sharded engine reproduces the
    /// combined engine bit for bit at 1, 2, 4 and 8 threads.
    #[test]
    fn sharded_flex_replay_is_bit_identical_at_any_thread_count(
        case in multi_case(),
        knobs in flex_knobs(),
    ) {
        let (n, trace, spec, seed) = case;
        let (sharing, batching) = knobs;
        let pool = PoolSpec::new(ec2::paper_pool());
        let svc = services(n);
        let svc_refs: Vec<&ServiceSpec> = svc.iter().collect();
        let opts = SimulationOptions { seed };
        let mut scheduler = FcfsScheduler::new();
        let mut combined_engine =
            SimEngine::new_multi(&pool, &spec, &svc_refs, &trace, &mut scheduler, &opts)
                .with_sharing(sharing.clone());
        if let Some(b) = batching {
            combined_engine = combined_engine.with_batching(b);
        }
        let combined = combined_engine.run();

        // Conservation and counter sanity on the combined run.
        prop_assert_eq!(
            combined.records.len() + combined.unfinished.len(),
            combined.offered
        );
        prop_assert!(
            combined.service.calendar_stale_popped <= combined.service.calendar_cancelled
        );

        let mut sharded = ShardedEngine::new(&pool, &spec, &svc_refs, &opts)
            .with_sharing(sharing);
        if let Some(b) = batching {
            sharded = sharded.with_batching(b);
        }
        for threads in [1usize, 2, 4, 8] {
            let pool_n = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let report = pool_n.install(|| sharded.run(&trace, fcfs));
            assert_reports_identical(&combined, &report);
        }
    }

    /// Batcher accounting on random flex cases: conservation holds, every
    /// record is causally ordered, every query that completed went through
    /// a fired batch, and the lazy-deletion counters stay consistent.
    #[test]
    fn batched_runs_conserve_queries_and_counters(
        case in multi_case(),
        knobs in flex_knobs(),
    ) {
        let (n, trace, spec, seed) = case;
        let (sharing, _) = knobs;
        let pool = PoolSpec::new(ec2::paper_pool());
        let svc = services(n);
        let svc_refs: Vec<&ServiceSpec> = svc.iter().collect();
        let opts = SimulationOptions { seed };
        let mut scheduler = FcfsScheduler::new();
        let report =
            SimEngine::new_multi(&pool, &spec, &svc_refs, &trace, &mut scheduler, &opts)
                .with_sharing(sharing)
                .with_batching(BatchingOptions::new(512, 5_000))
                .run();
        prop_assert_eq!(report.records.len() + report.unfinished.len(), report.offered);
        for r in &report.records {
            prop_assert!(r.start_us >= r.arrival_us);
            prop_assert!(r.completion_us > r.start_us);
        }
        // With batching on, every completed query passed through exactly
        // one fired batch.
        prop_assert!(report.service.batched_queries >= report.service.batches_fired);
        prop_assert!(report.service.batched_queries as usize >= report.records.len());
        prop_assert!(report.service.calendar_stale_popped <= report.service.calendar_cancelled);
    }
}
