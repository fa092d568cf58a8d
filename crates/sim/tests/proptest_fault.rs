//! Property-based bit-identity contract of the fault layer: attaching an
//! **empty** [`FaultProcess`] with the single default (global) domain must be
//! a perfect no-op.  On random multi-model traces against random cluster
//! shapes — including under concurrent sharing, dynamic batching, and both
//! together — the fault-attached engine's report must match the plain
//! engine's bit for bit: records, unfinished queries, billing (compared by
//! f64 bit pattern), and the full [`ServiceStats`] calendar accounting.  The
//! [`ShardedEngine`] at 1, 2, 4 and 8 rayon threads must match the same
//! report, so the fault layer cannot perturb the shard-transparency
//! guarantee either.

use kairos_models::{
    calibration::paper_calibration, ec2, Config, FaultProcess, ModelKind, PoolSpec,
    ThroughputDegradation,
};
use kairos_sim::{
    BatchingOptions, ClusterSpec, FcfsScheduler, Scheduler, ServiceSpec, ShardedEngine,
    SharingOptions, SimEngine, SimulationOptions,
};
use kairos_workload::{ModelId, Query, Trace};
use proptest::prelude::*;

/// The model kinds backing ids 0..3 in these tests.
const KINDS: [ModelKind; 3] = [ModelKind::Ncf, ModelKind::Wnd, ModelKind::Rm2];

fn services(n: usize) -> Vec<ServiceSpec> {
    KINDS[..n]
        .iter()
        .map(|&k| ServiceSpec::new(k, paper_calibration()))
        .collect()
}

/// Random model-tagged queries: (model, batch, gap) triples turned into a
/// sorted trace.
fn multi_trace(num_models: usize) -> impl Strategy<Value = Trace> {
    prop::collection::vec((0..num_models, 1u32..900, 1u64..40_000), 1..120).prop_map(|raw| {
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

/// Service-path knobs: 0 = serial, 1 = sharing, 2 = batching, 3 = both.
fn flex(knob: usize) -> (Option<SharingOptions>, Option<BatchingOptions>) {
    match knob {
        0 => (None, None),
        1 => (
            Some(
                SharingOptions::uniform(ThroughputDegradation::try_new_linear(0.2).unwrap())
                    .with_max_concurrency(4),
            ),
            None,
        ),
        2 => (None, Some(BatchingOptions::new(256, 2_000))),
        _ => (
            Some(
                SharingOptions::uniform(ThroughputDegradation::TimeSliced).with_max_concurrency(2),
            ),
            Some(BatchingOptions::new(128, 1_000)),
        ),
    }
}

/// One full random case: model count, tagged trace, cluster spec, seed, knob.
#[allow(clippy::type_complexity)]
fn fault_case() -> impl Strategy<Value = (usize, Trace, ClusterSpec, u64, usize)> {
    (1usize..=3).prop_flat_map(|n| {
        (
            Just(n),
            multi_trace(n),
            multi_spec(n),
            0u64..1_000,
            0usize..4,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn empty_fault_process_is_bit_identical_to_the_plain_engine(
        case in fault_case(),
    ) {
        let (num_models, trace, spec, seed, knob) = case;
        let pool = PoolSpec::new(ec2::paper_pool());
        let svc = services(num_models);
        let svc_refs: Vec<&ServiceSpec> = svc.iter().collect();
        let opts = SimulationOptions { seed };
        let (sharing, batching) = flex(knob);

        let build = |scheduler: &mut dyn Scheduler, faulted: bool| {
            let mut engine =
                SimEngine::new_multi(&pool, &spec, &svc_refs, &trace, scheduler, &opts);
            if faulted {
                // Empty process, empty placement table: every instance in
                // the single default global domain, zero materialized
                // events.
                engine = engine.with_faults(&FaultProcess::default(), &[]);
            }
            if let Some(options) = &sharing {
                engine = engine.with_sharing(options.clone());
            }
            if let Some(b) = &batching {
                engine = engine.with_batching(*b);
            }
            engine.run()
        };
        let plain = build(&mut FcfsScheduler::new(), false);
        let faulted = build(&mut FcfsScheduler::new(), true);

        // Bit-identical outputs: records, unfinished, horizon, billing,
        // and the full calendar/service accounting.
        prop_assert_eq!(&plain.records, &faulted.records);
        prop_assert_eq!(&plain.unfinished, &faulted.unfinished);
        prop_assert_eq!(plain.offered, faulted.offered);
        prop_assert_eq!(plain.horizon_us, faulted.horizon_us);
        prop_assert_eq!(&plain.qos_by_model, &faulted.qos_by_model);
        prop_assert_eq!(
            plain.billed_dollars.to_bits(),
            faulted.billed_dollars.to_bits()
        );
        prop_assert_eq!(plain.billed_by_model.len(), faulted.billed_by_model.len());
        for (a, b) in plain.billed_by_model.iter().zip(&faulted.billed_by_model) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(&plain.service, &faulted.service);
        prop_assert_eq!(plain.events_processed, faulted.events_processed);
        prop_assert_eq!(plain.preemption_notices, faulted.preemption_notices);
        prop_assert_eq!(plain.preempted_instances, faulted.preempted_instances);
        prop_assert_eq!(plain.requeued_queries, faulted.requeued_queries);
        // And the fault-side ledger stays empty.
        prop_assert_eq!(faulted.rejected_purchases, 0);
        prop_assert_eq!(faulted.straggler_onsets, 0);
        prop_assert!(faulted.outages.is_empty());

        // Shard transparency survives the (no-op) fault layer: the sharded
        // engine at every thread count still reproduces the same report.
        let mut sharded = ShardedEngine::new(&pool, &spec, &svc_refs, &opts);
        if let Some(options) = &sharing {
            sharded = sharded.with_sharing(options.clone());
        }
        if let Some(b) = &batching {
            sharded = sharded.with_batching(*b);
        }
        for threads in [1usize, 2, 4, 8] {
            let workers = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let report = workers.install(|| {
                sharded.run(&trace, |_| Box::new(FcfsScheduler::new()) as Box<dyn Scheduler>)
            });
            prop_assert_eq!(&faulted.records, &report.records);
            prop_assert_eq!(&faulted.unfinished, &report.unfinished);
            prop_assert_eq!(faulted.horizon_us, report.horizon_us);
            prop_assert_eq!(
                faulted.billed_dollars.to_bits(),
                report.billed_dollars.to_bits()
            );
            prop_assert_eq!(faulted.rejected_purchases, report.rejected_purchases);
            prop_assert_eq!(faulted.straggler_onsets, report.straggler_onsets);
            prop_assert_eq!(&faulted.outages, &report.outages);
        }
    }
}
