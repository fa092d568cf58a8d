//! Property-based tests of the multi-model engine's accounting and of the
//! single-model compatibility contract.
//!
//! 1. **Per-model sums** — on random multi-model traces (1–3 models, random
//!    per-model rates/batches) against random multi-model cluster shapes,
//!    the [`SimReport::per_model`] breakdown's `offered`, `completed`,
//!    `unfinished` and `violations` columns sum **exactly** to the
//!    aggregate report, per-model violations are judged against each
//!    model's own QoS target, and every completion was served by an
//!    instance bound to its model (the engine's dispatch validation).
//! 2. **Single-model bit-identity** — a single-model trace driven through
//!    the multi-model constructor ([`SimEngine::new_multi`] with one
//!    service) produces a report bit-identical to the classic
//!    [`SimEngine::new`] path and to the preserved naive reference, so the
//!    multi-model redesign cannot perturb PR 3's reports.
//! 3. **Shard transparency** — on the same random multi-model cases, the
//!    [`ShardedEngine`] (one engine per model lane, merged through
//!    [`SimReport::merge_many`](kairos_sim::SimReport::merge_many))
//!    reproduces the combined engine's report bit-for-bit — every field,
//!    f64s compared by bit pattern — under rayon pools of 1, 2, 4 and 8
//!    threads.

use kairos_models::{calibration::paper_calibration, ec2, Config, ModelKind, PoolSpec};
use kairos_sim::{
    run_trace, run_trace_naive, ClusterSpec, FcfsScheduler, Scheduler, ServiceSpec, ShardedEngine,
    SimEngine, SimulationOptions,
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

/// One full random case: model count, tagged trace, cluster spec, seed.
fn multi_case() -> impl Strategy<Value = (usize, Trace, ClusterSpec, u64)> {
    (1usize..=3).prop_flat_map(|n| (Just(n), multi_trace(n), multi_spec(n), 0u64..1_000))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn per_model_breakdown_sums_exactly_to_the_aggregate_report(
        case in multi_case(),
    ) {
        let (num_models, trace, spec, seed) = case;
        let pool = PoolSpec::new(ec2::paper_pool());
        let svc = services(num_models);
        let svc_refs: Vec<&ServiceSpec> = svc.iter().collect();
        let opts = SimulationOptions { seed };
        let mut scheduler = FcfsScheduler::new();
        let report = SimEngine::new_multi(&pool, &spec, &svc_refs, &trace, &mut scheduler, &opts)
            .run();

        // The QoS table carries each model's own target.
        for (m, s) in svc.iter().enumerate() {
            prop_assert_eq!(report.qos_for(ModelId::new(m)), s.qos_us());
        }

        let per = report.per_model();
        prop_assert_eq!(per.iter().map(|m| m.offered).sum::<usize>(), report.offered);
        prop_assert_eq!(per.iter().map(|m| m.completed).sum::<usize>(), report.completed());
        prop_assert_eq!(
            per.iter().map(|m| m.unfinished).sum::<usize>(),
            report.unfinished.len()
        );
        prop_assert_eq!(
            per.iter().map(|m| m.violations).sum::<usize>(),
            report.violations()
        );
        prop_assert_eq!(report.completed() + report.unfinished.len(), report.offered);

        // Per-model violations recomputed from raw records against each
        // model's own QoS match the breakdown.
        for row in &per {
            let recomputed = report
                .records
                .iter()
                .filter(|r| r.model == row.model)
                .filter(|r| !r.within_qos(report.qos_for(row.model)))
                .count()
                + report
                    .unfinished
                    .iter()
                    .filter(|u| u.model == row.model)
                    .filter(|u| {
                        report.horizon_us.saturating_sub(u.arrival_us)
                            > report.qos_for(row.model)
                    })
                    .count();
            prop_assert_eq!(row.violations, recomputed);
        }

        // Model binding was enforced: every completion ran on an instance of
        // the query's model (instances are laid out per spec slice).
        let mut owner = Vec::new();
        for slice in &spec.pools {
            for _ in 0..slice.config.total_instances() {
                owner.push(slice.model);
            }
        }
        for r in &report.records {
            prop_assert!(r.instance_index < owner.len());
            prop_assert_eq!(owner[r.instance_index], r.model);
        }
    }

    #[test]
    fn single_model_runs_are_bit_identical_across_all_three_paths(
        rate in 50.0f64..900.0,
        duration in 1u64..=2,
        seed in 0u64..500,
    ) {
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let trace = TraceSpec::production(rate, duration as f64, seed).generate();
        let config = Config::new(vec![1, 1, 2, 0]);
        let opts = SimulationOptions { seed };

        let classic = run_trace(
            &pool, &config, &service, &trace, &mut FcfsScheduler::new(), &opts,
        );
        let spec = ClusterSpec::single(config.clone());
        let mut scheduler = FcfsScheduler::new();
        let multi = SimEngine::new_multi(
            &pool, &spec, &[&service], &trace, &mut scheduler, &opts,
        )
        .run();
        let naive = run_trace_naive(
            &pool, &config, &service, &trace, &mut FcfsScheduler::new(), &opts,
        );

        prop_assert_eq!(&classic.records, &multi.records);
        prop_assert_eq!(&classic.unfinished, &multi.unfinished);
        prop_assert_eq!(classic.horizon_us, multi.horizon_us);
        prop_assert_eq!(&classic.qos_by_model, &multi.qos_by_model);
        prop_assert_eq!(&classic.records, &naive.records);
        prop_assert_eq!(&classic.unfinished, &naive.unfinished);
        prop_assert_eq!(classic.horizon_us, naive.horizon_us);

        // A single-model report's breakdown is the aggregate itself.
        let per = multi.per_model();
        prop_assert_eq!(per.len(), 1);
        prop_assert_eq!(per[0].offered, multi.offered);
        prop_assert_eq!(per[0].violations, multi.violations());
    }

    #[test]
    fn sharded_engine_is_bit_identical_at_every_thread_count(
        case in multi_case(),
    ) {
        let (num_models, trace, spec, seed) = case;
        let pool = PoolSpec::new(ec2::paper_pool());
        let svc = services(num_models);
        let svc_refs: Vec<&ServiceSpec> = svc.iter().collect();
        let opts = SimulationOptions { seed };
        let mut scheduler = FcfsScheduler::new();
        let combined =
            SimEngine::new_multi(&pool, &spec, &svc_refs, &trace, &mut scheduler, &opts).run();

        let sharded = ShardedEngine::new(&pool, &spec, &svc_refs, &opts);
        for threads in [1usize, 2, 4, 8] {
            let workers = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let report = workers.install(|| {
                sharded.run(&trace, |_| Box::new(FcfsScheduler::new()) as Box<dyn Scheduler>)
            });
            prop_assert_eq!(&combined.scheduler, &report.scheduler);
            prop_assert_eq!(&combined.records, &report.records);
            prop_assert_eq!(&combined.unfinished, &report.unfinished);
            prop_assert_eq!(combined.offered, report.offered);
            prop_assert_eq!(combined.horizon_us, report.horizon_us);
            prop_assert_eq!(combined.qos_us, report.qos_us);
            prop_assert_eq!(&combined.qos_by_model, &report.qos_by_model);
            prop_assert_eq!(
                combined.billed_dollars.to_bits(),
                report.billed_dollars.to_bits()
            );
            prop_assert_eq!(
                combined.billed_by_model.len(),
                report.billed_by_model.len()
            );
            for (a, b) in combined.billed_by_model.iter().zip(&report.billed_by_model) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(combined.events_processed, report.events_processed);
            prop_assert_eq!(combined.preemption_notices, report.preemption_notices);
            prop_assert_eq!(combined.preempted_instances, report.preempted_instances);
            prop_assert_eq!(combined.requeued_queries, report.requeued_queries);
        }
    }
}
