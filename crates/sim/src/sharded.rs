//! Sharded multi-model simulation: one [`SimEngine`] per model lane, fanned
//! out over rayon workers, merged back into one bit-identical report.
//!
//! # Why the model lane is the shard boundary
//!
//! A multi-model [`ClusterSpec`] binds disjoint
//! sub-clusters to models, the engine rejects cross-model dispatches, and a
//! work-conserving idle-dispatch policy (FCFS) leaves no
//! (queued query, idle instance) pair of any model unmatched after a
//! scheduling round.  Under those rules lane `m`'s state — its queued
//! queries, its instances, its completions — can only change at lane-`m`
//! events: the combined engine's extra scheduler consultations at *other*
//! lanes' events are provable no-ops for lane `m`.  So replaying each lane's
//! sub-trace against its own sub-cluster on its own worker visits exactly
//! the per-lane event sequence of the combined run, and the merged report is
//! **bit-identical** to [`SimEngine::new_multi`] regardless of thread count
//! or shard order (pinned by `tests/proptest_multimodel.rs`).
//!
//! Three engine-side invariants make the merge exact:
//!
//! * **Per-model RNG streams** ([`model_stream_seed`](crate::engine::model_stream_seed)) —
//!   service-time noise for lane `m` is drawn from stream `m` in both the
//!   combined and the sharded run.
//! * **Canonical report order** — multi-model reports sort records and
//!   unfinished queries by a total key, so same-microsecond ties across
//!   lanes land identically however the lanes interleaved.
//! * **Per-model billing partials** ([`SimReport::billed_by_model`]) —
//!   shards bill disjoint model slots and the total is re-derived as a fold,
//!   sidestepping f64 re-association entirely.
//!
//! Policies that dispatch into *busy* instances' local queues (Clockwork-
//! style latency matching) do not carry the no-op guarantee — their
//! decisions can depend on when the scheduler was consulted — so the
//! sharded path takes a per-lane scheduler factory and leaves such policies
//! to the combined engine.  Cross-shard work stealing is likewise out of
//! scope: migrating a query between lanes would violate the model binding
//! the dispatch validation enforces (see DESIGN.md).
//!
//! # Placement: workers pull lanes
//!
//! Lane sizes are far from even — in the `fig_scale` mix one lane carries
//! 55 % of the queries — so the replay's wall time is set by how the lanes
//! land on workers.  The rayon fan-out hands each worker its next lane from
//! a shared cursor, in spec order, rather than one pre-cut contiguous chunk
//! of lanes per worker.  With the largest lane listed first (as in every
//! mix the benchmarks replay) it starts at once on its own worker and the
//! smaller ones follow one another on the rest, so on two workers the wall
//! time is about `max(largest lane, sum of the others)` rather than the sum
//! of whichever contiguous run of lanes one worker was handed.  Outcomes
//! come back in spec order, so the report does not depend on the placement.
//!
//! Markets are not supported: price steps and preemption storms are global
//! events that couple every lane's billing and kill schedule.  Fault
//! processes ([`SimEngine::with_faults`]) are excluded for the same reason —
//! a zone outage or capacity shortage spans every lane placed in the domain.

use crate::cluster::{ClusterSpec, ModelPool, ServiceSpec};
use crate::engine::{SimEngine, SimulationOptions};
use crate::flex::{BatchingOptions, SharingOptions};
use crate::scheduler::Scheduler;
use crate::stats::SimReport;
use kairos_models::market::billed_dollars;
use kairos_models::PoolSpec;
use kairos_workload::{ModelId, Trace};
use rayon::prelude::*;

/// A multi-model simulation partitioned into per-model-lane shards, each
/// replayed on its own rayon worker and merged through
/// [`SimReport::merge_many`].
///
/// ```
/// use kairos_models::{calibration::paper_calibration, ec2, Config, ModelKind, PoolSpec};
/// use kairos_sim::{ClusterSpec, FcfsScheduler, ServiceSpec, ShardedEngine, SimulationOptions};
/// use kairos_workload::{BatchSizeDistribution, MixSpec, MixedTraceSpec};
///
/// let pool = PoolSpec::new(ec2::paper_pool());
/// let services = [
///     ServiceSpec::new(ModelKind::Ncf, paper_calibration()),
///     ServiceSpec::new(ModelKind::Wnd, paper_calibration()),
/// ];
/// let svc_refs: Vec<&ServiceSpec> = services.iter().collect();
/// let spec = ClusterSpec::from_configs(vec![
///     Config::new(vec![1, 0, 0, 0]),
///     Config::new(vec![1, 0, 1, 0]),
/// ]);
/// let mix = MixSpec::from_shares(
///     &[0.5, 0.5],
///     &[BatchSizeDistribution::Fixed(8), BatchSizeDistribution::Fixed(8)],
/// );
/// let trace = MixedTraceSpec::poisson(80.0, mix, 1.0, 7).generate();
/// let sharded = ShardedEngine::new(&pool, &spec, &svc_refs, &SimulationOptions::default());
/// let report = sharded.run(&trace, |_| Box::new(FcfsScheduler::new()));
/// assert_eq!(report.offered, trace.len());
/// ```
pub struct ShardedEngine<'a> {
    pool: &'a PoolSpec,
    spec: &'a ClusterSpec,
    services: Vec<&'a ServiceSpec>,
    options: SimulationOptions,
    sharing: Option<SharingOptions>,
    batching: Option<BatchingOptions>,
}

/// One shard's inputs: the lane's single-slice pool, its sub-trace, and its
/// offset into the combined model-major instance index space.
struct ShardJob<'s> {
    slice: &'s ModelPool,
    sub: Trace,
    offset: usize,
}

impl<'a> ShardedEngine<'a> {
    /// Builds a sharded engine over the same inputs as
    /// [`SimEngine::new_multi`] (minus the trace and scheduler, which are
    /// per-run / per-shard).
    ///
    /// # Panics
    /// Panics if a spec slice binds a model with no entry in `services`.
    pub fn new(
        pool: &'a PoolSpec,
        spec: &'a ClusterSpec,
        services: &[&'a ServiceSpec],
        options: &SimulationOptions,
    ) -> Self {
        assert!(
            spec.model_table_len() <= services.len(),
            "cluster spec binds model {} but only {} services are given",
            spec.model_table_len() - 1,
            services.len()
        );
        Self {
            pool,
            spec,
            services: services.to_vec(),
            options: *options,
            sharing: None,
            batching: None,
        }
    }

    /// Enables fair throughput sharing on every shard engine (see
    /// [`SimEngine::with_sharing`]).  Sharing state is strictly
    /// per-instance and lanes own disjoint instances, so the
    /// combined-vs-sharded bit-identity argument in the module docs carries
    /// over unchanged (pinned by `tests/proptest_flex.rs`).
    #[must_use]
    pub fn with_sharing(mut self, options: SharingOptions) -> Self {
        self.sharing = Some(options);
        self
    }

    /// Enables the per-instance dynamic batcher on every shard engine (see
    /// [`SimEngine::with_batching`]).
    #[must_use]
    pub fn with_batching(mut self, options: BatchingOptions) -> Self {
        self.batching = Some(options);
        self
    }

    /// Replays `trace` sharded by model lane, one engine per
    /// [`ModelPool`] slice (`make_scheduler(m)` supplies each lane's policy
    /// — a fresh FCFS-style work-conserving idle-dispatch scheduler per
    /// shard), and returns the merged report.  Each rayon worker pulls the
    /// next lane in spec order when it finishes one (see the module docs).
    /// Each lane remaps its records into the combined instance index space
    /// on its own worker; the serial tail re-bills the slices and merges.
    /// Thread count is governed by the ambient rayon pool
    /// (`ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(..)`
    /// to pin it); the result is bit-identical at every thread count.
    ///
    /// Models that appear in the trace without a cluster slice are replayed
    /// as queue-only shards (every query unfinished), exactly as the
    /// combined engine leaves them.
    ///
    /// # Panics
    /// Panics if a trace query's model has no entry in `services`.
    pub fn run<F>(&self, trace: &Trace, make_scheduler: F) -> SimReport
    where
        F: Fn(ModelId) -> Box<dyn Scheduler> + Sync,
    {
        let n = self.services.len();
        let mut subs = trace.split_by_model(n);
        let empty_trace = || Trace {
            spec: None,
            queries: Vec::new(),
        };

        let mut jobs: Vec<ShardJob> = Vec::with_capacity(self.spec.pools.len());
        let mut has_slice = vec![false; n];
        let mut offset = 0usize;
        for slice in &self.spec.pools {
            let m = slice.model.index();
            has_slice[m] = true;
            jobs.push(ShardJob {
                slice,
                sub: std::mem::replace(&mut subs[m], empty_trace()),
                offset,
            });
            offset += slice.config.total_instances();
        }

        // Fan out: one allocation-free hot loop per lane, on whichever
        // worker pulls it.  Each shard engine gets the full service table,
        // so model bindings, QoS tables and RNG streams stay index-aligned
        // with the combined engine.  Jobs are consumed so each lane's
        // sub-trace is freed the moment its replay finishes — on
        // multi-gigabyte runs that memory is recycled by the lanes still
        // running — and each lane remaps its records into the combined
        // model-major instance layout on its own worker.
        let outcomes: Vec<SimReport> = jobs
            .par_iter_mut()
            .map(|job| {
                let sub = std::mem::replace(&mut job.sub, empty_trace());
                let shard_spec = ClusterSpec::new(vec![job.slice.clone()]);
                let mut scheduler = make_scheduler(job.slice.model);
                let mut engine = SimEngine::new_multi(
                    self.pool,
                    &shard_spec,
                    &self.services,
                    &sub,
                    scheduler.as_mut(),
                    &self.options,
                );
                if let Some(options) = &self.sharing {
                    engine = engine.with_sharing(options.clone());
                }
                if let Some(options) = self.batching {
                    engine = engine.with_batching(options);
                }
                let mut report = engine.run();
                drop(sub);
                if job.offset != 0 {
                    for record in &mut report.records {
                        record.instance_index += job.offset;
                    }
                }
                report
            })
            .collect();

        // The global horizon: the latest event of any shard, clamped to the
        // full trace span (a sliceless model's trailing arrival is an event
        // of the combined run too).
        let mut horizon_us = trace.duration_us();
        for report in &outcomes {
            horizon_us = horizon_us.max(report.horizon_us);
        }
        for (m, sub) in subs.iter().enumerate() {
            if !has_slice[m] {
                horizon_us = horizon_us.max(sub.duration_us());
            }
        }

        // Finalize each shard against the global horizon: re-bill its slice
        // through the merged horizon — the exact per-instance constant-price
        // integral, accumulated in the exact index order, that the combined
        // engine's settlement loop performs at *its* report time.
        let mut shards: Vec<SimReport> = Vec::with_capacity(outcomes.len() + n);
        for (slice, mut report) in self.spec.pools.iter().zip(outcomes) {
            report.horizon_us = horizon_us;
            let mut billed_by_model = vec![0.0; n];
            let mut partial = 0.0;
            for (type_index, &count) in slice.config.counts().iter().enumerate() {
                for _ in 0..count {
                    partial += billed_dollars(self.pool.price(type_index), 0, horizon_us);
                }
            }
            billed_by_model[slice.model.index()] = partial;
            report.billed_dollars = billed_by_model.iter().fold(0.0, |acc, &b| acc + b);
            report.billed_by_model = billed_by_model;
            shards.push(report);
        }

        // Queue-only shards for models with traffic but no instances: every
        // query stays unfinished, just as in the combined engine.
        for (m, sub) in subs.iter().enumerate() {
            if has_slice[m] || sub.is_empty() {
                continue;
            }
            shards.push(SimReport {
                scheduler: make_scheduler(ModelId::new(m)).name().to_string(),
                records: Vec::new(),
                unfinished: sub
                    .queries
                    .iter()
                    .map(|q| crate::stats::UnfinishedQuery {
                        id: q.id,
                        model: q.model,
                        batch_size: q.batch_size,
                        arrival_us: q.arrival_us,
                    })
                    .collect(),
                offered: sub.len(),
                horizon_us,
                qos_us: self.services[0].qos_us(),
                qos_by_model: self.services.iter().map(|s| s.qos_us()).collect(),
                billed_dollars: 0.0,
                billed_by_model: vec![0.0; n],
                accuracy_sum_by_model: vec![0.0; n],
                events_processed: sub.len() as u64,
                preemption_notices: 0,
                preempted_instances: 0,
                requeued_queries: 0,
                rejected_purchases: 0,
                straggler_onsets: 0,
                outages: Vec::new(),
                service: crate::stats::ServiceStats::default(),
            });
        }

        // Release the sliceless sub-traces before the merge allocates its
        // output, then one k-way pass over every shard.
        drop(subs);
        SimReport::merge_many(shards).expect("a cluster spec has at least one slice")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FcfsScheduler;
    use kairos_models::{calibration::paper_calibration, ec2, Config, ModelKind};
    use kairos_workload::{BatchSizeDistribution, MixSpec, MixedTraceSpec, Query};

    fn services() -> Vec<ServiceSpec> {
        [ModelKind::Ncf, ModelKind::Wnd, ModelKind::Rm2]
            .iter()
            .map(|&k| ServiceSpec::new(k, paper_calibration()))
            .collect()
    }

    fn fcfs(_: ModelId) -> Box<dyn Scheduler> {
        Box::new(FcfsScheduler::new())
    }

    /// Field-wise bit-equality against the combined engine.
    fn assert_matches_combined(spec: &ClusterSpec, trace: &Trace, seed: u64) {
        let pool = PoolSpec::new(ec2::paper_pool());
        let svc = services();
        let svc_refs: Vec<&ServiceSpec> = svc.iter().collect();
        let opts = SimulationOptions { seed };
        let mut scheduler = FcfsScheduler::new();
        let combined =
            SimEngine::new_multi(&pool, spec, &svc_refs, trace, &mut scheduler, &opts).run();
        let sharded = ShardedEngine::new(&pool, spec, &svc_refs, &opts).run(trace, fcfs);
        assert_same_report(&combined, &sharded);
    }

    fn assert_same_report(combined: &SimReport, sharded: &SimReport) {
        assert_eq!(combined.scheduler, sharded.scheduler);
        assert_eq!(combined.records, sharded.records);
        assert_eq!(combined.unfinished, sharded.unfinished);
        assert_eq!(combined.offered, sharded.offered);
        assert_eq!(combined.horizon_us, sharded.horizon_us);
        assert_eq!(combined.qos_us, sharded.qos_us);
        assert_eq!(combined.qos_by_model, sharded.qos_by_model);
        assert_eq!(
            combined.billed_dollars.to_bits(),
            sharded.billed_dollars.to_bits()
        );
        assert_eq!(
            combined.billed_by_model.len(),
            sharded.billed_by_model.len()
        );
        for (a, b) in combined
            .billed_by_model
            .iter()
            .zip(&sharded.billed_by_model)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(combined.events_processed, sharded.events_processed);
        assert_eq!(combined.service, sharded.service);
    }

    fn flex_knobs() -> (SharingOptions, BatchingOptions) {
        use kairos_models::ThroughputDegradation;
        (
            SharingOptions::uniform(ThroughputDegradation::try_new_linear(0.1).unwrap())
                .with_max_concurrency(4),
            BatchingOptions::new(256, 2_000),
        )
    }

    #[test]
    fn sharded_flex_run_matches_the_combined_engine_bit_for_bit() {
        let mix = MixSpec::from_shares(
            &[0.4, 0.35, 0.25],
            &[
                BatchSizeDistribution::production_default(),
                BatchSizeDistribution::gaussian_default(),
                BatchSizeDistribution::Fixed(64),
            ],
        );
        let trace = MixedTraceSpec::poisson(500.0, mix, 2.0, 13).generate();
        let spec = ClusterSpec::from_configs(vec![
            Config::new(vec![1, 0, 1, 0]),
            Config::new(vec![2, 0, 0, 0]),
            Config::new(vec![1, 1, 1, 1]),
        ]);
        let pool = PoolSpec::new(ec2::paper_pool());
        let svc = services();
        let svc_refs: Vec<&ServiceSpec> = svc.iter().collect();
        let opts = SimulationOptions { seed: 13 };
        let (sharing, batching) = flex_knobs();
        let mut scheduler = FcfsScheduler::new();
        let combined = SimEngine::new_multi(&pool, &spec, &svc_refs, &trace, &mut scheduler, &opts)
            .with_sharing(sharing.clone())
            .with_batching(batching)
            .run();
        let sharded = ShardedEngine::new(&pool, &spec, &svc_refs, &opts)
            .with_sharing(sharing)
            .with_batching(batching)
            .run(&trace, fcfs);
        assert_eq!(combined.records, sharded.records);
        assert_eq!(combined.unfinished, sharded.unfinished);
        assert_eq!(combined.horizon_us, sharded.horizon_us);
        assert_eq!(
            combined.billed_dollars.to_bits(),
            sharded.billed_dollars.to_bits()
        );
        assert_eq!(combined.events_processed, sharded.events_processed);
        assert_eq!(combined.service, sharded.service);
        assert!(
            combined.service.batches_fired > 0,
            "the batcher must engage"
        );
    }

    #[test]
    fn thread_count_does_not_change_the_flex_report() {
        let mix = MixSpec::from_shares(
            &[0.5, 0.3, 0.2],
            &[
                BatchSizeDistribution::Fixed(8),
                BatchSizeDistribution::Fixed(32),
                BatchSizeDistribution::Fixed(128),
            ],
        );
        let trace = MixedTraceSpec::poisson(600.0, mix, 1.0, 17).generate();
        let spec = ClusterSpec::from_configs(vec![
            Config::new(vec![1, 0, 0, 0]),
            Config::new(vec![1, 0, 1, 0]),
            Config::new(vec![1, 0, 0, 1]),
        ]);
        let pool = PoolSpec::new(ec2::paper_pool());
        let svc = services();
        let svc_refs: Vec<&ServiceSpec> = svc.iter().collect();
        let opts = SimulationOptions { seed: 17 };
        let (sharing, batching) = flex_knobs();
        let sharded = ShardedEngine::new(&pool, &spec, &svc_refs, &opts)
            .with_sharing(sharing)
            .with_batching(batching);
        let reference = sharded.run(&trace, fcfs);
        assert!(
            reference.service.batches_fired > 0,
            "the batcher must engage"
        );
        for threads in [1usize, 2, 4, 8] {
            let pool_n = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let report = pool_n.install(|| sharded.run(&trace, fcfs));
            assert_eq!(reference.records, report.records);
            assert_eq!(reference.unfinished, report.unfinished);
            assert_eq!(reference.horizon_us, report.horizon_us);
            assert_eq!(
                reference.billed_dollars.to_bits(),
                report.billed_dollars.to_bits()
            );
            assert_eq!(reference.events_processed, report.events_processed);
            assert_eq!(reference.service, report.service);
        }
    }

    #[test]
    fn sharded_run_matches_the_combined_engine_bit_for_bit() {
        let mix = MixSpec::from_shares(
            &[0.4, 0.35, 0.25],
            &[
                BatchSizeDistribution::production_default(),
                BatchSizeDistribution::gaussian_default(),
                BatchSizeDistribution::Fixed(64),
            ],
        );
        let trace = MixedTraceSpec::poisson(400.0, mix, 2.0, 11).generate();
        let spec = ClusterSpec::from_configs(vec![
            Config::new(vec![1, 0, 1, 0]),
            Config::new(vec![2, 0, 0, 0]),
            Config::new(vec![1, 1, 1, 1]),
        ]);
        assert_matches_combined(&spec, &trace, 11);
    }

    #[test]
    fn a_dominant_lane_replays_exactly_at_every_worker_count() {
        // NCF carries 85 % of the queries and sits last in the spec: its
        // records take the largest instance-index offset, and on two or
        // three workers it is pulled while a small lane is still running.
        let mix = MixSpec::from_shares(
            &[0.85, 0.1, 0.05],
            &[
                BatchSizeDistribution::Fixed(8),
                BatchSizeDistribution::Fixed(16),
                BatchSizeDistribution::Fixed(32),
            ],
        );
        let trace = MixedTraceSpec::poisson(800.0, mix, 1.0, 23).generate();
        let spec = ClusterSpec::new(vec![
            ModelPool {
                model: ModelId::new(1),
                config: Config::new(vec![1, 0, 1, 0]),
            },
            ModelPool {
                model: ModelId::new(2),
                config: Config::new(vec![1, 0, 0, 1]),
            },
            ModelPool {
                model: ModelId::new(0),
                config: Config::new(vec![2, 0, 1, 0]),
            },
        ]);
        let split = trace.split_by_model(3);
        assert!(split[0].len() > split[1].len() + split[2].len());
        let pool = PoolSpec::new(ec2::paper_pool());
        let svc = services();
        let svc_refs: Vec<&ServiceSpec> = svc.iter().collect();
        let opts = SimulationOptions { seed: 23 };
        let mut scheduler = FcfsScheduler::new();
        let combined =
            SimEngine::new_multi(&pool, &spec, &svc_refs, &trace, &mut scheduler, &opts).run();
        let sharded = ShardedEngine::new(&pool, &spec, &svc_refs, &opts);
        for threads in [1usize, 2, 3] {
            let workers = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let report = workers.install(|| sharded.run(&trace, fcfs));
            assert_same_report(&combined, &report);
        }
    }

    #[test]
    fn models_without_instances_surface_as_unfinished_exactly_like_the_combined_run() {
        // Model 2 has traffic but no slice: every one of its queries must be
        // reported unfinished with the combined engine's horizon.
        let queries = vec![
            Query::for_model(0, ModelId::new(0), 8, 1_000),
            Query::for_model(1, ModelId::new(2), 4, 2_000),
            Query::for_model(2, ModelId::new(0), 8, 3_000),
            Query::for_model(3, ModelId::new(2), 2, 9_000_000),
        ];
        let trace = Trace::from_queries(queries);
        let spec = ClusterSpec::new(vec![ModelPool {
            model: ModelId::new(0),
            config: Config::new(vec![1, 0, 0, 0]),
        }]);
        assert_matches_combined(&spec, &trace, 3);
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let mix = MixSpec::from_shares(
            &[0.5, 0.3, 0.2],
            &[
                BatchSizeDistribution::Fixed(8),
                BatchSizeDistribution::Fixed(32),
                BatchSizeDistribution::Fixed(128),
            ],
        );
        let trace = MixedTraceSpec::poisson(300.0, mix, 1.0, 5).generate();
        let spec = ClusterSpec::from_configs(vec![
            Config::new(vec![1, 0, 0, 0]),
            Config::new(vec![1, 0, 1, 0]),
            Config::new(vec![1, 0, 0, 1]),
        ]);
        let pool = PoolSpec::new(ec2::paper_pool());
        let svc = services();
        let svc_refs: Vec<&ServiceSpec> = svc.iter().collect();
        let opts = SimulationOptions { seed: 5 };
        let sharded = ShardedEngine::new(&pool, &spec, &svc_refs, &opts);
        let reference = sharded.run(&trace, fcfs);
        for threads in [1usize, 2, 4, 8] {
            let pool_n = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let report = pool_n.install(|| sharded.run(&trace, fcfs));
            assert_eq!(reference.records, report.records);
            assert_eq!(reference.unfinished, report.unfinished);
            assert_eq!(reference.horizon_us, report.horizon_us);
            assert_eq!(
                reference.billed_dollars.to_bits(),
                report.billed_dollars.to_bits()
            );
            assert_eq!(reference.events_processed, report.events_processed);
        }
    }
}
