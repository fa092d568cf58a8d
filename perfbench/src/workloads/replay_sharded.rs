//! `replay_sharded`: engine, event calendar, trace split and report merge.
//!
//! The `fig_scale` five-model mix (fixed batch 8, every lane sized to its
//! offered rate on the base type with 35 % headroom) replayed under FCFS
//! through `ShardedEngine` on the run's worker pool.  The controller and
//! the Kairos matcher are bypassed; the NCF lane is the critical path.

use super::{
    check_report, derive_seed, ensure, latency, paper_pool, record_engine, record_rounds,
    record_workload, Scale, Tally,
};
use crate::layers::{SharedRounds, Spans, TimedScheduler};
use crate::metrics::Layers;
use kairos_models::{latency::LatencyTable, Config, ModelKind, PoolSpec};
use kairos_sim::{
    ClusterSpec, FcfsScheduler, Scheduler, ServiceSpec, ShardedEngine, SimEngine, SimReport,
    SimulationOptions,
};
use kairos_workload::{BatchSizeDistribution, MixSpec, MixedTraceSpec, Trace};
use std::time::Instant;

const MODELS: [ModelKind; 5] = [
    ModelKind::Ncf,
    ModelKind::Wnd,
    ModelKind::MtWnd,
    ModelKind::Dien,
    ModelKind::Rm2,
];
const SHARES: [f64; 5] = [0.55, 0.20, 0.13, 0.10, 0.02];
const BATCH: u32 = 8;
const HEADROOM: f64 = 1.35;

/// `(offered QPS, trace seconds)`.
fn size(scale: Scale) -> (f64, f64) {
    match scale {
        Scale::Full => (1_000_000.0, 2.0),
        Scale::Smoke => (40_000.0, 0.2),
    }
}

/// Each model's all-base-type sub-cluster, sized for its offered rate.
fn cluster(pool: &PoolSpec, latency: &LatencyTable, total_qps: f64) -> ClusterSpec {
    let base = pool.base_index();
    let base_name = &pool.types()[base].name;
    ClusterSpec::from_configs(
        MODELS
            .iter()
            .zip(&SHARES)
            .map(|(&kind, &share)| {
                let per_query_s = latency.expect(kind, base_name).latency_ms(BATCH) / 1000.0;
                let count = (share * total_qps * per_query_s * HEADROOM).ceil() as usize;
                let mut counts = vec![0; pool.num_types()];
                counts[base] = count.max(1);
                Config::new(counts)
            })
            .collect(),
    )
}

struct Setup {
    pool: PoolSpec,
    services: Vec<ServiceSpec>,
    spec: ClusterSpec,
    trace: Trace,
    options: SimulationOptions,
    generate_s: f64,
}

fn setup(scale: Scale, seed: u64, spans: &mut Spans, parent: usize) -> Setup {
    let (total_qps, duration_s) = size(scale);
    let pool = paper_pool();
    let latency = latency();
    let mix = MixSpec::from_shares(
        &SHARES,
        &vec![BatchSizeDistribution::Fixed(BATCH); MODELS.len()],
    );
    let spec = MixedTraceSpec::poisson(total_qps, mix, duration_s, seed);
    let (trace, generate_s) = spans.time("workload.generate", Some(parent), || spec.generate());
    Setup {
        spec: cluster(&pool, &latency, total_qps),
        services: MODELS
            .iter()
            .map(|&k| ServiceSpec::new(k, latency.clone()))
            .collect(),
        pool,
        trace,
        options: SimulationOptions {
            seed: derive_seed(seed, 1),
        },
        generate_s,
    }
}

fn fcfs() -> Box<dyn Scheduler> {
    Box::new(FcfsScheduler::new())
}

/// One untraced episode: returns its set-up and timed-phase seconds.  With
/// `first` it also replays the trace's first quarter second through both
/// engines, and the sharded report must match the combined one exactly.
pub fn episode(
    scale: Scale,
    seed: u64,
    first: bool,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let mut spans = Spans::default();
    let root = spans.open("replay_sharded", None);
    let started = Instant::now();
    let s = setup(scale, seed, &mut spans, root);
    let refs: Vec<&ServiceSpec> = s.services.iter().collect();
    let sharded = ShardedEngine::new(&s.pool, &s.spec, &refs, &s.options);
    let setup_s = super::secs(started);
    let started = Instant::now();
    let report = sharded.run(&s.trace, |_| fcfs());
    let wall_s = super::secs(started);
    check_report(&report, s.trace.len())?;
    if first {
        // The combined engine runs several times slower than the sharded
        // one; the whole trace would take half of a 20 s run.
        let prefix = Trace::from_queries(
            s.trace
                .queries
                .iter()
                .take_while(|q| q.arrival_us < 250_000)
                .cloned()
                .collect(),
        );
        let sharded = sharded.run(&prefix, |_| fcfs());
        let combined = SimEngine::new_multi(
            &s.pool,
            &s.spec,
            &refs,
            &prefix,
            &mut FcfsScheduler::new(),
            &s.options,
        )
        .run();
        ensure!(
            combined.records == sharded.records
                && combined.unfinished == sharded.unfinished
                && combined.events_processed == sharded.events_processed
                && combined.billed_dollars.to_bits() == sharded.billed_dollars.to_bits(),
            "replay_sharded: the sharded report differs from the combined engine's"
        );
    }
    tally.add(&report);
    Ok((setup_s, wall_s))
}

/// The traced pass; returns the traced timed phase in seconds.
pub fn traced(
    scale: Scale,
    seed: u64,
    untraced_wall_s: f64,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<f64, String> {
    let root = spans.open("replay_sharded", None);
    let s = setup(scale, seed, spans, root);
    let refs: Vec<&ServiceSpec> = s.services.iter().collect();
    let sharded = ShardedEngine::new(&s.pool, &s.spec, &refs, &s.options);
    let (report, wall_s) = spans.time("shard.run", Some(root), || {
        sharded.run(&s.trace, |_| fcfs())
    });
    check_report(&report, s.trace.len())?;
    drop(report);
    record_workload(layers, &s.trace, s.generate_s);

    // The sharded run's three stages, one at a time: split the trace, replay
    // each lane on its own single-slice engine, merge the lane reports.
    let (subs, split_s) = spans.time("shard.split", Some(root), || {
        s.trace.split_by_model(MODELS.len())
    });
    let stats = SharedRounds::default();
    let mut reports = Vec::new();
    let mut lane_s = Vec::new();
    for slice in &s.spec.pools {
        let shard = ClusterSpec::new(vec![slice.clone()]);
        let mut timed = TimedScheduler::new(fcfs(), stats.clone());
        let sub = &subs[slice.model.index()];
        let name = format!("shard.lane.{}", MODELS[slice.model.index()]);
        let (lane, secs) = spans.time(name, Some(root), || {
            SimEngine::new_multi(&s.pool, &shard, &refs, sub, &mut timed, &s.options).run()
        });
        check_report(&lane, sub.len())?;
        reports.push(lane);
        lane_s.push(secs);
    }
    let lane_sum: f64 = lane_s.iter().sum();
    record_rounds(layers, &stats.borrow());
    record_engine(
        layers,
        &reports.iter().collect::<Vec<_>>(),
        lane_sum,
        &stats.borrow(),
    );
    let (merged, merge_s) =
        spans.time("shard.merge", Some(root), || SimReport::merge_many(reports));
    let merged = merged.ok_or("replay_sharded: nothing to merge")?;
    ensure!(
        merged.offered == s.trace.len(),
        "replay_sharded: merged lanes offer {} queries, the trace {}",
        merged.offered,
        s.trace.len()
    );
    let workers = rayon::current_num_threads();
    layers.set("shard.split_s", split_s);
    layers.set(
        "shard.lane_s_max",
        lane_s.iter().copied().fold(0.0, f64::max),
    );
    layers.set("shard.lane_s_sum", lane_sum);
    layers.set("shard.merge_s", merge_s);
    layers.set(
        "shard.parallel_eff",
        lane_sum / (workers as f64 * untraced_wall_s),
    );
    spans.close(root);
    Ok(wall_s)
}
