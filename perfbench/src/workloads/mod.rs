//! The benchmark's four workloads, each an open loop: its traces are
//! schedules generated up front from the seed, so the offered load never
//! waits on the system.
//!
//! Every workload provides an *episode* (set-up, then the timed phase, on
//! inputs drawn from an episode seed) that the runner cycles through, and a
//! traced pass that calls each layer from the outside to attribute the time.

pub mod burst_wnd;
pub mod capacity_plan;
pub mod fleet_mix;
pub mod replay_sharded;

use crate::layers::{RoundStats, Spans};
use crate::metrics::Layers;
use kairos_core::{KairosController, ServingOptions};
use kairos_models::{
    calibration::paper_calibration, ec2, latency::LatencyTable, ModelKind, PoolSpec,
};
use kairos_sim::SimReport;
use kairos_workload::Trace;
use std::time::Instant;

/// Returns `Err(message)` from the enclosing function unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($fmt:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($fmt)+));
        }
    };
}
pub(crate) use ensure;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Three-lane `InferenceService` at fleet budget: planner-bound.
    FleetMix,
    /// Single-lane `ServingSystem` through an overload burst: matcher-bound.
    BurstWnd,
    /// Five-lane FCFS replay through `ShardedEngine`: engine-bound.
    ReplaySharded,
    /// One-shot planning plus allowable-throughput ramps: prober-bound.
    CapacityPlan,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetMix,
        Workload::BurstWnd,
        Workload::ReplaySharded,
        Workload::CapacityPlan,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetMix => "fleet_mix",
            Workload::BurstWnd => "burst_wnd",
            Workload::ReplaySharded => "replay_sharded",
            Workload::CapacityPlan => "capacity_plan",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads: two for the sharded replay, whose lanes fan out, and
    /// one elsewhere.  On the two-core machine the benchmark is sized for,
    /// the planner's two-way ranking fan-out measured slower than one
    /// thread, and a single thread leaves a core to neighbouring load.
    pub fn threads(self) -> usize {
        match self {
            Workload::ReplaySharded => 2,
            _ => 1,
        }
    }

    /// Independent episodes per cycle.  One input's cost swings with its
    /// seed (queue depths under overload, which probes a ramp needs, which
    /// replans miss the plan cache), so a run times a fixed set of inputs
    /// drawn from its seed.
    pub fn episodes(self, scale: Scale) -> u64 {
        match (self, scale) {
            (_, Scale::Smoke) => 2,
            (Workload::FleetMix, Scale::Full) => 20,
            (Workload::BurstWnd, Scale::Full) => 12,
            (Workload::ReplaySharded, Scale::Full) => 1,
            (Workload::CapacityPlan, Scale::Full) => 48,
        }
    }

    /// Episode `k` of a run: its set-up and timed phase, with the outputs
    /// checked and added to `tally`.  Returns `(setup_s, wall_s)`.  `first`
    /// adds the checks too costly to repeat.
    pub fn episode(
        self,
        scale: Scale,
        seed: u64,
        k: u64,
        first: bool,
        tally: &mut Tally,
    ) -> Result<(f64, f64), String> {
        let seed = episode_seed(seed, k);
        match self {
            Workload::FleetMix => fleet_mix::episode(scale, seed, tally),
            Workload::BurstWnd => burst_wnd::episode(scale, seed, tally),
            Workload::ReplaySharded => replay_sharded::episode(scale, seed, first, tally),
            Workload::CapacityPlan => capacity_plan::episode(scale, seed, tally),
        }
    }

    /// The traced pass over the first episode: its set-up and timed phase
    /// with spans around every layer call, then the layer replays.
    /// `untraced_wall_s` is the median untraced timed phase of that episode;
    /// `trace.overhead_pct` compares the traced one against it.
    pub fn traced(
        self,
        scale: Scale,
        seed: u64,
        untraced_wall_s: f64,
        spans: &mut Spans,
    ) -> Result<Layers, String> {
        let seed = episode_seed(seed, 0);
        let mut layers = Layers::default();
        let (l, w) = (&mut layers, untraced_wall_s);
        let traced_wall_s = match self {
            Workload::FleetMix => fleet_mix::traced(scale, seed, w, spans, l)?,
            Workload::BurstWnd => burst_wnd::traced(scale, seed, w, spans, l)?,
            Workload::ReplaySharded => replay_sharded::traced(scale, seed, w, spans, l)?,
            Workload::CapacityPlan => capacity_plan::traced(scale, seed, spans, l)?,
        };
        layers.set(
            "trace.overhead_pct",
            (traced_wall_s - untraced_wall_s) / untraced_wall_s * 100.0,
        );
        Ok(layers)
    }
}

/// Input size: `Full` is the benchmark, `Smoke` a sub-second version of the
/// same flow for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Tiny inputs, same code path.
    Smoke,
}

/// The serving outcome of one cycle of episodes, over all its reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Queries offered.
    pub offered: usize,
    /// Share of offered queries completed within their model's QoS, in %.
    /// Unfinished queries count as missed.
    pub goodput_pct: f64,
    /// 99th percentile, over all completed queries, of each query's latency
    /// as a share of its model's QoS target, in %.  Models with targets from
    /// 5 to 350 ms share one scale this way.
    pub p99_qos_pct: f64,
    /// Billed dollars per simulated hour, summed over the reports.
    pub cost_per_hr: f64,
}

/// Running sums behind an [`Outcome`].
#[derive(Debug, Default)]
pub struct Tally {
    offered: usize,
    on_time: usize,
    cost_per_hr: f64,
    qos_shares: Vec<f64>,
}

impl Tally {
    /// Adds a checked report.
    pub fn add(&mut self, report: &SimReport) {
        self.offered += report.offered;
        for r in &report.records {
            let qos_us = report.qos_for(r.model);
            self.on_time += usize::from(r.within_qos(qos_us));
            self.qos_shares.push(r.latency_us() as f64 / qos_us as f64);
        }
        self.cost_per_hr += report.billed_cost_per_hour();
    }

    /// The outcome of everything added.
    pub fn outcome(mut self) -> Outcome {
        let p99 = match self.qos_shares.len() {
            0 => 0.0,
            n => {
                let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n) - 1;
                *self
                    .qos_shares
                    .select_nth_unstable_by(rank, f64::total_cmp)
                    .1
            }
        };
        Outcome {
            offered: self.offered,
            goodput_pct: 100.0 * self.on_time as f64 / self.offered.max(1) as f64,
            p99_qos_pct: 100.0 * p99,
            cost_per_hr: self.cost_per_hr,
        }
    }
}

/// The output checks every simulation report must pass.
pub fn check_report(report: &SimReport, offered: usize) -> Result<(), String> {
    let name = &report.scheduler;
    ensure!(
        report.offered == offered,
        "{name}: report offers {} queries, the trace {offered}",
        report.offered
    );
    ensure!(
        report.offered == report.completed() + report.unfinished.len(),
        "{name}: offered {} != completed {} + unfinished {}",
        report.offered,
        report.completed(),
        report.unfinished.len()
    );
    let s = &report.service;
    ensure!(
        s.calendar_stale_popped <= s.calendar_cancelled
            && s.calendar_cancelled <= s.calendar_scheduled,
        "{name}: calendar stale {} / cancelled {} / scheduled {} out of order",
        s.calendar_stale_popped,
        s.calendar_cancelled,
        s.calendar_scheduled
    );
    let per_model = report.per_model();
    let sum = |f: fn(&kairos_sim::ModelReport) -> usize| per_model.iter().map(f).sum::<usize>();
    ensure!(
        sum(|m| m.offered) == report.offered
            && sum(|m| m.completed) == report.completed()
            && sum(|m| m.unfinished) == report.unfinished.len()
            && sum(|m| m.violations) == report.violations(),
        "{name}: per-model sums differ from the aggregate"
    );
    ensure!(
        report.billed_dollars.is_finite() && report.billed_dollars >= 0.0,
        "{name}: billed dollars {} not finite and non-negative",
        report.billed_dollars
    );
    Ok(())
}

/// The paper's Table 4 instance pool.
fn paper_pool() -> PoolSpec {
    PoolSpec::new(ec2::paper_pool())
}

/// The ground-truth latency calibration.
fn latency() -> LatencyTable {
    paper_calibration()
}

/// Serving-loop options shared by the serve workloads: replan every 500 ms,
/// 300 ms to provision an instance.
fn serving_options(budget_per_hour: f64) -> ServingOptions {
    ServingOptions::default()
        .budget(budget_per_hour)
        .replan_every(500_000)
        .provisioning_delay(300_000)
}

/// The seed of episode `k` of a run.
fn episode_seed(seed: u64, k: u64) -> u64 {
    derive_seed(seed, 1_000 + k)
}

/// The seed of input stream `stream` of an episode, so no two inputs share
/// a random stream.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream)
}

/// Seconds since `started`.
fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// Records the scheduling-round metrics.
fn record_rounds(layers: &mut Layers, stats: &RoundStats) {
    let rounds = stats.round_ns.count();
    layers.set("sched.rounds", rounds as f64);
    layers.set("sched.busy_s", stats.busy_ns as f64 / 1e9);
    layers.set("sched.round_us_p50", stats.round_ns.quantile(0.50) / 1e3);
    layers.set("sched.round_us_p99", stats.round_ns.quantile(0.99) / 1e3);
    layers.set("sched.queue_p50", stats.queue.quantile(0.50));
    layers.set("sched.queue_p99", stats.queue.quantile(0.99));
    layers.set("sched.instances_p50", stats.instances.quantile(0.50));
    layers.set(
        "sched.dispatch_per_round",
        stats.dispatched as f64 / rounds.max(1) as f64,
    );
}

/// Records the engine metrics of a replay that took `replay_s` seconds, of
/// which `stats` were spent scheduling.
fn record_engine(layers: &mut Layers, reports: &[&SimReport], replay_s: f64, stats: &RoundStats) {
    let events: u64 = reports.iter().map(|r| r.events_processed).sum();
    layers.set("engine.events", events as f64);
    layers.set("engine.events_per_s", events as f64 / replay_s);
    layers.set("engine.self_s", replay_s - stats.busy_ns as f64 / 1e9);
    layers.set(
        "engine.calendar_scheduled",
        reports
            .iter()
            .map(|r| r.service.calendar_scheduled)
            .sum::<u64>() as f64,
    );
    layers.set(
        "engine.calendar_stale_popped",
        reports
            .iter()
            .map(|r| r.service.calendar_stale_popped)
            .sum::<u64>() as f64,
    );
}

/// Prices one plan-cache miss: `controller.plan(budget)` timed three times,
/// each in its own span.  Returns the configurations ranked and the median
/// seconds; the first call also pays page faults for the ranking that the
/// loop's plans, reusing freed memory, do not.
fn time_plan(
    spans: &mut Spans,
    parent: usize,
    model: ModelKind,
    controller: &KairosController,
    budget: f64,
) -> Result<(usize, f64), String> {
    let mut ranked = 0;
    let mut times = Vec::new();
    for _ in 0..3 {
        let (plan, plan_s) = spans.time(format!("planner.plan.{model}"), Some(parent), || {
            controller.plan(budget)
        });
        ranked = plan
            .ok_or_else(|| format!("{model}: the lane cannot plan"))?
            .ranked
            .len();
        times.push(plan_s);
    }
    Ok((ranked, crate::median(&times)))
}

/// Records the plan-cache counters and cold-plan costs of the serve
/// workloads.  `lanes` holds, per lane, `(hits, misses, cold plan seconds,
/// ranked configurations)`.
fn record_planner(layers: &mut Layers, lanes: &[(u64, u64, f64, usize)], plan_initial_s: f64) {
    let hits: u64 = lanes.iter().map(|l| l.0).sum();
    let misses: u64 = lanes.iter().map(|l| l.1).sum();
    let busy_s: f64 = lanes.iter().map(|l| l.1 as f64 * l.2).sum();
    let plan_s = if misses > 0 {
        busy_s / misses as f64
    } else {
        lanes.iter().map(|l| l.2).sum::<f64>() / lanes.len() as f64
    };
    layers.set("planner.cache_hits", hits as f64);
    layers.set("planner.cache_misses", misses as f64);
    layers.set(
        "planner.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set("planner.plan_ms", plan_s * 1e3);
    layers.set(
        "planner.ranked_configs",
        lanes.iter().map(|l| l.3).sum::<usize>() as f64,
    );
    layers.set("planner.est_busy_s", busy_s);
    layers.set("planner.plan_initial_s", plan_initial_s);
}

/// Times the controller calls the serving loop makes per event, replayed on
/// copies of the lanes' controllers: `knowledge_signature` (once per
/// replan) and `observe_query` / `observe_completion` (once per arrival and
/// completion).
fn record_controller(
    layers: &mut Layers,
    controllers: &[&KairosController],
    trace: &Trace,
    report: &SimReport,
    pool: &PoolSpec,
) {
    const SIGNATURES: u32 = 200;
    let started = Instant::now();
    for controller in controllers {
        for _ in 0..SIGNATURES {
            std::hint::black_box(controller.knowledge_signature());
        }
    }
    let signature_s = secs(started) / (SIGNATURES as usize * controllers.len()) as f64;
    layers.set("controller.signature_us", signature_s * 1e6);

    let mut copies: Vec<KairosController> = controllers.iter().map(|&c| c.clone()).collect();
    let calls = trace.len() + report.records.len();
    let started = Instant::now();
    for q in &trace.queries {
        copies[q.model.index()].observe_query(q.batch_size);
    }
    for r in &report.records {
        let service_ms = (r.completion_us - r.start_us) as f64 / 1000.0;
        let type_name = &pool.types()[r.type_index].name;
        copies[r.model.index()].observe_completion(type_name, r.batch_size, service_ms);
    }
    std::hint::black_box(&copies);
    layers.set(
        "controller.observe_ns",
        secs(started) / calls.max(1) as f64 * 1e9,
    );
}

/// Records the serving-loop metrics; the real-time factor is simulated
/// seconds over the untraced timed phase.
fn record_loop(
    layers: &mut Layers,
    replans: usize,
    reconfigs: usize,
    report: &SimReport,
    untraced_wall_s: f64,
) {
    layers.set("loop.replans", replans as f64);
    layers.set("loop.reconfigs", reconfigs as f64);
    layers.set("loop.events", report.events_processed as f64);
    layers.set(
        "loop.realtime_x",
        report.horizon_us as f64 / 1e6 / untraced_wall_s,
    );
}

/// Records the trace-generation metrics.
fn record_workload(layers: &mut Layers, trace: &Trace, generate_s: f64) {
    layers.set("workload.generate_s", generate_s);
    layers.set("workload.queries", trace.len() as f64);
}
