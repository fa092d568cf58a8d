//! `capacity_plan`: the paper's evaluation flow (Sec. 8.1).
//!
//! For each of the five models at the paper's 2.5 $/hr budget: plan with
//! `KairosPlanner::plan` (set-up), then ramp `allowable_throughput` of the
//! chosen configuration under Kairos and of the best homogeneous
//! configuration under FCFS (the timed phase), with 1 s Poisson probes and
//! four bisection steps.  The planner runs once per model at a fixed
//! budget; the capacity prober, its early-exit probes and the Kairos round
//! inside them do the work.

use super::{check_report, derive_seed, ensure, latency, paper_pool, Scale, Tally};
use crate::layers::{Histogram, SharedRounds, Spans, TimedScheduler};
use crate::metrics::Layers;
use kairos_core::{KairosPlanner, KairosScheduler, Plan};
use kairos_models::{best_homogeneous, latency::LatencyTable, Config, ModelKind, PoolSpec};
use kairos_sim::{
    allowable_throughput, run_trace, CapacityOptions, CapacityResult, FcfsScheduler, Scheduler,
    ServiceSpec, SimReport, SimulationOptions,
};
use kairos_workload::{BatchSizeDistribution, TraceSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const BUDGET: f64 = 2.5;
/// Batch-size draws the planner's upper bound is parameterised with.
const SAMPLE: usize = 4_000;

/// The paper's Gaussian batch mix (Fig. 16a).  Under the production mix
/// about 2 % of queries sit near the 1000-request cap; in a 1 s probe at the
/// 2 QPS floor one of them decides the verdict alone, and on some seeds the
/// MT-WND ramp under Kairos then reports no capacity at all.
fn batch_mix() -> BatchSizeDistribution {
    BatchSizeDistribution::gaussian_default()
}

/// Probe length and bisection steps, set here rather than inherited.
fn capacity_options(scale: Scale, seed: u64) -> CapacityOptions {
    let mut options = CapacityOptions::with_seed(derive_seed(seed, 2));
    options.batch_sizes = batch_mix();
    (options.duration_s, options.refine_steps) = match scale {
        Scale::Full => (1.0, 4),
        Scale::Smoke => (0.2, 1),
    };
    options
}

struct Setup {
    pool: PoolSpec,
    latency: LatencyTable,
    services: Vec<ServiceSpec>,
    plans: Vec<Plan>,
    /// Seconds each model's plan took.
    plan_s: Vec<f64>,
    homogeneous: Config,
    options: CapacityOptions,
}

fn setup(scale: Scale, seed: u64, spans: &mut Spans, parent: usize) -> Setup {
    let pool = paper_pool();
    let latency = latency();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
    let sample = batch_mix().sample_many(&mut rng, SAMPLE);
    let (plans, plan_s) = ModelKind::ALL
        .iter()
        .map(|&model| {
            let planner = KairosPlanner::new(pool.clone(), model, latency.clone());
            spans.time(format!("planner.plan.{model}"), Some(parent), || {
                planner.plan(BUDGET, &sample)
            })
        })
        .unzip();
    Setup {
        services: ModelKind::ALL
            .iter()
            .map(|&m| ServiceSpec::new(m, latency.clone()))
            .collect(),
        homogeneous: best_homogeneous(&pool, BUDGET),
        options: capacity_options(scale, seed),
        pool,
        latency,
        plans,
        plan_s,
    }
}

/// The two configurations ramped per model, with the policy each runs.
fn contenders(s: &Setup, i: usize) -> [(&Config, bool); 2] {
    [(&s.plans[i].chosen, true), (&s.homogeneous, false)]
}

fn policy(s: &Setup, model: ModelKind, kairos: bool) -> Box<dyn Scheduler> {
    if kairos {
        Box::new(KairosScheduler::with_priors(model, &s.latency))
    } else {
        Box::new(FcfsScheduler::new())
    }
}

/// Replays `config` at the allowable rate the ramp found, on the ramp's own
/// trace seed: it must meet the QoS target the ramp certified.
fn verify(
    s: &Setup,
    i: usize,
    config: &Config,
    kairos: bool,
    found: &CapacityResult,
) -> Result<SimReport, String> {
    let model = ModelKind::ALL[i];
    let rate = found.allowable_qps;
    ensure!(
        rate > 0.0,
        "capacity_plan: {model} has no allowable throughput"
    );
    let trace = TraceSpec {
        arrival: s.options.arrival.with_rate(rate),
        batch_sizes: s.options.batch_sizes.clone(),
        duration_s: s.options.duration_s,
        seed: s.options.seed,
    }
    .generate();
    let options = SimulationOptions {
        seed: s.options.seed,
    };
    let mut scheduler = policy(s, model, kairos);
    let report = run_trace(
        &s.pool,
        config,
        &s.services[i],
        &trace,
        scheduler.as_mut(),
        &options,
    );
    check_report(&report, trace.len())?;
    ensure!(
        report.meets_qos(s.options.violation_tolerance),
        "capacity_plan: {model} ({}) violates QoS at its allowable {rate} QPS",
        report.scheduler
    );
    Ok(report)
}

/// One untraced episode: returns its set-up and timed-phase seconds.
pub fn episode(scale: Scale, seed: u64, tally: &mut Tally) -> Result<(f64, f64), String> {
    let mut spans = Spans::default();
    let root = spans.open("capacity_plan", None);
    let started = Instant::now();
    let s = setup(scale, seed, &mut spans, root);
    let setup_s = super::secs(started);
    let started = Instant::now();
    let mut found = Vec::new();
    for (i, &model) in ModelKind::ALL.iter().enumerate() {
        for (config, kairos) in contenders(&s, i) {
            let result = allowable_throughput(&s.pool, config, &s.services[i], &s.options, || {
                policy(&s, model, kairos)
            });
            found.push((i, config, kairos, result));
        }
    }
    let wall_s = super::secs(started);
    for (i, config, kairos, result) in &found {
        tally.add(&verify(&s, *i, config, *kairos, result)?);
    }
    Ok((setup_s, wall_s))
}

/// The traced pass; returns the traced timed phase in seconds.  Every
/// probe's scheduler is wrapped in a [`TimedScheduler`], and the factory
/// call that opens each probe marks its start.
pub fn traced(
    scale: Scale,
    seed: u64,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<f64, String> {
    let root = spans.open("capacity_plan", None);
    let s = setup(scale, seed, spans, root);
    let plan_sum: f64 = s.plan_s.iter().sum();
    layers.set("planner.plan_ms", plan_sum / s.plan_s.len() as f64 * 1e3);
    layers.set(
        "planner.ranked_configs",
        s.plans.iter().map(|p| p.ranked.len()).sum::<usize>() as f64,
    );
    layers.set("planner.est_busy_s", plan_sum);
    layers.set("planner.plan_initial_s", plan_sum);

    let stats = SharedRounds::default();
    let mut probe_us = Histogram::default();
    let mut probes = 0;
    let mut wall_s = 0.0;
    for (i, &model) in ModelKind::ALL.iter().enumerate() {
        for (config, kairos) in contenders(&s, i) {
            let mut starts: Vec<Instant> = Vec::new();
            let name = format!(
                "probe.ramp.{model}.{}",
                if kairos { "kairos" } else { "fcfs" }
            );
            let (result, ramp_s) = spans.time(name, Some(root), || {
                allowable_throughput(&s.pool, config, &s.services[i], &s.options, || {
                    starts.push(Instant::now());
                    let inner = policy(&s, model, kairos);
                    Box::new(TimedScheduler::new(inner, stats.clone())) as Box<dyn Scheduler>
                })
            });
            let ended = Instant::now();
            ensure!(
                result.allowable_qps > 0.0,
                "capacity_plan: {model} has no allowable throughput"
            );
            for (k, start) in starts.iter().enumerate() {
                let end = starts.get(k + 1).copied().unwrap_or(ended);
                probe_us.record((end - *start).as_micros() as u64);
            }
            probes += result.probes;
            wall_s += ramp_s;
        }
    }
    let stats = stats.borrow();
    super::record_rounds(layers, &stats);
    let busy_s = stats.busy_ns as f64 / 1e9;
    layers.set("probe.count", probes as f64);
    layers.set("probe.ms_p50", probe_us.quantile(0.50) / 1e3);
    layers.set("probe.ms_p99", probe_us.quantile(0.99) / 1e3);
    layers.set("probe.sched_busy_s", busy_s);
    // Probe replays are engine time plus probe-trace generation.
    layers.set("engine.self_s", wall_s - busy_s);
    spans.close(root);
    Ok(wall_s)
}
