//! `fleet_mix`: the multi-lane control loop at fleet budget.
//!
//! `InferenceService::run` serves NCF / RM2 / WND at 45 / 20 / 35 % of
//! Poisson 600 QPS with the production batch mix, under one 12 $/hr budget,
//! for 4 s.  Every replan re-splits the budget by live demand, so the lanes'
//! plan caches mostly miss and the loop is planner-bound.

use super::{
    check_report, derive_seed, latency, paper_pool, record_controller, record_engine, record_loop,
    record_planner, record_rounds, record_workload, serving_options, time_plan, Scale, Tally,
};
use crate::layers::{SharedRounds, Spans, TimedScheduler};
use crate::metrics::Layers;
use kairos_core::{InferenceService, KairosController};
use kairos_models::ModelKind;
use kairos_sim::{ClusterSpec, ServiceSpec, SimEngine, SimulationOptions};
use kairos_workload::{BatchSizeDistribution, MixSpec, MixedTraceSpec, ModelId, Trace};
use std::time::Instant;

const MODELS: [ModelKind; 3] = [ModelKind::Ncf, ModelKind::Rm2, ModelKind::Wnd];
const SHARES: [f64; 3] = [0.45, 0.20, 0.35];
const RATE_QPS: f64 = 600.0;
const BUDGET: f64 = 12.0;

fn duration_s(scale: Scale) -> f64 {
    match scale {
        Scale::Full => 4.0,
        Scale::Smoke => 0.5,
    }
}

/// The three lanes' shares with the production batch mix.
fn mix() -> MixSpec {
    MixSpec::from_shares(
        &SHARES,
        &vec![BatchSizeDistribution::production_default(); MODELS.len()],
    )
}

struct Setup {
    trace: Trace,
    service: InferenceService,
    initial: ClusterSpec,
    specs: Vec<ServiceSpec>,
    plan_initial_s: f64,
    generate_s: f64,
}

fn setup(scale: Scale, seed: u64, spans: &mut Spans, parent: usize) -> Result<Setup, String> {
    let spec = MixedTraceSpec::poisson(RATE_QPS, mix(), duration_s(scale), derive_seed(seed, 10));
    let (trace, generate_s) = spans.time("workload.generate", Some(parent), || spec.generate());
    let mut service = InferenceService::new(
        paper_pool(),
        &MODELS,
        Some(latency()),
        serving_options(BUDGET),
    );
    service.warm_monitors(&mix(), 3_000, derive_seed(seed, 1));
    let demands: Vec<f64> = SHARES.iter().map(|s| s * RATE_QPS).collect();
    let (initial, plan_initial_s) = spans.time("planner.plan_initial", Some(parent), || {
        service.plan_initial(&demands)
    });
    let initial = initial.ok_or("fleet_mix: the priors must allow an initial plan")?;
    let specs = service.service_specs(&latency());
    Ok(Setup {
        trace,
        service,
        initial,
        specs,
        plan_initial_s,
        generate_s,
    })
}

/// One untraced episode: returns its set-up and timed-phase seconds.
pub fn episode(scale: Scale, seed: u64, tally: &mut Tally) -> Result<(f64, f64), String> {
    let mut spans = Spans::default();
    let root = spans.open("fleet_mix", None);
    let started = Instant::now();
    let mut s = setup(scale, seed, &mut spans, root)?;
    let setup_s = super::secs(started);
    let started = Instant::now();
    let outcome = s.service.run(&s.initial, &s.specs, &s.trace);
    let wall_s = super::secs(started);
    check_report(&outcome.report, s.trace.len())?;
    tally.add(&outcome.report);
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
    let pool = paper_pool();
    let root = spans.open("fleet_mix", None);
    let mut s = setup(scale, seed, spans, root)?;
    // The distributor the run starts with, kept for the frozen replay below.
    let frozen = s.service.make_scheduler();
    let (outcome, wall_s) = spans.time("serving.run", Some(root), || {
        s.service.run(&s.initial, &s.specs, &s.trace)
    });
    check_report(&outcome.report, s.trace.len())?;
    record_workload(layers, &s.trace, s.generate_s);
    record_loop(
        layers,
        outcome.replans,
        outcome.reconfigs.len(),
        &outcome.report,
        untraced_wall_s,
    );

    // Planner: each lane's cache counters, and cold plans per lane at the
    // last budget split to price a miss.
    let mut lanes = Vec::new();
    for (m, &model) in MODELS.iter().enumerate() {
        let system = s.service.lane(ModelId::new(m));
        let budget = outcome.last_budget_split[m];
        let (ranked, plan_s) = time_plan(spans, root, model, system.controller(), budget)?;
        let cache = system.plan_cache();
        lanes.push((cache.hits(), cache.misses(), plan_s, ranked));
    }
    record_planner(layers, &lanes, s.plan_initial_s);

    let controllers: Vec<&KairosController> = (0..MODELS.len())
        .map(|m| s.service.lane(ModelId::new(m)).controller())
        .collect();
    spans.time("controller.replay", Some(root), || {
        record_controller(layers, &controllers, &s.trace, &outcome.report, &pool)
    });

    // Scheduler and engine: the trace replayed on the initial cluster under
    // the initial distributor, with every round timed.
    let stats = SharedRounds::default();
    let mut timed = TimedScheduler::new(Box::new(frozen), stats.clone());
    let refs: Vec<&ServiceSpec> = s.specs.iter().collect();
    let options = SimulationOptions {
        seed: serving_options(BUDGET).seed,
    };
    let (report, replay_s) = spans.time("engine.replay", Some(root), || {
        SimEngine::new_multi(&pool, &s.initial, &refs, &s.trace, &mut timed, &options).run()
    });
    check_report(&report, s.trace.len())?;
    record_rounds(layers, &stats.borrow());
    record_engine(layers, &[&report], replay_s, &stats.borrow());
    spans.close(root);
    Ok(wall_s)
}
