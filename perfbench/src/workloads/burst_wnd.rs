//! `burst_wnd`: the single-lane loop through an overload burst.
//!
//! `ServingSystem::run` serves WND under a 4 $/hr budget while the Poisson
//! rate steps 1000 -> 2500 -> 1000 QPS for 1, 0.5 and 1.5 s.  The burst
//! builds a deep queue, so the Kairos round (queue x instances cost matrix
//! plus the JV matching) dominates, while the plan cache almost always hits.

use super::{
    check_report, derive_seed, latency, paper_pool, record_controller, record_engine, record_loop,
    record_planner, record_rounds, record_workload, serving_options, time_plan, Scale, Tally,
};
use crate::layers::{SharedRounds, Spans, TimedScheduler};
use crate::metrics::Layers;
use kairos_core::ServingSystem;
use kairos_models::{Config, ModelKind};
use kairos_sim::{ServiceSpec, SimEngine, SimulationOptions};
use kairos_workload::{BatchSizeDistribution, PhasedArrival, Trace};
use std::time::Instant;

const MODEL: ModelKind = ModelKind::Wnd;
const BASE_QPS: f64 = 1000.0;
const BURST_QPS: f64 = 2500.0;
const BUDGET: f64 = 4.0;

/// `(lead, burst, tail)` phase lengths in seconds.
fn phases_s(scale: Scale) -> (f64, f64, f64) {
    match scale {
        Scale::Full => (1.0, 0.5, 1.5),
        Scale::Smoke => (0.2, 0.1, 0.2),
    }
}

struct Setup {
    trace: Trace,
    system: ServingSystem,
    initial: Config,
    service: ServiceSpec,
    plan_initial_s: f64,
    generate_s: f64,
}

fn setup(scale: Scale, seed: u64, spans: &mut Spans, parent: usize) -> Result<Setup, String> {
    let mix = BatchSizeDistribution::production_default();
    let (lead_s, burst_s, tail_s) = phases_s(scale);
    let arrival = PhasedArrival::burst(
        BASE_QPS,
        BURST_QPS,
        mix.clone(),
        lead_s,
        burst_s,
        tail_s,
        seed,
    );
    let (trace, generate_s) = spans.time("workload.generate", Some(parent), || arrival.generate());
    let mut system = ServingSystem::new(
        paper_pool(),
        MODEL,
        Some(latency()),
        serving_options(BUDGET),
    );
    system.warm_monitor(&mix, 2_000, derive_seed(seed, 1));
    let (initial, plan_initial_s) = spans.time("planner.plan_initial", Some(parent), || {
        system.plan_for_demand(BASE_QPS)
    });
    let initial = initial.ok_or("burst_wnd: the priors must allow an initial plan")?;
    Ok(Setup {
        trace,
        system,
        initial,
        service: ServiceSpec::new(MODEL, latency()),
        plan_initial_s,
        generate_s,
    })
}

/// One untraced episode: returns its set-up and timed-phase seconds.
pub fn episode(scale: Scale, seed: u64, tally: &mut Tally) -> Result<(f64, f64), String> {
    let mut spans = Spans::default();
    let root = spans.open("burst_wnd", None);
    let started = Instant::now();
    let mut s = setup(scale, seed, &mut spans, root)?;
    let setup_s = super::secs(started);
    let started = Instant::now();
    let outcome = s.system.run(&s.initial, &s.service, &s.trace);
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
    let root = spans.open("burst_wnd", None);
    let mut s = setup(scale, seed, spans, root)?;
    // The distributor the run starts with, kept for the frozen replay below.
    let frozen = s.system.controller().make_scheduler();
    let (outcome, wall_s) = spans.time("serving.run", Some(root), || {
        s.system.run(&s.initial, &s.service, &s.trace)
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

    let (ranked, plan_s) = time_plan(spans, root, MODEL, s.system.controller(), BUDGET)?;
    let cache = s.system.plan_cache();
    record_planner(
        layers,
        &[(cache.hits(), cache.misses(), plan_s, ranked)],
        s.plan_initial_s,
    );

    spans.time("controller.replay", Some(root), || {
        record_controller(
            layers,
            &[s.system.controller()],
            &s.trace,
            &outcome.report,
            &pool,
        )
    });

    // Scheduler and engine: the trace replayed on the initial cluster under
    // the initial distributor, with every round timed.
    let stats = SharedRounds::default();
    let mut timed = TimedScheduler::new(Box::new(frozen), stats.clone());
    let options = SimulationOptions {
        seed: serving_options(BUDGET).seed,
    };
    let (report, replay_s) = spans.time("engine.replay", Some(root), || {
        SimEngine::new(
            &pool, &s.initial, &s.service, &s.trace, &mut timed, &options,
        )
        .run()
    });
    check_report(&report, s.trace.len())?;
    record_rounds(layers, &stats.borrow());
    record_engine(layers, &[&report], replay_s, &stats.borrow());
    spans.close(root);
    Ok(wall_s)
}
