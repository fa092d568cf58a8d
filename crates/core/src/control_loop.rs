//! The one serving control loop behind
//! [`InferenceService::run`](crate::InferenceService::run) and its one-lane
//! form [`ServingSystem::run`](crate::ServingSystem::run).
//!
//! The paper's headline online result (Fig. 12, Sec. 6) is Kairos reacting
//! to a load change in "one shot": the monitor notices the new mix, the
//! planner re-ranks the configuration space from current knowledge, and the
//! system redeploys — no online exploration.  [`serve`] is that loop against
//! the discrete-event engine, for one [`ModelLane`] per served model under
//! one shared budget:
//!
//! ```text
//!        ┌──────────────────────────────────────────────────────────┐
//!        │                        serve                             │
//!  trace ──► SimEngine::step_event ──► EngineEvent                  │
//!        │        ▲                      │ Arrival/Completion → lane[m]
//!        │        │                      │ fault window → park/release
//!        │        │                      ▼                          │
//!        │        │        per-lane demand estimate + ReplanClock   │
//!        │        │                      │ due lanes                │
//!        │        │                      ▼                          │
//!        │        │  market refresh → budget split → variant switch │
//!        │        │        → select target → reconcile_model        │
//!        │        └── add_instance / retire_instance ◄──────────────┘
//!        └──────────────────────────────────────────────────────────┘
//! ```
//!
//! [`serve`] builds the run's one query distributor, a [`MultiScheduler`]
//! over the lanes, and every entry point returns its
//! [`MultiServingOutcome`]; the entry points differ only in their input
//! checks and their drift baseline.  The replan clock's rule follows from
//! the lane count (see [`ReplanClock`]).

use crate::serverless::ServerlessRuntime;
use crate::service::{split_budget, MultiScheduler, MultiServingOutcome};
use crate::serving::{
    estimate_rate_qps, fault_window_end, reconcile_model, MarketState, ModelLane, PurchaseBackoff,
    ReconfigEvent, ReplanTrigger, ServingOptions, VariantSwitch,
};
use kairos_models::{FailureDomain, FaultProcess, PoolSpec};
use kairos_sim::{
    BatchingOptions, ClusterSpec, EngineEvent, ServiceSpec, SimEngine, SimulationOptions,
};
use kairos_workload::{ModelId, TimeUs, Trace};
use std::collections::VecDeque;

/// Relative arrival-rate change (vs the rate at the previous plan) that
/// triggers an immediate replan between cadence ticks.
const DRIFT_THRESHOLD: f64 = 0.35;

/// Cap on the number of recent arrivals kept for the rate estimate.
const RATE_WINDOW: usize = 1024;

/// Time horizon of the rate estimate: only arrivals within this window of
/// `now` count.  A time-bounded window reacts to load *drops* as fast as to
/// spikes (a count-bounded one drains slowly at low rates).
const RATE_HORIZON_US: TimeUs = 2_000_000;

/// Minimum number of monitored queries before the loop trusts a plan: with
/// only a handful of observations the batch-mix estimate (and with it every
/// upper bound) is noise, and acting on noise thrashes the cluster.
const MIN_OBSERVATIONS: usize = 200;

/// How far past the last trace arrival market events are still materialized
/// (market-attached runs only).  A storm landing while the backlog drains
/// must still fire; events beyond the slack are dropped (they would
/// otherwise stretch the run — and its billing horizon — into empty virtual
/// time).
const MARKET_HORIZON_SLACK_US: TimeUs = 2_000_000;

/// The fleet-wide attachments of a service, held once by its
/// [`InferenceService`](crate::InferenceService) and lent to every run.
#[derive(Debug, Clone)]
pub(crate) struct Fleet {
    /// The pool every lane plans over, at reference prices (a run pushes
    /// live market prices and backoff penalties into the lanes' controllers
    /// and restores this pool when it ends).
    pub pool: PoolSpec,
    /// Loop tunables; `budget_per_hour` is the budget the lanes share.
    pub options: ServingOptions,
    /// Per-type failure-domain table (one entry per pool type, resolved from
    /// the offering catalog when market-attached).  Empty means domain-blind:
    /// every instance lands in [`FailureDomain::global`].
    pub placements: Vec<FailureDomain>,
    /// The cloud market every lane trades on, if any (one market, one
    /// cooldown book; every lane replans over the same refreshed pool).
    pub market: Option<MarketState>,
    /// The correlated-fault process the engine materializes; a fault-free
    /// fleet holds the empty process.
    pub faults: FaultProcess,
    /// The keep-alive runtime sparse lanes park under, if any: they scale
    /// to zero in the budget split instead of holding an always-on floor.
    pub serverless: Option<ServerlessRuntime>,
}

/// The replan clock of one run: the cadence tick and each lane's
/// drift-cooldown stamp.  When the clock restarts follows from the lane
/// count:
///
/// * one lane — every trigger restarts the cadence clock and the lane's
///   drift cooldown, even when the lane has no fresh rate to plan with;
/// * more lanes — one shared clock that only the cadence tick restarts; a
///   lane's drift or market replan stamps only that lane's cooldown (a
///   lane's own triggers must not delay its siblings' cadence).
#[derive(Debug)]
struct ReplanClock {
    interval_us: TimeUs,
    /// Drift reaction is capped at the demand-estimation horizon: a lane
    /// should not wait out a long cadence interval when its own traffic has
    /// demonstrably shifted.
    drift_cooldown_us: TimeUs,
    next_tick_us: TimeUs,
    last_replan_us: Vec<TimeUs>,
}

impl ReplanClock {
    fn new(interval_us: TimeUs, lanes: usize) -> Self {
        Self {
            interval_us,
            drift_cooldown_us: (interval_us / 2).min(RATE_HORIZON_US),
            next_tick_us: interval_us,
            last_replan_us: vec![0; lanes],
        }
    }

    /// Collects into `due` the lanes to replan at `now`, and applies the
    /// restart rule.  `event` is the fleet-wide trigger the engine event
    /// itself raised (a fault or a market move); `signals[m]` is `None` for a
    /// lane that cannot plan (no fresh rate, or a parked serverless lane),
    /// else whether its demand drifted past the threshold.
    fn collect_due(
        &mut self,
        now: TimeUs,
        event: Option<ReplanTrigger>,
        signals: &[Option<bool>],
        due: &mut Vec<(usize, ReplanTrigger)>,
    ) {
        due.clear();
        let single = self.last_replan_us.len() == 1;
        let tick = now >= self.next_tick_us;
        let mut fired = false;
        for (m, &signal) in signals.iter().enumerate() {
            let drift =
                signal == Some(true) && now >= self.last_replan_us[m] + self.drift_cooldown_us;
            let Some(trigger) = event
                .or(tick.then_some(ReplanTrigger::Cadence))
                .or(drift.then_some(ReplanTrigger::Drift))
            else {
                continue;
            };
            if signal.is_some() || single {
                self.last_replan_us[m] = now;
                fired = true;
            }
            if signal.is_some() {
                due.push((m, trigger));
            }
        }
        let restart = if single { fired } else { tick };
        if restart {
            self.next_tick_us = now + self.interval_us;
        }
    }
}

/// After a fault window on `domain` begins (`began`) or ends, holds every
/// offering the domain covers until the latest window still active on it —
/// purchases there are announced-doomed, so probing them one rejection at a
/// time would only waste replans — or, when none is left, frees them.
fn hold_domain(
    backoff: &mut PurchaseBackoff,
    process: &FaultProcess,
    placements: &[FailureDomain],
    domain: &FailureDomain,
    now: TimeUs,
    began: bool,
) {
    let end = fault_window_end(process, domain, now);
    let global = FailureDomain::global();
    for i in 0..backoff.num_types() {
        if domain.covers(placements.get(i).unwrap_or(&global)) {
            match end {
                Some(end) => backoff.park(i, end),
                None if !began => backoff.note_success(i),
                None => {}
            }
        }
    }
}

/// Pushes one planning pool into every lane's controller: lanes share the
/// pool.
fn share_pool(lanes: &mut [ModelLane], pool: &PoolSpec) {
    for lane in lanes {
        lane.controller.set_pool(pool.clone());
    }
}

/// Serves `trace` from `initial` with one lane per entry of `lanes`
/// (`lanes[m]` serves [`ModelId`] `m`), distributing with a
/// [`MultiScheduler`] built from the lanes' current latency knowledge.
/// `planned[m]` is lane `m`'s drift baseline going in (the rate its initial
/// deployment was planned for, `None` to take it on faith) and its last
/// planned rate coming out.  The market's cooldown book and every lane's
/// planning pool are reset before returning, so nothing stamped in this
/// run's virtual time leaks into the next.
pub(crate) fn serve(
    lanes: &mut [ModelLane],
    planned: &mut [Option<f64>],
    fleet: &mut Fleet,
    initial: &ClusterSpec,
    services: &[&ServiceSpec],
    trace: &Trace,
) -> MultiServingOutcome {
    let options = fleet.options;
    let pool = &fleet.pool;
    let placements = fleet.placements.as_slice();
    let faults = &fleet.faults;
    let serverless = fleet.serverless.as_ref();
    let mut market = fleet.market.as_mut();
    let n = lanes.len();
    // The engine borrows the market oracle for the whole run; this handle
    // outlives it.
    let oracle = market.as_deref().map(|m| m.market().clone());
    let mut scheduler = MultiScheduler::for_lanes(lanes);
    let mut engine = SimEngine::new_multi(
        pool,
        initial,
        services,
        trace,
        &mut scheduler,
        &SimulationOptions { seed: options.seed },
    );
    if let Some(oracle) = oracle.as_deref() {
        // Events may land while the backlog drains past the last arrival;
        // the slack keeps those storms in scope.
        let horizon = trace.duration_us().saturating_add(MARKET_HORIZON_SLACK_US);
        engine = engine.with_market_horizon(oracle, horizon);
    }
    if options.batch_max_size > 0 {
        engine = engine.with_batching(BatchingOptions::new(
            options.batch_max_size,
            options.batch_timeout_us,
        ));
    }
    engine = engine.with_faults(faults, placements);
    // Serverless lanes park between requests: the engine-side policies are
    // fixed for the run from the demands it was planned for, and mirrored
    // into each lane's controller so they join its knowledge signature.
    let mut parked_lane = vec![false; n];
    if let Some(rt) = serverless {
        let demands: Vec<f64> = planned.iter().map(|p| p.unwrap_or(0.0)).collect();
        engine = engine.with_serverless(rt.config_for(&demands));
        for ((lane, policy), parked) in lanes
            .iter_mut()
            .zip(rt.assign(&demands))
            .zip(&mut parked_lane)
        {
            *parked = policy.is_some();
            lane.controller.set_serverless_policy(policy);
        }
    }
    // A previous run may have left a lane on a non-reference variant; the
    // fresh engine starts from the reference specs.
    for (m, lane) in lanes.iter().enumerate() {
        if let Some((profiles, accuracy)) = lane.initial_variant_profiles() {
            engine.set_model_profiles(ModelId::new(m), &profiles, accuracy);
        }
    }

    // Per-run lane state: arrival windows, the replan clock, and the
    // backoff book every purchase goes through (penalty prices apply
    // relative to the fleet's pool and expire with the backoff).
    let mut arrivals: Vec<VecDeque<TimeUs>> = (0..n)
        .map(|_| VecDeque::with_capacity(RATE_WINDOW))
        .collect();
    let mut clock = ReplanClock::new(options.replan_interval_us, n);
    let mut backoff = PurchaseBackoff::new(pool.num_types());
    // Whether the lanes' planning pools carry backoff penalties.
    let mut penalized = false;
    let mut demands = vec![0.0f64; n];
    let mut signals: Vec<Option<bool>> = vec![None; n];
    let mut due: Vec<(usize, ReplanTrigger)> = Vec::new();
    let mut last_budget_split = split_budget(lanes, serverless, options.budget_per_hour, &demands);
    let mut reconfigs: Vec<ReconfigEvent> = Vec::new();
    let mut variant_switches: Vec<VariantSwitch> = Vec::new();
    let mut replans = 0usize;
    let horizon_s = RATE_HORIZON_US as f64 / 1e6;
    let spread = options.spread(placements);

    while let Some(event) = engine.step_event() {
        let now = engine.now();
        match &event {
            EngineEvent::Arrival { query } => {
                let m = query.model.index();
                lanes[m].controller.observe_query(query.batch_size);
                if arrivals[m].len() == RATE_WINDOW {
                    arrivals[m].pop_front();
                }
                arrivals[m].push_back(query.arrival_us);
            }
            EngineEvent::Completions {
                records, type_name, ..
            } => {
                // One invocation: every member (one under serial service,
                // several for a fused batch) is one observed completion of
                // its own lane at its own batch size.
                for record in &engine.records()[records.clone()] {
                    let service_ms = (record.completion_us - record.start_us) as f64 / 1000.0;
                    lanes[record.model.index()].controller.observe_completion(
                        type_name,
                        record.batch_size,
                        service_ms,
                    );
                }
            }
            // Announced fault windows park the covered offerings up front,
            // so the planner routes around the domain from the first fault
            // replan instead of discovering the wall one rejection at a time.
            EngineEvent::ZoneOutage { domain, .. } => {
                hold_domain(&mut backoff, faults, placements, domain, now, true);
            }
            EngineEvent::ZoneRestored { domain } => {
                hold_domain(&mut backoff, faults, placements, domain, now, false);
            }
            EngineEvent::CapacityShortage { domain, active } => {
                hold_domain(&mut backoff, faults, placements, domain, now, *active);
            }
            // Market events are digested by `MarketState::on_event` below;
            // stragglers only trigger a fault replan; parks are billing
            // bookkeeping inside the engine.
            EngineEvent::InstanceReady { .. }
            | EngineEvent::BatchFired { .. }
            | EngineEvent::PriceStep { .. }
            | EngineEvent::PreemptionNotice { .. }
            | EngineEvent::InstancePreempted { .. }
            | EngineEvent::StragglerOnset { .. }
            | EngineEvent::InstanceParked { .. } => {}
        }
        // Correlated faults demand the fastest reaction: replan the moment
        // an outage begins or lifts, a shortage toggles, or a straggler
        // lands on a live instance.  Market moves (price steps, preemption
        // notices, kills) replan too and, for notices, start the offering's
        // cooldown.
        let fault_replan = matches!(
            &event,
            EngineEvent::ZoneOutage { .. }
                | EngineEvent::ZoneRestored { .. }
                | EngineEvent::CapacityShortage { .. }
                | EngineEvent::StragglerOnset {
                    victim: Some(_),
                    ..
                }
        );
        let market_replan = market
            .as_deref_mut()
            .is_some_and(|market| market.on_event(&event, now));
        let event_trigger = if fault_replan {
            Some(ReplanTrigger::Fault)
        } else {
            market_replan.then_some(ReplanTrigger::Market)
        };

        // Demand is the service rate a lane must sustain: its offered
        // arrival rate plus the rate needed to drain its share of everything
        // already in the system within one rate horizon.  The backlog term
        // makes overload visible even when the arrival estimate lags a
        // shift, and blocks scale-in while a past spike still drains.  The
        // engine keeps the aggregate backlog in O(1); it is attributed to
        // lanes by their share of recent arrivals (exactly all of it for one
        // lane).  A lane without a fresh rate keeps its last planned rate as
        // its weight in the budget split and is never replanned against it.
        let backlog = engine.queued_backlog() as f64;
        let window_total: usize = arrivals.iter().map(VecDeque::len).sum();
        for m in 0..n {
            let share = if window_total > 0 {
                arrivals[m].len() as f64 / window_total as f64
            } else {
                1.0 / n as f64
            };
            let pressure = backlog * share / horizon_s;
            let rate = estimate_rate_qps(&mut arrivals[m], now, RATE_HORIZON_US);
            demands[m] = rate.map_or(planned[m].unwrap_or(0.0), |r| r + pressure);
            // A serverless lane's capacity is its parked vessel; billing
            // follows usage through parking, so it never reconciles.
            signals[m] = rate.filter(|_| !parked_lane[m]).map(|_| {
                planned[m].is_some_and(|p| (demands[m] - p).abs() / p.max(1e-9) > DRIFT_THRESHOLD)
            });
        }
        clock.collect_due(now, event_trigger, &signals, &mut due);
        if due.is_empty() {
            continue;
        }

        // Re-read live prices (and cooldown expiries) into every lane's
        // planning pool; price changes join the knowledge signature, so the
        // plan cache invalidates exactly when they matter.  Parked offerings
        // are priced out on top, so plans route purchases around domains
        // that just rejected them; the first replan after the last hold
        // lifts takes the penalties off again.  With nothing ever parked
        // (a fault-free run), the pools are left alone.
        let live = market.as_deref().map(|market| market.planning_pool(now));
        let held = backoff.any_blocked(now);
        let planning = if held || penalized {
            Some(backoff.penalized_pool(live.as_ref().unwrap_or(pool), now))
        } else {
            live
        };
        penalized = held;
        if let Some(planning) = planning {
            share_pool(lanes, &planning);
        }
        last_budget_split = split_budget(lanes, serverless, options.budget_per_hour, &demands);
        for &(m, trigger) in &due {
            let lane = &mut lanes[m];
            if lane.controller.observed_queries() < MIN_OBSERVATIONS {
                continue;
            }
            let model = ModelId::new(m);
            let (budget, demand) = (last_budget_split[m], demands[m]);
            // The variant axis settles first: the configuration plan below
            // runs against the (possibly just-adopted) variant's knowledge.
            if let Some((from, to, profiles, accuracy)) =
                lane.switch_variant_if_needed(options.min_accuracy, budget, demand)
            {
                engine.set_model_profiles(model, &profiles, accuracy);
                variant_switches.push(VariantSwitch {
                    at_us: now,
                    model,
                    from,
                    to,
                    accuracy,
                    trigger,
                });
            }
            let current = engine.cluster().active_config_for(model);
            let Some(target) = lane.select_target(spread, budget, demand, &current, &backoff, now)
            else {
                continue;
            };
            replans += 1;
            planned[m] = Some(demand);
            let (added_types, retired_instances) = reconcile_model(
                &mut engine,
                model,
                &target,
                options.provisioning_delay_us,
                &mut backoff,
                trigger == ReplanTrigger::Fault,
            );
            if !added_types.is_empty() || !retired_instances.is_empty() {
                reconfigs.push(ReconfigEvent {
                    at_us: now,
                    model,
                    trigger,
                    demand_qps: demand,
                    target,
                    added_types,
                    retired_instances,
                });
            }
        }
    }

    let final_active = ClusterSpec::from_configs(
        (0..n)
            .map(|m| engine.cluster().active_config_for(ModelId::new(m)))
            .collect(),
    );
    // Leave the lanes ready for the next run: cooldowns and backoff holds
    // are stamped in this run's virtual time, and the planning pools may
    // still carry their penalty prices — none of it may leak into later
    // planning calls or runs.
    let repriced = market.is_some() || penalized;
    if let Some(market) = market {
        market.reset();
    }
    if repriced {
        share_pool(lanes, pool);
    }
    MultiServingOutcome {
        report: engine.report(),
        initial: initial.clone(),
        final_active,
        reconfigs,
        replans,
        last_budget_split,
        variant_switches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(lanes: usize) -> ReplanClock {
        ReplanClock::new(1_000_000, lanes)
    }

    #[test]
    fn single_lane_rule_restarts_on_every_trigger_even_without_a_plan() {
        let mut due = Vec::new();
        for trigger in [ReplanTrigger::Market, ReplanTrigger::Fault] {
            let mut c = clock(1);
            // No fresh rate: the lane cannot plan, yet the trigger restarts
            // both the cadence clock and the lane's cooldown stamp.
            c.collect_due(300_000, Some(trigger), &[None], &mut due);
            assert!(due.is_empty());
            assert_eq!(c.next_tick_us, 1_300_000);
            assert_eq!(c.last_replan_us, vec![300_000]);
        }
        // A drift replan restarts the clock too.
        let mut c = clock(1);
        c.collect_due(600_000, None, &[Some(true)], &mut due);
        assert_eq!(due, vec![(0, ReplanTrigger::Drift)]);
        assert_eq!(c.next_tick_us, 1_600_000);
        assert_eq!(c.last_replan_us, vec![600_000]);
        // The cadence tick fires without a fresh rate and still restarts.
        c.collect_due(1_700_000, None, &[None], &mut due);
        assert!(due.is_empty());
        assert_eq!(c.next_tick_us, 2_700_000);
        assert_eq!(c.last_replan_us, vec![1_700_000]);
    }

    #[test]
    fn multi_lane_rule_keeps_one_clock_that_only_the_tick_restarts() {
        let mut due = Vec::new();
        let mut c = clock(3);
        // Lane 1 drifts: only its own stamp moves, the shared clock stays.
        c.collect_due(600_000, None, &[Some(false), Some(true), None], &mut due);
        assert_eq!(due, vec![(1, ReplanTrigger::Drift)]);
        assert_eq!(c.next_tick_us, 1_000_000);
        assert_eq!(c.last_replan_us, vec![0, 600_000, 0]);
        // A market move replans every lane with a fresh rate; a lane without
        // one is untouched, and the clock still waits for its tick.
        c.collect_due(
            700_000,
            Some(ReplanTrigger::Market),
            &[Some(false), Some(false), None],
            &mut due,
        );
        assert_eq!(
            due,
            vec![(0, ReplanTrigger::Market), (1, ReplanTrigger::Market)]
        );
        assert_eq!(c.next_tick_us, 1_000_000);
        assert_eq!(c.last_replan_us, vec![700_000, 700_000, 0]);
        // The tick restarts the clock even when no lane can plan.
        c.collect_due(1_000_000, None, &[None, None, None], &mut due);
        assert!(due.is_empty());
        assert_eq!(c.next_tick_us, 2_000_000);
        // Within the cooldown a drifted lane waits.
        c.collect_due(1_100_000, None, &[Some(true), None, None], &mut due);
        assert!(due.is_empty());
    }
}
