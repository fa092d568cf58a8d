//! Online-adaptation baselines: what operators deploy *without* Kairos.
//!
//! Two reference points for the controller-in-the-loop serving system
//! (`kairos_core::InferenceService::run`):
//!
//! * **Static overprovisioning** ([`static_overprovision`]) — the classic
//!   answer to load shifts: buy `factor ×` the budget of homogeneous base
//!   capacity up front and never reconfigure.  Survives spikes up to the
//!   overprovisioning factor but pays for the peak around the clock.
//! * **Reactive homogeneous autoscaling** ([`ReactiveAutoscaler`]) — an
//!   HPA-style controller that watches the average backlog per instance and
//!   adds/removes *base-type* instances one at a time with a cooldown.  It
//!   adapts, but knows nothing about heterogeneity or batch mixes, and its
//!   one-step-at-a-time reaction is slow against a sharp step change.
//!
//! Both run against the same [`SimEngine`] substrate and reconfiguration API
//! as Kairos, so the comparison isolates the decision policy.

use kairos_models::{Config, FailureDomain, FaultProcess, Market, PoolSpec};
use kairos_sim::{FcfsScheduler, ServiceSpec, SimEngine, SimReport, SimulationOptions};
use kairos_workload::{ModelId, TimeUs, Trace};

/// The static-overprovision configuration: the best homogeneous base-type
/// cluster affordable at `factor ×` the nominal budget.
///
/// # Panics
/// Panics if the inflated budget cannot afford a single base instance.
pub fn static_overprovision(pool: &PoolSpec, budget_per_hour: f64, factor: f64) -> Config {
    assert!(factor >= 1.0, "overprovision factor must be at least 1");
    let config = kairos_models::best_homogeneous(pool, budget_per_hour * factor);
    assert!(
        config.total_instances() >= 1,
        "budget {budget_per_hour} x {factor} affords no base instance"
    );
    config
}

/// Scale out when the mean backlog per active instance exceeds this.
const SCALE_OUT_BACKLOG: f64 = 2.0;

/// Scale in when the mean backlog per active instance falls below this.
const SCALE_IN_BACKLOG: f64 = 0.25;

/// Never scale below this many active instances.
const MIN_INSTANCES: usize = 1;

/// Tunables of the reactive homogeneous autoscaler.
#[derive(Debug, Clone, Copy)]
pub struct AutoscalerOptions {
    /// Minimum time between scaling actions.
    pub cooldown_us: TimeUs,
    /// Provisioning delay of added instances.
    pub provisioning_delay_us: TimeUs,
    /// Hard cap on concurrently active instances.
    pub max_instances: usize,
    /// Pool type index the scaler buys (`None` = the pool's base type).
    /// Pointing it at a spot offering of a market-lowered catalog pool
    /// yields the classic naive-cheap baseline: always buy the discount,
    /// rebuy reactively after every preemption storm.
    pub scale_type: Option<usize>,
    /// Engine noise seed.
    pub seed: u64,
}

impl Default for AutoscalerOptions {
    fn default() -> Self {
        Self {
            cooldown_us: 1_000_000,
            provisioning_delay_us: 500_000,
            max_instances: 32,
            scale_type: None,
            seed: 0,
        }
    }
}

/// Outcome of a reactive-autoscaler run.
#[derive(Debug, Clone)]
pub struct AutoscaleOutcome {
    /// Per-query simulation report.
    pub report: SimReport,
    /// `(time, +1)` for every scale-out and `(time, -1)` for every scale-in.
    pub actions: Vec<(TimeUs, i32)>,
    /// Number of active instances at the end of the run.
    pub final_instances: usize,
}

/// HPA-style reactive autoscaler over homogeneous base-type instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReactiveAutoscaler {
    /// The thresholds and delays of the scaling policy.
    pub options: AutoscalerOptions,
}

impl ReactiveAutoscaler {
    /// Creates an autoscaler with the given options.
    pub fn new(options: AutoscalerOptions) -> Self {
        Self { options }
    }

    /// Runs `trace` against `service`, starting from `initial_instances`
    /// base-type instances, scaling on the backlog signal after every event.
    pub fn run(
        &self,
        pool: &PoolSpec,
        initial_instances: usize,
        service: &ServiceSpec,
        trace: &Trace,
    ) -> AutoscaleOutcome {
        self.run_with_market(pool, initial_instances, service, trace, None)
    }

    /// [`Self::run`] against a live cloud market: instance-hours bill at the
    /// market's prices and the scaled type may be a preemptible offering —
    /// the scaler reacts to preemption storms the only way it knows how, by
    /// watching its backlog climb and re-buying.
    pub fn run_with_market(
        &self,
        pool: &PoolSpec,
        initial_instances: usize,
        service: &ServiceSpec,
        trace: &Trace,
        market: Option<&dyn Market>,
    ) -> AutoscaleOutcome {
        let no_faults = (&FaultProcess::default(), &[][..]);
        self.run_with_faults(pool, initial_instances, service, trace, market, no_faults)
    }

    /// [`Self::run_with_market`] with a correlated-fault process attached:
    /// zone outages kill the scaler's instances, capacity shortages reject
    /// its purchases (it retries on its cooldown cadence — the reactive
    /// baseline knows no alternative offerings), and stragglers slow it
    /// down.  `faults` pairs the process with the per-type failure-domain
    /// table (empty table = every type in the global domain); the empty
    /// process is a fault-free run.
    pub fn run_with_faults(
        &self,
        pool: &PoolSpec,
        initial_instances: usize,
        service: &ServiceSpec,
        trace: &Trace,
        market: Option<&dyn Market>,
        (faults, placements): (&FaultProcess, &[FailureDomain]),
    ) -> AutoscaleOutcome {
        let opts = &self.options;
        assert!(
            (MIN_INSTANCES..=opts.max_instances).contains(&initial_instances),
            "initial instance count outside [min, max]"
        );
        let scale_type = opts.scale_type.unwrap_or_else(|| pool.base_index());
        let mut counts = vec![0usize; pool.num_types()];
        counts[scale_type] = initial_instances;
        let mut scheduler = FcfsScheduler::new();
        let mut engine = SimEngine::new(
            pool,
            &Config::new(counts),
            service,
            trace,
            &mut scheduler,
            &SimulationOptions { seed: opts.seed },
        );
        if let Some(market) = market {
            engine = engine.with_market(market);
        }
        engine = engine.with_faults(faults, placements);
        // Scale-out purchases can be rejected (outage, shortage): a
        // rejection still burns the cooldown, so the scaler retries at its
        // own cadence rather than hammering the dead domain every event.
        let buy = |engine: &mut SimEngine<'_>,
                   actions: &mut Vec<(TimeUs, i32)>,
                   last_action_us: &mut Option<TimeUs>,
                   now: TimeUs| {
            let bought =
                engine.add_instance(ModelId::DEFAULT, scale_type, opts.provisioning_delay_us);
            if bought.is_ok() {
                actions.push((now, 1));
            }
            *last_action_us = Some(now);
        };

        let mut actions: Vec<(TimeUs, i32)> = Vec::new();
        let mut last_action_us: Option<TimeUs> = None;
        while engine.step_event().is_some() {
            let now = engine.now();
            if last_action_us.is_some_and(|t| now < t + opts.cooldown_us) {
                continue;
            }
            // Pressure signal: queries in the system (central + held by
            // instances) per active instance.  One fold, no per-event allocation.
            let mut active_count = 0usize;
            let mut in_system = engine.central_queue().len();
            let mut victim: Option<(usize, usize)> = None; // (backlog, index)
            for inst in engine.cluster().instances() {
                if !inst.accepts_dispatches() {
                    continue;
                }
                active_count += 1;
                let backlog = engine.instance_backlog(inst.index);
                in_system += backlog;
                // Emptiest instance, ties to the newest.
                if victim.is_none_or(|(b, i)| backlog < b || (backlog == b && inst.index > i)) {
                    victim = Some((backlog, inst.index));
                }
            }
            if active_count == 0 {
                // A preemption storm can wipe the whole fleet; the only
                // recovery signal left is "nothing is serving" — rebuy.
                if in_system > 0 {
                    buy(&mut engine, &mut actions, &mut last_action_us, now);
                }
                continue;
            }
            let mean_backlog = in_system as f64 / active_count as f64;

            if mean_backlog > SCALE_OUT_BACKLOG && active_count < opts.max_instances {
                buy(&mut engine, &mut actions, &mut last_action_us, now);
            } else if mean_backlog < SCALE_IN_BACKLOG && active_count > MIN_INSTANCES {
                let (_, victim) = victim.expect("non-empty active set");
                engine.retire_instance(victim);
                actions.push((now, -1));
                last_action_us = Some(now);
            }
        }

        let final_instances = engine
            .cluster()
            .instances()
            .iter()
            .filter(|i| i.accepts_dispatches())
            .count();
        AutoscaleOutcome {
            report: engine.report(),
            actions,
            final_instances,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::{calibration::paper_calibration, ec2, ModelKind};
    use kairos_workload::{BatchSizeDistribution, PhasedArrival};

    fn setup() -> (PoolSpec, ServiceSpec) {
        (
            PoolSpec::new(ec2::paper_pool()),
            ServiceSpec::new(ModelKind::Wnd, paper_calibration()),
        )
    }

    #[test]
    fn static_overprovision_is_homogeneous_and_scales_with_factor() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let base = static_overprovision(&pool, 2.5, 1.0);
        let doubled = static_overprovision(&pool, 2.5, 2.0);
        assert!(base.is_homogeneous(&pool));
        assert!(doubled.total_instances() >= 2 * base.total_instances());
        assert!(doubled.cost(&pool) <= 5.0 + 1e-9);
    }

    #[test]
    fn autoscaler_scales_out_under_a_step_change() {
        let (pool, service) = setup();
        let workload = PhasedArrival::step_change(
            40.0,
            400.0,
            BatchSizeDistribution::production_default(),
            2.0,
            4.0,
            31,
        );
        let scaler = ReactiveAutoscaler::new(AutoscalerOptions {
            cooldown_us: 300_000,
            provisioning_delay_us: 200_000,
            ..Default::default()
        });
        let outcome = scaler.run(&pool, 1, &service, &workload.generate());
        let outs = outcome.actions.iter().filter(|(_, d)| *d > 0).count();
        assert!(outs >= 2, "step change must add instances: {outs}");
        assert!(outcome.final_instances > 1);
        // All queries accounted for despite the churn.
        assert_eq!(
            outcome.report.completed() + outcome.report.unfinished.len(),
            outcome.report.offered
        );
    }

    #[test]
    fn autoscaler_scales_back_in_when_load_drops() {
        let (pool, service) = setup();
        let workload = PhasedArrival::step_change(
            300.0,
            10.0,
            BatchSizeDistribution::production_default(),
            2.0,
            6.0,
            37,
        );
        let scaler = ReactiveAutoscaler::new(AutoscalerOptions {
            cooldown_us: 300_000,
            provisioning_delay_us: 100_000,
            ..Default::default()
        });
        let outcome = scaler.run(&pool, 6, &service, &workload.generate());
        let ins = outcome.actions.iter().filter(|(_, d)| *d < 0).count();
        assert!(ins >= 1, "load drop must remove instances");
        assert!(outcome.final_instances < 6);
    }

    #[test]
    fn autoscaler_respects_bounds_and_cooldown() {
        let (pool, service) = setup();
        let workload = PhasedArrival::step_change(
            30.0,
            2000.0,
            BatchSizeDistribution::production_default(),
            1.0,
            2.0,
            5,
        );
        let scaler = ReactiveAutoscaler::new(AutoscalerOptions {
            max_instances: 3,
            cooldown_us: 500_000,
            ..Default::default()
        });
        let outcome = scaler.run(&pool, 1, &service, &workload.generate());
        assert!(outcome.final_instances <= 3);
        // Actions are at least a cooldown apart.
        for w in outcome.actions.windows(2) {
            assert!(w[1].0 >= w[0].0 + 500_000, "cooldown violated: {w:?}");
        }
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn overprovision_rejects_deflation() {
        static_overprovision(&PoolSpec::new(ec2::paper_pool()), 2.5, 0.5);
    }

    #[test]
    fn autoscaler_rebuys_after_an_outage_and_rides_out_shortages() {
        use kairos_models::FaultEvent;
        let (pool, service) = setup();
        let workload = PhasedArrival::step_change(
            120.0,
            120.0,
            BatchSizeDistribution::production_default(),
            4.0,
            4.0,
            11,
        );
        // The global outage wipes the whole (default-placed) fleet; a
        // capacity shortage right behind it rejects the first rebuys.
        let process = FaultProcess::new(vec![
            FaultEvent::ZoneOutage {
                domain: FailureDomain::global(),
                start_us: 2_000_000,
                duration_us: 1_000_000,
            },
            FaultEvent::CapacityShortage {
                domain: FailureDomain::global(),
                start_us: 2_000_000,
                end_us: 3_500_000,
            },
        ]);
        let scaler = ReactiveAutoscaler::new(AutoscalerOptions {
            cooldown_us: 300_000,
            provisioning_delay_us: 100_000,
            ..Default::default()
        });
        let outcome = scaler.run_with_faults(
            &pool,
            2,
            &service,
            &workload.generate(),
            None,
            (&process, &[]),
        );
        assert_eq!(outcome.report.outages.len(), 1);
        assert!(outcome.report.outages[0].killed_instances >= 1);
        assert!(
            outcome.report.rejected_purchases >= 1,
            "the shortage must reject at least one reactive rebuy"
        );
        // Recovery: the scaler is serving again by the end of the run.
        assert!(outcome.final_instances >= 1);
        assert_eq!(
            outcome.report.completed() + outcome.report.unfinished.len(),
            outcome.report.offered
        );
    }
}
