//! Allowable-throughput (capacity) search.
//!
//! The paper's main metric is the *allowable throughput*: "To find this
//! allowable throughput, we gradually increase the arrival rate of queries,
//! until the QoS is violated" (Sec. 7).  This module automates that ramp:
//! a geometric probe finds an upper bracket, then a bisection refines the
//! largest sustainable rate to the requested resolution.  Every probe replays
//! a freshly generated trace (same seed, new rate) through the discrete-event
//! engine with a *fresh* scheduler instance, so online-learning overhead is
//! included in every evaluation — exactly as in the paper.
//!
//! Early-exit probes make the ramp cheap without changing a single verdict:
//! every probe runs [`SimEngine::run_qos_probe`], which aborts the replay as
//! soon as the accumulated violations provably exceed the QoS budget — or
//! provably can no longer exceed it — instead of draining the whole backlog.
//!
//! Probing is serial.  Every probe is deterministic and independent of the
//! others, so the order of evaluation cannot change a result; callers that
//! sweep many configurations fan out at their own level.

use crate::cluster::ServiceSpec;
use crate::engine::{SimEngine, SimulationOptions};
use crate::scheduler::Scheduler;
use kairos_models::{Config, PoolSpec};
use kairos_workload::{ArrivalProcess, BatchSizeDistribution, TraceSpec};

/// Options of the capacity search.
#[derive(Debug, Clone)]
pub struct CapacityOptions {
    /// Batch-size mix offered to the system.
    pub batch_sizes: BatchSizeDistribution,
    /// Arrival process template (its rate is overwritten by the ramp).
    pub arrival: ArrivalProcess,
    /// Virtual duration of each probe, in seconds.
    pub duration_s: f64,
    /// Tolerated violation fraction (0.01 reproduces a 99th-percentile QoS).
    pub violation_tolerance: f64,
    /// Lowest rate probed; if even this rate violates QoS the capacity is 0.
    pub min_qps: f64,
    /// Hard cap of the probe rate, to bound the search.
    pub max_qps: f64,
    /// Number of bisection refinement steps after bracketing.
    pub refine_steps: usize,
    /// Seed used for trace generation and service noise (kept constant across
    /// probes: common random numbers make the ramp monotone in practice).
    pub seed: u64,
}

impl Default for CapacityOptions {
    fn default() -> Self {
        Self {
            batch_sizes: BatchSizeDistribution::production_default(),
            arrival: ArrivalProcess::Poisson { rate_qps: 1.0 },
            duration_s: 5.0,
            violation_tolerance: 0.01,
            min_qps: 2.0,
            max_qps: 20_000.0,
            refine_steps: 7,
            seed: 42,
        }
    }
}

impl CapacityOptions {
    /// Convenience: default options with a specific seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// Result of a capacity search.
#[derive(Debug, Clone)]
pub struct CapacityResult {
    /// Largest sustained rate that met QoS (queries per second); 0 when even
    /// the minimum probe rate violated the target.
    pub allowable_qps: f64,
    /// Number of simulation probes performed.
    pub probes: usize,
}

/// Checks whether the configuration sustains the given arrival rate within QoS.
fn sustains_rate<F>(
    pool: &PoolSpec,
    config: &Config,
    service: &ServiceSpec,
    options: &CapacityOptions,
    rate_qps: f64,
    make_scheduler: &mut F,
) -> bool
where
    F: FnMut() -> Box<dyn Scheduler>,
{
    let spec = TraceSpec {
        arrival: options.arrival.with_rate(rate_qps),
        batch_sizes: options.batch_sizes.clone(),
        duration_s: options.duration_s,
        seed: options.seed,
    };
    let trace = spec.generate();
    if trace.is_empty() {
        return true;
    }
    let mut scheduler = make_scheduler();
    SimEngine::new(
        pool,
        config,
        service,
        &trace,
        scheduler.as_mut(),
        &SimulationOptions { seed: options.seed },
    )
    .run_qos_probe(options.violation_tolerance)
}

/// Finds the allowable throughput of `(pool, config, scheduler)` for the given
/// service and workload by ramping the arrival rate.
pub fn allowable_throughput<F>(
    pool: &PoolSpec,
    config: &Config,
    service: &ServiceSpec,
    options: &CapacityOptions,
    mut make_scheduler: F,
) -> CapacityResult
where
    F: FnMut() -> Box<dyn Scheduler>,
{
    assert!(
        options.min_qps > 0.0 && options.max_qps > options.min_qps,
        "invalid rate bounds"
    );
    let mut probes = 0usize;

    // A configuration with no instances serves nothing.
    if config.total_instances() == 0 {
        return CapacityResult {
            allowable_qps: 0.0,
            probes,
        };
    }

    // Probe the minimum rate first.
    probes += 1;
    if !sustains_rate(
        pool,
        config,
        service,
        options,
        options.min_qps,
        &mut make_scheduler,
    ) {
        return CapacityResult {
            allowable_qps: 0.0,
            probes,
        };
    }

    // Geometric ramp until failure or the cap.
    let mut good = options.min_qps;
    let mut bad = None;
    let mut rate = options.min_qps * 2.0;
    while rate <= options.max_qps {
        probes += 1;
        if sustains_rate(pool, config, service, options, rate, &mut make_scheduler) {
            good = rate;
            rate *= 2.0;
        } else {
            bad = Some(rate);
            break;
        }
    }

    let Some(mut bad) = bad else {
        // Never failed below the cap; report the last sustained rate.
        return CapacityResult {
            allowable_qps: good,
            probes,
        };
    };

    // Bisection refinement between the last good and first bad rates.
    for _ in 0..options.refine_steps {
        let mid = (good + bad) / 2.0;
        probes += 1;
        if sustains_rate(pool, config, service, options, mid, &mut make_scheduler) {
            good = mid;
        } else {
            bad = mid;
        }
    }

    CapacityResult {
        allowable_qps: good,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FcfsScheduler;
    use kairos_models::{calibration::paper_calibration, ec2, mlmodel::ModelKind};

    fn quick_options() -> CapacityOptions {
        CapacityOptions {
            duration_s: 1.0,
            refine_steps: 4,
            max_qps: 4_000.0,
            ..CapacityOptions::default()
        }
    }

    fn fcfs_factory() -> Box<dyn Scheduler> {
        Box::new(FcfsScheduler::new())
    }

    #[test]
    fn empty_configuration_has_zero_capacity() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let result = allowable_throughput(
            &pool,
            &Config::new(vec![0, 0, 0, 0]),
            &service,
            &quick_options(),
            fcfs_factory,
        );
        assert_eq!(result.allowable_qps, 0.0);
    }

    #[test]
    fn auxiliary_only_configuration_cannot_serve_large_queries() {
        // r5n.large alone cannot serve the near-cap WND queries within 25 ms,
        // so the standalone allowable throughput is 0 (paper Sec. 4).
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let mut opts = quick_options();
        opts.batch_sizes = BatchSizeDistribution::Uniform {
            min: 500,
            max: 1000,
        };
        let result = allowable_throughput(
            &pool,
            &Config::new(vec![0, 0, 4, 0]),
            &service,
            &opts,
            fcfs_factory,
        );
        assert_eq!(result.allowable_qps, 0.0);
    }

    #[test]
    fn more_gpus_give_more_capacity() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let opts = quick_options();
        let one = allowable_throughput(
            &pool,
            &Config::new(vec![1, 0, 0, 0]),
            &service,
            &opts,
            fcfs_factory,
        );
        let two = allowable_throughput(
            &pool,
            &Config::new(vec![2, 0, 0, 0]),
            &service,
            &opts,
            fcfs_factory,
        );
        assert!(one.allowable_qps > 0.0);
        assert!(
            two.allowable_qps > one.allowable_qps * 1.4,
            "2 GPUs ({}) should clearly beat 1 GPU ({})",
            two.allowable_qps,
            one.allowable_qps
        );
        assert!(one.probes > 2);
    }
}
