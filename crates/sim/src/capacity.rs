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
//! Two optimizations make the ramp cheap without changing a single verdict:
//!
//! * **Early-exit probes** ([`CapacityOptions::early_exit`], on by default):
//!   a probe replay aborts as soon as the accumulated violations provably
//!   exceed the QoS budget — or provably can no longer exceed it — instead
//!   of draining the whole backlog (see [`SimEngine::run_qos_probe`] for the
//!   bound).
//! * **Memoized ramps** ([`CapacityProber`]): a per-`(pool, config)` memo,
//!   keyed by a fingerprint of the pool's interned type names plus the
//!   instance counts, lets
//!   repeated sweeps over overlapping candidate sets — exactly what the
//!   serving loop's replanning produces — reuse prior probes instead of
//!   re-simulating them.

use crate::cluster::ServiceSpec;
use crate::engine::{SimEngine, SimulationOptions};
use crate::scheduler::Scheduler;
use kairos_models::{Config, PoolSpec};
use kairos_workload::{ArrivalProcess, BatchSizeDistribution, TraceSpec};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Mutex;

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
    /// Abort each probe replay as soon as its verdict is provable (identical
    /// verdicts, far less simulated work).  `false` replays every probe to
    /// completion — only useful as a benchmark baseline.
    pub early_exit: bool,
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
            early_exit: true,
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
pub fn sustains_rate<F>(
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
    let engine = SimEngine::new(
        pool,
        config,
        service,
        &trace,
        scheduler.as_mut(),
        &SimulationOptions { seed: options.seed },
    );
    if options.early_exit {
        engine.run_qos_probe(options.violation_tolerance)
    } else {
        engine.run().meets_qos(options.violation_tolerance)
    }
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

/// Memo key of one capacity ramp: a fingerprint of the pool's interned type
/// names plus the configuration's instance counts.  The fingerprint pins
/// every entry to the pool it was measured on (so keys remain meaningful if
/// a memo ever outlives a prober) without cloning the name vector into each
/// key — it is hashed once per prober, not once per lookup.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CapacityKey {
    pool_fingerprint: u64,
    counts: Vec<usize>,
}

/// A capacity-search session over one `(pool, service, workload)`: runs
/// allowable-throughput ramps with a shared per-configuration memo, so
/// sweeping overlapping candidate sets (as the serving loop's repeated
/// replans do) only simulates each configuration once.
///
/// The memo is internally synchronized; [`CapacityProber::throughput_many`]
/// fans candidates out over rayon and all workers share it.
pub struct CapacityProber<'a> {
    pool: &'a PoolSpec,
    service: &'a ServiceSpec,
    options: CapacityOptions,
    pool_fingerprint: u64,
    cache: Mutex<HashMap<CapacityKey, CapacityResult>>,
}

impl<'a> CapacityProber<'a> {
    /// Creates a prober for one pool/service/workload combination.
    pub fn new(pool: &'a PoolSpec, service: &'a ServiceSpec, options: CapacityOptions) -> Self {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for ty in pool.types() {
            ty.name.hash(&mut hasher);
        }
        Self {
            pool,
            service,
            options,
            pool_fingerprint: hasher.finish(),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The capacity-search options in effect.
    pub fn options(&self) -> &CapacityOptions {
        &self.options
    }

    /// Number of memoized configurations.
    pub fn cached(&self) -> usize {
        self.cache.lock().expect("capacity memo poisoned").len()
    }

    fn key(&self, config: &Config) -> CapacityKey {
        CapacityKey {
            pool_fingerprint: self.pool_fingerprint,
            counts: config.counts().to_vec(),
        }
    }

    /// Allowable throughput of one configuration, served from the memo when
    /// this prober has ramped it before.
    pub fn throughput<F>(&self, config: &Config, make_scheduler: F) -> CapacityResult
    where
        F: Fn() -> Box<dyn Scheduler>,
    {
        let key = self.key(config);
        if let Some(hit) = self.cache.lock().expect("capacity memo poisoned").get(&key) {
            return hit.clone();
        }
        let result = allowable_throughput(
            self.pool,
            config,
            self.service,
            &self.options,
            &make_scheduler,
        );
        self.cache
            .lock()
            .expect("capacity memo poisoned")
            .insert(key, result.clone());
        result
    }

    /// Allowable throughput of every candidate (rayon fan-out, shared memo).
    /// Results are returned in candidate order.
    ///
    /// Duplicate candidates are collapsed *before* the fan-out: the memo's
    /// check-then-insert is not an in-flight reservation, so two workers
    /// racing on the same configuration would otherwise both ramp it.
    pub fn throughput_many<F>(&self, configs: &[Config], make_scheduler: F) -> Vec<CapacityResult>
    where
        F: Fn() -> Box<dyn Scheduler> + Sync,
    {
        let mut first_of: HashMap<&Config, usize> = HashMap::with_capacity(configs.len());
        let mut unique: Vec<&Config> = Vec::with_capacity(configs.len());
        let slots: Vec<usize> = configs
            .iter()
            .map(|config| {
                *first_of.entry(config).or_insert_with(|| {
                    unique.push(config);
                    unique.len() - 1
                })
            })
            .collect();
        let results: Vec<CapacityResult> = unique
            .par_iter()
            .map(|config| self.throughput(config, &make_scheduler))
            .collect();
        slots.into_iter().map(|s| results[s].clone()).collect()
    }

    /// Ranks candidates by *measured* allowable throughput, highest first —
    /// the simulation-backed counterpart of the planner's closed-form
    /// `rank_configs`, sharing this prober's memo across calls.
    pub fn rank_measured<F>(&self, configs: &[Config], make_scheduler: F) -> Vec<(Config, f64)>
    where
        F: Fn() -> Box<dyn Scheduler> + Sync,
    {
        let results = self.throughput_many(configs, make_scheduler);
        let mut ranked: Vec<(Config, f64)> = configs
            .iter()
            .cloned()
            .zip(results.into_iter().map(|r| r.allowable_qps))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite throughput"));
        ranked
    }
}

/// Runs [`allowable_throughput`] for every candidate configuration in
/// parallel (rayon fan-out).  Each candidate's ramp is an independent
/// read-only evaluation over the shared pool/service/options, so this is the
/// sweep primitive the planner comparisons and baseline grid searches use.
/// Results are returned in candidate order.
pub fn allowable_throughput_many<F>(
    pool: &PoolSpec,
    configs: &[Config],
    service: &ServiceSpec,
    options: &CapacityOptions,
    make_scheduler: F,
) -> Vec<CapacityResult>
where
    F: Fn() -> Box<dyn Scheduler> + Sync,
{
    CapacityProber::new(pool, service, options.clone()).throughput_many(configs, make_scheduler)
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
    fn parallel_sweep_matches_sequential_ramps() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let opts = quick_options();
        let configs = vec![
            Config::new(vec![1, 0, 0, 0]),
            Config::new(vec![0, 0, 0, 0]),
            Config::new(vec![2, 0, 1, 0]),
        ];
        let swept = allowable_throughput_many(&pool, &configs, &service, &opts, fcfs_factory);
        assert_eq!(swept.len(), configs.len());
        for (config, result) in configs.iter().zip(&swept) {
            let reference = allowable_throughput(&pool, config, &service, &opts, fcfs_factory);
            assert_eq!(
                result.allowable_qps, reference.allowable_qps,
                "config {config}"
            );
            assert_eq!(result.probes, reference.probes);
        }
    }

    #[test]
    fn early_exit_ramp_matches_exhaustive_ramp() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let fast_opts = quick_options();
        assert!(fast_opts.early_exit);
        let slow_opts = CapacityOptions {
            early_exit: false,
            ..quick_options()
        };
        for config in [
            Config::new(vec![1, 0, 0, 0]),
            Config::new(vec![1, 0, 2, 0]),
            Config::new(vec![2, 1, 0, 0]),
        ] {
            let fast = allowable_throughput(&pool, &config, &service, &fast_opts, fcfs_factory);
            let slow = allowable_throughput(&pool, &config, &service, &slow_opts, fcfs_factory);
            assert_eq!(
                fast.allowable_qps, slow.allowable_qps,
                "early exit changed the verdict for {config}"
            );
            assert_eq!(fast.probes, slow.probes);
        }
    }

    #[test]
    fn prober_memoizes_repeat_configurations() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let prober = CapacityProber::new(&pool, &service, quick_options());
        let configs = vec![
            Config::new(vec![1, 0, 0, 0]),
            Config::new(vec![1, 0, 2, 0]),
            Config::new(vec![1, 0, 0, 0]), // duplicate within one sweep
        ];
        let first = prober.throughput_many(&configs, fcfs_factory);
        assert_eq!(prober.cached(), 2, "duplicates share one ramp");
        assert_eq!(first[0].allowable_qps, first[2].allowable_qps);
        // A later overlapping sweep reuses every prior ramp.
        let second = prober.throughput(&configs[1], fcfs_factory);
        assert_eq!(second.allowable_qps, first[1].allowable_qps);
        assert_eq!(prober.cached(), 2);
        // Memoized results equal fresh computation.
        let fresh = allowable_throughput(&pool, &configs[0], &service, &quick_options(), || {
            Box::new(FcfsScheduler::new()) as Box<dyn Scheduler>
        });
        assert_eq!(first[0].allowable_qps, fresh.allowable_qps);
    }

    #[test]
    fn rank_measured_sorts_descending() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let prober = CapacityProber::new(&pool, &service, quick_options());
        let configs = vec![
            Config::new(vec![0, 0, 0, 0]),
            Config::new(vec![2, 0, 0, 0]),
            Config::new(vec![1, 0, 0, 0]),
        ];
        let ranked = prober.rank_measured(&configs, fcfs_factory);
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(ranked[0].0, Config::new(vec![2, 0, 0, 0]));
        assert_eq!(ranked[2].1, 0.0);
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
