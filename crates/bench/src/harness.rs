//! Shared experiment harness: everything the per-figure benchmarks need to
//! measure allowable throughput of (model, configuration, scheduler)
//! combinations under the paper's methodology (Sec. 7).
//!
//! Environment knobs:
//! * `KAIROS_FIG_FAST=1` — shrink probe durations and refinement steps so the
//!   whole figure suite completes quickly (used in CI / constrained machines).

use kairos_baselines::{ClockworkScheduler, DrsScheduler, RibbonScheduler};
use kairos_core::{KairosPlanner, KairosScheduler, Plan};
use kairos_models::{
    best_homogeneous, calibration::paper_calibration, ec2, latency::LatencyTable, mlmodel::spec,
    Config, ModelKind, PoolSpec,
};
use kairos_sim::{allowable_throughput, CapacityOptions, FcfsScheduler, Scheduler, ServiceSpec};
use kairos_workload::BatchSizeDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Whether `KAIROS_FIG_FAST=1` asks for the fast (CI smoke) figure mode.
pub(crate) fn fast_mode() -> bool {
    std::env::var("KAIROS_FIG_FAST").is_ok_and(|v| v == "1")
}

/// Tunes the process allocator for multi-gigabyte replay sweeps (the fleet
/// and figure harnesses), so repeated passes reuse heap pages instead of
/// re-faulting them.
///
/// glibc serves large allocations with `mmap` and returns them to the kernel
/// on free; every figure pass then pays the page-fault cost of its trace,
/// record and merge buffers *again*.  On hosts where first-touch faults are
/// slow (lazily backed VMs), that dominates the wall clock of large-scale
/// replays — measured here, re-touching resident pages streams ~40x faster
/// than faulting fresh ones.  Routing large blocks through the `sbrk` heap
/// (`M_MMAP_MAX = 0`) and never trimming it (`M_TRIM_THRESHOLD` maxed)
/// keeps freed pages resident, so each figure pass after the first runs at
/// memory speed.  Worker-thread arenas cannot grow that large; glibc falls
/// back to the main arena for oversized requests, which is exactly the
/// behaviour we want for the few giant buffers involved.
///
/// No-op on non-glibc targets.  Call once at process start, before large
/// allocations.
pub fn tune_allocator_for_replay() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        // glibc <malloc.h> mallopt parameter ids.
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        const M_MMAP_MAX: c_int = -4;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // SAFETY: mallopt only adjusts malloc parameters; it is safe to call
        // from a single thread at startup.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, c_int::MAX);
            // -1 is the documented idiom for "never trim": it sign-extends
            // to SIZE_MAX inside glibc.  A large positive cap (c_int::MAX
            // = ~2 GiB) is NOT enough — our top-of-heap frees exceed it,
            // so every multi-gigabyte buffer would still be returned to
            // the kernel on free and re-faulted on the next pass.
            mallopt(M_TRIM_THRESHOLD, -1);
            mallopt(M_MMAP_MAX, 0);
        }
    }
}

/// Pre-faults `bytes` of heap before a timed large-scale replay.
///
/// [`tune_allocator_for_replay`] keeps freed pages resident, but the *first*
/// pass still pays the first-touch fault for every fresh page, and malloc's
/// layout can shift enough between passes that some multi-gigabyte buffers
/// land on unfaulted memory again.  Touching the working-set size once up
/// front — outside any timed region — and releasing it back to the
/// (never-trimmed) arena means every later allocation is carved from pages
/// the kernel has already backed, making replay timings independent of
/// fault cost and of allocator layout luck.  Sized generously above the
/// replay's peak footprint; the pages stay resident for the process
/// lifetime, so only call this where that working set is actually needed.
pub fn prefault_heap(bytes: usize) {
    tune_allocator_for_replay();
    let mut scratch = vec![0u8; bytes];
    // `vec!` goes through calloc, which skips writing pages that are fresh
    // from the kernel — touch one byte per page to actually fault them.
    for page in scratch.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&mut scratch);
}

/// Which query-distribution scheme to measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// Kairos with latency knowledge already learned (steady-state behaviour;
    /// the paper's long-running system has converged predictors).
    Kairos,
    /// Kairos starting with no latency knowledge (cold-start ablation).
    KairosColdStart,
    /// Ribbon's FCFS-prefer-base distribution.
    Ribbon,
    /// DeepRecSys threshold distribution with the given tuned threshold.
    Drs(u32),
    /// Clockwork-style QoS-aware per-instance-queue controller.
    Clockwork,
    /// Plain FCFS (naive strawman).
    Fcfs,
}

impl SchedulerKind {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Kairos => "KAIROS",
            SchedulerKind::KairosColdStart => "KAIROS(cold)",
            SchedulerKind::Ribbon => "RIBBON",
            SchedulerKind::Drs(_) => "DRS",
            SchedulerKind::Clockwork => "CLKWRK",
            SchedulerKind::Fcfs => "FCFS",
        }
    }
}

/// Builds a fresh scheduler instance of the requested kind.
pub fn scheduler_factory(
    kind: SchedulerKind,
    model: ModelKind,
    latency: &LatencyTable,
) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::Kairos => Box::new(KairosScheduler::with_priors(model, latency)),
        SchedulerKind::KairosColdStart => Box::new(KairosScheduler::new()),
        SchedulerKind::Ribbon => Box::new(RibbonScheduler::new()),
        SchedulerKind::Drs(threshold) => Box::new(DrsScheduler::new(threshold)),
        SchedulerKind::Clockwork => Box::new(ClockworkScheduler::new(model, latency.clone())),
        SchedulerKind::Fcfs => Box::new(FcfsScheduler::new()),
    }
}

/// Everything one experiment needs: pool, model, latency truth, workload and
/// capacity-search settings.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Instance pool (Table 4 by default).
    pub pool: PoolSpec,
    /// Served model.
    pub model: ModelKind,
    /// Ground-truth latency calibration.
    pub latency: LatencyTable,
    /// Hourly cost budget (2.5 $/hr by default, Sec. 7).
    pub budget: f64,
    /// Batch-size mix of the offered load.
    pub batch_sizes: BatchSizeDistribution,
    /// Capacity-search options.
    pub capacity: CapacityOptions,
    /// Seed for sampling batch sizes for the estimator / oracle.
    pub seed: u64,
}

impl ExperimentContext {
    /// Default context for a model: paper pool, calibration, 2.5 $/hr budget,
    /// production-like log-normal batch mix.
    pub fn new(model: ModelKind) -> Self {
        let fast = fast_mode();
        let mut capacity = CapacityOptions::with_seed(97);
        capacity.duration_s = if fast { 1.0 } else { 2.0 };
        capacity.refine_steps = if fast { 3 } else { 4 };
        Self {
            pool: PoolSpec::new(ec2::paper_pool()),
            model,
            latency: paper_calibration(),
            budget: 2.5,
            batch_sizes: BatchSizeDistribution::production_default(),
            capacity,
            seed: 1234,
        }
    }

    /// Context restricted to the three-type pool of Fig. 1.
    pub fn figure1(model: ModelKind) -> Self {
        let mut ctx = Self::new(model);
        ctx.pool = PoolSpec::new(ec2::figure1_pool());
        ctx
    }

    /// The service specification (model + latency truth, no noise).
    pub fn service(&self) -> ServiceSpec {
        ServiceSpec::new(self.model, self.latency.clone())
    }

    /// Samples `n` batch sizes from the offered mix (for the estimator, the
    /// oracle and the DRS threshold tuner).
    pub fn sample(&self, n: usize) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.batch_sizes.sample_many(&mut rng, n)
    }

    /// Capacity options whose workload matches this context.
    fn capacity_options(&self) -> CapacityOptions {
        let mut opts = self.capacity.clone();
        opts.batch_sizes = self.batch_sizes.clone();
        opts
    }

    /// Measures the allowable throughput of a configuration under a scheme.
    pub fn measure_throughput(&self, config: &Config, kind: SchedulerKind) -> f64 {
        let service = self.service();
        let opts = self.capacity_options();
        allowable_throughput(&self.pool, config, &service, &opts, || {
            scheduler_factory(kind, self.model, &self.latency)
        })
        .allowable_qps
    }

    /// Measures the allowable throughput of every candidate configuration
    /// under a scheme, fanning the independent capacity ramps out over the
    /// available cores with rayon.  Results are in candidate order.
    pub fn measure_throughput_many(&self, configs: &[Config], kind: SchedulerKind) -> Vec<f64> {
        configs
            .par_iter()
            .map(|config| self.measure_throughput(config, kind))
            .collect()
    }

    /// Allowable throughput of the optimal homogeneous configuration, scaled
    /// up for its unused budget as the paper does (Sec. 8.1).
    pub fn best_homogeneous_throughput(&self, kind: SchedulerKind) -> f64 {
        let homo = best_homogeneous(&self.pool, self.budget);
        let measured = self.measure_throughput(&homo, kind);
        let cost = homo.cost(&self.pool);
        if cost <= 0.0 {
            return 0.0;
        }
        measured * (self.budget / cost)
    }

    /// The Kairos plan (upper-bound ranking + similarity selection) for this
    /// context's budget, parameterized by an observed batch sample.
    pub fn kairos_plan(&self) -> Plan {
        let planner = KairosPlanner::new(self.pool.clone(), self.model, self.latency.clone());
        planner.plan(self.budget, &self.sample(4000))
    }

    /// A well-tuned DRS threshold for a configuration: the largest batch size
    /// any auxiliary type present in the configuration can serve within QoS
    /// (the value DeepRecSys's hill-climbing sweep converges to, granted here
    /// without charging its tuning overhead — as the paper does).
    pub fn drs_threshold(&self, config: &Config) -> u32 {
        let qos = spec(self.model).qos_ms;
        let mut best = 0u32;
        for (idx, ty) in self.pool.types().iter().enumerate() {
            if ty.is_base || config.count(idx) == 0 {
                continue;
            }
            if let Some(cutoff) = self
                .latency
                .expect(self.model, &ty.name)
                .max_batch_within(qos)
            {
                best = best.max(cutoff);
            }
        }
        if best == 0 {
            // No usable auxiliary instance: everything goes to the base type.
            0
        } else {
            best
        }
    }
}

/// Measures the allowable throughput of `config` under `kind` for `model`
/// with default context settings (convenience wrapper for the benches).
pub fn measure_throughput(model: ModelKind, config: &Config, kind: SchedulerKind) -> f64 {
    ExperimentContext::new(model).measure_throughput(config, kind)
}

/// The scaled optimal-homogeneous throughput for a model (Fig. 8 baseline).
pub fn best_homogeneous_throughput(model: ModelKind) -> f64 {
    ExperimentContext::new(model).best_homogeneous_throughput(SchedulerKind::Fcfs)
}

/// A reproducible batch-size sample for the oracle and estimator analyses.
pub fn oracle_sample(model: ModelKind, n: usize) -> Vec<u32> {
    ExperimentContext::new(model).sample(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_defaults_follow_the_paper() {
        let ctx = ExperimentContext::new(ModelKind::Rm2);
        assert_eq!(ctx.budget, 2.5);
        assert_eq!(ctx.pool.num_types(), 4);
        assert_eq!(ctx.sample(100).len(), 100);
    }

    #[test]
    fn drs_threshold_matches_the_largest_present_cutoff() {
        let ctx = ExperimentContext::new(ModelKind::Wnd);
        // Config with c5n (cutoff ~287) and r5n (cutoff ~173): threshold is c5n's.
        let t = ctx.drs_threshold(&Config::new(vec![1, 1, 1, 0]));
        let c5n = ctx
            .latency
            .expect(ModelKind::Wnd, "c5n.2xlarge")
            .max_batch_within(25.0)
            .unwrap();
        assert_eq!(t, c5n);
        // Homogeneous configuration: no auxiliary, threshold 0.
        assert_eq!(ctx.drs_threshold(&Config::new(vec![4, 0, 0, 0])), 0);
    }

    #[test]
    fn parallel_measurement_matches_sequential() {
        let mut ctx = ExperimentContext::new(ModelKind::Wnd);
        ctx.capacity.duration_s = 0.5;
        ctx.capacity.refine_steps = 2;
        ctx.capacity.max_qps = 500.0;
        let configs = vec![Config::new(vec![1, 0, 0, 0]), Config::new(vec![1, 0, 2, 0])];
        let many = ctx.measure_throughput_many(&configs, SchedulerKind::Fcfs);
        assert_eq!(many.len(), configs.len());
        for (config, qps) in configs.iter().zip(&many) {
            let one = ctx.measure_throughput(config, SchedulerKind::Fcfs);
            assert_eq!(*qps, one, "config {config}");
        }
    }

    #[test]
    fn scheduler_factory_produces_named_schedulers() {
        let table = paper_calibration();
        for (kind, name) in [
            (SchedulerKind::Kairos, "kairos"),
            (SchedulerKind::Ribbon, "ribbon"),
            (SchedulerKind::Drs(100), "drs"),
            (SchedulerKind::Clockwork, "clockwork"),
            (SchedulerKind::Fcfs, "fcfs"),
        ] {
            assert_eq!(scheduler_factory(kind, ModelKind::Wnd, &table).name(), name);
        }
        assert_eq!(SchedulerKind::Kairos.label(), "KAIROS");
    }
}
