//! The simulated heterogeneous serving cluster.
//!
//! A [`Cluster`] instantiates a [`Config`] (instance counts per type) over a
//! [`PoolSpec`] into concrete simulated instances, and a [`ServiceSpec`]
//! couples the served ML model with its ground-truth latency behaviour.
//! Matching the paper's deployment model (Sec. 6), every instance hosts one
//! model replica.  The work an instance holds lives in the engine's service
//! path ([`crate::flex`]), not here: the cluster tracks identity, placement
//! and lifecycle.
//!
//! # Multi-model clusters
//!
//! Every instance is *bound* to the model whose replica it hosts
//! ([`SimInstance::model`], a compact [`ModelId`] index).  A multi-model
//! cluster is described by a [`ClusterSpec`]: one [`Config`] per served
//! model over the same shared [`PoolSpec`], instantiated as the
//! concatenation of the per-model sub-clusters.  The engine rejects any
//! dispatch whose query model differs from the target instance's binding.
//! Single-model deployments go through [`Cluster::new`], which binds every
//! instance to [`ModelId::DEFAULT`] and behaves exactly as before models
//! were first-class.
//!
//! # Dynamic reconfiguration
//!
//! The cluster is no longer fixed for the lifetime of a run: instances can be
//! [added](Cluster::add_instance) (they come online after a provisioning
//! delay) and [retired](Cluster::retire_instance).  Retirement is *graceful*:
//! a draining instance finishes everything already dispatched to it, but
//! accepts no new dispatches; once drained it transitions to
//! [`InstanceLifecycle::Retired`] and stops costing money.
//! Indices are stable — retired instances stay in the instance vector so that
//! completion records and scheduler views never dangle.

use kairos_models::{
    latency::{LatencyProfile, LatencyTable, NoiseModel},
    mlmodel::{spec, ModelKind, ModelSpec},
    Config, PoolSpec,
};
use kairos_workload::{ModelId, TimeUs};
use rand::Rng;
use std::sync::Arc;

/// The ML service being hosted: model identity plus ground-truth latency.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Which model is served (QoS target, batch cap).
    pub model: ModelSpec,
    /// Ground-truth latency profiles per instance type.
    pub latency: LatencyTable,
    /// Runtime latency noise (paper Fig. 16b injects 5 % Gaussian noise).
    pub noise: NoiseModel,
}

impl ServiceSpec {
    /// Creates a deterministic (noise-free) service for a model.
    pub fn new(kind: ModelKind, latency: LatencyTable) -> Self {
        Self {
            model: spec(kind),
            latency,
            noise: NoiseModel::None,
        }
    }

    /// Creates a service with latency noise.
    pub fn with_noise(kind: ModelKind, latency: LatencyTable, noise: NoiseModel) -> Self {
        Self {
            model: spec(kind),
            latency,
            noise,
        }
    }

    /// The ground-truth latency profile for an instance type.  Hot-path
    /// callers resolve each type once and keep the returned profile, so
    /// steady-state service-time math involves no table lookup.
    ///
    /// # Panics
    /// Panics if the (model, instance type) pair has no calibration.
    pub fn profile(&self, instance_name: &str) -> LatencyProfile {
        self.latency.expect(self.model.kind, instance_name)
    }

    /// Actual service time of a batch on an instance type, in microseconds,
    /// with the noise model applied.
    pub fn service_time_us<R: Rng + ?Sized>(
        &self,
        instance_name: &str,
        batch: u32,
        rng: &mut R,
    ) -> TimeUs {
        self.service_time_us_from_profile(&self.profile(instance_name), batch, rng)
    }

    /// [`Self::service_time_us`] with the latency profile already resolved —
    /// the hot-path form (no table lookup).  Both forms share one noise
    /// application and one quantization, so the optimized engine and the
    /// naive reference can never round differently.
    pub fn service_time_us_from_profile<R: Rng + ?Sized>(
        &self,
        profile: &LatencyProfile,
        batch: u32,
        rng: &mut R,
    ) -> TimeUs {
        quantize_service_ms(self.noise.apply(profile.latency_ms(batch), rng))
    }

    /// QoS target in microseconds.
    pub fn qos_us(&self) -> u64 {
        self.model.qos_us()
    }
}

/// Rounds a service latency in milliseconds to the simulator's microsecond
/// clock (at least 1 µs).  The **single** quantization every service-time
/// and nominal-time computation goes through — the bit-identity contract
/// between the optimized engine and the naive reference depends on there
/// being exactly one copy of this formula.
#[inline]
pub fn quantize_service_ms(latency_ms: f64) -> TimeUs {
    (latency_ms * 1000.0).round().max(1.0) as TimeUs
}

/// One model's slice of a multi-model cluster: the model id and the
/// per-type instance counts dedicated to it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPool {
    /// The model every instance of this slice hosts.
    pub model: ModelId,
    /// Instance counts per pool type dedicated to the model.
    pub config: Config,
}

/// Description of a (possibly multi-model) cluster over one shared
/// [`PoolSpec`]: one [`Config`] per served model.  The cluster instantiates
/// the slices in declaration order, so instance indices are grouped by model
/// first, then by type (matching the single-model layout when the spec has
/// one slice).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Per-model sub-cluster configurations.
    pub pools: Vec<ModelPool>,
}

impl ClusterSpec {
    /// A multi-model spec from explicit per-model slices.
    ///
    /// # Panics
    /// Panics if `pools` is empty or two slices bind the same model.
    pub fn new(pools: Vec<ModelPool>) -> Self {
        assert!(!pools.is_empty(), "a cluster spec needs at least one model");
        for (i, a) in pools.iter().enumerate() {
            assert!(
                pools[i + 1..].iter().all(|b| b.model != a.model),
                "duplicate model {} in cluster spec",
                a.model
            );
        }
        Self { pools }
    }

    /// The single-model spec ([`ModelId::DEFAULT`]) a bare [`Config`]
    /// denotes.
    pub fn single(config: Config) -> Self {
        Self {
            pools: vec![ModelPool {
                model: ModelId::DEFAULT,
                config,
            }],
        }
    }

    /// A spec binding `configs[i]` to model `i`, in slice order.
    pub fn from_configs(configs: Vec<Config>) -> Self {
        Self::new(
            configs
                .into_iter()
                .enumerate()
                .map(|(i, config)| ModelPool {
                    model: ModelId::new(i),
                    config,
                })
                .collect(),
        )
    }

    /// One past the largest model index bound by the spec — the length a
    /// dense per-model table (QoS, latency profiles) must have.
    pub fn model_table_len(&self) -> usize {
        self.pools
            .iter()
            .map(|p| p.model.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// Total hourly cost of the spec over a pool.
    pub fn cost(&self, pool: &PoolSpec) -> f64 {
        self.pools.iter().map(|p| p.config.cost(pool)).sum()
    }

    /// Total hourly cost of the spec under a market's prices at a point in
    /// virtual time (see [`kairos_models::Config::cost_at`]).
    pub fn cost_at(&self, market: &dyn kairos_models::Market, at_us: TimeUs) -> f64 {
        self.pools
            .iter()
            .map(|p| p.config.cost_at(market, at_us))
            .sum()
    }
}

/// Lifecycle state of a simulated instance.
///
/// ```text
/// add_instance ──► Active (provisioning until available_from_us, then live)
///                   │ retire_instance         │ market preemption notice
///                   ▼                         ▼
///                Draining                 Preempting (forced drain until
///      (finishes its dispatched work,      the notice deadline, no new
///       no new work)                       work)
///                   │ last held query         │ deadline: held work
///                   │ completes               │ requeued, instance killed
///                   ▼                         ▼
///                Retired                  Preempted
///       (index kept for stability, costs nothing)
///
/// Active ◄──────────► Parked (serverless lane only: keep-alive expired,
///    dispatch pays a       unbilled, still dispatchable — the next
///    cold start to wake    dispatch reactivates it after the cold start)
/// ```
///
/// `Retired` is the graceful exit (the operator chose to give the instance
/// back); `Preempted` is the forced one (the cloud reclaimed it).  Both are
/// terminal and stop billing; they are kept distinct so preemption
/// accounting never conflates the two.  `Parked` is the serverless lane's
/// scale-to-zero state: the container is torn down (no billing) but the slot
/// remains schedulable, and a dispatch wakes it by paying the cold-start
/// latency before service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceLifecycle {
    /// Accepting dispatches (possibly still provisioning; queued work waits
    /// until `available_from_us`).
    Active,
    /// Retirement requested: drains its dispatched work, accepts nothing new.
    Draining,
    /// Fully drained and removed from service.
    Retired,
    /// A preemption notice landed: the instance races to drain until its
    /// kill deadline, accepting nothing new.  Billing continues (the cloud
    /// charges until it actually reclaims the machine).
    Preempting,
    /// Forcibly terminated by the market; any work it still held was
    /// requeued to the central queue.
    Preempted,
    /// Serverless lane: the container idled past its keep-alive deadline and
    /// was torn down.  The slot bills nothing while parked but remains
    /// dispatchable — the next dispatch reactivates it after paying the
    /// cold-start latency.
    Parked,
}

/// One simulated compute instance.
#[derive(Debug, Clone)]
pub struct SimInstance {
    /// Index of this instance in the cluster.
    pub index: usize,
    /// Index of the instance's type in the pool.
    pub type_index: usize,
    /// Cloud name of the type (interned; cloning is a pointer copy).
    pub type_name: Arc<str>,
    /// The model this instance hosts a replica of.  Dispatches for any other
    /// model are rejected by the engine.
    pub model: ModelId,
    /// Whether this is a base-type instance.
    pub is_base: bool,
    /// Lifecycle state (see [`InstanceLifecycle`]).
    pub lifecycle: InstanceLifecycle,
    /// Virtual time from which the instance can start serving (provisioning
    /// or cold-start boundary; 0 for instances present since the start of
    /// the run).
    pub available_from_us: TimeUs,
}

impl SimInstance {
    /// Whether the scheduler may dispatch new work to this instance.  Parked
    /// instances remain dispatchable: the engine wakes them with a cold
    /// start.
    pub fn accepts_dispatches(&self) -> bool {
        matches!(
            self.lifecycle,
            InstanceLifecycle::Active | InstanceLifecycle::Parked
        )
    }

    /// Whether the instance has fully left service gracefully.
    pub fn is_retired(&self) -> bool {
        self.lifecycle == InstanceLifecycle::Retired
    }

    /// Whether the instance was forcibly reclaimed by the market.
    pub fn is_preempted(&self) -> bool {
        self.lifecycle == InstanceLifecycle::Preempted
    }

    /// Whether the instance has terminally left service (retired gracefully
    /// or preempted) and stopped billing.
    pub fn is_terminated(&self) -> bool {
        matches!(
            self.lifecycle,
            InstanceLifecycle::Retired | InstanceLifecycle::Preempted
        )
    }
}

/// A concrete set of simulated instances realizing a configuration,
/// reconfigurable at run time (see the module docs).
#[derive(Debug, Clone)]
pub struct Cluster {
    pool: PoolSpec,
    spec: ClusterSpec,
    /// Interned type names, one per pool type, shared by every instance.
    type_names: Vec<Arc<str>>,
    instances: Vec<SimInstance>,
}

impl Cluster {
    /// Instantiates a single-model configuration over a pool (every instance
    /// bound to [`ModelId::DEFAULT`]).
    ///
    /// # Panics
    /// Panics if the configuration dimension does not match the pool.
    pub fn new(pool: PoolSpec, config: Config) -> Self {
        Self::new_multi(pool, ClusterSpec::single(config))
    }

    /// Instantiates a multi-model cluster spec over a shared pool: the
    /// per-model slices are laid out in spec order, each slice's instances
    /// in type order.
    ///
    /// # Panics
    /// Panics if any slice's configuration dimension does not match the pool.
    pub fn new_multi(pool: PoolSpec, spec: ClusterSpec) -> Self {
        for slice in &spec.pools {
            assert_eq!(
                slice.config.counts().len(),
                pool.num_types(),
                "configuration does not match pool dimensionality"
            );
        }
        let type_names: Vec<Arc<str>> = pool
            .types()
            .iter()
            .map(|ty| Arc::from(ty.name.as_str()))
            .collect();
        let mut instances = Vec::new();
        for slice in &spec.pools {
            for (type_index, &count) in slice.config.counts().iter().enumerate() {
                let ty = &pool.types()[type_index];
                for _ in 0..count {
                    instances.push(SimInstance {
                        index: instances.len(),
                        type_index,
                        type_name: type_names[type_index].clone(),
                        model: slice.model,
                        is_base: ty.is_base,
                        lifecycle: InstanceLifecycle::Active,
                        available_from_us: 0,
                    });
                }
            }
        }
        Self {
            pool,
            spec,
            type_names,
            instances,
        }
    }

    /// Adds an instance of the given pool type bound to
    /// [`ModelId::DEFAULT`], available from `available_from_us`
    /// (provisioning boundary).  Returns the new instance's index.
    ///
    /// # Panics
    /// Panics if `type_index` is out of range for the pool.
    pub fn add_instance(&mut self, type_index: usize, available_from_us: TimeUs) -> usize {
        self.add_instance_for(ModelId::DEFAULT, type_index, available_from_us)
    }

    /// Adds an instance of the given pool type hosting `model`, available
    /// from `available_from_us`.  Returns the new instance's index.
    ///
    /// # Panics
    /// Panics if `type_index` is out of range for the pool.
    pub fn add_instance_for(
        &mut self,
        model: ModelId,
        type_index: usize,
        available_from_us: TimeUs,
    ) -> usize {
        let ty = &self.pool.types()[type_index];
        let index = self.instances.len();
        self.instances.push(SimInstance {
            index,
            type_index,
            type_name: self.type_names[type_index].clone(),
            model,
            is_base: ty.is_base,
            lifecycle: InstanceLifecycle::Active,
            available_from_us,
        });
        index
    }

    /// Requests graceful retirement of an instance: it stops accepting
    /// dispatches immediately, finishes the work it holds, and transitions
    /// to [`InstanceLifecycle::Retired`] once drained — immediately if
    /// `drained` (it holds no work; the engine knows).  Returns `true` if
    /// the instance is fully retired on return.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn retire_instance(&mut self, index: usize, drained: bool) -> bool {
        let inst = &mut self.instances[index];
        if inst.is_terminated() {
            return true;
        }
        if inst.lifecycle == InstanceLifecycle::Preempting {
            // Already racing its kill deadline; retirement is moot.
            return false;
        }
        if drained {
            inst.lifecycle = InstanceLifecycle::Retired;
            true
        } else {
            inst.lifecycle = InstanceLifecycle::Draining;
            false
        }
    }

    /// Marks a draining instance as retired.  Called by the engine once a
    /// completion leaves the instance holding no work.  Returns `true` if
    /// the instance transitioned to retired in this call.
    pub(crate) fn settle_drained(&mut self, index: usize) -> bool {
        let inst = &mut self.instances[index];
        if inst.lifecycle == InstanceLifecycle::Draining {
            inst.lifecycle = InstanceLifecycle::Retired;
            true
        } else {
            false
        }
    }

    /// Instance counts per pool type over dispatch-accepting instances bound
    /// to `model` — the per-model diff target of a multi-model driver.
    pub fn active_counts_for(&self, model: ModelId) -> Vec<usize> {
        let mut counts = vec![0usize; self.pool.num_types()];
        for inst in &self.instances {
            if inst.model == model && inst.accepts_dispatches() {
                counts[inst.type_index] += 1;
            }
        }
        counts
    }

    /// The currently dispatch-accepting instances bound to `model` as a
    /// [`Config`].
    pub fn active_config_for(&self, model: ModelId) -> Config {
        Config::new(self.active_counts_for(model))
    }

    /// The pool specification the cluster was built from.
    pub fn pool(&self) -> &PoolSpec {
        &self.pool
    }

    /// The interned type names, one per pool type (indexed by type index).
    /// This is the mapping handed to schedulers via
    /// [`crate::Scheduler::bind_types`].
    pub fn type_names(&self) -> &[Arc<str>] {
        &self.type_names
    }

    /// The full multi-model spec the cluster was instantiated from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the cluster has no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Immutable access to the instances.
    pub fn instances(&self) -> &[SimInstance] {
        &self.instances
    }

    /// Mutable access to the instances (used by the engine).
    pub fn instances_mut(&mut self) -> &mut [SimInstance] {
        &mut self.instances
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::{calibration::paper_calibration, ec2};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool() -> PoolSpec {
        PoolSpec::new(ec2::paper_pool())
    }

    #[test]
    fn cluster_instantiates_counts_in_type_order() {
        let cluster = Cluster::new(pool(), Config::new(vec![2, 1, 0, 3]));
        assert_eq!(cluster.len(), 6);
        assert_eq!(&*cluster.instances()[0].type_name, "g4dn.xlarge");
        assert!(cluster.instances()[0].is_base);
        assert_eq!(&*cluster.instances()[2].type_name, "c5n.2xlarge");
        assert_eq!(&*cluster.instances()[5].type_name, "t3.xlarge");
        assert!(cluster.instances().iter().all(|i| i.accepts_dispatches()));
    }

    #[test]
    fn type_names_are_interned_across_instances() {
        let cluster = Cluster::new(pool(), Config::new(vec![2, 0, 0, 0]));
        let a = &cluster.instances()[0].type_name;
        let b = &cluster.instances()[1].type_name;
        assert!(Arc::ptr_eq(a, b), "same type must share one allocation");
    }

    #[test]
    fn add_instance_appends_with_provisioning_boundary() {
        let mut cluster = Cluster::new(pool(), Config::new(vec![1, 0, 0, 0]));
        let idx = cluster.add_instance(2, 500_000);
        assert_eq!(idx, 1);
        let inst = &cluster.instances()[idx];
        assert_eq!(&*inst.type_name, "r5n.large");
        assert_eq!(inst.available_from_us, 500_000);
        assert!(inst.accepts_dispatches());
        assert_eq!(
            cluster.active_counts_for(ModelId::DEFAULT),
            vec![1, 0, 1, 0]
        );
    }

    #[test]
    fn idle_instance_retires_immediately_and_stops_billing() {
        let mut cluster = Cluster::new(pool(), Config::new(vec![2, 0, 0, 0]));
        assert!(cluster.retire_instance(1, true));
        assert!(cluster.instances()[1].is_retired());
        assert_eq!(
            cluster.active_counts_for(ModelId::DEFAULT),
            vec![1, 0, 0, 0]
        );
        // Retiring again is a no-op.
        assert!(cluster.retire_instance(1, false));
    }

    #[test]
    fn busy_instance_drains_before_retiring() {
        let mut cluster = Cluster::new(pool(), Config::new(vec![1, 0, 0, 0]));
        assert!(!cluster.retire_instance(0, false));
        let inst = &cluster.instances()[0];
        assert_eq!(inst.lifecycle, InstanceLifecycle::Draining);
        assert!(!inst.accepts_dispatches());
        assert!(!inst.is_retired());
        // Still billed while draining.
        assert!(!inst.is_terminated());
        // Drained: settling retires it, which stops its billing.
        assert!(cluster.settle_drained(0));
        assert!(cluster.instances()[0].is_retired());
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn cluster_rejects_mismatched_config() {
        Cluster::new(pool(), Config::new(vec![1, 1]));
    }

    #[test]
    fn service_spec_latency_and_qos() {
        let svc = ServiceSpec::new(ModelKind::Rm2, paper_calibration());
        assert_eq!(svc.qos_us(), 350_000);
        let lat = svc.profile("g4dn.xlarge").latency_ms(100);
        assert!((lat - (60.0 + 0.24 * 100.0)).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(svc.service_time_us("g4dn.xlarge", 100, &mut rng), 84_000);
    }

    #[test]
    fn noisy_service_time_varies_but_stays_positive() {
        let svc = ServiceSpec::with_noise(
            ModelKind::Wnd,
            paper_calibration(),
            NoiseModel::Gaussian { std_fraction: 0.05 },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let times: Vec<TimeUs> = (0..100)
            .map(|_| svc.service_time_us("r5n.large", 50, &mut rng))
            .collect();
        assert!(times.iter().all(|&t| t > 0));
        let distinct: std::collections::HashSet<_> = times.iter().collect();
        assert!(distinct.len() > 10, "noise should spread service times");
    }

    #[test]
    fn multi_model_spec_lays_out_slices_in_order() {
        let spec = ClusterSpec::from_configs(vec![
            Config::new(vec![1, 0, 2, 0]),
            Config::new(vec![1, 1, 0, 0]),
        ]);
        assert_eq!(spec.model_table_len(), 2);
        let cluster = Cluster::new_multi(pool(), spec.clone());
        assert_eq!(cluster.len(), 5);
        let models: Vec<usize> = cluster
            .instances()
            .iter()
            .map(|i| i.model.index())
            .collect();
        assert_eq!(models, vec![0, 0, 0, 1, 1]);
        assert_eq!(cluster.active_counts_for(ModelId::new(0)), vec![1, 0, 2, 0]);
        assert_eq!(cluster.active_counts_for(ModelId::new(1)), vec![1, 1, 0, 0]);
        // A per-model addition lands on the right binding.
        let mut cluster = cluster;
        let idx = cluster.add_instance_for(ModelId::new(1), 3, 1_000);
        assert_eq!(cluster.instances()[idx].model, ModelId::new(1));
        assert_eq!(
            cluster.active_config_for(ModelId::new(1)).counts(),
            &[1, 1, 0, 1]
        );
    }

    #[test]
    fn single_model_cluster_binds_everything_to_the_default_model() {
        let cluster = Cluster::new(pool(), Config::new(vec![1, 1, 0, 0]));
        assert!(cluster
            .instances()
            .iter()
            .all(|i| i.model == ModelId::DEFAULT));
        assert_eq!(cluster.spec().pools.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate model")]
    fn duplicate_model_slices_rejected() {
        ClusterSpec::new(vec![
            ModelPool {
                model: ModelId::DEFAULT,
                config: Config::new(vec![1, 0, 0, 0]),
            },
            ModelPool {
                model: ModelId::DEFAULT,
                config: Config::new(vec![0, 1, 0, 0]),
            },
        ]);
    }
}
