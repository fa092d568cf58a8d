//! Discrete-event simulation engine.
//!
//! The engine plays a [`Trace`] of queries against a [`Cluster`] under a
//! pluggable [`Scheduler`] policy, using a virtual clock in microseconds.
//! It reproduces the serving model of the paper's implementation (Sec. 6):
//! a central controller receives all queries and decides the
//! query-to-instance mapping, and each instance serves the work dispatched
//! to it through one service path ([`crate::flex`]).  That path's default
//! setting is the paper's: one query at a time, in dispatch order.  Fair
//! throughput sharing and dynamic batching are other settings of the same
//! path, not separate code.
//!
//! Events are query arrivals, invocation completions and the timed events
//! of the attached extensions; the scheduler is consulted after every event
//! so it can react to freed capacity immediately.
//!
//! # Hot-path architecture
//!
//! [`SimEngine`] owns the clock, the event sources, the central queue, the
//! cluster and the RNG, and exposes `step()` / `run()` / `report()` so
//! callers (the capacity search, Kairos+, the baseline searches and the
//! bench harness) all drive simulations through one API.  Steady-state
//! serial service performs **zero heap allocations** (the batcher allocates
//! one member list per fused invocation); per-event work is proportional to
//! the instances the event touches plus — only on rounds where queries are
//! actually waiting — an O(idle instances) clock clamp, never a
//! full-cluster, queue-walking sweep.
//! The moving parts (see DESIGN.md, "Hot-path architecture"):
//!
//! * **Arrival cursor + event calendar** — trace arrivals are never
//!   materialized as heap entries: the engine walks the (sorted) query
//!   vector with a cursor.  The few genuinely dynamic events (one
//!   completion per busy instance, one `Ready` per provisioning action) live
//!   in a bucketed [calendar queue](crate::calendar) tuned to the trace's
//!   arrival granularity.
//! * **Incremental views** — each [`InstanceView`] is updated at the moment
//!   its instance changes (dispatch, admission, completion, lifecycle),
//!   never by sweeping the cluster.  An instance that cannot take a
//!   dispatch frees up at its frontmost invocation's scheduled finish plus
//!   the nominal service times of its queued invocations; dispatchable
//!   instances' `free_at_us` tracks the clock lazily via the idle index.
//! * **Idle-instance index** — the engine maintains the dispatchable
//!   instances as a sorted index ([`SchedulingContext::idle`]), split into a
//!   free list (boundary passed, sorted by instance index) and a pending
//!   list (still provisioning, sorted by ready time); entries migrate as the
//!   clock passes their provisioning boundary.
//! * **Scratch buffers** — the dispatch plan, the duplicate-dispatch marks
//!   (generation-stamped, never cleared), and the removal sweep all reuse
//!   engine-owned buffers; [`Scheduler::schedule_into`] lets policies fill
//!   the plan without allocating.
//! * **Interned latency profiles** — per-type [`LatencyProfile`]s are
//!   resolved once at construction, so service-time math involves no string
//!   hashing.
//!
//! [`SimEngine::recompute_views`] and [`SimEngine::recompute_idle`] rebuild
//! the views and the idle index from the per-instance service state from
//! scratch — the oracle the incremental state is tested against.
//! `kairos_testkit::run_trace_naive`, the original per-event full rebuild
//! with its own per-instance FIFOs, is the independent reference for whole
//! reports and the baseline for the `simulator` Criterion bench.
//!
//! # Online reconfiguration
//!
//! The engine is not a closed trace replayer: an external driver can observe
//! every event and mutate the cluster mid-run.  Two mechanisms exist:
//!
//! * **Stepping** — [`SimEngine::step_event`] processes one event and returns
//!   an owned [`EngineEvent`] describing it; between steps the driver may
//!   call [`SimEngine::add_instance`] / [`SimEngine::retire_instance`] (or
//!   [`SimEngine::apply`] with [`ClusterAction`]s).  This is how
//!   `kairos_core::InferenceService::run` runs the Kairos controller in the
//!   loop.
//! * **Hooks** — [`SimEngine::run_with_hook`] drives the run to completion,
//!   handing every event (plus a cluster snapshot) to an [`EngineHook`]
//!   whose returned actions are applied before the next event.
//!
//! Added instances come online after a provisioning delay (a dedicated
//! `Ready` event re-consults the scheduler the instant capacity appears);
//! retired instances drain gracefully and never receive new dispatches.  The
//! incremental views and idle index stay bit-identical to a from-scratch
//! recomputation across any interleaving of reconfiguration actions — this
//! invariant is enforced by `tests/proptest_reconfig.rs`.

use crate::calendar::{EventCalendar, TimedEvent, TimedKind};
use crate::cluster::{Cluster, ClusterSpec, InstanceLifecycle, ServiceSpec};
use crate::flex::{ActiveUnit, BatchingOptions, FlexConfig, FlexState, SharingMode, WorkUnit};
use crate::scheduler::{Dispatch, InstanceView, Scheduler, SchedulingContext};
use crate::serverless::{ServerlessConfig, ServerlessState};
use crate::stats::{OutageRecord, QueryRecord, ServiceStats, SimReport, UnfinishedQuery};
use kairos_models::fault::{
    FailureDomain, FaultEvent, FaultProcess, PurchaseRejected, RejectionCause,
};
use kairos_models::latency::LatencyProfile;
use kairos_models::market::{billed_dollars, Market, MarketEvent};
use kairos_models::mlmodel::ModelKind;
use kairos_models::serverless::IdleHistogram;
use kairos_models::{Config, PoolSpec};
use kairos_workload::{ModelId, Query, TimeUs, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::Arc;

/// Options controlling one simulation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulationOptions {
    /// Seed of the service-time noise RNG (ignored when the service is
    /// deterministic, which is the paper's default).
    pub seed: u64,
}

/// A materialized fault-process occurrence: one boundary of a correlated
/// event, scheduled on the calendar exactly like a market event.  Outage and
/// shortage windows split into start/end boundaries at attach time so the
/// hot loop only ever applies instantaneous state flips.
#[derive(Debug, Clone)]
enum FaultOccurrence {
    /// A zone outage begins: every live instance placed in `domain` gets a
    /// notice and races the kill deadline; purchases there are rejected.
    OutageStart {
        domain: FailureDomain,
        end_us: TimeUs,
    },
    /// The domain comes back; purchases there succeed again.
    OutageEnd { domain: FailureDomain },
    /// Purchases in `domain` start returning [`PurchaseRejected`].
    ShortageStart { domain: FailureDomain },
    /// The shortage lifts.
    ShortageEnd { domain: FailureDomain },
    /// The lowest-indexed healthy live instance of `offering` degrades to
    /// `slowdown` of its nominal throughput.
    StragglerOnset { offering: usize, slowdown: f64 },
}

/// Owned description of one processed engine event, handed to external
/// drivers (the serving loop, autoscalers, hooks).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A query arrived at the central queue.
    Arrival {
        /// The arriving query.
        query: Query,
    },
    /// A previously added instance finished provisioning and is now live.
    InstanceReady {
        /// Index of the instance that came online.
        instance_index: usize,
    },
    /// A market price step took effect (market-attached runs only).  Billing
    /// picks it up automatically; drivers typically replan.
    PriceStep {
        /// Index of the offering (pool type) whose price changed.
        offering: usize,
        /// The new hourly price.
        price_per_hour: f64,
    },
    /// The market announced reclamation of an offering's capacity: every
    /// live instance of that offering stopped accepting dispatches and races
    /// to drain until the deadline.
    PreemptionNotice {
        /// Index of the offering (pool type) being reclaimed.
        offering: usize,
        /// Number of instances the notice hit.
        affected: usize,
        /// Virtual time of the forced kill.
        deadline_us: TimeUs,
    },
    /// A preemption deadline fired: the instance was killed and whatever it
    /// still held (in service, queued or forming) was requeued to the
    /// central queue.
    InstancePreempted {
        /// Index of the killed instance.
        instance_index: usize,
        /// Queries returned to the central queue.
        requeued: usize,
    },
    /// An invocation finished service: every member query of it (one under
    /// serial service, several for a fused batch) — and of any other
    /// invocation whose finish volume was reached at the same instant —
    /// completed at once.
    Completions {
        /// Index of the instance whose invocation(s) finished.
        instance_index: usize,
        /// The completed members' records, in completion order, as a range
        /// of [`SimEngine::records`] (no per-completion allocation).
        records: Range<usize>,
        /// Type name of the serving instance.
        type_name: Arc<str>,
    },
    /// A dynamic batcher's timeout fired an undersized forming batch as one
    /// fused invocation.
    BatchFired {
        /// Index of the instance whose forming batch fired.
        instance_index: usize,
        /// Queries fused into the fired invocation.
        members: usize,
    },
    /// A zone outage began: every live instance placed in the failed domain
    /// got a preemption-style notice and races the kill deadline, and
    /// purchases in the domain are rejected until the zone restores.
    ZoneOutage {
        /// The failed domain.
        domain: FailureDomain,
        /// Number of instances the notice hit.
        affected: usize,
        /// Virtual time of the forced kills.
        deadline_us: TimeUs,
    },
    /// A failed domain came back online: purchases there succeed again.
    ZoneRestored {
        /// The restored domain.
        domain: FailureDomain,
    },
    /// A capacity-shortage window toggled in a domain: while active,
    /// purchases there return a typed
    /// [`PurchaseRejected`].
    CapacityShortage {
        /// The constrained domain.
        domain: FailureDomain,
        /// Whether the shortage just began (`true`) or lifted (`false`).
        active: bool,
    },
    /// A straggler onset degraded an instance's throughput mid-run.
    StragglerOnset {
        /// The victim instance — `None` when no healthy instance of the
        /// offering was live at onset (the fault fizzles).
        victim: Option<usize>,
        /// The applied throughput multiplier (fraction of nominal, (0, 1]).
        slowdown: f64,
    },
    /// A serverless instance idled past its keep-alive deadline and parked:
    /// its bill settled on the spot, and it costs nothing until the next
    /// dispatch wakes it with a cold start.
    InstanceParked {
        /// Index of the parked instance.
        instance_index: usize,
    },
}

/// A cluster mutation requested by an external driver or [`EngineHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterAction {
    /// Add an instance of the given pool type; it comes online after the
    /// provisioning delay.
    AddInstance {
        /// Index of the instance type within the pool.
        type_index: usize,
        /// Time between the action and the instance accepting work.
        provisioning_delay_us: TimeUs,
    },
    /// Gracefully retire the instance at the given index.
    RetireInstance {
        /// Index of the instance within the cluster.
        instance_index: usize,
    },
}

/// Observer-and-actuator interface for [`SimEngine::run_with_hook`]: after
/// every event the hook sees what happened plus the current cluster state,
/// and returns cluster actions the engine applies before the next event.
pub trait EngineHook {
    /// Called after every processed event.  `now_us` is the engine clock.
    fn on_event(
        &mut self,
        now_us: TimeUs,
        event: &EngineEvent,
        cluster: &Cluster,
    ) -> Vec<ClusterAction>;
}

/// The seed of model `m`'s service-time noise RNG stream, split
/// deterministically from the run seed.  Model 0 keeps the run seed
/// verbatim — every single-model artifact (and the primary lane of a
/// multi-model run) stays bit-identical to the pre-sharding engine — and
/// higher models get splitmix64-style mixed streams so per-lane shards and
/// the combined engine draw identical noise sequences per lane.
pub fn model_stream_seed(seed: u64, model: usize) -> u64 {
    if model == 0 {
        return seed;
    }
    // splitmix64 finalizer over the (seed, model) pair.
    let mut z = seed
        .wrapping_add((model as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nominal (noise-free) service time of a batch in rounded microseconds,
/// from a pre-resolved latency profile (no table lookup) — the unit of the
/// incremental `free_at_us` accounting, rounded as [`ServiceSpec`] rounds.
#[inline]
fn nominal_us_profile(profile: &LatencyProfile, batch: u32) -> TimeUs {
    crate::cluster::quantize_service_ms(profile.latency_ms(batch))
}

/// `x.ceil()` for a non-negative `x` below 2^63, without the libm call
/// (one conversion instruction each way).  Exact on whole numbers, so a
/// finish derived from whole microseconds of volume at rate 1 stays exact.
fn ceil_us(x: f64) -> TimeUs {
    let whole = x as i64;
    (if (whole as f64) < x { whole + 1 } else { whole }) as TimeUs
}

/// The discrete-event serving simulator.
///
/// Owns all mutable simulation state; every event advances the virtual clock,
/// applies the event, and consults the scheduler.  Construct one engine per
/// `(configuration, trace, scheduler)` run:
///
/// ```
/// use kairos_models::{calibration::paper_calibration, ec2, Config, PoolSpec, ModelKind};
/// use kairos_sim::{FcfsScheduler, ServiceSpec, SimEngine, SimulationOptions};
/// use kairos_workload::TraceSpec;
///
/// let pool = PoolSpec::new(ec2::paper_pool());
/// let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
/// let trace = TraceSpec::production(50.0, 1.0, 7).generate();
/// let mut scheduler = FcfsScheduler::new();
/// let engine = SimEngine::new(
///     &pool,
///     &Config::new(vec![1, 0, 1, 0]),
///     &service,
///     &trace,
///     &mut scheduler,
///     &SimulationOptions::default(),
/// );
/// let report = engine.run();
/// assert_eq!(report.offered, trace.len());
/// ```
pub struct SimEngine<'a> {
    /// Served models' specifications, indexed by [`ModelId`] (one entry for
    /// single-model runs).
    services: Vec<&'a ServiceSpec>,
    scheduler: &'a mut dyn Scheduler,
    cluster: Cluster,
    /// Per-model service-time noise RNG streams, indexed by [`ModelId`] and
    /// split deterministically from the seed (see [`model_stream_seed`]):
    /// model `m` draws only from stream `m`, so a per-model-lane shard
    /// replays exactly the draws the combined run spends on that lane.
    rngs: Vec<StdRng>,
    /// Per-`(model, type)` latency profiles, resolved once and flattened as
    /// `model × num_types + type`, so the hot path never hashes a type or
    /// model name.
    profiles: Vec<LatencyProfile>,
    /// Number of pool types (the stride of [`Self::profiles`]).
    num_types: usize,
    /// Trace arrivals sorted by `(arrival_us, trace order)`; the implicit
    /// event sequence number of `arrivals[i]` is `i`.
    arrivals: Vec<Query>,
    next_arrival: usize,
    /// Timed events: completions and provisioning `Ready` boundaries.
    calendar: EventCalendar,
    seq: u64,
    /// Central-queue storage.  The live queue is `central_queue[queue_head..]`:
    /// dispatching a *prefix* of the queue (the common FCFS-style pattern)
    /// advances the head in O(1) instead of shifting thousands of survivors,
    /// and the dead prefix is compacted away amortized-O(1).
    central_queue: Vec<Query>,
    queue_head: usize,
    records: Vec<QueryRecord>,
    /// Persistent scheduler views, updated at the moment an instance changes.
    /// Idle entries' `free_at_us` is clamped to the clock lazily, per
    /// scheduling round, via the idle index (see `prepare_round`).
    views: Vec<InstanceView>,
    /// Dispatchable instances whose provisioning boundary has passed,
    /// sorted by instance index.
    idle_free: Vec<u32>,
    /// Dispatchable instances still provisioning, sorted by
    /// `(available_from_us, instance index)`.
    idle_pending: Vec<u32>,
    /// Concatenation of the two lists handed to the scheduler each round.
    idle_ctx: Vec<u32>,
    /// Reusable dispatch-plan buffer (filled by `Scheduler::schedule_into`).
    scratch_plan: Vec<Dispatch>,
    /// Reusable removal-sweep index buffer.
    scratch_removed: Vec<usize>,
    /// Generation-stamped duplicate-dispatch marks: `marks[q] == round`
    /// means query `q` was already dispatched this round.  Grows with the
    /// deepest queue seen and is never cleared.
    dispatch_marks: Vec<u64>,
    round: u64,
    /// Completions within / beyond the QoS target so far (for early-exit
    /// capacity probes; see [`SimEngine::run_qos_probe`]).
    on_time_completions: usize,
    late_completions: usize,
    now: TimeUs,
    last_event: TimeUs,
    offered: usize,
    trace_duration_us: TimeUs,
    /// The attached market (None = the static constant-price model; billing
    /// then uses the pool's listed prices, same formula, bit-for-bit).
    market: Option<&'a dyn Market>,
    /// Market events materialized at attach time; calendar `Market` entries
    /// index into this table.
    market_events: Vec<MarketEvent>,
    /// Per-instance billing start (the moment the instance was requested).
    /// `u64::MAX` marks an instance whose bill has been settled.
    billed_start_us: Vec<TimeUs>,
    /// Dollars settled so far, as per-model partial sums indexed by
    /// [`ModelId`] (each instance's bill lands in its model's slot, in
    /// settlement order).  The report's total is the left fold of these
    /// partials — bit-identical to the old flat accumulator for
    /// single-model runs, and the representation that makes shard merges
    /// reproduce the combined total exactly (disjoint slots add exact
    /// zeros).
    billed_by_model: Vec<f64>,
    /// Accuracy of the variant currently serving each model, indexed by
    /// [`ModelId`] — seeded from the service specs' reference accuracy and
    /// overwritten by [`SimEngine::set_model_profiles`] on a variant switch.
    accuracy_by_model: Vec<f64>,
    /// Sum over completed queries of the serving accuracy at completion
    /// time, as per-model partial sums indexed by [`ModelId`] — the same
    /// disjoint-slot representation as [`Self::billed_by_model`], so shard
    /// merges reproduce the combined sums exactly.
    accuracy_sum_by_model: Vec<f64>,
    /// Events processed so far (arrivals, completions, readies, market
    /// steps, kills; cancelled completions are skipped, not counted).
    events_processed: u64,
    preemption_notices: usize,
    preempted_instances: usize,
    requeued_queries: usize,
    /// Materialized fault occurrences; calendar `Fault` entries index into
    /// this table.
    fault_events: Vec<FaultOccurrence>,
    /// Failure-domain placement of each pool type (the global domain unless
    /// a fault process names placements).
    placements: Vec<FailureDomain>,
    /// Notice→kill drain window granted to outage victims.
    fault_notice_us: TimeUs,
    /// Domains currently inside an outage window (purchases rejected,
    /// membership wiped at onset).
    active_outages: Vec<FailureDomain>,
    /// Domains currently inside a capacity-shortage window.
    active_shortages: Vec<FailureDomain>,
    /// Per-instance outage attribution: `outage_victim[i]` is 1 + the index
    /// of the outage record whose notice doomed instance `i` (0 = none).
    outage_victim: Vec<u32>,
    /// Per-instance throughput multiplier (1.0 = healthy; a straggler's
    /// service stretches by `1 / slowdown`).  Without a fault process every
    /// entry stays 1.0, and `rate * 1.0` is exact, so the fault-free engine
    /// is bit-identical to one with no fault path (`tests/proptest_fault.rs`
    /// pins that contract).
    slowdown: Vec<f64>,
    /// One record per zone outage gone through, in onset order.
    outage_records: Vec<OutageRecord>,
    /// Purchases rejected by outage/shortage admission control.
    rejected_purchases: usize,
    /// Straggler onsets that found a live victim.
    straggler_onsets: usize,
    /// QoS target of the primary ([`ModelId::DEFAULT`]) model.
    qos_us: u64,
    /// Per-model QoS targets, indexed by [`ModelId`] — an array load on the
    /// completion path, never a string lookup.
    qos_by_model: Vec<u64>,
    /// Service-path configuration (sharing / batching knobs); the default
    /// is the paper's serial service.
    flex: FlexConfig,
    /// Per-instance service state: every dispatched query lives here until
    /// it completes (or a kill requeues it).
    flex_states: Vec<FlexState>,
    /// Queries dispatched to instances but not yet admitted to service
    /// (forming batches plus admission queues) — the instances' share of
    /// [`Self::queued_backlog`].
    flex_waiting: usize,
    /// Serverless-lane configuration (keep-alive policies + cold-start
    /// costs).  `None` keeps every instance on the always-billed
    /// path, bit-for-bit (`tests/proptest_serverless.rs` pins that
    /// contract).
    serverless: Option<ServerlessConfig>,
    /// Per-instance serverless state; empty unless [`Self::serverless`] is
    /// set.
    serverless_states: Vec<ServerlessState>,
    /// Per-model observed idle-gap histograms feeding the hybrid keep-alive
    /// policy; empty unless [`Self::serverless`] is set.
    idle_histograms: Vec<IdleHistogram>,
    /// Batcher, serverless and parking counters of the run; the three
    /// calendar counts are filled in from the calendar at report time.
    service: ServiceStats,
}

impl<'a> SimEngine<'a> {
    /// Builds an engine for one simulation of `trace` against `config` on
    /// `pool` serving `service`, distributing queries with `scheduler`.
    pub fn new(
        pool: &PoolSpec,
        config: &Config,
        service: &'a ServiceSpec,
        trace: &Trace,
        scheduler: &'a mut dyn Scheduler,
        options: &SimulationOptions,
    ) -> Self {
        Self::build(
            pool,
            ClusterSpec::single(config.clone()),
            vec![service],
            trace,
            scheduler,
            options,
        )
    }

    /// Builds an engine for a **multi-model** simulation: `spec` binds each
    /// served model's sub-cluster over the shared pool, and `services[m]` is
    /// the specification (QoS target, ground-truth latency, noise) of model
    /// `m`.  QoS and service times resolve per query model; dispatches whose
    /// query model differs from the target instance's binding are rejected.
    ///
    /// # Panics
    /// Panics if a spec slice binds a model with no entry in `services`.
    pub fn new_multi(
        pool: &PoolSpec,
        spec: &ClusterSpec,
        services: &[&'a ServiceSpec],
        trace: &Trace,
        scheduler: &'a mut dyn Scheduler,
        options: &SimulationOptions,
    ) -> Self {
        assert!(
            spec.model_table_len() <= services.len(),
            "cluster spec binds model {} but only {} services are given",
            spec.model_table_len() - 1,
            services.len()
        );
        Self::build(
            pool,
            spec.clone(),
            services.to_vec(),
            trace,
            scheduler,
            options,
        )
    }

    fn build(
        pool: &PoolSpec,
        spec: ClusterSpec,
        services: Vec<&'a ServiceSpec>,
        trace: &Trace,
        scheduler: &'a mut dyn Scheduler,
        options: &SimulationOptions,
    ) -> Self {
        let cluster = Cluster::new_multi(pool.clone(), spec);
        scheduler.bind_types(cluster.type_names());
        let models: Vec<ModelKind> = services.iter().map(|s| s.model.kind).collect();
        scheduler.bind_models(&models);
        let num_types = cluster.type_names().len();
        let profiles: Vec<LatencyProfile> = services
            .iter()
            .flat_map(|service| {
                cluster
                    .type_names()
                    .iter()
                    .map(|name| service.profile(name))
            })
            .collect();
        let qos_by_model: Vec<u64> = services.iter().map(|s| s.qos_us()).collect();

        let mut arrivals = trace.queries.clone();
        // Traces are sorted by construction; a hand-assembled out-of-order
        // trace is restored to the event order the reference heap would use
        // ((arrival time, trace position), stable).
        if !arrivals
            .windows(2)
            .all(|w| w[0].arrival_us <= w[1].arrival_us)
        {
            arrivals.sort_by_key(|q| q.arrival_us);
        }
        let mean_gap_us = if arrivals.len() > 1 {
            trace.duration_us() / arrivals.len() as u64
        } else {
            1_000
        };

        // Every instance starts empty, live and dispatchable.
        let idle_free: Vec<u32> = (0..cluster.len() as u32).collect();
        let flex_states = vec![
            FlexState {
                in_idle: true,
                ..FlexState::default()
            };
            cluster.len()
        ];
        let billed_start_us = vec![0; cluster.len()];
        let outage_victim = vec![0; cluster.len()];
        let slowdown = vec![1.0; cluster.len()];
        let offered = arrivals.len();
        let rngs = (0..services.len())
            .map(|m| StdRng::seed_from_u64(model_stream_seed(options.seed, m)))
            .collect();
        let billed_by_model = vec![0.0; services.len()];
        let accuracy_by_model: Vec<f64> = services.iter().map(|s| s.model.accuracy).collect();
        let accuracy_sum_by_model = vec![0.0; services.len()];
        let mut engine = Self {
            services,
            scheduler,
            cluster,
            rngs,
            profiles,
            num_types,
            arrivals,
            next_arrival: 0,
            calendar: EventCalendar::with_granularity(mean_gap_us.max(1)),
            seq: offered as u64,
            central_queue: Vec::new(),
            queue_head: 0,
            // Every completion lands here; reserving the offered count once
            // avoids growth-doubling's transient 2x peak (and its fresh-page
            // copies) on multi-gigabyte replays.
            records: Vec::with_capacity(offered),
            views: Vec::new(),
            idle_free,
            idle_pending: Vec::new(),
            idle_ctx: Vec::new(),
            scratch_plan: Vec::new(),
            scratch_removed: Vec::new(),
            dispatch_marks: Vec::new(),
            round: 0,
            on_time_completions: 0,
            late_completions: 0,
            now: 0,
            last_event: 0,
            offered,
            trace_duration_us: trace.duration_us(),
            market: None,
            market_events: Vec::new(),
            billed_start_us,
            billed_by_model,
            accuracy_by_model,
            accuracy_sum_by_model,
            events_processed: 0,
            preemption_notices: 0,
            preempted_instances: 0,
            requeued_queries: 0,
            fault_events: Vec::new(),
            placements: vec![FailureDomain::global(); num_types],
            fault_notice_us: 0,
            active_outages: Vec::new(),
            active_shortages: Vec::new(),
            outage_victim,
            slowdown,
            outage_records: Vec::new(),
            rejected_purchases: 0,
            straggler_onsets: 0,
            qos_us: qos_by_model[0],
            qos_by_model,
            flex: FlexConfig::default(),
            flex_states,
            flex_waiting: 0,
            serverless: None,
            serverless_states: Vec::new(),
            idle_histograms: Vec::new(),
            service: ServiceStats::default(),
        };
        engine.views = engine.recompute_views();
        engine
    }

    /// Attaches a fair throughput-sharing service model:
    /// [`SharingMode::Fair`] lets several invocations share each instance
    /// under the options' degradation curves, while [`SharingMode::None`]
    /// keeps the default dedicated-instance service (a no-op).
    ///
    /// Must be called before the first step.
    ///
    /// # Panics
    /// Panics if the engine has already started, or if the options carry
    /// neither one uniform curve nor exactly one curve per pool type.
    pub fn with_sharing(mut self, mode: SharingMode) -> Self {
        let SharingMode::Fair(options) = mode else {
            return self;
        };
        self.assert_unstarted("sharing");
        assert!(
            self.serverless.is_none(),
            "throughput sharing does not compose with the serverless lane"
        );
        assert!(
            options.num_curves() == 1 || options.num_curves() == self.num_types,
            "need one degradation curve or one per pool type ({} given, {} types)",
            options.num_curves(),
            self.num_types
        );
        self.flex.sharing = Some(options);
        self
    }

    /// Attaches a per-instance dynamic batcher: dispatched queries gather in
    /// a forming buffer and fire as one fused invocation when the fused
    /// batch size reaches `max_batch_size` or `timeout_us` after the first
    /// member arrived, whichever is first.  Composes with
    /// [`Self::with_sharing`]; alone, instances serve one fused invocation
    /// at a time.
    ///
    /// Must be called before the first step.
    ///
    /// # Panics
    /// Panics if the engine has already started.
    pub fn with_batching(mut self, options: BatchingOptions) -> Self {
        self.assert_unstarted("batching");
        assert!(
            self.serverless.is_none(),
            "dynamic batching does not compose with the serverless lane"
        );
        self.flex.batching = Some(options);
        self
    }

    /// Attaches the serverless execution lane: every model lane whose entry
    /// in [`ServerlessConfig::policies`] is `Some` gets keep-alive-governed
    /// containers — an instance idle past its policy's deadline transitions
    /// to the zero-billing [`InstanceLifecycle::Parked`] state (its bill
    /// settles on the spot), stays dispatchable, and the next dispatch wakes
    /// it by paying the cold-start latency before service.  Lanes with
    /// `None` — and the whole engine when no lane has a policy — behave
    /// bit-identically to the always-billed engine
    /// (`tests/proptest_serverless.rs` pins that contract).
    ///
    /// Keep-alive timers ride the event calendar with the batcher's lazy
    /// deletion discipline: each pending expiry carries a generation stamp,
    /// a dispatch landing before the deadline bumps the stamp, and the stale
    /// entry is skipped (and counted) at pop time.  Hybrid policies size
    /// their deadline from the lane's observed idle-gap histogram,
    /// maintained here.
    ///
    /// Must be called before the first step; does not compose with
    /// [`Self::with_sharing`] / [`Self::with_batching`].
    ///
    /// # Panics
    /// Panics if the engine has already started, sharing or batching is
    /// attached, `config.policies` is not one entry per served model, or the
    /// cold-start profile is neither uniform nor one entry per pool type.
    pub fn with_serverless(mut self, config: ServerlessConfig) -> Self {
        self.assert_unstarted("serverless");
        assert!(
            self.flex == FlexConfig::default(),
            "the serverless lane does not compose with sharing/batching"
        );
        assert_eq!(
            config.policies.len(),
            self.services.len(),
            "need one keep-alive policy slot per served model"
        );
        assert!(
            config.cold_start.num_entries() == 1
                || config.cold_start.num_entries() == self.num_types,
            "need one cold-start cost or one per pool type ({} given, {} types)",
            config.cold_start.num_entries(),
            self.num_types
        );
        self.idle_histograms = config
            .policies
            .iter()
            .map(|p| match p {
                Some(policy) => policy.histogram(),
                None => IdleHistogram::new(1, 1),
            })
            .collect();
        self.serverless_states = vec![ServerlessState::default(); self.cluster.len()];
        self.serverless = Some(config);
        // Instances idle at construction start their first tracked idle
        // period (and keep-alive countdown) at t = 0.
        let idle: Vec<u32> = self.idle_free.clone();
        for i in idle {
            self.serverless_arm(i as usize);
        }
        self
    }

    fn assert_unstarted(&self, what: &str) {
        assert!(
            self.next_arrival == 0 && self.records.is_empty() && self.now == 0,
            "configure {what} before stepping the engine"
        );
    }

    /// Attaches a cloud market to the engine: prices become time-varying for
    /// billing, and every market event within the trace horizon (price
    /// steps, preemption notices) is materialized into the calendar queue,
    /// so the hot loop stays allocation-free.  Offering `i` of the market
    /// prices pool type `i` — build the engine over
    /// [`OfferingCatalog::effective_pool`](kairos_models::OfferingCatalog::effective_pool)
    /// so the coordinates line up.
    ///
    /// Must be called before the first step.
    ///
    /// # Panics
    /// Panics if the market's offering count does not match the pool, or if
    /// the engine has already started.
    pub fn with_market(self, market: &'a dyn Market) -> Self {
        let horizon = self.trace_duration_us;
        self.with_market_horizon(market, horizon)
    }

    /// [`Self::with_market`] with an explicit event horizon — for traces
    /// whose interesting market activity extends past the last arrival
    /// (e.g. a storm hitting while the backlog drains).
    pub fn with_market_horizon(mut self, market: &'a dyn Market, horizon_us: TimeUs) -> Self {
        assert_eq!(
            market.num_offerings(),
            self.num_types,
            "market offerings must match the pool's types"
        );
        assert!(
            self.next_arrival == 0 && self.records.is_empty() && self.now == 0,
            "attach the market before stepping the engine"
        );
        self.market_events = market.events(horizon_us);
        for (index, event) in self.market_events.iter().enumerate() {
            self.calendar.push(TimedEvent {
                time: event.at_us(),
                seq: self.seq,
                instance_index: index,
                kind: TimedKind::Market,
                gen: 0,
            });
            self.seq += 1;
        }
        self.market = Some(market);
        self
    }

    /// Attaches a correlated-fault process: zone outages, capacity
    /// shortages, and straggler onsets are materialized into the calendar
    /// queue (exactly like market events), and `placements[t]` names the
    /// failure domain hosting pool type `t` — pass
    /// [`OfferingCatalog::domains`](kairos_models::OfferingCatalog::domains)
    /// when the engine runs over an effective pool.  An empty `placements`
    /// slice puts every type in the single global domain (the domain-blind
    /// world); an empty process attaches nothing and perturbs nothing.
    ///
    /// Must be called before the first step.
    ///
    /// # Panics
    /// Panics if the engine has already started, or if `placements` is
    /// non-empty but does not name one domain per pool type.
    pub fn with_faults(mut self, process: &FaultProcess, placements: &[FailureDomain]) -> Self {
        self.assert_unstarted("faults");
        assert!(
            placements.is_empty() || placements.len() == self.num_types,
            "need one failure-domain placement per pool type ({} given, {} types)",
            placements.len(),
            self.num_types
        );
        if !placements.is_empty() {
            self.placements = placements.to_vec();
        }
        self.fault_notice_us = process.notice_us();
        for event in process.events() {
            match event {
                FaultEvent::ZoneOutage {
                    domain,
                    start_us,
                    duration_us,
                } => {
                    let end_us = start_us.saturating_add(*duration_us);
                    self.push_fault(
                        *start_us,
                        FaultOccurrence::OutageStart {
                            domain: domain.clone(),
                            end_us,
                        },
                    );
                    self.push_fault(
                        end_us,
                        FaultOccurrence::OutageEnd {
                            domain: domain.clone(),
                        },
                    );
                }
                FaultEvent::CapacityShortage {
                    domain,
                    start_us,
                    end_us,
                } => {
                    self.push_fault(
                        *start_us,
                        FaultOccurrence::ShortageStart {
                            domain: domain.clone(),
                        },
                    );
                    self.push_fault(
                        *end_us,
                        FaultOccurrence::ShortageEnd {
                            domain: domain.clone(),
                        },
                    );
                }
                FaultEvent::Straggler {
                    at_us,
                    offering,
                    slowdown,
                } => {
                    self.push_fault(
                        *at_us,
                        FaultOccurrence::StragglerOnset {
                            offering: *offering,
                            slowdown: *slowdown,
                        },
                    );
                }
            }
        }
        self
    }

    /// Schedules one materialized fault occurrence on the calendar.
    fn push_fault(&mut self, at_us: TimeUs, occurrence: FaultOccurrence) {
        self.calendar.push(TimedEvent {
            time: at_us,
            seq: self.seq,
            instance_index: self.fault_events.len(),
            kind: TimedKind::Fault,
            gen: 0,
        });
        self.seq += 1;
        self.fault_events.push(occurrence);
    }

    /// Current virtual time (time of the last processed event).
    pub fn now(&self) -> TimeUs {
        self.now
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Queries waiting in the central queue, in arrival order.
    pub fn central_queue(&self) -> &[Query] {
        &self.central_queue[self.queue_head..]
    }

    /// Queries in the system that are not being served: the central queue
    /// plus every instance's forming batch and admission queue.  O(1) —
    /// maintained incrementally for the serving loop's demand estimate.
    pub fn queued_backlog(&self) -> usize {
        self.central_queue.len() - self.queue_head + self.flex_waiting
    }

    /// Queries held by instance `instance_index` in any stage (forming,
    /// queued for admission, in service).  O(1) — what reconfiguration
    /// drivers rank retirement candidates by.
    pub fn instance_backlog(&self, instance_index: usize) -> usize {
        self.flex_states[instance_index].total_members()
    }

    /// The queries held by an instance in service order: in-service
    /// invocations first (in completion order), then queued invocations,
    /// then the forming batch.  Diagnostic/test API.
    pub fn instance_queries(&self, instance_index: usize) -> impl Iterator<Item = &Query> + '_ {
        let st = &self.flex_states[instance_index];
        st.active
            .iter()
            .map(|a| &a.unit)
            .chain(&st.queued)
            .flat_map(|unit| std::iter::once(&unit.lead).chain(&unit.rest))
            .chain(st.forming.iter().map(|(q, _)| q))
    }

    /// Completion records gathered so far.
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// The scheduler views refreshed to the current clock for *every*
    /// instance (including retired ones the hot path leaves stale).
    /// Diagnostic/test API: O(instances × queue-depth).
    pub fn views(&mut self) -> &[InstanceView] {
        self.views = self.recompute_views();
        &self.views
    }

    /// Rebuilds every scheduler view from scratch from the per-instance
    /// service state (O(instances × queue-depth)): a dispatchable instance
    /// is free at `max(now, provisioning boundary)`; any other instance
    /// frees up at its frontmost invocation's scheduled finish plus the
    /// nominal service times of its queued invocations (at its provisioning
    /// boundary when nothing is in service — a non-accepting instance
    /// holding at most a forming batch).  Reference implementation for
    /// tests; the hot path updates views incrementally instead.
    pub fn recompute_views(&self) -> Vec<InstanceView> {
        self.cluster
            .instances()
            .iter()
            .zip(&self.flex_states)
            .map(|(inst, st)| {
                let accepting = inst.accepts_dispatches();
                let clock = self.now.max(inst.available_from_us);
                let free_at_us = if accepting && self.flex.open(st) {
                    clock
                } else {
                    let profile = self.instance_profile(inst.index);
                    let queued: TimeUs = st
                        .queued
                        .iter()
                        .map(|unit| nominal_us_profile(profile, unit.fused))
                        .sum();
                    let front = if st.active.is_empty() {
                        inst.available_from_us
                    } else {
                        st.finish_at_us
                    };
                    front + queued
                };
                let in_units: usize = st
                    .queued
                    .iter()
                    .chain(st.active.iter().map(|a| &a.unit))
                    .map(WorkUnit::members)
                    .sum();
                InstanceView {
                    instance_index: inst.index,
                    type_index: inst.type_index,
                    type_name: inst.type_name.clone(),
                    model: inst.model,
                    is_base: inst.is_base,
                    accepting,
                    free_at_us,
                    backlog: st.forming.len() + in_units,
                }
            })
            .collect()
    }

    /// Rebuilds the idle index from scratch: the dispatchable instances
    /// sorted by `(free_at_us, instance index)` of
    /// [`Self::recompute_views`].  Under serial service this is
    /// `kairos_testkit::idle_order` of those views; with sharing or
    /// batching an instance can stay dispatchable while it holds work.
    /// Reference implementation for tests.
    pub fn recompute_idle(&self) -> Vec<u32> {
        let views = self.recompute_views();
        let mut idle: Vec<u32> = views
            .iter()
            .zip(&self.flex_states)
            .filter(|(view, st)| view.accepting && self.flex.open(st))
            .map(|(view, _)| view.instance_index as u32)
            .collect();
        idle.sort_by_key(|&i| (views[i as usize].free_at_us, i));
        idle
    }

    /// Exactly what the next scheduling round would see: the incrementally
    /// maintained views and idle index, prepared to the current clock
    /// *without* any full-cluster sweep.  Views of retired instances are not
    /// refreshed (their `free_at_us` may be stale; policies never read
    /// them).  Test API for the hot-path invariants.
    ///
    /// The hot path leaves free-list views carrying the time they went idle
    /// (policies only read them through `<= now` predicates and saturating
    /// subtraction, so the value is unobservable); this accessor clamps
    /// them to `now` so the oracle comparison against
    /// [`Self::recompute_views`] stays bit-for-bit.
    pub fn scheduler_views(&mut self) -> (&[InstanceView], &[u32]) {
        self.prepare_round();
        for &i in &self.idle_free {
            self.views[i as usize].free_at_us = self.now;
        }
        self.idle_ctx.clear();
        self.idle_ctx.extend_from_slice(&self.idle_free);
        self.idle_ctx.extend_from_slice(&self.idle_pending);
        (&self.views, &self.idle_ctx)
    }

    /// Processes the next event, consulting the scheduler afterwards.
    /// Returns `false` once the event heap is exhausted.
    pub fn step(&mut self) -> bool {
        self.step_event().is_some()
    }

    /// Processes the next event and returns an owned description of it, so an
    /// external driver can observe arrivals/completions and reconfigure the
    /// cluster between steps.  Returns `None` once all events are exhausted.
    pub fn step_event(&mut self) -> Option<EngineEvent> {
        // Arrivals carry sequence numbers 0..offered (their trace position),
        // timed events continue from there — so on a time tie the arrival
        // fires first, exactly as the reference heap orders (time, seq).
        // The inner loop exists only for superseded generation-stamped
        // entries (a completion re-derived or cancelled by a kill, a batch
        // fired early, a keep-alive beaten by a dispatch): those are
        // discarded without advancing the clock and the next event is taken
        // instead.
        let observed = loop {
            let take_arrival = match (
                self.next_arrival < self.arrivals.len(),
                self.calendar.peek(),
            ) {
                (false, None) => return None,
                (true, None) => true,
                (false, Some(_)) => false,
                (true, Some((timed_at, _))) => {
                    self.arrivals[self.next_arrival].arrival_us <= timed_at
                }
            };
            if take_arrival {
                let query = self.arrivals[self.next_arrival];
                self.next_arrival += 1;
                self.now = query.arrival_us;
                self.last_event = self.last_event.max(self.now);
                self.central_queue.push(query);
                break EngineEvent::Arrival { query };
            }
            let event = self.calendar.pop().expect("peeked above");
            if matches!(
                event.kind,
                TimedKind::FlexCompletion | TimedKind::BatchTimeout
            ) && !self.flex_event_live(&event)
            {
                // Superseded by a reschedule (or a kill): lazy deletion —
                // the stale entry is skipped without advancing the clock.
                self.calendar.note_stale_pop();
                continue;
            }
            if event.kind == TimedKind::KeepAliveExpiry {
                let st = &self.serverless_states[event.instance_index];
                if !(st.park_pending && event.gen == st.park_gen) {
                    // A dispatch (or decommission) beat the deadline: the
                    // superseded timer dies lazily, same as a batch timeout.
                    self.calendar.note_stale_pop();
                    continue;
                }
            }
            self.now = event.time;
            // A park is pure bookkeeping on an idle instance: it must not
            // extend the billing/latency horizon the way served work does
            // (a keep-alive tail after the last completion is billed to the
            // parking instance itself, not to the whole cluster).
            if event.kind != TimedKind::KeepAliveExpiry {
                self.last_event = self.last_event.max(self.now);
            }
            match event.kind {
                TimedKind::Ready => {
                    // A provisioned instance comes online: no state change
                    // beyond the scheduler consultation that lets queries
                    // flow to it (work dispatched while it provisioned was
                    // admitted to start at this boundary; an empty
                    // serverless instance starts its first tracked idle
                    // period).
                    let i = event.instance_index;
                    if self.serverless.is_some()
                        && self.cluster.instances()[i].accepts_dispatches()
                        && self.flex_states[i].is_empty()
                    {
                        self.serverless_arm(i);
                    }
                    break EngineEvent::InstanceReady { instance_index: i };
                }
                TimedKind::FlexCompletion => break self.flex_complete(event.instance_index),
                TimedKind::BatchTimeout => break self.flex_timeout(event.instance_index),
                TimedKind::Market => break self.apply_market_event(event.instance_index),
                TimedKind::Fault => break self.apply_fault_event(event.instance_index),
                TimedKind::Kill => break self.kill_instance(event.instance_index),
                TimedKind::KeepAliveExpiry => break self.park_instance(event.instance_index),
            }
        };
        self.events_processed += 1;
        self.invoke_scheduler();
        Some(observed)
    }

    /// Applies a materialized market event (price step or preemption
    /// notice).  Notices flip every live instance of the offering to
    /// [`InstanceLifecycle::Preempting`] and schedule its kill deadline.
    fn apply_market_event(&mut self, event_index: usize) -> EngineEvent {
        match self.market_events[event_index] {
            MarketEvent::PriceStep {
                offering,
                price_per_hour,
                ..
            } => EngineEvent::PriceStep {
                offering,
                price_per_hour,
            },
            MarketEvent::PreemptionNotice {
                offering,
                notice_us,
                ..
            } => {
                let deadline_us = self.now + notice_us;
                let mut affected = 0usize;
                for i in 0..self.cluster.len() {
                    let inst = &self.cluster.instances()[i];
                    if inst.type_index != offering || inst.is_terminated() {
                        continue;
                    }
                    if inst.lifecycle == InstanceLifecycle::Preempting {
                        continue; // already racing an earlier deadline
                    }
                    self.serve_notice(i, deadline_us);
                    affected += 1;
                }
                self.preemption_notices += 1;
                EngineEvent::PreemptionNotice {
                    offering,
                    affected,
                    deadline_us,
                }
            }
        }
    }

    /// Applies a materialized fault occurrence (see [`FaultOccurrence`]).
    fn apply_fault_event(&mut self, event_index: usize) -> EngineEvent {
        match self.fault_events[event_index].clone() {
            FaultOccurrence::OutageStart { domain, end_us } => self.begin_outage(domain, end_us),
            FaultOccurrence::OutageEnd { domain } => {
                if let Some(pos) = self.active_outages.iter().position(|d| *d == domain) {
                    self.active_outages.remove(pos);
                }
                EngineEvent::ZoneRestored { domain }
            }
            FaultOccurrence::ShortageStart { domain } => {
                self.active_shortages.push(domain.clone());
                EngineEvent::CapacityShortage {
                    domain,
                    active: true,
                }
            }
            FaultOccurrence::ShortageEnd { domain } => {
                if let Some(pos) = self.active_shortages.iter().position(|d| *d == domain) {
                    self.active_shortages.remove(pos);
                }
                EngineEvent::CapacityShortage {
                    domain,
                    active: false,
                }
            }
            FaultOccurrence::StragglerOnset { offering, slowdown } => {
                self.begin_straggler(offering, slowdown)
            }
        }
    }

    /// A zone outage begins: every live instance whose type is placed in
    /// the failed domain gets a notice→drain→kill, reusing the
    /// spot-preemption lifecycle ([`InstanceLifecycle::Preempting`] then a
    /// `Kill` deadline), and the domain rejects purchases until the outage
    /// ends.  The outage record books the kills and displaced queries the
    /// deadline later attributes to it.
    fn begin_outage(&mut self, domain: FailureDomain, end_us: TimeUs) -> EngineEvent {
        let deadline_us = self.now + self.fault_notice_us;
        let record_tag = self.outage_records.len() as u32 + 1;
        let mut affected = 0usize;
        for i in 0..self.cluster.len() {
            let inst = &self.cluster.instances()[i];
            if inst.is_terminated() || !domain.covers(&self.placements[inst.type_index]) {
                continue;
            }
            if inst.lifecycle == InstanceLifecycle::Preempting {
                continue; // already racing an earlier deadline
            }
            self.outage_victim[i] = record_tag;
            self.serve_notice(i, deadline_us);
            affected += 1;
        }
        self.outage_records.push(OutageRecord {
            domain: domain.label(),
            start_us: self.now,
            end_us,
            killed_instances: 0,
            lost_queries: 0,
        });
        self.active_outages.push(domain.clone());
        EngineEvent::ZoneOutage {
            domain,
            affected,
            deadline_us,
        }
    }

    /// Serves a preemption-style notice (market reclamation or zone
    /// outage) on instance `i`: it stops accepting dispatches, leaves the
    /// idle index, and races a `Kill` at `deadline_us`.
    fn serve_notice(&mut self, i: usize, deadline_us: TimeUs) {
        if self.serverless.is_some() {
            self.serverless_on_decommission(i);
        }
        self.cluster.instances_mut()[i].lifecycle = InstanceLifecycle::Preempting;
        self.flex_sync_view(i);
        self.calendar.push(TimedEvent {
            time: deadline_us,
            seq: self.seq,
            instance_index: i,
            kind: TimedKind::Kill,
            gen: 0,
        });
        self.seq += 1;
    }

    /// A straggler onset: the lowest-indexed live instance of the offering
    /// that is still healthy degrades to `slowdown` of nominal throughput.
    /// The processed-volume clock is credited at the old rate first and the
    /// frontmost completion re-derived at the new one (generation bump,
    /// lazy deletion), so the in-flight invocation slows from the onset.
    fn begin_straggler(&mut self, offering: usize, slowdown: f64) -> EngineEvent {
        let victim = (0..self.cluster.len()).find(|&i| {
            let inst = &self.cluster.instances()[i];
            inst.type_index == offering && !inst.is_terminated() && self.slowdown[i] == 1.0
        });
        if let Some(i) = victim {
            self.flex_advance(i);
            self.slowdown[i] = slowdown;
            self.flex_reschedule(i);
            self.flex_sync_view(i);
            self.straggler_onsets += 1;
        }
        EngineEvent::StragglerOnset { victim, slowdown }
    }

    /// Books a kill against the outage whose notice doomed the instance,
    /// if any (market preemptions carry no attribution).
    fn attribute_outage_kill(&mut self, instance_index: usize, requeued: usize) {
        let tag = self.outage_victim[instance_index];
        if tag == 0 {
            return;
        }
        self.outage_victim[instance_index] = 0;
        let record = &mut self.outage_records[tag as usize - 1];
        record.killed_instances += 1;
        record.lost_queries += requeued;
    }

    /// Forcibly terminates an instance at its preemption deadline: every
    /// query it holds — in service, queued, forming, in that order — is
    /// requeued to the central queue exactly once, the pending calendar
    /// entries die lazily, the bill is settled, and the instance becomes
    /// [`InstanceLifecycle::Preempted`].
    fn kill_instance(&mut self, instance_index: usize) -> EngineEvent {
        debug_assert_eq!(
            self.cluster.instances()[instance_index].lifecycle,
            InstanceLifecycle::Preempting
        );
        let st = &mut self.flex_states[instance_index];
        debug_assert!(!st.in_idle, "notice already de-indexed the instance");
        if st.batch_pending {
            st.batch_pending = false;
            st.batch_gen += 1;
            self.calendar.note_cancelled();
        }
        if st.completion_pending {
            st.completion_pending = false;
            st.completion_gen += 1;
            self.calendar.note_cancelled();
        }
        self.flex_waiting -= st.forming.len() + st.queued_members;
        let mut requeued = st.forming.len();
        for unit in st
            .active
            .drain(..)
            .map(|a| a.unit)
            .chain(st.queued.drain(..))
        {
            requeued += unit.members();
            self.central_queue.push(unit.lead);
            self.central_queue.extend(unit.rest);
        }
        self.central_queue
            .extend(st.forming.drain(..).map(|(query, _)| query));
        st.forming_fused = 0;
        st.queued_members = 0;
        st.queued_nominal_us = 0;
        st.active_members = 0;
        self.cluster.instances_mut()[instance_index].lifecycle = InstanceLifecycle::Preempted;
        self.flex_sync_view(instance_index);
        self.settle_bill(instance_index, self.now);
        self.preempted_instances += 1;
        self.requeued_queries += requeued;
        self.attribute_outage_kill(instance_index, requeued);
        EngineEvent::InstancePreempted {
            instance_index,
            requeued,
        }
    }

    /// Dollars billed for one instance of pool type `type_index` over
    /// `[from_us, to_us)`: the market's exact price integral, or the pool's
    /// listed price with the same constant-price formula when no market is
    /// attached (bit-for-bit what a [`kairos_models::ConstantMarket`] over
    /// the pool would charge).
    fn price_integral(&self, type_index: usize, from_us: TimeUs, to_us: TimeUs) -> f64 {
        match self.market {
            Some(market) => market.billed_cost(type_index, from_us, to_us),
            None => billed_dollars(self.cluster.pool().price(type_index), from_us, to_us),
        }
    }

    /// Settles an instance's bill through `end_us` (no-op if already
    /// settled).
    fn settle_bill(&mut self, instance_index: usize, end_us: TimeUs) {
        let start = self.billed_start_us[instance_index];
        if start == TimeUs::MAX {
            return;
        }
        let inst = &self.cluster.instances()[instance_index];
        let (type_index, model) = (inst.type_index, inst.model);
        self.billed_by_model[model.index()] += self.price_integral(type_index, start, end_us);
        self.billed_start_us[instance_index] = TimeUs::MAX;
    }

    /// Adds an instance of the given pool type bound to
    /// [`ModelId::DEFAULT`] to the live cluster.  The instance is visible to
    /// the scheduler immediately but cannot start serving until
    /// `provisioning_delay_us` has elapsed; a `Ready` event re-consults the
    /// scheduler the moment it comes online.  Returns the new instance's
    /// index.
    pub fn add_instance(&mut self, type_index: usize, provisioning_delay_us: TimeUs) -> usize {
        self.add_instance_for(ModelId::DEFAULT, type_index, provisioning_delay_us)
    }

    /// [`Self::add_instance`] for a specific model binding: the new instance
    /// hosts a replica of `model` and only accepts that model's queries.
    ///
    /// # Panics
    /// Panics if `model` has no entry in the engine's service table.
    pub fn add_instance_for(
        &mut self,
        model: ModelId,
        type_index: usize,
        provisioning_delay_us: TimeUs,
    ) -> usize {
        assert!(
            model.index() < self.services.len(),
            "model {model} not served by this engine"
        );
        let ready_at = self.now + provisioning_delay_us;
        let instance_index = self.cluster.add_instance_for(model, type_index, ready_at);
        let inst = &self.cluster.instances()[instance_index];
        self.views.push(InstanceView {
            instance_index,
            type_index,
            type_name: inst.type_name.clone(),
            model,
            is_base: inst.is_base,
            accepting: true,
            free_at_us: ready_at.max(self.now),
            backlog: 0,
        });
        self.billed_start_us.push(self.now);
        self.outage_victim.push(0);
        self.slowdown.push(1.0);
        self.flex_states.push(FlexState {
            in_idle: true,
            ..FlexState::default()
        });
        if self.serverless.is_some() {
            // The keep-alive countdown starts at the `Ready` boundary, once
            // the instance is actually idle-and-live.
            self.serverless_states.push(ServerlessState::default());
        }
        self.insert_idle_pending(instance_index as u32);
        self.calendar.push(TimedEvent {
            time: ready_at,
            seq: self.seq,
            instance_index,
            kind: TimedKind::Ready,
            gen: 0,
        });
        self.seq += 1;
        instance_index
    }

    /// [`Self::add_instance_for`] with fault-domain admission control: when
    /// the target type's placement is inside an active zone outage or
    /// capacity shortage, the purchase returns a typed [`PurchaseRejected`]
    /// instead of silently succeeding (and the report's
    /// `rejected_purchases` counter ticks).  Without an attached fault
    /// process this is exactly `Ok(add_instance_for(..))`.
    pub fn try_add_instance_for(
        &mut self,
        model: ModelId,
        type_index: usize,
        provisioning_delay_us: TimeUs,
    ) -> Result<usize, PurchaseRejected> {
        let placement = &self.placements[type_index];
        let cause = if self.active_outages.iter().any(|d| d.covers(placement)) {
            Some(RejectionCause::ZoneOutage)
        } else if self.active_shortages.iter().any(|d| d.covers(placement)) {
            Some(RejectionCause::CapacityShortage)
        } else {
            None
        };
        if let Some(cause) = cause {
            self.rejected_purchases += 1;
            return Err(PurchaseRejected {
                type_index,
                domain: placement.clone(),
                at_us: self.now,
                cause,
            });
        }
        Ok(self.add_instance_for(model, type_index, provisioning_delay_us))
    }

    /// Gracefully retires an instance: it accepts no further dispatches and
    /// transitions to retired once it holds no work (immediately if empty).
    /// Queries already dispatched to it are still served.
    pub fn retire_instance(&mut self, instance_index: usize) {
        if self.cluster.instances()[instance_index].is_terminated() {
            return;
        }
        if self.serverless.is_some() {
            self.serverless_on_decommission(instance_index);
        }
        let drained = self.flex_states[instance_index].is_empty();
        if self.cluster.retire_instance(instance_index, drained) {
            // Fully retired on the spot: the bill settles now
            // (`settle_bill` no-ops on a parked instance's settled bill).
            self.settle_bill(instance_index, self.now);
        }
        self.flex_sync_view(instance_index);
    }

    /// Swaps the latency profiles (and delivered accuracy) of one served
    /// model in place — the engine half of a **variant switch**: the serving
    /// loop lowers the chosen variant's latency table to one profile per
    /// pool type and installs it here without rebuilding the engine.
    ///
    /// Semantics across the switch boundary: invocations already *in
    /// service* keep the service time they drew under the old variant (the
    /// artifact that started them finishes them); invocations still waiting
    /// for admission start under the new variant.  The incremental
    /// accounting is repaired accordingly — every affected instance's
    /// queued-nominal sum is recomputed under the new profiles and its
    /// scheduler view re-derived — so the hot path's running values stay
    /// exact.  Completions recorded after the switch accrue the new
    /// accuracy.  Installing the currently active profiles is a no-op
    /// bit-for-bit.
    ///
    /// # Panics
    /// Panics if `model` is not served by this engine or `per_type` does not
    /// provide one profile per pool type (in the cluster's type order).
    pub fn set_model_profiles(
        &mut self,
        model: ModelId,
        per_type: &[LatencyProfile],
        accuracy: f64,
    ) {
        assert!(
            model.index() < self.services.len(),
            "model {model} not served by this engine"
        );
        assert_eq!(
            per_type.len(),
            self.num_types,
            "need one profile per pool type"
        );
        let base = model.index() * self.num_types;
        self.profiles[base..base + self.num_types].copy_from_slice(per_type);
        self.accuracy_by_model[model.index()] = accuracy;
        // Repair the incremental per-instance accounting: nominal estimates
        // of queued invocations were charged under the old profiles.
        for i in 0..self.cluster.len() {
            let inst = &self.cluster.instances()[i];
            let st = &mut self.flex_states[i];
            if inst.model != model || st.queued.is_empty() {
                continue;
            }
            let profile = &self.profiles[base + inst.type_index];
            st.queued_nominal_us = st
                .queued
                .iter()
                .map(|unit| nominal_us_profile(profile, unit.fused))
                .sum();
            self.flex_sync_view(i);
        }
    }

    /// Applies a [`ClusterAction`] (driver convenience).
    pub fn apply(&mut self, action: ClusterAction) {
        match action {
            ClusterAction::AddInstance {
                type_index,
                provisioning_delay_us,
            } => {
                self.add_instance(type_index, provisioning_delay_us);
            }
            ClusterAction::RetireInstance { instance_index } => {
                self.retire_instance(instance_index);
            }
        }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> SimReport {
        while self.step() {}
        self.report()
    }

    /// Runs the simulation to completion with a reconfiguration hook in the
    /// loop: after every event the hook observes what happened and may return
    /// cluster actions, which are applied before the next event.
    pub fn run_with_hook(mut self, hook: &mut dyn EngineHook) -> SimReport {
        while let Some(event) = self.step_event() {
            for action in hook.on_event(self.now, &event, &self.cluster) {
                self.apply(action);
            }
        }
        self.report()
    }

    /// Runs the simulation only as far as needed to decide whether it meets
    /// the QoS target at `tolerance` (fraction of offered queries allowed to
    /// violate), and returns that verdict.  The result is **identical** to
    /// `self.run().meets_qos(tolerance)`; the replay just aborts as soon as
    /// the verdict is provable:
    ///
    /// * **fail** once the late completions alone exceed the violation
    ///   budget — the final count only grows (late completions stay late,
    ///   and stale unfinished queries only add to it);
    /// * **pass** once every query *not yet completed within QoS* could
    ///   violate and the total would still fit the budget — on-time
    ///   completions can never be revoked.
    ///
    /// This is what makes capacity probes cheap: an overloaded probe fails
    /// within the first QoS-window of violations instead of simulating the
    /// entire backlog drain, and a comfortably feasible probe passes without
    /// replaying its idle tail.
    pub fn run_qos_probe(mut self, tolerance: f64) -> bool {
        // The violation budget must be *exactly* the largest count the final
        // `meets_qos` float comparison accepts: deriving it via
        // `floor(tolerance × offered)` can disagree at representability
        // boundaries (e.g. 0.29 × 100 = 28.999…96 floors to 28 even though
        // 29/100 ≤ 0.29 holds in f64), which would flip a boundary-landing
        // probe against the full replay.  Start from the floor and align
        // with the comparison itself.
        let offered = self.offered as f64;
        let mut budget = (tolerance * offered).floor().clamp(0.0, offered) as usize;
        while budget < self.offered && ((budget + 1) as f64) / offered <= tolerance {
            budget += 1;
        }
        while budget > 0 && (budget as f64) / offered > tolerance {
            budget -= 1;
        }
        // A zero-violation run has fraction 0.0, which a (pathological)
        // negative tolerance still rejects — disable the early pass there.
        let can_pass_early = tolerance >= 0.0;
        loop {
            if self.late_completions > budget {
                return false;
            }
            if can_pass_early && self.offered - self.on_time_completions <= budget {
                return true;
            }
            if !self.step() {
                break;
            }
        }
        // Undecided at exhaustion (only stale-unfinished accounting left).
        self.report().meets_qos(tolerance)
    }

    /// Finalizes the run: anything still queued (centrally or at an
    /// instance) or in service is reported as unfinished, and instances still renting are billed
    /// through the horizon.
    pub fn report(mut self) -> SimReport {
        let unfinished_of = |q: &Query| UnfinishedQuery {
            id: q.id,
            model: q.model,
            batch_size: q.batch_size,
            arrival_us: q.arrival_us,
        };
        let mut unfinished: Vec<UnfinishedQuery> = self.central_queue[self.queue_head..]
            .iter()
            .map(unfinished_of)
            .collect();
        // Arrivals the probe never reached count as unfinished too (only
        // possible when a run is abandoned early, e.g. by `run_qos_probe`).
        unfinished.extend(self.arrivals[self.next_arrival..].iter().map(unfinished_of));
        // Per instance: forming batch, queued invocations, then in-flight
        // invocations.
        for st in &self.flex_states {
            unfinished.extend(st.forming.iter().map(|(q, _)| unfinished_of(q)));
            for unit in &st.queued {
                unfinished.push(unfinished_of(&unit.lead));
                unfinished.extend(unit.rest.iter().map(unfinished_of));
            }
            for active in &st.active {
                unfinished.push(unfinished_of(&active.unit.lead));
                unfinished.extend(active.unit.rest.iter().map(unfinished_of));
            }
        }

        let horizon_us = self.last_event.max(self.trace_duration_us);
        // Instances still parked at the horizon close their unbilled
        // interval here (their bill settled at park time, so the settlement
        // loop below no-ops on them).
        for st in &mut self.serverless_states {
            if st.parked {
                st.parked = false;
                self.service.parked_us_sum += horizon_us.saturating_sub(st.parked_since_us);
            }
        }
        // Instances still renting at the horizon settle their bill here, in
        // index order (so a reconfiguration-free constant-price run sums in
        // exactly the order the naive reference does).
        for index in 0..self.cluster.len() {
            self.settle_bill(index, horizon_us);
        }
        // Multi-model reports are finalized in the canonical total order
        // (completion key for records, arrival key for unfinished) so that
        // a [`SimReport::merge_many`] of per-model-lane shards reproduces the
        // combined run's sequences bit-for-bit: completions are pushed in
        // clock order, so only same-microsecond ties across lanes are
        // permuted, and every aggregate is permutation-invariant.  The
        // single-model paths keep their historical processing order.
        let mut records = self.records;
        if self.services.len() > 1 {
            records.sort_unstable_by_key(SimReport::record_key);
            unfinished.sort_unstable_by_key(SimReport::unfinished_key);
        }
        // The billed total is the left fold of the per-model partials —
        // `0.0 + p0` for single-model runs, i.e. the old flat accumulator
        // bit-for-bit.
        let billed_dollars = self.billed_by_model.iter().fold(0.0, |acc, &b| acc + b);
        SimReport {
            scheduler: self.scheduler.name().to_string(),
            records,
            unfinished,
            offered: self.offered,
            horizon_us,
            qos_us: self.qos_us,
            qos_by_model: self.qos_by_model,
            billed_dollars,
            billed_by_model: self.billed_by_model,
            accuracy_sum_by_model: self.accuracy_sum_by_model,
            events_processed: self.events_processed,
            preemption_notices: self.preemption_notices,
            preempted_instances: self.preempted_instances,
            requeued_queries: self.requeued_queries,
            rejected_purchases: self.rejected_purchases,
            straggler_onsets: self.straggler_onsets,
            outages: self.outage_records,
            service: ServiceStats {
                calendar_scheduled: self.calendar.scheduled(),
                calendar_cancelled: self.calendar.cancelled(),
                calendar_stale_popped: self.calendar.stale_popped(),
                ..self.service
            },
        }
    }

    /// Removes an instance from whichever idle list holds it.
    fn remove_idle(&mut self, instance_index: u32) {
        if let Ok(pos) = self.idle_free.binary_search(&instance_index) {
            self.idle_free.remove(pos);
        } else if let Some(pos) = self.idle_pending.iter().position(|&i| i == instance_index) {
            self.idle_pending.remove(pos);
        } else {
            debug_assert!(false, "idle instance {instance_index} not indexed");
        }
    }

    /// Inserts an instance into the pending idle list, keeping it sorted by
    /// `(available_from_us, instance index)`.
    fn insert_idle_pending(&mut self, instance_index: u32) {
        let key = |i: u32| {
            let inst = &self.cluster.instances()[i as usize];
            (inst.available_from_us, i)
        };
        let k = key(instance_index);
        let pos = self
            .idle_pending
            .binary_search_by(|&i| key(i).cmp(&k))
            .unwrap_err();
        self.idle_pending.insert(pos, instance_index);
    }

    /// Brings the idle index up to the current clock: pending instances
    /// whose provisioning boundary has passed migrate to the free list.
    /// O(migrations) in the common all-provisioned case.  Free-list views
    /// keep the `free_at_us` of the moment they went idle — always `<=
    /// now`, so `is_idle`/`idle_now`/`remaining_us` read them correctly
    /// without an O(idle) clamp sweep per round (the clamp that policies
    /// could observe lives in [`SimEngine::scheduler_views`]).
    fn prepare_round(&mut self) {
        while let Some(&head) = self.idle_pending.first() {
            if self.cluster.instances()[head as usize].available_from_us > self.now {
                break;
            }
            self.idle_pending.remove(0);
            let pos = self.idle_free.binary_search(&head).unwrap_err();
            self.idle_free.insert(pos, head);
        }
    }

    /// The idle slice handed to the scheduler: the free list itself when
    /// nothing is provisioning (no copy), otherwise the concatenation
    /// `free ++ pending` staged in `idle_ctx`.
    fn stage_idle_ctx(&mut self) -> bool {
        if self.idle_pending.is_empty() {
            return false;
        }
        self.idle_ctx.clear();
        self.idle_ctx.extend_from_slice(&self.idle_free);
        self.idle_ctx.extend_from_slice(&self.idle_pending);
        true
    }

    /// Consults the scheduler and applies its dispatch decisions.  When an
    /// instance can absorb more than one dispatch per round (a batcher, or
    /// a concurrency cap other than 1) the round is re-run while it keeps
    /// making progress: policies like FCFS hand out at most one query per
    /// idle instance per round.  Under serial service one dispatch fills an
    /// idle instance, so a single round suffices.
    fn invoke_scheduler(&mut self) {
        let repeat = self.flex.repeats_rounds();
        while self.scheduler_round() > 0 && repeat && self.central_queue.len() > self.queue_head {}
    }

    /// One scheduling round: consults the policy once and applies its plan.
    /// Returns the number of dispatches applied.
    fn scheduler_round(&mut self) -> usize {
        let queue_len = self.central_queue.len() - self.queue_head;
        if queue_len == 0 {
            return 0;
        }
        self.prepare_round();
        let staged = self.stage_idle_ctx();
        let mut plan = std::mem::take(&mut self.scratch_plan);
        plan.clear();
        {
            let idle: &[u32] = if staged {
                &self.idle_ctx
            } else {
                &self.idle_free
            };
            let ctx = SchedulingContext {
                now_us: self.now,
                queued: &self.central_queue[self.queue_head..],
                instances: &self.views,
                idle,
                qos_us: self.qos_us,
                qos_by_model: &self.qos_by_model,
            };
            self.scheduler.schedule_into(&ctx, &mut plan);
        }

        // Validate: indices in range, each query dispatched at most once, no
        // dispatches to draining/retired instances, and no model-mismatched
        // assignments (an instance only serves the model it hosts).
        // Duplicate tracking uses generation stamps so no per-round buffer
        // clearing or allocation is needed.
        self.round += 1;
        let round = self.round;
        if self.dispatch_marks.len() < queue_len {
            self.dispatch_marks.resize(queue_len, 0);
        }
        let cluster = &self.cluster;
        let queued = &self.central_queue[self.queue_head..];
        let marks = &mut self.dispatch_marks;
        plan.retain(|d| {
            let valid = d.query_index < queue_len
                && d.instance_index < cluster.len()
                && cluster.instances()[d.instance_index].accepts_dispatches()
                && cluster.instances()[d.instance_index].model == queued[d.query_index].model
                && marks[d.query_index] != round;
            if valid {
                marks[d.query_index] = round;
            }
            valid
        });
        if plan.is_empty() {
            self.scratch_plan = plan;
            return 0;
        }

        // Dispatch in the order returned by the policy.
        for d in &plan {
            let query = self.central_queue[self.queue_head + d.query_index];
            self.flex_dispatch(d.instance_index, query);
        }

        // Remove dispatched queries.  A dispatched *prefix* — the common
        // FCFS-style pattern of taking the oldest queries — just advances the
        // queue head in O(1); scattered survivors behind it are closed up
        // with one gap-closing sweep where each element moves at most once.
        // Relative order of survivors is preserved.
        let mut removed = std::mem::take(&mut self.scratch_removed);
        removed.clear();
        removed.extend(plan.iter().map(|d| d.query_index));
        removed.sort_unstable();
        let mut prefix = 0usize;
        while prefix < removed.len() && removed[prefix] == prefix {
            prefix += 1;
        }
        self.queue_head += prefix;
        if prefix < removed.len() {
            let head = self.queue_head;
            let queue = &mut self.central_queue;
            let end = queue.len();
            // Absolute position of the first removed non-prefix entry: the
            // sweep compacts everything behind it.
            let mut write = head + removed[prefix] - prefix;
            for (i, &idx) in removed[prefix..].iter().enumerate() {
                let abs = head + idx - prefix;
                let next = removed[prefix..]
                    .get(i + 1)
                    .map(|&n| head + n - prefix)
                    .unwrap_or(end);
                queue.copy_within(abs + 1..next, write);
                write += next - abs - 1;
            }
            queue.truncate(write);
        }
        // Compact the dead prefix away once it dominates the storage, so the
        // buffer does not grow with the whole trace.
        if self.queue_head > 1024 && self.queue_head * 2 >= self.central_queue.len() {
            self.central_queue.drain(..self.queue_head);
            self.queue_head = 0;
        }
        self.scratch_removed = removed;
        let dispatched = plan.len();
        self.scratch_plan = plan;
        dispatched
    }

    // ---- The service path: serial service, fair sharing, batching -------
    //
    // Every instance holds its work in three stages: a *forming* batch
    // (batching only), an *admission queue* of fired invocations, and the
    // *active* set progressing under the sharing discipline (at most one
    // invocation under serial service).  All service work is tracked in
    // normalized processed-volume units (see `crate::flex`); the volume
    // clock of an instance runs from its availability boundary, so work
    // admitted while it provisions (or wakes from a cold start) starts at
    // that boundary.  Every mutation below touches only the affected
    // instance, and superseded calendar entries die lazily via generation
    // stamps.

    /// The latency profile instance `i` serves its model with.
    fn instance_profile(&self, i: usize) -> &LatencyProfile {
        let inst = &self.cluster.instances()[i];
        &self.profiles[inst.model.index() * self.num_types + inst.type_index]
    }

    /// The instant from which instance `i` can serve: the clock, or its
    /// provisioning / cold-start boundary if that lies ahead.
    fn service_clock(&self, i: usize) -> TimeUs {
        self.now.max(self.cluster.instances()[i].available_from_us)
    }

    /// Per-invocation progress rate on instance `i` with `n` invocations
    /// active, straggler slowdown included.
    fn service_rate(&self, i: usize, n: u32) -> f64 {
        self.flex.rate(self.cluster.instances()[i].type_index, n) * self.slowdown[i]
    }

    /// Accepts a dispatched query: into the forming batch when batching is
    /// on, otherwise straight toward admission.  A dispatch landing on an
    /// empty serverless instance first ends its tracked idle period: it
    /// records the observed gap, disarms the keep-alive timer, and wakes a
    /// parked instance, whose cold start becomes its admission boundary.
    fn flex_dispatch(&mut self, i: usize, query: Query) {
        if self.serverless.is_some() && self.flex_states[i].is_empty() {
            self.serverless_on_dispatch(i);
        }
        self.flex_waiting += 1;
        match self.flex.batching {
            Some(b) => {
                let st = &mut self.flex_states[i];
                st.forming.push_back((query, self.now));
                st.forming_fused += query.batch_size;
                if st.forming_fused >= b.max_batch_size {
                    self.flex_fire_batch(i);
                } else if !st.batch_pending {
                    st.batch_pending = true;
                    st.batch_gen += 1;
                    let gen = st.batch_gen;
                    self.calendar.push(TimedEvent {
                        time: self.now + b.timeout_us,
                        seq: self.seq,
                        instance_index: i,
                        kind: TimedKind::BatchTimeout,
                        gen,
                    });
                    self.seq += 1;
                }
            }
            None => self.flex_enqueue(i, WorkUnit::single(query)),
        }
        self.flex_sync_view(i);
    }

    /// Fires the forming batch as one fused invocation (size cap reached or
    /// timeout expired).  Returns the member count.
    fn flex_fire_batch(&mut self, i: usize) -> usize {
        let now = self.now;
        let st = &mut self.flex_states[i];
        if st.batch_pending {
            // Superseded by the size trigger: the scheduled timeout dies
            // lazily at pop time.
            st.batch_pending = false;
            st.batch_gen += 1;
            self.calendar.note_cancelled();
        }
        let (lead, lead_entered) = st.forming.pop_front().expect("fired an empty batch");
        let mut wait_us = now - lead_entered;
        let mut rest = Vec::with_capacity(st.forming.len());
        while let Some((q, entered)) = st.forming.pop_front() {
            wait_us += now - entered;
            rest.push(q);
        }
        let unit = WorkUnit {
            lead,
            rest,
            fused: st.forming_fused,
        };
        st.forming_fused = 0;
        let members = unit.members();
        self.service.batches_fired += 1;
        self.service.batched_queries += members as u64;
        self.service.batch_wait_us_sum += wait_us;
        self.flex_enqueue(i, unit);
        members
    }

    /// Hands a fired invocation to the instance: admitted on the spot when a
    /// slot is open and nothing waits ahead of it, queued for admission
    /// otherwise.  A lone invocation on an instance with nothing in service
    /// finishes its solo service time after it starts, so its completion is
    /// scheduled directly — the same value the volume arithmetic gives,
    /// and integer arithmetic at rate 1 (serial service).
    fn flex_enqueue(&mut self, i: usize, unit: WorkUnit) {
        let st = &self.flex_states[i];
        if st.queued.is_empty() && self.flex.has_slot(st) {
            let lone = st.active.is_empty();
            let work_us = self.flex_admit(i, unit);
            if lone {
                let rate = self.service_rate(i, 1);
                let solo_us = if rate == 1.0 {
                    work_us
                } else {
                    ceil_us(work_us as f64 / rate)
                };
                self.flex_schedule_finish(i, self.service_clock(i) + solo_us.max(1));
            } else {
                self.flex_reschedule(i);
            }
            return;
        }
        let nominal = nominal_us_profile(self.instance_profile(i), unit.fused);
        let st = &mut self.flex_states[i];
        st.queued_members += unit.members();
        st.queued_nominal_us += nominal;
        st.queued.push_back(unit);
    }

    /// Admits queued invocations while the concurrency cap allows (after a
    /// completion freed slots), then re-derives the frontmost completion.
    fn flex_refill(&mut self, i: usize) {
        while !self.flex_states[i].queued.is_empty() && self.flex.has_slot(&self.flex_states[i]) {
            let unit = self.flex_states[i]
                .queued
                .pop_front()
                .expect("checked non-empty");
            let nominal = nominal_us_profile(self.instance_profile(i), unit.fused);
            let st = &mut self.flex_states[i];
            st.queued_members -= unit.members();
            st.queued_nominal_us -= nominal;
            self.flex_admit(i, unit);
        }
        self.flex_reschedule(i);
    }

    /// Admits one invocation and returns its work: its service time, drawn
    /// at its fused batch size.  The instance's volume first advances at the
    /// pre-admission rate (same-instant admissions see dt = 0) — or, with
    /// nothing in service, restarts at zero: volumes only matter relative to
    /// the residents' finish volumes, and the restart keeps a lone
    /// invocation's finish volume exactly its work.  The invocation starts
    /// at the instance's service clock; the caller schedules the frontmost
    /// completion after.
    fn flex_admit(&mut self, i: usize, unit: WorkUnit) -> TimeUs {
        let start_us = self.service_clock(i);
        if self.flex_states[i].active.is_empty() {
            let st = &mut self.flex_states[i];
            st.volume = 0.0;
            st.last_update_us = start_us;
        } else {
            self.flex_advance(i);
        }
        let inst = &self.cluster.instances()[i];
        let model = inst.model.index();
        let profile = &self.profiles[model * self.num_types + inst.type_index];
        let work_us = self.services[model].service_time_us_from_profile(
            profile,
            unit.fused,
            &mut self.rngs[model],
        );
        self.flex_waiting -= unit.members();
        let st = &mut self.flex_states[i];
        st.admit_counter += 1;
        st.insert_active(ActiveUnit {
            finish_volume: st.volume + work_us as f64,
            admit_seq: st.admit_counter,
            start_us,
            unit,
        });
        work_us
    }

    /// Advances the instance's processed volume to its service clock at the
    /// prevailing per-sharer rate.  Must run *before* the sharer count
    /// changes.
    fn flex_advance(&mut self, i: usize) {
        let clock = self.service_clock(i);
        let n = self.flex_states[i].active.len() as u32;
        let dt = clock - self.flex_states[i].last_update_us;
        if n > 0 && dt > 0 {
            let rate = self.service_rate(i, n);
            self.flex_states[i].volume += dt as f64 * rate;
        }
        self.flex_states[i].last_update_us = clock;
    }

    /// Re-derives the frontmost completion after the active set (and hence
    /// the sharing rate) changed: the superseded calendar entry is
    /// invalidated in place (generation bump, lazy deletion) and the new
    /// boundary scheduled.  O(1) given the sorted active set — the
    /// incremental heart of the service path: an arrival or completion
    /// re-derives exactly one instance's frontmost event, never rescanning
    /// the cluster or the calendar.
    fn flex_reschedule(&mut self, i: usize) {
        let st = &mut self.flex_states[i];
        if st.completion_pending {
            st.completion_pending = false;
            st.completion_gen += 1;
            self.calendar.note_cancelled();
        }
        let Some(front) = st.active.first() else {
            return;
        };
        let remaining = (front.finish_volume - st.volume).max(0.0);
        let n = st.active.len() as u32;
        let rate = self.service_rate(i, n);
        let at = self.service_clock(i) + ceil_us(remaining / rate).max(1);
        self.flex_schedule_finish(i, at);
    }

    /// Schedules instance `i`'s frontmost completion at `at`; any superseded
    /// entry has been invalidated by the caller.
    fn flex_schedule_finish(&mut self, i: usize, at: TimeUs) {
        let st = &mut self.flex_states[i];
        st.completion_gen += 1;
        st.completion_pending = true;
        st.finish_at_us = at;
        let gen = st.completion_gen;
        self.calendar.push(TimedEvent {
            time: at,
            seq: self.seq,
            instance_index: i,
            kind: TimedKind::FlexCompletion,
            gen,
        });
        self.seq += 1;
    }

    /// Whether a generation-stamped calendar entry is still the live one
    /// for its instance.
    fn flex_event_live(&self, event: &TimedEvent) -> bool {
        let st = &self.flex_states[event.instance_index];
        match event.kind {
            TimedKind::FlexCompletion => st.completion_pending && event.gen == st.completion_gen,
            TimedKind::BatchTimeout => st.batch_pending && event.gen == st.batch_gen,
            _ => true,
        }
    }

    /// Applies a live `FlexCompletion`: pops the frontmost invocation (and,
    /// with several in service, every other one whose finish volume the
    /// advanced volume reached), records the members, refills from the
    /// admission queue, and re-derives the next frontmost completion.  A
    /// lone invocation leaves the instance with nothing in service, so its
    /// volume is not advanced (the next admission restarts it).  An
    /// instance left empty re-enters the idle index (and a serverless one
    /// starts a tracked idle period), or — if draining — retires.
    fn flex_complete(&mut self, i: usize) -> EngineEvent {
        let sharers = {
            let st = &mut self.flex_states[i];
            st.completion_pending = false;
            st.completion_gen += 1;
            st.active.len()
        };
        if sharers > 1 {
            self.flex_advance(i);
            // Integer rounding of the event time can land a hair before the
            // exact crossing; the event is authoritative for the frontmost
            // invocation, so clamp the volume up to it.
            let st = &mut self.flex_states[i];
            st.volume = st.volume.max(st.active[0].finish_volume);
        }
        let (type_index, type_name, accepting) = {
            let inst = &self.cluster.instances()[i];
            (
                inst.type_index,
                inst.type_name.clone(),
                inst.accepts_dispatches(),
            )
        };
        let first_record = self.records.len();
        let st = &mut self.flex_states[i];
        loop {
            let done = st.active.remove(0);
            st.active_members -= done.unit.members();
            let service_ms = (self.now - done.start_us) as f64 / 1000.0;
            for query in std::iter::once(&done.unit.lead).chain(&done.unit.rest) {
                let record = QueryRecord {
                    id: query.id,
                    model: query.model,
                    batch_size: query.batch_size,
                    arrival_us: query.arrival_us,
                    start_us: done.start_us,
                    completion_us: self.now,
                    instance_index: i,
                    type_index,
                };
                if record.within_qos(self.qos_by_model[query.model.index()]) {
                    self.on_time_completions += 1;
                } else {
                    self.late_completions += 1;
                }
                self.records.push(record);
                self.accuracy_sum_by_model[query.model.index()] +=
                    self.accuracy_by_model[query.model.index()];
                self.scheduler
                    .on_completion(type_index, query.model, query.batch_size, service_ms);
            }
            if !st
                .active
                .first()
                .is_some_and(|a| a.finish_volume <= st.volume)
            {
                break;
            }
        }
        self.flex_refill(i);
        let empty = self.flex_states[i].is_empty();
        if empty && accepting && self.serverless.is_some() {
            self.serverless_arm(i);
        }
        self.flex_sync_view(i);
        if empty && self.cluster.settle_drained(i) {
            self.settle_bill(i, self.now);
        }
        EngineEvent::Completions {
            instance_index: i,
            records: first_record..self.records.len(),
            type_name,
        }
    }

    /// A live batch timeout fired: the undersized forming batch goes out as
    /// one fused invocation.
    fn flex_timeout(&mut self, i: usize) -> EngineEvent {
        {
            let st = &mut self.flex_states[i];
            st.batch_pending = false;
            st.batch_gen += 1;
        }
        let members = self.flex_fire_batch(i);
        self.flex_sync_view(i);
        EngineEvent::BatchFired {
            instance_index: i,
            members,
        }
    }

    /// Re-derives the instance's scheduler view and idle-index membership
    /// from its service state.  A dispatchable instance (see
    /// [`FlexConfig::open`]) sits in the idle index; any other frees up at
    /// its frontmost invocation's scheduled finish (its provisioning
    /// boundary when nothing is in service) plus the nominal times of its
    /// queued invocations.
    fn flex_sync_view(&mut self, i: usize) {
        let (accepting, available_from_us) = {
            let inst = &self.cluster.instances()[i];
            (inst.accepts_dispatches(), inst.available_from_us)
        };
        let clock = self.now.max(available_from_us);
        let st = &self.flex_states[i];
        let dispatchable = accepting && self.flex.open(st);
        let was_indexed = st.in_idle;
        let view = &mut self.views[i];
        view.backlog = st.total_members();
        view.accepting = accepting;
        if !dispatchable {
            let front = if st.active.is_empty() {
                available_from_us
            } else {
                st.finish_at_us
            };
            view.free_at_us = front + st.queued_nominal_us;
        }
        if dispatchable == was_indexed {
            return;
        }
        if dispatchable {
            view.free_at_us = clock;
            if clock > self.now {
                self.insert_idle_pending(i as u32);
            } else {
                let pos = self.idle_free.binary_search(&(i as u32)).unwrap_err();
                self.idle_free.insert(pos, i as u32);
            }
        } else {
            self.remove_idle(i as u32);
        }
        self.flex_states[i].in_idle = dispatchable;
    }

    // ---- Serverless lane: keep-alive timers, parking, cold starts -------
    //
    // A lane with a keep-alive policy tracks each instance's idle periods:
    // going idle arms a generation-stamped `KeepAliveExpiry` on the
    // calendar, a dispatch before the deadline disarms it lazily (and feeds
    // the observed gap into the lane's histogram for the hybrid policy),
    // and a live expiry parks the instance — bill settled, lifecycle
    // `Parked`, still in the idle index.  The next dispatch to a parked
    // instance restarts billing and injects the cold-start latency through
    // the availability boundary (`available_from_us`), so admission needs
    // no serverless branch at all.

    /// Starts a tracked idle period on a live idle instance: arms the
    /// keep-alive timer under the lane's policy.  No-op for always-on lanes
    /// (no policy).
    fn serverless_arm(&mut self, i: usize) {
        let model = self.cluster.instances()[i].model.index();
        let config = self.serverless.as_ref().expect("serverless arm");
        let Some(policy) = &config.policies[model] else {
            return;
        };
        let keep_alive_us = policy.keep_alive_us(&self.idle_histograms[model]).max(1);
        let st = &mut self.serverless_states[i];
        debug_assert!(
            !st.park_pending && !st.parked,
            "arming an instance already in a tracked idle period"
        );
        st.idle_since_us = self.now;
        st.park_pending = true;
        st.park_gen += 1;
        let gen = st.park_gen;
        self.calendar.push(TimedEvent {
            time: self.now + keep_alive_us,
            seq: self.seq,
            instance_index: i,
            kind: TimedKind::KeepAliveExpiry,
            gen,
        });
        self.seq += 1;
    }

    /// A live keep-alive expiry fired: the instance parks.  Its bill
    /// settles through now, the lifecycle flips to
    /// [`InstanceLifecycle::Parked`] (unbilled from here), and it *stays*
    /// in the idle index — parked capacity is still schedulable, it just
    /// costs a cold start to use.
    fn park_instance(&mut self, i: usize) -> EngineEvent {
        {
            let st = &mut self.serverless_states[i];
            st.park_pending = false;
            st.park_gen += 1;
            st.parked = true;
            st.parked_since_us = self.now;
        }
        debug_assert_eq!(
            self.cluster.instances()[i].lifecycle,
            InstanceLifecycle::Active,
            "only a live idle instance has a live keep-alive timer"
        );
        self.settle_bill(i, self.now);
        self.cluster.instances_mut()[i].lifecycle = InstanceLifecycle::Parked;
        EngineEvent::InstanceParked { instance_index: i }
    }

    /// A dispatch landed on an idle serverless instance: ends the tracked
    /// idle period.  Records the observed gap into the lane's histogram,
    /// disarms a still-pending timer (lazy deletion), and wakes a parked
    /// instance — parked time booked, billing restarted, and the cold-start
    /// latency injected as a fresh `available_from_us` boundary so the
    /// queued query starts after it.
    fn serverless_on_dispatch(&mut self, i: usize) {
        let (model, type_index) = {
            let inst = &self.cluster.instances()[i];
            (inst.model.index(), inst.type_index)
        };
        let config = self.serverless.as_ref().expect("serverless dispatch");
        if config.policies[model].is_none() {
            return;
        }
        let cold_us = config.cold_start.cost(type_index).total_us();
        let st = &mut self.serverless_states[i];
        if !st.park_pending && !st.parked {
            // Not in a tracked idle period (e.g. first dispatch to an
            // instance still provisioning): nothing to observe or disarm.
            return;
        }
        let idle_us = self.now.saturating_sub(st.idle_since_us);
        self.idle_histograms[model].record(idle_us);
        if st.park_pending {
            st.park_pending = false;
            st.park_gen += 1;
            self.calendar.note_cancelled();
        }
        if st.parked {
            st.parked = false;
            self.service.parked_us_sum += self.now - st.parked_since_us;
            self.billed_start_us[i] = self.now;
            self.service.cold_starts += 1;
            self.service.cold_start_wait_us_sum += cold_us;
            let inst = &mut self.cluster.instances_mut()[i];
            inst.lifecycle = InstanceLifecycle::Active;
            inst.available_from_us = self.now + cold_us;
        }
    }

    /// An idle serverless instance leaves the dispatchable world (retire,
    /// preemption notice, outage): a pending keep-alive timer dies lazily
    /// and an open parked interval is booked.  The caller owns the
    /// lifecycle transition; a parked instance's bill stays settled (there
    /// is no container left to charge for).
    fn serverless_on_decommission(&mut self, i: usize) {
        let st = &mut self.serverless_states[i];
        if st.park_pending {
            st.park_pending = false;
            st.park_gen += 1;
            self.calendar.note_cancelled();
        }
        if st.parked {
            st.parked = false;
            self.service.parked_us_sum += self.now - st.parked_since_us;
        }
    }
}

/// Runs one simulation of `trace` against `config` on `pool` serving
/// `service`, distributing queries with `scheduler`.
///
/// Convenience wrapper constructing a [`SimEngine`] and running it to
/// completion.
pub fn run_trace(
    pool: &PoolSpec,
    config: &Config,
    service: &ServiceSpec,
    trace: &Trace,
    scheduler: &mut dyn Scheduler,
    options: &SimulationOptions,
) -> SimReport {
    SimEngine::new(pool, config, service, trace, scheduler, options).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::InstanceLifecycle;
    use crate::scheduler::FcfsScheduler;
    use kairos_models::{calibration::paper_calibration, ec2, mlmodel::ModelKind};
    use kairos_workload::TraceSpec;

    fn setup() -> (PoolSpec, ServiceSpec) {
        (
            PoolSpec::new(ec2::paper_pool()),
            ServiceSpec::new(ModelKind::Wnd, paper_calibration()),
        )
    }

    #[test]
    fn every_offered_query_is_accounted_for() {
        let (pool, service) = setup();
        let trace = TraceSpec::production(100.0, 1.0, 1).generate();
        let config = Config::new(vec![2, 0, 1, 0]);
        let mut fcfs = FcfsScheduler::new();
        let report = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut fcfs,
            &SimulationOptions::default(),
        );
        assert_eq!(report.offered, trace.len());
        assert_eq!(report.completed() + report.unfinished.len(), trace.len());
        assert_eq!(report.scheduler, "fcfs");
    }

    #[test]
    fn completions_never_precede_arrivals_and_service_is_serial() {
        let (pool, service) = setup();
        let trace = TraceSpec::production(200.0, 1.0, 2).generate();
        let config = Config::new(vec![1, 1, 0, 0]);
        let mut fcfs = FcfsScheduler::new();
        let report = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut fcfs,
            &SimulationOptions::default(),
        );
        for r in &report.records {
            assert!(r.start_us >= r.arrival_us);
            assert!(r.completion_us > r.start_us);
        }
        // One query at a time per instance: service intervals on the same
        // instance must not overlap.
        let mut by_instance: std::collections::HashMap<usize, Vec<(TimeUs, TimeUs)>> =
            std::collections::HashMap::new();
        for r in &report.records {
            by_instance
                .entry(r.instance_index)
                .or_default()
                .push((r.start_us, r.completion_us));
        }
        for intervals in by_instance.values_mut() {
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlapping service intervals {w:?}");
            }
        }
    }

    #[test]
    fn light_load_on_gpu_meets_qos() {
        let (pool, service) = setup();
        // 20 QPS against one GPU that serves a mean query in ~7 ms: trivially feasible.
        let trace = TraceSpec::production(20.0, 2.0, 3).generate();
        let config = Config::new(vec![1, 0, 0, 0]);
        let mut fcfs = FcfsScheduler::new();
        let report = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut fcfs,
            &SimulationOptions::default(),
        );
        assert!(
            report.meets_qos(0.01),
            "violations: {}",
            report.violation_fraction()
        );
        assert!(report.unfinished.is_empty());
    }

    #[test]
    fn overload_is_detected_as_violations() {
        let (pool, service) = setup();
        // 2000 QPS against a single GPU is far beyond capacity.
        let trace = TraceSpec::production(2000.0, 1.0, 4).generate();
        let config = Config::new(vec![1, 0, 0, 0]);
        let mut fcfs = FcfsScheduler::new();
        let report = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut fcfs,
            &SimulationOptions::default(),
        );
        assert!(!report.meets_qos(0.05), "overload should violate QoS");
    }

    #[test]
    fn qos_probe_matches_full_replay_verdict() {
        let (pool, service) = setup();
        let config = Config::new(vec![1, 0, 1, 0]);
        for (rate, seed) in [(30.0, 5u64), (150.0, 6), (600.0, 7), (2500.0, 8)] {
            let trace = TraceSpec::production(rate, 1.0, seed).generate();
            let opts = SimulationOptions::default();
            for tolerance in [0.0, 0.01, 0.1] {
                let mut s1 = FcfsScheduler::new();
                let full = run_trace(&pool, &config, &service, &trace, &mut s1, &opts)
                    .meets_qos(tolerance);
                let mut s2 = FcfsScheduler::new();
                let probe = SimEngine::new(&pool, &config, &service, &trace, &mut s2, &opts)
                    .run_qos_probe(tolerance);
                assert_eq!(
                    probe, full,
                    "probe verdict diverged at rate {rate} tolerance {tolerance}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed_and_trace() {
        let (pool, service) = setup();
        let trace = TraceSpec::production(150.0, 1.0, 9).generate();
        let config = Config::new(vec![1, 1, 1, 1]);
        let opts = SimulationOptions { seed: 7 };
        let a = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut FcfsScheduler::new(),
            &opts,
        );
        let b = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut FcfsScheduler::new(),
            &opts,
        );
        assert_eq!(a.records, b.records);
        assert_eq!(a.horizon_us, b.horizon_us);
    }

    /// A policy that dispatches queued queries in a fixed, deliberately
    /// non-monotonic order, to pin down the engine's dispatch semantics.
    struct ReversingScheduler;

    impl Scheduler for ReversingScheduler {
        fn name(&self) -> &'static str {
            "reversing"
        }

        fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
            // Wait until the whole burst is visible, then dispatch the newest
            // two queries (in that order) to instance 0, leaving the rest in
            // the central queue.
            if ctx.queued.len() < 5 {
                return;
            }
            out.extend(
                ctx.queued
                    .iter()
                    .enumerate()
                    .rev()
                    .take(2)
                    .map(|(query_index, _)| Dispatch {
                        query_index,
                        instance_index: 0,
                    }),
            );
        }
    }

    #[test]
    fn dispatch_order_is_preserved_by_the_removal_sweep() {
        let (pool, service) = setup();
        let config = Config::new(vec![1, 0, 0, 0]);
        // Five queries arriving together so one scheduling round sees all.
        let queries: Vec<Query> = (0..5).map(|i| Query::new(i, 10 + i as u32, 100)).collect();
        let trace = Trace::from_queries(queries);
        let mut scheduler = ReversingScheduler;
        let mut engine = SimEngine::new(
            &pool,
            &config,
            &service,
            &trace,
            &mut scheduler,
            &SimulationOptions::default(),
        );
        // Process the five arrival events.
        for _ in 0..5 {
            assert!(engine.step());
        }
        // The scheduling round saw queries [0,1,2,3,4] and dispatched {4, 3}
        // in that order: 4 entered service first, 3 waits in the local queue.
        let held: Vec<u64> = engine.instance_queries(0).map(|q| q.id).collect();
        assert_eq!(held[0], 4, "first dispatched query must start first");
        let local = &held[1..];
        assert_eq!(local, [3], "second dispatch queues behind: {local:?}");
        // The central queue keeps the remaining queries in arrival order.
        let central: Vec<u64> = engine.central_queue().iter().map(|q| q.id).collect();
        assert_eq!(central, vec![0, 1, 2], "sweep must preserve arrival order");
    }

    /// A policy that dispatches a scattered subset (every other query) so
    /// the gap-closing sweep has interior gaps to close.
    struct AlternatingScheduler;

    impl Scheduler for AlternatingScheduler {
        fn name(&self) -> &'static str {
            "alternating"
        }

        fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
            if ctx.queued.len() < 6 {
                return;
            }
            out.extend(
                (0..ctx.queued.len())
                    .step_by(2)
                    .map(|query_index| Dispatch {
                        query_index,
                        instance_index: 0,
                    }),
            );
        }
    }

    #[test]
    fn scattered_dispatches_leave_survivors_in_order() {
        let (pool, service) = setup();
        let config = Config::new(vec![1, 0, 0, 0]);
        let queries: Vec<Query> = (0..6).map(|i| Query::new(i, 10, 100)).collect();
        let trace = Trace::from_queries(queries);
        let mut scheduler = AlternatingScheduler;
        let mut engine = SimEngine::new(
            &pool,
            &config,
            &service,
            &trace,
            &mut scheduler,
            &SimulationOptions::default(),
        );
        for _ in 0..6 {
            assert!(engine.step());
        }
        // Queries 0, 2, 4 were dispatched; 1, 3, 5 must survive in order.
        let central: Vec<u64> = engine.central_queue().iter().map(|q| q.id).collect();
        assert_eq!(central, vec![1, 3, 5]);
        let held: Vec<u64> = engine.instance_queries(0).map(|q| q.id).collect();
        assert_eq!(held[0], 0);
        assert_eq!(held[1..], [2, 4]);
    }

    /// Dispatches every queued query to instance 0 as soon as it arrives.
    struct FirstInstance;

    impl Scheduler for FirstInstance {
        fn name(&self) -> &'static str {
            "first-instance"
        }

        fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
            out.extend((0..ctx.queued.len()).map(|query_index| Dispatch {
                query_index,
                instance_index: 0,
            }));
        }
    }

    #[test]
    fn instance_backlog_counts_every_stage() {
        let (pool, service) = setup();
        let config = Config::new(vec![1, 0, 0, 0]);
        // Two full batches and a straggler at t = 0: the first batch is in
        // service, the second waits for the one admission slot, and the
        // straggler forms the next batch.
        let trace = Trace::from_queries(vec![
            Query::new(0, 200, 0),
            Query::new(1, 200, 0),
            Query::new(2, 50, 0),
        ]);
        let mut scheduler = FirstInstance;
        let mut engine = SimEngine::new(
            &pool,
            &config,
            &service,
            &trace,
            &mut scheduler,
            &SimulationOptions::default(),
        )
        .with_batching(BatchingOptions::new(200, 10_000));
        assert_eq!(engine.instance_backlog(0), 0);
        for _ in 0..3 {
            assert!(engine.step());
        }
        assert_eq!(engine.instance_backlog(0), 3);
        assert_eq!(engine.recompute_views()[0].backlog, 3);
        // Two of the three wait outside service (queued + forming).
        assert_eq!(engine.queued_backlog(), 2);
        let held: Vec<u64> = engine.instance_queries(0).map(|q| q.id).collect();
        assert_eq!(held, vec![0, 1, 2], "in service, queued, forming");
        let report = engine.run();
        assert_eq!(report.completed(), 3);
    }

    #[test]
    fn added_instance_waits_for_provisioning_before_serving() {
        let (pool, service) = setup();
        // Empty-ish cluster: one GPU, plus a burst that takes it ~220 ms to
        // drain alone (Wnd batch 900 is ~18 ms on a g4dn).
        let config = Config::new(vec![1, 0, 0, 0]);
        let queries: Vec<Query> = (0..12).map(|i| Query::new(i, 900, 1_000)).collect();
        let trace = Trace::from_queries(queries);
        let mut scheduler = FcfsScheduler::new();
        let mut engine = SimEngine::new(
            &pool,
            &config,
            &service,
            &trace,
            &mut scheduler,
            &SimulationOptions::default(),
        );
        // Process the arrivals, then add a second GPU with a 50 ms delay.
        for _ in 0..12 {
            assert!(engine.step());
        }
        let added = engine.add_instance(0, 50_000);
        assert_eq!(added, 1);
        assert_eq!(
            engine.cluster().instances()[added].available_from_us,
            51_000
        );
        let report = engine.run();
        assert_eq!(report.completed(), 12);
        // Every query served by the added instance started at or after its
        // provisioning boundary.
        for r in report.records.iter().filter(|r| r.instance_index == added) {
            assert!(r.start_us >= 51_000, "start {} before ready", r.start_us);
        }
        // The added instance actually took work off the overloaded GPU.
        assert!(
            report.records.iter().any(|r| r.instance_index == added),
            "added capacity must be used"
        );
    }

    #[test]
    fn retired_instance_drains_gracefully_and_takes_no_new_work() {
        let (pool, service) = setup();
        let config = Config::new(vec![2, 0, 0, 0]);
        // Two bursts: one before retirement, one after.
        let mut queries: Vec<Query> = (0..4).map(|i| Query::new(i, 500, 1_000)).collect();
        queries.extend((4..8).map(|i| Query::new(i, 500, 400_000)));
        let trace = Trace::from_queries(queries);
        let mut scheduler = FcfsScheduler::new();
        let mut engine = SimEngine::new(
            &pool,
            &config,
            &service,
            &trace,
            &mut scheduler,
            &SimulationOptions::default(),
        );
        // Process the first burst, then retire instance 1 while it is busy.
        for _ in 0..4 {
            assert!(engine.step());
        }
        engine.retire_instance(1);
        assert_eq!(
            engine.cluster().instances()[1].lifecycle,
            InstanceLifecycle::Draining
        );
        let report = engine.run();
        assert_eq!(report.completed(), 8);
        // The retiring instance finished what it had but nothing that arrived
        // after retirement was requested.
        for r in report.records.iter().filter(|r| r.instance_index == 1) {
            assert!(
                r.arrival_us < 400_000,
                "query {} dispatched to a draining instance",
                r.id
            );
        }
    }

    #[test]
    fn retiring_an_idle_instance_is_immediate() {
        let (pool, service) = setup();
        let config = Config::new(vec![2, 0, 0, 0]);
        let trace = Trace::from_queries(vec![Query::new(0, 10, 100)]);
        let mut scheduler = FcfsScheduler::new();
        let mut engine = SimEngine::new(
            &pool,
            &config,
            &service,
            &trace,
            &mut scheduler,
            &SimulationOptions::default(),
        );
        engine.retire_instance(1);
        assert!(engine.cluster().instances()[1].is_retired());
        let report = engine.run();
        assert_eq!(report.completed(), 1);
        assert_eq!(report.records[0].instance_index, 0);
    }

    /// A hook that scales out on the first arrival and retires the original
    /// instance once the cluster has grown — exercising `run_with_hook`.
    struct ScaleOutHook {
        added: bool,
    }

    impl EngineHook for ScaleOutHook {
        fn on_event(
            &mut self,
            _now_us: TimeUs,
            event: &EngineEvent,
            cluster: &Cluster,
        ) -> Vec<ClusterAction> {
            match event {
                EngineEvent::Arrival { .. } if !self.added => {
                    self.added = true;
                    vec![ClusterAction::AddInstance {
                        type_index: 0,
                        provisioning_delay_us: 10_000,
                    }]
                }
                EngineEvent::InstanceReady { .. } => {
                    assert!(cluster.len() > 1);
                    vec![ClusterAction::RetireInstance { instance_index: 0 }]
                }
                _ => Vec::new(),
            }
        }
    }

    #[test]
    fn hook_can_grow_and_shrink_the_cluster_mid_run() {
        let (pool, service) = setup();
        let config = Config::new(vec![1, 0, 0, 0]);
        let trace = TraceSpec::production(100.0, 1.0, 11).generate();
        let offered = trace.len();
        let mut scheduler = FcfsScheduler::new();
        let engine = SimEngine::new(
            &pool,
            &config,
            &service,
            &trace,
            &mut scheduler,
            &SimulationOptions::default(),
        );
        let mut hook = ScaleOutHook { added: false };
        let report = engine.run_with_hook(&mut hook);
        assert_eq!(report.completed() + report.unfinished.len(), offered);
        // After the hand-over, all late traffic runs on the added instance.
        let last = report.records.iter().max_by_key(|r| r.completion_us);
        assert_eq!(last.unwrap().instance_index, 1);
    }

    #[test]
    fn unsorted_trace_is_replayed_in_event_order() {
        let (pool, service) = setup();
        let config = Config::new(vec![1, 0, 0, 0]);
        // Hand-assembled out-of-order queries (bypassing `from_queries`).
        let trace = Trace {
            spec: None,
            queries: vec![
                Query::new(0, 10, 9_000),
                Query::new(1, 10, 1_000),
                Query::new(2, 10, 5_000),
            ],
        };
        let report = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut FcfsScheduler::new(),
            &SimulationOptions::default(),
        );
        let ids: Vec<u64> = report.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 2, 0]);
        assert!(report.records.iter().all(|r| r.start_us >= r.arrival_us));
    }

    /// A two-offering market pool: the on-demand GPU anchor plus a
    /// preemptible spot r5n with one scripted notice.
    fn spot_setup(
        notice_at_us: TimeUs,
        notice_us: TimeUs,
    ) -> (kairos_models::OfferingCatalog, kairos_models::TraceMarket) {
        use kairos_models::{
            Offering, OfferingCatalog, PreemptionProcess, PriceTrace, TraceMarket,
        };
        let catalog = OfferingCatalog::new(vec![
            Offering::on_demand(ec2::g4dn_xlarge()),
            Offering::spot(
                ec2::r5n_large(),
                PriceTrace::constant(0.05),
                PreemptionProcess::At {
                    notices_us: vec![notice_at_us],
                },
            ),
        ]);
        let market = TraceMarket::new(catalog.clone()).with_notice(notice_us);
        (catalog, market)
    }

    #[test]
    fn constant_market_attachment_is_bit_identical_to_no_market() {
        let (pool, service) = setup();
        let market = kairos_models::ConstantMarket::from_pool(&pool);
        let trace = TraceSpec::production(400.0, 1.0, 77).generate();
        let config = Config::new(vec![1, 0, 2, 0]);
        let opts = SimulationOptions { seed: 5 };
        let plain = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut FcfsScheduler::new(),
            &opts,
        );
        let mut scheduler = FcfsScheduler::new();
        let attached = SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
            .with_market(&market)
            .run();
        assert_eq!(plain.records, attached.records);
        assert_eq!(plain.unfinished, attached.unfinished);
        assert_eq!(plain.horizon_us, attached.horizon_us);
        assert_eq!(
            plain.billed_dollars.to_bits(),
            attached.billed_dollars.to_bits(),
            "constant-market billing must be bit-identical to the static path"
        );
        assert_eq!(attached.preemption_notices, 0);
        // And the static bill is exactly hourly cost × hours.
        let hours = plain.horizon_us as f64 / 3.6e9;
        assert!((plain.billed_dollars - config.cost(&pool) * hours).abs() < 1e-9);
    }

    #[test]
    fn preemption_notice_stops_dispatches_and_kill_requeues_in_flight_work_once() {
        use crate::cluster::InstanceLifecycle;
        // WND batch 900 takes ~120 ms on an r5n: a 10 ms notice window
        // cannot drain the query in flight at the 100 ms notice.
        let (catalog, market) = spot_setup(100_000, 10_000);
        let pool = catalog.effective_pool();
        let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        // Six heavy queries up front: FCFS puts one on each instance, the
        // rest wait centrally; more arrive long after the storm.
        let mut queries: Vec<Query> = (0..6).map(|i| Query::new(i, 900, 1_000)).collect();
        queries.extend((6..9).map(|i| Query::new(i, 900, 400_000)));
        let trace = Trace::from_queries(queries);
        let offered = trace.len();
        let mut scheduler = FcfsScheduler::new();
        let mut engine = SimEngine::new(
            &pool,
            &Config::new(vec![1, 1]),
            &service,
            &trace,
            &mut scheduler,
            &SimulationOptions::default(),
        )
        .with_market(&market);

        let mut saw_notice = false;
        let mut saw_kill = false;
        let mut requeued_total = 0usize;
        while let Some(event) = engine.step_event() {
            match event {
                EngineEvent::PreemptionNotice {
                    offering,
                    affected,
                    deadline_us,
                } => {
                    saw_notice = true;
                    assert_eq!(offering, 1);
                    assert_eq!(affected, 1);
                    assert_eq!(deadline_us, 110_000);
                    let inst = &engine.cluster().instances()[1];
                    assert_eq!(inst.lifecycle, InstanceLifecycle::Preempting);
                    assert!(!inst.accepts_dispatches());
                }
                EngineEvent::InstancePreempted {
                    instance_index,
                    requeued,
                } => {
                    saw_kill = true;
                    requeued_total += requeued;
                    assert_eq!(instance_index, 1);
                    let inst = &engine.cluster().instances()[instance_index];
                    assert!(inst.is_preempted());
                    assert_eq!(
                        engine.instance_backlog(instance_index),
                        0,
                        "kill must strip all work"
                    );
                }
                _ => {}
            }
        }
        assert!(saw_notice && saw_kill);
        assert_eq!(requeued_total, 1, "exactly the in-flight query requeues");

        let report = engine.report();
        assert_eq!(report.preemption_notices, 1);
        assert_eq!(report.preempted_instances, 1);
        assert_eq!(report.requeued_queries, 1);
        // Conservation: every query completed or is reported unfinished, and
        // the requeued one appears exactly once among them.
        assert_eq!(report.completed() + report.unfinished.len(), offered);
        assert_eq!(report.completed(), offered, "the GPU drains everything");
        // Nothing was served by the spot instance after its notice.
        for r in report.records.iter().filter(|r| r.instance_index == 1) {
            assert!(
                r.completion_us <= 110_000,
                "query {} finished on the preempted instance after its kill",
                r.id
            );
        }
        // Billing: the spot instance stops billing at its kill, the GPU
        // bills through the horizon.
        let hours = |us: TimeUs| us as f64 / 3.6e9;
        let expect = 0.526 * hours(report.horizon_us) + 0.05 * hours(110_000);
        assert!(
            (report.billed_dollars - expect).abs() < 1e-12,
            "billed {} vs expected {expect}",
            report.billed_dollars
        );
    }

    #[test]
    fn preempting_instance_that_drains_early_is_killed_idle() {
        let (catalog, market) = spot_setup(100_000, 400_000);
        let pool = catalog.effective_pool();
        let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        // One light query on the spot instance; the generous notice window
        // lets it finish before the deadline.
        let queries: Vec<Query> = (0..2).map(|i| Query::new(i, 10, 1_000)).collect();
        let trace = Trace::from_queries(queries);
        let mut scheduler = FcfsScheduler::new();
        let engine = SimEngine::new(
            &pool,
            &Config::new(vec![1, 1]),
            &service,
            &trace,
            &mut scheduler,
            &SimulationOptions::default(),
        )
        .with_market_horizon(&market, 1_000_000);
        let report = engine.run();
        assert_eq!(report.completed(), 2);
        assert_eq!(report.preempted_instances, 1);
        assert_eq!(report.requeued_queries, 0, "drained before the deadline");
        // Billing still runs to the kill deadline (the cloud charges until
        // it reclaims the machine), not to the early drain.
        let hours = |us: TimeUs| us as f64 / 3.6e9;
        let expect = 0.526 * hours(report.horizon_us) + 0.05 * hours(500_000);
        assert!((report.billed_dollars - expect).abs() < 1e-12);
    }

    mod flex_path {
        use super::*;
        use crate::flex::SharingOptions;
        use kairos_models::ThroughputDegradation;

        /// Service time of one lone serial query of `batch` at t = 0 on the
        /// GPU — the yardstick the sharing tests scale against.
        fn solo_service_us(batch: u32) -> TimeUs {
            let (pool, service) = setup();
            let config = Config::new(vec![1, 0, 0, 0]);
            let trace = Trace::from_queries(vec![Query::new(0, batch, 0)]);
            let report = run_trace(
                &pool,
                &config,
                &service,
                &trace,
                &mut FcfsScheduler::new(),
                &SimulationOptions::default(),
            );
            report.records[0].completion_us - report.records[0].start_us
        }

        #[test]
        fn sharing_mode_none_is_the_legacy_engine() {
            let (pool, service) = setup();
            let trace = TraceSpec::production(400.0, 1.0, 21).generate();
            let config = Config::new(vec![1, 1, 2, 0]);
            let opts = SimulationOptions { seed: 3 };
            let plain = run_trace(
                &pool,
                &config,
                &service,
                &trace,
                &mut FcfsScheduler::new(),
                &opts,
            );
            let mut scheduler = FcfsScheduler::new();
            let none = SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                .with_sharing(SharingMode::None)
                .run();
            assert_eq!(plain.records, none.records);
            assert_eq!(plain.unfinished, none.unfinished);
            assert_eq!(plain.events_processed, none.events_processed);
            assert_eq!(
                plain.billed_dollars.to_bits(),
                none.billed_dollars.to_bits()
            );
            assert_eq!(plain.service, none.service);
        }

        #[test]
        fn time_sliced_sharing_halves_the_pace_of_a_pair() {
            let (pool, service) = setup();
            let config = Config::new(vec![1, 0, 0, 0]);
            let s = solo_service_us(100);
            let trace = Trace::from_queries(vec![Query::new(0, 100, 0), Query::new(1, 100, 0)]);
            let mut scheduler = FcfsScheduler::new();
            let report = SimEngine::new(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &SimulationOptions::default(),
            )
            .with_sharing(SharingMode::Fair(SharingOptions::uniform(
                ThroughputDegradation::TimeSliced,
            )))
            .run();
            assert_eq!(report.completed(), 2);
            // Both queries share the instance from t = 0 at half speed, so
            // both finish together at twice the solo service time.
            for r in &report.records {
                assert_eq!(r.start_us, 0);
                assert_eq!(r.completion_us, 2 * s, "records: {:?}", report.records);
            }
            // The pair's admission superseded the lone frontmost completion
            // exactly once, and the stale entry was skipped at pop.
            assert_eq!(report.service.calendar_cancelled, 1);
            assert_eq!(report.service.calendar_stale_popped, 1);
        }

        #[test]
        fn ideal_sharing_runs_the_pair_at_full_speed() {
            let (pool, service) = setup();
            let config = Config::new(vec![1, 0, 0, 0]);
            let s = solo_service_us(100);
            let trace = Trace::from_queries(vec![Query::new(0, 100, 0), Query::new(1, 100, 0)]);
            let mut scheduler = FcfsScheduler::new();
            let report = SimEngine::new(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &SimulationOptions::default(),
            )
            .with_sharing(SharingMode::Fair(SharingOptions::uniform(
                ThroughputDegradation::Ideal,
            )))
            .run();
            assert_eq!(report.completed(), 2);
            for r in &report.records {
                assert_eq!(r.completion_us, s, "contention-free pair runs solo-speed");
            }
        }

        #[test]
        fn concurrency_cap_serializes_admissions() {
            let (pool, service) = setup();
            let config = Config::new(vec![1, 0, 0, 0]);
            let s = solo_service_us(100);
            let trace = Trace::from_queries(vec![Query::new(0, 100, 0), Query::new(1, 100, 0)]);
            let mut scheduler = FcfsScheduler::new();
            let report = SimEngine::new(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &SimulationOptions::default(),
            )
            .with_sharing(SharingMode::Fair(
                SharingOptions::uniform(ThroughputDegradation::TimeSliced).with_max_concurrency(1),
            ))
            .run();
            let mut completions: Vec<TimeUs> =
                report.records.iter().map(|r| r.completion_us).collect();
            completions.sort_unstable();
            // With one admission slot the discipline is serial FIFO again.
            assert_eq!(completions, vec![s, 2 * s]);
            assert_eq!(report.service.calendar_cancelled, 0);
        }

        #[test]
        fn batcher_fires_on_the_size_cap_and_on_the_timeout() {
            let (pool, service) = setup();
            let config = Config::new(vec![1, 0, 0, 0]);
            // Four queries fuse to the 400-unit cap and fire instantly; the
            // straggler waits out the 10 ms timeout alone.
            let mut queries: Vec<Query> = (0..4).map(|i| Query::new(i, 100, 0)).collect();
            queries.push(Query::new(4, 100, 100_000));
            let trace = Trace::from_queries(queries);
            let mut scheduler = FcfsScheduler::new();
            let report = SimEngine::new(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &SimulationOptions::default(),
            )
            .with_batching(BatchingOptions::new(400, 10_000))
            .run();
            assert_eq!(report.completed(), 5);
            assert_eq!(report.service.batches_fired, 2);
            assert_eq!(report.service.batched_queries, 5);
            // The full batch fired with zero forming wait; the straggler
            // waited exactly the timeout.
            assert_eq!(report.service.batch_wait_us_sum, 10_000);
            // Size-cap firing cancelled the full batch's timer; the timer's
            // stale calendar entry was later skipped at pop.
            assert_eq!(report.service.calendar_cancelled, 1);
            assert_eq!(report.service.calendar_stale_popped, 1);
            // The four fused members share one invocation: same start, same
            // completion, and a fused service time below four solo passes.
            let fused: Vec<_> = report.records.iter().filter(|r| r.id < 4).collect();
            let solo = solo_service_us(100);
            for r in &fused {
                assert_eq!(r.start_us, fused[0].start_us);
                assert_eq!(r.completion_us, fused[0].completion_us);
            }
            let fused_service = fused[0].completion_us - fused[0].start_us;
            assert!(
                fused_service < 4 * solo,
                "batching must amortize the intercept: {fused_service} vs 4 x {solo}"
            );
            // The straggler fires at arrival + timeout and serves alone.
            let straggler = report.records.iter().find(|r| r.id == 4).unwrap();
            assert_eq!(straggler.start_us, 110_000);
            assert_eq!(straggler.completion_us - straggler.start_us, solo);
        }

        #[test]
        fn batching_only_serves_fused_invocations_serially() {
            let (pool, service) = setup();
            let config = Config::new(vec![1, 0, 0, 0]);
            // Two full batches back to back: the second fires while the
            // first is still in service and must wait for its slot.
            let queries: Vec<Query> = (0..8).map(|i| Query::new(i, 100, 0)).collect();
            let trace = Trace::from_queries(queries);
            let mut scheduler = FcfsScheduler::new();
            let report = SimEngine::new(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &SimulationOptions::default(),
            )
            .with_batching(BatchingOptions::new(400, 10_000))
            .run();
            assert_eq!(report.completed(), 8);
            assert_eq!(report.service.batches_fired, 2);
            let mut intervals: Vec<(TimeUs, TimeUs)> = report
                .records
                .iter()
                .map(|r| (r.start_us, r.completion_us))
                .collect();
            intervals.sort_unstable();
            intervals.dedup();
            assert_eq!(intervals.len(), 2, "two distinct fused invocations");
            assert!(
                intervals[0].1 <= intervals[1].0,
                "one invocation at a time without sharing: {intervals:?}"
            );
        }

        #[test]
        fn preemption_kill_requeues_every_flex_stage_once() {
            let (catalog, market) = spot_setup(100_000, 10_000);
            let pool = catalog.effective_pool();
            let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
            // Heavy fused batches on both instances; the spot instance dies
            // mid-service and everything it held drains on the GPU.  The
            // late arrivals extend the trace horizon past the notice.
            let mut queries: Vec<Query> = (0..12).map(|i| Query::new(i, 900, 1_000)).collect();
            queries.extend((12..14).map(|i| Query::new(i, 900, 400_000)));
            let trace = Trace::from_queries(queries);
            let offered = trace.len();
            let mut scheduler = FcfsScheduler::new();
            let report = SimEngine::new(
                &pool,
                &Config::new(vec![1, 1]),
                &service,
                &trace,
                &mut scheduler,
                &SimulationOptions::default(),
            )
            .with_market(&market)
            .with_sharing(SharingMode::Fair(
                SharingOptions::uniform(ThroughputDegradation::TimeSliced).with_max_concurrency(2),
            ))
            .with_batching(BatchingOptions::new(1_800, 5_000))
            .run();
            assert_eq!(report.preempted_instances, 1);
            assert!(report.requeued_queries > 0, "the kill must strip work");
            assert_eq!(
                report.completed() + report.unfinished.len(),
                offered,
                "every query is accounted for exactly once"
            );
            assert_eq!(report.completed(), offered, "the GPU drains everything");
            for r in report.records.iter().filter(|r| r.instance_index == 1) {
                assert!(r.completion_us <= 110_000, "completion after the kill");
            }
            assert!(
                report.service.calendar_stale_popped <= report.service.calendar_cancelled,
                "every skipped entry must have been cancelled first"
            );
        }

        #[test]
        fn retiring_a_loaded_flex_instance_drains_before_terminating() {
            let (pool, service) = setup();
            let config = Config::new(vec![2, 0, 0, 0]);
            let mut queries: Vec<Query> = (0..4).map(|i| Query::new(i, 500, 1_000)).collect();
            queries.extend((4..8).map(|i| Query::new(i, 500, 400_000)));
            let trace = Trace::from_queries(queries);
            let mut scheduler = FcfsScheduler::new();
            let mut engine = SimEngine::new(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &SimulationOptions::default(),
            )
            .with_sharing(SharingMode::Fair(
                SharingOptions::uniform(ThroughputDegradation::TimeSliced).with_max_concurrency(2),
            ));
            for _ in 0..4 {
                assert!(engine.step());
            }
            // Retire instance 1 while its flex stages hold work: the
            // cluster-level idleness check must not retire it on the spot.
            engine.retire_instance(1);
            assert_eq!(
                engine.cluster().instances()[1].lifecycle,
                InstanceLifecycle::Draining
            );
            let report = engine.run();
            assert_eq!(report.completed(), 8);
            for r in report.records.iter().filter(|r| r.instance_index == 1) {
                assert!(
                    r.arrival_us < 400_000,
                    "query {} dispatched to a draining sharing instance",
                    r.id
                );
            }
        }

        #[test]
        fn flex_instance_added_mid_run_provisions_before_admitting() {
            let (pool, service) = setup();
            let config = Config::new(vec![1, 0, 0, 0]);
            let queries: Vec<Query> = (0..12).map(|i| Query::new(i, 900, 1_000)).collect();
            let trace = Trace::from_queries(queries);
            let mut scheduler = FcfsScheduler::new();
            let mut engine = SimEngine::new(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &SimulationOptions::default(),
            )
            .with_sharing(SharingMode::Fair(
                SharingOptions::uniform(ThroughputDegradation::TimeSliced).with_max_concurrency(1),
            ));
            for _ in 0..12 {
                assert!(engine.step());
            }
            let added = engine.add_instance(0, 50_000);
            let report = engine.run();
            assert_eq!(report.completed(), 12);
            for r in report.records.iter().filter(|r| r.instance_index == added) {
                assert!(r.start_us >= 51_000, "start {} before ready", r.start_us);
            }
            assert!(
                report.records.iter().any(|r| r.instance_index == added),
                "added capacity must be used"
            );
        }
    }

    #[test]
    fn incremental_views_match_recomputed_views_each_step() {
        use crate::flex::SharingOptions;
        use kairos_models::ThroughputDegradation;
        let (pool, service) = setup();
        // FCFS dispatches to idle instances only, so this exercises the
        // in-service accounting (and, with the knobs, the forming and
        // sharing stages); deep-queue coverage (and the full 10k-query
        // regression) lives in tests/engine_regression.rs with a
        // queue-building scheduler.
        let trace = TraceSpec::production(600.0, 0.5, 31).generate();
        let config = Config::new(vec![1, 0, 1, 0]);
        let sharing = SharingMode::Fair(
            SharingOptions::uniform(ThroughputDegradation::TimeSliced).with_max_concurrency(2),
        );
        let batching = BatchingOptions::new(256, 2_000);
        for knob in 0..4 {
            let mut scheduler = FcfsScheduler::new();
            let mut engine = SimEngine::new(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &SimulationOptions::default(),
            );
            if knob & 1 == 1 {
                engine = engine.with_sharing(sharing.clone());
            }
            if knob & 2 == 2 {
                engine = engine.with_batching(batching);
            }
            let mut steps = 0usize;
            while engine.step() {
                let reference = engine.recompute_views();
                let reference_idle = engine.recompute_idle();
                let (views, idle) = engine.scheduler_views();
                assert_eq!(views, &reference[..], "views diverged at step {steps}");
                assert_eq!(idle, &reference_idle[..], "idle diverged at step {steps}");
                steps += 1;
            }
            assert!(
                steps > trace.len(),
                "simulation should process every arrival"
            );
        }
    }

    #[test]
    fn zone_outage_kills_the_domain_and_books_the_record() {
        let (pool, service) = setup();
        let trace = TraceSpec::production(200.0, 2.0, 5).generate();
        // Two instances of type 0 (zone a) and two of type 2 (zone b).
        let config = Config::new(vec![2, 0, 2, 0]);
        let zone_a = FailureDomain::zone("us-east-1", "us-east-1a");
        let zone_b = FailureDomain::zone("us-east-1", "us-east-1b");
        let placements = vec![
            zone_a.clone(),
            zone_a.clone(),
            zone_b.clone(),
            zone_b.clone(),
        ];
        let process = FaultProcess::new(vec![FaultEvent::ZoneOutage {
            domain: zone_a.clone(),
            start_us: 500_000,
            duration_us: 400_000,
        }]);
        let mut fcfs = FcfsScheduler::new();
        let report = SimEngine::new(
            &pool,
            &config,
            &service,
            &trace,
            &mut fcfs,
            &SimulationOptions::default(),
        )
        .with_faults(&process, &placements)
        .run();
        assert_eq!(report.outages.len(), 1);
        let outage = &report.outages[0];
        assert_eq!(outage.domain, zone_a.label());
        assert_eq!((outage.start_us, outage.end_us), (500_000, 900_000));
        // Both zone-a instances die; zone b survives untouched.
        assert_eq!(outage.killed_instances, 2);
        assert_eq!(report.preempted_instances, 2);
        assert!(report.records.iter().all(|r| r.completion_us
            < 500_000 + FaultProcess::DEFAULT_NOTICE_US
            || r.type_index >= 2));
        // Conservation and the lazy-deletion invariant hold on fault paths.
        assert_eq!(report.completed() + report.unfinished.len(), report.offered);
        assert!(report.service.calendar_stale_popped <= report.service.calendar_cancelled);
        assert!(report.service.calendar_cancelled <= report.service.calendar_scheduled);
    }

    #[test]
    fn capacity_shortage_rejects_purchases_with_a_typed_error() {
        let (pool, service) = setup();
        let trace = TraceSpec::production(50.0, 1.0, 9).generate();
        let config = Config::new(vec![1, 0, 0, 0]);
        let process = FaultProcess::new(vec![FaultEvent::CapacityShortage {
            domain: FailureDomain::global(),
            start_us: 100_000,
            end_us: 30_000_000,
        }]);
        let mut fcfs = FcfsScheduler::new();
        let mut engine = SimEngine::new(
            &pool,
            &config,
            &service,
            &trace,
            &mut fcfs,
            &SimulationOptions::default(),
        )
        .with_faults(&process, &[]);
        let mut toggles = 0usize;
        while let Some(event) = engine.step_event() {
            match event {
                EngineEvent::CapacityShortage { active: true, .. } => {
                    toggles += 1;
                    let err = engine
                        .try_add_instance_for(ModelId::DEFAULT, 1, 0)
                        .unwrap_err();
                    assert_eq!(err.cause, RejectionCause::CapacityShortage);
                    assert_eq!(err.type_index, 1);
                    assert_eq!(err.at_us, 100_000);
                }
                EngineEvent::CapacityShortage { active: false, .. } => {
                    toggles += 1;
                    assert!(engine.try_add_instance_for(ModelId::DEFAULT, 1, 0).is_ok());
                }
                _ => {}
            }
        }
        assert_eq!(toggles, 2);
        let report = engine.report();
        assert_eq!(report.rejected_purchases, 1);
    }

    mod serverless_lane {
        use super::*;
        use crate::serverless::ServerlessConfig;
        use kairos_models::{ColdStartCost, ColdStartProfile, KeepAlivePolicy};

        fn cold_profile() -> ColdStartProfile {
            ColdStartProfile::uniform(ColdStartCost::new(200_000, 300_000))
        }

        #[test]
        fn all_none_policies_are_the_legacy_engine() {
            let (pool, service) = setup();
            let trace = TraceSpec::production(300.0, 1.0, 21).generate();
            let config = Config::new(vec![1, 0, 2, 0]);
            let opts = SimulationOptions { seed: 9 };
            let plain = run_trace(
                &pool,
                &config,
                &service,
                &trace,
                &mut FcfsScheduler::new(),
                &opts,
            );
            let mut scheduler = FcfsScheduler::new();
            let attached = SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                .with_serverless(ServerlessConfig {
                    policies: vec![None],
                    cold_start: cold_profile(),
                })
                .run();
            assert_eq!(plain.records, attached.records);
            assert_eq!(plain.unfinished, attached.unfinished);
            assert_eq!(plain.horizon_us, attached.horizon_us);
            assert_eq!(
                plain.billed_dollars.to_bits(),
                attached.billed_dollars.to_bits()
            );
            assert_eq!(plain.events_processed, attached.events_processed);
            assert_eq!(attached.service.cold_starts, 0);
            assert_eq!(attached.service.parked_us_sum, 0);
        }

        #[test]
        fn fixed_keep_alive_parks_then_cold_start_delays_the_wake_dispatch() {
            let (pool, service) = setup();
            let config = Config::new(vec![1, 0, 0, 0]);
            // One query, a 10 s silence, a second query: the instance parks
            // 1 s after the first completion and pays the cold start on the
            // second dispatch.
            let trace = Trace {
                spec: None,
                queries: vec![Query::new(0, 10, 0), Query::new(1, 10, 10_000_000)],
            };
            let opts = SimulationOptions::default();
            let plain = run_trace(
                &pool,
                &config,
                &service,
                &trace,
                &mut FcfsScheduler::new(),
                &opts,
            );
            let mut scheduler = FcfsScheduler::new();
            let report = SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                .with_serverless(ServerlessConfig::uniform(
                    KeepAlivePolicy::fixed(1_000_000).unwrap(),
                    1,
                    cold_profile(),
                ))
                .run();
            assert_eq!(report.completed(), 2);
            let c0 = report.records[0].completion_us;
            // The wake dispatch starts exactly one cold start after arrival.
            assert_eq!(report.records[1].start_us, 10_000_000 + 500_000);
            assert_eq!(report.service.cold_starts, 1);
            assert_eq!(report.service.cold_start_wait_us_sum, 500_000);
            // Parked from (first completion + keep-alive) to the wake; the
            // post-run park at (second completion + keep-alive) lies beyond
            // the horizon and accrues nothing.
            assert_eq!(report.service.parked_us_sum, 10_000_000 - (c0 + 1_000_000));
            // The parked window is unbilled: strictly cheaper than the same
            // run without a keep-alive policy, whose bill covers the whole
            // horizon.
            assert!(report.billed_dollars < plain.billed_dollars);
            // The serverless QoS tail: the woken query is late only by the
            // cold start, which the 300 ms WND target absorbs... unless it
            // doesn't — just check accounting consistency here.
            assert!(report.service.calendar_stale_popped <= report.service.calendar_cancelled);
        }

        #[test]
        fn hybrid_policy_learns_the_idle_gap_and_still_parks_the_long_tail() {
            let (pool, service) = setup();
            let config = Config::new(vec![1, 0, 0, 0]);
            // Three short (~2 s) gaps teach the histogram, then a 24 s
            // silence: the learned percentile deadline is far below the
            // histogram span, so the tail parks and the last query pays a
            // cold start.
            let trace = Trace {
                spec: None,
                queries: vec![
                    Query::new(0, 10, 0),
                    Query::new(1, 10, 2_000_000),
                    Query::new(2, 10, 4_000_000),
                    Query::new(3, 10, 6_000_000),
                    Query::new(4, 10, 30_000_000),
                ],
            };
            let opts = SimulationOptions::default();
            let mut scheduler = FcfsScheduler::new();
            let report = SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                .with_serverless(ServerlessConfig::uniform(
                    KeepAlivePolicy::hybrid(1_000_000, 20, 0.9).unwrap(),
                    1,
                    cold_profile(),
                ))
                .run();
            assert_eq!(report.completed(), 5);
            assert!(
                report.service.cold_starts >= 1,
                "the 24 s silence must outlive the learned keep-alive"
            );
            assert!(report.service.parked_us_sum > 0);
            // The learned deadline is at most the 3 s bucket edge, so the
            // tail parks within ~9 s of the fourth completion — well before
            // the last arrival at 30 s.
            assert_eq!(report.records[4].start_us, 30_000_000 + 500_000);
        }

        #[test]
        fn retiring_an_armed_or_parked_instance_settles_cleanly() {
            let (pool, service) = setup();
            let config = Config::new(vec![1, 0, 0, 0]);
            let trace = Trace {
                spec: None,
                queries: vec![Query::new(0, 10, 0)],
            };
            let opts = SimulationOptions::default();
            // Case 1: retire while the keep-alive timer is pending — the
            // timer dies lazily and the run drains without a park.
            let mut scheduler = FcfsScheduler::new();
            let mut engine =
                SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                    .with_serverless(ServerlessConfig::uniform(
                        KeepAlivePolicy::fixed(1_000_000).unwrap(),
                        1,
                        cold_profile(),
                    ));
            while let Some(event) = engine.step_event() {
                if matches!(event, EngineEvent::Completions { .. }) {
                    engine.retire_instance(0);
                }
            }
            let report = engine.report();
            assert_eq!(report.service.parked_us_sum, 0);
            assert_eq!(report.service.cold_starts, 0);
            assert!(report.service.calendar_cancelled >= 1);
            assert!(report.service.calendar_stale_popped <= report.service.calendar_cancelled);
            assert!(engine_retired(&report));

            // Case 2: retire after the park — the open parked interval is
            // booked at the retire instant and billing stays settled.
            let mut scheduler = FcfsScheduler::new();
            let mut engine =
                SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                    .with_serverless(ServerlessConfig::uniform(
                        KeepAlivePolicy::fixed(1_000_000).unwrap(),
                        1,
                        cold_profile(),
                    ));
            let mut parked_at = None;
            while let Some(event) = engine.step_event() {
                if matches!(event, EngineEvent::InstanceParked { .. }) {
                    parked_at = Some(engine.now());
                    engine.retire_instance(0);
                }
            }
            let parked_at = parked_at.expect("the idle instance must park");
            let report = engine.report();
            // Retired at the park instant: the open parked interval is
            // closed with zero length, and the bill covers exactly [0, park).
            assert_eq!(report.service.parked_us_sum, 0);
            let hours = parked_at as f64 / 3.6e9;
            assert!((report.billed_dollars - pool.price(0) * hours).abs() < 1e-9);
        }

        fn engine_retired(report: &SimReport) -> bool {
            // The retired instance never parks, so the whole horizon bills.
            report.service.parked_us_sum == 0
        }
    }

    #[test]
    fn straggler_stretches_service_on_the_victim() {
        let (pool, service) = setup();
        let trace = TraceSpec::production(100.0, 1.0, 3).generate();
        let config = Config::new(vec![1, 0, 0, 0]);
        let run = |process: Option<&FaultProcess>| {
            let mut fcfs = FcfsScheduler::new();
            let mut engine = SimEngine::new(
                &pool,
                &config,
                &service,
                &trace,
                &mut fcfs,
                &SimulationOptions::default(),
            );
            if let Some(p) = process {
                engine = engine.with_faults(p, &[]);
            }
            engine.run()
        };
        let healthy = run(None);
        let process = FaultProcess::new(vec![FaultEvent::Straggler {
            at_us: 0,
            offering: 0,
            slowdown: 0.25,
        }]);
        let degraded = run(Some(&process));
        assert_eq!(degraded.straggler_onsets, 1);
        assert_eq!(healthy.straggler_onsets, 0);
        // Quarter throughput → every service stretches 4x; the run is
        // strictly worse end to end.
        assert!(degraded.mean_latency_ms() > healthy.mean_latency_ms());
        assert!(degraded.horizon_us > healthy.horizon_us);
        // A straggler targeting an offering with no live instance fizzles.
        let fizzle = run(Some(&FaultProcess::new(vec![FaultEvent::Straggler {
            at_us: 0,
            offering: 3,
            slowdown: 0.5,
        }])));
        assert_eq!(fizzle.straggler_onsets, 0);
        assert_eq!(fizzle.mean_latency_ms(), healthy.mean_latency_ms());
    }
}
