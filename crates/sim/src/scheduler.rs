//! The scheduling-policy interface of the simulated serving system.
//!
//! The central controller invokes a [`Scheduler`] every time the system state
//! changes (a query arrives or an instance completes a query).  The scheduler
//! sees the central queue of not-yet-dispatched queries and a view of every
//! instance (its type and when it will next be free) and returns a set of
//! (query, instance) dispatch decisions.  Dispatched queries join the target
//! instance's own queue (served in dispatch order), which allows both
//! central-queue policies (Kairos, Ribbon, DRS — they only dispatch to idle
//! instances) and per-instance-queue policies (Clockwork) to be expressed.
//!
//! # Hot-path contract
//!
//! The engine invokes the scheduler once per event, so this interface is the
//! innermost loop of every capacity probe.  Three design points keep it
//! allocation-free in steady state:
//!
//! * [`Scheduler::schedule_into`] writes dispatches into a caller-owned
//!   buffer that the engine reuses across rounds.  Policies with internal
//!   scratch (the FCFS baseline here, the `kairos-baselines` schedulers)
//!   override it; the default delegates to [`Scheduler::schedule`] so simple
//!   or test policies only implement the allocating form.
//! * [`SchedulingContext::idle`] is an engine-maintained index of the
//!   dispatchable instances — the immediately usable ones in instance-index
//!   order, then the still-provisioning ones by `(provisioning boundary,
//!   instance_index)` — so idle-dispatch policies need not scan (or
//!   re-sort) every view.
//! * [`Scheduler::on_completion`] identifies the serving instance by its
//!   *pool type index* and the served model by its [`ModelId`] index, not
//!   strings, so completion-time learning needs no string hashing;
//!   [`Scheduler::bind_types`] / [`Scheduler::bind_models`] hand policies
//!   the index → name / index → model mappings once per run.
//!
//! # Multi-model scheduling
//!
//! Every [`InstanceView`] carries the [`ModelId`] its instance hosts, and
//! the context exposes the per-model QoS table
//! ([`SchedulingContext::qos_for`]).  The engine *rejects* dispatches whose
//! query model differs from the target instance's binding, so well-behaved
//! policies must pair queries with same-model instances only.

use kairos_models::mlmodel::ModelKind;
use kairos_workload::{ModelId, Query, TimeUs};
use std::sync::Arc;

/// Snapshot of one simulated instance as seen by a scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceView {
    /// Index of the instance within the cluster.
    pub instance_index: usize,
    /// Index of the instance's type within the pool specification.
    pub type_index: usize,
    /// Cloud name of the instance type (e.g. `"g4dn.xlarge"`).  Interned per
    /// type: cloning the view copies a pointer, not the string.
    pub type_name: Arc<str>,
    /// The model this instance hosts.  The engine rejects dispatches whose
    /// query model differs from this binding.
    pub model: ModelId,
    /// Whether the instance's type is the pool's base type.
    pub is_base: bool,
    /// Whether the instance accepts new dispatches.  `false` for draining and
    /// retired instances; the engine silently drops dispatches aimed at them,
    /// so well-behaved policies should skip non-accepting views.
    pub accepting: bool,
    /// Virtual time at which the instance will have drained its current query
    /// and everything already sitting in its local queue.  For an idle
    /// instance this is the time it went idle — some value `<= now` (or its
    /// provisioning boundary when the instance has not come online yet), so
    /// read availability through [`Self::is_idle`] / [`Self::remaining_us`]
    /// or clamp with `free_at_us.max(now_us)` rather than comparing raw idle
    /// values (the engine's hot path deliberately skips re-stamping every
    /// idle view to `now` each round).
    ///
    /// Only **accepting** views carry an exact value on the engine's hot
    /// path: views of retired instances are not refreshed (policies must not
    /// dispatch to them, so their projected free time is meaningless).
    pub free_at_us: TimeUs,
    /// Number of queries the instance holds in any stage (forming batch,
    /// queued, in service).
    pub backlog: usize,
}

impl InstanceView {
    /// Whether the instance is idle and dispatchable right now.  Draining and
    /// retired instances are never idle in this sense.
    pub fn is_idle(&self, now_us: TimeUs) -> bool {
        self.accepting && self.backlog == 0 && self.free_at_us <= now_us
    }

    /// Remaining busy time from `now` until the instance frees up.
    pub fn remaining_us(&self, now_us: TimeUs) -> TimeUs {
        self.free_at_us.saturating_sub(now_us)
    }
}

/// Everything a scheduler can see when making a dispatch decision.
#[derive(Debug)]
pub struct SchedulingContext<'a> {
    /// Current virtual time.
    pub now_us: TimeUs,
    /// Queries waiting in the central queue, in arrival order.
    pub queued: &'a [Query],
    /// View of every instance in the cluster.
    pub instances: &'a [InstanceView],
    /// Indices (into [`Self::instances`]) of the *dispatchable* instances —
    /// accepting and able to take another query (under serial service:
    /// nothing serving, nothing queued; with sharing or batching an instance
    /// with an open slot or a forming batch stays dispatchable).  The
    /// immediately usable ones (`free_at_us <= now_us`) come first in
    /// instance-index order; instances still provisioning (`free_at_us >
    /// now_us`) follow, sorted by `(provisioning boundary, instance
    /// index)`.  [`Self::idle_now`] yields just the usable prefix.
    ///
    /// Maintained incrementally by the engine so policies that only dispatch
    /// to idle instances never scan the full view array.
    pub idle: &'a [u32],
    /// QoS target of the primary ([`ModelId::DEFAULT`]) model, in
    /// microseconds.  Single-model policies may read this directly;
    /// multi-model policies should resolve per query via
    /// [`Self::qos_for`].
    pub qos_us: u64,
    /// Per-model QoS targets in microseconds, indexed by [`ModelId`].  May
    /// be empty in hand-built single-model contexts, in which case
    /// [`Self::qos_for`] falls back to [`Self::qos_us`].
    pub qos_by_model: &'a [u64],
}

impl SchedulingContext<'_> {
    /// The prefix of [`Self::idle`] that is usable *right now* (provisioning
    /// boundary passed), still sorted by instance index.
    pub fn idle_now(&self) -> &[u32] {
        let cut = self
            .idle
            .partition_point(|&i| self.instances[i as usize].free_at_us <= self.now_us);
        &self.idle[..cut]
    }

    /// QoS target of a model in microseconds — an array index, never a
    /// string lookup.  Falls back to [`Self::qos_us`] when the table does
    /// not cover the model (hand-built single-model contexts).
    #[inline]
    pub fn qos_for(&self, model: ModelId) -> u64 {
        self.qos_by_model
            .get(model.index())
            .copied()
            .unwrap_or(self.qos_us)
    }
}

/// Reference computation of [`SchedulingContext::idle`] from a view array
/// under serial service: the accepting backlog-free instances sorted by
/// `(free_at_us, instance_index)`.  The ordering is purely view-derived —
/// the clock enters only later, through [`SchedulingContext::idle_now`]'s
/// usable-prefix cut.
///
/// The usable prefix meets the [`SchedulingContext::idle`] contract
/// (instance-index order) only when every usable idle view carries
/// `free_at_us == now_us`, i.e. idle views are clamped to the clock, as
/// [`crate::engine::run_trace_naive`] and
/// [`SimEngine::scheduler_views`](crate::SimEngine::scheduler_views) do.
/// Unclamped idle views with different past `free_at_us` come out sorted
/// by idle time instead, which the FCFS-family rounds reject.
///
/// This is what `run_trace_naive` rebuilds every round and what
/// [`SimEngine::recompute_idle`](crate::SimEngine::recompute_idle) equals
/// under serial service; tests that hand-construct a [`SchedulingContext`]
/// should use it too, with their idle views clamped to `now_us`.
pub fn idle_order(views: &[InstanceView]) -> Vec<u32> {
    let mut idle: Vec<u32> = views
        .iter()
        .filter(|v| v.accepting && v.backlog == 0)
        .map(|v| v.instance_index as u32)
        .collect();
    idle.sort_by_key(|&i| (views[i as usize].free_at_us, i));
    idle
}

/// A dispatch decision: send `queued[query_index]` to `instances[instance_index]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Index into [`SchedulingContext::queued`].
    pub query_index: usize,
    /// Index into [`SchedulingContext::instances`] (same as
    /// [`InstanceView::instance_index`]).
    pub instance_index: usize,
}

/// A query-distribution policy.
pub trait Scheduler {
    /// Policy name used in reports and benchmark output.
    fn name(&self) -> &'static str;

    /// Decides which queued queries to dispatch to which instances.
    ///
    /// Constraints (validated by the engine):
    /// * each `query_index` appears at most once,
    /// * indices must be in range.
    ///
    /// A query may be dispatched to a busy instance, in which case it waits in
    /// that instance's local queue.  Queries left undecided stay in the
    /// central queue and are offered again at the next invocation.
    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> Vec<Dispatch>;

    /// Scratch-aware variant of [`Self::schedule`]: appends the dispatch
    /// decisions to `out` (cleared by the caller), which the engine reuses
    /// across rounds so steady-state scheduling performs no allocation.
    ///
    /// The default delegates to `schedule`; hot-path policies should override
    /// this and implement `schedule` in terms of it.
    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        out.extend(self.schedule(ctx));
    }

    /// Hands the policy the pool's interned type names, indexed by the type
    /// index used in [`Self::on_completion`] and [`InstanceView::type_index`].
    /// Called once before a simulation starts.  The default ignores it.
    fn bind_types(&mut self, _type_names: &[Arc<str>]) {}

    /// Hands the policy the served models, indexed by [`ModelId`] — the
    /// model half of the `(type, model)` binding pair.  Policies that keep
    /// per-model latency knowledge (Clockwork, Kairos) resolve their
    /// per-`(type, model)` profiles here, once per run, so nothing on the
    /// scheduling hot path hashes a model name.  Called once before a
    /// simulation starts, after [`Self::bind_types`].  The default ignores
    /// it (single-model policies need no model table).
    fn bind_models(&mut self, _models: &[ModelKind]) {}

    /// Callback invoked when a query finishes, so policies can learn latency
    /// online (Kairos) or adapt thresholds.  The serving instance's pool type
    /// and the query's model are identified by index (see
    /// [`Self::bind_types`] / [`Self::bind_models`]) so the completion hot
    /// path involves no string comparison.  The default does nothing.
    fn on_completion(
        &mut self,
        _type_index: usize,
        _model: ModelId,
        _batch_size: u32,
        _service_ms: f64,
    ) {
    }
}

/// The naive first-come-first-serve policy: dispatch the oldest queued query
/// to any idle instance *hosting its model*, preferring base-type instances
/// (this is the query distribution used by Ribbon, paper Sec. 7, and the
/// "naive" scheme of Fig. 5).
///
/// On a single-model cluster every instance matches every query, so the
/// policy reduces exactly to the classic slot-by-slot pairing.
#[derive(Debug, Default, Clone)]
pub struct FcfsScheduler {
    /// Reusable taken-marks over the positions of
    /// [`SchedulingContext::idle_now`] (generation-stamped).
    taken: Vec<u64>,
    generation: u64,
}

impl FcfsScheduler {
    /// Creates the FCFS policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FcfsScheduler {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> Vec<Dispatch> {
        let mut out = Vec::new();
        self.schedule_into(ctx, &mut out);
        out
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        // Idle instances, base type first (Ribbon "prefers instances of the
        // base type when multiple instances are available").  The usable
        // idle prefix is already in instance-index order, so "base first,
        // then by index" is two passes over it in place: base slots in pass
        // 0, the rest in pass 1.
        let idle = ctx.idle_now();
        debug_assert!(
            idle.windows(2).all(|w| w[0] < w[1]),
            "idle_now() must be strictly ascending by instance index"
        );
        self.generation += 1;
        let generation = self.generation;
        if self.taken.len() < idle.len() {
            self.taken.resize(idle.len(), 0);
        }
        let taken = &mut self.taken[..idle.len()];
        let view = |pos: usize| &ctx.instances[idle[pos] as usize];
        let mut free_slots = idle.len();
        // Each pass's cursor sits on its first untaken slot of its class, so
        // the round is O(dispatches + slots skipped): slots are consumed
        // front to back on a single-model cluster, and a multi-model scan
        // never re-walks dead or other-class slots.
        let mut start = [0usize; 2];
        for (query_index, query) in ctx.queued.iter().enumerate() {
            if free_slots == 0 {
                break;
            }
            // Oldest query first: each takes the first untaken idle instance
            // bound to its model, base pass first.
            for (pass, cursor) in start.iter_mut().enumerate() {
                let base = pass == 0;
                let open = |pos: usize| taken[pos] != generation && view(pos).is_base == base;
                while *cursor < idle.len() && !open(*cursor) {
                    *cursor += 1;
                }
                let slot =
                    (*cursor..idle.len()).find(|&pos| open(pos) && view(pos).model == query.model);
                if let Some(pos) = slot {
                    taken[pos] = generation;
                    free_slots -= 1;
                    out.push(Dispatch {
                        query_index,
                        instance_index: idle[pos] as usize,
                    });
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(idx: usize, is_base: bool, free_at: TimeUs) -> InstanceView {
        InstanceView {
            instance_index: idx,
            type_index: if is_base { 0 } else { 1 },
            type_name: if is_base {
                "g4dn.xlarge".into()
            } else {
                "r5n.large".into()
            },
            model: ModelId::DEFAULT,
            is_base,
            accepting: true,
            free_at_us: free_at,
            backlog: if free_at > 0 { 1 } else { 0 },
        }
    }

    #[test]
    fn instance_view_idleness() {
        let v = view(0, true, 0);
        assert!(v.is_idle(10));
        let busy = view(1, false, 50);
        assert!(!busy.is_idle(10));
        assert_eq!(busy.remaining_us(10), 40);
        assert_eq!(busy.remaining_us(60), 0);
        // A draining instance is never idle, even when free.
        let mut draining = view(2, true, 0);
        draining.accepting = false;
        assert!(!draining.is_idle(10));
    }

    #[test]
    fn idle_order_filters_and_sorts() {
        let mut views = vec![view(0, false, 700), view(1, true, 0), view(2, false, 0)];
        views[0].backlog = 0; // provisioning: idle but not usable yet
        let idle = idle_order(&views);
        // Usable instances by index first, then the provisioning one.
        assert_eq!(idle, vec![1, 2, 0]);
        let ctx = SchedulingContext {
            now_us: 10,
            queued: &[],
            instances: &views,
            idle: &idle,
            qos_us: 1_000_000,
            qos_by_model: &[],
        };
        assert_eq!(ctx.idle_now(), &[1, 2]);
    }

    #[test]
    fn fcfs_prefers_base_instances() {
        let queued = vec![Query::new(0, 10, 0), Query::new(1, 20, 0)];
        let instances = vec![view(0, false, 0), view(1, true, 0), view(2, false, 500)];
        let idle = idle_order(&instances);
        let ctx = SchedulingContext {
            now_us: 0,
            queued: &queued,
            instances: &instances,
            idle: &idle,
            qos_us: 1_000_000,
            qos_by_model: &[],
        };
        let mut fcfs = FcfsScheduler::new();
        let plan = fcfs.schedule(&ctx);
        assert_eq!(plan.len(), 2);
        // Oldest query goes to the base instance.
        assert_eq!(
            plan[0],
            Dispatch {
                query_index: 0,
                instance_index: 1
            }
        );
        assert_eq!(
            plan[1],
            Dispatch {
                query_index: 1,
                instance_index: 0
            }
        );
    }

    #[test]
    fn fcfs_ignores_busy_instances() {
        let queued = vec![Query::new(0, 10, 0)];
        let instances = vec![view(0, true, 900)];
        let idle = idle_order(&instances);
        let ctx = SchedulingContext {
            now_us: 100,
            queued: &queued,
            instances: &instances,
            idle: &idle,
            qos_us: 1_000_000,
            qos_by_model: &[],
        };
        assert!(FcfsScheduler::new().schedule(&ctx).is_empty());
    }
}
