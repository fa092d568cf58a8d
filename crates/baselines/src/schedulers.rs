//! Competing query-distribution schemes (paper Sec. 7, "Competing query
//! distribution techniques").
//!
//! * [`RibbonScheduler`] — Ribbon's simple policy: first-come-first-serve,
//!   preferring idle base-type instances.
//! * [`DrsScheduler`] — the DeepRecSys policy: a static batch-size threshold
//!   decides whether a query runs on the base (GPU) or an auxiliary (CPU)
//!   instance; the threshold is tuned offline by a hill-climbing sweep
//!   ([`tune_drs_threshold`]).
//! * [`ClockworkScheduler`] — a Clockwork-inspired QoS-aware controller: it
//!   predicts query latency accurately, tracks every instance's availability,
//!   and sends each query to the instance that finishes it earliest *without*
//!   violating QoS (falling back to earliest-completion when no instance can
//!   meet the target).  Each instance keeps its own FCFS queue.
//!
//! All three implement the scratch-aware [`Scheduler::schedule_into`] hot
//! path: dispatch decisions are written into the engine's reusable buffer,
//! the idle index is read in place, per-round working sets (where a policy
//! needs one) live in scheduler-owned scratch vectors, and
//! latency predictions resolve through per-type-index profile caches — so a
//! steady-state scheduling round performs no allocation and no string
//! hashing.

use kairos_models::{
    latency::{LatencyProfile, LatencyTable},
    mlmodel::ModelKind,
};
use kairos_sim::{Dispatch, FcfsScheduler, Scheduler, SchedulingContext};
use std::sync::Arc;

/// Ribbon's query distribution: FCFS preferring base instances.
///
/// This is behaviourally identical to the simulator's naive FCFS policy; the
/// wrapper exists so reports and figures carry the scheme's name.
#[derive(Debug, Default, Clone)]
pub struct RibbonScheduler {
    inner: FcfsScheduler,
}

impl RibbonScheduler {
    /// Creates the Ribbon policy.
    pub fn new() -> Self {
        Self {
            inner: FcfsScheduler::new(),
        }
    }
}

impl Scheduler for RibbonScheduler {
    fn name(&self) -> &'static str {
        "ribbon"
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        self.inner.schedule_into(ctx, out);
    }
}

/// DeepRecSys-style threshold scheduler.
///
/// Queries with a batch size strictly greater than the threshold wait for a
/// base (GPU) instance; queries at or below the threshold wait for an
/// auxiliary (CPU) instance.  Queries are only dispatched to *idle* instances
/// of the appropriate class, in FCFS order within each class.
#[derive(Debug, Clone, Default)]
pub struct DrsScheduler {
    /// Batch-size threshold separating GPU-bound from CPU-bound queries.
    pub threshold: u32,
}

impl DrsScheduler {
    /// Creates the policy with a given threshold.
    pub fn new(threshold: u32) -> Self {
        Self { threshold }
    }
}

/// The next idle slot of one class (`base` or auxiliary) at or after
/// `*cursor` in `idle`, consumed by moving the cursor past it.  An exhausted
/// class parks its cursor at the end, so later queries of that class cost
/// O(1).
fn take_next(
    ctx: &SchedulingContext<'_>,
    idle: &[u32],
    cursor: &mut usize,
    base: bool,
) -> Option<u32> {
    match idle[*cursor..]
        .iter()
        .position(|&i| ctx.instances[i as usize].is_base == base)
    {
        Some(off) => {
            let pos = *cursor + off;
            *cursor = pos + 1;
            Some(idle[pos])
        }
        None => {
            *cursor = idle.len();
            None
        }
    }
}

impl Scheduler for DrsScheduler {
    fn name(&self) -> &'static str {
        "drs"
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        // The usable idle prefix is sorted by instance index, so one cursor
        // per class walks that class's slots in deterministic FCFS order,
        // in place.
        let idle = ctx.idle_now();
        debug_assert!(
            idle.windows(2).all(|w| w[0] < w[1]),
            "idle_now() must be strictly ascending by instance index"
        );
        // Only consulted when the auxiliary class runs dry with a small query
        // waiting, so resolve it lazily instead of scanning every round.
        let mut homogeneous: Option<bool> = None;

        let mut next_base = 0usize;
        let mut next_aux = 0usize;
        for (query_index, query) in ctx.queued.iter().enumerate() {
            let target = if query.batch_size > self.threshold {
                take_next(ctx, idle, &mut next_base, true)
            } else {
                // Small queries prefer auxiliary instances, but may borrow an
                // idle base instance when no auxiliary exists in the pool at
                // all (otherwise a homogeneous pool could never serve them).
                take_next(ctx, idle, &mut next_aux, false).or_else(|| {
                    let all_base =
                        *homogeneous.get_or_insert_with(|| ctx.instances.iter().all(|i| i.is_base));
                    if all_base {
                        take_next(ctx, idle, &mut next_base, true)
                    } else {
                        None
                    }
                })
            };
            if let Some(instance_index) = target {
                out.push(Dispatch {
                    query_index,
                    instance_index: instance_index as usize,
                });
            }
        }
    }
}

/// Hill-climbing sweep used by DeepRecSys to tune the threshold: evaluate a
/// coarse grid of thresholds with the provided objective (higher is better)
/// and then climb in steps until no neighbour improves.  Returns the best
/// threshold and the number of objective evaluations spent.
pub fn tune_drs_threshold<F>(mut objective: F, max_batch: u32) -> (u32, usize)
where
    F: FnMut(u32) -> f64,
{
    assert!(max_batch >= 1, "max batch must be positive");
    let step = (max_batch / 10).max(1);
    let mut evaluations = 0usize;
    let mut best_threshold = step;
    let mut best_value = f64::NEG_INFINITY;

    // Coarse grid.
    let mut t = step;
    while t <= max_batch {
        let v = objective(t);
        evaluations += 1;
        if v > best_value {
            best_value = v;
            best_threshold = t;
        }
        t += step;
    }

    // Local climb with progressively smaller steps.
    let mut delta = step / 2;
    while delta >= 1 {
        let mut improved = true;
        while improved {
            improved = false;
            for candidate in [
                best_threshold.saturating_sub(delta).max(1),
                best_threshold + delta,
            ] {
                if candidate == best_threshold || candidate > max_batch {
                    continue;
                }
                let v = objective(candidate);
                evaluations += 1;
                if v > best_value {
                    best_value = v;
                    best_threshold = candidate;
                    improved = true;
                }
            }
        }
        if delta == 1 {
            break;
        }
        delta /= 2;
    }

    (best_threshold, evaluations)
}

/// Clockwork-inspired QoS-aware controller with per-instance queues and
/// accurate latency prediction.
///
/// Multi-model aware: [`Scheduler::bind_models`] resolves one latency
/// profile per `(model, type)` pair up front (flattened, array-indexed), the
/// per-query QoS target comes from [`SchedulingContext::qos_for`], and
/// queries only consider instances hosting their model.  Constructed with a
/// single default model, so single-model runs (and hand-built contexts that
/// never call `bind_models`) behave exactly as before.
#[derive(Debug, Clone)]
pub struct ClockworkScheduler {
    /// Served models indexed by `ModelId` (the constructor's model alone
    /// until `bind_models` replaces the list).
    models: Vec<ModelKind>,
    latency: LatencyTable,
    /// Latency profiles resolved per `(model, pool type)` pair and flattened
    /// as `model × num_types + type` (via `bind_types` + `bind_models`), so
    /// per-pair predictions in the scheduling loop hash no strings.  Pairs
    /// never bound (hand-built contexts) resolve lazily by name.
    profiles: Vec<Option<LatencyProfile>>,
    /// Interned pool type names (the stride of `profiles` is their count).
    type_names: Vec<Arc<str>>,
    /// Reusable per-round backlog added by this round's earlier picks.
    extra_ms: Vec<f64>,
}

impl ClockworkScheduler {
    /// Creates the policy for one default model.  Clockwork's defining
    /// feature is *predictable* latency, so the scheme is given the
    /// ground-truth latency table (the paper likewise implements the
    /// competing schemes advantageously).
    pub fn new(model: ModelKind, latency: LatencyTable) -> Self {
        Self {
            models: vec![model],
            latency,
            profiles: Vec::new(),
            type_names: Vec::new(),
            extra_ms: Vec::new(),
        }
    }

    /// Re-resolves the `(model, type)` profile grid from the current model
    /// list and bound type names.
    fn rebind_profiles(&mut self) {
        let (models, type_names, latency) = (&self.models, &self.type_names, &self.latency);
        self.profiles = models
            .iter()
            .flat_map(|&model| type_names.iter().map(move |name| latency.get(model, name)))
            .collect();
    }

    fn profile(
        &mut self,
        model_index: usize,
        type_index: usize,
        type_name: &str,
    ) -> LatencyProfile {
        let slot = model_index * self.type_names.len().max(1) + type_index;
        if let Some(Some(profile)) = self.profiles.get(slot) {
            return *profile;
        }
        let model = self
            .models
            .get(model_index)
            .copied()
            .unwrap_or(self.models[0]);
        let profile = self.latency.expect(model, type_name);
        if self.profiles.len() <= slot {
            self.profiles.resize(slot + 1, None);
        }
        self.profiles[slot] = Some(profile);
        profile
    }

    fn predicted_ms(
        &mut self,
        model_index: usize,
        type_index: usize,
        type_name: &str,
        batch: u32,
    ) -> f64 {
        self.profile(model_index, type_index, type_name)
            .latency_ms(batch)
    }
}

impl Scheduler for ClockworkScheduler {
    fn name(&self) -> &'static str {
        "clockwork"
    }

    fn bind_types(&mut self, type_names: &[Arc<str>]) {
        // Resolve what the table covers; pairs it lacks stay lazy so a
        // partially calibrated table only panics if such a pair is actually
        // scheduled against (matching the pre-cache lookup-on-use behavior).
        self.type_names = type_names.to_vec();
        self.rebind_profiles();
    }

    fn bind_models(&mut self, models: &[ModelKind]) {
        self.models = models.to_vec();
        self.rebind_profiles();
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        // Clockwork assigns every incoming query to an instance queue right
        // away, choosing the instance that completes it earliest subject to
        // the query model's QoS target.  We track the extra backlog added by
        // this round so consecutive picks in the same round account for each
        // other.
        self.extra_ms.clear();
        self.extra_ms.resize(ctx.instances.len(), 0.0);

        for (query_index, query) in ctx.queued.iter().enumerate() {
            let qos_ms = ctx.qos_for(query.model) as f64 / 1000.0;
            let waited_ms = query.waiting_time_us(ctx.now_us) as f64 / 1000.0;
            let mut best: Option<(usize, f64, bool)> = None; // (slot, completion, meets_qos)
            for (slot, inst) in ctx.instances.iter().enumerate() {
                if !inst.accepting || inst.model != query.model {
                    continue;
                }
                let queue_ms = inst.remaining_us(ctx.now_us) as f64 / 1000.0 + self.extra_ms[slot];
                let predicted = self.predicted_ms(
                    query.model.index(),
                    inst.type_index,
                    &inst.type_name,
                    query.batch_size,
                );
                let completion = queue_ms + predicted;
                let meets = completion + waited_ms <= qos_ms;
                let better = match best {
                    None => true,
                    Some((_, best_completion, best_meets)) => {
                        // Prefer QoS-meeting instances; among equals, earliest
                        // completion wins.
                        (meets && !best_meets)
                            || (meets == best_meets && completion < best_completion)
                    }
                };
                if better {
                    best = Some((slot, completion, meets));
                }
            }
            if let Some((slot, completion, _)) = best {
                self.extra_ms[slot] += completion
                    - (ctx.instances[slot].remaining_us(ctx.now_us) as f64 / 1000.0
                        + self.extra_ms[slot]);
                out.push(Dispatch {
                    query_index,
                    instance_index: ctx.instances[slot].instance_index,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::calibration::paper_calibration;
    use kairos_sim::InstanceView;
    use kairos_testkit::idle_order;
    use kairos_workload::ModelId;
    use kairos_workload::Query;

    fn view(idx: usize, name: &str, is_base: bool, free_at: u64) -> InstanceView {
        InstanceView {
            instance_index: idx,
            type_index: usize::from(!is_base),
            type_name: name.into(),
            model: ModelId::DEFAULT,
            is_base,
            accepting: true,
            free_at_us: free_at,
            backlog: usize::from(free_at > 0),
        }
    }

    #[test]
    fn ribbon_behaves_like_fcfs_with_base_preference() {
        let queued = vec![Query::new(0, 100, 0)];
        let instances = vec![
            view(0, "r5n.large", false, 0),
            view(1, "g4dn.xlarge", true, 0),
        ];
        let idle = idle_order(&instances);
        let ctx = SchedulingContext {
            now_us: 0,
            queued: &queued,
            instances: &instances,
            idle: &idle,
            qos_us: 25_000,
            qos_by_model: &[],
        };
        let plan = RibbonScheduler::new().schedule(&ctx);
        assert_eq!(
            plan,
            vec![Dispatch {
                query_index: 0,
                instance_index: 1
            }]
        );
    }

    #[test]
    fn drs_routes_by_threshold() {
        let queued = vec![Query::new(0, 500, 0), Query::new(1, 50, 0)];
        let instances = vec![
            view(0, "g4dn.xlarge", true, 0),
            view(1, "r5n.large", false, 0),
        ];
        let idle = idle_order(&instances);
        let ctx = SchedulingContext {
            now_us: 0,
            queued: &queued,
            instances: &instances,
            idle: &idle,
            qos_us: 25_000,
            qos_by_model: &[],
        };
        let plan = DrsScheduler::new(128).schedule(&ctx);
        assert!(plan.contains(&Dispatch {
            query_index: 0,
            instance_index: 0
        }));
        assert!(plan.contains(&Dispatch {
            query_index: 1,
            instance_index: 1
        }));
    }

    #[test]
    fn drs_leaves_queries_waiting_when_their_class_is_busy() {
        let queued = vec![Query::new(0, 500, 0)];
        // Only an auxiliary instance is idle; the large query must wait for a GPU.
        let instances = vec![
            view(0, "g4dn.xlarge", true, 10_000),
            view(1, "r5n.large", false, 0),
        ];
        let idle = idle_order(&instances);
        let ctx = SchedulingContext {
            now_us: 0,
            queued: &queued,
            instances: &instances,
            idle: &idle,
            qos_us: 25_000,
            qos_by_model: &[],
        };
        assert!(DrsScheduler::new(128).schedule(&ctx).is_empty());
    }

    #[test]
    fn drs_small_queries_use_base_in_homogeneous_pools() {
        let queued = vec![Query::new(0, 10, 0)];
        let instances = vec![view(0, "g4dn.xlarge", true, 0)];
        let idle = idle_order(&instances);
        let ctx = SchedulingContext {
            now_us: 0,
            queued: &queued,
            instances: &instances,
            idle: &idle,
            qos_us: 25_000,
            qos_by_model: &[],
        };
        assert_eq!(DrsScheduler::new(128).schedule(&ctx).len(), 1);
    }

    /// The DRS round as it was before the in-place rewrite, verbatim but for
    /// its per-class lists, which were scheduler-owned scratch.
    fn drs_round_with_class_lists(threshold: u32, ctx: &SchedulingContext<'_>) -> Vec<Dispatch> {
        let mut out = Vec::new();
        let mut idle_base: Vec<u32> = Vec::new();
        let mut idle_aux: Vec<u32> = Vec::new();
        for &i in ctx.idle_now() {
            if ctx.instances[i as usize].is_base {
                idle_base.push(i);
            } else {
                idle_aux.push(i);
            }
        }
        let mut homogeneous: Option<bool> = None;

        let mut next_base = 0usize;
        let mut next_aux = 0usize;
        for (query_index, query) in ctx.queued.iter().enumerate() {
            let target = if query.batch_size > threshold {
                let slot = idle_base.get(next_base).copied();
                if slot.is_some() {
                    next_base += 1;
                }
                slot
            } else {
                match idle_aux.get(next_aux).copied() {
                    Some(slot) => {
                        next_aux += 1;
                        Some(slot)
                    }
                    None => {
                        let all_base = *homogeneous
                            .get_or_insert_with(|| ctx.instances.iter().all(|i| i.is_base));
                        if all_base {
                            let slot = idle_base.get(next_base).copied();
                            if slot.is_some() {
                                next_base += 1;
                            }
                            slot
                        } else {
                            None
                        }
                    }
                }
            };
            if let Some(instance_index) = target {
                out.push(Dispatch {
                    query_index,
                    instance_index: instance_index as usize,
                });
            }
        }
        out
    }

    #[test]
    fn drs_in_place_round_matches_the_class_list_round() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const NOW_US: u64 = 500_000;
        let mut rng = StdRng::seed_from_u64(7);
        let mut drs = DrsScheduler::new(128);
        for _ in 0..2_000 {
            // Contexts as the engine builds them: the usable idle prefix in
            // instance-index order (views unclamped), then the provisioning
            // tail by `(boundary, index)`.
            let n = rng.gen_range(1..40usize);
            let base_share = [0.0, 0.3, 0.7, 1.0][rng.gen_range(0..4usize)];
            let (mut usable, mut pending) = (Vec::new(), Vec::new());
            let instances: Vec<InstanceView> = (0..n)
                .map(|idx| {
                    let is_base = rng.gen_bool(base_share);
                    let mut v = view(
                        idx,
                        if is_base { "g4dn.xlarge" } else { "r5n.large" },
                        is_base,
                        0,
                    );
                    v.accepting = rng.gen_bool(0.9);
                    match rng.gen_range(0..3u32) {
                        0 => v.free_at_us = NOW_US - rng.gen_range(0..50_000u64),
                        1 => {
                            v.free_at_us = NOW_US + rng.gen_range(1..50_000u64);
                            v.backlog = 1;
                        }
                        _ => v.free_at_us = NOW_US + 1_000 * rng.gen_range(1..5u64),
                    }
                    if v.accepting && v.backlog == 0 {
                        if v.free_at_us <= NOW_US {
                            usable.push(idx as u32);
                        } else {
                            pending.push((v.free_at_us, idx as u32));
                        }
                    }
                    v
                })
                .collect();
            pending.sort_unstable();
            let idle: Vec<u32> = usable
                .into_iter()
                .chain(pending.into_iter().map(|(_, i)| i))
                .collect();
            let queued: Vec<Query> = (0..rng.gen_range(0..2 * n + 1))
                .map(|q| Query::new(q as u64, rng.gen_range(1..300u32), NOW_US))
                .collect();
            let ctx = SchedulingContext {
                now_us: NOW_US,
                queued: &queued,
                instances: &instances,
                idle: &idle,
                qos_us: 25_000,
                qos_by_model: &[],
            };
            assert_eq!(drs.schedule(&ctx), drs_round_with_class_lists(128, &ctx));
        }
    }

    #[test]
    fn hill_climbing_finds_the_peak_of_a_unimodal_objective() {
        // Objective peaks at threshold 310.
        let objective = |t: u32| -((t as f64 - 310.0).powi(2));
        let (best, evals) = tune_drs_threshold(objective, 1000);
        assert!((best as i64 - 310).abs() <= 2, "best {best}");
        assert!(evals > 0 && evals < 200);
    }

    #[test]
    fn clockwork_prefers_qos_meeting_instance_even_if_slower_to_free() {
        let cw = ClockworkScheduler::new(ModelKind::Wnd, paper_calibration());
        let queued = vec![Query::new(0, 800, 0)];
        // The CPU is idle but cannot meet QoS for a batch-800 WND query; the
        // GPU is busy for 4 ms but still meets the 25 ms target.
        let instances = vec![
            view(0, "r5n.large", false, 0),
            view(1, "g4dn.xlarge", true, 4_000),
        ];
        let idle = idle_order(&instances);
        let ctx = SchedulingContext {
            now_us: 0,
            queued: &queued,
            instances: &instances,
            idle: &idle,
            qos_us: 25_000,
            qos_by_model: &[],
        };
        let plan = cw.clone().schedule(&ctx);
        assert_eq!(
            plan,
            vec![Dispatch {
                query_index: 0,
                instance_index: 1
            }]
        );
    }

    #[test]
    fn clockwork_spreads_queries_across_instance_queues() {
        let cw = ClockworkScheduler::new(ModelKind::Wnd, paper_calibration());
        let queued = vec![Query::new(0, 100, 0), Query::new(1, 100, 0)];
        let instances = vec![
            view(0, "g4dn.xlarge", true, 0),
            view(1, "c5n.2xlarge", false, 0),
        ];
        let idle = idle_order(&instances);
        let ctx = SchedulingContext {
            now_us: 0,
            queued: &queued,
            instances: &instances,
            idle: &idle,
            qos_us: 25_000,
            qos_by_model: &[],
        };
        let plan = cw.clone().schedule(&ctx);
        assert_eq!(plan.len(), 2);
        // The two queries must not pile onto the same instance when both
        // instances can meet QoS and the second would finish earlier elsewhere.
        assert_ne!(plan[0].instance_index, plan[1].instance_index);
    }

    #[test]
    fn clockwork_falls_back_to_earliest_completion_when_qos_is_impossible() {
        let cw = ClockworkScheduler::new(ModelKind::Ncf, paper_calibration());
        // Batch 900 NCF cannot meet 5 ms anywhere once instances are backed up.
        let queued = vec![Query::new(0, 900, 0)];
        let instances = vec![
            view(0, "g4dn.xlarge", true, 50_000),
            view(1, "r5n.large", false, 40_000),
        ];
        let idle = idle_order(&instances);
        let ctx = SchedulingContext {
            now_us: 0,
            queued: &queued,
            instances: &instances,
            idle: &idle,
            qos_us: 5_000,
            qos_by_model: &[],
        };
        let plan = cw.clone().schedule(&ctx);
        assert_eq!(plan.len(), 1);
        // GPU: 50 ms queue + 3.05 ms service = 53.05; CPU: 40 + 17.1 = 57.1.
        assert_eq!(plan[0].instance_index, 0);
    }
}
