//! The Kairos query-distribution mechanism (paper Sec. 5.1).
//!
//! At every scheduling instant the central controller matches queued queries
//! to instances by solving a min-cost bipartite matching over the
//! heterogeneity-weighted completion-time matrix, with QoS-violating pairs
//! penalized (Eq. 4–8).  Latencies are learned online: the scheduler starts
//! with (optional) priors, records every completion, and quickly converges to
//! a lookup table (Sec. 5.1 "Remarks").
//!
//! This module implements that policy against the [`kairos_sim::Scheduler`]
//! interface so it can be dropped into the discrete-event engine alongside the
//! baselines.  A scheduler matches the instances of one model, its lane: in
//! a multi-model cluster every lane of a
//! [`MultiScheduler`](crate::MultiScheduler) reads the same views and
//! passes over the other models' instances.
//!
//! # The round's hot path
//!
//! Under overload a round matches hundreds of queued queries against tens of
//! instances of only a few types, so the round works per *type*: each
//! distinct accepting type resolves its predictor once per round (the
//! linear fit computed once, see [`kairos_models::ResolvedPredictor`]) and
//! fills one row of a `[type][query]` prediction table, one lookup-table
//! probe per query.  A single pass then writes the solver's cost buffer and
//! the feasibility bitmap (Eq. 3 and 8 with the cold-start override), laid
//! out so the Jonker–Volgenant solver scans it contiguously: query-major
//! when queries do not outnumber instances, instance-major otherwise.  In
//! the instance-major layout the solver runs one augmentation per instance,
//! and each touches only the rows and columns it visits
//! ([`kairos_assignment::jv`]).  All buffers live in the scheduler and are
//! reused, so a steady-state round allocates nothing; they are sized by the
//! lane's own queue and columns, not by the fleet.  The round is
//! bit-identical to assembling the per-pair matrices the round was first
//! written with and solving them with `kairos_testkit::jv::solve_jv`; the
//! `proptest_kairos_round` test keeps that assembly as its oracle
//! (`tests/common/lmatrix.rs`).

use crate::coefficient::heterogeneity_coefficients_into;
use kairos_assignment::jv::{solve_jv_into, JvWorkspace};
use kairos_models::{
    latency::LatencyTable,
    mlmodel::ModelKind,
    predictor::{OnlinePredictor, PredictorBank},
    MAX_BATCH_SIZE,
};
use kairos_sim::{Dispatch, Scheduler, SchedulingContext};
use kairos_workload::ModelId;
use std::sync::Arc;

/// Default noise-safeguard factor ξ: completion times predicted within 2 % of
/// the QoS target are treated as violations (paper Sec. 5.1).
pub const DEFAULT_XI: f64 = 0.98;

/// Penalty multiplier applied to QoS-violating pairs (paper Eq. 8).
pub const QOS_PENALTY_FACTOR: f64 = 10.0;

/// The Kairos matching-based query distributor.
///
/// A scheduler serves one model, its *lane* ([`ModelId::DEFAULT`] unless a
/// [`MultiScheduler`](crate::MultiScheduler) assigns another): a round
/// matches the queued queries against the accepting instances bound to
/// that model and passes over every other view.
#[derive(Debug, Clone)]
pub struct KairosScheduler {
    /// The model whose instances this scheduler matches against.
    model: ModelId,
    /// Online latency predictors, one per instance type.
    predictors: PredictorBank,
    /// Interned pool type names indexed by type index (from
    /// [`Scheduler::bind_types`]), so completion-time learning resolves the
    /// predictor without receiving a string from the engine.
    type_names: Vec<Arc<str>>,
    /// Largest batch size used to compute heterogeneity coefficients.
    reference_batch: u32,
    /// Number of matching rounds performed (exposed for tests/diagnostics).
    rounds: u64,
    /// Buffers reused by every matching round.
    round: RoundScratch,
}

/// One matrix column: an accepting instance.
#[derive(Debug, Clone, Copy)]
struct Column {
    /// Position of the instance's view in [`SchedulingContext::instances`].
    view: usize,
    /// The round's slot of the instance's type.
    slot: usize,
    /// Remaining busy time from the scheduling instant, in ms.
    remaining_ms: f64,
}

/// Buffers of one matching round.  A *slot* is one distinct type among the
/// accepting instances, numbered in order of first appearance in the views.
#[derive(Debug, Clone, Default)]
struct RoundScratch {
    /// Per slot: position of the view that introduced the type.
    slot_view: Vec<usize>,
    /// Per slot: predicted latency of the reference batch, in ms.
    reference_ms: Vec<f64>,
    /// Per slot: heterogeneity coefficient `C_j`.
    coefficient: Vec<f64>,
    /// Per slot: whether the type's predictor has a linear fit.
    fitted: Vec<bool>,
    /// Predicted service latency (ms), `[slot][query]`.
    predicted_ms: Vec<f64>,
    /// The accepting instances, in view order.
    columns: Vec<Column>,
    /// Per queued query: accumulated wait `W_i`, in ms.
    waited_ms: Vec<f64>,
    /// Solver costs and pair feasibility, in the same layout: query-major
    /// (`[query][column]`) when queries do not outnumber columns,
    /// column-major (`[column][query]`) otherwise.
    cost: Vec<f64>,
    feasible: Vec<bool>,
    jv: JvWorkspace,
}

impl RoundScratch {
    /// Drops every buffer the round sizes by its queue, keeping the
    /// columns just collected.
    fn release_matrices(&mut self) {
        *self = Self {
            slot_view: std::mem::take(&mut self.slot_view),
            columns: std::mem::take(&mut self.columns),
            ..Self::default()
        };
    }

    /// Writes the cost and feasibility of every (query, column) pair:
    /// `[query][column]` when `QUERY_MAJOR`, `[column][query]` otherwise.
    /// The layout is a const parameter so the stride of a column's cells is
    /// known when compiling; column-major, the walk is a plain contiguous
    /// loop.
    fn fill<const QUERY_MAJOR: bool>(&mut self, bound_ms: f64, penalty_ms: f64) {
        let (m, n) = (self.waited_ms.len(), self.columns.len());
        // Every cell is written below, so the buffers are only sized.
        self.cost.resize(m * n, 0.0);
        self.feasible.resize(m * n, false);
        for (j, col) in self.columns.iter().enumerate() {
            let coefficient = self.coefficient[col.slot];
            let fitted = self.fitted[col.slot];
            let predicted = &self.predicted_ms[col.slot * m..(col.slot + 1) * m];
            // The column's cells, in query order.
            let (first, stride) = if QUERY_MAJOR { (j, n) } else { (j * m, 1) };
            let cells = (self.cost[first..].iter_mut().step_by(stride))
                .zip(self.feasible[first..].iter_mut().step_by(stride));
            for ((cost, feasible), (&service_ms, &waited_ms)) in
                cells.zip(predicted.iter().zip(&self.waited_ms))
            {
                let l_ij = col.remaining_ms + service_ms;
                let ok = !fitted || l_ij + waited_ms <= bound_ms;
                *cost = coefficient * if ok { l_ij } else { penalty_ms };
                *feasible = ok;
            }
        }
    }
}

impl Default for KairosScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl KairosScheduler {
    /// Creates a scheduler with no prior latency knowledge: it learns latency
    /// entirely online, as in the paper's evaluation.
    pub fn new() -> Self {
        Self {
            model: ModelId::DEFAULT,
            predictors: PredictorBank::new(),
            type_names: Vec::new(),
            reference_batch: MAX_BATCH_SIZE,
            rounds: 0,
            round: RoundScratch::default(),
        }
    }

    /// Creates a scheduler whose predictors are seeded from a latency table
    /// (e.g. profiles measured for a sibling deployment).  Kairos does not
    /// need this, but it is useful for ablations isolating the effect of the
    /// online-learning warm-up.
    pub fn with_priors(model: ModelKind, table: &LatencyTable) -> Self {
        let mut scheduler = Self::new();
        for (m, name, profile) in table.iter() {
            if m == model {
                // Seed the predictor with two synthetic observations so the
                // linear fit starts from the prior profile.
                scheduler.predictors.observe(name, 1, profile.latency_ms(1));
                scheduler.predictors.observe(
                    name,
                    MAX_BATCH_SIZE,
                    profile.latency_ms(MAX_BATCH_SIZE),
                );
            }
        }
        scheduler
    }

    /// This scheduler as the lane of `model` in a multi-model cluster.
    pub(crate) fn for_lane(mut self, model: ModelId) -> Self {
        self.model = model;
        self
    }

    /// Number of matching rounds performed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Read access to the online predictors (for diagnostics and tests).
    pub fn predictors(&self) -> &PredictorBank {
        &self.predictors
    }
}

impl Scheduler for KairosScheduler {
    fn name(&self) -> &'static str {
        "kairos"
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        if ctx.queued.is_empty() {
            return;
        }
        let r = &mut self.round;

        // Columns: the lane's accepting instances, in view order.  Other
        // models' instances are not this lane's to match; draining and
        // retired instances take no new work and stay out of the matching
        // entirely (the engine would reject such dispatches).  The base
        // type's slot anchors the coefficients; without it the first type
        // present does.
        r.columns.clear();
        r.slot_view.clear();
        let mut base_slot = 0;
        for (view, inst) in ctx.instances.iter().enumerate() {
            if inst.model != self.model || !inst.accepting {
                continue;
            }
            let known = r
                .slot_view
                .iter()
                .position(|&v| ctx.instances[v].type_index == inst.type_index);
            let slot = known.unwrap_or_else(|| {
                if inst.is_base {
                    base_slot = r.slot_view.len();
                }
                r.slot_view.push(view);
                r.slot_view.len() - 1
            });
            r.columns.push(Column {
                view,
                slot,
                remaining_ms: inst.remaining_us(ctx.now_us) as f64 / 1000.0,
            });
        }
        if r.columns.is_empty() {
            return;
        }
        self.rounds += 1;
        let qos_ms = ctx.qos_us as f64 / 1000.0;
        let (m, n) = (ctx.queued.len(), r.columns.len());
        // Buffers grown for a burst are dropped once a round needs under a
        // quarter of them, so the scheduler does not keep memory sized for
        // its deepest queue; between such drops rounds allocate nothing.
        // The round's size is its own queue by its own columns, however
        // many views the fleet holds.
        if r.cost.capacity() > 4 * m * n {
            r.release_matrices();
        }

        r.waited_ms.clear();
        r.waited_ms.extend(
            ctx.queued
                .iter()
                .map(|q| q.waiting_time_us(ctx.now_us) as f64 / 1000.0),
        );

        // Kairos starts with a linear model but does not rely on its accuracy
        // (Sec. 5.1): predictions are resolved per type, once per round — the
        // predictor lookup, its fit state, its linear fit (computed once per
        // slot, not once per prediction), the reference-batch latency behind
        // `C_j`, and one prediction per queued query.
        r.reference_ms.clear();
        r.fitted.clear();
        r.predicted_ms.clear();
        for &view in &r.slot_view {
            let predictor = self.predictors.get(&ctx.instances[view].type_name);
            let resolved = predictor.map(OnlinePredictor::resolve).unwrap_or_default();
            r.reference_ms
                .push(resolved.predict(self.reference_batch).max(1e-6));
            r.fitted.push(predictor.is_some_and(|p| p.has_fit()));
            r.predicted_ms.extend(
                ctx.queued
                    .iter()
                    .map(|q| resolved.predict(q.batch_size).max(1e-3)),
            );
        }
        heterogeneity_coefficients_into(&r.reference_ms, base_slot, &mut r.coefficient);

        // One pass writes the costs `C_j · L~_ij` and the feasibility of
        // every pair.  `L_ij` is the instance's remaining busy time plus the
        // query's predicted service time; a pair violating Eq. 3 (with the ξ
        // safeguard) costs `C_j · 10 T_qos` (Eq. 8).  Cold-start optimism:
        // while a type has not produced enough completions for a latency fit,
        // its predictions are placeholders and a "predicted violation" there
        // carries no information, so such pairs are treated as feasible.
        // That lets queries flow immediately, which is what makes the online
        // learning converge within the first few queries instead of stalling
        // the queue.
        let bound_ms = DEFAULT_XI * qos_ms;
        let penalty_ms = QOS_PENALTY_FACTOR * qos_ms;
        let query_major = m <= n;
        if query_major {
            r.fill::<true>(bound_ms, penalty_ms);
        } else {
            r.fill::<false>(bound_ms, penalty_ms);
        }

        // Dispatch feasible pairs immediately.  A pair predicted to violate
        // QoS is held back for the next round while the query still has a
        // chance of meeting its target elsewhere; once the query is doomed
        // anyway (its wait alone exceeds the target) it is dispatched
        // regardless so the queue cannot grow without bound.
        let (rows, cols) = if query_major { (m, n) } else { (n, m) };
        let Ok(matched) = solve_jv_into(&mut r.jv, rows, cols, &r.cost) else {
            return;
        };
        let start = out.len();
        for (row, col) in matched.iter().enumerate() {
            let Some(col) = *col else { continue };
            let (i, j) = if query_major { (row, col) } else { (col, row) };
            if r.feasible[row * cols + col] || r.waited_ms[i] >= qos_ms {
                out.push(Dispatch {
                    query_index: i,
                    instance_index: ctx.instances[r.columns[j].view].instance_index,
                });
            }
        }
        // Dispatches go out in query order whatever the layout.
        if !query_major {
            out[start..].sort_unstable_by_key(|d| d.query_index);
        }
    }

    fn bind_types(&mut self, type_names: &[Arc<str>]) {
        self.type_names = type_names.to_vec();
    }

    fn on_completion(
        &mut self,
        type_index: usize,
        _model: ModelId,
        batch_size: u32,
        service_ms: f64,
    ) {
        // A KairosScheduler instance serves one model's queries (the
        // multi-model facade routes completions per model), so the model tag
        // does not partition the predictors here.
        if service_ms <= 0.0 {
            return;
        }
        if let Some(name) = self.type_names.get(type_index) {
            self.predictors.observe(name, batch_size, service_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::{calibration::paper_calibration, ec2, Config, PoolSpec};
    use kairos_sim::{engine::run_trace, InstanceView, SimulationOptions};
    use kairos_testkit::idle_order;
    use kairos_workload::{Query, TraceSpec};

    fn view(
        idx: usize,
        type_index: usize,
        name: &str,
        is_base: bool,
        free_at: u64,
    ) -> InstanceView {
        InstanceView {
            instance_index: idx,
            type_index,
            type_name: name.into(),
            model: ModelId::DEFAULT,
            is_base,
            accepting: true,
            free_at_us: free_at,
            backlog: usize::from(free_at > 0),
        }
    }

    /// Two-instance, four-query scenario shaped after Fig. 5: the large
    /// high-speedup queries must land on the GPU and the small ones on the
    /// CPU, which FCFS would not do.
    #[test]
    fn prioritizes_high_speedup_queries_on_powerful_instances() {
        let mut kairos = KairosScheduler::with_priors(ModelKind::Wnd, &paper_calibration());
        let queued = vec![
            Query::new(0, 900, 0), // large: only the GPU can meet QoS
            Query::new(1, 30, 0),  // small: fine anywhere
        ];
        let instances = vec![
            view(0, 2, "r5n.large", false, 0),
            view(1, 0, "g4dn.xlarge", true, 0),
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
        let plan = kairos.schedule(&ctx);
        assert_eq!(plan.len(), 2);
        let large = plan.iter().find(|d| d.query_index == 0).unwrap();
        let small = plan.iter().find(|d| d.query_index == 1).unwrap();
        assert_eq!(large.instance_index, 1, "large query must go to the GPU");
        assert_eq!(
            small.instance_index, 0,
            "small query should use the cheap CPU"
        );
    }

    #[test]
    fn holds_back_queries_that_would_violate_qos_prematurely() {
        let mut kairos = KairosScheduler::with_priors(ModelKind::Wnd, &paper_calibration());
        // Only a slow CPU is available and the query is large: dispatching it
        // would burn the instance for a guaranteed violation, so Kairos waits.
        let queued = vec![Query::new(0, 900, 0)];
        let instances = vec![view(0, 2, "r5n.large", false, 0)];
        let idle = idle_order(&instances);
        let ctx = SchedulingContext {
            now_us: 0,
            queued: &queued,
            instances: &instances,
            idle: &idle,
            qos_us: 25_000,
            qos_by_model: &[],
        };
        assert!(kairos.schedule(&ctx).is_empty());

        // Once the query is already doomed (waited past the target), it is
        // dispatched anyway to clear the queue.
        let doomed = vec![Query::new(0, 900, 0)];
        let ctx = SchedulingContext {
            now_us: 30_000,
            queued: &doomed,
            instances: &instances,
            idle: &idle,
            qos_us: 25_000,
            qos_by_model: &[],
        };
        assert_eq!(kairos.schedule(&ctx).len(), 1);
    }

    #[test]
    fn learns_latency_online_from_completions() {
        let mut kairos = KairosScheduler::new();
        assert_eq!(kairos.predictors().total_observations(), 0);
        kairos.bind_types(&["g4dn.xlarge".into(), "r5n.large".into()]);
        kairos.on_completion(0, ModelId::DEFAULT, 100, 5.6);
        kairos.on_completion(0, ModelId::DEFAULT, 500, 12.0);
        // An unbound type index is ignored rather than misattributed.
        kairos.on_completion(7, ModelId::DEFAULT, 100, 3.0);
        assert_eq!(kairos.predictors().total_observations(), 2);
        assert!(kairos.predictors().get("g4dn.xlarge").unwrap().has_fit());
    }

    #[test]
    fn end_to_end_simulation_meets_qos_under_light_load() {
        // No priors: the first few large queries can be mispredicted while the
        // scheduler learns latency online (the paper includes this warm-up
        // overhead too), so the tolerance is looser than the steady-state 1 %.
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = kairos_sim::ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let trace = TraceSpec::production(60.0, 2.0, 15).generate();
        let config = Config::new(vec![1, 0, 2, 0]);
        let mut kairos = KairosScheduler::new();
        let report = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut kairos,
            &SimulationOptions::default(),
        );
        assert!(
            report.meets_qos(0.06),
            "violation fraction {}",
            report.violation_fraction()
        );
        assert!(report.completed() > 0);

        // With latency priors the warm-up disappears and the strict
        // 99th-percentile target is met.
        let mut seeded = KairosScheduler::with_priors(ModelKind::Wnd, &paper_calibration());
        let report = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut seeded,
            &SimulationOptions::default(),
        );
        assert!(
            report.meets_qos(0.01),
            "violation fraction {}",
            report.violation_fraction()
        );
    }

    #[test]
    fn outperforms_fcfs_on_a_mixed_load() {
        // Under a load that saturates the pool, Kairos's matching should yield
        // at least as much goodput as naive FCFS on the same configuration.
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = kairos_sim::ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let trace = TraceSpec::production(250.0, 1.5, 13).generate();
        let config = Config::new(vec![1, 0, 3, 0]);

        let mut kairos = KairosScheduler::with_priors(ModelKind::Wnd, &paper_calibration());
        let kairos_report = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut kairos,
            &SimulationOptions::default(),
        );
        let mut fcfs = kairos_sim::FcfsScheduler::new();
        let fcfs_report = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut fcfs,
            &SimulationOptions::default(),
        );

        assert!(
            kairos_report.goodput_qps() >= fcfs_report.goodput_qps() * 0.95,
            "kairos {} vs fcfs {}",
            kairos_report.goodput_qps(),
            fcfs_report.goodput_qps()
        );
    }
}
