//! The multi-model Kairos round in the form `MultiScheduler` first computed
//! it, kept as a test oracle: the queue is partitioned by model, every
//! lane's accepting views are cloned into a vector of their own, and each
//! lane's Kairos round runs on a sub-context over those copies.  The
//! production round hands every lane the caller's views and lets the lane
//! pass over other models' views; it must dispatch exactly as this one
//! does.

use kairos_core::KairosScheduler;
use kairos_sim::{Dispatch, InstanceView, Scheduler, SchedulingContext};
use kairos_workload::ModelId;

/// One round over `lanes` (lane `m` serves model `m`), appended to `out`
/// with query indices in the caller's queue.
///
/// The lanes are plain single-model schedulers: each sees its copied views
/// as a one-model cluster (model [`ModelId::DEFAULT`]).
pub fn partitioned_round(
    lanes: &mut [KairosScheduler],
    ctx: &SchedulingContext<'_>,
    out: &mut Vec<Dispatch>,
) {
    let n = lanes.len();
    let mut queued = vec![Vec::new(); n];
    let mut qmap: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut views: Vec<Vec<InstanceView>> = vec![Vec::new(); n];
    for (qi, q) in ctx.queued.iter().enumerate() {
        if let Some(sub) = queued.get_mut(q.model.index()) {
            sub.push(*q);
            qmap[q.model.index()].push(qi);
        }
    }
    for view in ctx.instances {
        if let Some(sub) = views.get_mut(view.model.index()) {
            if view.accepting {
                sub.push(InstanceView {
                    model: ModelId::DEFAULT,
                    ..view.clone()
                });
            }
        }
    }
    for (m, lane) in lanes.iter_mut().enumerate() {
        if queued[m].is_empty() || views[m].is_empty() {
            continue;
        }
        let sub_ctx = SchedulingContext {
            now_us: ctx.now_us,
            queued: &queued[m],
            instances: &views[m],
            idle: &[],
            qos_us: ctx.qos_for(ModelId::new(m)),
            qos_by_model: ctx.qos_by_model,
        };
        let start = out.len();
        lane.schedule_into(&sub_ctx, out);
        for d in &mut out[start..] {
            d.query_index = qmap[m][d.query_index];
        }
    }
}
