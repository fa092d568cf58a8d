//! The reference idle index of a hand-built scheduling round.

use kairos_sim::InstanceView;

/// Reference computation of
/// [`SchedulingContext::idle`](kairos_sim::SchedulingContext::idle) from a
/// view array under serial service: the accepting backlog-free instances
/// sorted by `(free_at_us, instance_index)`.  The ordering is purely
/// view-derived — the clock enters only later, through
/// [`SchedulingContext::idle_now`](kairos_sim::SchedulingContext::idle_now)'s
/// usable-prefix cut.
///
/// The usable prefix meets the `idle` contract (instance-index order) only
/// when every usable idle view carries `free_at_us == now_us`, i.e. idle
/// views are clamped to the clock, as [`run_trace_naive`](crate::run_trace_naive)
/// and [`SimEngine::scheduler_views`](kairos_sim::SimEngine::scheduler_views)
/// do.  Unclamped idle views with different past `free_at_us` come out
/// sorted by idle time instead, which the FCFS-family rounds reject.
///
/// This is what `run_trace_naive` rebuilds every round and what
/// [`SimEngine::recompute_idle`](kairos_sim::SimEngine::recompute_idle)
/// equals under serial service; tests that hand-construct a scheduling
/// context should use it too, with their idle views clamped to `now_us`.
pub fn idle_order(views: &[InstanceView]) -> Vec<u32> {
    let mut idle: Vec<u32> = views
        .iter()
        .filter(|v| v.accepting && v.backlog == 0)
        .map(|v| v.instance_index as u32)
        .collect();
    idle.sort_by_key(|&i| (views[i as usize].free_at_us, i));
    idle
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_sim::SchedulingContext;
    use kairos_workload::{ModelId, TimeUs};

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
}
