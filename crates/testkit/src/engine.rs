//! The naive event loop: the whole-report reference the optimized
//! [`SimEngine`](kairos_sim::SimEngine) is checked against, and the baseline
//! of the `simulator` bench's `*_run_trace_naive` rows.

use crate::scheduler::idle_order;
use kairos_models::market::billed_dollars;
use kairos_models::{Config, PoolSpec};
use kairos_sim::cluster::quantize_service_ms;
use kairos_sim::engine::SimulationOptions;
use kairos_sim::{
    Cluster, Dispatch, InstanceView, QueryRecord, Scheduler, SchedulingContext, ServiceSpec,
    ServiceStats, SimInstance, SimReport, UnfinishedQuery,
};
use kairos_workload::{Query, TimeUs, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Event representation of the *naive* reference path, which keeps every
/// event (arrivals included) in one binary heap.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    Arrival(Query),
    Completion { instance_index: usize },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    time: TimeUs,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Nominal (noise-free) service time of a batch in rounded microseconds,
/// through the one quantization the engine uses
/// ([`quantize_service_ms`]).
#[inline]
fn nominal_us(service: &ServiceSpec, type_name: &str, batch: u32) -> TimeUs {
    quantize_service_ms(service.profile(type_name).latency_ms(batch))
}

/// One instance's service state in [`run_trace_naive`]: the query in service
/// and the local FIFO behind it.  The reference keeps its own slots so it
/// stays independent of the engine's service path.
#[derive(Default)]
struct NaiveSlot {
    serving: Option<(Query, TimeUs)>,
    busy_until_us: TimeUs,
    local_queue: VecDeque<Query>,
}

/// The original event loop, which keeps every event (arrivals included) in a
/// binary heap, rebuilds every [`InstanceView`] and the idle index from
/// scratch on every event, and removes dispatched queries with per-index
/// `Vec::remove` calls.  It serves the paper's one-query-at-a-time model
/// only.
///
/// Preserved as the behavioural reference for
/// [`SimEngine`](kairos_sim::SimEngine): the determinism
/// and property tests assert the two produce identical reports, and the
/// `simulator` Criterion bench measures the optimized engine's speedup
/// against it.
pub fn run_trace_naive(
    pool: &PoolSpec,
    config: &Config,
    service: &ServiceSpec,
    trace: &Trace,
    scheduler: &mut dyn Scheduler,
    options: &SimulationOptions,
) -> SimReport {
    let cluster = Cluster::new(pool.clone(), config.clone());
    let mut slots: Vec<NaiveSlot> = (0..cluster.len()).map(|_| NaiveSlot::default()).collect();
    scheduler.bind_types(cluster.type_names());
    scheduler.bind_models(&[service.model.kind]);
    let mut rng = StdRng::seed_from_u64(options.seed);
    let qos_us = service.qos_us();

    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut seq = 0u64;
    for q in &trace.queries {
        heap.push(Reverse(Event {
            time: q.arrival_us,
            seq,
            kind: EventKind::Arrival(*q),
        }));
        seq += 1;
    }

    let mut central_queue: Vec<Query> = Vec::new();
    let mut records: Vec<QueryRecord> = Vec::new();
    let mut last_event: TimeUs = 0;
    let mut events_processed = 0u64;

    // Views rebuilt from the slots: a busy instance frees up when its query
    // finishes plus the nominal time of everything queued behind it.
    fn build_views(
        cluster: &Cluster,
        slots: &[NaiveSlot],
        service: &ServiceSpec,
        now: TimeUs,
    ) -> Vec<InstanceView> {
        cluster
            .instances()
            .iter()
            .zip(slots)
            .map(|(inst, slot)| {
                let mut free_at = if slot.serving.is_some() {
                    slot.busy_until_us.max(now)
                } else {
                    now.max(inst.available_from_us)
                };
                for q in &slot.local_queue {
                    free_at += nominal_us(service, &inst.type_name, q.batch_size);
                }
                InstanceView {
                    instance_index: inst.index,
                    type_index: inst.type_index,
                    type_name: inst.type_name.clone(),
                    model: inst.model,
                    is_base: inst.is_base,
                    accepting: inst.accepts_dispatches(),
                    free_at_us: free_at,
                    backlog: slot.local_queue.len() + usize::from(slot.serving.is_some()),
                }
            })
            .collect()
    }

    // Helper to start the next locally queued query on an idle instance.
    fn begin_service(
        inst: &SimInstance,
        slot: &mut NaiveSlot,
        service: &ServiceSpec,
        rng: &mut StdRng,
        heap: &mut BinaryHeap<Reverse<Event>>,
        seq: &mut u64,
        now: TimeUs,
    ) {
        debug_assert!(slot.serving.is_none(), "instance already serving a query");
        if let Some(query) = slot.local_queue.pop_front() {
            let service_us = service.service_time_us(&inst.type_name, query.batch_size, rng);
            let start_us = now.max(inst.available_from_us);
            slot.serving = Some((query, start_us));
            slot.busy_until_us = start_us + service_us;
            heap.push(Reverse(Event {
                time: slot.busy_until_us,
                seq: *seq,
                kind: EventKind::Completion {
                    instance_index: inst.index,
                },
            }));
            *seq += 1;
        }
    }

    // Consult the scheduler and apply its dispatch decisions.
    #[allow(clippy::too_many_arguments)]
    fn invoke_scheduler(
        cluster: &Cluster,
        slots: &mut [NaiveSlot],
        service: &ServiceSpec,
        scheduler: &mut dyn Scheduler,
        central_queue: &mut Vec<Query>,
        rng: &mut StdRng,
        heap: &mut BinaryHeap<Reverse<Event>>,
        seq: &mut u64,
        now: TimeUs,
        qos_us: u64,
    ) {
        if central_queue.is_empty() {
            return;
        }
        let views = build_views(cluster, slots, service, now);
        let idle = idle_order(&views);
        let qos_by_model = [qos_us];
        let ctx = SchedulingContext {
            now_us: now,
            queued: central_queue,
            instances: &views,
            idle: &idle,
            qos_us,
            qos_by_model: &qos_by_model,
        };
        let mut plan: Vec<Dispatch> = scheduler.schedule(&ctx);

        // Validate: indices in range, each query dispatched at most once, no
        // dispatches to non-accepting or model-mismatched instances (mirrors
        // the engine).
        let mut seen = vec![false; central_queue.len()];
        plan.retain(|d| {
            let valid = d.query_index < central_queue.len()
                && d.instance_index < cluster.len()
                && cluster.instances()[d.instance_index].accepts_dispatches()
                && cluster.instances()[d.instance_index].model
                    == central_queue[d.query_index].model
                && !seen[d.query_index];
            if valid {
                seen[d.query_index] = true;
            }
            valid
        });

        // Dispatch in the order returned by the policy.
        for d in &plan {
            let slot = &mut slots[d.instance_index];
            slot.local_queue.push_back(central_queue[d.query_index]);
            if slot.serving.is_none() {
                let inst = &cluster.instances()[d.instance_index];
                begin_service(inst, slot, service, rng, heap, seq, now);
            }
        }

        // Remove dispatched queries from the central queue (descending order
        // so indices stay valid).
        let mut dispatched: Vec<usize> = plan.iter().map(|d| d.query_index).collect();
        dispatched.sort_unstable_by(|a, b| b.cmp(a));
        for idx in dispatched {
            central_queue.remove(idx);
        }
    }

    while let Some(Reverse(event)) = heap.pop() {
        let now = event.time;
        last_event = last_event.max(now);
        events_processed += 1;
        match event.kind {
            EventKind::Arrival(query) => {
                central_queue.push(query);
            }
            EventKind::Completion { instance_index } => {
                let (query, start_us) = slots[instance_index]
                    .serving
                    .take()
                    .expect("completion event for idle instance");
                let type_index = cluster.instances()[instance_index].type_index;
                records.push(QueryRecord {
                    id: query.id,
                    model: query.model,
                    batch_size: query.batch_size,
                    arrival_us: query.arrival_us,
                    start_us,
                    completion_us: now,
                    instance_index,
                    type_index,
                });
                let service_ms = (now - start_us) as f64 / 1000.0;
                scheduler.on_completion(type_index, query.model, query.batch_size, service_ms);
                // Start the next locally queued query, if any.
                begin_service(
                    &cluster.instances()[instance_index],
                    &mut slots[instance_index],
                    service,
                    &mut rng,
                    &mut heap,
                    &mut seq,
                    now,
                );
            }
        }
        invoke_scheduler(
            &cluster,
            &mut slots,
            service,
            scheduler,
            &mut central_queue,
            &mut rng,
            &mut heap,
            &mut seq,
            now,
            qos_us,
        );
    }

    // Anything still queued (centrally or locally) never completed.
    let unfinished_of = |q: &Query| UnfinishedQuery {
        id: q.id,
        model: q.model,
        batch_size: q.batch_size,
        arrival_us: q.arrival_us,
    };
    let mut unfinished: Vec<UnfinishedQuery> = central_queue.iter().map(unfinished_of).collect();
    for slot in &slots {
        unfinished.extend(slot.local_queue.iter().map(unfinished_of));
        if let Some((q, _)) = &slot.serving {
            unfinished.push(unfinished_of(q));
        }
    }

    let horizon_us = last_event.max(trace.duration_us());
    // The naive reference has no reconfiguration or market: every instance
    // rents at its listed price for the whole horizon, accumulated in index
    // order exactly as the engine's settlement loop does.
    let billed: f64 = cluster
        .instances()
        .iter()
        .map(|inst| billed_dollars(cluster.pool().price(inst.type_index), 0, horizon_us))
        .sum();
    // The naive path serves the reference variant for the whole run: every
    // completion accrues the service spec's published accuracy, summed by
    // repeated addition exactly as the engine accumulates it.
    let accuracy_sum = records
        .iter()
        .fold(0.0f64, |acc, _| acc + service.model.accuracy);
    SimReport {
        scheduler: scheduler.name().to_string(),
        records,
        unfinished,
        offered: trace.len(),
        horizon_us,
        qos_us,
        qos_by_model: vec![qos_us],
        billed_dollars: billed,
        billed_by_model: vec![billed],
        accuracy_sum_by_model: vec![accuracy_sum],
        events_processed,
        preemption_notices: 0,
        preempted_instances: 0,
        requeued_queries: 0,
        rejected_purchases: 0,
        straggler_onsets: 0,
        outages: Vec::new(),
        service: ServiceStats::default(),
    }
}
