//! The metric tables (mirrored in `BENCHMARK.json`) and the JSON the
//! benchmark prints.

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("goodput_pct", "%"),
    ("p99_qos_pct", "%"),
    ("cost_per_hr", "USD/hr"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.  A layer the
/// workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("planner.cache_hits", "count"),
    ("planner.cache_misses", "count"),
    ("planner.hit_ratio", "ratio"),
    ("planner.plan_ms", "ms"),
    ("planner.ranked_configs", "count"),
    ("planner.est_busy_s", "s"),
    ("planner.plan_initial_s", "s"),
    ("sched.rounds", "count"),
    ("sched.busy_s", "s"),
    ("sched.round_us_p50", "us"),
    ("sched.round_us_p99", "us"),
    ("sched.queue_p50", "count"),
    ("sched.queue_p99", "count"),
    ("sched.instances_p50", "count"),
    ("sched.dispatch_per_round", "count"),
    ("controller.signature_us", "us"),
    ("controller.observe_ns", "ns"),
    ("loop.replans", "count"),
    ("loop.reconfigs", "count"),
    ("loop.events", "count"),
    ("loop.realtime_x", "x"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.self_s", "s"),
    ("engine.calendar_scheduled", "count"),
    ("engine.calendar_stale_popped", "count"),
    ("shard.split_s", "s"),
    ("shard.lane_s_max", "s"),
    ("shard.lane_s_sum", "s"),
    ("shard.merge_s", "s"),
    ("shard.parallel_eff", "ratio"),
    ("probe.count", "count"),
    ("probe.ms_p50", "ms"),
    ("probe.ms_p99", "ms"),
    ("probe.sched_busy_s", "s"),
    ("workload.generate_s", "s"),
    ("workload.queries", "count"),
    ("trace.overhead_pct", "%"),
    ("run.wall_raw_s", "s"),
    ("run.setup_raw_s", "s"),
    ("run.reference_ms", "ms"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value, unrounded.
    pub value: f64,
    /// Unit from the same table.
    pub unit: &'static str,
}

/// Builds the metric list of `table` from `lookup`, in table order.
///
/// # Errors
/// Fails on a value that is not finite, which JSON cannot carry.
pub fn from_table(
    table: &[(&'static str, &'static str)],
    lookup: impl Fn(&str) -> f64,
) -> Result<Vec<Metric>, String> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = lookup(name);
            if value.is_finite() {
                Ok(Metric { name, value, unit })
            } else {
                Err(format!("metric {name} is not finite ({value})"))
            }
        })
        .collect()
}

/// Per-layer values a traced pass fills in; unset metrics read 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Sets a per-layer metric.
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`]: that is a bug here.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.values.retain(|&(n, _)| n != name);
        self.values.push((name, value));
    }

    /// The value of a metric, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One metric as its own JSON line, tagged with the workload.
pub fn metric_line(workload: &str, metric: &Metric) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"metric\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
        metric.name, metric.value, metric.unit
    )
}
