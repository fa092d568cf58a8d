//! Simulation statistics: per-query records and aggregated QoS / throughput
//! metrics.
//!
//! The paper's central metric is the *allowable throughput*: the largest
//! query rate (QPS) a configuration can sustain without violating the QoS
//! target, defined on the 99th-percentile tail latency (Sec. 3).  The report
//! exposes the building blocks: completion records, tail latencies, violation
//! fractions, and goodput.

use kairos_workload::{ModelId, TimeUs};

/// Lifecycle record of one query that finished service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRecord {
    /// Query identifier.
    pub id: u64,
    /// The model the query was served by.
    pub model: ModelId,
    /// Batch size of the query.
    pub batch_size: u32,
    /// Arrival time at the system.
    pub arrival_us: TimeUs,
    /// Time service started on the chosen instance.
    pub start_us: TimeUs,
    /// Time service completed.
    pub completion_us: TimeUs,
    /// Index of the serving instance within the cluster.
    pub instance_index: usize,
    /// Index of the serving instance's type within the pool.
    pub type_index: usize,
}

impl QueryRecord {
    /// End-to-end latency (queueing + service) in microseconds.
    pub fn latency_us(&self) -> TimeUs {
        self.completion_us.saturating_sub(self.arrival_us)
    }

    /// Time spent waiting before service started.
    pub fn wait_us(&self) -> TimeUs {
        self.start_us.saturating_sub(self.arrival_us)
    }

    /// Whether the query met the QoS target.
    pub fn within_qos(&self, qos_us: u64) -> bool {
        self.latency_us() <= qos_us
    }
}

/// A query that arrived but never completed before the simulation horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnfinishedQuery {
    /// Query identifier.
    pub id: u64,
    /// The model the query targeted.
    pub model: ModelId,
    /// Batch size of the query.
    pub batch_size: u32,
    /// Arrival time at the system.
    pub arrival_us: TimeUs,
}

/// Counters of the service path's sharing and batching settings, the
/// serverless container lane (cold starts, parked time), and the calendar's
/// lazy-deletion bookkeeping.  All zeros under plain serial service except
/// the `calendar_scheduled` count, which every engine run produces.  Every field sums across shard merges: flex and serverless
/// state is per-instance and instances belong to exactly one model lane, so
/// the sharded engine's per-lane counters partition the combined run's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Timed events ever pushed onto the engine's calendar.
    pub calendar_scheduled: u64,
    /// Calendar events invalidated in place by lazy deletion (sharing
    /// reschedules, batch-timeout preemptions, instance kills).
    pub calendar_cancelled: u64,
    /// Stale calendar events popped and skipped.  At most
    /// `calendar_cancelled` — the engine regression tests assert this, which
    /// catches tombstone leaks (events cancelled twice, or skips that never
    /// had a matching cancellation).
    pub calendar_stale_popped: u64,
    /// Batches fired by the dynamic batcher (singleton batches included).
    pub batches_fired: u64,
    /// Queries that went through the batcher (members of fired batches);
    /// `batched_queries / batches_fired` is the mean occupancy.
    pub batched_queries: u64,
    /// Total time members spent in forming windows before their batch
    /// fired, in microseconds, summed over every member.  Divided by
    /// `batched_queries` it is the mean forming wait per query; divided by
    /// `batches_fired` it would be the members' summed wait per batch, which
    /// grows with the fill and can exceed the batcher timeout.
    pub batch_wait_us_sum: u64,
    /// Dispatches that found their target container parked and paid a cold
    /// start (serverless lane only).
    pub cold_starts: u64,
    /// Total cold-start latency (container init + model load) paid before
    /// service across all cold dispatches, in microseconds.
    pub cold_start_wait_us_sum: u64,
    /// Total time instances spent parked — present in the cluster but
    /// unbilled — in microseconds.  The billing integral excludes exactly
    /// these intervals.
    pub parked_us_sum: u64,
}

impl ServiceStats {
    /// Field-wise sum (the shard-merge combination).
    pub fn merged(self, other: ServiceStats) -> ServiceStats {
        ServiceStats {
            calendar_scheduled: self.calendar_scheduled + other.calendar_scheduled,
            calendar_cancelled: self.calendar_cancelled + other.calendar_cancelled,
            calendar_stale_popped: self.calendar_stale_popped + other.calendar_stale_popped,
            batches_fired: self.batches_fired + other.batches_fired,
            batched_queries: self.batched_queries + other.batched_queries,
            batch_wait_us_sum: self.batch_wait_us_sum + other.batch_wait_us_sum,
            cold_starts: self.cold_starts + other.cold_starts,
            cold_start_wait_us_sum: self.cold_start_wait_us_sum + other.cold_start_wait_us_sum,
            parked_us_sum: self.parked_us_sum + other.parked_us_sum,
        }
    }

    /// Mean members per fired batch (0 when nothing batched).
    pub fn mean_batch_fill(&self) -> f64 {
        if self.batches_fired == 0 {
            return 0.0;
        }
        self.batched_queries as f64 / self.batches_fired as f64
    }
}

/// One zone outage as observed by the engine: the domain that went down,
/// the window boundaries, and what the outage cost — instances force-killed
/// at the notice deadline and the queries those kills displaced back to the
/// central queue.  The per-domain recovery delay derives from the report via
/// [`SimReport::time_to_recover`] anchored at [`OutageRecord::start_us`]
/// (see [`SimReport::outage_recoveries`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutageRecord {
    /// Label of the failed domain (`region/zone`).
    pub domain: String,
    /// Virtual time the outage began (the notice instant).
    pub start_us: TimeUs,
    /// Virtual time the domain came back.
    pub end_us: TimeUs,
    /// Instances force-killed at the outage's notice deadline.
    pub killed_instances: usize,
    /// Queries the kills displaced back to the central queue (in-flight
    /// plus locally queued at kill time).
    pub lost_queries: usize,
}

/// Aggregated outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Name of the scheduling policy that produced this run.
    pub scheduler: String,
    /// Per-query completion records.
    pub records: Vec<QueryRecord>,
    /// Queries that never completed before the horizon.
    pub unfinished: Vec<UnfinishedQuery>,
    /// Total number of queries offered to the system.
    pub offered: usize,
    /// Virtual time span of the run (last event time), in microseconds.
    pub horizon_us: TimeUs,
    /// QoS target of the primary ([`ModelId::DEFAULT`]) model, in
    /// microseconds.  Single-model runs read this; per-model accounting
    /// resolves through [`SimReport::qos_for`].
    pub qos_us: u64,
    /// Per-model QoS targets in microseconds, indexed by [`ModelId`].
    /// `[qos_us]` for single-model runs; may be left empty by hand-built
    /// reports, in which case every model falls back to [`Self::qos_us`].
    pub qos_by_model: Vec<u64>,
    /// Time-integrated dollars actually billed over the run: each instance
    /// is charged its offering's (possibly time-varying) price from the
    /// moment it was requested until it terminally left service (or the
    /// horizon, if still alive).  With constant prices this equals
    /// `hourly cost × hours`, bit-for-bit per instance.  Equal to the
    /// left-fold sum of [`Self::billed_by_model`] when that table is
    /// populated.
    pub billed_dollars: f64,
    /// Per-model partial sums of [`Self::billed_dollars`], indexed by
    /// [`ModelId`]: slot `m` accumulates the bills of model-`m`-bound
    /// instances in settlement order.  Keeping the per-model partials (and
    /// deriving the total as their left fold) is what makes billing
    /// **order-independent across shards**: shards bill disjoint model
    /// slots, so [`Self::merge_many`] adds exact zeros into every foreign slot
    /// and the merged fold reproduces the single-engine total bit-for-bit.
    /// May be empty on hand-built reports, in which case the whole bill is
    /// attributed to the primary model.
    pub billed_by_model: Vec<f64>,
    /// Per-model sums over completed queries of the accuracy of the variant
    /// serving the query's model **at completion time**, indexed by
    /// [`ModelId`] — the delivered-accuracy numerator of the variant
    /// subsystem (see [`kairos_models::variant`]).  Reference-only runs
    /// accrue each model's published accuracy per completion; runs that
    /// switch variants mid-flight accrue the accuracy active when the query
    /// completed.  Same disjoint-slot representation as
    /// [`Self::billed_by_model`], with the same exact-merge property; may be
    /// empty on hand-built reports, in which case every completion counts as
    /// full accuracy (1.0), attributed to the primary model.
    pub accuracy_sum_by_model: Vec<f64>,
    /// Number of engine events processed to produce this report (arrivals,
    /// completions, provisioning readies, market steps, preemption kills).
    /// The numerator of the engine's events/sec scaling metric; shard
    /// merges sum it.
    pub events_processed: u64,
    /// Market preemption notices delivered during the run.
    pub preemption_notices: usize,
    /// Instances forcibly reclaimed by the market.
    pub preempted_instances: usize,
    /// Queries requeued to the central queue by preemption kills (a query
    /// requeued by two successive kills counts twice).  Outage kills ride
    /// the same counter (their per-outage share is in [`Self::outages`]).
    pub requeued_queries: usize,
    /// Purchase attempts rejected by an active zone outage or capacity
    /// shortage in the target domain (see
    /// [`SimEngine::add_instance`](crate::SimEngine::add_instance)).
    pub rejected_purchases: usize,
    /// Straggler onsets applied to a live instance (throughput scaled down
    /// mid-run).
    pub straggler_onsets: usize,
    /// One record per zone outage the run went through, in onset order.
    /// Shard merges concatenate and re-sort by `(start_us, domain)`.
    pub outages: Vec<OutageRecord>,
    /// Flexible-service-layer counters: calendar lazy-deletion tombstones
    /// and dynamic-batcher occupancy/latency metrics.  Summed field-wise by
    /// shard merges.
    pub service: ServiceStats,
}

/// One model's slice of a [`SimReport`]: the per-model accounting that sums
/// exactly to the aggregate report (see [`SimReport::per_model`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// The model this row describes.
    pub model: ModelId,
    /// Queries of this model offered to the system.
    pub offered: usize,
    /// Queries of this model that completed.
    pub completed: usize,
    /// Queries of this model that never completed before the horizon.
    pub unfinished: usize,
    /// QoS violations attributed to this model (late completions plus stale
    /// unfinished queries, judged against *this model's* QoS target).
    pub violations: usize,
    /// 99th-percentile end-to-end latency of this model's completions, in
    /// microseconds (0 when nothing completed).
    pub p99_latency_us: TimeUs,
    /// Completed queries of this model per second of simulated time.
    pub throughput_qps: f64,
    /// Mean delivered accuracy over this model's completions — the
    /// per-completion accuracy of the serving variant, averaged (0 when
    /// nothing completed).
    pub mean_accuracy: f64,
}

impl ModelReport {
    /// Fraction of this model's offered queries that violated its QoS.
    pub fn violation_fraction(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.violations as f64 / self.offered as f64
    }
}

/// K-way linear merge of sorted runs under a total key: one output pass over
/// the concatenation instead of the repeated prefix copies a pairwise fold
/// pays.  Key ties break toward the earliest input, exactly as a left fold
/// of pairwise merges orders them.  Callers guarantee every input is sorted
/// (see [`sorted_run`]).
fn kway_merge_by_key<T: Copy, K: Ord>(inputs: &[Vec<T>], key: fn(&T) -> K) -> Vec<T> {
    let total = inputs.iter().map(Vec::len).sum();
    let mut out: Vec<T> = Vec::with_capacity(total);
    let mut cursors = vec![0usize; inputs.len()];
    // Cache each input's head key: popping advances exactly one cursor, so
    // only that input's key needs re-deriving — the scan below compares
    // cached keys instead of rebuilding k of them per output element.
    let mut heads: Vec<Option<K>> = inputs.iter().map(|input| input.first().map(key)).collect();
    while out.len() < total {
        let mut best: Option<(usize, &K)> = None;
        for (s, head) in heads.iter().enumerate() {
            if let Some(k) = head {
                if best.as_ref().is_none_or(|&(_, bk)| k < bk) {
                    best = Some((s, k));
                }
            }
        }
        let (s, _) = best.expect("out.len() < total implies a live cursor");
        out.push(inputs[s][cursors[s]]);
        cursors[s] += 1;
        heads[s] = inputs[s].get(cursors[s]).map(key);
    }
    out
}

/// `run` in canonical order under `key`, sorted only when it is not already
/// (multi-model engine reports are).
fn sorted_run<T, K: Ord>(mut run: Vec<T>, key: fn(&T) -> K) -> Vec<T> {
    if !run.is_sorted_by_key(key) {
        run.sort_unstable_by_key(key);
    }
    run
}

/// Nearest-rank percentile over a **sorted** latency slice: the smallest
/// latency such that at least `percentile` percent of entries are at or
/// below it (0 for an empty slice).  The single percentile convention used
/// by both the aggregate and the per-model report paths.
fn nearest_rank_us(sorted: &[TimeUs], percentile: f64) -> TimeUs {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    let rank = ((percentile / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    sorted[rank]
}

impl SimReport {
    /// Number of completed queries.
    pub fn completed(&self) -> usize {
        self.records.len()
    }

    /// QoS target of a model in microseconds (array index; falls back to
    /// the primary [`Self::qos_us`] when the table does not cover the
    /// model).
    #[inline]
    pub fn qos_for(&self, model: ModelId) -> u64 {
        self.qos_by_model
            .get(model.index())
            .copied()
            .unwrap_or(self.qos_us)
    }

    /// One past the largest model index appearing in the report (QoS table,
    /// records or unfinished queries).
    pub fn num_models(&self) -> usize {
        self.qos_by_model
            .len()
            .max(
                self.records
                    .iter()
                    .map(|r| r.model.index() + 1)
                    .max()
                    .unwrap_or(0),
            )
            .max(
                self.unfinished
                    .iter()
                    .map(|u| u.model.index() + 1)
                    .max()
                    .unwrap_or(0),
            )
            .max(1)
    }

    /// Per-model breakdown of the run, indexed by [`ModelId`] over
    /// `0..self.num_models()`.  The `offered`, `completed`, `unfinished`
    /// and `violations` columns each sum **exactly** to the corresponding
    /// aggregate ([`Self::offered`] via completed + unfinished,
    /// [`Self::completed`], [`Self::violations`]) — this invariant is
    /// property-tested in `tests/proptest_multimodel.rs`.
    pub fn per_model(&self) -> Vec<ModelReport> {
        let n = self.num_models();
        let mut offered = vec![0usize; n];
        let mut completed = vec![0usize; n];
        let mut unfinished = vec![0usize; n];
        let mut violations = vec![0usize; n];
        let mut latencies: Vec<Vec<TimeUs>> = vec![Vec::new(); n];
        for r in &self.records {
            let m = r.model.index();
            offered[m] += 1;
            completed[m] += 1;
            latencies[m].push(r.latency_us());
            if !r.within_qos(self.qos_for(r.model)) {
                violations[m] += 1;
            }
        }
        for u in &self.unfinished {
            let m = u.model.index();
            offered[m] += 1;
            unfinished[m] += 1;
            if self.horizon_us.saturating_sub(u.arrival_us) > self.qos_for(u.model) {
                violations[m] += 1;
            }
        }
        let horizon_s = self.horizon_us as f64 / 1e6;
        let accuracy = self.accuracy_table();
        (0..n)
            .map(|m| {
                latencies[m].sort_unstable();
                let p99 = nearest_rank_us(&latencies[m], 99.0);
                ModelReport {
                    model: ModelId::new(m),
                    offered: offered[m],
                    completed: completed[m],
                    unfinished: unfinished[m],
                    violations: violations[m],
                    p99_latency_us: p99,
                    throughput_qps: if self.horizon_us == 0 {
                        0.0
                    } else {
                        completed[m] as f64 / horizon_s
                    },
                    mean_accuracy: if completed[m] == 0 {
                        0.0
                    } else {
                        accuracy.get(m).copied().unwrap_or(0.0) / completed[m] as f64
                    },
                }
            })
            .collect()
    }

    /// Time-weighted mean dollars per hour over the run: the billed total
    /// spread over the horizon.  This is the cost axis of the market
    /// benchmarks (`count × list price` overstates spend whenever the run
    /// rode cheaper spot capacity or scaled in mid-run).
    pub fn billed_cost_per_hour(&self) -> f64 {
        if self.horizon_us == 0 {
            return 0.0;
        }
        self.billed_dollars / (self.horizon_us as f64 / 3.6e9)
    }

    /// Raw throughput: completed queries per second of simulated time.
    pub fn throughput_qps(&self) -> f64 {
        if self.horizon_us == 0 {
            return 0.0;
        }
        self.completed() as f64 / (self.horizon_us as f64 / 1e6)
    }

    /// Goodput: queries completed *within QoS* per second of simulated time —
    /// the quantity the paper calls allowable throughput once the offered load
    /// is at the QoS-feasibility boundary.
    pub fn goodput_qps(&self) -> f64 {
        if self.horizon_us == 0 {
            return 0.0;
        }
        let ok = self
            .records
            .iter()
            .filter(|r| r.within_qos(self.qos_for(r.model)))
            .count();
        ok as f64 / (self.horizon_us as f64 / 1e6)
    }

    /// Number of offered queries that violated QoS: completions beyond the
    /// target plus unfinished queries already in the system longer than the
    /// target at the horizon (so an overloaded system cannot hide violations
    /// in its backlog).
    ///
    /// The late-completion term is monotone over a run — once a completion
    /// is late it stays late, and on-time completions can never turn into
    /// violations — which is the bound the engine's early-exit capacity
    /// probe ([`kairos_sim::SimEngine::run_qos_probe`](crate::SimEngine::run_qos_probe))
    /// relies on.
    pub fn violations(&self) -> usize {
        let late_completed = self
            .records
            .iter()
            .filter(|r| !r.within_qos(self.qos_for(r.model)))
            .count();
        let late_unfinished = self
            .unfinished
            .iter()
            .filter(|u| self.horizon_us.saturating_sub(u.arrival_us) > self.qos_for(u.model))
            .count();
        late_completed + late_unfinished
    }

    /// Fraction of offered queries that violated QoS (see
    /// [`Self::violations`]).
    pub fn violation_fraction(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.violations() as f64 / self.offered as f64
    }

    /// Whether the run satisfies the QoS target at the given tail tolerance
    /// (e.g. 0.01 for a 99th-percentile target).
    pub fn meets_qos(&self, tolerance: f64) -> bool {
        self.violation_fraction() <= tolerance
    }

    /// Latency at the given percentile (0–100) over completed queries, in
    /// microseconds.  Returns 0 when nothing completed.
    pub fn latency_percentile_us(&self, percentile: f64) -> TimeUs {
        assert!(
            (0.0..=100.0).contains(&percentile),
            "percentile out of range"
        );
        let mut latencies: Vec<TimeUs> = self.records.iter().map(|r| r.latency_us()).collect();
        latencies.sort_unstable();
        nearest_rank_us(&latencies, percentile)
    }

    /// 99th-percentile latency in microseconds (the paper's QoS metric).
    pub fn p99_latency_us(&self) -> TimeUs {
        self.latency_percentile_us(99.0)
    }

    /// Mean end-to-end latency in milliseconds over completed queries.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.latency_us() as f64)
            .sum::<f64>()
            / self.records.len() as f64
            / 1000.0
    }

    /// Windowed QoS-violation rate over virtual time, **by arrival**: bucket
    /// `i` covers arrivals in `[i * bucket_us, (i+1) * bucket_us)` and holds
    /// the fraction of them that violated QoS — completed too late, or never
    /// completed despite being in the system longer than the target (empty
    /// buckets report 0).  Attributing violations to the arrival instant
    /// answers the adaptation question "how were queries *offered at time t*
    /// served?": a load shift shows up as a spike, recovery as its decay,
    /// and stragglers from the transient do not smear into later buckets.
    pub fn violation_timeline(&self, bucket_us: TimeUs) -> Vec<(TimeUs, f64)> {
        assert!(bucket_us > 0, "bucket width must be positive");
        let buckets = (self.horizon_us / bucket_us + 1) as usize;
        let mut late = vec![0usize; buckets];
        let mut total = vec![0usize; buckets];
        for r in &self.records {
            let b = (r.arrival_us / bucket_us) as usize;
            if b < buckets {
                total[b] += 1;
                if !r.within_qos(self.qos_for(r.model)) {
                    late[b] += 1;
                }
            }
        }
        for u in &self.unfinished {
            let b = (u.arrival_us / bucket_us) as usize;
            if b < buckets {
                total[b] += 1;
                if self.horizon_us.saturating_sub(u.arrival_us) > self.qos_for(u.model) {
                    late[b] += 1;
                }
            }
        }
        (0..buckets)
            .map(|b| {
                let rate = if total[b] == 0 {
                    0.0
                } else {
                    late[b] as f64 / total[b] as f64
                };
                (b as TimeUs * bucket_us, rate)
            })
            .collect()
    }

    /// Time the system needed to restore QoS after a disruption at
    /// `boundary_us`: the smallest `t >= boundary_us` such that every bucket
    /// of the [violation timeline](Self::violation_timeline) from `t` through
    /// the last arrival stays at or below `tolerance`.  Buckets after the
    /// last arrival carry no evidence and are ignored — a run cannot
    /// "recover" into silence.  Returns the recovery delay `t - boundary_us`,
    /// or `None` if the system never stabilizes within the run.
    pub fn time_to_recover(
        &self,
        boundary_us: TimeUs,
        bucket_us: TimeUs,
        tolerance: f64,
    ) -> Option<TimeUs> {
        let last_arrival = self
            .records
            .iter()
            .map(|r| r.arrival_us)
            .chain(self.unfinished.iter().map(|u| u.arrival_us))
            .max()?;
        let timeline = self.violation_timeline(bucket_us);
        let mut recovered_from: Option<TimeUs> = None;
        for &(start, rate) in timeline
            .iter()
            .filter(|(s, _)| *s >= boundary_us && *s <= last_arrival)
        {
            if rate <= tolerance {
                recovered_from.get_or_insert(start);
            } else {
                recovered_from = None;
            }
        }
        recovered_from.map(|t| t - boundary_us)
    }

    /// Per-domain recovery delays: for each [`OutageRecord`] of the run, the
    /// [`Self::time_to_recover`] measured from the outage's onset (`None`
    /// when QoS never restabilizes within the run).  This is the
    /// time-to-recover axis of the `fig_outage` benchmark.
    pub fn outage_recoveries(
        &self,
        bucket_us: TimeUs,
        tolerance: f64,
    ) -> Vec<(String, Option<TimeUs>)> {
        self.outages
            .iter()
            .map(|o| {
                (
                    o.domain.clone(),
                    self.time_to_recover(o.start_us, bucket_us, tolerance),
                )
            })
            .collect()
    }

    /// Engine events processed per wall-clock second: the scaling metric of
    /// the sharded engine (`fig_scale`, `bench_gate`).  Wall time is a
    /// measurement of the replay, not of the simulated system, so it lives
    /// outside the report — passing it in keeps reports bit-identical
    /// across thread counts.  Returns 0 for a non-positive wall time.
    pub fn events_per_sec(&self, wall_seconds: f64) -> f64 {
        if wall_seconds <= 0.0 {
            return 0.0;
        }
        self.events_processed as f64 / wall_seconds
    }

    /// The per-model billing table, falling back to attributing the whole
    /// bill to the primary model when [`Self::billed_by_model`] was left
    /// empty (hand-built reports).
    fn billed_table(&self) -> Vec<f64> {
        if self.billed_by_model.is_empty() {
            vec![self.billed_dollars]
        } else {
            self.billed_by_model.clone()
        }
    }

    /// The per-model delivered-accuracy sums, falling back to counting every
    /// completion as full accuracy attributed to the primary model when
    /// [`Self::accuracy_sum_by_model`] was left empty (hand-built reports).
    fn accuracy_table(&self) -> Vec<f64> {
        if self.accuracy_sum_by_model.is_empty() {
            vec![self.completed() as f64]
        } else {
            self.accuracy_sum_by_model.clone()
        }
    }

    /// Mean delivered accuracy over all completed queries: the
    /// per-completion accuracy of the serving variant, averaged (0 when
    /// nothing completed).  A reference-only single-model run reports the
    /// model's published accuracy exactly.
    pub fn delivered_accuracy(&self) -> f64 {
        if self.completed() == 0 {
            return 0.0;
        }
        let sum = self.accuracy_table().iter().fold(0.0, |acc, &a| acc + a);
        sum / self.completed() as f64
    }

    /// The canonical total order [`Self::merge_many`] (and the multi-model
    /// engine's report finalization) sorts completion records by.  Query
    /// ids are unique within a run, so the key is total and the sorted
    /// sequence is independent of shard order and thread count.
    pub(crate) fn record_key(r: &QueryRecord) -> (TimeUs, TimeUs, u64) {
        (r.completion_us, r.arrival_us, r.id)
    }

    /// The canonical total order for unfinished queries (see
    /// [`Self::record_key`]).
    pub(crate) fn unfinished_key(u: &UnfinishedQuery) -> (TimeUs, u64) {
        (u.arrival_us, u.id)
    }

    /// Merges any number of shard reports into the report of the combined
    /// run, writing each record exactly once.  The merge is **commutative
    /// and associative** over any shard order — every field either sums
    /// (counters), max-merges (horizons, QoS tables), sorted-multiset-merges
    /// under a total key (records, unfinished, scheduler names), or
    /// element-wise adds disjoint per-model partials (billing, accuracy) —
    /// so the merge of per-model-lane shard reports is bit-identical
    /// regardless of thread count or shard order, and bit-identical to the
    /// left fold of pairwise merges over the same order.  This is the
    /// contract the sharded engine's proptests pin down.
    ///
    /// Billing associativity holds exactly when shards bill disjoint model
    /// slots (the per-model-lane shard boundary guarantees it: adding an
    /// exact `0.0` into a non-negative slot is the f64 identity); merging
    /// hand-built reports that bill the *same* slot is still deterministic
    /// per shard order but subject to ordinary f64 rounding.  Records and
    /// unfinished lists that are not canonically sorted are sorted first.
    /// Returns `None` on an empty iterator.
    pub fn merge_many(reports: impl IntoIterator<Item = SimReport>) -> Option<SimReport> {
        let mut reports: Vec<SimReport> = reports.into_iter().collect();
        if reports.len() < 2 {
            return reports.pop();
        }
        // Scheduler name: all-equal collapses, otherwise the sorted
        // '+'-joined union of every report's parts (the fold's fixpoint).
        let scheduler = if reports[1..]
            .iter()
            .all(|r| r.scheduler == reports[0].scheduler)
        {
            reports[0].scheduler.clone()
        } else {
            let mut parts: Vec<&str> = reports
                .iter()
                .flat_map(|r| r.scheduler.split('+'))
                .collect();
            parts.sort_unstable();
            parts.dedup();
            parts.join("+")
        };

        // Capture the accuracy tables before the record lists are taken:
        // the empty-table fallback counts completions.
        let accuracy_tables: Vec<Vec<f64>> = reports.iter().map(|r| r.accuracy_table()).collect();

        let record_runs: Vec<Vec<QueryRecord>> = reports
            .iter_mut()
            .map(|r| sorted_run(std::mem::take(&mut r.records), Self::record_key))
            .collect();
        let unfinished_runs: Vec<Vec<UnfinishedQuery>> = reports
            .iter_mut()
            .map(|r| sorted_run(std::mem::take(&mut r.unfinished), Self::unfinished_key))
            .collect();
        let records = kway_merge_by_key(&record_runs, Self::record_key);
        let unfinished = kway_merge_by_key(&unfinished_runs, Self::unfinished_key);

        let mut qos_by_model: Vec<u64> = Vec::new();
        let mut billed_by_model: Vec<f64> = reports[0].billed_table();
        for (i, r) in reports.iter().enumerate() {
            if qos_by_model.len() < r.qos_by_model.len() {
                qos_by_model.resize(r.qos_by_model.len(), 0);
            }
            for (slot, &q) in qos_by_model.iter_mut().zip(&r.qos_by_model) {
                *slot = (*slot).max(q);
            }
            if i > 0 {
                let table = r.billed_table();
                if billed_by_model.len() < table.len() {
                    billed_by_model.resize(table.len(), 0.0);
                }
                for (slot, &b) in billed_by_model.iter_mut().zip(&table) {
                    *slot += b;
                }
            }
        }
        let billed_dollars = billed_by_model.iter().fold(0.0, |acc, &b| acc + b);

        // Accuracy partials accumulate slot-wise in input order, exactly as
        // the pairwise fold adds them.
        let mut accuracy_sum_by_model: Vec<f64> = accuracy_tables[0].clone();
        for table in &accuracy_tables[1..] {
            if accuracy_sum_by_model.len() < table.len() {
                accuracy_sum_by_model.resize(table.len(), 0.0);
            }
            for (slot, &a) in accuracy_sum_by_model.iter_mut().zip(table) {
                *slot += a;
            }
        }

        let mut outages: Vec<OutageRecord> = reports
            .iter_mut()
            .flat_map(|r| std::mem::take(&mut r.outages))
            .collect();
        outages.sort_by(|a, b| (a.start_us, &a.domain).cmp(&(b.start_us, &b.domain)));

        Some(SimReport {
            scheduler,
            records,
            unfinished,
            offered: reports.iter().map(|r| r.offered).sum(),
            horizon_us: reports
                .iter()
                .map(|r| r.horizon_us)
                .max()
                .expect("non-empty"),
            qos_us: reports.iter().map(|r| r.qos_us).max().expect("non-empty"),
            qos_by_model,
            billed_dollars,
            billed_by_model,
            accuracy_sum_by_model,
            events_processed: reports.iter().map(|r| r.events_processed).sum(),
            preemption_notices: reports.iter().map(|r| r.preemption_notices).sum(),
            preempted_instances: reports.iter().map(|r| r.preempted_instances).sum(),
            requeued_queries: reports.iter().map(|r| r.requeued_queries).sum(),
            rejected_purchases: reports.iter().map(|r| r.rejected_purchases).sum(),
            straggler_onsets: reports.iter().map(|r| r.straggler_onsets).sum(),
            outages,
            service: reports
                .iter()
                .fold(ServiceStats::default(), |acc, r| acc.merged(r.service)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merges two record lists under a total key: a linear two-way merge of
    /// sorted inputs, concatenate-and-sort otherwise.
    fn merge_by_key<T, K: Ord>(mut left: Vec<T>, mut right: Vec<T>, key: fn(&T) -> K) -> Vec<T> {
        let sorted = |v: &[T]| v.windows(2).all(|w| key(&w[0]) <= key(&w[1]));
        if !sorted(&left) || !sorted(&right) {
            left.append(&mut right);
            left.sort_unstable_by_key(key);
            return left;
        }
        if left.is_empty() {
            return right;
        }
        if right.is_empty() || key(left.last().expect("non-empty")) <= key(&right[0]) {
            left.append(&mut right);
            return left;
        }
        let mut out = Vec::with_capacity(left.len() + right.len());
        let mut l = left.into_iter().peekable();
        let mut r = right.into_iter().peekable();
        loop {
            match (l.peek(), r.peek()) {
                (Some(a), Some(b)) => {
                    if key(a) <= key(b) {
                        out.push(l.next().expect("peeked"));
                    } else {
                        out.push(r.next().expect("peeked"));
                    }
                }
                (Some(_), None) => {
                    out.extend(l);
                    break;
                }
                (None, _) => {
                    out.extend(r);
                    break;
                }
            }
        }
        out
    }

    impl SimReport {
        /// The pairwise merge [`SimReport::merge_many`] must reproduce bit
        /// for bit: a left fold of it over the same shard order is the
        /// k-way merge's oracle.
        fn merge(mut self, mut other: SimReport) -> SimReport {
            // Scheduler name: equal names collapse, different names become the
            // sorted '+'-joined union of their parts.
            let scheduler = if self.scheduler == other.scheduler {
                std::mem::take(&mut self.scheduler)
            } else {
                let mut parts: Vec<&str> = self
                    .scheduler
                    .split('+')
                    .chain(other.scheduler.split('+'))
                    .collect();
                parts.sort_unstable();
                parts.dedup();
                parts.join("+")
            };

            // Capture the accuracy tables before the record lists are taken:
            // the empty-table fallback counts completions.
            let self_accuracy = self.accuracy_table();
            let other_accuracy = other.accuracy_table();

            let records = merge_by_key(
                std::mem::take(&mut self.records),
                std::mem::take(&mut other.records),
                Self::record_key,
            );
            let unfinished = merge_by_key(
                std::mem::take(&mut self.unfinished),
                std::mem::take(&mut other.unfinished),
                Self::unfinished_key,
            );

            // Per-model QoS tables max-merge, extending to the longer table;
            // per-model-lane shards carry identical full tables, so this is a
            // no-op there.
            let mut qos_by_model = std::mem::take(&mut self.qos_by_model);
            if qos_by_model.len() < other.qos_by_model.len() {
                qos_by_model.resize(other.qos_by_model.len(), 0);
            }
            for (slot, &q) in qos_by_model.iter_mut().zip(&other.qos_by_model) {
                *slot = (*slot).max(q);
            }

            // Billing: element-wise sum of the per-model partials, total
            // re-derived as their left fold.
            let mut billed_by_model = self.billed_table();
            let other_billed = other.billed_table();
            if billed_by_model.len() < other_billed.len() {
                billed_by_model.resize(other_billed.len(), 0.0);
            }
            for (slot, &b) in billed_by_model.iter_mut().zip(&other_billed) {
                *slot += b;
            }
            let billed_dollars = billed_by_model.iter().fold(0.0, |acc, &b| acc + b);

            // Delivered accuracy merges exactly like billing: element-wise sum
            // of disjoint per-model partials.
            let mut accuracy_sum_by_model = self_accuracy;
            if accuracy_sum_by_model.len() < other_accuracy.len() {
                accuracy_sum_by_model.resize(other_accuracy.len(), 0.0);
            }
            for (slot, &a) in accuracy_sum_by_model.iter_mut().zip(&other_accuracy) {
                *slot += a;
            }

            // Outage records concatenate and re-sort under a total-enough key:
            // a domain can only fail once per instant, so (start, domain) orders
            // shard contributions independently of merge order.
            let mut outages = std::mem::take(&mut self.outages);
            outages.append(&mut other.outages);
            outages.sort_by(|a, b| (a.start_us, &a.domain).cmp(&(b.start_us, &b.domain)));

            SimReport {
                scheduler,
                records,
                unfinished,
                offered: self.offered + other.offered,
                horizon_us: self.horizon_us.max(other.horizon_us),
                qos_us: self.qos_us.max(other.qos_us),
                qos_by_model,
                billed_dollars,
                billed_by_model,
                accuracy_sum_by_model,
                events_processed: self.events_processed + other.events_processed,
                preemption_notices: self.preemption_notices + other.preemption_notices,
                preempted_instances: self.preempted_instances + other.preempted_instances,
                requeued_queries: self.requeued_queries + other.requeued_queries,
                rejected_purchases: self.rejected_purchases + other.rejected_purchases,
                straggler_onsets: self.straggler_onsets + other.straggler_onsets,
                outages,
                service: self.service.merged(other.service),
            }
        }
    }

    fn record(id: u64, arrival: TimeUs, start: TimeUs, completion: TimeUs) -> QueryRecord {
        QueryRecord {
            id,
            model: ModelId::DEFAULT,
            batch_size: 10,
            arrival_us: arrival,
            start_us: start,
            completion_us: completion,
            instance_index: 0,
            type_index: 0,
        }
    }

    fn report(records: Vec<QueryRecord>, unfinished: Vec<UnfinishedQuery>, qos: u64) -> SimReport {
        let offered = records.len() + unfinished.len();
        let completed = records.len();
        SimReport {
            scheduler: "test".into(),
            records,
            unfinished,
            offered,
            horizon_us: 1_000_000,
            qos_us: qos,
            qos_by_model: vec![qos],
            billed_dollars: 0.0,
            billed_by_model: vec![0.0],
            accuracy_sum_by_model: vec![completed as f64],
            events_processed: 0,
            preemption_notices: 0,
            preempted_instances: 0,
            requeued_queries: 0,
            rejected_purchases: 0,
            straggler_onsets: 0,
            outages: vec![],
            service: ServiceStats::default(),
        }
    }

    #[test]
    fn record_latency_and_wait() {
        let r = record(1, 100, 400, 900);
        assert_eq!(r.latency_us(), 800);
        assert_eq!(r.wait_us(), 300);
        assert!(r.within_qos(800));
        assert!(!r.within_qos(799));
    }

    #[test]
    fn throughput_and_goodput() {
        let rep = report(
            vec![record(1, 0, 0, 100), record(2, 0, 0, 200_000)],
            vec![],
            10_000,
        );
        assert!((rep.throughput_qps() - 2.0).abs() < 1e-9);
        // Only the first record is within the 10 ms QoS.
        assert!((rep.goodput_qps() - 1.0).abs() < 1e-9);
        assert_eq!(rep.violation_fraction(), 0.5);
        assert!(!rep.meets_qos(0.01));
        assert!(rep.meets_qos(0.5));
    }

    #[test]
    fn unfinished_queries_count_as_violations_when_stale() {
        let rep = report(
            vec![record(1, 0, 0, 100)],
            vec![
                UnfinishedQuery {
                    id: 2,
                    model: ModelId::DEFAULT,
                    batch_size: 5,
                    arrival_us: 0,
                }, // stale
                UnfinishedQuery {
                    id: 3,
                    model: ModelId::DEFAULT,
                    batch_size: 5,
                    arrival_us: 999_999,
                }, // fresh
            ],
            10_000,
        );
        assert!((rep.violation_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_latency() {
        let records: Vec<QueryRecord> = (1..=100)
            .map(|i| record(i, 0, 0, i as TimeUs * 1000))
            .collect();
        let rep = report(records, vec![], 1_000_000);
        assert_eq!(rep.p99_latency_us(), 99_000);
        assert_eq!(rep.latency_percentile_us(50.0), 50_000);
        assert!((rep.mean_latency_ms() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_harmless() {
        let rep = report(vec![], vec![], 1000);
        assert_eq!(rep.completed(), 0);
        assert_eq!(rep.throughput_qps(), 0.0);
        assert_eq!(rep.p99_latency_us(), 0);
        assert_eq!(rep.violation_fraction(), 0.0);
        assert!(rep.meets_qos(0.0));
    }

    #[test]
    fn violation_timeline_buckets_by_arrival_and_counts_unfinished() {
        let rep = report(
            vec![
                record(1, 0, 0, 5_000),               // on time, bucket 0
                record(2, 100_000, 100_000, 500_000), // late, bucket 1
                record(3, 150_000, 150_000, 160_000), // on time, bucket 1
            ],
            vec![UnfinishedQuery {
                id: 4,
                model: ModelId::DEFAULT,
                batch_size: 5,
                arrival_us: 120_000, // stale by the 1s horizon: violation
            }],
            10_000,
        );
        let timeline = rep.violation_timeline(100_000);
        assert_eq!(timeline[0], (0, 0.0));
        assert_eq!(timeline[1], (100_000, 2.0 / 3.0));
        // Later buckets have no arrivals: rate 0.
        assert!(timeline[2..].iter().all(|&(_, v)| v == 0.0));
    }

    #[test]
    fn time_to_recover_finds_the_stable_suffix() {
        // Violations in buckets 1 and 3 (arrival times 150k and 350k), clean
        // after that: recovery from the 100k boundary is at bucket 4.
        let rep = report(
            vec![
                record(1, 150_000, 150_000, 600_000),
                record(2, 250_000, 250_000, 255_000),
                record(3, 350_000, 350_000, 800_000),
                record(4, 450_000, 450_000, 455_000),
                record(5, 550_000, 550_000, 555_000),
            ],
            vec![],
            10_000,
        );
        assert_eq!(rep.time_to_recover(100_000, 100_000, 0.0), Some(300_000));
        // Never clean enough at an impossible tolerance over dirty buckets.
        let all_late = report(vec![record(1, 950_000, 950_000, 999_999)], vec![], 10);
        assert_eq!(all_late.time_to_recover(900_000, 100_000, 0.0), None);
    }

    #[test]
    fn outage_recoveries_anchor_time_to_recover_at_each_onset() {
        // One late arrival in bucket 1 (the outage transient), clean after:
        // recovery from the 100 ms onset lands at bucket 2, a 100 ms delay.
        let mut rep = report(
            vec![
                record(1, 150_000, 150_000, 600_000),
                record(2, 250_000, 250_000, 255_000),
                record(3, 350_000, 350_000, 355_000),
            ],
            vec![],
            10_000,
        );
        rep.outages.push(OutageRecord {
            domain: "us-east-1/us-east-1a".into(),
            start_us: 100_000,
            end_us: 200_000,
            killed_instances: 2,
            lost_queries: 5,
        });
        assert_eq!(
            rep.outage_recoveries(100_000, 0.0),
            vec![("us-east-1/us-east-1a".to_string(), Some(100_000))]
        );
    }

    #[test]
    fn per_model_breakdown_sums_to_aggregates_and_applies_per_model_qos() {
        // Model 0: 10 ms QoS, model 1: 100 ms QoS.  The same 50 ms latency is
        // a violation for model 0 but fine for model 1.
        let mut r0 = record(1, 0, 0, 50_000);
        r0.model = ModelId::new(0);
        let mut r1 = record(2, 0, 0, 50_000);
        r1.model = ModelId::new(1);
        let mut r2 = record(3, 0, 0, 5_000);
        r2.model = ModelId::new(0);
        let rep = SimReport {
            scheduler: "test".into(),
            records: vec![r0, r1, r2],
            unfinished: vec![UnfinishedQuery {
                id: 4,
                model: ModelId::new(1),
                batch_size: 5,
                arrival_us: 0, // stale at the 1 s horizon for both targets
            }],
            offered: 4,
            horizon_us: 1_000_000,
            qos_us: 10_000,
            qos_by_model: vec![10_000, 100_000],
            billed_dollars: 0.0,
            billed_by_model: vec![0.0, 0.0],
            // Model 0 completed 2 queries at 0.9 accuracy each, model 1
            // completed one at 0.95.
            accuracy_sum_by_model: vec![1.8, 0.95],
            events_processed: 0,
            preemption_notices: 0,
            preempted_instances: 0,
            requeued_queries: 0,
            rejected_purchases: 0,
            straggler_onsets: 0,
            outages: vec![],
            service: ServiceStats::default(),
        };
        let per = rep.per_model();
        assert_eq!(per.len(), 2);
        assert_eq!(
            (per[0].offered, per[0].completed, per[0].violations),
            (2, 2, 1)
        );
        assert_eq!(
            (per[1].offered, per[1].completed, per[1].violations),
            (2, 1, 1)
        );
        assert_eq!(per[0].unfinished + per[1].unfinished, 1);
        // Sums match the aggregates exactly.
        assert_eq!(per.iter().map(|m| m.offered).sum::<usize>(), rep.offered);
        assert_eq!(
            per.iter().map(|m| m.completed).sum::<usize>(),
            rep.completed()
        );
        assert_eq!(
            per.iter().map(|m| m.violations).sum::<usize>(),
            rep.violations()
        );
        assert_eq!(per[0].p99_latency_us, 50_000);
        assert!((per[0].violation_fraction() - 0.5).abs() < 1e-12);
        // Per-model delivered accuracy is the per-model sum over completions.
        assert!((per[0].mean_accuracy - 0.9).abs() < 1e-12);
        assert!((per[1].mean_accuracy - 0.95).abs() < 1e-12);
        assert!((rep.delivered_accuracy() - (1.8 + 0.95) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn service_stats_means_handle_empty_and_populated_counters() {
        let empty = ServiceStats::default();
        assert_eq!(empty.mean_batch_fill(), 0.0);
        let stats = ServiceStats {
            calendar_scheduled: 10,
            calendar_cancelled: 4,
            calendar_stale_popped: 3,
            batches_fired: 4,
            batched_queries: 100,
            batch_wait_us_sum: 5_000,
            cold_starts: 5,
            cold_start_wait_us_sum: 2_500_000,
            parked_us_sum: 9_000_000,
        };
        assert_eq!(stats.mean_batch_fill(), 25.0);
        let doubled = stats.merged(stats);
        assert_eq!(doubled.batched_queries, 200);
        assert_eq!(doubled.mean_batch_fill(), 25.0);
        assert_eq!(doubled.cold_starts, 10);
        assert_eq!(doubled.cold_start_wait_us_sum, 5_000_000);
        assert_eq!(doubled.parked_us_sum, 18_000_000);
    }

    /// A shard-shaped report: model `m` of `n`, with its records/unfinished
    /// tagged `m`, a full-length QoS table, and its bill in slot `m`.
    fn shard(m: usize, n: usize, ids: &[u64], unfinished_ids: &[u64], billed: f64) -> SimReport {
        let records: Vec<QueryRecord> = ids
            .iter()
            .map(|&id| {
                let mut r = record(id, id * 10, id * 10, id * 10 + 5_000 * (m as u64 + 1));
                r.model = ModelId::new(m);
                r
            })
            .collect();
        let unfinished: Vec<UnfinishedQuery> = unfinished_ids
            .iter()
            .map(|&id| UnfinishedQuery {
                id,
                model: ModelId::new(m),
                batch_size: 3,
                arrival_us: id * 10,
            })
            .collect();
        let mut billed_by_model = vec![0.0; n];
        billed_by_model[m] = billed;
        let mut accuracy_sum_by_model = vec![0.0; n];
        accuracy_sum_by_model[m] = records.len() as f64 * 0.95;
        SimReport {
            scheduler: "fcfs".into(),
            offered: records.len() + unfinished.len(),
            records,
            unfinished,
            horizon_us: 1_000_000 + m as u64,
            qos_us: 10_000,
            qos_by_model: (0..n).map(|i| 10_000 + i as u64 * 1_000).collect(),
            billed_dollars: billed,
            billed_by_model,
            accuracy_sum_by_model,
            events_processed: 100 + m as u64,
            preemption_notices: m,
            preempted_instances: 0,
            requeued_queries: 2 * m,
            rejected_purchases: m,
            straggler_onsets: 3 * m,
            outages: vec![OutageRecord {
                domain: format!("us-east-1/us-east-1{}", (b'a' + m as u8) as char),
                start_us: 1_000 * (m as u64 + 1),
                end_us: 2_000 * (m as u64 + 1),
                killed_instances: m,
                lost_queries: 2 * m,
            }],
            service: ServiceStats {
                calendar_scheduled: 50 + m as u64,
                calendar_cancelled: 10 + m as u64,
                calendar_stale_popped: 8 + m as u64,
                batches_fired: 4 + m as u64,
                batched_queries: 9 + m as u64,
                batch_wait_us_sum: 1_000 + m as u64,
                cold_starts: 2 + m as u64,
                cold_start_wait_us_sum: 500_000 * (m as u64 + 1),
                parked_us_sum: 7_000 + m as u64,
            },
        }
    }

    /// Field-wise bit-equality of two reports (no `PartialEq` on
    /// `SimReport` by design; billing compares exactly).
    fn assert_reports_identical(a: &SimReport, b: &SimReport) {
        assert_eq!(a.scheduler, b.scheduler);
        assert_eq!(a.records, b.records);
        assert_eq!(a.unfinished, b.unfinished);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.horizon_us, b.horizon_us);
        assert_eq!(a.qos_us, b.qos_us);
        assert_eq!(a.qos_by_model, b.qos_by_model);
        assert_eq!(a.billed_dollars.to_bits(), b.billed_dollars.to_bits());
        assert_eq!(a.billed_by_model.len(), b.billed_by_model.len());
        for (x, y) in a.billed_by_model.iter().zip(&b.billed_by_model) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.accuracy_sum_by_model.len(), b.accuracy_sum_by_model.len());
        for (x, y) in a.accuracy_sum_by_model.iter().zip(&b.accuracy_sum_by_model) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.preemption_notices, b.preemption_notices);
        assert_eq!(a.preempted_instances, b.preempted_instances);
        assert_eq!(a.requeued_queries, b.requeued_queries);
        assert_eq!(a.rejected_purchases, b.rejected_purchases);
        assert_eq!(a.straggler_onsets, b.straggler_onsets);
        assert_eq!(a.outages, b.outages);
        assert_eq!(a.service, b.service);
    }

    #[test]
    fn merge_with_an_empty_shard_is_the_identity_up_to_canonical_order() {
        let a = shard(0, 2, &[1, 2, 3], &[9], 1.5);
        let empty = SimReport {
            scheduler: "fcfs".into(),
            records: vec![],
            unfinished: vec![],
            offered: 0,
            horizon_us: 0,
            qos_us: 0,
            qos_by_model: vec![],
            billed_dollars: 0.0,
            billed_by_model: vec![0.0, 0.0],
            accuracy_sum_by_model: vec![0.0, 0.0],
            events_processed: 0,
            preemption_notices: 0,
            preempted_instances: 0,
            requeued_queries: 0,
            rejected_purchases: 0,
            straggler_onsets: 0,
            outages: vec![],
            service: ServiceStats::default(),
        };
        let merged = a.clone().merge(empty.clone());
        // `a` is already canonically ordered (ids ascending with completion
        // times), so the merge with an empty shard reproduces it exactly.
        assert_reports_identical(&merged, &a);
        let merged_flipped = empty.merge(a.clone());
        assert_reports_identical(&merged_flipped, &a);
    }

    #[test]
    fn merge_sums_counters_and_interleaves_by_the_canonical_key() {
        let a = shard(0, 2, &[1, 4], &[7], 1.25);
        let b = shard(1, 2, &[2, 3], &[8], 2.5);
        let merged = a.clone().merge(b.clone());
        assert_eq!(merged.offered, a.offered + b.offered);
        assert_eq!(merged.completed(), 4);
        assert_eq!(merged.events_processed, 201);
        assert_eq!(merged.preemption_notices, 1);
        assert_eq!(merged.requeued_queries, 2);
        assert_eq!(merged.horizon_us, 1_000_001);
        assert_eq!(merged.rejected_purchases, 1);
        assert_eq!(merged.straggler_onsets, 3);
        // Outage records interleave by (start, domain).
        assert_eq!(
            merged
                .outages
                .iter()
                .map(|o| (o.start_us, o.domain.as_str()))
                .collect::<Vec<_>>(),
            vec![
                (1_000, "us-east-1/us-east-1a"),
                (2_000, "us-east-1/us-east-1b"),
            ]
        );
        assert_eq!(merged.qos_by_model, vec![10_000, 11_000]);
        assert_eq!(merged.billed_by_model, vec![1.25, 2.5]);
        assert_eq!(merged.billed_dollars, 0.0 + 1.25 + 2.5);
        // Service-layer counters sum field-wise.
        assert_eq!(merged.service, a.service.merged(b.service));
        assert_eq!(merged.service.calendar_scheduled, 101);
        assert_eq!(merged.service.batches_fired, 9);
        assert_eq!(merged.service.cold_starts, 5);
        assert_eq!(merged.service.cold_start_wait_us_sum, 1_500_000);
        assert_eq!(merged.service.parked_us_sum, 14_001);
        // Records sorted by (completion, arrival, id); unfinished by
        // (arrival, id).
        assert!(merged
            .records
            .windows(2)
            .all(|w| SimReport::record_key(&w[0]) <= SimReport::record_key(&w[1])));
        assert_eq!(
            merged.unfinished.iter().map(|u| u.id).collect::<Vec<_>>(),
            vec![7, 8]
        );
        // Differing scheduler names union sorted.
        let mut c = shard(0, 2, &[], &[], 0.0);
        c.scheduler = "kairos".into();
        assert_eq!(shard(1, 2, &[], &[], 0.0).merge(c).scheduler, "fcfs+kairos");
    }

    #[test]
    fn merge_is_commutative_and_associative_over_permuted_shard_orders() {
        let shards = [
            shard(0, 3, &[1, 5, 9], &[20], 0.75),
            shard(1, 3, &[2, 6], &[21, 22], 1.5),
            shard(2, 3, &[3, 7, 8], &[], 3.25),
        ];
        let fold = |order: &[usize]| -> SimReport {
            order
                .iter()
                .map(|&i| shards[i].clone())
                .reduce(SimReport::merge)
                .unwrap()
        };
        let reference = fold(&[0, 1, 2]);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert_reports_identical(&fold(&order), &reference);
        }
        // Associativity: (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c).
        let left = shards[0]
            .clone()
            .merge(shards[1].clone())
            .merge(shards[2].clone());
        let right = shards[0]
            .clone()
            .merge(shards[1].clone().merge(shards[2].clone()));
        assert_reports_identical(&left, &right);
    }

    #[test]
    fn merge_many_is_bit_identical_to_the_pairwise_fold() {
        let shards = [
            shard(0, 3, &[1, 5, 9], &[20], 0.75),
            shard(1, 3, &[2, 6], &[21, 22], 1.5),
            shard(2, 3, &[3, 7, 8], &[], 3.25),
        ];
        let fold = shards
            .iter()
            .cloned()
            .reduce(SimReport::merge)
            .expect("non-empty");
        let kway = SimReport::merge_many(shards.iter().cloned()).expect("non-empty");
        assert_reports_identical(&kway, &fold);

        // Differing scheduler names union exactly as the fold unions them.
        let mut renamed = shards.to_vec();
        renamed[1].scheduler = "kairos".into();
        renamed[2].scheduler = "drs+kairos".into();
        let fold = renamed
            .iter()
            .cloned()
            .reduce(SimReport::merge)
            .expect("non-empty");
        let kway = SimReport::merge_many(renamed.iter().cloned()).expect("non-empty");
        assert_eq!(kway.scheduler, "drs+fcfs+kairos");
        assert_reports_identical(&kway, &fold);

        // An unsorted input is sorted first, as the fold sorts it, so the
        // equivalence holds unconditionally.
        let mut scrambled = shards.to_vec();
        scrambled[0].records.swap(0, 2);
        let fold = scrambled
            .iter()
            .cloned()
            .reduce(SimReport::merge)
            .expect("non-empty");
        let kway = SimReport::merge_many(scrambled.iter().cloned()).expect("non-empty");
        assert_reports_identical(&kway, &fold);

        // A disorder deep in a record run, and one in an unfinished list.
        let mut late = shards.to_vec();
        late[2].records.swap(1, 2);
        late[1].unfinished.swap(0, 1);
        let fold = late
            .iter()
            .cloned()
            .reduce(SimReport::merge)
            .expect("non-empty");
        let kway = SimReport::merge_many(late.iter().cloned()).expect("non-empty");
        assert_reports_identical(&kway, &fold);

        // Degenerate arities.
        assert!(SimReport::merge_many(std::iter::empty()).is_none());
        let single = SimReport::merge_many([shards[1].clone()]).expect("one shard");
        assert_reports_identical(&single, &shards[1]);
    }
}
