//! The engine's one service path: serial service, fair throughput sharing
//! and dynamic batching as settings of the same per-instance state.
//!
//! The paper's serving model (Sec. 6) dedicates an instance to one query at
//! a time, served from its own queue.  That is the default setting of this
//! path — concurrency cap 1, no batcher, per-sharer rate 1 — and two
//! independent, composable options relax it:
//!
//! * **Fair throughput sharing** ([`SharingOptions`]) — several in-flight
//!   invocations share one instance, each progressing at the per-sharer
//!   rate of a [`ThroughputDegradation`] curve.  Work is tracked in
//!   normalized *processed-volume* units: the instance's volume `V(t)`
//!   advances at `per_sharer_rate(n)` while `n` invocations are active, an
//!   invocation admitted at volume `V0` with `w` microseconds of
//!   single-query work finishes when `V(t)` reaches `V0 + w`, and
//!   completion order is finish-volume order.  An arrival or completion
//!   changes `n`, so only the *frontmost* finish needs re-deriving — an
//!   O(affected-instance) incremental recompute, never a rescan (the
//!   superseded calendar entry dies lazily via its generation stamp).
//! * **Dynamic batching** ([`BatchingOptions`]) — dispatched queries gather
//!   in a per-instance forming buffer and fire as one fused invocation when
//!   the fused batch size reaches the cap or a timeout expires, whichever
//!   is first.  The fused invocation's service time comes from the latency
//!   profile's batch axis, amortizing the per-invocation intercept across
//!   the members.
//!
//! Every curve has `per_sharer_rate(1) == 1.0`, so sharing capped at one
//! invocation is serial service bit for bit (property-tested in
//! `tests/proptest_flex.rs`).

use kairos_models::ThroughputDegradation;
use kairos_workload::{Query, TimeUs};
use std::collections::VecDeque;

/// Per-instance-type throughput-sharing configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingOptions {
    /// Degradation curve per pool type, indexed by the engine's type index.
    /// A single-entry vector applies that curve to every type.
    curves: Vec<ThroughputDegradation>,
    /// Maximum invocations admitted concurrently per instance; further work
    /// waits in the instance's admission queue.  `0` means unbounded.
    max_concurrency: u32,
}

impl SharingOptions {
    /// One curve for every instance type, unbounded concurrency.
    pub fn uniform(curve: ThroughputDegradation) -> Self {
        Self {
            curves: vec![curve],
            max_concurrency: 0,
        }
    }

    /// Per-type curves (index = the engine's pool-type index).
    ///
    /// # Panics
    /// Panics if `curves` is empty.
    pub fn per_type(curves: Vec<ThroughputDegradation>) -> Self {
        assert!(
            !curves.is_empty(),
            "at least one degradation curve required"
        );
        Self {
            curves,
            max_concurrency: 0,
        }
    }

    /// Caps concurrent invocations per instance (`0` = unbounded).
    pub fn with_max_concurrency(mut self, max_concurrency: u32) -> Self {
        self.max_concurrency = max_concurrency;
        self
    }

    /// The admission cap (`0` = unbounded).
    pub fn max_concurrency(&self) -> u32 {
        self.max_concurrency
    }

    /// Number of per-type curves carried (1 = uniform).
    pub fn num_curves(&self) -> usize {
        self.curves.len()
    }

    /// The curve governing pool type `type_index`.
    pub fn curve(&self, type_index: usize) -> &ThroughputDegradation {
        if self.curves.len() == 1 {
            &self.curves[0]
        } else {
            &self.curves[type_index]
        }
    }
}

/// Dynamic-batcher configuration: queue-and-fire on size or timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchingOptions {
    /// Fire the forming batch as soon as its fused batch size reaches this
    /// cap (a single query larger than the cap still fires, alone).
    pub max_batch_size: u32,
    /// Fire a non-empty forming batch this long after its first member
    /// arrived, even if undersized.
    pub timeout_us: TimeUs,
}

impl BatchingOptions {
    /// Builds a batcher configuration.
    ///
    /// # Panics
    /// Panics if `max_batch_size` is zero.
    pub fn new(max_batch_size: u32, timeout_us: TimeUs) -> Self {
        assert!(max_batch_size >= 1, "a batch holds at least one query");
        Self {
            max_batch_size,
            timeout_us,
        }
    }
}

/// Engine-level service configuration: either half may be enabled alone;
/// the default (neither) is the paper's serial service.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FlexConfig {
    pub sharing: Option<SharingOptions>,
    pub batching: Option<BatchingOptions>,
}

impl FlexConfig {
    /// Concurrent-invocation cap per instance: without sharing an instance
    /// serves strictly one (possibly fused) invocation at a time; sharing
    /// uses its own cap (`0` unbounded).
    pub fn concurrency_cap(&self) -> u32 {
        match &self.sharing {
            Some(s) => s.max_concurrency(),
            None => 1,
        }
    }

    /// Per-invocation progress rate with `n` invocations active on a
    /// `type_index` instance.
    pub fn rate(&self, type_index: usize, n: u32) -> f64 {
        match &self.sharing {
            Some(s) => s.curve(type_index).per_sharer_rate(n),
            None => 1.0,
        }
    }

    /// Whether an instance can absorb more than one dispatch per scheduling
    /// round (a batcher is attached or the cap is not 1).  Only then does
    /// the engine repeat a round that made progress: policies like FCFS
    /// hand out at most one query per idle instance per round.
    pub fn repeats_rounds(&self) -> bool {
        self.batching.is_some() || self.concurrency_cap() != 1
    }

    /// Whether an instance in state `st` has a free admission slot.
    pub fn has_slot(&self, st: &FlexState) -> bool {
        let cap = self.concurrency_cap();
        cap == 0 || (st.active.len() as u32) < cap
    }

    /// Whether an instance in state `st` can take another dispatch: forming
    /// below the size cap with an empty admission queue when batching, an
    /// open admission slot (and empty queue) otherwise.
    pub fn open(&self, st: &FlexState) -> bool {
        if !st.queued.is_empty() {
            return false;
        }
        match self.batching {
            Some(b) => st.forming_fused < b.max_batch_size,
            None => self.has_slot(st),
        }
    }
}

/// One invocation: a fused batch of dispatched queries served together.
/// Unbatched work is a unit with an empty `rest` (no allocation).
#[derive(Debug, Clone)]
pub(crate) struct WorkUnit {
    pub lead: Query,
    pub rest: Vec<Query>,
    /// Fused batch size (sum of the members' batch sizes) — the batch axis
    /// the service time is drawn at.
    pub fused: u32,
}

impl WorkUnit {
    pub fn single(query: Query) -> Self {
        Self {
            lead: query,
            rest: Vec::new(),
            fused: query.batch_size,
        }
    }

    pub fn members(&self) -> usize {
        1 + self.rest.len()
    }
}

/// An admitted invocation progressing under the sharing discipline.
#[derive(Debug, Clone)]
pub(crate) struct ActiveUnit {
    pub unit: WorkUnit,
    /// Admission time — the `start_us` of every member's completion record.
    pub start_us: TimeUs,
    /// The instance volume at which this invocation completes.
    pub finish_volume: f64,
    /// Per-instance admission sequence number: the deterministic tiebreak
    /// for equal finish volumes.
    pub admit_seq: u64,
}

/// Per-instance state of the service path.  All fields are pure
/// functions of the instance's event history, so per-model-lane shards
/// replay the combined run's float arithmetic bit-for-bit.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlexState {
    /// The forming batch: `(query, entered_us)` in dispatch order.
    pub forming: VecDeque<(Query, TimeUs)>,
    /// Fused batch size of the forming batch.
    pub forming_fused: u32,
    /// Generation stamp of the pending `BatchTimeout` (lazy deletion).
    pub batch_gen: u64,
    /// Whether a `BatchTimeout` is live in the calendar.
    pub batch_pending: bool,
    /// Fired invocations awaiting an admission slot.
    pub queued: VecDeque<WorkUnit>,
    /// Total queries across `queued`.
    pub queued_members: usize,
    /// Sum of the (individually rounded) nominal service times of the
    /// `queued` invocations at their fused sizes — the queued part of a busy
    /// instance's `free_at_us`.
    pub queued_nominal_us: TimeUs,
    /// Admitted invocations, sorted by `(finish_volume, admit_seq)` — the
    /// deterministic completion order.
    pub active: Vec<ActiveUnit>,
    /// Total queries across `active`.
    pub active_members: usize,
    /// Normalized work processed so far (µs of single-query service).
    pub volume: f64,
    /// Clock of the last volume update.
    pub last_update_us: TimeUs,
    /// Generation stamp of the pending `FlexCompletion` (lazy deletion).
    pub completion_gen: u64,
    /// Whether a `FlexCompletion` is live in the calendar.
    pub completion_pending: bool,
    /// Virtual time of the live `FlexCompletion` (the frontmost active
    /// invocation's scheduled finish).
    pub finish_at_us: TimeUs,
    /// Invocations admitted so far (the `admit_seq` source).
    pub admit_counter: u64,
    /// Whether this instance currently sits in the engine's idle index.
    pub in_idle: bool,
}

impl FlexState {
    /// Queries on this instance in any stage (forming + queued + active).
    pub fn total_members(&self) -> usize {
        self.forming.len() + self.queued_members + self.active_members
    }

    /// No work in any stage.
    pub fn is_empty(&self) -> bool {
        self.forming.is_empty() && self.queued.is_empty() && self.active.is_empty()
    }

    /// Inserts an admitted unit keeping the `(finish_volume, admit_seq)`
    /// order.  O(active) — the "affected instance" part of the incremental
    /// recompute bound.
    pub fn insert_active(&mut self, unit: ActiveUnit) {
        let pos = self.active.partition_point(|a| {
            (a.finish_volume, a.admit_seq) <= (unit.finish_volume, unit.admit_seq)
        });
        self.active_members += unit.unit.members();
        self.active.insert(pos, unit);
    }
}
