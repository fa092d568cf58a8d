//! Bucketed event calendar for the simulation engine's *timed* events
//! (completions and instance-ready notifications).
//!
//! The engine's original event store was one `BinaryHeap` holding every
//! future event including all trace arrivals, so each push/pop paid
//! `O(log n)` comparisons against a heap tens of thousands of entries deep.
//! Two observations make that heap unnecessary:
//!
//! 1. **Arrivals are known upfront and sorted** — the engine walks them with
//!    a cursor and never materializes them as events (see `SimEngine`).
//! 2. **Timed events are few**: at most one completion per busy instance
//!    plus one `Ready` per in-flight provisioning action, so the pending set
//!    is bounded by the cluster size, not the trace length.
//!
//! What remains is a classic [calendar queue] specialized for that sparse
//! regime: a power-of-two ring of buckets, each `bucket_width` microseconds
//! wide.  An event lands in bucket `(time >> shift) & mask`; events whose
//! virtual bucket lies beyond the current ring "lap" simply wait in their
//! physical bucket and are skipped until the cursor's lap reaches them.
//! `pop` scans forward from the cursor; because every bucket holds the
//! events of exactly one virtual bucket *within the active window*, the
//! first hit is the global minimum.  A full fruitless lap (possible when the
//! only pending events are far in the future, e.g. a provisioning `Ready`)
//! triggers a direct jump to the earliest pending event, bounding the scan.
//!
//! The bucket width is tuned by the engine to the trace's mean inter-arrival
//! gap, so cursor advancement amortizes to O(1) per processed event.
//!
//! [calendar queue]: https://dl.acm.org/doi/10.1145/63039.63045

use kairos_workload::TimeUs;

/// What a [`TimedEvent`] does when it fires.  Market events (price steps,
/// preemption notices) ride the same calendar as completions so the hot loop
/// needs no extra event source; `Kill` is the per-instance forced-termination
/// deadline scheduled when a preemption notice lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimedKind {
    /// A provisioned instance (`instance_index`) comes online.
    Ready,
    /// A materialized market event; `instance_index` is the index into the
    /// engine's market-event table, not an instance.
    Market,
    /// The preemption deadline of `instance_index`: whatever it still holds
    /// is requeued and the instance is killed.
    Kill,
    /// A materialized correlated-fault occurrence (zone outage boundary,
    /// capacity-shortage boundary, straggler onset); `instance_index` is the
    /// index into the engine's fault-occurrence table, not an instance.
    Fault,
    /// The frontmost invocation of `instance_index` finishes service.
    /// Re-schedulable: the engine re-derives it whenever the instance's
    /// sharer count or rate changes (and a kill cancels it), so a popped
    /// event is only live when its generation stamp matches the instance's
    /// current one (lazy deletion).
    FlexCompletion,
    /// The dynamic batcher's forming-window timeout on `instance_index`.
    /// Generation-stamped like [`Self::FlexCompletion`]: firing the batch
    /// early (on reaching the size cap) invalidates the pending timeout.
    BatchTimeout,
    /// The serverless keep-alive deadline of an idle `instance_index`: on
    /// firing, the instance parks (stops billing) until the next dispatch
    /// wakes it with a cold start.  Generation-stamped like
    /// [`Self::FlexCompletion`]: a dispatch landing before the deadline
    /// invalidates the pending timer.
    KeepAliveExpiry,
}

/// A timed (non-arrival) engine event: a completion, a `Ready` boundary, a
/// market event, or a preemption kill deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimedEvent {
    /// Virtual time at which the event fires.
    pub time: TimeUs,
    /// Global tie-break sequence number (same numbering as arrival order).
    pub seq: u64,
    /// Index of the instance the event concerns (for [`TimedKind::Market`],
    /// the index of the market event instead).
    pub instance_index: usize,
    /// What the event does.
    pub kind: TimedKind,
    /// Lazy-deletion generation stamp for re-schedulable events
    /// ([`TimedKind::FlexCompletion`], [`TimedKind::BatchTimeout`]); `0` for
    /// the fixed-time kinds.  A popped event whose stamp trails the
    /// instance's current generation is stale and must be skipped.
    pub gen: u64,
}

impl TimedEvent {
    #[inline]
    fn key(&self) -> (TimeUs, u64) {
        (self.time, self.seq)
    }
}

/// Bucketed calendar queue ordered by `(time, seq)`.
#[derive(Debug)]
pub(crate) struct EventCalendar {
    buckets: Vec<Vec<TimedEvent>>,
    /// `log2(bucket width in µs)`.
    shift: u32,
    /// `buckets.len() - 1` (bucket count is a power of two).
    mask: u64,
    /// Virtual bucket the minimum search resumes from.  Invariant: no stored
    /// event has `time >> shift < cursor`.
    cursor: u64,
    len: usize,
    /// Cached location of the current minimum `(bucket, slot)`, invalidated
    /// by `push`/`pop`, so `peek` + `pop` pairs search once.
    cached_min: Option<(usize, usize)>,
    /// Total events ever pushed.
    scheduled: u64,
    /// Events invalidated in place (generation bump / preemption kill)
    /// without being removed — the lazy-deletion tombstone count.
    cancelled: u64,
    /// Stale (previously cancelled) events skipped at pop time.  At most
    /// `cancelled`: every skip consumes exactly one earlier cancellation, so
    /// `stale_popped <= cancelled` proves the ring is not silting up with
    /// unaccounted tombstones.
    stale_popped: u64,
}

/// Number of ring buckets (power of two).
const NUM_BUCKETS: usize = 1024;

impl EventCalendar {
    /// Creates a calendar whose bucket width is the smallest power of two at
    /// least `granularity_us` microseconds, clamped to `[1, 16_384]` µs.
    /// Callers pass the mean inter-arrival gap of the driving trace.
    ///
    /// The width follows the gap because both costs of a pop scale with it:
    /// the cursor steps over about `gap / width` empty buckets per event,
    /// and `locate_min` scans every event in the cursor's bucket — about
    /// `width / gap` live ones, since completions land at the arrival rate.
    /// A width near the gap keeps both near one, so the width has no floor
    /// above 1 µs: a floor above a dense lane's gap leaves many pending
    /// completions in each bucket for every pop after a push to rescan.
    /// Down to 1 µs nothing else grows: events more than a lap
    /// (`1024 × width`) ahead wait in their physical bucket and are
    /// skipped, and a fruitless lap jumps the cursor straight to the
    /// earliest event.  Pop order is the total `(time, seq)` order at every
    /// width.
    pub fn with_granularity(granularity_us: TimeUs) -> Self {
        let clamped = granularity_us.clamp(1, 16_384);
        let shift = 64 - (clamped - 1).leading_zeros();
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            shift,
            mask: (NUM_BUCKETS - 1) as u64,
            cursor: 0,
            len: 0,
            cached_min: None,
            scheduled: 0,
            cancelled: 0,
            stale_popped: 0,
        }
    }

    /// Records that a pending event was invalidated in place (its generation
    /// stamp no longer matches): it stays in its bucket as a tombstone until
    /// popped and skipped.
    #[inline]
    pub fn note_cancelled(&mut self) {
        self.cancelled += 1;
    }

    /// Records that a stale (cancelled) event was popped and skipped.
    #[inline]
    pub fn note_stale_pop(&mut self) {
        self.stale_popped += 1;
        debug_assert!(
            self.stale_popped <= self.cancelled,
            "skipped an event that was never cancelled"
        );
    }

    /// Total events ever scheduled.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Events invalidated by lazy deletion (tombstones created).
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Stale events skipped at pop time (tombstones reclaimed).
    pub fn stale_popped(&self) -> u64 {
        self.stale_popped
    }

    /// Inserts an event.
    pub fn push(&mut self, event: TimedEvent) {
        let vbucket = event.time >> self.shift;
        // Defensive: keep the cursor invariant even if a caller schedules an
        // event before the current search position (the engine never does —
        // event times are at or after the clock, which trails the cursor).
        if vbucket < self.cursor {
            self.cursor = vbucket;
        }
        self.buckets[(vbucket & self.mask) as usize].push(event);
        self.len += 1;
        self.scheduled += 1;
        self.cached_min = None;
    }

    /// The `(time, seq)` key of the earliest pending event, if any.
    pub fn peek(&mut self) -> Option<(TimeUs, u64)> {
        if self.len == 0 {
            return None;
        }
        if self.cached_min.is_none() {
            self.cached_min = Some(self.locate_min());
        }
        let (bucket, slot) = self.cached_min.expect("cached by the line above");
        Some(self.buckets[bucket][slot].key())
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<TimedEvent> {
        self.peek()?;
        let (bucket, slot) = self.cached_min.take().expect("peek caches the min");
        let event = self.buckets[bucket].swap_remove(slot);
        self.len -= 1;
        Some(event)
    }

    /// Finds the `(bucket, slot)` of the minimum event.  Caller guarantees
    /// `len > 0`.
    fn locate_min(&mut self) -> (usize, usize) {
        let mut fruitless = 0usize;
        loop {
            let bucket = (self.cursor & self.mask) as usize;
            let mut best: Option<(usize, (TimeUs, u64))> = None;
            for (slot, event) in self.buckets[bucket].iter().enumerate() {
                if event.time >> self.shift == self.cursor
                    && best.is_none_or(|(_, key)| event.key() < key)
                {
                    best = Some((slot, event.key()));
                }
            }
            if let Some((slot, _)) = best {
                return (bucket, slot);
            }
            self.cursor += 1;
            fruitless += 1;
            if fruitless >= self.buckets.len() {
                // Every pending event lies beyond a whole ring lap: jump the
                // cursor straight to the earliest one instead of spinning.
                self.cursor = self.min_vbucket();
                fruitless = 0;
            }
        }
    }

    /// Earliest virtual bucket among all pending events (O(len + buckets)).
    fn min_vbucket(&self) -> u64 {
        self.buckets
            .iter()
            .flatten()
            .map(|event| event.time >> self.shift)
            .min()
            .expect("min_vbucket called on an empty calendar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(time: TimeUs, seq: u64) -> TimedEvent {
        TimedEvent {
            time,
            seq,
            instance_index: 0,
            kind: TimedKind::FlexCompletion,
            gen: 0,
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut cal = EventCalendar::with_granularity(100);
        for (t, s) in [(500u64, 3u64), (100, 1), (500, 2), (90, 7), (100_000, 0)] {
            cal.push(event(t, s));
        }
        let mut order = Vec::new();
        while let Some(e) = cal.pop() {
            order.push((e.time, e.seq));
        }
        assert_eq!(
            order,
            vec![(90, 7), (100, 1), (500, 2), (500, 3), (100_000, 0)]
        );
        assert_eq!(cal.len, 0);
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn handles_events_many_laps_ahead() {
        let mut cal = EventCalendar::with_granularity(64);
        // With 64 µs buckets and 1024 buckets, one lap covers ~65 ms; these
        // events are hundreds of laps apart.
        cal.push(event(30_000_000, 1));
        cal.push(event(5, 2));
        cal.push(event(900_000_000, 0));
        assert_eq!(cal.pop().unwrap().time, 5);
        assert_eq!(cal.pop().unwrap().time, 30_000_000);
        assert_eq!(cal.pop().unwrap().time, 900_000_000);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut cal = EventCalendar::with_granularity(1000);
        cal.push(event(10, 0));
        cal.push(event(20, 1));
        assert_eq!(cal.pop().unwrap().time, 10);
        // Push an event after the first pop, earlier than the remaining one.
        cal.push(event(15, 2));
        assert_eq!(cal.peek(), Some((15, 2)));
        assert_eq!(cal.pop().unwrap().time, 15);
        assert_eq!(cal.pop().unwrap().time, 20);
    }

    #[test]
    fn lazy_deletion_counters_track_schedules_cancels_and_skips() {
        let mut cal = EventCalendar::with_granularity(100);
        assert_eq!(
            (cal.scheduled(), cal.cancelled(), cal.stale_popped()),
            (0, 0, 0)
        );
        cal.push(event(10, 0));
        cal.push(event(20, 1));
        assert_eq!(cal.scheduled(), 2);
        // The caller invalidates the first event (generation bump) and later
        // skips it at pop time; the calendar only keeps the books.
        cal.note_cancelled();
        assert_eq!(cal.cancelled(), 1);
        let stale = cal.pop().unwrap();
        assert_eq!(stale.time, 10);
        cal.note_stale_pop();
        assert_eq!(cal.stale_popped(), 1);
        assert!(cal.stale_popped() <= cal.cancelled());
        assert_eq!(cal.pop().unwrap().time, 20);
    }

    #[test]
    fn fine_buckets_pop_dense_ties_and_far_laps_in_time_then_seq_order() {
        // 2 µs buckets: one lap covers ~2 ms.  Dense same-bucket ties (times
        // 4 and 5 share bucket 2) pushed in scrambled seq order, plus events
        // one, several and thousands of laps ahead that share physical
        // buckets with the near ones.
        let mut cal = EventCalendar::with_granularity(2);
        assert_eq!(cal.shift, 1);
        let lap = 2 * NUM_BUCKETS as u64;
        let mut pushed = Vec::new();
        for (i, &t) in [5u64, 4, 5, 4, 4, 5].iter().enumerate() {
            pushed.push((t, 10 - i as u64));
        }
        for k in [1u64, 3, 5_000] {
            pushed.push((4 + k * lap, 7));
            pushed.push((5 + k * lap, 2));
            pushed.push((4 + k * lap, 1));
        }
        pushed.push((0, 99));
        pushed.push((lap - 1, 0));
        for &(t, s) in &pushed {
            cal.push(event(t, s));
        }
        let mut expected = pushed.clone();
        expected.sort_unstable();
        let mut order = Vec::new();
        while let Some(e) = cal.pop() {
            order.push((e.time, e.seq));
            // Interleave a push behind the cursor's lap: same bucket as the
            // event just popped, one lap on.
            if order.len() == 3 {
                cal.push(event(e.time + lap, 50));
                expected.push((e.time + lap, 50));
                expected.sort_unstable();
            }
        }
        assert_eq!(order, expected);
    }

    #[test]
    fn granularity_is_clamped() {
        // Degenerate granularities must still produce a working calendar.
        let mut tiny = EventCalendar::with_granularity(0);
        tiny.push(event(1, 0));
        assert_eq!(tiny.pop().unwrap().time, 1);
        let mut huge = EventCalendar::with_granularity(u64::MAX / 2);
        huge.push(event(123, 0));
        assert_eq!(huge.pop().unwrap().time, 123);
    }
}
