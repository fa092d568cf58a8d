//! Instrumentation the benchmark wraps around the program's public entry
//! points: spans, bounded histograms, and a timing [`Scheduler`] wrapper.
//!
//! Nothing here reaches inside the program.  A span brackets one call into a
//! layer, and [`TimedScheduler`] times each scheduling round by sitting
//! between the engine and the real policy.

use kairos_models::ModelKind;
use kairos_sim::{Dispatch, Scheduler, SchedulingContext};
use kairos_workload::ModelId;
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Sub-buckets per power of two: every recorded value lands in a bucket at
/// most 1/16 (6.25 %) of its own size wide.
const SUB: usize = 16;

/// A log-linear histogram of non-negative integers.  Memory grows with the
/// logarithm of the largest value, never with the sample count, so a run of
/// millions of scheduling rounds stays a few hundred counters.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        let index = bucket_of(value);
        if index >= self.counts.len() {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`), reported as the middle
    /// of the bucket that holds it; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let (low, width) = bucket_range(index);
                return low as f64 + (width - 1) as f64 / 2.0;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// Bucket of a value: exact below `SUB`, then `SUB` equal sub-buckets per
/// power of two.
fn bucket_of(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let exponent = 63 - value.leading_zeros() as usize;
    let shift = exponent - SUB.trailing_zeros() as usize;
    (shift + 1) * SUB + ((value >> shift) as usize & (SUB - 1))
}

/// `(lowest value, width)` of a bucket.
fn bucket_range(index: usize) -> (u64, u64) {
    if index < SUB {
        return (index as u64, 1);
    }
    let shift = index / SUB - 1;
    (((SUB + index % SUB) as u64) << shift, 1 << shift)
}

/// What [`TimedScheduler`] learns about the scheduling rounds it sees.
#[derive(Debug, Clone, Default)]
pub struct RoundStats {
    /// Nanoseconds spent inside the wrapped policy.
    pub busy_ns: u64,
    /// Duration of each round, in nanoseconds.
    pub round_ns: Histogram,
    /// Central-queue length at each round.
    pub queue: Histogram,
    /// Instances visible at each round.
    pub instances: Histogram,
    /// Dispatch decisions made over all rounds.
    pub dispatched: u64,
}

/// Shared handle to the statistics of one or more [`TimedScheduler`]s.
/// Capacity probes build a fresh scheduler per probe, so the statistics
/// outlive any one wrapper.
pub type SharedRounds = Rc<RefCell<RoundStats>>;

/// A [`Scheduler`] that forwards every call to `inner` and times each
/// scheduling round.
pub struct TimedScheduler<S: ?Sized> {
    stats: SharedRounds,
    inner: Box<S>,
}

impl<S: Scheduler + ?Sized> TimedScheduler<S> {
    /// Wraps `inner`, accumulating into `stats`.
    pub fn new(inner: Box<S>, stats: SharedRounds) -> Self {
        Self { stats, inner }
    }
}

impl<S: Scheduler + ?Sized> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> Vec<Dispatch> {
        let mut out = Vec::new();
        self.schedule_into(ctx, &mut out);
        out
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        let before = out.len();
        let started = Instant::now();
        self.inner.schedule_into(ctx, out);
        let ns = started.elapsed().as_nanos() as u64;
        let mut stats = self.stats.borrow_mut();
        stats.busy_ns += ns;
        stats.round_ns.record(ns);
        stats.queue.record(ctx.queued.len() as u64);
        stats.instances.record(ctx.instances.len() as u64);
        stats.dispatched += (out.len() - before) as u64;
    }

    fn bind_types(&mut self, type_names: &[Arc<str>]) {
        self.inner.bind_types(type_names);
    }

    fn bind_models(&mut self, models: &[ModelKind]) {
        self.inner.bind_models(models);
    }

    fn on_completion(
        &mut self,
        type_index: usize,
        model: ModelId,
        batch_size: u32,
        service_ms: f64,
    ) {
        self.inner
            .on_completion(type_index, model, batch_size, service_ms);
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans kept in memory and written out once, when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Opens a span; returns its id for [`Self::close`] and for children.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let result = f();
        (result, self.close(id))
    }

    /// Writes the spans as JSON lines (`id`, `name`, `start_ns`, `end_ns`,
    /// `parent`), creating the parent directory if needed.  Span names are
    /// benchmark-chosen identifiers and need no escaping.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                span.name, span.start_ns, span.end_ns, parent
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_integers_in_order() {
        let mut next = 0;
        for index in 0..400 {
            let (low, width) = bucket_range(index);
            assert_eq!(low, next, "bucket {index} starts where {} ended", index - 1);
            assert_eq!(bucket_of(low), index);
            assert_eq!(bucket_of(low + width - 1), index);
            assert!(
                width == 1 || width * 16 <= low,
                "bucket {index} is wider than 1/16"
            );
            next = low + width;
        }
    }

    #[test]
    fn quantiles_land_within_a_bucket_of_the_exact_rank() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        for (q, exact) in [(0.5, 5_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= exact / 16.0,
                "q{q}: {got} vs {exact}"
            );
        }
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }
}
