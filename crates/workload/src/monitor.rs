//! Online query monitoring.
//!
//! Kairos's upper-bound estimator needs the batch-size distribution of the
//! incoming query stream — specifically the fraction `f` of queries at or
//! below a cutoff `s` (paper Sec. 5.2, "Remarks on assumptions and overhead":
//! "This is done via query monitoring to keep track of a number of most
//! recent queries (e.g., 10000 queries), and does not require extra
//! profiling").  [`QueryMonitor`] is exactly that sliding window.
//!
//! Multi-model serving additionally needs the *observed per-model mix* of
//! the stream (which share of recent queries targeted which model) to split
//! a shared budget across models.  The window therefore stores
//! `(model, batch size)` pairs, capped by the same ring-buffer eviction as
//! before, and maintains per-model counts incrementally so
//! [`QueryMonitor::mix`] is O(models), not O(window) — callers no longer
//! re-derive the mix by re-sampling the stream.

use crate::query::ModelId;
use std::collections::VecDeque;

/// Default window length used by the paper (10 000 most recent queries).
pub const DEFAULT_WINDOW: usize = 10_000;

/// Sliding window over the `(model, batch size)` of the most recent queries.
///
/// Beyond the window itself the monitor keeps **index-mapped sparse**
/// per-model structures, sized for mixes with thousands of mostly-idle
/// lanes: each model's batch sizes live in their own ring (so
/// [`QueryMonitor::snapshot_for`] copies one lane instead of filtering the
/// whole window), and the set of models with at least one entry is a sorted
/// sparse index (so [`QueryMonitor::mix`] walks the active lanes, not every
/// allocated slot).
#[derive(Debug, Clone)]
pub struct QueryMonitor {
    capacity: usize,
    window: VecDeque<(ModelId, u32)>,
    /// Incrementally maintained count of window entries per model index.
    model_counts: Vec<usize>,
    /// Per-model batch sizes, oldest first.  Eviction order within one model
    /// follows window order, so popping this ring's front on a window
    /// eviction keeps the two views consistent.
    per_model: Vec<VecDeque<u32>>,
    /// Sorted indices of models with a nonzero window count — the sparse
    /// active set behind [`Self::mix`].
    active: Vec<usize>,
}

impl QueryMonitor {
    /// Creates a monitor with the paper's default window of 10 000 queries.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_WINDOW)
    }

    /// Creates a monitor with a custom window length.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            capacity,
            window: VecDeque::with_capacity(capacity.min(16_384)),
            model_counts: Vec::new(),
            per_model: Vec::new(),
            active: Vec::new(),
        }
    }

    /// Records the batch size of a newly arrived single-model query
    /// (model [`ModelId::DEFAULT`]), evicting the oldest entry once the
    /// window is full.
    pub fn observe(&mut self, batch_size: u32) {
        self.observe_tagged(ModelId::DEFAULT, batch_size);
    }

    /// Records a newly arrived query for a specific model, evicting the
    /// oldest entry once the window is full.
    pub fn observe_tagged(&mut self, model: ModelId, batch_size: u32) {
        if self.window.len() == self.capacity {
            if let Some((evicted, _)) = self.window.pop_front() {
                let e = evicted.index();
                self.model_counts[e] -= 1;
                self.per_model[e].pop_front();
                if self.model_counts[e] == 0 {
                    if let Ok(pos) = self.active.binary_search(&e) {
                        self.active.remove(pos);
                    }
                }
            }
        }
        let m = model.index();
        if self.model_counts.len() <= m {
            self.model_counts.resize(m + 1, 0);
            self.per_model.resize_with(m + 1, VecDeque::new);
        }
        if self.model_counts[m] == 0 {
            if let Err(pos) = self.active.binary_search(&m) {
                self.active.insert(pos, m);
            }
        }
        self.model_counts[m] += 1;
        self.per_model[m].push_back(batch_size);
        self.window.push_back((model, batch_size));
    }

    /// Number of queries currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no queries have been observed yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The observed per-model mix of the window: every model with at least
    /// one recent query, with its fraction of the window, in model-index
    /// order.  Empty when nothing has been observed.  O(active models) — the
    /// sparse active set is maintained at observe/evict time, so a window
    /// whose mix touches a handful of a few thousand allocated lanes never
    /// scans the idle ones.
    pub fn mix(&self) -> Vec<(ModelId, f64)> {
        let total = self.window.len();
        if total == 0 {
            return Vec::new();
        }
        self.active
            .iter()
            .map(|&index| {
                (
                    ModelId::new(index),
                    self.model_counts[index] as f64 / total as f64,
                )
            })
            .collect()
    }

    /// Sorted indices of models with at least one query in the window — the
    /// sparse iteration order for callers that fan out per-model work.
    pub fn active_models(&self) -> &[usize] {
        &self.active
    }

    /// Fraction `f` of observed queries with batch size at most `threshold`
    /// (returns 0 when the window is empty).
    pub fn fraction_at_most(&self, threshold: u32) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        self.window.iter().filter(|&&(_, b)| b <= threshold).count() as f64
            / self.window.len() as f64
    }

    /// Mean batch size over the whole window (None when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        Some(self.window.iter().map(|&(_, b)| b as f64).sum::<f64>() / self.window.len() as f64)
    }

    /// Largest batch size observed in the window.
    pub fn max_batch(&self) -> Option<u32> {
        self.window.iter().map(|&(_, b)| b).max()
    }

    /// Iterates over the batch sizes in the window (oldest first) without
    /// copying them out — used by cheap fingerprints of the window contents.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.window.iter().map(|&(_, b)| b)
    }

    /// A copy of the batch sizes currently in the window (oldest first).
    /// This is the sample handed to the throughput upper-bound estimator.
    pub fn snapshot(&self) -> Vec<u32> {
        self.window.iter().map(|&(_, b)| b).collect()
    }

    /// The batch sizes of one model's queries in the window (oldest first) —
    /// the per-model sample a per-model planner hands to its estimator.
    /// O(entries for that model): the per-model rings are maintained at
    /// observe/evict time, so this never filters the full window.
    pub fn snapshot_for(&self, model: ModelId) -> Vec<u32> {
        self.per_model
            .get(model.index())
            .map(|ring| ring.iter().copied().collect())
            .unwrap_or_default()
    }
}

impl Default for QueryMonitor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_evicts_oldest() {
        let mut m = QueryMonitor::with_capacity(3);
        for b in [1, 2, 3, 4] {
            m.observe(b);
        }
        assert_eq!(m.len(), 3);
        // 1 was evicted, so the fraction at most 1 is now zero.
        assert_eq!(m.fraction_at_most(1), 0.0);
        assert_eq!(m.fraction_at_most(4), 1.0);
    }

    #[test]
    fn fraction_and_means() {
        let mut m = QueryMonitor::with_capacity(100);
        for b in [10, 20, 30, 400, 600] {
            m.observe(b);
        }
        assert!((m.fraction_at_most(30) - 0.6).abs() < 1e-12);
        assert_eq!(m.max_batch(), Some(600));
        assert_eq!(m.mean(), Some((10.0 + 20.0 + 30.0 + 400.0 + 600.0) / 5.0));
    }

    #[test]
    fn empty_window_defaults() {
        let m = QueryMonitor::new();
        assert!(m.is_empty());
        assert_eq!(m.fraction_at_most(100), 0.0);
        assert_eq!(m.max_batch(), None);
        assert!(m.mix().is_empty());
    }

    #[test]
    fn mix_tracks_per_model_shares_across_eviction() {
        let mut m = QueryMonitor::with_capacity(4);
        m.observe_tagged(ModelId::new(0), 10);
        m.observe_tagged(ModelId::new(1), 20);
        m.observe_tagged(ModelId::new(1), 30);
        m.observe_tagged(ModelId::new(2), 40);
        assert_eq!(
            m.mix(),
            vec![
                (ModelId::new(0), 0.25),
                (ModelId::new(1), 0.5),
                (ModelId::new(2), 0.25),
            ]
        );
        // Evicting the only model-0 entry drops it from the mix entirely.
        m.observe_tagged(ModelId::new(2), 50);
        assert!(m.snapshot_for(ModelId::new(0)).is_empty());
        assert_eq!(
            m.mix(),
            vec![(ModelId::new(1), 0.5), (ModelId::new(2), 0.5)]
        );
        assert_eq!(m.snapshot_for(ModelId::new(1)), vec![20, 30]);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn untagged_observations_count_towards_the_default_model() {
        let mut m = QueryMonitor::new();
        m.observe(5);
        m.observe(6);
        assert_eq!(m.mix(), vec![(ModelId::DEFAULT, 1.0)]);
        assert_eq!(m.snapshot(), vec![5, 6]);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![5, 6]);
    }

    #[test]
    fn sparse_lanes_track_the_window_across_eviction() {
        // A thousand-lane id space with three live lanes: the active set
        // stays sparse and the per-model rings match a full-window filter.
        let mut m = QueryMonitor::with_capacity(6);
        for (lane, batch) in [(999, 1u32), (7, 2), (999, 3), (400, 4), (7, 5), (999, 6)] {
            m.observe_tagged(ModelId::new(lane), batch);
        }
        assert_eq!(m.active_models(), &[7, 400, 999]);
        assert_eq!(m.snapshot_for(ModelId::new(999)), vec![1, 3, 6]);
        assert_eq!(m.snapshot_for(ModelId::new(7)), vec![2, 5]);
        assert_eq!(m.snapshot_for(ModelId::new(123)), Vec::<u32>::new());
        // The window is full: the next observation evicts (999, 1).
        m.observe_tagged(ModelId::new(400), 7);
        assert_eq!(m.snapshot_for(ModelId::new(999)), vec![3, 6]);
        assert_eq!(m.snapshot_for(ModelId::new(400)), vec![4, 7]);
        // Drain lane 7 entirely: it leaves the active set.
        m.observe_tagged(ModelId::new(400), 8); // evicts (7, 2)
        m.observe_tagged(ModelId::new(400), 9); // evicts (999, 3)
        m.observe_tagged(ModelId::new(400), 10); // evicts (400, 4)
        m.observe_tagged(ModelId::new(400), 11); // evicts (7, 5)
        assert_eq!(m.active_models(), &[400, 999]);
        // Every sparse view still agrees with the ground-truth window, the
        // last six observations.
        let window = [
            (999, 6u32),
            (400, 7),
            (400, 8),
            (400, 9),
            (400, 10),
            (400, 11),
        ];
        for lane in [7usize, 400, 999] {
            let expected: Vec<u32> = window
                .iter()
                .filter(|&&(model, _)| model == lane)
                .map(|&(_, b)| b)
                .collect();
            assert_eq!(m.snapshot_for(ModelId::new(lane)), expected, "lane {lane}");
        }
    }

    #[test]
    fn default_capacity_matches_paper() {
        assert_eq!(DEFAULT_WINDOW, 10_000);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        QueryMonitor::with_capacity(0);
    }
}
