//! Throughput upper-bound estimation (paper Sec. 5.2, Eq. 9–15).
//!
//! Evaluating the real throughput of a heterogeneous configuration is
//! expensive (it needs instance allocation and a load ramp), so Kairos ranks
//! configurations by a closed-form *upper bound* on the throughput any query
//! distribution could achieve on them.  The bound splits the query mix at a
//! batch-size cutoff `s` (the largest query the auxiliary type can serve
//! within QoS): a fraction `f` of queries is small enough for the auxiliary
//! instances, the remaining `1-f` must run on base instances at their reduced
//! rate `Q_b^{s+}`.  Whichever side saturates first is the bottleneck.
//!
//! With multiple auxiliary types, the bound optimistically assumes every
//! auxiliary type shares the largest cutoff (`f' = max f_i`), which keeps the
//! estimate an upper bound (Sec. 5.2).

use crate::selection::TOP_CANDIDATES;
use kairos_models::{
    for_each_affordable,
    latency::{LatencyProfile, LatencyTable},
    mlmodel::{spec, ModelKind, ModelSpec},
    Config, EnumerationOptions, PoolSpec,
};
use serde::{Deserialize, Serialize};

/// Inputs of the one-base-type / one-auxiliary-type bound (Eq. 12–13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SingleAuxInputs {
    /// Number of base instances (`u`).
    pub base_nodes: usize,
    /// Number of auxiliary instances (`v`).
    pub aux_nodes: usize,
    /// Standalone base throughput over the full query mix (`Q_b`), QPS.
    pub q_base: f64,
    /// Base throughput when serving only larger-than-`s` queries (`Q_b^{s+}`), QPS.
    pub q_base_splus: f64,
    /// Auxiliary throughput over QoS-feasible (small) queries (`Q_a`), QPS.
    pub q_aux: f64,
    /// Fraction of queries with batch size at most `s` (`f`).
    pub fraction_small: f64,
}

/// One auxiliary class in the general bound (Eq. 14–15): node count `v_i` and
/// small-query throughput `Q_a^i`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuxClass {
    /// Number of instances of this auxiliary type (`v_i`).
    pub nodes: usize,
    /// Throughput of one instance over queries below the shared cutoff (`Q_a^i`), QPS.
    pub qps: f64,
}

/// Numerical tolerance on the `f` fraction boundaries.
const F_EPS: f64 = 1e-9;

/// Computes the upper bound for one base type and one auxiliary type
/// (Eq. 12 / Eq. 13, which reduce to Eq. 9 / Eq. 11 when `u = v = 1`).
pub fn upper_bound_single(inputs: &SingleAuxInputs) -> f64 {
    let aux = [AuxClass {
        nodes: inputs.aux_nodes,
        qps: inputs.q_aux,
    }];
    upper_bound_general(
        inputs.base_nodes,
        inputs.q_base,
        inputs.q_base_splus,
        &aux,
        inputs.fraction_small,
    )
}

/// Computes the general n-auxiliary-type upper bound (Eq. 14–15).
///
/// * `base_nodes` — `u`, number of base instances.
/// * `q_base` — `Q_b`, base throughput over the full mix.
/// * `q_base_splus` — `Q_b^{s+}`, base throughput over larger-than-cutoff queries.
/// * `aux` — auxiliary classes `(v_i, Q_a^i)`.
/// * `fraction_small` — `f'`, the fraction of queries below the shared cutoff.
pub fn upper_bound_general(
    base_nodes: usize,
    q_base: f64,
    q_base_splus: f64,
    aux: &[AuxClass],
    fraction_small: f64,
) -> f64 {
    check_bound_inputs(q_base, q_base_splus, fraction_small);
    for a in aux {
        check_aux_qps(a.qps);
    }
    let aux_total: f64 = aux.iter().map(|a| a.nodes as f64 * a.qps).sum();
    upper_bound_from_aux_total(base_nodes, q_base, q_base_splus, aux_total, fraction_small)
}

/// The input checks of [`upper_bound_general`] on the base side and the
/// fraction.
fn check_bound_inputs(q_base: f64, q_base_splus: f64, fraction_small: f64) {
    assert!(
        q_base >= 0.0 && q_base_splus >= 0.0,
        "throughputs must be non-negative"
    );
    assert!(
        (0.0..=1.0 + F_EPS).contains(&fraction_small),
        "fraction must lie in [0, 1], got {fraction_small}"
    );
}

/// Whether [`check_bound_inputs`] passes on these inputs.
fn bound_inputs_valid(q_base: f64, q_base_splus: f64, fraction_small: f64) -> bool {
    q_base >= 0.0 && q_base_splus >= 0.0 && (0.0..=1.0 + F_EPS).contains(&fraction_small)
}

/// The input check of [`upper_bound_general`] on one auxiliary class.
fn check_aux_qps(qps: f64) {
    assert!(
        aux_qps_valid(qps),
        "auxiliary throughput must be non-negative"
    );
}

/// Whether [`check_aux_qps`] passes on `qps`.
fn aux_qps_valid(qps: f64) -> bool {
    qps >= 0.0
}

/// The shared core of the general bound, once the auxiliary side is reduced
/// to its total rate `Σ v_i·Q_a^i`: [`upper_bound_general`] sums the classes
/// it is handed, [`ThroughputEstimator::estimate_counts`] sums straight off
/// a count vector in the same coordinate order, and
/// [`ThroughputEstimator::score_affordable`] carries the same sum down its
/// walk, so all three reach this with the same bits.
fn upper_bound_from_aux_total(
    base_nodes: usize,
    q_base: f64,
    q_base_splus: f64,
    aux_total: f64,
    fraction_small: f64,
) -> f64 {
    let u = base_nodes as f64;
    let f = fraction_small;

    // Degenerate mixes.
    if f <= F_EPS {
        // Every query is larger than the cutoff: only the base instances can
        // serve, at their large-query rate.
        return u * q_base_splus;
    }
    if f >= 1.0 - F_EPS {
        // Every query fits the auxiliary instances: both sides serve at full
        // rate and simply add up.
        return aux_total + u * q_base;
    }

    // Offload pressure the auxiliary side pushes onto the base side (Eq. 14).
    let offload = aux_total * (1.0 - f) / f;
    let base_capacity = u * q_base_splus;

    if base_capacity <= offload {
        // Base instances are the bottleneck (Eq. 9 / Eq. 12).
        base_capacity / (1.0 - f)
    } else {
        // Auxiliary instances are the bottleneck; the base side has slack to
        // absorb additional (small) queries (Eq. 11 / Eq. 13 / Eq. 15).
        let slack_ratio = if base_capacity > 0.0 {
            (base_capacity - offload) / base_capacity
        } else {
            0.0
        };
        aux_total / f + slack_ratio * u * q_base
    }
}

/// The sample statistics of one candidate shared cutoff `s`: everything in
/// the bound that depends on the batch sample depends on it *only through*
/// `s`, and `s` ranges over at most one value per pool type.  Precomputing
/// these once per estimator makes [`ThroughputEstimator::estimate`]
/// O(types) per configuration instead of O(sample).  Each field is a mean
/// over the sample entries on one side of `s`, summed in sample order and
/// divided by the entry count — see [`CutoffStats::collect`] for how one
/// walk over the sample fills every cutoff's sums at once.
#[derive(Debug, Clone)]
struct CutoffStats {
    /// Fraction of the sample with batch size at most `s` (`f'`).
    fraction_small: f64,
    /// Base throughput over larger-than-`s` queries (`Q_b^{s+}`), QPS.
    q_base_splus: f64,
    /// Per-type throughput over at-most-`s` queries (`Q_a^i`), QPS; indexed
    /// by pool type (0.0 where no sample entry qualifies).
    aux_qps: Vec<f64>,
}

impl CutoffStats {
    /// The statistics of every cutoff in `cutoffs` (ascending, distinct),
    /// plus the base throughput over the whole sample (`Q_b`), from **one**
    /// walk over the sample.
    ///
    /// Each entry's latency is evaluated once per type and added, in sample
    /// order, to the running sum of every cutoff bucket the entry falls in:
    /// the at-most-`s` sums of every type for each `s >= b`, the base's
    /// larger-than-`s` sum for each `s < b`.  Those are exactly the additions,
    /// in exactly the order, that a separate filtered pass per (cutoff, side,
    /// type) makes; the sums start from `-0.0`, the exact additive identity,
    /// so every mean — and hence every field — is bit-identical to the
    /// per-filter computation.
    fn collect(
        profiles: &[LatencyProfile],
        base_index: usize,
        cutoffs: &[u32],
        sample: &[u32],
    ) -> (f64, Vec<CutoffStats>) {
        let n = profiles.len();
        let k = cutoffs.len();
        let mut latency = vec![0.0f64; n];
        let mut base_sum = -0.0f64;
        let mut small_count = vec![0usize; k];
        let mut small_sum = vec![-0.0f64; k * n];
        let mut large_count = vec![0usize; k];
        let mut large_sum = vec![-0.0f64; k];
        for &b in sample {
            for (ms, profile) in latency.iter_mut().zip(profiles) {
                *ms = profile.latency_ms(b);
            }
            let base_ms = latency[base_index];
            base_sum += base_ms;
            // Cutoffs ascend: the first `split` are below `b`.
            let split = cutoffs.partition_point(|&s| s < b);
            for j in 0..split {
                large_sum[j] += base_ms;
                large_count[j] += 1;
            }
            for j in split..k {
                small_count[j] += 1;
                for (sum, &ms) in small_sum[j * n..(j + 1) * n].iter_mut().zip(&latency) {
                    *sum += ms;
                }
            }
        }
        let qps = |sum: f64, count: usize| 1000.0 / (sum / count as f64);
        let q_base = qps(base_sum, sample.len());
        let stats = cutoffs
            .iter()
            .enumerate()
            .map(|(j, _)| CutoffStats {
                fraction_small: small_count[j] as f64 / sample.len() as f64,
                q_base_splus: if large_count[j] == 0 {
                    q_base
                } else {
                    qps(large_sum[j], large_count[j])
                },
                aux_qps: small_sum[j * n..(j + 1) * n]
                    .iter()
                    .map(|&sum| {
                        if small_count[j] == 0 {
                            0.0
                        } else {
                            qps(sum, small_count[j])
                        }
                    })
                    .collect(),
            })
            .collect();
        (q_base, stats)
    }
}

/// Estimates upper bounds for whole configurations, deriving the `Q` and `f`
/// parameters from latency profiles and an observed batch-size sample —
/// exactly the information Kairos gathers online (learned latencies plus the
/// query monitor window).
#[derive(Debug, Clone)]
pub struct ThroughputEstimator {
    pool: PoolSpec,
    model: ModelSpec,
    /// Index of the pool's base type.
    base_index: usize,
    /// QoS cutoff per pool type, precomputed (see [`Self::cutoff`]).
    cutoffs: Vec<Option<u32>>,
    /// Base throughput over the full mix (`Q_b`), QPS, precomputed.
    q_base: f64,
    /// Sample statistics for every distinct auxiliary cutoff value, in
    /// ascending cutoff order.
    cutoff_stats: Vec<CutoffStats>,
    /// Per pool type, the index into `cutoff_stats` of its cutoff; `None`
    /// for the base type and for types that cannot serve within QoS (the
    /// types that never join the auxiliary side).
    stats_index: Vec<Option<usize>>,
}

impl ThroughputEstimator {
    /// Creates an estimator.
    ///
    /// # Panics
    /// Panics if the batch sample is empty or the latency table misses a
    /// (model, type) pair used by the pool.
    pub fn new(
        pool: PoolSpec,
        model_kind: ModelKind,
        latency: LatencyTable,
        batch_sample: Vec<u32>,
    ) -> Self {
        Self::from_sample(pool, model_kind, &latency, &batch_sample)
    }

    /// [`Self::new`] over a borrowed sample and table.
    pub(crate) fn from_sample(
        pool: PoolSpec,
        model_kind: ModelKind,
        latency: &LatencyTable,
        batch_sample: &[u32],
    ) -> Self {
        assert!(!batch_sample.is_empty(), "batch sample must not be empty");
        let model = spec(model_kind);
        let profiles: Vec<LatencyProfile> = pool
            .types()
            .iter()
            .map(|t| latency.expect(model_kind, &t.name))
            .collect();
        // QoS cutoff `s_i` of each type: the largest batch it serves within
        // QoS.
        let cutoffs: Vec<Option<u32>> = profiles
            .iter()
            .map(|p| {
                p.max_batch_within(model.qos_ms)
                    .map(|b| b.min(model.max_batch_size))
            })
            .collect();
        let base_index = pool.base_index();
        // A configuration's shared cutoff is the max over its auxiliary
        // types' cutoffs, so it can only take one of these values.
        let mut distinct: Vec<u32> = cutoffs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != base_index)
            .filter_map(|(_, c)| *c)
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        let stats_index = cutoffs
            .iter()
            .enumerate()
            .map(|(i, c)| {
                c.filter(|_| i != base_index)
                    .map(|s| distinct.binary_search(&s).expect("a distinct cutoff"))
            })
            .collect();
        let (q_base, cutoff_stats) =
            CutoffStats::collect(&profiles, base_index, &distinct, batch_sample);
        Self {
            pool,
            model,
            base_index,
            cutoffs,
            q_base,
            cutoff_stats,
            stats_index,
        }
    }

    /// The pool this estimator describes.
    pub fn pool(&self) -> &PoolSpec {
        &self.pool
    }

    /// The served model.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// QoS cutoff `s_i` of an instance type: largest batch it can serve within
    /// QoS (None if it cannot even serve a single-request query).
    pub fn cutoff(&self, type_index: usize) -> Option<u32> {
        self.cutoffs[type_index]
    }

    /// Estimates the throughput upper bound (QPS) of a configuration.
    pub fn estimate(&self, config: &Config) -> f64 {
        self.estimate_counts(config.counts())
    }

    /// [`Self::estimate`] straight off a per-type count vector, without
    /// building a [`Config`].  [`Self::score_affordable`] reaches the same
    /// bits with the sum carried down its walk.
    ///
    /// O(types) and allocation-free: every sample-dependent quantity in the
    /// bound depends on the sample only through the shared cutoff, whose
    /// statistics are precomputed (`CutoffStats`), and the auxiliary side
    /// enters the bound only through `Σ v_i·Q_a^i`, summed here in pool
    /// order exactly as [`upper_bound_general`] sums its classes.
    pub fn estimate_counts(&self, counts: &[usize]) -> f64 {
        assert_eq!(counts.len(), self.pool.num_types(), "config/pool mismatch");
        let u = counts[self.base_index];

        // Shared cutoff: the largest s over the auxiliary types present in
        // the configuration (paper's optimistic simplification for
        // multiple auxiliary types).  Statistics ascend by cutoff, so the
        // largest cutoff is the largest statistics index.
        let shared = counts
            .iter()
            .zip(&self.stats_index)
            .filter(|&(&count, _)| count > 0)
            .filter_map(|(_, &slot)| slot)
            .max();
        let Some(shared) = shared else {
            // No usable auxiliary instances: the bound is the homogeneous rate.
            return u as f64 * self.q_base;
        };
        let stats = &self.cutoff_stats[shared];
        check_bound_inputs(self.q_base, stats.q_base_splus, stats.fraction_small);

        // Auxiliary classes: throughput over the small-query mass.
        let aux_total: f64 = counts
            .iter()
            .zip(&self.stats_index)
            .zip(&stats.aux_qps)
            .filter(|&((&count, slot), _)| count > 0 && slot.is_some())
            .map(|((&count, _), &qps)| {
                check_aux_qps(qps);
                count as f64 * qps
            })
            .sum();
        upper_bound_from_aux_total(
            u,
            self.q_base,
            stats.q_base_splus,
            aux_total,
            stats.fraction_small,
        )
    }

    /// Ranks configurations by their upper bound, highest first; equal
    /// bounds keep their input order.
    pub fn rank_configs(&self, configs: &[Config]) -> Vec<(Config, f64)> {
        let bounds: Vec<f64> = configs.iter().map(|c| self.estimate(c)).collect();
        ranked_order(&bounds)
            .map(|i| (configs[i].clone(), bounds[i]))
            .collect()
    }

    /// Every configuration `options` admits on this estimator's pool, scored
    /// but not ranked: counts, bound and cost in flat buffers in enumeration
    /// order.  Each bound has the bits [`Self::estimate_counts`] gives the
    /// configuration and each cost the bits of [`Config::cost`].  Empty when
    /// the budget affords nothing.
    ///
    /// One [`for_each_affordable`] walk carries the bound's state down the
    /// recursion instead of rebuilding it per leaf: per prefix, the largest
    /// auxiliary cutoff slot present and, per cutoff slot, the partial sum
    /// `Σ v_i·Q_a^i` over the prefix's auxiliary types, added in pool
    /// order (so the leaf's `Σ` has the bits of `estimate_counts`' sum).
    /// A leaf adds the last type's term to one partial sum and evaluates
    /// the bound's closed form: O(1) in the pool's width.
    ///
    /// # Panics
    /// With `estimate_counts`' input-check messages at the first
    /// configuration, in enumeration order, whose bound would fail them;
    /// with "finite bounds" when two or more configurations are affordable
    /// and one of them bounds to NaN — exactly when ranking the space would.
    pub fn score_affordable(&self, options: &EnumerationOptions) -> ScoredSpace {
        self.score_affordable_into(options, ScoredSpace::default())
    }

    /// [`Self::score_affordable`] into the buffers of a `spare` space (its
    /// contents are discarded): a replanning loop that hands back the space
    /// it replaces neither regrows the buffers nor faults in fresh memory.
    pub(crate) fn score_affordable_into(
        &self,
        options: &EnumerationOptions,
        spare: ScoredSpace,
    ) -> ScoredSpace {
        let types = self.pool.num_types();
        let ScoredSpace {
            mut counts,
            mut bounds,
            mut costs,
            ..
        } = spare;
        counts.clear();
        bounds.clear();
        costs.clear();
        // A slot is clean when no configuration sharing its cutoff can fail
        // an input check; a leaf on an unclean slot re-runs the checks.
        let clean: Vec<bool> = self
            .cutoff_stats
            .iter()
            .map(|stats| {
                bound_inputs_valid(self.q_base, stats.q_base_splus, stats.fraction_small)
                    && self
                        .stats_index
                        .iter()
                        .zip(&stats.aux_qps)
                        .all(|(slot, &qps)| slot.is_none() || aux_qps_valid(qps))
            })
            .collect();
        let last = types - 1;
        let last_slot = self.stats_index[last];
        let root = Prefix {
            shared: None,
            aux_sums: vec![std::iter::empty::<f64>().sum(); self.cutoff_stats.len()],
        };
        for_each_affordable(
            &self.pool,
            options,
            root,
            |parent, child, dim, count| {
                child.shared = parent.shared;
                child.aux_sums.copy_from_slice(&parent.aux_sums);
                if let Some(slot) = self.stats_index[dim].filter(|_| count > 0) {
                    child.shared = child.shared.max(Some(slot));
                    for (sum, stats) in child.aux_sums.iter_mut().zip(&self.cutoff_stats) {
                        *sum += count as f64 * stats.aux_qps[dim];
                    }
                }
            },
            |leaf, cost, prefix| {
                let u = leaf[self.base_index];
                let own = last_slot.filter(|_| leaf[last] > 0);
                let bound = match prefix.shared.max(own) {
                    None => u as f64 * self.q_base,
                    Some(shared) => {
                        if !clean[shared] {
                            // Panics with the message the leaf's bound
                            // raises, if it raises one.
                            self.estimate_counts(leaf);
                        }
                        let stats = &self.cutoff_stats[shared];
                        let mut aux_total = prefix.aux_sums[shared];
                        if own.is_some() {
                            aux_total += leaf[last] as f64 * stats.aux_qps[last];
                        }
                        upper_bound_from_aux_total(
                            u,
                            self.q_base,
                            stats.q_base_splus,
                            aux_total,
                            stats.fraction_small,
                        )
                    }
                };
                bounds.push(bound);
                costs.push(cost);
                counts.extend_from_slice(leaf);
            },
        );
        ScoredSpace::new(types, counts, bounds, costs)
    }

    /// Every configuration `options` admits on this estimator's pool, ranked
    /// as [`Self::rank_configs`] ranks [`enumerate_configs`]' output: the
    /// [`Self::score_affordable`] space with each [`Config`] built exactly
    /// once, in ranked order.  Returns an empty list when the budget affords
    /// nothing.
    ///
    /// [`enumerate_configs`]: kairos_models::enumerate_configs
    pub fn rank_affordable(&self, options: &EnumerationOptions) -> Vec<(Config, f64)> {
        self.score_affordable(options).ranked()
    }
}

/// The bound's state over a prefix of a configuration, as
/// [`ThroughputEstimator::score_affordable`] carries it down the walk.
#[derive(Debug, Clone)]
struct Prefix {
    /// The largest cutoff slot among the prefix's auxiliary types present.
    shared: Option<usize>,
    /// Per cutoff slot `j`, `Σ v_i·Q_a^i` over the prefix's auxiliary types
    /// present, with `Q_a^i` read at slot `j`.
    aux_sums: Vec<f64>,
}

/// The affordable configuration space of one pool, budget and estimator,
/// scored in enumeration order: per entry its counts, its upper bound and
/// its hourly cost (bit-identical to [`Config::cost`]).  It is never sorted.
/// The serving loop's questions (the cheapest covering entry, the top entry
/// passing a filter, the bound of a given deployment) are each one scan,
/// and each resolves ties exactly as the same question over the ranked list
/// does: the ranked order is `(bound descending, enumeration index)`, so
/// among equal bounds the ranked order *is* the enumeration order.  The
/// ranked prefix selection reads ([`TOP_CANDIDATES`] entries) is kept from
/// a bounded top-k at build time.  The default space is empty.
#[derive(Debug, Clone, Default)]
pub struct ScoredSpace {
    /// Pool types per entry.
    types: usize,
    /// Entry `i`'s counts are `counts[i * types..(i + 1) * types]`.
    counts: Vec<usize>,
    bounds: Vec<f64>,
    costs: Vec<f64>,
    /// The first [`TOP_CANDIDATES`] entries in ranked order.
    top: Vec<usize>,
}

impl ScoredSpace {
    fn new(types: usize, counts: Vec<usize>, bounds: Vec<f64>, costs: Vec<f64>) -> Self {
        assert!(
            bounds.len() < 2 || !bounds.iter().any(|b| b.is_nan()),
            "finite bounds"
        );
        let top = top_ranked(&bounds, TOP_CANDIDATES);
        Self {
            types,
            counts,
            bounds,
            costs,
            top,
        }
    }

    /// Number of affordable configurations.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Whether the budget affords nothing.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Entry `i`'s per-type counts.
    pub fn counts(&self, i: usize) -> &[usize] {
        &self.counts[i * self.types..(i + 1) * self.types]
    }

    /// Entry `i`'s throughput upper bound.
    pub fn bound(&self, i: usize) -> f64 {
        self.bounds[i]
    }

    /// Entry `i`'s hourly cost.
    pub fn cost(&self, i: usize) -> f64 {
        self.costs[i]
    }

    /// Entry `i` as a [`Config`].
    pub fn config(&self, i: usize) -> Config {
        Config::new(self.counts(i).to_vec())
    }

    /// The first (up to) [`TOP_CANDIDATES`] entries in ranked order.
    pub fn top(&self) -> &[usize] {
        &self.top
    }

    /// The ranked list's prefix [`Self::top`] as `(config, bound)` pairs —
    /// everything [`select_configuration`] reads.
    ///
    /// [`select_configuration`]: crate::select_configuration
    pub fn top_ranked(&self) -> Vec<(Config, f64)> {
        self.top
            .iter()
            .map(|&i| (self.config(i), self.bounds[i]))
            .collect()
    }

    /// The highest upper bound in the space (the first ranked entry's), or
    /// `0.0` when it is empty.
    pub fn best_bound(&self) -> f64 {
        self.top.first().map_or(0.0, |&i| self.bounds[i])
    }

    /// The upper bound of `config` if it is in the space, else `0.0`.
    pub fn bound_of(&self, config: &Config) -> f64 {
        let target = config.counts();
        if target.len() != self.types {
            return 0.0;
        }
        self.counts
            .chunks_exact(self.types)
            .position(|counts| counts == target)
            .map_or(0.0, |i| self.bounds[i])
    }

    /// The first entry in ranked order whose counts pass `filter`.
    pub fn best(&self, filter: impl Fn(&[usize]) -> bool) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for i in 0..self.len() {
            let key = descending_key(self.bounds[i]);
            if best.is_none_or(|(best_key, _)| key < best_key) && filter(self.counts(i)) {
                best = Some((key, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// The cheapest entry passing `filter` whose upper bound covers
    /// `required` QPS; ties go to the higher bound, then to the earlier
    /// entry in ranked order.
    ///
    /// Scanning in enumeration order and replacing the incumbent only on a
    /// strict improvement keeps the first minimum, which is also the first
    /// in ranked order: entries equal on both cost and bound share one
    /// ranking key, and ranked order among them is enumeration order.
    ///
    /// # Panics
    /// Panics with "finite costs" when two covering entries pass and a cost
    /// is NaN, as the same minimum over the ranked list does.
    pub fn cheapest_covering(
        &self,
        required: f64,
        filter: impl Fn(&[usize]) -> bool,
    ) -> Option<usize> {
        let mut best: Option<usize> = None;
        for i in 0..self.len() {
            if !(self.bounds[i] >= required && filter(self.counts(i))) {
                continue;
            }
            let Some(b) = best else {
                best = Some(i);
                continue;
            };
            let order = self.costs[b]
                .partial_cmp(&self.costs[i])
                .expect("finite costs")
                .then(
                    self.bounds[i]
                        .partial_cmp(&self.bounds[b])
                        .expect("finite bounds"),
                );
            if order == std::cmp::Ordering::Greater {
                best = Some(i);
            }
        }
        best
    }

    /// The whole space ranked by bound (descending, ties in enumeration
    /// order), each [`Config`] built once in ranked order.
    pub fn ranked(self) -> Vec<(Config, f64)> {
        let Self {
            types,
            counts,
            bounds,
            costs,
            top,
        } = self;
        // Free what the ranking does not read before it allocates.
        drop((costs, top));
        ranked_order(&bounds)
            .map(|i| {
                (
                    Config::new(counts[i * types..(i + 1) * types].to_vec()),
                    bounds[i],
                )
            })
            .collect()
    }
}

/// The first `k` indices of [`ranked_order`]`(bounds)`, without sorting
/// the whole list: a bounded insertion over the same compact
/// `(key, index)` integers.
fn top_ranked(bounds: &[f64], k: usize) -> Vec<usize> {
    let mut top: Vec<u128> = Vec::with_capacity(k + 1);
    for (i, &bound) in bounds.iter().enumerate() {
        let key = (u128::from(descending_key(bound)) << 64) | i as u128;
        if top.len() == k && top.last().is_some_and(|&last| key > last) {
            continue;
        }
        let at = top.partition_point(|&kept| kept < key);
        top.insert(at, key);
        top.truncate(k);
    }
    top.into_iter().map(|key| key as u64 as usize).collect()
}

/// The indices of `bounds` by bound descending, then index ascending: the
/// order a stable descending `partial_cmp` sort of the list produces, which
/// is a total order, so an unstable sort of compact `(key, index)` integers
/// reproduces it exactly.  `0.0` and `-0.0` compare equal under
/// `partial_cmp` and share a key; a NaN bound panics with "finite bounds"
/// whenever the stable sort would have compared it (any list of two or
/// more).
fn ranked_order(bounds: &[f64]) -> impl Iterator<Item = usize> {
    assert!(
        bounds.len() < 2 || !bounds.iter().any(|b| b.is_nan()),
        "finite bounds"
    );
    let mut keys: Vec<u128> = bounds
        .iter()
        .enumerate()
        .map(|(i, &bound)| (u128::from(descending_key(bound)) << 64) | i as u128)
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|key| key as u64 as usize)
}

/// An unsigned key whose ascending order is `bound`'s descending numeric
/// order (IEEE-754 bits mapped onto the unsigned line, then reversed).
fn descending_key(bound: f64) -> u64 {
    let bits = if bound == 0.0 { 0 } else { bound.to_bits() };
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    };
    !ascending
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::{calibration::paper_calibration, ec2};

    /// Fig. 7, Scenario 1: the base instance is the bottleneck.
    #[test]
    fn figure7_scenario1() {
        let inputs = SingleAuxInputs {
            base_nodes: 1,
            aux_nodes: 1,
            q_base: 100.0,
            q_base_splus: 90.0,
            q_aux: 150.0,
            fraction_small: 0.6,
        };
        let ub = upper_bound_single(&inputs);
        assert!((ub - 225.0).abs() < 1e-9, "expected 225, got {ub}");
    }

    /// Fig. 7, Scenario 2: the auxiliary instance is the bottleneck and the
    /// base contributes slack throughput.
    #[test]
    fn figure7_scenario2() {
        let inputs = SingleAuxInputs {
            base_nodes: 1,
            aux_nodes: 1,
            q_base: 100.0,
            q_base_splus: 90.0,
            q_aux: 140.0,
            fraction_small: 0.7,
        };
        let ub = upper_bound_single(&inputs);
        // Q_a / f = 200, slack = (90 - 60) / 90 * 100 = 33.33 -> 233.33.
        assert!((ub - 233.333333).abs() < 1e-3, "expected 233.3, got {ub}");
    }

    #[test]
    fn no_auxiliary_reduces_to_homogeneous_rate() {
        let ub = upper_bound_general(3, 50.0, 20.0, &[], 0.5);
        assert!((ub - 150.0).abs() < 1e-9);
    }

    #[test]
    fn no_base_and_large_queries_present_gives_zero() {
        let aux = [AuxClass {
            nodes: 5,
            qps: 100.0,
        }];
        let ub = upper_bound_general(0, 0.0, 0.0, &aux, 0.8);
        assert_eq!(ub, 0.0);
    }

    #[test]
    fn all_small_queries_adds_both_sides() {
        let aux = [AuxClass {
            nodes: 2,
            qps: 80.0,
        }];
        let ub = upper_bound_general(1, 120.0, 60.0, &aux, 1.0);
        assert!((ub - (160.0 + 120.0)).abs() < 1e-9);
    }

    #[test]
    fn all_large_queries_uses_only_base_splus_rate() {
        let aux = [AuxClass {
            nodes: 9,
            qps: 500.0,
        }];
        let ub = upper_bound_general(2, 120.0, 70.0, &aux, 0.0);
        assert!((ub - 140.0).abs() < 1e-9);
    }

    #[test]
    fn bound_is_monotone_in_node_counts() {
        let base = SingleAuxInputs {
            base_nodes: 1,
            aux_nodes: 1,
            q_base: 100.0,
            q_base_splus: 80.0,
            q_aux: 150.0,
            fraction_small: 0.7,
        };
        let more_base = SingleAuxInputs {
            base_nodes: 2,
            ..base
        };
        let more_aux = SingleAuxInputs {
            aux_nodes: 2,
            ..base
        };
        assert!(upper_bound_single(&more_base) >= upper_bound_single(&base));
        assert!(upper_bound_single(&more_aux) >= upper_bound_single(&base));
    }

    fn estimator(model: ModelKind) -> ThroughputEstimator {
        let pool = PoolSpec::new(ec2::paper_pool());
        // A deterministic, production-like sample: 80 % small, 20 % large.
        let mut sample = Vec::new();
        for i in 0..200u32 {
            sample.push(10 + (i % 40) * 5); // 10..205
        }
        for i in 0..50u32 {
            sample.push(600 + (i % 10) * 40); // 600..960
        }
        ThroughputEstimator::new(pool, model, paper_calibration(), sample)
    }

    #[test]
    fn estimator_cutoffs_follow_calibration() {
        let est = estimator(ModelKind::Wnd);
        // Base type has no relevance for cutoff here, but must exist.
        assert!(est.cutoff(0).unwrap() >= 1000);
        let c1 = est.cutoff(1).unwrap();
        let c2 = est.cutoff(2).unwrap();
        assert!(c1 > c2, "c5n should sustain larger batches than r5n");
    }

    #[test]
    fn heterogeneous_config_bound_exceeds_homogeneous_bound_for_rm2() {
        let est = estimator(ModelKind::Rm2);
        let homo = est.estimate(&Config::new(vec![4, 0, 0, 0]));
        let hetero = est.estimate(&Config::new(vec![3, 1, 3, 0]));
        assert!(
            hetero > homo,
            "heterogeneous bound {hetero} should exceed homogeneous bound {homo}"
        );
    }

    #[test]
    fn adding_instances_never_lowers_the_estimated_bound() {
        let est = estimator(ModelKind::Dien);
        let small = Config::new(vec![2, 0, 1, 0]);
        for type_index in 0..4 {
            let bigger = small.with_one_more(type_index);
            assert!(
                est.estimate(&bigger) + 1e-9 >= est.estimate(&small),
                "adding type {type_index} lowered the bound"
            );
        }
    }

    #[test]
    fn rank_configs_is_sorted_descending() {
        let est = estimator(ModelKind::Ncf);
        let configs = vec![
            Config::new(vec![1, 0, 0, 0]),
            Config::new(vec![2, 0, 3, 0]),
            Config::new(vec![1, 1, 1, 1]),
        ];
        let ranked = est.rank_configs(&configs);
        assert_eq!(ranked.len(), 3);
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    /// Mean latency over the selected sample entries, one filtered pass —
    /// how every statistic was computed before the one-pass walk.
    fn filtered_mean(
        profile: &LatencyProfile,
        sample: &[u32],
        keep: impl Fn(u32) -> bool,
    ) -> Option<f64> {
        let selected: Vec<f64> = sample
            .iter()
            .copied()
            .filter(|&b| keep(b))
            .map(|b| profile.latency_ms(b))
            .collect();
        (!selected.is_empty()).then(|| selected.iter().sum::<f64>() / selected.len() as f64)
    }

    #[test]
    fn one_pass_cutoff_stats_equal_per_filter_means_bit_for_bit() {
        use kairos_workload::BatchSizeDistribution;
        use rand::{rngs::StdRng, SeedableRng};

        let pool = PoolSpec::new(ec2::paper_pool());
        let table = paper_calibration();
        let base = pool.base_index();
        let production = BatchSizeDistribution::production_default()
            .sample_many(&mut StdRng::seed_from_u64(5), 5_000);
        let samples: [Vec<u32>; 5] = [
            production,
            vec![77; 300],
            (0..400).map(|i| 990 + i % 11).collect(), // above every cutoff
            (0..400).map(|i| 1 + i % 2).collect(),    // below every cutoff
            (1..=1000).rev().collect(),
        ];
        for model in [
            ModelKind::Rm2,
            ModelKind::Wnd,
            ModelKind::Dien,
            ModelKind::Ncf,
        ] {
            let profiles: Vec<LatencyProfile> = pool
                .types()
                .iter()
                .map(|t| table.expect(model, &t.name))
                .collect();
            for sample in &samples {
                let est =
                    ThroughputEstimator::new(pool.clone(), model, table.clone(), sample.clone());
                let q_base = filtered_mean(&profiles[base], sample, |_| true).map(|ms| 1000.0 / ms);
                assert_eq!(est.q_base.to_bits(), q_base.unwrap().to_bits());

                let mut distinct: Vec<u32> = (0..pool.num_types())
                    .filter(|&i| i != base)
                    .filter_map(|i| est.cutoff(i))
                    .collect();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), est.cutoff_stats.len());
                for (&s, stats) in distinct.iter().zip(&est.cutoff_stats) {
                    let fraction =
                        sample.iter().filter(|&&b| b <= s).count() as f64 / sample.len() as f64;
                    assert_eq!(stats.fraction_small.to_bits(), fraction.to_bits());
                    let splus = filtered_mean(&profiles[base], sample, |b| b > s)
                        .map(|ms| 1000.0 / ms)
                        .unwrap_or(est.q_base);
                    assert_eq!(stats.q_base_splus.to_bits(), splus.to_bits());
                    for (i, profile) in profiles.iter().enumerate() {
                        let qps = filtered_mean(profile, sample, |b| b <= s)
                            .map(|ms| 1000.0 / ms)
                            .unwrap_or(0.0);
                        assert_eq!(
                            stats.aux_qps[i].to_bits(),
                            qps.to_bits(),
                            "{model} s={s} type {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ranked_order_is_the_stable_descending_sort_on_special_values() {
        let bounds = [
            0.0,
            -0.0,
            f64::INFINITY,
            3.5,
            -2.0,
            f64::NEG_INFINITY,
            0.0,
            3.5,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::INFINITY,
        ];
        let mut stable: Vec<usize> = (0..bounds.len()).collect();
        stable.sort_by(|&a, &b| bounds[b].partial_cmp(&bounds[a]).expect("no NaN here"));
        assert_eq!(ranked_order(&bounds).collect::<Vec<_>>(), stable);
    }

    #[test]
    fn top_ranked_is_the_prefix_of_ranked_order() {
        let bounds = [
            0.0,
            -0.0,
            f64::INFINITY,
            3.5,
            -2.0,
            f64::NEG_INFINITY,
            0.0,
            3.5,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::INFINITY,
        ];
        let ranked: Vec<usize> = ranked_order(&bounds).collect();
        for k in 0..=bounds.len() + 1 {
            assert_eq!(
                top_ranked(&bounds, k),
                ranked[..k.min(bounds.len())],
                "k = {k}"
            );
        }
    }

    /// The message `f` panics with, if it panics.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
        )
    }

    #[test]
    fn scoring_walk_panics_exactly_where_the_per_config_bound_does() {
        // Corrupt one cutoff statistic at a time.  The walk must panic with
        // the message ranking the enumerated space raises (the first
        // failing configuration's, in enumeration order), and not at all
        // when no affordable configuration reads the corrupted value.
        let clean = estimator(ModelKind::Rm2);
        let options = EnumerationOptions::with_budget(4.0);
        let configs = kairos_models::enumerate_configs(clean.pool(), &options);
        let mut corrupted = Vec::new();
        for slot in 0..clean.cutoff_stats.len() {
            for bad in [-1.0, f64::NAN] {
                let mut est = clean.clone();
                est.cutoff_stats[slot].q_base_splus = bad;
                corrupted.push(est);
                let mut est = clean.clone();
                est.cutoff_stats[slot].fraction_small = 1.5 + bad.abs();
                corrupted.push(est);
                for i in (0..clean.pool.num_types()).filter(|&i| clean.stats_index[i].is_some()) {
                    let mut est = clean.clone();
                    est.cutoff_stats[slot].aux_qps[i] = bad;
                    corrupted.push(est);
                }
            }
        }
        let (mut panicked, mut passed) = (0, 0);
        for est in &corrupted {
            let walk = panic_message(|| drop(est.score_affordable(&options)));
            let oracle = panic_message(|| drop(est.rank_configs(&configs)));
            assert_eq!(walk, oracle);
            if walk.is_some() {
                panicked += 1;
            } else {
                passed += 1;
            }
        }
        assert!(
            panicked > 0 && passed > 0,
            "{panicked} panicked, {passed} passed"
        );
    }

    #[test]
    #[should_panic(expected = "finite bounds")]
    fn scored_space_rejects_nan() {
        let _ = ScoredSpace::new(1, vec![1, 2], vec![1.0, f64::NAN], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "finite bounds")]
    fn ranked_order_rejects_nan() {
        let _ = ranked_order(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "batch sample")]
    fn estimator_rejects_empty_sample() {
        let pool = PoolSpec::new(ec2::paper_pool());
        ThroughputEstimator::new(pool, ModelKind::Ncf, paper_calibration(), vec![]);
    }
}
