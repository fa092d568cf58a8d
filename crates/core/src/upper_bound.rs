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
//!
//! [`ThroughputEstimator::score_affordable`] bounds the whole affordable
//! space in one walk into a [`ScoredSpace`], which keeps the walk's runs
//! (configurations that differ only in the last type's count): one bound
//! per configuration, counts and cost once per run.  Work that is fixed
//! along a run is done once per run: once a run's base side saturates,
//! the rest of the run shares one bound; the bounded top-k passes over an
//! entry below its last kept bound on one comparison; and the cost scans
//! skip the rest of a run (or a whole run) that already costs more than
//! their incumbent.

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

    let offload = offload(aux_total, f);
    let base_capacity = u * q_base_splus;
    if base_capacity <= offload {
        base_limited(base_capacity, f)
    } else {
        aux_limited(u, q_base, aux_total, f, base_capacity, offload)
    }
}

/// Offload pressure the auxiliary side pushes onto the base side (Eq. 14),
/// for `f` strictly inside the degenerate bounds.
fn offload(aux_total: f64, f: f64) -> f64 {
    aux_total * (1.0 - f) / f
}

/// The bound when the base instances are the bottleneck (Eq. 9 / Eq. 12):
/// their capacity `u·Q_b^{s+}` does not exceed the offload.
fn base_limited(base_capacity: f64, f: f64) -> f64 {
    base_capacity / (1.0 - f)
}

/// The bound when the auxiliary instances are the bottleneck; the base side
/// has slack to absorb additional (small) queries (Eq. 11 / Eq. 13 /
/// Eq. 15).
fn aux_limited(
    u: f64,
    q_base: f64,
    aux_total: f64,
    f: f64,
    base_capacity: f64,
    offload: f64,
) -> f64 {
    let slack_ratio = if base_capacity > 0.0 {
        (base_capacity - offload) / base_capacity
    } else {
        0.0
    };
    aux_total / f + slack_ratio * u * q_base
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
    /// but not ranked, in enumeration order: one bound per configuration,
    /// its counts and cost kept once per run of the walk (see
    /// [`ScoredSpace`]).  Each bound has the bits [`Self::estimate_counts`]
    /// gives the configuration and each cost the bits of [`Config::cost`].
    /// Empty when the budget affords nothing.
    ///
    /// One [`for_each_affordable`] walk carries the bound's state down the
    /// recursion instead of rebuilding it per configuration: per prefix, the
    /// largest auxiliary cutoff slot present and, per cutoff slot, the
    /// partial sum `Σ v_i·Q_a^i` over the prefix's auxiliary types, added
    /// in pool order (so a configuration's `Σ` has the bits of
    /// `estimate_counts`' sum).  A run scores its last-type count 0 on its
    /// own; every count from 1 up shares one cutoff slot, so the run checks
    /// that slot once and fills the rest of its bounds in one straight
    /// loop, each adding the last type's term to one partial sum and
    /// evaluating the bound's closed form.  When the base type is in the
    /// prefix and the mix is not degenerate, the offload only grows along
    /// the run: from the first entry whose base side saturates, the rest
    /// of the run takes that entry's bound, `u·Q_b^{s+}/(1−f)`, computed
    /// once.
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
            mut prefixes,
            mut runs,
            mut bounds,
            ..
        } = spare;
        prefixes.clear();
        runs.clear();
        bounds.clear();
        // A slot is clean when no configuration sharing its cutoff can fail
        // an input check; a run on an unclean slot re-runs the checks.
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
        // Scratch for the panic path: a run's configuration as a count vector.
        let mut leaf = vec![0; types];
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
            |prefix_counts, spent, lasts, prefix| {
                prefixes.extend_from_slice(prefix_counts);
                runs.push(Run {
                    start: bounds.len(),
                    first: lasts.start,
                    spent,
                });
                // Panics with the message the configuration's bound raises,
                // if it raises one, when its cutoff slot is unclean.
                let mut check = |shared: usize, count: usize| {
                    if !clean[shared] {
                        leaf[..last].copy_from_slice(prefix_counts);
                        leaf[last] = count;
                        self.estimate_counts(&leaf);
                    }
                };
                // The base count, when the base type is in the prefix.
                let prefix_u = prefix_counts.get(self.base_index).copied();
                let mut from = lasts.start;
                if from == 0 {
                    // No last-type instance: the prefix's own slot and sum.
                    let u = prefix_u.expect("the base type is in the prefix");
                    bounds.push(match prefix.shared {
                        None => u as f64 * self.q_base,
                        Some(shared) => {
                            check(shared, 0);
                            let stats = &self.cutoff_stats[shared];
                            upper_bound_from_aux_total(
                                u,
                                self.q_base,
                                stats.q_base_splus,
                                prefix.aux_sums[shared],
                                stats.fraction_small,
                            )
                        }
                    });
                    from = 1;
                }
                if from == lasts.end {
                    return;
                }
                // From one last-type instance up, every configuration of the
                // run shares one cutoff slot and one set of present types,
                // which is all the input checks read: they pass or fail
                // together, so the run's first one stands for them all.
                let u_of = |count: usize| prefix_u.unwrap_or(count);
                let Some(shared) = prefix.shared.max(last_slot) else {
                    bounds.extend((from..lasts.end).map(|count| u_of(count) as f64 * self.q_base));
                    return;
                };
                check(shared, from);
                let stats = &self.cutoff_stats[shared];
                let sum = prefix.aux_sums[shared];
                let term = |count: usize| match last_slot {
                    Some(_) => sum + count as f64 * stats.aux_qps[last],
                    None => sum,
                };
                let f = stats.fraction_small;
                let (Some(u), false) = (prefix_u, f <= F_EPS || f >= 1.0 - F_EPS) else {
                    // The base type is last (`u` grows along the run), or
                    // the mix is degenerate: the closed form per entry.
                    bounds.extend((from..lasts.end).map(|count| {
                        upper_bound_from_aux_total(
                            u_of(count),
                            self.q_base,
                            stats.q_base_splus,
                            term(count),
                            f,
                        )
                    }));
                    return;
                };
                // `u` is fixed and the offload never falls as the last-type
                // count grows (the check passed, so `Q_a ≥ 0`, and every
                // operation in `term` and `offload` is monotone).  Once the
                // base side saturates it stays saturated, and the rest of
                // the run shares one bound.
                let u = u as f64;
                let base_capacity = u * stats.q_base_splus;
                let mut count = from;
                while count < lasts.end {
                    let total = term(count);
                    let offload = offload(total, f);
                    if base_capacity <= offload {
                        break;
                    }
                    bounds.push(aux_limited(
                        u,
                        self.q_base,
                        total,
                        f,
                        base_capacity,
                        offload,
                    ));
                    count += 1;
                }
                let saturated = base_limited(base_capacity, f);
                bounds.resize(bounds.len() + (lasts.end - count), saturated);
            },
        );
        ScoredSpace::new(types, self.pool.price(last), prefixes, runs, bounds)
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

/// One run of the walk: a prefix (a count for every type but the last) and
/// the consecutive entries that extend it by ascending last-type counts.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Index of the run's first entry.
    start: usize,
    /// Last-type count of the run's first entry.
    first: usize,
    /// The prefix's running cost, as the walk summed it.
    spent: f64,
}

/// The affordable configuration space of one pool, budget and estimator,
/// scored in enumeration order.  It is never sorted.
///
/// The space is stored as the walk hands it over, in runs: per run the
/// prefix counts, the first last-type count and the prefix's running cost;
/// per entry only the upper bound, so an entry costs 8 bytes.  Entry `i`
/// of a run is the prefix extended by `first + (i - start)` instances of
/// the last type, and its hourly cost `spent + price_last·c` is the walk's
/// own expression, bit-identical to [`Config::cost`].
///
/// The serving loop's questions (the cheapest covering entry, the top entry
/// passing a filter, the bound of a given deployment) are each one scan
/// over the runs, and each resolves ties exactly as the same question over
/// the ranked list does: the ranked order is `(bound descending,
/// enumeration index)`, so among equal bounds the ranked order *is* the
/// enumeration order.  The ranked prefix selection reads
/// ([`TOP_CANDIDATES`] entries) is kept from a bounded top-k at build time.
/// The default space is empty.
#[derive(Debug, Clone, Default)]
pub struct ScoredSpace {
    /// Pool types per configuration.
    types: usize,
    /// Hourly price of one instance of the last type.
    price_last: f64,
    /// The runs' prefix counts, `types - 1` per run, in run order.
    prefixes: Vec<usize>,
    runs: Vec<Run>,
    /// One upper bound per entry, in enumeration order.
    bounds: Vec<f64>,
    /// The first [`TOP_CANDIDATES`] entries in ranked order.
    top: Vec<usize>,
}

impl ScoredSpace {
    fn new(
        types: usize,
        price_last: f64,
        prefixes: Vec<usize>,
        runs: Vec<Run>,
        bounds: Vec<f64>,
    ) -> Self {
        let top = top_ranked(&bounds, TOP_CANDIDATES);
        Self {
            types,
            price_last,
            prefixes,
            runs,
            bounds,
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

    /// Entry `i`'s throughput upper bound.
    pub fn bound(&self, i: usize) -> f64 {
        self.bounds[i]
    }

    /// Entry `i`'s hourly cost.
    pub fn cost(&self, i: usize) -> f64 {
        let (r, last) = self.locate(i);
        self.runs[r].spent + self.price_last * last as f64
    }

    /// Entry `i` as a [`Config`].
    pub fn config(&self, i: usize) -> Config {
        let (r, last) = self.locate(i);
        let mut counts = Vec::with_capacity(self.types);
        counts.extend_from_slice(self.prefix(r));
        counts.push(last);
        Config::new(counts)
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
    /// One comparison per run.
    pub fn bound_of(&self, config: &Config) -> f64 {
        let target = config.counts();
        if target.len() != self.types {
            return 0.0;
        }
        let (&last, prefix) = target.split_last().expect("a configuration is non-empty");
        (0..self.runs.len())
            .find(|&r| self.prefix(r) == prefix)
            .and_then(|r| {
                let run = self.runs[r];
                let entries = run.start..self.run_end(r);
                let i = run.start + last.checked_sub(run.first)?;
                entries.contains(&i).then(|| self.bounds[i])
            })
            .unwrap_or(0.0)
    }

    /// The first entry in ranked order whose counts pass `filter`.
    ///
    /// Only an entry whose bound is strictly above the incumbent's can
    /// displace it (a later entry with an equal bound ranks after it), so
    /// the filter runs only on those.  Bounds are never NaN in a space of
    /// two or more entries, where `>` is the ranked order's comparison.
    pub fn best(&self, filter: impl Fn(&[usize]) -> bool) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        let mut counts = vec![0; self.types];
        for r in 0..self.runs.len() {
            let run = self.runs[r];
            counts[..self.types - 1].copy_from_slice(self.prefix(r));
            for i in run.start..self.run_end(r) {
                let bound = self.bounds[i];
                if best.is_none_or(|(best_bound, _)| bound > best_bound) {
                    counts[self.types - 1] = run.first + (i - run.start);
                    if filter(&counts) {
                        best = Some((bound, i));
                    }
                }
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
    /// Within a run the cost `spent + price_last·c` never falls as `c`
    /// grows (the price is positive and both operations are monotone), so
    /// an entry costing more than the incumbent ends its run's scan, and a
    /// run whose first entry does is skipped whole.  Entries of equal cost
    /// are still compared, so the tie rules hold.
    ///
    /// # Panics
    /// Panics with "finite costs" when two covering entries pass and a cost
    /// is NaN, as the same minimum over the ranked list does.
    pub fn cheapest_covering(
        &self,
        required: f64,
        filter: impl Fn(&[usize]) -> bool,
    ) -> Option<usize> {
        // The incumbent: its index and bound, and its cost (no cost
        // exceeds it while there is no incumbent).
        let mut best: Option<(usize, f64)> = None;
        let mut best_cost = f64::INFINITY;
        let mut counts = vec![0; self.types];
        for r in 0..self.runs.len() {
            let run = self.runs[r];
            if run.spent + self.price_last * run.first as f64 > best_cost {
                continue;
            }
            counts[..self.types - 1].copy_from_slice(self.prefix(r));
            for i in run.start..self.run_end(r) {
                let last = run.first + (i - run.start);
                let cost = run.spent + self.price_last * last as f64;
                if cost > best_cost {
                    break;
                }
                let bound = self.bounds[i];
                let covers = bound >= required;
                if !covers {
                    continue;
                }
                counts[self.types - 1] = last;
                if !filter(&counts) {
                    continue;
                }
                let Some((_, best_bound)) = best else {
                    best = Some((i, bound));
                    best_cost = cost;
                    continue;
                };
                let order = best_cost
                    .partial_cmp(&cost)
                    .expect("finite costs")
                    .then(bound.partial_cmp(&best_bound).expect("finite bounds"));
                if order == std::cmp::Ordering::Greater {
                    best = Some((i, bound));
                    best_cost = cost;
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// The whole space ranked by bound (descending, ties in enumeration
    /// order), each [`Config`] built once in ranked order.
    ///
    /// Each entry's run is found by one linear pass over the runs in
    /// enumeration order, not by a search per entry.
    pub fn ranked(self) -> Vec<(Config, f64)> {
        let Self {
            types,
            prefixes,
            runs,
            bounds,
            top,
            ..
        } = self;
        // Free what the ranking does not read before it allocates.
        drop(top);
        // Each entry's run, filled linearly in enumeration order.
        let mut run_of: Vec<u32> = Vec::with_capacity(bounds.len());
        for r in 0..runs.len() {
            let end = runs.get(r + 1).map_or(bounds.len(), |next| next.start);
            run_of.resize(end, u32::try_from(r).expect("fewer than 2^32 runs"));
        }
        let width = types - 1;
        ranked_order(&bounds)
            .map(|i| {
                let r = run_of[i] as usize;
                let run = runs[r];
                let mut counts = Vec::with_capacity(types);
                counts.extend_from_slice(&prefixes[r * width..(r + 1) * width]);
                counts.push(run.first + (i - run.start));
                (Config::new(counts), bounds[i])
            })
            .collect()
    }

    /// Run `r`'s prefix counts.
    fn prefix(&self, r: usize) -> &[usize] {
        let width = self.types - 1;
        &self.prefixes[r * width..(r + 1) * width]
    }

    /// One past run `r`'s last entry.
    fn run_end(&self, r: usize) -> usize {
        self.runs
            .get(r + 1)
            .map_or(self.bounds.len(), |next| next.start)
    }

    /// Entry `i`'s run and last-type count.
    fn locate(&self, i: usize) -> (usize, usize) {
        assert!(i < self.len(), "entry {i} of a space of {}", self.len());
        let r = self.runs.partition_point(|run| run.start <= i) - 1;
        let run = self.runs[r];
        (r, run.first + (i - run.start))
    }
}

/// The first `k` indices of [`ranked_order`]`(bounds)`, without sorting
/// the whole list: a bounded insertion over the same compact
/// `(key, index)` integers.
///
/// Once `k` entries are kept, an entry whose bound is strictly below the
/// `k`-th kept bound ranks after all of them and is passed over on one
/// comparison; an equal bound takes the key path, where ties and `±0`
/// resolve by key.  The same pass rejects NaN as [`ranked_order`] does.
///
/// # Panics
/// With "finite bounds" when `bounds` holds two or more entries and one
/// is NaN.
fn top_ranked(bounds: &[f64], k: usize) -> Vec<usize> {
    let mut top: Vec<u128> = Vec::with_capacity(k + 1);
    // The `k`-th kept bound, once `k` entries are kept.
    let mut floor = f64::NEG_INFINITY;
    for (i, &bound) in bounds.iter().enumerate() {
        if bound < floor {
            continue;
        }
        assert!(bounds.len() < 2 || !bound.is_nan(), "finite bounds");
        let key = (u128::from(descending_key(bound)) << 64) | i as u128;
        if top.len() == k && top.last().is_some_and(|&last| key > last) {
            continue;
        }
        let at = top.partition_point(|&kept| kept < key);
        top.insert(at, key);
        top.truncate(k);
        if top.len() == k {
            if let Some(&last) = top.last() {
                floor = bounds[last as u64 as usize];
            }
        }
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
#[path = "../tests/common/flat_space.rs"]
mod flat_space;

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::{calibration::paper_calibration, ec2};
    use kairos_workload::BatchSizeDistribution;
    use rand::{rngs::StdRng, Rng, SeedableRng};

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

    /// `f`'s value, or the message it panics with.
    fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
    }

    /// The message `f` panics with, if it panics.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        caught(f).err()
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

    /// A random pool of 1–6 types: the paper's base type re-priced, then
    /// auxiliary types from the paper's three (some repeated verbatim, some
    /// re-priced to an earlier type's price), with the base type moved to a
    /// random index, last included.
    fn random_pool(rng: &mut StdRng, types: usize) -> PoolSpec {
        let mut base = ec2::g4dn_xlarge();
        base.price_per_hour *= rng.gen_range(0.6..1.4);
        let palette = [ec2::c5n_2xlarge(), ec2::r5n_large(), ec2::t3_xlarge()];
        let mut pool = vec![base];
        while pool.len() < types {
            let roll = rng.gen_range(0..10u32);
            let next = if roll < 2 && pool.len() > 1 {
                pool[rng.gen_range(1..pool.len())].clone()
            } else {
                let mut t = palette[rng.gen_range(0..palette.len())].clone();
                t.price_per_hour = if roll < 4 {
                    pool[rng.gen_range(0..pool.len())].price_per_hour
                } else {
                    t.price_per_hour * rng.gen_range(0.7..1.3)
                };
                t
            };
            pool.push(next);
        }
        let base = pool.remove(0);
        pool.insert(rng.gen_range(0..=pool.len()), base);
        PoolSpec::new(pool)
    }

    /// Number of configurations `budget` affords on `pool`.
    fn affordable(pool: &PoolSpec, budget: f64) -> usize {
        let mut count = 0;
        for_each_affordable(
            pool,
            &EnumerationOptions::with_budget(budget),
            (),
            |_, _, _, _| {},
            |_, _, lasts, _| count += lasts.len(),
        );
        count
    }

    /// `est` with one cutoff statistic replaced by a value an input check
    /// rejects, which makes that slot unclean.
    fn corrupt(rng: &mut StdRng, est: &mut ThroughputEstimator) {
        if est.cutoff_stats.is_empty() {
            return;
        }
        let slot = rng.gen_range(0..est.cutoff_stats.len());
        let bad = if rng.gen_bool(0.5) { -1.0 } else { f64::NAN };
        let aux: Vec<usize> = (0..est.pool.num_types())
            .filter(|&i| est.stats_index[i].is_some())
            .collect();
        let stats = &mut est.cutoff_stats[slot];
        match rng.gen_range(0..3u32) {
            0 => stats.q_base_splus = bad,
            1 => stats.fraction_small = 1.5,
            _ => stats.aux_qps[aux[rng.gen_range(0..aux.len())]] = bad,
        }
    }

    /// Replaces every cutoff slot's statistics with round values under
    /// which a few auxiliary instances saturate the base side: `f` strictly
    /// inside the degenerate bounds, a slow base side past the cutoff, fast
    /// auxiliary types.  Few distinct values make equal bounds common.
    fn saturate(rng: &mut StdRng, est: &mut ThroughputEstimator) {
        for stats in &mut est.cutoff_stats {
            stats.fraction_small = [0.25, 0.5, 0.7, 0.9][rng.gen_range(0..4usize)];
            stats.q_base_splus = [8.0, 20.0, 45.0][rng.gen_range(0..3usize)];
            for qps in &mut stats.aux_qps {
                *qps = [0.0, 30.0, 100.0, 250.0][rng.gen_range(0..4usize)];
            }
        }
    }

    /// Moves one slot's `f` off the round values and its `Q_b^{s+}` so that
    /// a random affordable configuration (base type not last, a
    /// power-of-two base count, at least one last-type instance, an
    /// auxiliary type present) sits exactly at the saturation point:
    /// `u·Q_b^{s+}` equals its offload.  There the two closed-form branches
    /// often differ in the last bit.
    fn tie_at_saturation(
        rng: &mut StdRng,
        est: &mut ThroughputEstimator,
        options: &EnumerationOptions,
    ) {
        let (types, base) = (est.pool.num_types(), est.base_index);
        let shared = |counts: &[usize]| {
            counts
                .iter()
                .zip(&est.stats_index)
                .filter(|&(&count, _)| count > 0)
                .filter_map(|(_, &slot)| slot)
                .max()
        };
        let candidates: Vec<Config> = kairos_models::enumerate_configs(&est.pool, options)
            .into_iter()
            .filter(|c| {
                let counts = c.counts();
                base + 1 < types
                    && counts[base].is_power_of_two()
                    && counts[types - 1] > 0
                    && shared(counts).is_some()
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        let counts = candidates[rng.gen_range(0..candidates.len())]
            .counts()
            .to_vec();
        let slot = shared(&counts).expect("an auxiliary type is present");
        let stats = &mut est.cutoff_stats[slot];
        stats.fraction_small = rng.gen_range(0.05..0.95);
        // `estimate_counts`' sum, in its order.
        let aux_total: f64 = counts
            .iter()
            .zip(&est.stats_index)
            .zip(&stats.aux_qps)
            .filter(|&((&count, slot), _)| count > 0 && slot.is_some())
            .map(|((&count, _), &qps)| count as f64 * qps)
            .sum();
        // A power-of-two `u` divides and multiplies back exactly.
        stats.q_base_splus = offload(aux_total, stats.fraction_small) / counts[base] as f64;
    }

    /// `(config, bound bits, cost bits)` of an entry of either space.
    type Entry = (Config, u64, u64);

    /// A filter over per-type counts, as the serving loop applies them.
    type Filter<'a> = dyn Fn(&[usize]) -> bool + 'a;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        /// The run-length space against the flat one (each bound from
        /// `estimate_counts`, per leaf): the same entries, top, scans and
        /// panics, on random 1–6-type pools with the base type anywhere,
        /// budgets a few ulps under a price multiple, and unclean slots.
        /// A third of the cases saturate the base side within a few
        /// auxiliary instances, over few distinct statistics (long equal
        /// tails, ties at the top-k's last bound and in the scans); half of
        /// those put one configuration exactly at the saturation point.
        #[test]
        fn run_length_space_matches_the_flat_space(
            seed in 0u64..u64::MAX,
            types in 1usize..=6,
            log_factor in 0.0f64..2.0,
            budget_shape in 0u32..3,
            shape in 0u32..4,
            saturating in 0u32..6,
        ) {
            use crate::upper_bound::flat_space::FlatSpace;
            use proptest::prelude::*;

            let mut rng = StdRng::seed_from_u64(seed);
            let pool = random_pool(&mut rng, types);
            let model = ModelKind::ALL[rng.gen_range(0..ModelKind::ALL.len())];
            let sample: Vec<u32> = match shape {
                0 => BatchSizeDistribution::production_default().sample_many(&mut rng, 300),
                1 => vec![rng.gen_range(1..=1000); 50],
                2 => (0..50).map(|_| rng.gen_range(990..=1000)).collect(),
                _ => (0..50).map(|_| rng.gen_range(1..=2)).collect(),
            };
            let mut est = ThroughputEstimator::new(pool.clone(), model, paper_calibration(), sample);
            if saturating < 2 {
                saturate(&mut rng, &mut est);
            }
            let mut budget = pool.base_type().price_per_hour * log_factor.exp();
            while affordable(&pool, budget) > 20_000 {
                budget *= 0.85;
            }
            if budget_shape > 0 {
                // `k` instances of one type's price, a few ulps under.
                let price = pool.price(rng.gen_range(0..types));
                let k = ((budget / price).floor() as u64).max(1);
                budget = f64::from_bits((k as f64 * price).to_bits() - rng.gen_range(0..4u64));
            }
            let options = EnumerationOptions::with_budget(budget);
            if saturating == 0 {
                tie_at_saturation(&mut rng, &mut est, &options);
            }
            if rng.gen_bool(0.3) {
                corrupt(&mut rng, &mut est);
            }

            let runs = caught(|| est.score_affordable(&options));
            let flat = caught(|| {
                FlatSpace::score(&pool, &options, |c| est.estimate_counts(c), TOP_CANDIDATES)
            });
            let (space, flat) = match (runs, flat) {
                (Ok(space), Ok(flat)) => (space, flat),
                (runs, flat) => {
                    prop_assert_eq!(runs.err(), flat.err());
                    return Ok(());
                }
            };

            let entry = |i: usize| -> Entry {
                (space.config(i), space.bound(i).to_bits(), space.cost(i).to_bits())
            };
            let flat_entry = |i: usize| -> Entry {
                (flat.config(i), flat.bound(i).to_bits(), flat.cost(i).to_bits())
            };
            prop_assert_eq!(space.len(), flat.len());
            for i in 0..flat.len() {
                prop_assert_eq!(entry(i), flat_entry(i));
            }
            prop_assert_eq!(space.top(), flat.top());

            let caps: Vec<usize> = (0..types).map(|_| rng.gen_range(0..4)).collect();
            let filters: [&Filter<'_>; 3] = [
                &|_| true,
                &|counts| counts.iter().zip(&caps).all(|(&n, &cap)| n <= cap),
                &|_| false,
            ];
            let mut demands = vec![-1.0, 0.0, f64::INFINITY];
            if flat.len() > 0 {
                for _ in 0..8 {
                    let a = flat.bound(rng.gen_range(0..flat.len()));
                    let b = flat.bound(rng.gen_range(0..flat.len()));
                    demands.extend([a, 0.5 * (a + b)]);
                }
            }
            for filter in filters {
                prop_assert_eq!(space.best(filter).map(entry), flat.best(filter).map(flat_entry));
                for &required in &demands {
                    prop_assert_eq!(
                        space.cheapest_covering(required, filter).map(entry),
                        flat.cheapest_covering(required, filter).map(flat_entry)
                    );
                }
            }

            // The wrong width, and the all-zero configuration.
            let mut configs = vec![Config::new(vec![1; types + 1]), Config::zeros(types)];
            if flat.len() > 0 {
                for _ in 0..4 {
                    let inside = flat.config(rng.gen_range(0..flat.len()));
                    // Every price is above 0.05 $/hr: over the budget.
                    let mut outside = inside.counts().to_vec();
                    outside[rng.gen_range(0..types)] += (budget / 0.05) as usize;
                    configs.extend([inside.clone(), Config::new(outside)]);
                    // The entry's prefix with other last-type counts:
                    // none (below a run that starts at one when the base
                    // type is last), and one or two more (inside the run
                    // or past its end).
                    for last in [0, inside.count(types - 1) + 1, inside.count(types - 1) + 2] {
                        let mut near = inside.counts().to_vec();
                        near[types - 1] = last;
                        configs.push(Config::new(near));
                    }
                }
            }
            for config in &configs {
                prop_assert_eq!(space.bound_of(config).to_bits(), flat.bound_of(config).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite bounds")]
    fn scored_space_rejects_nan() {
        let run = Run {
            start: 0,
            first: 1,
            spent: 0.0,
        };
        let _ = ScoredSpace::new(1, 1.0, vec![], vec![run], vec![1.0, f64::NAN]);
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
