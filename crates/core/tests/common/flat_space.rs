//! The scored affordable space in its flat form, kept as a test oracle:
//! a walk that visits one configuration (leaf) at a time, and a space that
//! stores every entry's counts, bound and cost side by side.  The
//! production `ScoredSpace` stores the walk's runs instead; it must answer
//! every question exactly as this one does.
//!
//! `upper_bound.rs` includes this file by path into its unit tests, where
//! the oracle proptest can also corrupt the estimator's private cutoff
//! statistics.  So the module uses only `kairos_models` items, and each
//! entry's bound comes from a caller's function (the estimator's
//! `estimate_counts`, which bounds one configuration on its own).

use kairos_models::{Config, EnumerationOptions, PoolSpec};

/// Visits every affordable configuration in lexicographic order, one leaf
/// at a time, with its running cost: the recursion over pool types, each
/// count running upwards to its cap `floor(budget / price)` and breaking
/// once `spent + price·count > budget + 1e-9`; the base type's count
/// starts at one.
fn for_each_leaf(pool: &PoolSpec, options: &EnumerationOptions, visit: impl FnMut(&[usize], f64)) {
    struct Walk<Visit> {
        prices: Vec<f64>,
        caps: Vec<usize>,
        base: usize,
        limit: f64,
        counts: Vec<usize>,
        visit: Visit,
    }

    impl<Visit: FnMut(&[usize], f64)> Walk<Visit> {
        fn recurse(&mut self, dim: usize, spent: f64) {
            let price = self.prices[dim];
            let first = usize::from(dim == self.base);
            let last = dim + 1 == self.prices.len();
            for count in first..=self.caps[dim] {
                let cost = spent + price * count as f64;
                if cost > self.limit {
                    break;
                }
                self.counts[dim] = count;
                if last {
                    (self.visit)(&self.counts, cost);
                } else {
                    self.recurse(dim + 1, cost);
                }
            }
            self.counts[dim] = 0;
        }
    }

    let prices: Vec<f64> = pool.types().iter().map(|t| t.price_per_hour).collect();
    let budget = options.budget_per_hour;
    let n = prices.len();
    let mut walk = Walk {
        caps: prices
            .iter()
            .map(|p| (budget / p).floor() as usize)
            .collect(),
        prices,
        base: pool.base_index(),
        limit: budget + 1e-9,
        counts: vec![0; n],
        visit,
    };
    walk.recurse(0, 0.0);
}

/// The scored space with per-entry counts, bound and cost, in enumeration
/// order, and its scan queries.
pub struct FlatSpace {
    types: usize,
    /// Entry `i`'s counts are `counts[i * types..(i + 1) * types]`.
    counts: Vec<usize>,
    bounds: Vec<f64>,
    costs: Vec<f64>,
    /// The first `k` entries in ranked order.
    top: Vec<usize>,
}

impl FlatSpace {
    /// Scores every configuration `options` admits on `pool` with `bound`,
    /// keeping the first `k` entries in ranked order.
    ///
    /// # Panics
    /// Wherever `bound` panics, at the first leaf in enumeration order; with
    /// "finite bounds" when two or more entries exist and one is NaN.
    pub fn score(
        pool: &PoolSpec,
        options: &EnumerationOptions,
        bound: impl Fn(&[usize]) -> f64,
        k: usize,
    ) -> Self {
        let (mut counts, mut bounds, mut costs) = (Vec::new(), Vec::new(), Vec::new());
        for_each_leaf(pool, options, |leaf, cost| {
            bounds.push(bound(leaf));
            costs.push(cost);
            counts.extend_from_slice(leaf);
        });
        assert!(
            bounds.len() < 2 || !bounds.iter().any(|b| b.is_nan()),
            "finite bounds"
        );
        let top = top_ranked(&bounds, k);
        Self {
            types: pool.num_types(),
            counts,
            bounds,
            costs,
            top,
        }
    }

    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    pub fn counts(&self, i: usize) -> &[usize] {
        &self.counts[i * self.types..(i + 1) * self.types]
    }

    pub fn bound(&self, i: usize) -> f64 {
        self.bounds[i]
    }

    pub fn cost(&self, i: usize) -> f64 {
        self.costs[i]
    }

    pub fn config(&self, i: usize) -> Config {
        Config::new(self.counts(i).to_vec())
    }

    pub fn top(&self) -> &[usize] {
        &self.top
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

    /// The cheapest entry passing `filter` whose bound covers `required`;
    /// ties go to the higher bound, then to the earlier entry.
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
}

/// The first `k` indices by bound descending, then index ascending.
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

/// An unsigned key whose ascending order is `bound`'s descending order.
fn descending_key(bound: f64) -> u64 {
    let bits = if bound == 0.0 { 0 } else { bound.to_bits() };
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    };
    !ascending
}
