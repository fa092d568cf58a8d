//! Heterogeneous pool configurations, cost accounting and search-space
//! enumeration.
//!
//! A *configuration* is a count vector over the instance types of a pool,
//! e.g. `(3, 1, 3)` in Fig. 1 means 3x g4dn.xlarge, 1x c5n.2xlarge and
//! 3x r5n.large.  Kairos enumerates every configuration whose hourly cost is
//! within the budget and ranks them by the throughput upper bound.  Sec. 5.2
//! puts the paper's search space on the order of 1000 configurations; the
//! space grows steeply with the budget (on the paper pool, 331
//! configurations at 2.5 $/hr and about 86k at 10.3 $/hr).
//!
//! [`for_each_affordable`] is the one walk over that space.  It hands the
//! configurations over in *runs*: one per choice of counts for every type
//! but the last, with the range of last-type counts that fit after it (16
//! per run on average on the paper pool at 10.3 $/hr), so a scorer's
//! innermost loop is a straight loop over one count.

use crate::instance::InstanceType;
use crate::market::Market;
use std::fmt;
use std::ops::Range;

/// An ordered set of instance types forming the heterogeneous pool.
///
/// By convention the base type (the only one meeting QoS for all batch
/// sizes) comes first; [`PoolSpec::new`] enforces exactly one base type.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSpec {
    types: Vec<InstanceType>,
}

impl PoolSpec {
    /// Creates a pool specification.
    ///
    /// # Panics
    /// Panics if the pool is empty or does not contain exactly one base type.
    pub fn new(types: Vec<InstanceType>) -> Self {
        assert!(
            !types.is_empty(),
            "pool must contain at least one instance type"
        );
        let base_count = types.iter().filter(|t| t.is_base).count();
        assert_eq!(
            base_count, 1,
            "pool must contain exactly one base instance type"
        );
        Self { types }
    }

    /// The instance types of the pool, in order.
    pub fn types(&self) -> &[InstanceType] {
        &self.types
    }

    /// Number of instance types (the dimensionality of the config space).
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Index of the base instance type.
    pub fn base_index(&self) -> usize {
        self.types
            .iter()
            .position(|t| t.is_base)
            .expect("constructor guarantees a base type")
    }

    /// The base instance type.
    pub fn base_type(&self) -> &InstanceType {
        &self.types[self.base_index()]
    }

    /// Hourly price of one instance of type `index`.
    pub fn price(&self, index: usize) -> f64 {
        self.types[index].price_per_hour
    }
}

/// A heterogeneous configuration: how many instances of each pool type to rent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Config {
    counts: Vec<usize>,
}

impl Config {
    /// Creates a configuration from per-type instance counts (aligned with the
    /// pool's type order).
    pub fn new(counts: Vec<usize>) -> Self {
        assert!(
            !counts.is_empty(),
            "configuration must cover at least one type"
        );
        Self { counts }
    }

    /// Creates the all-zero configuration for a pool of `num_types` types.
    pub fn zeros(num_types: usize) -> Self {
        Self::new(vec![0; num_types])
    }

    /// The per-type instance counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Count of instances of type `index`.
    pub fn count(&self, index: usize) -> usize {
        self.counts[index]
    }

    /// Total number of instances across all types.
    pub fn total_instances(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Hourly cost of the configuration under the given pool's prices.
    pub fn cost(&self, pool: &PoolSpec) -> f64 {
        assert_eq!(
            self.counts.len(),
            pool.num_types(),
            "config/pool dimension mismatch"
        );
        self.counts
            .iter()
            .zip(pool.types())
            .map(|(&c, t)| t.cost_of(c))
            .sum()
    }

    /// Hourly cost of the configuration under a [`Market`]'s prices at a
    /// point in virtual time.  For a [`ConstantMarket`] built from `pool`,
    /// this reproduces [`Config::cost`] **bit-for-bit** (same coordinate
    /// order, same multiply, same summation order).
    ///
    /// [`ConstantMarket`]: crate::market::ConstantMarket
    pub fn cost_at(&self, market: &dyn Market, at_us: u64) -> f64 {
        assert_eq!(
            self.counts.len(),
            market.num_offerings(),
            "config/market dimension mismatch"
        );
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| market.price_at(i, at_us) * c as f64)
            .sum()
    }

    /// Dollars billed for holding the configuration over `[from_us, to_us)`
    /// under a [`Market`]: the time integral of each offering's price times
    /// its instance count.  For a constant-price market this equals
    /// `cost(pool) × hours` (property-tested to 1e-9).
    pub fn billed_cost(&self, market: &dyn Market, from_us: u64, to_us: u64) -> f64 {
        assert_eq!(
            self.counts.len(),
            market.num_offerings(),
            "config/market dimension mismatch"
        );
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| market.billed_cost(i, from_us, to_us) * c as f64)
            .sum()
    }

    /// Whether the configuration uses only the pool's base type.
    pub fn is_homogeneous(&self, pool: &PoolSpec) -> bool {
        let base = pool.base_index();
        self.counts
            .iter()
            .enumerate()
            .all(|(i, &c)| i == base || c == 0)
    }

    /// Whether this configuration is a *sub-configuration* of `other`
    /// (paper Sec. 5.2 / Algorithm 1): `other` can be reached from `self` by
    /// only adding instances.  Every configuration is a sub-configuration of
    /// itself.
    pub fn is_sub_config_of(&self, other: &Config) -> bool {
        self.counts.len() == other.counts.len()
            && self
                .counts
                .iter()
                .zip(other.counts.iter())
                .all(|(a, b)| a <= b)
    }

    /// Squared Euclidean distance between two configurations, the similarity
    /// metric of Kairos's SSE-centroid selection rule (Sec. 5.2).
    pub fn squared_distance(&self, other: &Config) -> f64 {
        assert_eq!(self.counts.len(), other.counts.len(), "dimension mismatch");
        self.counts
            .iter()
            .zip(other.counts.iter())
            .map(|(&a, &b)| {
                let d = a as f64 - b as f64;
                d * d
            })
            .sum()
    }

    /// Returns a copy with the count of type `index` incremented by one.
    pub fn with_one_more(&self, index: usize) -> Config {
        let mut counts = self.counts.clone();
        counts[index] += 1;
        Config::new(counts)
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// Options controlling configuration-space enumeration.  Every enumerated
/// configuration holds at least one base instance: the pool needs one to
/// serve the largest queries within QoS, and the paper's configurations all
/// satisfy it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnumerationOptions {
    /// Hourly cost budget in dollars.
    pub budget_per_hour: f64,
}

impl EnumerationOptions {
    /// Options for a positive budget.
    pub fn with_budget(budget_per_hour: f64) -> Self {
        assert!(budget_per_hour > 0.0, "budget must be positive");
        Self { budget_per_hour }
    }
}

/// Enumerates every configuration whose cost fits within the budget.
///
/// The enumeration is exhaustive over the axis-aligned box bounded by
/// `floor(budget / price_i)` per type, filtered by total cost; this is the
/// same search space the paper's exhaustive offline search covers.  A
/// collect over [`for_each_affordable`]'s runs, each expanded in place, so
/// the order is its lexicographic walk order.
pub fn enumerate_configs(pool: &PoolSpec, options: &EnumerationOptions) -> Vec<Config> {
    let mut out = Vec::new();
    for_each_affordable(
        pool,
        options,
        (),
        |_, _, _, _| {},
        |prefix, _, lasts, _| {
            out.extend(lasts.map(|last| {
                let mut counts = Vec::with_capacity(prefix.len() + 1);
                counts.extend_from_slice(prefix);
                counts.push(last);
                Config::new(counts)
            }))
        },
    );
    out
}

/// Visits every configuration [`enumerate_configs`] returns, in the same
/// (lexicographic) order, one *run* at a time, carrying a caller-defined
/// state down the walk.  This is the one place the affordable space is
/// defined; every enumerator and scorer walks it.
///
/// The walk recurses over the types in pool order.  Type `i`'s count runs
/// upwards to its cap `floor(budget / price_i)` and breaks as soon as the
/// running cost `spent + price_i·count` exceeds the budget (`+1e-9`
/// slack).  The base type's count starts at one, so the walk never enters
/// a subtree without a base instance.
///
/// A run is one *prefix* (a fixed count for every type but the last) with
/// every last-type count the same cap and break admit after it.
/// `visit(prefix, spent, lasts, state)` receives the prefix's counts (one
/// per type but the last), its running cost `spent`, and the non-empty,
/// ascending range `lasts` of last-type counts; the range starts at one
/// when the base type is last, else at zero.  A prefix that admits no
/// last-type count is not visited.  The configuration `(prefix, c)` for
/// `c` in `lasts` costs `spent + price_last·c`: pool order, one multiply
/// per type, so it has the bits of [`Config::cost`].
///
/// The state is the caller's fold over the prefix.  Before the walk
/// descends past type `i` at count `c`, `fold(parent, child, i, c)` writes
/// into `child` the state of the prefix `parent` describes extended by `c`
/// instances of type `i` (the walk keeps one state per level, so `child`
/// is scratch it overwrites).  `visit` receives the state of the whole
/// prefix; per-configuration work reads only the last count, so it stays
/// independent of the pool's width.  `root` is the empty prefix's state.
///
/// # Panics
/// Panics with "price must be positive" when a type's price is zero,
/// negative or not finite: a zero price makes that type's count unbounded.
pub fn for_each_affordable<S: Clone>(
    pool: &PoolSpec,
    options: &EnumerationOptions,
    root: S,
    fold: impl FnMut(&S, &mut S, usize, usize),
    visit: impl FnMut(&[usize], f64, Range<usize>, &S),
) {
    struct Walk<S, Fold, Visit> {
        prices: Vec<f64>,
        caps: Vec<usize>,
        base: usize,
        limit: f64,
        /// The prefix's counts, one per type but the last.
        counts: Vec<usize>,
        /// `states[i]` is the fold over types `0..i` of `counts`.
        states: Vec<S>,
        fold: Fold,
        visit: Visit,
    }

    impl<S, Fold, Visit> Walk<S, Fold, Visit>
    where
        Fold: FnMut(&S, &mut S, usize, usize),
        Visit: FnMut(&[usize], f64, Range<usize>, &S),
    {
        fn recurse(&mut self, dim: usize, spent: f64) {
            let price = self.prices[dim];
            let first = usize::from(dim == self.base);
            if dim == self.counts.len() {
                // The last type: the counts the cap and the break admit.
                let mut end = first;
                while end <= self.caps[dim] {
                    if spent + price * end as f64 > self.limit {
                        break;
                    }
                    end += 1;
                }
                if end > first {
                    (self.visit)(&self.counts, spent, first..end, &self.states[dim]);
                }
                return;
            }
            for count in first..=self.caps[dim] {
                let cost = spent + price * count as f64;
                if cost > self.limit {
                    break;
                }
                self.counts[dim] = count;
                let (prefix, rest) = self.states.split_at_mut(dim + 1);
                (self.fold)(&prefix[dim], &mut rest[0], dim, count);
                self.recurse(dim + 1, cost);
            }
            self.counts[dim] = 0;
        }
    }

    let prices: Vec<f64> = pool.types().iter().map(|t| t.price_per_hour).collect();
    assert!(
        prices.iter().all(|p| p.is_finite() && *p > 0.0),
        "price must be positive"
    );
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
        counts: vec![0; n - 1],
        states: vec![root; n],
        fold,
        visit,
    };
    walk.recurse(0, 0.0);
}

/// Returns the optimal *homogeneous* configuration: the maximum number of
/// base instances that fit in the budget (paper Sec. 8.1).
pub fn best_homogeneous(pool: &PoolSpec, budget_per_hour: f64) -> Config {
    assert!(budget_per_hour > 0.0, "budget must be positive");
    let base = pool.base_index();
    let count = (budget_per_hour / pool.price(base)).floor() as usize;
    let mut counts = vec![0usize; pool.num_types()];
    counts[base] = count;
    Config::new(counts)
}

/// The fraction of the budget a configuration leaves unused.  The paper
/// compensates the homogeneous baseline by scaling its throughput up
/// proportionally to this slack (Sec. 8.1); Kairos's own slack is wasted.
pub fn budget_slack_ratio(config: &Config, pool: &PoolSpec, budget_per_hour: f64) -> f64 {
    let cost = config.cost(pool);
    ((budget_per_hour - cost) / budget_per_hour).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ec2;

    fn paper_pool() -> PoolSpec {
        PoolSpec::new(ec2::paper_pool())
    }

    #[test]
    fn pool_requires_exactly_one_base() {
        let pool = paper_pool();
        assert_eq!(pool.base_index(), 0);
        assert_eq!(pool.base_type().name, "g4dn.xlarge");
    }

    #[test]
    #[should_panic(expected = "exactly one base")]
    fn pool_rejects_zero_base_types() {
        PoolSpec::new(vec![ec2::r5n_large(), ec2::t3_xlarge()]);
    }

    #[test]
    fn figure1_config_costs() {
        // Costs of the Fig. 1 configurations on the (G1, C1, C2) pool.
        let pool = PoolSpec::new(ec2::figure1_pool());
        let homogeneous = Config::new(vec![4, 0, 0]);
        assert!((homogeneous.cost(&pool) - 2.104).abs() < 1e-9);
        let hetero = Config::new(vec![3, 1, 3]);
        assert!((hetero.cost(&pool) - (3.0 * 0.526 + 0.432 + 3.0 * 0.149)).abs() < 1e-9);
        assert!(hetero.cost(&pool) <= 2.5);
        let c209 = Config::new(vec![2, 0, 9]);
        assert!(c209.cost(&pool) <= 2.5);
    }

    #[test]
    fn constant_market_cost_at_is_bitwise_cost() {
        use crate::market::ConstantMarket;
        let pool = paper_pool();
        let market = ConstantMarket::from_pool(&pool);
        for counts in [vec![4, 0, 0, 0], vec![3, 1, 3, 0], vec![1, 2, 0, 5]] {
            let config = Config::new(counts);
            assert_eq!(
                config.cost_at(&market, 0).to_bits(),
                config.cost(&pool).to_bits(),
                "constant market must reproduce the static cost exactly"
            );
            assert_eq!(
                config.cost_at(&market, u64::MAX).to_bits(),
                config.cost(&pool).to_bits()
            );
            // One billed hour equals the hourly cost to within associativity.
            let billed = config.billed_cost(&market, 0, 3_600_000_000);
            assert!((billed - config.cost(&pool)).abs() < 1e-9);
        }
    }

    #[test]
    fn homogeneity_detection() {
        let pool = paper_pool();
        assert!(Config::new(vec![4, 0, 0, 0]).is_homogeneous(&pool));
        assert!(!Config::new(vec![3, 1, 0, 0]).is_homogeneous(&pool));
        assert!(Config::new(vec![0, 0, 0, 0]).is_homogeneous(&pool));
    }

    #[test]
    fn sub_configuration_relation() {
        let a = Config::new(vec![1, 2, 0, 3]);
        let b = Config::new(vec![2, 2, 1, 3]);
        assert!(a.is_sub_config_of(&b));
        assert!(!b.is_sub_config_of(&a));
        assert!(a.is_sub_config_of(&a));
    }

    #[test]
    fn squared_distance_matches_hand_computation() {
        let a = Config::new(vec![3, 1, 3, 0]);
        let b = Config::new(vec![2, 0, 9, 0]);
        assert_eq!(a.squared_distance(&b), 1.0 + 1.0 + 36.0);
        assert_eq!(a.squared_distance(&a), 0.0);
    }

    #[test]
    fn enumeration_respects_budget_and_base_requirement() {
        let pool = paper_pool();
        let opts = EnumerationOptions::with_budget(2.5);
        let configs = enumerate_configs(&pool, &opts);
        assert!(!configs.is_empty());
        for c in &configs {
            assert!(c.cost(&pool) <= 2.5 + 1e-9);
            assert!(c.count(0) >= 1);
        }
        // The best homogeneous config must be part of the space.
        let homo = best_homogeneous(&pool, 2.5);
        assert!(configs.contains(&homo));
        // The paper says the search space is on the order of 1000 configs.
        assert!(
            configs.len() > 200,
            "search space unexpectedly small: {}",
            configs.len()
        );
        assert!(
            configs.len() < 20_000,
            "search space unexpectedly large: {}",
            configs.len()
        );
    }

    #[test]
    #[should_panic(expected = "price must be positive")]
    fn walk_rejects_a_zero_price() {
        // A pool built through the public fields can hold a price
        // `InstanceType::new` rejects; its type's count would be unbounded.
        let mut types = ec2::paper_pool();
        types[2].price_per_hour = 0.0;
        enumerate_configs(&PoolSpec::new(types), &EnumerationOptions::with_budget(2.5));
    }

    #[test]
    fn best_homogeneous_fills_budget() {
        let pool = paper_pool();
        let homo = best_homogeneous(&pool, 2.5);
        assert_eq!(homo.count(0), 4); // 4 x 0.526 = 2.104 <= 2.5 < 5 x 0.526
        assert_eq!(homo.total_instances(), 4);
        let slack = budget_slack_ratio(&homo, &pool, 2.5);
        assert!((slack - (2.5 - 2.104) / 2.5).abs() < 1e-9);
    }

    #[test]
    fn display_matches_paper_notation() {
        let c = Config::new(vec![3, 1, 3]);
        assert_eq!(format!("{c}"), "(3, 1, 3)");
    }

    #[test]
    fn with_one_more_increments_a_single_axis() {
        let c = Config::new(vec![1, 0, 2]);
        let d = c.with_one_more(1);
        assert_eq!(d.counts(), &[1, 1, 2]);
        assert!(c.is_sub_config_of(&d));
    }
}
