//! The cloud purchase-option market: offerings, time-varying prices and
//! preemption.
//!
//! The paper buys every instance at its static on-demand rate, so the only
//! cost lever is *which hardware* to rent.  Real clouds expose a second,
//! equally large axis: *how* to buy it.  Spot/preemptible capacity trades a
//! 3–10× discount for revocation risk (a short notice, then the instance is
//! reclaimed), and reserved capacity trades commitment for a flat discount.
//! This module makes that axis first-class:
//!
//! * an [`Offering`] couples an [`InstanceType`] with a [`PurchaseOption`]
//!   (on-demand, reserved, or spot with a [`PriceTrace`] and a
//!   [`PreemptionProcess`]);
//! * an [`OfferingCatalog`] is the ordered set of offerings a deployment may
//!   buy from — the market-era generalization of [`PoolSpec`], lowered back
//!   to a `PoolSpec` via [`OfferingCatalog::effective_pool`] so the whole
//!   planning and simulation stack enumerates *offerings* the same way it
//!   enumerated hardware types;
//! * a [`Market`] answers [`price_at`](Market::price_at) /
//!   [`billed_cost`](Market::billed_cost) queries and yields a deterministic,
//!   seeded stream of [`MarketEvent`]s (price steps and preemption notices)
//!   that the simulator delivers through its calendar queue.
//!
//! The design contract that keeps the redesign a *strict generalization*:
//! a [`ConstantMarket`] built from a pool reproduces the static cost model
//! bit-for-bit — [`Config::cost_at`](crate::Config::cost_at) equals
//! [`Config::cost`](crate::Config::cost), and
//! [`Config::billed_cost`](crate::Config::billed_cost) over one hour equals
//! `cost()` to within floating-point associativity (property-tested).

use crate::config::PoolSpec;
use crate::fault::FailureDomain;
use crate::instance::InstanceType;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Microseconds of virtual time (mirrors `kairos_workload::TimeUs`; this
/// crate sits below the workload crate in the dependency graph).
pub type MarketTimeUs = u64;

/// Microseconds per billed hour (the integration unit of [`billed_dollars`]).
const US_PER_HOUR: f64 = 3.6e9;

/// Dollars billed for renting at a constant hourly price over
/// `[from_us, to_us)`.  Every constant-price billing path in the workspace
/// funnels through this one expression so that market-disabled and
/// constant-market runs produce bit-identical dollar accounting.
#[inline]
pub fn billed_dollars(price_per_hour: f64, from_us: MarketTimeUs, to_us: MarketTimeUs) -> f64 {
    price_per_hour * (to_us.saturating_sub(from_us) as f64 / US_PER_HOUR)
}

/// A typed validation error from the offering catalog and its building
/// blocks (prices, discounts, traces).
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogError {
    /// A price was zero, negative, or not finite.
    InvalidPrice {
        /// The offending price.
        price: f64,
    },
    /// A reserved-capacity discount was outside `[0, 1)`.
    InvalidDiscount {
        /// The offending discount fraction.
        discount: f64,
    },
    /// A spot price trace had no steps.
    EmptyPriceTrace,
    /// A spot price trace's steps were not sorted by time, or did not start
    /// at time zero.
    UnsortedPriceTrace,
    /// The catalog had no offerings.
    EmptyCatalog,
    /// The catalog had no base offering (exactly one is required).
    NoBaseOffering,
    /// The catalog had more than one base offering.
    MultipleBaseOfferings,
    /// The base offering was not purchased on-demand (a preemptible base
    /// instance cannot anchor QoS for the largest queries).
    NonOnDemandBase,
    /// Two offerings shared the same `(hardware, purchase kind)` pair.
    DuplicateOffering {
        /// Index of the second occurrence within the catalog.
        index: usize,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::InvalidPrice { price } => {
                write!(f, "price must be positive and finite, got {price}")
            }
            CatalogError::InvalidDiscount { discount } => {
                write!(f, "reserved discount must lie in [0, 1), got {discount}")
            }
            CatalogError::EmptyPriceTrace => write!(f, "spot price trace has no steps"),
            CatalogError::UnsortedPriceTrace => {
                write!(
                    f,
                    "spot price trace must start at t=0 and be sorted by time"
                )
            }
            CatalogError::EmptyCatalog => write!(f, "offering catalog is empty"),
            CatalogError::NoBaseOffering => {
                write!(f, "catalog must contain exactly one base offering")
            }
            CatalogError::MultipleBaseOfferings => {
                write!(f, "catalog contains more than one base offering")
            }
            CatalogError::NonOnDemandBase => {
                write!(f, "the base offering must be purchased on-demand")
            }
            CatalogError::DuplicateOffering { index } => {
                write!(
                    f,
                    "offering {index} duplicates an earlier (hardware, purchase) pair"
                )
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// A piecewise-constant spot price over virtual time: step `i` sets the
/// hourly price from its timestamp until the next step.  The first step must
/// be at time zero (so the price is defined from the start of the run).
#[derive(Debug, Clone, PartialEq)]
pub struct PriceTrace {
    steps: Vec<(MarketTimeUs, f64)>,
}

impl PriceTrace {
    /// A trace holding one price forever.
    pub fn constant(price_per_hour: f64) -> Self {
        Self::try_new(vec![(0, price_per_hour)]).expect("constant trace from a positive price")
    }

    /// Validates and builds a trace from `(time_us, price_per_hour)` steps.
    pub fn try_new(steps: Vec<(MarketTimeUs, f64)>) -> Result<Self, CatalogError> {
        if steps.is_empty() {
            return Err(CatalogError::EmptyPriceTrace);
        }
        if steps[0].0 != 0 || steps.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(CatalogError::UnsortedPriceTrace);
        }
        if let Some(&(_, price)) = steps.iter().find(|(_, p)| !(p.is_finite() && *p > 0.0)) {
            return Err(CatalogError::InvalidPrice { price });
        }
        Ok(Self { steps })
    }

    /// The `(time_us, price_per_hour)` steps, sorted by time.
    pub fn steps(&self) -> &[(MarketTimeUs, f64)] {
        &self.steps
    }

    /// The hourly price in force at `at_us` (the last step at or before it).
    pub fn price_at(&self, at_us: MarketTimeUs) -> f64 {
        let idx = self.steps.partition_point(|&(t, _)| t <= at_us);
        self.steps[idx - 1].1
    }

    /// Dollars billed for renting at this trace over `[from_us, to_us)`:
    /// the exact integral of the piecewise-constant price.
    pub fn billed_dollars(&self, from_us: MarketTimeUs, to_us: MarketTimeUs) -> f64 {
        if to_us <= from_us {
            return 0.0;
        }
        let mut total = 0.0;
        for (i, &(start, price)) in self.steps.iter().enumerate() {
            let end = self
                .steps
                .get(i + 1)
                .map(|&(t, _)| t)
                .unwrap_or(MarketTimeUs::MAX);
            let lo = start.max(from_us);
            let hi = end.min(to_us);
            if hi > lo {
                total += billed_dollars(price, lo, hi);
            }
        }
        total
    }
}

/// When (in virtual time) a spot offering's capacity is reclaimed.  All
/// variants are deterministic given their parameters, so a market replays
/// the same storm on every run with the same seed.
#[derive(Debug, Clone, PartialEq)]
pub enum PreemptionProcess {
    /// Capacity is never reclaimed.
    None,
    /// Explicit notice times (a scripted preemption storm).
    At {
        /// Virtual times at which a preemption notice is issued.
        notices_us: Vec<MarketTimeUs>,
    },
    /// Memoryless reclamation: notice inter-arrival gaps are exponential
    /// with the given hourly rate, drawn from a seeded stream.
    Poisson {
        /// Expected notices per hour of virtual time.
        rate_per_hour: f64,
        /// Seed of the notice stream.
        seed: u64,
    },
}

impl PreemptionProcess {
    /// Materializes the notice times within `[0, horizon_us]`, sorted.
    pub fn notices_within(&self, horizon_us: MarketTimeUs) -> Vec<MarketTimeUs> {
        match self {
            PreemptionProcess::None => Vec::new(),
            PreemptionProcess::At { notices_us } => {
                let mut out: Vec<MarketTimeUs> = notices_us
                    .iter()
                    .copied()
                    .filter(|&t| t <= horizon_us)
                    .collect();
                out.sort_unstable();
                out
            }
            PreemptionProcess::Poisson {
                rate_per_hour,
                seed,
            } => {
                // The RNG is seeded locally from the process's own seed, so
                // repeated calls at the same horizon replay the identical
                // draw sequence — determinism the simulator's calendar
                // materialization relies on (asserted in the tests below).
                if *rate_per_hour <= 0.0 {
                    return Vec::new();
                }
                let mean_gap_us = US_PER_HOUR / rate_per_hour;
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut out = Vec::new();
                let mut t = 0.0f64;
                loop {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    t += -mean_gap_us * u.ln();
                    if t > horizon_us as f64 {
                        break;
                    }
                    out.push(t as MarketTimeUs);
                }
                // Truncating to whole microseconds can land two exponential
                // gaps on the same tick at high rates; a duplicate notice
                // would double-notice the same offering (and double-count
                // `preemption_notices`), so collapse them.
                out.dedup();
                out
            }
        }
    }
}

/// How an offering's capacity is bought.
#[derive(Debug, Clone, PartialEq)]
pub enum PurchaseOption {
    /// Pay-as-you-go at the instance type's listed price.  Never preempted.
    OnDemand,
    /// Committed capacity at a flat fractional discount off the on-demand
    /// price.  Never preempted.
    Reserved {
        /// Fraction off the on-demand price, in `[0, 1)`.
        discount: f64,
    },
    /// Preemptible capacity at a time-varying market price.
    Spot {
        /// The hourly price over virtual time.
        price_trace: PriceTrace,
        /// When the cloud reclaims this offering's capacity.
        preemption_process: PreemptionProcess,
    },
}

impl PurchaseOption {
    /// Short label of the purchase kind (`"od"`, `"rsv"`, `"spot"`).
    pub fn kind_label(&self) -> &'static str {
        match self {
            PurchaseOption::OnDemand => "od",
            PurchaseOption::Reserved { .. } => "rsv",
            PurchaseOption::Spot { .. } => "spot",
        }
    }

    fn kind_discriminant(&self) -> u8 {
        match self {
            PurchaseOption::OnDemand => 0,
            PurchaseOption::Reserved { .. } => 1,
            PurchaseOption::Spot { .. } => 2,
        }
    }
}

/// One purchasable line item: an instance type at a purchase option, placed
/// in a failure domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Offering {
    /// The hardware being rented.  `instance_type.price_per_hour` is the
    /// on-demand *reference* price; the effective price comes from
    /// [`Offering::price_at`].
    pub instance_type: InstanceType,
    /// How the hardware is bought.
    pub purchase: PurchaseOption,
    /// Where the hardware lives in the cloud's failure hierarchy.  Defaults
    /// to the single [`FailureDomain::global`] domain, which reproduces the
    /// pre-fault, domain-blind world.
    pub placement: FailureDomain,
}

impl Offering {
    /// An on-demand offering of a type.
    pub fn on_demand(instance_type: InstanceType) -> Self {
        Self {
            instance_type,
            purchase: PurchaseOption::OnDemand,
            placement: FailureDomain::default(),
        }
    }

    /// A reserved offering of a type at a fractional discount.
    ///
    /// # Panics
    /// Panics if the discount is outside `[0, 1)` (use
    /// [`OfferingCatalog::try_new`] for a non-panicking path).
    pub fn reserved(instance_type: InstanceType, discount: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&discount),
            "reserved discount must lie in [0, 1)"
        );
        Self {
            instance_type,
            purchase: PurchaseOption::Reserved { discount },
            placement: FailureDomain::default(),
        }
    }

    /// A spot offering of a type.  Spot capacity can never be the pool's
    /// base anchor, so the `is_base` flag is cleared.
    pub fn spot(
        mut instance_type: InstanceType,
        price_trace: PriceTrace,
        preemption_process: PreemptionProcess,
    ) -> Self {
        instance_type.is_base = false;
        Self {
            instance_type,
            purchase: PurchaseOption::Spot {
                price_trace,
                preemption_process,
            },
            placement: FailureDomain::default(),
        }
    }

    /// Places the offering in a failure domain.  Offerings of the same
    /// `(hardware, purchase kind)` pair may coexist in *distinct* domains —
    /// that is how a catalog spreads one hardware type across zones.
    #[must_use]
    pub fn in_domain(mut self, placement: FailureDomain) -> Self {
        self.placement = placement;
        self
    }

    /// Display label, e.g. `"g4dn.xlarge@spot"`.
    pub fn label(&self) -> String {
        format!("{}@{}", self.instance_type.name, self.purchase.kind_label())
    }

    /// The hourly price of this offering at `at_us`.
    pub fn price_at(&self, at_us: MarketTimeUs) -> f64 {
        match &self.purchase {
            PurchaseOption::OnDemand => self.instance_type.price_per_hour,
            PurchaseOption::Reserved { discount } => {
                self.instance_type.price_per_hour * (1.0 - discount)
            }
            PurchaseOption::Spot { price_trace, .. } => price_trace.price_at(at_us),
        }
    }

    /// Whether this offering's capacity can be preempted.
    pub fn preemptible(&self) -> bool {
        matches!(
            &self.purchase,
            PurchaseOption::Spot {
                preemption_process,
                ..
            } if !matches!(preemption_process, PreemptionProcess::None)
        )
    }
}

/// A deterministic market occurrence, delivered to the simulator in time
/// order through its calendar queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MarketEvent {
    /// An offering's hourly price changed.
    PriceStep {
        /// When the new price takes effect.
        at_us: MarketTimeUs,
        /// Index of the offering within the catalog.
        offering: usize,
        /// The new hourly price.
        price_per_hour: f64,
    },
    /// The cloud announced reclamation of an offering's capacity: every live
    /// instance of the offering must drain within the notice window, after
    /// which it is killed.
    PreemptionNotice {
        /// When the notice is issued.
        at_us: MarketTimeUs,
        /// Index of the offering within the catalog.
        offering: usize,
        /// Grace period between notice and forced termination.
        notice_us: MarketTimeUs,
    },
}

impl MarketEvent {
    /// The virtual time the event occurs.
    pub fn at_us(&self) -> MarketTimeUs {
        match self {
            MarketEvent::PriceStep { at_us, .. } | MarketEvent::PreemptionNotice { at_us, .. } => {
                *at_us
            }
        }
    }

    /// The catalog index of the offering the event concerns.
    pub fn offering(&self) -> usize {
        match self {
            MarketEvent::PriceStep { offering, .. }
            | MarketEvent::PreemptionNotice { offering, .. } => *offering,
        }
    }
}

/// The pricing oracle of a run: per-offering prices over virtual time plus
/// the deterministic event stream the simulator replays.
///
/// Implementations must be pure functions of their construction parameters:
/// two queries with the same arguments return the same answer, and
/// [`events`](Market::events) yields the same stream on every call.
pub trait Market: fmt::Debug + Send + Sync {
    /// Number of offerings this market prices (the dimensionality of every
    /// [`Config`](crate::Config) it can cost).
    fn num_offerings(&self) -> usize;

    /// The hourly price of an offering at a point in virtual time.
    fn price_at(&self, offering: usize, at_us: MarketTimeUs) -> f64;

    /// Dollars billed for renting one instance of an offering over
    /// `[from_us, to_us)` — the exact time integral of the price.
    fn billed_cost(&self, offering: usize, from_us: MarketTimeUs, to_us: MarketTimeUs) -> f64;

    /// Every price step and preemption notice within `[0, horizon_us]`,
    /// sorted by time.  Deterministic: the same market yields the same
    /// stream on every call.
    fn events(&self, horizon_us: MarketTimeUs) -> Vec<MarketEvent>;
}

/// A market with constant prices and no events: the static cost model of the
/// original paper, expressed in market terms.  Built from a [`PoolSpec`],
/// it reproduces `Config::cost` bit-for-bit (see [`Config::cost_at`]).
///
/// [`Config::cost_at`]: crate::Config::cost_at
/// [`Config::cost`]: crate::Config::cost
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantMarket {
    prices: Vec<f64>,
}

impl ConstantMarket {
    /// A constant market holding each pool type at its listed price.
    pub fn from_pool(pool: &PoolSpec) -> Self {
        Self {
            prices: pool.types().iter().map(|t| t.price_per_hour).collect(),
        }
    }
}

impl Market for ConstantMarket {
    fn num_offerings(&self) -> usize {
        self.prices.len()
    }

    fn price_at(&self, offering: usize, _at_us: MarketTimeUs) -> f64 {
        self.prices[offering]
    }

    fn billed_cost(&self, offering: usize, from_us: MarketTimeUs, to_us: MarketTimeUs) -> f64 {
        billed_dollars(self.prices[offering], from_us, to_us)
    }

    fn events(&self, _horizon_us: MarketTimeUs) -> Vec<MarketEvent> {
        Vec::new()
    }
}

/// The ordered set of offerings a deployment may buy from — the market-era
/// pool.  Offering order is the coordinate order of every market-aware
/// [`Config`](crate::Config).
#[derive(Debug, Clone, PartialEq)]
pub struct OfferingCatalog {
    offerings: Vec<Offering>,
}

impl OfferingCatalog {
    /// Validates and builds a catalog.  Exactly one offering must be the
    /// base anchor, it must be bought on-demand, and no `(hardware,
    /// purchase kind)` pair may repeat.
    pub fn try_new(offerings: Vec<Offering>) -> Result<Self, CatalogError> {
        if offerings.is_empty() {
            return Err(CatalogError::EmptyCatalog);
        }
        for o in &offerings {
            let price = o.instance_type.price_per_hour;
            if !(price.is_finite() && price > 0.0) {
                return Err(CatalogError::InvalidPrice { price });
            }
            if let PurchaseOption::Reserved { discount } = &o.purchase {
                if !(0.0..1.0).contains(discount) {
                    return Err(CatalogError::InvalidDiscount {
                        discount: *discount,
                    });
                }
            }
        }
        for (i, o) in offerings.iter().enumerate() {
            // The dedup key includes the placement: the same (hardware,
            // purchase kind) pair in *distinct* failure domains is two
            // legitimately different line items.
            let dup = offerings[..i].iter().any(|p| {
                p.instance_type.name == o.instance_type.name
                    && p.purchase.kind_discriminant() == o.purchase.kind_discriminant()
                    && p.placement == o.placement
            });
            if dup {
                return Err(CatalogError::DuplicateOffering { index: i });
            }
        }
        let base: Vec<usize> = offerings
            .iter()
            .enumerate()
            .filter(|(_, o)| o.instance_type.is_base)
            .map(|(i, _)| i)
            .collect();
        match base.as_slice() {
            [] => return Err(CatalogError::NoBaseOffering),
            [i] => {
                if offerings[*i].purchase.kind_discriminant() != 0 {
                    return Err(CatalogError::NonOnDemandBase);
                }
            }
            _ => return Err(CatalogError::MultipleBaseOfferings),
        }
        Ok(Self { offerings })
    }

    /// [`Self::try_new`], panicking on validation failure.
    ///
    /// # Panics
    /// Panics if the offerings do not form a valid catalog.
    pub fn new(offerings: Vec<Offering>) -> Self {
        Self::try_new(offerings).expect("invalid offering catalog")
    }

    /// The all-on-demand catalog of a pool: one [`PurchaseOption::OnDemand`]
    /// offering per pool type, in pool order.  The identity embedding of the
    /// pre-market cost model.
    pub fn on_demand(pool: &PoolSpec) -> Self {
        Self::new(
            pool.types()
                .iter()
                .map(|t| Offering::on_demand(t.clone()))
                .collect(),
        )
    }

    /// The offerings, in coordinate order.
    pub fn offerings(&self) -> &[Offering] {
        &self.offerings
    }

    /// The offering at a coordinate.
    pub fn offering(&self, index: usize) -> &Offering {
        &self.offerings[index]
    }

    /// Number of offerings (the dimensionality of market-aware configs).
    pub fn len(&self) -> usize {
        self.offerings.len()
    }

    /// Whether the catalog is empty (never true for a validated catalog).
    pub fn is_empty(&self) -> bool {
        self.offerings.is_empty()
    }

    /// Coordinate of the base offering.
    pub fn base_index(&self) -> usize {
        self.offerings
            .iter()
            .position(|o| o.instance_type.is_base)
            .expect("validated catalog has a base offering")
    }

    /// Display label of an offering, e.g. `"r5n.large@spot"`.
    pub fn label(&self, index: usize) -> String {
        self.offerings[index].label()
    }

    /// The on-demand *reference* price of an offering's hardware (what the
    /// same instance costs without the purchase-option discount).
    pub fn on_demand_price(&self, index: usize) -> f64 {
        self.offerings[index].instance_type.price_per_hour
    }

    /// The per-offering failure-domain table, in coordinate order — the
    /// lowering that keeps solvers domain-free: planners enumerate over the
    /// [`effective_pool`](Self::effective_pool) exactly as before, and
    /// domain-aware layers (the simulator's fault engine, the serving loop's
    /// spread constraint) resolve coordinate `i` back to a domain through
    /// this table.
    pub fn domains(&self) -> Vec<FailureDomain> {
        self.offerings.iter().map(|o| o.placement.clone()).collect()
    }

    /// Lowers the catalog to a [`PoolSpec`] whose type `i` is offering `i`
    /// priced at its time-zero price.  Instance type *names* stay the
    /// hardware names, so latency calibration, learned predictors and
    /// schedulers resolve identically for every purchase option of the same
    /// hardware — a spot `g4dn.xlarge` is the same silicon as an on-demand
    /// one, it just costs less and can vanish.
    pub fn effective_pool(&self) -> PoolSpec {
        self.pool_at(0)
    }

    /// [`Self::effective_pool`] priced at a point in virtual time.
    pub fn pool_at(&self, at_us: MarketTimeUs) -> PoolSpec {
        let prices: Vec<f64> = self.offerings.iter().map(|o| o.price_at(at_us)).collect();
        self.pool_with_prices(&prices)
    }

    /// Lowers the catalog to a [`PoolSpec`] with explicit per-offering
    /// prices (e.g. live market prices with cooldown penalties applied).
    ///
    /// # Panics
    /// Panics if `prices` does not have one entry per offering.
    pub fn pool_with_prices(&self, prices: &[f64]) -> PoolSpec {
        assert_eq!(prices.len(), self.offerings.len(), "one price per offering");
        PoolSpec::new(
            self.offerings
                .iter()
                .zip(prices)
                .map(|(o, &price)| InstanceType {
                    name: o.instance_type.name.clone(),
                    class: o.instance_type.class,
                    price_per_hour: price,
                    is_base: o.instance_type.is_base,
                })
                .collect(),
        )
    }
}

/// The [`Market`] realized by an [`OfferingCatalog`]: prices come from each
/// offering's purchase option, and the event stream materializes every spot
/// price step and preemption notice deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMarket {
    catalog: OfferingCatalog,
    notice_us: MarketTimeUs,
}

impl TraceMarket {
    /// Default notice window between a preemption notice and the forced
    /// kill: 200 ms of virtual time (the simulator's scaled-down stand-in
    /// for the clouds' two-minute warning).
    pub const DEFAULT_NOTICE_US: MarketTimeUs = 200_000;

    /// A market over a catalog with the default notice window.
    pub fn new(catalog: OfferingCatalog) -> Self {
        Self {
            catalog,
            notice_us: Self::DEFAULT_NOTICE_US,
        }
    }

    /// Overrides the notice window.
    pub fn with_notice(mut self, notice_us: MarketTimeUs) -> Self {
        self.notice_us = notice_us;
        self
    }

    /// The catalog this market prices.
    pub fn catalog(&self) -> &OfferingCatalog {
        &self.catalog
    }
}

impl Market for TraceMarket {
    fn num_offerings(&self) -> usize {
        self.catalog.len()
    }

    fn price_at(&self, offering: usize, at_us: MarketTimeUs) -> f64 {
        self.catalog.offering(offering).price_at(at_us)
    }

    fn billed_cost(&self, offering: usize, from_us: MarketTimeUs, to_us: MarketTimeUs) -> f64 {
        let o = self.catalog.offering(offering);
        match &o.purchase {
            PurchaseOption::Spot { price_trace, .. } => price_trace.billed_dollars(from_us, to_us),
            _ => billed_dollars(o.price_at(0), from_us, to_us),
        }
    }

    fn events(&self, horizon_us: MarketTimeUs) -> Vec<MarketEvent> {
        let mut out = Vec::new();
        for (index, o) in self.catalog.offerings().iter().enumerate() {
            if let PurchaseOption::Spot {
                price_trace,
                preemption_process,
            } = &o.purchase
            {
                for &(at_us, price_per_hour) in price_trace.steps() {
                    if at_us > 0 && at_us <= horizon_us {
                        out.push(MarketEvent::PriceStep {
                            at_us,
                            offering: index,
                            price_per_hour,
                        });
                    }
                }
                for at_us in preemption_process.notices_within(horizon_us) {
                    out.push(MarketEvent::PreemptionNotice {
                        at_us,
                        offering: index,
                        notice_us: self.notice_us,
                    });
                }
            }
        }
        out.sort_by_key(|e| (e.at_us(), e.offering()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ec2;

    fn spot_gpu() -> Offering {
        Offering::spot(
            ec2::g4dn_xlarge(),
            PriceTrace::try_new(vec![(0, 0.17), (5_000_000, 0.22)]).unwrap(),
            PreemptionProcess::At {
                notices_us: vec![4_000_000],
            },
        )
    }

    fn catalog() -> OfferingCatalog {
        OfferingCatalog::new(vec![
            Offering::on_demand(ec2::g4dn_xlarge()),
            Offering::on_demand(ec2::r5n_large()),
            spot_gpu(),
        ])
    }

    #[test]
    fn price_trace_lookup_and_integral() {
        let trace = PriceTrace::try_new(vec![(0, 1.0), (1_800_000_000, 2.0)]).unwrap();
        assert_eq!(trace.price_at(0), 1.0);
        assert_eq!(trace.price_at(1_799_999_999), 1.0);
        assert_eq!(trace.price_at(1_800_000_000), 2.0);
        // Half an hour at $1 plus half an hour at $2 = $1.50.
        let billed = trace.billed_dollars(0, 3_600_000_000);
        assert!((billed - 1.5).abs() < 1e-12, "billed {billed}");
        assert_eq!(trace.billed_dollars(5, 5), 0.0);
    }

    #[test]
    fn price_trace_validation() {
        assert_eq!(
            PriceTrace::try_new(vec![]),
            Err(CatalogError::EmptyPriceTrace)
        );
        assert_eq!(
            PriceTrace::try_new(vec![(5, 1.0)]),
            Err(CatalogError::UnsortedPriceTrace)
        );
        assert_eq!(
            PriceTrace::try_new(vec![(0, 1.0), (10, 0.0)]),
            Err(CatalogError::InvalidPrice { price: 0.0 })
        );
    }

    #[test]
    fn poisson_notices_are_deterministic_and_bounded() {
        let p = PreemptionProcess::Poisson {
            rate_per_hour: 3600.0, // one per second of virtual time
            seed: 7,
        };
        let a = p.notices_within(10_000_000);
        let b = p.notices_within(10_000_000);
        assert_eq!(a, b, "seeded stream must be deterministic");
        assert!(!a.is_empty());
        // Strictly increasing: same-microsecond duplicates are collapsed, so
        // an offering is never double-noticed on one tick.
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| t <= 10_000_000));
    }

    #[test]
    fn poisson_notices_dedupe_same_microsecond_collisions() {
        // An absurdly hot process: the mean gap is well under a microsecond,
        // so nearly every truncated notice collides with its predecessor.
        // Before the dedup fix this returned long runs of equal timestamps,
        // each of which double-noticed (and double-counted) the offering.
        let p = PreemptionProcess::Poisson {
            rate_per_hour: 3.6e10, // mean gap 0.1 us
            seed: 3,
        };
        let notices = p.notices_within(1_000);
        assert!(!notices.is_empty());
        assert!(
            notices.windows(2).all(|w| w[0] < w[1]),
            "duplicate microsecond notices survived: {notices:?}"
        );
    }

    #[test]
    fn catalog_validation_catches_shape_errors() {
        assert_eq!(
            OfferingCatalog::try_new(vec![]).unwrap_err(),
            CatalogError::EmptyCatalog
        );
        assert_eq!(
            OfferingCatalog::try_new(vec![Offering::on_demand(ec2::r5n_large())]).unwrap_err(),
            CatalogError::NoBaseOffering
        );
        assert_eq!(
            OfferingCatalog::try_new(vec![
                Offering::on_demand(ec2::g4dn_xlarge()),
                Offering::on_demand(ec2::g4dn_xlarge()),
            ])
            .unwrap_err(),
            CatalogError::DuplicateOffering { index: 1 }
        );
        // A spot base cannot happen through `Offering::spot` (it clears the
        // flag), but a hand-built offering is rejected.
        let sneaky = Offering {
            instance_type: ec2::g4dn_xlarge(),
            purchase: PurchaseOption::Spot {
                price_trace: PriceTrace::constant(0.2),
                preemption_process: PreemptionProcess::None,
            },
            placement: FailureDomain::default(),
        };
        assert_eq!(
            OfferingCatalog::try_new(vec![sneaky]).unwrap_err(),
            CatalogError::NonOnDemandBase
        );
        // A reserved base is rejected too: the QoS anchor must be on-demand.
        assert_eq!(
            OfferingCatalog::try_new(vec![Offering::reserved(ec2::g4dn_xlarge(), 0.3)])
                .unwrap_err(),
            CatalogError::NonOnDemandBase
        );
        let bad_discount = Offering {
            instance_type: ec2::r5n_large(),
            purchase: PurchaseOption::Reserved { discount: 1.5 },
            placement: FailureDomain::default(),
        };
        assert_eq!(
            OfferingCatalog::try_new(vec![Offering::on_demand(ec2::g4dn_xlarge()), bad_discount])
                .unwrap_err(),
            CatalogError::InvalidDiscount { discount: 1.5 }
        );
    }

    #[test]
    fn on_demand_catalog_round_trips_the_pool() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let catalog = OfferingCatalog::on_demand(&pool);
        assert_eq!(catalog.len(), 4);
        assert_eq!(catalog.base_index(), 0);
        let lowered = catalog.effective_pool();
        assert_eq!(lowered, pool, "identity embedding must round-trip");
        assert_eq!(catalog.label(0), "g4dn.xlarge@od");
    }

    #[test]
    fn effective_pool_prices_spot_at_its_trace() {
        let c = catalog();
        let pool = c.effective_pool();
        assert_eq!(pool.num_types(), 3);
        assert_eq!(pool.types()[2].name, "g4dn.xlarge");
        assert!(!pool.types()[2].is_base, "spot offerings are never base");
        assert_eq!(pool.price(2), 0.17);
        assert_eq!(c.pool_at(6_000_000).price(2), 0.22);
    }

    #[test]
    fn constant_market_is_eventless_and_flat() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let m = ConstantMarket::from_pool(&pool);
        assert_eq!(m.num_offerings(), 4);
        assert_eq!(m.price_at(0, 0), 0.526);
        assert_eq!(m.price_at(0, u64::MAX), 0.526);
        assert!(m.events(u64::MAX).is_empty());
        // One hour of one g4dn = its hourly price, exactly.
        let billed = m.billed_cost(0, 0, 3_600_000_000);
        assert_eq!(billed, 0.526 * 1.0);
    }

    #[test]
    fn trace_market_materializes_sorted_deterministic_events() {
        let m = TraceMarket::new(catalog()).with_notice(300_000);
        let events = m.events(10_000_000);
        assert_eq!(events, m.events(10_000_000), "must be deterministic");
        assert!(events.windows(2).all(|w| w[0].at_us() <= w[1].at_us()));
        assert!(events.iter().any(|e| matches!(
            e,
            MarketEvent::PriceStep {
                at_us: 5_000_000,
                offering: 2,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            MarketEvent::PreemptionNotice {
                at_us: 4_000_000,
                offering: 2,
                notice_us: 300_000,
            }
        )));
        // The step at t=0 is the starting price, not an event.
        assert!(events.iter().all(|e| e.at_us() > 0));
        // A short horizon filters future events out.
        assert!(m.events(1_000_000).is_empty());
    }

    #[test]
    fn distinct_domains_unlock_duplicate_hardware_purchase_pairs() {
        let zone_a = FailureDomain::zone("us-east-1", "us-east-1a");
        let zone_b = FailureDomain::zone("us-east-1", "us-east-1b");
        // The same CPU type on-demand in two zones is two valid line items...
        let catalog = OfferingCatalog::new(vec![
            Offering::on_demand(ec2::g4dn_xlarge()).in_domain(zone_a.clone()),
            Offering::on_demand(ec2::r5n_large()).in_domain(zone_a.clone()),
            Offering::on_demand(ec2::r5n_large()).in_domain(zone_b.clone()),
        ]);
        assert_eq!(catalog.len(), 3);
        assert_eq!(
            catalog.domains(),
            vec![zone_a.clone(), zone_a.clone(), zone_b]
        );
        // ...but twice in the *same* zone is still a duplicate.
        assert_eq!(
            OfferingCatalog::try_new(vec![
                Offering::on_demand(ec2::g4dn_xlarge()).in_domain(zone_a.clone()),
                Offering::on_demand(ec2::r5n_large()).in_domain(zone_a.clone()),
                Offering::on_demand(ec2::r5n_large()).in_domain(zone_a),
            ])
            .unwrap_err(),
            CatalogError::DuplicateOffering { index: 2 }
        );
        // Un-placed offerings land in the single global domain.
        let blind = OfferingCatalog::on_demand(&PoolSpec::new(ec2::paper_pool()));
        assert!(blind
            .domains()
            .iter()
            .all(|d| *d == FailureDomain::global()));
    }

    #[test]
    fn trace_market_bills_spot_by_the_trace_and_fixed_by_the_rate() {
        let m = TraceMarket::new(catalog());
        // Offering 2 (spot GPU): 5 s at 0.17 then 5 s at 0.22.
        let billed = m.billed_cost(2, 0, 10_000_000);
        let expect = 0.17 * (5.0 / 3600.0) + 0.22 * (5.0 / 3600.0);
        assert!((billed - expect).abs() < 1e-12, "billed {billed}");
        // Offering 0 (on-demand GPU) bills flat.
        let od = m.billed_cost(0, 0, 3_600_000_000);
        assert_eq!(od, 0.526);
        assert!(m.catalog().offering(2).preemptible());
        assert!(!m.catalog().offering(0).preemptible());
    }
}
