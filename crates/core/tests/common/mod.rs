//! Random planner inputs shared by the planner property tests: pools with
//! tied prices and repeated types, perturbed latency priors, batch samples
//! of four shapes, and budgets capped to a walkable space.

use kairos_models::{
    calibration::paper_calibration,
    ec2, for_each_affordable,
    latency::{LatencyProfile, LatencyTable},
    EnumerationOptions, InstanceType, ModelKind, PoolSpec, MAX_BATCH_SIZE,
};
use kairos_workload::BatchSizeDistribution;
use rand::rngs::StdRng;
use rand::Rng;

pub const MODELS: [ModelKind; 5] = [
    ModelKind::Ncf,
    ModelKind::Rm2,
    ModelKind::Wnd,
    ModelKind::MtWnd,
    ModelKind::Dien,
];

/// The largest affordable space a case ranks.
pub const MAX_CONFIGS: usize = 20_000;

/// A random pool of 2–6 types: the paper's base type first, then auxiliary
/// types drawn from the paper's three, some repeated verbatim (same name,
/// same price: tied costs and bounds) and some re-priced to an earlier
/// type's price (tied costs only).
pub fn random_pool(rng: &mut StdRng, types: usize) -> PoolSpec {
    let mut base = ec2::g4dn_xlarge();
    base.price_per_hour *= rng.gen_range(0.6..1.4);
    let palette = [ec2::c5n_2xlarge(), ec2::r5n_large(), ec2::t3_xlarge()];
    let mut pool = vec![base];
    while pool.len() < types {
        let roll = rng.gen_range(0..10u32);
        let next = if roll < 2 && pool.len() > 1 {
            pool[rng.gen_range(1..pool.len())].clone()
        } else {
            let mut t: InstanceType = palette[rng.gen_range(0..palette.len())].clone();
            if roll < 4 {
                t.price_per_hour = pool[rng.gen_range(0..pool.len())].price_per_hour;
            } else {
                t.price_per_hour *= rng.gen_range(0.7..1.3);
            }
            t
        };
        pool.push(next);
    }
    PoolSpec::new(pool)
}

/// `pool`, or in half the cases `pool` with its base type moved to a
/// random index: the walk must handle a base anywhere, not just first.
pub fn relocate_base(rng: &mut StdRng, pool: PoolSpec) -> PoolSpec {
    let mut types = pool.types().to_vec();
    if rng.gen_bool(0.5) {
        let base = types.remove(pool.base_index());
        types.insert(rng.gen_range(0..=types.len()), base);
    }
    PoolSpec::new(types)
}

/// The paper calibration with every (model, type) profile scaled by a
/// random factor per coefficient; `spread = 0` keeps the priors exact.
pub fn perturbed_priors(rng: &mut StdRng, spread: f64) -> LatencyTable {
    let mut entries: Vec<(ModelKind, String, LatencyProfile)> = paper_calibration()
        .iter()
        .map(|(m, name, p)| (m, name.to_string(), p))
        .collect();
    entries.sort_by(|a, b| (format!("{:?}", a.0), &a.1).cmp(&(format!("{:?}", b.0), &b.1)));
    let mut table = LatencyTable::new();
    for (model, name, p) in entries {
        let intercept = p.intercept_ms * rng.gen_range(1.0 - spread..=1.0 + spread);
        let slope = p.slope_ms * rng.gen_range(1.0 - spread..=1.0 + spread);
        table.insert(model, &name, LatencyProfile::new(intercept, slope));
    }
    table
}

/// One of four sample shapes: production mix, single-valued, entirely
/// above every auxiliary cutoff, entirely below.
pub fn random_sample(rng: &mut StdRng, shape: u32, len: usize) -> Vec<u32> {
    match shape {
        0 => BatchSizeDistribution::production_default().sample_many(rng, len),
        1 => vec![rng.gen_range(1..=MAX_BATCH_SIZE); len],
        2 => (0..len)
            .map(|_| rng.gen_range(990..=MAX_BATCH_SIZE))
            .collect(),
        _ => (0..len).map(|_| rng.gen_range(1..=2)).collect(),
    }
}

/// Number of configurations `budget` affords on `pool`.
pub fn affordable(pool: &PoolSpec, budget: f64) -> usize {
    let mut count = 0usize;
    for_each_affordable(
        pool,
        &EnumerationOptions::with_budget(budget),
        (),
        |_, _, _, _| {},
        |_, _, lasts, _| count += lasts.len(),
    );
    count
}

/// `target`, or the largest budget on a 15 % geometric ladder up from
/// `floor` that affords at most `MAX_CONFIGS` configurations when `target`
/// affords more.  Climbing the ladder keeps every walk small, however large
/// the space at `target` is.
pub fn capped_budget(pool: &PoolSpec, floor: f64, target: f64) -> f64 {
    let mut budget = floor;
    loop {
        let next = budget * 1.15;
        if next >= target {
            return if affordable(pool, target) <= MAX_CONFIGS {
                target
            } else {
                budget
            };
        }
        if affordable(pool, next) > MAX_CONFIGS {
            return budget;
        }
        budget = next;
    }
}

pub fn panic_message(result: std::thread::Result<impl Sized>) -> Option<String> {
    let payload = result.err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    )
}
