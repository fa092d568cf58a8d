//! The Oracle (ORCL) reference scheme (paper Sec. 7).
//!
//! The oracle is "practically infeasible" — it knows the whole query sequence
//! in advance, sorts it by batch size, and keeps every instance busy with the
//! work it is best at: whenever a base instance frees up it takes the largest
//! remaining query, whenever an auxiliary instance frees up it takes the
//! smallest remaining query that it can serve within QoS.  There is no
//! queueing delay and no QoS violation, so the resulting rate is an upper
//! reference for every practical distribution scheme.

use kairos_models::latency::{LatencyProfile, LatencyTable};
use kairos_models::{mlmodel::spec, mlmodel::ModelKind, Config, PoolSpec};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes the oracle throughput (QPS) of one configuration over a sample of
/// query batch sizes.
///
/// The sample plays the role of the paper's "sequence of queries according to
/// batch size distribution"; the returned rate is the number of queries
/// divided by the virtual makespan of the oracle's schedule.
pub fn oracle_throughput(
    pool: &PoolSpec,
    config: &Config,
    model: ModelKind,
    latency: &LatencyTable,
    batch_sample: &[u32],
) -> f64 {
    assert!(!batch_sample.is_empty(), "batch sample must not be empty");
    assert_eq!(
        config.counts().len(),
        pool.num_types(),
        "config/pool mismatch"
    );
    let model_spec = spec(model);
    let qos_ms = model_spec.qos_ms;

    // Sorted query sizes; the base side consumes from the large end, the
    // auxiliary side from the small end.
    let mut sizes: Vec<u32> = batch_sample.to_vec();
    sizes.sort_unstable();
    let mut small = 0usize; // next index for auxiliary instances
    let mut large = sizes.len(); // one past the next index for base instances

    // Instance heap keyed by (free time in us, instance id).
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Slot(u64, usize);
    let mut heap: BinaryHeap<Reverse<Slot>> = BinaryHeap::new();
    // Per instance: (is_base, latency profile, auxiliary QoS cutoff).
    let mut kinds: Vec<(bool, LatencyProfile, Option<u32>)> = Vec::new();
    for (type_index, &count) in config.counts().iter().enumerate() {
        let ty = &pool.types()[type_index];
        let profile = latency.expect(model, &ty.name);
        let cutoff = profile.max_batch_within(qos_ms);
        for _ in 0..count {
            let id = kinds.len();
            kinds.push((ty.is_base, profile, cutoff));
            heap.push(Reverse(Slot(0, id)));
        }
    }
    if heap.is_empty() {
        return 0.0;
    }

    // If there is no base instance, queries beyond every auxiliary cutoff can
    // never be served within QoS, so the allowable throughput is zero as soon
    // as such a query exists (paper Sec. 4: a standalone auxiliary pool has
    // allowable throughput 0).
    let has_base = config
        .counts()
        .iter()
        .enumerate()
        .any(|(i, &c)| c > 0 && pool.types()[i].is_base);
    if !has_base {
        let max_cutoff = kinds.iter().filter_map(|(_, _, c)| *c).max().unwrap_or(0);
        if sizes.iter().any(|&b| b > max_cutoff) {
            return 0.0;
        }
    }

    let mut makespan_us = 0u64;
    while small < large {
        let Some(Reverse(Slot(free_at, id))) = heap.pop() else {
            break; // every remaining instance retired
        };
        let (is_base, profile, cutoff) = kinds[id];

        let batch = if is_base {
            // Largest remaining query.
            large -= 1;
            sizes[large]
        } else {
            // Smallest remaining query, if this auxiliary type can serve it
            // within QoS; otherwise the instance retires.
            let candidate = sizes[small];
            match cutoff {
                Some(c) if candidate <= c => {
                    small += 1;
                    candidate
                }
                _ => continue, // retire this instance (do not push it back)
            }
        };

        let service_us = profile.latency_us(batch);
        let done = free_at + service_us;
        makespan_us = makespan_us.max(done);
        heap.push(Reverse(Slot(done, id)));
    }

    if small < large {
        // Queries remain but no instance can serve them (no base instances).
        return 0.0;
    }
    if makespan_us == 0 {
        return 0.0;
    }
    batch_sample.len() as f64 / (makespan_us as f64 / 1e6)
}

/// Oracle throughput maximized over a set of configurations (the paper uses
/// the best configuration found by oracle search as the reference).  Ties
/// keep the first candidate.
pub fn best_oracle_throughput(
    pool: &PoolSpec,
    configs: &[Config],
    model: ModelKind,
    latency: &LatencyTable,
    batch_sample: &[u32],
) -> (Option<Config>, f64) {
    let mut best: (Option<Config>, f64) = (None, 0.0);
    for c in configs {
        let qps = oracle_throughput(pool, c, model, latency, batch_sample);
        if best.0.is_none() || qps > best.1 {
            best = (Some(c.clone()), qps);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::{calibration::paper_calibration, ec2};

    fn pool() -> PoolSpec {
        PoolSpec::new(ec2::paper_pool())
    }

    fn sample() -> Vec<u32> {
        // 70 % small, 30 % large queries.
        let mut s = Vec::new();
        for i in 0..700u32 {
            s.push(10 + i % 200);
        }
        for i in 0..300u32 {
            s.push(500 + i % 500);
        }
        s
    }

    #[test]
    fn more_instances_give_more_oracle_throughput() {
        let latency = paper_calibration();
        let one = oracle_throughput(
            &pool(),
            &Config::new(vec![1, 0, 0, 0]),
            ModelKind::Rm2,
            &latency,
            &sample(),
        );
        let two = oracle_throughput(
            &pool(),
            &Config::new(vec![2, 0, 0, 0]),
            ModelKind::Rm2,
            &latency,
            &sample(),
        );
        assert!(one > 0.0);
        assert!(two > one * 1.5);
    }

    #[test]
    fn heterogeneous_oracle_beats_homogeneous_at_equal_cost_for_rm2() {
        let latency = paper_calibration();
        let homo = oracle_throughput(
            &pool(),
            &Config::new(vec![4, 0, 0, 0]),
            ModelKind::Rm2,
            &latency,
            &sample(),
        );
        let hetero = oracle_throughput(
            &pool(),
            &Config::new(vec![3, 1, 3, 0]),
            ModelKind::Rm2,
            &latency,
            &sample(),
        );
        assert!(hetero > homo, "hetero {hetero} should beat homo {homo}");
    }

    #[test]
    fn auxiliary_only_pool_with_large_queries_has_zero_throughput() {
        let latency = paper_calibration();
        let qps = oracle_throughput(
            &pool(),
            &Config::new(vec![0, 0, 5, 0]),
            ModelKind::Wnd,
            &latency,
            &sample(),
        );
        assert_eq!(qps, 0.0);
    }

    #[test]
    fn empty_configuration_has_zero_throughput() {
        let latency = paper_calibration();
        let qps = oracle_throughput(
            &pool(),
            &Config::new(vec![0, 0, 0, 0]),
            ModelKind::Wnd,
            &latency,
            &sample(),
        );
        assert_eq!(qps, 0.0);
    }

    #[test]
    fn best_oracle_picks_the_maximum() {
        let latency = paper_calibration();
        let configs = vec![
            Config::new(vec![1, 0, 0, 0]),
            Config::new(vec![2, 0, 0, 0]),
            Config::new(vec![2, 0, 3, 0]),
        ];
        let (best, qps) =
            best_oracle_throughput(&pool(), &configs, ModelKind::Dien, &latency, &sample());
        assert!(qps > 0.0);
        let best = best.unwrap();
        for c in &configs {
            assert!(
                oracle_throughput(&pool(), c, ModelKind::Dien, &latency, &sample()) <= qps + 1e-9
            );
        }
        assert!(configs.contains(&best));
    }

    #[test]
    #[should_panic(expected = "batch sample")]
    fn empty_sample_rejected() {
        let latency = paper_calibration();
        oracle_throughput(
            &pool(),
            &Config::new(vec![1, 0, 0, 0]),
            ModelKind::Ncf,
            &latency,
            &[],
        );
    }
}
