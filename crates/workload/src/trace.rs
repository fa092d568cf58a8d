//! Query traces: pre-generated sequences of queries with arrival timestamps.
//!
//! A trace couples an arrival process with a batch-size distribution so that
//! the same query sequence can be replayed against different schedulers and
//! configurations — exactly how the paper compares schemes under identical
//! load.  A generated trace is a pure function of its spec, seed included,
//! so regenerating it reproduces it.

use crate::arrival::ArrivalProcess;
use crate::batch::BatchSizeDistribution;
use crate::query::{Query, TimeUs};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Specification from which a trace is generated.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Arrival process of the queries.
    pub arrival: ArrivalProcess,
    /// Distribution of query batch sizes.
    pub batch_sizes: BatchSizeDistribution,
    /// Duration of the trace in virtual seconds.
    pub duration_s: f64,
    /// RNG seed so traces are reproducible.
    pub seed: u64,
}

impl TraceSpec {
    /// Convenience constructor for the evaluation default: Poisson arrivals
    /// with the production-like log-normal batch mix.
    pub fn production(rate_qps: f64, duration_s: f64, seed: u64) -> Self {
        Self {
            arrival: ArrivalProcess::Poisson { rate_qps },
            batch_sizes: BatchSizeDistribution::production_default(),
            duration_s,
            seed,
        }
    }

    /// Generates the trace described by this specification.
    pub fn generate(&self) -> Trace {
        assert!(self.duration_s > 0.0, "duration must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let horizon_us = (self.duration_s * 1e6) as TimeUs;
        let mut queries = Vec::new();
        let mut t: TimeUs = 0;
        let mut id = 0u64;
        loop {
            let gap = self.arrival.next_gap_us(&mut rng);
            t += gap;
            if t > horizon_us {
                break;
            }
            let batch = self.batch_sizes.sample(&mut rng);
            queries.push(Query::new(id, batch, t));
            id += 1;
            // Bursts would loop forever (gap 0); cap them at a generous size.
            if matches!(self.arrival, ArrivalProcess::Burst) && queries.len() >= 10_000 {
                break;
            }
        }
        Trace {
            spec: Some(self.clone()),
            queries,
        }
    }
}

/// A concrete sequence of queries.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The specification the trace was generated from, when known.
    pub spec: Option<TraceSpec>,
    /// Queries sorted by arrival time.
    pub queries: Vec<Query>,
}

impl Trace {
    /// Builds a trace directly from a list of queries (sorted by arrival).
    pub fn from_queries(mut queries: Vec<Query>) -> Self {
        queries.sort_by_key(|q| (q.arrival_us, q.id));
        Self {
            spec: None,
            queries,
        }
    }

    /// Number of queries in the trace.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Duration spanned by the trace in virtual microseconds (0 if empty).
    pub fn duration_us(&self) -> TimeUs {
        self.queries.last().map(|q| q.arrival_us).unwrap_or(0)
    }

    /// Offered load of the trace in queries per second.
    pub fn offered_qps(&self) -> f64 {
        if self.queries.len() < 2 {
            return 0.0;
        }
        self.queries.len() as f64 / (self.duration_us() as f64 / 1e6)
    }

    /// Fraction of queries with batch size at most `threshold`.
    pub fn fraction_at_most(&self, threshold: u32) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries
            .iter()
            .filter(|q| q.batch_size <= threshold)
            .count() as f64
            / self.queries.len() as f64
    }

    /// Partitions the trace into `num_models` per-model sub-traces, indexed
    /// by [`ModelId`](crate::ModelId): sub-trace `m` holds exactly the
    /// queries tagged model `m`, in their original order with their original
    /// ids and arrival times.  This is the shard boundary of the sharded
    /// engine — the union of the sub-traces is the input trace, query for
    /// query, so a per-shard replay sees precisely the arrivals the combined
    /// replay would deliver to that model's lane.
    ///
    /// The sub-traces carry no [`TraceSpec`] (they are projections, not
    /// generated traces).
    ///
    /// # Panics
    /// Panics if a query's model index is not covered by `num_models`.
    pub fn split_by_model(&self, num_models: usize) -> Vec<Trace> {
        // Count first so each shard is one exact allocation instead of a
        // growth-doubling sequence (multi-gigabyte traces pay dearly for the
        // transient 2x peak).
        let mut counts = vec![0usize; num_models];
        for q in &self.queries {
            assert!(
                q.model.index() < num_models,
                "query {} targets model {} but only {num_models} shards were requested",
                q.id,
                q.model
            );
            counts[q.model.index()] += 1;
        }
        let mut shards: Vec<Vec<Query>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for q in &self.queries {
            shards[q.model.index()].push(*q);
        }
        shards
            .into_iter()
            .map(|queries| Trace {
                spec: None,
                queries,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = TraceSpec::production(200.0, 2.0, 42);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        let c = TraceSpec::production(200.0, 2.0, 43).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn offered_load_matches_spec_rate() {
        let spec = TraceSpec::production(300.0, 5.0, 7);
        let trace = spec.generate();
        let qps = trace.offered_qps();
        assert!((qps - 300.0).abs() < 30.0, "offered load {qps}");
        assert!(trace.duration_us() <= 5_000_000);
    }

    #[test]
    fn arrivals_are_sorted_and_ids_unique() {
        let trace = TraceSpec::production(500.0, 2.0, 1).generate();
        assert!(trace
            .queries
            .windows(2)
            .all(|w| w[0].arrival_us <= w[1].arrival_us));
        let mut ids: Vec<_> = trace.queries.iter().map(|q| q.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), trace.len());
    }

    #[test]
    fn from_queries_sorts_by_arrival() {
        let trace = Trace::from_queries(vec![Query::new(2, 10, 500), Query::new(1, 20, 100)]);
        assert_eq!(trace.queries[0].id, 1);
        assert_eq!(trace.fraction_at_most(10), 0.5);
    }

    #[test]
    fn split_by_model_partitions_without_perturbing_queries() {
        use crate::ModelId;
        let queries = vec![
            Query::for_model(0, ModelId::new(1), 4, 100),
            Query::for_model(1, ModelId::new(0), 8, 200),
            Query::for_model(2, ModelId::new(1), 2, 300),
        ];
        let trace = Trace::from_queries(queries.clone());
        let shards = trace.split_by_model(3);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].queries, vec![queries[1]]);
        assert_eq!(shards[1].queries, vec![queries[0], queries[2]]);
        assert!(shards[2].is_empty());
        // The union, re-sorted by (arrival, id), is the input trace.
        let union: Vec<Query> = shards.iter().flat_map(|s| s.queries.clone()).collect();
        assert_eq!(Trace::from_queries(union).queries, trace.queries);
    }

    #[test]
    #[should_panic(expected = "targets model")]
    fn split_by_model_rejects_uncovered_models() {
        use crate::ModelId;
        let trace = Trace::from_queries(vec![Query::for_model(0, ModelId::new(2), 1, 10)]);
        trace.split_by_model(2);
    }

    #[test]
    fn empty_trace_statistics_are_zero() {
        let t = Trace::from_queries(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.offered_qps(), 0.0);
        assert_eq!(t.duration_us(), 0);
    }
}
