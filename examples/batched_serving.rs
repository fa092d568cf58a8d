//! Dynamic batching and fair throughput sharing on one cluster.
//!
//! An interactive stream of small NCF queries (median 8 requests) hits a
//! two-GPU cluster.  Served one query per invocation, NCF burns most of
//! each invocation on its fixed dispatch overhead; the per-instance dynamic
//! batcher (`SimEngine::with_batching`) fuses queued queries until the
//! forming batch reaches the fuse cap or the oldest member times out, so
//! one invocation amortizes that overhead across the whole fused batch.
//! The example replays the same trace unbatched and batched, then once more
//! with fair throughput sharing (`SimEngine::with_sharing`) stacked on top,
//! and prints what each knob does to tail latency and batch occupancy.  The
//! offered 4 kQPS deliberately exceeds the cluster's *unbatched* capacity,
//! so the first run saturates — the same two GPUs then hold the stream
//! comfortably once invocations fuse.
//!
//! Run with: `cargo run --release --example batched_serving`

use kairos::prelude::*;

fn replay(
    pool: &PoolSpec,
    config: &Config,
    service: &ServiceSpec,
    trace: &Trace,
    batching: Option<BatchingOptions>,
    sharing: Option<SharingMode>,
) -> kairos::sim::SimReport {
    let mut scheduler = FcfsScheduler::new();
    let options = SimulationOptions { seed: 7 };
    let mut engine = SimEngine::new(pool, config, service, trace, &mut scheduler, &options);
    if let Some(b) = batching {
        engine = engine.with_batching(b);
    }
    if let Some(mode) = sharing {
        engine = engine.with_sharing(mode);
    }
    engine.run()
}

fn main() {
    let pool = PoolSpec::new(ec2::paper_pool());
    let service = ServiceSpec::new(ModelKind::Ncf, paper_calibration());
    let config = Config::new(vec![2, 0, 0, 0]); // two g4dn.xlarge GPUs

    // A small-query interactive stream: 4 kQPS of median-8 queries.  The
    // fuse cap comes from the mix itself — its p99 batch size — via the
    // quantile helper, not a hand-picked constant.
    let mix = BatchSizeDistribution::LogNormal {
        median: 8.0,
        sigma: 0.8,
    };
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2023);
    let fuse_cap = mix.quantile(0.99, &mut rng, 20_000);
    let trace = TraceSpec {
        arrival: ArrivalProcess::Poisson { rate_qps: 4_000.0 },
        batch_sizes: mix,
        duration_s: 4.0,
        seed: 11,
    }
    .generate();
    println!(
        "{} queries over 4 s, QoS {} ms, fuse cap = mix p99 = {fuse_cap} requests",
        trace.len(),
        ModelKind::Ncf.qos_us() as f64 / 1000.0
    );

    let batcher = BatchingOptions::new(fuse_cap, 500);
    let sharing = SharingMode::Fair(
        SharingOptions::uniform(ThroughputDegradation::try_new_linear(0.15).expect("valid curve"))
            .with_max_concurrency(2),
    );
    let runs = [
        ("unbatched", None, None),
        ("batched (0.5 ms)", Some(batcher), None),
        ("batched + shared", Some(batcher), Some(sharing)),
    ];

    println!(
        "\n{:<18}{:>11}{:>14}{:>10}{:>11}{:>12}{:>11}",
        "mode", "completed", "violations %", "p99 (ms)", "batches", "mean fill", "wait (ms)"
    );
    for (label, batching, sharing) in runs {
        let report = replay(&pool, &config, &service, &trace, batching, sharing);
        let s = &report.service;
        let wait_ms = if s.batches_fired > 0 {
            s.batch_wait_us_sum as f64 / s.batches_fired as f64 / 1000.0
        } else {
            0.0
        };
        println!(
            "{:<18}{:>11}{:>14.2}{:>10.2}{:>11}{:>12.2}{:>11.2}",
            label,
            report.completed(),
            report.violation_fraction() * 100.0,
            report.p99_latency_us() as f64 / 1000.0,
            s.batches_fired,
            s.mean_batch_fill(),
            wait_ms,
        );
        assert_eq!(
            report.records.len() + report.unfinished.len(),
            report.offered,
            "query conservation"
        );
        // Lazy deletion in the calendar never skips an entry it did not
        // first cancel.
        assert!(s.calendar_stale_popped <= s.calendar_cancelled);
        if batching.is_some() {
            // Every completed query passed through a fired batch.
            assert!(s.batched_queries as usize >= report.records.len());
        }
    }
    println!(
        "\nThe batcher trades a sub-millisecond fuse wait for a multi-query \
         fill, amortizing NCF's dispatch intercept across each fused \
         invocation; throughput sharing then lets a second batch start \
         instead of queueing behind the active one."
    );
}
