//! # kairos-perfbench
//!
//! The repository benchmark: four serving workloads, each timed end to end
//! through the program's public entry points, plus a traced pass that
//! attributes the time to the layers (planner, scheduler round, controller,
//! serving loop, engine, sharding, capacity prober, trace generation).
//!
//! A run first serves one cycle of episodes of one workload on fixed inputs,
//! which gives the serving outcome.  It then cycles through the episodes
//! drawn from its seed (set-up, then the timed phase) for the requested
//! number of seconds and sums each episode's median time; see `README.md`
//! for the workloads, metrics and the comparison procedure.

pub mod heap;
pub mod layers;
pub mod metrics;
pub mod workloads;

pub use metrics::Metric;
pub use workloads::{Scale, Workload};

use layers::Spans;
use metrics::{END_TO_END, PER_LAYER};
use rayon::prelude::*;
use std::path::PathBuf;
use std::time::Instant;
use workloads::Tally;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Timed cycles per run, however short the requested time.
const MIN_CYCLES: usize = 2;
/// The seed of the outcome cycle's inputs.  It is the same in every run, so
/// the outcome metrics of one commit read the same in every run, and a
/// change's outcomes are compared with its parent's on the same inputs.
pub const OUTCOME_SEED: u64 = 0;
/// Seconds one [`ReferenceSlice`] sort takes at the reference speed, close to
/// the fastest the two-core machine the benchmark was sized on ran.
pub const REFERENCE_S: f64 = 0.007;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Seed the timed episodes' inputs are generated from.
    pub seed: u64,
    /// Seconds the outcome cycle and the timed cycles take together; at
    /// least two cycles are timed however short this is.
    pub seconds: f64,
    /// Print per-layer metrics from a traced pass instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// A completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Episodes run, the outcome cycle and the traced pass included.
    pub attempted: usize,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// `wall_s` and `setup_s` in plain seconds, before scaling by the
    /// reference slice.
    pub raw_s: (f64, f64),
    /// Mean seconds of the run's reference slices.
    pub reference_s: f64,
}

/// A run stopped by a failed output check.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Episodes run, the failing one included.
    pub attempted: usize,
    /// What failed.
    pub message: String,
}

/// Runs one workload on its worker threads ([`Workload::threads`], at most
/// the machine's cores).
///
/// # Errors
/// Returns the first failed output check.
pub fn run(spec: &RunSpec) -> Result<RunReport, RunFailure> {
    kairos_bench::tune_allocator_for_replay();
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(spec.workload.threads());
    let mut attempted = 0;
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the rayon shim never fails to build a pool")
        .install(|| measure(spec, &mut attempted))
        .map_err(|message| RunFailure { attempted, message })
}

/// The run: the outcome cycle, then timed cycles over the run's own
/// episodes until the time is up.  Counts each episode started into
/// `attempted`.
fn measure(spec: &RunSpec, attempted: &mut usize) -> Result<RunReport, String> {
    let mut slice = ReferenceSlice::new();
    let heap_base = heap::reset_peak();
    let episodes = spec.workload.episodes(spec.scale);
    let mut episode = |seed: u64, k: u64, first: bool, tally: &mut Tally| {
        *attempted += 1;
        spec.workload.episode(spec.scale, seed, k, first, tally)
    };
    let started = Instant::now();
    // The outcome cycle runs every episode on the inputs of OUTCOME_SEED.
    // It gives the outcome metrics, fills caches and the allocator's arena,
    // and carries the checks too costly to repeat; its times are dropped.
    let mut tally = Tally::default();
    for k in 0..episodes {
        episode(OUTCOME_SEED, k, k == 0, &mut tally)?;
    }
    let outcome = tally.outcome();
    // The heap's peak follows the inputs (queue depths, plans ranked), so it
    // too is taken over the fixed inputs.
    let peak_heap_mb = (heap::peak() - heap_base) as f64 / 1e6;
    // Timings per episode of the run's seed, one entry per cycle.  Taking
    // each episode's median before summing discards a slow stretch of the
    // machine as long as it spoils fewer than half of one episode's repeats.
    let mut setup_s = vec![Vec::new(); episodes as usize];
    let mut wall_s = vec![Vec::new(); episodes as usize];
    let mut reference_s = Vec::new();
    let mut first_cycle = None;
    while setup_s[0].len() < MIN_CYCLES || started.elapsed().as_secs_f64() < spec.seconds {
        let mut tally = Tally::default();
        for k in 0..episodes {
            let (setup, wall) = episode(spec.seed, k, false, &mut tally)?;
            setup_s[k as usize].push(setup);
            wall_s[k as usize].push(wall);
            reference_s.push(slice.time());
        }
        let cycle = tally.outcome();
        match &first_cycle {
            None => first_cycle = Some(cycle),
            Some(first) if *first != cycle => {
                return Err(format!(
                    "a cycle's outcome {cycle:?} differs from the first's {first:?} on one seed"
                ));
            }
            Some(_) => {}
        }
    }
    let summed = |times: &[Vec<f64>]| times.iter().map(|t| median(t)).sum::<f64>();
    let raw_s = (summed(&wall_s), summed(&setup_s));
    // The mean, not the median, keeps the time the machine was taken away,
    // which the episodes pay too.
    let mean_reference_s = reference_s.iter().sum::<f64>() / reference_s.len() as f64;
    let metrics = if spec.trace {
        *attempted += 1;
        let mut spans = Spans::default();
        let mut layers =
            spec.workload
                .traced(spec.scale, spec.seed, median(&wall_s[0]), &mut spans)?;
        spans
            .write(&trace_path(spec))
            .map_err(|e| format!("writing spans: {e}"))?;
        layers.set("run.wall_raw_s", raw_s.0);
        layers.set("run.setup_raw_s", raw_s.1);
        layers.set("run.reference_ms", mean_reference_s * 1e3);
        metrics::from_table(&PER_LAYER, |name| layers.get(name))
    } else {
        // Neighbouring load on a shared machine changes its speed by up to
        // twofold over minutes.  The reference slices, timed between the
        // episodes, change with it and scale both phases to the reference
        // speed.
        let speed = REFERENCE_S / mean_reference_s;
        metrics::from_table(&END_TO_END, |name| match name {
            "wall_s" => raw_s.0 * speed,
            "setup_s" => raw_s.1 * speed,
            "peak_heap_mb" => peak_heap_mb,
            "goodput_pct" => outcome.goodput_pct,
            "p99_qos_pct" => outcome.p99_qos_pct,
            "cost_per_hr" => outcome.cost_per_hr,
            _ => unreachable!("END_TO_END lists {name}"),
        })
    }?;
    Ok(RunReport {
        attempted: *attempted,
        metrics,
        raw_s,
        reference_s: mean_reference_s,
    })
}

/// A fixed slice of work that shares no code with the program: each of the
/// run's workers sorts 400k xorshift values (3.2 MB, more than the 2 MB L2
/// of the machine the benchmark was sized on, as the workloads' working sets
/// are).  Timed after every episode, it tracks how fast the machine runs the
/// workload's threads at that moment.  The buffers are allocated once, and
/// refilled outside the timed sort, so neither the allocator nor the cache
/// lines an episode leaves behind reach the timed part.
struct ReferenceSlice {
    buffers: Vec<Vec<u64>>,
}

impl ReferenceSlice {
    /// One buffer per worker of the current pool.
    fn new() -> Self {
        Self {
            buffers: vec![vec![0; 400_000]; rayon::current_num_threads()],
        }
    }

    /// Refills the buffers, then returns the seconds their sorts take, one
    /// buffer per worker.
    fn time(&mut self) -> f64 {
        for buffer in &mut self.buffers {
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for value in buffer.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *value = x;
            }
        }
        let started = Instant::now();
        self.buffers
            .par_iter_mut()
            .for_each(|buffer| buffer.sort_unstable());
        std::hint::black_box(&self.buffers);
        started.elapsed().as_secs_f64()
    }
}

/// Median of a non-empty sample.
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut values = values.to_vec();
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Where a traced run writes its spans.
fn trace_path(spec: &RunSpec) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", spec.workload.name(), spec.seed))
}
