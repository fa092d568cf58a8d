//! Minimal in-workspace shim of `criterion`.
//!
//! Implements the subset the kairos benches use — [`Criterion`],
//! [`criterion_group!`], [`criterion_main!`], benchmark groups,
//! [`BenchmarkId`] and `Bencher::iter` — with a simple
//! warm-up, calibrate, then measure timer instead of criterion's
//! statistical machinery.
//! The measured iterations are split into up to [`SAMPLES`] equal samples,
//! so a run reports the median and 90th percentile of the per-sample mean
//! beside the overall mean.
//!
//! Results are printed as aligned rows.  When the `CRITERION_JSON`
//! environment variable names a file, one JSON object per benchmark is
//! appended to it (`{"name": ..., "mean_ns": ..., "median_ns": ...,
//! "p90_ns": ..., "samples": ..., "iters": ...}`), which is how the
//! repository records `BENCH_*.json` baselines.
//!
//! Set `CRITERION_SAMPLE_MS` (default 300) to control per-benchmark
//! measurement time.

use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// `function_name/parameter` style id.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        Self {
            text: format!("{function}/{parameter}"),
        }
    }

    /// Id carrying only a parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            text: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Passed to the benchmark closure; `iter` runs and times the payload.
pub struct Bencher<'a> {
    result: &'a mut Option<Measurement>,
}

/// The most samples one benchmark's iterations are split into (fewer when
/// the sample budget affords fewer iterations).
pub const SAMPLES: u64 = 11;

#[derive(Debug, Clone, Copy)]
struct Measurement {
    mean_ns: f64,
    median_ns: f64,
    p90_ns: f64,
    samples: u64,
    iters: u64,
}

impl Measurement {
    /// Summarizes per-sample nanoseconds-per-iteration over `iters` total
    /// iterations that took `total_ns`.
    fn from_samples(mut per_iter_ns: Vec<f64>, total_ns: f64, iters: u64) -> Self {
        per_iter_ns.sort_by(f64::total_cmp);
        let n = per_iter_ns.len();
        let median_ns = if n % 2 == 1 {
            per_iter_ns[n / 2]
        } else {
            0.5 * (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2])
        };
        // Nearest rank: the smallest sample at or above 90 % of them.
        let p90_ns = per_iter_ns[(n * 9).div_ceil(10) - 1];
        Self {
            mean_ns: total_ns / iters as f64,
            median_ns,
            p90_ns,
            samples: n as u64,
            iters,
        }
    }
}

fn sample_budget() -> Duration {
    let ms = std::env::var("CRITERION_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms)
}

impl Bencher<'_> {
    /// Times `routine`: one warm-up call, then a short calibration pass
    /// sizes the batch, then the routine runs for the sample budget in up
    /// to [`SAMPLES`] equal samples, and the mean, median and
    /// 90th-percentile per-iteration times are recorded.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // A cold first call (page faults, empty caches, buffers grown on
        // first use) can be many times slower than the rest; calibrated on
        // it, every sample would hold one iteration.
        black_box(routine());
        // Calibration: one run to size the measurement loop.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));

        let budget = sample_budget();
        let target_iters = (budget.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let samples = target_iters.min(SAMPLES);
        let per_sample = target_iters / samples;

        let mut per_iter_ns = Vec::with_capacity(samples as usize);
        let mut total_ns = 0.0;
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            let ns = start.elapsed().as_nanos() as f64;
            total_ns += ns;
            per_iter_ns.push(ns / per_sample as f64);
        }
        *self.result = Some(Measurement::from_samples(
            per_iter_ns,
            total_ns,
            samples * per_sample,
        ));
    }
}

fn human(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn record(name: &str, m: Measurement) {
    println!(
        "bench  {name:<56} {:>12}  (mean {}, p90 {}; {} iters in {} samples)",
        human(m.median_ns),
        human(m.mean_ns),
        human(m.p90_ns),
        m.iters,
        m.samples
    );
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(
                file,
                "{{\"name\":\"{name}\",\"mean_ns\":{:.1},\"median_ns\":{:.1},\"p90_ns\":{:.1},\"samples\":{},\"iters\":{}}}",
                m.mean_ns, m.median_ns, m.p90_ns, m.samples, m.iters
            );
        }
    }
}

/// Positional CLI arguments act as substring filters on benchmark names,
/// mirroring criterion's `cargo bench -- <filter>` behaviour (flags such as
/// `--bench`, which cargo appends, are ignored).
fn name_filters() -> &'static [String] {
    static FILTERS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    FILTERS.get_or_init(|| {
        std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect()
    })
}

fn run_one<F: FnMut(&mut Bencher<'_>)>(name: &str, mut f: F) {
    let filters = name_filters();
    if !filters.is_empty() && !filters.iter().any(|fl| name.contains(fl.as_str())) {
        return;
    }
    let mut result = None;
    f(&mut Bencher {
        result: &mut result,
    });
    match result {
        Some(m) => record(name, m),
        None => println!("bench  {name:<56} (no measurement recorded)"),
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes samples by wall time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks `f` under `id` with an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        let name = format!("{}/{}", self.name, id);
        run_one(&name, |b| f(b, input));
        self
    }

    /// Benchmarks `f` under a plain name.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let name = format!("{}/{}", self.name, id);
        run_one(&name, f);
        self
    }

    /// Ends the group (no-op in the shim).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Benchmarks a single function.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        run_one(name, f);
        self
    }

    /// Opens a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _criterion: self,
        }
    }
}

/// Declares a group function running the listed benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        std::env::set_var("CRITERION_SAMPLE_MS", "5");
        let mut c = Criterion::default();
        c.bench_function("noop_sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        let mut group = c.benchmark_group("group");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("double", 21), &21u64, |b, &x| {
            b.iter(|| x * 2)
        });
        group.bench_function("plain", |b| b.iter(|| black_box(1 + 1)));
        group.finish();
    }

    #[test]
    fn sample_summary_reads_the_median_and_nearest_rank_p90() {
        let odd = Measurement::from_samples(vec![5.0, 1.0, 3.0], 90.0, 10);
        assert_eq!((odd.median_ns, odd.p90_ns, odd.mean_ns), (3.0, 5.0, 9.0));
        assert_eq!(odd.samples, 3);
        let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let even = Measurement::from_samples(samples, 55.0, 10);
        assert_eq!((even.median_ns, even.p90_ns), (5.5, 9.0));
        let one = Measurement::from_samples(vec![7.0], 7.0, 1);
        assert_eq!((one.median_ns, one.p90_ns, one.samples), (7.0, 7.0, 1));
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("f", 10).to_string(), "f/10");
        assert_eq!(BenchmarkId::from_parameter("KAIROS").to_string(), "KAIROS");
    }
}
