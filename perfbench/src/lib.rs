//! The repository benchmark: three seeded closed-loop workloads driven
//! through the public API, each checking every answer, plus a traced run
//! that times each layer from outside.
//!
//! * [`lookup`] — `lookup-64k`: read-only 1-D nearest-neighbour queries.
//! * [`kv`] — `kv-churn-6k`: put / get / delete rounds on a durable store.
//! * [`mixed`] — `mixed-2d`: quadtree point location beside a writer.
//!
//! A run prints one JSON object as its last line of standard output:
//! every end-to-end metric untraced, every per-layer metric traced.

pub mod kv;
pub mod lookup;
pub mod mixed;
pub mod probes;
pub mod stats;
pub mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Client wait per operation: a reply slower than this counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(20);

/// What one benchmark run was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the closed loop measures.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Directory for the run's private files (store data, WAL probes).
    pub scratch: PathBuf,
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric with its unit.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// Operations attempted and failed. A failure — a runtime error, a
/// timeout, or a wrong answer, scan or ground set — is counted and the
/// run goes on.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
}

/// Failures beyond this many are counted without being described.
const FAILURES_SHOWN: u64 = 20;

impl Tally {
    /// Counts one attempt; a failure is described on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= FAILURES_SHOWN {
                eprintln!("perfbench: failure: {}", what());
            }
        }
        ok
    }

    /// Adds another thread's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A finished run: its counts and metrics.
#[derive(Debug)]
pub struct Report {
    /// Attempts and failures.
    pub tally: Tally,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// A run is correct when nothing failed and every value is finite.
    pub fn json_line(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.failed == 0 && self.tally.attempted > 0 && finite,
            self.tally.attempted.max(1),
            self.tally.failed,
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a non-finite value already
            // made the run incorrect, so print a placeholder.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// When a closed loop stops: after the requested seconds, once it holds
/// enough samples for its tail percentile, but never past a hard cap.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    seconds: f64,
}

/// The loop may overrun its seconds this many times over to collect the
/// samples its tail percentile needs.
const OVERRUN: f64 = 3.0;

impl Window {
    /// A window of `seconds` starting now.
    pub fn start(seconds: f64) -> Self {
        Window {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether a loop holding `samples` of the `needed` should go on.
    pub fn running(&self, samples: usize, needed: usize) -> bool {
        let t = self.elapsed();
        t < self.seconds || (samples < needed && t < self.seconds * OVERRUN)
    }

    /// Seconds since the window opened.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// A private directory, created empty and removed with everything in it
/// when dropped — also when the run fails or unwinds.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `parent/name`, failing if it already exists, so a run never
    /// sees files another run left behind.
    pub fn create(parent: &Path, name: &str) -> std::io::Result<Self> {
        std::fs::create_dir_all(parent)?;
        let path = parent.join(name);
        std::fs::create_dir(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.path) {
            eprintln!("perfbench: could not remove {}: {e}", self.path.display());
        }
    }
}

/// A percentile that must exist: a run without enough samples for one
/// cannot report it, so it stops with an error.
pub fn need(samples: &[f64], per_mille: usize, what: &str) -> Result<f64, String> {
    stats::percentile(samples, per_mille).ok_or_else(|| {
        format!(
            "{what}: {} samples cannot give the {per_mille}/1000 percentile \
             with {} beyond it",
            samples.len(),
            stats::MIN_BEYOND
        )
    })
}

/// Slices of the loop whose throughputs `ops_per_s` is the median of, so
/// a stall in part of a run moves it less than it moves the mean.
pub const SLICES: usize = 10;

/// Set-ups per run: at least this many, and more while the first ones
/// took under [`SETUP_SECONDS`]; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// See [`SETUPS`].
pub const SETUP_SECONDS: f64 = 2.0;

/// Sets the workload up [`SETUPS`] or more times with `make`, inside
/// spans named `span`, retiring each result before the next set-up so
/// only one is ever alive. Returns the last and each set-up's seconds.
///
/// # Errors
///
/// The first error `make` returns.
pub fn set_up<T>(
    tracer: &mut trace::Tracer,
    span: &'static str,
    mut make: impl FnMut() -> Result<T, String>,
    mut retire: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let started = Instant::now();
    let mut seconds = Vec::new();
    let mut kept = None;
    while seconds.len() < SETUPS
        || (seconds.len() < 10 * SETUPS && started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        if let Some(old) = kept.take() {
            retire(old);
        }
        let (made, t) = tracer.time(span, seconds.len() as u64, None, &mut make);
        seconds.push(t / 1e6);
        kept = Some(made?);
    }
    Ok((kept.expect("at least one set-up"), seconds))
}

/// The tail percentile every workload reports, in thousandths, over all
/// of a client's operations.
pub const OP_TAIL: usize = 900;

/// What an untraced run measured, before it becomes metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each set-up's duration.
    pub setup_s: Vec<f64>,
    /// How long the closed loop ran.
    pub elapsed_s: f64,
    /// Latency of every read that returned the right answer.
    pub reads_us: Vec<f64>,
    /// Latency of every write that applied.
    pub writes_us: Vec<f64>,
    /// When each of those reads and writes completed, in seconds since
    /// the loop started.
    pub done_s: Vec<f64>,
    /// Each total-crash recovery's duration.
    pub recover_s: Vec<f64>,
}

impl Measured {
    /// The end-to-end metrics every workload reports: the median set-up,
    /// the median throughput over [`SLICES`] equal slices of the loop, the
    /// median read, and the p90 over every read and write. The reads of
    /// `kv-churn-6k` alone have no steady tail: the first get after each
    /// write is two to three times slower than the rest.
    ///
    /// # Errors
    ///
    /// When a percentile lacks samples.
    pub fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        Ok(vec![
            Metric::new(
                "setup_s",
                "s",
                stats::median(&self.setup_s).ok_or("no set-up was timed")?,
            ),
            Metric::new(
                "ops_per_s",
                "1/s",
                stats::median_rate(&self.done_s, self.elapsed_s, SLICES),
            ),
            Metric::new("read_p50_us", "us", need(&self.reads_us, 500, "reads")?),
            Metric::new(
                "op_p90_us",
                "us",
                need(
                    &[&self.reads_us[..], &self.writes_us[..]].concat(),
                    OP_TAIL,
                    "operations",
                )?,
            ),
        ])
    }

    /// Figures printed for a reader but left out of the result line, which
    /// carries the same metrics for every workload: those only some
    /// workloads have — the read p99, the write median and p95, and the
    /// recovery time — and, in a traced run, the end-to-end metrics as
    /// measured with tracing on, whose difference from an untraced run is
    /// the tracing overhead.
    pub fn notes(&self, traced: bool) -> Vec<Metric> {
        let mut out = Vec::new();
        if traced {
            out.extend(self.end_to_end().unwrap_or_default());
        }
        if let Some(p) = stats::percentile(&self.reads_us, 990) {
            out.push(Metric::new("read_p99_us", "us", p));
        }
        if let Some(p) = stats::percentile(&self.writes_us, 500) {
            out.push(Metric::new("write_p50_us", "us", p));
        }
        if let Some(p) = stats::percentile(&self.writes_us, 950) {
            out.push(Metric::new("write_p95_us", "us", p));
        }
        if let Some(r) = stats::median(&self.recover_s) {
            out.push(Metric::new("recover_s", "s", r));
        }
        out
    }
}

/// `engine.read_wait_us` from a workload's read latencies and the same
/// reads on an idle fabric.
pub fn read_wait(loaded_us: &[f64], idle_us: &[f64]) -> Metric {
    let value = match (stats::median(loaded_us), stats::median(idle_us)) {
        (Some(loaded), Some(idle)) => stats::read_wait_us(loaded, idle),
        _ => f64::NAN,
    };
    Metric::new("engine.read_wait_us", "us", value)
}

/// The budget of one timing probe in the traced run.
pub fn layer_budget(args: &RunArgs) -> probes::Budget {
    probes::Budget {
        min: 5,
        max: 100_000,
        seconds: (args.seconds / 10.0).max(0.2),
    }
}

/// `count` keys below `2^40`, none in `sorted` and no two alike.
pub fn fresh_keys(sorted: &[u64], count: usize, seed: u64) -> Vec<u64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED_F8E5);
    let mut out = std::collections::BTreeSet::new();
    while out.len() < count {
        let k = rng.gen_range(0..1u64 << 40);
        if sorted.binary_search(&k).is_err() {
            out.insert(k);
        }
    }
    // Random order, so consecutive fresh keys land apart.
    let mut keys: Vec<u64> = out.into_iter().collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    keys
}

/// Ends a run: writes the spans of a traced run and prints every metric
/// and note by name and unit, ahead of the result line.
///
/// # Errors
///
/// When the spans cannot be written.
pub fn finish(
    args: &RunArgs,
    workload: &str,
    tally: Tally,
    tracer: trace::Tracer,
    metrics: Vec<Metric>,
    notes: &[Metric],
) -> Result<Report, String> {
    if args.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{workload}.tsv"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| tracer.write_tsv(&path))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    for m in metrics.iter().chain(notes) {
        println!("# {workload}\t{}\t{}\t{}", m.name, m.value, m.unit);
    }
    println!(
        "# {workload}\terror_ratio\t{}\tratio\t({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    Ok(Report { tally, metrics })
}
