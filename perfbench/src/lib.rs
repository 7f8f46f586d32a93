//! Benchmark of the yinyang campaign, generator and triage paths.
//!
//! Three workloads, each driven from one process through the public
//! functions of the repository's crates (`README.md` has the details):
//!
//! * [`campaign`] — the `yinyang fuzz` campaign against both personas;
//! * [`generate`] — fusion, printing and re-reading without solving;
//! * [`triage`] — reducing every finding into a bundle and replaying the
//!   bundles with `regress`.
//!
//! With `--trace 0` a workload reports the end-to-end metrics of
//! [`report::END_TO_END`]; with `--trace 1` it reports the per-layer
//! metrics of [`report::PER_LAYER`], from benchmark-side [`spans`] around
//! the calls into each layer.

pub mod campaign;
pub mod generate;
pub mod proc_stat;
pub mod reference;
pub mod report;
pub mod spans;
pub mod stats;
pub mod triage;

use std::time::Instant;
use yinyang_rt::SplitMix64;

/// The CLI's default `--seed`: the main seed for comparing commits.
pub const MAIN_SEED: u64 = 53710;

/// A seed never used while tuning the benchmark, for confirming a claim
/// made on [`MAIN_SEED`].
pub const HOLDOUT_SEED: u64 = 20240;

/// How much work a run does apart from its time budget.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Fused tests per (benchmark, oracle) pool per round of the campaign.
    pub campaign_iterations: usize,
    /// Fix-and-retest rounds of the campaign.
    pub campaign_rounds: usize,
    /// Seed-pool sets the generator draws from, each from its own seed.
    pub generate_pool_sets: usize,
    /// Fusions per pool of every pool set in one generate batch.
    pub generate_per_pool: usize,
    /// Generate batches every run completes; the exact metrics are taken
    /// over these.
    pub reference_batches: usize,
    /// Iterations of the findings campaign the triage set-up runs.
    pub triage_iterations: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setups: usize,
}

impl Size {
    /// The benchmark's size.
    pub const FULL: Size = Size {
        campaign_iterations: 30,
        campaign_rounds: 3,
        generate_pool_sets: 8,
        generate_per_pool: 8,
        reference_batches: 4,
        triage_iterations: 2,
        setups: 5,
    };

    /// A reduced size for the benchmark's own tests.
    pub const QUICK: Size = Size {
        campaign_iterations: 1,
        campaign_rounds: 2,
        generate_pool_sets: 2,
        generate_per_pool: 2,
        reference_batches: 1,
        triage_iterations: 1,
        setups: 2,
    };
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Workload seed of the generate workload; the same seed gives the
    /// same inputs.
    pub seed: u64,
    /// Seed of the campaign and of the triage set-up's findings campaign
    /// (see `README.md` for why it is not `seed`).
    pub input_seed: u64,
    /// Measuring time budget.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Work sizes.
    pub size: Size,
}

/// The `index`-th derived seed of `seed`; index 0 is `seed` itself.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    if index == 0 {
        seed
    } else {
        SplitMix64::new(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
    }
}

/// Wall and CPU seconds of one measured piece of work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Wall seconds.
    pub wall: f64,
    /// Process CPU seconds.
    pub cpu: f64,
}

impl Timing {
    /// The time of this piece and `other` together.
    pub fn plus(self, other: Timing) -> Timing {
        Timing { wall: self.wall + other.wall, cpu: self.cpu + other.cpu }
    }
}

/// Runs `f`, returning its result and timing.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let (cpu0, start) = (proc_stat::cpu_seconds(), Instant::now());
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    (out, Timing { wall, cpu: proc_stat::cpu_seconds() - cpu0 })
}

/// Whether a time-budgeted loop that has run `done` pieces for `elapsed`
/// seconds, the last taking `last` seconds, starts another: it always
/// completes `minimum` pieces, and otherwise starts one only if it should
/// end before the budget plus half a piece.
pub fn another(done: usize, minimum: usize, elapsed: f64, last: f64, budget: f64) -> bool {
    done < minimum || elapsed + 0.5 * last < budget
}

/// `count` per `seconds`, finite even for a piece whose time reads zero.
pub fn per(count: f64, seconds: f64) -> f64 {
    count / seconds.max(0.01)
}

/// A 64-bit digest of `value`'s `Debug` text, stable across runs of one
/// build.
pub fn digest(value: &impl std::fmt::Debug) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    format!("{value:?}").hash(&mut hasher);
    hasher.finish()
}

/// Notes the machine's median speed over a run, which its end-to-end
/// figures were scaled by piece by piece.
pub fn note_speed(report: &mut report::Report, speed: &reference::Speed) {
    report.note(
        "machine speed / reference (sampling points)",
        format!("{:.4} ({})", speed.median(), speed.points()),
    );
}

/// Shared tail of every workload: process accounting and the thread
/// check. `peak_threads` is the workload's peak from
/// [`proc_stat::ThreadSampler`].
pub fn finish_process(report: &mut report::Report, run: &Run, peak_threads: u64) {
    let nproc = proc_stat::nproc();
    report.check(peak_threads as usize <= nproc, || {
        format!("the workload ran {peak_threads} OS threads, more than the {nproc} CPUs")
    });
    if run.trace {
        report.set("executor.os_threads", peak_threads as f64);
    } else {
        report.set("peak_rss_mb", proc_stat::peak_rss_mb());
    }
}
