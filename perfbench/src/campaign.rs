//! The `campaign` workload: what `yinyang fuzz` users run.
//!
//! One repetition is `run_campaign_full` against Zirkon and then Corvus,
//! plus `triage` over both personas' findings: the body of `yinyang fuzz`
//! at the CLI's defaults (scale 400, 30 iterations, 3 fix-and-retest
//! rounds, one thread, default executor, cache off) on the input seed.
//! Repetitions run until the time budget is spent.
//!
//! The traced run runs the campaign once with the solve cache on. Then a
//! benchmark-side driver replays the campaign's job loop through the
//! public functions of each layer, untraced and then with a span around
//! every call.

use crate::reference::Speed;
use crate::report::{reason_slug, Report};
use crate::spans::Spans;
use crate::stats::{median, percentile, tail_percentile, top_percent_share};
use crate::{another, digest, per, proc_stat, timed, Run, Timing};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use yinyang_campaign::campaign::run_campaign_full_with_cache;
use yinyang_campaign::config::fast_solver_config;
use yinyang_campaign::{run_campaign_full, triage, Behavior, CampaignConfig, RawFinding};
use yinyang_campaign::{CampaignRun, SolveCache};
use yinyang_core::{run_catching, Fuser, Oracle, SolverAnswer};
use yinyang_faults::{BugClass, BugStatus, FaultySolver, SolverId};
use yinyang_rt::{MetricsSnapshot, Rng, SplitMix64, StdRng};
use yinyang_seedgen::profile::{fig7_profile, generate_row};
use yinyang_seedgen::Seed;
use yinyang_smtlib::Script;
use yinyang_solver::{SatResult, SmtSolver, SolverStats};

/// The CLI's default seed-count scale.
const SCALE: usize = 400;

/// Campaign repetitions every end-to-end run completes, however short its
/// time budget: at the full size one takes about 16 s on a 2-core x86-64
/// box, and three give a median that one slow repetition cannot move.
const REPS: usize = 3;

/// Kernel samples at each sampling point of the machine's speed: five,
/// about 0.25 s against a persona's campaign of 5 to 8 s.
const SPEED_SAMPLES: usize = 5;

/// Back-to-back set-ups timed as one `setup_s` sample: one set-up takes
/// about 6 ms, too short to time steadily on its own.
const SETUP_REPEATS: usize = 16;

/// One (benchmark, oracle) seed pool.
pub struct Pool {
    /// Fig. 7 row name.
    pub benchmark: &'static str,
    /// Satisfiability of every seed in the pool.
    pub oracle: Oracle,
    /// The seeds.
    pub seeds: Vec<Seed>,
}

/// The Fig. 7 seed pools for `seed` at `1:scale`, built the way a
/// campaign round builds them.
pub fn pools(seed: u64, scale: usize) -> Vec<Pool> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pools = Vec::new();
    for row in fig7_profile() {
        let seeds = generate_row(&mut rng, &row, scale);
        for oracle in [Oracle::Sat, Oracle::Unsat] {
            let subset: Vec<Seed> = seeds.iter().filter(|s| s.oracle == oracle).cloned().collect();
            if !subset.is_empty() {
                pools.push(Pool { benchmark: row.name, oracle, seeds: subset });
            }
        }
    }
    pools
}

/// The campaign every run measures: the CLI's default `yinyang fuzz` at
/// one thread on the input seed.
fn campaign_config(run: &Run) -> CampaignConfig {
    CampaignConfig {
        scale: SCALE,
        iterations: run.size.campaign_iterations,
        rounds: run.size.campaign_rounds,
        rng_seed: run.input_seed,
        threads: 1,
        cache: false,
        pipeline: true,
        ..CampaignConfig::default()
    }
}

/// What one run of the campaign (both personas and triage) produced.
struct Unit {
    /// Wall and CPU time of the unit.
    timing: Timing,
    /// The same in reference seconds, when the machine's speed was sampled.
    scaled: Timing,
    tests: usize,
    unknowns: usize,
    fusion_failures: usize,
    /// Findings without a bug id.
    unmapped: usize,
    bugs: usize,
    metrics: MetricsSnapshot,
    digest: u64,
}

impl Unit {
    fn attempted(&self) -> usize {
        self.tests + self.fusion_failures
    }

    fn failed(&self) -> usize {
        self.unknowns + self.fusion_failures
    }
}

/// Zirkon, then Corvus, then triage over both — with `cache` shared by
/// the two campaigns when given. With `speed`, the machine's speed is
/// sampled after each persona's campaign (untimed), and each campaign is
/// scaled to reference seconds by the speed around it.
fn run_unit(
    config: &CampaignConfig,
    cache: Option<&SolveCache>,
    mut speed: Option<&mut Speed>,
) -> Unit {
    let (mut timing, mut scaled) = (Timing::default(), Timing::default());
    let mut runs: Vec<CampaignRun> = Vec::new();
    for id in [SolverId::Zirkon, SolverId::Corvus] {
        let (r, t) = timed(|| match cache {
            None => run_campaign_full(config, id),
            Some(cache) => run_campaign_full_with_cache(config, id, Some(cache)),
        });
        runs.push(r);
        timing = timing.plus(t);
        if let Some(speed) = speed.as_deref_mut() {
            scaled = scaled.plus(speed.rescale(t, SPEED_SAMPLES));
        }
    }
    let ((findings, bugs), t) = timed(|| {
        let findings: Vec<RawFinding> =
            runs.iter().flat_map(|r| r.outcome.findings.iter().cloned()).collect();
        let bugs: usize = triage(&findings).found_bugs.values().map(BTreeSet::len).sum();
        (findings, bugs)
    });
    timing = timing.plus(t);
    if let Some(speed) = speed {
        scaled = scaled.plus(speed.scale(t));
    }
    let mut metrics = MetricsSnapshot::default();
    let (mut tests, mut unknowns, mut fusion_failures) = (0, 0, 0);
    for r in &runs {
        tests += r.outcome.stats.tests;
        unknowns += r.outcome.stats.unknowns;
        fusion_failures += r.outcome.stats.fusion_failures;
        metrics.merge(&r.metrics);
    }
    let digest = digest(&(&findings, tests, unknowns, fusion_failures));
    let unmapped = findings.iter().filter(|f| f.bug_id.is_none()).count();
    Unit { timing, scaled, tests, unknowns, fusion_failures, unmapped, bugs, metrics, digest }
}

/// Runs the workload.
pub fn run(run: &Run) -> Report {
    let mut report = Report::default();
    let sampler = proc_stat::ThreadSampler::start();
    let config = campaign_config(run);
    if run.trace {
        traced(&config, &mut report);
    } else {
        end_to_end(run, &config, &mut report);
    }
    crate::finish_process(&mut report, run, sampler.finish());
    report
}

/// The end-to-end run: the campaign, repeated at least [`REPS`] times
/// and until the budget is spent.
fn end_to_end(run: &Run, config: &CampaignConfig, report: &mut Report) {
    // Set-up: the first round's seed pools and both personas, which is
    // all a campaign builds before its first test. It is timed again
    // after every repetition, so its median spans the run like the rates.
    // One sample is in reference seconds, scaled by the latest speed.
    let setup = |speed: &Speed| {
        let ((), t) = timed(|| {
            for _ in 0..SETUP_REPEATS {
                let personas =
                    [FaultySolver::trunk(SolverId::Zirkon), FaultySolver::trunk(SolverId::Corvus)];
                std::hint::black_box((pools(config.rng_seed, SCALE), personas));
            }
        });
        speed.scale(t).wall / SETUP_REPEATS as f64
    };
    // The machine's speed is sampled before the first campaign and right
    // after each; campaigns and set-ups are scaled to reference seconds by
    // the speed around them.
    let mut speed = Speed::default();
    speed.sample(SPEED_SAMPLES);
    let mut setups: Vec<f64> = (0..run.size.setups).map(|_| setup(&speed)).collect();
    let start = Instant::now();
    let mut reps: Vec<Unit> = Vec::new();
    while another(
        reps.len(),
        REPS,
        start.elapsed().as_secs_f64(),
        reps.last().map_or(0.0, |u| u.timing.wall),
        run.seconds,
    ) {
        reps.push(run_unit(config, None, Some(&mut speed)));
        setups.extend((0..run.size.setups).map(|_| setup(&speed)));
    }
    let first = &reps[0];
    report.check(first.unmapped == 0, || format!("{} findings have no bug id", first.unmapped));
    report.check(reps.iter().all(|u| u.digest == first.digest), || {
        "a repetition of the campaign changed its findings or counters".to_owned()
    });
    report.attempted = reps.iter().map(|u| u.attempted() as u64).sum();
    report.failed = reps.iter().map(|u| u.failed() as u64).sum();
    let rates = |t: fn(&Unit) -> f64| -> Vec<f64> {
        reps.iter().map(|u| per(u.tests as f64, t(u))).collect()
    };
    report.set("ops_per_ref_s", median(&rates(|u| u.scaled.wall)));
    report.set("ops_per_ref_cpu_s", median(&rates(|u| u.scaled.cpu)));
    report.set("ok_share", 1.0 - first.failed() as f64 / first.attempted() as f64);
    report.set("setup_s", median(&setups));
    crate::note_speed(report, &speed);
    let (rates, cpu_rates) = (rates(|u| u.timing.wall), rates(|u| u.timing.cpu));
    let each: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    report.note("repetitions (tests/s each)", format!("{} ({})", reps.len(), each.join(", ")));
    report.note("tests", first.tests);
    report.note("tests_per_s (median repetition)", format!("{:.3} tests/s", median(&rates)));
    report
        .note("tests_per_cpu_s (median repetition)", format!("{:.3} tests/s", median(&cpu_rates)));
    report.note("bugs_found", first.bugs);
    report.note("unknown_share", format!("{:.6}", first.unknowns as f64 / first.tests as f64));
    let failure_share = first.fusion_failures as f64 / first.attempted() as f64;
    report.note("fusion_failure_share", format!("{failure_share:.6}"));
    report.note("findings and counters digest", format!("{:016x}", first.digest));
}

/// The traced run: the campaign with the solve cache on, then the
/// benchmark-side driver over the same campaign untraced and traced.
fn traced(config: &CampaignConfig, report: &mut Report) {
    // Cache hits replay the skipped solve's metrics, so the counters of
    // the cache-on run are the campaign's own.
    let cache = SolveCache::new(CampaignConfig::default().cache_capacity);
    let unit = run_unit(config, Some(&cache), None);
    let timing = unit.timing;
    report.check(unit.unmapped == 0, || format!("{} findings have no bug id", unit.unmapped));
    report.attempted = unit.attempted() as u64;
    report.failed = unit.failed() as u64;
    report.set("executor.cpu_util", timing.cpu / (timing.wall * proc_stat::nproc() as f64));
    for (name, counter) in [
        ("sat.decisions", "solver.sat.decisions"),
        ("sat.propagations", "solver.sat.propagations"),
        ("sat.conflicts", "solver.sat.conflicts"),
        ("sat.restarts", "solver.sat.restarts"),
        ("simplex.pivots", "solver.simplex.pivots"),
        ("strings.search_nodes", "solver.strings.search_nodes"),
        ("faults.bug_triggered", "faults.bug_triggered"),
        ("harness.crashes", "harness.crashes"),
    ] {
        report.set(name, unit.metrics.counter(counter) as f64);
    }
    let stats = cache.stats();
    let lookups = stats.hits + stats.misses;
    report.set("solve_cache.lookups", lookups as f64);
    report.set("solve_cache.hit_ratio", stats.hits as f64 / (lookups as f64).max(1.0));
    report.set("outcome.tests", unit.tests as f64);
    report.set("outcome.bugs_found", unit.bugs as f64);
    report.set("outcome.unknown_share", unit.unknowns as f64 / unit.tests as f64);
    report
        .set("outcome.fusion_failure_share", unit.fusion_failures as f64 / unit.attempted() as f64);

    let (untraced, spans) = (Spans::new(false), Spans::new(true));
    let (mut plain, mut tally) = (Tally::default(), Tally::default());
    let plain_wall = timed(|| drive(config, &untraced, &mut plain)).1.wall;
    let traced_wall = timed(|| drive(config, &spans, &mut tally)).1.wall;
    // The driver replays the campaign's jobs exactly, so it must count
    // what the campaign counted, traced or not.
    let expected = (unit.tests, unit.unknowns, unit.bugs);
    let (untraced_counts, traced_counts) = (plain.counts(), tally.counts());
    report.check(untraced_counts == expected && traced_counts == expected, || {
        format!(
            "the driver counted (tests, unknowns, bugs) {untraced_counts:?} untraced and \
             {traced_counts:?} traced, the campaign {expected:?}"
        )
    });
    report.set("trace.overhead_share", traced_wall / plain_wall - 1.0);
    report.set("trace.unattributed_share", 1.0 - spans.root_s() / traced_wall);
    tally.report(&spans, report);
}

/// What the driver counted.
#[derive(Debug, Default)]
struct Tally {
    tests: usize,
    unknowns: usize,
    bugs: usize,
    seeds: usize,
    fused_nodes: usize,
    solve: SolveTally,
}

impl Tally {
    fn counts(&self) -> (usize, usize, usize) {
        (self.tests, self.unknowns, self.bugs)
    }

    fn report(&self, spans: &Spans, report: &mut Report) {
        report.set("seedgen.self_s", spans.self_s("seedgen"));
        report.set("seedgen.seeds", self.seeds as f64);
        layer_timings(spans, report);
        report.set("fusion.out_nodes_mean", self.fused_nodes as f64 / self.tests.max(1) as f64);
        report.set("oracle.self_s", spans.self_s("oracle"));
        report.set("triage.self_s", spans.self_s("triage"));
        report.set("faults.forced_unknown", self.solve.forced_unknown as f64);
        for (reason, count) in &self.solve.reasons {
            report.set(&format!("solver.unknown.{reason}"), *count as f64);
        }
        report.set("driver.tests", self.tests as f64);
        report.set("driver.unknown_share", self.unknowns as f64 / self.tests.max(1) as f64);
        report.set("driver.bugs_found", self.bugs as f64);
    }
}

/// The span-derived metrics shared by the workloads: fusion, persona,
/// trigger and solver timings.
pub fn layer_timings(spans: &Spans, report: &mut Report) {
    let fusion: Vec<f64> = spans.durations_s("fusion").iter().map(|s| s * 1e6).collect();
    report.set("fusion.self_s", spans.self_s("fusion"));
    report.set("fusion.calls", fusion.len() as f64);
    report.set("fusion.p50_us", percentile(&fusion, 50.0));
    let pct = tail_percentile(fusion.len());
    report.set("fusion.tail_pct", pct);
    report.set("fusion.tail_us", percentile(&fusion, pct));
    report.set("faults.persona_build_s", spans.self_s("persona"));
    report.set("faults.trigger_s", spans.self_s("trigger"));
    report.set("faults.trigger_calls", spans.count("trigger") as f64);
    let solves: Vec<f64> = spans.durations_s("solve").iter().map(|s| s * 1e3).collect();
    report.set("solver.self_s", spans.self_s("solve"));
    report.set("solver.calls", solves.len() as f64);
    report.set("solver.p50_ms", percentile(&solves, 50.0));
    let pct = tail_percentile(solves.len());
    report.set("solver.tail_pct", pct);
    report.set("solver.tail_ms", percentile(&solves, pct));
    report.set("solver.max_ms", solves.iter().copied().fold(0.0, f64::max));
    report.set("solver.top1pct_share", top_percent_share(&solves));
    for row in crate::report::ROWS {
        report.set(&format!("solver.self_s.{row}"), spans.self_s_tagged("solve", row));
    }
}

/// Solver statistics and unknown reasons gathered by [`solve`].
#[derive(Debug, Default)]
pub struct SolveTally {
    /// Summed statistics of direct solves.
    pub stats: SolverStats,
    /// `unknown` answers by reason slug.
    pub reasons: BTreeMap<&'static str, usize>,
    /// `unknown` answers an injected bug forced.
    pub forced_unknown: usize,
}

/// What `FaultySolver::check_sat` does, split so the solver's statistics
/// and reasons are visible: when `injected` (a bug fired) the persona
/// acts it out, otherwise the reference solver runs with the campaign's
/// limits. Panics become crash answers, as in `run_catching`.
pub fn solve(
    persona: &FaultySolver,
    injected: bool,
    script: &Script,
    tally: &mut SolveTally,
) -> SolverAnswer {
    if injected {
        let answer = run_catching(persona, script);
        tally.forced_unknown += usize::from(answer == SolverAnswer::Unknown);
        return answer;
    }
    let solver = SmtSolver::with_config(fast_solver_config());
    match catch_unwind(AssertUnwindSafe(|| solver.solve_script(script))) {
        Err(_) => SolverAnswer::Crash("reference solver panicked".to_owned()),
        Ok(out) => {
            tally.stats.add(&out.stats);
            match out.result {
                SatResult::Sat => SolverAnswer::Sat,
                SatResult::Unsat => SolverAnswer::Unsat,
                SatResult::Unknown => {
                    *tally
                        .reasons
                        .entry(reason_slug(out.reason.as_deref().unwrap_or("")))
                        .or_default() += 1;
                    SolverAnswer::Unknown
                }
            }
        }
    }
}

/// The campaign's persona for a job: trunk, campaign limits, and the
/// fixes landed so far.
pub fn persona(id: SolverId, fixed: &BTreeSet<u32>) -> FaultySolver {
    let mut solver = FaultySolver::trunk(id);
    solver.set_base_config(fast_solver_config());
    for &bug in fixed {
        solver.apply_fix(bug);
    }
    solver
}

/// The campaign through the driver: its job loop, step by step, with a
/// span around each layer call.
fn drive(config: &CampaignConfig, spans: &Spans, tally: &mut Tally) {
    let fuser = Fuser::new();
    let mut all = Vec::new();
    for id in [SolverId::Zirkon, SolverId::Corvus] {
        let mut fixed: BTreeSet<u32> = BTreeSet::new();
        for round in 0..config.rounds {
            let round_seed = config.rng_seed ^ (round as u64).wrapping_mul(0x9E37_79B9);
            let pools = spans.time("seedgen", || pools(round_seed, config.scale));
            tally.seeds += pools.iter().map(|p| p.seeds.len()).sum::<usize>();
            let mut findings = Vec::new();
            for index in 0..pools.len() * config.iterations {
                let pool = &pools[index / config.iterations];
                // The campaign's per-job stream: SplitMix64's finalizer
                // over the round seed and the flat job index.
                let job_seed = SplitMix64::new(
                    round_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
                .next_u64();
                let mut rng = StdRng::seed_from_u64(job_seed);
                let s1 = rng.random_range(0..pool.seeds.len());
                let s2 = rng.random_range(0..pool.seeds.len());
                let fused = spans.time("fusion", || {
                    fuser.fuse(
                        &mut rng,
                        pool.oracle,
                        &pool.seeds[s1].script,
                        &pool.seeds[s2].script,
                    )
                });
                let solver = spans.time("persona", || persona(id, &fixed));
                let Ok(fused) = fused else { continue };
                tally.tests += 1;
                tally.fused_nodes += fused.script.asserts().iter().map(|t| t.size()).sum::<usize>();
                let fired = spans.time("trigger", || solver.triggered_bug(&fused.script).is_some());
                let answer = {
                    let _span = spans.open("solve", pool.benchmark);
                    solve(&solver, fired, &fused.script, &mut tally.solve)
                };
                let _span = spans.open("oracle", "");
                let trigger =
                    || spans.time("trigger", || solver.triggered_bug(&fused.script).cloned());
                let behavior = match &answer {
                    SolverAnswer::Crash(message) => {
                        Some(Behavior::Crash { message: message.clone() })
                    }
                    SolverAnswer::Unknown => {
                        tally.unknowns += 1;
                        trigger()
                            .filter(|b| {
                                matches!(b.class, BugClass::Performance | BugClass::Unknown)
                            })
                            .map(|_| Behavior::SpuriousUnknown)
                    }
                    SolverAnswer::Sat | SolverAnswer::Unsat => {
                        let agrees = matches!(
                            (pool.oracle, &answer),
                            (Oracle::Sat, SolverAnswer::Sat) | (Oracle::Unsat, SolverAnswer::Unsat)
                        );
                        (!agrees).then(|| Behavior::Incorrect {
                            got: answer.as_str().to_owned(),
                            expected: pool.oracle.to_string(),
                        })
                    }
                };
                if let Some(behavior) = behavior {
                    findings.push(RawFinding {
                        solver: yinyang_core::SolverUnderTest::name(&solver),
                        bug_id: trigger().map(|b| b.id),
                        behavior,
                        logic: fused.script.logic().unwrap_or("ALL").to_owned(),
                        benchmark: pool.benchmark.to_owned(),
                        round,
                        script: fused.script.to_string(),
                        seeds: (
                            pool.seeds[s1].script.to_string(),
                            pool.seeds[s2].script.to_string(),
                        ),
                        oracle: pool.oracle.to_string(),
                    });
                }
            }
            spans.time("triage", || {
                for finding in &findings {
                    let Some(id) = finding.bug_id else { continue };
                    let bug = yinyang_faults::registry().into_iter().find(|b| b.id == id);
                    if bug.is_some_and(|b| matches!(b.status, BugStatus::Confirmed { fixed: true }))
                    {
                        fixed.insert(id);
                    }
                }
            });
            all.extend(findings);
        }
    }
    tally.bugs +=
        spans.time("triage", || triage(&all).found_bugs.values().map(BTreeSet::len).sum::<usize>());
}
