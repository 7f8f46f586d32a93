//! The `triage` workload: reduce and replay findings.
//!
//! Set-up runs a short campaign against both personas for its findings
//! and their `FindingForensics`. A *pass* then writes every raw finding —
//! not only one per fingerprint — as its own bundle with `write_bundles`
//! (ddmin, where every candidate round-trips through print, parse and a
//! solve), and replays all the bundles with `run_regress_full` against
//! `trunk` and then `reference`. Bundles go to a scratch directory under
//! the working directory, removed when the run ends.
//!
//! The traced run also replays the ddmin of every finding through the
//! public functions `write_bundles` calls, with a span around each.

use crate::campaign::{persona, solve, SolveTally};
use crate::reference::Speed;
use crate::report::{Report, ROWS};
use crate::spans::Spans;
use crate::stats::{median, percentile, tail_percentile};
use crate::{another, digest, per, proc_stat, timed, Run, Timing};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;
use yinyang_campaign::config::{fast_solver_config, solver_of};
use yinyang_campaign::{run_campaign_full, write_bundles, Behavior, BundleSummary, CampaignConfig};
use yinyang_campaign::{
    run_regress_full, FindingForensics, RawFinding, RegressConfig, RegressSummary,
};
use yinyang_core::SolverAnswer;
use yinyang_faults::{FaultySolver, SolverId};
use yinyang_smtlib::{parse_script, Script};

/// Where passes write their bundles, relative to the working directory.
const WORK_DIR: &str = ".bench_work";

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Findings with their index-aligned forensics.
type Findings = (Vec<RawFinding>, Vec<FindingForensics>);

/// The findings campaign of the set-up.
fn findings_campaign(run: &Run) -> Findings {
    let config = CampaignConfig {
        scale: 400,
        iterations: run.size.triage_iterations,
        rounds: 3,
        rng_seed: run.input_seed,
        threads: 1,
        cache: false,
        pipeline: true,
        ..CampaignConfig::default()
    };
    let (mut findings, mut forensics) = (Vec::new(), Vec::new());
    for id in [SolverId::Zirkon, SolverId::Corvus] {
        let r = run_campaign_full(&config, id);
        findings.extend(r.outcome.findings);
        forensics.extend(r.forensics);
    }
    (findings, forensics)
}

/// What one pass produced.
#[derive(Debug, Clone)]
struct Pass {
    bundles: Vec<BundleSummary>,
    trunk: RegressSummary,
    reference: RegressSummary,
}

/// Wall times of a pass's two parts.
struct PassTiming {
    bundles: Timing,
    regress: Timing,
    /// The whole pass in reference seconds, when the machine's speed was
    /// sampled.
    scaled: Timing,
}

/// Kernel samples at each sampling point of the machine's speed: two,
/// about 0.1 s against a part of a pass of 0.5 to 1 s.
const SPEED_SAMPLES: usize = 2;

/// One pass into `dir`, with spans around the bundle writes and the two
/// replays.
fn pass(
    run: &Run,
    dir: &Path,
    findings: &[RawFinding],
    forensics: &[FindingForensics],
    spans: &Spans,
    mut speed: Option<&mut Speed>,
) -> Result<(Pass, PassTiming), String> {
    // With `speed`, the machine's speed is sampled after the bundle writes
    // and after each replay (untimed), and each is scaled to reference
    // seconds by the speed around it.
    let mut scaled = Timing::default();
    let mut rescale = |t: Timing| {
        if let Some(speed) = speed.as_deref_mut() {
            scaled = scaled.plus(speed.rescale(t, SPEED_SAMPLES));
        }
    };
    let _ = std::fs::remove_dir_all(dir);
    let (written, bundles_timing) = timed(|| -> Result<_, String> {
        let mut roots = Vec::new();
        let mut bundles = Vec::new();
        for (i, (finding, fx)) in findings.iter().zip(forensics).enumerate() {
            let root = dir.join(format!("{i:05}"));
            let _span = spans.open("bundle", "");
            let summary =
                write_bundles(&root, std::slice::from_ref(finding), std::slice::from_ref(fx))
                    .map_err(|e| format!("cannot write bundle {}: {e}", root.display()))?;
            bundles.extend(summary);
            roots.push(root);
        }
        Ok((roots, bundles))
    });
    let (roots, bundles) = written?;
    rescale(bundles_timing);
    let mut regress_timing = Timing::default();
    let mut replays = Vec::new();
    for (release, span) in [("trunk", "regress.trunk"), ("reference", "regress.reference")] {
        let config = RegressConfig {
            release: release.to_owned(),
            threads: 1,
            rng_seed: run.seed,
            ..RegressConfig::default()
        };
        let (replay, t) = timed(|| {
            let _span = spans.open(span, "");
            run_regress_full(&roots, &config)
        });
        replays.push(replay?.report.summary);
        regress_timing = regress_timing.plus(t);
        rescale(t);
    }
    let mut replays = replays.into_iter();
    let trunk = replays.next().expect("a trunk replay");
    let reference = replays.next().expect("a reference replay");
    Ok((
        Pass { bundles, trunk, reference },
        PassTiming { bundles: bundles_timing, regress: regress_timing, scaled },
    ))
}

/// Runs the workload.
pub fn run(run: &Run) -> Report {
    let mut report = Report::default();
    let sampler = proc_stat::ThreadSampler::start();
    // The machine's speed is sampled before the first set-up and right
    // after every set-up and every part of a pass; each is scaled to
    // reference seconds by the speed around it.
    let mut speed = Speed::default();
    speed.sample(SPEED_SAMPLES);
    let setup = |speed: &mut Speed| {
        let (findings, t) = timed(|| findings_campaign(run));
        (findings, speed.rescale(t, SPEED_SAMPLES).wall)
    };
    let setups: Vec<(Findings, f64)> = (0..run.size.setups).map(|_| setup(&mut speed)).collect();
    let first = digest(&setups[0].0 .0);
    let differ = || "the findings campaign found different findings for the same seed".to_owned();
    report.check(setups.iter().all(|((f, _), _)| digest(f) == first), differ);
    let mut setup_walls: Vec<f64> = setups.iter().map(|(_, t)| *t).collect();
    let (findings, forensics) = setups.into_iter().next().expect("at least one set-up").0;
    let n = findings.len();
    report.check(n > 0, || "the findings campaign found nothing to triage".to_owned());

    let scratch = Scratch(Path::new(WORK_DIR).join(format!("triage-{}", std::process::id())));
    let dir = scratch.0.join("pass");
    let untraced = Spans::new(false);
    let start = Instant::now();
    let budget = if run.trace { run.seconds * 0.3 } else { run.seconds };
    let mut passes: Vec<(Pass, PassTiming)> = Vec::new();
    while n > 0
        && another(
            passes.len(),
            1,
            start.elapsed().as_secs_f64(),
            passes.last().map_or(0.0, |(_, t)| t.bundles.wall + t.regress.wall),
            budget,
        )
    {
        let sampled = (!run.trace).then_some(&mut speed);
        match pass(run, &dir, &findings, &forensics, &untraced, sampled) {
            Ok(p) => passes.push(p),
            Err(e) => {
                report.check(false, || e);
                break;
            }
        }
        // Set-up is timed again after every pass of the end-to-end run, so
        // its median spans the run like the rates.
        if !run.trace {
            let (again, wall) = setup(&mut speed);
            setup_walls.push(wall);
            report.check(digest(&again.0) == first, differ);
        }
    }
    if passes.is_empty() {
        crate::finish_process(&mut report, run, sampler.finish());
        return report;
    }

    let first = &passes[0].0;
    for (p, _) in &passes {
        report.check(digest(p) == digest(first), || {
            "a later pass wrote or replayed differently".to_owned()
        });
    }
    let reproduced = first.bundles.iter().filter(|b| b.reproduced).count();
    report.check(reproduced == n, || format!("{} of {n} bundles do not reproduce", n - reproduced));
    report.check(first.trunk.total == n && first.trunk.still_broken == n, || {
        format!("trunk replay: {:?} over {n} bundles, expected all still-broken", first.trunk)
    });
    let failed = (n - reproduced + first.trunk.stale) as u64;
    report.attempted = (n * passes.len()) as u64;
    report.failed = failed * passes.len() as u64;
    let fused_bytes: usize = first.bundles.iter().map(|b| b.fused_bytes).sum();
    let reduced_bytes: usize = first.bundles.iter().map(|b| b.reduced_bytes).sum();
    let reduced_ratio = reduced_bytes as f64 / fused_bytes as f64;
    let reproduced_share = reproduced as f64 / n as f64;
    let bundle_rates: Vec<f64> =
        passes.iter().map(|(_, t)| per(n as f64, t.bundles.wall)).collect();
    let replay_rates: Vec<f64> =
        passes.iter().map(|(_, t)| per(2.0 * n as f64, t.regress.wall)).collect();

    if run.trace {
        let wall: f64 = passes.iter().map(|(_, t)| t.bundles.wall + t.regress.wall).sum();
        let cpu: f64 = passes.iter().map(|(_, t)| t.bundles.cpu + t.regress.cpu).sum();
        report.set("executor.cpu_util", cpu / (wall * proc_stat::nproc() as f64));
        traced(run, &mut report, &dir, &findings, &forensics, &passes);
        report.set("outcome.reduced_bytes_ratio", reduced_ratio);
        report.set("outcome.reproduced_share", reproduced_share);
        report.set("rate.bundles_per_s", median(&bundle_rates));
        report.set("rate.replays_per_s", median(&replay_rates));
        report.set("regress.unique_replays", first.trunk.unique_replays as f64);
        report.set("regress.duplicates_merged", first.trunk.duplicates_merged as f64);
        report.set("regress.stale", first.trunk.stale as f64);
    } else {
        let rate = |t: fn(&Timing) -> f64| -> f64 {
            median(&passes.iter().map(|(_, p)| per(n as f64, t(&p.scaled))).collect::<Vec<_>>())
        };
        report.set("ops_per_ref_s", rate(|t| t.wall));
        report.set("ops_per_ref_cpu_s", rate(|t| t.cpu));
        report.set("ok_share", 1.0 - failed as f64 / n as f64);
        report.set("setup_s", median(&setup_walls));
        report.note("findings (passes)", format!("{n} ({})", passes.len()));
        crate::note_speed(&mut report, &speed);
        let rates: Vec<f64> =
            passes.iter().map(|(_, t)| per(n as f64, t.bundles.wall + t.regress.wall)).collect();
        report.note("ops_per_s (median pass)", format!("{:.3} findings/s", median(&rates)));
        report
            .note("bundles_per_s (median pass)", format!("{:.3} bundles/s", median(&bundle_rates)));
        report
            .note("replays_per_s (median pass)", format!("{:.3} replays/s", median(&replay_rates)));
        report.note("reduced_bytes_ratio", format!("{reduced_ratio:.6}"));
        report.note("reproduced_share", format!("{reproduced_share:.6}"));
        report.note("trunk replay", format!("{:?}", first.trunk));
        report.note("reference replay", format!("{:?}", first.reference));
    }
    drop(scratch);
    crate::finish_process(&mut report, run, sampler.finish());
    report
}

/// The traced run: one pass and the ddmin replay, untraced and then
/// traced.
fn traced(
    run: &Run,
    report: &mut Report,
    dir: &Path,
    findings: &[RawFinding],
    forensics: &[FindingForensics],
    passes: &[(Pass, PassTiming)],
) {
    let replay_all = |spans: &Spans, tally: &mut Replay| {
        for (finding, fx) in findings.iter().zip(forensics) {
            let bytes = replay_minimize(finding, fx, spans, tally);
            tally.reduced_bytes.push(bytes);
        }
    };
    let ((), plain) = timed(|| {
        let _ = pass(run, dir, findings, forensics, &Spans::new(false), None);
        replay_all(&Spans::new(false), &mut Replay::default());
    });
    let spans = Spans::new(true);
    let mut tally = Replay::default();
    let (traced_pass, timing) = timed(|| {
        let p = pass(run, dir, findings, forensics, &spans, None);
        replay_all(&spans, &mut tally);
        p
    });
    match traced_pass {
        Ok((p, _)) => report
            .check(digest(&p) == digest(&passes[0].0), || "the traced pass differs".to_owned()),
        Err(e) => report.check(false, || e),
    }
    // The replay must reduce every finding to the bundle's reduced script.
    let written: Vec<usize> = passes[0].0.bundles.iter().map(|b| b.reduced_bytes).collect();
    report.check(
        tally.reduced_bytes.iter().map(|b| b.unwrap_or(0)).eq(written.iter().copied()),
        || "the ddmin replay reduced differently from write_bundles".to_owned(),
    );
    report.set("trace.overhead_share", timing.wall / plain.wall - 1.0);
    report.set("trace.unattributed_share", 1.0 - spans.root_s() / timing.wall);
    report.set("regress.self_s.trunk", spans.self_s("regress.trunk"));
    report.set("regress.self_s.reference", spans.self_s("regress.reference"));
    crate::campaign::layer_timings(&spans, report);
    report.set("print.self_s", spans.self_s("print"));
    report.set("parse.self_s", spans.self_s("parse"));
    let reduces: Vec<f64> = spans.durations_s("reduce").iter().map(|s| s * 1e3).collect();
    report.set("reduce.self_s", spans.self_s("reduce"));
    report.set("reduce.calls", reduces.len() as f64);
    report.set("reduce.p50_ms", percentile(&reduces, 50.0));
    let pct = tail_percentile(reduces.len());
    report.set("reduce.tail_pct", pct);
    report.set("reduce.tail_ms", percentile(&reduces, pct));
    report.set("reduce.candidates", tally.candidates as f64);
    report.set("reduce.passes", tally.passes as f64);
    let stats = &tally.solve.stats;
    for (name, value) in [
        ("sat.decisions", stats.decisions),
        ("sat.propagations", stats.propagations),
        ("sat.conflicts", stats.conflicts),
        ("sat.restarts", stats.restarts),
        ("simplex.pivots", stats.simplex_pivots),
        ("strings.search_nodes", stats.string_search_nodes),
    ] {
        report.set(name, value as f64);
    }
    report.set("faults.forced_unknown", tally.solve.forced_unknown as f64);
    report.set("harness.crashes", tally.crashes as f64);
    for (reason, count) in &tally.solve.reasons {
        report.set(&format!("solver.unknown.{reason}"), *count as f64);
    }
}

/// What the ddmin replay counted.
#[derive(Default)]
struct Replay {
    solve: SolveTally,
    candidates: usize,
    passes: usize,
    crashes: usize,
    reduced_bytes: Vec<Option<usize>>,
}

/// The `solver.self_s.<row>` tag of a finding's benchmark.
fn row_tag(benchmark: &str) -> &'static str {
    ROWS.iter().find(|row| **row == benchmark).copied().unwrap_or("")
}

/// The ddmin that `write_bundles` runs for one finding, through the same
/// public functions: rebuild the persona with the finding's fixes, add a
/// reference cross-check for wrong answers, and reduce while the
/// print→parse round trip of a candidate still shows the finding.
/// Returns the reduced script's length in bytes.
fn replay_minimize(
    finding: &RawFinding,
    fx: &FindingForensics,
    spans: &Spans,
    tally: &mut Replay,
) -> Option<usize> {
    let fused = spans.time("parse", || parse_script(&finding.script)).ok()?;
    let id = solver_of(finding)?;
    let fixed: BTreeSet<u32> = fx.fixed.iter().copied().collect();
    let solver = spans.time("persona", || persona(id, &fixed));
    let tag = row_tag(&finding.benchmark);
    let mut reference = None;
    if matches!(finding.behavior, Behavior::Incorrect { .. }) {
        let r = spans.time("persona", || {
            let mut r = FaultySolver::reference(id);
            r.set_base_config(fast_solver_config());
            r
        });
        let answer = {
            let _span = spans.open("solve", tag);
            solve(&r, false, &fused, &mut tally.solve)
        };
        if matches!(answer, SolverAnswer::Sat | SolverAnswer::Unsat) {
            reference = Some(r);
        }
    }
    let mut interesting = |candidate: &Script| {
        let text = spans.time("print", || candidate.to_string());
        match spans.time("parse", || parse_script(&text)) {
            Ok(roundtripped) => still_interesting(
                &roundtripped,
                &solver,
                reference.as_ref(),
                finding,
                spans,
                tag,
                tally,
            ),
            Err(_) => false,
        }
    };
    let reduced = if interesting(&fused) {
        let (reduced, stats) = {
            let _span = spans.open("reduce", "");
            yinyang_reduce::reduce_with_stats(&fused, &mut interesting)
        };
        tally.candidates += stats.candidates;
        tally.passes += stats.passes;
        reduced
    } else {
        fused
    };
    Some(spans.time("print", || reduced.to_string()).len())
}

/// Whether `candidate` still shows the finding: the same bug fires, the
/// answer has the same class, and a reference that could decide the
/// fused script disagrees with a wrong answer.
fn still_interesting(
    candidate: &Script,
    solver: &FaultySolver,
    reference: Option<&FaultySolver>,
    finding: &RawFinding,
    spans: &Spans,
    tag: &'static str,
    tally: &mut Replay,
) -> bool {
    let fired = spans.time("trigger", || solver.triggered_bug(candidate).map(|b| b.id));
    if finding.bug_id.is_some() && fired != finding.bug_id {
        return false;
    }
    let answer = {
        let _span = spans.open("solve", tag);
        solve(solver, fired.is_some(), candidate, &mut tally.solve)
    };
    tally.crashes += usize::from(matches!(answer, SolverAnswer::Crash(_)));
    match &finding.behavior {
        Behavior::Crash { .. } => matches!(answer, SolverAnswer::Crash(_)),
        Behavior::SpuriousUnknown => answer == SolverAnswer::Unknown,
        Behavior::Incorrect { got, .. } => {
            if answer.as_str() != got {
                return false;
            }
            let Some(reference) = reference else { return true };
            let _span = spans.open("solve", tag);
            match solve(reference, false, candidate, &mut tally.solve) {
                SolverAnswer::Sat => got == "unsat",
                SolverAnswer::Unsat => got == "sat",
                _ => false,
            }
        }
    }
}
