//! The `generate` workload: the paper's §4.2 generator, fed to an
//! external solver as text.
//!
//! Set-up builds several sets of Fig. 7 seed pools at scale 100, a larger
//! inventory than the campaign's, each set from its own seed. A *batch*
//! then fuses a fixed number of random pairs from every (benchmark,
//! oracle) pool of every set with `Fuser::fuse`, prints each fused script
//! to SMT-LIB text and reads it back with `parse_script` and
//! `check_script`, on one thread. Nothing is solved. Drawing from several
//! pool sets keeps one unusual set from setting a run's figures.
//!
//! A pair whose seeds share no sort with a variable in use cannot fuse.
//! Such a pair is drawn again before fusion rather than failing in it, so
//! that no timed operation fails; the redrawn pairs give the
//! `fusion_failure_share` figure.

use crate::campaign::{layer_timings, pools, Pool};
use crate::reference::Speed;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::median;
use crate::{another, digest, per, proc_stat, sub_seed, timed, Run, Timing};
use std::hash::{Hash, Hasher};
use std::time::Instant;
use yinyang_core::Fuser;
use yinyang_rt::{Rng, SplitMix64, StdRng};
use yinyang_smtlib::{check_script, parse_script, Script, Sort};

/// Seed-count scale of the generator's pools.
const SCALE: usize = 100;

/// Kernel samples at each sampling point of the machine's speed: one,
/// about 50 ms against a batch of about 0.4 s.
const SPEED_SAMPLES: usize = 1;

/// One pool set, with the sorts each seed can fuse on.
struct Set {
    pools: Vec<Pool>,
    /// Per pool and seed, a bit for each of `FUSIBLE` that the seed has a
    /// variable of in use.
    sorts: Vec<Vec<u8>>,
}

/// The sorts `Fuser::fuse` pairs variables of.
const FUSIBLE: [Sort; 3] = [Sort::Int, Sort::Real, Sort::String];

impl Set {
    /// The pools of `seed` at [`SCALE`], less any pool where no seed has a
    /// fusible variable, since no pair of such a pool can fuse.
    fn build(seed: u64) -> Set {
        let mask = |script: &Script| {
            let used = script.used_vars();
            FUSIBLE
                .iter()
                .enumerate()
                .fold(0u8, |acc, (i, sort)| acc | u8::from(used.values().any(|s| s == sort)) << i)
        };
        let (mut kept, mut sorts) = (Vec::new(), Vec::new());
        for pool in pools(seed, SCALE) {
            let masks: Vec<u8> = pool.seeds.iter().map(|s| mask(&s.script)).collect();
            if masks.iter().any(|&m| m != 0) {
                kept.push(pool);
                sorts.push(masks);
            }
        }
        Set { pools: kept, sorts }
    }
}

/// What one batch produced.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Batch {
    attempts: usize,
    fused: usize,
    failures: usize,
    /// Pairs drawn again because their seeds share no fusible sort.
    unfusible: usize,
    bytes: usize,
    nodes: usize,
    /// Scripts that did not read back identically, with the reason.
    broken: Vec<String>,
    digest: u64,
}

/// Batch `index`: `generate_per_pool` fusions from every pool of every
/// set, each printed, re-parsed, type-checked and re-printed.
fn batch(run: &Run, sets: &[Set], index: usize, spans: &Spans) -> Batch {
    let fuser = Fuser::new();
    let mut out = Batch::default();
    let mut texts = std::collections::hash_map::DefaultHasher::new();
    let per_pool = run.size.generate_per_pool;
    let pools = sets.iter().flat_map(|set| set.pools.iter().zip(&set.sorts));
    let per_batch = sets.iter().map(|set| set.pools.len()).sum::<usize>() * per_pool;
    for (p, (pool, sorts)) in pools.enumerate() {
        for k in 0..per_pool {
            let job = (index * per_batch + p * per_pool + k + 1) as u64;
            let job_seed =
                SplitMix64::new(run.seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
            let mut rng = StdRng::seed_from_u64(job_seed);
            let (s1, s2) = loop {
                let s1 = rng.random_range(0..pool.seeds.len());
                let s2 = rng.random_range(0..pool.seeds.len());
                if sorts[s1] & sorts[s2] != 0 {
                    break (s1, s2);
                }
                out.unfusible += 1;
            };
            out.attempts += 1;
            let fused = spans.time("fusion", || {
                fuser.fuse(&mut rng, pool.oracle, &pool.seeds[s1].script, &pool.seeds[s2].script)
            });
            let Ok(fused) = fused else {
                out.failures += 1;
                continue;
            };
            out.fused += 1;
            out.nodes += fused.script.asserts().iter().map(|t| t.size()).sum::<usize>();
            let text = spans.time("print", || fused.script.to_string());
            out.bytes += text.len();
            let parsed = match spans.time("parse", || parse_script(&text)) {
                Ok(parsed) => parsed,
                Err(e) => {
                    out.broken.push(format!("{}: does not parse: {e}", pool.benchmark));
                    continue;
                }
            };
            if let Err(e) = spans.time("typecheck", || check_script(&parsed)) {
                out.broken.push(format!("{}: does not type-check: {e}", pool.benchmark));
            }
            if spans.time("print", || parsed.to_string()) != text {
                out.broken.push(format!("{}: prints differently once re-read", pool.benchmark));
            }
            text.hash(&mut texts);
        }
    }
    out.digest = texts.finish();
    out
}

/// Runs the workload.
pub fn run(run: &Run) -> Report {
    let mut report = Report::default();
    let sampler = proc_stat::ThreadSampler::start();
    let build = |k: usize| Set::build(sub_seed(run.seed, k as u64));
    // Pools are equal when every pool's benchmark and seed scripts are.
    let content = |sets: &[Set]| -> u64 {
        let seeds = |p: &Pool| p.seeds.iter().map(|s| s.script.to_string()).collect::<Vec<_>>();
        let pools = sets.iter().flat_map(|set| &set.pools);
        digest(&pools.map(|p| (p.benchmark, seeds(p))).collect::<Vec<_>>())
    };
    // Set-up times are in reference seconds, each scaled by the machine's
    // speed sampled right before it. After every batch set-up is timed
    // again, one pool set at a time, so their median spans the run like
    // the rates.
    let mut speed = Speed::default();
    speed.sample(run.size.setups);
    let built: Vec<(Set, Timing)> =
        (0..run.size.generate_pool_sets).map(|k| timed(|| build(k))).collect();
    let mut setups: Vec<f64> = built.iter().map(|(_, t)| speed.scale(*t).wall).collect();
    let inventory: Vec<Set> = built.into_iter().map(|(set, _)| set).collect();

    // In the traced run every batch also runs a second time with spans,
    // right after its untraced run; the pools are built once more under a
    // seedgen span first.
    let (untraced, spans) = (Spans::new(false), Spans::new(run.trace));
    let traced_pools: Vec<Set> = if run.trace {
        (0..run.size.generate_pool_sets).map(|k| spans.time("seedgen", || build(k))).collect()
    } else {
        Vec::new()
    };
    let start = Instant::now();
    let budget = if run.trace { run.seconds * 0.5 } else { run.seconds };
    let mut batches: Vec<(Batch, Timing)> = Vec::new();
    let mut traced: Vec<(Batch, Timing)> = Vec::new();
    // Untraced batch times in reference seconds.
    let mut scaled: Vec<Timing> = Vec::new();
    while another(
        batches.len(),
        run.size.reference_batches,
        start.elapsed().as_secs_f64(),
        batches.last().map_or(0.0, |(_, t)| t.wall),
        budget,
    ) {
        let index = batches.len();
        batches.push(timed(|| batch(run, &inventory, index, &untraced)));
        if run.trace {
            traced.push(timed(|| batch(run, &traced_pools, index, &spans)));
        } else {
            scaled.push(speed.rescale(batches[index].1, SPEED_SAMPLES));
            let k = index % inventory.len();
            let (set, timing) = timed(|| build(k));
            setups.push(speed.scale(timing).wall);
            report.check(content(&[set]) == content(&inventory[k..=k]), || {
                "the same seed built different pools".to_owned()
            });
        }
    }
    for (b, _) in &batches {
        for problem in &b.broken {
            report.check(false, || problem.clone());
        }
    }
    report.attempted = batches.iter().map(|(b, _)| b.attempts as u64).sum();
    report.failed = batches.iter().map(|(b, _)| b.failures as u64).sum();
    let reference = &batches[..run.size.reference_batches];
    let sum =
        |field: fn(&Batch) -> usize| -> usize { reference.iter().map(|(b, _)| field(b)).sum() };
    let (attempts, failures, unfusible) =
        (sum(|b| b.attempts), sum(|b| b.failures), sum(|b| b.unfusible));
    // A redrawn pair is a fusion that would have failed.
    let failure_share = (unfusible + failures) as f64 / (attempts + unfusible) as f64;

    if run.trace {
        let plain_wall: f64 = batches.iter().map(|(_, t)| t.wall).sum();
        let cpu: f64 = batches.iter().map(|(_, t)| t.cpu).sum();
        report.set("executor.cpu_util", cpu / (plain_wall * proc_stat::nproc() as f64));
        report.check(traced.iter().zip(&batches).all(|((t, _), (b, _))| t == b), || {
            "the traced batches differ from the untraced ones".to_owned()
        });
        let traced_wall: f64 = traced.iter().map(|(_, t)| t.wall).sum();
        let covered = spans.root_s() - spans.self_s("seedgen");
        report.set("trace.overhead_share", traced_wall / plain_wall - 1.0);
        report.set("trace.unattributed_share", 1.0 - covered / traced_wall);
        report.set("seedgen.self_s", spans.self_s("seedgen"));
        let seeds: usize =
            traced_pools.iter().flat_map(|set| &set.pools).map(|p| p.seeds.len()).sum();
        report.set("seedgen.seeds", seeds as f64);
        layer_timings(&spans, &mut report);
        // Over the reference batches, so the means repeat exactly per seed.
        let traced_reference = &traced[..run.size.reference_batches];
        let fused: usize = traced_reference.iter().map(|(b, _)| b.fused).sum();
        let nodes: usize = traced_reference.iter().map(|(b, _)| b.nodes).sum();
        let bytes: usize = traced_reference.iter().map(|(b, _)| b.bytes).sum();
        report.set("fusion.out_nodes_mean", nodes as f64 / fused.max(1) as f64);
        report.set("text.bytes_mean", bytes as f64 / fused.max(1) as f64);
        report.set("print.self_s", spans.self_s("print"));
        report.set("parse.self_s", spans.self_s("parse"));
        report.set("typecheck.self_s", spans.self_s("typecheck"));
        report.set("outcome.tests", reference.iter().map(|(b, _)| b.fused as f64).sum());
        report.set("outcome.fusion_failure_share", failure_share);
    } else {
        let rate = |t: fn(&Timing) -> f64| -> f64 {
            median(
                &batches
                    .iter()
                    .zip(&scaled)
                    .map(|((b, _), s)| per(b.fused as f64, t(s)))
                    .collect::<Vec<_>>(),
            )
        };
        report.set("ops_per_ref_s", rate(|t| t.wall));
        report.set("ops_per_ref_cpu_s", rate(|t| t.cpu));
        report.set("ok_share", 1.0 - failures as f64 / attempts as f64);
        report.set("setup_s", median(&setups));
        report.note(
            "batches (reference batches)",
            format!("{} ({})", batches.len(), reference.len()),
        );
        crate::note_speed(&mut report, &speed);
        let rates: Vec<f64> = batches.iter().map(|(b, t)| per(b.fused as f64, t.wall)).collect();
        report.note("fused_per_s (median batch)", format!("{:.3} tests/s", median(&rates)));
        report.note("fusion_failure_share (reference batches)", format!("{failure_share:.6}"));
        report.note("digest of the first batch", format!("{:016x}", batches[0].0.digest));
    }
    crate::finish_process(&mut report, run, sampler.finish());
    report
}
