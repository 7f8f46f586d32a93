//! Regenerates the *generated blocks* of `EXPERIMENTS.md` from report
//! JSON, so the committed tables can never silently drift from what the
//! code measures.
//!
//! Two blocks live between HTML-comment markers
//! (`<!-- BEGIN GENERATED: <name> -->` / `<!-- END GENERATED: <name> -->`):
//!
//! * `campaign` — stage-timing quantiles and the per-round coverage
//!   trajectory of a **pinned** demo campaign ([`pinned_config`]). Tick
//!   time and a fixed seed make the block deterministic, so CI byte-diffs
//!   it (`yinyang experiments-md --check`).
//! * `bench` — the microbenchmark table from an `rt::bench` `report.json`.
//!   Wall-clock numbers are machine-dependent, so this block is only
//!   rewritten when `--bench-report` is passed and is never CI-diffed.

use crate::experiments::Fig8Result;
use std::fmt::Write as _;
use yinyang_rt::json::Json;

/// The deterministic demo-campaign config behind the `campaign` block:
/// small enough for CI, big enough to exercise both personas, trajectory
/// recording on, tick time implied (the CLI never flips `--wallclock`
/// for this command).
pub fn pinned_config() -> crate::config::CampaignConfig {
    crate::config::CampaignConfig {
        scale: 400,
        iterations: 6,
        rounds: 2,
        rng_seed: 0xD1CE,
        threads: 1,
        heartbeat: false,
        coverage_trajectory: true,
        cache: false,
        cache_capacity: 4096,
        ..Default::default()
    }
}

/// Replaces the body between `name`'s BEGIN/END markers, keeping the
/// markers themselves. Errors if the document lacks the marker pair.
pub fn patch_block(doc: &str, name: &str, body: &str) -> Result<String, String> {
    let begin = format!("<!-- BEGIN GENERATED: {name} -->");
    let end = format!("<!-- END GENERATED: {name} -->");
    let start = doc.find(&begin).ok_or_else(|| format!("marker `{begin}` not found"))?;
    let after_begin = start + begin.len();
    let end_at = doc[after_begin..]
        .find(&end)
        .map(|o| after_begin + o)
        .ok_or_else(|| format!("marker `{end}` not found"))?;
    let mut out = String::with_capacity(doc.len() + body.len());
    out.push_str(&doc[..after_begin]);
    out.push('\n');
    out.push_str(body);
    out.push_str(&doc[end_at..]);
    Ok(out)
}

/// Renders the `campaign` block from a [`Fig8Result`] produced under
/// [`pinned_config`].
pub fn campaign_block(result: &Fig8Result) -> String {
    let c = pinned_config();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "```\nPinned demo campaign: scale 1:{}, iterations {}, rounds {}, seed {:#x}, tick time",
        c.scale, c.iterations, c.rounds, c.rng_seed
    );
    let _ = writeln!(
        out,
        "tests: zirkon {} (unknown {}), corvus {} (unknown {}); findings {}",
        result.zirkon.stats.tests,
        result.zirkon.stats.unknowns,
        result.corvus.stats.tests,
        result.corvus.stats.unknowns,
        result.zirkon.findings.len() + result.corvus.findings.len(),
    );
    let _ = writeln!(out, "\nStage timing (ticks):");
    let _ = writeln!(out, "{:<28} {:>8} {:>8} {:>8} {:>8}", "stage", "count", "p50", "p95", "p99");
    for (name, h) in &result.telemetry.stages {
        let _ = writeln!(out, "{name:<28} {:>8} {:>8} {:>8} {:>8}", h.count, h.p50, h.p95, h.p99);
    }
    let _ = writeln!(out, "\nCoverage trajectory (cumulative probe sites per round):");
    let _ = writeln!(
        out,
        "{:<8} {:>5} {:>7} {:>9} {:>8} {:>12}",
        "solver", "round", "lines", "functions", "branches", "total-hits"
    );
    for r in &result.telemetry.coverage_rounds {
        let _ = writeln!(
            out,
            "{:<8} {:>5} {:>7} {:>9} {:>8} {:>12}",
            r.solver,
            r.round,
            r.lines_sites,
            r.functions_sites,
            r.branches_sites,
            r.lines_hits + r.functions_hits + r.branches_hits,
        );
    }
    out.push_str("```\n");
    out
}

/// Renders the `bench` block from a parsed `rt::bench` report
/// (`[{group, benchmarks: [{name, median_ns, p95_ns, ...}]}]`).
pub fn bench_block(report: &Json) -> Result<String, String> {
    let groups = match report {
        Json::Arr(groups) => groups,
        _ => return Err("bench report must be a JSON array of groups".into()),
    };
    let mut out = String::new();
    let _ = writeln!(out, "```");
    let _ = writeln!(out, "{:<44} {:>12} {:>12}", "benchmark", "median_ns", "p95_ns");
    for group in groups {
        let name = group
            .get("group")
            .and_then(Json::as_str)
            .ok_or_else(|| "group missing `group` name".to_owned())?;
        let benches = match group.get("benchmarks") {
            Some(Json::Arr(b)) => b,
            _ => return Err(format!("group `{name}` missing `benchmarks` array")),
        };
        for bench in benches {
            let bname = bench
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("benchmark in `{name}` missing `name`"))?;
            let median = bench.get("median_ns").and_then(Json::as_f64).unwrap_or(0.0);
            let p95 = bench.get("p95_ns").and_then(Json::as_f64).unwrap_or(0.0);
            let _ = writeln!(out, "{:<44} {median:>12.0} {p95:>12.0}", format!("{name}/{bname}"));
        }
    }
    let _ = writeln!(out, "```");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "\
# title

<!-- BEGIN GENERATED: campaign -->
old body
<!-- END GENERATED: campaign -->

tail text
";

    #[test]
    fn patch_replaces_only_the_named_block() {
        let patched = patch_block(DOC, "campaign", "new body\n").unwrap();
        assert!(patched.contains("new body"));
        assert!(!patched.contains("old body"));
        assert!(patched.contains("# title"));
        assert!(patched.contains("tail text"));
        assert!(patched.contains("<!-- BEGIN GENERATED: campaign -->"));
        assert!(patched.contains("<!-- END GENERATED: campaign -->"));
        // Patching is idempotent: same body twice, same bytes.
        assert_eq!(patch_block(&patched, "campaign", "new body\n").unwrap(), patched);
    }

    #[test]
    fn patch_errors_on_missing_markers() {
        assert!(patch_block(DOC, "bench", "x").is_err());
        assert!(patch_block("no markers here", "campaign", "x").is_err());
    }

    #[test]
    fn bench_block_renders_rows() {
        let report = Json::parse(
            r#"[{"group":"fusion","benchmarks":[{"name":"fuse_qfnra","iters_per_sample":10,
                "samples":5,"min_ns":100,"median_ns":120,"p95_ns":150,"max_ns":200}]}]"#,
        )
        .unwrap();
        let block = bench_block(&report).unwrap();
        assert!(block.contains("fusion/fuse_qfnra"), "{block}");
        assert!(block.contains("120"), "{block}");
        assert!(bench_block(&Json::Null).is_err());
    }

    #[test]
    fn campaign_block_renders_config_and_tables() {
        let block = campaign_block(&Fig8Result::default());
        assert!(block.contains("Pinned demo campaign"));
        assert!(block.contains("Coverage trajectory"));
        assert!(block.contains("Stage timing"));
    }
}
