//! The metric catalog and the result line.
//!
//! Every workload prints every metric of the catalog that its mode asks
//! for: the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A per-layer metric of a layer the workload never calls is
//! printed as 0. The catalog must match `BENCHMARK.json` (a test checks
//! it), and `README.md` lists which end-to-end metric each per-layer
//! metric should move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, measured with tracing off. Each workload defines
/// its operation (see `README.md`).
pub const END_TO_END: &[Metric] = &[
    m("ops_per_ref_s", "1/ref_s", "higher"),
    m("ops_per_ref_cpu_s", "1/ref_s", "higher"),
    m("ok_share", "ratio", "higher"),
    m("peak_rss_mb", "MB", "lower"),
    m("setup_s", "s", "lower"),
];

/// The nine Fig. 7 benchmark rows, as `solver.self_s.<row>` suffixes.
pub const ROWS: [&str; 9] =
    ["LIA", "LRA", "NRA", "QF_LIA", "QF_LRA", "QF_NRA", "QF_SLIA", "QF_S", "StringFuzz"];

/// Slugs of the reasons the solver gives for `unknown`, as
/// `solver.unknown.<slug>` suffixes; anything else counts as `other`.
pub const UNKNOWN_REASONS: [&str; 9] = [
    "sat_budget_exhausted",
    "theory_checker_gave_up_on_a_branch",
    "iteration_limit",
    "model_verification_failed",
    "empty_blocking_clause",
    "unsupported_nested_quantifier",
    "universal_instantiation_is_incomplete_for_sat",
    "ill_sorted_input",
    "other",
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("seedgen.self_s", "s", "lower"),
    m("seedgen.seeds", "count", "higher"),
    m("fusion.self_s", "s", "lower"),
    m("fusion.calls", "count", "higher"),
    m("fusion.p50_us", "us", "lower"),
    m("fusion.tail_us", "us", "lower"),
    m("fusion.tail_pct", "%", "higher"),
    m("fusion.out_nodes_mean", "count", "lower"),
    m("oracle.self_s", "s", "lower"),
    m("print.self_s", "s", "lower"),
    m("parse.self_s", "s", "lower"),
    m("typecheck.self_s", "s", "lower"),
    m("text.bytes_mean", "bytes", "lower"),
    m("faults.persona_build_s", "s", "lower"),
    m("faults.trigger_s", "s", "lower"),
    m("faults.trigger_calls", "count", "lower"),
    m("faults.bug_triggered", "count", "higher"),
    m("faults.forced_unknown", "count", "lower"),
    m("harness.crashes", "count", "higher"),
    m("solver.self_s", "s", "lower"),
    m("solver.calls", "count", "higher"),
    m("solver.p50_ms", "ms", "lower"),
    m("solver.tail_ms", "ms", "lower"),
    m("solver.tail_pct", "%", "higher"),
    m("solver.max_ms", "ms", "lower"),
    m("solver.top1pct_share", "ratio", "lower"),
    m("solver.self_s.LIA", "s", "lower"),
    m("solver.self_s.LRA", "s", "lower"),
    m("solver.self_s.NRA", "s", "lower"),
    m("solver.self_s.QF_LIA", "s", "lower"),
    m("solver.self_s.QF_LRA", "s", "lower"),
    m("solver.self_s.QF_NRA", "s", "lower"),
    m("solver.self_s.QF_SLIA", "s", "lower"),
    m("solver.self_s.QF_S", "s", "lower"),
    m("solver.self_s.StringFuzz", "s", "lower"),
    m("solver.unknown.sat_budget_exhausted", "count", "lower"),
    m("solver.unknown.theory_checker_gave_up_on_a_branch", "count", "lower"),
    m("solver.unknown.iteration_limit", "count", "lower"),
    m("solver.unknown.model_verification_failed", "count", "lower"),
    m("solver.unknown.empty_blocking_clause", "count", "lower"),
    m("solver.unknown.unsupported_nested_quantifier", "count", "lower"),
    m("solver.unknown.universal_instantiation_is_incomplete_for_sat", "count", "lower"),
    m("solver.unknown.ill_sorted_input", "count", "lower"),
    m("solver.unknown.other", "count", "lower"),
    m("sat.decisions", "count", "lower"),
    m("sat.propagations", "count", "lower"),
    m("sat.conflicts", "count", "lower"),
    m("sat.restarts", "count", "lower"),
    m("simplex.pivots", "count", "lower"),
    m("strings.search_nodes", "count", "lower"),
    m("reduce.self_s", "s", "lower"),
    m("reduce.calls", "count", "higher"),
    m("reduce.p50_ms", "ms", "lower"),
    m("reduce.tail_ms", "ms", "lower"),
    m("reduce.tail_pct", "%", "higher"),
    m("reduce.candidates", "count", "lower"),
    m("reduce.passes", "count", "lower"),
    m("executor.cpu_util", "ratio", "higher"),
    m("executor.os_threads", "count", "lower"),
    m("triage.self_s", "s", "lower"),
    m("regress.self_s.trunk", "s", "lower"),
    m("regress.self_s.reference", "s", "lower"),
    m("regress.unique_replays", "count", "lower"),
    m("regress.duplicates_merged", "count", "higher"),
    m("regress.stale", "count", "lower"),
    m("solve_cache.hit_ratio", "ratio", "higher"),
    m("solve_cache.lookups", "count", "higher"),
    m("trace.overhead_share", "ratio", "lower"),
    m("trace.unattributed_share", "ratio", "lower"),
    m("outcome.tests", "count", "higher"),
    m("outcome.bugs_found", "count", "higher"),
    m("outcome.unknown_share", "ratio", "lower"),
    m("outcome.fusion_failure_share", "ratio", "lower"),
    m("outcome.reduced_bytes_ratio", "ratio", "lower"),
    m("outcome.reproduced_share", "ratio", "higher"),
    m("rate.bundles_per_s", "1/s", "higher"),
    m("rate.replays_per_s", "1/s", "higher"),
    m("driver.tests", "count", "higher"),
    m("driver.unknown_share", "ratio", "lower"),
    m("driver.bugs_found", "count", "higher"),
];

/// One run's result: metric values, operation counts and failed output
/// checks.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (see `README.md` per workload).
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Figures printed for people only, under the names of the workload's
    /// own vocabulary: `(name, value with unit)`.
    notes: Vec<(String, String)>,
    problems: Vec<String>,
}

fn lookup(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|metric| metric.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

impl Report {
    /// Sets a catalog metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(lookup(name).name, value);
    }

    /// Records a figure for the human-readable table only.
    pub fn note(&mut self, name: impl Into<String>, value: impl std::fmt::Display) {
        self.notes.push((name.into(), value.to_string()));
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The failed checks.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// The human-readable table followed by the one-line JSON result,
    /// holding every metric of `catalog`. Per-layer metrics the run never
    /// set print as 0; an unset end-to-end metric is a benchmark bug.
    pub fn render(&self, catalog: &[Metric]) -> String {
        let mut out = String::new();
        let mut json = String::new();
        for (i, metric) in catalog.iter().enumerate() {
            let value = match self.values.get(metric.name) {
                Some(v) => *v,
                None if catalog == PER_LAYER => 0.0,
                None => panic!("end-to-end metric {} was not measured", metric.name),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = writeln!(out, "{:<56} {value:>18.6} {}", metric.name, metric.unit);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        for (name, value) in &self.notes {
            let _ = writeln!(out, "  {name:<54} {value}");
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        out
    }
}

/// The `solver.unknown.*` suffix for a `SolveOutput::reason`.
pub fn reason_slug(reason: &str) -> &'static str {
    let head = reason.split(':').next().unwrap_or("");
    let slug: String = head
        .trim()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect();
    UNKNOWN_REASONS.iter().find(|known| **known == slug).copied().unwrap_or("other")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(metric.name), "{} is listed twice", metric.name);
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
            assert!(metric.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(metric.better, "higher" | "lower"));
        }
        for row in ROWS {
            assert!(seen.contains(format!("solver.self_s.{row}").as_str()));
        }
        for reason in UNKNOWN_REASONS {
            assert!(seen.contains(format!("solver.unknown.{reason}").as_str()));
        }
    }

    #[test]
    fn reasons_map_to_slugs() {
        assert_eq!(reason_slug("sat budget exhausted"), "sat_budget_exhausted");
        assert_eq!(reason_slug("ill-sorted input: x has sort Int"), "ill_sorted_input");
        assert_eq!(reason_slug("something new"), "other");
    }

    #[test]
    fn render_ends_with_the_json_line() {
        let mut report = Report { attempted: 3, failed: 1, ..Report::default() };
        for metric in END_TO_END {
            report.set(metric.name, 1.5);
        }
        let text = report.render(END_TO_END);
        let last = text.lines().last().expect("a result line");
        let json = yinyang_rt::json::Json::parse(last).expect("valid JSON");
        assert_eq!(json.get("attempted").and_then(|v| v.as_i64()), Some(3));
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).expect("setup_s");
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(1.5));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
