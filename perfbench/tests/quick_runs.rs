//! A reduced-size run of every workload, end to end and traced, passes its
//! output checks and prints every metric of its mode.

use yinyang_perfbench::report::{Metric, END_TO_END, PER_LAYER};
use yinyang_perfbench::{campaign, generate, triage, Run, Size, MAIN_SEED};
use yinyang_rt::json::Json;

fn check(name: &str, report: &yinyang_perfbench::report::Report, catalog: &[Metric], trace: bool) {
    assert!(report.correct(), "{name} (trace {trace}): {:?}", report.problems());
    assert!(report.attempted >= 1, "{name}: nothing attempted");
    let text = report.render(catalog);
    let result = Json::parse(text.lines().last().expect("a result line")).expect("JSON");
    let metrics = result.get("metrics").and_then(Json::as_obj).expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = catalog.iter().map(|m| m.name).collect();
    assert_eq!(names, expected, "{name}");
    if !trace {
        for (metric, value) in metrics {
            let v = value.get("value").and_then(Json::as_f64).expect("a number");
            assert!(v > 0.0, "{name}: {metric} is {v}");
        }
    }
}

#[test]
fn every_workload_passes_its_checks_at_reduced_size() {
    for trace in [false, true] {
        let run = Run { seed: 11, input_seed: MAIN_SEED, seconds: 0.2, trace, size: Size::QUICK };
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        check("campaign", &campaign::run(&run), catalog, trace);
        check("generate", &generate::run(&run), catalog, trace);
        check("triage", &triage::run(&run), catalog, trace);
    }
}
