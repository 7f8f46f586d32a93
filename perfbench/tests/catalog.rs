//! The metrics the benchmark prints are the ones `BENCHMARK.json`
//! declares, and `README.md` says what each per-layer metric should move.

use std::path::Path;
use yinyang_perfbench::report::{Metric, END_TO_END, PER_LAYER};
use yinyang_rt::json::Json;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn declared(key: &str) -> Vec<(String, String, String)> {
    let json = Json::parse(&repo_file("../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect("a string").to_owned();
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn catalog(metrics: &[Metric]) -> Vec<(String, String, String)> {
    metrics.iter().map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned())).collect()
}

#[test]
fn end_to_end_metrics_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), catalog(END_TO_END));
}

#[test]
fn per_layer_metrics_match_benchmark_json() {
    assert_eq!(declared("per_layer"), catalog(PER_LAYER));
}

#[test]
fn workloads_match_benchmark_json() {
    let json = Json::parse(&repo_file("../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("a name"))
        .collect();
    assert_eq!(names, ["campaign", "generate", "triage"]);
}

#[test]
fn readme_says_what_every_per_layer_metric_should_move() {
    let readme = repo_file("README.md");
    for metric in PER_LAYER {
        let row = readme
            .lines()
            .find(|line| line.starts_with(&format!("| `{}` |", metric.name)))
            .unwrap_or_else(|| panic!("README.md has no table row for {}", metric.name));
        assert!(row.matches('|').count() >= 4, "{row}");
    }
}
