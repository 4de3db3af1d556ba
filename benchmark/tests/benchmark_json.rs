//! `BENCHMARK.json` at the repository root and the benchmark's own tables
//! describe the same benchmark.

use cupft_benchmark::json::{self, Json};
use cupft_benchmark::spec::END_TO_END;
use cupft_benchmark::workloads::WORKLOADS;

fn names(list: &Json) -> Vec<String> {
    let Json::Arr(items) = list else {
        panic!("expected a list");
    };
    items
        .iter()
        .map(|i| {
            i.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");

    let workloads = names(spec.get("workloads").expect("workloads"));
    assert_eq!(workloads, WORKLOADS.map(|w| w.name));

    let Some(Json::Arr(rows)) = spec.get("end_to_end") else {
        panic!("end_to_end is a list");
    };
    assert_eq!(rows.len(), END_TO_END.len());
    for (row, metric) in rows.iter().zip(&END_TO_END) {
        let text = |k: &str| row.get(k).and_then(Json::as_str).expect("text field");
        assert_eq!(text("name"), metric.name);
        assert_eq!(text("unit"), metric.unit, "{}", metric.name);
        let better = if metric.lower_is_better {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(text("better"), better, "{}", metric.name);
        let bound = row.get("bound").and_then(Json::as_f64).expect("bound");
        assert_eq!(bound, metric.bound, "{}", metric.name);
        assert!(bound <= 0.25);
    }
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));

    let seconds = spec
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert_eq!(seconds, 15.0, "instance counts are sized for run_seconds");
}
