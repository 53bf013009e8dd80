//! `BENCHMARK.json` at the repository root names exactly the metrics
//! the benchmark reports, with the same units, in the same order.

use wtnc_e2ebench::{END_TO_END, PER_LAYER};

/// The `(name, unit)` pairs of one metric list in the file.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("list present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, k: &str| {
        let at = entry.find(&format!("\"{k}\": \"")).expect("field present") + k.len() + 5;
        entry[at..at + entry[at..].find('"').expect("value closes")].to_string()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    assert_eq!(listed(&json, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), pairs(&PER_LAYER));
}
