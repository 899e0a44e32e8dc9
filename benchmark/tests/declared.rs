//! Holds `BENCHMARK.json` to what the program emits: runs every workload in
//! smoke mode and fails if a declared workload or metric is missing from
//! the result, or an emitted one is undeclared.

use std::path::Path;
use std::process::Command;

use ndirect_support::Json;

fn names(json: &Json, key: &str) -> Vec<String> {
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no list {key:?}"))
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn keys(json: &Json, key: &str) -> Vec<String> {
    json.get(key)
        .and_then(Json::as_obj)
        .unwrap_or_else(|| panic!("no object {key:?}"))
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// Counters of faults a clean tree never has; every other per-layer metric
/// must read non-zero on at least one workload, or nothing measures it.
const ZERO_ON_A_CLEAN_TREE: [&str; 5] = [
    "serve.shed",
    "serve.late",
    "serve.retries",
    "serve.degraded",
    "trace.dropped_spans",
];

#[test]
fn a_quick_run_emits_exactly_what_benchmark_json_declares() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let declared = Json::parse(
        &std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick");
    let _ = std::fs::remove_dir_all(&out);

    let run = Command::new(env!("CARGO_BIN_EXE_ndirect-benchmark"))
        .args(["run", "--quick", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "run --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        stdout.contains("not for claims"),
        "a quick run must say what it is"
    );

    let result =
        Json::parse(&std::fs::read_to_string(out.join("result.json")).expect("result.json"))
            .expect("result.json parses");
    assert_eq!(result.get("quick").and_then(Json::as_bool), Some(true));
    let workloads = names(&declared, "workloads");
    assert_eq!(
        keys(&result, "workloads"),
        workloads,
        "workloads, in declared order"
    );

    let end_to_end = sorted(names(&declared, "end_to_end"));
    let per_layer = sorted(names(&declared, "per_layer"));
    let mut measured_somewhere = Vec::new();
    for name in &workloads {
        let w = result
            .get("workloads")
            .and_then(|ws| ws.get(name))
            .expect("the workload");
        assert_eq!(
            w.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{name}: failed operations"
        );
        assert_eq!(
            sorted(keys(w, "end_to_end")),
            end_to_end,
            "{name}: end-to-end metrics"
        );
        assert_eq!(
            sorted(keys(w, "per_layer")),
            per_layer,
            "{name}: per-layer metrics"
        );
        for (metric, m) in w.get("end_to_end").and_then(Json::as_obj).unwrap() {
            let value = m.get("value").and_then(Json::as_f64).expect("a value");
            assert!(
                value > 0.0,
                "{name} {metric} = {value}: an end-to-end metric is never 0"
            );
        }
        for (metric, m) in w.get("per_layer").and_then(Json::as_obj).unwrap() {
            if m.get("value").and_then(Json::as_f64) != Some(0.0) {
                measured_somewhere.push(metric.clone());
            }
        }
        let trace = std::fs::read_to_string(out.join(format!("trace_{name}.json")))
            .unwrap_or_else(|e| panic!("trace_{name}.json: {e}"));
        let trace = Json::parse(&trace).expect("the trace parses");
        let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(!spans.is_empty(), "{name}: a traced run records spans");
    }
    for metric in &per_layer {
        assert!(
            measured_somewhere.contains(metric) || ZERO_ON_A_CLEAN_TREE.contains(&metric.as_str()),
            "{metric} is declared but reads 0 on every workload"
        );
    }
}
