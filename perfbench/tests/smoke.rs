//! The benchmark at tiny sizes: every metric `BENCHMARK.json` names is
//! printed with its unit, and a planted wrong answer fails the run.

use std::path::PathBuf;
use std::process::Command;

use folearn_obs::Json;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(bench: &'a Json, key: &str) -> &'a [Json] {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect("a list in BENCHMARK.json")
}

/// Every workload the program runs, gated in `BENCHMARK.json` or not.
const WORKLOADS: [&str; 3] = ["erm_cold", "serve_hot", "reduction_cluster"];

fn name(entry: &Json) -> &str {
    entry.get("name").and_then(Json::as_str).expect("a name")
}

/// Run the benchmark at tiny sizes; returns the exit code and the
/// result line, if the last line of standard output is one.
fn run(tag: &str, args: &[&str]) -> (i32, Option<Json>) {
    let out: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "smoke", tag].iter().collect();
    let output = Command::new(env!("CARGO_BIN_EXE_folearn-perfbench"))
        .args(["--tiny", "--seconds", "1", "--seed", "7", "--out"])
        .arg(&out)
        .args(args)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    (output.status.code().unwrap_or(-1), result)
}

/// The result's metrics must be exactly `expected`, each with its unit.
fn assert_metrics(result: &Json, expected: &[Json], context: &str) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{context}: no metrics object");
    };
    assert_eq!(metrics.len(), expected.len(), "{context}: metric count");
    for entry in expected {
        let metric = result
            .get("metrics")
            .and_then(|m| m.get(name(entry)))
            .unwrap_or_else(|| panic!("{context}: {} missing", name(entry)));
        assert_eq!(
            metric.get("unit"),
            entry.get("unit"),
            "{context}: unit of {}",
            name(entry)
        );
        let value = metric.get("value").and_then(Json::as_num);
        assert!(
            value.is_some_and(f64::is_finite),
            "{context}: {} = {value:?}",
            name(entry)
        );
    }
}

fn assert_clean(result: &Json, context: &str) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
    assert_eq!(
        result.get("failed").and_then(Json::as_usize),
        Some(0),
        "{context}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_usize)
            .unwrap_or(0)
            >= 1,
        "{context}"
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let bench = benchmark();
    for w in WORKLOADS {
        let (code, result) = run(&format!("e2e-{w}"), &["--workload", w, "--trace", "0"]);
        assert_eq!(code, 0, "{w} exit code");
        let result = result.unwrap_or_else(|| panic!("{w}: no result line"));
        assert_clean(&result, w);
        assert_metrics(&result, list(&bench, "end_to_end"), w);
    }
}

#[test]
fn the_traced_run_prints_every_per_layer_metric() {
    let bench = benchmark();
    let (code, result) = run("traced", &["--workload", "erm_cold", "--trace", "1"]);
    assert_eq!(code, 0, "traced exit code");
    let result = result.expect("traced run prints a result");
    assert_clean(&result, "traced");
    assert_metrics(&result, list(&bench, "per_layer"), "traced");
    // The ledger covers every workload, so its files are named for it.
    let out: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "smoke", "traced"]
        .iter()
        .collect();
    assert!(out.join("spans-ledger-seed7.jsonl").is_file(), "span file");
    assert!(
        out.join("result-ledger-seed7-trace1.json").is_file(),
        "result file"
    );
}

#[test]
fn a_planted_wrong_answer_fails_every_workload() {
    for w in WORKLOADS {
        let (code, result) = run(
            &format!("wrong-{w}"),
            &["--workload", w, "--trace", "0", "--plant-wrong"],
        );
        assert_eq!(code, 1, "{w} must fail on a wrong answer");
        let result = result.unwrap_or_else(|| panic!("{w}: no result line"));
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{w}");
    }
}
