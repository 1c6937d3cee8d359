//! `BENCHMARK.json`, the metric tables in `spec.rs`, the manifest and the
//! binary's output must say the same thing.

use std::path::{Path, PathBuf};
use std::process::Command;

use ninja_benchmark::serving::{blackscholes_requests, libor_requests, treesearch_requests};
use ninja_benchmark::spec::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use ninja_kernels::ProblemSize;
use ninja_serve::TreeSearchServe;
use serde::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn items<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.field(key).expect(key) {
        Value::Array(items) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.field(key).expect(key) {
        Value::Str(s) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn number(v: &Value, key: &str) -> f64 {
    match v.field(key).expect(key) {
        Value::Num(n) => n.raw.parse().expect("a number"),
        other => panic!("{key} is not a number: {other:?}"),
    }
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn assert_table_matches(listed: &[Value], table: &[MetricDef], bounded: bool) {
    let names: Vec<&str> = listed.iter().map(|m| text(m, "name")).collect();
    let ours: Vec<&str> = table.iter().map(|d| d.name).collect();
    assert_eq!(
        names, ours,
        "BENCHMARK.json and spec.rs list the same metrics in the same order"
    );
    for (m, def) in listed.iter().zip(table) {
        assert!(is_name(def.name), "{}", def.name);
        assert_eq!(text(m, "unit"), def.unit, "{}", def.name);
        assert!(def.unit.len() <= 16, "{}", def.name);
        assert_eq!(text(m, "better"), def.better.name(), "{}", def.name);
        if bounded {
            assert_eq!(number(m, "bound"), def.bound, "{}", def.name);
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
        }
    }
}

#[test]
fn benchmark_json_restates_the_tables() {
    let doc = benchmark_json();
    assert_table_matches(items(&doc, "end_to_end"), &END_TO_END, true);
    assert_table_matches(items(&doc, "per_layer"), &PER_LAYER, false);
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    assert_eq!(number(&doc, "run_seconds"), RUN_SECONDS as f64);

    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let listed = items(&doc, "workloads");
    assert_eq!(listed.len(), WORKLOADS.len());
    for (w, ours) in listed.iter().zip(&WORKLOADS) {
        assert!(is_name(ours.name));
        assert_eq!(text(w, "name"), ours.name);
        assert_eq!(text(w, "why"), ours.why);
        assert!(
            ours.why.len() <= 200 && !ours.why.contains('\n'),
            "{}",
            ours.name
        );
    }

    let mut all: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|d| d.name)
        .collect();
    all.extend(WORKLOADS.iter().map(|w| w.name));
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "every name is used once");

    assert_eq!(items(&doc, "paths").len(), 1);
    assert_eq!(items(&doc, "paths")[0], Value::Str("benchmark".to_owned()));
}

/// The `[profile.release]` table of a manifest, as sorted `key = value` lines.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest");
    let mut lines: Vec<String> = text
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split_whitespace().collect::<String>())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_is_the_roots() {
    let ours = release_profile(&Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"));
    assert_eq!(ours, ["codegen-units=1", "debug=true", "lto=\"thin\""]);
    assert_eq!(ours, release_profile(&repo_root().join("Cargo.toml")));
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    fn bytes<T: std::fmt::Debug>(requests: &[T]) -> String {
        format!("{requests:?}")
    }
    assert_eq!(
        bytes(&blackscholes_requests(7, 512)),
        bytes(&blackscholes_requests(7, 512))
    );
    assert_ne!(
        bytes(&blackscholes_requests(7, 512)),
        bytes(&blackscholes_requests(8, 512))
    );
    assert_eq!(bytes(&libor_requests(7, 64)), bytes(&libor_requests(7, 64)));
    assert_ne!(bytes(&libor_requests(7, 64)), bytes(&libor_requests(8, 64)));
    let pool = ninja_benchmark::serving::serving_pool();
    let tree = |seed| TreeSearchServe::new(ProblemSize::Test, seed, pool.clone());
    assert_eq!(
        bytes(&treesearch_requests(&tree(7), 7, 512)),
        bytes(&treesearch_requests(&tree(7), 7, 512))
    );
    assert_ne!(
        bytes(&treesearch_requests(&tree(7), 7, 512)),
        bytes(&treesearch_requests(&tree(8), 8, 512))
    );
}

/// Runs the binary and returns (exit code, stdout).
fn benchmark(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ninja-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn a_smoke_run_prints_every_named_metric_and_exits_zero() {
    for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let workload = WORKLOADS[if trace == "0" { 1 } else { 2 }].name;
        let (code, stdout) = benchmark(&[
            "--smoke",
            "--workload",
            workload,
            "--trace",
            trace,
            "--seed",
            "3",
        ]);
        assert_eq!(code, Some(0), "{stdout}");
        let last = stdout.lines().last().expect("a result line");
        let result: Value = serde_json::from_str(last).expect("the last line is one JSON object");
        let Value::Object(fields) = &result else {
            panic!("not an object: {last}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.field("correct").unwrap(), &Value::Bool(true));
        assert!(number(&result, "attempted") >= 1.0);
        assert_eq!(number(&result, "failed"), 0.0);
        let Value::Object(metrics) = result.field("metrics").unwrap() else {
            panic!("metrics is not an object");
        };
        let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let named: Vec<&str> = table.iter().map(|d| d.name).collect();
        assert_eq!(emitted, named, "emitted metrics are exactly the named ones");
        for ((name, metric), def) in metrics.iter().zip(table) {
            assert_eq!(text(metric, "unit"), def.unit, "{name}");
            assert!(number(metric, "value").is_finite(), "{name}");
        }
        // The same metrics again as `workload metric value unit` lines.
        for def in table {
            let prefix = format!("{workload} {} ", def.name);
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(&prefix) && l.ends_with(def.unit)),
                "{prefix}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_two_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--bogus"],
    ] {
        let (code, stdout) = benchmark(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}
