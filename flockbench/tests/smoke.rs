//! `--smoke` runs of all four workloads: every operation and every check
//! must pass, every contracted metric must be printed, and `diff` must
//! read what `run` wrote.

use flockbench::metrics::{END_TO_END, PER_LAYER};
use flockbench::run::{run, RunArgs};
use flockbench::workload::NAMES;
use std::path::{Path, PathBuf};

fn out_dir(tag: &str) -> PathBuf {
    // Inside the build directory; each test gets its own.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn smoke(workload: &str, trace: bool, out: &Path) -> serde_json::Value {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: 1,
        seconds: 0.0,
        trace,
        smoke: true,
        out: out.to_path_buf(),
    };
    let output = run(&args).expect("the run completes");
    let line = output.line;
    assert_eq!(line["correct"].as_bool(), Some(true), "{workload}: {line}");
    assert_eq!(line["failed"].as_u64(), Some(0), "{workload}");
    assert!(line["attempted"].as_u64().unwrap() >= 1);
    let keys: Vec<&str> = line
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    line
}

#[test]
fn every_workload_runs_clean_and_prints_every_end_to_end_metric() {
    let out = out_dir("e2e");
    for workload in NAMES {
        let line = smoke(workload, false, &out);
        let metrics = line["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len(), "{workload}");
        for m in END_TO_END {
            let value = metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("{workload} lacks {}", m.name));
            assert_eq!(value["unit"], m.unit);
            assert!(
                value["value"].as_f64().unwrap() > 0.0,
                "{workload}.{} must never be 0",
                m.name
            );
        }
        let path = out.join(format!("{workload}.json"));
        assert!(
            flockbench::diff::run(&path, &path).expect("diff reads the record"),
            "a run never regresses against itself"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn every_workload_traces_and_prints_every_per_layer_metric() {
    let out = out_dir("trace");
    for workload in NAMES {
        let line = smoke(workload, true, &out);
        let metrics = line["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len(), "{workload}");
        assert!(
            PER_LAYER.iter().all(|m| metrics.contains_key(m.name)),
            "{workload}"
        );
        assert_eq!(
            line["metrics"]["client.fail_ratio"]["value"].as_f64(),
            Some(0.0)
        );
        assert!(
            line["metrics"]["engine.stmt_ns"]["value"].as_f64().unwrap() > 0.0,
            "{workload} replays its statements"
        );
        let trace: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(out.join(format!("trace_{workload}.json")))
                .expect("trace file"),
        )
        .expect("trace file is JSON");
        assert!(!trace["spans"].as_array().unwrap().is_empty());
        assert!(trace["self_ns_by_layer"].get("engine").is_some());
    }
    let _ = std::fs::remove_dir_all(&out);
}
