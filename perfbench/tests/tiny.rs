//! A tiny-size run of every workload, traced and untraced: each must print
//! its full metric set with units as the last line, and pass every gate.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

use lasagne_testkit::Json;

const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("load_p50_ms", "ms"),
    ("op_p50_ms", "ms"),
    ("side_p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics each workload measures itself (the rest read 0).
fn per_layer(workload: &str) -> &'static [&'static str] {
    match workload {
        "train" => &[
            "core.forward_ms",
            "core.gcfm_ms",
            "autograd.backward_ms",
            "autograd.adam_ms",
            "autograd.tape_ops",
            "train.eval_ms",
            "train.epoch_tail_ms",
            "gnn.baseline_forward_ms",
            "gnn.baseline_backward_ms",
            "tensor.matmul_gflops",
            "sparse.spmm_gbs",
            "par.speedup",
        ],
        "serve" => &[
            "serve.export_ms",
            "serve.parse_ms",
            "serve.evaluate_ms",
            "serve.artifact_mib",
            "serve.mutate_p50_ms",
            "serve.mutate_tail_ms",
            "serve.dirty_rows_p50",
            "serve.protocol_us",
            "serve.server_p50_us",
            "serve.read_tail_ms",
        ],
        "partitioned" => &[
            "serve.parse_ms",
            "serve.lazy_load_ms",
            "serve.resident_evaluate_ms",
            "serve.resident_peak_rss_mib",
            "graph.partition_ms",
            "graph.halo_ratio",
            "autograd.eval_rows_p50_ms",
            "autograd.eval_rows_tail_ms",
        ],
        other => panic!("unknown workload {other}"),
    }
}

fn run(workload: &str, trace: &str) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--size",
            "tiny",
        ])
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    let doc =
        Json::parse(&last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"));
    (stdout, doc)
}

fn check(workload: &str) {
    let (stdout, doc) = run(workload, "0");
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}: a gate failed:\n{stdout}"
    );
    assert_eq!(
        doc.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}: failed ops:\n{stdout}"
    );
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    assert!(
        stdout.contains("# provenance: git_rev="),
        "{workload}: no provenance line"
    );
    assert!(stdout.contains("# calibration start:") && stdout.contains("# calibration end:"));
    let metrics = doc.get("metrics").expect("metrics object");
    for (name, unit) in END_TO_END {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{workload}: unit of {name}"
        );
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        assert!(
            value > 0.0 && value.is_finite(),
            "{workload}: {name} = {value}"
        );
    }

    let (stdout, doc) = run(workload, "1");
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload} traced: a gate failed:\n{stdout}"
    );
    let metrics = doc.get("metrics").expect("metrics object");
    assert!(
        metrics.get("setup_s").is_none(),
        "{workload} traced: end-to-end metrics leak into the traced set"
    );
    assert!(
        metrics.get("trace.overhead_pct").is_some(),
        "{workload} traced: no tracing overhead"
    );
    for name in per_layer(workload) {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload} traced: no {name}"));
        assert!(m
            .get("unit")
            .and_then(Json::as_str)
            .is_some_and(|u| !u.is_empty()));
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        assert!(
            value > 0.0 && value.is_finite(),
            "{workload} traced: {name} = {value}"
        );
    }
}

#[test]
fn train_prints_every_metric_and_passes_its_gates() {
    check("train");
}

#[test]
fn serve_prints_every_metric_and_passes_its_gates() {
    check("serve");
}

#[test]
fn partitioned_prints_every_metric_and_passes_its_gates() {
    check("partitioned");
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("spawn perfbench");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"metrics\""));
}
