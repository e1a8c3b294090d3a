//! Smoke tests for CLI argument-error reporting: a bad flag value must
//! name **both** the flag and the offending value (exit code 2), not just
//! dump the usage text — that's the difference between "what did I typo"
//! and re-reading the whole synopsis.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lasagne-cli"))
        .args(args)
        .output()
        .expect("spawn lasagne-cli")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn bad_flag_value_names_flag_and_value() {
    let out = run(&["cora", "gcn", "--epochs", "abc"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("--epochs: invalid value 'abc'"),
        "stderr must name the flag and value, got:\n{err}"
    );
}

#[test]
fn missing_flag_value_is_reported() {
    let out = run(&["cora", "gcn", "--epochs"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--epochs: missing value"), "got:\n{err}");
}

#[test]
fn unknown_flag_is_reported_by_name() {
    let out = run(&["cora", "gcn", "--florp", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown flag '--florp'"), "got:\n{err}");
}

#[test]
fn serve_requires_frozen_path() {
    let out = run(&["serve", "--port", "7878"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("missing required --frozen"), "got:\n{err}");
}

#[test]
fn serve_rejects_bad_port() {
    let out = run(&["serve", "--frozen", "x.json", "--port", "99999"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--port: invalid value '99999'"), "got:\n{err}");
}

#[test]
fn serve_refuses_a_v2_artifact_with_a_typed_message() {
    // A v2 document in the exact layout v2 writers used.
    let body = r#"{"kind":"frozen_model","weights":[{"name":"w","rows":1,"cols":2,"data":[0.5,-1]}]}"#;
    let checksum = format!("{:016x}", lasagne_train::fnv1a64(body.as_bytes()));
    let path = std::env::temp_dir().join(format!("lasagne-cli-v2-{}.json", std::process::id()));
    let doc = format!(r#"{{"format_version":2,"checksum":"{checksum}","body":{body}}}"#);
    std::fs::write(&path, doc).expect("write v2 artifact");
    let out = run(&["serve", "--frozen", path.to_str().expect("utf-8 path"), "--port", "0"]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("unsupported format version 2"), "got:\n{err}");
    assert!(err.contains("re-export") && !err.contains("panicked"), "got:\n{err}");
}

#[test]
fn serve_refuses_a_quantized_artifact_with_a_typed_message() {
    // A v3 body whose weight is in the layout quantized exports used.
    let body = r#"{"kind":"frozen_model","meta":{"model":"GCN","dataset":"cora","num_nodes":1,"num_classes":1},"weights":[{"name":"w","quant":"i8","rows":1,"cols":1,"scales":"0000803f","data":"7f"}]}"#;
    let path = std::env::temp_dir().join(format!("lasagne-cli-quant-{}.json", std::process::id()));
    let body = lasagne_testkit::Json::parse(body).expect("body parses");
    lasagne_train::atomic_write_envelope(&path, body).expect("write quantized artifact");
    let out = run(&["serve", "--frozen", path.to_str().expect("utf-8 path"), "--port", "0"]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("quantized weights") && err.contains("--export"), "got:\n{err}");
    assert!(!err.contains("panicked"), "got:\n{err}");
}

#[test]
fn rec_refuses_zero_threads_and_zero_k() {
    for (flag, value) in [("--threads", "0"), ("--k", "0")] {
        let out = run(&["rec", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let err = stderr(&out);
        assert!(err.contains(&format!("{flag}: invalid value '{value}'")), "got:\n{err}");
    }
}
