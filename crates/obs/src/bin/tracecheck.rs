//! Validate a JSONL trace artifact: parses under the testkit codec, the
//! schema round-trips, and the required span names are present (with
//! non-zero aggregate durations unless the trace is deterministic).
//!
//! ```text
//! cargo run -p lasagne-obs --bin tracecheck -- PATH [--require name,name,...]
//! ```
//!
//! Exit status 0 on success; 1 with a diagnostic otherwise. Used by
//! `scripts/verify.sh` to gate the CLI trace stage.

use lasagne_obs::TraceReport;

const DEFAULT_REQUIRED: &[&str] = &[
    "spmm",
    "matmul",
    "epoch",
    "forward",
    "backward",
    "step",
    "checkpoint.save",
    "envelope.serialize",
];

fn fail(msg: &str) -> ! {
    eprintln!("tracecheck: {msg}");
    std::process::exit(1);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<&str> = None;
    let mut required: Vec<String> = DEFAULT_REQUIRED.iter().map(|s| s.to_string()).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--require" => {
                i += 1;
                let list = argv.get(i).unwrap_or_else(|| {
                    fail("--require needs a comma-separated span list")
                });
                required = list.split(',').map(str::to_string).collect();
            }
            p if path.is_none() => path = Some(p),
            _ => fail("usage: tracecheck PATH [--require name,name,...]"),
        }
        i += 1;
    }
    let path = path.unwrap_or_else(|| fail("usage: tracecheck PATH [--require name,name,...]"));

    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let report = TraceReport::parse_jsonl(&text)
        .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    if report.to_jsonl() != text {
        fail(&format!("{path}: artifact does not round-trip through the codec"));
    }

    for name in &required {
        let (count, total_ns) = report.total_named(name);
        if count == 0 {
            fail(&format!("{path}: required span '{name}' is missing"));
        }
        if !report.deterministic && total_ns == 0 {
            fail(&format!("{path}: span '{name}' has zero aggregate duration in a timed trace"));
        }
    }
    println!(
        "tracecheck: {path} OK ({} spans, {} counters, deterministic={})",
        report.spans.len(),
        report.counters.len(),
        report.deterministic
    );
}
