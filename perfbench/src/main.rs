//! `perfbench`: the repository's end-to-end benchmark (see `README.md`).
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Every run prints diagnostics as `# ` lines and, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set; both lists are below and in `BENCHMARK.json`.

mod measure;
mod partitioned;
mod serve;
mod train;

use std::process::ExitCode;

use measure::Report;

/// End-to-end metrics, printed by every workload with tracing off. The
/// per-workload meaning of each is in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("load_p50_ms", "ms"),
    ("op_p50_ms", "ms"),
    ("side_p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics, printed by every workload with tracing on. A layer a
/// workload never calls into reads 0 and is named in a diagnostic.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.forward_ms", "ms"),
    ("core.gcfm_ms", "ms"),
    ("core.aggregate_ms", "ms"),
    ("autograd.backward_ms", "ms"),
    ("autograd.adam_ms", "ms"),
    ("autograd.tape_ops", "count"),
    ("train.eval_ms", "ms"),
    ("train.bookkeeping_ms", "ms"),
    ("train.epoch_tail_ms", "ms"),
    ("gnn.baseline_forward_ms", "ms"),
    ("gnn.baseline_backward_ms", "ms"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("sparse.spmm_gbs", "GB/s"),
    ("par.speedup", "x"),
    ("serve.export_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.evaluate_ms", "ms"),
    ("serve.artifact_mib", "MiB"),
    ("serve.mutate_p50_ms", "ms"),
    ("serve.mutate_tail_ms", "ms"),
    ("serve.full_share", "ratio"),
    ("serve.dirty_rows_p50", "count"),
    ("serve.predict_us", "us"),
    ("serve.protocol_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.read_tail_ms", "ms"),
    ("serve.lazy_load_ms", "ms"),
    ("serve.resident_evaluate_ms", "ms"),
    ("serve.resident_peak_rss_mib", "MiB"),
    ("graph.partition_ms", "ms"),
    ("graph.halo_ratio", "ratio"),
    ("autograd.plan_ms", "ms"),
    ("autograd.eval_rows_p50_ms", "ms"),
    ("autograd.eval_rows_tail_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Input scale. `Tiny` exists for the benchmark's own tests: same code
/// paths and gates, graphs and loops small enough for seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One run, as the command line asks for it.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// Child-process roles of the `partitioned` workload.
enum Role {
    Export { out: String },
    Resident { artifact: String, rows: String },
}

struct Args {
    workload: Option<String>,
    role: Option<Role>,
    cfg: RunConfig,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload train|serve|partitioned --seed N --seconds S \
         --trace 0|1 [--size full|tiny]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let (mut role, mut out, mut artifact, mut rows) = (None::<String>, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag}: missing value")));
        let bad = |what: &str| -> ! { usage(&format!("{flag}: invalid value '{what}'")) };
        match flag {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| bad(&value)),
            "--seconds" => {
                cfg.seconds = value.parse().unwrap_or_else(|_| bad(&value));
                if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
                    bad(&value);
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(&value),
                }
            }
            "--size" => {
                cfg.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => bad(&value),
                }
            }
            "--role" => role = Some(value),
            "--out" => out = Some(value),
            "--artifact" => artifact = Some(value),
            "--rows" => rows = Some(value),
            other => usage(&format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    let role = match role.as_deref() {
        None => None,
        Some("export") => Some(Role::Export {
            out: out.unwrap_or_else(|| usage("--role export needs --out")),
        }),
        Some("resident") => Some(Role::Resident {
            artifact: artifact.unwrap_or_else(|| usage("--role resident needs --artifact")),
            rows: rows.unwrap_or_else(|| usage("--role resident needs --rows")),
        }),
        Some(other) => usage(&format!("unknown role '{other}'")),
    };
    if role.is_none() && workload.is_none() {
        usage("--workload is required");
    }
    Args {
        workload,
        role,
        cfg,
    }
}

/// Pin glibc malloc's thresholds before any thread exists. By default glibc
/// moves its mmap threshold as large blocks are freed, so whether a
/// multi-megabyte tensor is page-faulted fresh or reused from the heap
/// depends on thread timing: identical runs then differ by 20–30% in load
/// and write latency and in peak RSS. Fixed thresholds (heap below 32 MiB,
/// no trimming) make those numbers repeat; every child process of the
/// benchmark runs this same `main`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only sets allocator tunables; it is called first
    // thing in `main`, before this process has started any other thread.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
    };
    assert!(ok, "mallopt refused the benchmark's allocator settings");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let args = parse_args();
    match args.role {
        Some(Role::Export { out }) => return partitioned::export_child(&args.cfg, &out),
        Some(Role::Resident { artifact, rows }) => {
            return partitioned::resident_child(&artifact, &rows)
        }
        None => {}
    }
    let cfg = args.cfg;
    let start_note = measure::calibration_note("start");
    let mut report: Report = match args.workload.as_deref() {
        Some("train") => train::run(&cfg),
        Some("serve") => serve::run(&cfg),
        Some("partitioned") => partitioned::run(&cfg),
        Some(other) => usage(&format!("unknown workload '{other}'")),
        None => unreachable!("checked in parse_args"),
    };
    report.note(measure::provenance_note());
    report.note(start_note);
    report.note(measure::calibration_note("end"));
    if cfg.trace {
        report.print_zero_filled(PER_LAYER);
    } else {
        report.print(END_TO_END);
    }
    ExitCode::SUCCESS
}
