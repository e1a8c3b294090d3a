//! Serial-vs-parallel throughput baseline for the five `lasagne-par`-wired
//! kernels: `matmul`, `matmul_tn`, `matmul_nt`, `spmm`, `spmm_t` (plus the
//! retired scatter `spmm_t` for reference). Replaces the old
//! `benches/kernels` target.
//!
//! Each kernel runs on Cora-scale and Pubmed-scale synthetic operators
//! across hidden widths from 16 to 512 — the dense products also on a
//! post-ReLU left operand (≈ 50% zeros) — once with the pool pinned to one
//! thread and once at the `--threads` count, and the medians land in
//! `BENCH_kernels.json` at the repo root (testkit JSON codec, so the file
//! is deterministic byte-wise up to the timings themselves).
//!
//! ```text
//! cargo run --release -p lasagne-bench --bin kernels [-- --smoke] [--threads N] [--out PATH]
//! ```
//!
//! By the determinism contract the parallel run computes bitwise the same
//! outputs — this binary double-checks that on the first shape of every
//! kernel as a guard against silent contract rot. Note the `speedup` column
//! is only meaningful on multi-core hardware; `available_parallelism` is
//! recorded in the JSON so a reader can tell a 1-core CI box from a real
//! measurement, and `gemm_isa` names the dense-kernel instantiation the CPU
//! ran (`"avx512f"` or `"portable"`), so GFLOP/s figures from different
//! hosts are not compared blind.

use std::hint::black_box;

use lasagne_obs::{SpanGuard, TraceSink};
use lasagne_sparse::Csr;
use lasagne_tensor::{Tensor, TensorRng};
use lasagne_testkit::bench::bench_with;
use lasagne_testkit::json::Json;

struct Config {
    smoke: bool,
    threads: usize,
    out: String,
    warmup: usize,
    samples: usize,
}

fn usage() -> ! {
    eprintln!("usage: kernels [--smoke] [--threads N] [--out PATH]");
    std::process::exit(2);
}

fn parse_args() -> Config {
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let mut cfg = Config {
        smoke: false,
        threads: 4,
        out: default_out.to_string(),
        warmup: 1,
        samples: 5,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => cfg.smoke = true,
            "--threads" => {
                i += 1;
                cfg.threads = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                cfg.out = argv.get(i).cloned().unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    if cfg.smoke {
        cfg.warmup = 1;
        cfg.samples = 3;
    }
    cfg
}

/// A random symmetric graph operator at GCN normalization, Cora/Pubmed
/// shaped: `n` nodes, ≈ `2 * edges` stored entries plus self-loops.
fn synthetic_a_hat(rng: &mut TensorRng, n: usize, edges: usize) -> Csr {
    let mut coo = Vec::with_capacity(2 * edges + n);
    for _ in 0..edges {
        let u = rng.index(n) as u32;
        let v = rng.index(n) as u32;
        if u != v {
            coo.push((u, v, 1.0));
            coo.push((v, u, 1.0));
        }
    }
    Csr::from_coo(n, n, &coo).gcn_normalize()
}

/// Nominal work of one kernel invocation, for the throughput columns:
/// dense products report GFLOP/s (`2·n·k·m` flops), sparse products GB/s
/// (compulsory traffic: 8 B per stored entry for the CSR value + column
/// index, `4·d` B of gathered dense rows per entry, `4·d` B per output
/// row written).
#[derive(Clone, Copy)]
enum Work {
    Flops(f64),
    Bytes(f64),
}

/// `2·n·k·m` — one multiply + one add per inner-loop step.
fn mm_flops(n: usize, k: usize, m: usize) -> Work {
    Work::Flops(2.0 * n as f64 * k as f64 * m as f64)
}

fn spmm_bytes(nnz: usize, rows: usize, d: usize) -> Work {
    Work::Bytes(nnz as f64 * (8.0 + 4.0 * d as f64) + rows as f64 * 4.0 * d as f64)
}

struct Entry {
    kernel: &'static str,
    shape: String,
    serial_ms: f64,
    /// `None` for seed-reference rows, which are serial by construction.
    parallel_ms: Option<f64>,
    work: Work,
}

impl Entry {
    /// GFLOP/s or GB/s achieved by a run of `ms` milliseconds.
    fn throughput(&self, ms: f64) -> f64 {
        let units = match self.work {
            Work::Flops(f) => f,
            Work::Bytes(b) => b,
        };
        units / (ms * 1e-3).max(1e-12) / 1e9
    }

    fn unit(&self) -> &'static str {
        match self.work {
            Work::Flops(_) => "GFLOP/s",
            Work::Bytes(_) => "GB/s",
        }
    }
}

/// Time `f` serially and at `threads` threads; on `check`, also assert the
/// two thread counts produce bitwise identical output.
fn measure(
    cfg: &Config,
    entries: &mut Vec<Entry>,
    kernel: &'static str,
    shape: String,
    work: Work,
    check: bool,
    f: impl Fn() -> Tensor,
) {
    if check {
        lasagne_par::set_threads(1);
        let serial = f();
        lasagne_par::set_threads(cfg.threads);
        let parallel = f();
        assert_eq!(
            serial.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            parallel.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{kernel} {shape}: determinism contract violated"
        );
    }
    lasagne_par::set_threads(1);
    let s = bench_with(&format!("{kernel}/{shape}/serial"), cfg.warmup, cfg.samples, || {
        black_box(f());
    });
    lasagne_par::set_threads(cfg.threads);
    let p = bench_with(
        &format!("{kernel}/{shape}/threads{}", cfg.threads),
        cfg.warmup,
        cfg.samples,
        || {
            black_box(f());
        },
    );
    // Min-of-samples, not median: scheduler/VM noise on a shared host is
    // strictly additive for a CPU-bound kernel, so the fastest sample is
    // the least-contaminated estimate — the right basis for the
    // blocked-vs-seed comparison rows.
    let (s_ms, p_ms) = (s.min.as_secs_f64() * 1e3, p.min.as_secs_f64() * 1e3);
    let entry = Entry {
        kernel,
        shape,
        serial_ms: s_ms,
        parallel_ms: Some(p_ms),
        work,
    };
    println!(
        "{kernel:<16} {:<24} serial {:>9.3} ms ({:>7.2} {})  x{} {:>9.3} ms  speedup {:.2}",
        entry.shape,
        entry.serial_ms,
        entry.throughput(entry.serial_ms),
        entry.unit(),
        cfg.threads,
        p_ms,
        s_ms / p_ms.max(1e-12),
    );
    entries.push(entry);
}

/// Time a pinned seed-reference kernel (serial by construction) so the
/// JSON carries blocked-vs-seed comparison rows next to the live numbers.
fn measure_seed(
    cfg: &Config,
    entries: &mut Vec<Entry>,
    kernel: &'static str,
    shape: String,
    work: Work,
    f: impl Fn() -> Tensor,
) {
    lasagne_par::set_threads(1);
    let s = bench_with(&format!("{kernel}/{shape}/serial"), cfg.warmup, cfg.samples, || {
        black_box(f());
    });
    let entry = Entry {
        kernel,
        shape,
        serial_ms: s.min.as_secs_f64() * 1e3,
        parallel_ms: None,
        work,
    };
    println!(
        "{kernel:<16} {:<24} serial {:>9.3} ms ({:>7.2} {})  [seed reference]",
        entry.shape,
        entry.serial_ms,
        entry.throughput(entry.serial_ms),
        entry.unit(),
    );
    entries.push(entry);
}

/// Median cost of one *disabled* span probe in nanoseconds. The overhead
/// contract (DESIGN.md §9) says instrumentation without an active sink is a
/// single relaxed atomic load — this measures it so the bench can assert it
/// stays within noise of the cheapest hot kernel.
fn disabled_span_cost_ns() -> f64 {
    const ITERS: u64 = 1_000_000;
    assert!(!lasagne_obs::enabled(), "probe must run with tracing disabled");
    let r = bench_with("obs_disabled_span", 2, 7, || {
        for _ in 0..ITERS {
            let g = SpanGuard::enter("probe");
            black_box(&g);
        }
    });
    r.median_seconds() * 1e9 / ITERS as f64
}

fn main() {
    let cfg = parse_args();
    let mut rng = TensorRng::seed_from_u64(7);

    let span_ns = disabled_span_cost_ns();
    println!("obs disabled-span probe: {span_ns:.2} ns/span");

    // (label, nodes, random edges) per graph; hidden widths swept per kernel.
    let (graphs, dims): (Vec<(&str, usize, usize)>, Vec<usize>) = if cfg.smoke {
        (vec![("tiny", 200, 400)], vec![8])
    } else {
        (
            vec![("cora_scale", 2708, 5400), ("pubmed_scale", 19717, 44300)],
            vec![16, 64, 256, 512],
        )
    };

    let mut entries: Vec<Entry> = Vec::new();

    for &(label, n, edges) in &graphs {
        let a_hat = synthetic_a_hat(&mut rng, n, edges);
        let a_hat_t = a_hat.transpose();
        let nnz = a_hat.nnz();
        for (di, &d) in dims.iter().enumerate() {
            let h = rng.uniform_tensor(n, d, -1.0, 1.0);
            let check = di == 0;
            let bytes = spmm_bytes(nnz, n, d);
            measure(&cfg, &mut entries, "spmm", format!("{label}_x{d}"), bytes, check, || {
                a_hat.spmm(&h)
            });
            // Blocked-vs-seed row: the pinned pre-blocking whole-row-axpy
            // loop on the same operator. The acceptance bar is the blocked
            // kernel being no slower on every shape.
            measure_seed(&cfg, &mut entries, "spmm_seed", format!("{label}_x{d}"), bytes, || {
                a_hat.spmm_reference(&h)
            });
            measure(&cfg, &mut entries, "spmm_t", format!("{label}_x{d}"), bytes, check, || {
                a_hat.spmm_t(&h)
            });
            measure_seed(&cfg, &mut entries, "spmm_t_seed", format!("{label}_x{d}"), bytes, || {
                a_hat_t.spmm_reference(&h)
            });
        }
    }

    // Dense products at GCN layer shapes: n×k · k×m forward, plus both
    // transposed backward products, widths spanning 16–512.
    let n = if cfg.smoke { 128 } else { 2708 };
    let mm_dims: Vec<(usize, usize)> = if cfg.smoke {
        vec![(8, 8)]
    } else {
        vec![(16, 16), (128, 64), (512, 128)]
    };
    for (ki, &(k, m)) in mm_dims.iter().enumerate() {
        let a = rng.uniform_tensor(n, k, -1.0, 1.0);
        let b = rng.uniform_tensor(k, m, -1.0, 1.0);
        let g = rng.uniform_tensor(n, m, -1.0, 1.0);
        let check = ki == 0;
        let shape = format!("{n}x{k}x{m}");
        let flops = mm_flops(n, k, m);
        measure(&cfg, &mut entries, "matmul", shape.clone(), flops, check, || a.matmul(&b));
        measure_seed(&cfg, &mut entries, "matmul_seed", shape.clone(), flops, || {
            a.matmul_reference(&b)
        });
        measure(&cfg, &mut entries, "matmul_tn", shape.clone(), flops, check, || {
            a.matmul_tn(&g)
        });
        measure_seed(&cfg, &mut entries, "matmul_tn_seed", shape.clone(), flops, || {
            a.matmul_tn_reference(&g)
        });
        measure(&cfg, &mut entries, "matmul_nt", shape.clone(), flops, check, || {
            g.matmul_nt(&b)
        });
        measure_seed(&cfg, &mut entries, "matmul_nt_seed", shape.clone(), flops, || {
            g.matmul_nt_reference(&b)
        });
    }

    // Post-ReLU left operands (≈ 50% exact zeros): the density training
    // feeds the forward and weight-gradient products. The seed rows are
    // the zero-skipping loops the dense kernels replaced.
    let (k, m) = if cfg.smoke { (8, 8) } else { (32, 32) };
    let a = rng.uniform_tensor(n, k, -1.0, 1.0).relu();
    let b = rng.uniform_tensor(k, m, -1.0, 1.0);
    let g = rng.uniform_tensor(n, m, -1.0, 1.0);
    let shape = format!("{n}x{k}x{m}_relu");
    let flops = mm_flops(n, k, m);
    measure(&cfg, &mut entries, "matmul", shape.clone(), flops, true, || a.matmul(&b));
    measure_seed(&cfg, &mut entries, "matmul_seed", shape.clone(), flops, || {
        a.matmul_reference(&b)
    });
    measure(&cfg, &mut entries, "matmul_tn", shape.clone(), flops, true, || a.matmul_tn(&g));
    measure_seed(&cfg, &mut entries, "matmul_tn_seed", shape, flops, || {
        a.matmul_tn_reference(&g)
    });

    // Overhead contract: one disabled span must be ≤ 2% of the matmul
    // median — i.e. within measurement noise of the cheapest dense kernel
    // at its smallest benched shape.
    let matmul_ns = entries
        .iter()
        .find(|e| e.kernel == "matmul")
        .map(|e| e.serial_ms * 1e6)
        .expect("matmul was benched");
    assert!(
        span_ns <= 0.02 * matmul_ns,
        "disabled-path span overhead {span_ns:.2} ns exceeds 2% of the matmul \
         median ({:.0} ns) — the single-atomic-load contract is broken",
        matmul_ns
    );

    // Kernel-time breakdown: one traced pass of each wired kernel, run
    // *after* the timed loops so the medians above never include an active
    // sink. This is what gives BENCH_*.json rows a span/counter view.
    let trace = {
        let sink = TraceSink::start(false);
        let (_, gn, ge) = graphs[0];
        let a_hat = synthetic_a_hat(&mut rng, gn, ge);
        let h = rng.uniform_tensor(gn, dims[0], -1.0, 1.0);
        black_box(a_hat.spmm(&h));
        black_box(a_hat.spmm_t(&h));
        let (k, m) = mm_dims[0];
        let a = rng.uniform_tensor(n, k, -1.0, 1.0);
        let b = rng.uniform_tensor(k, m, -1.0, 1.0);
        let g = rng.uniform_tensor(n, m, -1.0, 1.0);
        black_box(a.matmul(&b));
        black_box(a.matmul_tn(&g));
        black_box(g.matmul_nt(&b));
        sink.finish()
    };

    let cores = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("kernels".into())),
        ("smoke".into(), Json::Bool(cfg.smoke)),
        ("available_parallelism".into(), Json::Num(cores as f64)),
        ("gemm_isa".into(), Json::Str(lasagne_tensor::gemm_isa().into())),
        ("serial_threads".into(), Json::Num(1.0)),
        ("parallel_threads".into(), Json::Num(cfg.threads as f64)),
        ("samples".into(), Json::Num(cfg.samples as f64)),
        ("obs_disabled_span_ns".into(), Json::Num(span_ns)),
        ("obs_overhead_pct_of_matmul".into(), Json::Num(100.0 * span_ns / matmul_ns)),
        (
            "trace".into(),
            Json::Obj(vec![
                (
                    "spans".into(),
                    Json::Arr(
                        trace
                            .spans
                            .iter()
                            .map(|s| {
                                Json::Obj(vec![
                                    ("path".into(), Json::Str(s.path.clone())),
                                    ("count".into(), Json::Num(s.count as f64)),
                                    ("total_ns".into(), Json::Num(s.total_ns as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "counters".into(),
                    Json::Obj(
                        trace
                            .counters
                            .iter()
                            .map(|(n, v)| (n.clone(), Json::Num(*v as f64)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "entries".into(),
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        let mut row = vec![
                            ("kernel".into(), Json::Str(e.kernel.into())),
                            ("shape".into(), Json::Str(e.shape.clone())),
                            ("serial_ms".into(), Json::Num(e.serial_ms)),
                        ];
                        if let Some(p) = e.parallel_ms {
                            row.push(("parallel_ms".into(), Json::Num(p)));
                            row.push(("speedup".into(), Json::Num(e.serial_ms / p.max(1e-12))));
                        }
                        // Throughput columns: GFLOP/s for dense products,
                        // GB/s (nominal compulsory traffic) for sparse.
                        let (skey, pkey) = match e.work {
                            Work::Flops(_) => ("gflops_serial", "gflops_parallel"),
                            Work::Bytes(_) => ("gbs_serial", "gbs_parallel"),
                        };
                        row.push((skey.into(), Json::Num(e.throughput(e.serial_ms))));
                        if let Some(p) = e.parallel_ms {
                            row.push((pkey.into(), Json::Num(e.throughput(p))));
                        }
                        Json::Obj(row)
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&cfg.out, json.to_string()).expect("write bench json");
    println!("wrote {}", cfg.out);
}
