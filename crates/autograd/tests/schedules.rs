//! Property suite for the one program evaluator (DESIGN.md §10, "One
//! evaluator"): random exported tape programs, run through its three
//! schedules at 1 and 4 pool threads.
//!
//! The generator draws from every row-local `ProgramOp` variant — element-wise
//! ops, broadcasts, `GatherRows` with repeated indices, `MaxStack` with forced
//! ties, grouped row sums with one and with several groups, reductions over
//! resident leaves — on a random symmetric graph, and feeds `MatMul` both
//! zero-heavy (post-ReLU, sparse features) and dense left operands. The
//! properties:
//!
//! * **demand**: the all-rows (resident) schedule equals the value the tape
//!   computed, and `RowPlan::eval_rows` on random row subsets (unsorted,
//!   with repeats) equals its matching rows, bitwise — with an infinite
//!   matmul weight in half the programs, so `0 · ∞` NaNs flow through every
//!   schedule and a subset that treated a zero multiplier differently from
//!   the whole product would show;
//! * **shared cache**: a random sequence of row subsets evaluated through
//!   one `RowCache` equals the tape's rows, bitwise; all rows through the
//!   same cache then compute each kept row (an SpMM operand's) at most once
//!   over the whole sequence, and a second pass over all rows computes none,
//!   as the `peval.rows_computed` counter shows;
//! * **an operand nothing demands**: rows of isolated nodes under a
//!   loop-free operator demand no row of the SpMM operands, so their kept
//!   slots are read without a row being written — through a fresh cache
//!   and through a warm one, both bitwise the all-rows schedule;
//! * **dirty**: after random rows of the input features change, the dirty
//!   schedule's patched cache equals a cold all-rows evaluation, bitwise —
//!   every instruction, not just the output;
//! * **refusal**: a whole-graph reduction over a non-leaf is refused with the
//!   typed `PevalError::NotRowLocal`, naming the reduction.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Mutex;

use lasagne_autograd::{
    dirty_rows, eval_all, eval_dirty, NodeId, Operand, Operands, ParamId, ParamStore, PevalError,
    Program, ProgramOp, Resident, RowCache, RowPlan, Tape,
};
use lasagne_obs::TraceSink;
use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;
use lasagne_testkit::Rng;

/// Programs per property and thread count.
const CASES: u64 = 48;

/// Held by the tests that evaluate row plans: their `peval.*` counters are
/// process-global, and one test reads them.
static COUNTERS: Mutex<()> = Mutex::new(());

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `rows × cols` values in ±1.5 with roughly a `zeros` share of exact zeros.
fn tensor(rng: &mut Rng, rows: usize, cols: usize, zeros: f32) -> Tensor {
    Tensor::from_fn(
        rows,
        cols,
        |_, _| {
            if rng.next_f32() < zeros {
                0.0
            } else {
                rng.range_f32(-1.5, 1.5)
            }
        },
    )
}

/// A random weighted graph with self-loops and symmetric structure — the
/// invariant the dirty walk reads SpMM halos through.
fn graph(rng: &mut Rng, n: usize) -> Csr {
    let mut coo: Vec<(u32, u32, f32)> =
        (0..n as u32).map(|i| (i, i, rng.range_f32(0.2, 1.0))).collect();
    for _ in 0..n {
        let (u, v) = (rng.index(n) as u32, rng.index(n) as u32);
        if u != v {
            let w = rng.range_f32(0.1, 0.9);
            coo.push((u, v, w));
            coo.push((v, u, w));
        }
    }
    Csr::from_coo(n, n, &coo)
}

/// A random eval-mode program over an `n`-node graph, exported, with its
/// weight table and the output value the tape computed while recording it.
/// Every pool node is `n × h`. `reduce` (`"sum_all"` or `"sum_rows"`)
/// additionally folds a whole-graph reduction of the last computed node
/// into the output. `infinite` puts one `+∞` into a matmul weight, which
/// makes any skipped zero multiplier visible in the bits (`0 · ∞` is NaN, a
/// skipped zero is not).
fn random_program(
    seed: u64,
    reduce: Option<&str>,
    infinite: bool,
) -> (Program, Vec<(String, Tensor)>, Tensor) {
    let mut rng = Rng::seed_from_u64(seed);
    let n = rng.range_usize(10, 28);
    let (d, h) = (rng.range_usize(2, 6), rng.range_usize(2, 5));
    // Feature sparsity from dense to mostly zeros.
    let sparsity = [0.0, 0.15, 0.45, 0.85][rng.index(4)];
    let x = tensor(&mut rng, n, d, sparsity);
    let adj = Rc::new(graph(&mut rng, n));
    let mut store = ParamStore::new();
    let w1 = store.add("w1", tensor(&mut rng, d, h, 0.0));
    let w2 = store.add("w2", tensor(&mut rng, h, h, 0.3));
    let b = store.add("b", tensor(&mut rng, 1, h, 0.0));
    let s = store.add("s", tensor(&mut rng, 1, 1, 0.0));
    let mut w3 = tensor(&mut rng, h, h, 0.0);
    if infinite {
        w3.row_mut(rng.index(h))[rng.index(h)] = f32::INFINITY;
    }
    let w3 = store.add("w3", w3);

    let mut tape = Tape::new();
    let xn = tape.constant(x);
    let w1n = tape.param(w1, &store);
    let mut pool: Vec<NodeId> = vec![tape.matmul(xn, w1n)];
    for _ in 0..rng.range_usize(6, 16) {
        let p = pool[rng.index(pool.len())];
        let q = pool[rng.index(pool.len())];
        let out = match rng.index(23) {
            0 => {
                let w = tape.param(w2, &store);
                tape.matmul(p, w)
            }
            1 => {
                // Roughly half zeros, as after a ReLU in training.
                let r = tape.relu(p);
                let w = tape.param(w3, &store);
                tape.matmul(r, w)
            }
            2 => tape.spmm(Rc::clone(&adj), p),
            3 => tape.add(p, q),
            4 => tape.sub(p, q),
            5 => tape.mul(p, q),
            6 => {
                let den = tape.sigmoid(q);
                let den = tape.add_const(den, 0.5);
                tape.div(p, den)
            }
            7 => tape.scale(p, rng.range_f32(-2.0, 2.0)),
            8 => tape.add_const(p, rng.range_f32(-1.0, 1.0)),
            9 => {
                let base = tape.sigmoid(p);
                tape.pow(base, [0.5, 2.0, -1.0][rng.index(3)], 1e-3)
            }
            10 => {
                let t = tape.tanh(p);
                tape.exp(t)
            }
            11 => tape.leaky_relu(p, 0.1),
            12 => tape.sigmoid(p),
            13 => tape.tanh(p),
            14 => {
                let bn = tape.param(b, &store);
                tape.add_row_broadcast(p, bn)
            }
            15 => {
                let c = tape.sum_cols(q);
                tape.add_col_broadcast(p, c)
            }
            16 => {
                let c = tape.sum_cols(q);
                let c = tape.tanh(c);
                tape.mul_col_broadcast(p, c)
            }
            17 => {
                let sn = tape.param(s, &store);
                tape.mul_scalar_node(p, sn)
            }
            18 => tape.log_softmax(p),
            19 => {
                let cat = tape.concat_cols(&[p, q]);
                let lo = rng.index(h + 1);
                tape.slice_cols(cat, lo, lo + h)
            }
            20 => {
                let idx: Vec<usize> = (0..n).map(|_| rng.index(n)).collect();
                tape.gather_rows(p, Rc::new(idx))
            }
            21 => {
                // `h` groups of 2 or 3 columns: back to `n × h`.
                let parts = [p, q, p];
                let cat = tape.concat_cols(&parts[..rng.range_usize(2, 4)]);
                tape.sum_col_groups(cat, h)
            }
            _ => {
                // Forced ties: `-0.0` against `+0.0` wherever p ≤ 0 (strict
                // `>` keeps the first), `relu(p) == p` wherever p > 0, and
                // `p` twice.
                let r = tape.relu(p);
                let neg = tape.scale(r, -1.0);
                tape.max_stack(&[neg, r, q, p, p])
            }
        };
        pool.push(out);
    }
    // Reductions over resident leaves are row-local: a weight's column sums
    // as a row bias, a bias's total as a scalar.
    let last = *pool.last().expect("pool is never empty");
    let wn = tape.param(w2, &store);
    let col_sums = tape.sum_rows(wn);
    let biased = tape.add_row_broadcast(last, col_sums);
    let bn = tape.param(b, &store);
    let total = tape.sum_all(bn);
    let mut scaled = tape.mul_scalar_node(biased, total);
    match reduce {
        Some("sum_all") => {
            let t = tape.sum_all(last);
            scaled = tape.mul_scalar_node(scaled, t);
        }
        Some(_) => {
            let c = tape.sum_rows(last);
            scaled = tape.add_row_broadcast(scaled, c);
        }
        None => {}
    }
    // A tie the output shows: `-0.0` vs `+0.0` wherever `last` ≤ 0, which
    // strict `>` resolves to the first part.
    let r = tape.relu(last);
    let neg = tape.scale(r, -1.0);
    let ties = tape.max_stack(&[neg, r]);
    let out = tape.concat_cols(&[scaled, ties]);
    let program = tape.export_program(&store, out).expect("eval-mode programs export");
    let weights = (0..store.len())
        .map(|i| {
            let id = ParamId::from_index(i);
            (store.name(id).to_string(), store.value(id).clone())
        })
        .collect();
    (program, weights, tape.value(out).clone())
}

fn variant(op: &ProgramOp) -> String {
    format!("{op:?}").split([' ', '{']).next().unwrap_or_default().to_string()
}

#[test]
fn demand_subsets_match_the_all_rows_schedule_bitwise() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut seen: BTreeSet<String> = BTreeSet::new();
    // Zero-heavy (≥ ¼ exact zeros) and dense `MatMul` left operands seen.
    let mut densities: BTreeSet<bool> = BTreeSet::new();
    let mut grouped = false;
    for threads in [1, 4] {
        lasagne_par::set_threads(threads);
        for seed in 0..CASES {
            let (program, weights, taped) = random_program(seed, None, seed % 2 == 0);
            let sparse: Vec<&Csr> = program.sparse.iter().map(|m| &**m).collect();
            let values = eval_all(&program.ops, &sparse, &weights).expect("weights bound");
            let src = Resident {
                ops: &program.ops,
                sparse: &sparse,
                weights: &weights,
                values: &values,
            };
            for op in &program.ops {
                seen.insert(variant(op));
                match op {
                    ProgramOp::MatMul { a, .. } => {
                        let left = src.whole(*a).as_slice();
                        densities.insert(left.iter().filter(|&&v| v == 0.0).count() * 4 >= left.len());
                    }
                    ProgramOp::SumCols { groups, .. } => grouped |= *groups > 1,
                    _ => {}
                }
            }
            let all = src.whole(program.output);
            assert_eq!(bits(all), bits(&taped), "seed {seed}: all rows differ from the tape");
            let plan = RowPlan::new(&program, &weights).expect("row-local program plans");
            let mut rng = Rng::seed_from_u64(seed ^ 0x5EED);
            for _ in 0..4 {
                let len = rng.range_usize(1, all.rows() + 3);
                let rows: Vec<usize> = (0..len).map(|_| rng.index(all.rows())).collect();
                let got = plan.eval_rows(&rows).expect("rows in range");
                for (local, &r) in rows.iter().enumerate() {
                    assert_eq!(
                        bits(&got.gather_rows(&[local])),
                        bits(&all.gather_rows(&[r])),
                        "seed {seed}, threads {threads}: row {r} of subset {rows:?}"
                    );
                }
            }
        }
    }
    lasagne_par::set_threads(1);
    let row_local = [
        "Constant",
        "Param",
        "MatMul",
        "SpMM",
        "Add",
        "Sub",
        "Mul",
        "Div",
        "Scale",
        "AddConst",
        "Pow",
        "Exp",
        "Relu",
        "LeakyRelu",
        "Sigmoid",
        "Tanh",
        "AddRowBroadcast",
        "AddColBroadcast",
        "MulColBroadcast",
        "MulScalarNode",
        "LogSoftmax",
        "ConcatCols",
        "SliceCols",
        "GatherRows",
        "SumAll",
        "SumRows",
        "SumCols",
        "MaxStack",
    ];
    for v in row_local {
        assert!(seen.contains(v), "no generated program used {v}");
    }
    assert_eq!(densities.len(), 2, "MatMul left operands must be both zero-heavy and dense");
    assert!(grouped, "no generated program summed more than one column group");
}

#[test]
fn a_shared_row_cache_computes_each_kept_row_once_and_keeps_the_bits() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 4] {
        lasagne_par::set_threads(threads);
        for seed in 0..CASES {
            let (program, weights, taped) = random_program(seed, None, seed % 2 == 1);
            let n = taped.rows();
            // The kept instructions: the distinct operands SpMMs read (every
            // pool node is an `n`-row non-leaf).
            let kept: BTreeSet<usize> = program
                .ops
                .iter()
                .filter_map(|op| match op {
                    ProgramOp::SpMM { x, .. } => Some(*x),
                    _ => None,
                })
                .collect();
            let plan = RowPlan::new(&program, &weights).expect("row-local program plans");
            let mut cache = RowCache::new();
            let mut rng = Rng::seed_from_u64(seed ^ 0xCAC4E);
            let sink = TraceSink::start(true);
            let mut subsets: Vec<Vec<usize>> = (0..rng.range_usize(1, 6))
                .map(|_| {
                    if rng.next_f32() < 0.5 {
                        let len = rng.range_usize(1, n + 3);
                        (0..len).map(|_| rng.index(n)).collect()
                    } else {
                        let lo = rng.index(n);
                        (lo..rng.range_usize(lo + 1, n + 1)).collect()
                    }
                })
                .collect();
            subsets.push((0..n).collect());
            for rows in &subsets {
                let got = plan.eval_rows_cached(rows, &mut cache).expect("rows in range");
                assert_eq!(
                    bits(&got),
                    bits(&taped.gather_rows(rows)),
                    "seed {seed}, threads {threads}: subset {rows:?} through the cache"
                );
            }
            let sweep = sink.finish();
            let computed = sweep.counter("peval.rows_computed").unwrap_or(0);
            assert!(
                computed <= (kept.len() * n) as u64,
                "seed {seed}, threads {threads}: {computed} kept rows computed, but only {} exist",
                kept.len() * n
            );
            let sink = TraceSink::start(true);
            let again = plan.eval_rows_cached(&(0..n).collect::<Vec<_>>(), &mut cache);
            let again_report = sink.finish();
            assert_eq!(bits(&again.expect("rows in range")), bits(&taped), "seed {seed}: second pass");
            assert_eq!(
                again_report.counter("peval.rows_computed"),
                Some(0),
                "seed {seed}, threads {threads}: a second pass over all rows recomputed kept rows"
            );
            let reused = again_report.counter("peval.rows_reused").unwrap_or(0);
            assert_eq!(reused > 0, !kept.is_empty(), "seed {seed}: {reused} kept rows reused");
        }
    }
    lasagne_par::set_threads(1);
}

#[test]
fn a_kept_operand_nothing_demands_keeps_the_bits() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng::seed_from_u64(0x150);
    // The raw adjacency of a ring over the first `linked` nodes: no
    // self-loops, so every operator row of the isolated rest is empty.
    let (n, linked) = (12usize, 8u32);
    let ring: Vec<(u32, u32, f32)> =
        (0..linked).flat_map(|i| [(i, (i + 1) % linked, 1.0), ((i + 1) % linked, i, 1.0)]).collect();
    let adj = Rc::new(Csr::from_coo(n, n, &ring));
    let mut store = ParamStore::new();
    let w: Vec<ParamId> = [("w0", 3), ("w1", 3), ("w2", 4), ("w3", 4)]
        .into_iter()
        .map(|(name, rows)| store.add(name, tensor(&mut rng, rows, 4, 0.0)))
        .collect();
    // out = Â·(h·W2) + h·W3 with h = relu(Â·(X·W1) + X·W0): two kept
    // operands, and a skip path so isolated rows are not all zero.
    let mut tape = Tape::new();
    let x = tape.constant(tensor(&mut rng, n, 3, 0.0));
    let wn: Vec<NodeId> = w.iter().map(|&id| tape.param(id, &store)).collect();
    let xw1 = tape.matmul(x, wn[1]);
    let p1 = tape.spmm(Rc::clone(&adj), xw1);
    let xw0 = tape.matmul(x, wn[0]);
    let s = tape.add(p1, xw0);
    let h = tape.relu(s);
    let hw2 = tape.matmul(h, wn[2]);
    let p2 = tape.spmm(Rc::clone(&adj), hw2);
    let hw3 = tape.matmul(h, wn[3]);
    let out = tape.add(p2, hw3);
    let program = tape.export_program(&store, out).expect("eval-mode programs export");
    let weights: Vec<(String, Tensor)> =
        w.iter().map(|&id| (store.name(id).to_string(), store.value(id).clone())).collect();
    let sparse: Vec<&Csr> = program.sparse.iter().map(|m| &**m).collect();
    let values = eval_all(&program.ops, &sparse, &weights).expect("weights bound");
    let all = &values[program.output];
    let plan = RowPlan::new(&program, &weights).expect("row-local program plans");
    let isolated: Vec<usize> = (linked as usize..n).rev().collect();
    for threads in [1, 4] {
        lasagne_par::set_threads(threads);
        let mut cache = RowCache::new();
        for (name, rows) in [("fresh", &isolated), ("warm-up", &vec![0, 5, 3]), ("warm", &isolated)] {
            let sink = TraceSink::start(true);
            let got = plan.eval_rows_cached(rows, &mut cache).expect("rows in range");
            let report = sink.finish();
            assert_eq!(bits(&got), bits(&all.gather_rows(rows)), "{name} cache, threads {threads}");
            if rows == &isolated {
                let kept_rows = ["peval.rows_computed", "peval.rows_reused"].map(|c| report.counter(c));
                assert_eq!(kept_rows, [Some(0), Some(0)], "{name}: isolated rows demand no kept row");
            }
        }
        let fresh = plan.eval_rows(&isolated).expect("rows in range");
        assert_eq!(bits(&fresh), bits(&all.gather_rows(&isolated)), "eval_rows, threads {threads}");
    }
    lasagne_par::set_threads(1);
}

#[test]
fn dirty_schedule_matches_a_cold_evaluation_bitwise() {
    let mut incremental = 0;
    for threads in [1, 4] {
        lasagne_par::set_threads(threads);
        for seed in 0..CASES {
            let (mut program, weights, _) = random_program(seed, None, false);
            let sparse: Vec<&Csr> = program.sparse.iter().map(|m| &**m).collect();
            let mut values = eval_all(&program.ops, &sparse, &weights).expect("weights bound");
            let features = program
                .ops
                .iter()
                .position(|op| matches!(op, ProgramOp::Constant { .. }))
                .expect("features constant");
            let mut rng = Rng::seed_from_u64(seed ^ 0xD1E7);
            let ProgramOp::Constant { value } = &mut program.ops[features] else { unreachable!() };
            let rows: Vec<usize> =
                (0..rng.range_usize(1, 3)).map(|_| rng.index(value.rows())).collect();
            for &r in &rows {
                for v in value.row_mut(r) {
                    *v = if rng.next_f32() < 0.3 { 0.0 } else { rng.range_f32(-1.5, 1.5) };
                }
            }
            let src = Resident {
                ops: &program.ops,
                sparse: &sparse,
                weights: &weights,
                values: &values,
            };
            match dirty_rows(&src, &[(Operand::Op(features), rows)]) {
                Some(dirty) => {
                    eval_dirty(&program.ops, &sparse, &weights, &mut values, &dirty);
                    incremental += 1;
                }
                None => {
                    values = eval_all(&program.ops, &sparse, &weights).expect("weights bound")
                }
            }
            let cold = eval_all(&program.ops, &sparse, &weights).expect("weights bound");
            for (i, op) in program.ops.iter().enumerate() {
                assert_eq!(
                    bits(&values[i]),
                    bits(&cold[i]),
                    "seed {seed}, threads {threads}: instruction {i} ({})",
                    variant(op)
                );
            }
        }
    }
    lasagne_par::set_threads(1);
    assert!(
        incremental * 4 >= 2 * CASES as usize,
        "only {incremental} of {} mutations stayed incremental",
        2 * CASES
    );
}

#[test]
fn whole_graph_reductions_over_non_leaves_are_refused_typed() {
    for seed in 0..CASES {
        for name in ["sum_all", "sum_rows"] {
            let (program, weights, _) = random_program(seed, Some(name), false);
            match RowPlan::new(&program, &weights) {
                Err(PevalError::NotRowLocal { op, .. }) => assert_eq!(op, name, "seed {seed}"),
                Err(e) => panic!("seed {seed}: wrong refusal {e}"),
                Ok(_) => panic!("seed {seed}: {name} over a non-leaf must be refused"),
            }
        }
    }
}
