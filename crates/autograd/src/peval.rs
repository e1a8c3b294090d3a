//! Partitioned (out-of-core) evaluation of a frozen [`Program`]: the
//! **demand schedule** of the one evaluator (DESIGN.md §10, "One
//! evaluator"; §14).
//!
//! The resident schedule materializes **every** intermediate of the program
//! over all `N` graph nodes — O(graph) memory. [`RowPlan`] evaluates any
//! subset of output rows while materializing only the rows each
//! instruction actually contributes to them, and the answer is **bitwise**
//! equal to the corresponding rows of the resident evaluation. A backward
//! walk of [`row_deps`] from the requested rows (the `peval.walk` span)
//! assigns each instruction its demanded rows — row `r` itself, the SpMM
//! halo, the gathered index, or the whole operand — and a forward pass
//! runs the shared op kernel [`op_rows`] on exactly those rows, dropping
//! each intermediate after its last reader. The subset bitwise rules (SpMM
//! operand rows read in place, strict-`>` `MaxStack`) live in that kernel.
//!
//! Only an SpMM's demand crosses partitions: its halo. Every evaluation
//! runs through a [`RowCache`], which keeps the computed rows of every
//! instruction an SpMM reads (its *kept* instructions) in one `N × w`
//! tensor each. The walk drops the rows the cache holds from such an
//! instruction's demand before passing demand on to its inputs, so a
//! partition sweep through one cache computes each of those rows once, and
//! an SpMM reads them in place from the cache's tensor by their original
//! row index. By the subset rules a kept row is the row a later evaluation
//! would recompute, so the bits do not change. [`RowPlan::eval_rows`] is
//! one evaluation through a fresh cache. The counters `peval.rows_computed`
//! and `peval.rows_reused` count the rows of kept instructions an
//! evaluation computed and found in its cache.
//!
//! A whole-operand dependency on a graph-sized non-leaf — `SumAll`/`SumRows`
//! over activations, GAT's attention — is not row-local: plans over such
//! programs fail up front with [`PevalError::NotRowLocal`], and callers
//! evaluate resident instead (the GAT baseline does; GCN and all four
//! Lasagne aggregators plan cleanly, which the partition equivalence
//! suites assert).

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;

use crate::eval::{
    leaf_value, neighbors, op_rows, position, program_shapes, row_deps, sorted_distinct, Operand,
    Operands, RowDep,
};
use crate::export::{Program, ProgramOp};

/// Why a program cannot be row-locally evaluated, or an evaluation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PevalError {
    /// A `Param` leaf has no entry in the weight table.
    MissingParam(String),
    /// Instruction `node` (`op`) needs a full graph-sized non-leaf operand;
    /// the program must be evaluated resident.
    NotRowLocal { node: usize, op: &'static str },
    /// A requested output row is outside the program's output.
    RowOutOfRange { row: usize, rows: usize },
    /// The partition list passed to [`evaluate_program_partitioned`] does
    /// not cover every output row exactly once.
    BadPartition(String),
    /// Instruction `node` (`op`) does not fit its operands' shapes (see
    /// [`crate::program_shapes`]); no kernel has run.
    Shape { node: usize, op: &'static str, detail: String },
}

impl fmt::Display for PevalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PevalError::MissingParam(name) => write!(f, "program references unknown weight {name:?}"),
            PevalError::NotRowLocal { node, op } => write!(
                f,
                "instruction {node} ({op}) needs a full graph-sized operand; \
                 the program is not row-local — evaluate it resident"
            ),
            PevalError::RowOutOfRange { row, rows } => {
                write!(f, "requested output row {row} of {rows}")
            }
            PevalError::BadPartition(msg) => write!(f, "bad partition: {msg}"),
            PevalError::Shape { node, op, detail } => {
                write!(f, "instruction {node} ({op}) does not fit its operands: {detail}")
            }
        }
    }
}

impl std::error::Error for PevalError {}

/// Source of plan identities, so a [`RowCache`] knows whose rows it holds.
static NEXT_PLAN: AtomicU64 = AtomicU64::new(0);

/// The rows of one instruction the demand schedule computes.
#[derive(Debug, Clone)]
enum Demand {
    /// These rows (sorted and deduplicated, by one linear mark-and-scan,
    /// once all consumers merged in).
    Rows(Vec<usize>),
    /// Every row (a consumer reads the instruction whole).
    All,
}

/// One demand walk: what the forward pass computes and when it may drop it.
struct Walk {
    /// Rows of each instruction to compute (`None`: nothing to compute).
    demand: Vec<Option<Demand>>,
    /// The last instruction that reads each one, after which it is dropped.
    last_reader: Vec<Option<usize>>,
    /// Rows of kept instructions demanded and not held by the cache.
    computed: u64,
    /// Rows of kept instructions demanded and held by the cache.
    reused: u64,
}

/// A validated row-local evaluation plan for one program against one weight
/// table. Construction performs shape inference and rejects programs whose
/// output rows cannot be computed without materializing a graph-sized
/// intermediate; [`RowPlan::eval_rows`] then evaluates any output row
/// subset, bitwise equal to the resident path. The plan is immutable after
/// construction (evaluation takes `&self`), so callers can cache one plan
/// and sweep partitions — or threads — over it; rows kept across
/// evaluations live in a caller-owned [`RowCache`].
pub struct RowPlan<'a> {
    ops: Cow<'a, [ProgramOp]>,
    sparse: Vec<Cow<'a, Csr>>,
    weights: Cow<'a, [(String, Tensor)]>,
    output: usize,
    shapes: Vec<(usize, usize)>,
    /// The graph-sized non-leaves a reachable SpMM reads: the instructions
    /// a [`RowCache`] keeps rows of.
    kept: Vec<bool>,
    id: u64,
}

impl<'a> RowPlan<'a> {
    /// Plan `program` (convenience over [`RowPlan::from_parts`]).
    pub fn new(
        program: &'a Program,
        weights: &'a [(String, Tensor)],
    ) -> Result<RowPlan<'a>, PevalError> {
        let sparse: Vec<&Csr> = program.sparse.iter().map(|m| &**m).collect();
        RowPlan::from_parts(&program.ops, sparse, weights, program.output)
    }

    /// Plan a raw op list (the form `lasagne-serve` holds: no `Rc`s, so the
    /// plan stays `Send`-compatible).
    pub fn from_parts(
        ops: &'a [ProgramOp],
        sparse: Vec<&'a Csr>,
        weights: &'a [(String, Tensor)],
        output: usize,
    ) -> Result<RowPlan<'a>, PevalError> {
        let sparse = sparse.into_iter().map(Cow::Borrowed).collect();
        RowPlan::plan(Cow::Borrowed(ops), sparse, Cow::Borrowed(weights), output)
    }

    /// Plan an op list the plan owns, so a server can build it once at load
    /// and keep it for every later evaluation.
    pub fn owned(
        ops: Vec<ProgramOp>,
        sparse: Vec<Csr>,
        weights: Vec<(String, Tensor)>,
        output: usize,
    ) -> Result<RowPlan<'static>, PevalError> {
        let sparse = sparse.into_iter().map(Cow::Owned).collect();
        RowPlan::plan(Cow::Owned(ops), sparse, Cow::Owned(weights), output)
    }

    fn plan(
        ops: Cow<'a, [ProgramOp]>,
        sparse: Vec<Cow<'a, Csr>>,
        weights: Cow<'a, [(String, Tensor)]>,
        output: usize,
    ) -> Result<RowPlan<'a>, PevalError> {
        let sparse_shapes: Vec<(usize, usize)> = sparse.iter().map(|m| m.shape()).collect();
        let shapes = program_shapes(&ops, &sparse_shapes, |name| {
            weights.iter().find(|(n, _)| n == name).map(|(_, t)| t.shape())
        })?;
        let n = shapes[output].0;

        // Which instructions may be fully materialized inside an O(partition)
        // budget: leaves (resident in the program/weight table anyway), and
        // non-leaves that are not graph-row-sized and whose inputs are all
        // materializable themselves.
        let mut full_ok = vec![false; ops.len()];
        for (i, op) in ops.iter().enumerate() {
            full_ok[i] = op.is_leaf()
                || (shapes[i].0 != n && op.inputs().iter().all(|&j| full_ok[j]));
        }

        // Validate: every operand a reachable instruction reads whole must
        // be materializable. An operand a reachable SpMM reads that is not
        // (so it is never demanded whole) is kept.
        let mut reachable = vec![false; ops.len()];
        let mut stack = vec![output];
        while let Some(i) = stack.pop() {
            if !std::mem::replace(&mut reachable[i], true) {
                stack.extend(ops[i].inputs());
            }
        }
        let mut kept = vec![false; ops.len()];
        for (i, op) in ops.iter().enumerate().filter(|&(i, _)| reachable[i]) {
            for (operand, dep) in row_deps(op) {
                match (operand, dep) {
                    (Operand::Op(j), RowDep::Whole) if !full_ok[j] => {
                        return Err(PevalError::NotRowLocal { node: i, op: op.name() });
                    }
                    (Operand::Op(j), RowDep::Neighbors(_)) => kept[j] |= !full_ok[j],
                    _ => {}
                }
            }
        }
        let id = NEXT_PLAN.fetch_add(1, Ordering::Relaxed);
        Ok(RowPlan { ops, sparse, weights, output, shapes, kept, id })
    }

    /// Output shape `(rows, cols)` of the planned program.
    pub fn output_shape(&self) -> (usize, usize) {
        self.shapes[self.output]
    }

    /// The demand closure of output rows `rows`: walking [`row_deps`]
    /// backwards, the rows of each non-leaf instruction the forward pass
    /// must compute (leaves are served from the plan whole) and each
    /// instruction's last reader. A kept instruction's demand first loses
    /// the rows `cache` holds; one left with no rows is not computed and
    /// demands nothing of its inputs.
    fn walk(&self, rows: &[usize], cache: &RowCache) -> Walk {
        lasagne_obs::span!("peval.walk");
        let len = self.ops.len();
        let mut w = Walk {
            demand: vec![None; len],
            last_reader: vec![None; len],
            computed: 0,
            reused: 0,
        };
        w.demand[self.output] = Some(Demand::Rows(rows.to_vec()));
        for i in (0..len).rev() {
            let d = match w.demand[i].take() {
                Some(Demand::Rows(r)) => {
                    let mut r = sorted_distinct(self.shapes[i].0, r);
                    if self.kept[i] {
                        let demanded = r.len();
                        r.retain(|&row| !cache.holds(i, row));
                        w.computed += r.len() as u64;
                        w.reused += (demanded - r.len()) as u64;
                        // Every row held: its readers read the cache.
                        if r.is_empty() {
                            continue;
                        }
                    }
                    Demand::Rows(r)
                }
                Some(Demand::All) => Demand::All,
                None => continue,
            };
            for (operand, dep) in row_deps(&self.ops[i]) {
                let Operand::Op(j) = operand else { continue };
                if self.ops[j].is_leaf() {
                    continue;
                }
                w.last_reader[j].get_or_insert(i);
                let wanted = match (&d, dep) {
                    (Demand::All, _) | (_, RowDep::Whole) => {
                        w.demand[j] = Some(Demand::All);
                        continue;
                    }
                    (Demand::Rows(r), RowDep::Same) => r.clone(),
                    (Demand::Rows(r), RowDep::Neighbors(m)) => neighbors(&self.sparse[m], r),
                    (Demand::Rows(r), RowDep::Gathered(idx)) => r.iter().map(|&p| idx[p]).collect(),
                };
                match &mut w.demand[j] {
                    Some(Demand::Rows(have)) => have.extend(wanted),
                    Some(Demand::All) => {}
                    slot @ None => *slot = Some(Demand::Rows(wanted)),
                }
            }
            w.demand[i] = Some(d);
        }
        w
    }

    /// Evaluate the program restricted to output rows `rows` (any order,
    /// repeats allowed): [`RowPlan::eval_rows_cached`] through a fresh
    /// [`RowCache`], so it holds `N ×` the kept widths while it runs and
    /// keeps nothing afterwards. Returns a `rows.len() × cols` tensor whose
    /// row `r` is bitwise equal to row `rows[r]` of the resident evaluation.
    pub fn eval_rows(&self, rows: &[usize]) -> Result<Tensor, PevalError> {
        self.eval_rows_cached(rows, &mut RowCache::new())
    }

    /// [`RowPlan::eval_rows`] through `cache`: rows of kept instructions the
    /// cache holds are read, not recomputed, and the rows this evaluation
    /// computes are added to it. Same bits as `eval_rows`. A cache handed
    /// to a plan other than the one that filled it is emptied first.
    pub fn eval_rows_cached(
        &self,
        rows: &[usize],
        cache: &mut RowCache,
    ) -> Result<Tensor, PevalError> {
        let (out_rows, out_cols) = self.output_shape();
        if let Some(&row) = rows.iter().find(|&&r| r >= out_rows) {
            return Err(PevalError::RowOutOfRange { row, rows: out_rows });
        }
        if rows.is_empty() {
            return Ok(Tensor::zeros(0, out_cols));
        }
        cache.bind(self);
        let walk = self.walk(rows, cache);
        lasagne_obs::counter_add("peval.rows_computed", walk.computed);
        lasagne_obs::counter_add("peval.rows_reused", walk.reused);
        let mut vals: Vec<Option<Tensor>> = vec![None; self.ops.len()];
        for i in 0..self.ops.len() {
            let only = match (&walk.demand[i], self.ops[i].is_leaf()) {
                (Some(Demand::Rows(r)), false) => Some(r.as_slice()),
                (Some(Demand::All), false) => None,
                _ => continue,
            };
            let src = Demanded { plan: self, walk: &walk, vals: &vals, cache };
            let value = op_rows(&self.ops[i], i, only, &src);
            match only {
                Some(r) if self.kept[i] => cache.keep(i, self.shapes[i], r, &value),
                _ => vals[i] = Some(value),
            }
            for j in self.ops[i].inputs() {
                if walk.last_reader[j] == Some(i) {
                    vals[j] = None;
                }
            }
        }
        let src = Demanded { plan: self, walk: &walk, vals: &vals, cache };
        Ok(src.rows(self.output, Some(rows)).into_owned())
    }
}

/// Rows of a [`RowPlan`]'s kept instructions — the non-leaves its SpMMs
/// read — carried from one evaluation to the next. Each kept instruction
/// gets an `N × w` tensor on its first write and a per-row flag; a row's
/// flag is set only after its values are written, so a cache left behind
/// by a panicking evaluation holds only finished rows. Memory is bounded by
/// `N ×` the sum of the kept widths, however many evaluations share it.
#[derive(Default)]
pub struct RowCache {
    /// Identity of the plan the rows belong to.
    plan: Option<u64>,
    /// One slot per instruction: `0 × w` with no flags until its first
    /// write, `N × w` from then on.
    slots: Vec<Kept>,
}

/// The kept rows of one instruction.
struct Kept {
    value: Tensor,
    done: Vec<bool>,
}

impl RowCache {
    /// An empty cache; it allocates nothing until an evaluation writes to it.
    pub fn new() -> RowCache {
        RowCache::default()
    }

    /// Tie the cache to `plan`, emptying it if it holds another plan's rows.
    /// An empty slot allocates nothing.
    fn bind(&mut self, plan: &RowPlan<'_>) {
        if self.plan != Some(plan.id) {
            let empty = |&(_, w): &(usize, usize)| Kept {
                value: Tensor::zeros(0, w),
                done: Vec::new(),
            };
            self.slots = plan.shapes.iter().map(empty).collect();
            self.plan = Some(plan.id);
        }
    }

    fn holds(&self, i: usize, row: usize) -> bool {
        self.slots[i].done.get(row) == Some(&true)
    }

    /// Write `value`'s rows as rows `rows` of instruction `i` (shape
    /// `shape`), then flag them.
    fn keep(&mut self, i: usize, (n, w): (usize, usize), rows: &[usize], value: &Tensor) {
        let kept = &mut self.slots[i];
        if kept.done.is_empty() {
            *kept = Kept { value: Tensor::zeros(n, w), done: vec![false; n] };
        }
        for (k, &r) in rows.iter().enumerate() {
            debug_assert!(!kept.done[r], "peval: row {r} of instruction {i} kept twice");
            kept.value.row_mut(r).copy_from_slice(value.row(k));
        }
        for &r in rows {
            kept.done[r] = true;
        }
    }
}

/// The demand schedule's operands: leaves from the plan, kept instructions
/// from the cache, every other instruction from the rows (or whole value)
/// its demand computed.
struct Demanded<'p> {
    plan: &'p RowPlan<'p>,
    walk: &'p Walk,
    vals: &'p [Option<Tensor>],
    cache: &'p RowCache,
}

impl Operands for Demanded<'_> {
    /// A kept instruction answers with the cache's `N × w` tensor, whose
    /// held rows its readers read by their original index (`0 × w` while
    /// nothing was ever demanded of it).
    fn whole(&self, j: usize) -> &Tensor {
        if self.plan.kept[j] {
            return &self.cache.slots[j].value;
        }
        leaf_value(&self.plan.ops[j], &self.plan.weights)
            .expect("weights are checked at plan time")
            .unwrap_or_else(|| self.vals[j].as_ref().expect("peval: whole operand evaluated"))
    }

    fn sparse(&self, m: usize) -> &Csr {
        &self.plan.sparse[m]
    }

    fn rows(&self, j: usize, rows: Option<&[usize]>) -> Cow<'_, Tensor> {
        match (rows, &self.walk.demand[j], &self.vals[j]) {
            // A row-aligned consumer usually wants exactly the rows computed.
            (Some(wanted), Some(Demand::Rows(union)), Some(v)) if wanted == union => {
                Cow::Borrowed(v)
            }
            (Some(wanted), Some(Demand::Rows(union)), Some(v)) => {
                let at: Vec<usize> = wanted.iter().map(|&r| position(union, r)).collect();
                Cow::Owned(v.gather_rows(&at))
            }
            (Some(wanted), ..) => Cow::Owned(self.whole(j).gather_rows(wanted)),
            (None, ..) => Cow::Borrowed(self.whole(j)),
        }
    }
}

/// Evaluate `program` over a full partition sweep: each part's rows are
/// computed with [`RowPlan::eval_rows_cached`] through one [`RowCache`], so
/// each kept row is computed once, and scattered into the `N × cols`
/// output, which is bitwise equal to the resident evaluation. `parts` must
/// cover every output row exactly once (the `partition_bfs` contract).
pub fn evaluate_program_partitioned(
    program: &Program,
    weights: &[(String, Tensor)],
    parts: &[Vec<usize>],
) -> Result<Tensor, PevalError> {
    let plan = RowPlan::new(program, weights)?;
    let (n, cols) = plan.output_shape();
    let mut covered = vec![false; n];
    for part in parts {
        for &r in part {
            if r >= n {
                return Err(PevalError::BadPartition(format!("row {r} outside 0..{n}")));
            }
            if std::mem::replace(&mut covered[r], true) {
                return Err(PevalError::BadPartition(format!("row {r} in two parts")));
            }
        }
    }
    if let Some(missing) = covered.iter().position(|&c| !c) {
        return Err(PevalError::BadPartition(format!("row {missing} in no part")));
    }
    let mut out = Tensor::zeros(n, cols);
    let mut cache = RowCache::new();
    for part in parts {
        let rows = plan.eval_rows_cached(part, &mut cache)?;
        for (local, &r) in part.iter().enumerate() {
            out.as_mut_slice()[r * cols..(r + 1) * cols].copy_from_slice(rows.row(local));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParamStore, Tape};
    use lasagne_tensor::TensorRng;
    use std::rc::Rc;

    /// A GCN-ish program: relu(Â·(X·W) + b) · W2 → log_softmax, built
    /// straight on a tape so the test owns every shape.
    fn toy_program(n: usize, seed: u64) -> (Program, Vec<(String, Tensor)>) {
        let mut rng = TensorRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let w = store.add("w", rng.glorot_uniform(6, 4));
        let b = store.add("b", rng.uniform_tensor(1, 4, -0.1, 0.1));
        let w2 = store.add("w2", rng.glorot_uniform(4, 3));
        // A ring adjacency normalized-ish (just weights, structure matters).
        let coo: Vec<(u32, u32, f32)> = (0..n as u32)
            .flat_map(|i| {
                let n = n as u32;
                [(i, i, 0.5f32), (i, (i + 1) % n, 0.25), (i, (i + n - 1) % n, 0.25)]
            })
            .collect();
        let a = Rc::new(Csr::from_coo(n, n, &coo));
        let x = rng.uniform_tensor(n, 6, -1.0, 1.0);

        let mut tape = Tape::new();
        let xn = tape.constant(x);
        let wn = tape.param(w, &store);
        let bn = tape.param(b, &store);
        let w2n = tape.param(w2, &store);
        let xw = tape.matmul(xn, wn);
        let prop = tape.spmm(Rc::clone(&a), xw);
        let biased = tape.add_row_broadcast(prop, bn);
        let act = tape.relu(biased);
        let logits = tape.matmul(act, w2n);
        let out = tape.log_softmax(logits);
        let program = tape.export_program(&store, out).unwrap();
        let weights: Vec<(String, Tensor)> = (0..store.len())
            .map(|i| {
                let id = crate::ParamId::from_index(i);
                (store.name(id).to_string(), store.value(id).clone())
            })
            .collect();
        (program, weights)
    }

    #[test]
    fn row_subsets_match_resident_bitwise() {
        let (program, weights) = toy_program(30, 1);
        // Resident reference via the plan itself at k=1 plus a tape replay
        // is circular; instead evaluate all rows in one go (the same
        // whole-operand kernels as resident) and compare subsets.
        let plan = RowPlan::new(&program, &weights).unwrap();
        let all: Vec<usize> = (0..30).collect();
        let resident = plan.eval_rows(&all).unwrap();
        for rows in [vec![0usize], vec![7, 3, 29], (10..20).collect::<Vec<_>>()] {
            let got = plan.eval_rows(&rows).unwrap();
            for (local, &r) in rows.iter().enumerate() {
                let gb: Vec<u32> = got.row(local).iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = resident.row(r).iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "row {r}");
            }
        }
    }

    #[test]
    fn partition_sweep_matches_and_validates_cover() {
        let (program, weights) = toy_program(24, 2);
        let plan = RowPlan::new(&program, &weights).unwrap();
        let all: Vec<usize> = (0..24).collect();
        let resident = plan.eval_rows(&all).unwrap();
        let parts: Vec<Vec<usize>> = vec![(0..8).collect(), (8..16).collect(), (16..24).collect()];
        let swept = evaluate_program_partitioned(&program, &weights, &parts).unwrap();
        let gb: Vec<u32> = swept.as_slice().iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u32> = resident.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(gb, wb);
        // Bad covers are typed.
        let overlapping = vec![(0..9).collect::<Vec<_>>(), (8..24).collect()];
        assert!(matches!(
            evaluate_program_partitioned(&program, &weights, &overlapping),
            Err(PevalError::BadPartition(_))
        ));
        let missing = vec![(0..8).collect::<Vec<_>>(), (9..24).collect()];
        assert!(matches!(
            evaluate_program_partitioned(&program, &weights, &missing),
            Err(PevalError::BadPartition(_))
        ));
    }

    #[test]
    fn a_cache_handed_to_another_plan_starts_over() {
        let (small, small_w) = toy_program(12, 5);
        let (large, large_w) = toy_program(40, 6);
        let (a, b) = (RowPlan::new(&small, &small_w).unwrap(), RowPlan::new(&large, &large_w).unwrap());
        let mut cache = RowCache::new();
        for (plan, program, weights, rows) in [
            (&a, &small, &small_w, vec![3, 1]),
            (&b, &large, &large_w, vec![39, 2, 20]),
            (&a, &small, &small_w, vec![0, 11, 3]),
        ] {
            let got = plan.eval_rows_cached(&rows, &mut cache).unwrap();
            let sparse: Vec<&Csr> = program.sparse.iter().map(|m| &**m).collect();
            let resident = crate::eval_all(&program.ops, &sparse, weights).unwrap();
            let want = resident[program.output].gather_rows(&rows);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "rows {rows:?}");
        }
    }

    #[test]
    fn missing_weight_and_bad_row_are_typed() {
        let (program, weights) = toy_program(10, 3);
        assert!(matches!(
            RowPlan::new(&program, &weights[1..]),
            Err(PevalError::MissingParam(_))
        ));
        let plan = RowPlan::new(&program, &weights).unwrap();
        assert_eq!(
            plan.eval_rows(&[10]).unwrap_err(),
            PevalError::RowOutOfRange { row: 10, rows: 10 }
        );
    }

    #[test]
    fn graph_sized_reduction_is_rejected_up_front() {
        let mut rng = TensorRng::seed_from_u64(4);
        let store = ParamStore::new();
        let mut tape = Tape::new();
        let x = tape.constant(rng.uniform_tensor(12, 3, -1.0, 1.0));
        // A reduction over a resident *leaf* is row-local (the leaf lives in
        // the program anyway); over a graph-sized non-leaf it is not.
        let h = tape.relu(x);
        let s = tape.sum_all(h);
        let scaled = tape.mul_scalar_node(x, s);
        let program = tape.export_program(&store, scaled).unwrap();
        assert!(matches!(
            RowPlan::new(&program, &[]),
            Err(PevalError::NotRowLocal { .. })
        ));
    }
}
