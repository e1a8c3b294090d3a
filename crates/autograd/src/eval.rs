//! One evaluator for exported [`Program`](crate::Program)s (DESIGN.md §10,
//! "One evaluator").
//!
//! Two functions state the semantics of every [`ProgramOp`] once:
//!
//! * [`op_rows`], the **op kernel**: any set of an op's output rows from
//!   its operands, calling the exact kernels the tape constructors call;
//! * [`row_deps`], the **dependency rule**: which operand rows each output
//!   row reads — the same row, the sparse operator's neighbours, the
//!   gathered index, or the whole operand.
//!
//! Every evaluation mode is a *schedule* over the two: it decides which rows
//! of each op to compute and where the operands come from ([`Operands`]).
//! The resident schedule ([`eval_all`]) computes all rows once; the demand
//! schedule ([`crate::RowPlan`]) walks `row_deps` backwards from requested
//! rows; the dirty schedule ([`dirty_rows`] + [`eval_dirty`]) walks it
//! forwards from the operator rows a graph mutation changed.
//!
//! A subset of rows is bitwise equal to the same rows of a whole
//! evaluation because every kernel computes each output row from its own
//! operand rows alone (a subset `MatMul` is the same dense product over the
//! gathered left rows), plus two rules, both kept in [`op_rows`]:
//!
//! * a subset `SpMM` multiplies the monotone column slice
//!   `m.slice(rows, cols)` — `cols` the sorted union of those rows'
//!   neighbours — by exactly those operand rows; with the
//!   ascending-from-+0.0 accumulation contract (DESIGN.md §8) each row sums
//!   the same products in the same order;
//! * `MaxStack` folds with strict `>` from the first part, like
//!   `Tape::max_stack`, so ties keep the earliest layer.

use std::borrow::Cow;

use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;

use crate::export::ProgramOp;
use crate::ops_graph::gat_attention;
use crate::peval::PevalError;

/// An operand of a program op: an earlier instruction, or an entry of the
/// program's sparse table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Instruction index.
    Op(usize),
    /// Sparse-table index.
    Sparse(usize),
}

/// Which rows of one operand output row `r` of an op reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowDep<'a> {
    /// Row `r`.
    Same,
    /// Rows `m.row_indices(r)` of sparse operator `m` — the halo.
    Neighbors(usize),
    /// Row `idx[r]`.
    Gathered(&'a [usize]),
    /// Every row.
    Whole,
}

/// The dependency rule: for each operand of `op`, which of its rows an
/// output row reads. Leaves read nothing.
pub fn row_deps(op: &ProgramOp) -> Vec<(Operand, RowDep<'_>)> {
    use Operand::{Op, Sparse};
    use ProgramOp::*;
    use RowDep::*;
    match op {
        Constant { .. } | Param { .. } => Vec::new(),
        MatMul { a, b } => vec![(Op(*a), Same), (Op(*b), Whole)],
        SpMM { m, x } => vec![(Sparse(*m), Same), (Op(*x), Neighbors(*m))],
        Add { a, b }
        | Sub { a, b }
        | Mul { a, b }
        | Div { a, b }
        | AddColBroadcast { x: a, c: b }
        | MulColBroadcast { x: a, c: b } => vec![(Op(*a), Same), (Op(*b), Same)],
        AddRowBroadcast { x, b: w } | MulScalarNode { x, s: w } => {
            vec![(Op(*x), Same), (Op(*w), Whole)]
        }
        Scale { x, .. }
        | AddConst { x, .. }
        | Pow { x, .. }
        | Exp { x }
        | Relu { x }
        | LeakyRelu { x, .. }
        | Sigmoid { x }
        | Tanh { x }
        | LogSoftmax { x }
        | SliceCols { x, .. }
        | SumCols { x, .. } => vec![(Op(*x), Same)],
        ConcatCols { parts } | MaxStack { parts } => parts.iter().map(|&p| (Op(p), Same)).collect(),
        GatherRows { x, idx } => vec![(Op(*x), Gathered(idx))],
        SumAll { x } | SumRows { x } => vec![(Op(*x), Whole)],
        GatAggregate { adj, z, ssrc, sdst, .. } => {
            vec![(Sparse(*adj), Whole), (Op(*z), Whole), (Op(*ssrc), Whole), (Op(*sdst), Whole)]
        }
    }
}

/// A `MatMul` right operand a schedule supplies k-panel by k-panel instead
/// of as a tensor (the resident schedule's quantized weights; see
/// [`Tensor::matmul_packed_b`]).
pub trait PackedOperand {
    /// `(rows, cols)` of the unpacked matrix.
    fn shape(&self) -> (usize, usize);
    /// Fill `buf` (`(r1 - r0) × cols`, row-major) with rows `r0..r1`.
    fn pack(&self, r0: usize, r1: usize, buf: &mut [f32]);
}

/// Where a schedule's operand values come from.
pub trait Operands {
    /// Operand `j`, whole (a leaf resolves to the program or weight table).
    fn whole(&self, j: usize) -> &Tensor;

    /// Sparse operator `m`.
    fn sparse(&self, m: usize) -> &Csr;

    /// Rows `rows` of operand `j`, in that order (`None`: all of them).
    fn rows(&self, j: usize, rows: Option<&[usize]>) -> Cow<'_, Tensor> {
        match rows {
            None => Cow::Borrowed(self.whole(j)),
            Some(r) => Cow::Owned(self.whole(j).gather_rows(r)),
        }
    }

    /// The operand rows a subset of SpMM instruction `i` over sparse
    /// operator `m` reads: the sorted union of `m`'s column indices over
    /// `rows`. A schedule that already walked them may hand them back.
    fn halo(&self, _i: usize, m: usize, rows: &[usize]) -> Cow<'_, [usize]> {
        Cow::Owned(neighbors(self.sparse(m), rows))
    }

    /// A packed binding of weight slot `j`, if the schedule keeps it packed.
    fn packed(&self, _j: usize) -> Option<&dyn PackedOperand> {
        None
    }
}

/// The value of leaf `op` — a `Constant`'s tensor or the named weight —
/// and `None` for computed ops.
pub fn leaf_value<'a>(
    op: &'a ProgramOp,
    weights: &'a [(String, Tensor)],
) -> Result<Option<&'a Tensor>, PevalError> {
    match op {
        ProgramOp::Constant { value } => Ok(Some(value)),
        ProgramOp::Param { name } => weights
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| Some(t))
            .ok_or_else(|| PevalError::MissingParam(name.clone())),
        _ => Ok(None),
    }
}

/// Sorted union of the column indices of `m`'s rows `rows`.
pub(crate) fn neighbors(m: &Csr, rows: &[usize]) -> Vec<usize> {
    let mut cols: Vec<usize> =
        rows.iter().flat_map(|&r| m.row_indices(r)).map(|&c| c as usize).collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// The op kernel: rows `rows` (any order, repeats allowed; `None` = all)
/// of instruction `i`'s output, bitwise equal to the same rows of its whole
/// value. Operands come from `src`; a leaf's rows are its own.
pub fn op_rows(ops: &[ProgramOp], i: usize, rows: Option<&[usize]>, src: &impl Operands) -> Tensor {
    use ProgramOp::*;
    // Operand `j` at the requested rows (row-aligned ops).
    let at = |j: usize| src.rows(j, rows);
    // Ops that read an operand whole compute every row, then keep the
    // requested ones.
    let pick = |t: Tensor| match rows {
        None => t,
        Some(r) => t.gather_rows(r),
    };
    match &ops[i] {
        Constant { .. } | Param { .. } => at(i).into_owned(),
        MatMul { a, b } => match (rows, src.packed(*b)) {
            (None, Some(q)) => {
                let (k, m) = q.shape();
                src.whole(*a).matmul_packed_b(k, m, |r0, r1, buf| q.pack(r0, r1, buf))
            }
            _ => at(*a).matmul(src.whole(*b)),
        },
        SpMM { m, x } => match rows {
            None => src.sparse(*m).spmm(src.whole(*x)),
            Some(r) => {
                let cols = src.halo(i, *m, r);
                src.sparse(*m).slice(r, &cols).spmm(&src.rows(*x, Some(&cols)))
            }
        },
        Add { a, b } => at(*a).add(&at(*b)),
        Sub { a, b } => at(*a).sub(&at(*b)),
        Mul { a, b } => at(*a).mul(&at(*b)),
        Div { a, b } => at(*a).div(&at(*b)),
        Scale { x, alpha } => at(*x).scale(*alpha),
        AddConst { x, c } => at(*x).add_scalar(*c),
        Pow { x, p, eps } => at(*x).map(|t| (t + eps).powf(*p)),
        Exp { x } => at(*x).map(f32::exp),
        Relu { x } => at(*x).relu(),
        LeakyRelu { x, slope } => at(*x).leaky_relu(*slope),
        Sigmoid { x } => at(*x).sigmoid(),
        Tanh { x } => at(*x).tanh(),
        AddRowBroadcast { x, b } => at(*x).add_row_broadcast(src.whole(*b)),
        AddColBroadcast { x, c } => at(*x).add_col_broadcast(&at(*c)),
        MulColBroadcast { x, c } => at(*x).mul_col_broadcast(&at(*c)),
        MulScalarNode { x, s } => at(*x).scale(src.whole(*s).get(0, 0)),
        LogSoftmax { x } => at(*x).log_softmax_rows(),
        ConcatCols { parts } => {
            let parts: Vec<Cow<'_, Tensor>> = parts.iter().map(|&p| at(p)).collect();
            Tensor::concat_cols(&parts.iter().map(|p| &**p).collect::<Vec<_>>())
        }
        SliceCols { x, lo, hi } => at(*x).slice_cols(*lo, *hi),
        GatherRows { x, idx } => match rows {
            None => src.rows(*x, Some(idx)),
            Some(r) => src.rows(*x, Some(&r.iter().map(|&p| idx[p]).collect::<Vec<_>>())),
        }
        .into_owned(),
        SumAll { x } => pick(Tensor::full(1, 1, src.whole(*x).sum())),
        SumRows { x } => pick(src.whole(*x).sum_rows()),
        SumCols { x, groups } => at(*x).sum_col_groups(*groups),
        MaxStack { parts } => {
            let mut acc = at(parts[0]).into_owned();
            for &p in &parts[1..] {
                for (best, &cand) in acc.as_mut_slice().iter_mut().zip(at(p).as_slice()) {
                    if cand > *best {
                        *best = cand;
                    }
                }
            }
            acc
        }
        GatAggregate { adj, z, ssrc, sdst, slope } => {
            let (z, ssrc, sdst) = (src.whole(*z), src.whole(*ssrc), src.whole(*sdst));
            pick(gat_attention(src.sparse(*adj), z, ssrc, sdst, *slope).out)
        }
    }
}

/// Operands held whole, as the resident and dirty schedules hold them:
/// leaves from the program and weight table, every other instruction's
/// full value from `values`.
pub struct Resident<'a> {
    /// The program's instructions.
    pub ops: &'a [ProgramOp],
    /// The program's sparse table.
    pub sparse: &'a [&'a Csr],
    /// Weight table the `Param` leaves bind to by name.
    pub weights: &'a [(String, Tensor)],
    /// `MatMul` right operands kept packed, by `Param` slot.
    pub packed: &'a [(usize, &'a dyn PackedOperand)],
    /// One value per instruction (leaves hold a placeholder).
    pub values: &'a [Tensor],
}

impl Operands for Resident<'_> {
    fn whole(&self, j: usize) -> &Tensor {
        leaf_value(&self.ops[j], self.weights)
            .expect("weights are checked before evaluation")
            .unwrap_or(&self.values[j])
    }

    fn sparse(&self, m: usize) -> &Csr {
        self.sparse[m]
    }

    fn packed(&self, j: usize) -> Option<&dyn PackedOperand> {
        self.packed.iter().find(|(slot, _)| *slot == j).map(|(_, q)| *q)
    }
}

/// The resident schedule: every row of every instruction, once, in program
/// order. Returns one value per instruction; leaves get an empty
/// placeholder (read them through [`Resident`]). Fails typed if a `Param`
/// has no weight.
pub fn eval_all(
    ops: &[ProgramOp],
    sparse: &[&Csr],
    weights: &[(String, Tensor)],
    packed: &[(usize, &dyn PackedOperand)],
) -> Result<Vec<Tensor>, PevalError> {
    for op in ops {
        leaf_value(op, weights)?;
    }
    let mut values: Vec<Tensor> = Vec::with_capacity(ops.len());
    for i in 0..ops.len() {
        let value = if ops[i].is_leaf() {
            Tensor::zeros(0, 0)
        } else {
            op_rows(ops, i, None, &Resident { ops, sparse, weights, packed, values: &values })
        };
        values.push(value);
    }
    Ok(values)
}

/// The dirty schedule's closure: walking [`row_deps`] forwards from
/// `changed` — the rows of sparse operators (or leaves) a mutation changed —
/// the sorted rows of each instruction whose value may now differ.
///
/// SpMM reads its halo through the operator's structure, which is
/// symmetric, so the output rows that read operand row `j` are
/// `m.row_indices(j)`. `None` means a full recompute: some op reads a changed
/// operand whole, or more than half of an op's rows are dirty (patching
/// them would cost more than a clean sweep).
pub fn dirty_rows(
    src: &Resident<'_>,
    changed: &[(Operand, Vec<usize>)],
) -> Option<Vec<Vec<usize>>> {
    let seeds = |o: Operand| {
        changed.iter().filter(move |(c, _)| *c == o).flat_map(|(_, r)| r.iter().copied())
    };
    let sparse_seeds: Vec<Vec<usize>> =
        (0..src.sparse.len()).map(|m| seeds(Operand::Sparse(m)).collect()).collect();
    let mut dirty: Vec<Vec<usize>> = Vec::with_capacity(src.ops.len());
    for (i, op) in src.ops.iter().enumerate() {
        let mut d: Vec<usize> = seeds(Operand::Op(i)).collect();
        for (operand, dep) in row_deps(op) {
            let from = match operand {
                Operand::Op(j) => &dirty[j],
                Operand::Sparse(m) => &sparse_seeds[m],
            };
            if from.is_empty() {
                continue;
            }
            match dep {
                RowDep::Same => d.extend(from),
                RowDep::Neighbors(m) => {
                    for &j in from {
                        d.extend(src.sparse[m].row_indices(j).iter().map(|&c| c as usize));
                    }
                }
                RowDep::Gathered(idx) => {
                    d.extend((0..idx.len()).filter(|&p| from.binary_search(&idx[p]).is_ok()))
                }
                RowDep::Whole => return None,
            }
        }
        d.sort_unstable();
        d.dedup();
        if d.len() * 2 > src.whole(i).rows().max(1) {
            return None;
        }
        dirty.push(d);
    }
    Some(dirty)
}

/// The dirty schedule's patch: recompute each instruction's `dirty` rows
/// in program order — so operands are patched before their consumers read
/// them — and write them into `values`.
pub fn eval_dirty(
    ops: &[ProgramOp],
    sparse: &[&Csr],
    weights: &[(String, Tensor)],
    values: &mut [Tensor],
    dirty: &[Vec<usize>],
) {
    for (i, rows) in dirty.iter().enumerate() {
        // A changed leaf was changed in place by the caller.
        if rows.is_empty() || ops[i].is_leaf() {
            continue;
        }
        let src = Resident { ops, sparse, weights, packed: &[], values };
        let patch = op_rows(ops, i, Some(rows), &src);
        for (r, &row) in rows.iter().enumerate() {
            values[i].row_mut(row).copy_from_slice(patch.row(r));
        }
    }
}
