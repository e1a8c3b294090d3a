//! One evaluator for exported [`Program`](crate::Program)s (DESIGN.md §10,
//! "One evaluator").
//!
//! Three functions state the semantics of every [`ProgramOp`] once:
//!
//! * [`op_rows`], the **op kernel**: any set of an op's output rows from
//!   its operands;
//! * [`row_deps`], the **dependency rule**: which operand rows each output
//!   row reads — the same row, the sparse operator's neighbours, the
//!   gathered index, or the whole operand;
//! * [`program_shapes`], the **shape rule**: each op's output shape, and
//!   whether its operands meet its kernel's preconditions. A program read
//!   from disk passes it before any kernel runs, so a malformed one is a
//!   typed error rather than a kernel's shape panic.
//!
//! Every evaluation mode is a *schedule* over the first two: it decides
//! which rows of each op to compute and where the operands come from
//! ([`Operands`]).
//! The training tape computes all rows of each op as it is recorded, its
//! own nodes the operands; the resident schedule ([`eval_all`]) computes
//! all rows of a program once; the demand schedule ([`crate::RowPlan`])
//! walks `row_deps` backwards from requested rows; the dirty schedule
//! ([`dirty_rows`] + [`eval_dirty`]) walks it forwards from the operator
//! rows a graph mutation changed.
//!
//! A subset of rows is bitwise equal to the same rows of a whole
//! evaluation because every kernel computes each output row from its own
//! operand rows alone (a subset `MatMul` is the same dense product over the
//! gathered left rows), plus two rules, both kept in [`op_rows`]:
//!
//! * a subset `SpMM` runs `Csr::spmm_rows` on the operand its schedule
//!   holds whole ([`Operands::whole`]: a leaf, a resident value, or the
//!   demand schedule's `N × w` cached tensor): each requested operator row
//!   reads its operand rows in place, by their original index — no
//!   operator slice, no gathered copy. With the ascending-from-+0.0
//!   accumulation contract (DESIGN.md §8) each row sums the same products
//!   in the same order as the whole `spmm`;
//! * `MaxStack` folds with strict `>` from the first part, so ties keep
//!   the earliest layer.

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

/// The shape rule: every instruction's output shape, after checking that
/// its operands meet its kernel's preconditions. Operands must be earlier
/// instructions and sparse refs must be in the table; `MatMul` inner
/// dimensions agree; the `SpMM` operator's columns equal the operand's
/// rows; element-wise pairs and `MaxStack` parts share one shape; broadcast
/// operands are `1 × D` (row), `N × 1` (column) or `1 × 1` (scalar);
/// `ConcatCols` parts share their row count; `SliceCols` bounds and
/// `GatherRows` indices are in range; `SumCols` groups divide the columns;
/// `GatAggregate` is over a square operator with `N × 1` score halves.
///
/// `sparse` holds each sparse operator's shape and `param` a weight's shape
/// by name. Fails with [`PevalError::Shape`] naming the first offending
/// instruction, or [`PevalError::MissingParam`].
pub fn program_shapes(
    ops: &[ProgramOp],
    sparse: &[(usize, usize)],
    param: impl Fn(&str) -> Option<(usize, usize)>,
) -> Result<Vec<(usize, usize)>, PevalError> {
    use ProgramOp::*;
    let mut shapes: Vec<(usize, usize)> = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let bad = |detail: String| PevalError::Shape { node: i, op: op.name(), detail };
        let ensure = |ok: bool, detail: &dyn Fn() -> String| match ok {
            true => Ok(()),
            false => Err(bad(detail())),
        };
        let s = |j: usize| {
            let detail = || bad(format!("operand {j} is not an earlier instruction"));
            shapes.get(j).copied().ok_or_else(detail)
        };
        let m = |k: usize| {
            let detail = || bad(format!("sparse operator {k} is not in the table"));
            sparse.get(k).copied().ok_or_else(detail)
        };
        let same = |parts: &[usize]| -> Result<(usize, usize), PevalError> {
            let first = s(*parts.first().ok_or_else(|| bad("no operands".into()))?)?;
            for &p in &parts[1..] {
                let sp = s(p)?;
                ensure(sp == first, &|| format!("operand {p} is {sp:?}, not {first:?}"))?;
            }
            Ok(first)
        };
        let shape = match op {
            Constant { value } => value.shape(),
            Param { name } => param(name).ok_or_else(|| PevalError::MissingParam(name.clone()))?,
            MatMul { a, b } => {
                let (sa, sb) = (s(*a)?, s(*b)?);
                ensure(sa.1 == sb.0, &|| format!("{sa:?} · {sb:?}: inner dimensions differ"))?;
                (sa.0, sb.1)
            }
            SpMM { m: k, x } => {
                let (sm, sx) = (m(*k)?, s(*x)?);
                ensure(sm.1 == sx.0, &|| format!("operator {sm:?} · operand {sx:?}"))?;
                (sm.0, sx.1)
            }
            Add { a, b } | Sub { a, b } | Mul { a, b } | Div { a, b } => same(&[*a, *b])?,
            Scale { x, .. }
            | AddConst { x, .. }
            | Pow { x, .. }
            | Exp { x }
            | Relu { x }
            | LeakyRelu { x, .. }
            | Sigmoid { x }
            | Tanh { x }
            | LogSoftmax { x } => s(*x)?,
            AddRowBroadcast { x, b } => {
                let (sx, sb) = (s(*x)?, s(*b)?);
                ensure(sb == (1, sx.1), &|| format!("row {sb:?} for a {sx:?} operand"))?;
                sx
            }
            AddColBroadcast { x, c } | MulColBroadcast { x, c } => {
                let (sx, sc) = (s(*x)?, s(*c)?);
                ensure(sc == (sx.0, 1), &|| format!("column {sc:?} for a {sx:?} operand"))?;
                sx
            }
            MulScalarNode { x, s: k } => {
                let (sx, sk) = (s(*x)?, s(*k)?);
                ensure(sk == (1, 1), &|| format!("scalar operand is {sk:?}"))?;
                sx
            }
            ConcatCols { parts } => {
                let mut cols = 0usize;
                let rows = s(*parts.first().ok_or_else(|| bad("no operands".into()))?)?.0;
                for &p in parts {
                    let sp = s(p)?;
                    ensure(sp.0 == rows, &|| format!("operand {p} has {} rows, not {rows}", sp.0))?;
                    cols += sp.1;
                }
                (rows, cols)
            }
            SliceCols { x, lo, hi } => {
                let sx = s(*x)?;
                ensure(lo <= hi && *hi <= sx.1, &|| format!("columns {lo}..{hi} of {sx:?}"))?;
                (sx.0, hi - lo)
            }
            GatherRows { x, idx } => {
                let sx = s(*x)?;
                if let Some(&r) = idx.iter().find(|&&r| r >= sx.0) {
                    return Err(bad(format!("row {r} of {sx:?}")));
                }
                (idx.len(), sx.1)
            }
            SumAll { x } => {
                s(*x)?;
                (1, 1)
            }
            SumRows { x } => (1, s(*x)?.1),
            SumCols { x, groups } => {
                let sx = s(*x)?;
                ensure(*groups > 0 && sx.1.is_multiple_of(*groups), &|| {
                    format!("{} columns in {groups} groups", sx.1)
                })?;
                (sx.0, *groups)
            }
            MaxStack { parts } => same(parts)?,
            GatAggregate { adj, z, ssrc, sdst, .. } => {
                let (sa, sz) = (m(*adj)?, s(*z)?);
                let (src, dst) = (s(*ssrc)?, s(*sdst)?);
                let n = sa.0;
                ensure(sa.1 == n && sz.0 == n && src == (n, 1) && dst == (n, 1), &|| {
                    format!("operator {sa:?}, z {sz:?}, scores {src:?} and {dst:?}")
                })?;
                sz
            }
        };
        shapes.push(shape);
    }
    Ok(shapes)
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

/// The sorted distinct values of `rows`, all below `n`: one mark each in a
/// bitset over `0..n`, then one scan of the marks — linear, no sort.
pub(crate) fn sorted_distinct(n: usize, rows: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut marks = vec![0u64; n.div_ceil(64)];
    for r in rows {
        marks[r / 64] |= 1 << (r % 64);
    }
    let mut out = Vec::new();
    for (w, &word) in marks.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
    out
}

/// Sorted union of the column indices of `m`'s rows `rows`.
pub(crate) fn neighbors(m: &Csr, rows: &[usize]) -> Vec<usize> {
    sorted_distinct(m.cols(), rows.iter().flat_map(|&r| m.row_indices(r)).map(|&c| c as usize))
}

/// Position of row `row` in the sorted row list `rows`. Demand-walk
/// invariant: every row a consumer reads was propagated into its
/// producer's list, so the lookup cannot miss.
pub(crate) fn position(rows: &[usize], row: usize) -> usize {
    rows.binary_search(&row).expect("demanded row missing from its producer's rows")
}

/// The op kernel: rows `rows` (any order, repeats allowed; `None` = all)
/// of instruction `i`'s output, bitwise equal to the same rows of its whole
/// value. Operands come from `src`; a leaf's rows are its own.
pub fn op_rows(op: &ProgramOp, i: usize, rows: Option<&[usize]>, src: &impl Operands) -> Tensor {
    use ProgramOp::*;
    // Operand `j` at the requested rows (row-aligned ops).
    let at = |j: usize| src.rows(j, rows);
    // Ops that read an operand whole compute every row, then keep the
    // requested ones.
    let pick = |t: Tensor| match rows {
        None => t,
        Some(r) => t.gather_rows(r),
    };
    match op {
        Constant { .. } | Param { .. } => at(i).into_owned(),
        MatMul { a, b } => at(*a).matmul(src.whole(*b)),
        SpMM { m, x } => match rows {
            None => src.sparse(*m).spmm(src.whole(*x)),
            Some(r) => src.sparse(*m).spmm_rows(r, src.whole(*x)),
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
}

/// The resident schedule: every row of every instruction, once, in program
/// order. Returns one value per instruction; leaves get an empty
/// placeholder (read them through [`Resident`]). Fails typed if a `Param`
/// has no weight.
pub fn eval_all(
    ops: &[ProgramOp],
    sparse: &[&Csr],
    weights: &[(String, Tensor)],
) -> Result<Vec<Tensor>, PevalError> {
    for op in ops {
        leaf_value(op, weights)?;
    }
    let mut values: Vec<Tensor> = Vec::with_capacity(ops.len());
    for i in 0..ops.len() {
        let value = if ops[i].is_leaf() {
            Tensor::zeros(0, 0)
        } else {
            op_rows(&ops[i], i, None, &Resident { ops, sparse, weights, values: &values })
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
        let src = Resident { ops, sparse, weights, values };
        let patch = op_rows(&ops[i], i, Some(rows), &src);
        for (r, &row) in rows.iter().enumerate() {
            values[i].row_mut(row).copy_from_slice(patch.row(r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run the shape rule over five leaves — `x` 4×3, `w` 3×2 (a weight),
    /// `b` 1×2, `c` 4×1, `s` 1×1 — then `xw = x · w` (4×2) and `case`.
    fn check(case: ProgramOp, sparse: &[(usize, usize)]) -> Result<(usize, usize), PevalError> {
        let ops = vec![
            ProgramOp::Constant { value: Tensor::zeros(4, 3) },
            ProgramOp::Param { name: "w".into() },
            ProgramOp::Constant { value: Tensor::zeros(1, 2) },
            ProgramOp::Constant { value: Tensor::zeros(4, 1) },
            ProgramOp::Constant { value: Tensor::zeros(1, 1) },
            ProgramOp::MatMul { a: 0, b: 1 },
            case,
        ];
        let shapes = program_shapes(&ops, sparse, |n| (n == "w").then_some((3, 2)))?;
        Ok(shapes[6])
    }

    #[test]
    fn the_shape_rule_accepts_fitting_operands() {
        use ProgramOp::*;
        for (case, want) in [
            (MatMul { a: 0, b: 1 }, (4, 2)),
            (SpMM { m: 0, x: 0 }, (4, 3)),
            (Add { a: 5, b: 5 }, (4, 2)),
            (AddRowBroadcast { x: 5, b: 2 }, (4, 2)),
            (AddColBroadcast { x: 0, c: 3 }, (4, 3)),
            (MulColBroadcast { x: 5, c: 3 }, (4, 2)),
            (MulScalarNode { x: 0, s: 4 }, (4, 3)),
            (ConcatCols { parts: vec![0, 5, 3] }, (4, 6)),
            (SliceCols { x: 0, lo: 1, hi: 3 }, (4, 2)),
            (GatherRows { x: 0, idx: vec![3, 0, 3] }, (3, 3)),
            (SumAll { x: 5 }, (1, 1)),
            (SumRows { x: 0 }, (1, 3)),
            (SumCols { x: 5, groups: 2 }, (4, 2)),
            (MaxStack { parts: vec![5, 5] }, (4, 2)),
            (GatAggregate { adj: 0, z: 0, ssrc: 3, sdst: 3, slope: 0.2 }, (4, 3)),
        ] {
            assert_eq!(check(case.clone(), &[(4, 4)]), Ok(want), "{case:?}");
        }
    }

    #[test]
    fn the_linear_halo_is_the_sorted_deduplicated_column_union() {
        let mut rng = lasagne_tensor::TensorRng::seed_from_u64(11);
        for case in 0..40 {
            let (rows, cols) = (1 + rng.index(70), 1 + rng.index(200));
            // Every third row empty; the others up to 12 entries.
            let coo: Vec<(u32, u32, f32)> = (0..rows)
                .filter(|r| r % 3 != 0)
                .flat_map(|r| {
                    let k = rng.index(cols.min(12) + 1);
                    rng.sample_indices(cols, k).into_iter().map(move |c| (r as u32, c as u32, 1.0))
                })
                .collect();
            let m = Csr::from_coo(rows, cols, &coo);
            let demanded: Vec<usize> = (0..rng.index(2 * rows)).map(|_| rng.index(rows)).collect();
            let mut want: Vec<usize> =
                demanded.iter().flat_map(|&r| m.row_indices(r)).map(|&c| c as usize).collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(neighbors(&m, &demanded), want, "case {case}");
        }
    }

    #[test]
    fn the_shape_rule_names_the_instruction_that_does_not_fit() {
        use ProgramOp::*;
        let sq: &[(usize, usize)] = &[(4, 4)];
        for (case, sparse) in [
            (MatMul { a: 1, b: 0 }, sq),
            (SpMM { m: 0, x: 5 }, &[(4, 3)]),
            (SpMM { m: 1, x: 0 }, sq),
            (Sub { a: 0, b: 5 }, sq),
            (AddRowBroadcast { x: 0, b: 2 }, sq),
            (AddColBroadcast { x: 0, c: 2 }, sq),
            (MulScalarNode { x: 0, s: 2 }, sq),
            (ConcatCols { parts: vec![0, 1] }, sq),
            (ConcatCols { parts: Vec::new() }, sq),
            (SliceCols { x: 0, lo: 1, hi: 4 }, sq),
            (SliceCols { x: 0, lo: 2, hi: 1 }, sq),
            (GatherRows { x: 0, idx: vec![0, 4] }, sq),
            (SumCols { x: 0, groups: 2 }, sq),
            (SumCols { x: 0, groups: 0 }, sq),
            (MaxStack { parts: vec![0, 5] }, sq),
            (MaxStack { parts: Vec::new() }, sq),
            (GatAggregate { adj: 0, z: 0, ssrc: 3, sdst: 4, slope: 0.2 }, sq),
            (GatAggregate { adj: 0, z: 5, ssrc: 3, sdst: 3, slope: 0.2 }, &[(4, 5)]),
            (Relu { x: 6 }, sq),
            (Relu { x: 99 }, sq),
        ] {
            let err = check(case.clone(), sparse).expect_err(&format!("{case:?}"));
            assert!(matches!(err, PevalError::Shape { node: 6, .. }), "{case:?}: {err}");
        }
        let missing = check(Param { name: "v".into() }, sq);
        assert_eq!(missing, Err(PevalError::MissingParam("v".into())));
    }
}
