//! Export an eval-mode forward pass as a static, tape-free **program**.
//!
//! A [`Tape`] is a define-by-run graph: rebuilding it per query drags the
//! whole autograd machinery (gradient flags, captured backward data) into
//! inference. For serving we instead record the tape *once* — with the
//! model in `Mode::Eval`, so there are no dropout masks or sampled gates —
//! and keep the subgraph reachable from the logits as a flat [`Program`]: a
//! topologically ordered list of [`ProgramOp`]s over dense tensors, a
//! deduplicated table of sparse operators, and parameter leaves referenced
//! **by name** (bound to a weight table at load time).
//!
//! The tape already records every exportable op as a [`ProgramOp`] and
//! computes its value with the evaluator's op kernel, so export only prunes
//! and renumbers: a frozen forward is bitwise-identical to the
//! training-path eval forward at any thread count by construction.
//!
//! Train-only ops (dropout, sampled Bernoulli gates, the masked NLL loss)
//! must not appear in an inference program; exporting one is a typed
//! [`ExportError`], not a silent approximation.

use std::fmt;
use std::rc::Rc;

use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;

use crate::eval::{row_deps, Operand};
use crate::tape::{NodeId, Op, Tape};
use crate::ParamStore;

/// Why a tape could not be exported as an inference program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportError {
    /// The reachable subgraph contains an op that only makes sense during
    /// training (dropout, sampled gates, loss terms).
    TrainOnlyOp {
        /// Tape index of the offending node.
        node: usize,
        /// Op name, for the error message.
        op: &'static str,
    },
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::TrainOnlyOp { node, op } => write!(
                f,
                "tape node {node} is a train-only op ({op}); export the model's Mode::Eval forward"
            ),
        }
    }
}

impl std::error::Error for ExportError {}

/// One instruction of a frozen inference program. Operand indices refer to
/// earlier instructions; `adj`/`m` index the program's sparse table.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramOp {
    /// Literal tensor (input features, precomputed constants).
    Constant { value: Tensor },
    /// Named parameter leaf, bound against a weight table at load time.
    Param { name: String },
    /// `a · b`.
    MatMul { a: usize, b: usize },
    /// Sparse `m · x`.
    SpMM { m: usize, x: usize },
    /// `a + b`.
    Add { a: usize, b: usize },
    /// `a - b`.
    Sub { a: usize, b: usize },
    /// `a ⊙ b`.
    Mul { a: usize, b: usize },
    /// `a / b`.
    Div { a: usize, b: usize },
    /// `alpha * x`.
    Scale { x: usize, alpha: f32 },
    /// `x + c`.
    AddConst { x: usize, c: f32 },
    /// `(x + eps)^p`.
    Pow { x: usize, p: f32, eps: f32 },
    /// `e^x`.
    Exp { x: usize },
    /// `max(0, x)`.
    Relu { x: usize },
    /// Leaky ReLU.
    LeakyRelu { x: usize, slope: f32 },
    /// Logistic sigmoid.
    Sigmoid { x: usize },
    /// Hyperbolic tangent.
    Tanh { x: usize },
    /// `x (N×D) + b (1×D)`.
    AddRowBroadcast { x: usize, b: usize },
    /// `x (N×D) + c (N×1)`.
    AddColBroadcast { x: usize, c: usize },
    /// `x (N×D) ⊙ c (N×1)`.
    MulColBroadcast { x: usize, c: usize },
    /// `x * s` with a `1×1` operand.
    MulScalarNode { x: usize, s: usize },
    /// Row-wise log-softmax.
    LogSoftmax { x: usize },
    /// Concatenate operands side by side.
    ConcatCols { parts: Vec<usize> },
    /// Columns `[lo, hi)`.
    SliceCols { x: usize, lo: usize, hi: usize },
    /// Gather rows in the given order.
    GatherRows { x: usize, idx: Vec<usize> },
    /// Sum of all elements as `1×1`.
    SumAll { x: usize },
    /// Column sums `N×D → 1×D`.
    SumRows { x: usize },
    /// Row sums of `groups` equal column groups, `N×(g·w) → N×g`
    /// (`groups = 1`: plain row sums).
    SumCols { x: usize, groups: usize },
    /// Element-wise max over same-shaped operands.
    MaxStack { parts: Vec<usize> },
    /// GAT neighborhood attention (recomputed from scratch at eval via
    /// [`crate::gat_attention`]).
    GatAggregate {
        /// Sparse-table index of the neighborhood structure.
        adj: usize,
        /// Projected features `z = H·W`.
        z: usize,
        /// `z·a_src` attention half.
        ssrc: usize,
        /// `z·a_dst` attention half.
        sdst: usize,
        /// LeakyReLU negative slope.
        slope: f32,
    },
}

impl ProgramOp {
    /// The op's name, spelled as the frozen-model file tags it.
    pub fn name(&self) -> &'static str {
        use ProgramOp::*;
        match self {
            Constant { .. } => "constant",
            Param { .. } => "param",
            MatMul { .. } => "matmul",
            SpMM { .. } => "spmm",
            Add { .. } => "add",
            Sub { .. } => "sub",
            Mul { .. } => "mul",
            Div { .. } => "div",
            Scale { .. } => "scale",
            AddConst { .. } => "add_const",
            Pow { .. } => "pow",
            Exp { .. } => "exp",
            Relu { .. } => "relu",
            LeakyRelu { .. } => "leaky_relu",
            Sigmoid { .. } => "sigmoid",
            Tanh { .. } => "tanh",
            AddRowBroadcast { .. } => "add_row_broadcast",
            AddColBroadcast { .. } => "add_col_broadcast",
            MulColBroadcast { .. } => "mul_col_broadcast",
            MulScalarNode { .. } => "mul_scalar_node",
            LogSoftmax { .. } => "log_softmax",
            ConcatCols { .. } => "concat_cols",
            SliceCols { .. } => "slice_cols",
            GatherRows { .. } => "gather_rows",
            SumAll { .. } => "sum_all",
            SumRows { .. } => "sum_rows",
            SumCols { .. } => "sum_cols",
            MaxStack { .. } => "max_stack",
            GatAggregate { .. } => "gat_aggregate",
        }
    }

    /// Is this a leaf (`Constant` or `Param`), whose value lives in the
    /// program or the weight table rather than being computed?
    pub fn is_leaf(&self) -> bool {
        matches!(self, ProgramOp::Constant { .. } | ProgramOp::Param { .. })
    }

    /// Indices of the instructions this op reads, in operand order: the
    /// instruction operands of its [`row_deps`].
    pub fn inputs(&self) -> Vec<usize> {
        row_deps(self)
            .into_iter()
            .filter_map(|dep| match dep {
                (Operand::Op(j), _) => Some(j),
                (Operand::Sparse(_), _) => None,
            })
            .collect()
    }

    /// Rewrite every operand in place: instruction indices through `op`,
    /// sparse-table refs through `sparse`.
    fn renumber(&mut self, op: impl Fn(usize) -> usize, mut sparse: impl FnMut(usize) -> usize) {
        use ProgramOp::*;
        match self {
            Constant { .. } | Param { .. } => {}
            MatMul { a, b }
            | Add { a, b }
            | Sub { a, b }
            | Mul { a, b }
            | Div { a, b }
            | AddRowBroadcast { x: a, b }
            | AddColBroadcast { x: a, c: b }
            | MulColBroadcast { x: a, c: b }
            | MulScalarNode { x: a, s: b } => {
                *a = op(*a);
                *b = op(*b);
            }
            SpMM { m, x } => {
                *m = sparse(*m);
                *x = op(*x);
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
            | GatherRows { x, .. }
            | SumAll { x }
            | SumRows { x }
            | SumCols { x, .. } => *x = op(*x),
            ConcatCols { parts } | MaxStack { parts } => parts.iter_mut().for_each(|p| *p = op(*p)),
            GatAggregate { adj, z, ssrc, sdst, .. } => {
                *adj = sparse(*adj);
                for j in [z, ssrc, sdst] {
                    *j = op(*j);
                }
            }
        }
    }
}

/// A frozen inference program: the eval-mode forward of one model on one
/// graph, pruned to the subgraph that produces the logits.
#[derive(Clone)]
pub struct Program {
    /// Topologically ordered instructions; the last evaluated values feed
    /// [`Program::output`].
    pub ops: Vec<ProgramOp>,
    /// Deduplicated sparse operators (`Â`, `adj+I`, `D̃⁻¹(A+I)`, …).
    pub sparse: Vec<Rc<Csr>>,
    /// Index of the instruction whose value is the model output.
    pub output: usize,
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("ops", &self.ops.len())
            .field("sparse", &self.sparse.len())
            .field("output", &self.output)
            .finish()
    }
}

impl Program {
    /// Names of the parameters the program binds, in first-use order,
    /// deduplicated.
    pub fn param_names(&self) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for op in &self.ops {
            if let ProgramOp::Param { name } = op {
                if !seen.contains(&name.as_str()) {
                    seen.push(name);
                }
            }
        }
        seen
    }

    /// Names of the parameters read **only** as the right operand of
    /// `MatMul` ops, at every slot that binds them (a name can bind several
    /// slots when weights are shared), in first-use order. These are the
    /// weights a quantized export may compress: a weight that also feeds
    /// any other op (bias adds, attention scores, …), the `a` side of a
    /// matmul, or the program output stays exact.
    pub fn matmul_only_params(&self) -> Vec<&str> {
        let mut escapes = vec![false; self.ops.len()];
        for op in &self.ops {
            match op {
                // The `b` slot is the one eligible position; `a` is not.
                ProgramOp::MatMul { a, .. } => escapes[*a] = true,
                _ => op.inputs().into_iter().for_each(|j| escapes[j] = true),
            }
        }
        if let Some(slot) = escapes.get_mut(self.output) {
            *slot = true;
        }
        let mut names = self.param_names();
        names.retain(|&n| {
            self.ops.iter().zip(&escapes).all(|(op, &escapes)| {
                !escapes || !matches!(op, ProgramOp::Param { name } if name == n)
            })
        });
        names
    }
}

impl Tape {
    /// Convert the subgraph of this tape that produces `output` into a
    /// standalone [`Program`]. Parameter leaves are exported by their
    /// registered name in `store`; sparse operands are deduplicated by
    /// identity. Fails with [`ExportError::TrainOnlyOp`] if the subgraph
    /// contains dropout, sampled gates, or loss ops — record the forward in
    /// `Mode::Eval` to avoid them.
    pub fn export_program(
        &self,
        store: &ParamStore,
        output: NodeId,
    ) -> Result<Program, ExportError> {
        let mut keep = vec![false; self.len()];
        let mut stack = vec![output.0];
        while let Some(i) = stack.pop() {
            if !std::mem::replace(&mut keep[i], true) {
                stack.extend(self.nodes[i].op.inputs());
            }
        }
        // Kept tape indices become dense program indices in tape (already
        // topological) order; sparse refs are numbered by first use.
        let mut remap = vec![usize::MAX; self.len()];
        let mut sparse_ids = vec![usize::MAX; self.sparse.len()];
        let mut sparse: Vec<Rc<Csr>> = Vec::new();
        let mut ops = Vec::new();
        for (i, node) in self.nodes.iter().enumerate().filter(|&(i, _)| keep[i]) {
            let op = match &node.op {
                Op::Constant => ProgramOp::Constant { value: node.value.clone() },
                Op::Param(id) => ProgramOp::Param { name: store.name(*id).to_string() },
                Op::Program(op) => {
                    let mut op = op.clone();
                    op.renumber(
                        |j| remap[j],
                        |k| {
                            if sparse_ids[k] == usize::MAX {
                                sparse_ids[k] = sparse.len();
                                sparse.push(Rc::clone(&self.sparse[k]));
                            }
                            sparse_ids[k]
                        },
                    );
                    op
                }
                Op::Dropout { .. } => {
                    return Err(ExportError::TrainOnlyOp { node: i, op: "dropout" })
                }
                Op::Gate { .. } => {
                    return Err(ExportError::TrainOnlyOp { node: i, op: "st_bernoulli_gate" })
                }
                Op::Nll { .. } => {
                    return Err(ExportError::TrainOnlyOp { node: i, op: "nll_masked" })
                }
            };
            remap[i] = ops.len();
            ops.push(op);
        }
        Ok(Program { ops, sparse, output: remap[output.0] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_tensor::TensorRng;

    #[test]
    fn export_prunes_and_remaps() {
        let mut rng = TensorRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let w = store.add("w", rng.uniform_tensor(3, 2, -1.0, 1.0));
        let mut tape = Tape::new();
        let x = tape.constant(rng.uniform_tensor(4, 3, -1.0, 1.0));
        let _dead = tape.constant(Tensor::ones(7, 7)); // unreachable from out
        let wn = tape.param(w, &store);
        let xw = tape.matmul(x, wn);
        let a = Rc::new(Csr::identity(4));
        let prop = tape.spmm(Rc::clone(&a), xw);
        let prop2 = tape.spmm(Rc::clone(&a), prop); // same Rc: dedup to 1 entry
        let out = tape.relu(prop2);

        let prog = tape.export_program(&store, out).expect("exports");
        assert_eq!(prog.ops.len(), 6, "dead node pruned");
        assert_eq!(prog.sparse.len(), 1, "sparse operand deduplicated");
        assert_eq!(prog.output, 5);
        assert_eq!(prog.param_names(), vec!["w"]);
        assert!(matches!(prog.ops[prog.output], ProgramOp::Relu { .. }));
    }

    #[test]
    fn only_weights_read_solely_as_matmul_right_operands_are_eligible() {
        use ProgramOp::*;
        let param = |name: &str| Param { name: name.into() };
        let program =
            |ops: Vec<ProgramOp>, output: usize| Program { ops, sparse: Vec::new(), output };
        let ops = vec![
            Constant { value: Tensor::zeros(2, 2) }, // 0
            param("w"),                              // 1: right operand only…
            MatMul { a: 0, b: 1 },                   // 2
            param("w"),                              // 3: …at both of its slots
            MatMul { a: 2, b: 3 },                   // 4
            param("bias"),                           // 5
            AddRowBroadcast { x: 4, b: 5 },          // 6
            param("left"),                           // 7
            MatMul { a: 7, b: 6 },                   // 8
            param("slot"),                           // 9: one slot, two readers
            MatMul { a: 8, b: 9 },                   // 10
            Add { a: 10, b: 9 },                     // 11
            param("name"),                           // 12: right operand here…
            MatMul { a: 11, b: 12 },                 // 13
            param("name"),                           // 14: …an activation input here
            Relu { x: 14 },                          // 15
            Add { a: 13, b: 15 },                    // 16
        ];
        assert_eq!(program(ops, 16).matmul_only_params(), vec!["w"]);

        // A weight that is the program output stays exact, even when its
        // only reader is a matmul.
        let x = Constant { value: Tensor::zeros(2, 2) };
        let ops = vec![x, param("out"), MatMul { a: 0, b: 1 }];
        assert!(program(ops.clone(), 1).matmul_only_params().is_empty());
        assert_eq!(program(ops, 2).matmul_only_params(), vec!["out"]);
    }

    #[test]
    fn train_only_ops_are_rejected() {
        let mut rng = TensorRng::seed_from_u64(1);
        let store = ParamStore::new();
        let mut tape = Tape::new();
        let x = tape.constant(rng.uniform_tensor(4, 3, -1.0, 1.0));
        let mut trng = TensorRng::seed_from_u64(2);
        let dropped = tape.dropout(x, 0.5, &mut trng);
        let err = tape.export_program(&store, dropped).unwrap_err();
        assert!(matches!(err, ExportError::TrainOnlyOp { op: "dropout", .. }), "{err}");
    }
}
