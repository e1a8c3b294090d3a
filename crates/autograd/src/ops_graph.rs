//! Graph ops: sparse propagation (the GCN convolution) and GAT-style
//! neighborhood attention over a CSR structure.

use std::rc::Rc;

use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;

use crate::export::ProgramOp;
use crate::tape::{NodeId, Tape};

/// Result of the GAT attention forward pass: the aggregated output plus the
/// per-edge attention coefficients and LeakyReLU slopes that backward needs.
pub struct GatForward {
    /// `N×D` attention-weighted neighborhood aggregation.
    pub out: Tensor,
    /// Normalized attention coefficient per CSR edge.
    pub alpha: Vec<f32>,
    /// LeakyReLU derivative (1 or `slope`) per CSR edge.
    pub dleaky: Vec<f32>,
}

/// The forward computation of [`Tape::gat_aggregate`] as a pure function:
/// the op kernel ([`crate::op_rows`]) calls it for the value, and backward
/// calls it again for the coefficients, so there is one attention.
pub fn gat_attention(
    adj: &Csr,
    zv: &Tensor,
    s_src: &Tensor,
    s_dst: &Tensor,
    slope: f32,
) -> GatForward {
    let n = adj.rows();
    assert_eq!(zv.rows(), n, "gat_attention: z rows != graph size");
    assert_eq!(s_src.shape(), (n, 1), "gat_attention: ssrc must be N×1");
    assert_eq!(s_dst.shape(), (n, 1), "gat_attention: sdst must be N×1");
    let d = zv.cols();

    let mut alpha = vec![0.0f32; adj.nnz()];
    let mut dleaky = vec![0.0f32; adj.nnz()];
    let mut out = Tensor::zeros(n, d);
    let mut row_e: Vec<f32> = Vec::new();
    for i in 0..n {
        let lo = adj.indptr()[i];
        let hi = adj.indptr()[i + 1];
        if lo == hi {
            continue;
        }
        let si = s_src.get(i, 0);
        row_e.clear();
        for (&j, dl) in adj.indices()[lo..hi].iter().zip(&mut dleaky[lo..hi]) {
            let u = si + s_dst.get(j as usize, 0);
            *dl = if u >= 0.0 { 1.0 } else { slope };
            row_e.push(if u >= 0.0 { u } else { slope * u });
        }
        // Stable softmax over the row.
        let m = row_e.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row_e.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        let o_row = out.row_mut(i);
        for (k, e) in (lo..hi).enumerate() {
            let a = row_e[k] * inv;
            alpha[e] = a;
            let j = adj.indices()[e] as usize;
            let z_row = zv.row(j);
            for (o, &zz) in o_row.iter_mut().zip(z_row) {
                *o += a * zz;
            }
        }
    }
    GatForward { out, alpha, dleaky }
}

impl Tape {
    /// `m · x` with a fixed sparse matrix `m` (usually `Â`). Gradients flow
    /// to `x` only (the graph is not trainable).
    pub fn spmm(&mut self, m: Rc<Csr>, x: NodeId) -> NodeId {
        let m = self.intern(m);
        self.record(ProgramOp::SpMM { m, x: x.0 })
    }

    /// GAT neighborhood attention (Veličković et al., ICLR'18; the paper's
    /// GAT baseline and the base model of Table 7).
    ///
    /// Inputs: `adj` gives the neighborhoods (values ignored, structure
    /// only; include self-loops), `z = H·W` the projected features (`N×D`),
    /// `ssrc = z·a_src` and `sdst = z·a_dst` the two halves of the additive
    /// attention logits (`N×1` each). For target `i` and neighbor `j`:
    ///
    /// ```text
    /// e_ij = LeakyReLU(ssrc_i + sdst_j)     α_i: = softmax_j(e_ij)
    /// out_i = Σ_j α_ij · z_j
    /// ```
    pub fn gat_aggregate(
        &mut self,
        adj: Rc<Csr>,
        z: NodeId,
        ssrc: NodeId,
        sdst: NodeId,
        slope: f32,
    ) -> NodeId {
        let adj = self.intern(adj);
        self.record(ProgramOp::GatAggregate { adj, z: z.0, ssrc: ssrc.0, sdst: sdst.0, slope })
    }
}
