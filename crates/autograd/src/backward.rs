//! Reverse sweep: walk the tape from the loss back to the leaves, applying
//! each op's vector-Jacobian product and scattering parameter gradients into
//! the [`ParamStore`].

use lasagne_tensor::Tensor;

use crate::export::ProgramOp;
use crate::ops_graph::gat_attention;
use crate::tape::{NodeId, Op, Tape};
use crate::ParamStore;

impl Tape {
    /// Backpropagate from `loss` (must be a `1×1` node) and accumulate
    /// parameter gradients into `store`. Gradient buffers are *not* zeroed
    /// here — call [`ParamStore::zero_grads`] before the forward pass (this
    /// allows gradient accumulation across micro-batches).
    pub fn backward(&self, loss: NodeId, store: &mut ParamStore) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be a 1x1 scalar node"
        );
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::ones(1, 1));

        for id in (0..=loss.0).rev() {
            if !self.nodes[id].needs_grad {
                grads[id] = None;
                continue;
            }
            let Some(g) = grads[id].take() else { continue };
            self.backprop_node(id, &g, &mut grads, store);
        }
    }

    /// Accumulate `delta` into the pending gradient of node `target`
    /// (skipping nodes that don't need gradients).
    fn acc(&self, grads: &mut [Option<Tensor>], target: usize, delta: Tensor) {
        if !self.nodes[target].needs_grad {
            return;
        }
        match &mut grads[target] {
            Some(g) => g.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    fn backprop_node(
        &self,
        id: usize,
        g: &Tensor,
        grads: &mut [Option<Tensor>],
        store: &mut ParamStore,
    ) {
        let out = &self.nodes[id].value;
        let value = |j: usize| &self.nodes[j].value;
        let needs = |j: usize| self.nodes[j].needs_grad;
        let op = match &self.nodes[id].op {
            Op::Constant => return,
            Op::Param(pid) => return store.accumulate_grad(*pid, g),
            Op::Dropout { x, mask } => return self.acc(grads, *x, g.mul(mask)),
            Op::Gate { x, p, mask } => {
                if needs(*x) {
                    self.acc(grads, *x, g.mul_col_broadcast(mask));
                }
                if needs(*p) {
                    // Straight-through: d/dp ≈ d/dmask = Σ_j g[i,j]·x[i,j].
                    self.acc(grads, *p, g.mul(value(*x)).sum_cols());
                }
                return;
            }
            Op::Nll { logp, labels, idx } => {
                let lv = value(*logp);
                let mut d = Tensor::zeros(lv.rows(), lv.cols());
                let w = -g.get(0, 0) / idx.len() as f32;
                for &i in idx.iter() {
                    d[(i, labels[i])] += w;
                }
                return self.acc(grads, *logp, d);
            }
            Op::Program(op) => op,
        };
        use ProgramOp::*;
        match op {
            Constant { .. } | Param { .. } => {}
            MatMul { a, b } => {
                if needs(*a) {
                    self.acc(grads, *a, g.matmul_nt(value(*b)));
                }
                if needs(*b) {
                    self.acc(grads, *b, value(*a).matmul_tn(g));
                }
            }
            SpMM { m, x } => {
                if needs(*x) {
                    self.acc(grads, *x, self.sparse[*m].spmm_t(g));
                }
            }

            Add { a, b } => {
                self.acc(grads, *a, g.clone());
                self.acc(grads, *b, g.clone());
            }
            Sub { a, b } => {
                self.acc(grads, *a, g.clone());
                self.acc(grads, *b, g.scale(-1.0));
            }
            Mul { a, b } => {
                if needs(*a) {
                    self.acc(grads, *a, g.mul(value(*b)));
                }
                if needs(*b) {
                    self.acc(grads, *b, g.mul(value(*a)));
                }
            }
            Div { a, b } => {
                let bv = value(*b);
                if needs(*a) {
                    self.acc(grads, *a, g.div(bv));
                }
                if needs(*b) {
                    // d/db (a/b) = -a / b²
                    let d = g.mul(value(*a)).div(bv).div(bv).scale(-1.0);
                    self.acc(grads, *b, d);
                }
            }
            Scale { x, alpha } => self.acc(grads, *x, g.scale(*alpha)),
            AddConst { x, .. } => self.acc(grads, *x, g.clone()),
            Pow { x, p, eps } => {
                let xv = value(*x);
                let d = Tensor::from_fn(xv.rows(), xv.cols(), |i, j| {
                    p * (xv.get(i, j) + eps).powf(p - 1.0)
                });
                self.acc(grads, *x, g.mul(&d));
            }

            Exp { x } => {
                // d/dx e^x = e^x = out.
                self.acc(grads, *x, g.mul(out));
            }
            Relu { x } => {
                let d = g.mul(&out.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
                self.acc(grads, *x, d);
            }
            LeakyRelu { x, slope } => {
                // slope > 0 ⇒ output sign mirrors input sign.
                let s = *slope;
                let d = g.mul(&out.map(|v| if v >= 0.0 { 1.0 } else { s }));
                self.acc(grads, *x, d);
            }
            Sigmoid { x } => {
                let d = g.mul(&out.map(|y| y * (1.0 - y)));
                self.acc(grads, *x, d);
            }
            Tanh { x } => {
                let d = g.mul(&out.map(|y| 1.0 - y * y));
                self.acc(grads, *x, d);
            }

            AddRowBroadcast { x, b } => {
                self.acc(grads, *x, g.clone());
                if needs(*b) {
                    self.acc(grads, *b, g.sum_rows());
                }
            }
            AddColBroadcast { x, c } => {
                self.acc(grads, *x, g.clone());
                if needs(*c) {
                    self.acc(grads, *c, g.sum_cols());
                }
            }
            MulColBroadcast { x, c } => {
                if needs(*x) {
                    self.acc(grads, *x, g.mul_col_broadcast(value(*c)));
                }
                if needs(*c) {
                    self.acc(grads, *c, g.mul(value(*x)).sum_cols());
                }
            }
            MulScalarNode { x, s } => {
                let sv = value(*s).get(0, 0);
                if needs(*x) {
                    self.acc(grads, *x, g.scale(sv));
                }
                if needs(*s) {
                    self.acc(grads, *s, Tensor::full(1, 1, g.dot(value(*x))));
                }
            }

            LogSoftmax { x } => {
                // dx = g − softmax(x) ⊙ rowsum(g); out already holds log p.
                let sm = out.map(f32::exp);
                let row_sums = g.sum_cols();
                let d = g.sub(&sm.mul_col_broadcast(&row_sums));
                self.acc(grads, *x, d);
            }
            ConcatCols { parts } => {
                let mut off = 0;
                for &p in parts {
                    let w = value(p).cols();
                    if needs(p) {
                        self.acc(grads, p, g.slice_cols(off, off + w));
                    }
                    off += w;
                }
            }
            SliceCols { x, lo, hi } => {
                let xv = value(*x);
                let mut d = Tensor::zeros(xv.rows(), xv.cols());
                for i in 0..g.rows() {
                    d.row_mut(i)[*lo..*hi].copy_from_slice(g.row(i));
                }
                self.acc(grads, *x, d);
            }
            GatherRows { x, idx } => {
                let xv = value(*x);
                let mut d = Tensor::zeros(xv.rows(), xv.cols());
                for (k, &src) in idx.iter().enumerate() {
                    let row = g.row(k);
                    for (o, &v) in d.row_mut(src).iter_mut().zip(row) {
                        *o += v;
                    }
                }
                self.acc(grads, *x, d);
            }

            SumAll { x } => {
                let xv = value(*x);
                self.acc(grads, *x, Tensor::full(xv.rows(), xv.cols(), g.get(0, 0)));
            }
            SumRows { x } => {
                let xv = value(*x);
                let d = Tensor::zeros(xv.rows(), xv.cols()).add_row_broadcast(g);
                self.acc(grads, *x, d);
            }
            SumCols { x, groups } => {
                // Each gradient column over its group, added to `+0.0` as
                // a broadcast into zeros does.
                let xv = value(*x);
                let w = xv.cols() / groups;
                let d = Tensor::from_fn(xv.rows(), xv.cols(), |i, j| 0.0 + g.get(i, j / w));
                self.acc(grads, *x, d);
            }

            MaxStack { parts } => {
                // The strict-`>` fold's winner at each position is the first
                // part holding the output's bits: a `NaN` first part, and
                // the earliest of tied parts (`-0.0` and `+0.0` included).
                let mut won = vec![false; out.len()];
                for &p in parts {
                    let pv = value(p).as_slice();
                    let mut d = needs(p).then(|| Tensor::zeros(value(p).rows(), value(p).cols()));
                    for (pos, (&o, &v)) in out.as_slice().iter().zip(pv).enumerate() {
                        if !won[pos] && v.to_bits() == o.to_bits() {
                            won[pos] = true;
                            if let Some(d) = &mut d {
                                d.as_mut_slice()[pos] = g.as_slice()[pos];
                            }
                        }
                    }
                    if let Some(d) = d {
                        self.acc(grads, p, d);
                    }
                }
            }

            GatAggregate { adj, z, ssrc, sdst, slope } => {
                let adj = &*self.sparse[*adj];
                let zv = value(*z);
                let fwd = gat_attention(adj, zv, value(*ssrc), value(*sdst), *slope);
                let (alpha, dleaky) = (&fwd.alpha, &fwd.dleaky);
                let n = adj.rows();
                let d = zv.cols();
                let mut dz = Tensor::zeros(n, d);
                let mut dssrc = Tensor::zeros(n, 1);
                let mut dsdst = Tensor::zeros(n, 1);
                let mut dalpha: Vec<f32> = Vec::new();
                for i in 0..n {
                    let lo = adj.indptr()[i];
                    let hi = adj.indptr()[i + 1];
                    if lo == hi {
                        continue;
                    }
                    let g_row = g.row(i);
                    dalpha.clear();
                    let mut weighted_sum = 0.0f32; // Σ_k α_ik · dα_ik
                    for (&j, &a_ij) in adj.indices()[lo..hi].iter().zip(&alpha[lo..hi]) {
                        let da: f32 = g_row
                            .iter()
                            .zip(zv.row(j as usize))
                            .map(|(a, b)| a * b)
                            .sum();
                        dalpha.push(da);
                        weighted_sum += a_ij * da;
                    }
                    let mut dsi = 0.0f32;
                    for (k, e) in (lo..hi).enumerate() {
                        let j = adj.indices()[e] as usize;
                        // Softmax Jacobian, then LeakyReLU slope.
                        let du = alpha[e] * (dalpha[k] - weighted_sum) * dleaky[e];
                        dsi += du;
                        dsdst[(j, 0)] += du;
                        // dz_j += α_ij · g_i
                        let a = alpha[e];
                        for (o, &gg) in dz.row_mut(j).iter_mut().zip(g_row) {
                            *o += a * gg;
                        }
                    }
                    dssrc[(i, 0)] = dsi;
                }
                if needs(*z) {
                    self.acc(grads, *z, dz);
                }
                if needs(*ssrc) {
                    self.acc(grads, *ssrc, dssrc);
                }
                if needs(*sdst) {
                    self.acc(grads, *sdst, dsdst);
                }
            }
        }
    }
}
