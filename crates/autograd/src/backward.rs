//! Reverse sweep: walk the tape from the loss back to the leaves, applying
//! each op's vector-Jacobian product and scattering parameter gradients into
//! the [`ParamStore`].

use lasagne_tensor::Tensor;

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

    /// Accumulate `delta` into the pending gradient of `target` (skipping
    /// nodes that don't need gradients).
    fn acc(&self, grads: &mut [Option<Tensor>], target: NodeId, delta: Tensor) {
        if !self.nodes[target.0].needs_grad {
            return;
        }
        match &mut grads[target.0] {
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
        match &self.nodes[id].op {
            Op::Constant => {}
            Op::Param(pid) => store.accumulate_grad(*pid, g),

            Op::MatMul(a, b) => {
                if self.needs_grad(*a) {
                    self.acc(grads, *a, g.matmul_nt(self.value(*b)));
                }
                if self.needs_grad(*b) {
                    self.acc(grads, *b, self.value(*a).matmul_tn(g));
                }
            }
            Op::SpMM { m, x } => {
                if self.needs_grad(*x) {
                    self.acc(grads, *x, m.spmm_t(g));
                }
            }

            Op::Add(a, b) => {
                self.acc(grads, *a, g.clone());
                self.acc(grads, *b, g.clone());
            }
            Op::Sub(a, b) => {
                self.acc(grads, *a, g.clone());
                self.acc(grads, *b, g.scale(-1.0));
            }
            Op::Mul(a, b) => {
                if self.needs_grad(*a) {
                    self.acc(grads, *a, g.mul(self.value(*b)));
                }
                if self.needs_grad(*b) {
                    self.acc(grads, *b, g.mul(self.value(*a)));
                }
            }
            Op::Div(a, b) => {
                let bv = self.value(*b);
                if self.needs_grad(*a) {
                    self.acc(grads, *a, g.div(bv));
                }
                if self.needs_grad(*b) {
                    // d/db (a/b) = -a / b²
                    let d = g.mul(self.value(*a)).div(bv).div(bv).scale(-1.0);
                    self.acc(grads, *b, d);
                }
            }
            Op::Scale(x, alpha) => self.acc(grads, *x, g.scale(*alpha)),
            Op::AddConst(x, _) => self.acc(grads, *x, g.clone()),
            Op::Pow { x, p, eps } => {
                let xv = self.value(*x);
                let d = Tensor::from_fn(xv.rows(), xv.cols(), |i, j| {
                    p * (xv.get(i, j) + eps).powf(p - 1.0)
                });
                self.acc(grads, *x, g.mul(&d));
            }

            Op::Exp(x) => {
                // d/dx e^x = e^x = out.
                self.acc(grads, *x, g.mul(out));
            }
            Op::Relu(x) => {
                let d = g.mul(&out.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
                self.acc(grads, *x, d);
            }
            Op::LeakyRelu(x, slope) => {
                // slope > 0 ⇒ output sign mirrors input sign.
                let s = *slope;
                let d = g.mul(&out.map(|v| if v >= 0.0 { 1.0 } else { s }));
                self.acc(grads, *x, d);
            }
            Op::Sigmoid(x) => {
                let d = g.mul(&out.map(|y| y * (1.0 - y)));
                self.acc(grads, *x, d);
            }
            Op::Tanh(x) => {
                let d = g.mul(&out.map(|y| 1.0 - y * y));
                self.acc(grads, *x, d);
            }
            Op::Dropout { x, mask } => self.acc(grads, *x, g.mul(mask)),

            Op::AddRowBroadcast(x, b) => {
                self.acc(grads, *x, g.clone());
                if self.needs_grad(*b) {
                    self.acc(grads, *b, g.sum_rows());
                }
            }
            Op::AddColBroadcast(x, c) => {
                self.acc(grads, *x, g.clone());
                if self.needs_grad(*c) {
                    self.acc(grads, *c, g.sum_cols());
                }
            }
            Op::MulColBroadcast(x, c) => {
                if self.needs_grad(*x) {
                    self.acc(grads, *x, g.mul_col_broadcast(self.value(*c)));
                }
                if self.needs_grad(*c) {
                    self.acc(grads, *c, g.mul(self.value(*x)).sum_cols());
                }
            }
            Op::MulScalarNode(x, s) => {
                let sv = self.value(*s).get(0, 0);
                if self.needs_grad(*x) {
                    self.acc(grads, *x, g.scale(sv));
                }
                if self.needs_grad(*s) {
                    self.acc(grads, *s, Tensor::full(1, 1, g.dot(self.value(*x))));
                }
            }

            Op::LogSoftmax(x) => {
                // dx = g − softmax(x) ⊙ rowsum(g); out already holds log p.
                let sm = out.map(f32::exp);
                let row_sums = g.sum_cols();
                let d = g.sub(&sm.mul_col_broadcast(&row_sums));
                self.acc(grads, *x, d);
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for &p in parts {
                    let w = self.value(p).cols();
                    if self.needs_grad(p) {
                        self.acc(grads, p, g.slice_cols(off, off + w));
                    }
                    off += w;
                }
            }
            Op::SliceCols { x, lo, hi } => {
                let xv = self.value(*x);
                let mut d = Tensor::zeros(xv.rows(), xv.cols());
                for i in 0..g.rows() {
                    d.row_mut(i)[*lo..*hi].copy_from_slice(g.row(i));
                }
                self.acc(grads, *x, d);
            }
            Op::GatherRows { x, idx } => {
                let xv = self.value(*x);
                let mut d = Tensor::zeros(xv.rows(), xv.cols());
                for (k, &src) in idx.iter().enumerate() {
                    let row = g.row(k);
                    for (o, &v) in d.row_mut(src).iter_mut().zip(row) {
                        *o += v;
                    }
                }
                self.acc(grads, *x, d);
            }

            Op::SumAll(x) => {
                let xv = self.value(*x);
                self.acc(
                    grads,
                    *x,
                    Tensor::full(xv.rows(), xv.cols(), g.get(0, 0)),
                );
            }
            Op::SumRows(x) => {
                let xv = self.value(*x);
                let d = Tensor::zeros(xv.rows(), xv.cols()).add_row_broadcast(g);
                self.acc(grads, *x, d);
            }
            Op::SumCols { x, groups } => {
                // Each gradient column over its group, added to `+0.0` as
                // a broadcast into zeros does.
                let xv = self.value(*x);
                let w = xv.cols() / groups;
                let d = Tensor::from_fn(xv.rows(), xv.cols(), |i, j| 0.0 + g.get(i, j / w));
                self.acc(grads, *x, d);
            }

            Op::MaxStack { parts, argmax } => {
                for (k, &p) in parts.iter().enumerate() {
                    if !self.needs_grad(p) {
                        continue;
                    }
                    let pv = self.value(p);
                    let mut d = Tensor::zeros(pv.rows(), pv.cols());
                    for (pos, dv) in d.as_mut_slice().iter_mut().enumerate() {
                        if argmax[pos] == k as u32 {
                            *dv = g.as_slice()[pos];
                        }
                    }
                    self.acc(grads, p, d);
                }
            }
            Op::StMulCol { x, p, mask } => {
                if self.needs_grad(*x) {
                    self.acc(grads, *x, g.mul_col_broadcast(mask));
                }
                if self.needs_grad(*p) {
                    // Straight-through: d/dp ≈ d/dmask = Σ_j g[i,j]·x[i,j].
                    self.acc(grads, *p, g.mul(self.value(*x)).sum_cols());
                }
            }
            Op::NllMasked { logp, labels, idx } => {
                let lv = self.value(*logp);
                let mut d = Tensor::zeros(lv.rows(), lv.cols());
                let w = -g.get(0, 0) / idx.len() as f32;
                for &i in idx.iter() {
                    d[(i, labels[i])] += w;
                }
                self.acc(grads, *logp, d);
            }

            Op::GatAggregate { adj, z, ssrc, sdst, alpha, dleaky, .. } => {
                let zv = self.value(*z);
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
                    for e in lo..hi {
                        let j = adj.indices()[e] as usize;
                        let da: f32 = g_row
                            .iter()
                            .zip(zv.row(j))
                            .map(|(a, b)| a * b)
                            .sum();
                        dalpha.push(da);
                        weighted_sum += alpha[e] * da;
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
                if self.needs_grad(*z) {
                    self.acc(grads, *z, dz);
                }
                if self.needs_grad(*ssrc) {
                    self.acc(grads, *ssrc, dssrc);
                }
                if self.needs_grad(*sdst) {
                    self.acc(grads, *sdst, dsdst);
                }
            }
        }
    }
}
