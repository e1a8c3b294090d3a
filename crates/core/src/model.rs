//! The Lasagne model (Fig 3): base convolutions + node-aware layer
//! aggregators + GC-FM output.

use lasagne_autograd::{NodeId, ParamId, ParamStore, Tape};
use lasagne_gnn::{ForwardOutput, GraphContext, Mode, NodeClassifier};
use lasagne_tensor::{Tensor, TensorRng};

use crate::config::{AggregatorKind, BaseConv, LasagneConfig};
use crate::gcfm::GcFm;

/// Per-layer base convolution parameters (Table 7 swaps the flavor).
enum ConvParams {
    Gcn { w: ParamId, b: ParamId },
    Sgc { w: ParamId, b: ParamId },
    Gat { w: ParamId, a_src: ParamId, a_dst: ParamId },
}

/// The Lasagne node classifier.
pub struct Lasagne {
    cfg: LasagneConfig,
    /// Node count the per-node parameters are tied to (`Some` for Weighted
    /// and Stochastic; `None` for the inductive-capable Max-Pooling).
    pinned_nodes: Option<usize>,
    /// Base conv of each hidden layer (`hidden_dims.len()` of them).
    conv: Vec<ConvParams>,
    /// `pair_w[l][i]` = `W(il) ∈ R^{D(i)×D(l)}` — the extra GC transform of
    /// Eq (5) from source layer `i` into consuming layer `l` (`i < l`).
    pair_w: Vec<Vec<ParamId>>,
    /// Weighted aggregator: `c[l-1]` = `C(l) ∈ R^{N×(l+1)}` for hidden
    /// layer `l ≥ 1` (col `i < l` weights source layer `i`, col `l` the
    /// layer's own output).
    c: Vec<ParamId>,
    /// Stochastic aggregator: `P ∈ R^{N×H}` gate logits (Eq 6).
    p: Option<ParamId>,
    /// GC-FM output layer, or the plain GC output of the Table 6 ablation.
    gcfm: Option<GcFm>,
    out_conv: Option<(ParamId, ParamId)>,
    store: ParamStore,
}

impl Lasagne {
    /// Build a Lasagne model.
    ///
    /// `num_nodes` must be `Some(N)` for the Weighted and Stochastic
    /// aggregators (their `C`/`P` parameters are per node — the reason the
    /// paper restricts inductive tasks to Max-Pooling); it is ignored for
    /// Max-Pooling.
    pub fn new(
        in_dim: usize,
        num_classes: usize,
        num_nodes: Option<usize>,
        cfg: &LasagneConfig,
        seed: u64,
    ) -> Lasagne {
        let h = cfg.hidden_dims.len();
        assert!(h >= 1, "Lasagne: need at least one hidden layer");
        let mut rng = TensorRng::seed_from_u64(seed);
        let mut store = ParamStore::new();

        let mut conv = Vec::with_capacity(h);
        for l in 0..h {
            let din = if l == 0 { in_dim } else { cfg.hidden_dims[l - 1] };
            let dout = cfg.hidden_dims[l];
            conv.push(Self::make_conv(&mut store, cfg.base, l, din, dout, &mut rng));
        }

        let mut pair_w = Vec::with_capacity(h);
        for l in 0..h {
            let ws = (0..l)
                .map(|i| {
                    store.add(
                        format!("pair.w{i}_{l}"),
                        rng.glorot_uniform(cfg.hidden_dims[i], cfg.hidden_dims[l]),
                    )
                })
                .collect();
            pair_w.push(ws);
        }

        let mut c = Vec::new();
        let mut p = None;
        match cfg.aggregator {
            AggregatorKind::Weighted => {
                let n = num_nodes
                    .expect("Lasagne(Weighted): per-node C(l) parameters need num_nodes");
                for l in 1..h {
                    // Own-output column starts at 1 (plain-GCN behavior),
                    // earlier layers at 0.2 (mild residual contributions).
                    let init = Tensor::from_fn(n, l + 1, |_, j| if j == l { 1.0 } else { 0.2 });
                    c.push(store.add_with_decay(format!("agg.c{l}"), init, false));
                }
            }
            AggregatorKind::Stochastic => {
                let n = num_nodes
                    .expect("Lasagne(Stochastic): per-node P parameters need num_nodes");
                // P = 0 ⇒ all probabilities 1 ⇒ dense aggregation at init.
                p = Some(store.add_with_decay("agg.p", Tensor::zeros(n, h), false));
            }
            AggregatorKind::MaxPooling | AggregatorKind::Mean => {}
        }

        let (gcfm, out_conv) = if cfg.use_gcfm {
            (
                Some(GcFm::new(&mut store, &cfg.hidden_dims, num_classes, cfg.gcfm_k, &mut rng)),
                None,
            )
        } else {
            let w = store.add("out.w", rng.glorot_uniform(cfg.hidden_dims[h - 1], num_classes));
            let b = store.add_with_decay("out.b", Tensor::zeros(1, num_classes), false);
            (None, Some((w, b)))
        };

        Lasagne {
            cfg: cfg.clone(),
            pinned_nodes: match cfg.aggregator {
                AggregatorKind::MaxPooling | AggregatorKind::Mean => None,
                _ => num_nodes,
            },
            conv,
            pair_w,
            c,
            p,
            gcfm,
            out_conv,
            store,
        }
    }

    fn make_conv(
        store: &mut ParamStore,
        base: BaseConv,
        l: usize,
        din: usize,
        dout: usize,
        rng: &mut TensorRng,
    ) -> ConvParams {
        match base {
            BaseConv::Gcn => ConvParams::Gcn {
                w: store.add(format!("gc{l}.w"), rng.glorot_uniform(din, dout)),
                b: store.add_with_decay(format!("gc{l}.b"), Tensor::zeros(1, dout), false),
            },
            BaseConv::Sgc => ConvParams::Sgc {
                w: store.add(format!("sgc{l}.w"), rng.glorot_uniform(din, dout)),
                b: store.add_with_decay(format!("sgc{l}.b"), Tensor::zeros(1, dout), false),
            },
            BaseConv::Gat => ConvParams::Gat {
                w: store.add(format!("gat{l}.w"), rng.glorot_uniform(din, dout)),
                a_src: store.add(format!("gat{l}.a_src"), rng.glorot_uniform(dout, 1)),
                a_dst: store.add(format!("gat{l}.a_dst"), rng.glorot_uniform(dout, 1)),
            },
        }
    }

    /// One base-convolution step (the per-layer node aggregation that
    /// Lasagne keeps from the underlying model, §5.2.5).
    fn base_forward(
        &self,
        tape: &mut Tape,
        ctx: &GraphContext,
        layer: usize,
        x: NodeId,
    ) -> NodeId {
        match &self.conv[layer] {
            ConvParams::Gcn { w, b } => {
                let wn = tape.param(*w, &self.store);
                let xw = tape.matmul(x, wn);
                let prop = tape.spmm(ctx.a_hat.clone(), xw);
                let bn = tape.param(*b, &self.store);
                let biased = tape.add_row_broadcast(prop, bn);
                tape.relu(biased)
            }
            ConvParams::Sgc { w, b } => {
                // Â²(xW): SGC's linear two-hop propagation, no activation.
                let wn = tape.param(*w, &self.store);
                let xw = tape.matmul(x, wn);
                let p1 = tape.spmm(ctx.a_hat.clone(), xw);
                let p2 = tape.spmm(ctx.a_hat.clone(), p1);
                let bn = tape.param(*b, &self.store);
                tape.add_row_broadcast(p2, bn)
            }
            ConvParams::Gat { w, a_src, a_dst } => {
                let wn = tape.param(*w, &self.store);
                let z = tape.matmul(x, wn);
                let a1 = tape.param(*a_src, &self.store);
                let a2 = tape.param(*a_dst, &self.store);
                let ssrc = tape.matmul(z, a1);
                let sdst = tape.matmul(z, a2);
                let agg =
                    tape.gat_aggregate(ctx.adj_loops.clone(), z, ssrc, sdst, self.cfg.gat_slope);
                tape.relu(agg)
            }
        }
    }

    /// The stochastic aggregator's normalized probabilities
    /// `p_ij = e^{P_ij} / max_k e^{P_ik}` (Eq 6) as a tape node. The row
    /// max in the denominator is treated as a constant (stop-gradient), the
    /// standard softmax-style stabilization; at the argmax the probability
    /// is exactly 1.
    fn stochastic_prob_node(&self, tape: &mut Tape) -> NodeId {
        let pid = self.p.expect("stochastic aggregator");
        let pv = self.store.value(pid);
        let row_max: Vec<f32> = (0..pv.rows())
            .map(|i| pv.row(i).iter().copied().fold(f32::NEG_INFINITY, f32::max))
            .collect();
        let p_node = tape.param(pid, &self.store);
        let neg_max = tape.constant(Tensor::col_vector(
            &row_max.iter().map(|&m| -m).collect::<Vec<_>>(),
        ));
        let shifted = tape.add_col_broadcast(p_node, neg_max);
        tape.exp(shifted)
    }

    /// Aggregate layer `l`'s raw output with all previous layers (Eq 4/5).
    #[allow(clippy::too_many_arguments)]
    fn aggregate(
        &self,
        tape: &mut Tape,
        ctx: &GraphContext,
        l: usize,
        previous: &[NodeId],
        raw: NodeId,
        probs: Option<NodeId>,
        mode: Mode,
        rng: &mut TensorRng,
    ) -> NodeId {
        match self.cfg.aggregator {
            AggregatorKind::Weighted => {
                let c_node = tape.param(self.c[l - 1], &self.store);
                let c_raw = tape.slice_cols(c_node, l, l + 1);
                let mut acc = tape.mul_col_broadcast(raw, c_raw);
                for (i, &h_prev) in previous.iter().enumerate() {
                    let c_i = tape.slice_cols(c_node, i, i + 1);
                    let scaled = tape.mul_col_broadcast(h_prev, c_i);
                    let w = tape.param(self.pair_w[l][i], &self.store);
                    let trans = tape.matmul(scaled, w);
                    let prop = tape.spmm(ctx.a_hat.clone(), trans);
                    acc = tape.add(acc, prop);
                }
                acc
            }
            AggregatorKind::Stochastic => {
                let probs = probs.expect("stochastic probabilities computed per forward");
                let gate = |tape: &mut Tape, x: NodeId, col: usize, rng: &mut TensorRng| {
                    let p_col = tape.slice_cols(probs, col, col + 1);
                    match mode {
                        Mode::Train => tape.st_bernoulli_gate(x, p_col, rng),
                        Mode::Eval => tape.expected_gate(x, p_col),
                    }
                };
                let mut acc = gate(tape, raw, l, rng);
                for (i, &h_prev) in previous.iter().enumerate() {
                    let gated = gate(tape, h_prev, i, rng);
                    let w = tape.param(self.pair_w[l][i], &self.store);
                    let trans = tape.matmul(gated, w);
                    let prop = tape.spmm(ctx.a_hat.clone(), trans);
                    acc = tape.add(acc, prop);
                }
                acc
            }
            AggregatorKind::MaxPooling => {
                let mut parts = Vec::with_capacity(previous.len() + 1);
                for (i, &h_prev) in previous.iter().enumerate() {
                    let w = tape.param(self.pair_w[l][i], &self.store);
                    let trans = tape.matmul(h_prev, w);
                    parts.push(tape.spmm(ctx.a_hat.clone(), trans));
                }
                parts.push(raw);
                tape.max_stack(&parts)
            }
            AggregatorKind::Mean => {
                // Uniform (node-blind) average of all contributions — the
                // §4.1 "mean" alternative, kept as a node-awareness
                // ablation.
                let mut acc = raw;
                for (i, &h_prev) in previous.iter().enumerate() {
                    let w = tape.param(self.pair_w[l][i], &self.store);
                    let trans = tape.matmul(h_prev, w);
                    let prop = tape.spmm(ctx.a_hat.clone(), trans);
                    acc = tape.add(acc, prop);
                }
                tape.scale(acc, 1.0 / (previous.len() + 1) as f32)
            }
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &LasagneConfig {
        &self.cfg
    }

    /// The learned stochastic gate probabilities `p = e^P / max e^P`
    /// (`N×H`), for the §5.2.2 node-locality analysis. `None` unless the
    /// Stochastic aggregator is in use.
    pub fn stochastic_probabilities(&self) -> Option<Tensor> {
        let pid = self.p?;
        let pv = self.store.value(pid);
        let mut out = pv.clone();
        for i in 0..out.rows() {
            let m = out.row(i).iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for v in out.row_mut(i) {
                *v = (*v - m).exp();
            }
        }
        Some(out)
    }
}

impl NodeClassifier for Lasagne {
    fn name(&self) -> String {
        let base = match self.cfg.base {
            BaseConv::Gcn => String::new(),
            other => format!("+{}", other.label()),
        };
        let fm = if self.cfg.use_gcfm { "" } else { "-noFM" };
        format!(
            "Lasagne({}){}{}-{}",
            self.cfg.aggregator.label(),
            base,
            fm,
            self.cfg.depth()
        )
    }

    fn forward(
        &self,
        tape: &mut Tape,
        ctx: &GraphContext,
        mode: Mode,
        rng: &mut TensorRng,
    ) -> ForwardOutput {
        self.forward_with_hiddens(tape, ctx, mode, rng).0
    }

    fn forward_with_hiddens(
        &self,
        tape: &mut Tape,
        ctx: &GraphContext,
        mode: Mode,
        rng: &mut TensorRng,
    ) -> (ForwardOutput, Vec<NodeId>) {
        if let Some(n) = self.pinned_nodes {
            assert_eq!(
                ctx.num_nodes(),
                n,
                "Lasagne({}): per-node aggregation parameters are tied to the \
                 construction graph (N={n}); this aggregator is not suitable for \
                 inductive contexts (got N={})",
                self.cfg.aggregator.label(),
                ctx.num_nodes(),
            );
        }
        let keep = self.cfg.dropout_keep;
        let probs = match self.cfg.aggregator {
            AggregatorKind::Stochastic => Some(self.stochastic_prob_node(tape)),
            _ => None,
        };

        let x0 = tape.constant((*ctx.features).clone());
        let x = match mode {
            Mode::Train => tape.dropout(x0, keep, rng),
            Mode::Eval => x0,
        };

        let h_count = self.cfg.hidden_dims.len();
        let mut hs: Vec<NodeId> = Vec::with_capacity(h_count);
        for l in 0..h_count {
            let input = if l == 0 {
                x
            } else {
                let prev = hs[l - 1];
                match mode {
                    Mode::Train => tape.dropout(prev, keep, rng),
                    Mode::Eval => prev,
                }
            };
            let raw = self.base_forward(tape, ctx, l, input);
            let agg = if l == 0 {
                raw
            } else {
                self.aggregate(tape, ctx, l, &hs[..l], raw, probs, mode, rng)
            };
            hs.push(agg);
        }

        let logits = match (&self.gcfm, &self.out_conv) {
            (Some(gcfm), _) => {
                gcfm.forward(tape, &self.store, &ctx.a_hat, &hs, self.cfg.final_relu)
            }
            (None, Some((w, b))) => {
                let last = match mode {
                    Mode::Train => tape.dropout(hs[h_count - 1], keep, rng),
                    Mode::Eval => hs[h_count - 1],
                };
                let wn = tape.param(*w, &self.store);
                let hw = tape.matmul(last, wn);
                let prop = tape.spmm(ctx.a_hat.clone(), hw);
                let bn = tape.param(*b, &self.store);
                tape.add_row_broadcast(prop, bn)
            }
            (None, None) => unreachable!("constructor always sets one output head"),
        };
        hs.push(logits);
        (ForwardOutput::logits(logits), hs)
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;
    use lasagne_gnn::Hyper;

    fn tiny_ctx(seed: u64) -> (GraphContext, Vec<usize>) {
        let mut rng = TensorRng::seed_from_u64(seed);
        let (g, labels) = lasagne_graph::generators::dc_sbm(
            &lasagne_graph::generators::DcSbmConfig {
                nodes: 60,
                classes: 3,
                avg_degree: 6.0,
                homophily: 0.9,
                power_exponent: 2.5,
                max_weight_ratio: 20.0,
            },
            &mut rng,
        );
        let feats = lasagne_datasets::generate_features(
            &g,
            &labels,
            3,
            &lasagne_datasets::FeatureConfig {
                dim: 8,
                signal: 1.5,
                noise_scale: 0.5,
                degree_noise_exponent: 0.3,
                mask_base: 0.0,
            },
            &mut rng,
        );
        let train: Vec<usize> = (0..30).collect();
        (GraphContext::new(&g, feats, labels, 3), train)
    }

    fn cfg(agg: AggregatorKind, depth: usize) -> LasagneConfig {
        LasagneConfig::from_hyper(&Hyper::default().with_depth(depth).with_hidden(12), agg)
    }

    fn fit(model: &mut Lasagne, ctx: &GraphContext, train: &[usize], steps: usize) -> (f32, f32) {
        use lasagne_autograd::{Adam, Optimizer};
        let labels = Rc::new((*ctx.labels).clone());
        let idx = Rc::new(train.to_vec());
        let mut rng = TensorRng::seed_from_u64(7);
        let mut opt = Adam::new(model.store(), 0.02, 5e-4);
        let (mut first, mut last) = (f32::NAN, f32::NAN);
        for step in 0..steps {
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, ctx, Mode::Train, &mut rng);
            let lp = tape.log_softmax(out.logits);
            let loss = tape.nll_masked(lp, labels.clone(), idx.clone());
            let v = tape.value(loss).get(0, 0);
            if step == 0 {
                first = v;
            }
            last = v;
            model.store_mut().zero_grads();
            tape.backward(loss, model.store_mut());
            opt.step(model.store_mut());
        }
        (first, last)
    }

    #[test]
    fn all_aggregators_learn() {
        let (ctx, train) = tiny_ctx(0);
        for agg in AggregatorKind::extended() {
            let mut m = Lasagne::new(8, 3, Some(60), &cfg(agg, 4), 0);
            let (first, last) = fit(&mut m, &ctx, &train, 40);
            assert!(
                last < first * 0.9,
                "{}: loss {first} → {last}",
                m.name()
            );
        }
    }

    #[test]
    fn logit_shapes_and_finiteness_at_depth_8() {
        let (ctx, _) = tiny_ctx(1);
        for agg in AggregatorKind::all() {
            let m = Lasagne::new(8, 3, Some(60), &cfg(agg, 8), 0);
            let mut rng = TensorRng::seed_from_u64(0);
            let mut tape = Tape::new();
            let out = m.forward(&mut tape, &ctx, Mode::Eval, &mut rng);
            assert_eq!(tape.value(out.logits).shape(), (60, 3));
            assert!(!tape.value(out.logits).has_non_finite(), "{}", m.name());
        }
    }

    #[test]
    fn flexible_hidden_dims_are_supported() {
        // The whole point of removing the equal-dimension restriction.
        let cfg = cfg(AggregatorKind::Weighted, 4).with_hidden_dims(vec![16, 8, 24]);
        let (ctx, train) = tiny_ctx(2);
        let mut m = Lasagne::new(8, 3, Some(60), &cfg, 0);
        let (first, last) = fit(&mut m, &ctx, &train, 30);
        assert!(last < first, "flexible dims: {first} → {last}");
    }

    #[test]
    fn maxpool_runs_on_other_graph_sizes() {
        // Inductive capability: no per-node parameters.
        let m = Lasagne::new(8, 3, None, &cfg(AggregatorKind::MaxPooling, 3), 0);
        let (big, _) = tiny_ctx(3);
        let mut rng = TensorRng::seed_from_u64(0);
        let mut t1 = Tape::new();
        let a = m.forward(&mut t1, &big, Mode::Eval, &mut rng);
        assert_eq!(t1.value(a.logits).rows(), 60);
        let g = lasagne_graph::Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let feats = rng.uniform_tensor(5, 8, -1.0, 1.0);
        let small = GraphContext::new(&g, feats, vec![0, 1, 2, 0, 1], 3);
        let mut t2 = Tape::new();
        let b = m.forward(&mut t2, &small, Mode::Eval, &mut rng);
        assert_eq!(t2.value(b.logits).rows(), 5);
    }

    #[test]
    #[should_panic(expected = "not suitable for inductive")]
    fn weighted_panics_on_foreign_graph() {
        let m = Lasagne::new(8, 3, Some(60), &cfg(AggregatorKind::Weighted, 3), 0);
        let g = lasagne_graph::Graph::from_edges(5, &[(0, 1)]);
        let mut rng = TensorRng::seed_from_u64(0);
        let feats = rng.uniform_tensor(5, 8, -1.0, 1.0);
        let ctx = GraphContext::new(&g, feats, vec![0; 5], 3);
        let mut tape = Tape::new();
        let _ = m.forward(&mut tape, &ctx, Mode::Eval, &mut rng);
    }

    #[test]
    fn stochastic_probabilities_start_at_one() {
        let m = Lasagne::new(8, 3, Some(60), &cfg(AggregatorKind::Stochastic, 5), 0);
        let p = m.stochastic_probabilities().unwrap();
        assert_eq!(p.shape(), (60, 4));
        assert!(p.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
        let w = Lasagne::new(8, 3, Some(60), &cfg(AggregatorKind::Weighted, 4), 0);
        assert!(w.stochastic_probabilities().is_none());
    }

    #[test]
    fn stochastic_eval_is_deterministic_train_is_not() {
        let (ctx, _) = tiny_ctx(4);
        let m = Lasagne::new(8, 3, Some(60), &cfg(AggregatorKind::Stochastic, 4), 0);
        let mut rng = TensorRng::seed_from_u64(0);
        let mut t1 = Tape::new();
        let a = m.forward(&mut t1, &ctx, Mode::Eval, &mut rng);
        let mut t2 = Tape::new();
        let b = m.forward(&mut t2, &ctx, Mode::Eval, &mut rng);
        assert!(t1.value(a.logits).approx_eq(t2.value(b.logits), 0.0));
        // Training forwards differ thanks to gate sampling + dropout.
        let mut t3 = Tape::new();
        let c = m.forward(&mut t3, &ctx, Mode::Train, &mut rng);
        let mut t4 = Tape::new();
        let d = m.forward(&mut t4, &ctx, Mode::Train, &mut rng);
        assert!(!t3.value(c.logits).approx_eq(t4.value(d.logits), 1e-9));
    }

    #[test]
    fn ablation_without_gcfm_builds_plain_gc_head() {
        let cfg = cfg(AggregatorKind::Weighted, 4).with_gcfm(false);
        let (ctx, train) = tiny_ctx(5);
        let mut m = Lasagne::new(8, 3, Some(60), &cfg, 0);
        assert!(m.name().contains("noFM"));
        let (first, last) = fit(&mut m, &ctx, &train, 30);
        assert!(last < first);
    }

    #[test]
    fn table7_base_models_build_and_learn() {
        let (ctx, train) = tiny_ctx(6);
        for base in [BaseConv::Sgc, BaseConv::Gat] {
            let cfg = cfg(AggregatorKind::Stochastic, 3).with_base(base);
            let mut m = Lasagne::new(8, 3, Some(60), &cfg, 0);
            let (first, last) = fit(&mut m, &ctx, &train, 80);
            assert!(
                last < first * 0.9,
                "{}: loss {first} → {last}",
                m.name()
            );
        }
    }

    #[test]
    fn names_describe_configuration() {
        let m = Lasagne::new(8, 3, Some(60), &cfg(AggregatorKind::Weighted, 4), 0);
        assert_eq!(m.name(), "Lasagne(Weighted)-4");
        let g = Lasagne::new(
            8,
            3,
            Some(60),
            &cfg(AggregatorKind::Stochastic, 3).with_base(BaseConv::Gat),
            0,
        );
        assert_eq!(g.name(), "Lasagne(Stochastic)+GAT-3");
    }
}
