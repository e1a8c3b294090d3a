//! Lasagne configuration: aggregator choice, base convolution, GC-FM.

use lasagne_gnn::Hyper;

/// The three node-aware layer aggregators of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregatorKind {
    /// Eq (5): trainable per-node, per-layer weights `C(l) ∈ R^{N×l}`.
    /// Transductive only (the weights are tied to the training graph).
    Weighted,
    /// §4.1.2: element-wise max over (projected) previous layers — the
    /// constrained one-hot `C`; no extra aggregation parameters, valid
    /// inductively (the only variant used in Table 4).
    MaxPooling,
    /// Eq (6): per-node Bernoulli gates with trainable logits
    /// `P ∈ R^{N×L}`, sampled each iteration (stochastic-depth style),
    /// straight-through gradients. Transductive only.
    Stochastic,
    /// Uniform mean over the (projected) previous layers — one of the
    /// "other custom aggregation operations (e.g., mean, LSTM)" §4.1 says
    /// are possible. *Not* node-aware: kept as the natural ablation that
    /// isolates how much of Lasagne's gain comes from node awareness
    /// rather than from dense layer aggregation alone. Inductive-capable
    /// (no per-node parameters).
    Mean,
}

impl AggregatorKind {
    /// The paper's three node-aware variants, in the tables' order.
    pub fn all() -> [AggregatorKind; 3] {
        [
            AggregatorKind::Weighted,
            AggregatorKind::Stochastic,
            AggregatorKind::MaxPooling,
        ]
    }

    /// All variants including the non-node-aware Mean extension.
    pub fn extended() -> [AggregatorKind; 4] {
        [
            AggregatorKind::Weighted,
            AggregatorKind::Stochastic,
            AggregatorKind::MaxPooling,
            AggregatorKind::Mean,
        ]
    }

    /// Table row label.
    pub fn label(self) -> &'static str {
        match self {
            AggregatorKind::Weighted => "Weighted",
            AggregatorKind::Stochastic => "Stochastic",
            AggregatorKind::MaxPooling => "Max pooling",
            AggregatorKind::Mean => "Mean",
        }
    }

    /// Whether the aggregator's parameters are independent of the node set
    /// (required for inductive tasks; see §5.2.1 "Inductive").
    pub fn inductive_capable(self) -> bool {
        matches!(self, AggregatorKind::MaxPooling | AggregatorKind::Mean)
    }
}

/// Per-layer node aggregation operation — Lasagne "is also applicable to
/// other models (e.g., GAT, GraphSAGE)" (§4); Table 7 evaluates GCN, SGC
/// and GAT bases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseConv {
    /// `ReLU(Â H W)` — the default.
    Gcn,
    /// `Â² (H W)` — SGC's linearized propagation (power 2, no activation).
    Sgc,
    /// Single-head additive attention over neighborhoods.
    Gat,
}

impl BaseConv {
    /// Table row label.
    pub fn label(self) -> &'static str {
        match self {
            BaseConv::Gcn => "GCN",
            BaseConv::Sgc => "SGC",
            BaseConv::Gat => "GAT",
        }
    }
}

/// Full Lasagne configuration.
#[derive(Debug, Clone)]
pub struct LasagneConfig {
    /// Per-hidden-layer widths (length = depth − 1; the final layer outputs
    /// classes). Unequal widths are allowed — that is a Lasagne feature.
    pub hidden_dims: Vec<usize>,
    /// Which layer aggregator to use.
    pub aggregator: AggregatorKind,
    /// Which per-layer convolution to use (Table 7).
    pub base: BaseConv,
    /// Use the GC-FM output layer (turn off to reproduce the Table 6
    /// ablation's "baseline" rows, which use a plain GC output layer).
    pub use_gcfm: bool,
    /// FM latent dimension k (paper: 5).
    pub gcfm_k: usize,
    /// Dropout keep probability.
    pub dropout_keep: f32,
    /// Apply the paper's final `ReLU(Â O)` verbatim. Eq (7) writes the
    /// output activation as ReLU, but zero-clipping logits before the
    /// softmax starves gradients and we measured a large accuracy loss and
    /// seed variance with it on (see EXPERIMENTS.md); the published PyTorch
    /// reference almost certainly feeds pre-activation logits to the
    /// classifier, so the default here is `false` (`Â O` only).
    pub final_relu: bool,
    /// GAT slope when `base == Gat`.
    pub gat_slope: f32,
}

impl LasagneConfig {
    /// Uniform-width configuration from the shared [`Hyper`] block.
    pub fn from_hyper(hyper: &Hyper, aggregator: AggregatorKind) -> LasagneConfig {
        assert!(hyper.depth >= 2, "LasagneConfig: depth must be ≥ 2");
        LasagneConfig {
            hidden_dims: vec![hyper.hidden; hyper.depth - 1],
            aggregator,
            base: BaseConv::Gcn,
            use_gcfm: true,
            gcfm_k: hyper.gcfm_k,
            dropout_keep: hyper.dropout_keep,
            final_relu: false,
            gat_slope: hyper.gat_slope,
        }
    }

    /// Total layer count (hidden layers + output layer).
    pub fn depth(&self) -> usize {
        self.hidden_dims.len() + 1
    }

    /// Builder: swap the base convolution.
    pub fn with_base(mut self, base: BaseConv) -> Self {
        self.base = base;
        self
    }

    /// Builder: toggle GC-FM (Table 6 ablation).
    pub fn with_gcfm(mut self, on: bool) -> Self {
        self.use_gcfm = on;
        self
    }

    /// Builder: set explicitly non-uniform hidden widths.
    pub fn with_hidden_dims(mut self, dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "with_hidden_dims: need at least one layer");
        self.hidden_dims = dims;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_hyper_uniform_dims() {
        let cfg = LasagneConfig::from_hyper(
            &Hyper::default().with_depth(5).with_hidden(48),
            AggregatorKind::Weighted,
        );
        assert_eq!(cfg.hidden_dims, vec![48; 4]);
        assert_eq!(cfg.depth(), 5);
        assert!(cfg.use_gcfm);
    }

    #[test]
    fn per_node_aggregators_are_not_inductive() {
        assert!(AggregatorKind::MaxPooling.inductive_capable());
        assert!(AggregatorKind::Mean.inductive_capable());
        assert!(!AggregatorKind::Weighted.inductive_capable());
        assert!(!AggregatorKind::Stochastic.inductive_capable());
    }

    #[test]
    fn extended_superset_of_paper_variants() {
        let paper = AggregatorKind::all();
        let ext = AggregatorKind::extended();
        assert_eq!(ext.len(), 4);
        for a in paper {
            assert!(ext.contains(&a));
        }
    }

    #[test]
    fn builders_compose() {
        let cfg = LasagneConfig::from_hyper(&Hyper::default().with_depth(3), AggregatorKind::Weighted)
            .with_base(BaseConv::Sgc)
            .with_gcfm(false)
            .with_hidden_dims(vec![16, 32, 24]);
        assert_eq!(cfg.base, BaseConv::Sgc);
        assert!(!cfg.use_gcfm);
        assert_eq!(cfg.depth(), 4);
    }

    #[test]
    fn labels_match_tables() {
        assert_eq!(AggregatorKind::MaxPooling.label(), "Max pooling");
        assert_eq!(BaseConv::Sgc.label(), "SGC");
    }
}
