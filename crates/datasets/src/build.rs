//! Dataset assembly: graph generation + features + splits, per spec.

use lasagne_graph::generators::{bipartite_user_item, dc_sbm, BipartiteConfig, DcSbmConfig};
use lasagne_graph::Graph;
use lasagne_tensor::{Tensor, TensorRng};

use crate::features::{generate_features, FeatureConfig};
use crate::spec::{spec, DatasetId, DatasetSpec};
use crate::splits::{stratified_split, Split};

/// A fully-materialized dataset: graph, features, labels and splits.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// The generation recipe (includes the paper's original statistics).
    pub spec: DatasetSpec,
    /// The graph.
    pub graph: Graph,
    /// `N×M` node features.
    pub features: Tensor,
    /// Class label per node (user nodes of the bipartite dataset carry a
    /// placeholder 0 and never appear in any split).
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// Train/val/test node indices.
    pub split: Split,
    /// The nodes splits are drawn from (all nodes, except Tencent where
    /// only item nodes are labeled).
    pub label_pool: Vec<usize>,
}

/// The training-time view of an inductive dataset: only the subgraph induced
/// by the training nodes is visible (GraphSAINT/GraphSAGE convention, used
/// for Flickr and Reddit in Table 4).
#[derive(Clone, Debug)]
pub struct InductiveView {
    /// Induced training subgraph (nodes renumbered).
    pub graph: Graph,
    /// Features of the training nodes.
    pub features: Tensor,
    /// Labels of the training nodes.
    pub labels: Vec<usize>,
    /// Map from local ids back to full-graph ids.
    pub original_ids: Vec<usize>,
}

impl Dataset {
    /// Deterministically generate the dataset for `id` from a seed.
    pub fn generate(id: DatasetId, seed: u64) -> Dataset {
        let s = spec(id);
        let mut rng = TensorRng::seed_from_u64(seed ^ fnv(s.name));
        match id {
            DatasetId::Tencent => build_bipartite(s, &mut rng),
            _ => build_dc_sbm(s, &mut rng),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Feature dimensionality.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// A copy with the training set resampled to `per_class` labeled nodes
    /// per class (Table 8's label-rate sweep); val/test are redrawn from the
    /// remainder with the original sizes.
    pub fn with_train_per_class(&self, per_class: usize, seed: u64) -> Dataset {
        let mut rng = TensorRng::seed_from_u64(seed);
        let split = stratified_split(
            &self.label_pool,
            &self.labels,
            self.num_classes,
            per_class * self.num_classes,
            self.split.val.len(),
            self.split.test.len(),
            &mut rng,
        );
        Dataset { split, ..self.clone() }
    }

    /// Training-subgraph view for inductive training.
    pub fn inductive_train_view(&self) -> InductiveView {
        let ids = self.split.train.clone();
        let graph = self.graph.induced_subgraph(&ids);
        let features = self.features.gather_rows(&ids);
        let labels: Vec<usize> = ids.iter().map(|&v| self.labels[v]).collect();
        InductiveView {
            graph,
            features,
            labels,
            original_ids: ids,
        }
    }

    /// Majority-class accuracy on the test set — the floor every model must
    /// beat.
    pub fn majority_baseline(&self) -> f64 {
        let mut counts = vec![0usize; self.num_classes];
        for &v in &self.split.train {
            counts[self.labels[v]] += 1;
        }
        let major = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(c, _)| c)
            .unwrap_or(0);
        let hits = self
            .split
            .test
            .iter()
            .filter(|&&v| self.labels[v] == major)
            .count();
        hits as f64 / self.split.test.len().max(1) as f64
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn build_dc_sbm(s: DatasetSpec, rng: &mut TensorRng) -> Dataset {
    let (graph, labels) = dc_sbm(
        &DcSbmConfig {
            nodes: s.nodes,
            classes: s.classes,
            avg_degree: s.avg_degree,
            homophily: s.homophily,
            power_exponent: s.power_exponent,
            max_weight_ratio: 100.0,
        },
        rng,
    );
    let features = generate_features(
        &graph,
        &labels,
        s.classes,
        &FeatureConfig {
            dim: s.features,
            signal: 1.0,
            noise_scale: s.noise_scale,
            degree_noise_exponent: s.degree_noise_exponent,
            mask_base: s.mask_base,
        },
        rng,
    );
    let pool: Vec<usize> = (0..s.nodes).collect();
    let split = stratified_split(&pool, &labels, s.classes, s.train, s.val, s.test, rng);
    split.validate(s.nodes);
    Dataset {
        num_classes: s.classes,
        spec: s,
        graph,
        features,
        labels,
        split,
        label_pool: pool,
    }
}

/// The Tencent substitute: a bipartite user–video graph where item features
/// get *noisier with popularity* — hot videos are watched across user
/// preference clusters, so their raw features (and any locality-blind
/// aggregation of them) are nearly class-uninformative. This is the paper's
/// own explanation of why node-awareness matters on this dataset (§5.2.1).
fn build_bipartite(s: DatasetSpec, rng: &mut TensorRng) -> Dataset {
    // 60% items, 40% users (the paper's graph: 57k videos / 43k users).
    let items = s.nodes * 6 / 10;
    let users = s.nodes - items;
    let b = bipartite_user_item(
        &BipartiteConfig {
            items,
            users,
            classes: s.classes,
            avg_user_degree: s.avg_degree,
            popularity_exponent: s.power_exponent,
            user_focus: s.homophily,
            time_buckets: 8,
        },
        rng,
    );
    let n = b.graph.num_nodes();

    // Class centroids shared by items and the users that prefer them.
    let per_coord = 1.0 / (s.features as f32).sqrt();
    let centroids = rng.normal_tensor(s.classes, s.features, 0.0, per_coord);
    let noise_per_coord = s.noise_scale / (s.features as f32).sqrt();
    let avg_item_deg = (0..items).map(|i| b.graph.degree(i)).sum::<usize>() as f32
        / items.max(1) as f32;

    let mut features = Tensor::zeros(n, s.features);
    let mut labels = vec![0usize; n];
    for (i, label) in labels.iter_mut().enumerate().take(items) {
        *label = b.item_labels[i];
        // Popularity-dependent noise: hot items are feature-ambiguous.
        let deg = b.graph.degree(i).max(1) as f32;
        let mult = (deg / avg_item_deg.max(1.0))
            .powf(s.degree_noise_exponent)
            .clamp(0.5, 4.0);
        let sigma = noise_per_coord * mult;
        for (v, &mu) in features.row_mut(i).iter_mut().zip(centroids.row(*label)) {
            *v = mu + sigma * rng.normal();
        }
    }
    for (u, &pref) in b.user_prefs.iter().enumerate() {
        let node = items + u;
        labels[node] = pref; // placeholder; user nodes never enter splits
        let sigma = noise_per_coord * 1.5;
        for (v, &mu) in features.row_mut(node).iter_mut().zip(centroids.row(pref)) {
            *v = mu + sigma * rng.normal();
        }
    }

    let pool: Vec<usize> = (0..items).collect();
    let split = stratified_split(&pool, &labels, s.classes, s.train, s.val, s.test, rng);
    split.validate(n);
    Dataset {
        num_classes: s.classes,
        spec: s,
        graph: b.graph,
        features,
        labels,
        split,
        label_pool: pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cora_matches_table_2_exactly() {
        let ds = Dataset::generate(DatasetId::Cora, 0);
        assert_eq!(ds.num_nodes(), 2708);
        assert_eq!(ds.num_classes, 7);
        assert_eq!(ds.split.train.len(), 140);
        assert_eq!(ds.split.val.len(), 500);
        assert_eq!(ds.split.test.len(), 1000);
        // Target degree ≈ Table 2's 2·5429/2708 ≈ 4.
        assert!((ds.graph.average_degree() - 4.0).abs() < 0.8);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Dataset::generate(DatasetId::Citeseer, 3);
        let b = Dataset::generate(DatasetId::Citeseer, 3);
        let c = Dataset::generate(DatasetId::Citeseer, 4);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.split.train, b.split.train);
        assert!(a.features.approx_eq(&b.features, 0.0));
        assert_ne!(a.split.train, c.split.train);
    }

    #[test]
    fn different_datasets_differ_under_same_seed() {
        let a = Dataset::generate(DatasetId::Cora, 0);
        let b = Dataset::generate(DatasetId::Citeseer, 0);
        assert_ne!(a.num_nodes(), b.num_nodes());
    }

    #[test]
    fn homophily_is_planted() {
        let ds = Dataset::generate(DatasetId::Cora, 1);
        let h = ds.graph.edge_homophily(&ds.labels);
        assert!(h > 0.8, "homophily {h}");
    }

    #[test]
    fn tencent_is_bipartite_with_item_only_splits() {
        let ds = Dataset::generate(DatasetId::Tencent, 0);
        let items = ds.label_pool.len();
        assert_eq!(items, 6000);
        for set in [&ds.split.train, &ds.split.val, &ds.split.test] {
            assert!(set.iter().all(|&v| v < items), "split leaks user nodes");
        }
        for &(u, v) in ds.graph.edges() {
            let iu = (u as usize) < items;
            let iv = (v as usize) < items;
            assert!(iu != iv, "edge ({u},{v}) not item–user");
        }
    }

    #[test]
    fn label_rate_resampling() {
        let ds = Dataset::generate(DatasetId::Cora, 0);
        let low = ds.with_train_per_class(5, 7);
        assert_eq!(low.split.train.len(), 35);
        assert_eq!(low.split.val.len(), 500);
        low.split.validate(low.num_nodes());
        // 5 per class exactly.
        let mut counts = [0usize; 7];
        for &v in &low.split.train {
            counts[low.labels[v]] += 1;
        }
        assert!(counts.iter().all(|&c| c == 5));
    }

    #[test]
    fn inductive_view_is_train_only() {
        let ds = Dataset::generate(DatasetId::Flickr, 0);
        let view = ds.inductive_train_view();
        assert_eq!(view.graph.num_nodes(), ds.split.train.len());
        assert_eq!(view.features.rows(), view.labels.len());
        // Labels survive the renumbering.
        for (local, &orig) in view.original_ids.iter().enumerate() {
            assert_eq!(view.labels[local], ds.labels[orig]);
        }
    }

    #[test]
    fn majority_baseline_is_low_on_balanced_data() {
        let ds = Dataset::generate(DatasetId::Cora, 0);
        let base = ds.majority_baseline();
        assert!(base < 0.3, "majority baseline {base} suspiciously high");
    }
}
