//! The recommendation dataset (DESIGN.md §15): the bipartite user–item
//! generator wired into a leave-one-out top-k evaluation with per-edge
//! rating/recency features.
//!
//! Layout follows [`lasagne_graph::generators::bipartite_user_item`]: item
//! nodes come first (`0..items`), then user nodes (`items..items+users`).
//! For every user with at least two interactions, the *most recent* one
//! (highest timestamp bucket, ties to the higher item id) is held out; the
//! training graph, the edge-feature table, the interaction mask, and the
//! popularity baseline are all built from the remaining edges only, so no
//! evaluation signal leaks into training.

use std::collections::HashMap;

use lasagne_graph::generators::{bipartite_user_item, BipartiteConfig};
use lasagne_graph::Graph;
use lasagne_sparse::{Csr, EdgeData};
use lasagne_tensor::{Tensor, TensorRng};

/// Shape of a generated recommendation dataset.
#[derive(Clone, Debug)]
pub struct RecConfig {
    /// Number of item nodes (labels = categories).
    pub items: usize,
    /// Number of user nodes.
    pub users: usize,
    /// Number of item categories.
    pub classes: usize,
    /// Node-feature dimensionality.
    pub features: usize,
    /// Mean interactions per user (before holdout).
    pub avg_user_degree: f64,
    /// Timestamp buckets for the recency edge attribute.
    pub time_buckets: usize,
    /// Pareto exponent of item popularity. Lower = heavier head (a few
    /// blockbuster items soak up most interactions), higher = flatter
    /// catalog where personalization is the only signal.
    pub popularity_exponent: f64,
    /// Probability a user interaction stays inside their preferred
    /// category; the remainder goes to globally-popular items of any class.
    pub user_focus: f64,
}

impl Default for RecConfig {
    fn default() -> RecConfig {
        RecConfig {
            items: 900,
            users: 600,
            classes: 6,
            features: 32,
            avg_user_degree: 8.0,
            time_buckets: 8,
            popularity_exponent: 1.9,
            user_focus: 0.75,
        }
    }
}

/// Hit-rate@k and NDCG@k over the leave-one-out holdout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecEval {
    /// Fraction of evaluated users whose held-out item made the top-k.
    pub hit_rate: f64,
    /// Mean `1/log2(rank+2)` over evaluated users (0 when missed).
    pub ndcg: f64,
    /// Number of users with a holdout.
    pub users_evaluated: usize,
}

/// A bipartite recommendation dataset with edge features and a
/// leave-one-out holdout.
pub struct RecDataset {
    /// Training interaction graph (holdout edges removed), items first.
    pub graph: Graph,
    /// `nnz×2` edge features aligned to `graph.adjacency()`:
    /// `[(rating-3)/2, bucket/(B-1) - 0.5]`.
    pub edge_data: EdgeData,
    /// `N×F` node features.
    pub features: Tensor,
    /// Item category / user preferred category per node.
    pub labels: Vec<usize>,
    /// Number of categories.
    pub num_classes: usize,
    /// Item-node count (nodes `0..items`).
    pub items: usize,
    /// User-node count (nodes `items..items+users`).
    pub users: usize,
    /// Item nodes used for the classification training loss.
    pub train_items: Vec<usize>,
    /// One `(user_node, held_out_item)` pair per eligible user.
    pub holdout: Vec<(usize, usize)>,
    /// `users×items` binary training-interaction matrix — the serve-side
    /// candidate mask and the popularity baseline's count source.
    pub interacted: Csr,
    /// Training interaction count per item (popularity).
    pub item_counts: Vec<usize>,
    /// Edge-feature width (2: rating, recency).
    pub edge_dim: usize,
}

/// Score accumulation shared with the serving engine: plain ascending-index
/// dot product, so training-side rankings are bitwise the engine's.
pub fn dot_score(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// The shared ranking order: score descending, ties to the lower item id.
pub fn sort_ranked(scored: &mut [(usize, f32)]) {
    scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
}

impl RecConfig {
    /// The shape `rec-bench` and the CLI `rec` subcommand share (the
    /// conformance drive regenerates it from the seed, so both sides must
    /// agree): more categories than the classification default so
    /// class-space dot products carry ranking signal, a flatter catalog
    /// (Pareto exponent 3.5) and focused users (0.85) — the regime where
    /// personalization rather than blockbuster-counting decides the top-k.
    pub fn demo() -> RecConfig {
        RecConfig {
            items: 600,
            users: 400,
            classes: 12,
            features: 32,
            avg_user_degree: 8.0,
            time_buckets: 8,
            popularity_exponent: 3.5,
            user_focus: 0.85,
        }
    }
}

impl RecDataset {
    /// Generate deterministically from a seed.
    pub fn generate(cfg: &RecConfig, seed: u64) -> RecDataset {
        assert!(cfg.time_buckets >= 2, "rec: need ≥ 2 time buckets for recency");
        let mut rng = TensorRng::seed_from_u64(seed ^ 0x7ec0_44d5);
        let b = bipartite_user_item(
            &BipartiteConfig {
                items: cfg.items,
                users: cfg.users,
                classes: cfg.classes,
                avg_user_degree: cfg.avg_user_degree,
                popularity_exponent: cfg.popularity_exponent,
                user_focus: cfg.user_focus,
                time_buckets: cfg.time_buckets,
            },
            &mut rng,
        );
        let n = cfg.items + cfg.users;

        // Group interactions by user; hold out each user's most recent one
        // (highest bucket, ties to the higher item id) when they have ≥ 2.
        let mut by_user: Vec<Vec<usize>> = vec![Vec::new(); cfg.users];
        for (e, &(_, u)) in b.interactions.iter().enumerate() {
            by_user[u as usize - cfg.items].push(e);
        }
        let mut held = vec![false; b.interactions.len()];
        let mut holdout: Vec<(usize, usize)> = Vec::new();
        for (u, edges) in by_user.iter().enumerate() {
            if edges.len() < 2 {
                continue;
            }
            let &pick = edges
                .iter()
                .max_by_key(|&&e| (b.edge_time_buckets[e], b.interactions[e].0))
                .expect("non-empty");
            held[pick] = true;
            holdout.push((cfg.items + u, b.interactions[pick].0 as usize));
        }

        // Training structure + per-direction attribute map.
        let mut train_edges: Vec<(u32, u32)> = Vec::new();
        let mut attrs: HashMap<(u32, u32), (u8, u8)> = HashMap::new();
        let mut item_counts = vec![0usize; cfg.items];
        let mut mask_coo: Vec<(u32, u32, f32)> = Vec::new();
        for (e, &(item, user)) in b.interactions.iter().enumerate() {
            if held[e] {
                continue;
            }
            train_edges.push((item, user));
            attrs.insert((item, user), (b.edge_ratings[e], b.edge_time_buckets[e]));
            item_counts[item as usize] += 1;
            mask_coo.push((user - cfg.items as u32, item, 1.0));
        }
        let graph = Graph::from_edges(n, &train_edges);
        let buckets = cfg.time_buckets as f32;
        let edge_data = EdgeData::for_csr(graph.adjacency(), 2, |r, c, out| {
            let key = if (r as usize) < cfg.items { (r, c) } else { (c, r) };
            let (rating, bucket) = attrs[&key];
            out[0] = (rating as f32 - 3.0) / 2.0;
            out[1] = bucket as f32 / (buckets - 1.0) - 0.5;
        });
        let interacted = Csr::from_coo(cfg.users, cfg.items, &mask_coo);

        // Node features: category centroid + noise, users noisier (their
        // taste is latent; the interactions carry the signal).
        let per_coord = 1.0 / (cfg.features as f32).sqrt();
        let centroids = rng.normal_tensor(cfg.classes, cfg.features, 0.0, per_coord);
        let mut features = Tensor::zeros(n, cfg.features);
        let mut labels = vec![0usize; n];
        for (v, label) in labels.iter_mut().enumerate() {
            *label = if v < cfg.items {
                b.item_labels[v]
            } else {
                b.user_prefs[v - cfg.items]
            };
            let sigma = per_coord * if v < cfg.items { 0.6 } else { 1.2 };
            for (x, &mu) in features.row_mut(v).iter_mut().zip(centroids.row(*label)) {
                *x = mu + sigma * rng.normal();
            }
        }

        RecDataset {
            graph,
            edge_data,
            features,
            labels,
            num_classes: cfg.classes,
            items: cfg.items,
            users: cfg.users,
            train_items: (0..cfg.items).collect(),
            holdout,
            interacted,
            item_counts,
            edge_dim: 2,
        }
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.items + self.users
    }

    /// Top-k items for `user_node` by dot-product score over an `N×C`
    /// logits matrix, masking training interactions — the exact ordering
    /// the serving engine's `recommend` must reproduce bitwise.
    pub fn score_topk(&self, logits: &Tensor, user_node: usize, k: usize) -> Vec<usize> {
        let u = user_node - self.items;
        let mask = self.interacted.row_indices(u);
        let urow = logits.row(user_node);
        let mut scored: Vec<(usize, f32)> = (0..self.items)
            .filter(|&i| mask.binary_search(&(i as u32)).is_err())
            .map(|i| (i, dot_score(urow, logits.row(i))))
            .collect();
        sort_ranked(&mut scored);
        scored.truncate(k);
        scored.into_iter().map(|(i, _)| i).collect()
    }

    /// Top-k items by global training popularity (ties to the lower id),
    /// masking training interactions — the baseline any learned ranker has
    /// to beat.
    pub fn popularity_topk(&self, user_node: usize, k: usize) -> Vec<usize> {
        let u = user_node - self.items;
        let mask = self.interacted.row_indices(u);
        let mut scored: Vec<(usize, f32)> = (0..self.items)
            .filter(|&i| mask.binary_search(&(i as u32)).is_err())
            .map(|i| (i, self.item_counts[i] as f32))
            .collect();
        sort_ranked(&mut scored);
        scored.truncate(k);
        scored.into_iter().map(|(i, _)| i).collect()
    }

    /// Evaluate a ranker over the holdout: `rank(user_node)` returns its
    /// top-k items (already masked).
    pub fn evaluate<F: FnMut(usize) -> Vec<usize>>(&self, k: usize, mut rank: F) -> RecEval {
        let mut hits = 0usize;
        let mut ndcg = 0.0f64;
        for &(user_node, item) in &self.holdout {
            let top = rank(user_node);
            debug_assert!(top.len() <= k);
            if let Some(pos) = top.iter().position(|&i| i == item) {
                hits += 1;
                ndcg += 1.0 / ((pos as f64) + 2.0).log2();
            }
        }
        let m = self.holdout.len().max(1) as f64;
        RecEval {
            hit_rate: hits as f64 / m,
            ndcg: ndcg / m,
            users_evaluated: self.holdout.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RecConfig {
        RecConfig {
            items: 120,
            users: 80,
            classes: 4,
            features: 12,
            avg_user_degree: 5.0,
            time_buckets: 6,
            ..RecConfig::default()
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = RecDataset::generate(&small(), 3);
        let b = RecDataset::generate(&small(), 3);
        assert_eq!(a.graph.edges(), b.graph.edges());
        assert_eq!(a.holdout, b.holdout);
        assert!(a
            .edge_data
            .as_slice()
            .iter()
            .zip(b.edge_data.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(a
            .features
            .as_slice()
            .iter()
            .zip(b.features.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn holdout_edges_leave_the_training_graph() {
        let ds = RecDataset::generate(&small(), 1);
        assert!(!ds.holdout.is_empty());
        for &(user_node, item) in &ds.holdout {
            assert!(user_node >= ds.items && user_node < ds.num_nodes());
            assert!(item < ds.items);
            // Not in the training adjacency, not in the mask.
            assert_eq!(
                ds.graph.adjacency().edge_position(item as u32, user_node as u32),
                None
            );
            let u = user_node - ds.items;
            assert!(ds
                .interacted
                .row_indices(u)
                .binary_search(&(item as u32))
                .is_err());
            // The user still has at least one training interaction.
            assert!(ds.interacted.row_nnz(u) >= 1);
        }
        ds.edge_data.check_aligned(ds.graph.adjacency()).unwrap();
    }

    #[test]
    fn rankers_mask_interacted_items() {
        let ds = RecDataset::generate(&small(), 2);
        let user_node = ds.holdout[0].0;
        let u = user_node - ds.items;
        let mask = ds.interacted.row_indices(u);
        let top = ds.popularity_topk(user_node, 10);
        for &i in &top {
            assert!(mask.binary_search(&(i as u32)).is_err(), "recommended an interacted item");
        }
    }

    #[test]
    fn evaluate_scores_a_perfect_oracle_at_one() {
        let ds = RecDataset::generate(&small(), 4);
        let holdout: HashMap<usize, usize> = ds.holdout.iter().copied().collect();
        let eval = ds.evaluate(10, |user| vec![holdout[&user]]);
        assert_eq!(eval.hit_rate, 1.0);
        assert_eq!(eval.ndcg, 1.0);
        assert_eq!(eval.users_evaluated, ds.holdout.len());
    }
}
