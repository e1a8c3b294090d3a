//! Random-graph generators with planted community structure and hubs.
//!
//! These stand in for the paper's datasets (see DESIGN.md §3). The key
//! requirement, dictated by the paper's node-locality argument, is that
//! graphs must have **both** hubs (high-degree nodes whose multi-hop
//! neighborhoods cross cluster boundaries and over-smooth) and peripheral
//! nodes (which need depth to see enough signal). A degree-corrected
//! stochastic block model delivers exactly that.

use std::collections::HashSet;

use lasagne_tensor::TensorRng;

use crate::Graph;

/// Configuration of the degree-corrected stochastic block model.
#[derive(Clone, Debug)]
pub struct DcSbmConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of planted communities (= classes).
    pub classes: usize,
    /// Target mean degree.
    pub avg_degree: f64,
    /// Probability an edge stays within its endpoint's community.
    pub homophily: f64,
    /// Pareto exponent of node propensity weights (2–3 gives realistic
    /// heavy-tailed hubs).
    pub power_exponent: f64,
    /// Clip on `max weight / min weight` (keeps the biggest hub bounded).
    pub max_weight_ratio: f64,
}

/// Weighted sampler over a fixed set of node ids: cumulative sums + binary
/// search.
struct WeightedPool {
    ids: Vec<u32>,
    cumulative: Vec<f64>,
}

impl WeightedPool {
    fn new(ids: Vec<u32>, weights: &[f64]) -> WeightedPool {
        let mut cumulative = Vec::with_capacity(ids.len());
        let mut acc = 0.0;
        for &id in &ids {
            acc += weights[id as usize];
            cumulative.push(acc);
        }
        WeightedPool { ids, cumulative }
    }

    fn sample(&self, rng: &mut TensorRng) -> u32 {
        let total = *self.cumulative.last().expect("non-empty pool");
        let t = rng.uniform(0.0, 1.0) as f64 * total;
        let k = self.cumulative.partition_point(|&c| c < t);
        self.ids[k.min(self.ids.len() - 1)]
    }
}

/// Pareto-distributed node weight in `[1, ratio]`.
fn pareto_weight(rng: &mut TensorRng, exponent: f64, ratio: f64) -> f64 {
    let u: f64 = rng.uniform(f32::EPSILON, 1.0) as f64;
    u.powf(-1.0 / (exponent - 1.0)).min(ratio)
}

/// Degree-corrected SBM: returns the graph and the planted community label
/// of every node. Degrees are heavy-tailed (hubs), and a `homophily`
/// fraction of edges stay inside their community.
pub fn dc_sbm(cfg: &DcSbmConfig, rng: &mut TensorRng) -> (Graph, Vec<usize>) {
    assert!(cfg.classes >= 1, "dc_sbm: need at least one class");
    assert!(cfg.nodes >= cfg.classes * 2, "dc_sbm: too few nodes per class");
    assert!(
        (0.0..=1.0).contains(&cfg.homophily),
        "dc_sbm: homophily {} outside [0,1]",
        cfg.homophily
    );
    assert!(cfg.power_exponent > 1.0, "dc_sbm: exponent must exceed 1");

    let n = cfg.nodes;
    // Balanced random community assignment.
    let mut labels: Vec<usize> = (0..n).map(|i| i % cfg.classes).collect();
    rng.shuffle(&mut labels);

    let weights: Vec<f64> = (0..n)
        .map(|_| pareto_weight(rng, cfg.power_exponent, cfg.max_weight_ratio))
        .collect();

    let mut per_class_ids: Vec<Vec<u32>> = vec![Vec::new(); cfg.classes];
    for (v, &c) in labels.iter().enumerate() {
        per_class_ids[c].push(v as u32);
    }
    let class_pools: Vec<WeightedPool> = per_class_ids
        .into_iter()
        .map(|ids| WeightedPool::new(ids, &weights))
        .collect();
    let global_pool = WeightedPool::new((0..n as u32).collect(), &weights);

    let target_edges = (n as f64 * cfg.avg_degree / 2.0).round() as usize;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(target_edges);
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(target_edges * 2);
    let mut attempts = 0usize;
    let max_attempts = target_edges * 20 + 1000;
    while edges.len() < target_edges && attempts < max_attempts {
        attempts += 1;
        let u = global_pool.sample(rng);
        let v = if rng.bernoulli(cfg.homophily as f32) {
            class_pools[labels[u as usize]].sample(rng)
        } else if cfg.classes > 1 {
            // Pick a different community uniformly, then a node by weight.
            let mut other = rng.index(cfg.classes);
            if other == labels[u as usize] {
                other = (other + 1) % cfg.classes;
            }
            class_pools[other].sample(rng)
        } else {
            global_pool.sample(rng)
        };
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            edges.push(key);
        }
    }
    (Graph::from_edges(n, &edges), labels)
}

/// Configuration of the bipartite user–item generator (the Tencent
/// production-dataset substitute; see DESIGN.md §3).
#[derive(Clone, Debug)]
pub struct BipartiteConfig {
    /// Number of item (short-video) nodes — these carry the labels.
    pub items: usize,
    /// Number of user nodes.
    pub users: usize,
    /// Number of item classes.
    pub classes: usize,
    /// Mean number of items each user interacts with.
    pub avg_user_degree: f64,
    /// Pareto exponent of item popularity ("hot" videos).
    pub popularity_exponent: f64,
    /// Probability a user interaction stays inside the user's preferred
    /// class; the remainder goes to globally-popular items of any class,
    /// which is exactly what makes hot items indistinguishable by naive
    /// aggregation (§5.2.1 "Production").
    pub user_focus: f64,
    /// Number of timestamp buckets for per-edge recency attributes (≥ 1,
    /// ≤ 256; each interaction draws one uniformly).
    pub time_buckets: usize,
}

/// Output of [`bipartite_user_item`]: item nodes come first (`0..items`),
/// then user nodes (`items..items+users`).
pub struct BipartiteGraph {
    /// The full bipartite interaction graph.
    pub graph: Graph,
    /// Class label per item node.
    pub item_labels: Vec<usize>,
    /// Preferred class per user node.
    pub user_prefs: Vec<usize>,
    /// Popularity weight per item (Pareto).
    pub item_popularity: Vec<f64>,
    /// The `(item, user_node)` interactions in generation order — the key
    /// for the two attribute vectors below. `graph` re-sorts edges into CSR
    /// order, so downstream edge-feature alignment goes through this list.
    pub interactions: Vec<(u32, u32)>,
    /// Star rating in `1..=5` per interaction: skewed high when the item's
    /// class matches the user's preference, low otherwise — the link
    /// attribute carries class signal that node features alone don't.
    pub edge_ratings: Vec<u8>,
    /// Timestamp bucket in `0..time_buckets` per interaction.
    pub edge_time_buckets: Vec<u8>,
}

/// Generate the bipartite user–item graph.
pub fn bipartite_user_item(cfg: &BipartiteConfig, rng: &mut TensorRng) -> BipartiteGraph {
    assert!(cfg.classes >= 1 && cfg.items >= cfg.classes, "bipartite: sizes");
    assert!(
        (1..=256).contains(&cfg.time_buckets),
        "bipartite: time_buckets must be in 1..=256"
    );
    let mut item_labels: Vec<usize> = (0..cfg.items).map(|i| i % cfg.classes).collect();
    rng.shuffle(&mut item_labels);
    let item_popularity: Vec<f64> = (0..cfg.items)
        .map(|_| pareto_weight(rng, cfg.popularity_exponent, 1000.0))
        .collect();

    let mut per_class: Vec<Vec<u32>> = vec![Vec::new(); cfg.classes];
    for (i, &c) in item_labels.iter().enumerate() {
        per_class[c].push(i as u32);
    }
    let class_pools: Vec<WeightedPool> = per_class
        .into_iter()
        .map(|ids| WeightedPool::new(ids, &item_popularity))
        .collect();
    let global_pool = WeightedPool::new((0..cfg.items as u32).collect(), &item_popularity);

    let user_prefs: Vec<usize> = (0..cfg.users).map(|_| rng.index(cfg.classes)).collect();
    let n = cfg.items + cfg.users;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut edge_ratings: Vec<u8> = Vec::new();
    let mut edge_time_buckets: Vec<u8> = Vec::new();
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    for (u, &pref) in user_prefs.iter().enumerate() {
        let user_node = (cfg.items + u) as u32;
        // Poisson-ish interaction count around the mean, at least 1.
        let k = (cfg.avg_user_degree * (0.5 + rng.uniform(0.0, 1.0) as f64))
            .round()
            .max(1.0) as usize;
        let mut tries = 0;
        let mut added = 0;
        while added < k && tries < k * 10 {
            tries += 1;
            let item = if rng.bernoulli(cfg.user_focus as f32) {
                class_pools[pref].sample(rng)
            } else {
                global_pool.sample(rng)
            };
            if seen.insert((item, user_node)) {
                edges.push((item, user_node));
                // In-preference interactions rate 3..=5, off-preference
                // 1..=3 — the rating is the attribute that separates "my
                // kind of item" from "globally hot item I bounced off".
                let rating = if item_labels[item as usize] == pref {
                    3 + rng.index(3) as u8
                } else {
                    1 + rng.index(3) as u8
                };
                edge_ratings.push(rating);
                edge_time_buckets.push(rng.index(cfg.time_buckets) as u8);
                added += 1;
            }
        }
    }
    BipartiteGraph {
        graph: Graph::from_edges(n, &edges),
        item_labels,
        user_prefs,
        item_popularity,
        interactions: edges,
        edge_ratings,
        edge_time_buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: usize) -> DcSbmConfig {
        DcSbmConfig {
            nodes,
            classes: 5,
            avg_degree: 8.0,
            homophily: 0.85,
            power_exponent: 2.5,
            max_weight_ratio: 100.0,
        }
    }

    #[test]
    fn dc_sbm_sizes_and_determinism() {
        let mut r1 = TensorRng::seed_from_u64(42);
        let mut r2 = TensorRng::seed_from_u64(42);
        let (g1, l1) = dc_sbm(&cfg(500), &mut r1);
        let (g2, l2) = dc_sbm(&cfg(500), &mut r2);
        assert_eq!(g1.num_nodes(), 500);
        assert_eq!(l1, l2);
        assert_eq!(g1.edges(), g2.edges());
    }

    #[test]
    fn dc_sbm_hits_target_degree() {
        let mut rng = TensorRng::seed_from_u64(0);
        let (g, _) = dc_sbm(&cfg(2000), &mut rng);
        let avg = g.average_degree();
        assert!((avg - 8.0).abs() < 1.0, "avg degree {avg}");
    }

    #[test]
    fn dc_sbm_homophily_close_to_config() {
        let mut rng = TensorRng::seed_from_u64(1);
        let (g, labels) = dc_sbm(&cfg(2000), &mut rng);
        let h = g.edge_homophily(&labels);
        // The within-class endpoint is drawn by weight, so realized edge
        // homophily tracks the mixing parameter closely.
        assert!((h - 0.85).abs() < 0.06, "homophily {h}");
    }

    #[test]
    fn dc_sbm_has_hubs() {
        let mut rng = TensorRng::seed_from_u64(2);
        let (g, _) = dc_sbm(&cfg(2000), &mut rng);
        let max_deg = *g.degrees().iter().max().unwrap();
        let avg = g.average_degree();
        assert!(
            max_deg as f64 > 5.0 * avg,
            "max degree {max_deg} vs avg {avg} — expected heavy tail"
        );
    }

    #[test]
    fn dc_sbm_balanced_classes() {
        let mut rng = TensorRng::seed_from_u64(3);
        let (_, labels) = dc_sbm(&cfg(500), &mut rng);
        let mut counts = vec![0usize; 5];
        for &l in &labels {
            counts[l] += 1;
        }
        for &c in &counts {
            assert_eq!(c, 100);
        }
    }

    #[test]
    fn bipartite_structure() {
        let mut rng = TensorRng::seed_from_u64(6);
        let b = bipartite_user_item(
            &BipartiteConfig {
                items: 300,
                users: 200,
                classes: 6,
                avg_user_degree: 5.0,
                popularity_exponent: 2.0,
                user_focus: 0.8,
                time_buckets: 8,
            },
            &mut rng,
        );
        assert_eq!(b.graph.num_nodes(), 500);
        assert_eq!(b.item_labels.len(), 300);
        assert_eq!(b.user_prefs.len(), 200);
        // Bipartite: every edge joins an item (< 300) and a user (≥ 300).
        for &(u, v) in b.graph.edges() {
            assert!((u as usize) < 300 && (v as usize) >= 300);
        }
    }

    #[test]
    fn bipartite_edge_attributes_are_seed_stable_and_in_range() {
        let cfg = BipartiteConfig {
            items: 200,
            users: 150,
            classes: 5,
            avg_user_degree: 4.0,
            popularity_exponent: 2.0,
            user_focus: 0.75,
            time_buckets: 12,
        };
        let a = bipartite_user_item(&cfg, &mut TensorRng::seed_from_u64(11));
        let b = bipartite_user_item(&cfg, &mut TensorRng::seed_from_u64(11));
        // Same seed → bitwise-identical structure AND attributes.
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.edge_ratings, b.edge_ratings);
        assert_eq!(a.edge_time_buckets, b.edge_time_buckets);
        assert_eq!(a.interactions.len(), a.graph.num_edges());
        assert_eq!(a.edge_ratings.len(), a.interactions.len());
        assert_eq!(a.edge_time_buckets.len(), a.interactions.len());
        for (&r, &t) in a.edge_ratings.iter().zip(&a.edge_time_buckets) {
            assert!((1..=5).contains(&r), "rating {r} out of range");
            assert!((t as usize) < 12, "bucket {t} out of range");
        }
        // Ratings carry the class signal: in-preference edges rate 3..=5.
        for (e, &(item, user)) in a.interactions.iter().enumerate() {
            let pref = a.user_prefs[user as usize - 200];
            let rating = a.edge_ratings[e];
            if a.item_labels[item as usize] == pref {
                assert!(rating >= 3, "in-pref edge rated {rating}");
            } else {
                assert!(rating <= 3, "off-pref edge rated {rating}");
            }
        }
    }

    #[test]
    fn bipartite_hot_items_exist() {
        let mut rng = TensorRng::seed_from_u64(7);
        let b = bipartite_user_item(
            &BipartiteConfig {
                items: 300,
                users: 1000,
                classes: 6,
                avg_user_degree: 6.0,
                popularity_exponent: 1.8,
                user_focus: 0.7,
                time_buckets: 8,
            },
            &mut rng,
        );
        let item_degrees: Vec<usize> = (0..300).map(|i| b.graph.degree(i)).collect();
        let max = *item_degrees.iter().max().unwrap();
        let mean = item_degrees.iter().sum::<usize>() as f64 / 300.0;
        assert!(
            max as f64 > 4.0 * mean,
            "hot item degree {max} vs mean {mean}"
        );
    }
}
