//! Graph algorithms backing the paper's analyses.

use std::collections::VecDeque;

use lasagne_tensor::TensorRng;

use crate::error::GraphError;
use crate::Graph;

/// BFS hop distances from `source`; unreachable nodes get `u32::MAX`.
pub fn bfs_distances(g: &Graph, source: usize) -> Vec<u32> {
    assert!(source < g.num_nodes(), "bfs_distances: source out of range");
    let mut dist = vec![u32::MAX; g.num_nodes()];
    dist[source] = 0;
    let mut queue = VecDeque::with_capacity(64);
    queue.push_back(source as u32);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u as usize) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Connected components; returns `(component_id_per_node, component_count)`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.num_nodes();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = count;
        queue.push_back(start as u32);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u as usize) {
                if comp[v as usize] == usize::MAX {
                    comp[v as usize] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Average Path Length (Eq 8 of the paper): the mean shortest-path distance
/// over connected node pairs. The paper uses APL to justify its depth-sweep
/// range ("each node theoretically should capture the max L-hop
/// neighborhood").
///
/// Exhaustive BFS from every node is O(N·(N+M)); when `sample_sources` is
/// `Some(s)` only `s` random sources are used (unbiased for the pair
/// average on connected graphs).
pub fn average_path_length(
    g: &Graph,
    sample_sources: Option<usize>,
    rng: &mut TensorRng,
) -> f64 {
    let n = g.num_nodes();
    if n < 2 {
        return 0.0;
    }
    let sources: Vec<usize> = match sample_sources {
        Some(s) if s < n => rng.sample_indices(n, s),
        _ => (0..n).collect(),
    };
    let mut total = 0u64;
    let mut pairs = 0u64;
    for &s in &sources {
        for (v, &d) in bfs_distances(g, s).iter().enumerate() {
            if v != s && d != u32::MAX {
                total += d as u64;
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        0.0
    } else {
        total as f64 / pairs as f64
    }
}

/// PageRank by power iteration with damping `d` (the paper measures node
/// locality with "the page rank (PR) score", §5.2.2). Dangling mass is
/// redistributed uniformly; the result sums to 1.
pub fn pagerank(g: &Graph, damping: f32, iterations: usize) -> Vec<f32> {
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let inv_n = 1.0 / n as f32;
    let mut rank = vec![inv_n; n];
    let degrees = g.degrees();
    let mut next = vec![0.0f32; n];
    for _ in 0..iterations {
        next.iter_mut().for_each(|v| *v = 0.0);
        let mut dangling = 0.0f32;
        for u in 0..n {
            if degrees[u] == 0 {
                dangling += rank[u];
                continue;
            }
            let share = rank[u] / degrees[u] as f32;
            for &v in g.neighbors(u) {
                next[v as usize] += share;
            }
        }
        let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
        for v in next.iter_mut() {
            *v = base + damping * *v;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Average local clustering coefficient (triangle density around each node).
pub fn clustering_coefficient(g: &Graph) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    for v in 0..n {
        let nb = g.neighbors(v);
        let k = nb.len();
        if k < 2 {
            continue;
        }
        let mut links = 0usize;
        for (ai, &a) in nb.iter().enumerate() {
            let a_nb = g.neighbors(a as usize);
            for &b in &nb[ai + 1..] {
                // Neighbor lists are sorted (CSR invariant) — binary search.
                if a_nb.binary_search(&b).is_ok() {
                    links += 1;
                }
            }
        }
        total += 2.0 * links as f64 / (k * (k - 1)) as f64;
    }
    total / n as f64
}

/// Partition nodes into `k` balanced parts by seeded BFS growth — the
/// lightweight METIS stand-in behind the ClusterGCN baseline. Every node is
/// assigned to exactly one part; parts are grown breadth-first from random
/// seeds so they are locally coherent. Every part holds at most
/// `ceil(n / k)` nodes; parts may be empty when the BFS fronts exhaust the
/// graph early (e.g. `n` barely above `k`).
///
/// The algorithm is serial and consumes exactly one `rng.shuffle`, so the
/// result depends only on `(g, k, rng state)` — never on `LASAGNE_THREADS`.
///
/// Errors with [`GraphError::InvalidPartitionCount`] unless
/// `1 <= k <= max(n, 1)`.
pub fn partition_bfs(
    g: &Graph,
    k: usize,
    rng: &mut TensorRng,
) -> Result<Vec<Vec<usize>>, GraphError> {
    let n = g.num_nodes();
    if k < 1 || k > n.max(1) {
        return Err(GraphError::InvalidPartitionCount { k, n });
    }
    let cap = n.div_ceil(k);
    let mut part_of = vec![usize::MAX; n];
    let mut parts: Vec<Vec<usize>> = vec![Vec::with_capacity(cap); k];
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);

    let mut queue = VecDeque::new();
    let mut cursor = 0usize; // scans `order` for unassigned seeds
    for (p, part) in parts.iter_mut().enumerate() {
        // Seed: next unassigned node.
        while cursor < n && part_of[order[cursor]] != usize::MAX {
            cursor += 1;
        }
        if cursor >= n {
            break;
        }
        let seed = order[cursor];
        part_of[seed] = p;
        part.push(seed);
        queue.clear();
        queue.push_back(seed as u32);
        while let Some(u) = queue.pop_front() {
            if part.len() >= cap {
                break;
            }
            for &v in g.neighbors(u as usize) {
                if part.len() >= cap {
                    break;
                }
                if part_of[v as usize] == usize::MAX {
                    part_of[v as usize] = p;
                    part.push(v as usize);
                    queue.push_back(v);
                }
            }
        }
    }
    // Leftovers (disconnected remainders): round-robin into the lightest part.
    for (v, slot) in part_of.iter_mut().enumerate() {
        if *slot == usize::MAX {
            let lightest = (0..k).min_by_key(|&p| parts[p].len()).expect("k >= 1");
            *slot = lightest;
            parts[lightest].push(v);
        }
    }
    Ok(parts)
}

/// Uniformly sample up to `k` neighbors of `v` without replacement (the
/// GraphSAGE neighborhood sampler). Returns all neighbors when `degree ≤ k`.
pub fn sample_neighbors(g: &Graph, v: usize, k: usize, rng: &mut TensorRng) -> Vec<u32> {
    let nb = g.neighbors(v);
    if nb.len() <= k {
        return nb.to_vec();
    }
    rng.sample_indices(nb.len(), k)
        .into_iter()
        .map(|i| nb[i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path5() -> Graph {
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bfs_on_path() {
        let d = bfs_distances(&path5(), 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn components_counted() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
    }

    #[test]
    fn apl_exact_on_path() {
        // Path of 5: pair distances sum = 2*(1+2+3+4 + 1+2+3 + 1+2 + 1) = 40
        // over 20 ordered pairs → APL = 2.0.
        let mut rng = TensorRng::seed_from_u64(0);
        let apl = average_path_length(&path5(), None, &mut rng);
        assert!((apl - 2.0).abs() < 1e-9);
    }

    #[test]
    fn apl_sampled_close_to_exact() {
        let mut rng = TensorRng::seed_from_u64(1);
        // A ring: exact APL is (1+2+...+floor(n/2) doubled appropriately);
        // compare sampled against exhaustive instead of closed form.
        let edges: Vec<(u32, u32)> = (0..30u32).map(|i| (i, (i + 1) % 30)).collect();
        let g = Graph::from_edges(30, &edges);
        let exact = average_path_length(&g, None, &mut rng);
        let sampled = average_path_length(&g, Some(10), &mut rng);
        assert!((exact - sampled).abs() < 0.5, "exact {exact} sampled {sampled}");
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hub_highest() {
        // Star graph: center must dominate.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let pr = pagerank(&g, 0.85, 100);
        assert!((pr.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        for leaf in 1..5 {
            assert!(pr[0] > pr[leaf]);
        }
    }

    #[test]
    fn pagerank_uniform_on_ring() {
        let edges: Vec<(u32, u32)> = (0..6u32).map(|i| (i, (i + 1) % 6)).collect();
        let g = Graph::from_edges(6, &edges);
        let pr = pagerank(&g, 0.85, 100);
        for &p in &pr {
            assert!((p - 1.0 / 6.0).abs() < 1e-4);
        }
    }

    #[test]
    fn clustering_triangle_vs_path() {
        let triangle = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!((clustering_coefficient(&triangle) - 1.0).abs() < 1e-9);
        assert_eq!(clustering_coefficient(&path5()), 0.0);
    }

    #[test]
    fn partition_covers_all_nodes_disjointly() {
        let mut rng = TensorRng::seed_from_u64(2);
        let edges: Vec<(u32, u32)> = (0..99u32).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(100, &edges);
        let parts = partition_bfs(&g, 4, &mut rng).unwrap();
        let mut seen = [false; 100];
        for part in &parts {
            for &v in part {
                assert!(!seen[v], "node {v} in two parts");
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Balanced within the ceiling.
        for part in &parts {
            assert!(part.len() <= 25);
        }
    }

    #[test]
    fn partition_single_part_is_everything() {
        let mut rng = TensorRng::seed_from_u64(3);
        let parts = partition_bfs(&path5(), 1, &mut rng).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 5);
    }

    #[test]
    fn partition_bad_k_is_typed_not_a_panic() {
        // Regression for the old `assert!(k >= 1 && k <= n.max(1))`.
        let mut rng = TensorRng::seed_from_u64(5);
        let g = path5();
        assert_eq!(
            partition_bfs(&g, 0, &mut rng),
            Err(GraphError::InvalidPartitionCount { k: 0, n: 5 })
        );
        assert_eq!(
            partition_bfs(&g, 6, &mut rng),
            Err(GraphError::InvalidPartitionCount { k: 6, n: 5 })
        );
        // Empty graph: only k=1 is valid and yields one empty part.
        let empty = Graph::from_edges(0, &[]);
        assert_eq!(partition_bfs(&empty, 1, &mut rng), Ok(vec![Vec::new()]));
        assert!(partition_bfs(&empty, 2, &mut rng).is_err());
    }

    #[test]
    fn neighbor_sampling_bounds() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let mut rng = TensorRng::seed_from_u64(4);
        let s = sample_neighbors(&g, 0, 3, &mut rng);
        assert_eq!(s.len(), 3);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
        // Degree ≤ k returns everything.
        assert_eq!(sample_neighbors(&g, 1, 3, &mut rng), vec![0]);
    }
}
