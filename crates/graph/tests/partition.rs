//! Property suite for the partitioner and the `Partitioning` layer
//! (ISSUE 9 satellite): coverage, balance, determinism across thread
//! counts, k=1 degeneration, typed bad-k errors, and the core-rows SpMM
//! bitwise lemma.

use lasagne_graph::{generators, partition_bfs, Graph, GraphError, Partitioning};
use lasagne_tensor::{Tensor, TensorRng};

fn sbm(nodes: usize, seed: u64) -> Graph {
    let mut rng = TensorRng::seed_from_u64(seed);
    let (g, _labels) = generators::dc_sbm(
        &generators::DcSbmConfig {
            nodes,
            classes: 4,
            avg_degree: 6.0,
            homophily: 0.8,
            power_exponent: 2.5,
            max_weight_ratio: 50.0,
        },
        &mut rng,
    );
    g
}

fn star(n: usize) -> Graph {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
    Graph::from_edges(n, &edges)
}

fn path(n: usize) -> Graph {
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
    Graph::from_edges(n, &edges)
}

#[test]
fn every_node_in_exactly_one_part() {
    for (g, seed) in [(sbm(300, 1), 10u64), (star(64), 11), (path(97), 12)] {
        for k in [1usize, 2, 5, 13] {
            let mut rng = TensorRng::seed_from_u64(seed);
            let p = Partitioning::new(&g, k, &mut rng).unwrap();
            assert_eq!(p.num_parts(), k);
            let mut owner = vec![None; g.num_nodes()];
            for (pi, part) in p.parts().iter().enumerate() {
                for &v in &part.core {
                    assert!(owner[v].is_none(), "node {v} owned twice (k={k})");
                    owner[v] = Some(pi);
                }
            }
            for (v, o) in owner.iter().enumerate() {
                assert!(o.is_some(), "node {v} unowned (k={k})");
            }
        }
    }
}

#[test]
fn parts_respect_the_balance_bound() {
    // BFS growth caps parts at ceil(n/k) and the leftover pass only tops up
    // parts strictly below the cap, so the bound holds unconditionally.
    for (g, seed) in [(sbm(300, 2), 20u64), (star(50), 21), (path(101), 22)] {
        let n = g.num_nodes();
        for k in [1usize, 3, 7, 16] {
            let mut rng = TensorRng::seed_from_u64(seed);
            let p = Partitioning::new(&g, k, &mut rng).unwrap();
            let cap = n.div_ceil(k);
            for part in p.parts() {
                assert!(part.core.len() <= cap, "part of {} > cap {cap} (k={k})", part.core.len());
            }
        }
    }
}

#[test]
fn partitioning_is_identical_across_thread_counts() {
    // partition_bfs is serial by design; this pins the contract that the
    // layout is a function of (graph, k, seed) only, never of the pool size.
    let g = sbm(400, 3);
    let reference: Vec<_> = {
        lasagne_par::set_threads(1);
        let mut rng = TensorRng::seed_from_u64(30);
        let p = Partitioning::new(&g, 8, &mut rng).unwrap();
        p.parts().to_vec()
    };
    for threads in [1usize, 4] {
        lasagne_par::set_threads(threads);
        let mut rng = TensorRng::seed_from_u64(30);
        let p = Partitioning::new(&g, 8, &mut rng).unwrap();
        assert_eq!(p.parts(), &reference[..], "layout changed at {threads} threads");
    }
    lasagne_par::set_threads(1);
}

#[test]
fn k1_degenerates_to_the_resident_path() {
    let g = sbm(120, 5);
    let mut rng = TensorRng::seed_from_u64(50);
    let p = Partitioning::new(&g, 1, &mut rng).unwrap();
    assert_eq!(p.num_parts(), 1);
    assert_eq!(p.parts()[0].core, (0..120).collect::<Vec<_>>());
}

#[test]
fn bad_k_is_a_typed_error() {
    let g = path(10);
    let mut rng = TensorRng::seed_from_u64(60);
    for k in [0usize, 11, 10_000] {
        match Partitioning::new(&g, k, &mut rng) {
            Err(GraphError::InvalidPartitionCount { k: ek, n }) => {
                assert_eq!((ek, n), (k, 10));
            }
            other => panic!("k={k}: expected typed error, got {other:?}"),
        }
    }
    // The raw partitioner errors identically.
    assert!(partition_bfs(&g, 0, &mut rng).is_err());
}

#[test]
fn core_rows_read_in_place_are_bitwise_rows_of_full_spmm() {
    // The lemma the out-of-core evaluator rests on: SpMM accumulates each
    // output element over the row's stored nonzeros in order from +0.0, and
    // `spmm_rows` runs exactly that sum over the operand rows read in place
    // — so a part's core rows equal those rows of the full product bit for
    // bit, at any thread count.
    let g = sbm(180, 7);
    let n = g.num_nodes();
    for op in [g.normalized_adjacency(), g.adjacency().clone()] {
        for threads in [1usize, 4] {
            lasagne_par::set_threads(threads);
            let mut xr = TensorRng::seed_from_u64(80);
            let x = xr.uniform_tensor(n, 9, -1.0, 1.0);
            let full = op.spmm(&x);
            let mut rng = TensorRng::seed_from_u64(81);
            let p = Partitioning::new(&g, 5, &mut rng).unwrap();
            for part in p.parts() {
                let ours = op.spmm_rows(&part.core, &x);
                for (local, &row) in part.core.iter().enumerate() {
                    for c in 0..9 {
                        assert_eq!(
                            ours.get(local, c).to_bits(),
                            full.get(row, c).to_bits(),
                            "row {row} col {c} differs (threads={threads})"
                        );
                    }
                }
            }
        }
    }
    lasagne_par::set_threads(1);
}

#[test]
fn empty_parts_are_allowed_and_sink_last() {
    // n barely above k: BFS fronts can exhaust the graph before every part
    // seeds; empty parts are kept (deterministic arity) and ordered last.
    let g = star(5);
    let mut rng = TensorRng::seed_from_u64(90);
    let p = Partitioning::new(&g, 4, &mut rng).unwrap();
    assert_eq!(p.num_parts(), 4);
    let total: usize = p.parts().iter().map(|b| b.core.len()).sum();
    assert_eq!(total, 5);
    let mut seen_empty = false;
    for part in p.parts() {
        if part.core.is_empty() {
            seen_empty = true;
        } else {
            assert!(!seen_empty, "non-empty part after an empty one");
        }
    }
}

#[test]
fn gather_rows_tensor_is_a_bitwise_copy() {
    // Partition eval moves feature rows around with Tensor::gather_rows;
    // pin that it is a pure row copy.
    let mut rng = TensorRng::seed_from_u64(100);
    let x = rng.uniform_tensor(17, 5, -3.0, 3.0);
    let rows = [3usize, 0, 16, 3];
    let gathered = Tensor::gather_rows(&x, &rows);
    for (i, &r) in rows.iter().enumerate() {
        for c in 0..5 {
            assert_eq!(gathered.get(i, c).to_bits(), x.get(r, c).to_bits());
        }
    }
}
