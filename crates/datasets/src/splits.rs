//! Train/validation/test splits.

use lasagne_tensor::TensorRng;

/// Disjoint node-index sets for training, validation and testing.
#[derive(Clone, Debug, Default)]
pub struct Split {
    /// Labeled training nodes.
    pub train: Vec<usize>,
    /// Early-stopping validation nodes.
    pub val: Vec<usize>,
    /// Held-out test nodes.
    pub test: Vec<usize>,
}

impl Split {
    /// Sanity check: all three sets are pairwise disjoint and within bounds.
    pub fn validate(&self, n: usize) {
        let mut seen = vec![0u8; n];
        for (&mark, set) in [(1u8, &self.train), (2, &self.val), (4, &self.test)]
            .iter()
            .map(|(m, s)| (m, *s))
        {
            for &i in set {
                assert!(i < n, "split index {i} out of range {n}");
                assert_eq!(seen[i], 0, "node {i} appears in two split sets");
                seen[i] = mark;
            }
        }
    }
}

/// Planetoid-style stratified split over `candidates` (usually all nodes;
/// for the bipartite Tencent graph, item nodes only):
///
/// * `train_total / classes` training nodes drawn per class (stratified, as
///   in the fixed Planetoid splits the paper uses);
/// * `val` then `test` nodes drawn randomly from the remainder.
pub fn stratified_split(
    candidates: &[usize],
    labels: &[usize],
    classes: usize,
    train_total: usize,
    val: usize,
    test: usize,
    rng: &mut TensorRng,
) -> Split {
    assert!(
        train_total + val + test <= candidates.len(),
        "split sizes {train_total}+{val}+{test} exceed pool {}",
        candidates.len()
    );
    let per_class = (train_total / classes).max(1);

    let mut shuffled: Vec<usize> = candidates.to_vec();
    rng.shuffle(&mut shuffled);

    let mut train = Vec::with_capacity(train_total);
    let mut counts = vec![0usize; classes];
    let mut rest = Vec::with_capacity(shuffled.len());
    for &v in &shuffled {
        let c = labels[v];
        if train.len() < train_total && counts[c] < per_class {
            counts[c] += 1;
            train.push(v);
        } else {
            rest.push(v);
        }
    }
    // Top up if some classes were too small to deliver their quota.
    let mut extra = Vec::new();
    for &v in &rest {
        if train.len() >= train_total {
            extra.push(v);
        } else {
            train.push(v);
        }
    }
    let val_set: Vec<usize> = extra.iter().take(val).copied().collect();
    let test_set: Vec<usize> = extra.iter().skip(val).take(test).copied().collect();
    assert_eq!(train.len(), train_total, "stratified_split: underfilled train");
    Split {
        train,
        val: val_set,
        test: test_set,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize, classes: usize) -> Vec<usize> {
        (0..n).map(|i| i % classes).collect()
    }

    #[test]
    fn sizes_and_disjointness() {
        let n = 500;
        let l = labels(n, 5);
        let cand: Vec<usize> = (0..n).collect();
        let mut rng = TensorRng::seed_from_u64(0);
        let s = stratified_split(&cand, &l, 5, 100, 150, 200, &mut rng);
        assert_eq!(s.train.len(), 100);
        assert_eq!(s.val.len(), 150);
        assert_eq!(s.test.len(), 200);
        s.validate(n);
    }

    #[test]
    fn train_is_class_balanced() {
        let n = 600;
        let l = labels(n, 6);
        let cand: Vec<usize> = (0..n).collect();
        let mut rng = TensorRng::seed_from_u64(1);
        let s = stratified_split(&cand, &l, 6, 120, 100, 100, &mut rng);
        let mut counts = vec![0usize; 6];
        for &v in &s.train {
            counts[l[v]] += 1;
        }
        assert!(counts.iter().all(|&c| c == 20), "counts {counts:?}");
    }

    #[test]
    fn split_respects_candidate_subset() {
        // Only even nodes are candidates (bipartite item-only splits).
        let n = 400;
        let l = labels(n, 4);
        let cand: Vec<usize> = (0..n).filter(|v| v % 2 == 0).collect();
        let mut rng = TensorRng::seed_from_u64(2);
        let s = stratified_split(&cand, &l, 4, 40, 40, 40, &mut rng);
        for set in [&s.train, &s.val, &s.test] {
            assert!(set.iter().all(|&v| v % 2 == 0));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let n = 300;
        let l = labels(n, 3);
        let cand: Vec<usize> = (0..n).collect();
        let a = stratified_split(&cand, &l, 3, 30, 50, 50, &mut TensorRng::seed_from_u64(9));
        let b = stratified_split(&cand, &l, 3, 30, 50, 50, &mut TensorRng::seed_from_u64(9));
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    #[should_panic(expected = "exceed pool")]
    fn oversized_split_rejected() {
        let l = labels(10, 2);
        let cand: Vec<usize> = (0..10).collect();
        let mut rng = TensorRng::seed_from_u64(3);
        stratified_split(&cand, &l, 2, 5, 5, 5, &mut rng);
    }

    #[test]
    #[should_panic(expected = "two split sets")]
    fn validate_catches_overlap() {
        let s = Split {
            train: vec![1],
            val: vec![1],
            test: vec![],
        };
        s.validate(5);
    }
}
