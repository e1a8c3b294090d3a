//! Out-of-core fault coverage: spilled partition blocks live in the same
//! checksum envelope as checkpoints, so a flipped bit or a truncated file
//! must always surface as a typed [`TrainError`] — never load as a
//! silently-wrong subgraph. Deterministic fault injection via
//! `lasagne_testkit::fault`, same as the checkpoint suite.

use std::path::{Path, PathBuf};

use lasagne_datasets::{Dataset, DatasetId};
use lasagne_graph::partition_bfs;
use lasagne_tensor::TensorRng;
use lasagne_testkit::rng::Rng;
use lasagne_testkit::{flip_byte, truncate_file};
use lasagne_train::{PartitionStore, SpilledBlock, TrainError};

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lasagne-partfault-{name}-{}", std::process::id()))
}

fn spill(dir: &Path) -> (Dataset, PartitionStore) {
    let ds = Dataset::generate(DatasetId::Cora, 0);
    let parts = partition_bfs(&ds.graph, 3, &mut TensorRng::seed_from_u64(1)).expect("partition");
    let store = PartitionStore::spill(dir, &ds, &parts).expect("spill");
    (ds, store)
}

fn block_path(dir: &Path, b: usize) -> PathBuf {
    dir.join(format!("block_{b:05}.json"))
}

fn assert_same_block(a: &SpilledBlock, b: &SpilledBlock) {
    assert_eq!(a.part, b.part);
    assert_eq!(a.core, b.core);
    assert_eq!(a.edges, b.edges);
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.train_idx, b.train_idx);
    let ab: Vec<u32> = a.features.as_slice().iter().map(|v| v.to_bits()).collect();
    let bb: Vec<u32> = b.features.as_slice().iter().map(|v| v.to_bits()).collect();
    assert_eq!(ab, bb, "feature payloads differ");
}

#[test]
fn flipped_bits_in_block_files_always_fail_typed_or_load_pristine() {
    let dir = temp_dir("flip");
    let (_ds, store) = spill(&dir);
    let pristine: Vec<SpilledBlock> =
        (0..store.num_blocks()).map(|b| store.load_block(b).expect("pristine")).collect();

    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    for trial in 0..24 {
        let b = trial % store.num_blocks();
        let path = block_path(&dir, b);
        let original = std::fs::read(&path).expect("read block");
        let (offset, was, now) = flip_byte(&path, &mut rng).expect("flip");
        match store.load_block(b) {
            // The expected outcomes: checksum mismatch, unparseable JSON,
            // or a structural/version mismatch.
            Err(
                TrainError::Corrupt(_)
                | TrainError::Parse(_)
                | TrainError::Io(_)
                | TrainError::Mismatch(_),
            ) => {}
            // The loader hashes the stored bytes and accepts only the
            // writer's layout, so no flip should load (an upper-cased
            // checksum digit is `Corrupt` too). If one ever does, the
            // payload must be the pristine block, bit for bit.
            Ok(loaded) => assert_same_block(&pristine[b], &loaded),
            Err(e) => panic!(
                "trial {trial}: flip at byte {offset} ({was:#04x}->{now:#04x}) \
                 produced a non-storage error: {e}"
            ),
        }
        std::fs::write(&path, &original).expect("restore block");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_block_files_always_fail_typed() {
    let dir = temp_dir("trunc");
    let (_ds, store) = spill(&dir);
    let path = block_path(&dir, 0);
    let original = std::fs::read(&path).expect("read block");

    for &fraction in &[0.0, 0.1, 0.5, 0.9, 0.999] {
        std::fs::write(&path, &original).expect("restore block");
        truncate_file(&path, fraction).expect("truncate");
        match store.load_block(0) {
            Err(TrainError::Parse(_) | TrainError::Corrupt(_) | TrainError::Io(_)) => {}
            Ok(_) => panic!("block truncated to {fraction} of its bytes still loaded"),
            Err(e) => panic!("truncation to {fraction} produced a non-storage error: {e}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_and_mislabeled_blocks_fail_typed() {
    let dir = temp_dir("missing");
    let (_ds, store) = spill(&dir);

    // Deleted block file → Io, not a panic.
    let path = block_path(&dir, 1);
    std::fs::remove_file(&path).expect("remove");
    match store.load_block(1) {
        Err(TrainError::Io(_)) => {}
        other => panic!("expected Io for a missing block, got {other:?}"),
    }

    // A block index past the manifest → InvalidConfig.
    match store.load_block(99) {
        Err(TrainError::InvalidConfig(_)) => {}
        other => panic!("expected InvalidConfig for block 99, got {other:?}"),
    }

    // A block file copied into the wrong slot → Mismatch (part index is
    // stored in the body and cross-checked).
    std::fs::copy(block_path(&dir, 0), &path).expect("copy");
    match store.load_block(1) {
        Err(TrainError::Mismatch(_)) => {}
        other => panic!("expected Mismatch for a mislabeled block, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_manifests_fail_typed_on_open() {
    let dir = temp_dir("manifest");
    let (_ds, _store) = spill(&dir);
    let path = dir.join("manifest.json");

    truncate_file(&path, 0.5).expect("truncate");
    match PartitionStore::open(&dir) {
        Err(TrainError::Parse(_) | TrainError::Corrupt(_) | TrainError::Io(_)) => {}
        other => panic!("expected a typed storage error opening a torn manifest, got {other:?}"),
    }

    // A block file renamed over the manifest parses and checksums fine but
    // is the wrong kind — refused typed.
    std::fs::copy(block_path(&dir, 0), &path).expect("copy");
    match PartitionStore::open(&dir) {
        Err(TrainError::Mismatch(_)) => {}
        other => panic!("expected Mismatch for a wrong-kind manifest, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
