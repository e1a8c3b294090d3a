//! The recommendation-serving contract (DESIGN.md §15):
//!
//! 1. `Engine::recommend` reproduces the training-side ranker
//!    (`RecDataset::score_topk` over tape-path eval logits) **bitwise** —
//!    same items, same scores — at 1 and 4 `lasagne-par` threads.
//! 2. The `rec` block survives save → load byte-deterministically.
//! 3. Every misuse fails typed: items and out-of-range ids are
//!    `unknown_user`, a fully-masked user is `no_candidates`, a
//!    node-classification artifact is `not_a_recommender`, and `k = 0` is a
//!    `bad_request` at the protocol layer.
//! 4. The wire path (`recommend` verb over a live TCP server) agrees with
//!    the in-process engine and enforces the same typed errors.
//! 5. The partition-lazy engine recommends what the resident one does:
//!    same items, same score bits, same error kinds.

use std::rc::Rc;

use lasagne_autograd::{Adam, Optimizer, Tape};
use lasagne_datasets::{dot_score, sort_ranked, RecConfig, RecDataset};
use lasagne_gnn::{models, GraphContext, Hyper, Mode, NodeClassifier};
use lasagne_serve::{
    freeze, freeze_rec, Client, Engine, FrozenModel, FrozenRec, LazyEngine, Request, ServeError,
    Server, ServerConfig,
};
use lasagne_sparse::Csr;
use lasagne_tensor::TensorRng;
use lasagne_testkit::Json;

fn small_cfg() -> RecConfig {
    RecConfig {
        items: 60,
        users: 40,
        classes: 4,
        features: 16,
        avg_user_degree: 4.0,
        time_buckets: 6,
        ..RecConfig::default()
    }
}

fn rec_ctx(ds: &RecDataset) -> GraphContext {
    GraphContext::with_edge_data(
        &ds.graph,
        ds.features.clone(),
        ds.labels.clone(),
        ds.num_classes,
        &ds.edge_data,
    )
    .expect("rec dataset edge data is aligned by construction")
}

fn tiny_hyper() -> Hyper {
    Hyper { hidden: 4, depth: 2, dropout_keep: 1.0, ..Hyper::default() }
}

/// An edge-gated model trained for two epochs on the item-classification
/// loss — enough to move weights off their init so the equivalence checks
/// run on non-trivial values.
fn trained_model(ds: &RecDataset, ctx: &GraphContext) -> models::EdgeGatedGcn {
    let mut model =
        models::EdgeGatedGcn::new(ds.features.shape().1, ds.num_classes, ds.edge_dim, &tiny_hyper(), 5);
    let labels = Rc::new(ds.labels.clone());
    let idx = Rc::new(ds.train_items.clone());
    let mut opt = Adam::new(model.store(), 0.01, 5e-4);
    let mut rng = TensorRng::seed_from_u64(3);
    for _ in 0..2 {
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, ctx, Mode::Train, &mut rng);
        let lp = tape.log_softmax(out.logits);
        let loss = tape.nll_masked(lp, labels.clone(), idx.clone());
        model.store_mut().zero_grads();
        tape.backward(loss, model.store_mut());
        opt.step(model.store_mut());
    }
    model
}

fn frozen_rec_block(ds: &RecDataset) -> FrozenRec {
    FrozenRec { items: ds.items, users: ds.users, interacted: ds.interacted.clone() }
}

fn training_logits(model: &dyn NodeClassifier, ctx: &GraphContext) -> lasagne_tensor::Tensor {
    let mut rng = TensorRng::seed_from_u64(7);
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, ctx, Mode::Eval, &mut rng);
    tape.value(out.logits).clone()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lasagne-rec-{name}-{}.json", std::process::id()))
}

#[test]
fn recommend_matches_training_side_ranker_bitwise() {
    let ds = RecDataset::generate(&small_cfg(), 9);
    let ctx = rec_ctx(&ds);
    let model = trained_model(&ds, &ctx);
    let frozen = freeze_rec(&model, &ctx, "rec-tiny", frozen_rec_block(&ds)).expect("freeze_rec");
    for &threads in &[1usize, 4] {
        lasagne_par::set_threads(threads);
        let logits = training_logits(&model, &ctx);
        let engine = Engine::new(frozen.clone()).expect("engine");
        assert!(engine.is_recommender());
        for &(user_node, _) in &ds.holdout {
            // Item ids agree with the dataset-side ranker...
            let served = engine.recommend(user_node, 10).expect("recommend");
            let reference = ds.score_topk(&logits, user_node, 10);
            let served_items: Vec<usize> = served.iter().map(|&(i, _)| i).collect();
            assert_eq!(
                served_items, reference,
                "user {user_node} @ {threads} thread(s): ranking diverged"
            );
            // ...and the scores are bitwise the shared dot_score contract.
            for &(item, score) in &served {
                let expect = dot_score(logits.row(user_node), logits.row(item));
                assert_eq!(
                    score.to_bits(),
                    expect.to_bits(),
                    "user {user_node} item {item}: score not bitwise-equal"
                );
            }
        }
    }
}

#[test]
fn rec_block_round_trips_byte_deterministically() {
    let ds = RecDataset::generate(&small_cfg(), 4);
    let ctx = rec_ctx(&ds);
    let model = trained_model(&ds, &ctx);
    let frozen = freeze_rec(&model, &ctx, "rec-tiny", frozen_rec_block(&ds)).expect("freeze_rec");
    let (a, b) = (temp_path("rt-a"), temp_path("rt-b"));
    frozen.save(&a).expect("save a");
    freeze_rec(&model, &ctx, "rec-tiny", frozen_rec_block(&ds))
        .expect("freeze_rec again")
        .save(&b)
        .expect("save b");
    assert_eq!(
        std::fs::read(&a).expect("read a"),
        std::fs::read(&b).expect("read b"),
        "rec export must be byte-deterministic"
    );
    let loaded = Engine::new(FrozenModel::load(&a).expect("load")).expect("engine");
    let direct = Engine::new(frozen).expect("direct engine");
    assert!(loaded.is_recommender());
    let user_node = ds.holdout[0].0;
    let (from_file, from_mem) =
        (loaded.recommend(user_node, 10).expect("file"), direct.recommend(user_node, 10).expect("mem"));
    assert_eq!(from_file.len(), from_mem.len());
    for (&(ia, sa), &(ib, sb)) in from_file.iter().zip(&from_mem) {
        assert_eq!(ia, ib);
        assert_eq!(sa.to_bits(), sb.to_bits(), "round-trip changed a score");
    }
    let _ = std::fs::remove_file(a);
    let _ = std::fs::remove_file(b);
}

#[test]
fn recommend_never_returns_masked_or_duplicate_items() {
    let ds = RecDataset::generate(&small_cfg(), 5);
    let ctx = rec_ctx(&ds);
    let model = trained_model(&ds, &ctx);
    let engine =
        Engine::new(freeze_rec(&model, &ctx, "rec-tiny", frozen_rec_block(&ds)).expect("freeze"))
            .expect("engine");
    for u in 0..ds.users {
        let node = ds.items + u;
        let top = engine.recommend(node, 10).expect("recommend");
        let mask = ds.interacted.row_indices(u);
        let mut seen = std::collections::HashSet::new();
        for &(item, _) in &top {
            assert!(item < ds.items, "user {node}: non-item id {item}");
            assert!(
                mask.binary_search(&(item as u32)).is_err(),
                "user {node}: recommended interacted item {item}"
            );
            assert!(seen.insert(item), "user {node}: duplicate item {item}");
        }
        // Descending by score, ties to the lower id — re-sorting is a no-op.
        let mut resorted = top.clone();
        sort_ranked(&mut resorted);
        assert_eq!(top, resorted, "user {node}: ranking order violated");
    }
}

#[test]
fn recommend_fails_typed_on_misuse() {
    let ds = RecDataset::generate(&small_cfg(), 6);
    let ctx = rec_ctx(&ds);
    let model = trained_model(&ds, &ctx);
    let engine =
        Engine::new(freeze_rec(&model, &ctx, "rec-tiny", frozen_rec_block(&ds)).expect("freeze"))
            .expect("engine");
    // An item id and an out-of-range id are both unknown_user.
    for bad in [0usize, ds.items - 1, ds.num_nodes(), ds.num_nodes() + 100] {
        let err = engine.recommend(bad, 5).expect_err("must refuse");
        assert_eq!(err.kind(), "unknown_user", "node {bad}");
        assert_eq!(
            err,
            ServeError::UnknownUser { node: bad, items: ds.items, users: ds.users }
        );
    }
    // A user whose mask covers every item has nothing left to rank.
    let full_row: Vec<(u32, u32, f32)> = (0..ds.items as u32).map(|i| (0, i, 1.0)).collect();
    let all_masked = FrozenRec {
        items: ds.items,
        users: ds.users,
        interacted: Csr::from_coo(ds.users, ds.items, &full_row),
    };
    let engine2 =
        Engine::new(freeze_rec(&model, &ctx, "rec-tiny", all_masked).expect("freeze"))
            .expect("engine");
    let err = engine2.recommend(ds.items, 5).expect_err("must refuse");
    assert_eq!(err.kind(), "no_candidates");
    // A node-classification artifact (no rec block) refuses typed.
    let plain = Engine::new(freeze(&model, &ctx, "rec-tiny").expect("freeze plain"))
        .expect("plain engine");
    assert!(!plain.is_recommender());
    let err = plain.recommend(ds.items, 5).expect_err("must refuse");
    assert_eq!(err.kind(), "not_a_recommender");
}

#[test]
fn lazy_recommend_equals_resident_recommend() {
    let ds = RecDataset::generate(&small_cfg(), 12);
    let ctx = rec_ctx(&ds);
    let model = trained_model(&ds, &ctx);
    // User 0 has seen every item, so the sweep also meets `no_candidates`.
    let mut coo: Vec<(u32, u32, f32)> = (0..ds.items as u32).map(|i| (0, i, 1.0)).collect();
    for u in 1..ds.users {
        coo.extend(ds.interacted.row_indices(u).iter().map(|&i| (u as u32, i, 1.0)));
    }
    let rec = FrozenRec {
        items: ds.items,
        users: ds.users,
        interacted: Csr::from_coo(ds.users, ds.items, &coo),
    };
    let recommender = freeze_rec(&model, &ctx, "rec-tiny", rec).expect("freeze_rec");
    let classifier = freeze(&model, &ctx, "rec-tiny").expect("freeze");
    let bits = |r: Result<Vec<(usize, f32)>, ServeError>| {
        r.map(|v| v.into_iter().map(|(i, s)| (i, s.to_bits())).collect::<Vec<_>>())
            .map_err(|e| e.kind())
    };
    let mut kinds = std::collections::BTreeSet::new();
    for frozen in [recommender, classifier] {
        for &threads in &[1usize, 4] {
            lasagne_par::set_threads(threads);
            let resident = Engine::new(frozen.clone()).expect("engine");
            for parts in [1usize, 3, 5] {
                let lazy = LazyEngine::new(frozen.clone(), parts).expect("lazy engine");
                for node in 0..ds.num_nodes() + 2 {
                    let want = bits(resident.recommend(node, 10));
                    assert_eq!(
                        bits(lazy.recommend(node, 10)),
                        want,
                        "node {node} @ {threads} thread(s), {parts} parts"
                    );
                    kinds.insert(want.err().unwrap_or("ok"));
                }
            }
        }
    }
    lasagne_par::set_threads(1);
    let want = ["no_candidates", "not_a_recommender", "ok", "unknown_user"];
    assert_eq!(kinds.into_iter().collect::<Vec<_>>(), want, "outcomes covered");
}

#[test]
fn recommend_over_the_wire() {
    let ds = RecDataset::generate(&small_cfg(), 8);
    let ctx = rec_ctx(&ds);
    let model = trained_model(&ds, &ctx);
    let frozen = freeze_rec(&model, &ctx, "rec-tiny", frozen_rec_block(&ds)).expect("freeze_rec");
    let reference = Engine::new(frozen.clone()).expect("reference engine");
    let server = Server::start(
        Engine::new(frozen).expect("engine"),
        ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // Happy path agrees with the in-process engine, items and scores.
    let user_node = ds.holdout[0].0;
    let doc = client.recommend(user_node, 10).expect("recommend");
    let items = doc.get("items").and_then(Json::as_arr).expect("items array");
    let expect = reference.recommend(user_node, 10).expect("reference");
    assert_eq!(items.len(), expect.len());
    for (entry, &(item, score)) in items.iter().zip(&expect) {
        assert_eq!(entry.get("item").and_then(Json::as_usize), Some(item));
        let wire_score = entry.get("score").and_then(Json::as_f64).expect("score") as f32;
        assert_eq!(wire_score.to_bits(), score.to_bits(), "score drifted over the wire");
    }

    // k = 0 is rejected at parse time with a typed bad_request.
    let raw = client
        .roundtrip_raw(&format!("{{\"op\":\"recommend\",\"node\":{user_node},\"k\":0}}"))
        .expect("roundtrip");
    let doc = Json::parse(&raw).expect("parse");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doc.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("bad_request")
    );

    // An item id comes back unknown_user with the layout as structured hints.
    let doc = client.call(&Request::Recommend { node: 0, k: 5 }).expect("call");
    let error = doc.get("error").expect("error object");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("unknown_user"));
    assert_eq!(error.get("items").and_then(Json::as_usize), Some(ds.items));
    assert_eq!(error.get("users").and_then(Json::as_usize), Some(ds.users));

    // The connection survives all of the above.
    client.call_ok(&Request::Health).expect("health");
    client.call_ok(&Request::Shutdown).expect("shutdown ack");
}

#[test]
fn classifier_server_refuses_recommend_over_the_wire() {
    let ds = RecDataset::generate(&small_cfg(), 10);
    let ctx = rec_ctx(&ds);
    let model = trained_model(&ds, &ctx);
    // Frozen WITHOUT the rec block: an ordinary classification artifact.
    let server = Server::start(
        Engine::new(freeze(&model, &ctx, "rec-tiny").expect("freeze")).expect("engine"),
        ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .expect("server start");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let doc = client.call(&Request::Recommend { node: ds.items, k: 5 }).expect("call");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doc.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("not_a_recommender")
    );
    // predict still answers on the same connection.
    client.call_ok(&Request::Predict { node: 0 }).expect("predict");
    client.call_ok(&Request::Shutdown).expect("shutdown ack");
}

/// The member `key` of a JSON object.
fn member<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = obj else { panic!("'{key}' of a non-object") };
    &mut fields.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no '{key}'")).1
}

/// Checksum-valid artifacts whose interaction rows are not strictly
/// ascending: user 0 holding item 0 `items + 1` times (its mask is longer
/// than the item list), and user 0 holding `[5, 3]` (a binary search of
/// that row misses item 5). No `Csr` holds such rows, so each is written
/// by editing the `interacted` arrays of a valid artifact's body and
/// publishing it again under a valid checksum. Both engines refuse them at
/// load.
#[test]
fn unsorted_interaction_rows_are_refused_at_load_by_both_engines() {
    let ds = RecDataset::generate(&small_cfg(), 13);
    let ctx = rec_ctx(&ds);
    let model = trained_model(&ds, &ctx);
    let frozen = freeze_rec(&model, &ctx, "rec-tiny", frozen_rec_block(&ds)).expect("freeze_rec");
    let repeated = vec![0u32; ds.items + 1];
    let descending = vec![5u32, 3];
    for (what, row) in [("repeated", repeated), ("descending", descending)] {
        let mut indptr = vec![0, row.len()];
        indptr.resize(ds.users + 1, row.len());
        let mut body = frozen.to_json();
        let interacted = member(member(&mut body, "rec"), "interacted");
        *member(interacted, "indptr") = Json::Arr(indptr.iter().map(|&p| Json::Num(p as f64)).collect());
        *member(interacted, "indices") = Json::hex_words(row.iter().map(|c| c.to_le_bytes()));
        *member(interacted, "values") = Json::hex_words(row.iter().map(|_| 1f32.to_le_bytes()));
        let path = temp_path(what);
        lasagne_train::atomic_write_envelope(&path, body).expect("save edited artifact");
        let resident = Engine::load_path(&path).err().unwrap_or_else(|| panic!("{what} loaded"));
        assert_eq!(resident.kind(), "mismatch", "{what}: {resident}");
        let lazy = LazyEngine::load_path(&path, 2).err().unwrap_or_else(|| panic!("{what} loaded"));
        assert_eq!(lazy.kind(), "mismatch", "{what}: {lazy}");
        let _ = std::fs::remove_file(path);
    }
}
