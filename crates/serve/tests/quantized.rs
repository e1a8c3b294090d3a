//! The quantized-path contract (DESIGN.md §13): exporting a frozen model
//! with `--export-quantized` compresses every matmul-only weight to i8
//! (per-row scales) or f16, the engines dequantize those weights once at
//! load and run the one f32 evaluator over them, and the resulting logits
//! stay within a documented tolerance of the exact f32 path:
//!
//! * i8:  `max |q_logit - f32_logit| <= 0.05 * (1 + max |f32_logit|)`
//! * f16: `max |q_logit - f32_logit| <= 2e-3 * (1 + max |f32_logit|)`
//! * argmax preservation: >= 90% of nodes keep their predicted class,
//!   per model, per mode.
//!
//! Checked across **all 17 model variants** (13 baselines + 4 Lasagne
//! aggregators), at 1 and 4 threads. Alongside the tolerance contract, two
//! exactness properties are pinned bitwise: engine logits equal
//! `evaluate_program` over the dequantized weights, and quantized exports
//! are byte-deterministic (and smaller than their f32 counterparts).
//!
//! The graph context here is wider than the frozen_forward one (24 input
//! dims, hidden 16) so the weight matrices clear the `r*c >= 64`
//! worth-compressing floor in `FrozenModel::quantize`.

use lasagne_core::{AggregatorKind, Lasagne, LasagneConfig};
use lasagne_gnn::{models, GraphContext, Hyper, NodeClassifier};
use lasagne_graph::generators::{dc_sbm, DcSbmConfig};
use lasagne_serve::{
    evaluate_program, freeze, Engine, FrozenModel, LazyEngine, QuantMatrix, QuantMode,
};
use lasagne_tensor::{Tensor, TensorRng};
use lasagne_testkit::gens::dense;
use lasagne_testkit::prop::{check, Config};

const IN_DIM: usize = 24;
const CLASSES: usize = 3;

fn wide_ctx(seed: u64) -> GraphContext {
    let mut rng = TensorRng::seed_from_u64(seed);
    let (g, labels) = dc_sbm(
        &DcSbmConfig {
            nodes: 24,
            classes: CLASSES,
            avg_degree: 4.0,
            homophily: 0.9,
            power_exponent: 2.5,
            max_weight_ratio: 20.0,
        },
        &mut rng,
    );
    let features = lasagne_datasets::generate_features(
        &g,
        &labels,
        CLASSES,
        &lasagne_datasets::FeatureConfig {
            dim: IN_DIM,
            signal: 1.5,
            noise_scale: 0.5,
            degree_noise_exponent: 0.3,
            mask_base: 0.0,
        },
        &mut rng,
    );
    GraphContext::new(&g, features, labels, CLASSES)
}

fn wide_hyper() -> Hyper {
    Hyper {
        hidden: 16,
        depth: 2,
        dropout_keep: 1.0,
        gat_heads: 2,
        appnp_k: 3,
        fastgcn_samples: 24,
        madreg_pairs: 8,
        sgc_k: 2,
        ..Hyper::default()
    }
}

fn all_models(n: usize) -> Vec<(&'static str, Box<dyn NodeClassifier>)> {
    let h = wide_hyper();
    let lasagne = |agg| -> Box<dyn NodeClassifier> {
        Box::new(Lasagne::new(IN_DIM, CLASSES, Some(n), &LasagneConfig::from_hyper(&h, agg), 5))
    };
    vec![
        ("gcn", Box::new(models::Gcn::new(IN_DIM, CLASSES, &h, 5))),
        ("resgcn", Box::new(models::ResGcn::new(IN_DIM, CLASSES, &h, 5))),
        ("densegcn", Box::new(models::DenseGcn::new(IN_DIM, CLASSES, &h, 5))),
        ("jknet", Box::new(models::JkNet::new(IN_DIM, CLASSES, &h, 5))),
        ("gat", Box::new(models::Gat::new(IN_DIM, CLASSES, &h, 5))),
        ("sgc", Box::new(models::Sgc::new(IN_DIM, CLASSES, &h, 5))),
        ("appnp", Box::new(models::Appnp::new(IN_DIM, CLASSES, &h, 5))),
        ("mixhop", Box::new(models::MixHop::new(IN_DIM, CLASSES, &h, 5))),
        ("dropedge", Box::new(models::DropEdgeGcn::new(IN_DIM, CLASSES, &h, 5))),
        ("pairnorm", Box::new(models::PairNormGcn::new(IN_DIM, CLASSES, &h, 5))),
        ("madreg", Box::new(models::MadRegGcn::new(IN_DIM, CLASSES, &h, 5))),
        ("graphsage", Box::new(models::GraphSage::new(IN_DIM, CLASSES, &h, 5))),
        ("fastgcn", Box::new(models::FastGcn::new(IN_DIM, CLASSES, &h, 5))),
        ("lasagne-weighted", lasagne(AggregatorKind::Weighted)),
        ("lasagne-stochastic", lasagne(AggregatorKind::Stochastic)),
        ("lasagne-maxpool", lasagne(AggregatorKind::MaxPooling)),
        ("lasagne-mean", lasagne(AggregatorKind::Mean)),
    ]
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lasagne-quant-{name}-{}.json", std::process::id()))
}

fn engine_logits(engine: &Engine) -> Vec<f32> {
    let mut out = Vec::new();
    for node in 0..engine.num_nodes() {
        out.extend_from_slice(engine.logits_row(node).expect("row"));
    }
    out
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

/// The documented end-to-end logit tolerance for a mode, given the exact
/// path's logit magnitude.
fn logit_tolerance(mode: QuantMode, max_abs_logit: f32) -> f32 {
    let rel = match mode {
        QuantMode::I8 => 0.05,
        QuantMode::F16 => 2e-3,
    };
    rel * (1.0 + max_abs_logit)
}

/// End-to-end contract over every model variant and both modes, at 1 and 4
/// threads: bounded logit error, >= 90% argmax preservation, quantized
/// file strictly smaller than the exact file.
#[test]
fn quantized_logit_tolerance_all_models() {
    let ctx = wide_ctx(11);
    for (name, model) in all_models(ctx.num_nodes()) {
        let exact_path = temp_path(&format!("{name}-exact"));
        freeze(model.as_ref(), &ctx, "tiny").expect("freeze").save(&exact_path).expect("save");
        let exact_size = std::fs::metadata(&exact_path).expect("stat").len();
        let exact =
            engine_logits(&Engine::new(FrozenModel::load(&exact_path).expect("load")).expect("engine"));
        let max_abs = exact.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for mode in [QuantMode::I8, QuantMode::F16] {
            let qpath = temp_path(&format!("{name}-{}", mode.as_str()));
            freeze(model.as_ref(), &ctx, "tiny")
                .expect("freeze")
                .quantize(mode)
                .expect("quantize")
                .save(&qpath)
                .expect("save");
            let qsize = std::fs::metadata(&qpath).expect("stat").len();
            assert!(
                qsize < exact_size,
                "{name}/{}: quantized file ({qsize} B) not smaller than exact ({exact_size} B)",
                mode.as_str()
            );
            let frozen = FrozenModel::load(&qpath).expect("load");
            assert!(frozen.is_quantized(), "{name}: round-trip lost quantization");
            let tol = logit_tolerance(mode, max_abs);
            for &threads in &[1usize, 4] {
                lasagne_par::set_threads(threads);
                let q = engine_logits(&Engine::new(FrozenModel::load(&qpath).expect("load")).expect("engine"));
                assert_eq!(q.len(), exact.len(), "{name}: logit count");
                let worst = q
                    .iter()
                    .zip(&exact)
                    .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
                assert!(
                    worst <= tol,
                    "{name}/{} @ {threads}t: logit error {worst} exceeds tolerance {tol}",
                    mode.as_str()
                );
                let kept = q
                    .chunks(CLASSES)
                    .zip(exact.chunks(CLASSES))
                    .filter(|(a, b)| argmax(a) == argmax(b))
                    .count();
                let total = q.len() / CLASSES;
                assert!(
                    kept * 10 >= total * 9,
                    "{name}/{} @ {threads}t: argmax preserved on only {kept}/{total} nodes",
                    mode.as_str()
                );
            }
            let _ = std::fs::remove_file(qpath);
        }
        let _ = std::fs::remove_file(exact_path);
    }
    lasagne_par::set_threads(1);
}

/// A quantized engine's logits are **bitwise** the evaluator's output over
/// the dequantized weights: quantization changes the weights, never how
/// the program runs over them.
#[test]
fn engine_logits_equal_evaluate_program_on_dequantized_weights() {
    let ctx = wide_ctx(11);
    for mode in [QuantMode::I8, QuantMode::F16] {
        let model = models::Gcn::new(IN_DIM, CLASSES, &wide_hyper(), 5);
        let frozen = freeze(&model, &ctx, "tiny").expect("freeze").quantize(mode).expect("quantize");
        let materialized: Vec<(String, Tensor)> =
            frozen.weights.iter().map(|(n, w)| (n.clone(), w.to_tensor())).collect();
        let want: Vec<u32> = evaluate_program(&frozen.program, &materialized)
            .expect("materialized eval")
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for &threads in &[1usize, 4] {
            lasagne_par::set_threads(threads);
            let engine = Engine::new(frozen.clone()).expect("engine");
            let got: Vec<u32> = engine_logits(&engine).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{} @ {threads}t: engine != evaluate_program", mode.as_str());
        }
    }
    lasagne_par::set_threads(1);
}

/// Same model quantized twice writes `cmp`-equal files.
#[test]
fn quantized_export_is_byte_deterministic() {
    let ctx = wide_ctx(11);
    let model = models::Gcn::new(IN_DIM, CLASSES, &wide_hyper(), 5);
    let a = temp_path("det-a");
    let b = temp_path("det-b");
    for path in [&a, &b] {
        freeze(&model, &ctx, "tiny")
            .expect("freeze")
            .quantize(QuantMode::I8)
            .expect("quantize")
            .save(path)
            .expect("save");
    }
    let bytes_a = std::fs::read(&a).expect("read a");
    let bytes_b = std::fs::read(&b).expect("read b");
    assert_eq!(bytes_a, bytes_b, "quantized export must be byte-deterministic");
    let _ = std::fs::remove_file(a);
    let _ = std::fs::remove_file(b);
}

/// `quantize` drops the streaming graph binding, and both engines refuse a
/// hand-crafted file carrying both (the §11 exactness contract would
/// silently degrade otherwise).
#[test]
fn quantized_model_has_no_graph_binding_and_engine_rejects_one() {
    let ctx = wide_ctx(11);
    let model = models::Gcn::new(IN_DIM, CLASSES, &wide_hyper(), 5);
    let frozen = freeze(&model, &ctx, "tiny").expect("freeze");
    assert!(frozen.graph.is_some(), "gcn freeze should carry a graph binding");
    let graph = frozen.graph.clone();
    let mut quantized = frozen.quantize(QuantMode::I8).expect("quantize");
    assert!(quantized.graph.is_none(), "quantize must drop the graph binding");
    assert!(
        Engine::new(quantized.clone()).expect("engine").is_quantized(),
        "engine should report quantized"
    );
    quantized.graph = graph;
    let errors = [
        Engine::new(quantized.clone()).err().expect("graph + quantized must be rejected"),
        LazyEngine::new(quantized, 3).err().expect("graph + quantized must be rejected lazily"),
    ];
    for err in errors {
        assert!(
            err.to_string().contains("streaming"),
            "rejection should name the streaming contract, got: {err}"
        );
    }
}

/// Property: per-row i8 round-trip error is bounded by half a quantization
/// step (`scale / 2`), and f16 round-trip error by half an ulp at the
/// value's scale (rel `2^-11`, with an absolute floor below the f16
/// normal range).
#[test]
fn quantization_round_trip_error_bounds() {
    let cfg = Config::cases(24);
    check("quant_round_trip_bounds", &cfg, &dense(1..20, 1..20, -40.0, 40.0), |d| {
        let t = Tensor::from_vec(d.rows, d.cols, d.data.clone()).expect("gen shape");
        let (rows, cols) = t.shape();
        let src = t.as_slice();

        let qi = QuantMatrix::quantize(&t, QuantMode::I8).dequantize();
        for r in 0..rows {
            let row = &src[r * cols..(r + 1) * cols];
            let amax = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let half_step = amax / 127.0 / 2.0 + 1e-6;
            for (c, &want) in row.iter().enumerate() {
                let err = (qi.as_slice()[r * cols + c] - want).abs();
                if err > half_step {
                    return Err(format!(
                        "i8 row {r} col {c}: err {err} > half-step {half_step} (amax {amax})"
                    ));
                }
            }
        }

        let qf = QuantMatrix::quantize(&t, QuantMode::F16).dequantize();
        for (i, (&got, &want)) in qf.as_slice().iter().zip(src).enumerate() {
            let bound = (want.abs() * (1.0 / 2048.0)).max(6.2e-5);
            let err = (got - want).abs();
            if err > bound {
                return Err(format!("f16 elem {i}: err {err} > bound {bound} (src {want})"));
            }
        }
        Ok(())
    });
}
