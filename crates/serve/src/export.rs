//! Freezing: turn a trained [`NodeClassifier`] into a [`FrozenModel`].
//!
//! The model's `Mode::Eval` forward is recorded on a throwaway tape (eval
//! forwards are deterministic — dropout is off, DropEdge uses the full
//! `Â`, stochastic gates run at expectation — so the RNG passed in is never
//! consulted in a way that affects the output), the logits subgraph is
//! exported as a tape-free program, and the full parameter store is copied
//! out by name.

use std::rc::Rc;

use lasagne_gnn::{GraphContext, Mode, NodeClassifier};
use lasagne_tensor::TensorRng;

use lasagne_autograd::{ProgramOp, Tape};

use crate::error::ServeResult;
use crate::frozen::{FrozenGraph, FrozenMeta, FrozenModel, FrozenRec, FrozenWeight, SparseKind};

/// Export `model`'s eval forward on `ctx` as a frozen inference artifact.
/// `dataset` is recorded as provenance (e.g. `"cora"`).
pub fn freeze(
    model: &dyn NodeClassifier,
    ctx: &GraphContext,
    dataset: &str,
) -> ServeResult<FrozenModel> {
    lasagne_obs::span!("serve.freeze");
    // Eval forwards never sample, but the trait takes an RNG; any seed gives
    // the same tape.
    let mut rng = TensorRng::seed_from_u64(0);
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, ctx, Mode::Eval, &mut rng);
    let store = model.store();
    let program = tape.export_program(store, out.logits)?;
    let weights = store
        .iter()
        .map(|(id, t)| (store.name(id).to_string(), FrozenWeight(t.clone())))
        .collect();
    // Graph binding for streaming (DESIGN.md §11): the exported sparse
    // table holds `Rc::clone`s of the context's operators, so pointer
    // identity tells us exactly which normalization produced each entry.
    // Constants bitwise-equal to the feature matrix are the ops `add_node`
    // must grow. Anything unrecognized is tagged opaque and the engine
    // refuses mutations on it rather than guessing. Models that fold graph
    // structure into tape constants (SGC's off-tape `Â^K X`) get no binding
    // at all — their graph dependence is invisible to the program, so the
    // only honest behavior is the typed no-binding refusal.
    if model.bakes_graph_into_constants() {
        return Ok(FrozenModel {
            meta: FrozenMeta {
                model: model.name(),
                dataset: dataset.to_string(),
                num_nodes: ctx.num_nodes(),
                num_classes: ctx.num_classes,
            },
            weights,
            program,
            graph: None,
            rec: None,
        });
    }
    let kinds = program
        .sparse
        .iter()
        .map(|m| {
            if Rc::ptr_eq(m, &ctx.a_hat) {
                SparseKind::Sym
            } else if Rc::ptr_eq(m, &ctx.rw_adj) {
                SparseKind::Rw
            } else if Rc::ptr_eq(m, &ctx.adj_loops) {
                SparseKind::Loops
            } else if Rc::ptr_eq(m, &ctx.adjacency) {
                SparseKind::Adj
            } else {
                SparseKind::Opaque
            }
        })
        .collect();
    let features_ops = program
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, ProgramOp::Constant { value } if value == &*ctx.features))
        .map(|(i, _)| i)
        .collect();
    let graph = FrozenGraph { adjacency: (*ctx.adjacency).clone(), kinds, features_ops };
    Ok(FrozenModel {
        meta: FrozenMeta {
            model: model.name(),
            dataset: dataset.to_string(),
            num_nodes: ctx.num_nodes(),
            num_classes: ctx.num_classes,
        },
        weights,
        program,
        graph: Some(graph),
        rec: None,
    })
}

/// Like [`freeze`], additionally attaching the recommendation binding that
/// activates the `recommend` verb: the bipartite layout and the
/// `users×items` training-interaction mask. Shapes are validated against
/// the context before anything is exported.
pub fn freeze_rec(
    model: &dyn NodeClassifier,
    ctx: &GraphContext,
    dataset: &str,
    rec: FrozenRec,
) -> ServeResult<FrozenModel> {
    if rec.items + rec.users != ctx.num_nodes() {
        return Err(crate::error::ServeError::Export(format!(
            "freeze_rec: {} items + {} users != {} context nodes",
            rec.items,
            rec.users,
            ctx.num_nodes()
        )));
    }
    if rec.interacted.rows() != rec.users || rec.interacted.cols() != rec.items {
        return Err(crate::error::ServeError::Export(format!(
            "freeze_rec: interacted matrix is {}x{}, expected {}x{}",
            rec.interacted.rows(),
            rec.interacted.cols(),
            rec.users,
            rec.items
        )));
    }
    let mut frozen = freeze(model, ctx, dataset)?;
    frozen.rec = Some(rec);
    Ok(frozen)
}
