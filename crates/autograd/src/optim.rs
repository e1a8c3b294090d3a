//! First-order optimizers. The paper trains everything with Adam plus an L2
//! regularization factor (§5.1.3); SGD is kept for tests and ablations.

use lasagne_tensor::Tensor;

use crate::{ParamId, ParamStore};

/// A gradient-descent update rule over a [`ParamStore`].
pub trait Optimizer {
    /// Apply one update using the currently-accumulated gradients.
    fn step(&mut self, store: &mut ParamStore);

    /// Learning rate currently in effect.
    fn learning_rate(&self) -> f32;

    /// Replace the learning rate (schedules, warm restarts).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent with optional L2 weight decay.
pub struct Sgd {
    lr: f32,
    weight_decay: f32,
}

impl Sgd {
    /// SGD with learning rate `lr` and L2 factor `weight_decay`.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Sgd { lr, weight_decay }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore) {
        for i in 0..store.len() {
            let id = ParamId(i);
            let decay = self.weight_decay * store.decay_factor(id);
            let mut update = store.grad(id).clone();
            if decay != 0.0 {
                update.add_scaled_assign(decay, store.value(id));
            }
            let lr = self.lr;
            store.value_mut(id).add_scaled_assign(-lr, &update);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with L2 regularization folded into the gradient, the
/// same convention as `torch.optim.Adam(weight_decay=...)` that the paper's
/// PyTorch implementation used.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the usual β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(store: &ParamStore, lr: f32, weight_decay: f32) -> Self {
        let m = store
            .iter()
            .map(|(_, t)| Tensor::zeros(t.rows(), t.cols()))
            .collect();
        let v = store
            .iter()
            .map(|(_, t)| Tensor::zeros(t.rows(), t.cols()))
            .collect();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m,
            v,
        }
    }
}

/// A serializable snapshot of Adam's mutable state (step count plus first
/// and second moments). Crash-safe training checkpoints persist it so a
/// resumed run applies bit-identical updates; the divergence guardrail
/// restores it on rollback so a retried epoch replays exactly.
#[derive(Clone, Debug)]
pub struct AdamState {
    /// Steps taken so far (drives bias correction).
    pub t: u64,
    /// First-moment estimates, one per parameter.
    pub m: Vec<Tensor>,
    /// Second-moment estimates, one per parameter.
    pub v: Vec<Tensor>,
}

impl Adam {
    /// Snapshot the mutable state (see [`AdamState`]).
    pub fn state(&self) -> AdamState {
        AdamState { t: self.t, m: self.m.clone(), v: self.v.clone() }
    }

    /// Restore a snapshot taken with [`Adam::state`] (or deserialized from
    /// a checkpoint). The moment shapes must match the optimizer's.
    pub fn restore_state(&mut self, state: &AdamState) {
        assert_eq!(state.m.len(), self.m.len(), "Adam::restore_state: param count changed");
        assert_eq!(state.v.len(), self.v.len(), "Adam::restore_state: param count changed");
        for (ours, theirs) in self.m.iter().zip(&state.m).chain(self.v.iter().zip(&state.v)) {
            assert_eq!(ours.shape(), theirs.shape(), "Adam::restore_state: shape changed");
        }
        self.t = state.t;
        self.m.clone_from(&state.m);
        self.v.clone_from(&state.v);
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        assert_eq!(
            self.m.len(),
            store.len(),
            "Adam: store gained parameters after optimizer construction"
        );
        self.t += 1;
        let b1 = self.beta1;
        let b2 = self.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for i in 0..store.len() {
            let id = ParamId(i);
            let decay = self.weight_decay * store.decay_factor(id);
            // g = grad + decay·w
            let mut g = store.grad(id).clone();
            if decay != 0.0 {
                g.add_scaled_assign(decay, store.value(id));
            }
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            let lr = self.lr;
            let eps = self.eps;
            let w = store.value_mut(id);
            for ((wj, gj), (mj, vj)) in w
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice()))
            {
                *mj = b1 * *mj + (1.0 - b1) * gj;
                *vj = b2 * *vj + (1.0 - b2) * gj * gj;
                let mhat = *mj / bc1;
                let vhat = *vj / bc2;
                *wj -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    /// Minimize ‖w − target‖² and check convergence.
    fn quadratic_descent(mut opt: impl Optimizer, steps: usize) -> f32 {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::full(2, 2, 5.0));
        let target = Tensor::full(2, 2, 1.0);
        for _ in 0..steps {
            let mut tape = Tape::new();
            let wn = tape.param(w, &store);
            let t = tape.constant(target.clone());
            let diff = tape.sub(wn, t);
            let sq = tape.mul(diff, diff);
            let loss = tape.mean_all(sq);
            store.zero_grads();
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        store.value(w).max_abs_diff(&target)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let err = quadratic_descent(Sgd::new(0.5, 0.0), 100);
        assert!(err < 1e-3, "residual {err}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let store = {
            let mut s = ParamStore::new();
            s.add("w", Tensor::full(2, 2, 5.0));
            s
        };
        let err = quadratic_descent(Adam::new(&store, 0.2, 0.0), 200);
        assert!(err < 1e-2, "residual {err}");
    }

    #[test]
    fn adam_state_round_trip_replays_identically() {
        // Two optimizers over identical stores; snapshot one mid-descent,
        // push it further, restore — both must then take bitwise-equal steps.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::full(2, 2, 5.0));
        let mut opt = Adam::new(&store, 0.1, 0.0);
        let do_step = |store: &mut ParamStore, opt: &mut Adam| {
            store.zero_grads();
            store.accumulate_grad(w, &Tensor::full(2, 2, 1.0));
            opt.step(store);
        };
        for _ in 0..3 {
            do_step(&mut store, &mut opt);
        }
        let saved_state = opt.state();
        let saved_params = store.snapshot();
        assert_eq!(saved_state.t, 3);
        for _ in 0..4 {
            do_step(&mut store, &mut opt);
        }
        let diverged = store.value(w).clone();
        opt.restore_state(&saved_state);
        store.restore(&saved_params);
        do_step(&mut store, &mut opt);
        let replay_once = store.value(w).clone();
        assert_ne!(replay_once, diverged);
        // Replaying from the same state twice is exact.
        opt.restore_state(&saved_state);
        store.restore(&saved_params);
        do_step(&mut store, &mut opt);
        assert_eq!(store.value(w), &replay_once);
    }

    #[test]
    #[should_panic(expected = "param count changed")]
    fn adam_state_rejects_mismatched_store() {
        let mut small = ParamStore::new();
        small.add("w", Tensor::zeros(1, 1));
        let mut big = ParamStore::new();
        big.add("a", Tensor::zeros(1, 1));
        big.add("b", Tensor::zeros(1, 1));
        let mut opt = Adam::new(&small, 0.1, 0.0);
        opt.restore_state(&Adam::new(&big, 0.1, 0.0).state());
    }

    #[test]
    fn weight_decay_shrinks_params() {
        // Zero gradients + pure decay ⇒ exponential shrink toward 0.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::full(1, 1, 2.0));
        let mut opt = Sgd::new(0.1, 1.0);
        for _ in 0..10 {
            store.zero_grads();
            opt.step(&mut store);
        }
        let v = store.value(w).get(0, 0);
        assert!((v - 2.0 * 0.9f32.powi(10)).abs() < 1e-5);
    }

    #[test]
    fn decay_mask_exempts_parameters() {
        let mut store = ParamStore::new();
        let c = store.add_with_decay("c", Tensor::full(1, 1, 2.0), false);
        let mut opt = Sgd::new(0.1, 1.0);
        store.zero_grads();
        opt.step(&mut store);
        assert_eq!(store.value(c).get(0, 0), 2.0);
    }

    #[test]
    fn lr_accessors() {
        let mut o = Sgd::new(0.1, 0.0);
        assert_eq!(o.learning_rate(), 0.1);
        o.set_learning_rate(0.01);
        assert_eq!(o.learning_rate(), 0.01);
    }
}
