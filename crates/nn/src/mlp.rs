//! Fully-connected ReLU network with softmax cross-entropy, flat parameters,
//! and manual backprop.
//!
//! Parameter layout for dims `[d0, d1, ..., dL]`: for each layer `l`, the
//! weight matrix `W_l` (`d_{l+1} × d_l`, row-major) followed by the bias
//! `b_l` (`d_{l+1}`). Forward over a batch `X` (`B × d0`):
//! `A_{l+1} = relu(A_l · W_lᵀ + b_l)` with no ReLU after the last layer.
//!
//! Backward: with `P = softmax(logits)` and one-hot targets `Y`,
//! `Δ_L = (P − Y)/B`, then `∇W_l = Δ_{l+1}ᵀ · A_l`, `∇b_l = colsum(Δ_{l+1})`,
//! `Δ_l = (Δ_{l+1} · W_l) ⊙ relu'(A_l)`.

use gfl_tensor::{init, ops, simd, Matrix, MatrixRef, Scalar};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::Params;

/// Architecture descriptor: layer widths including input and output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mlp {
    dims: Vec<usize>,
}

/// Reusable forward/backward buffers. One per training thread; created by
/// [`Mlp::workspace`] and grown lazily to the largest batch seen. Buffers
/// never shrink, so alternating batch sizes (full minibatch vs. epoch
/// remainder) stop reallocating after the first epoch.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Activations per layer; `acts[0]` is the input batch copy. Sized for
    /// `cap` rows, of which the first `batch` are live.
    acts: Vec<Matrix>,
    /// Backprop deltas per non-input layer.
    deltas: Vec<Matrix>,
    /// Every layer's weights in the panel layout `simd::gemm_nt_packed`
    /// reads, back to back; filled by [`Mlp::pack_weights`].
    packed: Vec<simd::PanelRow>,
    /// One transposed block of logit rows for the lane-per-row softmax
    /// kernels, which size it.
    block: Vec<Scalar>,
    /// Live batch rows of the current pass.
    batch: usize,
    /// Allocated row capacity.
    cap: usize,
}

impl Mlp {
    /// Creates a network with the given layer widths (≥ 2 entries).
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        Self { dims }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Output classes.
    pub fn num_classes(&self) -> usize {
        *self.dims.last().unwrap()
    }

    /// Number of weight layers.
    pub fn num_layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// Total parameter count.
    pub fn param_len(&self) -> usize {
        (0..self.num_layers())
            .map(|l| self.dims[l + 1] * self.dims[l] + self.dims[l + 1])
            .sum()
    }

    /// Flat offset of layer `l`'s weight block.
    fn layer_offset(&self, l: usize) -> usize {
        (0..l)
            .map(|k| self.dims[k + 1] * self.dims[k] + self.dims[k + 1])
            .sum()
    }

    /// He-initialized parameters (biases zero), deterministic in the RNG.
    pub fn init_params(&self, rng: &mut impl Rng) -> Params {
        let mut params = vec![0.0; self.param_len()];
        for l in 0..self.num_layers() {
            let (o, i) = (self.dims[l + 1], self.dims[l]);
            let w = init::he_matrix(rng, o, i);
            let off = self.layer_offset(l);
            params[off..off + o * i].copy_from_slice(w.as_slice());
            // biases stay zero
        }
        params
    }

    /// Creates an empty workspace for this architecture.
    pub fn workspace(&self) -> Workspace {
        Workspace::default()
    }

    fn prepare_workspace(&self, ws: &mut Workspace, batch: usize) {
        if ws.acts.len() != self.dims.len() || ws.cap < batch {
            let cap = batch.max(ws.cap);
            ws.acts = self.dims.iter().map(|&d| Matrix::zeros(cap, d)).collect();
            ws.deltas = self.dims[1..]
                .iter()
                .map(|&d| Matrix::zeros(cap, d))
                .collect();
            ws.cap = cap;
        }
        ws.batch = batch;
    }

    /// Packs every layer's weights into `ws` for [`Mlp::forward_packed`].
    /// Training repacks per step (the weights just moved); evaluation packs
    /// once per worker and forwards every chunk against the same image.
    pub(crate) fn pack_weights(&self, params: &[Scalar], ws: &mut Workspace) {
        assert_eq!(params.len(), self.param_len(), "param length mismatch");
        let total = self.dims.windows(2).map(|d| simd::packed_len(d[1], d[0]));
        ws.packed.resize(total.sum(), simd::PanelRow::ZERO);
        let (mut off, mut packed) = (0, ws.packed.as_mut_slice());
        for d in self.dims.windows(2) {
            let (o, i) = (d[1], d[0]);
            let (image, rest) = packed.split_at_mut(simd::packed_len(o, i));
            simd::pack_nt(&params[off..off + o * i], o, i, image);
            off += o * i + o;
            packed = rest;
        }
    }

    /// Runs the forward pass over a borrowed row view; afterwards the first
    /// `x.rows()` rows of `ws.acts.last()` hold the logits.
    fn forward_into(&self, params: &[Scalar], x: MatrixRef<'_>, ws: &mut Workspace) {
        self.pack_weights(params, ws);
        self.forward_packed(params, x, ws);
    }

    /// [`Mlp::forward_into`] against weights already packed into `ws` from
    /// these same `params` (which still supply the biases).
    fn forward_packed(&self, params: &[Scalar], x: MatrixRef<'_>, ws: &mut Workspace) {
        assert_eq!(x.cols(), self.input_dim(), "input dim mismatch");
        let batch = x.rows();
        self.prepare_workspace(ws, batch);
        ws.acts[0].as_mut_slice()[..batch * self.dims[0]].copy_from_slice(x.as_slice());
        let (mut off, mut packed) = (0, ws.packed.as_slice());
        for l in 0..self.num_layers() {
            let (o, i) = (self.dims[l + 1], self.dims[l]);
            let b = &params[off + o * i..off + o * i + o];
            off += o * i + o;
            let (image, rest) = packed.split_at(simd::packed_len(o, i));
            packed = rest;
            // acts[l+1] = acts[l] · Wᵀ + b  (+ relu except last layer)
            let (before, after) = ws.acts.split_at_mut(l + 1);
            let input = &before[l].as_slice()[..batch * i];
            let out = &mut after[0].as_mut_slice()[..batch * o];
            let relu = l != self.num_layers() - 1;
            simd::gemm_nt_packed(input, image, Some(b), relu, out, (batch, o, i));
        }
    }

    /// Computes average loss over the batch and accumulates the gradient
    /// into `grad` (which is fully overwritten). Returns the mean
    /// cross-entropy loss. `grad.len()` must equal [`Mlp::param_len`].
    pub fn loss_and_grad(
        &self,
        params: &[Scalar],
        features: &Matrix,
        labels: &[usize],
        grad: &mut [Scalar],
        ws: &mut Workspace,
    ) -> Scalar {
        assert_eq!(features.rows(), labels.len(), "batch misaligned");
        assert_eq!(grad.len(), self.param_len(), "grad length mismatch");
        let batch = labels.len();
        assert!(batch > 0, "empty batch");
        self.forward_into(params, features.as_view(), ws);

        // Softmax + CE on the last activation; Δ_L = (P − Y)/B in place.
        let num_layers = self.num_layers();
        let logits_idx = num_layers;
        let nc = self.num_classes();
        let last_delta = &mut ws.deltas.last_mut().unwrap().as_mut_slice()[..batch * nc];
        last_delta.copy_from_slice(&ws.acts[logits_idx].as_slice()[..batch * nc]);
        let inv_b = 1.0 / batch as Scalar;
        let loss =
            simd::softmax_xent_rows(last_delta, nc, labels, inv_b, &mut ws.block) / batch as Scalar;

        grad.fill(0.0);
        // Walk layers backwards.
        for l in (0..num_layers).rev() {
            let (o, i) = (self.dims[l + 1], self.dims[l]);
            let off = self.layer_offset(l);
            // Split grad into this layer's W and b destinations.
            let (gw, rest) = grad[off..].split_at_mut(o * i);
            let gb = &mut rest[..o];

            // ∇W_l = Δ_{l+1}ᵀ · A_l (cache-blocked, ascending-row
            // accumulation) ; ∇b_l = colsum(Δ_{l+1}).
            let delta = &ws.deltas[l];
            let act = &ws.acts[l];
            ops::gemm_tn(
                &delta.as_slice()[..batch * o],
                &act.as_slice()[..batch * i],
                gw,
                batch,
                o,
                i,
            );
            for r in 0..batch {
                ops::add_assign(delta.row(r), gb);
            }

            // Δ_l = (Δ_{l+1} · W_l) ⊙ relu'(A_l), skipped for the input.
            if l > 0 {
                let (lower, upper) = ws.deltas.split_at_mut(l);
                simd::backward_delta(
                    &upper[0].as_slice()[..batch * o],
                    &params[off..off + o * i],
                    &act.as_slice()[..batch * i],
                    &mut lower[l - 1].as_mut_slice()[..batch * i],
                    (batch, o, i),
                );
            }
        }
        loss
    }

    /// Predicts class labels for a feature matrix.
    pub fn predict(&self, params: &[Scalar], features: &Matrix, ws: &mut Workspace) -> Vec<usize> {
        if features.rows() == 0 {
            return Vec::new();
        }
        self.forward_into(params, features.as_view(), ws);
        let logits = ws.acts.last().unwrap();
        (0..features.rows())
            .map(|r| ops::argmax(logits.row(r)))
            .collect()
    }

    /// Loss sum and correct count over rows `s..e`, one chunk of
    /// [`crate::network::Network::evaluate_pooled`]: the forward pass over a
    /// row-range view of `features` (no index buffer, no gather copy), then
    /// the lane-per-row tail. `ws` must hold [`Mlp::pack_weights`] of these
    /// `params`.
    pub(crate) fn eval_chunk(
        &self,
        params: &[Scalar],
        features: &Matrix,
        labels: &[usize],
        (s, e): (usize, usize),
        ws: &mut Workspace,
    ) -> (Scalar, usize) {
        self.forward_packed(params, features.view_rows(s, e), ws);
        let nc = self.num_classes();
        let logits = &ws.acts.last().unwrap().as_slice()[..(e - s) * nc];
        simd::xent_argmax_rows(logits, nc, &labels[s..e], &mut ws.block)
    }
}

/// Result of [`crate::network::Network::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalResult {
    /// Mean cross-entropy loss.
    pub loss: Scalar,
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: Scalar,
    /// Number of evaluated examples.
    pub examples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;
    use gfl_tensor::init::rng;

    fn finite_difference_check(mlp: &Mlp, batch: usize, seed: u64) -> (f32, f32) {
        let mut r = rng(seed);
        let params = mlp.init_params(&mut r);
        let features = Matrix::from_fn(batch, mlp.input_dim(), |_, _| {
            init::normal(&mut r, 0.0, 1.0)
        });
        let labels: Vec<usize> = (0..batch).map(|i| i % mlp.num_classes()).collect();
        let mut grad = vec![0.0; mlp.param_len()];
        let mut ws = mlp.workspace();
        mlp.loss_and_grad(&params, &features, &labels, &mut grad, &mut ws);

        // Check a handful of coordinates against central differences.
        let eps = 1e-3f32;
        let mut max_rel = 0.0f32;
        let mut max_abs = 0.0f32;
        let stride = (mlp.param_len() / 37).max(1);
        for k in (0..mlp.param_len()).step_by(stride) {
            let mut p_plus = params.clone();
            p_plus[k] += eps;
            let mut p_minus = params.clone();
            p_minus[k] -= eps;
            let mut dummy = vec![0.0; mlp.param_len()];
            let lp = mlp.loss_and_grad(&p_plus, &features, &labels, &mut dummy, &mut ws);
            let lm = mlp.loss_and_grad(&p_minus, &features, &labels, &mut dummy, &mut ws);
            let fd = (lp - lm) / (2.0 * eps);
            let diff = (grad[k] - fd).abs();
            max_abs = max_abs.max(diff);
            max_rel = max_rel.max(diff / (1e-4 + fd.abs().max(grad[k].abs())));
        }
        (max_abs, max_rel)
    }

    #[test]
    fn gradient_matches_finite_differences_single_layer() {
        let mlp = Mlp::new(vec![5, 3]);
        let (abs, rel) = finite_difference_check(&mlp, 4, 1);
        assert!(abs < 2e-2 && rel < 0.05, "abs {abs} rel {rel}");
    }

    #[test]
    fn gradient_matches_finite_differences_deep() {
        let mlp = Mlp::new(vec![6, 8, 7, 4]);
        let (abs, rel) = finite_difference_check(&mlp, 5, 2);
        assert!(abs < 2e-2 && rel < 0.08, "abs {abs} rel {rel}");
    }

    #[test]
    fn param_len_matches_layout() {
        let mlp = Mlp::new(vec![4, 5, 3]);
        assert_eq!(mlp.param_len(), 4 * 5 + 5 + 5 * 3 + 3);
        let mut r = rng(0);
        assert_eq!(mlp.init_params(&mut r).len(), mlp.param_len());
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        use gfl_data::SyntheticSpec;
        let spec = SyntheticSpec::tiny();
        let data = spec.generate(200, 3);
        let mlp = Mlp::new(vec![spec.feature_dim, 16, spec.num_classes]);
        let mut r = rng(4);
        let mut params = mlp.init_params(&mut r);
        let mut grad = vec![0.0; mlp.param_len()];
        let mut ws = mlp.workspace();
        let net = Network::from(mlp.clone());
        let initial = net.evaluate(&params, data.features(), data.labels()).loss;
        for _ in 0..60 {
            let loss =
                mlp.loss_and_grad(&params, data.features(), data.labels(), &mut grad, &mut ws);
            assert!(loss.is_finite());
            ops::axpy(-0.5, &grad, &mut params);
        }
        let result = net.evaluate(&params, data.features(), data.labels());
        assert!(
            result.loss < initial * 0.5,
            "loss {initial} -> {}",
            result.loss
        );
        assert!(result.accuracy > 0.8, "accuracy {}", result.accuracy);
    }

    #[test]
    fn predict_agrees_with_evaluate_accuracy() {
        use gfl_data::SyntheticSpec;
        let data = SyntheticSpec::tiny().generate(60, 8);
        let mlp = Mlp::new(vec![4, 3]);
        let mut r = rng(5);
        let params = mlp.init_params(&mut r);
        let mut ws = mlp.workspace();
        let preds = mlp.predict(&params, data.features(), &mut ws);
        let manual_acc = preds
            .iter()
            .zip(data.labels())
            .filter(|(p, l)| p == l)
            .count() as f32
            / data.len() as f32;
        let eval = Network::from(mlp).evaluate(&params, data.features(), data.labels());
        assert!((manual_acc - eval.accuracy).abs() < 1e-6);
    }

    #[test]
    fn workspace_reuse_across_batch_sizes() {
        let mlp = Mlp::new(vec![3, 4, 2]);
        let mut r = rng(6);
        let params = mlp.init_params(&mut r);
        let mut ws = mlp.workspace();
        for batch in [1usize, 7, 3, 7] {
            let f = Matrix::from_fn(batch, 3, |r_, c| (r_ + c) as f32 * 0.1);
            let labels = vec![0usize; batch];
            let mut grad = vec![0.0; mlp.param_len()];
            let loss = mlp.loss_and_grad(&params, &f, &labels, &mut grad, &mut ws);
            assert!(loss.is_finite());
        }
    }

    #[test]
    fn deterministic_init() {
        let mlp = Mlp::new(vec![4, 4]);
        let a = mlp.init_params(&mut rng(9));
        let b = mlp.init_params(&mut rng(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let mlp = Mlp::new(vec![2, 2]);
        let params = vec![0.0; mlp.param_len()];
        let mut grad = vec![0.0; mlp.param_len()];
        let mut ws = mlp.workspace();
        mlp.loss_and_grad(&params, &Matrix::zeros(0, 2), &[], &mut grad, &mut ws);
    }

    #[test]
    fn evaluate_empty_set_is_safe() {
        let mlp = Network::from(Mlp::new(vec![2, 2]));
        let params = vec![0.0; mlp.param_len()];
        let r = mlp.evaluate(&params, &Matrix::zeros(0, 2), &[]);
        assert_eq!(r.examples, 0);
    }

    #[test]
    fn batched_forward_matches_per_sample_forward_bitwise() {
        // The chunked evaluate path relies on this: each output row of a
        // batched forward must be the bit-exact result of forwarding that
        // row alone, because gemm rows are independent full-k dot products.
        // Batch size 33 deliberately exercises a non-round row count.
        let mlp = Mlp::new(vec![6, 16, 9, 5]);
        let mut r = rng(11);
        let params = mlp.init_params(&mut r);
        let batch = 33;
        let features = Matrix::from_fn(batch, mlp.input_dim(), |_, _| {
            init::normal(&mut r, 0.0, 1.0)
        });

        let mut batched_ws = mlp.workspace();
        mlp.forward_into(&params, features.as_view(), &mut batched_ws);
        let batched = batched_ws.acts.last().unwrap().clone();

        let mut single_ws = mlp.workspace();
        for row in 0..batch {
            mlp.forward_into(&params, features.view_rows(row, row + 1), &mut single_ws);
            let single = single_ws.acts.last().unwrap().row(0);
            for (c, (&b, &s)) in batched.row(row).iter().zip(single.iter()).enumerate() {
                assert_eq!(
                    b.to_bits(),
                    s.to_bits(),
                    "logit ({row}, {c}) differs: batched {b} vs per-sample {s}"
                );
            }
        }
    }
}
