//! 1-D convolutional network — the faithful stand-in for the paper's
//! "5-layer CNN that is easy to train on RPi" (§7.1, Speech Commands).
//!
//! Architecture of [`Cnn1d`] (5 parameterized/pooling stages):
//!
//! ```text
//! input (1×L) → Conv1d(c1, k1, same-pad) → ReLU → MaxPool(2)
//!            → Conv1d(c1→c2, k2, same-pad) → ReLU → MaxPool(2)
//!            → Flatten → Linear(c2·L/4 → classes)
//! ```
//!
//! Parameters live in one flat vector (conv1 W,b | conv2 W,b | fc W,b) so
//! the model drops into the same aggregation/masking/defense machinery as
//! the MLP. Backprop is implemented manually and validated against finite
//! differences in the tests.

use gfl_tensor::{init, ops, Matrix, Scalar};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::Params;

/// Configuration of the 2-conv-block 1-D CNN.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cnn1d {
    /// Input signal length `L` (must be divisible by 4).
    input_len: usize,
    /// Channels after the first conv block.
    c1: usize,
    /// Channels after the second conv block.
    c2: usize,
    /// Kernel size of the first conv (odd, same-padded).
    k1: usize,
    /// Kernel size of the second conv (odd, same-padded).
    k2: usize,
    /// Output classes.
    classes: usize,
}

/// Reusable per-thread buffers for [`Cnn1d`] forward/backward.
#[derive(Debug, Default)]
pub struct CnnWorkspace {
    /// conv1 pre-pool activations: `c1 × L` (post-ReLU).
    a1: Vec<Scalar>,
    /// pool1 output: `c1 × L/2` and argmax offsets.
    p1: Vec<Scalar>,
    p1_idx: Vec<usize>,
    /// conv2 activations: `c2 × L/2` (post-ReLU).
    a2: Vec<Scalar>,
    /// pool2 output: `c2 × L/4` and argmax offsets.
    p2: Vec<Scalar>,
    p2_idx: Vec<usize>,
    /// logits: `classes`.
    logits: Vec<Scalar>,
    /// softmax of the logits, one sample at a time: `classes`.
    probs: Vec<Scalar>,
    /// backprop deltas, same shapes as the activations.
    d_a1: Vec<Scalar>,
    d_p1: Vec<Scalar>,
    d_a2: Vec<Scalar>,
    d_p2: Vec<Scalar>,
}

impl Cnn1d {
    /// Creates the network.
    ///
    /// # Panics
    /// Panics unless `input_len % 4 == 0`, kernels are odd, and all sizes
    /// are positive.
    pub fn new(
        input_len: usize,
        c1: usize,
        c2: usize,
        k1: usize,
        k2: usize,
        classes: usize,
    ) -> Self {
        assert!(
            input_len >= 4 && input_len.is_multiple_of(4),
            "L must be ×4"
        );
        assert!(k1 % 2 == 1 && k2 % 2 == 1, "kernels must be odd (same-pad)");
        assert!(c1 > 0 && c2 > 0 && classes > 0);
        Self {
            input_len,
            c1,
            c2,
            k1,
            k2,
            classes,
        }
    }

    pub fn input_dim(&self) -> usize {
        self.input_len
    }

    pub fn num_classes(&self) -> usize {
        self.classes
    }

    fn l2(&self) -> usize {
        self.input_len / 2
    }

    fn l4(&self) -> usize {
        self.input_len / 4
    }

    fn fc_in(&self) -> usize {
        self.c2 * self.l4()
    }

    /// Flat parameter count.
    pub fn param_len(&self) -> usize {
        self.c1 * self.k1 + self.c1            // conv1 W,b (1 input channel)
            + self.c2 * self.c1 * self.k2 + self.c2 // conv2 W,b
            + self.classes * self.fc_in() + self.classes // fc W,b
    }

    /// Offsets of the six parameter blocks.
    fn blocks(&self) -> [usize; 6] {
        let w1 = 0;
        let b1 = w1 + self.c1 * self.k1;
        let w2 = b1 + self.c1;
        let b2 = w2 + self.c2 * self.c1 * self.k2;
        let wf = b2 + self.c2;
        let bf = wf + self.classes * self.fc_in();
        [w1, b1, w2, b2, wf, bf]
    }

    /// He-style initialization (biases zero).
    pub fn init_params(&self, rng: &mut impl Rng) -> Params {
        let mut p = vec![0.0; self.param_len()];
        let [w1, b1, w2, b2, wf, bf] = self.blocks();
        let std1 = (2.0 / self.k1 as Scalar).sqrt();
        init::fill_normal(rng, std1, &mut p[w1..b1]);
        let std2 = (2.0 / (self.c1 * self.k2) as Scalar).sqrt();
        init::fill_normal(rng, std2, &mut p[w2..b2]);
        let stdf = (2.0 / self.fc_in() as Scalar).sqrt();
        init::fill_normal(rng, stdf, &mut p[wf..bf]);
        p
    }

    pub fn workspace(&self) -> CnnWorkspace {
        CnnWorkspace::default()
    }

    fn prepare(&self, ws: &mut CnnWorkspace) {
        let (l, l2, l4) = (self.input_len, self.l2(), self.l4());
        ws.a1.resize(self.c1 * l, 0.0);
        ws.p1.resize(self.c1 * l2, 0.0);
        ws.p1_idx.resize(self.c1 * l2, 0);
        ws.a2.resize(self.c2 * l2, 0.0);
        ws.p2.resize(self.c2 * l4, 0.0);
        ws.p2_idx.resize(self.c2 * l4, 0);
        ws.logits.resize(self.classes, 0.0);
        ws.probs.resize(self.classes, 0.0);
        ws.d_a1.resize(self.c1 * l, 0.0);
        ws.d_p1.resize(self.c1 * l2, 0.0);
        ws.d_a2.resize(self.c2 * l2, 0.0);
        ws.d_p2.resize(self.c2 * l4, 0.0);
    }

    /// Forward pass for one sample; fills the workspace activations.
    fn forward_sample(&self, params: &[Scalar], x: &[Scalar], ws: &mut CnnWorkspace) {
        let [w1, b1, w2, b2, wf, _bf] = self.blocks();
        let (l, l2, l4) = (self.input_len, self.l2(), self.l4());
        let pad1 = self.k1 / 2;
        // conv1 (1 input channel) + ReLU
        for co in 0..self.c1 {
            let w = &params[w1 + co * self.k1..w1 + (co + 1) * self.k1];
            let bias = params[b1 + co];
            for t in 0..l {
                let mut acc = bias;
                for (dk, &wv) in w.iter().enumerate() {
                    let src = t + dk;
                    if src >= pad1 && src - pad1 < l {
                        acc += wv * x[src - pad1];
                    }
                }
                ws.a1[co * l + t] = acc.max(0.0);
            }
        }
        // maxpool 2
        for co in 0..self.c1 {
            for t in 0..l2 {
                let i0 = co * l + 2 * t;
                let (v, off) = if ws.a1[i0] >= ws.a1[i0 + 1] {
                    (ws.a1[i0], 0)
                } else {
                    (ws.a1[i0 + 1], 1)
                };
                ws.p1[co * l2 + t] = v;
                ws.p1_idx[co * l2 + t] = off;
            }
        }
        // conv2 + ReLU
        let pad2 = self.k2 / 2;
        for co in 0..self.c2 {
            let bias = params[b2 + co];
            for t in 0..l2 {
                let mut acc = bias;
                for ci in 0..self.c1 {
                    let w = &params[w2 + (co * self.c1 + ci) * self.k2
                        ..w2 + (co * self.c1 + ci + 1) * self.k2];
                    for (dk, &wv) in w.iter().enumerate() {
                        let src = t + dk;
                        if src >= pad2 && src - pad2 < l2 {
                            acc += wv * ws.p1[ci * l2 + src - pad2];
                        }
                    }
                }
                ws.a2[co * l2 + t] = acc.max(0.0);
            }
        }
        // maxpool 2
        for co in 0..self.c2 {
            for t in 0..l4 {
                let i0 = co * l2 + 2 * t;
                let (v, off) = if ws.a2[i0] >= ws.a2[i0 + 1] {
                    (ws.a2[i0], 0)
                } else {
                    (ws.a2[i0 + 1], 1)
                };
                ws.p2[co * l4 + t] = v;
                ws.p2_idx[co * l4 + t] = off;
            }
        }
        // fc
        let fc_in = self.fc_in();
        for c in 0..self.classes {
            let w = &params[wf + c * fc_in..wf + (c + 1) * fc_in];
            ws.logits[c] = ops::dot(w, &ws.p2) + params[self.blocks()[5] + c];
        }
    }

    /// Mean loss over the batch; accumulates gradient into `grad`
    /// (overwritten). Mirrors [`crate::Mlp::loss_and_grad`].
    pub fn loss_and_grad(
        &self,
        params: &[Scalar],
        features: &Matrix,
        labels: &[usize],
        grad: &mut [Scalar],
        ws: &mut CnnWorkspace,
    ) -> Scalar {
        assert_eq!(features.cols(), self.input_len, "input length mismatch");
        assert_eq!(features.rows(), labels.len(), "batch misaligned");
        assert_eq!(grad.len(), self.param_len(), "grad length mismatch");
        let batch = labels.len();
        assert!(batch > 0, "empty batch");
        self.prepare(ws);
        grad.fill(0.0);
        let [w1, b1, w2, b2, wf, bf] = self.blocks();
        let (l, l2, l4) = (self.input_len, self.l2(), self.l4());
        let fc_in = self.fc_in();
        let inv_b = 1.0 / batch as Scalar;
        let mut loss = 0.0;
        let mut probs = std::mem::take(&mut ws.probs);

        for (r, &label) in labels.iter().enumerate() {
            let x = features.row(r);
            self.forward_sample(params, x, ws);
            probs.copy_from_slice(&ws.logits);
            ops::softmax(&mut probs);
            loss += ops::cross_entropy(&probs, label);
            // δ_logits = (p − y)/B
            probs[label] -= 1.0;
            ops::scale(inv_b, &mut probs);

            // fc backward: ∇Wf += δ ⊗ p2, ∇bf += δ, d_p2 = Wfᵀ δ
            ws.d_p2.fill(0.0);
            for c in 0..self.classes {
                let d = probs[c];
                if d != 0.0 {
                    ops::axpy(d, &ws.p2, &mut grad[wf + c * fc_in..wf + (c + 1) * fc_in]);
                    ops::axpy(
                        d,
                        &params[wf + c * fc_in..wf + (c + 1) * fc_in],
                        &mut ws.d_p2,
                    );
                }
                grad[bf + c] += d;
            }

            // unpool2 + ReLU' → d_a2
            ws.d_a2.fill(0.0);
            for co in 0..self.c2 {
                for t in 0..l4 {
                    let d = ws.d_p2[co * l4 + t];
                    if d != 0.0 {
                        let src = co * l2 + 2 * t + ws.p2_idx[co * l4 + t];
                        if ws.a2[src] > 0.0 {
                            ws.d_a2[src] = d;
                        }
                    }
                }
            }

            // conv2 backward: ∇W2, ∇b2, d_p1
            let pad2 = self.k2 / 2;
            ws.d_p1.fill(0.0);
            for co in 0..self.c2 {
                for t in 0..l2 {
                    let d = ws.d_a2[co * l2 + t];
                    if d == 0.0 {
                        continue;
                    }
                    grad[b2 + co] += d;
                    for ci in 0..self.c1 {
                        let wbase = w2 + (co * self.c1 + ci) * self.k2;
                        for dk in 0..self.k2 {
                            let src = t + dk;
                            if src >= pad2 && src - pad2 < l2 {
                                let s = ci * l2 + src - pad2;
                                grad[wbase + dk] += d * ws.p1[s];
                                ws.d_p1[s] += d * params[wbase + dk];
                            }
                        }
                    }
                }
            }

            // unpool1 + ReLU' → d_a1
            ws.d_a1.fill(0.0);
            for co in 0..self.c1 {
                for t in 0..l2 {
                    let d = ws.d_p1[co * l2 + t];
                    if d != 0.0 {
                        let src = co * l + 2 * t + ws.p1_idx[co * l2 + t];
                        if ws.a1[src] > 0.0 {
                            ws.d_a1[src] = d;
                        }
                    }
                }
            }

            // conv1 backward: ∇W1, ∇b1 (input gradient not needed)
            let pad1 = self.k1 / 2;
            for co in 0..self.c1 {
                for t in 0..l {
                    let d = ws.d_a1[co * l + t];
                    if d == 0.0 {
                        continue;
                    }
                    grad[b1 + co] += d;
                    let wbase = w1 + co * self.k1;
                    for dk in 0..self.k1 {
                        let src = t + dk;
                        if src >= pad1 && src - pad1 < l {
                            grad[wbase + dk] += d * x[src - pad1];
                        }
                    }
                }
            }
        }
        ws.probs = probs;
        loss / batch as Scalar
    }

    /// Loss sum and correct count over rows `s..e`, one chunk of
    /// [`crate::network::Network::evaluate_pooled`], a sample at a time: the
    /// row form of the MLP's lane-per-row tail, on the same `exp`.
    /// Re-`prepare`s the workspace, which is free once it is sized (resize
    /// is a no-op).
    pub(crate) fn eval_chunk(
        &self,
        params: &[Scalar],
        features: &Matrix,
        labels: &[usize],
        (s, e): (usize, usize),
        ws: &mut CnnWorkspace,
    ) -> (Scalar, usize) {
        self.prepare(ws);
        let mut loss = 0.0f32;
        let mut correct = 0usize;
        for (r, &label) in labels.iter().enumerate().take(e).skip(s) {
            self.forward_sample(params, features.row(r), ws);
            let pred = ops::argmax(&ws.logits);
            ws.probs.copy_from_slice(&ws.logits);
            ops::softmax(&mut ws.probs);
            loss += ops::cross_entropy(&ws.probs, label);
            correct += usize::from(pred == label);
        }
        (loss, correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;
    use gfl_tensor::init::rng;

    fn tiny_cnn() -> Cnn1d {
        Cnn1d::new(8, 3, 4, 3, 3, 3)
    }

    #[test]
    fn param_len_matches_blocks() {
        let c = tiny_cnn();
        // conv1: 3*3+3=12, conv2: 4*3*3+4=40, fc: 3*(4*2)+3=27
        assert_eq!(c.param_len(), 12 + 40 + 27);
        let p = c.init_params(&mut rng(1));
        assert_eq!(p.len(), c.param_len());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let c = tiny_cnn();
        let mut r = rng(2);
        let params = c.init_params(&mut r);
        let features = Matrix::from_fn(4, 8, |_, _| init::normal(&mut r, 0.0, 1.0));
        let labels = vec![0usize, 1, 2, 1];
        let mut grad = vec![0.0; c.param_len()];
        let mut ws = c.workspace();
        c.loss_and_grad(&params, &features, &labels, &mut grad, &mut ws);

        let eps = 1e-3f32;
        let mut worst = 0.0f32;
        for k in 0..c.param_len() {
            let mut pp = params.clone();
            pp[k] += eps;
            let mut pm = params.clone();
            pm[k] -= eps;
            let mut dummy = vec![0.0; c.param_len()];
            let lp = c.loss_and_grad(&pp, &features, &labels, &mut dummy, &mut ws);
            let lm = c.loss_and_grad(&pm, &features, &labels, &mut dummy, &mut ws);
            let fd = (lp - lm) / (2.0 * eps);
            let diff = (grad[k] - fd).abs();
            let rel = diff / (1e-3 + fd.abs().max(grad[k].abs()));
            worst = worst.max(rel.min(diff));
        }
        assert!(worst < 0.08, "worst grad error {worst}");
    }

    #[test]
    fn learns_a_separable_task() {
        use gfl_data::SyntheticSpec;
        let spec = SyntheticSpec {
            num_classes: 3,
            feature_dim: 8,
            separation: 2.5,
            noise: 0.4,
        };
        let data = spec.generate(240, 3);
        let c = tiny_cnn();
        let mut r = rng(4);
        let mut params = c.init_params(&mut r);
        let mut grad = vec![0.0; c.param_len()];
        let mut ws = c.workspace();
        let net = Network::from(c.clone());
        let before = net.evaluate(&params, data.features(), data.labels());
        for _ in 0..150 {
            let loss = c.loss_and_grad(&params, data.features(), data.labels(), &mut grad, &mut ws);
            assert!(loss.is_finite());
            ops::axpy(-0.1, &grad, &mut params);
        }
        let after = net.evaluate(&params, data.features(), data.labels());
        assert!(
            after.accuracy > 0.8 && after.accuracy > before.accuracy,
            "cnn failed to learn: {} -> {}",
            before.accuracy,
            after.accuracy
        );
    }

    #[test]
    fn predict_matches_evaluate() {
        use gfl_data::SyntheticSpec;
        let data = SyntheticSpec {
            num_classes: 3,
            feature_dim: 8,
            separation: 2.0,
            noise: 0.5,
        }
        .generate(50, 5);
        let c = tiny_cnn();
        let params = c.init_params(&mut rng(6));
        let mut ws = c.workspace();
        c.prepare(&mut ws);
        let manual = data
            .labels()
            .iter()
            .enumerate()
            .filter(|&(r, &l)| {
                c.forward_sample(&params, data.features().row(r), &mut ws);
                ops::argmax(&ws.logits) == l
            })
            .count() as f32
            / 50.0;
        let eval = Network::from(c).evaluate(&params, data.features(), data.labels());
        assert!((manual - eval.accuracy).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "L must be ×4")]
    fn rejects_bad_input_len() {
        Cnn1d::new(10, 2, 2, 3, 3, 2);
    }

    #[test]
    #[should_panic(expected = "kernels must be odd")]
    fn rejects_even_kernel() {
        Cnn1d::new(8, 2, 2, 4, 3, 2);
    }

    #[test]
    fn deterministic_init_and_forward() {
        let c = tiny_cnn();
        let p1 = c.init_params(&mut rng(7));
        let p2 = c.init_params(&mut rng(7));
        assert_eq!(p1, p2);
    }

    #[test]
    fn speech_cnn_gradient_matches_central_differences() {
        // The paper-scale model: conv(1→8,k5) → pool → conv(8→16,k3) →
        // pool → fc(160→35). Sampled coordinates sweep all six parameter
        // blocks (conv1/conv2/fc weights and biases) so the same-padding
        // boundary handling, max-pool argmax routing, and ReLU gating are
        // all exercised against central differences. Tolerance: 1e-4
        // absolute plus a 1% relative guard for f32 rounding in the
        // two-sided loss evaluations.
        let crate::network::Network::Cnn(c) = crate::zoo::speech_cnn() else {
            panic!("speech_cnn must be the Cnn1d variant");
        };
        let mut r = rng(12);
        let params = c.init_params(&mut r);
        let features = Matrix::from_fn(3, c.input_dim(), |_, _| init::normal(&mut r, 0.0, 1.0));
        let labels = vec![0usize, 17, 34];
        let mut grad = vec![0.0; c.param_len()];
        let mut ws = c.workspace();
        c.loss_and_grad(&params, &features, &labels, &mut grad, &mut ws);

        // Every block start (hits channel-0/kernel-0 boundary weights) plus
        // a stride sweep across the whole vector, ~160 coordinates total.
        let mut coords: Vec<usize> = c.blocks().to_vec();
        let stride = (c.param_len() / 150).max(1);
        coords.extend((0..c.param_len()).step_by(stride));
        coords.sort_unstable();
        coords.dedup();

        let eps = 1e-2f32;
        let mut dummy = vec![0.0; c.param_len()];
        let mut worst = 0.0f32;
        for &k in &coords {
            let mut pp = params.clone();
            pp[k] += eps;
            let mut pm = params.clone();
            pm[k] -= eps;
            let lp = c.loss_and_grad(&pp, &features, &labels, &mut dummy, &mut ws);
            let lm = c.loss_and_grad(&pm, &features, &labels, &mut dummy, &mut ws);
            let fd = (lp - lm) / (2.0 * eps);
            let diff = (grad[k] - fd).abs();
            let tol = 1e-4 + 1e-2 * fd.abs().max(grad[k].abs());
            assert!(
                diff <= tol,
                "param {k}: backprop {} vs central diff {fd} (|Δ| {diff} > tol {tol})",
                grad[k]
            );
            worst = worst.max(diff);
        }
        assert!(worst.is_finite());
    }
}
