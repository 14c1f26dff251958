//! `Mlp` against a straight-line reference, bit for bit.
//!
//! The kernels under `Mlp::loss_and_grad` and `Network::evaluate` pack
//! weights into panels, hold sixteen outputs per vector and skip with
//! masks. None of that may show: this file restates the network as plain
//! loops over the canonical 16-chain dot and the zero-skipping axpy sweep
//! (the order `gfl_tensor::simd` documents) and softmax over libm's own
//! `f32::exp`, and demands the same bits from every SIMD tier on both
//! model-zoo shapes.

use gfl_nn::{Mlp, Network};
use gfl_tensor::{init, ops, simd, Matrix};

/// Rows per evaluation chunk (`gfl_nn::EVAL_CHUNK`).
const CHUNK: usize = 256;

/// The canonical dot: 16 stride-16 chains, combined left to right from
/// `0.0`, then the remainder in ascending order.
fn dot(x: &[f32], y: &[f32]) -> f32 {
    let mut chains = [0.0f32; 16];
    let full = x.len() / 16 * 16;
    for i in 0..full {
        chains[i % 16] += x[i] * y[i];
    }
    let mut sum = 0.0;
    for c in chains {
        sum += c;
    }
    for i in full..x.len() {
        sum += x[i] * y[i];
    }
    sum
}

/// Softmax on libm's `f32::exp` itself, not on `ops::exp`: the oracle
/// stays independent of the exponential it checks.
fn softmax(x: &mut [f32]) {
    let max = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let mut sum = 0.0;
    for xi in x.iter_mut() {
        *xi = (*xi - max).exp();
        sum += *xi;
    }
    let inv = 1.0 / sum;
    for xi in x.iter_mut() {
        *xi *= inv;
    }
}

/// `y += alpha * x`, unless `alpha` is zero (the ReLU skip).
fn axpy_unless_zero(alpha: f32, x: &[f32], y: &mut [f32]) {
    if alpha != 0.0 {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }
}

/// `(weights, bias)` of every layer, in order, out of the flat vector.
fn layers<'a>(dims: &[usize], params: &'a [f32]) -> Vec<(&'a [f32], &'a [f32])> {
    let mut rest = params;
    dims.windows(2)
        .map(|d| {
            let (w, tail) = rest.split_at(d[1] * d[0]);
            let (b, tail) = tail.split_at(d[1]);
            rest = tail;
            (w, b)
        })
        .collect()
}

/// Activations of one sample, input included; the last entry is the logits.
fn forward(dims: &[usize], params: &[f32], x: &[f32]) -> Vec<Vec<f32>> {
    let mut acts = vec![x.to_vec()];
    for (l, (w, b)) in layers(dims, params).into_iter().enumerate() {
        let input = &acts[l];
        let out = w
            .chunks_exact(dims[l])
            .zip(b)
            .map(|(row, &bias)| {
                let z = dot(input, row) + bias;
                if l + 2 < dims.len() && z < 0.0 {
                    0.0
                } else {
                    z
                }
            })
            .collect();
        acts.push(out);
    }
    acts
}

fn loss_and_grad(dims: &[usize], params: &[f32], x: &Matrix, labels: &[usize]) -> (f32, Vec<f32>) {
    let batch = labels.len();
    let acts: Vec<_> = (0..batch)
        .map(|r| forward(dims, params, x.row(r)))
        .collect();
    let mut loss = 0.0f32;
    // Δ_L = (softmax(logits) − onehot) / B, per sample.
    let mut deltas: Vec<Vec<f32>> = acts
        .iter()
        .zip(labels)
        .map(|(a, &label)| {
            let mut row = a.last().unwrap().clone();
            softmax(&mut row);
            loss += ops::cross_entropy(&row, label);
            row[label] -= 1.0;
            ops::scale(1.0 / batch as f32, &mut row);
            row
        })
        .collect();
    loss /= batch as f32;

    let mut grads = Vec::new();
    for (l, (w, _)) in layers(dims, params).into_iter().enumerate().rev() {
        let (o, i) = (dims[l + 1], dims[l]);
        let (mut gw, mut gb) = (vec![0.0f32; o * i], vec![0.0f32; o]);
        for (d, a) in deltas.iter().zip(&acts) {
            for (j, &dj) in d.iter().enumerate() {
                axpy_unless_zero(dj, &a[l], &mut gw[j * i..(j + 1) * i]);
                gb[j] += dj;
            }
        }
        if l > 0 {
            for (d, a) in deltas.iter_mut().zip(&acts) {
                let mut below = vec![0.0f32; i];
                for (j, &dj) in d.iter().enumerate() {
                    axpy_unless_zero(dj, &w[j * i..(j + 1) * i], &mut below);
                }
                for (g, &act) in below.iter_mut().zip(&a[l]) {
                    if act <= 0.0 {
                        *g = 0.0;
                    }
                }
                *d = below;
            }
        }
        grads.push([gw, gb].concat());
    }
    grads.reverse();
    (loss, grads.concat())
}

/// `(mean loss, accuracy)`: per-chunk sums in row order, chunks in order.
fn evaluate(dims: &[usize], params: &[f32], x: &Matrix, labels: &[usize]) -> (f32, f32) {
    let (mut loss_sum, mut correct) = (0.0f32, 0usize);
    for (c, chunk) in labels.chunks(CHUNK).enumerate() {
        let mut chunk_loss = 0.0f32;
        for (r, &label) in chunk.iter().enumerate() {
            let mut probs = forward(dims, params, x.row(c * CHUNK + r)).pop().unwrap();
            correct += usize::from(ops::argmax(&probs) == label);
            softmax(&mut probs);
            chunk_loss += ops::cross_entropy(&probs, label);
        }
        loss_sum += chunk_loss;
    }
    let n = labels.len() as f32;
    (loss_sum / n, correct as f32 / n)
}

fn assert_same_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}[{i}]: {g:e} vs reference {w:e}"
        );
    }
}

/// Every tier in turn, each set on this test's thread alone.
#[test]
fn mlp_equals_the_straight_line_reference_at_every_tier() {
    for dims in [vec![64, 128, 64, 10], vec![40, 48, 35]] {
        let mlp = Mlp::new(dims.clone());
        let mut rng = init::rng(dims.len() as u64);
        let mut params = mlp.init_params(&mut rng);
        // Biases off zero, so the epilogue's add is not a no-op.
        for p in params.iter_mut().filter(|p| **p == 0.0) {
            *p = init::normal(&mut rng, 0.0, 0.1);
        }
        // 300 rows: a full evaluation chunk and a ragged one.
        let x = Matrix::from_fn(300, dims[0], |_, _| init::normal(&mut rng, 0.0, 1.0));
        let labels: Vec<usize> = (0..300).map(|r| r * 7 % dims[dims.len() - 1]).collect();
        let want_eval = evaluate(&dims, &params, &x, &labels);

        for tier in simd::supported_tiers() {
            let prev = simd::set_tier(tier);
            let what = format!("{dims:?} tier={}", tier.name());
            let mut ws = mlp.workspace();
            // Full minibatch, epoch remainder, odd sizes.
            for batch in [32usize, 4, 19, 1] {
                let xb = Matrix::from_fn(batch, dims[0], |r, c| x.row(r)[c]);
                let (want_loss, want_grad) = loss_and_grad(&dims, &params, &xb, &labels[..batch]);
                let mut grad = vec![f32::NAN; mlp.param_len()];
                let loss = mlp.loss_and_grad(&params, &xb, &labels[..batch], &mut grad, &mut ws);
                assert_same_bits(&format!("{what} b={batch} loss"), &[loss], &[want_loss]);
                assert_same_bits(&format!("{what} b={batch} grad"), &grad, &want_grad);
            }
            let eval = Network::from(mlp.clone()).evaluate(&params, &x, &labels);
            assert_same_bits(
                &format!("{what} evaluate"),
                &[eval.loss, eval.accuracy],
                &[want_eval.0, want_eval.1],
            );
            simd::set_tier(prev);
        }
    }
}
