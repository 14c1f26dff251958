//! Property tests for the chunked `evaluate` paths.
//!
//! Both network variants evaluate in fixed 256-row chunks
//! (`EVAL_CHUNK`) whose partial losses are folded in chunk order. These
//! tests pin that contract down to the bit: the chunked fold must equal
//! a sequential per-row reference folded the same way, and the result
//! must not move with the worker-thread count.

use gfl_nn::{Cnn1d, Mlp, Network};
use gfl_tensor::Matrix;

const CHUNK: usize = 256;

fn synthetic(rows: usize, net: &Network, seed: u64) -> (Matrix, Vec<usize>) {
    let spec = gfl_data::SyntheticSpec {
        num_classes: net.num_classes(),
        feature_dim: net.input_dim(),
        separation: 2.0,
        noise: 0.5,
    };
    let data = spec.generate(rows, seed);
    (data.features().clone(), data.labels().to_vec())
}

/// Per-row mean loss via a single-row `loss_and_grad` call. For a batch of
/// one, the engine's loss path (softmax + cross-entropy, `inv_b = 1`) runs
/// the exact same float operations as `evaluate`'s per-row loss, so this
/// reference is bitwise-comparable.
fn row_loss(net: &Network, params: &[f32], features: &Matrix, row: usize, label: usize) -> f32 {
    let single = Matrix::from_fn(1, features.cols(), |_, c| features.row(row)[c]);
    let mut grad = vec![0.0; net.param_len()];
    let mut ws = net.workspace();
    net.loss_and_grad(params, &single, &[label], &mut grad, &mut ws)
}

/// Folds per-row losses exactly the way `evaluate` does: f32 sum within
/// each 256-row chunk, chunk partials added in chunk order, one final
/// division by `n`.
fn chunked_reference_loss(
    net: &Network,
    params: &[f32],
    features: &Matrix,
    labels: &[usize],
) -> f32 {
    let n = labels.len();
    let mut total = 0.0f32;
    for start in (0..n).step_by(CHUNK) {
        let end = (start + CHUNK).min(n);
        let mut partial = 0.0f32;
        for (row, &label) in labels.iter().enumerate().take(end).skip(start) {
            partial += row_loss(net, params, features, row, label);
        }
        total += partial;
    }
    total / n as f32
}

fn assert_chunked_fold_matches(net: Network, seed: u64) {
    // 600 rows → chunks of 256, 256, 88: two full chunks plus a remainder.
    let (features, labels) = synthetic(600, &net, seed);
    let params = net.init_params(&mut gfl_tensor::init::rng(seed + 1));

    let reference = chunked_reference_loss(&net, &params, &features, &labels);
    for threads in [1usize, 2, 8] {
        gfl_parallel::set_default_parallelism(threads);
        let eval = net.evaluate(&params, &features, &labels);
        assert_eq!(eval.examples, 600);
        assert_eq!(
            eval.loss.to_bits(),
            reference.to_bits(),
            "chunked evaluate loss {} != per-row chunk-fold reference {} at {threads} threads",
            eval.loss,
            reference
        );
    }
}

#[test]
fn mlp_chunked_evaluate_equals_per_row_fold_bitwise() {
    assert_chunked_fold_matches(Mlp::new(vec![4, 8, 3]).into(), 21);
}

#[test]
fn cnn_chunked_evaluate_equals_per_row_fold_bitwise() {
    assert_chunked_fold_matches(Cnn1d::new(8, 3, 4, 3, 3, 3).into(), 22);
}

#[test]
fn evaluate_is_thread_count_invariant_bitwise() {
    for (net, seed) in [
        (Network::from(Mlp::new(vec![4, 8, 3])), 23u64),
        (Network::from(Cnn1d::new(8, 3, 4, 3, 3, 3)), 24),
    ] {
        let (features, labels) = synthetic(521, &net, seed);
        let params = net.init_params(&mut gfl_tensor::init::rng(seed));
        gfl_parallel::set_default_parallelism(1);
        let base = net.evaluate(&params, &features, &labels);
        for threads in [2usize, 8] {
            gfl_parallel::set_default_parallelism(threads);
            let eval = net.evaluate(&params, &features, &labels);
            assert_eq!(base.loss.to_bits(), eval.loss.to_bits());
            assert_eq!(base.accuracy.to_bits(), eval.accuracy.to_bits());
        }
    }
}
