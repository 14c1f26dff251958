//! In-memory labeled dataset and minibatch views.

use gfl_tensor::{Matrix, Scalar};
use serde::{Deserialize, Serialize};

/// A dense classification dataset: one feature row per sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<usize>,
    num_classes: usize,
}

/// A borrowed minibatch: gathered feature rows plus their labels.
#[derive(Debug)]
pub struct Batch {
    /// `batch_size × feature_dim` gathered features.
    pub features: Matrix,
    /// Labels aligned with the feature rows.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Builds a dataset, validating label range.
    ///
    /// # Panics
    /// Panics if any label is `>= num_classes` or if the label count does not
    /// match the feature row count.
    pub fn new(features: Matrix, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature rows and labels must align"
        );
        assert!(num_classes > 0, "need at least one class");
        for (&l, i) in labels.iter().zip(0..) {
            assert!(l < num_classes, "label {l} at row {i} out of range");
        }
        Self {
            features,
            labels,
            num_classes,
        }
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Consumes the dataset, returning its feature matrix and label vector
    /// so their allocations can be recycled through buffer pools.
    pub fn into_parts(self) -> (Matrix, Vec<usize>) {
        (self.features, self.labels)
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    pub fn features(&self) -> &Matrix {
        &self.features
    }

    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Label histogram of the whole dataset.
    pub fn label_histogram(&self) -> Vec<u32> {
        let mut hist = vec![0u32; self.num_classes];
        for &l in &self.labels {
            hist[l] += 1;
        }
        hist
    }

    /// Gathers the given sample indices into a minibatch.
    pub fn batch(&self, indices: &[usize]) -> Batch {
        let mut out = Batch::empty();
        self.batch_into(indices, &mut out);
        out
    }

    /// [`Dataset::batch`] into a caller-owned [`Batch`], reusing its feature
    /// and label buffers. The training hot path gathers one minibatch per
    /// SGD step; this keeps those gathers allocation-free after warm-up.
    pub fn batch_into(&self, indices: &[usize], out: &mut Batch) {
        self.features.gather_rows_into(indices, &mut out.features);
        out.labels.clear();
        out.labels.extend(indices.iter().map(|&i| self.labels[i]));
    }

    /// Splits into (train, test) by taking every `k`-th sample into the test
    /// set (deterministic, label-stratified enough for synthetic data).
    /// Synthetic data skips it: `SyntheticSpec::generate_holdout` draws the
    /// two halves directly.
    pub fn split_holdout(&self, every_k: usize) -> (Dataset, Dataset) {
        assert!(every_k >= 2, "every_k must be at least 2");
        let mut train_idx = Vec::new();
        let mut test_idx = Vec::new();
        for i in 0..self.len() {
            if i % every_k == 0 {
                test_idx.push(i);
            } else {
                train_idx.push(i);
            }
        }
        (self.subset(&train_idx), self.subset(&test_idx))
    }

    /// Materializes a subset as its own dataset.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let b = self.batch(indices);
        Dataset::new(b.features, b.labels, self.num_classes)
    }
}

impl Batch {
    /// An empty batch, ready to be filled by [`Dataset::batch_into`].
    pub fn empty() -> Self {
        Self {
            features: Matrix::zeros(0, 0),
            labels: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Mean feature vector of the batch (used by tests and defenses).
    pub fn mean_feature(&self) -> Vec<Scalar> {
        let mut mean = vec![0.0; self.features.cols()];
        if self.is_empty() {
            return mean;
        }
        for r in 0..self.features.rows() {
            gfl_tensor::ops::add_assign(self.features.row(r), &mut mean);
        }
        gfl_tensor::ops::scale(1.0 / self.len() as Scalar, &mut mean);
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let features = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as f32);
        Dataset::new(features, vec![0, 1, 2, 0, 1, 2], 3)
    }

    #[test]
    fn histogram_counts_labels() {
        assert_eq!(toy().label_histogram(), vec![2, 2, 2]);
    }

    #[test]
    fn batch_gathers_aligned_rows() {
        let d = toy();
        let b = d.batch(&[4, 1]);
        assert_eq!(b.labels, vec![1, 1]);
        assert_eq!(b.features.row(0), &[8.0, 9.0]);
        assert_eq!(b.features.row(1), &[2.0, 3.0]);
    }

    #[test]
    fn batch_into_reuses_buffers_and_matches_batch() {
        let d = toy();
        let mut b = Batch::empty();
        d.batch_into(&[4, 1, 0], &mut b);
        let fresh = d.batch(&[4, 1, 0]);
        assert_eq!(b.labels, fresh.labels);
        assert_eq!(b.features, fresh.features);
        // Refill with a different size: buffers are reused, contents replaced.
        d.batch_into(&[2], &mut b);
        assert_eq!(b.labels, vec![2]);
        assert_eq!(b.features.row(0), d.features().row(2));
    }

    #[test]
    fn split_holdout_partitions_everything() {
        let d = toy();
        let (train, test) = d.split_holdout(3);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(test.len(), 2); // rows 0 and 3
        assert_eq!(test.labels(), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn label_out_of_range_panics() {
        let features = Matrix::zeros(1, 2);
        Dataset::new(features, vec![5], 3);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn misaligned_labels_panic() {
        let features = Matrix::zeros(2, 2);
        Dataset::new(features, vec![0], 3);
    }

    #[test]
    fn mean_feature_of_batch() {
        let d = toy();
        let b = d.batch(&[0, 1]);
        assert_eq!(b.mean_feature(), vec![1.0, 2.0]);
    }

    #[test]
    fn empty_batch_is_safe() {
        let d = toy();
        let b = d.batch(&[]);
        assert!(b.is_empty());
        assert_eq!(b.mean_feature(), vec![0.0, 0.0]);
    }
}
