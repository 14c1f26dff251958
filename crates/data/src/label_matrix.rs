//! The label matrix `L` of §5.1: `L[i][j]` = number of samples of label `j`
//! held by client `i`.
//!
//! This is the *only* information the paper's grouping algorithms may use —
//! "to compute the CoV of a group, we only need to know the data label
//! distributions from users in that group, without any information of their
//! local data, model, nor gradient" (§5.1). Keeping it a standalone type
//! enforces that boundary in the code: grouping code depends on
//! `LabelMatrix`, never on `Dataset`.

use gfl_tensor::Scalar;
use serde::{Deserialize, Serialize};

/// Per-client label histograms, one row-major buffer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelMatrix {
    /// `counts[i * num_labels + j]`: samples of label `j` on client `i`.
    counts: Vec<u32>,
    num_clients: usize,
    num_labels: usize,
}

impl LabelMatrix {
    /// Builds from explicit per-client histograms.
    ///
    /// # Panics
    /// Panics if rows have inconsistent widths.
    pub fn new(counts: Vec<Vec<u32>>, num_labels: usize) -> Self {
        let mut flat = Vec::with_capacity(counts.len() * num_labels);
        for (i, row) in counts.iter().enumerate() {
            assert_eq!(row.len(), num_labels, "client {i} histogram width");
            flat.extend_from_slice(row);
        }
        Self {
            counts: flat,
            num_clients: counts.len(),
            num_labels,
        }
    }

    /// Builds from `num_clients` rows of `num_labels` counts laid end to end.
    ///
    /// # Panics
    /// Panics if `counts.len() != num_clients * num_labels`.
    pub fn from_flat(counts: Vec<u32>, num_clients: usize, num_labels: usize) -> Self {
        assert_eq!(
            counts.len(),
            num_clients * num_labels,
            "flat label matrix length"
        );
        Self {
            counts,
            num_clients,
            num_labels,
        }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Number of label categories `m`.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Histogram of one client.
    pub fn client(&self, i: usize) -> &[u32] {
        assert!(i < self.num_clients, "client {i} out of range");
        &self.counts[i * self.num_labels..(i + 1) * self.num_labels]
    }

    /// Total samples held by client `i` (the paper's `n_i`).
    pub fn client_total(&self, i: usize) -> u64 {
        self.client(i).iter().map(|&c| c as u64).sum()
    }

    /// Total samples across all clients (the paper's `n`).
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Combined histogram of a set of clients (a group's label distribution).
    pub fn group_histogram(&self, members: &[usize]) -> Vec<u64> {
        let mut hist = vec![0u64; self.num_labels];
        for &i in members {
            self.add_client_into(i, &mut hist);
        }
        hist
    }

    /// Adds client `i`'s histogram into an existing accumulator; the greedy
    /// CoV-Grouping inner loop uses this to avoid recomputing group
    /// histograms from scratch for every candidate.
    pub fn add_client_into(&self, i: usize, hist: &mut [u64]) {
        assert_eq!(hist.len(), self.num_labels);
        for (h, &c) in hist.iter_mut().zip(self.client(i)) {
            *h += c as u64;
        }
    }

    /// The global label distribution as probabilities.
    pub fn global_distribution(&self) -> Vec<Scalar> {
        let mut hist = vec![0u64; self.num_labels];
        for i in 0..self.num_clients {
            self.add_client_into(i, &mut hist);
        }
        let floats: Vec<Scalar> = hist.iter().map(|&h| h as Scalar).collect();
        gfl_tensor::stats::normalize(&floats)
    }

    /// Client `i`'s label distribution as probabilities.
    pub fn client_distribution(&self, i: usize) -> Vec<Scalar> {
        let floats: Vec<Scalar> = self.client(i).iter().map(|&h| h as Scalar).collect();
        gfl_tensor::stats::normalize(&floats)
    }

    /// Restricts the matrix to a subset of clients, renumbering them
    /// `0..members.len()` (used to scope grouping to one edge server).
    pub fn restrict(&self, members: &[usize]) -> LabelMatrix {
        let mut counts = Vec::with_capacity(members.len() * self.num_labels);
        for &i in members {
            counts.extend_from_slice(self.client(i));
        }
        LabelMatrix::from_flat(counts, members.len(), self.num_labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> LabelMatrix {
        LabelMatrix::new(
            vec![
                vec![10, 0, 0],
                vec![0, 10, 0],
                vec![0, 0, 10],
                vec![3, 3, 4],
            ],
            3,
        )
    }

    #[test]
    fn totals() {
        let m = toy();
        assert_eq!(m.client_total(0), 10);
        assert_eq!(m.client_total(3), 10);
        assert_eq!(m.total(), 40);
    }

    #[test]
    fn group_histogram_merges() {
        let m = toy();
        assert_eq!(m.group_histogram(&[0, 1]), vec![10, 10, 0]);
        assert_eq!(m.group_histogram(&[0, 1, 2]), vec![10, 10, 10]);
        assert_eq!(m.group_histogram(&[]), vec![0, 0, 0]);
    }

    #[test]
    fn add_client_into_accumulates_the_group_histogram() {
        let m = toy();
        let mut hist = m.group_histogram(&[0, 3]);
        m.add_client_into(1, &mut hist);
        assert_eq!(hist, m.group_histogram(&[0, 1, 3]));
    }

    #[test]
    fn global_distribution_is_uniform_for_balanced_matrix() {
        let m = toy();
        let g = m.global_distribution();
        // 13,13,14 over 40
        assert!((g[0] - 13.0 / 40.0).abs() < 1e-6);
        assert!((g.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn restrict_renumbers() {
        let m = toy();
        let r = m.restrict(&[2, 3]);
        assert_eq!(r.num_clients(), 2);
        assert_eq!(r.client(0), &[0, 0, 10]);
        assert_eq!(r.client(1), &[3, 3, 4]);
    }

    #[test]
    fn new_from_flat_and_restrict_round_trip() {
        let rows = vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]];
        let nested = LabelMatrix::new(rows.clone(), 3);
        let flat = LabelMatrix::from_flat(rows.concat(), 3, 3);
        assert_eq!(nested, flat);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(flat.client(i), row.as_slice());
        }
        // Restricting to everyone is the identity; to a reordered subset,
        // the gathered rows.
        assert_eq!(flat.restrict(&[0, 1, 2]), flat);
        let picked = flat.restrict(&[2, 0, 2]);
        let want = vec![rows[2].clone(), rows[0].clone(), rows[2].clone()];
        assert_eq!(picked, LabelMatrix::new(want, 3));
        assert_eq!(flat.restrict(&[]).num_clients(), 0);
        // Zero labels keeps its client count.
        let hollow = LabelMatrix::new(vec![Vec::new(); 4], 0);
        assert_eq!(hollow.num_clients(), 4);
        assert_eq!(hollow, LabelMatrix::from_flat(Vec::new(), 4, 0));
        assert_eq!(hollow.restrict(&[1, 3]).num_clients(), 2);
        assert!(hollow.client(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "flat label matrix length")]
    fn from_flat_rejects_a_ragged_buffer() {
        LabelMatrix::from_flat(vec![1, 2, 3, 4, 5], 2, 3);
    }

    #[test]
    #[should_panic(expected = "histogram width")]
    fn inconsistent_widths_panic() {
        LabelMatrix::new(vec![vec![1, 2], vec![1]], 2);
    }
}
