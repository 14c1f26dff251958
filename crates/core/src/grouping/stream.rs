//! Streaming group formation — O(n·m), the only shape that survives 10⁶
//! clients.
//!
//! CoVG/KLDG/CDG all rescan the remaining-client pool per admission, which
//! is O(n²·m) per edge and minutes of wall clock at a million clients. The
//! streaming algorithm gets the same qualitative objective — groups whose
//! combined label histograms approximate the global mix (low CoV) — with a
//! single pass:
//!
//! 1. bucket clients by *dominant label* (argmax of their histogram),
//! 2. shuffle each bucket once (seeded, for unbiased tie-breaking),
//! 3. build each group by repeatedly admitting a client from the bucket of
//!    the group's currently most-deficient label (the label with the
//!    smallest running count that still has candidates), keeping the
//!    group's running label counts for O(m) bookkeeping per admission,
//! 4. fold an undersized tail group into its predecessor.
//!
//! Step 3 is the CoV-greedy intuition — the candidate that fills the
//! emptiest histogram bin lowers CoV most — restricted to one O(m) argmin
//! instead of an O(n) candidate scan. Formation cost is O(n·m + n log n)
//! total, independent of group count, which is what the `scale-smoke` CI
//! job's sub-second `formation_seconds_1m` gate measures.

use gfl_data::LabelMatrix;
use gfl_tensor::init::GflRng;
use rand::Rng;

use crate::Group;

use super::GroupingAlgorithm;

/// Single-pass bucket-and-fill grouping.
#[derive(Debug, Clone, Copy)]
pub struct StreamGrouping {
    /// Target group size.
    pub group_size: usize,
}

impl GroupingAlgorithm for StreamGrouping {
    fn name(&self) -> &'static str {
        "StreamG"
    }

    fn form_groups(&self, labels: &LabelMatrix, rng: &mut GflRng) -> Vec<Group> {
        assert!(self.group_size >= 1);
        let n = labels.num_clients();
        let m = labels.num_labels();
        if n == 0 {
            return Vec::new();
        }

        // 1. Bucket by dominant label (ties -> lowest label id).
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); m];
        for c in 0..n {
            let hist = labels.client(c);
            let mut dominant = 0usize;
            for (l, &count) in hist.iter().enumerate() {
                if count > hist[dominant] {
                    dominant = l;
                }
            }
            buckets[dominant].push(c);
        }

        // 2. One seeded shuffle per bucket. Clients are popped from the
        // back, so shuffling makes admission order uniform within a bucket.
        for bucket in buckets.iter_mut() {
            for i in (1..bucket.len()).rev() {
                let j = rng.gen_range(0..=i);
                bucket.swap(i, j);
            }
        }

        // 3. Fill groups from the most-deficient label's bucket.
        let mut groups: Vec<Group> = Vec::new();
        let mut placed = 0usize;
        let mut hist = vec![0u64; m];
        while placed < n {
            let mut group = Vec::with_capacity(self.group_size);
            hist.fill(0);
            while group.len() < self.group_size && placed < n {
                let mut pick: Option<usize> = None;
                for l in 0..m {
                    if buckets[l].is_empty() {
                        continue;
                    }
                    match pick {
                        None => pick = Some(l),
                        Some(best) if hist[l] < hist[best] => pick = Some(l),
                        Some(_) => {}
                    }
                }
                let bucket = pick.expect("placed < n implies a non-empty bucket");
                let c = buckets[bucket].pop().expect("bucket checked non-empty");
                labels.add_client_into(c, &mut hist);
                group.push(c);
                placed += 1;
            }
            groups.push(group);
        }

        // 4. Fold an undersized tail, mirroring RG/KLDG.
        if groups.len() >= 2 && groups.last().map_or(0, Group::len) < self.group_size {
            let tail = groups.pop().unwrap();
            groups.last_mut().unwrap().extend(tail);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cov::mean_group_cov;
    use crate::grouping::{test_support::skewed_matrix, validate_partition, RandomGrouping};
    use gfl_tensor::init;

    #[test]
    fn partitions_everyone() {
        let labels = skewed_matrix(37, 5, 1);
        let groups = StreamGrouping { group_size: 5 }.form_groups(&labels, &mut init::rng(2));
        validate_partition(&groups, 37).unwrap();
    }

    #[test]
    fn is_deterministic() {
        let labels = skewed_matrix(50, 6, 3);
        let a = StreamGrouping { group_size: 6 }.form_groups(&labels, &mut init::rng(4));
        let b = StreamGrouping { group_size: 6 }.form_groups(&labels, &mut init::rng(4));
        assert_eq!(a, b);
    }

    #[test]
    fn beats_random_on_mean_cov() {
        let labels = skewed_matrix(60, 6, 5);
        let stream = StreamGrouping { group_size: 6 }.form_groups(&labels, &mut init::rng(6));
        let random = RandomGrouping { group_size: 6 }.form_groups(&labels, &mut init::rng(6));
        let s = mean_group_cov(&labels, &stream);
        let r = mean_group_cov(&labels, &random);
        assert!(s < r, "StreamG {s} should beat RG {r}");
    }

    #[test]
    fn complementary_clients_are_mixed() {
        // 4 pure-label cliques of 8; every size-4 group should contain all
        // four labels.
        let counts: Vec<Vec<u32>> = (0..32)
            .map(|i| (0..4).map(|l| if l == i % 4 { 10 } else { 0 }).collect())
            .collect();
        let labels = gfl_data::LabelMatrix::new(counts, 4);
        let groups = StreamGrouping { group_size: 4 }.form_groups(&labels, &mut init::rng(7));
        validate_partition(&groups, 32).unwrap();
        for g in &groups {
            let hist = labels.group_histogram(g);
            assert!(hist.iter().all(|&h| h > 0), "group {g:?} hist {hist:?}");
        }
    }

    #[test]
    fn undersized_tail_is_folded() {
        let labels = skewed_matrix(23, 4, 8);
        let groups = StreamGrouping { group_size: 5 }.form_groups(&labels, &mut init::rng(9));
        assert!(groups.iter().all(|g| g.len() >= 5), "{groups:?}");
    }
}
