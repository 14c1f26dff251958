//! Communication and wall-clock modelling — the §2.3 measurement axes the
//! paper's related work optimizes (training time [24], traffic [26, 27]).
//!
//! The emulated-seconds cost of [`crate::cost`] charges *device effort*
//! (Eq. 5). This module adds the orthogonal axes a deployment also cares
//! about: bytes moved per link and synchronous wall-clock time including
//! stragglers. Hierarchy matters here: the client↔edge hop is cheap and
//! parallel across groups, while the edge↔cloud hop only carries one group
//! model per sampled group per global round — which is exactly the
//! scalability argument for HFL (§1).

use serde::{Deserialize, Serialize};

/// One directed network link.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkModel {
    /// Sustained throughput, bytes per second.
    pub bytes_per_s: f64,
    /// Per-message latency, seconds.
    pub latency_s: f64,
}

impl LinkModel {
    /// Seconds to move `bytes` over this link.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bytes_per_s
    }
}

/// Link pair for the two hops of the Fig. 1 hierarchy.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CommModel {
    /// Client ↔ edge (both directions assumed symmetric): WiFi-class.
    pub client_edge: LinkModel,
    /// Edge ↔ cloud: WAN-class.
    pub edge_cloud: LinkModel,
}

impl CommModel {
    /// Edge-deployment defaults: 20 MB/s WiFi at 5 ms, 5 MB/s WAN at 40 ms.
    pub fn edge_default() -> Self {
        Self {
            client_edge: LinkModel {
                bytes_per_s: 20e6,
                latency_s: 0.005,
            },
            edge_cloud: LinkModel {
                bytes_per_s: 5e6,
                latency_s: 0.040,
            },
        }
    }

    /// Serialized size of a model with `params` f32 parameters.
    pub fn model_bytes(params: usize) -> u64 {
        4 * params as u64
    }

    /// Bytes a single client moves in one *global* round: one global-model
    /// download plus `K` masked-update uploads (`payload_factor` = 2.0 for
    /// SCAFFOLD's variate-carrying uploads).
    pub fn client_bytes_per_round(
        &self,
        params: usize,
        group_rounds: usize,
        payload_factor: f64,
    ) -> u64 {
        let model = Self::model_bytes(params) as f64;
        // download x_t once + download x_g per group round after the first,
        // + upload per group round.
        let downloads = model * group_rounds as f64;
        let uploads = model * payload_factor * group_rounds as f64;
        (downloads + uploads) as u64
    }

    /// Bytes one *group* moves over the edge↔cloud link per global round:
    /// one group-model upload + one global-model download.
    pub fn group_cloud_bytes(&self, params: usize) -> u64 {
        2 * Self::model_bytes(params)
    }

    /// Synchronous wall-clock time of one global round.
    ///
    /// Per group: `K` rounds of (slowest client's compute + up/down link
    /// transfer); groups run in parallel so the round takes the slowest
    /// group, then one edge→cloud exchange.
    ///
    /// `client_compute[g][i]` is the per-group-round compute time of client
    /// `i` of group `g` (already including straggler slowdowns).
    pub fn global_round_wall_clock(
        &self,
        client_compute: &[Vec<f64>],
        params: usize,
        group_rounds: usize,
        payload_factor: f64,
    ) -> f64 {
        let model_bytes = (Self::model_bytes(params) as f64 * payload_factor) as u64;
        let per_group = client_compute.iter().map(|clients| {
            let slowest = clients.iter().copied().fold(0.0f64, f64::max);
            let hop = self.client_edge.transfer_time(model_bytes)
                + self.client_edge.transfer_time(Self::model_bytes(params));
            group_rounds as f64 * (slowest + hop)
        });
        let slowest_group = per_group.fold(0.0f64, f64::max);
        slowest_group
            + self
                .edge_cloud
                .transfer_time(self.group_cloud_bytes(params))
    }
}

/// Accounting of one edge→cloud upload under retries (see
/// [`CommModel::upload_with_retries`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryOutcome {
    /// Transfer attempts made (initial + retries), successful or not.
    pub attempts: u32,
    /// Total wall-clock charged: every attempt's transfer time plus the
    /// exponential backoff waits between attempts.
    pub seconds: f64,
    /// Total bytes put on the wire (failed attempts still move bytes).
    pub bytes: u64,
    /// Whether the payload eventually arrived. `false` means the retry
    /// budget was exhausted and the upload is lost — the caller still owes
    /// the wall-clock and bytes above.
    pub delivered: bool,
}

impl CommModel {
    /// Charges an edge→cloud upload that fails `failed_attempts` times
    /// before succeeding (or is lost once failures exceed `max_retries`).
    ///
    /// Each attempt pays the full transfer over the edge↔cloud link; after
    /// the i-th failure the sender backs off `backoff_base_s · 2^i` seconds
    /// before retrying, with every individual wait clamped to
    /// `max_backoff_s` so pathological fault rates cannot charge unbounded
    /// emulated time. Lost uploads (every retry failed) thus charge
    /// realistic wall-clock and traffic for nothing — the failure mode a
    /// deployment actually pays for.
    pub fn upload_with_retries(
        &self,
        payload: u64,
        failed_attempts: u32,
        max_retries: u32,
        backoff_base_s: f64,
        max_backoff_s: f64,
    ) -> RetryOutcome {
        let delivered = failed_attempts <= max_retries;
        let failures = failed_attempts.min(max_retries + 1);
        let attempts = if delivered { failures + 1 } else { failures };
        let transfer = self.edge_cloud.transfer_time(payload);
        let mut seconds = f64::from(attempts) * transfer;
        // One backoff wait precedes each retry (attempts − 1 of them).
        for i in 0..attempts.saturating_sub(1) {
            seconds += (backoff_base_s * f64::from(1u32 << i.min(16))).min(max_backoff_s);
        }
        RetryOutcome {
            attempts,
            seconds,
            bytes: u64::from(attempts) * payload,
            delivered,
        }
    }
}

/// Multiplicative compute slowdowns per client (device heterogeneity).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StragglerModel {
    slowdowns: Vec<f64>,
}

impl StragglerModel {
    /// Deterministic heavy-tailed slowdowns: a `fraction` of clients run at
    /// `factor`× (e.g. 10% of devices 4× slower — the classic straggler
    /// profile). Client assignment is seeded.
    pub fn heavy_tail(clients: usize, fraction: f64, factor: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        assert!(factor >= 1.0);
        let mut slowdowns = vec![1.0; clients];
        // Simple multiplicative-hash selection keeps this dependency-free.
        let slow_count = (clients as f64 * fraction).round() as usize;
        let mut order: Vec<usize> = (0..clients).collect();
        order.sort_by_key(|&c| (c as u64 ^ seed).wrapping_mul(0x9E3779B97F4A7C15));
        for &c in order.iter().take(slow_count) {
            slowdowns[c] = factor;
        }
        Self { slowdowns }
    }

    pub fn slowdown(&self, client: usize) -> f64 {
        self.slowdowns[client]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_latency_and_throughput() {
        let link = LinkModel {
            bytes_per_s: 1e6,
            latency_s: 0.01,
        };
        assert!((link.transfer_time(1_000_000) - 1.01).abs() < 1e-9);
        assert!((link.transfer_time(0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn model_bytes_is_4_per_param() {
        assert_eq!(CommModel::model_bytes(1000), 4000);
    }

    #[test]
    fn scaffold_payload_doubles_uplink() {
        let m = CommModel::edge_default();
        let plain = m.client_bytes_per_round(10_000, 5, 1.0);
        let scaffold = m.client_bytes_per_round(10_000, 5, 2.0);
        assert!(scaffold > plain);
        // uploads double, downloads unchanged.
        let model = CommModel::model_bytes(10_000) as f64;
        assert_eq!((scaffold - plain) as f64, model * 5.0);
    }

    #[test]
    fn wall_clock_is_dominated_by_slowest_group_and_client() {
        let m = CommModel::edge_default();
        let fast = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let straggling = vec![vec![1.0, 10.0], vec![1.0, 1.0]];
        let t_fast = m.global_round_wall_clock(&fast, 10_000, 5, 1.0);
        let t_slow = m.global_round_wall_clock(&straggling, 10_000, 5, 1.0);
        assert!(t_slow > t_fast + 40.0, "{t_fast} -> {t_slow}");
    }

    #[test]
    fn hierarchy_beats_flat_cloud_upload() {
        // The HFL scalability argument: per global round only |S_t| group
        // models cross the WAN, not every client model.
        let m = CommModel::edge_default();
        let params = 20_000;
        let clients_per_group = 6;
        let groups = 4;
        let hierarchical_wan = groups as u64 * m.group_cloud_bytes(params);
        let flat_wan = (groups * clients_per_group) as u64 * 2 * CommModel::model_bytes(params);
        assert!(hierarchical_wan < flat_wan / 2);
    }

    #[test]
    fn retry_free_upload_charges_one_transfer() {
        let m = CommModel::edge_default();
        let out = m.upload_with_retries(5_000_000, 0, 3, 0.5, 60.0);
        assert_eq!(out.attempts, 1);
        assert!(out.delivered);
        assert_eq!(out.bytes, 5_000_000);
        assert!((out.seconds - m.edge_cloud.transfer_time(5_000_000)).abs() < 1e-12);
    }

    #[test]
    fn retries_back_off_exponentially() {
        let m = CommModel::edge_default();
        let transfer = m.edge_cloud.transfer_time(1_000_000);
        let out = m.upload_with_retries(1_000_000, 2, 3, 0.5, 60.0);
        assert_eq!(out.attempts, 3);
        assert!(out.delivered);
        assert_eq!(out.bytes, 3_000_000);
        // 3 transfers + backoffs of 0.5 and 1.0 seconds.
        assert!((out.seconds - (3.0 * transfer + 0.5 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn exhausted_retries_lose_the_upload_but_charge_for_it() {
        let m = CommModel::edge_default();
        let out = m.upload_with_retries(1_000_000, 4, 3, 0.5, 60.0);
        assert!(!out.delivered);
        // Initial attempt + 3 retries, all failed; no success transfer.
        assert_eq!(out.attempts, 4);
        assert_eq!(out.bytes, 4_000_000);
        // Same wire activity as a delivery on the final retry — only the
        // outcome of the last attempt differs.
        let lossless = m.upload_with_retries(1_000_000, 3, 3, 0.5, 60.0);
        assert!(lossless.delivered);
        assert_eq!(lossless.attempts, out.attempts);
        assert!((lossless.seconds - out.seconds).abs() < 1e-12);
    }

    #[test]
    fn backoff_waits_are_capped_at_max_backoff() {
        let m = CommModel::edge_default();
        let transfer = m.edge_cloud.transfer_time(1_000_000);
        // Base 0.5: waits would be 0.5, 1.0, 2.0, 4.0... — cap at 1.5 turns
        // the 3rd and later waits into exactly 1.5.
        let out = m.upload_with_retries(1_000_000, 4, 5, 0.5, 1.5);
        assert_eq!(out.attempts, 5);
        let expected = 5.0 * transfer + 0.5 + 1.0 + 1.5 + 1.5;
        assert!((out.seconds - expected).abs() < 1e-9, "{}", out.seconds);
    }

    #[test]
    fn high_attempt_counts_charge_bounded_time() {
        // Regression: before the cap, 40 failed attempts charged
        // ~2^16 · base seconds of backoff — pathological fault rates could
        // dominate the entire emulated budget. With the cap, total time is
        // bounded by attempts · (transfer + max_backoff_s).
        let m = CommModel::edge_default();
        let transfer = m.edge_cloud.transfer_time(1_000_000);
        let max_backoff = 30.0;
        let out = m.upload_with_retries(1_000_000, 64, 64, 0.5, max_backoff);
        assert_eq!(out.attempts, 65);
        let bound = f64::from(out.attempts) * (transfer + max_backoff);
        assert!(
            out.seconds <= bound,
            "charged {} s, cap-implied bound {} s",
            out.seconds,
            bound
        );
        // And the uncapped shape really would have exceeded it.
        let uncapped = m.upload_with_retries(1_000_000, 64, 64, 0.5, f64::INFINITY);
        assert!(uncapped.seconds > bound * 10.0);
    }

    #[test]
    fn straggler_model_marks_expected_fraction() {
        let s = StragglerModel::heavy_tail(100, 0.1, 4.0, 7);
        let slow = (0..100).filter(|&c| s.slowdown(c) > 1.0).count();
        assert_eq!(slow, 10);
    }

    #[test]
    fn straggler_selection_is_seed_deterministic() {
        let a = StragglerModel::heavy_tail(50, 0.2, 3.0, 1);
        let b = StragglerModel::heavy_tail(50, 0.2, 3.0, 1);
        let c = StragglerModel::heavy_tail(50, 0.2, 3.0, 2);
        let picks =
            |s: &StragglerModel| (0..50).filter(|&i| s.slowdown(i) > 1.0).collect::<Vec<_>>();
        assert_eq!(picks(&a), picks(&b));
        assert_ne!(picks(&a), picks(&c));
    }
}
