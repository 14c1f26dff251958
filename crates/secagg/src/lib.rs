//! Pairwise-masking secure aggregation (Bonawitz et al., CCS'17 — simplified
//! to the honest-but-curious core).
//!
//! This is the group operation whose **quadratic per-group cost** motivates
//! the whole paper: Fig. 2(a)/Fig. 8 show SecAgg time growing quadratically
//! in group size and dwarfing training time on edge devices. We implement
//! the protocol's arithmetic for real so that (a) the group aggregation in
//! the simulator can actually run privately-summed updates end to end, and
//! (b) operation counters empirically certify the O(|g|²·d) total cost that
//! `gfl-sim`'s analytic model assumes.
//!
//! ## Protocol (one round, dimension d, group g)
//!
//! 1. Every ordered pair `i < j` shares a pairwise seed `s_ij` (derived here
//!    from a session seed; a deployment would run Diffie–Hellman — the
//!    asymptotics per client, |g|−1 key agreements, are identical).
//! 2. Client `i` sends `y_i = x_i + Σ_{j>i} PRG(s_ij) − Σ_{j<i} PRG(s_ji)`.
//! 3. The server sums the `y_i`; all masks cancel pairwise, leaving `Σ x_i`.
//! 4. **Dropouts:** if a client drops after masks were applied, survivors
//!    reveal their pairwise seeds with the dropped client (stand-in for the
//!    Shamir-share recovery of the full protocol) and the server subtracts
//!    the orphaned masks.
//!
//! Masks are generated in f32 from a ChaCha8 PRG. Exact real-number
//! cancellation holds because both sides generate bit-identical mask
//! streams; summation order of the server is fixed (survivor order) so the
//! unmasked sum is deterministic.
//!
//! ## Two statements of one protocol
//!
//! [`SecAggSession::mask`] and [`SecAggSession::unmask_sum`] are the
//! protocol as its parties run it — one call per client, one for the
//! server — and carry the work counters the cost model is validated against.
//! [`SecAggSession::aggregate_range`] is the same arithmetic as a simulator
//! wants it: the whole round for the coordinates `[lo, lo + n)`, in place,
//! with no allocation. It is bit-identical to `mask` + `unmask_sum`, for
//! three reasons:
//!
//! * **Element *i* of a mask is keystream word *i*.** A mask element is one
//!   `u32` of the pair's ChaCha8 stream mapped to `[-scale, scale)`, so the
//!   mask of a coordinate range is a seek (`set_word_pos`) and a wide fill,
//!   whatever was or was not expanded before it. Both statements go through
//!   the one expansion routine, `pair_mask`.
//! * **No operation of the protocol combines two coordinates.** Scaling,
//!   masking, summing and recovery are all element-wise, so the round over
//!   a range is the range of the round: ranges can be any length, run in
//!   any order, on any thread.
//! * **Each vector still sees its operands in the same order.** The range
//!   kernel expands every pair's mask once and applies it to both endpoints,
//!   walking pairs `(pa, pb)`, `pa < pb`, in lexicographic order of roster
//!   *position*. Client `p` therefore receives the masks of positions
//!   `0, 1, …` (skipping itself) in increasing order — the pairs `(q, p)`,
//!   `q < p`, precede the pairs `(p, q)`, `q > p` — which is the order of
//!   `mask`'s loop over the roster. The sign of a mask is decided by *id*
//!   (`+` on the smaller), its turn by position. Survivors are then summed
//!   from `0.0` in the order given and orphaned masks cancelled dropped
//!   member by dropped member, survivor by survivor, as `unmask_sum` does.

#![forbid(unsafe_code)]

use gfl_tensor::{ops, Scalar};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Client identifier within a secure-aggregation session.
pub type ClientId = u32;

/// Work counters used to validate the cost model empirically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecAggCost {
    /// Pairwise PRG mask expansions performed (each costs O(d)).
    pub prg_expansions: u64,
    /// Scalar additions performed on vectors of length d.
    pub vector_adds: u64,
    /// Pairwise key agreements performed.
    pub key_agreements: u64,
}

impl SecAggCost {
    /// Total scalar operations implied, for dimension `d`.
    pub fn scalar_ops(&self, d: usize) -> u64 {
        (self.prg_expansions + self.vector_adds) * d as u64
    }

    fn merge(&mut self, other: SecAggCost) {
        self.prg_expansions += other.prg_expansions;
        self.vector_adds += other.vector_adds;
        self.key_agreements += other.key_agreements;
    }
}

/// One secure-aggregation session over a fixed group roster.
#[derive(Debug, Clone)]
pub struct SecAggSession {
    members: Vec<ClientId>,
    dim: usize,
    session_seed: u64,
    mask_scale: Scalar,
}

impl SecAggSession {
    /// Creates a session for `members` aggregating vectors of length `dim`.
    ///
    /// # Panics
    /// Panics on duplicate members or an empty roster.
    pub fn new(members: Vec<ClientId>, dim: usize, session_seed: u64) -> Self {
        assert!(!members.is_empty(), "empty secure-aggregation group");
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), members.len(), "duplicate member ids");
        Self {
            members,
            dim,
            session_seed,
            // Masks are drawn U(-scale, scale); large enough to hide typical
            // gradient coordinates, small enough to keep f32 cancellation
            // exact (values well inside the 24-bit mantissa range).
            mask_scale: 64.0,
        }
    }

    /// The pairwise seed for the unordered pair `{a, b}`.
    fn pair_seed(&self, a: ClientId, b: ClientId) -> u64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        // SplitMix-style mixing of (session, lo, hi).
        let mut z = self
            .session_seed
            .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(1 + lo as u64))
            .wrapping_add(0xBF58476D1CE4E5B9u64.wrapping_mul(1 + hi as u64));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Expands elements `lo .. lo + out.len()` of the pairwise mask for
    /// `{a, b}` — the one expansion routine. Element `i` is word `i` of the
    /// pair's keystream mapped to `[-scale, scale)` exactly as
    /// `gen_range(-scale..scale)` maps it.
    fn pair_mask(&self, a: ClientId, b: ClientId, lo: usize, out: &mut [Scalar]) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.pair_seed(a, b));
        rng.set_word_pos(lo as u128);
        let (start, width) = (-self.mask_scale, self.mask_scale - -self.mask_scale);
        let mut bytes = [0u8; 4 * EXPAND_WORDS];
        for run in out.chunks_mut(EXPAND_WORDS) {
            let bytes = &mut bytes[..4 * run.len()];
            rng.fill_bytes(bytes);
            for (m, word) in run.iter_mut().zip(bytes.chunks_exact(4)) {
                let word = u32::from_le_bytes(word.try_into().expect("four bytes"));
                let unit = (word >> 8) as Scalar * (1.0 / (1u32 << 24) as Scalar);
                *m = start + unit * width;
            }
        }
    }

    /// `roles[p]` for roster position `p`: the index into `survivors` of
    /// the member there, or `survivors.len() + i` for the `i`-th dropped
    /// member in roster order. Returns the number of dropped members.
    ///
    /// # Panics
    /// Panics on a survivor that is not a member or is listed twice.
    fn assign_roles(
        &self,
        survivors: impl ExactSizeIterator<Item = ClientId>,
        roles: &mut Vec<usize>,
    ) -> usize {
        let n_surv = survivors.len();
        roles.clear();
        roles.resize(self.members.len(), usize::MAX);
        for (k, s) in survivors.enumerate() {
            let p = self.members.iter().position(|&m| m == s);
            let p = p.unwrap_or_else(|| panic!("survivor {s} not a member"));
            assert_eq!(roles[p], usize::MAX, "duplicate survivor ids");
            roles[p] = k;
        }
        let mut dropped = 0;
        for role in roles.iter_mut().filter(|r| **r == usize::MAX) {
            *role = n_surv + dropped;
            dropped += 1;
        }
        dropped
    }

    /// Client-side masking: returns `x + Σ_{j>i} m_ij − Σ_{j<i} m_ji` and
    /// the client's work counters.
    ///
    /// # Panics
    /// Panics if `client` is not a member or `update` has the wrong length.
    pub fn mask(&self, client: ClientId, update: &[Scalar]) -> (Vec<Scalar>, SecAggCost) {
        assert!(
            self.members.contains(&client),
            "client {client} not in session"
        );
        assert_eq!(update.len(), self.dim, "update dimension mismatch");
        let mut masked = update.to_vec();
        let mut cost = SecAggCost {
            // One key agreement per peer, performed at session setup in the
            // real protocol; accounted to the masking client here.
            key_agreements: (self.members.len() - 1) as u64,
            ..SecAggCost::default()
        };
        let mut mask = vec![0.0; self.dim];
        for &peer in &self.members {
            if peer == client {
                continue;
            }
            self.pair_mask(client, peer, 0, &mut mask);
            cost.prg_expansions += 1;
            cost.vector_adds += 1;
            ops::axpy(sign(client, peer), &mask, &mut masked);
        }
        (masked, cost)
    }

    /// Server-side aggregation of masked updates from `survivors`.
    ///
    /// `masked` must align with `survivors`. Members missing from
    /// `survivors` are treated as dropouts: their orphaned pairwise masks
    /// (with every survivor) are reconstructed and cancelled.
    ///
    /// Returns the exact sum `Σ_{i ∈ survivors} x_i` plus server cost.
    ///
    /// # Panics
    /// Panics on a survivor that is not a member or is listed twice (its
    /// update would be summed twice and the masks would stop cancelling),
    /// and on a length mismatch.
    pub fn unmask_sum(
        &self,
        survivors: &[ClientId],
        masked: &[Vec<Scalar>],
    ) -> (Vec<Scalar>, SecAggCost) {
        assert_eq!(survivors.len(), masked.len(), "roster/update mismatch");
        let mut roles = Vec::new();
        self.assign_roles(survivors.iter().copied(), &mut roles);
        let mut sum = vec![0.0; self.dim];
        let mut cost = SecAggCost::default();
        for m in masked {
            assert_eq!(m.len(), self.dim, "masked update dimension");
            ops::add_assign(m, &mut sum);
            cost.vector_adds += 1;
        }
        // Cancel masks involving dropped members, in roster order.
        let mut mask = vec![0.0; self.dim];
        let dropped = self.members.iter().zip(&roles);
        for (&d, _) in dropped.filter(|(_, &role)| role >= survivors.len()) {
            for &s in survivors {
                self.pair_mask(d, s, 0, &mut mask);
                cost.prg_expansions += 1;
                cost.vector_adds += 1;
                // Survivor s applied sign(s, d); subtract that contribution.
                ops::axpy(-sign(s, d), &mask, &mut sum);
            }
        }
        (sum, cost)
    }

    /// Runs the whole round for convenience: masks every member's update and
    /// unmasks the sum, returning `(sum, total_cost)`. `updates[k]` belongs
    /// to the session's `k`-th member.
    pub fn aggregate(&self, updates: &[Vec<Scalar>]) -> (Vec<Scalar>, SecAggCost) {
        assert_eq!(updates.len(), self.members.len(), "one update per member");
        let mut total = SecAggCost::default();
        let mut masked = Vec::with_capacity(updates.len());
        for (&client, update) in self.members.iter().zip(updates.iter()) {
            let (m, c) = self.mask(client, update);
            total.merge(c);
            masked.push(m);
        }
        let (sum, c) = self.unmask_sum(&self.members, &masked);
        total.merge(c);
        (sum, total)
    }

    /// What the parties of one round with `survivors` surviving members
    /// count between them: the sum of the `survivors` [`mask`](Self::mask)
    /// costs and the [`unmask_sum`](Self::unmask_sum) cost.
    pub fn round_cost(&self, survivors: usize) -> SecAggCost {
        let (g, s) = (self.members.len() as u64, survivors as u64);
        let recovered = (g - s) * s;
        SecAggCost {
            prg_expansions: s * (g - 1) + recovered,
            vector_adds: s * (g - 1) + s + recovered,
            key_agreements: s * (g - 1),
        }
    }

    /// The whole round over coordinates `lo .. lo + out.len()`, fused:
    /// `out` receives that range of what [`unmask_sum`](Self::unmask_sum)
    /// returns when each survivor [`mask`](Self::mask)s its update scaled
    /// by its weight — bit for bit (see the module docs), without a
    /// parameter-length allocation, expanding each pair's mask once.
    ///
    /// `lo` must be a multiple of 16 (a keystream block), so that every
    /// range of a chunked round starts its fills on a block boundary; the
    /// length is free. Ranges are independent: a caller covers `0 .. dim`
    /// with any partition, in any order, on any threads, each with its own
    /// `scratch`.
    ///
    /// # Panics
    /// Panics on a survivor that is not a member or is listed twice, an
    /// update of the wrong length, a range outside `0 .. dim`, or a
    /// misaligned `lo`.
    pub fn aggregate_range(
        &self,
        lo: usize,
        survivors: &[Survivor<'_>],
        out: &mut [Scalar],
        scratch: &mut RangeScratch,
    ) {
        let n = out.len();
        assert_eq!(lo % 16, 0, "range must start on a keystream block");
        assert!(lo + n <= self.dim, "range outside the session's dimension");
        let n_surv = survivors.len();
        let RangeScratch { rows, roles } = scratch;
        let n_drop = self.assign_roles(survivors.iter().map(|s| s.id), roles);
        // One row per survivor, one for the mask of a pair of survivors,
        // one per (dropped, survivor) pair for the masks recovery needs
        // again after the survivors are summed. Every row is written
        // before it is read, so what an earlier range left is never seen.
        let len = (n_surv + 1 + n_drop * n_surv) * n;
        if rows.len() < len {
            rows.resize(len, 0.0);
        }
        let (updates, rest) = rows[..len].split_at_mut(n_surv * n);
        let (shared, orphans) = rest.split_at_mut(n);

        for (s, row) in survivors.iter().zip(updates.chunks_exact_mut(n)) {
            assert_eq!(s.update.len(), self.dim, "update dimension mismatch");
            row.copy_from_slice(&s.update[lo..lo + n]);
            ops::scale(s.weight, row);
        }
        for (pa, (&a, &ra)) in self.members.iter().zip(roles.iter()).enumerate() {
            for (&b, &rb) in self.members.iter().zip(roles.iter()).skip(pa + 1) {
                // Survivor roles come before dropped ones.
                let (first, last) = (ra.min(rb), ra.max(rb));
                let mask = if last < n_surv {
                    &mut *shared
                } else if first < n_surv {
                    &mut orphans[((last - n_surv) * n_surv + first) * n..][..n]
                } else {
                    continue; // both dropped: nobody applied this mask
                };
                self.pair_mask(a, b, lo, mask);
                if ra < n_surv {
                    ops::axpy(sign(a, b), mask, &mut updates[ra * n..][..n]);
                }
                if rb < n_surv {
                    ops::axpy(sign(b, a), mask, &mut updates[rb * n..][..n]);
                }
            }
        }
        out.fill(0.0);
        for row in updates.chunks_exact(n) {
            ops::add_assign(row, out);
        }
        let dropped = self.members.iter().zip(roles.iter());
        for (&d, &rd) in dropped.filter(|(_, &role)| role >= n_surv) {
            let masks = orphans[(rd - n_surv) * n_surv * n..].chunks_exact(n);
            for (s, mask) in survivors.iter().zip(masks) {
                ops::axpy(-sign(s.id, d), mask, out);
            }
        }
    }
}

/// Words expanded per keystream fill inside [`SecAggSession::pair_mask`]: a
/// multiple of every lane width's block run, small enough for the stack.
const EXPAND_WORDS: usize = 1024;

/// The sign with which `client` applies the mask it shares with `peer`.
fn sign(client: ClientId, peer: ClientId) -> Scalar {
    if client < peer {
        1.0
    } else {
        -1.0
    }
}

/// One surviving member's input to [`SecAggSession::aggregate_range`].
#[derive(Debug, Clone, Copy)]
pub struct Survivor<'a> {
    pub id: ClientId,
    /// The factor its update is scaled by before masking.
    pub weight: Scalar,
    /// Its full-length update.
    pub update: &'a [Scalar],
}

/// Reusable working memory of [`SecAggSession::aggregate_range`]; grows to
/// the largest range and roster it has served.
#[derive(Debug, Default)]
pub struct RangeScratch {
    rows: Vec<Scalar>,
    roles: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    fn plain_sum(updates: &[Vec<f32>]) -> Vec<f32> {
        let mut sum = vec![0.0; updates[0].len()];
        for u in updates {
            gfl_tensor::ops::add_assign(u, &mut sum);
        }
        sum
    }

    fn toy_updates(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn masks_cancel_exactly() {
        let n = 5;
        let d = 33;
        let updates = toy_updates(n, d, 1);
        let session = SecAggSession::new((0..n as u32).collect(), d, 99);
        let (sum, _) = session.aggregate(&updates);
        let want = plain_sum(&updates);
        for (a, b) in sum.iter().zip(want.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn masked_update_hides_plaintext() {
        let d = 16;
        let updates = toy_updates(3, d, 2);
        let session = SecAggSession::new(vec![0, 1, 2], d, 7);
        let (masked, _) = session.mask(0, &updates[0]);
        // The masked vector must differ substantially from the plaintext.
        let dist: f32 = masked
            .iter()
            .zip(updates[0].iter())
            .map(|(m, x)| (m - x).abs())
            .sum();
        assert!(dist > 1.0, "mask looks degenerate: distance {dist}");
    }

    #[test]
    fn single_member_group_is_passthrough() {
        let session = SecAggSession::new(vec![42], 4, 0);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let (masked, cost) = session.mask(42, &x);
        assert_eq!(masked, x, "no peers → no masks");
        assert_eq!(cost.prg_expansions, 0);
        let (sum, _) = session.unmask_sum(&[42], &[masked]);
        assert_eq!(sum, x);
    }

    #[test]
    fn dropout_recovery_yields_survivor_sum() {
        let n = 6;
        let d = 20;
        let updates = toy_updates(n, d, 3);
        let members: Vec<u32> = (0..n as u32).collect();
        let session = SecAggSession::new(members.clone(), d, 5);
        let mut masked = Vec::new();
        for (i, u) in updates.iter().enumerate() {
            masked.push(session.mask(i as u32, u).0);
        }
        // Clients 1 and 4 drop after masking; the server only receives the
        // other four masked updates.
        let survivors: Vec<u32> = vec![0, 2, 3, 5];
        let masked_surv: Vec<Vec<f32>> = survivors
            .iter()
            .map(|&s| masked[s as usize].clone())
            .collect();
        let (sum, _) = session.unmask_sum(&survivors, &masked_surv);
        let want = plain_sum(&[
            updates[0].clone(),
            updates[2].clone(),
            updates[3].clone(),
            updates[5].clone(),
        ]);
        for (a, b) in sum.iter().zip(want.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn per_client_cost_is_linear_in_group_size_total_quadratic() {
        let d = 8;
        let mut per_client = Vec::new();
        for &n in &[4usize, 8, 16] {
            let updates = toy_updates(n, d, 4);
            let session = SecAggSession::new((0..n as u32).collect(), d, 1);
            let (m, cost) = session.mask(0, &updates[0]);
            assert_eq!(m.len(), d);
            per_client.push(cost.prg_expansions);
            // Full round total is quadratic: n clients × (n−1) expansions.
            let (_, total) = session.aggregate(&updates);
            assert_eq!(total.prg_expansions, (n * (n - 1)) as u64);
        }
        assert_eq!(per_client, vec![3, 7, 15], "per-client = |g|−1");
    }

    #[test]
    fn deterministic_given_session_seed() {
        let updates = toy_updates(4, 10, 6);
        let s1 = SecAggSession::new(vec![0, 1, 2, 3], 10, 11);
        let s2 = SecAggSession::new(vec![0, 1, 2, 3], 10, 11);
        assert_eq!(s1.mask(2, &updates[2]).0, s2.mask(2, &updates[2]).0);
        let s3 = SecAggSession::new(vec![0, 1, 2, 3], 10, 12);
        assert_ne!(s1.mask(2, &updates[2]).0, s3.mask(2, &updates[2]).0);
    }

    #[test]
    #[should_panic(expected = "duplicate member ids")]
    fn duplicate_members_panic() {
        SecAggSession::new(vec![1, 1], 4, 0);
    }

    #[test]
    #[should_panic(expected = "not in session")]
    fn foreign_client_panics() {
        let s = SecAggSession::new(vec![0, 1], 4, 0);
        s.mask(9, &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "duplicate survivor ids")]
    fn unmask_sum_rejects_a_survivor_listed_twice() {
        let s = SecAggSession::new(vec![0, 1, 2], 4, 0);
        let masked = s.mask(1, &[0.5; 4]).0;
        s.unmask_sum(&[1, 1], &[masked.clone(), masked]);
    }

    #[test]
    #[should_panic(expected = "duplicate survivor ids")]
    fn aggregate_range_rejects_a_survivor_listed_twice() {
        let s = SecAggSession::new(vec![0, 1, 2], 4, 0);
        let twice = Survivor {
            id: 1,
            weight: 1.0,
            update: &[0.5; 4],
        };
        s.aggregate_range(
            0,
            &[twice, twice],
            &mut [0.0; 4],
            &mut RangeScratch::default(),
        );
    }

    #[test]
    fn a_mask_element_is_one_keystream_word_through_gen_range() {
        let session = SecAggSession::new(vec![3, 9], 2_100, 17);
        let mut rng = ChaCha8Rng::seed_from_u64(session.pair_seed(9, 3));
        let drawn: Vec<u32> = (0..session.dim)
            .map(|_| rng.gen_range(-session.mask_scale..session.mask_scale))
            .map(Scalar::to_bits)
            .collect();
        for (lo, n) in [(0, 2_100), (16, 1), (1_024, 1_076), (2_096, 4)] {
            let mut mask = vec![0.0; n];
            session.pair_mask(3, 9, lo, &mut mask);
            let bits: Vec<u32> = mask.iter().map(|m| m.to_bits()).collect();
            assert_eq!(bits, drawn[lo..lo + n], "elements {lo}..{}", lo + n);
        }
    }

    proptest! {
        /// The fused range kernel against the per-party statement, bit for
        /// bit: rosters in no id order, any subset dropped but one
        /// (first and last roster positions included), survivors listed in
        /// any order, a dimension that is no multiple of 16, and chunk
        /// lengths that split it into one, a few and many ranges.
        #[test]
        fn fused_ranges_equal_mask_then_unmask_sum(
            g in 1usize..9,
            dim in 1usize..2_200,
            seed in 0u64..1_000,
            chunk_blocks in 1usize..80,
            shuffle in proptest::collection::vec(0u64..1_000_000, 9),
            dropped in proptest::collection::vec(0u32..4, 9),
        ) {
            // Distinct ids, ordered by an unrelated key.
            let mut members: Vec<ClientId> = (0..g as u32).map(|i| 7 * i + 3).collect();
            members.sort_by_key(|&m| shuffle[(m / 7) as usize]);
            let session = SecAggSession::new(members.clone(), dim, seed);
            // A quarter of the positions drop; position `seed % g` never does.
            let mut survivors: Vec<ClientId> = (0..g)
                .filter(|&p| dropped[p] != 0 || p == seed as usize % g)
                .map(|p| members[p])
                .collect();
            survivors.sort_by_key(|&m| shuffle[8 - (m / 7) as usize]);
            let updates = toy_updates(survivors.len(), dim, seed);
            let weights: Vec<Scalar> = (0..survivors.len()).map(|k| 0.1 + k as Scalar).collect();

            let mut masked = Vec::new();
            let mut parties = SecAggCost::default();
            for ((&id, update), &w) in survivors.iter().zip(&updates).zip(&weights) {
                let mut scaled = update.clone();
                ops::scale(w, &mut scaled);
                let (m, cost) = session.mask(id, &scaled);
                masked.push(m);
                parties.merge(cost);
            }
            let (want, cost) = session.unmask_sum(&survivors, &masked);
            parties.merge(cost);
            prop_assert_eq!(session.round_cost(survivors.len()), parties);

            let inputs: Vec<Survivor<'_>> = survivors
                .iter()
                .zip(&updates)
                .zip(&weights)
                .map(|((&id, update), &weight)| Survivor { id, weight, update })
                .collect();
            let mut got = vec![Scalar::NAN; dim];
            let mut scratch = RangeScratch::default();
            let chunk = 16 * chunk_blocks;
            // Last range first: ranges do not depend on each other.
            for (i, out) in got.chunks_mut(chunk).enumerate().rev() {
                session.aggregate_range(i * chunk, &inputs, out, &mut scratch);
            }
            let bits = |v: &[Scalar]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}
