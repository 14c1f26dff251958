//! The Group-FEL training engine — Algorithm 1 of the paper.
//!
//! ```text
//! form groups per edge server            (Lines 2–3, [`form_groups_per_edge`])
//! p = Sampling-Prob(G)                   (Line 4, `SamplingStrategy`)
//! for t in 0..T:
//!     sample S_t ⊆ G by p                (Line 6)
//!     for g in S_t, in parallel:         (Lines 7–14)
//!         x_g ← x_t
//!         for k in 0..K:
//!             every client: E epochs SGD (Line 13, `LocalUpdate`)
//!             x_g ← Σ n_i/n_g x_i        (Line 14, optionally via SecAgg)
//!     x_{t+1} ← Σ w_g x_g                (Line 15 / Eq. 4 / Eq. 35)
//! ```
//!
//! Every group's participation is charged to the cost ledger per Eq. 5,
//! with the strategy's own group-operation mix and per-sample training
//! factor (§7.1: "different quadratic cost functions for each method").

use gfl_data::poison::Trigger;
use gfl_data::{ClientPartition, Dataset, FedData, LabelMatrix};
use gfl_defense::DefenseCost;
use gfl_faults::{
    AdversaryPlan, AttackEvent, AttackKind, ChurnPlan, DefenseStage, FaultEvent, FaultInjector,
    FaultPlan, FaultPolicy,
};
use gfl_nn::sgd::LrSchedule;
use gfl_nn::{Network, Params};
use gfl_obs::{SpanAttrs, SpanKind, TraceCollector};
use gfl_parallel::{Pool, Pusher, TaskQueue};
use gfl_secagg::Survivor;
use gfl_sim::{CommModel, CostLedger, CostModel, Task, Topology};
use gfl_tensor::init;
use gfl_tensor::{ops, Scalar};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, TryLockResult};

use crate::cov::group_cov;
use crate::driver::{Clock, Membership, RunPlan};
use crate::grouping::GroupingAlgorithm;
use crate::history::{Event, RunHistory};
use crate::local::{LocalScratch, LocalTask, LocalUpdate};
use crate::membership::RegroupPolicy;
use crate::sampling::{AggregationWeighting, SamplingStrategy};
use crate::Group;

/// Hyperparameters of Algorithm 1 plus simulation knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupFelConfig {
    /// Global rounds `T`.
    pub global_rounds: usize,
    /// Group rounds per global round `K` (paper: 5).
    pub group_rounds: usize,
    /// Local epochs per group round `E` (paper: 2).
    pub local_rounds: usize,
    /// Groups sampled per global round `S = |S_t|` (paper: 12 of 60).
    pub sampled_groups: usize,
    /// Minibatch size for local SGD.
    pub batch_size: usize,
    /// Learning-rate schedule over global rounds.
    pub lr: LrSchedule,
    /// Global aggregation weighting (Line 15 / Eq. 4 / Eq. 35).
    pub weighting: AggregationWeighting,
    /// Evaluate the global model every this many rounds (1 = every round).
    pub eval_every: usize,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Which task's cost table to charge (Vision/Speech).
    pub task: Task,
    /// Stop once the ledger exceeds this budget (the paper's 10⁶-unit
    /// budget in Table 1), `None` = run all `T` rounds.
    pub cost_budget: Option<f64>,
    /// Route group aggregation through the real pairwise-masking SecAgg
    /// protocol instead of plain weighted averaging (slower; validates the
    /// privacy path end-to-end — results are identical up to f32 rounding).
    pub secure_aggregation: bool,
    /// Probability that a client drops out of a group round after training
    /// started (device churn). Dropped clients are excluded from the group
    /// aggregation; with `secure_aggregation` on, the server runs the
    /// protocol's dropout-recovery path. 0.0 disables churn.
    pub dropout_prob: f64,
}

impl GroupFelConfig {
    /// The paper's §7.2 configuration (K=5, E=2, 12 of 60 groups, 10⁶
    /// budget) with a modest default round count.
    pub fn paper_vision() -> Self {
        Self {
            global_rounds: 200,
            group_rounds: 5,
            local_rounds: 2,
            sampled_groups: 12,
            batch_size: 32,
            lr: LrSchedule::Constant(0.05),
            weighting: AggregationWeighting::Stabilized,
            eval_every: 5,
            seed: 42,
            task: Task::Vision,
            cost_budget: Some(1e6),
            secure_aggregation: false,
            dropout_prob: 0.0,
        }
    }

    /// A tiny configuration for tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            global_rounds: 4,
            group_rounds: 2,
            local_rounds: 1,
            sampled_groups: 2,
            batch_size: 16,
            lr: LrSchedule::Constant(0.1),
            weighting: AggregationWeighting::Standard,
            eval_every: 1,
            seed: 7,
            task: Task::Vision,
            cost_budget: None,
            secure_aggregation: false,
            dropout_prob: 0.0,
        }
    }
}

/// Runs a grouping algorithm independently on every edge server's clients
/// (Algorithm 1, Lines 2–3) and returns groups in *global* client ids:
/// [`form_groups_active`] with everyone active.
pub fn form_groups_per_edge(
    algo: &dyn GroupingAlgorithm,
    topology: &Topology,
    labels: &LabelMatrix,
    seed: u64,
) -> Vec<Group> {
    let everyone = vec![true; topology.num_clients()];
    form_groups_active(algo, topology, labels, &everyone, seed, 0)
}

/// The one per-edge formation loop: runs the grouping algorithm per edge
/// over the `active` clients only, returning groups in global ids, edge
/// after edge. `salt` varies the partition between the healer's full
/// re-formations; founding partitions use 0. Edges form independently —
/// each from its own RNG, a pure function of `(seed, edge, salt)` — so they
/// run on the pool and land by edge index: the partition is the same at
/// every thread count.
pub fn form_groups_active(
    algo: &dyn GroupingAlgorithm,
    topology: &Topology,
    labels: &LabelMatrix,
    active: &[bool],
    seed: u64,
    salt: u64,
) -> Vec<Group> {
    let edges: Vec<usize> = (0..topology.num_edges()).collect();
    let per_edge = gfl_parallel::par_map(&edges, |&j| {
        let members: Vec<usize> = topology
            .clients_of(j)
            .iter()
            .copied()
            .filter(|&c| active[c])
            .collect();
        if members.is_empty() {
            return Vec::new();
        }
        let local = labels.restrict(&members);
        let mut rng = init::rng(seed ^ (0x9E37_79B9 ^ (j as u64) << 32) ^ salt);
        let mut groups = algo.form_groups(&local, &mut rng);
        for id in groups.iter_mut().flatten() {
            *id = members[*id];
        }
        groups
    });
    per_edge.into_iter().flatten().collect()
}

/// What one pool worker reuses from task to task (training scratch,
/// derived shard buffers, the FLAME filter's live list and delta rows,
/// SecAgg rows and survivor views), each cleared or overwritten before a
/// read. The shard buffers (`features`, `labels`) back only shards no
/// later group round can use; a shard kept in a [`Slot`] owns exact-size
/// buffers, so the worker's are never pinned by one.
struct WorkerScratch {
    local: LocalScratch,
    features: Vec<Scalar>,
    labels: Vec<usize>,
    indices: Vec<usize>,
    mix: Vec<f64>,
    live: Vec<usize>,
    deltas: Vec<Vec<Scalar>>,
    secagg: gfl_secagg::RangeScratch,
    survivors: Vec<Survivor<'static>>,
}

impl WorkerScratch {
    fn new(model: &Network) -> Self {
        Self {
            local: LocalScratch::new(model),
            features: Vec::new(),
            labels: Vec::new(),
            indices: Vec::new(),
            mix: Vec::new(),
            live: Vec::new(),
            deltas: Vec::new(),
            secagg: Default::default(),
            survivors: Vec::new(),
        }
    }
}

/// `views`' allocation as an empty vector of views of another lifetime:
/// std collects a vector's own `IntoIter` in place, so a worker's survivor
/// list stays warm from chunk to chunk.
fn recycle<'b>(mut views: Vec<Survivor<'_>>) -> Vec<Survivor<'b>> {
    views.clear();
    views.into_iter().map(|_| unreachable!("cleared")).collect()
}

/// The Group-FEL trainer: owns the model, the federated data layout, and
/// the test set.
pub struct Trainer {
    pub(crate) config: GroupFelConfig,
    pub(crate) model: Network,
    pub(crate) data: FedData,
    pub(crate) test: Dataset,
    pub(crate) faults: Option<FaultState>,
    /// The link model: byte accounting, upload retries and transfer times.
    pub(crate) comm: CommModel,
    /// The task's Eq. 5 cost tables, for straggler deadlines and the event
    /// clock's timing pass.
    pub(crate) cost: CostModel,
    pub(crate) churn: Option<ChurnState>,
    pub(crate) adversary: Option<AdversaryState>,
    robust_agg: RobustAggRule,
    /// One [`WorkerScratch`] per pool worker, checked out per region.
    workers: Pool<WorkerScratch>,
    /// Evaluation workspaces for the per-round test/ASR evaluations.
    pub(crate) eval: Pool<gfl_nn::NetworkWorkspace>,
    /// Group models, slot buffers and Line-15 probability/weight scratch.
    pub(crate) params: Pool<Vec<Scalar>>,
    /// Member lists of outcomes and the ledger's size scratch.
    pub(crate) members: Pool<Vec<usize>>,
    /// Per-group slot shells.
    slots: Pool<Vec<Mutex<Slot>>>,
    /// The queue each global round's task graph runs on.
    tasks: TaskQueue<RoundTask>,
    pub(crate) obs: Option<Arc<TraceCollector>>,
}

/// A structurally invalid [`GroupFelConfig`] / data combination, caught by
/// [`Trainer::try_new`] before any training state is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `global_rounds` is 0 — the run would produce an empty trajectory.
    ZeroGlobalRounds,
    /// `group_rounds` is 0 — groups would never train (Line 10's `K`).
    ZeroGroupRounds,
    /// `eval_every` is 0 — the evaluation cadence would divide by zero.
    ZeroEvalCadence,
    /// The model's input width does not match the dataset's feature width.
    DimensionMismatch { model: usize, data: usize },
    /// A robust (non-linear) group aggregation rule under secure
    /// aggregation, whose masks only cancel in a sum.
    RobustAggUnderSecure,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroGlobalRounds => write!(f, "global_rounds must be positive"),
            ConfigError::ZeroGroupRounds => write!(f, "group_rounds must be positive"),
            ConfigError::ZeroEvalCadence => write!(f, "eval_every must be positive"),
            ConfigError::DimensionMismatch { model, data } => write!(
                f,
                "model/data dimension mismatch: model expects {model} features, data has {data}"
            ),
            ConfigError::RobustAggUnderSecure => write!(
                f,
                "robust aggregation is incompatible with secure aggregation: \
                 the masking protocol only computes linear functions of the updates"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fault-injection context of a faulted run: the decision oracle, the
/// degradation policy, and which edge server each client sits behind.
pub(crate) struct FaultState {
    pub(crate) injector: FaultInjector,
    pub(crate) policy: FaultPolicy,
    pub(crate) edge_of_client: Vec<usize>,
}

/// Group-level aggregation rule (Line 14). [`RobustAggRule::Mean`] is the
/// paper's sample-weighted average; the rest are the Byzantine-robust
/// estimators from `gfl-defense`, applied unweighted over the round's
/// surviving client updates. Robust rules need at least 3 survivors and
/// fall back to the weighted mean below that; they are skipped under
/// `secure_aggregation`, which only supports linear aggregation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RobustAggRule {
    /// Sample-weighted FedAvg (the paper's Line 14).
    #[default]
    Mean,
    /// Coordinate-wise median.
    CoordinateMedian,
    /// Coordinate-wise mean after trimming the `trim` extremes per side
    /// (clamped so at least one value survives).
    TrimmedMean { trim: usize },
    /// The single Krum-selected update, tolerating `byzantine` attackers
    /// (clamped to the survivor count − 3).
    Krum { byzantine: usize },
    /// Mean of the `select` best updates by Krum score.
    MultiKrum { byzantine: usize, select: usize },
    /// FLAME-style cosine-clustering filter (`gfl_defense::filter_updates`)
    /// over the survivors' *deltas*, then a sample-weighted mean of the
    /// accepted (clipped) deltas. The only rule that reports which clients
    /// it rejected, feeding the attack log's `AttackFiltered` events.
    FlameFilter,
}

impl RobustAggRule {
    /// Every rule but [`RobustAggRule::Mean`] needs the plaintext updates,
    /// which secure aggregation never reveals.
    pub fn check_secure(self, secure_aggregation: bool) -> Result<(), ConfigError> {
        if secure_aggregation && self != RobustAggRule::Mean {
            return Err(ConfigError::RobustAggUnderSecure);
        }
        Ok(())
    }
}

/// Applies a (non-Mean) robust rule to the survivors, clamping its
/// breakdown parameters to what the survivor count supports.
fn robust_aggregate(rule: RobustAggRule, updates: &[Vec<Scalar>]) -> Vec<Scalar> {
    let n = updates.len();
    match rule {
        RobustAggRule::Mean => unreachable!("Mean is handled by the weighted path"),
        RobustAggRule::FlameFilter => {
            unreachable!("FlameFilter is handled by the filtering path")
        }
        RobustAggRule::CoordinateMedian => gfl_defense::robust::coordinate_median(updates),
        RobustAggRule::TrimmedMean { trim } => {
            gfl_defense::robust::trimmed_mean(updates, trim.min((n - 1) / 2))
        }
        RobustAggRule::Krum { byzantine } => {
            let f = byzantine.min(n.saturating_sub(3));
            updates[gfl_defense::robust::krum(updates, f)].clone()
        }
        RobustAggRule::MultiKrum { byzantine, select } => {
            let f = byzantine.min(n.saturating_sub(3));
            gfl_defense::robust::multi_krum(updates, f, select.clamp(1, n))
        }
    }
}

/// Churn context of a self-healing run: the membership plan plus the
/// policy governing when the partition is repaired.
pub(crate) struct ChurnState {
    pub(crate) plan: ChurnPlan,
    pub(crate) policy: RegroupPolicy,
}

/// Adversary context of an attacked run: the campaign plan, its trigger
/// pattern and the held-out attack-success evaluation sets. All of it
/// derives from the plan seed alone — no engine RNG stream is consumed, so
/// a clean plan leaves runs bit-identical.
pub(crate) struct AdversaryState {
    pub(crate) plan: AdversaryPlan,
    /// The backdoor trigger pattern, which `run_unit` applies to a data
    /// poisoner's shard as it derives it ([`poison_shard`]).
    trigger: Trigger,
    /// Triggered non-target test samples, relabelled to the trigger
    /// target: accuracy on this set *is* the backdoor attack success rate.
    pub(crate) trigger_eval: Option<Dataset>,
    /// Test samples of the flip source class, relabelled to the flip
    /// target: accuracy on this set is the label-flip success rate.
    pub(crate) flip_eval: Option<Dataset>,
}

/// Applies `plan`'s data-poisoning campaign to `client`'s shard in place:
/// the rows [`AdversaryPlan::poisons_row`] picks get the trigger (backdoor)
/// or the flipped label. Returns the campaign and how many rows it
/// touched; `None` for an honest client, a model poisoner (whose rows stay
/// honest) or a campaign that touched nothing. Every pick is a pure hash of
/// the plan seed, so the shard is the same bits in every round that derives
/// it.
fn poison_shard(
    plan: &AdversaryPlan,
    trigger: &Trigger,
    client: usize,
    features: &mut gfl_tensor::Matrix,
    labels: &mut [usize],
) -> Option<(AttackKind, usize)> {
    let kind = plan.kind(client)?;
    if matches!(kind, AttackKind::ModelPoison) {
        return None;
    }
    let picked: Vec<usize> = (0..labels.len())
        .filter(|&r| plan.poisons_row(client, r))
        .collect();
    let rows = match kind {
        AttackKind::Backdoor => {
            trigger.apply(features, labels, &picked);
            picked.len()
        }
        _ => gfl_data::poison::label_flip(labels, &picked, plan.flip_from, plan.flip_to),
    };
    (rows > 0).then_some((kind, rows))
}

/// Result of one group's work within a global round. Baseline runners
/// see the model, the volume and the loss ([`Trainer::train_groups`]).
pub struct GroupOutcome {
    /// Global group index (for fault attribution).
    pub(crate) group: usize,
    /// The trained group model `x^g_{t,K−1}`.
    pub params: Params,
    /// Group data volume `n_g`.
    pub samples: usize,
    /// Mean local loss observed.
    pub train_loss: Scalar,
    pub(crate) members: Vec<usize>,
    /// Surviving uploads across all `K` group rounds.
    pub(crate) uploads: usize,
    /// Sample-weighted surviving uploads across all `K` group rounds
    /// (out of `K · n_g`); the quorum test's numerator.
    pub(crate) upload_samples: usize,
    /// Faults and attacks (injected or filtered) in this group, in
    /// deterministic (k, member) order.
    pub(crate) events: Vec<Event>,
    /// Measured defense-filter work across the group's `K` group rounds.
    pub(crate) defense: DefenseCost,
    /// Secure-aggregation sessions the group ran (one per group round with
    /// a survivor) and the pairwise masks their parties expanded.
    pub(crate) secagg_sessions: u64,
    pub(crate) secagg_pair_masks: u64,
    /// Shards the group's members derived: one per member with a derived
    /// shard that trained in at least one of the `K` group rounds (a count
    /// of derivations, so a shard derived twice would count twice). Virtual
    /// runs report it; in materialized ones only data poisoners derive.
    pub(crate) shards_derived: u64,
    /// Client steps the group's members trained on a derived shard, across
    /// the `K` group rounds: `shards_derived` plus the steps that reused one.
    pub(crate) shard_steps: u64,
}

/// Straggler cuts for one group's `K` group rounds, decided before the
/// round's graph runs: `by_round[k]` lists `(member_index, slowdown)` pairs
/// whose reports miss group round `k`'s close. The event clock's timing
/// pass produces them in emulated time; under lockstep,
/// [`Trainer::train_groups`] derives them from the straggler deadline.
/// `run_unit` applies them verbatim.
#[derive(Debug, Clone, Default)]
pub struct GroupCuts {
    pub(crate) by_round: Vec<Vec<(usize, f64)>>,
}

impl GroupCuts {
    fn cut_for(&self, k: usize, member: usize) -> Option<f64> {
        self.by_round
            .get(k)?
            .iter()
            .find(|&&(m, _)| m == member)
            .map(|&(_, s)| s)
    }
}

/// Coordinates per SecAgg chunk task: a whole number of keystream blocks
/// at every lane width, and a working set (a row per survivor plus the
/// masks) that stays in L1/L2.
const SECAGG_CHUNK: usize = 1024;

/// One client's fixed result slot within a group round. Its step writes
/// the slot and nothing else; the group's drain reads slots in member
/// order, so the aggregate is independent of execution order.
#[derive(Default)]
struct Slot {
    /// The trained local model. Reused across group rounds — a client's
    /// parameter buffer is allocated once per (group, round), not once per
    /// (group, round, k).
    buf: Params,
    /// Whether `buf` holds a surviving update this group round.
    live: bool,
    /// At most one fault can hit a client per group round.
    event: Option<FaultEvent>,
    /// At most one attack (injection or interception) per group round.
    attack: Option<AttackEvent>,
    /// Local training loss, if the client trained on any data (recorded
    /// even when the update is later rejected as corrupt, matching the
    /// sequential engine).
    loss: Option<Scalar>,
    /// A derived shard and its poisoning outcome: a virtual member's, or
    /// a materialized data poisoner's. A shard is a pure function of the
    /// client, so the member's first trained group round derives it and
    /// the chain's later rounds reuse it; it is dropped after round
    /// `K − 1`, or with the slot at chain end. Honest materialized members
    /// read their rows in place and never fill it.
    shard: Option<(Dataset, Option<(AttackKind, usize)>)>,
    /// The member's shard derivations in the chain: one, at its first
    /// trained group round, or none.
    derived: u64,
    /// The member's steps that trained on its derived shard.
    shard_steps: u64,
}

/// Takes a lock the round graph hands to the calling task. The graph
/// orders every access: a step holds its member's slot and reads the group
/// model, a drain (or the last SecAgg chunk) holds its whole group, and
/// chunks read the session and each write its own output. Every task drops
/// its guards before its group's countdown or its push, so the next task
/// finds the lock free: a held one means the graph released a task too
/// early, and the task panics rather than wait.
fn claim<G>(lock: TryLockResult<G>) -> G {
    lock.unwrap_or_else(|e| panic!("round-graph bug: {e}"))
}

/// What a group's drain accumulates over its `K` group rounds.
#[derive(Default)]
struct GroupTally {
    loss_acc: Scalar,
    loss_n: u32,
    uploads: usize,
    upload_samples: usize,
    events: Vec<Event>,
    defense: DefenseCost,
    secagg_sessions: u64,
    secagg_pair_masks: u64,
}

/// One sampled group's chain of `K` group rounds within a global round:
/// round k's member steps, then its drain (Line 14), which releases round
/// k + 1. Nothing crosses chains before Line 15.
struct GroupChain<'g> {
    gi: usize,
    group: &'g [usize],
    /// The round's straggler cuts, when a clock decided any.
    cuts: Option<&'g GroupCuts>,
    n_g: usize,
    /// Tasks of the open group round still running — its members' steps,
    /// then its SecAgg chunks. The task that takes it to zero moves on.
    pending: AtomicUsize,
    /// The group model `x^g_{t,k}`: read by round k's steps, rewritten by
    /// its drain.
    model: RwLock<Params>,
    slots: Vec<Mutex<Slot>>,
    tally: Mutex<GroupTally>,
}

impl GroupChain<'_> {
    fn slot(&self, member: usize) -> MutexGuard<'_, Slot> {
        claim(self.slots[member].try_lock())
    }
}

/// One task of a global round's graph.
#[derive(Debug, Clone, Copy)]
enum RoundTask {
    /// A member's local training in group round `k` (Line 13). The last
    /// member of the round to finish runs the group's drain.
    Step {
        group: usize,
        k: usize,
        member: usize,
    },
    /// One [`SECAGG_CHUNK`]-coordinate range of the group's secure
    /// aggregation in group round `k`; the last chunk closes the round.
    SecAggChunk {
        group: usize,
        k: usize,
        chunk: usize,
    },
}

/// A group round's open secure aggregation, shared by its chunk tasks.
/// The survivors' updates leave their slots for it, and the last chunk
/// hands them back with the chunks' outputs as the group model.
struct SecureRound {
    session: gfl_secagg::SecAggSession,
    /// `(member, id, weight, update)` per survivor, in member order.
    survivors: Vec<(usize, gfl_secagg::ClientId, Scalar, Params)>,
    /// One output per [`RoundTask::SecAggChunk`].
    chunks: Vec<Mutex<[Scalar; SECAGG_CHUNK]>>,
}

impl SecureRound {
    /// One [`SECAGG_CHUNK`]-coordinate range of the aggregation open in
    /// `cell`, into the chunk's own output.
    fn run_chunk(cell: &RwLock<Option<Self>>, chunk: usize, scratch: &mut WorkerScratch) {
        let session = claim(cell.try_read());
        let round = session.as_ref().expect("pushed with its session");
        let mut out = claim(round.chunks[chunk].try_lock());
        // Every update has the model's length; the last chunk is short.
        let lo = chunk * SECAGG_CHUNK;
        let len = SECAGG_CHUNK.min(round.survivors[0].3.len() - lo);
        let mut survivors = recycle(std::mem::take(&mut scratch.survivors));
        let views = round.survivors.iter();
        survivors.extend(views.map(|&(_, id, weight, ref update)| Survivor { id, weight, update }));
        round
            .session
            .aggregate_range(lo, &survivors, &mut out[..len], &mut scratch.secagg);
        scratch.survivors = recycle(survivors);
    }

    /// After the last chunk: the outputs become `chain`'s group model and
    /// the survivors' updates go back to their slots.
    fn close(cell: &RwLock<Option<Self>>, chain: &GroupChain<'_>) {
        let round = claim(cell.try_write())
            .take()
            .expect("pushed with its session");
        let mut model = claim(chain.model.try_write());
        for (range, out) in model.chunks_mut(SECAGG_CHUNK).zip(&round.chunks) {
            range.copy_from_slice(&claim(out.try_lock())[..range.len()]);
        }
        for (member, _, _, update) in round.survivors {
            chain.slot(member).buf = update;
        }
    }
}

/// A traced run's `GroupRound` span of one group round: from the first
/// release of the round in any group to the last group's drain.
struct RoundSpan {
    /// Read once `left` reaches zero, which every release's `fetch_min`
    /// happens-before (through its group's countdown and `left`'s AcqRel).
    start: AtomicU64,
    /// Groups whose drain of this round has not finished.
    left: AtomicUsize,
}

/// One client's local training within group round `k`.
struct Unit<'a> {
    gi: usize,
    client: usize,
    k: usize,
    /// The group model this client starts from (`x^g_{t,k}`).
    start: &'a [Scalar],
    /// `Some(slowdown)` when the clock already decided this client's
    /// report misses the group-round close.
    cut: Option<f64>,
    slot: &'a mut Slot,
}

/// One global round's task graph: every sampled group's chain, and what
/// all its units share — global round `t`, the step size, the global model
/// the round started from and the local update rule.
struct RoundGraph<'r, 'a> {
    trainer: &'a Trainer,
    strategy: &'a dyn LocalUpdate,
    global: &'a [Scalar],
    t: usize,
    lr: Scalar,
    chains: &'a [GroupChain<'a>],
    /// Under secure aggregation, each chain's open session (else empty).
    sessions: &'r [RwLock<Option<SecureRound>>],
    /// Traced runs: each group round's span (else empty).
    spans: &'r [RoundSpan],
}

impl RoundGraph<'_, '_> {
    /// Runs `task`. A step or chunk drops its guards before the countdown,
    /// so the task that takes it to zero claims what they held.
    fn run(&self, scratch: &mut WorkerScratch, task: RoundTask, push: &Pusher<'_, RoundTask>) {
        match task {
            RoundTask::Step { group, k, member } => {
                let chain = &self.chains[group];
                self.step(chain, k, member, scratch);
                if chain.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    self.drain(group, k, scratch, push);
                }
            }
            RoundTask::SecAggChunk { group, k, chunk } => {
                SecureRound::run_chunk(&self.sessions[group], chunk, scratch);
                let chain = &self.chains[group];
                if chain.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    SecureRound::close(&self.sessions[group], chain);
                    self.close(group, k, push);
                }
            }
        }
    }

    /// Line 13 for one member, plus the fault gates around it.
    fn step(&self, chain: &GroupChain<'_>, k: usize, member: usize, scratch: &mut WorkerScratch) {
        let obs = self.trainer.obs.as_deref();
        let client = chain.group[member];
        // Client-step spans are timed around the unit from the worker
        // thread; the push happens after the unit's simulation work is
        // complete and touches no shared simulation state.
        let step_start = obs.map(|ob| ob.now_ns());
        let (start, mut slot) = (claim(chain.model.try_read()), chain.slot(member));
        let mut unit = Unit {
            gi: chain.gi,
            client,
            k,
            start: &start,
            cut: chain.cuts.and_then(|c| c.cut_for(k, member)),
            slot: &mut slot,
        };
        self.trainer.run_unit(self, &mut unit, scratch);
        if let Some(ob) = obs {
            ob.record_span(
                SpanKind::ClientStep,
                step_start.unwrap(),
                SpanAttrs::client_step(self.t, k, chain.gi, client),
            );
        }
    }

    /// Line 14 for one group round, run by its last step: slots in member
    /// order — the exact event/loss/aggregation order of a sequential
    /// loop. A client's attack precedes its fault: the gate that rejects a
    /// poisoned update runs after the injection.
    fn drain(
        &self,
        group: usize,
        k: usize,
        scratch: &mut WorkerScratch,
        push: &Pusher<'_, RoundTask>,
    ) {
        let trainer = self.trainer;
        let chain = &self.chains[group];
        let mut model = claim(chain.model.try_write());
        let mut tally = claim(chain.tally.try_lock());
        for member in 0..chain.group.len() {
            let mut slot = chain.slot(member);
            if let Some(at) = slot.attack.take() {
                tally.events.push(Event::Attack(at));
            }
            if let Some(ev) = slot.event.take() {
                tally.events.push(Event::Fault(ev));
            }
            if let Some(loss) = slot.loss.take() {
                tally.loss_acc += loss;
                tally.loss_n += 1;
            }
        }
        // The FLAME-style filter runs before the survivor tally so
        // rejected updates neither count as uploads nor reach the group
        // aggregate; accepted updates are clipped in place.
        if trainer.robust_agg == RobustAggRule::FlameFilter {
            trainer.flame_filter(chain, &model, &mut tally, (self.t, k), scratch);
        }
        // Line 14: group aggregation, weighted by n_i over this round's
        // survivors.
        let (mut live, mut n_surv) = (0, 0);
        for (member, &c) in chain.group.iter().enumerate() {
            if chain.slot(member).live {
                live += 1;
                n_surv += trainer.data.client_size(c);
            }
        }
        tally.uploads += live;
        tally.upload_samples += n_surv;
        if n_surv == 0 {
            // Every client dropped: the group model is unchanged.
        } else if trainer.config.secure_aggregation {
            let (round, cost) =
                trainer.open_secure_aggregate(chain, n_surv, model.len(), self.t, k);
            tally.secagg_pair_masks += cost.prg_expansions;
            tally.secagg_sessions += 1;
            let chunks = round.chunks.len();
            // Relaxed: published to the chunks by the push below, as in
            // `release`.
            chain.pending.store(chunks, Ordering::Relaxed);
            *claim(self.sessions[group].try_write()) = Some(round);
            drop((model, tally));
            push.extend((0..chunks).map(|chunk| RoundTask::SecAggChunk { group, k, chunk }));
            return;
        } else if !matches!(
            trainer.robust_agg,
            RobustAggRule::Mean | RobustAggRule::FlameFilter
        ) && live >= 3
        {
            let survivors: Vec<Vec<Scalar>> = (0..chain.group.len())
                .filter_map(|member| {
                    let slot = chain.slot(member);
                    slot.live.then(|| slot.buf.clone())
                })
                .collect();
            *model = robust_aggregate(trainer.robust_agg, &survivors);
        } else {
            // The exact fill-then-axpy loop of `ops::weighted_sum_into`
            // over the live slots in member order — bit-identical, without
            // building the per-(group, k) weight and view vectors.
            model.fill(0.0);
            for (member, &c) in chain.group.iter().enumerate() {
                let slot = chain.slot(member);
                if slot.live {
                    let w = trainer.data.client_size(c) as Scalar / n_surv as Scalar;
                    ops::axpy(w, &slot.buf, &mut model);
                }
            }
        }
        // The guards drop before a push releases the tasks that claim them.
        drop((model, tally));
        self.close(group, k, push);
    }

    /// Group round `k` of `group` is aggregated: end the round's span if
    /// this was its last group, and release the group's next round.
    fn close(&self, group: usize, k: usize, push: &Pusher<'_, RoundTask>) {
        if let (Some(ob), Some(span)) = (self.trainer.obs.as_deref(), self.spans.get(k)) {
            if span.left.fetch_sub(1, Ordering::AcqRel) == 1 {
                let start = span.start.load(Ordering::Relaxed);
                ob.record_span(
                    SpanKind::GroupRound,
                    start,
                    SpanAttrs::group_round(self.t, k),
                );
            }
        }
        if k + 1 < self.trainer.config.group_rounds {
            self.release(group, k + 1, push);
        }
    }

    /// Queues every member step of `group`'s round `k`.
    fn release(&self, group: usize, k: usize, push: &Pusher<'_, RoundTask>) {
        if let (Some(ob), Some(span)) = (self.trainer.obs.as_deref(), self.spans.get(k)) {
            span.start.fetch_min(ob.now_ns(), Ordering::Relaxed);
        }
        let members = self.chains[group].group.len();
        // Relaxed: the steps see it through the queue's mutex (this push's
        // unlock, their pop's lock).
        self.chains[group].pending.store(members, Ordering::Relaxed);
        push.extend((0..members).map(|member| RoundTask::Step { group, k, member }));
    }
}

impl Trainer {
    /// Validates the configuration against the data and builds a trainer,
    /// returning a typed [`ConfigError`] instead of panicking — the one
    /// constructor. `data` is either representation of the federation: a
    /// `(Dataset, ClientPartition)` pair, or a [`VirtualPopulation`], for
    /// which no client rows exist up front; each global round derives one
    /// shard per sampled member that trains, keeps it in the member's slot
    /// across the group's `K` group rounds, and releases it after its last
    /// use, so steady-state memory is O(sampled clients), not
    /// O(population).
    /// Zero-round configurations (`global_rounds = 0`) are rejected here:
    /// they would otherwise produce an empty [`RunHistory`] that downstream
    /// consumers (reports, checkpoints, golden traces) cannot interpret.
    pub fn try_new(
        config: GroupFelConfig,
        model: Network,
        data: impl Into<FedData>,
        test: Dataset,
    ) -> Result<Self, ConfigError> {
        let data = data.into();
        if model.input_dim() != data.feature_dim() {
            return Err(ConfigError::DimensionMismatch {
                model: model.input_dim(),
                data: data.feature_dim(),
            });
        }
        if config.global_rounds == 0 {
            return Err(ConfigError::ZeroGlobalRounds);
        }
        if config.group_rounds == 0 {
            return Err(ConfigError::ZeroGroupRounds);
        }
        if config.eval_every == 0 {
            return Err(ConfigError::ZeroEvalCadence);
        }
        Ok(Self {
            cost: CostModel::for_task(config.task),
            config,
            model,
            data,
            test,
            faults: None,
            comm: CommModel::edge_default(),
            churn: None,
            adversary: None,
            robust_agg: RobustAggRule::Mean,
            workers: Pool::default(),
            eval: Pool::default(),
            params: Pool::default(),
            members: Pool::default(),
            slots: Pool::default(),
            tasks: TaskQueue::default(),
            obs: None,
        })
    }

    /// Attaches a [`TraceCollector`]: every subsequent run records spans,
    /// per-round metrics, and event tallies into it. Observation is strictly
    /// one-way — nothing the collector measures feeds back into simulation
    /// state — so traced runs are bit-identical to untraced ones (asserted
    /// by the determinism suite). Without a collector the instrumentation
    /// path is a `None` check: no allocations, no atomics on the hot loop.
    pub fn with_observer(mut self, obs: Arc<TraceCollector>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Enables deterministic fault injection for every subsequent run.
    ///
    /// The `topology` maps clients to edge servers so outage windows know
    /// which groups they take down. Fault decisions never consume the
    /// engine's RNG streams, so a faulted run with `FaultPlan::none()` is
    /// bit-identical to a clean one, and two faulted runs with the same
    /// seeds and plan are bit-identical to each other.
    pub fn with_faults(
        mut self,
        plan: FaultPlan,
        policy: FaultPolicy,
        topology: &Topology,
    ) -> Self {
        plan.validate()
            .unwrap_or_else(|e| panic!("invalid FaultPlan: {e}"));
        policy
            .validate()
            .unwrap_or_else(|e| panic!("invalid FaultPolicy: {e}"));
        let mut edge_of_client = vec![0usize; self.data.num_clients()];
        for j in 0..topology.num_edges() {
            for &c in topology.clients_of(j) {
                edge_of_client[c] = j;
            }
        }
        self.faults = Some(FaultState {
            injector: FaultInjector::new(plan),
            policy,
            edge_of_client,
        });
        self
    }

    /// Enables membership churn + self-healing for
    /// [`Membership::SelfHealing`] plans. Like fault injection,
    /// churn decisions are pure hashes of the plan seed — a clean plan
    /// (or a disabled policy on a clean plan) leaves every run
    /// bit-identical to one without churn machinery.
    pub fn with_churn(mut self, plan: ChurnPlan, policy: RegroupPolicy) -> Self {
        plan.validate()
            .unwrap_or_else(|e| panic!("invalid ChurnPlan: {e}"));
        self.churn = Some(ChurnState { plan, policy });
        self
    }

    /// Enables a deterministic poisoning campaign for every subsequent
    /// run. Compromised clients and their poisoned rows are pure hashes of
    /// the plan seed: the attack-success evaluation sets are built once,
    /// here, and a data poisoner's shard is derived and poisoned at the
    /// client update boundary of each chain it trains in. No engine RNG
    /// stream is consumed — a run with
    /// [`AdversaryPlan::none`] is bit-identical to one without this call,
    /// and attacked runs replay bit-identically at any thread count.
    ///
    /// Composes with faults, churn, robust aggregation, and
    /// `secure_aggregation` (data/model poison happens *before* masking,
    /// so attacks survive SecAgg — exactly the threat model that motivates
    /// running a defense inside the group).
    ///
    /// # Panics
    /// Panics when the plan's knobs are out of range or do not fit the
    /// dataset's shape ([`AdversaryPlan::validate_for`]).
    pub fn with_adversary(mut self, plan: AdversaryPlan) -> Self {
        let classes = self.data.num_classes();
        plan.validate_for(classes, self.data.feature_dim())
            .unwrap_or_else(|e| panic!("invalid AdversaryPlan: {e}"));
        if plan.is_clean() {
            self.adversary = None;
            return self;
        }
        let trigger = Trigger::corner(plan.trigger_width, plan.trigger_target);
        let trigger_eval = (plan.backdoor_fraction > 0.0).then(|| {
            let n = self.test.len().clamp(1, 256);
            // Plan-seeded stream: independent of every engine stream.
            let mut rng = init::rng(plan.seed ^ 0x5452_4947_4556_414C); // "TRIGEVAL"
            trigger.attack_eval_set(&self.test, n, &mut rng)
        });
        let flip_eval = (plan.label_flip_fraction > 0.0)
            .then(|| {
                let rows: Vec<usize> = (0..self.test.len())
                    .filter(|&i| self.test.labels()[i] == plan.flip_from)
                    .collect();
                if rows.is_empty() {
                    return None;
                }
                let batch = self.test.batch(&rows);
                let labels = vec![plan.flip_to; rows.len()];
                Some(Dataset::new(batch.features, labels, classes))
            })
            .flatten();
        self.adversary = Some(AdversaryState {
            plan,
            trigger,
            trigger_eval,
            flip_eval,
        });
        self
    }

    /// Selects the group-level aggregation rule for Line 14. The default
    /// [`RobustAggRule::Mean`] is the paper's weighted average; robust
    /// rules trade its unbiasedness for Byzantine tolerance.
    ///
    /// # Panics
    /// Panics when combined with `secure_aggregation`
    /// ([`RobustAggRule::check_secure`]).
    pub fn with_robust_agg(mut self, rule: RobustAggRule) -> Self {
        rule.check_secure(self.config.secure_aggregation)
            .unwrap_or_else(|e| panic!("invalid robust aggregation: {e}"));
        self.robust_agg = rule;
        self
    }

    pub fn config(&self) -> &GroupFelConfig {
        &self.config
    }

    pub fn model(&self) -> &Network {
        &self.model
    }

    /// The materialized client partition.
    ///
    /// # Panics
    /// Panics for virtual populations, which have no row-index partition.
    pub fn partition(&self) -> &ClientPartition {
        self.data.partition()
    }

    /// The federated training dataset.
    ///
    /// # Panics
    /// Panics for virtual populations, which never materialize a pooled
    /// dataset.
    pub fn train_data(&self) -> &Dataset {
        self.data.train()
    }

    /// Number of samples held by a set of clients.
    pub fn group_samples(&self, group: &[usize]) -> usize {
        group.iter().map(|&c| self.data.client_size(c)).sum()
    }

    /// Evaluates parameters on the held-out test set. Uses pooled
    /// evaluation workspaces — bit-identical to [`Network::evaluate`],
    /// allocation-free once the pool is warm.
    pub fn evaluate(&self, params: &[Scalar]) -> gfl_nn::mlp::EvalResult {
        self.model
            .evaluate_pooled(params, self.test.features(), self.test.labels(), &self.eval)
    }

    /// Builds the cost ledger for a strategy (its op mix and train factor).
    pub fn ledger_for(&self, strategy: &dyn LocalUpdate) -> CostLedger {
        let mut model = self.cost;
        let f = strategy.training_cost_factor();
        model.training.a *= f;
        model.training.b *= f;
        CostLedger::new(model, strategy.group_ops())
    }

    /// Sampling probabilities `p` (Line 4) of a fixed partition: the
    /// strategy applied to the groups' CoVs.
    pub fn sampling_probs(&self, groups: &[Group], sampling: SamplingStrategy) -> Vec<Scalar> {
        let labels = self.data.label_matrix();
        let covs: Vec<Scalar> = groups.iter().map(|g| group_cov(labels, g)).collect();
        sampling.probabilities(&covs)
    }

    /// Runs Algorithm 1 with the given groups, local strategy, and sampling
    /// strategy for the configured `T` rounds. Returns the evaluation
    /// trajectory. The convenience form of [`Trainer::run_plan`] on a
    /// lockstep, static plan.
    pub fn run(
        &self,
        groups: &[Group],
        strategy: &dyn LocalUpdate,
        sampling: SamplingStrategy,
    ) -> RunHistory {
        let probs = self.sampling_probs(groups, sampling);
        let plan = RunPlan {
            clock: Clock::Lockstep,
            membership: Membership::Static {
                groups,
                probs: &probs,
            },
        };
        self.run_plan(strategy, &plan)
            .expect("a static partition is never re-formed")
            .history
    }

    /// Both client↔edge transfers of a model with `param_len` parameters,
    /// in seconds.
    pub(crate) fn transfer_s(&self, param_len: usize) -> f64 {
        2.0 * self
            .comm
            .client_edge
            .transfer_time(CommModel::model_bytes(param_len))
    }

    /// `client`'s wall-clock estimate for one group round: its `E` epochs
    /// at Eq. 5's training cost, `slowdown` times slower, plus `transfer`.
    /// At `slowdown = 1.0` it is the client's *nominal* time.
    pub(crate) fn report_s(&self, client: usize, slowdown: f64, transfer: f64) -> f64 {
        self.cost.training(self.data.client_size(client))
            * self.config.local_rounds as f64
            * slowdown
            + transfer
    }

    /// The slowest nominal member's [`Trainer::report_s`].
    pub(crate) fn nominal_slowest(&self, members: &[usize], transfer: f64) -> f64 {
        members
            .iter()
            .map(|&c| self.report_s(c, 1.0, transfer))
            .fold(0.0f64, f64::max)
    }

    /// Lockstep's straggler cuts, one [`GroupCuts`] per group: member `m`
    /// misses group round `k` when it does not crash, runs slow
    /// (`slowdown > 1.0`), and its [`Trainer::report_s`] passes the
    /// deadline, `deadline_factor ×` the group's slowest nominal member.
    /// `None` when the run has no deadline.
    fn lockstep_cuts(
        &self,
        groups: &[(usize, &[usize])],
        t: usize,
        param_len: usize,
    ) -> Option<Vec<GroupCuts>> {
        let fs = self.faults.as_ref()?;
        if fs.policy.deadline_factor <= 0.0 {
            return None;
        }
        let transfer = self.transfer_s(param_len);
        let cuts = groups.iter().map(|&(_, group)| {
            let deadline_s = fs.policy.deadline_factor * self.nominal_slowest(group, transfer);
            let by_round = (0..self.config.group_rounds).map(|k| {
                let cut = group.iter().enumerate().filter_map(|(m, &c)| {
                    if fs.injector.crashes(t, k, c) {
                        return None;
                    }
                    let slowdown = fs.injector.slowdown(t, k, c);
                    let late = slowdown > 1.0 && self.report_s(c, slowdown, transfer) > deadline_s;
                    late.then_some((m, slowdown))
                });
                cut.collect()
            });
            GroupCuts {
                by_round: by_round.collect(),
            }
        });
        Some(cuts.collect())
    }

    /// Trains `groups` (global index, members) for `K` group rounds each,
    /// starting from `global` (Lines 8–14), as one task graph on the pool;
    /// outcomes come back in the order of `groups`. Public so baseline
    /// runners (FedCLAR) can reuse the exact same group mechanics. Each
    /// group is a chain: group round k's member steps are tasks, the last
    /// of them to finish runs the group's
    /// Line-14 drain (slots in member order), and the drain releases round
    /// k + 1. Under secure aggregation the drain instead pushes one task per
    /// [`SECAGG_CHUNK`] coordinates, and the last chunk releases the next
    /// round. Groups never wait for each other, steps of every group share
    /// the queue, and a step writes only its own [`Slot`], so the result is
    /// bit-identical to the sequential engine for any thread count.
    ///
    /// `cuts` are the event clock's straggler cuts (one [`GroupCuts`] per
    /// group, aligned with `groups`), decided in emulated time. Without
    /// them the round's cuts are lockstep's ([`Trainer::lockstep_cuts`]).
    pub fn train_groups(
        &self,
        global: &[Scalar],
        groups: &[(usize, &[usize])],
        strategy: &dyn LocalUpdate,
        t: usize,
        lr: Scalar,
        cuts: Option<&[GroupCuts]>,
    ) -> Vec<GroupOutcome> {
        let lockstep = match cuts {
            Some(_) => None,
            None => self.lockstep_cuts(groups, t, global.len()),
        };
        let cuts = cuts.or(lockstep.as_deref());
        if let Some(c) = cuts {
            assert_eq!(c.len(), groups.len(), "one cut set per group");
        }
        let cfg = &self.config;
        let chains: Vec<GroupChain<'_>> = groups
            .iter()
            .enumerate()
            .map(|(ci, &(gi, group))| GroupChain {
                gi,
                group,
                cuts: cuts.map(|c| &c[ci]),
                n_g: self.group_samples(group).max(1),
                pending: AtomicUsize::new(group.len()),
                // Pooled: the group model and every slot buffer come back
                // with warm parameter-length capacity after round one.
                model: RwLock::new({
                    let mut gp = self.params.take_empty();
                    gp.extend_from_slice(global);
                    gp
                }),
                slots: {
                    let mut slots = self.slots.take_empty();
                    slots.extend(group.iter().map(|_| {
                        let buf = self.params.take_empty();
                        Mutex::new(Slot {
                            buf,
                            ..Slot::default()
                        })
                    }));
                    slots
                },
                tally: Mutex::default(),
            })
            .collect();
        let obs = self.obs.as_deref();
        // A group with no member has nothing to train or aggregate: its
        // model stays `global` and it runs no task.
        let running = chains.iter().filter(|c| !c.group.is_empty()).count();
        let spans: Vec<RoundSpan> = match obs {
            Some(ob) => (0..cfg.group_rounds)
                .map(|k| RoundSpan {
                    start: AtomicU64::new(if k == 0 { ob.now_ns() } else { u64::MAX }),
                    left: AtomicUsize::new(running),
                })
                .collect(),
            None => Vec::new(),
        };
        let sessions: Vec<RwLock<Option<SecureRound>>> = if cfg.secure_aggregation {
            chains.iter().map(|_| RwLock::new(None)).collect()
        } else {
            Vec::new()
        };
        let graph = RoundGraph {
            trainer: self,
            strategy,
            global,
            t,
            lr,
            chains: &chains,
            sessions: &sessions,
            spans: &spans,
        };
        let seed = chains.iter().enumerate().flat_map(|(group, chain)| {
            (0..chain.group.len()).map(move |member| RoundTask::Step {
                group,
                k: 0,
                member,
            })
        });
        self.tasks.run(
            seed,
            || self.workers.checkout(|| WorkerScratch::new(&self.model)),
            |scratch, task, push| graph.run(scratch, task, push),
        );
        if let (Some(ob), 0) = (obs, running) {
            // No group trained: each group round is an empty span.
            for k in 0..cfg.group_rounds {
                ob.record_span(
                    SpanKind::GroupRound,
                    ob.now_ns(),
                    SpanAttrs::group_round(t, k),
                );
            }
        }

        chains
            .into_iter()
            .map(|chain| {
                // Slot buffers and shells go straight back to the pools;
                // the group model travels on inside the outcome and is
                // recycled by the round driver once aggregation is done.
                // A shard still kept here (its member missed round K − 1)
                // is dropped with its slot.
                const RUN: &str = "a task's panic ends the run before its locks are read";
                let mut slots = chain.slots;
                let (mut shards_derived, mut shard_steps) = (0, 0);
                for s in slots.drain(..) {
                    let slot = s.into_inner().expect(RUN);
                    shards_derived += slot.derived;
                    shard_steps += slot.shard_steps;
                    self.params.put(slot.buf);
                }
                self.slots.put(slots);
                let mut members = self.members.take_empty();
                members.extend_from_slice(chain.group);
                let tally = chain.tally.into_inner().expect(RUN);
                GroupOutcome {
                    group: chain.gi,
                    params: chain.model.into_inner().expect(RUN),
                    samples: chain.n_g,
                    train_loss: tally.loss_acc / tally.loss_n.max(1) as Scalar,
                    members,
                    uploads: tally.uploads,
                    upload_samples: tally.upload_samples,
                    events: tally.events,
                    defense: tally.defense,
                    secagg_sessions: tally.secagg_sessions,
                    secagg_pair_masks: tally.secagg_pair_masks,
                    shards_derived,
                    shard_steps,
                }
            })
            .collect()
    }

    /// FLAME-style group defense (Line 14 pre-filter): clusters the live
    /// slots' *deltas* by cosine similarity, rejects the suspicious
    /// minority, and clips the accepted deltas to the median norm. Rejected
    /// slots are marked dead — they never reach the survivor tally or the
    /// aggregate — and rejected *adversaries* are logged as
    /// [`AttackEvent::AttackFiltered`]. Honest clients the filter cuts are
    /// collateral damage, not attacks, so they are not logged. The live
    /// list and delta rows are the drain's worker scratch.
    fn flame_filter(
        &self,
        chain: &GroupChain<'_>,
        model: &[Scalar],
        tally: &mut GroupTally,
        (t, k): (usize, usize),
        scratch: &mut WorkerScratch,
    ) {
        let WorkerScratch { live, deltas, .. } = scratch;
        live.clear();
        live.extend((0..chain.slots.len()).filter(|&i| chain.slot(i).live));
        if live.len() < 3 {
            return; // too few survivors to cluster: pass everyone through
        }
        if deltas.len() < live.len() {
            deltas.resize_with(live.len(), Vec::new);
        }
        let deltas = &mut deltas[..live.len()];
        for (delta, &i) in deltas.iter_mut().zip(live.iter()) {
            delta.clear();
            delta.extend(chain.slot(i).buf.iter().zip(model).map(|(&w, &s)| w - s));
        }
        let report = gfl_defense::filter_updates(deltas, &gfl_defense::DefenseConfig::default());
        tally.defense.similarity_evals += report.cost.similarity_evals;
        tally.defense.norm_passes += report.cost.norm_passes;
        for (pos, delta) in deltas.iter().enumerate() {
            let slot_idx = live[pos];
            let mut slot = chain.slot(slot_idx);
            if report.rejected.contains(&pos) {
                slot.live = false;
                let client = chain.group[slot_idx];
                if self
                    .adversary
                    .as_ref()
                    .is_some_and(|a| a.plan.is_adversary(client))
                {
                    tally
                        .events
                        .push(Event::Attack(AttackEvent::AttackFiltered {
                            round: t,
                            group_round: k,
                            group: chain.gi,
                            client,
                            stage: DefenseStage::FlameFilter,
                        }));
                }
            } else {
                // Write the clipped delta back so the weighted-mean path
                // aggregates exactly what the defense admitted.
                for (w, (&d, &s)) in slot.buf.iter_mut().zip(delta.iter().zip(model.iter())) {
                    *w = s + d;
                }
            }
        }
    }

    /// One client's local training within one group round (Line 13, plus
    /// the fault gates around it). Writes only `unit.slot`; every decision
    /// is a pure function of `(seed, t, k, client)`, so the outcome does
    /// not depend on which worker thread runs the unit or when.
    fn run_unit(
        &self,
        round: &RoundGraph<'_, '_>,
        unit: &mut Unit<'_>,
        scratch: &mut WorkerScratch,
    ) {
        let RoundGraph {
            t,
            lr,
            global,
            strategy,
            ..
        } = *round;
        let k = unit.k;
        let cfg = &self.config;
        let fs = self.faults.as_ref();
        let client = unit.client;
        let slot = &mut *unit.slot;
        slot.live = false;
        slot.event = None;
        slot.attack = None;
        slot.loss = None;
        // Injected faults: crashes vanish mid-round, stragglers the clock
        // cut never report. Decisions are pure hashes — they never touch
        // `crng`, so the clean path is bit-identical with faults compiled
        // in but disabled.
        if let Some(fs) = fs {
            if fs.injector.crashes(t, k, client) {
                slot.event = Some(FaultEvent::ClientCrash {
                    round: t,
                    group_round: k,
                    group: unit.gi,
                    client,
                });
                return;
            }
        }
        // The clock already placed this client's report after the
        // group-round close: past lockstep's deadline, or, on the event
        // clock, after the quorum filled or the deadline fired. Clean
        // clients can be cut there too — with `slowdown = 1.0` — when a
        // partial quorum closes the round early.
        if let Some(slowdown) = unit.cut {
            slot.event = Some(FaultEvent::StragglerCut {
                round: t,
                group_round: k,
                group: unit.gi,
                client,
                slowdown,
            });
            return;
        }
        // Independent, reproducible stream per (seed, t, k, client).
        let mut crng = init::rng(
            cfg.seed
                ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (k as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
                ^ (client as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        // Device churn: the client trains but drops before its upload
        // reaches the edge aggregator.
        let dropped = cfg.dropout_prob > 0.0 && crng.gen::<f64>() < cfg.dropout_prob;
        if dropped {
            return;
        }
        slot.buf.clear();
        slot.buf.extend_from_slice(unit.start);
        // Compromised data poisoners train on a poisoned shard; everyone
        // else trains on their honest rows. Poisoning the shard here —
        // inside the client update boundary — means the poison is already
        // baked in *before* any masking or robust aggregation, so attacks
        // survive SecAgg exactly as they would in deployment. Honest
        // materialized clients read their rows in place. Everyone else — a
        // virtual client, or a materialized data poisoner — derives its
        // rows at its first trained group round, has the campaign applied
        // to them, and keeps them in the slot. A shard no later round of
        // the chain can use is built into the worker's buffers (handed back
        // below); a kept one gets exact-size buffers of its own and is
        // dropped at its last use.
        let adv = self.adversary.as_ref();
        let kind = adv.and_then(|a| a.plan.kind(client));
        let later = k + 1 < cfg.group_rounds;
        let mut borrowed = false;
        let (data, indices, poisoned): (&Dataset, &[usize], _) = match &self.data {
            FedData::Materialized { train, partition }
                if matches!(kind, None | Some(AttackKind::ModelPoison)) =>
            {
                (train, partition.indices[client].as_slice(), None)
            }
            fed => {
                if slot.shard.is_none() {
                    borrowed = !later;
                    let (features, labels) = if borrowed {
                        let WorkerScratch {
                            features, labels, ..
                        } = scratch;
                        (std::mem::take(features), std::mem::take(labels))
                    } else {
                        Default::default()
                    };
                    let mut ds = fed.shard_from_parts(client, features, labels, &mut scratch.mix);
                    let mut poisoned = None;
                    if let Some(a) = adv.filter(|_| kind.is_some()) {
                        let classes = ds.num_classes();
                        let (mut features, mut labels) = ds.into_parts();
                        poisoned =
                            poison_shard(&a.plan, &a.trigger, client, &mut features, &mut labels);
                        ds = Dataset::new(features, labels, classes);
                    }
                    slot.shard = Some((ds, poisoned));
                    slot.derived += 1;
                }
                slot.shard_steps += 1;
                let (ds, poisoned) = slot.shard.as_ref().expect("derived above");
                scratch.indices.clear();
                scratch.indices.extend(0..ds.len());
                (ds, scratch.indices.as_slice(), *poisoned)
            }
        };
        if let Some((kind, rows)) = poisoned {
            slot.attack = Some(match kind {
                AttackKind::Backdoor => AttackEvent::BackdoorInjected {
                    round: t,
                    group_round: k,
                    group: unit.gi,
                    client,
                    rows,
                },
                AttackKind::LabelFlip => AttackEvent::LabelsFlipped {
                    round: t,
                    group_round: k,
                    group: unit.gi,
                    client,
                    rows,
                },
                AttackKind::ModelPoison => unreachable!("model poisoners have no shard"),
            });
        }
        let task = LocalTask {
            client,
            model: &self.model,
            group_start: unit.start,
            global_start: global,
            data,
            indices,
            epochs: cfg.local_rounds,
            batch_size: cfg.batch_size,
            lr,
            round: t,
        };
        let loss = strategy.train(&task, &mut slot.buf, &mut scratch.local, &mut crng);
        if !indices.is_empty() {
            slot.loss = Some(loss);
        }
        // Model poisoners train honestly, then amplify their uploaded
        // delta (scale and/or sign-flip) — the model-replacement attack.
        // Boosted backdoor clients amplify their poison-trained delta the
        // same way, keeping the BackdoorInjected classification.
        if let Some(a) = adv {
            match kind {
                Some(AttackKind::ModelPoison) => {
                    let factor =
                        a.plan.scale_factor as Scalar * if a.plan.sign_flip { -1.0 } else { 1.0 };
                    for (w, &s) in slot.buf.iter_mut().zip(unit.start.iter()) {
                        *w = s + factor * (*w - s);
                    }
                    slot.attack = Some(AttackEvent::UpdatePoisoned {
                        round: t,
                        group_round: k,
                        group: unit.gi,
                        client,
                    });
                }
                Some(AttackKind::Backdoor) if a.plan.backdoor_boost != 1.0 => {
                    let factor = a.plan.backdoor_boost as Scalar;
                    for (w, &s) in slot.buf.iter_mut().zip(unit.start.iter()) {
                        *w = s + factor * (*w - s);
                    }
                }
                _ => {}
            }
        }
        let mut rejected = false;
        if let Some(fs) = fs {
            if fs.injector.corrupts(t, k, client) {
                // The update arrives garbled: all weights NaN.
                for w in slot.buf.iter_mut() {
                    *w = Scalar::NAN;
                }
            }
            if fs.policy.reject_non_finite && !gfl_defense::is_update_finite(&slot.buf) {
                // An adversary whose amplified update overflowed is caught
                // here: the injection becomes an interception.
                if slot.attack.take().is_some() {
                    slot.attack = Some(AttackEvent::AttackFiltered {
                        round: t,
                        group_round: k,
                        group: unit.gi,
                        client,
                        stage: DefenseStage::NonFiniteGate,
                    });
                }
                slot.event = Some(FaultEvent::CorruptRejected {
                    round: t,
                    group_round: k,
                    group: unit.gi,
                    client,
                });
                rejected = true;
            }
        }
        if !rejected {
            slot.live = true;
        }
        // Past its last use a kept shard is dropped, and one built into the
        // worker's buffers hands them back for its next client.
        if !later {
            if let Some((ds, _)) = slot.shard.take().filter(|_| borrowed) {
                let (features, labels) = ds.into_parts();
                (scratch.features, scratch.labels) = (features.into_vec(), labels);
            }
        }
    }

    /// Opens group aggregation through the real pairwise-masking protocol:
    /// every surviving client masks its *weighted* model (weight `n_i` over
    /// `n_surv`, the survivors' samples), the server unmasks the survivor
    /// sum — including mask recovery for clients that dropped mid-round.
    /// The round runs as one fused pass per [`SECAGG_CHUNK`] of the
    /// `dim`-long model, each a task of its own: no step of the protocol
    /// combines two coordinates, so the result is the same bits at any
    /// chunking and thread count. Returns the session, with the survivors'
    /// updates moved out of their slots and an output per chunk, and what
    /// the protocol's parties would have counted.
    fn open_secure_aggregate(
        &self,
        chain: &GroupChain<'_>,
        n_surv: usize,
        dim: usize,
        t: usize,
        k: usize,
    ) -> (SecureRound, gfl_secagg::SecAggCost) {
        let ids: Vec<u32> = chain.group.iter().map(|&c| c as u32).collect();
        let session_seed =
            self.config.seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ ((t as u64) << 20) ^ k as u64;
        let session = gfl_secagg::SecAggSession::new(ids, dim, session_seed);
        let members = chain.group.iter().enumerate();
        let survivors: Vec<_> = members
            .filter_map(|(member, &c)| {
                let mut slot = chain.slot(member);
                let weight = self.data.client_size(c) as Scalar / n_surv as Scalar;
                slot.live
                    .then(|| (member, c as u32, weight, std::mem::take(&mut slot.buf)))
            })
            .collect();
        let cost = session.round_cost(survivors.len());
        let chunks = (0..dim.div_ceil(SECAGG_CHUNK))
            .map(|_| Mutex::new([0.0; SECAGG_CHUNK]))
            .collect();
        let round = SecureRound {
            session,
            survivors,
            chunks,
        };
        (round, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::{CovGrouping, RandomGrouping};
    use crate::local::FedAvg;
    use gfl_data::{PartitionSpec, SyntheticSpec, VirtualPopulation};

    fn tiny_world(seed: u64) -> (Trainer, Vec<Group>) {
        let data = SyntheticSpec::tiny().generate(600, seed);
        let (train, test) = data.split_holdout(5);
        let part = ClientPartition::dirichlet(&train, &PartitionSpec::tiny(0.5, seed));
        let topo = Topology::even_split(2, part.sizes());
        let groups = form_groups_per_edge(
            &CovGrouping {
                min_group_size: 2,
                max_cov: 0.8,
            },
            &topo,
            &part.label_matrix,
            seed,
        );
        let model = gfl_nn::zoo::tiny(4, 3);
        let trainer = Trainer::try_new(GroupFelConfig::tiny(), model, (train, part), test).unwrap();
        (trainer, groups)
    }

    /// `trainer`'s federation under another configuration.
    fn with_config(trainer: &Trainer, cfg: GroupFelConfig) -> Trainer {
        let data = (trainer.train_data().clone(), trainer.partition().clone());
        Trainer::try_new(cfg, trainer.model.clone(), data, trainer.test.clone()).unwrap()
    }

    #[test]
    fn run_produces_monotone_cost_history() {
        let (trainer, groups) = tiny_world(1);
        let h = trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
        assert!(!h.is_empty());
        let costs: Vec<f64> = h.records().iter().map(|r| r.cost).collect();
        for w in costs.windows(2) {
            assert!(w[1] >= w[0], "cost must be nondecreasing: {costs:?}");
        }
        assert!(costs[0] > 0.0);
    }

    #[test]
    fn training_improves_over_initial_model() {
        let (trainer, groups) = tiny_world(2);
        let mut cfg = GroupFelConfig::tiny();
        cfg.global_rounds = 12;
        cfg.lr = LrSchedule::Constant(0.2);
        let trainer = with_config(&trainer, cfg);
        let h = trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
        let first = h.records().first().expect("eval on cadence").accuracy;
        let best = h.best_accuracy();
        assert!(
            best > first + 0.1 || best > 0.8,
            "no learning: first {first}, best {best}"
        );
    }

    #[test]
    fn run_is_deterministic() {
        let (trainer, groups) = tiny_world(3);
        let a = trainer.run(&groups, &FedAvg, SamplingStrategy::SRCov);
        let b = trainer.run(&groups, &FedAvg, SamplingStrategy::SRCov);
        assert_eq!(a.records().len(), b.records().len());
        for (x, y) in a.records().iter().zip(b.records()) {
            assert_eq!(x.accuracy, y.accuracy);
            assert_eq!(x.cost, y.cost);
        }
    }

    #[test]
    fn secure_aggregation_matches_plain_aggregation() {
        let (trainer, groups) = tiny_world(4);
        let plain = trainer.run(&groups, &FedAvg, SamplingStrategy::Random);
        let mut cfg = trainer.config.clone();
        cfg.secure_aggregation = true;
        let secure_trainer = with_config(&trainer, cfg);
        let secure = secure_trainer.run(&groups, &FedAvg, SamplingStrategy::Random);
        // Same trajectory up to f32 mask-cancellation rounding.
        for (p, s) in plain.records().iter().zip(secure.records()) {
            assert!(
                (p.accuracy - s.accuracy).abs() < 0.05,
                "plain {} vs secure {}",
                p.accuracy,
                s.accuracy
            );
        }
    }

    #[test]
    fn cost_budget_stops_training_early() {
        let (trainer, groups) = tiny_world(5);
        let mut cfg = GroupFelConfig::tiny();
        cfg.global_rounds = 50;
        cfg.eval_every = 1;
        cfg.cost_budget = Some(1000.0);
        let trainer = with_config(&trainer, cfg);
        let h = trainer.run(&groups, &FedAvg, SamplingStrategy::Random);
        let last = h.last_record().expect("eval on cadence");
        assert!(last.round < 49, "budget should stop before round 50");
    }

    #[test]
    fn zero_round_configs_are_typed_errors_not_panics() {
        // Every refusal of the one constructor, over both representations
        // of the federation it accepts.
        let (trainer, _groups) = tiny_world(8);
        let eager = (trainer.train_data().clone(), trainer.partition().clone());
        let pop = VirtualPopulation::new(gfl_data::VirtualSpec::tiny(8, 0.5, 8));
        let tiny = GroupFelConfig::tiny;
        let cases = [
            (
                GroupFelConfig {
                    global_rounds: 0,
                    ..tiny()
                },
                gfl_nn::zoo::tiny(4, 3),
                ConfigError::ZeroGlobalRounds,
            ),
            (
                GroupFelConfig {
                    group_rounds: 0,
                    ..tiny()
                },
                gfl_nn::zoo::tiny(4, 3),
                ConfigError::ZeroGroupRounds,
            ),
            (
                GroupFelConfig {
                    eval_every: 0,
                    ..tiny()
                },
                gfl_nn::zoo::tiny(4, 3),
                ConfigError::ZeroEvalCadence,
            ),
            (
                tiny(),
                gfl_nn::zoo::tiny(9, 3),
                ConfigError::DimensionMismatch { model: 9, data: 4 },
            ),
        ];
        for (cfg, model, want) in cases {
            let refusal = |data: FedData| {
                Trainer::try_new(cfg.clone(), model.clone(), data, trainer.test.clone()).err()
            };
            assert_eq!(refusal(eager.clone().into()), Some(want.clone()));
            assert_eq!(refusal(pop.clone().into()), Some(want));
        }
    }

    #[test]
    fn observer_records_rounds_and_phase_spans() {
        let (trainer, groups) = tiny_world(9);
        let obs = gfl_obs::TraceCollector::new();
        let trainer = with_config(&trainer, trainer.config.clone())
            .with_observer(std::sync::Arc::clone(&obs));
        let h = trainer.run(&groups, &FedAvg, SamplingStrategy::ESRCov);
        let trace = obs.finish(gfl_parallel::default_parallelism());
        let rounds = trainer.config.global_rounds as u64;
        assert_eq!(trace.rounds.len() as u64, rounds);
        let summary = trace.summary.as_ref().unwrap();
        assert_eq!(summary.rounds, rounds);
        assert_eq!(summary.metrics.counter("rounds.total"), Some(rounds));
        // One Round/Train/Aggregate span per round, K GroupRound spans each
        // — counted by the collector, which keeps no spans.
        assert!(trace.spans.is_empty());
        let per_kind = |k| {
            let total = summary.span_totals.iter().find(|t| t.kind == k);
            total.map_or(0, |t| t.count)
        };
        assert_eq!(per_kind(SpanKind::Round), rounds);
        assert_eq!(per_kind(SpanKind::Train), rounds);
        assert_eq!(per_kind(SpanKind::Aggregate), rounds);
        assert_eq!(
            per_kind(SpanKind::GroupRound),
            rounds * trainer.config.group_rounds as u64
        );
        assert!(per_kind(SpanKind::ClientStep) > 0);
        // Evaluation runs every round under the tiny config's cadence.
        assert_eq!(per_kind(SpanKind::Eval), h.records().len() as u64);
        // The four phase durations never exceed round wall time.
        for r in &trace.rounds {
            assert!(r.train_ns + r.aggregate_ns + r.comm_ns + r.eval_ns <= r.wall_ns);
            assert!(r.clients_trained > 0);
        }
        assert!(
            trace.round_coverage() > 0.5,
            "tiny rounds are mostly phases"
        );
    }

    #[test]
    fn form_groups_per_edge_respects_edge_boundaries() {
        let data = SyntheticSpec::tiny().generate(400, 6);
        let part = ClientPartition::dirichlet(&data, &PartitionSpec::tiny(0.5, 6));
        let topo = Topology::even_split(3, part.sizes());
        let groups = form_groups_per_edge(
            &RandomGrouping { group_size: 3 },
            &topo,
            &part.label_matrix,
            9,
        );
        // Every group's members must live on a single edge server.
        for g in &groups {
            let edges: std::collections::HashSet<usize> = g
                .iter()
                .map(|&c| (0..3).find(|&j| topo.clients_of(j).contains(&c)).unwrap())
                .collect();
            assert_eq!(edges.len(), 1, "group {g:?} spans edges {edges:?}");
        }
        // And the union of groups is all clients.
        let total: usize = groups.iter().map(Group::len).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn clean_self_healing_run_matches_static_run_bit_for_bit() {
        // With no churn plan, the self-healing loop must reproduce the
        // static engine exactly: same formation, same draws, same model.
        let (trainer, _) = tiny_world(11);
        let algo = CovGrouping {
            min_group_size: 2,
            max_cov: 0.8,
        };
        let topo = Topology::even_split(2, trainer.partition().sizes());
        // The self-healing loop forms its partition with the config seed.
        let groups = form_groups_per_edge(
            &algo,
            &topo,
            &trainer.partition().label_matrix,
            trainer.config.seed,
        );
        let sampling = SamplingStrategy::ESRCov;
        let probs = trainer.sampling_probs(&groups, sampling);
        let drive = |membership| {
            let plan = RunPlan {
                clock: Clock::Lockstep,
                membership,
            };
            trainer.run_plan(&FedAvg, &plan).unwrap()
        };
        let fixed = drive(Membership::Static {
            groups: &groups,
            probs: &probs,
        });
        let healed = drive(Membership::SelfHealing {
            algo: &algo,
            topology: &topo,
            sampling,
        });
        assert_eq!(healed.membership.unwrap().groups(), groups);
        assert_eq!(fixed.params, healed.params);
        assert_eq!(fixed.history, healed.history);
        assert!(healed.history.events().is_empty());
    }

    #[test]
    fn robust_aggregation_rules_complete_and_stay_finite() {
        let (trainer, groups) = tiny_world(12);
        for rule in [
            RobustAggRule::CoordinateMedian,
            RobustAggRule::TrimmedMean { trim: 1 },
            RobustAggRule::Krum { byzantine: 1 },
            RobustAggRule::MultiKrum {
                byzantine: 1,
                select: 2,
            },
        ] {
            let t = with_config(&trainer, trainer.config.clone()).with_robust_agg(rule);
            let probs = t.sampling_probs(&groups, SamplingStrategy::Random);
            let plan = RunPlan {
                clock: Clock::Lockstep,
                membership: Membership::Static {
                    groups: &groups,
                    probs: &probs,
                },
            };
            let state = t.run_plan(&FedAvg, &plan).unwrap();
            assert!(!state.history.is_empty(), "{rule:?} produced no records");
            assert!(
                state.params.iter().all(|w| w.is_finite()),
                "{rule:?} produced non-finite weights"
            );
        }
    }

    #[test]
    fn robust_aggregation_clamps_small_groups() {
        // Breakdown parameters far beyond what tiny groups support must
        // clamp rather than panic inside gfl-defense.
        let (trainer, groups) = tiny_world(13);
        let t = with_config(&trainer, trainer.config.clone()).with_robust_agg(
            RobustAggRule::MultiKrum {
                byzantine: 50,
                select: 50,
            },
        );
        let h = t.run(&groups, &FedAvg, SamplingStrategy::Random);
        assert!(!h.is_empty());
    }

    #[test]
    #[should_panic(expected = "incompatible with secure aggregation")]
    fn robust_aggregation_rejects_secure_aggregation() {
        let (trainer, _) = tiny_world(14);
        let mut cfg = trainer.config.clone();
        cfg.secure_aggregation = true;
        let _ = with_config(&trainer, cfg).with_robust_agg(RobustAggRule::CoordinateMedian);
    }

    /// The oracle: the deadline rule `run_unit` applied inside each unit
    /// before lockstep's cuts were decided ahead of the round, verbatim —
    /// past the crash gate, the group's deadline, then the unit's slowdown
    /// estimate against it.
    fn in_unit_cut(
        trainer: &Trainer,
        group: &[usize],
        t: usize,
        k: usize,
        client: usize,
    ) -> Option<f64> {
        let fs = trainer.faults.as_ref()?;
        if fs.injector.crashes(t, k, client) {
            return None;
        }
        // The group's deadline.
        if fs.policy.deadline_factor <= 0.0 {
            return None;
        }
        let transfer = 2.0
            * trainer
                .comm
                .client_edge
                .transfer_time(CommModel::model_bytes(trainer.model.param_len()));
        let slowest = group
            .iter()
            .map(|&c| {
                trainer.cost.training(trainer.data.client_size(c))
                    * trainer.config.local_rounds as f64
                    + transfer
            })
            .fold(0.0f64, f64::max);
        let deadline_s = fs.policy.deadline_factor * slowest;
        // The unit's estimate against it.
        let slowdown = fs.injector.slowdown(t, k, client);
        if slowdown > 1.0 {
            let estimated = trainer.cost.training(trainer.data.client_size(client))
                * trainer.config.local_rounds as f64
                * slowdown
                + transfer;
            if estimated > deadline_s {
                return Some(slowdown);
            }
        }
        None
    }

    #[test]
    fn lockstep_cuts_match_the_in_unit_deadline_rule() {
        let (trainer, groups) = tiny_world(15);
        let topo = Topology::even_split(2, trainer.partition().sizes());
        let active: Vec<(usize, &[usize])> = groups
            .iter()
            .enumerate()
            .map(|(gi, g)| (gi, g.as_slice()))
            .collect();
        let mut cut = 0;
        for deadline_factor in [0.0, 0.5, 1.0, 2.5, f64::INFINITY] {
            for seed in [1, 2, 3] {
                let plan = FaultPlan {
                    seed,
                    straggler_fraction: 0.5,
                    straggler_factor: 2.0,
                    straggler_jitter: 0.9,
                    crash_prob: 0.3,
                    ..FaultPlan::none()
                };
                let policy = FaultPolicy {
                    deadline_factor,
                    ..FaultPolicy::default()
                };
                let trainer =
                    with_config(&trainer, trainer.config.clone()).with_faults(plan, policy, &topo);
                for t in 0..4 {
                    let cuts = trainer.lockstep_cuts(&active, t, trainer.model.param_len());
                    for (ci, &(_, group)) in active.iter().enumerate() {
                        for k in 0..trainer.config.group_rounds {
                            for (m, &client) in group.iter().enumerate() {
                                let want = in_unit_cut(&trainer, group, t, k, client);
                                let got = cuts.as_ref().and_then(|c| c[ci].cut_for(k, m));
                                assert_eq!(
                                    got.map(f64::to_bits),
                                    want.map(f64::to_bits),
                                    "factor {deadline_factor}, seed {seed}, t {t}, k {k}, client {client}"
                                );
                                cut += usize::from(got.is_some());
                            }
                        }
                    }
                }
            }
        }
        assert!(cut > 0, "no case cut anyone");
    }

    #[test]
    fn sampled_groups_clamped_to_available() {
        let (trainer, groups) = tiny_world(7);
        let mut cfg = GroupFelConfig::tiny();
        cfg.sampled_groups = 500; // more than exist
        let trainer = with_config(&trainer, cfg);
        let h = trainer.run(&groups, &FedAvg, SamplingStrategy::Random);
        assert!(!h.is_empty());
    }

    #[test]
    #[should_panic(expected = "round-graph bug")]
    fn claiming_a_held_slot_is_a_round_graph_bug() {
        let slot = Mutex::new(Slot::default());
        let _step = claim(slot.try_lock());
        let _drain = claim(slot.try_lock());
    }
}
