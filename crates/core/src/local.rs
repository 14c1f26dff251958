//! Client-side local training (Line 13 of Algorithm 1) as a pluggable
//! strategy.
//!
//! The engine is strategy-agnostic: FedAvg, FedProx, SCAFFOLD, and
//! FedCLAR's pre-clustering phase all share the same outer hierarchy and
//! differ only in how a client turns `E` epochs of minibatches into a
//! parameter update. [`LocalUpdate`] captures exactly that surface, plus
//! the cost-model hooks the paper needs ("we use them to estimate different
//! quadratic cost functions for each method", §7.1): a strategy declares
//! which group operations it performs per group round and how much extra
//! per-sample compute its local step costs.

use gfl_data::{Batch, Dataset};
use gfl_nn::{Network, NetworkWorkspace, Params};
use gfl_sim::GroupOpKind;
use gfl_tensor::init::GflRng;
use gfl_tensor::Scalar;
use rand::Rng;

/// Everything a client sees during one stint of local training
/// (`x^i_{t,k,·}` updates within group round `k` of global round `t`).
pub struct LocalTask<'a> {
    /// Global client id.
    pub client: usize,
    /// The model architecture.
    pub model: &'a Network,
    /// Parameters the client starts from (`x^g_{t,k}`).
    pub group_start: &'a [Scalar],
    /// The global model of this round (`x_t`) — FedProx anchors here.
    pub global_start: &'a [Scalar],
    /// The client's local dataset.
    pub data: &'a Dataset,
    /// Rows of `data` owned by this client.
    pub indices: &'a [usize],
    /// Local epochs `E`.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate η for this round.
    pub lr: Scalar,
    /// Global round index `t`.
    pub round: usize,
}

/// Per-thread reusable buffers for local training.
///
/// One instance serves many clients in sequence: each engine worker holds
/// one, so the workspace, gradient, shuffle, and minibatch buffers are
/// allocated once per worker per run instead of once per client.
pub struct LocalScratch {
    pub workspace: NetworkWorkspace,
    pub grad: Vec<Scalar>,
    shuffled: Vec<usize>,
    batch: Batch,
}

impl LocalScratch {
    pub fn new(model: &Network) -> Self {
        Self {
            workspace: model.workspace(),
            grad: vec![0.0; model.param_len()],
            shuffled: Vec::new(),
            batch: Batch::empty(),
        }
    }
}

/// A local-update strategy (FedAvg/FedProx/SCAFFOLD/...).
pub trait LocalUpdate: Send + Sync {
    /// Name used in experiment reports.
    fn name(&self) -> &'static str;

    /// Runs `task.epochs` of minibatch SGD starting from `params ==
    /// task.group_start`, mutating `params` into the trained local model.
    /// Returns the mean training loss observed.
    fn train(
        &self,
        task: &LocalTask<'_>,
        params: &mut Params,
        scratch: &mut LocalScratch,
        rng: &mut GflRng,
    ) -> Scalar;

    /// Called once after every global round with the ids of clients that
    /// participated (SCAFFOLD updates its server control variate here).
    fn end_global_round(&self, _participants: &[usize]) {}

    /// Group operations this strategy performs per group round; drives the
    /// cost model. Default: plain secure aggregation + backdoor detection,
    /// the paper's standard group pipeline.
    fn group_ops(&self) -> Vec<GroupOpKind> {
        vec![
            GroupOpKind::SecureAggregation,
            GroupOpKind::BackdoorDetection,
        ]
    }

    /// Multiplier on per-sample training cost relative to plain SGD
    /// (FedProx pays for the proximal term; SCAFFOLD for the variate
    /// correction).
    fn training_cost_factor(&self) -> f64 {
        1.0
    }

    /// Multiplier on client upload size relative to a bare model update
    /// (SCAFFOLD ships its control variate alongside, doubling the
    /// payload). Drives the `comm.bytes.client_edge` accounting.
    fn upload_payload_factor(&self) -> f64 {
        1.0
    }
}

/// Runs the shared minibatch loop, applying `adjust_grad` to each raw
/// gradient before the SGD step. Returns mean minibatch loss.
pub fn minibatch_sgd(
    task: &LocalTask<'_>,
    params: &mut Params,
    scratch: &mut LocalScratch,
    rng: &mut GflRng,
    mut adjust_grad: impl FnMut(&mut [Scalar], &[Scalar]),
) -> Scalar {
    let n = task.indices.len();
    if n == 0 {
        return 0.0;
    }
    let batch = task.batch_size.clamp(1, n);
    scratch.shuffled.clear();
    scratch.shuffled.extend_from_slice(task.indices);
    let mut loss_sum = 0.0;
    let mut batches = 0u32;
    for _ in 0..task.epochs {
        // Fresh shuffle per epoch (ξ in Line 13).
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            scratch.shuffled.swap(i, j);
        }
        for chunk in scratch.shuffled.chunks(batch) {
            // Buffer-reusing gather: allocation-free after the first batch.
            task.data.batch_into(chunk, &mut scratch.batch);
            let loss = task.model.loss_and_grad(
                params,
                &scratch.batch.features,
                &scratch.batch.labels,
                &mut scratch.grad,
                &mut scratch.workspace,
            );
            adjust_grad(&mut scratch.grad, params);
            gfl_nn::sgd::sgd_step(params, &scratch.grad, task.lr);
            loss_sum += loss;
            batches += 1;
        }
    }
    loss_sum / batches.max(1) as Scalar
}

/// Plain FedAvg local update: unmodified minibatch SGD.
#[derive(Debug, Clone, Copy, Default)]
pub struct FedAvg;

impl LocalUpdate for FedAvg {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    fn train(
        &self,
        task: &LocalTask<'_>,
        params: &mut Params,
        scratch: &mut LocalScratch,
        rng: &mut GflRng,
    ) -> Scalar {
        minibatch_sgd(task, params, scratch, rng, |_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfl_data::SyntheticSpec;
    use gfl_tensor::init;

    fn setup() -> (Dataset, gfl_nn::Network, Params) {
        let data = SyntheticSpec::tiny().generate(120, 3);
        let model = gfl_nn::zoo::tiny(4, 3);
        let params = model.init_params(&mut init::rng(1));
        (data, model, params)
    }

    #[test]
    fn fedavg_reduces_local_loss() {
        let (data, model, start) = setup();
        let indices: Vec<usize> = (0..60).collect();
        let mut params = start.clone();
        let mut scratch = LocalScratch::new(&model);
        let mut rng = init::rng(2);
        let task = LocalTask {
            client: 0,
            model: &model,
            group_start: &start,
            global_start: &start,
            data: &data,
            indices: &indices,
            epochs: 8,
            batch_size: 16,
            lr: 0.3,
            round: 0,
        };
        let sub = data.subset(&indices);
        let before = model.evaluate(&start, sub.features(), sub.labels()).loss;
        let _ = FedAvg.train(&task, &mut params, &mut scratch, &mut rng);
        let after = model.evaluate(&params, sub.features(), sub.labels()).loss;
        assert!(after < before, "{before} -> {after}");
        assert_ne!(params, start);
    }

    #[test]
    fn empty_client_is_a_noop() {
        let (data, model, start) = setup();
        let mut params = start.clone();
        let mut scratch = LocalScratch::new(&model);
        let mut rng = init::rng(3);
        let task = LocalTask {
            client: 0,
            model: &model,
            group_start: &start,
            global_start: &start,
            data: &data,
            indices: &[],
            epochs: 2,
            batch_size: 8,
            lr: 0.1,
            round: 0,
        };
        let loss = FedAvg.train(&task, &mut params, &mut scratch, &mut rng);
        assert_eq!(loss, 0.0);
        assert_eq!(params, start);
    }

    #[test]
    fn training_is_deterministic_in_rng() {
        let (data, model, start) = setup();
        let indices: Vec<usize> = (0..40).collect();
        let run = |seed| {
            let mut params = start.clone();
            let mut scratch = LocalScratch::new(&model);
            let mut rng = init::rng(seed);
            let task = LocalTask {
                client: 0,
                model: &model,
                group_start: &start,
                global_start: &start,
                data: &data,
                indices: &indices,
                epochs: 2,
                batch_size: 10,
                lr: 0.1,
                round: 0,
            };
            FedAvg.train(&task, &mut params, &mut scratch, &mut rng);
            params
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn default_group_ops_include_secagg_and_backdoor() {
        let ops = FedAvg.group_ops();
        assert!(ops.contains(&GroupOpKind::SecureAggregation));
        assert!(ops.contains(&GroupOpKind::BackdoorDetection));
        assert_eq!(FedAvg.training_cost_factor(), 1.0);
    }
}
