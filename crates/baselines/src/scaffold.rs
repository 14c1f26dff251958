//! SCAFFOLD [Karimireddy et al., ICML'20] — stochastic controlled averaging.
//!
//! "Records the direction of local and global gradient to re-direct updates
//! to an estimated correct direction" (§2.1). Each client holds a control
//! variate `c_i` and the server a global `c`; local steps use the corrected
//! gradient `g − c_i + c`, and after training the client refreshes its
//! variate with option II of the paper:
//!
//! `c_i⁺ = c_i − c + (x − y_i) / (η · steps)`
//!
//! The server then folds `(c_i⁺ − c_i)/N` into `c` at the end of the global
//! round. Because every upload carries both the model and the variate
//! delta, SCAFFOLD's secure aggregation masks twice the payload — the
//! paper's steepest cost curve (Fig. 8, "SCAFFOLD SecAgg").

use gfl_core::local::{minibatch_sgd, LocalScratch, LocalTask, LocalUpdate};
use gfl_nn::Params;
use gfl_sim::GroupOpKind;
use gfl_tensor::init::GflRng;
use gfl_tensor::{ops, Scalar};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m` even after a panicking holder poisoned it: every update under
/// these locks is a clone, a slot assignment or an element-wise add, so the
/// variates a poisoned lock guards are still whole vectors.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// SCAFFOLD local updater with persistent control-variate state.
pub struct Scaffold {
    dim: usize,
    num_clients: usize,
    server_c: Mutex<Vec<Scalar>>,
    client_c: Mutex<Vec<Option<Vec<Scalar>>>>,
    /// `c_i⁺ − c_i` accumulated this global round, one slot per client:
    /// a client's own trainings are sequential, so each slot's bits do not
    /// depend on how the pool schedules the others.
    pending: Mutex<Vec<Option<Vec<Scalar>>>>,
}

impl Scaffold {
    /// Creates SCAFFOLD state for a federation of `num_clients` clients and
    /// models of `dim` parameters.
    pub fn new(dim: usize, num_clients: usize) -> Self {
        assert!(num_clients > 0);
        Self {
            dim,
            num_clients,
            server_c: Mutex::new(vec![0.0; dim]),
            client_c: Mutex::new(vec![None; num_clients]),
            pending: Mutex::new(vec![None; num_clients]),
        }
    }

    /// Current server control variate (for tests/diagnostics).
    pub fn server_variate(&self) -> Vec<Scalar> {
        lock(&self.server_c).clone()
    }
}

impl LocalUpdate for Scaffold {
    fn name(&self) -> &'static str {
        "SCAFFOLD"
    }

    fn train(
        &self,
        task: &LocalTask<'_>,
        params: &mut Params,
        scratch: &mut LocalScratch,
        rng: &mut GflRng,
    ) -> Scalar {
        assert_eq!(params.len(), self.dim, "model/variate dimension mismatch");
        let n = task.indices.len();
        if n == 0 {
            return 0.0;
        }
        let c = lock(&self.server_c).clone();
        let ci = lock(&self.client_c)[task.client]
            .clone()
            .unwrap_or_else(|| vec![0.0; self.dim]);

        // Correction applied to every minibatch gradient: + c − c_i.
        let loss = minibatch_sgd(task, params, scratch, rng, |grad, _| {
            for ((g, &cv), &civ) in grad.iter_mut().zip(c.iter()).zip(ci.iter()) {
                *g += cv - civ;
            }
        });

        // Option II variate refresh.
        let batches_per_epoch = n.div_ceil(task.batch_size.clamp(1, n));
        let steps = (task.epochs * batches_per_epoch).max(1);
        let scale = 1.0 / (task.lr * steps as Scalar);
        let mut ci_new = vec![0.0; self.dim];
        for (k, cn) in ci_new.iter_mut().enumerate() {
            *cn = ci[k] - c[k] + scale * (task.group_start[k] - params[k]);
        }

        {
            let mut pending = lock(&self.pending);
            let slot = pending[task.client].get_or_insert_with(|| vec![0.0; self.dim]);
            for ((p, &new), &old) in slot.iter_mut().zip(ci_new.iter()).zip(ci.iter()) {
                *p += new - old;
            }
        }
        lock(&self.client_c)[task.client] = Some(ci_new);
        loss
    }

    fn end_global_round(&self, _participants: &[usize]) {
        // Ascending client id, not arrival order: `f32` addition is not
        // associative, so the order is part of the result.
        let mut total = vec![0.0; self.dim];
        for slot in lock(&self.pending).iter_mut() {
            if let Some(delta) = slot.take() {
                ops::add_assign(&delta, &mut total);
            }
        }
        let mut server = lock(&self.server_c);
        ops::axpy(1.0 / self.num_clients as Scalar, &total, &mut server);
    }

    fn group_ops(&self) -> Vec<GroupOpKind> {
        vec![
            GroupOpKind::ScaffoldSecureAggregation,
            GroupOpKind::BackdoorDetection,
        ]
    }

    fn training_cost_factor(&self) -> f64 {
        // Variate correction adds two parameter-sized axpys per batch.
        1.3
    }

    fn upload_payload_factor(&self) -> f64 {
        // Uploads carry the client control variate alongside the model.
        2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfl_data::{Dataset, SyntheticSpec};
    use gfl_tensor::init;

    fn task_for<'a>(
        model: &'a gfl_nn::Network,
        data: &'a Dataset,
        indices: &'a [usize],
        start: &'a [f32],
        client: usize,
    ) -> LocalTask<'a> {
        LocalTask {
            client,
            model,
            group_start: start,
            global_start: start,
            data,
            indices,
            epochs: 2,
            batch_size: 10,
            lr: 0.1,
            round: 0,
        }
    }

    #[test]
    fn first_round_with_zero_variates_matches_fedavg() {
        let data = SyntheticSpec::tiny().generate(80, 1);
        let model = gfl_nn::zoo::tiny(4, 3);
        let start = model.init_params(&mut init::rng(2));
        let indices: Vec<usize> = (0..40).collect();
        let scaffold = Scaffold::new(model.param_len(), 4);

        let mut p_scaffold = start.clone();
        let mut scratch = LocalScratch::new(&model);
        scaffold.train(
            &task_for(&model, &data, &indices, &start, 0),
            &mut p_scaffold,
            &mut scratch,
            &mut init::rng(3),
        );

        let mut p_avg = start.clone();
        gfl_core::local::FedAvg.train(
            &task_for(&model, &data, &indices, &start, 0),
            &mut p_avg,
            &mut scratch,
            &mut init::rng(3),
        );
        for (a, b) in p_scaffold.iter().zip(p_avg.iter()) {
            assert!((a - b).abs() < 1e-6, "zero variates must be a no-op");
        }
    }

    #[test]
    fn client_variate_reflects_local_drift() {
        let data = SyntheticSpec::tiny().generate(80, 4);
        let model = gfl_nn::zoo::tiny(4, 3);
        let start = model.init_params(&mut init::rng(5));
        let indices: Vec<usize> = (0..40).collect();
        let scaffold = Scaffold::new(model.param_len(), 2);
        let mut p = start.clone();
        let mut scratch = LocalScratch::new(&model);
        scaffold.train(
            &task_for(&model, &data, &indices, &start, 1),
            &mut p,
            &mut scratch,
            &mut init::rng(6),
        );
        let ci = lock(&scaffold.client_c)[1].clone().unwrap();
        assert!(ops::norm(&ci) > 0.0, "variate must move after training");
    }

    #[test]
    fn server_variate_updates_after_round() {
        let data = SyntheticSpec::tiny().generate(80, 7);
        let model = gfl_nn::zoo::tiny(4, 3);
        let start = model.init_params(&mut init::rng(8));
        let indices: Vec<usize> = (0..40).collect();
        let scaffold = Scaffold::new(model.param_len(), 2);
        assert!(ops::norm(&scaffold.server_variate()) == 0.0);
        let mut p = start.clone();
        let mut scratch = LocalScratch::new(&model);
        scaffold.train(
            &task_for(&model, &data, &indices, &start, 0),
            &mut p,
            &mut scratch,
            &mut init::rng(9),
        );
        scaffold.end_global_round(&[0]);
        assert!(ops::norm(&scaffold.server_variate()) > 0.0);
        // Pending resets; a second end_global_round changes nothing.
        let after_first = scaffold.server_variate();
        scaffold.end_global_round(&[]);
        assert_eq!(after_first, scaffold.server_variate());
    }

    #[test]
    fn uses_scaffold_secagg_cost_curve() {
        let s = Scaffold::new(4, 1);
        assert!(s
            .group_ops()
            .contains(&GroupOpKind::ScaffoldSecureAggregation));
        assert!(s.training_cost_factor() > 1.0);
    }

    #[test]
    fn empty_client_is_noop() {
        let data = SyntheticSpec::tiny().generate(10, 10);
        let model = gfl_nn::zoo::tiny(4, 3);
        let start = model.init_params(&mut init::rng(11));
        let scaffold = Scaffold::new(model.param_len(), 1);
        let mut p = start.clone();
        let mut scratch = LocalScratch::new(&model);
        let loss = scaffold.train(
            &task_for(&model, &data, &[], &start, 0),
            &mut p,
            &mut scratch,
            &mut init::rng(12),
        );
        assert_eq!(loss, 0.0);
        assert_eq!(p, start);
        assert!(lock(&scaffold.client_c)[0].is_none());
    }
}
