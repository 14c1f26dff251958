//! [`Network`] — the unified model type the federated stack trains.
//!
//! The paper evaluates two architectures (a small ResNet and a 5-layer
//! CNN). Rather than making every engine type generic over the model, the
//! workspace-owning call sites dispatch over this small enum: both
//! variants expose identical flat-parameter semantics, so aggregation,
//! SecAgg masking, SCAFFOLD variates, and defenses are oblivious to which
//! architecture is inside.

use gfl_parallel::Pool;
use gfl_tensor::{Matrix, Scalar};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::conv::{Cnn1d, CnnWorkspace};
use crate::mlp::{EvalResult, Mlp, Workspace as MlpWorkspace};
use crate::Params;

/// A trainable model: fully-connected or 1-D convolutional.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Network {
    Mlp(Mlp),
    Cnn(Cnn1d),
}

/// Per-thread buffers matching the [`Network`] variant.
#[derive(Debug)]
pub enum NetworkWorkspace {
    Mlp(MlpWorkspace),
    // Boxed: the CNN workspace is an order of magnitude larger than the
    // MLP one and would otherwise bloat every enum instance.
    Cnn(Box<CnnWorkspace>),
}

impl From<Mlp> for Network {
    fn from(m: Mlp) -> Self {
        Network::Mlp(m)
    }
}

impl From<Cnn1d> for Network {
    fn from(c: Cnn1d) -> Self {
        Network::Cnn(c)
    }
}

impl Network {
    pub fn input_dim(&self) -> usize {
        match self {
            Network::Mlp(m) => m.input_dim(),
            Network::Cnn(c) => c.input_dim(),
        }
    }

    pub fn num_classes(&self) -> usize {
        match self {
            Network::Mlp(m) => m.num_classes(),
            Network::Cnn(c) => c.num_classes(),
        }
    }

    pub fn param_len(&self) -> usize {
        match self {
            Network::Mlp(m) => m.param_len(),
            Network::Cnn(c) => c.param_len(),
        }
    }

    pub fn init_params(&self, rng: &mut impl Rng) -> Params {
        match self {
            Network::Mlp(m) => m.init_params(rng),
            Network::Cnn(c) => c.init_params(rng),
        }
    }

    pub fn workspace(&self) -> NetworkWorkspace {
        match self {
            Network::Mlp(m) => NetworkWorkspace::Mlp(m.workspace()),
            Network::Cnn(c) => NetworkWorkspace::Cnn(Box::new(c.workspace())),
        }
    }

    /// Mean batch loss; gradient overwritten into `grad`.
    ///
    /// # Panics
    /// Panics if `ws` came from the other variant.
    pub fn loss_and_grad(
        &self,
        params: &[Scalar],
        features: &Matrix,
        labels: &[usize],
        grad: &mut [Scalar],
        ws: &mut NetworkWorkspace,
    ) -> Scalar {
        match (self, ws) {
            (Network::Mlp(m), NetworkWorkspace::Mlp(w)) => {
                m.loss_and_grad(params, features, labels, grad, w)
            }
            (Network::Cnn(c), NetworkWorkspace::Cnn(w)) => {
                c.loss_and_grad(params, features, labels, grad, w)
            }
            _ => panic!("workspace does not match network variant"),
        }
    }

    /// Mean loss and accuracy over a labeled set:
    /// [`Network::evaluate_pooled`] over scratch of its own.
    pub fn evaluate(&self, params: &[Scalar], features: &Matrix, labels: &[usize]) -> EvalResult {
        self.evaluate_pooled(params, features, labels, &Pool::default())
    }

    /// Mean loss and accuracy over a labeled set, with workspaces checked
    /// out of `pool` instead of allocated per call — the steady-state path
    /// for the trainer's per-round evaluation. Parallelized over fixed-size
    /// row chunks via `gfl-parallel`; each worker reuses one workspace (and,
    /// for the MLP, one packed image of the weights) across all the chunks
    /// it processes.
    ///
    /// Chunk boundaries and the reduction order are independent of the
    /// thread count (chunks are [`crate::EVAL_CHUNK`] rows and partial
    /// losses are folded in chunk order), so the f32 result is bit-identical
    /// for any parallelism degree.
    pub fn evaluate_pooled(
        &self,
        params: &[Scalar],
        features: &Matrix,
        labels: &[usize],
        pool: &Pool<NetworkWorkspace>,
    ) -> EvalResult {
        assert_eq!(features.rows(), labels.len());
        let n = labels.len();
        if n == 0 {
            return EvalResult {
                loss: 0.0,
                accuracy: 0.0,
                examples: 0,
            };
        }
        // Each chunk's row range, and its partial (loss, correct) filled in
        // place.
        let mut chunks: Vec<((usize, usize), (Scalar, usize))> = (0..n)
            .step_by(crate::EVAL_CHUNK)
            .map(|s| ((s, (s + crate::EVAL_CHUNK).min(n)), (0.0, 0)))
            .collect();
        gfl_parallel::par_for_each_init(
            &mut chunks,
            || {
                let mut ws = pool.checkout(|| self.workspace());
                if let (Network::Mlp(m), NetworkWorkspace::Mlp(w)) = (self, &mut *ws) {
                    m.pack_weights(params, w);
                }
                ws
            },
            |ws, _, (range, partial)| {
                *partial = match (self, &mut **ws) {
                    (Network::Mlp(m), NetworkWorkspace::Mlp(w)) => {
                        m.eval_chunk(params, features, labels, *range, w)
                    }
                    (Network::Cnn(c), NetworkWorkspace::Cnn(w)) => {
                        c.eval_chunk(params, features, labels, *range, w)
                    }
                    _ => panic!("eval pool does not match network variant"),
                }
            },
        );
        let (loss_sum, correct) = chunks
            .iter()
            .fold((0.0f32, 0usize), |(l, c), &(_, (pl, pc))| (l + pl, c + pc));
        EvalResult {
            loss: loss_sum / n as Scalar,
            accuracy: correct as Scalar / n as Scalar,
            examples: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfl_tensor::init::rng;

    #[test]
    fn mlp_variant_delegates() {
        let net: Network = Mlp::new(vec![4, 8, 3]).into();
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.num_classes(), 3);
        let p = net.init_params(&mut rng(1));
        assert_eq!(p.len(), net.param_len());
        let mut ws = net.workspace();
        let features = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.1);
        let mut grad = vec![0.0; net.param_len()];
        let loss = net.loss_and_grad(&p, &features, &[0, 1], &mut grad, &mut ws);
        assert!(loss.is_finite());
        assert_eq!(net.evaluate(&p, &features, &[0, 1]).examples, 2);
    }

    #[test]
    fn cnn_variant_delegates() {
        let net: Network = Cnn1d::new(8, 2, 2, 3, 3, 3).into();
        assert_eq!(net.input_dim(), 8);
        let p = net.init_params(&mut rng(2));
        let mut ws = net.workspace();
        let features = Matrix::from_fn(2, 8, |r, c| (r * 8 + c) as f32 * 0.05);
        let mut grad = vec![0.0; net.param_len()];
        let loss = net.loss_and_grad(&p, &features, &[0, 2], &mut grad, &mut ws);
        assert!(loss.is_finite());
        let eval = net.evaluate(&p, &features, &[0, 2]);
        assert_eq!(eval.examples, 2);
    }

    #[test]
    fn pooled_evaluate_matches_unpooled_bitwise() {
        for net in [
            Network::from(Mlp::new(vec![6, 10, 4])),
            Network::from(Cnn1d::new(8, 2, 2, 3, 3, 4)),
        ] {
            let p = net.init_params(&mut rng(7));
            let rows = 300; // several EVAL_CHUNK-sized chunks worth
            let dim = net.input_dim();
            let features = Matrix::from_fn(rows, dim, |r, c| ((r * dim + c) % 17) as f32 * 0.1);
            let labels: Vec<usize> = (0..rows).map(|i| i % net.num_classes()).collect();
            let want = net.evaluate(&p, &features, &labels);
            let pool = Pool::default();
            // Twice through the pool: first seeds the scratch, second reuses it.
            for pass in 0..2 {
                let got = net.evaluate_pooled(&p, &features, &labels, &pool);
                assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "pass {pass}");
                assert_eq!(
                    got.accuracy.to_bits(),
                    want.accuracy.to_bits(),
                    "pass {pass}"
                );
                assert_eq!(got.examples, want.examples, "pass {pass}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "workspace does not match")]
    fn mismatched_workspace_panics() {
        let mlp: Network = Mlp::new(vec![4, 3]).into();
        let cnn: Network = Cnn1d::new(8, 2, 2, 3, 3, 3).into();
        let p = mlp.init_params(&mut rng(3));
        let mut ws = cnn.workspace();
        let features = Matrix::zeros(1, 4);
        let mut grad = vec![0.0; mlp.param_len()];
        mlp.loss_and_grad(&p, &features, &[0], &mut grad, &mut ws);
    }
}
