//! The model zoo: architectures standing in for the paper's two tasks.
//!
//! §7.1 uses a 3-block ResNet for CIFAR-10 ("relatively heavy load tasks")
//! and a 5-layer CNN for Speech Commands ("lightweight tasks ... easy to
//! train on RPi"). We mirror the *relative* scale: the vision model has
//! several times the parameters and per-sample FLOPs of the speech models,
//! so cost-model ratios (training time vs group-operation time) stay
//! faithful. Two speech variants are provided: the default dense model
//! (fast, used by the figure reproductions) and a true 5-layer 1-D CNN
//! ([`speech_cnn`]) matching the paper's architecture class.

use crate::conv::Cnn1d;
use crate::mlp::Mlp;
use crate::network::Network;

/// Vision-task model (CIFAR-10 stand-in): 64-d input, two hidden layers,
/// 10 classes. This is the "heavy" model of the cost model.
pub fn vision_model() -> Network {
    Mlp::new(vec![64, 128, 64, 10]).into()
}

/// Speech-task model (Speech-Commands stand-in): 40-d input, one hidden
/// layer, 35 classes. This is the "light" model of the cost model.
pub fn speech_model() -> Network {
    Mlp::new(vec![40, 48, 35]).into()
}

/// The paper-faithful 5-layer CNN for the speech task:
/// Conv(1→8,k5) → pool → Conv(8→16,k3) → pool → FC(160→35).
pub fn speech_cnn() -> Network {
    Cnn1d::new(40, 8, 16, 5, 3, 35).into()
}

/// A deliberately tiny model for unit tests.
pub fn tiny(input_dim: usize, classes: usize) -> Network {
    Mlp::new(vec![input_dim, 8, classes]).into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vision_is_heavier_than_speech() {
        let v = vision_model().param_len();
        let s = speech_model().param_len();
        assert!(
            v as f64 / s as f64 > 3.0,
            "vision {v} should be several times speech {s}"
        );
    }

    #[test]
    fn shapes_match_tasks() {
        assert_eq!(vision_model().input_dim(), 64);
        assert_eq!(vision_model().num_classes(), 10);
        assert_eq!(speech_model().input_dim(), 40);
        assert_eq!(speech_model().num_classes(), 35);
        assert_eq!(speech_cnn().input_dim(), 40);
        assert_eq!(speech_cnn().num_classes(), 35);
    }

    #[test]
    fn speech_cnn_is_a_cnn() {
        assert!(matches!(speech_cnn(), Network::Cnn(_)));
        assert!(speech_cnn().param_len() > 0);
    }
}
