//! Parent-anchored digests of the softmax tails (ISSUE 24).
//!
//! The constants below were recorded by running this file on commit
//! `16d2f11`, the parent of the change that replaced libm's `expf` with
//! `ops::exp` and the per-row softmax loops of `Mlp::{loss_and_grad,
//! eval_chunk}` with the lane-per-row kernels. "Bit for bit" is therefore
//! a statement about what the parent computed — the loss and every
//! gradient bit of `loss_and_grad`, the loss and accuracy bits of
//! `Network::evaluate` — not about the change agreeing with itself, and
//! every SIMD tier has to reproduce it. The grid is the four zoo models ×
//! seeds {1, 5, 9} × row counts that leave every kind of block remainder
//! (600 also crosses two evaluation chunks), plus three hostile parameter
//! vectors per model: scaled ×10⁴ (logit spreads past `exp`'s underflow
//! bound), a NaN and an ∞ weight, and a −∞ output bias (a true
//! `exp(−∞) = 0` lane and the `1e-12` clamp).
//!
//! NaNs are hashed as one canonical value: GEMM NaN payloads are outside
//! the tier contract (`simd.rs` tests). A mismatch prints the freshly
//! computed table, so a change that *means* to move these bits can paste
//! it back; nothing re-records by itself.

use gfl_data::SyntheticSpec;
use gfl_nn::{zoo, Network};
use gfl_tensor::{init, simd, Matrix};

const SEEDS: [u64; 3] = [1, 5, 9];
const ROWS: [usize; 8] = [1, 15, 16, 17, 32, 33, 100, 600];
const MODELS: [&str; 4] = ["speech", "vision", "tiny", "speech_cnn"];
const HOSTILE: [&str; 3] = ["x1e4", "nan_inf", "neg_inf_bias"];
/// Rows of the hostile cases: full blocks and a remainder at either width.
const HOSTILE_ROWS: usize = 33;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(hash: &mut u64, x: f32) {
    let bits = if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() };
    for b in bits.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn model(name: &str) -> (Network, SyntheticSpec) {
    match name {
        "speech" => (zoo::speech_model(), SyntheticSpec::speech_like()),
        "vision" => (zoo::vision_model(), SyntheticSpec::vision_like()),
        "tiny" => (zoo::tiny(4, 3), SyntheticSpec::tiny()),
        "speech_cnn" => (zoo::speech_cnn(), SyntheticSpec::speech_like()),
        other => panic!("no model named {other}"),
    }
}

/// `(loss_and_grad digest, evaluate digest)` over the first `rows` samples.
fn digests(net: &Network, params: &[f32], x: &Matrix, labels: &[usize], rows: usize) -> (u64, u64) {
    let xb = Matrix::from_vec(rows, x.cols(), x.as_slice()[..rows * x.cols()].to_vec());
    let labels = &labels[..rows];
    let mut grad = vec![0.0; net.param_len()];
    let loss = net.loss_and_grad(params, &xb, labels, &mut grad, &mut net.workspace());
    let mut step = FNV_OFFSET;
    fnv1a(&mut step, loss);
    for &g in &grad {
        fnv1a(&mut step, g);
    }
    let eval = net.evaluate(params, &xb, labels);
    let mut tail = FNV_OFFSET;
    fnv1a(&mut tail, eval.loss);
    fnv1a(&mut tail, eval.accuracy);
    (step, tail)
}

fn params_of(net: &Network, seed: u64) -> Vec<f32> {
    let mut rng = init::rng(seed);
    let mut params = net.init_params(&mut rng);
    // Biases off zero, so no logit is an exact sum of products.
    for p in params.iter_mut().filter(|p| **p == 0.0) {
        *p = init::normal(&mut rng, 0.0, 0.1);
    }
    params
}

fn hostile(net: &Network, kind: &str, params: &mut [f32]) {
    let (len, classes) = (params.len(), net.num_classes());
    match kind {
        "x1e4" => params.iter_mut().for_each(|p| *p *= 1e4),
        "nan_inf" => {
            params[len - classes - 1] = f32::NAN;
            params[0] = f32::INFINITY;
        }
        "neg_inf_bias" => params[len - 1] = f32::NEG_INFINITY,
        other => panic!("no hostile case named {other}"),
    }
}

type Plain = (&'static str, u64, usize, u64, u64);
type Hostile = (&'static str, &'static str, u64, u64);

fn fresh_tables() -> (Vec<Plain>, Vec<Hostile>) {
    let (mut plain, mut bad) = (Vec::new(), Vec::new());
    for name in MODELS {
        let (net, spec) = model(name);
        for seed in SEEDS {
            let data = spec.generate(ROWS[ROWS.len() - 1], seed);
            let params = params_of(&net, seed);
            for rows in ROWS {
                let (step, tail) = digests(&net, &params, data.features(), data.labels(), rows);
                plain.push((name, seed, rows, step, tail));
            }
        }
        let data = spec.generate(HOSTILE_ROWS, 1);
        for kind in HOSTILE {
            let mut params = params_of(&net, 1);
            hostile(&net, kind, &mut params);
            let (step, tail) = digests(&net, &params, data.features(), data.labels(), HOSTILE_ROWS);
            bad.push((name, kind, step, tail));
        }
    }
    (plain, bad)
}

/// `(model, seed, rows, loss_and_grad digest, evaluate digest)` at the parent.
const PLAIN: &[Plain] = &[
    ("speech", 1, 1, 0xe1001010000052c5, 0x33fff21076d6195f),
    ("speech", 1, 15, 0x52504c430ee7d205, 0xbdeeeb6c0842e9bf),
    ("speech", 1, 16, 0x39beda622f941992, 0x6efc5976b6c63157),
    ("speech", 1, 17, 0xdb0351460e9ee7c2, 0x4cfac399089d1859),
    ("speech", 1, 32, 0xca5fe08a1b1225ea, 0x1cfb01e504189cad),
    ("speech", 1, 33, 0xd2b8d2019d219065, 0x13567be485c262e7),
    ("speech", 1, 100, 0xf83010eaad961691, 0x85f5c7c5eefe53d7),
    ("speech", 1, 600, 0xa3c5ba3e94d66656, 0xa2f46f4e60399fc0),
    ("speech", 5, 1, 0x5a5c77cf4774eb6e, 0x5cb32b999ca7745d),
    ("speech", 5, 15, 0x522115bfbca50cbc, 0xfc244fec7b2b2084),
    ("speech", 5, 16, 0xbebe4212291a3ea6, 0x431bdb294bed44ec),
    ("speech", 5, 17, 0x1a2e7fb3356b7803, 0x2406035160c04601),
    ("speech", 5, 32, 0xd543d88f3a9e9790, 0x538d36d8c636123d),
    ("speech", 5, 33, 0x31b7a865f13b569c, 0x2ef8498870dbcd64),
    ("speech", 5, 100, 0x80ea64bd29604585, 0x42e4e721368e7dbb),
    ("speech", 5, 600, 0x264e978b2de1e0fc, 0xa66bfdf35febba76),
    ("speech", 9, 1, 0x4ccb54acc21abe6e, 0xcb23fc34bc8b257d),
    ("speech", 9, 15, 0x1e45d937308687d8, 0x0872fa459d09941b),
    ("speech", 9, 16, 0xb5e501632b60a7ec, 0x93795766cb3d3055),
    ("speech", 9, 17, 0xaa5f7ae15b70dccb, 0x41ff87bdd970ff3d),
    ("speech", 9, 32, 0x61b24a0442ca3a59, 0xc644863e6e3f837a),
    ("speech", 9, 33, 0xe705ec76cf8f2a3e, 0x2a7fb0e946e7c30b),
    ("speech", 9, 100, 0x214836132e6c3946, 0xf8dd4225579239ca),
    ("speech", 9, 600, 0x1a5e01b23dc13148, 0xabc3ab2c4d61f91c),
    ("vision", 1, 1, 0x86ca66950a60c9ef, 0x5a5ae4acdfc87d13),
    ("vision", 1, 15, 0x9cf7dc4d992073ba, 0x0d56cbe535a3cee9),
    ("vision", 1, 16, 0x1a95631585937d99, 0x418a7f97201980d0),
    ("vision", 1, 17, 0x2308bab42a37d7a9, 0x4e06182ff3455b0e),
    ("vision", 1, 32, 0xb58744d832c199c2, 0x2a82b2f437842001),
    ("vision", 1, 33, 0x4e562ee258cc5893, 0xf39309aa7ffce6a5),
    ("vision", 1, 100, 0x1f51c0192f369b03, 0xc87142cf992f26a1),
    ("vision", 1, 600, 0x5e04b9eb1899f508, 0x74165ed3ac6bf585),
    ("vision", 5, 1, 0xd0f45e4e80dc0de5, 0x2a2db3d14bc9a406),
    ("vision", 5, 15, 0x9d2d6dce1b511c4a, 0xd1138315f8ee5dac),
    ("vision", 5, 16, 0xb741df7ebe5eeab9, 0x52b1588325a2002b),
    ("vision", 5, 17, 0x226eb4e705b9b960, 0xe6903e25c104470b),
    ("vision", 5, 32, 0xbdc6438128b8e2a1, 0x763ffc3bce68f2b0),
    ("vision", 5, 33, 0x749af787dc409588, 0x40b9b33bb68c68f3),
    ("vision", 5, 100, 0x2f90828c14faa032, 0xce2cb2f3cbea8462),
    ("vision", 5, 600, 0x83a0fe71da78de93, 0x4fafcc6cda139e4b),
    ("vision", 9, 1, 0x38151470d5e97e8e, 0xd2616109a002de08),
    ("vision", 9, 15, 0x3564c84ca6cac3a2, 0x4e2fe4b8e428859c),
    ("vision", 9, 16, 0x22460b6c08646269, 0x2b0abe5f309453eb),
    ("vision", 9, 17, 0x5fc8a3dc267d7b4a, 0x03f15f156b5c3c8c),
    ("vision", 9, 32, 0x0584099955f7125d, 0xdec7f46851601648),
    ("vision", 9, 33, 0x2ed9d8405701a231, 0x6f655f5d07847de7),
    ("vision", 9, 100, 0xe030a18c77bb5941, 0x7c05119fae67dd71),
    ("vision", 9, 600, 0x35307b221364327c, 0xfeb8de2a70ef3bba),
    ("tiny", 1, 1, 0x4d0d7e222b08013d, 0xfdaec022144146ae),
    ("tiny", 1, 15, 0xcb4901d3777bd60e, 0x84a53a8bc1c41307),
    ("tiny", 1, 16, 0x360263dc31f7b805, 0x255f734cbee4f839),
    ("tiny", 1, 17, 0xdab95413721d4005, 0xe3135bce5a915077),
    ("tiny", 1, 32, 0x5da374226e4d0175, 0xd353337a25b05052),
    ("tiny", 1, 33, 0xb54fcaad78a9beee, 0x65ba4be17d60482b),
    ("tiny", 1, 100, 0x490164a8d4c7fc52, 0x7aa39f04a28cd20b),
    ("tiny", 1, 600, 0x2024d290d747f6a7, 0x376f3a8a16f171fd),
    ("tiny", 5, 1, 0x04f039b115c35873, 0x593ed7e5dc0b26ab),
    ("tiny", 5, 15, 0x5bb1b97846b664b8, 0x4b6ec72c0b7290a5),
    ("tiny", 5, 16, 0x0e6b86fc796524eb, 0xd10c774f71a1bb73),
    ("tiny", 5, 17, 0x69d94a1c36f0fd09, 0xdc85eb4483458219),
    ("tiny", 5, 32, 0x85281677255ef7f7, 0xe509eb55da5f2e8d),
    ("tiny", 5, 33, 0x4154721aace2ac79, 0x4b51764612c7fa18),
    ("tiny", 5, 100, 0xcd25170b2a5391d9, 0x2a5f9ff2b4e1618f),
    ("tiny", 5, 600, 0xd9ea9a65cdd9bd78, 0xe8fbc4c7886d5a1e),
    ("tiny", 9, 1, 0xce334187b56cbe8e, 0x173cecbc061777c8),
    ("tiny", 9, 15, 0xa34b5ed23ba19032, 0x1243d77cb49a0524),
    ("tiny", 9, 16, 0x6d4694af2a4f9794, 0x7e84f919f014a605),
    ("tiny", 9, 17, 0xf72490b511d097b1, 0xfd933824321efa59),
    ("tiny", 9, 32, 0xd35dc5c2cee68522, 0x3b7052052132d0c8),
    ("tiny", 9, 33, 0x473c914b0a76fab6, 0xb756d177e626a98a),
    ("tiny", 9, 100, 0x1f9456c90372c071, 0xddf47d1e8e3aa7d0),
    ("tiny", 9, 600, 0xc82f481b7471fe80, 0xa93d6668feae8984),
    ("speech_cnn", 1, 1, 0x050da00ffe723ba1, 0x5a5cb641dde0c898),
    ("speech_cnn", 1, 15, 0x64d3f76fce803a32, 0x265dd04cce39f3f1),
    ("speech_cnn", 1, 16, 0x3a742e47d0e6e372, 0xdb32e431953f7454),
    ("speech_cnn", 1, 17, 0x4d0f466b010f3751, 0x4301251e261062f7),
    ("speech_cnn", 1, 32, 0xd5b97a10270cc023, 0x44b5c56fe0b38c18),
    ("speech_cnn", 1, 33, 0x1119dc369df29990, 0xcf714f4eae1628f3),
    ("speech_cnn", 1, 100, 0x9e126b667ede57bc, 0x3b2866b89075032f),
    ("speech_cnn", 1, 600, 0x9798a7a8e897e697, 0x7aa52b8f2ce4df78),
    ("speech_cnn", 5, 1, 0x42b939c0e602076a, 0x9a4d24299d6fed48),
    ("speech_cnn", 5, 15, 0x05ebd172fffe8391, 0x30bf3d89b24477cd),
    ("speech_cnn", 5, 16, 0xfd4c82a3ab11db50, 0xe53a42215e31848e),
    ("speech_cnn", 5, 17, 0x7bca299fe9641025, 0xb76bee5145cb92b9),
    ("speech_cnn", 5, 32, 0xaba96cb9ec8db24d, 0xbb8901507e41e89f),
    ("speech_cnn", 5, 33, 0x5b64574a64c2ace7, 0x62f093602e68d3a4),
    ("speech_cnn", 5, 100, 0xec6965404f80ef9e, 0x684bde23d5ea8728),
    ("speech_cnn", 5, 600, 0x8699a81bb04a43a3, 0xa33ecf83da30a3a4),
    ("speech_cnn", 9, 1, 0x80fe803f8d61dd76, 0xe4b959bcc7a6190a),
    ("speech_cnn", 9, 15, 0xb844e217f7aa226e, 0x37ca17e15353c7bb),
    ("speech_cnn", 9, 16, 0xf913fd10b7b419bd, 0x70c31fb9e7633338),
    ("speech_cnn", 9, 17, 0x8667979cecacac55, 0xcec7fd299f3e5829),
    ("speech_cnn", 9, 32, 0xdb887af06857aa69, 0xbd27bbcc46c3c316),
    ("speech_cnn", 9, 33, 0x541ac4558f71a74f, 0x642f43091511ccf5),
    ("speech_cnn", 9, 100, 0x4dbf53933ff3bb94, 0xb9243e70de9a1a1f),
    ("speech_cnn", 9, 600, 0x5d6a707a36a3af32, 0x0def62dcd97cdaac),
];

/// `(model, hostile case, loss_and_grad digest, evaluate digest)` at the
/// parent, seed 1, 33 rows.
const HOSTILE_DIGESTS: &[Hostile] = &[
    ("speech", "x1e4", 0x52aa52eeb2da4f04, 0xd92a9a28a5233bfc),
    ("speech", "nan_inf", 0x8f1f8b5f7b761533, 0x170dd903bed8872c),
    (
        "speech",
        "neg_inf_bias",
        0x7fcef4ec0c7c5c1a,
        0xb28c2d9de8a5b932,
    ),
    ("vision", "x1e4", 0xc9a66af2680af34f, 0xce52dcf966b632b3),
    ("vision", "nan_inf", 0x65d4da771bdd1bfa, 0xdbd3f188463b2fd5),
    (
        "vision",
        "neg_inf_bias",
        0x550b17b7f3295b95,
        0xde8cb85d2ad85694,
    ),
    ("tiny", "x1e4", 0x7863f4205ba49b4c, 0xc75694356f3794a2),
    ("tiny", "nan_inf", 0xe8098c40e30a6033, 0xea1c22383cc6c091),
    (
        "tiny",
        "neg_inf_bias",
        0xe2e4f7e428b1a55e,
        0x24f8492468540690,
    ),
    ("speech_cnn", "x1e4", 0x534ae5306edf2bc3, 0x1aede67eee6735ea),
    (
        "speech_cnn",
        "nan_inf",
        0xb46348ffb38c0c33,
        0x170dd903bed8872c,
    ),
    (
        "speech_cnn",
        "neg_inf_bias",
        0xdb6863382e787085,
        0x2dd1b89068a9dd46,
    ),
];

/// Every tier in turn, each set on this test's thread alone; a mismatch
/// prints that tier's fresh table.
#[test]
fn softmax_tails_are_the_parents_at_every_tier() {
    for tier in simd::supported_tiers() {
        let prev = simd::set_tier(tier);
        let (plain, bad) = fresh_tables();
        simd::set_tier(prev);
        let table: String = plain
            .iter()
            .map(|(m, s, r, a, b)| format!("    ({m:?}, {s}, {r}, {a:#018x}, {b:#018x}),\n"))
            .chain(
                bad.iter()
                    .map(|(m, k, a, b)| format!("    ({m:?}, {k:?}, {a:#018x}, {b:#018x}),\n")),
            )
            .collect();
        assert!(
            plain == PLAIN && bad == HOSTILE_DIGESTS,
            "tier {}: digests differ from the parent's; freshly computed:\n{table}",
            tier.name()
        );
    }
}
