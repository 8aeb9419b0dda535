//! Pins the trainer's epoch checkpoint digests to the values produced by
//! the original reference kernels.
//!
//! RPoL's commitment protocol hashes the exact `f32` bytes of model
//! checkpoints, so the GEMM/im2col lowering in `rpol-tensor::gemm` and
//! `rpol-nn` is only admissible if it is *bitwise* invisible to training.
//! These digests were recorded from the pre-lowering loop nests; any
//! change to reduction order anywhere in the math stack fails this test.
//! Also exercised with multiple GEMM thread counts, since a checkpoint
//! digest must not depend on the host's parallelism.

use rpol_repro::crypto::sha256::sha256_f32;
use rpol_repro::crypto::Address;
use rpol_repro::nn::data::SyntheticImages;
use rpol_repro::rpol::tasks::{ModelArch, TaskConfig};
use rpol_repro::rpol::trainer::LocalTrainer;
use rpol_repro::sim::gpu::{GpuModel, NoiseInjector};
use rpol_repro::tensor::gemm::set_default_threads;
use rpol_repro::tensor::rng::Pcg32;

/// Digests recorded from the seed kernels (naive matmul, direct conv).
const RESNET_DIGESTS: [&str; 4] = [
    "6123028feb8a892d2af32e631bd17c733de285604e22436f6d77ea3111e59ab0",
    "89ab40a05dabb45bd4821c79a93bc9be78ff114050575260ba6d786bdbe5f32f",
    "a1d567a1e47e23d5f04c1a013c888f8c6029b6f8aa456dc060617ab6d6b35a0e",
    "84348c4a61dca9f2e2982a38098cc8da393b275cf734e621b24a8e8c402ebce1",
];
const VGG_DIGESTS: [&str; 4] = [
    "6dda9b55a8a904b6850c9fb4fb66b8dad0a7dcc89572dd0b204c8450c9be2038",
    "757b2f20363f9905b69da42d061a540eb655d9ff6f202584d470b8199e376dbb",
    "887c8de393fb0023b079f742192abf3350728aaf4436181eab8550960c06493e",
    "c6d37a3332dcc3ba3a12a2eee627245013c1faeeb7b9f029431a5a52fa0d3244",
];

/// Digests of the address-encoded model (AMLayer prefix + MiniResNet18),
/// the model every pool worker trains and every verifier replays:
/// `run_epoch` checkpoints, `run_epoch_quantized` checkpoints, then one
/// `replay_segment` of segment 1 on a different GPU's noise stream.
/// Recorded with a backward pass through every layer, the frozen AMLayer
/// included.
const ENCODED_DIGESTS: [&str; 8] = [
    "6563f0381e8adac52edd699d19dbe212fe7d7a78c6690bee4e6c6e28bab67f50",
    "4eea50aeecb984fd473f3615fbf5921854be89ad3f01bf304a8c1f7471d93e3b",
    "9262d736ded305f2fd0fa6ec379309c308e87ed5dfc592cafe46757baa11e8f1",
    "cd20724ed3352c02541770fc8c00deecd3c2fa36ffbaa4d1878264ffb0280916",
    "e955b7c3f689223bd198398351e78641507e260d3a6566dfaa7d0567b7d5a103",
    "f73b815fbd9dcb97866e99164d4cf8f4d6c3e9a6689dba7689c2aa6d6a5d1b63",
    "1b8a65aa21ae2a5c4d5e26d586bdd0e38cf55e1ef199130cb8822c34feb9e3e2",
    "d62db4becb9bde044d23c877754140681b9b7e19f60cb1525a6af1eebffa5748",
];

fn hex(weights: &[f32]) -> String {
    sha256_f32(weights).to_hex()
}

fn encoded_digests() -> Vec<String> {
    let cfg = TaskConfig::tiny();
    let addr = Address::from_seed(11);
    let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
    let mut digests = Vec::new();

    let mut model = cfg.build_encoded_model(&addr);
    let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 5));
    let trace = trainer.run_epoch(&mut model, 7, 6);
    digests.extend(trace.checkpoints.iter().map(|c| hex(c)));

    let mut model = cfg.build_encoded_model(&addr);
    let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 5));
    let quantized = trainer.run_epoch_quantized(&mut model, 7, 4);
    digests.extend(quantized.checkpoints.iter().map(|c| hex(c)));

    let mut model = cfg.build_encoded_model(&addr);
    let mut verifier = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::G3090, 9));
    let replayed = verifier.replay_segment(&mut model, &trace.checkpoints[1], 7, trace.segments[1]);
    digests.push(hex(&replayed));
    digests
}

fn epoch_digests(arch: ModelArch) -> Vec<String> {
    let mut cfg = TaskConfig::tiny();
    cfg.arch = arch;
    let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
    let mut model = cfg.build_model();
    let mut trainer = LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 5));
    let trace = trainer.run_epoch(&mut model, 7, 6);
    trace
        .checkpoints
        .iter()
        .map(|c| sha256_f32(c).to_hex())
        .collect()
}

#[test]
fn resnet_epoch_digests_match_seed_kernels() {
    for threads in [1, 4] {
        set_default_threads(threads);
        assert_eq!(
            epoch_digests(ModelArch::MiniResNet18),
            RESNET_DIGESTS,
            "with {threads} GEMM threads"
        );
    }
    set_default_threads(1);
}

#[test]
fn vgg_epoch_digests_match_seed_kernels() {
    assert_eq!(epoch_digests(ModelArch::MiniVgg16), VGG_DIGESTS);
}

#[test]
fn encoded_model_digests_match_full_backward() {
    for threads in [1, 4] {
        set_default_threads(threads);
        assert_eq!(
            encoded_digests(),
            ENCODED_DIGESTS,
            "with {threads} GEMM threads"
        );
    }
    set_default_threads(1);
}
