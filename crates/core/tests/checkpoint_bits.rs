//! The resident checkpoint bytes are pinned: the encoded checkpoints of a
//! Un and a Hy run after rounds 1, 3 and 6 hash to the values recorded
//! when the resident store still held every client as an `f32` mask and a
//! dense model. Holding each client as its checkpoint record must change
//! no byte. Half the clients train each round and some drop out, so the
//! early images hold clients that have never trained.

use subfed_core::algorithms::{SubFedAvgHy, SubFedAvgOptions, SubFedAvgUn};
use subfed_core::{FedConfig, Federation};
use subfed_data::{partition_pathological, PartitionConfig, SynthConfig, SynthVision};
use subfed_nn::models::ModelSpec;
use subfed_pruning::{HybridController, UnstructuredController};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The rounds after which the checkpoint is hashed.
const ROUNDS: [usize; 3] = [1, 3, 6];

/// `(round, FNV-1a of the encoded checkpoint, its length)` of the Un run.
const UN: [(usize, u64, usize); 3] = [
    (1, 0xaf213759a0136b39, 236246),
    (3, 0xfaead07cfe5bbc5a, 201862),
    (6, 0xcedfc39a9e3b4555, 167565),
];

/// The same for a Un run under the `fresh_masks` ablation, whose every
/// client restarts from the all-ones mask each round but keeps its model.
const UN_FRESH: [(usize, u64, usize); 3] = [
    (1, 0xaf213759a0136b39, 236246),
    (3, 0xcb9cd10f97bee92d, 226250),
    (6, 0xcd2c73b09d21f92b, 231248),
];

/// The same for the Hy run.
const HY: [(usize, u64, usize); 3] = [
    (1, 0x278560273452a02c, 237645),
    (3, 0x107467573513aa28, 184585),
    (6, 0x7d3186dc01ffc3b6, 137262),
];

fn federation(threads: usize) -> Federation {
    let data = SynthVision::generate(SynthConfig {
        channels: 1,
        height: 16,
        width: 16,
        classes: 4,
        train_per_class: 48,
        test_per_class: 6,
        noise_std: 0.1,
        shift: 1,
        grid: 4,
        seed: 31,
    });
    let clients = partition_pathological(
        data.train(),
        data.test(),
        &PartitionConfig {
            num_clients: 8,
            shard_size: 12,
            shards_per_client: 2,
            val_fraction: 0.2,
            seed: 31,
        },
    );
    let config = FedConfig {
        rounds: 6,
        sample_frac: 0.5,
        local_epochs: 2,
        eval_every: 2,
        seed: 31,
        threads,
        dropout_prob: 0.2,
        ..Default::default()
    };
    Federation::new(ModelSpec::cnn5(1, 16, 16, 4), clients, config)
}

/// Steps a driver through round 6, hashing its encoded checkpoint after
/// each round of [`ROUNDS`].
fn pins(mut step: impl FnMut() -> Vec<u8>) -> Vec<(usize, u64, usize)> {
    let mut out = Vec::new();
    for round in 1..=6 {
        let image = step();
        if ROUNDS.contains(&round) {
            out.push((round, fnv1a(&image), image.len()));
        }
    }
    out
}

#[test]
fn un_checkpoint_bytes_are_pinned() {
    let mut c = UnstructuredController::paper_defaults(0.6);
    c.acc_threshold = 0.0;
    c.rate = 0.2;
    for threads in [1, 3] {
        let mut algo = SubFedAvgUn::with_controller(federation(threads), c);
        let got = pins(|| {
            algo.step_round();
            algo.checkpoint().encode()
        });
        assert_eq!(got, UN, "{threads} workers");
    }
}

#[test]
fn fresh_masks_checkpoint_bytes_are_pinned() {
    let mut c = UnstructuredController::paper_defaults(0.6);
    c.acc_threshold = 0.0;
    c.rate = 0.2;
    let options = SubFedAvgOptions { fresh_masks: true, ..Default::default() };
    let mut algo = SubFedAvgUn::with_controller(federation(2), c).with_options(options);
    let got = pins(|| {
        algo.step_round();
        algo.checkpoint().encode()
    });
    assert_eq!(got, UN_FRESH);
}

#[test]
fn hy_checkpoint_bytes_are_pinned() {
    let mut c = HybridController::paper_defaults(0.4, 0.6);
    c.acc_threshold = 0.0;
    c.structured_rate = 0.2;
    c.unstructured.rate = 0.2;
    for threads in [1, 3] {
        let mut algo = SubFedAvgHy::with_controller(federation(threads), c);
        let got = pins(|| {
            algo.step_round();
            algo.checkpoint().encode()
        });
        assert_eq!(got, HY, "{threads} workers");
    }
}
