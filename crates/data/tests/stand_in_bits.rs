//! The stand-ins' bits are pinned: every split the generators and the
//! on-demand provider draw hashes to the values recorded when the splits
//! were still drawn eagerly, at construction. Drawing them on first read,
//! and stopping a shard before its test split, must change no bit.

use subfed_data::{ClientProvider, Dataset, SynthClientProvider, SynthProviderConfig, SynthVision};

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn image_hash(ds: &Dataset) -> u64 {
    fnv1a(ds.images().data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn label_hash(labels: &[usize]) -> u64 {
    fnv1a(labels.iter().flat_map(|&l| (l as u64).to_le_bytes()))
}

/// `(stand-in, scale, [train images, train labels, test images, test
/// labels])` at seed 7: MNIST, EMNIST, CIFAR-10 (`c10`) and CIFAR-100
/// with 20 classes (`c100`).
const SPLITS: [(&str, usize, [u64; 4]); 8] = [
    ("mnist", 1, [0xaaf88cce3ac652d6, 0x7f7f1c80a84ff965, 0x0177842198551f73, 0xef69e4f128efb585]),
    ("emnist", 1, [0x5f02f3b40415b360, 0x7f7f1c80a84ff965, 0x5e320c7e9e40abe0, 0xef69e4f128efb585]),
    ("c10", 1, [0x582b0070f1f7d1b3, 0x7f7f1c80a84ff965, 0xd1fb4849c1cb2eaa, 0xef69e4f128efb585]),
    ("c100", 1, [0xaebc037bb438afec, 0x0cd69ebfd4da44e5, 0xfad297673cb9e3bb, 0x8a6067a4ad894c25]),
    ("mnist", 2, [0x5278c570c1f99ea5, 0x648ee72fb64d2fa5, 0x9bbea01c995a4c67, 0xcd76232127ea5fe5]),
    ("emnist", 2, [0xe54f4f4249692164, 0x648ee72fb64d2fa5, 0x22b0d3318b70861d, 0xcd76232127ea5fe5]),
    ("c10", 2, [0xc536b0850a4054da, 0x648ee72fb64d2fa5, 0x3094b5d857e936dc, 0xcd76232127ea5fe5]),
    ("c100", 2, [0x02da38bddb2feeab, 0xf73f1ffeeeb3b6a5, 0x3f02d0f4d3a9fa00, 0x3ee908a150257525]),
];

/// `(client id, [labels, train images, val images, test images])` of the
/// MNIST provider built by [`provider`].
const MNIST_SHARDS: [(usize, [u64; 4]); 5] = [
    (0, [0xdc31b4d62d1c6dc1, 0xf5b46e7122a9e77c, 0x7241adecbe73db0a, 0x2b1bd16282f6e1f1]),
    (1, [0x5b33195d48575422, 0xdfd043a0204e281d, 0x64e6c0a7f0935e8a, 0x8f5d13237fa8c0fa]),
    (17, [0xbd36edcd222d23a0, 0x643e7a8c5178bc4f, 0x2fea35fdad75bd53, 0xe0c877da6bdebdbc]),
    (4242, [0x7717980363c8e066, 0x03118ce7e7525cc2, 0x1bf9075e60854278, 0xd5759a1fcfccf926]),
    (99_999, [0xa71ae6c26beeae86, 0x8d32fd565cd546ac, 0x950d9afea56c74a6, 0xdc17a5905ad409cf]),
];

/// The same for the CIFAR-10 provider.
const CIFAR10_SHARDS: [(usize, [u64; 4]); 5] = [
    (0, [0xdc31b4d62d1c6dc1, 0x1c79ae76a74ab38b, 0xe1d816903b1f6399, 0xe7edf02736c56a55]),
    (1, [0x5b33195d48575422, 0xf732852c490d489d, 0x049e7d3e6d2e73a9, 0xc14e4ba3b44e1a1d]),
    (17, [0xbd36edcd222d23a0, 0xddac58cd20a96b08, 0x8851925033426d9a, 0x3d0415048a25a17a]),
    (4242, [0x7717980363c8e066, 0xcc39e60eeeb1e79b, 0xad57a7e697603343, 0xd26a5826910c66b3]),
    (99_999, [0xa71ae6c26beeae86, 0x3357b7109be4bc75, 0x3204f6f455b31be4, 0x20278ed4d0b68dc6]),
];

fn stand_in(name: &str, scale: usize) -> SynthVision {
    match name {
        "mnist" => SynthVision::mnist_like(7, scale),
        "emnist" => SynthVision::emnist_like(7, scale),
        "c10" => SynthVision::cifar10_like(7, scale),
        _ => SynthVision::cifar100_like(7, scale, 20),
    }
}

/// The registry-scale provider shape `subfed run --num-clients` and the
/// round benchmark build over `synth`: 100,000 clients, 2 labels of 6/3/3
/// examples.
fn provider(synth: SynthVision) -> SynthClientProvider {
    let config = SynthProviderConfig {
        num_clients: 100_000,
        labels_per_client: 2,
        train_per_label: 6,
        val_per_label: 3,
        test_per_label: 3,
        seed: 7,
    };
    SynthClientProvider::new(synth, config)
}

#[test]
fn stand_in_splits_hash_to_the_eager_draws() {
    for (name, scale, want) in SPLITS {
        let s = stand_in(name, scale);
        let got = [
            image_hash(s.train()),
            label_hash(s.train().labels()),
            image_hash(s.test()),
            label_hash(s.test().labels()),
        ];
        assert_eq!(got, want, "{name} at scale {scale}");
    }
}

#[test]
fn test_split_read_first_draws_the_same_bits() {
    // The splits are drawn together, train first, whichever is read first.
    for (name, scale, want) in SPLITS {
        let s = stand_in(name, scale);
        assert_eq!(image_hash(s.test()), want[2], "{name} at scale {scale}");
        assert_eq!(image_hash(s.train()), want[0], "{name} at scale {scale}");
    }
}

#[test]
fn provider_shards_hash_to_the_eager_draws() {
    let providers = [
        ("mnist", provider(SynthVision::mnist_like(7, 1)), MNIST_SHARDS),
        ("c10", provider(SynthVision::cifar10_like(3, 1)), CIFAR10_SHARDS),
    ];
    for (name, p, shards) in providers {
        for (id, want) in shards {
            let c = p.client(id);
            let got = [
                label_hash(&c.labels),
                image_hash(&c.train),
                image_hash(&c.val),
                image_hash(&c.test),
            ];
            assert_eq!(got, want, "{name} client {id}");
            assert_eq!((c.train.len(), c.val.len(), c.test.len()), (12, 6, 6));
            let with = p.shard(id, true);
            assert_eq!(image_hash(with.test()), want[3], "{name} client {id} with its test split");
            // Without its test split: the same labels, train and val.
            let without = p.shard(id, false);
            let d = without.data();
            assert_eq!(
                [label_hash(&d.labels), image_hash(&d.train), image_hash(&d.val)],
                [want[0], want[1], want[2]],
                "{name} client {id} without its test split"
            );
            assert_eq!((d.train.labels(), d.val.labels()), (c.train.labels(), c.val.labels()));
            assert!(d.test.is_empty());
        }
    }
}
