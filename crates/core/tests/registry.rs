//! The client registry holds records only for the clients it has seen,
//! and behaves as a dense table of one record per registered client.
//! [`Dense`], that table, is the oracle. Random sequences of writes must
//! leave every read and the saved image equal to the oracle's. Every
//! truncation and single-bit flip of an image gets the oracle loader's
//! verdict: the same error, or a registry that saves the image back byte
//! for byte. The registry image and the encoded checkpoint of a small
//! registry run are pinned to the hashes recorded with the dense table.

use std::sync::Arc;

use proptest::prelude::*;
use subfed_core::presets::DatasetKind;
use subfed_core::{ClientRegistry, FedConfig, Federation, RegistryError, ScaledSubFedAvg};
use subfed_data::{SynthClientProvider, SynthProviderConfig, SynthVision};
use subfed_metrics::comm::{mask_bytes, pack_mask, unpack_mask};
use subfed_nn::kept_count;
use subfed_pruning::UnstructuredController;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `(round, FNV-1a and length of the registry image, FNV-1a and length of
/// the encoded checkpoint)` of the run below.
const PINS: [(usize, u64, usize, u64, usize); 2] = [
    (1, 0xbfa2d12727b32bc3, 15272, 0x8439b5b4af5a9e0c, 43138),
    (3, 0x9cc9dbb54e4ec6bd, 36152, 0x4b7c695ff2b27527, 64018),
];

/// 300 registered clients behind the on-demand provider, 15 sampled a
/// round, a fifth of them dropping out.
fn federation(threads: usize) -> Federation {
    let seed = 37;
    let provider = SynthClientProvider::new(
        SynthVision::mnist_like(seed, 1),
        SynthProviderConfig {
            num_clients: 300,
            labels_per_client: 2,
            train_per_label: 6,
            val_per_label: 3,
            test_per_label: 3,
            seed,
        },
    );
    let config = FedConfig {
        rounds: 3,
        sample_frac: 0.05,
        local_epochs: 2,
        eval_every: 2,
        seed,
        threads,
        dropout_prob: 0.2,
        ..Default::default()
    };
    Federation::from_provider(DatasetKind::Mnist.spec(), Arc::new(provider), config)
}

#[test]
fn registry_images_are_pinned() {
    let mut c = UnstructuredController::paper_defaults(0.6);
    c.acc_threshold = 0.0;
    c.rate = 0.2;
    for threads in [1, 3] {
        let mut driver = ScaledSubFedAvg::new(federation(threads), c);
        let mut got = Vec::new();
        for round in 1..=3 {
            driver.step_round();
            if round != 2 {
                let (reg, ckpt) = (driver.registry().save(), driver.checkpoint().encode());
                got.push((round, fnv1a(&reg), reg.len(), fnv1a(&ckpt), ckpt.len()));
            }
        }
        assert_eq!(got, PINS, "{threads} workers");
    }
}

const NO_SLOT: u32 = u32::MAX;

/// The registry as a dense table of one `[mask_slot, kept, rounds,
/// pruned_fraction bits]` record per registered client, with its loader.
#[derive(Debug)]
struct Dense {
    mask_len: usize,
    slot_bytes: usize,
    records: Vec<[u32; 4]>,
    arena: Vec<u8>,
}

impl Dense {
    fn new(registered: usize, mask_len: usize) -> Self {
        let implicit = [NO_SLOT, mask_len as u32, 0, 0.0f32.to_bits()];
        let slot_bytes = mask_bytes(mask_len) as usize;
        Self { mask_len, slot_bytes, records: vec![implicit; registered], arena: Vec::new() }
    }

    fn set_mask_packed(&mut self, id: usize, packed: &[u8], kept: usize) {
        let rec = &mut self.records[id];
        if rec[0] == NO_SLOT {
            rec[0] = (self.arena.len() / self.slot_bytes) as u32;
            self.arena.extend_from_slice(packed);
        } else {
            let start = rec[0] as usize * self.slot_bytes;
            self.arena[start..start + self.slot_bytes].copy_from_slice(packed);
        }
        rec[1] = kept as u32;
        rec[3] = (1.0 - kept as f32 / self.mask_len as f32).to_bits();
    }

    fn note_participation(&mut self, id: usize) {
        self.records[id][2] = self.records[id][2].saturating_add(1);
    }

    fn mask_flat(&self, id: usize) -> Vec<f32> {
        match self.records[id][0] {
            NO_SLOT => vec![1.0; self.mask_len],
            slot => {
                let start = slot as usize * self.slot_bytes;
                unpack_mask(&self.arena[start..start + self.slot_bytes], self.mask_len)
            }
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut out = b"SFREG01\0".to_vec();
        for n in [self.records.len(), self.mask_len, self.arena.len()] {
            out.extend_from_slice(&(n as u64).to_le_bytes());
        }
        for field in self.records.iter().flatten() {
            out.extend_from_slice(&field.to_le_bytes());
        }
        out.extend_from_slice(&self.arena);
        out
    }

    fn load(bytes: &[u8]) -> Result<Self, RegistryError> {
        if !bytes.starts_with(b"SFREG01\0") {
            return Err(RegistryError::BadMagic);
        }
        let header = |off: usize| match bytes[off.min(bytes.len())..].first_chunk::<8>() {
            Some(b) => Ok(u64::from_le_bytes(*b)),
            None => Err(RegistryError::TruncatedHeader { got: bytes.len() }),
        };
        let registered = usize::try_from(header(8)?).map_err(|_| RegistryError::LengthOverflow)?;
        let mask_len = usize::try_from(header(16)?).map_err(|_| RegistryError::LengthOverflow)?;
        let arena_len = usize::try_from(header(24)?).map_err(|_| RegistryError::LengthOverflow)?;
        if registered == 0 || mask_len == 0 {
            return Err(RegistryError::Empty);
        }
        let arena_start = registered
            .checked_mul(16)
            .and_then(|r| r.checked_add(32))
            .ok_or(RegistryError::LengthOverflow)?;
        let expected = arena_start.checked_add(arena_len).ok_or(RegistryError::LengthOverflow)?;
        if bytes.len() != expected {
            return Err(RegistryError::SizeMismatch { got: bytes.len(), expected });
        }
        let slot_bytes = mask_bytes(mask_len) as usize;
        if arena_len % slot_bytes != 0 {
            return Err(RegistryError::RaggedArena);
        }
        let slots = arena_len / slot_bytes;
        let mut records = Vec::new();
        for (client, raw) in bytes[32..arena_start].chunks_exact(16).enumerate() {
            let rec: [u32; 4] =
                std::array::from_fn(|i| u32::from_le_bytes(raw.as_chunks::<4>().0[i]));
            if rec[0] != NO_SLOT && rec[0] as usize >= slots {
                return Err(RegistryError::BadSlot { client, slot: rec[0], slots });
            }
            records.push(rec);
        }
        Ok(Self { mask_len, slot_bytes, records, arena: bytes[arena_start..].to_vec() })
    }
}

/// Asserts that every read of `reg` agrees with `dense`, and the images.
fn assert_same(reg: &ClientRegistry, dense: &Dense) {
    assert_eq!(reg.registered(), dense.records.len());
    assert_eq!(reg.mask_len(), dense.mask_len);
    assert_eq!(reg.allocated_masks(), dense.arena.len() / dense.slot_bytes);
    for (id, rec) in dense.records.iter().enumerate() {
        assert_eq!(reg.is_implicit(id), rec[0] == NO_SLOT, "client {id}");
        assert_eq!(reg.kept(id), rec[1] as usize, "client {id}");
        assert_eq!(reg.rounds_participated(id), rec[2] as usize, "client {id}");
        assert_eq!(reg.pruned_fraction(id).to_bits(), rec[3], "client {id}");
        assert_eq!(reg.mask_flat(id), dense.mask_flat(id), "client {id}");
    }
    assert_eq!(reg.save(), dense.save());
}

/// A mask of `len` entries from `seed`: all pruned, all kept, or about
/// half or a tenth kept.
fn mask(len: usize, seed: u64, kind: u8) -> Vec<f32> {
    let mut x = seed | 1;
    let mut kept = |per_mille: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        f32::from(u8::from(x % 1000 < per_mille))
    };
    (0..len).map(|_| [0.0, 1.0, kept(500), kept(100)][usize::from(kind)]).collect()
}

/// One write: `set_mask`, `set_mask_packed` (of arbitrary slot bytes and
/// kept count) or `note_participation`.
type Op = (u8, usize, u64, u8);

fn apply(reg: &mut ClientRegistry, dense: &mut Dense, (op, id, seed, kind): Op) {
    let (id, len) = (id % dense.records.len(), dense.mask_len);
    match op {
        0 => {
            let m = mask(len, seed, kind);
            reg.set_mask(id, &m);
            dense.set_mask_packed(id, &pack_mask(&m), kept_count(&m));
        }
        1 => {
            let packed: Vec<u8> =
                (0..dense.slot_bytes).map(|i| (seed >> (i % 8 * 8)) as u8).collect();
            let kept = seed as usize % (len + 1);
            reg.set_mask_packed(id, &packed, kept);
            dense.set_mask_packed(id, &packed, kept);
        }
        _ => {
            reg.note_participation(id);
            dense.note_participation(id);
        }
    }
}

/// The image of a registry after `ops`, with the records of the clients
/// in `forged` overwritten by `(slot, kept, rounds, pruned bits)` chosen
/// from `seed`: no slot but a kept count, rounds or pruned fraction off
/// the implicit one, or a valid slot.
fn forged_image(
    registered: usize,
    mask_len: usize,
    ops: &[Op],
    forged: &[(usize, u64)],
) -> Vec<u8> {
    let (mut reg, mut dense) =
        (ClientRegistry::new(registered, mask_len), Dense::new(registered, mask_len));
    for &op in ops {
        apply(&mut reg, &mut dense, op);
    }
    let slots = reg.allocated_masks() as u64;
    let mut img = reg.save();
    for &(id, seed) in forged {
        let id = id % registered;
        let slot =
            if slots > 0 && seed % 3 == 0 { (seed >> 8) % slots } else { u64::from(NO_SLOT) };
        let fields = match seed % 5 {
            0 => [slot as u32, (seed >> 16) as u32 % (mask_len as u32 + 1), 0, 0],
            1 => [slot as u32, mask_len as u32, (seed >> 16) as u32, 0],
            2 => [slot as u32, mask_len as u32, 0, (-0.0f32).to_bits()],
            3 => [slot as u32, mask_len as u32, 0, (seed >> 32) as u32],
            _ => [slot as u32, mask_len as u32, 0, 0],
        };
        for (i, field) in fields.iter().enumerate() {
            let at = 32 + 16 * id + 4 * i;
            img[at..at + 4].copy_from_slice(&field.to_le_bytes());
        }
    }
    img
}

/// The registry's verdict on an image equals the dense loader's, and an
/// accepted image saves back unchanged.
#[expect(clippy::panic, reason = "a test helper outside any #[test] function")]
fn assert_loads_as_dense(img: &[u8]) {
    match (ClientRegistry::load(img), Dense::load(img)) {
        (Ok(reg), Ok(dense)) => {
            assert_same(&reg, &dense);
            assert_eq!(reg.save(), img);
        }
        (Err(got), Err(want)) => assert_eq!(format!("{got:?}"), format!("{want:?}")),
        (got, want) => panic!("registry {:?}, dense {:?}", got.map(|_| ()), want.map(|_| ())),
    }
}

fn ops(clients: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..3, 0..clients, 0u64..u64::MAX, 0u8..4), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every read and the image agree with the dense table after every
    /// write.
    fn writes_match_the_dense_table(
        registered in 1usize..=300,
        mask_len in 1usize..=130,
        ops in ops(300),
    ) {
        let mut reg = ClientRegistry::new(registered, mask_len);
        let mut dense = Dense::new(registered, mask_len);
        assert_same(&reg, &dense);
        for op in ops {
            apply(&mut reg, &mut dense, op);
            assert_same(&reg, &dense);
        }
    }

    /// Images with forged records, slotless ones off the implicit record
    /// among them, load as the dense loader loads them and save back
    /// byte for byte.
    fn accepted_images_save_back_unchanged(
        registered in 1usize..=60,
        mask_len in 1usize..=70,
        ops in ops(60),
        forged in prop::collection::vec((0usize..60, 0u64..u64::MAX), 0..12),
    ) {
        let img = forged_image(registered, mask_len, &ops, &forged);
        assert!(ClientRegistry::load(&img).is_ok());
        assert_loads_as_dense(&img);
    }
}

/// Every truncation and every single-bit flip of a registry image with
/// slotted, slotless-but-seen and implicit records gets the dense
/// loader's verdict: the same error, or an image that saves back.
#[test]
fn truncated_and_flipped_images_get_the_dense_verdict() {
    let ops: Vec<Op> =
        (0..24).map(|i| (i as u8 % 3, 7 * i, 0x9e37_79b9 * i as u64, i as u8 % 4)).collect();
    let img = forged_image(20, 37, &ops, &[(2, 5), (4, 6), (9, 7), (13, 8)]);
    for len in 0..img.len() {
        assert_loads_as_dense(&img[..len]);
    }
    for at in 0..img.len() {
        for bit in 0..8 {
            let mut flipped = img.clone();
            flipped[at] ^= 1 << bit;
            assert_loads_as_dense(&flipped);
        }
    }
}
