//! The client registry: per-client server-side state for populations far
//! larger than any round's cohort.
//!
//! Sub-FedAvg's server needs exactly one piece of per-client state between
//! rounds — the client's current mask (the pruning controller itself is
//! stateless configuration; see `UnstructuredController`). A registry
//! record is therefore 16 bytes of bookkeeping plus, *only once a client
//! has actually pruned*, one packed-mask slot in a compact arena. Clients
//! that have never been sampled (the overwhelming majority at 1M
//! registered / 10k sampled) carry an **implicit all-ones mask** — the
//! `u32::MAX` slot sentinel — and cost no arena bytes at all.
//!
//! The whole registry serializes to a flat byte image ([`ClientRegistry::save`] /
//! [`ClientRegistry::load`]), which travels inside a federation
//! [`Checkpoint`](crate::checkpoint::Checkpoint) so a long-lived federation
//! can be cold-loaded between processes. See `docs/SCALING.md` for the
//! memory model.

use subfed_metrics::comm::{mask_bytes, pack_mask, unpack_mask};
use subfed_nn::kept_count;

/// Slot sentinel: the client has never pruned, its mask is implicitly all
/// ones and owns no arena slot.
const NO_SLOT: u32 = u32::MAX;

/// Magic + version tag for the cold-load image format.
const MAGIC: [u8; 8] = *b"SFREG01\0";

/// What went wrong decoding a registry image.
///
/// Registry images cross process (and potentially machine) boundaries, so
/// [`ClientRegistry::load`] treats them as adversarial: every structural
/// problem maps to a variant here and none to a panic.
#[derive(Debug)]
pub enum RegistryError {
    /// The image does not start with the registry magic.
    BadMagic,
    /// The image is shorter than its fixed 32-byte header.
    TruncatedHeader {
        /// Bytes actually present.
        got: usize,
    },
    /// The header declares zero registered clients or a zero-length mask.
    Empty,
    /// Image length disagrees with the header's record and arena counts.
    SizeMismatch {
        /// Bytes actually present.
        got: usize,
        /// Bytes the header accounts for.
        expected: usize,
    },
    /// Arena length is not a whole number of packed-mask slots.
    RaggedArena,
    /// A client record points at an arena slot that does not exist.
    BadSlot {
        /// Offending client index.
        client: usize,
        /// Slot the record names.
        slot: u32,
        /// Slots the arena actually holds.
        slots: usize,
    },
    /// Header-declared lengths overflow the platform's address range.
    LengthOverflow,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad registry magic"),
            Self::TruncatedHeader { got } => {
                write!(f, "registry header needs 32 bytes, image has {got}")
            }
            Self::Empty => write!(f, "empty registry image"),
            Self::SizeMismatch { got, expected } => {
                write!(f, "registry image is {got} bytes, expected {expected}")
            }
            Self::RaggedArena => write!(f, "arena length is not a whole number of mask slots"),
            Self::BadSlot { client, slot, slots } => {
                write!(f, "client {client} points at slot {slot} of {slots}")
            }
            Self::LengthOverflow => {
                write!(f, "header-declared lengths overflow the platform's address range")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Per-client record (16 bytes; 16 MB per million clients).
#[derive(Debug, Clone, Copy)]
struct ClientRecord {
    /// Arena slot index, or [`NO_SLOT`] while the mask is implicitly ones.
    mask_slot: u32,
    /// Kept positions in the current mask (`mask_len` while implicit).
    kept: u32,
    /// Rounds this client has participated in.
    rounds: u32,
    /// Fraction of positions pruned so far (0.0 while implicit).
    pruned_fraction: f32,
}

/// Server-side state for every *registered* client, sized for millions.
#[derive(Debug, Clone)]
pub struct ClientRegistry {
    mask_len: usize,
    slot_bytes: usize,
    records: Vec<ClientRecord>,
    /// Packed-mask arena: `allocated_masks() * slot_bytes` bytes, grown
    /// only when a client first diverges from the all-ones mask.
    arena: Vec<u8>,
}

impl ClientRegistry {
    /// A registry of `registered` clients over a model with `mask_len`
    /// positions, all masks implicitly all-ones.
    ///
    /// # Panics
    ///
    /// Panics on an empty population, a zero-length model, or a model too
    /// large for the `u32` kept counter.
    pub fn new(registered: usize, mask_len: usize) -> Self {
        assert!(registered > 0, "registry needs at least one client");
        assert!(mask_len > 0, "registry needs a non-empty model");
        assert!(u32::try_from(mask_len).is_ok(), "model too large for registry counters");
        let record = ClientRecord {
            mask_slot: NO_SLOT,
            kept: mask_len as u32,
            rounds: 0,
            pruned_fraction: 0.0,
        };
        Self {
            mask_len,
            slot_bytes: mask_bytes(mask_len) as usize,
            records: vec![record; registered],
            arena: Vec::new(),
        }
    }

    /// Number of registered clients.
    pub fn registered(&self) -> usize {
        self.records.len()
    }

    /// Model positions each mask covers.
    pub fn mask_len(&self) -> usize {
        self.mask_len
    }

    /// Whether client `id` still carries the implicit all-ones mask.
    pub fn is_implicit(&self, id: usize) -> bool {
        self.records[id].mask_slot == NO_SLOT
    }

    /// The client's current flat 0/1 mask (allocating a fresh vector; the
    /// implicit case synthesizes all ones).
    pub fn mask_flat(&self, id: usize) -> Vec<f32> {
        let rec = &self.records[id];
        if rec.mask_slot == NO_SLOT {
            return vec![1.0; self.mask_len];
        }
        let start = rec.mask_slot as usize * self.slot_bytes;
        unpack_mask(&self.arena[start..start + self.slot_bytes], self.mask_len)
    }

    /// Stores a new mask for client `id`, packing it into the client's
    /// arena slot (allocated on first divergence from all-ones).
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the registry's model.
    pub fn set_mask(&mut self, id: usize, mask: &[f32]) {
        assert_eq!(mask.len(), self.mask_len, "mask length mismatch");
        let kept = kept_count(mask);
        self.set_mask_packed(id, &pack_mask(mask), kept);
    }

    /// Stores an already-packed mask (the scaled driver packs on the
    /// worker side, so the serial write-back is a memcpy).
    ///
    /// # Panics
    ///
    /// Panics if `packed` is not exactly one slot or `kept` exceeds the
    /// model.
    pub fn set_mask_packed(&mut self, id: usize, packed: &[u8], kept: usize) {
        assert_eq!(packed.len(), self.slot_bytes, "packed mask length mismatch");
        assert!(kept <= self.mask_len, "kept count exceeds model");
        let rec = &mut self.records[id];
        if rec.mask_slot == NO_SLOT {
            #[expect(
                clippy::expect_used,
                reason = "the slot count is bounded by the u32 population × masks"
            )]
            let slot = u32::try_from(self.arena.len() / self.slot_bytes)
                .expect("arena slot index overflow");
            rec.mask_slot = slot;
            self.arena.extend_from_slice(packed);
        } else {
            let start = rec.mask_slot as usize * self.slot_bytes;
            self.arena[start..start + self.slot_bytes].copy_from_slice(packed);
        }
        rec.kept = kept as u32;
        rec.pruned_fraction = 1.0 - kept as f32 / self.mask_len as f32;
    }

    /// Kept positions in the client's current mask.
    pub fn kept(&self, id: usize) -> usize {
        self.records[id].kept as usize
    }

    /// Fraction of positions the client has pruned away.
    pub fn pruned_fraction(&self, id: usize) -> f32 {
        self.records[id].pruned_fraction
    }

    /// Marks one round of participation for client `id`.
    pub fn note_participation(&mut self, id: usize) {
        self.records[id].rounds = self.records[id].rounds.saturating_add(1);
    }

    /// Rounds client `id` has participated in.
    pub fn rounds_participated(&self, id: usize) -> usize {
        self.records[id].rounds as usize
    }

    /// Clients holding an explicit (ever-pruned) mask slot.
    pub fn allocated_masks(&self) -> usize {
        self.arena.len() / self.slot_bytes.max(1)
    }

    /// Resident bytes: records plus the packed-mask arena. The invariant
    /// `docs/SCALING.md` documents: this grows with *ever-sampled* clients,
    /// not with the registered population times the model.
    pub fn memory_bytes(&self) -> usize {
        self.records.len() * std::mem::size_of::<ClientRecord>() + self.arena.len()
    }

    /// Serializes the registry to a flat byte image (cold-loadable with
    /// [`ClientRegistry::load`]).
    pub fn save(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40 + self.records.len() * 16 + self.arena.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.mask_len as u64).to_le_bytes());
        out.extend_from_slice(&(self.arena.len() as u64).to_le_bytes());
        for rec in &self.records {
            out.extend_from_slice(&rec.mask_slot.to_le_bytes());
            out.extend_from_slice(&rec.kept.to_le_bytes());
            out.extend_from_slice(&rec.rounds.to_le_bytes());
            out.extend_from_slice(&rec.pruned_fraction.to_le_bytes());
        }
        out.extend_from_slice(&self.arena);
        out
    }

    /// Restores a registry from a [`ClientRegistry::save`] image.
    ///
    /// Total by construction: the image is operator- or network-supplied,
    /// so every read is bounds-checked and every length computation uses
    /// checked arithmetic — a corrupt image yields a [`RegistryError`],
    /// never a panic or a wrapped allocation (certified — see
    /// `CERTIFIED.json`).
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found (bad magic, truncated
    /// image, inconsistent lengths, out-of-range slot references).
    #[must_use = "a failed load leaves no registry to run on"]
    pub fn load(bytes: &[u8]) -> Result<Self, RegistryError> {
        let header = |off: usize| {
            u64_at(bytes, off).ok_or(RegistryError::TruncatedHeader { got: bytes.len() })
        };
        if !bytes.starts_with(&MAGIC) {
            return Err(RegistryError::BadMagic);
        }
        let overflow = |_| RegistryError::LengthOverflow;
        let registered = usize::try_from(header(8)?).map_err(overflow)?;
        let mask_len = usize::try_from(header(16)?).map_err(overflow)?;
        let arena_len = usize::try_from(header(24)?).map_err(overflow)?;
        if registered == 0 || mask_len == 0 {
            return Err(RegistryError::Empty);
        }
        let records_bytes = registered.checked_mul(16).ok_or(RegistryError::LengthOverflow)?;
        let arena_start = records_bytes.checked_add(32).ok_or(RegistryError::LengthOverflow)?;
        let expected = arena_start.checked_add(arena_len).ok_or(RegistryError::LengthOverflow)?;
        if bytes.len() != expected {
            return Err(RegistryError::SizeMismatch { got: bytes.len(), expected });
        }
        let slot_bytes =
            usize::try_from(mask_bytes(mask_len)).map_err(|_| RegistryError::LengthOverflow)?;
        // `slot_bytes >= 1` for any `mask_len >= 1`; checked_div keeps the
        // division total without relying on that.
        let slots = arena_len.checked_div(slot_bytes).ok_or(RegistryError::RaggedArena)?;
        if !arena_len.is_multiple_of(slot_bytes) {
            return Err(RegistryError::RaggedArena);
        }
        // The exact-size check above bounds this allocation by the image
        // actually handed in: `registered * 16 + 32 == bytes.len() - arena_len`.
        let mut records = Vec::with_capacity(registered);
        let records_raw = bytes.get(32..arena_start).unwrap_or(&[]);
        for (i, rec) in records_raw.chunks_exact(16).enumerate() {
            let mask_slot = u32_le(rec, 0);
            if mask_slot != NO_SLOT && mask_slot as usize >= slots {
                return Err(RegistryError::BadSlot { client: i, slot: mask_slot, slots });
            }
            records.push(ClientRecord {
                mask_slot,
                kept: u32_le(rec, 4),
                rounds: u32_le(rec, 8),
                pruned_fraction: f32::from_bits(u32_le(rec, 12)),
            });
        }
        let arena = bytes.get(arena_start..).unwrap_or(&[]).to_vec();
        Ok(Self { mask_len, slot_bytes, records, arena })
    }
}

/// Little-endian `u64` at `off`, or `None` past the end — the panic-free
/// reader the loader is built from.
fn u64_at(bytes: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_le_bytes(*bytes.get(off..)?.first_chunk::<8>()?))
}

/// Little-endian `u32` at `off` inside one 16-byte record. The fallback
/// is unreachable for `chunks_exact(16)` callers; it exists so the
/// reader stays total instead of trusting the caller.
fn u32_le(rec: &[u8], off: usize) -> u32 {
    match rec.get(off..).and_then(|s| s.first_chunk::<4>()) {
        Some(c) => u32::from_le_bytes(*c),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_registry_is_implicit_all_ones() {
        let reg = ClientRegistry::new(1000, 37);
        assert_eq!(reg.registered(), 1000);
        assert!(reg.is_implicit(999));
        assert_eq!(reg.kept(0), 37);
        assert_eq!(reg.pruned_fraction(0), 0.0);
        assert_eq!(reg.mask_flat(500), vec![1.0; 37]);
        assert_eq!(reg.allocated_masks(), 0);
    }

    #[test]
    fn set_mask_roundtrips_and_allocates_once() {
        let mut reg = ClientRegistry::new(10, 9);
        let mask = vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0];
        reg.set_mask(3, &mask);
        assert!(!reg.is_implicit(3));
        assert_eq!(reg.mask_flat(3), mask);
        assert_eq!(reg.kept(3), 5);
        assert!((reg.pruned_fraction(3) - 4.0 / 9.0).abs() < 1e-6);
        assert_eq!(reg.allocated_masks(), 1);
        // Overwriting reuses the slot.
        let mask2 = vec![0.0; 9];
        reg.set_mask(3, &mask2);
        assert_eq!(reg.allocated_masks(), 1);
        assert_eq!(reg.mask_flat(3), mask2);
        assert_eq!(reg.kept(3), 0);
        // Other clients untouched.
        assert!(reg.is_implicit(4));
    }

    #[test]
    fn memory_stays_off_the_population_times_model_curve() {
        let mut reg = ClientRegistry::new(100_000, 10_000);
        reg.set_mask(7, &vec![1.0; 10_000]);
        // 100k × 16B records + one 1250-byte slot — nowhere near
        // 100k × 10k × 4B dense masks (4 GB).
        assert!(reg.memory_bytes() < 2 * 100_000 * 16);
    }

    #[test]
    fn participation_counter() {
        let mut reg = ClientRegistry::new(3, 4);
        reg.note_participation(1);
        reg.note_participation(1);
        assert_eq!(reg.rounds_participated(1), 2);
        assert_eq!(reg.rounds_participated(0), 0);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut reg = ClientRegistry::new(50, 17);
        let mask: Vec<f32> = (0..17).map(|i| if i % 3 == 0 { 0.0 } else { 1.0 }).collect();
        reg.set_mask(11, &mask);
        reg.set_mask(42, &[1.0; 17]);
        reg.note_participation(11);
        let img = reg.save();
        let back = ClientRegistry::load(&img).expect("roundtrip");
        assert_eq!(back.registered(), 50);
        assert_eq!(back.mask_len(), 17);
        assert_eq!(back.mask_flat(11), mask);
        assert_eq!(back.kept(42), 17);
        assert_eq!(back.rounds_participated(11), 1);
        assert!(back.is_implicit(0));
        assert_eq!(back.allocated_masks(), 2);
    }

    #[test]
    fn load_rejects_corruption_by_name() {
        let reg = ClientRegistry::new(4, 8);
        let mut img = reg.save();
        img[0] = b'X';
        assert!(ClientRegistry::load(&img).unwrap_err().to_string().contains("magic"));
        let img = reg.save();
        let short = ClientRegistry::load(&img[..img.len() - 1]).unwrap_err();
        assert!(short.to_string().contains("bytes"));
    }

    #[test]
    fn load_rejects_out_of_range_slot() {
        let mut reg = ClientRegistry::new(4, 8);
        reg.set_mask(2, &[1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0]);
        let mut img = reg.save();
        // Client 2's record starts at 32 + 2*16; point its slot far past
        // the single allocated arena slot.
        img[32 + 2 * 16] = 9;
        let err = ClientRegistry::load(&img).unwrap_err();
        assert!(matches!(err, RegistryError::BadSlot { client: 2, slot: 9, slots: 1 }), "{err}");
    }
}
