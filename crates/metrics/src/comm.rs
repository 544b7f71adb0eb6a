//! The paper's communication-cost model (§4.2.2):
//!
//! > `Cost = R × B × |W| × 2`, where R is the number of communication
//! > rounds, B the number of bits (32 for floats, 1 for mask integers),
//! > |W| the parameters exchanged per client per round — times the number
//! > of participating clients.
//!
//! Dense baselines pay `32 bits × |W|` in both directions. Sub-FedAvg
//! clients exchange only their kept parameters (`32 bits × |kept|` each
//! way) plus, in rounds where the mask changed, the new binary mask
//! (`1 bit × |W|`, packed).

/// Bytes for one dense model transfer (one direction).
pub fn dense_transfer_bytes(num_params: usize) -> u64 {
    num_params as u64 * 4
}

/// Bytes for one masked model transfer (one direction): only kept
/// parameters travel.
pub fn masked_transfer_bytes(kept_params: usize) -> u64 {
    kept_params as u64 * 4
}

/// Bytes for transmitting a binary mask over `num_params` entries,
/// bit-packed (the paper's "1 bit for integers 0 and 1").
pub fn mask_bytes(num_params: usize) -> u64 {
    (num_params as u64).div_ceil(8)
}

/// Packs a 0/1 mask slice into bytes — the actual wire encoding backing
/// [`mask_bytes`], used to prove the accounting honest. Bit `i % 8` of
/// byte `i / 8` is set when entry `i` is kept ([`subfed_nn::is_kept`]);
/// the padding bits of the last byte are clear. Packs 64 entries into one
/// machine word at a time.
pub fn pack_mask(mask: &[f32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(mask.len().div_ceil(8));
    for entries in mask.chunks(64) {
        let bits = entries
            .iter()
            .enumerate()
            .fold(0u64, |bits, (j, &m)| bits | u64::from(subfed_nn::is_kept(m)) << j);
        buf.extend(bits.to_le_bytes().into_iter().take(entries.len().div_ceil(8)));
    }
    buf
}

/// Unpacks a bit-packed mask back into 0/1 floats, one machine word of
/// bits at a time. Positions beyond the packed bytes read as pruned
/// (0.0), so a short buffer cannot panic the decode path — the caller's
/// length checks decide whether that is an error.
pub fn unpack_mask(bytes: &[u8], len: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; len];
    // Whole 64-entry words from whole 8-byte words of bits, then the rest.
    let (words, _) = out.as_chunks_mut::<64>();
    let whole = words.len().min(bytes.len() / 8);
    for (entries, word) in words.iter_mut().zip(bytes.as_chunks::<8>().0) {
        unpack_word(u64::from_le_bytes(*word), entries);
    }
    let tail = out.get_mut(64 * whole..).unwrap_or_default();
    let rest = bytes.get(8 * whole..).unwrap_or_default();
    for (entries, word) in tail.chunks_mut(64).zip(rest.chunks(8)) {
        let mut le = [0u8; 8];
        le.iter_mut().zip(word).for_each(|(to, &from)| *to = from);
        unpack_word(u64::from_le_bytes(le), entries);
    }
    out
}

/// Sets entry `j` of `entries` (at most 64) to bit `j` of `bits`.
#[inline]
fn unpack_word(bits: u64, entries: &mut [f32]) {
    for (j, v) in entries.iter_mut().enumerate() {
        *v = if bits & (1 << j) != 0 { 1.0 } else { 0.0 };
    }
}

/// Total cost of a dense-FedAvg-style run: `R` rounds, `clients_per_round`
/// participants, a full model each way — the formula the paper uses for
/// every dense baseline.
pub fn dense_run_bytes(rounds: u64, clients_per_round: u64, num_params: usize) -> u64 {
    rounds * clients_per_round * dense_transfer_bytes(num_params) * 2
}

/// Total cost of a federated-MTL-style run: each participant uploads its
/// model and downloads every sampled peer's model (the all-pairs exchange
/// that makes MTL the most expensive baseline in Table 1).
pub fn mtl_run_bytes(rounds: u64, clients_per_round: u64, num_params: usize) -> u64 {
    let per_client = dense_transfer_bytes(num_params) * (1 + clients_per_round);
    rounds * clients_per_round * per_client
}

/// Human-readable byte formatting matching the paper's table units
/// (decimal MB/GB).
pub fn human_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2} KB", b / 1e3)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fedavg_cifar10_cost_is_2_48_gb() {
        // Table 1: FedAvg on CIFAR-10 = 2.48 GB. The paper's accounting:
        // 500 rounds x 10 clients x 62000 params x 4 bytes x 2 directions.
        let cost = dense_run_bytes(500, 10, 62_000);
        assert_eq!(cost, 2_480_000_000);
        assert_eq!(human_bytes(cost), "2.48 GB");
    }

    #[test]
    fn paper_fedavg_mnist_cost_is_524_16_mb() {
        // Table 1: FedAvg on MNIST = 524.16 MB
        // = 200 rounds x 10 clients x 32760 params x 8 bytes.
        let cost = dense_run_bytes(200, 10, 32_760);
        assert_eq!(cost, 524_160_000);
        assert_eq!(human_bytes(cost), "524.16 MB");
    }

    #[test]
    fn mtl_is_several_times_fedavg() {
        // Table 1 reports MTL at 16.12 GB vs FedAvg 2.48 GB (6.5x); the
        // all-pairs model gives (k+1)/2 = 5.5x with k = 10.
        let fedavg = dense_run_bytes(500, 10, 62_000);
        let mtl = mtl_run_bytes(500, 10, 62_000);
        let ratio = mtl as f64 / fedavg as f64;
        assert!((ratio - 5.5).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn masked_transfer_scales_with_kept() {
        assert_eq!(masked_transfer_bytes(31_000), dense_transfer_bytes(62_000) / 2);
    }

    #[test]
    fn mask_bytes_is_ceil_div_8() {
        assert_eq!(mask_bytes(0), 0);
        assert_eq!(mask_bytes(1), 1);
        assert_eq!(mask_bytes(8), 1);
        assert_eq!(mask_bytes(9), 2);
        assert_eq!(mask_bytes(62_000), 7_750);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mask: Vec<f32> = (0..37).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
        let packed = pack_mask(&mask);
        assert_eq!(packed.len(), mask_bytes(37) as usize);
        let unpacked = unpack_mask(&packed, 37);
        assert_eq!(unpacked, mask);
    }

    #[test]
    fn pack_length_matches_accounting() {
        for len in [0usize, 1, 7, 8, 9, 100, 62_000] {
            let mask = vec![1.0f32; len];
            assert_eq!(pack_mask(&mask).len() as u64, mask_bytes(len), "len {len}");
        }
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(532), "532 B");
        assert_eq!(human_bytes(1_500), "1.50 KB");
        assert_eq!(human_bytes(2_480_000), "2.48 MB");
        assert_eq!(human_bytes(16_120_000_000), "16.12 GB");
    }
}
