//! The escape hatches, exercised end to end: every hazard in this file
//! is either allowed in place or moved behind a `// lint: cold` marker,
//! so `check` must report zero unsuppressed findings — and zero stale
//! directives.

pub fn forward_ws(x: &[f32], ws: &mut Workspace) -> Vec<f32> {
    // lint: allow(hot-path-alloc) — output buffer is owned by contract
    let mut out = Vec::new();
    // lint: allow(hot-path-alloc) — one staging copy per call by design
    out.extend_from_slice(&x.to_vec());
    let scratch = ws.take_scratch(x.len());
    // lint: allow(scratch-before-read) — checksum of stale bytes is intentional here
    let _stale_probe: f32 = scratch.iter().sum();
    ws.put(scratch);
    once_per_round(x.len());
    out
}

// lint: cold — runs on mask install, never per batch
fn once_per_round(n: usize) {
    for _l in 0..n {
        let v = vec![0u8; n];
        drop(v);
    }
}
