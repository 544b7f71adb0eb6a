//! Acceptance tests for the totality analyses over the seeded-violation
//! fixtures in `tests/fixtures/`: panic-reachability must cross call
//! edges with a full witness chain, the overflow and swallow rules must
//! catch their seeded hazards by name, every exemption (`debug_assert!`,
//! the poison-tolerant lock idiom, unreachable siblings, counted allows)
//! must hold, and the workspace certificate must match the committed
//! `CERTIFIED.json` byte for byte.

use subfed_lint::{
    certify_workspace, check_sources, find_workspace_root, render_certificates_json, Finding,
    TOTAL_ENTRIES,
};

fn run(label: &str, source: &str) -> Vec<Finding> {
    check_sources(&[(label.to_string(), source.to_string())])
}

fn live(fs: &[Finding]) -> Vec<&Finding> {
    fs.iter().filter(|f| !f.suppressed).collect()
}

#[test]
fn panic_reachability_crosses_call_edges_with_witness_chains() {
    let fs = run("panic_reachable.rs", include_str!("fixtures/panic_reachable.rs"));
    let live = live(&fs);
    assert_eq!(live.len(), 3, "{live:#?}");
    assert!(live.iter().all(|f| f.rule == "panic-reachable"), "{live:#?}");
    // One hop: the unwrap is attributed to the built-in entry with a
    // via chain naming the helper that contains it.
    assert!(
        live.iter().any(|f| f.message.contains("`.unwrap()`")
            && f.message.contains("total entry `decode_update`")
            && f.message.contains("via `read_len`")),
        "{live:#?}"
    );
    // Two hops: the bare indexing carries the full chain.
    assert!(
        live.iter().any(|f| f.message.contains("indexing")
            && f.message.contains("via `read_len` → `tail_byte`")),
        "{live:#?}"
    );
    // The `// lint: total` marker promotes `parse_record` to an entry.
    assert!(
        live.iter()
            .any(|f| f.message.contains("`panic!`")
                && f.message.contains("total entry `parse_record`")),
        "{live:#?}"
    );
    // Exemptions: debug_assert!, the poison-tolerant lock helper, and
    // the function no entry reaches all stay silent.
    assert!(live.iter().all(|f| !f.message.contains("never_reached")), "{live:#?}");
    assert!(live.iter().all(|f| !f.message.contains("lock_unpoisoned")), "{live:#?}");
    assert!(live.iter().all(|f| !f.message.contains("debug_assert")), "{live:#?}");
}

#[test]
fn arith_overflow_catches_length_math_and_spares_the_clean_twins() {
    let fs = run("arith_overflow.rs", include_str!("fixtures/arith_overflow.rs"));
    let live = live(&fs);
    assert_eq!(live.len(), 2, "{live:#?}");
    assert!(live.iter().all(|f| f.rule == "arith-overflow"), "{live:#?}");
    assert!(
        live.iter().any(|f| f.message.contains("unchecked `*` on `kept`")
            && f.message.contains("`StreamingAccumulator::fold`")),
        "{live:#?}"
    );
    assert!(live.iter().any(|f| f.message.contains("`+=`")), "{live:#?}");
    // checked_mul, float math, and the hint-free bit twiddle are clean.
    for clean in ["body_len_checked", "scaled", "bit"] {
        assert!(live.iter().all(|f| !f.message.contains(clean)), "{clean}: {live:#?}");
    }
}

#[test]
fn error_swallow_catches_both_discard_shapes() {
    let fs = run("error_swallow.rs", include_str!("fixtures/error_swallow.rs"));
    let live = live(&fs);
    assert_eq!(live.len(), 2, "{live:#?}");
    assert!(live.iter().all(|f| f.rule == "error-swallow"), "{live:#?}");
    assert!(
        live.iter().any(|f| f.message.contains("`let _ =`") && f.message.contains("FrameError")),
        "{live:#?}"
    );
    assert!(live.iter().any(|f| f.message.contains("`.ok()`")), "{live:#?}");
}

#[test]
fn counted_allow_suppresses_and_unused_allow_goes_stale() {
    let src = "pub fn decode_update(b: &[u8]) -> usize {\n\
               // lint: allow(panic-reachable)\n\
               b[0] as usize\n\
               }\n";
    let fs = run("allowed.rs", src);
    assert!(live(&fs).is_empty(), "{fs:#?}");
    assert!(
        fs.iter().any(|f| f.rule == "panic-reachable" && f.suppressed),
        "the hazard must still be found, just silenced: {fs:#?}"
    );

    let stale = "pub fn decode_update(b: &[u8]) -> usize {\n\
                 // lint: allow(arith-overflow)\n\
                 b.len()\n\
                 }\n";
    let fs = run("stale.rs", stale);
    let live = live(&fs);
    assert_eq!(live.len(), 1, "{live:#?}");
    assert_eq!(live[0].rule, "stale-allow");
    assert!(live[0].message.contains("arith-overflow"), "{}", live[0].message);
}

#[test]
fn total_marker_on_a_builtin_entry_is_reported_redundant() {
    let src = "// lint: total\n\
               pub fn decode_update(b: &[u8]) -> usize {\n\
               b.len()\n\
               }\n";
    let fs = run("redundant.rs", src);
    let live = live(&fs);
    assert_eq!(live.len(), 1, "{live:#?}");
    assert_eq!(live[0].rule, "stale-allow");
    assert!(live[0].message.contains("redundant"), "{}", live[0].message);
}

#[test]
fn workspace_certificate_matches_the_committed_artifact() {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root");
    let (certs, files) = certify_workspace(&root).expect("certify");
    assert!(files >= 30, "only {files} files certified");
    // Every built-in entry is present and panic-free — the registry
    // entry with zero allows, proving the cold-path burn-down.
    assert_eq!(certs.len(), TOTAL_ENTRIES.len(), "{certs:#?}");
    for c in &certs {
        assert!(TOTAL_ENTRIES.contains(&c.entry.as_str()), "{certs:#?}");
        assert_eq!(c.verdict, "panic-free", "{c:#?}");
        assert_eq!(c.witnesses, 0, "{c:#?}");
    }
    let reg = certs.iter().find(|c| c.entry == "ClientRegistry::load").expect("registry entry");
    assert_eq!(reg.allows, 0, "registry must certify without escape hatches: {reg:#?}");
    // The committed certificate is exactly what a fresh run emits — the
    // same diff CI performs.
    let committed = std::fs::read_to_string(root.join("CERTIFIED.json")).expect("CERTIFIED.json");
    assert_eq!(render_certificates_json(&certs), committed, "CERTIFIED.json drifted");
}
