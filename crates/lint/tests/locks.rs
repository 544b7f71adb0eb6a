//! Acceptance tests for the concurrency rules of `subfed-lint check`
//! over the seeded fixtures in `tests/fixtures/`. Each fixture must be
//! rejected with its **named** violation and a witness chain that
//! points at the offending function and lock identities — and the real
//! workspace's lock-order graph must come out acyclic, with the
//! `OrderedAccumulator` turnstile mutex represented (and legal).

use std::path::Path;
use subfed_lint::callgraph::CallGraph;
use subfed_lint::{
    check_sources, find_workspace_root, parse_workspace, Finding, LockGraph, Summaries,
};

fn run(label: &str, source: &str) -> Vec<Finding> {
    check_sources(&[(label.to_string(), source.to_string())])
}

fn live(fs: &[Finding]) -> Vec<&Finding> {
    fs.iter().filter(|f| !f.suppressed).collect()
}

#[test]
fn lock_order_cycle_fixture_reports_both_edges_with_witnesses() {
    let fs = run("lock_order_cycle.rs", include_str!("fixtures/lock_order_cycle.rs"));
    let live = live(&fs);
    assert_eq!(live.len(), 1, "{live:#?}");
    assert_eq!(live[0].rule, "lock-order");
    let msg = &live[0].message;
    // The witness chain names both directions, the functions that take
    // them, and the consequence.
    assert!(msg.contains("`Ledger::accounts` → `Ledger::audit`"), "{msg}");
    assert!(msg.contains("`Ledger::audit` → `Ledger::accounts`"), "{msg}");
    assert!(msg.contains("`Ledger::post`") && msg.contains("`Ledger::reconcile`"), "{msg}");
    assert!(msg.contains("deadlock"), "{msg}");
    // The consistently-ordered twin is not blamed.
    assert!(!msg.contains("settle_consistently"), "{msg}");
}

#[test]
fn alloc_under_lock_fixture_catches_direct_and_transitive_shapes() {
    let fs = run("alloc_under_lock.rs", include_str!("fixtures/alloc_under_lock.rs"));
    let live = live(&fs);
    assert_eq!(live.len(), 2, "{live:#?}");
    assert!(live.iter().all(|f| f.rule == "alloc-under-lock"));
    let direct = live
        .iter()
        .find(|f| f.message.contains("`vec![…]` allocates while `Roster::entries`"))
        .expect("direct finding");
    assert!(direct.message.contains("`Roster::swap_in`"), "{}", direct.message);
    let transitive = live
        .iter()
        .find(|f| f.message.contains("call to `rebuild_entries`"))
        .expect("transitive finding");
    // The witness chain descends into the callee's allocation site.
    assert!(transitive.message.contains("`.to_vec()`"), "{}", transitive.message);
    assert!(transitive.message.contains("`Roster::refresh`"), "{}", transitive.message);
    // The allocate-first twin is clean.
    assert!(live.iter().all(|f| !f.message.contains("refresh_scoped")));
}

#[test]
fn guard_across_spawn_fixture_catches_spawn_and_loop_variants() {
    let fs = run("guard_across_spawn.rs", include_str!("fixtures/guard_across_spawn.rs"));
    let live = live(&fs);
    assert_eq!(live.len(), 2, "{live:#?}");
    assert!(live.iter().all(|f| f.rule == "guard-across-spawn"));
    assert!(
        live.iter().any(|f| f.message.contains("held across `spawn(…)`")
            && f.message.contains("`Fleet::roster`")
            && f.message.contains("`Fleet::dispatch_all`")),
        "{live:#?}"
    );
    assert!(
        live.iter().any(|f| f.message.contains("loop acquiring `Fleet::inflight`")
            && f.message.contains("`Fleet::drain`")),
        "{live:#?}"
    );
    // The snapshot-then-spawn twin is clean.
    assert!(live.iter().all(|f| !f.message.contains("dispatch_scoped")));
}

#[test]
fn lock_fixtures_analyzed_together_keep_per_file_attribution() {
    let inputs: Vec<(String, String)> = [
        ("lock_order_cycle.rs", include_str!("fixtures/lock_order_cycle.rs")),
        ("alloc_under_lock.rs", include_str!("fixtures/alloc_under_lock.rs")),
        ("guard_across_spawn.rs", include_str!("fixtures/guard_across_spawn.rs")),
    ]
    .into_iter()
    .map(|(l, s)| (l.to_string(), s.to_string()))
    .collect();
    let fs = check_sources(&inputs);
    let live = live(&fs);
    assert_eq!(live.len(), 5, "{live:#?}");
    // Sorted by (file, line, rule) — stable output for diffing in CI.
    let keys: Vec<_> = live.iter().map(|f| (f.file.clone(), f.line)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn workspace_lock_graph_is_acyclic_and_sees_the_turnstile() {
    // The acceptance gate of the lock-order analysis itself: the five
    // scanned crates produce an acyclic lock-order graph, and the
    // `OrderedAccumulator` turnstile mutex is in it (condvar waits
    // release the lock, so the turnstile contributes no edges).
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root");
    let files = parse_workspace(&root).expect("scan");
    let graph = CallGraph::build(&files);
    let summaries = Summaries::build(&files, &graph);
    let lg = LockGraph::build(&files, &graph, &summaries);
    assert!(
        lg.nodes.iter().any(|n| n == "OrderedAccumulator::state"),
        "turnstile lock missing from the graph: {:?}",
        lg.nodes
    );
    let cycles = lg.cycles();
    assert!(cycles.is_empty(), "workspace lock-order cycles: {cycles:?} over {:?}", lg.nodes);
}
