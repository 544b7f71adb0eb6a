//! Acceptance tests for the dataflow rules of `subfed-lint check` over
//! the seeded-violation fixture corpus in `tests/fixtures/`. Each
//! dataflow rule must catch its seeded hazard **by name**, reachability
//! must extend across call edges, and the suppression machinery (allows,
//! cold markers) must silence exactly what it claims to — with zero
//! stale directives.

use subfed_lint::{check_sources, Finding, ALL_RULES};

fn run(label: &str, source: &str) -> Vec<Finding> {
    check_sources(&[(label.to_string(), source.to_string())])
}

fn live(fs: &[Finding]) -> Vec<&Finding> {
    fs.iter().filter(|f| !f.suppressed).collect()
}

#[test]
fn hot_path_alloc_fixture_catches_every_allocation_shape() {
    let fs = run("hot_path_alloc.rs", include_str!("fixtures/hot_path_alloc.rs"));
    let live = live(&fs);
    assert_eq!(live.len(), 5, "expected the five seeded allocations: {live:#?}");
    assert!(live.iter().all(|f| f.rule == "hot-path-alloc"));
    for shape in ["`Vec::new()`", "`vec![…]`", "`.to_vec()`", "`.clone()`", "`.collect()`"] {
        assert!(
            live.iter().any(|f| f.message.contains(shape)),
            "no finding for {shape}: {live:#?}"
        );
    }
    // Reachability is transitive: the deepest helper is two hops from
    // the entry, and the witness names the entry that dragged it hot.
    assert!(
        live.iter().any(|f| f.message.contains("`stage_two`")
            && f.message.contains("reachable from `forward_ws`")),
        "{live:#?}"
    );
    // The unreachable sibling allocates in peace.
    assert!(live.iter().all(|f| !f.message.contains("never_reached")));
}

#[test]
fn scratch_before_read_fixture_is_caught_and_the_disciplined_twin_is_not() {
    let fs = run("scratch_before_read.rs", include_str!("fixtures/scratch_before_read.rs"));
    let live = live(&fs);
    assert_eq!(live.len(), 1, "{live:#?}");
    assert_eq!(live[0].rule, "scratch-before-read");
    assert!(live[0].message.contains("`cols`"), "{}", live[0].message);
    assert!(live[0].message.contains("`fused_reduce`"), "{}", live[0].message);
}

#[test]
fn pattern_rebuild_fixture_is_caught_only_in_the_hot_loop() {
    let fs = run("pattern_rebuild_in_loop.rs", include_str!("fixtures/pattern_rebuild_in_loop.rs"));
    let live = live(&fs);
    assert_eq!(live.len(), 1, "{live:#?}");
    assert_eq!(live[0].rule, "pattern-rebuild-in-loop");
    assert!(live[0].message.contains("RowPattern::from_mask"), "{}", live[0].message);
    // The cold install loop builds RectPatterns without complaint.
    assert!(live.iter().all(|f| !f.message.contains("RectPattern")));
}

#[test]
fn suppressed_fixture_is_fully_clean_with_no_stale_directives() {
    let fs = run("clean_suppressed.rs", include_str!("fixtures/clean_suppressed.rs"));
    let live = live(&fs);
    assert!(live.is_empty(), "escape hatches failed to suppress: {live:#?}");
    // The allows must actually bite — the hazards are still *found*.
    assert!(fs.iter().filter(|f| f.suppressed).count() >= 3, "{fs:#?}");
    assert!(fs.iter().all(|f| f.rule != "stale-allow"), "{fs:#?}");
}

#[test]
fn corpus_covers_every_call_graph_rule() {
    // Every call-graph rule has a fixture that triggers it; the token
    // and scope rules and the stale audit have unit tests instead.
    let unit_tested = [
        "float-eq",
        "unchecked-index",
        "must-use-result",
        "mask-mutation-after-upload",
        "tracer-threading",
        "stale-allow",
    ];
    let corpus = [
        ("hot_path_alloc.rs", include_str!("fixtures/hot_path_alloc.rs")),
        ("scratch_before_read.rs", include_str!("fixtures/scratch_before_read.rs")),
        ("pattern_rebuild_in_loop.rs", include_str!("fixtures/pattern_rebuild_in_loop.rs")),
        ("lock_order_cycle.rs", include_str!("fixtures/lock_order_cycle.rs")),
        ("alloc_under_lock.rs", include_str!("fixtures/alloc_under_lock.rs")),
        ("guard_across_spawn.rs", include_str!("fixtures/guard_across_spawn.rs")),
        ("unseeded_rng.rs", include_str!("fixtures/unseeded_rng.rs")),
        ("seed_collision.rs", include_str!("fixtures/seed_collision.rs")),
        ("wallclock_taint.rs", include_str!("fixtures/wallclock_taint.rs")),
        ("order_sensitive_fold.rs", include_str!("fixtures/order_sensitive_fold.rs")),
        ("panic_reachable.rs", include_str!("fixtures/panic_reachable.rs")),
        ("arith_overflow.rs", include_str!("fixtures/arith_overflow.rs")),
        ("error_swallow.rs", include_str!("fixtures/error_swallow.rs")),
    ];
    for rule in ALL_RULES.into_iter().filter(|r| !unit_tested.contains(r)) {
        assert!(
            corpus.iter().flat_map(|(l, s)| run(l, s)).any(|f| f.rule == rule && !f.suppressed),
            "no fixture triggers `{rule}`"
        );
    }
}

#[test]
fn fixtures_analyzed_together_keep_per_file_attribution() {
    let inputs: Vec<(String, String)> = [
        ("hot_path_alloc.rs", include_str!("fixtures/hot_path_alloc.rs")),
        ("scratch_before_read.rs", include_str!("fixtures/scratch_before_read.rs")),
        ("pattern_rebuild_in_loop.rs", include_str!("fixtures/pattern_rebuild_in_loop.rs")),
        ("clean_suppressed.rs", include_str!("fixtures/clean_suppressed.rs")),
    ]
    .into_iter()
    .map(|(l, s)| (l.to_string(), s.to_string()))
    .collect();
    let fs = check_sources(&inputs);
    let live = live(&fs);
    assert_eq!(live.len(), 7, "{live:#?}");
    // Sorted by (file, line, rule) — stable output for diffing in CI.
    let keys: Vec<_> = live.iter().map(|f| (f.file.clone(), f.line)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}
