//! Acceptance tests for the determinism taint rules of `subfed-lint
//! check` over the seeded fixtures in `tests/fixtures/`. Each fixture
//! must be rejected with its **named** rule and a witness that points at
//! the offending function (and, for the fold rule, the full chain: lock
//! identity, spawning entry, and the concrete accumulation site) — while
//! the disciplined twins in the same files stay unblamed.

use subfed_lint::check_sources;
use subfed_lint::Finding;

fn run(label: &str, source: &str) -> Vec<Finding> {
    check_sources(&[(label.to_string(), source.to_string())])
}

fn live(fs: &[Finding]) -> Vec<&Finding> {
    fs.iter().filter(|f| !f.suppressed).collect()
}

#[test]
fn unseeded_rng_fixture_catches_entropy_clock_and_opaque_seeds() {
    let fs = run("unseeded_rng.rs", include_str!("fixtures/unseeded_rng.rs"));
    let live = live(&fs);
    let unseeded: Vec<_> = live.iter().filter(|f| f.rule == "unseeded-rng").collect();
    assert_eq!(unseeded.len(), 3, "{live:#?}");
    assert!(
        unseeded.iter().any(|f| f.message.contains("`from_entropy()`")
            && f.message.contains("`init_noise_from_entropy`")),
        "{unseeded:#?}"
    );
    assert!(
        unseeded
            .iter()
            .any(|f| f.message.contains("wall clock") && f.message.contains("`jitter_from_clock`")),
        "{unseeded:#?}"
    );
    assert!(
        unseeded.iter().any(|f| f.message.contains("no visible provenance")
            && f.message.contains("`shuffle_by_ticket`")),
        "{unseeded:#?}"
    );
    // The clock-seed line is double-tainted: the `now()` read inside the
    // seed expression is a wallclock finding in its own right.
    assert!(live.iter().any(|f| f.rule == "wallclock-taint"), "{live:#?}");
    // The disciplined twin derives from the run seed and is not blamed.
    assert!(live.iter().all(|f| !f.message.contains("shuffle_for_round")), "{live:#?}");
}

#[test]
fn seed_collision_fixture_catches_the_hex_decimal_twin_pair() {
    let fs = run("seed_collision.rs", include_str!("fixtures/seed_collision.rs"));
    let live = live(&fs);
    assert_eq!(live.len(), 1, "{live:#?}");
    assert_eq!(live[0].rule, "seed-collision");
    let msg = &live[0].message;
    // The duplicate (`0x2A`) is blamed; the witness names the first
    // claimant of the normalized value 42.
    assert!(msg.contains("literal seed 42"), "{msg}");
    assert!(msg.contains("`probe_sampler`"), "{msg}");
    assert!(msg.contains("`augmentation_noise`"), "{msg}");
    assert!(msg.contains("seed_collision.rs:14"), "{msg}");
    // Distinct derived seeds are not blamed.
    assert!(!msg.contains("tagged_streams"), "{msg}");
}

#[test]
fn wallclock_fixture_catches_both_reads_and_spares_the_span_stopwatch() {
    let fs = run("wallclock_taint.rs", include_str!("fixtures/wallclock_taint.rs"));
    let live = live(&fs);
    assert_eq!(live.len(), 2, "{live:#?}");
    assert!(live.iter().all(|f| f.rule == "wallclock-taint"));
    let deadline = live
        .iter()
        .find(|f| f.message.contains("`collect_until_deadline`"))
        .expect("deadline finding");
    // The witness points at the first downstream use of the tainted
    // binding — the cutoff decision.
    assert!(deadline.message.contains("`deadline`"), "{}", deadline.message);
    assert!(deadline.message.contains("line 17"), "{}", deadline.message);
    assert!(
        live.iter().any(|f| f.message.contains("`SystemTime::now()`")
            && f.message.contains("`stamp_round_meta`")),
        "{live:#?}"
    );
    // `Span::begin` reads the clock legally.
    assert!(live.iter().all(|f| !f.message.contains("begin")), "{live:#?}");
}

#[test]
fn order_sensitive_fold_fixture_reports_the_full_witness_chain() {
    let fs = run("order_sensitive_fold.rs", include_str!("fixtures/order_sensitive_fold.rs"));
    let live = live(&fs);
    assert_eq!(live.len(), 1, "{live:#?}");
    assert_eq!(live[0].rule, "order-sensitive-fold");
    let msg = &live[0].message;
    // The chain: folding function, lock identity, spawning entry, and
    // the accumulation site it descends to.
    assert!(msg.contains("`RaceFold::fold_upload`"), "{msg}");
    assert!(msg.contains("`RaceFold::sums`"), "{msg}");
    assert!(msg.contains("`RaceFold::run_round`"), "{msg}");
    assert!(msg.contains("via `accumulate`"), "{msg}");
    assert!(msg.contains("not associative"), "{msg}");
    // The turnstile twin waits for its slot and is not blamed.
    assert!(!msg.contains("TurnstileFold"), "{msg}");
}

#[test]
fn determinism_fixtures_analyzed_together_keep_per_file_attribution() {
    let inputs: Vec<(String, String)> = [
        ("unseeded_rng.rs", include_str!("fixtures/unseeded_rng.rs")),
        ("seed_collision.rs", include_str!("fixtures/seed_collision.rs")),
        ("wallclock_taint.rs", include_str!("fixtures/wallclock_taint.rs")),
        ("order_sensitive_fold.rs", include_str!("fixtures/order_sensitive_fold.rs")),
    ]
    .into_iter()
    .map(|(l, s)| (l.to_string(), s.to_string()))
    .collect();
    let fs = check_sources(&inputs);
    let live = live(&fs);
    assert_eq!(live.len(), 8, "{live:#?}");
    // Sorted by (file, line, rule) — stable output for diffing in CI.
    let keys: Vec<_> = live.iter().map(|f| (f.file.clone(), f.line)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    // Seed collisions resolve across files too: 42 in one file and
    // 0x2A in another still collide (here both live in seed_collision.rs,
    // so the count stays the per-file sum).
    assert!(live.iter().any(|f| f.rule == "seed-collision"), "{live:#?}");
}

#[test]
fn allows_suppress_determinism_findings_and_stale_ones_are_audited() {
    let suppressed = "pub fn resample(ticket: u64) {\n\
                      // lint: allow(unseeded-rng) — ticket is mixed from the run seed upstream\n\
                      let mut rng = SeededRng::new(ticket);\n\
                      }";
    let fs = run("fixture.rs", suppressed);
    assert!(live(&fs).is_empty(), "{:?}", live(&fs));
    assert_eq!(fs.iter().filter(|f| f.suppressed).count(), 1, "{fs:#?}");

    let stale = "pub fn resample(run_seed: u64) {\n\
                 // lint: allow(unseeded-rng)\n\
                 let mut rng = SeededRng::new(run_seed);\n\
                 }";
    let fs = run("fixture.rs", stale);
    let live = live(&fs);
    assert_eq!(live.len(), 1, "{live:#?}");
    assert_eq!(live[0].rule, "stale-allow");
    assert!(live[0].message.contains("unseeded-rng"), "{}", live[0].message);
}
