//! Determinism taint analysis: the four nondeterminism rules of
//! `subfed-lint analyze`.
//!
//! The replay-identity gate (`subfed-lint conform run-a.jsonl
//! run-b.jsonl`) demands that two runs of the same federation produce
//! bit-identical models and canonical traces. These rules reject the
//! source patterns that break that promise *before* the gate ever sees a
//! divergent trace, by tracking where nondeterminism enters and where it
//! can reach:
//!
//! * [`UNSEEDED_RNG`] — a random stream whose seed has no provenance:
//!   `from_entropy()`/`thread_rng()` (OS entropy), a seed derived from
//!   the wall clock, or a `SeededRng::new(…)`/`seed_from_u64(…)` whose
//!   argument mentions no seed-named value. Every draw from such a
//!   stream differs between runs.
//! * [`SEED_COLLISION`] — two non-test RNG constructions sharing one
//!   literal seed (normalized, so `0x2A` collides with `42`). The
//!   streams are identical, so "independent" noise, init, or sampling
//!   decisions become perfectly correlated — a silent statistics bug the
//!   replay gate cannot see because it reproduces bit-for-bit.
//! * [`WALLCLOCK_TAINT`] — an `Instant::now()`/`SystemTime::now()` read
//!   in library code outside the sanctioned stopwatch
//!   (`subfed_metrics::trace::Span`, whose `us` payloads the trace
//!   canonicalizer zeroes). Wall-clock values taint everything computed
//!   from them, and anything tainted that reaches a trace field or a
//!   control decision diverges between runs.
//! * [`ORDER_SENSITIVE_FOLD`] — a function that takes a lock, is
//!   reachable from a spawning function (so it runs on worker threads),
//!   and directly or transitively accumulates floats (`*s += …`,
//!   `buf[i] += …`, `x += 1.0`). f32 addition is not associative, so
//!   whichever worker wins the lock decides the result — the
//!   arrival-order fold the `OrderedAccumulator` turnstile exists to
//!   prevent. A body that waits for its turn first (calls a
//!   `wait`-prefixed function, e.g. `wait_unpoisoned`) is the turnstile
//!   idiom itself and is exempt.
//!
//! Findings carry witness chains in the [`crate::summaries::Fact`]
//! style: the concrete accumulation site and the call path that reaches
//! it, plus the lock identity and the spawning function, so a reader can
//! replay why the fold is order-sensitive without re-deriving the graph.
//! Test modules are skipped throughout — tests may pin literal seeds and
//! time things freely. The standard `// lint: allow(rule)` escape hatch
//! applies, audited for staleness like every analyze-side rule.

use crate::callgraph::{CallGraph, SourceFile};
use crate::lexer::{Token, TokenKind};
use crate::parser::{call_sites, CallSite, FnDef};
use crate::rules::{ident, punct, Finding};
use crate::summaries::{Fact, Summaries};

/// Identifier of the entropy-/clock-/provenance-free-seed rule.
pub const UNSEEDED_RNG: &str = "unseeded-rng";
/// Identifier of the duplicate-literal-seed rule.
pub const SEED_COLLISION: &str = "seed-collision";
/// Identifier of the wall-clock-read rule.
pub const WALLCLOCK_TAINT: &str = "wallclock-taint";
/// Identifier of the concurrent-float-accumulation rule.
pub const ORDER_SENSITIVE_FOLD: &str = "order-sensitive-fold";

/// Idents whose presence in a seed expression marks it wall-clock
/// derived: constructing a "seeded" RNG from the clock is entropy with
/// extra steps.
const TIME_TAINT_IDENTS: [&str; 9] = [
    "Instant",
    "SystemTime",
    "UNIX_EPOCH",
    "now",
    "elapsed",
    "as_nanos",
    "as_micros",
    "as_millis",
    "subsec_nanos",
];

/// Runs the four determinism rules over the parsed workspace.
/// Suppression is the caller's job (it needs the per-file allow
/// directives).
pub fn taint_findings(
    files: &[SourceFile],
    graph: &CallGraph,
    summaries: &Summaries,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut literal_seeds: Vec<SeedSite> = Vec::new();
    for file in files {
        for def in &file.defs {
            if file.in_tests(def.item.name_idx) {
                continue;
            }
            check_rng_sources(file, def, &mut out, &mut literal_seeds);
            check_wallclock(file, def, &mut out);
        }
    }
    check_seed_collisions(&literal_seeds, &mut out);
    check_order_sensitive_folds(files, graph, summaries, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// One non-test RNG construction seeded by a bare integer literal.
struct SeedSite {
    value: u64,
    file: String,
    line: usize,
    fn_name: String,
}

/// How one RNG-constructing call site classifies.
enum SeedKind {
    /// OS entropy — nondeterministic by construction.
    Entropy(&'static str),
    /// The seed expression mentions the wall clock.
    Clock,
    /// The seed expression mentions a seed-named value or a derivation
    /// helper: provenance established.
    Derived,
    /// The seed is a single integer literal (recorded for collisions).
    Literal(u64),
    /// Anything else: no visible seed provenance.
    Opaque,
}

/// Flags entropy- and provenance-free RNG constructions and records
/// literal seeds for the collision pass.
fn check_rng_sources(
    file: &SourceFile,
    def: &FnDef,
    out: &mut Vec<Finding>,
    literal_seeds: &mut Vec<SeedSite>,
) {
    let Some((open, close)) = def.item.body else { return };
    let toks = &file.lexed.tokens;
    for call in call_sites(toks, open, close) {
        let Some(kind) = classify_rng_call(toks, &call, close) else { continue };
        let fn_name = &def.item.name;
        match kind {
            SeedKind::Entropy(shape) => out.push(Finding {
                file: file.label.clone(),
                line: call.line,
                rule: UNSEEDED_RNG,
                message: format!(
                    "{shape} seeds from OS entropy in `{fn_name}`; every run draws a \
                     different stream — construct a `SeededRng` from the run seed \
                     (per client/round: derive with `round_seed`-style mixing)"
                ),
                suppressed: false,
            }),
            SeedKind::Clock => out.push(Finding {
                file: file.label.clone(),
                line: call.line,
                rule: UNSEEDED_RNG,
                message: format!(
                    "`{}` in `{fn_name}` derives its seed from the wall clock; that is \
                     entropy with extra steps — derive it from the run seed instead",
                    rendered_ctor(&call)
                ),
                suppressed: false,
            }),
            SeedKind::Opaque => out.push(Finding {
                file: file.label.clone(),
                line: call.line,
                rule: UNSEEDED_RNG,
                message: format!(
                    "`{}` in `{fn_name}` takes a seed with no visible provenance; \
                     thread the run seed (or a value derived from it) through so the \
                     stream replays",
                    rendered_ctor(&call)
                ),
                suppressed: false,
            }),
            SeedKind::Literal(value) => literal_seeds.push(SeedSite {
                value,
                file: file.label.clone(),
                line: call.line,
                fn_name: fn_name.clone(),
            }),
            SeedKind::Derived => {}
        }
    }
}

/// `SeededRng::new` / `StdRng::seed_from_u64` rendered for messages.
fn rendered_ctor(call: &CallSite) -> String {
    match call.qualifier.as_deref() {
        Some(q) => format!("{q}::{}(…)", call.callee),
        None => format!("{}(…)", call.callee),
    }
}

/// Classifies a call site as an RNG construction, or `None` when it is
/// not one.
fn classify_rng_call(toks: &[Token], call: &CallSite, close: usize) -> Option<SeedKind> {
    match call.callee.as_str() {
        "from_entropy" => return Some(SeedKind::Entropy("`from_entropy()`")),
        "thread_rng" => return Some(SeedKind::Entropy("`thread_rng()`")),
        "new" if call.qualifier.as_deref() == Some("SeededRng") => {}
        "seed_from_u64" => {}
        _ => return None,
    }
    // The argument span: call_sites guarantees `(` directly after the
    // name (these constructors never take a turbofish).
    if punct_at(toks, call.idx + 1) != Some('(') {
        return None;
    }
    let args_close = matching_paren(toks, call.idx + 1).min(close);
    let lo = call.idx + 2;
    if lo >= args_close {
        return Some(SeedKind::Opaque); // no argument at all
    }
    let args = &toks[lo..args_close];
    if args.iter().any(|t| ident(t).is_some_and(|s| TIME_TAINT_IDENTS.contains(&s))) {
        return Some(SeedKind::Clock);
    }
    if args.iter().any(|t| {
        ident(t).is_some_and(|s| s.to_ascii_lowercase().contains("seed") || s.starts_with("derive"))
    }) {
        return Some(SeedKind::Derived);
    }
    if args.len() == 1 {
        if let TokenKind::Int(v) = args[0].kind {
            return Some(SeedKind::Literal(v));
        }
    }
    Some(SeedKind::Opaque)
}

/// Flags every literal-seed site whose normalized value already
/// constructed an RNG elsewhere; the first site (in `(file, line)`
/// order) is the witness, each later twin the finding.
fn check_seed_collisions(sites: &[SeedSite], out: &mut Vec<Finding>) {
    let mut ordered: Vec<&SeedSite> = sites.iter().collect();
    ordered.sort_by(|a, b| (a.value, &a.file, a.line).cmp(&(b.value, &b.file, b.line)));
    for pair in ordered.windows(2) {
        let (first, dup) = (pair[0], pair[1]);
        if first.value != dup.value {
            continue;
        }
        // Chains (three or more sites) blame each on its predecessor,
        // which keeps one finding per duplicate site.
        out.push(Finding {
            file: dup.file.clone(),
            line: dup.line,
            rule: SEED_COLLISION,
            message: format!(
                "literal seed {} in `{}` already constructs an RNG at {}:{} (`{}`); \
                 the two streams are identical, so their draws are perfectly \
                 correlated — derive distinct per-use seeds from the run seed",
                dup.value, dup.fn_name, first.file, first.line, first.fn_name
            ),
            suppressed: false,
        });
    }
}

/// Flags wall-clock reads outside `impl Span` — the one sanctioned
/// stopwatch, whose `us` payloads the trace canonicalizer zeroes.
fn check_wallclock(file: &SourceFile, def: &FnDef, out: &mut Vec<Finding>) {
    if def.impl_type.as_deref() == Some("Span") {
        return;
    }
    let Some((open, close)) = def.item.body else { return };
    let toks = &file.lexed.tokens;
    for call in call_sites(toks, open, close) {
        if call.callee != "now"
            || !matches!(call.qualifier.as_deref(), Some("Instant") | Some("SystemTime"))
        {
            continue;
        }
        let qual = call.qualifier.as_deref().unwrap_or_default();
        let witness = first_tainted_use(toks, &call, open, close)
            .map(|(name, line)| {
                format!("; first use of the tainted value `{name}` is on line {line}")
            })
            .unwrap_or_default();
        out.push(Finding {
            file: file.label.clone(),
            line: call.line,
            rule: WALLCLOCK_TAINT,
            message: format!(
                "`{qual}::now()` read in `{}`; wall-clock values taint whatever they \
                 reach and diverge between runs — time spans through \
                 `subfed_metrics::trace::Span` (canonicalized away on replay) and \
                 derive decisions from the run seed{witness}",
                def.item.name
            ),
            suppressed: false,
        });
    }
}

/// The `let NAME = …now()…` binding (if any) and the line of `NAME`'s
/// first later use — the start of the taint's downstream flow.
fn first_tainted_use(
    toks: &[Token],
    call: &CallSite,
    open: usize,
    close: usize,
) -> Option<(String, usize)> {
    // Statement start: nearest `;`/`{`/`}` boundary before the call.
    let mut s = call.idx;
    while s > open {
        if matches!(punct(&toks[s - 1]), Some(';') | Some('{') | Some('}')) {
            break;
        }
        s -= 1;
    }
    let mut name = None;
    let mut k = s;
    while k < call.idx {
        if ident(&toks[k]) == Some("let") {
            let mut n = k + 1;
            if ident(&toks[n]) == Some("mut") {
                n += 1;
            }
            name = ident(&toks[n]).map(str::to_string);
        }
        k += 1;
    }
    let name = name?;
    let stmt_end = (call.idx..=close).find(|&j| punct(&toks[j]) == Some(';'))?;
    let use_line = (stmt_end..=close)
        .find(|&j| ident(&toks[j]) == Some(name.as_str()))
        .map(|j| toks[j].line)?;
    Some((name, use_line))
}

/// Flags lock-taking, spawn-reachable functions that accumulate floats —
/// the arrival-order fold — unless the body waits for its turn first.
fn check_order_sensitive_folds(
    files: &[SourceFile],
    graph: &CallGraph,
    summaries: &Summaries,
    out: &mut Vec<Finding>,
) {
    let def_of = |i: usize| {
        let n = &graph.nodes[i];
        &files[n.file].defs[n.def]
    };

    // Which functions run under a worker pool: everything reachable from
    // a function whose summary spawns (the spawner's closure body is
    // attributed to the spawner itself, so its calls are its edges).
    let mut spawn_witness: Vec<Option<String>> = vec![None; graph.nodes.len()];
    let mut queue = std::collections::VecDeque::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        if !n.in_tests && summaries.per_node[i].spawns.is_some() {
            spawn_witness[i] = Some(def_of(i).qualified());
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        let witness = spawn_witness[i].clone().unwrap_or_default();
        for &j in &graph.edges[i] {
            if spawn_witness[j].is_none() && !graph.nodes[j].in_tests {
                spawn_witness[j] = Some(witness.clone());
                queue.push_back(j);
            }
        }
    }

    // Direct float-accumulation sites, then a monotone fixpoint so the
    // witness chain descends through calls (summaries style).
    let mut accum: Vec<Option<Fact>> = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            if n.in_tests {
                return None;
            }
            let file = &files[n.file];
            let def = def_of(i);
            let (open, close) = def.item.body?;
            float_accum_site(&file.lexed.tokens, open, close).map(|(line, what)| Fact {
                via: Vec::new(),
                file: file.label.clone(),
                line,
                what: what.to_string(),
            })
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..accum.len() {
            if graph.nodes[i].in_tests || accum[i].is_some() {
                continue;
            }
            for &j in &graph.edges[i] {
                let Some(fact) = &accum[j] else { continue };
                let mut via = Vec::with_capacity(fact.via.len() + 1);
                via.push(def_of(j).qualified());
                via.extend(fact.via.iter().cloned());
                accum[i] = Some(Fact {
                    via,
                    file: fact.file.clone(),
                    line: fact.line,
                    what: fact.what.clone(),
                });
                changed = true;
                break;
            }
        }
        if !changed {
            break;
        }
    }

    for (i, n) in graph.nodes.iter().enumerate() {
        if n.in_tests {
            continue;
        }
        let Some(spawner) = &spawn_witness[i] else { continue };
        let Some(fact) = &accum[i] else { continue };
        let file = &files[n.file];
        let def = def_of(i);
        let acquisitions = crate::locks::fn_acquisitions(file, def);
        let Some(acq) = acquisitions.first() else { continue };
        let Some((open, close)) = def.item.body else { continue };
        // The turnstile idiom: a body that waits for its slot's turn
        // before folding (`wait_unpoisoned` et al.) serialises itself.
        let waits = call_sites(&file.lexed.tokens, open, close)
            .iter()
            .any(|c| c.callee.starts_with("wait"));
        if waits {
            continue;
        }
        out.push(Finding {
            file: file.label.clone(),
            line: acq.line,
            rule: ORDER_SENSITIVE_FOLD,
            message: format!(
                "`{}` folds floats under `{}` on a worker pool (spawn-reachable via \
                 `{spawner}`): {} — f32 addition is not associative, so whichever \
                 worker wins the lock decides the result; fold in cohort-slot order \
                 through a turnstile (wait for the slot's turn) instead",
                def.qualified(),
                acq.id,
                fact.render()
            ),
            suppressed: false,
        });
    }
}

/// The first order-sensitive float accumulation in `toks[open..=close]`:
/// `*x += …`, `buf[i] += …`, or `x += <float literal>`.
fn float_accum_site(toks: &[Token], open: usize, close: usize) -> Option<(usize, &'static str)> {
    let close = close.min(toks.len().saturating_sub(1));
    for k in open..close {
        if punct(&toks[k]) != Some('+') || punct_at(toks, k + 1) != Some('=') {
            continue;
        }
        // `a + -b`, `x ++ y` cannot occur; `+=` is unambiguous at k.
        let prev = k.checked_sub(1).map(|p| &toks[p]);
        let prev_is_ident = prev.and_then(ident).is_some();
        let prev2_deref = k >= 2 && punct(&toks[k - 2]) == Some('*');
        let what = if prev.and_then(punct) == Some(']') {
            "indexed `+=` store"
        } else if prev_is_ident && prev2_deref {
            "`*x += …` through a guard"
        } else if toks.get(k + 2).map(|t| t.kind == TokenKind::Float).unwrap_or(false) {
            "`+=` of a float literal"
        } else {
            continue;
        };
        return Some((toks[k].line, what));
    }
    None
}

fn punct_at(toks: &[Token], i: usize) -> Option<char> {
    toks.get(i).and_then(punct)
}

fn matching_paren(toks: &[Token], open: usize) -> usize {
    let mut depth = 0;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match punct(t) {
            Some('(') => depth += 1,
            Some(')') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_sources;

    fn findings(src: &str) -> Vec<Finding> {
        analyze_sources(&[("fixture.rs".to_string(), src.to_string())])
            .into_iter()
            .filter(|f| !f.suppressed)
            .collect()
    }

    fn rules_of(fs: &[Finding]) -> Vec<&'static str> {
        fs.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn entropy_and_opaque_seeds_are_flagged_but_derived_seeds_are_not() {
        let fs = findings(
            "fn bad_entropy() { let r = StdRng::from_entropy(); }\n\
             fn bad_opaque(x: u64) { let r = SeededRng::new(x); }\n\
             fn good(cfg: &Cfg) { let r = SeededRng::new(cfg.seed); }\n\
             fn good_mix(seed: u64, round: u64) { let r = SeededRng::new(round_seed(seed, round)); }",
        );
        assert_eq!(rules_of(&fs), vec![UNSEEDED_RNG, UNSEEDED_RNG], "{fs:?}");
        assert!(fs[0].message.contains("from_entropy"), "{}", fs[0].message);
        assert!(fs[1].message.contains("no visible provenance"), "{}", fs[1].message);
    }

    #[test]
    fn clock_derived_seeds_are_entropy_with_extra_steps() {
        let fs = findings(
            "fn sneaky() { let r = SeededRng::new(SystemTime::now().elapsed().as_nanos() as u64); }",
        );
        // The ctor fires unseeded-rng; the `now()` read inside the
        // argument also fires wallclock-taint in its own right.
        assert_eq!(rules_of(&fs), vec![UNSEEDED_RNG, WALLCLOCK_TAINT], "{fs:?}");
        assert!(fs[0].message.contains("wall clock"), "{}", fs[0].message);
    }

    #[test]
    fn literal_seeds_collide_across_files_by_normalized_value() {
        let fs: Vec<Finding> = analyze_sources(&[
            ("a.rs".to_string(), "fn init() { let r = SeededRng::new(42); }".to_string()),
            ("b.rs".to_string(), "fn noise() { let r = SeededRng::new(0x2A); }".to_string()),
        ])
        .into_iter()
        .filter(|f| !f.suppressed)
        .collect();
        assert_eq!(rules_of(&fs), vec![SEED_COLLISION], "{fs:?}");
        assert_eq!(fs[0].file, "b.rs");
        assert!(fs[0].message.contains("a.rs:1"), "{}", fs[0].message);
        assert!(fs[0].message.contains("`init`"), "{}", fs[0].message);
    }

    #[test]
    fn distinct_literals_and_test_seeds_do_not_collide() {
        let fs = findings(
            "fn init() { let r = SeededRng::new(1); }\n\
             fn noise() { let r = SeededRng::new(2); }\n\
             #[cfg(test)]\nmod tests {\n fn t() { let a = SeededRng::new(1); \
             let b = SeededRng::new(1); } \n}",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn wallclock_reads_name_the_first_tainted_use() {
        let fs = findings(
            "fn decide() {\n\
             let t0 = Instant::now();\n\
             let x = work();\n\
             if t0.elapsed().as_millis() > 5 { bail(); }\n\
             }",
        );
        assert_eq!(rules_of(&fs), vec![WALLCLOCK_TAINT], "{fs:?}");
        assert!(fs[0].message.contains("`t0`"), "{}", fs[0].message);
        assert!(fs[0].message.contains("line 4"), "{}", fs[0].message);
    }

    #[test]
    fn span_stopwatch_is_the_sanctioned_clock() {
        let fs = findings(
            "impl Span { pub fn begin() -> Self { Self { start: Some(Instant::now()) } } }",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn arrival_order_fold_is_flagged_with_the_full_witness_chain() {
        let src = "impl Agg {\n\
                   pub fn run(&self) { thread::spawn(move || {}); self.fold_in(); }\n\
                   fn fold_in(&self) { let mut g = lock_unpoisoned(&self.sums); self.add(); }\n\
                   fn add(&self) { let mut s = 0.0; s += 1.0; }\n\
                   }";
        let fs = findings(src);
        assert_eq!(rules_of(&fs), vec![ORDER_SENSITIVE_FOLD], "{fs:?}");
        let msg = &fs[0].message;
        assert!(msg.contains("`Agg::fold_in`"), "{msg}");
        assert!(msg.contains("`Agg::sums`"), "{msg}");
        assert!(msg.contains("`Agg::run`"), "{msg}");
        assert!(msg.contains("via `Agg::add`"), "{msg}");
    }

    #[test]
    fn turnstile_waiters_and_unspawned_folds_are_exempt() {
        let waits = "impl Agg {\n\
                     pub fn run(&self) { thread::spawn(move || {}); self.fold_in(0); }\n\
                     fn fold_in(&self, slot: usize) { let mut g = lock_unpoisoned(&self.state); \
                     g = wait_unpoisoned(&self.turn, g); *g += 1.0; }\n\
                     }";
        assert!(findings(waits).is_empty(), "{:?}", findings(waits));
        let single_threaded = "impl Agg {\n\
                               fn fold_in(&self) { let mut g = lock_unpoisoned(&self.sums); \
                               *g += 1.0; }\n\
                               }";
        assert!(findings(single_threaded).is_empty(), "{:?}", findings(single_threaded));
    }

    #[test]
    fn disjoint_stripe_parallel_gemm_shape_is_exempt() {
        // Regression fixture for a column-striped multithreaded GEMM:
        // the pool lock is taken only in checkout/restore helpers that
        // never reach a float fold, workers write disjoint output stripes
        // through an accumulating microkernel, and the spawner itself
        // holds no lock lexically. No single function
        // both acquires and reaches the `+=`, so the arrival-order rule must
        // stay quiet even though the fold is spawn-reachable.
        let src = "fn checkout(count: usize) -> Vec<Ws> { let mut held = lock_pool(&POOL); \
                   held.split_off(count) }\n\
                   fn restore(wss: Vec<Ws>) { let mut held = lock_pool(&POOL); held.truncate(32); }\n\
                   fn mk_write(acc: &[f32], c: &mut [f32]) { \
                   for (v, x) in c.iter_mut().zip(acc) { *v += x; } }\n\
                   fn gemm_span(buf: &mut [f32]) { let acc = [0.0f32; 8]; mk_write(&acc, buf); }\n\
                   pub fn gemm_mt(out: &mut [f32]) {\n\
                   let wss = checkout(4);\n\
                   std::thread::scope(|s| { s.spawn(move || { gemm_span(out); }); });\n\
                   restore(wss);\n\
                   }";
        assert!(findings(src).is_empty(), "{:?}", findings(src));

        // The exemption is about *where* the acquisition lives, not a free
        // pass for parallel GEMMs: collapse the pool checkout into the
        // spawning fold itself and the rule fires again.
        let collapsed = "fn mk_write(acc: &[f32], c: &mut [f32]) { \
                         for (v, x) in c.iter_mut().zip(acc) { *v += x; } }\n\
                         pub fn gemm_mt(out: &mut [f32]) {\n\
                         let held = lock_pool(&POOL);\n\
                         std::thread::scope(|s| { s.spawn(move || {}); });\n\
                         mk_write(&[0.0f32], out);\n\
                         }";
        assert!(
            rules_of(&findings(collapsed)).contains(&ORDER_SENSITIVE_FOLD),
            "{:?}",
            findings(collapsed)
        );
    }
}
