//! Dataflow-flavoured analyses over the call graph: the three hot-path
//! rules of `subfed-lint check` (the three concurrency rules live in
//! [`crate::locks`]).
//!
//! * [`HOT_PATH_ALLOC`] — no allocation in hot-reachable code. Flags
//!   `Vec::new()`, `vec![…]`, `.clone()`, `.to_vec()` and `.collect()`
//!   in any function the call graph marks hot. `Vec::with_capacity` is
//!   deliberately *not* flagged: it is the idiom for a justified,
//!   one-time allocation and flagging it would bury the signal.
//! * [`SCRATCH_BEFORE_READ`] — the `Workspace::take_scratch` contract.
//!   A binding initialised from `take_scratch` holds unspecified stale
//!   contents; its **first** non-trivial use must be a write (`&mut`
//!   borrow, `.fill(…)`, `.copy_from_slice(…)`, a `*_mut` iterator, or
//!   an indexed store in a packing loop). The check is linearized —
//!   first-access-must-write over the token order, with one write
//!   assumed to cover the buffer — so it is a hazard filter, not a
//!   proof; the NaN-dirtying property tests in `subfed-tensor` remain
//!   the ground truth for full coverage.
//! * [`PATTERN_REBUILD_IN_LOOP`] — `RowPattern`/`RectPattern` are
//!   once-per-round artifacts (rebuilt only when a mask changes);
//!   constructing one inside a loop in hot-reachable code means paying
//!   the scan-and-index cost per batch. Cold code may build patterns in
//!   loops freely (e.g. once-per-round over layers).
//!
//! All three respect the standard escape hatch: `// lint: allow(rule)`
//! on the finding's line or the line above, audited for staleness with
//! every other rule's directives (see [`crate::check`]).

use crate::callgraph::{CallGraph, SourceFile};
use crate::lexer::{ident, ident_at, matching, punct, Token};
use crate::parser::{call_sites, loop_bodies};
use crate::rules::Finding;
use crate::summaries::alloc_sites;

/// Identifier of the allocation-on-hot-path rule.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Identifier of the scratch-buffer read-before-write rule.
pub const SCRATCH_BEFORE_READ: &str = "scratch-before-read";
/// Identifier of the sparsity-pattern-rebuilt-per-batch rule.
pub const PATTERN_REBUILD_IN_LOOP: &str = "pattern-rebuild-in-loop";

/// Whether the hot-path rules apply to a file. The other rules scan the
/// metrics crate, but the hot-path rules skip it: its sinks sit on
/// the *reporting* path, and the name-resolved over-approximation
/// (`.len()`, `.record()` collisions) would otherwise drag them into the
/// hot set and bury the kernel-path signal in telemetry noise.
fn hot_rules_apply(label: &str) -> bool {
    !label.contains("crates/metrics/")
}

/// Runs the three hot-path analyses over the parsed workspace.
/// Suppression is the caller's job (it needs the per-file allow
/// directives).
pub fn dataflow_findings(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, witness) in graph.hot_nodes() {
        let node = &graph.nodes[i];
        let file = &files[node.file];
        if !hot_rules_apply(&file.label) {
            continue;
        }
        let def = &file.defs[node.def];
        let Some((open, close)) = def.item.body else { continue };
        check_hot_path_alloc(file, &def.item.name, witness, open, close, &mut out);
        check_pattern_rebuild(file, &def.item.name, witness, open, close, &mut out);
    }
    // The scratch contract is universal: take_scratch hands back stale
    // memory no matter how cold the caller is.
    for file in files {
        for def in &file.defs {
            if file.in_tests(def.item.name_idx) {
                continue;
            }
            let Some((open, close)) = def.item.body else { continue };
            check_scratch_before_read(file, &def.item.name, open, close, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Allocation shapes searched for inside hot bodies — the same site
/// machinery the `alloc-under-lock` rule uses
/// ([`crate::summaries::alloc_sites`]).
fn check_hot_path_alloc(
    file: &SourceFile,
    fn_name: &str,
    witness: &str,
    open: usize,
    close: usize,
    out: &mut Vec<Finding>,
) {
    for site in alloc_sites(&file.lexed.tokens, open, close) {
        out.push(Finding {
            file: file.label.clone(),
            line: site.line,
            rule: HOT_PATH_ALLOC,
            message: format!(
                "{} allocates in `{fn_name}`, which is on the hot path \
                 (reachable from `{witness}`); hoist it to setup, take from the \
                 Workspace, or justify with an allow",
                site.what
            ),
            suppressed: false,
        });
    }
}

/// `RowPattern`/`RectPattern` construction inside loop bodies of hot
/// functions.
fn check_pattern_rebuild(
    file: &SourceFile,
    fn_name: &str,
    witness: &str,
    open: usize,
    close: usize,
    out: &mut Vec<Finding>,
) {
    let toks = &file.lexed.tokens;
    for (lo, hi) in loop_bodies(toks, open, close) {
        for call in call_sites(toks, lo, hi) {
            let Some(q) = call.qualifier.as_deref() else { continue };
            if q == "RowPattern" || q == "RectPattern" {
                out.push(Finding {
                    file: file.label.clone(),
                    line: call.line,
                    rule: PATTERN_REBUILD_IN_LOOP,
                    message: format!(
                        "`{q}::{}` runs inside a loop in hot `{fn_name}` (reachable \
                         from `{witness}`); sparsity patterns are once-per-round \
                         artifacts — build them at install time, not per batch",
                        call.callee
                    ),
                    suppressed: false,
                });
            }
        }
    }
}

/// How one occurrence of a tainted buffer name uses the buffer.
enum Use {
    /// Overwrites contents (or replaces the binding): taint discharged.
    Write,
    /// Observes contents: a finding if it comes before any write.
    Read(&'static str),
    /// Length/capacity queries observe no element.
    Neutral,
    /// `ws.put(name)` or a re-`let`: tracking ends.
    Release,
}

/// Taints every `let [mut] NAME = …take_scratch(…)` binding in the body
/// and requires the first non-neutral use of `NAME` to be a write.
fn check_scratch_before_read(
    file: &SourceFile,
    fn_name: &str,
    open: usize,
    close: usize,
    out: &mut Vec<Finding>,
) {
    let toks = &file.lexed.tokens;
    for t in open..=close {
        if ident(&toks[t]) != Some("take_scratch") || toks.get(t + 1).and_then(punct) != Some('(') {
            continue;
        }
        let Some(name) = binding_name(toks, open, t) else { continue };
        let args_close = matching(toks, t + 1);
        let mut j = args_close + 1;
        while j < close {
            if ident(&toks[j]) == Some(name) {
                match classify_use(toks, j) {
                    Use::Write | Use::Release => break,
                    Use::Neutral => {}
                    Use::Read(how) => {
                        out.push(Finding {
                            file: file.label.clone(),
                            line: toks[j].line,
                            rule: SCRATCH_BEFORE_READ,
                            message: format!(
                                "scratch buffer `{name}` ({how}) in `{fn_name}` before \
                                 any full write; take_scratch returns stale contents — \
                                 fill/copy/pack it first or use Workspace::take"
                            ),
                            suppressed: false,
                        });
                        break;
                    }
                }
            }
            j += 1;
        }
    }
}

/// The `let [mut] NAME =` pattern opening the statement that contains
/// the `take_scratch` call at `t`; `None` when the result is consumed
/// without a binding (the receiver is then responsible).
fn binding_name(toks: &[Token], open: usize, t: usize) -> Option<&str> {
    // Statement start: the nearest `;`/`{`/`}` boundary before `t`.
    let mut s = t;
    while s > open {
        if matches!(punct(&toks[s - 1]), Some(';') | Some('{') | Some('}')) {
            break;
        }
        s -= 1;
    }
    let mut k = s;
    while k < t {
        if ident(&toks[k]) == Some("let") {
            let mut n = k + 1;
            if ident(&toks[n]) == Some("mut") {
                n += 1;
            }
            return ident(&toks[n]);
        }
        k += 1;
    }
    None
}

fn classify_use(toks: &[Token], i: usize) -> Use {
    let prev = i.checked_sub(1).and_then(|p| toks.get(p)).and_then(punct);
    let prev2 = i.checked_sub(2).and_then(|p| toks.get(p)).and_then(punct);
    let prev_id = i.checked_sub(1).and_then(|p| toks.get(p)).and_then(ident);

    // `x.put(name)` releases the buffer; `let name = …` rebinds it.
    if prev == Some('(') && i >= 3 && ident(&toks[i - 2]) == Some("put") {
        return Use::Release;
    }
    if prev_id == Some("let") || (prev_id == Some("mut") && ident(&toks[i - 2]) == Some("let")) {
        return Use::Release;
    }
    // `self.name` / `x.name` is a different value entirely.
    if prev == Some('.') {
        return Use::Neutral;
    }
    if prev_id == Some("mut") && prev2 == Some('&') {
        return Use::Write;
    }
    if prev == Some('&') {
        return Use::Read("borrowed shared");
    }
    match toks.get(i + 1).and_then(punct) {
        Some('.') => {
            let method = ident_at(toks, i + 2).unwrap_or("");
            if matches!(method, "fill" | "copy_from_slice" | "clone_from_slice")
                || method.ends_with("_mut")
            {
                Use::Write
            } else if matches!(method, "len" | "capacity" | "is_empty") {
                Use::Neutral
            } else {
                Use::Read("method-read")
            }
        }
        Some('[') => {
            // Skip chained index/range groups: `buf[a..][..k]`.
            let mut b = matching(toks, i + 1);
            while toks.get(b + 1).and_then(punct) == Some('[') {
                b = matching(toks, b + 1);
            }
            let after = toks.get(b + 1).and_then(punct);
            let after2 = toks.get(b + 2).and_then(punct);
            if after == Some('=') && after2 != Some('=') {
                // Indexed store — the packing-loop write idiom.
                Use::Write
            } else if after == Some('.') {
                let method = ident_at(toks, b + 2).unwrap_or("");
                if matches!(method, "fill" | "copy_from_slice" | "clone_from_slice")
                    || method.ends_with("_mut")
                {
                    Use::Write
                } else {
                    Use::Read("indexed read")
                }
            } else {
                Use::Read("indexed read")
            }
        }
        Some('=') if toks.get(i + 2).and_then(punct) != Some('=') && prev != Some('=') => {
            // Whole-binding reassignment discards the stale contents.
            Use::Write
        }
        _ => Use::Read("used by value"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn findings(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse("fixture.rs", src)];
        let graph = CallGraph::build(&files);
        dataflow_findings(&files, &graph)
    }

    fn rules_of(fs: &[Finding]) -> Vec<&'static str> {
        fs.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn allocations_in_hot_and_reachable_code_are_flagged() {
        let src = "pub fn forward_ws() { let v = Vec::new(); helper(); }\n\
                   fn helper() { let w = vec![0.0; 4]; let c = x.clone(); \
                   let t = y.to_vec(); let z = it.collect::<Vec<f32>>(); }";
        let fs = findings(src);
        assert_eq!(rules_of(&fs), vec![HOT_PATH_ALLOC; 5], "{fs:?}");
        assert!(fs[0].message.contains("`forward_ws`"));
        assert!(fs[1].message.contains("reachable from `forward_ws`"));
    }

    #[test]
    fn cold_functions_may_allocate() {
        let src = "pub fn forward_ws() { setup(); }\n\
                   // lint: cold\n\
                   fn setup() { let v = Vec::new(); let w = x.clone(); }\n\
                   fn unreached() { let u = vec![1]; }";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn with_capacity_is_the_sanctioned_allocation_idiom() {
        let src = "pub fn gemm() { let v = Vec::with_capacity(8); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn scratch_read_before_write_is_flagged() {
        let src = "fn f(ws: &mut Workspace) {\n\
                   let mut cols = ws.take_scratch(n);\n\
                   let s: f32 = cols.iter().sum();\n\
                   }";
        let fs = findings(src);
        assert_eq!(rules_of(&fs), vec![SCRATCH_BEFORE_READ], "{fs:?}");
        assert_eq!(fs[0].line, 3);
        assert!(fs[0].message.contains("`cols`"));
    }

    #[test]
    fn scratch_written_first_is_clean() {
        for write in [
            "im2col(&mut cols, x);",
            "cols.fill(0.0);",
            "cols.copy_from_slice(src);",
            "for c in cols.chunks_mut(k) { c.fill(0.0); }",
            "for i in 0..n { cols[i] = x[i]; }",
        ] {
            let src = format!(
                "fn f(ws: &mut Workspace) {{\n\
                 let mut cols = ws.take_scratch(n);\n\
                 {write}\n\
                 let s: f32 = cols.iter().sum();\n\
                 ws.put(cols);\n\
                 }}"
            );
            assert!(findings(&src).is_empty(), "false positive on `{write}`");
        }
    }

    #[test]
    fn scratch_len_query_is_neutral_but_indexed_read_is_not() {
        let neutral = "fn f(ws: &mut W) { let b = ws.take_scratch(n); \
                       let l = b.len(); b.fill(0.0); use_it(&b); }";
        assert!(findings(neutral).is_empty());
        let read = "fn f(ws: &mut W) { let b = ws.take_scratch(n); let v = b[0]; }";
        assert_eq!(rules_of(&findings(read)), vec![SCRATCH_BEFORE_READ]);
    }

    #[test]
    fn scratch_released_unread_or_shadowed_is_clean() {
        let released = "fn f(ws: &mut W) { let b = ws.take_scratch(n); ws.put(b); }";
        assert!(findings(released).is_empty());
        let shadowed =
            "fn f(ws: &mut W) { let b = ws.take_scratch(n); let b = other(); read(&b); }";
        assert!(findings(shadowed).is_empty());
    }

    #[test]
    fn take_is_not_take_scratch() {
        let src = "fn f(ws: &mut W) { let b = ws.take(n); let s: f32 = b.iter().sum(); }";
        assert!(findings(src).is_empty(), "take() zero-fills; only take_scratch taints");
    }

    #[test]
    fn pattern_rebuild_inside_hot_loop_is_flagged() {
        let src = "pub fn forward_ws(&mut self) {\n\
                   for b in 0..batches {\n\
                   let p = RowPattern::from_mask(mask, k);\n\
                   apply(&p);\n\
                   }\n\
                   }";
        let fs = findings(src);
        assert_eq!(rules_of(&fs), vec![PATTERN_REBUILD_IN_LOOP], "{fs:?}");
        assert!(fs[0].message.contains("RowPattern::from_mask"));
    }

    #[test]
    fn pattern_built_outside_loops_or_in_cold_code_is_fine() {
        let hot_outside = "pub fn forward_ws() { let p = RectPattern::from_pattern(rp, c); \
                           for b in 0..n { apply(&p); } }";
        assert!(findings(hot_outside).is_empty());
        let cold_loop = "fn install_sparsity() { for l in layers { \
                         let p = RowPattern::from_mask(m, k); } }";
        assert!(findings(cold_loop).is_empty(), "not hot-reachable");
    }
}
