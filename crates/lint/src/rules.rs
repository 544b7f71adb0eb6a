//! The FL-specific rule catalog, the finding type every rule reports,
//! and the token rules.
//!
//! Each token rule pattern-matches over the flat token stream of one
//! [`SourceFile`]; the scope-aware rules in [`crate::scope`] are run
//! from here on the files they apply to. Findings inside
//! `#[cfg(test)] mod … { … }` blocks are dropped. Suppression and the
//! [`STALE_ALLOW`] audit happen once for every rule, in
//! [`crate::check`].

use crate::callgraph::SourceFile;
use crate::lexer::{ident, matching, punct, Token, TokenKind};

/// Identifier of the float-equality rule.
pub const FLOAT_EQ: &str = "float-eq";
/// Identifier of the mask/weight-buffer indexing rule.
pub const UNCHECKED_INDEX: &str = "unchecked-index";
/// Identifier of the `#[must_use]`-on-`Result` rule.
pub const MUST_USE_RESULT: &str = "must-use-result";
/// Identifier of the stale-suppression audit (never itself suppressible).
pub const STALE_ALLOW: &str = "stale-allow";

/// Every rule id, in reporting order (the two scope-aware rules live in
/// [`crate::scope`], the three hot-path dataflow rules in
/// [`crate::dataflow`], the three concurrency rules in [`crate::locks`],
/// the four determinism rules in [`crate::taint`], the three totality
/// rules in [`crate::totality`]).
pub const ALL_RULES: [&str; 19] = [
    FLOAT_EQ,
    UNCHECKED_INDEX,
    MUST_USE_RESULT,
    crate::scope::MASK_MUTATION_AFTER_UPLOAD,
    crate::scope::TRACER_THREADING,
    crate::dataflow::HOT_PATH_ALLOC,
    crate::dataflow::SCRATCH_BEFORE_READ,
    crate::dataflow::PATTERN_REBUILD_IN_LOOP,
    crate::locks::LOCK_ORDER,
    crate::locks::ALLOC_UNDER_LOCK,
    crate::locks::GUARD_ACROSS_SPAWN,
    crate::taint::UNSEEDED_RNG,
    crate::taint::SEED_COLLISION,
    crate::taint::WALLCLOCK_TAINT,
    crate::taint::ORDER_SENSITIVE_FOLD,
    crate::totality::PANIC_REACHABLE,
    crate::totality::ARITH_OVERFLOW,
    crate::totality::ERROR_SWALLOW,
    STALE_ALLOW,
];

/// One-line description of a rule, for `subfed-lint rules`.
pub fn rule_description(rule: &str) -> &'static str {
    match rule {
        FLOAT_EQ => {
            "== or != against a float literal; NaN never compares equal, use \
             total_cmp/epsilon or an is-kept helper for mask bits"
        }
        UNCHECKED_INDEX => {
            "direct indexing of a mask/param/weight buffer; prefer iterators \
             or zip so length conformance is checked once, not per access"
        }
        MUST_USE_RESULT => "pub fn returning Result should carry #[must_use]",
        rule if rule == crate::scope::MASK_MUTATION_AFTER_UPLOAD => {
            "a client mask is mutated after the round's Upload emission in \
             engine/algorithm code; the traced byte count no longer matches"
        }
        rule if rule == crate::scope::TRACER_THREADING => {
            "pub engine/algorithm fn takes &mut model/mask state but no \
             Tracer; new code paths through it dodge observability"
        }
        rule if rule == crate::dataflow::HOT_PATH_ALLOC => {
            "Vec::new/vec!/.clone()/.to_vec()/.collect() in code reachable \
             from a hot entry point; hoist to setup or use the Workspace"
        }
        rule if rule == crate::dataflow::SCRATCH_BEFORE_READ => {
            "a take_scratch buffer is read before any full write; stale \
             contents leak into results — fill/copy/pack it first"
        }
        rule if rule == crate::dataflow::PATTERN_REBUILD_IN_LOOP => {
            "RowPattern/RectPattern built inside a loop on the hot path; \
             patterns are once-per-round artifacts, build at install time"
        }
        rule if rule == crate::locks::LOCK_ORDER => {
            "a cycle in the derived lock-order graph; interleaved threads \
             can deadlock — pick one global acquisition order"
        }
        rule if rule == crate::locks::ALLOC_UNDER_LOCK => {
            "an allocation (direct or through a call) while a lock guard \
             is live; shrink the critical section"
        }
        rule if rule == crate::locks::GUARD_ACROSS_SPAWN => {
            "a guard held across spawn/thread::scope, a join()/recv(), or \
             a loop acquiring another lock; release the guard first"
        }
        rule if rule == crate::taint::UNSEEDED_RNG => {
            "an RNG seeded from OS entropy, the wall clock, or a value \
             with no seed provenance; derive every stream from the run seed"
        }
        rule if rule == crate::taint::SEED_COLLISION => {
            "two RNG constructions share one literal seed (normalized, so \
             0x2A collides with 42); their streams are perfectly correlated"
        }
        rule if rule == crate::taint::WALLCLOCK_TAINT => {
            "Instant/SystemTime::now() outside the Span stopwatch; clock \
             values taint whatever they reach and diverge between runs"
        }
        rule if rule == crate::taint::ORDER_SENSITIVE_FOLD => {
            "a lock-taking, spawn-reachable function accumulates floats; \
             arrival order decides the sum — fold in slot order instead"
        }
        rule if rule == crate::totality::PANIC_REACHABLE => {
            "a panic source (panicking macro, unwrap/expect, bare indexing, \
             non-literal division) is reachable from a total entry point"
        }
        rule if rule == crate::totality::ARITH_OVERFLOW => {
            "unchecked +/*/<< on byte-length or index math reachable from a \
             total entry point; use checked_*/saturating_* arithmetic"
        }
        rule if rule == crate::totality::ERROR_SWALLOW => {
            "a *Error-carrying Result discarded via `let _ =` or `.ok()` \
             outside tests; handle or propagate the error"
        }
        STALE_ALLOW => {
            "a `// lint: allow(…)` comment that suppresses no finding; \
             remove it so suppressions stay justified"
        }
        _ => "unknown rule",
    }
}

/// One reported hazard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path label the caller supplied (usually workspace-relative).
    pub file: String,
    /// 1-based line of the hazard.
    pub line: usize,
    /// Rule id (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Human-readable description of this occurrence.
    pub message: String,
    /// Whether a `// lint: allow(…)` comment suppresses it.
    pub suppressed: bool,
}

impl Finding {
    /// `path:line: [rule] message` — the text-format render.
    pub fn render(&self) -> String {
        let mark = if self.suppressed { " (allowed)" } else { "" };
        format!("{}:{}: [{}] {}{}", self.file, self.line, self.rule, self.message, mark)
    }

    /// One JSON object per finding, for `--format json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\",\"suppressed\":{}}}",
            escape_json(&self.file),
            self.line,
            self.rule,
            escape_json(&self.message),
            self.suppressed
        )
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The token and scope rules' findings for one file, unsuppressed; test
/// modules are skipped.
pub fn token_findings(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if file.in_tests(i) {
            continue;
        }
        check_float_eq(&file.label, toks, i, &mut findings);
        check_unchecked_index(&file.label, toks, i, &mut findings);
        check_must_use(&file.label, toks, i, &mut findings);
    }
    if crate::scope::applies_to(&file.label) {
        findings.extend(crate::scope::scope_rules(file));
    }
    findings
}

/// Token-index ranges covered by `#[cfg(test)] mod … { … }` blocks.
pub(crate) fn test_module_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            let mut j = i + 7; // past `#[cfg(test)]`
                               // Skip further attributes between the cfg and the item.
            while toks.get(j).and_then(punct) == Some('#')
                && toks.get(j + 1).and_then(punct) == Some('[')
            {
                j = matching(toks, j + 1) + 1;
            }
            // `mod name { … }` (a `mod name;` declaration has no body here).
            if toks.get(j).and_then(ident) == Some("mod") && j + 2 < toks.len() {
                let k = j + 2;
                if punct(&toks[k]) == Some('{') {
                    let close = matching(toks, k);
                    out.push((i, close));
                    i = close + 1;
                    continue;
                } else if punct(&toks[k]) == Some(';') {
                    // Declaration form: the module lives in another file;
                    // the walker resolves it (see `cfg_test_mod_decls`).
                    i = k + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Whether tokens at `i` spell exactly `#[cfg(test)]`.
fn is_cfg_test_attr(toks: &[Token], i: usize) -> bool {
    i + 6 < toks.len()
        && punct(&toks[i]) == Some('#')
        && punct(&toks[i + 1]) == Some('[')
        && ident(&toks[i + 2]) == Some("cfg")
        && punct(&toks[i + 3]) == Some('(')
        && ident(&toks[i + 4]) == Some("test")
        && punct(&toks[i + 5]) == Some(')')
        && punct(&toks[i + 6]) == Some(']')
}

/// Names of modules declared `#[cfg(test)] mod name;` — their backing
/// files are entirely test code.
pub fn cfg_test_mod_decls(toks: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            let mut j = i + 7;
            // Tolerate visibility and further attributes before `mod`.
            loop {
                if j >= toks.len() {
                    break;
                }
                if punct(&toks[j]) == Some('#')
                    && j + 1 < toks.len()
                    && punct(&toks[j + 1]) == Some('[')
                {
                    j = matching(toks, j + 1) + 1;
                } else if ident(&toks[j]) == Some("pub") {
                    j += 1;
                    if j < toks.len() && punct(&toks[j]) == Some('(') {
                        while j < toks.len() && punct(&toks[j]) != Some(')') {
                            j += 1;
                        }
                        j += 1;
                    }
                } else {
                    break;
                }
            }
            if j + 2 < toks.len()
                && ident(&toks[j]) == Some("mod")
                && punct(&toks[j + 2]) == Some(';')
            {
                if let Some(name) = ident(&toks[j + 1]) {
                    out.push(name.to_string());
                }
            }
        }
        i += 1;
    }
    out
}

fn check_float_eq(file: &str, toks: &[Token], i: usize, out: &mut Vec<Finding>) {
    // `==` lexes as two '=' puncts; `!=` as '!' then '='. `<=`/`>=`
    // carry only one '=' so neither pattern fires on them.
    let two = |a: usize| toks.get(a).and_then(punct);
    let op = if two(i) == Some('=') && two(i + 1) == Some('=') {
        // Not the tail of `<=`, `>=`, `!=`, `+=`, … (their '=' is consumed
        // as the second token of this window only when i-1 is the operator
        // head, which the float check below can't produce), and not a
        // `===` fragment.
        if i > 0 && matches!(two(i - 1), Some('=') | Some('!') | Some('<') | Some('>')) {
            return;
        }
        Some(("==", i))
    } else if two(i) == Some('!') && two(i + 1) == Some('=') {
        Some(("!=", i))
    } else {
        None
    };
    let Some((op, at)) = op else { return };
    let lhs_float = at > 0 && toks[at - 1].kind == TokenKind::Float;
    let rhs_float = toks.get(at + 2).map(|t| t.kind == TokenKind::Float).unwrap_or(false);
    if lhs_float || rhs_float {
        out.push(Finding {
            file: file.to_string(),
            line: toks[at].line,
            rule: FLOAT_EQ,
            message: format!(
                "float `{op}` comparison; NaN-unsafe — use total_cmp, an epsilon, \
                 or a mask-bit helper"
            ),
            suppressed: false,
        });
    }
}

/// Buffer names whose direct indexing the rule flags.
///
/// Singular names only: in this workspace `mask`/`params`/`weights`/`grads`
/// are flat `f32` buffers whose length must match a model layout, while the
/// plural `masks` is a per-client `Vec<ModelMask>` indexed by client id —
/// a domain the round loop establishes once, not a shape-conformance risk.
fn is_guarded_buffer_name(name: &str) -> bool {
    matches!(name, "mask" | "params" | "weights" | "grads")
        || name.ends_with("_mask")
        || name.ends_with("_params")
        || name.ends_with("_weights")
}

fn check_unchecked_index(file: &str, toks: &[Token], i: usize, out: &mut Vec<Finding>) {
    let Some(name) = ident(&toks[i]) else { return };
    if !is_guarded_buffer_name(name) {
        return;
    }
    if toks.get(i + 1).and_then(punct) != Some('[') {
        return;
    }
    // `foo[…]` right after a '.' is a field access on another value —
    // still an index, still flagged. But `use mask[` can't occur, and
    // attribute paths never index, so no further filtering is needed.
    out.push(Finding {
        file: file.to_string(),
        line: toks[i].line,
        rule: UNCHECKED_INDEX,
        message: format!(
            "unchecked index into `{name}`; iterate/zip instead so shape \
             conformance is checked once"
        ),
        suppressed: false,
    });
}

fn check_must_use(file: &str, toks: &[Token], i: usize, out: &mut Vec<Finding>) {
    if ident(&toks[i]) != Some("pub") {
        return;
    }
    // pub | pub(crate) | pub(super) …, then qualifiers, then `fn name`.
    let mut j = i + 1;
    if toks.get(j).and_then(punct) == Some('(') {
        while j < toks.len() && punct(&toks[j]) != Some(')') {
            j += 1;
        }
        j += 1;
    }
    while matches!(
        toks.get(j).and_then(ident),
        Some("const") | Some("unsafe") | Some("async") | Some("extern")
    ) {
        j += 1;
        if toks.get(j).map(|t| t.kind == TokenKind::Str).unwrap_or(false) {
            j += 1; // extern "C"
        }
    }
    if toks.get(j).and_then(ident) != Some("fn") {
        return;
    }
    let Some(name_tok) = toks.get(j + 1) else { return };
    let fn_line = name_tok.line;
    let Some(fn_name) = ident(name_tok) else { return };

    // Find `-> … {` at signature level and look for `Result` in the
    // return type.
    let mut k = j + 2;
    let mut depth = 0i32;
    let mut arrow = None;
    while k < toks.len() {
        match punct(&toks[k]) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some('-') if depth == 0 && toks.get(k + 1).and_then(punct) == Some('>') => {
                arrow = Some(k + 2);
                break;
            }
            Some('{') | Some(';') if depth == 0 => break,
            _ => {}
        }
        k += 1;
    }
    let Some(ret_start) = arrow else { return };
    let mut returns_result = false;
    let mut k = ret_start;
    let mut angle = 0i32;
    while k < toks.len() {
        match &toks[k].kind {
            TokenKind::Punct('{') | TokenKind::Punct(';') if angle == 0 => break,
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Ident(s) if s == "Result" => {
                returns_result = true;
            }
            TokenKind::Ident(s) if s == "where" && angle == 0 => break,
            _ => {}
        }
        k += 1;
    }
    if !returns_result {
        return;
    }
    // Walk attributes immediately above: contiguous `#[…]` groups before
    // the `pub`.
    if has_preceding_must_use(toks, i) {
        return;
    }
    out.push(Finding {
        file: file.to_string(),
        line: fn_line,
        rule: MUST_USE_RESULT,
        message: format!("pub fn `{fn_name}` returns Result but lacks #[must_use]"),
        suppressed: false,
    });
}

fn has_preceding_must_use(toks: &[Token], mut i: usize) -> bool {
    // Scan backwards over contiguous attribute groups `#[…]`.
    while i > 0 {
        if punct(&toks[i - 1]) != Some(']') {
            return false;
        }
        // Find the matching `[` then the `#` before it.
        let mut depth = 0;
        let mut j = i - 1;
        loop {
            match punct(&toks[j]) {
                Some(']') => depth += 1,
                Some('[') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return false;
            }
            j -= 1;
        }
        if j == 0 || punct(&toks[j - 1]) != Some('#') {
            return false;
        }
        if toks[j..i].iter().any(|t| ident(t) == Some("must_use")) {
            return true;
        }
        i = j - 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_sources;
    use crate::lexer::lex;

    fn all(src: &str) -> Vec<Finding> {
        check_sources(&[("fixture.rs".to_string(), src.to_string())])
    }

    fn unsuppressed(src: &str) -> Vec<Finding> {
        all(src).into_iter().filter(|f| !f.suppressed).collect()
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { if x == 0.5 {} if 1.0 != y {} }\n}\nfn lib2() { if y == 0.5 {} }";
        let fs = unsuppressed(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].line, 7);
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let src = "fn f() {\n  if x == 0.5 {} // lint: allow(float-eq)\n  // lint: allow(float-eq)\n  if y == 0.5 {}\n  if z == 0.5 {}\n}";
        let all = all(src);
        let suppressed: Vec<_> = all.iter().filter(|f| f.suppressed).collect();
        let live: Vec<_> = all.iter().filter(|f| !f.suppressed).collect();
        assert_eq!(suppressed.len(), 2);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].line, 5);
    }

    #[test]
    fn allow_of_other_rule_does_not_suppress() {
        let src = "fn f() { if x == 0.5 {} } // lint: allow(unchecked-index)";
        let fs = unsuppressed(src);
        // The comparison stays live, and the useless directive is itself
        // flagged by the stale-suppression audit.
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().any(|f| f.rule == FLOAT_EQ));
        assert!(fs.iter().any(|f| f.rule == STALE_ALLOW));
    }

    #[test]
    fn stale_allow_is_flagged_and_live_allow_is_not() {
        let src = "fn f() {\n  if x == 0.5 {} // lint: allow(float-eq)\n  y.ok(); // lint: allow(float-eq)\n}";
        let fs = unsuppressed(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, STALE_ALLOW);
        assert_eq!(fs[0].line, 3);
        assert!(fs[0].message.contains("allow(float-eq)"));
    }

    #[test]
    fn stale_allow_cannot_be_suppressed() {
        let src = "fn f() {\n  // lint: allow(stale-allow)\n  x.ok(); // lint: allow(float-eq)\n}";
        let fs = unsuppressed(src);
        // Both directives are stale: the first allows a rule that never
        // fires (and could not be silenced even by itself), the second
        // covers a line with no finding.
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == STALE_ALLOW));
    }

    #[test]
    fn allow_of_unknown_rule_is_stale() {
        let src = "fn f() { x.ok(); } // lint: allow(no-such-rule)";
        let fs = unsuppressed(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, STALE_ALLOW);
    }

    #[test]
    fn allow_inside_cfg_test_module_is_exempt_from_the_audit() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() {\n    if x == 0.5 {} // lint: allow(float-eq)\n  }\n}";
        // The directive suppresses nothing (test findings are never
        // computed) but sits inside the test module, so it is not stale.
        assert!(unsuppressed(src).is_empty(), "{:?}", unsuppressed(src));
    }

    #[test]
    fn float_eq_flags_literal_comparisons() {
        let src = "fn f() { if a == 0.5 { } if 1e-4 != b { } }";
        let fs = unsuppressed(src);
        assert_eq!(fs.len(), 2);
        assert!(fs.iter().all(|f| f.rule == FLOAT_EQ));
    }

    #[test]
    fn float_ordering_comparisons_are_fine() {
        let src = "fn f() { if a >= 0.5 { } if b < 1e-4 { } if c <= 2.0 { } }";
        assert!(unsuppressed(src).is_empty());
    }

    #[test]
    fn integer_equality_is_fine() {
        let src = "fn f() { if a == 3 { } if n != 0 { } if s == \"x\" { } }";
        assert!(unsuppressed(src).is_empty());
    }

    #[test]
    fn unchecked_index_flags_mask_buffers() {
        let src = "fn f() { let v = mask[i]; let w = flat_mask[j]; let p = params[0]; }";
        let fs = unsuppressed(src);
        assert_eq!(fs.len(), 3);
        assert!(fs.iter().all(|f| f.rule == UNCHECKED_INDEX));
    }

    #[test]
    fn other_buffers_and_methods_are_fine() {
        let src = "fn f() { let v = out[i]; mask.iter(); masked[i]; mask.get(i); }";
        assert!(unsuppressed(src).is_empty());
    }

    #[test]
    fn must_use_flags_pub_result_fn() {
        let src = "pub fn parse(s: &str) -> Result<u32, E> { todo() }\n#[must_use]\npub fn ok(s: &str) -> Result<u32, E> { todo() }\nfn private() -> Result<u32, E> { todo() }\npub fn plain() -> u32 { 0 }";
        let fs = unsuppressed(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, MUST_USE_RESULT);
        assert!(fs[0].message.contains("`parse`"));
    }

    #[test]
    fn must_use_sees_through_doc_and_other_attrs() {
        let src = "#[must_use]\n#[inline]\npub fn f() -> Result<(), E> { Ok(()) }";
        assert!(unsuppressed(src).is_empty());
    }

    #[test]
    fn must_use_handles_pub_crate_and_generics() {
        let src = "pub(crate) fn g<T: Ord>(x: Vec<T>) -> Result<T, ()> { todo() }";
        let fs = unsuppressed(src);
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn result_in_argument_position_is_not_flagged() {
        let src = "pub fn h(r: Result<u8, ()>) -> u8 { 0 }";
        assert!(unsuppressed(src).is_empty());
    }

    #[test]
    fn cfg_test_mod_decl_detection() {
        let src = "#[cfg(test)]\npub(crate) mod tests_support;\nmod real;\n";
        assert_eq!(cfg_test_mod_decls(&lex(src).tokens), vec!["tests_support".to_string()]);
    }

    #[test]
    fn findings_render_and_serialise() {
        let f = Finding {
            file: "a.rs".into(),
            line: 3,
            rule: FLOAT_EQ,
            message: "msg with \"quotes\"".into(),
            suppressed: false,
        };
        assert_eq!(f.render(), "a.rs:3: [float-eq] msg with \"quotes\"");
        assert!(f.to_json().contains("\\\"quotes\\\""));
    }
}
