//! Brace/scope-aware analysis: a lightweight structural layer over the
//! flat token stream that recovers **function items** — name, visibility,
//! parameter list, body extent — without building an AST.
//!
//! Two rules need this structure (flat token windows cannot see "inside
//! this function, after that call"):
//!
//! - [`MASK_MUTATION_AFTER_UPLOAD`]: inside one engine/algorithm
//!   function, a client mask is mutated at a point textually after an
//!   `Upload` trace emission. The uploaded byte count was derived from
//!   the mask at upload time, so any later mutation before round end
//!   de-synchronises the trace (and the server's view) from the client's
//!   actual mask.
//! - [`TRACER_THREADING`]: a `pub` engine/algorithm function takes `&mut`
//!   model/mask state but threads no [`Tracer`] (no tracer parameter, no
//!   `self` receiver to reach one, no tracer use in the body) — a new
//!   code path through it can mutate round state that observability
//!   never sees.
//!
//! Both rules apply only to the protocol-bearing files
//! (`crates/core/src/engine.rs` and `crates/core/src/algorithms/`);
//! helper crates mutate masks legitimately all the time.
//!
//! [`Tracer`]: subfed_metrics::trace::Tracer

use crate::callgraph::SourceFile;
use crate::lexer::{ident, matching, punct, Token, TokenKind};
use crate::rules::Finding;

/// Identifier of the mask-mutated-after-upload rule.
pub const MASK_MUTATION_AFTER_UPLOAD: &str = "mask-mutation-after-upload";
/// Identifier of the untraced-state-mutation rule.
pub const TRACER_THREADING: &str = "tracer-threading";

/// Mutable round-state types whose `&mut` receipt obliges a function to
/// carry observability (see [`TRACER_THREADING`]).
const STATEFUL_TYPES: [&str; 2] = ["Sequential", "ModelMask"];

/// Methods that mutate their receiver even though the token stream shows
/// no `=`: every `*_mut` accessor plus the common in-place operations.
const MUTATING_METHODS: [&str; 10] = [
    "push",
    "insert",
    "remove",
    "clear",
    "set",
    "apply",
    "fill",
    "truncate",
    "retain",
    "copy_from_slice",
];

/// Whether the scope rules run on this file at all.
pub fn applies_to(file_label: &str) -> bool {
    let l = file_label.replace('\\', "/");
    l.contains("core/src/engine.rs") || l.contains("core/src/algorithms/")
}

/// One parameter of a function item.
#[derive(Debug, Clone)]
pub struct Param {
    /// Whether the parameter is taken by `&mut`.
    pub by_mut_ref: bool,
    /// Every identifier appearing in the parameter's type.
    pub type_idents: Vec<String>,
}

/// One `fn` item recovered from the token stream.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: usize,
    /// Token index of the name.
    pub name_idx: usize,
    /// Whether the item is `pub` (any visibility flavour).
    pub is_pub: bool,
    /// Whether the parameter list contains a `self` receiver.
    pub has_self: bool,
    /// The parsed parameters (receiver excluded).
    pub params: Vec<Param>,
    /// Token indices of the body's `{` and `}` (absent for trait
    /// method declarations).
    pub body: Option<(usize, usize)>,
}

/// Recovers every `fn` item (any nesting depth) from a lexed file.
pub fn function_items(toks: &[Token]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if ident(&toks[i]) != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else { break };
        let Some(name) = ident(name_tok) else {
            i += 1;
            continue;
        };
        let is_pub = has_pub_before(toks, i);
        let mut j = i + 2;
        // Skip generics `<…>` (angle-depth counting; `->` cannot appear
        // before the parameter list).
        if punct(&toks[j.min(toks.len() - 1)]) == Some('<') {
            let mut depth = 0i32;
            while j < toks.len() {
                match punct(&toks[j]) {
                    Some('<') => depth += 1,
                    Some('>') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if toks.get(j).and_then(punct) != Some('(') {
            i += 1;
            continue;
        }
        let close_paren = matching(toks, j);
        let (has_self, params) = parse_params(&toks[j + 1..close_paren]);
        // Find the body `{` (or `;` for a bodiless declaration). The
        // return type may contain `<…>` but never a brace; an array type
        // like `-> [u8; 2]` carries a `;` that must not read as bodiless,
        // so `;` only terminates at bracket depth 0.
        let mut k = close_paren + 1;
        let mut body = None;
        let mut bracket = 0i32;
        while k < toks.len() {
            match punct(&toks[k]) {
                Some('[') => bracket += 1,
                Some(']') => bracket -= 1,
                Some('{') => {
                    body = Some((k, matching(toks, k)));
                    break;
                }
                Some(';') if bracket == 0 => break,
                _ => {}
            }
            k += 1;
        }
        out.push(FnItem {
            name: name.to_string(),
            line: name_tok.line,
            name_idx: i + 1,
            is_pub,
            has_self,
            params,
            body,
        });
        i += 2;
    }
    out
}

/// Whether the tokens before the `fn` at `i` spell a `pub` visibility
/// (possibly `pub(crate)`/`pub(super)`, possibly behind qualifiers).
fn has_pub_before(toks: &[Token], mut i: usize) -> bool {
    while i > 0 {
        let prev = &toks[i - 1];
        match ident(prev) {
            Some("const") | Some("unsafe") | Some("async") | Some("extern") => i -= 1,
            Some("pub") => return true,
            _ => {
                if prev.kind == TokenKind::Str {
                    // extern "C"
                    i -= 1;
                } else if punct(prev) == Some(')') {
                    // Possibly the tail of `pub(crate)`.
                    let mut j = i - 1;
                    while j > 0 && punct(&toks[j]) != Some('(') {
                        j -= 1;
                    }
                    return j > 0 && ident(&toks[j - 1]) == Some("pub");
                } else {
                    return false;
                }
            }
        }
    }
    false
}

/// Splits a parameter-list token slice at top-level commas and parses
/// each parameter. Returns `(has_self, params)`.
fn parse_params(toks: &[Token]) -> (bool, Vec<Param>) {
    let mut chunks: Vec<&[Token]> = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (j, t) in toks.iter().enumerate() {
        match punct(t) {
            Some('(') | Some('[') | Some('<') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            // Not the `>` of a `->` in an `Fn(..) -> T` bound.
            Some('>') if j == 0 || punct(&toks[j - 1]) != Some('-') => depth -= 1,
            Some(',') if depth == 0 => {
                chunks.push(&toks[start..j]);
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        chunks.push(&toks[start..]);
    }

    let mut has_self = false;
    let mut params = Vec::new();
    for chunk in chunks {
        if chunk.iter().any(|t| ident(t) == Some("self")) {
            has_self = true;
            continue;
        }
        // The type starts after the top-level `:` (there is exactly one in
        // a non-receiver parameter; pattern parameters keep it top-level).
        let mut depth = 0i32;
        let mut colon = None;
        for (j, t) in chunk.iter().enumerate() {
            match punct(t) {
                Some('(') | Some('[') | Some('<') => depth += 1,
                Some(')') | Some(']') | Some('>') => depth -= 1,
                Some(':') if depth == 0 => {
                    colon = Some(j);
                    break;
                }
                _ => {}
            }
        }
        let ty = match colon {
            Some(c) => &chunk[c + 1..],
            None => continue,
        };
        let by_mut_ref =
            ty.windows(2).any(|w| punct(&w[0]) == Some('&') && ident(&w[1]) == Some("mut"))
                || ty.windows(3).any(|w| {
                    punct(&w[0]) == Some('&')
                        && w[1].kind == TokenKind::Lifetime
                        && ident(&w[2]) == Some("mut")
                });
        let type_idents = ty.iter().filter_map(|t| ident(t).map(str::to_string)).collect();
        params.push(Param { by_mut_ref, type_idents });
    }
    (has_self, params)
}

/// Runs both scope rules over one parsed file; functions inside
/// `#[cfg(test)] mod` blocks are exempt, like everywhere else in the
/// linter.
pub fn scope_rules(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &file.lexed.tokens;
    for def in &file.defs {
        if file.in_tests(def.item.name_idx) {
            continue;
        }
        check_tracer_threading(&file.label, toks, &def.item, &mut out);
        check_mask_mutation_after_upload(&file.label, toks, &def.item, &mut out);
    }
    out
}

fn check_tracer_threading(file: &str, toks: &[Token], item: &FnItem, out: &mut Vec<Finding>) {
    if !item.is_pub || item.has_self {
        return;
    }
    let mutates_state = item.params.iter().any(|p| {
        p.by_mut_ref && p.type_idents.iter().any(|t| STATEFUL_TYPES.contains(&t.as_str()))
    });
    if !mutates_state {
        return;
    }
    let has_tracer_param = item.params.iter().any(|p| p.type_idents.iter().any(|t| t == "Tracer"));
    if has_tracer_param {
        return;
    }
    // A body that touches a tracer (e.g. `fed.tracer().emit(…)`) has
    // observability even without a dedicated parameter.
    if let Some((open, close)) = item.body {
        if toks[open..=close].iter().any(|t| ident(t) == Some("tracer")) {
            return;
        }
    }
    out.push(Finding {
        file: file.to_string(),
        line: item.line,
        rule: TRACER_THREADING,
        message: format!(
            "pub fn `{}` takes &mut model/mask state but no Tracer; thread the \
             round tracer through (or justify) so this path stays observable",
            item.name
        ),
        suppressed: false,
    });
}

/// Mask-named identifiers: the flat per-client masks the round protocol
/// freezes at upload time.
fn is_mask_name(name: &str) -> bool {
    name == "mask" || name == "masks" || name.ends_with("_mask") || name.ends_with("_masks")
}

fn check_mask_mutation_after_upload(
    file: &str,
    toks: &[Token],
    item: &FnItem,
    out: &mut Vec<Finding>,
) {
    let Some((open, close)) = item.body else { return };
    // The first `Upload` emission in the body; everything textually after
    // it runs after the bytes-on-the-wire number was fixed.
    let Some(upload) = (open..=close).find(|&j| ident(&toks[j]) == Some("Upload")) else {
        return;
    };
    let mut j = upload + 1;
    while j < close {
        if let Some(name) = ident(&toks[j]) {
            if is_mask_name(name) {
                if let Some(how) = mutation_after(toks, j, close) {
                    out.push(Finding {
                        file: file.to_string(),
                        line: toks[j].line,
                        rule: MASK_MUTATION_AFTER_UPLOAD,
                        message: format!(
                            "`{name}` is {how} after the round's Upload emission in \
                             `{}`; the uploaded byte count no longer describes the mask",
                            item.name
                        ),
                        suppressed: false,
                    });
                }
            }
        }
        j += 1;
    }
}

/// If the mask-named identifier at `i` is mutated, says how; `None` when
/// the use is read-only. Checks three shapes: `&mut name`, assignment
/// (`name[…] = …`, compound operators included), and a mutating method
/// call (`name.push(…)`, `name.tensors_mut(…)`).
fn mutation_after(toks: &[Token], i: usize, close: usize) -> Option<&'static str> {
    if i >= 2 && ident(&toks[i - 1]) == Some("mut") && punct(&toks[i - 2]) == Some('&') {
        return Some("passed by &mut");
    }
    // Skip any `[…]` index groups after the name.
    let mut j = i + 1;
    while j < close && punct(&toks[j]) == Some('[') {
        j = matching(toks, j) + 1;
    }
    match toks.get(j).and_then(punct) {
        Some('=') if toks.get(j + 1).and_then(punct) != Some('=') => {
            return Some("assigned");
        }
        Some(op @ ('+' | '-' | '*' | '/' | '&' | '|' | '^'))
            if toks.get(j + 1).and_then(punct) == Some('=') =>
        {
            // `&& =`-style false matches are impossible: `&&` lexes as two
            // '&' puncts and the second would be the op here, still `&=`.
            let _ = op;
            return Some("compound-assigned");
        }
        Some('.') => {
            if let Some(m) = toks.get(j + 1).and_then(ident) {
                if (m.ends_with("_mut") || MUTATING_METHODS.contains(&m))
                    && toks.get(j + 2).and_then(punct) == Some('(')
                {
                    return Some("mutated via a method call");
                }
            }
        }
        _ => {}
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const LABEL: &str = "crates/core/src/algorithms/fixture.rs";

    fn findings(src: &str) -> Vec<Finding> {
        scope_rules(&SourceFile::parse(LABEL, src))
    }

    #[test]
    fn function_items_recover_name_vis_params_body() {
        let src = "pub fn f<T: Ord>(a: &mut Sequential, b: usize) -> u8 { 0 }\nfn g();";
        let items = function_items(&lex(src).tokens);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "f");
        assert!(items[0].is_pub);
        assert!(!items[0].has_self);
        assert_eq!(items[0].params.len(), 2);
        assert!(items[0].params[0].by_mut_ref);
        assert!(items[0].params[0].type_idents.contains(&"Sequential".to_string()));
        assert!(items[0].body.is_some());
        assert!(!items[1].is_pub);
        assert!(items[1].body.is_none());
    }

    #[test]
    fn pub_crate_and_self_receivers_are_recognised() {
        let src = "impl X { pub(crate) fn m(&self, p: &mut ModelMask) {} }";
        let items = function_items(&lex(src).tokens);
        assert_eq!(items.len(), 1);
        assert!(items[0].is_pub);
        assert!(items[0].has_self);
        assert_eq!(items[0].params.len(), 1);
    }

    #[test]
    fn tracer_threading_flags_untraced_mut_state() {
        let src = "pub fn eval(model: &mut Sequential, n: usize) -> f32 { 0.0 }";
        let fs = findings(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, TRACER_THREADING);
        assert!(fs[0].message.contains("`eval`"));
    }

    #[test]
    fn tracer_param_or_receiver_or_body_use_satisfies_the_rule() {
        let with_param = "pub fn a(m: &mut Sequential, tr: &Tracer) {}";
        let with_self = "impl F { pub fn b(&self, m: &mut Sequential) {} }";
        let with_use = "pub fn c(fed: &Federation, m: &mut Sequential) { fed.tracer().flush(); }";
        let private = "fn d(m: &mut Sequential) {}";
        let read_only = "pub fn e(m: &Sequential) {}";
        for src in [with_param, with_self, with_use, private, read_only] {
            assert!(findings(src).is_empty(), "false positive on {src}");
        }
    }

    #[test]
    fn mask_mutation_after_upload_is_flagged() {
        let src = "fn step(masks: &mut Vec<M>) {\n\
                   t.emit(TraceEvent::Upload { round, client, bytes });\n\
                   masks[i] = new_mask;\n\
                   }";
        let fs = findings(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, MASK_MUTATION_AFTER_UPLOAD);
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn mask_mutation_before_upload_is_fine() {
        let src = "fn step(masks: &mut Vec<M>) {\n\
                   masks[i] = new_mask;\n\
                   t.emit(TraceEvent::Upload { round, client, bytes });\n\
                   let n = masks[i].kept();\n\
                   let d = flat_mask.iter().sum();\n\
                   }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn mutating_method_and_mut_borrow_after_upload_are_flagged() {
        let src = "fn step() {\n\
                   t.emit(TraceEvent::Upload { round, client, bytes });\n\
                   flat_mask.push(1.0);\n\
                   rebuild(&mut masks);\n\
                   }";
        let fs = findings(src);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == MASK_MUTATION_AFTER_UPLOAD));
    }

    #[test]
    fn compound_assignment_is_flagged_but_comparison_is_not() {
        let hit = "fn a() { emit(Upload); mask &= other; }";
        let miss = "fn b() { emit(Upload); if mask == other { } }";
        assert_eq!(findings(hit).len(), 1);
        assert!(findings(miss).is_empty(), "== is not a mutation");
    }

    #[test]
    fn functions_in_test_ranges_are_exempt() {
        let src = "fn lib() { emit(Upload); mask = m; }";
        assert_eq!(findings(src).len(), 1);
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}");
        assert!(findings(&in_tests).is_empty());
    }

    #[test]
    fn applies_only_to_engine_and_algorithms() {
        assert!(applies_to("crates/core/src/engine.rs"));
        assert!(applies_to("crates/core/src/algorithms/subfedavg.rs"));
        assert!(!applies_to("crates/nn/src/mask.rs"));
        assert!(!applies_to("crates/core/src/aggregate.rs"));
    }
}
