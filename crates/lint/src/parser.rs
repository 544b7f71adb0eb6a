//! A lightweight item/expression parser layered on [`crate::lexer`]:
//! just enough structure for the call-graph and dataflow analyses.
//!
//! Three recoveries, all panic-free on arbitrary workspace source:
//!
//! * **items** — every `fn` definition with its enclosing `impl` type
//!   ([`parse_file`]), so `Tensor::from_parts` and a free `gemm` resolve
//!   to different call-graph nodes even when names collide;
//! * **call sites** — `name(…)`, `recv.method(…)`, `Path::assoc(…)`, and
//!   turbofish forms inside a token range ([`call_sites`]); macros and
//!   definitions are excluded;
//! * **loop bodies** — the brace span of every `for`/`while`/`loop`
//!   (labeled or not) inside a token range ([`loop_bodies`]), which is
//!   what makes "per-batch" a checkable region.
//!
//! Like the lexer, the parser never panics on malformed input — an
//! unparsable construct degrades to "no item recovered", never an abort,
//! because the linter must survive every file it scans.

use crate::lexer::{ident, matching, punct, punct_at, Token, TokenKind};
use crate::scope::{function_items, FnItem};

/// One `fn` definition with its `impl` context.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Structural facts from the scope layer: name, visibility, params,
    /// body span.
    pub item: FnItem,
    /// The `Self` type of the enclosing `impl` block, when there is one
    /// (`impl Layer for Conv2d` and `impl Conv2d` both yield `Conv2d`).
    pub impl_type: Option<String>,
}

impl FnDef {
    /// `Type::name` for methods, bare `name` for free functions.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.item.name),
            None => self.item.name.clone(),
        }
    }
}

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called name (`gemm`, `take_scratch`, `from_mask`, …).
    pub callee: String,
    /// The path segment directly before `::`, when the call is
    /// path-qualified (`RowPattern::from_mask` → `RowPattern`,
    /// `Self::helper` → `Self`).
    pub qualifier: Option<String>,
    /// Whether the call uses method syntax (`recv.name(…)`).
    pub is_method: bool,
    /// 1-based source line of the callee token.
    pub line: usize,
    /// Token index of the callee token.
    pub idx: usize,
    /// Token index of the argument list's `(` (past any turbofish).
    pub open: usize,
}

/// Parses one lexed file into its function definitions.
pub fn parse_file(toks: &[Token]) -> Vec<FnDef> {
    let impls = impl_ranges(toks);
    function_items(toks)
        .into_iter()
        .map(|item| {
            // The innermost impl block containing the name token wins
            // (nested impls inside fn bodies are legal Rust).
            let impl_type = impls
                .iter()
                .filter(|(_, lo, hi)| item.name_idx > *lo && item.name_idx < *hi)
                .min_by_key(|(_, lo, hi)| hi - lo)
                .map(|(name, _, _)| name.clone());
            FnDef { item, impl_type }
        })
        .collect()
}

/// Every `impl` block as `(self_type, open_brace_idx, close_brace_idx)`.
///
/// The self type is the last path segment of the type after `for` (trait
/// impls) or directly after the generics (inherent impls); `where`
/// clauses and reference/pointer sigils are skipped.
pub fn impl_ranges(toks: &[Token]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if ident(&toks[i]) != Some("impl") {
            i += 1;
            continue;
        }
        // Walk the header up to the body `{` at angle-depth 0, remembering
        // the last identifier of the self-type path. `for` resets the
        // candidate (trait name → self type); `where` ends the type.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut candidate: Option<String> = None;
        let mut in_where = false;
        while j < toks.len() {
            match &toks[j].kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') => angle -= 1,
                TokenKind::Punct('{') if angle <= 0 => break,
                TokenKind::Punct(';') if angle <= 0 => break, // `impl Trait for T;`-like degenerate
                TokenKind::Ident(s) if angle <= 0 => match s.as_str() {
                    "for" => candidate = None,
                    "where" => in_where = true,
                    "dyn" | "mut" | "const" | "unsafe" => {}
                    name if !in_where => candidate = Some(name.to_string()),
                    _ => {}
                },
                _ => {}
            }
            j += 1;
        }
        if j < toks.len() && punct(&toks[j]) == Some('{') {
            let close = matching(toks, j);
            if let Some(name) = candidate {
                out.push((name, j, close));
            }
            // Impl bodies may hold nested impls only inside fn bodies;
            // continuing from just past the header keeps those visible.
            i = j + 1;
        } else {
            i = j;
        }
    }
    out
}

/// Rust keywords that look like `ident (` but never name a call.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "loop", "return", "in", "let", "fn", "move", "break", "continue",
];

/// Extracts call sites from `toks[lo..=hi]`.
///
/// Recognised shapes: `name(…)`, `name::<T>(…)`, `recv.name(…)`,
/// `Path::name(…)`. Excluded: macro invocations (`name!(…)`), function
/// definitions (`fn name(…)`), and keyword headers (`if (…)`).
pub fn call_sites(toks: &[Token], lo: usize, hi: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    let hi = hi.min(toks.len().saturating_sub(1));
    let mut i = lo;
    while i <= hi {
        let Some(name) = ident(&toks[i]) else {
            i += 1;
            continue;
        };
        if NON_CALL_KEYWORDS.contains(&name) {
            i += 1;
            continue;
        }
        // A definition, not a call.
        if i > 0 && ident(&toks[i - 1]) == Some("fn") {
            i += 1;
            continue;
        }
        // Where does the argument list have to start? Directly after the
        // name, or after a turbofish `::<…>`.
        let mut open = i + 1;
        if punct_at(toks, open) == Some(':')
            && punct_at(toks, open + 1) == Some(':')
            && punct_at(toks, open + 2) == Some('<')
        {
            let mut depth = 0i32;
            let mut k = open + 2;
            while k <= hi {
                match punct_at(toks, k) {
                    Some('<') => depth += 1,
                    Some('>') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            open = k + 1;
        }
        if punct_at(toks, open) != Some('(') {
            i += 1;
            continue;
        }
        // `name !(…)` is a macro; the lexer guarantees `!` shows up as
        // punctuation between the ident and the paren.
        if punct_at(toks, i + 1) == Some('!') {
            i += 1;
            continue;
        }
        let is_method = i > 0 && punct_at(toks, i - 1) == Some('.');
        let qualifier =
            if i >= 3 && punct_at(toks, i - 1) == Some(':') && punct_at(toks, i - 2) == Some(':') {
                ident(&toks[i - 3]).map(str::to_string)
            } else {
                None
            };
        out.push(CallSite {
            callee: name.to_string(),
            qualifier,
            is_method,
            line: toks[i].line,
            idx: i,
            open,
        });
        i += 1;
    }
    out
}

/// Brace spans of every loop body (`for`/`while`/`loop`, labeled forms
/// included) inside `toks[lo..=hi]`, innermost loops listed too.
///
/// The body `{` is the first brace at bracket/paren depth 0 after the
/// keyword — sound because Rust forbids bare struct literals in loop
/// header expressions, and closure bodies in the header sit inside
/// parentheses.
pub fn loop_bodies(toks: &[Token], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let hi = hi.min(toks.len().saturating_sub(1));
    for i in lo..=hi {
        let Some(kw) = ident(&toks[i]) else { continue };
        if !matches!(kw, "for" | "while" | "loop") {
            continue;
        }
        // A higher-ranked `for<'a>` bound is not a loop.
        if kw == "for" && punct_at(toks, i + 1) == Some('<') {
            continue;
        }
        // `break 'label loop`-adjacent false positives are impossible:
        // `loop` after `break` never carries a body before the `;`.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut open = None;
        let mut saw_in = false;
        while j <= hi {
            match punct_at(toks, j) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some('{') if depth == 0 => {
                    open = Some(j);
                    break;
                }
                Some(';') if depth == 0 => break,
                _ => {
                    if depth == 0 && ident(&toks[j]) == Some("in") {
                        saw_in = true;
                    }
                }
            }
            j += 1;
        }
        // A loop's `for` always binds a pattern with a top-level `in`;
        // `impl Trait for Type { … }` never does — that distinction is
        // what keeps impl headers out of the loop list.
        if kw == "for" && !saw_in {
            continue;
        }
        if let Some(open) = open {
            out.push((open, matching(toks, open)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn impl_ranges_recover_inherent_trait_and_generic_impls() {
        let src = "impl Foo { fn a(&self) {} }\n\
                   impl<T: Ord> Bar<T> where T: Clone { fn b() {} }\n\
                   impl fmt::Display for Violation { fn fmt(&self) {} }\n\
                   impl Layer for Conv2d { fn c(&self) {} }";
        let lexed = lex(src);
        let ranges = impl_ranges(&lexed.tokens);
        let names: Vec<&str> = ranges.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Foo", "Bar", "Violation", "Conv2d"]);
    }

    #[test]
    fn parse_file_attributes_methods_to_their_impl_type() {
        let src = "fn free() {}\nimpl Conv2d { pub fn forward_ws(&mut self) { helper(); } }\nfn helper() {}";
        let defs = parse_file(&lex(src).tokens);
        assert_eq!(defs.len(), 3);
        assert_eq!(defs[0].qualified(), "free");
        assert_eq!(defs[1].qualified(), "Conv2d::forward_ws");
        assert_eq!(defs[2].qualified(), "helper");
    }

    #[test]
    fn call_sites_classify_bare_method_path_and_turbofish() {
        let src = "fn f() { gemm(1); x.clone(); Tensor::from_parts(v); \
                   it.collect::<Vec<_>>(); vec![0.0; 4]; if cond { } Self::helper(); }";
        let lexed = lex(src);
        let calls = call_sites(&lexed.tokens, 0, lexed.tokens.len() - 1);
        let names: Vec<(&str, Option<&str>, bool)> = calls
            .iter()
            .map(|c| (c.callee.as_str(), c.qualifier.as_deref(), c.is_method))
            .collect();
        assert!(names.contains(&("gemm", None, false)));
        assert!(names.contains(&("clone", None, true)));
        assert!(names.contains(&("from_parts", Some("Tensor"), false)));
        assert!(names.contains(&("collect", None, true)));
        assert!(names.contains(&("helper", Some("Self"), false)));
        // `vec!` is a macro, `if` a keyword, `f` a definition.
        assert!(!names.iter().any(|(n, _, _)| *n == "vec" || *n == "if" || *n == "f"));
    }

    #[test]
    fn loop_bodies_cover_for_while_loop_and_labels() {
        let src = "fn f() {\n\
                   for i in 0..n { a(); }\n\
                   while let Some(x) = it.next() { b(); }\n\
                   'outer: loop { c(); break 'outer; }\n\
                   let g = |x: u8| x; // not a loop\n\
                   }";
        let lexed = lex(src);
        let loops = loop_bodies(&lexed.tokens, 0, lexed.tokens.len() - 1);
        assert_eq!(loops.len(), 3, "{loops:?}");
        let in_loop = |name: &str| {
            let idx = lexed
                .tokens
                .iter()
                .position(|t| ident(t) == Some(name))
                .unwrap_or_else(|| panic!("no token {name}"));
            loops.iter().any(|&(lo, hi)| idx > lo && idx < hi)
        };
        assert!(in_loop("a") && in_loop("b") && in_loop("c"));
        assert!(!in_loop("g"));
    }

    #[test]
    fn hrtb_for_bound_and_impl_for_are_not_loops() {
        let src = "impl Layer for Conv2d { fn f(&self) { take(|| 0); } }\n\
                   fn g<F>(f: F) where F: for<'a> Fn(&'a u8) {}";
        let lexed = lex(src);
        assert!(loop_bodies(&lexed.tokens, 0, lexed.tokens.len() - 1).is_empty());
    }

    #[test]
    fn closure_braces_inside_loop_headers_do_not_confuse_the_body() {
        let src = "fn f() { for x in v.iter().map(|y| { y + 1 }) { body(); } }";
        let lexed = lex(src);
        let loops = loop_bodies(&lexed.tokens, 0, lexed.tokens.len() - 1);
        assert_eq!(loops.len(), 1);
        let body_idx = lexed.tokens.iter().position(|t| ident(t) == Some("body")).unwrap();
        assert!(loops[0].0 < body_idx && body_idx < loops[0].1);
    }
}
