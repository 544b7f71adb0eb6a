//! Totality analysis: interprocedural panic-reachability, overflow-prone
//! length arithmetic, and swallowed errors.
//!
//! The decode→fold→aggregate spine must survive arbitrary bytes from
//! millions of untrusted clients, so the functions on it have to be
//! *total*: every input returns `Ok` or a typed `Err`, never a panic.
//! This module proves that statically and keeps it proven:
//!
//! * **Panic sources** are extracted per function from the token stream:
//!   panicking macros (`panic!`, `todo!`, `unimplemented!`,
//!   `unreachable!`, the `assert*!` family — `debug_assert*!` is exempt
//!   because it compiles out of release servers), `.unwrap()` /
//!   `.expect(…)`, bare slice indexing `x[i]` / `x[a..b]`, and `/` / `%`
//!   with a non-literal divisor. The poison-tolerant
//!   `lock_unpoisoned` idiom contains none of these shapes and so is
//!   total by construction, not by special case.
//! * **Reachability** is a breadth-first walk from each entry in
//!   [`TOTAL_ENTRIES`] (plus any `// lint: total`-marked function) over
//!   the same name-resolved call graph the lock and taint analyses use,
//!   with parent pointers kept so every witness carries a full
//!   `via` chain (`entry → f → g`), same shape as `alloc-under-lock`.
//! * Three rules come out of the walk: [`PANIC_REACHABLE`] (a panic
//!   source on a total path), [`ARITH_OVERFLOW`] (unchecked `+`/`*`/`<<`
//!   on length/index-flavoured operands on a total path — the `4 * kept`
//!   class of bug), and [`ERROR_SWALLOW`] (a `*Error`-carrying `Result`
//!   discarded with `let _ =` or `.ok()` outside tests, anywhere in the
//!   analyzed crates).
//! * [`certify`] condenses the walk into a per-entry **panic-freedom
//!   certificate** (entry, verdict, witness count, allow count) that
//!   `subfed-lint certify` emits and CI diffs against the committed
//!   `CERTIFIED.json`, so the certified surface only changes on purpose.
//!
//! Like every analysis here, this is an over-approximation on names, not
//! types: a finding means "this shape is on a total path as far as the
//! call graph can tell", and a counted `// lint: allow(panic-reachable)`
//! on the site is the escape hatch for the cases the analysis cannot see
//! are safe. Method names in [`TOTAL_SHADOWED`] do not resolve
//! unqualified: an unadorned `.map(…)`/`.push(…)` is overwhelmingly an
//! iterator adapter or `Vec::push`, and resolving it to `Tensor::map` or
//! `History::push` by name alone would drag the whole tensor layer into
//! every entry's closure.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

use crate::callgraph::{resolve, CallGraph, SourceFile};
use crate::lexer::{ident, ident_at, matching, punct, punct_at, MarkerKind, Token, TokenKind};
use crate::parser::{call_sites, CallSite};
use crate::rules::Finding;
use crate::summaries::Fact;
use crate::walk::parse_workspace;

/// Rule id: a panic source is reachable from a total entry point.
pub const PANIC_REACHABLE: &str = "panic-reachable";
/// Rule id: unchecked length/index arithmetic on a total path.
pub const ARITH_OVERFLOW: &str = "arith-overflow";
/// Rule id: an error-carrying `Result` is silently discarded.
pub const ERROR_SWALLOW: &str = "error-swallow";

/// Built-in total entry points (qualified names): the decode→fold spine
/// plus the registry/sampler surfaces a server feeds untrusted or
/// operator-supplied bytes. Extend with `// lint: total` markers.
pub const TOTAL_ENTRIES: [&str; 6] = [
    "ClientRegistry::load",
    "OrderedAccumulator::fold",
    "StreamingAccumulator::fold",
    "UniformSampler::sample",
    "decode_update",
    "decode_update_q8",
];

/// Method names that only resolve when path-qualified, over and above
/// the call graph's std-shadowed set (`len`/`is_empty`/`clone`): each has
/// a workspace impl, but unqualified call sites are overwhelmingly std
/// (`Iterator::map`/`min`/`max`, `Vec::push`).
pub const TOTAL_SHADOWED: [&str; 4] = ["map", "max", "min", "push"];

/// Macros whose expansion can panic at runtime. `debug_assert*!` is
/// deliberately absent: it is compiled out of the release binaries a
/// server runs, so it documents an invariant without breaking totality.
const PANICKING_MACROS: [&str; 7] =
    ["assert", "assert_eq", "assert_ne", "panic", "todo", "unimplemented", "unreachable"];

/// Identifier fragments that mark an operand as byte-length or index
/// math — the arithmetic whose silent wraparound turns a malformed
/// header into an under-allocation or out-of-bounds slice.
const LEN_HINTS: [&str; 19] = [
    "byte",
    "cap",
    "cohort",
    "count",
    "dim",
    "end",
    "idx",
    "index",
    "kept",
    "len",
    "need",
    "off",
    "offset",
    "param",
    "pos",
    "registered",
    "size",
    "slot",
    "start",
];

/// Keywords that can precede `[` or an operator without forming an
/// expression operand (`let [a, b] = …`, `as *const f32`, …).
const EXPR_KEYWORDS: [&str; 26] = [
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "fn", "for", "if", "impl",
    "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "static", "struct",
    "trait", "while",
];

/// One may-panic site inside a single function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// 1-based source line.
    pub line: usize,
    /// Rendered shape (`` `.unwrap()` ``, `` `buf[…]` indexing ``, …).
    pub what: String,
}

/// One unchecked length-arithmetic site inside a single function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArithSite {
    /// 1-based source line.
    pub line: usize,
    /// The operator (`+`, `*`, `<<`, or their `=`-compound forms).
    pub op: String,
    /// The operand identifier that tripped the length-math heuristic.
    pub hint: String,
}

fn is_expr_operand(tok: Option<&Token>) -> bool {
    match tok.map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) => !EXPR_KEYWORDS.contains(&s.as_str()),
        Some(TokenKind::Int(_)) => true,
        Some(TokenKind::Punct(c)) => matches!(c, ')' | ']'),
        _ => false,
    }
}

fn operand_ident(tok: Option<&Token>) -> Option<&str> {
    match tok.map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) if !EXPR_KEYWORDS.contains(&s.as_str()) => Some(s),
        _ => None,
    }
}

fn len_hinted(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    LEN_HINTS.iter().any(|h| lower.contains(h))
}

/// Extracts every may-panic shape in `toks[open..=close]`.
pub fn panic_sites(toks: &[Token], open: usize, close: usize) -> Vec<PanicSite> {
    let mut out = Vec::new();
    for i in open..=close.min(toks.len().saturating_sub(1)) {
        let line = toks[i].line;
        match &toks[i].kind {
            TokenKind::Ident(name) => {
                let next = toks.get(i + 1).and_then(punct);
                if PANICKING_MACROS.contains(&name.as_str()) && next == Some('!') {
                    out.push(PanicSite { line, what: format!("`{name}!`") });
                } else if (name == "unwrap" || name == "expect")
                    && toks.get(i.wrapping_sub(1)).and_then(punct) == Some('.')
                    && next == Some('(')
                    && i > 0
                {
                    out.push(PanicSite { line, what: format!("`.{name}()`") });
                }
            }
            TokenKind::Punct('[') if i > open => {
                // `x[i]` / `f(..)[i]` / `x[a..b]` indexing. Array
                // literals, attributes, slice patterns, and types are
                // excluded by what precedes the bracket.
                let prev = toks.get(i - 1);
                if is_expr_operand(prev) {
                    let what = match operand_ident(prev) {
                        Some(recv) => format!("`{recv}[…]` indexing"),
                        None => "`[…]` indexing".to_string(),
                    };
                    out.push(PanicSite { line, what });
                }
            }
            TokenKind::Punct(c @ ('/' | '%')) if i > open => {
                if !is_expr_operand(toks.get(i - 1)) {
                    continue; // not a binary use (path sep is `::`, never `/`)
                }
                let div_at =
                    if toks.get(i + 1).and_then(punct) == Some('=') { i + 2 } else { i + 1 };
                let literal = matches!(
                    toks.get(div_at).map(|t| &t.kind),
                    Some(TokenKind::Int(_)) | Some(TokenKind::Float)
                );
                if !literal {
                    out.push(PanicSite { line, what: format!("`{c}` by a non-literal divisor") });
                }
            }
            _ => {}
        }
    }
    out
}

/// Extracts every unchecked `+`/`*`/`<<` (and `=`-compound form) whose
/// operand names look like byte-length or index math. Float operands and
/// hint-free operands are skipped — the rule targets the `4 * kept`
/// class, not arithmetic in general.
pub fn arith_sites(toks: &[Token], open: usize, close: usize) -> Vec<ArithSite> {
    let mut out = Vec::new();
    for i in open..=close.min(toks.len().saturating_sub(1)) {
        let line = toks[i].line;
        let (op, rhs_at) = match toks[i].kind {
            TokenKind::Punct(c @ ('+' | '*')) => {
                if toks.get(i + 1).and_then(punct) == Some('=') {
                    (format!("{c}="), i + 2)
                } else {
                    (c.to_string(), i + 1)
                }
            }
            TokenKind::Punct('<') => {
                // `<<` / `<<=`, first token of the pair only.
                if toks.get(i + 1).and_then(punct) != Some('<')
                    || (i > 0 && toks.get(i - 1).and_then(punct) == Some('<'))
                {
                    continue;
                }
                if toks.get(i + 2).and_then(punct) == Some('=') {
                    ("<<=".to_string(), i + 3)
                } else {
                    ("<<".to_string(), i + 2)
                }
            }
            _ => continue,
        };
        if i == open || !is_expr_operand(toks.get(i - 1)) {
            continue; // unary `*`/`&`-adjacent or type position
        }
        let float_adjacent = matches!(toks.get(i - 1).map(|t| &t.kind), Some(TokenKind::Float))
            || matches!(toks.get(rhs_at).map(|t| &t.kind), Some(TokenKind::Float));
        if float_adjacent {
            continue;
        }
        let hint = [operand_ident(toks.get(i - 1)), operand_ident(toks.get(rhs_at))]
            .into_iter()
            .flatten()
            .find(|n| len_hinted(n));
        if let Some(hint) = hint {
            out.push(ArithSite { line, op, hint: hint.to_string() });
        }
    }
    out
}

/// One reachable hazard, attributed to the entry whose walk found it.
#[derive(Debug, Clone)]
pub struct Witness {
    /// [`PANIC_REACHABLE`] or [`ARITH_OVERFLOW`].
    pub rule: &'static str,
    /// Site and `via` chain (entry excluded, containing function last).
    pub fact: Fact,
}

/// The totality walk of one entry point.
#[derive(Debug, Clone)]
pub struct EntryAudit {
    /// Qualified entry name (`ClientRegistry::load`, `decode_update`).
    pub entry: String,
    /// Every panic/arith site reachable from the entry.
    pub witnesses: Vec<Witness>,
}

/// Call edges for the totality walk: the analyzer's name resolution with
/// [`TOTAL_SHADOWED`] names held back and test nodes dropped.
fn totality_edges(files: &[SourceFile], graph: &CallGraph) -> Vec<Vec<usize>> {
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes.len()];
    for (i, node) in graph.nodes.iter().enumerate() {
        if node.in_tests {
            continue;
        }
        let def = &files[node.file].defs[node.def];
        let Some((open, close)) = def.item.body else { continue };
        for call in call_sites(&files[node.file].lexed.tokens, open, close) {
            if call.is_method
                && call.qualifier.is_none()
                && TOTAL_SHADOWED.contains(&call.callee.as_str())
            {
                continue;
            }
            let targets = resolve(
                &graph.nodes,
                files,
                node,
                &call.callee,
                call.qualifier.as_deref(),
                call.is_method,
            );
            for t in targets {
                if !graph.nodes[t].in_tests && !edges[i].contains(&t) {
                    edges[i].push(t);
                }
            }
        }
    }
    edges
}

/// Whether `def` in `file` carries a `// lint: total` marker.
fn total_marked(file: &SourceFile, def_line: usize) -> bool {
    file.lexed
        .markers
        .iter()
        .any(|m| m.kind == MarkerKind::Total && (m.line == def_line || m.line + 1 == def_line))
}

/// Runs the totality walk for every entry point, in entry-name order.
pub fn audit_entries(files: &[SourceFile], graph: &CallGraph) -> Vec<EntryAudit> {
    let edges = totality_edges(files, graph);
    let mut entries: Vec<(String, usize)> = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if node.in_tests {
            continue;
        }
        let def = &files[node.file].defs[node.def];
        let q = def.qualified();
        if TOTAL_ENTRIES.contains(&q.as_str()) || total_marked(&files[node.file], def.item.line) {
            entries.push((q, i));
        }
    }
    entries.sort();
    entries.iter().map(|(q, i)| audit_one(q, *i, files, graph, &edges)).collect()
}

fn audit_one(
    entry: &str,
    start: usize,
    files: &[SourceFile],
    graph: &CallGraph,
    edges: &[Vec<usize>],
) -> EntryAudit {
    let mut parent: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut seen = vec![false; graph.nodes.len()];
    let mut order = Vec::new();
    let mut queue = VecDeque::from([start]);
    seen[start] = true;
    while let Some(n) = queue.pop_front() {
        order.push(n);
        for &t in &edges[n] {
            if !seen[t] {
                seen[t] = true;
                parent[t] = Some(n);
                queue.push_back(t);
            }
        }
    }
    let mut witnesses = Vec::new();
    for n in order {
        let node = &graph.nodes[n];
        let file = &files[node.file];
        let def = &file.defs[node.def];
        let Some((open, close)) = def.item.body else { continue };
        // The chain from the entry's first callee down to `n` (empty for
        // sites in the entry itself) — the `via` path of each witness.
        let mut via = Vec::new();
        let mut at = n;
        while at != start {
            let d = &files[graph.nodes[at].file].defs[graph.nodes[at].def];
            via.push(d.qualified());
            at = parent[at].expect("BFS parent chain reaches the entry");
        }
        via.reverse();
        let toks = &file.lexed.tokens;
        for s in panic_sites(toks, open, close) {
            witnesses.push(Witness {
                rule: PANIC_REACHABLE,
                fact: Fact {
                    via: via.clone(),
                    file: file.label.clone(),
                    line: s.line,
                    what: s.what,
                },
            });
        }
        for s in arith_sites(toks, open, close) {
            witnesses.push(Witness {
                rule: ARITH_OVERFLOW,
                fact: Fact {
                    via: via.clone(),
                    file: file.label.clone(),
                    line: s.line,
                    what: format!("unchecked `{}` on `{}`", s.op, s.hint),
                },
            });
        }
    }
    EntryAudit { entry: entry.to_string(), witnesses }
}

/// All findings of the three totality rules, deduplicated across entries
/// (the first entry in name order claims a shared site).
pub fn totality_findings(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    let mut dedup: BTreeMap<(String, usize, &'static str), Finding> = BTreeMap::new();
    for audit in audit_entries(files, graph) {
        for w in &audit.witnesses {
            let key = (w.fact.file.clone(), w.fact.line, w.rule);
            if dedup.contains_key(&key) {
                continue;
            }
            let chain = if w.fact.via.is_empty() {
                String::new()
            } else {
                let path =
                    w.fact.via.iter().map(|f| format!("`{f}`")).collect::<Vec<_>>().join(" → ");
                format!(", via {path}")
            };
            let message = match w.rule {
                PANIC_REACHABLE => format!(
                    "{} is reachable from total entry `{}`{chain} — return a typed error instead",
                    w.fact.what, audit.entry
                ),
                _ => format!(
                    "{} on the total path from `{}`{chain} — use checked_*/saturating_* math",
                    w.fact.what, audit.entry
                ),
            };
            dedup.insert(
                key,
                Finding {
                    file: w.fact.file.clone(),
                    line: w.fact.line,
                    rule: w.rule,
                    message,
                    suppressed: false,
                },
            );
        }
    }
    let mut out: Vec<Finding> = dedup.into_values().collect();
    out.extend(swallow_findings(files, graph));
    out
}

/// `error-swallow`: calls whose `*Error`-carrying `Result` is discarded
/// with `let _ = …` or a trailing `.ok()`, outside test modules.
fn swallow_findings(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    // Workspace functions returning `Result<_, SomethingError>`: the
    // return-type tokens sit between `->` and the body's `{`.
    let mut carries: BTreeMap<usize, String> = BTreeMap::new();
    for (n, node) in graph.nodes.iter().enumerate() {
        let file = &files[node.file];
        let def = &file.defs[node.def];
        let Some((open, _)) = def.item.body else { continue };
        let toks = &file.lexed.tokens;
        let mut arrow = None;
        for i in def.item.name_idx..open {
            if crate::summaries::punct_run(toks, i, "->") {
                arrow = Some(i + 2);
                break;
            }
        }
        let Some(lo) = arrow else { continue };
        let ret: Vec<&str> = toks[lo..open].iter().filter_map(ident).collect();
        if ret.contains(&"Result") {
            if let Some(err) = ret.iter().find(|s| s.ends_with("Error")) {
                carries.insert(n, err.to_string());
            }
        }
    }
    let mut out = Vec::new();
    for (ci, node) in graph.nodes.iter().enumerate() {
        if node.in_tests {
            continue;
        }
        let file = &files[node.file];
        let def = &file.defs[node.def];
        let Some((open, close)) = def.item.body else { continue };
        let toks = &file.lexed.tokens;
        for call in call_sites(toks, open, close) {
            let targets = resolve(
                &graph.nodes,
                files,
                &graph.nodes[ci],
                &call.callee,
                call.qualifier.as_deref(),
                call.is_method,
            );
            let Some(err) = targets.iter().find_map(|t| carries.get(t)) else { continue };
            let how = if discarded_by_let(toks, call.idx) {
                Some("`let _ =`")
            } else if discarded_by_ok(toks, &call) {
                Some("`.ok()`")
            } else {
                None
            };
            if let Some(how) = how {
                out.push(Finding {
                    file: file.label.clone(),
                    line: call.line,
                    rule: ERROR_SWALLOW,
                    message: format!(
                        "result of `{}` (carries `{err}`) is discarded by {how} — handle or \
                         propagate the error",
                        call.callee
                    ),
                    suppressed: false,
                });
            }
        }
    }
    out
}

/// Whether the call at `idx` sits directly under a `let _ =` binding
/// (receiver/path tokens between `=` and the callee are walked over).
fn discarded_by_let(toks: &[Token], idx: usize) -> bool {
    let mut j = idx;
    while j > 0 {
        match &toks[j - 1].kind {
            TokenKind::Ident(s) if s != "let" && s != "_" => j -= 1,
            TokenKind::Punct('.') | TokenKind::Punct(':') | TokenKind::Punct('&') => j -= 1,
            _ => break,
        }
    }
    j >= 3
        && toks[j - 1].kind == TokenKind::Punct('=')
        && toks[j - 2].kind == TokenKind::Ident("_".into())
        && toks[j - 3].kind == TokenKind::Ident("let".into())
}

/// Whether the call is immediately followed by `.ok()` after its
/// argument list closes.
fn discarded_by_ok(toks: &[Token], call: &CallSite) -> bool {
    let end = matching(toks, call.open);
    punct_at(toks, end + 1) == Some('.')
        && ident_at(toks, end + 2) == Some("ok")
        && punct_at(toks, end + 3) == Some('(')
        && punct_at(toks, end + 4) == Some(')')
}

/// One line of the panic-freedom certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryCertificate {
    /// Qualified entry name.
    pub entry: String,
    /// `panic-free` when no unsuppressed witness remains.
    pub verdict: &'static str,
    /// Unsuppressed witness count (should be 0).
    pub witnesses: usize,
    /// Witnesses silenced by a counted `// lint: allow(…)`.
    pub allows: usize,
}

/// Condenses the totality walk into the per-entry certificate,
/// honouring `// lint: allow(panic-reachable|arith-overflow)` comments
/// on or directly above each witness line.
pub fn certify(files: &[SourceFile], graph: &CallGraph) -> Vec<EntryCertificate> {
    let allows: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.label.as_str(), f)).collect();
    audit_entries(files, graph)
        .into_iter()
        .map(|audit| {
            let (mut live, mut silenced) = (0usize, 0usize);
            for w in &audit.witnesses {
                let allowed = allows
                    .get(w.fact.file.as_str())
                    .is_some_and(|f| f.lexed.allows.iter().any(|a| a.covers(w.fact.line, w.rule)));
                if allowed {
                    silenced += 1;
                } else {
                    live += 1;
                }
            }
            EntryCertificate {
                entry: audit.entry,
                verdict: if live == 0 { "panic-free" } else { "panics-reachable" },
                witnesses: live,
                allows: silenced,
            }
        })
        .collect()
}

/// Parses the scanned crates under `root` (the same parse `check`
/// runs on) and certifies every entry. Returns the certificates and the
/// number of files scanned.
///
/// # Errors
///
/// Returns a message when a source tree cannot be read.
#[must_use = "the certificates carry the verdicts and the exit status"]
pub fn certify_workspace(root: &Path) -> Result<(Vec<EntryCertificate>, usize), String> {
    let files = parse_workspace(root)?;
    let graph = CallGraph::build(&files);
    Ok((certify(&files, &graph), files.len()))
}

/// The stable JSON rendering of a certificate set — one object per
/// entry, sorted by entry name; the format committed as `CERTIFIED.json`.
pub fn render_certificates_json(certs: &[EntryCertificate]) -> String {
    let mut out = String::from("[\n");
    for (i, c) in certs.iter().enumerate() {
        let sep = if i + 1 == certs.len() { "" } else { "," };
        out.push_str(&format!(
            "  {{\"entry\":\"{}\",\"verdict\":\"{}\",\"witnesses\":{},\"allows\":{}}}{sep}\n",
            c.entry, c.verdict, c.witnesses, c.allows
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(src: &str) -> Vec<String> {
        let file = SourceFile::parse("t.rs", src);
        let (open, close) = file.defs[0].item.body.expect("fixture fn has a body");
        panic_sites(&file.lexed.tokens, open, close).into_iter().map(|s| s.what).collect()
    }

    #[test]
    fn macros_unwrap_and_indexing_are_panic_sites() {
        let got = sites(
            "fn f(xs: &[u8], i: usize) -> u8 {\n\
             assert!(i > 0);\n\
             let v = xs.first().unwrap();\n\
             xs[i] + v\n\
             }",
        );
        assert_eq!(got, vec!["`assert!`", "`.unwrap()`", "`xs[…]` indexing"]);
    }

    #[test]
    fn debug_assert_vec_macro_and_literal_division_are_exempt() {
        let got = sites(
            "fn f(i: usize) -> usize {\n\
             debug_assert!(i < 8);\n\
             let v = vec![0u8; 4];\n\
             let b = i / 8 + v.len() % 2;\n\
             b\n\
             }",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn non_literal_divisor_and_unwrap_or_distinction() {
        let got = sites("fn f(a: usize, b: usize) -> usize { a.checked_div(b).unwrap_or(a / b) }");
        assert_eq!(got, vec!["`/` by a non-literal divisor"]);
    }

    #[test]
    fn slice_patterns_attributes_and_types_are_not_indexing() {
        let got = sites(
            "fn f(xs: &[u8; 2]) -> [u8; 2] {\n\
             #[allow(unused)]\n\
             let [a, b] = *xs;\n\
             let ys: [u8; 2] = [b, a];\n\
             ys\n\
             }",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    fn arith(src: &str) -> Vec<String> {
        let file = SourceFile::parse("t.rs", src);
        let (open, close) = file.defs[0].item.body.expect("fixture fn has a body");
        arith_sites(&file.lexed.tokens, open, close)
            .into_iter()
            .map(|s| format!("{} {}", s.op, s.hint))
            .collect()
    }

    #[test]
    fn length_flavoured_operands_are_flagged() {
        let got = arith(
            "fn f(kept: usize, n_bytes: usize) -> usize {\n\
             let a = 4 * kept;\n\
             let b = n_bytes + 8;\n\
             a + b\n\
             }",
        );
        assert_eq!(got, vec!["* kept", "+ n_bytes"]);
    }

    #[test]
    fn hint_free_and_float_arithmetic_is_exempt() {
        let got = arith(
            "fn f(i: usize, s: f32) -> f32 {\n\
             let mask = 1u8 << (i % 8);\n\
             let j = i + 1;\n\
             s * 2.0 + (j + mask as usize) as f32\n\
             }",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn generics_are_not_shifts() {
        let got = arith("fn f(v: Vec<Vec<u32>>, idx_list: Option<<u32 as TryInto<u8>>::Error>) -> usize { v.len() }");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn certificate_json_is_stable() {
        let certs = vec![
            EntryCertificate { entry: "a".into(), verdict: "panic-free", witnesses: 0, allows: 1 },
            EntryCertificate {
                entry: "b".into(),
                verdict: "panics-reachable",
                witnesses: 2,
                allows: 0,
            },
        ];
        let json = render_certificates_json(&certs);
        assert_eq!(
            json,
            "[\n  {\"entry\":\"a\",\"verdict\":\"panic-free\",\"witnesses\":0,\"allows\":1},\n  \
             {\"entry\":\"b\",\"verdict\":\"panics-reachable\",\"witnesses\":2,\"allows\":0}\n]\n"
        );
    }
}
