//! Bottom-up function summaries over the call graph, so the held-region
//! rules in [`crate::locks`] compose through calls.
//!
//! For every call-graph node the builder computes four monotone facts:
//!
//! * **allocates** — the body (or something it calls) contains one of the
//!   allocation shapes of [`alloc_sites`] (the same machinery behind the
//!   `hot-path-alloc` rule);
//! * **spawns** — the body reaches `spawn`/`thread::scope`;
//! * **blocks** — the body reaches a synchronous wait (`join()`/`recv()`)
//!   or an I/O call (`write_all`, `flush`, …), tracked separately because
//!   only the former is a deadlock shape worth flagging under a guard;
//! * **acquires** — the set of lock identities (see
//!   [`crate::locks::fn_acquisitions`]) the body may take.
//!
//! Each fact carries a witness [`Fact`]: the concrete site (file, line,
//! shape) plus the call chain from the summarised function down to it, so
//! a transitive finding can name *why* the summary holds. Facts are
//! set-once (a summary never loses a fact, and an existing witness is
//! never replaced), which makes the propagation a monotone fixpoint that
//! terminates in at most `depth-of-call-graph` passes.
//!
//! Test-module functions contribute nothing: their bodies may allocate,
//! spawn, and block freely, and poisoning a summary through a test-only
//! edge would leak test idioms into library findings.

use crate::callgraph::{CallGraph, SourceFile};
use crate::lexer::{ident, ident_at, punct, punct_at, Token, TokenKind};
use crate::parser::{call_sites, CallSite};
use std::collections::BTreeMap;

/// One allocation site inside a token range.
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// Token index of the triggering identifier.
    pub idx: usize,
    /// 1-based source line.
    pub line: usize,
    /// Rendered shape (`` `Vec::new()` ``, `` `.clone()` ``, …).
    pub what: &'static str,
}

/// The allocation shapes the workspace rules recognise, extracted from
/// `toks[open..=close]`. `Vec::with_capacity` is deliberately absent: it
/// is the idiom for a justified one-time allocation, and both the
/// `hot-path-alloc` and `alloc-under-lock` rules exempt it.
pub fn alloc_sites(toks: &[Token], open: usize, close: usize) -> Vec<AllocSite> {
    let mut out = Vec::new();
    let close = close.min(toks.len().saturating_sub(1));
    for i in open..=close {
        let Some(name) = ident(&toks[i]) else { continue };
        let prev = i.checked_sub(1).and_then(|p| toks.get(p)).and_then(punct);
        let next = toks.get(i + 1).and_then(punct);
        let what = match name {
            "Vec" if punct_run(toks, i + 1, "::") && ident_at(toks, i + 3) == Some("new") => {
                "`Vec::new()`"
            }
            "vec" if next == Some('!') => "`vec![…]`",
            "clone" if prev == Some('.') && next == Some('(') => "`.clone()`",
            "to_vec" if prev == Some('.') && next == Some('(') => "`.to_vec()`",
            "collect"
                if prev == Some('.') && (next == Some('(') || punct_run(toks, i + 1, "::<")) =>
            {
                "`.collect()`"
            }
            _ => continue,
        };
        out.push(AllocSite { idx: i, line: toks[i].line, what });
    }
    out
}

/// The spawn shape a call site matches, if any: `spawn(…)`/`.spawn(…)`
/// in any form, or `thread::scope(…)` (std's scoped-thread entry; the
/// parser takes `thread` as the qualifier of `std::thread::scope(…)`).
pub fn spawn_shape(call: &CallSite) -> Option<&'static str> {
    if call.callee == "spawn" {
        return Some("`spawn(…)`");
    }
    if call.callee == "scope" && call.qualifier.as_deref() == Some("thread") {
        return Some("`thread::scope(…)`");
    }
    None
}

/// Method names that block on I/O (a summary fact, not a finding: a sink
/// writing under its own flat lock is the workspace's serialisation
/// point, not a hazard).
const IO_BLOCKING: [&str; 6] =
    ["write_all", "flush", "read_to_end", "read_exact", "read_line", "sync_all"];

/// The synchronous-wait shape a call site matches (`handle.join()`,
/// `rx.recv()`): blocking on another thread while a guard is held is the
/// classic deadlock shape, so these *are* findings under a lock.
pub fn sync_block_shape(toks: &[Token], call: &CallSite) -> Option<&'static str> {
    if !call.is_method || !empty_args(toks, call.idx) {
        return None;
    }
    match call.callee.as_str() {
        "join" => Some("`join()`"),
        "recv" => Some("`recv()`"),
        _ => None,
    }
}

/// The I/O-blocking shape a call site matches, if any.
pub fn io_block_shape(call: &CallSite) -> Option<&'static str> {
    (call.is_method && IO_BLOCKING.contains(&call.callee.as_str())).then_some("I/O call")
}

/// Whether the call at token index `idx` has an empty argument list
/// directly after the callee name.
pub(crate) fn empty_args(toks: &[Token], idx: usize) -> bool {
    punct_at(toks, idx + 1) == Some('(') && punct_at(toks, idx + 2) == Some(')')
}

/// A witness for one summary fact: where the concrete site is, and the
/// call chain (qualified function names, outermost first, the summarised
/// function itself excluded) that reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// Call chain below the summarised function; empty for direct facts.
    pub via: Vec<String>,
    /// File label of the concrete site.
    pub file: String,
    /// 1-based line of the concrete site.
    pub line: usize,
    /// Rendered shape of the site.
    pub what: String,
}

impl Fact {
    /// `` `what` at file:line (via `f` → `g`) `` — the witness clause used
    /// in transitive finding messages.
    pub fn render(&self) -> String {
        let site = format!("{} at {}:{}", self.what, self.file, self.line);
        if self.via.is_empty() {
            site
        } else {
            let chain = self.via.iter().map(|f| format!("`{f}`")).collect::<Vec<_>>().join(" → ");
            format!("{site}, via {chain}")
        }
    }
}

/// The monotone fact set of one function.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// First known allocation site, direct or transitive.
    pub allocates: Option<Fact>,
    /// First known spawn site, direct or transitive.
    pub spawns: Option<Fact>,
    /// First known synchronous wait (`join()`/`recv()`).
    pub blocks_sync: Option<Fact>,
    /// First known I/O call (diagnostic only; never a finding by itself).
    pub blocks_io: Option<Fact>,
    /// Lock identity → witness, for every lock the function may take.
    pub acquires: BTreeMap<String, Fact>,
}

/// Per-node summaries, indexed like [`CallGraph::nodes`].
#[derive(Debug)]
pub struct Summaries {
    /// `per_node[i]` summarises `graph.nodes[i]`.
    pub per_node: Vec<Summary>,
}

impl Summaries {
    /// Builds the summaries bottom-up: direct facts per body, then a
    /// fixpoint over the call edges (facts only grow, so the loop
    /// terminates).
    pub fn build(files: &[SourceFile], graph: &CallGraph) -> Summaries {
        let mut per_node: Vec<Summary> = graph
            .nodes
            .iter()
            .map(|n| {
                if n.in_tests {
                    return Summary::default();
                }
                direct_summary(&files[n.file], n.def)
            })
            .collect();

        loop {
            let mut changed = false;
            for i in 0..per_node.len() {
                if graph.nodes[i].in_tests {
                    continue;
                }
                for &j in &graph.edges[i] {
                    let callee_name = {
                        let n = &graph.nodes[j];
                        files[n.file].defs[n.def].qualified()
                    };
                    let callee = per_node[j].clone();
                    let me = &mut per_node[i];
                    changed |= inherit(&mut me.allocates, &callee.allocates, &callee_name);
                    changed |= inherit(&mut me.spawns, &callee.spawns, &callee_name);
                    changed |= inherit(&mut me.blocks_sync, &callee.blocks_sync, &callee_name);
                    changed |= inherit(&mut me.blocks_io, &callee.blocks_io, &callee_name);
                    for (id, fact) in &callee.acquires {
                        if !me.acquires.contains_key(id) {
                            me.acquires.insert(id.clone(), prefixed(fact, &callee_name));
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return Summaries { per_node };
            }
        }
    }
}

/// Copies a callee fact into an unset caller slot, prefixing the chain.
fn inherit(slot: &mut Option<Fact>, callee: &Option<Fact>, callee_name: &str) -> bool {
    match (slot.is_none(), callee) {
        (true, Some(fact)) => {
            *slot = Some(prefixed(fact, callee_name));
            true
        }
        _ => false,
    }
}

fn prefixed(fact: &Fact, callee_name: &str) -> Fact {
    let mut via = Vec::with_capacity(fact.via.len() + 1);
    via.push(callee_name.to_string());
    via.extend(fact.via.iter().cloned());
    Fact { via, file: fact.file.clone(), line: fact.line, what: fact.what.clone() }
}

/// The direct (one-body, no-calls) facts of one definition.
fn direct_summary(file: &SourceFile, def_idx: usize) -> Summary {
    let def = &file.defs[def_idx];
    let mut s = Summary::default();
    let Some((open, close)) = def.item.body else { return s };
    let toks = &file.lexed.tokens;

    if let Some(site) = alloc_sites(toks, open, close).into_iter().next() {
        s.allocates = Some(Fact {
            via: Vec::new(),
            file: file.label.clone(),
            line: site.line,
            what: site.what.to_string(),
        });
    }
    for call in call_sites(toks, open, close) {
        let fact = |what: &str| Fact {
            via: Vec::new(),
            file: file.label.clone(),
            line: call.line,
            what: what.to_string(),
        };
        if s.spawns.is_none() {
            if let Some(what) = spawn_shape(&call) {
                s.spawns = Some(fact(what));
            }
        }
        if s.blocks_sync.is_none() {
            if let Some(what) = sync_block_shape(toks, &call) {
                s.blocks_sync = Some(fact(what));
            }
        }
        if s.blocks_io.is_none() {
            if let Some(what) = io_block_shape(&call) {
                s.blocks_io = Some(fact(format!("{} `{}(…)`", what, call.callee).as_str()));
            }
        }
    }
    for acq in crate::locks::fn_acquisitions(file, def) {
        s.acquires.entry(acq.id.clone()).or_insert_with(|| Fact {
            via: Vec::new(),
            file: file.label.clone(),
            line: acq.line,
            what: acq.how.clone(),
        });
    }
    s
}

/// Whether the puncts starting at `i` spell exactly `pat`.
pub(crate) fn punct_run(toks: &[Token], i: usize, pat: &str) -> bool {
    pat.chars()
        .enumerate()
        .all(|(k, c)| toks.get(i + k).map(|t| t.kind == TokenKind::Punct(c)).unwrap_or(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn summaries(src: &str) -> (Vec<SourceFile>, CallGraph, Summaries) {
        let files = vec![SourceFile::parse("fixture.rs", src)];
        let graph = CallGraph::build(&files);
        let s = Summaries::build(&files, &graph);
        (files, graph, s)
    }

    fn summary_of<'a>(
        files: &[SourceFile],
        graph: &CallGraph,
        s: &'a Summaries,
        name: &str,
    ) -> &'a Summary {
        let i = graph
            .nodes
            .iter()
            .position(|n| files[n.file].defs[n.def].item.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"));
        &s.per_node[i]
    }

    #[test]
    fn alloc_sites_match_the_hot_path_shapes() {
        let lexed = crate::lexer::lex(
            "fn f() { let a = Vec::new(); let b = vec![0; 4]; let c = x.clone(); \
             let d = y.to_vec(); let e = it.collect::<Vec<_>>(); \
             let ok = Vec::with_capacity(8); }",
        );
        let sites = alloc_sites(&lexed.tokens, 0, lexed.tokens.len() - 1);
        let whats: Vec<&str> = sites.iter().map(|s| s.what).collect();
        assert_eq!(
            whats,
            vec!["`Vec::new()`", "`vec![…]`", "`.clone()`", "`.to_vec()`", "`.collect()`"]
        );
    }

    #[test]
    fn direct_facts_cover_alloc_spawn_and_blocking() {
        let src = "fn a() { let v = Vec::new(); }\n\
                   fn s() { thread::scope(|sc| { sc.spawn(|_| {}); }); }\n\
                   fn b() { handle.join(); }\n\
                   fn io(w: &mut W) { w.write_all(buf); }";
        let (files, graph, s) = summaries(src);
        assert!(summary_of(&files, &graph, &s, "a").allocates.is_some());
        assert!(summary_of(&files, &graph, &s, "s").spawns.is_some());
        assert!(summary_of(&files, &graph, &s, "b").blocks_sync.is_some());
        let io = summary_of(&files, &graph, &s, "io");
        assert!(io.blocks_io.is_some() && io.blocks_sync.is_none());
    }

    #[test]
    fn std_scoped_threads_give_the_spawn_fact() {
        // `Federation::par_map`'s shape: a fully qualified
        // `std::thread::scope` whose workers are `move` closures. The scope
        // alone already gives the fact.
        let src = "fn workers() { std::thread::scope(|s| { s.spawn(move || work()); }); }\n\
                   fn scope_only() { std::thread::scope(|s| {}); }";
        let (files, graph, s) = summaries(src);
        assert!(summary_of(&files, &graph, &s, "workers").spawns.is_some());
        let fact = summary_of(&files, &graph, &s, "scope_only").spawns.as_ref();
        assert_eq!(fact.map(|f| f.what.as_str()), Some("`thread::scope(…)`"));
    }

    #[test]
    fn facts_propagate_up_the_call_chain_with_witness_paths() {
        let src = "fn top() { mid(); }\nfn mid() { leaf(); }\n\
                   fn leaf() { let v = vec![0.0; 4]; }";
        let (files, graph, s) = summaries(src);
        let top = summary_of(&files, &graph, &s, "top");
        let fact = top.allocates.as_ref().expect("transitive alloc");
        assert_eq!(fact.via, vec!["mid".to_string(), "leaf".to_string()]);
        assert_eq!(fact.what, "`vec![…]`");
        assert!(fact.render().contains("via `mid` → `leaf`"), "{}", fact.render());
    }

    #[test]
    fn acquires_propagate_and_keep_lock_identities() {
        let src = "impl Pool {\n\
                   fn outer(&self) { self.refill(); }\n\
                   fn refill(&self) { let g = self.slots.lock(); g.len(); }\n\
                   }";
        let (files, graph, s) = summaries(src);
        let outer = summary_of(&files, &graph, &s, "outer");
        assert!(outer.acquires.contains_key("Pool::slots"), "{:?}", outer.acquires);
        assert_eq!(outer.acquires["Pool::slots"].via, vec!["Pool::refill".to_string()]);
    }

    #[test]
    fn test_module_bodies_contribute_no_facts() {
        let src = "fn lib() { helper(); }\nfn helper() {}\n\
                   #[cfg(test)]\nmod tests {\n fn helper() { let v = Vec::new(); } \n}";
        let (files, graph, s) = summaries(src);
        // `helper()` resolves to both the library and the test helper; the
        // test one must not leak its allocation into `lib`.
        assert!(summary_of(&files, &graph, &s, "lib").allocates.is_none());
    }
}
