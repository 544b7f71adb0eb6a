//! Lock-site extraction, lock-identity resolution, the workspace-wide
//! lock-order graph, and the three concurrency rules of
//! `subfed-lint check`.
//!
//! # Acquisitions and identities
//!
//! An *acquisition* is either a blocking lock method with an empty
//! argument list (`recv.lock()`, `.try_lock()`, `.read()`, `.write()`)
//! or a call to a `lock_`-prefixed helper (`lock_unpoisoned(&self.x)`,
//! `lock_pool(&self.inner)`) — the workspace's poison-consistent
//! wrappers. The body of a `lock_`-prefixed function is itself exempt:
//! the raw `m.lock()` inside `lock_unpoisoned` would otherwise give every
//! caller one shared, meaningless identity.
//!
//! Each acquisition is resolved to a **lock identity** — a stable name
//! for *which* mutex is taken, independent of the local binding:
//!
//! * `self.field.lock()` → `Type::field` (the enclosing impl type);
//! * a local (`lock_unpoisoned(shard)`) is chased backwards through its
//!   `let`/`for` binder to the underlying path (`for (i, shard) in
//!   self.shards.iter()…` → `Pool::shards`);
//! * `UPPER_CASE` names resolve to themselves (statics);
//! * anything else falls back to `fn::name`, which is unique enough to
//!   never *merge* two different locks (the analysis may split one lock
//!   into two identities — sound for cycle detection, which only ever
//!   errs toward missing an edge, never toward inventing a false cycle
//!   between genuinely different locks).
//!
//! # Held regions
//!
//! A guard bound by `let g = <acquisition>;` (optionally through an
//! `.unwrap()`/`.expect(…)`, which clippy rejects in library code) is
//! live from the acquisition to the end of the innermost enclosing block,
//! or to an explicit `drop(g)`. An unbound (temporary) guard is live to the end of
//! its statement. Both are conservative over-approximations of the
//! borrow checker's real drop points — fine for a hazard filter.
//!
//! # The three rules
//!
//! (A lock result meeting a bare `.unwrap()`/`.expect(…)` is clippy's
//! `unwrap_used`/`expect_used`, denied in every scanned crate; route it
//! through `subfed_metrics::sync::lock_unpoisoned` instead.)
//!
//! * [`ALLOC_UNDER_LOCK`] — an allocation shape (see
//!   [`crate::summaries::alloc_sites`]) directly or transitively inside a
//!   held region.
//! * [`GUARD_ACROSS_SPAWN`] — a guard held across `spawn`/
//!   `thread::scope`, across a synchronous wait (`join()`/`recv()`), or
//!   across a loop that acquires a *different* lock per iteration.
//! * [`LOCK_ORDER`] — a cycle in the derived lock-order graph
//!   ([`LockGraph`]): edges run from a held lock to every lock acquired
//!   (directly or through calls) inside its region; same-identity
//!   re-acquisition is *not* an edge, so the shard-index-order idiom
//!   (locking `shards[i]` in ascending `i`) stays legal.

use crate::callgraph::{resolve, CallGraph, SourceFile};
use crate::lexer::{ident, ident_at, matching, punct, punct_at, Token};
use crate::parser::{call_sites, loop_bodies, CallSite, FnDef};
use crate::rules::Finding;
use crate::summaries::{alloc_sites, spawn_shape, sync_block_shape, Summaries};
use std::collections::BTreeSet;

/// Identifier of the lock-order-cycle rule.
pub const LOCK_ORDER: &str = "lock-order";
/// Identifier of the allocation-while-locked rule.
pub const ALLOC_UNDER_LOCK: &str = "alloc-under-lock";
/// Identifier of the guard-held-across-spawn/wait/loop rule.
pub const GUARD_ACROSS_SPAWN: &str = "guard-across-spawn";

/// The lock methods that produce a guard when called with no arguments.
const GUARD_METHODS: [&str; 4] = ["lock", "try_lock", "read", "write"];

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Token index of the acquiring identifier (`lock`, `lock_unpoisoned`, …).
    pub idx: usize,
    /// 1-based source line of the acquisition.
    pub line: usize,
    /// Resolved lock identity (see the module docs).
    pub id: String,
    /// Rendered shape (`` `.lock()` ``, `` `lock_unpoisoned(…)` ``).
    pub how: String,
    /// Token span `(start, end)` the guard is conservatively live over.
    pub region: (usize, usize),
}

/// Extracts every acquisition in `def`'s body, with resolved identities
/// and held regions. Bodies of `lock_`-prefixed helpers are exempt (see
/// the module docs).
pub fn fn_acquisitions(file: &SourceFile, def: &FnDef) -> Vec<Acquisition> {
    if def.item.name.starts_with("lock_") {
        return Vec::new();
    }
    let Some((open, close)) = def.item.body else { return Vec::new() };
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    for call in call_sites(toks, open, close) {
        let acq = if call.is_method
            && GUARD_METHODS.contains(&call.callee.as_str())
            && crate::summaries::empty_args(toks, call.idx)
        {
            let recv_end = call.idx.saturating_sub(2);
            let segs = path_before(toks, recv_end, open);
            Some((segs, format!("`.{}()`", call.callee)))
        } else if !call.is_method && call.callee.starts_with("lock_") {
            let segs = path_after(toks, call.idx + 2, close);
            Some((segs, format!("`{}(…)`", call.callee)))
        } else {
            None
        };
        let Some((segs, how)) = acq else { continue };
        let id = identity(file, def, segs, call.idx, 2);
        let region = guard_region(toks, &call, open, close);
        out.push(Acquisition { idx: call.idx, line: call.line, id, how, region });
    }
    out
}

/// Resolves a receiver/argument path to a lock identity.
fn identity(file: &SourceFile, def: &FnDef, segs: Vec<String>, at: usize, budget: u8) -> String {
    let fallback = |tail: &str| format!("{}::{tail}", def.qualified());
    match segs.split_first() {
        None => fallback("<locked-temporary>"),
        Some((head, rest)) if head == "self" => {
            if rest.is_empty() {
                return fallback("self");
            }
            let field = rest.join(".");
            match &def.impl_type {
                Some(t) => format!("{t}::{field}"),
                None => fallback(&field),
            }
        }
        Some((head, [])) => {
            // A bare local: chase its `let`/`for` binder once or twice.
            if budget > 0 {
                if let Some(src) = local_source(file, def, head, at) {
                    if !src.is_empty() && src != segs {
                        return identity(file, def, src, at, budget - 1);
                    }
                }
            }
            if head.chars().all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit()) {
                return head.clone(); // a static — one identity workspace-wide
            }
            fallback(head)
        }
        Some((head, _)) => {
            if head.chars().next().map(|c| c.is_ascii_uppercase()).unwrap_or(false) {
                segs.join("::") // Type::STATIC-style path
            } else {
                fallback(&segs.join("."))
            }
        }
    }
}

/// The expression a local `name` was bound from: scans backwards from
/// `at` for the nearest `let … name … = expr` or `for … name … in expr`
/// and returns `expr`'s leading path.
fn local_source(file: &SourceFile, def: &FnDef, name: &str, at: usize) -> Option<Vec<String>> {
    let toks = &file.lexed.tokens;
    let (open, close) = def.item.body?;
    let mut k = at.min(close);
    while k > open {
        k -= 1;
        match ident(&toks[k]) {
            Some("let") => {
                // Pattern runs to the `=` at depth 0.
                let mut j = k + 1;
                let mut depth = 0i32;
                let mut bound = false;
                while j < at {
                    match punct(&toks[j]) {
                        Some('(') | Some('[') => depth += 1,
                        Some(')') | Some(']') => depth -= 1,
                        Some('=') if depth == 0 => break,
                        Some(';') if depth == 0 => break,
                        _ => bound |= ident(&toks[j]) == Some(name),
                    }
                    j += 1;
                }
                if bound && punct(&toks[j]) == Some('=') {
                    return Some(path_after(toks, j + 1, close));
                }
            }
            Some("for") => {
                // Pattern runs to the `in` at depth 0; expr follows it.
                let mut j = k + 1;
                let mut depth = 0i32;
                let mut bound = false;
                while j < at {
                    match punct(&toks[j]) {
                        Some('(') | Some('[') => depth += 1,
                        Some(')') | Some(']') => depth -= 1,
                        Some('{') if depth == 0 => break,
                        _ => {
                            if depth == 0 && ident(&toks[j]) == Some("in") {
                                break;
                            }
                            bound |= ident(&toks[j]) == Some(name);
                        }
                    }
                    j += 1;
                }
                if bound && ident(&toks[j]) == Some("in") {
                    return Some(path_after(toks, j + 1, close));
                }
            }
            _ => {}
        }
    }
    None
}

/// The `a.b`/`a::b` ident path ending at token `end`, walked backwards
/// over separators and `[…]` index groups.
fn path_before(toks: &[Token], end: usize, lo: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut k = end;
    loop {
        // Skip trailing index groups: `shards[i].lock()`.
        while punct(toks.get(k).unwrap_or(&toks[lo])) == Some(']') && k > lo {
            let mut depth = 0i32;
            let mut j = k;
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
                if j == lo {
                    break;
                }
                j -= 1;
            }
            if j <= lo {
                segs.reverse();
                return segs;
            }
            k = j - 1;
        }
        let Some(name) = toks.get(k).and_then(ident) else { break };
        segs.push(name.to_string());
        if k >= 2 && punct(&toks[k - 1]) == Some('.') {
            k -= 2;
        } else if k >= 3 && punct(&toks[k - 1]) == Some(':') && punct(&toks[k - 2]) == Some(':') {
            k -= 3;
        } else {
            break;
        }
        if k < lo {
            break;
        }
    }
    segs.reverse();
    segs
}

/// The leading ident path of the expression starting at `start`
/// (`&self.shards.iter()` → `["self", "shards"]`): sigils are skipped,
/// and a segment directly followed by `(` is a call, which ends the path.
fn path_after(toks: &[Token], start: usize, hi: usize) -> Vec<String> {
    let mut k = start;
    while k <= hi
        && (matches!(punct_at(toks, k), Some('&') | Some('*')) || ident_at(toks, k) == Some("mut"))
    {
        k += 1;
    }
    let mut segs = Vec::new();
    while k <= hi {
        let Some(name) = ident_at(toks, k) else { break };
        if punct_at(toks, k + 1) == Some('(') {
            break; // a call segment: `iter()` is not part of the lock path
        }
        segs.push(name.to_string());
        if punct_at(toks, k + 1) == Some('.') {
            k += 2;
        } else if punct_at(toks, k + 1) == Some(':') && punct_at(toks, k + 2) == Some(':') {
            k += 3;
        } else if punct_at(toks, k + 1) == Some('[') {
            // Index group, then optionally more path: `shards[i].lock`.
            let j = matching(toks, k + 1);
            if punct_at(toks, j + 1) == Some('.') {
                k = j + 2;
            } else {
                break;
            }
        } else {
            break;
        }
    }
    segs
}

/// The token span a guard from the acquisition at `call` is live over.
fn guard_region(toks: &[Token], call: &CallSite, open: usize, close: usize) -> (usize, usize) {
    // Past the argument list of the acquiring call.
    let mut after = matching(toks, call.open) + 1;
    // `.unwrap()` / `.expect(…)` chained on the lock result still yields
    // the guard.
    if punct_at(toks, after) == Some('.')
        && matches!(ident_at(toks, after + 1), Some("unwrap") | Some("expect"))
        && punct_at(toks, after + 2) == Some('(')
    {
        after = matching(toks, after + 2) + 1;
    }
    let binding = binding_of(toks, open, call.idx);
    let bound = binding.is_some() && punct_at(toks, after) == Some(';');
    if !bound {
        // Temporary guard: live to the end of its statement.
        let mut depth = 0i32;
        let mut j = after;
        while j <= close {
            match punct_at(toks, j) {
                Some('(') | Some('[') | Some('{') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some('}') => {
                    if depth == 0 {
                        return (call.idx, j);
                    }
                    depth -= 1;
                }
                Some(';') if depth == 0 => return (call.idx, j),
                _ => {}
            }
            j += 1;
        }
        return (call.idx, close);
    }
    // Bound guard: live to `drop(name)` or the end of the innermost
    // enclosing block.
    let block_close = enclosing_block_close(toks, open, close, call.idx);
    if let Some(name) = binding {
        let mut j = after;
        while j < block_close {
            if ident_at(toks, j) == Some("drop")
                && punct_at(toks, j + 1) == Some('(')
                && ident_at(toks, j + 2) == Some(name)
                && punct_at(toks, j + 3) == Some(')')
            {
                return (call.idx, j);
            }
            j += 1;
        }
    }
    (call.idx, block_close)
}

/// The `let [mut] NAME` binding opening the statement containing `at`,
/// when the statement is a simple binding (`_` does not count: it drops
/// the guard immediately).
fn binding_of(toks: &[Token], open: usize, at: usize) -> Option<&str> {
    let mut s = at;
    while s > open {
        if matches!(punct(&toks[s - 1]), Some(';') | Some('{') | Some('}')) {
            break;
        }
        s -= 1;
    }
    let mut k = s;
    while k < at {
        if ident(&toks[k]) == Some("let") {
            let mut n = k + 1;
            if ident_at(toks, n) == Some("mut") {
                n += 1;
            }
            return ident_at(toks, n).filter(|name| *name != "_");
        }
        k += 1;
    }
    None
}

/// The `}` closing the innermost block that contains token `idx`.
fn enclosing_block_close(toks: &[Token], open: usize, close: usize, idx: usize) -> usize {
    let mut stack = Vec::new();
    let last = close.min(toks.len().saturating_sub(1));
    for (j, t) in toks.iter().enumerate().take(last + 1).skip(open) {
        match punct(t) {
            Some('{') => stack.push(j),
            Some('}') => {
                if let Some(o) = stack.pop() {
                    if o <= idx && idx <= j {
                        // First close whose open precedes idx = innermost.
                        return j;
                    }
                }
            }
            _ => {}
        }
    }
    close
}

/// One directed edge of the lock-order graph: `from` is held while `to`
/// is acquired, at the witnessed site.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Index into [`LockGraph::nodes`] of the held lock.
    pub from: usize,
    /// Index into [`LockGraph::nodes`] of the lock acquired under it.
    pub to: usize,
    /// File label of the nested acquisition (or the call reaching it).
    pub file: String,
    /// 1-based line of that site.
    pub line: usize,
    /// Qualified name of the function holding `from` at the site.
    pub func: String,
    /// Call chain (qualified names) when the nested acquisition is
    /// transitive; empty for a direct nesting.
    pub via: Vec<String>,
}

/// The workspace lock-order graph: one node per lock identity, one edge
/// per observed held-while-acquiring pair. Cycles are potential
/// deadlocks.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Lock identities, in first-seen order.
    pub nodes: Vec<String>,
    /// All observed acquisition orderings.
    pub edges: Vec<LockEdge>,
}

impl LockGraph {
    /// Builds the graph over all scanned files: direct nestings from each
    /// function's own regions, transitive ones through the call summaries.
    pub fn build(files: &[SourceFile], graph: &CallGraph, summaries: &Summaries) -> LockGraph {
        let mut lg = LockGraph::default();
        for (ni, node) in graph.nodes.iter().enumerate() {
            if node.in_tests {
                continue;
            }
            let file = &files[node.file];
            let def = &file.defs[node.def];
            let toks = &file.lexed.tokens;
            let acqs = fn_acquisitions(file, def);
            for acq in &acqs {
                lg.node_id(&acq.id);
                let (lo, hi) = acq.region;
                for other in &acqs {
                    if other.idx > acq.idx && other.idx <= hi && other.id != acq.id {
                        let (from, to) = (lg.node_id(&acq.id), lg.node_id(&other.id));
                        lg.edges.push(LockEdge {
                            from,
                            to,
                            file: file.label.clone(),
                            line: other.line,
                            func: def.qualified(),
                            via: Vec::new(),
                        });
                    }
                }
                for call in call_sites(toks, lo, hi) {
                    if call.idx <= acq.idx || is_acquisition_call(toks, &call) {
                        continue;
                    }
                    for c in resolve_call(graph, files, ni, &call) {
                        for (id, fact) in &summaries.per_node[c].acquires {
                            if *id == acq.id {
                                continue;
                            }
                            let callee = {
                                let n = &graph.nodes[c];
                                files[n.file].defs[n.def].qualified()
                            };
                            let mut via = vec![callee];
                            via.extend(fact.via.iter().cloned());
                            let (from, to) = (lg.node_id(&acq.id), lg.node_id(id));
                            lg.edges.push(LockEdge {
                                from,
                                to,
                                file: file.label.clone(),
                                line: call.line,
                                func: def.qualified(),
                                via,
                            });
                        }
                    }
                }
            }
        }
        lg
    }

    fn node_id(&mut self, name: &str) -> usize {
        match self.nodes.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.nodes.push(name.to_string());
                self.nodes.len() - 1
            }
        }
    }

    /// Every elementary cycle found by DFS, deduplicated by node set;
    /// each cycle lists node indices in acquisition order.
    pub fn cycles(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            if !succ[e.from].contains(&e.to) {
                succ[e.from].push(e.to);
            }
        }
        let mut cycles: Vec<Vec<usize>> = Vec::new();
        let mut seen_sets: BTreeSet<Vec<usize>> = BTreeSet::new();
        let mut color = vec![0u8; n]; // 0 white, 1 on-stack, 2 done
        let mut path: Vec<usize> = Vec::new();

        fn dfs(
            v: usize,
            succ: &[Vec<usize>],
            color: &mut [u8],
            path: &mut Vec<usize>,
            cycles: &mut Vec<Vec<usize>>,
            seen: &mut BTreeSet<Vec<usize>>,
        ) {
            color[v] = 1;
            path.push(v);
            for &w in &succ[v] {
                if color[w] == 1 {
                    let start = path.iter().position(|&p| p == w).unwrap_or(0);
                    let cycle: Vec<usize> = path[start..].to_vec();
                    let mut key = cycle.clone();
                    key.sort_unstable();
                    if seen.insert(key) {
                        cycles.push(cycle);
                    }
                } else if color[w] == 0 {
                    dfs(w, succ, color, path, cycles, seen);
                }
            }
            path.pop();
            color[v] = 2;
        }

        for v in 0..n {
            if color[v] == 0 {
                dfs(v, &succ, &mut color, &mut path, &mut cycles, &mut seen_sets);
            }
        }
        cycles
    }

    /// The first recorded edge `from → to`, for witness rendering.
    fn edge(&self, from: usize, to: usize) -> Option<&LockEdge> {
        self.edges.iter().find(|e| e.from == from && e.to == to)
    }
}

/// Whether a call site is itself a lock acquisition (so region rules do
/// not double-report it as an ordinary call).
fn is_acquisition_call(toks: &[Token], call: &CallSite) -> bool {
    (call.is_method
        && GUARD_METHODS.contains(&call.callee.as_str())
        && crate::summaries::empty_args(toks, call.idx))
        || (!call.is_method && call.callee.starts_with("lock_"))
}

fn resolve_call(
    graph: &CallGraph,
    files: &[SourceFile],
    caller: usize,
    call: &CallSite,
) -> Vec<usize> {
    resolve(
        &graph.nodes,
        files,
        &graph.nodes[caller],
        &call.callee,
        call.qualifier.as_deref(),
        call.is_method,
    )
}

/// Runs the three concurrency rules over the parsed workspace.
/// Suppression is the caller's job (it needs the per-file directives).
pub fn lock_findings(
    files: &[SourceFile],
    graph: &CallGraph,
    summaries: &Summaries,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let lg = LockGraph::build(files, graph, summaries);
    for cycle in lg.cycles() {
        let mut clauses = Vec::new();
        let mut site: Option<(String, usize)> = None;
        for (k, &u) in cycle.iter().enumerate() {
            let v = cycle[(k + 1) % cycle.len()];
            if let Some(e) = lg.edge(u, v) {
                if site.is_none() {
                    site = Some((e.file.clone(), e.line));
                }
                let via = if e.via.is_empty() {
                    String::new()
                } else {
                    format!(
                        " via {}",
                        e.via.iter().map(|f| format!("`{f}`")).collect::<Vec<_>>().join(" → ")
                    )
                };
                clauses.push(format!(
                    "`{}` → `{}` (in `{}`{via}, {}:{})",
                    lg.nodes[u], lg.nodes[v], e.func, e.file, e.line
                ));
            }
        }
        let (file, line) = site.unwrap_or_default();
        out.push(Finding {
            file,
            line,
            rule: LOCK_ORDER,
            message: format!(
                "lock-order cycle: {}; two threads interleaving these paths can \
                 deadlock — pick one global acquisition order",
                clauses.join(", ")
            ),
            suppressed: false,
        });
    }

    for (ni, node) in graph.nodes.iter().enumerate() {
        if node.in_tests {
            continue;
        }
        let file = &files[node.file];
        let def = &file.defs[node.def];
        region_rules(files, graph, summaries, ni, file, def, &mut out);
    }

    // Transitive findings can repeat per call site; keep one per
    // (rule, file, line, message).
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    out.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
    out
}

/// The `alloc-under-lock` and `guard-across-spawn` checks for one
/// function's held regions.
fn region_rules(
    files: &[SourceFile],
    graph: &CallGraph,
    summaries: &Summaries,
    ni: usize,
    file: &SourceFile,
    def: &FnDef,
    out: &mut Vec<Finding>,
) {
    let toks = &file.lexed.tokens;
    let fn_name = def.qualified();
    let acqs = fn_acquisitions(file, def);
    for acq in &acqs {
        let (lo, hi) = acq.region;
        for site in alloc_sites(toks, lo, hi) {
            if site.idx <= acq.idx {
                continue;
            }
            out.push(Finding {
                file: file.label.clone(),
                line: site.line,
                rule: ALLOC_UNDER_LOCK,
                message: format!(
                    "{} allocates while `{}` is held in `{fn_name}`; shrink the \
                     critical section (allocate before locking) or justify with an allow",
                    site.what, acq.id
                ),
                suppressed: false,
            });
        }
        for call in call_sites(toks, lo, hi) {
            if call.idx <= acq.idx {
                continue;
            }
            if let Some(what) = spawn_shape(&call) {
                out.push(Finding {
                    file: file.label.clone(),
                    line: call.line,
                    rule: GUARD_ACROSS_SPAWN,
                    message: format!(
                        "guard on `{}` is held across {what} in `{fn_name}`; spawned \
                         workers contend on (or deadlock against) the held lock — \
                         scope the guard before fanning out",
                        acq.id
                    ),
                    suppressed: false,
                });
            }
            if let Some(what) = sync_block_shape(toks, &call) {
                out.push(Finding {
                    file: file.label.clone(),
                    line: call.line,
                    rule: GUARD_ACROSS_SPAWN,
                    message: format!(
                        "guard on `{}` is held across {what} in `{fn_name}`; blocking \
                         on another thread while holding a lock invites deadlock — \
                         release the guard first",
                        acq.id
                    ),
                    suppressed: false,
                });
            }
            if is_acquisition_call(toks, &call) {
                continue;
            }
            for c in resolve_call(graph, files, ni, &call) {
                let s = &summaries.per_node[c];
                let callee = {
                    let n = &graph.nodes[c];
                    files[n.file].defs[n.def].qualified()
                };
                if let Some(fact) = &s.allocates {
                    out.push(Finding {
                        file: file.label.clone(),
                        line: call.line,
                        rule: ALLOC_UNDER_LOCK,
                        message: format!(
                            "call to `{callee}` allocates ({}) while `{}` is held in \
                             `{fn_name}`; move the call outside the critical section",
                            fact.render(),
                            acq.id
                        ),
                        suppressed: false,
                    });
                }
                if let Some(fact) = &s.spawns {
                    out.push(Finding {
                        file: file.label.clone(),
                        line: call.line,
                        rule: GUARD_ACROSS_SPAWN,
                        message: format!(
                            "guard on `{}` is held across `{callee}`, which spawns \
                             ({}) in `{fn_name}`; scope the guard before fanning out",
                            acq.id,
                            fact.render(),
                        ),
                        suppressed: false,
                    });
                }
                if let Some(fact) = &s.blocks_sync {
                    out.push(Finding {
                        file: file.label.clone(),
                        line: call.line,
                        rule: GUARD_ACROSS_SPAWN,
                        message: format!(
                            "guard on `{}` is held across `{callee}`, which blocks \
                             ({}) in `{fn_name}`; release the guard first",
                            acq.id,
                            fact.render(),
                        ),
                        suppressed: false,
                    });
                }
            }
        }
        // A loop inside the region that takes a *different* lock per
        // iteration: the held guard serialises every worker behind it.
        for (llo, lhi) in loop_bodies(toks, lo, hi) {
            if llo <= acq.idx {
                continue;
            }
            let mut inner: Vec<(String, usize)> = acqs
                .iter()
                .filter(|a| a.idx > llo && a.idx < lhi && a.id != acq.id)
                .map(|a| (a.id.clone(), a.line))
                .collect();
            for call in call_sites(toks, llo, lhi) {
                if is_acquisition_call(toks, &call) {
                    continue;
                }
                for c in resolve_call(graph, files, ni, &call) {
                    for id in summaries.per_node[c].acquires.keys() {
                        if *id != acq.id {
                            inner.push((id.clone(), call.line));
                        }
                    }
                }
            }
            inner.sort();
            inner.dedup();
            for (id, line) in inner {
                out.push(Finding {
                    file: file.label.clone(),
                    line,
                    rule: GUARD_ACROSS_SPAWN,
                    message: format!(
                        "guard on `{}` is held across a loop acquiring `{id}` in \
                         `{fn_name}`; per-iteration locks under an outer guard \
                         serialise workers and risk deadlock — release `{}` first",
                        acq.id, acq.id
                    ),
                    suppressed: false,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse("fixture.rs", src)];
        let graph = CallGraph::build(&files);
        let summaries = Summaries::build(&files, &graph);
        lock_findings(&files, &graph, &summaries)
    }

    fn acquisitions(src: &str) -> Vec<Acquisition> {
        let file = SourceFile::parse("fixture.rs", src);
        file.defs.iter().flat_map(|d| fn_acquisitions(&file, d)).collect()
    }

    #[test]
    fn identities_resolve_fields_locals_statics_and_params() {
        let src = "impl Acc {\n\
                   fn fold(&self) {\n\
                   for (i, shard) in self.shards.iter().enumerate() {\n\
                   let mut g = lock_unpoisoned(shard);\n\
                   }\n\
                   let d = self.direct.lock();\n\
                   let s = REGISTRY.lock();\n\
                   }\n\
                   }\n\
                   fn free(m: &Mutex<u32>) { let g = m.lock(); }";
        let ids: Vec<String> = acquisitions(src).into_iter().map(|a| a.id).collect();
        assert_eq!(ids, vec!["Acc::shards", "Acc::direct", "REGISTRY", "free::m"], "{ids:?}");
    }

    #[test]
    fn helper_bodies_are_exempt_but_helper_calls_are_acquisitions() {
        let src = "fn lock_pool(m: &Mutex<V>) -> G { m.lock() }\n\
                   impl P { fn idle(&self) -> usize { lock_pool(&self.inner).len() } }";
        let acqs = acquisitions(src);
        assert_eq!(acqs.len(), 1, "{acqs:?}");
        assert_eq!(acqs[0].id, "P::inner");
        assert_eq!(acqs[0].how, "`lock_pool(…)`");
    }

    #[test]
    fn bound_guard_region_runs_to_block_end_or_drop() {
        let src = "fn f(m: &Mutex<V>) {\n\
                   let g = m.lock();\n\
                   step();\n\
                   drop(g);\n\
                   tail();\n\
                   }";
        let file = SourceFile::parse("fixture.rs", src);
        let acqs = fn_acquisitions(&file, &file.defs[0]);
        let toks = &file.lexed.tokens;
        let drop_idx = toks.iter().position(|t| ident(t) == Some("drop")).unwrap();
        assert_eq!(acqs[0].region.1, drop_idx, "region must end at drop(g)");
    }

    #[test]
    fn alloc_under_lock_direct_and_transitive() {
        let fs = run("impl Pool {\n\
                      fn refill(&self) {\n\
                      let mut g = lock_unpoisoned(&self.slots);\n\
                      g.extend(rebuild());\n\
                      let v = Vec::new();\n\
                      }\n\
                      }\n\
                      fn rebuild() -> V { let mut v = vec![0; 4]; v }");
        let allocs: Vec<&Finding> = fs.iter().filter(|f| f.rule == ALLOC_UNDER_LOCK).collect();
        assert_eq!(allocs.len(), 2, "{fs:?}");
        assert!(allocs.iter().any(|f| f.message.contains("`Vec::new()`")));
        let transitive = allocs
            .iter()
            .find(|f| f.message.contains("call to `rebuild`"))
            .expect("transitive finding");
        assert!(transitive.message.contains("`Pool::slots`"), "{}", transitive.message);
        assert!(transitive.message.contains("`vec![…]`"), "{}", transitive.message);
    }

    #[test]
    fn allocating_before_the_lock_is_clean() {
        let fs = run("impl Pool { fn refill(&self) {\n\
                      let fresh = vec![0; 4];\n\
                      lock_unpoisoned(&self.slots).extend(fresh);\n\
                      } }");
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn guard_across_spawn_direct_and_loop_variant() {
        let fs = run("impl Fan {\n\
                      fn broadcast(&self) {\n\
                      let g = lock_unpoisoned(&self.state);\n\
                      thread::scope(|s| { s.spawn(|_| {}); });\n\
                      }\n\
                      fn drain(&self) {\n\
                      let g = lock_unpoisoned(&self.state);\n\
                      for j in 0..n {\n\
                      let h = lock_unpoisoned(&self.queue);\n\
                      }\n\
                      }\n\
                      }");
        let spawns: Vec<&Finding> = fs.iter().filter(|f| f.rule == GUARD_ACROSS_SPAWN).collect();
        assert!(spawns.iter().any(|f| f.message.contains("`thread::scope(…)`")), "{fs:?}");
        assert!(spawns.iter().any(|f| f.message.contains("loop acquiring `Fan::queue`")), "{fs:?}");
    }

    #[test]
    fn lock_order_cycle_is_reported_with_both_edges() {
        let fs = run("impl Pair {\n\
                      fn fwd(&self) { let a = self.a.lock(); let b = self.b.lock(); }\n\
                      fn bwd(&self) { let b = self.b.lock(); let a = self.a.lock(); }\n\
                      }");
        let cycles: Vec<&Finding> = fs.iter().filter(|f| f.rule == LOCK_ORDER).collect();
        assert_eq!(cycles.len(), 1, "{fs:?}");
        let msg = &cycles[0].message;
        assert!(
            msg.contains("`Pair::a` → `Pair::b`") && msg.contains("`Pair::b` → `Pair::a`"),
            "{msg}"
        );
        assert!(msg.contains("`Pair::fwd`") && msg.contains("`Pair::bwd`"), "{msg}");
    }

    #[test]
    fn consistent_order_and_shard_iteration_are_acyclic() {
        let src = "impl Acc {\n\
                   fn fold(&self) {\n\
                   for (i, shard) in self.shards.iter().enumerate() {\n\
                   let mut g = lock_unpoisoned(shard);\n\
                   g.len();\n\
                   }\n\
                   }\n\
                   fn both(&self) { let a = self.a.lock(); let b = self.b.lock(); }\n\
                   fn also(&self) { let a = self.a.lock(); let b = self.b.lock(); }\n\
                   }";
        let files = vec![SourceFile::parse("fixture.rs", src)];
        let graph = CallGraph::build(&files);
        let summaries = Summaries::build(&files, &graph);
        let lg = LockGraph::build(&files, &graph, &summaries);
        assert!(lg.nodes.iter().any(|n| n == "Acc::shards"), "{:?}", lg.nodes);
        assert!(lg.cycles().is_empty(), "{:?}", lg.edges);
        assert!(run(src).iter().all(|f| f.rule != LOCK_ORDER));
    }

    #[test]
    fn transitive_lock_order_cycle_through_a_call() {
        let fs = run("impl Pair {\n\
                      fn fwd(&self) { let a = self.a.lock(); self.take_b(); }\n\
                      fn take_b(&self) { let b = self.b.lock(); }\n\
                      fn bwd(&self) { let b = self.b.lock(); let a = self.a.lock(); }\n\
                      }");
        let cycles: Vec<&Finding> = fs.iter().filter(|f| f.rule == LOCK_ORDER).collect();
        assert_eq!(cycles.len(), 1, "{fs:?}");
        assert!(cycles[0].message.contains("via `Pair::take_b`"), "{}", cycles[0].message);
    }
}
