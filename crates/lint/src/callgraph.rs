//! Workspace-wide call graph with hot-path reachability.
//!
//! The PR-4 performance contract ("the training hot path never
//! allocates") is a property of *every function reachable from* the
//! per-batch entry points, not just of the entry points themselves. This
//! module builds a name-resolved call graph over all scanned files and
//! computes the reachable-hot set by BFS from:
//!
//! * the built-in entries in [`HOT_ENTRIES`] — the layer-wise
//!   forward/backward workspace paths, the client training loop, and the
//!   blocked/sparse GEMM kernels; and
//! * any function annotated `// lint: hot` (same line as the `fn` or the
//!   line above).
//!
//! A function annotated `// lint: cold` is asserted to run once per
//! round (setup, pruning, aggregation), not once per batch: the BFS does
//! not enter it, which is the supported way to cut a setup helper out of
//! the hot set. Test functions (inside `#[cfg(test)] mod`) never join
//! the hot set.
//!
//! # Name resolution
//!
//! Without type inference, edges are resolved by name with the call
//! shape as a disambiguator — a deliberate over-approximation that errs
//! toward *more* reachability (missing an edge would silently exempt
//! code from the allocation rule):
//!
//! * `Type::assoc(…)` → functions defined in `impl Type` blocks (any
//!   file). An unknown type (`Vec::new`) resolves to nothing.
//! * `Self::assoc(…)` → functions in impls of the caller's own type.
//! * `recv.method(…)` → every method (has a `self` receiver) with that
//!   name, in any impl. Name collisions across types produce spurious
//!   edges; `// lint: cold` on the cold homonym is the escape hatch.
//! * `free(…)` → every free function with that name.

use crate::lexer::{lex, Lexed, MarkerKind};
use crate::parser::{call_sites, parse_file, FnDef};
use crate::rules::test_module_ranges;

/// Built-in hot entry points: per-batch code by construction.
pub const HOT_ENTRIES: [&str; 12] = [
    "forward_ws",
    "backward_ws",
    "train_client_ws",
    "gemm",
    "gemm_ws",
    "gemm_tn",
    "gemm_tn_ws",
    "gemm_nt",
    "spmm",
    "spmm_t",
    "masked_dot_nt",
    "conv2d_taps_batch",
];

/// One scanned file, parsed once and shared by every rule: the token
/// and scope rules, the call graph, and the analyses over it.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path label used in findings.
    pub label: String,
    /// The full lex result (tokens, allow directives, hot/cold markers).
    pub lexed: Lexed,
    /// Every function definition with its impl context.
    pub defs: Vec<FnDef>,
    /// Token-index spans of `#[cfg(test)] mod` blocks.
    pub test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes and parses one file.
    pub fn parse(label: &str, source: &str) -> SourceFile {
        let lexed = lex(source);
        let test_ranges = test_module_ranges(&lexed.tokens);
        let defs = parse_file(&lexed.tokens);
        SourceFile { label: label.to_string(), lexed, defs, test_ranges }
    }

    /// Whether token index `idx` sits inside a test module.
    pub fn in_tests(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| idx >= lo && idx <= hi)
    }
}

/// Annotation temperature of one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Temp {
    /// No marker: temperature is decided by reachability.
    Default,
    /// `// lint: hot` — an extra entry point.
    Hot,
    /// `// lint: cold` — excluded from hot-path traversal.
    Cold,
}

/// One function in the graph, addressed as `(file, def)` indices.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    /// Index into the `files` slice the graph was built from.
    pub file: usize,
    /// Index into that file's `defs`.
    pub def: usize,
    /// Marker-assigned temperature.
    pub temp: Temp,
    /// Whether the definition lives inside a `#[cfg(test)] mod`.
    pub in_tests: bool,
}

/// The resolved call graph plus the reachable-hot set.
#[derive(Debug)]
pub struct CallGraph {
    /// All functions, in `(file, def)` order.
    pub nodes: Vec<Node>,
    /// `edges[n]` = node indices `n` may call.
    pub edges: Vec<Vec<usize>>,
    /// For each node, the entry-point name that makes it hot (`None`
    /// when the node is not on the hot path).
    pub hot_witness: Vec<Option<String>>,
}

impl CallGraph {
    /// Builds the graph and the hot set over all `files` at once —
    /// resolution is cross-crate by design (`train_client_ws` in `core`
    /// reaches `gemm` in `tensor`).
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (di, def) in file.defs.iter().enumerate() {
                nodes.push(Node {
                    file: fi,
                    def: di,
                    temp: marker_temp(file, def),
                    in_tests: file.in_tests(def.item.name_idx),
                });
            }
        }

        let def_of = |n: &Node| &files[n.file].defs[n.def];
        let edges: Vec<Vec<usize>> = nodes
            .iter()
            .map(|n| {
                let def = def_of(n);
                let Some((open, close)) = def.item.body else { return Vec::new() };
                let toks = &files[n.file].lexed.tokens;
                let mut out = Vec::new();
                for call in call_sites(toks, open, close) {
                    out.extend(resolve(
                        &nodes,
                        files,
                        n,
                        &call.callee,
                        call.qualifier.as_deref(),
                        call.is_method,
                    ));
                }
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();

        // BFS from the entries; a node's witness is the entry that first
        // reached it (deterministic: entries are visited in node order).
        let mut hot_witness: Vec<Option<String>> = vec![None; nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        for (i, n) in nodes.iter().enumerate() {
            if n.in_tests || n.temp == Temp::Cold {
                continue;
            }
            let name = &def_of(n).item.name;
            if n.temp == Temp::Hot || HOT_ENTRIES.contains(&name.as_str()) {
                hot_witness[i] = Some(name.clone());
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            let witness = hot_witness[i].clone().unwrap_or_default();
            for &j in &edges[i] {
                if hot_witness[j].is_some() || nodes[j].temp == Temp::Cold || nodes[j].in_tests {
                    continue;
                }
                hot_witness[j] = Some(witness.clone());
                queue.push_back(j);
            }
        }

        CallGraph { nodes, edges, hot_witness }
    }

    /// Node indices on the hot path, with the witness entry name.
    pub fn hot_nodes(&self) -> impl Iterator<Item = (usize, &str)> + '_ {
        self.hot_witness.iter().enumerate().filter_map(|(i, w)| w.as_deref().map(|w| (i, w)))
    }
}

/// The temperature a `// lint: hot`/`cold` marker assigns to `def`: the
/// marker must sit on the definition's line or the line directly above.
/// `// lint: total` markers belong to the totality analysis and say
/// nothing about temperature, so the scan continues past them.
fn marker_temp(file: &SourceFile, def: &FnDef) -> Temp {
    for m in &file.lexed.markers {
        if m.line == def.item.line || m.line + 1 == def.item.line {
            match m.kind {
                MarkerKind::Hot => return Temp::Hot,
                MarkerKind::Cold => return Temp::Cold,
                MarkerKind::Total => continue,
            }
        }
    }
    Temp::Default
}

/// Method names that shadow ubiquitous std accessors: an unqualified
/// `x.len()` is overwhelmingly `[T]::len` / `Vec::len`, not a workspace
/// impl, and resolving it by name alone manufactures false call edges —
/// and, through the summaries, false transitive lock/alloc facts. Calls
/// to these names only resolve when path-qualified (`VecSink::len`).
const STD_SHADOWED_METHODS: [&str; 3] = ["len", "is_empty", "clone"];

/// All nodes a call with the given shape may land on (empty when the
/// callee is outside the workspace, e.g. `Vec::new` or `slice.iter`).
pub(crate) fn resolve(
    nodes: &[Node],
    files: &[SourceFile],
    caller: &Node,
    callee: &str,
    qualifier: Option<&str>,
    is_method: bool,
) -> Vec<usize> {
    let caller_type = files[caller.file].defs[caller.def].impl_type.as_deref();
    nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            let def = &files[n.file].defs[n.def];
            if def.item.name != callee {
                return false;
            }
            match qualifier {
                Some("Self") => def.impl_type.as_deref() == caller_type && caller_type.is_some(),
                Some(t) => def.impl_type.as_deref() == Some(t),
                None if is_method => def.item.has_self && !STD_SHADOWED_METHODS.contains(&callee),
                None => def.impl_type.is_none(),
            }
        })
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(sources: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> = sources.iter().map(|(l, s)| SourceFile::parse(l, s)).collect();
        let graph = CallGraph::build(&files);
        (files, graph)
    }

    fn hot_names(files: &[SourceFile], graph: &CallGraph) -> Vec<String> {
        let mut out: Vec<String> = graph
            .hot_nodes()
            .map(|(i, _)| {
                let n = &graph.nodes[i];
                files[n.file].defs[n.def].item.name.clone()
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn std_shadowed_method_names_need_a_qualifier_to_resolve() {
        // `buf.len()` must not resolve to `Sink::len` — the receiver is
        // almost certainly a std container — but the explicit
        // `Sink::len(&s)` form still does.
        let (files, graph) = graph_of(&[(
            "a.rs",
            "impl Sink { fn len(&self) -> usize { spawn_workers(); 0 } }\n\
             fn spawn_workers() {}\n\
             pub fn unqualified(buf: &[u8]) { buf.len(); }\n\
             pub fn qualified(s: &Sink) { Sink::len(s); }",
        )]);
        let node = |name: &str| {
            graph
                .nodes
                .iter()
                .position(|n| files[n.file].defs[n.def].item.name == name)
                .unwrap_or_else(|| panic!("no node {name}"))
        };
        let targets = |caller: &str, callee: &str, is_method: bool, qual: Option<&str>| {
            resolve(&graph.nodes, &files, &graph.nodes[node(caller)], callee, qual, is_method)
        };
        assert!(targets("unqualified", "len", true, None).is_empty());
        assert_eq!(targets("qualified", "len", false, Some("Sink")), vec![node("len")]);
    }

    #[test]
    fn reachability_crosses_files_and_impl_blocks() {
        let (files, graph) = graph_of(&[
            (
                "a.rs",
                "impl Conv2d { pub fn forward_ws(&mut self) { helper(); self.pack(); } \
                 fn pack(&self) { inner(); } }\nfn inner() {}",
            ),
            ("b.rs", "pub fn helper() { deep(); }\nfn deep() {}\nfn unrelated() {}"),
        ]);
        assert_eq!(
            hot_names(&files, &graph),
            vec!["deep", "forward_ws", "helper", "inner", "pack"]
        );
    }

    #[test]
    fn cold_marker_cuts_traversal_and_hot_marker_adds_entries() {
        let (files, graph) = graph_of(&[(
            "a.rs",
            "pub fn forward_ws() { setup(); }\n\
             // lint: cold\n\
             fn setup() { build(); }\n\
             fn build() {}\n\
             // lint: hot\n\
             fn custom_kernel() { tile(); }\n\
             fn tile() {}",
        )]);
        assert_eq!(hot_names(&files, &graph), vec!["custom_kernel", "forward_ws", "tile"]);
    }

    #[test]
    fn qualifier_resolution_separates_homonymous_methods() {
        // Both types define `step`; a `Sgd::step` path call must not drag
        // the controller's `step` into the hot set.
        let (files, graph) = graph_of(&[(
            "a.rs",
            "pub fn train_client_ws() { Sgd::step(); }\n\
             impl Sgd { fn step() { fused(); } }\n\
             impl Controller { fn step() { replan(); } }\n\
             fn fused() {}\nfn replan() {}",
        )]);
        let hot = hot_names(&files, &graph);
        assert!(hot.contains(&"fused".to_string()), "{hot:?}");
        assert!(!hot.contains(&"replan".to_string()), "{hot:?}");
        // One `step` node is hot (Sgd's), one is not.
        assert_eq!(hot.iter().filter(|n| *n == "step").count(), 1, "{hot:?}");
    }

    #[test]
    fn method_calls_overapproximate_across_same_name_methods() {
        let (files, graph) = graph_of(&[(
            "a.rs",
            "pub fn backward_ws(l: &mut L) { l.apply(); }\n\
             impl A { fn apply(&self) { a_work(); } }\n\
             impl B { fn apply(&self) { b_work(); } }\n\
             fn a_work() {}\nfn b_work() {}",
        )]);
        let hot = hot_names(&files, &graph);
        assert!(hot.contains(&"a_work".to_string()) && hot.contains(&"b_work".to_string()));
    }

    #[test]
    fn test_module_functions_never_join_the_hot_set() {
        let (files, graph) = graph_of(&[(
            "a.rs",
            "fn work() {}\n#[cfg(test)]\nmod tests {\n fn forward_ws() { work(); }\n}",
        )]);
        assert!(hot_names(&files, &graph).is_empty());
    }

    #[test]
    fn unknown_qualifiers_resolve_to_nothing() {
        let (files, graph) = graph_of(&[(
            "a.rs",
            "pub fn gemm() { let v = Vec::new(); }\nimpl W { fn new() { boom(); } }\nfn boom() {}",
        )]);
        let hot = hot_names(&files, &graph);
        assert_eq!(hot, vec!["gemm"], "Vec::new must not resolve to W::new");
    }

    #[test]
    fn self_calls_stay_within_the_callers_type() {
        let (files, graph) = graph_of(&[(
            "a.rs",
            "impl A { pub fn forward_ws(&self) { Self::helper(); } fn helper() { a(); } }\n\
             impl B { fn helper() { b(); } }\nfn a() {}\nfn b() {}",
        )]);
        let hot = hot_names(&files, &graph);
        assert!(hot.contains(&"a".to_string()), "{hot:?}");
        assert!(!hot.contains(&"b".to_string()), "{hot:?}");
    }
}
