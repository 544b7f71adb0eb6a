//! # subfed-lint
//!
//! In-repo analysis for the Sub-FedAvg workspace:
//!
//! * **`check`** — dependency-free static analysis over one parse of
//!   the five scanned crates ([`walk::CRATES`]): a Rust lexer
//!   ([`lexer`]) and a lightweight parser ([`parser`]) feed the token
//!   and scope rules ([`rules`], [`scope`]) that report
//!   federated-learning-specific hazards the compiler cannot see, and a
//!   workspace-wide call graph with hot-entry reachability
//!   ([`callgraph`]) feeds the dataflow rules ([`dataflow`]) that defend
//!   the PR-4 performance contracts, bottom-up function summaries
//!   ([`summaries`]), the interprocedural lock-order / held-region rules
//!   ([`locks`]), the determinism taint rules ([`taint`]) that defend the
//!   replay-identity gate, and the totality rules ([`totality`]) that
//!   prove the decode→fold spine panic-free. One suppression pass and
//!   one stale-directive audit cover every rule ([`check`]);
//! * **`certify`** — the totality walk condensed into a per-entry
//!   panic-freedom certificate ([`totality::certify`]), diffed in CI
//!   against the committed `CERTIFIED.json`;
//! * **`conform`** — an offline protocol verifier: an executable
//!   state-machine spec of the federation round ([`spec`]) replayed over
//!   JSONL traces ([`conform`]).
//!
//! | Rule | Hazard |
//! |---|---|
//! | `float-eq` | `==`/`!=` against float literals — a NaN accuracy or Δ silently falls through every equality gate |
//! | `unchecked-index` | direct `buf[i]` indexing of mask/param/weight buffers — shape conformance should be checked once, not per access |
//! | `must-use-result` | `pub fn … -> Result` without `#[must_use]` — dropped errors are how masks and models drift apart |
//! | `mask-mutation-after-upload` | *(scope-aware)* a client mask mutated after the upload was charged — trace and state disagree |
//! | `tracer-threading` | *(scope-aware)* `pub fn` taking `&mut` model/mask state but no `Tracer` — an observability hole |
//! | `hot-path-alloc` | *(dataflow)* an allocation in code reachable from a hot entry point — per-batch allocator traffic |
//! | `scratch-before-read` | *(dataflow)* a `take_scratch` buffer read before any full write — stale contents leak into results |
//! | `pattern-rebuild-in-loop` | *(dataflow)* `RowPattern`/`RectPattern` built inside a hot loop — a once-per-round artifact paid per batch |
//! | `lock-order` | *(concurrency)* a cycle in the workspace lock-order graph — two threads interleaving the witness chains can deadlock |
//! | `alloc-under-lock` | *(concurrency)* an allocation (direct or via a callee) inside a critical section — lock hold times balloon under contention |
//! | `guard-across-spawn` | *(concurrency)* a guard held across `spawn`/`thread::scope`/`join()`/`recv()` or a lock-acquiring loop — workers contend on or deadlock against the held lock |
//! | `unseeded-rng` | *(determinism)* an RNG seeded from OS entropy, the wall clock, or a value with no seed provenance — the run cannot replay |
//! | `seed-collision` | *(determinism)* two RNG constructions sharing one literal seed — "independent" streams are perfectly correlated |
//! | `wallclock-taint` | *(determinism)* `Instant::now()`/`SystemTime::now()` outside the `Span` stopwatch — clock values diverge between runs |
//! | `order-sensitive-fold` | *(determinism)* a lock-taking, spawn-reachable float accumulation — arrival order decides the f32 sum |
//! | `panic-reachable` | *(totality)* a panic source (panicking macro, `unwrap`/`expect`, bare indexing, non-literal division) reachable from a total entry point — adversarial bytes must meet a typed error, never an abort |
//! | `arith-overflow` | *(totality)* unchecked `+`/`*`/`<<` on byte-length/index math on a total path — a wrapped length turns into an under-allocation or out-of-bounds slice |
//! | `error-swallow` | *(totality)* a `*Error`-carrying `Result` discarded with `let _ =` or `.ok()` outside tests — the error path exists but nobody walks it |
//! | `stale-allow` | a `// lint: allow(…)` comment that no longer suppresses anything |
//!
//! Suppress an intentional occurrence with `// lint: allow(rule-id)` on
//! the same line or the line above (stale allows are themselves flagged).
//!
//! `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library code
//! (one client's malformed update must not abort the federation) are
//! clippy's: the root `Cargo.toml` denies `clippy::{unwrap_used,
//! expect_used, panic, todo, unimplemented}` in `[workspace.lints.clippy]`,
//! the five scanned crates inherit it, `clippy.toml` exempts test code,
//! and an intentional site carries `#[expect(clippy::…, reason = "…")]`.
//!
//! Rule catalog, allow syntax, and CI wiring: `docs/STATIC_ANALYSIS.md`.
//! The round-protocol spec and its predicate table: `docs/PROTOCOL.md`.
//!
//! Run it with `cargo run -p subfed-lint -- check`,
//! `cargo run -p subfed-lint -- certify`, or
//! `cargo run -p subfed-lint -- conform trace.jsonl`.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod check;
pub mod conform;
pub mod dataflow;
pub mod lexer;
pub mod locks;
pub mod parser;
pub mod rules;
pub mod scope;
pub mod spec;
pub mod summaries;
pub mod taint;
pub mod totality;
pub mod walk;

pub use check::{check_sources, check_workspace, Report};
pub use conform::{verify_events, verify_reader, verify_replay_pair, ConformReport};
pub use locks::{lock_findings, LockGraph};
pub use rules::{Finding, ALL_RULES};
pub use spec::{replay_identity, ProtocolSpec, Violation};
pub use summaries::Summaries;
pub use totality::{
    certify, certify_workspace, render_certificates_json, totality_findings, EntryCertificate,
    TOTAL_ENTRIES,
};
pub use walk::{find_workspace_root, parse_workspace, CRATES};
