//! # subfed-metrics
//!
//! Analytic models and reporting used by every experiment:
//!
//! * [`comm`] — the paper's communication-cost model
//!   (`Cost = R × B × |W| × 2`, §4.2.2) extended to masked transfers:
//!   unpruned parameters cost 32 bits, mask entries 1 bit;
//! * [`flops`] — convolution/FC FLOP counting under channel masks
//!   (structured pruning reduces FLOPs; unstructured pruning reduces
//!   parameters only — exactly the paper's Table 2 semantics);
//! * [`report`] — fixed-width table and series rendering shared by the
//!   table/figure bench harnesses;
//! * [`sync`] — the workspace's poison-consistent lock helpers
//!   ([`sync::lock_unpoisoned`]); lock results never meet a bare
//!   `.unwrap()` (enforced by clippy's denied `unwrap_used` and
//!   `expect_used`);
//! * [`trace`] — round-level structured telemetry: typed trace events,
//!   span timers, JSONL/in-memory sinks, and end-of-run phase summaries
//!   (schema documented in `docs/OBSERVABILITY.md`).

#![forbid(unsafe_code)]

pub mod comm;
pub mod flops;
pub mod report;
pub mod summary;
pub mod sync;
pub mod trace;
