//! Round-level structured telemetry: typed trace events, cheap span
//! timers, pluggable sinks (JSONL, in-memory), and an end-of-run phase
//! summary.
//!
//! The federated engine emits one [`TraceEvent`] per observable step of a
//! round — sampling/dropout, client training, the pruning decision and its
//! gate outcomes, wire encode/decode, aggregation, evaluation — through a
//! cloneable [`Tracer`] handle. A disabled tracer is a no-op (`Option`
//! check per event, no timer reads), so algorithms can emit
//! unconditionally.
//!
//! **Determinism contract**: for a fixed seed, the *content* of a trace is
//! deterministic and independent of the thread count, except for the `us`
//! wall-time fields (and event *order*, which varies with worker
//! scheduling). [`canonicalize`] zeroes the wall-times and sorts events
//! into a stable order so two traces of the same run can be compared with
//! `assert_eq!`. Timestamps are durations in microseconds — never
//! wall-clock epochs — so traces are diffable across runs. The contract
//! is machine-checked end to end: every `RoundEnd` carries a
//! [`model_hash`] fingerprint of the post-aggregation global, and the
//! `replay-identity` predicate of `subfed-lint conform` holds two
//! canonicalized traces (e.g. the same run at different `--workers`) to
//! byte-for-byte agreement.
//!
//! **Total order**: each enabled [`Tracer`] stamps events with a monotone
//! `seq` counter at emission time. [`JsonlSink`] persists it, and the
//! parse side ([`TraceLine`], [`TraceReader`]) recovers it, giving offline
//! consumers (`subfed-lint conform`) a canonical total order even for
//! multi-threaded runs. `seq` lives in the JSONL envelope, not in
//! [`TraceEvent`], so it never perturbs [`canonicalize`].
//!
//! Schema reference and worked examples: `docs/OBSERVABILITY.md`.

use crate::report::Table;
use crate::sync::lock_unpoisoned;
use std::fmt;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One structured telemetry event. All fields except the `us` wall-times
/// are deterministic in the run seed.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A round began: the sampled participant set and, after failure
    /// injection, the clients that actually survive.
    RoundStart {
        /// 1-based round number.
        round: usize,
        /// Sampled participant ids (sorted).
        sampled: Vec<usize>,
        /// Surviving participant ids after dropout (subsequence of
        /// `sampled`).
        survivors: Vec<usize>,
        /// Total registered client population the cohort was drawn from.
        /// `0` in traces recorded before cohort sampling existed ("not
        /// recorded").
        registered: usize,
        /// Number of clients the sampler selected this round — the
        /// `frac`/C knob resolved against `registered`. Equals
        /// `sampled.len()` in a well-formed trace; `0` in traces recorded
        /// before this field existed.
        cohort_size: usize,
    },
    /// A sampled client dropped out of the round — the explicit skip
    /// reason for a client that appears in `sampled` but completes no
    /// train/prune/upload pipeline.
    Dropout {
        /// 1-based round number.
        round: usize,
        /// The dropped client.
        client: usize,
        /// Why the client was skipped, e.g. `"crash-injected"` (failure
        /// injection via `dropout_prob`). Never empty: conformance
        /// checking requires every skipped client to say why.
        reason: String,
    },
    /// Server→client transfer, as charged by the communication model.
    Download {
        /// 1-based round number.
        round: usize,
        /// Receiving client.
        client: usize,
        /// Bytes charged for the transfer.
        bytes: u64,
    },
    /// Client→server transfer, as charged by the communication model
    /// (kept parameters plus the packed mask in rounds where it changed).
    Upload {
        /// 1-based round number.
        round: usize,
        /// Sending client.
        client: usize,
        /// Bytes charged for the transfer.
        bytes: u64,
    },
    /// One client's local training phase.
    ClientTrain {
        /// 1-based round number.
        round: usize,
        /// The trained client.
        client: usize,
        /// Wall time in microseconds (nondeterministic).
        us: u64,
        /// Validation accuracy after training.
        val_acc: f32,
        /// Mean training loss over all local batches.
        train_loss: f32,
        /// Per-input FLOPs the client's compute path actually performs
        /// under its pruning mask (kept weights only); equals
        /// `dense_flops` for unmasked training. `0` in traces recorded
        /// before this field existed.
        effective_flops: u64,
        /// Per-input dense FLOPs of the model architecture — the
        /// denominator of the paper's FLOP-reduction claim. `0` in traces
        /// recorded before this field existed.
        dense_flops: u64,
    },
    /// One client's pruning phase: candidate-mask derivation plus gating.
    ClientPrune {
        /// 1-based round number.
        round: usize,
        /// The deciding client.
        client: usize,
        /// Wall time in microseconds (nondeterministic).
        us: u64,
    },
    /// The outcome of one pruning gate (Algorithm 1 line 14 / one track of
    /// Algorithm 2 lines 14–23), with the reason it passed or held.
    PruneGate {
        /// 1-based round number.
        round: usize,
        /// The deciding client.
        client: usize,
        /// Which track decided: `"un"` (unstructured) or `"channel"`
        /// (structured).
        track: String,
        /// Whether the mask advanced this round.
        fired: bool,
        /// Why: `"pruned"`, `"acc-below-threshold"`, `"target-reached"`,
        /// or `"mask-stable"`.
        reason: String,
        /// The validation accuracy the gate saw.
        val_acc: f32,
        /// Hamming distance Δ between the two candidate masks (0 when the
        /// gate held before Δ was computed).
        mask_distance: f32,
        /// Pruned fraction of the client's mask after the decision.
        pruned_fraction: f32,
    },
    /// Wire-encoding of one client update (`wire::encode_update`).
    Encode {
        /// 1-based round number.
        round: usize,
        /// The uploading client.
        client: usize,
        /// Wall time in microseconds (nondeterministic).
        us: u64,
        /// Encoded message size (header + packed mask + kept parameters).
        bytes: u64,
        /// Number of kept (transferred) parameters.
        kept: usize,
    },
    /// Server-side decoding of one client update
    /// (`wire::decode_update`).
    Decode {
        /// 1-based round number.
        round: usize,
        /// The originating client.
        client: usize,
        /// Wall time in microseconds (nondeterministic).
        us: u64,
        /// Decoded message size.
        bytes: u64,
    },
    /// The server aggregation phase.
    Aggregate {
        /// 1-based round number.
        round: usize,
        /// Wall time in microseconds (nondeterministic).
        us: u64,
        /// Number of client updates aggregated.
        updates: usize,
    },
    /// The personalized-evaluation phase (only on evaluation rounds).
    Eval {
        /// 1-based round number.
        round: usize,
        /// Wall time in microseconds (nondeterministic).
        us: u64,
        /// Mean per-client test accuracy.
        avg_acc: f32,
    },
    /// A runtime invariant check failed (see `subfed_core::invariants`).
    /// Emitted just before the debug-build panic so the trace records what
    /// the federation saw at the violated boundary.
    Invariant {
        /// 1-based round number (0 when outside any round).
        round: usize,
        /// The boundary that was checked, e.g. `"aggregate"` or
        /// `"gate client 3"`.
        context: String,
        /// Human-readable description of the violation. Free-form text is
        /// sanitised for the JSON encoding: `"`, `\`, and control
        /// characters are replaced (see [`TraceEvent::to_json`]).
        detail: String,
    },
    /// A round finished.
    RoundEnd {
        /// 1-based round number.
        round: usize,
        /// Wall time of the whole round in microseconds
        /// (nondeterministic).
        us: u64,
        /// Cumulative communication bytes after this round.
        cum_bytes: u64,
        /// FNV-1a fingerprint of the post-aggregation global parameters
        /// (see [`model_hash`]). Two runs agree on this field iff their
        /// `θ_g` bytes are identical — the replay-identity gate's anchor.
        /// Travels as a 16-hex-digit JSON string (a JSON number only
        /// holds 53 bits exactly). `0` in traces recorded before the
        /// field existed ("not recorded").
        model_hash: u64,
    },
}

impl TraceEvent {
    /// The round the event belongs to.
    pub fn round(&self) -> usize {
        match self {
            TraceEvent::RoundStart { round, .. }
            | TraceEvent::Dropout { round, .. }
            | TraceEvent::Download { round, .. }
            | TraceEvent::Upload { round, .. }
            | TraceEvent::ClientTrain { round, .. }
            | TraceEvent::ClientPrune { round, .. }
            | TraceEvent::PruneGate { round, .. }
            | TraceEvent::Encode { round, .. }
            | TraceEvent::Decode { round, .. }
            | TraceEvent::Aggregate { round, .. }
            | TraceEvent::Eval { round, .. }
            | TraceEvent::Invariant { round, .. }
            | TraceEvent::RoundEnd { round, .. } => *round,
        }
    }

    /// The client the event belongs to, when it is client-scoped.
    pub fn client(&self) -> Option<usize> {
        match self {
            TraceEvent::Dropout { client, .. }
            | TraceEvent::Download { client, .. }
            | TraceEvent::Upload { client, .. }
            | TraceEvent::ClientTrain { client, .. }
            | TraceEvent::ClientPrune { client, .. }
            | TraceEvent::PruneGate { client, .. }
            | TraceEvent::Encode { client, .. }
            | TraceEvent::Decode { client, .. } => Some(*client),
            _ => None,
        }
    }

    /// The event's `ev` tag in the JSON encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RoundStart { .. } => "round_start",
            TraceEvent::Dropout { .. } => "dropout",
            TraceEvent::Download { .. } => "download",
            TraceEvent::Upload { .. } => "upload",
            TraceEvent::ClientTrain { .. } => "train",
            TraceEvent::ClientPrune { .. } => "prune",
            TraceEvent::PruneGate { .. } => "prune_gate",
            TraceEvent::Encode { .. } => "encode",
            TraceEvent::Decode { .. } => "decode",
            TraceEvent::Aggregate { .. } => "aggregate",
            TraceEvent::Eval { .. } => "eval",
            TraceEvent::Invariant { .. } => "invariant",
            TraceEvent::RoundEnd { .. } => "round_end",
        }
    }

    /// The event's wall-time in microseconds, 0 for untimed events.
    pub fn us(&self) -> u64 {
        match self {
            TraceEvent::ClientTrain { us, .. }
            | TraceEvent::ClientPrune { us, .. }
            | TraceEvent::Encode { us, .. }
            | TraceEvent::Decode { us, .. }
            | TraceEvent::Aggregate { us, .. }
            | TraceEvent::Eval { us, .. }
            | TraceEvent::RoundEnd { us, .. } => *us,
            _ => 0,
        }
    }

    /// Serialises the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        self.to_json_inner(None)
    }

    /// Serialises the event with its emission sequence number — the form
    /// [`JsonlSink`] writes. `seq` is a per-[`Tracer`] monotone counter
    /// assigned at emission time, giving multi-threaded traces a canonical
    /// total order that offline verifiers (`subfed-lint conform`) replay.
    pub fn to_json_seq(&self, seq: u64) -> String {
        self.to_json_inner(Some(seq))
    }

    fn to_json_inner(&self, seq: Option<u64>) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"ev\":\"");
        s.push_str(self.kind());
        s.push('"');
        if let Some(seq) = seq {
            s.push_str(&format!(",\"seq\":{seq}"));
        }
        let num = |s: &mut String, k: &str, v: &dyn fmt::Display| {
            s.push_str(",\"");
            s.push_str(k);
            s.push_str("\":");
            s.push_str(&v.to_string());
        };
        let f32f = |s: &mut String, k: &str, v: f32| {
            debug_assert!(v.is_finite(), "non-finite {k} in trace event");
            s.push_str(",\"");
            s.push_str(k);
            s.push_str("\":");
            s.push_str(&format!("{v:?}"));
        };
        num(&mut s, "round", &self.round());
        match self {
            TraceEvent::RoundStart { sampled, survivors, registered, cohort_size, .. } => {
                let arr = |ids: &[usize]| {
                    let parts: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
                    format!("[{}]", parts.join(","))
                };
                s.push_str(&format!(
                    ",\"sampled\":{},\"survivors\":{}",
                    arr(sampled),
                    arr(survivors)
                ));
                num(&mut s, "registered", registered);
                num(&mut s, "cohort_size", cohort_size);
            }
            TraceEvent::Dropout { client, reason, .. } => {
                num(&mut s, "client", client);
                s.push_str(&format!(",\"reason\":\"{reason}\""));
            }
            TraceEvent::Download { client, bytes, .. }
            | TraceEvent::Upload { client, bytes, .. } => {
                num(&mut s, "client", client);
                num(&mut s, "bytes", bytes);
            }
            TraceEvent::ClientTrain {
                client,
                us,
                val_acc,
                train_loss,
                effective_flops,
                dense_flops,
                ..
            } => {
                num(&mut s, "client", client);
                num(&mut s, "us", us);
                f32f(&mut s, "val_acc", *val_acc);
                f32f(&mut s, "train_loss", *train_loss);
                num(&mut s, "effective_flops", effective_flops);
                num(&mut s, "dense_flops", dense_flops);
            }
            TraceEvent::ClientPrune { client, us, .. } => {
                num(&mut s, "client", client);
                num(&mut s, "us", us);
            }
            TraceEvent::PruneGate {
                client,
                track,
                fired,
                reason,
                val_acc,
                mask_distance,
                pruned_fraction,
                ..
            } => {
                num(&mut s, "client", client);
                s.push_str(&format!(
                    ",\"track\":\"{track}\",\"fired\":{fired},\"reason\":\"{reason}\""
                ));
                f32f(&mut s, "val_acc", *val_acc);
                f32f(&mut s, "mask_distance", *mask_distance);
                f32f(&mut s, "pruned_fraction", *pruned_fraction);
            }
            TraceEvent::Encode { client, us, bytes, kept, .. } => {
                num(&mut s, "client", client);
                num(&mut s, "us", us);
                num(&mut s, "bytes", bytes);
                num(&mut s, "kept", kept);
            }
            TraceEvent::Decode { client, us, bytes, .. } => {
                num(&mut s, "client", client);
                num(&mut s, "us", us);
                num(&mut s, "bytes", bytes);
            }
            TraceEvent::Aggregate { us, updates, .. } => {
                num(&mut s, "us", us);
                num(&mut s, "updates", updates);
            }
            TraceEvent::Eval { us, avg_acc, .. } => {
                num(&mut s, "us", us);
                f32f(&mut s, "avg_acc", *avg_acc);
            }
            TraceEvent::Invariant { context, detail, .. } => {
                s.push_str(&format!(
                    ",\"context\":\"{}\",\"detail\":\"{}\"",
                    sanitize_json_str(context),
                    sanitize_json_str(detail)
                ));
            }
            TraceEvent::RoundEnd { us, cum_bytes, model_hash, .. } => {
                num(&mut s, "us", us);
                num(&mut s, "cum_bytes", cum_bytes);
                // Hex string, not a JSON number: the full 64-bit hash
                // would lose precision through an f64 number path.
                s.push_str(&format!(",\"model_hash\":\"{model_hash:016x}\""));
            }
        }
        s.push('}');
        s
    }

    /// Parses one JSON object produced by [`TraceEvent::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation: invalid JSON, an unknown
    /// `ev` tag, or a missing/mistyped field.
    #[must_use = "a dropped Result hides the malformed trace line it reports"]
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        Self::from_value(&json::parse(line)?)
    }

    fn from_value(obj: &json::Value) -> Result<TraceEvent, String> {
        let get = |k: &str| -> Result<&json::Value, String> {
            obj.field(k).ok_or_else(|| format!("missing field `{k}`"))
        };
        let usize_of = |k: &str| -> Result<usize, String> { get(k)?.as_usize(k) };
        let u64_of = |k: &str| -> Result<u64, String> { get(k)?.as_u64(k) };
        let f32_of = |k: &str| -> Result<f32, String> { get(k)?.as_f32(k) };
        let str_of = |k: &str| -> Result<String, String> { get(k)?.as_str(k) };
        // Fields added after the v1 trace format; absent in older traces,
        // in which case they read as 0 ("not recorded").
        let opt_u64 = |k: &str| -> Result<u64, String> {
            match obj.field(k) {
                Some(v) => v.as_u64(k),
                None => Ok(0),
            }
        };
        let opt_usize = |k: &str| -> Result<usize, String> {
            match obj.field(k) {
                Some(v) => v.as_usize(k),
                None => Ok(0),
            }
        };
        // 64-bit fingerprints travel as 16-hex-digit strings (a JSON
        // number only holds 53 bits exactly); absent reads as 0.
        let opt_hex64 = |k: &str| -> Result<u64, String> {
            match obj.field(k) {
                Some(v) => {
                    let s = v.as_str(k)?;
                    u64::from_str_radix(&s, 16)
                        .map_err(|e| format!("field `{k}`: bad hex fingerprint ({e})"))
                }
                None => Ok(0),
            }
        };
        let ids_of = |k: &str| -> Result<Vec<usize>, String> { get(k)?.as_usize_array(k) };
        let ev = str_of("ev")?;
        let round = usize_of("round")?;
        match ev.as_str() {
            "round_start" => Ok(TraceEvent::RoundStart {
                round,
                sampled: ids_of("sampled")?,
                survivors: ids_of("survivors")?,
                // Optional for compatibility with traces recorded before
                // cohort sampling existed; 0 means "not recorded".
                registered: opt_usize("registered")?,
                cohort_size: opt_usize("cohort_size")?,
            }),
            "dropout" => Ok(TraceEvent::Dropout {
                round,
                client: usize_of("client")?,
                reason: str_of("reason")?,
            }),
            "download" => Ok(TraceEvent::Download {
                round,
                client: usize_of("client")?,
                bytes: u64_of("bytes")?,
            }),
            "upload" => Ok(TraceEvent::Upload {
                round,
                client: usize_of("client")?,
                bytes: u64_of("bytes")?,
            }),
            "train" => Ok(TraceEvent::ClientTrain {
                round,
                client: usize_of("client")?,
                us: u64_of("us")?,
                val_acc: f32_of("val_acc")?,
                train_loss: f32_of("train_loss")?,
                // Optional for compatibility with traces recorded before
                // FLOP accounting existed; 0 means "not recorded".
                effective_flops: opt_u64("effective_flops")?,
                dense_flops: opt_u64("dense_flops")?,
            }),
            "prune" => Ok(TraceEvent::ClientPrune {
                round,
                client: usize_of("client")?,
                us: u64_of("us")?,
            }),
            "prune_gate" => Ok(TraceEvent::PruneGate {
                round,
                client: usize_of("client")?,
                track: str_of("track")?,
                fired: get("fired")?.as_bool("fired")?,
                reason: str_of("reason")?,
                val_acc: f32_of("val_acc")?,
                mask_distance: f32_of("mask_distance")?,
                pruned_fraction: f32_of("pruned_fraction")?,
            }),
            "encode" => Ok(TraceEvent::Encode {
                round,
                client: usize_of("client")?,
                us: u64_of("us")?,
                bytes: u64_of("bytes")?,
                kept: usize_of("kept")?,
            }),
            "decode" => Ok(TraceEvent::Decode {
                round,
                client: usize_of("client")?,
                us: u64_of("us")?,
                bytes: u64_of("bytes")?,
            }),
            "aggregate" => Ok(TraceEvent::Aggregate {
                round,
                us: u64_of("us")?,
                updates: usize_of("updates")?,
            }),
            "eval" => {
                Ok(TraceEvent::Eval { round, us: u64_of("us")?, avg_acc: f32_of("avg_acc")? })
            }
            "invariant" => Ok(TraceEvent::Invariant {
                round,
                context: str_of("context")?,
                detail: str_of("detail")?,
            }),
            "round_end" => Ok(TraceEvent::RoundEnd {
                round,
                us: u64_of("us")?,
                cum_bytes: u64_of("cum_bytes")?,
                // Optional for compatibility with traces recorded before
                // the replay-identity gate existed; 0 means "not
                // recorded".
                model_hash: opt_hex64("model_hash")?,
            }),
            other => Err(format!("unknown event tag `{other}`")),
        }
    }

    fn with_zero_us(mut self) -> TraceEvent {
        match &mut self {
            TraceEvent::ClientTrain { us, .. }
            | TraceEvent::ClientPrune { us, .. }
            | TraceEvent::Encode { us, .. }
            | TraceEvent::Decode { us, .. }
            | TraceEvent::Aggregate { us, .. }
            | TraceEvent::Eval { us, .. }
            | TraceEvent::RoundEnd { us, .. } => *us = 0,
            _ => {}
        }
        self
    }
}

/// Makes a free-form string safe to embed in the escape-free JSON subset
/// [`TraceEvent::to_json`] emits: `"` becomes `'`, `\` becomes `/`, and
/// control characters become spaces. Lossy by design — invariant text is
/// diagnostic, and the trade keeps the trace codec escape-free.
fn sanitize_json_str(raw: &str) -> String {
    raw.chars()
        .map(|c| match c {
            '"' => '\'',
            '\\' => '/',
            c if c.is_control() => ' ',
            c => c,
        })
        .collect()
}

/// One parsed JSON Lines trace record: the event plus the emission
/// sequence number, when the producer recorded one.
///
/// [`JsonlSink`] always writes `seq`; hand-built or pre-`seq` traces may
/// omit it, so it is optional on the parse side. Consumers that need a
/// total order (the `subfed-lint conform` verifier) sort by `seq` when
/// every record carries one and otherwise fall back to file order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLine {
    /// Emission sequence number (monotone per tracer), if recorded.
    pub seq: Option<u64>,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceLine {
    /// Parses one JSON Lines record produced by [`JsonlSink`] (or by
    /// [`TraceEvent::to_json`], in which case `seq` is `None`).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation: invalid JSON, an unknown
    /// `ev` tag, or a missing/mistyped field.
    #[must_use = "a dropped Result hides the malformed trace line it reports"]
    pub fn parse(line: &str) -> Result<TraceLine, String> {
        let obj = json::parse(line)?;
        let seq = match obj.field("seq") {
            Some(v) => Some(v.as_u64("seq")?),
            None => None,
        };
        Ok(TraceLine { seq, event: TraceEvent::from_value(&obj)? })
    }
}

/// Streams [`TraceLine`]s out of a JSONL trace, one per non-empty line.
///
/// The iterator yields `(line_number, TraceLine)` pairs (1-based line
/// numbers, so verifier reports can point back into the file) and surfaces
/// both I/O and parse failures as `Err` items tagged with the offending
/// line. This is the parse-side twin of [`JsonlSink`]: whatever the sink
/// wrote, the reader returns — pinned by the round-trip tests.
pub struct TraceReader<R> {
    inner: R,
    line: usize,
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps a buffered reader positioned at the start of a trace.
    pub fn new(inner: R) -> Self {
        Self { inner, line: 0 }
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<(usize, TraceLine), String>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let mut buf = String::new();
            self.line += 1;
            match self.inner.read_line(&mut buf) {
                Ok(0) => return None,
                Ok(_) => {
                    let text = buf.trim();
                    if text.is_empty() {
                        continue;
                    }
                    return Some(
                        TraceLine::parse(text)
                            .map(|l| (self.line, l))
                            .map_err(|e| format!("line {}: {e}", self.line)),
                    );
                }
                Err(e) => return Some(Err(format!("line {}: read error: {e}", self.line))),
            }
        }
    }
}

/// Puts a trace into canonical form for content comparison: wall-times
/// (the only nondeterministic field) are zeroed and events are sorted by
/// `(round, kind, client, serialised form)`. Sequence numbers are not part
/// of [`TraceEvent`] (they live in the JSONL envelope — see [`TraceLine`]),
/// so two runs with the same seed canonicalize identically regardless of
/// thread count even though their emission orders, and therefore their
/// `seq` assignments, differ.
pub fn canonicalize(events: &[TraceEvent]) -> Vec<TraceEvent> {
    fn kind_rank(e: &TraceEvent) -> u8 {
        match e {
            TraceEvent::RoundStart { .. } => 0,
            TraceEvent::Dropout { .. } => 1,
            TraceEvent::Download { .. } => 2,
            TraceEvent::ClientTrain { .. } => 3,
            TraceEvent::ClientPrune { .. } => 4,
            TraceEvent::PruneGate { .. } => 5,
            TraceEvent::Encode { .. } => 6,
            TraceEvent::Decode { .. } => 7,
            TraceEvent::Upload { .. } => 8,
            TraceEvent::Aggregate { .. } => 9,
            TraceEvent::Eval { .. } => 10,
            TraceEvent::Invariant { .. } => 11,
            TraceEvent::RoundEnd { .. } => 12,
        }
    }
    let mut out: Vec<TraceEvent> = events.iter().map(|e| e.clone().with_zero_us()).collect();
    out.sort_by_key(|e| (e.round(), kind_rank(e), e.client().unwrap_or(usize::MAX), e.to_json()));
    out
}

/// FNV-1a fingerprint of a parameter vector — the `model_hash` recorded
/// on [`TraceEvent::RoundEnd`].
///
/// 64-bit FNV-1a (offset basis `0xcbf29ce484222325`, prime
/// `0x100000001b3`) over each `f32`'s little-endian bytes, in position
/// order. Not cryptographic: it is a cheap, dependency-free fingerprint
/// that is *bit*-sensitive, so two runs report the same hash exactly when
/// their post-aggregation `θ_g` agree byte for byte — which is what the
/// `replay-identity` gate compares across `--workers` settings. A hash of
/// `0` never occurs in practice and is reserved for "not recorded".
pub fn model_hash(params: &[f32]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for p in params {
        for byte in p.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
    }
    hash
}

/// A wall-time measurement in progress. Disabled spans (from a disabled
/// [`Tracer`]) never read the clock and report zero.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    start: Option<Instant>,
}

impl Span {
    /// A span that reports zero elapsed time.
    pub fn disabled() -> Self {
        Self { start: None }
    }

    /// Starts timing now.
    pub fn started() -> Self {
        Self { start: Some(Instant::now()) }
    }

    /// Microseconds since the span started (0 when disabled).
    pub fn elapsed_us(&self) -> u64 {
        self.start.map_or(0, |s| s.elapsed().as_micros() as u64)
    }
}

/// Where trace events go. Implementations must be callable from the
/// engine's worker threads.
pub trait Sink: Send + Sync {
    /// Records one event. `seq` is the emitting [`Tracer`]'s monotone
    /// emission counter (0-based); sinks that serialise should persist it
    /// (see [`TraceEvent::to_json_seq`]) so offline consumers can recover
    /// the emission total order from a multi-threaded run.
    fn record(&self, seq: u64, event: &TraceEvent);

    /// Flushes buffered output; a no-op for unbuffered sinks.
    fn flush(&self) {}
}

/// Discards every event (an explicit always-on no-op; a disabled
/// [`Tracer`] is the cheaper way to turn tracing off).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _seq: u64, _event: &TraceEvent) {}
}

/// Collects events in memory, for summaries and tests.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<(u64, TraceEvent)>>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every event recorded so far, in arrival order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        // Cloning out under the guard is the point of a snapshot; the
        // sink lock nests inside no other lock.
        // lint: allow(alloc-under-lock) — diagnostic copy-out, single flat lock
        lock_unpoisoned(&self.events).iter().map(|(_, e)| e.clone()).collect()
    }

    /// A copy of every `(seq, event)` pair recorded so far, in arrival
    /// order. Under worker threads arrival order may differ from `seq`
    /// order; sort by the first element to recover the emission order.
    pub fn seq_snapshot(&self) -> Vec<(u64, TraceEvent)> {
        // lint: allow(alloc-under-lock) — diagnostic copy-out, single flat lock
        lock_unpoisoned(&self.events).clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.events).len()
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for VecSink {
    fn record(&self, seq: u64, event: &TraceEvent) {
        // Clone outside the critical section so the lock covers only the
        // push, never allocator traffic for the event payload.
        let entry = (seq, event.clone());
        lock_unpoisoned(&self.events).push(entry);
    }
}

/// Streams events as JSON Lines — one `TraceEvent::to_json_seq` object
/// per line — through a buffered writer. Write errors are sticky: the
/// first one is kept (see [`JsonlSink::take_error`]) and later events are
/// dropped.
pub struct JsonlSink {
    inner: Mutex<JsonlState>,
}

struct JsonlState {
    out: Box<dyn Write + Send>,
    error: Option<std::io::Error>,
}

impl JsonlSink {
    /// Wraps an arbitrary writer (buffer it yourself if needed).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        Self { inner: Mutex::new(JsonlState { out, error: None }) }
    }

    /// Creates (truncating) `path` and writes through a [`std::io::BufWriter`].
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the file cannot be created.
    #[must_use = "the sink is the only handle on the trace file"]
    pub fn create(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Takes the first write error, if any occurred.
    pub fn take_error(&self) -> Option<std::io::Error> {
        // `Option::take`, not `Workspace::take` — the name-resolved call
        // graph cannot tell them apart, and the latter allocates.
        lock_unpoisoned(&self.inner).error.take() // lint: allow(alloc-under-lock)
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl Sink for JsonlSink {
    fn record(&self, seq: u64, event: &TraceEvent) {
        // Serialise before acquiring the writer lock: the critical
        // section stays allocation-free (after a sticky error this
        // serialises a line that is then dropped — errors are terminal,
        // so that cost is paid at most once per event after failure).
        let line = event.to_json_seq(seq);
        let mut state = lock_unpoisoned(&self.inner);
        if state.error.is_some() {
            return;
        }
        if let Err(e) =
            state.out.write_all(line.as_bytes()).and_then(|()| state.out.write_all(b"\n"))
        {
            state.error = Some(e);
        }
    }

    fn flush(&self) {
        let mut state = lock_unpoisoned(&self.inner);
        if state.error.is_some() {
            return;
        }
        if let Err(e) = state.out.flush() {
            state.error = Some(e);
        }
    }
}

/// Fans every event out to several sinks.
#[derive(Default)]
pub struct MultiSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl MultiSink {
    /// Creates a fan-out over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> Self {
        Self { sinks }
    }
}

impl fmt::Debug for MultiSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MultiSink({} sinks)", self.sinks.len())
    }
}

impl Sink for MultiSink {
    fn record(&self, seq: u64, event: &TraceEvent) {
        for s in &self.sinks {
            s.record(seq, event);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

/// Shared state behind every clone of an enabled [`Tracer`]: the sink and
/// the emission counter that stamps each event with a `seq` number.
struct TracerShared {
    sink: Arc<dyn Sink>,
    seq: AtomicU64,
}

/// Cloneable handle the engine emits through. Disabled by default;
/// cloning shares the underlying sink *and* the emission counter, so
/// events emitted from worker threads still receive globally unique,
/// monotone `seq` numbers.
#[derive(Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<TracerShared>>,
}

impl Tracer {
    /// A tracer that drops every event without touching the clock.
    pub fn disabled() -> Self {
        Self { shared: None }
    }

    /// A tracer feeding one sink.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Self { shared: Some(Arc::new(TracerShared { sink, seq: AtomicU64::new(0) })) }
    }

    /// A tracer feeding several sinks (disabled when `sinks` is empty).
    pub fn multi(mut sinks: Vec<Arc<dyn Sink>>) -> Self {
        match sinks.len() {
            0 => Self::disabled(),
            1 => Self::new(sinks.remove(0)),
            _ => Self::new(Arc::new(MultiSink::new(sinks))),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Records `event` (no-op when disabled), stamping it with the next
    /// emission sequence number.
    pub fn emit(&self, event: TraceEvent) {
        if let Some(shared) = &self.shared {
            let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
            shared.sink.record(seq, &event);
        }
    }

    /// Starts a wall-time span; disabled tracers return a span that never
    /// reads the clock.
    pub fn span(&self) -> Span {
        if self.shared.is_some() {
            Span::started()
        } else {
            Span::disabled()
        }
    }

    /// Flushes the sink (no-op when disabled).
    pub fn flush(&self) {
        if let Some(shared) = &self.shared {
            shared.sink.flush();
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_enabled() {
            f.write_str("Tracer(enabled)")
        } else {
            f.write_str("Tracer(disabled)")
        }
    }
}

/// Per-phase totals aggregated from a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of events in the phase.
    pub events: usize,
    /// Total wall time across them, in microseconds.
    pub total_us: u64,
}

/// End-of-run aggregation of a trace: phase wall-time totals, transfer
/// volumes, and gate statistics, rendered as a [`Table`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Number of distinct rounds seen.
    pub rounds: usize,
    /// Timed phases in fixed order: train, prune, encode, decode,
    /// aggregate, eval.
    pub phases: Vec<(&'static str, PhaseStat)>,
    /// Total client→server bytes (from `upload` events).
    pub bytes_up: u64,
    /// Total server→client bytes (from `download` events).
    pub bytes_down: u64,
    /// Pruning gates that fired.
    pub gates_fired: usize,
    /// Pruning gates that held, by reason (fixed order).
    pub gates_held: Vec<(&'static str, usize)>,
    /// Clients lost to failure injection.
    pub dropouts: usize,
}

impl TraceSummary {
    /// Aggregates a trace (order-insensitive).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        const PHASES: [&str; 6] = ["train", "prune", "encode", "decode", "aggregate", "eval"];
        const HELD: [&str; 3] = ["acc-below-threshold", "target-reached", "mask-stable"];
        let mut phases: Vec<(&'static str, PhaseStat)> =
            PHASES.iter().map(|&p| (p, PhaseStat::default())).collect();
        let mut gates_held: Vec<(&'static str, usize)> = HELD.iter().map(|&r| (r, 0)).collect();
        let mut summary = TraceSummary::default();
        let mut max_round = 0usize;
        for e in events {
            max_round = max_round.max(e.round());
            if let Some(slot) = phases.iter_mut().find(|(p, _)| *p == e.kind()) {
                slot.1.events += 1;
                slot.1.total_us += e.us();
            }
            match e {
                TraceEvent::Upload { bytes, .. } => summary.bytes_up += bytes,
                TraceEvent::Download { bytes, .. } => summary.bytes_down += bytes,
                TraceEvent::Dropout { .. } => summary.dropouts += 1,
                TraceEvent::PruneGate { fired, reason, .. } => {
                    if *fired {
                        summary.gates_fired += 1;
                    } else if let Some(slot) = gates_held.iter_mut().find(|(r, _)| r == reason) {
                        slot.1 += 1;
                    }
                }
                _ => {}
            }
        }
        summary.rounds = max_round;
        summary.phases = phases;
        summary.gates_held = gates_held;
        summary
    }

    /// Total wall time across all timed phases, in microseconds.
    pub fn total_us(&self) -> u64 {
        self.phases.iter().map(|(_, s)| s.total_us).sum()
    }

    /// Renders the phase table plus transfer/gate footers.
    pub fn render(&self) -> String {
        let total = self.total_us().max(1);
        let mut table = Table::new("trace summary", &["phase", "events", "time", "share"]);
        for (phase, stat) in &self.phases {
            if stat.events == 0 {
                continue;
            }
            table.row(&[
                (*phase).to_string(),
                stat.events.to_string(),
                fmt_us(stat.total_us),
                format!("{:.1}%", 100.0 * stat.total_us as f64 / total as f64),
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "rounds: {}, bytes up: {}, bytes down: {}, dropouts: {}\n",
            self.rounds,
            crate::comm::human_bytes(self.bytes_up),
            crate::comm::human_bytes(self.bytes_down),
            self.dropouts,
        ));
        let held: Vec<String> = self
            .gates_held
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(r, n)| format!("{n} {r}"))
            .collect();
        out.push_str(&format!(
            "prune gates: {} fired{}{}\n",
            self.gates_fired,
            if held.is_empty() { "" } else { ", held: " },
            held.join(", "),
        ));
        out
    }
}

/// Human-readable microsecond formatting (µs/ms/s).
pub fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2} s", us as f64 / 1_000_000.0)
    }
}

/// A minimal JSON parser covering the subset [`TraceEvent::to_json`]
/// emits: flat objects of numbers, strings, booleans, and arrays of
/// numbers.
mod json {
    use std::num::FpCategory;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub(super) enum Value {
        /// A number (always parsed as f64).
        Num(f64),
        /// A string.
        Str(String),
        /// A boolean.
        Bool(bool),
        /// An array.
        Arr(Vec<Value>),
        /// An object, field order preserved.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub(super) fn field(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        #[must_use = "a dropped Result hides the mistyped field it reports"]
        pub(super) fn as_usize(&self, key: &str) -> Result<usize, String> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract().classify() == FpCategory::Zero => {
                    Ok(*n as usize)
                }
                _ => Err(format!("field `{key}` is not a non-negative integer")),
            }
        }

        #[must_use = "a dropped Result hides the mistyped field it reports"]
        pub(super) fn as_u64(&self, key: &str) -> Result<u64, String> {
            self.as_usize(key).map(|v| v as u64)
        }

        #[must_use = "a dropped Result hides the mistyped field it reports"]
        pub(super) fn as_f32(&self, key: &str) -> Result<f32, String> {
            match self {
                Value::Num(n) => Ok(*n as f32),
                _ => Err(format!("field `{key}` is not a number")),
            }
        }

        #[must_use = "a dropped Result hides the mistyped field it reports"]
        pub(super) fn as_bool(&self, key: &str) -> Result<bool, String> {
            match self {
                Value::Bool(b) => Ok(*b),
                _ => Err(format!("field `{key}` is not a boolean")),
            }
        }

        #[must_use = "a dropped Result hides the mistyped field it reports"]
        pub(super) fn as_str(&self, key: &str) -> Result<String, String> {
            match self {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(format!("field `{key}` is not a string")),
            }
        }

        #[must_use = "a dropped Result hides the mistyped field it reports"]
        pub(super) fn as_usize_array(&self, key: &str) -> Result<Vec<usize>, String> {
            match self {
                Value::Arr(items) => items.iter().map(|v| v.as_usize(key)).collect(),
                _ => Err(format!("field `{key}` is not an array")),
            }
        }
    }

    #[must_use = "a dropped Result hides the malformed JSON it reports"]
    pub(super) fn parse(input: &str) -> Result<Value, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => parse_string(bytes, pos).map(Value::Str),
            Some(b't') | Some(b'f') => parse_bool(bytes, pos),
            Some(_) => parse_number(bytes, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            fields.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
            }
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let start = *pos;
        while let Some(&b) = bytes.get(*pos) {
            if b == b'\\' {
                return Err("escape sequences are not supported".into());
            }
            if b == b'"' {
                let s = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                *pos += 1;
                return Ok(s.to_string());
            }
            *pos += 1;
        }
        Err("unterminated string".into())
    }

    fn parse_bool(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let rest = &bytes[*pos..];
        if rest.starts_with(b"true") {
            *pos += 4;
            Ok(Value::Bool(true))
        } else if rest.starts_with(b"false") {
            *pos += 5;
            Ok(Value::Bool(false))
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while let Some(&b) = bytes.get(*pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                *pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number `{s}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RoundStart {
                round: 1,
                sampled: vec![0, 2, 3],
                survivors: vec![0, 3],
                registered: 5,
                cohort_size: 3,
            },
            TraceEvent::Dropout { round: 1, client: 2, reason: "crash-injected".into() },
            TraceEvent::Download { round: 1, client: 0, bytes: 4096 },
            TraceEvent::ClientTrain {
                round: 1,
                client: 0,
                us: 1234,
                val_acc: 0.625,
                train_loss: 1.75,
                effective_flops: 600_000,
                dense_flops: 1_200_000,
            },
            TraceEvent::ClientPrune { round: 1, client: 0, us: 88 },
            TraceEvent::PruneGate {
                round: 1,
                client: 0,
                track: "un".into(),
                fired: true,
                reason: "pruned".into(),
                val_acc: 0.625,
                mask_distance: 0.01,
                pruned_fraction: 0.1,
            },
            TraceEvent::Encode { round: 1, client: 0, us: 5, bytes: 2048, kept: 500 },
            TraceEvent::Decode { round: 1, client: 0, us: 4, bytes: 2048 },
            TraceEvent::Upload { round: 1, client: 0, bytes: 2100 },
            TraceEvent::Aggregate { round: 1, us: 42, updates: 2 },
            TraceEvent::Eval { round: 1, us: 900, avg_acc: 0.5 },
            TraceEvent::Invariant {
                round: 1,
                context: "aggregate".into(),
                detail: "zero-denominator fallback at 3 positions".into(),
            },
            TraceEvent::RoundEnd {
                round: 1,
                us: 2500,
                cum_bytes: 6196,
                model_hash: 0xcbf2_9ce4_8422_2325,
            },
        ]
    }

    #[test]
    fn json_round_trips_every_variant() {
        for event in one_of_each() {
            let line = event.to_json();
            let back = TraceEvent::from_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "{line}");
        }
    }

    #[test]
    fn json_is_single_line_and_tagged() {
        for event in one_of_each() {
            let line = event.to_json();
            assert!(!line.contains('\n'));
            assert!(line.starts_with(&format!("{{\"ev\":\"{}\"", event.kind())), "{line}");
        }
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(TraceEvent::from_json("not json").is_err());
        assert!(TraceEvent::from_json("{\"ev\":\"warp\",\"round\":1}")
            .unwrap_err()
            .contains("unknown event tag"));
        assert!(TraceEvent::from_json("{\"ev\":\"dropout\",\"round\":1}")
            .unwrap_err()
            .contains("missing field `client`"));
        assert!(TraceEvent::from_json("{\"ev\":\"dropout\",\"round\":1.5,\"client\":0}")
            .unwrap_err()
            .contains("not a non-negative integer"));
        assert!(TraceEvent::from_json("{\"ev\":\"dropout\",\"round\":1,\"client\":0} x")
            .unwrap_err()
            .contains("trailing input"));
    }

    #[test]
    fn round_start_parses_pre_cohort_traces_as_not_recorded() {
        // Traces written before cohort sampling existed lack the
        // `registered`/`cohort_size` fields; they read back as 0.
        let line = "{\"ev\":\"round_start\",\"round\":2,\"sampled\":[0,1],\"survivors\":[1]}";
        let event = TraceEvent::from_json(line).expect("v1 round_start parses");
        assert_eq!(
            event,
            TraceEvent::RoundStart {
                round: 2,
                sampled: vec![0, 1],
                survivors: vec![1],
                registered: 0,
                cohort_size: 0,
            }
        );
    }

    #[test]
    fn round_end_parses_pre_hash_traces_as_not_recorded() {
        // Traces written before the determinism fingerprint existed lack
        // the `model_hash` field; they read back as 0 ("not recorded").
        let line = "{\"ev\":\"round_end\",\"round\":3,\"us\":900,\"cum_bytes\":4096}";
        let event = TraceEvent::from_json(line).expect("v1 round_end parses");
        assert_eq!(
            event,
            TraceEvent::RoundEnd { round: 3, us: 900, cum_bytes: 4096, model_hash: 0 }
        );
    }

    #[test]
    fn invariant_event_sanitizes_free_form_text() {
        let event = TraceEvent::Invariant {
            round: 2,
            context: "decode \"client 3\"".into(),
            detail: "mask\\len\nmismatch".into(),
        };
        let line = event.to_json();
        let back = TraceEvent::from_json(&line).expect("sanitised line parses");
        assert_eq!(
            back,
            TraceEvent::Invariant {
                round: 2,
                context: "decode 'client 3'".into(),
                detail: "mask/len mismatch".into(),
            }
        );
    }

    #[test]
    fn jsonl_sink_writes_one_parseable_line_per_event() {
        let sink = Arc::new(VecWriterSink::new());
        let jsonl = JsonlSink::new(Box::new(SharedWriter(sink.clone())));
        for (i, event) in one_of_each().into_iter().enumerate() {
            jsonl.record(i as u64, &event);
        }
        jsonl.flush();
        assert!(jsonl.take_error().is_none());
        let text = String::from_utf8(sink.bytes()).unwrap();
        let parsed: Vec<TraceLine> =
            text.lines().map(|l| TraceLine::parse(l).expect("line parses")).collect();
        let events: Vec<TraceEvent> = parsed.iter().map(|l| l.event.clone()).collect();
        let seqs: Vec<u64> = parsed.iter().map(|l| l.seq.expect("seq present")).collect();
        assert_eq!(events, one_of_each());
        assert_eq!(seqs, (0..one_of_each().len() as u64).collect::<Vec<_>>());
        // The seq-free accessor still parses sink output (ignoring seq).
        for line in text.lines() {
            TraceEvent::from_json(line).expect("from_json tolerates seq");
        }
    }

    #[test]
    fn seq_is_an_envelope_field_not_an_event_field() {
        let event = TraceEvent::Dropout { round: 3, client: 7, reason: "crash-injected".into() };
        let line = event.to_json_seq(41);
        assert!(line.starts_with("{\"ev\":\"dropout\",\"seq\":41,"), "{line}");
        let parsed = TraceLine::parse(&line).unwrap();
        assert_eq!(parsed.seq, Some(41));
        assert_eq!(parsed.event, event);
        // Without a seq the envelope reports None.
        let bare = TraceLine::parse(&event.to_json()).unwrap();
        assert_eq!(bare.seq, None);
        assert_eq!(bare.event, event);
    }

    #[test]
    fn tracer_stamps_monotone_seq_shared_across_clones() {
        let sink = Arc::new(VecSink::new());
        let tracer = Tracer::new(sink.clone());
        let clone = tracer.clone();
        tracer.emit(TraceEvent::Dropout { round: 1, client: 0, reason: "crash-injected".into() });
        clone.emit(TraceEvent::Dropout { round: 1, client: 1, reason: "crash-injected".into() });
        tracer.emit(TraceEvent::Dropout { round: 1, client: 2, reason: "crash-injected".into() });
        let seqs: Vec<u64> = sink.seq_snapshot().iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn trace_reader_streams_lines_with_numbers_and_reports_errors() {
        let text = "\
{\"ev\":\"round_start\",\"seq\":0,\"round\":1,\"sampled\":[0],\"survivors\":[0]}\n\
\n\
{\"ev\":\"dropout\",\"seq\":1,\"round\":1,\"client\":0,\"reason\":\"crash-injected\"}\n\
not json\n";
        let items: Vec<_> = TraceReader::new(text.as_bytes()).collect();
        assert_eq!(items.len(), 3); // blank line skipped
        let (n0, l0) = items[0].as_ref().unwrap();
        assert_eq!((*n0, l0.seq), (1, Some(0)));
        let (n1, l1) = items[1].as_ref().unwrap();
        assert_eq!((*n1, l1.seq), (3, Some(1)));
        assert_eq!(
            l1.event,
            TraceEvent::Dropout { round: 1, client: 0, reason: "crash-injected".into() }
        );
        let err = items[2].as_ref().unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
    }

    /// In-memory writer for exercising `JsonlSink` without touching disk.
    struct VecWriterSink {
        buf: Mutex<Vec<u8>>,
    }

    impl VecWriterSink {
        fn new() -> Self {
            Self { buf: Mutex::new(Vec::new()) }
        }

        fn bytes(&self) -> Vec<u8> {
            lock_unpoisoned(&self.buf).clone()
        }
    }

    struct SharedWriter(Arc<VecWriterSink>);

    impl Write for SharedWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            lock_unpoisoned(&self.0.buf).extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn tracer_disabled_is_noop_and_spans_report_zero() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.emit(TraceEvent::Dropout { round: 1, client: 0, reason: "crash-injected".into() });
        assert_eq!(tracer.span().elapsed_us(), 0);
        tracer.flush();
        assert_eq!(format!("{tracer:?}"), "Tracer(disabled)");
    }

    #[test]
    fn tracer_multi_fans_out() {
        let a = Arc::new(VecSink::new());
        let b = Arc::new(VecSink::new());
        let tracer = Tracer::multi(vec![a.clone(), b.clone()]);
        assert!(tracer.is_enabled());
        tracer.emit(TraceEvent::Dropout { round: 2, client: 1, reason: "crash-injected".into() });
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.len(), 1);
        assert!(!Tracer::multi(vec![]).is_enabled());
    }

    #[test]
    fn null_sink_discards() {
        let tracer = Tracer::new(Arc::new(NullSink));
        assert!(tracer.is_enabled());
        tracer.emit(TraceEvent::Dropout { round: 1, client: 0, reason: "crash-injected".into() });
        // Enabled tracers time for real.
        assert!(format!("{tracer:?}").contains("enabled"));
    }

    #[test]
    fn canonicalize_zeroes_time_and_fixes_order() {
        let mut shuffled = one_of_each();
        shuffled.reverse();
        let a = canonicalize(&one_of_each());
        let b = canonicalize(&shuffled);
        assert_eq!(a, b);
        assert!(a.iter().all(|e| e.us() == 0));
        // Round start sorts first, round end last.
        assert_eq!(a.first().unwrap().kind(), "round_start");
        assert_eq!(a.last().unwrap().kind(), "round_end");
    }

    #[test]
    fn summary_aggregates_phases_bytes_and_gates() {
        let mut events = one_of_each();
        events.push(TraceEvent::PruneGate {
            round: 2,
            client: 1,
            track: "un".into(),
            fired: false,
            reason: "mask-stable".into(),
            val_acc: 0.9,
            mask_distance: 0.0,
            pruned_fraction: 0.5,
        });
        let summary = TraceSummary::from_events(&events);
        assert_eq!(summary.rounds, 2);
        assert_eq!(summary.bytes_up, 2100);
        assert_eq!(summary.bytes_down, 4096);
        assert_eq!(summary.dropouts, 1);
        assert_eq!(summary.gates_fired, 1);
        assert_eq!(summary.gates_held.iter().find(|(r, _)| *r == "mask-stable").unwrap().1, 1);
        let train = summary.phases.iter().find(|(p, _)| *p == "train").unwrap().1;
        assert_eq!(train, PhaseStat { events: 1, total_us: 1234 });
        let rendered = summary.render();
        assert!(rendered.contains("== trace summary =="));
        assert!(rendered.contains("train"));
        assert!(rendered.contains("prune gates: 1 fired, held: 1 mask-stable"));
        // Summary is order-insensitive.
        let mut reversed = events.clone();
        reversed.reverse();
        assert_eq!(TraceSummary::from_events(&reversed), summary);
    }

    #[test]
    fn fmt_us_units() {
        assert_eq!(fmt_us(900), "900 µs");
        assert_eq!(fmt_us(1_500), "1.50 ms");
        assert_eq!(fmt_us(2_500_000), "2.50 s");
    }
}
