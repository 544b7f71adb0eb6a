//! Executable specification of the Sub-FedAvg round protocol.
//!
//! [`ProtocolSpec`] is a state machine fed one [`TraceEvent`] at a time in
//! emission (`seq`) order. It models the legal shape of a federation run —
//! PAPER.md Algorithms 1–2 as the engine actually emits them:
//!
//! ```text
//! round:   RoundStart ─ Dropout* ─ ⟨client pipelines⟩ ─ Aggregate ─ Eval? ─ RoundEnd
//! client:  ClientTrain → Download → ClientPrune → PruneGate{1,2}
//!            → Encode → Decode → Upload
//! ```
//!
//! (Training is emitted first because local training runs on worker
//! threads before the serial server loop charges the download it
//! consumed; the *protocol* download precedes training, the *event*
//! follows it.) Client pipelines from different clients may interleave
//! arbitrarily; each client's own events must appear in pipeline order.
//!
//! On top of the per-round / per-client transition rules sit cross-event
//! predicates that token lints and single-site runtime asserts cannot
//! check:
//!
//! - per-(client, track) `pruned_fraction` never decreases and per-client
//!   `Encode.kept` never grows — personal masks only shrink;
//! - wire-format byte accounting: `Encode.bytes = header + packed mask +
//!   4·kept`, the packed-mask length is one constant for the whole trace,
//!   `Upload.bytes = 4·kept (+ mask when a gate fired)`, `Download.bytes`
//!   equals 4× the client's previous kept count;
//! - every `Aggregate` is preceded by decodes from exactly the surviving
//!   sampled clients and reports that count;
//! - every sampled non-survivor carries a `Dropout` with an explicit
//!   skip reason; every fired `PruneGate` follows a `ClientPrune`;
//! - `RoundEnd.cum_bytes` equals the running sum of all transfer bytes;
//! - when a `ClientTrain` records FLOP accounting (`dense_flops > 0`),
//!   its `effective_flops` never exceeds `dense_flops` — a subnetwork
//!   cannot do more work than the dense model — and, per client, the
//!   effective FLOPs never increase across rounds: masks only shrink,
//!   so the per-batch work of a personalized subnetwork only falls;
//! - when a `RoundStart` records cohort sampling (`cohort_size > 0` /
//!   `registered > 0`, see `docs/SCALING.md`), the sampled set must have
//!   exactly `cohort_size` members and every sampled id must lie inside
//!   the registered population — aggregate completeness is then checked
//!   over the sampled *surviving* cohort, not the whole registry.
//!
//! The verifier front-end (file handling, `seq` ordering, reporting)
//! lives in [`crate::conform`].

use crate::rules::escape_json;
use std::collections::BTreeMap;
use subfed_metrics::trace::TraceEvent;

/// Tolerance for the pruned-fraction monotonicity predicate: fractions
/// are f32 ratios of integer counts, so anything below this is rounding
/// noise rather than a regrown mask.
const FRACTION_EPS: f32 = 1e-6;

/// Gate reason vocabulary (mirrors `subfed_pruning::GateReason::as_str`).
const GATE_REASONS: [&str; 4] = ["pruned", "acc-below-threshold", "target-reached", "mask-stable"];

/// Gate track vocabulary: Algorithm 1 emits `un`; Algorithm 2 emits
/// `channel` then `un`.
const GATE_TRACKS: [&str; 2] = ["un", "channel"];

/// One protocol violation, with enough context to point back into the
/// trace: the offending round, client (when client-scoped), event kind,
/// and source line (when the caller is replaying a file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable machine-readable rule id, e.g. `phase-order`.
    pub rule: &'static str,
    /// Round the violation belongs to (0 when outside any round).
    pub round: usize,
    /// Client the violation belongs to, when client-scoped.
    pub client: Option<usize>,
    /// The `ev` tag of the offending event (`"<end>"` for end-of-trace
    /// checks).
    pub event: &'static str,
    /// 1-based line of the offending event in the replayed file, when
    /// known.
    pub line: Option<usize>,
    /// Human-readable description of what was illegal and why.
    pub message: String,
}

impl Violation {
    /// `round R [client C] EV [line L]: [rule] message` — the text render.
    pub fn render(&self) -> String {
        let mut ctx = format!("round {}", self.round);
        if let Some(c) = self.client {
            ctx.push_str(&format!(" client {c}"));
        }
        ctx.push_str(&format!(" {}", self.event));
        if let Some(l) = self.line {
            ctx.push_str(&format!(" (line {l})"));
        }
        format!("{ctx}: [{}] {}", self.rule, self.message)
    }

    /// One JSON object per violation, for `--format json`.
    pub fn to_json(&self) -> String {
        let client = self.client.map_or("null".to_string(), |c| c.to_string());
        let line = self.line.map_or("null".to_string(), |l| l.to_string());
        format!(
            "{{\"rule\":\"{}\",\"round\":{},\"client\":{client},\"event\":\"{}\",\
             \"line\":{line},\"message\":\"{}\"}}",
            self.rule,
            self.round,
            self.event,
            escape_json(&self.message)
        )
    }
}

/// Where a surviving client is in its round pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Sampled,
    Trained,
    Downloaded,
    Pruned,
    Gated,
    Encoded,
    Decoded,
    Uploaded,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Sampled => "sampled",
            Phase::Trained => "trained",
            Phase::Downloaded => "downloaded",
            Phase::Pruned => "pruned",
            Phase::Gated => "gated",
            Phase::Encoded => "encoded",
            Phase::Decoded => "decoded",
            Phase::Uploaded => "uploaded",
        }
    }
}

/// Per-client state within the open round.
#[derive(Debug, Clone)]
struct ClientRound {
    phase: Phase,
    /// Gate tracks already decided this round.
    tracks: Vec<String>,
    /// Whether any gate fired (mask advanced) this round.
    any_fired: bool,
    /// Kept count implied by this round's download (`bytes / 4`).
    kept_before: Option<u64>,
    /// This round's `Encode.bytes`, for the decode-consistency check.
    encode_bytes: Option<u64>,
    /// This round's `Encode.kept`, for the upload byte check.
    encode_kept: Option<u64>,
}

impl ClientRound {
    fn new() -> Self {
        Self {
            phase: Phase::Sampled,
            tracks: Vec::new(),
            any_fired: false,
            kept_before: None,
            encode_bytes: None,
            encode_kept: None,
        }
    }
}

/// State of the currently open round.
#[derive(Debug, Clone)]
struct RoundState {
    round: usize,
    sampled: Vec<usize>,
    survivors: Vec<usize>,
    dropouts: Vec<usize>,
    clients: BTreeMap<usize, ClientRound>,
    aggregated: bool,
    eval_seen: bool,
    /// Sum of this round's download + upload bytes.
    bytes: u64,
}

/// The executable round-protocol state machine.
///
/// Feed events in emission order via [`ProtocolSpec::observe`]; each call
/// returns the violations that event triggered. Call
/// [`ProtocolSpec::finish`] after the last event for end-of-trace checks.
/// The spec never panics on malformed traces — every illegal shape is a
/// reported violation, so a hostile trace cannot crash the verifier.
#[derive(Debug, Clone, Default)]
pub struct ProtocolSpec {
    /// The highest round closed by a `RoundEnd`.
    last_closed: usize,
    open: Option<RoundState>,
    /// Last observed `pruned_fraction` per (client, track).
    gate_fraction: BTreeMap<(usize, String), f32>,
    /// Last observed `Encode.kept` per client.
    prev_kept: BTreeMap<usize, u64>,
    /// Last observed non-zero `ClientTrain.effective_flops` per client.
    prev_flops: BTreeMap<usize, u64>,
    /// Packed-mask byte length, derived from the first `Encode`
    /// (`bytes - header - 4·kept`); constant for the whole trace.
    mask_overhead: Option<u64>,
    /// First-participation download size (4 × model size); every client
    /// starts from the same all-ones mask, so these must all agree.
    full_download: Option<u64>,
    /// `cum_bytes` reported by the last `RoundEnd`.
    cum_bytes: u64,
    /// Number of events observed.
    pub events_seen: usize,
    /// Number of rounds closed.
    pub rounds_seen: usize,
}

/// Wire-format header length (`subfed_core::wire`): magic + reserved +
/// count.
const WIRE_HEADER_BYTES: u64 = 8;
/// Bytes per kept f32 parameter.
const BYTES_PER_PARAM: u64 = 4;

impl ProtocolSpec {
    /// A spec expecting the first event of a fresh trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one event (with its source line, when replaying a file) and
    /// returns the violations it triggered, in detection order.
    pub fn observe(&mut self, event: &TraceEvent, line: Option<usize>) -> Vec<Violation> {
        self.events_seen += 1;
        let mut out = Vec::new();
        let v = |rule: &'static str, round: usize, client: Option<usize>, message: String| {
            Violation { rule, round, client, event: event.kind(), line, message }
        };

        if let TraceEvent::RoundStart { round, sampled, survivors, registered, cohort_size } = event
        {
            if let Some(open) = &self.open {
                out.push(v(
                    "round-overlap",
                    *round,
                    None,
                    format!("round {} started before round {} ended", round, open.round),
                ));
                // Recover by force-closing the stale round so the rest of
                // the trace is still checked.
                self.open = None;
            }
            if *round <= self.last_closed {
                out.push(v(
                    "round-order",
                    *round,
                    None,
                    format!(
                        "round number {} is not greater than the last closed round {}",
                        round, self.last_closed
                    ),
                ));
            }
            for s in survivors {
                if !sampled.contains(s) {
                    out.push(v(
                        "survivor-not-sampled",
                        *round,
                        Some(*s),
                        format!("survivor {s} does not appear in the sampled set"),
                    ));
                }
            }
            // Cohort-sampling fields are 0 in pre-registry traces ("not
            // recorded"); when recorded, the sampled set must agree with
            // the sampler's declared cohort and fit the registry.
            if *cohort_size > 0 && sampled.len() != *cohort_size {
                out.push(v(
                    "cohort-size",
                    *round,
                    None,
                    format!(
                        "round declares a cohort of {cohort_size} clients but sampled {}",
                        sampled.len()
                    ),
                ));
            }
            if *registered > 0 {
                for s in sampled {
                    if *s >= *registered {
                        out.push(v(
                            "cohort-bounds",
                            *round,
                            Some(*s),
                            format!(
                                "sampled client {s} lies outside the registered population \
                                 of {registered}"
                            ),
                        ));
                    }
                }
            }
            let mut clients = BTreeMap::new();
            for &s in survivors {
                clients.insert(s, ClientRound::new());
            }
            self.open = Some(RoundState {
                round: *round,
                sampled: sampled.clone(),
                survivors: survivors.clone(),
                dropouts: Vec::new(),
                clients,
                aggregated: false,
                eval_seen: false,
                bytes: 0,
            });
            return out;
        }

        // Every non-RoundStart event must land inside its own open round.
        let Some(open) = &mut self.open else {
            out.push(v(
                "event-outside-round",
                event.round(),
                event.client(),
                "event arrived with no round open".to_string(),
            ));
            return out;
        };
        if event.round() != open.round {
            out.push(v(
                "event-outside-round",
                event.round(),
                event.client(),
                format!("event is tagged round {} but round {} is open", event.round(), open.round),
            ));
            return out;
        }

        match event {
            TraceEvent::RoundStart { .. } => unreachable!("handled above"),
            TraceEvent::Dropout { round, client, reason } => {
                if !open.sampled.contains(client) {
                    out.push(v(
                        "dropout-not-sampled",
                        *round,
                        Some(*client),
                        format!("dropout for client {client} who was never sampled"),
                    ));
                } else if open.survivors.contains(client) {
                    out.push(v(
                        "dropout-survivor",
                        *round,
                        Some(*client),
                        format!("dropout for client {client} who is listed as a survivor"),
                    ));
                }
                if open.dropouts.contains(client) {
                    out.push(v(
                        "dropout-duplicate",
                        *round,
                        Some(*client),
                        format!("second dropout record for client {client}"),
                    ));
                }
                if reason.is_empty() {
                    out.push(v(
                        "dropout-missing-reason",
                        *round,
                        Some(*client),
                        format!("dropout for client {client} carries no skip reason"),
                    ));
                }
                open.dropouts.push(*client);
            }
            TraceEvent::ClientTrain { round, client, effective_flops, dense_flops, .. } => {
                // FLOP fields are 0 in pre-FLOP-accounting traces; when
                // recorded, the masked work can never exceed the dense work.
                if *dense_flops > 0 && effective_flops > dense_flops {
                    out.push(v(
                        "train-flops",
                        *round,
                        Some(*client),
                        format!(
                            "client {client} reports effective_flops {effective_flops} \
                             above dense_flops {dense_flops}"
                        ),
                    ));
                }
                if *dense_flops > 0 {
                    if let Some(&prev) = self.prev_flops.get(client) {
                        if *effective_flops > prev {
                            out.push(v(
                                "flops-regrow",
                                *round,
                                Some(*client),
                                format!(
                                    "client {client} effective_flops rose from {prev} to \
                                     {effective_flops} — masks only shrink, so per-batch \
                                     work cannot grow"
                                ),
                            ));
                        }
                    }
                    self.prev_flops.insert(*client, *effective_flops);
                }
                out.extend(self.client_step(*round, *client, event.kind(), line, |c| {
                    Self::advance(c, Phase::Sampled, Phase::Trained)
                }));
            }
            TraceEvent::Download { round, client, bytes } => {
                let expected = self.prev_kept.get(client).map(|k| k * BYTES_PER_PARAM);
                let full = &mut self.full_download;
                let mut extra = Vec::new();
                match expected {
                    Some(want) if want != *bytes => extra.push((
                        "download-bytes",
                        format!(
                            "download of {bytes} bytes but the client's mask kept \
                             {} parameters last round ({want} bytes expected)",
                            want / BYTES_PER_PARAM
                        ),
                    )),
                    Some(_) => {}
                    None => match *full {
                        // First participation: the mask is still all-ones,
                        // so every first download is 4 × model size.
                        Some(f) if f != *bytes => extra.push((
                            "download-bytes",
                            format!(
                                "first-participation download of {bytes} bytes, but other \
                                 clients' first downloads were {f} bytes"
                            ),
                        )),
                        Some(_) => {}
                        None => *full = Some(*bytes),
                    },
                }
                if *bytes % BYTES_PER_PARAM != 0 {
                    extra.push((
                        "download-bytes",
                        format!("download of {bytes} bytes is not a whole number of f32s"),
                    ));
                }
                let kept_before = *bytes / BYTES_PER_PARAM;
                out.extend(self.client_step(*round, *client, event.kind(), line, |c| {
                    c.kept_before = Some(kept_before);
                    Self::advance(c, Phase::Trained, Phase::Downloaded)
                }));
                out.extend(extra.into_iter().map(|(rule, message)| Violation {
                    rule,
                    round: *round,
                    client: Some(*client),
                    event: event.kind(),
                    line,
                    message,
                }));
                if let Some(open) = &mut self.open {
                    open.bytes += *bytes;
                }
            }
            TraceEvent::ClientPrune { round, client, .. } => {
                out.extend(self.client_step(*round, *client, event.kind(), line, |c| {
                    Self::advance(c, Phase::Downloaded, Phase::Pruned)
                }));
            }
            TraceEvent::PruneGate {
                round, client, track, fired, reason, pruned_fraction, ..
            } => {
                if !GATE_TRACKS.contains(&track.as_str()) {
                    out.push(v(
                        "gate-track",
                        *round,
                        Some(*client),
                        format!("unknown gate track `{track}`"),
                    ));
                }
                if !GATE_REASONS.contains(&reason.as_str()) {
                    out.push(v(
                        "gate-reason",
                        *round,
                        Some(*client),
                        format!("unknown gate reason `{reason}`"),
                    ));
                } else if *fired != (reason == "pruned") {
                    out.push(v(
                        "gate-fired-mismatch",
                        *round,
                        Some(*client),
                        format!("gate reports fired={fired} but reason `{reason}`"),
                    ));
                }
                let key = (*client, track.clone());
                if let Some(prev) = self.gate_fraction.get(&key) {
                    if *pruned_fraction < prev - FRACTION_EPS {
                        out.push(v(
                            "density-regrow",
                            *round,
                            Some(*client),
                            format!(
                                "pruned fraction of track `{track}` fell from {prev} to \
                                 {pruned_fraction} — personal masks must only shrink"
                            ),
                        ));
                    }
                }
                self.gate_fraction.insert(key, *pruned_fraction);
                let track = track.clone();
                let fired = *fired;
                out.extend(self.client_step(*round, *client, event.kind(), line, |c| {
                    let mut vs = Vec::new();
                    if c.tracks.contains(&track) {
                        vs.push((
                            "gate-duplicate-track",
                            format!("second `{track}` gate decision this round"),
                        ));
                    }
                    c.tracks.push(track.clone());
                    c.any_fired |= fired;
                    // A gate needs a preceding ClientPrune (the candidate
                    // masks it judged); several gates may share one.
                    if c.phase == Phase::Pruned || c.phase == Phase::Gated {
                        c.phase = Phase::Gated;
                    } else {
                        vs.push((
                            "phase-order",
                            format!(
                                "prune_gate arrived in phase `{}` — a gate decision \
                                 requires a preceding `prune` this round",
                                c.phase.name()
                            ),
                        ));
                    }
                    vs
                }));
            }
            TraceEvent::Encode { round, client, bytes, kept, .. } => {
                let kept = *kept as u64;
                let mut extra = Vec::new();
                if *bytes < WIRE_HEADER_BYTES + kept * BYTES_PER_PARAM {
                    extra.push((
                        "mask-overhead",
                        format!(
                            "encoded message of {bytes} bytes cannot hold a header and \
                             {kept} kept parameters"
                        ),
                    ));
                } else {
                    let overhead = *bytes - WIRE_HEADER_BYTES - kept * BYTES_PER_PARAM;
                    match self.mask_overhead {
                        None => {
                            self.mask_overhead = Some(overhead);
                            if let Some(full) = self.full_download {
                                let params = full / BYTES_PER_PARAM;
                                let want = params.div_ceil(8);
                                if overhead != want {
                                    extra.push((
                                        "mask-overhead",
                                        format!(
                                            "packed mask of {overhead} bytes does not match \
                                             the model size implied by downloads \
                                             ({params} params need {want} bytes)"
                                        ),
                                    ));
                                }
                            }
                        }
                        Some(prev) if prev != overhead => extra.push((
                            "mask-overhead",
                            format!(
                                "packed-mask length changed from {prev} to {overhead} \
                                 bytes — the model size is fixed, so it cannot"
                            ),
                        )),
                        Some(_) => {}
                    }
                }
                out.extend(self.client_step(*round, *client, event.kind(), line, |c| {
                    let mut vs = Self::advance(c, Phase::Gated, Phase::Encoded);
                    if let Some(before) = c.kept_before {
                        if kept > before {
                            vs.push((
                                "kept-regrow",
                                format!(
                                    "encode kept {kept} parameters but the mask held \
                                     only {before} at download — masks must only shrink"
                                ),
                            ));
                        } else if c.any_fired && kept >= before {
                            vs.push((
                                "kept-regrow",
                                format!(
                                    "a gate fired but the kept count did not drop \
                                     ({before} → {kept})"
                                ),
                            ));
                        } else if !c.any_fired && kept != before {
                            vs.push((
                                "kept-regrow",
                                format!(
                                    "no gate fired yet the kept count changed \
                                     ({before} → {kept})"
                                ),
                            ));
                        }
                    }
                    c.encode_bytes = Some(*bytes);
                    c.encode_kept = Some(kept);
                    vs
                }));
                self.prev_kept.insert(*client, kept);
            }
            TraceEvent::Decode { round, client, bytes, .. } => {
                let bytes = *bytes;
                out.extend(self.client_step(*round, *client, event.kind(), line, |c| {
                    let mut vs = Self::advance(c, Phase::Encoded, Phase::Decoded);
                    if let Some(enc) = c.encode_bytes {
                        if enc != bytes {
                            vs.push((
                                "decode-bytes",
                                format!("decoded {bytes} bytes but the client encoded {enc}"),
                            ));
                        }
                    }
                    vs
                }));
            }
            TraceEvent::Upload { round, client, bytes } => {
                let bytes = *bytes;
                let mask_overhead = self.mask_overhead;
                out.extend(self.client_step(*round, *client, event.kind(), line, |c| {
                    let mut vs = Self::advance(c, Phase::Decoded, Phase::Uploaded);
                    if let (Some(kept), Some(overhead)) = (c.encode_kept, mask_overhead) {
                        let want = kept * BYTES_PER_PARAM + if c.any_fired { overhead } else { 0 };
                        if bytes != want {
                            vs.push((
                                "upload-bytes",
                                format!(
                                    "upload of {bytes} bytes but {kept} kept parameters \
                                     {} imply {want}",
                                    if c.any_fired {
                                        "plus the changed mask"
                                    } else {
                                        "with an unchanged mask"
                                    }
                                ),
                            ));
                        }
                    }
                    vs
                }));
                if let Some(open) = &mut self.open {
                    open.bytes += bytes;
                }
            }
            TraceEvent::Aggregate { round, updates, .. } => {
                if open.aggregated {
                    out.push(v(
                        "aggregate-duplicate",
                        *round,
                        None,
                        "second aggregate this round".to_string(),
                    ));
                }
                if open.survivors.is_empty() {
                    out.push(v(
                        "aggregate-empty",
                        *round,
                        None,
                        "aggregate in a round with no surviving clients".to_string(),
                    ));
                }
                if *updates != open.survivors.len() {
                    out.push(v(
                        "aggregate-updates",
                        *round,
                        None,
                        format!(
                            "aggregate reports {updates} updates but the round has {} \
                             survivors",
                            open.survivors.len()
                        ),
                    ));
                }
                for (c, state) in &open.clients {
                    if state.phase != Phase::Uploaded {
                        out.push(v(
                            "aggregate-incomplete",
                            *round,
                            Some(*c),
                            format!(
                                "aggregate ran but survivor {c} is only `{}` — the server \
                                 must decode exactly the surviving clients first",
                                state.phase.name()
                            ),
                        ));
                    }
                }
                open.aggregated = true;
            }
            TraceEvent::Eval { round, .. } => {
                if open.eval_seen {
                    out.push(v(
                        "eval-duplicate",
                        *round,
                        None,
                        "second eval this round".to_string(),
                    ));
                }
                if !open.survivors.is_empty() && !open.aggregated {
                    out.push(v(
                        "eval-before-aggregate",
                        *round,
                        None,
                        "eval ran before the round's aggregate".to_string(),
                    ));
                }
                open.eval_seen = true;
            }
            TraceEvent::Invariant { round, context, detail } => {
                out.push(v(
                    "invariant-event",
                    *round,
                    None,
                    format!("runtime invariant failed at `{context}`: {detail}"),
                ));
            }
            TraceEvent::RoundEnd { round, cum_bytes, .. } => {
                if !open.survivors.is_empty() && !open.aggregated {
                    out.push(v(
                        "round-missing-aggregate",
                        *round,
                        None,
                        format!(
                            "round ended without an aggregate despite {} survivors",
                            open.survivors.len()
                        ),
                    ));
                }
                for (c, state) in &open.clients {
                    if state.phase != Phase::Uploaded {
                        out.push(v(
                            "client-incomplete",
                            *round,
                            Some(*c),
                            format!(
                                "survivor {c} ended the round in phase `{}` without \
                                 completing its pipeline",
                                state.phase.name()
                            ),
                        ));
                    }
                }
                for s in &open.sampled {
                    if !open.survivors.contains(s) && !open.dropouts.contains(s) {
                        out.push(v(
                            "dropout-missing",
                            *round,
                            Some(*s),
                            format!(
                                "sampled client {s} neither survived nor has a dropout \
                                 record explaining the skip"
                            ),
                        ));
                    }
                }
                let want = self.cum_bytes + open.bytes;
                if *cum_bytes != want {
                    out.push(v(
                        "cum-bytes",
                        *round,
                        None,
                        format!(
                            "round end reports {cum_bytes} cumulative bytes but previous \
                             total {} + this round's transfers {} = {want}",
                            self.cum_bytes, open.bytes
                        ),
                    ));
                }
                self.cum_bytes = *cum_bytes;
                self.last_closed = open.round;
                self.rounds_seen += 1;
                self.open = None;
            }
        }
        out
    }

    /// End-of-trace checks: the final round must have been closed.
    pub fn finish(&mut self) -> Vec<Violation> {
        let mut out = Vec::new();
        if let Some(open) = self.open.take() {
            out.push(Violation {
                rule: "truncated-trace",
                round: open.round,
                client: None,
                event: "<end>",
                line: None,
                message: format!("trace ends while round {} is still open", open.round),
            });
        }
        out
    }

    /// Runs a per-client transition: locates (or rejects) the client's
    /// round state and applies `step` to it. Returns the violations.
    fn client_step(
        &mut self,
        round: usize,
        client: usize,
        event: &'static str,
        line: Option<usize>,
        step: impl FnOnce(&mut ClientRound) -> Vec<(&'static str, String)>,
    ) -> Vec<Violation> {
        let mk = |rule: &'static str, message: String| Violation {
            rule,
            round,
            client: Some(client),
            event,
            line,
            message,
        };
        let Some(open) = &mut self.open else {
            return vec![mk("event-outside-round", "no round open".to_string())];
        };
        let mut out = Vec::new();
        if open.aggregated {
            out.push(mk(
                "client-event-after-aggregate",
                format!(
                    "client {client} {event} after the round's aggregate — uploads \
                     arriving now were never averaged"
                ),
            ));
        }
        let Some(state) = open.clients.get_mut(&client) else {
            out.push(mk(
                "client-not-survivor",
                format!("client {client} is not a survivor of round {round}"),
            ));
            return out;
        };
        out.extend(step(state).into_iter().map(|(rule, message)| mk(rule, message)));
        out
    }

    /// The standard one-step phase transition `from → to`, reporting a
    /// `phase-order` violation when the client is anywhere else.
    fn advance(c: &mut ClientRound, from: Phase, to: Phase) -> Vec<(&'static str, String)> {
        if c.phase == from {
            c.phase = to;
            Vec::new()
        } else {
            let got = c.phase.name();
            // Advance anyway (to the later of the two) so one slip does
            // not cascade into a violation per subsequent event.
            c.phase = c.phase.max(to);
            vec![(
                "phase-order",
                format!("event arrived in phase `{got}` — expected `{}`", from.name()),
            )]
        }
    }
}

/// The replay-identity predicate: two traces of the same configuration
/// (same seed, same data, any `--workers` setting) must be the *same run*
/// up to scheduling noise.
///
/// Both streams are put into canonical form
/// ([`subfed_metrics::trace::canonicalize`]: wall-times zeroed, events
/// sorted by round/kind/client/content) and must then agree event for
/// event; additionally, every round closed by both runs must report the
/// same `RoundEnd.model_hash` — the bit-level fingerprint of the
/// post-aggregation global model. A mismatch means nondeterminism leaked
/// into the round pipeline (an arrival-order fold, an unseeded RNG, a
/// wall-clock read feeding a decision) and fails the CI gate.
///
/// A hash of `0` means "not recorded" (pre-fingerprint traces, or
/// algorithms with no server model); two unrecorded hashes compare equal
/// so stream identity still decides, but a recorded hash never matches an
/// unrecorded one.
pub fn replay_identity(a: &[TraceEvent], b: &[TraceEvent]) -> Vec<Violation> {
    use subfed_metrics::trace::canonicalize;
    let mk = |round: usize, event: &'static str, message: String| Violation {
        rule: "replay-identity",
        round,
        client: None,
        event,
        line: None,
        message,
    };
    let mut out = Vec::new();

    // Per-round model hashes first: a fingerprint divergence names the
    // earliest round where the aggregated models split, which localises
    // the nondeterminism better than the first differing event.
    let hashes = |evs: &[TraceEvent]| -> BTreeMap<usize, u64> {
        evs.iter()
            .filter_map(|e| match e {
                TraceEvent::RoundEnd { round, model_hash, .. } => Some((*round, *model_hash)),
                _ => None,
            })
            .collect()
    };
    let (ha, hb) = (hashes(a), hashes(b));
    for (round, fa) in &ha {
        match hb.get(round) {
            Some(fb) if fa != fb => out.push(mk(
                *round,
                "round_end",
                format!(
                    "model_hash diverges at round {round}: {fa:016x} vs {fb:016x} — the \
                     aggregated models are not bit-identical across the two runs"
                ),
            )),
            None => out.push(mk(
                *round,
                "round_end",
                format!("round {round} closed in the first run but not in the second"),
            )),
            _ => {}
        }
    }
    for round in hb.keys().filter(|r| !ha.contains_key(r)) {
        out.push(mk(
            *round,
            "round_end",
            format!("round {round} closed in the second run but not in the first"),
        ));
    }

    // Then full canonical-stream identity: every deterministic field of
    // every event must agree.
    let (ca, cb) = (canonicalize(a), canonicalize(b));
    if ca.len() != cb.len() {
        out.push(mk(0, "<replay>", format!("event counts differ: {} vs {}", ca.len(), cb.len())));
    }
    if let Some((i, (ea, eb))) = ca.iter().zip(cb.iter()).enumerate().find(|(_, (x, y))| x != y) {
        out.push(mk(
            ea.round(),
            "<replay>",
            format!(
                "canonical streams diverge at event {i}: `{}` vs `{}`",
                ea.to_json(),
                eb.to_json()
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_round_start(round: usize, sampled: &[usize], survivors: &[usize]) -> TraceEvent {
        // Legacy (pre-cohort-sampling) shape: registered/cohort_size are
        // "not recorded", so the cohort predicates stay silent.
        TraceEvent::RoundStart {
            round,
            sampled: sampled.to_vec(),
            survivors: survivors.to_vec(),
            registered: 0,
            cohort_size: 0,
        }
    }

    /// A minimal clean round for client set `clients`, model of 100
    /// params (400-byte full download, 13-byte packed mask).
    fn clean_round(round: usize, clients: &[usize], kept: &[u64]) -> Vec<TraceEvent> {
        let mut evs = vec![ev_round_start(round, clients, clients)];
        for &c in clients {
            evs.push(TraceEvent::ClientTrain {
                round,
                client: c,
                us: 1,
                val_acc: 0.5,
                train_loss: 1.0,
                effective_flops: 100,
                dense_flops: 100,
            });
        }
        for (&c, &k) in clients.iter().zip(kept) {
            evs.push(TraceEvent::Download { round, client: c, bytes: 400 });
            evs.push(TraceEvent::ClientPrune { round, client: c, us: 1 });
            evs.push(TraceEvent::PruneGate {
                round,
                client: c,
                track: "un".into(),
                fired: k < 100,
                reason: if k < 100 { "pruned" } else { "mask-stable" }.into(),
                val_acc: 0.5,
                mask_distance: 0.1,
                pruned_fraction: 1.0 - k as f32 / 100.0,
            });
            evs.push(TraceEvent::Encode {
                round,
                client: c,
                us: 1,
                bytes: 8 + 13 + 4 * k,
                kept: k as usize,
            });
            evs.push(TraceEvent::Decode { round, client: c, us: 1, bytes: 8 + 13 + 4 * k });
            let upload = 4 * k + if k < 100 { 13 } else { 0 };
            evs.push(TraceEvent::Upload { round, client: c, bytes: upload });
        }
        evs.push(TraceEvent::Aggregate { round, us: 1, updates: clients.len() });
        let bytes: u64 = clients
            .iter()
            .zip(kept)
            .map(|(_, &k)| 400 + 4 * k + if k < 100 { 13 } else { 0 })
            .sum();
        evs.push(TraceEvent::RoundEnd { round, us: 1, cum_bytes: bytes, model_hash: 0 });
        evs
    }

    fn verify(events: &[TraceEvent]) -> Vec<Violation> {
        let mut spec = ProtocolSpec::new();
        let mut out = Vec::new();
        for (i, e) in events.iter().enumerate() {
            out.extend(spec.observe(e, Some(i + 1)));
        }
        out.extend(spec.finish());
        out
    }

    #[test]
    fn clean_hand_built_round_passes() {
        let vs = verify(&clean_round(1, &[0, 1], &[80, 100]));
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn effective_flops_above_dense_is_flagged() {
        let mut evs = clean_round(1, &[0], &[80]);
        for e in &mut evs {
            if let TraceEvent::ClientTrain { effective_flops, dense_flops, .. } = e {
                *effective_flops = *dense_flops + 1;
            }
        }
        let vs = verify(&evs);
        assert!(vs.iter().any(|v| v.rule == "train-flops"), "{vs:?}");
    }

    #[test]
    fn zero_flop_fields_are_legacy_and_clean() {
        // Traces recorded before FLOP accounting parse with both fields 0;
        // the predicate must not fire on them.
        let mut evs = clean_round(1, &[0], &[80]);
        for e in &mut evs {
            if let TraceEvent::ClientTrain { effective_flops, dense_flops, .. } = e {
                *effective_flops = 0;
                *dense_flops = 0;
            }
        }
        let vs = verify(&evs);
        assert!(vs.is_empty(), "{vs:?}");
    }

    /// `clean_round` with the round's `ClientTrain.effective_flops`
    /// overridden — for exercising the cross-round FLOP predicates.
    fn round_with_flops(round: usize, kept: u64, effective: u64) -> Vec<TraceEvent> {
        let mut evs = clean_round(round, &[0], &[kept]);
        for e in &mut evs {
            if let TraceEvent::ClientTrain { effective_flops, .. } = e {
                *effective_flops = effective;
            }
        }
        evs
    }

    #[test]
    fn effective_flops_rising_across_rounds_is_flagged() {
        let mut evs = round_with_flops(1, 80, 60);
        evs.extend(round_with_flops(2, 80, 80)); // still ≤ dense, but rose
        let vs = verify(&evs);
        assert!(vs.iter().any(|v| v.rule == "flops-regrow"), "{vs:?}");
        assert!(vs.iter().all(|v| v.rule != "train-flops"), "{vs:?}");
    }

    #[test]
    fn effective_flops_nonincreasing_across_rounds_is_clean() {
        let mut evs = round_with_flops(1, 80, 80);
        evs.extend(round_with_flops(2, 80, 80)); // plateau: gates stopped
        evs.extend(round_with_flops(3, 80, 60)); // further pruning
                                                 // (Byte accounting across hand-built rounds is checked elsewhere;
                                                 // here only the FLOP trajectory is under test.)
        let vs = verify(&evs);
        assert!(vs.iter().all(|v| v.rule != "flops-regrow"), "{vs:?}");
        assert!(vs.iter().all(|v| v.rule != "train-flops"), "{vs:?}");
    }

    #[test]
    fn legacy_zero_flop_rounds_do_not_reset_the_flops_baseline() {
        let mut evs = round_with_flops(1, 80, 60);
        // A legacy round with no FLOP accounting in between…
        let mut legacy = clean_round(2, &[0], &[80]);
        for e in &mut legacy {
            if let TraceEvent::ClientTrain { effective_flops, dense_flops, .. } = e {
                *effective_flops = 0;
                *dense_flops = 0;
            }
        }
        evs.extend(legacy);
        // …must neither fire nor forget: a later rise is still caught.
        evs.extend(round_with_flops(3, 80, 80));
        let vs = verify(&evs);
        assert_eq!(vs.iter().filter(|v| v.rule == "flops-regrow").count(), 1, "{vs:?}");
    }

    #[test]
    fn duplicate_round_start_is_flagged() {
        let mut evs = clean_round(1, &[0], &[80]);
        evs.insert(1, ev_round_start(1, &[0], &[0]));
        let vs = verify(&evs);
        assert!(vs.iter().any(|v| v.rule == "round-overlap"), "{vs:?}");
    }

    #[test]
    fn decreasing_round_number_is_flagged() {
        let mut evs = clean_round(2, &[0], &[80]);
        evs.extend(clean_round(1, &[0], &[80]));
        let vs = verify(&evs);
        assert!(vs.iter().any(|v| v.rule == "round-order"), "{vs:?}");
    }

    #[test]
    fn dropped_decode_is_flagged_with_client_context() {
        let mut evs = clean_round(1, &[0], &[80]);
        evs.retain(|e| e.kind() != "decode");
        let vs = verify(&evs);
        let phase = vs.iter().find(|v| v.rule == "phase-order").expect("phase violation");
        assert_eq!(phase.client, Some(0));
        assert_eq!(phase.event, "upload");
        assert!(phase.message.contains("`encoded`"), "{phase:?}");
    }

    #[test]
    fn upload_after_aggregate_is_flagged() {
        let mut evs = clean_round(1, &[0], &[80]);
        let upload_at = evs.iter().position(|e| e.kind() == "upload").unwrap();
        let upload = evs.remove(upload_at);
        let agg_at = evs.iter().position(|e| e.kind() == "aggregate").unwrap();
        evs.insert(agg_at + 1, upload);
        let vs = verify(&evs);
        assert!(vs.iter().any(|v| v.rule == "client-event-after-aggregate"), "{vs:?}");
        assert!(vs.iter().any(|v| v.rule == "aggregate-incomplete"), "{vs:?}");
    }

    #[test]
    fn regrown_density_is_flagged() {
        let mut evs = clean_round(1, &[0], &[80]);
        evs.extend(clean_round(2, &[0], &[80]));
        // Round 2's gate reports a lower pruned fraction than round 1.
        let mut hit = false;
        for e in &mut evs {
            if let TraceEvent::PruneGate { round: 2, pruned_fraction, .. } = e {
                *pruned_fraction = 0.05;
                hit = true;
            }
        }
        assert!(hit);
        let vs = verify(&evs);
        assert!(vs.iter().any(|v| v.rule == "density-regrow"), "{vs:?}");
    }

    #[test]
    fn kept_count_growth_is_flagged() {
        let mut evs = clean_round(1, &[0], &[80]);
        evs.extend(clean_round(2, &[0], &[90])); // regrew 80 -> 90
        let vs = verify(&evs);
        // Round 2's download claims 400 bytes (full) but prev kept was 80,
        // and the encode kept grew.
        assert!(vs.iter().any(|v| v.rule == "download-bytes" || v.rule == "kept-regrow"), "{vs:?}");
    }

    #[test]
    fn upload_byte_mismatch_is_flagged() {
        let mut evs = clean_round(1, &[0], &[80]);
        for e in &mut evs {
            if let TraceEvent::Upload { bytes, .. } = e {
                *bytes += 4;
            }
            if let TraceEvent::RoundEnd { cum_bytes, .. } = e {
                *cum_bytes += 4; // keep the cumulative ledger consistent
            }
        }
        let vs = verify(&evs);
        assert!(vs.iter().any(|v| v.rule == "upload-bytes"), "{vs:?}");
    }

    #[test]
    fn cum_bytes_mismatch_is_flagged() {
        let mut evs = clean_round(1, &[0], &[80]);
        for e in &mut evs {
            if let TraceEvent::RoundEnd { cum_bytes, .. } = e {
                *cum_bytes += 1;
            }
        }
        let vs = verify(&evs);
        assert!(vs.iter().any(|v| v.rule == "cum-bytes"), "{vs:?}");
    }

    #[test]
    fn missing_dropout_record_is_flagged() {
        let mut evs = clean_round(1, &[0], &[80]);
        // Claim client 7 was sampled but never explain its absence.
        if let TraceEvent::RoundStart { sampled, .. } = &mut evs[0] {
            sampled.push(7);
        }
        let vs = verify(&evs);
        let miss = vs.iter().find(|v| v.rule == "dropout-missing").expect("missing dropout");
        assert_eq!(miss.client, Some(7));
    }

    #[test]
    fn empty_dropout_reason_is_flagged() {
        let mut evs = clean_round(1, &[0], &[80]);
        if let TraceEvent::RoundStart { sampled, .. } = &mut evs[0] {
            sampled.push(7);
        }
        evs.insert(1, TraceEvent::Dropout { round: 1, client: 7, reason: String::new() });
        let vs = verify(&evs);
        assert!(vs.iter().any(|v| v.rule == "dropout-missing-reason"), "{vs:?}");
    }

    #[test]
    fn invariant_events_are_violations() {
        let mut evs = clean_round(1, &[0], &[80]);
        evs.insert(
            1,
            TraceEvent::Invariant {
                round: 1,
                context: "aggregate".into(),
                detail: "coverage hole".into(),
            },
        );
        let vs = verify(&evs);
        assert!(vs.iter().any(|v| v.rule == "invariant-event"), "{vs:?}");
    }

    #[test]
    fn truncated_trace_is_flagged() {
        let mut evs = clean_round(1, &[0], &[80]);
        evs.pop(); // drop the round_end
        let vs = verify(&evs);
        assert!(vs.iter().any(|v| v.rule == "truncated-trace"), "{vs:?}");
    }

    #[test]
    fn empty_survivor_round_needs_no_aggregate() {
        let evs = vec![
            ev_round_start(1, &[2], &[]),
            TraceEvent::Dropout { round: 1, client: 2, reason: "crash-injected".into() },
            TraceEvent::RoundEnd { round: 1, us: 1, cum_bytes: 0, model_hash: 0 },
        ];
        let vs = verify(&evs);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn recorded_cohort_fields_pass_when_consistent() {
        let mut evs = clean_round(1, &[0, 1], &[80, 100]);
        if let TraceEvent::RoundStart { registered, cohort_size, .. } = &mut evs[0] {
            *registered = 1_000_000;
            *cohort_size = 2;
        }
        let vs = verify(&evs);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn wrong_cohort_size_is_flagged_by_name() {
        let mut evs = clean_round(1, &[0, 1], &[80, 100]);
        if let TraceEvent::RoundStart { registered, cohort_size, .. } = &mut evs[0] {
            *registered = 1_000_000;
            *cohort_size = 3; // claims 3, sampled only 2
        }
        let vs = verify(&evs);
        let hit = vs.iter().find(|v| v.rule == "cohort-size").expect("cohort-size violation");
        assert_eq!(hit.round, 1);
        assert!(hit.message.contains("cohort of 3"), "{hit:?}");
    }

    #[test]
    fn sampled_id_outside_registry_is_flagged() {
        let mut evs = clean_round(1, &[0, 1], &[80, 100]);
        if let TraceEvent::RoundStart { registered, cohort_size, .. } = &mut evs[0] {
            *registered = 1; // client 1 is out of range
            *cohort_size = 2;
        }
        let vs = verify(&evs);
        let hit = vs.iter().find(|v| v.rule == "cohort-bounds").expect("cohort-bounds violation");
        assert_eq!(hit.client, Some(1));
    }

    #[test]
    fn violation_render_names_round_client_event() {
        let v = Violation {
            rule: "phase-order",
            round: 3,
            client: Some(2),
            event: "upload",
            line: Some(41),
            message: "expected `decoded`".into(),
        };
        assert_eq!(
            v.render(),
            "round 3 client 2 upload (line 41): [phase-order] expected `decoded`"
        );
        assert!(v.to_json().contains("\"rule\":\"phase-order\""));
        assert!(v.to_json().contains("\"client\":2"));
    }

    /// Stamps one round's `RoundEnd.model_hash` (clean_round records 0).
    fn stamp_hash(evs: &mut [TraceEvent], hash: u64) {
        for e in evs.iter_mut() {
            if let TraceEvent::RoundEnd { model_hash, .. } = e {
                *model_hash = hash;
            }
        }
    }

    #[test]
    fn replay_identity_accepts_reordered_but_identical_runs() {
        let a = clean_round(1, &[0, 1], &[80, 90]);
        let mut b = a.clone();
        // A different worker interleaving: client pipelines swap and the
        // wall-times change, but the run is the same run.
        b.swap(1, 2);
        for e in &mut b {
            if let TraceEvent::ClientTrain { us, .. } = e {
                *us += 1000;
            }
        }
        let mut a = a;
        stamp_hash(&mut a, 0xdead_beef_0000_0001);
        stamp_hash(&mut b, 0xdead_beef_0000_0001);
        let vs = replay_identity(&a, &b);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn replay_identity_flags_diverging_model_hashes_by_round() {
        let mut a = clean_round(1, &[0], &[80]);
        let mut b = a.clone();
        stamp_hash(&mut a, 0xaaaa_aaaa_aaaa_aaaa);
        stamp_hash(&mut b, 0xbbbb_bbbb_bbbb_bbbb);
        let vs = replay_identity(&a, &b);
        let hash =
            vs.iter().find(|v| v.message.contains("model_hash diverges")).expect("hash violation");
        assert_eq!(hash.rule, "replay-identity");
        assert_eq!(hash.round, 1);
        assert!(hash.message.contains("aaaaaaaaaaaaaaaa"), "{}", hash.message);
    }

    #[test]
    fn replay_identity_flags_diverging_event_content() {
        let a = clean_round(1, &[0], &[80]);
        let mut b = clean_round(1, &[0], &[79]); // one kept-count differs
        stamp_hash(&mut b, 0);
        let vs = replay_identity(&a, &b);
        assert!(vs.iter().any(|v| v.message.contains("canonical streams diverge")), "{vs:?}");
    }

    #[test]
    fn replay_identity_flags_a_missing_round() {
        let mut a = clean_round(1, &[0], &[80]);
        a.extend(clean_round(2, &[0], &[80]));
        let b = clean_round(1, &[0], &[80]);
        let vs = replay_identity(&a, &b);
        assert!(
            vs.iter().any(|v| v.round == 2 && v.message.contains("not in the second")),
            "{vs:?}"
        );
    }
}
