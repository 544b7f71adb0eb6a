//! **Sub-FedAvg** — Algorithms 1 and 2 of the paper, as one round driver.
//!
//! Every client holds a persistent binary mask `m_k` (its personalized
//! subnetwork). A round:
//!
//! 1. sampled clients download `θ_g ⊙ m_k` and train locally with the mask
//!    frozen;
//! 2. candidate masks are derived from the first-epoch and last-epoch
//!    weights; if validation accuracy, the target rate, and the mask
//!    distance Δ all allow it, the client prunes further (see
//!    [`PruneTrack`]);
//! 3. clients upload their masked parameters (plus the bit-packed mask in
//!    rounds where it changed);
//! 4. the server applies **Sub-FedAvg averaging**: each position is
//!    averaged only over the clients that kept it.
//!
//! [`SubFedAvg::step_round`] runs steps 1–3 of a client inside its
//! `par_map` worker, which folds the decoded upload into an
//! [`OrderedAccumulator`] in cohort-slot order: the aggregate is
//! bit-identical at every worker count, and server memory stays O(model)
//! instead of O(cohort × model). The serial rest of the round commits the
//! new masks, closes the fold and records. Two things vary, as type
//! parameters: the pruning track ([`PruneTrack`]) and where per-client
//! state lives ([`ClientStore`]: [`Resident`] or [`Registry`]).
//! [`SubFedAvgUn`], [`SubFedAvgHy`] and [`ScaledSubFedAvg`] name the three
//! combinations in use; `docs/SCALING.md` walks through the registry one.

use super::common::{apply_flat_mask, is_eval_round, kept_count, record_round, train_step};
use crate::aggregate::unflatten_mask;
use crate::checkpoint::Checkpoint;
use crate::registry::ClientRegistry;
use crate::stream_agg::OrderedAccumulator;
use crate::{
    evaluate_accuracy, fedavg_aggregate, flatten_mask, invariants, subfedavg_aggregate_trimmed,
    wire, FederatedAlgorithm, Federation, History,
};
use std::borrow::Cow;
use std::sync::Arc;
use subfed_data::ClientData;
use subfed_metrics::comm::{mask_bytes, masked_transfer_bytes, pack_mask};
use subfed_metrics::trace::{model_hash, Span, TraceEvent};
use subfed_nn::{ModelMask, Sequential};
use subfed_pruning::{ChannelMask, GateDecision, HybridController, UnstructuredController};

/// Engine options that deviate from Algorithm 1, used by the ablation and
/// extension benches.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SubFedAvgOptions {
    /// Replace intersection averaging with plain FedAvg over masked
    /// updates (divide by the cohort size instead of the per-position
    /// holder count). Ablation 1 in `DESIGN.md`.
    pub plain_average: bool,
    /// Reset every client's mask to all-ones at the start of each round
    /// (no persistent personalization). Ablation 5.
    pub fresh_masks: bool,
    /// Lottery-ticket rewinding: when a client prunes, its surviving
    /// weights are rewound to the initial parameters θ₀ (the Frankle &
    /// Carbin procedure — Algorithm 1 threads θ₀ into `ClientUpdate` for
    /// exactly this purpose). Extension experiment.
    pub rewind_to_init: bool,
    /// Coordinate-wise trimmed-mean intersection averaging: drop this many
    /// extreme contributions per side at every position before averaging.
    /// Robust-aggregation extension (pairs with corrupted-client runs).
    pub trim: usize,
}

/// Sub-FedAvg with unstructured pruning (Table 1's "Sub-FedAvg (Un)"
/// rows).
pub type SubFedAvgUn = SubFedAvg<Resident<UnstructuredController>, UnstructuredController>;

/// Sub-FedAvg with hybrid pruning (Table 1's "Sub-FedAvg (Hy)" rows).
pub type SubFedAvgHy = SubFedAvg<Resident<HybridController>, HybridController>;

/// Sub-FedAvg (Un) over a registered population far larger than any
/// round's cohort: masks in a [`ClientRegistry`], cohorts from the
/// federation's `CohortSampler`, shards from its `ClientProvider`.
pub type ScaledSubFedAvg = SubFedAvg<Registry, UnstructuredController>;

/// A pruning track: how a client's mask advances after local training.
pub trait PruneTrack: Copy + Sync {
    /// A client's pruning state: its parameter mask, plus whatever the
    /// track derives it from.
    type State: Clone + Send + Sync + std::fmt::Debug;

    /// Display name used in tables.
    fn name(&self) -> String;
    /// The state of a client that has never pruned.
    fn fresh(&self, template: &Sequential) -> Self::State;
    /// The parameter mask a state trains and uploads under.
    fn mask(state: &Self::State) -> &ModelMask;
    /// One pruning decision from the first- and last-epoch weights: the
    /// advanced state when any gate fired, and every gate's decision named
    /// by its trace track.
    fn prune(
        &self,
        state: &Self::State,
        first_epoch: &Sequential,
        last_epoch: &Sequential,
        val_acc: f32,
    ) -> (Option<Self::State>, Vec<(&'static str, GateDecision)>);
    /// Pruned fraction of the weights in the track's scope and of the
    /// channels (0 for unstructured pruning), as `History` reports them.
    fn pruned(&self, state: &Self::State) -> (f32, f32);
}

/// Algorithm 1: magnitude pruning of the remaining weights.
impl PruneTrack for UnstructuredController {
    type State = ModelMask;

    fn name(&self) -> String {
        format!("Sub-FedAvg (Un) {:.0}%", self.target * 100.0)
    }
    fn fresh(&self, template: &Sequential) -> ModelMask {
        ModelMask::ones_for(template)
    }
    fn mask(state: &ModelMask) -> &ModelMask {
        state
    }
    fn prune(
        &self,
        mask: &ModelMask,
        fe: &Sequential,
        le: &Sequential,
        val_acc: f32,
    ) -> (Option<ModelMask>, Vec<(&'static str, GateDecision)>) {
        let (next, decision) = self.step_explained(fe, le, mask, val_acc);
        (next, vec![("un", decision)])
    }
    fn pruned(&self, mask: &ModelMask) -> (f32, f32) {
        (mask.pruned_fraction(|k| self.scope.includes(k)), 0.0)
    }
}

/// A hybrid-pruned client: its channel mask, its FC-only unstructured
/// base mask, and the parameter mask they expand to.
#[derive(Debug, Clone)]
pub struct HybridState {
    channels: ChannelMask,
    unstructured: ModelMask,
    mask: ModelMask,
}

/// Algorithm 2: channel pruning of the conv blocks by BatchNorm |γ| plus
/// magnitude pruning of the FC weights, each track gated independently.
impl PruneTrack for HybridController {
    type State = HybridState;

    fn name(&self) -> String {
        let (s, u) = (self.structured_target * 100.0, self.unstructured.target * 100.0);
        format!("Sub-FedAvg (Hy) {s:.0}%+{u:.0}%")
    }
    fn fresh(&self, template: &Sequential) -> HybridState {
        let ones = ModelMask::ones_for(template);
        let channels = HybridController::initial_channels(template);
        HybridState { channels, unstructured: ones.clone(), mask: ones }
    }
    fn mask(state: &HybridState) -> &ModelMask {
        &state.mask
    }
    fn prune(
        &self,
        state: &HybridState,
        fe: &Sequential,
        le: &Sequential,
        val_acc: f32,
    ) -> (Option<HybridState>, Vec<(&'static str, GateDecision)>) {
        let (s, d) = self.step_explained(fe, le, &state.channels, &state.unstructured, val_acc);
        // When neither track fires, the expansion of the unchanged masks
        // is the current parameter mask.
        let fired = s.gate.structured_fired || s.gate.unstructured_fired;
        let next = HybridState { channels: s.channels, unstructured: s.unstructured, mask: s.mask };
        (fired.then_some(next), vec![("channel", d.structured), ("un", d.unstructured)])
    }
    fn pruned(&self, state: &HybridState) -> (f32, f32) {
        (state.mask.pruned_fraction(|k| k.is_prunable_weight()), state.channels.pruned_fraction())
    }
}

/// One client's finished round, as its worker hands it to the store.
#[derive(Debug)]
pub struct ClientRound<S> {
    /// The advanced state, when a gate fired.
    next: Option<S>,
    /// The personalized model `θ_k ⊙ m_k`.
    params: Vec<f32>,
    val_acc: f32,
    data: Arc<ClientData>,
    eval_due: bool,
}

/// What the serial end of a round hands the store to record.
#[derive(Debug)]
pub struct RoundClose {
    round: usize,
    cum_bytes: u64,
    model_hash: u64,
    /// Memory of the streaming fold (0 when nothing was folded).
    agg_memory_bytes: usize,
    /// Opened at the top of the round, closed by its `round_end` event.
    span: Span,
}

/// Where per-client state lives between rounds, and how a round is
/// evaluated and recorded.
pub trait ClientStore<T: PruneTrack>: Sync {
    /// What one client's worker hands the serial commit.
    type Kept: Send;

    /// Readies the store for a round (and resets every client under the
    /// `fresh_masks` ablation).
    fn begin_round(&mut self, fed: &Federation, track: &T, global: &[f32], fresh_masks: bool);
    /// Client `i`'s state at the start of the round.
    fn client(&self, fed: &Federation, i: usize) -> Cow<'_, T::State>;
    /// Worker side, after the fold: what the store keeps of a round.
    fn keep(&self, fed: &Federation, run: ClientRound<T::State>) -> Self::Kept;
    /// Serial commit of client `i`'s round, in cohort order.
    fn commit(&mut self, i: usize, kept: Self::Kept);
    /// Evaluates (when due), emits `round_end` and records the round.
    fn record(&mut self, fed: &Federation, track: &T, close: RoundClose);
}

/// Every client's pruning state and personalized model, resident, with
/// personalized evaluation of all clients into a [`History`]: the paper's
/// cross-silo loop.
#[derive(Debug, Clone)]
pub struct Resident<T: PruneTrack> {
    /// Empty until the first round, so construction stays cheap.
    states: Vec<T::State>,
    /// Each client's last trained subnetwork (for evaluation).
    local_flats: Vec<Vec<f32>>,
    history: History,
}

impl<T: PruneTrack> ClientStore<T> for Resident<T> {
    type Kept = (Option<T::State>, Vec<f32>);

    fn begin_round(&mut self, fed: &Federation, track: &T, global: &[f32], fresh_masks: bool) {
        if self.states.is_empty() || fresh_masks {
            self.states = vec![track.fresh(&fed.build_model()); fed.num_clients()];
        }
        if self.local_flats.is_empty() {
            self.local_flats = vec![global.to_vec(); fed.num_clients()];
        }
    }

    fn client(&self, _: &Federation, i: usize) -> Cow<'_, T::State> {
        Cow::Borrowed(&self.states[i])
    }

    fn keep(&self, _: &Federation, run: ClientRound<T::State>) -> Self::Kept {
        (run.next, run.params)
    }

    fn commit(&mut self, i: usize, (next, params): Self::Kept) {
        if let Some(state) = next {
            self.states[i] = state;
        }
        self.local_flats[i] = params;
    }

    fn record(&mut self, fed: &Federation, track: &T, close: RoundClose) {
        let RoundClose { round, cum_bytes, model_hash, span, .. } = close;
        let pruned = self.states.iter().map(|s| track.pruned(s)).collect();
        let flats = &self.local_flats;
        record_round(&mut self.history, fed, round, flats, cum_bytes, model_hash, pruned, span);
    }
}

/// Registry-scale client state: only masks, packed in a [`ClientRegistry`]
/// (implicit all-ones until a client first prunes). Clients retrain from
/// the masked global each time they are sampled — a phone that returns
/// after a month does not keep last month's weights — and each survivor
/// is evaluated by its own worker, since evaluating the whole registered
/// population is the O(registered) cost this store exists to avoid.
#[derive(Debug, Clone)]
pub struct Registry {
    registry: ClientRegistry,
    records: Vec<ScaledRoundRecord>,
    /// This round's survivors so far: validation and test accuracy.
    cohort: Vec<(f32, Option<f32>)>,
}

impl ClientStore<UnstructuredController> for Registry {
    /// `(packed mask, kept)` when the gate fired, and the validation and
    /// (evaluation rounds only) test accuracy: O(packed mask), never
    /// O(model), so the cohort's dense vectors die with their workers.
    type Kept = (Option<(Vec<u8>, usize)>, (f32, Option<f32>));

    fn begin_round(&mut self, _: &Federation, _: &UnstructuredController, _: &[f32], fresh: bool) {
        // Options are only settable on `SubFedAvgUn`.
        debug_assert!(!fresh, "registry drivers take no options");
    }

    fn client(&self, fed: &Federation, i: usize) -> Cow<'_, ModelMask> {
        Cow::Owned(unflatten_mask(&fed.build_model(), &self.registry.mask_flat(i)))
    }

    fn keep(&self, fed: &Federation, run: ClientRound<ModelMask>) -> Self::Kept {
        let test_acc = run.eval_due.then(|| {
            let mut model = fed.build_model();
            model.load_flat(&run.params);
            evaluate_accuracy(&mut model, &run.data.test, 64)
        });
        let packed = run.next.map(|mask| {
            let flat = flatten_mask(&mask);
            (pack_mask(&flat), kept_count(&flat))
        });
        (packed, (run.val_acc, test_acc))
    }

    fn commit(&mut self, i: usize, (packed, accs): Self::Kept) {
        self.registry.note_participation(i);
        if let Some((packed, kept)) = packed {
            self.registry.set_mask_packed(i, &packed, kept);
        }
        self.cohort.push(accs);
    }

    fn record(&mut self, fed: &Federation, _: &UnstructuredController, close: RoundClose) {
        let RoundClose { round, cum_bytes, model_hash, agg_memory_bytes, span } = close;
        let cohort = std::mem::take(&mut self.cohort);
        let survivors = cohort.len();
        let avg_val_acc = cohort.iter().map(|c| c.0).sum::<f32>() / survivors.max(1) as f32;
        let eval_span = fed.tracer().span();
        let avg_test_acc = (is_eval_round(fed, round) && survivors > 0).then(|| {
            // Every survivor of an evaluation round carries a test accuracy.
            let mean = cohort.iter().filter_map(|c| c.1).sum::<f32>() / survivors as f32;
            let us = eval_span.elapsed_us();
            fed.tracer().emit(TraceEvent::Eval { round, us, avg_acc: mean });
            mean
        });
        let us = span.elapsed_us();
        fed.tracer().emit(TraceEvent::RoundEnd { round, us, cum_bytes, model_hash });
        self.records.push(ScaledRoundRecord {
            round,
            cohort: fed.config().clients_per_round(fed.num_clients()),
            survivors,
            avg_val_acc,
            avg_test_acc,
            cum_bytes,
            agg_memory_bytes,
        });
    }
}

/// One round of the scaled run, as reported to the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledRoundRecord {
    /// 1-based round number.
    pub round: usize,
    /// Sampled cohort size (before failure injection).
    pub cohort: usize,
    /// Clients that survived and completed the pipeline.
    pub survivors: usize,
    /// Mean validation accuracy over the surviving cohort.
    pub avg_val_acc: f32,
    /// Mean personalized test accuracy over the surviving cohort
    /// (evaluation rounds only).
    pub avg_test_acc: Option<f32>,
    /// Cumulative communication bytes after this round.
    pub cum_bytes: u64,
    /// Server aggregation memory this round: 2 × model × 4 bytes,
    /// independent of cohort size.
    pub agg_memory_bytes: usize,
}

/// End-of-run summary of a [`ScaledSubFedAvg`] drive.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledSummary {
    /// Registered population size.
    pub registered: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// Total communication bytes.
    pub cum_bytes: u64,
    /// Mean cohort validation accuracy of the final round.
    pub final_avg_val_acc: f32,
    /// Mean cohort test accuracy of the last evaluation round.
    pub final_avg_test_acc: Option<f32>,
    /// Registry residency: records plus the packed-mask arena.
    pub registry_memory_bytes: usize,
    /// Clients holding an explicit (ever-pruned) mask slot.
    pub allocated_masks: usize,
    /// Per-round records.
    pub records: Vec<ScaledRoundRecord>,
}

/// The Sub-FedAvg round driver over a client-state store `S` and a
/// pruning track `T`; see the module docs.
#[derive(Debug, Clone)]
pub struct SubFedAvg<S, T> {
    fed: Federation,
    track: T,
    options: SubFedAvgOptions,
    /// Next round to execute (1-based).
    next_round: usize,
    /// The server's dense global parameters θ_g (empty until a resident
    /// driver's first round).
    global: Vec<f32>,
    /// Cumulative communication bytes.
    cum_bytes: u64,
    store: S,
}

impl<S: ClientStore<T>, T: PruneTrack> SubFedAvg<S, T> {
    fn from_parts(fed: Federation, track: T, global: Vec<f32>, store: S) -> Self {
        let options = SubFedAvgOptions::default();
        Self { fed, track, options, next_round: 1, global, cum_bytes: 0, store }
    }

    /// The current global parameters.
    pub fn global(&self) -> &[f32] {
        &self.global
    }

    /// Executes exactly one communication round and records it.
    pub fn step_round(&mut self) {
        if self.global.is_empty() {
            self.global = self.fed.init_global();
        }
        let (fed, track, options) = (&self.fed, self.track, self.options);
        let round = self.next_round;
        self.next_round += 1;
        self.store.begin_round(fed, &track, &self.global, options.fresh_masks);
        let round_span = fed.tracer().span();
        let ids = fed.begin_round(round);
        let eval_due = is_eval_round(fed, round);
        let mut agg_memory_bytes = 0;
        if !ids.is_empty() {
            // `plain_average` needs other weights and `trim` the whole
            // cohort, so those ablations buffer the decoded updates.
            let streamed = !options.plain_average && options.trim == 0;
            let window = fed.config().threads.max(1);
            let acc = streamed.then(|| OrderedAccumulator::new(self.global.len(), window));
            let (store, global) = (&self.store, &self.global);
            // Workers are mapped over cohort *slots* (positions in `ids`):
            // the slot is the upload's turn in the fold, and `par_map`'s
            // strided schedule hands each worker its slots ascending — the
            // turnstile's progress precondition.
            let slots: Vec<usize> = (0..ids.len()).collect();
            let outcomes = fed.par_map(&slots, |slot| {
                let (i, tracer) = (ids[slot], fed.tracer());
                let data = fed.client_data(i);
                let state = store.client(fed, i);
                let mask = T::mask(&state);
                let out = train_step(fed, round, i, &data, global, Some(mask), None);
                // Download cost: the masked global under the mask the
                // client trained with.
                let flat_before = flatten_mask(mask);
                let download = masked_transfer_bytes(kept_count(&flat_before));
                tracer.emit(TraceEvent::Download { round, client: i, bytes: download });
                // Pruning decision from the two weight snapshots.
                let prune_span = tracer.span();
                let mut model_fe = fed.build_model();
                model_fe.load_flat(&out.first_epoch_flat);
                let mut model_le = fed.build_model();
                model_le.load_flat(&out.final_flat);
                let (next, gates) = track.prune(&state, &model_fe, &model_le, out.val_acc);
                // Gate boundary: every track's Δ must live in [0, 1]. (A
                // non-finite accuracy is tolerated — the controllers are
                // NaN-safe and hold the gate — so only Δ is enforced.)
                invariants::enforce_with(tracer, round, &format!("gate client {i}"), || {
                    gates
                        .iter()
                        .try_for_each(|(_, d)| invariants::check_hamming_domain(d.mask_distance))
                });
                if tracer.is_enabled() {
                    let us = prune_span.elapsed_us();
                    tracer.emit(TraceEvent::ClientPrune { round, client: i, us });
                    for (name, d) in gates {
                        tracer.emit(TraceEvent::PruneGate {
                            round,
                            client: i,
                            track: name.to_string(),
                            fired: d.reason.fired(),
                            reason: d.reason.as_str().to_string(),
                            val_acc: out.val_acc,
                            mask_distance: d.mask_distance,
                            pruned_fraction: d.pruned_fraction,
                        });
                    }
                }
                let flat_mask = next.as_ref().map_or(flat_before, |s| flatten_mask(T::mask(s)));
                let kept = kept_count(&flat_mask);
                // θ_k^{j+1} = θ_k^{j,le} ⊙ m_k (Algorithm 1, line 15) — or
                // the rewound ticket θ₀ ⊙ m_k under the lottery-ticket
                // extension.
                let params = match next {
                    Some(_) if options.rewind_to_init => fed.init_global(),
                    _ => out.final_flat,
                };
                let params = apply_flat_mask(params, &flat_mask);
                // Upload cost: kept parameters, plus the packed mask when
                // it changed this round.
                let mut upload = masked_transfer_bytes(kept);
                if next.is_some() {
                    upload += mask_bytes(flat_mask.len());
                }
                // The upload really goes through the wire codec, and the
                // decoded tuple is what the server aggregates. The codec is
                // lossless, so this does not perturb the trajectory; byte
                // accounting stays on the analytical `comm` model above,
                // while the trace reports the real buffer length.
                let enc_span = tracer.span();
                let buf = wire::encode_update(&params, &flat_mask);
                let (us, bytes) = (enc_span.elapsed_us(), buf.len() as u64);
                tracer.emit(TraceEvent::Encode { round, client: i, us, bytes, kept });
                let dec_span = tracer.span();
                // The buffer was produced by `encode_update` above, so
                // decoding cannot fail; a failure here is a codec bug.
                let (dec_params, dec_mask) =
                    // lint: allow(no-unwrap)
                    wire::decode_update(&buf).expect("self-encoded update decodes");
                // Decode boundary: the decoded update must fit the model
                // and carry a strictly binary mask.
                invariants::enforce_with(tracer, round, &format!("decode client {i}"), || {
                    invariants::check_update_shape(&dec_params, &dec_mask, flat_mask.len())?;
                    invariants::check_mask_binary(&dec_mask)
                });
                let us = dec_span.elapsed_us();
                tracer.emit(TraceEvent::Decode { round, client: i, us, bytes });
                tracer.emit(TraceEvent::Upload { round, client: i, bytes: upload });
                let update = match &acc {
                    Some(acc) => {
                        let folded = acc.fold(slot, dec_params, dec_mask);
                        // Each slot is handed in exactly once by the
                        // strided schedule, with the lengths the decode
                        // invariant just checked, so a rejection here is a
                        // driver bug.
                        // lint: allow(no-unwrap)
                        folded.expect("strided slots fold exactly once");
                        None
                    }
                    None => Some((dec_params, dec_mask)),
                };
                let run = ClientRound { next, params, val_acc: out.val_acc, data, eval_due };
                (download + upload, store.keep(fed, run), update)
            });
            // Serial commit in cohort order, whatever the thread count.
            let mut updates = Vec::new();
            for ((bytes, kept, update), &i) in outcomes.into_iter().zip(&ids) {
                self.cum_bytes += bytes;
                self.store.commit(i, kept);
                updates.extend(update);
            }
            let agg_span = fed.tracer().span();
            let folded = match acc {
                Some(acc) => {
                    let streaming = acc.into_streaming();
                    let folded = streaming.updates();
                    // Aggregate boundary: a non-empty cohort must cover at
                    // least one position, or intersection averaging
                    // silently no-ops the round.
                    invariants::enforce_with(fed.tracer(), round, "aggregate", || {
                        invariants::check_streaming_coverage(streaming.counts(), folded)
                    });
                    agg_memory_bytes = streaming.memory_bytes();
                    self.global = streaming.finish(&self.global);
                    folded
                }
                None => {
                    let folded = updates.len();
                    invariants::enforce_with(fed.tracer(), round, "aggregate", || {
                        invariants::check_aggregation_coverage(&updates, self.global.len())
                    });
                    self.global = if options.plain_average {
                        let dense: Vec<(Vec<f32>, usize)> =
                            updates.into_iter().map(|(p, _)| (p, 1)).collect();
                        fedavg_aggregate(&dense)
                    } else {
                        subfedavg_aggregate_trimmed(&self.global, &updates, options.trim)
                    };
                    folded
                }
            };
            let us = agg_span.elapsed_us();
            fed.tracer().emit(TraceEvent::Aggregate { round, us, updates: folded });
        }
        let close = RoundClose {
            round,
            cum_bytes: self.cum_bytes,
            model_hash: model_hash(&self.global),
            agg_memory_bytes,
            span: round_span,
        };
        self.store.record(fed, &track, close);
    }

    /// Steps the remaining rounds up to the configured horizon.
    fn finish_rounds(&mut self) {
        while self.next_round <= self.fed.config().rounds {
            self.step_round();
        }
    }
}

impl<T: PruneTrack> SubFedAvg<Resident<T>, T> {
    /// Creates a run with an explicit controller (for sweeps/ablations).
    pub fn with_controller(fed: Federation, controller: T) -> Self {
        let store =
            Resident { states: Vec::new(), local_flats: Vec::new(), history: History::new() };
        Self::from_parts(fed, controller, Vec::new(), store)
    }

    /// Continues a restored (or partially run) state up to the configured
    /// round horizon, returning the history accumulated *since* the
    /// restore point.
    pub fn resume(&mut self) -> History {
        self.finish_rounds();
        self.store.history.clone()
    }
}

impl<T: PruneTrack> FederatedAlgorithm for SubFedAvg<Resident<T>, T> {
    fn name(&self) -> String {
        self.track.name()
    }

    fn run(&mut self) -> History {
        // A fresh run, not a resume.
        let options = self.options;
        *self = Self::with_controller(self.fed.clone(), self.track);
        self.options = options;
        self.resume()
    }
}

impl SubFedAvgUn {
    /// Creates a run with the paper's hyper-parameters at the given target
    /// pruning rate (e.g. `0.3`, `0.5`, `0.7`).
    pub fn new(fed: Federation, target: f32) -> Self {
        Self::with_controller(fed, UnstructuredController::paper_defaults(target))
    }

    /// Overrides engine options (ablations/extensions).
    pub fn with_options(mut self, options: SubFedAvgOptions) -> Self {
        self.options = options;
        self
    }

    /// The per-client masks of the current state (empty before the first
    /// round). Feeds the partner-discovery analysis.
    pub fn final_masks(&self) -> &[ModelMask] {
        &self.store.states
    }

    /// Snapshots the server-persistent state (round counter, global
    /// parameters, client masks) for later [`SubFedAvgUn::restore`].
    ///
    /// # Panics
    ///
    /// Panics if no round has been executed yet.
    pub fn checkpoint(&self) -> Checkpoint {
        // Documented panic: checkpointing an un-run federation is a driver
        // bug, not a recoverable condition.
        assert!(!self.global.is_empty(), "checkpoint before any round");
        Checkpoint {
            round: (self.next_round - 1) as u32,
            global: self.global.clone(),
            client_masks: self.store.states.iter().map(flatten_mask).collect(),
        }
    }

    /// Restores a checkpointed state: training resumes at
    /// `checkpoint.round + 1`. Per-client evaluation models are re-seeded
    /// as `θ_g ⊙ m_k` (the download every client would perform), and the
    /// history restarts — only the *training* trajectory is guaranteed to
    /// continue exactly (verified by the resume test).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint does not match the federation's model size
    /// or client count.
    pub fn restore(&mut self, ckpt: &Checkpoint) {
        let template = self.fed.build_model();
        assert_eq!(ckpt.global.len(), template.num_params(), "checkpoint model size mismatch");
        let clients = ckpt.client_masks.len();
        assert_eq!(clients, self.fed.num_clients(), "checkpoint client count mismatch");
        let masked_global = |flat: &Vec<f32>| apply_flat_mask(ckpt.global.clone(), flat);
        self.store = Resident {
            states: ckpt.client_masks.iter().map(|flat| unflatten_mask(&template, flat)).collect(),
            local_flats: ckpt.client_masks.iter().map(masked_global).collect(),
            history: History::new(),
        };
        self.next_round = ckpt.round as usize + 1;
        self.global = ckpt.global.clone();
        self.cum_bytes = 0;
    }
}

impl SubFedAvgHy {
    /// Creates a run with the paper's hyper-parameters at the given
    /// channel / FC-weight pruning targets (e.g. `0.5, 0.5` for the
    /// "50% + 50%" row).
    pub fn new(fed: Federation, structured_target: f32, unstructured_target: f32) -> Self {
        let controller = HybridController::paper_defaults(structured_target, unstructured_target);
        Self::with_controller(fed, controller)
    }

    /// The per-client channel masks of the current state; empty before the
    /// first round. Feeds the measured half of the Table-2 harness (FLOP
    /// reduction at the channels clients actually pruned).
    pub fn final_channels(&self) -> Vec<ChannelMask> {
        self.store.states.iter().map(|s| s.channels.clone()).collect()
    }
}

impl ScaledSubFedAvg {
    /// Creates the driver over a federation (usually built with
    /// [`Federation::from_provider`]) and a pruning controller.
    pub fn new(fed: Federation, controller: UnstructuredController) -> Self {
        let global = fed.init_global();
        let registry = ClientRegistry::new(fed.num_clients(), global.len());
        let store = Registry { registry, records: Vec::new(), cohort: Vec::new() };
        Self::from_parts(fed, controller, global, store)
    }

    /// Resumes from a cold-loaded registry (masks and participation
    /// counters carry over; the global restarts from θ₀ unless the caller
    /// also restores it via [`ScaledSubFedAvg::set_global`]).
    ///
    /// # Panics
    ///
    /// Panics if the registry's population or model size disagrees with
    /// the federation.
    pub fn with_registry(
        fed: Federation,
        controller: UnstructuredController,
        registry: ClientRegistry,
    ) -> Self {
        assert_eq!(registry.registered(), fed.num_clients(), "registry population mismatch");
        let mut driver = Self::new(fed, controller);
        assert_eq!(registry.mask_len(), driver.global.len(), "registry model size mismatch");
        driver.store.registry = registry;
        driver
    }

    /// Overwrites the server's global parameters (cold-start restore).
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn set_global(&mut self, global: Vec<f32>) {
        assert_eq!(global.len(), self.global.len(), "global length mismatch");
        self.global = global;
    }

    /// The server-side client registry.
    pub fn registry(&self) -> &ClientRegistry {
        &self.store.registry
    }

    /// Per-round records so far.
    pub fn records(&self) -> &[ScaledRoundRecord] {
        &self.store.records
    }

    /// Drives the remaining rounds up to the configured horizon and
    /// summarizes the run.
    pub fn run(&mut self) -> ScaledSummary {
        self.finish_rounds();
        let (registry, records) = (&self.store.registry, &self.store.records);
        ScaledSummary {
            registered: self.fed.num_clients(),
            rounds: records.len(),
            cum_bytes: self.cum_bytes,
            final_avg_val_acc: records.last().map(|r| r.avg_val_acc).unwrap_or(0.0),
            final_avg_test_acc: records.iter().rev().find_map(|r| r.avg_test_acc),
            registry_memory_bytes: registry.memory_bytes(),
            allocated_masks: registry.allocated_masks(),
            records: records.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    mod un {
        use super::*;
        use crate::tests_support::tiny_federation;

        fn test_controller(target: f32) -> UnstructuredController {
            let mut controller = UnstructuredController::paper_defaults(target);
            controller.acc_threshold = 0.0;
            controller.rate = 0.2;
            controller
        }

        fn run_with_target(target: f32, rounds: usize) -> (SubFedAvgUn, History) {
            let fed = tiny_federation(rounds, 4);
            let mut algo = SubFedAvgUn::with_controller(fed, test_controller(target));
            let h = algo.run();
            (algo, h)
        }

        #[test]
        fn pruning_progresses_toward_target() {
            let (_, h) = run_with_target(0.5, 5);
            let sparsity = h.final_pruned_params();
            assert!(sparsity > 0.3, "sparsity only reached {sparsity}");
            assert!(sparsity <= 0.5 + 0.2 + 1e-5, "overshot target: {sparsity}");
            // Sparsity is non-decreasing over rounds.
            for w in h.records.windows(2) {
                assert!(w[1].avg_pruned_params >= w[0].avg_pruned_params - 1e-6);
            }
        }

        #[test]
        fn communication_is_cheaper_than_dense() {
            let fed = tiny_federation(5, 4);
            let num_params = fed.build_model().num_params() as u64;
            let k = fed.config().clients_per_round(4) as u64;
            let dense_total = 5 * k * num_params * 4 * 2;
            let (_, h) = run_with_target(0.5, 5);
            assert!(
                h.total_bytes() < dense_total,
                "masked {} >= dense {dense_total}",
                h.total_bytes()
            );
        }

        #[test]
        fn personalized_accuracy_is_reasonable() {
            let (_, h) = run_with_target(0.3, 6);
            assert!(h.final_avg_acc() > 0.4, "accuracy {}", h.final_avg_acc());
        }

        #[test]
        fn deterministic() {
            let (_, h1) = run_with_target(0.5, 3);
            let (_, h2) = run_with_target(0.5, 3);
            assert_eq!(h1, h2);
        }

        #[test]
        fn rerun_resets_state() {
            let fed = tiny_federation(3, 4);
            let mut algo = SubFedAvgUn::with_controller(fed, test_controller(0.5));
            let h1 = algo.run();
            let h2 = algo.run();
            assert_eq!(h1, h2, "run() must reset state between runs");
        }

        #[test]
        fn ablation_options_change_behaviour() {
            let fed = tiny_federation(4, 4);
            let mut plain = SubFedAvgUn::with_controller(fed, test_controller(0.5))
                .with_options(SubFedAvgOptions { plain_average: true, ..Default::default() });
            let hp = plain.run();
            let (inter, hi) = run_with_target(0.5, 4);
            // Same comm pattern class, different aggregation -> different
            // global models. (The coarse per-client accuracies in `History`
            // can coincide on a federation this tiny, so compare θ_g, the
            // aggregation rule's direct output.)
            assert_eq!(hp.records.len(), hi.records.len());
            let global_plain = plain.global();
            let global_inter = inter.global();
            assert_ne!(global_plain, global_inter);
            // Fresh masks never accumulate sparsity beyond one step.
            let fed2 = tiny_federation(4, 4);
            let mut fresh = SubFedAvgUn::with_controller(fed2, test_controller(0.5))
                .with_options(SubFedAvgOptions { fresh_masks: true, ..Default::default() });
            let hf = fresh.run();
            assert!(hf.final_pruned_params() <= 0.2 + 1e-5);
        }

        #[test]
        fn lottery_rewind_completes_and_still_prunes() {
            let fed = tiny_federation(5, 4);
            let mut algo = SubFedAvgUn::with_controller(fed, test_controller(0.5))
                .with_options(SubFedAvgOptions { rewind_to_init: true, ..Default::default() });
            let h = algo.run();
            assert!(h.final_pruned_params() > 0.2, "sparsity {}", h.final_pruned_params());
            // Rewinding changes the trajectory relative to the default.
            let (_, plain) = run_with_target(0.5, 5);
            assert_ne!(h, plain);
        }

        #[test]
        fn trimmed_aggregation_changes_global_but_runs_clean() {
            let fed = tiny_federation(4, 4);
            let mut robust = SubFedAvgUn::with_controller(fed, test_controller(0.5))
                .with_options(SubFedAvgOptions { trim: 1, ..Default::default() });
            let h = robust.run();
            assert_eq!(h.records.len(), 4);
            assert!(h.final_avg_acc() > 0.3);
        }

        #[test]
        fn checkpoint_resume_reproduces_straight_run() {
            // Straight: 6 rounds. Split: 3 rounds -> checkpoint -> restore ->
            // 3 more. The server-persistent state (global + masks) must agree
            // exactly.
            let controller = test_controller(0.5);
            let mut straight = SubFedAvgUn::with_controller(tiny_federation(6, 4), controller);
            let _ = straight.run();
            let straight_ckpt = straight.checkpoint();

            let mut first = SubFedAvgUn::with_controller(tiny_federation(3, 4), controller);
            let _ = first.run();
            let mid = first.checkpoint();
            assert_eq!(mid.round, 3);

            let mut second = SubFedAvgUn::with_controller(tiny_federation(6, 4), controller);
            second.restore(&mid);
            let resumed_history = second.resume();
            let final_ckpt = second.checkpoint();

            assert_eq!(final_ckpt.round, 6);
            assert_eq!(final_ckpt.global, straight_ckpt.global, "global diverged after resume");
            assert_eq!(final_ckpt.client_masks, straight_ckpt.client_masks);
            // The resumed history covers rounds 4..=6 only.
            assert_eq!(resumed_history.records.len(), 3);
            assert_eq!(resumed_history.records[0].round, 4);
        }

        #[test]
        fn checkpoint_roundtrips_through_bytes() {
            let (algo, _) = run_with_target(0.5, 3);
            let ckpt = algo.checkpoint();
            let restored = Checkpoint::decode(&ckpt.encode()).unwrap();
            assert_eq!(restored, ckpt);
        }

        #[test]
        #[should_panic(expected = "checkpoint before any round")]
        fn checkpoint_requires_a_run() {
            let fed = tiny_federation(2, 4);
            let algo = SubFedAvgUn::new(fed, 0.5);
            let _ = algo.checkpoint();
        }

        #[test]
        fn name_includes_target() {
            let fed = tiny_federation(1, 4);
            assert_eq!(SubFedAvgUn::new(fed, 0.7).name(), "Sub-FedAvg (Un) 70%");
        }
    }

    mod hy {
        use super::*;
        use crate::tests_support::tiny_federation;

        fn run_hybrid(rounds: usize) -> History {
            let fed = tiny_federation(rounds, 4);
            let mut controller = HybridController::paper_defaults(0.4, 0.5);
            controller.acc_threshold = 0.0;
            controller.unstructured.acc_threshold = 0.0;
            controller.structured_rate = 0.2;
            controller.unstructured.rate = 0.2;
            SubFedAvgHy::with_controller(fed, controller).run()
        }

        #[test]
        fn both_tracks_prune() {
            let h = run_hybrid(5);
            assert!(h.final_pruned_channels() > 0.1, "channels {}", h.final_pruned_channels());
            assert!(h.final_pruned_params() > 0.1, "params {}", h.final_pruned_params());
        }

        #[test]
        fn channel_target_is_respected() {
            let h = run_hybrid(8);
            // Target 0.4, rate 0.2 -> can overshoot by at most one step.
            assert!(h.final_pruned_channels() <= 0.4 + 0.2 + 1e-5);
        }

        #[test]
        fn cheaper_than_dense_and_learns() {
            let fed = tiny_federation(5, 4);
            let num_params = fed.build_model().num_params() as u64;
            let k = fed.config().clients_per_round(4) as u64;
            let dense_total = 5 * k * num_params * 4 * 2;
            let h = run_hybrid(5);
            assert!(h.total_bytes() < dense_total);
            assert!(h.final_avg_acc() > 0.35, "accuracy {}", h.final_avg_acc());
        }

        #[test]
        fn deterministic() {
            assert_eq!(run_hybrid(3), run_hybrid(3));
        }

        #[test]
        fn final_channels_are_exposed_after_run() {
            let fed = tiny_federation(4, 4);
            let mut controller = HybridController::paper_defaults(0.4, 0.5);
            controller.acc_threshold = 0.0;
            controller.unstructured.acc_threshold = 0.0;
            controller.structured_rate = 0.2;
            let mut algo = SubFedAvgHy::with_controller(fed, controller);
            assert!(algo.final_channels().is_empty());
            let h = algo.run();
            assert_eq!(algo.final_channels().len(), 4);
            let mean: f32 =
                algo.final_channels().iter().map(|c| c.pruned_fraction()).sum::<f32>() / 4.0;
            assert!((mean - h.final_pruned_channels()).abs() < 1e-5);
        }

        #[test]
        fn name_includes_both_targets() {
            let fed = tiny_federation(1, 4);
            assert_eq!(SubFedAvgHy::new(fed, 0.5, 0.7).name(), "Sub-FedAvg (Hy) 50%+70%");
        }
    }

    mod scaled {
        use super::*;
        use crate::FedConfig;
        use std::sync::Arc;
        use subfed_data::{SynthClientProvider, SynthProviderConfig, SynthVision};
        use subfed_nn::models::ModelSpec;

        fn scaled_driver(registered: usize, frac: f32, threads: usize) -> ScaledSubFedAvg {
            let synth = SynthVision::generate(subfed_data::SynthConfig {
                channels: 1,
                height: 16,
                width: 16,
                classes: 4,
                train_per_class: 4,
                test_per_class: 2,
                noise_std: 0.1,
                shift: 1,
                grid: 4,
                seed: 11,
            });
            let provider = SynthClientProvider::new(
                synth,
                SynthProviderConfig {
                    num_clients: registered,
                    labels_per_client: 2,
                    train_per_label: 6,
                    val_per_label: 3,
                    test_per_label: 3,
                    seed: 11,
                },
            );
            let config = FedConfig {
                rounds: 2,
                sample_frac: frac,
                local_epochs: 2,
                batch_size: 6,
                eval_every: 2,
                threads,
                ..Default::default()
            };
            let fed = Federation::from_provider(
                ModelSpec::cnn5(1, 16, 16, 4),
                Arc::new(provider),
                config,
            );
            ScaledSubFedAvg::new(fed, UnstructuredController::paper_defaults(0.5))
        }

        #[test]
        fn scaled_run_trains_prunes_and_accounts() {
            let mut driver = scaled_driver(200, 0.03, 2);
            let summary = driver.run();
            assert_eq!(summary.rounds, 2);
            assert_eq!(summary.registered, 200);
            assert!(summary.cum_bytes > 0);
            // The cohort is ~6 of 200: only sampled clients may own arena
            // slots.
            assert!(summary.allocated_masks <= 2 * 6 * 2);
            assert!(summary.final_avg_test_acc.is_some(), "round 2 is an eval round");
            // O(model) aggregation: 2 × params × 4 bytes, cohort-independent.
            let model_params = driver.fed.init_global().len();
            for r in driver.records() {
                assert_eq!(r.agg_memory_bytes, 2 * model_params * 4);
            }
        }

        #[test]
        fn scaled_run_is_deterministic_single_threaded() {
            let a = scaled_driver(100, 0.05, 1).run();
            let b = scaled_driver(100, 0.05, 1).run();
            assert_eq!(a, b);
        }

        #[test]
        fn scaled_run_is_bit_identical_across_thread_counts() {
            // The ordered fold makes the *entire run* — global parameters,
            // accuracies, byte accounting — reproduce exactly at any worker
            // count, not just within f32 tolerance.
            let mut one = scaled_driver(100, 0.05, 1);
            let mut two = scaled_driver(100, 0.05, 2);
            let mut three = scaled_driver(100, 0.05, 3);
            let (a, b, c) = (one.run(), two.run(), three.run());
            assert_eq!(a, b, "1 vs 2 workers");
            assert_eq!(a, c, "1 vs 3 workers");
            assert_eq!(one.global(), two.global(), "global θ_g must match bit-for-bit");
            assert_eq!(one.global(), three.global(), "global θ_g must match bit-for-bit");
        }

        #[test]
        fn run_after_a_step_stops_at_the_configured_horizon() {
            let mut driver = scaled_driver(100, 0.05, 1);
            driver.step_round();
            let summary = driver.run();
            assert_eq!(summary.rounds, 2, "a 2-round federation ran past its horizon");
            assert_eq!(driver.records().last().map(|r| r.round), Some(2));
        }

        #[test]
        fn kept_counts_never_regrow() {
            let mut driver = scaled_driver(60, 0.1, 2);
            let model_params = driver.fed.init_global().len();
            let mut floor = vec![model_params; 60];
            for _ in 0..2 {
                driver.step_round();
                for (id, f) in floor.iter_mut().enumerate() {
                    let kept = driver.registry().kept(id);
                    assert!(kept <= *f, "client {id} regrew {kept} > {f}");
                    *f = kept;
                }
            }
        }

        #[test]
        fn registry_survives_cold_reload() {
            let mut driver = scaled_driver(80, 0.1, 1);
            driver.step_round();
            let image = driver.registry().save();
            let restored = ClientRegistry::load(&image).expect("reload");
            let fed2 = scaled_driver(80, 0.1, 1).fed;
            let resumed = ScaledSubFedAvg::with_registry(
                fed2,
                UnstructuredController::paper_defaults(0.5),
                restored,
            );
            for id in 0..80 {
                assert_eq!(resumed.registry().kept(id), driver.registry().kept(id));
            }
        }
    }
}
