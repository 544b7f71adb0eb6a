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
//! Every combination restarts through one [`SubFedAvg::checkpoint`] /
//! [`SubFedAvg::restore`] pair: the store and the track each add their
//! part of the [`Checkpoint`] image.

use super::common::{apply_flat_mask, is_eval_round, record_round, train_step};
use crate::aggregate::unflatten_mask;
use crate::checkpoint::{check, f32s, put_f32s, Checkpoint, CheckpointError, Reader};
use crate::registry::ClientRegistry;
use crate::stream_agg::OrderedAccumulator;
use crate::{
    fedavg_aggregate, flatten_mask, invariants, subfedavg_aggregate_trimmed, wire,
    FederatedAlgorithm, Federation, History,
};
use std::borrow::Cow;
use std::marker::PhantomData;
use std::sync::OnceLock;
use subfed_data::Shard;
use subfed_metrics::comm::{mask_bytes, masked_transfer_bytes, pack_mask, unpack_mask};
use subfed_metrics::trace::{model_hash, Span, TraceEvent};
use subfed_nn::models::channel_graph_flat;
use subfed_nn::{is_kept, kept_count, ModelMask, ParamMeta, Sequential};
use subfed_pruning::{
    ChannelMask, GateDecision, HybridController, HybridState, UnstructuredController,
};

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
/// federation's `UniformSampler`, shards from its `ClientProvider`.
pub type ScaledSubFedAvg = SubFedAvg<Registry, UnstructuredController>;

/// A pruning track: how a client's mask advances after local training.
pub trait PruneTrack: Copy + Sync {
    /// A client's pruning state: its parameter mask, plus whatever the
    /// track derives it from.
    type State: Clone + Send + Sync + std::fmt::Debug;
    /// Tags this track's states in a [`Checkpoint`].
    const KIND: u8;

    /// Display name used in tables.
    fn name(&self) -> String;
    /// The state of a client that has never pruned.
    fn fresh(&self, template: &Sequential) -> Self::State;
    /// The parameter mask a state trains and uploads under.
    fn mask(state: &Self::State) -> &ModelMask;
    /// One pruning decision from the first- and last-epoch flat weight
    /// snapshots, laid out by `layout`: the advanced state when any gate
    /// fired, and every gate's decision named by its trace track.
    fn prune(
        &self,
        layout: &[ParamMeta],
        state: &Self::State,
        first_epoch: &[f32],
        last_epoch: &[f32],
        val_acc: f32,
    ) -> (Option<Self::State>, Vec<(&'static str, GateDecision)>);
    /// Pruned fraction of the weights in the track's scope and of the
    /// channels (0 for unstructured pruning), as `History` reports them.
    fn pruned(&self, state: &Self::State) -> (f32, f32);
    /// Channel flags in one state over `layout` (0 for unstructured
    /// pruning).
    fn channels(layout: &[ParamMeta]) -> usize;
    /// Appends `state`'s bit-packed image: its channel flags, then its
    /// stored mask, `mask_bytes` each.
    fn save_state(state: &Self::State, out: &mut Vec<u8>);
    /// The state whose [`PruneTrack::save_state`] image over `layout` is
    /// `flags` followed by `mask`.
    fn load_state(layout: &[ParamMeta], flags: &[u8], mask: &[u8]) -> Self::State;
}

/// Total parameter count of `layout`.
fn num_params(layout: &[ParamMeta]) -> usize {
    layout.iter().map(|m| m.len).sum()
}

/// The mask a bit-packed image over `layout` holds.
fn unpack_model_mask(layout: &[ParamMeta], image: &[u8]) -> ModelMask {
    unflatten_mask(layout, &unpack_mask(image, num_params(layout)))
}

/// Algorithm 1: magnitude pruning of the remaining weights.
impl PruneTrack for UnstructuredController {
    type State = ModelMask;
    const KIND: u8 = 1;

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
        layout: &[ParamMeta],
        mask: &ModelMask,
        fe: &[f32],
        le: &[f32],
        val_acc: f32,
    ) -> (Option<ModelMask>, Vec<(&'static str, GateDecision)>) {
        let (next, decision) = self.step(layout, fe, le, mask, val_acc);
        (next, vec![("un", decision)])
    }
    fn pruned(&self, mask: &ModelMask) -> (f32, f32) {
        (mask.pruned_fraction(|k| self.scope.includes(k)), 0.0)
    }
    fn channels(_: &[ParamMeta]) -> usize {
        0
    }
    fn save_state(mask: &ModelMask, out: &mut Vec<u8>) {
        out.extend_from_slice(&pack_mask(&flatten_mask(mask)));
    }
    fn load_state(layout: &[ParamMeta], _: &[u8], mask: &[u8]) -> ModelMask {
        unpack_model_mask(layout, mask)
    }
}

/// Algorithm 2: channel pruning of the conv blocks by BatchNorm |γ| plus
/// magnitude pruning of the FC weights, each track gated independently.
impl PruneTrack for HybridController {
    type State = HybridState;
    const KIND: u8 = 2;

    fn name(&self) -> String {
        let (s, u) = (self.structured_target * 100.0, self.unstructured.target * 100.0);
        format!("Sub-FedAvg (Hy) {s:.0}%+{u:.0}%")
    }
    fn fresh(&self, template: &Sequential) -> HybridState {
        let channels = HybridController::initial_channels(template);
        HybridState::new(&template.metas(), channels, ModelMask::ones_for(template))
    }
    fn mask(state: &HybridState) -> &ModelMask {
        state.mask()
    }
    fn prune(
        &self,
        layout: &[ParamMeta],
        state: &HybridState,
        fe: &[f32],
        le: &[f32],
        val_acc: f32,
    ) -> (Option<HybridState>, Vec<(&'static str, GateDecision)>) {
        let (next, [channel, un]) = self.step(layout, fe, le, state, val_acc);
        (next, vec![("channel", channel), ("un", un)])
    }
    fn pruned(&self, state: &HybridState) -> (f32, f32) {
        let weights = state.mask().pruned_fraction(|k| k.is_prunable_weight());
        (weights, state.channels().pruned_fraction())
    }
    fn channels(layout: &[ParamMeta]) -> usize {
        channel_graph_flat(layout).blocks.iter().map(|b| b.out_channels).sum()
    }
    /// The channel flags and the FC base mask; [`HybridState::new`]
    /// rebuilds the parameter mask from the two.
    fn save_state(state: &HybridState, out: &mut Vec<u8>) {
        let flags = state.channels().keep().iter().flatten().map(|&k| f32::from(u8::from(k)));
        out.extend_from_slice(&pack_mask(&flags.collect::<Vec<_>>()));
        out.extend_from_slice(&pack_mask(&flatten_mask(state.unstructured())));
    }
    fn load_state(layout: &[ParamMeta], flags: &[u8], base: &[u8]) -> HybridState {
        let mut flags = unpack_mask(flags, Self::channels(layout)).into_iter().map(is_kept);
        let blocks = channel_graph_flat(layout).blocks;
        let keep = blocks.iter().map(|b| flags.by_ref().take(b.out_channels).collect()).collect();
        HybridState::new(layout, ChannelMask::from_keep(keep), unpack_model_mask(layout, base))
    }
}

/// One client's finished round, as its worker hands it to the store.
#[derive(Debug)]
pub struct ClientRound<S> {
    /// The client's state after the round: the advanced one when a gate
    /// fired, else the one it trained under.
    state: S,
    fired: bool,
    /// The flat 0/1 mask of `state`, which `params` is masked with, and
    /// its kept count.
    mask: Vec<f32>,
    kept: usize,
    /// The personalized model `θ_k ⊙ m_k`.
    params: Vec<f32>,
    val_acc: f32,
    /// The client's shard: with its test split only on evaluation rounds.
    shard: Shard,
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
pub trait ClientStore<T: PruneTrack>: Sync + Sized {
    /// What one client's worker hands the serial commit.
    type Kept: Send;
    /// Tags this store's image in a [`Checkpoint`].
    const KIND: u8;

    /// Readies the store for a round (and resets every client under the
    /// `fresh_masks` ablation).
    fn begin_round(&mut self, fed: &Federation, track: &T, fresh_masks: bool);
    /// Client `i`'s state at the start of the round.
    fn client(&self, fed: &Federation, i: usize) -> T::State;
    /// Worker side, after the fold: what the store keeps of a round.
    fn keep(&self, fed: &Federation, track: &T, run: ClientRound<T::State>) -> Self::Kept;
    /// Serial commit of client `i`'s round, in cohort order.
    fn commit(&mut self, i: usize, kept: Self::Kept);
    /// Evaluates (when due), emits `round_end` and records the round.
    fn record(&mut self, fed: &Federation, close: RoundClose);
    /// Appends every client's state to a checkpoint's client image.
    fn save(&self, fed: &Federation, out: &mut Vec<u8>);
    /// The store a [`ClientStore::save`] image holds, checked against
    /// `fed` in full before it is built. Round records start empty.
    fn load(fed: &Federation, track: &T, image: &[u8]) -> Result<Self, CheckpointError>;
}

/// Every client resident at its packed size, with personalized
/// evaluation of all clients into a [`History`]: the paper's cross-silo
/// loop. A client is held as its checkpoint record (see
/// [`crate::checkpoint`]): its bit-packed state, then its last trained
/// model as the kept values and one sign bit per pruned zero. A client
/// that has not trained yet holds no model; it evaluates and checkpoints
/// as θ₀. Workers unpack a client's state to train it and pack the
/// record it leaves; evaluation decodes one client's model at a time.
#[derive(Debug, Clone)]
pub struct Resident<T: PruneTrack> {
    /// One record per client, exactly as [`ClientStore::save`] writes it
    /// (the model only once the client has trained); empty until the
    /// first round, so construction stays cheap.
    records: Vec<Vec<u8>>,
    /// Each client's [`PruneTrack::pruned`] fractions, kept beside its
    /// record so that no round unpacks a state to report them.
    pruned: Vec<(f32, f32)>,
    history: History,
    track: PhantomData<T>,
}

impl<T: PruneTrack> Resident<T> {
    fn empty() -> Self {
        Self {
            records: Vec::new(),
            pruned: Vec::new(),
            history: History::new(),
            track: PhantomData,
        }
    }

    /// Client `i`'s state, unpacked from its record.
    fn state(&self, layout: &[ParamMeta], i: usize) -> T::State {
        let (flags_len, mask_len, _) = state_lens::<T>(layout);
        let (flags, rest) = self.records[i].split_at(flags_len);
        T::load_state(layout, flags, &rest[..mask_len])
    }

    /// Client `i`'s last trained model, decoded from its record, or
    /// `None` before it first trains.
    fn model(&self, layout: &[ParamMeta], i: usize) -> Option<Vec<f32>> {
        let (flags_len, mask_len, _) = state_lens::<T>(layout);
        let (&tag, body) = self.records[i].get(flags_len + mask_len..)?.split_first()?;
        let mask = flatten_mask(T::mask(&self.state(layout, i)));
        Some(if tag == 0 {
            let (values, signs) = body.split_at(4 * kept_count(&mask));
            sparse_model(&mask, values, signs)
        } else {
            f32s(body)
        })
    }

    /// Every client's personalized test accuracy, each decoded from its
    /// record by the worker that evaluates it (θ₀ for a client that has
    /// not trained), so the dense models never coexist.
    fn evaluate(&self, fed: &Federation) -> Vec<f32> {
        let theta0 = OnceLock::new();
        let ids: Vec<usize> = (0..self.records.len()).collect();
        fed.par_map(&ids, |i| {
            let model = self.model(fed.layout(), i);
            let model =
                model.as_deref().unwrap_or_else(|| theta0.get_or_init(|| fed.init_global()));
            fed.evaluate_flat(model, &fed.client_data(i).test)
        })
    }
}

impl<T: PruneTrack> ClientStore<T> for Resident<T> {
    /// The client's new record, and its pruned fractions when a gate
    /// fired: O(packed record), so the cohort's dense vectors die with
    /// their workers.
    type Kept = (Vec<u8>, Option<(f32, f32)>);
    const KIND: u8 = 1;

    fn begin_round(&mut self, fed: &Federation, track: &T, fresh_masks: bool) {
        if !self.records.is_empty() && !fresh_masks {
            return;
        }
        let (layout, fresh) = (fed.layout(), track.fresh(&fed.build_model()));
        let mask = flatten_mask(T::mask(&fresh));
        // A trained client keeps its model under the fresh mask.
        let records = (0..fed.num_clients())
            .map(|i| {
                let model = self.records.get(i).and_then(|_| self.model(layout, i));
                client_record::<T>(layout, &fresh, &mask, model.as_deref())
            })
            .collect();
        self.records = records;
        self.pruned = vec![track.pruned(&fresh); fed.num_clients()];
    }

    fn client(&self, fed: &Federation, i: usize) -> T::State {
        self.state(fed.layout(), i)
    }

    fn keep(&self, fed: &Federation, track: &T, run: ClientRound<T::State>) -> Self::Kept {
        let record = client_record::<T>(fed.layout(), &run.state, &run.mask, Some(&run.params));
        (record, run.fired.then(|| track.pruned(&run.state)))
    }

    fn commit(&mut self, i: usize, (record, pruned): Self::Kept) {
        self.records[i] = record;
        if let Some(pruned) = pruned {
            self.pruned[i] = pruned;
        }
    }

    fn record(&mut self, fed: &Federation, close: RoundClose) {
        let RoundClose { round, cum_bytes, model_hash, span, .. } = close;
        let pruned = self.pruned.clone();
        let accuracies = || self.evaluate(fed);
        let record = record_round(fed, round, accuracies, cum_bytes, model_hash, pruned, span);
        self.history.push(record);
    }

    fn save(&self, fed: &Federation, out: &mut Vec<u8>) {
        let layout = fed.layout();
        let (flags_len, mask_len, _) = state_lens::<T>(layout);
        // A client that has not trained checkpoints θ₀ under its mask.
        let trained = |record: &[u8]| record.len() > flags_len + mask_len;
        let theta0 = (!self.records.iter().all(|r| trained(r))).then(|| fed.init_global());
        let records: Vec<Cow<'_, [u8]>> = (self.records.iter().enumerate())
            .map(|(i, record)| match &theta0 {
                Some(theta0) if !trained(record) => {
                    let state = self.state(layout, i);
                    let mask = flatten_mask(T::mask(&state));
                    Cow::Owned(client_record::<T>(layout, &state, &mask, Some(theta0)))
                }
                _ => Cow::Borrowed(record.as_slice()),
            })
            .collect();
        out.reserve_exact(8 + records.iter().map(|r| r.len()).sum::<usize>());
        out.extend_from_slice(&(records.len() as u64).to_le_bytes());
        for record in records {
            out.extend_from_slice(&record);
        }
    }

    /// Each record is rebuilt from the state and model it decodes to, so
    /// a restored store checkpoints exactly as the store that saved it.
    fn load(fed: &Federation, track: &T, image: &[u8]) -> Result<Self, CheckpointError> {
        let (layout, mut image) = (fed.layout(), Reader(image));
        check("client count", image.count("client count")?, fed.num_clients())?;
        let (flags_len, mask_len, n) = state_lens::<T>(layout);
        let mut store = Self::empty();
        for _ in 0..fed.num_clients() {
            let flags = image.take(flags_len, "client state")?;
            let state = T::load_state(layout, flags, image.take(mask_len, "client state")?);
            let mask = flatten_mask(T::mask(&state));
            let kept = kept_count(&mask);
            let model = match image.array("client model")? {
                [0] => {
                    let values = image.take(4 * kept, "client model")?;
                    let signs = image.take(mask_bytes(n - kept) as usize, "client model")?;
                    sparse_model(&mask, values, signs)
                }
                [1] => f32s(image.take(4 * n, "client model")?),
                [tag] => {
                    let (got, want) = (tag.into(), 0);
                    return Err(CheckpointError::Mismatch { what: "model tag", got, want });
                }
            };
            store.records.push(client_record::<T>(layout, &state, &mask, Some(&model)));
            store.pruned.push(track.pruned(&state));
        }
        check("client image length", image.0.len(), 0)?;
        Ok(store)
    }
}

/// Bytes of one client's channel flags and of its mask in its state image
/// over `layout`, and the parameter count.
fn state_lens<T: PruneTrack>(layout: &[ParamMeta]) -> (usize, usize, usize) {
    let n = num_params(layout);
    (mask_bytes(T::channels(layout)) as usize, mask_bytes(n) as usize, n)
}

/// A client's record over `layout` (module docs of [`crate::checkpoint`]):
/// `state`'s image, then, once the client has trained, its `model`, whose
/// flat mask `mask` is `state`'s. Allocated at its exact size.
fn client_record<T: PruneTrack>(
    layout: &[ParamMeta],
    state: &T::State,
    mask: &[f32],
    model: Option<&[f32]>,
) -> Vec<u8> {
    let (flags_len, mask_len, n) = state_lens::<T>(layout);
    // A model with a non-zero at a pruned position — only a diverged run
    // makes one, since `θ ⊙ m` zeroes them — is stored whole.
    // (An OR of the pruned positions' magnitude bits, so it vectorizes.)
    let sparse = |model: &[f32]| {
        let pruned_bits = |(&m, v): (&f32, &f32)| if is_kept(m) { 0 } else { v.to_bits() << 1 };
        mask.iter().zip(model).map(pruned_bits).fold(0, |bits, b| bits | b) == 0
    };
    let model = model.map(|model| (model, sparse(model)));
    let model_len = model.map_or(0, |(_, sparse)| {
        let kept = kept_count(mask);
        1 + if sparse { 4 * kept + mask_bytes(n - kept) as usize } else { 4 * n }
    });
    let mut out = Vec::with_capacity(flags_len + mask_len + model_len);
    T::save_state(state, &mut out);
    if let Some((model, sparse)) = model {
        put_model(mask, model, sparse, &mut out);
    }
    out
}

/// Appends a client's last trained model. A sparse image (tag 0) holds the
/// values at `mask`'s kept positions, then one sign bit per pruned
/// position, whose zero `θ ⊙ m` keeps the sign of θ; a dense one (tag 1),
/// for a model with something else at a pruned position, holds all of it.
fn put_model(mask: &[f32], flat: &[f32], sparse: bool, out: &mut Vec<u8>) {
    out.push(u8::from(!sparse));
    if !sparse {
        return put_f32s(out, flat);
    }
    // The sign bits gather a word at a time, as `pack_mask` packs, and
    // follow the values: this runs for every trained client every round.
    let (mut signs, mut word, mut bit) = (Vec::new(), 0u64, 0usize);
    for (&m, v) in mask.iter().zip(flat) {
        if is_kept(m) {
            out.extend_from_slice(&v.to_le_bytes());
            continue;
        }
        word |= u64::from(v.is_sign_negative()) << bit;
        bit += 1;
        if bit == 64 {
            signs.extend_from_slice(&word.to_le_bytes());
            (word, bit) = (0, 0);
        }
    }
    signs.extend(word.to_le_bytes().into_iter().take(bit.div_ceil(8)));
    out.extend_from_slice(&signs);
}

/// The model a sparse [`put_model`] image under `mask` holds, from its
/// kept `values` and its pruned positions' sign bits.
fn sparse_model(mask: &[f32], values: &[u8], signs: &[u8]) -> Vec<f32> {
    let mut values = values.as_chunks().0.iter().map(|&w| f32::from_le_bytes(w));
    let signs = unpack_mask(signs, mask.len() - kept_count(mask));
    let mut zeros = signs.into_iter().map(|s| if is_kept(s) { -0.0 } else { 0.0 });
    let mut next = |m| if is_kept(m) { values.next() } else { zeros.next() };
    // The two counts match `mask` exactly, so neither iterator runs dry.
    mask.iter().map(|&m| next(m).unwrap_or_default()).collect()
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
    /// This round's survivors so far: validation accuracy, and on
    /// evaluation rounds the test accuracy with its worker's µs.
    cohort: Vec<(f32, Option<(f32, u64)>)>,
}

impl ClientStore<UnstructuredController> for Registry {
    /// `(packed mask, kept)` when the gate fired, the validation accuracy
    /// and (evaluation rounds only) the test accuracy with the µs its
    /// evaluation took: O(packed mask), never O(model), so the cohort's
    /// dense vectors die with their workers.
    type Kept = (Option<(Vec<u8>, usize)>, (f32, Option<(f32, u64)>));
    const KIND: u8 = 2;

    fn begin_round(&mut self, _: &Federation, _: &UnstructuredController, fresh: bool) {
        // Options are only settable on `SubFedAvgUn`.
        debug_assert!(!fresh, "registry drivers take no options");
    }

    fn client(&self, fed: &Federation, i: usize) -> ModelMask {
        unflatten_mask(fed.layout(), &self.registry.mask_flat(i))
    }

    fn keep(
        &self,
        fed: &Federation,
        _: &UnstructuredController,
        run: ClientRound<ModelMask>,
    ) -> Self::Kept {
        let test = run.eval_due.then(|| {
            let span = fed.tracer().span();
            // `Shard::test` refuses a shard fetched without its test split.
            let acc = fed.evaluate_flat(&run.params, run.shard.test());
            (acc, span.elapsed_us())
        });
        (run.fired.then(|| (pack_mask(&run.mask), run.kept)), (run.val_acc, test))
    }

    fn commit(&mut self, i: usize, (packed, accs): Self::Kept) {
        self.registry.note_participation(i);
        if let Some((packed, kept)) = packed {
            self.registry.set_mask_packed(i, &packed, kept);
        }
        self.cohort.push(accs);
    }

    /// The `eval` event reports the µs the survivors' evaluations took in
    /// their workers, summed: with several workers that is worker time,
    /// not wall time.
    fn record(&mut self, fed: &Federation, close: RoundClose) {
        let RoundClose { round, cum_bytes, model_hash, agg_memory_bytes, span } = close;
        let cohort = std::mem::take(&mut self.cohort);
        let survivors = cohort.len();
        let avg_val_acc = cohort.iter().map(|c| c.0).sum::<f32>() / survivors.max(1) as f32;
        let avg_test_acc = (is_eval_round(fed, round) && survivors > 0).then(|| {
            // Every survivor of an evaluation round carries a test accuracy.
            let tests = || cohort.iter().filter_map(|c| c.1);
            let mean = tests().map(|(acc, _)| acc).sum::<f32>() / survivors as f32;
            let us = tests().map(|(_, us)| us).sum();
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

    fn save(&self, _: &Federation, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.registry.save());
    }

    fn load(
        fed: &Federation,
        _: &UnstructuredController,
        image: &[u8],
    ) -> Result<Self, CheckpointError> {
        let registry = ClientRegistry::load(image).map_err(CheckpointError::Registry)?;
        check("registered population", registry.registered(), fed.num_clients())?;
        check("mask length", registry.mask_len(), num_params(fed.layout()))?;
        Ok(Self { registry, records: Vec::new(), cohort: Vec::new() })
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
    /// Rounds executed by this driver (since its restore, if any).
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
        self.store.begin_round(fed, &track, options.fresh_masks);
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
                // Only an evaluating round reads the client's test split.
                let shard = fed.provider().shard(i, eval_due);
                let state = store.client(fed, i);
                let mask = T::mask(&state);
                let out = train_step(fed, round, i, shard.data(), global, Some(mask), None);
                // Download cost: the masked global under the mask the
                // client trained with.
                let flat_before = flatten_mask(mask);
                let download = masked_transfer_bytes(kept_count(&flat_before));
                tracer.emit(TraceEvent::Download { round, client: i, bytes: download });
                // Pruning decision from the two flat weight snapshots.
                let prune_span = tracer.span();
                let (fe, le) = (&out.first_epoch_flat, &out.final_flat);
                let (next, gates) = track.prune(fed.layout(), &state, fe, le, out.val_acc);
                // Gate boundary: every track's Δ must live in [0, 1]. (A
                // non-finite accuracy is tolerated — the controllers are
                // NaN-safe and hold the gate — so only Δ is enforced.)
                invariants::enforce_with(tracer, round, format_args!("gate client {i}"), || {
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
                let fired = next.is_some();
                let flat_mask = next.as_ref().map_or(flat_before, |s| flatten_mask(T::mask(s)));
                let state = next.unwrap_or(state);
                let kept = kept_count(&flat_mask);
                // θ_k^{j+1} = θ_k^{j,le} ⊙ m_k (Algorithm 1, line 15) — or
                // the rewound ticket θ₀ ⊙ m_k under the lottery-ticket
                // extension.
                let params = match fired {
                    true if options.rewind_to_init => fed.init_global(),
                    _ => out.final_flat,
                };
                let params = apply_flat_mask(params, &flat_mask);
                // Upload cost: kept parameters, plus the packed mask when
                // it changed this round.
                let mut upload = masked_transfer_bytes(kept);
                if fired {
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
                #[expect(
                    clippy::expect_used,
                    reason = "the buffer was produced by `encode_update` above, so decoding \
                              cannot fail; a failure here is a codec bug"
                )]
                let (dec_params, dec_mask) =
                    wire::decode_update(&buf).expect("self-encoded update decodes");
                let us = dec_span.elapsed_us();
                tracer.emit(TraceEvent::Decode { round, client: i, us, bytes });
                tracer.emit(TraceEvent::Upload { round, client: i, bytes: upload });
                let update = match &acc {
                    Some(acc) => {
                        let folded = acc.fold(slot, dec_params, dec_mask);
                        #[expect(
                            clippy::expect_used,
                            reason = "each slot is handed in exactly once by the strided \
                                      schedule, and the update decodes to the model's \
                                      length, so a rejection here is a driver bug"
                        )]
                        folded.expect("strided slots fold exactly once");
                        None
                    }
                    None => Some((dec_params, dec_mask)),
                };
                let (mask, val_acc) = (flat_mask, out.val_acc);
                let run =
                    ClientRound { state, fired, mask, kept, params, val_acc, shard, eval_due };
                (download + upload, store.keep(fed, &track, run), update)
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
        self.store.record(fed, close);
    }

    /// Snapshots everything the server carries into the next round: the
    /// round, θ_g, the byte ledger and every client's state (for resident
    /// stores also each client's last trained model). See [`Checkpoint`].
    ///
    /// # Panics
    ///
    /// Panics on a resident driver before its first round, which has no
    /// θ_g yet.
    pub fn checkpoint(&self) -> Checkpoint {
        // Documented panic: checkpointing an un-run federation is a driver
        // bug, not a recoverable condition.
        assert!(!self.global.is_empty(), "checkpoint before any round");
        let mut clients = vec![S::KIND, T::KIND];
        self.store.save(&self.fed, &mut clients);
        let round = (self.next_round - 1) as u32;
        Checkpoint { round, cum_bytes: self.cum_bytes, global: self.global.clone(), clients }
    }

    /// Continues from a [`SubFedAvg::checkpoint`] of the same federation:
    /// the next round is `checkpoint.round + 1`, and it and every later
    /// round run exactly as in the uninterrupted run — same θ_g, byte
    /// ledger, client states and models, and so the same trace events.
    /// Round records (the resident [`History`], the registry's
    /// [`ScaledRoundRecord`]s) restart at the restore.
    ///
    /// # Errors
    ///
    /// A checkpoint is untrusted input, and it may come from another
    /// federation or driver. Returns a [`CheckpointError`] when its model
    /// size, store or track kind, client count, registered population or
    /// mask length differs from this driver's, or when its client image
    /// is truncated or corrupt. Everything is checked
    /// before the driver changes, so a rejected restore leaves it as it
    /// was.
    #[must_use = "a dropped Result hides a checkpoint that was not restored"]
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        check("model size", ckpt.global.len(), num_params(self.fed.layout()))?;
        let mut image = Reader(&ckpt.clients);
        let [store, track] = image.array("client image tags")?;
        check("store kind", store.into(), S::KIND.into())?;
        check("track kind", track.into(), T::KIND.into())?;
        self.store = S::load(&self.fed, &self.track, image.0)?;
        self.next_round = ckpt.round as usize + 1;
        self.global = ckpt.global.clone();
        self.cum_bytes = ckpt.cum_bytes;
        Ok(())
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
        Self::from_parts(fed, controller, Vec::new(), Resident::empty())
    }

    /// Continues a restored (or partially run) state up to the configured
    /// round horizon, returning the history accumulated *since* the
    /// restore point (from round 1 when nothing was restored).
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
    /// round), unpacked from the resident records. Feeds the
    /// partner-discovery analysis.
    pub fn final_masks(&self) -> Vec<ModelMask> {
        (0..self.store.records.len()).map(|i| self.store.state(self.fed.layout(), i)).collect()
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
        let states = (0..self.store.records.len()).map(|i| self.store.state(self.fed.layout(), i));
        states.map(|s| s.channels().clone()).collect()
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

    /// The server-side client registry.
    pub fn registry(&self) -> &ClientRegistry {
        &self.store.registry
    }

    /// Per-round records so far (since the restore, if any).
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
        fn checkpoint_roundtrips_through_bytes() {
            let (algo, _) = run_with_target(0.5, 3);
            let ckpt = algo.checkpoint();
            let restored = Checkpoint::decode(&ckpt.encode()).unwrap();
            assert_eq!(restored, ckpt);
        }

        /// A resident record keeps a pruned zero's sign in the sparse form,
        /// and a non-zero at a pruned position through the dense form.
        #[test]
        fn checkpoint_restores_every_model_bit() {
            let (mut algo, _) = run_with_target(0.5, 3);
            let layout = algo.fed.layout().to_vec();
            let store = &mut algo.store;
            let masks: Vec<Vec<f32>> =
                (0..store.records.len()).map(|k| flatten_mask(&store.state(&layout, k))).collect();
            let mut pruned = masks.iter().enumerate().filter_map(|(k, mask)| {
                let j = mask.iter().position(|&m| !is_kept(m))?;
                store.model(&layout, k).map(|_| (k, j))
            });
            let ((a, ja), (b, jb)) = (pruned.next().unwrap(), pruned.next().unwrap());
            for (k, j, v) in [(a, ja, -0.0), (b, jb, f32::from_bits(0x7fc0_1234))] {
                let mut model = store.model(&layout, k).unwrap();
                model[j] = v;
                let state = store.state(&layout, k);
                store.records[k] = client_record::<UnstructuredController>(
                    &layout,
                    &state,
                    &masks[k],
                    Some(&model),
                );
            }
            // The sparse form (tag 0) holds a's −0.0; b's NaN needs the dense
            // form (tag 1).
            let tag = |store: &Resident<_>, k: usize| store.records[k][masks[k].len().div_ceil(8)];
            assert_eq!((tag(store, a), tag(store, b)), (0, 1));
            let ckpt = Checkpoint::decode(&algo.checkpoint().encode()).unwrap();
            let mut restored = SubFedAvgUn::with_controller(algo.fed.clone(), algo.track);
            restored.restore(&ckpt).unwrap();
            let bits = |algo: &SubFedAvgUn| -> Vec<Option<Vec<u32>>> {
                let models = (0..masks.len()).map(|k| algo.store.model(&layout, k));
                models.map(|m| m.map(|m| m.iter().map(|v| v.to_bits()).collect())).collect()
            };
            assert_eq!(bits(&restored), bits(&algo));
            assert_eq!(restored.checkpoint(), ckpt);
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

    mod resident {
        use super::*;
        use crate::tests_support::tiny_federation;
        use crate::FedConfig;

        /// [`tiny_federation`] with every client training every round.
        fn everyone_trains(rounds: usize) -> Federation {
            let fed = tiny_federation(rounds, 4);
            let config = FedConfig { sample_frac: 1.0, ..*fed.config() };
            Federation::new(*fed.spec(), fed.materialized_clients(), config)
        }

        /// After every round the store holds its checkpoint's client image
        /// and nothing more per client: the records, each allocated at its
        /// length, concatenate to the image, so no `f32` mask or dense
        /// model outlives the round. The pruned fractions kept beside the
        /// records are those of the states the records hold.
        fn assert_store_is_its_image<T: PruneTrack>(mut algo: SubFedAvg<Resident<T>, T>) {
            let layout = algo.fed.layout().to_vec();
            for round in 1..=algo.fed.config().rounds {
                algo.step_round();
                let store = &algo.store;
                let mut held = vec![1, T::KIND];
                held.extend_from_slice(&(store.records.len() as u64).to_le_bytes());
                for (k, record) in store.records.iter().enumerate() {
                    assert_eq!(record.capacity(), record.len(), "round {round} client {k}");
                    held.extend_from_slice(record);
                    let state = store.state(&layout, k);
                    assert_eq!(store.pruned[k], algo.track.pruned(&state));
                }
                assert!(held == algo.checkpoint().clients, "round {round}: store is not its image");
            }
        }

        #[test]
        fn un_store_holds_exactly_its_checkpoint_image() {
            let mut controller = UnstructuredController::paper_defaults(0.5);
            controller.acc_threshold = 0.0;
            controller.rate = 0.2;
            assert_store_is_its_image(SubFedAvgUn::with_controller(everyone_trains(4), controller));
        }

        #[test]
        fn hy_store_holds_exactly_its_checkpoint_image() {
            let mut controller = HybridController::paper_defaults(0.4, 0.5);
            controller.acc_threshold = 0.0;
            controller.structured_rate = 0.2;
            controller.unstructured.rate = 0.2;
            assert_store_is_its_image(SubFedAvgHy::with_controller(everyone_trains(4), controller));
        }

        /// A client that has not trained holds its state and no model, and
        /// evaluates and checkpoints as θ₀.
        #[test]
        fn an_untrained_client_holds_no_model_and_reads_as_theta0() {
            let fed = tiny_federation(1, 4);
            let mut algo =
                SubFedAvgUn::with_controller(fed, UnstructuredController::paper_defaults(0.5));
            algo.step_round();
            let layout = algo.fed.layout().to_vec();
            let (flags_len, mask_len, _) = state_lens::<UnstructuredController>(&layout);
            let trained = algo.fed.sample_round(1);
            let idle = (0..4).find(|k| !trained.contains(k)).unwrap();
            assert_eq!(algo.store.records[idle].len(), flags_len + mask_len);
            assert_eq!(algo.store.model(&layout, idle), None);
            // θ₀ under the all-ones mask: a tag byte and every value.
            let ckpt = algo.checkpoint();
            let theta0 = algo.fed.init_global();
            let mut want = algo.store.records[idle].clone();
            want.push(0);
            put_f32s(&mut want, &theta0);
            let at = ckpt.clients.windows(want.len()).position(|w| w == want.as_slice());
            assert!(at.is_some(), "the untrained client's checkpoint record is not θ₀");
            let acc = algo.fed.evaluate_flat(&theta0, &algo.fed.client_data(idle).test);
            assert_eq!(algo.store.evaluate(&algo.fed)[idle].to_bits(), acc.to_bits());
        }
    }

    mod scaled {
        use super::*;
        use crate::FedConfig;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        use subfed_data::{SynthClientProvider, SynthProviderConfig, SynthVision};
        use subfed_nn::models::ModelSpec;

        fn scaled_driver(registered: usize, frac: f32, threads: usize) -> ScaledSubFedAvg {
            let config = FedConfig {
                rounds: 2,
                sample_frac: frac,
                local_epochs: 2,
                batch_size: 6,
                eval_every: 2,
                threads,
                ..Default::default()
            };
            let provider = Arc::new(scaled_provider(registered));
            let fed = Federation::from_provider(ModelSpec::cnn5(1, 16, 16, 4), provider, config);
            ScaledSubFedAvg::new(fed, UnstructuredController::paper_defaults(0.5))
        }

        fn scaled_provider(registered: usize) -> SynthClientProvider {
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
            SynthClientProvider::new(
                synth,
                SynthProviderConfig {
                    num_clients: registered,
                    labels_per_client: 2,
                    train_per_label: 6,
                    val_per_label: 3,
                    test_per_label: 3,
                    seed: 11,
                },
            )
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

        /// The provider of [`scaled_driver`], handing out every client's
        /// full shard and counting the fetches made with and without the
        /// test split.
        #[derive(Debug)]
        struct WholeShards {
            inner: SynthClientProvider,
            fetched: [AtomicUsize; 2],
        }

        impl subfed_data::ClientProvider for WholeShards {
            fn num_clients(&self) -> usize {
                self.inner.num_clients()
            }
            fn client(&self, id: usize) -> Arc<subfed_data::ClientData> {
                self.inner.client(id)
            }
            fn shard(&self, id: usize, with_test: bool) -> Shard {
                self.fetched[usize::from(with_test)].fetch_add(1, Ordering::Relaxed);
                self.inner.shard(id, true)
            }
        }

        #[test]
        fn only_evaluation_rounds_fetch_test_splits_and_skipping_them_changes_nothing() {
            let mut lazy = scaled_driver(100, 0.05, 2);
            let inner = scaled_provider(100);
            let whole = Arc::new(WholeShards { inner, fetched: Default::default() });
            let fed = Federation::from_provider(
                *lazy.fed.spec(),
                Arc::clone(&whole) as Arc<dyn subfed_data::ClientProvider>,
                *lazy.fed.config(),
            );
            let mut eager = ScaledSubFedAvg::new(fed, UnstructuredController::paper_defaults(0.5));
            let summary = eager.run();
            assert_eq!(lazy.run(), summary);
            assert_eq!(lazy.global(), eager.global());
            // Round 1 does not evaluate; round 2 (`eval_every` 2) does.
            let [without, with] = whole.fetched.each_ref().map(|n| n.load(Ordering::Relaxed));
            let survivors: Vec<usize> = summary.records.iter().map(|r| r.survivors).collect();
            assert_eq!(vec![without, with], survivors);
        }

        #[test]
        fn eval_rounds_score_the_full_test_split() {
            let driver = scaled_driver(100, 0.05, 1);
            let (fed, params) = (&driver.fed, driver.global().to_vec());
            let keep = |shard, eval_due| {
                let run = client_round(&driver, params.clone(), shard, eval_due);
                driver.store.keep(fed, &driver.track, run).1 .1
            };
            let test = keep(fed.provider().shard(3, true), true);
            let mut model = fed.build_model();
            model.load_flat(&params);
            let want = crate::evaluate_accuracy(&mut model, &fed.client_data(3).test, 64);
            assert_eq!(test.map(|(acc, _)| acc.to_bits()), Some(want.to_bits()));
            let off = keep(fed.provider().shard(3, false), false);
            assert_eq!(off, None, "a round that does not evaluate scores nothing");
        }

        #[test]
        #[should_panic(expected = "fetched without its test split")]
        fn evaluating_a_shard_without_its_test_split_fails_loudly() {
            let driver = scaled_driver(100, 0.05, 1);
            let fed = &driver.fed;
            let params = driver.global().to_vec();
            let run = client_round(&driver, params, fed.provider().shard(3, false), true);
            let _ = driver.store.keep(fed, &driver.track, run);
        }

        /// A round of client 3 that fired no gate, with `params` as its
        /// model.
        fn client_round(
            driver: &ScaledSubFedAvg,
            params: Vec<f32>,
            shard: Shard,
            eval_due: bool,
        ) -> ClientRound<ModelMask> {
            let state = driver.store.client(&driver.fed, 3);
            let mask = flatten_mask(&state);
            let kept = kept_count(&mask);
            ClientRound { state, fired: false, mask, kept, params, val_acc: 0.5, shard, eval_due }
        }

        /// Each `eval` event reports the µs the survivors' evaluations
        /// took in their workers.
        #[test]
        fn registry_eval_events_time_the_cohort_evaluation() {
            let driver = scaled_driver(100, 0.05, 2);
            let sink = Arc::new(subfed_metrics::trace::VecSink::new());
            let config = FedConfig { eval_every: 1, ..*driver.fed.config() };
            let fed = Federation::from_provider(
                *driver.fed.spec(),
                Arc::new(scaled_provider(100)),
                config,
            )
            .with_tracer(subfed_metrics::trace::Tracer::new(sink.clone()));
            let summary =
                ScaledSubFedAvg::new(fed, UnstructuredController::paper_defaults(0.5)).run();
            let evals: Vec<(usize, u64)> = (sink.snapshot().iter())
                .filter_map(|e| match e {
                    TraceEvent::Eval { round, us, .. } => Some((*round, *us)),
                    _ => None,
                })
                .collect();
            assert_eq!(evals.iter().map(|e| e.0).collect::<Vec<_>>(), vec![1, 2]);
            assert!(evals.iter().all(|&(_, us)| us > 0), "an eval event read 0 µs: {evals:?}");
            assert!(summary.records.iter().all(|r| r.avg_test_acc.is_some()));
        }

        #[test]
        fn registry_survives_cold_reload() {
            let mut driver = scaled_driver(80, 0.1, 1);
            driver.step_round();
            let image = Checkpoint::decode(&driver.checkpoint().encode()).expect("decodes");
            let mut resumed = scaled_driver(80, 0.1, 1);
            resumed.restore(&image).expect("same federation");
            assert_eq!(resumed.checkpoint(), driver.checkpoint());
            for id in 0..80 {
                assert_eq!(resumed.registry().kept(id), driver.registry().kept(id));
                let rounds = driver.registry().rounds_participated(id);
                assert_eq!(resumed.registry().rounds_participated(id), rounds);
            }
        }
    }
}
