//! Helpers shared by the algorithm implementations: the dense baselines'
//! round loop, the traced client-train step every driver runs, and round
//! recording.

use crate::{train_client_ws, Federation, History, LocalOutcome, RoundRecord};
use std::borrow::Cow;
use subfed_data::ClientData;
use subfed_metrics::flops;
use subfed_metrics::trace::{Span, TraceEvent};
use subfed_nn::ModelMask;

/// A dense baseline (Standalone, FedAvg/FedProx, LG-FedAvg, MTL): what its
/// server does with a round's cohort and which models it evaluates.
/// [`run_rounds`] drives the rest of every round.
pub(crate) trait Baseline {
    /// Per-run state: the server model and/or every client's own model.
    type State;

    /// The federation the baseline runs on.
    fn fed(&self) -> &Federation;
    /// Opens `round` and returns its surviving cohort.
    fn cohort(&self, round: usize) -> Vec<usize> {
        self.fed().begin_round(round)
    }
    /// Runs `round` over a non-empty cohort and returns the bytes it moved.
    fn round_body(&self, state: &mut Self::State, round: usize, ids: &[usize]) -> u64;
    /// One model per registered client, as evaluated, and the server
    /// model's fingerprint ([`subfed_metrics::trace::model_hash`]; `0` when
    /// the baseline keeps no server model).
    fn models<'s>(&self, state: &'s Self::State) -> (Cow<'s, [Vec<f32>]>, u64);
}

/// The dense baselines' round loop from the initial `state`: each round
/// opens its span and cohort, runs the round body only when the cohort is
/// non-empty (a round that lost every client keeps the previous models),
/// and records the round.
pub(crate) fn run_rounds<B: Baseline>(baseline: &B, mut state: B::State) -> History {
    let fed = baseline.fed();
    let mut history = History::new();
    let mut cum_bytes = 0;
    for round in 1..=fed.config().rounds {
        let span = fed.tracer().span();
        let ids = baseline.cohort(round);
        if !ids.is_empty() {
            cum_bytes += baseline.round_body(&mut state, round, &ids);
        }
        let (models, hash) = baseline.models(&state);
        let accuracies = || fed.evaluate_clients(&models);
        history.push(record_round(fed, round, accuracies, cum_bytes, hash, Vec::new(), span));
    }
    history
}

/// Client `client`'s local training from `init`, in a pooled workspace,
/// traced by its `train` event: the dense FLOPs, and the effective FLOPs of
/// the subnetwork under `mask` (dense without one). The FLOP counts are
/// only computed when the tracer is enabled.
pub(crate) fn train_step(
    fed: &Federation,
    round: usize,
    client: usize,
    data: &ClientData,
    init: &[f32],
    mask: Option<&ModelMask>,
    prox: Option<(&[f32], f32)>,
) -> LocalOutcome {
    let (spec, span) = (fed.spec(), fed.tracer().span());
    let seed = fed.client_seed(round, client);
    let out =
        train_client_ws(spec, init, data, fed.config(), mask, prox, seed, &mut fed.workspace());
    if fed.tracer().is_enabled() {
        let us = span.elapsed_us();
        let dense_flops = flops::dense_flops(spec);
        fed.tracer().emit(TraceEvent::ClientTrain {
            round,
            client,
            us,
            val_acc: out.val_acc,
            train_loss: out.mean_train_loss,
            effective_flops: mask.map_or(dense_flops, |m| flops::effective_flops(spec, m)),
            dense_flops,
        });
    }
    out
}

/// Whether `round` (1-based) is an evaluation round.
pub(crate) fn is_eval_round(fed: &Federation, round: usize) -> bool {
    round.is_multiple_of(fed.config().eval_every) || round == fed.config().rounds
}

/// Evaluates every client (when due, through `accuracies`, which returns
/// one personalized test accuracy per client) and returns the round
/// record. `round_span` is the span opened at the top of the round; it
/// closes here with the round's `eval` (when due) and `round_end` trace
/// events. `model_hash` is the server model's post-aggregation
/// fingerprint ([`subfed_metrics::trace::model_hash`]); algorithms with
/// no server-side model (standalone, MTL) pass `0` ("not recorded").
/// `pruned` holds every client's pruned fraction of weights and of
/// channels; the dense baselines pass none.
pub(crate) fn record_round(
    fed: &Federation,
    round: usize,
    accuracies: impl FnOnce() -> Vec<f32>,
    cum_bytes: u64,
    model_hash: u64,
    pruned: Vec<(f32, f32)>,
    round_span: Span,
) -> RoundRecord {
    let (per_client_pruned, channels): (Vec<f32>, Vec<f32>) = pruned.into_iter().unzip();
    let mean = |v: &[f32]| if v.is_empty() { 0.0 } else { v.iter().sum::<f32>() / v.len() as f32 };
    let (avg_acc, per_client_acc) = if is_eval_round(fed, round) {
        let eval_span = fed.tracer().span();
        let accs = accuracies();
        let mean = accs.iter().sum::<f32>() / accs.len() as f32;
        fed.tracer().emit(TraceEvent::Eval { round, us: eval_span.elapsed_us(), avg_acc: mean });
        (Some(mean), accs)
    } else {
        (None, Vec::new())
    };
    fed.tracer().emit(TraceEvent::RoundEnd {
        round,
        us: round_span.elapsed_us(),
        cum_bytes,
        model_hash,
    });
    RoundRecord {
        round,
        avg_acc,
        per_client_acc,
        avg_pruned_params: mean(&per_client_pruned),
        per_client_pruned,
        cum_bytes,
        avg_pruned_channels: mean(&channels),
    }
}

/// Applies a flat 0/1 mask to a flat parameter vector.
pub(crate) fn apply_flat_mask(mut flat: Vec<f32>, mask: &[f32]) -> Vec<f32> {
    debug_assert_eq!(flat.len(), mask.len());
    for (v, &m) in flat.iter_mut().zip(mask.iter()) {
        *v *= m;
    }
    flat
}
