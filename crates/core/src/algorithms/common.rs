//! Helpers shared by the algorithm implementations.

use crate::{Federation, History, RoundRecord};
use subfed_metrics::trace::{Span, TraceEvent};

/// Whether `round` (1-based) is an evaluation round.
pub(crate) fn is_eval_round(fed: &Federation, round: usize) -> bool {
    round.is_multiple_of(fed.config().eval_every) || round == fed.config().rounds
}

/// Evaluates every client's flat model (when due) and appends the round
/// record. `round_span` is the span opened at the top of the round; it
/// closes here with the round's `eval` (when due) and `round_end` trace
/// events. `model_hash` is the server model's post-aggregation
/// fingerprint ([`subfed_metrics::trace::model_hash`]); algorithms with
/// no server-side model (standalone, MTL) pass `0` ("not recorded").
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_round(
    history: &mut History,
    fed: &Federation,
    round: usize,
    flats: &[Vec<f32>],
    cum_bytes: u64,
    model_hash: u64,
    avg_pruned_params: f32,
    avg_pruned_channels: f32,
    per_client_pruned: Vec<f32>,
    round_span: Span,
) {
    let (avg_acc, per_client_acc) = if is_eval_round(fed, round) {
        let eval_span = fed.tracer().span();
        let accs = fed.evaluate_clients(flats);
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
    history.push(RoundRecord {
        round,
        avg_acc,
        per_client_acc,
        per_client_pruned,
        cum_bytes,
        avg_pruned_params,
        avg_pruned_channels,
    });
}

/// Applies a flat 0/1 mask to a flat parameter vector.
pub(crate) fn apply_flat_mask(mut flat: Vec<f32>, mask: &[f32]) -> Vec<f32> {
    debug_assert_eq!(flat.len(), mask.len());
    for (v, &m) in flat.iter_mut().zip(mask.iter()) {
        *v *= m;
    }
    flat
}

/// Number of kept (non-zero) entries of a flat mask.
pub(crate) fn kept_count(mask: &[f32]) -> usize {
    mask.iter().filter(|&&m| subfed_nn::is_kept(m)).count()
}
