//! The pruning schedules of Algorithms 1 and 2: *when* a client prunes.
//!
//! Both algorithms derive a candidate mask at the end of the first local
//! epoch and another at the end of the last local epoch, each from that
//! epoch's flat parameter snapshot read through the model's layout, then
//! prune only if all three gates pass, checked in this order:
//!
//! 1. validation accuracy ≥ `acc_threshold` (don't prune an unconverged
//!    model),
//! 2. the target pruning rate has not been reached yet,
//! 3. the Hamming distance Δ between the two candidate masks ≥ ε (the mask
//!    is still *moving* — once it stabilises below ε the subnetwork is
//!    considered found).
//!
//! One private gate function implements this order for every track, and
//! derives the candidates only once the first two gates have passed. In
//! the hybrid algorithm the structured and unstructured tracks are gated
//! independently (Algorithm 2, line 19: "if **any** of the conditions
//! Δ_s ≥ ε or Δ_us ≥ ε hold, apply its corresponding mask"): the channel
//! track calls the gate directly, and the FC track is Algorithm 1's
//! [`UnstructuredController::step`].

use crate::structured::{expand_channel_mask_flat, slimming_mask_flat, ChannelMask};
use crate::unstructured::{magnitude_mask_flat, pruned_fraction, PruneScope, Ranking};
use subfed_nn::models::channel_graph;
use subfed_nn::{ModelMask, ParamMeta, Sequential};

/// Why a pruning gate fired or held — the observable outcome of the
/// three-gate decision (Algorithm 1 line 14 / Algorithm 2 lines 14–23),
/// reported in reading order of the gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateReason {
    /// Every gate passed; the mask advanced.
    Pruned,
    /// Validation accuracy below `Acc_th` (don't prune an unconverged
    /// model).
    AccuracyBelowThreshold,
    /// The target pruned fraction is already reached.
    TargetReached,
    /// Candidate-mask Hamming distance Δ below ε: the subnetwork has
    /// stabilised.
    MaskStable,
}

impl GateReason {
    /// Whether this outcome means the mask advanced.
    pub fn fired(self) -> bool {
        self == GateReason::Pruned
    }

    /// Stable kebab-case tag, as it appears in trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            GateReason::Pruned => "pruned",
            GateReason::AccuracyBelowThreshold => "acc-below-threshold",
            GateReason::TargetReached => "target-reached",
            GateReason::MaskStable => "mask-stable",
        }
    }
}

/// The measured detail behind one gate decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDecision {
    /// The outcome and, when held, the first gate that stopped it.
    pub reason: GateReason,
    /// Hamming distance Δ between the first- and last-epoch candidate
    /// masks; 0 when the accuracy or target gate held, since the
    /// candidates are then never derived.
    pub mask_distance: f32,
    /// Pruned fraction of the (possibly advanced) mask over the track's
    /// scope.
    pub pruned_fraction: f32,
}

/// The three gates of Algorithm 1 line 14, in order, for one track whose
/// mask is `current_fraction` pruned.
///
/// `derive` runs only after the accuracy and target gates have passed. It
/// derives the two candidates and returns Δ, the last-epoch candidate and
/// that candidate's pruned fraction; the candidate is returned iff Δ
/// passes too.
///
/// NaN-safe: a non-finite `val_acc` (a diverged local model) or a
/// non-finite Δ (corrupted mask bookkeeping) never prunes. `NaN >= th` is
/// `false` but `NaN < th` is *also* `false`, so each gate passes only on
/// a finite value at or above its threshold; a non-finite Δ reads as "not
/// moving" ([`GateReason::MaskStable`]).
fn gate<M>(
    val_acc: f32,
    acc_threshold: f32,
    current_fraction: f32,
    target: f32,
    eps: f32,
    derive: impl FnOnce() -> (f32, M, f32),
) -> (Option<M>, GateDecision) {
    let held = |reason, mask_distance| {
        (None, GateDecision { reason, mask_distance, pruned_fraction: current_fraction })
    };
    if !(val_acc.is_finite() && val_acc >= acc_threshold) {
        return held(GateReason::AccuracyBelowThreshold, 0.0);
    }
    if current_fraction >= target {
        return held(GateReason::TargetReached, 0.0);
    }
    let (delta, candidate, pruned_fraction) = derive();
    if !(delta.is_finite() && delta >= eps) {
        return held(GateReason::MaskStable, delta);
    }
    (
        Some(candidate),
        GateDecision { reason: GateReason::Pruned, mask_distance: delta, pruned_fraction },
    )
}

/// Client-side controller for Sub-FedAvg (Un) — Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnstructuredController {
    /// Fraction of remaining weights pruned per accepted step (`r_us`,
    /// paper: 5–10% per iteration).
    pub rate: f32,
    /// Target overall pruned fraction (`p_us`, paper: 30/50/70%).
    pub target: f32,
    /// Validation-accuracy gate (`Acc_th`).
    pub acc_threshold: f32,
    /// Mask-distance gate (`ε_us`, paper: 1e-4).
    pub eps: f32,
    /// Which weights to prune.
    pub scope: PruneScope,
    /// Magnitude ranking strategy.
    pub ranking: Ranking,
}

impl UnstructuredController {
    /// The paper's hyper-parameters for Sub-FedAvg (Un) at a given target.
    pub fn paper_defaults(target: f32) -> Self {
        Self {
            rate: 0.1,
            target,
            acc_threshold: 0.5,
            eps: 1e-4,
            scope: PruneScope::AllWeights,
            ranking: Ranking::LayerWise,
        }
    }

    /// One client-side pruning decision (Algorithm 1 line 14). Once the
    /// accuracy and target gates pass, it derives one geometric pruning
    /// step below `current` from the first-epoch and from the last-epoch
    /// weights — two flat parameter snapshots laid out by `layout` (the
    /// model's `Sequential::metas`) — and gates on their distance Δ.
    /// Returns the last-epoch candidate if pruning fires, and the
    /// decision: which gate held, or that pruning fired, with Δ and the
    /// resulting pruned fraction.
    ///
    /// # Panics
    ///
    /// Panics if `current` or a snapshot does not match `layout`.
    // lint: cold — the pruning decision runs once per client-round
    pub fn step(
        &self,
        layout: &[ParamMeta],
        first_epoch: &[f32],
        last_epoch: &[f32],
        current: &ModelMask,
        val_acc: f32,
    ) -> (Option<ModelMask>, GateDecision) {
        let current_fraction = pruned_fraction(current, self.scope);
        gate(val_acc, self.acc_threshold, current_fraction, self.target, self.eps, || {
            let candidate = |flat| {
                magnitude_mask_flat(layout, flat, current, self.rate, self.scope, self.ranking)
            };
            let (m_fe, m_le) = (candidate(first_epoch), candidate(last_epoch));
            let delta = m_fe.hamming_distance(&m_le, |k| self.scope.includes(k));
            let fraction = pruned_fraction(&m_le, self.scope);
            (delta, m_le, fraction)
        })
    }
}

/// A hybrid-pruned client: its channel mask, its FC-only unstructured
/// base mask, and the parameter mask they expand to.
#[derive(Debug, Clone)]
pub struct HybridState {
    channels: ChannelMask,
    unstructured: ModelMask,
    /// Always `expand_channel_mask_flat(layout, &channels, &unstructured)`.
    mask: ModelMask,
}

impl HybridState {
    /// The state holding `channels` and the FC base `unstructured`, with
    /// the parameter mask they expand to over `layout` (the model's
    /// `Sequential::metas`). A client that has never pruned holds
    /// [`HybridController::initial_channels`] and an all-ones base.
    ///
    /// # Panics
    ///
    /// Panics if either mask does not match the layout.
    pub fn new(layout: &[ParamMeta], channels: ChannelMask, unstructured: ModelMask) -> Self {
        let mask = expand_channel_mask_flat(layout, &channels, &unstructured);
        Self { channels, unstructured, mask }
    }

    /// The channel mask (structured track).
    pub fn channels(&self) -> &ChannelMask {
        &self.channels
    }

    /// The FC-only unstructured base mask.
    pub fn unstructured(&self) -> &ModelMask {
        &self.unstructured
    }

    /// The parameter mask the client trains and uploads under:
    /// `expand(channels) ∧ unstructured`.
    pub fn mask(&self) -> &ModelMask {
        &self.mask
    }
}

/// Client-side controller for Sub-FedAvg (Hy) — Algorithm 2: structured
/// pruning on conv channels (via BN |γ|) plus unstructured pruning on FC
/// weights, independently gated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridController {
    /// Channel-pruning fraction per accepted step (`r_s`).
    pub structured_rate: f32,
    /// Target fraction of channels pruned (`p_s`).
    pub structured_target: f32,
    /// Channel mask-distance gate (`ε_s`, paper: 0.05).
    pub structured_eps: f32,
    /// The FC-scoped unstructured track. Its `acc_threshold` is never
    /// read: both tracks gate on [`HybridController::acc_threshold`].
    pub unstructured: UnstructuredController,
    /// Validation-accuracy gate shared by both tracks (`Acc_th`).
    pub acc_threshold: f32,
}

impl HybridController {
    /// The paper's hyper-parameters for Sub-FedAvg (Hy) at the given
    /// channel/weight targets.
    pub fn paper_defaults(structured_target: f32, unstructured_target: f32) -> Self {
        Self {
            structured_rate: 0.1,
            structured_target,
            structured_eps: 0.05,
            unstructured: UnstructuredController {
                rate: 0.1,
                target: unstructured_target,
                acc_threshold: 0.5,
                eps: 1e-4,
                scope: PruneScope::FcOnly,
                ranking: Ranking::LayerWise,
            },
            acc_threshold: 0.5,
        }
    }

    /// One client-side hybrid pruning decision (Algorithm 2 lines 14–23)
    /// from the first- and last-epoch flat parameter snapshots laid out by
    /// `layout`: the channel track by BatchNorm |γ|, then the FC track as
    /// [`UnstructuredController::step`] under the shared `acc_threshold`.
    /// Returns the advanced state if either track fired, and the
    /// decisions of the channel and FC tracks, in that order.
    ///
    /// # Panics
    ///
    /// Panics if `current` or a snapshot does not match `layout`.
    // lint: cold — the pruning decision runs once per client-round
    pub fn step(
        &self,
        layout: &[ParamMeta],
        first_epoch: &[f32],
        last_epoch: &[f32],
        current: &HybridState,
        val_acc: f32,
    ) -> (Option<HybridState>, [GateDecision; 2]) {
        let (channels, structured) = gate(
            val_acc,
            self.acc_threshold,
            current.channels.pruned_fraction(),
            self.structured_target,
            self.structured_eps,
            || {
                let candidate = |flat| {
                    slimming_mask_flat(layout, flat, &current.channels, self.structured_rate)
                };
                let (c_fe, c_le) = (candidate(first_epoch), candidate(last_epoch));
                let fraction = c_le.pruned_fraction();
                (c_fe.hamming_distance(&c_le), c_le, fraction)
            },
        );
        let fc = UnstructuredController { acc_threshold: self.acc_threshold, ..self.unstructured };
        let (unstructured, fc_decision) =
            fc.step(layout, first_epoch, last_epoch, &current.unstructured, val_acc);
        let next = (channels.is_some() || unstructured.is_some()).then(|| {
            HybridState::new(
                layout,
                channels.unwrap_or_else(|| current.channels.clone()),
                unstructured.unwrap_or_else(|| current.unstructured.clone()),
            )
        });
        (next, [structured, fc_decision])
    }

    /// Builds the initial (all-ones) channel mask for a model.
    pub fn initial_channels(model: &Sequential) -> ChannelMask {
        ChannelMask::ones_for(&channel_graph(model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unstructured::magnitude_mask;
    use subfed_nn::models::ModelSpec;
    use subfed_nn::ParamKind;
    use subfed_tensor::init::SeededRng;

    fn model(seed: u64) -> Sequential {
        let mut m = ModelSpec::lenet5(1, 16, 16, 4).build(&mut SeededRng::new(seed));
        // Fresh models all carry γ = 1; randomise them as local training
        // would, so channel importances (and thus candidate masks) differ
        // between "first epoch" and "last epoch" snapshots.
        let mut rng = SeededRng::new(seed ^ 0xABCD);
        for p in m.params_mut() {
            if p.kind == ParamKind::BnGamma {
                for v in p.value.data_mut() {
                    *v = rng.uniform_f32(0.1, 2.0);
                }
            }
        }
        m
    }

    /// The layout and the flat weights of [`model`]`(seed)`: what a client
    /// hands the controllers after an epoch.
    fn snapshot(seed: u64) -> (Vec<ParamMeta>, Vec<f32>) {
        let m = model(seed);
        (m.metas(), m.flatten())
    }

    fn fresh(m: &Sequential) -> HybridState {
        let channels = HybridController::initial_channels(m);
        HybridState::new(&m.metas(), channels, ModelMask::ones_for(m))
    }

    #[test]
    fn step_prunes_when_weights_moved() {
        let c = UnstructuredController::paper_defaults(0.7);
        // Two different models (simulating first vs last epoch weights)
        // produce different candidate masks -> distance above eps.
        let (layout, fe) = snapshot(1);
        let (_, le) = snapshot(2);
        let current = ModelMask::ones_for(&model(1));
        let next = c.step(&layout, &fe, &le, &current, 0.9).0.expect("should prune");
        let frac = pruned_fraction(&next, PruneScope::AllWeights);
        assert!((frac - c.rate).abs() < 0.01, "{frac}");
    }

    #[test]
    fn step_skips_when_mask_stable() {
        let c = UnstructuredController::paper_defaults(0.7);
        // Identical models -> identical candidates -> Δ = 0 < ε.
        let (layout, w) = snapshot(3);
        let current = ModelMask::ones_for(&model(3));
        assert!(c.step(&layout, &w, &w, &current, 0.9).0.is_none());
    }

    #[test]
    fn hybrid_tracks_fire_independently() {
        let hc = HybridController::paper_defaults(0.5, 0.5);
        let (layout, fe) = snapshot(4);
        let (_, le) = snapshot(5);
        let (next, [channel, fc]) = hc.step(&layout, &fe, &le, &fresh(&model(4)), 0.9);
        // Different models: both tracks should fire.
        assert!(channel.reason.fired());
        assert!(fc.reason.fired());
        let next = next.expect("a track fired");
        assert!(next.channels().pruned_fraction() > 0.0);
        // Param mask reflects both.
        assert!(next.mask().pruned_fraction(|k| k == ParamKind::FcWeight) > 0.0);
        assert!(next.mask().pruned_fraction(|k| k == ParamKind::ConvWeight) > 0.0);
        // The unstructured base only touches FC weights.
        assert_eq!(next.unstructured().pruned_fraction(|k| k == ParamKind::ConvWeight), 0.0);
    }

    #[test]
    fn hybrid_respects_low_accuracy() {
        let hc = HybridController::paper_defaults(0.5, 0.5);
        let (layout, fe) = snapshot(6);
        let (_, le) = snapshot(7);
        let (next, [channel, fc]) = hc.step(&layout, &fe, &le, &fresh(&model(6)), 0.1);
        assert!(next.is_none());
        assert!(!channel.reason.fired() && !fc.reason.fired());
        assert_eq!(channel.pruned_fraction, 0.0);
        assert_eq!(fc.pruned_fraction, 0.0);
    }

    #[test]
    fn hybrid_structured_stops_at_target() {
        let hc = HybridController::paper_defaults(0.2, 0.9);
        let (layout, fe) = snapshot(8);
        let (_, le) = snapshot(9);
        let mut state = fresh(&model(8));
        for _ in 0..30 {
            if let Some(next) = hc.step(&layout, &fe, &le, &state, 0.9).0 {
                state = next;
            }
        }
        // Channel pruning stops once past the 20% target (one extra step
        // can overshoot by at most one rate increment).
        let channels = state.channels().pruned_fraction();
        assert!(channels <= 0.2 + hc.structured_rate + 1e-6);
        assert!(channels >= 0.15);
    }

    #[test]
    fn step_reports_the_first_holding_gate() {
        let c = UnstructuredController::paper_defaults(0.5);
        let m_fe = model(1);
        let (layout, fe) = snapshot(1);
        let (_, le) = snapshot(2);
        let ones = ModelMask::ones_for(&m_fe);
        // All pass.
        let (mask, d) = c.step(&layout, &fe, &le, &ones, 0.9);
        assert!(mask.is_some());
        assert_eq!(d.reason, GateReason::Pruned);
        assert!(d.reason.fired());
        assert!(d.mask_distance > 0.0);
        assert!((d.pruned_fraction - c.rate).abs() < 0.01);
        // Accuracy too low: held before the candidates are derived.
        for acc in [0.1, 0.4] {
            let (none, d) = c.step(&layout, &fe, &le, &ones, acc);
            assert!(none.is_none());
            assert_eq!(d.reason, GateReason::AccuracyBelowThreshold);
            assert!(!d.reason.fired());
            assert_eq!(d.mask_distance, 0.0);
        }
        // Distance below eps.
        let (none, d) = c.step(&layout, &fe, &fe, &ones, 0.9);
        assert!(none.is_none());
        assert_eq!(d.reason, GateReason::MaskStable);
        // Target reached: a mask at 50%.
        let half = magnitude_mask(&m_fe, &ones, 0.5, PruneScope::AllWeights, Ranking::LayerWise);
        let (none, d) = c.step(&layout, &fe, &le, &half, 0.9);
        assert!(none.is_none());
        assert_eq!(d.reason, GateReason::TargetReached);
        assert_eq!(d.reason.as_str(), "target-reached");
        assert_eq!(d.mask_distance, 0.0);
    }

    #[test]
    fn hybrid_step_reports_both_tracks() {
        let hc = HybridController::paper_defaults(0.5, 0.5);
        let (layout, fe) = snapshot(4);
        let (_, le) = snapshot(5);
        let state = fresh(&model(4));
        let (next, [channel, fc]) = hc.step(&layout, &fe, &le, &state, 0.9);
        assert!(next.is_some());
        assert_eq!(channel.reason, GateReason::Pruned);
        assert_eq!(fc.reason, GateReason::Pruned);
        // Accuracy gate is shared and reported per track.
        let (none, held) = hc.step(&layout, &fe, &le, &state, 0.1);
        assert!(none.is_none());
        for d in held {
            assert_eq!(d.reason, GateReason::AccuracyBelowThreshold);
            assert_eq!(d.mask_distance, 0.0);
        }
    }

    #[test]
    fn nan_accuracy_never_prunes() {
        let c = UnstructuredController::paper_defaults(0.5);
        let (layout, fe) = snapshot(1);
        let (_, le) = snapshot(2);
        let ones = ModelMask::ones_for(&model(1));
        // The same inputs prune at a healthy accuracy...
        assert!(c.step(&layout, &fe, &le, &ones, 0.9).0.is_some());
        // ...but a diverged (NaN/∞) accuracy must hold the gate, even
        // though `NaN < threshold` is false.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let (mask, d) = c.step(&layout, &fe, &le, &ones, bad);
            assert!(mask.is_none(), "{bad} pruned");
            assert_eq!(d.reason, GateReason::AccuracyBelowThreshold);
        }
    }

    #[test]
    fn nan_mask_distance_reads_as_stable() {
        // The same inputs prune at a healthy Δ...
        assert!(gate(0.9, 0.5, 0.0, 0.5, 1e-4, || (0.01, (), 0.1)).0.is_some());
        // ...but NaN and ∞ are non-finite: corrupted bookkeeping must not
        // fire the gate.
        for bad in [f32::NAN, f32::INFINITY] {
            let (next, d) = gate(0.9, 0.5, 0.0, 0.5, 1e-4, || (bad, (), 0.1));
            assert!(next.is_none(), "Δ = {bad} pruned");
            assert_eq!(d.reason, GateReason::MaskStable);
            assert_eq!(d.pruned_fraction, 0.0);
        }
    }

    #[test]
    fn hybrid_nan_accuracy_holds_both_tracks() {
        let hc = HybridController::paper_defaults(0.5, 0.5);
        let (layout, fe) = snapshot(4);
        let (_, le) = snapshot(5);
        let (next, decisions) = hc.step(&layout, &fe, &le, &fresh(&model(4)), f32::NAN);
        assert!(next.is_none());
        for d in decisions {
            assert_eq!(d.reason, GateReason::AccuracyBelowThreshold);
        }
    }

    #[test]
    fn paper_defaults_match_hyperparameters() {
        let c = UnstructuredController::paper_defaults(0.3);
        assert_eq!(c.eps, 1e-4);
        assert_eq!(c.target, 0.3);
        let h = HybridController::paper_defaults(0.5, 0.7);
        assert_eq!(h.structured_eps, 0.05);
        assert_eq!(h.unstructured.scope, PruneScope::FcOnly);
    }
}
