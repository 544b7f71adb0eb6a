//! Streaming Sub-FedAvg aggregation: fold uploads into running
//! `Σ mₖ·θₖ` / `Σ mₖ` accumulators instead of buffering the whole cohort.
//!
//! The batch rule ([`crate::aggregate::subfedavg_aggregate`]) takes every
//! `(params, mask)` pair at once — O(cohort × model) server memory, which
//! is exactly what a 10k-client cohort over a 62k-parameter model cannot
//! afford to keep dense. Intersection averaging, however, is a pure
//! position-wise fold: the server only ever needs the running masked sum
//! and the running holder count, 2 × model floats regardless of cohort
//! size. [`StreamingAccumulator`] is that fold; [`OrderedAccumulator`]
//! wraps it in a cohort-slot reorder window so concurrent training
//! workers fold their own upload on the way out *in a deterministic
//! order* instead of handing dense vectors back to the server loop.
//!
//! Determinism contract: f32 addition is not associative, so the folded
//! result is only reproducible if the fold order is fixed. The reorder
//! window folds uploads in cohort-slot order (the sampled cohort sorted
//! by client id) no matter which worker finishes first, which makes the
//! streamed aggregate **bit-identical** to the batch oracle and across
//! thread counts. The property tests assert exact equality; the
//! `order-sensitive-fold` rule of `subfed-lint check` rejects any
//! arrival-order fold that sneaks back in. See `docs/SCALING.md`
//! § "Numerical determinism".

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use subfed_metrics::sync::{into_inner_unpoisoned, lock_unpoisoned, wait_unpoisoned};
use subfed_nn::is_kept;

/// Typed rejection for a malformed or replayed upload: the aggregation
/// spine is a certified-total entry point (`TOTAL_ENTRIES` in
/// `subfed-lint`), so a bad fold is a reportable per-client event, never
/// a server panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggError {
    /// An upload vector's length differs from the model.
    LengthMismatch {
        /// Which vector was wrong (`"params"`, `"mask"`).
        what: &'static str,
        /// Length the upload carried.
        got: usize,
        /// Length the model requires.
        want: usize,
    },
    /// The cohort slot was already folded (or parked) this round.
    SlotReplayed {
        /// The offending slot.
        slot: usize,
    },
}

impl std::fmt::Display for AggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggError::LengthMismatch { what, got, want } => {
                write!(f, "{what} length {got} does not match model length {want}")
            }
            AggError::SlotReplayed { slot } => {
                write!(f, "cohort slot {slot} folded twice")
            }
        }
    }
}

impl std::error::Error for AggError {}

/// Running position-wise Sub-FedAvg state: one masked sum and one holder
/// count per model position.
#[derive(Debug, Clone)]
pub struct StreamingAccumulator {
    sum: Vec<f32>,
    count: Vec<f32>,
    updates: usize,
}

impl StreamingAccumulator {
    /// An empty accumulator over a model of `num_params` positions.
    pub fn new(num_params: usize) -> Self {
        Self { sum: vec![0.0; num_params], count: vec![0.0; num_params], updates: 0 }
    }

    /// Folds one client upload: every kept position contributes its
    /// parameter to the sum and one holder to the count.
    ///
    /// # Errors
    ///
    /// Returns [`AggError::LengthMismatch`] — and folds nothing — if
    /// `params` or `mask` length differs from the model.
    #[must_use = "a dropped Result hides the rejected upload it reports"]
    pub fn fold(&mut self, params: &[f32], mask: &[f32]) -> Result<(), AggError> {
        let want = self.sum.len();
        if params.len() != want {
            return Err(AggError::LengthMismatch { what: "params", got: params.len(), want });
        }
        if mask.len() != want {
            return Err(AggError::LengthMismatch { what: "mask", got: mask.len(), want });
        }
        for (((s, c), &p), &m) in
            self.sum.iter_mut().zip(self.count.iter_mut()).zip(params).zip(mask)
        {
            if is_kept(m) {
                *s += p;
                *c += 1.0;
            }
        }
        self.updates += 1;
        Ok(())
    }

    /// Uploads folded so far.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Per-position holder counts (for coverage checks).
    pub fn counts(&self) -> &[f32] {
        &self.count
    }

    /// Closes the round: positions at least one client kept take the
    /// intersection mean, positions nobody kept retain the previous
    /// global — the same rule as the batch aggregator.
    ///
    /// # Panics
    ///
    /// Panics if `global` length differs, or nothing was folded.
    pub fn finish(&self, global: &[f32]) -> Vec<f32> {
        assert_eq!(global.len(), self.sum.len(), "global length mismatch");
        assert!(self.updates > 0, "streaming sub-fedavg over zero updates");
        self.sum
            .iter()
            .zip(self.count.iter())
            .zip(global)
            .map(|((&s, &c), &g)| if c > 0.0 { s / c } else { g })
            .collect()
    }

    /// Resident bytes — 2 × model × 4, independent of cohort size. The
    /// O(model) server-memory invariant `docs/SCALING.md` documents.
    pub fn memory_bytes(&self) -> usize {
        (self.sum.len() + self.count.len()) * std::mem::size_of::<f32>()
    }
}

/// Shared reorder state: the running fold plus the uploads that arrived
/// ahead of their turn.
#[derive(Debug)]
struct OrderedState {
    acc: StreamingAccumulator,
    /// The cohort slot the fold will consume next.
    next: usize,
    /// Early arrivals, keyed by cohort slot (all keys are `> next`).
    pending: BTreeMap<usize, (Vec<f32>, Vec<f32>)>,
}

/// A [`StreamingAccumulator`] behind a cohort-slot turnstile: concurrent
/// workers hand in uploads tagged with their slot (the position of the
/// client in the round's id-sorted cohort), and the accumulator folds
/// them in slot order regardless of arrival order. The result is
/// bit-identical to folding the cohort sequentially — and therefore to
/// the batch oracle — at any thread count.
///
/// Memory stays O(model): the running fold is 2 × model floats, and the
/// reorder window parks at most `window` early uploads (one per worker
/// under the strided schedule [`crate::engine::Federation::par_map`]
/// uses), independent of cohort size.
///
/// Progress: a worker whose upload is not yet due parks it (window
/// permitting) and moves on, or blocks on the turnstile when the window
/// is full. As long as each worker hands in its own slots in increasing
/// order — which the strided schedule guarantees — the worker owning the
/// due slot never blocks, so the fold always advances.
#[derive(Debug)]
pub struct OrderedAccumulator {
    state: Mutex<OrderedState>,
    turn: Condvar,
    num_params: usize,
    window: usize,
}

impl OrderedAccumulator {
    /// An empty ordered accumulator over `num_params` positions with a
    /// reorder window of `window` early uploads (use the worker count).
    ///
    /// # Panics
    ///
    /// Panics on an empty model or a zero-sized window.
    pub fn new(num_params: usize, window: usize) -> Self {
        assert!(num_params > 0, "accumulator needs a non-empty model");
        assert!(window > 0, "reorder window needs at least one slot");
        let state = OrderedState {
            acc: StreamingAccumulator::new(num_params),
            next: 0,
            pending: BTreeMap::new(),
        };
        Self { state: Mutex::new(state), turn: Condvar::new(), num_params, window }
    }

    /// Folds the upload for cohort slot `slot`, taking ownership so early
    /// arrivals can be parked without copying under the lock.
    ///
    /// Folds happen in ascending slot order: an on-time upload folds
    /// immediately and drains any consecutive parked successors; an
    /// upload at most `window` slots ahead of the turn parks in the
    /// reorder window; anything further ahead blocks until the turn
    /// catches up. Callable from any worker thread (`&self`).
    ///
    /// # Errors
    ///
    /// Returns [`AggError::LengthMismatch`] if `params` or `mask` length
    /// differs from the model, or [`AggError::SlotReplayed`] if `slot`
    /// was already folded or parked. Rejected uploads fold nothing and
    /// leave the turnstile state untouched, so the round can continue
    /// without the offending client.
    #[must_use = "a dropped Result hides the rejected upload it reports"]
    pub fn fold(&self, slot: usize, params: Vec<f32>, mask: Vec<f32>) -> Result<(), AggError> {
        let want = self.num_params;
        if params.len() != want {
            return Err(AggError::LengthMismatch { what: "params", got: params.len(), want });
        }
        if mask.len() != want {
            return Err(AggError::LengthMismatch { what: "mask", got: mask.len(), want });
        }
        // Poison-tolerant by policy: the running sums stay valid even if
        // a sibling worker panicked, and that panic re-raises at join.
        let mut st = lock_unpoisoned(&self.state);
        loop {
            if slot == st.next {
                // Lengths were validated against the same `num_params`
                // the inner accumulator was built with, so the inner
                // folds cannot fail; `?` keeps the proof local.
                st.acc.fold(&params, &mask)?;
                st.next += 1;
                while let Some((p, m)) = {
                    let due = st.next;
                    st.pending.remove(&due)
                } {
                    st.acc.fold(&p, &m)?;
                    st.next += 1;
                }
                self.turn.notify_all();
                return Ok(());
            }
            if slot < st.next || st.pending.contains_key(&slot) {
                return Err(AggError::SlotReplayed { slot });
            }
            // Distance-based window: parked keys live in
            // `(next, next + window]`, so at most `window` uploads are
            // ever resident beyond the running sums.
            if slot - st.next <= self.window {
                st.pending.insert(slot, (params, mask));
                return Ok(());
            }
            st = wait_unpoisoned(&self.turn, st);
        }
    }

    /// Uploads folded so far (excludes parked early arrivals).
    pub fn updates(&self) -> usize {
        lock_unpoisoned(&self.state).acc.updates()
    }

    /// Collapses the turnstile back into the plain
    /// [`StreamingAccumulator`] (after the round's workers have joined).
    ///
    /// # Panics
    ///
    /// Panics if uploads are still parked in the reorder window — that
    /// means a slot was never handed in and the fold is incomplete.
    pub fn into_streaming(self) -> StreamingAccumulator {
        let st = into_inner_unpoisoned(self.state);
        assert!(
            st.pending.is_empty(),
            "ordered fold torn down with {} uploads still parked",
            st.pending.len()
        );
        st.acc
    }

    /// Resident bytes right now: the running fold (2 × model × 4) plus
    /// whatever the reorder window currently parks. Empty between rounds,
    /// and bounded by `window` uploads — not cohort size — within one.
    pub fn memory_bytes(&self) -> usize {
        let st = lock_unpoisoned(&self.state);
        st.acc.memory_bytes() + st.pending.len() * 2 * self.num_params * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::subfedavg_aggregate;
    use subfed_tensor::init::SeededRng;

    fn random_cohort(rng: &mut SeededRng, n: usize, len: usize) -> Vec<(Vec<f32>, Vec<f32>)> {
        (0..n)
            .map(|_| {
                let params: Vec<f32> = (0..len).map(|_| rng.uniform_f32(-2.0, 2.0)).collect();
                let mask: Vec<f32> = (0..len)
                    .map(|_| if rng.uniform_f32(0.0, 1.0) < 0.6 { 1.0 } else { 0.0 })
                    .collect();
                (params, mask)
            })
            .collect()
    }

    #[test]
    fn streaming_is_bit_identical_to_batch_aggregation() {
        // Property: across random cohorts/masks/sizes, folding upload-by-
        // upload in cohort order reproduces the batch oracle *exactly* —
        // both perform the same f32 additions in the same order.
        let mut rng = SeededRng::new(99);
        for case in 0..25 {
            let len = 1 + (case * 37) % 400;
            let cohort = 1 + case % 12;
            let global: Vec<f32> = (0..len).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
            let updates = random_cohort(&mut rng, cohort, len);
            let batch = subfedavg_aggregate(&global, &updates);
            let mut acc = StreamingAccumulator::new(len);
            for (p, m) in &updates {
                acc.fold(p, m).unwrap();
            }
            let streamed = acc.finish(&global);
            assert_eq!(acc.updates(), cohort);
            assert_eq!(batch, streamed, "case {case}: stream must match batch bit-for-bit");
        }
    }

    #[test]
    fn permuted_arrival_is_bit_identical_to_batch_aggregation() {
        // Uploads arrive in a scrambled order; the reorder window must
        // still fold them in slot order, bit-identical to the oracle.
        let mut rng = SeededRng::new(7);
        for case in 0..10 {
            let len = 257;
            let cohort = 9;
            let global: Vec<f32> = (0..len).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
            let updates = random_cohort(&mut rng, cohort, len);
            let batch = subfedavg_aggregate(&global, &updates);
            let mut arrival: Vec<usize> = (0..cohort).collect();
            rng.shuffle(&mut arrival);
            // Window = cohort so the scrambled single-threaded feed never
            // blocks on the turnstile.
            let acc = OrderedAccumulator::new(len, cohort);
            for &slot in &arrival {
                let (p, m) = updates[slot].clone();
                acc.fold(slot, p, m).unwrap();
            }
            assert_eq!(acc.updates(), cohort);
            let streamed = acc.into_streaming().finish(&global);
            assert_eq!(batch, streamed, "case {case}: permuted arrival must not change bits");
        }
    }

    #[test]
    fn concurrent_folds_are_bit_identical_across_thread_counts() {
        // The acceptance property: the streamed aggregate equals the
        // batch oracle bit-for-bit at every thread count, with workers
        // racing under the same strided slot schedule `par_map` uses.
        let len = 512;
        let mut rng = SeededRng::new(13);
        let global: Vec<f32> = (0..len).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
        let updates = random_cohort(&mut rng, 24, len);
        let batch = subfedavg_aggregate(&global, &updates);
        for &threads in &[2usize, 3, 5, 8] {
            let acc = OrderedAccumulator::new(len, threads);
            std::thread::scope(|s| {
                for w in 0..threads {
                    let acc = &acc;
                    let updates = &updates;
                    s.spawn(move || {
                        // Strided schedule: worker `w` owns slots w, w+T,
                        // w+2T, … and hands them in ascending — the
                        // precondition for turnstile progress.
                        for slot in (w..updates.len()).step_by(threads) {
                            let (p, m) = updates[slot].clone();
                            acc.fold(slot, p, m).unwrap();
                        }
                    });
                }
            });
            assert_eq!(acc.updates(), 24);
            let streamed = acc.into_streaming().finish(&global);
            assert_eq!(batch, streamed, "threads={threads}: aggregate must be bit-identical");
        }
    }

    #[test]
    fn uncovered_positions_keep_previous_global() {
        let global = vec![5.0, -3.0, 0.5];
        let mut acc = StreamingAccumulator::new(3);
        acc.fold(&[1.0, 9.0, 2.0], &[1.0, 0.0, 1.0]).unwrap();
        acc.fold(&[3.0, 9.0, 4.0], &[1.0, 0.0, 0.0]).unwrap();
        let out = acc.finish(&global);
        assert_eq!(out, vec![2.0, -3.0, 2.0]);
        assert_eq!(acc.counts()[1], 0.0);
    }

    #[test]
    fn memory_is_o_model_not_o_cohort() {
        let len = 1000;
        let mut acc = StreamingAccumulator::new(len);
        let before = acc.memory_bytes();
        let ones = vec![1.0; len];
        for _ in 0..100 {
            acc.fold(&ones, &ones).unwrap();
        }
        assert_eq!(acc.memory_bytes(), before, "folding must not grow the accumulator");
        assert_eq!(before, 2 * len * 4);

        // The ordered wrapper reports the same steady state once the
        // window drains: on-time folds never park.
        let acc = OrderedAccumulator::new(len, 4);
        for slot in 0..100 {
            acc.fold(slot, ones.clone(), ones.clone()).unwrap();
        }
        assert_eq!(acc.memory_bytes(), 2 * len * 4);
    }

    #[test]
    #[should_panic(expected = "zero updates")]
    fn finish_without_updates_panics() {
        let _ = StreamingAccumulator::new(4).finish(&[0.0; 4]);
    }

    #[test]
    fn refolding_a_slot_is_rejected_not_folded() {
        let acc = OrderedAccumulator::new(2, 2);
        acc.fold(0, vec![1.0, 1.0], vec![1.0, 1.0]).unwrap();
        let err = acc.fold(0, vec![2.0, 2.0], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(err, AggError::SlotReplayed { slot: 0 });
        // A replay parked in the window is caught too, and neither copy
        // corrupts the fold: slot 1 parks, then arrives again.
        acc.fold(2, vec![5.0, 5.0], vec![1.0, 1.0]).unwrap();
        let err = acc.fold(2, vec![6.0, 6.0], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(err, AggError::SlotReplayed { slot: 2 });
        acc.fold(1, vec![3.0, 3.0], vec![1.0, 1.0]).unwrap();
        assert_eq!(acc.updates(), 3);
    }

    #[test]
    fn mismatched_upload_is_rejected_not_folded() {
        let mut acc = StreamingAccumulator::new(3);
        let err = acc.fold(&[1.0], &[1.0, 1.0, 1.0]).unwrap_err();
        assert_eq!(err, AggError::LengthMismatch { what: "params", got: 1, want: 3 });
        let ordered = OrderedAccumulator::new(3, 1);
        let err = ordered.fold(0, vec![1.0; 3], vec![1.0; 2]).unwrap_err();
        assert_eq!(err, AggError::LengthMismatch { what: "mask", got: 2, want: 3 });
        assert_eq!(ordered.updates(), 0, "a rejected upload must fold nothing");
    }
}
