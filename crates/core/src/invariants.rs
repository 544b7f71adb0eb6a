//! Runtime invariant checks for the federation's trust boundaries.
//!
//! The static side (`subfed-lint`) proves the *code* avoids hazard
//! patterns; this module checks the *data* at the two boundaries where
//! masks and updates cross between client and server that no other check
//! covers:
//!
//! - **gate** — the mask distance Δ must live in `[0, 1]`
//!   (`controller.rs` boundary; a non-finite validation accuracy holds the
//!   gate by design, so it is not a violation),
//! - **aggregate** — intersection averaging over a non-empty cohort must
//!   cover at least one position, otherwise the round is a silent no-op
//!   (`aggregate.rs` boundary).
//!
//! The decode boundary needs no check here: `unpack_mask` writes only
//! `0.0` and `1.0`, the certified `OrderedAccumulator::fold` refuses a
//! wrong-length update with a typed `AggError::LengthMismatch`, and the
//! buffered aggregators assert lengths.
//!
//! The check functions are pure, always compiled, and unit-testable. The
//! [`enforce_with`] wrapper is the debug-assert layer: it evaluates the
//! check **only in debug builds** (release builds skip even the closure),
//! and on violation emits a [`TraceEvent::Invariant`] through the run's
//! tracer — so the JSONL trace records what the federation saw — before
//! panicking. Use [`report`] for the non-panicking variant.

use std::fmt;
use subfed_metrics::trace::{TraceEvent, Tracer};

/// A violated runtime invariant, with the measurements that violated it.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// A Hamming distance Δ left its `[0, 1]` domain (or is non-finite).
    HammingOutOfDomain {
        /// The measured distance.
        value: f32,
    },
    /// Intersection averaging over a non-empty cohort covered no position
    /// at all: every denominator is zero and the aggregate degenerates to
    /// the previous global.
    NoCoverage {
        /// Number of aggregated positions (all of them uncovered).
        positions: usize,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::HammingOutOfDomain { value } => {
                write!(f, "hamming distance {value} outside [0, 1]")
            }
            InvariantViolation::NoCoverage { positions } => {
                write!(f, "aggregation covered none of {positions} positions")
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Checks that a Hamming distance is finite and within `[0, 1]`.
///
/// # Errors
///
/// [`InvariantViolation::HammingOutOfDomain`].
#[must_use = "a dropped Result hides the violation it reports"]
pub fn check_hamming_domain(value: f32) -> Result<(), InvariantViolation> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(InvariantViolation::HammingOutOfDomain { value })
    }
}

/// Checks that intersection averaging over `updates` covers at least one
/// of `positions` — i.e. at least one client keeps at least one position.
/// An empty cohort or a zero-length model is trivially fine (other asserts
/// own those cases); what this catches is a *non-empty* cohort whose masks
/// are all-zero, which silently degenerates every denominator.
///
/// # Errors
///
/// [`InvariantViolation::NoCoverage`].
#[must_use = "a dropped Result hides the violation it reports"]
pub fn check_aggregation_coverage(
    updates: &[(Vec<f32>, Vec<f32>)],
    positions: usize,
) -> Result<(), InvariantViolation> {
    if updates.is_empty() || positions == 0 {
        return Ok(());
    }
    let covered = updates.iter().any(|(_, mask)| mask.iter().copied().any(subfed_nn::is_kept));
    if covered {
        Ok(())
    } else {
        Err(InvariantViolation::NoCoverage { positions })
    }
}

/// Streaming-aggregation variant of [`check_aggregation_coverage`]: the
/// sharded accumulator never materializes the cohort's `(params, mask)`
/// pairs, so coverage is judged from its per-position holder counts
/// instead. Zero folded updates or a zero-length model are trivially fine
/// (other asserts own those cases).
///
/// # Errors
///
/// [`InvariantViolation::NoCoverage`] when `updates > 0` but every
/// position's holder count is zero.
#[must_use = "a dropped Result hides the violation it reports"]
pub fn check_streaming_coverage(counts: &[f32], updates: usize) -> Result<(), InvariantViolation> {
    if updates == 0 || counts.is_empty() {
        return Ok(());
    }
    if counts.iter().any(|&c| c > 0.0) {
        Ok(())
    } else {
        Err(InvariantViolation::NoCoverage { positions: counts.len() })
    }
}

/// Records a violation on the trace (and flushes, so the event survives an
/// imminent panic). Never panics; usable from release builds.
pub fn report(tracer: &Tracer, round: usize, context: &str, violation: &InvariantViolation) {
    tracer.emit(TraceEvent::Invariant {
        round,
        context: context.to_string(),
        detail: violation.to_string(),
    });
    tracer.flush();
}

/// Debug-assert layer: in debug builds, evaluates `check` and — on
/// violation — reports it on the trace, then panics. Release builds skip
/// the closure entirely, so checks may be arbitrarily expensive. `context`
/// is only formatted for a report, so a per-client
/// `format_args!("gate client {i}")` builds no string in either build.
///
/// # Panics
///
/// Panics in debug builds when `check` returns a violation.
#[inline]
// Returns (): the `-> Result` in the closure bound below is the *input*
// contract, not this function's return type.
// lint: allow(must-use-result)
pub fn enforce_with<F>(tracer: &Tracer, round: usize, context: impl std::fmt::Display, check: F)
where
    F: FnOnce() -> Result<(), InvariantViolation>,
{
    #[cfg(debug_assertions)]
    #[expect(
        clippy::panic,
        reason = "the whole point of the debug-assert layer: fail loudly at the boundary \
                  where the corrupt data entered the federation"
    )]
    if let Err(violation) = check() {
        report(tracer, round, &context.to_string(), &violation);
        panic!("invariant violated at {context} (round {round}): {violation}");
    }
    #[cfg(not(debug_assertions))]
    let _ = (tracer, round, context, check);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use subfed_metrics::trace::VecSink;

    #[test]
    fn hamming_domain_is_the_closed_unit_interval() {
        assert_eq!(check_hamming_domain(0.0), Ok(()));
        assert_eq!(check_hamming_domain(1.0), Ok(()));
        for bad in [-0.001f32, 1.001, f32::NAN, f32::INFINITY] {
            assert!(check_hamming_domain(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn coverage_catches_all_zero_cohorts_only() {
        // Zero-denominator everywhere: a non-empty cohort whose masks keep
        // nothing. Every position silently falls back to the old global.
        let all_zero = vec![(vec![1.0, 2.0], vec![0.0, 0.0]); 3];
        assert_eq!(
            check_aggregation_coverage(&all_zero, 2),
            Err(InvariantViolation::NoCoverage { positions: 2 })
        );
        // One kept position anywhere is enough.
        let one_kept = vec![(vec![1.0, 2.0], vec![0.0, 0.0]), (vec![3.0, 4.0], vec![0.0, 1.0])];
        assert_eq!(check_aggregation_coverage(&one_kept, 2), Ok(()));
        // Empty cohort and empty model are owned by other asserts.
        assert_eq!(check_aggregation_coverage(&[], 2), Ok(()));
        assert_eq!(check_aggregation_coverage(&all_zero, 0), Ok(()));
    }

    #[test]
    fn streaming_coverage_mirrors_the_batch_check() {
        assert_eq!(
            check_streaming_coverage(&[0.0, 0.0], 3),
            Err(InvariantViolation::NoCoverage { positions: 2 })
        );
        assert_eq!(check_streaming_coverage(&[0.0, 1.0], 3), Ok(()));
        assert_eq!(check_streaming_coverage(&[0.0, 0.0], 0), Ok(()));
        assert_eq!(check_streaming_coverage(&[], 3), Ok(()));
    }

    #[test]
    fn report_lands_on_the_trace() {
        let sink = Arc::new(VecSink::new());
        let tracer = Tracer::new(sink.clone());
        let violation = InvariantViolation::NoCoverage { positions: 7 };
        report(&tracer, 4, "aggregate", &violation);
        assert_eq!(
            sink.snapshot(),
            vec![TraceEvent::Invariant {
                round: 4,
                context: "aggregate".into(),
                detail: "aggregation covered none of 7 positions".into(),
            }]
        );
    }

    #[test]
    fn enforce_passes_clean_checks_silently() {
        let sink = Arc::new(VecSink::new());
        let tracer = Tracer::new(sink.clone());
        enforce_with(&tracer, 1, "gate client 0", || Ok(()));
        assert!(sink.is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn enforce_traces_then_panics_in_debug() {
        let sink = Arc::new(VecSink::new());
        let tracer = Tracer::new(sink.clone());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            enforce_with(&tracer, 2, "gate client 1", || check_hamming_domain(f32::NAN));
        }));
        let payload = result.expect_err("debug enforcement must panic");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("invariant violated at gate client 1 (round 2)"), "{msg}");
        // The trace event was emitted before the panic.
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.snapshot()[0].kind(), "invariant");
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn enforce_skips_the_closure_in_release() {
        let tracer = Tracer::disabled();
        let mut evaluated = false;
        enforce_with(&tracer, 1, "aggregate", || {
            evaluated = true;
            Err(InvariantViolation::NoCoverage { positions: 1 })
        });
        assert!(!evaluated, "release builds must not evaluate checks");
    }
}
