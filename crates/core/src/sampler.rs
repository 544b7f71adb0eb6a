//! Cohort sampling: the paper's fraction-of-clients knob (`C` in FedAvg,
//! `--frac` in the reference implementation) generalized to registered
//! populations far larger than any round's cohort.
//!
//! The seed engine sampled with a partial Fisher–Yates over *all* client
//! ids, which is O(registered) per round — fine at 100 clients, wasteful at
//! a million. [`UniformSampler`] keeps that exact path (bit-compatible with
//! the historical schedule) when the cohort is a sizable fraction of the
//! population, and switches to rejection sampling — O(cohort) expected —
//! when the cohort is sparse (see `docs/SCALING.md`).

use std::collections::BTreeSet;
use subfed_tensor::init::SeededRng;

/// Round-seed mixing, fixed so schedules stay comparable with traces
/// recorded by older binaries.
fn round_seed(seed: u64, round: usize) -> u64 {
    seed ^ (round as u64).wrapping_mul(0x9E37)
}

/// Uniform sampling without replacement — the paper's setup once
/// `frac < 1`, and the cohort sampler of every federation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UniformSampler;

/// Below this cohort-to-population ratio (as `cohort * DENSE_FACTOR <
/// registered`) the rejection path wins over the O(registered)
/// Fisher–Yates.
const DENSE_FACTOR: usize = 8;

impl UniformSampler {
    /// Returns `cohort` distinct client ids from `0..registered`, sorted
    /// ascending. When `cohort >= registered` every client participates.
    ///
    /// Deterministic in `(seed, round)`: the schedule does not depend on
    /// call order, so different algorithms (or a resumed run) see
    /// identical cohorts.
    pub fn sample(&self, registered: usize, cohort: usize, seed: u64, round: usize) -> Vec<usize> {
        if cohort >= registered {
            return (0..registered).collect();
        }
        let mut rng = SeededRng::new(round_seed(seed, round));
        if cohort.saturating_mul(DENSE_FACTOR) >= registered {
            // Dense cohort: partial Fisher–Yates, identical to the seed
            // engine's schedule so historical runs replay unchanged.
            let mut ids = rng.sample_indices(registered, cohort);
            ids.sort_unstable();
            ids
        } else {
            // Sparse cohort: expected < 1.15 draws per accepted id at the
            // 1/8 density bound, and no O(registered) allocation.
            let mut picked = BTreeSet::new();
            while picked.len() < cohort {
                picked.insert(rng.below(registered));
            }
            picked.into_iter().collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_participation_when_cohort_covers_population() {
        let ids = UniformSampler.sample(5, 9, 42, 1);
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dense_path_matches_seed_engine_schedule() {
        // The historical engine: Fisher–Yates over all ids, then sort.
        let mut rng = SeededRng::new(round_seed(42, 3));
        let mut expect = rng.sample_indices(10, 5);
        expect.sort_unstable();
        assert_eq!(UniformSampler.sample(10, 5, 42, 3), expect);
    }

    #[test]
    fn sparse_path_is_sorted_distinct_and_deterministic() {
        let a = UniformSampler.sample(1_000_000, 100, 7, 12);
        let b = UniformSampler.sample(1_000_000, 100, 7, 12);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(a.iter().all(|&i| i < 1_000_000));
    }

    #[test]
    fn rounds_see_different_cohorts() {
        let a = UniformSampler.sample(1_000_000, 50, 7, 1);
        let b = UniformSampler.sample(1_000_000, 50, 7, 2);
        assert_ne!(a, b);
    }
}
