//! Registry-scale micro-benchmarks: the million-client data structures.
//!
//! Where `micro` measures training kernels, this target measures the
//! *federation scaffolding* that `--num-clients` runs on (see
//! `docs/SCALING.md`): building a [`ClientRegistry`] for 10⁶ clients,
//! a 10⁴-client cohort's first participation and first mask in it,
//! drawing a 10⁴-client cohort with the sparse [`UniformSampler`] path,
//! and folding masked updates through the
//! [`StreamingAccumulator`] / [`OrderedAccumulator`]. No training runs
//! here — the point is that the scaffolding itself stays cheap.
//!
//! ```text
//! cargo bench -p subfed-bench --bench scale             # full
//! cargo bench -p subfed-bench --bench scale -- --test   # CI smoke mode
//! ```
//!
//! Smoke mode shrinks the population so the target doubles as a fast
//! regression test; the full run prints wall-clock medians and the
//! registry's resident size at one million clients.

use std::hint::black_box;
use std::time::Instant;
use subfed_core::{ClientRegistry, OrderedAccumulator, StreamingAccumulator, UniformSampler};
use subfed_metrics::comm::{human_bytes, pack_mask};
use subfed_tensor::init::SeededRng;

/// Paper-scale LeNet-5 parameter count: every structure here is sized
/// against the model, never against the population or the cohort.
const MODEL_PARAMS: usize = 62_000;

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Median wall-clock of `samples` timed calls, printed with a label.
fn timed<R>(label: &str, samples: usize, mut f: impl FnMut() -> R) -> f64 {
    timed_fresh(label, samples, || (), |()| f())
}

/// Median wall-clock of `samples` calls of `f`, each on a fresh `setup()`
/// built before its timing starts and dropped after it ends, printed with
/// a label.
fn timed_fresh<S, R>(
    label: &str,
    samples: usize,
    setup: impl Fn() -> S,
    mut f: impl FnMut(&mut S) -> R,
) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let mut state = setup();
            let t = Instant::now();
            black_box(f(&mut state));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    let median = times[times.len() / 2];
    println!("  {label:<44} {median:>10.3} ms");
    median
}

fn random_mask(rng: &mut SeededRng, density: f32) -> Vec<f32> {
    (0..MODEL_PARAMS).map(|_| if rng.uniform_f32(0.0, 1.0) < density { 1.0 } else { 0.0 }).collect()
}

fn main() {
    let (registered, cohort, samples) =
        if smoke_mode() { (100_000, 1_000, 3) } else { (1_000_000, 10_000, 5) };
    println!("-- registry scale: {registered} registered, cohort {cohort} --");

    // Registry construction allocates nothing at any population: the
    // registry holds records only for clients that have participated or
    // stored a mask, and every other client reads as implicit (all-ones).
    let mut registry = ClientRegistry::new(registered, MODEL_PARAMS);
    timed("registry_build", samples, || {
        registry = ClientRegistry::new(registered, MODEL_PARAMS);
    });
    println!("  registry resident (no masks yet): {}", human_bytes(registry.memory_bytes() as u64));

    // A cohort of fresh ids spread over the population, each noting its
    // first participation and storing its first mask: one table entry
    // and one arena slot apiece, on a fresh registry each sample.
    let mut rng = SeededRng::new(7);
    let mask = random_mask(&mut rng, 0.5);
    let packed = pack_mask(&mask);
    let kept = mask.iter().filter(|&&m| m == 1.0).count();
    let fresh = UniformSampler.sample(registered, cohort, 5, 1);
    timed_fresh(
        "registry_first_touch_cohort",
        samples,
        || ClientRegistry::new(registered, MODEL_PARAMS),
        |registry| {
            for &id in &fresh {
                registry.note_participation(id);
                registry.set_mask_packed(id, &packed, kept);
            }
        },
    );

    // Write explicit masks for one cohort's worth of clients — the only
    // clients that ever cost arena space.
    timed("registry_write_cohort_masks", samples, || {
        for id in 0..cohort {
            registry.set_mask_packed(id, &packed, kept);
        }
    });
    println!(
        "  registry resident ({} explicit masks): {}",
        registry.allocated_masks(),
        human_bytes(registry.memory_bytes() as u64)
    );
    timed("registry_read_cohort_masks", samples, || {
        (0..cohort).map(|id| registry.mask_flat(id).len()).sum::<usize>()
    });

    // Cohort draw: cohort ≪ population exercises the sparse rejection
    // path; the dense partial-shuffle path is covered by `micro`-scale
    // populations in the unit tests.
    let sampler = UniformSampler;
    timed("sample_cohort_sparse", samples, || sampler.sample(registered, cohort, 11, 3).len());

    // Streaming fold: a cohort of masked updates lands in O(model)
    // accumulator memory no matter how many uploads arrive.
    let updates: Vec<(Vec<f32>, Vec<f32>)> = (0..32)
        .map(|_| {
            let mask = random_mask(&mut rng, 0.5);
            let params: Vec<f32> = (0..MODEL_PARAMS).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
            (params, mask)
        })
        .collect();
    let global: Vec<f32> = (0..MODEL_PARAMS).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
    timed("streaming_fold_32_updates", samples, || {
        let mut acc = StreamingAccumulator::new(MODEL_PARAMS);
        for (params, mask) in &updates {
            acc.fold(params, mask).expect("bench updates match the model");
        }
        acc.finish(&global).len()
    });
    // The turnstile costs one clone per upload (folds take ownership so
    // early arrivals can park without copying under the lock) — the
    // price of a bit-identical aggregate at any worker count.
    timed("ordered_fold_32_updates", samples, || {
        let acc = OrderedAccumulator::new(MODEL_PARAMS, 8);
        for (slot, (params, mask)) in updates.iter().enumerate() {
            acc.fold(slot, params.clone(), mask.clone()).expect("bench slots fold once");
        }
        acc.into_streaming().finish(&global).len()
    });
    let acc = StreamingAccumulator::new(MODEL_PARAMS);
    println!(
        "  accumulator resident (any cohort size): {}",
        human_bytes(acc.memory_bytes() as u64)
    );
}
