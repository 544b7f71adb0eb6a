//! A restarted federation replays the straight one. Each driver (Un and
//! Hy on resident stores, and the registry driver) runs 6 rounds straight
//! through; a second copy runs 3, goes through `checkpoint` → `encode` →
//! `decode` → `restore` into a fresh driver, and that driver runs the last
//! 3. The two traces must canonicalize identically, the two final
//! checkpoints must be equal, and the restored driver records only the
//! rounds it ran. A restore of a checkpoint that does not fit the driver
//! is a typed error that leaves the driver unchanged, and no truncated or
//! bit-flipped image panics decode or restore.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use subfed_core::algorithms::{SubFedAvgHy, SubFedAvgUn};
use subfed_core::checkpoint::{Checkpoint, CheckpointError};
use subfed_core::{FedConfig, Federation, ScaledSubFedAvg};
use subfed_data::{partition_pathological, PartitionConfig, SynthConfig, SynthVision};
use subfed_metrics::trace::{canonicalize, TraceEvent, Tracer, VecSink};
use subfed_nn::models::ModelSpec;
use subfed_pruning::{HybridController, UnstructuredController};

const ROUNDS: usize = 6;

fn federation(spec: ModelSpec, clients: usize, threads: usize, dropout_prob: f32) -> Federation {
    let data = SynthVision::generate(SynthConfig {
        channels: 1,
        height: 16,
        width: 16,
        classes: 4,
        train_per_class: 6 * clients,
        test_per_class: 6,
        noise_std: 0.1,
        shift: 1,
        grid: 4,
        seed: 29,
    });
    let clients = partition_pathological(
        data.train(),
        data.test(),
        &PartitionConfig {
            num_clients: clients,
            shard_size: 12,
            shards_per_client: 2,
            val_fraction: 0.2,
            seed: 29,
        },
    );
    let config = FedConfig {
        rounds: ROUNDS,
        sample_frac: 0.5,
        local_epochs: 2,
        eval_every: 1,
        seed: 29,
        threads,
        dropout_prob,
        ..Default::default()
    };
    Federation::new(spec, clients, config)
}

fn cnn5() -> ModelSpec {
    ModelSpec::cnn5(1, 16, 16, 4)
}

/// The three Sub-FedAvg drivers, as this test drives them.
trait Driver: Sized {
    fn build(fed: Federation) -> Self;
    fn step(&mut self);
    /// Runs the remaining rounds up to the horizon; returns the numbers of
    /// the rounds the driver has recorded (since its restore, if any).
    fn finish(&mut self) -> Vec<usize>;
    fn save(&self) -> Checkpoint;
    fn load(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError>;
}

fn un_controller() -> UnstructuredController {
    let mut c = UnstructuredController::paper_defaults(0.6);
    c.acc_threshold = 0.0;
    c.rate = 0.2;
    c
}

fn hy_controller() -> HybridController {
    let mut c = HybridController::paper_defaults(0.4, 0.6);
    c.acc_threshold = 0.0;
    c.structured_rate = 0.2;
    c.unstructured.rate = 0.2;
    c
}

macro_rules! driver {
    ($ty:ty, $build:expr, |$d:ident| $finish:expr) => {
        impl Driver for $ty {
            fn build(fed: Federation) -> Self {
                $build(fed)
            }
            fn step(&mut self) {
                self.step_round();
            }
            fn finish(&mut self) -> Vec<usize> {
                let $d = self;
                $finish.iter().map(|r| r.round).collect()
            }
            fn save(&self) -> Checkpoint {
                self.checkpoint()
            }
            fn load(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
                self.restore(ckpt)
            }
        }
    };
}

driver!(SubFedAvgUn, |fed| SubFedAvgUn::with_controller(fed, un_controller()), |d| {
    d.resume().records
});
driver!(SubFedAvgHy, |fed| SubFedAvgHy::with_controller(fed, hy_controller()), |d| {
    d.resume().records
});
driver!(ScaledSubFedAvg, |fed| ScaledSubFedAvg::new(fed, un_controller()), |d| d.run().records);

/// A driver recording into its own trace sink.
fn traced<D: Driver>(threads: usize, dropout: f32) -> (D, Arc<VecSink>) {
    let sink = Arc::new(VecSink::new());
    let fed = federation(cnn5(), 8, threads, dropout).with_tracer(Tracer::new(sink.clone()));
    (D::build(fed), sink)
}

#[expect(clippy::expect_used, reason = "a test helper outside any #[test] function")]
fn assert_restart_replays<D: Driver>(threads: usize, dropout: f32) {
    let ctx = format!("{} at {threads} workers, dropout {dropout}", std::any::type_name::<D>());
    let (mut straight, straight_sink) = traced::<D>(threads, dropout);
    assert_eq!(straight.finish(), (1..=ROUNDS).collect::<Vec<_>>(), "{ctx}");
    let (mut first, first_sink) = traced::<D>(threads, dropout);
    for _ in 0..ROUNDS / 2 {
        first.step();
    }
    let image = first.save().encode();
    let ckpt = Checkpoint::decode(&image).expect("a checkpoint decodes");
    assert_eq!(ckpt.round as usize, ROUNDS / 2, "{ctx}");
    let (mut resumed, resumed_sink) = traced::<D>(threads, dropout);
    resumed.load(&ckpt).expect("a checkpoint of the same federation restores");
    // Every client's state and model came back bit for bit, pruned zeros'
    // signs included, not only those the last rounds read.
    assert!(resumed.save() == ckpt, "{ctx}: the restored driver checkpoints differently");
    let recorded = resumed.finish();
    assert_eq!(recorded, (ROUNDS / 2 + 1..=ROUNDS).collect::<Vec<_>>(), "{ctx}");
    let split: Vec<TraceEvent> =
        first_sink.snapshot().into_iter().chain(resumed_sink.snapshot()).collect();
    let straight_events = straight_sink.snapshot();
    assert!(
        canonicalize(&straight_events) == canonicalize(&split),
        "{ctx}: the resumed trace differs from the straight one"
    );
    assert!(straight.save() == resumed.save(), "{ctx}: the final checkpoints differ");
    // The comparison only means something if the restored client states
    // mattered: masks moved after the restore.
    let fired_after = resumed_sink
        .snapshot()
        .iter()
        .filter(|e| matches!(e, TraceEvent::PruneGate { fired: true, .. }))
        .count();
    assert!(fired_after > 0, "{ctx}: no mask moved after the restore");
    if dropout > 0.0 {
        let dropped = straight_events.iter().any(|e| matches!(e, TraceEvent::Dropout { .. }));
        assert!(dropped, "{ctx}: no client dropped");
    }
}

#[test]
fn un_restart_replays_the_straight_run() {
    assert_restart_replays::<SubFedAvgUn>(1, 0.0);
    assert_restart_replays::<SubFedAvgUn>(4, 0.0);
}

#[test]
fn hy_restart_replays_the_straight_run() {
    assert_restart_replays::<SubFedAvgHy>(1, 0.0);
    assert_restart_replays::<SubFedAvgHy>(4, 0.0);
}

#[test]
fn registry_restart_replays_the_straight_run() {
    assert_restart_replays::<ScaledSubFedAvg>(1, 0.0);
    assert_restart_replays::<ScaledSubFedAvg>(4, 0.3);
}

/// A driver of `D` over `spec` with `clients` clients, after one round.
fn run_one_round<D: Driver>(spec: ModelSpec, clients: usize) -> D {
    let mut driver = D::build(federation(spec, clients, 1, 0.0));
    driver.step();
    driver
}

/// Restores `ckpt` into `driver`, which must refuse it with a mismatch of
/// `what` between the checkpoint's `got` and the driver's `want`, and stay
/// exactly as it was.
fn assert_refused<D: Driver>(
    driver: &mut D,
    ckpt: &Checkpoint,
    what: &str,
    got: usize,
    want: usize,
) {
    let before = driver.save();
    let err = driver.load(ckpt).err();
    assert!(
        matches!(&err, Some(CheckpointError::Mismatch { what: w, got: g, want: v })
            if (*w, *g, *v) == (what, got, want)),
        "expected a {what} mismatch of {got} against {want}, got {err:?}"
    );
    assert!(driver.save() == before, "a refused {what} restore changed the driver");
}

#[test]
fn restore_refuses_a_checkpoint_of_another_federation_or_driver() {
    let lenet = ModelSpec::lenet5(1, 16, 16, 4);
    // A CNN-5 checkpoint into a LeNet-5 driver.
    let cnn5_un = run_one_round::<SubFedAvgUn>(cnn5(), 4).save();
    let mut lenet_un = run_one_round::<SubFedAvgUn>(lenet, 4);
    let sizes = (cnn5_un.global.len(), lenet_un.save().global.len());
    assert_ne!(sizes.0, sizes.1);
    assert_refused(&mut lenet_un, &cnn5_un, "model size", sizes.0, sizes.1);
    // One client too many.
    let mut cnn5_un4 = run_one_round::<SubFedAvgUn>(cnn5(), 4);
    let five = run_one_round::<SubFedAvgUn>(cnn5(), 5).save();
    assert_refused(&mut cnn5_un4, &five, "client count", 5, 4);
    // Another registered population.
    let mut registry4 = run_one_round::<ScaledSubFedAvg>(cnn5(), 4);
    let registry5 = run_one_round::<ScaledSubFedAvg>(cnn5(), 5).save();
    assert_refused(&mut registry4, &registry5, "registered population", 5, 4);
    // An Un image (track 1) into a Hy driver (track 2).
    let mut hy = run_one_round::<SubFedAvgHy>(cnn5(), 4);
    assert_refused(&mut hy, &cnn5_un4.save(), "track kind", 1, 2);
    // A registry image (store 2) into a resident driver (store 1).
    assert_refused(&mut cnn5_un4, &registry4.save(), "store kind", 2, 1);
}

/// An encoded checkpoint of a two-client `D` after one round.
fn image<D: Driver>() -> Vec<u8> {
    run_one_round::<D>(cnn5(), 2).save().encode()
}

/// A fresh two-client `D` to restore into.
fn fresh<D: Driver>() -> D {
    D::build(federation(cnn5(), 2, 1, 0.0))
}

/// Every strict prefix of a `D` checkpoint either fails to decode or is
/// refused by the restore; the whole image restores.
#[expect(clippy::expect_used, reason = "a test helper outside any #[test] function")]
fn assert_prefixes_refused<D: Driver>() {
    let image = image::<D>();
    let mut driver = fresh::<D>();
    for cut in 0..image.len() {
        if let Ok(ckpt) = Checkpoint::decode(&image[..cut]) {
            assert!(driver.load(&ckpt).is_err(), "a {cut}-byte prefix of {} restored", image.len());
        }
    }
    let whole = Checkpoint::decode(&image).expect("the whole image decodes");
    driver.load(&whole).expect("the whole image restores");
}

#[test]
fn every_strict_prefix_is_a_typed_error() {
    assert_prefixes_refused::<SubFedAvgUn>();
    assert_prefixes_refused::<SubFedAvgHy>();
    assert_prefixes_refused::<ScaledSubFedAvg>();
}

/// Decodes `bytes` and restores it into a fresh `D`. Either may fail with
/// a typed error; a panic fails the test.
fn decode_and_restore<D: Driver>(bytes: &[u8]) {
    if let Ok(ckpt) = Checkpoint::decode(bytes) {
        let _ = fresh::<D>().load(&ckpt);
    }
}

/// One encoded checkpoint per driver: Un, Hy, registry.
fn images() -> &'static [Vec<u8>; 3] {
    static IMAGES: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    IMAGES.get_or_init(|| {
        [image::<SubFedAvgUn>(), image::<SubFedAvgHy>(), image::<ScaledSubFedAvg>()]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flips one byte of an encoded checkpoint, in its header, in its
    /// client image's header or anywhere, then decodes and restores it.
    fn single_byte_flips_never_panic(
        kind in 0usize..3,
        region in 0usize..3,
        offset in 0usize..1_000_000,
        xor in 1u32..256,
    ) {
        let image = &images()[kind];
        let clients_at = 24 + 4 * u64::from_le_bytes(image[16..24].try_into().unwrap()) as usize;
        let at = match region {
            0 => offset % 24,
            1 => clients_at + offset % 48.min(image.len() - clients_at),
            _ => offset % image.len(),
        };
        let mut flipped = image.clone();
        flipped[at] ^= xor as u8;
        match kind {
            0 => decode_and_restore::<SubFedAvgUn>(&flipped),
            1 => decode_and_restore::<SubFedAvgHy>(&flipped),
            _ => decode_and_restore::<ScaledSubFedAvg>(&flipped),
        }
    }
}
