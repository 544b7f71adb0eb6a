//! The two client-state stores run the same Algorithm 1: `SubFedAvgUn`
//! (resident per-client masks and models) and `ScaledSubFedAvg` (masks in
//! a `ClientRegistry`) over one materialized federation must agree after
//! every round on the global model, every client's mask and the
//! cumulative bytes — at any worker count on either side, and under
//! partial participation with dropout.

use std::sync::Arc;

use subfed_core::algorithms::SubFedAvgUn;
use subfed_core::{flatten_mask, FedConfig, Federation, ScaledSubFedAvg};
use subfed_data::{partition_pathological, PartitionConfig, SynthConfig, SynthVision};
use subfed_metrics::trace::{model_hash, TraceEvent, Tracer, VecSink};
use subfed_nn::models::ModelSpec;
use subfed_pruning::UnstructuredController;

const CLIENTS: usize = 8;
const ROUNDS: usize = 6;

fn federation(threads: usize, sample_frac: f32, dropout_prob: f32) -> Federation {
    let data = SynthVision::generate(SynthConfig {
        channels: 1,
        height: 16,
        width: 16,
        classes: 4,
        train_per_class: 48,
        test_per_class: 6,
        noise_std: 0.1,
        shift: 1,
        grid: 4,
        seed: 23,
    });
    let clients = partition_pathological(
        data.train(),
        data.test(),
        &PartitionConfig {
            num_clients: CLIENTS,
            shard_size: 12,
            shards_per_client: 2,
            val_fraction: 0.2,
            seed: 23,
        },
    );
    Federation::new(
        ModelSpec::cnn5(1, 16, 16, 4),
        clients,
        FedConfig {
            rounds: ROUNDS,
            sample_frac,
            local_epochs: 2,
            eval_every: 2,
            seed: 23,
            threads,
            dropout_prob,
            ..Default::default()
        },
    )
}

/// `cum_bytes` of the last `round_end` a sink recorded.
#[expect(clippy::expect_used, reason = "a test helper outside any #[test] function")]
fn last_cum_bytes(sink: &VecSink) -> u64 {
    sink.snapshot()
        .iter()
        .rev()
        .find_map(|e| match e {
            TraceEvent::RoundEnd { cum_bytes, .. } => Some(*cum_bytes),
            _ => None,
        })
        .expect("a round closed")
}

/// Steps both drivers round by round and compares them after each one.
/// Returns how many client-rounds advanced a mask.
fn assert_stores_agree(
    un_threads: usize,
    scaled_threads: usize,
    sample_frac: f32,
    dropout: f32,
) -> usize {
    let mut controller = UnstructuredController::paper_defaults(0.6);
    controller.acc_threshold = 0.0;
    controller.rate = 0.2;
    let un_sink = Arc::new(VecSink::new());
    let scaled_sink = Arc::new(VecSink::new());
    let mut un = SubFedAvgUn::with_controller(
        federation(un_threads, sample_frac, dropout).with_tracer(Tracer::new(un_sink.clone())),
        controller,
    );
    let mut scaled = ScaledSubFedAvg::new(
        federation(scaled_threads, sample_frac, dropout)
            .with_tracer(Tracer::new(scaled_sink.clone())),
        controller,
    );
    let ctx = format!("workers {un_threads}/{scaled_threads}, frac {sample_frac}, drop {dropout}");
    for round in 1..=ROUNDS {
        un.step_round();
        scaled.step_round();
        assert_eq!(
            model_hash(&un.checkpoint().global),
            model_hash(scaled.global()),
            "{ctx}: global diverged at round {round}"
        );
        for (id, mask) in un.final_masks().iter().enumerate() {
            assert_eq!(
                flatten_mask(mask),
                scaled.registry().mask_flat(id),
                "{ctx}: client {id} mask diverged at round {round}"
            );
        }
        let bytes = last_cum_bytes(&scaled_sink);
        assert_eq!(last_cum_bytes(&un_sink), bytes, "{ctx}: bytes diverged at round {round}");
        assert_eq!(scaled.records().last().map(|r| r.cum_bytes), Some(bytes));
    }
    un_sink
        .snapshot()
        .iter()
        .filter(|e| matches!(e, TraceEvent::PruneGate { fired: true, .. }))
        .count()
}

#[test]
fn resident_and_registry_stores_agree_round_by_round() {
    for (un_threads, scaled_threads, frac, dropout) in
        [(1, 1, 1.0, 0.0), (1, 3, 1.0, 0.0), (2, 1, 1.0, 0.0), (1, 1, 0.75, 0.3)]
    {
        let fired = assert_stores_agree(un_threads, scaled_threads, frac, dropout);
        // The comparison only means something if masks actually moved.
        assert!(fired >= 10, "only {fired} client-rounds pruned");
    }
}
