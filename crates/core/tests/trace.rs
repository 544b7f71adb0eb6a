//! Integration tests of the round-level trace layer: every phase of a
//! Sub-FedAvg round shows up in the event stream, and the stream content
//! (ordering and timings aside) is identical across thread counts — the
//! determinism contract documented in `docs/OBSERVABILITY.md`.

use std::sync::Arc;

use subfed_core::algorithms::{
    FedAvg, FedMtl, FedProx, LgFedAvg, Standalone, SubFedAvgHy, SubFedAvgUn,
};
use subfed_core::{FedConfig, FederatedAlgorithm, Federation};
use subfed_data::{partition_pathological, PartitionConfig, SynthConfig, SynthVision};
use subfed_metrics::trace::{canonicalize, TraceEvent, Tracer, VecSink};
use subfed_nn::models::ModelSpec;
use subfed_pruning::{HybridController, UnstructuredController};

fn federation(rounds: usize, threads: usize, dropout_prob: f32) -> Federation {
    let data = SynthVision::generate(SynthConfig {
        channels: 1,
        height: 16,
        width: 16,
        classes: 4,
        train_per_class: 24,
        test_per_class: 6,
        noise_std: 0.1,
        shift: 1,
        grid: 4,
        seed: 9,
    });
    let clients = partition_pathological(
        data.train(),
        data.test(),
        &PartitionConfig {
            num_clients: 4,
            shard_size: 12,
            shards_per_client: 2,
            val_fraction: 0.2,
            seed: 9,
        },
    );
    Federation::new(
        ModelSpec::cnn5(1, 16, 16, 4),
        clients,
        FedConfig {
            rounds,
            sample_frac: 0.75,
            local_epochs: 2,
            eval_every: 2,
            seed: 9,
            threads,
            dropout_prob,
            ..Default::default()
        },
    )
}

fn traced_un_run(threads: usize, dropout_prob: f32) -> Vec<TraceEvent> {
    let sink = Arc::new(VecSink::new());
    let fed = federation(3, threads, dropout_prob).with_tracer(Tracer::new(sink.clone()));
    let mut controller = UnstructuredController::paper_defaults(0.5);
    controller.acc_threshold = 0.0;
    controller.rate = 0.2;
    let _ = SubFedAvgUn::with_controller(fed, controller).run();
    sink.snapshot()
}

fn hy_controller() -> HybridController {
    let mut controller = HybridController::paper_defaults(0.4, 0.5);
    controller.acc_threshold = 0.0;
    controller.unstructured.acc_threshold = 0.0;
    controller.structured_rate = 0.2;
    controller.unstructured.rate = 0.2;
    controller
}

fn traced_hy_run(rounds: usize, threads: usize) -> Vec<TraceEvent> {
    let sink = Arc::new(VecSink::new());
    let fed = federation(rounds, threads, 0.0).with_tracer(Tracer::new(sink.clone()));
    let _ = SubFedAvgHy::with_controller(fed, hy_controller()).run();
    sink.snapshot()
}

/// Runs the dense baseline `name` (a `subfed run --algo` name) over
/// `federation(rounds, threads, dropout_prob)` and returns the sink
/// holding its trace.
fn traced_baseline(name: &str, rounds: usize, threads: usize, dropout_prob: f32) -> Arc<VecSink> {
    let sink = Arc::new(VecSink::new());
    let fed = federation(rounds, threads, dropout_prob).with_tracer(Tracer::new(sink.clone()));
    let mut algo: Box<dyn FederatedAlgorithm> = match name {
        "standalone" => Box::new(Standalone::new(fed)),
        "fedavg" => Box::new(FedAvg::new(fed)),
        "fedprox" => Box::new(FedProx::new(fed, 0.5)),
        "lg-fedavg" => Box::new(LgFedAvg::new(fed)),
        "mtl" => Box::new(FedMtl::new(fed, 0.1)),
        other => panic!("unknown baseline {other}"),
    };
    let _ = algo.run();
    sink
}

#[test]
fn subfedavg_un_trace_covers_every_phase() {
    let events = traced_un_run(1, 0.0);
    for kind in [
        "round_start",
        "train",
        "prune",
        "prune_gate",
        "encode",
        "decode",
        "download",
        "upload",
        "aggregate",
        "eval",
        "round_end",
    ] {
        assert!(
            events.iter().any(|e| e.kind() == kind),
            "no `{kind}` event in {} traced events",
            events.len()
        );
    }
    // One round_end per round, in order.
    let ends: Vec<usize> =
        events.iter().filter(|e| e.kind() == "round_end").map(|e| e.round()).collect();
    assert_eq!(ends, vec![1, 2, 3]);
    // Every gate decision carries a documented reason tag.
    for e in &events {
        if let TraceEvent::PruneGate { track, reason, .. } = e {
            assert_eq!(track, "un");
            assert!(
                ["pruned", "acc-below-threshold", "target-reached", "mask-stable"]
                    .contains(&reason.as_str()),
                "unknown gate reason {reason:?}"
            );
        }
    }
}

/// Asserts that `run` traces the same canonical content at 1, 3 and 4
/// threads, and returns that content.
fn assert_identical_across_thread_counts(
    algo: &str,
    run: impl Fn(usize) -> Vec<TraceEvent>,
) -> Vec<TraceEvent> {
    let one = canonicalize(&run(1));
    let three = canonicalize(&run(3));
    let four = canonicalize(&run(4));
    assert_eq!(one, three, "{algo}: canonical trace differs between threads=1 and threads=3");
    assert_eq!(one, four, "{algo}: canonical trace differs between threads=1 and threads=4");
    one
}

#[test]
fn trace_content_is_identical_across_thread_counts() {
    assert_identical_across_thread_counts("un", |threads| traced_un_run(threads, 0.0));
    assert_identical_across_thread_counts("hy", |threads| traced_hy_run(3, threads));
    // 80% dropout over four rounds loses one round's whole cohort, so the
    // baselines' empty-round path is pinned too.
    for name in ["standalone", "fedavg", "fedprox", "lg-fedavg", "mtl"] {
        let events = assert_identical_across_thread_counts(name, |threads| {
            traced_baseline(name, 4, threads, 0.8).snapshot()
        });
        let lost = events
            .iter()
            .any(|e| matches!(e, TraceEvent::RoundStart { survivors, .. } if survivors.is_empty()));
        assert!(lost, "{name}: no round lost its whole cohort");
    }
}

#[test]
fn baseline_transfers_are_emitted_in_protocol_order() {
    // In emission (`seq`) order, every client's download precedes its
    // upload, and every upload precedes its round's aggregate.
    for name in ["fedavg", "lg-fedavg", "mtl"] {
        let mut events = traced_baseline(name, 3, 1, 0.0).seq_snapshot();
        events.sort_by_key(|(seq, _)| *seq);
        let misordered = events
            .iter()
            .enumerate()
            .filter(|(k, (_, e))| {
                let TraceEvent::Upload { round, client, .. } = e else { return false };
                let before = &events[..*k];
                let downloaded = before.iter().any(|(_, x)| {
                    matches!(x, TraceEvent::Download { round: r, client: c, .. }
                        if r == round && c == client)
                });
                let aggregated = before.iter().any(
                    |(_, x)| matches!(x, TraceEvent::Aggregate { round: r, .. } if r == round),
                );
                !downloaded || aggregated
            })
            .count();
        assert_eq!(misordered, 0, "{name}: {misordered} uploads out of protocol order");
    }
}

#[test]
fn seq_numbers_are_dense_and_unique_across_worker_threads() {
    // The emission counter is shared across tracer clones, so even with 4
    // worker threads the recorded seqs form exactly {0, 1, …, n-1} — the
    // canonical total order `subfed-lint conform` replays. seq lives in
    // the JSONL envelope, not the event, so canonicalize (asserted above)
    // is untouched by which thread drew which number.
    let sink = Arc::new(VecSink::new());
    let fed = federation(3, 4, 0.0).with_tracer(Tracer::new(sink.clone()));
    let mut controller = UnstructuredController::paper_defaults(0.5);
    controller.acc_threshold = 0.0;
    controller.rate = 0.2;
    let _ = SubFedAvgUn::with_controller(fed, controller).run();
    let mut seqs: Vec<u64> = sink.seq_snapshot().iter().map(|(s, _)| *s).collect();
    let n = seqs.len() as u64;
    assert!(n > 0);
    seqs.sort_unstable();
    assert_eq!(seqs, (0..n).collect::<Vec<_>>(), "seqs are not dense 0..n");
}

#[test]
fn dropout_injection_is_traced() {
    // A high dropout probability guarantees at least one crash in 3
    // rounds of a 3-client cohort (and the run itself stays deterministic,
    // so so does the trace).
    let events = traced_un_run(1, 0.6);
    let dropped: Vec<&TraceEvent> = events.iter().filter(|e| e.kind() == "dropout").collect();
    assert!(!dropped.is_empty(), "no dropout events despite 60% dropout");
    // Every dropout names a sampled non-survivor of its round.
    for e in &dropped {
        let (round, client) = (e.round(), e.client().expect("dropout has a client"));
        let start = events
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::RoundStart { round: r, sampled, survivors, .. } if *r == round => {
                    Some((sampled, survivors))
                }
                _ => None,
            })
            .expect("round_start precedes dropout");
        assert!(start.0.contains(&client));
        assert!(!start.1.contains(&client));
    }
    // A crashed client produces no train event that round.
    for e in &dropped {
        let (round, client) = (e.round(), e.client().unwrap());
        assert!(!events.iter().any(|ev| matches!(ev,
            TraceEvent::ClientTrain { round: r, client: c, .. } if *r == round && *c == client)));
    }
}

#[test]
fn subfedavg_hy_emits_both_gate_tracks() {
    let events = traced_hy_run(2, 1);
    let tracks: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PruneGate { track, .. } => Some(track.as_str()),
            _ => None,
        })
        .collect();
    assert!(tracks.contains(&"channel"), "no structured-track gate event");
    assert!(tracks.contains(&"un"), "no unstructured-track gate event");
    // Hybrid rounds also exercise the wire codec.
    assert!(events.iter().any(|e| e.kind() == "encode"));
    assert!(events.iter().any(|e| e.kind() == "decode"));
}

#[test]
fn disabled_tracer_emits_nothing_and_changes_nothing() {
    // A run with tracing off must be bit-identical to a traced run (the
    // tracer observes; it must never perturb).
    let mut controller = UnstructuredController::paper_defaults(0.5);
    controller.acc_threshold = 0.0;
    controller.rate = 0.2;
    let plain = SubFedAvgUn::with_controller(federation(3, 1, 0.0), controller).run();
    let sink = Arc::new(VecSink::new());
    let traced_fed = federation(3, 1, 0.0).with_tracer(Tracer::new(sink.clone()));
    let traced = SubFedAvgUn::with_controller(traced_fed, controller).run();
    assert_eq!(plain, traced);
    assert!(!sink.snapshot().is_empty());
}
