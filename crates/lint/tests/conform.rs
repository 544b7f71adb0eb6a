//! Conformance corpus: golden traces from real Sub-FedAvg runs must
//! replay cleanly through the protocol spec, and each mutated trace must
//! be rejected with the *specific* violation naming the offending
//! round/client/event — the acceptance gate of `subfed-lint conform`.
//!
//! Mutations are applied to the parsed event list and re-serialized with
//! fresh sequence numbers where the JSONL path is exercised: textually
//! reordering lines would be silently undone by the verifier's
//! sort-by-`seq`.

use std::io::Cursor;
use std::sync::Arc;

use subfed_core::algorithms::{SubFedAvgHy, SubFedAvgUn};
use subfed_core::{FedConfig, FederatedAlgorithm, Federation};
use subfed_data::{partition_pathological, PartitionConfig, SynthConfig, SynthVision};
use subfed_lint::conform::{verify_events, verify_reader};
use subfed_metrics::trace::{TraceEvent, Tracer, VecSink};
use subfed_nn::models::ModelSpec;
use subfed_pruning::{HybridController, UnstructuredController};

fn federation(rounds: usize, dropout_prob: f32) -> Federation {
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
            threads: 1,
            dropout_prob,
            ..Default::default()
        },
    )
}

/// A clean 3-round unstructured (Algorithm 1) trace.
fn golden_un(dropout_prob: f32) -> Vec<TraceEvent> {
    let sink = Arc::new(VecSink::new());
    let fed = federation(3, dropout_prob).with_tracer(Tracer::new(sink.clone()));
    let mut controller = UnstructuredController::paper_defaults(0.5);
    controller.acc_threshold = 0.0;
    controller.rate = 0.2;
    let _ = SubFedAvgUn::with_controller(fed, controller).run();
    sink.snapshot()
}

/// A clean 3-round hybrid (Algorithm 2) trace.
fn golden_hy() -> Vec<TraceEvent> {
    let sink = Arc::new(VecSink::new());
    let fed = federation(3, 0.0).with_tracer(Tracer::new(sink.clone()));
    let mut controller = HybridController::paper_defaults(0.4, 0.5);
    controller.acc_threshold = 0.0;
    controller.unstructured.acc_threshold = 0.0;
    controller.structured_rate = 0.2;
    controller.unstructured.rate = 0.2;
    let _ = SubFedAvgHy::with_controller(fed, controller).run();
    sink.snapshot()
}

/// Serializes events as a JSONL trace with fresh dense seqs `0..n`.
fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut s = String::new();
    for (i, e) in events.iter().enumerate() {
        s.push_str(&e.to_json_seq(i as u64));
        s.push('\n');
    }
    s
}

#[test]
fn golden_un_trace_conforms() {
    let events = golden_un(0.0);
    let report = verify_events(&events);
    assert!(
        report.violations.is_empty(),
        "golden Un trace rejected:\n{}",
        report.violations.iter().map(|v| v.render()).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(report.exit_code(), 0);
    assert_eq!(report.rounds, 3);
}

#[test]
fn golden_hy_trace_conforms() {
    let events = golden_hy();
    let report = verify_events(&events);
    assert!(
        report.violations.is_empty(),
        "golden Hy trace rejected:\n{}",
        report.violations.iter().map(|v| v.render()).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(report.rounds, 3);
    // Both gate tracks really were replayed.
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::PruneGate { track, .. } if track == "channel")));
}

#[test]
fn golden_trace_with_dropouts_conforms() {
    // Crash-injected clients must not trip the verifier: every skipped
    // client carries a dropout record with a reason.
    let events = golden_un(0.6);
    assert!(events.iter().any(|e| e.kind() == "dropout"), "no dropouts at 60%");
    let report = verify_events(&events);
    assert!(
        report.violations.is_empty(),
        "dropout trace rejected:\n{}",
        report.violations.iter().map(|v| v.render()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn golden_jsonl_replays_clean_even_with_shuffled_lines() {
    let events = golden_un(0.0);
    let jsonl = to_jsonl(&events);
    let clean = verify_reader(Cursor::new(jsonl.as_bytes()));
    assert!(clean.is_clean(), "{:?}", (clean.violations, clean.parse_errors));

    // File order is arrival order, not emission order: reverse every line
    // and the verifier must still replay by seq and accept.
    let reversed: String = jsonl.lines().rev().map(|l| format!("{l}\n")).collect();
    let report = verify_reader(Cursor::new(reversed.as_bytes()));
    assert!(
        report.is_clean(),
        "seq ordering not honoured:\n{}",
        report.violations.iter().map(|v| v.render()).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(report.rounds, 3);
}

#[test]
fn mutation_dropped_decode_is_rejected() {
    let mut events = golden_un(0.0);
    let at = events.iter().position(|e| e.kind() == "decode").expect("a decode event");
    let client = events[at].client();
    events.remove(at);
    let report = verify_events(&events);
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == "phase-order")
        .unwrap_or_else(|| panic!("no phase-order violation: {:?}", report.violations));
    assert_eq!(v.event, "upload");
    assert_eq!(v.client, client, "violation must name the client whose decode vanished");
    assert_eq!(report.exit_code(), 1);
}

#[test]
fn mutation_regrown_mask_density_is_rejected() {
    let mut events = golden_un(0.0);
    // Find a (client, track) whose pruned fraction grew between two
    // gates, then rewrite the later gate to report a lower fraction — a
    // regrown mask, which Sub-FedAvg forbids.
    let mut target: Option<(usize, usize, f32)> = None; // (event idx, client, earlier fraction)
    let mut seen: Vec<(usize, String, f32)> = Vec::new();
    for (idx, e) in events.iter().enumerate() {
        if let TraceEvent::PruneGate { client, track, pruned_fraction, .. } = e {
            let prev = seen.iter().rev().find(|(c, t, _)| c == client && t == track);
            if let Some(&(_, _, prev)) = prev {
                if *pruned_fraction > prev {
                    target = Some((idx, *client, prev));
                }
            }
            seen.push((*client, track.clone(), *pruned_fraction));
        }
    }
    let (idx, client, prev) = target.expect("a gate with a grown fraction (pruning fired)");
    if let TraceEvent::PruneGate { pruned_fraction, .. } = &mut events[idx] {
        *pruned_fraction = (prev - 0.1).max(0.0);
    }
    let report = verify_events(&events);
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == "density-regrow")
        .unwrap_or_else(|| panic!("no density-regrow violation: {:?}", report.violations));
    assert_eq!(v.client, Some(client));
    assert_eq!(v.event, "prune_gate");
}

#[test]
fn mutation_upload_after_aggregate_is_rejected() {
    let mut events = golden_un(0.0);
    let agg = events
        .iter()
        .position(|e| e.kind() == "aggregate" && e.round() == 2)
        .expect("round-2 aggregate");
    let upl = events[..agg]
        .iter()
        .rposition(|e| e.kind() == "upload" && e.round() == 2)
        .expect("round-2 upload");
    let moved = events.remove(upl);
    let client = moved.client();
    events.insert(agg, moved); // now sits just after the aggregate
    let report = verify_events(&events);
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == "client-event-after-aggregate")
        .unwrap_or_else(|| panic!("no after-aggregate violation: {:?}", report.violations));
    assert_eq!(v.round, 2);
    assert_eq!(v.client, client);
    assert_eq!(v.event, "upload");
    // The aggregate itself is also flagged: it averaged without this
    // client's update.
    assert!(
        report.violations.iter().any(|v| v.rule == "aggregate-incomplete" && v.round == 2),
        "{:?}",
        report.violations
    );
}

#[test]
fn golden_traces_carry_flop_accounting() {
    // The FLOP predicates are only exercised when dense_flops > 0; the
    // engine must actually record the accounting, or the two mutation
    // tests below are vacuous.
    for events in [golden_un(0.0), golden_hy()] {
        assert!(
            events.iter().any(
                |e| matches!(e, TraceEvent::ClientTrain { dense_flops, .. } if *dense_flops > 0)
            ),
            "golden trace has no FLOP accounting"
        );
    }
}

#[test]
fn mutation_effective_flops_above_dense_is_rejected() {
    let mut events = golden_un(0.0);
    let at = events
        .iter()
        .position(|e| matches!(e, TraceEvent::ClientTrain { dense_flops, .. } if *dense_flops > 0))
        .expect("a train event with FLOP accounting");
    let (round, client) = (events[at].round(), events[at].client());
    if let TraceEvent::ClientTrain { effective_flops, dense_flops, .. } = &mut events[at] {
        *effective_flops = *dense_flops + 1;
    }
    let report = verify_events(&events);
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == "train-flops")
        .unwrap_or_else(|| panic!("no train-flops violation: {:?}", report.violations));
    assert_eq!(v.round, round);
    assert_eq!(v.client, client);
    assert_eq!(v.event, "train");
    assert_eq!(report.exit_code(), 1);
}

#[test]
fn mutation_regrown_effective_flops_is_rejected() {
    let mut events = golden_un(0.0);
    // Two FLOP-accounted trains of the same client in different rounds;
    // lower the earlier one so the later (unchanged) one reads as a rise.
    // Effective FLOPs stay below dense, so only `flops-regrow` may fire.
    let trains: Vec<(usize, usize, Option<usize>)> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            TraceEvent::ClientTrain { dense_flops, .. } if *dense_flops > 0 => {
                Some((i, e.round(), e.client()))
            }
            _ => None,
        })
        .collect();
    let (earlier, later) = trains
        .iter()
        .find_map(|&(i, r, c)| {
            trains.iter().find(|&&(j, r2, c2)| c2 == c && r2 > r && j > i).map(|&(j, ..)| (i, j))
        })
        .expect("a client trained in two FLOP-accounted rounds");
    let (round, client) = (events[later].round(), events[later].client());
    let later_flops = match &events[later] {
        TraceEvent::ClientTrain { effective_flops, .. } => *effective_flops,
        _ => unreachable!("`later` indexes a ClientTrain"),
    };
    if let TraceEvent::ClientTrain { effective_flops, .. } = &mut events[earlier] {
        *effective_flops = later_flops.saturating_sub(1);
    }
    let report = verify_events(&events);
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == "flops-regrow")
        .unwrap_or_else(|| panic!("no flops-regrow violation: {:?}", report.violations));
    assert_eq!(v.round, round);
    assert_eq!(v.client, client);
    assert_eq!(v.event, "train");
    assert!(report.violations.iter().all(|v| v.rule != "train-flops"), "{:?}", report.violations);
    assert_eq!(report.exit_code(), 1);
}

#[test]
fn mutation_duplicate_round_start_is_rejected() {
    let mut events = golden_un(0.0);
    let rs2 = events
        .iter()
        .position(|e| e.kind() == "round_start" && e.round() == 2)
        .expect("round-2 start");
    let dup = events[rs2].clone();
    events.insert(rs2 + 1, dup);
    let report = verify_events(&events);
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == "round-overlap")
        .unwrap_or_else(|| panic!("no round-overlap violation: {:?}", report.violations));
    assert_eq!(v.round, 2);
    assert_eq!(v.event, "round_start");
}

#[test]
fn mutated_jsonl_is_rejected_through_the_file_path_with_line_numbers() {
    // The end-to-end CLI shape: mutate the event list, re-serialize with
    // fresh seqs (NOT by shuffling lines), and replay through the reader.
    let mut events = golden_un(0.0);
    let at = events.iter().position(|e| e.kind() == "decode").expect("a decode event");
    events.remove(at);
    let jsonl = to_jsonl(&events);
    let report = verify_reader(Cursor::new(jsonl.as_bytes()));
    assert_eq!(report.exit_code(), 1);
    let v =
        report.violations.iter().find(|v| v.rule == "phase-order").expect("phase-order violation");
    assert!(v.line.is_some(), "file replay must carry the offending line");
    let rendered = v.render();
    assert!(rendered.contains("upload"), "{rendered}");
    assert!(rendered.contains("line"), "{rendered}");
}

/// A clean 3-round trace from the registry-scale engine: 300 registered
/// clients, sampled cohorts, streaming aggregation (`docs/SCALING.md`).
fn golden_sampled_cohort() -> Vec<TraceEvent> {
    use subfed_core::ScaledSubFedAvg;
    use subfed_data::{SynthClientProvider, SynthProviderConfig};

    let sink = Arc::new(VecSink::new());
    let synth = SynthVision::generate(SynthConfig {
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
    let provider = SynthClientProvider::new(
        synth,
        SynthProviderConfig {
            num_clients: 300,
            labels_per_client: 2,
            train_per_label: 6,
            val_per_label: 3,
            test_per_label: 3,
            seed: 9,
        },
    );
    let fed = Federation::from_provider(
        ModelSpec::cnn5(1, 16, 16, 4),
        Arc::new(provider),
        FedConfig {
            rounds: 3,
            sample_frac: 0.02,
            local_epochs: 1,
            eval_every: 2,
            seed: 9,
            threads: 1,
            ..Default::default()
        },
    )
    .with_tracer(Tracer::new(sink.clone()));
    let mut controller = UnstructuredController::paper_defaults(0.5);
    controller.acc_threshold = 0.0;
    controller.rate = 0.2;
    let _ = ScaledSubFedAvg::new(fed, controller).run();
    sink.snapshot()
}

#[test]
fn golden_sampled_cohort_trace_conforms() {
    let events = golden_sampled_cohort();
    // The registry fields really are recorded — otherwise the cohort
    // predicates never fire and the mutation test below is vacuous.
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::RoundStart { registered: 300, cohort_size, .. } if *cohort_size > 0
        )),
        "sampled-cohort trace carries no registry accounting"
    );
    let report = verify_events(&events);
    assert!(
        report.violations.is_empty(),
        "golden sampled-cohort trace rejected:\n{}",
        report.violations.iter().map(|v| v.render()).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(report.exit_code(), 0);
    assert_eq!(report.rounds, 3);

    // And through the JSONL file path, as `subfed-lint conform` sees it.
    let report = verify_reader(Cursor::new(to_jsonl(&events).as_bytes()));
    assert!(report.is_clean(), "{:?}", (report.violations, report.parse_errors));
}

#[test]
fn mutation_wrong_cohort_count_is_rejected() {
    let mut events = golden_sampled_cohort();
    let at = events
        .iter()
        .position(|e| e.kind() == "round_start" && e.round() == 2)
        .expect("round-2 start");
    if let TraceEvent::RoundStart { cohort_size, .. } = &mut events[at] {
        *cohort_size += 1; // claims one more client than was sampled
    }
    let report = verify_events(&events);
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == "cohort-size")
        .unwrap_or_else(|| panic!("no cohort-size violation: {:?}", report.violations));
    assert_eq!(v.round, 2);
    assert_eq!(v.event, "round_start");
    assert_eq!(report.exit_code(), 1);
}

#[test]
fn mutation_sampled_id_outside_registry_is_rejected() {
    let mut events = golden_sampled_cohort();
    let at = events
        .iter()
        .position(|e| e.kind() == "round_start" && e.round() == 1)
        .expect("round-1 start");
    if let TraceEvent::RoundStart { sampled, cohort_size, registered, .. } = &mut events[at] {
        sampled.push(*registered); // first id past the registry
        *cohort_size = sampled.len();
    }
    let report = verify_events(&events);
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == "cohort-bounds")
        .unwrap_or_else(|| panic!("no cohort-bounds violation: {:?}", report.violations));
    assert_eq!(v.round, 1);
    assert_eq!(v.event, "round_start");
}
