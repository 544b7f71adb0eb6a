//! Command execution: builds the federation, runs the algorithm, renders
//! the report.

use std::sync::Arc;

use crate::args::{usage, AlgoKind, Command, InfoSpec, RunSpec};
use subfed_core::algorithms::{
    FedAvg, FedMtl, FedProx, LgFedAvg, Standalone, SubFedAvgHy, SubFedAvgUn,
};
use subfed_core::presets::DatasetKind;
use subfed_core::{FederatedAlgorithm, Federation, ScaledSubFedAvg};
use subfed_data::stats::{label_histogram, mean_labels_per_client};
use subfed_data::{SynthClientProvider, SynthProviderConfig, SynthVision};
use subfed_metrics::comm::human_bytes;
use subfed_metrics::report::Table;
use subfed_metrics::trace::{JsonlSink, Sink, TraceSummary, Tracer, VecSink};
use subfed_pruning::{HybridController, UnstructuredController};

fn build_algorithm(spec: &RunSpec, fed: Federation) -> Box<dyn FederatedAlgorithm> {
    match spec.algo {
        AlgoKind::Standalone => Box::new(Standalone::new(fed)),
        AlgoKind::FedAvg => Box::new(FedAvg::new(fed)),
        AlgoKind::FedProx => Box::new(FedProx::new(fed, spec.mu)),
        AlgoKind::LgFedAvg => Box::new(LgFedAvg::new(fed)),
        AlgoKind::Mtl => Box::new(FedMtl::new(fed, spec.coupling)),
        AlgoKind::SubFedAvgUn => {
            let mut c = UnstructuredController::paper_defaults(spec.target);
            c.rate = spec.rate;
            c.acc_threshold = 0.3;
            Box::new(SubFedAvgUn::with_controller(fed, c))
        }
        AlgoKind::SubFedAvgHy => {
            let mut c = HybridController::paper_defaults(spec.structured_target, spec.target);
            c.structured_rate = spec.rate;
            c.unstructured.rate = spec.rate;
            c.acc_threshold = 0.3;
            c.unstructured.acc_threshold = 0.3;
            Box::new(SubFedAvgHy::with_controller(fed, c))
        }
    }
}

/// The telemetry stack of a run: the tracer plus its optional sinks (a
/// JSONL file, an in-memory buffer feeding the end-of-run summary).
type TracerStack = (Tracer, Option<Arc<JsonlSink>>, Option<Arc<VecSink>>);

/// Builds the tracer stack shared by both run paths.
fn build_tracer(spec: &RunSpec) -> Result<TracerStack, String> {
    let jsonl: Option<Arc<JsonlSink>> = match &spec.trace {
        Some(path) => Some(Arc::new(
            JsonlSink::create(path).map_err(|e| format!("cannot write {path}: {e}"))?,
        )),
        None => None,
    };
    let summary_sink: Option<Arc<VecSink>> = spec.trace_summary.then(|| Arc::new(VecSink::new()));
    let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
    if let Some(s) = &jsonl {
        sinks.push(s.clone());
    }
    if let Some(s) = &summary_sink {
        sinks.push(s.clone());
    }
    Ok((Tracer::multi(sinks), jsonl, summary_sink))
}

/// The registry-scale path (`--num-clients`): an on-demand client
/// provider, a [`subfed_core::ClientRegistry`], sampled cohorts, and
/// streaming aggregation. See `docs/SCALING.md`.
fn execute_scaled_run(spec: &RunSpec, registered: usize) -> Result<String, String> {
    if spec.algo != AlgoKind::SubFedAvgUn {
        return Err("--num-clients drives the streaming Sub-FedAvg engine: \
                    use --algo sub-fedavg-un"
            .to_string());
    }
    if spec.csv.is_some() {
        return Err("--csv is not supported on the --num-clients path yet".to_string());
    }
    if registered == 0 {
        return Err("--num-clients must be positive".to_string());
    }
    let seed = spec.config.seed;
    let synth = match spec.dataset {
        DatasetKind::Mnist => SynthVision::mnist_like(seed, 1),
        DatasetKind::Emnist => SynthVision::emnist_like(seed, 1),
        DatasetKind::Cifar10 => SynthVision::cifar10_like(seed, 1),
        DatasetKind::Cifar100 => SynthVision::cifar100_like(seed, 1, 20),
    };
    let provider = SynthClientProvider::new(
        synth,
        SynthProviderConfig {
            num_clients: registered,
            labels_per_client: 2,
            train_per_label: 6,
            val_per_label: 3,
            test_per_label: 3,
            seed,
        },
    );
    let (tracer, jsonl, summary_sink) = build_tracer(spec)?;
    let fed = Federation::from_provider(spec.dataset.spec(), Arc::new(provider), spec.config)
        .with_tracer(tracer);
    let tracer = fed.tracer().clone();
    let mut controller = UnstructuredController::paper_defaults(spec.target);
    controller.rate = spec.rate;
    controller.acc_threshold = 0.3;
    let mut driver = ScaledSubFedAvg::new(fed, controller);
    let summary = driver.run();
    tracer.flush();
    if let (Some(sink), Some(path)) = (&jsonl, &spec.trace) {
        if let Some(e) = sink.take_error() {
            return Err(format!("cannot write {path}: {e}"));
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "Sub-FedAvg (Un, streaming) on {} — {} registered clients, \
         cohort {} ({} rounds)\n\n",
        spec.dataset.label(),
        summary.registered,
        spec.config.clients_per_round(summary.registered),
        spec.config.rounds,
    ));
    let mut table = Table::new(
        "round history",
        &["round", "cohort", "survivors", "val acc", "test acc", "comm", "agg mem"],
    );
    for r in &summary.records {
        table.row(&[
            r.round.to_string(),
            r.cohort.to_string(),
            r.survivors.to_string(),
            format!("{:.1}%", 100.0 * r.avg_val_acc),
            r.avg_test_acc.map_or_else(|| "—".to_string(), |a| format!("{:.1}%", 100.0 * a)),
            human_bytes(r.cum_bytes),
            human_bytes(r.agg_memory_bytes as u64),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nfinal: cohort val accuracy {:.1}%{}, total communication {}\n",
        100.0 * summary.final_avg_val_acc,
        summary
            .final_avg_test_acc
            .map_or_else(String::new, |a| format!(", cohort test accuracy {:.1}%", 100.0 * a)),
        human_bytes(summary.cum_bytes),
    ));
    out.push_str(&format!(
        "registry: {} of {} clients hold explicit masks, {} resident \
         (server aggregation memory stays O(model): {})\n",
        summary.allocated_masks,
        summary.registered,
        human_bytes(summary.registry_memory_bytes as u64),
        human_bytes(summary.records.iter().map(|r| r.agg_memory_bytes).max().unwrap_or(0) as u64),
    ));
    if let Some(sink) = &summary_sink {
        out.push('\n');
        out.push_str(&TraceSummary::from_events(&sink.snapshot()).render());
    }
    if let Some(path) = &spec.trace {
        out.push_str(&format!("trace written to {path}\n"));
    }
    Ok(out)
}

fn execute_run(spec: &RunSpec) -> Result<String, String> {
    if let Some(registered) = spec.num_clients {
        return execute_scaled_run(spec, registered);
    }
    let clients = spec.dataset.clients_with(spec.clients, spec.config.seed, spec.partition);
    // Optional telemetry: a JSONL file sink, an in-memory sink feeding the
    // end-of-run summary, or both.
    let (tracer, jsonl, summary_sink) = build_tracer(spec)?;
    let fed = Federation::new(spec.dataset.spec(), clients, spec.config).with_tracer(tracer);
    let tracer = fed.tracer().clone();
    let mut algo = build_algorithm(spec, fed);
    let name = algo.name();
    let history = algo.run();
    tracer.flush();
    if let (Some(sink), Some(path)) = (&jsonl, &spec.trace) {
        if let Some(e) = sink.take_error() {
            return Err(format!("cannot write {path}: {e}"));
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{name} on {} — {} clients, {} rounds\n\n",
        spec.dataset.label(),
        spec.clients,
        spec.config.rounds
    ));
    let mut table = Table::new("round history", &["round", "accuracy", "sparsity", "comm"]);
    for r in &history.records {
        if let Some(acc) = r.avg_acc {
            table.row(&[
                r.round.to_string(),
                format!("{:.1}%", 100.0 * acc),
                format!("{:.0}%", 100.0 * r.avg_pruned_params),
                human_bytes(r.cum_bytes),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nfinal: accuracy {:.1}%, sparsity {:.0}%, total communication {}\n",
        100.0 * history.final_avg_acc(),
        100.0 * history.final_pruned_params(),
        human_bytes(history.total_bytes()),
    ));
    if let Some(sink) = &summary_sink {
        out.push('\n');
        out.push_str(&TraceSummary::from_events(&sink.snapshot()).render());
    }
    if let Some(path) = &spec.csv {
        std::fs::write(path, history.to_csv()).map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!("history written to {path}\n"));
    }
    if let Some(path) = &spec.trace {
        out.push_str(&format!("trace written to {path}\n"));
    }
    Ok(out)
}

fn execute_info(spec: &InfoSpec) -> Result<String, String> {
    let clients = spec.dataset.clients(spec.clients, spec.seed);
    let classes = spec.dataset.classes();
    let mut out = format!(
        "{} — pathological partition, {} clients (seed {})\n\n",
        spec.dataset.label(),
        spec.clients,
        spec.seed
    );
    let mut table =
        Table::new("clients", &["client", "train", "val", "test", "labels", "histogram"]);
    for c in &clients {
        let hist = label_histogram(c, classes);
        let hist_str: Vec<String> = hist
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(l, n)| format!("{l}:{n}"))
            .collect();
        table.row(&[
            c.id.to_string(),
            c.train.len().to_string(),
            c.val.len().to_string(),
            c.test.len().to_string(),
            format!("{:?}", c.labels),
            hist_str.join(" "),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nmean labels per client: {:.2} (pathological non-IID targets ~2)\n",
        mean_labels_per_client(&clients)
    ));
    Ok(out)
}

/// Executes a parsed command, returning the text to print.
///
/// # Errors
///
/// Returns a message when the run configuration is unusable or output
/// files cannot be written.
pub fn execute(cmd: &Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(usage()),
        Command::Run(spec) => execute_run(spec),
        Command::Info(spec) => execute_info(spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;
    use subfed_core::presets::DatasetKind;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn quick_run(extra: &str) -> String {
        let args = argv(&format!("run --rounds 2 --clients 4 --epochs 1 --seed 3 {extra}"));
        let cmd = parse_args(&args).unwrap();
        execute(&cmd).unwrap()
    }

    #[test]
    fn help_prints_usage() {
        let out = execute(&Command::Help).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn run_every_algorithm_end_to_end() {
        for algo in ["standalone", "fedavg", "fedprox", "lg-fedavg", "mtl", "un", "hy"] {
            let out = quick_run(&format!("--algo {algo}"));
            assert!(out.contains("final: accuracy"), "{algo}: {out}");
        }
    }

    #[test]
    fn run_writes_csv() {
        let path = std::env::temp_dir().join("subfed_cli_test.csv");
        let path_str = path.to_str().unwrap().to_string();
        let out = quick_run(&format!("--csv {path_str}"));
        assert!(out.contains("history written"));
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("round,avg_acc"));
        assert_eq!(csv.lines().count(), 3); // header + 2 rounds
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_rejects_unwritable_csv() {
        let cmd =
            parse_args(&argv("run --rounds 1 --clients 4 --epochs 1 --csv /nonexistent-dir/x.csv"))
                .unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("cannot write"));
    }

    #[test]
    fn run_writes_parseable_jsonl_trace() {
        use subfed_metrics::trace::TraceEvent;
        let path = std::env::temp_dir().join("subfed_cli_test.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let out = quick_run(&format!("--algo un --trace {path_str}"));
        assert!(out.contains("trace written to"));
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<TraceEvent> =
            text.lines().map(|l| TraceEvent::from_json(l).expect("every line parses")).collect();
        // Every phase of a Sub-FedAvg round is present.
        for kind in
            ["round_start", "train", "prune", "prune_gate", "encode", "aggregate", "round_end"]
        {
            assert!(events.iter().any(|e| e.kind() == kind), "missing {kind}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_prints_trace_summary() {
        let out = quick_run("--algo un --trace-summary");
        assert!(out.contains("trace summary"), "{out}");
        assert!(out.contains("train"), "{out}");
        assert!(out.contains("prune gates:"), "{out}");
    }

    #[test]
    fn run_rejects_unwritable_trace() {
        let cmd = parse_args(&argv(
            "run --rounds 1 --clients 4 --epochs 1 --trace /nonexistent-dir/x.jsonl",
        ))
        .unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("cannot write"));
    }

    #[test]
    fn info_reports_partition() {
        let cmd = parse_args(&argv("info --dataset cifar10 --clients 6 --seed 2")).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("CIFAR-10*"));
        assert!(out.contains("mean labels per client"));
        // Header row + one row per client.
        let rows = out.lines().filter(|l| l.starts_with("| ")).count();
        assert_eq!(rows, 7);
    }

    #[test]
    fn dataset_flag_reaches_the_run() {
        let out = quick_run("--dataset emnist --algo fedavg");
        assert!(out.contains(DatasetKind::Emnist.label()));
    }

    #[test]
    fn scaled_run_reports_registry_and_streaming_memory() {
        let cmd = parse_args(&argv(
            "run --algo un --num-clients 200 --frac 0.03 --rounds 2 --epochs 1 \
             --threads 2 --seed 3",
        ))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("200 registered clients"), "{out}");
        assert!(out.contains("cohort 6"), "{out}");
        assert!(out.contains("agg mem"), "{out}");
        assert!(out.contains("aggregation memory stays O(model)"), "{out}");
    }

    #[test]
    fn scaled_run_requires_unstructured_subfedavg() {
        let cmd =
            parse_args(&argv("run --algo fedavg --num-clients 100 --rounds 1 --epochs 1")).unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("sub-fedavg-un"), "{err}");
    }

    #[test]
    fn scaled_run_rejects_csv_before_running() {
        let trace = std::env::temp_dir().join("subfed_cli_scaled_csv_reject.jsonl");
        let _ = std::fs::remove_file(&trace);
        let cmd = parse_args(&argv(&format!(
            "run --algo un --num-clients 2000 --frac 0.01 --rounds 2 --epochs 1 \
             --csv x.csv --trace {}",
            trace.to_str().unwrap()
        )))
        .unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("--csv is not supported"), "{err}");
        assert!(!trace.exists(), "the run started before --csv was rejected");
    }

    #[test]
    fn scaled_trace_records_registry_and_cohort_sizes() {
        use subfed_metrics::trace::TraceEvent;
        let path = std::env::temp_dir().join("subfed_cli_scaled_trace.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let cmd = parse_args(&argv(&format!(
            "run --algo un --num-clients 150 --frac 0.04 --rounds 2 --epochs 1 \
             --seed 5 --trace {path_str}"
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("trace written to"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<TraceEvent> =
            text.lines().map(|l| TraceEvent::from_json(l).expect("every line parses")).collect();
        let starts: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RoundStart { registered, cohort_size, sampled, .. } => {
                    Some((*registered, *cohort_size, sampled.len()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(starts.len(), 2);
        for (registered, cohort_size, sampled) in starts {
            assert_eq!(registered, 150);
            assert_eq!(cohort_size, sampled);
            assert!(cohort_size > 0);
        }
        let _ = std::fs::remove_file(&path);
    }
}
