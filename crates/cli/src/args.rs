//! Hand-rolled argument parsing for the `subfed` binary.

use subfed_core::presets::{DatasetKind, PartitionKind};
use subfed_core::FedConfig;

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// Local-only training.
    Standalone,
    /// Traditional FedAvg.
    FedAvg,
    /// FedAvg with a proximal local objective.
    FedProx,
    /// Local representations + global head.
    LgFedAvg,
    /// Federated multi-task learning.
    Mtl,
    /// Sub-FedAvg with unstructured pruning (Algorithm 1).
    SubFedAvgUn,
    /// Sub-FedAvg with hybrid pruning (Algorithm 2).
    SubFedAvgHy,
}

impl AlgoKind {
    /// Parses a CLI-style algorithm name.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "standalone" => Some(AlgoKind::Standalone),
            "fedavg" => Some(AlgoKind::FedAvg),
            "fedprox" => Some(AlgoKind::FedProx),
            "lg-fedavg" | "lg" => Some(AlgoKind::LgFedAvg),
            "mtl" => Some(AlgoKind::Mtl),
            "sub-fedavg-un" | "subfedavg-un" | "un" => Some(AlgoKind::SubFedAvgUn),
            "sub-fedavg-hy" | "subfedavg-hy" | "hy" => Some(AlgoKind::SubFedAvgHy),
            _ => None,
        }
    }

    /// All parseable names, for the help text.
    pub fn names() -> &'static str {
        "standalone | fedavg | fedprox | lg-fedavg | mtl | sub-fedavg-un | sub-fedavg-hy"
    }
}

/// The largest `--clients`. The path it selects synthesizes every client's
/// data up front (some 35 examples each), and Sub-FedAvg holds every
/// client's model, so a larger population goes through `run --num-clients`.
pub const MAX_CLIENTS: usize = 1000;

/// Checks a `--clients` value for the materialized path.
fn check_clients(clients: usize) -> Result<(), String> {
    if clients == 0 {
        Err("federation needs at least one client".to_string())
    } else if clients > MAX_CLIENTS {
        Err(format!(
            "--clients must be at most {MAX_CLIENTS}, got {clients}; register a larger \
             population with `subfed run --num-clients N`"
        ))
    } else {
        Ok(())
    }
}

/// A fully parsed `subfed run` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Dataset stand-in.
    pub dataset: DatasetKind,
    /// Heterogeneity generator.
    pub partition: PartitionKind,
    /// Algorithm.
    pub algo: AlgoKind,
    /// Number of clients.
    pub clients: usize,
    /// Shared federation config.
    pub config: FedConfig,
    /// Unstructured pruning target (Sub-FedAvg).
    pub target: f32,
    /// Structured pruning target (Sub-FedAvg (Hy)).
    pub structured_target: f32,
    /// Pruning rate per accepted step.
    pub rate: f32,
    /// FedProx proximal coefficient.
    pub mu: f32,
    /// MTL coupling strength.
    pub coupling: f32,
    /// Optional CSV output path for the round history.
    pub csv: Option<String>,
    /// Optional JSONL trace output path (one trace event per line; see
    /// `docs/OBSERVABILITY.md`).
    pub trace: Option<String>,
    /// Print the aggregated phase-timing summary after the run.
    pub trace_summary: bool,
    /// Registered population for the registry-scale path. `None` keeps
    /// the classic materialized path over `clients`; `Some(n)` registers
    /// `n` clients behind an on-demand provider and drives the streaming
    /// Sub-FedAvg engine (`docs/SCALING.md`). Only `sub-fedavg-un`
    /// supports this path.
    pub num_clients: Option<usize>,
}

impl Default for RunSpec {
    fn default() -> Self {
        Self {
            dataset: DatasetKind::Mnist,
            partition: PartitionKind::Pathological,
            algo: AlgoKind::SubFedAvgUn,
            clients: 10,
            config: FedConfig {
                rounds: 10,
                sample_frac: 0.5,
                local_epochs: 3,
                eval_every: 5,
                ..Default::default()
            },
            target: 0.5,
            structured_target: 0.5,
            rate: 0.2,
            mu: 0.01,
            coupling: 0.1,
            csv: None,
            trace: None,
            trace_summary: false,
            num_clients: None,
        }
    }
}

/// A parsed `subfed info` invocation (partition diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct InfoSpec {
    /// Dataset stand-in.
    pub dataset: DatasetKind,
    /// Number of clients.
    pub clients: usize,
    /// Partition seed.
    pub seed: u64,
}

impl Default for InfoSpec {
    fn default() -> Self {
        Self { dataset: DatasetKind::Mnist, clients: 10, seed: 42 }
    }
}

/// A parsed top-level command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a federated algorithm.
    Run(RunSpec),
    /// Print partition diagnostics.
    Info(InfoSpec),
    /// Print usage.
    Help,
}

/// The `subfed help` text.
pub fn usage() -> String {
    format!(
        "subfed — Sub-FedAvg reproduction CLI\n\
         \n\
         USAGE:\n\
         \x20 subfed run  [--dataset D] [--algo A] [--rounds N] [--clients N]\n\
         \x20             [--partition P] [--alpha F] [--skew F]\n\
         \x20             [--sample-frac F | --frac F] [--epochs N] [--batch N]\n\
         \x20             [--lr F] [--momentum F] [--seed N] [--eval-every N]\n\
         \x20             [--dropout F] [--threads N | --workers N] [--target F]\n\
         \x20             [--structured-target F] [--rate F] [--mu F]\n\
         \x20             [--coupling F] [--csv PATH] [--trace PATH]\n\
         \x20             [--trace-summary] [--num-clients N]\n\
         \x20 subfed info [--dataset D] [--clients N] [--seed N]\n\
         \x20 subfed help\n\
         \n\
         DATASETS:   mnist | emnist | cifar10 | cifar100 (synthetic stand-ins)\n\
         PARTITIONS: pathological | dirichlet (--alpha) | quantity (--skew)\n\
         ALGOS:      {}\n\
         \n\
         SCALE:      --num-clients N registers N clients behind an on-demand\n\
         \x20           provider and drives the registry + streaming Sub-FedAvg\n\
         \x20           engine; each round samples --frac (alias of\n\
         \x20           --sample-frac) of them as the cohort (docs/SCALING.md).\n\
         \x20           sub-fedavg-un only. --clients stops at {MAX_CLIENTS}: its\n\
         \x20           clients' data and models are built up front.\n\
         \n\
         TRACES:     --trace PATH streams round-level JSONL telemetry\n\
         \x20           (docs/OBSERVABILITY.md); check a Sub-FedAvg trace against\n\
         \x20           the round-protocol spec with `subfed-lint conform PATH`\n\
         \x20           (docs/PROTOCOL.md). Baseline traces fail that spec by\n\
         \x20           design: they have no prune, gate, encode or decode\n\
         \x20           phases, and standalone and mtl have no aggregate.\n",
        AlgoKind::names()
    )
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("missing value for {flag}"))?;
    v.parse::<T>().map_err(|_| format!("invalid value for {flag}: {v}"))
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, unknown flags,
/// missing, malformed or out-of-range values.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" => parse_run(&args[1..]).map(Command::Run),
        "info" => parse_info(&args[1..]).map(Command::Info),
        other => Err(format!("unknown command `{other}` (try `subfed help`)")),
    }
}

fn parse_run(args: &[String]) -> Result<RunSpec, String> {
    let mut spec = RunSpec::default();
    let mut eval_every_set = false;
    let mut partition_name = String::from("pathological");
    let mut alpha = 0.5f32;
    let mut skew = 1.0f32;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        match flag {
            "--dataset" => {
                let name: String = parse_value(flag, value)?;
                spec.dataset =
                    DatasetKind::parse(&name).ok_or_else(|| format!("unknown dataset `{name}`"))?;
            }
            "--partition" => partition_name = parse_value(flag, value)?,
            "--alpha" => alpha = parse_value(flag, value)?,
            "--skew" => skew = parse_value(flag, value)?,
            "--algo" => {
                let name: String = parse_value(flag, value)?;
                spec.algo =
                    AlgoKind::parse(&name).ok_or_else(|| format!("unknown algo `{name}`"))?;
            }
            "--rounds" => spec.config.rounds = parse_value(flag, value)?,
            "--clients" => spec.clients = parse_value(flag, value)?,
            "--sample-frac" | "--frac" => spec.config.sample_frac = parse_value(flag, value)?,
            "--num-clients" => spec.num_clients = Some(parse_value(flag, value)?),
            "--epochs" => spec.config.local_epochs = parse_value(flag, value)?,
            "--batch" => spec.config.batch_size = parse_value(flag, value)?,
            "--lr" => spec.config.lr = parse_value(flag, value)?,
            "--momentum" => spec.config.momentum = parse_value(flag, value)?,
            "--seed" => spec.config.seed = parse_value(flag, value)?,
            "--eval-every" => {
                spec.config.eval_every = parse_value(flag, value)?;
                eval_every_set = true;
            }
            "--dropout" => spec.config.dropout_prob = parse_value(flag, value)?,
            // `--workers` is the replay-identity gate's spelling: the
            // worker count must be free to vary without changing results.
            "--threads" | "--workers" => spec.config.threads = parse_value(flag, value)?,
            "--target" => spec.target = parse_value(flag, value)?,
            "--structured-target" => spec.structured_target = parse_value(flag, value)?,
            "--rate" => spec.rate = parse_value(flag, value)?,
            "--mu" => spec.mu = parse_value(flag, value)?,
            "--coupling" => spec.coupling = parse_value(flag, value)?,
            "--csv" => spec.csv = Some(parse_value::<String>(flag, value)?),
            "--trace" => spec.trace = Some(parse_value::<String>(flag, value)?),
            "--trace-summary" => {
                // Boolean flag: takes no value.
                spec.trace_summary = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown flag `{other}` for `subfed run`")),
        }
        i += 2;
    }
    if !eval_every_set {
        // Default: evaluate twice — midway and at the end.
        spec.config.eval_every = (spec.config.rounds / 2).max(1);
    }
    spec.partition = match partition_name.to_ascii_lowercase().as_str() {
        "pathological" | "shards" => PartitionKind::Pathological,
        "dirichlet" => PartitionKind::Dirichlet { alpha },
        "quantity" | "quantity-skew" => PartitionKind::QuantitySkew { skew },
        other => return Err(format!("unknown partition `{other}`")),
    };
    // Rejected here rather than by the federation and algorithm
    // constructors, which panic on them (with the same messages).
    spec.config.validate()?;
    let ensure = |ok: bool, msg: &str| if ok { Ok(()) } else { Err(msg.to_string()) };
    if spec.num_clients.is_none() {
        check_clients(spec.clients)?;
    }
    ensure(
        spec.algo != AlgoKind::FedProx || spec.mu > 0.0,
        "proximal coefficient must be positive",
    )?;
    ensure(spec.algo != AlgoKind::Mtl || spec.coupling >= 0.0, "coupling must be non-negative")?;
    let pruning = matches!(spec.algo, AlgoKind::SubFedAvgUn | AlgoKind::SubFedAvgHy);
    ensure(
        !pruning || (0.0..1.0).contains(&spec.rate),
        &format!("prune rate must be in [0, 1), got {}", spec.rate),
    )?;
    ensure(
        !pruning || (0.0..=1.0).contains(&spec.target),
        &format!("target must be in [0, 1], got {}", spec.target),
    )?;
    ensure(
        spec.algo != AlgoKind::SubFedAvgHy || (0.0..=1.0).contains(&spec.structured_target),
        &format!("structured_target must be in [0, 1], got {}", spec.structured_target),
    )?;
    match spec.partition {
        PartitionKind::Dirichlet { alpha } => ensure(alpha > 0.0, "alpha must be positive")?,
        PartitionKind::QuantitySkew { skew } => ensure(skew >= 0.0, "skew must be non-negative")?,
        PartitionKind::Pathological => {}
    }
    Ok(spec)
}

fn parse_info(args: &[String]) -> Result<InfoSpec, String> {
    let mut spec = InfoSpec::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        match flag {
            "--dataset" => {
                let name: String = parse_value(flag, value)?;
                spec.dataset =
                    DatasetKind::parse(&name).ok_or_else(|| format!("unknown dataset `{name}`"))?;
            }
            "--clients" => spec.clients = parse_value(flag, value)?,
            "--seed" => spec.seed = parse_value(flag, value)?,
            other => return Err(format!("unknown flag `{other}` for `subfed info`")),
        }
        i += 2;
    }
    check_clients(spec.clients)?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("--help")).unwrap(), Command::Help);
        assert!(usage().contains("subfed run"));
    }

    #[test]
    fn run_defaults() {
        let Command::Run(spec) = parse_args(&argv("run")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(spec.dataset, DatasetKind::Mnist);
        assert_eq!(spec.algo, AlgoKind::SubFedAvgUn);
        assert_eq!(spec.config.rounds, 10);
        assert_eq!(spec.config.eval_every, 5);
    }

    #[test]
    fn run_full_flag_set() {
        let Command::Run(spec) = parse_args(&argv(
            "run --dataset cifar10 --algo fedprox --rounds 7 --clients 12 \
             --sample-frac 0.4 --epochs 2 --batch 8 --lr 0.02 --momentum 0.4 \
             --seed 9 --eval-every 7 --dropout 0.1 --threads 2 --target 0.6 \
             --structured-target 0.3 --rate 0.15 --mu 0.05 --coupling 0.2 \
             --csv /tmp/out.csv --trace /tmp/out.jsonl --trace-summary",
        ))
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(spec.dataset, DatasetKind::Cifar10);
        assert_eq!(spec.algo, AlgoKind::FedProx);
        assert_eq!(spec.config.rounds, 7);
        assert_eq!(spec.clients, 12);
        assert_eq!(spec.config.sample_frac, 0.4);
        assert_eq!(spec.config.local_epochs, 2);
        assert_eq!(spec.config.batch_size, 8);
        assert_eq!(spec.config.lr, 0.02);
        assert_eq!(spec.config.momentum, 0.4);
        assert_eq!(spec.config.seed, 9);
        assert_eq!(spec.config.eval_every, 7);
        assert_eq!(spec.config.dropout_prob, 0.1);
        assert_eq!(spec.config.threads, 2);
        assert_eq!(spec.target, 0.6);
        assert_eq!(spec.structured_target, 0.3);
        assert_eq!(spec.rate, 0.15);
        assert_eq!(spec.mu, 0.05);
        assert_eq!(spec.coupling, 0.2);
        assert_eq!(spec.csv.as_deref(), Some("/tmp/out.csv"));
        assert_eq!(spec.trace.as_deref(), Some("/tmp/out.jsonl"));
        assert!(spec.trace_summary);
    }

    #[test]
    fn workers_is_an_alias_for_threads() {
        let Command::Run(spec) = parse_args(&argv("run --workers 3")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(spec.config.threads, 3);
    }

    #[test]
    fn trace_summary_is_a_bare_flag() {
        // `--trace-summary` consumes no value: the next token is parsed
        // as the flag it is.
        let Command::Run(spec) = parse_args(&argv("run --trace-summary --rounds 4")).unwrap()
        else {
            panic!("expected run");
        };
        assert!(spec.trace_summary);
        assert_eq!(spec.config.rounds, 4);
        let Command::Run(spec) = parse_args(&argv("run")).unwrap() else { panic!() };
        assert!(!spec.trace_summary);
        assert_eq!(spec.trace, None);
    }

    #[test]
    fn frac_is_an_alias_of_sample_frac() {
        let Command::Run(spec) = parse_args(&argv("run --frac 0.01")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(spec.config.sample_frac, 0.01);
        assert_eq!(spec.num_clients, None);
    }

    #[test]
    fn num_clients_selects_the_registry_scale_path() {
        let Command::Run(spec) =
            parse_args(&argv("run --num-clients 1000000 --frac 0.01 --rounds 2")).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(spec.num_clients, Some(1_000_000));
        assert_eq!(spec.config.sample_frac, 0.01);
        assert!(parse_args(&argv("run --num-clients heaps"))
            .unwrap_err()
            .contains("invalid value"));
    }

    #[test]
    fn eval_every_defaults_to_half_rounds() {
        let Command::Run(spec) = parse_args(&argv("run --rounds 8")).unwrap() else {
            panic!();
        };
        assert_eq!(spec.config.eval_every, 4);
        let Command::Run(spec1) = parse_args(&argv("run --rounds 1")).unwrap() else {
            panic!();
        };
        assert_eq!(spec1.config.eval_every, 1);
    }

    #[test]
    fn info_parses() {
        let Command::Info(spec) =
            parse_args(&argv("info --dataset emnist --clients 6 --seed 3")).unwrap()
        else {
            panic!("expected info");
        };
        assert_eq!(spec.dataset, DatasetKind::Emnist);
        assert_eq!(spec.clients, 6);
        assert_eq!(spec.seed, 3);
    }

    #[test]
    fn partition_flags() {
        let Command::Run(spec) =
            parse_args(&argv("run --partition dirichlet --alpha 0.2")).unwrap()
        else {
            panic!();
        };
        assert_eq!(spec.partition, PartitionKind::Dirichlet { alpha: 0.2 });
        let Command::Run(spec) = parse_args(&argv("run --partition quantity --skew 1.5")).unwrap()
        else {
            panic!();
        };
        assert_eq!(spec.partition, PartitionKind::QuantitySkew { skew: 1.5 });
        let Command::Run(spec) = parse_args(&argv("run")).unwrap() else { panic!() };
        assert_eq!(spec.partition, PartitionKind::Pathological);
        assert!(parse_args(&argv("run --partition zipf"))
            .unwrap_err()
            .contains("unknown partition"));
    }

    #[test]
    fn algo_aliases() {
        assert_eq!(AlgoKind::parse("un"), Some(AlgoKind::SubFedAvgUn));
        assert_eq!(AlgoKind::parse("hy"), Some(AlgoKind::SubFedAvgHy));
        assert_eq!(AlgoKind::parse("LG"), Some(AlgoKind::LgFedAvg));
        assert_eq!(AlgoKind::parse("bogus"), None);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_args(&argv("frobnicate")).unwrap_err().contains("unknown command"));
        assert!(parse_args(&argv("run --bogus 1")).unwrap_err().contains("unknown flag"));
        assert!(parse_args(&argv("run --rounds")).unwrap_err().contains("missing value"));
        assert!(parse_args(&argv("run --rounds abc")).unwrap_err().contains("invalid value"));
        assert!(parse_args(&argv("run --dataset svhn")).unwrap_err().contains("unknown dataset"));
        assert!(parse_args(&argv("run --algo sgd")).unwrap_err().contains("unknown algo"));
        assert!(parse_args(&argv("info --rounds 3")).unwrap_err().contains("unknown flag"));
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        for (args, msg) in [
            ("run --rounds 0", "rounds must be positive"),
            ("run --epochs 0", "local_epochs must be positive"),
            ("run --batch 0", "batch_size must be positive"),
            ("run --eval-every 0", "eval_every must be positive"),
            ("run --workers 0", "threads must be positive"),
            ("run --frac 0", "sample_frac must be in (0, 1], got 0"),
            ("run --frac 1.5", "sample_frac must be in (0, 1], got 1.5"),
            ("run --dropout 1", "dropout_prob must be in [0, 1), got 1"),
            ("run --momentum 1", "momentum must be in [0, 1)"),
            ("run --lr -1", "lr must be positive"),
            ("run --clients 0", "federation needs at least one client"),
            ("info --clients 0", "federation needs at least one client"),
            (
                "run --clients 1001",
                "--clients must be at most 1000, got 1001; register a larger population with \
                 `subfed run --num-clients N`",
            ),
            (
                "info --clients 1000000",
                "--clients must be at most 1000, got 1000000; register a larger population \
                 with `subfed run --num-clients N`",
            ),
            ("run --algo fedprox --mu 0", "proximal coefficient must be positive"),
            ("run --algo mtl --coupling -1", "coupling must be non-negative"),
            ("run --algo un --rate 1", "prune rate must be in [0, 1), got 1"),
            ("run --algo hy --rate 1.5", "prune rate must be in [0, 1), got 1.5"),
            ("run --algo un --target 1.5", "target must be in [0, 1], got 1.5"),
            ("run --algo hy --target -0.2", "target must be in [0, 1], got -0.2"),
            ("run --algo hy --structured-target 2", "structured_target must be in [0, 1], got 2"),
            ("run --algo hy --structured-target -1", "structured_target must be in [0, 1], got -1"),
            ("run --partition dirichlet --alpha 0", "alpha must be positive"),
            ("run --partition dirichlet --alpha -1", "alpha must be positive"),
            ("run --partition quantity --skew -1", "skew must be non-negative"),
        ] {
            assert_eq!(parse_args(&argv(args)), Err(msg.to_string()), "{args}");
        }
        // Each value is only checked where it is used: μ and the coupling
        // by their algorithm, the pruning values by Sub-FedAvg (the
        // structured target by Hy alone), α and the skew by their
        // partition.
        assert!(parse_args(&argv("run --algo fedavg --mu 0 --coupling -1")).is_ok());
        assert!(parse_args(&argv("run --algo fedavg --rate 1 --target 2")).is_ok());
        assert!(parse_args(&argv("run --algo un --structured-target 2")).is_ok());
        assert!(parse_args(&argv("run --alpha 0 --skew -1")).is_ok());
        assert!(parse_args(&argv("run --algo un --rate 0 --target 1")).is_ok());
        // `--clients` is ignored once `--num-clients` selects the registry.
        assert!(parse_args(&argv("run --clients 0 --num-clients 2000")).is_ok());
        assert!(parse_args(&argv("run --clients 1000")).is_ok());
    }
}
