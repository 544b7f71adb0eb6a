//! The three benchmark workloads: how each is set up from a seed, driven
//! through the repository's public round drivers, and summarised.

use std::sync::Arc;
use std::time::Instant;

use subfed_core::algorithms::{SubFedAvgHy, SubFedAvgUn};
use subfed_core::presets::{DatasetKind, PartitionKind};
use subfed_core::{FedConfig, FederatedAlgorithm, Federation, History, ScaledSubFedAvg};
use subfed_data::{SynthClientProvider, SynthProviderConfig, SynthVision};
use subfed_metrics::trace::{model_hash, Tracer};
use subfed_pruning::{HybridController, UnstructuredController};

/// Which public driver a workload runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// `SubFedAvgUn::step_round` over a materialized federation.
    Un,
    /// `SubFedAvgHy::run` over a materialized federation.
    Hy,
    /// `ScaledSubFedAvg::step_round` over an on-demand provider.
    Scaled,
}

/// One benchmark workload: a fixed `subfed run` configuration whose data,
/// sampling and initialisation all derive from the benchmark's `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Driver.
    pub algo: Algo,
    /// Communication rounds of one full run.
    pub rounds: usize,
    /// Rounds of one run in `--smoke` mode.
    pub smoke_rounds: usize,
    /// Input sets one `--trace 0` run cycles through, each generated from
    /// the run's seed by [`input_seed`]. The pruning trajectory, and with
    /// it the work, the bytes and the accuracy, depends on the data a seed
    /// draws; averaging over several federations keeps one run's figures
    /// from hanging on one draw.
    pub input_sets: usize,
    /// Range of the final mean personalized test accuracy of one input set,
    /// widened from what seeds gave when the benchmark was defined (checked
    /// on every run; `NOTES.md` records the runs).
    pub acc_range: (f64, f64),
    /// Range of the final mean pruned fraction of prunable weights of one
    /// input set, likewise.
    pub sparsity_range: (f64, f64),
}

/// Registered population of the registry-scale workload.
const REGISTERED: usize = 100_000;

/// Clients of the two materialized workloads.
const CLIENTS: usize = 20;

/// The workloads. `BENCHMARK.json` lists `un90-lenet` and `registry-100k`;
/// `hy-cnn5-eval` runs by hand only, because its rounds/s spread too much
/// between runs to hold a bound (`NOTES.md`).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "un90-lenet",
        algo: Algo::Un,
        rounds: 60,
        smoke_rounds: 3,
        input_sets: 1,
        acc_range: (0.95, 1.0),
        sparsity_range: (0.88, 0.94),
    },
    Workload {
        name: "hy-cnn5-eval",
        algo: Algo::Hy,
        rounds: 50,
        smoke_rounds: 3,
        input_sets: 6,
        acc_range: (0.85, 1.0),
        sparsity_range: (0.70, 0.96),
    },
    Workload {
        name: "registry-100k",
        algo: Algo::Scaled,
        rounds: 20,
        smoke_rounds: 2,
        input_sets: 1,
        acc_range: (0.75, 1.0),
        sparsity_range: (0.10, 0.30),
    },
];

/// The seed of input set `k` of a run with seed `seed`; set 0 uses the
/// run's seed itself.
pub fn input_seed(seed: u64, k: usize) -> u64 {
    seed ^ ((k as u64) << 32)
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Rounds of one run.
    pub fn rounds(&self, smoke: bool) -> usize {
        if smoke {
            self.smoke_rounds
        } else {
            self.rounds
        }
    }

    /// The federation configuration of one run.
    pub fn config(&self, seed: u64, smoke: bool) -> FedConfig {
        let rounds = self.rounds(smoke);
        // One worker on every workload: on a 2-CPU shared host two workers
        // wait on each other's slow stretches, and their rounds/s moved
        // several times more between runs than one worker's (`NOTES.md`).
        let base = FedConfig { rounds, seed, threads: 1, ..FedConfig::default() };
        match self.algo {
            Algo::Un => FedConfig { sample_frac: 0.5, eval_every: rounds, ..base },
            Algo::Hy => FedConfig { sample_frac: 0.5, eval_every: 1, ..base },
            Algo::Scaled => FedConfig { sample_frac: 0.002, local_epochs: 2, eval_every: 5, ..base },
        }
    }

    /// The `subfed run` invocation this workload equals.
    pub fn cli_line(&self, seed: u64, smoke: bool) -> String {
        let c = self.config(seed, smoke);
        let common = format!(
            "--rounds {} --epochs {} --threads {} --eval-every {} --seed {seed}",
            c.rounds, c.local_epochs, c.threads, c.eval_every
        );
        match self.algo {
            Algo::Un => format!(
                "subfed run --dataset cifar10 --algo un --target 0.9 --clients {CLIENTS} {common}"
            ),
            Algo::Hy => format!(
                "subfed run --dataset mnist --algo hy --structured-target 0.5 --target 0.9 \
                 --clients {CLIENTS} {common}"
            ),
            Algo::Scaled => format!(
                "subfed run --algo un --num-clients {REGISTERED} --frac {} {common}",
                c.sample_frac
            ),
        }
    }

    /// Registered client population.
    pub fn registered(&self) -> usize {
        match self.algo {
            Algo::Un | Algo::Hy => CLIENTS,
            Algo::Scaled => REGISTERED,
        }
    }

    /// Worker threads of one run.
    pub fn threads(&self) -> usize {
        self.config(0, false).threads
    }

    /// Unstructured pruning target of the workload's controller.
    pub fn target(&self) -> f32 {
        match self.algo {
            Algo::Un | Algo::Hy => 0.9,
            Algo::Scaled => 0.5,
        }
    }

    /// Structured (channel) target, for the hybrid workload.
    pub fn structured_target(&self) -> f32 {
        0.5
    }

    /// Builds the inputs and the driver: data synthesis, partitioning or
    /// the provider, the `Federation`, and the driver. Everything derives
    /// from `seed`. Returns a clone of the federation for outside timings.
    pub fn setup(&self, seed: u64, smoke: bool, tracer: Tracer) -> (Federation, Driver) {
        let config = self.config(seed, smoke);
        // The `subfed` CLI's controller settings: 20% steps and a 0.3
        // validation-accuracy gate.
        let rate = 0.2;
        let acc_threshold = 0.3;
        match self.algo {
            Algo::Un => {
                let kind = DatasetKind::Cifar10;
                let clients = kind.clients_with(CLIENTS, seed, PartitionKind::Pathological);
                let fed = Federation::new(kind.spec(), clients, config).with_tracer(tracer);
                let mut c = UnstructuredController::paper_defaults(self.target());
                c.rate = rate;
                c.acc_threshold = acc_threshold;
                (fed.clone(), Driver::Un(Box::new(SubFedAvgUn::with_controller(fed, c))))
            }
            Algo::Hy => {
                let kind = DatasetKind::Mnist;
                let clients = kind.clients_with(CLIENTS, seed, PartitionKind::Pathological);
                let fed = Federation::new(kind.spec(), clients, config).with_tracer(tracer);
                let mut c =
                    HybridController::paper_defaults(self.structured_target(), self.target());
                c.structured_rate = rate;
                c.unstructured.rate = rate;
                c.acc_threshold = acc_threshold;
                c.unstructured.acc_threshold = acc_threshold;
                (fed.clone(), Driver::Hy(Box::new(SubFedAvgHy::with_controller(fed, c))))
            }
            Algo::Scaled => {
                let provider = SynthClientProvider::new(
                    SynthVision::mnist_like(seed, 1),
                    SynthProviderConfig {
                        num_clients: REGISTERED,
                        labels_per_client: 2,
                        train_per_label: 6,
                        val_per_label: 3,
                        test_per_label: 3,
                        seed,
                    },
                );
                let fed = Federation::from_provider(
                    DatasetKind::Mnist.spec(),
                    Arc::new(provider),
                    config,
                )
                .with_tracer(tracer);
                let mut c = UnstructuredController::paper_defaults(self.target());
                c.rate = rate;
                c.acc_threshold = acc_threshold;
                (fed.clone(), Driver::Scaled(Box::new(ScaledSubFedAvg::new(fed, c))))
            }
        }
    }
}

/// A constructed driver, ready to run its rounds.
pub enum Driver {
    /// Sub-FedAvg (Un).
    Un(Box<SubFedAvgUn>),
    /// Sub-FedAvg (Hy).
    Hy(Box<SubFedAvgHy>),
    /// Registry-scale Sub-FedAvg (Un).
    Scaled(Box<ScaledSubFedAvg>),
}

/// What one full run (set-up plus every round) produced.
pub struct RunOutcome {
    /// Seconds spent in [`Workload::setup`].
    pub setup_s: f64,
    /// Seconds inside the driver's round loop.
    pub loop_s: f64,
    /// Seconds of each `step_round` call (empty for the hybrid driver,
    /// which only exposes `run`).
    pub round_s: Vec<f64>,
    /// Rounds completed.
    pub rounds: usize,
    /// Accounted bytes up and down (`History::total_bytes`, or the scaled
    /// driver's cumulative bytes).
    pub comm_bytes: u64,
    /// Final mean personalized test accuracy.
    pub final_acc: f64,
    /// Final mean pruned fraction of prunable weights.
    pub sparsity: f64,
    /// `model_hash` of the final global parameters (Un, registry). The
    /// hybrid driver does not expose its global, so for it this is a
    /// fingerprint of the full round history instead.
    pub hash: u64,
    /// Client updates attempted: cohort size summed over rounds.
    pub attempted: u64,
    /// Client updates the server aggregated, summed over rounds.
    pub aggregated: u64,
    /// The federation (a clone of the one the driver ran on).
    pub fed: Federation,
    /// The driver after its last round.
    pub driver: Driver,
}

/// Sets the workload up and runs every round.
pub fn run_once(w: &Workload, seed: u64, smoke: bool, tracer: Tracer) -> RunOutcome {
    let t0 = Instant::now();
    let (fed, mut driver) = w.setup(seed, smoke, tracer);
    let setup_s = t0.elapsed().as_secs_f64();
    let rounds = w.rounds(smoke);
    let mut round_s = Vec::with_capacity(rounds);
    let mut timed = |step: &mut dyn FnMut()| {
        let t = Instant::now();
        step();
        round_s.push(t.elapsed().as_secs_f64());
    };
    let t1 = Instant::now();
    let history = match &mut driver {
        Driver::Un(algo) => {
            for _ in 0..rounds {
                timed(&mut || algo.step_round());
            }
            // Every round has run, so this only hands back the history.
            Some(algo.resume())
        }
        Driver::Hy(algo) => Some(algo.run()),
        Driver::Scaled(algo) => {
            for _ in 0..rounds {
                timed(&mut || algo.step_round());
            }
            None
        }
    };
    let loop_s = t1.elapsed().as_secs_f64();
    let (mut attempted, mut aggregated) = (0u64, 0u64);
    for round in 1..=rounds {
        let sampled = fed.sample_round(round);
        attempted += sampled.len() as u64;
        aggregated += fed.survivors(round, &sampled).len() as u64;
    }
    let (comm_bytes, final_acc, sparsity, hash) = match (&driver, &history) {
        (Driver::Un(algo), Some(h)) => (
            h.total_bytes(),
            f64::from(h.final_avg_acc()),
            f64::from(h.final_pruned_params()),
            model_hash(&algo.checkpoint().global),
        ),
        (Driver::Hy(_), Some(h)) => (
            h.total_bytes(),
            f64::from(h.final_avg_acc()),
            f64::from(h.final_pruned_params()),
            history_hash(h),
        ),
        (Driver::Scaled(algo), _) => {
            let records = algo.records();
            aggregated = records.iter().map(|r| r.survivors as u64).sum();
            let acc = records.iter().rev().find_map(|r| r.avg_test_acc).unwrap_or(0.0);
            let reg = algo.registry();
            let seen: Vec<f32> = (0..reg.registered())
                .filter(|&id| reg.rounds_participated(id) > 0)
                .map(|id| reg.pruned_fraction(id))
                .collect();
            let sparsity =
                seen.iter().map(|&p| f64::from(p)).sum::<f64>() / seen.len().max(1) as f64;
            (
                records.last().map_or(0, |r| r.cum_bytes),
                f64::from(acc),
                sparsity,
                model_hash(algo.global()),
            )
        }
        _ => unreachable!("materialized drivers always return a history"),
    };
    RunOutcome {
        setup_s,
        loop_s,
        round_s,
        rounds,
        comm_bytes,
        final_acc,
        sparsity,
        hash,
        attempted,
        aggregated,
        fed,
        driver,
    }
}

/// FNV-1a over every round record of a history: accuracies, pruned
/// fractions and byte counts, bit for bit.
fn history_hash(h: &History) -> u64 {
    let mut words: Vec<f32> = Vec::new();
    for r in &h.records {
        words.push(r.round as f32);
        words.push(f32::from_bits(r.cum_bytes as u32));
        words.push(f32::from_bits((r.cum_bytes >> 32) as u32));
        words.push(r.avg_acc.unwrap_or(-1.0));
        words.push(r.avg_pruned_params);
        words.push(r.avg_pruned_channels);
        words.extend_from_slice(&r.per_client_acc);
        words.extend_from_slice(&r.per_client_pruned);
    }
    model_hash(&words)
}
