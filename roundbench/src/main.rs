//! `subfed-roundbench`: the round benchmark of the Sub-FedAvg reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path roundbench/Cargo.toml -- \
//!     --workload un90-lenet --seed 1 --seconds 60 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload (set-up plus every round) with tracing
//! off, cycling through the input sets it generates from `--seed`, for
//! `--seconds` (the measuring window `BENCHMARK.json` fixes), and reports
//! the end-to-end metrics. `--trace 1` runs the first input set once
//! untraced and once with a `VecSink` tracer, then replays one
//! client update layer by layer, and reports the per-layer metrics.
//! `--smoke` shrinks every workload to a few rounds and still runs every
//! check. The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only
//! when every check passed. `roundbench/NOTES.md` explains the workloads and
//! every metric.

mod replay;
mod traced;
mod workload;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use subfed_core::{flatten_mask, train_client_ws, wire, LocalOutcome};
use subfed_metrics::flops;
use subfed_metrics::report::Table;
use subfed_metrics::trace::{Tracer, VecSink};
use subfed_nn::{ModelMask, ParamKind, Sequential};
use subfed_pruning::structured::{expand_channel_mask, slimming_mask};
use subfed_pruning::unstructured::magnitude_mask;
use subfed_pruning::{HybridController, PruneScope, Ranking};
use subfed_tensor::workspace::Workspace;

use replay::{kernel_paths, layer_groups, replay_eval, replay_train, TrainReplay};
use traced::TraceStats;
use workload::{input_seed, run_once, Algo, Driver, RunOutcome, Workload};

const USAGE: &str = "usage: subfed-roundbench --workload <un90-lenet|hy-cnn5-eval|registry-100k> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// Weight-layer rows reported per layer (`fc3` exists only on LeNet-5 and
/// is shown in the table, not in the metric set).
const NN_ROWS: [&str; 7] = ["conv1", "conv2", "fc1", "fc2", "bn", "pool", "act"];
const STATES: [&str; 2] = ["dense", "target"];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (1u64, 60.0f64, false, false);
    let mut i = 0;
    while i < args.len() {
        let value = || args.get(i + 1).ok_or_else(|| format!("missing value for {}", args[i]));
        match args[i].as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "invalid --seed".to_string())?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "invalid --seconds".to_string())?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--smoke" => {
                smoke = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, smoke })
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, value }
}

/// The correctness checks of one run; any failure makes the run count as
/// failed.
#[derive(Default)]
struct Checks {
    failed: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            println!("check ok: {what}");
        } else {
            println!("CHECK FAILED: {what}");
            self.failed.push(what);
        }
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`); 0 for no samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Resets this process's `VmHWM` to its current resident set, so that the
/// next [`peak_rss_mb`] reads the high-water mark of what ran in between.
/// Without the reset (kernels before 4.0) the reading is the process-wide
/// peak so far; the return value says whether the reset took.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':'])))
        .unwrap_or("unknown")
        .to_string()
}

fn print_environment() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "env: nproc={nproc} cpu=\"{}\" rustc=\"{}\" target-cpu=native:{}",
        cpu_model(),
        env!("ROUNDBENCH_RUSTC"),
        env!("ROUNDBENCH_TARGET_CPU_NATIVE"),
    );
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Client updates one run attempts: cohort size × rounds.
fn planned_updates(w: &Workload, seed: u64, smoke: bool) -> u64 {
    let c = w.config(seed, smoke);
    (c.clients_per_round(w.registered()) * c.rounds) as u64
}

/// Result of one benchmark invocation.
struct Report {
    metrics: Vec<Metric>,
    aggregated: u64,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    println!(
        "workload {} (seed {}, trace {}{}): equals `{}`",
        w.name,
        args.seed,
        u8::from(args.trace),
        if args.smoke { ", smoke" } else { "" },
        w.cli_line(args.seed, args.smoke)
    );
    print_environment();
    let attempted = Cell::new(0u64);
    let mut checks = Checks::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if args.trace {
            per_layer(&args, &attempted, &mut checks)
        } else {
            end_to_end(&args, &attempted, &mut checks)
        }
    }));
    let (metrics, failed, correct) = match outcome {
        Ok(report) => {
            let mut correct = checks.failed.is_empty();
            for m in &report.metrics {
                if !m.value.is_finite() {
                    println!("CHECK FAILED: metric {} is not finite", m.name);
                    correct = false;
                }
            }
            let failed = if correct {
                attempted.get().saturating_sub(report.aggregated)
            } else {
                attempted.get()
            };
            (report.metrics, failed, correct && failed == 0)
        }
        Err(_) => {
            println!(
                "CHECK FAILED: the workload panicked; every attempted update counts as failed"
            );
            (Vec::new(), attempted.get(), false)
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.get().max(1),
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// Summary of one repeat of the workload.
struct Rep {
    peak_rss_mb: f64,
    rounds: usize,
    loop_s: f64,
    round_s: Vec<f64>,
    comm_bytes: u64,
    final_acc: f64,
    sparsity: f64,
    hash: u64,
}

/// Set-up samples per `--trace 0` run; the repeats' own set-ups count.
const SETUP_SAMPLES: usize = 30;

/// Tops `setups` up to `due` samples (at most [`SETUP_SAMPLES`]) with extra
/// set-ups of the workload, cycling through its input sets.
fn sample_setups(w: &Workload, seeds: &[u64], setups: &mut Vec<f64>, due: usize) {
    while setups.len() < due.min(SETUP_SAMPLES) {
        let t = Instant::now();
        drop(black_box(w.setup(seeds[setups.len() % seeds.len()], false, Tracer::disabled())));
        setups.push(t.elapsed().as_secs_f64());
    }
}

/// Rounds per second over every input set: rounds ÷ the sum of their
/// fastest times over the set's repeats. Where the driver steps round by
/// round, each round's time is its fastest over the repeats, so a slow
/// stretch of the shared host costs nothing as long as one repeat ran that
/// round outside it; the hybrid driver only exposes `run`, so there it is
/// the fastest whole run.
fn rounds_per_s(sets: &[Vec<Rep>]) -> f64 {
    let (mut rounds, mut seconds) = (0, 0.0);
    for reps in sets {
        let stepped = reps[0].round_s.len();
        rounds += reps[0].rounds;
        seconds += if stepped == 0 {
            fastest(reps.iter().map(|r| r.loop_s))
        } else {
            (0..stepped).map(|i| fastest(reps.iter().map(|r| r.round_s[i]))).sum()
        };
    }
    rounds as f64 / seconds
}

fn fastest(times: impl Iterator<Item = f64>) -> f64 {
    times.fold(f64::INFINITY, f64::min)
}

/// `--trace 0`: set up and run the workload again and again, untraced,
/// cycling through its input sets, for `--seconds` and at least twice per
/// set.
fn end_to_end(args: &Args, attempted: &Cell<u64>, checks: &mut Checks) -> Report {
    let w = args.workload;
    let seeds: Vec<u64> = (0..w.input_sets).map(|k| input_seed(args.seed, k)).collect();
    for (k, &seed) in seeds.iter().enumerate().skip(1) {
        println!("input set {k}: equals `{}`", w.cli_line(seed, args.smoke));
    }
    let min_reps = 2 * seeds.len();
    let start = Instant::now();
    let mut sets: Vec<Vec<Rep>> = seeds.iter().map(|_| Vec::new()).collect();
    let mut aggregated = 0;
    let mut last: Option<RunOutcome> = None;
    let mut hwm_reset = true;
    let mut setups = Vec::new();
    for n in 1.. {
        let k = (n - 1) % seeds.len();
        drop(last.take());
        attempted.set(attempted.get() + planned_updates(w, seeds[k], args.smoke));
        hwm_reset &= reset_peak_rss();
        let out = run_once(w, seeds[k], args.smoke, Tracer::disabled());
        aggregated += out.aggregated;
        sets[k].push(Rep {
            peak_rss_mb: peak_rss_mb(),
            rounds: out.rounds,
            loop_s: out.loop_s,
            round_s: out.round_s.clone(),
            comm_bytes: out.comm_bytes,
            final_acc: out.final_acc,
            sparsity: out.sparsity,
            hash: out.hash,
        });
        setups.push(out.setup_s);
        last = Some(out);
        let elapsed = start.elapsed().as_secs_f64();
        if !args.smoke {
            // Extra set-ups in step with the window, so that their median
            // spans the whole run and not one moment of the host.
            let due = (SETUP_SAMPLES as f64 * elapsed / args.seconds) as usize;
            sample_setups(w, &seeds, &mut setups, due);
        }
        // Stop before a repeat that would overrun the measuring window.
        if n >= min_reps && (args.smoke || elapsed * (n + 1) as f64 / n as f64 > args.seconds) {
            break;
        }
    }
    if !args.smoke {
        sample_setups(w, &seeds, &mut setups, SETUP_SAMPLES);
    }
    for (seed, reps) in seeds.iter().zip(&sets) {
        let first = &reps[0];
        println!(
            "input seed {seed}: {} repeats, rounds/s {:?}, peak MB {:?}",
            reps.len(),
            reps.iter().map(|r| r.rounds as f64 / r.loop_s).collect::<Vec<_>>(),
            reps.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()
        );
        println!(
            "result: model_hash {:016x} comm {} B final_acc {} sparsity {}",
            first.hash, first.comm_bytes, first.final_acc, first.sparsity
        );
        checks.check(
            reps.iter().all(|r| {
                r.hash == first.hash
                    && r.comm_bytes == first.comm_bytes
                    && r.final_acc == first.final_acc
                    && r.sparsity == first.sparsity
            }),
            format!(
                "input seed {seed}: model_hash, comm, accuracy and sparsity identical across {} repeats",
                reps.len()
            ),
        );
        check_ranges(w, args.smoke, first.final_acc, first.sparsity, checks);
    }
    println!("setup s {setups:?}; VmHWM reset per repeat: {hwm_reset}");
    let out = last.expect("at least one repeat ran");
    // The replay identity is checked on every run, once per mask state.
    for state in replay_states(w, &out) {
        let data = out.fed.client_data(state.client);
        let reference = reference_update(&out, &state);
        let replayed = replay_train(
            out.fed.spec(),
            &state.init,
            &data,
            out.fed.config(),
            &state.mask,
            state.seed,
            &mut Workspace::new(),
        );
        check_replay(&reference, &replayed, state.name, checks);
    }
    let per_set =
        |f: fn(&Rep) -> f64| mean(&sets.iter().map(|reps| f(&reps[0])).collect::<Vec<_>>());
    let metrics = vec![
        metric("rounds_per_s", "1/s", rounds_per_s(&sets)),
        metric("setup_s", "s", median(&setups)),
        // Each repeat's own high-water mark (the previous run is dropped
        // and the mark reset before it sets up). Repeats of one input set
        // peak at two levels apart by a few MB, so the lowest is reported.
        metric(
            "peak_rss_mb",
            "MB",
            sets.iter().flatten().map(|r| r.peak_rss_mb).fold(f64::INFINITY, f64::min),
        ),
        metric("comm_mb", "MB", per_set(|r| r.comm_bytes as f64 / 1e6)),
        metric("final_acc", "fraction", per_set(|r| r.final_acc)),
    ];
    Report { metrics, aggregated }
}

fn check_ranges(w: &Workload, smoke: bool, acc: f64, sparsity: f64, checks: &mut Checks) {
    // Smoke runs stop after a few rounds, before accuracy or sparsity
    // settle, so only the domain is checked there.
    let (acc_range, sparsity_range) =
        if smoke { ((0.0, 1.0), (0.0, 1.0)) } else { (w.acc_range, w.sparsity_range) };
    checks.check(
        (acc_range.0..=acc_range.1).contains(&acc),
        format!("final_acc {acc:.4} within recorded range {acc_range:?}"),
    );
    checks.check(
        (sparsity_range.0..=sparsity_range.1).contains(&sparsity),
        format!("final sparsity {sparsity:.4} within recorded range {sparsity_range:?}"),
    );
}

fn check_replay(
    reference: &LocalOutcome,
    replayed: &TrainReplay,
    state: &str,
    checks: &mut Checks,
) {
    checks.check(
        bits(&reference.final_flat) == bits(&replayed.final_flat)
            && bits(&reference.first_epoch_flat) == bits(&replayed.first_epoch_flat),
        format!("replayed {state} update equals train_client_ws bit for bit"),
    );
}

/// The inputs of one replayed client update.
struct ReplayState {
    name: &'static str,
    client: usize,
    init: Vec<f32>,
    mask: ModelMask,
    seed: u64,
}

/// Rebuilds a [`ModelMask`] from its flat 0/1 vector.
fn mask_from_flat(template: &Sequential, flat: &[f32]) -> ModelMask {
    let mut mask = ModelMask::ones_for(template);
    let mut offset = 0;
    for t in mask.tensors_mut() {
        let len = t.len();
        t.data_mut().copy_from_slice(&flat[offset..offset + len]);
        offset += len;
    }
    mask
}

fn prunable_pruned(mask: &ModelMask) -> f32 {
    mask.pruned_fraction(ParamKind::is_prunable_weight)
}

/// The two mask states every per-layer row is measured in: `dense` is a
/// client's first participation (θ₀, all-ones mask, round 1); `target` is
/// the most-pruned end-of-run mask (`SubFedAvgUn::final_masks`, the
/// registry's `mask_flat`, or for the hybrid driver — which exposes only
/// channel masks — a mask rebuilt at the workload's targets with
/// `slimming_mask`, an FC `magnitude_mask` and `expand_channel_mask`).
fn replay_states(w: &Workload, out: &RunOutcome) -> [ReplayState; 2] {
    let fed = &out.fed;
    let template = fed.build_model();
    let ones = ModelMask::ones_for(&template);
    let first = fed.sample_round(1)[0];
    let dense = ReplayState {
        name: "dense",
        client: first,
        init: fed.init_global(),
        mask: ones.clone(),
        seed: fed.client_seed(1, first),
    };
    let last_round = fed.config().rounds;
    let target = match &out.driver {
        Driver::Un(algo) => {
            let masks = algo.final_masks();
            let client = (0..masks.len())
                .max_by(|&a, &b| {
                    prunable_pruned(&masks[a])
                        .total_cmp(&prunable_pruned(&masks[b]))
                        .then(b.cmp(&a))
                })
                .expect("federation has clients");
            ReplayState {
                name: "target",
                client,
                init: algo.checkpoint().global,
                mask: masks[client].clone(),
                seed: fed.client_seed(last_round, client),
            }
        }
        Driver::Scaled(algo) => {
            let reg = algo.registry();
            let client = (0..reg.registered())
                .filter(|&id| !reg.is_implicit(id))
                .min_by_key(|&id| (reg.kept(id), id))
                .unwrap_or(first);
            ReplayState {
                name: "target",
                client,
                init: algo.global().to_vec(),
                mask: mask_from_flat(&template, &reg.mask_flat(client)),
                seed: fed.client_seed(last_round, client),
            }
        }
        Driver::Hy(_) => {
            let trained = reference_update(out, &dense).final_flat;
            let mut model = fed.build_model();
            model.load_flat(&trained);
            let channels = slimming_mask(
                &model,
                &HybridController::initial_channels(&model),
                w.structured_target(),
            );
            let fc =
                magnitude_mask(&model, &ones, w.target(), PruneScope::FcOnly, Ranking::LayerWise);
            ReplayState {
                name: "target",
                client: first,
                init: fed.init_global(),
                mask: expand_channel_mask(&model, &channels, &fc),
                seed: fed.client_seed(last_round, first),
            }
        }
    };
    [dense, target]
}

/// What the library's `train_client_ws` returns for a replay state.
fn reference_update(out: &RunOutcome, state: &ReplayState) -> LocalOutcome {
    let fed = &out.fed;
    train_client_ws(
        fed.spec(),
        &state.init,
        &fed.client_data(state.client),
        fed.config(),
        Some(&state.mask),
        None,
        state.seed,
        &mut Workspace::new(),
    )
}

/// Per-batch samples of one replayed mask state, grouped by row.
#[derive(Default)]
struct StateSamples {
    fwd: BTreeMap<String, Vec<f64>>,
    bwd: BTreeMap<String, Vec<f64>>,
    loss: Vec<f64>,
    sgd: Vec<f64>,
    load: Vec<f64>,
    setup: Vec<f64>,
    eval: BTreeMap<String, Vec<f64>>,
    /// Σ batch sizes and Σ fwd+bwd µs per conv row, for flop/s.
    conv_examples: f64,
    conv_us: BTreeMap<String, f64>,
    batches_per_update: usize,
}

impl StateSamples {
    fn add_train(&mut self, groups: &[String], r: &TrainReplay) {
        self.setup.push(r.setup_us);
        self.batches_per_update = r.batches.len();
        for b in &r.batches {
            let mut fwd: BTreeMap<&str, f64> = BTreeMap::new();
            let mut bwd: BTreeMap<&str, f64> = BTreeMap::new();
            for (li, g) in groups.iter().enumerate() {
                *fwd.entry(g).or_default() += b.fwd[li];
                *bwd.entry(g).or_default() += b.bwd[li];
            }
            for (g, v) in fwd {
                self.fwd.entry(g.to_string()).or_default().push(v);
                if g.starts_with("conv") {
                    *self.conv_us.entry(g.to_string()).or_default() += v + bwd[g];
                }
            }
            for (g, v) in bwd {
                self.bwd.entry(g.to_string()).or_default().push(v);
            }
            self.conv_examples += b.size as f64;
            self.loss.push(b.loss);
            self.sgd.push(b.sgd);
            self.load.push(b.load);
        }
    }

    fn add_eval(&mut self, groups: &[String], batches: &[Vec<f64>]) {
        for b in batches {
            for (li, g) in groups.iter().enumerate() {
                if g.starts_with("conv") {
                    self.eval.entry(g.clone()).or_default().push(b[li]);
                }
            }
        }
    }

    fn p50(map: &BTreeMap<String, Vec<f64>>, row: &str) -> f64 {
        map.get(row).map_or(0.0, |v| median(v))
    }
}

/// Runs `f` until `budget_s` has passed (at least `min`, at most `max`
/// times).
fn repeat_for(budget_s: f64, min: usize, max: usize, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || (n < max && start.elapsed().as_secs_f64() < budget_s) {
        f();
        n += 1;
    }
}

/// Times `f` (nanosecond clock) `n` times, returning microseconds.
fn time_us<T>(n: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Blocked 128³ GEMM throughput, the peak reference for the conv rows.
fn gemm128_gflops() -> f64 {
    const N: usize = 128;
    let a: Vec<f32> = (0..N * N).map(|i| ((i * 7919) % 1000) as f32 / 1000.0 - 0.5).collect();
    let b: Vec<f32> = (0..N * N).map(|i| ((i * 104_729) % 997) as f32 / 997.0 - 0.5).collect();
    let mut out = vec![0.0f32; N * N];
    let mut gemm = || {
        subfed_tensor::linalg::gemm(N, N, N, black_box(&a), black_box(&b), &mut out);
        black_box(out[0])
    };
    time_us(50, &mut gemm);
    let us = median(&time_us(400, &mut gemm));
    2.0 * (N * N * N) as f64 / us / 1e3
}

/// `--trace 1`: one untraced and one traced run, the bench-side replay,
/// and outside timings of the provider, the mask store and the sampler.
fn per_layer(args: &Args, attempted: &Cell<u64>, checks: &mut Checks) -> Report {
    let w = args.workload;
    let planned = planned_updates(w, args.seed, args.smoke);
    attempted.set(attempted.get() + planned);
    let untraced = run_once(w, args.seed, args.smoke, Tracer::disabled());
    attempted.set(attempted.get() + planned);
    let sink = Arc::new(VecSink::new());
    let out = run_once(w, args.seed, args.smoke, Tracer::new(sink.clone()));
    let events = sink.snapshot();
    let stats = TraceStats::from_events(&events, w.threads(), w.algo == Algo::Scaled);
    let aggregated = untraced.aggregated + stats.aggregated;
    drop(untraced.driver);
    println!(
        "result: model_hash {:016x} comm {} B final_acc {} sparsity {}",
        out.hash, out.comm_bytes, out.final_acc, out.sparsity
    );
    checks.check(
        untraced.comm_bytes == out.comm_bytes,
        format!("comm equal traced vs untraced ({} vs {} B)", out.comm_bytes, untraced.comm_bytes),
    );
    checks.check(untraced.hash == out.hash, "model_hash equal traced vs untraced");
    checks.check(
        untraced.final_acc == out.final_acc && untraced.sparsity == out.sparsity,
        "accuracy and sparsity equal traced vs untraced",
    );
    if w.algo != Algo::Hy {
        checks.check(
            stats.final_model_hash == out.hash,
            "last round_end model_hash equals the driver's θ_g hash",
        );
    } else {
        println!("traced final model_hash {:016x}", stats.final_model_hash);
    }
    checks.check(
        stats.final_cum_bytes == out.comm_bytes
            && stats.up_bytes + stats.down_bytes == out.comm_bytes,
        "upload + download events add up to the accounted comm bytes",
    );
    checks.check(
        stats.aggregated == out.attempted,
        format!(
            "aggregate events cover every attempted update ({} of {})",
            stats.aggregated, out.attempted
        ),
    );
    check_ranges(w, args.smoke, out.final_acc, out.sparsity, checks);

    let fed = &out.fed;
    let spec = *fed.spec();
    let template = fed.build_model();
    let groups = layer_groups(&template);
    let budget = if args.smoke { 0.0 } else { 1.5 };
    let mut samples: Vec<StateSamples> = Vec::new();
    let mut paths = Vec::new();
    let mut wire_enc = Vec::new();
    let mut wire_dec = Vec::new();
    for state in replay_states(w, &out) {
        let data = fed.client_data(state.client);
        let reference = reference_update(&out, &state);
        let mut s = StateSamples::default();
        let mut ws = Workspace::new();
        let mut identical = true;
        repeat_for(budget, 2, 500, || {
            let r = replay_train(
                &spec,
                &state.init,
                &data,
                fed.config(),
                &state.mask,
                state.seed,
                &mut ws,
            );
            identical &= bits(&r.final_flat) == bits(&reference.final_flat)
                && bits(&r.first_epoch_flat) == bits(&reference.first_epoch_flat);
            s.add_train(&groups, &r);
        });
        checks.check(
            identical,
            format!("every replayed {} update equals train_client_ws bit for bit", state.name),
        );
        // Personalized evaluation of this client's trained subnetwork, as
        // `evaluate_clients` (and the registry driver's worker) run it.
        let flat_mask = flatten_mask(&state.mask);
        let evaluated: Vec<f32> =
            reference.final_flat.iter().zip(&flat_mask).map(|(v, m)| v * m).collect();
        let mut library = fed.build_model();
        library.load_flat(&evaluated);
        let expected = subfed_core::evaluate_accuracy(&mut library, &data.test, 64);
        let mut eval_ok = true;
        repeat_for(budget / 5.0, 2, 2000, || {
            let (times, acc) = replay_eval(&spec, &evaluated, &data.test, fed.config().seed);
            eval_ok &= acc == expected;
            s.add_eval(&groups, &times);
        });
        checks
            .check(eval_ok, format!("replayed {} evaluation equals evaluate_accuracy", state.name));
        // The upload as the drivers encode it, timed at ns resolution.
        let reps = if args.smoke { 3 } else { 400 };
        let buf = wire::encode_update(&evaluated, &flat_mask);
        let decoded = wire::decode_update(&buf);
        // Value equality: pruned positions travel as absent and decode as
        // +0.0, where the masked product may hold -0.0.
        checks.check(
            decoded.as_ref().is_ok_and(|(p, m)| *p == evaluated && *m == flat_mask),
            format!("{} update round-trips through the wire codec", state.name),
        );
        wire_enc.extend(time_us(reps, || wire::encode_update(&evaluated, &flat_mask)));
        wire_dec.extend(time_us(reps, || wire::decode_update(&buf)));
        paths.push(kernel_paths(&spec, &template, &state.mask));
        samples.push(s);
    }

    // Outside timings on the run's own cohorts.
    let rounds = fed.config().rounds;
    let cohorts: Vec<Vec<usize>> = (1..=rounds).map(|r| fed.sample_round(r)).collect();
    let sample_us: Vec<f64> = (1..=rounds)
        .flat_map(|r| time_us(if args.smoke { 1 } else { 20 }, || fed.sample_round(r)))
        .collect();
    let ids: Vec<usize> = cohorts.iter().flatten().copied().take(2000).collect();
    let provider_us: Vec<f64> =
        ids.iter().flat_map(|&id| time_us(1, || fed.provider().client(id))).collect();
    // The per-client mask store the driver keeps between rounds, read for
    // each sampled client and sized from what it holds. Only the
    // registry-scale driver has a `ClientRegistry`; the materialized
    // drivers expose theirs as `final_masks` (Un) and `final_channels`
    // (Hy, whose parameter masks are private, so a client's flat mask is
    // the expansion of its own stored channel mask).
    let (mask_us, resident_bytes): (Vec<f64>, f64) = match &out.driver {
        Driver::Scaled(algo) => {
            let reg = algo.registry();
            (
                ids.iter().flat_map(|&id| time_us(1, || reg.mask_flat(id))).collect(),
                reg.memory_bytes() as f64,
            )
        }
        Driver::Un(algo) => {
            let masks = algo.final_masks();
            let bytes: usize = masks.iter().flat_map(|m| m.tensors()).map(|t| t.len() * 4).sum();
            (
                ids.iter().flat_map(|&id| time_us(1, || flatten_mask(&masks[id]))).collect(),
                bytes as f64,
            )
        }
        Driver::Hy(algo) => {
            let channels = algo.final_channels();
            // One byte per channel flag.
            let bytes: usize = channels.iter().map(|c| c.total_channels()).sum();
            let ones = ModelMask::ones_for(&template);
            let read =
                |id: usize| flatten_mask(&expand_channel_mask(&template, &channels[id], &ones));
            (ids.iter().flat_map(|&id| time_us(1, || read(id))).collect(), bytes as f64)
        }
    };
    let gemm_gflops = gemm128_gflops();

    // Metrics.
    let mut m = Vec::new();
    for row in NN_ROWS {
        for (si, state) in STATES.iter().enumerate() {
            m.push(metric(
                format!("nn.{row}.fwd_us.{state}"),
                "us",
                StateSamples::p50(&samples[si].fwd, row),
            ));
            m.push(metric(
                format!("nn.{row}.bwd_us.{state}"),
                "us",
                StateSamples::p50(&samples[si].bwd, row),
            ));
        }
    }
    for (si, state) in STATES.iter().enumerate() {
        m.push(metric(format!("nn.loss_us.{state}"), "us", median(&samples[si].loss)));
        m.push(metric(format!("nn.sgd_us.{state}"), "us", median(&samples[si].sgd)));
    }
    let loads: Vec<f64> = samples.iter().flat_map(|s| s.load.iter().copied()).collect();
    m.push(metric("nn.batch_load_us", "us", median(&loads)));
    for row in ["conv1", "conv2"] {
        for (si, state) in STATES.iter().enumerate() {
            m.push(metric(
                format!("nn.{row}.eval_us.{state}"),
                "us",
                StateSamples::p50(&samples[si].eval, row),
            ));
        }
    }
    let density =
        |row: &str| paths[1].iter().find(|(g, _)| g == row).map_or(1.0, |(_, p)| p.density);
    for row in ["conv1", "conv2", "fc1"] {
        m.push(metric(format!("nn.{row}.density.target"), "fraction", density(row)));
    }
    m.push(metric("tensor.gemm128_gflops", "GFLOP/s", gemm_gflops));
    let shapes = spec.conv_shapes();
    let mut conv_gflops = BTreeMap::new();
    for (ci, row) in ["conv1", "conv2"].iter().enumerate() {
        for (si, state) in STATES.iter().enumerate() {
            let s = &samples[si];
            let d = paths[si].iter().find(|(g, _)| g == row).map_or(1.0, |(_, p)| p.density);
            // Forward plus the two backward products (dW and dX), each
            // the forward's multiply-adds over the kept weights.
            let flop = 3.0 * flops::conv_flops(&shapes[ci]) as f64 * d * s.conv_examples;
            let g = flop / s.conv_us.get(*row).copied().unwrap_or(f64::INFINITY) / 1e3;
            conv_gflops.insert((row.to_string(), si), g);
            m.push(metric(format!("nn.{row}.gflops.{state}"), "GFLOP/s", g));
        }
    }
    let setups: Vec<f64> = samples.iter().flat_map(|s| s.setup.iter().copied()).collect();
    m.push(metric("core.engine.train_client_ms_p50", "ms", quantile(&stats.train_us, 0.5) / 1e3));
    m.push(metric("core.engine.train_client_ms_p90", "ms", quantile(&stats.train_us, 0.9) / 1e3));
    m.push(metric("core.engine.eval_ms", "ms", mean(&stats.eval_us) / 1e3));
    m.push(metric("core.engine.client_setup_us", "us", median(&setups)));
    m.push(metric("pruning.step_ms_p50", "ms", quantile(&stats.prune_us, 0.5) / 1e3));
    m.push(metric(
        "pruning.fired_ratio",
        "fraction",
        stats.gates_fired as f64 / stats.gates.max(1) as f64,
    ));
    m.push(metric("core.wire.encode_us_p50", "us", median(&wire_enc)));
    m.push(metric("core.wire.decode_us_p50", "us", median(&wire_dec)));
    m.push(metric("core.wire.update_kb_p50", "kB", quantile(&stats.update_bytes, 0.5) / 1e3));
    m.push(metric("core.agg.round_us", "us", mean(&stats.aggregate_us)));
    m.push(metric("data.provider_client_us_p50", "us", median(&provider_us)));
    m.push(metric("core.registry.mask_flat_us_p50", "us", median(&mask_us)));
    m.push(metric("core.sampler.sample_us", "us", median(&sample_us)));
    m.push(metric("core.registry.resident_mb", "MB", resident_bytes / 1e6));
    m.push(metric("core.round.ms_p50", "ms", quantile(&stats.round_us, 0.5) / 1e3));
    m.push(metric("core.round.ms_p90", "ms", quantile(&stats.round_us, 0.9) / 1e3));
    m.push(metric("core.round.untraced_share", "fraction", stats.untraced_share()));
    let traced_rps = out.rounds as f64 / out.loop_s;
    let untraced_rps = untraced.rounds as f64 / untraced.loop_s;
    m.push(metric("metrics.trace.overhead_share", "fraction", 1.0 - traced_rps / untraced_rps));
    m.push(metric("metrics.comm.up_mb", "MB", stats.up_bytes as f64 / 1e6));
    m.push(metric("metrics.comm.down_mb", "MB", stats.down_bytes as f64 / 1e6));

    print_tables(
        w,
        &out,
        &stats,
        &groups,
        &samples,
        &paths,
        &conv_gflops,
        untraced_rps,
        traced_rps,
    );
    println!(
        "outside timings (µs p50): provider.client {:.3}, mask read {:.3}, sample_round {:.3}; \
         trace µs p50: encode {:.0}, decode {:.0}",
        median(&provider_us),
        median(&mask_us),
        median(&sample_us),
        quantile(&stats.encode_us, 0.5),
        quantile(&stats.decode_us, 0.5)
    );
    Report { metrics: m, aggregated }
}

#[allow(clippy::too_many_arguments)]
fn print_tables(
    w: &Workload,
    out: &RunOutcome,
    stats: &TraceStats,
    groups: &[String],
    samples: &[StateSamples],
    paths: &[Vec<(String, replay::KernelPath)>],
    conv_gflops: &BTreeMap<(String, usize), f64>,
    untraced_rps: f64,
    traced_rps: f64,
) {
    let total = stats.total_round_us().max(1.0);
    let share = |us: f64| format!("{:.1}%", 100.0 * us / total);
    let ms = |us: f64| format!("{:.1} ms", us / 1e3);
    let mut t = Table::new(
        format!(
            "{}: round phases, traced run ({} rounds, {:.2} rounds/s traced vs {:.2} untraced)",
            w.name, out.rounds, traced_rps, untraced_rps
        ),
        &["row", "wall time", "share of round wall"],
    );
    let threads = w.threads();
    let workers_label =
        format!("clients under par_map ({threads} worker{})", if threads > 1 { "s" } else { "" });
    t.row(&[workers_label, ms(stats.parallel_us), share(stats.parallel_us)]);
    let names = ["train", "prune", "encode", "decode"];
    if w.algo == Algo::Scaled {
        for (name, us) in names.iter().zip(stats.worker_phase_us) {
            let per_worker = us / threads as f64;
            t.row(&[format!("  in-worker {name} (per worker)"), ms(per_worker), share(per_worker)]);
        }
    } else {
        for (name, us) in names[1..].iter().zip(stats.serial_client_us) {
            t.row(&[format!("{name} (serial)"), ms(us), share(us)]);
        }
    }
    let agg: f64 = stats.aggregate_us.iter().sum();
    let eval: f64 = stats.eval_us.iter().sum();
    t.row(&["aggregate".to_string(), ms(agg), share(agg)]);
    t.row(&["eval".to_string(), ms(eval), share(eval)]);
    let rest = total - stats.covered_us();
    t.row(&["untraced remainder".to_string(), ms(rest), share(rest)]);
    print!("{}", t.render());
    println!("prune gates fired {} of {}", stats.gates_fired, stats.gates);

    // Per-layer rows: µs per training batch from the replay, and the share
    // of round wall time they would take if every batch of the round ran
    // in that mask state.
    let clients_per_round = stats.train_us.len() as f64 / out.rounds.max(1) as f64;
    let mean_round = total / stats.round_us.len().max(1) as f64;
    let est = |us: f64, si: usize| {
        let batches = samples[si].batches_per_update as f64 * clients_per_round / threads as f64;
        format!("{:.1}%", 100.0 * us * batches / mean_round)
    };
    let mut rows: Vec<String> = Vec::new();
    for g in groups {
        if !rows.contains(g) {
            rows.push(g.clone());
        }
    }
    let mut t = Table::new(
        format!("{}: per-layer replay, µs per training batch (p50)", w.name),
        &[
            "row",
            "path train/eval",
            "target density",
            "fwd dense",
            "bwd dense",
            "fwd target",
            "bwd target",
            "est. share dense",
            "est. share target",
        ],
    );
    for row in &rows {
        let path = paths[1].iter().find(|(g, _)| g == row);
        let (fd, bd) =
            (StateSamples::p50(&samples[0].fwd, row), StateSamples::p50(&samples[0].bwd, row));
        let (ft, bt) =
            (StateSamples::p50(&samples[1].fwd, row), StateSamples::p50(&samples[1].bwd, row));
        t.row(&[
            row.clone(),
            path.map_or("-".to_string(), |(_, p)| format!("{}/{}", p.train, p.eval)),
            path.map_or("-".to_string(), |(_, p)| format!("{:.3}", p.density)),
            format!("{fd:.2}"),
            format!("{bd:.2}"),
            format!("{ft:.2}"),
            format!("{bt:.2}"),
            est(fd + bd, 0),
            est(ft + bt, 1),
        ]);
    }
    for (name, si_vals) in [
        ("loss", [median(&samples[0].loss), median(&samples[1].loss)]),
        ("sgd", [median(&samples[0].sgd), median(&samples[1].sgd)]),
        ("batch load", [median(&samples[0].load), median(&samples[1].load)]),
    ] {
        t.row(&[
            name.to_string(),
            "-".to_string(),
            "-".to_string(),
            format!("{:.2}", si_vals[0]),
            "-".to_string(),
            format!("{:.2}", si_vals[1]),
            "-".to_string(),
            est(si_vals[0], 0),
            est(si_vals[1], 1),
        ]);
    }
    print!("{}", t.render());
    for (row, p) in &paths[1] {
        println!(
            "{row}: target density {:.3}, train path {}, eval path {} (as evaluate_clients runs it; {} with the mask installed)",
            p.density, p.train, p.eval, p.eval_installed
        );
    }
    for ((row, si), g) in conv_gflops {
        println!("{row} {} fwd+bwd: {g:.2} GFLOP/s effective", STATES[*si]);
    }
}
