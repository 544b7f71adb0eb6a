//! Micro-benchmarks of the engine's hot paths, with a committed baseline.
//!
//! Unlike the table/figure benches (which regenerate paper artifacts),
//! this target measures *kernels*: blocked vs naive matmul at 128×128 and
//! the LeNet im2col shapes, the LeNet-5 forward pass dense vs sparse at
//! 0/30/50/70/90 % unstructured pruning, the batch-fused Conv2d
//! forward+backward under a reused [`Workspace`], the aggregation /
//! mask hot loops the seed benchmarked, and the per-client codecs (mask
//! packing, the wire update, an on-demand client shard).
//!
//! The harness is hand-rolled (medians over wall-clock samples, no
//! criterion) so it can emit a machine-readable baseline:
//!
//! ```text
//! # Paths are relative to the bench CWD (crates/bench); ../../ lands
//! # the artifact at the repo root where the baseline is committed.
//! cargo bench -p subfed-bench --bench micro -- --json ../../BENCH_micro.json
//! cargo bench -p subfed-bench --bench micro -- --test   # CI smoke mode
//! cargo bench -p subfed-bench --bench micro -- --test --compare ../../BENCH_micro.json
//! ```
//!
//! The two rows of each speedup are timed alternately in one process, one
//! sample of each per pair, and the speedup is the median of the per-pair
//! ratios: a slow patch of the host (a neighbour's burst, a frequency step)
//! then slows both sides of the pairs it covers instead of one row's whole
//! median.
//!
//! `--compare` diffs the fresh `speedups` (the per-pair ratio medians)
//! against a committed baseline and prints an advisory warning when a
//! ratio falls more than 25% below it; the exit code never changes,
//! because shared CI runners have no stable clock.
//!
//! The JSON carries the host's core count (`cores`, from
//! `std::thread::available_parallelism`; 0 when unknown), one record per
//! bench (`name`, `median_ns`, `throughput`, `unit`) plus a `speedups`
//! map with the ratios `docs/PERFORMANCE.md` quotes (blocked-vs-naive,
//! sparse-vs-dense).

use std::hint::black_box;
use std::time::Instant;
use subfed_core::wire::{decode_update, encode_update};
use subfed_core::{flatten_mask, subfedavg_aggregate};
use subfed_data::{ClientProvider, SynthClientProvider, SynthProviderConfig, SynthVision};
use subfed_metrics::comm::{pack_mask, unpack_mask};
use subfed_nn::models::{channel_graph, ModelSpec};
use subfed_nn::{Layer, Mode, ModelMask, Sequential};
use subfed_pruning::structured::{expand_channel_mask, slimming_mask, ChannelMask};
use subfed_pruning::unstructured::magnitude_mask;
use subfed_pruning::{PruneScope, Ranking};
use subfed_tensor::init::{uniform, SeededRng};
use subfed_tensor::linalg::{matmul, naive_matmul};
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

/// How long one measurement sample should run, and how many samples feed
/// the median. `--test` shrinks both so CI smoke stays fast.
#[derive(Clone, Copy)]
struct Config {
    sample_ns: u64,
    samples: usize,
}

impl Config {
    fn full() -> Self {
        Self { sample_ns: 20_000_000, samples: 11 }
    }

    fn smoke() -> Self {
        Self { sample_ns: 1_000_000, samples: 3 }
    }
}

/// One measured bench: median wall-clock per call plus a work-rate.
struct Record {
    name: String,
    median_ns: f64,
    /// Work per second at the median (`unit` says what is counted).
    throughput: f64,
    unit: &'static str,
}

/// One bench of a timed group: its name, the work one call does, and the
/// call.
struct Row<'a> {
    name: String,
    work: f64,
    unit: &'static str,
    call: Box<dyn FnMut() + 'a>,
}

impl<'a> Row<'a> {
    /// A row whose call's return value goes through [`black_box`], so the
    /// work cannot be elided.
    fn new<R, F: FnMut() -> R + 'a>(name: &str, work: f64, unit: &'static str, mut f: F) -> Self {
        let call = Box::new(move || {
            black_box(f());
        });
        Self { name: name.to_string(), work, unit, call }
    }
}

/// Times the rows of one group alternately and returns each row's
/// per-call nanoseconds, one sample per round, aligned by round. Each
/// round takes one sample of every row, in an order that reverses every
/// other round, so the rows of a round see the same host.
fn measure_group(cfg: Config, rows: &mut [Row<'_>]) -> Vec<Vec<f64>> {
    // Calibrate: one untimed warm-up call per row sizes its inner loop so
    // a sample runs for roughly `sample_ns`.
    let iters: Vec<u64> = rows
        .iter_mut()
        .map(|row| {
            let t0 = Instant::now();
            (row.call)();
            let once = t0.elapsed().as_nanos().max(1) as u64;
            (cfg.sample_ns / once).clamp(1, 1_000_000)
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(cfg.samples); rows.len()];
    for round in 0..cfg.samples {
        for k in 0..rows.len() {
            let r = if round % 2 == 0 { k } else { rows.len() - 1 - k };
            let t = Instant::now();
            for _ in 0..iters[r] {
                (rows[r].call)();
            }
            samples[r].push(t.elapsed().as_nanos() as f64 / iters[r] as f64);
        }
    }
    samples
}

/// Median of `v` (the upper one for an even count).
fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Times `rows` as one group ([`measure_group`]), records each row's median
/// and returns the samples, aligned by round.
fn record_group(out: &mut Vec<Record>, cfg: Config, mut rows: Vec<Row<'_>>) -> Vec<Vec<f64>> {
    let samples = measure_group(cfg, &mut rows);
    for (row, s) in rows.iter().zip(&samples) {
        let median_ns = median(s);
        let throughput = row.work * 1e9 / median_ns;
        let (name, unit) = (&row.name, row.unit);
        println!("{name:<44} {median_ns:>14.0} ns/call {throughput:>12.3e} {unit}");
        out.push(Record { name: name.clone(), median_ns, throughput, unit });
    }
    samples
}

/// Times one bench on its own and records its median.
fn record<R, F: FnMut() -> R>(
    out: &mut Vec<Record>,
    cfg: Config,
    name: &str,
    work: f64,
    unit: &'static str,
    f: F,
) {
    record_group(out, cfg, vec![Row::new(name, work, unit, f)]);
}

/// The speedup of `fast` over `slow` from samples of the same rounds: the
/// median of the per-pair ratios, printed with their quartiles.
fn paired_speedup(label: &str, slow: &[f64], fast: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = slow.iter().zip(fast).map(|(s, f)| s / f).collect();
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    let (q1, mid, q3) = (ratios[n / 4], ratios[n / 2], ratios[3 * n / 4]);
    println!("  {label}: {mid:.2}x (pair quartiles {q1:.2}–{q3:.2}x)");
    mid
}

/// Random dense matrices for a gemm shape.
fn gemm_inputs(m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = SeededRng::new(seed);
    (uniform(&[m, k], -1.0, 1.0, &mut rng), uniform(&[k, n], -1.0, 1.0, &mut rng))
}

/// Blocked vs naive matmul at one shape, timed as a pair; returns the
/// speedup.
fn bench_gemm_pair(
    out: &mut Vec<Record>,
    cfg: Config,
    label: &str,
    (m, k, n): (usize, usize, usize),
) -> f64 {
    let (a, b) = gemm_inputs(m, k, n, 7);
    let flops = 2.0 * (m * k * n) as f64;
    let samples = record_group(
        out,
        cfg,
        vec![
            Row::new(&format!("matmul_{label}_naive"), flops, "flop/s", || naive_matmul(&a, &b)),
            Row::new(&format!("matmul_{label}_blocked"), flops, "flop/s", || matmul(&a, &b)),
        ],
    );
    paired_speedup(&format!("blocked vs naive at {label}"), &samples[0], &samples[1])
}

/// A LeNet-5 with `rate` of its conv+fc weights magnitude-pruned (mask
/// applied to the weights), optionally with the sparse kernels installed.
fn pruned_lenet(rate: f32, install: bool) -> Sequential {
    let mut rng = SeededRng::new(11);
    let mut model = ModelSpec::lenet5(3, 32, 32, 10).build(&mut rng);
    if rate > 0.0 || install {
        let ones = ModelMask::ones_for(&model);
        let mask = if rate > 0.0 {
            magnitude_mask(&model, &ones, rate, PruneScope::AllWeights, Ranking::LayerWise)
        } else {
            ones
        };
        mask.apply(&mut model);
        if install {
            model.install_sparsity(&mask);
        }
    }
    model
}

/// A LeNet-5 pruned the paper's hybrid way at `rate`: structured channel
/// pruning on the conv blocks (network slimming) intersected with an
/// unstructured magnitude mask over the FC weights — Sub-FedAvg's
/// "50%+50%" configuration when `rate = 0.5`.
fn hybrid_lenet(rate: f32) -> Sequential {
    let mut rng = SeededRng::new(11);
    let mut model = ModelSpec::lenet5(3, 32, 32, 10).build(&mut rng);
    let graph = channel_graph(&model);
    let channels = slimming_mask(&model, &ChannelMask::ones_for(&graph), rate);
    let fc = magnitude_mask(
        &model,
        &ModelMask::ones_for(&model),
        rate,
        PruneScope::FcOnly,
        Ranking::LayerWise,
    );
    let mask = expand_channel_mask(&model, &channels, &fc);
    mask.apply(&mut model);
    model.install_sparsity(&mask);
    model
}

/// The LeNet-5 forwards, dense and pruned, timed as one group; returns the
/// unstructured-p50 and hybrid-50 speedups over dense.
fn bench_lenet_forward(out: &mut Vec<Record>) -> (f64, f64, Config) {
    // The model-level benches dominate wall-clock; one forward at batch 32
    // is already a long call, so samples can be shorter than the kernel
    // benches without losing the median's stability.
    let cfg =
        if smoke_mode() { Config::smoke() } else { Config { sample_ns: 40_000_000, samples: 11 } };
    let mut rng = SeededRng::new(13);
    let x = uniform(&[32, 3, 32, 32], -1.0, 1.0, &mut rng);
    // Each row owns its model and workspace.
    let forward = |name: &str, mut model: Sequential| {
        let (x, mut ws) = (&x, Workspace::new());
        Row::new(name, 32.0, "inputs/s", move || model.forward_ws(x, Mode::Eval, &mut ws))
    };
    let mut rows = vec![forward("lenet5_fwd_b32_dense", pruned_lenet(0.0, false))];
    for pct in [30u32, 50, 70, 90] {
        let name = format!("lenet5_fwd_b32_sparse_p{pct}");
        rows.push(forward(&name, pruned_lenet(pct as f32 / 100.0, true)));
    }
    // The paper's own 50% regime: structured conv channels + unstructured
    // FC weights (Sub-FedAvg Hy). Structured rows vanish from the
    // compressed pattern entirely, so this is the headline sparse number.
    rows.push(forward("lenet5_fwd_b32_sparse_hy50", hybrid_lenet(0.5)));
    let samples = record_group(out, cfg, rows);
    let dense = &samples[0];
    let sparse = paired_speedup("sparse p50 (unstructured) vs dense forward", dense, &samples[2]);
    let hybrid = paired_speedup(
        "sparse hy50 (structured+unstructured) vs dense forward",
        dense,
        &samples[5],
    );
    (sparse, hybrid, cfg)
}

fn bench_conv_fused(out: &mut Vec<Record>, cfg: Config) {
    let mut rng = SeededRng::new(17);
    let mut conv = subfed_nn::layers::Conv2d::new(3, 6, 5, 1, 0, &mut rng);
    let x = uniform(&[32, 3, 32, 32], -1.0, 1.0, &mut rng);
    let mut ws = Workspace::new();
    record(out, cfg, "conv2d_fused_fwd_bwd_ws_b32", 32.0, "inputs/s", || {
        let y = conv.forward_ws(&x, Mode::Train, &mut ws);
        conv.backward_ws(&y, &mut ws)
    });
}

fn bench_engine_loops(out: &mut Vec<Record>, cfg: Config) {
    let mut rng = SeededRng::new(19);
    let n = 62_000; // paper-scale LeNet-5
    let global: Vec<f32> = (0..n).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
    let updates: Vec<(Vec<f32>, Vec<f32>)> = (0..10)
        .map(|_| {
            let params: Vec<f32> = (0..n).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
            let mask: Vec<f32> =
                (0..n).map(|_| if rng.uniform_f32(0.0, 1.0) < 0.5 { 1.0 } else { 0.0 }).collect();
            (params, mask)
        })
        .collect();
    record(out, cfg, "subfedavg_aggregate_62k_x10", n as f64 * 10.0, "positions/s", || {
        subfedavg_aggregate(&global, &updates)
    });

    let model = ModelSpec::lenet5(3, 32, 32, 10).build(&mut rng);
    let ones = ModelMask::ones_for(&model);
    record(out, cfg, "magnitude_mask_lenet5", 1.0, "masks/s", || {
        magnitude_mask(&model, &ones, 0.1, PruneScope::AllWeights, Ranking::LayerWise)
    });

    let mask: Vec<f32> =
        (0..n).map(|_| if rng.uniform_f32(0.0, 1.0) < 0.5 { 1.0 } else { 0.0 }).collect();
    record(out, cfg, "pack_unpack_mask_62k", n as f64, "bits/s", || {
        let packed = pack_mask(&mask);
        unpack_mask(&packed, mask.len())
    });
}

/// The per-client codecs at `un90-lenet`'s size (LeNet-5 on 3×16×16,
/// 16,014 parameters, 90% of the weights magnitude-pruned): packing and
/// unpacking its mask, and the wire encode and decode of its update. Then
/// one client shard of `registry-100k`'s on-demand provider (2 labels ×
/// 6/3/3 train/val/test examples, a new client each call).
fn bench_client_codecs(out: &mut Vec<Record>, cfg: Config) {
    let mut rng = SeededRng::new(23);
    let mut model = ModelSpec::lenet5(3, 16, 16, 10).build(&mut rng);
    let ones = ModelMask::ones_for(&model);
    let mask = magnitude_mask(&model, &ones, 0.9, PruneScope::AllWeights, Ranking::LayerWise);
    mask.apply(&mut model);
    let (params, mask) = (model.flatten(), flatten_mask(&mask));
    let n = mask.len() as f64;
    record(out, cfg, "pack_mask_lenet5_16", n, "bits/s", || pack_mask(&mask));
    let packed = pack_mask(&mask);
    record(out, cfg, "unpack_mask_lenet5_16", n, "bits/s", || unpack_mask(&packed, mask.len()));
    record(out, cfg, "encode_update_lenet5_16_p90", n, "params/s", || {
        encode_update(&params, &mask)
    });
    let update = encode_update(&params, &mask);
    record(out, cfg, "decode_update_lenet5_16_p90", n, "params/s", || decode_update(&update));
    let provider = SynthClientProvider::new(
        SynthVision::mnist_like(7, 1),
        SynthProviderConfig {
            num_clients: 100_000,
            labels_per_client: 2,
            train_per_label: 6,
            val_per_label: 3,
            test_per_label: 3,
            seed: 7,
        },
    );
    let mut id = 0;
    record(out, cfg, "provider_shard_2x6_3_3", 1.0, "shards/s", || {
        id = (id + 7_919) % 100_000;
        provider.shard(id, true)
    });
}

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// `--json PATH` argument, if present.
fn json_path() -> Option<String> {
    arg_value("--json")
}

/// `--compare PATH` argument, if present: a committed baseline JSON
/// whose `speedups` map the fresh run is diffed against.
fn compare_path() -> Option<String> {
    arg_value("--compare")
}

fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Fraction a speedup ratio may fall below its baseline before the
/// comparison warns. Wall-clock on shared runners is noisy; this gate is
/// advisory (it never changes the exit code), so it is deliberately wide.
const REGRESSION_TOLERANCE: f64 = 0.25;

/// Pulls `"key": number` pairs out of the baseline's `speedups` object.
/// Hand-rolled like the writer — the harness stays dependency-free.
fn parse_baseline_speedups(text: &str) -> Vec<(String, f64)> {
    let Some(at) = text.find("\"speedups\"") else { return Vec::new() };
    let Some(open) = text[at..].find('{') else { return Vec::new() };
    let body = &text[at + open + 1..];
    let body = &body[..body.find('}').unwrap_or(body.len())];
    let mut out = Vec::new();
    for entry in body.split(',') {
        let mut halves = entry.splitn(2, ':');
        let (Some(key), Some(val)) = (halves.next(), halves.next()) else { continue };
        let key = key.trim().trim_matches('"');
        if let Ok(v) = val.trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

/// Diffs the fresh speedups against the committed baseline. Purely
/// advisory: regressions print a warning block but never fail the run —
/// CI machines have no stable clock, so the committed numbers (recorded
/// on a quiet machine) stay authoritative.
fn compare_speedups(path: &str, fresh: &[(String, f64)]) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("compare: could not read baseline {path}: {e}");
            return;
        }
    };
    let baseline = parse_baseline_speedups(&text);
    if baseline.is_empty() {
        eprintln!("compare: no `speedups` map found in {path}");
        return;
    }
    println!("\n-- speedups vs committed baseline ({path}) --");
    let mut regressions = 0;
    let mut unmeasured: Vec<&str> = Vec::new();
    for (name, base) in &baseline {
        let Some((_, now)) = fresh.iter().find(|(n, _)| n == name) else {
            println!("  {name:<34} baseline {base:>6.2}x  (not measured this run)");
            unmeasured.push(name);
            continue;
        };
        let floor = base * (1.0 - REGRESSION_TOLERANCE);
        let verdict = if *now < floor { "WARN: >25% below baseline" } else { "ok" };
        println!("  {name:<34} baseline {base:>6.2}x  now {now:>6.2}x  {verdict}");
        if *now < floor {
            regressions += 1;
        }
    }
    let mut fresh_only: Vec<&str> = Vec::new();
    for (name, _) in fresh {
        if !baseline.iter().any(|(n, _)| n == name) {
            println!("  {name:<34} new this run — not in the committed baseline");
            fresh_only.push(name);
        }
    }
    if !fresh_only.is_empty() {
        // Aggregate mirror of the per-row lines above: rows the bench now
        // produces that the committed baseline has never recorded. Loud on
        // stderr so a CI log scan catches a stale BENCH_micro.json.
        eprintln!(
            "compare: warning: {} fresh speedup(s) absent from the committed baseline: {} \
             — regenerate BENCH_micro.json to record them",
            fresh_only.len(),
            fresh_only.join(", ")
        );
    }
    if !unmeasured.is_empty() {
        // Baseline rows this run never produced (e.g. rows added to
        // BENCH_micro.json by a newer bench): warn by name rather than
        // skewing the verdict below or panicking on the lookup.
        eprintln!(
            "compare: warning: {} baseline speedup(s) missing from this run: {}",
            unmeasured.len(),
            unmeasured.join(", ")
        );
    }
    if regressions > 0 {
        println!(
            "compare: {regressions} speedup(s) regressed more than 25% — advisory only; \
             rerun on a quiet machine and refresh BENCH_micro.json if it reproduces"
        );
    } else if unmeasured.is_empty() {
        println!("compare: all speedups within 25% of the committed baseline");
    } else {
        println!("compare: measured speedups within 25% of the committed baseline");
    }
}

fn write_json(path: &str, records: &[Record], speedups: &[(String, f64)]) {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut s = format!("{{\n  \"cores\": {cores},\n  \"benches\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {:.0}, \"throughput\": {:.3e}, \
             \"unit\": \"{}\"}}{}\n",
            r.name,
            r.median_ns,
            r.throughput,
            r.unit,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"speedups\": {\n");
    for (i, (name, ratio)) in speedups.iter().enumerate() {
        s.push_str(&format!(
            "    \"{name}\": {ratio:.2}{}\n",
            if i + 1 < speedups.len() { "," } else { "" }
        ));
    }
    s.push_str("  }\n}\n");
    if let Err(e) = std::fs::write(path, s) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(2);
    }
    println!("\nwrote {path}");
}

fn main() {
    let cfg = if smoke_mode() { Config::smoke() } else { Config::full() };
    let mut records = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();

    println!("-- dense kernels: blocked vs naive --");
    // 128x128x128 plus the two LeNet-5 batch-fused im2col products
    // ([Cout, C*K*K] x [C*K*K, N*Hout*Wout] at N=32).
    for (label, shape) in [
        ("128", (128, 128, 128)),
        ("lenet_conv1_b32", (6, 75, 32 * 28 * 28)),
        ("lenet_conv2_b32", (16, 150, 32 * 10 * 10)),
    ] {
        let ratio = bench_gemm_pair(&mut records, cfg, label, shape);
        speedups.push((format!("blocked_vs_naive_{label}"), ratio));
    }

    println!("\n-- LeNet-5 forward: dense vs sparse --");
    let (sparse_ratio, hybrid_ratio, model_cfg) = bench_lenet_forward(&mut records);
    speedups.push(("sparse_p50_vs_dense_forward".to_string(), sparse_ratio));
    speedups.push(("sparse_hy50_vs_dense_forward".to_string(), hybrid_ratio));

    println!("\n-- fused conv + engine loops --");
    bench_conv_fused(&mut records, model_cfg);
    bench_engine_loops(&mut records, cfg);
    bench_client_codecs(&mut records, cfg);

    if let Some(path) = json_path() {
        write_json(&path, &records, &speedups);
    }
    if let Some(path) = compare_path() {
        compare_speedups(&path, &speedups);
    }
}
