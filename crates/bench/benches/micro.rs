//! Micro-benchmarks of the engine's hot paths, with a committed baseline.
//!
//! Unlike the table/figure benches (which regenerate paper artifacts),
//! this target measures *kernels*: blocked vs naive matmul at 128×128 and
//! the LeNet im2col shapes, the LeNet-5 forward pass dense vs sparse at
//! 0/30/50/70/90 % unstructured pruning, the batch-fused Conv2d
//! forward+backward under a reused [`Workspace`], and the aggregation /
//! mask hot loops the seed benchmarked.
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
//! `--compare` diffs the fresh `speedups` against a committed baseline
//! and prints an advisory warning when a ratio falls more than 25% below
//! it; the exit code never changes, because shared CI runners have no
//! stable clock.
//!
//! The JSON carries the host's core count (`cores`, from
//! `std::thread::available_parallelism`; 0 when unknown), one record per
//! bench (`name`, `median_ns`, `throughput`, `unit`) plus a `speedups`
//! map with the ratios `docs/PERFORMANCE.md` quotes (blocked-vs-naive,
//! sparse-vs-dense).

use std::hint::black_box;
use std::time::Instant;
use subfed_core::subfedavg_aggregate;
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

/// Measures `f`, returning the median per-call nanoseconds. The closure's
/// return value goes through [`black_box`] so the work cannot be elided.
fn measure<R, F: FnMut() -> R>(cfg: Config, mut f: F) -> f64 {
    // Calibrate: one untimed warm-up call, then size the inner loop so a
    // sample runs for roughly `sample_ns`.
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let iters = (cfg.sample_ns / once).clamp(1, 1_000_000);
    let mut samples: Vec<f64> = (0..cfg.samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn record<R, F: FnMut() -> R>(
    out: &mut Vec<Record>,
    cfg: Config,
    name: &str,
    work: f64,
    unit: &'static str,
    f: F,
) -> f64 {
    let median_ns = measure(cfg, f);
    let throughput = work * 1e9 / median_ns;
    println!("{name:<44} {median_ns:>14.0} ns/call {throughput:>12.3e} {unit}");
    out.push(Record { name: name.to_string(), median_ns, throughput, unit });
    median_ns
}

/// Random dense matrices for a gemm shape.
fn gemm_inputs(m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = SeededRng::new(seed);
    (uniform(&[m, k], -1.0, 1.0, &mut rng), uniform(&[k, n], -1.0, 1.0, &mut rng))
}

/// Blocked vs naive matmul at one shape; returns the speedup.
fn bench_gemm_pair(
    out: &mut Vec<Record>,
    cfg: Config,
    label: &str,
    (m, k, n): (usize, usize, usize),
) -> f64 {
    let (a, b) = gemm_inputs(m, k, n, 7);
    let flops = 2.0 * (m * k * n) as f64;
    let naive = record(out, cfg, &format!("matmul_{label}_naive"), flops, "flop/s", || {
        naive_matmul(&a, &b)
    });
    let blocked =
        record(out, cfg, &format!("matmul_{label}_blocked"), flops, "flop/s", || matmul(&a, &b));
    naive / blocked
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

fn bench_lenet_forward(out: &mut Vec<Record>) -> (f64, f64, Config) {
    // The model-level benches dominate wall-clock; one forward at batch 32
    // is already a long call, so samples can be shorter than the kernel
    // benches without losing the median's stability.
    let cfg =
        if smoke_mode() { Config::smoke() } else { Config { sample_ns: 40_000_000, samples: 7 } };
    let mut rng = SeededRng::new(13);
    let x = uniform(&[32, 3, 32, 32], -1.0, 1.0, &mut rng);

    let mut dense = pruned_lenet(0.0, false);
    let mut ws = Workspace::new();
    let dense_ns = record(out, cfg, "lenet5_fwd_b32_dense", 32.0, "inputs/s", || {
        dense.forward_ws(&x, Mode::Eval, &mut ws)
    });

    let mut sparse50_ns = dense_ns;
    for pct in [30u32, 50, 70, 90] {
        let mut model = pruned_lenet(pct as f32 / 100.0, true);
        let name = format!("lenet5_fwd_b32_sparse_p{pct}");
        let ns =
            record(out, cfg, &name, 32.0, "inputs/s", || model.forward_ws(&x, Mode::Eval, &mut ws));
        if pct == 50 {
            sparse50_ns = ns;
        }
    }
    // The paper's own 50% regime: structured conv channels + unstructured
    // FC weights (Sub-FedAvg Hy). Structured rows vanish from the
    // compressed pattern entirely, so this is the headline sparse number.
    let mut hybrid = hybrid_lenet(0.5);
    let hy50_ns = record(out, cfg, "lenet5_fwd_b32_sparse_hy50", 32.0, "inputs/s", || {
        hybrid.forward_ws(&x, Mode::Eval, &mut ws)
    });
    (dense_ns / sparse50_ns, dense_ns / hy50_ns, cfg)
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
        println!("  blocked vs naive at {label}: {ratio:.2}x");
        speedups.push((format!("blocked_vs_naive_{label}"), ratio));
    }

    println!("\n-- LeNet-5 forward: dense vs sparse --");
    let (sparse_ratio, hybrid_ratio, model_cfg) = bench_lenet_forward(&mut records);
    println!("  sparse p50 (unstructured) vs dense forward: {sparse_ratio:.2}x");
    println!("  sparse hy50 (structured+unstructured) vs dense forward: {hybrid_ratio:.2}x");
    speedups.push(("sparse_p50_vs_dense_forward".to_string(), sparse_ratio));
    speedups.push(("sparse_hy50_vs_dense_forward".to_string(), hybrid_ratio));

    println!("\n-- fused conv + engine loops --");
    bench_conv_fused(&mut records, model_cfg);
    bench_engine_loops(&mut records, cfg);

    if let Some(path) = json_path() {
        write_json(&path, &records, &speedups);
    }
    if let Some(path) = compare_path() {
        compare_speedups(&path, &speedups);
    }
}
