//! Runs every workload in `--smoke` mode, untraced and traced, and checks
//! that each run passes all of its checks and ends with a well-formed
//! result line.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["un90-lenet", "hy-cnn5-eval", "registry-100k"];

/// Runs the benchmark binary and returns its exit status and stdout.
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_subfed-roundbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

fn smoke(workload: &str, trace: &str) {
    let (ok, stdout) = run(&["--workload", workload, "--seed", "7", "--trace", trace, "--smoke"]);
    assert!(ok, "{workload} trace {trace} failed:\n{stdout}");
    assert!(!stdout.contains("CHECK FAILED"), "{workload} trace {trace}:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    let expected: &[&str] = if trace == "0" {
        &["rounds_per_s", "setup_s", "peak_rss_mb", "comm_mb", "final_acc"]
    } else {
        &["nn.conv1.fwd_us.dense", "core.registry.mask_flat_us_p50", "core.round.untraced_share"]
    };
    for name in expected {
        assert!(last.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing from {last}");
    }
    if trace == "1" {
        assert!(stdout.contains("untraced remainder"), "no untraced row:\n{stdout}");
        assert!(
            stdout.contains("every replayed target update equals train_client_ws bit for bit"),
            "no replay check:\n{stdout}"
        );
    }
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for w in WORKLOADS {
        smoke(w, "0");
    }
}

#[test]
fn every_workload_passes_its_checks_traced() {
    for w in WORKLOADS {
        smoke(w, "1");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "un90-lenet", "--trace", "2"][..],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a result: {stdout}");
    }
}
