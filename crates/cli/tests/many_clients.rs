//! `subfed run` and `subfed info` above 20 clients. Each stand-in dataset
//! holds 600 training examples per 20 clients, so every client still gets
//! its two 15-example shards; these commands exit 0 instead of panicking.
//! Above the `--clients` cap they exit 2 before synthesizing anything.

use std::process::{Command, Output};

fn subfed(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_subfed"))
        .args(args.split_whitespace())
        .output()
        .expect("the subfed binary starts")
}

fn assert_exits_0(args: &str, expect_in_stdout: &str) {
    let out = subfed(args);
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "`subfed {args}` exited {:?}: {stderr}", out.status.code());
    assert!(stdout.contains(expect_in_stdout), "`subfed {args}` printed: {stdout}");
}

#[test]
fn run_with_21_clients_exits_0() {
    assert_exits_0("run --clients 21 --rounds 1 --epochs 1 --seed 5", "21 clients, 1 rounds");
}

#[test]
fn run_with_100_clients_exits_0() {
    assert_exits_0("run --clients 100 --rounds 1 --epochs 1 --seed 5", "100 clients, 1 rounds");
}

#[test]
fn info_with_100_clients_exits_0() {
    assert_exits_0("info --clients 100 --seed 5", "mean labels per client");
}

fn assert_exits_2(args: &str, expect_in_stderr: &str) {
    let out = subfed(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "`subfed {args}`: {stderr}");
    assert!(stderr.contains(expect_in_stderr), "`subfed {args}` printed: {stderr}");
}

#[test]
fn a_million_clients_exit_2_and_point_to_the_registry() {
    let msg = "--clients must be at most 1000, got 1000000; register a larger population \
               with `subfed run --num-clients N`";
    assert_exits_2("run --clients 1000000", msg);
    assert_exits_2("info --clients 1000000", msg);
}
