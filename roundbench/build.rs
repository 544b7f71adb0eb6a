//! Records the toolchain and codegen flags the benchmark was built with,
//! so every result line can say what produced it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=ROUNDBENCH_RUSTC={version}");
    // Cargo joins the effective RUSTFLAGS (environment or config file)
    // with 0x1f separators.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let native = flags.split('\x1f').any(|f| f.contains("target-cpu=native"));
    println!("cargo:rustc-env=ROUNDBENCH_TARGET_CPU_NATIVE={native}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
