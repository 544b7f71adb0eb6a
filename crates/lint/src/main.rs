//! CLI for the in-repo linter.
//!
//! ```text
//! subfed-lint check [--root DIR] [--format text|json]   # exit 1 on findings
//! subfed-lint certify [--root DIR] [--json]             # panic-freedom certificate
//! subfed-lint conform [FILE [FILE2]] [--format text|json] # verify JSONL trace(s)
//! subfed-lint rules                                     # print the catalog
//! ```
//!
//! `check` parses the scanned crates once and runs every rule over that
//! parse: the token/scope rules, the call-graph dataflow rules
//! (hot-path allocation freedom, the `take_scratch` write-before-read
//! contract, per-batch pattern rebuilds), the interprocedural
//! concurrency rules (lock-order cycles, allocation under a held guard,
//! guards held across spawn/join), the determinism taint rules
//! (unseeded or colliding RNG seeds, wall-clock reads, arrival-order
//! float folds), and the totality rules (panic sources, overflow-prone
//! length math, and swallowed errors on the certified-total paths). It
//! exits 1 on unsuppressed findings.
//!
//! `certify` condenses the totality walk into the per-entry
//! panic-freedom certificate: one line (or JSON object) per entry in
//! `TOTAL_ENTRIES` plus every `// lint: total`-marked function, carrying
//! the verdict, the unsuppressed witness count, and the counted-allow
//! count. Exit 0 only when every entry is `panic-free`; CI regenerates
//! the `--json` form and diffs it against the committed `CERTIFIED.json`.
//!
//! `conform` replays a `--trace` JSONL log (from FILE, or stdin when FILE
//! is absent or `-`) against the executable round-protocol spec and exits
//! 0 when the trace conforms, 1 on protocol violations, 2 when the input
//! could not be read or parsed. With a second FILE it additionally runs
//! the replay-identity gate: both traces must conform *and* be the same
//! run — canonical event streams and per-round `model_hash` fingerprints
//! bit-for-bit equal (see `docs/PROTOCOL.md` § "Replay identity").

use std::io::BufReader;
use std::path::PathBuf;
use std::process::ExitCode;
use subfed_lint::rules::rule_description;
use subfed_lint::{
    certify_workspace, check_workspace, find_workspace_root, render_certificates_json,
    verify_reader, verify_replay_pair, ALL_RULES,
};

fn usage() -> &'static str {
    "usage: subfed-lint <check|certify|conform|rules> [FILE [FILE2]] [--root DIR] \
     [--format text|json] [--json]"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "rules" => {
            for rule in ALL_RULES {
                println!("{rule:<18} {}", rule_description(rule));
            }
            ExitCode::SUCCESS
        }
        "check" => run_check(&args[1..]),
        "certify" => run_certify(&args[1..]),
        "conform" => run_conform(&args[1..]),
        other => {
            eprintln!("unknown command `{other}`\n{}", usage());
            ExitCode::from(2)
        }
    }
}

fn run_conform(flags: &[String]) -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut format = "text".to_string();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some(v @ ("text" | "json")) => format = v.to_string(),
                _ => {
                    eprintln!("--format must be text or json\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            other if !other.starts_with("--") && files.len() < 2 => {
                files.push(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown flag `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let open = |path: &std::path::Path| match std::fs::File::open(path) {
        Ok(f) => Some(BufReader::new(f)),
        Err(e) => {
            eprintln!("cannot open {}: {e}", path.display());
            None
        }
    };
    let report = match files.as_slice() {
        // Two traces: the replay-identity gate.
        [a, b] => match (open(a), open(b)) {
            (Some(ra), Some(rb)) => verify_replay_pair(ra, rb),
            _ => return ExitCode::from(2),
        },
        [path] if *path != std::path::Path::new("-") => match open(path) {
            Some(r) => verify_reader(r),
            None => return ExitCode::from(2),
        },
        _ => verify_reader(std::io::stdin().lock()),
    };
    if format == "json" {
        for v in &report.violations {
            println!("{}", v.to_json());
        }
    } else {
        for e in &report.parse_errors {
            eprintln!("conform: {e}");
        }
        for v in &report.violations {
            println!("{}", v.render());
        }
        print!("{}", report.summary());
    }
    ExitCode::from(report.exit_code())
}

fn run_certify(flags: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--root needs a value\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            other => {
                eprintln!("unknown flag `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.map_or_else(workspace_root, Ok) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (certs, files) = match certify_workspace(&root) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", render_certificates_json(&certs));
    } else {
        let width = certs.iter().map(|c| c.entry.len()).max().unwrap_or(0);
        for c in &certs {
            println!(
                "{:<width$}  {:<16}  witnesses={}  allows={}",
                c.entry, c.verdict, c.witnesses, c.allows
            );
        }
        let free = certs.iter().filter(|c| c.verdict == "panic-free").count();
        println!("{free}/{} entry points panic-free across {files} files", certs.len());
    }
    if certs.iter().all(|c| c.verdict == "panic-free") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn workspace_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read current dir: {e}"))?;
    find_workspace_root(&cwd)
}

fn run_check(flags: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = "text".to_string();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--root needs a value\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some(v @ ("text" | "json")) => format = v.to_string(),
                _ => {
                    eprintln!("--format must be text or json\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.map_or_else(workspace_root, Ok) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = match check_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let live = report.unsuppressed();
    if format == "json" {
        for f in &report.findings {
            println!("{}", f.to_json());
        }
    } else {
        for f in &live {
            println!("{}", f.render());
        }
        print!("{}", report.summary());
    }
    if live.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
