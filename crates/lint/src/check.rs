//! Driver for `subfed-lint check`: parse every library source once, run
//! every rule over that one parse, then apply and audit suppressions.
//!
//! Each file's [`SourceFile`] feeds the token and scope rules
//! ([`crate::rules`], [`crate::scope`]) and the call-graph rules (the
//! [`crate::dataflow`], [`crate::locks`], [`crate::taint`] and
//! [`crate::totality`] analyses), which see the whole workspace at once
//! because hot-path reachability and the lock-order graph are
//! cross-crate. One suppression pass then marks every finding that a
//! `// lint: allow(rule)` on its line or the line above covers, and one
//! audit reports each directive that covers no finding of its rule as
//! [`STALE_ALLOW`], whichever rule it names. The same audit checks
//! `// lint: hot`/`cold`/`total` markers: a marker that attaches to no
//! function (the `fn` on its own line or the line below), or a
//! `hot`/`total` marker on a function that is already a built-in hot or
//! total entry, is reported as [`STALE_ALLOW`], because a drifted marker
//! silently widens or narrows the analyzed entry sets.

use crate::callgraph::{CallGraph, SourceFile, HOT_ENTRIES};
use crate::lexer::MarkerKind;
use crate::rules::{token_findings, Finding, ALL_RULES, STALE_ALLOW};
use crate::summaries::Summaries;
use crate::totality::TOTAL_ENTRIES;
use crate::walk::parse_workspace;
use std::path::Path;

/// The outcome of one full workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, suppressed ones included.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings not silenced by an allow comment.
    pub fn unsuppressed(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.suppressed).collect()
    }

    /// `(total, suppressed)` counts per rule id, in catalog order.
    pub fn per_rule_counts(&self) -> Vec<(&'static str, usize, usize)> {
        ALL_RULES
            .iter()
            .map(|&rule| {
                let total = self.findings.iter().filter(|f| f.rule == rule).count();
                let sup = self.findings.iter().filter(|f| f.rule == rule && f.suppressed).count();
                (rule, total, sup)
            })
            .collect()
    }

    /// The summary table printed after the findings.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("scanned {} files\n", self.files_scanned));
        for (rule, total, sup) in self.per_rule_counts() {
            s.push_str(&format!("  {rule:<18} {:>3} finding(s), {sup} allowed\n", total));
        }
        let live = self.unsuppressed().len();
        if live == 0 {
            s.push_str("clean: no unsuppressed findings\n");
        } else {
            s.push_str(&format!("{live} unsuppressed finding(s)\n"));
        }
        s
    }
}

/// Runs every rule over `(label, source)` pairs, parsing each once.
pub fn check_sources(inputs: &[(String, String)]) -> Vec<Finding> {
    let files: Vec<SourceFile> =
        inputs.iter().map(|(label, text)| SourceFile::parse(label, text)).collect();
    check_files(&files)
}

/// Runs every rule over parsed files, then the suppression pass and the
/// stale-directive audit. Findings come back sorted by file, line and
/// rule, suppressed ones included and flagged.
fn check_files(files: &[SourceFile]) -> Vec<Finding> {
    let graph = CallGraph::build(files);
    let summaries = Summaries::build(files, &graph);
    let mut findings: Vec<Finding> = files.iter().flat_map(token_findings).collect();
    findings.extend(crate::dataflow::dataflow_findings(files, &graph));
    findings.extend(crate::locks::lock_findings(files, &graph, &summaries));
    findings.extend(crate::taint::taint_findings(files, &graph, &summaries));
    findings.extend(crate::totality::totality_findings(files, &graph));

    for f in &mut findings {
        let Some(file) = files.iter().find(|s| s.label == f.file) else { continue };
        f.suppressed = file.lexed.allows.iter().any(|a| a.covers(f.line, f.rule));
    }
    for file in files {
        audit_directives(file, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Stale-suppression audit plus the marker attachment audit, one file at
/// a time. Stale findings are appended only after the file's directives
/// are judged, so an `allow(stale-allow)` can never earn its keep.
fn audit_directives(file: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    let test_lines: Vec<(usize, usize)> =
        file.test_ranges.iter().map(|&(lo, hi)| (toks[lo].line, toks[hi].line)).collect();
    let in_test_lines = |line: usize| test_lines.iter().any(|&(lo, hi)| line >= lo && line <= hi);

    let mut stale = Vec::new();
    for a in &file.lexed.allows {
        // Test-module findings are never computed, so directives there
        // are exempt.
        if in_test_lines(a.line) {
            continue;
        }
        for rule in &a.rules {
            let earns_keep = findings
                .iter()
                .any(|f| f.file == file.label && f.rule == rule.as_str() && a.covers(f.line, rule));
            if !earns_keep {
                stale.push(Finding {
                    file: file.label.clone(),
                    line: a.line,
                    rule: STALE_ALLOW,
                    message: format!(
                        "allow({rule}) suppresses nothing here; remove the stale directive"
                    ),
                    suppressed: false,
                });
            }
        }
    }
    for m in &file.lexed.markers {
        if in_test_lines(m.line) {
            continue;
        }
        let attached =
            file.defs.iter().find(|d| m.line == d.item.line || m.line + 1 == d.item.line);
        match attached {
            None => stale.push(Finding {
                file: file.label.clone(),
                line: m.line,
                rule: STALE_ALLOW,
                message: "lint: hot/cold/total marker attaches to no function (it must sit \
                          on the fn's line or the line above); move or remove it"
                    .to_string(),
                suppressed: false,
            }),
            // A `hot`/`total` marker on a built-in entry widens nothing:
            // it is dead weight that would silently stop protecting the
            // function if the entry list ever changed.
            Some(d) if m.kind == MarkerKind::Hot && HOT_ENTRIES.contains(&d.item.name.as_str()) => {
                stale.push(Finding {
                    file: file.label.clone(),
                    line: m.line,
                    rule: STALE_ALLOW,
                    message: format!(
                        "lint: hot marker is redundant: `{}` is a built-in hot entry \
                         point; remove the marker",
                        d.item.name
                    ),
                    suppressed: false,
                });
            }
            Some(d)
                if m.kind == MarkerKind::Total
                    && TOTAL_ENTRIES.contains(&d.qualified().as_str()) =>
            {
                stale.push(Finding {
                    file: file.label.clone(),
                    line: m.line,
                    rule: STALE_ALLOW,
                    message: format!(
                        "lint: total marker is redundant: `{}` is a built-in total entry \
                         point; remove the marker",
                        d.qualified()
                    ),
                    suppressed: false,
                });
            }
            Some(_) => {}
        }
    }
    findings.extend(stale);
}

/// Runs every rule over the library sources of
/// [`CRATES`](crate::walk::CRATES) under `root`.
///
/// # Errors
///
/// Returns a message when a source tree cannot be read.
#[must_use = "the report carries the findings and the exit status"]
pub fn check_workspace(root: &Path) -> Result<Report, String> {
    let files = parse_workspace(root)?;
    Ok(Report { findings: check_files(&files), files_scanned: files.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::{HOT_PATH_ALLOC, SCRATCH_BEFORE_READ};

    fn one(src: &str) -> Vec<Finding> {
        check_sources(&[("fixture.rs".to_string(), src.to_string())])
    }

    fn live(src: &str) -> Vec<Finding> {
        one(src).into_iter().filter(|f| !f.suppressed).collect()
    }

    #[test]
    fn allow_suppresses_a_dataflow_finding() {
        let src = "pub fn forward_ws() {\n\
                   let v = Vec::new(); // lint: allow(hot-path-alloc)\n\
                   }";
        let all = one(src);
        assert_eq!(all.len(), 1);
        assert!(all[0].suppressed, "{all:?}");
        assert!(live(src).is_empty());
    }

    #[test]
    fn one_pass_audits_token_and_call_graph_allows_alike() {
        let src = "pub fn cold_fn() {\n\
                   let v = Vec::new(); // lint: allow(hot-path-alloc)\n\
                   let k = 2; // lint: allow(float-eq)\n\
                   }";
        // `cold_fn` is not hot and compares no float, so both directives
        // are stale, and one call reports each exactly once.
        let fs = live(src);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == STALE_ALLOW), "{fs:?}");
        assert_eq!((fs[0].line, fs[1].line), (2, 3), "{fs:?}");
        assert!(fs[0].message.contains("allow(hot-path-alloc)"), "{fs:?}");
        assert!(fs[1].message.contains("allow(float-eq)"), "{fs:?}");
    }

    #[test]
    fn orphan_marker_is_flagged_and_attached_marker_is_not() {
        let attached = "// lint: cold\nfn setup() {}";
        assert!(live(attached).is_empty(), "{:?}", live(attached));
        let orphan = "// lint: cold\n\nfn setup() {}";
        let fs = live(orphan);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, STALE_ALLOW);
        assert!(fs[0].message.contains("marker"));
    }

    #[test]
    fn cross_file_reachability_is_analyzed_in_one_graph() {
        let core = "pub fn train_client_ws() { helper_step(); }".to_string();
        let tensor = "pub fn helper_step() { let v = data.to_vec(); }".to_string();
        let fs = check_sources(&[("core.rs".to_string(), core), ("tensor.rs".to_string(), tensor)]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, HOT_PATH_ALLOC);
        assert_eq!(fs[0].file, "tensor.rs");
        assert!(fs[0].message.contains("train_client_ws"));
    }

    #[test]
    fn scratch_rule_fires_regardless_of_heat() {
        let src = "fn anywhere(ws: &mut W) { let b = ws.take_scratch(n); read(&b); }";
        let fs = live(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, SCRATCH_BEFORE_READ);
    }
}
