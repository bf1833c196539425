//! noc-lint: a domain-specific static analyzer for this workspace.
//!
//! Every reproducibility gate the repo lives by — bit-identical replay
//! across `ParPolicy`s, snapshot/restore equality, the pinned perfbench
//! fingerprints — rests on invariants the compiler does not check: no wall
//! clock in the simulation core, no iteration over unordered maps on
//! stepping or reporting paths, no threading outside `noc_sim::par`,
//! documented `unsafe`, justified panics, and a fabric registry whose four
//! surfaces stay in sync. This crate makes those invariants machine-checked.
//!
//! Run it as `cargo run -p noc-lint -- --deny`. See ARCHITECTURE.md
//! ("Static analysis") for the ruleset, the pragma syntax, and how to add
//! a rule.

pub mod lexer;
pub mod registry;
pub mod report;
pub mod rules;
pub mod source;

use registry::RegistrySpec;
use report::{Finding, Report};
use rules::RuleSet;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// What to lint and how.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory holding the top-level `Cargo.toml`).
    pub root: PathBuf,
    /// Exit non-zero when findings exist (recorded in the report).
    pub deny: bool,
    /// Run the cross-file registry-drift check (D6).
    pub registry: bool,
    /// Registry surface paths, relative to `root`.
    pub registry_spec: RegistrySpec,
}

impl Config {
    pub fn new(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            deny: false,
            registry: true,
            registry_spec: RegistrySpec::default(),
        }
    }
}

/// How a file is classified, which decides the rules that apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library crates: the full deterministic ruleset.
    Lib,
    /// Bench bins and the linter itself: wall clock and unwraps allowed.
    Tool,
    /// Integration tests and examples: deterministic but free to unwrap.
    Test,
    /// Vendored deps, build outputs, lint fixtures: not ours to lint.
    Skip,
}

/// The library crates whose `src/` trees get the full deterministic
/// ruleset. `crates/bench` is deliberately absent (Tool), as is
/// `crates/lint` itself.
const LIB_CRATES: &[&str] = &["sim", "core", "packet", "power", "mesh", "apps", "exp"];

/// Classify a workspace-relative path (always `/`-separated).
pub fn classify(rel: &str) -> FileClass {
    if rel.starts_with("vendor/")
        || rel.starts_with("target/")
        || rel.contains("/target/")
        || rel.starts_with("crates/lint/tests/")
    {
        return FileClass::Skip;
    }
    if rel.starts_with("crates/bench/") || rel.starts_with("crates/lint/") {
        return FileClass::Tool;
    }
    if rel.starts_with("tests/") || rel.starts_with("examples/") {
        return FileClass::Test;
    }
    for c in LIB_CRATES {
        if rel.starts_with(&format!("crates/{c}/src/")) {
            return FileClass::Lib;
        }
        if rel.starts_with(&format!("crates/{c}/tests/"))
            || rel.starts_with(&format!("crates/{c}/examples/"))
            || rel.starts_with(&format!("crates/{c}/benches/"))
        {
            return FileClass::Test;
        }
    }
    if rel.starts_with("src/") {
        // The facade crate at the workspace root.
        return FileClass::Lib;
    }
    FileClass::Skip
}

/// Is this file exempt from the thread-discipline rule? Only
/// `noc_sim::par` — the deterministic fork-join pool is the one place
/// threading primitives are allowed to live.
fn d3_exempt(rel: &str) -> bool {
    rel == "crates/sim/src/par.rs"
}

/// Lint the whole workspace under `cfg.root`.
pub fn run_workspace(cfg: &Config) -> Report {
    let mut report = Report {
        deny: cfg.deny,
        ..Report::default()
    };
    let mut files = Vec::new();
    collect_rs_files(&cfg.root, &cfg.root, &mut files);
    files.sort();

    for rel in &files {
        let class = classify(rel);
        let ruleset = match class {
            FileClass::Lib => RuleSet::LIB,
            FileClass::Tool => RuleSet::TOOL,
            FileClass::Test => RuleSet::TEST,
            FileClass::Skip => continue,
        };
        let Ok(src) = std::fs::read_to_string(cfg.root.join(rel)) else {
            continue;
        };
        report.files_scanned += 1;
        let file = SourceFile::parse(rel, &src);
        rules::check_file(
            &file,
            ruleset,
            d3_exempt(rel),
            &mut report.findings,
            &mut report.suppressed,
        );
    }

    if cfg.registry {
        registry::check_registry(&cfg.root, &cfg.registry_spec, &mut report.findings);
    }
    check_manifests(&cfg.root, &mut report.findings);

    report.sort();
    report
}

/// Lints the root manifest must deny under `[workspace.lints.rust]`: every
/// `unsafe fn` body acknowledges each unsafe operation, and no module but
/// the one that allows it (`noc_sim::par`) writes `unsafe` at all.
const DENIED_LINTS: [&str; 2] = ["unsafe_op_in_unsafe_fn", "unsafe_code"];

/// Manifest half of D4: every [`DENIED_LINTS`] entry must be denied
/// workspace-wide, and every workspace crate must opt into the shared
/// lint table so the denies actually reach it.
fn check_manifests(root: &Path, out: &mut Vec<Finding>) {
    match std::fs::read_to_string(root.join("Cargo.toml")) {
        Ok(src) => root_manifest_findings(&src, out),
        Err(_) => out.push(Finding {
            rule: "unsafe-discipline",
            file: "Cargo.toml".into(),
            line: 1,
            message: "workspace Cargo.toml unreadable".into(),
        }),
    }
    // Each member manifest must carry `[lints] workspace = true`.
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return;
    };
    let mut members: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    for member in members {
        let manifest = member.join("Cargo.toml");
        let Ok(src) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let mut in_lints = false;
        let mut ok = false;
        for line in src.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_lints = line == "[lints]";
            } else if in_lints && line.replace(' ', "") == "workspace=true" {
                ok = true;
            }
        }
        if !ok {
            let rel = format!(
                "crates/{}/Cargo.toml",
                member.file_name().unwrap_or_default().to_string_lossy()
            );
            out.push(Finding {
                rule: "unsafe-discipline",
                file: rel,
                line: 1,
                message: "crate does not inherit workspace lints — add `[lints]\\nworkspace = true` so the workspace's unsafe denies apply".into(),
            });
        }
    }
}

/// One finding per [`DENIED_LINTS`] entry the root manifest `src` does
/// not set to `deny`.
fn root_manifest_findings(src: &str, out: &mut Vec<Finding>) {
    for lint in DENIED_LINTS {
        let denied = src.lines().any(|l| {
            l.split_once('=')
                .is_some_and(|(key, level)| key.trim() == lint && level.contains("deny"))
        });
        if !denied {
            out.push(Finding {
                rule: "unsafe-discipline",
                file: "Cargo.toml".into(),
                line: 1,
                message: format!(
                    "workspace does not deny `{lint}` — add it under [workspace.lints.rust]"
                ),
            });
        }
    }
}

/// Recursively collect `.rs` files under `dir` as workspace-relative,
/// `/`-separated paths. Hidden directories, `target/`, and `vendor/` are
/// pruned here so the walk stays cheap; classification handles the rest.
pub(crate) fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || name == "target" || name == "vendor" {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_table() {
        assert_eq!(classify("crates/sim/src/engine.rs"), FileClass::Lib);
        assert_eq!(classify("crates/mesh/src/ccn.rs"), FileClass::Lib);
        assert_eq!(classify("src/lib.rs"), FileClass::Lib);
        assert_eq!(
            classify("crates/bench/src/bin/fabric_compare.rs"),
            FileClass::Tool
        );
        assert_eq!(classify("crates/lint/src/lexer.rs"), FileClass::Tool);
        assert_eq!(classify("tests/determinism.rs"), FileClass::Test);
        assert_eq!(classify("examples/fig9_sweep.rs"), FileClass::Test);
        assert_eq!(classify("crates/exp/tests/roundtrip.rs"), FileClass::Test);
        assert_eq!(classify("vendor/criterion/src/lib.rs"), FileClass::Skip);
        assert_eq!(
            classify("crates/lint/tests/fixtures/bad.rs"),
            FileClass::Skip
        );
        assert_eq!(classify("target/debug/build/x.rs"), FileClass::Skip);
    }

    #[test]
    fn root_manifest_must_deny_both_unsafe_lints() {
        let both =
            "[workspace.lints.rust]\nunsafe_op_in_unsafe_fn = \"deny\"\nunsafe_code = \"deny\"\n";
        let mut out = Vec::new();
        root_manifest_findings(both, &mut out);
        assert!(out.is_empty(), "{out:?}");

        let without = "[workspace.lints.rust]\nunsafe_op_in_unsafe_fn = \"deny\"\n";
        root_manifest_findings(without, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "unsafe-discipline");
        assert!(out[0].message.contains("`unsafe_code`"), "{out:?}");

        out.clear();
        let warned =
            "[workspace.lints.rust]\nunsafe_op_in_unsafe_fn = \"deny\"\nunsafe_code = \"warn\"\n";
        root_manifest_findings(warned, &mut out);
        assert_eq!(out.len(), 1, "a warn level is not a deny: {out:?}");
    }

    #[test]
    fn par_is_the_only_d3_exemption() {
        assert!(d3_exempt("crates/sim/src/par.rs"));
        assert!(!d3_exempt("crates/sim/src/engine.rs"));
        assert!(!d3_exempt("crates/packet/src/router.rs"));
    }
}
