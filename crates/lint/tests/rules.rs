//! Fixture-driven integration tests: every rule's positive and negative
//! case, pragma handling, and the registry-drift detector.
//!
//! Fixtures live under `tests/fixtures/` — plain `.rs` files cargo never
//! compiles (only top-level `tests/*.rs` are test targets) and the real
//! workspace walk never lints (`classify` skips `crates/lint/tests/`).

use noc_lint::registry::{check_registry, RegistrySpec};
use noc_lint::report::Finding;
use noc_lint::rules::{check_file, RuleSet};
use noc_lint::source::SourceFile;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lint one fixture as library code; returns (findings, suppressed).
fn lint_fixture(name: &str) -> (Vec<Finding>, usize) {
    let path = fixture_dir().join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let file = SourceFile::parse(name, &src);
    let mut findings = Vec::new();
    let mut suppressed = 0;
    check_file(&file, RuleSet::LIB, false, &mut findings, &mut suppressed);
    (findings, suppressed)
}

fn count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn wall_clock_positive() {
    let (findings, _) = lint_fixture("wall_clock_bad.rs");
    // use-import + Instant::now + two SystemTime mentions.
    assert_eq!(count(&findings, "wall-clock"), 4, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "wall-clock"));
}

#[test]
fn wall_clock_negative() {
    let (findings, _) = lint_fixture("wall_clock_ok.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unordered_iter_positive() {
    let (findings, _) = lint_fixture("unordered_bad.rs");
    // for-loop over field, keys() chain, into_iter on a HashSet param.
    assert_eq!(count(&findings, "unordered-iter"), 3, "{findings:?}");
}

#[test]
fn unordered_iter_negative() {
    let (findings, _) = lint_fixture("unordered_ok.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn thread_discipline_positive() {
    let (findings, _) = lint_fixture("thread_bad.rs");
    // Mutex ×2 (import + construction), Condvar ×2, thread::spawn.
    assert_eq!(count(&findings, "thread-discipline"), 5, "{findings:?}");
}

#[test]
fn unsafe_discipline_positive() {
    let (findings, _) = lint_fixture("safety_bad.rs");
    // unsafe impl, unsafe fn, its body block, and the caller's block.
    assert_eq!(count(&findings, "unsafe-discipline"), 4, "{findings:?}");
}

#[test]
fn unsafe_discipline_negative() {
    let (findings, _) = lint_fixture("safety_ok.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unwrap_justify_positive() {
    let (findings, _) = lint_fixture("unwrap_bad.rs");
    // A bare unwrap and an expect with a computed message.
    assert_eq!(count(&findings, "unwrap-justify"), 2, "{findings:?}");
}

#[test]
fn unwrap_justify_negative_with_pragma() {
    let (findings, suppressed) = lint_fixture("unwrap_ok.rs");
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(
        suppressed, 1,
        "the justified pragma must suppress exactly one finding"
    );
}

#[test]
fn pragma_hygiene() {
    let (findings, _) = lint_fixture("pragma_unexplained.rs");
    // Reasonless allow is rejected (a `pragma` finding) so the unwrap it
    // hoped to cover still fires; the dead wall-clock allow is `pragma` too.
    assert_eq!(count(&findings, "pragma"), 2, "{findings:?}");
    assert_eq!(count(&findings, "unwrap-justify"), 1, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("no reason")));
    assert!(findings.iter().any(|f| f.message.contains("unused")));
}

#[test]
fn registry_in_sync_passes() {
    let mut findings = Vec::new();
    check_registry(
        &fixture_dir().join("registry_ok"),
        &RegistrySpec::default(),
        &mut findings,
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn registry_drift_fails_on_every_surface() {
    let mut findings = Vec::new();
    check_registry(
        &fixture_dir().join("registry_drift"),
        &RegistrySpec::default(),
        &mut findings,
    );
    let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(findings.iter().all(|f| f.rule == "registry-drift"));
    // Arity mismatch: enum grew to 3, ALL still says 2.
    assert!(
        msgs.iter()
            .any(|m| m.contains("arity 2") && m.contains("3 variants")),
        "{msgs:?}"
    );
    // The new variant is missing from ALL's initialiser…
    assert!(
        msgs.iter()
            .any(|m| m.contains("`Deflection` appears 0 times")),
        "{msgs:?}"
    );
    // …has no conformance test…
    assert!(
        msgs.iter()
            .any(|m| m.contains("deflection_fabric_conforms")),
        "{msgs:?}"
    );
    // …and the sweep bin sweeps a hand-written list.
    assert_eq!(
        msgs.iter()
            .filter(|m| m.contains("does not sweep `FabricKind::ALL`"))
            .count(),
        1,
        "{msgs:?}"
    );
    // fabric_bench::summary covers all three variants, so no finding names it.
    assert!(!msgs.iter().any(|m| m.contains("summary")), "{msgs:?}");
    // Chiplet registry drift: the builder knob exists but `build_controlled`
    // bypasses the grid, and neither the conformance suite nor the sweep
    // bin instantiates the hierarchy.
    assert!(
        msgs.iter()
            .any(|m| m.contains("`build_controlled()` ignores the builder's chiplet grid")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("no `ChipletFabric` conformance instantiation")),
        "{msgs:?}"
    );
    assert_eq!(
        msgs.iter()
            .filter(|m| m.contains("does not cover `ChipletFabric`"))
            .count(),
        1,
        "{msgs:?}"
    );
    // Builder knobs: `packet_words` is set only from a test file and a
    // `#[cfg(test)]` module, so it is flagged; `chiplets` has a library
    // caller and the two build paths are exempt.
    let knobs: Vec<&str> = msgs
        .iter()
        .copied()
        .filter(|m| m.starts_with("builder knob"))
        .collect();
    assert_eq!(knobs.len(), 1, "{knobs:?}");
    assert!(knobs[0].contains("`packet_words`"), "{knobs:?}");
}

/// The real tree must lint clean — this is the same gate CI runs, kept as
/// a test so `cargo test` alone catches a regression that sneaks in
/// without the lint step.
#[test]
fn real_workspace_is_clean() {
    // crates/lint/ -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf();
    let cfg = noc_lint::Config::new(root);
    let report = noc_lint::run_workspace(&cfg);
    assert!(
        report.is_clean(),
        "workspace lint findings:\n{}",
        report.render_human()
    );
    assert!(
        report.files_scanned > 100,
        "walk looks truncated: {} files",
        report.files_scanned
    );
}
