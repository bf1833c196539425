//! D6: cross-file registry-drift detection.
//!
//! The fabric registry lives in four places that history shows drift apart
//! when a backend is added:
//!
//! 1. `FabricKind` itself — the enum and its `ALL` constant in
//!    `crates/mesh/src/fabric.rs` (the arity is written into the array type,
//!    so a missed entry is a silent truncation, not a compile error).
//! 2. The conformance suite — every variant must have a
//!    `<variant>_fabric_conforms` test in `tests/fabric_conformance.rs`.
//! 3. `fabric_bench`'s `summary()` — the per-kind match in
//!    `crates/exp/src/fabric_bench.rs` must cover every variant.
//! 4. The bench bins — `fabric_compare` and `scale_bench` must sweep
//!    `FabricKind::ALL` (not a hand-maintained subset).
//!
//! The chiplet topology registry is a fifth drift surface with the same
//! failure mode: the hierarchy is reachable from the deployment builder
//! (`.chiplets(cw, ch)`), the conformance suite and both sweep bins, and
//! forgetting any one of them silently un-tests or un-benches the
//! subsystem. The checker ties them together: the builder's `build` and
//! `build_controlled` paths must both consult the chiplet grid, and the
//! conformance suite and every sweep bin must instantiate `ChipletFabric`.
//!
//! The deployment builder's knobs are the sixth surface, with the opposite
//! failure mode: a knob that nothing sets. Every `pub fn` of
//! `impl DeploymentBuilder` other than `build` and `build_controlled` must
//! be called as `.name(` from a library or tool file other than the
//! builder's own. Calls from tests, examples and `#[cfg(test)]` modules do
//! not count — a knob only tests set is surface no workload runs. The
//! match is by token, not by type: a knob that shares its name with any
//! other method (`.mesh(`, `.clock(`, `.seed(`) always passes, so the check
//! catches only knobs with names of their own.
//!
//! The checker parses the enum with the same lexer as every other rule, so
//! it keeps working as the registry grows; the paths are configurable so
//! the fixture suite can point it at deliberately drifted mini-trees.

use crate::lexer::{lex, Tok, Token};
use crate::report::Finding;
use crate::source::SourceFile;
use crate::{classify, collect_rs_files, FileClass};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Where the registry's four surfaces live, relative to the workspace root.
#[derive(Debug, Clone)]
pub struct RegistrySpec {
    pub fabric_rs: PathBuf,
    pub conformance_rs: PathBuf,
    pub fabric_bench_rs: PathBuf,
    pub sweep_bins: Vec<PathBuf>,
    /// The deployment builder — root of the chiplet topology registry.
    pub deployment_rs: PathBuf,
}

impl Default for RegistrySpec {
    fn default() -> Self {
        RegistrySpec {
            fabric_rs: "crates/mesh/src/fabric.rs".into(),
            conformance_rs: "tests/fabric_conformance.rs".into(),
            fabric_bench_rs: "crates/exp/src/fabric_bench.rs".into(),
            sweep_bins: vec![
                "crates/bench/src/bin/fabric_compare.rs".into(),
                "crates/bench/src/bin/scale_bench.rs".into(),
            ],
            deployment_rs: "crates/mesh/src/deployment.rs".into(),
        }
    }
}

/// Run the registry-drift check rooted at `root`. Missing files are
/// findings, not errors: a drifted tree is exactly what this rule exists
/// to catch.
pub fn check_registry(root: &Path, spec: &RegistrySpec, out: &mut Vec<Finding>) {
    let rel = |p: &Path| p.to_string_lossy().into_owned();
    let read = |p: &Path| std::fs::read_to_string(root.join(p)).ok();

    let Some(fabric_src) = read(&spec.fabric_rs) else {
        out.push(drift(
            rel(&spec.fabric_rs),
            1,
            "fabric registry file missing".into(),
        ));
        return;
    };
    let fabric = lex(&fabric_src).tokens;

    let variants = enum_variants(&fabric, "FabricKind");
    if variants.is_empty() {
        out.push(drift(
            rel(&spec.fabric_rs),
            1,
            "no `enum FabricKind` found".into(),
        ));
        return;
    }

    // ALL: arity and per-variant coverage.
    match const_all(&fabric) {
        Some(all) => {
            if all.arity != variants.len() {
                out.push(drift(
                    rel(&spec.fabric_rs),
                    all.line,
                    format!(
                        "`FabricKind::ALL` declares arity {} but the enum has {} variants",
                        all.arity,
                        variants.len()
                    ),
                ));
            }
            for v in &variants {
                let n = all.entries.iter().filter(|e| *e == v).count();
                if n != 1 {
                    out.push(drift(
                        rel(&spec.fabric_rs),
                        all.line,
                        format!("variant `{v}` appears {n} times in `FabricKind::ALL` (expected exactly once)"),
                    ));
                }
            }
        }
        None => out.push(drift(
            rel(&spec.fabric_rs),
            1,
            "no `const ALL: [FabricKind; N]` found".into(),
        )),
    }

    // Conformance suite: one `<snake>_fabric_conforms` test per variant.
    match read(&spec.conformance_rs) {
        Some(src) => {
            let toks = lex(&src).tokens;
            for v in &variants {
                let want = format!("{}_fabric_conforms", snake(v));
                if !toks.iter().any(|t| t.tok.is_ident(&want)) {
                    out.push(drift(
                        rel(&spec.conformance_rs),
                        1,
                        format!("no `{want}` test for variant `{v}`"),
                    ));
                }
            }
        }
        None => out.push(drift(
            rel(&spec.conformance_rs),
            1,
            "conformance suite missing".into(),
        )),
    }

    // fabric_bench::summary must match on every variant.
    match read(&spec.fabric_bench_rs) {
        Some(src) => {
            let toks = lex(&src).tokens;
            match fn_body(&toks, "summary") {
                Some(body) => {
                    for v in &variants {
                        let covered = body.windows(3).any(|w| {
                            w[0].tok.is_ident("FabricKind")
                                && w[1].tok.is_punct("::")
                                && w[2].tok.is_ident(v)
                        });
                        if !covered {
                            out.push(drift(
                                rel(&spec.fabric_bench_rs),
                                1,
                                format!("`summary()` has no arm for `FabricKind::{v}`"),
                            ));
                        }
                    }
                }
                None => out.push(drift(
                    rel(&spec.fabric_bench_rs),
                    1,
                    "no `fn summary` found to check per-kind coverage".into(),
                )),
            }
        }
        None => out.push(drift(
            rel(&spec.fabric_bench_rs),
            1,
            "fabric_bench file missing".into(),
        )),
    }

    // Sweep bins must iterate FabricKind::ALL, not a hand-written subset.
    for bin in &spec.sweep_bins {
        match read(bin) {
            Some(src) => {
                let toks = lex(&src).tokens;
                let sweeps = toks.windows(3).any(|w| {
                    w[0].tok.is_ident("FabricKind")
                        && w[1].tok.is_punct("::")
                        && w[2].tok.is_ident("ALL")
                });
                if !sweeps {
                    out.push(drift(
                        rel(bin),
                        1,
                        "bench bin does not sweep `FabricKind::ALL` — hand-maintained kind lists drift".into(),
                    ));
                }
            }
            None => out.push(drift(rel(bin), 1, "sweep bin missing".into())),
        }
    }

    check_chiplet_registry(root, spec, out);
    check_builder_knobs(root, spec, out);
}

/// Builder knobs nothing sets: each `pub fn` of `impl DeploymentBuilder`
/// except the two build paths must be called as `.name(` outside test code
/// in some Lib- or Tool-class file other than the builder's own. (A missing
/// builder file is reported by the chiplet check.)
fn check_builder_knobs(root: &Path, spec: &RegistrySpec, out: &mut Vec<Finding>) {
    let Ok(deploy_src) = std::fs::read_to_string(root.join(&spec.deployment_rs)) else {
        return;
    };
    let knobs: Vec<(String, u32)> = impl_pub_fns(&lex(&deploy_src).tokens, "DeploymentBuilder")
        .into_iter()
        .filter(|(name, _)| name != "build" && name != "build_controlled")
        .collect();
    if knobs.is_empty() {
        return;
    }
    let deploy_rel = spec.deployment_rs.to_string_lossy().replace('\\', "/");
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files);
    let mut called = BTreeSet::new();
    for rel in &files {
        if *rel == deploy_rel || !matches!(classify(rel), FileClass::Lib | FileClass::Tool) {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(root.join(rel)) else {
            continue;
        };
        let file = SourceFile::parse(rel, &src);
        for w in file.tokens().windows(3) {
            if let (true, Tok::Ident(name), true) =
                (w[0].tok.is_punct("."), &w[1].tok, w[2].tok.is_punct("("))
            {
                if !file.in_test_region(w[1].line) {
                    called.insert(name.clone());
                }
            }
        }
    }
    for (name, line) in knobs {
        if !called.contains(&name) {
            out.push(drift(
                deploy_rel.clone(),
                line,
                format!(
                    "builder knob `{name}` is set by no library or tool file — \
                     call it as `.{name}(` there, or delete it"
                ),
            ));
        }
    }
}

/// The chiplet topology registry: builder arm ↔ conformance instantiation
/// ↔ both sweep bins. The deployment builder is the anchor — once it
/// exposes a `chiplets` knob, every `build*` path must consult the grid
/// and the test/bench surfaces must cover `ChipletFabric`.
fn check_chiplet_registry(root: &Path, spec: &RegistrySpec, out: &mut Vec<Finding>) {
    let rel = |p: &Path| p.to_string_lossy().into_owned();
    let read = |p: &Path| std::fs::read_to_string(root.join(p)).ok();

    let Some(deploy_src) = read(&spec.deployment_rs) else {
        out.push(drift(
            rel(&spec.deployment_rs),
            1,
            "deployment builder file missing".into(),
        ));
        return;
    };
    let deploy = lex(&deploy_src).tokens;
    let has_knob = deploy
        .windows(2)
        .any(|w| w[0].tok.is_ident("fn") && w[1].tok.is_ident("chiplets"));
    if !has_knob {
        out.push(drift(
            rel(&spec.deployment_rs),
            1,
            "deployment builder has no `fn chiplets` arm for the chiplet topology".into(),
        ));
        return;
    }
    // Every build path must consult the grid — a path that ignores it
    // silently deploys a flat fabric for a chiplet request.
    for path in ["build", "build_controlled"] {
        let consults = fn_body(&deploy, path)
            .is_some_and(|body| body.iter().any(|t| t.tok.is_ident("chiplets")));
        if !consults {
            out.push(drift(
                rel(&spec.deployment_rs),
                1,
                format!("`{path}()` ignores the builder's chiplet grid"),
            ));
        }
    }
    // Conformance and both sweep bins must instantiate the hierarchy.
    let covers = |src: &str| {
        lex(src)
            .tokens
            .iter()
            .any(|t| t.tok.is_ident("ChipletFabric"))
    };
    if let Some(src) = read(&spec.conformance_rs) {
        if !covers(&src) {
            out.push(drift(
                rel(&spec.conformance_rs),
                1,
                "no `ChipletFabric` conformance instantiation for the chiplet registry".into(),
            ));
        }
    }
    for bin in &spec.sweep_bins {
        if let Some(src) = read(bin) {
            if !covers(&src) {
                out.push(drift(
                    rel(bin),
                    1,
                    "bench bin does not cover `ChipletFabric` — the chiplet registry drifted"
                        .into(),
                ));
            }
        }
    }
}

fn drift(file: String, line: u32, message: String) -> Finding {
    Finding {
        rule: "registry-drift",
        file,
        line,
        message,
    }
}

/// Variant names of `enum <name> { … }` (unit variants only, which is all
/// the registry uses): idents at brace depth 1 that directly follow `{`,
/// `,`, or a `]` closing an attribute.
fn enum_variants(toks: &[Token], name: &str) -> Vec<String> {
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if toks[i].tok.is_ident("enum") && toks[i + 1].tok.is_ident(name) {
            break;
        }
        i += 1;
    }
    if i + 2 >= toks.len() {
        return Vec::new();
    }
    // Find the opening brace, then walk depth-1 entries.
    let mut j = i + 2;
    while j < toks.len() && !toks[j].tok.is_punct("{") {
        j += 1;
    }
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut expect_variant = false;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct("{") => {
                depth += 1;
                if depth == 1 {
                    expect_variant = true;
                }
            }
            Tok::Punct("}") => {
                depth -= 1;
                if depth == 0 {
                    return variants;
                }
            }
            Tok::Punct(",") if depth == 1 => expect_variant = true,
            Tok::Punct("#") if depth == 1 => {
                // Skip `#[…]` attributes between variants.
                let mut d = 0i32;
                j += 1;
                while j < toks.len() {
                    if toks[j].tok.is_punct("[") {
                        d += 1;
                    } else if toks[j].tok.is_punct("]") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
            }
            Tok::Ident(s) if depth == 1 && expect_variant => {
                variants.push(s.clone());
                expect_variant = false;
            }
            _ => {}
        }
        j += 1;
    }
    variants
}

struct AllConst {
    arity: usize,
    entries: Vec<String>,
    line: u32,
}

/// Parse `const ALL: [FabricKind; N] = [Variant, FabricKind::Variant, …];`.
fn const_all(toks: &[Token]) -> Option<AllConst> {
    let mut i = 0usize;
    loop {
        while i + 1 < toks.len()
            && !(toks[i].tok.is_ident("const") && toks[i + 1].tok.is_ident("ALL"))
        {
            i += 1;
        }
        if i + 1 >= toks.len() {
            return None;
        }
        // const ALL : [ FabricKind ; N ]
        let line = toks[i].line;
        let mut j = i + 2;
        if !toks.get(j)?.tok.is_punct(":") {
            i += 1;
            continue;
        }
        j += 1;
        if !toks.get(j)?.tok.is_punct("[") {
            i += 1;
            continue;
        }
        // Find the `;` and the arity literal inside the type brackets.
        let mut arity: Option<usize> = None;
        while j < toks.len() && !toks[j].tok.is_punct("]") {
            if toks[j].tok.is_punct(";") {
                if let Some(Tok::Literal(n)) = toks.get(j + 1).map(|t| &t.tok) {
                    arity = n.replace('_', "").parse().ok();
                }
            }
            j += 1;
        }
        let arity = arity?;
        // Initialiser: `= [ entries ]`.
        while j < toks.len() && !toks[j].tok.is_punct("=") {
            j += 1;
        }
        while j < toks.len() && !toks[j].tok.is_punct("[") {
            j += 1;
        }
        let mut entries = Vec::new();
        let mut last_ident: Option<String> = None;
        j += 1;
        while j < toks.len() && !toks[j].tok.is_punct("]") {
            if let Tok::Ident(s) = &toks[j].tok {
                last_ident = Some(s.clone());
            } else if toks[j].tok.is_punct(",") {
                if let Some(s) = last_ident.take() {
                    entries.push(s);
                }
            }
            j += 1;
        }
        if let Some(s) = last_ident.take() {
            entries.push(s);
        }
        return Some(AllConst {
            arity,
            entries,
            line,
        });
    }
}

/// Names and lines of the `pub fn`s declared directly in every inherent
/// `impl … <name> … { … }` block (not `impl Trait for <name>`).
fn impl_pub_fns(toks: &[Token], name: &str) -> Vec<(String, u32)> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].tok.is_ident("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < toks.len() && !toks[j].tok.is_punct("{") && !toks[j].tok.is_punct(";") {
            j += 1;
        }
        if j == toks.len() || toks[j].tok.is_punct(";") {
            // `impl Trait` in a type position, not an impl block.
            i = j + 1;
            continue;
        }
        let header = &toks[i + 1..j];
        let inherent = header.iter().any(|t| t.tok.is_ident(name))
            && !header.iter().any(|t| t.tok.is_ident("for"));
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].tok.is_punct("{") {
                depth += 1;
            } else if toks[j].tok.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if inherent
                && depth == 1
                && toks[j].tok.is_ident("pub")
                && toks.get(j + 1).is_some_and(|t| t.tok.is_ident("fn"))
            {
                if let Some(Token {
                    tok: Tok::Ident(f),
                    line,
                }) = toks.get(j + 2)
                {
                    fns.push((f.clone(), *line));
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    fns
}

/// Token slice of the body of `fn <name>(…) … { … }`.
fn fn_body<'t>(toks: &'t [Token], name: &str) -> Option<&'t [Token]> {
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if toks[i].tok.is_ident("fn") && toks[i + 1].tok.is_ident(name) {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].tok.is_punct("{") {
                j += 1;
            }
            let start = j;
            let mut depth = 0i32;
            while j < toks.len() {
                if toks[j].tok.is_punct("{") {
                    depth += 1;
                } else if toks[j].tok.is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        return Some(&toks[start..=j]);
                    }
                }
                j += 1;
            }
            return None;
        }
        i += 1;
    }
    None
}

/// CamelCase → snake_case (`GatedPacket` → `gated_packet`).
fn snake(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_enum_and_all() {
        let src = "\
#[derive(Clone, Copy)]
pub enum FabricKind {
    /// docs
    Circuit,
    Hybrid,
    Packet,
}
impl FabricKind {
    pub const BOTH: [FabricKind; 2] = [FabricKind::Circuit, FabricKind::Packet];
    pub const ALL: [FabricKind; 3] = [FabricKind::Circuit, FabricKind::Hybrid, FabricKind::Packet];
}
";
        let toks = lex(src).tokens;
        assert_eq!(
            enum_variants(&toks, "FabricKind"),
            vec!["Circuit", "Hybrid", "Packet"]
        );
        let all = const_all(&toks).unwrap();
        assert_eq!(all.arity, 3);
        assert_eq!(
            all.entries,
            vec!["Circuit", "Hybrid", "Packet"],
            "path-qualified entries keep only the variant ident"
        );
    }

    #[test]
    fn impl_pub_fns_lists_inherent_methods_only() {
        let src = "\
impl<'g> DeploymentBuilder<'g> {
    pub fn seed(mut self, seed: u64) -> Self { self.seed = seed; self }
    fn map(&self) -> Mapping { todo!() }
    pub(crate) fn hidden(&self) {}
    pub fn build(self) -> R { let f = || { 1 }; f() }
}
impl Default for DeploymentBuilder<'_> {
    pub fn default() -> Self { todo!() }
}
type Knobs = Box<dyn Fn() -> impl Sized>;
impl<'g> DeploymentBuilder<'g> {
    pub fn clock(mut self, clock: MegaHertz) -> Self { self }
}
";
        let toks = lex(src).tokens;
        assert_eq!(
            impl_pub_fns(&toks, "DeploymentBuilder"),
            vec![
                ("seed".to_string(), 2),
                ("build".to_string(), 5),
                ("clock".to_string(), 12)
            ]
        );
    }

    #[test]
    fn snake_case() {
        assert_eq!(snake("Circuit"), "circuit");
        assert_eq!(snake("GatedPacket"), "gated_packet");
    }

    #[test]
    fn fn_body_extraction() {
        let src =
            "fn other() { nope(); }\npub fn summary(&self, k: K) -> R { match k { K::A => 1 } }";
        let toks = lex(src).tokens;
        let body = fn_body(&toks, "summary").unwrap();
        assert!(body.iter().any(|t| t.tok.is_ident("match")));
        assert!(!body.iter().any(|t| t.tok.is_ident("nope")));
    }
}
