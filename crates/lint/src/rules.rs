//! Per-file lint rules D1–D5.
//!
//! All rules pattern-match on the token stream from [`crate::lexer`], so
//! strings and comments can never produce false positives. Each rule is
//! deliberately flow-insensitive: it catches the *direct* forms the
//! workspace actually uses, and anything cleverer must either go through a
//! sorted adapter or carry a `// noc-lint: allow(...)` pragma.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `wall-clock` | no `Instant`/`SystemTime` in deterministic crates |
//! | `unordered-iter` | no iteration over `HashMap`/`HashSet` |
//! | `thread-discipline` | no `thread::spawn`/`Mutex`/`Condvar` outside `noc_sim::par` |
//! | `unsafe-discipline` | every `unsafe` site carries a `SAFETY:` comment (the manifest half, in `lib.rs`, requires the workspace to deny `unsafe_code` and `unsafe_op_in_unsafe_fn`) |
//! | `unwrap-justify` | `unwrap()`/computed `expect()` need a pragma; a literal `expect("…")` message is its own justification |

use crate::lexer::{Tok, Token};
use crate::report::Finding;
use crate::source::SourceFile;

/// Which rules run on a file. See `classify` in `lib.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    pub wall_clock: bool,
    pub unordered_iter: bool,
    pub thread_discipline: bool,
    pub unsafe_discipline: bool,
    pub unwrap_justify: bool,
}

impl RuleSet {
    /// Library code: everything applies.
    pub const LIB: RuleSet = RuleSet {
        wall_clock: true,
        unordered_iter: true,
        thread_discipline: true,
        unsafe_discipline: true,
        unwrap_justify: true,
    };
    /// Bench/tooling bins: may read the wall clock and unwrap freely, but
    /// still may not spawn threads or write undocumented unsafe.
    pub const TOOL: RuleSet = RuleSet {
        wall_clock: false,
        unordered_iter: false,
        thread_discipline: true,
        unsafe_discipline: true,
        unwrap_justify: false,
    };
    /// Integration tests and examples: deterministic (no wall clock, no
    /// threads) but free to unwrap and iterate however they like.
    pub const TEST: RuleSet = RuleSet {
        wall_clock: true,
        unordered_iter: false,
        thread_discipline: true,
        unsafe_discipline: true,
        unwrap_justify: false,
    };
}

/// Run the per-file rules and append findings.
pub fn check_file(
    file: &SourceFile,
    rules: RuleSet,
    d3_exempt: bool,
    out: &mut Vec<Finding>,
    suppressed: &mut usize,
) {
    let toks = file.tokens();
    if rules.wall_clock {
        wall_clock(file, toks, out, suppressed);
    }
    if rules.unordered_iter {
        unordered_iter(file, toks, out, suppressed);
    }
    if rules.thread_discipline && !d3_exempt {
        thread_discipline(file, toks, out, suppressed);
    }
    if rules.unsafe_discipline {
        unsafe_discipline(file, toks, out, suppressed);
    }
    if rules.unwrap_justify {
        unwrap_justify(file, toks, out, suppressed);
    }
    // Pragma hygiene: malformed pragmas are findings, and so are pragmas
    // that suppressed nothing (dead allows otherwise accumulate silently).
    for (line, msg) in &file.pragma_errors {
        out.push(Finding {
            rule: "pragma",
            file: file.path.clone(),
            line: *line,
            message: msg.clone(),
        });
    }
    for p in &file.pragmas {
        if !p.used.get() {
            out.push(Finding {
                rule: "pragma",
                file: file.path.clone(),
                line: p.line,
                message: format!(
                    "unused allow({}) pragma — nothing on line {} trips that rule",
                    p.rule, p.target_line
                ),
            });
        }
    }
}

fn emit(
    file: &SourceFile,
    rule: &'static str,
    line: u32,
    message: String,
    out: &mut Vec<Finding>,
    suppressed: &mut usize,
) {
    if file.allowed(rule, line) {
        *suppressed += 1;
        return;
    }
    out.push(Finding {
        rule,
        file: file.path.clone(),
        line,
        message,
    });
}

/// D1: wall-clock access. `SystemTime` is flagged outright; `Instant` only
/// when it is unambiguously `std::time::Instant` (a `time::` path prefix, a
/// `::now` call, or a `use std::time::{..}` import) — the simulator has its
/// own `ProvisionMode::Instant` variant that must not trip this rule.
/// `Duration` is deliberately allowed: holding a duration is deterministic,
/// reading a clock is not.
fn wall_clock(file: &SourceFile, toks: &[Token], out: &mut Vec<Finding>, suppressed: &mut usize) {
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.tok.ident() else { continue };
        let flagged = match name {
            "SystemTime" => true,
            "Instant" => preceded_by_path(toks, i, "time") || followed_by(toks, i, &["::", "now"]),
            _ => false,
        };
        if flagged {
            emit(
                file,
                "wall-clock",
                t.line,
                format!("`{name}` in a deterministic crate — simulation time must come from the cycle counter, not the host clock"),
                out,
                suppressed,
            );
        }
    }
}

/// D2: iteration over `HashMap`/`HashSet`. The rule keeps a per-file
/// registry of identifiers bound to a `Hash*` type (via `name: HashMap<..>`
/// annotations or `name = HashMap::new()` initialisers) and flags
/// order-dependent methods and `for` loops over them. Order-*independent*
/// consumers (`len`, `contains`, `min`/`max`, `sum`, …) escape within the
/// same statement. Test modules are exempt.
fn unordered_iter(
    file: &SourceFile,
    toks: &[Token],
    out: &mut Vec<Finding>,
    suppressed: &mut usize,
) {
    let registry = hash_idents(file, toks);
    if registry.is_empty() {
        return;
    }
    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "retain",
        "into_iter",
        "into_keys",
        "into_values",
    ];
    const ORDER_FREE: &[&str] = &[
        "BTreeMap",
        "BTreeSet",
        "sort",
        "sort_unstable",
        "sort_by",
        "sort_by_key",
        "sort_unstable_by",
        "sort_unstable_by_key",
        "len",
        "count",
        "min",
        "max",
        "min_by_key",
        "max_by_key",
        "any",
        "all",
        "is_empty",
        "contains",
        "sum",
        "product",
    ];
    for (i, t) in toks.iter().enumerate() {
        if file.in_test_region(t.line) {
            continue;
        }
        // `name.iter()` and friends.
        if let Some(m) = t.tok.ident() {
            if ITER_METHODS.contains(&m)
                && i >= 2
                && toks[i - 1].tok.is_punct(".")
                && toks.get(i + 1).is_some_and(|n| n.tok.is_punct("("))
            {
                if let Some(recv) = toks[i - 2].tok.ident() {
                    if registry.contains(&recv) && !statement_has(toks, i, ORDER_FREE) {
                        emit(
                            file,
                            "unordered-iter",
                            t.line,
                            format!("iteration over unordered `{recv}` (Hash{{Map,Set}}) — use BTreeMap/BTreeSet or sort before consuming"),
                            out,
                            suppressed,
                        );
                    }
                }
            }
            // `for pat in [&[mut]] [self.] name { … }`
            if m == "for" {
                if let Some((name, line)) = for_loop_over(toks, i, &registry) {
                    emit(
                        file,
                        "unordered-iter",
                        line,
                        format!("`for` over unordered `{name}` (Hash{{Map,Set}}) — iteration order is nondeterministic"),
                        out,
                        suppressed,
                    );
                }
            }
        }
    }
}

/// Identifiers bound to a HashMap/HashSet in this file, by either a type
/// annotation (`name: HashMap<..>`, including `&`/`&mut`/full paths) or a
/// constructor assignment (`name = HashMap::new()` etc.). Bindings inside
/// `#[cfg(test)]` modules are excluded — the registry is flow-insensitive,
/// and a test-local `HashSet` must not taint a same-named library binding.
fn hash_idents<'t>(file: &SourceFile, toks: &'t [Token]) -> Vec<&'t str> {
    let mut names = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !matches!(t.tok.ident(), Some("HashMap") | Some("HashSet")) {
            continue;
        }
        if file.in_test_region(t.line) {
            continue;
        }
        // Walk backward over a `std :: collections ::` path prefix.
        let mut j = i;
        while j >= 2 && toks[j - 1].tok.is_punct("::") && toks[j - 2].tok.ident().is_some() {
            j -= 2;
        }
        // Skip `&`, `mut`, lifetimes in reference types.
        let mut k = j;
        while k >= 1 {
            let prev = &toks[k - 1].tok;
            if prev.is_punct("&") || prev.is_ident("mut") || matches!(prev, Tok::Lifetime(_)) {
                k -= 1;
            } else {
                break;
            }
        }
        if k >= 2 && toks[k - 1].tok.is_punct(":") {
            if let Some(name) = toks[k - 2].tok.ident() {
                names.push(name);
            }
        } else if k >= 2 && toks[k - 1].tok.is_punct("=") {
            // `name = HashMap::new()` — require a constructor to follow so
            // `x = HashMap` in type position elsewhere doesn't register.
            let ctor = toks.get(i + 1).is_some_and(|a| a.tok.is_punct("::"))
                && toks.get(i + 2).is_some_and(|b| {
                    matches!(
                        b.tok.ident(),
                        Some("new") | Some("with_capacity") | Some("default") | Some("from")
                    )
                });
            // Or a turbofish/collect form: `= x.collect::<HashMap<_,_>>()`
            // is registered via the `:` of a let annotation instead.
            if ctor {
                if let Some(name) = toks[k - 2].tok.ident() {
                    names.push(name);
                }
            }
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// Does the statement containing token `i` (scanning both directions,
/// stopping at `;`/`{`/`}`) mention any order-independent consumer?
fn statement_has(toks: &[Token], i: usize, names: &[&str]) -> bool {
    let stop = |t: &Token| t.tok.is_punct(";") || t.tok.is_punct("{") || t.tok.is_punct("}");
    let fwd = toks[i..].iter().take(80).take_while(|t| !stop(t));
    let back = toks[..i].iter().rev().take(80).take_while(|t| !stop(t));
    fwd.chain(back)
        .filter_map(|t| t.tok.ident())
        .any(|id| names.contains(&id))
}

/// If `toks[i]` is `for` and the loop iterates directly over a registered
/// hash ident, return (name, line of the ident).
fn for_loop_over<'t>(toks: &'t [Token], i: usize, registry: &[&str]) -> Option<(&'t str, u32)> {
    // Find `in` at paren-depth 0, then collect tokens up to the body `{`.
    let mut j = i + 1;
    let mut depth = 0i32;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct("(") | Tok::Punct("[") => depth += 1,
            Tok::Punct(")") | Tok::Punct("]") => depth -= 1,
            Tok::Ident(s) if s == "in" && depth == 0 => break,
            Tok::Punct("{") => return None, // malformed / `for` in a type
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    // Expression tokens between `in` and `{`: allow `&`, `mut`, `self`, `.`
    // around exactly one registered ident; anything else means a method
    // chain (handled by the method pattern) or a non-hash iterable.
    let mut name: Option<(&str, u32)> = None;
    let mut k = j + 1;
    while k < toks.len() && !toks[k].tok.is_punct("{") {
        match &toks[k].tok {
            Tok::Punct("&") | Tok::Punct(".") => {}
            Tok::Ident(s) if s == "mut" || s == "self" => {}
            Tok::Ident(s) => {
                if name.is_some() {
                    return None; // more than one ident: not a bare loop
                }
                if registry.contains(&s.as_str()) {
                    name = Some((s, toks[k].line));
                } else {
                    return None;
                }
            }
            _ => return None,
        }
        k += 1;
    }
    name
}

/// D3: threading primitives outside `noc_sim::par`. Everything parallel in
/// the workspace must flow through the deterministic fork-join pool;
/// ad-hoc `thread::spawn`, `Mutex`, or `Condvar` anywhere else breaks the
/// bit-identical replay guarantee across `ParPolicy`s.
fn thread_discipline(
    file: &SourceFile,
    toks: &[Token],
    out: &mut Vec<Finding>,
    suppressed: &mut usize,
) {
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.tok.ident() else { continue };
        let flagged = match name {
            "Mutex" | "Condvar" => true,
            "spawn" => preceded_by_path(toks, i, "thread"),
            _ => false,
        };
        if flagged {
            emit(
                file,
                "thread-discipline",
                t.line,
                format!("`{name}` outside noc_sim::par — all parallelism must go through the deterministic fork-join pool"),
                out,
                suppressed,
            );
        }
    }
}

/// D4: every `unsafe` block/impl/fn/trait needs a `// SAFETY:` comment in
/// the five lines above it (or on the same line). An `unsafe fn` may
/// instead document its contract with a `# Safety` doc section.
fn unsafe_discipline(
    file: &SourceFile,
    toks: &[Token],
    out: &mut Vec<Finding>,
    suppressed: &mut usize,
) {
    for (i, t) in toks.iter().enumerate() {
        if !t.tok.is_ident("unsafe") {
            continue;
        }
        let kind = match toks.get(i + 1).map(|n| &n.tok) {
            Some(Tok::Punct("{")) => "block",
            Some(Tok::Ident(s)) if s == "impl" => "impl",
            Some(Tok::Ident(s)) if s == "fn" => "fn",
            Some(Tok::Ident(s)) if s == "trait" => "trait",
            Some(Tok::Ident(s)) if s == "extern" => "extern block",
            _ => continue,
        };
        let line = t.line;
        let has_safety = file.comment_in_lines("SAFETY:", line.saturating_sub(5), line);
        let has_doc_section =
            kind == "fn" && file.comment_in_lines("# Safety", line.saturating_sub(25), line);
        if !has_safety && !has_doc_section {
            emit(
                file,
                "unsafe-discipline",
                line,
                format!("`unsafe` {kind} without a `// SAFETY:` comment explaining why the invariants hold"),
                out,
                suppressed,
            );
        }
    }
}

/// D5: `.unwrap()` and `.expect(<computed>)` in library code need an
/// `allow(unwrap-justify, …)` pragma. `.expect("literal message")` passes:
/// the message *is* the inline justification, and it reaches the panic
/// report. Test modules are exempt.
fn unwrap_justify(
    file: &SourceFile,
    toks: &[Token],
    out: &mut Vec<Finding>,
    suppressed: &mut usize,
) {
    for (i, t) in toks.iter().enumerate() {
        if file.in_test_region(t.line) {
            continue;
        }
        let Some(name) = t.tok.ident() else { continue };
        if name != "unwrap" && name != "expect" {
            continue;
        }
        if i == 0
            || !toks[i - 1].tok.is_punct(".")
            || !toks.get(i + 1).is_some_and(|n| n.tok.is_punct("("))
        {
            continue;
        }
        if name == "expect" {
            // A literal argument is self-justifying.
            if matches!(toks.get(i + 2).map(|a| &a.tok), Some(Tok::Literal(_))) {
                continue;
            }
        }
        let advice = if name == "unwrap" {
            "use expect(\"why this cannot fail\") or return an error"
        } else {
            "give expect a literal message, or return an error"
        };
        emit(
            file,
            "unwrap-justify",
            t.line,
            format!("`.{name}()` in library code without justification — {advice}"),
            out,
            suppressed,
        );
    }
}

/// Is token `i` preceded by `<seg> ::` (possibly deeper in a path, e.g.
/// `std :: time :: Instant` for seg = "time"), or inside a brace import
/// `use std::time::{Instant, ..}`?
fn preceded_by_path(toks: &[Token], i: usize, seg: &str) -> bool {
    if i >= 2 && toks[i - 1].tok.is_punct("::") && toks[i - 2].tok.is_ident(seg) {
        return true;
    }
    // Brace-import form: walk back over `{`/`,`-separated siblings.
    let mut j = i;
    while j >= 1 {
        match &toks[j - 1].tok {
            Tok::Punct(",") | Tok::Ident(_) => j -= 1,
            Tok::Punct("{") => {
                return j >= 3 && toks[j - 2].tok.is_punct("::") && toks[j - 3].tok.is_ident(seg);
            }
            _ => return false,
        }
    }
    false
}

/// Are tokens `i+1..` exactly the given punct/ident sequence?
fn followed_by(toks: &[Token], i: usize, seq: &[&str]) -> bool {
    seq.iter().enumerate().all(|(k, want)| {
        toks.get(i + 1 + k).is_some_and(|t| match &t.tok {
            Tok::Punct(p) => p == want,
            Tok::Ident(s) => s == want,
            _ => false,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, rules: RuleSet) -> Vec<Finding> {
        let file = SourceFile::parse("test.rs", src);
        let mut out = Vec::new();
        let mut suppressed = 0;
        check_file(&file, rules, false, &mut out, &mut suppressed);
        out
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn wall_clock_flags_real_clocks_only() {
        let bad = "use std::time::Instant;\nfn f() { let t = Instant::now(); }";
        assert_eq!(
            rules_of(&run(bad, RuleSet::LIB)),
            vec!["wall-clock", "wall-clock"]
        );
        // The simulator's own enum variant must not trip the rule.
        let ok = "fn f(m: ProvisionMode) { if m == ProvisionMode::Instant {} }";
        assert!(run(ok, RuleSet::LIB).is_empty());
        // Duration is fine; brace imports of Instant are not.
        let brace = "use std::time::{Duration, Instant};";
        assert_eq!(rules_of(&run(brace, RuleSet::LIB)), vec!["wall-clock"]);
        assert!(run("use std::time::Duration;", RuleSet::LIB).is_empty());
    }

    #[test]
    fn system_time_always_flagged() {
        let f = run("fn f() { let t = SystemTime::now(); }", RuleSet::LIB);
        assert!(rules_of(&f).contains(&"wall-clock"));
    }

    #[test]
    fn unordered_iter_on_annotated_field() {
        let src = "struct S { m: HashMap<u32, f64> }\nimpl S { fn f(&self) { for (k, v) in &self.m {} } }";
        assert_eq!(rules_of(&run(src, RuleSet::LIB)), vec!["unordered-iter"]);
    }

    #[test]
    fn unordered_iter_on_constructed_local() {
        let src = "fn f() { let mut m = HashMap::new(); m.insert(1, 2); for k in m.keys() {} }";
        assert_eq!(rules_of(&run(src, RuleSet::LIB)), vec!["unordered-iter"]);
    }

    #[test]
    fn order_free_consumers_escape() {
        let src = "struct S { m: HashMap<u32, f64> }\nimpl S { fn f(&self) -> usize { let n = self.m.iter().count(); n } }";
        assert!(run(src, RuleSet::LIB).is_empty());
        let src2 = "fn f(m: &HashMap<u32, u32>) -> bool { m.values().any(|v| *v > 0) }";
        assert!(run(src2, RuleSet::LIB).is_empty());
    }

    #[test]
    fn btree_is_never_flagged() {
        let src = "struct S { m: BTreeMap<u32, f64> }\nimpl S { fn f(&self) { for (k, v) in &self.m {} } }";
        assert!(run(src, RuleSet::LIB).is_empty());
    }

    #[test]
    fn retain_on_hash_field_flagged() {
        let src = "struct S { cool: HashMap<u32, u32> }\nimpl S { fn f(&mut self) { self.cool.retain(|_, v| *v > 0); } }";
        assert_eq!(rules_of(&run(src, RuleSet::LIB)), vec!["unordered-iter"]);
    }

    #[test]
    fn test_modules_exempt_from_iter_and_unwrap() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let m: HashMap<u32,u32> = HashMap::new(); for k in m.keys() {} x.unwrap(); }\n}";
        assert!(run(src, RuleSet::LIB).is_empty());
    }

    #[test]
    fn thread_discipline_flags_all_three() {
        let src =
            "fn f() { let m = Mutex::new(0); let c = Condvar::new(); std::thread::spawn(|| {}); }";
        assert_eq!(
            rules_of(&run(src, RuleSet::LIB)),
            vec![
                "thread-discipline",
                "thread-discipline",
                "thread-discipline"
            ]
        );
    }

    #[test]
    fn d3_exemption_for_par() {
        let file = SourceFile::parse("crates/sim/src/par.rs", "fn f() { let m = Mutex::new(0); }");
        let mut out = Vec::new();
        let mut s = 0;
        check_file(&file, RuleSet::LIB, true, &mut out, &mut s);
        assert!(out.is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "fn f() { unsafe { g() } }";
        assert_eq!(rules_of(&run(bad, RuleSet::LIB)), vec!["unsafe-discipline"]);
        let ok = "fn f() {\n // SAFETY: g has no preconditions here\n unsafe { g() }\n}";
        assert!(run(ok, RuleSet::LIB).is_empty());
        let ok_impl = "// SAFETY: T is Plain Old Data\nunsafe impl Send for X {}";
        assert!(run(ok_impl, RuleSet::LIB).is_empty());
        let ok_fn = "/// Reads a lane.\n///\n/// # Safety\n/// Caller must hold the slab borrow.\nunsafe fn lane() {}";
        assert!(run(ok_fn, RuleSet::LIB).is_empty());
    }

    #[test]
    fn unwrap_needs_pragma_but_literal_expect_passes() {
        assert_eq!(
            rules_of(&run("fn f() { x.unwrap(); }", RuleSet::LIB)),
            vec!["unwrap-justify"]
        );
        assert!(run("fn f() { x.expect(\"checked above\"); }", RuleSet::LIB).is_empty());
        assert_eq!(
            rules_of(&run("fn f() { x.expect(msg); }", RuleSet::LIB)),
            vec!["unwrap-justify"]
        );
        // unwrap_or and friends are different identifiers entirely.
        assert!(run(
            "fn f() { x.unwrap_or(0); x.unwrap_or_default(); }",
            RuleSet::LIB
        )
        .is_empty());
        let allowed = "fn f() { x.unwrap(); // noc-lint: allow(unwrap-justify, prototype glue)\n}";
        assert!(run(allowed, RuleSet::LIB).is_empty());
    }

    #[test]
    fn unused_pragma_is_a_finding() {
        let src = "// noc-lint: allow(wall-clock, nothing here uses a clock)\nfn f() {}\n";
        let f = run(src, RuleSet::LIB);
        assert_eq!(rules_of(&f), vec!["pragma"]);
        assert!(f[0].message.contains("unused"));
    }

    #[test]
    fn tool_ruleset_allows_clock_and_unwrap() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); x.unwrap(); }";
        assert!(run(src, RuleSet::TOOL).is_empty());
        let threads = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(
            rules_of(&run(threads, RuleSet::TOOL)),
            vec!["thread-discipline"]
        );
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let src =
            "fn f() { let s = \"Instant provisioning charges nothing\"; }\n// Mutex in a comment\n";
        assert!(run(src, RuleSet::LIB).is_empty());
    }
}
