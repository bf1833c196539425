//! noc-lint CLI.
//!
//! ```text
//! cargo run -p noc-lint -- [--deny] [--format human|json] [--out PATH] [--root PATH]
//! ```
//!
//! Exit code is 1 when `--deny` is set and findings exist, 0 otherwise
//! (2 for usage errors), so CI can gate on it directly.

use noc_lint::{run_workspace, Config};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut format = "human".to_string();
    let mut out_path: Option<PathBuf> = None;
    let mut root = PathBuf::from(".");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--format" => match args.next() {
                Some(f) if f == "human" || f == "json" => format = f,
                _ => return usage("--format takes `human` or `json`"),
            },
            "--out" => match args.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => return usage("--out takes a path"),
            },
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root takes a path"),
            },
            "--help" | "-h" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // When run via `cargo run -p noc-lint`, the cwd is already the
    // workspace root; walk up to it if invoked from a subdirectory.
    if root == Path::new(".") {
        let mut cur = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        loop {
            if cur.join("Cargo.toml").exists() && cur.join("crates").exists() {
                root = cur;
                break;
            }
            if !cur.pop() {
                break;
            }
        }
    }

    let mut cfg = Config::new(root);
    cfg.deny = deny;
    let report = run_workspace(&cfg);

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, report.render_json()) {
            eprintln!("noc-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if format == "json" {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }

    if deny && !report.is_clean() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("noc-lint: {msg}");
    eprint!("{HELP}");
    ExitCode::from(2)
}

const HELP: &str = "\
noc-lint: static analyzer for the rcs-noc workspace

USAGE:
    cargo run -p noc-lint -- [OPTIONS]

OPTIONS:
    --deny           exit 1 if any finding remains
    --format FMT     `human` (default) or `json`
    --out PATH       also write the JSON report to PATH
    --root PATH      workspace root (default: auto-detect from cwd)
    -h, --help       this text

RULES:
    wall-clock         no Instant/SystemTime in deterministic crates
    unordered-iter     no HashMap/HashSet iteration outside sorted adapters
    thread-discipline  no thread::spawn/Mutex/Condvar outside noc_sim::par
    unsafe-discipline  every unsafe site carries a SAFETY: comment; the root
                       manifest denies unsafe_code and unsafe_op_in_unsafe_fn
    unwrap-justify     unwrap()/computed expect() need a justification
    registry-drift     FabricKind registry surfaces must stay in sync; builder
                       knobs need a library or tool caller
    pragma             allow() pragmas must carry reasons and hit something

Suppress a finding with: // noc-lint: allow(<rule>, <reason>)
";
