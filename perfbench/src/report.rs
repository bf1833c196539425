//! Named metrics, the machine fingerprint, and the result line.

use crate::drive::{fnv, FNV_BASIS};
use noc_sim::par::{ParPolicy, WorkerPool};
use std::fmt::Write as _;
use std::path::Path;

/// Metrics in print order, each with its unit.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.rows.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.rows.push((name, value, unit));
    }

    /// One `name value unit` line per metric.
    pub fn print(&self) {
        for (name, value, unit) in &self.rows {
            println!("  {name:<44} {value:>16.6} {unit}");
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every value with all its digits.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where and how the numbers were made.
pub struct Machine {
    /// Online CPUs of the host.
    pub nproc: usize,
    /// `std::thread::available_parallelism`: the CPUs this process may use.
    pub available: usize,
    pub pool_workers: usize,
    pub auto_lanes: usize,
    pub profile: &'static str,
    pub commit: String,
    /// FNV-1a over the simulator's sources and manifests.
    pub source: u64,
}

impl Machine {
    /// Sample the machine and start the global worker pool, so that its
    /// threads exist before anything is timed.
    pub fn probe(root: &Path) -> Machine {
        Machine {
            nproc: online_cpus().unwrap_or(0),
            available: std::thread::available_parallelism().map_or(0, |n| n.get()),
            pool_workers: WorkerPool::global().workers(),
            auto_lanes: ParPolicy::Auto.lanes_for(256),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: commit(root).unwrap_or_else(|| "unknown".into()),
            source: source_hash(root),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "machine: nproc={} available_parallelism={} pool_workers={} auto_lanes_256={} \
             profile={} commit={} source={:016x}",
            self.nproc,
            self.available,
            self.pool_workers,
            self.auto_lanes,
            self.profile,
            self.commit,
            self.source
        )
    }
}

/// Count the CPUs listed in `/sys/devices/system/cpu/online`
/// (`0-3,6`-style ranges).
fn online_cpus() -> Option<usize> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
    let mut n = 0;
    for part in text.trim().split(',') {
        n += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => 1,
        };
    }
    Some(n)
}

/// The checked-out commit, when `root` is a git work tree.
fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// FNV-1a over the path and bytes of every `.rs` file under `crates/` and
/// `src/`, and the root manifests, in path order.
fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect_rs(&root.join(dir), &mut files);
    }
    files.sort();
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.iter().fold(FNV_BASIS, |h, f| {
        let h = fnv(
            h,
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        fnv(h, &std::fs::read(f).unwrap_or_default())
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() != "target" {
                collect_rs(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("setup_s", 0.5, "s");
        assert_eq!(
            m.result_json(true, 10, 1),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
