//! The machine a result was measured on, and the process's peak memory.

use std::path::Path;

/// What every result file records about where it was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Usable hardware threads.
    pub nproc: usize,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, when it is a git repository.
    pub git_commit: String,
}

impl Machine {
    /// Reads the machine description; fields that cannot be read are
    /// `"unknown"`.
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Machine {
            cpu_model,
            nproc: nproc(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Usable hardware threads (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit `HEAD` names in `dir/.git`, read without running git.
fn git_commit(dir: &Path) -> Option<String> {
    let git = dir.join(".git");
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
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(id, _)| id.to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
