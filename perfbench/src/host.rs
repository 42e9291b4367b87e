//! The host fingerprint printed with every result, so numbers taken on
//! different machines are never compared.

use std::path::Path;
use std::process::Command;

/// Usable cores; the grid and PDES worker counts never exceed it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The commit checked out in `root`, read from `.git` directly; a
/// checkout without one reports `unknown`.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs")).and_then(|packed| {
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One line describing the machine, toolchain, commit and worker counts.
pub fn fingerprint(root: &Path, grid_workers: usize, pdes_workers: usize) -> String {
    format!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" rev={} grid_workers={grid_workers} \
         pdes_workers={pdes_workers}",
        nproc(),
        cpu_model(),
        rustc_version(),
        git_rev(root),
    )
}
