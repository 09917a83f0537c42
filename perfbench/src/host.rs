//! The host and revision block printed with every result, so a reader can
//! tell a code change from a different machine.

use std::path::{Path, PathBuf};
use std::process::Command;

use rtlcheck_obs::json::Json;

use crate::common::{fnv, FNV_INIT};

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

pub fn block() -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj(vec![
        ("logical_cores", Json::Uint(cores)),
        ("cpu_model", Json::Str(cpu_model())),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").to_string())),
        ("profile", Json::Str(env!("PERFBENCH_PROFILE").to_string())),
        ("git_revision", git_revision().map_or(Json::Null, Json::Str)),
        (
            "source_fnv64",
            Json::Str(format!("{:016x}", source_digest())),
        ),
    ])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string())
}

/// `git rev-parse HEAD` of the checkout, when it is a git repository
/// itself (not a directory inside some other repository).
fn git_revision() -> Option<String> {
    if !repo_root().join(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the path and bytes of every source and manifest file the
/// benchmark builds from, in sorted order. It identifies the code under
/// test when the checkout carries no git metadata.
fn source_digest() -> u64 {
    let root = repo_root();
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "compat",
        "perfbench/src",
    ] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = FNV_INIT;
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f);
        h = fnv(h, rel.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            h = fnv(h, &bytes);
        }
    }
    h
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if let Ok(entries) = std::fs::read_dir(path) {
            for e in entries.flatten() {
                collect(&e.path(), out);
            }
        }
    } else if path
        .extension()
        .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
    {
        out.push(path.to_path_buf());
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
