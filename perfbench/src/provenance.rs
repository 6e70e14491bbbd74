//! What every result records about where it was measured.

use crate::stats::{num, string};
use srs_graph::container::fnv1a64_extend;
use std::path::Path;
use std::process::Command;

/// Directories the source walk skips: vendored stand-ins and build
/// output (hidden directories are skipped too).
const SKIP_DIRS: [&str; 2] = ["vendor", "target"];

pub struct Provenance {
    pub commit: String,
    /// FNV-1a over every Rust source and Cargo manifest in the tree, so a
    /// result names its code even where there is no git metadata.
    pub source_fnv: u64,
    /// Lines of Rust outside `vendor/`.
    pub rust_lines: u64,
    pub rustc: String,
    pub nproc: usize,
    pub cpu: String,
}

impl Provenance {
    pub fn collect(root: &Path) -> Provenance {
        let mut acc = (0xcbf2_9ce4_8422_2325u64, 0u64);
        walk(root, root, &mut acc);
        Provenance {
            commit: git_head(root),
            source_fnv: acc.0,
            rust_lines: acc.1,
            rustc: command_line("rustc", &["--version"]),
            nproc: nproc(),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split(':').nth(1))
                        .map(|m| m.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\":{},\"source_fnv\":\"{:016x}\",\"rust_lines_excluding_vendor\":{},\"rustc\":{},\"nproc\":{},\"cpu\":{}}}",
            string(&self.commit),
            self.source_fnv,
            num(self.rust_lines as f64),
            string(&self.rustc),
            self.nproc,
            string(&self.cpu)
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The commit checked out at `root`, if `root` is itself a git work tree
/// (git is kept from looking above it).
fn git_head(root: &Path) -> String {
    let root = root.canonicalize().unwrap_or_else(|_| root.to_path_buf());
    let mut git = Command::new("git");
    git.arg("-C").arg(&root).args(["rev-parse", "HEAD"]);
    if let Some(parent) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    first_line(git)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    first_line(cmd)
}

fn first_line(mut cmd: Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn walk(root: &Path, dir: &Path, acc: &mut (u64, u64)) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !name.starts_with('.') && !SKIP_DIRS.contains(&name) {
                walk(root, &path, acc);
            }
            continue;
        }
        let rust = name.ends_with(".rs");
        if !(rust || name == "Cargo.toml" || name == "Cargo.lock") {
            continue;
        }
        let Ok(bytes) = std::fs::read(&path) else { continue };
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
        acc.0 = fnv1a64_extend(fnv1a64_extend(acc.0, rel.as_bytes()), &bytes);
        if rust {
            acc.1 += bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        }
    }
}
