//! The environment block printed with every result: enough to tell
//! whether two sets of numbers came from comparable builds and hosts.

use std::path::Path;
use std::process::Command;

use crate::json::Json;

/// The `[profile.release]` table of a manifest as sorted `key = value`
/// lines; empty when the manifest has none.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    lines.sort();
    lines
}

/// The checked-out commit, read from `.git` of the repository the
/// benchmark was built in (no `git` process, nothing above that
/// directory is searched); "unknown" outside a git checkout.
fn git_commit(repo: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&repo.join(".git/HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&repo.join(".git").join(reference)).unwrap_or(head),
        None => head,
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn block(seed: u64, seconds: f64, smoke: bool) -> Json {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = manifest_dir.parent().unwrap_or(manifest_dir);
    let profile = std::fs::read_to_string(manifest_dir.join("Cargo.toml"))
        .map(|m| release_profile(&m).join(", "))
        .unwrap_or_default();
    let rustflags = std::fs::read_to_string(repo.join(".cargo/config.toml"))
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.trim_start().starts_with("rustflags"))
                .map(str::to_string)
        })
        .unwrap_or_default();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("git_commit", Json::str(git_commit(repo))),
        ("rustc", Json::str(rustc_version())),
        ("available_parallelism", Json::Num(cores as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("release_profile", Json::str(profile)),
        ("cargo_config", Json::str(rustflags.trim())),
        ("debug_assertions", Json::Bool(cfg!(debug_assertions))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark package is its own workspace, so the root
    /// `[profile.release]` does not reach it: the two tables must be kept
    /// equal by hand, or the benchmark measures differently-compiled code.
    #[test]
    fn release_profile_mirrors_the_root_manifest() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let own = std::fs::read_to_string(here.join("Cargo.toml")).unwrap();
        let root = std::fs::read_to_string(here.join("../Cargo.toml")).unwrap();
        let (own, root) = (release_profile(&own), release_profile(&root));
        assert!(!root.is_empty(), "root manifest has no [profile.release]");
        assert_eq!(
            own, root,
            "benchmark/Cargo.toml [profile.release] differs from the root's"
        );
    }

    #[test]
    fn release_profile_reads_only_its_own_table() {
        let manifest = "[package]\nname = \"x\"\n\n# c\n[profile.release]\nlto   =  \"thin\"\n# note\ncodegen-units = 1\n\n[profile.bench]\nlto = \"fat\"\n";
        assert_eq!(
            release_profile(manifest),
            vec!["codegen-units = 1", "lto = \"thin\""]
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }
}
