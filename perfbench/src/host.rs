//! Host stamp for every result: where and on what code it was measured.

use std::path::Path;
use std::process::Command;

use folearn_obs::Json;

/// Output of a short command, or `"unknown"` when it cannot run. Git
/// may not look above the working directory: the benchmark reads only
/// inside its checkout.
fn command_line(program: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over every `Cargo.toml`, `Cargo.lock` and `.rs` file under
/// `crates/` and `perfbench/`, in path order: identifies the code when
/// the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != "out" && !name.starts_with('.') {
                    walk(&path, out);
                }
            } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!(
        "{:016x} over {} files",
        folearn_server::fnv1a64(&bytes),
        files.len()
    )
}

/// Where a result was measured: cores, code version, toolchain, seed.
/// The server and router configurations a workload used are in its
/// details.
pub fn metadata(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git_rev = command_line("git", &["rev-parse", "HEAD"]);
    // The digest stands in for the revision only where there is none.
    let code = if git_rev == "unknown" {
        ("source_digest", Json::str(source_digest()))
    } else {
        ("git_rev", Json::str(git_rev))
    };
    Json::obj([
        ("nproc", Json::int(nproc)),
        code,
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("seed", Json::Num(seed as f64)),
    ])
}
