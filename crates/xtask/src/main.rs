//! `cargo xtask <command>` — repo automation entry point.
//!
//! Commands:
//! * `lint [--root <path>]` — run the repo-specific static pass (see the
//!   library docs); exits non-zero when any rule fires.
//! * `analyze [--root <path>] [--update-ledger]` — run the four deeper
//!   static passes over the lock-free runtime (atomics discipline, unsafe
//!   ledger, blocking reachability, Send/Sync audit); `--update-ledger`
//!   regenerates `UNSAFE_LEDGER.json` after an audit instead of diffing
//!   against it. Exits non-zero when any pass fires.
//! * `chaos [args…]` — build and run the chaos exploration runner
//!   (`bistream-bench --bin chaos`), forwarding all arguments; exits with
//!   the runner's status.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next();
    match command.as_deref() {
        Some("lint") => {
            let mut root: Option<PathBuf> = None;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--root" => root = args.next().map(PathBuf::from),
                    other => {
                        eprintln!("xtask lint: unknown argument {other:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let root = root.unwrap_or_else(workspace_root);
            match xtask::lint_workspace(&root) {
                Ok(findings) if findings.is_empty() => {
                    println!("xtask lint: clean ({})", root.display());
                    ExitCode::SUCCESS
                }
                Ok(findings) => {
                    for f in &findings {
                        eprintln!("{f}");
                    }
                    eprintln!("xtask lint: {} finding(s)", findings.len());
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("xtask lint: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("analyze") => {
            let mut root: Option<PathBuf> = None;
            let mut update_ledger = false;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--root" => root = args.next().map(PathBuf::from),
                    "--update-ledger" => update_ledger = true,
                    other => {
                        eprintln!("xtask analyze: unknown argument {other:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let root = root.unwrap_or_else(workspace_root);
            match xtask::analyze::analyze_workspace(&root, update_ledger) {
                Ok(findings) if findings.is_empty() => {
                    let suffix = if update_ledger { ", ledger updated" } else { "" };
                    println!("xtask analyze: clean ({}{suffix})", root.display());
                    ExitCode::SUCCESS
                }
                Ok(findings) => {
                    for f in &findings {
                        eprintln!("{f}");
                    }
                    eprintln!("xtask analyze: {} finding(s)", findings.len());
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("xtask analyze: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("chaos") => forward_to_bin("chaos", args.collect()),
        Some(other) => {
            eprintln!("xtask: unknown command {other:?} (try: lint, analyze, chaos)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo xtask lint [--root <path>] | cargo xtask analyze [--root <path>] \
                 [--update-ledger] | cargo xtask chaos [args…]"
            );
            ExitCode::FAILURE
        }
    }
}

/// Build and run a `bistream-bench` binary from the workspace root,
/// forwarding `args` and the exit status.
fn forward_to_bin(bin: &str, forwarded: Vec<String>) -> ExitCode {
    let status = std::process::Command::new("cargo")
        .args(["run", "--release", "-p", "bistream-bench", "--bin", bin, "--"])
        .args(&forwarded)
        .current_dir(workspace_root())
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask {bin}: could not launch cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: two levels above this crate's manifest dir, unless
/// invoked from elsewhere (then the current directory).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(|p| p.parent()).map(PathBuf::from).unwrap_or_else(|| ".".into())
}
