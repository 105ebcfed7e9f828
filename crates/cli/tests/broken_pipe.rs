//! A reader that closes stdout early (`sdigest … | head -1`) must not make
//! `sdigest` panic: the report is simply cut short and the exit is clean.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn sdigest() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sdigest"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdigest-pipe-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `sdigest args` with its stdout pipe closed before it writes; return
/// its exit code and stderr.
fn run_with_closed_stdout(args: &[&str]) -> (Option<i32>, String) {
    let mut child = sdigest()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    (child.wait().unwrap().code(), stderr)
}

fn generate(dir: &Path) -> PathBuf {
    let out = dir.join("data");
    let status = sdigest()
        .args([
            "generate",
            "--out",
            out.to_str().unwrap(),
            "--scale",
            "0.02",
        ])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    out.join("syslog.log")
}

#[test]
fn closed_stdout_exits_zero_without_a_panic() {
    let dir = tmpdir("stats");
    let log = generate(&dir);
    for args in [
        &["stats", "--log", log.to_str().unwrap()][..],
        &["help"][..],
    ] {
        let (code, stderr) = run_with_closed_stdout(args);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}
