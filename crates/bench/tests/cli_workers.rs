//! `plugvolt-cli` rejects `--workers 0` with a typed error and exit 1
//! instead of sweeping with "0 workers" or silently running one.

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_plugvolt-cli"))
        .args(args)
        .output()
        .expect("plugvolt-cli runs")
}

fn assert_rejects_zero_workers(out: &std::process::Output) {
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--workers must be at least 1 (got 0)"),
        "stderr: {stderr}"
    );
}

#[test]
fn characterize_rejects_zero_workers() {
    let map = std::env::temp_dir().join(format!(
        "plugvolt-cli-zero-workers-{}.json",
        std::process::id()
    ));
    let map_arg = map.to_str().expect("temp path is UTF-8");
    let out = cli(&[
        "characterize",
        "--model",
        "comet-lake",
        "--out",
        map_arg,
        "--coarse",
        "--workers",
        "0",
    ]);
    assert_rejects_zero_workers(&out);
    assert!(!map.exists(), "a rejected run wrote {}", map.display());
}

#[test]
fn soak_rejects_zero_workers() {
    let out = cli(&["soak", "--smoke", "--workers", "0"]);
    assert_rejects_zero_workers(&out);
}
