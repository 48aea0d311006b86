//! `repro` refuses a command line it cannot fully account for: an
//! unknown flag or a second experiment exits 2, before any experiment
//! runs, with a usage line and the offending token on stderr.

use std::process::Command;

fn assert_rejected(args: &[&str], token: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?} ran anyway: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    assert!(stderr.contains(&format!("'{token}'")), "{args:?}: {stderr}");
}

#[test]
fn misspelled_flag_is_rejected() {
    assert_rejected(&["--fulll", "fig2"], "--fulll");
}

#[test]
fn second_experiment_is_rejected() {
    assert_rejected(&["fig2", "table1"], "table1");
}
