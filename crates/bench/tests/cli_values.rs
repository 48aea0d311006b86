//! `plugvolt-cli` rejects numeric flag values that mean nothing to the
//! run — zero counts, a negative margin, a polling period outside
//! 1 µs – 1 s — and values that do not parse, with a typed error that
//! names the flag, and exit 1.

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_plugvolt-cli"))
        .args(args)
        .output()
        .expect("plugvolt-cli runs")
}

/// Runs `args`, expects exit 1, and returns stderr.
fn rejected(args: &[&str]) -> String {
    let out = cli(args);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("RESULT"), "{args:?} ran anyway: {stdout}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_names(stderr: &str, expected: &str) {
    assert!(
        stderr.contains(expected),
        "expected {expected:?} in stderr: {stderr}"
    );
}

#[test]
fn soak_rejects_zero_campaigns() {
    let stderr = rejected(&["soak", "--smoke", "--campaigns", "0", "--no-self-test"]);
    assert_names(&stderr, "--campaigns must be at least 1 (got 0)");
    assert!(!stderr.contains("all oracles held"), "{stderr}");
}

#[test]
fn host_probe_rejects_periods_outside_one_microsecond_to_one_second() {
    for period in ["0", "-5", "0.5", "1000001", "nan", "inf", "-inf"] {
        let stderr = rejected(&["soak", "--backend", "host", "--period-us", period]);
        assert_names(
            &stderr,
            &format!("--period-us must be a finite period between 1 and 1000000 µs (got {period})"),
        );
    }
}

#[test]
fn host_probe_rejects_zero_reads() {
    let stderr = rejected(&["soak", "--backend", "host", "--reads", "0"]);
    assert_names(&stderr, "--reads must be at least 1 (got 0)");
}

#[test]
fn maximal_rejects_a_negative_margin() {
    // The margin is checked before the map is read, so no map is needed.
    let stderr = rejected(&["maximal", "--map", "unused.json", "--margin", "-50"]);
    assert_names(&stderr, "--margin must be at least 0 mV (got -50)");
}

#[test]
fn unparsable_numbers_name_the_flag_and_the_raw_value() {
    let stderr = rejected(&["soak", "--smoke", "--seed", "abc"]);
    assert_names(
        &stderr,
        "--seed expects a number (got \"abc\": invalid digit found in string)",
    );
    let stderr = rejected(&["soak", "--smoke", "--seed", "18446744073709551616"]);
    assert_names(
        &stderr,
        "--seed expects a number (got \"18446744073709551616\"",
    );
    assert_names(&stderr, "too large");
    let stderr = rejected(&["soak", "--record", "unused.jsonl", "--seed", "0xzz"]);
    assert_names(&stderr, "--seed expects a number (got \"0xzz\"");
    let stderr = rejected(&["soak", "--smoke", "--campaigns", "-1"]);
    assert_names(&stderr, "--campaigns expects a number (got \"-1\"");
    let stderr = rejected(&["soak", "--backend", "host", "--reads", "many"]);
    assert_names(&stderr, "--reads expects a number (got \"many\"");
    let stderr = rejected(&["maximal", "--map", "unused.json", "--margin", "5mV"]);
    assert_names(&stderr, "--margin expects a number (got \"5mV\"");
    let stderr = rejected(&[
        "characterize",
        "--model",
        "comet-lake",
        "--out",
        "unused.json",
        "--workers",
        "two",
    ]);
    assert_names(&stderr, "--workers expects a number (got \"two\"");
}

#[test]
fn a_numeric_flag_without_its_value_is_rejected() {
    let stderr = rejected(&["soak", "--smoke", "--campaigns", "--no-self-test"]);
    assert_names(&stderr, "--campaigns requires a value");
}
