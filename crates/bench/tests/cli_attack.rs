//! Pins the `plugvolt-cli attack` report, which the golden manifest
//! does not cover: the undefended Plundervolt RSA-CRT run on Comet Lake
//! factors the modulus, and the same run against the polling module,
//! deployed from a coarse characterization map, is defeated.

use std::process::Command;

fn cli(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_plugvolt-cli"))
        .args(args)
        .output()
        .expect("plugvolt-cli runs");
    assert!(out.status.success(), "{args:?}: {out:?}");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn field<'a>(report: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": ");
    let line = report
        .lines()
        .find_map(|l| l.trim().strip_prefix(key.as_str()))
        .unwrap_or_else(|| panic!("no {name} in report: {report}"));
    line.trim_end_matches(',')
}

#[test]
fn undefended_attack_extracts_the_pinned_factor() {
    let (report, stderr) = cli(&["attack", "--model", "comet-lake"]);
    assert_eq!(field(&report, "attack"), "\"plundervolt-rsa-crt\"");
    assert_eq!(field(&report, "attempts"), "28");
    assert_eq!(field(&report, "faulty_events"), "1");
    assert_eq!(field(&report, "success"), "true");
    assert_eq!(
        field(&report, "extracted"),
        "\"prime factor 0xe39df8bf of n=0xdf1222cf971f0e55\""
    );
    assert_eq!(field(&report, "crashes"), "0");
    assert!(stderr.contains("RESULT: machine compromised"), "{stderr}");
}

#[test]
fn polling_module_from_a_coarse_map_defeats_the_attack() {
    let map = std::env::temp_dir().join(format!("plugvolt-cli-attack-{}.json", std::process::id()));
    let map_arg = map.to_str().expect("temp path is UTF-8");
    cli(&[
        "characterize",
        "--model",
        "comet-lake",
        "--out",
        map_arg,
        "--coarse",
    ]);
    let (report, stderr) = cli(&[
        "attack",
        "--model",
        "comet-lake",
        "--map",
        map_arg,
        "--deploy",
        "polling",
    ]);
    std::fs::remove_file(&map).ok();
    assert_eq!(field(&report, "attempts"), "41");
    assert_eq!(field(&report, "faulty_events"), "0");
    assert_eq!(field(&report, "success"), "false");
    assert_eq!(field(&report, "extracted"), "null");
    assert!(stderr.contains("deployed polling-module"), "{stderr}");
    assert!(stderr.contains("RESULT: attack defeated"), "{stderr}");
}
