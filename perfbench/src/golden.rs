//! The `golden` workload: every artifact of `scripts/golden.sh
//! regenerate`, in its order and with its arguments, plus the
//! trace-replay gate, each run as a cold child process of the release
//! binaries and checked byte-for-byte against the committed `results/`.

use crate::report::{Checker, Tally};
use crate::spans::{Layer, Spans};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Which release binary an artifact runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    Repro,
    Cli,
}

/// Where an artifact's output lands and what it is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Stdout, compared with `results/<path>`.
    Stdout(&'static str),
    /// Every committed `results/fuzz-corpus/*.json` must be reproduced
    /// in the run's corpus directory (seeded with the committed cases,
    /// as `golden.sh check` does).
    Corpus,
    /// A file the child writes, compared with `results/<path>`.
    File(&'static str),
    /// Stdout, compared only with the first pass (no committed copy).
    Gate,
}

/// One child process of a pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    pub name: &'static str,
    pub bin: Bin,
    pub args: Vec<String>,
    pub output: Output,
}

/// The pass, in `golden.sh regenerate` order. `{work}` in an argument
/// is replaced by the run's scratch directory.
pub fn artifacts() -> Vec<Artifact> {
    let repro = |name: &'static str, args: &[&str], out: &'static str| Artifact {
        name,
        bin: Bin::Repro,
        args: args.iter().map(|a| (*a).to_owned()).collect(),
        output: Output::Stdout(out),
    };
    let mut plan = vec![
        repro("table1", &["table1"], "table1.txt"),
        repro("fig1", &["fig1"], "fig1.txt"),
        repro("fig2", &["--full", "fig2"], "fig2.txt"),
        repro("fig2_json", &["--full", "--json", "fig2"], "fig2.json"),
        repro("fig3", &["--full", "fig3"], "fig3.txt"),
        repro("fig3_json", &["--full", "--json", "fig3"], "fig3.json"),
        repro("fig4", &["--full", "fig4"], "fig4.txt"),
        repro("fig4_json", &["--full", "--json", "fig4"], "fig4.json"),
        repro("table2", &["--full", "table2"], "table2.txt"),
        repro("defense", &["defense"], "defense.txt"),
        repro("levels", &["levels"], "levels.txt"),
        repro("stepping", &["stepping"], "stepping.txt"),
        repro("interval", &["interval"], "interval.txt"),
        repro("planes", &["planes"], "planes.txt"),
        repro("energy", &["energy"], "energy.txt"),
        repro("units", &["units"], "units.txt"),
        repro("attest", &["attest"], "attest.txt"),
    ];
    let cli = |name: &'static str, args: &[&str], output: Output| Artifact {
        name,
        bin: Bin::Cli,
        args: args.iter().map(|a| (*a).to_owned()).collect(),
        output,
    };
    plan.push(cli(
        "soak_smoke",
        &[
            "soak",
            "--smoke",
            "--corpus",
            "{work}/fuzz-corpus",
            "--out",
            "{work}/.soak-report.json",
        ],
        Output::Corpus,
    ));
    plan.push(cli(
        "soak_record",
        &["soak", "--record", "{work}/traces/fixture.trace.jsonl"],
        Output::File("traces/fixture.trace.jsonl"),
    ));
    plan.push(cli(
        "soak_replay",
        &[
            "soak",
            "--backend",
            "replay",
            "--trace",
            "results/traces/fixture.trace.jsonl",
        ],
        Output::Gate,
    ));
    plan
}

/// The prepared workload: binaries, scratch directory, committed
/// corpus, and the sampled child memory high-water mark.
pub struct Golden {
    root: PathBuf,
    repro: PathBuf,
    cli: PathBuf,
    work: PathBuf,
    plan: Vec<Artifact>,
    corpus: Vec<(String, Vec<u8>)>,
    pub peak_rss_kb: u64,
}

/// The cargo target directory the release binaries are built into.
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map(|cwd| cwd.join(&dir))
            .unwrap_or_else(|_| PathBuf::from(dir)),
        None => root.join("target"),
    }
}

/// Builds `repro` and `plugvolt-cli` in release mode (a no-op when
/// they are fresh). This is a build step, outside every timed phase.
pub fn build_binaries(root: &Path) -> Result<(), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "plugvolt-bench",
            "--bin",
            "repro",
            "--bin",
            "plugvolt-cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("building the release binaries failed: {status}"))
    }
}

impl Golden {
    /// Set-up, as a user pays it before the first artifact runs: the
    /// release-build freshness check, loading every committed
    /// expectation into `chk`, and resetting the scratch directory.
    pub fn prepare(root: &Path, chk: &mut Checker) -> Result<Golden, String> {
        build_binaries(root)?;
        let release = target_dir(root).join("release");
        let repro = release.join("repro");
        let cli = release.join("plugvolt-cli");
        for bin in [&repro, &cli] {
            if !bin.is_file() {
                return Err(format!("missing release binary {}", bin.display()));
            }
        }
        let results = root.join("results");
        let read = |rel: &str| {
            std::fs::read(results.join(rel)).map_err(|e| format!("cannot read results/{rel}: {e}"))
        };
        let plan = artifacts();
        for a in &plan {
            if let Output::Stdout(rel) | Output::File(rel) = a.output {
                chk.expect(a.name, read(rel)?);
            }
        }
        let mut corpus = Vec::new();
        let dir = results.join("fuzz-corpus");
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|x| x == "json") {
                let name = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .ok_or_else(|| format!("bad corpus file name {}", path.display()))?
                    .to_owned();
                let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
                corpus.push((name, bytes));
            }
        }
        corpus.sort();
        let work = target_dir(root).join("perfbench").join("golden");
        reset_dir(&work)?;
        Ok(Golden {
            root: root.to_path_buf(),
            repro,
            cli,
            work,
            plan,
            corpus,
            peak_rss_kb: 0,
        })
    }

    /// One pass: every artifact as a cold child process. With `spans`,
    /// each child is recorded as a `bench` span named after it.
    pub fn pass(&mut self, chk: &mut Checker, mut spans: Option<&mut Spans>) -> Tally {
        let mut tally = Tally::default();
        for i in 0..self.plan.len() {
            let ok = match spans.as_deref_mut() {
                Some(sp) => {
                    let name = self.plan[i].name;
                    sp.time(Layer::Bench, name, |_| self.run_artifact(i, chk))
                }
                None => self.run_artifact(i, chk),
            };
            tally.op(ok);
            tally.units += 1;
        }
        tally
    }

    fn run_artifact(&mut self, i: usize, chk: &mut Checker) -> bool {
        let a = &self.plan[i];
        let work = self.work.to_string_lossy().into_owned();
        let prepared = match a.output {
            Output::Corpus => self.seed_corpus(),
            Output::File(rel) => self.work.join(rel).parent().map_or(Ok(()), |d| {
                std::fs::create_dir_all(d).map_err(|e| e.to_string())
            }),
            Output::Stdout(_) | Output::Gate => Ok(()),
        };
        if let Err(e) = prepared {
            chk.note(format!("{}: {e}", a.name));
            return false;
        }
        let bin = match a.bin {
            Bin::Repro => &self.repro,
            Bin::Cli => &self.cli,
        };
        let mut cmd = Command::new(bin);
        cmd.current_dir(&self.root)
            .args(a.args.iter().map(|s| s.replace("{work}", &work)));
        let (out, peak_kb) = match run_child(&mut cmd) {
            Ok(r) => r,
            Err(e) => {
                chk.note(format!("{}: cannot spawn: {e}", a.name));
                return false;
            }
        };
        self.peak_rss_kb = self.peak_rss_kb.max(peak_kb);
        if !out.status.success() {
            chk.note(format!("{}: exited with {}", a.name, out.status));
            return false;
        }
        match a.output {
            Output::Stdout(_) | Output::Gate => chk.check(a.name, &out.stdout),
            Output::File(rel) => match std::fs::read(self.work.join(rel)) {
                Ok(bytes) => chk.check(a.name, &bytes),
                Err(e) => {
                    chk.note(format!("{}: no output file: {e}", a.name));
                    false
                }
            },
            Output::Corpus => self.corpus.iter().all(|(name, want)| {
                let path = self.work.join("fuzz-corpus").join(name);
                let ok = std::fs::read(&path).is_ok_and(|got| &got == want);
                if !ok {
                    chk.note(format!("{}: corpus case {name} not reproduced", a.name));
                }
                ok
            }),
        }
    }

    /// Fresh corpus directory holding the committed cases.
    fn seed_corpus(&self) -> Result<(), String> {
        let dir = self.work.join("fuzz-corpus");
        reset_dir(&dir)?;
        for (name, bytes) in &self.corpus {
            std::fs::write(dir.join(name), bytes).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Runs a child to completion, capturing stdout, while a second thread
/// samples its `VmHWM` every few milliseconds (a child too short to be
/// sampled reports 0).
fn run_child(cmd: &mut Command) -> std::io::Result<(std::process::Output, u64)> {
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let status_path = format!("/proc/{}/status", child.id());
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                if let Some(kb) = vm_hwm_kb(&status_path) {
                    peak = kb.max(peak);
                }
                std::thread::sleep(Duration::from_millis(4));
            }
            peak
        });
        let out = child.wait_with_output();
        done.store(true, Ordering::Relaxed);
        let peak = sampler.join().expect("the sampler thread does not panic");
        out.map(|o| (o, peak))
    })
}

/// `VmHWM` from a `/proc/<pid>/status` file, in kB.
pub fn vm_hwm_kb(status_path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_names_are_per_layer_metrics() {
        for a in artifacts() {
            let metric = format!("bench.proc.{}_s", a.name);
            assert!(
                crate::report::PER_LAYER
                    .iter()
                    .any(|(n, _, _)| *n == metric),
                "{metric} missing from PER_LAYER"
            );
        }
        assert_eq!(artifacts().len(), 20);
    }

    #[test]
    fn failing_children_count_as_failures() {
        let mut golden = Golden {
            root: PathBuf::from("."),
            repro: PathBuf::from("echo"),
            cli: PathBuf::from("false"),
            work: std::env::temp_dir(),
            plan: vec![
                Artifact {
                    name: "corrupt",
                    bin: Bin::Repro,
                    args: vec!["table1".to_owned()],
                    output: Output::Stdout("table1.txt"),
                },
                Artifact {
                    name: "nonzero",
                    bin: Bin::Cli,
                    args: Vec::new(),
                    output: Output::Gate,
                },
                Artifact {
                    name: "fine",
                    bin: Bin::Repro,
                    args: vec!["ok".to_owned()],
                    output: Output::Gate,
                },
            ],
            corpus: Vec::new(),
            peak_rss_kb: 0,
        };
        let mut chk = Checker::default();
        chk.expect("corrupt", b"tab1e1\n".to_vec());
        let tally = golden.pass(&mut chk, None);
        assert_eq!(tally.attempted, 3);
        assert_eq!(tally.failed, 2);
        assert_eq!(chk.notes().len(), 2);
    }
}
