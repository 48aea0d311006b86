//! Product-level benchmark of the Plug Your Volt reproduction.
//!
//! ```text
//! perfbench --workload <characterize|table2|campaigns|golden>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- …`.
//! The untraced run (`--trace 0`) prints the end-to-end metrics; the
//! traced run (`--trace 1`) prints the per-layer metrics. The last line
//! of stdout is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). `BENCHMARK.json` lists the metrics and
//! `perfbench/README.md` says which layer metric should move which
//! end-to-end metric on which workload.

mod calib;
mod golden;
mod inproc;
mod report;
mod spans;

use golden::Golden;
use inproc::{Counts, InProc};
use plugvolt_bench::scenario::{Scenario, SEED};
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::model::CpuModel;
use plugvolt_cpu::slack::SlackTable;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::oc_mailbox::{OcRequest, Plane};
use plugvolt_msr::perf_status::PerfStatus;
use report::{
    median, quantile, result_line, tail_percentile, Checker, Tally, END_TO_END, PER_LAYER,
};
use spans::{Layer, Spans};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <characterize|table2|campaigns|golden> \
                     [--seed N] [--seconds S] [--trace 0|1]";

const WORKLOADS: [&str; 4] = ["characterize", "table2", "campaigns", "golden"];

/// Cold set-ups per untraced run; `setup_s` is their median.
const SETUP_PROBES: usize = 7;

/// Fewest timed iterations per run, however long they take.
const MIN_ITERS: usize = 3;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: "",
            seed: SEED,
            seconds: 10.0,
            trace: false,
            setup_probe: false,
        };
        while let Some(flag) = it.next() {
            if flag == "--setup-probe" {
                args.setup_probe = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            match flag.as_str() {
                "--workload" => {
                    args.workload = WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?;
                }
                "--seed" => {
                    args.seed = parse_u64(&value).ok_or_else(|| format!("bad seed '{value}'"))?;
                }
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds '{value}'"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                    };
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".to_owned());
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The checkout root: the directory above this package.
fn repo_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    here.parent().unwrap_or(here).to_path_buf()
}

/// A prepared workload.
enum Bench {
    InProc(InProc),
    Golden(Golden),
}

impl Bench {
    fn prepare(args: &Args, root: &Path, chk: &mut Checker) -> Result<Bench, String> {
        if args.workload == "golden" {
            Golden::prepare(root, chk).map(Bench::Golden)
        } else {
            InProc::prepare(args.workload, root, args.seed, chk).map(Bench::InProc)
        }
    }

    fn iterate(&mut self, chk: &mut Checker) -> Tally {
        match self {
            Bench::InProc(w) => w.iterate(chk),
            Bench::Golden(g) => g.pass(chk, None),
        }
    }

    fn iterate_traced(&mut self, chk: &mut Checker, sp: &mut Spans, counts: &mut Counts) -> Tally {
        match self {
            Bench::InProc(w) => w.iterate_traced(chk, sp, counts),
            Bench::Golden(g) => g.pass(chk, Some(sp)),
        }
    }

    /// Models whose slack tables this workload's processes build.
    fn models(&self) -> Vec<CpuModel> {
        match self {
            Bench::InProc(w) => w.models(),
            Bench::Golden(_) => vec![CpuModel::SkyLake, CpuModel::KabyLakeR, CpuModel::CometLake],
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        let kb = match self {
            Bench::InProc(_) => golden::vm_hwm_kb("/proc/self/status").unwrap_or(0),
            Bench::Golden(g) => g.peak_rss_kb,
        };
        kb as f64 / 1024.0
    }

    /// What the program receives, as text: the seed moves it for the
    /// in-process workloads and never for the pinned golden artifacts.
    fn inputs(&self) -> String {
        match self {
            Bench::InProc(w) => w.inputs(),
            Bench::Golden(_) => format!("{:?}", golden::artifacts()),
        }
    }
}

fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "rustc unknown".to_owned(), |s| s.trim().to_owned());
    format!("host: nproc={nproc} {rustc}")
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    let root = repo_root();
    let mut chk = Checker::default();
    if args.setup_probe {
        drop(Bench::prepare(args, &root, &mut chk)?);
        let setup = started.elapsed().as_secs_f64();
        println!("{setup} {}", setup * calib::factor_now());
        return Ok(());
    }
    // In a fresh checkout this first build compiles the binaries; it
    // runs before, and is not part of, any timed set-up.
    if args.workload == "golden" {
        golden::build_binaries(&root)?;
    }
    println!("{}", host_line());
    let setups = if args.trace {
        Vec::new()
    } else {
        (0..SETUP_PROBES)
            .map(|_| setup_probe(args))
            .collect::<Result<Vec<_>, String>>()?
    };
    let mut bench = Bench::prepare(args, &root, &mut chk)?;
    println!(
        "workload={} seed={:#x} seconds={} trace={} inputs={:016x}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fnv64(&bench.inputs())
    );
    let (tally, metrics) = if args.trace {
        traced(args, &root, &mut bench, &mut chk)?
    } else {
        untraced(args, &mut bench, &mut chk, &setups)
    };
    for note in chk.notes() {
        println!("failure: {note}");
    }
    println!(
        "failed_ratio {} ({} of {})",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!("{}", result_line(tally, &metrics));
    Ok(())
}

/// Times one cold set-up in a child process of this binary: raw host
/// seconds and seconds scaled to the reference host speed.
fn setup_probe(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot run the set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed: Vec<f64> = text
        .lines()
        .last()
        .unwrap_or("")
        .split(' ')
        .filter_map(|v| v.parse().ok())
        .collect();
    match (out.status.success(), parsed.as_slice()) {
        (true, [raw, scaled]) => Ok((*raw, *scaled)),
        _ => Err(format!(
            "set-up probe failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The untraced run. Every time it reports is host seconds scaled to
/// the reference host speed (see `calib`); the human-readable lines
/// also give the raw host seconds.
fn untraced(
    args: &Args,
    bench: &mut Bench,
    chk: &mut Checker,
    setups: &[(f64, f64)],
) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let (mut raw, mut iters) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut cal = calib::Calibrator::new(t0);
    let mut spans = Vec::new();
    while raw.len() < MIN_ITERS || t0.elapsed().as_secs_f64() < args.seconds {
        let start = t0.elapsed().as_secs_f64();
        tally.add(bench.iterate(chk));
        let end = t0.elapsed().as_secs_f64();
        raw.push(end - start);
        spans.push((start, end));
        cal.catch_up();
    }
    for (&(start, end), s) in spans.iter().zip(&raw) {
        iters.push(s * cal.factor(start, end));
    }
    let f = cal.run_factor();
    let timed: f64 = iters.iter().sum();
    let setup = median(&setups.iter().map(|s| s.1).collect::<Vec<_>>());
    let p50 = median(&iters);
    let throughput = tally.units as f64 / timed;
    println!(
        "host speed factor {f:.4} ({} calibration samples; times below are scaled by it)",
        cal.len()
    );
    println!(
        "setup_s {setup:.6} s (median of {} cold set-ups; raw {:.4?})",
        setups.len(),
        setups.iter().map(|s| s.0).collect::<Vec<_>>()
    );
    println!(
        "throughput {throughput:.1} 1/s ({} work units in {timed:.3} s; raw {:.3} s)",
        tally.units,
        raw.iter().sum::<f64>()
    );
    match tail_percentile(iters.len()) {
        Some(p) => println!(
            "iter_p50_s {p50:.6} s, p{p} {:.6} s (n={}; raw p50 {:.6} s)",
            quantile(&iters, p / 100.0),
            iters.len(),
            median(&raw)
        ),
        None => println!(
            "iter_p50_s {p50:.6} s (n={}; raw p50 {:.6} s)",
            iters.len(),
            median(&raw)
        ),
    }
    let rss = bench.peak_rss_mb();
    println!("peak_rss_mb {rss:.1} MB");
    let values = [setup, throughput, p50, rss];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| (*name, value, *unit))
        .collect();
    (tally, metrics)
}

/// The traced run: untraced and traced iterations alternate, so host
/// drift hits both sides of `telemetry.trace_overhead` alike.
fn traced(
    args: &Args,
    root: &Path,
    bench: &mut Bench,
    chk: &mut Checker,
) -> Result<(Tally, Metrics), String> {
    let mut tally = Tally::default();
    let mut sp = Spans::new();
    let mut first_counts: Option<Counts> = None;
    let (mut plain_s, mut plain_units, mut traced_s, mut traced_units) = (0.0, 0u64, 0.0, 0u64);
    let mut n_traced = 0u32;
    let t0 = Instant::now();
    while n_traced < MIN_ITERS as u32 || t0.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let plain = bench.iterate(chk);
        plain_s += t.elapsed().as_secs_f64();
        plain_units += plain.units;
        tally.add(plain);

        sp.set_iter(n_traced);
        let mut counts = Counts::new();
        let t = Instant::now();
        let traced = sp.time(Layer::Bench, "bench.iteration", |sp| {
            bench.iterate_traced(chk, sp, &mut counts)
        });
        traced_s += t.elapsed().as_secs_f64();
        traced_units += traced.units;
        tally.add(traced);
        n_traced += 1;
        // Counts are exact at a fixed seed: a traced iteration that
        // counts differently from the first is a failed operation.
        match &first_counts {
            None => first_counts = Some(counts),
            Some(first) if *first != counts => {
                chk.note("traced counts differ between iterations".to_owned());
                tally.op(false);
            }
            Some(_) => {}
        }
    }
    let n = f64::from(n_traced);
    let mut m = first_counts.unwrap_or_default();
    let hits = m.get("cpu.slack.hits").copied().unwrap_or(0.0);
    let lookups = hits + m.get("cpu.slack.fallbacks").copied().unwrap_or(0.0);
    m.insert(
        "cpu.slack.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    let points = m.get("core.characterize.points").copied().unwrap_or(0.0);
    m.insert(
        "core.characterize.point_ns",
        per(sp.total_ns("core.characterize") as f64 / n, points),
    );
    let bare = sp.total_ns("workloads.rate_bare") as f64 / n;
    let polled = sp.total_ns("workloads.rate_polled") as f64 / n;
    m.insert("workloads.rate_bare_s", bare / 1e9);
    m.insert("workloads.rate_polled_s", polled / 1e9);
    let ticks = m.get("core.poll.ticks").copied().unwrap_or(0.0);
    if sp.total_ns("workloads.rate_polled") > 0 {
        m.insert("core.poll.tick_ns", per(polled - bare, ticks));
    }
    m.insert(
        "attacks.generate_s",
        sp.total_ns("attacks.generate") as f64 / n / 1e9,
    );
    let cells = m.get("bench.soak.cells").copied().unwrap_or(0.0);
    m.insert(
        "bench.soak.cell_ms",
        per(sp.total_ns("bench.soak") as f64 / n / 1e6, cells),
    );
    for a in golden::artifacts() {
        let times: Vec<f64> = sp
            .spans()
            .iter()
            .filter(|s| s.name == a.name && s.layer == Layer::Bench)
            .map(|s| s.ns() as f64 / 1e9)
            .collect();
        if let Some((name, _, _)) = PER_LAYER
            .iter()
            .find(|(name, _, _)| *name == format!("bench.proc.{}_s", a.name))
        {
            m.insert(name, median(&times));
        }
    }
    let traced_s = traced_s - sp.total_ns(inproc::CAMPAIGN_DRIVE) as f64 / 1e9;
    m.insert(
        "telemetry.trace_overhead",
        (traced_units as f64 / traced_s) / (plain_units as f64 / plain_s),
    );
    for (layer, ns) in Layer::ALL.iter().zip(sp.self_ns_by_layer()) {
        let name = format!("self.{}_s", layer.name());
        if let Some((key, _, _)) = PER_LAYER.iter().find(|(k, _, _)| *k == name) {
            m.insert(key, ns as f64 / n / 1e9);
        }
    }
    m.insert("cpu.slack.build_s", slack_build_s(&bench.models()));
    m.insert("msr.codec_ns", codec_ns());
    m.insert("hal.rdmsr_ns", hal_rdmsr_ns(args.seed));

    let out_dir = golden::target_dir(root).join("perfbench");
    let path = out_dir.join(format!("spans-{}.jsonl", args.workload));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, sp.to_jsonl()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "traced iterations: {n_traced} ({} spans written to {})",
        sp.spans().len(),
        path.display()
    );
    let metrics: Metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, m.get(name).copied().unwrap_or(0.0), *unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    Ok((tally, metrics))
}

fn per(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

/// Median of five samples of `f`.
fn median_of_5(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..5).map(|_| f()).collect();
    median(&samples)
}

/// `SlackTable::build` seconds per model (what every cold process pays
/// per model it boots).
fn slack_build_s(models: &[CpuModel]) -> f64 {
    let specs: Vec<_> = models.iter().map(|m| m.spec()).collect();
    median_of_5(|| {
        let t = Instant::now();
        for spec in &specs {
            black_box(SlackTable::build(black_box(spec)));
        }
        t.elapsed().as_secs_f64() / specs.len() as f64
    })
}

/// ns per OC-mailbox or perf-status encode/decode call.
fn codec_ns() -> f64 {
    const N: u32 = 200_000;
    median_of_5(|| {
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..N {
            let offset = -i32::try_from(i % 300).unwrap_or(0);
            let raw = OcRequest::write_offset(offset, Plane::Core).encode();
            acc ^= OcRequest::decode(black_box(raw))
                .map_or(0, |r| r.offset_mv().unsigned_abs().into());
            let perf = PerfStatus::new(800 + (i % 30) * 100, 900.0).encode();
            acc ^= u64::from(PerfStatus::decode(black_box(perf)).freq_mhz());
        }
        black_box(acc);
        t.elapsed().as_nanos() as f64 / f64::from(4 * N)
    })
}

/// ns per `Machine::rdmsr` of 0x198 or 0x150 through the backend.
fn hal_rdmsr_ns(seed: u64) -> f64 {
    const N: u32 = 100_000;
    let mut machine = Scenario::with_seed(seed).machine(CpuModel::CometLake);
    median_of_5(|| {
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..N {
            acc ^= machine.rdmsr(CoreId(0), Msr::IA32_PERF_STATUS).unwrap_or(0);
            acc ^= machine.rdmsr(CoreId(0), Msr::OC_MAILBOX).unwrap_or(0);
        }
        black_box(acc);
        t.elapsed().as_nanos() as f64 / f64::from(2 * N)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse(&[
            "--workload",
            "table2",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!((a.workload, a.seed, a.trace), ("table2", 7, true));
        assert_eq!(parse(&["--workload", "golden"]).map(|a| a.seed), Ok(SEED));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "golden", "--trace", "2"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
    }

    #[test]
    fn seed_moves_campaign_inputs_but_not_golden() {
        let root = repo_root();
        let inputs = |workload: &'static str, seed: u64| {
            let args = Args {
                workload,
                seed,
                seconds: 1.0,
                trace: false,
                setup_probe: false,
            };
            Bench::prepare(&args, &root, &mut Checker::default())
                .expect("prepares")
                .inputs()
        };
        assert_ne!(inputs("campaigns", SEED), inputs("campaigns", SEED + 1));
        assert_eq!(inputs("golden", SEED), inputs("golden", SEED + 1));
    }
}
