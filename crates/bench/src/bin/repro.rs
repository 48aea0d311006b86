//! Regenerates every table and figure of *Plug Your Volt* (DAC 2024).
//!
//! ```text
//! repro [--full] [--json] [--telemetry <path>] [--stream <path>] <experiment>
//!
//! experiments:
//!   table1    MSR 0x150 bit layout (paper Table 1)
//!   fig1      Eq. 1 terms vs undervolt (paper Figure 1 timing intuition)
//!   fig2      Sky Lake safe/unsafe characterization (paper Figure 2)
//!   fig3      Kaby Lake R characterization (paper Figure 3)
//!   fig4      Comet Lake characterization (paper Figure 4)
//!   table2    SPEC2017-like polling overhead (paper Table 2)
//!   defense   attack × deployment matrix (§4.3 complete prevention)
//!   levels    kernel module vs microcode vs MSR clamp turnaround (§5)
//!   stepping  single/zero-stepping vs deflection vs polling (§4.1)
//!   interval  polling-period ablation: overhead vs turnaround
//!   planes    voltage-plane ablation: core-only vs plane-aware polling
//!   energy    energy cost of denying benign undervolting (RAPL)
//!   units     die-to-die variation: per-unit vs per-generation bounds
//!   attest    attestation policies (§4.1)
//!   all       everything above
//!
//! --full uses the paper's full sweep resolution (slower).
//! --json emits machine-readable JSON to stdout instead of tables
//!        (figures/defense/levels/stepping/interval/planes/energy/units).
//! --telemetry <path> writes a deterministic telemetry profile (JSON)
//!        covering the run: MSR traffic, detection latency, exposure
//!        windows (table2/defense/levels/interval).
//! --stream <path> appends pinned-schema JSONL telemetry snapshot
//!        frames (registry counter deltas plus span aggregates) every
//!        simulated millisecond while the characterization figures
//!        (fig2/fig3/fig4) sweep; each experiment is re-based onto one
//!        monotone stream clock.
//!
//! Any other flag, or a second experiment, exits 2 with the usage line.
//! ```

use plugvolt::characterize::CharacterizationRun;
use plugvolt_bench::experiments::{self, quick_map};
use plugvolt_bench::scenario::Scenario;
use plugvolt_bench::text::TextTable;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::model::CpuModel;
use plugvolt_des::time::SimTime;
use plugvolt_msr::oc_mailbox::{encode_offset_request, OcRequest, Plane};
use plugvolt_telemetry::{Sink, StreamCursor};
use plugvolt_workloads::overhead::{run_table2_with, OverheadConfig};
use std::process::ExitCode;

/// Every experiment name `repro` accepts; `all` runs the others in this order.
const EXPERIMENTS: [&str; 15] = [
    "table1", "fig1", "fig2", "fig3", "fig4", "table2", "defense", "levels", "stepping",
    "interval", "planes", "energy", "units", "attest", "all",
];

const USAGE: &str = "usage: repro [--full] [--json] [--telemetry <path>] [--stream <path>] \
                     <table1|fig1|fig2|fig3|fig4|table2|defense|levels|stepping|interval|planes|energy|units|attest|all>";

/// The parsed command line.
#[derive(Debug)]
struct Args {
    full: bool,
    json: bool,
    telemetry_path: Option<String>,
    stream_path: Option<String>,
    cmd: String,
}

/// Parses `repro`'s argv (program name excluded). Every token must be a
/// known flag, the value of `--telemetry`/`--stream`, or the one
/// experiment name; the error names the first token that is none of
/// these.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut full = false;
    let mut json = false;
    let mut telemetry_path = None;
    let mut stream_path = None;
    let mut cmd: Option<String> = None;
    let mut tokens = args.iter();
    while let Some(arg) = tokens.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--json" => json = true,
            "--telemetry" | "--stream" => {
                let path = tokens
                    .next()
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| format!("{arg} requires a file path argument"))?;
                let slot = if arg == "--telemetry" {
                    &mut telemetry_path
                } else {
                    &mut stream_path
                };
                *slot = Some(path.clone());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            name => {
                if let Some(first) = &cmd {
                    return Err(format!(
                        "unexpected argument '{name}' (experiment '{first}' already given)"
                    ));
                }
                if !EXPERIMENTS.contains(&name) {
                    return Err(format!("unknown experiment '{name}'"));
                }
                cmd = Some(name.to_owned());
            }
        }
    }
    let cmd = cmd.ok_or_else(|| "missing experiment".to_owned())?;
    Ok(Args {
        full,
        json,
        telemetry_path,
        stream_path,
        cmd,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        full,
        json,
        telemetry_path,
        stream_path,
        cmd,
    } = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repro: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sink = (telemetry_path.is_some() || stream_path.is_some()).then(Sink::new);
    let scn = match &sink {
        Some(sink) => Scenario::new().with_telemetry(sink.clone()),
        None => Scenario::new(),
    };
    let mut stream = match (&stream_path, &sink) {
        (Some(path), Some(sink)) => {
            // The stream frames carry span aggregates; the machines of
            // the streamed figures share this sink's tracer.
            sink.tracer().set_enabled(true);
            match StreamWriter::create(path) {
                Ok(w) => Some(w),
                Err(e) => {
                    eprintln!("cannot write telemetry stream to {path}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        _ => None,
    };
    let run = |name: &str| cmd == "all" || cmd == name;

    if run("table1") {
        table1(json);
    }
    if run("fig1") {
        fig1(json);
    }
    for (name, model) in [
        ("fig2", CpuModel::SkyLake),
        ("fig3", CpuModel::KabyLakeR),
        ("fig4", CpuModel::CometLake),
    ] {
        if run(name) {
            figure(&scn, name, model, full, json, stream.as_mut());
        }
    }
    if run("table2") {
        table2(&scn, full, json);
    }
    if run("defense") {
        defense(&scn, json);
    }
    if run("levels") {
        levels(&scn, json);
    }
    if run("stepping") {
        stepping(&scn, json);
    }
    if run("interval") {
        interval(&scn, json);
    }
    if run("planes") {
        planes(&scn, json);
    }
    if run("energy") {
        energy(&scn, json);
    }
    if run("units") {
        units(&scn, json);
    }
    if run("attest") {
        attest(&scn, json);
    }
    if let (Some(w), Some(sink)) = (stream.as_mut(), &sink) {
        match w.finish(sink) {
            Ok(frames) => eprintln!(
                "{frames} telemetry frames streamed to {}",
                stream_path.as_deref().unwrap_or("?")
            ),
            Err(e) => {
                eprintln!(
                    "cannot write telemetry stream to {}: {e}",
                    stream_path.as_deref().unwrap_or("?")
                );
                return ExitCode::from(1);
            }
        }
    }
    if let (Some(path), Some(sink)) = (telemetry_path, sink) {
        let profile = sink.profile(&cmd);
        if let Err(e) = std::fs::write(&path, profile.to_json() + "\n") {
            eprintln!("failed to write telemetry profile to {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!(
            "telemetry profile written to {path} ({} events retained, {} dropped; {} trace records dropped)",
            profile.events.len(),
            profile.events_dropped,
            profile.trace_dropped
        );
    }
    ExitCode::SUCCESS
}

/// Streams pinned-schema telemetry frames to a JSONL file while the
/// characterization figures sweep. Each experiment boots an
/// independent machine whose sim clock restarts at zero, so the writer
/// re-bases every experiment onto one monotone stream clock
/// (`base_ps`) before polling the cursor; I/O errors are stashed and
/// surfaced once at [`StreamWriter::finish`].
struct StreamWriter {
    cursor: StreamCursor,
    out: std::fs::File,
    frames: u64,
    base_ps: u64,
    last_ps: u64,
    error: Option<std::io::Error>,
}

impl StreamWriter {
    fn create(path: &str) -> Result<Self, std::io::Error> {
        Ok(StreamWriter {
            cursor: StreamCursor::new(1),
            out: std::fs::File::create(path)?,
            frames: 0,
            base_ps: 0,
            last_ps: 0,
            error: None,
        })
    }

    /// Re-base the stream clock before an experiment: its machine's
    /// sim clock starts over at zero.
    fn begin_experiment(&mut self) {
        self.base_ps = self.last_ps;
    }

    /// Poll the cursor at the machine's current (re-based) sim time,
    /// appending a frame when a snapshot interval elapsed.
    fn observe(&mut self, sink: &Sink, now: SimTime) {
        let abs = self.base_ps + now.as_picos();
        self.last_ps = self.last_ps.max(abs);
        if let Some(frame) = self.cursor.poll(sink, SimTime::from_picos(abs)) {
            self.write(&frame.to_jsonl());
        }
    }

    /// Emit the final unconditional frame and surface any stashed I/O
    /// error; returns the total frame count on success.
    fn finish(&mut self, sink: &Sink) -> Result<u64, std::io::Error> {
        let frame = self.cursor.flush(sink, SimTime::from_picos(self.last_ps));
        self.write(&frame.to_jsonl());
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(self.frames),
        }
    }

    fn write(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        use std::io::Write as _;
        match writeln!(self.out, "{line}") {
            Ok(()) => self.frames += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Worker count for the parallel experiment matrices. The merged
/// results are byte-identical for any worker count (pinned by
/// `tests/determinism.rs`), so using every available core is safe.
fn matrix_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// In JSON mode, print the serialized payload and skip the table.
fn emit_json<T: serde::Serialize>(json: bool, name: &str, payload: &T) -> bool {
    if !json {
        return false;
    }
    println!(
        "{}",
        serde_json::json!({ "experiment": name, "data": payload })
    );
    true
}

fn banner(json: bool, title: &str) {
    if !json {
        println!("\n=== {title} ===\n");
    }
}

fn table1(json: bool) {
    banner(json, "Table 1: MSR 0x150 (overclocking mailbox) bit layout");
    let mut t = TextTable::new(["bits", "function", "explanation"]);
    t.row(["0-20", "-", "reserved"]);
    t.row([
        "21-31",
        "offset",
        "voltage offset vs base voltage, 1/1024 V units, 11-bit two's complement",
    ]);
    t.row(["32", "write-enable", "1 = apply offset, 0 = read request"]);
    t.row(["33-39", "-", "reserved (command byte 0x11 spans 32-39)"]);
    t.row([
        "40-42",
        "plane select",
        "0=core 1=gpu 2=cache 3=uncore 4=analog-io",
    ]);
    t.row(["43-62", "-", "reserved"]);
    t.row(["63", "run/busy", "must be 1 for the write to be accepted"]);
    print!("{}", t.render());

    println!("\nAlgorithm 1 encodings (offset_voltage):");
    let mut t = TextTable::new(["offset (mV)", "plane", "raw value", "decodes back to"]);
    for (off, plane) in [(-50, Plane::Core), (-150, Plane::Core), (-250, Plane::Gpu)] {
        let raw = encode_offset_request(off, plane.index());
        let back = OcRequest::decode(raw).expect("well-formed");
        t.row([
            off.to_string(),
            plane.to_string(),
            format!("{raw:#018x}"),
            format!("{} mV on {}", back.offset_mv(), back.plane()),
        ]);
    }
    print!("{}", t.render());
}

fn fig1(json: bool) {
    banner(
        json,
        "Figure 1: Eq. 1 interplay under undervolting (Sky Lake @ 3.6 GHz)",
    );
    let series = experiments::fig1_series(CpuModel::SkyLake, FreqMhz(3_600), 260);
    let mut t = TextTable::new([
        "offset (mV)",
        "T_src+T_prop (ps)",
        "T_clk-T_setup-T_eps (ps)",
        "slack (ps)",
        "state",
    ]);
    for p in series.iter().step_by(4) {
        t.row([
            p.offset_mv.to_string(),
            format!("{:.1}", p.path_ps),
            format!("{:.1}", p.available_ps),
            format!("{:+.1}", p.slack_ps),
            p.state.to_string(),
        ]);
    }
    print!("{}", t.render());
}

fn figure(
    scn: &Scenario,
    name: &str,
    model: CpuModel,
    full: bool,
    json: bool,
    stream: Option<&mut StreamWriter>,
) {
    let spec = model.spec();
    banner(
        json,
        &format!(
            "{}: safe/unsafe characterization of {} ({}, microcode {:#x})",
            name.to_uppercase(),
            spec.codename,
            spec.name,
            spec.microcode
        ),
    );
    let run: CharacterizationRun = match stream {
        Some(w) => {
            w.begin_experiment();
            experiments::figure_characterization_observed(scn, model, full, &mut |m| {
                w.observe(m.telemetry(), m.now());
            })
        }
        None => experiments::figure_characterization(scn, model, full),
    }
    .expect("sweep completes");
    if emit_json(json, name, &run.map) {
        return;
    }
    let mut t = TextTable::new([
        "frequency",
        "nominal (mV)",
        "first faults at (mV)",
        "crash at (mV)",
        "unsafe band width (mV)",
    ]);
    for (f, band) in run.map.iter() {
        let width = match (band.fault_onset_mv, band.crash_mv) {
            (Some(o), Some(c)) => (o - c).to_string(),
            _ => "-".to_owned(),
        };
        t.row([
            f.to_string(),
            format!("{:.0}", spec.nominal_voltage_mv(f)),
            band.fault_onset_mv
                .map_or("none in sweep".into(), |o| o.to_string()),
            band.crash_mv
                .map_or("none in sweep".into(), |c| c.to_string()),
            width,
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nsweep: {} grid points, {} crashes/resets, {} simulated",
        run.records.len(),
        run.crashes,
        run.duration
    );
    if let Some(mss) = run.map.maximal_safe_offset_mv(0) {
        println!("maximal safe state: {mss} mV (deepest offset safe at every frequency)");
    }
}

fn table2(scn: &Scenario, full: bool, json: bool) {
    banner(
        json,
        "Table 2: polling-countermeasure overhead on SPEC2017-like suite (Comet Lake)",
    );
    let cfg = OverheadConfig {
        work_divisor: if full { 1 } else { 20 },
        ..OverheadConfig::default()
    };
    let table = run_table2_with(&cfg, scn.telemetry()).expect("harness completes");
    if emit_json(json, "table2", &table) {
        return;
    }
    let mut t = TextTable::new([
        "benchmark",
        "base w/o poll",
        "base w/ poll",
        "slowdown %",
        "peak w/o poll",
        "peak w/ poll",
        "slowdown %",
    ]);
    for r in &table.rows {
        t.row([
            r.name.clone(),
            format!("{:.2}", r.base_without),
            format!("{:.2}", r.base_with),
            format!("{:+.2}%", r.base_slowdown_pct),
            format!("{:.2}", r.peak_without),
            format!("{:.2}", r.peak_with),
            format!("{:+.2}%", r.peak_slowdown_pct),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nmean slowdown: base {:+.3}%, peak {:+.3}%, mean |slowdown| {:.3}% (paper: 0.28%)",
        table.mean_base_slowdown_pct, table.mean_peak_slowdown_pct, table.mean_abs_slowdown_pct
    );
    if !full {
        println!("(scaled run: pass --full for reference-length workloads)");
    }
}

fn defense(scn: &Scenario, json: bool) {
    banner(
        json,
        "Defense matrix (§4.3): every attack vs every deployment (Comet Lake)",
    );
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let cells =
        experiments::defense_matrix(scn, model, &map, matrix_workers()).expect("matrix completes");
    if emit_json(json, "defense", &cells) {
        return;
    }
    let mut t = TextTable::new([
        "deployment",
        "attack",
        "exploit succeeded",
        "faulty events",
        "detections",
        "benign DVFS kept",
    ]);
    for c in &cells {
        t.row([
            c.deployment.clone(),
            c.attack.clone(),
            if c.success { "YES (broken)" } else { "no" }.to_owned(),
            c.faulty_events.to_string(),
            c.detections.to_string(),
            if c.benign_dvfs_preserved { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    print!("{}", t.render());
}

fn levels(scn: &Scenario, json: bool) {
    banner(
        json,
        "Deployment levels (§5): turnaround / exposure under a -250 mV attack write",
    );
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let rows = experiments::deployment_levels(scn, model, &map, matrix_workers())
        .expect("levels complete");
    if emit_json(json, "levels", &rows) {
        return;
    }
    let mut t = TextTable::new([
        "deployment",
        "neutralize latency",
        "max effective undervolt (mV)",
        "ever in unsafe state",
        "victim faults in 5 ms",
    ]);
    for r in &rows {
        t.row([
            r.deployment.clone(),
            r.neutralize_latency
                .map_or("never".into(), |d| d.to_string()),
            format!("{:.1}", r.max_effective_undervolt_mv),
            r.ever_unsafe.to_string(),
            r.victim_faults.to_string(),
        ]);
    }
    print!("{}", t.render());
}

fn stepping(scn: &Scenario, json: bool) {
    banner(
        json,
        "Threat model (§4.1): stepping adversaries vs deflection vs polling",
    );
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let rows = experiments::stepping_experiment(scn, model, &map).expect("experiment completes");
    if emit_json(json, "stepping", &rows) {
        return;
    }
    let mut t = TextTable::new([
        "defense",
        "adversary stepping",
        "exploit succeeded",
        "trap fired",
    ]);
    for r in &rows {
        t.row([
            r.defense.clone(),
            r.stepping.clone(),
            if r.exploit_succeeded {
                "YES (broken)"
            } else {
                "no"
            }
            .to_owned(),
            r.trap_fired.to_string(),
        ]);
    }
    print!("{}", t.render());
}

fn interval(scn: &Scenario, json: bool) {
    banner(
        json,
        "Ablation: polling period vs overhead vs turnaround (Comet Lake @ f_max)",
    );
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let rows =
        experiments::interval_sweep(scn, model, &map, matrix_workers()).expect("sweep completes");
    if emit_json(json, "interval", &rows) {
        return;
    }
    let mut t = TextTable::new(["period", "overhead %", "detect latency", "rail ever moved"]);
    for r in &rows {
        t.row([
            r.period.to_string(),
            format!("{:.3}", r.overhead_pct),
            r.detect_latency.map_or("-".into(), |d| d.to_string()),
            r.rail_moved.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("\n(the VR command latency is 800us: any period comfortably below it");
    println!(" neutralizes the write before the rail moves at all)");
}

fn planes(scn: &Scenario, json: bool) {
    banner(
        json,
        "Ablation: voltage planes watched by the polling module (Comet Lake)",
    );
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let rows = experiments::plane_ablation(scn, model, &map).expect("ablation completes");
    if emit_json(json, "planes", &rows) {
        return;
    }
    let mut t = TextTable::new([
        "planes polled",
        "idle overhead %",
        "core-plane attack",
        "cache-plane attack",
    ]);
    for r in &rows {
        t.row([
            r.planes.clone(),
            format!("{:.3}", r.overhead_pct),
            if r.core_attack_succeeded {
                "BROKEN"
            } else {
                "blocked"
            }
            .to_owned(),
            if r.cache_attack_succeeded {
                "BROKEN"
            } else {
                "blocked"
            }
            .to_owned(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "
(Algorithm 3 as written reads the mailbox response register once per"
    );
    println!(" core; explicit per-plane read commands close the cache plane at the");
    println!(" cost of two extra MSR accesses per plane per core per tick)");
}

fn energy(scn: &Scenario, json: bool) {
    banner(
        json,
        "Energy: what denying benign undervolting costs (Comet Lake, RAPL)",
    );
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let rows = experiments::energy_ablation(scn, model, &map).expect("ablation completes");
    if emit_json(json, "energy", &rows) {
        return;
    }
    let mut t = TextTable::new([
        "configuration",
        "avg power (W)",
        "energy/500ms (J)",
        "savings",
    ]);
    for r in &rows {
        t.row([
            r.config.clone(),
            format!("{:.2}", r.avg_power_w),
            format!("{:.3}", r.joules),
            format!("{:.1}%", r.savings_pct),
        ]);
    }
    print!("{}", t.render());
    println!(
        "
(the paper's countermeasure keeps this saving available while SGX"
    );
    println!(" runs; Intel's access-control fix forfeits it)");
}

fn units(scn: &Scenario, json: bool) {
    banner(
        json,
        "Die-to-die variation: per-unit vs per-generation safe bounds (Comet Lake)",
    );
    let study =
        experiments::unit_variation_study(scn, CpuModel::CometLake, 8).expect("study completes");
    if emit_json(json, "units", &study) {
        return;
    }
    let mut t = TextTable::new(["unit", "own maximal safe state (mV)", "onset @ f_max (mV)"]);
    for r in &study.rows {
        t.row([
            r.unit.to_string(),
            r.own_mss_mv.to_string(),
            r.onset_at_fmax_mv.map_or("-".into(), |o| o.to_string()),
        ]);
    }
    print!("{}", t.render());
    println!(
        "
generation-wide bound (worst unit): {} mV",
        study.generation_mss_mv
    );
    println!(
        "mean benign headroom forfeited vs per-unit maps: {:.1} mV",
        study.mean_headroom_lost_mv
    );
    println!(
        "generation map protects every unit: {}",
        study.generation_map_protects_all
    );
    println!(
        "
(the Sec. 5 hardware deployments must fuse the generation bound;"
    );
    println!(" the kernel-module level can use each unit's own map)");
}

fn attest(scn: &Scenario, json: bool) {
    banner(json, "Attestation policies (§4.1)");
    let model = CpuModel::CometLake;
    let map = quick_map(model);
    let rows = experiments::attestation_matrix(scn, model, &map).expect("matrix completes");
    if emit_json(json, "attest", &rows) {
        return;
    }
    let mut t = TextTable::new([
        "configuration",
        "paper verifier accepts",
        "Intel verifier accepts",
        "benign DVFS works",
    ]);
    for r in &rows {
        t.row([
            r.config.clone(),
            r.plugvolt_ok.to_string(),
            r.intel_ok.to_string(),
            r.benign_dvfs.to_string(),
        ]);
    }
    print!("{}", t.render());
}

#[cfg(test)]
mod tests {
    use super::parse_args;
    use std::collections::BTreeMap;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| (*t).to_owned()).collect()
    }

    /// Every `repro` command line `scripts/golden.sh` runs, with its
    /// `for <var> in …; do` loops expanded.
    fn golden_invocations() -> Vec<Vec<String>> {
        let script = include_str!("../../../../scripts/golden.sh");
        let loops: BTreeMap<&str, Vec<&str>> = script
            .lines()
            .filter_map(|l| l.trim().strip_prefix("for "))
            .filter_map(|l| l.strip_suffix("; do"))
            .filter_map(|l| l.split_once(" in "))
            .map(|(var, values)| (var.trim(), values.split_whitespace().collect()))
            .collect();
        let mut invocations = Vec::new();
        for line in script
            .lines()
            .filter(|l| l.trim().starts_with("\"$REPRO\""))
        {
            let tokens: Vec<&str> = line
                .split_whitespace()
                .skip(1)
                .take_while(|t| *t != ">")
                .collect();
            let var = tokens
                .iter()
                .find_map(|t| t.strip_prefix("\"$").and_then(|v| v.strip_suffix('"')));
            let values = var.map_or(vec![""], |v| loops[v].clone());
            for value in values {
                invocations.push(
                    tokens
                        .iter()
                        .map(|t| {
                            if t.starts_with("\"$") {
                                value.to_owned()
                            } else {
                                (*t).to_owned()
                            }
                        })
                        .collect(),
                );
            }
        }
        invocations
    }

    #[test]
    fn every_golden_invocation_is_accepted() {
        let invocations = golden_invocations();
        // table1, fig1, 3 × (fig, fig --json), table2, 8 named studies.
        assert_eq!(invocations.len(), 17, "{invocations:?}");
        for args in &invocations {
            let parsed = parse_args(args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert_eq!(parsed.full, args.iter().any(|a| a == "--full"));
            assert_eq!(parsed.json, args.iter().any(|a| a == "--json"));
            assert_eq!(&parsed.cmd, args.last().expect("experiment"));
        }
    }

    #[test]
    fn flag_values_are_not_taken_for_the_experiment() {
        let args = parse_args(&argv(&[
            "--telemetry",
            "levels",
            "--stream",
            "out.jsonl",
            "fig2",
        ]))
        .expect("valid");
        assert_eq!(args.telemetry_path.as_deref(), Some("levels"));
        assert_eq!(args.stream_path.as_deref(), Some("out.jsonl"));
        assert_eq!(args.cmd, "fig2");
    }

    #[test]
    fn bad_tokens_are_named() {
        for (tokens, expected) in [
            (&["fig9"][..], "unknown experiment 'fig9'"),
            (&["--full"], "missing experiment"),
            (&["fig2", "--telemetry"], "--telemetry requires a file path"),
            (
                &["--stream", "--json", "fig2"],
                "--stream requires a file path",
            ),
        ] {
            let err = parse_args(&argv(tokens)).expect_err("rejected");
            assert!(err.contains(expected), "{tokens:?}: {err}");
        }
    }
}
