//! The three in-process workloads: `characterize`, `table2` and
//! `campaigns`. Each calls the libraries' public entry points on one
//! thread. The traced variants make the same calls one layer down,
//! with spans around them and a telemetry sink attached, and must
//! produce byte-identical outputs.

use crate::report::{Checker, Tally};
use crate::spans::{Layer, Spans};
use plugvolt::characterize::{analytic_map, characterize_observed};
use plugvolt::charmap::CharacterizationMap;
use plugvolt::deploy::Deployment;
use plugvolt::poll::{PollConfig, PollStats, PollingModule};
use plugvolt_attacks::campaign::is_crash;
use plugvolt_attacks::schedule::{AttackFamily, CampaignSchedule, ScheduleAction};
use plugvolt_bench::experiments::{figure_characterization, figure_sweep_config};
use plugvolt_bench::scenario::{Scenario, SEED};
use plugvolt_bench::soak::{run_soak, SoakConfig};
use plugvolt_bench::text::TextTable;
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::model::CpuModel;
use plugvolt_cpu::package::{PackageError, MAILBOX_SETTLE};
use plugvolt_des::time::SimDuration;
use plugvolt_kernel::cpupower::CpuPower;
use plugvolt_kernel::machine::{Machine, MachineError};
use plugvolt_kernel::msr_dev::MsrDev;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::oc_mailbox::{OcRequest, Plane};
use plugvolt_telemetry::Sink;
use plugvolt_workloads::overhead::{run_table2, OverheadConfig, Table2, Table2Row};
use plugvolt_workloads::rate::run_rate;
use plugvolt_workloads::suite::{Benchmark, Tuning, SUITE};
use std::collections::BTreeMap;
use std::path::Path;

/// The golden fig2/3/4 configuration.
const FIGURES: [(&str, CpuModel); 3] = [
    ("fig2", CpuModel::SkyLake),
    ("fig3", CpuModel::KabyLakeR),
    ("fig4", CpuModel::CometLake),
];

/// Randomized soak campaigns per `campaigns` iteration (×4 deployment
/// levels = 3,200 cells). Campaign sizes vary with the seed; this many
/// keeps one iteration's work within a few percent across seeds.
pub const CAMPAIGNS: u32 = 800;

/// Exact per-iteration counts of the traced run, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

fn bump(counts: &mut Counts, key: &'static str, by: f64) {
    *counts.entry(key).or_insert(0.0) += by;
}

/// One prepared in-process workload.
pub enum InProc {
    Characterize {
        seed: u64,
    },
    Table2 {
        cfg: OverheadConfig,
        /// Simulated instructions retired per suite run.
        instr: u64,
    },
    Campaigns {
        seed: u64,
        cfg: SoakConfig,
    },
}

/// The Table 2 configuration for a benchmark seed. The repo `SEED`
/// maps onto `OverheadConfig::default().seed`, the seed the committed
/// `results/table2.txt` was made with; the map is a bijection, so every
/// other seed gives a distinct run.
pub fn table2_config(seed: u64) -> OverheadConfig {
    let base = OverheadConfig::default();
    OverheadConfig {
        seed: base.seed ^ seed ^ SEED,
        ..base
    }
}

/// The soak configuration: one worker, no self-test, no corpus.
pub fn soak_config() -> SoakConfig {
    SoakConfig {
        model: CpuModel::CometLake,
        campaigns: CAMPAIGNS,
        workers: 1,
        self_test: false,
        ..SoakConfig::default()
    }
}

/// Campaigns for the traced drive and the input digest: the generator,
/// family rotation and count `run_soak` uses, drawn from the
/// benchmark's own labelled streams (labels are unique workspace-wide,
/// so these never correlate with the soak engine's streams).
pub fn campaign_schedules(scn: &Scenario, cfg: &SoakConfig) -> Vec<CampaignSchedule> {
    let spec = cfg.model.spec();
    (0..cfg.campaigns)
        .map(|i| {
            let family = AttackFamily::ALL[i as usize % AttackFamily::ALL.len()];
            let mut rng = scn.rng(&format!("perfbench/campaign{i}"));
            CampaignSchedule::generate(family, &spec, &mut rng)
        })
        .collect()
}

impl InProc {
    /// Set-up: boots one machine per model (building its slack table),
    /// warms the memoized maps, and loads the committed expectations at
    /// the default seed.
    pub fn prepare(
        name: &str,
        root: &Path,
        seed: u64,
        chk: &mut Checker,
    ) -> Result<InProc, String> {
        let expect = |chk: &mut Checker, key: &str, rel: &str| -> Result<(), String> {
            if seed == SEED {
                let bytes = std::fs::read(root.join("results").join(rel))
                    .map_err(|e| format!("cannot read results/{rel}: {e}"))?;
                chk.expect(key, bytes);
            }
            Ok(())
        };
        match name {
            "characterize" => {
                for (fig, model) in FIGURES {
                    expect(chk, fig, &format!("{fig}.json"))?;
                    drop(Scenario::with_seed(seed).machine(model));
                }
                Ok(InProc::Characterize { seed })
            }
            "table2" => {
                expect(chk, "table2", "table2.txt")?;
                let cfg = table2_config(seed);
                let copies = Scenario::with_seed(cfg.seed)
                    .machine(cfg.model)
                    .cpu()
                    .core_count();
                let instr = SUITE
                    .iter()
                    .flat_map(|b| [Tuning::Base, Tuning::Peak].map(|t| (b, t)))
                    .map(|(b, t)| 2 * rate_instructions(b, t, copies))
                    .sum();
                Ok(InProc::Table2 { cfg, instr })
            }
            "campaigns" => {
                let cfg = soak_config();
                drop(Scenario::with_seed(seed).quick_map(cfg.model));
                drop(Scenario::with_seed(seed).machine(cfg.model));
                Ok(InProc::Campaigns { seed, cfg })
            }
            other => Err(format!("unknown in-process workload '{other}'")),
        }
    }

    /// Models whose slack tables the workload's processes build.
    pub fn models(&self) -> Vec<CpuModel> {
        match self {
            InProc::Characterize { .. } => FIGURES.iter().map(|(_, m)| *m).collect(),
            InProc::Table2 { cfg, .. } => vec![cfg.model],
            InProc::Campaigns { cfg, .. } => vec![cfg.model],
        }
    }

    /// The generated inputs (what the program receives), as text.
    pub fn inputs(&self) -> String {
        match self {
            InProc::Characterize { seed } => {
                format!("{seed:#x} {:?}", figure_sweep_config(true))
            }
            InProc::Table2 { cfg, .. } => format!("{cfg:?}"),
            InProc::Campaigns { seed, cfg } => {
                format!("{:?}", campaign_schedules(&Scenario::with_seed(*seed), cfg))
            }
        }
    }

    /// One untraced iteration through the product entry points.
    pub fn iterate(&self, chk: &mut Checker) -> Tally {
        let mut tally = Tally::default();
        match self {
            InProc::Characterize { seed } => {
                let scn = Scenario::with_seed(*seed);
                for (fig, model) in FIGURES {
                    let ok = match figure_characterization(&scn, model, true) {
                        Ok(run) => {
                            tally.units += run.records.len() as u64;
                            chk.check(fig, figure_json(fig, &run.map).as_bytes())
                        }
                        Err(e) => {
                            chk.note(format!("{fig}: {e}"));
                            false
                        }
                    };
                    tally.op(ok);
                }
            }
            InProc::Table2 { cfg, instr } => {
                let ok = match run_table2(cfg) {
                    Ok(table) => {
                        tally.units += instr;
                        chk.check("table2", render_table2(&table).as_bytes())
                    }
                    Err(e) => {
                        chk.note(format!("table2: {e}"));
                        false
                    }
                };
                tally.op(ok);
            }
            InProc::Campaigns { seed, cfg } => {
                let ok = match run_soak(&Scenario::with_seed(*seed), cfg, None) {
                    Ok(report) => {
                        tally.units += u64::from(report.cells);
                        soak_ok(chk, &report)
                    }
                    Err(e) => {
                        chk.note(format!("soak: {e}"));
                        false
                    }
                };
                tally.op(ok);
            }
        }
        tally
    }

    /// One traced iteration: the same work, one layer down, with spans
    /// and a telemetry sink; exact counts land in `counts`.
    pub fn iterate_traced(&self, chk: &mut Checker, sp: &mut Spans, counts: &mut Counts) -> Tally {
        match self {
            InProc::Characterize { seed } => characterize_traced(*seed, chk, sp, counts),
            InProc::Table2 { cfg, instr } => {
                let mut tally = table2_traced(cfg, chk, sp, counts);
                tally.units = if tally.failed == 0 { *instr } else { 0 };
                bump(counts, "workloads.sim_instr", *instr as f64);
                tally
            }
            InProc::Campaigns { seed, cfg } => campaigns_traced(*seed, cfg, chk, sp, counts),
        }
    }
}

/// Exactly what `repro --full --json <fig>` prints.
pub fn figure_json(fig: &str, map: &CharacterizationMap) -> String {
    format!(
        "{}\n",
        serde_json::json!({ "experiment": fig, "data": map })
    )
}

/// Exactly what `repro --full table2` prints.
pub fn render_table2(table: &Table2) -> String {
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
    format!(
        "\n=== Table 2: polling-countermeasure overhead on SPEC2017-like suite (Comet Lake) ===\n\n{}\nmean slowdown: base {:+.3}%, peak {:+.3}%, mean |slowdown| {:.3}% (paper: 0.28%)\n",
        t.render(),
        table.mean_base_slowdown_pct,
        table.mean_peak_slowdown_pct,
        table.mean_abs_slowdown_pct
    )
}

fn soak_ok(chk: &mut Checker, report: &plugvolt_bench::soak::SoakReport) -> bool {
    let same = chk.check("soak", report.to_json().as_bytes());
    if !report.passed() {
        chk.note(format!(
            "soak: {} oracle violation(s)",
            report.violations.len()
        ));
    }
    same && report.passed()
}

/// Simulated instructions one `run_rate` call retires (all copies).
fn rate_instructions(bench: &Benchmark, tuning: Tuning, copies: usize) -> u64 {
    let total = bench.instructions_for(tuning);
    let weight_sum: u64 = bench.mix.iter().map(|&(_, w)| u64::from(w)).sum();
    let per_copy: u64 = bench
        .mix
        .iter()
        .map(|&(_, w)| total * u64::from(w) / weight_sum)
        .sum();
    per_copy * copies as u64
}

/// Reads the registry counters every traced workload reports.
fn read_sink(sink: &Sink, sp: &mut Spans, counts: &mut Counts) {
    let profile = sp.time(Layer::Telemetry, "telemetry.profile", |_| {
        sink.profile("perfbench")
    });
    for (key, component, name) in [
        ("msr.rdmsr", "msr", "rdmsr"),
        ("msr.wrmsr", "msr", "wrmsr"),
        ("msr.wrmsr_ignored", "msr", "wrmsr_ignored"),
        ("cpu.slack.hits", "slack-table", "hits"),
        ("cpu.slack.fallbacks", "slack-table", "fallbacks"),
    ] {
        bump(counts, key, profile.counter_total(component, name) as f64);
    }
}

fn characterize_traced(seed: u64, chk: &mut Checker, sp: &mut Spans, counts: &mut Counts) -> Tally {
    let mut tally = Tally::default();
    let sink = Sink::new();
    let scn = Scenario::with_seed(seed).with_telemetry(sink.clone());
    let cfg = figure_sweep_config(true);
    for (fig, model) in FIGURES {
        let mut machine = sp.time(Layer::Kernel, "kernel.boot", |_| scn.machine(model));
        let run = sp.time(Layer::Core, "core.characterize", |_| {
            characterize_observed(&mut machine, &cfg, &mut |_| {})
        });
        sp.time(Layer::Telemetry, "telemetry.publish", |_| {
            machine.publish_trace_drops();
        });
        let ok = match run {
            Ok(run) => {
                let points = run.records.len() as u64;
                tally.units += points;
                bump(counts, "core.characterize.points", points as f64);
                bump(counts, "core.characterize.crashes", f64::from(run.crashes));
                let json = sp.time(Layer::Bench, "bench.render", |_| figure_json(fig, &run.map));
                chk.check(fig, json.as_bytes())
            }
            Err(e) => {
                chk.note(format!("{fig}: {e}"));
                false
            }
        };
        tally.op(ok);
    }
    read_sink(&sink, sp, counts);
    tally
}

/// The per-run seed `measure_benchmark_with` boots each of a
/// benchmark's four machines with, so the decomposition below
/// reproduces `run_table2` exactly (the output check enforces it).
fn rate_seed(cfg_seed: u64, name: &str, with_polling: bool, tuning: Tuning) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    }
    h ^= u64::from(with_polling) << 1 | u64::from(tuning == Tuning::Peak);
    cfg_seed ^ h
}

fn table2_traced(
    cfg: &OverheadConfig,
    chk: &mut Checker,
    sp: &mut Spans,
    counts: &mut Counts,
) -> Tally {
    let mut tally = Tally::default();
    let sink = Sink::new();
    let map = sp.time(Layer::Core, "core.analytic_map", |_| {
        analytic_map(&cfg.model.spec())
    });
    let mut poll = PollStats::default();
    let mut rate = |bench: &Benchmark,
                    polling: bool,
                    tuning: Tuning,
                    sp: &mut Spans|
     -> Result<f64, MachineError> {
        let scn = Scenario::with_seed(rate_seed(cfg.seed, bench.name, polling, tuning))
            .with_telemetry(sink.clone());
        let mut machine = sp.time(Layer::Kernel, "kernel.boot", |_| scn.machine(cfg.model));
        let stats = if polling {
            Some(sp.time(Layer::Kernel, "kernel.load_module", |_| {
                let (module, stats) = PollingModule::new(map.clone(), cfg.poll.clone());
                machine.load_module(Box::new(module)).map(|()| stats)
            })?)
        } else {
            None
        };
        let span = if polling {
            "workloads.rate_polled"
        } else {
            "workloads.rate_bare"
        };
        let score = sp.time(Layer::Workloads, span, |_| {
            run_rate(&mut machine, bench, tuning)
        })?;
        sp.time(Layer::Telemetry, "telemetry.publish", |_| {
            machine.publish_trace_drops();
        });
        if let Some(stats) = stats {
            let s = stats.borrow();
            poll.ticks += s.ticks;
            poll.observations += s.observations;
            poll.detections += s.detections;
            poll.restores += s.restores;
        }
        Ok(score.score)
    };
    let mut rows = Vec::with_capacity(SUITE.len());
    let mut failed = None;
    for bench in &SUITE {
        let mut four = || -> Result<Table2Row, MachineError> {
            let base_without = rate(bench, false, Tuning::Base, sp)?;
            let base_with = rate(bench, true, Tuning::Base, sp)?;
            let peak_without = rate(bench, false, Tuning::Peak, sp)?;
            let peak_with = rate(bench, true, Tuning::Peak, sp)?;
            Ok(Table2Row {
                name: bench.name.to_owned(),
                base_without,
                base_with,
                base_slowdown_pct: slowdown_pct(base_without, base_with),
                peak_without,
                peak_with,
                peak_slowdown_pct: slowdown_pct(peak_without, peak_with),
            })
        };
        match four() {
            Ok(row) => rows.push(row),
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    let ok = match failed {
        Some(e) => {
            chk.note(format!("table2: {e}"));
            false
        }
        None => {
            let text = sp.time(Layer::Bench, "bench.render", |_| {
                render_table2(&table_of(rows))
            });
            chk.check("table2", text.as_bytes())
        }
    };
    tally.op(ok);
    bump(counts, "core.poll.ticks", poll.ticks as f64);
    bump(counts, "core.poll.observations", poll.observations as f64);
    bump(counts, "core.poll.detections", poll.detections as f64);
    bump(counts, "core.poll.restores", poll.restores as f64);
    read_sink(&sink, sp, counts);
    tally
}

fn slowdown_pct(without: f64, with: f64) -> f64 {
    (without - with) / without * 100.0
}

/// The suite means, computed as `run_table2_with` computes them.
fn table_of(rows: Vec<Table2Row>) -> Table2 {
    let n = rows.len() as f64;
    let mean_base = rows.iter().map(|r| r.base_slowdown_pct).sum::<f64>() / n;
    let mean_peak = rows.iter().map(|r| r.peak_slowdown_pct).sum::<f64>() / n;
    let mean_abs = rows
        .iter()
        .flat_map(|r| [r.base_slowdown_pct, r.peak_slowdown_pct])
        .map(f64::abs)
        .sum::<f64>()
        / (2.0 * n);
    Table2 {
        rows,
        mean_base_slowdown_pct: mean_base,
        mean_peak_slowdown_pct: mean_peak,
        mean_abs_slowdown_pct: mean_abs,
    }
}

fn campaigns_traced(
    seed: u64,
    cfg: &SoakConfig,
    chk: &mut Checker,
    sp: &mut Spans,
    counts: &mut Counts,
) -> Tally {
    let mut tally = Tally::default();
    let scn = Scenario::with_seed(seed).with_telemetry(Sink::new());
    let schedules = sp.time(Layer::Attacks, "attacks.generate", |_| {
        campaign_schedules(&scn, cfg)
    });
    let ok = match sp.time(Layer::Bench, "bench.soak", |_| run_soak(&scn, cfg, None)) {
        Ok(report) => {
            tally.units += u64::from(report.cells);
            bump(counts, "bench.soak.cells", f64::from(report.cells));
            bump(
                counts,
                "bench.soak.violations",
                report.violations.len() as f64,
            );
            soak_ok(chk, &report)
        }
        Err(e) => {
            chk.note(format!("soak: {e}"));
            false
        }
    };
    tally.op(ok);

    // The soak engine keeps each cell's sink and poll statistics to
    // itself, so the per-layer counts come from driving every campaign
    // once more per deployment level through the public API. This is
    // extra work, so `telemetry.trace_overhead` leaves its span out.
    let sink = Sink::new();
    let plain = Scenario::with_seed(seed);
    let map = plain.quick_map(cfg.model);
    let mut poll = PollStats::default();
    for level in LEVELS {
        sp.time(Layer::Kernel, CAMPAIGN_DRIVE, |_| {
            for schedule in &schedules {
                let mut machine = plain.machine_for(cfg.model, "perfbench/drive");
                machine.set_telemetry(sink.clone());
                match drive_campaign(&plain, machine, &map, schedule, level) {
                    Ok(Some(s)) => {
                        poll.ticks += s.ticks;
                        poll.observations += s.observations;
                        poll.detections += s.detections;
                        poll.restores += s.restores;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        chk.note(format!("campaign drive: {e}"));
                        tally.op(false);
                    }
                }
            }
        });
    }
    bump(counts, "core.poll.ticks", poll.ticks as f64);
    bump(counts, "core.poll.observations", poll.observations as f64);
    bump(counts, "core.poll.detections", poll.detections as f64);
    bump(counts, "core.poll.restores", poll.restores as f64);
    read_sink(&sink, sp, counts);
    tally
}

/// The span of the traced `campaigns` drive, which is not part of the
/// workload's own work.
pub const CAMPAIGN_DRIVE: &str = "kernel.campaign_drive";

/// The soak engine's deployment levels, in its order.
const LEVELS: [&str; 4] = ["none", "polling", "microcode", "hardware-msr"];

/// Soak's exposure-sampling step: machines advance in these increments.
const SAMPLE: SimDuration = SimDuration::from_micros(10);

fn advance_sampled(machine: &mut Machine, until: plugvolt_des::time::SimTime) {
    while machine.now() < until {
        let left = until.saturating_duration_since(machine.now());
        machine.advance(left.min(SAMPLE));
    }
}

/// Runs one campaign under one deployment level the way the soak
/// engine does (deployment parameters, event handling and tail) on a
/// freshly booted machine, returning the polling module's statistics.
fn drive_campaign(
    scn: &Scenario,
    mut machine: Machine,
    map: &CharacterizationMap,
    schedule: &CampaignSchedule,
    level: &str,
) -> Result<Option<PollStats>, MachineError> {
    let deployment = match level {
        "polling" => Deployment::PollingModule(PollConfig {
            period: SimDuration::from_micros(schedule.poll_period_us),
            planes: vec![Plane::Core, Plane::Cache],
            ..PollConfig::default()
        }),
        "microcode" => Deployment::Microcode {
            revision: 0xf5,
            margin_mv: 5,
        },
        "hardware-msr" => Deployment::HardwareMsr { margin_mv: 5 },
        _ => Deployment::None,
    };
    let deployed = scn.deploy(&mut machine, map, deployment)?;
    let dev = MsrDev::open(&machine, CoreId(0))?;
    let mut cpupower = CpuPower::new(&machine);
    let t0 = machine.now();
    for ev in &schedule.events {
        advance_sampled(&mut machine, t0 + SimDuration::from_micros(ev.at_us));
        let crashed = match ev.action {
            ScheduleAction::OffsetWrite { plane, offset_mv } => {
                let req = OcRequest::write_offset(offset_mv, plane.plane()).encode();
                match dev.write(&mut machine, Msr::OC_MAILBOX, req) {
                    Ok(_) => false,
                    Err(e) if is_crash(&e) => true,
                    Err(e) => return Err(e),
                }
            }
            ScheduleAction::SetFrequency { mhz } => {
                match cpupower.frequency_set(&mut machine, CoreId(0), FreqMhz(mhz)) {
                    Ok(_) => false,
                    Err(e) if is_crash(&e) => true,
                    Err(e) => return Err(e),
                }
            }
            ScheduleAction::VictimBurst { class, ops } => {
                let now = machine.now();
                match machine
                    .cpu_mut()
                    .run_batch(now, CoreId(0), class.instr_class(), ops)
                {
                    Ok(_) => false,
                    Err(PackageError::Crashed) => true,
                    Err(e) => return Err(MachineError::Package(e)),
                }
            }
        };
        if crashed {
            let now = machine.now();
            machine.cpu_mut().reset(now);
        }
        // The soak engine draws one probe from the machine stream
        // per step; keep the stream aligned.
        machine.rng().next_u64();
    }
    let tail = SimDuration::from_micros(2 * schedule.poll_period_us)
        + MAILBOX_SETTLE
        + SimDuration::from_millis(1);
    let end = machine.now() + tail;
    advance_sampled(&mut machine, end);
    machine.publish_trace_drops();
    Ok(deployed.poll_stats.map(|s| s.borrow().clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_campaign_inputs() {
        let cfg = soak_config();
        let a = campaign_schedules(&Scenario::with_seed(SEED), &cfg);
        let b = campaign_schedules(&Scenario::with_seed(SEED + 1), &cfg);
        assert_eq!(a.len(), CAMPAIGNS as usize);
        assert_ne!(a, b);
    }

    #[test]
    fn default_seed_maps_to_the_committed_table2_config() {
        assert_eq!(table2_config(SEED), OverheadConfig::default());
        assert_ne!(table2_config(SEED + 1).seed, table2_config(SEED).seed);
    }

    #[test]
    fn campaign_drive_matches_the_soak_engine() {
        // The recorded fixture runs through the soak engine's own level
        // runner and exposes its poll statistics; the benchmark's drive
        // of the same schedule must count the same.
        let scn = Scenario::new();
        let model = CpuModel::CometLake;
        let fixture = plugvolt_bench::trace::record_fixture(&scn, model).expect("fixture records");
        let want = fixture
            .captures
            .iter()
            .find_map(|c| c.poll_stats.clone())
            .expect("polling level captures stats");
        let schedule = plugvolt_bench::trace::fixture_schedule(&scn, model);
        let map = scn.quick_map(model);
        // The soak engine boots every campaign machine from this label.
        let got = drive_campaign(
            &scn,
            scn.machine_for(model, "soak/machine"),
            &map,
            &schedule,
            "polling",
        )
        .expect("drives")
        .expect("polling level has stats");
        assert_eq!(
            (got.ticks, got.observations, got.detections, got.restores),
            (
                want.ticks,
                want.observations,
                want.detections,
                want.restores
            )
        );
    }
}
