//! Quiet-tick replay: the kernel's fast-forward over poll ticks that
//! only re-read unchanged MSRs must be indistinguishable from running
//! every tick.
//!
//! The per-tick reference is the same polling module behind a wrapper
//! that does not opt into replay ([`PerTick`]), or the recording
//! backend (whose reads are not pure). The fast arm wraps the module in
//! [`Counted`], which opts in by delegation and counts the ticks that
//! really ran, so every differential case also proves that replay
//! engaged.

use plugvolt::charmap::CharacterizationMap;
use plugvolt::deploy::{deploy, Deployment, DEFAULT_MARGIN_MV};
use plugvolt::poll::{PollConfig, PollStats, PollingModule, StatsHandle};
use plugvolt_attacks::campaign::is_crash;
use plugvolt_attacks::schedule::{AttackFamily, CampaignSchedule, ScheduleAction};
use plugvolt_bench::scenario::Scenario;
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::model::CpuModel;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_hal::trace::{TraceHeader, TraceRecorder, TRACE_SCHEMA, TRACE_SCHEMA_VERSION};
use plugvolt_kernel::cpupower::CpuPower;
use plugvolt_kernel::machine::{KernelModule, Machine, MachineError, ModuleCtx};
use plugvolt_kernel::msr_dev::MsrDev;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::oc_mailbox::{OcRequest, Plane};
use plugvolt_telemetry::{MetricKey, Sink, SpanProfile, TelemetryEvent, TelemetryProfile};
use plugvolt_workloads::overhead::{measure_rate, run_table2_with, OverheadConfig};
use plugvolt_workloads::rate::run_rate;
use plugvolt_workloads::suite::{find, Benchmark, Tuning, SUITE};
use std::cell::Cell;
use std::rc::Rc;

const MODEL: CpuModel = CpuModel::CometLake;

/// The polling module with quiet-tick replay withheld: every tick runs.
struct PerTick(PollingModule);

impl KernelModule for PerTick {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn init(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        self.0.init(ctx)
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        self.0.on_timer(ctx)
    }
    fn exit(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.0.exit(ctx);
    }
}

/// The polling module with replay on, counting the ticks that ran.
struct Counted {
    inner: PollingModule,
    full_ticks: Rc<Cell<u64>>,
}

impl KernelModule for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn init(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        self.inner.init(ctx)
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        self.full_ticks.set(self.full_ticks.get() + 1);
        self.inner.on_timer(ctx)
    }
    fn exit(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.inner.exit(ctx);
    }
    fn replay_quiet_ticks(&mut self, replayed: u64) -> bool {
        self.inner.replay_quiet_ticks(replayed)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// The polling module as deployed, counting its full ticks.
    Fast,
    /// The module behind [`PerTick`].
    PerTick,
    /// The module as deployed, on the recording backend.
    Recording,
}

/// A machine with a traced private sink and, for `Some(cfg)`, the
/// polling module loaded in the arm's form.
struct Rig {
    machine: Machine,
    sink: Sink,
    stats: Option<StatsHandle>,
    full_ticks: Rc<Cell<u64>>,
    recorder: TraceRecorder,
}

fn rig(
    label: &str,
    arm: Arm,
    traced: bool,
    poll: Option<(&CharacterizationMap, PollConfig)>,
) -> Rig {
    let scn = Scenario::with_seed(0x51e7);
    let recorder = TraceRecorder::new(TraceHeader {
        schema: TRACE_SCHEMA.to_owned(),
        version: TRACE_SCHEMA_VERSION,
        model: MODEL,
        root_seed: scn.root_seed(),
        label: label.to_owned(),
    });
    let mut machine = match arm {
        Arm::Recording => scn.machine_recording(MODEL, label, &recorder),
        Arm::Fast | Arm::PerTick => scn.machine_for(MODEL, label),
    };
    let sink = Sink::with_event_capacity(1 << 16);
    sink.tracer().set_enabled(traced);
    machine.set_telemetry(sink.clone());
    let full_ticks = Rc::new(Cell::new(0));
    let stats = poll.map(|(map, cfg)| {
        let (module, stats) = PollingModule::new(map.clone(), cfg);
        let module: Box<dyn KernelModule> = match arm {
            Arm::Fast => Box::new(Counted {
                inner: module,
                full_ticks: Rc::clone(&full_ticks),
            }),
            Arm::PerTick => Box::new(PerTick(module)),
            Arm::Recording => Box::new(module),
        };
        machine.load_module(module).expect("fresh machine");
        stats
    });
    Rig {
        machine,
        sink,
        stats,
        full_ticks,
        recorder,
    }
}

/// Everything a run leaves behind that replay must not change.
#[derive(Debug, PartialEq)]
struct Outcome {
    steps: Vec<String>,
    poll: Option<PollStats>,
    stolen: Vec<SimDuration>,
    detections: Vec<SimTime>,
    registry: String,
    spans: String,
    next_fault_draw: u64,
    machine_draw: u64,
    now: SimTime,
}

impl Rig {
    fn finish(mut self, steps: Vec<String>) -> (Outcome, u64) {
        self.machine.publish_trace_drops();
        let stolen = (0..self.machine.cpu().core_count())
            .map(|c| self.machine.stolen_time(CoreId(c)))
            .collect();
        let detections = self.sink.with(|reg| {
            reg.events()
                .filter(|e| matches!(e.event, TelemetryEvent::Detection { .. }))
                .map(|e| e.at)
                .collect()
        });
        let registry = self
            .sink
            .with(|reg| TelemetryProfile::from_registry(reg, "quiet-ticks").to_json());
        let spans = SpanProfile::from_tracer(self.sink.tracer(), "quiet-ticks").to_json();
        let outcome = Outcome {
            steps,
            poll: self.stats.map(|s| s.borrow().clone()),
            stolen,
            detections,
            registry,
            spans,
            next_fault_draw: self.machine.cpu().peek_rng(),
            machine_draw: self.machine.rng().next_u64(),
            now: self.machine.now(),
        };
        (outcome, self.full_ticks.get())
    }
}

/// Asserts the fast arm equals the reference and returns the number of
/// ticks the fast arm really ran.
fn assert_same(case: &str, fast: (Outcome, u64), reference: (Outcome, u64)) -> u64 {
    let (fast, full_ticks) = fast;
    let (reference, _) = reference;
    assert_eq!(fast.steps, reference.steps, "{case}: steps");
    assert_eq!(fast.poll, reference.poll, "{case}: poll stats");
    assert_eq!(fast.stolen, reference.stolen, "{case}: stolen time");
    assert_eq!(fast.detections, reference.detections, "{case}: detections");
    assert_eq!(fast.registry, reference.registry, "{case}: registry export");
    assert_eq!(fast.spans, reference.spans, "{case}: span profile");
    assert_eq!(fast, reference, "{case}");
    full_ticks
}

fn campaign_deployments() -> Vec<Deployment> {
    vec![
        Deployment::None,
        Deployment::OcmDisable,
        Deployment::PollingModule(PollConfig::default()),
        Deployment::Microcode {
            revision: 0xf5,
            margin_mv: DEFAULT_MARGIN_MV,
        },
        Deployment::HardwareMsr {
            margin_mv: DEFAULT_MARGIN_MV,
        },
    ]
}

/// Drives one campaign schedule; victim bursts run through
/// `run_workload` (scaled up so they span several poll periods).
fn drive_campaign(
    map: &CharacterizationMap,
    schedule: &CampaignSchedule,
    deployment: &Deployment,
    arm: Arm,
) -> (Outcome, u64) {
    let poll = match deployment {
        Deployment::PollingModule(cfg) => Some((map, cfg.clone())),
        _ => None,
    };
    let mut r = rig("quiet-ticks/campaign", arm, true, poll);
    if !matches!(deployment, Deployment::PollingModule(_)) {
        deploy(&mut r.machine, map, deployment.clone()).expect("deploys");
    }
    let m = &mut r.machine;
    let dev = MsrDev::open(m, CoreId(0)).expect("core 0");
    let mut cpupower = CpuPower::new(m);
    let t0 = m.now();
    let mut steps = Vec::new();
    for ev in &schedule.events {
        m.advance_to(t0 + SimDuration::from_micros(ev.at_us));
        let result: Result<String, MachineError> = match ev.action {
            ScheduleAction::OffsetWrite { plane, offset_mv } => {
                let req = OcRequest::write_offset(offset_mv, plane.plane()).encode();
                dev.write(m, Msr::OC_MAILBOX, req).map(|o| format!("{o:?}"))
            }
            ScheduleAction::SetFrequency { mhz } => cpupower
                .frequency_set(m, CoreId(0), FreqMhz(mhz))
                .map(|f| format!("{f:?}")),
            ScheduleAction::VictimBurst { class, ops } => m
                .run_workload(CoreId(0), class.instr_class(), ops * 100)
                .map(|run| format!("{run:?}")),
        };
        let step = match result {
            Ok(s) => s,
            Err(e) if is_crash(&e) => {
                let now = m.now();
                m.cpu_mut().reset(now);
                "crash".to_owned()
            }
            Err(e) => panic!("{e}"),
        };
        steps.push(format!(
            "{} {step} offset={} stolen={}",
            ev.at_us,
            m.cpu().core_offset_mv(),
            m.stolen_time(CoreId(0))
        ));
    }
    m.advance(SimDuration::from_millis(2));
    r.finish(steps)
}

#[test]
fn replay_matches_per_tick_for_every_deployment_and_attack_family() {
    let map = Scenario::new().quick_map(MODEL);
    let spec = MODEL.spec();
    let scn = Scenario::with_seed(17);
    let (mut replay_engaged, mut detected) = (false, false);
    for family in AttackFamily::ALL {
        let schedule =
            CampaignSchedule::generate(family, &spec, &mut scn.rng(&format!("quiet/{family}")));
        for deployment in campaign_deployments() {
            let case = format!("{family} × {}", deployment.label());
            let fast = drive_campaign(&map, &schedule, &deployment, Arm::Fast);
            let reference = drive_campaign(&map, &schedule, &deployment, Arm::PerTick);
            let (ticks, detections) = fast
                .0
                .poll
                .as_ref()
                .map_or((0, 0), |p| (p.ticks, p.detections));
            let full = assert_same(&case, fast, reference);
            replay_engaged |= full < ticks;
            detected |= detections > 0;
        }
    }
    assert!(replay_engaged, "no campaign replayed a single tick");
    assert!(
        detected,
        "no campaign got past a quiet stretch into a detection"
    );
}

fn small(bench: &Benchmark) -> Benchmark {
    Benchmark {
        instructions: bench.instructions / 20,
        ..*bench
    }
}

fn rate_run(bench: &Benchmark, tuning: Tuning, arm: Arm, traced: bool) -> (Outcome, u64) {
    let map = Scenario::new().quick_map(MODEL);
    let mut r = rig(
        "quiet-ticks/rate",
        arm,
        traced,
        Some((&map, PollConfig::default())),
    );
    let score = run_rate(&mut r.machine, bench, tuning).expect("rate run");
    let tape = r.recorder.clone();
    let (outcome, full_ticks) = r.finish(vec![format!("{score:?}")]);
    match arm {
        Arm::Recording => (outcome, tape.event_count()),
        Arm::Fast | Arm::PerTick => (outcome, full_ticks),
    }
}

#[test]
fn replay_matches_per_tick_on_suite_rate_runs() {
    for (name, tuning) in [
        ("perlbench", Tuning::Base),
        ("bwaves", Tuning::Peak),
        ("xz", Tuning::Base),
        ("namd", Tuning::Peak),
    ] {
        let bench = small(find(name).expect("suite benchmark"));
        for traced in [false, true] {
            let case = format!("{name} {tuning:?} traced={traced}");
            let fast = rate_run(&bench, tuning, Arm::Fast, traced);
            let ticks = fast.0.poll.as_ref().map_or(0, |p| p.ticks);
            let full = assert_same(&case, fast, rate_run(&bench, tuning, Arm::PerTick, traced));
            assert!(ticks > 100, "{case}: only {ticks} ticks");
            assert!(
                full * 10 < ticks,
                "{case}: {full} of {ticks} ticks ran in full"
            );
        }
        // The recording backend runs every tick and records every
        // access, and still lands on the same outcome.
        let fast = rate_run(&bench, tuning, Arm::Fast, true);
        let (recorded, tape_events) = rate_run(&bench, tuning, Arm::Recording, true);
        let poll = recorded.poll.clone().expect("polled");
        assert_eq!(tape_events, 2 * poll.observations, "{name}: tape");
        assert_same(&format!("{name} recording"), fast, (recorded, 0));
    }
}

/// A non-opting module whose single timer writes an unsafe core offset
/// through its own context, in the middle of a quiet stretch.
struct Attacker {
    at: SimDuration,
    offset_mv: i32,
}

impl KernelModule for Attacker {
    fn name(&self) -> &str {
        "attacker"
    }
    fn init(&mut self, _ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        Some(self.at)
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        let req = OcRequest::write_offset(self.offset_mv, Plane::Core).encode();
        ctx.wrmsr(CoreId(0), Msr::OC_MAILBOX, req)
            .expect("mailbox write");
        None
    }
}

#[test]
fn attacker_timer_mid_stretch_breaks_the_stretch_exactly() {
    let map = Scenario::new().quick_map(MODEL);
    let run = |arm: Arm| {
        let mut r = rig(
            "quiet-ticks/attacker",
            arm,
            true,
            Some((&map, PollConfig::default())),
        );
        // At the top frequency a -250 mV offset is deep in the unsafe
        // band; the write lands at 3.31 ms, between two 200 µs poll
        // ticks deep inside a stretch.
        let top = r.machine.cpu().spec().freq_table.max();
        r.machine.set_freq(CoreId(0), top).expect("P-state");
        r.machine
            .load_module(Box::new(Attacker {
                at: SimDuration::from_micros(3_310),
                offset_mv: -250,
            }))
            .expect("loads");
        let run = r
            .machine
            .run_workload(
                CoreId(0),
                plugvolt_cpu::exec::InstrClass::AluAdd,
                400_000_000,
            )
            .expect("workload");
        r.finish(vec![format!("{run:?}")])
    };
    let fast = run(Arm::Fast);
    let poll = fast.0.poll.clone().expect("polled");
    assert!(poll.detections >= 1, "the write must be caught: {poll:?}");
    assert_eq!(fast.0.detections.len() as u64, poll.detections);
    let full = assert_same("attacker", fast, run(Arm::PerTick));
    assert!(
        full * 5 < poll.ticks,
        "{full} of {} ticks ran in full",
        poll.ticks
    );
}

#[test]
fn victim_woken_mid_stretch_ends_the_stretch() {
    // Core 1 idles, so quiet ticks observe three cores. The victim run
    // starts 100 ps before a tick: too close to retire an instruction,
    // so that tick runs first and opens a stretch, and only then does
    // the victim's first batch wake core 1. The wake moves the package
    // epoch, so the next tick must run in full and observe four cores.
    let map = Scenario::new().quick_map(MODEL);
    let run = |arm: Arm| {
        let mut r = rig(
            "quiet-ticks/wake",
            arm,
            true,
            Some((&map, PollConfig::default())),
        );
        let now = r.machine.now();
        r.machine
            .cpu_mut()
            .enter_idle(now, CoreId(1), 6)
            .expect("idles");
        let before_tick = SimTime::ZERO + SimDuration::from_picos(1_200_000_000 - 100);
        r.machine.advance_to(before_tick);
        let run = r
            .machine
            .run_workload(CoreId(1), plugvolt_cpu::exec::InstrClass::Imul, 20_000_000)
            .expect("workload");
        r.finish(vec![format!("{run:?}")])
    };
    let fast = run(Arm::Fast);
    let poll = fast.0.poll.clone().expect("polled");
    assert!(
        poll.observations > 3 * poll.ticks + 10,
        "the woken core must be observed: {poll:?}"
    );
    let full = assert_same("wake", fast, run(Arm::PerTick));
    assert!(
        full * 5 < poll.ticks,
        "{full} of {} ticks ran in full",
        poll.ticks
    );
}

/// Sums a per-core counter over every core.
fn counter_total(reg: &plugvolt_telemetry::Registry, component: &str, name: &str) -> u64 {
    reg.counters()
        .filter(|(k, _)| k.component == component && k.name == name)
        .map(|(_, v)| v)
        .sum()
}

#[test]
fn table2_counts_are_pinned() {
    // Values taken from the per-tick implementation: a bulk flush that
    // miscounts by a single tick moves at least one of them.
    let cfg = OverheadConfig {
        work_divisor: 100,
        ..OverheadConfig::default()
    };
    let sink = Sink::new();
    let table = run_table2_with(&cfg, Some(&sink)).expect("table 2");
    assert_eq!(table.mean_abs_slowdown_pct, 0.326_646_580_769_893_9);
    sink.with(|reg| {
        assert_eq!(counter_total(reg, "msr", "rdmsr"), 39_240);
        assert_eq!(counter_total(reg, "msr", "wrmsr"), 0);
        assert_eq!(counter_total(reg, "msr", "access_cost_ps"), 5_449_965_120);
        for core in 0..4 {
            assert_eq!(
                reg.counter(&MetricKey::per_core("kernel", "stolen_ps", core)),
                2_098_241_280,
                "core {core}"
            );
        }
        assert_eq!(
            reg.counter(&MetricKey::global("slack-table", "hits")),
            6_057
        );
        let iterations = reg
            .histogram(&MetricKey::global("kernel", "timer_iteration_us"))
            .expect("timer iterations recorded");
        let mut bins = [0u64; 20];
        bins[1] = 4_905;
        assert_eq!(iterations.bins(), bins);
    });
    let map = plugvolt::characterize::analytic_map(&cfg.model.spec());
    let mut poll = PollStats::default();
    for bench in &SUITE {
        for tuning in [Tuning::Base, Tuning::Peak] {
            let (_, stats) =
                measure_rate(bench, &cfg, &map, true, tuning, None).expect("polled rate run");
            let s = stats.expect("polled run has stats");
            poll.ticks += s.ticks;
            poll.observations += s.observations;
            poll.detections += s.detections;
            poll.restores += s.restores;
            poll.freq_fallbacks += s.freq_fallbacks;
        }
    }
    assert_eq!(
        (
            poll.ticks,
            poll.observations,
            poll.detections,
            poll.restores,
            poll.freq_fallbacks
        ),
        (4_905, 19_620, 0, 0, 0)
    );
}
