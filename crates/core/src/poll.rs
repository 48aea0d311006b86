//! Step S2: the polling countermeasure kernel module (Algorithm 3).
//!
//! The deployed module polls, per core, MSR `0x198` (frequency) and MSR
//! `0x150` (voltage offset). If the observed pair is in the characterized
//! unsafe set, it immediately rewrites `0x150` to force the system back
//! into a safe state. Because an accepted mailbox undervolt only reaches
//! the rail after the VR command latency, a polling period shorter than
//! that latency removes the unsafe target before the voltage ever moves —
//! which is why the paper observes *complete* fault elimination.
//!
//! The module runs off per-CPU timers: each tick costs the polled core a
//! timer-interrupt entry plus two local `rdmsr`s and the set lookup. That
//! stolen time is the entire source of the Table 2 overhead (0.28 % in
//! the paper).

use crate::charmap::CharacterizationMap;
use crate::state::{StateClass, SystemState};
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_des::stats::Summary;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_des::trace::TraceLevel;
use plugvolt_kernel::machine::{KernelModule, ModuleCtx};
use plugvolt_msr::addr::Msr;
use plugvolt_msr::oc_mailbox::{OcRequest, Plane};
use plugvolt_msr::perf_status::PerfStatus;
use plugvolt_telemetry::{HistogramSpec, MetricKey, TelemetryEvent};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

/// The module name shown in `lsmod` and the attestation report.
pub const MODULE_NAME: &str = "plugvolt-poll";

/// What the module writes to 0x150 when it finds an unsafe state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RestorePolicy {
    /// Clear the offset entirely (back to the fused V/F curve).
    ZeroOffset,
    /// Clamp to the maximal safe state with the given guard margin,
    /// preserving as much benign undervolt as possible.
    MaximalSafe {
        /// Extra guard in mV on top of the characterized bound.
        margin_mv: i32,
    },
}

/// Configuration of the polling module.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PollConfig {
    /// Polling period. The default (200 µs) sits well inside the VR
    /// command latency, giving complete prevention at ≈ 0.3 % overhead.
    pub period: SimDuration,
    /// Restore action on detection.
    pub restore: RestorePolicy,
    /// Timer-interrupt entry/exit overhead charged per tick per core.
    pub timer_overhead: SimDuration,
    /// Also drop the core frequency on detection (`IA32_PERF_CTL`), to
    /// the fastest point at which the *observed* offset is safe.
    ///
    /// Rationale: a 0x150 restore only takes effect after the mailbox/VR
    /// command latency (hundreds of µs), but a frequency-side attacker
    /// (CLKSCREW-style) flips the (f, V) pair into unsafety through the
    /// *fast* P-state path. Lowering the frequency restores the Eq. 1
    /// budget within microseconds and closes that window; the governor
    /// re-raises the frequency afterwards.
    pub frequency_fallback: bool,
    /// Guard margin in mV: states within this much of the characterized
    /// unsafe band are treated as unsafe.
    ///
    /// Rationale: the empirical onset certifies "no faults observed in a
    /// million iterations", i.e. a per-operation fault probability below
    /// 1e-6 -- but a Bellcore-style attacker needs only *one* fault in
    /// an arbitrarily long campaign parked just above the onset. A few
    /// millivolts of guard put every permitted state astronomically far
    /// down the fault-probability curve.
    pub guard_margin_mv: i32,
    /// Voltage planes the module watches.
    ///
    /// The paper's Algorithm 3 reads MSR 0x150 once per core — the
    /// mailbox *response register*, which reflects the last command's
    /// plane (core at boot). With the default `[Core]` the module issues
    /// exactly that read and acts on whatever plane the response holds.
    /// Adding `Plane::Cache` makes the module issue explicit per-plane
    /// read commands each tick (≈ 2 extra MSR accesses per plane per
    /// core), closing cache-plane undervolting at a measurable overhead
    /// cost — see the plane ablation in EXPERIMENTS.md.
    pub planes: Vec<Plane>,
    /// Skip cores parked in a C-state. An idle core retires no
    /// instructions and therefore cannot be faulted; it gets polled on
    /// the first tick after it wakes (bounded by one period, the same
    /// bound as detection itself). Saves the per-core poll cost on idle
    /// machines.
    pub skip_idle_cores: bool,
}

impl Default for PollConfig {
    fn default() -> Self {
        PollConfig {
            period: SimDuration::from_micros(200),
            restore: RestorePolicy::ZeroOffset,
            timer_overhead: SimDuration::from_nanos(150),
            frequency_fallback: true,
            guard_margin_mv: 10,
            planes: vec![Plane::Core],
            skip_idle_cores: true,
        }
    }
}

/// Live counters of a deployed polling module.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PollStats {
    /// Timer ticks fired.
    pub ticks: u64,
    /// Per-core state observations made.
    pub observations: u64,
    /// Unsafe states detected.
    pub detections: u64,
    /// Restore writes issued.
    pub restores: u64,
    /// Frequency fallbacks issued (fast-path mitigation).
    pub freq_fallbacks: u64,
    /// Time of the most recent detection.
    pub last_detection: Option<SimTime>,
    /// Offsets (mV) seen at detection time.
    pub detected_offsets: Summary,
}

/// Shared handle onto a deployed module's statistics.
pub type StatsHandle = Rc<RefCell<PollStats>>;

/// The polling countermeasure kernel module.
///
/// # Examples
///
/// ```
/// use plugvolt::charmap::{CharacterizationMap, FreqBand};
/// use plugvolt::poll::{PollConfig, PollingModule, MODULE_NAME};
/// use plugvolt_cpu::freq::FreqMhz;
/// use plugvolt_cpu::model::CpuModel;
/// use plugvolt_kernel::machine::Machine;
///
/// let mut map = CharacterizationMap::new("demo", 0xf4, -300);
/// map.insert_band(FreqMhz(1_800), FreqBand {
///     fault_onset_mv: Some(-180),
///     crash_mv: Some(-220),
/// });
/// let mut machine = Machine::new(CpuModel::CometLake, 1);
/// let (module, _stats) = PollingModule::new(map, PollConfig::default());
/// machine.load_module(Box::new(module))?;
/// assert!(machine.is_module_loaded(MODULE_NAME));
/// # Ok::<(), plugvolt_kernel::machine::MachineError>(())
/// ```
#[derive(Debug)]
pub struct PollingModule {
    map: CharacterizationMap,
    cfg: PollConfig,
    stats: StatsHandle,
    /// The current core's per-plane observations, refilled by
    /// `poll_core` and kept between ticks so a tick allocates nothing.
    observed: Vec<(Plane, SystemState)>,
    /// Observations the last tick made, if that tick was quiet: the
    /// single-read Algorithm 3 mode (no mailbox read commands) and no
    /// detection. See [`KernelModule::replay_quiet_ticks`].
    quiet_observations: Option<u64>,
}

impl PollingModule {
    /// Creates the module around a characterization map, returning it
    /// together with the shared statistics handle.
    #[must_use]
    pub fn new(map: CharacterizationMap, cfg: PollConfig) -> (Self, StatsHandle) {
        let stats: StatsHandle = Rc::default();
        (
            PollingModule {
                map,
                cfg,
                stats: Rc::clone(&stats),
                observed: Vec::new(),
                quiet_observations: None,
            },
            stats,
        )
    }

    /// Classifies a state with the configured guard margin applied: the
    /// probe is `guard_margin_mv` deeper than the observation, widening
    /// the unsafe set.
    #[must_use]
    pub fn classify_guarded(&self, freq: FreqMhz, offset_mv: i32) -> StateClass {
        let probe = if offset_mv < 0 {
            offset_mv - self.cfg.guard_margin_mv.max(0)
        } else {
            offset_mv
        };
        self.map.classify(freq, probe.max(-1_000))
    }

    /// The fastest table frequency at which `offset_mv` is safe per the
    /// (guarded) characterization, if any.
    #[must_use]
    pub fn safe_frequency_for(
        &self,
        table: &plugvolt_cpu::freq::FreqTable,
        offset_mv: i32,
    ) -> Option<FreqMhz> {
        let mut freqs: Vec<FreqMhz> = table.iter().collect();
        freqs.reverse();
        freqs
            .into_iter()
            .find(|&f| self.classify_guarded(f, offset_mv) == StateClass::Safe)
    }

    /// The restore offset the policy dictates.
    #[must_use]
    pub fn restore_offset_mv(&self) -> i32 {
        match self.cfg.restore {
            RestorePolicy::ZeroOffset => 0,
            RestorePolicy::MaximalSafe { margin_mv } => {
                self.map.maximal_safe_offset_mv(margin_mv).unwrap_or(0)
            }
        }
    }

    /// Polls one core, replacing `out` with the per-plane observations
    /// it made.
    fn poll_core(
        &self,
        ctx: &mut ModuleCtx<'_>,
        core: CoreId,
        out: &mut Vec<(Plane, SystemState)>,
    ) {
        out.clear();
        ctx.charge(core, self.cfg.timer_overhead);
        ctx.tracer()
            .record_span("poll/overhead", self.cfg.timer_overhead.as_picos());
        // Algorithm 3 line 4: read 0x198, locally.
        let Ok(perf) = ctx.rdmsr_local(core, Msr::IA32_PERF_STATUS) else {
            return;
        };
        let freq = FreqMhz(PerfStatus::decode(perf).freq_mhz());
        if self.cfg.planes == [Plane::Core] {
            // Algorithm 3 line 5 verbatim: one read of the response
            // register; act on whatever plane it reflects.
            if let Ok(raw) = ctx.rdmsr_local(core, Msr::OC_MAILBOX) {
                if let Ok(req) = OcRequest::decode(raw) {
                    out.push((
                        req.plane(),
                        SystemState {
                            freq,
                            offset_mv: req.offset_mv(),
                        },
                    ));
                }
            }
            return;
        }
        for &plane in &self.cfg.planes {
            // Explicit read command per plane, then fetch the response.
            let cmd = OcRequest::read(plane).encode();
            if ctx.wrmsr_local(core, Msr::OC_MAILBOX, cmd).is_err() {
                continue;
            }
            let Ok(raw) = ctx.rdmsr_local(core, Msr::OC_MAILBOX) else {
                continue;
            };
            if let Ok(req) = OcRequest::decode(raw) {
                out.push((
                    req.plane(),
                    SystemState {
                        freq,
                        offset_mv: req.offset_mv(),
                    },
                ));
            }
        }
    }
}

impl KernelModule for PollingModule {
    fn name(&self) -> &str {
        MODULE_NAME
    }

    fn init(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        ctx.trace(
            TraceLevel::Info,
            format!(
                "polling every {} over {} characterized frequencies",
                self.cfg.period,
                self.map.len()
            ),
        );
        Some(self.cfg.period)
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        // The guard owns a tracer clone, so it outlives this borrow of
        // `ctx` and closes when the whole iteration is done.
        let _iteration = ctx.tracer().span("poll/iteration");
        let (observations_before, detections_before) = {
            let mut s = self.stats.borrow_mut();
            s.ticks += 1;
            (s.observations, s.detections)
        };
        let cores = ctx.cpu().core_count();
        let restore_mv = self.restore_offset_mv();
        let mut observed = std::mem::take(&mut self.observed);
        for c in 0..cores {
            let core = CoreId(c);
            if self.cfg.skip_idle_cores && !ctx.cpu().is_core_running(core).unwrap_or(true) {
                continue;
            }
            self.poll_core(ctx, core, &mut observed);
            for &(plane, state) in &observed {
                self.stats.borrow_mut().observations += 1;
                // Algorithm 3 line 6: membership in the (guard-widened)
                // unsafe set.
                if self.classify_guarded(state.freq, state.offset_mv) == StateClass::Safe {
                    continue;
                }
                {
                    let mut s = self.stats.borrow_mut();
                    s.detections += 1;
                    s.last_detection = Some(ctx.now());
                    s.detected_offsets.record(f64::from(state.offset_mv));
                }
                // Unsafe-state entry instant: the *later* of the
                // adversarial offset write and the core's last P-state
                // change — a CLKSCREW-style campaign parks a standing
                // offset and only makes it unsafe by escalating the
                // clock much later. Captured before the restore write
                // below overwrites the per-plane timestamp.
                let entry = match (
                    ctx.cpu().last_offset_write_at(plane),
                    ctx.cpu().last_pstate_change_at(core),
                ) {
                    (Some(w), Some(p)) => Some(w.max(p)),
                    (w, None) => w,
                    (None, p) => p,
                };
                let now = ctx.now();
                let sink = ctx.cpu().telemetry().clone();
                sink.emit(
                    now,
                    TelemetryEvent::Detection {
                        core: core.0 as u32,
                        freq_mhz: state.freq.mhz(),
                        offset_mv: state.offset_mv,
                    },
                );
                if let Some(entry) = entry {
                    let latency_us = now.saturating_duration_since(entry).as_picos() as f64 / 1e6;
                    sink.observe(
                        MetricKey::global("poll", "detection_latency_us"),
                        HistogramSpec::DETECTION_LATENCY_US,
                        latency_us,
                    );
                    sink.record_summary(
                        MetricKey::per_core("poll", "detection_latency_us", core.0 as u32),
                        latency_us,
                    );
                }
                ctx.trace(
                    TraceLevel::Warn,
                    format!(
                        "unsafe state {state} on core {c} plane {plane}; forcing {restore_mv} mV"
                    ),
                );
                // Algorithm 3 line 7: write 0x150 to force a safe state —
                // on the plane that was observed unsafe.
                let req = OcRequest::write_offset(restore_mv, plane).encode();
                if ctx.wrmsr_local(core, Msr::OC_MAILBOX, req).is_ok() {
                    self.stats.borrow_mut().restores += 1;
                    sink.emit(
                        ctx.now(),
                        TelemetryEvent::Restore {
                            core: core.0 as u32,
                            restore_mv,
                        },
                    );
                    if let Some(entry) = entry {
                        // End-to-end exposure bound: the restore command
                        // lands on the rail only after the VR latency.
                        let landing_us = ctx
                            .cpu()
                            .rail_settles_at()
                            .saturating_duration_since(entry)
                            .as_picos() as f64
                            / 1e6;
                        sink.observe(
                            MetricKey::global("poll", "restore_landing_us"),
                            HistogramSpec::RESTORE_LANDING_US,
                            landing_us,
                        );
                    }
                }
                // Fast-path mitigation: the mailbox restore only reaches
                // the rail after the VR command latency, but the core can
                // be made safe *now* by shrinking the frequency side of
                // Eq. 1. (Only core-plane timing scales with frequency in
                // this model, but the lookup is conservative either way.)
                if self.cfg.frequency_fallback {
                    let table = ctx.cpu().spec().freq_table.clone();
                    if let Some(fallback) = self.safe_frequency_for(&table, state.offset_mv) {
                        if fallback < state.freq {
                            let raw = plugvolt_msr::perf_status::encode_perf_ctl(fallback.mhz());
                            if ctx.wrmsr_local(core, Msr::IA32_PERF_CTL, raw).is_ok() {
                                self.stats.borrow_mut().freq_fallbacks += 1;
                                ctx.trace(
                                    TraceLevel::Warn,
                                    format!("frequency fallback to {fallback} on core {c}"),
                                );
                            }
                        }
                    }
                }
            }
        }
        self.observed = observed;
        let s = self.stats.borrow();
        self.quiet_observations = (s.detections == detections_before
            && self.cfg.planes == [Plane::Core])
        .then_some(s.observations - observations_before);
        Some(self.cfg.period)
    }

    fn replay_quiet_ticks(&mut self, replayed: u64) -> bool {
        let Some(per_tick) = self.quiet_observations else {
            return false;
        };
        if replayed > 0 {
            let mut s = self.stats.borrow_mut();
            s.ticks += replayed;
            s.observations += per_tick * replayed;
        }
        true
    }

    fn exit(&mut self, ctx: &mut ModuleCtx<'_>) {
        let s = self.stats.borrow();
        ctx.trace(
            TraceLevel::Info,
            format!(
                "unloading after {} ticks, {} detections, {} restores",
                s.ticks, s.detections, s.restores
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charmap::FreqBand;
    use plugvolt_cpu::model::CpuModel;
    use plugvolt_kernel::machine::Machine;
    use plugvolt_kernel::msr_dev::MsrDev;

    fn demo_map() -> CharacterizationMap {
        let mut map = CharacterizationMap::new("demo", 0xf4, -300);
        for (mhz, onset, crash) in [
            (400, -280, -295),
            (1_800, -200, -240),
            (3_400, -150, -190),
            (4_900, -110, -150),
        ] {
            map.insert_band(
                FreqMhz(mhz),
                FreqBand {
                    fault_onset_mv: Some(onset),
                    crash_mv: Some(crash),
                },
            );
        }
        map
    }

    fn machine_with_module(cfg: PollConfig) -> (Machine, StatsHandle) {
        let mut m = Machine::new(CpuModel::CometLake, 33);
        let (module, stats) = PollingModule::new(demo_map(), cfg);
        m.load_module(Box::new(module))
            .expect("fresh machine has no module name collision");
        (m, stats)
    }

    #[test]
    fn idle_polling_detects_nothing() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        m.advance(SimDuration::from_millis(10));
        let s = stats.borrow();
        assert_eq!(s.ticks, 50);
        assert_eq!(s.observations, 200); // 4 cores × 50 ticks
        assert_eq!(s.detections, 0);
        assert_eq!(s.restores, 0);
    }

    #[test]
    fn unsafe_offset_is_detected_and_restored() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        // Adversary writes a deep undervolt from userspace.
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        assert_eq!(m.cpu().core_offset_mv(), -250);
        // Within one period the module must have cleared it.
        m.advance(SimDuration::from_micros(250));
        assert_eq!(m.cpu().core_offset_mv(), 0);
        let s = stats.borrow();
        assert!(s.detections >= 1);
        assert!(s.restores >= 1);
        assert!(s.last_detection.is_some());
    }

    #[test]
    fn restore_happens_before_rail_moves() {
        // The complete-prevention property: detection inside the VR
        // command latency means the rail never leaves nominal.
        let (mut m, _stats) = machine_with_module(PollConfig::default());
        let nominal = m
            .cpu()
            .spec()
            .nominal_voltage_mv(m.cpu().core_freq(CoreId(0)).expect("core 0 always exists"));
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        // Watch the rail for 5 ms.
        let mut min_v = f64::INFINITY;
        for _ in 0..500 {
            m.advance(SimDuration::from_micros(10));
            min_v = min_v.min(m.cpu().core_voltage_mv(m.now()));
        }
        assert!(
            (min_v - nominal).abs() < 1.0,
            "rail dipped to {min_v} (nominal {nominal})"
        );
    }

    #[test]
    fn safe_undervolts_are_left_alone() {
        // The paper's selling point: benign DVFS keeps working.
        let (mut m, stats) = machine_with_module(PollConfig::default());
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(-100, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        m.advance(SimDuration::from_millis(5));
        assert_eq!(m.cpu().core_offset_mv(), -100, "benign undervolt kept");
        assert_eq!(stats.borrow().detections, 0);
    }

    #[test]
    fn maximal_safe_restore_policy_clamps_not_clears() {
        let cfg = PollConfig {
            restore: RestorePolicy::MaximalSafe { margin_mv: 5 },
            ..PollConfig::default()
        };
        let (mut m, stats) = machine_with_module(cfg);
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        m.advance(SimDuration::from_micros(250));
        // Maximal safe = shallowest onset (−110) + 1 + margin 5 = −104.
        let restored = m.cpu().core_offset_mv();
        assert!((-105..=-103).contains(&restored), "restored to {restored}");
        assert!(stats.borrow().restores >= 1);
    }

    #[test]
    fn overhead_is_fractions_of_a_percent() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        m.advance(SimDuration::from_millis(100));
        let stolen = m.stolen_time(CoreId(0));
        let frac = stolen.as_picos() as f64 / SimDuration::from_millis(100).as_picos() as f64;
        assert!((0.0005..0.01).contains(&frac), "overhead fraction = {frac}");
        assert!(stats.borrow().ticks >= 499);
    }

    #[test]
    fn idle_cores_are_not_polled() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        // Park three of four cores.
        let now = m.now();
        for c in 1..4 {
            m.cpu_mut()
                .enter_idle(now, CoreId(c), 6)
                .expect("running core can enter idle");
        }
        m.advance(SimDuration::from_millis(10));
        let s = stats.borrow();
        assert_eq!(s.ticks, 50);
        assert_eq!(s.observations, 50, "only the running core is observed");
        // And the idle cores accrued no poll cost.
        assert_eq!(m.stolen_time(CoreId(3)), SimDuration::ZERO);
        assert!(m.stolen_time(CoreId(0)) > SimDuration::ZERO);
    }

    #[test]
    fn woken_core_is_polled_within_one_period() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        let now = m.now();
        m.cpu_mut()
            .enter_idle(now, CoreId(1), 6)
            .expect("running core can enter idle");
        m.advance(SimDuration::from_millis(2));
        let before = stats.borrow().observations;
        let now = m.now();
        m.cpu_mut()
            .wake_core(now, CoreId(1))
            .expect("idle core can be woken");
        m.advance(SimDuration::from_micros(250));
        // One tick covering both running cores.
        assert!(stats.borrow().observations >= before + 2);
    }

    #[test]
    fn module_unload_traces_summary() {
        let (mut m, _stats) = machine_with_module(PollConfig::default());
        m.advance(SimDuration::from_millis(1));
        m.unload_module(MODULE_NAME)
            .expect("module was loaded by the fixture");
        assert!(m.trace().any(|r| r.message.contains("unloading after")));
    }

    #[test]
    fn detection_records_telemetry_latency_and_events() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let req = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        m.advance(SimDuration::from_micros(250));
        assert!(stats.borrow().detections >= 1);
        m.telemetry().with(|reg| {
            let latency = reg
                .histogram(&MetricKey::global("poll", "detection_latency_us"))
                .expect("detection latency histogram recorded");
            assert!(latency.total() >= 1);
            let per_core = reg
                .summary(&MetricKey::per_core("poll", "detection_latency_us", 0))
                .expect("per-core latency summary recorded");
            // Detection happens on the first tick at or after the write,
            // so latency is bounded by one polling period.
            assert!(per_core.max().expect("non-empty summary") <= 200.0);
            let landing = reg
                .histogram(&MetricKey::global("poll", "restore_landing_us"))
                .expect("restore landing histogram recorded");
            assert!(landing.total() >= 1);
            let kinds: Vec<&str> = reg.events().map(|e| e.event.kind()).collect();
            assert!(kinds.contains(&"detection"));
            assert!(kinds.contains(&"restore"));
        });
    }

    #[test]
    fn detection_latency_is_bounded_by_period() {
        let (mut m, stats) = machine_with_module(PollConfig::default());
        m.advance(SimDuration::from_micros(123)); // desynchronize
        let dev = MsrDev::open(&m, CoreId(0)).expect("core 0 always exists");
        let written_at = m.now();
        let req = OcRequest::write_offset(-250, Plane::Core).encode();
        dev.write(&mut m, Msr::OC_MAILBOX, req)
            .expect("mailbox write on a live machine succeeds");
        m.advance(SimDuration::from_micros(400));
        let detected_at = stats.borrow().last_detection.expect("detected");
        let latency = detected_at.saturating_duration_since(written_at);
        assert!(
            latency <= SimDuration::from_micros(205),
            "latency = {latency}"
        );
    }
}
