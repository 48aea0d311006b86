//! The machine: a CPU package under a minimal kernel.
//!
//! [`Machine`] owns the simulated clock, a [`MachineBackend`] carrying
//! the [`CpuPackage`], and a set of loadable [`KernelModule`]s with
//! kernel-timer semantics — the substrate the paper's countermeasure is
//! deployed on. Modules steal core time when their timers run (the
//! source of the Table 2 overhead), and all MSR traffic they issue is
//! cost-accounted (IPI to the target core plus the `rdmsr`/`wrmsr`
//! microcode flow; the paper's Sec. 5 names this ioctl/MSR path as one
//! contributor to countermeasure turnaround time).
//!
//! All software MSR/DVFS traffic — module context, `msr-dev`, cpufreq —
//! flows through the backend seam ([`Machine::rdmsr`],
//! [`Machine::wrmsr`], [`Machine::set_freq`] and the [`ModuleCtx`]
//! accessors), so a recording backend observes exactly the accesses the
//! software stack makes. Direct `cpu_mut()` access remains the
//! "privileged attacker / physical package" escape hatch and is not
//! part of the recorded surface.
//!
//! **Quiet-tick replay.** A module that opts in
//! ([`KernelModule::replay_quiet_ticks`]) and whose last full tick only
//! read state and found nothing is not re-run while the package's state
//! epoch stands still: the machine replays the measured tick, moving
//! per tick only the stolen time and the re-armed timer, and flushes
//! the rest (hot counters, the `kernel/timer_iteration_us` histogram,
//! span aggregates, the module's counters) once when the stretch ends.
//! A stretch never outlives the public call that opened it. Every
//! observable total is identical to running each tick; `DESIGN.md`
//! lists the preconditions.

use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::exec::InstrClass;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::model::CpuModel;
use plugvolt_cpu::package::{CpuPackage, PackageError};
use plugvolt_des::rng::SimRng;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_des::trace::{TraceBuffer, TraceLevel};
use plugvolt_hal::backend::{MachineBackend, MsrBackend};
use plugvolt_hal::sim::SimBackend;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::file::WriteOutcome;
use plugvolt_telemetry::{HistogramSpec, MetricKey, Sink, SpanDelta, Tracer};
use std::collections::BinaryHeap;
use std::fmt;

/// Cross-core IPI cost for a remote MSR access from kernel context.
pub const IPI_COST: SimDuration = SimDuration::from_nanos(1_900);

/// Errors from machine-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Underlying package error.
    Package(PackageError),
    /// A module with this name is already loaded.
    ModuleLoaded(String),
    /// No module with this name is loaded.
    ModuleNotLoaded(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Package(e) => write!(f, "{e}"),
            MachineError::ModuleLoaded(n) => write!(f, "module '{n}' already loaded"),
            MachineError::ModuleNotLoaded(n) => write!(f, "module '{n}' not loaded"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<PackageError> for MachineError {
    fn from(e: PackageError) -> Self {
        MachineError::Package(e)
    }
}

/// Context handed to a module while its timer runs.
///
/// All MSR accesses through the context are **cost-accounted**: they
/// consume time on the accessed core (IPI + microcode flow), which is
/// how the polling countermeasure's overhead arises.
pub struct ModuleCtx<'a> {
    now: SimTime,
    backend: &'a mut dyn MachineBackend,
    trace: &'a mut TraceBuffer,
    stolen: &'a mut [SimDuration],
    module_name: &'a str,
}

impl fmt::Debug for ModuleCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModuleCtx")
            .field("now", &self.now)
            .field("module", &self.module_name)
            .finish()
    }
}

impl ModuleCtx<'_> {
    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to the package (frequency tables, specs…).
    #[must_use]
    pub fn cpu(&self) -> &CpuPackage {
        self.backend.cpu()
    }

    /// Cost-accounted `rdmsr` on `core`.
    ///
    /// # Errors
    ///
    /// Propagates [`PackageError`].
    pub fn rdmsr(&mut self, core: CoreId, msr: Msr) -> Result<u64, PackageError> {
        let cost = self.access_cost(core);
        self.note_access_cost(core, cost);
        self.charge(core, cost);
        self.record_span("msr/access", cost);
        self.backend
            .rdmsr(self.now, core, msr)
            .map_err(PackageError::from)
    }

    /// Cost-accounted `wrmsr` on `core`.
    ///
    /// # Errors
    ///
    /// Propagates [`PackageError`].
    pub fn wrmsr(
        &mut self,
        core: CoreId,
        msr: Msr,
        value: u64,
    ) -> Result<WriteOutcome, PackageError> {
        let cost = self.access_cost(core);
        self.note_access_cost(core, cost);
        self.charge(core, cost);
        self.record_span("msr/access", cost);
        self.backend
            .wrmsr(self.now, core, msr, value)
            .map_err(PackageError::from)
    }

    /// Cost-accounted `rdmsr` from a **per-CPU timer context** on `core`
    /// itself: no IPI, only the microcode flow (plus the timer-interrupt
    /// overhead charged separately by the module).
    ///
    /// # Errors
    ///
    /// Propagates [`PackageError`].
    pub fn rdmsr_local(&mut self, core: CoreId, msr: Msr) -> Result<u64, PackageError> {
        let cost = self.local_access_cost(core);
        self.note_access_cost(core, cost);
        self.charge(core, cost);
        self.record_span("msr/access", cost);
        self.backend
            .rdmsr(self.now, core, msr)
            .map_err(PackageError::from)
    }

    /// Cost-accounted `wrmsr` from a per-CPU timer context on `core`.
    ///
    /// # Errors
    ///
    /// Propagates [`PackageError`].
    pub fn wrmsr_local(
        &mut self,
        core: CoreId,
        msr: Msr,
        value: u64,
    ) -> Result<WriteOutcome, PackageError> {
        let cost = self.local_access_cost(core);
        self.note_access_cost(core, cost);
        self.charge(core, cost);
        self.record_span("msr/access", cost);
        self.backend
            .wrmsr(self.now, core, msr, value)
            .map_err(PackageError::from)
    }

    fn local_access_cost(&self, core: CoreId) -> SimDuration {
        let cpu = self.backend.cpu();
        let freq = cpu.core_freq(core).unwrap_or(cpu.spec().base_freq);
        cpu.engine().msr_access_duration(freq)
    }

    /// Accounts the modelled cost of one kernel-context MSR access in
    /// the telemetry registry (the time itself is charged separately).
    fn note_access_cost(&self, core: CoreId, cost: SimDuration) {
        self.backend
            .cpu()
            .note_kernel_msr_cost(core, cost.as_picos());
    }

    /// Charges pure compute time (comparisons, set lookups) to a core.
    pub fn charge(&mut self, core: CoreId, cost: SimDuration) {
        if let Some(slot) = self.stolen.get_mut(core.0) {
            *slot += cost;
            self.backend.cpu().note_stolen(core, cost.as_picos());
        }
    }

    /// The span tracer shared with the machine's telemetry sink, for
    /// modules opening their own spans (e.g. the poll loop).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        self.backend.cpu().telemetry().tracer()
    }

    /// Point-records `cost` of simulated time under span `label`
    /// (see `Tracer::record_span`); free when tracing is disabled.
    fn record_span(&self, label: &'static str, cost: SimDuration) {
        self.backend
            .cpu()
            .telemetry()
            .tracer()
            .record_span(label, cost.as_picos());
    }

    /// Emits a trace record attributed to this module.
    pub fn trace(&mut self, level: TraceLevel, message: impl Into<String>) {
        self.trace.emit(self.now, level, self.module_name, message);
    }

    fn access_cost(&self, core: CoreId) -> SimDuration {
        let cpu = self.backend.cpu();
        let freq = cpu.core_freq(core).unwrap_or(cpu.spec().base_freq);
        IPI_COST + cpu.engine().msr_access_duration(freq)
    }
}

/// A loadable kernel module with timer-driven work.
pub trait KernelModule {
    /// Unique module name (what `lsmod` would show).
    fn name(&self) -> &str;

    /// Called at load; returns the delay until the first timer firing, or
    /// `None` for a module with no timer.
    fn init(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration>;

    /// Called when the timer fires; returns the delay until the next
    /// firing, or `None` to stop the timer.
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration>;

    /// Called at unload.
    fn exit(&mut self, ctx: &mut ModuleCtx<'_>) {
        let _ = ctx;
    }

    /// Quiet-tick replay, opt-in. The default (`false`) keeps every
    /// tick of the module on the full [`on_timer`](Self::on_timer) path.
    ///
    /// A module that opts in returns `true` only while its last full
    /// tick was *quiet*: it only read state (no `wrmsr`, no trace
    /// record, no telemetry event) and found nothing to act on, so a
    /// later tick over unchanged package state would do exactly the
    /// same. The machine may then replay that tick instead of running
    /// it (see `DESIGN.md`, "Quiet-tick replay"), and reports the
    /// replays here as `replayed` when the stretch ends; the module
    /// folds them into its own counters as if each had run. The machine
    /// passes `replayed == 0` when it only asks.
    fn replay_quiet_ticks(&mut self, replayed: u64) -> bool {
        let _ = replayed;
        false
    }
}

struct PendingTimer {
    at: SimTime,
    seq: u64,
    module_idx: usize,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// The measured effect of one quiet tick, and how many replays of it
/// are not yet flushed. Everything a replayed tick changes that the
/// victim loop reads — per-core stolen time and the next fire instant —
/// is applied per tick; the rest accumulates in `pending` and is
/// flushed by [`Machine::flush_quiet_stretch`].
#[derive(Debug)]
struct QuietTick {
    module_idx: usize,
    /// Package state epoch the tick ran under.
    epoch: u64,
    /// The re-arm delay the tick returned.
    period: SimDuration,
    /// Stolen time the tick charged, per core.
    stolen: Vec<SimDuration>,
    /// The tick's `kernel/timer_iteration_us` observation.
    iteration_us: f64,
    /// The tick's hot-counter increments, per core.
    hot: Vec<[u64; 4]>,
    /// The tick's span increments, when tracing was on.
    spans: Option<SpanDelta>,
    /// Replays not yet flushed.
    pending: u64,
}

/// Before-tick snapshots a full tick is measured against; the vectors
/// are reused across ticks.
#[derive(Debug, Default)]
struct TickSnapshot {
    epoch: u64,
    stolen: Vec<SimDuration>,
    hot: Vec<[u64; 4]>,
    spans: Option<SpanDelta>,
}

struct ModuleSlot {
    module: Option<Box<dyn KernelModule>>,
    name: String,
    live: bool,
}

/// Result of running a workload batch on a core (see
/// [`Machine::run_workload`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadRun {
    /// Instructions retired.
    pub instructions: u64,
    /// Architecturally incorrect results among them.
    pub faults: u64,
    /// Wall-clock time consumed, including time stolen by modules.
    pub wall: SimDuration,
    /// Time stolen from this core by kernel modules during the run.
    pub stolen: SimDuration,
}

/// A CPU package under a minimal kernel, on a simulated clock.
///
/// # Examples
///
/// ```
/// use plugvolt_kernel::machine::Machine;
/// use plugvolt_cpu::model::CpuModel;
/// use plugvolt_des::time::SimDuration;
///
/// let mut m = Machine::new(CpuModel::CometLake, 1);
/// m.advance(SimDuration::from_millis(5));
/// assert_eq!(m.now().as_picos(), 5_000_000_000);
/// ```
pub struct Machine {
    now: SimTime,
    backend: Box<dyn MachineBackend>,
    modules: Vec<ModuleSlot>,
    timers: BinaryHeap<PendingTimer>,
    timer_seq: u64,
    trace: TraceBuffer,
    stolen: Vec<SimDuration>,
    rng: SimRng,
    /// The current quiet stretch, if one is open.
    quiet: Option<QuietTick>,
    /// Scratch for measuring a full tick (see [`TickSnapshot`]).
    snapshot: TickSnapshot,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("backend", &self.backend_name())
            .field("cpu", self.backend.cpu())
            .field("modules", &self.loaded_modules().collect::<Vec<_>>())
            .finish()
    }
}

impl Machine {
    /// Boots a machine with the given CPU model and deterministic seed.
    #[must_use]
    pub fn new(model: CpuModel, seed: u64) -> Self {
        Self::from_package(CpuPackage::new(model, seed), seed)
    }

    /// Boots physical *unit* `unit` of the model (die-to-die variation).
    #[must_use]
    pub fn new_unit(model: CpuModel, seed: u64, unit: u64) -> Self {
        Self::from_package(CpuPackage::new_unit(model, seed, unit), seed)
    }

    /// Boots a machine around an explicit package.
    #[must_use]
    pub fn from_package(cpu: CpuPackage, seed: u64) -> Self {
        Self::with_backend(Box::new(SimBackend::from_package(cpu)), seed)
    }

    /// Boots a machine around an arbitrary machine backend (sim,
    /// recording, replay — anything implementing [`MachineBackend`]).
    #[must_use]
    pub fn with_backend(backend: Box<dyn MachineBackend>, seed: u64) -> Self {
        let cores = backend.cpu().core_count();
        Machine {
            now: SimTime::ZERO,
            backend,
            modules: Vec::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            trace: TraceBuffer::with_capacity(16_384),
            stolen: vec![SimDuration::ZERO; cores],
            rng: SimRng::from_seed_label(seed, "machine"),
            quiet: None,
            snapshot: TickSnapshot::default(),
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Stable name of the mounted backend (`"sim"`, `"record"`,
    /// `"replay"`).
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        MsrBackend::name(self.backend.as_ref())
    }

    /// The CPU package.
    #[must_use]
    pub fn cpu(&self) -> &CpuPackage {
        self.backend.cpu()
    }

    /// Mutable access to the CPU package — the "privileged software"
    /// escape hatch attacks use (direct `wrmsr` etc. are methods on the
    /// package and need the current time; pair with [`now`](Self::now)).
    /// Package mutations through here bypass the backend seam and are
    /// invisible to a recording backend — exactly like physical
    /// tampering would be.
    pub fn cpu_mut(&mut self) -> &mut CpuPackage {
        self.backend.cpu_mut()
    }

    /// Privileged zero-cost `rdmsr` through the backend seam (root
    /// userspace reading without the kernel's IPI/syscall accounting —
    /// what experiment harness code should use instead of `cpu_mut()`).
    ///
    /// # Errors
    ///
    /// Propagates the package error.
    pub fn rdmsr(&mut self, core: CoreId, msr: Msr) -> Result<u64, MachineError> {
        self.backend
            .rdmsr(self.now, core, msr)
            .map_err(|e| MachineError::Package(e.into()))
    }

    /// Privileged zero-cost `wrmsr` through the backend seam.
    ///
    /// # Errors
    ///
    /// Propagates the package error.
    pub fn wrmsr(
        &mut self,
        core: CoreId,
        msr: Msr,
        value: u64,
    ) -> Result<WriteOutcome, MachineError> {
        self.backend
            .wrmsr(self.now, core, msr, value)
            .map_err(|e| MachineError::Package(e.into()))
    }

    /// Requests a core frequency through the backend's scaling driver
    /// (quantized to the hardware table), returning what was applied.
    ///
    /// # Errors
    ///
    /// Propagates the package error.
    pub fn set_freq(&mut self, core: CoreId, freq: FreqMhz) -> Result<FreqMhz, MachineError> {
        let now = self.now;
        self.backend
            .set_freq(now, core, freq)
            .map_err(|e| MachineError::Package(e.into()))
    }

    /// The machine trace (modules, faults, countermeasure actions).
    #[must_use]
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// The machine's telemetry sink (shared with the CPU package).
    #[must_use]
    pub fn telemetry(&self) -> &Sink {
        self.backend.cpu().telemetry()
    }

    /// Installs a shared telemetry sink so several machines (e.g. the
    /// fresh instances an experiment boots per measurement) record into
    /// one registry.
    pub fn set_telemetry(&mut self, sink: Sink) {
        self.backend.cpu_mut().set_telemetry(sink);
    }

    /// Folds the trace buffer's silent-drop counter, the slack-table
    /// hit/fallback counters, and the batched per-core hot counters
    /// into the telemetry registry. Call once per machine, after its
    /// run completes (extra calls only add deltas).
    pub fn publish_trace_drops(&self) {
        let cpu = self.backend.cpu();
        cpu.telemetry().tracer().record_span("telemetry/flush", 0);
        let dropped = self.trace.dropped();
        if dropped > 0 {
            cpu.telemetry().add_trace_dropped(dropped);
        }
        cpu.publish_slack_table_stats();
        cpu.publish_hot_counters();
    }

    /// Attaches (or detaches, with `None`) a precomputed slack table on
    /// the CPU's execution engine (see `plugvolt_cpu::slack`).
    pub fn set_slack_table(
        &mut self,
        table: Option<std::sync::Arc<plugvolt_cpu::slack::SlackTable>>,
    ) {
        self.backend.cpu_mut().set_slack_table(table);
    }

    /// Deterministic per-machine random stream (for workload jitter).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Cumulative module-stolen time per core since boot.
    #[must_use]
    pub fn stolen_time(&self, core: CoreId) -> SimDuration {
        self.stolen
            .get(core.0)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Names of loaded modules (what the SGX attestation report lists).
    pub fn loaded_modules(&self) -> impl Iterator<Item = &str> {
        self.modules
            .iter()
            .filter(|s| s.live)
            .map(|s| s.name.as_str())
    }

    /// Whether the named module is loaded.
    #[must_use]
    pub fn is_module_loaded(&self, name: &str) -> bool {
        self.loaded_modules().any(|n| n == name)
    }

    /// Loads a kernel module (`insmod`), running its `init`.
    ///
    /// # Errors
    ///
    /// [`MachineError::ModuleLoaded`] if a module of that name is live.
    pub fn load_module(&mut self, module: Box<dyn KernelModule>) -> Result<(), MachineError> {
        let name = module.name().to_owned();
        if self.is_module_loaded(&name) {
            return Err(MachineError::ModuleLoaded(name));
        }
        let idx = self.modules.len();
        self.modules.push(ModuleSlot {
            module: Some(module),
            name: name.clone(),
            live: true,
        });
        self.trace.emit(
            self.now,
            TraceLevel::Info,
            "kernel",
            format!("insmod {name}"),
        );
        if let Some(delay) = self.with_module(idx, |m, ctx| m.init(ctx)) {
            self.arm_timer(idx, delay);
        }
        Ok(())
    }

    /// Unloads a module (`rmmod`), running its `exit` and cancelling its
    /// timers. This is the adversary capability discussed in Sec. 4.1 —
    /// visible in the attestation report.
    ///
    /// # Errors
    ///
    /// [`MachineError::ModuleNotLoaded`] if no such module is live.
    pub fn unload_module(&mut self, name: &str) -> Result<(), MachineError> {
        let idx = self
            .modules
            .iter()
            .position(|s| s.live && s.name == name)
            .ok_or_else(|| MachineError::ModuleNotLoaded(name.to_owned()))?;
        self.with_module(idx, |m, ctx| {
            m.exit(ctx);
        });
        self.modules[idx].live = false;
        self.trace.emit(
            self.now,
            TraceLevel::Info,
            "kernel",
            format!("rmmod {name}"),
        );
        Ok(())
    }

    fn arm_timer(&mut self, module_idx: usize, delay: SimDuration) {
        // Queue churn is attributed, not costed: scheduling a kernel
        // timer is free on the sim clock.
        self.backend
            .cpu()
            .telemetry()
            .tracer()
            .record_span("queue/schedule", 0);
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(PendingTimer {
            at: self.now + delay,
            seq,
            module_idx,
        });
    }

    fn with_module<R>(
        &mut self,
        idx: usize,
        f: impl FnOnce(&mut Box<dyn KernelModule>, &mut ModuleCtx<'_>) -> R,
    ) -> R {
        let mut module = self.modules[idx].module.take().expect("module re-entered");
        let mut ctx = ModuleCtx {
            now: self.now,
            backend: self.backend.as_mut(),
            trace: &mut self.trace,
            stolen: &mut self.stolen,
            module_name: &self.modules[idx].name,
        };
        let r = f(&mut module, &mut ctx);
        self.modules[idx].module = Some(module);
        r
    }

    /// Advances the clock to `horizon`, firing due module timers in order.
    pub fn advance_to(&mut self, horizon: SimTime) {
        self.advance_inner(horizon);
        self.end_quiet_stretch();
    }

    /// [`advance_to`](Self::advance_to) without closing the quiet
    /// stretch, so `run_workload` can keep one open across its slices.
    #[inline]
    fn advance_inner(&mut self, horizon: SimTime) {
        // `with_module` needs `&mut self`, so hold the tracer by clone
        // (it is an `Rc` handle onto the sink's shared span tree).
        let tracer = self.backend.cpu().telemetry().tracer().clone();
        while let Some(t) = self.timers.peek() {
            if t.at > horizon {
                break;
            }
            let timer = self.timers.pop().expect("peeked timer vanished");
            if !self.modules[timer.module_idx].live {
                continue;
            }
            self.now = timer.at;
            tracer.set_sim_now(self.now);
            if self.replay_quiet_tick(timer.module_idx) {
                continue;
            }
            self.end_quiet_stretch();
            self.fire(timer.module_idx, &tracer);
        }
        if horizon > self.now {
            self.now = horizon;
            tracer.set_sim_now(self.now);
        }
    }

    /// Runs one module tick in full; measures it when the quiet-tick
    /// preconditions hold, so the next ticks can be replayed.
    fn fire(&mut self, module_idx: usize, tracer: &Tracer) {
        let measured = self.begin_measure(module_idx, tracer);
        let span = tracer.span("kernel/timer");
        let steal_before: SimDuration = self.stolen.iter().copied().sum();
        let next = self.with_module(module_idx, |m, ctx| m.on_timer(ctx));
        if let Some(next) = next {
            self.arm_timer(module_idx, next);
        }
        drop(span);
        let steal_after: SimDuration = self.stolen.iter().copied().sum();
        let iteration_us = steal_after.saturating_sub(steal_before).as_picos() as f64 / 1e6;
        self.backend.cpu().telemetry().observe(
            MetricKey::global("kernel", "timer_iteration_us"),
            HistogramSpec::POLL_ITERATION_US,
            iteration_us,
        );
        if let (true, Some(period)) = (measured, next) {
            self.end_measure(module_idx, tracer, period, iteration_us);
        }
    }

    /// Whether module `idx` wants replays and nothing about the machine
    /// forbids them: the module's last tick was quiet, reads through
    /// the backend are pure, per-access MSR events and span capture are
    /// off, the hot counters are batched, and the rails have settled.
    /// If so, snapshots what the coming tick will change.
    fn begin_measure(&mut self, idx: usize, tracer: &Tracer) -> bool {
        let module = self.modules[idx]
            .module
            .as_mut()
            .expect("module re-entered");
        if !module.replay_quiet_ticks(0) || !self.backend.reads_are_pure() {
            return false;
        }
        let cpu = self.backend.cpu();
        if !plugvolt_telemetry::hot_path_enabled()
            || cpu.telemetry().msr_events_enabled()
            || tracer.capture_enabled()
            || cpu.rail_settles_at() > self.now
        {
            return false;
        }
        let snap = &mut self.snapshot;
        snap.epoch = cpu.state_epoch();
        snap.stolen.clone_from(&self.stolen);
        cpu.hot_counters_into(&mut snap.hot);
        snap.spans = tracer.is_enabled().then(|| tracer.begin_delta());
        true
    }

    /// Turns a measured full tick into the quiet-stretch template, if
    /// it left the package epoch alone and the module calls it quiet.
    fn end_measure(&mut self, idx: usize, tracer: &Tracer, period: SimDuration, iteration_us: f64) {
        let module = self.modules[idx]
            .module
            .as_mut()
            .expect("module re-entered");
        let cpu = self.backend.cpu();
        let snap = &mut self.snapshot;
        if cpu.state_epoch() != snap.epoch || !module.replay_quiet_ticks(0) {
            return;
        }
        let mut spans = snap.spans.take();
        if let Some(delta) = spans.as_mut() {
            if !tracer.end_delta(delta) {
                return;
            }
        }
        let mut hot = Vec::new();
        cpu.hot_counters_into(&mut hot);
        for (after, before) in hot.iter_mut().zip(&snap.hot) {
            for (a, b) in after.iter_mut().zip(before) {
                *a -= b;
            }
        }
        let stolen = self
            .stolen
            .iter()
            .zip(&snap.stolen)
            .map(|(&after, &before)| after.saturating_sub(before))
            .collect();
        self.quiet = Some(QuietTick {
            module_idx: idx,
            epoch: snap.epoch,
            period,
            stolen,
            iteration_us,
            hot,
            spans,
            pending: 0,
        });
    }

    /// Replays the quiet tick instead of firing module `idx`'s timer,
    /// if a stretch is open for that module and the package epoch has
    /// not moved since the measured tick began. Per tick only what the
    /// victim loop reads moves: stolen time and the re-armed timer.
    fn replay_quiet_tick(&mut self, idx: usize) -> bool {
        let Some(q) = self.quiet.as_mut() else {
            return false;
        };
        if q.module_idx != idx || self.backend.cpu().state_epoch() != q.epoch {
            return false;
        }
        for (slot, &d) in self.stolen.iter_mut().zip(&q.stolen) {
            *slot += d;
        }
        q.pending += 1;
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(PendingTimer {
            at: self.now + q.period,
            seq,
            module_idx: idx,
        });
        true
    }

    /// Closes the quiet stretch, if one is open (see
    /// [`flush_quiet_stretch`](Self::flush_quiet_stretch)). Every
    /// `advance_to` ends here, so the common no-stretch case stays a
    /// single inlined test.
    #[inline]
    fn end_quiet_stretch(&mut self) {
        if self.quiet.is_some() {
            self.flush_quiet_stretch();
        }
    }

    /// Flushes the open stretch's replayed ticks — hot counters,
    /// timer-iteration observations, span aggregates and the module's
    /// own counters — exactly as the full ticks would have recorded
    /// them, and closes it.
    #[cold]
    fn flush_quiet_stretch(&mut self) {
        let Some(q) = self.quiet.take() else {
            return;
        };
        if q.pending > 0 {
            let cpu = self.backend.cpu();
            cpu.add_hot_counters(&q.hot, q.pending);
            cpu.telemetry().observe_n(
                MetricKey::global("kernel", "timer_iteration_us"),
                HistogramSpec::POLL_ITERATION_US,
                q.iteration_us,
                q.pending,
            );
            if let Some(delta) = &q.spans {
                cpu.telemetry().tracer().replay_delta(delta, q.pending);
            }
            if let Some(module) = self.modules[q.module_idx].module.as_mut() {
                module.replay_quiet_ticks(q.pending);
            }
        }
    }

    /// Advances the clock by `span`.
    pub fn advance(&mut self, span: SimDuration) {
        self.advance_to(self.now + span);
    }

    /// Runs `iters` instructions of `class` on `core` starting now,
    /// interleaved with module timers; the core only makes progress when
    /// no module work is stealing it. Returns the retired/fault/steal
    /// accounting — the primitive behind the SPEC-style overhead runs.
    ///
    /// # Errors
    ///
    /// Propagates a package crash.
    pub fn run_workload(
        &mut self,
        core: CoreId,
        class: InstrClass,
        iters: u64,
    ) -> Result<WorkloadRun, MachineError> {
        let run = self.run_workload_slices(core, class, iters);
        self.end_quiet_stretch();
        run
    }

    fn run_workload_slices(
        &mut self,
        core: CoreId,
        class: InstrClass,
        iters: u64,
    ) -> Result<WorkloadRun, MachineError> {
        let started = self.now;
        let stolen_before = self.stolen_time(core);
        let mut remaining = iters;
        let mut faults = 0u64;
        loop {
            let freq = self.backend.cpu().core_freq(core)?;
            // Loop invariant we maintain: now == started + work_time(done)
            // + steal accrued on this core. Catch up first if module work
            // just pushed us behind that line.
            let accrued = self.stolen_time(core).saturating_sub(stolen_before);
            let done = iters - remaining;
            let work_time = self
                .backend
                .cpu()
                .engine()
                .batch_duration(class, done, freq);
            let target = started + work_time + accrued;
            if target > self.now {
                self.advance_inner(target);
                continue; // re-evaluate: the catch-up may have fired timers
            }
            if remaining == 0 {
                break;
            }
            let full = self
                .backend
                .cpu()
                .engine()
                .batch_duration(class, remaining, freq);
            let next_timer = self.timers.peek().map(|t| t.at);
            match next_timer {
                Some(t) if t < self.now + full => {
                    // Run the part of the batch that fits before the timer.
                    let slice = t.saturating_duration_since(self.now);
                    let cycles = slice.cycles_at(freq.mhz());
                    let n = ((cycles as f64 / class.cpi()).floor() as u64).min(remaining);
                    if n > 0 {
                        let now = self.now;
                        faults += self.backend.cpu_mut().run_batch(now, core, class, n)?;
                        remaining -= n;
                    }
                    self.advance_inner(t); // fires the timer, accrues steal
                }
                _ => {
                    let now = self.now;
                    faults += self
                        .backend
                        .cpu_mut()
                        .run_batch(now, core, class, remaining)?;
                    remaining = 0;
                    self.advance_inner(self.now + full);
                }
            }
        }
        let stolen = self.stolen_time(core).saturating_sub(stolen_before);
        Ok(WorkloadRun {
            instructions: iters,
            faults,
            wall: self.now.saturating_duration_since(started),
            stolen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plugvolt_telemetry::TelemetryProfile;
    use std::cell::Cell;
    use std::rc::Rc;

    struct TickModule {
        period: SimDuration,
        cost: SimDuration,
        ticks: Rc<Cell<u64>>,
    }

    impl KernelModule for TickModule {
        fn name(&self) -> &str {
            "tick"
        }
        fn init(&mut self, _ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
            Some(self.period)
        }
        fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
            self.ticks.set(self.ticks.get() + 1);
            for c in 0..ctx.cpu().core_count() {
                ctx.charge(CoreId(c), self.cost);
            }
            Some(self.period)
        }
    }

    fn machine() -> Machine {
        Machine::new(CpuModel::CometLake, 5)
    }

    #[test]
    fn advance_moves_clock() {
        let mut m = machine();
        m.advance(SimDuration::from_micros(100));
        assert_eq!(m.now(), SimTime::ZERO + SimDuration::from_micros(100));
    }

    #[test]
    fn module_load_unload_lifecycle() {
        let mut m = machine();
        assert!(!m.is_module_loaded("tick"));
        m.load_module(Box::new(TickModule {
            period: SimDuration::from_millis(1),
            cost: SimDuration::from_micros(2),
            ticks: Rc::default(),
        }))
        .unwrap();
        assert!(m.is_module_loaded("tick"));
        // Double-load is rejected.
        let err = m
            .load_module(Box::new(TickModule {
                period: SimDuration::from_millis(1),
                cost: SimDuration::ZERO,
                ticks: Rc::default(),
            }))
            .unwrap_err();
        assert_eq!(err, MachineError::ModuleLoaded("tick".into()));
        m.unload_module("tick").unwrap();
        assert!(!m.is_module_loaded("tick"));
        assert_eq!(
            m.unload_module("tick"),
            Err(MachineError::ModuleNotLoaded("tick".into()))
        );
    }

    #[test]
    fn timers_fire_and_steal_time() {
        let mut m = machine();
        m.load_module(Box::new(TickModule {
            period: SimDuration::from_millis(1),
            cost: SimDuration::from_micros(2),
            ticks: Rc::default(),
        }))
        .unwrap();
        m.advance(SimDuration::from_millis(10));
        // 10 ticks × 2 µs stolen per core.
        assert_eq!(m.stolen_time(CoreId(0)), SimDuration::from_micros(20));
        assert_eq!(m.stolen_time(CoreId(3)), SimDuration::from_micros(20));
    }

    #[test]
    fn unloaded_module_timers_stop() {
        let mut m = machine();
        m.load_module(Box::new(TickModule {
            period: SimDuration::from_millis(1),
            cost: SimDuration::from_micros(2),
            ticks: Rc::default(),
        }))
        .unwrap();
        m.advance(SimDuration::from_millis(3));
        m.unload_module("tick").unwrap();
        let stolen = m.stolen_time(CoreId(0));
        m.advance(SimDuration::from_millis(10));
        assert_eq!(m.stolen_time(CoreId(0)), stolen);
    }

    #[test]
    fn workload_without_modules_runs_at_full_rate() {
        let mut m = machine();
        let run = m
            .run_workload(CoreId(0), InstrClass::Imul, 1_000_000)
            .unwrap();
        assert_eq!(run.instructions, 1_000_000);
        assert_eq!(run.faults, 0);
        assert_eq!(run.stolen, SimDuration::ZERO);
        // 1M imul at CPI 1, 1.8 GHz base → ≈ 555 µs.
        let expect = SimDuration::from_cycles(1_000_000, 1_800);
        let diff = run.wall.saturating_sub(expect) + expect.saturating_sub(run.wall);
        assert!(diff < SimDuration::from_micros(5), "wall={}", run.wall);
    }

    #[test]
    fn workload_with_module_pays_overhead() {
        let mut m = machine();
        m.load_module(Box::new(TickModule {
            period: SimDuration::from_millis(1),
            cost: SimDuration::from_micros(5),
            ticks: Rc::default(),
        }))
        .unwrap();
        // A long run: 100M ALU ops ≈ 13.9 ms at 1.8 GHz.
        let run = m
            .run_workload(CoreId(0), InstrClass::AluAdd, 100_000_000)
            .unwrap();
        assert!(run.stolen > SimDuration::ZERO);
        // Overhead ratio ≈ 5 µs/ms = 0.5 %.
        let ratio = run.stolen.as_picos() as f64 / run.wall.as_picos() as f64;
        assert!((0.002..0.008).contains(&ratio), "ratio={ratio}");
        // Wall = compute + stolen, within slice rounding.
        let compute = run.wall.saturating_sub(run.stolen);
        let pure = SimDuration::from_cycles(25_000_000, 1_800);
        let diff = compute.saturating_sub(pure) + pure.saturating_sub(compute);
        assert!(
            diff < SimDuration::from_micros(50),
            "compute={compute} pure={pure}"
        );
    }

    #[test]
    fn module_without_opt_in_fires_every_tick() {
        let mut m = machine();
        let ticks = Rc::new(Cell::new(0));
        m.load_module(Box::new(TickModule {
            period: SimDuration::from_micros(100),
            cost: SimDuration::from_micros(1),
            ticks: Rc::clone(&ticks),
        }))
        .unwrap();
        m.run_workload(CoreId(0), InstrClass::AluAdd, 50_000_000)
            .unwrap();
        m.advance(SimDuration::from_micros(1_050));
        let due = m.now().as_picos() / SimDuration::from_micros(100).as_picos();
        assert!(due > 60, "only {due} ticks due");
        assert_eq!(ticks.get(), due, "every due tick ran in full");
        assert_eq!(
            m.stolen_time(CoreId(2)),
            SimDuration::from_micros(ticks.get())
        );
    }

    /// Reads `IA32_PERF_STATUS` on every core each tick and finds
    /// nothing; opts into replay when `opt_in`.
    struct QuietProbe {
        opt_in: bool,
        full: Rc<Cell<u64>>,
        replayed: Rc<Cell<u64>>,
    }

    impl KernelModule for QuietProbe {
        fn name(&self) -> &str {
            "probe"
        }
        fn init(&mut self, _ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
            Some(SimDuration::from_micros(200))
        }
        fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
            let _tick = ctx.tracer().span("poll/iteration");
            self.full.set(self.full.get() + 1);
            for c in 0..ctx.cpu().core_count() {
                ctx.rdmsr_local(CoreId(c), Msr::IA32_PERF_STATUS).unwrap();
            }
            Some(SimDuration::from_micros(200))
        }
        fn replay_quiet_ticks(&mut self, replayed: u64) -> bool {
            self.replayed.set(self.replayed.get() + replayed);
            self.opt_in
        }
    }

    /// Runs a probe through a workload, a plain advance and a P-state
    /// change; returns (full ticks, replayed ticks, everything
    /// observable).
    fn probe_run(opt_in: bool, traced: bool, msr_events: bool) -> (u64, u64, String) {
        let mut m = machine();
        m.telemetry().tracer().set_enabled(traced);
        m.telemetry().enable_msr_events(msr_events);
        let (full, replayed) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        m.load_module(Box::new(QuietProbe {
            opt_in,
            full: Rc::clone(&full),
            replayed: Rc::clone(&replayed),
        }))
        .unwrap();
        let run = m
            .run_workload(CoreId(1), InstrClass::Imul, 20_000_000)
            .unwrap();
        m.advance(SimDuration::from_millis(3));
        m.set_freq(CoreId(3), FreqMhz(2_600)).unwrap();
        m.advance(SimDuration::from_millis(2));
        m.publish_trace_drops();
        let stolen: Vec<_> = (0..4).map(|c| m.stolen_time(CoreId(c))).collect();
        let registry = m
            .telemetry()
            .with(|r| TelemetryProfile::from_registry(r, "probe").to_json());
        let spans =
            plugvolt_telemetry::SpanProfile::from_tracer(m.telemetry().tracer(), "probe").to_json();
        let observable = format!("{run:?} {stolen:?} {:?} {registry} {spans}", m.now());
        (full.get(), replayed.get(), observable)
    }

    #[test]
    fn opted_in_quiet_ticks_replay_exactly() {
        for traced in [false, true] {
            let (full, replayed, fast) = probe_run(true, traced, false);
            let (every, none, reference) = probe_run(false, traced, false);
            assert_eq!(none, 0);
            assert_eq!(full + replayed, every, "traced={traced}");
            assert!(full * 5 < every, "{full} of {every} ticks ran in full");
            assert_eq!(fast, reference, "traced={traced}");
        }
        // Per-access MSR events must see every access: no replay.
        let (full, replayed, with_events) = probe_run(true, false, true);
        assert_eq!(replayed, 0);
        assert_eq!(with_events, probe_run(false, false, true).2);
        assert!(full > 0);
    }

    #[test]
    fn trace_records_module_lifecycle() {
        let mut m = machine();
        m.load_module(Box::new(TickModule {
            period: SimDuration::from_millis(1),
            cost: SimDuration::ZERO,
            ticks: Rc::default(),
        }))
        .unwrap();
        m.unload_module("tick").unwrap();
        assert!(m.trace().any(|r| r.message == "insmod tick"));
        assert!(m.trace().any(|r| r.message == "rmmod tick"));
    }
}
