//! Step S1: empirical characterization of unsafe system states.
//!
//! A faithful implementation of the paper's two-thread framework
//! (Sec. 4.2, Algorithms 1 and 2):
//!
//! - the **DVFS thread** walks the cartesian product of core frequencies
//!   (0.1 GHz resolution via `cpupower`) and negative voltage offsets
//!   (written to MSR 0x150 through the userspace msr device, using the
//!   Algorithm 1 encoding);
//! - the **EXECUTE thread** runs a tight loop of one million `imul`
//!   iterations with varying 64-bit operands and reports incorrect
//!   products.
//!
//! Any pair observing faults joins the unsafe set; sweeping deeper at a
//! fixed frequency eventually crashes the machine, bounding the band
//! (the paper characterizes the unsafe width "until we observe a system
//! crash").

use crate::charmap::{CharacterizationMap, FreqBand};
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::model::{CpuModel, CpuSpec};
use plugvolt_cpu::package::PackageError;
use plugvolt_des::rng::derive_seed;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_kernel::cpupower::CpuPower;
use plugvolt_kernel::machine::{Machine, MachineError};
use plugvolt_kernel::msr_dev::MsrDev;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::oc_mailbox::{OcRequest, Plane};
use serde::{Deserialize, Serialize};

/// A degenerate [`SweepConfig`] rejected before any machine is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepConfigError {
    /// `offset_start_mv` must be negative (the sweep tests undervolts).
    NonNegativeStart {
        /// The offending start offset.
        offset_start_mv: i32,
    },
    /// `offset_floor_mv` must be at or below `offset_start_mv`.
    FloorAboveStart {
        /// The configured start offset.
        offset_start_mv: i32,
        /// The configured floor offset.
        offset_floor_mv: i32,
    },
    /// `offset_step_mv` must be positive.
    NonPositiveOffsetStep {
        /// The offending step.
        offset_step_mv: i32,
    },
    /// `freq_step_mhz` must be positive.
    ZeroFreqStep,
    /// `imul_iters` must be positive (an empty EXECUTE loop observes
    /// nothing).
    ZeroImulIters,
}

impl std::fmt::Display for SweepConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepConfigError::NonNegativeStart { offset_start_mv } => write!(
                f,
                "offset_start_mv must be negative, got {offset_start_mv} mV"
            ),
            SweepConfigError::FloorAboveStart {
                offset_start_mv,
                offset_floor_mv,
            } => write!(
                f,
                "offset_floor_mv ({offset_floor_mv} mV) must be at or below \
                 offset_start_mv ({offset_start_mv} mV)"
            ),
            SweepConfigError::NonPositiveOffsetStep { offset_step_mv } => {
                write!(f, "offset_step_mv must be positive, got {offset_step_mv}")
            }
            SweepConfigError::ZeroFreqStep => write!(f, "freq_step_mhz must be positive"),
            SweepConfigError::ZeroImulIters => write!(f, "imul_iters must be positive"),
        }
    }
}

impl std::error::Error for SweepConfigError {}

/// Everything a characterization sweep can fail with: a rejected
/// configuration, or a machine error other than the expected
/// sweep-induced crashes.
#[derive(Debug)]
pub enum CharacterizeError {
    /// The sweep configuration is degenerate.
    Config(SweepConfigError),
    /// The machine failed outside the handled crash/reset cycle.
    Machine(MachineError),
}

impl std::fmt::Display for CharacterizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CharacterizeError::Config(e) => write!(f, "invalid sweep config: {e}"),
            CharacterizeError::Machine(e) => write!(f, "machine error during sweep: {e}"),
        }
    }
}

impl std::error::Error for CharacterizeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CharacterizeError::Config(e) => Some(e),
            CharacterizeError::Machine(e) => Some(e),
        }
    }
}

impl From<SweepConfigError> for CharacterizeError {
    fn from(e: SweepConfigError) -> Self {
        CharacterizeError::Config(e)
    }
}

impl From<MachineError> for CharacterizeError {
    fn from(e: MachineError) -> Self {
        CharacterizeError::Machine(e)
    }
}

impl From<PackageError> for CharacterizeError {
    fn from(e: PackageError) -> Self {
        CharacterizeError::Machine(MachineError::from(e))
    }
}

/// Configuration of the characterization sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Shallowest offset tested (mV, negative). Paper: −1.
    pub offset_start_mv: i32,
    /// Deepest offset tested (mV, negative). Paper: −300.
    pub offset_floor_mv: i32,
    /// Offset resolution in mV. Paper: 1.
    pub offset_step_mv: i32,
    /// Frequency resolution in MHz. Paper: 100 (0.1 GHz).
    pub freq_step_mhz: u32,
    /// EXECUTE-thread loop length. Paper: one million.
    pub imul_iters: u64,
    /// The core the EXECUTE thread is pinned to.
    pub execute_core: CoreId,
    /// Stop sweeping deeper at a frequency once it crashed (the paper
    /// stops a frequency's characterization at the crash).
    pub stop_after_crash: bool,
}

impl Default for SweepConfig {
    /// The paper's parameters: offsets −1…−300 mV at 1 mV, frequencies at
    /// 0.1 GHz resolution, one million `imul` iterations per point.
    fn default() -> Self {
        SweepConfig {
            offset_start_mv: -1,
            offset_floor_mv: -300,
            offset_step_mv: 1,
            freq_step_mhz: 100,
            imul_iters: 1_000_000,
            execute_core: CoreId(0),
            stop_after_crash: true,
        }
    }
}

impl SweepConfig {
    /// A coarse sweep for tests: 5 mV / 500 MHz resolution.
    #[must_use]
    pub fn coarse() -> Self {
        SweepConfig {
            offset_step_mv: 5,
            freq_step_mhz: 500,
            ..SweepConfig::default()
        }
    }

    /// Rejects degenerate configurations before a sweep starts.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SweepConfigError> {
        if self.offset_start_mv >= 0 {
            return Err(SweepConfigError::NonNegativeStart {
                offset_start_mv: self.offset_start_mv,
            });
        }
        if self.offset_floor_mv > self.offset_start_mv {
            return Err(SweepConfigError::FloorAboveStart {
                offset_start_mv: self.offset_start_mv,
                offset_floor_mv: self.offset_floor_mv,
            });
        }
        if self.offset_step_mv <= 0 {
            return Err(SweepConfigError::NonPositiveOffsetStep {
                offset_step_mv: self.offset_step_mv,
            });
        }
        if self.freq_step_mhz == 0 {
            return Err(SweepConfigError::ZeroFreqStep);
        }
        if self.imul_iters == 0 {
            return Err(SweepConfigError::ZeroImulIters);
        }
        Ok(())
    }
}

/// One grid point of the sweep (a row of the Figures 2–4 raw data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepRecord {
    /// Tested frequency.
    pub freq: FreqMhz,
    /// Tested offset.
    pub offset_mv: i32,
    /// Faulted `imul` iterations (0 for a safe point).
    pub faults: u64,
    /// Whether the machine crashed at this point.
    pub crashed: bool,
}

/// The result of a full characterization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationRun {
    /// The safe/unsafe map distilled from the sweep.
    pub map: CharacterizationMap,
    /// Raw per-point records (the figure data).
    pub records: Vec<SweepRecord>,
    /// Number of machine crashes (and resets) incurred.
    pub crashes: u32,
    /// Simulated wall-clock time the sweep took.
    pub duration: SimDuration,
}

/// The frequencies a sweep visits for a spec: the table filtered to the
/// configured stride, always including the table maximum (the most
/// restrictive point of the spectrum — shallowest unsafe band — which a
/// sweep must never skip, whatever the stride).
fn sweep_frequencies(spec: &CpuSpec, cfg: &SweepConfig) -> Vec<FreqMhz> {
    let mut freqs: Vec<FreqMhz> = spec
        .freq_table
        .iter()
        .filter(|f| (f.mhz() - spec.freq_table.min().mhz()).is_multiple_of(cfg.freq_step_mhz))
        .collect();
    if freqs.last() != Some(&spec.freq_table.max()) {
        freqs.push(spec.freq_table.max());
    }
    freqs
}

/// What one frequency's offset sweep produced.
struct FreqSweep {
    band: FreqBand,
    records: Vec<SweepRecord>,
    crashes: u32,
}

/// Sweeps the offset axis at one pinned frequency (the inner loop of
/// Algorithm 2), leaving the machine at that frequency with a zero
/// offset.
fn sweep_one_frequency(
    machine: &mut Machine,
    cpupower: &mut CpuPower,
    dev: &MsrDev,
    cfg: &SweepConfig,
    freq: FreqMhz,
) -> Result<FreqSweep, MachineError> {
    // All cores to the test frequency: the core-plane rail follows
    // the *maximum* demand across cores, so pinning only the victim
    // core would characterize a higher rail voltage than a machine
    // whose other cores idle low actually sees (per-core states are
    // then always at least as safe as this all-core worst case).
    cpupower.frequency_set_all(machine, freq)?;
    settle(machine);
    let mut band = FreqBand::default();
    let mut records = Vec::new();
    let mut crashes = 0u32;
    let mut offset = cfg.offset_start_mv;
    while offset >= cfg.offset_floor_mv {
        match test_point(machine, dev, cfg, freq, offset) {
            Ok(faults) => {
                records.push(SweepRecord {
                    freq,
                    offset_mv: offset,
                    faults,
                    crashed: false,
                });
                if faults > 0 && band.fault_onset_mv.is_none() {
                    // The true onset lies somewhere in the last
                    // untested step; record the conservative
                    // (shallower) end so a coarse sweep never
                    // under-protects. At the paper's 1 mV resolution
                    // this is exact.
                    band.fault_onset_mv = Some((offset + cfg.offset_step_mv - 1).min(-1));
                }
            }
            Err(MachineError::Package(PackageError::Crashed)) => {
                records.push(SweepRecord {
                    freq,
                    offset_mv: offset,
                    faults: 0,
                    crashed: true,
                });
                if band.crash_mv.is_none() {
                    band.crash_mv = Some((offset + cfg.offset_step_mv - 1).min(-1));
                }
                crashes += 1;
                let now = machine.now();
                machine.cpu_mut().reset(now);
                settle(machine);
                cpupower.frequency_set_all(machine, freq)?;
                settle(machine);
                if cfg.stop_after_crash {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
        offset -= cfg.offset_step_mv;
    }
    Ok(FreqSweep {
        band,
        records,
        crashes,
    })
}

/// Runs the paper's Algorithm 2 on a machine, returning the
/// characterization (the machine is left reset to nominal state).
///
/// # Errors
///
/// Returns [`CharacterizeError::Config`] for a degenerate `cfg` and
/// propagates machine errors other than the expected sweep-induced
/// crashes (which are handled by resetting, as on the real bench).
pub fn characterize(
    machine: &mut Machine,
    cfg: &SweepConfig,
) -> Result<CharacterizationRun, CharacterizeError> {
    characterize_observed(machine, cfg, &mut |_| {})
}

/// [`characterize`] with a progress observer: `observe` is invoked with
/// the machine after every completed frequency sweep, with the sim
/// clock advanced past that sweep. This is the streaming-telemetry
/// hook — a [`plugvolt_telemetry::StreamCursor`] polled here produces
/// sim-time-gated snapshot frames during long sweeps instead of one
/// profile dump at exit.
///
/// # Errors
///
/// Same as [`characterize`].
pub fn characterize_observed(
    machine: &mut Machine,
    cfg: &SweepConfig,
    observe: &mut dyn FnMut(&Machine),
) -> Result<CharacterizationRun, CharacterizeError> {
    cfg.validate()?;

    let started = machine.now();
    let mut cpupower = CpuPower::new(machine);
    let dev = MsrDev::open(machine, cfg.execute_core)?;
    let spec = machine.cpu().spec().clone();

    // Algorithm 2 lines 6–7: measure the normal frequency and offset so
    // each iteration can restore them.
    let original_freq = machine.cpu().core_freq(cfg.execute_core)?;
    let original_offset_mv = machine.cpu().core_offset_mv();

    let mut map = CharacterizationMap::new(spec.name, spec.microcode, cfg.offset_floor_mv);
    let mut records = Vec::new();
    let mut crashes = 0u32;

    for freq in sweep_frequencies(&spec, cfg) {
        let sweep = sweep_one_frequency(machine, &mut cpupower, &dev, cfg, freq)?;
        records.extend(sweep.records);
        crashes += sweep.crashes;
        map.insert_band(freq, sweep.band);
        observe(machine);
    }

    // Restore the original operating point (Algorithm 2 lines 13–14).
    cpupower.frequency_set_all(machine, original_freq)?;
    let restore = OcRequest::write_offset(original_offset_mv, Plane::Core).encode();
    dev.write(machine, Msr::OC_MAILBOX, restore)?;
    settle(machine);

    Ok(CharacterizationRun {
        map,
        records,
        crashes,
        duration: machine.now().saturating_duration_since(started),
    })
}

/// The seed-derivation label for one frequency shard of a sharded
/// characterization rooted at `root_seed`.
#[must_use]
pub fn shard_label(freq: FreqMhz) -> String {
    format!("characterize/f{}", freq.mhz())
}

/// Characterizes a model with the frequency axis sharded across
/// `workers` threads.
///
/// Per-frequency sweeps are independent units of work (the V0LTpwn
/// observation), so each shard boots its **own** fresh machine seeded
/// with `derive_seed(root_seed, "characterize/f<mhz>")` and sweeps the
/// offset axis at that single frequency; records merge back in
/// frequency order. Because every shard's stream depends only on
/// `(root_seed, frequency)` — never on which worker ran it or in what
/// order — the result is byte-identical for any worker count, including
/// the `workers == 1` sequential path (pinned by a tier-1 test).
///
/// The crash counter and the simulated duration are summed across
/// shards; the duration is therefore the total simulated machine-time
/// spent sweeping, not the wall-clock-parallel makespan.
///
/// Note this engine intentionally does **not** reproduce the records of
/// the single-machine [`characterize`] (there, one package RNG stream
/// spans all frequencies, which no frequency-parallel schedule can
/// replay); the *map* it distills agrees at the band level.
///
/// # Errors
///
/// Returns [`CharacterizeError::Config`] for a degenerate `cfg` and
/// propagates the first shard's machine error in frequency order.
pub fn characterize_sharded(
    model: CpuModel,
    root_seed: u64,
    cfg: &SweepConfig,
    workers: usize,
) -> Result<CharacterizationRun, CharacterizeError> {
    characterize_sharded_traced(model, root_seed, cfg, workers, None)
}

/// [`characterize_sharded`] with span tracing carried across the shard
/// boundary: each shard traces into its own machine's tracer, returns a
/// plain-data `SpanSnapshot`, and the snapshots merge into `tracer` in
/// frequency order — so the aggregated span profile, like the records,
/// is byte-identical for any worker count.
///
/// # Errors
///
/// Same contract as [`characterize_sharded`].
pub fn characterize_sharded_traced(
    model: CpuModel,
    root_seed: u64,
    cfg: &SweepConfig,
    workers: usize,
    tracer: Option<&plugvolt_telemetry::Tracer>,
) -> Result<CharacterizationRun, CharacterizeError> {
    cfg.validate()?;
    let spec = model.spec();
    let freqs = sweep_frequencies(&spec, cfg);
    let trace = tracer.is_some_and(|t| t.is_enabled());

    // `Machine` is not `Send`, so each shard constructs (and drops) its
    // machine entirely inside its worker thread — only the plain-data
    // sweep results (and span snapshots) cross back.
    let shards = crate::pool::run_indexed(workers, freqs.len(), |i| {
        sweep_shard(model, root_seed, cfg, freqs[i], trace)
    })
    .map_err(CharacterizeError::Machine)?;

    let mut map = CharacterizationMap::new(spec.name, spec.microcode, cfg.offset_floor_mv);
    let mut records = Vec::new();
    let mut crashes = 0u32;
    let mut duration = SimDuration::ZERO;
    for (freq, (sweep, shard_duration, spans)) in freqs.iter().zip(shards) {
        records.extend(sweep.records);
        crashes += sweep.crashes;
        duration += shard_duration;
        map.insert_band(*freq, sweep.band);
        if let Some(t) = tracer {
            // Frequency order, like the records: first-seen node
            // creation (and the aggregate totals) stay worker-count
            // independent.
            t.absorb(&spans);
        }
    }
    Ok(CharacterizationRun {
        map,
        records,
        crashes,
        duration,
    })
}

/// One shard of [`characterize_sharded`]: a fresh machine, one pinned
/// frequency, the full offset sweep.
fn sweep_shard(
    model: CpuModel,
    root_seed: u64,
    cfg: &SweepConfig,
    freq: FreqMhz,
    trace: bool,
) -> Result<(FreqSweep, SimDuration, plugvolt_telemetry::SpanSnapshot), MachineError> {
    // Shard machines are the engine's own: each frequency gets a fresh
    // boot from a derived labelled seed, which is what makes the merge
    // worker-count-independent. Constructing them here (not through the
    // bench Scenario layer) is the point, not an oversight.
    // plugvolt-lint: allow(machine-construction-discipline)
    let mut machine = Machine::new(model, derive_seed(root_seed, &shard_label(freq)));
    machine.telemetry().tracer().set_enabled(trace);
    let started = machine.now();
    let mut cpupower = CpuPower::new(&machine);
    let dev = MsrDev::open(&machine, cfg.execute_core)?;
    let sweep = sweep_one_frequency(&mut machine, &mut cpupower, &dev, cfg, freq)?;
    let duration = machine.now().saturating_duration_since(started);
    Ok((sweep, duration, machine.telemetry().tracer().snapshot()))
}

/// Tests one (frequency, offset) grid point: write the offset through
/// the mailbox, wait for the rail, run the EXECUTE thread, restore.
fn test_point(
    machine: &mut Machine,
    dev: &MsrDev,
    cfg: &SweepConfig,
    _freq: FreqMhz,
    offset_mv: i32,
) -> Result<u64, MachineError> {
    // Guards own tracer clones, so each phase closes when its block
    // ends (including the early `?` returns).
    let tracer = machine.telemetry().tracer().clone();
    let _point = tracer.span("characterize/point");

    let req = OcRequest::write_offset(offset_mv, Plane::Core).encode();
    {
        let _write = tracer.span("characterize/offset-write");
        dev.write(machine, Msr::OC_MAILBOX, req)?;
    }
    {
        let _settle = tracer.span("characterize/settle");
        settle(machine);
    }

    // EXECUTE thread: one million imuls with varying operands. It runs
    // in parallel with (and unblocked by) the DVFS thread; its wall time
    // advances the machine clock.
    let core = cfg.execute_core;
    let now = machine.now();
    let faults = {
        let _execute = tracer.span("characterize/execute");
        let faults_result = machine.cpu_mut().run_imul_loop(now, core, cfg.imul_iters);
        let freq_now = machine.cpu().core_freq(core).unwrap_or(FreqMhz(1_000));
        machine.advance(SimDuration::from_cycles(cfg.imul_iters, freq_now.mhz()));
        faults_result.map_err(MachineError::from)?
    };

    // Restore the offset before the next grid point.
    let restore = OcRequest::write_offset(0, Plane::Core).encode();
    {
        let _write = tracer.span("characterize/offset-write");
        dev.write(machine, Msr::OC_MAILBOX, restore)?;
    }
    {
        let _settle = tracer.span("characterize/settle");
        settle(machine);
    }
    Ok(faults)
}

fn settle(machine: &mut Machine) {
    let t = machine.cpu().rail_settles_at() + SimDuration::from_micros(1);
    if t > machine.now() {
        machine.advance_to(t);
    }
}

/// Convenience: the target the rail must reach before measuring.
#[must_use]
pub fn rail_settled_time(machine: &Machine) -> SimTime {
    machine.cpu().rail_settles_at() + SimDuration::from_micros(1)
}

/// One row of the instruction-class fault survey.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurveyRow {
    /// The instruction class.
    pub class: plugvolt_cpu::exec::InstrClass,
    /// Shallowest offset at which the class faults at `freq` (mV), if
    /// it faults within the sweep at all.
    pub fault_onset_mv: Option<i32>,
}

/// Surveys which instruction classes fault first under undervolting at
/// a fixed frequency — the analysis behind the paper's (and Minefield's
/// \[15\]) choice of `imul` for the EXECUTE thread: the deepest datapath
/// leaves the safe region at the shallowest offset.
///
/// # Errors
///
/// Propagates machine errors (sweep-induced crashes are handled).
pub fn instruction_survey(
    machine: &mut Machine,
    freq: FreqMhz,
    iters: u64,
) -> Result<Vec<SurveyRow>, MachineError> {
    use plugvolt_cpu::exec::InstrClass;
    let mut cpupower = CpuPower::new(machine);
    let dev = MsrDev::open(machine, CoreId(0))?;
    let mut rows = Vec::new();
    for class in InstrClass::ALL {
        cpupower.frequency_set_all(machine, freq)?;
        settle(machine);
        let mut onset = None;
        let mut offset = -1;
        while offset >= -400 {
            let req = OcRequest::write_offset(offset, Plane::Core).encode();
            // The cache plane must follow for Load to be comparable.
            let req_cache = OcRequest::write_offset(offset, Plane::Cache).encode();
            dev.write(machine, Msr::OC_MAILBOX, req)?;
            dev.write(machine, Msr::OC_MAILBOX, req_cache)?;
            settle(machine);
            let now = machine.now();
            match machine.cpu_mut().run_batch(now, CoreId(0), class, iters) {
                Ok(faults) if faults > 0 => {
                    onset = Some(offset);
                    break;
                }
                Ok(_) => {}
                Err(PackageError::Crashed) => {
                    let now = machine.now();
                    machine.cpu_mut().reset(now);
                    settle(machine);
                    break;
                }
                Err(e) => return Err(MachineError::Package(e)),
            }
            offset -= 2;
        }
        // Clean up between classes.
        for plane in [Plane::Core, Plane::Cache] {
            let restore = OcRequest::write_offset(0, plane).encode();
            dev.write(machine, Msr::OC_MAILBOX, restore)?;
        }
        settle(machine);
        rows.push(SurveyRow {
            class,
            fault_onset_mv: onset,
        });
    }
    Ok(rows)
}

/// An *analytic oracle* map computed straight from a model's physics,
/// without running the empirical sweep — useful for benches and tests
/// where the sweep's cost is not the subject. The paper's pipeline is
/// the empirical [`characterize`]; this function exists because the
/// simulator, unlike silicon, lets us query the ground truth.
#[must_use]
pub fn analytic_map(spec: &plugvolt_cpu::model::CpuSpec) -> CharacterizationMap {
    use plugvolt_circuit::timing::{TimingBudget, TimingState};
    let mul = spec.multiplier();
    let fm = spec.fault_model();
    let mut map = CharacterizationMap::new(spec.name, spec.microcode, -300);
    for f in spec.freq_table.iter() {
        let budget = TimingBudget::for_frequency_mhz(f.mhz(), spec.t_setup_ps, spec.t_eps_ps);
        let nominal = spec.nominal_voltage_mv(f);
        let mut band = FreqBand::default();
        for off in 1..=300 {
            let v = nominal - f64::from(off);
            if v < spec.absolute_min_voltage_mv() {
                band.crash_mv.get_or_insert(-off);
                break;
            }
            let slack = budget.slack_ps(mul.worst_path_delay_ps(v));
            // Onset where a million-iteration loop would observably fault.
            if band.fault_onset_mv.is_none() && fm.fault_probability(slack) * 1e6 >= 1.0 {
                band.fault_onset_mv = Some(-off);
            }
            if fm.classify(slack) == TimingState::Crash {
                band.crash_mv = Some(-off);
                break;
            }
        }
        map.insert_band(f, band);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateClass;
    use plugvolt_cpu::model::CpuModel;

    fn coarse_run(model: CpuModel) -> CharacterizationRun {
        let mut machine = Machine::new(model, 21);
        characterize(&mut machine, &SweepConfig::coarse()).expect("sweep completes")
    }

    #[test]
    fn sweep_finds_unsafe_bands_on_comet_lake() {
        let run = coarse_run(CpuModel::CometLake);
        assert!(!run.map.is_empty());
        // At least half the characterized frequencies show a fault onset
        // within the −300 mV sweep.
        let with_onset = run
            .map
            .iter()
            .filter(|(_, b)| b.fault_onset_mv.is_some())
            .count();
        assert!(with_onset * 2 >= run.map.len(), "onsets={with_onset}");
        assert!(run.crashes > 0, "sweep should hit crashes");
        assert!(!run.records.is_empty());
    }

    #[test]
    fn onset_offsets_shrink_with_frequency() {
        // The headline shape of Figures 2–4.
        let run = coarse_run(CpuModel::CometLake);
        let onsets: Vec<(u32, i32)> = run
            .map
            .iter()
            .filter_map(|(f, b)| b.fault_onset_mv.map(|o| (f.mhz(), o)))
            .collect();
        assert!(onsets.len() >= 3);
        let first = onsets.iter().min_by_key(|(f, _)| *f).unwrap();
        let last = onsets.iter().max_by_key(|(f, _)| *f).unwrap();
        assert!(
            last.1 > first.1 + 30,
            "onset at {} MHz = {} vs {} MHz = {}",
            first.0,
            first.1,
            last.0,
            last.1
        );
    }

    #[test]
    fn faults_precede_crash_in_each_band() {
        let run = coarse_run(CpuModel::SkyLake);
        for (f, band) in run.map.iter() {
            if let (Some(onset), Some(crash)) = (band.fault_onset_mv, band.crash_mv) {
                assert!(onset > crash, "{f}: onset {onset} not above crash {crash}");
            }
        }
    }

    #[test]
    fn nominal_state_classifies_safe_after_sweep() {
        let run = coarse_run(CpuModel::KabyLakeR);
        let spec = CpuModel::KabyLakeR.spec();
        for f in spec.freq_table.iter().step_by(8) {
            assert_eq!(run.map.classify(f, 0), StateClass::Safe, "{f}");
            assert_eq!(run.map.classify(f, -10), StateClass::Safe, "{f}");
        }
    }

    #[test]
    fn machine_is_restored_after_sweep() {
        let mut machine = Machine::new(CpuModel::CometLake, 21);
        let _ = characterize(&mut machine, &SweepConfig::coarse()).unwrap();
        assert!(!machine.cpu().is_crashed());
        assert_eq!(machine.cpu().core_offset_mv(), 0);
        let now = machine.now();
        let faults = machine
            .cpu_mut()
            .run_imul_loop(now, CoreId(0), 100_000)
            .unwrap();
        assert_eq!(faults, 0, "machine must be healthy post-sweep");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = coarse_run(CpuModel::SkyLake);
        let b = coarse_run(CpuModel::SkyLake);
        assert_eq!(a.map, b.map);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn survey_ranks_imul_most_faultable() {
        use plugvolt_cpu::exec::InstrClass;
        let mut machine = Machine::new(CpuModel::CometLake, 23);
        let rows = instruction_survey(&mut machine, FreqMhz(4_000), 1_000_000).unwrap();
        assert_eq!(rows.len(), InstrClass::ALL.len());
        let onset = |c: InstrClass| {
            rows.iter()
                .find(|r| r.class == c)
                .and_then(|r| r.fault_onset_mv)
        };
        let imul = onset(InstrClass::Imul).expect("imul faults in sweep");
        // imul leaves the safe region at the shallowest offset of all
        // classes that fault at all — the paper's stated reason for
        // using it in the EXECUTE thread.
        for class in InstrClass::ALL {
            if let Some(o) = onset(class) {
                assert!(imul >= o, "{class:?} at {o} shallower than imul {imul}");
            }
        }
        // And the shallow ALU class needs substantially deeper offsets
        // (or never faults before crash).
        if let Some(alu) = onset(InstrClass::AluAdd) {
            assert!(imul - alu > 20, "imul {imul} vs alu {alu}");
        }
    }

    #[test]
    fn maximal_safe_state_exists_and_is_negative() {
        let run = coarse_run(CpuModel::CometLake);
        let mss = run.map.maximal_safe_offset_mv(5).expect("characterized");
        assert!(mss < 0, "mss={mss}");
        assert!(mss > -300, "mss={mss}");
    }
}
