//! The execution engine: instruction classes and their datapath timing.
//!
//! Different x86 instructions stress different path depths; prior work
//! found `imul` the most faultable (deepest repeatedly-exercised path),
//! which is why the paper's EXECUTE thread uses it. Workloads are
//! described as mixes over these classes; each class scales the
//! multiplier-calibrated path by a depth factor and carries a CPI for
//! time accounting.

use crate::freq::FreqMhz;
use crate::slack::{class_index, SlackTable};
use plugvolt_circuit::delay::{Millivolts, Picoseconds};
use plugvolt_circuit::fault::{sample_binomial, FaultModel};
use plugvolt_circuit::multiplier::{MulExecution, MultiplierUnit};
use plugvolt_circuit::timing::{TimingBudget, TimingState};
use plugvolt_des::rng::SimRng;
use plugvolt_des::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Instruction classes the engine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstrClass {
    /// 64×64 integer multiply — the deepest path, the attack target.
    Imul,
    /// AES round (AES-NI): S-box + MixColumns tree, slightly shallower.
    Aesenc,
    /// Floating-point fused multiply-add.
    Fma,
    /// Simple ALU op (add/sub/logic) — shallow.
    AluAdd,
    /// L1-hit load: address generation + way select.
    Load,
}

impl InstrClass {
    /// All modelled classes.
    pub const ALL: [InstrClass; 5] = [
        InstrClass::Imul,
        InstrClass::Aesenc,
        InstrClass::Fma,
        InstrClass::AluAdd,
        InstrClass::Load,
    ];

    /// Depth of this class's critical path relative to the full-width
    /// multiplier path.
    #[must_use]
    pub fn depth_factor(self) -> f64 {
        match self {
            InstrClass::Imul => 1.0,
            InstrClass::Fma => 0.93,
            InstrClass::Aesenc => 0.82,
            InstrClass::Load => 0.62,
            InstrClass::AluAdd => 0.48,
        }
    }

    /// Average cycles per instruction in a tight loop (throughput CPI).
    #[must_use]
    pub fn cpi(self) -> f64 {
        match self {
            InstrClass::Imul => 1.0,
            InstrClass::Fma => 0.5,
            InstrClass::Aesenc => 1.0,
            InstrClass::Load => 0.5,
            InstrClass::AluAdd => 0.25,
        }
    }
}

/// The supply voltages visible to an instruction: the core-plane rail
/// and the cache-plane rail (Table 1 of the paper documents five planes;
/// these two carry timing-critical logic in this model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rails {
    /// Core-plane voltage, mV.
    pub core_mv: Millivolts,
    /// Cache-plane voltage, mV.
    pub cache_mv: Millivolts,
}

impl Rails {
    /// Both planes at the same voltage (the pre-multi-plane behaviour).
    #[must_use]
    pub fn uniform(v_mv: Millivolts) -> Self {
        Rails {
            core_mv: v_mv,
            cache_mv: v_mv,
        }
    }

    /// The supply that times this instruction class: loads traverse the
    /// cache arrays (cache plane), everything else the core plane.
    #[must_use]
    pub fn for_class(&self, class: InstrClass) -> Millivolts {
        match class {
            InstrClass::Load => self.cache_mv,
            _ => self.core_mv,
        }
    }
}

/// Result of executing a batch of one instruction class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchOutcome {
    /// The batch retired; `faults` instructions produced wrong results.
    Retired {
        /// Count of architecturally incorrect results.
        faults: u64,
    },
    /// The core locked up during the batch.
    Crashed,
}

impl BatchOutcome {
    /// Faults observed, if the batch retired.
    #[must_use]
    pub fn faults(self) -> Option<u64> {
        match self {
            BatchOutcome::Retired { faults } => Some(faults),
            BatchOutcome::Crashed => None,
        }
    }
}

/// The execution engine for one package (shared across cores; the core's
/// frequency and the rail voltage are passed per call).
#[derive(Debug, Clone)]
pub struct ExecutionEngine {
    mul: MultiplierUnit,
    fault_model: FaultModel,
    t_setup_ps: f64,
    t_eps_ps: f64,
    /// Lazily filled slack table for the batch hot path
    /// ([`crate::slack`]); `None` runs everything analytically.
    table: Option<Arc<SlackTable>>,
    /// Batches answered from the table.
    table_hits: Cell<u64>,
    /// Batches that missed the table (or ran with none attached).
    table_fallbacks: Cell<u64>,
    /// Victim `imul` timing at the last rail state `execute_imul` saw;
    /// boxed on first use (see [`ImulMemo`]).
    imul_memo: RefCell<Option<Box<ImulMemo>>>,
}

/// Operand widths an `imul` can exercise:
/// [`MultiplierUnit::significant_bits`] is clamped to `2..=64`.
const IMUL_WIDTHS: usize = 63;

/// The victim `imul`'s timing at one rail state, memoized per operand
/// width.
///
/// Operands reach the timing model only through
/// [`MultiplierUnit::significant_bits`], so at one `(frequency,
/// voltage)` an `imul` has at most [`IMUL_WIDTHS`] distinct `(state,
/// fault probability)` pairs. Each is filled on the first multiply of
/// that width by the same `slack_ps`, `classify` and
/// `fault_probability` calls [`MultiplierUnit::execute`] makes, so it
/// holds the same bits the analytic path would compute.
#[derive(Debug, Clone)]
struct ImulMemo {
    /// `(f.mhz(), v_mv.to_bits())` the entries belong to.
    key: (u32, u64),
    /// `(state, fault probability)` per width, indexed `bits - 2`.
    entries: [Option<(TimingState, f64)>; IMUL_WIDTHS],
}

impl ImulMemo {
    fn empty(key: (u32, u64)) -> Self {
        ImulMemo {
            key,
            entries: [None; IMUL_WIDTHS],
        }
    }
}

impl ExecutionEngine {
    /// Creates an engine over a calibrated multiplier and fault model.
    #[must_use]
    pub fn new(
        mul: MultiplierUnit,
        fault_model: FaultModel,
        t_setup_ps: f64,
        t_eps_ps: f64,
    ) -> Self {
        ExecutionEngine {
            mul,
            fault_model,
            t_setup_ps,
            t_eps_ps,
            table: None,
            table_hits: Cell::new(0),
            table_fallbacks: Cell::new(0),
            imul_memo: RefCell::new(None),
        }
    }

    /// Attaches (or detaches, with `None`) a slack table.
    ///
    /// The table is a pure cache: attached or not, every batch outcome
    /// and RNG draw is bit-identical (see [`crate::slack`]).
    pub fn set_slack_table(&mut self, table: Option<Arc<SlackTable>>) {
        self.table = table;
    }

    /// The attached slack table, if any.
    #[must_use]
    pub fn slack_table(&self) -> Option<&Arc<SlackTable>> {
        self.table.as_ref()
    }

    /// How many batches were answered from the slack table so far.
    #[must_use]
    pub fn slack_table_hits(&self) -> u64 {
        self.table_hits.get()
    }

    /// How many batches fell back to the analytic path (off-grid query
    /// or no table attached).
    #[must_use]
    pub fn slack_table_fallbacks(&self) -> u64 {
        self.table_fallbacks.get()
    }

    /// The timing budget at frequency `f`.
    #[must_use]
    pub fn budget(&self, f: FreqMhz) -> TimingBudget {
        TimingBudget::for_frequency_mhz(f.mhz(), self.t_setup_ps, self.t_eps_ps)
    }

    /// The calibrated multiplier unit.
    #[must_use]
    pub fn multiplier(&self) -> &MultiplierUnit {
        &self.mul
    }

    /// The fault model.
    #[must_use]
    pub fn fault_model(&self) -> &FaultModel {
        &self.fault_model
    }

    /// Critical-path delay of one instruction of `class` at voltage `v`.
    #[must_use]
    pub fn class_path_delay_ps(&self, class: InstrClass, v_mv: Millivolts) -> Picoseconds {
        // The class factor scales the logic depth, not the fixed wire part.
        let full = self.mul.worst_path_delay_ps(v_mv);
        let shallow = self.mul.path_delay_ps(1, 1, v_mv);
        shallow + (full - shallow) * class.depth_factor()
    }

    /// Timing slack for `class` at frequency `f` and voltage `v`.
    #[must_use]
    pub fn class_slack_ps(&self, class: InstrClass, f: FreqMhz, v_mv: Millivolts) -> Picoseconds {
        self.budget(f)
            .slack_ps(self.class_path_delay_ps(class, v_mv))
    }

    /// Executes one `imul` with explicit operands, exactly (used by the
    /// crypto victims, where *which* bits flip matters).
    ///
    /// Returns what [`MultiplierUnit::execute`] returns for the same
    /// budget, voltage and RNG state, bit for bit, but evaluates the
    /// timing model only once per operand width per rail state: a
    /// victim runs thousands of multiplies at one `(f, v_mv)`, and the
    /// operands reach the timing model only through their width. The
    /// memo is keyed on `(f.mhz(), v_mv.to_bits())`, so any rail
    /// state — on the slack-table grid, mid-slew or on a unit-varied
    /// spec — hits from its second multiply of a width on, and a new
    /// state starts the memo over. It is allocated on the first call,
    /// so an engine that never runs a victim carries only an empty slot.
    #[must_use]
    pub fn execute_imul(
        &self,
        a: u64,
        b: u64,
        f: FreqMhz,
        v_mv: Millivolts,
        rng: &mut SimRng,
    ) -> MulExecution {
        let bits = MultiplierUnit::significant_bits(a, b);
        let key = (f.mhz(), v_mv.to_bits());
        let mut slot = self.imul_memo.borrow_mut();
        let memo = slot.get_or_insert_with(|| Box::new(ImulMemo::empty(key)));
        if memo.key != key {
            **memo = ImulMemo::empty(key);
        }
        let (state, fault_p) = *memo.entries[bits as usize - 2].get_or_insert_with(|| {
            let slack = self.mul.slack_ps(a, b, &self.budget(f), v_mv);
            (
                self.fault_model.classify(slack),
                self.fault_model.fault_probability(slack),
            )
        });
        MulExecution::draw(a.wrapping_mul(b), state, fault_p, bits, rng)
    }

    /// Runs the paper's EXECUTE-thread loop: `iters` `imul`s with varying
    /// operands, returning the fault count (or a crash).
    #[must_use]
    pub fn run_imul_loop(
        &self,
        iters: u64,
        f: FreqMhz,
        v_mv: Millivolts,
        rng: &mut SimRng,
    ) -> BatchOutcome {
        // Table fast path: same operand-class walk as
        // `MultiplierUnit::run_imul_loop`, with the per-class slack,
        // classification and fault probability read from the grid. Both
        // paths stop at the first crashing class without drawing for it,
        // so the RNG stream stays identical.
        if let Some(ops) = self.table.as_ref().and_then(|t| t.imul_ops(f, v_mv)) {
            self.table_hits.set(self.table_hits.get() + 1);
            let mut faults = 0u64;
            for (i, (fraction, _, _)) in MultiplierUnit::IMUL_LOOP_CLASSES.iter().enumerate() {
                let n = (iters as f64 * fraction).round() as u64;
                let op = ops[i];
                if op.state == TimingState::Crash {
                    return BatchOutcome::Crashed;
                }
                faults += sample_binomial(n, op.fault_p, rng);
            }
            return BatchOutcome::Retired { faults };
        }
        self.table_fallbacks.set(self.table_fallbacks.get() + 1);
        match self
            .mul
            .run_imul_loop(iters, &self.budget(f), v_mv, &self.fault_model, rng)
        {
            plugvolt_circuit::multiplier::LoopOutcome::Completed { faults } => {
                BatchOutcome::Retired { faults }
            }
            plugvolt_circuit::multiplier::LoopOutcome::Crashed { .. } => BatchOutcome::Crashed,
        }
    }

    /// Runs a batch of `iters` instructions of `class`, sampling faults in
    /// O(faults) time. The class picks its timing rail from `rails`.
    #[must_use]
    pub fn run_batch_on_rails(
        &self,
        class: InstrClass,
        iters: u64,
        f: FreqMhz,
        rails: Rails,
        rng: &mut SimRng,
    ) -> BatchOutcome {
        let v_mv = rails.for_class(class);
        // Table fast path: the cached entry stores this exact voltage's
        // slack, classification and fault probability, so the outcome and
        // the RNG draws match the analytic expressions below bit for bit.
        if let Some(classes) = self.table.as_ref().and_then(|t| t.classes(f, v_mv)) {
            self.table_hits.set(self.table_hits.get() + 1);
            let cached = classes[class_index(class)];
            if cached.state == TimingState::Crash {
                return BatchOutcome::Crashed;
            }
            return BatchOutcome::Retired {
                faults: sample_binomial(iters, cached.fault_p, rng),
            };
        }
        self.table_fallbacks.set(self.table_fallbacks.get() + 1);
        let slack = self.class_slack_ps(class, f, v_mv);
        if self.fault_model.classify(slack) == TimingState::Crash {
            return BatchOutcome::Crashed;
        }
        BatchOutcome::Retired {
            faults: self.fault_model.sample_fault_count(slack, iters, rng),
        }
    }

    /// Runs a batch with both planes at `v_mv` (see
    /// [`run_batch_on_rails`](Self::run_batch_on_rails)).
    #[must_use]
    pub fn run_batch(
        &self,
        class: InstrClass,
        iters: u64,
        f: FreqMhz,
        v_mv: Millivolts,
        rng: &mut SimRng,
    ) -> BatchOutcome {
        self.run_batch_on_rails(class, iters, f, Rails::uniform(v_mv), rng)
    }

    /// Wall-clock duration of a batch of `iters` instructions of `class`
    /// at frequency `f`.
    #[must_use]
    pub fn batch_duration(&self, class: InstrClass, iters: u64, f: FreqMhz) -> SimDuration {
        let cycles = (iters as f64 * class.cpi()).ceil() as u64;
        SimDuration::from_cycles(cycles, f.mhz())
    }

    /// Cost of one `rdmsr`/`wrmsr` microcode flow at frequency `f`
    /// (≈ 250 core cycles on real parts).
    #[must_use]
    pub fn msr_access_duration(&self, f: FreqMhz) -> SimDuration {
        SimDuration::from_cycles(250, f.mhz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CpuModel;

    fn engine() -> ExecutionEngine {
        let spec = CpuModel::CometLake.spec();
        ExecutionEngine::new(
            spec.multiplier(),
            spec.fault_model(),
            spec.t_setup_ps,
            spec.t_eps_ps,
        )
    }

    fn rng() -> SimRng {
        SimRng::from_seed_label(3, "exec-tests")
    }

    #[test]
    fn class_depths_are_ordered() {
        let e = engine();
        let v = 900.0;
        let d = |c| e.class_path_delay_ps(c, v);
        assert!(d(InstrClass::Imul) > d(InstrClass::Fma));
        assert!(d(InstrClass::Fma) > d(InstrClass::Aesenc));
        assert!(d(InstrClass::Aesenc) > d(InstrClass::Load));
        assert!(d(InstrClass::Load) > d(InstrClass::AluAdd));
    }

    #[test]
    fn imul_faults_before_alu() {
        // Scanning down in voltage, imul must leave the safe region first:
        // the paper's reason for choosing it in the EXECUTE thread.
        let e = engine();
        let f = FreqMhz(3_000);
        let onset = |class: InstrClass| {
            for v in (400..=1_200).rev() {
                if e.fault_model()
                    .classify(e.class_slack_ps(class, f, f64::from(v)))
                    != TimingState::Safe
                {
                    return v;
                }
            }
            0
        };
        assert!(onset(InstrClass::Imul) > onset(InstrClass::Aesenc));
        assert!(onset(InstrClass::Aesenc) > onset(InstrClass::AluAdd));
    }

    #[test]
    fn nominal_batches_never_fault() {
        let e = engine();
        let spec = CpuModel::CometLake.spec();
        let mut r = rng();
        for f in [FreqMhz(400), FreqMhz(1_800), FreqMhz(4_900)] {
            let v = spec.nominal_voltage_mv(f);
            for class in InstrClass::ALL {
                let out = e.run_batch(class, 1_000_000, f, v, &mut r);
                assert_eq!(out, BatchOutcome::Retired { faults: 0 }, "{class:?} at {f}");
            }
        }
    }

    #[test]
    fn batch_durations_scale_with_cpi_and_freq() {
        let e = engine();
        let fast = e.batch_duration(InstrClass::AluAdd, 1_000_000, FreqMhz(2_000));
        let slow = e.batch_duration(InstrClass::Imul, 1_000_000, FreqMhz(2_000));
        assert!(slow > fast);
        let half_clock = e.batch_duration(InstrClass::Imul, 1_000_000, FreqMhz(1_000));
        assert_eq!(half_clock.as_picos(), slow.as_picos() * 2);
    }

    #[test]
    fn execute_imul_correct_at_nominal() {
        let e = engine();
        let spec = CpuModel::CometLake.spec();
        let f = spec.base_freq;
        let v = spec.nominal_voltage_mv(f);
        let mut r = rng();
        let ex = e.execute_imul(0xDEAD_BEEF_CAFE_F00D, 0x1234_5678_9ABC_DEF0, f, v, &mut r);
        assert_eq!(
            ex.value,
            0xDEAD_BEEF_CAFE_F00Du64.wrapping_mul(0x1234_5678_9ABC_DEF0)
        );
    }

    #[test]
    fn memoized_imul_matches_the_analytic_multiplier_bit_for_bit() {
        let e = engine();
        let spec = CpuModel::CometLake.spec();
        let (f_a, f_b) = (FreqMhz(3_000), FreqMhz(2_000));
        let full_width = |f: FreqMhz, v: f64| {
            e.fault_model()
                .classify(e.multiplier().slack_ps(u64::MAX, u64::MAX, &e.budget(f), v))
        };
        // A few millivolts into the fault band of the full-width path.
        let mut unsafe_mv = spec.nominal_voltage_mv(f_a);
        while full_width(f_a, unsafe_mv) == TimingState::Safe {
            unsafe_mv -= 1.0;
        }
        unsafe_mv -= 3.0;
        assert_eq!(full_width(f_a, unsafe_mv), TimingState::Unsafe);
        let safe_mv = spec.nominal_voltage_mv(f_a);
        let crash_mv = 450.0;
        assert_eq!(full_width(f_b, crash_mv), TimingState::Crash);
        // Rail states in the order A, A, B (same frequency, safe
        // voltage), A, then A's voltage at a new frequency, then a crash
        // at that frequency: hits, resets and refills of the memo, and a
        // key that dropped either half would reuse stale entries.
        let states = [
            (f_a, unsafe_mv),
            (f_a, unsafe_mv),
            (f_a, safe_mv),
            (f_a, unsafe_mv),
            (f_b, unsafe_mv),
            (f_b, crash_mv),
        ];
        // Every significant-bit count 2..=64: zero and one, then one
        // operand of each width against 1, then full-width pairs.
        let mut operands = vec![(0u64, 0u64), (0, 1), (1, 1), (1, 0)];
        operands.extend((1..=64).map(|w| (u64::MAX >> (64 - w), 1)));
        operands.extend((0..64).map(|i| (u64::MAX - i, u64::MAX - 7 * i)));
        let widths: std::collections::BTreeSet<u32> = operands
            .iter()
            .map(|&(a, b)| MultiplierUnit::significant_bits(a, b))
            .collect();
        assert_eq!(widths, (2..=64).collect());
        let mut memo_rng = rng();
        let mut analytic_rng = rng();
        let mut faults = 0;
        for (f, v) in states {
            for &(a, b) in &operands {
                let memo = e.execute_imul(a, b, f, v, &mut memo_rng);
                let analytic = e.multiplier().execute(
                    a,
                    b,
                    &e.budget(f),
                    v,
                    e.fault_model(),
                    &mut analytic_rng,
                );
                assert_eq!(memo.value, analytic.value, "{a:#x}*{b:#x} at {f} {v} mV");
                assert_eq!(
                    memo.outcome, analytic.outcome,
                    "{a:#x}*{b:#x} at {f} {v} mV"
                );
                faults += usize::from(memo.outcome.is_faulted());
            }
        }
        assert!(faults > 0, "the unsafe state never faulted");
        assert_eq!(memo_rng.next_u64(), analytic_rng.next_u64());
    }

    #[test]
    fn deep_undervolt_crashes_batch() {
        let e = engine();
        let out = e.run_batch(InstrClass::Imul, 1_000, FreqMhz(4_900), 450.0, &mut rng());
        assert_eq!(out, BatchOutcome::Crashed);
        assert_eq!(out.faults(), None);
    }

    #[test]
    fn msr_access_cost_is_hundreds_of_cycles() {
        let e = engine();
        let d = e.msr_access_duration(FreqMhz(2_500));
        assert_eq!(d.as_picos(), 250 * 400); // 250 cycles at 400 ps each
    }
}
