//! Slack tables: the hot-path cache over Eq. 1.
//!
//! Every simulated batch (`run_batch_on_rails`, `run_imul_loop`) derives
//! the same three quantities from `(frequency, voltage)`: the path slack,
//! its [`TimingState`] classification and the per-instruction fault
//! probability. All three go through the alpha-power delay model
//! (`powf`) and the fault-band sigmoid (`exp`) — pure functions of the
//! grid point. The paper's S1 characterization (Algorithms 1–2) and the
//! S2 workload matrices sweep exactly the cartesian product
//! frequency-table × mailbox voltage steps, so the set of `(f, V)` pairs
//! the simulator can ever observe *on a settled rail* is finite and
//! known at boot: each table frequency × each OC-mailbox offset step
//! (1/1.024 mV granularity, see `OcRequest`), on both the core and the
//! cache nominal curves.
//!
//! [`SlackTable`] memoizes that grid *lazily*: a grid point is evaluated
//! on its first hit, once per process per model, and every later query
//! for it is a few loads. Building a table stores only the grid's shape
//! (frequencies and nominal curve values), so a process pays only for
//! the points it actually visits — a Figure 2–4 sweep reads each point
//! once, Table 2 reads two points half a million times, and most
//! artifacts read none. **The table is a cache, never a semantic
//! change**: every stored value is produced by calling the *same*
//! engine methods the analytic path calls, for the exact voltage bits
//! of the query, so a hit returns bit-identical slack/probability
//! values and consumes the RNG stream identically. Off-grid queries
//! (mid-slew rails, unit-varied specs, cross-frequency demand) miss and
//! fall back to the analytic path — correctness never depends on a hit.

use crate::exec::{ExecutionEngine, InstrClass};
use crate::freq::FreqMhz;
use crate::model::{CpuModel, CpuSpec};
use plugvolt_circuit::delay::{Millivolts, Picoseconds};
use plugvolt_circuit::fault::FaultModel;
use plugvolt_circuit::multiplier::MultiplierUnit;
use plugvolt_circuit::timing::TimingState;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Deepest OC-mailbox offset the grid covers, in 1/1.024 mV units
/// (the mailbox encodes offsets as signed 11-bit values in 1/1024 V
/// steps; −512 units ≈ −500 mV, far past every model's crash region).
pub const MIN_OFFSET_UNITS: i16 = -512;

/// Offset steps per `(frequency, plane)` curve: `MIN_OFFSET_UNITS..=0`.
const OFFSET_SPAN: usize = -(MIN_OFFSET_UNITS as isize) as usize + 1;

/// Voltage planes each grid frequency carries (core, cache).
const PLANES: usize = 2;

/// Cached timing quantities for one instruction class (or one operand
/// class of the imul loop) at one grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassEntry {
    /// Eq. 1 slack, bit-identical to `ExecutionEngine::class_slack_ps`.
    pub slack_ps: Picoseconds,
    /// `FaultModel::classify(slack_ps)` precomputed.
    pub state: TimingState,
    /// `FaultModel::fault_probability(slack_ps)` precomputed.
    pub fault_p: f64,
}

/// One `(frequency, voltage)` grid point. Its two halves fill
/// independently, each on the first query that needs it.
///
/// Each half is boxed, so an unfilled slot costs two pointers and two
/// `Once` states (32 bytes) instead of the 208 bytes of both arrays
/// inline. A column allocates all 513 slots on its first hit, yet a
/// sweep fills only one half of the slots its offsets land on: boxing
/// keeps a column at ~16 KB plus one small box per half filled.
#[derive(Debug, Default)]
struct Slot {
    /// Per-[`InstrClass`] entries, in [`InstrClass::ALL`] order.
    classes: OnceLock<Box<[ClassEntry; 5]>>,
    /// Per-operand-class entries of the EXECUTE-thread imul loop, in
    /// [`MultiplierUnit::IMUL_LOOP_CLASSES`] order.
    imul_ops: OnceLock<Box<[ClassEntry; 3]>>,
}

/// Index of `class` into [`SlackTable::classes`] ([`InstrClass::ALL`]
/// order).
#[must_use]
pub fn class_index(class: InstrClass) -> usize {
    match class {
        InstrClass::Imul => 0,
        InstrClass::Aesenc => 1,
        InstrClass::Fma => 2,
        InstrClass::AluAdd => 3,
        InstrClass::Load => 4,
    }
}

/// The lazily filled slack table for one CPU model's base spec.
///
/// Storage is direct-indexed, not hashed: the grid is a perfect
/// cartesian product (table frequency × plane × offset step), so a
/// lookup is a binary search over the (tiny, sorted) frequency list
/// followed by *deriving* the offset-unit index back from the voltage.
/// Each `(frequency, plane)` column of offset slots is allocated on its
/// first hit, and each slot fills only the half the caller needs (the
/// batch classes or the imul operand classes), both through
/// [`OnceLock`] — so the table is shared across threads behind an
/// `Arc`, and a filled slot is read with no lock and no allocation.
///
/// A lookup only hits when the query voltage has exactly the bits of
/// the slot's grid voltage, which guarantees the cached values equal
/// what the analytic path would compute for that voltage, however the
/// rail arrived there. A miss allocates and fills nothing.
#[derive(Debug)]
pub struct SlackTable {
    /// Sorted table frequencies, in MHz.
    freqs: Vec<u32>,
    /// Per-`(frequency, plane)` nominal voltage (the `units == 0`
    /// curve value), indexed `freq_idx * PLANES + plane`. Used to
    /// derive the offset-unit index from a query voltage and to
    /// recompute the slot's grid voltage.
    bases: Vec<f64>,
    /// Per-`(frequency, plane)` offset slots, parallel to `bases`,
    /// allocated on first hit.
    columns: Box<[OnceLock<Box<[Slot]>>]>,
    /// Engine parameters the fills evaluate with.
    mul: MultiplierUnit,
    fault_model: FaultModel,
    t_setup_ps: f64,
    t_eps_ps: f64,
    build_ns: u64,
}

impl SlackTable {
    /// Lays out the grid for `spec` without evaluating any of it.
    ///
    /// The grid is every table frequency × every mailbox offset step in
    /// `[MIN_OFFSET_UNITS, 0]`, applied to both the core and the cache
    /// nominal curves — the exact voltage expressions the regulator
    /// targets in `retarget_rail`. Points are evaluated on first hit.
    #[must_use]
    pub fn build(spec: &CpuSpec) -> Self {
        let start = std::time::Instant::now(); // plugvolt-lint: allow(no-wall-clock)
        let freqs: Vec<u32> = spec.freq_table.iter().map(FreqMhz::mhz).collect();
        debug_assert!(freqs.windows(2).all(|w| w[0] < w[1]));
        let bases: Vec<f64> = spec
            .freq_table
            .iter()
            .flat_map(|f| [spec.nominal_voltage_mv(f), spec.nominal_cache_voltage_mv(f)])
            .collect();
        let columns = bases.iter().map(|_| OnceLock::new()).collect();
        let mul = spec.multiplier();
        let fault_model = spec.fault_model();
        let build_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SlackTable {
            freqs,
            bases,
            columns,
            mul,
            fault_model,
            t_setup_ps: spec.t_setup_ps,
            t_eps_ps: spec.t_eps_ps,
            build_ns,
        }
    }

    /// The engine whose analytic methods fill the slots, so the cached
    /// bits are the analytic bits by construction.
    fn engine(&self) -> ExecutionEngine {
        ExecutionEngine::new(
            self.mul.clone(),
            self.fault_model,
            self.t_setup_ps,
            self.t_eps_ps,
        )
    }

    /// Slack, classification and fault probability of `slack_ps`.
    fn class_entry(&self, slack_ps: Picoseconds) -> ClassEntry {
        ClassEntry {
            slack_ps,
            state: self.fault_model.classify(slack_ps),
            fault_p: self.fault_model.fault_probability(slack_ps),
        }
    }

    /// The slot for `(f, v_mv)`, `None` when off-grid.
    ///
    /// The offset-unit index is derived arithmetically from the query
    /// voltage (`units ≈ (v − nominal) · 1024/1000`, rounded); the
    /// slot's grid voltage is then recomputed from that index and its
    /// bits compared against the query bits. Rounding error in the
    /// derivation can only ever land on the *adjacent* slot, whose grid
    /// voltage then differs — so a wrong index degrades to a miss
    /// (analytic fallback), never a wrong hit. Only a hit allocates the
    /// slot's column.
    #[inline]
    fn slot(&self, f: FreqMhz, v_mv: Millivolts) -> Option<&Slot> {
        let fi = self.freqs.binary_search(&f.mhz()).ok()?;
        for column in fi * PLANES..(fi + 1) * PLANES {
            let base = self.bases[column];
            let units = ((v_mv - base) * 1024.0 / 1000.0).round();
            if !(f64::from(MIN_OFFSET_UNITS)..=0.0).contains(&units) {
                continue;
            }
            #[allow(clippy::cast_possible_truncation)]
            let units = units as i16;
            // Same expression as CpuPackage::retarget_rail: the offset
            // units are an i16 widened to f64, scaled by 1000/1024 mV
            // per unit, added to the nominal curve.
            if (base + f64::from(units) * 1000.0 / 1024.0).to_bits() != v_mv.to_bits() {
                continue;
            }
            let slots = self.columns[column]
                .get_or_init(|| (0..OFFSET_SPAN).map(|_| Slot::default()).collect());
            #[allow(clippy::cast_sign_loss)]
            return Some(&slots[(units - MIN_OFFSET_UNITS) as usize]);
        }
        None
    }

    /// The per-[`InstrClass`] entries at `(f, v_mv)` (index with
    /// [`class_index`]), evaluated on first hit; `None` when off-grid.
    #[inline]
    #[must_use]
    pub fn classes(&self, f: FreqMhz, v_mv: Millivolts) -> Option<&[ClassEntry; 5]> {
        let slot = self.slot(f, v_mv)?;
        Some(slot.classes.get_or_init(|| {
            let engine = self.engine();
            Box::new(InstrClass::ALL.map(|c| self.class_entry(engine.class_slack_ps(c, f, v_mv))))
        }))
    }

    /// The imul-loop operand-class entries at `(f, v_mv)`, in
    /// [`MultiplierUnit::IMUL_LOOP_CLASSES`] order, evaluated on first
    /// hit; `None` when off-grid.
    #[inline]
    #[must_use]
    pub fn imul_ops(&self, f: FreqMhz, v_mv: Millivolts) -> Option<&[ClassEntry; 3]> {
        let slot = self.slot(f, v_mv)?;
        Some(slot.imul_ops.get_or_init(|| {
            let engine = self.engine();
            let budget = engine.budget(f);
            Box::new(MultiplierUnit::IMUL_LOOP_CLASSES.map(|(_, a, b)| {
                self.class_entry(engine.multiplier().slack_ps(a, b, &budget, v_mv))
            }))
        }))
    }

    /// Number of `(frequency, voltage)` grid points the table covers,
    /// filled or not.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len() * OFFSET_SPAN
    }

    /// Whether the grid is empty (never true for a built table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Number of `(frequency, plane)` columns allocated so far, i.e.
    /// that have taken at least one hit.
    #[must_use]
    pub fn allocated_columns(&self) -> usize {
        self.columns.iter().filter(|c| c.get().is_some()).count()
    }

    /// Wall-clock nanoseconds the build took (the grid layout only;
    /// points are evaluated on first hit). Telemetry-only: this is the
    /// single host-dependent value the table carries, and it never
    /// feeds back into simulation results.
    #[must_use]
    pub fn build_ns(&self) -> u64 {
        self.build_ns
    }
}

/// Process-wide kill switch for slack-table attachment (default: on).
///
/// The bench harness flips this off to time the pure analytic path; the
/// equivalence tests prefer the racefree per-machine
/// `CpuPackage::set_slack_table(None)` instead.
static TABLES_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables automatic slack-table attachment at machine boot.
pub fn set_tables_enabled(enabled: bool) {
    TABLES_ENABLED.store(enabled, Ordering::SeqCst);
}

/// Whether machine boots currently attach the shared slack table.
#[must_use]
pub fn tables_enabled() -> bool {
    TABLES_ENABLED.load(Ordering::SeqCst)
}

/// The per-model memoized store, keyed by spec name (mirrors the quick
/// characterization-map store in `plugvolt-bench`).
fn table_store() -> &'static Mutex<BTreeMap<&'static str, Arc<SlackTable>>> {
    static STORE: OnceLock<Mutex<BTreeMap<&'static str, Arc<SlackTable>>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The shared, memoized slack table for `model`'s base spec: built on
/// first request, an `Arc` clone afterwards.
#[must_use]
pub fn shared_table(model: CpuModel) -> Arc<SlackTable> {
    let spec = model.spec();
    let mut store = table_store().lock().expect("slack-table store poisoned");
    Arc::clone(
        store
            .entry(spec.name)
            .or_insert_with(|| Arc::new(SlackTable::build(&spec))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_table_frequency() {
        let spec = CpuModel::SkyLake.spec();
        let table = SlackTable::build(&spec);
        for f in spec.freq_table.iter() {
            let v = spec.nominal_voltage_mv(f);
            assert!(
                table.classes(f, v).is_some(),
                "missing nominal point at {f}"
            );
            let deepest = v + f64::from(MIN_OFFSET_UNITS) * 1000.0 / 1024.0;
            assert!(
                table.imul_ops(f, deepest).is_some(),
                "missing −500 mV at {f}"
            );
            let cache = spec.nominal_cache_voltage_mv(f);
            assert!(
                table.classes(f, cache).is_some(),
                "missing cache point at {f}"
            );
        }
        // 29 frequencies × 513 offsets × 2 planes, every column hit.
        assert_eq!(table.len(), 29 * 513 * 2);
        assert_eq!(table.allocated_columns(), 29 * 2);
        assert!(!table.is_empty());
    }

    #[test]
    fn off_grid_queries_miss() {
        let spec = CpuModel::CometLake.spec();
        let table = SlackTable::build(&spec);
        let f = spec.base_freq;
        // A mid-slew voltage between two grid steps.
        let v = spec.nominal_voltage_mv(f) - 0.123_456_789;
        assert!(table.classes(f, v).is_none());
        // An off-table frequency.
        assert!(table
            .imul_ops(FreqMhz(1_850), spec.nominal_voltage_mv(f))
            .is_none());
        // Non-finite voltages.
        assert!(table.classes(f, f64::NAN).is_none());
        assert!(table.classes(f, f64::INFINITY).is_none());
        assert_eq!(table.allocated_columns(), 0, "a miss allocated a column");
    }

    #[test]
    fn entries_match_the_analytic_path_bit_for_bit() {
        let spec = CpuModel::KabyLakeR.spec();
        let table = SlackTable::build(&spec);
        let engine = ExecutionEngine::new(
            spec.multiplier(),
            spec.fault_model(),
            spec.t_setup_ps,
            spec.t_eps_ps,
        );
        let f = spec.base_freq;
        for units in [-512i16, -300, -150, -1, 0] {
            let v = spec.nominal_voltage_mv(f) + f64::from(units) * 1000.0 / 1024.0;
            let classes = table.classes(f, v).expect("grid point present");
            for class in InstrClass::ALL {
                let cached = classes[class_index(class)];
                let slack = engine.class_slack_ps(class, f, v);
                assert_eq!(cached.slack_ps.to_bits(), slack.to_bits());
                assert_eq!(cached.state, engine.fault_model().classify(slack));
                assert_eq!(
                    cached.fault_p.to_bits(),
                    engine.fault_model().fault_probability(slack).to_bits()
                );
            }
            let ops = table.imul_ops(f, v).expect("grid point present");
            for (i, (_, a, b)) in MultiplierUnit::IMUL_LOOP_CLASSES.iter().enumerate() {
                let slack = engine.multiplier().slack_ps(*a, *b, &engine.budget(f), v);
                assert_eq!(ops[i].slack_ps.to_bits(), slack.to_bits());
            }
        }
    }

    #[test]
    fn an_unfilled_slot_is_two_pointers_wide() {
        // perfbench's `peak_rss_mb` depends on this: a column allocates
        // all 513 slots on its first hit, so inline entries (208 bytes a
        // slot) cost ~107 KB per column where boxed halves cost ~16 KB.
        assert!(std::mem::size_of::<Slot>() <= 32);
    }

    #[test]
    fn shared_table_is_memoized() {
        let a = shared_table(CpuModel::SkyLake);
        let b = shared_table(CpuModel::SkyLake);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.build_ns(), b.build_ns());
    }
}
