//! # plugvolt-cpu
//!
//! Simulated Intel-style CPU packages for the *Plug Your Volt* (DAC 2024)
//! reproduction: the three generations the paper evaluates (Sky Lake,
//! Kaby Lake R, Comet Lake), each with its frequency table, V/F curve,
//! slew-limited voltage regulator, overclocking mailbox, microcode
//! sequencer and an execution engine that faults according to the Eq. 1
//! physics of `plugvolt-circuit`.
//!
//! - [`freq`] — frequencies and the vendor frequency table;
//! - [`model`] — the per-generation [`model::CpuSpec`]s;
//! - [`core`] — per-core P/C-state bookkeeping;
//! - [`vr`] — the voltage regulator (settle delay + slew);
//! - [`exec`] — instruction classes and fault-aware batch execution;
//! - [`slack`] — lazily filled per-(f, V) slack tables for the hot path;
//! - [`microcode`] — sequencer patches (Sec. 5.1 deployment);
//! - [`package`] — [`package::CpuPackage`], the assembled part.
//!
//! # Examples
//!
//! Undervolt a Comet Lake through MSR 0x150 and watch the rail:
//!
//! ```
//! use plugvolt_cpu::prelude::*;
//! use plugvolt_des::time::{SimDuration, SimTime};
//! use plugvolt_msr::prelude::*;
//!
//! let mut cpu = CpuPackage::new(CpuModel::CometLake, 7);
//! let t0 = SimTime::ZERO;
//! let req = OcRequest::write_offset(-125, Plane::Core).encode();
//! cpu.wrmsr(t0, CoreId(0), Msr::OC_MAILBOX, req)?;
//! let later = cpu.rail_settles_at() + SimDuration::from_micros(1);
//! let nominal = cpu.spec().nominal_voltage_mv(cpu.spec().base_freq);
//! assert!(cpu.core_voltage_mv(later) < nominal - 120.0);
//! # Ok::<(), plugvolt_cpu::package::PackageError>(())
//! ```

#![warn(missing_docs)]

pub mod core;
pub mod energy;
pub mod exec;
pub mod freq;
pub mod microcode;
pub mod model;
pub mod package;
pub mod slack;
pub mod ucode_blob;
pub mod vr;

/// Convenient glob-import of the commonly used names.
pub mod prelude {
    pub use crate::core::{Core, CoreId, PowerState};
    pub use crate::energy::{EnergyMeter, EnergyModel};
    pub use crate::exec::{BatchOutcome, ExecutionEngine, InstrClass};
    pub use crate::freq::{FreqMhz, FreqTable};
    pub use crate::microcode::{MicrocodeUpdate, PatchKind, SequencerHook};
    pub use crate::model::{CpuModel, CpuSpec};
    pub use crate::package::{CpuPackage, PackageError};
    pub use crate::slack::SlackTable;
    pub use crate::ucode_blob::{cpuid_signature, BlobError, UpdateBlob};
    pub use crate::vr::VoltageRegulator;
}
