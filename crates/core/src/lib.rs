//! # plugvolt
//!
//! Reference implementation of *Plug Your Volt: Protecting Intel
//! Processors against Dynamic Voltage Frequency Scaling based Fault
//! Attacks* (DAC 2024), over the simulated hardware/kernel substrates of
//! the companion crates.
//!
//! The paper's pipeline, end to end:
//!
//! 1. **[`mod@characterize`]** (S1, Algorithms 1–2) — a DVFS thread sweeps
//!    frequency × undervolt-offset pairs while an EXECUTE thread runs a
//!    million-`imul` loop, yielding a [`charmap::CharacterizationMap`] of
//!    safe/unsafe/crash states (the data behind Figures 2–4);
//! 2. **[`poll`]** (S2, Algorithm 3) — a kernel module polls MSRs
//!    0x198/0x150 per core and forces any unsafe state back to safe;
//! 3. **[`maximal`]** (Sec. 5) — the maximal safe state, distilled for
//!    microcode (write-ignore) and hardware-MSR (clamp) deployments;
//! 4. **[`deploy`]** — all defense levels plus the baselines the paper
//!    compares against (no defense, Intel's OCM disable).
//!
//! # Examples
//!
//! Characterize a Comet Lake coarsely, deploy the polling module, and
//! verify an attack write is neutralized:
//!
//! ```
//! use plugvolt::prelude::*;
//! use plugvolt_cpu::prelude::*;
//! use plugvolt_kernel::prelude::*;
//! use plugvolt_msr::prelude::*;
//! use plugvolt_des::time::SimDuration;
//!
//! let mut machine = Machine::new(CpuModel::CometLake, 7);
//! let run = characterize(&mut machine, &SweepConfig::coarse())?;
//! let deployed = deploy(
//!     &mut machine,
//!     &run.map,
//!     Deployment::PollingModule(PollConfig::default()),
//! )?;
//!
//! // Adversary pins the victim core fast (shallow unsafe band), then
//! // undervolts deep into the unsafe region…
//! let mut cpupower = CpuPower::new(&machine);
//! cpupower.frequency_set(&mut machine, CoreId(0), FreqMhz(4_900))?;
//! let dev = MsrDev::open(&machine, CoreId(0))?;
//! let attack = OcRequest::write_offset(-250, Plane::Core).encode();
//! dev.write(&mut machine, Msr::OC_MAILBOX, attack)?;
//! // …and within one polling period the module restores safety.
//! machine.advance(SimDuration::from_micros(250));
//! assert_eq!(machine.cpu().core_offset_mv(), 0);
//! assert!(deployed.poll_stats.unwrap().borrow().restores >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod characterize;
pub mod charmap;
pub mod deploy;
pub mod exposure;
pub mod maximal;
pub mod poll;
pub mod pool;
pub mod state;

pub use characterize::{
    characterize, characterize_sharded, CharacterizationRun, CharacterizeError, SweepConfig,
    SweepConfigError, SweepRecord,
};

/// Convenient glob-import of the commonly used names.
pub mod prelude {
    pub use crate::characterize::{
        characterize, characterize_sharded, CharacterizationRun, CharacterizeError, SweepConfig,
        SweepConfigError, SweepRecord,
    };
    pub use crate::charmap::{CharacterizationMap, FreqBand};
    pub use crate::deploy::{deploy, undeploy, worst_case_turnaround, Deployed, Deployment};
    pub use crate::exposure::{Episode, ExposureAccountant, ExposureBound};
    pub use crate::maximal::MaximalSafeState;
    pub use crate::poll::{PollConfig, PollStats, PollingModule, RestorePolicy, MODULE_NAME};
    pub use crate::state::{StateClass, SystemState};
}
