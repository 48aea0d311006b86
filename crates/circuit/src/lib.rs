//! # plugvolt-circuit
//!
//! Sequential-circuit timing and undervolting fault model for the
//! *Plug Your Volt* (DAC 2024) reproduction — the physics layer that the
//! simulated CPUs of `plugvolt-cpu` fault through.
//!
//! The paper's Eq. 1 governs everything here:
//!
//! ```text
//! T_src + T_prop ≤ T_clk − T_setup − T_ε
//! ```
//!
//! - [`delay`] — how undervolting stretches `T_src`/`T_prop`
//!   (alpha-power-law gate delays);
//! - [`timing`] — the budget side (`T_clk`, `T_setup`, `T_ε`), slack and
//!   the safe/unsafe/crash classification;
//! - [`multiplier`] — the `imul` datapath model used by the paper's
//!   EXECUTE thread, with operand-dependent depth;
//! - [`fault`] — the stochastic fault band and Plundervolt-style bit-flip
//!   sampling.
//!
//! # Examples
//!
//! Where does a 3 GHz multiplier start faulting as we undervolt?
//!
//! ```
//! use plugvolt_circuit::multiplier::MultiplierUnit;
//! use plugvolt_circuit::timing::{TimingBudget, TimingState};
//! use plugvolt_circuit::fault::FaultModel;
//!
//! let mul = MultiplierUnit::default();
//! let budget = TimingBudget::for_frequency_mhz(3_000, 35.0, 15.0);
//! let fm = FaultModel::default();
//! let mut onset_mv = None;
//! for v in (600..=1_000).rev() {
//!     let slack = mul.slack_ps(u64::MAX, u64::MAX, &budget, f64::from(v));
//!     if fm.classify(slack) != TimingState::Safe {
//!         onset_mv = Some(v);
//!         break;
//!     }
//! }
//! assert!(onset_mv.is_some(), "undervolting eventually violates Eq. 1");
//! ```

#![warn(missing_docs)]

pub mod delay;
pub mod fault;
pub mod multiplier;
pub mod timing;

/// Convenient glob-import of the commonly used names.
pub mod prelude {
    pub use crate::delay::AlphaPowerModel;
    pub use crate::fault::{FaultModel, FaultOutcome};
    pub use crate::multiplier::{LoopOutcome, MulExecution, MultiplierUnit};
    pub use crate::timing::{TimingBudget, TimingState};
}
