//! # plugvolt-des
//!
//! Deterministic discrete-event simulation kernel underpinning the
//! *Plug Your Volt* (DAC 2024) reproduction.
//!
//! The reproduction replaces the paper's physical Intel test benches with a
//! software model; every layer of that model (voltage regulator transients,
//! kernel scheduler slices, MSR polling timers, attack campaigns) runs on
//! the primitives defined here:
//!
//! - [`time`] — picosecond-resolution [`time::SimTime`] / [`time::SimDuration`];
//! - [`rng`] — labelled deterministic random streams;
//! - [`stats`] — online summaries and histograms for reports;
//! - [`trace`] — bounded trace ring used to assert on behaviour sequences;
//! - [`vcd`] — IEEE-1364 Value Change Dump export for waveform viewers.
//!
//! # Examples
//!
//! A jittered polling schedule: seeded streams make every replay of a
//! labelled run land on the same picosecond.
//!
//! ```
//! use plugvolt_des::prelude::*;
//!
//! fn poll_instants(seed: u64) -> Vec<SimTime> {
//!     let period = SimDuration::from_micros(100);
//!     let mut rng = SimRng::from_seed_label(seed, "poll-jitter");
//!     let mut now = SimTime::ZERO;
//!     (0..10)
//!         .map(|_| {
//!             now += period + SimDuration::from_nanos(rng.below(1_000));
//!             now
//!         })
//!         .collect()
//! }
//!
//! let ticks = poll_instants(7);
//! assert_eq!(ticks, poll_instants(7));
//! let last = ticks[9] - SimTime::ZERO;
//! assert!(last >= SimDuration::from_micros(1_000));
//! assert!(last < SimDuration::from_micros(1_010));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod vcd;

/// Convenient glob-import of the commonly used names.
pub mod prelude {
    pub use crate::rng::SimRng;
    pub use crate::stats::{Histogram, Summary};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{TraceBuffer, TraceLevel, TraceRecord};
    pub use crate::vcd::{SignalId, SignalKind, Value, VcdRecorder};
}
