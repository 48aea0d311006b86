//! Randomized attack-campaign schedules for the differential soak
//! fuzzer (`plugvolt-cli soak`).
//!
//! A [`CampaignSchedule`] is a time-sorted list of adversary actions —
//! OC-mailbox offset writes per plane, `cpupower` frequency moves, and
//! victim computation bursts — drawn from a labelled [`SimRng`] stream
//! so the same seed always yields the same campaign. Each published
//! attack family shapes the distribution differently (Plundervolt
//! ramps, VoltJockey pulses, CLKSCREW frequency escalation, …), which
//! is what lets the soak engine explore adversarially-timed parameter
//! edges the fixed experiment scenarios never hit.
//!
//! The mutation hooks ([`CampaignSchedule::without_event`],
//! [`CampaignSchedule::with_halved_ramps`],
//! [`CampaignSchedule::with_widened_intervals`]) are the shrink moves
//! the soak engine's delta-debugger composes into minimal reproducers.
//!
//! Schedules also arrive from outside the process, as corpus
//! reproducers; [`CampaignSchedule::validate`] bounds every field a
//! campaign run depends on, so a hand-edited or corrupted case is
//! rejected instead of hanging or panicking the run.

use plugvolt_cpu::exec::InstrClass;
use plugvolt_cpu::model::CpuSpec;
use plugvolt_des::rng::SimRng;
use plugvolt_msr::oc_mailbox::{OcRequest, Plane};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The attack families the soak fuzzer draws campaigns from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackFamily {
    /// Plundervolt-style stepped core-plane undervolt ramp.
    Plundervolt,
    /// V0LTpwn-style shallow ramp against an FMA/SIMD victim.
    V0ltpwn,
    /// VoltJockey-style short deep voltage pulses.
    VoltJockey,
    /// CLKSCREW-style frequency escalation against a standing offset.
    Clkscrew,
    /// Minefield-style dual-plane campaign (core + cache rails).
    Minefield,
}

impl AttackFamily {
    /// Every family, in schedule-generation order.
    pub const ALL: [AttackFamily; 5] = [
        AttackFamily::Plundervolt,
        AttackFamily::V0ltpwn,
        AttackFamily::VoltJockey,
        AttackFamily::Clkscrew,
        AttackFamily::Minefield,
    ];

    /// Stable lowercase label (corpus filenames, reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AttackFamily::Plundervolt => "plundervolt",
            AttackFamily::V0ltpwn => "v0ltpwn",
            AttackFamily::VoltJockey => "voltjockey",
            AttackFamily::Clkscrew => "clkscrew",
            AttackFamily::Minefield => "minefield",
        }
    }
}

impl fmt::Display for AttackFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Voltage plane a schedule event targets (serializable subset of
/// [`Plane`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlaneSel {
    /// Plane 0: the core rail.
    Core,
    /// Plane 2: the cache/ring rail.
    Cache,
}

impl PlaneSel {
    /// The mailbox plane this selects.
    #[must_use]
    pub fn plane(self) -> Plane {
        match self {
            PlaneSel::Core => Plane::Core,
            PlaneSel::Cache => Plane::Cache,
        }
    }
}

/// Victim workload class a schedule burst runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VictimClass {
    /// Multiplier-bound loop (the paper's fault-model workhorse).
    Imul,
    /// AES rounds (Plundervolt's DFA victim).
    Aes,
    /// FMA/SIMD (V0LTpwn's victim).
    Fma,
    /// Cache-plane-sensitive loads.
    Load,
}

impl VictimClass {
    /// The execution-engine instruction class this victim exercises.
    #[must_use]
    pub fn instr_class(self) -> InstrClass {
        match self {
            VictimClass::Imul => InstrClass::Imul,
            VictimClass::Aes => InstrClass::Aesenc,
            VictimClass::Fma => InstrClass::Fma,
            VictimClass::Load => InstrClass::Load,
        }
    }
}

/// One adversary action in a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleAction {
    /// Write a voltage offset through MSR 0x150.
    OffsetWrite {
        /// Target plane.
        plane: PlaneSel,
        /// Requested offset, mV (≤ 0 in generated campaigns).
        offset_mv: i32,
    },
    /// Pin the victim core's frequency (`cpupower frequency-set`).
    SetFrequency {
        /// Target frequency, MHz (quantized to the model's table).
        mhz: u32,
    },
    /// Run a burst of victim computation on the victim core.
    VictimBurst {
        /// Workload class.
        class: VictimClass,
        /// Operations in the burst.
        ops: u64,
    },
}

/// One timestamped schedule entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleEvent {
    /// Campaign-relative instant, µs.
    pub at_us: u64,
    /// What the adversary does.
    pub action: ScheduleAction,
}

/// A complete randomized campaign: the fuzz input the soak engine runs
/// differentially across deployment levels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignSchedule {
    /// Family that shaped the distribution.
    pub family: AttackFamily,
    /// Polling period the `polling-module` deployment uses, µs.
    pub poll_period_us: u64,
    /// Time-sorted adversary actions.
    pub events: Vec<ScheduleEvent>,
}

/// Polling periods campaigns draw from, µs (subset of the interval
/// sweep's range; ≥ 50 µs so timer work never dominates).
const POLL_PERIODS_US: [u64; 5] = [50, 100, 200, 400, 800];

/// Latest campaign-relative instant a valid schedule may use, µs — for
/// event times and the polling period alike. One simulated second: well
/// above the ~15 ms spans [`CampaignSchedule::generate`] emits, and
/// small enough that a campaign stays a bounded amount of simulation.
pub const MAX_SCHEDULE_HORIZON_US: u64 = 1_000_000;

/// Largest victim burst a valid schedule may request, operations —
/// 250× the largest burst [`CampaignSchedule::generate`] emits. Fault
/// sampling is O(faults), so an unbounded burst inside the fault band
/// is an unbounded amount of work.
pub const MAX_BURST_OPS: u64 = 10_000_000;

/// Why a [`CampaignSchedule`] cannot be run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The polling period is 0 or past [`MAX_SCHEDULE_HORIZON_US`].
    PollPeriod {
        /// The rejected period, µs.
        poll_period_us: u64,
    },
    /// An event lies past [`MAX_SCHEDULE_HORIZON_US`].
    EventPastHorizon {
        /// Index of the event in the schedule.
        index: usize,
        /// The rejected instant, µs.
        at_us: u64,
    },
    /// An offset write the OC mailbox cannot encode.
    OffsetOutOfRange {
        /// Index of the event in the schedule.
        index: usize,
        /// The rejected offset, mV.
        offset_mv: i32,
    },
    /// A victim burst larger than [`MAX_BURST_OPS`].
    BurstTooLarge {
        /// Index of the event in the schedule.
        index: usize,
        /// The rejected operation count.
        ops: u64,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScheduleError::PollPeriod { poll_period_us } => write!(
                f,
                "poll period {poll_period_us} µs outside 1..={MAX_SCHEDULE_HORIZON_US} µs"
            ),
            ScheduleError::EventPastHorizon { index, at_us } => write!(
                f,
                "event {index} at {at_us} µs is past the {MAX_SCHEDULE_HORIZON_US} µs horizon"
            ),
            ScheduleError::OffsetOutOfRange { index, offset_mv } => write!(
                f,
                "event {index} writes offset {offset_mv} mV outside {}..={} mV",
                OcRequest::MIN_OFFSET_MV,
                OcRequest::MAX_OFFSET_MV
            ),
            ScheduleError::BurstTooLarge { index, ops } => write!(
                f,
                "event {index} bursts {ops} ops (more than {MAX_BURST_OPS})"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl CampaignSchedule {
    /// Generates a campaign for `family` from the rng stream.
    ///
    /// Every draw comes from `rng` in a fixed order, so a given
    /// `(family, seed)` pair always yields the same schedule no matter
    /// where or when it is generated.
    #[must_use]
    pub fn generate(family: AttackFamily, spec: &CpuSpec, rng: &mut SimRng) -> CampaignSchedule {
        let poll_period_us = POLL_PERIODS_US[rng.below(POLL_PERIODS_US.len() as u64) as usize];
        let mut events = Vec::new();
        let mut t_us: u64 = 200 + rng.below(400);
        let table = &spec.freq_table;
        let fast = table.max().mhz();
        let base = table.min().mhz();
        // Quantized pick from the upper half of the frequency table,
        // where the unsafe region is widest.
        let pick_fast = |rng: &mut SimRng| {
            let lo = i64::from(base + (fast - base) / 2);
            let f = rng.in_range(lo, i64::from(fast)) as u32;
            table.quantize(plugvolt_cpu::freq::FreqMhz(f)).mhz()
        };
        let gap = |rng: &mut SimRng| 200 + rng.below(1_300);
        match family {
            AttackFamily::Plundervolt | AttackFamily::V0ltpwn => {
                let (victim, start, step_lo) = if family == AttackFamily::Plundervolt {
                    (
                        if rng.chance(0.5) {
                            VictimClass::Imul
                        } else {
                            VictimClass::Aes
                        },
                        -(80 + rng.in_range(0, 60) as i32),
                        10,
                    )
                } else {
                    (VictimClass::Fma, -(60 + rng.in_range(0, 50) as i32), 8)
                };
                events.push(ScheduleEvent {
                    at_us: t_us,
                    action: ScheduleAction::SetFrequency {
                        mhz: pick_fast(rng),
                    },
                });
                let steps = 3 + rng.below(5);
                let mut offset = start;
                for _ in 0..steps {
                    t_us += gap(rng);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::OffsetWrite {
                            plane: PlaneSel::Core,
                            offset_mv: offset,
                        },
                    });
                    t_us += gap(rng);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::VictimBurst {
                            class: victim,
                            ops: 5_000 + rng.below(35_000),
                        },
                    });
                    offset -= step_lo + rng.in_range(0, 20) as i32;
                }
            }
            AttackFamily::VoltJockey => {
                events.push(ScheduleEvent {
                    at_us: t_us,
                    action: ScheduleAction::SetFrequency {
                        mhz: pick_fast(rng),
                    },
                });
                let pulses = 2 + rng.below(4);
                for _ in 0..pulses {
                    t_us += gap(rng);
                    let depth = -(180 + rng.in_range(0, 80) as i32);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::OffsetWrite {
                            plane: PlaneSel::Core,
                            offset_mv: depth,
                        },
                    });
                    let width = 300 + rng.below(700);
                    events.push(ScheduleEvent {
                        at_us: t_us + width / 2,
                        action: ScheduleAction::VictimBurst {
                            class: VictimClass::Imul,
                            ops: 5_000 + rng.below(25_000),
                        },
                    });
                    t_us += width;
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::OffsetWrite {
                            plane: PlaneSel::Core,
                            offset_mv: -(rng.in_range(0, 40) as i32),
                        },
                    });
                }
            }
            AttackFamily::Clkscrew => {
                // A standing "benign at base frequency" offset, then
                // frequency-side escalation with no further 0x150 write.
                events.push(ScheduleEvent {
                    at_us: t_us,
                    action: ScheduleAction::OffsetWrite {
                        plane: PlaneSel::Core,
                        offset_mv: -(120 + rng.in_range(0, 50) as i32),
                    },
                });
                let steps = 2 + rng.below(4);
                let mut mhz = base + (fast - base) / 2;
                for _ in 0..steps {
                    t_us += gap(rng);
                    mhz = table
                        .quantize(plugvolt_cpu::freq::FreqMhz(
                            mhz + (fast - mhz) / 2 + rng.below(200) as u32,
                        ))
                        .mhz()
                        .min(fast);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::SetFrequency { mhz },
                    });
                    t_us += gap(rng);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::VictimBurst {
                            class: VictimClass::Imul,
                            ops: 10_000 + rng.below(30_000),
                        },
                    });
                }
            }
            AttackFamily::Minefield => {
                events.push(ScheduleEvent {
                    at_us: t_us,
                    action: ScheduleAction::SetFrequency {
                        mhz: pick_fast(rng),
                    },
                });
                let rounds = 2 + rng.below(3);
                for _ in 0..rounds {
                    t_us += gap(rng);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::OffsetWrite {
                            plane: PlaneSel::Core,
                            offset_mv: -(100 + rng.in_range(0, 80) as i32),
                        },
                    });
                    t_us += gap(rng);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::OffsetWrite {
                            plane: PlaneSel::Cache,
                            offset_mv: -(100 + rng.in_range(0, 100) as i32),
                        },
                    });
                    t_us += gap(rng);
                    events.push(ScheduleEvent {
                        at_us: t_us,
                        action: ScheduleAction::VictimBurst {
                            class: if rng.chance(0.5) {
                                VictimClass::Load
                            } else {
                                VictimClass::Imul
                            },
                            ops: 5_000 + rng.below(25_000),
                        },
                    });
                }
            }
        }
        CampaignSchedule {
            family,
            poll_period_us,
            events,
        }
        .canonicalized()
    }

    /// Checks that the schedule can be run in bounded time without a
    /// panic: a polling period in `1..=`[`MAX_SCHEDULE_HORIZON_US`],
    /// every event at or before the horizon, every offset encodable by
    /// the OC mailbox, and every burst at most [`MAX_BURST_OPS`].
    /// Every schedule [`generate`](Self::generate) emits is valid.
    ///
    /// # Errors
    ///
    /// The first field that fails, in schedule order.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        if !(1..=MAX_SCHEDULE_HORIZON_US).contains(&self.poll_period_us) {
            return Err(ScheduleError::PollPeriod {
                poll_period_us: self.poll_period_us,
            });
        }
        for (index, ev) in self.events.iter().enumerate() {
            if ev.at_us > MAX_SCHEDULE_HORIZON_US {
                return Err(ScheduleError::EventPastHorizon {
                    index,
                    at_us: ev.at_us,
                });
            }
            match ev.action {
                ScheduleAction::OffsetWrite { offset_mv, .. }
                    if !(OcRequest::MIN_OFFSET_MV..=OcRequest::MAX_OFFSET_MV)
                        .contains(&offset_mv) =>
                {
                    return Err(ScheduleError::OffsetOutOfRange { index, offset_mv });
                }
                ScheduleAction::VictimBurst { ops, .. } if ops > MAX_BURST_OPS => {
                    return Err(ScheduleError::BurstTooLarge { index, ops });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Number of schedule events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total campaign span, µs (last event time).
    #[must_use]
    pub fn span_us(&self) -> u64 {
        self.events.last().map_or(0, |e| e.at_us)
    }

    /// Stable sort by event time (generation can interleave planes).
    #[must_use]
    pub fn canonicalized(mut self) -> CampaignSchedule {
        self.events.sort_by_key(|e| e.at_us);
        self
    }

    /// Shrink move: the schedule with event `idx` removed.
    #[must_use]
    pub fn without_event(&self, idx: usize) -> CampaignSchedule {
        let mut s = self.clone();
        if idx < s.events.len() {
            s.events.remove(idx);
        }
        s
    }

    /// Shrink move: the schedule keeping only events whose index is
    /// outside `lo..hi` (one delta-debugging chunk deletion).
    #[must_use]
    pub fn without_range(&self, lo: usize, hi: usize) -> CampaignSchedule {
        let mut s = self.clone();
        s.events = self
            .events
            .iter()
            .enumerate()
            .filter(|(i, _)| *i < lo || *i >= hi)
            .map(|(_, e)| *e)
            .collect();
        s
    }

    /// Shrink move: every offset halved toward 0 and every frequency
    /// moved halfway back toward the table minimum.
    #[must_use]
    pub fn with_halved_ramps(&self, base_mhz: u32) -> CampaignSchedule {
        let mut s = self.clone();
        for ev in &mut s.events {
            match &mut ev.action {
                ScheduleAction::OffsetWrite { offset_mv, .. } => *offset_mv /= 2,
                ScheduleAction::SetFrequency { mhz } => {
                    *mhz = base_mhz + (*mhz - base_mhz.min(*mhz)) / 2;
                }
                ScheduleAction::VictimBurst { ops, .. } => *ops = (*ops / 2).max(1),
            }
        }
        s
    }

    /// Shrink move: event times rounded up to a coarse `grid_us` grid
    /// (monotonicity preserved), simplifying timing in reproducers.
    #[must_use]
    pub fn with_widened_intervals(&self, grid_us: u64) -> CampaignSchedule {
        let grid = grid_us.max(1);
        let mut s = self.clone();
        let mut floor = 0u64;
        for ev in &mut s.events {
            let rounded = ev.at_us.div_ceil(grid) * grid;
            ev.at_us = rounded.max(floor);
            floor = ev.at_us;
        }
        s
    }
}

impl fmt::Display for CampaignSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} campaign, {} events over {} µs, poll {} µs",
            self.family,
            self.events.len(),
            self.span_us(),
            self.poll_period_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plugvolt_cpu::model::CpuModel;

    fn rng(label: &str) -> SimRng {
        SimRng::from_seed_label(0x50_4c_55_47, label)
    }

    #[test]
    fn generated_schedules_validate() {
        for model in [CpuModel::CometLake, CpuModel::SkyLake] {
            let spec = model.spec();
            for seed in 0..500u64 {
                for family in AttackFamily::ALL {
                    let mut rng = SimRng::from_seed_label(seed, "validate");
                    let s = CampaignSchedule::generate(family, &spec, &mut rng);
                    assert_eq!(s.validate(), Ok(()), "{model} {family} seed {seed}: {s}");
                    // Far below the horizon, so the bound never bites a
                    // generated campaign.
                    assert!(s.span_us() < MAX_SCHEDULE_HORIZON_US / 10, "{s}");
                }
            }
        }
    }

    #[test]
    fn validate_rejects_each_out_of_range_field() {
        let spec = CpuModel::CometLake.spec();
        let good = CampaignSchedule::generate(AttackFamily::Plundervolt, &spec, &mut rng("v"));
        assert_eq!(good.validate(), Ok(()));

        let mut s = good.clone();
        s.poll_period_us = 0;
        assert_eq!(
            s.validate(),
            Err(ScheduleError::PollPeriod { poll_period_us: 0 })
        );

        let mut s = good.clone();
        s.events[0].at_us = u64::MAX;
        assert_eq!(
            s.validate(),
            Err(ScheduleError::EventPastHorizon {
                index: 0,
                at_us: u64::MAX
            })
        );
        s.events[0].at_us = MAX_SCHEDULE_HORIZON_US;
        assert_eq!(s.validate(), Ok(()));

        for offset_mv in [
            i32::MIN,
            OcRequest::MIN_OFFSET_MV - 1,
            OcRequest::MAX_OFFSET_MV + 1,
        ] {
            let mut s = good.clone();
            s.events[0].action = ScheduleAction::OffsetWrite {
                plane: PlaneSel::Core,
                offset_mv,
            };
            assert_eq!(
                s.validate(),
                Err(ScheduleError::OffsetOutOfRange {
                    index: 0,
                    offset_mv
                })
            );
        }

        let mut s = good;
        s.events[0].action = ScheduleAction::VictimBurst {
            class: VictimClass::Imul,
            ops: MAX_BURST_OPS + 1,
        };
        assert!(matches!(
            s.validate(),
            Err(ScheduleError::BurstTooLarge { index: 0, .. })
        ));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = CpuModel::CometLake.spec();
        for family in AttackFamily::ALL {
            let a = CampaignSchedule::generate(family, &spec, &mut rng("gen"));
            let b = CampaignSchedule::generate(family, &spec, &mut rng("gen"));
            assert_eq!(a, b, "{family}");
            assert!(!a.is_empty(), "{family}");
            assert!(
                a.events.windows(2).all(|w| w[0].at_us <= w[1].at_us),
                "{family}: events must be time-sorted"
            );
        }
    }

    #[test]
    fn families_shape_distinct_campaigns() {
        let spec = CpuModel::CometLake.spec();
        let pv = CampaignSchedule::generate(AttackFamily::Plundervolt, &spec, &mut rng("x"));
        let ck = CampaignSchedule::generate(AttackFamily::Clkscrew, &spec, &mut rng("x"));
        // CLKSCREW never issues a second 0x150 write after its standing
        // offset; Plundervolt ramps several.
        let writes = |s: &CampaignSchedule| {
            s.events
                .iter()
                .filter(|e| matches!(e.action, ScheduleAction::OffsetWrite { .. }))
                .count()
        };
        assert!(writes(&pv) >= 3);
        assert_eq!(writes(&ck), 1);
    }

    #[test]
    fn shrink_moves_reduce_or_simplify() {
        let spec = CpuModel::SkyLake.spec();
        let s = CampaignSchedule::generate(AttackFamily::VoltJockey, &spec, &mut rng("s"));
        assert_eq!(s.without_event(0).len(), s.len() - 1);
        assert_eq!(s.without_range(0, s.len()).len(), 0);
        let halved = s.with_halved_ramps(spec.freq_table.min().mhz());
        for (a, b) in s.events.iter().zip(&halved.events) {
            if let (
                ScheduleAction::OffsetWrite { offset_mv: x, .. },
                ScheduleAction::OffsetWrite { offset_mv: y, .. },
            ) = (&a.action, &b.action)
            {
                assert!(y.abs() <= x.abs());
            }
        }
        let widened = s.with_widened_intervals(500);
        assert!(widened
            .events
            .iter()
            .all(|e| e.at_us % 500 == 0 || e.at_us == 0));
        assert!(widened.events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn schedules_roundtrip_through_json() {
        let spec = CpuModel::KabyLakeR.spec();
        for family in AttackFamily::ALL {
            let s = CampaignSchedule::generate(family, &spec, &mut rng("json"));
            let j = serde_json::to_string(&s).expect("serializes");
            let back: CampaignSchedule = serde_json::from_str(&j).expect("parses");
            assert_eq!(s, back);
        }
    }
}
