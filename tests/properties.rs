//! Randomized property tests over the core invariants of the
//! reproduction: MSR codecs, characterization-map classification,
//! timing physics, the fault sampler and the VR.
//!
//! Cases are driven by the workspace's own seeded [`SimRng`] instead of
//! an external property-testing crate, so the suite stays hermetic and
//! every failure replays from a fixed seed. Each test draws `CASES`
//! inputs from a stream derived from the test's name.

use plugvolt::charmap::{CharacterizationMap, FreqBand};
use plugvolt::state::StateClass;
use plugvolt_circuit::delay::AlphaPowerModel;
use plugvolt_circuit::fault::{sample_binomial, sample_flip_mask, FaultModel};
use plugvolt_circuit::multiplier::MultiplierUnit;
use plugvolt_circuit::timing::TimingBudget;
use plugvolt_cpu::energy::EnergyModel;
use plugvolt_cpu::exec::{InstrClass, Rails};
use plugvolt_cpu::freq::{FreqMhz, FreqTable};
use plugvolt_cpu::microcode::MicrocodeUpdate;
use plugvolt_cpu::model::CpuModel;
use plugvolt_cpu::ucode_blob::UpdateBlob;
use plugvolt_cpu::vr::VoltageRegulator;
use plugvolt_des::rng::SimRng;
use plugvolt_des::time::{SimDuration, SimTime};
use plugvolt_msr::oc_mailbox::{encode_offset_request, OcRequest, Plane};
use plugvolt_msr::offset_limit::VoltageOffsetLimit;
use plugvolt_msr::perf_status::PerfStatus;

/// Cases per property; every draw below is deterministic, so the suite
/// exercises the same inputs on every run.
const CASES: u64 = 256;

/// Seed shared by every property stream (varied per test via the label).
const SEED: u64 = 0x706c_7567_766f_6c74; // "plugvolt"

/// Input generator: thin inclusive-range helpers over [`SimRng`].
struct Gen {
    rng: SimRng,
}

impl Gen {
    fn new(test: &str, case: u64) -> Self {
        Gen {
            rng: SimRng::from_seed_label(SEED ^ case, test),
        }
    }

    fn i32_in(&mut self, lo: i32, hi: i32) -> i32 {
        i32::try_from(self.rng.in_range(i64::from(lo), i64::from(hi)))
            .expect("range bounds fit i32")
    }

    fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        u32::try_from(self.rng.in_range(i64::from(lo), i64::from(hi)))
            .expect("range bounds fit u32")
    }

    fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.rng.below(hi - lo + 1)
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        usize::try_from(self.u64_in(lo as u64, hi as u64)).expect("usize range")
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }
}

/// Runs `body` for [`CASES`] deterministic inputs.
fn cases(test: &str, mut body: impl FnMut(&mut Gen)) {
    for case in 0..CASES {
        let mut g = Gen::new(test, case);
        body(&mut g);
    }
}

// ---------- MSR codecs ----------

#[test]
fn mailbox_roundtrip_quantizes_within_1mv() {
    cases("mailbox_roundtrip", |g| {
        let offset = g.i32_in(-1000, 999);
        let plane = Plane::from_index(g.i32_in(0, 4) as u8).unwrap();
        let req = OcRequest::write_offset(offset, plane);
        let back = OcRequest::decode(req.encode()).unwrap();
        assert_eq!(back.plane(), plane);
        assert!(back.is_write());
        assert!(
            (back.offset_mv() - offset).abs() <= 1,
            "offset {} decoded {}",
            offset,
            back.offset_mv()
        );
        // Truncation in Algorithm 1 never deepens an undervolt.
        if offset < 0 {
            assert!(back.offset_mv() >= offset);
        }
    });
}

#[test]
fn mailbox_matches_paper_algorithm1() {
    cases("mailbox_algorithm1", |g| {
        let offset = g.i32_in(-999, 999);
        let plane = g.i32_in(0, 4) as u8;
        assert_eq!(
            OcRequest::write_offset(offset, Plane::from_index(plane).unwrap()).encode(),
            encode_offset_request(offset, plane)
        );
    });
}

#[test]
fn perf_status_roundtrip() {
    cases("perf_status_roundtrip", |g| {
        let freq_ratio = g.u32_in(1, 255);
        let mv = g.f64_in(0.0, 7_900.0);
        let s = PerfStatus::new(freq_ratio * 100, mv);
        let back = PerfStatus::decode(s.encode());
        assert_eq!(back.freq_mhz(), freq_ratio * 100);
        assert!((back.voltage_mv() - mv).abs() < 0.13);
    });
}

#[test]
fn offset_limit_clamp_is_idempotent_and_bounded() {
    cases("offset_limit_clamp", |g| {
        let bound = g.i32_in(-900, 0);
        let offset = g.i32_in(-1000, 999);
        let limit = VoltageOffsetLimit::new(bound);
        let req = OcRequest::write_offset(offset, Plane::Core);
        let once = limit.clamp(req);
        let twice = limit.clamp(once);
        assert_eq!(once, twice, "clamp must be idempotent");
        // Clamped output never deeper than the bound (in native units).
        let bound_units = plugvolt_msr::oc_mailbox::mv_to_units(bound);
        assert!(once.offset_units() >= bound_units);
    });
}

// ---------- characterization map ----------

#[test]
fn charmap_classification_is_monotone_in_depth() {
    cases("charmap_monotone", |g| {
        let onset = g.i32_in(-290, -20);
        let width = g.i32_in(1, 60);
        let freq = g.u32_in(500, 5_000);
        let probe_a = g.i32_in(-320, 0);
        let probe_b = g.i32_in(-320, 0);
        let mut map = CharacterizationMap::new("prop", 0, -300);
        map.insert_band(
            FreqMhz(freq),
            FreqBand {
                fault_onset_mv: Some(onset),
                crash_mv: Some(onset - width),
            },
        );
        let rank = |s: StateClass| match s {
            StateClass::Safe => 0,
            StateClass::Unsafe => 1,
            StateClass::Crash => 2,
        };
        let (hi, lo) = if probe_a >= probe_b {
            (probe_a, probe_b)
        } else {
            (probe_b, probe_a)
        };
        // Going deeper (more negative) never makes the state safer.
        assert!(
            rank(map.classify(FreqMhz(freq), lo)) >= rank(map.classify(FreqMhz(freq), hi)),
            "lo={lo} hi={hi}"
        );
    });
}

#[test]
fn charmap_interpolation_never_under_protects() {
    cases("charmap_interpolation", |g| {
        let onset_a = g.i32_in(-290, -20);
        let onset_b = g.i32_in(-290, -20);
        let probe = g.i32_in(-300, -1);
        let mid = g.u32_in(1_100, 1_900);
        let mut map = CharacterizationMap::new("prop", 0, -300);
        map.insert_band(
            FreqMhz(1_000),
            FreqBand {
                fault_onset_mv: Some(onset_a),
                crash_mv: None,
            },
        );
        map.insert_band(
            FreqMhz(2_000),
            FreqBand {
                fault_onset_mv: Some(onset_b),
                crash_mv: None,
            },
        );
        // If either neighbour says unsafe at this depth, the
        // interpolated frequency must too.
        let either_unsafe = probe <= onset_a.max(onset_b);
        let interpolated = map.classify(FreqMhz(mid), probe);
        if either_unsafe {
            assert_ne!(interpolated, StateClass::Safe);
        }
    });
}

#[test]
fn maximal_safe_state_classifies_safe_everywhere() {
    cases("maximal_safe_state", |g| {
        let n = g.usize_in(1, 7);
        let onsets: Vec<i32> = (0..n).map(|_| g.i32_in(-290, -20)).collect();
        let mut map = CharacterizationMap::new("prop", 0, -300);
        for (i, onset) in onsets.iter().enumerate() {
            map.insert_band(
                FreqMhz(1_000 + 500 * i as u32),
                FreqBand {
                    fault_onset_mv: Some(*onset),
                    crash_mv: Some(onset - 30),
                },
            );
        }
        let mss = map.maximal_safe_offset_mv(0).unwrap();
        for (f, _) in map.iter() {
            assert_eq!(
                map.classify(f, mss),
                StateClass::Safe,
                "mss {mss} unsafe at {f}"
            );
        }
    });
}

// ---------- circuit physics ----------

#[test]
fn alpha_power_delay_monotone() {
    cases("alpha_power_delay", |g| {
        let vth = g.f64_in(200.0, 500.0);
        let alpha = g.f64_in(1.0, 2.0);
        let v1 = g.f64_in(550.0, 1_400.0);
        let dv = g.f64_in(1.0, 300.0);
        if v1 <= vth + 50.0 {
            return; // discard, mirroring the original prop_assume!
        }
        let m = AlphaPowerModel::new(50.0, vth, alpha);
        assert!(m.delay_ps(v1) >= m.delay_ps(v1 + dv));
    });
}

#[test]
fn timing_budget_shrinks_with_frequency() {
    cases("timing_budget", |g| {
        let f1 = g.u32_in(400, 4_799);
        let df = g.u32_in(100, 999);
        let a = TimingBudget::for_frequency_mhz(f1, 30.0, 10.0);
        let b = TimingBudget::for_frequency_mhz(f1 + df, 30.0, 10.0);
        assert!(b.available_ps() <= a.available_ps());
    });
}

#[test]
fn multiplier_depth_monotone_in_operand_width() {
    cases("multiplier_depth", |g| {
        let a_bits = g.u32_in(1, 64);
        let b_bits = g.u32_in(1, 64);
        let mul = MultiplierUnit::default();
        let mask = |bits: u32| {
            if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            }
        };
        let narrow = mul.depth_for(mask(a_bits) >> 1, mask(b_bits) >> 1);
        let wide = mul.depth_for(mask(a_bits), mask(b_bits));
        assert!(wide >= narrow);
    });
}

#[test]
fn fault_probability_monotone() {
    cases("fault_probability", |g| {
        let slack = g.f64_in(-200.0, 200.0);
        let d = g.f64_in(0.1, 50.0);
        let fm = FaultModel::default();
        assert!(fm.fault_probability(slack - d) >= fm.fault_probability(slack));
    });
}

#[test]
fn binomial_within_support() {
    cases("binomial_support", |g| {
        let n = g.u64_in(0, 2_000_000);
        let p = g.f64_in(0.0, 1.0);
        let seed = g.u64_in(0, 999);
        let mut rng = SimRng::from_seed_label(seed, "prop-binom");
        let k = sample_binomial(n, p, &mut rng);
        assert!(k <= n);
    });
}

#[test]
fn flip_masks_are_nonzero_and_in_window() {
    cases("flip_masks", |g| {
        let sig = g.u32_in(0, 80);
        let seed = g.u64_in(0, 499);
        let mut rng = SimRng::from_seed_label(seed, "prop-mask");
        let mask = sample_flip_mask(sig, &mut rng);
        assert_ne!(mask, 0);
        let sig = sig.clamp(2, 64);
        if sig < 64 {
            assert_eq!(mask >> sig, 0, "mask {mask:#x} beyond window {sig}");
        }
    });
}

// ---------- frequency table ----------

#[test]
fn quantize_lands_in_table() {
    cases("quantize_table", |g| {
        let f = g.u32_in(0, 9_999);
        let table = FreqTable::new(FreqMhz(400), FreqMhz(4_900), 100);
        let q = table.quantize(FreqMhz(f));
        assert!(table.contains(q));
        // Quantization moves by at most half a step (or clamps).
        if (400..=4_900).contains(&f) {
            assert!((i64::from(q.mhz()) - i64::from(f)).abs() <= 50);
        }
    });
}

// ---------- microcode blobs ----------

#[test]
fn ucode_blob_round_trips() {
    cases("ucode_roundtrip", |g| {
        let revision = g.u32_in(1, 0xFFFF);
        let bound = g.i32_in(-900, 0);
        let model_idx = g.usize_in(0, 2);
        let date = g.u32_in(0, 0x1231_9999);
        let model = CpuModel::ALL[model_idx];
        let blob = UpdateBlob::package(
            MicrocodeUpdate::maximal_safe_state(revision, bound),
            model,
            date,
        );
        let back = UpdateBlob::decode(&blob.encode()).unwrap();
        assert_eq!(back, blob);
        assert!(back.validate_for(model).is_ok());
    });
}

#[test]
fn ucode_blob_single_bitflips_never_parse_as_different_update() {
    cases("ucode_bitflips", |g| {
        let revision = g.u32_in(1, 0xFFFF);
        let bound = g.i32_in(-900, 0);
        let bit = g.usize_in(0, 64 * 8 - 1);
        let blob = UpdateBlob::package(
            MicrocodeUpdate::maximal_safe_state(revision, bound),
            CpuModel::CometLake,
            0x0101_2026,
        );
        let mut bytes = blob.encode();
        let idx = (bit / 8) % bytes.len();
        bytes[idx] ^= 1 << (bit % 8);
        // Either rejected, or (checksum-colliding flips are impossible
        // for single bits) parses back identically — it must never yield
        // a *different* accepted update.
        if let Ok(parsed) = UpdateBlob::decode(&bytes) {
            assert_eq!(parsed, blob);
        }
    });
}

// ---------- energy ----------

#[test]
fn energy_power_monotone_in_voltage_and_frequency() {
    cases("energy_monotone", |g| {
        let v = g.f64_in(500.0, 1_300.0);
        let dv = g.f64_in(1.0, 200.0);
        let f = g.u32_in(400, 4_899);
        let df = g.u32_in(100, 999);
        let m = EnergyModel::default();
        assert!(m.core_power_w(v + dv, f, true) > m.core_power_w(v, f, true));
        assert!(m.core_power_w(v, f + df, true) > m.core_power_w(v, f, true));
        assert!(m.core_power_w(v, f, false) < m.core_power_w(v, f, true));
    });
}

// ---------- rails ----------

#[test]
fn rails_route_loads_to_cache_plane() {
    cases("rails_routing", |g| {
        let core = g.f64_in(500.0, 1_300.0);
        let cache = g.f64_in(500.0, 1_300.0);
        let rails = Rails {
            core_mv: core,
            cache_mv: cache,
        };
        assert_eq!(rails.for_class(InstrClass::Load), cache);
        for class in [
            InstrClass::Imul,
            InstrClass::Aesenc,
            InstrClass::Fma,
            InstrClass::AluAdd,
        ] {
            assert_eq!(rails.for_class(class), core);
        }
        let u = Rails::uniform(core);
        assert_eq!(u.core_mv, u.cache_mv);
    });
}

// ---------- voltage regulator ----------

#[test]
fn vr_stays_between_start_and_target() {
    cases("vr_bounds", |g| {
        let start = g.f64_in(600.0, 1_300.0);
        let target = g.f64_in(600.0, 1_300.0);
        let probe_us = g.u64_in(0, 4_999);
        let mut vr = VoltageRegulator::new(start, SimDuration::from_micros(100), 8.0);
        vr.set_target(SimTime::ZERO, target);
        let v = vr.voltage_mv(SimTime::ZERO + SimDuration::from_micros(probe_us));
        let (lo, hi) = if start <= target {
            (start, target)
        } else {
            (target, start)
        };
        assert!(
            v >= lo - 1e-9 && v <= hi + 1e-9,
            "v={v} outside [{lo}, {hi}]"
        );
    });
}

#[test]
fn vr_slew_rate_is_respected() {
    cases("vr_slew", |g| {
        let start = g.f64_in(600.0, 1_300.0);
        let target = g.f64_in(600.0, 1_300.0);
        let t1 = g.u64_in(0, 2_999);
        let dt = g.u64_in(1, 499);
        let mut vr = VoltageRegulator::new(start, SimDuration::from_micros(50), 8.0);
        vr.set_target(SimTime::ZERO, target);
        let a = vr.voltage_mv(SimTime::ZERO + SimDuration::from_micros(t1));
        let b = vr.voltage_mv(SimTime::ZERO + SimDuration::from_micros(t1 + dt));
        assert!((b - a).abs() <= 8.0 * dt as f64 + 1e-6);
    });
}
