//! Integration: the precomputed slack table is a cache, not a model.
//!
//! The table short-circuits the alpha-power delay math (`powf`) and the
//! fault-band sigmoid (`exp`) on the batch hot path, so the one
//! invariant that matters is *bit identity*: every cached value must
//! equal what the analytic path computes for the same `(frequency,
//! voltage)` bits, and a machine running with the table attached must
//! be indistinguishable — records, fault counts, RNG stream, timings —
//! from the same machine running the analytic path. These tests pin
//! that across every CPU model and the entire grid, and pin that the
//! lazy fill is invisible: cold or warm, shared across threads or not,
//! the table answers with the analytic bits and the same hit counts.

use plugvolt::characterize::{characterize, SweepConfig};
use plugvolt_bench::scenario::Scenario;
use plugvolt_circuit::multiplier::MultiplierUnit;
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::exec::{ExecutionEngine, InstrClass};
use plugvolt_cpu::freq::FreqMhz;
use plugvolt_cpu::model::CpuModel;
use plugvolt_cpu::slack::{class_index, SlackTable, MIN_OFFSET_UNITS};
use plugvolt_des::time::SimDuration;
use std::sync::Arc;

/// Every grid point of every model matches the analytic path bit for
/// bit — all 29-ish frequencies × 513 offset steps × both planes, not a
/// sampled subset. This is the exhaustive version of the spot checks in
/// `plugvolt_cpu::slack`'s unit tests.
#[test]
fn full_grid_matches_analytic_bits_for_every_model() {
    for model in CpuModel::ALL {
        let spec = model.spec();
        let table = SlackTable::build(&spec);
        let engine = ExecutionEngine::new(
            spec.multiplier(),
            spec.fault_model(),
            spec.t_setup_ps,
            spec.t_eps_ps,
        );
        let mut checked = 0usize;
        for f in spec.freq_table.iter() {
            let budget = engine.budget(f);
            for units in MIN_OFFSET_UNITS..=0 {
                let offset = f64::from(units) * 1000.0 / 1024.0;
                for v in [
                    spec.nominal_voltage_mv(f) + offset,
                    spec.nominal_cache_voltage_mv(f) + offset,
                ] {
                    let classes = table
                        .classes(f, v)
                        .unwrap_or_else(|| panic!("{model}: missing grid point {f} {v} mV"));
                    for class in InstrClass::ALL {
                        let cached = classes[class_index(class)];
                        let slack = engine.class_slack_ps(class, f, v);
                        assert_eq!(cached.slack_ps.to_bits(), slack.to_bits(), "{model}");
                        assert_eq!(cached.state, engine.fault_model().classify(slack));
                        assert_eq!(
                            cached.fault_p.to_bits(),
                            engine.fault_model().fault_probability(slack).to_bits()
                        );
                    }
                    let ops = table.imul_ops(f, v).expect("imul half on grid");
                    for (i, (_, a, b)) in MultiplierUnit::IMUL_LOOP_CLASSES.iter().enumerate() {
                        let slack = engine.multiplier().slack_ps(*a, *b, &budget, v);
                        assert_eq!(ops[i].slack_ps.to_bits(), slack.to_bits());
                    }
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, table.len(), "{model}: grid size mismatch");
    }
}

/// Several threads sharing one table, each walking overlapping grid
/// points in a different order, race to fill the same slots. Whoever
/// wins a slot, every thread must read the analytic bits.
#[test]
fn concurrent_fills_match_analytic_bits() {
    let model = CpuModel::CometLake;
    let spec = model.spec();
    let table = Arc::new(SlackTable::build(&spec));
    let engine = ExecutionEngine::new(
        spec.multiplier(),
        spec.fault_model(),
        spec.t_setup_ps,
        spec.t_eps_ps,
    );
    // The upper frequencies on both planes, around the fault band.
    let all: Vec<_> = spec.freq_table.iter().collect();
    let freqs = &all[all.len() - 4..];
    let points: Vec<_> = freqs
        .iter()
        .flat_map(|&f| {
            let spec = &spec;
            (-320i16..=-120).step_by(4).flat_map(move |units| {
                let offset = f64::from(units) * 1000.0 / 1024.0;
                [
                    (f, spec.nominal_voltage_mv(f) + offset),
                    (f, spec.nominal_cache_voltage_mv(f) + offset),
                ]
            })
        })
        .collect();
    std::thread::scope(|s| {
        for worker in 0..4usize {
            let table = Arc::clone(&table);
            let engine = engine.clone();
            let points = &points;
            s.spawn(move || {
                // Each worker starts at a different point and walks with
                // a different stride, so fills interleave and collide.
                let n = points.len();
                let stride = [1, n - 1, 7, n - 7][worker];
                for k in 0..n {
                    let (f, v) = points[(worker * n / 4 + k * stride) % n];
                    let budget = engine.budget(f);
                    let classes = table.classes(f, v).expect("on grid");
                    for class in InstrClass::ALL {
                        let slack = engine.class_slack_ps(class, f, v);
                        let cached = classes[class_index(class)];
                        assert_eq!(cached.slack_ps.to_bits(), slack.to_bits());
                        assert_eq!(cached.state, engine.fault_model().classify(slack));
                        assert_eq!(
                            cached.fault_p.to_bits(),
                            engine.fault_model().fault_probability(slack).to_bits()
                        );
                    }
                    let ops = table.imul_ops(f, v).expect("on grid");
                    for (i, (_, a, b)) in MultiplierUnit::IMUL_LOOP_CLASSES.iter().enumerate() {
                        let slack = engine.multiplier().slack_ps(*a, *b, &budget, v);
                        assert_eq!(ops[i].slack_ps.to_bits(), slack.to_bits());
                        assert_eq!(
                            ops[i].fault_p.to_bits(),
                            engine.fault_model().fault_probability(slack).to_bits()
                        );
                    }
                }
            });
        }
    });
    assert_eq!(table.allocated_columns(), freqs.len() * 2);
}

/// A characterization on a cold table (every slot filled by the sweep
/// itself) and on a table the same sweep already warmed are identical,
/// down to the engine's hit/fallback counts: the query that fills a
/// slot counts as a hit, exactly like every later one.
#[test]
fn cold_and_warm_tables_characterize_identically() {
    for model in [CpuModel::CometLake, CpuModel::SkyLake] {
        let cfg = SweepConfig::coarse();
        let table = Arc::new(SlackTable::build(&model.spec()));
        let run = || {
            let mut machine = Scenario::with_seed(77).machine(model);
            machine.set_slack_table(Some(Arc::clone(&table)));
            let result = characterize(&mut machine, &cfg).expect("sweeps");
            let engine = machine.cpu().engine();
            (
                result,
                engine.slack_table_hits(),
                engine.slack_table_fallbacks(),
            )
        };
        let (cold, cold_hits, cold_fallbacks) = run();
        let columns = table.allocated_columns();
        let (warm, warm_hits, warm_fallbacks) = run();
        assert!(cold_hits > 0, "{model}: sweep never hit the table");
        assert_eq!(cold.records, warm.records, "{model}");
        assert_eq!(cold.map, warm.map, "{model}");
        assert_eq!(cold.crashes, warm.crashes, "{model}");
        assert_eq!(cold.duration, warm.duration, "{model}");
        assert_eq!(cold_hits, warm_hits, "{model}");
        assert_eq!(cold_fallbacks, warm_fallbacks, "{model}");
        assert_eq!(columns, table.allocated_columns(), "{model}");
    }
}

/// Off-grid queries miss without touching the table: neither an
/// off-table frequency nor a voltage one LSB away from a slot's grid
/// voltage allocates that slot's column.
#[test]
fn off_grid_and_off_by_one_lsb_queries_allocate_nothing() {
    let spec = CpuModel::KabyLakeR.spec();
    let table = SlackTable::build(&spec);
    let f = spec.base_freq;
    let on_grid = spec.nominal_voltage_mv(f) + f64::from(-100i16) * 1000.0 / 1024.0;
    for v in [
        f64::from_bits(on_grid.to_bits() + 1),
        f64::from_bits(on_grid.to_bits() - 1),
    ] {
        assert!(table.classes(f, v).is_none(), "{v} mV hit");
        assert!(table.imul_ops(f, v).is_none(), "{v} mV hit");
    }
    assert!(table.classes(FreqMhz(f.mhz() + 1), on_grid).is_none());
    assert!(table.imul_ops(FreqMhz(f.mhz() + 1), on_grid).is_none());
    assert_eq!(table.allocated_columns(), 0, "a miss allocated a column");
    assert!(table.classes(f, on_grid).is_some());
    assert_eq!(table.allocated_columns(), 1);
}

/// A full characterization run with the table attached is identical to
/// the analytic run — including the stochastic fault sampling, because
/// a table hit returns the same fault probability bits and therefore
/// consumes the RNG stream identically.
#[test]
fn characterization_is_identical_with_and_without_table() {
    for model in CpuModel::ALL {
        let cfg = SweepConfig::coarse();
        let run = |table: bool| {
            let mut machine = Scenario::with_seed(77).machine(model);
            if !table {
                machine.set_slack_table(None);
            }
            characterize(&mut machine, &cfg).expect("sweeps")
        };
        let with_table = run(true);
        let analytic = run(false);
        assert_eq!(with_table.records, analytic.records, "{model}");
        assert_eq!(with_table.map, analytic.map, "{model}");
        assert_eq!(with_table.crashes, analytic.crashes, "{model}");
        assert_eq!(with_table.duration, analytic.duration, "{model}");
    }
}

/// The imul loop inside the fault band draws from the RNG; the table
/// path must leave the stream in exactly the same state as the analytic
/// path, which this pins by running a second, RNG-sensitive batch after
/// the first and requiring identical fault counts from both arms.
#[test]
fn rng_stream_is_consumed_identically_across_paths() {
    let model = CpuModel::CometLake;
    let run = |table: bool| {
        let mut machine = Scenario::with_seed(3).machine(model);
        if !table {
            machine.set_slack_table(None);
        }
        // Drop the core rail into the fault band, then run two batches:
        // the second one's faults depend on the RNG state the first one
        // left behind.
        let dev = plugvolt_kernel::msr_dev::MsrDev::open(&machine, CoreId(0)).expect("opens");
        let req = plugvolt_msr::oc_mailbox::OcRequest::write_offset(
            -230,
            plugvolt_msr::oc_mailbox::Plane::Core,
        )
        .encode();
        dev.write(&mut machine, plugvolt_msr::addr::Msr::OC_MAILBOX, req)
            .expect("writes");
        machine.advance(SimDuration::from_millis(1));
        let now = machine.now();
        let a = machine
            .cpu_mut()
            .run_imul_loop(now, CoreId(0), 1_000_000)
            .expect("first batch");
        let b = machine
            .cpu_mut()
            .run_imul_loop(now, CoreId(0), 1_000_000)
            .expect("second batch");
        (a, b)
    };
    assert_eq!(run(true), run(false));
}
