//! The deterministic in-tree perf harness behind `plugvolt-cli bench`.
//!
//! The workspace's Criterion dependency is a no-op shim (the build is
//! hermetic), so perf claims need their own gate. This module times a
//! fixed set of workloads — the full-grid characterization sweep, the
//! Table 2 overhead suite, and that suite with span tracing on — over
//! *fixed, seeded* iteration counts, and serializes the result as a
//! pinned-schema [`BenchReport`] (committed as `BENCH.json` at the
//! repository root, one snapshot per PR).
//!
//! The workloads are deterministic: the same simulation work runs on
//! every invocation, so the only run-to-run variance is host timing
//! noise. Absolute nanoseconds are machine-dependent and only
//! meaningful within one report; the `speedup` ratios (before vs after
//! arm over the *same* workload) are what CI compares across reports,
//! because a ratio of two measurements from the same host/run largely
//! cancels the machine out.

use crate::scenario::Scenario;
use plugvolt::characterize::{characterize, SweepConfig};
use plugvolt_cpu::model::CpuModel;
use plugvolt_cpu::slack;
use plugvolt_workloads::overhead::{run_table2, OverheadConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema version of [`BenchReport`]. Bump on any breaking change to
/// the serialized layout and update the validation in `validate`.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Bench names every well-formed report must contain, in report order.
pub const REQUIRED_BENCHES: [&str; 3] = ["characterize-grid", "run-table2", "span-overhead"];

/// One timed workload.
///
/// Every required bench carries a before/after pair: the sweep benches
/// toggle the slack-table/hot-telemetry optimizations, and the span row
/// toggles span tracing. `speedup` is the host-normalized ratio CI
/// gates on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRow {
    /// Stable bench name (see [`REQUIRED_BENCHES`]).
    pub name: String,
    /// Deterministic work units timed (grid points, suite benchmarks) —
    /// makes the row self-describing when the workload size changes
    /// between smoke and full mode.
    pub work_units: u64,
    /// Wall-clock for the unoptimized path over the same workload
    /// (analytic slack recomputation), when the bench has one.
    pub baseline_ns: Option<u64>,
    /// Wall-clock for the current (optimized) path.
    pub measured_ns: u64,
    /// `baseline_ns / measured_ns`, when the bench has a baseline.
    pub speedup: Option<f64>,
}

/// A full harness run: the committed `BENCH.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Always [`BENCH_SCHEMA_VERSION`] for reports this build writes.
    pub schema_version: u32,
    /// Whether this was a `--smoke` (reduced-workload) run.
    pub smoke: bool,
    /// One row per bench, in [`REQUIRED_BENCHES`] order.
    pub benches: Vec<BenchRow>,
}

impl BenchReport {
    /// Serializes the report as pretty JSON with a trailing newline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }

    /// Finds a bench row by name.
    #[must_use]
    pub fn bench(&self, name: &str) -> Option<&BenchRow> {
        self.benches.iter().find(|b| b.name == name)
    }

    /// Validates the pinned schema: version match, every required bench
    /// present, and a positive speedup wherever a baseline was timed.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} (this build expects {BENCH_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        for name in REQUIRED_BENCHES {
            let row = self
                .bench(name)
                .ok_or_else(|| format!("required bench '{name}' missing"))?;
            if row.measured_ns == 0 || row.work_units == 0 {
                return Err(format!("bench '{name}' has zero time or work"));
            }
            if row.baseline_ns.is_none() || row.speedup.is_none() {
                return Err(format!(
                    "bench '{name}' is missing its reference-arm baseline/speedup \
                     (every required bench times a before/after pair)"
                ));
            }
            if let Some(s) = row.speedup {
                if !s.is_finite() || s <= 0.0 {
                    return Err(format!("bench '{name}' has a degenerate speedup {s}"));
                }
            }
        }
        Ok(())
    }

    /// Compares this (current) report against a committed `baseline`
    /// report and returns the names of benches whose speedup regressed
    /// by more than 2× (i.e. the optimization decayed to less than half
    /// its recorded ratio). Speedups are host-normalized ratios, so the
    /// comparison is meaningful across machines and across smoke/full
    /// workload sizes.
    #[must_use]
    pub fn regressions_against(&self, baseline: &BenchReport) -> Vec<String> {
        let mut regressed = Vec::new();
        for base in &baseline.benches {
            let Some(base_speedup) = base.speedup else {
                continue;
            };
            let Some(current) = self.bench(&base.name) else {
                regressed.push(format!("{} (bench disappeared)", base.name));
                continue;
            };
            let current_speedup = current.speedup.unwrap_or(1.0);
            if current_speedup * 2.0 < base_speedup {
                regressed.push(format!(
                    "{} (speedup {current_speedup:.2}x, baseline recorded {base_speedup:.2}x)",
                    base.name
                ));
            }
        }
        regressed
    }
}

/// Runs the whole harness. `smoke` shrinks every workload (coarse sweep
/// grid, divided Table 2 suite) so CI can gate on it
/// in seconds; the full run is what gets committed as `BENCH.json`.
#[must_use]
pub fn run(smoke: bool) -> BenchReport {
    let benches = vec![
        bench_characterize(smoke),
        bench_table2(smoke),
        bench_span_overhead(smoke),
    ];
    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        smoke,
        benches,
    }
}

/// Times one closure, returning (wall ns, closure result).
fn time<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (ns, out)
}

/// Times `f` over `reps` repetitions and returns the minimum wall time
/// with the final result. The workloads are deterministic — every rep
/// does identical work — so the minimum is the rep least disturbed by
/// the host (scheduler preemption, frequency transitions), which is the
/// stablest estimator this side of a dedicated lab machine.
fn time_best<T>(reps: u32, mut f: impl FnMut() -> T) -> (u64, T) {
    let (mut best_ns, mut out) = time(&mut f);
    for _ in 1..reps {
        let (ns, next) = time(&mut f);
        best_ns = best_ns.min(ns);
        out = next;
    }
    (best_ns, out)
}

/// Puts the simulator in its pre-optimization configuration for the
/// duration of `f`: analytic slack math (no precomputed tables) and the
/// legacy per-access telemetry path (owned-key registry probe on every
/// MSR access). This is the "before" arm of every speedup row; the
/// "after" arm is the default configuration. Results are asserted
/// identical between the two arms.
fn legacy_mode<T>(f: impl FnOnce() -> T) -> T {
    slack::set_tables_enabled(false);
    plugvolt_telemetry::set_hot_path_enabled(false);
    let out = f();
    plugvolt_telemetry::set_hot_path_enabled(true);
    slack::set_tables_enabled(true);
    out
}

/// Characterization sweep: the paper's S1 grid, legacy vs optimized.
///
/// The shared table fills lazily, so one untimed sweep warms every
/// grid point the timed sweeps visit: the row measures a warm table
/// against the analytic path. The first-visit fills are a per-process
/// cost the end-to-end benchmark times, not this row.
fn bench_characterize(smoke: bool) -> BenchRow {
    let model = CpuModel::CometLake;
    let cfg = if smoke {
        SweepConfig::coarse()
    } else {
        SweepConfig::default()
    };
    let sweep = |scn: &Scenario| {
        let mut machine = scn.machine(model);
        characterize(&mut machine, &cfg).expect("characterization completes")
    };

    let scn = Scenario::new();
    let _warm = sweep(&scn);
    let reps = if smoke { 1 } else { 5 };
    let (baseline_ns, run_a) = legacy_mode(|| time_best(reps, || sweep(&scn)));
    let (measured_ns, run_b) = time_best(reps, || sweep(&scn));
    assert_eq!(
        run_a.records, run_b.records,
        "slack table changed characterization results"
    );
    BenchRow {
        name: "characterize-grid".to_owned(),
        work_units: run_b.records.len() as u64,
        baseline_ns: Some(baseline_ns),
        measured_ns,
        speedup: Some(baseline_ns as f64 / measured_ns as f64),
    }
}

/// Table 2 overhead suite, analytic vs warm table (one untimed run
/// fills the grid points the suite visits).
fn bench_table2(smoke: bool) -> BenchRow {
    let cfg = OverheadConfig {
        work_divisor: if smoke { 100 } else { 1 },
        ..OverheadConfig::default()
    };
    let _warm = run_table2(&cfg).expect("table2 completes");
    let reps = if smoke { 1 } else { 3 };
    let (baseline_ns, table_a) =
        legacy_mode(|| time_best(reps, || run_table2(&cfg).expect("table2 completes")));
    let (measured_ns, table_b) = time_best(reps, || run_table2(&cfg).expect("table2 completes"));
    assert_eq!(table_a, table_b, "slack table changed Table 2 results");
    BenchRow {
        name: "run-table2".to_owned(),
        work_units: table_b.rows.len() as u64,
        baseline_ns: Some(baseline_ns),
        measured_ns,
        speedup: Some(baseline_ns as f64 / measured_ns as f64),
    }
}

/// Span-tracer overhead: the Table 2 suite with span tracing off
/// (baseline arm, the default configuration) vs on (measured arm).
///
/// Unlike the other rows this gates a *cost ceiling*, not a win: the
/// ratio is expected to sit near (and slightly below) 1.0, and the
/// decay gate trips if instrumentation on the hot paths ever makes the
/// traced run more than ~2× slower relative to the committed report.
/// The machines inside `run_table2` boot private sinks whose tracers
/// read [`plugvolt_telemetry::span_tracing_default`], so flipping the
/// global default is what arms the measured run. One untimed run warms
/// the slack table first, so neither arm pays its first-visit fills.
fn bench_span_overhead(smoke: bool) -> BenchRow {
    let cfg = OverheadConfig {
        work_divisor: if smoke { 100 } else { 1 },
        ..OverheadConfig::default()
    };
    let _warm = run_table2(&cfg).expect("table2 completes");
    let reps = if smoke { 1 } else { 3 };
    let (baseline_ns, table_off) = time_best(reps, || run_table2(&cfg).expect("table2 completes"));
    plugvolt_telemetry::set_span_tracing_default(true);
    let (measured_ns, table_on) = time_best(reps, || run_table2(&cfg).expect("table2 completes"));
    plugvolt_telemetry::set_span_tracing_default(false);
    assert_eq!(
        table_off, table_on,
        "span tracing changed Table 2 results (recording must stay sim-cost-free)"
    );
    BenchRow {
        name: "span-overhead".to_owned(),
        work_units: table_on.rows.len() as u64,
        baseline_ns: Some(baseline_ns),
        measured_ns,
        speedup: Some(baseline_ns as f64 / measured_ns as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            smoke: true,
            benches: REQUIRED_BENCHES
                .iter()
                .map(|name| BenchRow {
                    name: (*name).to_owned(),
                    work_units: 10,
                    baseline_ns: Some(400),
                    measured_ns: 100,
                    speedup: Some(4.0),
                })
                .collect(),
        }
    }

    #[test]
    fn sample_report_validates_and_round_trips() {
        let report = sample_report();
        report.validate().expect("well-formed report");
        let back: BenchReport =
            serde_json::from_str(&report.to_json()).expect("report deserializes");
        assert_eq!(back, report);
    }

    #[test]
    fn validation_rejects_schema_and_shape_violations() {
        let mut report = sample_report();
        report.schema_version += 1;
        assert!(report.validate().is_err());

        let mut report = sample_report();
        report.benches.remove(0);
        assert!(report.validate().unwrap_err().contains("missing"));

        let mut report = sample_report();
        report.benches[1].speedup = Some(f64::NAN);
        assert!(report.validate().unwrap_err().contains("degenerate"));
    }

    #[test]
    fn regression_gate_trips_only_past_2x() {
        let baseline = sample_report();
        let mut current = sample_report();
        // 4.0x -> 2.1x: within the 2x band, no regression.
        current.benches[0].speedup = Some(2.1);
        assert!(current.regressions_against(&baseline).is_empty());
        // 4.0x -> 1.9x: past the band.
        current.benches[0].speedup = Some(1.9);
        let regressed = current.regressions_against(&baseline);
        assert_eq!(regressed.len(), 1);
        assert!(regressed[0].starts_with("characterize-grid"));
    }

    #[test]
    fn validation_requires_reference_baselines() {
        let mut report = sample_report();
        report.benches[2].baseline_ns = None;
        report.benches[2].speedup = None;
        assert!(report
            .validate()
            .unwrap_err()
            .contains("missing its reference-arm baseline"));
    }
}
