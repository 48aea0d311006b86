//! Metric names, output checks, statistics and the result line.
//!
//! The names below are the ones `BENCHMARK.json` lists; a unit test
//! holds the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("iter_p50_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name, unit, better. Counts are per
/// traced iteration and repeat exactly at a fixed seed; a metric a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("cpu.slack.build_s", "s", "lower"),
    ("cpu.slack.hits", "count", "higher"),
    ("cpu.slack.fallbacks", "count", "lower"),
    ("cpu.slack.hit_ratio", "ratio", "higher"),
    ("core.characterize.points", "count", "higher"),
    ("core.characterize.crashes", "count", "lower"),
    ("core.characterize.point_ns", "ns", "lower"),
    ("msr.rdmsr", "count", "lower"),
    ("msr.wrmsr", "count", "lower"),
    ("msr.wrmsr_ignored", "count", "lower"),
    ("msr.codec_ns", "ns", "lower"),
    ("hal.rdmsr_ns", "ns", "lower"),
    ("core.poll.ticks", "count", "lower"),
    ("core.poll.observations", "count", "lower"),
    ("core.poll.detections", "count", "higher"),
    ("core.poll.restores", "count", "higher"),
    ("core.poll.tick_ns", "ns", "lower"),
    ("workloads.rate_bare_s", "s", "lower"),
    ("workloads.rate_polled_s", "s", "lower"),
    ("workloads.sim_instr", "count", "higher"),
    ("attacks.generate_s", "s", "lower"),
    ("bench.soak.cells", "count", "higher"),
    ("bench.soak.violations", "count", "lower"),
    ("bench.soak.cell_ms", "ms", "lower"),
    ("bench.proc.table1_s", "s", "lower"),
    ("bench.proc.fig1_s", "s", "lower"),
    ("bench.proc.fig2_s", "s", "lower"),
    ("bench.proc.fig2_json_s", "s", "lower"),
    ("bench.proc.fig3_s", "s", "lower"),
    ("bench.proc.fig3_json_s", "s", "lower"),
    ("bench.proc.fig4_s", "s", "lower"),
    ("bench.proc.fig4_json_s", "s", "lower"),
    ("bench.proc.table2_s", "s", "lower"),
    ("bench.proc.defense_s", "s", "lower"),
    ("bench.proc.levels_s", "s", "lower"),
    ("bench.proc.stepping_s", "s", "lower"),
    ("bench.proc.interval_s", "s", "lower"),
    ("bench.proc.planes_s", "s", "lower"),
    ("bench.proc.energy_s", "s", "lower"),
    ("bench.proc.units_s", "s", "lower"),
    ("bench.proc.attest_s", "s", "lower"),
    ("bench.proc.soak_smoke_s", "s", "lower"),
    ("bench.proc.soak_record_s", "s", "lower"),
    ("bench.proc.soak_replay_s", "s", "lower"),
    ("telemetry.trace_overhead", "ratio", "higher"),
    ("self.kernel_s", "s", "lower"),
    ("self.core_s", "s", "lower"),
    ("self.workloads_s", "s", "lower"),
    ("self.attacks_s", "s", "lower"),
    ("self.bench_s", "s", "lower"),
    ("self.telemetry_s", "s", "lower"),
];

/// Compares every output with the committed expectation (when one is
/// loaded) and with the first iteration's output under the same key.
/// A mismatch is a failed operation, never a panic.
#[derive(Debug, Default)]
pub struct Checker {
    expected: BTreeMap<String, Vec<u8>>,
    first: BTreeMap<String, Vec<u8>>,
    notes: Vec<String>,
}

impl Checker {
    pub fn expect(&mut self, key: &str, bytes: Vec<u8>) {
        self.expected.insert(key.to_owned(), bytes);
    }

    /// Whether `got` is the right output for `key`.
    pub fn check(&mut self, key: &str, got: &[u8]) -> bool {
        if let Some(want) = self.expected.get(key) {
            if want.as_slice() != got {
                self.note(format!("{key}: output differs from the committed artifact"));
                return false;
            }
        }
        match self.first.get(key) {
            Some(first) if first.as_slice() != got => {
                self.note(format!("{key}: output differs from the first iteration's"));
                false
            }
            Some(_) => true,
            None => {
                self.first.insert(key.to_owned(), got.to_vec());
                true
            }
        }
    }

    /// Records why an operation failed (the first few are printed).
    pub fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Operations attempted and failed, and work units done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub units: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.units += other.units;
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest of p90/p99/p99.9 with at least ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) >= 1_000.0)
}

/// The driver-facing last line: `correct`, `attempted`, `failed` and
/// each metric with its unit. Non-finite values print as 0.
pub fn result_line(tally: Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        let obj = doc.as_object().expect("top-level object");
        let list = obj
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_array())
            .expect("metric list");
        list.iter()
            .map(|m| {
                let m = m.as_object().expect("metric object");
                let get = |k: &str| {
                    m.iter()
                        .find(|(n, _)| n == k)
                        .and_then(|(_, v)| v.as_str())
                        .expect("string field")
                        .to_owned()
                };
                (get("name"), get("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let doc = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, _)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layers);
    }

    #[test]
    fn corrupted_expectation_is_a_failure_not_a_panic() {
        let mut chk = Checker::default();
        chk.expect("fig2", b"{\"experiment\":\"fig2\"}\n".to_vec());
        assert!(!chk.check("fig2", b"{\"experiment\":\"fig9\"}\n"));
        assert!(chk.check("other", b"a"));
        assert!(
            !chk.check("other", b"b"),
            "later output must equal the first"
        );
        assert_eq!(chk.notes().len(), 2);
    }

    #[test]
    fn result_line_shape() {
        let tally = Tally {
            attempted: 3,
            failed: 1,
            units: 0,
        };
        let line = result_line(tally, &[("setup_s", 0.5, "s"), ("x", f64::NAN, "ns")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"ns\"}}}"
        );
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(tail_percentile(50), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
    }
}
