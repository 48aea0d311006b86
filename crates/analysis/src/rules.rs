//! The lint registry: seven determinism & MSR-safety rules.
//!
//! Each rule documents its paper rationale inline; the README's "Static
//! analysis & determinism guarantees" section mirrors this table.

use crate::findings::{Finding, Severity};
use crate::source::{FileRole, SourceFile};

/// Static metadata describing one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Stable identifier used in reports and suppression comments.
    pub id: &'static str,
    /// Severity of its findings.
    pub severity: Severity,
    /// One-line description for `--list-rules` and docs.
    pub summary: &'static str,
}

/// A lint rule: scoped token scan over one pre-processed source file.
pub trait Rule: Sync {
    /// The rule's metadata.
    fn meta(&self) -> RuleMeta;

    /// Appends findings for `file` to `out`. Suppression comments are
    /// applied centrally by the runner (which also tracks which
    /// comments earned their keep, for `unused-suppression`), so
    /// implementations report every hit.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// Pushes a finding. Suppression is applied later, centrally, by the
/// runner — rules report unconditionally so the runner can tell which
/// suppression comments actually fired.
pub fn emit(
    file: &SourceFile,
    meta: RuleMeta,
    line: usize,
    column: usize,
    message: String,
    out: &mut Vec<Finding>,
) {
    out.push(Finding {
        rule: meta.id,
        severity: meta.severity,
        path: file.path.clone(),
        line,
        column,
        message,
        snippet: file.snippet(line),
    });
}

/// The full rule registry, in reporting order.
#[must_use]
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoWallClock),
        Box::new(NoAmbientRng),
        Box::new(NoUnorderedIteration),
        Box::new(MsrWriteDiscipline),
        Box::new(NoUnwrapInLib),
        Box::new(FloatAccumulationOrder),
        Box::new(MachineConstructionDiscipline),
        Box::new(HotPathTranscendentals),
    ]
}

/// Crates whose library code must be wall-clock free: everything that
/// executes inside the simulated timeline. `bench`, shims and the CLI
/// may time real-world things.
pub(crate) const SIM_CRATES: [&str; 6] = ["des", "circuit", "cpu", "kernel", "core", "attacks"];

/// Modules that emit experiment results; iteration order there is
/// output order, so unordered containers are forbidden outright.
const RESULT_MODULES: [&str; 4] = ["charmap", "characterize", "maximal", "experiments"];

pub(crate) fn is_sim_crate(file: &SourceFile) -> bool {
    SIM_CRATES.contains(&file.crate_name.as_str())
}

fn is_result_module(file: &SourceFile) -> bool {
    let stem = file
        .path
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or_default();
    RESULT_MODULES.contains(&stem) || file.path.split('/').any(|seg| seg == "experiments")
}

/// Rule 1 — `no-wall-clock`.
///
/// Simulation crates must not read host time: results would depend on
/// scheduler noise and the characterized map (Figures 2–4) would stop
/// being reproducible. All time comes from the DES clock
/// (`plugvolt_des::time`).
pub struct NoWallClock;

impl Rule for NoWallClock {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "no-wall-clock",
            severity: Severity::Error,
            summary: "std::time::{Instant,SystemTime} banned in simulation crates; \
                      use the plugvolt-des simulated clock",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !is_sim_crate(file) || matches!(file.role, FileRole::Bench) {
            return;
        }
        for ident in ["Instant", "SystemTime"] {
            for (line, column) in file.find_ident(ident) {
                if file.is_test_code(line) {
                    continue;
                }
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    format!(
                        "`{ident}` reads host wall-clock time inside simulation crate \
                         `{}`; derive all time from the deterministic DES clock \
                         (plugvolt_des::time::SimTime)",
                        file.crate_name
                    ),
                    out,
                );
            }
        }
    }
}

/// Rule 2 — `no-ambient-rng`.
///
/// Ambient randomness (`rand::thread_rng`, `random()`, OS entropy) makes
/// every run unique, which is exactly what a characterization framework
/// cannot afford. All randomness flows through the seeded, labelled
/// `plugvolt_des::rng::SimRng` streams.
pub struct NoAmbientRng;

impl Rule for NoAmbientRng {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "no-ambient-rng",
            severity: Severity::Error,
            summary: "ambient RNG (rand::thread_rng / random() / OS entropy) banned; \
                      use seeded plugvolt-des::rng streams",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.crate_name.starts_with("shims/") {
            return;
        }
        for ident in ["thread_rng", "from_entropy", "getrandom", "OsRng"] {
            for (line, column) in file.find_ident(ident) {
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    format!(
                        "`{ident}` draws ambient randomness; every stochastic component \
                         must take a seeded plugvolt_des::rng::SimRng stream"
                    ),
                    out,
                );
            }
        }
        // A bare `rand` path segment (e.g. `rand::random()`, `use rand::…`)
        // means the external crate: banned workspace-wide since the
        // in-tree generator replaced it.
        for (line, column) in file.find_ident("rand") {
            let text = &file.masked[line - 1];
            let after = &text[column - 1 + "rand".len()..];
            if after.starts_with("::") || text.trim_start().starts_with("use rand") {
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    "the external `rand` crate is banned (hermetic build, deterministic \
                     streams); use plugvolt_des::rng::SimRng"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

/// Rule 3 — `no-unordered-iteration`.
///
/// In result-producing modules, `HashMap`/`HashSet` iteration order leaks
/// straight into emitted artifacts. `BTreeMap`/`BTreeSet` (or an explicit
/// sort before emitting) keeps Figures 2–4 byte-stable across runs and
/// Rust versions.
pub struct NoUnorderedIteration;

impl Rule for NoUnorderedIteration {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "no-unordered-iteration",
            severity: Severity::Error,
            summary: "HashMap/HashSet banned in result-producing modules \
                      (charmap, characterize, maximal, experiments); use BTree* or sort",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !is_result_module(file) {
            return;
        }
        for ident in ["HashMap", "HashSet"] {
            for (line, column) in file.find_ident(ident) {
                if file.is_test_code(line) {
                    continue;
                }
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    format!(
                        "`{ident}` iteration order is unspecified and leaks into emitted \
                         results in module `{}`; use BTreeMap/BTreeSet or sort before emit",
                        file.path
                    ),
                    out,
                );
            }
        }
    }
}

/// Rule 4 — `msr-write-discipline`.
///
/// The software analogue of the paper's Sec. 5 microcode/hardware clamp:
/// every undervolt request must pass through `plugvolt-msr`'s
/// `offset_limit` choke point. Raw `0x150`/`0x198` literals outside
/// `crates/msr` are bypasses waiting to happen — V0LTpwn worked because
/// undervolting paths existed that no single clamp covered.
pub struct MsrWriteDiscipline;

impl Rule for MsrWriteDiscipline {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "msr-write-discipline",
            severity: Severity::Error,
            summary: "raw MSR 0x150/0x198 literals and direct package rdmsr/wrmsr calls \
                      banned outside the blessed msr wrappers (workspace rule adds \
                      call-graph detection); go through the offset_limit clamp",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.crate_name == "msr" {
            return;
        }
        for literal in ["0x150", "0x198"] {
            for (line, column) in find_hex_literal(file, literal) {
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    format!(
                        "raw MSR literal `{literal}` outside crates/msr bypasses the \
                         offset_limit clamp (the Sec. 5 choke point); use \
                         plugvolt_msr::addr::Msr::{} instead",
                        if literal == "0x150" {
                            "OC_MAILBOX"
                        } else {
                            "IA32_PERF_STATUS"
                        }
                    ),
                    out,
                );
            }
        }
    }
}

/// Finds a hex literal token (case-insensitive on the payload digits),
/// rejecting matches embedded in longer literals like `0x1500`.
pub(crate) fn find_hex_literal(file: &SourceFile, literal: &str) -> Vec<(usize, usize)> {
    let mut hits = Vec::new();
    let lower = literal.to_ascii_lowercase();
    for (i, line) in file.masked.iter().enumerate() {
        let hay = line.to_ascii_lowercase();
        let mut start = 0;
        while let Some(pos) = hay[start..].find(&lower) {
            let at = start + pos;
            let before_ok = at == 0
                || !hay[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after = at + lower.len();
            let after_ok = !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_hexdigit() || c == '_');
            if before_ok && after_ok {
                hits.push((i + 1, at + 1));
            }
            start = at + lower.len();
        }
    }
    hits
}

/// Rule 5 — `no-unwrap-in-lib`.
///
/// Library code aborting the whole simulation on a recoverable error is
/// how long characterization campaigns die at hour six. Return typed
/// errors, or use `expect` with a message stating the invariant that
/// makes the failure impossible. Test code is exempt.
pub struct NoUnwrapInLib;

impl Rule for NoUnwrapInLib {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "no-unwrap-in-lib",
            severity: Severity::Warning,
            summary: "unwrap()/expect(\"\")/panic! flagged in library crates; \
                      return typed errors or expect with an invariant message",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !matches!(file.role, FileRole::Lib) || file.crate_name.starts_with("shims/") {
            return;
        }
        for (line, column) in file.find_ident("unwrap") {
            if file.is_test_code(line) {
                continue;
            }
            let text = &file.masked[line - 1];
            let is_call = text[column - 1 + "unwrap".len()..]
                .trim_start()
                .starts_with("()");
            let is_method = text[..column - 1].trim_end().ends_with('.');
            if is_call && is_method {
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    "`.unwrap()` in library code aborts the whole simulation; return a \
                     typed error or use `.expect(\"<invariant>\")`"
                        .to_string(),
                    out,
                );
            }
        }
        for (line, column) in file.find_ident("expect") {
            if file.is_test_code(line) {
                continue;
            }
            // Empty message check must look at the raw line (masked text
            // blanks string contents).
            let raw = &file.lines[line - 1];
            // Columns come from masked text; masking a non-ASCII string
            // character to one space can shift byte offsets, so index
            // defensively.
            if raw
                .get(column - 1..)
                .is_some_and(|r| r.starts_with("expect(\"\")"))
            {
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    "`.expect(\"\")` carries no invariant; state why the failure is \
                     impossible or return a typed error"
                        .to_string(),
                    out,
                );
            }
        }
        for (line, column) in file.find_ident("panic") {
            if file.is_test_code(line) {
                continue;
            }
            let text = &file.masked[line - 1];
            if text[column - 1 + "panic".len()..].starts_with('!') {
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    "`panic!` in library code; prefer a typed error (panics are \
                     acceptable only for documented invariant violations)"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

/// Rule 6 — `float-accumulation-order`.
///
/// Floating-point addition is not associative: folding or summing floats
/// out of an unordered collection produces run-dependent low bits, which
/// then leak into serialized results. Accumulate over ordered containers
/// or sort first.
pub struct FloatAccumulationOrder;

impl Rule for FloatAccumulationOrder {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "float-accumulation-order",
            severity: Severity::Warning,
            summary: "fold/sum over float iterators derived from unordered collections; \
                      float addition is order-sensitive, iterate a BTree* or sort first",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        // Identifiers bound to Hash* containers anywhere in the file.
        let mut hash_idents: Vec<String> = Vec::new();
        for (i, _) in file.find_ident("HashMap") {
            if let Some(name) = binding_name(&file.masked[i - 1]) {
                hash_idents.push(name);
            }
        }
        for (i, _) in file.find_ident("HashSet") {
            if let Some(name) = binding_name(&file.masked[i - 1]) {
                hash_idents.push(name);
            }
        }
        for (i, masked) in file.masked.iter().enumerate() {
            let line = i + 1;
            if file.is_test_code(line) {
                continue;
            }
            let accumulates = masked.contains(".sum::<f64>()")
                || masked.contains(".sum::<f32>()")
                || masked.contains(".fold(");
            if !accumulates {
                continue;
            }
            let from_hash_ident = hash_idents.iter().any(|id| {
                [
                    ".iter()",
                    ".values()",
                    ".keys()",
                    ".into_iter()",
                    ".drain()",
                ]
                .iter()
                .any(|m| masked.contains(&format!("{id}{m}")))
            });
            let inline_hash = masked.contains("HashMap") || masked.contains("HashSet");
            if from_hash_ident || inline_hash {
                let column = masked
                    .find(".fold(")
                    .or_else(|| masked.find(".sum::"))
                    .map_or(1, |p| p + 1);
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    "float accumulation over an unordered collection: addition order \
                     varies per run and perturbs low bits of emitted results; iterate \
                     a BTree* container or sort before accumulating"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

/// Rule 7 — `machine-construction-discipline`.
///
/// Non-test code must obtain machines through the bench `Scenario`
/// layer (`crates/bench/src/scenario.rs`), which owns root-seed policy,
/// labelled seed derivation, and telemetry installation. A scattered
/// `Machine::new(model, <ad-hoc seed>)` silently forks the seed policy:
/// two call sites can collide on a seed (correlated "independent" runs)
/// or drift apart when the root seed changes. Code that sits below the
/// bench crate in the dependency graph and genuinely cannot use the
/// Scenario layer documents why and suppresses the rule.
pub struct MachineConstructionDiscipline;

impl Rule for MachineConstructionDiscipline {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "machine-construction-discipline",
            severity: Severity::Warning,
            summary: "Machine::new/new_unit outside crates/bench/src/scenario.rs and test \
                      code; construct machines through the bench Scenario layer",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.path == "crates/bench/src/scenario.rs" {
            return;
        }
        for (line, column) in file.find_ident("Machine") {
            if file.is_test_code(line) {
                continue;
            }
            let after = &file.masked[line - 1][column - 1 + "Machine".len()..];
            let ctor = if after.starts_with("::new(") {
                "new"
            } else if after.starts_with("::new_unit(") {
                "new_unit"
            } else {
                continue;
            };
            emit(
                file,
                self.meta(),
                line,
                column,
                format!(
                    "`Machine::{ctor}` outside the Scenario layer forks the seed policy; \
                     use `Scenario::machine`/`machine_for` (crates/bench/src/scenario.rs) \
                     so seeds stay derived, labelled and collision-free"
                ),
                out,
            );
        }
    }
}

/// Rule 8 — `hot-path-transcendentals`.
///
/// The simulator's per-batch hot paths (`run_batch*`, `run_imul*`,
/// `poll*`) are called millions of times per characterization sweep,
/// and the crypto victims' `execute_imul` once per modular multiply;
/// the slack table and the engine's victim memo exist precisely so they
/// never evaluate the alpha-power delay model (`powf`) or the
/// fault-band sigmoid (`exp`/`ln`) inline. A transcendental call creeping back into one of
/// those functions silently undoes the optimization — the results stay
/// identical, only the sweep gets slow again — so the lint, not a perf
/// regression six PRs later, is what catches it. The table module
/// (`crates/cpu/src/slack.rs`) is exempt: it is the one place allowed
/// to pay the analytic cost, once per grid point per process.
pub struct HotPathTranscendentals;

/// Function-name prefixes whose bodies count as hot paths: the batch
/// entry points, the victim's per-multiply `execute_imul` and polling.
const HOT_PATH_FN_PREFIXES: [&str; 4] = ["run_batch", "run_imul", "execute_imul", "poll"];

impl Rule for HotPathTranscendentals {
    fn meta(&self) -> RuleMeta {
        RuleMeta {
            id: "hot-path-transcendentals",
            severity: Severity::Error,
            summary: "powf/exp/ln calls banned in code reachable from the \
                      characterize*/run_cells/run_batch*/run_imul*/execute_imul/poll*/\
                      run_workload*/advance* entry points (call-graph reachability); \
                      precompute via the slack table",
        }
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !is_sim_crate(file) || file.path == "crates/cpu/src/slack.rs" {
            return;
        }
        let enclosing = enclosing_fn_names(file);
        for ident in ["powf", "exp", "ln"] {
            for (line, column) in file.find_ident(ident) {
                if file.is_test_code(line) {
                    continue;
                }
                // Only method-call position (`.powf(`, `.exp()`, `.ln()`):
                // bare identifiers named `exp`/`ln` are not transcendentals.
                let text = &file.masked[line - 1];
                let is_method = text[..column - 1].trim_end().ends_with('.');
                let is_call = text[column - 1 + ident.len()..].starts_with('(');
                if !(is_method && is_call) {
                    continue;
                }
                let Some(fn_name) = &enclosing[line - 1] else {
                    continue;
                };
                if !HOT_PATH_FN_PREFIXES.iter().any(|p| fn_name.starts_with(p)) {
                    continue;
                }
                emit(
                    file,
                    self.meta(),
                    line,
                    column,
                    format!(
                        "`.{ident}()` inside hot path `{fn_name}`: batch loops must not \
                         evaluate transcendentals per call — precompute the value in the \
                         slack table (crates/cpu/src/slack.rs) or hoist it out of the loop"
                    ),
                    out,
                );
            }
        }
    }
}

/// For each line, the name of the innermost enclosing `fn`, tracked by
/// brace depth over the masked source (strings and comments are already
/// blanked, so every brace is structural).
fn enclosing_fn_names(file: &SourceFile) -> Vec<Option<String>> {
    let mut result = Vec::with_capacity(file.masked.len());
    let mut depth = 0usize;
    // (fn name, depth of its body's opening brace)
    let mut stack: Vec<(String, usize)> = Vec::new();
    // A declared fn whose body brace has not opened yet (signature may
    // span lines).
    let mut pending: Option<String> = None;
    for masked in &file.masked {
        result.push(stack.last().map(|(name, _)| name.clone()));
        // One in-order pass: `fn` declarations and braces must be seen
        // in source order, or `impl Foo { fn bar() {` would attach the
        // pending name to the impl block's brace.
        let bytes = masked.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    depth += 1;
                    if let Some(name) = pending.take() {
                        stack.push((name, depth));
                    }
                    i += 1;
                }
                b'}' => {
                    if stack.last().is_some_and(|(_, d)| *d == depth) {
                        stack.pop();
                    }
                    depth = depth.saturating_sub(1);
                    i += 1;
                }
                b'f' if masked[i..].starts_with("fn ") => {
                    let token_ok = i == 0
                        || !masked[..i]
                            .chars()
                            .next_back()
                            .is_some_and(|c| c.is_alphanumeric() || c == '_');
                    let name: String = masked[i + 3..]
                        .trim_start()
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if token_ok && !name.is_empty() {
                        pending = Some(name);
                    }
                    i += 3;
                }
                _ => i += 1,
            }
        }
    }
    result
}

/// For a masked line like `let totals: HashMap<…> = …` or
/// `let mut seen = HashSet::new()`, the bound identifier.
fn binding_name(masked_line: &str) -> Option<String> {
    let after_let = masked_line.trim_start().strip_prefix("let ")?;
    let after_mut = after_let
        .trim_start()
        .strip_prefix("mut ")
        .unwrap_or(after_let);
    let name: String = after_mut
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::new(path, src);
        let mut out = Vec::new();
        for rule in registry() {
            rule.check(&file, &mut out);
        }
        out
    }

    #[test]
    fn clean_sim_code_has_no_findings() {
        let findings = scan(
            "crates/des/src/clock.rs",
            "use crate::time::SimTime;\npub fn tick(t: SimTime) -> SimTime { t }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn hex_literal_boundaries() {
        let file = SourceFile::new("crates/cpu/src/x.rs", "let a = 0x1500; let b = 0x150;\n");
        let hits = find_hex_literal(&file, "0x150");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0], (1, 25));
    }

    #[test]
    fn hot_path_transcendentals_flags_only_hot_fns() {
        let src = "pub fn run_batch(v: f64) -> f64 {\n    v.powf(2.0)\n}\n\
                   pub fn build_table(v: f64) -> f64 {\n    v.powf(2.0)\n}\n\
                   pub fn poll_core(p: f64) -> f64 {\n    (-p).exp()\n}\n";
        let findings = scan("crates/cpu/src/package.rs", src);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "hot-path-transcendentals")
            .collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[1].line, 8);
    }

    #[test]
    fn hot_path_transcendentals_covers_the_victim_imul() {
        // The crypto victims' per-multiply entry point is a hot path:
        // an inline transcendental there is flagged, one in a helper
        // it calls is left to the call-graph half.
        let src = "pub fn execute_imul(v: f64) -> f64 {\n    v.powf(1.3) + fill(v)\n}\n\
                   fn fill(v: f64) -> f64 {\n    v.exp()\n}\n";
        let findings = scan("crates/cpu/src/exec.rs", src);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "hot-path-transcendentals")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
        assert!(hits[0].message.contains("`execute_imul`"), "{hits:?}");
    }

    #[test]
    fn hot_path_transcendentals_exempts_table_build_and_non_sim() {
        let src = "pub fn run_imul_loop(v: f64) -> f64 {\n    v.exp()\n}\n";
        // The table-build module is the sanctioned analytic site.
        assert!(scan("crates/cpu/src/slack.rs", src)
            .iter()
            .all(|f| f.rule != "hot-path-transcendentals"));
        // Non-simulation crates are out of scope.
        assert!(scan("crates/bench/src/perf.rs", src)
            .iter()
            .all(|f| f.rule != "hot-path-transcendentals"));
        // Bare identifiers named `exp`/`ln` are not method calls.
        let src = "pub fn poll_once(exp: f64, ln: f64) -> f64 {\n    exp + ln\n}\n";
        assert!(scan("crates/core/src/poll.rs", src)
            .iter()
            .all(|f| f.rule != "hot-path-transcendentals"));
    }

    #[test]
    fn enclosing_fn_tracking_handles_inline_impl_braces() {
        let file = SourceFile::new(
            "crates/cpu/src/x.rs",
            "impl Foo { fn run_batch(&self) {\n    self.v.powf(2.0);\n} }\n\
             fn outside(v: f64) -> f64 { v.powf(2.0) }\n",
        );
        let names = enclosing_fn_names(&file);
        assert_eq!(names[1].as_deref(), Some("run_batch"));
        let mut out = Vec::new();
        HotPathTranscendentals.check(&file, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn binding_name_extraction() {
        assert_eq!(
            binding_name("    let mut totals: HashMap<u32, f64> = HashMap::new();"),
            Some("totals".to_string())
        );
        assert_eq!(
            binding_name("let seen = HashSet::new();"),
            Some("seen".to_string())
        );
        assert_eq!(binding_name("totals.insert(1, 2.0);"), None);
    }
}
