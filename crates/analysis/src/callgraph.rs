//! Workspace call graph and the reachability layer the cross-file
//! rules query.
//!
//! Edges are found by scanning each function body (masked text, so
//! strings and comments cannot fake calls) for call-shaped tokens:
//! `name(`, `.name(`, `name::<…>(` and `Type::name(`. A call token is
//! resolved *by name* against the [`SymbolIndex`] — every function with
//! that name, in any crate, gets an edge. This deliberately
//! over-approximates (no trait dispatch or path resolution, macro
//! bodies opaque, function pointers and closures invisible), which is
//! the safe direction for the determinism rules: reachability can only
//! claim too much code is hot, never miss a genuinely hot path that is
//! spelled as a direct call.
//!
//! [`CallGraph::reachable_from`] supports *boundary* functions whose
//! outgoing edges are not expanded — used to stop hot-path traversal at
//! the sanctioned table module (`crates/cpu/src/slack.rs`), which is
//! allowed to pay the analytic cost once per grid point per process.

use crate::index::{FnId, SymbolIndex};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name as written.
    pub callee_name: String,
    /// 1-based line of the call token.
    pub line: usize,
    /// 1-based column of the call token.
    pub column: usize,
    /// Whether the token was a method call (`.name(`).
    pub is_method: bool,
}

/// The workspace call graph over [`SymbolIndex`] function ids.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `edges[caller.0]` = resolved callee ids, deduplicated, sorted.
    edges: Vec<Vec<FnId>>,
    /// Raw call sites per caller (unresolved names included), for rules
    /// that inspect calls rather than reachability.
    sites: Vec<Vec<CallSite>>,
}

impl CallGraph {
    /// Builds the graph: scans every indexed function's body lines in
    /// `files` for call tokens and resolves them by name.
    #[must_use]
    pub fn build(files: &[SourceFile], index: &SymbolIndex) -> Self {
        let by_path: BTreeMap<&str, &SourceFile> =
            files.iter().map(|f| (f.path.as_str(), f)).collect();
        let mut edges = vec![Vec::new(); index.fns.len()];
        let mut sites = vec![Vec::new(); index.fns.len()];
        for sym in &index.fns {
            let Some(file) = by_path.get(sym.path.as_str()) else {
                continue;
            };
            let body_sites = scan_calls(file, sym.start_line, sym.end_line);
            let mut callees: BTreeSet<FnId> = BTreeSet::new();
            for site in &body_sites {
                for &callee in index.fns_named(&site.callee_name) {
                    if callee != sym.id {
                        callees.insert(callee);
                    }
                }
            }
            // A nested fn's body lines overlap its parent's span; drop
            // edges the parent only appears to have because a nested fn
            // (indexed separately) contains the call. Approximation:
            // keep them — nested fns are rare and over-approximate.
            edges[sym.id.0 as usize] = callees.into_iter().collect();
            sites[sym.id.0 as usize] = body_sites;
        }
        CallGraph { edges, sites }
    }

    /// Direct callees of `id`.
    #[must_use]
    pub fn callees(&self, id: FnId) -> &[FnId] {
        self.edges.get(id.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Raw call sites inside `id`'s body.
    #[must_use]
    pub fn call_sites(&self, id: FnId) -> &[CallSite] {
        self.sites.get(id.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Every function reachable from `entries` (inclusive), stopping at
    /// `boundaries`: a boundary function is itself reachable but its
    /// outgoing edges are not followed.
    #[must_use]
    pub fn reachable_from(&self, entries: &[FnId], boundaries: &BTreeSet<FnId>) -> BTreeSet<FnId> {
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for &e in entries {
            if seen.insert(e) {
                queue.push_back(e);
            }
        }
        while let Some(id) = queue.pop_front() {
            if boundaries.contains(&id) {
                continue;
            }
            for &callee in self.callees(id) {
                if seen.insert(callee) {
                    queue.push_back(callee);
                }
            }
        }
        seen
    }

    /// A shortest entry→target call path (function ids, entry first),
    /// respecting `boundaries`; `None` when unreachable. Used to attach
    /// a human-readable witness to reachability findings.
    #[must_use]
    pub fn witness_path(
        &self,
        entries: &[FnId],
        boundaries: &BTreeSet<FnId>,
        target: FnId,
    ) -> Option<Vec<FnId>> {
        let mut parent: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for &e in entries {
            if !parent.contains_key(&e) {
                parent.insert(e, None);
                queue.push_back(e);
            }
        }
        while let Some(id) = queue.pop_front() {
            if id == target {
                let mut path = vec![id];
                let mut cur = id;
                while let Some(Some(p)) = parent.get(&cur) {
                    path.push(*p);
                    cur = *p;
                }
                path.reverse();
                return Some(path);
            }
            if boundaries.contains(&id) {
                continue;
            }
            for &callee in self.callees(id) {
                if !parent.contains_key(&callee) {
                    parent.insert(callee, Some(id));
                    queue.push_back(callee);
                }
            }
        }
        None
    }
}

/// Rust keywords and common non-call tokens that look like `word(`.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "else", "fn", "in", "move", "let", "unsafe",
];

/// Scans masked lines `start..=end` (1-based, inclusive) of `file` for
/// call-shaped tokens.
fn scan_calls(file: &SourceFile, start_line: usize, end_line: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    let lo = start_line.saturating_sub(1);
    let hi = end_line.min(file.masked.len());
    for (offset, masked) in file.masked[lo..hi].iter().enumerate() {
        let line_no = lo + offset + 1;
        let bytes = masked.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if !(c.is_ascii_alphabetic() || c == '_') {
                i += 1;
                continue;
            }
            // Token start must not be mid-identifier.
            if i > 0 {
                let prev = bytes[i - 1] as char;
                if prev.is_ascii_alphanumeric() || prev == '_' {
                    i += 1;
                    while i < bytes.len()
                        && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    continue;
                }
            }
            let tok_start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let token = &masked[tok_start..i];
            // Skip turbofish `::<…>` between name and `(`.
            let mut j = i;
            if masked[j..].starts_with("::<") {
                let mut depth = 0usize;
                let mut k = j + 2;
                let b = masked.as_bytes();
                while k < b.len() {
                    match b[k] {
                        b'<' => depth += 1,
                        b'>' => {
                            depth -= 1;
                            if depth == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                j = k;
            }
            if !masked[j..].starts_with('(') {
                continue;
            }
            if NON_CALL_KEYWORDS.contains(&token) {
                continue;
            }
            // `fn name(` is a declaration, not a call.
            let before = masked[..tok_start].trim_end();
            if before.ends_with("fn") {
                continue;
            }
            let is_method = before.ends_with('.');
            out.push(CallSite {
                callee_name: token.to_string(),
                line: line_no,
                column: tok_start + 1,
                is_method,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, SymbolIndex, CallGraph) {
        let files: Vec<SourceFile> = srcs.iter().map(|(p, s)| SourceFile::new(p, s)).collect();
        let index = SymbolIndex::build(&files);
        let graph = CallGraph::build(&files, &index);
        (files, index, graph)
    }

    #[test]
    fn resolves_cross_file_calls_and_reachability() {
        let (_files, index, graph) = build(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry() {\n    helper();\n    Engine::run_batch(1);\n}\n\
                 pub fn helper() {\n    leaf::<u32>();\n}\n\
                 pub fn leaf() {}\n\
                 pub fn dead() {\n    leaf();\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub struct Engine;\nimpl Engine {\n    pub fn run_batch(n: u32) -> u32 {\n        deep(n)\n    }\n}\n\
                 pub fn deep(n: u32) -> u32 { n }\n",
            ),
        ]);
        let entry = index.fns_named("entry")[0];
        let reach = graph.reachable_from(&[entry], &BTreeSet::new());
        let names: Vec<&str> = reach
            .iter()
            .map(|id| index.symbol(*id).name.as_str())
            .collect();
        assert!(names.contains(&"helper"));
        assert!(names.contains(&"leaf"), "turbofish call resolved");
        assert!(names.contains(&"run_batch"), "Type::method call resolved");
        assert!(names.contains(&"deep"), "transitive cross-crate edge");
        assert!(!names.contains(&"dead"), "unreachable fn stays out");
    }

    #[test]
    fn boundaries_stop_expansion_but_stay_reachable() {
        let (_f, index, graph) = build(&[(
            "crates/a/src/lib.rs",
            "pub fn entry() {\n    boundary();\n}\n\
             pub fn boundary() {\n    past();\n}\n\
             pub fn past() {}\n",
        )]);
        let entry = index.fns_named("entry")[0];
        let boundary = index.fns_named("boundary")[0];
        let mut stops = BTreeSet::new();
        stops.insert(boundary);
        let reach = graph.reachable_from(&[entry], &stops);
        assert!(reach.contains(&boundary));
        assert!(!reach.contains(&index.fns_named("past")[0]));
    }

    #[test]
    fn witness_path_is_entry_to_target() {
        let (_f, index, graph) = build(&[(
            "crates/a/src/lib.rs",
            "pub fn entry() {\n    mid();\n}\npub fn mid() {\n    target();\n}\npub fn target() {}\n",
        )]);
        let entry = index.fns_named("entry")[0];
        let target = index.fns_named("target")[0];
        let path = graph
            .witness_path(&[entry], &BTreeSet::new(), target)
            .expect("reachable");
        let names: Vec<&str> = path
            .iter()
            .map(|id| index.symbol(*id).name.as_str())
            .collect();
        assert_eq!(names, ["entry", "mid", "target"]);
    }

    #[test]
    fn keywords_and_declarations_are_not_calls() {
        let (_f, index, graph) = build(&[(
            "crates/a/src/lib.rs",
            "pub fn f(x: bool) {\n    if (x) {\n        return;\n    }\n    while (x) {}\n}\n",
        )]);
        let f = index.fns_named("f")[0];
        assert!(graph.call_sites(f).is_empty(), "{:?}", graph.call_sites(f));
    }

    #[test]
    fn method_calls_are_flagged_as_methods() {
        let (_f, index, graph) = build(&[(
            "crates/a/src/lib.rs",
            "pub fn f(v: f64) -> f64 {\n    v.powf(2.0)\n}\n",
        )]);
        let f = index.fns_named("f")[0];
        let sites = graph.call_sites(f);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].is_method);
        assert_eq!(sites[0].callee_name, "powf");
    }
}
