//! Hierarchical span tracer and self-profiler with **dual accounting**.
//!
//! Every span carries two clocks:
//!
//! * **Sim time** (picoseconds of [`plugvolt_des::time::SimTime`]): the
//!   deterministic channel. A span's sim total is the simulated-clock
//!   delta between enter and exit plus any explicitly attributed sim
//!   cost ([`Tracer::record_span`]) inside its subtree. Because every
//!   input is derived from the DES clock, aggregates are byte-identical
//!   across runs *and across worker counts* (sharded sweeps merge in
//!   frequency order via [`Tracer::absorb`]) — this channel is eligible
//!   for golden pinning and feeds the [`SpanProfile`], the Chrome trace
//!   export and the streaming frames.
//! * **Wall time** (host nanoseconds): the profiling channel. It exists
//!   to answer "where does the *host* CPU go" for the bench attribution
//!   table and is explicitly **non-golden**: it never appears in
//!   [`SpanProfile`] serialization, Chrome traces, or stream frames —
//!   only in [`Tracer::rows`] for live table rendering.
//!
//! Recording is cost-free on the simulation clock, like the metric
//! registry: opening a span never charges stolen time, so an
//! instrumented run is cycle-identical to an uninstrumented one (the
//! kernel tests pin exact stolen-time totals with tracing on the
//! default path).
//!
//! Span labels are part of the observability schema: every label passed
//! to [`Tracer::span`]/[`Tracer::record_span`] from the cpu/kernel/core
//! crates must be declared in [`crate::keys::REGISTERED_SPANS`], both
//! directions checked by `plugvolt-lint`'s `telemetry-key-registry`
//! rule.
//!
//! Hot-path discipline mirrors the PR 4 hot counters: a disabled tracer
//! costs one `Cell` load per site (no allocation, no `Instant` read, no
//! `RefCell` borrow), and the enabled-path overhead is measured by the
//! `span-overhead` bench and gated by the CI decay check.

use plugvolt_des::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Version of the [`SpanProfile`] JSON layout (and the span rows
/// embedded in stream frames). Bump on any breaking change.
pub const SPAN_SCHEMA_VERSION: u32 = 1;

/// Process-wide default for whether freshly created tracers start
/// enabled. Machines boot private [`crate::Sink`]s internally (e.g. the
/// Table 2 harness), so per-sink toggles cannot reach them; the bench
/// harness flips this global around its tracer-on arm instead, exactly
/// like `set_hot_path_enabled`.
static SPAN_TRACING_DEFAULT: AtomicBool = AtomicBool::new(false);

/// Sets the process-wide default for new tracers (see
/// [`span_tracing_default`]). Existing tracers are unaffected.
pub fn set_span_tracing_default(on: bool) {
    SPAN_TRACING_DEFAULT.store(on, Ordering::SeqCst);
}

/// Whether tracers created from now on start enabled.
#[must_use]
pub fn span_tracing_default() -> bool {
    SPAN_TRACING_DEFAULT.load(Ordering::Relaxed)
}

/// One node of the aggregate span tree: a `(parent, label)` pair with
/// dual-accounted totals.
#[derive(Debug)]
struct SpanNode {
    label: &'static str,
    /// Child node indices, in first-open order.
    children: Vec<usize>,
    /// Completed enters (guards dropped plus point records).
    count: u64,
    /// Sim-clock total: enter→exit delta plus attributed sim cost in
    /// the subtree.
    total_ps: u64,
    /// Sim-clock total minus completed labelled children's totals.
    self_ps: u64,
    /// Host-clock total (non-golden channel; guards only).
    wall_total_ns: u64,
    /// Host-clock self time (non-golden channel; guards only).
    wall_self_ns: u64,
}

impl SpanNode {
    fn new(label: &'static str) -> Self {
        SpanNode {
            label,
            children: Vec::new(),
            count: 0,
            total_ps: 0,
            self_ps: 0,
            wall_total_ns: 0,
            wall_self_ns: 0,
        }
    }
}

/// Bookkeeping for one open [`SpanGuard`] on the stack.
#[derive(Debug)]
struct ActiveSpan {
    node: usize,
    enter_sim_ps: u64,
    /// Sim cost attributed inside this span's subtree so far.
    charged_ps: u64,
    /// Sim totals of completed labelled children (for self time).
    child_total_ps: u64,
    /// Wall totals of completed child guards (for wall self time).
    child_wall_ns: u64,
    wall_enter: Instant,
}

/// One captured span occurrence on the deterministic sim timeline —
/// the raw material of the Chrome trace export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Registered span label.
    pub label: &'static str,
    /// Stack depth at emission (0 = top level), for trace readability.
    pub depth: u32,
    /// Sim time at span enter, picoseconds.
    pub start_ps: u64,
    /// Sim-clock duration (enter→exit delta; point records use their
    /// attributed cost).
    pub dur_ps: u64,
}

#[derive(Debug)]
struct TracerInner {
    enabled: Cell<bool>,
    sim_now_ps: Cell<u64>,
    nodes: RefCell<Vec<SpanNode>>,
    stack: RefCell<Vec<ActiveSpan>>,
    capture: RefCell<Vec<SpanEvent>>,
    /// 0 = capture off.
    capture_capacity: Cell<usize>,
    /// Span records lost to capture-buffer overflow (mirrors
    /// `TraceBuffer::dropped`); surfaced as `spans_dropped` in profiles.
    dropped: Cell<u64>,
}

/// A cheaply cloneable handle to one span tree. Every clone of a
/// [`crate::Sink`] shares one tracer, exactly like the metric registry.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Rc<TracerInner>,
}

impl Default for Tracer {
    /// A fresh tracer, enabled according to [`span_tracing_default`].
    fn default() -> Self {
        Tracer {
            inner: Rc::new(TracerInner {
                enabled: Cell::new(span_tracing_default()),
                sim_now_ps: Cell::new(0),
                nodes: RefCell::new(vec![SpanNode::new("")]),
                stack: RefCell::new(Vec::new()),
                capture: RefCell::new(Vec::new()),
                capture_capacity: Cell::new(0),
                dropped: Cell::new(0),
            }),
        }
    }
}

impl Tracer {
    /// A fresh, empty tracer (enabled per [`span_tracing_default`]).
    #[must_use]
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Turns recording on or off for this tracer (all sink clones).
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.set(on);
    }

    /// Whether this tracer records spans.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Advances the tracer's view of the simulated clock. Called by the
    /// machine wherever `now` moves; a plain `Cell` store, cheap enough
    /// for every timer firing.
    pub fn set_sim_now(&self, now: SimTime) {
        self.inner.sim_now_ps.set(now.as_picos());
    }

    /// Opens a hierarchical span. Sim total is the simulated-clock
    /// delta until the guard drops, plus any cost attributed inside;
    /// wall total is the host-clock delta (non-golden channel).
    #[must_use]
    pub fn span(&self, label: &'static str) -> SpanGuard {
        if !self.inner.enabled.get() {
            return SpanGuard { tracer: None };
        }
        let mut stack = self.inner.stack.borrow_mut();
        let parent = stack.last().map_or(0, |a| a.node);
        let node = self.child_node(parent, label);
        stack.push(ActiveSpan {
            node,
            enter_sim_ps: self.inner.sim_now_ps.get(),
            charged_ps: 0,
            child_total_ps: 0,
            child_wall_ns: 0,
            wall_enter: Instant::now(),
        });
        drop(stack);
        SpanGuard {
            tracer: Some(self.clone()),
        }
    }

    /// Point-records one occurrence of `label` under the currently open
    /// span, attributing `sim_ps` of simulated cost to it. This is the
    /// batched hot-path form: no guard, no `Instant` read, and the
    /// attributed cost propagates into every enclosing span's total
    /// (the wall channel is untouched). Used for costs the sim clock
    /// never "passes through" — explicitly charged MSR access flows,
    /// slew retargets, timer-queue churn.
    pub fn record_span(&self, label: &'static str, sim_ps: u64) {
        if !self.inner.enabled.get() {
            return;
        }
        let (depth, parent) = {
            let mut stack = self.inner.stack.borrow_mut();
            let depth = stack.len() as u32;
            let parent = match stack.last_mut() {
                Some(top) => {
                    top.charged_ps += sim_ps;
                    top.child_total_ps += sim_ps;
                    top.node
                }
                None => 0,
            };
            (depth, parent)
        };
        let node = self.child_node(parent, label);
        {
            let mut nodes = self.inner.nodes.borrow_mut();
            let n = &mut nodes[node];
            n.count += 1;
            n.total_ps += sim_ps;
            n.self_ps += sim_ps;
        }
        self.capture_event(label, depth, self.inner.sim_now_ps.get(), sim_ps);
    }

    /// Turns the bounded capture buffer on (`capacity > 0`) or off.
    /// Captured [`SpanEvent`]s feed the Chrome trace export; overflow
    /// increments [`Tracer::dropped`] instead of growing without bound.
    pub fn enable_capture(&self, capacity: usize) {
        self.inner.capture_capacity.set(capacity);
    }

    /// Whether the bounded capture buffer is on (see
    /// [`enable_capture`](Self::enable_capture)).
    #[must_use]
    pub fn capture_enabled(&self) -> bool {
        self.inner.capture_capacity.get() > 0
    }

    /// Starts measuring a [`SpanDelta`]: snapshots every node's sim
    /// totals and the open stack's accumulators.
    #[must_use]
    pub fn begin_delta(&self) -> SpanDelta {
        SpanDelta {
            nodes: self
                .inner
                .nodes
                .borrow()
                .iter()
                .enumerate()
                .map(|(i, n)| (i, n.count, n.total_ps, n.self_ps))
                .collect(),
            stack: self
                .inner
                .stack
                .borrow()
                .iter()
                .map(|a| (a.charged_ps, a.child_total_ps))
                .collect(),
        }
    }

    /// Turns the snapshot taken by [`begin_delta`](Self::begin_delta)
    /// into the sim-channel increments recorded since. Returns `false`
    /// when the open stack changed depth in between, i.e. the measured
    /// stretch opened or closed an enclosing span and cannot be
    /// replayed.
    pub fn end_delta(&self, delta: &mut SpanDelta) -> bool {
        let stack = self.inner.stack.borrow();
        if stack.len() != delta.stack.len() {
            return false;
        }
        for (d, a) in delta.stack.iter_mut().zip(stack.iter()) {
            *d = (a.charged_ps - d.0, a.child_total_ps - d.1);
        }
        let nodes = self.inner.nodes.borrow();
        let known = delta.nodes.len();
        for (d, n) in delta.nodes.iter_mut().zip(nodes.iter()) {
            *d = (d.0, n.count - d.1, n.total_ps - d.2, n.self_ps - d.3);
        }
        delta.nodes.extend(
            nodes
                .iter()
                .enumerate()
                .skip(known)
                .map(|(i, n)| (i, n.count, n.total_ps, n.self_ps)),
        );
        delta.nodes.retain(|&(_, c, t, s)| (c, t, s) != (0, 0, 0));
        true
    }

    /// Adds `n` repetitions of `delta` to the aggregate tree and the
    /// open stack — exactly what `n` more runs of the measured stretch
    /// would record on the sim channel. The wall channel is left
    /// alone: replayed work spends no host time in those spans.
    pub fn replay_delta(&self, delta: &SpanDelta, n: u64) {
        if n == 0 {
            return;
        }
        {
            let mut nodes = self.inner.nodes.borrow_mut();
            for &(i, c, t, s) in &delta.nodes {
                let node = &mut nodes[i];
                node.count += c * n;
                node.total_ps += t * n;
                node.self_ps += s * n;
            }
        }
        for (a, &(charged, child_total)) in
            self.inner.stack.borrow_mut().iter_mut().zip(&delta.stack)
        {
            a.charged_ps += charged * n;
            a.child_total_ps += child_total * n;
        }
    }

    /// A copy of the captured span events, in completion order.
    #[must_use]
    pub fn capture(&self) -> Vec<SpanEvent> {
        self.inner.capture.borrow().clone()
    }

    /// Span records lost to capture-buffer overflow.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// Flattened aggregate rows in depth-first tree order, both
    /// accounting channels included. The `path` joins labels from the
    /// outermost enclosing span with `';'` (collapsed-stack style).
    #[must_use]
    pub fn rows(&self) -> Vec<SpanRow> {
        let nodes = self.inner.nodes.borrow();
        let mut out = Vec::new();
        let mut pending: Vec<(usize, String)> = nodes[0]
            .children
            .iter()
            .rev()
            .map(|&c| (c, String::new()))
            .collect();
        while let Some((idx, prefix)) = pending.pop() {
            let n = &nodes[idx];
            let path = if prefix.is_empty() {
                n.label.to_string()
            } else {
                format!("{prefix};{}", n.label)
            };
            out.push(SpanRow {
                path: path.clone(),
                label: n.label,
                count: n.count,
                total_ps: n.total_ps,
                self_ps: n.self_ps,
                wall_total_ns: n.wall_total_ns,
                wall_self_ns: n.wall_self_ns,
            });
            for &c in n.children.iter().rev() {
                pending.push((c, path.clone()));
            }
        }
        out
    }

    /// A plain-data, `Send` snapshot of the aggregate tree, for
    /// carrying span totals out of worker-thread shards.
    #[must_use]
    pub fn snapshot(&self) -> SpanSnapshot {
        let nodes = self.inner.nodes.borrow();
        let mut rows = Vec::new();
        let mut pending: Vec<(usize, Vec<&'static str>)> = nodes[0]
            .children
            .iter()
            .rev()
            .map(|&c| (c, Vec::new()))
            .collect();
        while let Some((idx, prefix)) = pending.pop() {
            let n = &nodes[idx];
            let mut path = prefix.clone();
            path.push(n.label);
            rows.push(SnapshotRow {
                path: path.clone(),
                count: n.count,
                total_ps: n.total_ps,
                self_ps: n.self_ps,
                wall_total_ns: n.wall_total_ns,
                wall_self_ns: n.wall_self_ns,
            });
            for &c in n.children.iter().rev() {
                pending.push((c, path.clone()));
            }
        }
        SpanSnapshot {
            rows,
            dropped: self.inner.dropped.get(),
        }
    }

    /// Merges a shard's snapshot into this tracer's aggregate tree.
    /// Callers must absorb shards in a deterministic order (the sharded
    /// sweep merges in frequency order) so first-seen node creation —
    /// and therefore nothing observable, since profiles sort by path —
    /// is reproducible.
    pub fn absorb(&self, snap: &SpanSnapshot) {
        for row in &snap.rows {
            let mut node = 0;
            for label in &row.path {
                node = self.child_node(node, label);
            }
            let mut nodes = self.inner.nodes.borrow_mut();
            let n = &mut nodes[node];
            n.count += row.count;
            n.total_ps += row.total_ps;
            n.self_ps += row.self_ps;
            n.wall_total_ns += row.wall_total_ns;
            n.wall_self_ns += row.wall_self_ns;
        }
        self.inner
            .dropped
            .set(self.inner.dropped.get() + snap.dropped);
    }

    /// Clears aggregates, capture buffer and the drop counter (open
    /// guards keep working against the cleared tree). The bench harness
    /// resets between arms.
    pub fn reset(&self) {
        self.inner.nodes.replace(vec![SpanNode::new("")]);
        self.inner.stack.borrow_mut().clear();
        self.inner.capture.borrow_mut().clear();
        self.inner.dropped.set(0);
    }

    /// Interns the child of `parent` labelled `label`.
    fn child_node(&self, parent: usize, label: &'static str) -> usize {
        let mut nodes = self.inner.nodes.borrow_mut();
        if let Some(&c) = nodes[parent]
            .children
            .iter()
            .find(|&&c| nodes[c].label == label)
        {
            return c;
        }
        let idx = nodes.len();
        nodes.push(SpanNode::new(label));
        nodes[parent].children.push(idx);
        idx
    }

    fn capture_event(&self, label: &'static str, depth: u32, start_ps: u64, dur_ps: u64) {
        let cap = self.inner.capture_capacity.get();
        if cap == 0 {
            return;
        }
        let mut buf = self.inner.capture.borrow_mut();
        if buf.len() >= cap {
            self.inner.dropped.set(self.inner.dropped.get() + 1);
        } else {
            buf.push(SpanEvent {
                label,
                depth,
                start_ps,
                dur_ps,
            });
        }
    }

    /// Closes the guard opened by [`Tracer::span`].
    fn exit(&self) {
        let Some(top) = self.inner.stack.borrow_mut().pop() else {
            return;
        };
        let sim_delta = self.inner.sim_now_ps.get().saturating_sub(top.enter_sim_ps);
        let total_ps = sim_delta + top.charged_ps;
        let self_ps = total_ps.saturating_sub(top.child_total_ps);
        let wall_ns = u64::try_from(top.wall_enter.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let wall_self_ns = wall_ns.saturating_sub(top.child_wall_ns);
        let depth = {
            let mut stack = self.inner.stack.borrow_mut();
            if let Some(parent) = stack.last_mut() {
                parent.charged_ps += top.charged_ps;
                parent.child_total_ps += total_ps;
                parent.child_wall_ns += wall_ns;
            }
            stack.len() as u32
        };
        let label = {
            let mut nodes = self.inner.nodes.borrow_mut();
            let n = &mut nodes[top.node];
            n.count += 1;
            n.total_ps += total_ps;
            n.self_ps += self_ps;
            n.wall_total_ns += wall_ns;
            n.wall_self_ns += wall_self_ns;
            n.label
        };
        self.capture_event(label, depth, top.enter_sim_ps, sim_delta);
    }
}

/// The sim-channel effect of one measured stretch of span activity
/// (see [`Tracer::begin_delta`], [`Tracer::end_delta`] and
/// [`Tracer::replay_delta`]): per-node count/total/self increments plus
/// the increments of the enclosing open spans' accumulators. The kernel
/// measures one quiet timer tick this way and replays it in bulk.
#[derive(Debug, Clone)]
pub struct SpanDelta {
    /// `(node, count, total_ps, self_ps)`: a snapshot between
    /// `begin_delta` and `end_delta`, increments after.
    nodes: Vec<(usize, u64, u64, u64)>,
    /// `(charged_ps, child_total_ps)` per open stack level, bottom
    /// first; a snapshot, then increments.
    stack: Vec<(u64, u64)>,
}

/// RAII guard for one open span; closes it on drop. Inert (a single
/// `Option` check) when the tracer was disabled at open time.
#[must_use = "a span guard measures until it is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Option<Tracer>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t) = &self.tracer {
            t.exit();
        }
    }
}

/// One flattened aggregate row, **both** accounting channels (the wall
/// fields never reach serialized artifacts — see [`SpanProfile`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// `';'`-joined label path from the outermost enclosing span.
    pub path: String,
    /// This row's own label (last path segment).
    pub label: &'static str,
    /// Completed occurrences.
    pub count: u64,
    /// Deterministic sim-clock total, picoseconds.
    pub total_ps: u64,
    /// Sim total minus labelled children's totals, picoseconds.
    pub self_ps: u64,
    /// Host-clock total, nanoseconds (non-golden).
    pub wall_total_ns: u64,
    /// Host-clock self time, nanoseconds (non-golden).
    pub wall_self_ns: u64,
}

/// Plain-data row of a [`SpanSnapshot`].
#[derive(Debug, Clone)]
struct SnapshotRow {
    path: Vec<&'static str>,
    count: u64,
    total_ps: u64,
    self_ps: u64,
    wall_total_ns: u64,
    wall_self_ns: u64,
}

/// A `Send` carrier of one tracer's aggregates, produced by
/// [`Tracer::snapshot`] inside a worker shard and merged on the
/// coordinating thread with [`Tracer::absorb`].
#[derive(Debug, Clone)]
pub struct SpanSnapshot {
    rows: Vec<SnapshotRow>,
    dropped: u64,
}

impl SpanSnapshot {
    /// Whether the snapshot carries no spans at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.dropped == 0
    }
}

/// One serialized span aggregate: sim channel only.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanProfileRow {
    /// `';'`-joined label path (collapsed-stack style); parent→child
    /// edges are recoverable from path prefixes.
    pub path: String,
    /// Last path segment.
    pub label: String,
    /// Completed occurrences.
    pub count: u64,
    /// Deterministic sim-clock total, picoseconds.
    pub total_ps: u64,
    /// Sim total minus labelled children's totals, picoseconds.
    pub self_ps: u64,
}

/// The pinned-schema span aggregate export. Only the deterministic
/// sim-time channel is serialized — the wall-clock channel is excluded
/// by construction, so this artifact is eligible for golden pinning
/// and byte-identical across worker counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanProfile {
    /// Layout version; see [`SPAN_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// The experiment (or tool) that produced the profile.
    pub experiment: String,
    /// Aggregate rows sorted by `path`.
    pub spans: Vec<SpanProfileRow>,
    /// Span records lost to capture-buffer overflow.
    pub spans_dropped: u64,
}

impl SpanProfile {
    /// Snapshots `tracer` under the experiment name `experiment`,
    /// dropping the wall-clock channel and sorting rows by path.
    #[must_use]
    pub fn from_tracer(tracer: &Tracer, experiment: &str) -> Self {
        let mut spans: Vec<SpanProfileRow> = tracer
            .rows()
            .into_iter()
            .map(|r| SpanProfileRow {
                path: r.path,
                label: r.label.to_string(),
                count: r.count,
                total_ps: r.total_ps,
                self_ps: r.self_ps,
            })
            .collect();
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        SpanProfile {
            schema_version: SPAN_SCHEMA_VERSION,
            experiment: experiment.to_string(),
            spans,
            spans_dropped: tracer.dropped(),
        }
    }

    /// Serializes to pretty, deterministic JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("span profile serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plugvolt_des::time::SimDuration;

    fn enabled_tracer() -> Tracer {
        let t = Tracer::new();
        t.set_enabled(true);
        t
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert!(!t.is_enabled(), "tracers default to the global default");
        {
            let _g = t.span("outer");
            t.record_span("inner", 5);
        }
        assert!(t.rows().is_empty());
    }

    #[test]
    fn sim_deltas_and_charges_aggregate_hierarchically() {
        let t = enabled_tracer();
        t.set_sim_now(SimTime::ZERO);
        {
            let _outer = t.span("outer");
            t.set_sim_now(SimTime::ZERO + SimDuration::from_picos(100));
            {
                let _inner = t.span("inner");
                t.set_sim_now(SimTime::ZERO + SimDuration::from_picos(160));
                t.record_span("leaf", 7);
            }
            t.set_sim_now(SimTime::ZERO + SimDuration::from_picos(200));
        }
        let rows = t.rows();
        let get = |path: &str| rows.iter().find(|r| r.path == path).expect("row exists");
        let outer = get("outer");
        // 200 ps of sim delta plus the 7 ps attributed in the subtree.
        assert_eq!(outer.count, 1);
        assert_eq!(outer.total_ps, 207);
        // Self excludes the completed child (60 + 7 = 67).
        assert_eq!(outer.self_ps, 140);
        let inner = get("outer;inner");
        assert_eq!(inner.total_ps, 67);
        assert_eq!(inner.self_ps, 60);
        let leaf = get("outer;inner;leaf");
        assert_eq!(leaf.count, 1);
        assert_eq!(leaf.total_ps, 7);
        assert_eq!(leaf.self_ps, 7);
    }

    #[test]
    fn snapshot_absorb_matches_direct_recording() {
        let shard = enabled_tracer();
        shard.set_sim_now(SimTime::ZERO);
        {
            let _g = shard.span("work");
            shard.set_sim_now(SimTime::ZERO + SimDuration::from_picos(50));
            shard.record_span("sub", 3);
        }
        let parent = enabled_tracer();
        parent.absorb(&shard.snapshot());
        parent.absorb(&shard.snapshot());
        let rows = parent.rows();
        let work = rows.iter().find(|r| r.path == "work").expect("absorbed");
        assert_eq!(work.count, 2);
        assert_eq!(work.total_ps, 106);
        let sub = rows.iter().find(|r| r.path == "work;sub").expect("child");
        assert_eq!(sub.total_ps, 6);
    }

    #[test]
    fn capture_buffer_bounds_and_counts_drops() {
        let t = enabled_tracer();
        t.enable_capture(2);
        for _ in 0..5 {
            t.record_span("hot", 1);
        }
        assert_eq!(t.capture().len(), 2);
        assert_eq!(t.dropped(), 3);
        let profile = SpanProfile::from_tracer(&t, "unit");
        assert_eq!(profile.spans_dropped, 3);
        // The aggregate channel keeps counting past the capture bound.
        assert_eq!(profile.spans[0].count, 5);
    }

    #[test]
    fn profile_serialization_excludes_the_wall_channel() {
        let t = enabled_tracer();
        {
            let _g = t.span("outer");
            t.record_span("leaf", 9);
        }
        let rows = t.rows();
        assert!(rows.iter().any(|r| r.wall_total_ns > 0 || r.count > 0));
        let json = SpanProfile::from_tracer(&t, "unit").to_json();
        assert!(
            !json.contains("wall"),
            "wall-clock channel must never be serialized: {json}"
        );
    }

    #[test]
    fn profile_rows_sort_by_path_and_round_trip() {
        let t = enabled_tracer();
        t.record_span("zeta", 1);
        t.record_span("alpha", 2);
        let p = SpanProfile::from_tracer(&t, "unit");
        assert_eq!(p.spans[0].path, "alpha");
        assert_eq!(p.spans[1].path, "zeta");
        let back: SpanProfile = serde_json::from_str(&p.to_json()).expect("parses back");
        assert_eq!(back, p);
    }

    #[test]
    fn replayed_delta_equals_repeating_the_stretch() {
        let stretch = |t: &Tracer| {
            let _tick = t.span("tick");
            t.record_span("leaf", 7);
            let _inner = t.span("inner");
            t.record_span("leaf", 3);
        };
        let looped = enabled_tracer();
        let bulk = enabled_tracer();
        for t in [&looped, &bulk] {
            t.set_sim_now(SimTime::ZERO + SimDuration::from_picos(40));
        }
        let _outer_looped = looped.span("outer");
        let _outer_bulk = bulk.span("outer");
        for _ in 0..6 {
            stretch(&looped);
        }
        let mut delta = bulk.begin_delta();
        stretch(&bulk);
        assert!(bulk.end_delta(&mut delta));
        bulk.replay_delta(&delta, 5);
        drop(_outer_looped);
        drop(_outer_bulk);
        assert_eq!(
            SpanProfile::from_tracer(&bulk, "unit"),
            SpanProfile::from_tracer(&looped, "unit")
        );
        let outer = bulk.rows().into_iter().find(|r| r.path == "outer");
        assert_eq!(outer.map(|r| (r.count, r.total_ps)), Some((1, 60)));
    }

    #[test]
    fn delta_across_a_stack_change_is_not_replayable() {
        let t = enabled_tracer();
        let mut delta = t.begin_delta();
        let _open = t.span("left-open");
        assert!(!t.end_delta(&mut delta));
    }

    #[test]
    fn reset_clears_aggregates_and_drops() {
        let t = enabled_tracer();
        t.enable_capture(1);
        t.record_span("a", 1);
        t.record_span("b", 1);
        assert_eq!(t.dropped(), 1);
        t.reset();
        assert!(t.rows().is_empty());
        assert_eq!(t.dropped(), 0);
        assert!(t.capture().is_empty());
    }
}
