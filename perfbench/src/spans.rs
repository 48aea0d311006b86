//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public
//! functions; nothing inside the program is instrumented. Each record
//! carries its name, layer, host start/end, parent and iteration id,
//! and the whole set is written out as JSONL when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// The repository layers whose public functions the workloads call
/// directly, named by module. `msr`, `hal` and `cpu` are reached only
/// through these; the traced run times them with direct probes instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Kernel,
    Core,
    Workloads,
    Attacks,
    Bench,
    Telemetry,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Kernel,
        Layer::Core,
        Layer::Workloads,
        Layer::Attacks,
        Layer::Bench,
        Layer::Telemetry,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Kernel => "kernel",
            Layer::Core => "core",
            Layer::Workloads => "workloads",
            Layer::Attacks => "attacks",
            Layer::Bench => "bench",
            Layer::Telemetry => "telemetry",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|l| *l == self)
            .expect("every layer is listed in ALL")
    }
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iter: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder: spans nest through a stack, single-threaded.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: u32,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    /// Sets the iteration id stamped on the spans opened from now on.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    /// Runs `f` inside a span; nested calls on the passed recorder
    /// become children.
    pub fn time<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Per-layer self time in ns: each span's duration minus the part
    /// its children cover, summed by layer (indexed like [`Layer::ALL`]).
    pub fn self_ns_by_layer(&self) -> [u64; 6] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = [0u64; 6];
        for (s, covered) in self.spans.iter().zip(child_ns) {
            out[s.layer.index()] += s.ns().saturating_sub(covered);
        }
        out
    }

    /// One JSON object per span, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iter\":{}}}",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.iter
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new();
        sp.time(Layer::Bench, "outer", |sp| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            sp.time(Layer::Core, "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4));
            });
        });
        let spans = sp.spans();
        assert_eq!(spans[1].parent, Some(0));
        let by_layer = sp.self_ns_by_layer();
        let core = by_layer[Layer::Core.index()];
        let bench = by_layer[Layer::Bench.index()];
        assert_eq!(core, spans[1].ns());
        assert_eq!(bench + core, spans[0].ns());
        assert!(sp.to_jsonl().lines().count() == 2);
    }
}
