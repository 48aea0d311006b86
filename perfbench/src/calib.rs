//! Host-speed calibration.
//!
//! On a shared host the speed a process gets drifts by tens of percent
//! over seconds to minutes, so two runs of the same code minutes apart
//! report different times. Each untraced run therefore interleaves a
//! fixed calibration kernel, which does not depend on the repository's
//! code, with its iterations (about a tenth of the run), and scales each
//! iteration's time by `REFERENCE_S / c`, where `c` is the median kernel
//! time measured around that iteration. A change to the program moves
//! the times and not `c`; a slower host moves both.

use crate::report::median;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on a 2-vCPU 2.0 GHz x86-64 host at its usual
/// speed, so normalized times read close to raw host seconds there.
pub const REFERENCE_S: f64 = 5.2e-3;

/// Share of a run spent calibrating.
const SHARE: f64 = 0.1;

/// Samples this close in time to an iteration calibrate it, seconds.
const WINDOW_S: f64 = 0.5;

/// Operations per kernel pass.
const OPS: u64 = 8_000;

/// One timed pass of the kernel. The simulator's host time is sensitive
/// to contention in the frontend and caches, which a tight arithmetic
/// loop barely feels, so the kernel runs the same kind of code: string
/// formatting and parsing, allocation, B-tree and hash-map updates, a
/// binary heap and sorting, all from the standard library.
fn pass() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    let mut tree = BTreeMap::new();
    let mut hashed = HashMap::new();
    let mut heap = BinaryHeap::new();
    for i in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let s = format!("{x:x}-{}", i % 977);
        acc = acc.wrapping_add(s.len() as u64);
        if let Some(old) = tree.insert(x % 4_096, s.clone()) {
            acc ^= old.len() as u64;
        }
        hashed.insert(x % 2_048, s);
        heap.push(Reverse(x % 100_000));
        if heap.len() > 512 {
            if let Some(Reverse(v)) = heap.pop() {
                acc ^= v;
            }
        }
        if i % 64 == 0 {
            let mut keys: Vec<u64> = tree.keys().copied().take(256).collect();
            keys.sort_unstable_by_key(|k| k ^ x);
            acc ^= keys.first().copied().unwrap_or(0);
            acc = acc.wrapping_add(format!("{}", x % 100_000).parse().unwrap_or(0));
        }
    }
    black_box((acc, hashed.len()));
    t.elapsed().as_secs_f64()
}

/// The factor that scales host seconds measured just before this call
/// to the reference host speed, from a few fresh samples.
pub fn factor_now() -> f64 {
    let samples: Vec<f64> = (0..5).map(|_| pass()).collect();
    REFERENCE_S / median(&samples)
}

/// Kernel samples taken between a run's iterations, stamped with the
/// time (seconds since the run's origin) at their midpoint.
pub struct Calibrator {
    origin: Instant,
    samples: Vec<(f64, f64)>,
    spent: f64,
}

impl Calibrator {
    pub fn new(origin: Instant) -> Self {
        let mut c = Calibrator {
            origin,
            samples: Vec::new(),
            spent: 0.0,
        };
        c.sample();
        c
    }

    fn sample(&mut self) {
        let at = self.origin.elapsed().as_secs_f64();
        let s = pass();
        self.samples.push((at + s / 2.0, s));
        self.spent += s;
    }

    /// Samples until calibration has had its share of the run so far.
    pub fn catch_up(&mut self) {
        while self.spent < SHARE * self.origin.elapsed().as_secs_f64() {
            self.sample();
        }
    }

    /// The factor that scales host seconds spent between `start` and
    /// `end` (seconds since the origin) to the reference host speed:
    /// from the samples within `WINDOW_S` of that span, so drift within
    /// a run is tracked too.
    pub fn factor(&self, start: f64, end: f64) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| *at >= start - WINDOW_S && *at <= end + WINDOW_S)
            .map(|(_, s)| *s)
            .collect();
        if near.is_empty() {
            self.run_factor()
        } else {
            REFERENCE_S / median(&near)
        }
    }

    /// The factor from every sample of the run.
    pub fn run_factor(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|(_, s)| *s).collect();
        REFERENCE_S / median(&all)
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }
}
