//! Layer timing and output checks.
//!
//! A [`Probe`] wraps each layer call the benchmark makes in an
//! `ivm_harness::span` (so the program's own phase spans nest inside it
//! in a Chrome trace) and, in the same scope, reads a nanosecond clock
//! and records the call's work count beside it. Per-layer metrics are
//! the inclusive time of these spans divided by the work they did. A
//! disabled probe calls straight through: untraced runs pay nothing.
//!
//! Independently of spans, every probe times the *cells* of a pass (one
//! trace decode, one predictor over one trace, one golden cell, ...) in
//! reference seconds (see [`reference_time`]) and keeps each cell's
//! fastest time over the passes of a run. Their sum is the run's pass
//! time.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use ivm_harness::span;

/// Words in the reference table: 16 MiB, larger than a core's caches.
const REFERENCE_WORDS: usize = 1 << 22;

/// Random read-modify-writes per reference sample.
const REFERENCE_UPDATES: u32 = 100_000;

/// One reference sample's time on a quiet host, in seconds: the unit of
/// reference seconds.
const REFERENCE_QUIET_S: f64 = 0.002;

thread_local! {
    static REFERENCE_TABLE: RefCell<Vec<u32>> = RefCell::new(vec![0; REFERENCE_WORDS]);
    static LAST_SAMPLE: Cell<f64> = const { Cell::new(0.0) };
    static SAMPLES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Times one sample of the reference work: random read-modify-writes
/// into a table larger than a core's caches, a fixed piece of
/// memory-bound host work that shares no code with the program.
fn reference_sample() -> f64 {
    REFERENCE_TABLE.with(|t| {
        let mut table = t.borrow_mut();
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..REFERENCE_UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (REFERENCE_WORDS - 1);
            table[i] = table[i].wrapping_add(x as u32);
        }
        std::hint::black_box(&*table);
        let secs = start.elapsed().as_secs_f64();
        LAST_SAMPLE.with(|l| l.set(secs));
        SAMPLES.with(|v| v.borrow_mut().push(secs));
        secs
    })
}

/// How much slower than on a quiet host the reference work has run so
/// far: the median sample over the quiet-host time.
pub fn reference_slowdown() -> f64 {
    let mut samples = SAMPLES.with(|v| v.borrow().clone());
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).map_or(1.0, |s| s / REFERENCE_QUIET_S)
}

/// Runs `f` and returns its result with its time in reference seconds:
/// wall seconds scaled by how much slower than on a quiet host the
/// reference work ran just before and just after. Other tenants of a
/// shared host slow a core by up to 2× in phases lasting seconds to
/// minutes; the scaling takes most of that out of the figure.
pub fn reference_time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let mut before = LAST_SAMPLE.with(Cell::get);
    if before == 0.0 {
        // The first sample also faults the table in; time a second one.
        reference_sample();
        before = reference_sample();
    }
    let start = Instant::now();
    let r = f();
    let secs = start.elapsed().as_secs_f64();
    let after = reference_sample();
    (r, secs * 2.0 * REFERENCE_QUIET_S / (before + after))
}

/// What one named layer span accumulated.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Inclusive wall time, in nanoseconds.
    pub ns: u128,
    /// Work units (events, dispatches, steps) the calls processed.
    pub events: u64,
    /// Number of calls.
    pub calls: u64,
}

impl Layer {
    /// Nanoseconds per work unit.
    pub fn ns_per_event(&self) -> f64 {
        self.ns as f64 / self.events.max(1) as f64
    }

    /// Microseconds per call.
    pub fn us_per_call(&self) -> f64 {
        self.ns as f64 / 1e3 / self.calls.max(1) as f64
    }
}

/// Span-and-counter recorder for layer calls.
#[derive(Debug, Default)]
pub struct Probe {
    on: bool,
    layers: BTreeMap<&'static str, Layer>,
    /// Fastest time of each cell so far, in reference seconds, by id.
    best: Vec<f64>,
}

impl Probe {
    /// A probe that records nothing.
    pub fn off() -> Self {
        Self::default()
    }

    /// A recording probe.
    pub fn on() -> Self {
        Self { on: true, ..Self::default() }
    }

    /// Whether this probe records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` as one call of layer `name`; `work` counts the units it
    /// processed from its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> R,
        work: impl FnOnce(&R) -> u64,
    ) -> R {
        if !self.on {
            return f();
        }
        let (r, ns) = {
            let _span = span::enter(name);
            let start = Instant::now();
            let r = f();
            (r, start.elapsed().as_nanos())
        };
        let layer = self.layers.entry(name).or_default();
        layer.ns += ns;
        layer.events += work(&r);
        layer.calls += 1;
        r
    }

    /// Runs `f` as cell `id` of a pass, keeping the cell's fastest time.
    /// Ids must be the same for the same work in every pass.
    pub fn cell<R>(&mut self, id: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let (r, secs) = reference_time(|| f(self));
        if self.best.len() <= id {
            self.best.resize(id + 1, f64::INFINITY);
        }
        self.best[id] = self.best[id].min(secs);
        r
    }

    /// One pass's time from the fastest repeat of each cell, in
    /// reference seconds.
    pub fn pass_time(&self) -> f64 {
        self.best.iter().filter(|t| t.is_finite()).sum()
    }

    /// Adds a work count to `name` without timing anything (for counts
    /// such as translated code bytes that ride along a timed call).
    pub fn count(&mut self, name: &'static str, units: u64) {
        if self.on {
            self.layers.entry(name).or_default().events += units;
        }
    }

    /// The accumulated layer `name` (zero if it never ran).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Summed inclusive time of every layer, in nanoseconds. Layer spans
    /// never nest, so this is the traced share of the wall time.
    pub fn total_ns(&self) -> u128 {
        self.layers.values().map(|l| l.ns).sum()
    }

    /// Folds another probe's layers into this one.
    pub fn absorb(&mut self, other: Probe) {
        for (name, l) in other.layers {
            let mine = self.layers.entry(name).or_default();
            mine.ns += l.ns;
            mine.events += l.events;
            mine.calls += l.calls;
        }
    }
}

/// Output checks against committed references.
#[derive(Debug, Default)]
pub struct Checks {
    /// Outputs compared.
    pub attempted: u64,
    /// Outputs that disagreed with their reference.
    pub failed: u64,
}

impl Checks {
    /// Records one comparison; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("MISMATCH: {}", what());
            }
        }
    }

    /// Compares `actual` with `expected`, naming the output on failure.
    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, actual: T, expected: T) {
        let ok = actual == expected;
        self.check(ok, || format!("{what}: got {actual:?}, reference {expected:?}"));
    }

    /// Share of checked outputs that disagreed with their reference.
    pub fn mismatch_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}
