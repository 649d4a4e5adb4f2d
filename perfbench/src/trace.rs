//! Host-time spans around the calls the benchmark makes into each layer.
//!
//! Spans go into a [`sim_core::telemetry::Registry`] (process `host`, one
//! track for set-up and one for the timed run, one trace microsecond per
//! host microsecond) and are exported as its Chrome trace. Alongside, the
//! tracer keeps per-layer inclusive and self times: a span's self time is
//! its duration minus the durations of its direct child spans, so the self
//! times of all layers in a region sum to the time covered by that
//! region's top-level spans.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use sim_core::telemetry::Registry;

/// Which part of a repetition a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Region {
    /// Building inputs and fabric state (counts towards `setup_s`).
    Setup,
    /// The simulated operations (counts towards `run_s`).
    Run,
}

impl Region {
    fn track(self) -> &'static str {
        match self {
            Region::Setup => "setup",
            Region::Run => "run",
        }
    }
}

/// Span recorder. Single-threaded, like the workloads it times.
pub struct Tracer {
    reg: Registry,
    t0: Instant,
    region: Cell<Region>,
    /// Child-time accumulators of the open spans, innermost last.
    open: RefCell<Vec<f64>>,
    /// Inclusive seconds per `layer.op`.
    inclusive: RefCell<BTreeMap<String, f64>>,
    /// Self seconds per (region, layer).
    self_s: RefCell<BTreeMap<(Region, &'static str), f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            reg: Registry::new(),
            t0: Instant::now(),
            region: Cell::new(Region::Run),
            open: RefCell::new(Vec::new()),
            inclusive: RefCell::new(BTreeMap::new()),
            self_s: RefCell::new(BTreeMap::new()),
        }
    }

    /// Run `f` with its spans attributed to the set-up region.
    pub fn setup<T>(&self, f: impl FnOnce() -> T) -> T {
        let prev = self.region.replace(Region::Setup);
        let out = f();
        self.region.set(prev);
        out
    }

    /// Time `f` as span `layer.op`.
    pub fn span<T>(&self, layer: &'static str, op: &str, f: impl FnOnce() -> T) -> T {
        self.open.borrow_mut().push(0.0);
        let start = self.t0.elapsed().as_secs_f64();
        let out = f();
        let dur = self.t0.elapsed().as_secs_f64() - start;
        let children = self.open.borrow_mut().pop().expect("span stack");
        if let Some(parent) = self.open.borrow_mut().last_mut() {
            *parent += dur;
        }
        let region = self.region.get();
        let name = format!("{layer}.{op}");
        self.reg
            .span("host", region.track(), &name, start * 1e6, dur * 1e6, &[]);
        *self.inclusive.borrow_mut().entry(name).or_default() += dur;
        *self.self_s.borrow_mut().entry((region, layer)).or_default() += dur - children;
        out
    }

    /// Add `delta` to counter `name`.
    pub fn count(&self, name: &str, delta: u64) {
        self.reg.counter_add(name, delta);
    }

    /// Raise counter `name` to at least `value`.
    pub fn count_max(&self, name: &str, value: u64) {
        if self.counter(name) < value {
            self.reg.counter_set(name, value);
        }
    }

    /// Current value of counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.reg.counter_value(name).unwrap_or(0)
    }

    /// Inclusive seconds of all `layer.op` spans.
    pub fn seconds(&self, layer_op: &str) -> f64 {
        self.inclusive
            .borrow()
            .get(layer_op)
            .copied()
            .unwrap_or(0.0)
    }

    /// Self seconds per layer within `region`.
    pub fn layer_self_seconds(&self, region: Region) -> BTreeMap<&'static str, f64> {
        self.self_s
            .borrow()
            .iter()
            .filter(|((r, _), _)| *r == region)
            .map(|((_, l), s)| (*l, *s))
            .collect()
    }

    /// The spans as Chrome trace-event JSON.
    pub fn chrome_trace_json(&self) -> String {
        self.reg.chrome_trace_json()
    }
}

/// Time `f` as span `layer.op` when a tracer is attached; otherwise just
/// run it.
pub fn span<T>(tr: Option<&Tracer>, layer: &'static str, op: &str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(layer, op, f),
        None => f(),
    }
}

/// Add to a counter when a tracer is attached.
pub fn count(tr: Option<&Tracer>, name: &str, delta: u64) {
    if let Some(t) = tr {
        t.count(name, delta);
    }
}
