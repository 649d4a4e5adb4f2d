//! End-to-end and per-layer host-time benchmark of the P-sync simulator.
//!
//! Three workloads call the layer crates' public APIs (see `README.md` for
//! why each exists and which metric each layer should move):
//!
//! * [`table3::Table3Mesh`] — the paper-scale Table III mesh transpose;
//! * [`fft2d::PsyncFft2d`] — the §V-B distributed 2-D FFT on P-sync;
//! * [`collectives::CollectivesMixed`] — collectives on both fabrics.
//!
//! A workload runs in repetitions ([`Rep`]): set-up, then the timed
//! simulated operations, then correctness checks outside the timed part.
//! With a [`trace::Tracer`] attached, each call into a layer is recorded as
//! a host-time span.

pub mod collectives;
pub mod fft2d;
pub mod metrics;
pub mod reference;
pub mod table3;
pub mod trace;

use trace::Tracer;

/// Outcome of one repetition of a workload, or of one part of it.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    /// Host seconds spent building inputs and fabric state.
    pub setup_s: f64,
    /// Host seconds spent in the simulated operations.
    pub run_s: f64,
    /// Host seconds spent computing correctness references (outside
    /// `run_s`).
    pub check_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
    /// What went wrong, one line per failed check.
    pub failures: Vec<String>,
    /// Simulated statistics (deterministic for a given seed), in order.
    pub witnesses: Vec<(String, u64)>,
    /// Relative error of the simulated result against the paper's
    /// published number, for workloads that have one.
    pub paper_rel_err: Option<f64>,
}

impl Rep {
    /// Record a simulated statistic.
    pub fn witness(&mut self, name: impl Into<String>, value: u64) {
        self.witnesses.push((name.into(), value));
    }

    /// Count one operation, failed if any of its `problems` is present.
    pub fn finish(&mut self, op: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .extend(problems.into_iter().map(|p| format!("{op}: {p}")));
        }
    }

    /// Add `other`, a later part of the same repetition, to this one.
    pub fn absorb(&mut self, other: Rep) {
        self.setup_s += other.setup_s;
        self.run_s += other.run_s;
        self.check_s += other.check_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.witnesses.extend(other.witnesses);
        self.paper_rel_err = match (self.paper_rel_err, other.paper_rel_err) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// The witnesses as one JSON object, in recording order.
    pub fn witness_json(&self) -> String {
        let obj = serde::Value::Object(
            self.witnesses
                .iter()
                .map(|(k, v)| (k.clone(), serde::Value::UInt(*v)))
                .collect(),
        );
        serde_json::to_string(&obj).expect("infallible")
    }
}

/// A workload the benchmark can repeat.
///
/// A repetition is made of one or more parts that can run on their own.
/// The untraced run times the parts one at a time, in turn, so a workload
/// whose repetition is long still gives several samples per run.
pub trait Workload {
    /// How many parts a repetition is made of.
    fn parts(&self) -> usize {
        1
    }

    /// One part of a repetition: its set-up, timed operations and checks.
    /// With a tracer attached every layer call is recorded as a span.
    fn rep_part(&mut self, part: usize, tr: Option<&Tracer>) -> Rep;

    /// One repetition: every part, in order.
    fn rep(&mut self, tr: Option<&Tracer>) -> Rep {
        let mut rep = Rep::default();
        for part in 0..self.parts() {
            rep.absorb(self.rep_part(part, tr));
        }
        rep
    }

    /// Set-up alone, timed and discarded: extra samples for `setup_s`.
    fn setup_only(&mut self) -> f64;
}

/// Check helper: push `msg()` onto `problems` unless `ok`.
pub fn expect(problems: &mut Vec<String>, ok: bool, msg: impl FnOnce() -> String) {
    if !ok {
        problems.push(msg());
    }
}

/// Order-sensitive FNV-1a fingerprint of a word stream.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Seconds elapsed running `f`, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = std::time::Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}
