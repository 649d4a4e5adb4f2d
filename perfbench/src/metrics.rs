//! The metrics a run reports, by name and unit (as listed in
//! `BENCHMARK.json`).

use crate::trace::{Region, Tracer};
use crate::{median, Rep};

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// `num / den`, or 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// End-to-end metrics of an untraced run: the median of its set-up
/// samples; the run time of a repetition (the sum over its parts of the
/// median of each part's samples) over the median of the run's reference
/// samples; and the process's peak resident memory.
pub fn end_to_end(
    setups: &[f64],
    part_runs: &[Vec<f64>],
    references: &[f64],
    peak_rss_mib: f64,
) -> Vec<Metric> {
    let run_s: f64 = part_runs.iter().map(|r| median(r)).sum();
    vec![
        ("setup_s", median(setups), "s"),
        ("run_rel", run_s / median(references), "ratio"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

/// Per-layer metrics of a traced run: `plain` is the untraced repetition
/// run just before the `traced` one that `tr` recorded, and `reference_s`
/// the median reference sample taken before both. Layers a workload does
/// not use report 0.
pub fn per_layer(tr: &Tracer, plain: &Rep, traced: &Rep, reference_s: f64) -> Vec<Metric> {
    let s = |k: &str| tr.seconds(k);
    let c = |k: &str| tr.counter(k) as f64;
    let emesh_run = s("emesh.run");
    let collective = s("emesh.collective");
    let bus_s = s("pscan.gather") + s("pscan.scatter");
    let stream_s = s("memory.stream_out") + s("memory.stream_in");
    let fft_s = s("fft.rows");
    let run_self = tr.layer_self_seconds(Region::Run);
    vec![
        ("emesh.build_s", s("emesh.build"), "s"),
        ("emesh.run_s", emesh_run, "s"),
        ("emesh.flit_moves", c("emesh.flit_moves"), "count"),
        (
            "emesh.flit_moves_per_s",
            ratio(c("emesh.flit_moves"), emesh_run),
            "1/s",
        ),
        ("emesh.sim_cycles", c("emesh.sim_cycles"), "count"),
        (
            "emesh.hotspot_forwards",
            c("emesh.hotspot_forwards"),
            "count",
        ),
        ("emesh.collective_s", collective, "s"),
        ("emesh.rounds", c("emesh.rounds"), "count"),
        (
            "emesh.s_per_round",
            ratio(collective, c("emesh.rounds")),
            "s",
        ),
        ("emesh.deadlock_splits", c("emesh.deadlock_splits"), "count"),
        ("pscan.build_s", s("pscan.build"), "s"),
        ("pscan.compile_s", s("pscan.compile"), "s"),
        ("pscan.gather_s", s("pscan.gather"), "s"),
        ("pscan.scatter_s", s("pscan.scatter"), "s"),
        ("pscan.bus_slots", c("pscan.bus_slots"), "count"),
        (
            "pscan.slots_per_s",
            ratio(c("pscan.bus_slots"), bus_s),
            "1/s",
        ),
        ("pscan.cp_entries", c("pscan.cp_entries"), "count"),
        (
            "pscan.utilization",
            ratio(c("pscan.useful_slots"), c("pscan.bus_slots")),
            "ratio",
        ),
        ("memory.stream_s", stream_s, "s"),
        ("memory.accesses", c("memory.accesses"), "count"),
        (
            "memory.accesses_per_s",
            ratio(c("memory.accesses"), stream_s),
            "1/s",
        ),
        (
            "memory.row_hit_rate",
            ratio(c("memory.row_hits"), c("memory.accesses")),
            "ratio",
        ),
        ("fft.compute_s", fft_s, "s"),
        ("fft.butterflies", c("fft.butterflies"), "count"),
        (
            "fft.butterflies_per_s",
            ratio(c("fft.butterflies"), fft_s),
            "1/s",
        ),
        ("fft.reference_s", plain.check_s, "s"),
        ("psync.build_s", s("psync.build"), "s"),
        ("psync.machine_s", s("psync.machine"), "s"),
        (
            "psync.self_s",
            run_self.get("psync").copied().unwrap_or(0.0),
            "s",
        ),
        ("paper_rel_err", plain.paper_rel_err.unwrap_or(0.0), "ratio"),
        ("host.reference_s", reference_s, "s"),
        ("host.untraced_run_s", plain.run_s, "s"),
        ("host.traced_run_s", traced.run_s, "s"),
        (
            "host.trace_overhead",
            ratio(traced.run_s, plain.run_s) - 1.0,
            "ratio",
        ),
        (
            "host.unattributed_s",
            traced.run_s - run_self.values().sum::<f64>(),
            "s",
        ),
    ]
}
