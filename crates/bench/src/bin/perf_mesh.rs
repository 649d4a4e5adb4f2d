//! Simulator-performance harness: wall-clock throughput of the emesh
//! event engine on the fixed Table III configuration.
//!
//! Runs the 2²⁰-element transpose (P = 1024 processors, N = 1024 row
//! length, `t_p = 1`) under both routing policies and reports simulated
//! cycles, wall-time, and flit-moves per second (router traversals /
//! wall-time — the natural unit of scheduler work). Results go to
//! `results/perf_mesh.json`; wall-clock columns only compare against runs
//! on the same machine.
//!
//! `--quick` drops to P = N = 256 for smoke runs.

use bench::jobs::perf_mesh_point;
use bench::{f, BenchError, Experiment};
use emesh::mesh::{MeshError, RoutingPolicy};
use serde::Serialize;
use sim_core::cancel::Interrupt;

#[derive(Serialize)]
struct PerfRow {
    procs: usize,
    row_len: usize,
    elements: usize,
    policy: String,
    t_p: u64,
    cycles: u64,
    wall_s: f64,
    flit_moves: u64,
    flit_moves_per_s: f64,
    cycles_per_s: f64,
}

fn run_one(
    procs: usize,
    row_len: usize,
    policy: RoutingPolicy,
    t_p: u64,
    interrupt: Option<&Interrupt>,
) -> Result<PerfRow, MeshError> {
    // The simulation core lives in [`bench::jobs`]; this bin adds the
    // wall-clock-derived columns.
    let point = perf_mesh_point(procs, row_len, policy, t_p, interrupt)?;
    let (cycles, flit_moves, wall_s) = (point.cycles, point.flit_moves, point.wall_s);
    Ok(PerfRow {
        procs,
        row_len,
        elements: procs * row_len,
        policy: format!("{policy:?}"),
        t_p,
        cycles,
        wall_s,
        flit_moves,
        flit_moves_per_s: flit_moves as f64 / wall_s,
        cycles_per_s: cycles as f64 / wall_s,
    })
}

fn main() -> Result<(), BenchError> {
    let ex = Experiment::new("perf_mesh");
    let (procs, row_len) = if ex.quick() { (256, 256) } else { (1024, 1024) };
    let interrupt = ex.interrupt();

    let mut rows: Vec<PerfRow> = Vec::new();
    for policy in [RoutingPolicy::MinimalAdaptive, RoutingPolicy::Xy] {
        eprintln!("perf_mesh: {procs}x{row_len} transpose, {policy:?}, t_p=1 ...");
        let row = run_one(procs, row_len, policy, 1, interrupt.as_ref())
            .map_err(|e| BenchError::run("perf_mesh", e))?;
        rows.push(row);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}x{}", r.procs, r.row_len),
                r.policy.clone(),
                r.cycles.to_string(),
                f(r.wall_s, 2),
                f(r.flit_moves_per_s / 1e6, 2),
            ]
        })
        .collect();
    ex.table(
        "Simulator performance (Table III transpose)",
        &["transpose", "policy", "cycles", "wall s", "Mflit/s"],
        &table,
    )
    .rows(&rows)
    .run()
}
