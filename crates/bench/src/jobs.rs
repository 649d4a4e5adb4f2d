//! Experiment cores shared by the harness binaries, plus the supervised
//! Table III job body the batch driver (`run_batch`) runs.
//!
//! Each core runs one experiment to deterministic rows for its bin:
//!
//! * [`run_table3`] — the Table III transpose (PSCAN closed form plus the
//!   `t_p = 1`/`t_p = 4` mesh simulations), for `table3_transpose` and,
//!   supervised, `run_batch`;
//! * [`perf_mesh_point`] — one timed mesh transpose, for `perf_mesh`;
//! * [`collective_mesh_row`] / [`collective_sca_row`] — one collective on
//!   either fabric, for `collectives`;
//! * [`run_ablate_faults`] — the fault-rate degradation sweep over both
//!   fabrics, for `ablate_faults`;
//! * [`run_full_matrix`] — the 21-row ablation matrix under the
//!   multi-fidelity engine ([`crate::fidelity`]), with a
//!   [`crate::fidelity::FidelityDecision`] on every row, for `full_matrix`.
//!
//! [`table3_work`] packages a Table III run as a [`crate::supervisor`] job
//! body behind the exact result cache ([`crate::cache`]): the key is
//! [`table3_cache_key`] (the spec plus the deadline bits), and a hit returns
//! the exact bytes a fresh run would have produced.

use std::sync::Arc;

use analytic::surrogate::{
    mesh_scatter_cycles, model2_point, table3_writeback_cycles, Model2TimingParams,
};
use analytic::table3::{
    table3_pscan_cycles, Table3Params, PAPER_MESH_WRITEBACK_TP1, PAPER_MESH_WRITEBACK_TP4,
};
use emesh::collectives::run_mesh_collective;
use emesh::energy::OrionParams;
use emesh::mesh::{MeshConfig, MeshError, RoutingPolicy};
use emesh::topology::{MemifPlacement, Topology};
use emesh::workloads::{load_scatter, load_transpose};
use emesh::{MeshFaultConfig, MeshFaultStats};
use pscan::compiler::GatherSpec;
use pscan::faults::PscanFaultConfig;
use psync::collectives::run_sca_collective;
use psync::machine::{Machine, MachineConfig, MachineError};
use rayon::prelude::*;
use serde::Serialize;
use sim_core::cancel::Interrupt;
use sim_core::collective::Collective;
use sim_core::telemetry::Registry;

use crate::cache::{fnv1a64, ResultCache};
use crate::crosscheck::{signal_rows, table3_writeback};
use crate::fidelity::{
    decide, record_decision, FidelityDecision, FidelityPolicy, PointConfig, ValidationRegistry,
};
use crate::supervisor::{JobSuccess, Work, WorkError};

// ---------------------------------------------------------------------------
// Experiment specifications
// ---------------------------------------------------------------------------

/// The Table III workload configuration: everything that determines the
/// resulting cycle counts.
#[derive(Debug, Clone)]
pub struct Table3Spec {
    /// Mesh/PSCAN processor count `P` (a perfect square for the mesh).
    pub procs: usize,
    /// Samples per processor row, `N`.
    pub row_len: usize,
}

impl Table3Spec {
    /// The `--quick` configuration (256 processors, 256-sample rows).
    pub fn quick() -> Self {
        Table3Spec {
            procs: 256,
            row_len: 256,
        }
    }

    /// The full paper configuration (P = 1024, N = 1024).
    pub fn paper() -> Self {
        Table3Spec {
            procs: 1024,
            row_len: 1024,
        }
    }
}

/// The fault-injection degradation sweep over both fabrics.
#[derive(Debug, Clone)]
pub struct AblateFaultsSpec {
    /// Word/flit error probabilities to sweep, each in `[0, 1)`.
    pub rates: Vec<f64>,
    /// Mesh processor count for the transpose (a perfect square).
    pub procs: usize,
    /// Samples per processor row.
    pub row_len: usize,
    /// SCA writeback bursts on the photonic machine.
    pub gathers: usize,
}

impl AblateFaultsSpec {
    /// The `--quick` configuration the `ablate_faults` bin uses.
    pub fn quick() -> Self {
        AblateFaultsSpec {
            rates: FAULT_RATES.to_vec(),
            procs: 16,
            row_len: 16,
            gathers: 4,
        }
    }

    /// The full configuration the `ablate_faults` bin uses.
    pub fn paper() -> Self {
        AblateFaultsSpec {
            procs: 64,
            row_len: 64,
            gathers: 16,
            ..AblateFaultsSpec::quick()
        }
    }
}

/// The 21-row ablation matrix under the multi-fidelity engine.
#[derive(Debug, Clone, Copy)]
pub struct FullMatrixSpec {
    /// Point sizing: the `--quick` points (`true`) or full paper scale.
    pub quick: bool,
    /// How each row chooses between the closed form and the simulator.
    pub fidelity: FidelityPolicy,
    /// Also run the all-cycle-accurate reference pass and attach
    /// per-row disagreement columns.
    pub reference: bool,
}

/// One mesh/torus geometry for the collective-traffic comparison.
#[derive(Debug, Clone)]
pub struct CollectivesSpec {
    /// Mesh width (columns).
    pub width: usize,
    /// Mesh height (rows).
    pub height: usize,
    /// Wrap the mesh edges into a torus.
    pub torus: bool,
    /// Payload words per node per block.
    pub words: usize,
}

impl CollectivesSpec {
    /// The mesh topology this spec describes (memory interface in the
    /// single corner, as in the Table III runs).
    pub fn topology(&self) -> Topology {
        Topology::rect(self.width, self.height, MemifPlacement::SingleCorner).with_torus(self.torus)
    }
}

/// Classify a mesh error: cancellation, or a failure.
fn classify_mesh(e: MeshError) -> WorkError {
    match &e {
        MeshError::Cancelled { .. } => WorkError::Cancelled {
            detail: e.to_string(),
        },
        _ => WorkError::Fatal {
            detail: e.to_string(),
        },
    }
}

fn classify_machine(e: MachineError) -> WorkError {
    match &e {
        MachineError::Cancelled { .. } => WorkError::Cancelled {
            detail: e.to_string(),
        },
        _ => WorkError::Fatal {
            detail: e.to_string(),
        },
    }
}

// ---------------------------------------------------------------------------
// table3
// ---------------------------------------------------------------------------

/// One Table III result row, serialized to `results/table3.json` (direct
/// run) or `results/batch/table3.json` (supervised run) — the field set and
/// order are the byte-identity contract between the two paths.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    /// Processor count.
    pub procs: usize,
    /// Samples per row.
    pub row_len: usize,
    /// PSCAN SCA writeback, closed form Eq. (23)/(24).
    pub pscan_cycles: u64,
    /// Simulated mesh writeback at `t_p = 1`.
    pub mesh_cycles_tp1: u64,
    /// Simulated mesh writeback at `t_p = 4`.
    pub mesh_cycles_tp4: u64,
    /// `mesh_cycles_tp1 / pscan_cycles`.
    pub multiplier_tp1: f64,
    /// `mesh_cycles_tp4 / pscan_cycles`.
    pub multiplier_tp4: f64,
    /// The paper's Table III multiplier at `t_p = 1`.
    pub paper_multiplier_tp1: f64,
    /// The paper's Table III multiplier at `t_p = 4`.
    pub paper_multiplier_tp4: f64,
}

/// Simulate the mesh transpose writeback at `t_p`, optionally instrumented
/// and optionally under an interrupt (cancellation surfaces as
/// [`MeshError::Cancelled`]).
pub fn mesh_transpose_cycles(
    cfg: &Table3Spec,
    t_p: u64,
    tracing: bool,
    interrupt: Option<&Interrupt>,
) -> Result<(u64, Option<Registry>), MeshError> {
    let mesh_cfg = MeshConfig::table3(cfg.procs, t_p);
    let mut mesh = load_transpose(mesh_cfg, cfg.procs, cfg.row_len);
    if tracing {
        mesh.enable_telemetry();
    }
    if let Some(intr) = interrupt {
        mesh.set_interrupt(intr.clone());
    }
    let res = mesh.run()?;
    let s = res.memif_stats[0];
    assert_eq!(
        s.elements as usize,
        cfg.procs * cfg.row_len,
        "lost elements"
    );
    Ok((res.cycles, mesh.take_telemetry()))
}

/// Run the complete Table III workload: the PSCAN closed form plus the two
/// mesh simulations (`t_p = 1` and `t_p = 4`, in parallel), assembled into
/// the canonical row.
///
/// With `interrupt` installed, each mesh polls its own clone; a deadline or
/// token cancels both, and the `t_p = 1` error is the one reported (index
/// order, so the failure is deterministic). Telemetry registries (when
/// `tracing`) come back alongside the row in `t_p` order.
pub fn run_table3(
    cfg: &Table3Spec,
    tracing: bool,
    interrupt: Option<&Interrupt>,
) -> Result<(Table3Row, Vec<Registry>), MeshError> {
    let params = Table3Params {
        n: cfg.row_len as u64,
        p: cfg.procs as u64,
        ..Default::default()
    };
    let pscan = params.pscan_cycles();

    // The two t_p points are independent simulations: run them in parallel.
    let mesh_runs: Vec<Result<(u64, Option<Registry>), MeshError>> = [1u64, 4]
        .into_par_iter()
        .map(|t_p| {
            eprintln!(
                "simulating mesh transpose (P = {}, N = {}, t_p = {t_p})...",
                cfg.procs, cfg.row_len
            );
            // Trace only the t_p = 1 run: one fully-instrumented mesh is
            // what the trace viewer wants, not two interleaved ones.
            mesh_transpose_cycles(cfg, t_p, tracing && t_p == 1, interrupt)
        })
        .collect();
    let mut cycles = Vec::new();
    let mut registries = Vec::new();
    for run in mesh_runs {
        let (c, reg) = run?;
        cycles.push(c);
        registries.extend(reg);
    }
    let (mesh1, mesh4) = (cycles[0], cycles[1]);

    let row = Table3Row {
        procs: cfg.procs,
        row_len: cfg.row_len,
        pscan_cycles: pscan,
        mesh_cycles_tp1: mesh1,
        mesh_cycles_tp4: mesh4,
        multiplier_tp1: mesh1 as f64 / pscan as f64,
        multiplier_tp4: mesh4 as f64 / pscan as f64,
        paper_multiplier_tp1: PAPER_MESH_WRITEBACK_TP1 as f64 / table3_pscan_cycles() as f64,
        paper_multiplier_tp4: PAPER_MESH_WRITEBACK_TP4 as f64 / table3_pscan_cycles() as f64,
    };
    Ok((row, registries))
}

// ---------------------------------------------------------------------------
// perf_mesh
// ---------------------------------------------------------------------------

/// Measured core of one `perf_mesh` point: deterministic witness plus the
/// wall-clock of the `run()` call (construction excluded, matching the
/// `perf_mesh` bin's historical timing window).
#[derive(Debug, Clone, Copy)]
pub struct MeshPerfPoint {
    /// Simulated completion cycles.
    pub cycles: u64,
    /// Router traversals.
    pub flit_moves: u64,
    /// Wall-clock seconds of the simulation itself.
    pub wall_s: f64,
}

/// Run one mesh transpose and report its deterministic witness and wall
/// time.
pub fn perf_mesh_point(
    procs: usize,
    row_len: usize,
    policy: RoutingPolicy,
    t_p: u64,
    interrupt: Option<&Interrupt>,
) -> Result<MeshPerfPoint, MeshError> {
    let cfg = MeshConfig::table3(procs, t_p).with_policy(policy);
    let mut mesh = load_transpose(cfg, procs, row_len);
    if let Some(intr) = interrupt {
        mesh.set_interrupt(intr.clone());
    }
    let t0 = std::time::Instant::now();
    let res = mesh.run()?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(MeshPerfPoint {
        cycles: res.cycles,
        flit_moves: res.energy.router_traversals,
        wall_s,
    })
}

// ---------------------------------------------------------------------------
// collectives
// ---------------------------------------------------------------------------

/// One collective run on one fabric, as the `collectives` bin reports it.
/// `cycles` is the fabric's native sequential unit: mesh cycles on the
/// electronic side, bus slots on the photonic side.
#[derive(Debug, Clone)]
pub struct CollectiveRow {
    /// Geometry label: the mesh topology (`"4x4"`, `"4x4t"`, …) or the
    /// SCA processor count (`"p16"`).
    pub geometry: String,
    /// Participating nodes.
    pub participants: u64,
    /// Mesh completion cycles, or SCA bus slots.
    pub cycles: u64,
    /// Golden-determinism fingerprint of the full run observables.
    pub fingerprint: u64,
}

/// Run one collective on the electronic mesh described by `spec`.
pub fn collective_mesh_row(
    spec: &CollectivesSpec,
    collective: Collective,
) -> Result<CollectiveRow, MeshError> {
    let cfg = MeshConfig {
        topology: spec.topology(),
        t_r: 1,
        policy: RoutingPolicy::Xy,
        memif: Default::default(),
        buffer_depth: 2,
        max_cycles: 1 << 30,
    };
    let res = run_mesh_collective(collective, cfg, spec.words, None)?;
    Ok(CollectiveRow {
        geometry: spec.topology().label(),
        participants: res.participants,
        cycles: res.cycles,
        fingerprint: res.fingerprint(),
    })
}

/// Run one collective on the photonic SCA machine sized to `spec` (every
/// `width × height` processor participates; the head node hosts memory).
pub fn collective_sca_row(
    spec: &CollectivesSpec,
    collective: Collective,
) -> Result<CollectiveRow, MachineError> {
    let procs = spec.width * spec.height;
    let dram_words = procs * procs * spec.words;
    let mut machine = Machine::new(MachineConfig::paper_default(procs, dram_words));
    let res = run_sca_collective(&mut machine, collective, spec.words)?;
    Ok(CollectiveRow {
        geometry: format!("p{procs}"),
        participants: res.participants as u64,
        cycles: res.bus_slots,
        fingerprint: res.fingerprint(),
    })
}

// ---------------------------------------------------------------------------
// ablate_faults
// ---------------------------------------------------------------------------

/// Word/flit error probabilities the `ablate_faults` bin sweeps. Spacing is
/// ≥ 2× so the retry counts separate cleanly under the fixed seeds.
pub const FAULT_RATES: &[f64] = &[0.0, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2];

/// One point of the degradation sweep (field order is the
/// `results/ablate_faults.json` byte contract).
#[derive(Debug, Clone, Serialize)]
pub struct FaultPoint {
    /// Swept error probability.
    pub rate: f64,
    // Electronic mesh, Table III transpose.
    /// Completion cycles.
    pub mesh_cycles: u64,
    /// Orion energy estimate, microjoules.
    pub mesh_energy_uj: f64,
    /// Flits corrupted in flight.
    pub mesh_corrupted_flits: u64,
    /// NACK-triggered retransmissions.
    pub mesh_retransmits: u64,
    /// Link outage events.
    pub mesh_link_down_events: u64,
    /// Elements lost past the retry budget (must be 0).
    pub mesh_dropped_elements: u64,
    // Photonic machine, SCA writeback sequence.
    /// Bus slots consumed.
    pub pscan_bus_slots: u64,
    /// Link-layer retries.
    pub pscan_retries: u64,
    /// Words corrupted by the injected faults.
    pub pscan_corrupted_words: u64,
    /// Gathers abandoned past the retry budget (must be 0).
    pub pscan_giveups: u64,
    /// Headline: recovery actions across both fabrics.
    pub total_retries: u64,
}

/// Mesh half of one sweep point: the Table III transpose under transient
/// flit corruption plus occasional link outages.
pub fn mesh_fault_point(
    rate: f64,
    procs: usize,
    row_len: usize,
    interrupt: Option<&Interrupt>,
) -> Result<(u64, f64, MeshFaultStats), MeshError> {
    let cfg = MeshConfig::table3(procs, 1);
    let mut mesh = load_transpose(cfg, procs, row_len);
    if let Some(intr) = interrupt {
        mesh.set_interrupt(intr.clone());
    }
    mesh.enable_faults(MeshFaultConfig {
        seed: 0xFA_u64,
        corrupt_rate: rate,
        link_down_rate: rate / 10.0,
        max_retransmits: 64,
        ..Default::default()
    });
    let res = mesh.run()?;
    let energy_uj = OrionParams::default().total_j(&res.energy, procs) * 1e6;
    Ok((res.cycles, energy_uj, res.faults.expect("layer attached")))
}

/// Machine half of one sweep point: `gathers` SCA writebacks of one 64-slot
/// burst each. Bursts are kept small so even the harshest swept rate stays
/// recoverable within the link-layer retry budget (CRC granularity =
/// burst). Returns `(bus_slots, retries, corrupted_words, giveups)`.
pub fn machine_fault_point(
    rate: f64,
    gathers: usize,
    interrupt: Option<&Interrupt>,
) -> Result<(u64, u64, u64, u64), MachineError> {
    const NODES: usize = 8;
    let spec = GatherSpec::interleaved(NODES, 4, 2); // 64 slots
    let burst = spec.total_slots() as usize;
    let mut m = Machine::new(MachineConfig::paper_default(NODES, gathers * burst));
    if let Some(intr) = interrupt {
        m.set_interrupt(intr.clone());
    }
    m.enable_faults(PscanFaultConfig {
        seed: 0xFA_u64,
        word_error_rate: rate,
        max_retries: 256,
        ..Default::default()
    });
    for g in 0..gathers {
        let words: Vec<Vec<u64>> = (0..NODES)
            .map(|n| vec![(g * NODES + n) as u64; burst / NODES])
            .collect();
        let addrs: Vec<u64> = (0..burst as u64).map(|k| (g * burst) as u64 + k).collect();
        // Swept rates stay within the retry budget; only a cancellation
        // (or a genuinely exhausted budget) propagates.
        m.try_gather_to_memory(&format!("wb{g}"), &spec, &words, &addrs)?;
    }
    let bus_slots: u64 = m.phases.iter().map(|p| p.bus_slots).sum();
    let retries: u64 = m.phases.iter().map(|p| p.retries).sum();
    let stats = m.fault_stats().expect("layer attached");
    Ok((bus_slots, retries, stats.injected, stats.giveups))
}

/// The full degradation sweep: every rate in the spec, both fabrics, in
/// parallel across rates (order preserved).
pub fn run_ablate_faults(
    spec: &AblateFaultsSpec,
    interrupt: Option<&Interrupt>,
) -> Result<Vec<FaultPoint>, WorkError> {
    spec.rates
        .par_iter()
        .map(|&rate| {
            eprintln!("rate = {rate:.0e}...");
            let (mesh_cycles, mesh_energy_uj, ms) =
                mesh_fault_point(rate, spec.procs, spec.row_len, interrupt)
                    .map_err(classify_mesh)?;
            let (pscan_bus_slots, pscan_retries, pscan_corrupted_words, pscan_giveups) =
                machine_fault_point(rate, spec.gathers, interrupt).map_err(classify_machine)?;
            Ok(FaultPoint {
                rate,
                mesh_cycles,
                mesh_energy_uj,
                mesh_corrupted_flits: ms.corrupted_flits,
                mesh_retransmits: ms.retransmits,
                mesh_link_down_events: ms.link_down_events,
                mesh_dropped_elements: ms.dropped_elements,
                pscan_bus_slots,
                pscan_retries,
                pscan_corrupted_words,
                pscan_giveups,
                total_retries: ms.retransmits + pscan_retries,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// full_matrix
// ---------------------------------------------------------------------------

/// Static definition of one matrix row: which model family, at which
/// operating point, under which delivery policy and fault rate.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixPointSpec {
    /// Row number, 1-based and stable across scales.
    pub id: usize,
    /// Model family (a `ci/validation_envelopes.json` family name).
    pub family: &'static str,
    /// Processor / mesh-node count.
    pub p: u64,
    /// Size parameter: FFT length (model2), block words (mesh), row
    /// length (table3).
    pub n: u64,
    /// Blocks per row (model2 families; 1 elsewhere).
    pub k: u64,
    /// Injected fault rate (cycle-accurate only — no closed form exists).
    pub fault_rate: f64,
    /// Delivery policy (`"sca"`, `"Xy"`, `"MinimalAdaptive"`).
    pub policy: &'static str,
}

impl MatrixPointSpec {
    /// The point's coordinates in the fidelity registry's key space.
    pub fn point_config(&self) -> PointConfig {
        PointConfig {
            family: self.family.to_string(),
            p: self.p,
            n: self.n,
            fault_rate: self.fault_rate,
            policy: self.policy.to_string(),
        }
    }

    /// Human-readable operating point, crosscheck-style.
    pub fn point_label(&self) -> String {
        let mut s = format!("P={},N={}", self.p, self.n);
        if self.family.starts_with("model2") {
            s.push_str(&format!(",k={}", self.k));
        }
        if self.fault_rate > 0.0 {
            s.push_str(&format!(",rate={:.0e}", self.fault_rate));
        }
        s
    }
}

/// The 21-row ablation matrix (perf-gate shaped: every historical sweep
/// dimension represented).
///
/// Rows 1–18 sweep the three validated families across their regions —
/// Model II Eq. 11 total time (P × k grid), Eq. 14 efficiency, the Eq. 21
/// mesh scatter across block sizes, and the Table III PSCAN writeback —
/// and are analytic-answerable under `auto`. Rows 19–21 are deliberately
/// outside every validated region (an unvalidated mesh geometry, an
/// unvalidated routing policy, a nonzero fault rate), so any policy that
/// consults the registry must take the cycle-accurate fallback there: the
/// matrix itself guarantees the fallback path is exercised on every run.
pub fn matrix_points(quick: bool) -> Vec<MatrixPointSpec> {
    let n_fft = if quick { 64 } else { 1024 };
    let mut rows = Vec::with_capacity(21);
    let mut id = 0;
    let mut push = |family, p, n, k, fault_rate, policy| {
        id += 1;
        rows.push(MatrixPointSpec {
            id,
            family,
            p,
            n,
            k,
            fault_rate,
            policy,
        });
    };
    // 1–6: Eq. 11 overlapped time, P × k.
    for p in [4u64, 8, 16] {
        for k in [1u64, 8] {
            push("model2_eq11", p, n_fft, k, 0.0, "sca");
        }
    }
    // 7–9: Eq. 14 efficiency at k = 4.
    for p in [4u64, 8, 16] {
        push("model2_eq14", p, n_fft, 4, 0.0, "sca");
    }
    // 10–14: Eq. 21 mesh scatter across block sizes.
    for block in [16u64, 32, 64, 128, 256] {
        push("mesh_eq21", 64, block, 1, 0.0, "Xy");
    }
    // 15–18: Table III PSCAN writeback.
    let t3: [(u64, u64); 4] = if quick {
        [(32, 32), (32, 64), (64, 32), (64, 64)]
    } else {
        [(128, 128), (256, 256), (512, 512), (1024, 1024)]
    };
    for (p, n) in t3 {
        push("table3_pscan", p, n, 1, 0.0, "sca");
    }
    // 19–21: outside validated territory — cycle-accurate fallbacks.
    push("mesh_eq21", 16, 8, 1, 0.0, "Xy"); // unvalidated geometry
    push("mesh_eq21", 64, 16, 1, 0.0, "MinimalAdaptive"); // unvalidated policy
    push("mesh_eq21", 16, 8, 1, 1e-2, "Xy"); // faulted fabric
    rows
}

/// One answered matrix row. Every field is deterministic — wall-clock
/// lives in [`FullMatrixTiming`], outside the cacheable result.
#[derive(Debug, Clone, Serialize)]
pub struct MatrixRow {
    /// Row number (1–21).
    pub id: usize,
    /// Model family.
    pub family: String,
    /// Operating point label.
    pub point: String,
    /// Processor / node count.
    pub p: u64,
    /// Size parameter.
    pub n: u64,
    /// Blocks per row.
    pub k: u64,
    /// Injected fault rate.
    pub fault_rate: f64,
    /// Delivery policy.
    pub policy: String,
    /// The fidelity that answered this row (`decision.chosen`).
    pub fidelity: String,
    /// The answered quantity.
    pub value: f64,
    /// What `value` measures (`seconds`, `cycles`, `efficiency`).
    pub unit: String,
    /// The validated envelope attached to an analytic answer — the error
    /// bar within which the cycle-accurate fabric is known to agree.
    pub envelope_rel_err: Option<f64>,
    /// The full audit record of the fidelity selection.
    pub decision: FidelityDecision,
    /// The all-cycle-accurate reference value (reference runs only).
    pub reference_value: Option<f64>,
    /// `|value − reference| / |reference|` (reference runs only).
    pub reference_rel_err: Option<f64>,
    /// Whether an analytic answer landed inside its envelope against the
    /// measured reference (`None` for cycle-accurate rows).
    pub within_envelope: Option<bool>,
}

/// The deterministic result document of a `full_matrix` job.
#[derive(Debug, Clone, Serialize)]
pub struct FullMatrixResult {
    /// Point sizing used.
    pub scale: String,
    /// Requested fidelity policy, in [`FidelityPolicy::parse`] spelling.
    pub fidelity: String,
    /// Whether the reference pass ran.
    pub reference: bool,
    /// Rows answered from the closed forms.
    pub analytic_rows: usize,
    /// Rows answered by simulation.
    pub cycle_accurate_rows: usize,
    /// The 21 rows.
    pub rows: Vec<MatrixRow>,
}

/// Wall-clock accounting of one matrix run, kept out of the result
/// document so cached bytes stay machine-independent. The `full_matrix`
/// bin derives its speedup assertions from these.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullMatrixTiming {
    /// Wall seconds of the fidelity-selected pass (all 21 rows).
    pub selected_wall_s: f64,
    /// Wall seconds spent inside analytic evaluations alone.
    pub analytic_wall_s: f64,
    /// Wall seconds of the cycle-accurate reference pass (all rows).
    pub reference_wall_s: f64,
    /// Reference wall seconds over just the analytic-answered rows — the
    /// simulation time the fast path actually displaced.
    pub reference_analytic_wall_s: f64,
}

/// Evaluate one matrix point analytically (the validated closed forms).
/// Returns `(value, unit)`.
fn analytic_value(pt: &MatrixPointSpec) -> Result<(f64, &'static str), WorkError> {
    match pt.family {
        "model2_eq11" => Ok((
            model2_point(pt.p, pt.n, pt.k, &Model2TimingParams::default()).overlapped_seconds,
            "seconds",
        )),
        "model2_eq14" => Ok((
            model2_point(pt.p, pt.n, pt.k, &Model2TimingParams::default()).efficiency,
            "efficiency",
        )),
        "mesh_eq21" => Ok((mesh_scatter_cycles(pt.p, pt.n, 1) as f64, "cycles")),
        "table3_pscan" => Ok((table3_writeback_cycles(pt.p, pt.n) as f64, "cycles")),
        other => Err(WorkError::Fatal {
            detail: format!("no closed form for family {other:?}"),
        }),
    }
}

/// Evaluate one matrix point on its cycle-accurate fabric. Returns
/// `(value, unit)`.
fn cycle_accurate_value(
    pt: &MatrixPointSpec,
    interrupt: Option<&Interrupt>,
) -> Result<(f64, &'static str), WorkError> {
    match pt.family {
        "model2_eq11" | "model2_eq14" => {
            let (procs, n, k) = (pt.p as usize, pt.n as usize, pt.k as usize);
            let rows = signal_rows(procs, n);
            let run = psync::run_model2_rows(procs, n, k, &rows);
            if pt.family == "model2_eq11" {
                Ok((run.overlapped_seconds, "seconds"))
            } else {
                Ok((run.efficiency, "efficiency"))
            }
        }
        "mesh_eq21" => {
            let policy = match pt.policy {
                "Xy" => RoutingPolicy::Xy,
                "MinimalAdaptive" => RoutingPolicy::MinimalAdaptive,
                other => {
                    return Err(WorkError::Fatal {
                        detail: format!("unknown mesh policy {other:?}"),
                    })
                }
            };
            let cfg = MeshConfig {
                topology: Topology::square(pt.p as usize, MemifPlacement::SingleCorner),
                t_r: 1,
                policy,
                memif: Default::default(),
                buffer_depth: 2,
                max_cycles: 1 << 30,
            };
            let mut mesh = load_scatter(cfg, pt.n as usize, pt.k as usize);
            if pt.fault_rate > 0.0 {
                mesh.enable_faults(MeshFaultConfig {
                    seed: 0xFA_u64,
                    corrupt_rate: pt.fault_rate,
                    link_down_rate: pt.fault_rate / 10.0,
                    max_retransmits: 64,
                    ..Default::default()
                });
            }
            if let Some(intr) = interrupt {
                mesh.set_interrupt(intr.clone());
            }
            let res = mesh.run().map_err(classify_mesh)?;
            Ok((res.cycles as f64, "cycles"))
        }
        "table3_pscan" => {
            let wb =
                table3_writeback(pt.p as usize, pt.n as usize).map_err(|e| WorkError::Fatal {
                    detail: format!("pscan gather: {e}"),
                })?;
            Ok((wb.cycles() as f64, "cycles"))
        }
        other => Err(WorkError::Fatal {
            detail: format!("no fabric for family {other:?}"),
        }),
    }
}

/// Run the full matrix under `spec`'s fidelity policy.
///
/// Per row: consult the validation registry ([`decide`]), evaluate on the
/// chosen path, and — when `spec.reference` — also evaluate the
/// cycle-accurate reference and attach the disagreement columns. Rows the
/// selected pass already simulated reuse that value as their reference
/// (the fabrics are deterministic, so rerunning them would produce the
/// same number and twice the bill). Decisions are recorded on `telemetry`
/// when given; the interrupt is polled between rows and threaded into the
/// mesh runs.
pub fn run_full_matrix(
    spec: &FullMatrixSpec,
    interrupt: Option<&Interrupt>,
    telemetry: Option<&Registry>,
) -> Result<(FullMatrixResult, FullMatrixTiming), WorkError> {
    let registry = ValidationRegistry::builtin();
    let points = matrix_points(spec.quick);

    let mut intr = interrupt.cloned();
    let mut rows = Vec::with_capacity(points.len());
    let mut timing = FullMatrixTiming::default();
    for (done, pt) in points.iter().enumerate() {
        if let Some(cause) = intr.as_mut().and_then(|i| i.check(done as u64)) {
            return Err(WorkError::Cancelled {
                detail: format!("full_matrix Cancelled after {done} row(s) ({cause})"),
            });
        }
        let decision = decide(spec.fidelity, &pt.point_config(), &registry);
        if let Some(reg) = telemetry {
            record_decision(reg, &decision);
        }
        eprintln!(
            "full_matrix: row {:>2} {} [{}] -> {} ({})",
            pt.id,
            pt.family,
            pt.point_label(),
            decision.chosen,
            decision.reason
        );
        let t0 = std::time::Instant::now();
        let (value, unit) = if decision.is_analytic() {
            analytic_value(pt)?
        } else {
            cycle_accurate_value(pt, interrupt)?
        };
        let row_wall = t0.elapsed().as_secs_f64();
        timing.selected_wall_s += row_wall;
        if decision.is_analytic() {
            timing.analytic_wall_s += row_wall;
        }

        let (reference_value, reference_rel_err, within_envelope) = if spec.reference {
            let (ref_value, ref_wall) = if decision.is_analytic() {
                let t1 = std::time::Instant::now();
                let (v, _) = cycle_accurate_value(pt, interrupt)?;
                let w = t1.elapsed().as_secs_f64();
                timing.reference_analytic_wall_s += w;
                (v, w)
            } else {
                (value, row_wall)
            };
            timing.reference_wall_s += ref_wall;
            let rel = if ref_value == 0.0 {
                (value - ref_value).abs()
            } else {
                (value - ref_value).abs() / ref_value.abs()
            };
            let inside = decision.envelope_rel_err.map(|env| rel <= env + 1e-12);
            (Some(ref_value), Some(rel), inside)
        } else {
            (None, None, None)
        };

        rows.push(MatrixRow {
            id: pt.id,
            family: pt.family.to_string(),
            point: pt.point_label(),
            p: pt.p,
            n: pt.n,
            k: pt.k,
            fault_rate: pt.fault_rate,
            policy: pt.policy.to_string(),
            fidelity: decision.chosen.clone(),
            value,
            unit: unit.to_string(),
            envelope_rel_err: decision.envelope_rel_err,
            decision,
            reference_value,
            reference_rel_err,
            within_envelope,
        });
    }

    let analytic_rows = rows.iter().filter(|r| r.fidelity == "analytic").count();
    let result = FullMatrixResult {
        scale: if spec.quick { "quick" } else { "paper" }.to_string(),
        fidelity: spec.fidelity.wire(),
        reference: spec.reference,
        analytic_rows,
        cycle_accurate_rows: rows.len() - analytic_rows,
        rows,
    };
    Ok((result, timing))
}

// ---------------------------------------------------------------------------
// Supervised execution: the Table III job body
// ---------------------------------------------------------------------------

/// The cache key of a Table III job: FNV-1a over the spec plus the
/// deadline bits. The deadline is part of the key so a run cancelled at 0 s
/// can never poison (or be served from) the untimed entry.
pub fn table3_cache_key(spec: &Table3Spec, timeout_s: Option<f64>) -> u64 {
    fnv1a64(
        format!(
            "table3|procs={}|row_len={}|timeout={:?}",
            spec.procs,
            spec.row_len,
            timeout_s.map(f64::to_bits)
        )
        .as_bytes(),
    )
}

/// Package a Table III run as a supervised job body: cache lookup keyed on
/// [`table3_cache_key`], [`run_table3`] on a miss, cancellation reported as
/// [`WorkError::Cancelled`]. The job's bytes are the pretty-printed
/// [`Table3Row`], the same bytes the `table3_transpose` bin writes.
pub fn table3_work(spec: Table3Spec, timeout_s: Option<f64>, cache: Arc<ResultCache>) -> Box<Work> {
    Box::new(move |interrupt| {
        let intr = interrupt.is_armed().then_some(&interrupt);
        let key = table3_cache_key(&spec, timeout_s);
        let (entry, cached) = cache.get_or_build(key, || {
            let (row, _) = run_table3(&spec, false, intr).map_err(classify_mesh)?;
            serde_json::to_string_pretty(&row).map_err(|e| WorkError::Fatal {
                detail: format!("serialize result rows: {e}"),
            })
        })?;
        Ok(JobSuccess {
            json: entry.result_json.clone(),
            cached,
            fingerprint: entry.fingerprint,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::cancel::CancelCause;

    fn tiny() -> Table3Spec {
        Table3Spec {
            procs: 16,
            row_len: 8,
        }
    }

    #[test]
    fn uninterrupted_run_produces_consistent_row() {
        let (row, regs) = run_table3(&tiny(), false, None).expect("tiny transpose completes");
        assert_eq!(row.procs, 16);
        assert!(row.pscan_cycles > 0);
        assert!(row.mesh_cycles_tp1 > 0);
        assert!(row.multiplier_tp1 > 0.0);
        assert!(regs.is_empty(), "no tracing requested");
    }

    #[test]
    fn interrupt_is_ignored_when_nothing_fires() {
        let idle = Interrupt::new().with_cycle_bound(u64::MAX);
        let (a, _) = run_table3(&tiny(), false, None).unwrap();
        let (b, _) = run_table3(&tiny(), false, Some(&idle)).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "an armed-but-silent interrupt must not perturb the numbers"
        );
    }

    #[test]
    fn cycle_bound_cancels_with_structured_error() {
        let intr = Interrupt::new().with_cycle_bound(0);
        let err = run_table3(&tiny(), false, Some(&intr)).expect_err("bound 0 fires immediately");
        match err {
            MeshError::Cancelled { cause, .. } => {
                assert_eq!(cause, CancelCause::CycleReached { bound: 0 });
            }
            other => panic!("expected Cancelled, got {other}"),
        }
        assert!(err.to_string().contains("Cancelled"));
    }

    #[test]
    fn collectives_family_runs_both_fabrics_deterministically() {
        let spec = CollectivesSpec {
            width: 4,
            height: 4,
            torus: false,
            words: 4,
        };
        let torus = CollectivesSpec {
            torus: true,
            ..spec.clone()
        };
        for collective in Collective::ALL {
            let mesh = collective_mesh_row(&spec, collective).expect("mesh collective runs");
            let sca = collective_sca_row(&spec, collective).expect("sca collective runs");
            assert!(mesh.cycles > 0 && sca.cycles > 0, "{collective:?}");
            assert_eq!(
                (mesh.geometry.as_str(), sca.geometry.as_str()),
                ("4x4", "p16")
            );
            let again = collective_mesh_row(&spec, collective).unwrap();
            assert_eq!(mesh.fingerprint, again.fingerprint, "{collective:?} mesh");
            let again = collective_sca_row(&spec, collective).unwrap();
            assert_eq!(sca.fingerprint, again.fingerprint, "{collective:?} sca");
            // The torus is a different deterministic result, not a crash.
            let wrapped = collective_mesh_row(&torus, collective).unwrap();
            assert_eq!(wrapped.geometry, "4x4t");
            assert_ne!(
                wrapped.fingerprint, mesh.fingerprint,
                "{collective:?} torus"
            );
        }
    }

    #[test]
    fn table3_cache_key_separates_spec_and_deadline() {
        let key = table3_cache_key(&tiny(), None);
        assert_eq!(key, table3_cache_key(&tiny(), None), "the key is stable");
        for other in [
            Table3Spec {
                procs: 64,
                ..tiny()
            },
            Table3Spec {
                row_len: 16,
                ..tiny()
            },
        ] {
            assert_ne!(key, table3_cache_key(&other, None), "{other:?}");
        }
        assert_ne!(key, table3_cache_key(&tiny(), Some(0.0)));
        assert_ne!(
            table3_cache_key(&tiny(), Some(0.0)),
            table3_cache_key(&tiny(), Some(1.0))
        );
    }

    #[test]
    fn matrix_composition_is_21_rows_with_3_forced_fallbacks() {
        let registry = ValidationRegistry::builtin();
        let auto = FidelityPolicy::auto();
        for quick in [true, false] {
            let points = matrix_points(quick);
            assert_eq!(points.len(), 21);
            assert!(points.iter().enumerate().all(|(i, p)| p.id == i + 1));
            let analytic = points
                .iter()
                .filter(|p| decide(auto, &p.point_config(), &registry).is_analytic())
                .count();
            // Rows 19–21 (unvalidated geometry, unvalidated policy, faults)
            // must fall back to cycle-accurate at either scale.
            assert_eq!(analytic, 18, "quick={quick}");
            assert_eq!(points.iter().filter(|p| p.fault_rate > 0.0).count(), 1);
        }
    }

    #[test]
    fn full_matrix_runs_without_reference_and_labels_every_row() {
        let spec = FullMatrixSpec {
            quick: true,
            fidelity: FidelityPolicy::auto(),
            reference: false,
        };
        let (result, timing) = run_full_matrix(&spec, None, None).unwrap();
        assert_eq!(result.rows.len(), 21);
        assert_eq!(result.analytic_rows, 18);
        assert_eq!(result.cycle_accurate_rows, 3);
        for row in &result.rows {
            assert!(row.value > 0.0, "row {} has no answer", row.id);
            assert_eq!(row.fidelity, row.decision.chosen);
            assert_eq!(
                row.fidelity == "analytic",
                row.envelope_rel_err.is_some(),
                "row {}: analytic answers carry envelopes, simulated ones don't",
                row.id
            );
            assert!(row.reference_value.is_none());
            assert!(row.within_envelope.is_none());
        }
        assert!(timing.selected_wall_s > 0.0);
        assert!(timing.analytic_wall_s <= timing.selected_wall_s);
        // Determinism: a second run produces byte-identical result JSON.
        let (again, _) = run_full_matrix(&spec, None, None).unwrap();
        assert_eq!(
            serde_json::to_string(&result).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn tiny_specs_run_to_deterministic_json() {
        let spec = AblateFaultsSpec {
            rates: vec![0.0, 0.01],
            procs: 16,
            row_len: 8,
            gathers: 2,
        };
        let points = run_ablate_faults(&spec, None).expect("tiny sweep runs");
        let again = run_ablate_faults(&spec, None).expect("rerun");
        assert_eq!(
            serde_json::to_string_pretty(&points).unwrap(),
            serde_json::to_string_pretty(&again).unwrap(),
            "ablate_faults result bytes must be deterministic"
        );
        assert_eq!(points.len(), 2, "one point per rate");
        assert_eq!(points[0].total_retries, 0, "rate 0 injects nothing");
    }

    #[test]
    fn supervised_work_caches() {
        let cache = Arc::new(ResultCache::new());
        let job = |timeout_s| table3_work(tiny(), timeout_s, Arc::clone(&cache))(Interrupt::new());
        let first = job(None).expect("tiny job runs");
        assert!(!first.cached);
        let (row, _) = run_table3(&tiny(), false, None).unwrap();
        assert_eq!(first.json, serde_json::to_string_pretty(&row).unwrap());
        let again = job(None).expect("cache hit");
        assert!(again.cached);
        assert_eq!(first.json, again.json, "byte-identical from the cache");
        assert_eq!(first.fingerprint, again.fingerprint);
        // Another deadline is another key: a miss that simulates again.
        let timed = job(Some(3600.0)).expect("generous deadline runs");
        assert!(!timed.cached);
        assert_eq!(timed.fingerprint, first.fingerprint);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
    }

    #[test]
    fn no_progress_is_a_failure_not_a_cancellation() {
        let wedged = MeshError::NoProgress {
            at_cycle: 7,
            report: Box::new(emesh::MeshDiagnostic {
                killed_routers: vec![13],
                in_flight: 1,
                pending_inject: 0,
                pending_retransmits: 0,
                stuck_routers: vec![(14, 1)],
                stats: MeshFaultStats::default(),
            }),
        };
        assert!(
            matches!(classify_mesh(wedged), WorkError::Fatal { .. }),
            "a wedged mesh is reported failed, not retried or cancelled"
        );
    }
}
