//! `table3_mesh`: the Table III transpose writeback on the wormhole mesh.
//!
//! P processors of a square mesh each write one N-element FFT row back
//! transposed to a single corner memory interface, under minimal adaptive
//! routing, at `t_p = 1` and `t_p = 4`. The traffic is oblivious, so the
//! seed does not change the schedule. `emesh` does all the work. Each
//! `t_p` is one part of a repetition, timed on its own.

use analytic::table3::{PAPER_MESH_WRITEBACK_TP1, PAPER_MESH_WRITEBACK_TP4};
use emesh::mesh::MeshConfig;
use emesh::workloads::load_transpose;

use crate::trace::{count, span, Tracer};
use crate::{expect, timed, Rep, Workload};

/// The two reorder-stage costs Table III reports.
pub const T_PS: [u64; 2] = [1, 4];

/// The workload at one size.
#[derive(Debug, Clone)]
pub struct Table3Mesh {
    /// Processors (mesh nodes).
    pub procs: usize,
    /// Elements per processor row.
    pub row_len: usize,
    /// Expected simulated cycles per `t_p` (the committed results), if known.
    pub expected_cycles: Option<[u64; 2]>,
}

impl Table3Mesh {
    /// The paper's 2²⁰ transpose: P = N = 1024 on a 32×32 mesh.
    pub fn paper(expected_cycles: Option<[u64; 2]>) -> Self {
        Table3Mesh {
            procs: 1024,
            row_len: 1024,
            expected_cycles,
        }
    }

    fn config(&self, t_p: u64) -> MeshConfig {
        MeshConfig::table3(self.procs, t_p)
    }

    /// The paper's published mesh cycles, at the paper's size only.
    fn paper_cycles(&self) -> Option<[u64; 2]> {
        (self.procs == 1024 && self.row_len == 1024)
            .then_some([PAPER_MESH_WRITEBACK_TP1, PAPER_MESH_WRITEBACK_TP4])
    }
}

impl Workload for Table3Mesh {
    /// One part per `t_p`.
    fn parts(&self) -> usize {
        T_PS.len()
    }

    fn rep_part(&mut self, part: usize, tr: Option<&Tracer>) -> Rep {
        let mut rep = Rep::default();
        let elements = (self.procs * self.row_len) as u64;
        let t_p = T_PS[part];
        let cfg = self.config(t_p);
        let (setup_s, mut mesh) = timed(|| match tr {
            Some(t) => t.setup(|| {
                t.span("emesh", "build", || {
                    load_transpose(cfg, self.procs, self.row_len)
                })
            }),
            None => load_transpose(cfg, self.procs, self.row_len),
        });
        rep.setup_s = setup_s;
        let (run_s, result) = timed(|| span(tr, "emesh", "run", || mesh.run()));
        rep.run_s = run_s;
        drop(mesh);

        let mut problems = Vec::new();
        match result {
            Err(e) => problems.push(format!("mesh error: {e:?}")),
            Ok(res) => {
                let staged: u64 = res.memif_stats.iter().map(|s| s.elements).sum();
                let hotspot = res.router_forwards.iter().copied().max().unwrap_or(0);
                let moves = res.energy.router_traversals;
                expect(&mut problems, staged == elements, || {
                    format!("staged {staged} of {elements} elements")
                });
                if let Some(exp) = self.expected_cycles {
                    expect(&mut problems, res.cycles == exp[part], || {
                        format!("{} cycles, committed results say {}", res.cycles, exp[part])
                    });
                }
                if let Some(paper) = self.paper_cycles() {
                    let err = res.cycles.abs_diff(paper[part]) as f64 / paper[part] as f64;
                    rep.paper_rel_err = Some(err);
                }
                rep.witness(format!("emesh.sim_cycles.tp{t_p}"), res.cycles);
                rep.witness(format!("emesh.flit_moves.tp{t_p}"), moves);
                rep.witness(format!("emesh.hotspot_forwards.tp{t_p}"), hotspot);
                rep.witness(format!("emesh.staged.tp{t_p}"), staged);
                count(tr, "emesh.sim_cycles", res.cycles);
                count(tr, "emesh.flit_moves", moves);
                if let Some(t) = tr {
                    t.count_max("emesh.hotspot_forwards", hotspot);
                }
            }
        }
        rep.finish(&format!("transpose t_p={t_p}"), problems);
        rep
    }

    fn setup_only(&mut self) -> f64 {
        T_PS.iter()
            .map(|&t_p| {
                let cfg = self.config(t_p);
                timed(|| load_transpose(cfg, self.procs, self.row_len)).0
            })
            .sum()
    }
}
