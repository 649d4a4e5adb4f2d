//! `collectives_mixed`: all-to-all, all-gather and all-reduce on both
//! fabrics over several non-torus rectangles.
//!
//! The mesh side runs each collective as bulk-synchronous ring rounds, each
//! on a freshly built mesh (`emesh::collectives`). The SCA side routes every
//! collective through head DRAM as gather and scatter passes
//! (`psync::collectives`) on a machine built during set-up. The traffic is
//! fixed by the collectives' schedules and `psync::collectives::seed_words`,
//! so the seed does not change it.

use emesh::collectives::run_mesh_collective;
use emesh::mesh::MeshConfig;
use emesh::topology::{MemifPlacement, Topology};
use psync::collectives::{run_sca_collective, seed_words};
use psync::machine::{Machine, MachineConfig};
use sim_core::collective::Collective;

use crate::trace::{count, span, Tracer};
use crate::{expect, timed, Rep, Workload};

/// The workload at one size.
#[derive(Debug, Clone)]
pub struct CollectivesMixed {
    /// Mesh `(width, height)` rectangles; the SCA machine has `width ·
    /// height` processors.
    pub geometries: Vec<(usize, usize)>,
    /// Payload words per block on the mesh.
    pub mesh_words: usize,
    /// Payload words per node on the SCA machine.
    pub sca_words: usize,
}

impl CollectivesMixed {
    /// The benchmark's size: 8×8, 16×8 and 16×16, 16 words per block.
    pub fn benchmark() -> Self {
        CollectivesMixed {
            geometries: vec![(8, 8), (16, 8), (16, 16)],
            mesh_words: 16,
            sca_words: 16,
        }
    }

    /// DRAM words a collective needs on `procs` processors.
    fn dram_words(&self, collective: Collective, procs: usize) -> usize {
        match collective {
            Collective::AllToAll | Collective::AllGather => procs * procs * self.sca_words,
            Collective::AllReduce => procs * self.sca_words,
        }
    }

    /// One machine per (geometry, collective), in run order.
    fn build_machines(&self, tr: Option<&Tracer>) -> Vec<Machine> {
        let mut machines = Vec::new();
        for &(w, h) in &self.geometries {
            for collective in Collective::ALL {
                let cfg = MachineConfig::paper_default(w * h, self.dram_words(collective, w * h));
                machines.push(span(tr, "psync", "build", || Machine::new(cfg)));
            }
        }
        machines
    }

    fn mesh_op(
        &self,
        rep: &mut Rep,
        collective: Collective,
        (w, h): (usize, usize),
        tr: Option<&Tracer>,
    ) {
        let cfg = MeshConfig::paper_default().with_topology(Topology::rect(
            w,
            h,
            MemifPlacement::SingleCorner,
        ));
        let (run_s, result) = timed(|| {
            span(tr, "emesh", "collective", || {
                run_mesh_collective(collective, cfg, self.mesh_words, None)
            })
        });
        rep.run_s += run_s;
        let label = format!("{}.mesh.{w}x{h}", collective.label());
        let mut problems = Vec::new();
        match result {
            Err(e) => problems.push(format!("mesh error: {e:?}")),
            Ok(res) => {
                let p = res.participants;
                let block = match collective {
                    Collective::AllToAll | Collective::AllGather => self.mesh_words as u64,
                    // Reduce-scatter then all-gather of ⌈words/P⌉ shards.
                    Collective::AllReduce => 2 * (self.mesh_words as u64).div_ceil(p),
                };
                let expected = p * (p - 1) * block;
                expect(&mut problems, res.delivered_words == expected, || {
                    format!(
                        "delivered {} words, expected {expected}",
                        res.delivered_words
                    )
                });
                expect(&mut problems, res.deadlock_splits == 0, || {
                    format!("{} deadlock splits", res.deadlock_splits)
                });
                let rounds: u64 = res.phases.iter().map(|ph| ph.rounds).sum();
                count(tr, "emesh.rounds", rounds);
                count(tr, "emesh.deadlock_splits", res.deadlock_splits);
                count(tr, "emesh.sim_cycles", res.cycles);
                rep.witness(format!("emesh.{label}.cycles"), res.cycles);
                rep.witness(format!("emesh.{label}.fingerprint"), res.fingerprint());
            }
        }
        rep.finish(&label, problems);
    }

    fn sca_op(
        &self,
        rep: &mut Rep,
        collective: Collective,
        machine: &mut Machine,
        tr: Option<&Tracer>,
    ) {
        let p = machine.nodes.len();
        let words = self.sca_words;
        let (run_s, result) = timed(|| {
            span(tr, "psync", "machine", || {
                run_sca_collective(machine, collective, words)
            })
        });
        rep.run_s += run_s;
        let label = format!("{}.sca.p{p}", collective.label());
        let mut problems = Vec::new();
        match result {
            Err(e) => problems.push(format!("machine error: {e:?}")),
            Ok(res) => {
                let expected = expected_received(collective, p, words);
                expect(&mut problems, res.received == expected, || {
                    "receive buffers differ from the collective's definition".to_string()
                });
                let stats = machine.head.dram_stats();
                count(tr, "memory.accesses", stats.accesses);
                count(tr, "memory.row_hits", stats.hits);
                rep.witness(format!("psync.{label}.bus_slots"), res.bus_slots);
                rep.witness(format!("psync.{label}.fingerprint"), res.fingerprint());
            }
        }
        rep.finish(&label, problems);
    }
}

impl Workload for CollectivesMixed {
    fn rep_part(&mut self, _part: usize, tr: Option<&Tracer>) -> Rep {
        let mut rep = Rep::default();
        let (setup_s, machines) = timed(|| match tr {
            Some(t) => t.setup(|| self.build_machines(tr)),
            None => self.build_machines(None),
        });
        rep.setup_s = setup_s;
        let mut machines = machines.into_iter();
        for &geometry in &self.geometries {
            for collective in Collective::ALL {
                self.mesh_op(&mut rep, collective, geometry, tr);
                let mut machine = machines.next().expect("one machine per operation");
                self.sca_op(&mut rep, collective, &mut machine, tr);
            }
        }
        rep
    }

    fn setup_only(&mut self) -> f64 {
        timed(|| self.build_machines(None)).0
    }
}

/// What each node must hold after `collective` over `p` nodes seeded by
/// [`seed_words`]: transposed blocks, full gathers, or exact sums.
pub fn expected_received(collective: Collective, p: usize, words: usize) -> Vec<Vec<u64>> {
    let send: Vec<Vec<u64>> = (0..p)
        .map(|i| seed_words(i, p, words, collective))
        .collect();
    match collective {
        Collective::AllToAll => (0..p)
            .map(|d| {
                send.iter()
                    .flat_map(|s| s[d * words..(d + 1) * words].iter().copied())
                    .collect()
            })
            .collect(),
        Collective::AllGather => vec![send.concat(); p],
        Collective::AllReduce => {
            let sum: Vec<u64> = (0..words)
                .map(|j| send.iter().map(|s| s[j]).sum())
                .collect();
            vec![sum; p]
        }
    }
}
