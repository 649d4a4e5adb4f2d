//! `psync_fft2d`: the §V-B distributed N×N complex 2-D FFT on P-sync.
//!
//! The untraced repetition calls [`psync::run_fft2d`] once per processor
//! count on a seed-drawn input matrix; each processor count is one part of
//! a repetition, timed on its own. `Machine` keeps its PSCAN private,
//! so the traced repetition replays the same phase flow through the public
//! `CpCompiler`, `Pscan::bus()`, `HeadNode` and `Node` calls, with a span
//! around each, and must leave a DRAM image bit-identical to
//! `run_fft2d`'s output.

use analytic::surrogate::table3_writeback_cycles;
use analytic::table3::table3_pscan_cycles;
use fft::complex::max_error;
use fft::fft2d::{Fft2d, Matrix};
use fft::Complex64;
use pscan::compiler::{CpCompiler, GatherSpec, ScatterSpec};
use pscan::cp::CommProgram;
use pscan::network::{Pscan, PscanConfig};
use psync::head::HeadNode;
use psync::machine::{Machine, MachineConfig};
use psync::node::Node;
use psync::run_fft2d;
use psync::sample::{decode_all, encode_all, encode_sample};
use sim_core::rng::child_seed;

use crate::trace::Tracer;
use crate::{expect, fnv1a, timed, Rep, Workload};

/// Largest spectrum error accepted, relative to the spectrum's largest
/// magnitude: four transports through the 64-bit wire format each round
/// to f32 (unit roundoff 2⁻²⁴), and the error stays within a few units.
pub const SPECTRUM_REL_TOL: f64 = 1e-6;

/// The workload at one size.
#[derive(Debug, Clone)]
pub struct PsyncFft2d {
    /// Matrix edge N.
    pub n: usize,
    /// Processor counts to run, each dividing N.
    pub procs: Vec<usize>,
    /// Input seed.
    pub seed: u64,
    /// Reference spectrum, computed once per process.
    reference: Option<Matrix>,
    /// DRAM region A after `run_fft2d`, per processor count.
    images: Vec<Option<Vec<u64>>>,
}

impl PsyncFft2d {
    /// A workload over an `n × n` matrix at each of `procs`.
    pub fn new(n: usize, procs: Vec<usize>, seed: u64) -> Self {
        let images = vec![None; procs.len()];
        PsyncFft2d {
            n,
            procs,
            seed,
            reference: None,
            images,
        }
    }

    /// The paper's 1024×1024 FFT at P ∈ {64, 256, 1024}: CP runs of 16,
    /// 4 and 1 slots in the transpose.
    pub fn paper(seed: u64) -> Self {
        PsyncFft2d::new(1024, vec![64, 256, 1024], seed)
    }

    fn machine_config(&self, procs: usize) -> MachineConfig {
        MachineConfig::paper_default(procs, 2 * self.n * self.n)
    }

    /// Build the input and, per processor count in `procs`, the machine
    /// with its head DRAM filled: the state `run_fft2d` builds before its
    /// phases. Returns the host seconds and the input.
    fn setup(&self, procs: &[usize]) -> (f64, Matrix) {
        let (mut secs, (input, wire)) = timed(|| {
            let input = input_matrix(self.n, self.seed);
            let wire = encode_all(&input.data);
            (input, wire)
        });
        for &p in procs {
            secs += timed(|| {
                let mut m = Machine::new(self.machine_config(p));
                m.head.fill(0, &wire);
                m
            })
            .0;
        }
        (secs, input)
    }

    /// The reference spectrum and the host seconds it took (0 once cached).
    fn reference(&mut self, input: &Matrix) -> (f64, &Matrix) {
        let mut secs = 0.0;
        if self.reference.is_none() {
            let (s, spectrum) = timed(|| Fft2d::new(self.n, self.n).forward(input));
            secs = s;
            self.reference = Some(spectrum);
        }
        (secs, self.reference.as_ref().expect("just set"))
    }

    fn rep_untraced(&mut self, i: usize) -> Rep {
        let mut rep = Rep::default();
        let p = self.procs[i];
        let (setup_s, input) = self.setup(&[p]);
        rep.setup_s = setup_s;
        let (run_s, run) = timed(|| run_fft2d(p, &input));
        rep.run_s = run_s;

        let image = encode_all(&run.output.data);
        let slots = run.transpose_bus_slots;
        let slots_expected = table3_writeback_cycles(self.n as u64, self.n as u64);
        let (ref_s, reference) = self.reference(&input);
        rep.check_s = ref_s;
        let rel = spectrum_rel_err(&run.output, reference);
        let mut problems = Vec::new();
        expect(&mut problems, rel <= SPECTRUM_REL_TOL, || {
            format!("spectrum relative error {rel:e} > {SPECTRUM_REL_TOL:e}")
        });
        expect(&mut problems, slots == slots_expected, || {
            format!("transpose took {slots} bus slots, closed form {slots_expected}")
        });
        if self.n == 1024 {
            let paper = table3_pscan_cycles();
            rep.paper_rel_err = Some(slots.abs_diff(paper) as f64 / paper as f64);
        }
        rep.finish(&format!("run_fft2d P={p}"), problems);

        rep.witness(format!("pscan.transpose_slots.p{p}"), slots);
        let phases = &run.phases;
        rep.witness(
            format!("psync.bus_slots.p{p}"),
            phases.iter().map(|t| t.bus_slots).sum(),
        );
        rep.witness(
            format!("memory.dram_cycles.p{p}"),
            phases.iter().map(|t| t.dram_cycles).sum(),
        );
        rep.witness(
            format!("psync.image_fnv.p{p}"),
            fnv1a(image.iter().copied()),
        );
        self.images[i] = Some(image);
        rep
    }

    fn rep_traced(&mut self, i: usize, tr: &Tracer) -> Rep {
        let mut rep = Rep::default();
        let p = self.procs[i];
        let (setup_s, input) = timed(|| input_matrix(self.n, self.seed));
        rep.setup_s = setup_s;
        let (run_s, replayed) = timed(|| tr.span("psync", "machine", || replay(p, &input, tr)));
        rep.run_s = run_s;
        let image = match self.images[i].take() {
            Some(image) => image,
            None => encode_all(&run_fft2d(p, &input).output.data),
        };
        let mut problems = Vec::new();
        match replayed {
            Err(e) => problems.push(e),
            Ok(replayed) => expect(&mut problems, replayed == image, || {
                "replayed DRAM image differs from run_fft2d's".to_string()
            }),
        }
        rep.finish(&format!("replay P={p}"), problems);
        self.images[i] = Some(image);
        rep
    }
}

impl Workload for PsyncFft2d {
    /// One part per processor count.
    fn parts(&self) -> usize {
        self.procs.len()
    }

    fn rep_part(&mut self, part: usize, tr: Option<&Tracer>) -> Rep {
        match tr {
            Some(t) => self.rep_traced(part, t),
            None => self.rep_untraced(part),
        }
    }

    fn setup_only(&mut self) -> f64 {
        self.setup(&self.procs).0
    }
}

/// The seed-drawn input: real and imaginary parts uniform in [−1, 1).
pub fn input_matrix(n: usize, seed: u64) -> Matrix {
    let unit = |k: u64| (child_seed(seed, k) >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    Matrix::from_fn(n, n, |r, c| {
        let k = 2 * (r * n + c) as u64;
        Complex64::new(unit(k), unit(k + 1))
    })
}

/// Largest element error relative to the reference's largest magnitude.
pub fn spectrum_rel_err(out: &Matrix, reference: &Matrix) -> f64 {
    let scale = reference.data.iter().map(|c| c.abs()).fold(0.0, f64::max);
    max_error(&out.data, &reference.data) / scale.max(f64::MIN_POSITIVE)
}

/// The machine's state during a replay.
struct Replay<'a> {
    tr: &'a Tracer,
    procs: usize,
    pscan: Pscan,
    head: HeadNode,
}

impl Replay<'_> {
    fn count_cps(&self, cps: &[CommProgram]) {
        let entries = cps.iter().map(|cp| cp.entries().len() as u64).sum();
        self.tr.count("pscan.cp_entries", entries);
    }

    /// SCA⁻¹: stream `addrs` out of DRAM and deliver per `spec`.
    fn scatter(&mut self, addrs: &[u64], spec: &ScatterSpec) -> Result<Vec<Vec<u64>>, String> {
        let tr = self.tr;
        let cps = tr.span("pscan", "compile", || {
            CpCompiler.compile_scatter(spec, self.procs)
        });
        self.count_cps(&cps);
        let (burst, _) = tr.span("memory", "stream_out", || {
            self.head.stream_out(addrs.iter().copied())
        });
        let out = tr
            .span("pscan", "scatter", || {
                self.pscan.bus().scatter(&cps, &burst)
            })
            .map_err(|e| format!("scatter: {e:?}"))?;
        tr.count("pscan.bus_slots", burst.len() as u64);
        tr.count(
            "pscan.useful_slots",
            out.delivered.iter().map(|d| d.len() as u64).sum(),
        );
        Ok(out.delivered)
    }

    /// SCA: gather `node_words` per `spec` and write slot `k` to `addrs[k]`.
    fn gather(
        &mut self,
        spec: &GatherSpec,
        node_words: &[Vec<u64>],
        addrs: &[u64],
    ) -> Result<(), String> {
        let tr = self.tr;
        let cps = tr.span("pscan", "compile", || {
            CpCompiler.compile_gather(spec, self.procs)
        });
        self.count_cps(&cps);
        let out = tr
            .span("pscan", "gather", || {
                self.pscan.bus().gather(&cps, node_words)
            })
            .map_err(|e| format!("gather: {e:?}"))?;
        let received = out.received.len() as u64;
        let words: Vec<u64> = out.received.into_iter().flatten().collect();
        tr.count("pscan.bus_slots", received);
        tr.count("pscan.useful_slots", words.len() as u64);
        if words.len() as u64 != received {
            return Err(format!(
                "gather underrun: {} of {received} slots",
                words.len()
            ));
        }
        tr.span("memory", "stream_in", || {
            self.head
                .stream_in(addrs.iter().copied().zip(words.iter().copied()))
        });
        Ok(())
    }
}

/// Run every node's row FFTs, counting butterflies.
fn fft_rows(nodes: &mut [Node], n: usize, tr: &Tracer) {
    let rows: usize = nodes.iter().map(|node| node.data.len() / n).sum();
    tr.span("fft", "rows", || {
        for node in nodes.iter_mut() {
            node.fft_rows(n);
        }
    });
    tr.count(
        "fft.butterflies",
        rows as u64 * fft::ops::butterflies(n as u64),
    );
}

/// Words a node drives in a transposing gather: its `rows_per` rows of
/// `data`, column by column.
fn transposed_words(data: &[Complex64], n: usize, rows_per: usize) -> Vec<u64> {
    let mut words = Vec::with_capacity(rows_per * n);
    for c in 0..n {
        for r in 0..rows_per {
            words.push(encode_sample(data[r * n + c]));
        }
    }
    words
}

/// Replay `run_fft2d(procs, input)`'s phases through the layers' public
/// calls; returns DRAM region A (the spectrum) afterwards.
fn replay(procs: usize, input: &Matrix, tr: &Tracer) -> Result<Vec<u64>, String> {
    let n = input.rows;
    let rows_per = n / procs;
    let area = n * n;
    let cfg = MachineConfig::paper_default(procs, 2 * area);
    let (mut m, mut nodes) = tr.span("psync", "build", || {
        let pscan = tr.span("pscan", "build", || {
            Pscan::new(
                PscanConfig::paper_default()
                    .with_nodes(procs)
                    .with_die_mm(cfg.die_mm)
                    .with_plan(cfg.plan.clone()),
            )
        });
        let mut head = HeadNode::new(cfg.dram, cfg.dram_words);
        head.fill(0, &encode_all(&input.data));
        let nodes: Vec<Node> = (0..procs).map(|i| Node::new(i, cfg.exec)).collect();
        let replay = Replay {
            tr,
            procs,
            pscan,
            head,
        };
        (replay, nodes)
    });
    let deliver = ScatterSpec::blocked(procs, rows_per * n);
    let slot_source: Vec<usize> = (0..area).map(|k| (k % n) / rows_per).collect();
    let transpose = GatherSpec { slot_source };
    let addrs_a: Vec<u64> = (0..area as u64).collect();
    let addrs_b: Vec<u64> = (area as u64..2 * area as u64).collect();

    // deliver → row FFTs → transpose to region B.
    for (node, words) in m.scatter(&addrs_a, &deliver)?.into_iter().enumerate() {
        nodes[node].load_data(decode_all(&words));
    }
    fft_rows(&mut nodes, n, tr);
    let words: Vec<Vec<u64>> = nodes
        .iter()
        .map(|node| transposed_words(&node.data, n, rows_per))
        .collect();
    m.gather(&transpose, &words, &addrs_b)?;

    // redeliver → column FFTs → un-transposing writeback to region A.
    for (node, words) in m.scatter(&addrs_b, &deliver)?.into_iter().enumerate() {
        nodes[node].load_data(decode_all(&words));
    }
    fft_rows(&mut nodes, n, tr);
    let words: Vec<Vec<u64>> = nodes
        .iter()
        .map(|node| transposed_words(&node.data, n, rows_per))
        .collect();
    m.gather(&transpose, &words, &addrs_a)?;

    let stats = m.head.dram_stats();
    tr.count("memory.accesses", stats.accesses);
    tr.count("memory.row_hits", stats.hits);
    Ok(m.head.read_region(0, area).to_vec())
}
