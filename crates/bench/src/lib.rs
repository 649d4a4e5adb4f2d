//! Shared plumbing for the experiment harness binaries.
//!
//! Every binary regenerates one table or figure of the paper through a
//! single [`Experiment`] runner: it declares its name, pushes rendered
//! tables/notes, attaches its result rows and (optionally) a telemetry
//! [`Registry`], and calls [`Experiment::run`]. The runner owns the whole
//! CLI surface —
//!
//! * `--quick` — shrink the expensive configurations,
//! * `--no-json` — skip the `results/<name>.json` write,
//! * `--trace-out <path>` — write the attached telemetry as Chrome
//!   trace-event JSON (`chrome://tracing` / Perfetto loadable),
//! * `--metrics-out <path>` — write the attached telemetry's metric
//!   series as flat JSON,
//! * `--timeout-s <secs>` — wall-clock deadline for the simulated
//!   workload; an expired deadline surfaces as a structured `Cancelled`
//!   error and a nonzero exit ([`Experiment::interrupt`]),
//! * `--fidelity <policy>` — `analytic`, `cycle_accurate`, `auto`, or
//!   `auto:<ceiling>`: how multi-fidelity harnesses choose between the
//!   validated closed forms and the cycle-accurate fabrics
//!   ([`Experiment::fidelity`]; default `auto`),
//!
//! — so no binary parses arguments or writes JSON on its own. Unknown
//! flags are rejected with a usage message and exit code 2, so a typo
//! cannot silently run the wrong configuration.
//!
//! ```no_run
//! use bench::{BenchError, Experiment};
//!
//! fn main() -> Result<(), BenchError> {
//!     let ex = Experiment::new("demo");
//!     let n = if ex.quick() { 4 } else { 1024 };
//!     let rows = vec![n];
//!     ex.table("Demo", &["n"], &[vec![n.to_string()]])
//!         .rows(&rows)
//!         .run()
//! }
//! ```

use serde::Serialize;
use std::path::PathBuf;

use sim_core::cancel::{Deadline, Interrupt};
use sim_core::telemetry::Registry;

pub mod cache;
pub mod crosscheck;
pub mod fidelity;
pub mod jobs;
pub mod supervisor;

/// Harness plumbing failure: the experiment ran, but its rows could not be
/// recorded. Binaries propagate this out of `main` for a nonzero exit.
#[derive(Debug)]
pub enum BenchError {
    /// Creating or writing a file under `results/` failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying filesystem error.
        source: std::io::Error,
    },
    /// Serializing the result rows failed.
    Serialize {
        /// The experiment name.
        name: String,
        /// The underlying serializer error.
        source: serde_json::Error,
    },
    /// The simulated workload itself failed or was cancelled — e.g. a mesh
    /// run hit its `--timeout-s` deadline. The source's `Display` carries
    /// the structured cancellation payload.
    Run {
        /// The experiment name.
        name: String,
        /// The underlying fabric error.
        source: Box<dyn std::error::Error + Send + Sync>,
    },
}

impl BenchError {
    /// Wrap a fabric error from the experiment named `name`.
    pub fn run(name: &str, source: impl std::error::Error + Send + Sync + 'static) -> Self {
        BenchError::Run {
            name: name.to_string(),
            source: Box::new(source),
        }
    }
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Io { path, source } => {
                write!(f, "result file {}: {source}", path.display())
            }
            BenchError::Serialize { name, source } => {
                write!(f, "serialize {name} rows: {source}")
            }
            BenchError::Run { name, source } => {
                write!(f, "{name} run failed: {source}")
            }
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io { source, .. } => Some(source),
            BenchError::Serialize { source, .. } => Some(source),
            BenchError::Run { source, .. } => Some(source.as_ref()),
        }
    }
}

/// Parsed harness command line. All binaries share this surface; an
/// unknown argument is a hard error so a typo cannot silently run the
/// wrong configuration.
#[derive(Debug, Clone)]
struct Cli {
    quick: bool,
    no_json: bool,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    timeout_s: Option<f64>,
    fidelity: fidelity::FidelityPolicy,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            quick: false,
            no_json: false,
            trace_out: None,
            metrics_out: None,
            timeout_s: None,
            fidelity: fidelity::FidelityPolicy::auto(),
        }
    }
}

/// One line per accepted flag, printed on a parse error.
const USAGE: &str = "usage: <bin> [--quick] [--no-json] \
                     [--trace-out <path>] [--metrics-out <path>] \
                     [--timeout-s <secs>] [--fidelity <policy>]";

impl Cli {
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut cli = Cli::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            // Split `--flag=value` into its parts so both spellings share
            // one code path.
            let (flag, mut inline) = match a.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (a, None),
            };
            let mut value = |it: &mut I::IntoIter| -> Result<String, String> {
                inline
                    .take()
                    .or_else(|| it.next())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--quick" => cli.quick = true,
                "--no-json" => cli.no_json = true,
                "--fidelity" => {
                    let v = value(&mut it)?;
                    cli.fidelity = fidelity::FidelityPolicy::parse(&v)
                        .map_err(|e| format!("--fidelity: {e}"))?;
                }
                "--trace-out" => cli.trace_out = Some(PathBuf::from(value(&mut it)?)),
                "--metrics-out" => cli.metrics_out = Some(PathBuf::from(value(&mut it)?)),
                "--timeout-s" => {
                    let v = value(&mut it)?;
                    cli.timeout_s = Some(
                        v.parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s >= 0.0)
                            .ok_or_else(|| {
                                format!("--timeout-s needs a finite non-negative number, got {v:?}")
                            })?,
                    );
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
            if inline.is_some() {
                return Err(format!("{flag} does not take a value"));
            }
        }
        Ok(cli)
    }

    /// Parse the process arguments; on error print the problem plus usage
    /// and exit 2 (the conventional bad-usage code).
    fn from_env() -> Self {
        Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        })
    }
}

/// One experiment run: the single entry point for every harness binary.
///
/// Build it first (`Experiment::new` parses the process arguments), size
/// the workload off [`Experiment::quick`], then chain output sections and
/// result rows and finish with [`Experiment::run`].
#[derive(Debug)]
#[must_use = "an Experiment does nothing until .run() is called"]
pub struct Experiment {
    name: String,
    cli: Cli,
    /// Pre-rendered stdout blocks, printed in order by `run()`.
    sections: Vec<String>,
    /// Result rows, serialized eagerly at `.rows()` time.
    json: Option<Result<String, BenchError>>,
    /// Merged telemetry from instrumented fabrics.
    registry: Registry,
}

impl Experiment {
    /// Start the experiment named `name` (results land in
    /// `results/<name>.json`), parsing the process command line.
    ///
    /// Only call this from a harness binary's `main`: a bad flag prints
    /// usage and exits 2. Embedders (tests, other processes with their own
    /// CLI surface) should use [`Experiment::with_args`] instead, since
    /// the host's arguments won't parse as harness flags.
    pub fn new(name: &str) -> Self {
        Experiment {
            name: name.to_string(),
            cli: Cli::from_env(),
            sections: Vec::new(),
            json: None,
            registry: Registry::new(),
        }
    }

    /// Start the experiment named `name` with an explicit argument list
    /// instead of the process command line.
    ///
    /// # Errors
    /// The unparsed-flag message on an unknown argument or a missing or
    /// malformed value.
    pub fn with_args<I>(name: &str, args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        Ok(Experiment {
            name: name.to_string(),
            cli: Cli::parse(args)?,
            sections: Vec::new(),
            json: None,
            registry: Registry::new(),
        })
    }

    /// Whether `--quick` was passed: harnesses shrink the expensive
    /// configurations.
    pub fn quick(&self) -> bool {
        self.cli.quick
    }

    /// Whether `--trace-out` or `--metrics-out` was passed — i.e. whether
    /// this run wants fabrics instrumented. Binaries use this to call
    /// `enable_telemetry()` on their simulators (and, where the default
    /// workload is pure closed-form arithmetic, to run a small simulated
    /// workload that actually produces spans).
    pub fn tracing(&self) -> bool {
        self.cli.trace_out.is_some() || self.cli.metrics_out.is_some()
    }

    /// Wall-clock budget requested with `--timeout-s`, if any.
    pub fn timeout_s(&self) -> Option<f64> {
        self.cli.timeout_s
    }

    /// The fidelity policy requested with `--fidelity` (default
    /// [`fidelity::FidelityPolicy::auto`]). Multi-fidelity harnesses hand
    /// this to [`fidelity::decide`] per sweep point; single-fidelity
    /// binaries ignore it.
    pub fn fidelity(&self) -> fidelity::FidelityPolicy {
        self.cli.fidelity
    }

    /// The interrupt to install on this run's fabrics, or `None` when no
    /// `--timeout-s` was passed (the common, zero-overhead case).
    ///
    /// Each call arms a fresh [`Deadline`] measured from *now*, so build
    /// the interrupt right before the workload starts. Binaries hand it to
    /// `Mesh::set_interrupt` / `Machine::set_interrupt` /
    /// `run_trace_supervised`; a cancellation then propagates out of the
    /// fabric as a structured error the binary wraps with
    /// [`BenchError::run`].
    pub fn interrupt(&self) -> Option<Interrupt> {
        self.cli
            .timeout_s
            .map(|s| Interrupt::new().with_deadline(Deadline::after_secs_f64(s)))
    }

    /// The experiment-wide telemetry registry, for binaries that record
    /// their own series or spans directly.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Append an aligned text table to the printed output.
    pub fn table(mut self, title: &str, header: &[&str], rows: &[Vec<String>]) -> Self {
        self.sections.push(render(title, header, rows));
        self
    }

    /// Append a free-form commentary line to the printed output.
    pub fn note(mut self, line: impl Into<String>) -> Self {
        self.sections.push(line.into());
        self
    }

    /// Attach the result rows recorded to `results/<name>.json`
    /// (serialized immediately; failures surface from [`Experiment::run`]).
    pub fn rows<T: Serialize>(mut self, value: &T) -> Self {
        let name = self.name.clone();
        self.json = Some(
            serde_json::to_string_pretty(value)
                .map_err(|source| BenchError::Serialize { name, source }),
        );
        self
    }

    /// Merge a fabric's telemetry registry (e.g. `mesh.take_telemetry()`)
    /// into the experiment-wide registry.
    pub fn telemetry(self, reg: Registry) -> Self {
        self.registry.merge(reg);
        self
    }

    /// Print every section, write the result rows (unless `--no-json`),
    /// and write the trace/metrics files if requested.
    pub fn run(self) -> Result<(), BenchError> {
        for s in &self.sections {
            println!("{s}");
        }
        if let Some(json) = self.json {
            let json = json?;
            if !self.cli.no_json {
                write_results_file(&self.name, &json)?;
            }
        }
        if let Some(path) = &self.cli.trace_out {
            write_file(path, &self.registry.chrome_trace_json())?;
        }
        if let Some(path) = &self.cli.metrics_out {
            write_file(path, &self.registry.metrics_json())?;
        }
        Ok(())
    }
}

/// Render an aligned text table.
fn render(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let rule: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    out.push_str(&rule);
    out.push('\n');
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:>width$} ", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("|")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    out.push_str(&rule);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out.push_str(&rule);
    out.push('\n');
    out
}

/// Where result JSON lands (workspace `results/`, or `PSYNC_RESULTS_DIR`).
fn results_dir_path() -> PathBuf {
    // The harness binaries run from the workspace root via `cargo run`.
    let dir = std::env::var("PSYNC_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// Write pre-serialized rows to `results/<name>.json`. Failures propagate —
/// the harness must exit nonzero rather than silently publish a table whose
/// backing JSON was never written.
fn write_results_file(name: &str, json: &str) -> Result<(), BenchError> {
    let dir = results_dir_path();
    std::fs::create_dir_all(&dir).map_err(|source| BenchError::Io {
        path: dir.clone(),
        source,
    })?;
    let path = dir.join(format!("{name}.json"));
    write_file(&path, json)
}

/// Write `contents` to `path` atomically (creating parent directories) and
/// log it.
///
/// The contents land in a sibling temporary file first and are renamed into
/// place, so a reader — or a supervisor killing the process mid-write —
/// never observes a truncated result file: `path` either holds its previous
/// contents or the complete new ones.
fn write_file(path: &std::path::Path, contents: &str) -> Result<(), BenchError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|source| BenchError::Io {
                path: parent.to_path_buf(),
                source,
            })?;
        }
    }
    // Same directory as the destination so the rename cannot cross a
    // filesystem boundary; pid-qualified so concurrent harness processes
    // writing the same file cannot collide on the temporary.
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("out"));
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let io_err = |p: &std::path::Path| {
        let path = p.to_path_buf();
        move |source| BenchError::Io { path, source }
    };
    std::fs::write(&tmp, contents).map_err(io_err(&tmp))?;
    if let Err(source) = std::fs::rename(&tmp, path) {
        // Leave no orphan temporary behind on a failed publish.
        let _ = std::fs::remove_file(&tmp);
        return Err(BenchError::Io {
            path: path.to_path_buf(),
            source,
        });
    }
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Write `contents` atomically to `<results dir>/<rel>` (e.g.
/// `batch/table3.json`), creating directories as needed; returns the path
/// written. The batch driver uses this for per-job result files that must
/// land beside — not inside — the experiment's own `results/<name>.json`.
pub fn write_results_at(rel: &str, contents: &str) -> Result<PathBuf, BenchError> {
    let path = results_dir_path().join(rel);
    write_file(&path, contents)?;
    Ok(path)
}

/// Format a float with `d` decimals.
pub fn f(v: f64, d: usize) -> String {
    format!("{v:.d$}")
}

/// Canonical harness surface for glob import: `use bench::prelude::*;`.
pub mod prelude {
    pub use crate::{f, BenchError, Experiment};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render(
            "T",
            &["k", "eta"],
            &[
                vec!["1".into(), "50.00".into()],
                vec!["64".into(), "99.38".into()],
            ],
        );
        assert!(t.contains("k"));
        assert!(t.contains("99.38"));
        // All data lines have the same width.
        let lines: Vec<&str> = t.lines().skip(1).collect();
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(409.6, 1), "409.6");
    }

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cli_parses_harness_flags() {
        let cli = parse(&["--quick", "--trace-out", "t.json", "--metrics-out=m.json"]).unwrap();
        assert!(cli.quick);
        assert!(!cli.no_json);
        assert_eq!(
            cli.trace_out.as_deref(),
            Some(std::path::Path::new("t.json"))
        );
        assert_eq!(
            cli.metrics_out.as_deref(),
            Some(std::path::Path::new("m.json"))
        );
    }

    #[test]
    fn cli_rejects_bad_input() {
        assert!(parse(&["--unknown"]).is_err());
        assert!(parse(&["--trace-out"]).is_err(), "missing path");
        assert!(parse(&["--quick=1"]).is_err(), "flag takes no value");
    }

    #[test]
    fn cli_parses_timeout() {
        assert_eq!(parse(&[]).unwrap().timeout_s, None);
        assert_eq!(parse(&["--timeout-s", "2.5"]).unwrap().timeout_s, Some(2.5));
        assert_eq!(parse(&["--timeout-s=0"]).unwrap().timeout_s, Some(0.0));
    }

    #[test]
    fn cli_rejects_bad_timeout() {
        assert!(parse(&["--timeout-s"]).is_err(), "missing value");
        assert!(parse(&["--timeout-s", "-1"]).is_err(), "negative");
        assert!(parse(&["--timeout-s", "nan"]).is_err(), "NaN");
        assert!(parse(&["--timeout-s", "inf"]).is_err(), "infinite");
        assert!(parse(&["--timeout-s", "soon"]).is_err(), "non-numeric");
    }

    #[test]
    fn cli_parses_fidelity() {
        use fidelity::FidelityPolicy;
        assert_eq!(parse(&[]).unwrap().fidelity, FidelityPolicy::auto());
        assert_eq!(
            parse(&["--fidelity", "analytic"]).unwrap().fidelity,
            FidelityPolicy::Analytic
        );
        assert_eq!(
            parse(&["--fidelity=cycle_accurate"]).unwrap().fidelity,
            FidelityPolicy::CycleAccurate
        );
        assert_eq!(
            parse(&["--fidelity", "auto:0.1"]).unwrap().fidelity,
            FidelityPolicy::Auto {
                max_envelope_rel_err: 0.1
            }
        );
        let err = parse(&["--fidelity", "warp"]).unwrap_err();
        assert!(err.contains("--fidelity"), "{err}");
        assert!(parse(&["--fidelity"]).is_err(), "missing value");
    }

    #[test]
    fn experiment_interrupt_follows_timeout_flag() {
        let ex = Experiment::with_args("t", vec![]).unwrap();
        assert!(ex.interrupt().is_none(), "no flag, no interrupt");
        let ex = Experiment::with_args("t", vec!["--timeout-s".into(), "3600".into()]).unwrap();
        let mut intr = ex.interrupt().expect("flag arms a deadline");
        assert!(intr.is_armed());
        assert_eq!(intr.check(0), None, "an hour out, nothing fires");
        let ex = Experiment::with_args("t", vec!["--timeout-s".into(), "0".into()]).unwrap();
        let mut intr = ex.interrupt().expect("zero timeout still arms");
        assert_eq!(
            intr.check(0),
            Some(sim_core::cancel::CancelCause::DeadlineExceeded),
            "expired deadline fires at the first poll"
        );
    }

    #[test]
    fn write_file_is_atomic_and_leaves_no_temporaries() {
        let dir = std::env::temp_dir().join(format!("bench-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("out.json");
        write_file(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_file(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("out.json")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
