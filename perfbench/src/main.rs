//! Command-line front end of the benchmark; see `perfbench/README.md`.
//!
//! ```text
//! psync-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;
use std::time::Instant;

use psync_perfbench::collectives::CollectivesMixed;
use psync_perfbench::fft2d::PsyncFft2d;
use psync_perfbench::metrics::{self, Metric};
use psync_perfbench::reference;
use psync_perfbench::table3::Table3Mesh;
use psync_perfbench::trace::Tracer;
use psync_perfbench::{median, Rep, Workload};
use serde::Value;

const USAGE: &str =
    "usage: psync-perfbench --workload <table3_mesh|psync_fft2d|collectives_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

const WORKLOADS: [&str; 3] = ["table3_mesh", "psync_fft2d", "collectives_mixed"];

/// Fewest set-up samples behind the `setup_s` median, and the least host
/// time they cover together, so cheap set-ups are sampled more often.
const MIN_SETUP_SAMPLES: usize = 5;
const MIN_SETUP_SECONDS: f64 = 0.5;
const MAX_SETUP_SAMPLES: usize = 1000;

/// Reference samples run after each workload sample take at least this
/// share of that sample's time, so they cover the run evenly.
const REFERENCE_SHARE: f64 = 0.05;
/// Reference samples of a traced run, and untimed ones before any run.
const REFERENCE_SAMPLES: usize = 10;
const REFERENCE_WARMUP: usize = 2;

/// Where traced runs write their Chrome trace.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad()),
            },
            "--workload" => return Err(bad()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The committed Table III mesh cycles at `t_p` = 1 and 4.
fn committed_table3() -> Result<[u64; 2], String> {
    let path = "results/table3.json";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let field = |k: &str| {
        json.get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("{path}: no integer {k}"))
    };
    Ok([field("mesh_cycles_tp1")?, field("mesh_cycles_tp4")?])
}

fn workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "table3_mesh" => Box::new(Table3Mesh::paper(Some(committed_table3()?))),
        "psync_fft2d" => Box::new(PsyncFft2d::paper(seed)),
        "collectives_mixed" => Box::new(CollectivesMixed::benchmark()),
        _ => unreachable!("workload names are checked when parsed"),
    })
}

/// Peak resident set of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn metric_json((name, value, unit): Metric) -> (String, Value) {
    let value = if value.is_finite() { value } else { 0.0 };
    (
        name.to_string(),
        Value::Object(vec![
            ("value".into(), Value::Float(value)),
            ("unit".into(), Value::Str(unit.into())),
        ]),
    )
}

/// Median host seconds of `n` reference samples.
fn reference_median(n: usize) -> f64 {
    median(&(0..n).map(|_| reference::sample()).collect::<Vec<_>>())
}

/// The untraced run: set-up samples first, until the `setup_s` median has
/// enough of them (they also warm the allocator); then the workload's
/// parts in turn, each at least once, until `seconds` would be exceeded.
/// Each part sample is followed by reference samples. Returns the samples
/// of each part.
fn untraced(w: &mut dyn Workload, seconds: f64) -> (Vec<Vec<Rep>>, Vec<Metric>) {
    let mut setups = Vec::new();
    while setups.len() < MIN_SETUP_SAMPLES
        || (setups.iter().sum::<f64>() < MIN_SETUP_SECONDS && setups.len() < MAX_SETUP_SAMPLES)
    {
        setups.push(w.setup_only());
    }
    reference_median(REFERENCE_WARMUP);
    let parts = w.parts();
    let mut samples: Vec<Vec<Rep>> = vec![Vec::new(); parts];
    let mut refs = Vec::new();
    let start = Instant::now();
    for k in 1.. {
        let part = (k - 1) % parts;
        let rep = w.rep_part(part, None);
        let mut ref_s = 0.0;
        while ref_s < REFERENCE_SHARE * rep.run_s || ref_s == 0.0 {
            refs.push(reference::sample());
            ref_s += refs.last().expect("just pushed");
        }
        samples[part].push(rep);
        let elapsed = start.elapsed().as_secs_f64();
        if k >= parts && elapsed * (k + 1) as f64 / k as f64 > seconds {
            break;
        }
    }
    let runs: Vec<Vec<f64>> = samples
        .iter()
        .map(|part| part.iter().map(|r| r.run_s).collect())
        .collect();
    let metrics = metrics::end_to_end(&setups, &runs, &refs, peak_rss_mib());
    eprintln!(
        "run_s per part {runs:?}; reference_s median {} of {}; {} set-up samples",
        median(&refs),
        refs.len(),
        setups.len()
    );
    (samples, metrics)
}

/// The traced run: one untraced repetition, then one traced repetition
/// that yields the per-layer metrics and the tracing overhead.
fn traced(w: &mut dyn Workload, trace_path: &str) -> (Vec<Vec<Rep>>, Vec<Metric>) {
    reference_median(REFERENCE_WARMUP);
    let reference_s = reference_median(REFERENCE_SAMPLES);
    let plain = w.rep(None);
    let tr = Tracer::new();
    let traced = w.rep(Some(&tr));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(trace_path, tr.chrome_trace_json()))
    {
        eprintln!("warning: could not write {trace_path}: {e}");
    }

    let metrics = metrics::per_layer(&tr, &plain, &traced, reference_s);
    (vec![vec![plain, traced]], metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut w = match workload(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (groups, metrics) = if args.trace {
        let path = format!("{OUT_DIR}/{}-seed{}.trace.json", args.workload, args.seed);
        traced(w.as_mut(), &path)
    } else {
        untraced(w.as_mut(), args.seconds)
    };

    // Every sample in a group must reproduce the first one's simulated
    // statistics.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first = Rep::default();
    for group in &groups {
        let witnesses = group[0].witness_json();
        for (i, r) in group.iter().enumerate() {
            attempted += r.attempted;
            failed += r.failed;
            for f in &r.failures {
                eprintln!("FAIL: {f}");
            }
            if i > 0 && !r.witnesses.is_empty() {
                attempted += 1;
                if r.witness_json() != witnesses {
                    failed += 1;
                    eprintln!("FAIL: witnesses differ between repetitions");
                }
            }
        }
        first.witnesses.extend(group[0].witnesses.iter().cloned());
    }
    println!("witnesses {}", first.witness_json());
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        (
            "metrics".into(),
            Value::Object(metrics.into_iter().map(metric_json).collect()),
        ),
    ]);
    println!("{}", serde_json::to_string(&result).expect("infallible"));
    ExitCode::SUCCESS
}
