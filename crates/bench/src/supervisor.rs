//! Supervised job execution for experiment batches.
//!
//! A [`Supervisor`] owns one worker thread fed from a queue. Running the
//! jobs off the main thread leaves the caller free to watch for SIGINT and
//! turn it into [`Supervisor::cancel_all`] (the drain loop in `run_batch`).
//! Each submitted job runs with:
//!
//! * **panic isolation** — the job body runs under `catch_unwind`; a panic
//!   becomes a structured [`JobError::Panicked`] report (payload string
//!   preserved) and the worker goes on to the next job;
//! * **a per-job deadline** — `timeout_s` arms a [`Deadline`] inside the
//!   [`Interrupt`] handed to the job, which the fabrics poll at cycle
//!   granularity;
//! * **cooperative cancellation** — [`Supervisor::cancel_all`] trips a
//!   shared [`CancelToken`]; the running job is cancelled mid-simulation by
//!   its interrupt, queued jobs report [`JobError::Cancelled`] without
//!   running, and the batch drains cleanly.
//!
//! Every job runs at most once: the simulators are deterministic (fault
//! draws included), so a failed job would fail the same way again.
//!
//! Every submitted job produces exactly one [`JobReport`], success or not —
//! the invariant the drain loop counts on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use sim_core::cancel::{CancelToken, CancelWatch, Deadline, Interrupt};

/// What a job body returns on success.
#[derive(Debug, Clone)]
pub struct JobSuccess {
    /// The result bytes (JSON) the job produced or fetched from the cache.
    pub json: String,
    /// Whether the bytes came from the result cache.
    pub cached: bool,
    /// FNV-1a fingerprint of `json` (the perf-gate witness).
    pub fingerprint: u64,
}

/// How a job body failed.
#[derive(Debug, Clone)]
pub enum WorkError {
    /// The job's interrupt fired (deadline, cancel-all token, …).
    Cancelled {
        /// The fabric's structured cancellation message.
        detail: String,
    },
    /// Any other failure (bad configuration, wedged mesh, simulation bug).
    Fatal {
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for WorkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkError::Cancelled { detail } => write!(f, "Cancelled: {detail}"),
            WorkError::Fatal { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for WorkError {}

/// Terminal failure recorded in a [`JobReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job body panicked.
    Panicked {
        /// The panic payload, stringified.
        payload: String,
    },
    /// The job was cancelled (deadline or batch-wide cancel).
    Cancelled {
        /// The structured cancellation message.
        detail: String,
    },
    /// The job failed.
    Failed {
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked { payload } => write!(f, "panicked: {payload}"),
            JobError::Cancelled { detail } => write!(f, "Cancelled: {detail}"),
            JobError::Failed { detail } => write!(f, "failed: {detail}"),
        }
    }
}

impl std::error::Error for JobError {}

/// One report per submitted job — the supervisor's only output channel.
#[derive(Debug)]
pub struct JobReport {
    /// The id `submit` returned.
    pub id: u64,
    /// The job's name.
    pub name: String,
    /// The outcome.
    pub result: Result<JobSuccess, JobError>,
}

/// A job body: takes the interrupt the supervisor armed for it (batch
/// cancel token, plus the deadline when one is set) and returns the result
/// bytes.
pub type Work = dyn FnOnce(Interrupt) -> Result<JobSuccess, WorkError> + Send;

struct Job {
    id: u64,
    name: String,
    timeout_s: Option<f64>,
    work: Box<Work>,
}

/// The single-worker job runner. Dropping it without calling
/// [`Supervisor::shutdown`] closes the queue and detaches the worker (it
/// finishes the backlog).
pub struct Supervisor {
    jobs: mpsc::Sender<Job>,
    reports: mpsc::Receiver<JobReport>,
    cancel: CancelToken,
    worker: JoinHandle<()>,
    submitted: u64,
}

/// Name of the worker thread. `run_batch` suppresses default panic-hook
/// noise for this thread, so keep the two in sync.
pub const WORKER_THREAD: &str = "sup-worker";

impl Supervisor {
    /// Spawn the worker.
    ///
    /// # Panics
    /// If the OS refuses to spawn a thread.
    pub fn new() -> Self {
        let (jobs, queue) = mpsc::channel::<Job>();
        let (report_tx, reports) = mpsc::channel();
        let cancel = CancelToken::new();
        // Armed now: any `cancel_all` after construction is visible to
        // every job.
        let watch = cancel.watch();
        let worker = std::thread::Builder::new()
            .name(WORKER_THREAD.to_string())
            .spawn(move || {
                for job in queue {
                    // The receiver outlives the worker until shutdown
                    // returns; a send failure means the whole supervisor was
                    // abandoned, and dropping the report is the only option.
                    let _ = report_tx.send(run_job(&watch, job));
                }
            })
            .expect("spawn supervisor worker");
        Supervisor {
            jobs,
            reports,
            cancel,
            worker,
            submitted: 0,
        }
    }

    /// Enqueue a job and return its id (ids count up from 0 in submit
    /// order).
    pub fn submit(
        &mut self,
        name: impl Into<String>,
        timeout_s: Option<f64>,
        work: Box<Work>,
    ) -> u64 {
        let id = self.submitted;
        self.jobs
            .send(Job {
                id,
                name: name.into(),
                timeout_s,
                work,
            })
            .expect("supervisor worker alive");
        self.submitted += 1;
        id
    }

    /// Jobs accepted so far (each will produce exactly one report).
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Trip the batch-wide cancel token: the running job is interrupted at
    /// its fabrics' next poll, queued jobs report `Cancelled` without
    /// running.
    pub fn cancel_all(&self) {
        self.cancel.cancel();
    }

    /// Wait up to `timeout` for the next report. `None` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<JobReport> {
        self.reports.recv_timeout(timeout).ok()
    }

    /// Close the queue, wait for the worker to finish the backlog, and
    /// return every report not yet consumed via
    /// [`Supervisor::recv_timeout`], in completion order.
    pub fn shutdown(self) -> Vec<JobReport> {
        drop(self.jobs);
        self.worker.join().expect("supervisor worker never unwinds");
        self.reports.try_iter().collect()
    }
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor::new()
    }
}

/// Run one job to its report: cancel check, deadline, panic isolation.
fn run_job(watch: &CancelWatch, job: Job) -> JobReport {
    let result = if watch.is_cancelled() {
        Err(JobError::Cancelled {
            detail: "batch cancelled before the attempt started".to_string(),
        })
    } else {
        let mut intr = Interrupt::new().with_watch(watch.clone());
        if let Some(s) = job.timeout_s {
            intr = intr.with_deadline(Deadline::after_secs_f64(s));
        }
        let work = job.work;
        match catch_unwind(AssertUnwindSafe(move || work(intr))) {
            Err(payload) => Err(JobError::Panicked {
                payload: panic_payload_string(payload.as_ref()),
            }),
            Ok(Ok(success)) => Ok(success),
            Ok(Err(WorkError::Cancelled { detail })) => Err(JobError::Cancelled { detail }),
            Ok(Err(WorkError::Fatal { detail })) => Err(JobError::Failed { detail }),
        }
    };
    JobReport {
        id: job.id,
        name: job.name,
        result,
    }
}

/// Stringify a `catch_unwind` payload: `&str` and `String` payloads (the
/// ones `panic!` produces) verbatim, anything else a placeholder.
fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::fnv1a64;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    fn ok_work(json: &str) -> Box<Work> {
        let json = json.to_string();
        Box::new(move |_| {
            Ok(JobSuccess {
                fingerprint: fnv1a64(json.as_bytes()),
                json,
                cached: false,
            })
        })
    }

    #[test]
    fn completes_jobs_and_reports_each_exactly_once() {
        let mut sup = Supervisor::new();
        for i in 0..5 {
            sup.submit(format!("job-{i}"), None, ok_work(&format!("r{i}")));
        }
        let reports = sup.shutdown();
        assert_eq!(reports.len(), 5);
        let names: Vec<String> = reports.iter().map(|r| r.name.clone()).collect();
        assert_eq!(
            names,
            (0..5).map(|i| format!("job-{i}")).collect::<Vec<_>>(),
            "one worker serves jobs in submit order"
        );
        for r in &reports {
            let s = r.result.as_ref().expect("all jobs succeed");
            assert!(!s.cached);
            assert_eq!(s.fingerprint, fnv1a64(s.json.as_bytes()));
        }
    }

    #[test]
    fn panic_is_isolated_and_the_worker_serves_on() {
        let mut sup = Supervisor::new();
        sup.submit(
            "boom",
            None,
            Box::new(|_| panic!("forced panic: supervisor test")),
        );
        // The worker must still serve work after the panic.
        sup.submit("after", None, ok_work("fine"));
        let reports = sup.shutdown();
        assert_eq!(reports.len(), 2);
        match &reports[0].result {
            Err(JobError::Panicked { payload }) => {
                assert_eq!(payload, "forced panic: supervisor test");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(reports[1].result.is_ok(), "worker survives the panic");
    }

    #[test]
    fn fatal_failure_runs_once_and_is_reported_failed() {
        let mut sup = Supervisor::new();
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        sup.submit(
            "wedged",
            None,
            Box::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Err(WorkError::Fatal {
                    detail: "mesh made no progress".to_string(),
                })
            }),
        );
        let reports = sup.shutdown();
        match &reports[0].result {
            Err(JobError::Failed { detail }) => assert_eq!(detail, "mesh made no progress"),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no retry");
    }

    #[test]
    fn deadline_is_armed_and_cancels_the_attempt() {
        let mut sup = Supervisor::new();
        sup.submit(
            "deadline",
            Some(0.0),
            Box::new(|mut intr| match intr.check(0) {
                Some(cause) => Err(WorkError::Cancelled {
                    detail: format!("Cancelled at poll 0 ({cause})"),
                }),
                None => Err(WorkError::Fatal {
                    detail: "expired deadline did not fire".to_string(),
                }),
            }),
        );
        let reports = sup.shutdown();
        match &reports[0].result {
            Err(JobError::Cancelled { detail }) => {
                assert!(detail.contains("deadline exceeded"), "{detail}");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn cancel_all_drains_queued_jobs_without_running_them() {
        // The worker parked on a gate; three more jobs queued behind it.
        let mut sup = Supervisor::new();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let ran = Arc::new(AtomicU32::new(0));
        sup.submit(
            "parked",
            None,
            Box::new(move |mut intr| {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                // After the gate opens the batch is cancelled: a polling
                // fabric would see it immediately.
                match intr.check(0) {
                    Some(cause) => Err(WorkError::Cancelled {
                        detail: format!("Cancelled mid-run ({cause})"),
                    }),
                    None => Err(WorkError::Fatal {
                        detail: "cancel_all not visible".to_string(),
                    }),
                }
            }),
        );
        for i in 0..3 {
            let ran = Arc::clone(&ran);
            sup.submit(
                format!("queued-{i}"),
                None,
                Box::new(move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok(JobSuccess {
                        json: "{}".to_string(),
                        cached: false,
                        fingerprint: fnv1a64(b"{}"),
                    })
                }),
            );
        }
        sup.cancel_all();
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        let reports = sup.shutdown();
        assert_eq!(reports.len(), 4, "every submitted job reports");
        assert_eq!(ran.load(Ordering::SeqCst), 0, "queued work never ran");
        for r in &reports {
            assert!(
                matches!(r.result, Err(JobError::Cancelled { .. })),
                "{}: {:?}",
                r.name,
                r.result
            );
        }
    }
}
