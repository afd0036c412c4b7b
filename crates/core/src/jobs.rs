//! A job queue over the [`ScenarioRegistry`] — N concurrent engine runs
//! multiplexed over the one shared worker pool.
//!
//! This is the "simulation as a service" half of the ExaHyPE-engine
//! story: the paper's kernels live inside a long-lived system serving
//! many configurations, not a one-shot binary. A [`JobQueue`] owns a
//! small set of job-runner threads; each pops a submitted `(scenario,
//! RunRequest)` pair and drives it to completion, then drops the request
//! — a settled job keeps only its status, summary and error, never the
//! checkpoint a `RESUME` request carried. The engines inside the
//! jobs all share the process-wide persistent thread pool
//! ([`crate::par`]) — parallel calls from concurrent jobs interleave at
//! batch granularity, so an 8-job queue needs 8 runner threads but only
//! one set of pool workers.
//!
//! Jobs are cooperative: every job carries a [`RunControl`] so it can be
//! paused to a checkpoint or cancelled at a step boundary, and a
//! panicking job (a kernel assertion, say) is caught and marked
//! [`JobStatus::Failed`] without taking the runner thread — or the
//! process — down with it. `aderdg-serve` exposes this queue over a
//! socket; `aderdg-run --sweep` drives it directly.

use crate::scenario::{
    RunControl, RunRequest, RunSummary, Scenario, ScenarioError, ScenarioRegistry,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Where a submitted job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for a runner thread.
    Queued,
    /// A runner thread is stepping it.
    Running,
    /// Completed successfully ([`Job::summary`] is available).
    Done,
    /// Stopped at a step boundary on a pause request; resumable from
    /// its checkpoint ([`Job::summary`] covers the completed part).
    Paused,
    /// Failed ([`Job::error`] has the message).
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobStatus {
    /// True once the job will make no further progress (everything but
    /// `Queued`/`Running`).
    pub fn is_settled(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }

    /// Lower-case protocol spelling (`queued`, `running`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Paused => "paused",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// The mutable half of a job, updated by the runner thread.
struct JobState {
    status: JobStatus,
    summary: Option<RunSummary>,
    error: Option<String>,
}

/// One submitted run: scenario, control handle and outcome. The request
/// waits in the queue beside the job and is dropped when its run returns.
pub struct Job {
    id: u64,
    scenario: &'static dyn Scenario,
    control: Arc<RunControl>,
    state: Mutex<JobState>,
    settled: Condvar,
}

/// Locks ignoring poisoning: job state is plain data, and a runner that
/// panicked between updates must not wedge every status query.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Job {
    /// The queue-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The scenario registry key this job runs.
    pub fn scenario_name(&self) -> &'static str {
        self.scenario.info().name
    }

    /// The job's pause/cancel/progress handle.
    pub fn control(&self) -> &Arc<RunControl> {
        &self.control
    }

    /// The job's current status.
    pub fn status(&self) -> JobStatus {
        lock(&self.state).status
    }

    /// The run summary, once `Done` or `Paused`.
    pub fn summary(&self) -> Option<RunSummary> {
        lock(&self.state).summary.clone()
    }

    /// The failure message, once `Failed` or `Cancelled`.
    pub fn error(&self) -> Option<String> {
        lock(&self.state).error.clone()
    }

    /// Blocks until the job settles (done, paused, failed or cancelled)
    /// and returns the final status.
    pub fn wait(&self) -> JobStatus {
        let mut state = lock(&self.state);
        while !state.status.is_settled() {
            state = self
                .settled
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.status
    }

    fn settle(&self, status: JobStatus, summary: Option<RunSummary>, error: Option<String>) {
        let mut state = lock(&self.state);
        state.status = status;
        state.summary = summary;
        state.error = error;
        drop(state);
        self.settled.notify_all();
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("scenario", &self.scenario_name())
            .field("status", &self.status())
            .finish()
    }
}

/// What the runner threads share with the queue handle.
struct Shared {
    /// Jobs not yet started, each with the request it runs.
    pending: Mutex<VecDeque<(Arc<Job>, RunRequest)>>,
    available: Condvar,
    /// Every submitted job; the job with id `n` is `jobs[n - 1]`.
    jobs: Mutex<Vec<Arc<Job>>>,
    shutdown: AtomicBool,
}

/// A fixed-size pool of job-runner threads over the global
/// [`ScenarioRegistry`]. See the [module docs](self).
pub struct JobQueue {
    shared: Arc<Shared>,
    runners: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue")
            .field("jobs", &lock(&self.shared.jobs).len())
            .field("pending", &lock(&self.shared.pending).len())
            .finish_non_exhaustive()
    }
}

impl JobQueue {
    /// Starts a queue with `runners` job-runner threads (at least 1).
    /// Runners bound how many engines step *concurrently*; every engine
    /// still multiplexes over the one process-wide worker pool.
    pub fn new(runners: usize) -> Self {
        let shared = Arc::new(Shared {
            pending: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            jobs: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..runners.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("aderdg-job-{i}"))
                    .spawn(move || run_jobs(&shared))
                    // PANIC-OK: thread spawn fails only on OS resource
                    // exhaustion; a queue with no runners is unusable.
                    .expect("spawn job runner")
            })
            .collect();
        Self {
            shared,
            runners: Mutex::new(handles),
        }
    }

    /// Submits a scenario run. The scenario name is validated against
    /// the registry up front; the run itself starts when a runner
    /// thread frees up. If the request carries a [`RunControl`] it is
    /// kept (so a caller can arm `pause_at_step` before submitting);
    /// otherwise one is attached.
    pub fn submit(
        &self,
        scenario: &str,
        mut request: RunRequest,
    ) -> Result<Arc<Job>, ScenarioError> {
        // ORDERING: Relaxed — an advisory early-out; the authoritative
        // shutdown handshake happens under the `pending` mutex below.
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(ScenarioError::new("job queue is shut down"));
        }
        let scenario = ScenarioRegistry::global()
            .resolve(scenario)
            .ok_or_else(|| {
                ScenarioError::new(format!(
                    "unknown scenario `{scenario}` (registered: {})",
                    ScenarioRegistry::global().names().join(", ")
                ))
            })?;
        let control = request
            .control
            .get_or_insert_with(|| Arc::new(RunControl::new()))
            .clone();
        let job = {
            // The id is the job's position in `jobs`, so it is assigned
            // under the same lock that appends it.
            let mut jobs = lock(&self.shared.jobs);
            let job = Arc::new(Job {
                id: jobs.len() as u64 + 1,
                scenario,
                control,
                state: Mutex::new(JobState {
                    status: JobStatus::Queued,
                    summary: None,
                    error: None,
                }),
                settled: Condvar::new(),
            });
            jobs.push(Arc::clone(&job));
            job
        };
        lock(&self.shared.pending).push_back((Arc::clone(&job), request));
        self.shared.available.notify_one();
        Ok(job)
    }

    /// Looks a job up by id (ids count from 1 in submission order).
    pub fn job(&self, id: u64) -> Option<Arc<Job>> {
        let index = usize::try_from(id).ok()?.checked_sub(1)?;
        lock(&self.shared.jobs).get(index).cloned()
    }

    /// Every submitted job, in submission order.
    pub fn jobs(&self) -> Vec<Arc<Job>> {
        lock(&self.shared.jobs).clone()
    }

    /// Requests a pause on a job (no-op if already settled). Returns
    /// false for an unknown id.
    pub fn pause(&self, id: u64) -> bool {
        match self.job(id) {
            Some(job) => {
                job.control.request_pause();
                true
            }
            None => false,
        }
    }

    /// Requests a cancel on a job (no-op if already settled). A job
    /// still waiting in the queue is settled as cancelled immediately —
    /// it never occupies a runner. Returns false for an unknown id.
    pub fn cancel(&self, id: u64) -> bool {
        let Some(job) = self.job(id) else {
            return false;
        };
        job.control.request_cancel();
        let removed = {
            let mut pending = lock(&self.shared.pending);
            let before = pending.len();
            pending.retain(|(j, _)| j.id != id);
            before != pending.len()
        };
        if removed {
            job.settle(
                JobStatus::Cancelled,
                None,
                Some("cancelled before starting".into()),
            );
        }
        true
    }

    /// Shuts the queue down: still-queued jobs are marked cancelled,
    /// running jobs get a cancel request and are joined. Idempotent.
    pub fn shutdown(&self) {
        // ORDERING: Relaxed — runners re-check the flag while holding the
        // `pending` mutex, whose lock/unlock provides the synchronization.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for job in self.jobs() {
            if !job.status().is_settled() {
                job.control.request_cancel();
            }
        }
        self.shared.available.notify_all();
        let handles: Vec<_> = lock(&self.runners).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A runner thread's main loop: pop, run, drop the request, settle — a
/// panicking job is caught and recorded, never fatal to the runner.
fn run_jobs(shared: &Shared) {
    loop {
        let (job, request) = {
            let mut pending = lock(&shared.pending);
            loop {
                if let Some(next) = pending.pop_front() {
                    break next;
                }
                // ORDERING: Relaxed — read under the `pending` mutex; the
                // mutex orders it against the store in `shutdown`.
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                pending = shared
                    .available
                    .wait(pending)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // ORDERING: Relaxed — a missed in-flight shutdown only means this
        // job runs one more time; `shutdown()` joins the runner either way.
        if shared.shutdown.load(Ordering::Relaxed) || job.control.cancel_requested() {
            drop(request);
            job.settle(
                JobStatus::Cancelled,
                None,
                Some("cancelled before starting".into()),
            );
            continue;
        }
        {
            let mut state = lock(&job.state);
            state.status = JobStatus::Running;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| job.scenario.run(&request)));
        // Before settling: whoever `wait`s sees the request gone.
        drop(request);
        match outcome {
            Ok(Ok(summary)) => {
                let status = if summary.paused {
                    JobStatus::Paused
                } else {
                    JobStatus::Done
                };
                job.settle(status, Some(summary), None);
            }
            Ok(Err(e)) => {
                let status = if job.control.cancel_requested() {
                    JobStatus::Cancelled
                } else {
                    JobStatus::Failed
                };
                job.settle(status, None, Some(e.message));
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic payload");
                job.settle(
                    JobStatus::Failed,
                    None,
                    Some(format!("job panicked: {msg}")),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_jobs_complete_and_report() {
        let queue = JobQueue::new(2);
        let a = queue.submit("acoustic_wave", RunRequest::smoke()).unwrap();
        let b = queue.submit("advection_wave", RunRequest::smoke()).unwrap();
        assert_eq!(a.wait(), JobStatus::Done);
        assert_eq!(b.wait(), JobStatus::Done);
        let summary = a.summary().expect("done job has a summary");
        assert!(summary.steps > 0);
        assert!(a.error().is_none());
        assert_eq!(queue.jobs().len(), 2);
        assert_eq!(queue.job(a.id()).unwrap().id(), a.id());
        assert!(queue.job(999).is_none());
    }

    #[test]
    fn unknown_scenario_is_rejected_at_submit() {
        let queue = JobQueue::new(1);
        let e = queue.submit("nope", RunRequest::smoke()).unwrap_err();
        assert!(e.message.contains("unknown scenario"), "{e}");
    }

    #[test]
    fn pause_at_step_settles_paused_with_partial_summary() {
        let queue = JobQueue::new(1);
        let control = Arc::new(RunControl::new());
        control.pause_at_step(1);
        let req = RunRequest {
            control: Some(control),
            ..RunRequest::smoke()
        };
        let job = queue.submit("acoustic_wave", req).unwrap();
        assert_eq!(job.wait(), JobStatus::Paused);
        let summary = job.summary().expect("paused job has a partial summary");
        assert!(summary.paused);
        assert_eq!(summary.steps, 1);
    }

    #[test]
    fn cancel_before_start_and_shutdown_settle_everything() {
        let queue = JobQueue::new(1);
        // Arm a pause so the first job holds the runner only briefly;
        // cancel the second before it ever starts.
        let blocker = queue.submit("acoustic_wave", RunRequest::smoke()).unwrap();
        let victim = queue.submit("acoustic_wave", RunRequest::smoke()).unwrap();
        assert!(queue.cancel(victim.id()));
        assert!(!queue.cancel(12345));
        blocker.wait();
        let status = victim.wait();
        assert_eq!(status, JobStatus::Cancelled);
        queue.shutdown();
        assert!(queue.submit("acoustic_wave", RunRequest::smoke()).is_err());
    }

    #[test]
    fn a_settled_job_lets_go_of_its_checkpoint() {
        let path =
            std::env::temp_dir().join(format!("aderdg_jobs_release_{}.ckpt", std::process::id()));
        let queue = JobQueue::new(1);
        let control = Arc::new(RunControl::new());
        control.pause_at_step(1);
        let paused = RunRequest {
            control: Some(control),
            save_checkpoint: Some(path.clone()),
            ..RunRequest::smoke()
        };
        let job = queue.submit("acoustic_wave", paused).unwrap();
        assert_eq!(job.wait(), JobStatus::Paused);
        let ck = Arc::new(crate::checkpoint::Checkpoint::load(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
        let mut resumed = ck.to_request().unwrap();
        resumed.resume = Some(Arc::clone(&ck));
        let job = queue.submit("acoustic_wave", resumed).unwrap();
        assert_eq!(job.wait(), JobStatus::Done);
        assert_eq!(Arc::strong_count(&ck), 1);
    }

    #[test]
    fn job_ids_index_the_list_under_interleaved_submits() {
        const PER_THREAD: usize = 50;
        let queue = JobQueue::new(1);
        // Cancelled up front, so the runner settles each without a run.
        let cancelled = || {
            let control = Arc::new(RunControl::new());
            control.request_cancel();
            RunRequest {
                control: Some(control),
                ..RunRequest::smoke()
            }
        };
        let start = std::sync::Barrier::new(2);
        let submitted: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..PER_THREAD)
                            .map(|_| queue.submit("acoustic_wave", cancelled()).unwrap().id())
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total = 2 * PER_THREAD as u64;
        let mut ids: Vec<u64> = submitted.concat();
        ids.sort_unstable();
        assert_eq!(ids, (1..=total).collect::<Vec<_>>());
        for id in 1..=total {
            assert_eq!(queue.job(id).unwrap().id(), id);
        }
        let listed: Vec<u64> = queue.jobs().iter().map(|j| j.id()).collect();
        assert_eq!(listed, (1..=total).collect::<Vec<_>>());
        assert!(queue.job(0).is_none());
        assert!(queue.job(total + 1).is_none());
        assert!(queue.job(u64::MAX).is_none());
    }
}
