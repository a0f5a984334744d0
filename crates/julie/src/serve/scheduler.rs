//! The worker pool of `julie serve`: each worker claims queued jobs,
//! drives the shared engine runner under the job's own budget, and
//! journals the terminal result. A panicking engine fails only its job —
//! the worker catches the unwind, marks the job `failed`, and keeps
//! serving.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use petri::checkpoint::read_checkpoint_with_fallback;
use petri::{CheckpointConfig, ExhaustionReason, JobStamp, Snapshot};

use crate::engine::{run_engine, RunSpec, AUTO};
use crate::portfolio::{run_portfolio, PortfolioOptions};

use super::job::{self, JobResult, JobSpec, JobState};
use super::store::Store;

/// How a claimed job left the worker.
enum JobOutcome {
    /// Terminal: journal this result.
    Finished(JobResult),
    /// A drain stopped the run mid-way; the engine checkpointed and the
    /// job stays queued (journal untouched) for the next boot.
    Interrupted,
}

/// Runs until the store drains. One call per worker thread.
pub fn worker_loop(store: Arc<Store>, checkpoint_every: usize) {
    while let Some((id, spec, cancel)) = store.next_job() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_job(&store, &id, &spec, cancel.clone(), checkpoint_every)
        }));
        match outcome {
            Ok(JobOutcome::Finished(result)) => {
                if let Err(e) = store.finish(&id, result) {
                    // the result could not be journaled; the job will be
                    // re-run on the next boot, which is the safe direction
                    eprintln!("julie serve: job {id}: {e}");
                }
            }
            Ok(JobOutcome::Interrupted) => store.interrupt(&id),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                let _ = store.finish(
                    &id,
                    JobResult {
                        state: JobState::Failed,
                        report_json: None,
                        error: Some(format!("worker panicked: {msg}")),
                        winner: None,
                    },
                );
            }
        }
    }
}

/// Loads the job's engine snapshot when one exists *and* provably belongs
/// to this job under the same budget (via its [`JobStamp`]). Anything
/// else — missing, torn beyond the `.prev` fallback, foreign — means
/// starting from the initial marking, which is always sound.
fn load_resume(spec: &JobSpec, dir: &std::path::Path) -> Option<Snapshot> {
    let path = job::ckpt_path(dir);
    if !path.exists() {
        return None;
    }
    let snap = read_checkpoint_with_fallback(&path).ok()?;
    match JobStamp::from_snapshot(&snap) {
        Some(Ok(stamp)) if stamp == spec.stamp() => Some(snap),
        _ => None,
    }
}

fn run_job(
    store: &Store,
    id: &str,
    spec: &JobSpec,
    cancel: Arc<AtomicBool>,
    checkpoint_every: usize,
) -> JobOutcome {
    let fail = |msg: String| {
        JobOutcome::Finished(JobResult {
            state: JobState::Failed,
            report_json: None,
            error: Some(msg),
            winner: None,
        })
    };
    let net = match spec.parse_net() {
        Ok(n) => n,
        Err(e) => return fail(format!("journaled net no longer parses: {e}")),
    };
    let property = match petri::Property::parse(&spec.property) {
        Ok(p) => p,
        Err(e) => return fail(format!("journaled property no longer parses: {e}")),
    };
    let run = RunSpec {
        engine: spec.engine.clone(),
        zdd: spec.zdd,
        witnesses: spec.witnesses,
        threads: spec.threads,
        property,
    };
    let dir = job::job_dir(&store.data_dir, id);
    let (ckpt, resume) = if run.supports_checkpoint() {
        let mut cfg = CheckpointConfig::periodic(job::ckpt_path(&dir), checkpoint_every);
        cfg.annotations.push(spec.stamp().section());
        (cfg, load_resume(spec, &dir))
    } else {
        (CheckpointConfig::default(), None)
    };
    let budget = spec.budget(cancel);
    // engine=auto races the default portfolio schedule; the outcome's
    // report is the winner's solo-shaped report, journaled exactly as a
    // solo run of that engine would have been — recovery after a crash or
    // a cache replay reproduces it byte-for-byte
    let (ran, winner) = if spec.engine == AUTO {
        let opts = PortfolioOptions::default();
        match run_portfolio(&net, None, "", &run, &budget, &ckpt, resume.as_ref(), &opts) {
            Ok(outcome) => {
                // only a sound verdict is attributable to the winning
                // engine; a degraded best-coverage partial is not what a
                // solo run would have produced, so it seeds no solo key
                let winner = if outcome.report.verdict.is_sound() {
                    Some(outcome.report.engine.clone())
                } else {
                    None
                };
                (Ok(outcome.report), winner)
            }
            Err(e) => (Err(e), None),
        }
    } else {
        (
            run_engine(&net, None, "", &run, &budget, &ckpt, resume.as_ref()),
            None,
        )
    };
    match ran {
        Ok(report) => {
            if report.exhausted == Some(ExhaustionReason::Cancelled) {
                if store.user_cancelled(id) {
                    return JobOutcome::Finished(JobResult {
                        state: JobState::Cancelled,
                        report_json: Some(report.to_json().render()),
                        error: Some("cancelled".into()),
                        winner: None,
                    });
                }
                // a drain tripped the budget: the engine already wrote its
                // final snapshot, so the job resumes on the next boot
                return JobOutcome::Interrupted;
            }
            JobOutcome::Finished(JobResult {
                state: JobState::Done,
                report_json: Some(report.to_json().render()),
                error: None,
                winner,
            })
        }
        Err(e) => fail(e),
    }
}
