//! Asynchronous job registry for sweep requests.
//!
//! A sweep over dozens of configurations can run for minutes at paper
//! scale, far beyond what a synchronous HTTP round-trip should hold
//! open. `POST /v2/sweep` therefore answers `202 Accepted` with a job
//! id immediately; the sweep runs on the same bounded worker pool as
//! synchronous requests and deposits its result (or error) here for
//! `GET /v2/jobs/<id>` to poll.
//!
//! Each registry numbers its jobs up from a random start below 2^52, so
//! the shards of a cluster hand out distinct ids without coordinating,
//! and the router can relay a poll to whichever shard knows the id.
//! Ids stay below 2^53, exact in any JSON client's doubles.

use std::collections::BTreeMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

/// Lifecycle of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Admitted to the pool, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the payload is the result's JSON document.
    Done(String),
    /// Errored; the payload is a human-readable message.
    Failed(String),
}

impl JobState {
    fn status(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

#[derive(Debug)]
struct Job {
    desc: String,
    state: JobState,
    created: Instant,
}

/// All jobs the daemon has accepted since it started. Completed jobs
/// are kept (results included) so a client can poll late; the daemon is
/// an interactive research tool, not a long-lived production queue, so
/// no expiry is implemented.
#[derive(Debug)]
pub struct JobRegistry {
    jobs: Mutex<BTreeMap<u64, Job>>,
    next: AtomicU64,
}

impl Default for JobRegistry {
    fn default() -> Self {
        JobRegistry {
            jobs: Mutex::new(BTreeMap::new()),
            next: AtomicU64::new(RandomState::new().hash_one(0u8) >> 12),
        }
    }
}

impl JobRegistry {
    /// An empty registry whose ids start at a random point.
    pub fn new() -> Self {
        JobRegistry::default()
    }

    /// Registers a new job in `Queued` state and returns its id.
    pub fn create(&self, desc: &str) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        self.jobs.lock().expect("job registry lock").insert(
            id,
            Job {
                desc: desc.to_string(),
                state: JobState::Queued,
                created: Instant::now(),
            },
        );
        id
    }

    fn set_state(&self, id: u64, state: JobState) {
        if let Some(job) = self.jobs.lock().expect("job registry lock").get_mut(&id) {
            job.state = state;
        }
    }

    /// Marks a job as picked up by a worker.
    pub fn mark_running(&self, id: u64) {
        self.set_state(id, JobState::Running);
    }

    /// Stores a finished job's result (a JSON document).
    pub fn finish(&self, id: u64, result_json: String) {
        self.set_state(id, JobState::Done(result_json));
    }

    /// Stores a failed job's error message.
    pub fn fail(&self, id: u64, error: String) {
        self.set_state(id, JobState::Failed(error));
    }

    /// Current state of a job, if it exists.
    pub fn state(&self, id: u64) -> Option<JobState> {
        self.jobs
            .lock()
            .expect("job registry lock")
            .get(&id)
            .map(|j| j.state.clone())
    }

    /// Renders one job as its `GET /v2/jobs/<id>` JSON document.
    pub fn render(&self, id: u64) -> Option<String> {
        let jobs = self.jobs.lock().expect("job registry lock");
        let job = jobs.get(&id)?;
        Some(serde_json::to_string(&job_value(id, job, true)).expect("job view serializes"))
    }

    /// Renders the whole registry as the `GET /v2/jobs` JSON document
    /// (results elided — poll the individual job for the payload).
    pub fn render_all(&self) -> String {
        let jobs = self.jobs.lock().expect("job registry lock");
        let arr: Vec<Value> = jobs
            .iter()
            .map(|(id, job)| job_value(*id, job, false))
            .collect();
        serde_json::to_string(&Value::Obj(vec![("jobs".to_string(), Value::Arr(arr))]))
            .expect("job list serializes")
    }
}

/// Builds the JSON view of one job. The result document is re-parsed
/// into the tree (rather than string-embedded) so the client sees one
/// well-formed JSON object.
fn job_value(id: u64, job: &Job, include_payload: bool) -> Value {
    let mut fields = vec![
        ("job_id".to_string(), Value::UInt(id)),
        ("desc".to_string(), Value::Str(job.desc.clone())),
        (
            "status".to_string(),
            Value::Str(job.state.status().to_string()),
        ),
        (
            "age_s".to_string(),
            Value::Float(job.created.elapsed().as_secs_f64()),
        ),
    ];
    if include_payload {
        match &job.state {
            JobState::Done(json) => {
                let parsed =
                    serde_json::parse_value_str(json).unwrap_or_else(|_| Value::Str(json.clone()));
                fields.push(("result".to_string(), parsed));
            }
            JobState::Failed(error) => {
                fields.push(("error".to_string(), Value::Str(error.clone())));
            }
            JobState::Queued | JobState::Running => {}
        }
    }
    Value::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_round_trip() {
        let reg = JobRegistry::new();
        let id = reg.create("sweep spmspm/R01");
        assert_eq!(reg.state(id), Some(JobState::Queued));
        reg.mark_running(id);
        assert_eq!(reg.state(id), Some(JobState::Running));
        reg.finish(id, "{\"configs\": 4}".to_string());
        assert_eq!(
            reg.state(id),
            Some(JobState::Done("{\"configs\": 4}".to_string()))
        );
        let view = reg.render(id).expect("job exists");
        assert!(view.contains("\"status\": \"done\"") || view.contains("\"status\":\"done\""));
        assert!(view.contains("\"configs\""));
    }

    #[test]
    fn ids_are_unique_and_listing_covers_all() {
        let reg = JobRegistry::new();
        let a = reg.create("a");
        let b = reg.create("b");
        assert_ne!(a, b);
        assert!(b < 1 << 53, "ids stay exact as JSON doubles: {b}");
        // Another registry (another shard) numbers from elsewhere.
        assert_ne!(JobRegistry::new().create("c"), a);
        reg.fail(b, "rejected".to_string());
        let all = reg.render_all();
        assert!(all.contains("\"jobs\""));
        assert!(all.contains("\"failed\""));
        assert!(all.contains("\"queued\""));
    }

    #[test]
    fn unknown_job_renders_none() {
        let reg = JobRegistry::new();
        assert!(reg.render(999).is_none());
        assert!(reg.state(999).is_none());
    }
}
