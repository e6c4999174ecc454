//! The daemon: admission control, the worker pool, and the job registry.
//!
//! ```text
//!            POST /jobs
//!                │
//!        ┌───────▼────────┐   429 queue_full / tenant_quota (Retry-After)
//!        │   admission    │──▶503 draining · 400 bad_request
//!        └───────┬────────┘   403 chaos_disabled / input_forbidden
//!        spool/<id>/{job,input.csv}      (durable BEFORE the 202)
//!                │
//!        ┌───────▼────────┐
//!        │ bounded queue  │   crossbeam Injector, capacity-checked
//!        └───────┬────────┘
//!        ┌───────▼────────┐
//!        │  worker pool   │   journaled run, cancel checked at every
//!        └───────┬────────┘   checkpoint boundary
//!                │
//!        spool/<id>/dstar.csv            (atomic rename commit)
//! ```
//!
//! Every admitted job is durable in the spool before the client sees its
//! `202`, so a crash at any later instant loses nothing: boot-time
//! recovery ([`crate::recover`]) re-queues interrupted work and the
//! journal resumes it byte-identically. Drain (`SIGTERM` or
//! `POST /drain`) stops admission and lets in-flight jobs finish; an
//! abrupt [`Daemon::kill`] abandons the in-memory queue, which is exactly
//! the state recovery rebuilds.

use std::collections::BTreeMap;
use std::fs;
use std::io::Read as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use acpp_core::journal::{self, JournalStatus};
use acpp_core::{
    AcppError, CancelToken, PgConfig, RunOptions, Threads,
};
use acpp_data::atomic::{retry_io, splitmix64, EpochFence};
use acpp_data::{csv, fnv1a, write_atomic, DataError, RetryPolicy};
use acpp_obs::{
    metrics, recorder, render_prometheus, render_record_line, render_trace, Telemetry,
    TraceBuffer, DEFAULT_STREAM_CAPACITY, MS_BUCKETS,
};
use crossbeam::deque::{Injector, Steal};

use crate::fleet::{FleetConfig, FleetState};
use crate::http::{json_escape, read_request, ChunkedWriter, ReadError, Request, Response};
use crate::job::{JobInput, JobSpec, JobState};
use crate::lease::{self, LeaseView};
use crate::recover;
use crate::redact::{error_code_for, ErrorCode};

/// File names inside a job's spool directory.
pub mod spool {
    /// The durable job record (`acppd-job v1`).
    pub const RECORD: &str = "job";
    /// The materialized input table.
    pub const INPUT: &str = "input.csv";
    /// The journal subdirectory.
    pub const JOURNAL: &str = "journal";
    /// The published release.
    pub const OUTPUT: &str = "dstar.csv";
    /// Subdirectory of the spool root holding durable release series
    /// (`series/<tenant>--<id>/`), shared by all jobs naming that series.
    pub const SERIES_ROOT: &str = "series";
    /// Terminal-cancellation marker (content: a static reason code).
    pub const CANCELLED: &str = "cancelled";
    /// Terminal-failure marker (content: a static error code).
    pub const FAILED: &str = "failed";
    /// Flight-recorder dump written next to a failed job (JSONL).
    pub const FLIGHT: &str = "flight.jsonl";
}

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Spool directory (created if missing).
    pub spool: PathBuf,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission queue capacity; beyond it, `429 queue_full`.
    pub queue_cap: usize,
    /// Max jobs per tenant that may be queued or running at once.
    pub tenant_quota: usize,
    /// Request body cap in bytes (also caps path-input reads).
    pub max_body_bytes: usize,
    /// Root directory `{"input": <path>}` jobs may read from. `None` (the
    /// default) disables path inputs entirely: inline CSV is the only way
    /// to get data in.
    pub input_root: Option<PathBuf>,
    /// Whether job specs may carry a `chaos` section. Off by default:
    /// fault injection and simulated crashes are test-tier features, not
    /// something a tenant gets on a shared production surface.
    pub allow_chaos: bool,
    /// Fleet mode: when set, this daemon cooperates with other daemons on
    /// the same spool through per-job leases (see [`crate::lease`]). `None`
    /// (the default) is classic single-node operation.
    pub fleet: Option<FleetConfig>,
    /// Maximum requests served per connection. `1` (the default) preserves
    /// the classic `Connection: close` behavior; larger values honour
    /// `Connection: keep-alive` up to the budget.
    pub keep_alive_max: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            spool: PathBuf::from("acppd-spool"),
            workers: 2,
            queue_cap: 16,
            tenant_quota: 4,
            max_body_bytes: 4 << 20,
            input_root: None,
            allow_chaos: false,
            fleet: None,
            keep_alive_max: 1,
        }
    }
}

/// One admitted job's registry entry.
pub(crate) struct JobEntry {
    pub(crate) spec: JobSpec,
    pub(crate) dir: PathBuf,
    pub(crate) state: JobState,
    pub(crate) token: CancelToken,
    pub(crate) telemetry: Telemetry,
    /// Live trace broadcast buffer: the sink behind `telemetry`, shared
    /// with any `?follow=1` readers. Bounded, so a slow reader can never
    /// stall the worker — it sees a `gap` line instead.
    pub(crate) stream: Arc<TraceBuffer>,
    /// Static error/cancellation code; never a message.
    pub(crate) error: Option<&'static str>,
    pub(crate) release_digest: Option<u64>,
}

/// Builds the paired (broadcast buffer, sink-enabled telemetry) every
/// registry entry carries.
fn entry_channel() -> (Arc<TraceBuffer>, Telemetry) {
    let stream = Arc::new(TraceBuffer::new(DEFAULT_STREAM_CAPACITY));
    let telemetry = Telemetry::enabled_with_sink(Arc::clone(&stream));
    (stream, telemetry)
}

struct Shared {
    cfg: DaemonConfig,
    queue: Injector<String>,
    jobs: Mutex<BTreeMap<String, JobEntry>>,
    /// Paired with `jobs`: workers wait here for work, drain waits here
    /// for quiescence.
    wake: Condvar,
    draining: AtomicBool,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    running: AtomicU64,
    /// Fleet runtime (`None` in single-node mode).
    fleet: Option<FleetState>,
    /// Sequence of the deterministic `Retry-After` jitter stream.
    retry_seq: AtomicU64,
    /// Open release series, keyed `<tenant>--<id>`. The publisher's
    /// cross-release memos (persistent perturbation, representatives, the
    /// retained Mondrian partition) are process-local, so delta jobs must
    /// follow a full job for the same series within one daemon lifetime.
    /// The single lock serializes series publication — series jobs are a
    /// low-rate control-plane workload, not the bulk path.
    series: Mutex<BTreeMap<String, (PgConfig, acpp_republish::SeriesPublisher)>>,
}

impl Shared {
    /// Locks the job registry, recovering from poisoning. A panicking
    /// worker must not wedge the daemon: every registry transition writes
    /// whole fields (state, error, digest), so the map is valid even if a
    /// holder died mid-critical-section.
    fn jobs(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, JobEntry>> {
        self.jobs.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn update_gauges(&self) {
        let m = metrics();
        m.gauge_set("acppd_queue_depth", self.queue.len() as f64);
        m.gauge_set("acppd_jobs_running", self.running.load(Ordering::Relaxed) as f64);
    }
}

/// A running daemon instance.
pub struct Daemon {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Heartbeat and spool-scanner threads (fleet mode only).
    fleet_threads: Vec<JoinHandle<()>>,
}

fn service_err(what: &str, e: impl std::fmt::Display) -> AcppError {
    AcppError::Service(format!("{what}: {e}"))
}

/// Builds a job's cancel token from its spec. The deadline budget starts
/// when the token is built: at admission for fresh jobs, at boot for
/// recovered ones (the pre-crash part of the budget is not replayed — the
/// journal cannot know how much of it was spent).
fn token_for(spec: &JobSpec) -> CancelToken {
    match spec.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    }
}

impl Daemon {
    /// Boots a daemon: recovers the spool, binds the listener, starts the
    /// worker pool and the acceptor.
    pub fn start(cfg: DaemonConfig) -> Result<Daemon, AcppError> {
        fs::create_dir_all(&cfg.spool)
            .map_err(|e| service_err("cannot create spool", e))?;

        // Fleet mode: register this boot's identity before anything else —
        // the boot epoch must be durable before any lease carries it.
        let fleet = match &cfg.fleet {
            Some(fleet_cfg) => Some(
                FleetState::new(&cfg.spool, fleet_cfg.clone())
                    .map_err(|e| service_err("cannot register fleet node", e))?,
            ),
            None => None,
        };

        let shared = Arc::new(Shared {
            queue: Injector::new(),
            jobs: Mutex::new(BTreeMap::new()),
            wake: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            running: AtomicU64::new(0),
            fleet,
            retry_seq: AtomicU64::new(0),
            series: Mutex::new(BTreeMap::new()),
            cfg,
        });

        // Crash-restart recovery: rebuild the registry and the queue from
        // what the spool proves was admitted. In fleet mode nothing is
        // pushed here — runnable work may be leased to live peers, so the
        // scanner claims (and only then queues) it, lease by lease.
        let recovered = recover::scan(&shared.cfg.spool)?;
        {
            let mut jobs = shared.jobs();
            let mut max_seen = 0u64;
            for job in recovered {
                if let Some(n) = recover::parse_id(&job.id) {
                    max_seen = max_seen.max(n);
                }
                let needs_run = job.needs_run;
                let id = job.id.clone();
                let token = token_for(&job.spec);
                let (stream, telemetry) = entry_channel();
                // A recovered terminal job will never emit again: close its
                // stream now so a follower gets an immediate end, not a hang.
                if job.state.is_terminal() {
                    stream.close();
                }
                jobs.insert(
                    job.id,
                    JobEntry {
                        spec: job.spec,
                        dir: job.dir,
                        state: job.state,
                        token,
                        telemetry,
                        stream,
                        error: job.error,
                        release_digest: job.release_digest,
                    },
                );
                if needs_run && shared.fleet.is_none() {
                    shared.queue.push(id);
                }
            }
            shared.next_id.store(max_seen + 1, Ordering::Relaxed);
        }
        shared.update_gauges();

        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let mut fleet_threads = Vec::new();
        if shared.fleet.is_some() {
            let hb = Arc::clone(&shared);
            fleet_threads.push(std::thread::spawn(move || heartbeat_loop(&hb)));
            let sc = Arc::clone(&shared);
            fleet_threads.push(std::thread::spawn(move || scanner_loop(&sc)));
        }

        let listener = TcpListener::bind(&shared.cfg.addr)
            .map_err(|e| service_err("cannot bind", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| service_err("cannot resolve bound address", e))?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, listener))
        };

        Ok(Daemon { shared, addr, acceptor: Some(acceptor), workers, fleet_threads })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The spool directory.
    pub fn spool(&self) -> &Path {
        &self.shared.cfg.spool
    }

    /// Whether the daemon is draining.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// This node's *local* registry view of a job: its state and static
    /// error code, or `None` if this node never registered the job. In
    /// fleet mode the HTTP status route answers with fleet-wide truth
    /// (synthesized from the shared spool when a peer owns the job); this
    /// accessor is the node's own bookkeeping, for tests and tooling.
    pub fn local_status(&self, id: &str) -> Option<(JobState, Option<&'static str>)> {
        self.shared.jobs().get(id).map(|e| (e.state, e.error))
    }

    /// Chaos hook (fleet mode): while frozen, this node's heartbeat ticks
    /// do nothing — the process is alive but silent, which is what a
    /// SIGSTOP'd or GC-paused owner looks like to its peers. A no-op in
    /// single-node mode.
    pub fn set_heartbeats_frozen(&self, frozen: bool) {
        if let Some(fleet) = &self.shared.fleet {
            fleet.set_frozen(frozen);
        }
    }

    /// Graceful drain: stop admitting, wait until no job is queued or
    /// running, then stop the threads. In-flight jobs finish normally.
    pub fn drain(mut self) {
        self.shared.draining.store(true, Ordering::Relaxed);
        {
            let mut jobs = self.shared.jobs();
            loop {
                // In fleet mode a `Queued` entry this node does not hold a
                // lease on belongs to a peer (or to whichever scanner
                // claims it next) — waiting on it here would deadlock the
                // drain against work this node will never run.
                let active = jobs.iter().any(|(id, e)| match e.state {
                    JobState::Running => true,
                    JobState::Queued => self
                        .shared
                        .fleet
                        .as_ref()
                        .is_none_or(|fleet| fleet.still_holds(id)),
                    _ => false,
                });
                if !active {
                    break;
                }
                let (guard, _) = self
                    .shared
                    .wake
                    .wait_timeout(jobs, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                jobs = guard;
            }
        }
        self.stop_threads();
    }

    /// Abrupt stop: no new jobs are started (queued work stays durable in
    /// the spool for the next boot), but a job already on a worker runs to
    /// its next outcome. Chaos tests combine this with simulated crash
    /// points to model a hard kill mid-run.
    pub fn kill(mut self) {
        self.shared.draining.store(true, Ordering::Relaxed);
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.wake.notify_all();
        // Unblock the acceptor's blocking accept() with a throwaway
        // connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        for handle in self.fleet_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.shared.shutdown.load(Ordering::Relaxed) {
            self.stop_threads();
        }
    }
}

// ---------------------------------------------------------------------------
// HTTP front end
// ---------------------------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        let Ok((stream, _)) = listener.accept() else { continue };
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let shared = Arc::clone(shared);
        std::thread::spawn(move || handle_connection(&shared, stream));
    }
}

/// Serves up to `keep_alive_max` requests per connection. Requests after
/// the first happen only when the client asked for `Connection: keep-alive`
/// and the budget is not spent; parse errors always close (the stream
/// framing can no longer be trusted).
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let budget = shared.cfg.keep_alive_max.max(1);
    for served in 1..=budget {
        match read_request(&mut stream, shared.cfg.max_body_bytes) {
            Ok(req) => {
                // A follow stream has no length up front, so it bypasses
                // the buffered Response path and always ends the
                // connection.
                if let Some(id) = trace_follow_target(&req) {
                    metrics().counter_add_labeled(
                        "acppd_http_requests_total",
                        "route",
                        "job_trace_follow",
                        1,
                    );
                    return stream_trace(shared, &id, &mut stream);
                }
                let keep = req.keep_alive
                    && served < budget
                    && !shared.shutdown.load(Ordering::Relaxed);
                route(shared, &req).write_to(&mut stream, !keep);
                if !keep {
                    return;
                }
            }
            Err(ReadError::Malformed) => {
                return reject(ErrorCode::BadRequest).write_to(&mut stream, true);
            }
            Err(ReadError::TooLarge) => {
                return reject(ErrorCode::PayloadTooLarge).write_to(&mut stream, true);
            }
            Err(ReadError::Io) => return,
        }
    }
}

fn reject(code: ErrorCode) -> Response {
    let (status, reason) = code.status();
    metrics().counter_add_labeled("acppd_jobs_rejected_total", "reason", code.label(), 1);
    Response::json(status, reason, format!("{{\"error\":\"{}\"}}", code.label()))
}

/// Backpressure rejection (429 queue/quota, 503 drain): [`reject`] plus a
/// `Retry-After` computed from the daemon's actual state instead of a
/// constant — clients that honour it come back when a retry can plausibly
/// succeed, not in a thundering herd one second later.
fn reject_throttled(shared: &Shared, code: ErrorCode) -> Response {
    reject(code).with_header("Retry-After", retry_after_secs(shared).to_string())
}

/// Seconds a rejected client should wait: one second per queued job per
/// worker (the backlog it must outlive), from a floor of 1 — or 5 when
/// draining, since a drain outlasts any queue estimate. A deterministic
/// 0/1 s jitter (seeded [`splitmix64`] over a per-daemon sequence)
/// de-synchronizes clients that were rejected in the same instant.
fn retry_after_secs(shared: &Shared) -> u64 {
    let base = if shared.draining.load(Ordering::Relaxed) { 5 } else { 1 };
    let backlog = shared.queue.len() as u64 / shared.cfg.workers.max(1) as u64;
    let seq = shared.retry_seq.fetch_add(1, Ordering::Relaxed);
    let jitter = splitmix64(fnv1a(shared.cfg.addr.as_bytes()) ^ seq) & 1;
    (base + backlog + jitter).min(30)
}

fn route(shared: &Arc<Shared>, req: &Request) -> Response {
    let (route_label, response) = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => ("jobs_post", admit(shared, &req.body)),
        ("GET", "/metrics") => (
            "metrics",
            Response::text(200, "OK", render_prometheus(&metrics().snapshot())),
        ),
        ("GET", "/healthz") => {
            let mut body = format!(
                "{{\"status\":\"ok\",\"draining\":{}",
                shared.draining.load(Ordering::Relaxed)
            );
            if let Some(fleet) = &shared.fleet {
                body.push_str(&format!(
                    ",\"node\":\"{}\",\"boot_epoch\":{},\"leases_held\":{}",
                    json_escape(&fleet.cfg.node_id),
                    fleet.identity.boot_epoch,
                    fleet.leases_held(),
                ));
            }
            body.push('}');
            ("healthz", Response::json(200, "OK", body))
        }
        ("POST", "/drain") => {
            shared.draining.store(true, Ordering::Relaxed);
            ("drain", Response::json(200, "OK", "{\"draining\":true}".to_string()))
        }
        (method, path) => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                job_route(shared, method, rest)
            } else if matches!(path, "/jobs" | "/metrics" | "/healthz" | "/drain") {
                ("other", reject(ErrorCode::MethodNotAllowed))
            } else {
                ("other", reject(ErrorCode::NotFound))
            }
        }
    };
    metrics().counter_add_labeled("acppd_http_requests_total", "route", route_label, 1);
    response
}

fn job_route(
    shared: &Arc<Shared>,
    method: &str,
    rest: &str,
) -> (&'static str, Response) {
    if let Some(id) = rest.strip_suffix("/cancel") {
        return match method {
            "POST" => ("job_cancel", cancel_job(shared, id)),
            _ => ("other", reject(ErrorCode::MethodNotAllowed)),
        };
    }
    if let Some(id) = rest.strip_suffix("/trace") {
        return match method {
            "GET" => ("job_trace", job_trace(shared, id)),
            _ => ("other", reject(ErrorCode::MethodNotAllowed)),
        };
    }
    match method {
        "GET" => ("job_get", job_status(shared, rest)),
        _ => ("other", reject(ErrorCode::MethodNotAllowed)),
    }
}

/// Renders a job's public status. Everything in the body is
/// server-generated or validated-identifier data: the id, the tenant (a
/// lawful identifier), a state label, a static error code, and the
/// release digest (a property of the *published* table, which the
/// adversary can read anyway).
fn status_body(id: &str, entry: &JobEntry) -> String {
    status_body_parts(id, &entry.spec.tenant, entry.state, entry.error, entry.release_digest)
}

/// The same rendering from loose parts, for statuses synthesized off the
/// shared spool rather than a registry entry.
fn status_body_parts(
    id: &str,
    tenant: &str,
    state: JobState,
    error: Option<&'static str>,
    release_digest: Option<u64>,
) -> String {
    let error = match error {
        Some(code) => format!("\"{code}\""),
        None => "null".to_string(),
    };
    let digest = match release_digest {
        Some(d) => format!("\"{d:016x}\""),
        None => "null".to_string(),
    };
    format!(
        "{{\"id\":\"{}\",\"tenant\":\"{}\",\"state\":\"{}\",\"error\":{},\"release_digest\":{}}}",
        json_escape(id),
        json_escape(tenant),
        state.label(),
        error,
        digest,
    )
}

fn job_status(shared: &Arc<Shared>, id: &str) -> Response {
    {
        let jobs = shared.jobs();
        match jobs.get(id) {
            Some(entry) => {
                // The local registry is the truth for anything this node
                // decided itself: terminal outcomes, a run in progress, or
                // a queued job whose lease it holds. A queued entry it does
                // *not* hold may have progressed on a peer — fall through
                // and read the shared spool.
                let authoritative = shared.fleet.as_ref().is_none_or(|fleet| {
                    entry.state.is_terminal()
                        || matches!(entry.state, JobState::Running)
                        || fleet.still_holds(id)
                });
                if authoritative {
                    return Response::json(200, "OK", status_body(id, entry));
                }
            }
            None if shared.fleet.is_none() => return reject(ErrorCode::UnknownJob),
            // Fleet mode: a peer may have admitted the job to the shared
            // spool — this node can still answer for it.
            None => {}
        }
    }
    match fleet_status_from_spool(shared, id) {
        Some(response) => response,
        None => reject(ErrorCode::UnknownJob),
    }
}

/// Synthesizes a job status from the shared spool (fleet mode): the job
/// record proves admission, markers/journal/release prove the outcome, and
/// the lease chain says whether some node is actively on it.
fn fleet_status_from_spool(shared: &Shared, id: &str) -> Option<Response> {
    let fleet = shared.fleet.as_ref()?;
    // Only ids of the daemon's own shape touch the filesystem: everything
    // else is a probe, not a job.
    recover::parse_id(id)?;
    let dir = shared.cfg.spool.join(id);
    let record = fs::read_to_string(dir.join(spool::RECORD)).ok()?;
    let spec = JobSpec::parse_record(&record).ok()?;
    let (state, error, release_digest, needs_run, _) = recover::classify(&dir);
    let state = if needs_run {
        // Not terminal on disk: a live lease means some node is on it.
        match lease::inspect(&dir, fleet.ttl_ms(), lease::now_ms()) {
            LeaseView::Held(_) => JobState::Running,
            _ => JobState::Queued,
        }
    } else {
        state
    };
    Some(Response::json(
        200,
        "OK",
        status_body_parts(id, &spec.tenant, state, error, release_digest),
    ))
}

fn cancel_job(shared: &Arc<Shared>, id: &str) -> Response {
    let jobs = shared.jobs();
    match jobs.get(id) {
        Some(entry) => {
            entry.token.cancel();
            Response::json(
                200,
                "OK",
                format!("{{\"id\":\"{}\",\"cancel_requested\":true}}", json_escape(id)),
            )
        }
        None => reject(ErrorCode::UnknownJob),
    }
}

fn job_trace(shared: &Arc<Shared>, id: &str) -> Response {
    let jobs = shared.jobs();
    match jobs.get(id) {
        Some(entry) => Response::text(200, "OK", render_trace(&entry.telemetry)),
        None => reject(ErrorCode::UnknownJob),
    }
}

// ---------------------------------------------------------------------------
// Live trace streaming
// ---------------------------------------------------------------------------

/// Poll interval for both live and synthesized trace followers.
const FOLLOW_POLL: Duration = Duration::from_millis(200);
/// Silent polls between keep-alive `tick` lines (~5 s at [`FOLLOW_POLL`]):
/// the tick proves the stream is alive and is the only way to notice a
/// reader that vanished without closing its socket.
const FOLLOW_TICK_POLLS: u32 = 25;

/// `GET /jobs/<id>/trace?follow=1` → the job id, else `None`.
fn trace_follow_target(req: &Request) -> Option<String> {
    if req.method != "GET" || !req.query_flag("follow", "1") {
        return None;
    }
    req.path
        .strip_prefix("/jobs/")
        .and_then(|rest| rest.strip_suffix("/trace"))
        .map(str::to_string)
}

/// Streams a job's trace as chunked JSONL until the job is terminal or the
/// reader goes away. Locally-owned jobs stream live span/event records out
/// of the entry's bounded broadcast buffer; in fleet mode a job owned by a
/// peer is followed by synthesizing progress from the shared spool
/// (journal checkpoints + lease state), so any node can answer for any
/// job.
fn stream_trace(shared: &Arc<Shared>, id: &str, stream: &mut TcpStream) {
    let local = {
        let jobs = shared.jobs();
        jobs.get(id).map(|e| (Arc::clone(&e.stream), e.state))
    };
    // Same authority rule as the status route: this node's buffer is the
    // truth for terminal outcomes, runs in progress, and queued jobs whose
    // lease it holds. A queued entry it does not hold may be running on a
    // peer — its local buffer would stay silent forever.
    let authoritative = match (&shared.fleet, &local) {
        (None, Some(_)) => true,
        (Some(fleet), Some((_, state))) => {
            state.is_terminal()
                || matches!(state, JobState::Running)
                || fleet.still_holds(id)
        }
        (_, None) => false,
    };
    if authoritative {
        if let Some((buffer, _)) = local {
            return stream_trace_live(shared, id, &buffer, stream);
        }
    }
    if shared.fleet.is_some() {
        return stream_trace_synthesized(shared, id, stream);
    }
    reject(ErrorCode::UnknownJob).write_to(stream, true);
}

/// The live follower: meta line, then every record the broadcast buffer
/// delivers (events as they happen, spans when they close), a `gap` line
/// whenever the bounded ring dropped records this reader was too slow for,
/// and a final `end` line carrying the terminal state.
fn stream_trace_live(
    shared: &Arc<Shared>,
    id: &str,
    buffer: &TraceBuffer,
    stream: &mut TcpStream,
) {
    let mut out = ChunkedWriter::start(stream, 200, "OK", "application/x-ndjson");
    let meta = format!(
        "{{\"type\":\"stream\",\"version\":1,\"job\":\"{}\",\"mode\":\"live\"}}\n",
        json_escape(id)
    );
    if !out.write_chunk(meta.as_bytes()) {
        return;
    }
    let mut cursor = 0u64;
    let mut quiet_polls = 0u32;
    loop {
        let chunk = buffer.poll_since(cursor, FOLLOW_POLL);
        cursor = chunk.next_seq;
        let mut batch = String::new();
        if chunk.missed > 0 {
            batch.push_str(&format!("{{\"type\":\"gap\",\"missed\":{}}}\n", chunk.missed));
        }
        for (_, record) in &chunk.records {
            // render_record_line is newline-terminated already.
            batch.push_str(&render_record_line(record));
        }
        if batch.is_empty() {
            quiet_polls += 1;
            if quiet_polls >= FOLLOW_TICK_POLLS {
                quiet_polls = 0;
                if !out.write_chunk(b"{\"type\":\"tick\"}\n") {
                    return;
                }
            }
        } else {
            quiet_polls = 0;
            if !out.write_chunk(batch.as_bytes()) {
                return;
            }
        }
        // Closed buffer (worker reached a terminal outcome) or a terminal
        // registry state (recovered entries never close their fresh
        // buffer): drain what is left, then end.
        let state = shared.jobs().get(id).map(|e| e.state);
        let terminal = state.is_none_or(JobState::is_terminal);
        if (chunk.closed || terminal) && chunk.records.is_empty() {
            let label = state.map_or("unknown", JobState::label);
            let _ = out.write_chunk(
                format!("{{\"type\":\"end\",\"state\":\"{label}\"}}\n").as_bytes(),
            );
            return out.finish();
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return out.finish();
        }
    }
}

/// The fleet follower for a job this node does not own: progress is
/// synthesized from what the shared spool proves — one `checkpoint` line
/// per durable journal phase digest, a `fleet_state` line whenever the
/// lease-derived state changes, and the same `end` line the live stream
/// ends with. Only phase labels and state labels are emitted; journal
/// digests stay private to the commit protocol.
fn stream_trace_synthesized(shared: &Arc<Shared>, id: &str, stream: &mut TcpStream) {
    let Some(fleet) = shared.fleet.as_ref() else {
        return reject(ErrorCode::UnknownJob).write_to(stream, true);
    };
    let dir = shared.cfg.spool.join(id);
    if recover::parse_id(id).is_none() || !dir.join(spool::RECORD).exists() {
        return reject(ErrorCode::UnknownJob).write_to(stream, true);
    }
    let mut out = ChunkedWriter::start(stream, 200, "OK", "application/x-ndjson");
    let meta = format!(
        "{{\"type\":\"stream\",\"version\":1,\"job\":\"{}\",\"mode\":\"synthesized\"}}\n",
        json_escape(id)
    );
    if !out.write_chunk(meta.as_bytes()) {
        return;
    }
    let mut reported = 0usize;
    let mut last_state = String::new();
    let mut quiet_polls = 0u32;
    loop {
        let (state, _, _, needs_run, _) = recover::classify(&dir);
        let state = if needs_run {
            match lease::inspect(&dir, fleet.ttl_ms(), lease::now_ms()) {
                LeaseView::Held(_) => JobState::Running,
                _ => JobState::Queued,
            }
        } else {
            state
        };
        let checkpoints = journal::read_state(&dir.join(spool::JOURNAL))
            .map(|s| s.phase_digests)
            .unwrap_or_default();
        let mut batch = String::new();
        for (phase, _) in checkpoints.iter().skip(reported) {
            batch.push_str(&format!(
                "{{\"type\":\"checkpoint\",\"phase\":\"{}\",\"source\":\"journal\"}}\n",
                phase.label()
            ));
        }
        reported = reported.max(checkpoints.len());
        if state.label() != last_state {
            last_state = state.label().to_string();
            batch.push_str(&format!("{{\"type\":\"fleet_state\",\"state\":\"{last_state}\"}}\n"));
        }
        if batch.is_empty() {
            quiet_polls += 1;
            if quiet_polls >= FOLLOW_TICK_POLLS {
                quiet_polls = 0;
                if !out.write_chunk(b"{\"type\":\"tick\"}\n") {
                    return;
                }
            }
        } else {
            quiet_polls = 0;
            if !out.write_chunk(batch.as_bytes()) {
                return;
            }
        }
        if state.is_terminal() {
            let _ = out.write_chunk(
                format!("{{\"type\":\"end\",\"state\":\"{}\"}}\n", state.label()).as_bytes(),
            );
            return out.finish();
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return out.finish();
        }
        sleep_interruptible(shared, FOLLOW_POLL);
    }
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

/// Allocates a fresh job id by exclusively creating its spool directory.
/// `create_dir` (not `_all`) is the cross-node arbiter: on a shared spool,
/// two nodes racing for the same number collide on `AlreadyExists` and the
/// loser advances to the next one. Single-node daemons take the same path —
/// the counter alone was only ever process-local truth.
fn allocate_job_dir(shared: &Shared) -> Result<(String, PathBuf), DataError> {
    loop {
        let n = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let id = format!("j{n:06}");
        let dir = shared.cfg.spool.join(&id);
        match fs::create_dir(&dir) {
            Ok(()) => return Ok((id, dir)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(DataError::from(e)),
        }
    }
}

fn admit(shared: &Arc<Shared>, body: &[u8]) -> Response {
    if shared.draining.load(Ordering::Relaxed) || shared.shutdown.load(Ordering::Relaxed) {
        return reject_throttled(shared, ErrorCode::Draining);
    }
    let Ok(text) = std::str::from_utf8(body) else {
        return reject(ErrorCode::BadRequest);
    };
    let Ok((spec, input)) = JobSpec::from_json(text) else {
        return reject(ErrorCode::BadRequest);
    };
    // Chaos (fault injection, simulated crashes) is a test-tier feature:
    // on a shared deployment any tenant could otherwise stall a worker or
    // park a job as `interrupted` until the next restart.
    if spec.chaos.is_some() && !shared.cfg.allow_chaos {
        return reject(ErrorCode::ChaosDisabled);
    }

    // Materialize the input before touching any shared state: a slow or
    // blocking read must not stall status/cancel traffic or the workers.
    let rows = match input {
        JobInput::Inline(text) => text,
        JobInput::Path(path) => match read_path_input(&shared.cfg, Path::new(&path)) {
            Ok(rows) => rows,
            Err(code) => return reject(code),
        },
    };

    // Allocate the job's directory first — on a shared spool the exclusive
    // create is the fleet-wide id arbiter, and it must happen outside the
    // registry lock (it is disk I/O). Until a record lands inside, the
    // empty directory is a half-written admission every scan skips.
    let record = spec.render_record();
    let Ok((id, dir)) = allocate_job_dir(shared) else {
        return reject(ErrorCode::Internal);
    };

    // The admission decision happens under the registry lock, so the
    // queue bound and the tenant quota are exact, not approximate: the
    // job is reserved (visible as queued) before the lock drops.
    {
        let mut jobs = shared.jobs();
        let queued =
            jobs.values().filter(|e| matches!(e.state, JobState::Queued)).count();
        if queued >= shared.cfg.queue_cap {
            drop(jobs);
            let _ = fs::remove_dir_all(&dir);
            return reject_throttled(shared, ErrorCode::QueueFull);
        }
        let inflight = jobs
            .values()
            .filter(|e| {
                e.spec.tenant == spec.tenant
                    && matches!(e.state, JobState::Queued | JobState::Running)
            })
            .count();
        if inflight >= shared.cfg.tenant_quota {
            drop(jobs);
            let _ = fs::remove_dir_all(&dir);
            return reject_throttled(shared, ErrorCode::TenantQuota);
        }

        let (stream, telemetry) = entry_channel();
        telemetry.event("job.admitted", &[("queued", true.into())]);
        jobs.insert(
            id.clone(),
            JobEntry {
                token: token_for(&spec),
                dir: dir.clone(),
                spec,
                state: JobState::Queued,
                telemetry,
                stream,
                error: None,
                release_digest: None,
            },
        );
    }

    // Spool I/O runs with the lock released: a slow or retrying disk must
    // not block status/cancel routes or worker state transitions. The
    // reserved entry cannot start early — workers only see ids pushed to
    // the queue, which happens after the spool entry is durable.
    let policy = RetryPolicy::default();
    let persisted = write_atomic(&dir.join(spool::INPUT), rows.as_bytes(), &policy)
        .and_then(|()| write_atomic(&dir.join(spool::RECORD), record.as_bytes(), &policy));
    if persisted.is_err() {
        // Roll back the reservation. Half-written spool entries have no
        // record file; recovery skips them, so nothing phantom is ever
        // admitted.
        shared.jobs().remove(&id);
        let _ = fs::remove_dir_all(&dir);
        shared.wake.notify_all();
        return reject(ErrorCode::Internal);
    }

    // Fleet mode: claim the lease before queueing locally. Losing the race
    // (a peer's scanner spotted the record first) is not an error — the
    // job was durably admitted and *some* node owns it; this node simply
    // doesn't queue it.
    let owned = match &shared.fleet {
        Some(fleet) => matches!(fleet.claim(&id, &dir), Ok(Some(_))),
        None => true,
    };
    if owned {
        shared.queue.push(id.clone());
    }
    metrics().counter_add("acppd_jobs_admitted_total", 1);
    shared.update_gauges();
    shared.wake.notify_all();
    Response::json(202, "Accepted", format!("{{\"id\":\"{}\"}}", json_escape(&id)))
}

/// Materializes a `{"input": <path>}` job source. Path inputs are an
/// operator convenience, not a tenant right: they are rejected outright
/// unless the daemon was configured with an input root; the path (with
/// relative paths resolved against that root) must canonicalize to a
/// regular file inside it — no symlink escapes, FIFOs, or device nodes
/// that could block or stream forever — and the read is capped at the
/// body limit, so this route cannot smuggle in what a 413 would have
/// refused on the wire.
fn read_path_input(cfg: &DaemonConfig, requested: &Path) -> Result<String, ErrorCode> {
    let Some(root) = &cfg.input_root else {
        return Err(ErrorCode::InputForbidden);
    };
    let root = fs::canonicalize(root).map_err(|_| ErrorCode::InputForbidden)?;
    let joined =
        if requested.is_absolute() { requested.to_path_buf() } else { root.join(requested) };
    let path = fs::canonicalize(&joined).map_err(|_| ErrorCode::BadRequest)?;
    if !path.starts_with(&root) {
        return Err(ErrorCode::InputForbidden);
    }
    // Metadata before open: open() on a FIFO blocks until a writer shows
    // up, and a handler thread must never hang on tenant-chosen paths.
    let meta = fs::metadata(&path).map_err(|_| ErrorCode::BadRequest)?;
    if !meta.is_file() {
        return Err(ErrorCode::InputForbidden);
    }
    let cap = cfg.max_body_bytes as u64;
    let file = fs::File::open(&path).map_err(|_| ErrorCode::BadRequest)?;
    let mut rows = String::new();
    file.take(cap + 1).read_to_string(&mut rows).map_err(|_| ErrorCode::BadRequest)?;
    if rows.len() as u64 > cap {
        return Err(ErrorCode::PayloadTooLarge);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let stolen = loop {
            match shared.queue.steal() {
                Steal::Success(id) => break Some(id),
                Steal::Empty => break None,
                Steal::Retry => {}
            }
        };
        let Some(id) = stolen else {
            let jobs = shared.jobs();
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            // The timeout doubles as a missed-notify backstop.
            let _ = shared
                .wake
                .wait_timeout(jobs, Duration::from_millis(100))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            continue;
        };
        run_entry(shared, &id);
    }
}

fn run_entry(shared: &Arc<Shared>, id: &str) {
    let dir_hint = shared.cfg.spool.join(id);
    // Fleet mode: ownership before execution. A job may sit in the local
    // queue after its lease was lost (or never won) — leaving silently is
    // correct, the owner (or the next scanner pass) runs it.
    if let Some(fleet) = &shared.fleet {
        match fleet.claim(id, &dir_hint) {
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => return,
        }
    }
    let picked = {
        let mut jobs = shared.jobs();
        match jobs.get_mut(id) {
            Some(entry) if matches!(entry.state, JobState::Queued) => {
                entry.state = JobState::Running;
                Some((
                    entry.spec.clone(),
                    entry.dir.clone(),
                    entry.token.clone(),
                    entry.telemetry.clone(),
                ))
            }
            _ => None,
        }
    };
    let Some((spec, dir, token, telemetry)) = picked else {
        // Claimed a lease for a job that is no longer runnable here
        // (double-pushed, or terminal since queueing): give it back.
        if let Some(fleet) = &shared.fleet {
            fleet.release_held(id, &dir_hint);
        }
        return;
    };
    shared.running.fetch_add(1, Ordering::Relaxed);
    shared.update_gauges();

    let fence = shared.fleet.as_ref().and_then(|fleet| fleet.fence(id, &dir));
    let started = Instant::now();
    let result = run_job(
        &spec,
        &dir,
        &token,
        &telemetry,
        fence.as_ref(),
        &shared.series,
        &shared.cfg.spool,
    );
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    // Lease-loss classification happens before touching the registry: a
    // fenced-off run must write no marker (the thief owns the spool entry
    // now) and must not release the lease file (it is not ours to write).
    let lease_lost = shared.fleet.as_ref().is_some_and(|fleet| !fleet.still_holds(id))
        || matches!(&result, Err(AcppError::Data(DataError::StaleEpoch { .. })));

    let marker_policy = RetryPolicy::default();
    let outcome;
    {
        let mut jobs = shared.jobs();
        let Some(entry) = jobs.get_mut(id) else { return };
        match result {
            Ok(digest) => {
                // The run finished; even if the lease was stolen at the
                // last instant, the fences it passed prove the published
                // bytes are the (byte-identical) release.
                entry.state = JobState::Done;
                entry.release_digest = Some(digest);
                entry.error = None;
                outcome = "done";
            }
            Err(_) if lease_lost => {
                entry.state = JobState::Interrupted;
                entry.error = Some("lease_lost");
                outcome = "lease_lost";
            }
            Err(AcppError::Service(_)) => {
                // Cancellation is terminal but keeps its checkpoints: the
                // journal stays, the marker stops recovery from re-queuing.
                entry.state = JobState::Cancelled;
                let reason = if entry.token.is_cancelled() {
                    "cancelled"
                } else {
                    "deadline_exceeded"
                };
                entry.error = Some(reason);
                let _ = write_atomic(
                    &entry.dir.join(spool::CANCELLED),
                    reason.as_bytes(),
                    &marker_policy,
                );
                outcome = "cancelled";
            }
            Err(AcppError::Journal(msg)) if msg.starts_with("simulated crash") => {
                // A simulated hard kill: no marker, so the next boot's
                // recovery pass resumes the journal.
                entry.state = JobState::Interrupted;
                entry.error = Some("journal");
                outcome = "interrupted";
            }
            Err(err) => {
                entry.state = JobState::Failed;
                let code = error_code_for(&err);
                entry.error = Some(code);
                let _ = write_atomic(
                    &entry.dir.join(spool::FAILED),
                    code.as_bytes(),
                    &marker_policy,
                );
                outcome = "failed";
            }
        }
        // Terminal outcomes end the live trace stream (followers drain and
        // get their `end` line). Interrupted / lease-lost runs leave it
        // open: a resume — here or on a peer — continues the same story.
        if entry.state.is_terminal() {
            entry.stream.close();
        }
    }
    if outcome == "failed" {
        // Flight recorder: a fatal job error is exactly the moment the
        // recent-event ring exists for. The dump is atomic (tmp + rename)
        // and lands next to the failure marker.
        let _ = recorder().dump_to(&dir.join(spool::FLIGHT));
    }
    if let Some(fleet) = &shared.fleet {
        match outcome {
            // No release write: for a lost lease the file belongs to the
            // thief; for a simulated crash the stale heartbeat expiring is
            // exactly a dead owner, which lets any node (this one included)
            // steal and resume.
            "lease_lost" | "interrupted" => fleet.drop_held(id),
            _ => fleet.release_held(id, &dir),
        }
    }
    shared.running.fetch_sub(1, Ordering::Relaxed);
    let m = metrics();
    m.counter_add_labeled("acppd_jobs_completed_total", "outcome", outcome, 1);
    m.observe("acppd_job_latency_ms", MS_BUCKETS, elapsed_ms);
    shared.update_gauges();
    shared.wake.notify_all();
}

/// Sleeps `total`, polling the shutdown flag every 10 ms so fleet threads
/// stop promptly.
fn sleep_interruptible(shared: &Shared, total: Duration) {
    let mut left = total;
    while !shared.shutdown.load(Ordering::Relaxed) && !left.is_zero() {
        let step = left.min(Duration::from_millis(10));
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
}

/// Fleet heartbeat thread: renew every held lease each interval. A lease
/// lost mid-run (stolen, or the disk gave out on renewal) cancels the
/// job's token so the worker stops at its next checkpoint boundary — the
/// fence would refuse its commits anyway, this just stops the work sooner.
fn heartbeat_loop(shared: &Arc<Shared>) {
    let Some(fleet) = &shared.fleet else { return };
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        for id in fleet.heartbeat_tick(&shared.cfg.spool) {
            let jobs = shared.jobs();
            if let Some(entry) = jobs.get(&id) {
                entry.token.cancel();
            }
        }
        sleep_interruptible(shared, fleet.heartbeat_interval());
    }
}

/// Fleet scanner thread: walk the shared spool for runnable jobs whose
/// lease this node may take — freshly admitted on a peer that died before
/// running them, expired (owner dead or frozen), released, or torn. A won
/// claim upserts a registry entry and queues the job locally.
fn scanner_loop(shared: &Arc<Shared>) {
    let Some(fleet) = &shared.fleet else { return };
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if !shared.draining.load(Ordering::Relaxed) {
            scan_for_claimable(shared, fleet);
        }
        sleep_interruptible(shared, fleet.scan_interval());
    }
}

fn scan_for_claimable(shared: &Arc<Shared>, fleet: &FleetState) {
    let Ok(listing) = fs::read_dir(&shared.cfg.spool) else { return };
    for entry in listing.flatten() {
        if shared.shutdown.load(Ordering::Relaxed) || shared.draining.load(Ordering::Relaxed)
        {
            return;
        }
        let name = entry.file_name();
        let Some(id) = name.to_str() else { continue };
        // Only directories of the daemon's own id shape are jobs; that
        // also skips `.nodes` and any operator debris.
        if recover::parse_id(id).is_none() || !entry.path().is_dir() {
            continue;
        }
        let dir = entry.path();
        if fleet.still_holds(id) {
            continue;
        }
        {
            let jobs = shared.jobs();
            if let Some(local) = jobs.get(id) {
                if matches!(local.state, JobState::Running) || local.state.is_terminal() {
                    continue;
                }
            }
        }
        // Terminal on disk — nothing to run regardless of leases.
        if dir.join(spool::CANCELLED).exists() || dir.join(spool::FAILED).exists() {
            continue;
        }
        if matches!(journal::status(&dir.join(spool::JOURNAL)), JournalStatus::Complete) {
            continue;
        }
        // No durable record yet: a peer is mid-admission; its 202 has not
        // gone out, so the job does not exist fleet-wide.
        let Ok(record) = fs::read_to_string(dir.join(spool::RECORD)) else { continue };
        let Ok(spec) = JobSpec::parse_record(&record) else { continue };
        match fleet.claim(id, &dir) {
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => continue,
        }
        {
            let mut jobs = shared.jobs();
            let slot = jobs.entry(id.to_string()).or_insert_with(|| {
                let (stream, telemetry) = entry_channel();
                JobEntry {
                    token: token_for(&spec),
                    dir: dir.clone(),
                    spec: spec.clone(),
                    state: JobState::Queued,
                    telemetry,
                    stream,
                    error: None,
                    release_digest: None,
                }
            });
            // A stale local entry (lease lost earlier, job since released
            // or expired back to us) restarts its lifecycle: fresh token,
            // fresh deadline budget — the journal, not the registry, is
            // what carries completed work across owners.
            slot.state = JobState::Queued;
            slot.error = None;
            slot.token = token_for(&slot.spec);
        }
        metrics().counter_add("acppd_scanner_claims_total", 1);
        shared.queue.push(id.to_string());
        shared.update_gauges();
        shared.wake.notify_all();
    }
}

/// Open release series held by one daemon process, keyed `<tenant>--<id>`.
type SeriesMap = BTreeMap<String, (PgConfig, acpp_republish::SeriesPublisher)>;

/// Executes a series job: a full release of the input table, or an
/// incremental delta release repairing only the Mondrian regions the
/// update batch touches (the input carries the batch, not a table).
///
/// Series jobs are at-least-once: every release commits atomically with
/// the series bookkeeping (see `acpp_republish::durable`), but a crash
/// between that commit and the job's registry update re-runs the job on
/// recovery and appends another release. They are deliberately outside
/// the chaos matrix (admission rejects chaos-bearing series specs) and
/// outside fleet stealing: the cross-release memos are process-local, so
/// a delta job stolen by a peer that never ran the series' full release
/// fails with a clear error rather than silently re-partitioning.
fn run_series_job(
    spec: &JobSpec,
    series_id: &str,
    dir: &Path,
    spool_root: &Path,
    registry: &Mutex<SeriesMap>,
) -> Result<u64, AcppError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let policy = RetryPolicy::default();
    let input =
        retry_io(&policy, "read job input", || fs::read_to_string(dir.join(spool::INPUT)))?;
    let (schema, taxonomies) = spec
        .world()
        .map_err(|reason| AcppError::Validation(reason.to_string()))?;
    let config = PgConfig::new(spec.p, spec.k)?.with_algorithm(spec.algorithm);
    let key = format!("{}--{series_id}", spec.tenant);

    // One lock over open + publish: series publication is serialized
    // process-wide (a low-rate control-plane workload).
    let mut registry = registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let entry = match registry.entry(key.clone()) {
        std::collections::btree_map::Entry::Occupied(slot) => {
            if slot.get().0 != config {
                return Err(AcppError::Validation(
                    "series jobs must keep p, k and algorithm fixed".into(),
                ));
            }
            slot.into_mut()
        }
        std::collections::btree_map::Entry::Vacant(slot) => {
            let series_dir = spool_root.join(spool::SERIES_ROOT).join(&key);
            let us = schema.sensitive_domain_size();
            let (publisher, _recovery) =
                acpp_republish::SeriesPublisher::open(config, us, series_dir, policy)?;
            slot.insert((config, publisher))
        }
    };
    let publisher = &mut entry.1;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let release = if spec.delta {
        let updates = acpp_republish::parse_updates_csv(&schema, &input)?;
        publisher.publish_delta(&updates, &taxonomies, &mut rng)?
    } else {
        let table = csv::from_str(&schema, &input)?;
        publisher.publish_next(&table, &taxonomies, &mut rng)?
    };
    // The job's own output is a copy of the release, so the standard
    // fetch/status surface works unchanged for series jobs.
    write_atomic(&dir.join(spool::OUTPUT), publisher.release_bytes(), &policy)?;
    let m = metrics();
    m.counter_add("acppd_series_releases_total", 1);
    m.gauge_set("acppd_series_release_index", release.index as f64);
    Ok(release.digest)
}

/// Executes one job against its spool directory. Fresh runs honour the
/// spec's simulated crash point; resumed runs never do (a crash already
/// happened — the journal's job is to finish, not to re-die).
fn run_job(
    spec: &JobSpec,
    dir: &Path,
    token: &CancelToken,
    telemetry: &Telemetry,
    fence: Option<&EpochFence>,
    series: &Mutex<SeriesMap>,
    spool_root: &Path,
) -> Result<u64, AcppError> {
    if let Some(series_id) = &spec.series {
        return run_series_job(spec, series_id, dir, spool_root, series);
    }
    let policy = RetryPolicy::default();
    let input_path = dir.join(spool::INPUT);
    let rows = retry_io(&policy, "read job input", || fs::read_to_string(&input_path))?;
    let (schema, taxonomies) = spec
        .world()
        .map_err(|reason| AcppError::Validation(reason.to_string()))?;
    let table = csv::from_str(&schema, &rows)?;
    let config = PgConfig::new(spec.p, spec.k)?.with_algorithm(spec.algorithm);

    let journal_dir = dir.join(spool::JOURNAL);
    fs::create_dir_all(&journal_dir).map_err(DataError::from)?;
    let out = dir.join(spool::OUTPUT);
    let plan = spec.fault_plan();
    let mut opts = RunOptions {
        threads: Threads::Fixed(1),
        telemetry: Some(telemetry),
        plan: plan.as_ref(),
        cancel: Some(token),
        crash: None,
        fence,
    };

    match recover::journal_status(&journal_dir) {
        (JournalStatus::Absent, _) => {
            opts.crash = spec.crash_at();
            journal::publish_journaled(
                &table, &taxonomies, config, spec.policy, spec.seed, &journal_dir, &out, &opts,
            )
            .map(|run| run.release_digest)
        }
        (JournalStatus::Interrupted, _) => journal::resume(
            &table, &taxonomies, config, spec.policy, spec.seed, &journal_dir, &out, &opts,
        )
        .map(|run| run.release_digest),
        (JournalStatus::Complete, state) => {
            // Already committed (e.g. the crash hit between the rename and
            // the registry update): verify, don't re-run.
            let (digest, _) = state.and_then(|state| state.staged).ok_or_else(|| {
                AcppError::Journal("complete journal is missing its staged record".into())
            })?;
            let bytes = fs::read(&out).map_err(DataError::from)?;
            if fnv1a(&bytes) != digest {
                return Err(AcppError::Journal(
                    "published release does not match its journal digest".into(),
                ));
            }
            Ok(digest)
        }
    }
}
