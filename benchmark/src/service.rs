//! `service`: acppd over loopback HTTP, many tenants, small jobs.
//!
//! Set-up boots a daemon on a fresh spool and fills it with [`SPOOLED`]
//! finished jobs, then restarts the daemon on that spool [`RESTARTS`]
//! times; each restart's `Daemon::start` (boot recovery of the spooled jobs
//! included) is one `setup_s` sample. The last daemon serves one second of
//! open-loop warm-up, then the window.
//!
//! The spool is left in place, in `<target>/benchmark/spools/`, about 40 KB
//! in six files and directories per job. Deleting the thousands of files of
//! a full run on a disk mounted with online discard made small-file
//! operations five times slower for the next two minutes: over back-to-back
//! runs the p50 climbed from 3.3 to 9 ms, where with the spools kept six
//! runs read 3.5-3.9 ms.
//!
//! * Phase A, open loop: one generator thread submits jobs on a fixed
//!   schedule at [`RATE`] jobs/s for 80 % of the window. A job's latency
//!   runs from its due time (not its send time, so a stalled submit delays
//!   every later job's clock) to the moment one watcher thread, polling the
//!   daemon's registry every 0.5 ms, sees it `done`. These latencies are the
//!   workload's `latency_*` metrics.
//! * Phase B, burst: two client threads submit [`BURST_PER_S`] jobs per
//!   window second back to back; the burst ends when the daemon's
//!   `done` counter has counted every one. Jobs per second of that span is
//!   `throughput_per_s`.
//!
//! Jobs are 240-row SAL tables drawn from a small seeded pool, spread over
//! four tenants, each with its own seed. Every 50th job's release digest is
//! checked against the deterministic engine's render of the same spec.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::run::{Outcome, Settings};
use crate::sut::{self, Counters, JobOutcome, Service};
use crate::trace::Spans;

/// Phase A's arrival rate, jobs per second. On a 2-vCPU host the daemon
/// drains 200-500 jobs/s depending on the host's state; at twice this rate
/// the queue, and with it the tail, swelled in the host's slow spells.
const RATE: f64 = 50.0;
/// Phase B's burst size per second of window.
const BURST_PER_S: f64 = 15.0;
/// Share of the window Phase A runs.
const OPEN_LOOP_SHARE: f64 = 0.8;
const WARMUP_S: f64 = 1.0;
/// Finished jobs in the spool each set-up restart recovers: enough that
/// `Daemon::start` times the recovery scan, not thread start-up.
const SPOOLED: usize = 200;
const RESTARTS: usize = 9;
const TENANTS: usize = 4;
const JOB_ROWS: usize = 240;
const INPUTS: usize = 16;
const CHECK_EVERY: usize = 50;
const POLL: Duration = Duration::from_micros(500);
/// A submit later than this behind its due time marks the generator, not
/// the daemon, as the bottleneck (`bench.gen_late_jobs`).
const LATE_MS: f64 = 1.0;
/// A job not done by then counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// `--quick` job counts: spooled, warm-up, Phase A, Phase B.
const QUICK_JOBS: (usize, usize, usize, usize) = (20, 10, 40, 100);

/// The seeded job stream: job `i`'s tenant, input table and seed.
struct Jobs {
    seed: u64,
    inputs: Vec<String>,
}

impl Jobs {
    fn new(seed: u64) -> Result<Jobs, String> {
        let inputs = (0..INPUTS as u64)
            .map(|i| {
                sut::table_csv(&sut::sal_table(
                    JOB_ROWS,
                    seed ^ (i + 1).wrapping_mul(0x9E37),
                ))
            })
            .collect::<Result<_, _>>()?;
        Ok(Jobs { seed, inputs })
    }

    /// Below 2^32, so the seed survives JSON's double-precision numbers.
    fn job_seed(&self, i: usize) -> u64 {
        (self.seed.wrapping_mul(0x1000_0000_01B3) ^ i as u64) & 0xFFFF_FFFF
    }

    fn body(&self, i: usize) -> String {
        let tenant = format!("tenant-{}", i % TENANTS);
        sut::job_body(&tenant, &self.inputs[i % INPUTS], self.job_seed(i))
    }

    /// The digest acppd must report for job `i`.
    fn expected_digest(&self, world: &sut::World, i: usize) -> Result<u64, String> {
        let table = sut::parse_table(world, &self.inputs[i % INPUTS])?;
        let published = sut::publish_deterministic(&table, world, self.job_seed(i))?;
        Ok(sut::fnv1a(sut::render(&published, world).as_bytes()))
    }
}

/// A client of acppd's default connection policy: one request per
/// connection.
struct Client {
    addr: SocketAddr,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr }
    }

    /// One blocking HTTP/1.1 request.
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        self.exchange(method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: acppd\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let text = String::from_utf8_lossy(&raw);
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let (head, body) = text
            .split_once("\r\n\r\n")
            .ok_or_else(|| bad("no response head"))?;
        let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok());
        Ok((
            status.ok_or_else(|| bad("bad status line"))?,
            body.to_string(),
        ))
    }

    /// Submits job `i`; returns its id.
    fn submit(&mut self, jobs: &Jobs, i: usize) -> Result<String, String> {
        let (status, body) = self.request("POST", "/jobs", &jobs.body(i))?;
        if status != 202 {
            return Err(format!("job {i} refused: {status} {body}"));
        }
        json_field(&body, "id").ok_or_else(|| format!("job {i}: no id in {body}"))
    }
}

fn json_field(body: &str, key: &str) -> Option<String> {
    let doc = sut::parse_json(body)?;
    doc.as_object()?.get(key)?.as_str().map(str::to_string)
}

/// An admitted open-loop job.
struct Sent {
    index: usize,
    id: String,
    due: Instant,
    sent: Instant,
    acked: Instant,
}

/// An open-loop job the watcher saw finish.
struct Finished {
    job: Sent,
    done: Instant,
}

/// Open loop: submits jobs `first..first + count` at [`RATE`] from the
/// calling thread while one watcher thread polls the registry.
fn open_loop(
    service: &Service,
    jobs: &Jobs,
    first: usize,
    count: usize,
    out: &mut Outcome,
) -> (Vec<Finished>, Vec<f64>) {
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut client = Client::new(service.addr());
    let mut lateness_ms = Vec::with_capacity(count);
    let (finished, failures) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| watch(service, rx));
        on_schedule(count, RATE, |k, due| {
            let sent = Instant::now();
            lateness_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
            out.attempted += 1;
            match client.submit(jobs, first + k) {
                Ok(id) => {
                    let job = Sent {
                        index: first + k,
                        id,
                        due,
                        sent,
                        acked: Instant::now(),
                    };
                    // The watcher outlives the sender; a send cannot fail.
                    let _ = tx.send(job);
                }
                Err(e) => out.fail(e),
            }
        });
        drop(tx);
        watcher.join().expect("watcher thread panicked")
    });
    for e in failures {
        out.fail(e);
    }
    (finished, lateness_ms)
}

/// Calls `send(k, due)` for `k` in `0..count`, each at (or, behind a slow
/// send, after) its due time on a fixed schedule of `rate` per second. The
/// schedule never shifts: a late send makes later sends late, and their
/// latencies count from `due`.
fn on_schedule(count: usize, rate: f64, mut send: impl FnMut(usize, Instant)) {
    let start = Instant::now() + Duration::from_millis(5);
    for k in 0..count {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        send(k, due);
    }
}

/// Polls every admitted job's state until each is done or failed.
fn watch(service: &Service, rx: mpsc::Receiver<Sent>) -> (Vec<Finished>, Vec<String>) {
    let mut pending: Vec<Sent> = Vec::new();
    let mut finished = Vec::new();
    let mut failures = Vec::new();
    let mut open = true;
    while open || !pending.is_empty() {
        loop {
            match rx.try_recv() {
                Ok(job) => pending.push(job),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let now = Instant::now();
        let mut i = 0;
        while i < pending.len() {
            match service.outcome(&pending[i].id) {
                JobOutcome::Done => finished.push(Finished {
                    job: pending.swap_remove(i),
                    done: now,
                }),
                JobOutcome::Failed => {
                    failures.push(format!("job {} failed", pending.swap_remove(i).index));
                }
                JobOutcome::Pending if now.duration_since(pending[i].sent) > JOB_TIMEOUT => {
                    failures.push(format!("job {} timed out", pending.swap_remove(i).index));
                }
                JobOutcome::Pending => i += 1,
            }
        }
        std::thread::sleep(POLL);
    }
    (finished, failures)
}

/// Burst: two client threads submit jobs `first..first + count` back to
/// back; returns the admitted ids and the burst's jobs per second, measured
/// until the daemon's done counter has counted every admitted job.
fn burst(
    service: &Service,
    jobs: &Jobs,
    first: usize,
    count: usize,
    out: &mut Outcome,
) -> (Vec<(usize, String)>, f64) {
    let done_before = Counters::now().jobs_done;
    let started = Instant::now();
    type Half = (Vec<(usize, String)>, Vec<String>);
    let halves: Vec<Half> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::new(service.addr());
                    let mut ids = Vec::new();
                    let mut errors = Vec::new();
                    for i in (first + c..first + count).step_by(2) {
                        match client.submit(jobs, i) {
                            Ok(id) => ids.push((i, id)),
                            Err(e) => errors.push(e),
                        }
                    }
                    (ids, errors)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    out.attempted += count as u64;
    let mut admitted = Vec::new();
    for (ids, errors) in halves {
        admitted.extend(ids);
        for e in errors {
            out.fail(e);
        }
    }
    let target = admitted.len() as u64;
    let mut progress = (0, Instant::now());
    let (done, ended) = loop {
        let done = Counters::now().jobs_done - done_before;
        if done >= target {
            break (target, Instant::now());
        }
        if done != progress.0 {
            progress = (done, Instant::now());
        } else if progress.1.elapsed() > JOB_TIMEOUT {
            for _ in done..target {
                out.fail("burst job did not finish");
            }
            break (done, Instant::now());
        }
        std::thread::sleep(POLL);
    };
    let seconds = ended.duration_since(started).as_secs_f64().max(1e-9);
    (admitted, done as f64 / seconds)
}

/// One job's server-side spans from `GET /jobs/<id>/trace`, microseconds
/// since the job's admission: `(name, start_us, end_us)`.
fn job_trace(client: &mut Client, id: &str) -> Result<Vec<(String, u64, u64)>, String> {
    let (status, body) = client.request("GET", &format!("/jobs/{id}/trace"), "")?;
    if status != 200 {
        return Err(format!("trace of {id}: {status}"));
    }
    let mut spans = Vec::new();
    for line in body.lines() {
        let Some(doc) = sut::parse_json(line) else {
            continue;
        };
        let Some(obj) = doc.as_object() else { continue };
        if obj.get("type").and_then(|t| t.as_str()) != Some("span") {
            continue;
        }
        let num = |k: &str| obj.get(k).and_then(|v| v.as_number()).map(|v| v as u64);
        if let (Some(name), Some(start), Some(end)) = (
            obj.get("name").and_then(|n| n.as_str()),
            num("start_us"),
            num("end_us"),
        ) {
            spans.push((name.to_string(), start, end));
        }
    }
    Ok(spans)
}

/// Runs the workload.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    let (spooled, warmup, open_jobs, burst_jobs) = if s.quick {
        QUICK_JOBS
    } else {
        (
            SPOOLED,
            (WARMUP_S * RATE) as usize,
            (s.seconds * OPEN_LOOP_SHARE * RATE) as usize,
            (s.seconds * BURST_PER_S) as usize,
        )
    };
    let world = sut::sal_world();
    let jobs = Jobs::new(s.seed)?;
    let spool = if s.quick {
        s.work.join("spool")
    } else {
        crate::out_dir()
            .join("spools")
            .join(format!("service-{}", std::process::id()))
    };
    let admit_cap = burst_jobs.max(spooled);
    let mut out = Outcome::default();

    // The spool the restarts recover: `spooled` finished jobs.
    let service = Service::start(&spool, sut::THREADS, admit_cap)?;
    let (recovered, _) = burst(&service, &jobs, 0, spooled, &mut out);
    service.drain();
    let mut service: Option<Service> = None;
    for _ in 0..RESTARTS {
        if let Some(previous) = service.take() {
            previous.drain();
        }
        let started = Instant::now();
        service = Some(Service::start(&spool, sut::THREADS, admit_cap)?);
        out.setup_s.push(started.elapsed().as_secs_f64());
    }
    let service = service.ok_or("no set-up ran")?;
    let (warm, _) = open_loop(&service, &jobs, spooled, warmup, &mut out);

    out.calibrate(true);
    let spans = Spans::new();
    let before = Counters::now();
    let first = spooled + warmup;
    let (finished, lateness_ms) = open_loop(&service, &jobs, first, open_jobs, &mut out);
    let work = Counters::now().since(before);
    let (admitted, jobs_per_s) = burst(&service, &jobs, first + open_jobs, burst_jobs, &mut out);
    out.calibrate(false);
    out.throughput_per_s = jobs_per_s;
    out.latencies_ms = finished
        .iter()
        .map(|f| f.done.duration_since(f.job.due).as_secs_f64() * 1e3)
        .collect();

    let ids = warm
        .iter()
        .chain(&finished)
        .map(|f| (f.job.index, f.job.id.as_str()))
        .chain(
            recovered
                .iter()
                .chain(&admitted)
                .map(|(i, id)| (*i, id.as_str())),
        );
    let mut client = Client::new(service.addr());
    for (i, id) in ids.filter(|(i, _)| i % CHECK_EVERY == 0) {
        if let Err(e) = check_digest(&mut client, &jobs, &world, i, id) {
            out.fail(e);
        }
    }

    if s.trace {
        trace_layers(&mut client, spans, &finished, &lateness_ms, work, &mut out);
    }
    service.drain();
    Ok(out)
}

/// The job's reported release digest is the deterministic engine's.
fn check_digest(
    client: &mut Client,
    jobs: &Jobs,
    world: &sut::World,
    i: usize,
    id: &str,
) -> Result<(), String> {
    let (status, body) = client.request("GET", &format!("/jobs/{id}"), "")?;
    let reported = json_field(&body, "release_digest")
        .filter(|_| status == 200)
        .ok_or_else(|| format!("job {i}: no release digest in {status} {body}"))?;
    let expected = format!("{:016x}", jobs.expected_digest(world, i)?);
    if reported != expected {
        return Err(format!(
            "job {i}: digest {reported}, engine renders {expected}"
        ));
    }
    Ok(())
}

/// The traced run's layers. acppd records every job's spans whether or not
/// anyone asks, and the benchmark fetches them only after the window, so
/// the traced window makes exactly the calls of the untraced one: there is
/// no tracing cost to price, and `obs.trace_overhead_frac` is 0. Each
/// open-loop job's server-side spans are placed on the benchmark's clock
/// from the moment the job was sent.
fn trace_layers(
    client: &mut Client,
    mut spans: Spans,
    finished: &[Finished],
    lateness_ms: &[f64],
    work: Counters,
    out: &mut Outcome,
) {
    for f in finished {
        let server = match job_trace(client, &f.job.id) {
            Ok(server) => server,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        let op = f.job.index as u64;
        let root = spans.push_at("op", f.job.due, f.done, None, op);
        spans.push_at("bench.gen_wait", f.job.due, f.job.sent, Some(root), op);
        spans.push_at("serve.admit", f.job.sent, f.job.acked, Some(root), op);
        // Server times count from admission, which happens while the
        // request is in flight; nothing server-side is placed before the
        // 202 arrived, so layers never overlap.
        let base = spans.us(f.job.sent);
        let floor = spans.us(f.job.acked);
        let at = |us: u64| (base + us).max(floor);
        let find = |name: &str| {
            server
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|&(_, a, b)| (a, b))
        };
        let (Some((run, ran)), Some((commit, committed))) =
            (find("pipeline.publish"), find("journal.commit"))
        else {
            out.fail(format!(
                "job {}: trace lacks pipeline.publish or journal.commit",
                f.job.index
            ));
            continue;
        };
        spans.push("serve.queue", floor, at(run), Some(root), op);
        let pipeline = spans.push("core.pipeline", at(run), at(ran), Some(root), op);
        for (name, a, b) in &server {
            if let Some(layer) = sut::phase_layer(name) {
                spans.push(layer, at(*a), at(*b), Some(pipeline), op);
            }
        }
        // Between the pipeline and the commit the job renders the release
        // and digests it.
        spans.push("core.render", at(ran), at(commit), Some(root), op);
        let journal = spans.push(
            "core.journal_commit",
            at(commit),
            at(committed),
            Some(root),
            op,
        );
        if let Some((a, b)) = find("journal.stage") {
            spans.push("core.journal_stage", at(a), at(b), Some(journal), op);
        }
        // After the commit the daemon only marks the job done in its
        // registry; the rest is the watcher's poll interval.
        spans.push(
            "bench.done_wait",
            at(committed),
            spans.us(f.done),
            Some(root),
            op,
        );
    }
    let jobs = finished.len().max(1) as f64;
    out.layers = vec![
        ("core.journal_appends", work.journal_appends as f64 / jobs),
        ("data.io_ops", work.io_ops as f64 / jobs),
        ("serve.http_requests", work.http_requests as f64 / jobs),
        (
            "bench.gen_late_jobs",
            lateness_ms.iter().filter(|&&ms| ms > LATE_MS).count() as f64,
        ),
        ("serve.burst_jobs_per_s", out.throughput_per_s),
        ("obs.trace_overhead_frac", 0.0),
    ];
    out.spans = Some(spans);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_submit_delays_later_jobs_from_their_due_time() {
        // Job 0's submit stalls 60 ms; every job completes the instant it
        // is submitted. At 1000 jobs/s, jobs 1..5 were due 1..5 ms after
        // job 0, so each waits out the stall and its latency from due time
        // is at least 60 ms minus its offset.
        let mut latencies = Vec::new();
        on_schedule(6, 1000.0, |k, due| {
            if k == 0 {
                std::thread::sleep(Duration::from_millis(60));
            }
            latencies.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        });
        assert!(latencies[0] >= 60.0, "{latencies:?}");
        for (k, ms) in latencies.iter().enumerate().skip(1) {
            assert!(*ms >= 60.0 - k as f64 - 0.5, "job {k}: {ms} ms");
        }
    }
}
