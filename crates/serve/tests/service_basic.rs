//! End-to-end daemon behavior over real loopback HTTP: admission, the job
//! lifecycle, backpressure, tenant quotas, deadlines, explicit
//! cancellation, and graceful drain.
//!
//! Every test boots its own daemon on port 0 with its own spool, so the
//! tests are independent and order-free.

mod common;

use acpp_data::fnv1a;
use acpp_serve::{Daemon, DaemonConfig};
use common::{
    fresh_spool, job_status, request, small_job, submit, submit_ok, wait_for_state,
};
use std::time::Duration;

fn config(spool_name: &str) -> DaemonConfig {
    // Chaos is enabled because several tests below hold workers with
    // injected slow-I/O stalls; the opt-in gate itself is tested against
    // `DaemonConfig::default()`.
    DaemonConfig {
        spool: fresh_spool(spool_name),
        allow_chaos: true,
        ..DaemonConfig::default()
    }
}

/// A job body that sources its input from a server-side path.
fn path_job(tenant: &str, seed: u64, path: &str) -> String {
    format!(
        r#"{{"tenant":"{tenant}","input":"{path}","p":0.3,"k":4,"seed":{seed},{}}}"#,
        common::SMALL_SCHEMA
    )
}

/// A job that holds its worker for roughly `ms` milliseconds via the
/// injected slow-I/O stall (25 ms per intensity unit).
fn slow_job(tenant: &str, seed: u64, ms: u64) -> String {
    let intensity = (ms / 25).max(1);
    common::small_job(
        tenant,
        seed,
        &format!(r#""chaos":{{"faults":["slow_io"],"intensity":{intensity}}}"#),
    )
}

const RUN_WAIT: Duration = Duration::from_secs(60);

#[test]
fn admits_runs_and_publishes_a_job() {
    let daemon = Daemon::start(config("basic-lifecycle")).unwrap();
    let addr = daemon.addr();

    let id = submit_ok(addr, &small_job("acme", 7, ""));
    let done = wait_for_state(addr, &id, &["done"], RUN_WAIT);
    assert_eq!(done.json_str("tenant").as_deref(), Some("acme"));
    assert!(done.json_str("error").is_none(), "done jobs carry no error");

    // The advertised digest matches the bytes actually on disk.
    let digest = done.json_str("release_digest").expect("done jobs carry a digest");
    let bytes = std::fs::read(daemon.spool().join(&id).join("dstar.csv")).unwrap();
    assert_eq!(digest, format!("{:016x}", fnv1a(&bytes)));

    // The spool record never contains dataset rows.
    let record = std::fs::read_to_string(daemon.spool().join(&id).join("job")).unwrap();
    assert!(record.starts_with("acppd-job v1"));
    assert!(!record.contains("csv"), "record is parameters-only");

    // A second identical submission gets its own id and the same bytes —
    // determinism survives the service layer.
    let id2 = submit_ok(addr, &small_job("acme", 7, ""));
    assert_ne!(id, id2);
    let done2 = wait_for_state(addr, &id2, &["done"], RUN_WAIT);
    assert_eq!(done.json_str("release_digest"), done2.json_str("release_digest"));
}

#[test]
fn trace_follow_streams_progress_for_every_phase() {
    let daemon = Daemon::start(config("basic-follow")).unwrap();
    let addr = daemon.addr();

    // A mild slow-I/O stall keeps the job alive long enough for the
    // follower to attach mid-run; the bounded buffer retains the full
    // history for this small job either way.
    let id = submit_ok(addr, &slow_job("acme", 11, 100));
    let (status, lines) = common::follow_stream(addr, &format!("/jobs/{id}/trace?follow=1"));
    assert_eq!(status, 200);
    let first = lines.first().expect("stream has a meta line");
    assert!(first.contains("\"type\":\"stream\"") && first.contains("\"mode\":\"live\""));
    let last = lines.last().expect("stream has an end line");
    assert!(
        last.contains("\"type\":\"end\"") && last.contains("\"state\":\"done\""),
        "stream should end at the terminal state, got: {last}"
    );
    // At least one progress event per pipeline phase made it onto the wire.
    for phase in ["ingest", "perturb", "generalize", "sample"] {
        let hits = lines
            .iter()
            .filter(|l| {
                l.contains("\"name\":\"phase.progress\"")
                    && l.contains(&format!("\"phase\":\"{phase}\""))
            })
            .count();
        assert!(hits >= 1, "no streamed progress for phase `{phase}`; lines: {lines:#?}");
    }
    // This small job never outran the bounded buffer.
    assert!(!lines.iter().any(|l| l.contains("\"type\":\"gap\"")), "unexpected gap: {lines:#?}");

    // An unknown job 404s instead of hanging a follower.
    let (status, _) = common::follow_stream(addr, "/jobs/j999999/trace?follow=1");
    assert_eq!(status, 404);

    // A follow attached after the terminal state still gets the full
    // retained history plus the end line, not a hang.
    let (status, replay) = common::follow_stream(addr, &format!("/jobs/{id}/trace?follow=1"));
    assert_eq!(status, 200);
    assert!(replay.iter().any(|l| l.contains("\"name\":\"phase.progress\"")));
    assert!(replay.last().expect("end line").contains("\"type\":\"end\""));
}

#[test]
fn surfaces_health_metrics_and_route_errors() {
    let daemon = Daemon::start(config("basic-routes")).unwrap();
    let addr = daemon.addr();

    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert_eq!(health.json_str("status").as_deref(), Some("ok"));

    let id = submit_ok(addr, &small_job("acme", 1, ""));
    wait_for_state(addr, &id, &["done"], RUN_WAIT);
    let metrics = request(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("acppd_jobs_admitted_total"));
    assert!(metrics.body.contains("acppd_jobs_completed_total"));

    let trace = request(addr, "GET", &format!("/jobs/{id}/trace"), "");
    assert_eq!(trace.status, 200);
    assert!(trace.body.starts_with("{\"type\":\"meta\""), "trace meta line present");

    assert_eq!(job_status(addr, "j999999").status, 404);
    assert_eq!(request(addr, "GET", "/nope", "").status, 404);
    assert_eq!(request(addr, "DELETE", "/jobs", "").status, 405);
    assert_eq!(request(addr, "GET", "/drain", "").status, 405);

    let bad = submit(addr, "{not json");
    assert_eq!(bad.status, 400);
    assert_eq!(bad.body, r#"{"error":"bad_request"}"#);
}

#[test]
fn saturated_queue_answers_429_with_retry_after() {
    let cfg = DaemonConfig {
        workers: 1,
        queue_cap: 2,
        tenant_quota: 16,
        ..config("basic-backpressure")
    };
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.addr();

    // Occupy the single worker, then fill the queue to its cap.
    let busy = submit_ok(addr, &slow_job("acme", 1, 2000));
    wait_for_state(addr, &busy, &["running"], RUN_WAIT);
    submit_ok(addr, &small_job("acme", 2, ""));
    submit_ok(addr, &small_job("acme", 3, ""));

    let rejected = submit(addr, &small_job("acme", 4, ""));
    assert_eq!(rejected.status, 429);
    assert_eq!(rejected.json_str("error").as_deref(), Some("queue_full"));
    // Retry-After reflects the actual backlog: two queued jobs over one
    // worker is a 3 s base wait, plus at most 1 s of deterministic jitter.
    let wait: u64 = rejected.header("Retry-After").expect("advisory header").parse().unwrap();
    assert!((3..=4).contains(&wait), "queue-depth-derived Retry-After, got {wait}");
}

#[test]
fn tenant_quota_rejects_the_noisy_tenant_only() {
    let cfg = DaemonConfig {
        workers: 1,
        queue_cap: 16,
        tenant_quota: 2,
        ..config("basic-quota")
    };
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.addr();

    let busy = submit_ok(addr, &slow_job("noisy", 1, 2000));
    wait_for_state(addr, &busy, &["running"], RUN_WAIT);
    submit_ok(addr, &small_job("noisy", 2, ""));

    // Third in-flight job for the same tenant: over quota.
    let rejected = submit(addr, &small_job("noisy", 3, ""));
    assert_eq!(rejected.status, 429);
    assert_eq!(rejected.json_str("error").as_deref(), Some("tenant_quota"));
    // One job queued over one worker: 2 s base, at most 1 s jitter.
    let wait: u64 = rejected.header("Retry-After").expect("advisory header").parse().unwrap();
    assert!((2..=3).contains(&wait), "queue-depth-derived Retry-After, got {wait}");

    // A quiet tenant is unaffected by the noisy one's quota.
    submit_ok(addr, &small_job("quiet", 4, ""));
}

/// Reads exactly one response off the stream (Content-Length framed)
/// and returns its status and Connection header value.
fn one_response(stream: &mut std::net::TcpStream) -> (u16, String) {
    use std::io::Read;

    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("read response head");
        raw.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 =
        head.split_whitespace().nth(1).expect("status code").parse().unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("framed response")
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read response body");
    let connection = head
        .lines()
        .find_map(|l| l.strip_prefix("Connection: "))
        .expect("connection header")
        .trim()
        .to_string();
    (status, connection)
}

#[test]
fn keep_alive_serves_a_bounded_number_of_requests_per_connection() {
    use std::io::{Read, Write};

    let cfg = DaemonConfig { keep_alive_max: 3, ..config("basic-keepalive") };
    let daemon = Daemon::start(cfg).unwrap();

    // One connection carries three requests; the daemon announces the
    // close on the last one (budget spent) and then hangs up.
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    let get = b"GET /healthz HTTP/1.1\r\nHost: acppd\r\nConnection: keep-alive\r\n\r\n";
    for served in 1..=3 {
        stream.write_all(get).unwrap();
        let (status, connection) = one_response(&mut stream);
        assert_eq!(status, 200);
        let want = if served < 3 { "keep-alive" } else { "close" };
        assert_eq!(connection, want, "request {served} of 3");
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("peer closed cleanly");
    assert!(rest.is_empty(), "nothing after the final response");

    // A client that does not ask for keep-alive still gets one-and-close.
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: acppd\r\n\r\n")
        .unwrap();
    let (_, connection) = one_response(&mut stream);
    assert_eq!(connection, "close", "keep-alive is opt-in per request");
}

#[test]
fn keep_alive_responses_do_not_wait_on_delayed_acks() {
    use std::io::Write;

    // A response whose body trails its head in a second small write is
    // held back by Nagle's algorithm until the client's delayed ACK, about
    // 40 ms per response: 20 requests took over 800 ms that way, and a
    // few milliseconds when each response is one write.
    let cfg = DaemonConfig { keep_alive_max: 20, ..config("basic-keepalive-latency") };
    let daemon = Daemon::start(cfg).unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    let get = b"GET /healthz HTTP/1.1\r\nHost: acppd\r\nConnection: keep-alive\r\n\r\n";
    let started = std::time::Instant::now();
    for _ in 0..20 {
        stream.write_all(get).unwrap();
        assert_eq!(one_response(&mut stream).0, 200);
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_millis(400), "20 keep-alive requests took {elapsed:?}");
}

#[test]
fn deadline_cancels_at_the_next_checkpoint() {
    let daemon = Daemon::start(config("basic-deadline")).unwrap();
    let addr = daemon.addr();

    // 50 ms budget against a 500 ms injected stall: the deadline fires at
    // the first checkpoint after the stall.
    let body = common::small_job(
        "acme",
        5,
        r#""deadline_ms":50,"chaos":{"faults":["slow_io"],"intensity":20}"#,
    );
    let id = submit_ok(addr, &body);
    let cancelled = wait_for_state(addr, &id, &["cancelled"], RUN_WAIT);
    assert_eq!(cancelled.json_str("error").as_deref(), Some("deadline_exceeded"));
    assert!(cancelled.json_str("release_digest").is_none(), "nothing published");

    // The terminal outcome is durable: a marker stops recovery from ever
    // re-running the job.
    assert!(daemon.spool().join(&id).join("cancelled").exists());
    assert!(!daemon.spool().join(&id).join("dstar.csv").exists());
}

#[test]
fn explicit_cancel_is_honoured_mid_run() {
    let daemon = Daemon::start(config("basic-cancel")).unwrap();
    let addr = daemon.addr();

    let id = submit_ok(addr, &slow_job("acme", 6, 1000));
    wait_for_state(addr, &id, &["running"], RUN_WAIT);
    let ack = request(addr, "POST", &format!("/jobs/{id}/cancel"), "");
    assert_eq!(ack.status, 200);
    assert!(ack.body.contains("\"cancel_requested\":true"));

    let cancelled = wait_for_state(addr, &id, &["cancelled"], RUN_WAIT);
    assert_eq!(cancelled.json_str("error").as_deref(), Some("cancelled"));
    assert_eq!(request(addr, "POST", "/jobs/j999999/cancel", "").status, 404);
}

#[test]
fn drain_finishes_inflight_work_and_admits_nothing_new() {
    let cfg = DaemonConfig { workers: 1, ..config("basic-drain") };
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.addr();

    let inflight = submit_ok(addr, &slow_job("acme", 8, 500));
    wait_for_state(addr, &inflight, &["running"], RUN_WAIT);

    let ack = request(addr, "POST", "/drain", "");
    assert_eq!(ack.status, 200);
    assert_eq!(ack.body, r#"{"draining":true}"#);
    assert!(daemon.is_draining());

    let refused = submit(addr, &small_job("acme", 9, ""));
    assert_eq!(refused.status, 503);
    assert_eq!(refused.json_str("error").as_deref(), Some("draining"));
    // Draining carries its own, longer Retry-After floor (5 s base): the
    // drain outlasts any queue estimate.
    let wait: u64 = refused.header("Retry-After").expect("advisory header").parse().unwrap();
    assert!((5..=6).contains(&wait), "drain-floor Retry-After, got {wait}");

    let health = request(addr, "GET", "/healthz", "");
    assert!(health.body.contains("\"draining\":true"));

    // drain() blocks until the in-flight job reached a terminal state.
    let spool = daemon.spool().to_path_buf();
    daemon.drain();
    let out = spool.join(&inflight).join("dstar.csv");
    assert!(out.exists(), "the in-flight job finished before shutdown");
}

#[test]
fn chaos_specs_need_explicit_opt_in() {
    // A default-configured daemon refuses chaos-bearing specs outright:
    // fault injection and simulated crashes are not a tenant right on a
    // shared surface.
    let cfg = DaemonConfig { spool: fresh_spool("basic-chaos-gate"), ..DaemonConfig::default() };
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.addr();

    let refused = submit(addr, &slow_job("acme", 1, 100));
    assert_eq!(refused.status, 403);
    assert_eq!(refused.json_str("error").as_deref(), Some("chaos_disabled"));
    let crasher = submit(addr, &small_job("acme", 2, r#""chaos":{"crash_at":"mid-write"}"#));
    assert_eq!(crasher.json_str("error").as_deref(), Some("chaos_disabled"));

    // Chaos-free work is unaffected.
    let id = submit_ok(addr, &small_job("acme", 3, ""));
    wait_for_state(addr, &id, &["done"], RUN_WAIT);
}

#[test]
fn path_inputs_are_disabled_by_default() {
    // No input root configured: the daemon reads no server-side path at
    // all, existing or not.
    let daemon = Daemon::start(config("basic-path-default")).unwrap();
    let refused = submit(daemon.addr(), &path_job("acme", 1, "/etc/hostname"));
    assert_eq!(refused.status, 403);
    assert_eq!(refused.json_str("error").as_deref(), Some("input_forbidden"));
}

#[test]
fn path_inputs_are_confined_to_the_input_root() {
    let root = fresh_spool("basic-path-root");
    std::fs::write(root.join("ok.csv"), common::small_csv(48)).unwrap();
    let outside = fresh_spool("basic-path-outside");
    std::fs::write(outside.join("leak.csv"), common::small_csv(48)).unwrap();

    let cfg = DaemonConfig { input_root: Some(root.clone()), ..config("basic-path-confined") };
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.addr();

    // A relative path resolves against the root and runs to completion,
    // materializing the file's bytes into the spool.
    let id = submit_ok(addr, &path_job("acme", 2, "ok.csv"));
    wait_for_state(addr, &id, &["done"], RUN_WAIT);
    assert_eq!(
        std::fs::read_to_string(daemon.spool().join(&id).join("input.csv")).unwrap(),
        common::small_csv(48)
    );

    // Escapes — traversal and absolute paths outside the root — are
    // refused without touching the file.
    let abs_outside = outside.join("leak.csv");
    for path in ["../basic-path-outside/leak.csv", abs_outside.to_str().unwrap()] {
        let refused = submit(addr, &path_job("acme", 3, path));
        assert_eq!(refused.status, 403, "{path}");
        assert_eq!(refused.json_str("error").as_deref(), Some("input_forbidden"), "{path}");
    }

    // A missing file inside the root is a plain bad request.
    assert_eq!(submit(addr, &path_job("acme", 4, "nope.csv")).status, 400);
}

#[test]
fn path_inputs_respect_the_body_size_cap() {
    // The path route is capped at the same limit as request bodies: a
    // file a 413 would have refused on the wire is refused here too.
    let root = fresh_spool("basic-path-cap");
    std::fs::write(root.join("big.csv"), common::small_csv(48)).unwrap();
    let cfg = DaemonConfig {
        input_root: Some(root),
        max_body_bytes: 256,
        ..config("basic-path-capped")
    };
    let daemon = Daemon::start(cfg).unwrap();
    let resp = submit(daemon.addr(), &path_job("acme", 5, "big.csv"));
    assert_eq!(resp.status, 413);
    assert_eq!(resp.json_str("error").as_deref(), Some("payload_too_large"));
}

#[test]
fn oversized_bodies_are_rejected_before_parsing() {
    let cfg = DaemonConfig { max_body_bytes: 256, ..config("basic-toolarge") };
    let daemon = Daemon::start(cfg).unwrap();
    let resp = submit(daemon.addr(), &small_job("acme", 1, ""));
    assert_eq!(resp.status, 413);
    assert_eq!(resp.json_str("error").as_deref(), Some("payload_too_large"));
}
