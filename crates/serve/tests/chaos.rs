//! Chaos harness: seed-deterministic kill/restart cycles against the
//! daemon. The invariants under test are the ISSUE's acceptance bar:
//!
//! * a job interrupted at **any** simulated kill point resumes on the next
//!   boot and publishes bytes **identical** to an uninterrupted run;
//! * across a kill, **no admitted job is lost**, none runs twice, and
//!   nothing phantom (half-admitted spool debris) is ever resurrected;
//! * injected data faults are part of the run's bytes and survive the
//!   crash/resume cycle unchanged.
//!
//! Baselines come straight from the journaled engine — the daemon must
//! reproduce them through admission, spooling, a crash, and recovery.

mod common;

use acpp_core::journal;
use acpp_core::{PgConfig, RunOptions, Threads};
use acpp_data::csv;
use acpp_serve::job::{JobInput, JobSpec};
use acpp_serve::{Daemon, DaemonConfig};
use common::{fresh_spool, job_status, small_job, submit_ok, wait_for_state};
use std::time::Duration;

const RUN_WAIT: Duration = Duration::from_secs(120);

/// Runs `body`'s job directly on the journaled engine (no daemon, no
/// simulated crash) and returns the release digest and bytes. This is the
/// ground truth every crash/resume cycle must land on.
fn baseline_for(body: &str, scratch: &str) -> (u64, Vec<u8>) {
    let (spec, input) = JobSpec::from_json(body).expect("baseline body parses");
    let JobInput::Inline(rows) = input else { panic!("baseline jobs are inline") };
    let (schema, taxonomies) = spec.world().expect("baseline world builds");
    let table = csv::from_str(&schema, &rows).expect("baseline csv parses");
    let config = PgConfig::new(spec.p, spec.k).unwrap().with_algorithm(spec.algorithm);

    let dir = fresh_spool(scratch);
    let journal_dir = dir.join("journal");
    std::fs::create_dir_all(&journal_dir).unwrap();
    let out = dir.join("dstar.csv");
    let plan = spec.fault_plan();
    let opts = RunOptions {
        threads: Threads::Fixed(1),
        plan: plan.as_ref(),
        ..RunOptions::default()
    };
    let run = journal::publish_journaled(
        &table, &taxonomies, config, spec.policy, spec.seed, &journal_dir, &out, &opts,
    )
    .expect("baseline run completes");
    (run.release_digest, std::fs::read(&out).unwrap())
}

fn daemon_config(spool: &std::path::Path) -> DaemonConfig {
    // Chaos is opt-in: this harness exists to inject faults and crashes.
    DaemonConfig {
        workers: 1,
        spool: spool.to_path_buf(),
        allow_chaos: true,
        ..DaemonConfig::default()
    }
}

#[test]
fn every_killpoint_resumes_byte_identically() {
    // One kill point per journal stage: before any work, between phases,
    // inside the release write, and between staging and publication.
    let points =
        ["after-begin", "after-perturb", "after-generalize", "mid-write", "after-stage"];
    let (want_digest, want_bytes) =
        baseline_for(&small_job("acme", 42, ""), "chaos-baseline-matrix");

    for point in points {
        let body = small_job("acme", 42, &format!(r#""chaos":{{"crash_at":"{point}"}}"#));
        let spool = fresh_spool(&format!("chaos-kill-{point}"));

        let first = Daemon::start(daemon_config(&spool)).unwrap();
        let id = submit_ok(first.addr(), &body);
        let stuck = wait_for_state(first.addr(), &id, &["interrupted"], RUN_WAIT);
        assert!(stuck.json_str("release_digest").is_none(), "{point}: nothing published yet");
        first.kill();

        // Reboot over the same spool: recovery re-queues and the journal
        // finishes the job — byte-identical to the crash-free baseline.
        let second = Daemon::start(daemon_config(&spool)).unwrap();
        let done = wait_for_state(second.addr(), &id, &["done"], RUN_WAIT);
        assert_eq!(
            done.json_str("release_digest").as_deref(),
            Some(format!("{want_digest:016x}").as_str()),
            "{point}: digest after resume"
        );
        let bytes = std::fs::read(spool.join(&id).join("dstar.csv")).unwrap();
        assert_eq!(bytes, want_bytes, "{point}: release bytes after resume");
    }
}

#[test]
fn a_crash_after_the_rename_still_resumes_to_the_same_bytes() {
    // `after-rename` dies after the release landed but before the journal's
    // done record — the narrowest recovery window. The resume must finish
    // the bookkeeping without changing a byte of the published file.
    let body = small_job("acme", 43, r#""chaos":{"crash_at":"after-rename"}"#);
    let (want_digest, want_bytes) =
        baseline_for(&small_job("acme", 43, ""), "chaos-baseline-rename");
    let spool = fresh_spool("chaos-kill-after-rename");

    let first = Daemon::start(daemon_config(&spool)).unwrap();
    let id = submit_ok(first.addr(), &body);
    wait_for_state(first.addr(), &id, &["interrupted"], RUN_WAIT);
    first.kill();
    // The release is already on disk, byte-identical to the baseline.
    assert_eq!(std::fs::read(spool.join(&id).join("dstar.csv")).unwrap(), want_bytes);

    let second = Daemon::start(daemon_config(&spool)).unwrap();
    let done = wait_for_state(second.addr(), &id, &["done"], RUN_WAIT);
    assert_eq!(
        done.json_str("release_digest").as_deref(),
        Some(format!("{want_digest:016x}").as_str())
    );
    assert_eq!(std::fs::read(spool.join(&id).join("dstar.csv")).unwrap(), want_bytes);
}

#[test]
fn completed_jobs_are_verified_on_boot_not_rerun() {
    let spool = fresh_spool("chaos-verified-done");
    let first = Daemon::start(daemon_config(&spool)).unwrap();
    let id = submit_ok(first.addr(), &small_job("acme", 44, ""));
    let done = wait_for_state(first.addr(), &id, &["done"], RUN_WAIT);
    let digest = done.json_str("release_digest").unwrap();
    first.kill();

    // Boot-time recovery re-checks the published bytes against the journal
    // digest and keeps the job terminal: the very first status read says
    // `done` — the job is never queued again.
    let second = Daemon::start(daemon_config(&spool)).unwrap();
    let status = job_status(second.addr(), &id);
    assert_eq!(status.json_str("state").as_deref(), Some("done"));
    assert_eq!(status.json_str("release_digest").as_deref(), Some(digest.as_str()));
    second.kill();

    // Tampered release bytes are detected, not served: the job surfaces as
    // failed with the static journal code.
    let out = spool.join(&id).join("dstar.csv");
    let mut bytes = std::fs::read(&out).unwrap();
    bytes[0] ^= 0x01;
    std::fs::write(&out, &bytes).unwrap();
    let third = Daemon::start(daemon_config(&spool)).unwrap();
    let status = job_status(third.addr(), &id);
    assert_eq!(status.json_str("state").as_deref(), Some("failed"));
    assert_eq!(status.json_str("error").as_deref(), Some("journal"));
}

#[test]
fn injected_faults_survive_the_crash_resume_cycle() {
    // The fault plan participates in the run's bytes, so the resumed run
    // must be handed (and honour) the same plan — the baseline includes it.
    let chaos = r#""policy":"skip","chaos":{"faults":["sensitive_out_of_domain","malformed_row"],"fault_seed":9,"intensity":2,"crash_at":"after-generalize"}"#;
    let body = small_job("acme", 11, chaos);
    let baseline_body = small_job(
        "acme",
        11,
        r#""policy":"skip","chaos":{"faults":["sensitive_out_of_domain","malformed_row"],"fault_seed":9,"intensity":2}"#,
    );
    let (want_digest, want_bytes) = baseline_for(&baseline_body, "chaos-baseline-faulty");

    let spool = fresh_spool("chaos-kill-faulty");
    let first = Daemon::start(daemon_config(&spool)).unwrap();
    let id = submit_ok(first.addr(), &body);
    wait_for_state(first.addr(), &id, &["interrupted"], RUN_WAIT);
    first.kill();

    let second = Daemon::start(daemon_config(&spool)).unwrap();
    let done = wait_for_state(second.addr(), &id, &["done"], RUN_WAIT);
    assert_eq!(
        done.json_str("release_digest").as_deref(),
        Some(format!("{want_digest:016x}").as_str())
    );
    assert_eq!(std::fs::read(spool.join(&id).join("dstar.csv")).unwrap(), want_bytes);
}

#[test]
fn no_job_is_lost_or_duplicated_across_a_kill() {
    let spool = fresh_spool("chaos-fleet");
    let first = Daemon::start(daemon_config(&spool)).unwrap();
    let addr = first.addr();

    // One job dies mid-write; two more ride the queue into the kill.
    let crasher = submit_ok(addr, &small_job("acme", 21, r#""chaos":{"crash_at":"mid-write"}"#));
    let second_job = submit_ok(addr, &small_job("beta", 22, ""));
    let third_job = submit_ok(addr, &small_job("acme", 23, ""));
    wait_for_state(addr, &crasher, &["interrupted"], RUN_WAIT);
    first.kill();

    let reboot = Daemon::start(daemon_config(&spool)).unwrap();
    for (id, seed) in [(&crasher, 21u64), (&second_job, 22), (&third_job, 23)] {
        let (want_digest, want_bytes) =
            baseline_for(&small_job("acme", seed, ""), &format!("chaos-fleet-base-{seed}"));
        let done = wait_for_state(reboot.addr(), id, &["done"], RUN_WAIT);
        assert_eq!(
            done.json_str("release_digest").as_deref(),
            Some(format!("{want_digest:016x}").as_str()),
            "job {id} (seed {seed})"
        );
        assert_eq!(
            std::fs::read(spool.join(id).join("dstar.csv")).unwrap(),
            want_bytes,
            "job {id} published exactly its own release"
        );
    }

    // Exactly the three admitted jobs exist — nothing lost, nothing
    // duplicated, nothing invented.
    let mut dirs: Vec<String> = std::fs::read_dir(&spool)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    dirs.sort();
    let mut want = vec![crasher, second_job, third_job];
    want.sort();
    assert_eq!(dirs, want);
}

#[test]
fn half_admitted_spool_debris_is_never_resurrected() {
    let spool = fresh_spool("chaos-phantom");
    // A crash between `create_dir_all` and the record write leaves a job
    // directory with no record — the admission path only acknowledges
    // after the record is durable, so this debris was never admitted.
    let orphan = spool.join("j000031");
    std::fs::create_dir_all(&orphan).unwrap();
    std::fs::write(orphan.join("input.csv"), common::small_csv(8)).unwrap();
    // A torn record is equally dead: recovery skips what it cannot prove.
    let torn = spool.join("j000032");
    std::fs::create_dir_all(&torn).unwrap();
    std::fs::write(torn.join("job"), "acppd-job v1\ntenant=acme\nk=not-a-number\n").unwrap();

    let daemon = Daemon::start(daemon_config(&spool)).unwrap();
    assert_eq!(job_status(daemon.addr(), "j000031").status, 404, "no phantom jobs");
    assert_eq!(job_status(daemon.addr(), "j000032").status, 404, "no corrupt jobs");

    // The daemon still admits and completes real work.
    let id = submit_ok(daemon.addr(), &small_job("acme", 5, ""));
    wait_for_state(daemon.addr(), &id, &["done"], RUN_WAIT);
}
