//! Fleet chaos harness: N daemons over one shared spool, coordinated only
//! by lease files. The invariants under test are the ISSUE's acceptance
//! bar for fleet mode:
//!
//! * kill one of three nodes at **any** simulated kill point — every
//!   admitted job still finishes **exactly once**, byte-identical to the
//!   single-node baseline, because a surviving node steals the dead
//!   owner's lease and resumes its journal;
//! * a **frozen** owner (alive but not heartbeating — SIGSTOP semantics)
//!   loses its lease the same way, and when it wakes, the fencing epoch
//!   refuses its commits: the thief's bytes are the release, the stalled
//!   owner's run dies with `lease_lost`, and nothing is published twice;
//! * any node answers status for any job off the shared spool, whether or
//!   not it ever owned it.

mod common;

use acpp_core::journal;
use acpp_core::{PgConfig, RunOptions, Threads};
use acpp_data::csv;
use acpp_serve::job::{JobInput, JobSpec};
use acpp_serve::{Daemon, DaemonConfig, FleetConfig, JobState};
use common::{fresh_spool, job_status, small_job, submit_ok, wait_for_state};
use std::path::Path;
use std::time::{Duration, Instant};

const RUN_WAIT: Duration = Duration::from_secs(120);

/// Runs `body`'s job directly on the journaled engine (no daemon, no
/// simulated crash) and returns the release digest and bytes — the ground
/// truth every fleet takeover must land on.
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

/// One fleet node's config: shared spool, its own id, a short lease TTL so
/// steals happen within test patience.
fn node_config(spool: &Path, node_id: &str, ttl_ms: u64) -> DaemonConfig {
    DaemonConfig {
        workers: 1,
        spool: spool.to_path_buf(),
        allow_chaos: true,
        fleet: Some(FleetConfig {
            node_id: node_id.to_string(),
            lease_ttl: Duration::from_millis(ttl_ms),
        }),
        ..DaemonConfig::default()
    }
}

/// Polls a node's *local* registry until the job reaches `state`.
fn wait_local_state(daemon: &Daemon, id: &str, state: JobState, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        if daemon.local_status(id).map(|(s, _)| s) == Some(state) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached {state:?} locally (now {:?})",
            daemon.local_status(id)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The job directories in a spool (dot-dirs — `.nodes` bookkeeping — are
/// not jobs).
fn job_dirs(spool: &Path) -> Vec<String> {
    let mut dirs: Vec<String> = std::fs::read_dir(spool)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| !name.starts_with('.'))
        .collect();
    dirs.sort();
    dirs
}

#[test]
fn killing_a_node_at_every_killpoint_is_survived_by_the_fleet() {
    // The full kill matrix: one of three nodes dies mid-run at each
    // simulated kill point; the survivors steal the lease and finish the
    // job byte-identically. `after-rename` is the narrowest window — the
    // release already landed, only the bookkeeping is missing.
    let points = [
        "after-begin",
        "after-perturb",
        "after-generalize",
        "mid-write",
        "after-stage",
        "after-rename",
    ];
    let (want_digest, want_bytes) =
        baseline_for(&small_job("acme", 42, ""), "fleet-baseline-matrix");

    for point in points {
        let body = small_job("acme", 42, &format!(r#""chaos":{{"crash_at":"{point}"}}"#));
        let spool = fresh_spool(&format!("fleet-kill-{point}"));

        let doomed = Daemon::start(node_config(&spool, "n1", 300)).unwrap();
        let peer_b = Daemon::start(node_config(&spool, "n2", 300)).unwrap();
        let peer_c = Daemon::start(node_config(&spool, "n3", 300)).unwrap();

        // The admitting node claims the lease and crashes at the kill
        // point (state interrupted in its local registry, lease dropped
        // without release — dead-owner semantics); then the process dies.
        let id = submit_ok(doomed.addr(), &body);
        wait_local_state(&doomed, &id, JobState::Interrupted, RUN_WAIT);
        doomed.kill();

        // A survivor steals the expired lease, resumes the journal, and
        // publishes — visible from any surviving node's status route.
        let done = wait_for_state(peer_b.addr(), &id, &["done"], RUN_WAIT);
        assert_eq!(
            done.json_str("release_digest").as_deref(),
            Some(format!("{want_digest:016x}").as_str()),
            "{point}: digest after fleet takeover"
        );
        let bytes = std::fs::read(spool.join(&id).join("dstar.csv")).unwrap();
        assert_eq!(bytes, want_bytes, "{point}: release bytes after fleet takeover");

        // Exactly once: the one admitted job is the only job on the spool,
        // and the other survivor agrees on its terminal state.
        assert_eq!(job_dirs(&spool), vec![id.clone()], "{point}: no duplicates, no loss");
        let agree = wait_for_state(peer_c.addr(), &id, &["done"], RUN_WAIT);
        assert_eq!(
            agree.json_str("release_digest"),
            done.json_str("release_digest"),
            "{point}: both survivors agree"
        );

        peer_b.kill();
        peer_c.kill();
    }
}

#[test]
fn a_frozen_owner_is_fenced_off_and_the_thief_publishes() {
    // The owner stalls 3 s inside the pipeline (injected slow-I/O) with
    // its heartbeats frozen — alive but silent, exactly a SIGSTOP. Its
    // lease expires, a peer steals and re-runs the job; when the owner
    // wakes at its next checkpoint boundary, the fencing epoch refuses its
    // commit, so the thief's run is the only one that publishes.
    let body = small_job(
        "acme",
        77,
        r#""chaos":{"faults":["slow_io"],"intensity":120}"#,
    );
    let (want_digest, want_bytes) = baseline_for(&body, "fleet-baseline-frozen");

    let spool = fresh_spool("fleet-frozen-owner");
    let owner = Daemon::start(node_config(&spool, "frozen", 400)).unwrap();
    let thief = Daemon::start(node_config(&spool, "thief", 400)).unwrap();

    let id = submit_ok(owner.addr(), &body);
    wait_local_state(&owner, &id, JobState::Running, RUN_WAIT);
    owner.set_heartbeats_frozen(true);

    // The thief steals after the TTL and publishes the release.
    let done = wait_for_state(thief.addr(), &id, &["done"], RUN_WAIT);
    assert_eq!(
        done.json_str("release_digest").as_deref(),
        Some(format!("{want_digest:016x}").as_str()),
        "thief resumed to the baseline digest"
    );

    // The woken owner hit the fence: its run ends `interrupted` with the
    // static `lease_lost` code — no marker written, nothing published by
    // it, and the release bytes are exactly one copy of the baseline.
    let deadline = Instant::now() + RUN_WAIT;
    loop {
        match owner.local_status(&id) {
            Some((JobState::Interrupted, Some("lease_lost"))) => break,
            other => {
                assert!(
                    Instant::now() < deadline,
                    "owner never classified the fenced run as lease_lost (now {other:?})"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    assert_eq!(std::fs::read(spool.join(&id).join("dstar.csv")).unwrap(), want_bytes);
    assert!(
        !spool.join(&id).join("failed").exists() && !spool.join(&id).join("cancelled").exists(),
        "a fenced-off owner writes no terminal markers over the thief's job"
    );

    owner.set_heartbeats_frozen(false);
    thief.kill();
    owner.kill();
}

#[test]
fn a_three_node_fleet_completes_every_job_exactly_once() {
    // Jobs land on different nodes; each runs on exactly one node, every
    // node can answer status for all of them, and every release matches
    // its single-node baseline.
    let spool = fresh_spool("fleet-spread");
    let nodes = [
        Daemon::start(node_config(&spool, "a", 500)).unwrap(),
        Daemon::start(node_config(&spool, "b", 500)).unwrap(),
        Daemon::start(node_config(&spool, "c", 500)).unwrap(),
    ];

    let seeds = [31u64, 32, 33, 34, 35, 36];
    let ids: Vec<String> = seeds
        .iter()
        .enumerate()
        .map(|(i, seed)| {
            submit_ok(nodes[i % nodes.len()].addr(), &small_job("acme", *seed, ""))
        })
        .collect();

    for (id, seed) in ids.iter().zip(seeds) {
        let (want_digest, want_bytes) =
            baseline_for(&small_job("acme", seed, ""), &format!("fleet-spread-base-{seed}"));
        // Status is answered by a node that did NOT admit the job.
        let done = wait_for_state(nodes[2].addr(), id, &["done"], RUN_WAIT);
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

    // Ids are unique fleet-wide (the exclusive directory create is the
    // arbiter) and nothing beyond the admitted jobs exists.
    let mut want: Vec<String> = ids.clone();
    want.sort();
    want.dedup();
    assert_eq!(want.len(), ids.len(), "no id was handed out twice");
    assert_eq!(job_dirs(&spool), want);

    // Health reports fleet identity per node.
    let health = common::request(nodes[0].addr(), "GET", "/healthz", "");
    assert!(health.body.contains("\"node\":\"a\""), "healthz names the node: {}", health.body);
    assert!(health.body.contains("\"boot_epoch\":1"));
    assert!(health.body.contains("\"leases_held\":"));

    for node in nodes {
        node.drain();
    }
}

#[test]
fn an_unknown_job_is_a_404_on_every_node() {
    let spool = fresh_spool("fleet-unknown");
    let node = Daemon::start(node_config(&spool, "solo", 500)).unwrap();
    assert_eq!(job_status(node.addr(), "j999999").status, 404);
    // Probe-shaped ids never touch the filesystem.
    assert_eq!(job_status(node.addr(), "..%2f..%2fetc").status, 404);
    assert_eq!(job_status(node.addr(), ".nodes").status, 404);
}
