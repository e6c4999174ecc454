//! Process-level smoke tests of the `acpp` binary: exit codes, help text,
//! and a generate → publish → breach round trip through real files.

use std::process::Command;

fn acpp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_acpp"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("acpp-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = acpp().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    for cmd in ["generate", "publish", "guarantee", "solve", "breach", "utility"] {
        assert!(text.contains(cmd), "help must mention `{cmd}`");
    }
}

#[test]
fn no_arguments_fails_with_usage() {
    let out = acpp().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = acpp().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn guarantee_prints_table_iii_values() {
    let out = acpp()
        .args(["guarantee", "--p", "0.3", "--k", "6"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0.2368"), "Delta bound: {text}");
    assert!(text.contains("0.4504"), "rho2 bound: {text}");
}

#[test]
fn invalid_flag_value_fails_cleanly() {
    let out = acpp()
        .args(["guarantee", "--p", "two", "--k", "6"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));
}

#[test]
fn generate_publish_breach_round_trip() {
    let data = tmp("smoke.csv");
    let dstar = tmp("smoke_dstar.csv");
    let out = acpp()
        .args(["generate", "--rows", "800", "--seed", "5", "--out"])
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(data.exists());
    let schema = tmp("smoke.csv.schema");
    assert!(schema.exists());

    let out = acpp()
        .args(["publish", "--p", "0.3", "--k", "4", "--input"])
        .arg(&data)
        .arg("--schema")
        .arg(&schema)
        .arg("--out")
        .arg(&dstar)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // Progress is a diagnostic: it goes to stderr, keeping stdout data-only.
    assert!(String::from_utf8_lossy(&out.stderr).contains("certified against"));
    assert!(out.stdout.is_empty(), "publish must keep stdout data-only");
    let release = std::fs::read_to_string(&dstar).unwrap();
    assert!(release.lines().count() > 1);
    assert!(release.lines().count() <= 1 + 800 / 4, "cardinality bound");

    let out = acpp()
        .args(["breach", "--p", "0.3", "--k", "4", "--attacks", "25", "--input"])
        .arg(&data)
        .arg("--schema")
        .arg(&schema)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("breaches        = 0"));
}

#[test]
fn journaled_crash_then_resume_round_trip() {
    let data = tmp("journal_smoke.csv");
    let out = acpp()
        .args(["generate", "--rows", "600", "--seed", "9", "--out"])
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let schema = tmp("journal_smoke.csv.schema");

    // Baseline: an uninterrupted journaled publish.
    let clean_dir = tmp("journal_clean");
    let _ = std::fs::remove_dir_all(&clean_dir);
    let clean_out = tmp("journal_clean_dstar.csv");
    let out = acpp()
        .args(["publish", "--p", "0.3", "--k", "4", "--seed", "11", "--input"])
        .arg(&data)
        .arg("--schema")
        .arg(&schema)
        .arg("--journal")
        .arg(&clean_dir)
        .arg("--out")
        .arg(&clean_out)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let expected = std::fs::read(&clean_out).unwrap();

    // Kill the same run at a phase boundary: exit 10, nothing published.
    let crash_dir = tmp("journal_crash");
    let _ = std::fs::remove_dir_all(&crash_dir);
    let crash_out = tmp("journal_crash_dstar.csv");
    let _ = std::fs::remove_file(&crash_out);
    let out = acpp()
        .args([
            "publish", "--p", "0.3", "--k", "4", "--seed", "11",
            "--crash-at", "after-generalize", "--input",
        ])
        .arg(&data)
        .arg("--schema")
        .arg(&schema)
        .arg("--journal")
        .arg(&crash_dir)
        .arg("--out")
        .arg(&crash_out)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(10), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!crash_out.exists(), "a crashed run must publish nothing");

    // Resume completes it byte-identically to the uninterrupted run.
    let out = acpp().arg("resume").arg(&crash_dir).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("resumed"));
    assert_eq!(std::fs::read(&crash_out).unwrap(), expected);

    // Resuming a journal that never existed is a journal error (exit 10).
    let out = acpp().args(["resume", "/nonexistent-journal-dir"]).output().unwrap();
    assert_eq!(out.status.code(), Some(10));
}

/// The `begin` record and the job file the build before the enum parsers
/// were unified wrote for the journaled run below.
const PREVIOUS_BEGIN: &str = "begin v1 seed=7 p=3fd3333333333333 k=4 alg=full-domain \
    policy=skip input=782dd8bb9b98fd51 taxes=6d47fc4778a733ad rows=200|60ff291aa9d4a3ef\n";
const PREVIOUS_JOB: &str = "acpp-job v1\ninput=data.csv\nschema=data.csv.schema\n\
    p_bits=3fd3333333333333\nk=4\nalgorithm=full-domain\npolicy=skip\nseed=7\nout=dstar.csv\n";

#[test]
fn journal_and_job_file_keep_the_previous_spellings() {
    let dir = tmp("spellings");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str]| {
        let out = acpp().args(args).current_dir(&dir).output().unwrap();
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    };
    run(&["generate", "--rows", "200", "--out", "data.csv"]);
    let publish = ["publish", "--input", "data.csv", "--schema", "data.csv.schema", "--p", "0.3"];
    let params = ["--k", "4", "--seed", "7", "--out", "dstar.csv"];
    // Both spellings of each enum write the same bytes the previous build did.
    for (alg, policy, journal) in
        [("full-domain", "skip", "j1"), ("full_domain", "skip_and_report", "j2")]
    {
        let flags = ["--algorithm", alg, "--on-error", policy, "--journal", journal];
        run(&[&publish[..], &params[..], &flags[..]].concat());
        let log = std::fs::read_to_string(dir.join(journal).join("journal.log")).unwrap();
        assert!(log.starts_with(PREVIOUS_BEGIN), "{journal}: {log}");
        let job = std::fs::read_to_string(dir.join(journal).join("job")).unwrap();
        assert_eq!(job, PREVIOUS_JOB, "{journal}");
    }
    let expected = std::fs::read(dir.join("dstar.csv")).unwrap();
    // A run the previous build interrupted right after `begin` resumes.
    let previous = dir.join("previous");
    std::fs::create_dir_all(&previous).unwrap();
    std::fs::write(previous.join("journal.log"), PREVIOUS_BEGIN).unwrap();
    std::fs::write(previous.join("job"), PREVIOUS_JOB).unwrap();
    std::fs::remove_file(dir.join("dstar.csv")).unwrap();
    run(&["resume", "previous"]);
    assert_eq!(std::fs::read(dir.join("dstar.csv")).unwrap(), expected);
}

#[test]
fn journaled_publish_emits_telemetry_artifacts() {
    let data = tmp("telemetry_smoke.csv");
    let out = acpp()
        .args(["generate", "--rows", "500", "--seed", "13", "--out"])
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let schema = tmp("telemetry_smoke.csv.schema");

    let jdir = tmp("telemetry_journal");
    let _ = std::fs::remove_dir_all(&jdir);
    let dstar = tmp("telemetry_dstar.csv");
    let trace = tmp("telemetry_trace.jsonl");
    let metrics = tmp("telemetry_metrics.prom");
    let out = acpp()
        .args(["publish", "--p", "0.3", "--k", "4", "--quiet", "--input"])
        .arg(&data)
        .arg("--schema")
        .arg(&schema)
        .arg("--journal")
        .arg(&jdir)
        .arg("--trace")
        .arg(&trace)
        .arg("--metrics")
        .arg(&metrics)
        .arg("--out")
        .arg(&dstar)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // --quiet silences every diagnostic; stdout was already data-only.
    assert!(out.stdout.is_empty(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    assert!(out.stderr.is_empty(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let trace_text = std::fs::read_to_string(&trace).unwrap();
    acpp_obs::validate_trace(&trace_text).expect("trace must be schema-valid");
    for span in ["pipeline.publish", "phase.perturb", "phase.generalize", "phase.sample"] {
        assert!(trace_text.contains(span), "trace must cover `{span}`");
    }
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    acpp_obs::validate_prometheus(&metrics_text).expect("metrics must be Prometheus-parsable");
    assert!(metrics_text.contains("acpp_pipeline_runs_total"));
    assert!(metrics_text.contains("acpp_group_size_bucket"));

    // --quiet and --verbose together are a usage error.
    let out = acpp()
        .args(["guarantee", "--p", "0.3", "--k", "6", "--quiet", "--verbose"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

#[test]
fn serve_keeps_stdout_machine_clean_across_serve_and_drain() {
    use std::io::{BufRead, BufReader, Read, Write};

    let spool = tmp("serve_stdout_spool");
    let _ = std::fs::remove_dir_all(&spool);
    let mut child = acpp()
        .args(["serve", "--addr", "127.0.0.1:0", "--spool"])
        .arg(&spool)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    // stdout's first line is the bound address — the one machine-readable
    // datum the command emits (scripts rely on it when binding port 0).
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    let addr: std::net::SocketAddr = first
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("first stdout line must be the bound address: {first:?}"));

    let roundtrip = |req: &str| {
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(req.as_bytes()).unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        resp
    };

    // The daemon serves real traffic without another byte on stdout.
    let resp = roundtrip(
        "GET /healthz HTTP/1.1\r\nHost: acppd\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "health check: {resp}");

    // Drain over the wire; the process must exit cleanly.
    let resp = roundtrip(
        "POST /drain HTTP/1.1\r\nHost: acppd\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 2"), "drain: {resp}");

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "drained serve exits 0, got {status:?}");
    assert!(
        rest.is_empty(),
        "stdout must stay machine-clean after the address line, got: {rest:?}"
    );

    // Every human-facing notice — boot banner, drain progress — is stderr.
    let mut err = String::new();
    child.stderr.take().unwrap().read_to_string(&mut err).unwrap();
    assert!(err.contains("acppd listening on"), "boot banner on stderr: {err}");
    assert!(err.contains("drained cleanly"), "drain notice on stderr: {err}");
}

#[test]
fn missing_input_file_fails_cleanly() {
    let out = acpp()
        .args(["publish", "--p", "0.3", "--k", "4", "--input", "/nonexistent.csv", "--out", "/tmp/x.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read input"));
}
